#!/usr/bin/env bash
# Placed-distributed smoke: pinned and whole-snapshot shard workers, frontier hops,
# byte-identical.
#
#   scripts/smoke-placed.sh
#
# Builds `sfo` and the FL sweep snapshot of scripts/smoke-lib.sh, runs that sweep
# locally, then runs `sfo dispatch --placed` twice, each time over three daemons on
# free loopback ports:
#   - pinned: `sfo serve --shard i --shards 3`. The dispatcher reads only the file's
#     header and trailer and ships nothing (placed.shards_shipped == 0);
#   - whole-snapshot: plain `sfo serve`. The dispatcher loads the file and ships each
#     worker its slice (placed.shards_shipped == 3).
# Each leg checks that
#   - the placed result is byte-identical to the local one (else prints the diff);
#   - frontier traffic crossed hosts and its accounting holds;
#   - FL hops at most once per level and host:
#     placed.frontiers_sent <= (workers - 1) * sum over jobs of the job's ttl.
# Everything it writes lives in a temporary directory; every daemon is reaped on exit.
# The last line of output is `ok`, or the diff / failed check.
source "$(dirname "${BASH_SOURCE[0]}")/smoke-lib.sh"

workers=3
for leg in pinned whole; do
    addrs=()
    for shard in $(seq 0 $((workers - 1))); do
        if [ "$leg" = pinned ]; then
            start_daemon "serve-$leg-$shard.log" --shards "$workers" --shard "$shard"
        else
            start_daemon "serve-$leg-$shard.log"
        fi
        addrs+=("$addr")
    done

    worker_args=()
    for addr in "${addrs[@]}"; do
        worker_args+=(--worker "$addr")
    done
    "$sfo" dispatch spec.json --placed "${worker_args[@]}" \
        --quiet --out "$leg-report.json" --metrics-out "$leg-metrics.json"
    same_result_as_local "$leg-report.json"

    # Frontier traffic really crossed hosts: poll each worker's counters.
    for shard in $(seq 0 $((workers - 1))); do
        "$sfo" stats "${addrs[$shard]}" >"stats-$leg-$shard.json"
    done
    python3 - "$leg" "$workers" <<'PY'
import json, sys
leg, workers = sys.argv[1], int(sys.argv[2])
served = scanned = cross = forwarded = 0
for shard in range(workers):
    c = json.load(open(f'stats-{leg}-{shard}.json'))['counters']
    served += c.get('placed.frontiers_served', 0)
    forwarded += c.get('placed.frontiers_forwarded', 0)
    scanned += c.get('placed.frontier_entries_scanned', 0)
    cross += c.get('placed.frontier_entries_cross', 0)
assert served > 0, f'{leg}: no frontiers served'
assert forwarded > 0, f'{leg}: no frontier ever crossed a shard boundary'
assert 0 < cross <= scanned, f'{leg}: cross/scanned accounting broken: {cross}/{scanned}'
dm = json.load(open(f'{leg}-metrics.json'))
sent = dm['counters']['placed.frontiers_sent']
assert sent > 0, f'{leg}: dispatcher sent no frontiers'
assert dm['histograms']['placed.hop_micros']['count'] > 0, f'{leg}: hop latency missing'
assert dm['histograms']['placed.setup_micros']['count'] == 1, f'{leg}: setup time missing'
shipped = dm['counters']['placed.shards_shipped']
expected = 0 if leg == 'pinned' else workers
assert shipped == expected, f'{leg}: {shipped} shards shipped, expected {expected}'
sweep = json.load(open('spec.json'))['sweep']
ttl_sum = sweep['searches_per_point'] * sum(sweep['ttls'])
bound = (workers - 1) * ttl_sum
assert sent <= bound, f'{leg}: {sent} frontiers sent, more than (workers - 1) * sum of ttls = {bound}'
print(f'{leg}: {sent} frontiers sent for {ttl_sum} job-levels over {workers} workers '
      f'(bound {bound}), {shipped} shards shipped')
PY
done
echo ok
