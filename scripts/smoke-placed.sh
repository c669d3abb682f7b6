#!/usr/bin/env bash
# Placed-distributed smoke: three pinned shard workers, frontier hops, byte-identical.
#
#   scripts/smoke-placed.sh
#
# Builds `sfo`, builds the snapshot of examples/scenario_snapshot_build.json (an FL
# sweep), runs that sweep locally and then `sfo dispatch --placed` over three `sfo
# serve --shard i --shards 3` daemons on free loopback ports, and checks that
#   - the placed result is byte-identical to the local one (else prints the diff);
#   - frontier traffic crossed hosts and its accounting holds;
#   - FL hops at most once per level and host:
#     placed.frontiers_sent <= (workers - 1) * sum over jobs of the job's ttl.
# Everything it writes lives in a temporary directory; every daemon is reaped on exit.
# The last line of output is `ok`, or the diff / failed check.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
repo=$PWD
cargo build --release -q -p sfoverlay --bin sfo
sfo="$repo/target/release/sfo"

work=$(mktemp -d)
pids=()
cleanup() {
    for pid in "${pids[@]}"; do
        kill "$pid" 2>/dev/null || true
    done
    for pid in "${pids[@]}"; do
        wait "$pid" 2>/dev/null || true
    done
    rm -rf "$work"
}
trap cleanup EXIT
cd "$work"

"$sfo" snapshot build "$repo/examples/scenario_snapshot_build.json" -o smoke.sfos >/dev/null
python3 - "$repo/examples/scenario_snapshot_build.json" <<'PY'
import json, sys
text = open(sys.argv[1]).read()
spec = json.loads('\n'.join(l for l in text.split('\n') if not l.strip().startswith('//')))
spec['topology'] = {"family": "snapshot", "path": "smoke.sfos"}
json.dump(spec, open('spec.json', 'w'))
PY
"$sfo" scenario run spec.json --quiet --out local_report.json

# Three pinned shard workers on port 0; each announces its address on stderr.
workers=3
addrs=()
for shard in $(seq 0 $((workers - 1))); do
    "$sfo" serve smoke.sfos --listen 127.0.0.1:0 --shards "$workers" --shard "$shard" \
        2>"serve-$shard.log" &
    pids+=($!)
    addr=""
    for _ in $(seq 100); do
        addr=$(sed -n 's/^serving [^ ]* on \([^ ]*\) .*/\1/p' "serve-$shard.log" | head -n 1)
        [ -n "$addr" ] && break
        sleep 0.1
    done
    if [ -z "$addr" ]; then
        cat "serve-$shard.log"
        echo "shard worker $shard never announced an address"
        exit 1
    fi
    addrs+=("$addr")
done

worker_args=()
for addr in "${addrs[@]}"; do
    worker_args+=(--worker "$addr")
done
"$sfo" dispatch spec.json --placed "${worker_args[@]}" \
    --quiet --out placed_report.json --metrics-out placed_metrics.json

# The headline invariant: a placed run is byte-identical to the local one.
python3 - <<'PY'
import json
for name in ('local', 'placed'):
    result = json.load(open(f'{name}_report.json'))['result']
    json.dump(result, open(f'{name}_result.json', 'w'), indent=1, sort_keys=True)
PY
if ! diff local_result.json placed_result.json; then
    exit 1
fi

# Frontier traffic really crossed hosts: poll each worker's counters.
for shard in $(seq 0 $((workers - 1))); do
    "$sfo" stats "${addrs[$shard]}" >"stats-$shard.json"
done
python3 - "$workers" <<'PY'
import json, sys
workers = int(sys.argv[1])
served = scanned = cross = forwarded = 0
for shard in range(workers):
    c = json.load(open(f'stats-{shard}.json'))['counters']
    served += c.get('placed.frontiers_served', 0)
    forwarded += c.get('placed.frontiers_forwarded', 0)
    scanned += c.get('placed.frontier_entries_scanned', 0)
    cross += c.get('placed.frontier_entries_cross', 0)
assert served > 0, 'no frontiers served'
assert forwarded > 0, 'no frontier ever crossed a shard boundary'
assert 0 < cross <= scanned, f'cross/scanned accounting broken: {cross}/{scanned}'
dm = json.load(open('placed_metrics.json'))
sent = dm['counters']['placed.frontiers_sent']
assert sent > 0, 'dispatcher sent no frontiers'
assert dm['histograms']['placed.hop_micros']['count'] > 0, 'hop latency missing'
sweep = json.load(open('spec.json'))['sweep']
ttl_sum = sweep['searches_per_point'] * sum(sweep['ttls'])
bound = (workers - 1) * ttl_sum
assert sent <= bound, f'{sent} frontiers sent, more than (workers - 1) * sum of ttls = {bound}'
print(f'{sent} frontiers sent for {ttl_sum} job-levels over {workers} workers (bound {bound})')
PY
echo ok
