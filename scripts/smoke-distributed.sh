#!/usr/bin/env bash
# Distributed smoke: one `sfo serve` daemon, two job slices, byte-identical.
#
#   scripts/smoke-distributed.sh
#
# Builds `sfo` and the FL sweep snapshot of scripts/smoke-lib.sh, runs that sweep
# locally, then runs `sfo dispatch` with the same daemon (`sfo serve --engine-workers 2
# --shards 2` on a free loopback port) named twice as a worker, so the grid splits
# into two contiguous slices over one process. It checks that
#   - the dispatched result is byte-identical to the local one (else prints the diff);
#   - the daemon counted the connections, batches and engine jobs it served, and its
#     request-latency histogram is populated;
#   - the dispatcher counted two slices and timed each.
# Everything it writes lives in a temporary directory; the daemon is reaped on exit.
# The last line of output is `ok`, or the diff / failed check.
source "$(dirname "${BASH_SOURCE[0]}")/smoke-lib.sh"

start_daemon serve.log --engine-workers 2 --shards 2
"$sfo" dispatch spec.json --worker "$addr" --worker "$addr" \
    --quiet --out distributed_report.json --metrics-out dispatch_metrics.json
same_result_as_local distributed_report.json

# The worker accumulated telemetry while serving; poll it over the wire and check the
# counters the dispatch above must have produced.
"$sfo" stats "$addr" >worker_stats.json
python3 - <<'PY'
import json
stats = json.load(open('worker_stats.json'))
c, h = stats['counters'], stats['histograms']
assert c['net.connections'] > 0, 'no connections counted'
assert c['net.frames_in.SubmitBatch'] >= 2, 'batches not counted'
assert c['engine.jobs'] > 0, 'engine jobs not counted'
req = h['net.request_micros']
assert req['count'] >= 2 and req['p99'] >= req['p50'] > 0, 'request latency histogram empty'
dm = json.load(open('dispatch_metrics.json'))
assert dm['counters']['dispatch.slices'] == 2, 'dispatcher slices not counted'
assert dm['histograms']['dispatch.worker_micros']['count'] == 2, 'per-slice latency missing'
PY
echo ok
