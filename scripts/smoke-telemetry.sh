#!/usr/bin/env bash
# Telemetry smoke: a `--metrics-out` run is byte-identical to a plain run.
#
#   scripts/smoke-telemetry.sh
#
# scripts/smoke-lib.sh builds `sfo` and runs the FL sweep over its snapshot. This
# script runs the same sweep again with `--metrics-out` and checks that
#   - the report is byte-identical to the unmetered one (watching never changes a
#     result byte);
#   - the metrics file observed the load-and-shard and sweep phases and counted the
#     engine's jobs.
# Everything it writes lives in a temporary directory.
# The last line of output is `ok`, or the failed check.
source "$(dirname "${BASH_SOURCE[0]}")/smoke-lib.sh"

"$sfo" scenario run spec.json --quiet --out metered_report.json --metrics-out run_metrics.json
cmp local_report.json metered_report.json
python3 - <<'PY'
import json
m = json.load(open('run_metrics.json'))
h = m['histograms']
for phase in ('scenario.freeze_micros', 'scenario.sweep_micros'):
    assert h[phase]['count'] > 0, f'{phase} never observed'
assert m['counters']['engine.jobs'] > 0, 'engine jobs not counted'
PY
echo ok
