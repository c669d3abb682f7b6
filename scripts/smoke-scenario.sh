#!/usr/bin/env bash
# Scenario smoke: spec -> runner -> report, end to end.
#
#   scripts/smoke-scenario.sh
#
# Builds `sfo` (scripts/smoke-lib.sh), validates every examples/*.json, then runs
# examples/scenario_smoke.json twice, with the default thread count and with
# `--threads 2`. It checks that the report is written and that both runs measured the
# same result byte for byte (the reports embed the overridden spec, so only `result`
# is compared). Everything it writes lives in a temporary directory.
# The last line of output is `ok`, or the diff / failed check.
source "$(dirname "${BASH_SOURCE[0]}")/smoke-lib.sh"

"$sfo" scenario validate "$repo"/examples/*.json
"$sfo" scenario run "$repo/examples/scenario_smoke.json" --quiet --out smoke_report.json
test -s smoke_report.json
"$sfo" scenario run "$repo/examples/scenario_smoke.json" --threads 2 --quiet \
    --out smoke_report_t2.json
same_result smoke_report.json smoke_report_t2.json
echo ok
