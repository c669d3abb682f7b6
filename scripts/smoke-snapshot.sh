#!/usr/bin/env bash
# Snapshot round-trip smoke: build -> inspect -> verify -> sweep, byte-identical to the
# inline run.
#
#   scripts/smoke-snapshot.sh
#
# scripts/smoke-lib.sh builds `sfo`, persists the topology of
# examples/scenario_snapshot_build.json as `smoke.sfos` and sweeps it. This script
# inspects and verifies the file, runs the same spec inline (generating the topology in
# process), and checks that the inline result is byte-identical to the snapshot
# run's. It then checks the same for a sweep over the zero-copy load (`--mmap`) and
# over a `--shards 1` build of the same spec: a file with no shard manifest (the spec's
# `shard_count` of 4 is the build's default).
# Everything it writes lives in a temporary directory.
# The last line of output is `ok`, or the diff / failed check.
source "$(dirname "${BASH_SOURCE[0]}")/smoke-lib.sh"

"$sfo" snapshot inspect smoke.sfos
"$sfo" snapshot verify smoke.sfos
"$sfo" scenario run "$repo/examples/scenario_snapshot_build.json" --quiet \
    --out inline_report.json
same_result_as_local inline_report.json

"$sfo" scenario run spec.json --mmap --quiet --out mmap_report.json
same_result_as_local mmap_report.json

"$sfo" snapshot build "$repo/examples/scenario_snapshot_build.json" -o plain.sfos \
    --shards 1 >/dev/null
"$sfo" snapshot verify plain.sfos
sed 's/smoke\.sfos/plain.sfos/' spec.json >plain_spec.json
"$sfo" scenario run plain_spec.json --quiet --out plain_report.json
same_result_as_local plain_report.json
echo ok
