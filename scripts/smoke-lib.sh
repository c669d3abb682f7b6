# Shared set-up of the smoke scripts: source it, do not run it.
#
# After `source scripts/smoke-lib.sh`:
#   - `$sfo` is a freshly built release `sfo` and `$repo` the repo root;
#   - the shell is in a fresh temporary directory, removed on exit, and every daemon
#     started with `start_daemon` is reaped on exit;
#   - `smoke.sfos` is the snapshot of examples/scenario_snapshot_build.json (an FL
#     sweep), `spec.json` that spec pointed at it, and `local_report.json` its local run.
set -euo pipefail

repo=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
(cd "$repo" && cargo build --release -q -p sfoverlay --bin sfo)
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

# Starts `sfo serve smoke.sfos --listen 127.0.0.1:0 <args>` logging to `$1`, and sets
# `addr` to the address it announces on stderr.
start_daemon() {
    local log=$1
    shift
    "$sfo" serve smoke.sfos --listen 127.0.0.1:0 "$@" 2>"$log" &
    pids+=($!)
    addr=""
    for _ in $(seq 100); do
        addr=$(sed -n 's/^serving [^ ]* on \([^ ]*\) .*/\1/p' "$log" | head -n 1)
        [ -n "$addr" ] && return 0
        sleep 0.1
    done
    cat "$log"
    echo "daemon ($log) never announced an address"
    exit 1
}

# Fails, printing the diff, unless the `result` members of reports `$1` and `$2` are
# byte-identical (the reports also embed their specs, which may differ).
same_result() {
    python3 - "$1" "$2" <<'PY'
import json, sys
for report in sys.argv[1:]:
    result = json.load(open(report))['result']
    json.dump(result, open(report + '.result', 'w'), indent=1, sort_keys=True)
PY
    if ! diff "$1.result" "$2.result"; then
        echo "$2 diverged from $1"
        exit 1
    fi
}

# Fails unless `$1`'s result is byte-identical to the local run's: the headline
# invariant of every distributed path.
same_result_as_local() {
    same_result local_report.json "$1"
}
