#!/usr/bin/env bash
# The repo's benchmark, one command. See benchmark/README.md.
#
#   benchmark/run.sh                         all four workloads: end-to-end, then traced
#   benchmark/run.sh --repeat 2              two full sets, compared against the bounds
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                            one run; the last line of stdout is the
#                                            result object BENCHMARK.json describes
#
# Builds `sfo` (root workspace) and the harness (benchmark/, a package of its own)
# first; build time is not part of any metric. Everything the run leaves behind is
# under benchmark/out/ (and the cargo target directories).
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

workload="" seed=7 seconds="" trace=0 repeat=1
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        --seed) seed="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --trace) trace="$2"; shift 2 ;;
        --repeat) repeat="$2"; shift 2 ;;
        *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
    esac
done

# One measured window; BENCHMARK.json's run_seconds unless told otherwise.
if [ -z "$seconds" ]; then
    seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)"
fi

# --- build -------------------------------------------------------------------------
# Explicit manifest paths: cargo must fail here, not wander up to some parent
# directory's manifest, when the repo around the benchmark is missing.
out=benchmark/out
mkdir -p "$out"
build() {
    if ! cargo build --release --offline "$@" >"$out/build.log" 2>&1; then
        cat "$out/build.log" >&2
        echo "run.sh: cargo build $* failed" >&2
        exit 3
    fi
}
build --manifest-path Cargo.toml --bin sfo
build --manifest-path benchmark/Cargo.toml --bin sfo-bench-e2e
build --manifest-path benchmark/Cargo.toml --bin sfo-bench-trace

# With CARGO_TARGET_DIR set both builds share it; otherwise each manifest has its own.
root_target="${CARGO_TARGET_DIR:-target}"
bench_target="${CARGO_TARGET_DIR:-benchmark/target}"
sfo="$root_target/release/sfo"
e2e="$bench_target/release/sfo-bench-e2e"
tracer="$bench_target/release/sfo-bench-trace"

# Scratch directories of runs that were killed before they could clean up.
for stale in "$out"/run-*; do
    [ -d "$stale" ] || continue
    kill -0 "${stale##*/run-}" 2>/dev/null || rm -rf "$stale"
done

# --- one harness process -------------------------------------------------------------
# `timeout` makes itself a process-group leader and signals the whole group, so the
# harness *and every daemon it spawned* die on a hang; the trap does the same when this
# script is interrupted. On a normal exit or an error the harness reaps its own children.
child=""
trap 'if [ -n "$child" ]; then kill -TERM -- "-$child" 2>/dev/null || true; fi; exit 143' INT TERM
harness() {
    local status=0
    timeout -k 5 170 "$@" &
    child=$!
    wait "$child" || status=$?
    child=""
    return "$status"
}

common=(--seed "$seed" --seconds "$seconds" --sfo "$sfo" --out "$out")

# --- driver mode: one workload, one run ---------------------------------------------
if [ -n "$workload" ]; then
    if [ "$trace" = 1 ]; then
        harness "$tracer" --workload "$workload" "${common[@]}"
    else
        harness "$e2e" --workload "$workload" "${common[@]}"
    fi
    exit $?
fi

# --- full mode: every workload, both halves, `repeat` times ---------------------------
workloads=(serve-small serve-flood scenario-sweep placed-sweep)
status=0
for set in $(seq 1 "$repeat"); do
    for w in "${workloads[@]}"; do
        echo "##### set $set: $w (end to end, tracing off)"
        harness "$e2e" --workload "$w" "${common[@]}" --report "$out/e2e-$w.set$set.json" || status=1
        echo "##### set $set: $w (per layer, traced)"
        harness "$tracer" --workload "$w" "${common[@]}" \
            --report "$out/layers-$w.set$set.json" --merge "$out/e2e-$w.set$set.json" || status=1
    done
done
if [ "$repeat" -ge 2 ]; then
    echo "##### set 1 against set 2"
    "$e2e" --compare "$out" || status=1
fi
exit "$status"
