#!/usr/bin/env bash
# The repo benchmark's one command.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--quick] [--out FILE]
#       every workload in its own process, tracing off and then on; checks
#       every result and writes every metric to benchmark/out/results-seedN.json
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run of one workload (what BENCHMARK.json's driver calls); the
#       last line of stdout is the result as one JSON object
#   benchmark/run.sh compare A.json B.json
#       applies the regression bounds to two results files
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# Reproducible runs: none of the engine's environment knobs reaches it.
unset TRANCE_WORKERS TRANCE_EXPR TRANCE_FAULT_SEED TRANCE_NET_SEED TRANCE_NET_WORKER
for var in $(compgen -e | grep '^TRANCE_FUZZ_' || true); do unset "$var"; done

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../target}"
export TRANCE_BENCH_OUT="${TRANCE_BENCH_OUT:-$here/out}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$CARGO_TARGET_DIR/release/trance-benchmark"

if [ "${1:-}" = compare ]; then
    exec "$bin" "$@"
fi
for arg in "$@"; do
    if [ "$arg" = --workload ]; then
        exec "$bin" run "$@"
    fi
done
exec "$bin" all "$@"
