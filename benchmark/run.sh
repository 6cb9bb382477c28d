#!/usr/bin/env bash
# Builds the benchmark from source and runs it. From any directory:
#
#   benchmark/run.sh                         every workload, end to end
#   benchmark/run.sh --trace 1               every workload, per layer
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   benchmark/run.sh --out FILE              also write the results file
#   benchmark/run.sh --bless                 rewrite benchmark/expected/
#   benchmark/run.sh compare A.json B.json   hold B to A by the bounds
#
# The build's output goes to standard error, so the last line of
# standard output is the benchmark's result line.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/perf-ladder" "$@"
