#!/usr/bin/env bash
# Smoke run for CI, under a minute: every workload with the smallest
# window (`--seconds 0` still takes the warm-up and at least three
# samples each), every check made, then the results' *shape* compared
# with the committed first results — same workloads, same metric
# names, nothing incorrect. Timings from so few samples are not judged.
#
# Not wired into .github/workflows/ci.yml yet: CI is outside the paths
# the benchmark's defining change may touch.
set -euo pipefail
cd "$(dirname "$0")/.."
out=benchmark/out/smoke.json
benchmark/run.sh --seconds 0 --out "$out"
benchmark/run.sh compare --shape benchmark/results/first.json "$out"
