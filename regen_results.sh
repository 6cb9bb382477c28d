#!/bin/bash
# Regenerates every results_*.txt artifact from the release binaries.
# Errors are fatal and land on the terminal — a silently truncated
# table is worse than no table.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release -q --workspace

./target/release/table1   > results_table1.txt
./target/release/table2   > results_table2.txt
./target/release/figure7  > results_figure7.txt
./target/release/ablation > results_ablation.txt
./target/release/figure8  > results_figure8.txt

# Profile-guided per-section adaptation (DESIGN.md §5.4): baseline vs
# adapted wait/hold per workload, with the best wake-policy candidate
# (DESIGN.md §5.6) in the `wake` column. The binary exits nonzero when no
# workload improves or an adapted run waits longer than its baseline.
./target/release/adapt-table > results_adapt.txt

# Shared candidate-evaluation harness (DESIGN.md §5.7): the
# `hoist: false` emulation of the pre-harness sequential candidate
# loop vs the hoisted, parallel, pruned harness on generated scale
# programs. The binary exits nonzero when the
# aggregate candidate-loop speedup drops below 3x, an exact parallel
# report diverges from the sequential bytes, or pruning discards an
# exact winner.
./target/release/eval-bench > results_eval.txt

# Analysis-engine throughput: prints the naive-vs-optimized table and
# refreshes the committed baseline the CI smoke job checks against.
./target/release/analysis-bench --out BENCH_analysis.json \
    | tee results_analysis_bench.txt
echo DONE
