//! `results_sched.txt`: FIFO wake order vs contention-aware wake
//! policies (DESIGN.md §5.6).
//!
//! For each workload the harness records a baseline run under the
//! historical `(clock, tid)` FIFO order, flags convoy-prone sections
//! from the wait/hold profiles, freezes each alternative policy's
//! configuration from those profiles, re-runs the identical
//! deterministic schedule under every policy, and keeps the one with
//! the lowest total virtual-time wait (only if strictly below FIFO).
//!
//! ```text
//! cargo run -p bench --release --bin sched-table
//! ```
//!
//! `--smoke` swaps the table for the CI gate: one runnable
//! `workloads::scale` twin, evaluated at two analysis thread counts,
//! failing on any divergence or on a steered run that waits longer
//! than its FIFO baseline.

use atomic_lock_inference::replay::RunConfig;
use atomic_lock_inference::Pipeline;
use bench::cli::delta_pct;
use bench::harness::ops;
use interp::ExecMode;
use sched::ConvoyPolicy;
use std::process::ExitCode;
use workloads::scale::{self, ScaleParams};
use workloads::{micro, stamp, Contention, RunSpec};

fn specs() -> Vec<(usize, RunSpec)> {
    // (k, spec): high-contention micros are the convoy factories —
    // every thread queues on the same structure, and the op mix
    // (insert/remove/get) gives the hold histograms real spread for
    // ShortestExpectedHold to exploit. The read-heavy low-contention
    // rows are ReaderBatch's turf: shared-mode waiters batch behind
    // occasional writers.
    vec![
        (9, micro::list(Contention::High, ops(300), 20)),
        (9, micro::list(Contention::Low, ops(300), 20)),
        (9, micro::hashtable(Contention::High, ops(300), 20)),
        (9, micro::hashtable2(Contention::High, ops(300), 20)),
        (9, micro::rbtree(Contention::Low, ops(300), 20)),
        (9, micro::th(Contention::High, ops(300), 20)),
        (3, stamp::kmeans(ops(200), 20)),
    ]
}

/// The CI smoke gate: evaluate the full policy loop on a generated
/// `workloads::scale` program (the same family analysis-bench and the
/// sentinel overhead gate run), at two analysis thread counts. The
/// reports and baseline traces must be byte-identical, and no steered
/// run may wait longer than its FIFO baseline.
fn smoke() -> ExitCode {
    // A mid-tier shape: 12 sections over layered calls is enough lock
    // traffic for real waiter queues, small enough for a smoke job.
    let spec = scale::smoke(
        "sched-smoke",
        ScaleParams {
            depth: 4,
            width: 6,
            sections: 12,
            stmts_per_fn: 10,
            seed: 7,
        },
        3,
    );
    let cfg = RunConfig::from_spec(&spec, 9, ExecMode::MultiGrain, 8);
    let convoy = ConvoyPolicy::default();
    let mut runs = Vec::new();
    for analysis_threads in [1usize, 7] {
        match Pipeline::new(cfg.clone())
            .analysis_threads(analysis_threads)
            .sched(&convoy)
        {
            Ok(r) => runs.push(r),
            Err(e) => {
                println!("SCHED SMOKE: FAIL ({analysis_threads} analysis threads: {e})");
                return ExitCode::FAILURE;
            }
        }
    }
    let (a, b) = (&runs[0], &runs[1]);
    if a.report.to_json() != b.report.to_json() {
        println!("SCHED SMOKE: FAIL (selection reports diverged across analysis thread counts)");
        return ExitCode::FAILURE;
    }
    if a.baseline.trace.to_json() != b.baseline.trace.to_json() {
        println!("SCHED SMOKE: FAIL (baseline traces diverged across analysis thread counts)");
        return ExitCode::FAILURE;
    }
    let base = a.report.baseline;
    for p in &a.report.evaluated {
        if p.cost.total_wait > base.total_wait {
            println!(
                "SCHED SMOKE: FAIL ({} waits {} > FIFO {})",
                p.policy.tag(),
                p.cost.total_wait,
                base.total_wait
            );
            return ExitCode::FAILURE;
        }
    }
    let policy = match a.report.winner() {
        Some(w) => w.policy.tag(),
        None => "- (FIFO stands)",
    };
    println!(
        "SCHED SMOKE: OK ({} policies evaluated, {} convoy(s), fifo-wait {}, winner {policy})",
        a.report.evaluated.len(),
        a.report.convoys.len(),
        base.total_wait
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    if let Some(arg) = std::env::args().nth(1) {
        match arg.as_str() {
            "--smoke" => return smoke(),
            other => {
                eprintln!("sched-table: unknown flag `{other}` (only --smoke)");
                return ExitCode::from(2);
            }
        }
    }
    let threads = 8;
    let convoy = ConvoyPolicy::default();
    println!(
        "Contention-aware wake policies: FIFO baseline vs steered replay (8 threads, MultiGrain)"
    );
    println!("wait/hold are totals in virtual ticks across all outermost sections; `convoys`");
    println!("counts flagged sections (est. queue depth x hold >= threshold); `policy` names");
    println!("the selected wake policy (- = FIFO stands).");
    println!();
    println!(
        "{:<18} {:>2} {:>10} {:>10} {:>7} {:>9} {:>9} {:>7}  policy",
        "Program", "k", "fifo-wait", "best-wait", "Δwait%", "fifo-span", "best-span", "convoys"
    );
    let mut failed = false;
    let mut improved = 0usize;
    for (k, spec) in specs() {
        let cfg = RunConfig::from_spec(&spec, k, ExecMode::MultiGrain, threads);
        let run = match Pipeline::new(cfg).sched(&convoy) {
            Ok(r) => r,
            Err(e) => {
                println!("{:<18} ERROR: {e}", spec.name);
                failed = true;
                continue;
            }
        };
        let b = run.report.baseline;
        let (best, policy) = match run.report.winner() {
            Some(w) => (w.cost, w.policy.tag().to_string()),
            None => (b, "-".to_string()),
        };
        if best.total_wait > b.total_wait {
            failed = true;
        }
        if best.total_wait < b.total_wait {
            improved += 1;
        }
        let delta = delta_pct(b.total_wait, best.total_wait);
        println!(
            "{:<18} {:>2} {:>10} {:>10} {:>+7.1} {:>9} {:>9} {:>7}  {}",
            spec.name,
            k,
            b.total_wait,
            best.total_wait,
            delta,
            b.makespan,
            best.makespan,
            run.report.convoys.len(),
            policy
        );
    }
    println!();
    println!("{improved} workload(s) improved; every policy re-run on the exact recorded");
    println!("schedule (same seed, same virtual scheduler), selection by strict");
    println!("total-wait reduction. Steered recordings replay bit-for-bit from their");
    println!("run.sched_* metadata.");
    if failed || improved == 0 {
        println!("SCHED TABLE: FAIL (no improvement or invariant breach)");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
