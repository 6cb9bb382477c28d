//! `results_adapt.txt`: baseline vs profile-adapted per-section lock
//! configurations (DESIGN.md §5.4).
//!
//! For each workload the harness records a baseline run under the
//! uniform `Σ_k × Σ≡ × Σ_ε` configuration, derives candidate
//! per-section overrides from the corrected wait/hold/revalidation
//! profiles, replays the identical deterministic schedule under each
//! candidate's inferred locks, and keeps the override with the lowest
//! total virtual-time wait (only if strictly below the baseline).
//! Convoy-flagged sections also get wake-policy candidates (DESIGN.md
//! §5.6) in the same loop; the `wake` column holds them to their
//! results next to the lock-plan candidates.
//!
//! ```text
//! cargo run -p bench --release --bin adapt-table
//! ```

use atomic_lock_inference::adapt::{select, Adjustment, DecisionReport};
use atomic_lock_inference::replay::RunConfig;
use atomic_lock_inference::Pipeline;
use bench::cli::delta_pct;
use interp::ExecMode;
use lockinfer::AdaptPolicy;
use std::process::ExitCode;
use workloads::{micro, stamp, Contention, RunSpec};

fn specs() -> Vec<(usize, RunSpec)> {
    // (k, spec): fine expression locks where the workload has them, so
    // the adaptation loop has room to coarsen; `th`'s rehash drift and
    // the high-contention micros are the interesting rows. The
    // read-heavy low-contention rows are ReaderBatch's turf:
    // shared-mode waiters batch behind occasional writers.
    vec![
        (9, micro::list(Contention::High, 300, 20)),
        (9, micro::list(Contention::Low, 300, 20)),
        (9, micro::hashtable(Contention::High, 300, 20)),
        (9, micro::hashtable2(Contention::High, 300, 20)),
        (9, micro::rbtree(Contention::Low, 300, 20)),
        (9, micro::th(Contention::High, 300, 20)),
        (3, stamp::kmeans(200, 20)),
    ]
}

/// The `wake` cell: the best replayed wake-policy candidate's tag and
/// Δwait % against the baseline, `-` when none waits strictly less.
fn wake_cell(report: &DecisionReport) -> String {
    let wake = report
        .candidates
        .iter()
        .enumerate()
        .filter(|(_, d)| {
            matches!(d.candidate.adjustment, Adjustment::WakePolicy(_)) && d.status.is_replayed()
        })
        .map(|(i, d)| (i, d.cost));
    match select(report.baseline, wake) {
        Some(i) => {
            let d = &report.candidates[i];
            format!(
                "{} {:+.1}",
                d.candidate.adjustment.tag(),
                delta_pct(report.baseline.total_wait, d.cost.total_wait)
            )
        }
        None => "-".to_string(),
    }
}

fn main() -> ExitCode {
    let threads = 8;
    println!("Per-section adaptive granularity: baseline vs adapted (8 threads, MultiGrain)");
    println!("wait/hold/reval are totals in virtual ticks across all outermost sections;");
    println!("`wake` is the best replayed wake-policy candidate and its Δwait% (- = none waits");
    println!("less than the baseline); `decision` names the selected override (- = uniform");
    println!("configuration stands).");
    println!();
    println!(
        "{:<18} {:>2} {:>10} {:>10} {:>7} {:>9} {:>9} {:>6} {:>17}  decision",
        "Program", "k", "base-wait", "ad-wait", "Δwait%", "base-span", "ad-span", "reval", "wake"
    );
    let mut failed = false;
    let mut improved = 0usize;
    for (k, spec) in specs() {
        let cfg = RunConfig::from_spec(&spec, k, ExecMode::MultiGrain, threads);
        let run = match Pipeline::new(cfg).adapt(&AdaptPolicy) {
            Ok(r) => r,
            Err(e) => {
                println!("{:<18} ERROR: {e}", spec.name);
                failed = true;
                continue;
            }
        };
        let b = run.report.baseline;
        let (ad, decision) = match run.report.winner() {
            Some(w) => (
                w.cost,
                format!(
                    "s{} {} ({})",
                    w.candidate.section,
                    w.candidate.adjustment.tag(),
                    w.candidate.trigger.tag()
                ),
            ),
            None => (b, "-".to_string()),
        };
        if ad.total_wait > b.total_wait {
            failed = true;
        }
        if ad.total_wait < b.total_wait {
            improved += 1;
        }
        let delta = delta_pct(b.total_wait, ad.total_wait);
        println!(
            "{:<18} {:>2} {:>10} {:>10} {:>+7.1} {:>9} {:>9} {:>6} {:>17}  {}",
            spec.name,
            k,
            b.total_wait,
            ad.total_wait,
            delta,
            b.makespan,
            ad.makespan,
            b.total_revalidations,
            wake_cell(&run.report),
            decision
        );
    }
    println!();
    println!("{improved} workload(s) improved; candidates evaluated by exact replay on the");
    println!("recorded schedule, selection by strict total-wait reduction.");
    if failed || improved == 0 {
        println!("ADAPT TABLE: FAIL (no improvement or invariant breach)");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
