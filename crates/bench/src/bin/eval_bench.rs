//! `results_eval.txt`: the shared candidate-evaluation harness
//! (DESIGN.md §5.7) vs the legacy sequential candidate loop.
//!
//! For each generated `workloads::scale` program the bench runs the
//! same adaptation loop three ways:
//!
//! * **seq** — the pre-harness shape: invariant hoisting off (program
//!   compiled and points-to analyzed once per candidate), one eval
//!   worker, every candidate replayed exactly.
//! * **har8** — the full harness: invariants hoisted once, 8 eval
//!   workers, trace-analytic pruning (top-4 plus the estimator's
//!   family-diversity guard).
//! * an exact parallel run (hoist on, no pruning) whose report must be
//!   **byte-identical** to seq's — the harness's determinism claim.
//!
//! The table reports wall-clock of the *candidate loop* (total minus
//! the baseline recording both paths share) and asserts, over the
//! scale rows in aggregate, the har8 loop is at least **3×** faster
//! than seq, that pruning never discarded the winner seq selected, and
//! that the pruned run selects that same winner.
//!
//! ```text
//! cargo run -p bench --release --bin eval-bench
//! ```
//!
//! `--smoke` swaps the table for the CI gate: one smaller scale twin,
//! byte-identical adapt reports at eval thread counts 1/2/7 (pruning
//! on), estimator soundness, and a relaxed 2× speedup floor. `--check` is accepted for CI symmetry
//! with the other gates (the smoke assertions are always on).

use atomic_lock_inference::adapt::AdaptRun;
use atomic_lock_inference::eval::EvalOptions;
use atomic_lock_inference::replay::{record, RunConfig};
use atomic_lock_inference::Pipeline;
use interp::ExecMode;
use lockinfer::adapt::AdaptPolicy;
use std::process::ExitCode;
use std::time::Instant;
use workloads::scale::{self, ScaleParams};
use workloads::RunSpec;

const TOP_K: usize = 4;

/// The legacy sequential candidate loop, as `EvalOptions`.
fn seq_opts() -> EvalOptions {
    EvalOptions {
        eval_threads: 1,
        hoist: false,
        ..EvalOptions::default()
    }
}

/// The full harness at `threads` eval workers with pruning on.
fn harness_opts(threads: usize) -> EvalOptions {
    EvalOptions {
        eval_threads: threads,
        prune: Some(TOP_K),
        ..EvalOptions::default()
    }
}

fn adapt(cfg: &RunConfig, policy: &AdaptPolicy, opts: EvalOptions) -> Result<AdaptRun, String> {
    Pipeline::new(cfg.clone()).options(opts).adapt(policy)
}

fn specs() -> Vec<RunSpec> {
    // Analysis-heavy shapes: deep call graphs with many sections make
    // per-candidate re-inference (what seq pays and the harness
    // hoists/memoizes) the dominant candidate cost, exactly the regime
    // the adaptive loop runs in on real programs.
    vec![
        scale::smoke(
            "scale-d4w6s12",
            ScaleParams {
                depth: 4,
                width: 6,
                sections: 12,
                stmts_per_fn: 10,
                seed: 7,
            },
            3,
        ),
        scale::smoke(
            "scale-d5w8s20",
            ScaleParams {
                depth: 5,
                width: 8,
                sections: 20,
                stmts_per_fn: 12,
                seed: 11,
            },
            3,
        ),
        scale::smoke(
            "scale-d4w10s24",
            ScaleParams {
                depth: 4,
                width: 10,
                sections: 24,
                stmts_per_fn: 8,
                seed: 23,
            },
            4,
        ),
    ]
}

struct Row {
    name: String,
    cands: usize,
    replayed: usize,
    /// Candidate-loop wall-clock, milliseconds.
    seq_ms: f64,
    har_ms: f64,
    sound: bool,
    winner: String,
}

/// Runs one workload through every mode.
fn run_row(cfg: &RunConfig, policy: &AdaptPolicy) -> Result<Row, String> {
    // Baseline recording cost, shared by every mode: subtracted so the
    // table speaks about the candidate loop itself.
    let t = Instant::now();
    let _ = record(cfg)?;
    let base_ms = t.elapsed().as_secs_f64() * 1e3;

    let t = Instant::now();
    let seq = adapt(cfg, policy, seq_opts())?;
    let seq_ms = (t.elapsed().as_secs_f64() * 1e3 - base_ms).max(0.1);

    // Determinism: the exact parallel harness must reproduce the
    // legacy report byte for byte.
    let exact_par = adapt(
        cfg,
        policy,
        EvalOptions {
            eval_threads: 8,
            ..EvalOptions::default()
        },
    )?;
    if exact_par.report.to_json() != seq.report.to_json() {
        return Err("exact parallel report diverged from sequential".into());
    }

    let t = Instant::now();
    let pruned = adapt(cfg, policy, harness_opts(8))?;
    let har_ms = (t.elapsed().as_secs_f64() * 1e3 - base_ms).max(0.1);

    // Estimator soundness: the pruned run must keep and select the
    // winner the exact run measured.
    let sound = match seq.report.selected {
        Some(i) => {
            pruned.report.candidates[i].status.is_replayed() && pruned.report.selected == Some(i)
        }
        None => pruned.report.selected.is_none(),
    };

    Ok(Row {
        name: cfg.name.clone(),
        cands: seq.report.candidates.len(),
        replayed: pruned
            .report
            .candidates
            .iter()
            .filter(|d| d.status.is_replayed())
            .count(),
        seq_ms,
        har_ms,
        sound,
        winner: seq
            .report
            .winner()
            .map(|d| d.candidate.adjustment.tag())
            .unwrap_or_else(|| "-".into()),
    })
}

/// The CI smoke gate: one smaller scale twin; byte-identical adapt
/// reports (pruning on) at eval thread counts 1/2/7; estimator
/// soundness; a relaxed 2× candidate-loop speedup floor.
fn smoke() -> ExitCode {
    let spec = scale::smoke(
        "eval-smoke",
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
    let policy = AdaptPolicy::default();

    // Byte-identical adapt runs across eval thread counts, with
    // pruning on.
    let mut runs: Vec<AdaptRun> = Vec::new();
    for eval_threads in [1usize, 2, 7] {
        match adapt(&cfg, &policy, harness_opts(eval_threads)) {
            Ok(r) => runs.push(r),
            Err(e) => {
                println!("EVAL SMOKE: FAIL ({eval_threads} eval threads: {e})");
                return ExitCode::FAILURE;
            }
        }
    }
    let first = &runs[0];
    for r in &runs[1..] {
        let same_adapted = match (&r.adapted, &first.adapted) {
            (Some(a), Some(b)) => a.trace.digest() == b.trace.digest(),
            (None, None) => true,
            _ => false,
        };
        if r.report.to_json() != first.report.to_json()
            || r.baseline.trace.digest() != first.baseline.trace.digest()
            || !same_adapted
        {
            println!("EVAL SMOKE: FAIL (adapt outcome diverged across eval thread counts)");
            return ExitCode::FAILURE;
        }
    }

    // Estimator soundness against the exact evaluation.
    let exact = match adapt(&cfg, &policy, EvalOptions::default()) {
        Ok(r) => r,
        Err(e) => {
            println!("EVAL SMOKE: FAIL (exact run: {e})");
            return ExitCode::FAILURE;
        }
    };
    let sound = match exact.report.selected {
        Some(i) => {
            first.report.candidates[i].status.is_replayed() && first.report.selected == Some(i)
        }
        None => first.report.selected.is_none(),
    };
    if !sound {
        println!("EVAL SMOKE: FAIL (pruning discarded or changed the exact winner)");
        return ExitCode::FAILURE;
    }

    // Wall-clock floor: the full harness vs the legacy loop. The full
    // table asserts 3×; the smoke gate relaxes to 2× for noisy CI
    // runners.
    let (base_ms, seq_ms, har_ms) = match (|| -> Result<_, String> {
        let t = Instant::now();
        let _ = record(&cfg)?;
        let base_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let _ = adapt(&cfg, &policy, seq_opts())?;
        let seq_ms = (t.elapsed().as_secs_f64() * 1e3 - base_ms).max(0.1);
        let t = Instant::now();
        let _ = adapt(&cfg, &policy, harness_opts(8))?;
        let har_ms = (t.elapsed().as_secs_f64() * 1e3 - base_ms).max(0.1);
        Ok((base_ms, seq_ms, har_ms))
    })() {
        Ok(v) => v,
        Err(e) => {
            println!("EVAL SMOKE: FAIL (timing runs: {e})");
            return ExitCode::FAILURE;
        }
    };
    let speedup = seq_ms / har_ms;
    if speedup < 2.0 {
        println!(
            "EVAL SMOKE: FAIL (candidate loop speedup {speedup:.2}x < 2x: seq {seq_ms:.0}ms, har8 {har_ms:.0}ms, baseline {base_ms:.0}ms)"
        );
        return ExitCode::FAILURE;
    }
    println!(
        "EVAL SMOKE: OK ({} candidates, {} replayed after pruning, loop speedup {speedup:.2}x, reports byte-identical at eval threads 1/2/7)",
        first.report.candidates.len(),
        first
            .report
            .candidates
            .iter()
            .filter(|d| d.status.is_replayed())
            .count()
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut smoke_mode = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => smoke_mode = true,
            // The smoke assertions are always on; accepted so the CI
            // invocation matches the other gates.
            "--check" => {}
            other => {
                eprintln!("eval-bench: unknown flag `{other}` (only --smoke / --check)");
                return ExitCode::from(2);
            }
        }
    }
    if smoke_mode {
        return smoke();
    }

    let policy = AdaptPolicy::default();
    println!("Shared candidate-evaluation harness vs the legacy sequential loop");
    println!("(adaptation over generated scale programs, k=9, 8 virtual threads, MultiGrain).");
    println!("Times are the candidate loop only (baseline recording subtracted). seq =");
    println!("hoisting off, 1 eval worker, exact; har8 = invariants hoisted, 8 eval");
    println!("workers, top-{TOP_K} pruning + family guard. `replay` counts candidates whose");
    println!("cost was measured (deduped configurations share one run); `sound` checks the");
    println!("pruned run kept and selected the exact winner.");
    println!();
    println!(
        "{:<16} {:>5} {:>6} {:>9} {:>9} {:>8} {:>6}  winner",
        "Program", "cand", "replay", "seq-ms", "har8-ms", "speedup", "sound"
    );
    let mut rows = Vec::new();
    for spec in specs() {
        let cfg = RunConfig::from_spec(&spec, 9, ExecMode::MultiGrain, 8);
        match run_row(&cfg, &policy) {
            Ok(r) => rows.push(r),
            Err(e) => {
                println!("{:<16} ERROR: {e}", spec.name);
                return ExitCode::FAILURE;
            }
        }
    }
    let mut failed = false;
    for r in &rows {
        println!(
            "{:<16} {:>5} {:>6} {:>9.1} {:>9.1} {:>7.2}x {:>6}  {}",
            r.name,
            r.cands,
            r.replayed,
            r.seq_ms,
            r.har_ms,
            r.seq_ms / r.har_ms,
            if r.sound { "yes" } else { "NO" },
            r.winner
        );
        if !r.sound {
            failed = true;
        }
    }
    let total_seq: f64 = rows.iter().map(|r| r.seq_ms).sum();
    let total_har: f64 = rows.iter().map(|r| r.har_ms).sum();
    let speedup = total_seq / total_har;
    println!();
    println!(
        "total candidate-loop wall-clock: seq {total_seq:.1}ms, har8 {total_har:.1}ms ({speedup:.2}x)"
    );
    println!("exact parallel reports matched the sequential bytes on every row; pruning");
    println!("is advisory (replayed costs exact, estimates recorded per pruned candidate).");
    // Thread-count determinism, shown on the artifact: the pruned
    // harness byte-for-byte agrees with itself at eval thread counts
    // 1, 2, and 7.
    {
        let spec = &specs()[0];
        let cfg = RunConfig::from_spec(spec, 9, ExecMode::MultiGrain, 8);
        let mut jsons = Vec::new();
        for eval_threads in [1usize, 2, 7] {
            match adapt(&cfg, &policy, harness_opts(eval_threads)) {
                Ok(r) => jsons.push((r.report.to_json(), r.baseline.trace.digest())),
                Err(e) => {
                    println!("EVAL TABLE: FAIL ({eval_threads} eval threads: {e})");
                    return ExitCode::FAILURE;
                }
            }
        }
        if jsons[1..].iter().all(|j| *j == jsons[0]) {
            println!(
                "reports byte-identical at eval threads 1/2/7 ({}, pruning on).",
                cfg.name
            );
        } else {
            println!("EVAL TABLE: FAIL (report diverged across eval thread counts)");
            failed = true;
        }
    }
    if speedup < 3.0 {
        println!("EVAL TABLE: FAIL (aggregate speedup {speedup:.2}x < 3x)");
        failed = true;
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
