//! Determinism and soundness properties of the shared candidate-
//! evaluation harness (DESIGN.md §5.7):
//!
//! * **Parallel determinism** — `Pipeline::adapt` produces
//!   byte-identical reports and identical winner digests at every
//!   eval thread count (1, 2, 7): results merge in candidate order, so
//!   the worker pool never leaks into the outcome.
//! * **Estimator soundness (empirical)** — pruning is advisory: on the
//!   micro workloads, the estimator's kept set contains the winner the
//!   exact (unpruned) evaluation selects, and the pruned run selects
//!   that same winner.
//! * **Skip surfacing** — a candidate trace that overflows its ring
//!   becomes a per-candidate `Skipped` marker, never an error and
//!   never a bogus cost.

use atomic_lock_inference::adapt::AdaptRun;
use atomic_lock_inference::replay::RunConfig;
use atomic_lock_inference::Pipeline;
use interp::ExecMode;
use lockinfer::adapt::{AdaptPolicy, Adjustment, Decision, EvalStatus, PlanCost};
use proptest::prelude::*;
use workloads::{micro, Contention, RunSpec};

fn spec_for(which: usize, ops: i64) -> RunSpec {
    match which {
        0 => micro::list(Contention::High, ops, 10),
        1 => micro::hashtable2(Contention::High, ops, 10),
        _ => micro::th(Contention::High, ops, 10),
    }
}

fn pipeline(cfg: &RunConfig, eval_threads: usize) -> Pipeline {
    Pipeline::new(cfg.clone())
        .analysis_threads(1)
        .eval_threads(eval_threads)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// The adaptation loop is a pure function of the run configuration:
    /// eval parallelism must never leak into the report bytes, the
    /// baseline digest, or the winner's re-executed digest — even with
    /// pruning on.
    #[test]
    fn adapt_report_is_byte_identical_at_every_eval_thread_count(
        which in 0usize..3,
        seed in any::<u64>(),
        threads in 2usize..5,
        ops in 20i64..50,
    ) {
        let spec = spec_for(which, ops);
        let mut cfg = RunConfig::from_spec(&spec, 9, ExecMode::MultiGrain, threads);
        cfg.seed = seed;
        let runs: Vec<AdaptRun> = [1usize, 2, 7]
            .iter()
            .map(|&t| pipeline(&cfg, t).prune(4).adapt(&AdaptPolicy::default()).unwrap())
            .collect();
        let first = &runs[0];
        for r in &runs[1..] {
            prop_assert_eq!(r.report.to_json(), first.report.to_json());
            prop_assert_eq!(r.baseline.trace.digest(), first.baseline.trace.digest());
            match (&r.adapted, &first.adapted) {
                (Some(a), Some(b)) => prop_assert_eq!(a.trace.digest(), b.trace.digest()),
                (None, None) => {}
                _ => prop_assert!(false, "selection diverged across eval thread counts"),
            }
        }
    }

    /// Empirical estimator soundness on the micro workloads: the
    /// trace-analytic top-k always contains the candidate the exact
    /// evaluation selects, and the pruned run selects the same winner
    /// with the same measured cost.
    #[test]
    fn pruning_never_discards_the_exact_winner(
        which in 0usize..3,
        seed in any::<u64>(),
        ops in 30i64..60,
    ) {
        let spec = spec_for(which, ops);
        let mut cfg = RunConfig::from_spec(&spec, 9, ExecMode::MultiGrain, 4);
        cfg.seed = seed;
        let exact = pipeline(&cfg, 0).adapt(&AdaptPolicy::default()).unwrap();
        let pruned = pipeline(&cfg, 0).prune(4).adapt(&AdaptPolicy::default()).unwrap();
        if let Some(i) = exact.report.selected {
            let kept = &pruned.report.candidates[i];
            prop_assert!(
                kept.status.is_replayed(),
                "estimator pruned the exact winner (candidate {}: {})",
                i,
                kept.candidate.adjustment.tag()
            );
            prop_assert_eq!(pruned.report.selected, Some(i));
            prop_assert_eq!(kept.cost, exact.report.candidates[i].cost);
        } else {
            // No exact winner: pruning must not invent one.
            prop_assert_eq!(pruned.report.selected, None);
        }
    }
}

/// A candidate whose steered trace overflows its ring is surfaced as a
/// skip, not an error — and never contributes a cost to selection. A
/// tiny capacity overflows the baseline first, which *is* an error;
/// here the baseline fits exactly (every worker does the same work, so
/// every ring holds the same number of events, and FIFO records no
/// wake decisions) while every steered run overflows (each wake
/// decision adds an event).
#[test]
fn overflowing_candidate_traces_surface_as_skips() {
    let spec = RunSpec {
        name: "convoy-factory".into(),
        source: r#"
            global shared;
            global tally;
            fn setup(n) { shared = 0; tally = 0; }
            fn work(iters) {
                let i = 0;
                while (i < iters) {
                    atomic { shared = shared + 1; nops(300); }
                    atomic { tally = tally + 1; }
                    i = i + 1;
                }
                return 0;
            }
            fn total() { return shared + tally; }
        "#
        .into(),
        heap_cells: 1 << 12,
        init: ("setup", vec![0]),
        worker: ("work", vec![25]),
        check: Some("total"),
    };
    let mut cfg = RunConfig::from_spec(&spec, 3, ExecMode::MultiGrain, 8);
    // The capacity where the FIFO baseline fits exactly.
    let base = atomic_lock_inference::replay::record(&cfg).unwrap();
    let per_thread = base
        .trace
        .events
        .iter()
        .fold(std::collections::HashMap::new(), |mut m, e| {
            *m.entry(e.tid).or_insert(0usize) += 1;
            m
        });
    cfg.trace_capacity = per_thread.values().copied().max().unwrap_or(0);
    let run = pipeline(&cfg, 1).adapt(&AdaptPolicy::default()).unwrap();
    let wake: Vec<(usize, &Decision)> = run
        .report
        .candidates
        .iter()
        .enumerate()
        .filter(|(_, d)| matches!(d.candidate.adjustment, Adjustment::WakePolicy(_)))
        .collect();
    assert!(!wake.is_empty(), "the convoy must propose wake policies");
    for (i, d) in wake {
        match &d.status {
            EvalStatus::Skipped { reason } => assert!(reason.contains("dropped"), "{reason}"),
            other => panic!("candidate {i} should have overflowed: {other:?}"),
        }
        assert_eq!(d.cost, PlanCost::default(), "a skip carries no cost");
        assert_ne!(run.report.selected, Some(i), "a skip is never selected");
    }
    let json = run.report.to_json();
    assert!(json.contains("\"status\":\"skipped\""), "{json}");
}

/// The adapt-side skip marker: statuses land in the decision JSON.
#[test]
fn decision_json_carries_statuses() {
    let spec = micro::list(Contention::High, 80, 10);
    let cfg = RunConfig::from_spec(&spec, 9, ExecMode::MultiGrain, 4);
    let run = pipeline(&cfg, 0)
        .prune(1)
        .adapt(&AdaptPolicy::default())
        .unwrap();
    let json = run.report.to_json();
    assert!(json.contains("\"status\":\"replayed\""), "{json}");
    // Whenever the harness pruned anything, the estimate travels in
    // the JSON next to the zeroed cost.
    if run
        .report
        .candidates
        .iter()
        .any(|d| matches!(d.status, EvalStatus::Pruned { .. }))
    {
        assert!(json.contains("\"status\":\"pruned\",\"est\":"), "{json}");
    }
}
