//! Determinism and skip-surfacing properties of the shared candidate-
//! evaluation harness (DESIGN.md §5.7):
//!
//! * **Parallel determinism** — `Pipeline::adapt` produces
//!   byte-identical reports and identical winner digests at every
//!   eval thread count (1, 2, 7): results merge in candidate order, so
//!   the worker pool never leaks into the outcome.
//! * **Skip surfacing** — a candidate trace that overflows its capacity
//!   becomes a per-candidate `Skipped` marker, never an error and
//!   never a bogus cost.

use atomic_lock_inference::adapt::{AdaptRun, Adjustment, Decision, EvalStatus, PlanCost};
use atomic_lock_inference::replay::RunConfig;
use atomic_lock_inference::Pipeline;
use interp::ExecMode;
use lockinfer::AdaptPolicy;
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
    Pipeline::new(cfg.clone()).eval_threads(eval_threads)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// The adaptation loop is a pure function of the run configuration:
    /// eval parallelism must never leak into the report bytes, the
    /// baseline digest, or the winner's re-executed digest.
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
            .map(|&t| pipeline(&cfg, t).adapt(&AdaptPolicy).unwrap())
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
}

/// A candidate whose steered trace overflows its capacity is surfaced as a
/// skip, not an error — and never contributes a cost to selection. A
/// tiny capacity overflows the baseline first, which *is* an error;
/// here the baseline fits exactly (every worker does the same work, so
/// every thread records the same number of events, and FIFO records no
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
    let run = pipeline(&cfg, 1).adapt(&AdaptPolicy).unwrap();
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

/// The adapt-side status marker: every candidate's status lands in
/// the decision JSON.
#[test]
fn decision_json_carries_statuses() {
    let spec = micro::list(Contention::High, 80, 10);
    let cfg = RunConfig::from_spec(&spec, 9, ExecMode::MultiGrain, 4);
    let run = pipeline(&cfg, 0).adapt(&AdaptPolicy).unwrap();
    let json = run.report.to_json();
    assert!(!run.report.candidates.is_empty());
    assert!(run.report.candidates.iter().all(|d| d.status.is_replayed()));
    assert_eq!(
        json.matches("\"status\":\"replayed\"").count(),
        run.report.candidates.len(),
        "{json}"
    );
}
