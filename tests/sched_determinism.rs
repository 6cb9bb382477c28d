//! Determinism of the contention-aware scheduling subsystem (DESIGN.md
//! §5.6): for one run configuration, every observable of the policy
//! evaluation loop — the baseline trace bytes, every steered trace,
//! every wake decision, the selection report — must be identical at
//! every *analysis* thread count, exactly as `tests/adapt_determinism`
//! and `tests/sentinel_determinism` demand of their loops. And the
//! [`Fifo`] policy must be a faithful extraction of the historical
//! `(clock, tid)` order: steering with it reproduces the legacy
//! schedule event for event.

use atomic_lock_inference as ali;

use ali::interp::{ExecMode, SchedConfig};
use ali::replay::{record, RunConfig};
use ali::sched::ConvoyPolicy;
use ali::trace::EventKind;
use proptest::prelude::*;

/// Three temperaments sharing one program: a long-hold writer section
/// (the convoy factory), a read-only section (shared-mode locks —
/// ReaderBatch's target), and a short writer (ShortestExpectedHold's
/// favourite).
const SRC: &str = r#"
    global shared;
    global total;
    fn setup(n) { shared = n; total = 0; }
    fn work(iters) {
        let i = 0;
        let acc = 0;
        while (i < iters) {
            atomic { shared = shared + 1; nops(80); }
            atomic { acc = acc + shared; nops(5); }
            atomic { total = total + 1; }
            i = i + 1;
        }
        return acc;
    }
    fn probe() { return shared + total; }
"#;

fn cfg(seed: u64, threads: usize, iters: i64) -> RunConfig {
    RunConfig {
        name: "sched-determinism".into(),
        source: SRC.into(),
        k: 3,
        mode: ExecMode::MultiGrain,
        threads,
        heap_cells: 1 << 12,
        seed,
        quantum: 64,
        stm_abort_budget: 16,
        faults: None,
        sentinel: None,
        weaken: None,
        sched: None,
        repairs: Vec::new(),
        trace_capacity: 1 << 16,
        init: ("setup".into(), vec![0]),
        worker: ("work".into(), vec![iters]),
        check: Some("probe".into()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The full evaluation loop — baseline, per-policy re-runs, convoy
    /// flags, selection — is a pure function of the run configuration:
    /// identical bytes at analysis thread counts 1, 2, and 7.
    #[test]
    fn policy_evaluation_is_identical_at_every_analysis_thread_count(
        seed in any::<u64>(),
        threads in 2usize..5,
        iters in 4i64..10,
    ) {
        let c = cfg(seed, threads, iters);
        let runs: Vec<_> = [1usize, 2, 7]
            .iter()
            .map(|&t| {
                ali::Pipeline::new(c.clone())
                    .analysis_threads(t)
                    .sched(&ConvoyPolicy::default())
                    .expect("evaluation succeeds")
            })
            .collect();
        let first = &runs[0];
        for r in &runs[1..] {
            prop_assert_eq!(
                r.report.to_json(),
                first.report.to_json(),
                "selection reports diverged"
            );
            prop_assert_eq!(
                r.baseline.trace.to_json(),
                first.baseline.trace.to_json(),
                "baseline trace bytes diverged"
            );
            for (a, b) in r.steered.iter().zip(first.steered.iter()) {
                prop_assert_eq!(a.trace.to_json(), b.trace.to_json(), "steered trace bytes diverged");
            }
            prop_assert_eq!(r.steered.is_some(), first.steered.is_some());
        }
        // Wake decisions are part of the byte-compared steered traces;
        // make sure steering actually records some when a policy wins.
        if let Some(steered) = &first.steered {
            let wk = steered
                .trace
                .events
                .iter()
                .filter(|e| matches!(e.kind, EventKind::WakeDecision { .. }))
                .count();
            prop_assert!(wk > 0, "a winning policy must have traced its decisions");
        }
    }

    /// Steering with [`PolicyKind::Fifo`] is the identity: the same
    /// interleaving as the legacy policy-free scheduler — same results,
    /// same makespan, same per-event schedule — with only the `["wk",…]`
    /// decision events added to the trace.
    #[test]
    fn fifo_policy_reproduces_the_legacy_schedule(
        seed in any::<u64>(),
        threads in 2usize..5,
        iters in 4i64..10,
    ) {
        let legacy = record(&cfg(seed, threads, iters)).expect("legacy run");
        let mut fifo_cfg = cfg(seed, threads, iters);
        fifo_cfg.sched = Some(SchedConfig::fifo());
        let fifo = record(&fifo_cfg).expect("fifo-steered run");

        prop_assert_eq!(&legacy.outcome, &fifo.outcome, "outcomes diverged");
        // The legacy path must stay byte-for-byte silent about wakes…
        prop_assert!(
            !legacy
                .trace
                .events
                .iter()
                .any(|e| matches!(e.kind, EventKind::WakeDecision { .. })),
            "the policy-free scheduler must record no wake decisions"
        );
        // …and modulo those decision events, the schedules are equal:
        // same (tid, clock, kind) sequence in epoch order.
        let schedule = |t: &ali::trace::Trace| {
            t.events
                .iter()
                .filter(|e| !matches!(e.kind, EventKind::WakeDecision { .. }))
                .map(|e| (e.tid, e.clock, e.kind))
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(
            schedule(&legacy.trace),
            schedule(&fifo.trace),
            "FIFO steering changed the schedule"
        );
    }
}
