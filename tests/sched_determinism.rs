//! Determinism of the contention-aware scheduling subsystem (DESIGN.md
//! §5.6). The [`Fifo`] policy must be a faithful extraction of the
//! historical `(clock, tid)` order: steering with it reproduces the
//! legacy schedule event for event. And a steered recording — `record`
//! of a configuration whose `sched` is frozen from a baseline's
//! profiles — carries its policy in `run.sched_*` metadata, traces its
//! wake decisions, and replays bit-for-bit from the trace alone. (That
//! the decision loop proposing wake policies is itself deterministic is
//! `tests/adapt_determinism.rs` and `tests/eval_determinism.rs`.)

use atomic_lock_inference as ali;

use ali::interp::{ExecMode, SchedConfig};
use ali::lockinfer::adapt::{AdaptPolicy, Adjustment, PlanCost};
use ali::replay::{record, replay, Recording, RunConfig};
use ali::sched::{queue_profiles, PolicyKind};
use ali::trace::{EventKind, Trace};
use ali::workloads::scale::{self, ScaleParams};
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

/// A convoy factory: every thread hammers one global under a long
/// critical section (expensive) or a short one (cheap), so FIFO wake
/// order regularly parks quick work behind expensive holders.
const CONVOY_SRC: &str = r#"
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
"#;

/// The convoy factory's FIFO baseline, and one steered recording per
/// non-FIFO policy with its configuration frozen from the baseline's
/// profiles.
fn convoy_recordings() -> (Recording, Vec<(PolicyKind, Recording)>) {
    let base_cfg = RunConfig {
        name: "convoy-factory".into(),
        source: CONVOY_SRC.into(),
        heap_cells: 1 << 16,
        trace_capacity: 1 << 18,
        check: Some("total".into()),
        ..cfg(11, 8, 25)
    };
    let baseline = record(&base_cfg).expect("fifo baseline");
    assert_eq!(baseline.outcome.check, Some(2 * 8 * 25));
    let profiles = ali::trace::profile(&baseline.trace);
    let steered = PolicyKind::ALL
        .into_iter()
        .filter(|&kind| kind != PolicyKind::Fifo)
        .map(|kind| {
            let steered_cfg = RunConfig {
                sched: Some(SchedConfig::from_profiles(kind, &profiles)),
                ..base_cfg.clone()
            };
            (kind, record(&steered_cfg).expect("steered run"))
        })
        .collect();
    (baseline, steered)
}

fn wake_decisions(t: &Trace) -> usize {
    t.events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::WakeDecision { .. }))
        .count()
}

/// The baseline replays, and so does every steered recording: the
/// frozen policy travels in `run.sched_*` metadata.
#[test]
fn steered_recordings_replay_bit_for_bit() {
    let (baseline, steered) = convoy_recordings();
    let again = replay(&baseline.trace).unwrap();
    assert_eq!(again.trace.digest(), baseline.trace.digest());
    for (kind, rec) in &steered {
        assert_eq!(rec.trace.meta_get("run.sched_policy"), Some(kind.tag()));
        let rep = replay(&rec.trace).unwrap();
        assert_eq!(rep.trace.digest(), rec.trace.digest(), "{}", kind.tag());
        assert_eq!(rep.outcome, rec.outcome, "{}", kind.tag());
    }
}

#[test]
fn steered_traces_record_wake_decisions_fifo_records_none() {
    let (baseline, steered) = convoy_recordings();
    assert_eq!(
        wake_decisions(&baseline.trace),
        0,
        "FIFO path must stay silent"
    );
    for (kind, rec) in &steered {
        assert!(
            wake_decisions(&rec.trace) > 0,
            "{}: steered runs trace their decisions",
            kind.tag()
        );
        assert!(
            !queue_profiles(&rec.trace).is_empty(),
            "{}: wake decisions aggregate into per-lock queue profiles",
            kind.tag()
        );
    }
}

/// The one committed input where a wake policy *is* the selected plan
/// (the benchmark's `adapt-scale-d4w6s12`): the winner reaches the
/// scheduler through the adapt loop, is stamped as an adapted — not a
/// replayable — trace, and costs exactly what `record` of the same
/// configuration steered by the same frozen policy costs.
#[test]
fn a_wake_policy_wins_the_adapt_loop_and_matches_its_steered_recording() {
    let spec = scale::smoke(
        "scale-d4w6s12",
        ScaleParams {
            depth: 4,
            width: 6,
            sections: 12,
            stmts_per_fn: 10,
            seed: 7,
        },
        3,
    );
    let cfg = RunConfig {
        seed: 42,
        trace_capacity: 1 << 20,
        ..RunConfig::from_spec(&spec, 9, ExecMode::MultiGrain, 8)
    };
    let run = ali::Pipeline::new(cfg.clone())
        .adapt(&AdaptPolicy::default())
        .unwrap();
    let winner = run.report.winner().expect("a candidate wins");
    assert_eq!(
        winner.candidate.adjustment,
        Adjustment::WakePolicy(PolicyKind::ReaderBatch)
    );
    assert_eq!(
        (run.report.baseline.total_wait, winner.cost.total_wait),
        (1_989_886, 1_283_744)
    );

    let adapted = run.adapted.as_ref().expect("the winner is re-executed");
    assert_eq!(adapted.trace.meta_get("adapt.wake_policy"), Some("rbatch"));
    assert!(
        !adapted
            .trace
            .meta
            .iter()
            .any(|(k, _)| k.starts_with("adapt.section.")),
        "a wake-only winner overrides no section's lock plan"
    );
    assert!(wake_decisions(&adapted.trace) > 0);
    let cost_of = |rec: &Recording| {
        PlanCost::from_profiles(&ali::trace::profile(&rec.trace), rec.outcome.makespan)
    };
    assert_eq!(cost_of(adapted), winner.cost);

    let profiles = ali::trace::profile(&run.baseline.trace);
    let steered = record(&RunConfig {
        sched: Some(SchedConfig::from_profiles(
            PolicyKind::ReaderBatch,
            &profiles,
        )),
        ..cfg
    })
    .expect("steered run");
    assert_eq!(cost_of(&steered), winner.cost);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

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
