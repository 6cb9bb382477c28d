//! Determinism of the contention-aware scheduling subsystem (DESIGN.md
//! §5.6). A run without a wake policy is the historical `(clock, tid)`
//! FIFO order and records no wake decisions. A steered recording —
//! `record` of a configuration whose `sched` is frozen from a
//! baseline's profiles — carries its policy in `run.sched_*` metadata,
//! traces its wake decisions, and replays bit-for-bit from the trace
//! alone. (That the decision loop proposing wake policies is itself
//! deterministic is `tests/adapt_determinism.rs` and
//! `tests/eval_determinism.rs`.)

use atomic_lock_inference as ali;

use ali::adapt::{Adjustment, PlanCost};
use ali::interp::{ExecMode, PolicyKind, SchedConfig};
use ali::lockinfer::AdaptPolicy;
use ali::replay::{record, replay, Recording, RunConfig};
use ali::trace::{EventKind, Trace};
use ali::workloads::scale::{self, ScaleParams};

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

/// The convoy factory's policy-free (FIFO) baseline, and one steered
/// recording per wake policy with its configuration frozen from the
/// baseline's profiles.
fn convoy_recordings() -> (Recording, Vec<(PolicyKind, Recording)>) {
    let base_cfg = RunConfig {
        name: "convoy-factory".into(),
        source: CONVOY_SRC.into(),
        k: 3,
        mode: ExecMode::MultiGrain,
        threads: 8,
        heap_cells: 1 << 16,
        seed: 11,
        quantum: 64,
        stm_abort_budget: 16,
        faults: None,
        sentinel: None,
        weaken: None,
        sched: None,
        repairs: Vec::new(),
        trace_capacity: 1 << 18,
        init: ("setup".into(), vec![0]),
        worker: ("work".into(), vec![25]),
        check: Some("total".into()),
    };
    let baseline = record(&base_cfg).expect("fifo baseline");
    assert_eq!(baseline.outcome.check, Some(2 * 8 * 25));
    let profiles = ali::trace::profile(&baseline.trace);
    let steered = PolicyKind::ALL
        .into_iter()
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
    }
}

/// Each steered recording, pinned by its trace digest and its count of
/// `wk` events — `seh` over the baseline's hold table, `rbatch` at the
/// default aging bound of 4 grants. Replay only shows that a run agrees
/// with itself; these hold the policies' ranking, aging and wake
/// reporting to what they were when pinned.
#[test]
fn steered_recordings_are_pinned() {
    let (_, steered) = convoy_recordings();
    let got: Vec<(&str, Option<&str>, String, usize)> = steered
        .iter()
        .map(|(kind, rec)| {
            (
                kind.tag(),
                rec.trace.meta_get("run.sched_aging"),
                rec.trace.digest(),
                wake_decisions(&rec.trace),
            )
        })
        .collect();
    assert_eq!(
        got,
        vec![
            ("seh", None, "d109d5a168342717".to_owned(), 349),
            ("rbatch", Some("4"), "94233ba6d7a9e2fd".to_owned(), 397),
        ]
    );
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
    let run = ali::Pipeline::new(cfg.clone()).adapt(&AdaptPolicy).unwrap();
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

    // Steering is global, so every wake candidate — the winner and
    // the rest, whichever section proposed it — describes its policy's
    // one steered run and carries that recording's cost.
    let profiles = ali::trace::profile(&run.baseline.trace);
    let mut steered: Vec<(PolicyKind, PlanCost)> = Vec::new();
    let mut wakes = 0;
    for (i, d) in run.report.candidates.iter().enumerate() {
        let Adjustment::WakePolicy(kind) = d.candidate.adjustment else {
            continue;
        };
        wakes += 1;
        let cost = match steered.iter().find(|(k, _)| *k == kind) {
            Some(&(_, cost)) => cost,
            None => {
                let cost = cost_of(
                    &record(&RunConfig {
                        sched: Some(SchedConfig::from_profiles(kind, &profiles)),
                        ..cfg.clone()
                    })
                    .expect("steered run"),
                );
                steered.push((kind, cost));
                cost
            }
        };
        assert_eq!(
            d.cost, cost,
            "candidate {i} (section {})",
            d.candidate.section
        );
    }
    // 18 wake candidates over two policies: two effective
    // configurations.
    assert_eq!(
        (run.report.candidates.len(), wakes, steered.len()),
        (19, 18, 2),
        "candidates, wake candidates, steered runs"
    );
}
