//! Replay-driven wake-policy evaluation — the *measurement* half of
//! the contention-aware scheduling subsystem (DESIGN.md §5.6).
//!
//! The `sched` crate is the pure policy engine: [`WakePolicy`] ranking
//! functions in, wake order out. This module documents the loop
//! [`crate::Pipeline::sched`] closes against the deterministic interpreter
//! through the shared evaluation harness ([`crate::eval`]), mirroring
//! [`crate::adapt`], and owns its result type. `cfg.sched` is ignored —
//! the baseline is always the FIFO order, so the evaluation answers
//! "what would each policy have bought *this* run":
//!
//! 1. **Record** the baseline under the historical FIFO order
//!    (`sched: None`) and profile its trace. The program is compiled
//!    and points-to analyzed **once**, shared with every policy run.
//! 2. **Detect** convoy-prone sections from the wait/hold histograms
//!    ([`sched::convoy::detect`]) — the evidence that re-ordering
//!    wakes can recover anything at all.
//! 3. **Re-run** the *identical* `RunConfig` (same seed, same virtual
//!    scheduler, same fault plan) once per non-FIFO [`PolicyKind`],
//!    with each policy's [`SchedConfig`] frozen from the baseline
//!    profiles — **concurrently**, on the harness's eval-thread pool —
//!    and measure the replayed [`PolicyCost`]. Every policy uses the
//!    same uniform lock plan, so inference runs once and the rest hit
//!    the shared `SummaryStore`. Candidate recordings are dropped
//!    after profiling; a policy whose trace overflowed its ring lands
//!    in [`SchedReport::skipped`] instead of contributing a bogus
//!    cost.
//! 4. **Select** the policy with the lowest total virtual-time wait,
//!    strictly below the FIFO baseline, and emit a machine-readable
//!    [`SchedReport`]. The winner is re-executed once for the returned
//!    recording.
//!
//! Everything downstream of the recorded trace is deterministic:
//! policies are pure functions of recorded state, inference is
//! byte-identical at any analysis thread count, each replay is an
//! exact virtual-time re-execution, and the harness merges results in
//! policy order — so two runs over the same config produce
//! byte-identical reports and steered trace digests **at every eval
//! thread count**.
//!
//! Unlike adapted traces (which carry `adapt.*` keys only), a
//! policy-steered recording **is** stamped with full `run.*` metadata
//! including `run.sched_policy` / `run.sched_holds`: the frozen
//! expected-hold table travels with the trace, so
//! [`crate::replay::replay`] reproduces the steered schedule
//! bit-for-bit from the trace alone.

use crate::replay::Recording;

pub use ::sched::convoy::{ConvoyFlag, ConvoyPolicy};
pub use ::sched::report::{PolicyCost, PolicyOutcome, SchedReport, SkippedPolicy};
pub use ::sched::{queue_profiles, PolicyKind, SchedConfig, WakePolicy};

/// The full result of one policy evaluation loop.
#[derive(Clone, Debug)]
pub struct SchedRun {
    /// Machine-readable evaluation record (all policies, all costs,
    /// convoy evidence).
    pub report: SchedReport,
    /// The FIFO baseline recording the profiles came from.
    pub baseline: Recording,
    /// The winning policy's recording, when one beat the baseline.
    pub steered: Option<Recording>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::RunConfig;
    use crate::Pipeline;
    use interp::ExecMode;
    use trace::Trace;

    /// A convoy factory: every thread hammers one global under a long
    /// critical section (`hot`, expensive) or a short one (`quick`,
    /// cheap), so FIFO wake order regularly parks quick work behind
    /// expensive holders. ShortestExpectedHold reorders those ties.
    const SRC: &str = r#"
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

    fn cfg() -> RunConfig {
        RunConfig {
            name: "convoy-factory".into(),
            source: SRC.into(),
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
        }
    }

    fn evaluate(analysis_threads: usize) -> SchedRun {
        Pipeline::new(cfg())
            .analysis_threads(analysis_threads)
            .sched(&ConvoyPolicy::default())
            .unwrap()
    }

    #[test]
    fn evaluate_reports_convoys_and_all_policies() {
        let run = evaluate(1);
        assert_eq!(run.report.evaluated.len(), PolicyKind::ALL.len() - 1);
        assert!(run.report.skipped.is_empty(), "nothing overflows here");
        assert!(
            !run.report.convoys.is_empty(),
            "8 threads behind a 300-nop hold must flag a convoy: {}",
            run.report.to_json()
        );
        assert!(run.report.baseline.total_wait > 0);
        // Every policy run still computes the right answer.
        assert_eq!(run.baseline.outcome.check, Some(2 * 8 * 25));
        let json = run.report.to_json();
        assert!(json.contains("\"policy\":\"seh\""), "{json}");
        assert!(json.contains("\"policy\":\"rbatch\""), "{json}");
    }

    #[test]
    fn evaluate_is_deterministic_across_analysis_thread_counts() {
        let runs: Vec<SchedRun> = [1usize, 2, 7].iter().map(|&t| evaluate(t)).collect();
        for r in &runs[1..] {
            assert_eq!(r.report.to_json(), runs[0].report.to_json());
            assert_eq!(r.baseline.trace.digest(), runs[0].baseline.trace.digest());
            match (&r.steered, &runs[0].steered) {
                (Some(a), Some(b)) => assert_eq!(a.trace.digest(), b.trace.digest()),
                (None, None) => {}
                other => panic!("selection diverged across thread counts: {other:?}"),
            }
        }
    }

    #[test]
    fn steered_recordings_replay_bit_for_bit() {
        let run = evaluate(1);
        // The baseline replays, and so does every steered recording:
        // the frozen policy travels in `run.sched_*` metadata.
        let again = crate::replay::replay(&run.baseline.trace).unwrap();
        assert_eq!(again.trace.digest(), run.baseline.trace.digest());
        if let Some(steered) = &run.steered {
            assert_eq!(
                steered.trace.meta_get("run.sched_policy"),
                Some(run.report.winner().unwrap().policy.tag())
            );
            let rep = crate::replay::replay(&steered.trace).unwrap();
            assert_eq!(rep.trace.digest(), steered.trace.digest());
            assert_eq!(rep.outcome, steered.outcome);
        }
    }

    #[test]
    fn steered_traces_record_wake_decisions_fifo_records_none() {
        let run = evaluate(1);
        let wk = |t: &Trace| {
            t.events
                .iter()
                .filter(|e| matches!(e.kind, trace::EventKind::WakeDecision { .. }))
                .count()
        };
        assert_eq!(wk(&run.baseline.trace), 0, "FIFO path must stay silent");
        if let Some(steered) = &run.steered {
            assert!(wk(&steered.trace) > 0, "steered runs trace their decisions");
            assert!(
                !queue_profiles(&steered.trace).is_empty(),
                "wake decisions aggregate into per-lock queue profiles"
            );
        }
    }
}
