//! Profile-guided per-section adaptation — the *measurement* half of
//! the adaptive loop (DESIGN.md §5.4).
//!
//! [`lockinfer::adapt`] is the pure policy: corrected wait/hold
//! profiles in, candidate per-section [`lockscheme::ConfigMap`] overrides out. This
//! module documents the loop [`crate::Pipeline::adapt`] closes against the
//! deterministic interpreter through the shared evaluation harness
//! ([`crate::eval`]), and owns its result type:
//!
//! 1. **Record** the baseline under the uniform configuration and
//!    profile its trace — wait split from hold at the first
//!    `PlanComplete` marker, revalidation retries tallied separately.
//!    The program is compiled and points-to analyzed **once**, shared
//!    with every candidate.
//! 2. **Propose** candidate overrides from those profiles — and, for
//!    convoy-flagged sections, wake-policy candidates that keep the
//!    lock plan and steer the scheduler (DESIGN.md §5.6).
//! 3. **Prune** (optionally) by the trace-analytic estimator
//!    ([`lockinfer::estimate`]): only the estimated top-k candidates
//!    are replayed, the rest carry [`lockinfer::EvalStatus::Pruned`].
//! 4. **Replay** the identical `RunConfig` (same seed, same virtual
//!    scheduler, same fault plan) under each kept candidate's locks —
//!    **concurrently**, on the harness's eval-thread pool — and
//!    measure the replayed [`lockinfer::PlanCost`]. Of the candidate
//!    recordings only the best ranked so far is kept (O(1) memory in
//!    candidate count); a candidate whose trace overflowed its
//!    capacity is surfaced as [`lockinfer::EvalStatus::Skipped`], not a
//!    silently bogus cost.
//! 5. **Select** the candidate with the lowest total virtual-time wait,
//!    strictly below the baseline, and emit a machine-readable
//!    [`DecisionReport`]. The winner was recorded once, by its
//!    evaluation run: that kept recording is the one returned, and
//!    nothing is re-executed.
//!
//! Everything downstream of the recorded trace is deterministic: the
//! policy is pure, inference is byte-identical at any analysis thread
//! count, each replay is an exact virtual-time re-execution, and the
//! harness merges results in candidate order — so two runs over the
//! same config produce byte-identical reports and
//! adapted-trace digests **at every eval thread count**.
//!
//! An adapted trace is deliberately **not** stamped with `run.*`
//! replay metadata: `replay()` would re-infer under the uniform
//! configuration and silently diverge. It carries `adapt.*` keys
//! describing the applied overrides instead.

use crate::replay::Recording;
use lockinfer::adapt::DecisionReport;

/// The full result of one adaptation loop.
#[derive(Clone, Debug)]
pub struct AdaptRun {
    /// Machine-readable decision record (all candidates, all costs).
    pub report: DecisionReport,
    /// The baseline recording the profiles came from.
    pub baseline: Recording,
    /// The winning configuration's recording, when one beat the
    /// baseline.
    pub adapted: Option<Recording>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::RunConfig;
    use crate::Pipeline;
    use interp::ExecMode;
    use lockinfer::adapt::{AdaptPolicy, EvalStatus};

    /// Two sections with opposite temperaments: `hot` hammers one
    /// global under long critical sections (wait ≫ hold per entry once
    /// several threads queue), `cold` touches a thread-private cell
    /// (never contended).
    const SRC: &str = r#"
        global shared;
        global cells;
        fn setup(n) { cells = new(64); shared = 0; }
        fn work(iters) {
            let i = 0;
            while (i < iters) {
                atomic { shared = shared + 1; nops(200); }
                atomic { cells[tid()] = cells[tid()] + 1; }
                i = i + 1;
            }
            return 0;
        }
        fn total() { return shared; }
    "#;

    fn cfg() -> RunConfig {
        RunConfig {
            name: "two-temperaments".into(),
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
            worker: ("work".into(), vec![30]),
            check: Some("total".into()),
        }
    }

    fn adapt(eval_threads: usize) -> AdaptRun {
        Pipeline::new(cfg())
            .eval_threads(eval_threads)
            .adapt(&AdaptPolicy)
            .unwrap()
    }

    #[test]
    fn adapt_produces_candidates_and_a_report() {
        let run = adapt(1);
        assert!(
            !run.report.candidates.is_empty(),
            "the hot section must trigger at least one proposal"
        );
        let json = run.report.to_json();
        assert!(json.contains("\"baseline\""), "{json}");
        assert!(run.report.baseline.total_wait > 0);
        // The exact default evaluation replays every candidate.
        assert!(run.report.candidates.iter().all(|d| d.status.is_replayed()));
        // Candidate runs still compute the right answer.
        assert_eq!(run.baseline.outcome.check, Some(8 * 30));
    }

    #[test]
    fn adapt_is_deterministic_across_eval_thread_counts() {
        let runs: Vec<AdaptRun> = [1usize, 2, 8].iter().map(|&t| adapt(t)).collect();
        for r in &runs[1..] {
            assert_eq!(r.report.to_json(), runs[0].report.to_json());
            assert_eq!(r.baseline.trace.digest(), runs[0].baseline.trace.digest());
            match (&r.adapted, &runs[0].adapted) {
                (Some(a), Some(b)) => assert_eq!(a.trace.digest(), b.trace.digest()),
                (None, None) => {}
                other => panic!("selection diverged across thread counts: {other:?}"),
            }
        }
    }

    #[test]
    fn adapted_traces_are_not_replayable_but_carry_adapt_meta() {
        let run = adapt(1);
        if let Some(adapted) = &run.adapted {
            assert!(crate::replay::replay(&adapted.trace).is_err());
            assert_eq!(
                adapted.trace.meta_get("adapt.name"),
                Some("two-temperaments")
            );
        }
        // The baseline stays fully replayable.
        let again = crate::replay::replay(&run.baseline.trace).unwrap();
        assert_eq!(again.trace.digest(), run.baseline.trace.digest());
    }

    #[test]
    fn a_pipeline_from_a_recorded_trace_reports_the_same_bytes() {
        let rec = crate::replay::record(&cfg()).unwrap();
        let from_trace = Pipeline::from_trace(&rec.trace)
            .unwrap()
            .adapt(&AdaptPolicy)
            .unwrap();
        assert_eq!(from_trace.report.to_json(), adapt(1).report.to_json());
    }

    #[test]
    fn pruned_adaptation_marks_unreplayed_candidates() {
        let exact = adapt(1);
        let n = exact.report.candidates.len();
        assert!(n >= 2, "need at least two candidates to prune");
        let pruned = Pipeline::new(cfg()).prune(1).adapt(&AdaptPolicy).unwrap();
        let replayed = pruned
            .report
            .candidates
            .iter()
            .filter(|d| d.status.is_replayed())
            .count();
        // top-1 plus the diversity guard's family bests: strictly
        // fewer replays than the exact run when any family has more
        // than one member.
        assert!(replayed >= 1 && replayed <= n);
        if replayed < n {
            assert!(pruned
                .report
                .candidates
                .iter()
                .any(|d| matches!(d.status, EvalStatus::Pruned { .. })));
        }
        // Pruning is advisory: replayed candidates keep their exact
        // measured costs.
        for (p, e) in pruned
            .report
            .candidates
            .iter()
            .zip(&exact.report.candidates)
        {
            if p.status.is_replayed() {
                assert_eq!(p.cost, e.cost);
            }
        }
    }

    /// The benchmark's `adapt-scale-d4w6s12` configuration, where a
    /// wake policy wins.
    fn scale_cfg() -> RunConfig {
        use workloads::scale::{self, ScaleParams};
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
        RunConfig {
            seed: 42,
            trace_capacity: 1 << 20,
            ..RunConfig::from_spec(&spec, 9, ExecMode::MultiGrain, 8)
        }
    }

    /// `adapt` returns the winner's recording from its candidate run;
    /// a fresh run of the selected candidate is the oracle it must
    /// equal, at every eval thread count.
    #[test]
    fn the_kept_recording_equals_a_rerun_of_the_selected_candidate() {
        use crate::eval::{EvalContext, Stamp};
        for cfg in [cfg(), scale_cfg()] {
            let ctx = EvalContext::new(&cfg, true).unwrap();
            let base_map = ctx.base_map(&cfg);
            for eval_threads in [1, 2, 7] {
                let run = Pipeline::new(cfg.clone())
                    .eval_threads(eval_threads)
                    .adapt(&AdaptPolicy)
                    .unwrap();
                let label = format!("{} at {eval_threads} eval threads", cfg.name);
                let winner = run.report.winner().expect("a candidate wins");
                let profiles = trace::profile(&run.baseline.trace);
                let again = ctx
                    .run_one(
                        &EvalContext::candidate_cfg(&cfg, &winner.candidate, &profiles),
                        &winner.candidate.config_map(&base_map),
                        Stamp::Adapt,
                    )
                    .unwrap();
                let kept = run.adapted.expect("the winner's recording is kept");
                assert_eq!(kept.trace.digest(), again.trace.digest(), "{label}");
                assert_eq!(kept.outcome, again.outcome, "{label}");
            }
        }
    }
}
