//! `ali::Pipeline` — the single entry point to the measurement loops
//! (DESIGN.md §5.9).
//!
//! Every evaluation subsystem in this crate walks the same arc:
//! **baseline** (record the run deterministically) → **profile**
//! (derive per-section wait/hold evidence or the trace's violations) →
//! **propose** (pure policy: candidates from evidence) → **evaluate**
//! (replay each candidate on the identical schedule) → **select**
//! (strict measured improvement). The baseline, evaluate and select
//! steps have one implementation each, shared by both terminals:
//! `EvalContext::baseline` and `EvalContext::eval_candidates` in
//! [`crate::eval`], and [`crate::adapt::select`].
//! [`Pipeline`] is the builder that names the shared knobs once and
//! offers each loop as a terminal — the only way into them:
//!
//! ```no_run
//! use atomic_lock_inference as ali;
//! # fn cfg() -> ali::replay::RunConfig { unimplemented!() }
//! let run = ali::Pipeline::new(cfg())
//!     .eval_threads(4)
//!     .adapt(&ali::lockinfer::AdaptPolicy)?;
//! # Ok::<(), String>(())
//! ```
//!
//! A single run is [`crate::replay::record`]. Every
//! [`Recording`](crate::replay::Recording) a loop returns carries its
//! own end-of-run gauges
//! ([`Recording::gauges`](crate::replay::Recording::gauges)); a run's
//! section, lock, fault, wake and STM metrics are [`crate::obs::from_trace`]
//! of its trace, and a loop's candidate counts are the statuses in its
//! report.

use crate::adapt::{
    candidates as adapt_candidates, select, AdaptRun, Decision, DecisionReport, PlanCost,
};
use crate::eval::{eval_singles, EvalContext, EvalOptions, EvalScope, Singles, Stamp};
use crate::reinfer::{
    candidates as repair_candidates, is_clean, ReinferRun, RepairDecision, RepairReport,
    SectionReport,
};
use crate::replay::RunConfig;
use lockinfer::AdaptPolicy;
use lockscheme::ConfigMap;
use std::borrow::Cow;
use trace::Trace;

/// Builder over one run configuration and one set of harness knobs;
/// terminals execute a measurement loop (module docs above).
#[derive(Clone)]
pub struct Pipeline {
    cfg: RunConfig,
    opts: EvalOptions,
}

impl Pipeline {
    /// A pipeline over `cfg` with default [`EvalOptions`]: one eval
    /// worker and one analysis worker per core, invariants hoisted.
    pub fn new(cfg: RunConfig) -> Pipeline {
        Pipeline {
            cfg,
            opts: EvalOptions::default(),
        }
    }

    /// A pipeline over the [`RunConfig`] embedded in a self-describing
    /// trace (one produced by [`crate::replay::record`]).
    ///
    /// # Errors
    ///
    /// Returns a message when the trace lacks `run.*` metadata.
    pub fn from_trace(t: &Trace) -> Result<Pipeline, String> {
        Ok(Pipeline::new(RunConfig::from_trace(t)?))
    }

    /// Replaces the full harness option set.
    pub fn options(mut self, opts: EvalOptions) -> Pipeline {
        self.opts = opts;
        self
    }

    /// Concurrent candidate replays (`0` = one per core); reports are
    /// byte-identical at every value.
    pub fn eval_threads(mut self, n: usize) -> Pipeline {
        self.opts.eval_threads = n;
        self
    }

    /// The run configuration this pipeline measures.
    pub fn config(&self) -> &RunConfig {
        &self.cfg
    }

    // ------------------------------------------------------------------
    // Terminals

    /// Profile-guided per-section adaptation: baseline → wait/hold
    /// profiles → policy candidates → replayed evaluation →
    /// strict-improvement selection. See [`crate::adapt`]
    /// for the loop's full contract.
    ///
    /// # Errors
    ///
    /// Returns a message on compile failure or when the recorded
    /// baseline trace is unusable (capacity overflow).
    pub fn adapt(&self, _policy: &AdaptPolicy) -> Result<AdaptRun, String> {
        let cfg = &self.cfg;
        let opts = &self.opts;
        let (ctx, base_map, baseline) = EvalContext::baseline(cfg, opts.hoist, "adapt")?;
        let profiles = trace::profile(&baseline.trace);
        let cands = adapt_candidates(&profiles, &base_map);
        let base_cost = PlanCost::from_profiles(&profiles, baseline.outcome.makespan);

        let scope = EvalScope {
            ctx: &ctx,
            cfg,
            base_map: &base_map,
            profiles: &profiles,
            base_cost,
            opts,
        };
        let Singles { costs, kept } = eval_singles(&scope, &cands)?;
        let decisions: Vec<Decision> = cands
            .iter()
            .zip(costs)
            .map(|(cand, (cost, status))| Decision {
                candidate: *cand,
                cost,
                status,
            })
            .collect();
        // Skipped candidates have no measured cost.
        let selected = select(
            base_cost,
            decisions
                .iter()
                .enumerate()
                .filter(|(_, d)| d.status.is_replayed())
                .map(|(i, d)| (i, d.cost)),
        );
        let report = DecisionReport {
            name: cfg.name.clone(),
            mode: format!("{:?}", cfg.mode),
            baseline: base_cost,
            candidates: decisions,
            selected,
        };

        // The candidate loop kept the best-ranked recording as the
        // candidates finished: the winner's, recorded once by its
        // evaluation run.
        debug_assert_eq!(selected, kept.as_ref().map(|&((_, _, i), _)| i));
        let adapted = kept.map(|(_, rec)| rec);
        Ok(AdaptRun {
            report,
            baseline,
            adapted,
        })
    }

    /// Quarantine-aware re-inference: armed baseline → the validator's
    /// violations → diagnosed repair candidates → replayed cleanliness +
    /// cost evaluation → per-section admission → healed re-recording.
    /// See [`crate::reinfer`] for the loop's full contract.
    ///
    /// # Errors
    ///
    /// Returns a message when the run is not sentinel-armed, on
    /// compile failure, or when the baseline/reference traces are
    /// unusable (capacity overflow).
    pub fn reinfer(&self) -> Result<ReinferRun, String> {
        let cfg = &self.cfg;
        if cfg.sentinel.is_none() {
            return Err("reinfer: the run must be sentinel-armed (set RunConfig::sentinel)".into());
        }
        let (ctx, base_map, baseline) = EvalContext::baseline(cfg, self.opts.hoist, "reinfer")?;
        let base_cost =
            PlanCost::from_profiles(&trace::profile(&baseline.trace), baseline.outcome.makespan);

        // The baseline's trace is the record of its misses: each
        // violation carries the grants held and the cell's allocation,
        // in the schedule's `(clock, tid, epoch)` order.
        let mut violations = trace::validate(&baseline.trace)
            .map_err(|e| format!("reinfer: {e}"))?
            .violations;
        violations.sort_by_key(|v| (v.clock, v.tid, v.epoch));
        let mut sections: Vec<u32> = violations.iter().map(|v| v.section).collect();
        sections.sort_unstable();
        sections.dedup();
        let cands = repair_candidates(&violations, &base_map);

        // Reference and repair runs replay the steady state the repair
        // would install: the weaken fault (the modeled inference bug)
        // is off, the sentinel stays armed so cleanliness is measured,
        // and the schedule is otherwise identical. One reference per
        // offending section comes first, then every repair candidate.
        let mut ecfg = cfg.clone();
        ecfg.weaken = None;
        let jobs: Vec<(Cow<'_, RunConfig>, ConfigMap)> = sections
            .iter()
            .map(|&s| {
                let mut m = base_map.clone();
                m.demote_to_global(s);
                m
            })
            .chain(cands.iter().map(|c| c.config_map(&base_map)))
            .map(|m| (Cow::Borrowed(&ecfg), m))
            .collect();
        let assessed = ctx.eval_candidates(&jobs, self.opts.eval_threads, |_, run| {
            (run.rec.as_ref().is_some_and(is_clean), run.cost, run.status)
        })?;

        let mut reports: Vec<SectionReport> = Vec::with_capacity(sections.len());
        for (si, &section) in sections.iter().enumerate() {
            let (_, demoted, ref_status) = &assessed[si];
            if !ref_status.is_replayed() {
                return Err(format!(
                    "reinfer: global-demotion reference for section {section} was unusable"
                ));
            }
            let decisions: Vec<RepairDecision> = cands
                .iter()
                .zip(&assessed[sections.len()..])
                .filter(|(c, _)| c.section == section)
                .map(|(c, (clean, cost, status))| RepairDecision {
                    candidate: *c,
                    clean: *clean,
                    cost: *cost,
                    status: status.clone(),
                })
                .collect();
            // A repair is admitted only when its replay was clean (a
            // skipped replay never is) and it waits strictly less than
            // the demotion it replaces.
            let admitted = select(
                *demoted,
                decisions
                    .iter()
                    .enumerate()
                    .filter(|(_, d)| d.clean)
                    .map(|(i, d)| (i, d.cost)),
            );
            reports.push(SectionReport {
                section,
                violations: violations.iter().filter(|v| v.section == section).count() as u64,
                demoted: *demoted,
                candidates: decisions,
                admitted,
            });
        }
        let report = RepairReport {
            name: cfg.name.clone(),
            mode: format!("{:?}", cfg.mode),
            baseline: base_cost,
            sections: reports,
        };

        // Re-record the original armed configuration with the admitted
        // repairs installed dormant: the offending sections heal onto
        // the repaired schemes instead of the seed scheme.
        let repairs: Vec<_> = report
            .sections
            .iter()
            .filter_map(|s| {
                s.admitted
                    .map(|j| (s.section, j as u32, s.candidates[j].candidate.config))
            })
            .collect();
        let healed = if repairs.is_empty() {
            None
        } else {
            let fcfg = RunConfig {
                repairs,
                ..cfg.clone()
            };
            Some(ctx.run_one(&fcfg, &base_map, Stamp::Run)?)
        };
        Ok(ReinferRun {
            report,
            baseline,
            healed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapt::EvalStatus;
    use crate::obs;
    use interp::ExecMode;

    const SRC: &str = r#"
        global shared;
        global tally;
        fn setup(n) { shared = 0; tally = 0; }
        fn work(iters) {
            let i = 0;
            while (i < iters) {
                atomic { shared = shared + 1; nops(200); }
                atomic { tally = tally + 1; }
                i = i + 1;
            }
            return 0;
        }
        fn total() { return shared + tally; }
    "#;

    fn cfg() -> RunConfig {
        RunConfig {
            name: "pipeline-smoke".into(),
            source: SRC.into(),
            k: 3,
            mode: ExecMode::MultiGrain,
            threads: 6,
            heap_cells: 1 << 14,
            seed: 17,
            quantum: 64,
            stm_abort_budget: 16,
            faults: None,
            sentinel: None,
            weaken: None,
            sched: None,
            repairs: Vec::new(),
            trace_capacity: 1 << 18,
            init: ("setup".into(), vec![0]),
            worker: ("work".into(), vec![20]),
            check: Some("total".into()),
        }
    }

    #[test]
    fn unarmed_reinfer_is_rejected_with_the_legacy_message() {
        let err = Pipeline::new(cfg()).reinfer().unwrap_err();
        assert!(err.contains("sentinel-armed"), "{err}");
    }

    fn gauge(snap: &obs::Snapshot, name: &str) -> u64 {
        snap.gauges
            .iter()
            .find(|(k, _)| k.name == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("{name} missing from the gauges"))
    }

    #[test]
    fn recordings_carry_their_run_gauges() {
        let rec = crate::replay::record(&cfg()).unwrap();
        // Sections and grants are counted from the recording.
        let derived = obs::from_trace(&rec.trace);
        let counter = |name: &str, label: &str| {
            derived
                .counters
                .iter()
                .find(|(k, _)| k.name == name && k.labels[0].1 == label)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("{name}{{{label}}} missing from snapshot"))
        };
        // 6 threads × 20 iterations × 2 sections, none nested.
        assert_eq!(counter("ali_trace_events_total", "section_enter"), 240);
        assert_eq!(counter("ali_section_entries_total", "1"), 120);
        assert!(counter("ali_lock_acquires_total", "X") > 0);
        // What only the machine knew rides on the recording: six
        // gauges in name order.
        let names: Vec<&str> = rec.gauges.gauges.iter().map(|(k, _)| &k.name[..]).collect();
        assert_eq!(
            names,
            [
                "ali_run_heap_used",
                "ali_run_mg_poisoned_sessions",
                "ali_run_mg_unwind_releases",
                "ali_run_sentinel_violations",
                "ali_run_sim_handoffs",
                "ali_run_sim_yield_points",
            ]
        );
        assert!(rec.gauges.counters.is_empty() && rec.gauges.hists.is_empty());
        assert!(gauge(&rec.gauges, "ali_run_heap_used") > 0);
        // The scheduler's hand-offs are a lookup: a lone virtual
        // thread never gives the turn away, and eight give it away at
        // some — not more than all — of their scheduling points.
        let sim_gauges = |threads: usize| {
            let rec = crate::replay::record(&RunConfig { threads, ..cfg() }).unwrap();
            (
                gauge(&rec.gauges, "ali_run_sim_yield_points"),
                gauge(&rec.gauges, "ali_run_sim_handoffs"),
            )
        };
        let (yield_points, handoffs) = sim_gauges(1);
        assert!(yield_points > 0);
        assert_eq!(handoffs, 0, "one thread has nobody to hand the turn to");
        let (yield_points, handoffs) = sim_gauges(8);
        assert!(
            0 < handoffs && handoffs <= yield_points,
            "{handoffs} hand-offs at {yield_points} scheduling points"
        );
    }

    /// Each recording carries its own gauges, so what an adapt run
    /// reports does not depend on which candidate finished last.
    #[test]
    fn adapt_gauges_and_status_counts_are_identical_at_every_eval_thread_count() {
        let facts = |threads: usize| {
            let run = Pipeline::new(cfg())
                .eval_threads(threads)
                .adapt(&AdaptPolicy)
                .unwrap();
            let mut statuses = [0usize; 2];
            for d in &run.report.candidates {
                statuses[match d.status {
                    EvalStatus::Replayed => 0,
                    EvalStatus::Skipped { .. } => 1,
                }] += 1;
            }
            let adapted = run.adapted.map(|rec| rec.gauges);
            (run.baseline.gauges, adapted, statuses)
        };
        let one = facts(1);
        assert!(one.1.is_some(), "a candidate was selected");
        assert!(one.2[0] > 1, "candidates were replayed: {:?}", one.2);
        assert_eq!(facts(2), one, "at 2 eval threads");
        assert_eq!(facts(7), one, "at 7 eval threads");
    }
}
