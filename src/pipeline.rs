//! `ali::Pipeline` — the single entry point to the measurement loops
//! (DESIGN.md §5.9).
//!
//! Every evaluation subsystem in this crate walks the same arc:
//! **baseline** (record the run deterministically) → **profile**
//! (derive per-section wait/hold evidence or a violation ledger) →
//! **propose** (pure policy: candidates from evidence) → **evaluate**
//! (replay each candidate on the identical schedule, via
//! [`crate::eval`]) → **select** (strict measured improvement).
//! [`Pipeline`] is the builder that names the shared knobs once and
//! offers each loop as a terminal — the only way into them:
//!
//! ```no_run
//! use atomic_lock_inference as ali;
//! # fn cfg() -> ali::replay::RunConfig { unimplemented!() }
//! let run = ali::Pipeline::new(cfg())
//!     .analysis_threads(1)
//!     .prune(4)
//!     .adapt(&ali::lockinfer::adapt::AdaptPolicy::default())?;
//! # Ok::<(), String>(())
//! ```
//!
//! A pipeline can also be armed with an [`obs::Registry`]
//! ([`Pipeline::metrics`]) for the numbers no trace carries: every run
//! it executes then leaves its end-of-run totals in `ali_run_*` gauges
//! and the harness counts `ali_eval_*` candidate totals. Both are
//! written after a run returns, so arming cannot touch the schedule or
//! a recorded trace; a run's section, lock, fault, wake and STM
//! metrics are [`obs::from_trace`] of its recording.

use crate::adapt::AdaptRun;
use crate::eval::{eval_singles, EvalContext, EvalOptions, EvalScope, Stamp};
use crate::reinfer::ReinferRun;
use crate::replay::{Recording, RunConfig};
use lockinfer::adapt::{
    candidates as adapt_candidates, select as adapt_select, AdaptPolicy, Decision, DecisionReport,
};
use lockinfer::reinfer::{
    admit, candidates as repair_candidates, RepairDecision, RepairOutcome, RepairReport,
    SectionReport, Witness,
};
use lockinfer::{par_map, EvalStatus, PlanCost};
use lockscheme::ConfigMap;
use sentinel::Violation;
use std::sync::Arc;
use trace::Trace;

/// Builder over one run configuration and one set of harness knobs;
/// terminals execute a measurement loop (module docs above).
#[derive(Clone)]
pub struct Pipeline {
    cfg: RunConfig,
    opts: EvalOptions,
    metrics: Option<Arc<obs::Registry>>,
}

impl Pipeline {
    /// A pipeline over `cfg` with default [`EvalOptions`]: exact (no
    /// pruning), one eval worker and one analysis worker per core,
    /// invariants hoisted, metrics off.
    pub fn new(cfg: RunConfig) -> Pipeline {
        Pipeline {
            cfg,
            opts: EvalOptions::default(),
            metrics: None,
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

    /// Phase B worker count for lock inference (`0` = one per core);
    /// the outcome is identical for every value.
    pub fn analysis_threads(mut self, n: usize) -> Pipeline {
        self.opts.analysis_threads = n;
        self
    }

    /// Concurrent candidate replays (`0` = one per core); reports are
    /// byte-identical at every value.
    pub fn eval_threads(mut self, n: usize) -> Pipeline {
        self.opts.eval_threads = n;
        self
    }

    /// Replay only the estimator's `top_k` candidates.
    pub fn prune(mut self, top_k: usize) -> Pipeline {
        self.opts.prune = Some(top_k);
        self
    }

    /// Arms every run this pipeline executes with a metrics registry:
    /// `ali_run_*` end-of-run gauges scraped from each machine,
    /// `ali_eval_*` candidate totals from the harness.
    pub fn metrics(mut self, reg: Arc<obs::Registry>) -> Pipeline {
        self.metrics = Some(reg);
        self
    }

    /// The effective harness options.
    pub fn eval_options(&self) -> &EvalOptions {
        &self.opts
    }

    /// The run configuration this pipeline measures.
    pub fn config(&self) -> &RunConfig {
        &self.cfg
    }

    fn context(&self, cfg: &RunConfig) -> Result<EvalContext, String> {
        let mut ctx = EvalContext::new(cfg, self.opts.hoist)?;
        if let Some(reg) = &self.metrics {
            ctx.arm_metrics(Arc::clone(reg));
        }
        Ok(ctx)
    }

    // ------------------------------------------------------------------
    // Terminals

    /// **Baseline only**: records the configuration once, stamped with
    /// full `run.*` metadata — [`crate::replay::record`], but
    /// metrics-armed when the pipeline is.
    ///
    /// # Errors
    ///
    /// See [`crate::replay::record`].
    pub fn record(&self) -> Result<Recording, String> {
        let ctx = self.context(&self.cfg)?;
        let base_map = ctx.base_map(&self.cfg);
        ctx.run_one(&self.cfg, &base_map, Stamp::Run, self.opts.analysis_threads)
    }

    /// Profile-guided per-section adaptation: baseline → wait/hold
    /// profiles → policy candidates → replayed evaluation (optionally
    /// pruned) → strict-improvement selection. See [`crate::adapt`]
    /// for the loop's full contract.
    ///
    /// # Errors
    ///
    /// Returns a message on compile failure or when the recorded
    /// baseline trace is unusable (ring overflow).
    pub fn adapt(&self, policy: &AdaptPolicy) -> Result<AdaptRun, String> {
        let cfg = &self.cfg;
        let opts = &self.opts;
        let ctx = self.context(cfg)?;
        let base_map = ctx.base_map(cfg);
        let baseline = ctx.run_one(cfg, &base_map, Stamp::Run, opts.analysis_threads)?;
        if baseline.trace.dropped > 0 {
            return Err(format!(
                "adapt: baseline trace dropped {} events — raise trace_capacity",
                baseline.trace.dropped
            ));
        }
        let profiles = trace::profile(&baseline.trace);
        let cands = adapt_candidates(&profiles, &base_map, policy);
        let base_cost = PlanCost::from_profiles(&profiles, baseline.outcome.makespan);

        let scope = EvalScope {
            ctx: &ctx,
            cfg,
            base_map: &base_map,
            profiles: &profiles,
            base_cost,
            opts,
        };
        let singles = eval_singles(&scope, &cands)?;
        let decisions: Vec<Decision> = cands
            .iter()
            .zip(&singles)
            .map(|(cand, (cost, status))| Decision {
                candidate: *cand,
                cost: *cost,
                status: status.clone(),
            })
            .collect();
        // Selection runs over the replayed subset only (pruned/skipped
        // candidates have no measured cost), mapped back to canonical
        // candidate indices.
        let replayed: Vec<usize> = decisions
            .iter()
            .enumerate()
            .filter(|(_, d)| d.status.is_replayed())
            .map(|(i, _)| i)
            .collect();
        let selected = adapt_select(
            base_cost,
            &replayed
                .iter()
                .map(|&i| decisions[i].cost)
                .collect::<Vec<_>>(),
        )
        .map(|j| replayed[j]);
        let report = DecisionReport {
            name: cfg.name.clone(),
            mode: format!("{:?}", cfg.mode),
            baseline: base_cost,
            candidates: decisions,
            selected,
        };

        // Candidate recordings were dropped after profiling; the
        // winner is re-executed once, deterministically identical to
        // its evaluation run.
        let adapted = selected
            .map(|i| {
                let cand = &cands[i];
                ctx.run_one(
                    &EvalContext::candidate_cfg(cfg, cand, &profiles),
                    &cand.config_map(&base_map),
                    Stamp::Adapt,
                    opts.analysis_threads,
                )
            })
            .transpose()?;
        Ok(AdaptRun {
            report,
            baseline,
            adapted,
        })
    }

    /// Quarantine-aware re-inference: armed baseline → violation
    /// ledger → diagnosed repair candidates → replayed cleanliness +
    /// cost evaluation → per-section admission → healed re-recording.
    /// See [`crate::reinfer`] for the loop's full contract.
    ///
    /// # Errors
    ///
    /// Returns a message when the run is not sentinel-armed, on
    /// compile failure, or when the baseline/reference traces are
    /// unusable (ring overflow).
    pub fn reinfer(&self) -> Result<ReinferRun, String> {
        let cfg = &self.cfg;
        let opts = &self.opts;
        if cfg.sentinel.is_none() {
            return Err("reinfer: the run must be sentinel-armed (set RunConfig::sentinel)".into());
        }
        let ctx = self.context(cfg)?;
        let base_map = ctx.base_map(cfg);
        let (baseline, ledger) =
            ctx.run_one_ledger(cfg, &base_map, Stamp::Run, opts.analysis_threads)?;
        if baseline.trace.dropped > 0 {
            return Err(format!(
                "reinfer: baseline trace dropped {} events — raise trace_capacity",
                baseline.trace.dropped
            ));
        }
        let base_cost =
            PlanCost::from_profiles(&trace::profile(&baseline.trace), baseline.outcome.makespan);

        // The ledger is already canonical (`(clock, tid, seq)` order);
        // resolving each address through the baseline's
        // allocation-table snapshot yields the witnesses the policy
        // diagnoses.
        let witnesses: Vec<Witness> = ledger
            .iter()
            .map(|v| Witness {
                violation: v.clone(),
                extent: baseline.trace.alloc_of(v.addr).map(|a| (a.base, a.class)),
            })
            .collect();
        let sections: Vec<u32> = {
            let mut s: Vec<u32> = witnesses.iter().map(|w| w.violation.section).collect();
            s.sort_unstable();
            s.dedup();
            s
        };
        let cands = repair_candidates(&witnesses, &base_map);

        // Candidate and reference runs replay the steady state the
        // repair would install: the weaken fault (the modeled
        // inference bug) is off, the sentinel stays armed so
        // cleanliness is measured, and the schedule is otherwise
        // identical.
        let mut ecfg = cfg.clone();
        ecfg.weaken = None;
        let maps: Vec<ConfigMap> = sections
            .iter()
            .map(|&s| {
                let mut m = base_map.clone();
                m.demote_to_global(s);
                m
            })
            .chain(cands.iter().map(|c| c.config_map(&base_map)))
            .collect();
        let runs: Vec<Result<(Recording, Vec<Violation>), String>> =
            par_map(maps.len(), opts.eval_threads, |i| {
                ctx.run_one_ledger(&ecfg, &maps[i], Stamp::Adapt, opts.analysis_threads)
            });
        ctx.count("ali_eval_candidates_evaluated_total", maps.len() as u64);
        let mut assessed: Vec<(bool, PlanCost, EvalStatus)> = Vec::with_capacity(runs.len());
        for run in runs {
            let (rec, cand_ledger) = run?;
            if rec.trace.dropped > 0 {
                ctx.count("ali_eval_candidates_skipped_total", 1);
                assessed.push((
                    false,
                    PlanCost::default(),
                    EvalStatus::Skipped {
                        reason: format!(
                            "candidate trace dropped {} events - raise trace_capacity",
                            rec.trace.dropped
                        ),
                    },
                ));
                continue;
            }
            let cost = PlanCost::from_profiles(&trace::profile(&rec.trace), rec.outcome.makespan);
            let clean = rec.outcome.error.is_none()
                && cand_ledger.is_empty()
                && trace::validate(&rec.trace)
                    .map(|v| v.passed())
                    .unwrap_or(false);
            assessed.push((clean, cost, EvalStatus::Replayed));
        }

        let mut reports: Vec<SectionReport> = Vec::with_capacity(sections.len());
        for (si, &section) in sections.iter().enumerate() {
            let (_, demoted, ref_status) = &assessed[si];
            if !ref_status.is_replayed() {
                return Err(format!(
                    "reinfer: global-demotion reference for section {section} was unusable"
                ));
            }
            let demoted = *demoted;
            let members: Vec<usize> = cands
                .iter()
                .enumerate()
                .filter(|(_, c)| c.section == section)
                .map(|(i, _)| i)
                .collect();
            let decisions: Vec<RepairDecision> = members
                .iter()
                .map(|&i| {
                    let (clean, cost, status) = assessed[sections.len() + i].clone();
                    RepairDecision {
                        candidate: cands[i],
                        clean,
                        cost,
                        status,
                    }
                })
                .collect();
            let outcomes: Vec<RepairOutcome> = decisions
                .iter()
                .map(|d| RepairOutcome {
                    clean: d.clean && d.status.is_replayed(),
                    cost: d.cost,
                })
                .collect();
            let admitted = admit(demoted, &outcomes);
            reports.push(SectionReport {
                section,
                violations: witnesses
                    .iter()
                    .filter(|w| w.violation.section == section)
                    .count() as u64,
                demoted,
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
        let admitted = report.admitted();
        let healed = if admitted.is_empty() {
            None
        } else {
            let mut fcfg = cfg.clone();
            fcfg.repairs = admitted
                .iter()
                .map(|&(section, j)| {
                    let s = report
                        .sections
                        .iter()
                        .find(|s| s.section == section)
                        .expect("admitted section is reported");
                    (section, j as u32, s.candidates[j].candidate.config)
                })
                .collect();
            Some(ctx.run_one(&fcfg, &base_map, Stamp::Run, opts.analysis_threads)?)
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
    fn record_terminal_matches_replay_record_bytes() {
        let a = Pipeline::new(cfg()).analysis_threads(1).record().unwrap();
        let b = crate::replay::record(&cfg()).unwrap();
        assert_eq!(a.trace.digest(), b.trace.digest());
        assert_eq!(a.trace.to_json(), b.trace.to_json());
        assert_eq!(a.outcome, b.outcome);
    }

    #[test]
    fn unarmed_reinfer_is_rejected_with_the_legacy_message() {
        let err = Pipeline::new(cfg()).reinfer().unwrap_err();
        assert!(err.contains("sentinel-armed"), "{err}");
    }

    #[test]
    fn metrics_armed_runs_count_sections_and_leave_traces_untouched() {
        let reg = Arc::new(obs::Registry::new());
        let armed = Pipeline::new(cfg())
            .analysis_threads(1)
            .metrics(Arc::clone(&reg))
            .record()
            .unwrap();
        let unarmed = Pipeline::new(cfg()).analysis_threads(1).record().unwrap();
        assert_eq!(
            armed.trace.digest(),
            unarmed.trace.digest(),
            "metrics must not perturb the deterministic schedule"
        );
        // Sections and grants are counted from the recording.
        let derived = obs::from_trace(&armed.trace);
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
        // End-of-run gauges were published.
        let snap = reg.snapshot();
        assert!(snap.counters.is_empty() && snap.hists.is_empty());
        assert!(snap
            .gauges
            .iter()
            .any(|(k, v)| k.name == "ali_run_mg_batches" && *v > 0));
        // The scheduler's hand-offs are a lookup: a lone virtual
        // thread never gives the turn away, and eight give it away at
        // some — not more than all — of their scheduling points.
        let sim_gauges = |threads: usize| {
            let reg = Arc::new(obs::Registry::new());
            Pipeline::new(RunConfig { threads, ..cfg() })
                .analysis_threads(1)
                .metrics(Arc::clone(&reg))
                .record()
                .unwrap();
            let snap = reg.snapshot();
            let gauge = |name: &str| {
                snap.gauges
                    .iter()
                    .find(|(k, _)| k.name == name)
                    .map(|(_, v)| *v)
                    .unwrap_or_else(|| panic!("{name} missing from snapshot"))
            };
            (
                gauge("ali_run_sim_yield_points"),
                gauge("ali_run_sim_handoffs"),
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

    #[test]
    fn metrics_armed_adapt_counts_harness_candidates() {
        let reg = Arc::new(obs::Registry::new());
        let run = Pipeline::new(cfg())
            .analysis_threads(1)
            .metrics(Arc::clone(&reg))
            .adapt(&AdaptPolicy::default())
            .unwrap();
        assert!(!run.report.candidates.is_empty());
        let snap = reg.snapshot();
        let evaluated = snap
            .counters
            .iter()
            .find(|(k, _)| k.name == "ali_eval_candidates_evaluated_total")
            .map(|(_, v)| *v)
            .unwrap();
        assert!(evaluated > 0, "harness counted its replays");
    }
}
