//! Shared what-if candidate-evaluation harness (DESIGN.md §5.7).
//!
//! The adaptive loop ([`crate::adapt`]) measures every candidate —
//! lock-plan overrides and wake policies alike — the same way: record
//! a baseline, derive candidates from its profiles, re-run the
//! identical deterministic schedule once per candidate, select by
//! strict measured wait reduction. This module is that shape, factored
//! out and made fast, in three layers:
//!
//! 1. **Hoisted invariants.** The program is compiled and the
//!    points-to analysis run **once per evaluation**, shared as
//!    [`Arc`]s across every candidate; Phase A summary caches are
//!    memoized per distinct [`SchemeConfig`] in one concurrent
//!    [`SummaryStore`], and candidates naming the same effective run
//!    configuration replay once (see [`eval_singles`]). The
//!    pre-harness behavior — re-deriving all three per candidate, no
//!    dedup — is kept reachable (`hoist: false`) so `eval-bench` can
//!    measure exactly what the harness buys.
//! 2. **Parallel evaluation.** Candidates replay concurrently through
//!    [`lockinfer::par_map`] on `eval_threads` workers, and results are
//!    merged **by candidate index** — so every report is byte-identical
//!    at every eval thread count, the same guarantee (and the same
//!    function) as the analysis engine's Phase B.
//! 3. **Trace-analytic pruning.** [`lockinfer::estimate`] scores every
//!    candidate from the baseline profiles alone; only the estimated
//!    `top_k` are replayed, the rest are marked
//!    [`EvalStatus::Pruned`] in the report. `prune: None` keeps exact
//!    behavior, and the `eval-bench` gate asserts the pruned set
//!    always contains the replay-selected winner.
//!
//! Candidate recordings are **not retained**: each worker profiles its
//! recording, keeps the [`PlanCost`], and drops the events, so memory
//! is O(1) in candidate count. The winner (if any) is re-executed once
//! at the end — deterministically identical to its evaluation run.
//!
//! A candidate whose trace overflowed its ring (`dropped > 0`) is
//! surfaced as [`EvalStatus::Skipped`] instead of silently
//! contributing a bogus profile; the baseline overflowing is still a
//! hard error, since every candidate's evidence derives from it.

use crate::replay::{
    execute, options_for, stamp_outcome, Recording, RunConfig, MAX_REPLAY_HEAP_CELLS,
    MAX_REPLAY_THREADS,
};
use interp::Machine;
use lockinfer::adapt::Adjustment;
use lockinfer::estimate;
use lockinfer::library::LibrarySpec;
use lockinfer::{par_map, Candidate, EvalStatus, PlanCost, SummaryStore};
use lockscheme::{ConfigMap, SchemeConfig};
use std::sync::Arc;
use trace::SectionProfile;

/// Knobs of one harness evaluation. [`Default`] is the exact,
/// fully-parallel configuration: every candidate replayed, eval
/// workers one per core, invariants hoisted.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct EvalOptions {
    /// Phase B worker count for lock inference (`0` = one per core).
    /// The outcome is identical for every value.
    pub analysis_threads: usize,
    /// Concurrent candidate replays (`0` = one per core). The outcome
    /// is identical for every value — results merge in candidate
    /// order.
    pub eval_threads: usize,
    /// Replay only the estimator's `top_k` candidates (`None` = exact:
    /// replay everything).
    pub prune: Option<usize>,
    /// Share one compiled program / points-to result / summary store
    /// across all candidates and deduplicate candidates naming the
    /// same effective run configuration. `false` re-derives everything
    /// per candidate and replays every candidate individually — the
    /// pre-harness loop, kept reachable so `eval-bench` measures
    /// exactly what the harness buys. Reports are byte-identical
    /// either way (duplicates replay to identical costs).
    pub hoist: bool,
}

impl Default for EvalOptions {
    fn default() -> EvalOptions {
        EvalOptions {
            analysis_threads: 0,
            eval_threads: 0,
            prune: None,
            hoist: true,
        }
    }
}

/// How a harness recording is stamped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Stamp {
    /// Full `run.*` metadata: the recording is self-describing and
    /// replayable (baselines, steered wake-policy runs).
    Run,
    /// `adapt.*` metadata only: the recording ran under a candidate
    /// [`ConfigMap`], so `replay()` must reject it rather than
    /// silently re-infer under the uniform configuration.
    Adapt,
}

/// What one candidate evaluation produced (the recording itself is
/// dropped — memory stays O(1) in candidate count).
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) enum CandidateRun {
    /// Replayed clean; the measured cost.
    Done(PlanCost),
    /// The recording was unusable; the reason to surface.
    Skipped(String),
}

/// The per-evaluation invariants every candidate shares: one compiled
/// program, one points-to result, one concurrent summary store.
pub struct EvalContext {
    program: Arc<lir::Program>,
    pt: Arc<pointsto::PointsTo>,
    store: SummaryStore,
    lib: LibrarySpec,
    hoist: bool,
    /// Metrics registry ([`crate::pipeline::Pipeline::metrics`]): each
    /// run's end-of-run totals land in `ali_run_*` gauges and the
    /// harness counts `ali_eval_*` candidate totals. `None` = off.
    metrics: Option<Arc<obs::Registry>>,
}

impl EvalContext {
    /// Compiles `cfg`'s program and runs points-to, once.
    ///
    /// # Errors
    ///
    /// Returns a message on compile failure.
    pub fn new(cfg: &RunConfig, hoist: bool) -> Result<EvalContext, String> {
        let program = lir::compile(&cfg.source).map_err(|e| e.to_string())?;
        let pt = pointsto::PointsTo::analyze(&program);
        Ok(EvalContext {
            program: Arc::new(program),
            pt: Arc::new(pt),
            store: SummaryStore::new(),
            lib: LibrarySpec::new(),
            hoist,
            metrics: None,
        })
    }

    /// Arms every run this context executes with a registry.
    pub(crate) fn arm_metrics(&mut self, reg: Arc<obs::Registry>) {
        self.metrics = Some(reg);
    }

    /// Bumps a harness counter on the armed registry, if any.
    pub(crate) fn count(&self, name: &str, n: u64) {
        if let Some(reg) = &self.metrics {
            reg.counter(name).add(n);
        }
    }

    /// The uniform configuration map `cfg` prescribes — the baseline
    /// every candidate overrides.
    pub fn base_map(&self, cfg: &RunConfig) -> ConfigMap {
        ConfigMap::uniform(SchemeConfig::full(cfg.k, self.program.elem_field_opt()))
    }

    /// Distinct scheme configurations whose Phase A summaries have
    /// been computed so far.
    pub fn summary_configs(&self) -> usize {
        self.store.len()
    }

    /// Executes `cfg` with locks inferred under `map` — the one
    /// recording primitive behind [`crate::replay::record`], baselines,
    /// adapt candidates and repaired re-runs.
    ///
    /// # Errors
    ///
    /// Returns a message on compile failure (legacy-emulation mode
    /// recompiles per run) and for every run no machine can be built
    /// for: see [`Self::run_one_ledger`].
    pub(crate) fn run_one(
        &self,
        cfg: &RunConfig,
        map: &ConfigMap,
        stamp: Stamp,
        analysis_threads: usize,
    ) -> Result<Recording, String> {
        Ok(self.run_one_ledger(cfg, map, stamp, analysis_threads)?.0)
    }

    /// [`Self::run_one`] plus the sentinel's canonical violation
    /// ledger, snapshotted before the machine is dropped — the
    /// evidence the re-inference pass (`crate::reinfer`) diagnoses.
    /// Empty for machines built without a sentinel.
    ///
    /// Every recording goes through here, and `cfg` can come from a
    /// trace file or a command line, so this is where a run nothing
    /// should be spawned or allocated for is refused: a thread count or
    /// heap bound over the limits, a heap that cannot hold the
    /// program's globals, and a section configuration — base, override
    /// or repair — that is not [`SchemeConfig::is_executable`].
    pub(crate) fn run_one_ledger(
        &self,
        cfg: &RunConfig,
        map: &ConfigMap,
        stamp: Stamp,
        analysis_threads: usize,
    ) -> Result<(Recording, Vec<sentinel::Violation>), String> {
        for (key, value, limit) in [
            ("threads", cfg.threads, MAX_REPLAY_THREADS),
            ("heap_cells", cfg.heap_cells, MAX_REPLAY_HEAP_CELLS),
        ] {
            if value > limit {
                return Err(format!(
                    "run: bad `{key}`: {value} exceeds the limit of {limit}"
                ));
            }
        }
        let overrides = map.overrides().iter().map(|&(_, c)| c);
        let repairs = cfg.repairs.iter().map(|&(_, _, c)| c);
        if let Some(c) = std::iter::once(map.default)
            .chain(overrides)
            .chain(repairs)
            .find(|c| !c.is_executable())
        {
            return Err(format!(
                "run: a scheme with expression locks (k={}) but no points-to component \
                 cannot be executed: fine locks need their points-to partition",
                c.k
            ));
        }
        let (program, pt) = if self.hoist {
            (Arc::clone(&self.program), Arc::clone(&self.pt))
        } else {
            let p = lir::compile(&cfg.source).map_err(|e| e.to_string())?;
            let pt = pointsto::PointsTo::analyze(&p);
            (Arc::new(p), Arc::new(pt))
        };
        // `Machine::new` gives every global its own cell after the
        // null cell and panics when they do not fit; `heap_cells` can
        // come from trace metadata, so refuse it here instead.
        if cfg.heap_cells <= program.globals.len() {
            return Err(format!(
                "run: heap_cells = {} cannot hold the program's {} globals",
                cfg.heap_cells,
                program.globals.len()
            ));
        }
        let store = if self.hoist { Some(&self.store) } else { None };
        let analysis = lockinfer::analyze_program_with_configs(
            &program,
            &pt,
            map,
            &self.lib,
            analysis_threads,
            store,
        );
        let transformed = lockinfer::transform(&program, &analysis);
        let mut opts = options_for(cfg);
        if !cfg.repairs.is_empty() {
            opts.repairs = crate::replay::repair_specs(
                &cfg.repairs,
                &program,
                &pt,
                map,
                &self.lib,
                analysis_threads,
                store,
            );
        }
        let m = Machine::new(Arc::new(transformed), pt, cfg.mode, opts);
        let (outcome, mut trace) = execute(&m, cfg);
        // Counters accumulate across the evaluation; gauges reflect
        // the most recent run's end-of-run totals.
        if let Some(reg) = &self.metrics {
            publish_run_gauges(reg, &m);
        }
        let ledger = m
            .sentinel()
            .map(sentinel::Sentinel::violations)
            .unwrap_or_default();
        match stamp {
            Stamp::Run => cfg.stamp(&mut trace),
            Stamp::Adapt => {
                trace.meta_set("adapt.name", cfg.name.clone());
                trace.meta_set("adapt.base_k", cfg.k.to_string());
                for (section, c) in map.overrides() {
                    trace.meta_set(
                        &format!("adapt.section.{section}"),
                        format!(
                            "k={},expr={},pts={},eff={}",
                            c.k, c.use_expr, c.use_pts, c.use_eff
                        ),
                    );
                }
                if let Some(s) = &cfg.sched {
                    trace.meta_set("adapt.wake_policy", s.policy.tag().to_owned());
                }
            }
        }
        stamp_outcome(&outcome, &mut trace);
        Ok((Recording { outcome, trace }, ledger))
    }

    /// [`Self::run_one`] for a candidate: profiles the recording,
    /// keeps the cost, drops the events. A trace that overflowed its
    /// ring is a skip, not a silently bogus cost.
    pub(crate) fn eval_candidate(
        &self,
        cfg: &RunConfig,
        map: &ConfigMap,
        analysis_threads: usize,
    ) -> Result<CandidateRun, String> {
        let rec = self.run_one(cfg, map, Stamp::Adapt, analysis_threads)?;
        if rec.trace.dropped > 0 {
            return Ok(CandidateRun::Skipped(format!(
                "candidate trace dropped {} events - raise trace_capacity",
                rec.trace.dropped
            )));
        }
        let prof = trace::profile(&rec.trace);
        Ok(CandidateRun::Done(PlanCost::from_profiles(
            &prof,
            rec.outcome.makespan,
        )))
    }

    /// The [`RunConfig`] a candidate runs under: `cfg` plus the frozen
    /// wake-policy configuration when the candidate steers the
    /// scheduler.
    pub(crate) fn candidate_cfg(
        cfg: &RunConfig,
        cand: &Candidate,
        profiles: &[SectionProfile],
    ) -> RunConfig {
        let mut c = cfg.clone();
        if let Some(kind) = wake_of(cand) {
            c.sched = Some(interp::SchedConfig::from_profiles(kind, profiles));
        }
        c
    }
}

/// Scrapes what only the live machine knows at the end of a run —
/// multi-grain lock runtime, STM space, sentinel ladder, heap,
/// virtual-time scheduler — into `ali_run_*` gauges. Everything a
/// trace carries (sections, grants, faults, wake decisions, commits)
/// is [`obs::from_trace`]'s instead. Gauges are set, not accumulated.
fn publish_run_gauges(reg: &obs::Registry, m: &Machine) {
    use std::sync::atomic::Ordering::Relaxed;
    let set = |name: &str, v: u64| reg.gauge(name).set(v);
    let mg = m.mg_stats();
    set("ali_run_mg_batches", mg.batches.load(Relaxed));
    set(
        "ali_run_mg_node_acquisitions",
        mg.node_acquisitions.load(Relaxed),
    );
    set(
        "ali_run_mg_poisoned_sessions",
        mg.poisoned_sessions.load(Relaxed),
    );
    set(
        "ali_run_mg_unwind_releases",
        mg.unwind_releases.load(Relaxed),
    );
    let stm = m.stm_stats();
    set("ali_run_stm_commits", stm.commits);
    set("ali_run_stm_aborts", stm.aborts);
    set("ali_run_stm_fallbacks", stm.fallbacks);
    let (violations, quarantined, healed) = m.sentinel().map_or((0, 0, 0), |s| {
        (
            s.sentinel_violations(),
            s.sections_quarantined(),
            s.sections_healed(),
        )
    });
    set("ali_run_sentinel_violations", violations);
    set("ali_run_sections_quarantined", quarantined);
    set("ali_run_sections_healed", healed);
    set("ali_run_heap_used", m.heap_used());
    let (yield_points, handoffs) = m.sim_counts();
    set("ali_run_sim_yield_points", yield_points);
    set("ali_run_sim_handoffs", handoffs);
}

/// The wake policy a single-override candidate steers, if any.
fn wake_of(c: &Candidate) -> Option<interp::PolicyKind> {
    match c.adjustment {
        Adjustment::WakePolicy(kind) => Some(kind),
        _ => None,
    }
}

/// Everything one candidate round evaluates against: the hoisted
/// context, the run being adapted, its baseline map/profiles/cost, and
/// the harness knobs.
pub(crate) struct EvalScope<'a> {
    pub ctx: &'a EvalContext,
    pub cfg: &'a RunConfig,
    pub base_map: &'a ConfigMap,
    pub profiles: &'a [SectionProfile],
    pub base_cost: PlanCost,
    pub opts: &'a EvalOptions,
}

/// Evaluates one set of single-override candidates through the pruned,
/// parallel pipeline and returns one `(cost, status)` per candidate
/// **in candidate order**.
///
/// Candidates naming the same *effective run configuration* — the same
/// override set and wake policy, e.g. one wake policy proposed for two
/// different convoy sections (steering is global, so both describe the
/// identical run) — are **deduplicated**: the configuration replays
/// once and every duplicate carries the shared measured cost as
/// [`EvalStatus::Replayed`]. Pruning and the estimator's diversity
/// guard operate on the deduplicated groups, each represented by its
/// best-estimated member, so a group is kept or pruned as a whole.
/// The legacy-emulation mode (`hoist: false`) skips the dedup and
/// replays each candidate individually; determinism makes the
/// resulting report byte-identical either way.
///
/// # Errors
///
/// Propagates the first candidate whose execution failed outright
/// (compile failure — impossible for candidates of a compiled
/// baseline, but surfaced rather than swallowed).
pub(crate) fn eval_singles(
    scope: &EvalScope<'_>,
    cands: &[Candidate],
) -> Result<Vec<(PlanCost, EvalStatus)>, String> {
    let &EvalScope {
        ctx,
        cfg,
        base_map,
        profiles,
        base_cost,
        opts,
    } = scope;
    let ests: Vec<u64> = cands
        .iter()
        .map(|c| estimate::estimate(c, profiles, base_cost))
        .collect();
    // Group by effective configuration, preserving first-seen order.
    // The legacy-emulation mode (`hoist: false`) replays every
    // candidate individually instead.
    type Key = (Vec<(u32, SchemeConfig)>, Option<interp::PolicyKind>);
    let mut groups: Vec<Vec<usize>> = Vec::new();
    if opts.hoist {
        let mut keys: Vec<Key> = Vec::new();
        for (i, c) in cands.iter().enumerate() {
            let key: Key = (c.config_map(base_map).overrides().to_vec(), wake_of(c));
            match keys.iter().position(|k| *k == key) {
                Some(g) => groups[g].push(i),
                None => {
                    keys.push(key);
                    groups.push(vec![i]);
                }
            }
        }
    } else {
        groups = (0..cands.len()).map(|i| vec![i]).collect();
    }
    // One representative per group: the member the estimator rates
    // best (ties by candidate order — deterministic).
    let reps: Vec<Candidate> = groups
        .iter()
        .map(|members| {
            let &best = members
                .iter()
                .min_by_key(|&&i| (ests[i], i))
                .expect("groups are non-empty");
            cands[best]
        })
        .collect();
    let keep: Vec<usize> = match opts.prune {
        Some(top_k) => estimate::prune(&reps, profiles, base_cost, top_k),
        None => (0..reps.len()).collect(),
    };
    let runs: Vec<Result<CandidateRun, String>> = par_map(keep.len(), opts.eval_threads, |j| {
        let rep = &reps[keep[j]];
        let cand_cfg = EvalContext::candidate_cfg(cfg, rep, profiles);
        ctx.eval_candidate(&cand_cfg, &rep.config_map(base_map), opts.analysis_threads)
    });
    ctx.count("ali_eval_candidates_evaluated_total", keep.len() as u64);
    ctx.count(
        "ali_eval_candidates_pruned_total",
        (reps.len() - keep.len()) as u64,
    );
    ctx.count(
        "ali_eval_candidates_skipped_total",
        runs.iter()
            .filter(|r| matches!(r, Ok(CandidateRun::Skipped(_))))
            .count() as u64,
    );
    let mut out: Vec<(PlanCost, EvalStatus)> = cands
        .iter()
        .zip(&ests)
        .map(|(_, &est)| (PlanCost::default(), EvalStatus::Pruned { est }))
        .collect();
    for (j, run) in runs.into_iter().enumerate() {
        let shared = match run? {
            CandidateRun::Done(cost) => (cost, EvalStatus::Replayed),
            CandidateRun::Skipped(reason) => (PlanCost::default(), EvalStatus::Skipped { reason }),
        };
        for &i in &groups[keep[j]] {
            out[i] = shared.clone();
        }
    }
    Ok(out)
}
