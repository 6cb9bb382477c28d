//! Shared what-if candidate-evaluation harness (DESIGN.md §5.7).
//!
//! Both decision loops measure every candidate the same way: record a
//! baseline, derive candidates from its evidence, re-run the identical
//! deterministic schedule once per candidate, select by strict measured
//! wait reduction. The adaptive loop ([`crate::adapt`]) does so for
//! lock-plan overrides and wake policies alike, re-inference
//! ([`crate::reinfer`]) for repairs and their global-demotion
//! references. This module is that shape, factored out once —
//! `EvalContext::baseline` records the baseline for both loops and
//! `EvalContext::eval_candidates` runs both loops' candidates — and
//! made fast, in three layers:
//!
//! 1. **Hoisted invariants.** The program is compiled and the
//!    points-to analysis run **once per evaluation**, shared as
//!    [`Arc`]s across every candidate; Phase A summary caches are
//!    memoized per distinct [`SchemeConfig`] in one concurrent
//!    [`SummaryStore`], and candidates naming the same effective run
//!    configuration replay once (see `eval_singles`). The
//!    pre-harness behavior — re-deriving all three per candidate, no
//!    dedup — is kept reachable (`hoist: false`) so `eval-bench` can
//!    measure exactly what the harness buys.
//! 2. **Parallel evaluation.** Candidates replay concurrently through
//!    [`lockinfer::par_map`] on `eval_threads` workers (this module is
//!    its one caller in the crate), and results are
//!    merged **by candidate index** — so every report is byte-identical
//!    at every eval thread count, the same guarantee (and the same
//!    function) as the analysis engine's Phase B.
//! 3. **Trace-analytic pruning.** `estimate` scores every candidate
//!    from the baseline profiles alone; only the estimated `top_k` are
//!    replayed, the rest are marked [`EvalStatus::Pruned`] in the
//!    report (see *Trace-analytic estimation* below).
//!
//! Memory is O(1) in candidate count: each worker profiles its
//! recording and keeps the [`PlanCost`]; of the recordings, only the
//! best-ranked one so far (`rank`, the comparator selection uses) is
//! retained. That one is the winner's, so the winner is recorded once —
//! by its evaluation run — and never re-executed.
//!
//! A candidate whose trace overflowed its capacity (`dropped > 0`) is
//! surfaced as [`EvalStatus::Skipped`] instead of silently
//! contributing a bogus profile; the baseline overflowing is still a
//! hard error, since every candidate's evidence derives from it.
//!
//! ## Trace-analytic estimation
//!
//! Replaying a candidate configuration measures its cost *exactly* but
//! pays a full deterministic re-execution. `estimate` scores a
//! candidate **analytically from the baseline trace alone** — a pure
//! integer function of the recorded wait/hold/revalidation profiles —
//! so the harness can rank candidates first and replay only the most
//! promising `top_k`.
//!
//! The model is deliberately coarse; it only has to *rank*, not
//! predict. Per adjustment, the recoverable share of the target
//! section's recorded wait `W` (with `R` total revalidation retries):
//!
//! * **Globalize** — the plan collapses to one lock: no multi-lock
//!   negotiation, no descriptor drift, so most of the blocked time is
//!   recoverable: `3W/4`.
//! * **Coarsen** — the expression locks go, the points-to locks stay:
//!   `W/2`, plus a drift bonus `min(W/4, 100·R)` because every retry
//!   re-ran the acquire protocol the coarse plan does not have.
//! * **RaiseK** — finer expression locks shave residual interference
//!   on an *uncontended* section: `W/8`.
//! * **WakePolicy** — wake candidates only exist for convoy-flagged
//!   sections, where the queue never drains and most recorded wait is
//!   queueing behind an unfortunate wake order: `W/2`.
//!
//! The model ranks candidates *within* one adjustment family reliably
//! (same formula, ordered by the target section's recorded wait) but
//! across families the constant factors are guesses. `prune`
//! therefore carries a **diversity guard**: besides the overall
//! `top_k`, every family's best-estimated candidates (including exact
//! ties — the model cannot distinguish the two wake policies of one
//! section) are always kept, so a family the constants under-rate
//! still gets its strongest member replayed.
//!
//! The estimate is **advisory**: pruning with it never changes a
//! replayed cost, and `prune: None` keeps exact behavior. The
//! `eval-bench` gate asserts the pruned set always contains the
//! replay-selected winner on every bench workload, which is the
//! empirical soundness statement this model is held to.
//!
//! Everything is integer arithmetic on `u64` counters — no floats, no
//! clocks — so identical profiles produce identical scores on any
//! machine, at any parallelism.

use crate::adapt::{rank, Adjustment, Candidate, EvalStatus, PlanCost, Rank};
use crate::replay::{execute, stamp_outcome, Recording, RepairEntry, RunConfig};
use interp::{Machine, Options, RepairSpec};
use lockinfer::library::LibrarySpec;
use lockinfer::{par_map, SummaryStore};
use lockscheme::{ConfigMap, SchemeConfig};
use std::borrow::Cow;
use std::sync::{Arc, Mutex, PoisonError};
use trace::SectionProfile;

/// Knobs of one harness evaluation. [`Default`] is the exact,
/// fully-parallel configuration: every candidate replayed, eval
/// workers one per core, invariants hoisted. The lock inference inside
/// each run is not a knob: it always runs one Phase B worker per core,
/// and its outcome is the same at every worker count.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct EvalOptions {
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
            eval_threads: 0,
            prune: None,
            hoist: true,
        }
    }
}

/// How a harness recording is stamped. Every recording passes
/// [`RunConfig::check`] whatever its stamp.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Stamp {
    /// Full `run.*` metadata: the recording is self-describing and
    /// replayable (baselines, steered wake-policy runs), and a weaken
    /// plan that dropped nothing is refused ([`RunConfig::check_weaken`]).
    Run,
    /// `adapt.*` metadata only: the recording ran under a candidate
    /// [`ConfigMap`], so `replay()` must reject it rather than
    /// silently re-infer under the uniform configuration.
    Adapt,
}

/// What one candidate evaluation produced: the measured cost and the
/// recording it came from, or a zeroed cost, no recording and the
/// reason as an [`EvalStatus::Skipped`].
pub(crate) struct CandidateRun {
    pub cost: PlanCost,
    pub status: EvalStatus,
    pub rec: Option<Recording>,
}

/// The per-evaluation invariants every candidate shares: one compiled
/// program, one points-to result, one concurrent summary store.
pub struct EvalContext {
    program: Arc<lir::Program>,
    pt: Arc<pointsto::PointsTo>,
    store: SummaryStore,
    lib: LibrarySpec,
    hoist: bool,
}

impl EvalContext {
    /// The step both loops start from: compile `cfg`'s program, then
    /// record its baseline under the uniform map.
    ///
    /// # Errors
    ///
    /// Returns a message on compile failure, and (naming `terminal`)
    /// when the baseline trace overflowed: all evidence derives from it.
    pub(crate) fn baseline(
        cfg: &RunConfig,
        hoist: bool,
        terminal: &str,
    ) -> Result<(EvalContext, ConfigMap, Recording), String> {
        let ctx = EvalContext::new(cfg, hoist)?;
        let base_map = ctx.base_map(cfg);
        let baseline = ctx.run_one(cfg, &base_map, Stamp::Run)?;
        if baseline.trace.dropped > 0 {
            return Err(format!(
                "{terminal}: baseline trace dropped {} events — raise trace_capacity",
                baseline.trace.dropped
            ));
        }
        Ok((ctx, base_map, baseline))
    }

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
        })
    }

    /// The uniform configuration map `cfg` prescribes — the baseline
    /// every candidate overrides.
    pub(crate) fn base_map(&self, cfg: &RunConfig) -> ConfigMap {
        ConfigMap::uniform(SchemeConfig::full(cfg.k, self.program.elem_field_opt()))
    }

    /// Executes `cfg` with locks inferred under `map` — the one
    /// recording primitive behind [`crate::replay::record`], baselines,
    /// adapt candidates and repaired re-runs. [`RunConfig::check`] comes
    /// first; [`RunConfig::check_weaken`] weakens the transformed
    /// program, and `stamp` picks only the metadata the trace carries
    /// and whether a weaken plan that dropped nothing is refused
    /// (candidates inherit the baseline's verdict). Before the machine is
    /// dropped, the recording takes its end-of-run gauges and the
    /// sentinel's violation ledger (the evidence `crate::reinfer`
    /// diagnoses).
    ///
    /// # Errors
    ///
    /// Returns a message on compile failure (legacy-emulation mode
    /// recompiles per run) and the `run:` line of a rule `cfg` breaks.
    pub(crate) fn run_one(
        &self,
        cfg: &RunConfig,
        map: &ConfigMap,
        stamp: Stamp,
    ) -> Result<Recording, String> {
        cfg.check(map, self.program.globals.len())?;
        let (program, pt) = if self.hoist {
            (Arc::clone(&self.program), Arc::clone(&self.pt))
        } else {
            let p = lir::compile(&cfg.source).map_err(|e| e.to_string())?;
            let pt = pointsto::PointsTo::analyze(&p);
            (Arc::new(p), Arc::new(pt))
        };
        let store = if self.hoist { Some(&self.store) } else { None };
        // `0`: one Phase B worker per core.
        let analysis =
            lockinfer::analyze_program_with_configs(&program, &pt, map, &self.lib, 0, store);
        let mut transformed = lockinfer::transform(&program, &analysis);
        let weakened = cfg.check_weaken(&mut transformed);
        if stamp == Stamp::Run {
            weakened?;
        }
        // The machine options `cfg` prescribes, tracing always on.
        let opts = Options {
            heap_cells: cfg.heap_cells,
            seed: cfg.seed,
            quantum: cfg.quantum,
            faults: cfg.faults,
            sentinel: cfg.sentinel,
            sched: cfg.sched.clone(),
            stm_abort_budget: cfg.stm_abort_budget,
            trace: Some(trace::TraceConfig {
                capacity: cfg.trace_capacity,
            }),
            repairs: repair_specs(&cfg.repairs, &program, &pt, map, &self.lib, store),
        };
        let m = Machine::new(Arc::new(transformed), pt, cfg.mode, opts);
        let (outcome, mut trace) = execute(&m, cfg);
        let gauges = crate::obs::run_gauges(&m);
        let ledger = m
            .sentinel()
            .map(interp::Sentinel::violations)
            .unwrap_or_default();
        match stamp {
            Stamp::Run => cfg.stamp(&mut trace),
            Stamp::Adapt => {
                trace.meta_set("adapt.name", cfg.name.clone());
                trace.meta_set("adapt.base_k", cfg.k.to_string());
                for (section, c) in map.overrides() {
                    trace.meta_set(&format!("adapt.section.{section}"), c.to_string());
                }
                if let Some(s) = &cfg.sched {
                    trace.meta_set("adapt.wake_policy", s.policy.tag().to_owned());
                }
            }
        }
        stamp_outcome(&outcome, &mut trace);
        Ok(Recording {
            outcome,
            trace,
            gauges,
            ledger,
        })
    }

    /// [`Self::run_one`] for a candidate: profiles the recording into
    /// its cost. A trace that overflowed its capacity is a skip, not a
    /// silently bogus cost.
    pub(crate) fn eval_candidate(
        &self,
        cfg: &RunConfig,
        map: &ConfigMap,
    ) -> Result<CandidateRun, String> {
        let rec = self.run_one(cfg, map, Stamp::Adapt)?;
        if rec.trace.dropped > 0 {
            let reason = format!(
                "candidate trace dropped {} events - raise trace_capacity",
                rec.trace.dropped
            );
            return Ok(CandidateRun {
                cost: PlanCost::default(),
                status: EvalStatus::Skipped { reason },
                rec: None,
            });
        }
        let cost = PlanCost::from_profiles(&trace::profile(&rec.trace), rec.outcome.makespan);
        Ok(CandidateRun {
            cost,
            status: EvalStatus::Replayed,
            rec: Some(rec),
        })
    }

    /// The candidate loop of both terminals: every `(run configuration,
    /// lock map)` job through [`Self::eval_candidate`] on `threads` eval
    /// workers (`0` = one per core), `fold(i, run)` reducing job `i` in
    /// its worker (a recording outlives its run only if `fold` keeps
    /// it), results in job order whatever order the runs finish in.
    ///
    /// # Errors
    ///
    /// The first job, in job order, whose execution failed outright.
    pub(crate) fn eval_candidates<T: Send>(
        &self,
        jobs: &[(Cow<'_, RunConfig>, ConfigMap)],
        threads: usize,
        fold: impl Fn(usize, CandidateRun) -> T + Sync,
    ) -> Result<Vec<T>, String> {
        par_map(jobs.len(), threads, |i| {
            let (cfg, map) = &jobs[i];
            self.eval_candidate(cfg, map).map(|run| fold(i, run))
        })
        .into_iter()
        .collect()
    }

    /// The [`RunConfig`] a candidate runs under: `cfg` itself, or a
    /// copy with the frozen wake-policy configuration when the
    /// candidate steers the scheduler.
    pub(crate) fn candidate_cfg<'c>(
        cfg: &'c RunConfig,
        cand: &Candidate,
        profiles: &[SectionProfile],
    ) -> Cow<'c, RunConfig> {
        match wake_of(cand) {
            None => Cow::Borrowed(cfg),
            Some(kind) => Cow::Owned(RunConfig {
                sched: Some(interp::SchedConfig::from_profiles(kind, profiles)),
                ..cfg.clone()
            }),
        }
    }
}

/// Derives the concrete lock specs each [`RepairEntry`] installs:
/// re-runs the inference with the repaired configuration overriding
/// the entry's section on top of `base` and extracts that section's
/// `acquireAll` plan. Deterministic (the engine's Phase B guarantee),
/// and incremental when `store` memoizes Phase A summaries across
/// candidate configs.
fn repair_specs(
    repairs: &[RepairEntry],
    program: &lir::Program,
    pt: &pointsto::PointsTo,
    base: &ConfigMap,
    lib: &lockinfer::library::LibrarySpec,
    store: Option<&lockinfer::SummaryStore>,
) -> Vec<RepairSpec> {
    repairs
        .iter()
        .map(|&(section, candidate, config)| {
            let mut map = base.clone();
            map.set_override(section, config);
            // `0`: one Phase B worker per core.
            let analysis =
                lockinfer::analyze_program_with_configs(program, pt, &map, lib, 0, store);
            let specs = analysis
                .sections
                .iter()
                .find(|s| s.id.0 == section)
                .map(|s| s.locks.iter().map(|l| l.to_spec()).collect())
                .unwrap_or_default();
            RepairSpec {
                section,
                candidate,
                specs,
            }
        })
        .collect()
}

/// The wake policy a single-override candidate steers, if any.
fn wake_of(c: &Candidate) -> Option<interp::PolicyKind> {
    match c.adjustment {
        Adjustment::WakePolicy(kind) => Some(kind),
        _ => None,
    }
}

/// Recorded wait/revalidation totals of one section, the estimator's
/// entire view of it.
fn section_totals(profiles: &[SectionProfile], section: u32) -> (u64, u64) {
    profiles
        .iter()
        .find(|p| p.section == section)
        .map(|p| (p.wait.sum, p.revalidations.sum))
        .unwrap_or((0, 0))
}

/// Estimated wait ticks `adjustment` recovers on a section that
/// recorded `wait` total wait and `reval` revalidation retries.
fn recoverable(adjustment: Adjustment, wait: u64, reval: u64) -> u64 {
    let r = match adjustment {
        Adjustment::Globalize => wait / 4 * 3,
        Adjustment::Coarsen => wait / 2 + (wait / 4).min(reval.saturating_mul(100)),
        Adjustment::RaiseK(_) => wait / 8,
        Adjustment::WakePolicy(_) => wait / 2,
    };
    r.min(wait)
}

/// Estimated total wait after applying `c`, per the model above: the
/// baseline's total wait minus the target section's recoverable share.
fn estimate(c: &Candidate, profiles: &[SectionProfile], base: PlanCost) -> u64 {
    let (wait, reval) = section_totals(profiles, c.section);
    base.total_wait
        .saturating_sub(recoverable(c.adjustment, wait, reval))
}

/// The candidate indices worth replaying: the `top_k` lowest estimated
/// post-change total waits (ties broken by candidate order), plus the
/// diversity guard — every adjustment family's best-estimated
/// candidates, including exact ties. Returned **in canonical candidate
/// order** so the evaluation merge stays byte-identical at every eval
/// thread count. `top_k >= cands.len()` keeps everything (pruning
/// off).
fn prune(
    cands: &[Candidate],
    profiles: &[SectionProfile],
    base: PlanCost,
    top_k: usize,
) -> Vec<usize> {
    let ests: Vec<u64> = cands.iter().map(|c| estimate(c, profiles, base)).collect();
    let mut ranked: Vec<(u64, usize)> = ests.iter().copied().zip(0..).collect();
    ranked.sort_unstable();
    ranked.truncate(top_k);
    let mut keep: Vec<usize> = ranked.into_iter().map(|(_, i)| i).collect();
    // Diversity guard: the constants comparing families are guesses,
    // so each family's strongest members always get replayed.
    let family = |a: &Adjustment| std::mem::discriminant(a);
    let mut best: Vec<(std::mem::Discriminant<Adjustment>, u64)> = Vec::new();
    for (c, &e) in cands.iter().zip(&ests) {
        let f = family(&c.adjustment);
        match best.iter_mut().find(|(bf, _)| *bf == f) {
            Some((_, be)) => *be = (*be).min(e),
            None => best.push((f, e)),
        }
    }
    for (i, (c, &e)) in cands.iter().zip(&ests).enumerate() {
        let f = family(&c.adjustment);
        if best.iter().any(|&(bf, be)| bf == f && be == e) && !keep.contains(&i) {
            keep.push(i);
        }
    }
    keep.sort_unstable();
    keep
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

/// The best-ranked item offered so far, whatever order the offers
/// arrive in: the candidate loop's one retained recording.
struct Best<T>(Mutex<Option<(Rank, T)>>);

impl<T> Best<T> {
    fn new() -> Best<T> {
        Best(Mutex::new(None))
    }

    /// Keeps `item` when it ranks below everything offered before.
    fn offer(&self, rank: Rank, item: T) {
        let mut slot = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        if slot.as_ref().is_none_or(|(best, _)| rank < *best) {
            *slot = Some((rank, item));
        }
    }

    fn into_inner(self) -> Option<(Rank, T)> {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

/// What [`eval_singles`] measured.
pub(crate) struct Singles {
    /// One `(cost, status)` per candidate, **in candidate order**.
    pub costs: Vec<(PlanCost, EvalStatus)>,
    /// The recording of the candidate [`select`](crate::adapt::select)
    /// picks from `costs`, if any, with its rank.
    pub kept: Option<(Rank, Recording)>,
}

/// Evaluates one set of single-override candidates through the pruned,
/// parallel pipeline, keeping the winner's recording ([`Singles`]).
///
/// Each group's recording ranks at its first member's index, the one
/// selection names: the group's members describe one run, so ties
/// between groups break exactly as [`select`](crate::adapt::select) breaks
/// them over the expanded per-candidate costs.
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
pub(crate) fn eval_singles(scope: &EvalScope<'_>, cands: &[Candidate]) -> Result<Singles, String> {
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
        .map(|c| estimate(c, profiles, base_cost))
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
        Some(top_k) => prune(&reps, profiles, base_cost, top_k),
        None => (0..reps.len()).collect(),
    };
    let jobs: Vec<(Cow<'_, RunConfig>, ConfigMap)> = keep
        .iter()
        .map(|&g| {
            let rep = &reps[g];
            (
                EvalContext::candidate_cfg(cfg, rep, profiles),
                rep.config_map(base_map),
            )
        })
        .collect();
    let best = Best::new();
    let runs = ctx.eval_candidates(&jobs, opts.eval_threads, |j, run| {
        let rank = rank(base_cost, run.cost, groups[keep[j]][0]);
        if let (Some(r), Some(rec)) = (rank, run.rec) {
            best.offer(r, rec);
        }
        (run.cost, run.status)
    })?;
    let mut out: Vec<(PlanCost, EvalStatus)> = ests
        .iter()
        .map(|&est| (PlanCost::default(), EvalStatus::Pruned { est }))
        .collect();
    for (j, shared) in runs.into_iter().enumerate() {
        for &i in &groups[keep[j]] {
            out[i] = shared.clone();
        }
    }
    Ok(Singles {
        costs: out,
        kept: best.into_inner(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapt::{select, Trigger};
    use interp::PolicyKind;
    use proptest::prelude::*;
    use trace::Histogram;

    fn hist(samples: &[u64]) -> Histogram {
        let mut h = Histogram::default();
        for &s in samples {
            h.add(s);
        }
        h
    }

    fn prof(section: u32, wait: &[u64], reval: &[u64]) -> SectionProfile {
        SectionProfile {
            section,
            entries: wait.len() as u64,
            aborts: 0,
            wait: hist(wait),
            hold: hist(&[10; 4][..wait.len().min(4)]),
            revalidations: hist(reval),
        }
    }

    fn cand(section: u32, adjustment: Adjustment) -> Candidate {
        Candidate {
            section,
            config: SchemeConfig::full(3, None),
            adjustment,
            trigger: Trigger::Contention,
        }
    }

    #[test]
    fn globalize_recovers_more_than_raise_k() {
        let profiles = vec![prof(1, &[400, 400], &[0, 0])];
        let base = PlanCost {
            total_wait: 800,
            ..PlanCost::default()
        };
        let g = estimate(&cand(1, Adjustment::Globalize), &profiles, base);
        let r = estimate(&cand(1, Adjustment::RaiseK(6)), &profiles, base);
        assert!(g < r, "globalize {g} must rank ahead of raise-k {r}");
        assert_eq!(g, 800 - 600);
        assert_eq!(r, 800 - 100);
    }

    #[test]
    fn drift_bonus_prefers_coarsening_reval_heavy_sections() {
        let profiles = vec![prof(1, &[100, 100], &[0, 0]), prof(2, &[100, 100], &[3, 4])];
        let base = PlanCost {
            total_wait: 400,
            ..PlanCost::default()
        };
        let calm = estimate(&cand(1, Adjustment::Coarsen), &profiles, base);
        let drifty = estimate(&cand(2, Adjustment::Coarsen), &profiles, base);
        assert!(drifty < calm, "{drifty} !< {calm}");
    }

    #[test]
    fn recoverable_never_exceeds_the_section_wait() {
        // A huge drift bonus cannot fabricate more recovery than the
        // section ever waited.
        let profiles = vec![prof(1, &[8], &[1000])];
        let base = PlanCost {
            total_wait: 1000,
            ..PlanCost::default()
        };
        let e = estimate(&cand(1, Adjustment::Coarsen), &profiles, base);
        assert!(e >= 1000 - 8, "recovered more than the section waited");
    }

    #[test]
    fn unknown_sections_estimate_as_no_change() {
        let base = PlanCost {
            total_wait: 500,
            ..PlanCost::default()
        };
        assert_eq!(estimate(&cand(9, Adjustment::Globalize), &[], base), 500);
    }

    #[test]
    fn prune_keeps_top_k_in_canonical_order() {
        let profiles = vec![
            prof(1, &[10, 10], &[0, 0]),
            prof(2, &[500, 500], &[0, 0]),
            prof(3, &[200, 200], &[0, 0]),
        ];
        let base = PlanCost {
            total_wait: 1420,
            ..PlanCost::default()
        };
        let cands = vec![
            cand(1, Adjustment::RaiseK(6)),
            cand(2, Adjustment::Globalize),
            cand(3, Adjustment::Coarsen),
            cand(2, Adjustment::Coarsen),
        ];
        let keep = prune(&cands, &profiles, base, 2);
        // Section 2's candidates recover the most (top-2 = 1 and 3);
        // the diversity guard keeps the raise-k family's only member
        // too. Candidate 2 — a coarsen beaten by candidate 3 within
        // its own family — is the one pruned. Indices stay sorted.
        assert_eq!(keep, vec![0, 1, 3]);
        // top_k >= len keeps everything.
        assert_eq!(prune(&cands, &profiles, base, 10), vec![0, 1, 2, 3]);
        // The guard keeps exact ties within a family: two wake
        // policies on the same section are indistinguishable to the
        // model, so both survive a top-1 prune.
        let wakes = vec![
            cand(2, Adjustment::WakePolicy(PolicyKind::ShortestExpectedHold)),
            cand(2, Adjustment::WakePolicy(PolicyKind::ReaderBatch)),
            cand(3, Adjustment::WakePolicy(PolicyKind::ShortestExpectedHold)),
        ];
        assert_eq!(prune(&wakes, &profiles, base, 1), vec![0, 1]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Offering the costs one by one, in any order, keeps the
        /// candidate `select` picks from all of them at once. Small
        /// value ranges make ties on wait and makespan common.
        #[test]
        fn the_best_so_far_is_the_selected_candidate(
            costs in prop::collection::vec((0u64..6, 0u64..4), 0..10),
            base_wait in 0u64..7,
            shuffle in any::<u64>(),
        ) {
            let costs: Vec<PlanCost> = costs
                .iter()
                .map(|&(total_wait, makespan)| PlanCost {
                    total_wait,
                    makespan,
                    ..PlanCost::default()
                })
                .collect();
            let baseline = PlanCost {
                total_wait: base_wait,
                ..PlanCost::default()
            };
            // A Fisher-Yates arrival order driven by a 64-bit LCG.
            let mut order: Vec<usize> = (0..costs.len()).collect();
            let mut x = shuffle;
            for i in (1..order.len()).rev() {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                order.swap(i, (x >> 33) as usize % (i + 1));
            }
            let best = Best::new();
            for &i in &order {
                if let Some(r) = rank(baseline, costs[i], i) {
                    best.offer(r, i);
                }
            }
            prop_assert_eq!(
                best.into_inner().map(|(_, i)| i),
                select(baseline, costs.iter().copied().enumerate())
            );
        }
    }
}
