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
//! made fast, in two layers:
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
//!
//! Every candidate is replayed.
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

use crate::adapt::{rank, Adjustment, Candidate, EvalStatus, PlanCost, Rank};
use crate::replay::{execute, stamp_outcome, Recording, RepairEntry, RunConfig};
use interp::{Machine, Options, RepairSpec};
use lockinfer::library::LibrarySpec;
use lockinfer::{par_map, SummaryStore};
use lockscheme::{ConfigMap, SchemeConfig};
use std::borrow::Cow;
use std::sync::{Arc, Mutex, PoisonError};
use trace::SectionProfile;

/// Knobs of one harness evaluation. [`Default`] is the fully-parallel
/// configuration: eval workers one per core, invariants hoisted. The
/// lock inference inside each run is not a knob: it always runs one
/// Phase B worker per core, and its outcome is the same at every worker
/// count.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct EvalOptions {
    /// Concurrent candidate replays (`0` = one per core). The outcome
    /// is identical for every value — results merge in candidate
    /// order.
    pub eval_threads: usize,
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
    /// dropped, the recording takes its end-of-run gauges.
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

/// Evaluates one set of single-override candidates through the
/// parallel pipeline, keeping the winner's recording ([`Singles`]).
///
/// Candidates naming the same *effective run configuration* — the same
/// override set and wake policy, e.g. one wake policy proposed for two
/// different convoy sections (steering is global, so both describe the
/// identical run) — are **deduplicated**: the group's first member
/// replays once and every member carries the shared measured cost as
/// [`EvalStatus::Replayed`]. The group's recording ranks at that first
/// member's index, the one selection names, so ties between groups
/// break exactly as [`select`](crate::adapt::select) breaks them over
/// the expanded per-candidate costs. The legacy-emulation mode
/// (`hoist: false`) skips the dedup and replays each candidate
/// individually; determinism makes the resulting report byte-identical
/// either way.
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
    // Group by effective configuration, preserving first-seen order:
    // `group[i]` is candidate `i`'s group, `firsts[g]` group `g`'s
    // first member. The legacy-emulation mode (`hoist: false`) gives
    // every candidate a group of its own.
    type Key = (Vec<(u32, SchemeConfig)>, Option<interp::PolicyKind>);
    let mut keys: Vec<Key> = Vec::new();
    let mut firsts: Vec<usize> = Vec::new();
    let mut group: Vec<usize> = Vec::with_capacity(cands.len());
    for (i, c) in cands.iter().enumerate() {
        let seen = if opts.hoist {
            let key: Key = (c.config_map(base_map).overrides().to_vec(), wake_of(c));
            let seen = keys.iter().position(|k| *k == key);
            if seen.is_none() {
                keys.push(key);
            }
            seen
        } else {
            None
        };
        group.push(seen.unwrap_or_else(|| {
            firsts.push(i);
            firsts.len() - 1
        }));
    }
    let jobs: Vec<(Cow<'_, RunConfig>, ConfigMap)> = firsts
        .iter()
        .map(|&i| {
            (
                EvalContext::candidate_cfg(cfg, &cands[i], profiles),
                cands[i].config_map(base_map),
            )
        })
        .collect();
    let best = Best::new();
    let runs = ctx.eval_candidates(&jobs, opts.eval_threads, |g, run| {
        if let (Some(r), Some(rec)) = (rank(base_cost, run.cost, firsts[g]), run.rec) {
            best.offer(r, rec);
        }
        (run.cost, run.status)
    })?;
    Ok(Singles {
        costs: group.iter().map(|&g| runs[g].clone()).collect(),
        kept: best.into_inner(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapt::select;
    use proptest::prelude::*;

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
