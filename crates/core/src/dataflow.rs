//! The backward dataflow engine (§4.1/§4.3).
//!
//! For each atomic section the engine runs a worklist algorithm over
//! `(lock, program point)` pairs, exactly as the paper's implementation
//! section describes:
//!
//! * facts are seeded from the `G` sets of every statement in the
//!   section's interprocedural scope;
//! * ordinary statements apply the substitution-based transfer functions
//!   of [`crate::transfer`];
//! * calls are routed through *function summaries*: a lock `l` after
//!   `x = f(..)` is **mapped** into the callee by analyzing `x = ret_f`,
//!   registered as a summary *query* at `f`'s exit, pushed through `f`'s
//!   body, and — once it reaches `f`'s entry — **unmapped** back through
//!   the virtual prologue `p_i = a_i` at every dependent call site. The
//!   `src` bookkeeping of the paper is our query context: each fact in a
//!   callee carries the exit lock it summarizes.
//!
//! Accesses performed *inside* callees (their own `G` sets) are handled
//! by a per-function `Gen` context whose entry locks flow to every
//! in-scope call site, so a section protects everything its callees
//! touch.
//!
//! ## The scalable data plane
//!
//! The engine is built for SPECint-sized inputs:
//!
//! * **Hash-consed locks.** Each engine owns a table of the lock terms
//!   it has met (`LockCache`): a term is stored once, named by a
//!   dense local id in first-seen order, and shadowed by a [`LockRec`]
//!   on which the lattice order `≤` is a handful of integer compares.
//!   There is no table outside an engine: Phase A's is frozen into its
//!   `SummaryCache`, a Phase B engine imports the entries it is
//!   handed (sharing the term, not copying it), and everything is
//!   freed with the analysis or the [`SummaryStore`] holding it.
//! * **Facts-sized state in two flat arrays.** Per `(context, point)`
//!   the state is one small list of local ids in arrival order: the
//!   untagged entries are the lock antichain — at most `WIDTH_LIMIT`
//!   of them — and the tail past a cursor is the frontier not yet
//!   propagated. All of an engine's state is two arrays
//!   (`PointStates`): 8-byte `PointState` records, one contiguous
//!   run per context of its function's points from its first fact on,
//!   and one `u32` pool that holds every list in a block sized to it,
//!   recycled through free lists by size. No state allocates, so
//!   memory is proportional to facts — not to `contexts × points × lock
//!   universe`, nor to an allocation per state — and dropping an engine
//!   frees a few vectors. The worklist holds each *point* at most once,
//!   and a pop propagates the whole frontier of that point. A lock
//!   removed by subsumption is tagged, not dropped, until it has
//!   propagated: like the triple worklist this replaces, a subsumed
//!   fact that was already scheduled still propagates.
//! * **Id-level transfer.** Pushing lock `lid` across instruction
//!   `(func, q)` — and unmapping entry lock `e` at a call site — is a
//!   pure function of those ids, and Phase A asks the same question
//!   from thousands of query contexts of one function. Most answers are
//!   the identity and are read off the instruction
//!   ([`leaves_untouched`]); the rest go once through
//!   `transfer_lock` → `normalize` → intern and are replayed as ids from
//!   a per-engine memo. Flow-insensitive locks are invariant under both
//!   operations and never enter a memo; replaying one through a summary
//!   reuses its id unless the dependent asked for another effect.
//! * **Program tables built when first read.** Predecessors are one
//!   flat table per function ([`lir::cfg::Predecessors`]: one `u32`
//!   list and where each point's slice starts), not a `Vec` per point,
//!   built when the first fact is popped. Mod sets are built when the
//!   first fine lock crosses a call. Either is built by whichever
//!   engine needs it first (Phase A, or any Phase B thread: both are a
//!   pure function of the program), and at k = 0 neither is.
//! * **Shared summaries (Phase A / Phase B).** Function summaries are
//!   computed *once per program*, not once per section: a sequential
//!   pre-pass (Phase A) solves the `Gen` context of every function any
//!   section can reach, plus all summary queries that flow demands,
//!   and freezes them — structurally sorted, by each id's rank in one
//!   structural sort of the lock table — into a read-only
//!   `SummaryCache`. Per-section engines (Phase B) only solve their
//!   own root region, injecting cached summaries at call sites;
//!   queries the pre-pass never saw are solved locally with the same
//!   machinery.
//! * **Summary sets indexed by class.** A `Gen` or `Query` context's
//!   entry locks are an antichain in arrival order (`SummarySet`),
//!   which its dependents replay. Its path-`⊤` members — class locks
//!   `(⊤, P, ε)` and the global lock, at most one per class because
//!   `ro ≤ rw` — are also indexed engine-wide by context and class
//!   (`ClassIndex`: classes numbered densely as the engine meets them,
//!   one row of slots per context in one flat array), so an arriving
//!   class lock is checked against two slots (`P` and `⊤`) instead of
//!   the whole set and, in a set without fine members, replaces at
//!   most the old `(⊤, P, ro)`. At k = 0 every lock is a class lock
//!   and Phase A is nothing but these inserts and the replays they
//!   trigger: on the 71.6-kloc `spec70k-k0` program 227 105 of them
//!   used to scan 38.2 M set entries, then probed a 91 k-key hash map
//!   twice each, and now read two slots; a replay neither clones a
//!   term nor re-hashes one, nor copies the dependents it walks, and
//!   no predecessor table or mod set is built. A set with fine members
//!   keeps the scan.
//! * **Parallel sections.** Because a Phase B engine is a pure,
//!   deterministic function of the program and the frozen cache,
//!   independent sections are solved on a [`std::thread::scope`] pool
//!   and merged by section id — the output is byte-identical to the
//!   sequential order for every thread count.
//!
//! Widening is order-sensitive, so three invariants are part of the
//! engine's contract, and `tests/spec_like_pinned.rs` pins the results
//! they produce where widening fires: local ids are minted in
//! first-seen order (a memo miss interns and adds its results one at a
//! time, because an add can reach a terminal and mint further ids); a
//! pop propagates its frontier in ascending local id; and widening
//! counts the antichain of one `(context, point)`. Tables and memos
//! belong to one engine and die with it, so cold, store-backed and
//! parallel analyses are pure functions of `(program, pt, lib,
//! config)` — [`AnalysisStats`] included.
//!
//! The original per-section engine is kept in [`crate::reference`] as
//! the differential-testing oracle and benchmark baseline; the two
//! agree exactly below the widening bound (`tests/differential.rs`).
//!
//! ## Performance notes (§4.3's observations, made concrete)
//!
//! * Coarse locks and bare variable locks are *flow-insensitive*: they
//!   skip pointwise propagation and jump straight to their context's
//!   terminal.
//! * Calls apply *mod-ref filtering*: a lock whose expression reads
//!   nothing the callee may overwrite bypasses the summary machinery.
//!   The mod sets it reads are computed on its first use.
//! * Summary queries are canonicalized to the `rw` effect (transfer
//!   functions never change an effect), halving the query space.
//! * Per program point, expression-lock variants are *widened*: past a
//!   width bound the lock falls back to [`AbsLock::coarsen`] of itself
//!   (the paper's §3.3 notes widening as the alternative to a bounded
//!   `L`) — a coarser lock under every scheme configuration, never no
//!   lock.

use crate::library::LibrarySpec;
use crate::transfer::{leaves_untouched, TransferCtx, Transferred};
use lir::cfg::{atomic_regions, predecessors, AtomicRegion, Predecessors};
use lir::{Eff, FnId, Instr, PathExpr, PathOp, Program, Rvalue, SectionId, VarId, VarKind};
use lockscheme::abslock::prune_redundant;
use lockscheme::{AbsLock, ConfigMap, LockRec, SchemeConfig};
use pointsto::{PointsTo, PtsClass};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, Mutex, OnceLock};

/// Locks inferred for one atomic section.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SectionResult {
    pub id: SectionId,
    pub func: FnId,
    /// Instruction index of the `EnterAtomic` marker.
    pub enter: u32,
    /// Instruction index of the matching `ExitAtomic` marker.
    pub exit: u32,
    /// The non-redundant lock set `N` at the section entry.
    pub locks: Vec<AbsLock>,
}

/// Counters describing how much work the analysis did. Every field
/// but `threads` is a function of `(program, pt, lib, configs)` and of
/// which Phase A passes `store` already held — their work is counted
/// by the analysis that ran them, their tables by every analysis that
/// used them. Nothing else the process has analysed, and no thread
/// count, changes any of them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AnalysisStats {
    /// Facts taken off worklists (summary pre-pass + all sections).
    pub worklist_pops: u64,
    /// Facts newly inserted into some point's lock set.
    pub facts_inserted: u64,
    /// Largest lock set held at any single `(context, point)`.
    pub peak_point_locks: usize,
    /// Facts that hit the width bound and widened to a coarse lock.
    pub widenings: u64,
    /// Call-site lookups answered by the frozen summary cache.
    pub summary_cache_hits: u64,
    /// Summary queries the pre-pass had not solved (solved locally).
    pub summary_cache_misses: u64,
    /// Functions with a precomputed `Gen` summary.
    pub summary_functions: usize,
    /// Summary queries solved by the pre-pass.
    pub summary_queries: usize,
    /// Analysis contexts interned (`Root` / `Gen` / `Query`), summed
    /// over every engine.
    pub contexts: u64,
    /// `(context, point)` states ever materialised.
    pub state_points: u64,
    /// Transfers and unmappings replayed from an engine's id-level memo
    /// instead of being recomputed on lock terms.
    pub transfer_memo_hits: u64,
    /// Distinct lock terms over the tables of every engine of this
    /// analysis, the frozen Phase A tables it used included.
    pub interner_locks: usize,
    /// Distinct lock paths among those terms.
    pub interner_paths: usize,
    /// Worker threads used for the per-section phase.
    pub threads: usize,
}

impl AnalysisStats {
    fn absorb(&mut self, es: &EngineStats) {
        self.worklist_pops += es.pops;
        self.facts_inserted += es.facts;
        self.peak_point_locks = self.peak_point_locks.max(es.peak);
        self.widenings += es.widenings;
        self.summary_cache_hits += es.cache_hits;
        self.summary_cache_misses += es.cache_misses;
        self.contexts += es.contexts;
        self.state_points += es.state_points;
        self.transfer_memo_hits += es.memo_hits;
    }
}

/// Whole-program analysis result.
#[derive(Clone, Debug)]
pub struct ProgramAnalysis {
    pub sections: Vec<SectionResult>,
    /// The per-section configuration the analysis ran under (a uniform
    /// map when invoked through the single-config entry points).
    pub config: ConfigMap,
    pub stats: AnalysisStats,
}

/// Runs the lock inference for every atomic section of `program`.
///
/// # Examples
///
/// ```
/// use lockscheme::SchemeConfig;
/// let p = lir::compile("global g; fn main() { atomic { g = null; } }").unwrap();
/// let pt = pointsto::PointsTo::analyze(&p);
/// let result = lockinfer::analyze_program(&p, &pt, SchemeConfig::full(3, p.elem_field_opt()));
/// assert_eq!(result.sections.len(), 1);
/// assert!(!result.sections[0].locks.is_empty());
/// ```
pub fn analyze_program(program: &Program, pt: &PointsTo, config: SchemeConfig) -> ProgramAnalysis {
    analyze_program_with_opts(program, pt, config, &LibrarySpec::new(), 0)
}

/// Full-control single-config entry point: functions with entries in
/// `lib` are treated as pre-compiled — their bodies are not analyzed,
/// their specifications stand in (§4.3) — and `threads` is the worker
/// count for the per-section phase (`0` = one per available core). The
/// result is identical for every thread count — sections are pure
/// functions of the program and the frozen summary cache, and the
/// merge is ordered by section id.
pub fn analyze_program_with_opts(
    program: &Program,
    pt: &PointsTo,
    config: SchemeConfig,
    lib: &LibrarySpec,
    threads: usize,
) -> ProgramAnalysis {
    analyze_program_with_configs(program, pt, &ConfigMap::uniform(config), lib, threads, None)
}

/// Memoizes frozen Phase A summary caches by scheme configuration, so
/// a candidate loop re-inferring the *same program* under many
/// [`ConfigMap`]s pays for each distinct configuration once. Summaries
/// depend only on `(program, pt, lib, config)` — a store must never be
/// reused across different programs.
///
/// The store is **concurrent**: lookups and inserts go through `&self`
/// behind a mutex-guarded slot table, so a parallel candidate-
/// evaluation harness can share one store across every eval thread.
/// Each distinct configuration gets a dedicated once-slot — the first
/// thread to claim it computes the summaries while later arrivals
/// block on that slot (not on the whole store) and then reuse the
/// frozen cache, keeping the computation once-per-config even under
/// contention. Summaries are a pure function of
/// `(program, pt, lib, config)`, so which thread wins the claim can
/// never change any analysis output.
#[derive(Default)]
pub struct SummaryStore {
    slots: Mutex<Vec<(SchemeConfig, Arc<SummarySlot>)>>,
}

#[derive(Default)]
struct SummarySlot {
    cache: Mutex<Option<Arc<SummaryCache>>>,
}

impl SummaryStore {
    /// An empty store.
    pub fn new() -> SummaryStore {
        SummaryStore::default()
    }

    /// Distinct configurations whose summary slots have been claimed
    /// (computed or in flight).
    pub fn len(&self) -> usize {
        self.slots.lock().unwrap().len()
    }

    /// True when no summary pass has run yet.
    pub fn is_empty(&self) -> bool {
        self.slots.lock().unwrap().is_empty()
    }

    fn slot(&self, cfg: SchemeConfig) -> Arc<SummarySlot> {
        let mut slots = self.slots.lock().unwrap();
        match slots.iter().find(|(c, _)| *c == cfg) {
            Some((_, s)) => Arc::clone(s),
            None => {
                let s = Arc::new(SummarySlot::default());
                slots.push((cfg, Arc::clone(&s)));
                s
            }
        }
    }

    /// The frozen cache for `cfg`, computing it via `compute` exactly
    /// once per distinct configuration (concurrent callers for the
    /// same configuration serialize on its slot and share the result).
    fn get_or_compute(
        &self,
        cfg: SchemeConfig,
        compute: impl FnOnce() -> Arc<SummaryCache>,
    ) -> (Arc<SummaryCache>, bool) {
        let slot = self.slot(cfg);
        let mut guard = slot.cache.lock().unwrap();
        match guard.as_ref() {
            Some(cache) => (Arc::clone(cache), true),
            None => {
                let cache = compute();
                *guard = Some(Arc::clone(&cache));
                (cache, false)
            }
        }
    }
}

/// Per-section-config entry point. Every section is solved under
/// `configs.for_section(id)`; Phase A runs once per *distinct*
/// configuration in use (over the union of all sections' callee
/// scopes, so the frozen cache is valid for any section) and is shared
/// by every section — and, through `store`, every later candidate map
/// — with that configuration.
pub fn analyze_program_with_configs(
    program: &Program,
    pt: &PointsTo,
    configs: &ConfigMap,
    lib: &LibrarySpec,
    threads: usize,
    store: Option<&SummaryStore>,
) -> ProgramAnalysis {
    // Only a fine lock crossing a call reads the mod sets, and only a
    // popped fact the predecessor tables; at k = 0 there is neither,
    // and neither is built.
    let modsets = OnceLock::new();
    let preds = OnceLock::new();
    let mut secs: Vec<(FnId, AtomicRegion)> = Vec::new();
    for func in &program.functions {
        for region in atomic_regions(&func.body) {
            secs.push((func.id, region));
        }
    }
    let mut stats = AnalysisStats::default();
    let base_env = EngineEnv {
        program,
        pt,
        config: configs.default,
        lib,
        modsets: &modsets,
        preds: &preds,
    };
    // Phase A: one sequential pass per distinct section configuration
    // over the union of all sections' callee scopes computes every Gen
    // summary and every query the gen flow demands, then freezes them.
    let mut gen_fns: Vec<FnId> = Vec::new();
    let mut seen: HashSet<FnId> = HashSet::new();
    for (f, region) in &secs {
        for g in section_scope(program, lib, *f, region).into_iter().skip(1) {
            if seen.insert(g) {
                gen_fns.push(g);
            }
        }
    }
    let sec_cfgs: Vec<SchemeConfig> = secs
        .iter()
        .map(|&(_, region)| configs.for_section(region.id.0))
        .collect();
    let mut distinct: Vec<SchemeConfig> = Vec::new();
    let cfg_idx: Vec<usize> = sec_cfgs
        .iter()
        .map(|c| match distinct.iter().position(|d| d == c) {
            Some(i) => i,
            None => {
                distinct.push(*c);
                distinct.len() - 1
            }
        })
        .collect();
    let caches: Vec<Arc<SummaryCache>> = distinct
        .iter()
        .map(|&cfg| {
            let mut compute = || {
                let mut pre = Engine::new(
                    EngineEnv {
                        config: cfg,
                        ..base_env
                    },
                    None,
                    None,
                );
                pre.solve_summaries(&gen_fns);
                let (cache, pre_stats) = pre.freeze(&gen_fns);
                stats.absorb(&pre_stats);
                Arc::new(cache)
            };
            let cache = match store {
                Some(st) => st.get_or_compute(cfg, compute).0,
                None => compute(),
            };
            stats.summary_functions += cache.gen.len();
            stats.summary_queries += cache.query.len();
            cache
        })
        .collect();

    // Phase B: solve each section's root region against its config's
    // frozen cache, in parallel, and merge deterministically.
    let n_threads = crate::par::worker_count(threads, secs.len());
    let solved = crate::par_map(secs.len(), n_threads, |i| {
        let (f, region) = secs[i];
        let env = EngineEnv {
            config: sec_cfgs[i],
            ..base_env
        };
        solve_one_section(env, &caches[cfg_idx[i]], f, region)
    });
    let tables = caches
        .iter()
        .map(|c| &c.locks.arcs)
        .chain(solved.iter().map(|(_, _, terms)| terms));
    (stats.interner_locks, stats.interner_paths) = count_distinct(tables.flatten());
    let mut sections = Vec::with_capacity(solved.len());
    for (sr, es, _) in solved {
        stats.absorb(&es);
        sections.push(sr);
    }
    sections.sort_by_key(|s| s.id);
    stats.threads = n_threads;
    ProgramAnalysis {
        sections,
        config: configs.clone(),
        stats,
    }
}

/// Solves one section; also hands back the terms its engine met, for
/// [`AnalysisStats::interner_locks`].
fn solve_one_section(
    env: EngineEnv<'_>,
    cache: &SummaryCache,
    func: FnId,
    region: AtomicRegion,
) -> (SectionResult, EngineStats, Vec<Arc<AbsLock>>) {
    let (locks, es, terms) = Engine::new(env, Some((func, region)), Some(cache)).solve_section();
    (
        SectionResult {
            id: region.id,
            func,
            enter: region.enter,
            exit: region.exit,
            locks,
        },
        es,
        terms,
    )
}

/// Distinct terms, and distinct paths among them.
fn count_distinct<'a>(terms: impl Iterator<Item = &'a Arc<AbsLock>>) -> (usize, usize) {
    let mut locks: IdSet<&AbsLock> = IdSet::default();
    let mut paths: IdSet<&PathExpr> = IdSet::default();
    for l in terms {
        if locks.insert(l) {
            paths.extend(&l.path);
        }
    }
    (locks.len(), paths.len())
}

/// Transitive side-effect summary of a function: the points-to classes
/// of cells it (or anything it calls) may overwrite.
#[derive(Clone, Debug, Default)]
pub(crate) struct ModSet {
    /// Sorted and deduplicated.
    classes: Vec<PtsClass>,
}

impl ModSet {
    fn may_overwrite(&self, class: PtsClass) -> bool {
        self.classes.binary_search(&class).is_ok()
    }
}

pub(crate) fn compute_modsets(program: &Program, pt: &PointsTo, lib: &LibrarySpec) -> Vec<ModSet> {
    let n = program.functions.len();
    let mut sets: Vec<ModSet> = vec![ModSet::default(); n];
    let mut calls: Vec<Vec<FnId>> = vec![Vec::new(); n];
    for func in &program.functions {
        let i = func.id.0 as usize;
        if let Some(summary) = lib.get(func.id) {
            sets[i].classes.extend(summary.modifies.iter().copied());
            continue;
        }
        for ins in &func.body {
            match ins {
                Instr::Store(x, _) => {
                    let path = lir::PathExpr {
                        base: *x,
                        ops: vec![PathOp::Deref],
                    };
                    if let Some(c) = pt.class_of_path(&path) {
                        sets[i].classes.push(c);
                    }
                }
                Instr::Assign(v, rv) => {
                    if !program.var(*v).is_thread_local() {
                        sets[i].classes.push(pt.class_of_var(*v));
                    }
                    if let Rvalue::Call(g, _) = rv {
                        calls[i].push(*g);
                    }
                }
                _ => {}
            }
        }
    }
    for s in &mut sets {
        s.classes.sort_unstable();
        s.classes.dedup();
    }
    // Propagate over the call graph to a fixpoint. Self-calls are
    // skipped — a self-union never adds anything.
    let mut changed = true;
    while changed {
        changed = false;
        for i in 0..n {
            for g in &calls[i] {
                let g = g.0 as usize;
                if g == i {
                    continue;
                }
                let (callee, cur) = if g < i {
                    let (lo, hi) = sets.split_at_mut(i);
                    (&lo[g], &mut hi[0])
                } else {
                    let (lo, hi) = sets.split_at_mut(g);
                    (&hi[0], &mut lo[i])
                };
                if let Some(union) = union_if_larger(&cur.classes, &callee.classes) {
                    cur.classes = union;
                    changed = true;
                }
            }
        }
    }
    sets
}

/// `a ∪ b` of two sorted, deduplicated vectors, or `None` when `b ⊆ a`.
fn union_if_larger(a: &[PtsClass], b: &[PtsClass]) -> Option<Vec<PtsClass>> {
    let mut j = 0;
    let subset = b.iter().all(|x| {
        while j < a.len() && a[j] < *x {
            j += 1;
        }
        j < a.len() && a[j] == *x
    });
    if subset {
        return None;
    }
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        out.push(x.min(y));
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    Some(out)
}

/// Whether a lock expression must be pushed through the callee's
/// summary: yes when it is rooted at (or indexed by) a callee
/// variable, or when a dereference step reads a cell the callee may
/// transitively overwrite (mod-ref filtering).
pub(crate) fn must_route(
    program: &Program,
    pt: &PointsTo,
    modsets: &[ModSet],
    callee: FnId,
    path: &lir::PathExpr,
) -> bool {
    let owned = |v: VarId| {
        let info = program.var(v);
        info.owner == Some(callee) && info.kind != VarKind::Global
    };
    if owned(path.base) {
        return true;
    }
    let ms = &modsets[callee.0 as usize];
    // Walk the class of each prefix; a Deref reads the cell of the
    // class accumulated so far.
    let mut class = Some(pt.class_of_var(path.base));
    for op in &path.ops {
        match op {
            PathOp::Deref => {
                let Some(c) = class else { return false };
                if ms.may_overwrite(c) {
                    return true;
                }
                class = pt.deref(c);
            }
            PathOp::Field(_) => {}
            PathOp::Index(z) => {
                if owned(*z) {
                    return true;
                }
                // A global/heapified index variable is read through
                // its cell, which the callee may overwrite.
                let info = program.var(*z);
                if !info.is_thread_local() && ms.may_overwrite(pt.class_of_var(*z)) {
                    return true;
                }
            }
        }
    }
    false
}

/// Functions whose bodies take part in a section's analysis: everything
/// transitively callable from the region, stopping at opaque library
/// functions. `out[0]` is the section's own function.
fn section_scope(
    program: &Program,
    lib: &LibrarySpec,
    root_fn: FnId,
    region: &AtomicRegion,
) -> Vec<FnId> {
    let mut seen = vec![false; program.functions.len()];
    let mut stack = Vec::new();
    let root_body = &program.func(root_fn).body;
    let visit = |f: FnId, seen: &mut Vec<bool>, stack: &mut Vec<FnId>| {
        if !seen[f.0 as usize] && !lib.is_external(f) {
            seen[f.0 as usize] = true;
            stack.push(f);
        }
    };
    for ins in &root_body[region.enter as usize..=region.exit as usize] {
        if let Instr::Assign(_, Rvalue::Call(f, _)) = ins {
            visit(*f, &mut seen, &mut stack);
        }
    }
    let mut out = vec![root_fn];
    while let Some(f) = stack.pop() {
        out.push(f);
        for ins in &program.func(f).body {
            if let Instr::Assign(_, Rvalue::Call(g, _)) = ins {
                visit(*g, &mut seen, &mut stack);
            }
        }
    }
    out
}

/// Maximum number of expression-lock variants tracked per program point
/// before widening ([`AbsLock::coarsen`]).
pub(crate) const WIDTH_LIMIT: usize = 24;

/// The frozen output of the Phase A summary pre-pass: its lock table,
/// and the summaries in that table's ids. Entry vectors are sorted
/// structurally, not by id, so that injection order — and hence
/// widening behavior downstream — is a property of the summaries
/// rather than of the order Phase A happened to meet their locks in.
struct SummaryCache {
    /// Every term Phase A met; `gen` and `query` speak its ids.
    locks: LockCache,
    /// Own-access (`Gen`) entry locks per function; present (possibly
    /// empty) for every function in any section's callee scope.
    gen: HashMap<FnId, Vec<u32>>,
    /// Entry locks per solved summary query, keyed by the rw-canonical
    /// exit lock; present (possibly empty) for every query Phase A
    /// started.
    query: HashMap<(FnId, u32), Vec<u32>>,
}

/// Read-only inputs shared by every engine of one analysis.
#[derive(Clone, Copy)]
struct EngineEnv<'a> {
    program: &'a Program,
    pt: &'a PointsTo,
    config: SchemeConfig,
    lib: &'a LibrarySpec,
    /// Built by the first engine that needs them: a pure function of
    /// the program, so which engine that is changes no output.
    modsets: &'a OnceLock<Vec<ModSet>>,
    /// Predecessor tables, indexed by function id; built like
    /// `modsets`, by the first engine to pop a fact.
    preds: &'a OnceLock<Vec<Predecessors>>,
}

/// Per-engine work counters; merged into [`AnalysisStats`].
#[derive(Clone, Copy, Debug, Default)]
struct EngineStats {
    pops: u64,
    facts: u64,
    peak: usize,
    widenings: u64,
    cache_hits: u64,
    cache_misses: u64,
    contexts: u64,
    state_points: u64,
    memo_hits: u64,
}

/// Multiplicative hasher for the engine-local maps. Their keys are ids
/// and lock terms minted by this process, hashed millions of times per
/// analysis; SipHash's protection against crafted keys buys nothing
/// here.
#[derive(Clone, Copy, Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            let v = u64::from_le_bytes(word);
            self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
        }
    }
}

type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;
type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// One engine's lock table: the only place its terms live.
///
/// Ids are dense and minted in first-seen order, so every ordering
/// decision the (sequential) engine makes on them is reproducible.
/// `recs`/`arcs` give O(1) record and term access; the map key and the
/// vector entry of a term are one allocation.
#[derive(Default)]
struct LockCache {
    by_term: IdMap<Arc<AbsLock>, u32>,
    /// Local id of each entry imported from the frozen Phase A table.
    by_cache: IdMap<u32, u32>,
    /// Names paths for [`LockRec`]: equal paths, equal ids.
    path_ids: IdMap<PathExpr, u32>,
    recs: Vec<LockRec>,
    arcs: Vec<Arc<AbsLock>>,
    /// [`AbsLock::is_flow_insensitive`] per id: such locks never enter
    /// a point's state.
    flow_insensitive: Vec<bool>,
}

impl LockCache {
    fn intern(&mut self, lock: &AbsLock) -> u32 {
        match self.by_term.get(lock) {
            Some(&i) => i,
            None => self.add(Arc::new(lock.clone())),
        }
    }

    /// Local id for entry `cid` of the frozen table `cache`.
    fn import(&mut self, cache: &LockCache, cid: u32) -> u32 {
        if let Some(&i) = self.by_cache.get(&cid) {
            return i;
        }
        let arc = &cache.arcs[cid as usize];
        let i = match self.by_term.get(arc) {
            Some(&i) => i,
            None => self.add(Arc::clone(arc)),
        };
        self.by_cache.insert(cid, i);
        i
    }

    fn add(&mut self, arc: Arc<AbsLock>) -> u32 {
        let i = self.arcs.len() as u32;
        assert!(i < DEAD, "local lock ids must leave the DEAD bit free");
        let path_ids = &mut self.path_ids;
        let rec = LockRec::new(&arc, |p| match path_ids.get(p) {
            Some(&pid) => pid,
            None => {
                let pid = path_ids.len() as u32;
                path_ids.insert(p.clone(), pid);
                pid
            }
        });
        self.recs.push(rec);
        self.flow_insensitive.push(arc.is_flow_insensitive());
        self.by_term.insert(Arc::clone(&arc), i);
        self.arcs.push(arc);
        i
    }
}

/// Analysis context: which instance of the dataflow a fact belongs to.
/// Lock ids in `Query` are engine-local.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Ctx {
    /// The atomic region itself, in the section's function.
    Root,
    /// The query-independent pass over a callee collecting its own
    /// accesses.
    Gen(FnId),
    /// A summary computation: push this exit lock (always `rw`-
    /// canonical) through the callee.
    Query(FnId, u32),
}

/// A call site awaiting summary results.
type Site = (u32, u32);

/// Tag on a fact-list entry that was subsumed by a later arrival.
const DEAD: u32 = 1 << 31;

/// "No states yet" in [`Engine::ctx_states`].
const NO_STATES: u32 = u32::MAX;

/// Dataflow state of one `(context, point)`: every local lock id that
/// was inserted here, in arrival order, as the first `len` slots of a
/// [`block_size`]`(len)`-slot block at offset `at` of its engine's fact
/// pool ([`PointStates`]). The entries without the `DEAD` tag are the
/// current antichain; those from `drained` on are the frontier not yet
/// propagated. An antichain member is only ever removed by a larger
/// arrival, which keeps covering it, so no id is inserted twice and the
/// frontier needs no dedup. Dead entries are dropped once propagated;
/// no list on the pinned SPEC-like programs, `syn-gzip` included, ever
/// holds more than 28. An 8-byte record that owns no allocation;
/// `len == 0` until the point's first fact, and never again after it
/// (the latest arrival is live).
#[derive(Clone, Copy, Default)]
struct PointState {
    at: u32,
    len: u16,
    drained: u16,
}

const _: () = assert!(std::mem::size_of::<PointState>() == 8);

/// Slots of the pool block that holds a list of `len` entries: the
/// least of 1, 2, 3, 4, 6, 8, 12, 16, … — powers of two and their
/// halfway points — that is at least `len` (none for an empty list).
/// Final lists are mostly short: on Table 1's `syn-gzip` at k = 9
/// these sizes hold 15.7 M entries in 16.8 M slots, where powers of two
/// from 4 took 24.1 M.
fn block_size(len: u32) -> u32 {
    if len <= 2 {
        return len;
    }
    let p = len.next_power_of_two();
    if p / 4 * 3 >= len {
        p / 4 * 3
    } else {
        p
    }
}

/// Free-list index of a block of `size` slots (a [`block_size`]).
fn size_class(size: u32) -> usize {
    (2 * size.ilog2() + u32::from(!size.is_power_of_two())) as usize
}

/// What [`PointStates::add`] did with an arriving lock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Arrival {
    /// A live entry covers it; nothing changed.
    Covered,
    /// The antichain is at [`WIDTH_LIMIT`]; nothing changed, and the
    /// caller widens the lock.
    Widened,
    /// Appended, with the live entries below it tagged `DEAD`. `live`
    /// is the antichain's new size; `first` says the frontier was empty
    /// before, so the point must be scheduled.
    Inserted { live: usize, first: bool },
}

/// All point states of one engine, and the one pool their fact lists
/// live in. A context's states are one contiguous run of its
/// function's points ([`Engine::ctx_states`]); a fact list is a block of
/// the pool sized by [`block_size`]. A full block is copied into one of
/// the next size — taken from the free list of that size, or from the
/// end of the pool — and goes onto the free list of its own size; a
/// drain that shortens a list gives back the sizes it no longer needs.
/// Nothing is allocated per state, and dropping an engine frees a
/// handful of vectors.
#[derive(Default)]
struct PointStates {
    states: Vec<PointState>,
    pool: Vec<u32>,
    /// Offsets of free blocks, by [`size_class`].
    free: Vec<Vec<u32>>,
}

impl PointStates {
    /// Appends `n` states without facts; returns the first one's index.
    fn reserve(&mut self, n: usize) -> u32 {
        let base = self.states.len();
        assert!(
            u32::try_from(base + n).is_ok(),
            "point states fit u32 indices"
        );
        self.states.resize(base + n, PointState::default());
        base as u32
    }

    /// Whether state `s` has received a fact.
    fn has_facts(&self, s: u32) -> bool {
        self.states[s as usize].len != 0
    }

    /// The fact list of state `s`, `DEAD` tags included.
    fn facts(&self, s: u32) -> &[u32] {
        let st = self.states[s as usize];
        &self.pool[st.at as usize..][..st.len as usize]
    }

    /// Subsumption insert of lock `id` into state `s`, in one scan: it
    /// returns as soon as a live entry covers the arrival and otherwise
    /// marks the live entries below it. Those are tagged only once the
    /// arrival is known to be neither covered nor widened. In an
    /// antichain no entry can both cover the arrival and lie below it
    /// (ids are unique), so this is the cover scan followed by the
    /// tagging scan, entry for entry.
    fn add(&mut self, recs: &[LockRec], s: u32, id: u32) -> Arrival {
        let st = self.states[s as usize];
        let at = st.at as usize;
        let len = st.len as usize;
        let rec = recs[id as usize];
        let mut live = 0;
        // Live entries below the arrival: a mask over the first 64
        // slots, and whether any lies past them.
        let mut below = 0u64;
        let mut below_past = false;
        for (i, &e) in self.pool[at..at + len].iter().enumerate() {
            if e & DEAD != 0 {
                continue;
            }
            let r = recs[e as usize];
            if rec.leq(r) {
                return Arrival::Covered;
            }
            live += 1;
            if r.leq(rec) {
                match 1u64.checked_shl(i as u32) {
                    Some(bit) => below |= bit,
                    None => below_past = true,
                }
            }
        }
        // Widening: past the width bound the caller falls back to the
        // lock's own class.
        if live >= WIDTH_LIMIT {
            return Arrival::Widened;
        }
        // Subsumed locks leave the antichain but keep their place in
        // the frontier: if they were scheduled, they still propagate
        // (the triple worklist of the reference engine behaves the same
        // way).
        live -= below.count_ones() as usize;
        while below != 0 {
            self.pool[at + below.trailing_zeros() as usize] |= DEAD;
            below &= below - 1;
        }
        if below_past {
            for e in &mut self.pool[at + 64..at + len] {
                if *e & DEAD == 0 && recs[*e as usize].leq(rec) {
                    *e |= DEAD;
                    live -= 1;
                }
            }
        }
        debug_assert!(
            self.facts(s).iter().all(|&e| e & !DEAD != id),
            "a lock is inserted at most once per (context, point)"
        );
        self.push(s, id);
        Arrival::Inserted {
            live: live + 1,
            first: st.drained == st.len,
        }
    }

    /// Appends `id` to state `s`'s list, moving the list to a block of
    /// the next size when its block is full.
    fn push(&mut self, s: u32, id: u32) {
        let mut st = self.states[s as usize];
        let len = u32::from(st.len);
        let size = block_size(len);
        if len == size {
            let at = self.take_block(block_size(len + 1));
            let old = st.at as usize;
            self.pool.copy_within(old..old + len as usize, at as usize);
            if size != 0 {
                self.give_block(st.at, size);
            }
            st.at = at;
        }
        self.pool[(st.at + len) as usize] = id;
        st.len = u16::try_from(len + 1).expect("a fact list fits u16 slots");
        self.states[s as usize] = st;
    }

    /// A free block of `size` slots: a recycled one, or a new one at
    /// the end of the pool.
    fn take_block(&mut self, size: u32) -> u32 {
        if let Some(at) = self.free.get_mut(size_class(size)).and_then(Vec::pop) {
            return at;
        }
        let at = self.pool.len();
        assert!(
            u32::try_from(at + size as usize).is_ok(),
            "the fact pool fits u32 offsets"
        );
        self.pool.resize(at + size as usize, 0);
        at as u32
    }

    /// Puts the `size`-slot block at `at` on its free list.
    fn give_block(&mut self, at: u32, size: u32) {
        let c = size_class(size);
        if self.free.len() <= c {
            self.free.resize_with(c + 1, Vec::new);
        }
        self.free[c].push(at);
    }

    /// Moves state `s`'s frontier into `ids`, in ascending id, and
    /// drops its dead entries, compacting the list in place.
    fn drain(&mut self, s: u32, ids: &mut Vec<u32>) {
        let st = &mut self.states[s as usize];
        let list = &mut self.pool[st.at as usize..][..st.len as usize];
        ids.clear();
        ids.extend(list[st.drained as usize..].iter().map(|e| e & !DEAD));
        ids.sort_unstable();
        let mut n = 0;
        for i in 0..list.len() {
            if list[i] & DEAD == 0 {
                list[n] = list[i];
                n += 1;
            }
        }
        debug_assert!(n > 0 || list.is_empty(), "the latest arrival is live");
        let (at, size) = (st.at, block_size(u32::from(st.len)));
        st.len = n as u16;
        st.drained = st.len;
        // Give back the tail the shorter list no longer needs, as the
        // differences between consecutive block sizes (all sizes too).
        let mut kept = block_size(n as u32);
        while kept < size {
            let next = block_size(kept + 1);
            self.give_block(at + kept, next - kept);
            kept = next;
        }
    }
}

/// Where a memoised result lives in [`Engine::memo_ids`].
type MemoRange = (u32, u32);

/// One worklist solver. With `root == None` it is the Phase A summary
/// pre-pass (Gen + Query contexts only); with a root region and a
/// frozen cache it solves a single section (Phase B).
struct Engine<'a> {
    program: &'a Program,
    pt: &'a PointsTo,
    config: SchemeConfig,
    tctx: TransferCtx<'a>,
    lib: &'a LibrarySpec,
    modsets: &'a OnceLock<Vec<ModSet>>,
    preds: &'a OnceLock<Vec<Predecessors>>,
    cache: Option<&'a SummaryCache>,
    root: Option<(FnId, AtomicRegion)>,
    locks: LockCache,
    ctxdb: Vec<Ctx>,
    ctx_ids: IdMap<Ctx, u32>,
    /// Per context, the index in `points` of the state of its
    /// function's point 0 (`NO_STATES` until a fact arrives): on its
    /// first fact a context gets one state per point, contiguous and
    /// indexed by point.
    ctx_states: Vec<u32>,
    /// Per context, the entry locks a `Gen` or `Query` context has
    /// found so far.
    summaries: Vec<SummarySet>,
    /// The path-`⊤` member of every summary set, by context and class:
    /// one engine-wide flat index, so a set without such members
    /// allocates nothing for them.
    pathless: ClassIndex,
    points: PointStates,
    queue: Vec<(u32, u32)>,
    /// Results of pushing lock `lid` backward across instruction
    /// `(func, q)`, as local ids in `memo_ids`. A pure function of the
    /// key, so every context of `func` replays it. Call instructions
    /// and flow-insensitive locks never get an entry.
    transfer_memo: IdMap<(FnId, u32, u32), MemoRange>,
    /// Results of unmapping entry lock `e` (effect rewritten to `eff`)
    /// at call site `(func, call_idx)`; fine entry locks only.
    unmap_memo: IdMap<(FnId, u32, u32, Option<Eff>), MemoRange>,
    memo_ids: Vec<u32>,
    gen_dependents: IdMap<FnId, Vec<Site>>,
    query_dependents: IdMap<(FnId, u32), Vec<(Site, Eff)>>,
    result: Vec<u32>,
    stats: EngineStats,
}

impl<'a> Engine<'a> {
    fn new(
        env: EngineEnv<'a>,
        root: Option<(FnId, AtomicRegion)>,
        cache: Option<&'a SummaryCache>,
    ) -> Self {
        let tctx = TransferCtx {
            program: env.program,
            pt: env.pt,
            elem: env.config.elem_field,
        };
        Engine {
            program: env.program,
            pt: env.pt,
            config: env.config,
            tctx,
            lib: env.lib,
            modsets: env.modsets,
            preds: env.preds,
            cache,
            root,
            locks: LockCache::default(),
            ctxdb: Vec::new(),
            ctx_ids: IdMap::default(),
            ctx_states: Vec::new(),
            summaries: Vec::new(),
            pathless: ClassIndex::default(),
            points: PointStates::default(),
            queue: Vec::new(),
            transfer_memo: IdMap::default(),
            unmap_memo: IdMap::default(),
            memo_ids: Vec::new(),
            gen_dependents: IdMap::default(),
            query_dependents: IdMap::default(),
            result: Vec::new(),
            stats: EngineStats::default(),
        }
    }

    /// Phase A: solve the `Gen` context of every listed function (and
    /// every query their flow demands) to a fixpoint.
    fn solve_summaries(&mut self, gen_fns: &[FnId]) {
        let program = self.program;
        for &f in gen_fns {
            let ctx = self.intern_ctx(Ctx::Gen(f));
            let body = &program.func(f).body;
            for (idx, ins) in body.iter().enumerate() {
                self.seed_instr(ctx, idx as u32, ins);
            }
        }
        self.drain();
    }

    /// Publishes Phase A's fixpoint as a frozen cache. Every gen-seeded
    /// function and every *started* query gets an entry, so Phase B can
    /// distinguish "solved, empty" from "never solved".
    fn freeze(self, gen_fns: &[FnId]) -> (SummaryCache, EngineStats) {
        let order = StructuralOrder::of(&self.locks.arcs);
        let sorted = |ctx: Ctx| {
            let mut ids = self.summary_ids(ctx);
            order.sort(&mut ids);
            ids
        };
        let gen = gen_fns.iter().map(|&f| (f, sorted(Ctx::Gen(f)))).collect();
        let query = self
            .ctxdb
            .iter()
            .filter_map(|&ctx| match ctx {
                Ctx::Query(f, q) => Some(((f, q), sorted(ctx))),
                _ => None,
            })
            .collect();
        let cache = SummaryCache {
            locks: self.locks,
            gen,
            query,
        };
        (cache, self.stats)
    }

    /// Phase B: seed the root region, run to fixpoint, prune.
    fn solve_section(mut self) -> (Vec<AbsLock>, EngineStats, Vec<Arc<AbsLock>>) {
        let (root_fn, region) = self.root.expect("solve_section requires a root region");
        let root_ctx = self.intern_ctx(Ctx::Root);
        let program = self.program;
        let body = &program.func(root_fn).body;
        for idx in (region.enter + 1)..region.exit {
            self.seed_instr(root_ctx, idx, &body[idx as usize]);
        }
        self.drain();
        let mut result: Vec<AbsLock> = self
            .result
            .iter()
            .map(|&l| (*self.locks.arcs[l as usize]).clone())
            .collect();
        prune_redundant(&mut result);
        (result, self.stats, self.locks.arcs)
    }

    fn intern_ctx(&mut self, ctx: Ctx) -> u32 {
        if let Some(&id) = self.ctx_ids.get(&ctx) {
            return id;
        }
        let id = self.ctxdb.len() as u32;
        self.ctxdb.push(ctx);
        self.ctx_ids.insert(ctx, id);
        self.ctx_states.push(NO_STATES);
        self.summaries.push(SummarySet::default());
        self.stats.contexts += 1;
        id
    }

    /// The entry locks `ctx` has found so far, in arrival order (none
    /// before it is interned).
    fn summary_ids(&self, ctx: Ctx) -> Vec<u32> {
        self.ctx_ids
            .get(&ctx)
            .map(|&c| self.summaries[c as usize].ids.clone())
            .unwrap_or_default()
    }

    fn ctx_fn(&self, ctx: u32) -> FnId {
        match self.ctxdb[ctx as usize] {
            Ctx::Root => self.root.expect("Root ctx implies section mode").0,
            Ctx::Gen(f) | Ctx::Query(f, _) => f,
        }
    }

    fn seed_instr(&mut self, ctx: u32, idx: u32, ins: &Instr) {
        for (path, eff) in self.tctx.gen_locks(ins) {
            let lock = AbsLock {
                path: Some(path),
                pts: None,
                eff,
            };
            // G locks live at the point *before* the statement.
            self.add_fact(ctx, idx, lock);
        }
        if let Instr::Assign(_, Rvalue::Call(callee, _)) = ins {
            let lib = self.lib;
            let cache = self.cache;
            if let Some(summary) = lib.get(*callee) {
                // Opaque callee: its specification's coarse locks stand
                // in for its accesses.
                for l in &summary.locks {
                    self.add_fact(ctx, idx, l.clone());
                }
            } else if let Some(c) = cache {
                // Phase B: the pre-pass covered every in-scope callee.
                let entries = c
                    .gen
                    .get(callee)
                    .expect("summary pre-pass covers every in-scope callee");
                self.stats.cache_hits += 1;
                for &cid in entries {
                    let le = self.locks.import(&c.locks, cid);
                    self.inject_unmapped((ctx, idx), *callee, le, None);
                }
            } else {
                self.register_gen_dep(*callee, (ctx, idx));
            }
        }
    }

    /// Pops points LIFO; each pop propagates the point's whole frontier
    /// in ascending local id.
    fn drain(&mut self) {
        let mut ids: Vec<u32> = Vec::new();
        let mut preds = None;
        while let Some((ctx, idx)) = self.queue.pop() {
            let preds = *preds.get_or_insert_with(|| self.preds());
            let s = self.ctx_states[ctx as usize] + idx;
            self.points.drain(s, &mut ids);
            for &lid in &ids {
                self.stats.pops += 1;
                self.process(ctx, idx, lid, preds);
            }
        }
    }

    fn add_fact(&mut self, ctx: u32, idx: u32, lock: AbsLock) {
        if let Some(lock) = self.config.normalize(lock, self.pt) {
            let id = self.locks.intern(&lock);
            self.add_id(ctx, idx, id);
        }
    }

    /// Adds an interned (hence normalized) lock before point `idx`.
    /// Flow-insensitive locks jump straight to the context's terminal.
    fn add_id(&mut self, ctx: u32, idx: u32, id: u32) {
        if self.locks.flow_insensitive[id as usize] {
            self.record_terminal(ctx, id);
        } else {
            self.add_fact_id(ctx, idx, id);
        }
    }

    fn add_fact_id(&mut self, ctx: u32, idx: u32, id: u32) {
        let mut base = self.ctx_states[ctx as usize];
        if base == NO_STATES {
            let n_points = self.program.func(self.ctx_fn(ctx)).body.len() + 1;
            base = self.points.reserve(n_points);
            self.ctx_states[ctx as usize] = base;
        }
        let s = base + idx;
        if !self.points.has_facts(s) {
            self.stats.state_points += 1;
        }
        match self.points.add(&self.locks.recs, s, id) {
            Arrival::Covered => {}
            // Widening: fall back to the lock's own class (sent
            // straight to the terminal).
            Arrival::Widened => {
                self.stats.widenings += 1;
                let coarse = self.locks.arcs[id as usize].coarsen();
                let cid = self.locks.intern(&coarse);
                self.record_terminal(ctx, cid);
            }
            Arrival::Inserted { live, first } => {
                if first {
                    self.queue.push((ctx, idx));
                }
                self.stats.facts += 1;
                self.stats.peak = self.stats.peak.max(live);
            }
        }
    }

    fn process(&mut self, ctx: u32, idx: u32, lid: u32, preds: &[Predecessors]) {
        debug_assert!(!self.locks.flow_insensitive[lid as usize]);
        if idx == 0 {
            self.record_terminal(ctx, lid);
            return;
        }
        let program = self.program;
        let func = self.ctx_fn(ctx);
        let body = &program.func(func).body;
        let is_root = matches!(self.ctxdb[ctx as usize], Ctx::Root);
        let region = self.root.map(|(_, r)| r);
        for &q in preds[func.0 as usize].at(idx) {
            let ins = &body[q as usize];
            // Stop at (and record) the section's own entry.
            if is_root {
                let region = region.expect("Root ctx implies section mode");
                if q == region.enter {
                    debug_assert!(matches!(ins, Instr::EnterAtomic(s) if *s == region.id));
                    self.record_result(lid);
                    continue;
                }
            }
            // Most instructions cannot touch most locks: an assignment
            // to a variable the lock neither starts at nor indexes by,
            // or a statement that writes nothing. The lock is already
            // normalized, so the transfer is the identity on its id.
            let lock = &self.locks.arcs[lid as usize];
            if leaves_untouched(ins, lock) {
                debug_assert!(matches!(
                    self.tctx.transfer_lock(ins, lock),
                    Transferred::Through(out)
                        if out.len() == 1 && out[0].path == lock.path && out[0].eff == lock.eff
                ));
                self.add_fact_id(ctx, q, lid);
                continue;
            }
            let key = (func, q, lid);
            if let Some(&range) = self.transfer_memo.get(&key) {
                self.replay(ctx, q, range);
                continue;
            }
            let lock = Arc::clone(lock);
            match self.tctx.transfer_lock(ins, &lock) {
                Transferred::Through(locks) => {
                    let range = self.add_memoised(ctx, q, locks);
                    self.transfer_memo.insert(key, range);
                }
                Transferred::Call { callee, dest } => {
                    if self.lib.is_external(callee) {
                        self.external_call(ctx, q, callee, dest, &lock);
                    } else {
                        self.route_through_call(ctx, q, callee, dest, &lock);
                    }
                }
            }
        }
    }

    /// Normalizes, interns and adds each lock *in turn* — an add can
    /// reach a terminal and mint further local ids, and first-seen id
    /// order is part of the engine's contract — then records the ids in
    /// the memo arena. The adds may memoise results of their own, so
    /// the ids are appended only once all have returned.
    fn add_memoised(&mut self, ctx: u32, idx: u32, locks: Vec<AbsLock>) -> MemoRange {
        let mut ids = Vec::with_capacity(locks.len());
        for lock in locks {
            if let Some(lock) = self.config.normalize(lock, self.pt) {
                let id = self.locks.intern(&lock);
                ids.push(id);
                self.add_id(ctx, idx, id);
            }
        }
        let start = self.memo_ids.len() as u32;
        self.memo_ids.extend_from_slice(&ids);
        (start, ids.len() as u32)
    }

    /// Adds a memoised result before point `idx`.
    fn replay(&mut self, ctx: u32, idx: u32, (start, len): MemoRange) {
        self.stats.memo_hits += 1;
        for i in start..start + len {
            let id = self.memo_ids[i as usize];
            self.add_id(ctx, idx, id);
        }
    }

    /// A fact reached its context's terminal — the section entry for
    /// Root (either by propagation or via the flow-insensitive
    /// shortcut), the function entry for summaries: update the summary
    /// and replay it at every dependent call site.
    fn record_terminal(&mut self, ctx: u32, id: u32) {
        let summary = self.ctxdb[ctx as usize];
        let fresh = summary != Ctx::Root
            && self.summaries[ctx as usize].add(&self.locks.recs, &mut self.pathless, ctx, id);
        match summary {
            Ctx::Root => self.record_result(id),
            // Dependent lists only grow by appending, so an index loop
            // to the starting length visits the sites a snapshot would.
            Ctx::Gen(f) if fresh => {
                let n = self.gen_dependents.get(&f).map_or(0, Vec::len);
                for i in 0..n {
                    let site = self.gen_dependents[&f][i];
                    self.inject_unmapped(site, f, id, None);
                }
            }
            Ctx::Query(f, q) if fresh => {
                let n = self.query_dependents.get(&(f, q)).map_or(0, Vec::len);
                for i in 0..n {
                    let (site, eff) = self.query_dependents[&(f, q)][i];
                    self.inject_unmapped(site, f, id, Some(eff));
                }
            }
            Ctx::Gen(_) | Ctx::Query(..) => {}
        }
    }

    /// Handles a fine lock flowing backward over `dest = callee(args)`:
    /// map it into the callee, then answer from the frozen cache or
    /// start/reuse a local (rw-canonical) summary query.
    fn route_through_call(
        &mut self,
        ctx: u32,
        call_idx: u32,
        callee: FnId,
        dest: VarId,
        lock: &AbsLock,
    ) {
        let program = self.program;
        let cache = self.cache;
        let ret = program.func(callee).ret;
        // Map: analyze `dest = ret_f` backward (a Copy transfer).
        let mapped = match self
            .tctx
            .transfer_lock(&Instr::Assign(dest, Rvalue::Copy(ret)), lock)
        {
            Transferred::Through(locks) => locks,
            Transferred::Call { .. } => unreachable!("copy is not a call"),
        };
        for m in mapped {
            let Some(m) = self.config.normalize(m, self.pt) else {
                continue;
            };
            // Demoted locks and locks untouched by the callee (mod-ref
            // filtering) bypass the summary machinery.
            let needs_summary = !m.is_flow_insensitive()
                && m.path
                    .as_ref()
                    .is_some_and(|p| must_route(program, self.pt, self.modsets(), callee, p));
            if !needs_summary {
                self.add_fact(ctx, call_idx, m);
                continue;
            }
            // Canonicalize the query to rw: transfer functions never
            // change effects, so a ro query would compute the same
            // entries modulo the effect tag.
            let want_eff = m.eff;
            let canonical = AbsLock { eff: Eff::Rw, ..m };
            let mid = self.locks.intern(&canonical);
            let site = (ctx, call_idx);
            if let Some(c) = cache {
                let solved = c.locks.by_term.get(&canonical);
                if let Some(entries) = solved.and_then(|&q| c.query.get(&(callee, q))) {
                    self.stats.cache_hits += 1;
                    for &cid in entries {
                        let le = self.locks.import(&c.locks, cid);
                        self.inject_unmapped(site, callee, le, Some(want_eff));
                    }
                    continue;
                }
                self.stats.cache_misses += 1;
            }
            let key = (callee, mid);
            let deps = self.query_dependents.entry(key).or_default();
            if !deps.contains(&(site, want_eff)) {
                deps.push((site, want_eff));
                // Replay already-computed summary entries.
                let existing = self.summary_ids(Ctx::Query(callee, mid));
                for le in existing {
                    self.inject_unmapped(site, callee, le, Some(want_eff));
                }
            }
            // A query is started when its context is interned.
            if !self.ctx_ids.contains_key(&Ctx::Query(callee, mid)) {
                let exit = program.func(callee).body.len() as u32;
                let qctx = self.intern_ctx(Ctx::Query(callee, mid));
                self.add_fact(qctx, exit, canonical);
            }
        }
    }

    /// Handles a fine lock flowing backward over a call to an *opaque*
    /// (pre-compiled) function: locks rooted at the call's destination
    /// cannot be traced into the callee and are demoted to their coarse
    /// points-to lock; other locks are demoted only if the callee's
    /// specification says it may modify a cell their expression reads.
    fn external_call(
        &mut self,
        ctx: u32,
        call_idx: u32,
        callee: FnId,
        dest: VarId,
        lock: &AbsLock,
    ) {
        let path = lock
            .path
            .as_ref()
            .expect("external_call only sees fine locks");
        if path.base == dest {
            if let Some(c) = self.pt.class_of_path(path) {
                self.add_fact(
                    ctx,
                    call_idx,
                    AbsLock {
                        path: None,
                        pts: Some(c),
                        eff: lock.eff,
                    },
                );
            }
            return;
        }
        let l = self.lib.transfer_across(callee, lock, self.pt);
        self.add_fact(ctx, call_idx, l);
    }

    /// Registers a call site as a receiver of the callee's own-access
    /// (Gen) locks, replaying any already known. Phase A only — Phase B
    /// injects the frozen gen summaries at seed time instead.
    fn register_gen_dep(&mut self, callee: FnId, site: Site) {
        let deps = self.gen_dependents.entry(callee).or_default();
        if deps.contains(&site) {
            return;
        }
        deps.push(site);
        let existing = self.summary_ids(Ctx::Gen(callee));
        for le in existing {
            self.inject_unmapped(site, callee, le, None);
        }
    }

    /// Unmap: push a callee-entry lock backward through the virtual
    /// prologue `p_0 = a_0; …; p_n = a_n` of a specific call site and
    /// inject the results before the call. `eff_override` rewrites the
    /// effect of rw-canonical query results back to what the dependent
    /// requested. Locks still rooted at a callee-owned variable after
    /// unmapping denote locations that do not exist before the call and
    /// are dropped; callee-owned symbolic indices demote to the `[]`
    /// offset.
    fn inject_unmapped(
        &mut self,
        site: Site,
        callee: FnId,
        entry_lock: u32,
        eff_override: Option<Eff>,
    ) {
        let (ctx, call_idx) = site;
        let program = self.program;
        let site_fn = self.ctx_fn(ctx);
        // At a recursive call site caller and callee frames share
        // variable ids; nothing is callee-only then.
        let callee_only = |v: VarId| {
            let info = program.var(v);
            info.owner == Some(callee) && callee != site_fn && info.kind != VarKind::Global
        };
        let entry_term = |this: &Self| {
            let mut entry = (*this.locks.arcs[entry_lock as usize]).clone();
            if let Some(eff) = eff_override {
                entry.eff = eff;
            }
            entry
        };
        if self.locks.flow_insensitive[entry_lock as usize] {
            // The prologue's copies leave coarse and `x̄` locks alone:
            // at most the effect changes, and no memo is needed. An
            // unchanged effect is the entry lock itself, already
            // interned.
            let entry = &self.locks.arcs[entry_lock as usize];
            if entry.path.as_ref().is_some_and(|p| callee_only(p.base)) {
                return;
            }
            let id = match eff_override {
                Some(eff) if eff != entry.eff => self.locks.intern(&entry_term(self)),
                _ => entry_lock,
            };
            debug_assert_eq!(id, self.locks.intern(&entry_term(self)));
            self.record_terminal(ctx, id);
            return;
        }
        let key = (site_fn, call_idx, entry_lock, eff_override);
        if let Some(&range) = self.unmap_memo.get(&key) {
            self.replay(ctx, call_idx, range);
            return;
        }
        let body = &program.func(site_fn).body;
        let Instr::Assign(_, Rvalue::Call(f, args)) = &body[call_idx as usize] else {
            unreachable!("dependent site is a call instruction");
        };
        debug_assert_eq!(*f, callee);
        let params = &program.func(callee).params;
        let mut locks = vec![entry_term(self)];
        for (p, a) in params.iter().zip(args).rev() {
            let assign = Instr::Assign(*p, Rvalue::Copy(*a));
            let mut next = Vec::new();
            for l in &locks {
                match self.tctx.transfer_lock(&assign, l) {
                    Transferred::Through(ls) => next.extend(ls),
                    Transferred::Call { .. } => unreachable!("copy is not a call"),
                }
            }
            locks = next;
        }
        locks.retain_mut(|l| {
            let Some(p) = &mut l.path else { return true };
            for op in &mut p.ops {
                if let PathOp::Index(z) = op {
                    if callee_only(*z) {
                        *op = PathOp::Field(
                            self.config
                                .elem_field
                                .expect("dyn indices imply a [] field"),
                        );
                    }
                }
            }
            !callee_only(p.base)
        });
        let range = self.add_memoised(ctx, call_idx, locks);
        self.unmap_memo.insert(key, range);
    }

    fn record_result(&mut self, id: u32) {
        if !self.result.contains(&id) {
            self.result.push(id);
        }
    }

    /// The program's mod sets, built on first use.
    fn modsets(&self) -> &'a [ModSet] {
        self.modsets
            .get_or_init(|| compute_modsets(self.program, self.pt, self.lib))
    }

    /// The program's predecessor tables, built on first use.
    fn preds(&self) -> &'a [Predecessors] {
        let functions = &self.program.functions;
        self.preds
            .get_or_init(|| functions.iter().map(|f| predecessors(&f.body)).collect())
    }
}

/// The structural order of one lock table's terms. Terms are distinct,
/// so sorting ids by rank is sorting them by term.
struct StructuralOrder {
    /// Each id's position in the order.
    rank: Vec<u32>,
    /// The id at each position.
    ids: Vec<u32>,
}

impl StructuralOrder {
    fn of(arcs: &[Arc<AbsLock>]) -> Self {
        let mut ids: Vec<u32> = (0..arcs.len() as u32).collect();
        ids.sort_unstable_by(|&a, &b| arcs[a as usize].cmp(&arcs[b as usize]));
        let mut rank = vec![0; arcs.len()];
        for (r, &id) in ids.iter().enumerate() {
            rank[id as usize] = r as u32;
        }
        StructuralOrder { rank, ids }
    }

    /// Sorts distinct ids of the table structurally: as their ranks,
    /// which compare without reading the table.
    fn sort(&self, ids: &mut [u32]) {
        for id in ids.iter_mut() {
            *id = self.rank[*id as usize];
        }
        ids.sort_unstable();
        for r in ids.iter_mut() {
            *r = self.ids[*r as usize];
        }
    }
}

/// An empty slot of [`ClassIndex`], or a lock id not yet numbered.
const NO_MEMBER: u32 = u32::MAX;

/// The path-`⊤` members of every summary set of one engine — class
/// locks `(⊤, P, ε)` and the global lock, at most one per class in a
/// set — by context and class. Classes are numbered densely in the
/// order the engine meets them (the global lock's is 0), and each
/// context with such a member owns one row of `width` slots in one flat
/// array, so a lookup is two loads and no hash. Rows widen together,
/// by doubling, when a class past the width arrives.
#[derive(Default)]
struct ClassIndex {
    /// Per lock id, its class's number (`NO_MEMBER` until asked).
    class_of: Vec<u32>,
    /// The number of each [`LockRec::pathless_key`] but `TOP` met so
    /// far, from 1.
    numbers: IdMap<u32, u32>,
    /// Per context, its row (`NO_MEMBER` until its first member).
    rows: Vec<u32>,
    /// Slots per row, a power of two above every class number.
    width: u32,
    /// The rows: each slot the member's lock id, or `NO_MEMBER`.
    slots: Vec<u32>,
}

impl ClassIndex {
    /// The number of path-`⊤` lock `id`'s class `key`.
    fn class(&mut self, id: u32, key: u32) -> u32 {
        let id = id as usize;
        if id >= self.class_of.len() {
            self.class_of.resize(id + 1, NO_MEMBER);
        }
        if self.class_of[id] == NO_MEMBER {
            let next = self.numbers.len() as u32 + 1;
            self.class_of[id] = match key {
                LockRec::TOP => 0,
                _ => *self.numbers.entry(key).or_insert(next),
            };
        }
        self.class_of[id]
    }

    /// The member of class `class` in context `ctx`'s set.
    fn get(&self, ctx: u32, class: u32) -> Option<u32> {
        let row = *self.rows.get(ctx as usize)?;
        if row == NO_MEMBER || class >= self.width {
            return None;
        }
        let id = self.slots[self.at(row, class)];
        (id != NO_MEMBER).then_some(id)
    }

    fn slot(&mut self, ctx: u32, class: u32) -> &mut u32 {
        if class >= self.width {
            self.widen((class + 1).next_power_of_two().max(16));
        }
        if ctx as usize >= self.rows.len() {
            self.rows.resize(ctx as usize + 1, NO_MEMBER);
        }
        if self.rows[ctx as usize] == NO_MEMBER {
            self.rows[ctx as usize] = self.slots.len() as u32 / self.width;
            let len = self.slots.len() + self.width as usize;
            self.slots.resize(len, NO_MEMBER);
        }
        let at = self.at(self.rows[ctx as usize], class);
        &mut self.slots[at]
    }

    /// Where slot `class` of row `row` lies in `slots`.
    fn at(&self, row: u32, class: u32) -> usize {
        row as usize * self.width as usize + class as usize
    }

    fn widen(&mut self, width: u32) {
        let old = std::mem::take(&mut self.slots);
        let n_rows = if self.width == 0 {
            0
        } else {
            old.len() / self.width as usize
        };
        self.slots = vec![NO_MEMBER; n_rows * width as usize];
        for r in 0..n_rows {
            let from = &old[r * self.width as usize..][..self.width as usize];
            self.slots[r * width as usize..][..from.len()].copy_from_slice(from);
        }
        self.width = width;
    }

    fn insert(&mut self, ctx: u32, class: u32, id: u32) {
        *self.slot(ctx, class) = id;
    }

    fn remove(&mut self, ctx: u32, class: u32) {
        *self.slot(ctx, class) = NO_MEMBER;
    }

    /// The member of class `key` in context `ctx`'s set.
    #[cfg(test)]
    fn member(&self, ctx: u32, key: u32) -> Option<u32> {
        let class = match key {
            LockRec::TOP => 0,
            _ => *self.numbers.get(&key)?,
        };
        self.get(ctx, class)
    }

    /// How many members the index holds.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.slots.iter().filter(|&&id| id != NO_MEMBER).count()
    }
}

/// The entry locks of one summary context: an antichain in arrival
/// order, which dependents replay and [`Engine::freeze`] sorts.
#[derive(Default)]
struct SummarySet {
    ids: Vec<u32>,
    /// Members with a path; the path-`⊤` rest are indexed in
    /// [`Engine::pathless`].
    fine: u32,
}

impl SummarySet {
    /// Subsumption insert into the set of context `ctx`; returns whether
    /// the lock was new (not already covered), leaving `ids` exactly as
    /// `reference_add`'s scan would. Only a path-`⊤` member can cover a
    /// path-`⊤` arrival — the one of its class or the global one, two
    /// lookups — and in a set without fine members only its class's old
    /// member can lie below it.
    fn add(&mut self, recs: &[LockRec], pathless: &mut ClassIndex, ctx: u32, id: u32) -> bool {
        let rec = recs[id as usize];
        let class = rec.pathless_key().map(|k| pathless.class(id, k));
        let covers = |c| {
            pathless
                .get(ctx, c)
                .is_some_and(|m| rec.leq(recs[m as usize]))
        };
        let covered = match class {
            Some(c) => covers(c) || covers(0),
            None => self.ids.iter().any(|&l| rec.leq(recs[l as usize])),
        };
        if covered {
            return false;
        }
        match class {
            Some(c) if self.fine == 0 && c != 0 => {
                if let Some(old) = pathless.get(ctx, c) {
                    debug_assert!(recs[old as usize].leq(rec));
                    let at = self.ids.iter().position(|&l| l == old);
                    self.ids.remove(at.expect("indexed members are in the set"));
                }
            }
            _ => self.ids.retain(|&l| {
                let below = recs[l as usize];
                if !below.leq(rec) {
                    return true;
                }
                match below.pathless_key() {
                    Some(k) => {
                        let c = pathless.class(l, k);
                        pathless.remove(ctx, c);
                    }
                    None => self.fine -= 1,
                }
                false
            }),
        }
        match class {
            Some(c) => pathless.insert(ctx, c, id),
            None => self.fine += 1,
        }
        self.ids.push(id);
        true
    }
}

/// The scan [`SummarySet::add`] replaced, kept as its oracle.
#[cfg(test)]
fn reference_add(recs: &[LockRec], set: &mut Vec<u32>, id: u32) -> bool {
    let rec = recs[id as usize];
    if set.iter().any(|&l| l == id || rec.leq(recs[l as usize])) {
        return false;
    }
    set.retain(|&l| !recs[l as usize].leq(rec));
    set.push(id);
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fine(base: u32, ops: Vec<PathOp>, pts: u32, eff: Eff) -> AbsLock {
        AbsLock {
            path: Some(PathExpr {
                base: VarId(base),
                ops,
            }),
            pts: Some(PtsClass(pts)),
            eff,
        }
    }

    /// Widening the rows keeps every member where it was: the index
    /// agrees with a map over many classes met in an interleaved order
    /// across contexts, removals included.
    #[test]
    fn the_class_index_keeps_its_members_as_it_widens() {
        let mut index = ClassIndex::default();
        let mut model = HashMap::new();
        for step in 0..600u32 {
            let (ctx, key) = (step % 7, (step * 37) % 300);
            let id = step;
            let class = index.class(id, key);
            if step % 5 == 4 {
                index.remove(ctx, class);
                model.remove(&(ctx, key));
            } else {
                index.insert(ctx, class, id);
                model.insert((ctx, key), id);
            }
        }
        assert!(index.width >= 256, "the rows widened past 300 classes");
        for ctx in 0..7 {
            for key in 0..300 {
                assert_eq!(index.member(ctx, key), model.get(&(ctx, key)).copied());
            }
        }
        assert_eq!(index.len(), model.len());
    }

    #[test]
    fn interning_is_idempotent_and_distinguishes() {
        let mut table = LockCache::default();
        let a = fine(1, vec![PathOp::Deref], 3, Eff::Rw);
        let b = fine(1, vec![PathOp::Deref], 3, Eff::Ro);
        let ia = table.intern(&a);
        let ib = table.intern(&b);
        assert_eq!(ia, table.intern(&a));
        assert_ne!(ia, ib);
        assert_eq!(*table.arcs[ia as usize], a);
        assert_eq!(*table.arcs[ib as usize], b);
        // Same path, different effect: one path entry, two locks.
        assert_eq!(table.path_ids.len(), 1);
        assert_eq!(table.arcs.len(), 2);
        assert!(table.recs[ib as usize].leq(table.recs[ia as usize]));

        // Importing from a frozen table finds a term the engine already
        // met, and otherwise shares the frozen one.
        let mut local = LockCache::default();
        let lb = local.intern(&b);
        assert_eq!(local.import(&table, ib), lb);
        let la = local.import(&table, ia);
        assert_eq!(la, local.import(&table, ia));
        assert!(Arc::ptr_eq(
            &local.arcs[la as usize],
            &table.arcs[ia as usize]
        ));
        assert_eq!(count_distinct(table.arcs.iter().chain(&local.arcs)), (2, 1));
    }

    /// The subsumption insert [`PointStates::add`] replaced, on one
    /// `Vec` per point: a cover scan, then a tagging scan.
    fn vec_add(recs: &[LockRec], list: &mut Vec<u32>, drained: usize, id: u32) -> Arrival {
        let rec = recs[id as usize];
        let mut live = 0;
        for &e in list.iter() {
            if e & DEAD == 0 {
                if rec.leq(recs[e as usize]) {
                    return Arrival::Covered;
                }
                live += 1;
            }
        }
        if live >= WIDTH_LIMIT {
            return Arrival::Widened;
        }
        for e in list.iter_mut() {
            if *e & DEAD == 0 && recs[*e as usize].leq(rec) {
                *e |= DEAD;
                live -= 1;
            }
        }
        let first = drained == list.len();
        list.push(id);
        Arrival::Inserted {
            live: live + 1,
            first,
        }
    }

    /// The drain [`PointStates::drain`] replaced: the sorted frontier,
    /// then a `retain` of the live entries.
    fn vec_drain(list: &mut Vec<u32>, drained: &mut usize, ids: &mut Vec<u32>) {
        ids.clear();
        ids.extend(list[*drained..].iter().map(|e| e & !DEAD));
        ids.sort_unstable();
        list.retain(|e| e & DEAD == 0);
        *drained = list.len();
    }

    #[test]
    fn full_blocks_move_and_freed_blocks_are_reused() {
        let mut table = LockCache::default();
        let ids: Vec<u32> = (0..8)
            .map(|b| table.intern(&fine(b, vec![PathOp::Deref], 0, Eff::Rw)))
            .collect();
        let mut store = PointStates::default();
        let s = store.reserve(2);
        for &id in &ids[..5] {
            store.add(&table.recs, s, id);
        }
        // The list moved through blocks of 1, 2, 3 and 4 slots into
        // one of 6 after them; the four it left are free.
        let st = store.states[s as usize];
        assert_eq!((st.at, st.len), (10, 5));
        assert_eq!(store.facts(s), &ids[..5]);
        assert_eq!(store.pool.len(), 16);
        for &id in &ids[5..] {
            store.add(&table.recs, s + 1, id);
        }
        // The other point's list grows through the freed blocks: the
        // pool does not.
        let st = store.states[s as usize + 1];
        assert_eq!((st.at, st.len), (3, 3));
        assert_eq!(store.facts(s + 1), &ids[5..]);
        assert_eq!(store.pool.len(), 16);
    }

    /// Past 64 entries a list still matches the `Vec` it replaced: no
    /// drain between 72 arrivals, the last two killing entries past
    /// slot 64 and on both sides of it.
    #[test]
    fn a_list_past_64_slots_matches_the_vec() {
        let mut table = LockCache::default();
        let mut arrivals = Vec::new();
        for (class, fine) in [(0, 23), (1, 22), (2, 21)] {
            for b in 0..fine {
                arrivals.push(fine_lock(b, class, Eff::Ro));
            }
            arrivals.push(class_lock(Some(class), Eff::Ro));
        }
        arrivals.push(class_lock(Some(2), Eff::Rw));
        arrivals.push(fine_lock(30, 1, Eff::Rw));
        arrivals.push(class_lock(None, Eff::Rw));
        let mut store = PointStates::default();
        let s = store.reserve(1);
        let (mut list, mut drained) = (Vec::new(), 0);
        for lock in &arrivals {
            let id = table.intern(lock);
            assert_eq!(
                store.add(&table.recs, s, id),
                vec_add(&table.recs, &mut list, drained, id)
            );
            assert_eq!(store.facts(s), &list[..]);
        }
        let sizes = [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96];
        assert_eq!((list.len(), store.pool.len()), (72, sizes.iter().sum()));
        let (mut got, mut want) = (Vec::new(), Vec::new());
        store.drain(s, &mut got);
        vec_drain(&mut list, &mut drained, &mut want);
        assert_eq!((got.len(), &got), (72, &want));
        assert_eq!(store.facts(s), &list[..]);
    }

    fn fine_lock(base: u32, class: u32, eff: Eff) -> AbsLock {
        fine(base, vec![PathOp::Deref], class, eff)
    }

    fn class_lock(class: Option<u32>, eff: Eff) -> AbsLock {
        AbsLock {
            path: None,
            pts: class.map(PtsClass),
            eff,
        }
    }

    proptest::proptest! {
        /// The pooled point states are the per-point lists they
        /// replaced, step by step: the same decision (covered, inserted
        /// or widened) for every arrival, the same entries with the same
        /// `DEAD` tags after it, and the same frontier from every drain.
        /// Arrivals at three points of one store mix fine locks (equal
        /// paths under different classes, `ro` below `rw`), `x̄`, class
        /// and global locks, and repeats; lists widen, and blocks move
        /// and are recycled between the points.
        #[test]
        fn pooled_point_states_match_vec_lists(
            use_pts in proptest::arbitrary::any::<bool>(),
            steps in proptest::collection::vec(
                (0u32..3, 0u8..24, 0u32..12, 0u32..3, proptest::arbitrary::any::<bool>()),
                0..600,
            ),
        ) {
            let mut table = LockCache::default();
            let mut store = PointStates::default();
            let base = store.reserve(3);
            let mut lists: [(Vec<u32>, usize); 3] = Default::default();
            let (mut got, mut want) = (Vec::new(), Vec::new());
            for (point, shape, var, class, rw) in steps {
                let s = base + point;
                let (list, drained) = &mut lists[point as usize];
                if shape < 3 {
                    store.drain(s, &mut got);
                    vec_drain(list, drained, &mut want);
                    proptest::prop_assert_eq!(&got, &want);
                } else {
                    let eff = if rw { Eff::Rw } else { Eff::Ro };
                    let pts = use_pts.then_some(PtsClass(class));
                    let path = |ops| Some(PathExpr { base: VarId(var), ops });
                    let lock = match shape {
                        3..=9 => AbsLock { path: path(vec![PathOp::Deref]), pts, eff },
                        10..=16 => AbsLock { path: path(vec![PathOp::Deref; 2]), pts, eff },
                        17..=19 => AbsLock { path: path(Vec::new()), pts, eff },
                        20..=22 => AbsLock { path: None, pts, eff },
                        _ => AbsLock { path: None, pts: None, eff },
                    };
                    let id = table.intern(&lock);
                    proptest::prop_assert_eq!(
                        store.add(&table.recs, s, id),
                        vec_add(&table.recs, list, *drained, id)
                    );
                }
                proptest::prop_assert_eq!(store.facts(s), &list[..]);
            }
        }

        /// Sorting ids by [`StructuralOrder`] is sorting them by term,
        /// as `freeze` did before it ranked: for random lock tables of
        /// every shape — fine paths of several steps and bases, `x̄`,
        /// class and global locks, `ro` and `rw`, with and without
        /// `Σ≡` — and any subset of their ids, in any order.
        #[test]
        fn rank_order_is_the_structural_order(
            use_pts in proptest::arbitrary::any::<bool>(),
            locks in proptest::collection::vec(
                (0u8..5, 0u32..4, 0u32..3, proptest::arbitrary::any::<bool>()),
                0..64,
            ),
            picks in proptest::collection::vec(0usize..64, 0..48),
        ) {
            let mut table = LockCache::default();
            for (shape, base, class, rw) in locks {
                let eff = if rw { Eff::Rw } else { Eff::Ro };
                let pts = use_pts.then_some(PtsClass(class));
                let path = |ops| Some(PathExpr { base: VarId(base), ops });
                let lock = match shape {
                    0 => AbsLock { path: path(vec![PathOp::Deref]), pts, eff },
                    1 => AbsLock { path: path(vec![PathOp::Deref, PathOp::Field(lir::FieldId(class))]), pts, eff },
                    2 => AbsLock { path: path(Vec::new()), pts, eff },
                    3 => AbsLock { path: None, pts, eff },
                    _ => AbsLock { path: None, pts: None, eff },
                };
                table.intern(&lock);
            }
            let mut picked = vec![false; table.arcs.len()];
            let mut ids: Vec<u32> = picks
                .into_iter()
                .filter(|&i| i < picked.len() && !std::mem::replace(&mut picked[i], true))
                .map(|i| i as u32)
                .collect();
            let mut by_rank = ids.clone();
            StructuralOrder::of(&table.arcs).sort(&mut by_rank);
            let arcs = &table.arcs;
            ids.sort_by(|&a, &b| arcs[a as usize].cmp(&arcs[b as usize]));
            proptest::prop_assert_eq!(by_rank, ids);
        }

        /// The indexed insert is the scan it replaced, step by step: the
        /// same answers and the same `ids` in the same order, over two
        /// sets sharing the engine-wide index, for arrivals of every
        /// shape — fine, `x̄`, class and global, `ro` and `rw`, repeats
        /// included — with and without `Σ≡`.
        #[test]
        fn indexed_summary_sets_match_the_scan(
            use_pts in proptest::arbitrary::any::<bool>(),
            arrivals in proptest::collection::vec(
                (0u8..4, 0u32..3, 0u32..3, proptest::arbitrary::any::<bool>(), 0u32..2),
                0..48,
            ),
        ) {
            let mut table = LockCache::default();
            let mut pathless = ClassIndex::default();
            let mut sets = [SummarySet::default(), SummarySet::default()];
            let mut scans: [Vec<u32>; 2] = Default::default();
            for (shape, base, class, rw, ctx) in arrivals {
                let eff = if rw { Eff::Rw } else { Eff::Ro };
                let pts = use_pts.then_some(PtsClass(class));
                let path = |ops| Some(PathExpr { base: VarId(base), ops });
                let lock = match shape {
                    0 => AbsLock { path: path(vec![PathOp::Deref]), pts, eff },
                    1 => AbsLock { path: path(Vec::new()), pts, eff },
                    2 => AbsLock { path: None, pts, eff },
                    _ => AbsLock { path: None, pts: None, eff },
                };
                let id = table.intern(&lock);
                let (set, scan) = (&mut sets[ctx as usize], &mut scans[ctx as usize]);
                let recs = &table.recs;
                proptest::prop_assert_eq!(
                    set.add(recs, &mut pathless, ctx, id),
                    reference_add(recs, scan, id)
                );
                proptest::prop_assert_eq!(&set.ids, scan);
                let fine = scan.iter().filter(|&&l| recs[l as usize].pathless_key().is_none());
                proptest::prop_assert_eq!(set.fine as usize, fine.count());
            }
            // The index holds exactly the path-`⊤` members.
            let mut members = 0;
            for (ctx, scan) in scans.iter().enumerate() {
                for &l in scan {
                    if let Some(k) = table.recs[l as usize].pathless_key() {
                        proptest::prop_assert_eq!(pathless.member(ctx as u32, k), Some(l));
                        members += 1;
                    }
                }
            }
            proptest::prop_assert_eq!(pathless.len(), members);
        }
    }
}
