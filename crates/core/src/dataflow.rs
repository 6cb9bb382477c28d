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
//!   it has met ([`LockCache`]): a term is stored once, named by a
//!   dense local id in first-seen order, and shadowed by a [`LockRec`]
//!   on which the lattice order `≤` is a handful of integer compares.
//!   There is no table outside an engine: Phase A's is frozen into its
//!   [`SummaryCache`], a Phase B engine imports the entries it is
//!   handed (sharing the term, not copying it), and everything is
//!   freed with the analysis or the [`SummaryStore`] holding it.
//! * **Facts-sized state.** Per `(context, point)` the state is one
//!   small list of local ids in arrival order ([`PointState`]): the
//!   untagged entries are the lock antichain — at most [`WIDTH_LIMIT`]
//!   of them — and the tail past a cursor is the frontier not yet
//!   propagated. A context gets a table of its function's points on
//!   its first fact and a point gets a state on its own, so memory is
//!   proportional to facts, not to `contexts × points × lock universe`.
//!   The worklist holds each *point* at most once, and a pop propagates
//!   the whole frontier of that point. A lock removed by subsumption is
//!   tagged, not dropped, until it has propagated: like the triple
//!   worklist this replaces, a subsumed fact that was already scheduled
//!   still propagates.
//! * **Id-level transfer.** Pushing lock `lid` across instruction
//!   `(func, q)` — and unmapping entry lock `e` at a call site — is a
//!   pure function of those ids, and Phase A asks the same question
//!   from thousands of query contexts of one function. Most answers are
//!   the identity and are read off the instruction
//!   ([`leaves_untouched`]); the rest go once through
//!   `transfer_lock` → `normalize` → intern and are replayed as ids from
//!   a per-engine memo. Flow-insensitive locks are invariant under both
//!   operations and never enter a memo.
//! * **Shared summaries (Phase A / Phase B).** Function summaries are
//!   computed *once per program*, not once per section: a sequential
//!   pre-pass (Phase A) solves the `Gen` context of every function any
//!   section can reach, plus all summary queries that flow demands,
//!   and freezes them — structurally sorted — into a read-only
//!   [`SummaryCache`]. Per-section engines (Phase B) only solve their
//!   own root region, injecting cached summaries at call sites;
//!   queries the pre-pass never saw are solved locally with the same
//!   machinery.
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
//! * Summary queries are canonicalized to the `rw` effect (transfer
//!   functions never change an effect), halving the query space.
//! * Per program point, expression-lock variants are *widened*: past a
//!   width bound the lock falls back to [`AbsLock::coarsen`] of itself
//!   (the paper's §3.3 notes widening as the alternative to a bounded
//!   `L`) — a coarser lock under every scheme configuration, never no
//!   lock.

use crate::library::LibrarySpec;
use crate::transfer::{leaves_untouched, TransferCtx, Transferred};
use lir::cfg::{atomic_regions, predecessors, AtomicRegion};
use lir::{Eff, FnId, Instr, PathExpr, PathOp, Program, Rvalue, SectionId, VarId, VarKind};
use lockscheme::abslock::prune_redundant;
use lockscheme::{AbsLock, ConfigMap, LockRec, SchemeConfig};
use pointsto::{PointsTo, PtsClass};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, Mutex};

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
    analyze_program_with_library(program, pt, config, &LibrarySpec::new())
}

/// Like [`analyze_program`], but treats functions with entries in `lib`
/// as pre-compiled: their bodies are not analyzed; their specifications
/// stand in (§4.3).
pub fn analyze_program_with_library(
    program: &Program,
    pt: &PointsTo,
    config: SchemeConfig,
    lib: &LibrarySpec,
) -> ProgramAnalysis {
    analyze_program_with_opts(program, pt, config, lib, 0)
}

/// Full-control single-config entry point: `threads` is the worker
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
    let modsets = compute_modsets(program, pt, lib);
    let preds: Vec<Vec<Vec<u32>>> = program
        .functions
        .iter()
        .map(|f| predecessors(&f.body))
        .collect();
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
    let n_threads = crate::worker_count(threads, secs.len());
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
    classes: HashSet<PtsClass>,
    /// Conservative escape hatch.
    top: bool,
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
                        sets[i].classes.insert(c);
                    }
                }
                Instr::Assign(v, rv) => {
                    if !program.var(*v).is_thread_local() {
                        sets[i].classes.insert(pt.class_of_var(*v));
                    }
                    if let Rvalue::Call(g, _) = rv {
                        calls[i].push(*g);
                    }
                }
                _ => {}
            }
        }
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
                let before = cur.classes.len();
                let top = cur.top | callee.top;
                cur.classes.extend(callee.classes.iter().copied());
                if cur.classes.len() != before || top != cur.top {
                    cur.top = top;
                    changed = true;
                }
            }
        }
    }
    sets
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
    if ms.top {
        return true;
    }
    // Walk the class of each prefix; a Deref reads the cell of the
    // class accumulated so far.
    let mut class = Some(pt.class_of_var(path.base));
    for op in &path.ops {
        match op {
            PathOp::Deref => {
                let Some(c) = class else { return false };
                if ms.classes.contains(&c) {
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
                if !info.is_thread_local() && ms.classes.contains(&pt.class_of_var(*z)) {
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
    modsets: &'a [ModSet],
    /// Predecessor tables, indexed by function id then program point.
    preds: &'a [Vec<Vec<u32>>],
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

/// Tag on a [`PointState`] entry that was subsumed by a later arrival.
const DEAD: u32 = 1 << 31;

/// "No state yet" in a context's point table.
const NO_STATE: u32 = u32::MAX;

/// Dataflow state of one `(context, point)`: every local lock id that
/// was inserted here, in arrival order. The entries without the `DEAD`
/// tag are the current antichain; `facts[drained..]` is the frontier
/// not yet propagated. An antichain member is only ever removed by a
/// larger arrival, which keeps covering it, so no id is inserted twice
/// and the frontier needs no dedup. Dead entries are dropped once
/// propagated, which bounds the list by twice `WIDTH_LIMIT`.
#[derive(Default)]
struct PointState {
    facts: Vec<u32>,
    drained: u32,
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
    modsets: &'a [ModSet],
    preds: &'a [Vec<Vec<u32>>],
    cache: Option<&'a SummaryCache>,
    root: Option<(FnId, AtomicRegion)>,
    locks: LockCache,
    ctxdb: Vec<Ctx>,
    ctx_ids: IdMap<Ctx, u32>,
    /// Per context, the index into `states` of each program point of
    /// its function (`NO_STATE` until a fact arrives). A context's
    /// table is sized on its first fact, a state on its own.
    points: Vec<Vec<u32>>,
    states: Vec<PointState>,
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
    gen_entry: IdMap<FnId, Vec<u32>>,
    query_entry: IdMap<(FnId, u32), Vec<u32>>,
    gen_dependents: IdMap<FnId, Vec<Site>>,
    query_dependents: IdMap<(FnId, u32), Vec<(Site, Eff)>>,
    started_queries: IdSet<(FnId, u32)>,
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
            points: Vec::new(),
            states: Vec::new(),
            queue: Vec::new(),
            transfer_memo: IdMap::default(),
            unmap_memo: IdMap::default(),
            memo_ids: Vec::new(),
            gen_entry: IdMap::default(),
            query_entry: IdMap::default(),
            gen_dependents: IdMap::default(),
            query_dependents: IdMap::default(),
            started_queries: IdSet::default(),
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
        let arcs = &self.locks.arcs;
        let sorted = |ids: Option<&Vec<u32>>| {
            let mut ids = ids.cloned().unwrap_or_default();
            ids.sort_by(|&a, &b| arcs[a as usize].cmp(&arcs[b as usize]));
            ids
        };
        let gen = gen_fns
            .iter()
            .map(|&f| (f, sorted(self.gen_entry.get(&f))))
            .collect();
        let query = self
            .started_queries
            .iter()
            .map(|&key| (key, sorted(self.query_entry.get(&key))))
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
        self.points.push(Vec::new());
        self.stats.contexts += 1;
        id
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
        while let Some((ctx, idx)) = self.queue.pop() {
            let slot = self.points[ctx as usize][idx as usize];
            let st = &mut self.states[slot as usize];
            ids.clear();
            ids.extend(st.facts[st.drained as usize..].iter().map(|e| e & !DEAD));
            ids.sort_unstable();
            st.facts.retain(|e| e & DEAD == 0);
            st.drained = st.facts.len() as u32;
            for &lid in &ids {
                self.stats.pops += 1;
                self.process(ctx, idx, lid);
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
        if self.points[ctx as usize].is_empty() {
            let n_points = self.program.func(self.ctx_fn(ctx)).body.len() + 1;
            self.points[ctx as usize].resize(n_points, NO_STATE);
        }
        let slot = &mut self.points[ctx as usize][idx as usize];
        if *slot == NO_STATE {
            *slot = self.states.len() as u32;
            self.states.push(PointState::default());
            self.stats.state_points += 1;
        }
        let st = &mut self.states[*slot as usize];
        let recs = &self.locks.recs;
        let rec = recs[id as usize];
        let mut live = 0;
        for &e in &st.facts {
            if e & DEAD == 0 {
                if rec.leq(recs[e as usize]) {
                    return;
                }
                live += 1;
            }
        }
        // Widening: past the width bound, fall back to the lock's own
        // class (sent straight to the terminal).
        if live >= WIDTH_LIMIT {
            self.stats.widenings += 1;
            let coarse = self.locks.arcs[id as usize].coarsen();
            let cid = self.locks.intern(&coarse);
            return self.record_terminal(ctx, cid);
        }
        // Subsumed locks leave the antichain but keep their place in
        // the frontier: if they were scheduled, they still propagate
        // (the triple worklist of the reference engine behaves the same
        // way).
        for e in &mut st.facts {
            if *e & DEAD == 0 && recs[*e as usize].leq(rec) {
                *e |= DEAD;
                live -= 1;
            }
        }
        if st.drained as usize == st.facts.len() {
            self.queue.push((ctx, idx));
        }
        debug_assert!(
            st.facts.iter().all(|&e| e & !DEAD != id),
            "a lock is inserted at most once per (context, point)"
        );
        st.facts.push(id);
        self.stats.facts += 1;
        self.stats.peak = self.stats.peak.max(live + 1);
    }

    fn process(&mut self, ctx: u32, idx: u32, lid: u32) {
        debug_assert!(!self.locks.flow_insensitive[lid as usize]);
        if idx == 0 {
            self.record_terminal(ctx, lid);
            return;
        }
        let program = self.program;
        let func = self.ctx_fn(ctx);
        let preds = self.preds;
        let fpreds = &preds[func.0 as usize];
        let body = &program.func(func).body;
        let is_root = matches!(self.ctxdb[ctx as usize], Ctx::Root);
        let region = self.root.map(|(_, r)| r);
        for &q in &fpreds[idx as usize] {
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
        match self.ctxdb[ctx as usize] {
            Ctx::Root => self.record_result(id),
            Ctx::Gen(f) => {
                let fresh =
                    add_summary_lock(&self.locks.recs, self.gen_entry.entry(f).or_default(), id);
                if fresh {
                    let deps = self.gen_dependents.get(&f).cloned().unwrap_or_default();
                    for site in deps {
                        self.inject_unmapped(site, f, id, None);
                    }
                }
            }
            Ctx::Query(f, q) => {
                let key = (f, q);
                let fresh = add_summary_lock(
                    &self.locks.recs,
                    self.query_entry.entry(key).or_default(),
                    id,
                );
                if fresh {
                    let deps = self.query_dependents.get(&key).cloned().unwrap_or_default();
                    for (site, eff) in deps {
                        self.inject_unmapped(site, f, id, Some(eff));
                    }
                }
            }
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
                    .is_some_and(|p| must_route(program, self.pt, self.modsets, callee, p));
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
                let existing = self.query_entry.get(&key).cloned().unwrap_or_default();
                for le in existing {
                    self.inject_unmapped(site, callee, le, Some(want_eff));
                }
            }
            if self.started_queries.insert(key) {
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
        let existing = self.gen_entry.get(&callee).cloned().unwrap_or_default();
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
            // at most the effect changes, and no memo is needed.
            let entry = entry_term(self);
            if !entry.path.as_ref().is_some_and(|p| callee_only(p.base)) {
                let id = self.locks.intern(&entry);
                self.record_terminal(ctx, id);
            }
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
}

/// Subsumption insert for summary-entry sets; returns whether the lock
/// was new (not already covered).
fn add_summary_lock(recs: &[LockRec], set: &mut Vec<u32>, id: u32) -> bool {
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
}
