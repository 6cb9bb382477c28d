//! The retained *naive reference solver*.
//!
//! This is the dataflow engine as it existed before the throughput
//! rewrite of [`crate::dataflow`]: per-section `Vec<LockId>` state with
//! linear membership/subsumption scans, a `(ctx, point, lock)`-triple
//! LIFO worklist, engine-local lock interning, and **no** sharing of
//! function summaries across sections — every section re-derives the
//! summaries of every callee it reaches.
//!
//! It exists for two reasons:
//!
//! * **correctness oracle** — the differential property test
//!   (`tests/differential.rs`) asserts the optimized engine computes
//!   exactly the same per-section lock sets on random programs;
//! * **perf baseline** — `analysis-bench` times it against the
//!   optimized engine to produce the before/after numbers in
//!   `BENCH_analysis.json`.
//!
//! Its transfer semantics (including the width-bound widening of
//! §3.3) are identical to the optimized engine's; only the data plane
//! differs. Keep it simple, not fast.

use crate::dataflow::{compute_modsets, ModSet, SectionResult, WIDTH_LIMIT};
use crate::library::LibrarySpec;
use crate::transfer::{TransferCtx, Transferred};
use lir::cfg::{atomic_regions, predecessors, AtomicRegion, Predecessors};
use lir::{Eff, FnId, Instr, Program, Rvalue, VarId, VarKind};
use lockscheme::abslock::prune_redundant;
use lockscheme::{AbsLock, ConfigMap, SchemeConfig};
use pointsto::PointsTo;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

/// Runs the naive per-section inference for every atomic section of
/// `program`, with the same result shape as the optimized
/// [`crate::dataflow::analyze_program`].
pub fn analyze_program_reference(
    program: &Program,
    pt: &PointsTo,
    config: SchemeConfig,
    lib: &LibrarySpec,
) -> Vec<SectionResult> {
    analyze_program_reference_with_configs(program, pt, &ConfigMap::uniform(config), lib)
}

/// Per-section-config variant of [`analyze_program_reference`]: each
/// section is solved under `configs.for_section(id)`, mirroring
/// [`crate::dataflow::analyze_program_with_configs`]. Each `RefEngine`
/// already carries its own config, so the oracle stays the naive,
/// obviously-correct baseline the differential tests compare against.
fn analyze_program_reference_with_configs(
    program: &Program,
    pt: &PointsTo,
    configs: &ConfigMap,
    lib: &LibrarySpec,
) -> Vec<SectionResult> {
    let modsets = compute_modsets(program, pt, lib);
    let mut sections = Vec::new();
    for func in &program.functions {
        for region in atomic_regions(&func.body) {
            let config = configs.for_section(region.id.0);
            let locks = RefEngine::new(program, pt, config, func.id, region, lib, &modsets).run();
            sections.push(SectionResult {
                id: region.id,
                func: func.id,
                enter: region.enter,
                exit: region.exit,
                locks,
            });
        }
    }
    sections.sort_by_key(|s| s.id);
    sections
}

/// Engine-local interned lock index.
type LockId = u32;
/// Engine-local interned context index.
type CtxId = u32;
/// A call site awaiting summary results.
type Site = (CtxId, u32);

/// Analysis context: which instance of the dataflow a fact belongs to.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
enum Ctx {
    /// The atomic region itself, in the section's function.
    Root,
    /// The query-independent pass over a callee collecting its own
    /// accesses.
    Gen(FnId),
    /// A summary computation: push this exit lock (always `rw`-
    /// canonical) through the callee.
    Query(FnId, LockId),
}

struct RefEngine<'a> {
    program: &'a Program,
    pt: &'a PointsTo,
    config: SchemeConfig,
    tctx: TransferCtx<'a>,
    lib: &'a LibrarySpec,
    root_fn: FnId,
    region: AtomicRegion,
    modsets: &'a [ModSet],
    bodies: HashMap<FnId, Rc<Vec<Instr>>>,
    preds: HashMap<FnId, Rc<Predecessors>>,
    // Interners.
    lockdb: Vec<AbsLock>,
    lock_ids: HashMap<AbsLock, LockId>,
    ctxdb: Vec<Ctx>,
    ctx_ids: HashMap<Ctx, CtxId>,
    // Dataflow state.
    state: HashMap<(CtxId, u32), Vec<LockId>>,
    worklist: Vec<(CtxId, u32, LockId)>,
    gen_entry: HashMap<FnId, Vec<LockId>>,
    query_entry: HashMap<(FnId, LockId), Vec<LockId>>,
    gen_dependents: HashMap<FnId, Vec<Site>>,
    query_dependents: HashMap<(FnId, LockId), Vec<(Site, Eff)>>,
    started_queries: HashSet<(FnId, LockId)>,
    result: Vec<AbsLock>,
}

impl<'a> RefEngine<'a> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        program: &'a Program,
        pt: &'a PointsTo,
        config: SchemeConfig,
        root_fn: FnId,
        region: AtomicRegion,
        lib: &'a LibrarySpec,
        modsets: &'a [ModSet],
    ) -> Self {
        let tctx = TransferCtx {
            program,
            pt,
            elem: config.elem_field,
        };
        RefEngine {
            program,
            pt,
            config,
            tctx,
            lib,
            root_fn,
            region,
            modsets,
            bodies: HashMap::new(),
            preds: HashMap::new(),
            lockdb: Vec::new(),
            lock_ids: HashMap::new(),
            ctxdb: Vec::new(),
            ctx_ids: HashMap::new(),
            state: HashMap::new(),
            worklist: Vec::new(),
            gen_entry: HashMap::new(),
            query_entry: HashMap::new(),
            gen_dependents: HashMap::new(),
            query_dependents: HashMap::new(),
            started_queries: HashSet::new(),
            result: Vec::new(),
        }
    }

    fn run(mut self) -> Vec<AbsLock> {
        self.seed();
        while let Some((ctx, idx, lock)) = self.worklist.pop() {
            self.process(ctx, idx, lock);
        }
        let mut result = std::mem::take(&mut self.result);
        prune_redundant(&mut result);
        result
    }

    fn intern_lock(&mut self, lock: AbsLock) -> LockId {
        if let Some(&id) = self.lock_ids.get(&lock) {
            return id;
        }
        let id = self.lockdb.len() as LockId;
        self.lockdb.push(lock.clone());
        self.lock_ids.insert(lock, id);
        id
    }

    fn intern_ctx(&mut self, ctx: Ctx) -> CtxId {
        if let Some(&id) = self.ctx_ids.get(&ctx) {
            return id;
        }
        let id = self.ctxdb.len() as CtxId;
        self.ctxdb.push(ctx.clone());
        self.ctx_ids.insert(ctx, id);
        id
    }

    fn ctx_fn(&self, ctx: CtxId) -> FnId {
        match &self.ctxdb[ctx as usize] {
            Ctx::Root => self.root_fn,
            Ctx::Gen(f) | Ctx::Query(f, _) => *f,
        }
    }

    /// Seeds `G`-set facts for the root region and every reachable
    /// callee, registers gen-dependence of call sites, and precomputes
    /// predecessor tables.
    fn seed(&mut self) {
        let scope = self.scope();
        for f in &scope {
            let body = &self.program.func(*f).body;
            self.preds.insert(*f, Rc::new(predecessors(body)));
            self.bodies.insert(*f, Rc::new(body.clone()));
        }
        let root_ctx = self.intern_ctx(Ctx::Root);
        let root_body = Rc::clone(&self.bodies[&self.root_fn]);
        for idx in (self.region.enter + 1)..self.region.exit {
            self.seed_instr(root_ctx, idx, &root_body[idx as usize]);
        }
        for f in scope.iter().skip(1) {
            let gen_ctx = self.intern_ctx(Ctx::Gen(*f));
            let body = Rc::clone(&self.bodies[f]);
            for (idx, ins) in body.iter().enumerate() {
                self.seed_instr(gen_ctx, idx as u32, ins);
            }
        }
    }

    fn seed_instr(&mut self, ctx: CtxId, idx: u32, ins: &Instr) {
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
            if let Some(summary) = lib.get(*callee) {
                // Opaque callee: its specification's coarse locks stand
                // in for its accesses.
                for l in &summary.locks {
                    self.add_fact(ctx, idx, l.clone());
                }
            } else {
                self.register_gen_dep(*callee, (ctx, idx));
            }
        }
    }

    /// Functions whose bodies take part in this section's analysis:
    /// everything transitively callable from the region, stopping at
    /// opaque library functions.
    fn scope(&self) -> Vec<FnId> {
        let mut seen = vec![false; self.program.functions.len()];
        let mut stack = Vec::new();
        let root_body = &self.program.func(self.root_fn).body;
        let visit = |f: FnId, seen: &mut Vec<bool>, stack: &mut Vec<FnId>| {
            if !seen[f.0 as usize] && !self.lib.is_external(f) {
                seen[f.0 as usize] = true;
                stack.push(f);
            }
        };
        for ins in &root_body[self.region.enter as usize..=self.region.exit as usize] {
            if let Instr::Assign(_, Rvalue::Call(f, _)) = ins {
                visit(*f, &mut seen, &mut stack);
            }
        }
        let mut out = vec![self.root_fn];
        while let Some(f) = stack.pop() {
            out.push(f);
            for ins in &self.program.func(f).body {
                if let Instr::Assign(_, Rvalue::Call(g, _)) = ins {
                    visit(*g, &mut seen, &mut stack);
                }
            }
        }
        out
    }

    fn add_fact(&mut self, ctx: CtxId, idx: u32, lock: AbsLock) {
        let Some(lock) = self.config.normalize(lock, self.pt) else {
            return;
        };
        // Flow-insensitive locks jump straight to the context's
        // terminal.
        if lock.is_flow_insensitive() {
            self.record_terminal(ctx, lock);
            return;
        }
        let id = self.intern_lock(lock);
        self.add_fact_id(ctx, idx, id);
    }

    fn add_fact_id(&mut self, ctx: CtxId, idx: u32, id: LockId) {
        let lockdb = &self.lockdb;
        let lock = &lockdb[id as usize];
        let set = self.state.entry((ctx, idx)).or_default();
        if set
            .iter()
            .any(|&l| l == id || lock.leq(&lockdb[l as usize]))
        {
            return;
        }
        // Widening: past the width bound, fall back to the lock's own
        // class (sent straight to the terminal).
        if set.len() >= WIDTH_LIMIT {
            let coarse = lock.coarsen();
            return self.record_terminal(ctx, coarse);
        }
        set.retain(|&l| !lockdb[l as usize].leq(lock));
        set.push(id);
        self.worklist.push((ctx, idx, id));
    }

    fn process(&mut self, ctx: CtxId, idx: u32, lock_id: LockId) {
        let func = self.ctx_fn(ctx);
        if idx == 0 {
            let lock = self.lockdb[lock_id as usize].clone();
            self.record_terminal(ctx, lock);
            return;
        }
        let preds = Rc::clone(&self.preds[&func]);
        let body = Rc::clone(&self.bodies[&func]);
        let is_root = matches!(self.ctxdb[ctx as usize], Ctx::Root);
        for &q in preds.at(idx) {
            let ins = &body[q as usize];
            // Stop at (and record) the section's own entry.
            if is_root && q == self.region.enter {
                debug_assert!(matches!(ins, Instr::EnterAtomic(s) if *s == self.region.id));
                let lock = self.lockdb[lock_id as usize].clone();
                self.record_result(lock);
                continue;
            }
            let lock = self.lockdb[lock_id as usize].clone();
            match self.tctx.transfer_lock(ins, &lock) {
                Transferred::Through(locks) => {
                    for l in locks {
                        self.add_fact(ctx, q, l);
                    }
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

    /// A fact reached its context's terminal — the section entry for
    /// Root (either by propagation or via the flow-insensitive
    /// shortcut), the function entry for summaries: update the summary
    /// and replay it at every dependent call site.
    fn record_terminal(&mut self, ctx: CtxId, lock: AbsLock) {
        match self.ctxdb[ctx as usize].clone() {
            Ctx::Root => self.record_result(lock),
            Ctx::Gen(f) => {
                let id = self.intern_lock(lock);
                if add_summary_lock(&self.lockdb, self.gen_entry.entry(f).or_default(), id) {
                    let deps = self.gen_dependents.get(&f).cloned().unwrap_or_default();
                    for site in deps {
                        self.inject_unmapped(site, f, id, None);
                    }
                }
            }
            Ctx::Query(f, q) => {
                let id = self.intern_lock(lock);
                let key = (f, q);
                if add_summary_lock(&self.lockdb, self.query_entry.entry(key).or_default(), id) {
                    let deps = self.query_dependents.get(&key).cloned().unwrap_or_default();
                    for (site, eff) in deps {
                        self.inject_unmapped(site, f, id, Some(eff));
                    }
                }
            }
        }
    }

    /// Handles a fine lock flowing backward over `dest = callee(args)`:
    /// map it into the callee, start/reuse the (rw-canonical) summary
    /// query, register the dependency.
    fn route_through_call(
        &mut self,
        ctx: CtxId,
        call_idx: u32,
        callee: FnId,
        dest: VarId,
        lock: &AbsLock,
    ) {
        let ret = self.program.func(callee).ret;
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
                && m.path.as_ref().is_some_and(|p| {
                    crate::dataflow::must_route(self.program, self.pt, self.modsets, callee, p)
                });
            if !needs_summary {
                self.add_fact(ctx, call_idx, m);
                continue;
            }
            // Canonicalize the query to rw: transfer functions never
            // change effects, so a ro query would compute the same
            // entries modulo the effect tag.
            let want_eff = m.eff;
            let canonical = AbsLock { eff: Eff::Rw, ..m };
            let mid = self.intern_lock(canonical.clone());
            let key = (callee, mid);
            let site = (ctx, call_idx);
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
                let exit = self.program.func(callee).body.len() as u32;
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
        ctx: CtxId,
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
    /// (Gen) locks, replaying any already known.
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
        entry_lock: LockId,
        eff_override: Option<Eff>,
    ) {
        let (ctx, call_idx) = site;
        let func = self.ctx_fn(ctx);
        let body = Rc::clone(&self.bodies[&func]);
        let Instr::Assign(_, Rvalue::Call(f, args)) = &body[call_idx as usize] else {
            unreachable!("dependent site is a call instruction");
        };
        debug_assert_eq!(*f, callee);
        let params = self.program.func(callee).params.clone();
        let mut entry = self.lockdb[entry_lock as usize].clone();
        if let Some(eff) = eff_override {
            entry.eff = eff;
        }
        let mut locks = vec![entry];
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
        let site_fn = func;
        for mut l in locks {
            if let Some(p) = &mut l.path {
                for op in &mut p.ops {
                    if let lir::PathOp::Index(z) = op {
                        let info = self.program.var(*z);
                        if info.owner == Some(callee)
                            && callee != site_fn
                            && info.kind != VarKind::Global
                        {
                            *op = lir::PathOp::Field(
                                self.config
                                    .elem_field
                                    .expect("dyn indices imply a [] field"),
                            );
                        }
                    }
                }
            }
            let owned_by_callee = match &l.path {
                Some(p) => {
                    let info = self.program.var(p.base);
                    // At a recursive call site caller and callee frames
                    // share variable ids; keep the lock then.
                    info.owner == Some(callee) && callee != site_fn && info.kind != VarKind::Global
                }
                None => false,
            };
            if !owned_by_callee {
                self.add_fact(ctx, call_idx, l);
            }
        }
    }

    fn record_result(&mut self, lock: AbsLock) {
        if !self.result.contains(&lock) {
            self.result.push(lock);
        }
    }
}

/// Subsumption insert for summary-entry sets; returns whether the lock
/// was new (not already covered).
fn add_summary_lock(lockdb: &[AbsLock], set: &mut Vec<LockId>, id: LockId) -> bool {
    let lock = &lockdb[id as usize];
    if set
        .iter()
        .any(|&l| l == id || lock.leq(&lockdb[l as usize]))
    {
        return false;
    }
    set.retain(|&l| !lockdb[l as usize].leq(lock));
    set.push(id);
    true
}
