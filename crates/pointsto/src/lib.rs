//! # pointsto — Steensgaard's unification-based points-to analysis
//!
//! This crate implements the alias-analysis substrate of *Inferring
//! Locks for Atomic Sections* (PLDI 2008, §4.3): a flow-insensitive,
//! context-insensitive, field-insensitive points-to analysis in the
//! style of Steensgaard (POPL 1996). The result partitions all memory
//! locations (variable cells and allocation-site cells) into disjoint
//! equivalence classes, each with at most one points-to successor edge
//! `s → s'`.
//!
//! The lock inference uses this in two ways:
//!
//! * the classes are the *coarse-grain locks* of the `Σ≡` scheme: the
//!   lock `l_s` protects every location in class `s`;
//! * the `mayAlias(e1, e2)` oracle needed by the store transfer function
//!   `S_{*x=y}` is "the address expressions fall in the same class".
//!
//! ```
//! use pointsto::PointsTo;
//! let p = lir::compile("fn main(a, b) { a = b; let c = *a; }").unwrap();
//! let pt = PointsTo::analyze(&p);
//! let (a, b) = (p.functions[0].params[0], p.functions[0].params[1]);
//! // a and b were unified: *a and *b may alias.
//! assert_eq!(pt.deref(pt.class_of_var(a)), pt.deref(pt.class_of_var(b)));
//! ```

use lir::{FnId, Instr, PathExpr, PathOp, Program, Rvalue, VarId};
use std::fmt;

/// A points-to equivalence class (a *points-to set* in the paper's
/// terminology). Class ids are dense in `0..PointsTo::n_classes()` and
/// stable for the lifetime of the analysis result.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PtsClass(pub u32);

impl fmt::Debug for PtsClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// An allocation site: the instruction `Assign(_, Alloc|AllocDyn)` at
/// index `idx` of function `func`. Sites order by function, then
/// instruction — the order [`PointsTo::analyze`] discovers them in.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct AllocSite {
    pub func: FnId,
    pub idx: u32,
}

/// Result of the points-to analysis.
///
/// All queries are O(α) after construction, except
/// [`PointsTo::class_of_site`], a binary search over the sites.
#[derive(Debug)]
pub struct PointsTo {
    /// Union-find parents (frozen after `analyze`; queries use the
    /// compressed `canon` table instead).
    canon: Vec<u32>,
    /// Points-to successor per canonical cell (by raw cell index),
    /// `NO_SUCC` if none.
    succ: Vec<u32>,
    /// First cell index of the allocation-site block.
    n_vars: usize,
    /// Allocation sites in discovery order, which is sorted; cell of
    /// site `i` is `n_vars + i`.
    sites: Vec<AllocSite>,
    /// Dense class numbering: raw canonical cell → class id.
    class_of_cell: Vec<u32>,
    n_classes: u32,
    /// The cells of class `k`, ascending, are
    /// `members[member_start[k]..member_start[k + 1]]`.
    member_start: Vec<u32>,
    members: Vec<u32>,
}

/// "No successor" in a successor table.
const NO_SUCC: u32 = u32::MAX;

struct Builder {
    parent: Vec<u32>,
    /// Each cell's successor, `NO_SUCC` if none.
    succ: Vec<u32>,
    /// `unify`'s pending pairs, kept between calls for its capacity.
    work: Vec<(u32, u32)>,
}

impl Builder {
    fn new(n: usize) -> Self {
        Builder {
            parent: (0..n as u32).collect(),
            succ: vec![NO_SUCC; n],
            work: Vec::new(),
        }
    }

    fn fresh(&mut self) -> u32 {
        let id = self.parent.len() as u32;
        self.parent.push(id);
        self.succ.push(NO_SUCC);
        id
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x
    }

    /// Steensgaard's conditional join: union two classes and recursively
    /// merge their successors (iteratively, with a worklist).
    fn unify(&mut self, a: u32, b: u32) {
        self.work.push((a, b));
        while let Some((a, b)) = self.work.pop() {
            let (ra, rb) = (self.find(a), self.find(b));
            if ra == rb {
                continue;
            }
            self.parent[rb as usize] = ra;
            match (self.succ[ra as usize], self.succ[rb as usize]) {
                (_, NO_SUCC) => {}
                (NO_SUCC, sb) => self.succ[ra as usize] = sb,
                (sa, sb) => self.work.push((sa, sb)),
            }
        }
    }

    /// The successor class of `x`, created fresh if absent.
    fn deref(&mut self, x: u32) -> u32 {
        let r = self.find(x);
        match self.succ[r as usize] {
            NO_SUCC => {
                let s = self.fresh();
                self.succ[r as usize] = s;
                s
            }
            s => self.find(s),
        }
    }
}

impl PointsTo {
    /// Runs the analysis over a whole program.
    ///
    /// Every variable `v` owns the cell `v.0`; every allocation site
    /// gets one cell (field-insensitive: all cells of an allocation are
    /// one abstract location, exactly as the paper collapses array and
    /// struct offsets).
    pub fn analyze(program: &Program) -> PointsTo {
        // Type filter: a C front end would never unify through `int`
        // assignments (non-pointer values carry Steensgaard's ⊥ type).
        // Our cells are untyped, so we first compute which variables may
        // ever hold a location and skip value-flow rules for the rest —
        // otherwise integer stores (keys, counters) into object fields
        // would merge every structure's class through the shared
        // "integer" contents.
        PointsTo::analyze_filtered(program, &maybe_pointer_vars(program))
    }

    fn analyze_filtered(program: &Program, maybe_ptr: &[bool]) -> PointsTo {
        let n_vars = program.vars.len();
        // Discover allocation sites first so their cells are contiguous.
        let mut sites = Vec::new();
        for func in &program.functions {
            for (i, ins) in func.body.iter().enumerate() {
                if let Instr::Assign(_, Rvalue::Alloc(_) | Rvalue::AllocDyn(_)) = ins {
                    sites.push(AllocSite {
                        func: func.id,
                        idx: i as u32,
                    });
                }
            }
        }
        debug_assert!(sites.windows(2).all(|w| w[0] < w[1]), "sites are sorted");
        let mut b = Builder::new(n_vars + sites.len());
        let cell_of_var = |v: VarId| v.0;
        // The walk below meets the sites in discovery order.
        let mut next_site = n_vars as u32;

        for func in &program.functions {
            for ins in &func.body {
                match ins {
                    Instr::Assign(x, rv) => {
                        let cx = cell_of_var(*x);
                        match rv {
                            Rvalue::Copy(y) => {
                                if maybe_ptr[y.0 as usize] {
                                    let (px, py) = (b.deref(cx), b.deref(cell_of_var(*y)));
                                    b.unify(px, py);
                                }
                            }
                            Rvalue::AddrOf(y) => {
                                let px = b.deref(cx);
                                b.unify(px, cell_of_var(*y));
                            }
                            Rvalue::Load(y) => {
                                let py = b.deref(cell_of_var(*y));
                                let (px, ppy) = (b.deref(cx), b.deref(py));
                                b.unify(px, ppy);
                            }
                            Rvalue::FieldAddr(y, _) | Rvalue::DynAddr(y, _) => {
                                let (px, py) = (b.deref(cx), b.deref(cell_of_var(*y)));
                                b.unify(px, py);
                            }
                            Rvalue::Alloc(_) | Rvalue::AllocDyn(_) => {
                                let px = b.deref(cx);
                                b.unify(px, next_site);
                                next_site += 1;
                            }
                            Rvalue::Call(f, args) => {
                                let callee = program.func(*f);
                                for (formal, actual) in callee.params.iter().zip(args) {
                                    if maybe_ptr[actual.0 as usize] {
                                        let (pf, pa) = (
                                            b.deref(cell_of_var(*formal)),
                                            b.deref(cell_of_var(*actual)),
                                        );
                                        b.unify(pf, pa);
                                    }
                                }
                                if maybe_ptr[callee.ret.0 as usize] {
                                    let (px, pr) = (b.deref(cx), b.deref(cell_of_var(callee.ret)));
                                    b.unify(px, pr);
                                }
                            }
                            Rvalue::Null
                            | Rvalue::ConstInt(_)
                            | Rvalue::Arith(..)
                            | Rvalue::Cmp(..)
                            | Rvalue::Intrinsic(..) => {}
                        }
                    }
                    Instr::Store(x, y) if maybe_ptr[y.0 as usize] => {
                        let px = b.deref(cell_of_var(*x));
                        let (ppx, py) = (b.deref(px), b.deref(cell_of_var(*y)));
                        b.unify(ppx, py);
                    }
                    _ => {}
                }
            }
        }
        debug_assert_eq!(next_site as usize, n_vars + sites.len());

        PointsTo::freeze(b, n_vars, sites)
    }

    /// Freezes a builder: canonicalize every cell, densely number the
    /// classes (by first cell, so the numbering is deterministic), and
    /// rewrite successors to canonical representatives.
    fn freeze(mut b: Builder, n_vars: usize, sites: Vec<AllocSite>) -> PointsTo {
        let total = b.parent.len();
        let mut class_of_cell = vec![u32::MAX; total];
        let mut n_classes = 0u32;
        // Pointing each cell straight at its root leaves a union-find
        // whose parent table is the canonical one.
        for c in 0..total as u32 {
            let r = b.find(c);
            b.parent[c as usize] = r;
            if class_of_cell[r as usize] == u32::MAX {
                class_of_cell[r as usize] = n_classes;
                n_classes += 1;
            }
        }
        let canon = b.parent;
        let (member_start, members) = group(
            n_classes as usize,
            total,
            |c| class_of_cell[canon[c] as usize] as usize,
            |c| c as u32,
        );
        // Rewrite succ to canonical representatives, in place.
        let mut succ = b.succ;
        for (r, s) in succ.iter_mut().enumerate() {
            if *s != NO_SUCC {
                *s = if canon[r] == r as u32 {
                    canon[*s as usize]
                } else {
                    NO_SUCC
                };
            }
        }
        PointsTo {
            canon,
            succ,
            n_vars,
            sites,
            class_of_cell,
            n_classes,
            member_start,
            members,
        }
    }

    /// The cells of class `s`, ascending.
    fn members(&self, s: PtsClass) -> &[u32] {
        let k = s.0 as usize;
        &self.members[self.member_start[k] as usize..self.member_start[k + 1] as usize]
    }

    /// Number of points-to classes.
    pub fn n_classes(&self) -> u32 {
        self.n_classes
    }

    #[inline]
    fn class_of_raw(&self, cell: u32) -> PtsClass {
        PtsClass(self.class_of_cell[self.canon[cell as usize] as usize])
    }

    /// The class containing the *cell of variable* `v` — i.e. the
    /// points-to set of `&v` (the `x̄` operator of the `Σ≡` scheme).
    #[inline]
    pub fn class_of_var(&self, v: VarId) -> PtsClass {
        self.class_of_raw(v.0)
    }

    /// The class of the cells allocated at `site`, if the site exists.
    pub fn class_of_site(&self, site: AllocSite) -> Option<PtsClass> {
        let i = self.sites.binary_search(&site).ok()?;
        Some(self.class_of_raw((self.n_vars + i) as u32))
    }

    /// The points-to successor `s → s'`, if any pointer was ever stored
    /// in cells of `s`.
    #[inline]
    pub fn deref(&self, s: PtsClass) -> Option<PtsClass> {
        // Find a representative cell of the class.
        let rep = self.members(s)[0];
        let r = self.canon[rep as usize];
        match self.succ[r as usize] {
            NO_SUCC => None,
            t => Some(self.class_of_raw(t)),
        }
    }

    /// The class of locations denoted by a lock path expression
    /// (an address expression), or `None` when a dereference step has no
    /// successor edge (the expression can only evaluate to null or to a
    /// freshly separate region).
    pub fn class_of_path(&self, path: &PathExpr) -> Option<PtsClass> {
        let mut c = self.class_of_var(path.base);
        for op in &path.ops {
            match op {
                // Offsets — static fields and dynamic indices — stay
                // within the object's class (field-insensitive).
                PathOp::Field(_) | PathOp::Index(_) => {}
                PathOp::Deref => c = self.deref(c)?,
            }
        }
        Some(c)
    }

    /// The `mayAlias` oracle over address expressions: two lock paths
    /// may denote the same location iff they land in the same class.
    pub fn may_alias_paths(&self, a: &PathExpr, b: &PathExpr) -> bool {
        match (self.class_of_path(a), self.class_of_path(b)) {
            (Some(ca), Some(cb)) => ca == cb,
            _ => a == b,
        }
    }

    /// All allocation sites whose cells fall in class `s` — the sites
    /// a coarse lock on `s` covers (listed by `lockc --emit pointsto`).
    pub fn sites_in_class(&self, s: PtsClass) -> Vec<AllocSite> {
        self.members(s)
            .iter()
            .filter(|&&c| {
                c as usize >= self.n_vars && (c as usize) < self.n_vars + self.sites.len()
            })
            .map(|&c| self.sites[c as usize - self.n_vars])
            .collect()
    }

    /// All variables whose cells fall in class `s`.
    pub fn vars_in_class(&self, s: PtsClass) -> Vec<VarId> {
        self.members(s)
            .iter()
            .filter(|&&c| (c as usize) < self.n_vars)
            .map(|&c| VarId(c))
            .collect()
    }
}

/// Computes which variables may ever hold a memory location: the least
/// set closed under value flow that contains every variable assigned a
/// location. One pass over the program collects the seeds and the flow
/// edges (`x = y`, actual → formal, `ret_f` → call result); a worklist
/// then closes the seeds over the edges. Conservative — anything read
/// from the heap counts as a possible pointer.
fn maybe_pointer_vars(program: &Program) -> Vec<bool> {
    let n = program.vars.len();
    let mut seeds = Vec::new();
    // (from, to): a location in `from` may flow into `to`.
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut called = vec![false; program.functions.len()];
    for func in &program.functions {
        for ins in &func.body {
            let Instr::Assign(x, rv) = ins else { continue };
            match rv {
                Rvalue::AddrOf(_)
                | Rvalue::Load(_)
                | Rvalue::FieldAddr(..)
                | Rvalue::DynAddr(..)
                | Rvalue::Alloc(_)
                | Rvalue::AllocDyn(_) => seeds.push(x.0),
                Rvalue::Copy(y) => edges.push((y.0, x.0)),
                Rvalue::Call(f, args) => {
                    called[f.0 as usize] = true;
                    let callee = program.func(*f);
                    for (formal, actual) in callee.params.iter().zip(args) {
                        edges.push((actual.0, formal.0));
                    }
                    edges.push((callee.ret.0, x.0));
                }
                Rvalue::Null
                | Rvalue::ConstInt(_)
                | Rvalue::Arith(..)
                | Rvalue::Cmp(..)
                | Rvalue::Intrinsic(..) => {}
            }
        }
    }
    // Parameters of entry functions (never called from inside the
    // program) receive values from the outside world: assume pointers.
    for func in &program.functions {
        if !called[func.id.0 as usize] {
            seeds.extend(func.params.iter().map(|p| p.0));
        }
    }
    let (start, to) = group(n, edges.len(), |i| edges[i].0 as usize, |i| edges[i].1);
    let mut maybe = vec![false; n];
    let mut work = Vec::new();
    for v in seeds {
        if !maybe[v as usize] {
            maybe[v as usize] = true;
            work.push(v);
        }
    }
    while let Some(v) = work.pop() {
        let (lo, hi) = (start[v as usize], start[v as usize + 1]);
        for &w in &to[lo as usize..hi as usize] {
            if !maybe[w as usize] {
                maybe[w as usize] = true;
                work.push(w);
            }
        }
    }
    maybe
}

/// Groups items `0..n` by `key(i) < n_keys` into one array: the
/// `value(i)` of key `k`'s items, in item order, are
/// `values[start[k]..start[k + 1]]`.
fn group(
    n_keys: usize,
    n: usize,
    key: impl Fn(usize) -> usize,
    value: impl Fn(usize) -> u32,
) -> (Vec<u32>, Vec<u32>) {
    // Counts, then where each key's run ends; filling from the last
    // item moves each end back to its run's start.
    let mut start = vec![0u32; n_keys + 1];
    for i in 0..n {
        start[key(i)] += 1;
    }
    let mut end = 0;
    for slot in &mut start {
        end += *slot;
        *slot = end;
    }
    let mut values = vec![0u32; n];
    for i in (0..n).rev() {
        let slot = &mut start[key(i)];
        *slot -= 1;
        values[*slot as usize] = value(i);
    }
    (start, values)
}

/// The round-robin fixpoint [`maybe_pointer_vars`] replaced (whole-
/// program passes until nothing changes), kept as its oracle.
#[cfg(test)]
fn reference_maybe_pointer_vars(program: &Program) -> Vec<bool> {
    let mut maybe = vec![false; program.vars.len()];
    let mut called = vec![false; program.functions.len()];
    for func in &program.functions {
        for ins in &func.body {
            if let Instr::Assign(_, Rvalue::Call(f, _)) = ins {
                called[f.0 as usize] = true;
            }
        }
    }
    for func in &program.functions {
        if !called[func.id.0 as usize] {
            for p in &func.params {
                maybe[p.0 as usize] = true;
            }
        }
    }
    let mut changed = true;
    while changed {
        changed = false;
        let set = |v: VarId, val: bool, maybe: &mut Vec<bool>, changed: &mut bool| {
            if val && !maybe[v.0 as usize] {
                maybe[v.0 as usize] = true;
                *changed = true;
            }
        };
        for func in &program.functions {
            for ins in &func.body {
                if let Instr::Assign(x, rv) = ins {
                    let val = match rv {
                        Rvalue::AddrOf(_)
                        | Rvalue::Load(_)
                        | Rvalue::FieldAddr(..)
                        | Rvalue::DynAddr(..)
                        | Rvalue::Alloc(_)
                        | Rvalue::AllocDyn(_) => true,
                        Rvalue::Copy(y) => maybe[y.0 as usize],
                        Rvalue::Call(f, args) => {
                            let callee = program.func(*f);
                            for (formal, actual) in callee.params.iter().zip(args) {
                                let v = maybe[actual.0 as usize];
                                set(*formal, v, &mut maybe, &mut changed);
                            }
                            maybe[callee.ret.0 as usize]
                        }
                        Rvalue::Null
                        | Rvalue::ConstInt(_)
                        | Rvalue::Arith(..)
                        | Rvalue::Cmp(..)
                        | Rvalue::Intrinsic(..) => false,
                    };
                    set(*x, val, &mut maybe, &mut changed);
                }
            }
        }
    }
    maybe
}

#[cfg(test)]
mod tests {
    use super::*;
    use lir::compile;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// Checks `program`'s points-to result against what the parts that
    /// were replaced would have said: the round-robin filter's flags, a
    /// site → class map built from the allocating instructions, the
    /// classes the reference flags produce, and a membership table
    /// rebuilt from the per-cell queries.
    fn check_against_reference(program: &Program) {
        let reference_flags = reference_maybe_pointer_vars(program);
        assert_eq!(maybe_pointer_vars(program), reference_flags, "filter flags");
        let pt = PointsTo::analyze(program);
        let reference = PointsTo::analyze_filtered(program, &reference_flags);
        assert_eq!(pt.n_classes(), reference.n_classes());
        for v in 0..program.vars.len() as u32 {
            let v = VarId(v);
            assert_eq!(pt.class_of_var(v), reference.class_of_var(v));
        }
        // A site's cells are where its destination points.
        let mut sites: HashMap<AllocSite, PtsClass> = HashMap::new();
        for func in &program.functions {
            for (i, ins) in func.body.iter().enumerate() {
                if let Instr::Assign(x, Rvalue::Alloc(_) | Rvalue::AllocDyn(_)) = ins {
                    let site = AllocSite {
                        func: func.id,
                        idx: i as u32,
                    };
                    sites.insert(site, pt.deref(pt.class_of_var(*x)).unwrap());
                }
            }
        }
        for func in &program.functions {
            for idx in 0..=func.body.len() as u32 + 1 {
                let site = AllocSite { func: func.id, idx };
                assert_eq!(
                    pt.class_of_site(site),
                    sites.get(&site).copied(),
                    "{site:?}"
                );
            }
        }
        // Every variable and site is listed exactly once, in its class.
        let mut vars_seen = vec![false; program.vars.len()];
        let mut sites_seen = 0;
        for c in 0..pt.n_classes() {
            let class = PtsClass(c);
            for v in pt.vars_in_class(class) {
                assert_eq!(pt.class_of_var(v), class);
                assert!(!std::mem::replace(&mut vars_seen[v.0 as usize], true));
            }
            for site in pt.sites_in_class(class) {
                assert_eq!(sites[&site], class);
                sites_seen += 1;
            }
            assert!(pt.members(class).windows(2).all(|w| w[0] < w[1]));
        }
        assert!(vars_seen.iter().all(|&seen| seen));
        assert_eq!(sites_seen, sites.len());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn matches_the_replaced_parts_on_random_programs(
            seed in 0u64..5000,
            stmts in 10usize..80,
        ) {
            let spec = workloads::fuzz::runnable(seed, stmts);
            check_against_reference(&compile(&spec.source).unwrap());
        }
    }

    #[test]
    fn matches_the_replaced_parts_on_the_benchmarks() {
        let kernels = workloads::micro::all(workloads::Contention::High, 100, 10)
            .into_iter()
            .chain(workloads::stamp::all(100, 10));
        for spec in kernels {
            check_against_reference(&compile(&spec.source).unwrap());
        }
    }

    fn var(p: &Program, f: usize, name: &str) -> VarId {
        let func = &p.functions[f];
        *func
            .locals
            .iter()
            .chain(&func.params)
            .find(|v| p.var_name(**v) == name)
            .unwrap_or_else(|| panic!("no var {name}"))
    }

    #[test]
    fn copy_unifies_targets() {
        let p = compile("fn main(a, b) { a = b; }").unwrap();
        let pt = PointsTo::analyze(&p);
        let (a, b) = (var(&p, 0, "a"), var(&p, 0, "b"));
        // Cells of a and b stay distinct…
        assert_ne!(pt.class_of_var(a), pt.class_of_var(b));
        // …but their contents point into the same class.
        assert_eq!(pt.deref(pt.class_of_var(a)), pt.deref(pt.class_of_var(b)));
        assert!(pt.deref(pt.class_of_var(a)).is_some());
    }

    #[test]
    fn addr_of_points_at_the_cell() {
        let p = compile("fn main() { let x = null; let y = &x; }").unwrap();
        let pt = PointsTo::analyze(&p);
        let (x, y) = (var(&p, 0, "x"), var(&p, 0, "y"));
        assert_eq!(pt.deref(pt.class_of_var(y)), Some(pt.class_of_var(x)));
    }

    #[test]
    fn allocation_sites_partition() {
        let p = compile(
            "struct s { f; }
             fn main() { let a = new s; let b = new s; let c = a; }",
        )
        .unwrap();
        let pt = PointsTo::analyze(&p);
        let (a, b, c) = (var(&p, 0, "a"), var(&p, 0, "b"), var(&p, 0, "c"));
        // a and c share a target; b is separate (no flow between them).
        assert_eq!(pt.deref(pt.class_of_var(a)), pt.deref(pt.class_of_var(c)));
        assert_ne!(pt.deref(pt.class_of_var(a)), pt.deref(pt.class_of_var(b)));
        // Each target class contains its allocation site.
        let sa = pt.deref(pt.class_of_var(a)).unwrap();
        assert_eq!(pt.sites_in_class(sa).len(), 1);
    }

    #[test]
    fn flow_insensitivity_merges_both_branches() {
        // Figure 2 of the paper: x may alias y after the conditional.
        let p = compile(
            "struct s { data; }
             fn main(y, w) {
                 let x = null;
                 if (w == null) { x = y; }
                 atomic { x->data = w; let z = y->data; *z = null; }
             }",
        )
        .unwrap();
        let pt = PointsTo::analyze(&p);
        let (x, y) = (var(&p, 0, "x"), var(&p, 0, "y"));
        assert_eq!(pt.deref(pt.class_of_var(x)), pt.deref(pt.class_of_var(y)));
        // mayAlias(*x̄, *ȳ) should hold.
        let px = PathExpr {
            base: x,
            ops: vec![lir::PathOp::Deref],
        };
        let py = PathExpr {
            base: y,
            ops: vec![lir::PathOp::Deref],
        };
        assert!(pt.may_alias_paths(&px, &py));
    }

    #[test]
    fn disjoint_structures_stay_disjoint() {
        // The TH benchmark property: two structures never mixed stay in
        // different classes, so coarse locks allow parallelism.
        let p = compile(
            "struct node { next; }
             global tree, table;
             fn main() {
                 tree = new node;
                 table = new node;
                 tree->next = new node;
                 table->next = new node;
             }",
        )
        .unwrap();
        let pt = PointsTo::analyze(&p);
        let tree = p.globals[0];
        let table = p.globals[1];
        assert_ne!(
            pt.deref(pt.class_of_var(tree)),
            pt.deref(pt.class_of_var(table))
        );
    }

    #[test]
    fn store_through_pointer_unifies() {
        let p = compile("fn main(p, q, v) { *p = v; let u = *q; p = q; }").unwrap();
        let pt = PointsTo::analyze(&p);
        let (v, u) = (var(&p, 0, "v"), var(&p, 0, "u"));
        // p = q merges the pointees, so what v flowed into can be read at u.
        assert_eq!(pt.deref(pt.class_of_var(v)), pt.deref(pt.class_of_var(u)));
    }

    #[test]
    fn calls_unify_formals_and_returns() {
        let p = compile(
            "fn id(a) { return a; }
             fn main(m) { let r = id(m); }",
        )
        .unwrap();
        let pt = PointsTo::analyze(&p);
        let m = var(&p, 1, "m");
        let r = var(&p, 1, "r");
        assert_eq!(pt.deref(pt.class_of_var(m)), pt.deref(pt.class_of_var(r)));
    }

    #[test]
    fn path_classes_follow_edges() {
        let p = compile(
            "struct list { head; }
             fn main(l) { let h = l->head; let e = *h; }",
        )
        .unwrap();
        let pt = PointsTo::analyze(&p);
        let l = var(&p, 0, "l");
        // &l, value-of-l (one deref), head cell (deref+field = same class).
        let c0 = pt.class_of_path(&PathExpr::var(l)).unwrap();
        let c1 = pt
            .class_of_path(&PathExpr {
                base: l,
                ops: vec![lir::PathOp::Deref],
            })
            .unwrap();
        assert_ne!(c0, c1);
        let head_f = lir::FieldId(
            p.fields
                .iter()
                .position(|f| p.interner.resolve(f.name) == "head")
                .unwrap() as u32,
        );
        let c2 = pt
            .class_of_path(&PathExpr {
                base: l,
                ops: vec![lir::PathOp::Deref, lir::PathOp::Field(head_f)],
            })
            .unwrap();
        assert_eq!(c1, c2, "field offsets stay in the object's class");
    }

    #[test]
    fn null_only_paths_have_no_class() {
        let p = compile("fn main() { let x = null; }").unwrap();
        let pt = PointsTo::analyze(&p);
        let x = var(&p, 0, "x");
        let deref_x = PathExpr {
            base: x,
            ops: vec![lir::PathOp::Deref],
        };
        assert_eq!(pt.class_of_path(&deref_x), None);
        // Syntactically equal paths still alias themselves.
        assert!(pt.may_alias_paths(&deref_x, &deref_x));
    }

    #[test]
    fn classes_are_dense() {
        let p = compile("fn main(a) { let b = a; let c = new(3); }").unwrap();
        let pt = PointsTo::analyze(&p);
        for v in 0..p.vars.len() as u32 {
            assert!(pt.class_of_var(VarId(v)).0 < pt.n_classes());
        }
    }
}
