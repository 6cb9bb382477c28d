//! Backward transfer functions (paper Figure 4), implemented — as §4.3
//! prescribes — by *recursive substitution over lock expressions* rather
//! than by materializing the closure relations.
//!
//! A fine lock is a linear path `x̄ · op₁ · op₂ · …`. The `S` relation of
//! each assignment form rewrites the innermost subterm `*x̄`; because
//! paths are linear, that is a rewrite of the path's head:
//!
//! | statement   | subterm rewrite            | path rewrite                       |
//! |-------------|----------------------------|------------------------------------|
//! | `x = y`     | `*x̄ → *ȳ`                  | base `x→y`                          |
//! | `x = &y`    | `*x̄ → ȳ`                   | base `x→y`, drop leading `Deref`    |
//! | `x = *y`    | `*x̄ → *(*ȳ)`               | base `x→y`, add one `Deref`         |
//! | `x = y + i` | `*x̄ → *ȳ + i`              | base `x→y`, insert `Field(i)`       |
//! | `x = new`   | lock is unreachable before | drop the lock                       |
//! | `*x = y`    | `*(l) → *ȳ` for `l ~ *x̄`   | rebase at each aliased `Deref`      |
//!
//! The `Q` sets become *strong updates*: the identity mapping is removed
//! exactly when the rewritten subterm occurs syntactically (`closure(Q)`
//! wraps the pair in arbitrary contexts, which for linear paths means
//! "the lock starts with the killed subterm").

use lir::{Eff, FieldId, Instr, PathExpr, PathOp, Program, Rvalue, VarId};
use lockscheme::AbsLock;
use pointsto::PointsTo;

/// Shared context for the transfer functions.
#[derive(Clone, Copy)]
pub struct TransferCtx<'a> {
    pub program: &'a Program,
    pub pt: &'a PointsTo,
    /// The dynamic `[]` pseudo-field, used to abstract `DynAddr`.
    pub elem: Option<FieldId>,
}

/// Outcome of pushing one lock backward across one instruction.
///
/// `Through(..)` carries the ordinary result; `Call` signals that the
/// instruction is a function call the dataflow engine must route through
/// the callee's summary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Transferred {
    Through(Vec<AbsLock>),
    Call { callee: lir::FnId, dest: VarId },
}

/// True when pushing the fine lock `lock` backward across `instr` is
/// provably the identity, read off the instruction alone: it writes no
/// cell, or assigns a variable the lock neither starts at nor indexes
/// by. Calls and stores depend on mod-ref and alias facts and always
/// answer `false`.
pub fn leaves_untouched(instr: &Instr, lock: &AbsLock) -> bool {
    match instr {
        Instr::Assign(_, Rvalue::Call(..)) | Instr::Store(..) => false,
        Instr::Assign(x, _) => lock
            .path
            .as_ref()
            .is_some_and(|p| p.base != *x && !p.ops.contains(&PathOp::Index(*x))),
        _ => true,
    }
}

impl TransferCtx<'_> {
    /// Pushes `lock` backward across `instr`: the locks at the point
    /// before the instruction that protect everything `lock` protected
    /// after it (the `T` relation — the `G` sets are seeded separately,
    /// see [`TransferCtx::gen_locks`]).
    ///
    /// Coarse locks (`path == None`) are flow-insensitive and pass
    /// through every statement unchanged (§4.3).
    pub fn transfer_lock(&self, instr: &Instr, lock: &AbsLock) -> Transferred {
        if let Instr::Assign(dest, Rvalue::Call(f, _)) = instr {
            let needs_summary = match &lock.path {
                None => false,
                Some(p) => !p.ops.is_empty(),
            };
            if needs_summary {
                return Transferred::Call {
                    callee: *f,
                    dest: *dest,
                };
            }
            // `x̄` locks and coarse locks are unaffected by the callee's
            // body: a caller frame slot is written only by `Assign` in
            // the caller, or through its address — and then the lock
            // path would carry a deref and take the summary route.
            return Transferred::Through(vec![lock.clone()]);
        }
        let Some(path) = &lock.path else {
            return Transferred::Through(vec![lock.clone()]);
        };
        let out = match instr {
            Instr::Assign(x, rv) => self.transfer_assign(*x, rv, path, lock.eff),
            Instr::Store(x, y) => self.transfer_store(*x, *y, path, lock.eff),
            // Control flow, atomic markers, and acquire/release neither
            // define variables nor write cells: identity.
            Instr::EnterAtomic(_)
            | Instr::ExitAtomic(_)
            | Instr::AcquireAll(..)
            | Instr::ReleaseAll(_)
            | Instr::Jump(_)
            | Instr::Branch(..)
            | Instr::Ret
            | Instr::Nop => vec![lock.clone()],
        };
        Transferred::Through(out)
    }

    /// Backward transfer of a fine lock across `x = rv` (non-call).
    fn transfer_assign(&self, x: VarId, rv: &Rvalue, path: &PathExpr, eff: Eff) -> Vec<AbsLock> {
        // Step 1: rewrite the head when the lock mentions `*x̄`
        // (closure(Id) minus closure(Q_x): Q_x only kills locks starting
        // with `*x̄`).
        let variants: Vec<PathExpr> = if path.base != x || path.ops.first() != Some(&PathOp::Deref)
        {
            vec![path.clone()]
        } else {
            let rest = &path.ops[1..];
            let rebased = |base: VarId, head: Vec<PathOp>| {
                let mut ops = head;
                ops.extend_from_slice(rest);
                PathExpr { base, ops }
            };
            match rv {
                Rvalue::Copy(y) => vec![rebased(*y, vec![PathOp::Deref])],
                Rvalue::AddrOf(y) => vec![rebased(*y, vec![])],
                Rvalue::Load(y) => vec![rebased(*y, vec![PathOp::Deref, PathOp::Deref])],
                Rvalue::FieldAddr(y, f) => {
                    vec![rebased(*y, vec![PathOp::Deref, PathOp::Field(*f)])]
                }
                // The dynamic index is carried symbolically; if `z` is
                // later redefined, step 2 demotes the index to the
                // anonymous `[]` offset.
                Rvalue::DynAddr(y, z) => {
                    vec![rebased(*y, vec![PathOp::Deref, PathOp::Index(*z)])]
                }
                // The location was freshly allocated (or null, or an
                // integer): unreachable before this statement, so
                // nothing needs protection earlier (Lemma 2's
                // reachability proviso). This is what lets section-local
                // allocations shed locks.
                Rvalue::Alloc(_)
                | Rvalue::AllocDyn(_)
                | Rvalue::Null
                | Rvalue::ConstInt(_)
                | Rvalue::Arith(..)
                | Rvalue::Cmp(..)
                | Rvalue::Intrinsic(..) => Vec::new(),
                Rvalue::Call(..) => unreachable!("calls handled by the engine"),
            }
        };
        // Step 2: symbolic indices `[x]` read the *variable* x, so a
        // redefinition of x rewrites them too: copies rename the index,
        // anything else loses it (demoted to the whole-array `[]`
        // offset, which normalization may further demote to coarse).
        variants
            .into_iter()
            .map(|p| fine(self.fix_indices(p, x, rv), eff))
            .collect()
    }

    fn fix_indices(&self, mut p: PathExpr, x: VarId, rv: &Rvalue) -> PathExpr {
        for op in &mut p.ops {
            if let PathOp::Index(z) = op {
                if *z == x {
                    *op = match rv {
                        Rvalue::Copy(w) => PathOp::Index(*w),
                        _ => PathOp::Field(
                            self.elem
                                .expect("programs with dynamic indices have a [] field"),
                        ),
                    };
                }
            }
        }
        p
    }

    /// Backward transfer of a fine lock across `*x = y`.
    ///
    /// `S_{*x=y} = {(*(l), *ȳ) | l ~ *x̄}`: every dereference step whose
    /// prefix may alias the written cell is rebased onto `*ȳ`; the
    /// identity copy is kept (weak update) unless the aliased prefix is
    /// syntactically `*x̄` (`closure(Q_{*x})` — strong update).
    fn transfer_store(&self, x: VarId, y: VarId, path: &PathExpr, eff: Eff) -> Vec<AbsLock> {
        let written = PathExpr {
            base: x,
            ops: vec![PathOp::Deref],
        };
        let mut out = Vec::new();
        let mut strong = false;
        for (j, op) in path.ops.iter().enumerate() {
            if *op != PathOp::Deref {
                continue;
            }
            let prefix = PathExpr {
                base: path.base,
                ops: path.ops[..j].to_vec(),
            };
            if !self.pt.may_alias_paths(&prefix, &written) {
                continue;
            }
            let mut ops = vec![PathOp::Deref];
            ops.extend_from_slice(&path.ops[j + 1..]);
            out.push(fine(PathExpr { base: y, ops }, eff));
            if prefix == written {
                strong = true;
            }
        }
        if !strong {
            out.push(fine(path.clone(), eff));
        }
        out
    }

    /// The `G` sets of Figure 4: locks protecting the locations accessed
    /// *directly* by the instruction. Thread-local variable-address
    /// locks are omitted (§4.3). Effects: destinations get `rw`,
    /// operands `ro` (the implementation's `G_{e1}^{rw} ∪ G_{e2}^{ro}`).
    pub fn gen_locks(&self, instr: &Instr) -> Vec<(PathExpr, Eff)> {
        let mut out = Vec::new();
        let var = |v: VarId, eff: Eff, out: &mut Vec<(PathExpr, Eff)>| {
            if !self.program.var(v).is_thread_local() {
                out.push((PathExpr::var(v), eff));
            }
        };
        match instr {
            Instr::Assign(x, rv) => {
                var(*x, Eff::Rw, &mut out);
                match rv {
                    Rvalue::Copy(y) | Rvalue::FieldAddr(y, _) | Rvalue::AllocDyn(y) => {
                        var(*y, Eff::Ro, &mut out)
                    }
                    Rvalue::AddrOf(_) | Rvalue::Alloc(_) | Rvalue::Null | Rvalue::ConstInt(_) => {}
                    Rvalue::Load(y) => {
                        var(*y, Eff::Ro, &mut out);
                        out.push((
                            PathExpr {
                                base: *y,
                                ops: vec![PathOp::Deref],
                            },
                            Eff::Ro,
                        ));
                    }
                    Rvalue::DynAddr(y, z) => {
                        var(*y, Eff::Ro, &mut out);
                        var(*z, Eff::Ro, &mut out);
                    }
                    Rvalue::Arith(_, a, b) | Rvalue::Cmp(_, a, b) => {
                        var(*a, Eff::Ro, &mut out);
                        var(*b, Eff::Ro, &mut out);
                    }
                    Rvalue::Call(_, args) | Rvalue::Intrinsic(_, args) => {
                        for a in args {
                            var(*a, Eff::Ro, &mut out);
                        }
                    }
                }
            }
            Instr::Store(x, y) => {
                var(*x, Eff::Ro, &mut out);
                var(*y, Eff::Ro, &mut out);
                out.push((
                    PathExpr {
                        base: *x,
                        ops: vec![PathOp::Deref],
                    },
                    Eff::Rw,
                ));
            }
            Instr::Branch(v, _, _) => var(*v, Eff::Ro, &mut out),
            Instr::EnterAtomic(_)
            | Instr::ExitAtomic(_)
            | Instr::AcquireAll(..)
            | Instr::ReleaseAll(_)
            | Instr::Jump(_)
            | Instr::Ret
            | Instr::Nop => {}
        }
        out
    }
}

/// A fine lock carrying only its expression; the points-to and
/// normalization steps are applied by the engine (`SchemeConfig`).
fn fine(path: PathExpr, eff: Eff) -> AbsLock {
    AbsLock {
        path: Some(path),
        pts: None,
        eff,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lir::compile;

    struct Fixture {
        program: Program,
        pt: PointsTo,
    }

    impl Fixture {
        fn new(src: &str) -> Fixture {
            let program = compile(src).unwrap();
            let pt = PointsTo::analyze(&program);
            Fixture { program, pt }
        }

        fn ctx(&self) -> TransferCtx<'_> {
            TransferCtx {
                program: &self.program,
                pt: &self.pt,
                elem: self.program.elem_field_opt(),
            }
        }

        fn v(&self, name: &str) -> VarId {
            VarId(
                self.program
                    .vars
                    .iter()
                    .position(|vi| self.program.interner.resolve(vi.name) == name)
                    .unwrap_or_else(|| panic!("no var {name}")) as u32,
            )
        }

        fn f(&self, name: &str) -> FieldId {
            FieldId(
                self.program
                    .fields
                    .iter()
                    .position(|fi| self.program.interner.resolve(fi.name) == name)
                    .unwrap() as u32,
            )
        }
    }

    fn deref(base: VarId, more: &[PathOp]) -> AbsLock {
        let mut ops = vec![PathOp::Deref];
        ops.extend_from_slice(more);
        AbsLock {
            path: Some(PathExpr { base, ops }),
            pts: None,
            eff: Eff::Rw,
        }
    }

    fn through(t: Transferred) -> Vec<AbsLock> {
        match t {
            Transferred::Through(v) => v,
            other => panic!("expected Through, got {other:?}"),
        }
    }

    #[test]
    fn copy_rebases() {
        let fx = Fixture::new("fn main(x, y) { x = y; }");
        let (x, y) = (fx.v("x"), fx.v("y"));
        let out = through(
            fx.ctx()
                .transfer_lock(&Instr::Assign(x, Rvalue::Copy(y)), &deref(x, &[])),
        );
        assert_eq!(out, vec![deref(y, &[])]);
    }

    #[test]
    fn copy_leaves_unrelated_locks() {
        let fx = Fixture::new("fn main(x, y, z) { x = y; }");
        let (x, y, z) = (fx.v("x"), fx.v("y"), fx.v("z"));
        let lock = deref(z, &[]);
        let out = through(
            fx.ctx()
                .transfer_lock(&Instr::Assign(x, Rvalue::Copy(y)), &lock),
        );
        assert_eq!(out, vec![lock]);
        // The address lock x̄ is also unaffected by assigning to x.
        let addr = AbsLock {
            path: Some(PathExpr::var(x)),
            pts: None,
            eff: Eff::Ro,
        };
        let out = through(
            fx.ctx()
                .transfer_lock(&Instr::Assign(x, Rvalue::Copy(y)), &addr),
        );
        assert_eq!(out, vec![addr]);
    }

    #[test]
    fn addr_of_strips_a_deref() {
        let fx = Fixture::new("fn main(y) { let x = &y; let w = *x; }");
        let (x, y) = (fx.v("x"), fx.v("y"));
        // *x̄ → ȳ
        let out = through(
            fx.ctx()
                .transfer_lock(&Instr::Assign(x, Rvalue::AddrOf(y)), &deref(x, &[])),
        );
        assert_eq!(
            out,
            vec![AbsLock {
                path: Some(PathExpr::var(y)),
                pts: None,
                eff: Eff::Rw
            }]
        );
        // *(*x̄) → *ȳ
        let out = through(fx.ctx().transfer_lock(
            &Instr::Assign(x, Rvalue::AddrOf(y)),
            &deref(x, &[PathOp::Deref]),
        ));
        assert_eq!(out, vec![deref(y, &[])]);
    }

    #[test]
    fn load_adds_a_deref() {
        let fx = Fixture::new("fn main(x, y) { x = *y; }");
        let (x, y) = (fx.v("x"), fx.v("y"));
        let out = through(
            fx.ctx()
                .transfer_lock(&Instr::Assign(x, Rvalue::Load(y)), &deref(x, &[])),
        );
        assert_eq!(out, vec![deref(y, &[PathOp::Deref])]);
    }

    #[test]
    fn field_addr_inserts_the_field() {
        let fx = Fixture::new("struct s { data; } fn main(x, y) { x = y + 0; let t = x->data; }");
        let (x, y) = (fx.v("x"), fx.v("y"));
        let data = fx.f("data");
        let out = through(fx.ctx().transfer_lock(
            &Instr::Assign(x, Rvalue::FieldAddr(y, data)),
            &deref(x, &[]),
        ));
        assert_eq!(out, vec![deref(y, &[PathOp::Field(data)])]);
    }

    #[test]
    fn alloc_drops_the_lock() {
        let fx = Fixture::new("fn main(x) { x = new(4); }");
        let x = fx.v("x");
        let out = through(
            fx.ctx()
                .transfer_lock(&Instr::Assign(x, Rvalue::Alloc(4)), &deref(x, &[])),
        );
        assert!(out.is_empty());
        let out = through(
            fx.ctx()
                .transfer_lock(&Instr::Assign(x, Rvalue::Null), &deref(x, &[])),
        );
        assert!(out.is_empty());
    }

    #[test]
    fn store_weak_update_keeps_both() {
        // Figure 2 of the paper: after `*t1 = w` (t1 may alias y.data),
        // the lock *(*ȳ + data) becomes both *w̄ and itself.
        let fx = Fixture::new(
            "struct s { data; }
             fn main(y, w) {
                 let x = y;
                 let t1 = &x->data;
                 atomic { *t1 = w; let z = y->data; *z = null; }
             }",
        );
        let (y, w) = (fx.v("y"), fx.v("w"));
        let t1 = fx.v("t1");
        let data = fx.f("data");
        let lock = deref(y, &[PathOp::Field(data), PathOp::Deref]);
        let out = through(fx.ctx().transfer_lock(&Instr::Store(t1, w), &lock));
        assert!(
            out.contains(&deref(w, &[])),
            "substituted lock *w̄ present: {out:?}"
        );
        assert!(out.contains(&lock), "weak update keeps the original");
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn store_strong_update_on_syntactic_match() {
        let fx = Fixture::new("fn main(x, y) { *x = y; }");
        let (x, y) = (fx.v("x"), fx.v("y"));
        // Lock *(*x̄): the written cell itself is dereferenced.
        let lock = deref(x, &[PathOp::Deref]);
        let out = through(fx.ctx().transfer_lock(&Instr::Store(x, y), &lock));
        assert_eq!(out, vec![deref(y, &[])], "identity killed by Q_{{*x}}");
    }

    #[test]
    fn store_to_unrelated_class_is_identity() {
        let fx = Fixture::new(
            "fn main(x, y, a) { *x = y; let t = *a; }", // x and a never unified
        );
        let (x, y, a) = (fx.v("x"), fx.v("y"), fx.v("a"));
        let lock = deref(a, &[PathOp::Deref]);
        let out = through(fx.ctx().transfer_lock(&Instr::Store(x, y), &lock));
        assert_eq!(out, vec![lock]);
    }

    #[test]
    fn calls_route_fine_locks_to_summaries() {
        let fx = Fixture::new("fn f(a) { return a; } fn main(p) { let r = f(p); }");
        let (r, p) = (fx.v("r"), fx.v("p"));
        let call = Instr::Assign(r, Rvalue::Call(lir::FnId(0), vec![p]));
        assert!(matches!(
            fx.ctx().transfer_lock(&call, &deref(r, &[])),
            Transferred::Call { .. }
        ));
        // Coarse locks bypass the summary.
        let coarse = AbsLock::coarse(pointsto::PtsClass(0), Eff::Rw);
        assert!(matches!(
            fx.ctx().transfer_lock(&call, &coarse),
            Transferred::Through(v) if v == vec![coarse.clone()]
        ));
    }

    #[test]
    fn gen_locks_for_load_and_store() {
        let fx = Fixture::new("global g; fn main(y) { g = *y; *y = g; }");
        let (g, y) = (fx.v("g"), fx.v("y"));
        let ctx = fx.ctx();
        // g = *y: writes g (global ⇒ ḡ rw), reads y (param, thread-local
        // ⇒ omitted) and *y (ro).
        let gens = ctx.gen_locks(&Instr::Assign(g, Rvalue::Load(y)));
        assert!(gens.contains(&(PathExpr::var(g), Eff::Rw)));
        assert!(gens.contains(&(
            PathExpr {
                base: y,
                ops: vec![PathOp::Deref]
            },
            Eff::Ro
        )));
        assert!(
            !gens.iter().any(|(p, _)| p == &PathExpr::var(y)),
            "thread-local ȳ omitted"
        );
        // *y = g: writes *y (rw), reads g (ro).
        let gens = ctx.gen_locks(&Instr::Store(y, g));
        assert!(gens.contains(&(
            PathExpr {
                base: y,
                ops: vec![PathOp::Deref]
            },
            Eff::Rw
        )));
        assert!(gens.contains(&(PathExpr::var(g), Eff::Ro)));
    }

    #[test]
    fn gen_locks_keep_address_taken_locals() {
        let fx = Fixture::new("fn main() { let x = null; let p = &x; *p = null; }");
        let x = fx.v("x");
        let gens = fx.ctx().gen_locks(&Instr::Assign(x, Rvalue::Null));
        assert!(
            gens.contains(&(PathExpr::var(x), Eff::Rw)),
            "&x was taken: x̄ required"
        );
    }

    #[test]
    fn dyn_addr_rewrites_to_symbolic_index() {
        let fx = Fixture::new("fn main(a, i, x) { x = a[i]; }");
        let (a, i, x) = (fx.v("a"), fx.v("i"), fx.v("x"));
        let out = through(
            fx.ctx()
                .transfer_lock(&Instr::Assign(x, Rvalue::DynAddr(a, i)), &deref(x, &[])),
        );
        assert_eq!(out, vec![deref(a, &[PathOp::Index(i)])]);
    }

    #[test]
    fn leaves_untouched_only_claims_identities() {
        let fx = Fixture::new(
            "fn f(p) { return p; }
             fn main(a, b, k, x, y) { b = k; x = a[b]; y = *x; *x = y; y = f(x); }",
        );
        let (a, b, x, y) = (fx.v("a"), fx.v("b"), fx.v("x"), fx.v("y"));
        let locks = [
            deref(a, &[PathOp::Index(b)]),
            deref(x, &[]),
            deref(y, &[PathOp::Deref]),
        ];
        let main = fx.program.functions.last().unwrap();
        let mut claimed = 0;
        for ins in &main.body {
            for lock in &locks {
                if leaves_untouched(ins, lock) {
                    claimed += 1;
                    assert_eq!(
                        through(fx.ctx().transfer_lock(ins, lock)),
                        vec![lock.clone()],
                        "{ins:?} on {lock}"
                    );
                }
            }
        }
        assert!(claimed > 0);
        // Assigning the base or an index variable, a store, and a call
        // are never claimed.
        let copy_b = Instr::Assign(b, Rvalue::Copy(y));
        assert!(!leaves_untouched(&copy_b, &locks[0]));
        assert!(leaves_untouched(&copy_b, &locks[1]));
        assert!(!leaves_untouched(
            &Instr::Assign(x, Rvalue::Null),
            &locks[1]
        ));
        assert!(!leaves_untouched(&Instr::Store(a, b), &locks[1]));
        let call = Instr::Assign(b, Rvalue::Call(lir::FnId(0), vec![a]));
        assert!(!leaves_untouched(&call, &locks[1]));
    }

    #[test]
    fn index_vars_are_renamed_by_copies_and_demoted_otherwise() {
        let fx = Fixture::new("fn main(a, b, k, nb) { b = k; b = k % nb; let x = a[b]; }");
        let (a, b, k, nb) = (fx.v("a"), fx.v("b"), fx.v("k"), fx.v("nb"));
        let elem = fx.program.elem_field_opt().unwrap();
        let lock = deref(a, &[PathOp::Index(b)]);
        // Crossing `b = k` renames the index.
        let out = through(
            fx.ctx()
                .transfer_lock(&Instr::Assign(b, Rvalue::Copy(k)), &lock),
        );
        assert_eq!(out, vec![deref(a, &[PathOp::Index(k)])]);
        // Crossing `b = k % nb` loses the symbolic index: the whole
        // array family is locked instead.
        let out = through(fx.ctx().transfer_lock(
            &Instr::Assign(b, Rvalue::Arith(lir::ArithOp::Rem, k, nb)),
            &lock,
        ));
        assert_eq!(out, vec![deref(a, &[PathOp::Field(elem)])]);
    }
}
