//! Abstract lock schemes (§3.3) as a trait, with the paper's example
//! instances.
//!
//! A scheme `Σ = (L, ≤, ⊤, ·̄, +, *)` is a bounded join-semilattice of
//! lock names together with three operators that build the lock `ê`
//! protecting the value of any expression `e`:
//!
//! ```text
//! x̂ = x̄        ê+i = ê + i        *̂e = * ê
//! ```
//!
//! The trait below mirrors that signature. Program points are omitted:
//! all instances here (like all instances in the paper) are
//! point-independent. The analysis in `lockinfer` is specialized to the
//! product `Σ_k × Σ≡ × Σ_ε` (see [`crate::abslock`]); this module is the
//! general framework it instantiates, used directly by the
//! scheme-playground example and as the oracle `AbsLock` and `LockRec`
//! are tested against (`abslock_is_the_product_scheme` below).

use lir::{Eff, FieldId, PathExpr, PathOp, VarId};
use pointsto::{PointsTo, PtsClass};
use std::collections::BTreeSet;
use std::fmt::Debug;
use std::hash::Hash;

/// An abstract lock scheme.
pub trait Scheme {
    /// The lock-name domain `L`.
    type Lock: Clone + Eq + Hash + Debug;

    /// The top element `⊤` (a global lock).
    fn top(&self) -> Self::Lock;

    /// The partial order `≤`; `a ≤ b` means `b` is coarser.
    fn leq(&self, a: &Self::Lock, b: &Self::Lock) -> bool;

    /// Least upper bound.
    fn join(&self, a: &Self::Lock, b: &Self::Lock) -> Self::Lock;

    /// `x̄^ε` — the lock protecting the address of variable `x`.
    fn var(&self, x: VarId, eff: Eff) -> Self::Lock;

    /// `l +^ε i` — the lock protecting field `i` of locations protected
    /// by `l`.
    fn field(&self, l: &Self::Lock, f: FieldId, eff: Eff) -> Self::Lock;

    /// `*^ε l` — the lock protecting locations pointed to by locations
    /// protected by `l`.
    fn deref(&self, l: &Self::Lock, eff: Eff) -> Self::Lock;

    /// `l +^ε [?]` — offset by a dynamic amount the scheme cannot name.
    /// Defaults to `⊤`, the always-sound answer; schemes for which any
    /// offset stays in place override it.
    fn index(&self, l: &Self::Lock, eff: Eff) -> Self::Lock {
        let _ = (l, eff);
        self.top()
    }

    /// The derived `ê` construction for a whole path expression: all
    /// subexpressions take `ro`, the outermost step takes `eff`.
    fn path(&self, p: &PathExpr, eff: Eff) -> Self::Lock {
        let mut lock = self.var(p.base, if p.ops.is_empty() { eff } else { Eff::Ro });
        for (i, op) in p.ops.iter().enumerate() {
            let e = if i + 1 == p.ops.len() { eff } else { Eff::Ro };
            lock = match op {
                PathOp::Deref => self.deref(&lock, e),
                // The formal schemes of §3.3 model all offsets as
                // abstract fields; a symbolic index behaves like one
                // whose identity is unknown, so we use the top of the
                // field dimension by passing a fresh-ish marker — the
                // schemes here are field-insensitive except Σ_i, which
                // treats unknown offsets as ⊤ via `deref`-like loss.
                PathOp::Field(f) => self.field(&lock, *f, e),
                PathOp::Index(_) => self.index(&lock, e),
            };
        }
        lock
    }
}

/// `Σ_k` — expression locks with k-limiting. `None` is `⊤`.
#[derive(Clone, Copy, Debug)]
pub struct KExprScheme {
    pub k: usize,
}

impl Scheme for KExprScheme {
    type Lock = Option<PathExpr>;

    fn top(&self) -> Self::Lock {
        None
    }

    fn leq(&self, a: &Self::Lock, b: &Self::Lock) -> bool {
        b.is_none() || a == b
    }

    fn join(&self, a: &Self::Lock, b: &Self::Lock) -> Self::Lock {
        if a == b {
            a.clone()
        } else {
            None
        }
    }

    fn var(&self, x: VarId, _eff: Eff) -> Self::Lock {
        // A bare variable lock has length 1 (k = 0 admits no expression
        // locks at all, matching the implementation and Figure 7).
        if self.k >= 1 {
            Some(PathExpr::var(x))
        } else {
            None
        }
    }

    fn field(&self, l: &Self::Lock, f: FieldId, _eff: Eff) -> Self::Lock {
        self.extend(l, PathOp::Field(f))
    }

    fn deref(&self, l: &Self::Lock, _eff: Eff) -> Self::Lock {
        self.extend(l, PathOp::Deref)
    }
}

impl KExprScheme {
    fn extend(&self, l: &Option<PathExpr>, op: PathOp) -> Option<PathExpr> {
        let mut p = l.clone()?;
        p.ops.push(op);
        if p.len() > self.k {
            None
        } else {
            Some(p)
        }
    }
}

/// `Σ≡` — locks from a unification-based points-to analysis. `None` is
/// `⊤`. Field offsets stay in the same class; dereferences follow the
/// class's points-to edge (to `⊤` when there is none).
#[derive(Clone, Copy, Debug)]
pub struct PtsScheme<'a> {
    pub pt: &'a PointsTo,
}

impl Scheme for PtsScheme<'_> {
    type Lock = Option<PtsClass>;

    fn top(&self) -> Self::Lock {
        None
    }

    fn leq(&self, a: &Self::Lock, b: &Self::Lock) -> bool {
        b.is_none() || a == b
    }

    fn join(&self, a: &Self::Lock, b: &Self::Lock) -> Self::Lock {
        if a == b {
            *a
        } else {
            None
        }
    }

    fn var(&self, x: VarId, _eff: Eff) -> Self::Lock {
        Some(self.pt.class_of_var(x))
    }

    fn field(&self, l: &Self::Lock, _f: FieldId, _eff: Eff) -> Self::Lock {
        *l
    }

    fn deref(&self, l: &Self::Lock, _eff: Eff) -> Self::Lock {
        l.and_then(|c| self.pt.deref(c))
    }

    fn index(&self, l: &Self::Lock, _eff: Eff) -> Self::Lock {
        *l
    }
}

/// `Σ_ε` — the two-lock scheme that tracks only access effects.
#[derive(Clone, Copy, Debug, Default)]
pub struct EffScheme;

impl Scheme for EffScheme {
    type Lock = Eff;

    fn top(&self) -> Self::Lock {
        Eff::Rw
    }

    fn leq(&self, a: &Self::Lock, b: &Self::Lock) -> bool {
        a.leq(*b)
    }

    fn join(&self, a: &Self::Lock, b: &Self::Lock) -> Self::Lock {
        a.join(*b)
    }

    fn var(&self, _x: VarId, eff: Eff) -> Self::Lock {
        eff
    }

    fn field(&self, _l: &Self::Lock, _f: FieldId, eff: Eff) -> Self::Lock {
        eff
    }

    fn deref(&self, _l: &Self::Lock, eff: Eff) -> Self::Lock {
        eff
    }

    fn index(&self, _l: &Self::Lock, eff: Eff) -> Self::Lock {
        eff
    }
}

/// `Σ_i` — field-based locks: a location is protected by the offset at
/// which it is accessed. `None` is `⊤ = F`.
#[derive(Clone, Copy, Debug, Default)]
pub struct FieldScheme;

impl Scheme for FieldScheme {
    type Lock = Option<BTreeSet<FieldId>>;

    fn top(&self) -> Self::Lock {
        None
    }

    fn leq(&self, a: &Self::Lock, b: &Self::Lock) -> bool {
        match (a, b) {
            (_, None) => true,
            (None, Some(_)) => false,
            (Some(x), Some(y)) => x.is_subset(y),
        }
    }

    fn join(&self, a: &Self::Lock, b: &Self::Lock) -> Self::Lock {
        match (a, b) {
            (Some(x), Some(y)) => Some(x.union(y).copied().collect()),
            _ => None,
        }
    }

    fn var(&self, _x: VarId, _eff: Eff) -> Self::Lock {
        None
    }

    fn field(&self, _l: &Self::Lock, f: FieldId, _eff: Eff) -> Self::Lock {
        Some(BTreeSet::from([f]))
    }

    fn deref(&self, _l: &Self::Lock, _eff: Eff) -> Self::Lock {
        None
    }
}

/// Cartesian product of two schemes (§3.3): if both factors are sound
/// approximations, so is the product.
#[derive(Clone, Copy, Debug)]
pub struct Product<A, B>(pub A, pub B);

impl<A: Scheme, B: Scheme> Scheme for Product<A, B> {
    type Lock = (A::Lock, B::Lock);

    fn top(&self) -> Self::Lock {
        (self.0.top(), self.1.top())
    }

    fn leq(&self, a: &Self::Lock, b: &Self::Lock) -> bool {
        self.0.leq(&a.0, &b.0) && self.1.leq(&a.1, &b.1)
    }

    fn join(&self, a: &Self::Lock, b: &Self::Lock) -> Self::Lock {
        (self.0.join(&a.0, &b.0), self.1.join(&a.1, &b.1))
    }

    fn var(&self, x: VarId, eff: Eff) -> Self::Lock {
        (self.0.var(x, eff), self.1.var(x, eff))
    }

    fn field(&self, l: &Self::Lock, f: FieldId, eff: Eff) -> Self::Lock {
        (self.0.field(&l.0, f, eff), self.1.field(&l.1, f, eff))
    }

    fn deref(&self, l: &Self::Lock, eff: Eff) -> Self::Lock {
        (self.0.deref(&l.0, eff), self.1.deref(&l.1, eff))
    }

    fn index(&self, l: &Self::Lock, eff: Eff) -> Self::Lock {
        (self.0.index(&l.0, eff), self.1.index(&l.1, eff))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AbsLock, LockRec};
    use proptest::prelude::*;

    fn sample_locks<S: Scheme>(s: &S, paths: &[PathExpr]) -> Vec<S::Lock> {
        let mut out = vec![s.top()];
        for p in paths {
            out.push(s.path(p, Eff::Ro));
            out.push(s.path(p, Eff::Rw));
        }
        out
    }

    fn check_lattice_laws<S: Scheme>(s: &S, locks: &[S::Lock]) {
        for a in locks {
            assert!(s.leq(a, a), "reflexive");
            assert!(s.leq(a, &s.top()), "top is greatest");
            for b in locks {
                let j = s.join(a, b);
                assert!(s.leq(a, &j) && s.leq(b, &j), "join is an upper bound");
                assert_eq!(s.join(a, b), s.join(b, a), "join commutes");
                if s.leq(a, b) && s.leq(b, a) {
                    assert_eq!(a, b, "antisymmetric");
                }
                for c in locks {
                    if s.leq(a, b) && s.leq(b, c) {
                        assert!(s.leq(a, c), "transitive");
                    }
                    if s.leq(a, c) && s.leq(b, c) {
                        assert!(s.leq(&j, c), "join is least");
                    }
                }
            }
        }
    }

    fn fixtures() -> (lir::Program, PointsTo, Vec<PathExpr>) {
        let p = lir::compile(
            "struct s { f; g; }
             fn main(a, b) { let x = a->f; let y = b->g; let z = *x; }",
        )
        .unwrap();
        let pt = PointsTo::analyze(&p);
        let a = p.functions[0].params[0];
        let b = p.functions[0].params[1];
        let f = FieldId(
            p.fields
                .iter()
                .position(|fi| p.interner.resolve(fi.name) == "f")
                .unwrap() as u32,
        );
        let paths = vec![
            PathExpr::var(a),
            PathExpr::var(b),
            PathExpr {
                base: a,
                ops: vec![PathOp::Deref],
            },
            PathExpr {
                base: a,
                ops: vec![PathOp::Deref, PathOp::Field(f)],
            },
            PathExpr {
                base: b,
                ops: vec![PathOp::Deref, PathOp::Field(f), PathOp::Deref],
            },
        ];
        (p, pt, paths)
    }

    #[test]
    fn kexpr_lattice_laws() {
        let (_, _, paths) = fixtures();
        let s = KExprScheme { k: 2 };
        check_lattice_laws(&s, &sample_locks(&s, &paths));
    }

    #[test]
    fn kexpr_limits_length() {
        let (_, _, paths) = fixtures();
        let s = KExprScheme { k: 2 };
        // The length-3 path exceeds k=2 and becomes ⊤.
        assert_eq!(s.path(&paths[4], Eff::Rw), None);
        assert!(s.path(&paths[3], Eff::Rw).is_some());
        let s0 = KExprScheme { k: 0 };
        assert_eq!(
            s0.path(&paths[0], Eff::Rw),
            None,
            "x̄ has length 1: k=0 is all-coarse"
        );
        assert_eq!(s0.path(&paths[2], Eff::Rw), None);
        let s1 = KExprScheme { k: 1 };
        assert!(s1.path(&paths[0], Eff::Rw).is_some());
    }

    #[test]
    fn pts_lattice_laws_and_edges() {
        let (_, pt, paths) = fixtures();
        let s = PtsScheme { pt: &pt };
        check_lattice_laws(&s, &sample_locks(&s, &paths));
        // Field offsets stay in the class; derefs move along edges.
        let la = s.path(&paths[2], Eff::Rw);
        let lf = s.path(&paths[3], Eff::Rw);
        assert_eq!(la, lf);
    }

    #[test]
    fn eff_scheme_is_the_two_point_lattice() {
        let (_, _, paths) = fixtures();
        let s = EffScheme;
        check_lattice_laws(&s, &sample_locks(&s, &paths));
        assert_eq!(s.path(&paths[3], Eff::Ro), Eff::Ro);
        assert_eq!(s.path(&paths[3], Eff::Rw), Eff::Rw);
    }

    #[test]
    fn field_scheme_tracks_offsets() {
        let (p, _, paths) = fixtures();
        let s = FieldScheme;
        check_lattice_laws(&s, &sample_locks(&s, &paths));
        let f = FieldId(
            p.fields
                .iter()
                .position(|fi| p.interner.resolve(fi.name) == "f")
                .unwrap() as u32,
        );
        assert_eq!(s.path(&paths[3], Eff::Rw), Some(BTreeSet::from([f])));
        // A trailing deref forgets the field.
        assert_eq!(s.path(&paths[4], Eff::Rw), None);
    }

    #[test]
    fn product_composes_soundly() {
        let (_, pt, paths) = fixtures();
        let s = Product(
            KExprScheme { k: 3 },
            Product(PtsScheme { pt: &pt }, EffScheme),
        );
        check_lattice_laws(&s, &sample_locks(&s, &paths));
        let l = s.path(&paths[3], Eff::Ro);
        assert!(l.0.is_some(), "expression component survives k=3");
        assert!(l.1 .0.is_some(), "pts component tracks the class");
        assert_eq!(l.1 .1, Eff::Ro);
    }

    /// Any element of the product's carrier, `⊤` components included:
    /// ≤ 3 bases × ≤ 4 ops, 3 classes, 2 effects.
    fn abslock_strategy() -> impl Strategy<Value = AbsLock> {
        let op = prop_oneof![
            Just(PathOp::Deref),
            (0u32..2).prop_map(|f| PathOp::Field(FieldId(f))),
            (0u32..2).prop_map(|z| PathOp::Index(VarId(z))),
        ];
        let path =
            (0u32..3, proptest::collection::vec(op, 0..5)).prop_map(|(base, ops)| PathExpr {
                base: VarId(base),
                ops,
            });
        (
            proptest::option::of(path),
            proptest::option::of((0u32..3).prop_map(PtsClass)),
            prop_oneof![Just(Eff::Ro), Just(Eff::Rw)],
        )
            .prop_map(|(path, pts, eff)| AbsLock { path, pts, eff })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The specialised representation the analysis runs on *is*
        /// `Σ_k × Σ≡ × Σ_ε`: `AbsLock`'s order and join are the generic
        /// product's on the corresponding elements, and `LockRec`'s
        /// integer order agrees with both.
        #[test]
        fn abslock_is_the_product_scheme(
            a in abslock_strategy(),
            b in abslock_strategy(),
            same_path in any::<bool>(),
        ) {
            // Two random paths rarely coincide; the order's interesting
            // half is where they do.
            let b = if same_path { AbsLock { path: a.path.clone(), ..b } } else { b };
            let (_, pt, _) = fixtures();
            // Neither `≤` nor `⊔` of a factor looks at `k` or `pt`.
            let product = Product(Product(KExprScheme { k: 9 }, PtsScheme { pt: &pt }), EffScheme);
            let elem = |l: &AbsLock| ((l.path.clone(), l.pts), l.eff);
            prop_assert_eq!(a.leq(&b), product.leq(&elem(&a), &elem(&b)));
            prop_assert_eq!(elem(&a.join(&b)), product.join(&elem(&a), &elem(&b)));
            // One table for both records: equal paths, equal ids.
            let id = |p: &PathExpr| u32::from(b.path.as_ref() != Some(p));
            let (ra, rb) = (LockRec::new(&a, id), LockRec::new(&b, id));
            prop_assert_eq!(ra.leq(rb), a.leq(&b));
            prop_assert_eq!(rb.leq(ra), b.leq(&a));
        }
    }

    #[test]
    fn path_gives_subexpressions_ro() {
        // ê protects subexpressions for reads only: for the effect
        // scheme, the last step's effect is what survives.
        let (_, _, paths) = fixtures();
        let s = EffScheme;
        assert_eq!(s.path(&paths[4], Eff::Rw), Eff::Rw);
    }
}
