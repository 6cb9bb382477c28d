//! The instantiated abstract lock scheme `Σ_k × Σ≡ × Σ_ε`.
//!
//! The paper's implementation observes (§4.3) that of all pairs in the
//! Cartesian product, only locks of the shapes `(⊤, ⊤)`, `(⊤, P)`, and
//! `(e, P)` with `P` the points-to class of `e` ever arise: the lattice
//! degenerates to a *tree*. [`AbsLock`] encodes exactly that tree, with
//! the effect component alongside.

use lir::{Eff, LockSpec, PathExpr, PathOp};
use pointsto::{PointsTo, PtsClass};
use std::fmt;

/// One lock of the instantiated scheme.
///
/// * `path = Some(e), pts = Some(P)` — fine-grain expression lock
///   `(e, P, ε)`;
/// * `path = None, pts = Some(P)` — coarse points-to lock `(⊤, P, ε)`;
/// * `path = None, pts = None` — the global lock `⊤` (always `rw`).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct AbsLock {
    pub path: Option<PathExpr>,
    pub pts: Option<PtsClass>,
    pub eff: Eff,
}

impl AbsLock {
    /// The global lock `⊤ = (Loc, rw)`.
    pub fn global() -> AbsLock {
        AbsLock {
            path: None,
            pts: None,
            eff: Eff::Rw,
        }
    }

    /// The coarse lock `(⊤, P, ε)` protecting a points-to partition.
    pub fn coarse(pts: PtsClass, eff: Eff) -> AbsLock {
        AbsLock {
            path: None,
            pts: Some(pts),
            eff,
        }
    }

    /// A fine expression lock, with its points-to component derived
    /// from the expression (the only pairing that protects anything).
    ///
    /// Returns `None` when the path's points-to class does not exist —
    /// the expression can only evaluate through a null dereference, so
    /// there is no location to protect (such runs fault before the
    /// access).
    pub fn fine(path: PathExpr, eff: Eff, pt: &PointsTo) -> Option<AbsLock> {
        let pts = pt.class_of_path(&path)?;
        Some(AbsLock {
            path: Some(path),
            pts: Some(pts),
            eff,
        })
    }

    /// True for the global lock.
    pub fn is_global(&self) -> bool {
        self.path.is_none() && self.pts.is_none()
    }

    /// True for fine-grain expression locks.
    pub fn is_fine(&self) -> bool {
        self.path.is_some()
    }

    /// True for coarse locks and bare variable locks `x̄`: no statement
    /// assigns to what they name, so every transfer function of §4.1
    /// leaves them unchanged and the analysis may move them straight to
    /// the entry of their context.
    pub fn is_flow_insensitive(&self) -> bool {
        self.path.as_ref().is_none_or(|p| p.ops.is_empty())
    }

    /// §3.3's coarsening of a lock to its own class,
    /// `(e, P, ε) ↦ (⊤, P, ε)` — what the analysis falls back to when it
    /// gives up on an expression (widening, an opaque callee overwriting
    /// a cell the expression reads). Total and never finer: a lock
    /// [normalised](SchemeConfig::normalize) under a scheme with `Σ≡`
    /// always carries its class, and under a scheme without it `P` is
    /// `⊤`, so the result is the global lock at the same effect — a
    /// coarser lock, never no lock.
    pub fn coarsen(&self) -> AbsLock {
        AbsLock {
            path: None,
            pts: self.pts,
            eff: self.eff,
        }
    }

    /// The partial order `≤` of the scheme: componentwise, with `None`
    /// as the top of the `Σ_k` and `Σ≡` components.
    pub fn leq(&self, other: &AbsLock) -> bool {
        let path_leq = match (&self.path, &other.path) {
            (_, None) => true,
            (Some(a), Some(b)) => a == b,
            (None, Some(_)) => false,
        };
        let pts_leq = match (&self.pts, &other.pts) {
            (_, None) => true,
            (Some(a), Some(b)) => a == b,
            (None, Some(_)) => false,
        };
        path_leq && pts_leq && self.eff.leq(other.eff)
    }

    /// Least upper bound in the scheme lattice.
    pub fn join(&self, other: &AbsLock) -> AbsLock {
        let path = match (&self.path, &other.path) {
            (Some(a), Some(b)) if a == b => Some(a.clone()),
            _ => None,
        };
        let pts = match (&self.pts, &other.pts) {
            (Some(a), Some(b)) if a == b => Some(*a),
            _ => None,
        };
        // If the paths differ the expression component is ⊤; the pts
        // component may still agree and is kept either way.
        AbsLock {
            path,
            pts,
            eff: self.eff.join(other.eff),
        }
    }

    /// Conversion to the transformed-program representation.
    pub fn to_spec(&self) -> LockSpec {
        match (&self.path, &self.pts) {
            (None, None) => LockSpec::Global,
            (None, Some(p)) => LockSpec::Coarse {
                pts: p.0,
                eff: self.eff,
            },
            (Some(e), Some(p)) => LockSpec::Fine {
                path: e.clone(),
                pts: p.0,
                eff: self.eff,
            },
            (Some(_), None) => unreachable!("fine locks always carry a points-to class"),
        }
    }
}

/// Compact, `Copy` shadow of one [`AbsLock`]: enough to decide the
/// lattice order with three integer compares instead of a path walk.
///
/// The path component is an id handed out by whichever table owns the
/// term (the dataflow engine's lock table): within one table equal
/// paths share an id and distinct paths never do, which is all `≤`
/// needs. Records minted against different tables are not comparable.
#[derive(Clone, Copy, Debug)]
pub struct LockRec {
    path: u32,
    pts: u32,
    eff: Eff,
}

impl LockRec {
    /// `⊤` in the path and points-to components.
    pub const TOP: u32 = u32::MAX;

    /// The record of `lock`; `path_id` names its path, if it has one.
    pub fn new(lock: &AbsLock, path_id: impl FnOnce(&PathExpr) -> u32) -> LockRec {
        LockRec {
            path: lock.path.as_ref().map_or(Self::TOP, path_id),
            pts: lock.pts.map_or(Self::TOP, |c| c.0),
            eff: lock.eff,
        }
    }

    /// The scheme order `≤` on records. Agrees with [`AbsLock::leq`]
    /// on the locks the records were made from.
    #[inline]
    pub fn leq(self, other: LockRec) -> bool {
        (other.path == Self::TOP || self.path == other.path)
            && (other.pts == Self::TOP || self.pts == other.pts)
            && self.eff.leq(other.eff)
    }

    /// The points-to component of a record whose path is `⊤` — `P` for
    /// a class lock `(⊤, P, ε)`, [`LockRec::TOP`] for a global one — and
    /// `None` for a record with a path. Two path-`⊤` records with one
    /// key differ only in their effect, so they are comparable: an
    /// antichain holds at most one per key.
    #[inline]
    pub fn pathless_key(self) -> Option<u32> {
        (self.path == Self::TOP).then_some(self.pts)
    }
}

/// Configuration of the analysis' lock scheme — the knob set used for
/// Table 1 / Figure 7 (`k`) and for the ablation bench (component
/// toggles).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SchemeConfig {
    /// Expression length bound of `Σ_k`.
    pub k: usize,
    /// Use the expression component (`Σ_k`); off = always ⊤.
    pub use_expr: bool,
    /// Use the points-to component (`Σ≡`); off = always ⊤.
    pub use_pts: bool,
    /// Use the effect component (`Σ_ε`); off = always `rw`.
    pub use_eff: bool,
    /// The dynamic `[]` pseudo-field of the program, if any.
    pub elem_field: Option<lir::FieldId>,
}

impl SchemeConfig {
    /// The paper's full product scheme with expression bound `k`.
    pub fn full(k: usize, elem_field: Option<lir::FieldId>) -> SchemeConfig {
        SchemeConfig {
            k,
            use_expr: true,
            use_pts: true,
            use_eff: true,
            elem_field,
        }
    }

    /// The trivially sound degraded scheme the sentinel's quarantine
    /// ladder demotes an offending section to: with the expression and
    /// points-to components both off, every lock normalizes to the
    /// global lock at effect `rw`, so any execution of the section is
    /// licensed by construction while it serves its probation.
    pub fn trivially_sound(elem_field: Option<lir::FieldId>) -> SchemeConfig {
        SchemeConfig {
            k: 0,
            use_expr: false,
            use_pts: false,
            use_eff: false,
            elem_field,
        }
    }

    /// True when this configuration is the [`SchemeConfig::
    /// trivially_sound`] degraded point (ignoring `elem_field`, which
    /// is program metadata, not a scheme component).
    pub fn is_trivially_sound(&self) -> bool {
        !self.use_expr && !self.use_pts && !self.use_eff
    }

    /// Whether locks inferred under this configuration can be acquired
    /// by the runtime. §5's lock tree hangs a fine node under its
    /// points-to partition, so `Σ_k` without `Σ≡` — fine locks `(e, ⊤)`
    /// — is a point the analysis can be asked about (the ablation
    /// table) but no machine can run.
    pub fn is_executable(&self) -> bool {
        self.use_pts || !self.use_expr
    }

    /// Applies component toggles and representation invariants.
    /// Returns `None` when the lock provably protects no location.
    pub fn normalize(&self, mut lock: AbsLock, pt: &PointsTo) -> Option<AbsLock> {
        if !self.use_eff {
            lock.eff = Eff::Rw;
        }
        if !self.use_expr {
            if let Some(path) = lock.path.take() {
                lock.pts = pt.class_of_path(&path);
                lock.pts?;
            }
        }
        let lock = self.limit(lock, pt)?;
        let mut lock = lock;
        if !self.use_pts {
            lock.pts = None;
            // Without the points-to component a promoted expression
            // becomes the global lock.
            if lock.path.is_none() {
                lock.eff = if self.use_eff { lock.eff } else { Eff::Rw };
            }
        }
        Some(lock)
    }

    /// k-limiting + evaluability demotion (see [`AbsLock::normalize`]),
    /// with this config's dynamic-field knowledge.
    fn limit(&self, lock: AbsLock, pt: &PointsTo) -> Option<AbsLock> {
        let Some(path) = &lock.path else {
            return Some(lock);
        };
        let evaluable = path.ops.iter().enumerate().all(|(i, op)| match op {
            // The anonymous `[]` offset covers *all* elements, so it can
            // only be the final step (the runtime locks the whole
            // array). A named dynamic index is evaluable anywhere.
            PathOp::Field(f) => Some(*f) != self.elem_field || i + 1 == path.ops.len(),
            PathOp::Deref | PathOp::Index(_) => true,
        });
        let class = pt.class_of_path(path)?;
        // Expression length counts the base variable plus every offset
        // and dereference — so `x̄` has length 1 and k = 0 yields only
        // coarse locks (Figure 7's first column), while a chain of three
        // dereferences and three offsets has length 7 > 6 only with the
        // base included; the paper's "many expressions with 3 heap
        // dereferences may have length k = 6" counts ops only, so we
        // charge the base at 1 but keep ops as the dominant term.
        let too_long = path.ops.len().max(1) > self.k;
        let lock = AbsLock {
            pts: Some(class),
            ..lock
        };
        Some(if too_long || !evaluable {
            lock.coarsen()
        } else {
            lock
        })
    }
}

/// The scheme's one text form, `k=9,expr=true,pts=false,eff=true`,
/// which trace metadata stamps for a per-section override.
/// `elem_field` is program metadata, not a scheme component, and is
/// not part of it.
impl fmt::Display for SchemeConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "k={},expr={},pts={},eff={}",
            self.k, self.use_expr, self.use_pts, self.use_eff
        )
    }
}

/// Reads the [`Display`](fmt::Display) form back, every field in its
/// place; `elem_field` is `None`.
impl std::str::FromStr for SchemeConfig {
    type Err = String;

    fn from_str(s: &str) -> Result<SchemeConfig, String> {
        let bad = || format!("bad scheme `{s}`: expected `k=N,expr=B,pts=B,eff=B`");
        let mut fields = s.split(',').map(|f| f.split_once('='));
        let mut next = |key: &str| match fields.next() {
            Some(Some((k, v))) if k == key => Ok(v),
            _ => Err(bad()),
        };
        let cfg = SchemeConfig {
            k: next("k")?.parse().map_err(|_| bad())?,
            use_expr: next("expr")?.parse().map_err(|_| bad())?,
            use_pts: next("pts")?.parse().map_err(|_| bad())?,
            use_eff: next("eff")?.parse().map_err(|_| bad())?,
            elem_field: None,
        };
        match fields.next() {
            None => Ok(cfg),
            Some(_) => Err(bad()),
        }
    }
}

/// Per-section scheme configuration: one global default plus overrides
/// for individual static sections.
///
/// The paper picks a single `Σ_k × Σ≡ × Σ_ε` point for the whole
/// program; §6 shows no single point wins everywhere. The adaptive
/// loop (`ali::adapt` in the root package) instead assigns each section the
/// configuration its measured contention profile asks for, and the
/// engine runs one shared Phase A summary pass per *distinct* config
/// so candidate maps stay affordable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigMap {
    /// The configuration of every section without an override.
    pub default: SchemeConfig,
    /// Per-section overrides, sorted by section id.
    overrides: Vec<(u32, SchemeConfig)>,
}

impl ConfigMap {
    /// A map assigning `default` to every section (the paper's global
    /// single-config setting).
    pub fn uniform(default: SchemeConfig) -> ConfigMap {
        ConfigMap {
            default,
            overrides: Vec::new(),
        }
    }

    /// Sets (or replaces) the configuration of one section. An
    /// override equal to the default is dropped, keeping the map
    /// canonical: two maps with the same effective assignment compare
    /// equal.
    pub fn set_override(&mut self, section: u32, cfg: SchemeConfig) {
        match self.overrides.binary_search_by_key(&section, |&(s, _)| s) {
            Ok(i) => {
                if cfg == self.default {
                    self.overrides.remove(i);
                } else {
                    self.overrides[i].1 = cfg;
                }
            }
            Err(i) => {
                if cfg != self.default {
                    self.overrides.insert(i, (section, cfg));
                }
            }
        }
    }

    /// The effective configuration of `section`.
    pub fn for_section(&self, section: u32) -> SchemeConfig {
        match self.overrides.binary_search_by_key(&section, |&(s, _)| s) {
            Ok(i) => self.overrides[i].1,
            Err(_) => self.default,
        }
    }

    /// The overrides, sorted by section id.
    pub fn overrides(&self) -> &[(u32, SchemeConfig)] {
        &self.overrides
    }

    /// Quarantines `section`: overrides its configuration with the
    /// [`SchemeConfig::trivially_sound`] degraded scheme (preserving
    /// the default's `elem_field`), so re-inferring under the demoted
    /// map yields a section whose every lock is the global lock.
    /// `Pipeline::reinfer` demotes each quarantined section this way
    /// for its reference run: the global-lock cost a repair candidate
    /// is admitted against.
    pub fn demote_to_global(&mut self, section: u32) {
        self.set_override(
            section,
            SchemeConfig::trivially_sound(self.default.elem_field),
        );
    }
}

impl From<SchemeConfig> for ConfigMap {
    fn from(default: SchemeConfig) -> ConfigMap {
        ConfigMap::uniform(default)
    }
}

impl fmt::Display for AbsLock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (&self.path, &self.pts) {
            (None, None) => write!(f, "⊤[{}]", self.eff),
            (None, Some(p)) => write!(f, "(⊤, {:?})[{}]", p, self.eff),
            (Some(e), Some(p)) => write!(f, "({:?}, {:?})[{}]", e, p, self.eff),
            (Some(e), None) => write!(f, "({:?}, ⊤)[{}]", e, self.eff),
        }
    }
}

/// Removes redundant locks: the merge of §4.1 keeps only locks not
/// strictly below another lock in the set (`N1 ⊔ N2` drops `l` when
/// `l < l'` for some `l'` in the union).
pub fn prune_redundant(locks: &mut Vec<AbsLock>) {
    locks.sort();
    locks.dedup();
    let snapshot = locks.clone();
    // `l < l'` ⟺ `l ≤ l' ∧ l ≠ l'` (≤ is antisymmetric).
    locks.retain(|l| !snapshot.iter().any(|l2| l != l2 && l.leq(l2)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use lir::{PathOp, VarId};

    fn pt_for(src: &str) -> (lir::Program, PointsTo) {
        let p = lir::compile(src).unwrap();
        let pts = PointsTo::analyze(&p);
        (p, pts)
    }

    fn path(base: VarId, ops: Vec<PathOp>) -> PathExpr {
        PathExpr { base, ops }
    }

    #[test]
    fn global_is_top() {
        let (_, pt) = pt_for("fn main(a) { let b = *a; }");
        let g = AbsLock::global();
        let fine = AbsLock::fine(path(VarId(1), vec![]), Eff::Ro, &pt).unwrap();
        assert!(fine.leq(&g));
        assert!(!g.leq(&fine));
        assert_eq!(fine.join(&g), g);
    }

    #[test]
    fn coarse_dominates_its_fine_locks() {
        let (p, pt) = pt_for("fn main(a) { let b = *a; }");
        let a = p.functions[0].params[0];
        let fine = AbsLock::fine(path(a, vec![PathOp::Deref]), Eff::Rw, &pt).unwrap();
        let coarse = AbsLock::coarse(fine.pts.unwrap(), Eff::Rw);
        assert!(fine.leq(&coarse));
        assert!(!coarse.leq(&fine));
        // A coarse lock of a different class is incomparable.
        let other = AbsLock::coarse(PtsClass(fine.pts.unwrap().0 + 1), Eff::Rw);
        assert!(!fine.leq(&other));
    }

    #[test]
    fn effects_order_locks() {
        let (p, pt) = pt_for("fn main(a) { let b = *a; }");
        let a = p.functions[0].params[0];
        let ro = AbsLock::fine(path(a, vec![]), Eff::Ro, &pt).unwrap();
        let rw = AbsLock::fine(path(a, vec![]), Eff::Rw, &pt).unwrap();
        assert!(ro.leq(&rw));
        assert!(!rw.leq(&ro));
        assert_eq!(ro.join(&rw).eff, Eff::Rw);
    }

    #[test]
    fn join_is_lub_on_samples() {
        let (p, pt) = pt_for("fn main(a, c) { let b = *a; let d = *c; }");
        let a = p.functions[0].params[0];
        let c = p.functions[0].params[1];
        let samples = vec![
            AbsLock::global(),
            AbsLock::fine(path(a, vec![]), Eff::Ro, &pt).unwrap(),
            AbsLock::fine(path(a, vec![]), Eff::Rw, &pt).unwrap(),
            AbsLock::fine(path(c, vec![]), Eff::Rw, &pt).unwrap(),
            AbsLock::fine(path(a, vec![PathOp::Deref]), Eff::Rw, &pt).unwrap(),
        ];
        for x in &samples {
            for y in &samples {
                let j = x.join(y);
                assert!(
                    x.leq(&j) && y.leq(&j),
                    "join is an upper bound: {x} {y} -> {j}"
                );
                assert_eq!(x.join(y), y.join(x), "join commutes");
                for z in &samples {
                    if x.leq(z) && y.leq(z) {
                        assert!(j.leq(z), "join is least: {x}⊔{y}={j} vs {z}");
                    }
                }
            }
        }
    }

    #[test]
    fn k_limit_promotes_to_coarse() {
        let (p, pt) =
            pt_for("struct s { f; } fn main(a) { let b = a->f; let c = b->f; let d = c->f; }");
        let a = p.functions[0].params[0];
        let f = lir::FieldId(
            p.fields
                .iter()
                .position(|fi| p.interner.resolve(fi.name) == "f")
                .unwrap() as u32,
        );
        let long = path(
            a,
            vec![
                PathOp::Deref,
                PathOp::Field(f),
                PathOp::Deref,
                PathOp::Field(f),
            ],
        );
        let lock = AbsLock::fine(long.clone(), Eff::Rw, &pt).unwrap();
        let cfg3 = SchemeConfig::full(3, p.elem_field_opt());
        let n = cfg3.normalize(lock.clone(), &pt).unwrap();
        assert!(n.path.is_none(), "length-4 path exceeds k=3");
        assert_eq!(n.pts, lock.pts);
        let cfg9 = SchemeConfig::full(9, p.elem_field_opt());
        let n9 = cfg9.normalize(lock.clone(), &pt).unwrap();
        assert_eq!(n9.path, Some(long));
    }

    #[test]
    fn dynamic_field_mid_path_demotes() {
        let (p, pt) = pt_for("fn main(a, i) { let b = a[i]; let c = *b; }");
        let a = p.functions[0].params[0];
        let elem = p.elem_field_opt().unwrap();
        let cfg = SchemeConfig::full(9, Some(elem));
        // &a[i] — elem in final position: stays fine.
        let tail = AbsLock::fine(
            path(a, vec![PathOp::Deref, PathOp::Field(elem)]),
            Eff::Rw,
            &pt,
        )
        .unwrap();
        let n = cfg.normalize(tail, &pt).unwrap();
        assert!(n.path.is_some());
        // *(a[i]) — elem mid-path: demoted to coarse.
        let mid = AbsLock::fine(
            path(a, vec![PathOp::Deref, PathOp::Field(elem), PathOp::Deref]),
            Eff::Rw,
            &pt,
        )
        .unwrap();
        let n = cfg.normalize(mid, &pt).unwrap();
        assert!(n.path.is_none());
        assert!(n.pts.is_some());
    }

    #[test]
    fn null_only_locks_vanish() {
        let (p, pt) = pt_for("fn main() { let x = null; }");
        let x = p.functions[0].locals[0];
        assert!(AbsLock::fine(path(x, vec![PathOp::Deref]), Eff::Rw, &pt).is_none());
    }

    #[test]
    fn ablation_toggles() {
        let (p, pt) = pt_for("fn main(a) { let b = *a; }");
        let a = p.functions[0].params[0];
        let fine = AbsLock::fine(path(a, vec![PathOp::Deref]), Eff::Ro, &pt).unwrap();
        let mut cfg = SchemeConfig::full(9, None);
        cfg.use_eff = false;
        assert_eq!(cfg.normalize(fine.clone(), &pt).unwrap().eff, Eff::Rw);
        let mut cfg = SchemeConfig::full(9, None);
        cfg.use_expr = false;
        let n = cfg.normalize(fine.clone(), &pt).unwrap();
        assert!(n.path.is_none() && n.pts.is_some());
        let mut cfg = SchemeConfig::full(9, None);
        cfg.use_pts = false;
        cfg.use_expr = false;
        let n = cfg.normalize(fine, &pt).unwrap();
        assert!(n.is_global() || n.eff == Eff::Ro); // pts gone; path gone
        assert!(n.pts.is_none() && n.path.is_none());
    }

    #[test]
    fn trivially_sound_config_normalizes_everything_to_global() {
        let (p, pt) = pt_for("fn main(a) { let b = *a; }");
        let a = p.functions[0].params[0];
        let cfg = SchemeConfig::trivially_sound(None);
        assert!(cfg.is_trivially_sound());
        assert!(!SchemeConfig::full(9, None).is_trivially_sound());
        for eff in [Eff::Ro, Eff::Rw] {
            let fine = AbsLock::fine(path(a, vec![PathOp::Deref]), eff, &pt).unwrap();
            let n = cfg.normalize(fine, &pt).unwrap();
            assert!(n.is_global(), "demoted lock must be the global lock: {n}");
            assert_eq!(n.eff, Eff::Rw, "the effect component is off");
        }
    }

    #[test]
    fn demotion_keeps_the_map_canonical() {
        let base = SchemeConfig::full(9, None);
        let mut map = ConfigMap::uniform(base);
        map.demote_to_global(4);
        assert!(map.for_section(4).is_trivially_sound());
        assert_eq!(map.for_section(3), base, "other sections are untouched");
        assert_eq!(map.overrides().len(), 1);
        // Demoting twice is idempotent.
        map.demote_to_global(4);
        assert_eq!(map.overrides().len(), 1);
        // Setting the default back drops the override entirely
        // (canonical form).
        map.set_override(4, base);
        assert_eq!(map, ConfigMap::uniform(base));
        // So does setting a never-demoted section to the default.
        map.set_override(9, base);
        assert_eq!(map.overrides().len(), 0);
    }

    #[test]
    fn prune_keeps_maximal_locks() {
        let (p, pt) = pt_for("fn main(a) { let b = *a; }");
        let a = p.functions[0].params[0];
        let fine_ro = AbsLock::fine(path(a, vec![PathOp::Deref]), Eff::Ro, &pt).unwrap();
        let fine_rw = AbsLock::fine(path(a, vec![PathOp::Deref]), Eff::Rw, &pt).unwrap();
        let coarse = AbsLock::coarse(fine_rw.pts.unwrap(), Eff::Rw);
        let mut set = vec![fine_ro.clone(), fine_rw.clone(), coarse.clone()];
        prune_redundant(&mut set);
        assert_eq!(set, vec![coarse]);

        let mut set2 = vec![fine_ro.clone(), fine_ro.clone()];
        prune_redundant(&mut set2);
        assert_eq!(set2.len(), 1);
    }

    #[test]
    fn coarsening_is_total_and_never_finer() {
        let fine = |pts| AbsLock {
            path: Some(path(VarId(1), vec![PathOp::Deref])),
            pts,
            eff: Eff::Rw,
        };
        let with_class = fine(Some(PtsClass(3)));
        assert_eq!(with_class.coarsen(), AbsLock::coarse(PtsClass(3), Eff::Rw));
        // Without Σ≡ the class is ⊤: the fallback is the global lock at
        // the same effect — in particular still a write lock.
        let without = fine(None);
        assert_eq!(without.coarsen(), AbsLock::global());
        assert_eq!(
            AbsLock {
                eff: Eff::Ro,
                ..without.clone()
            }
            .coarsen()
            .eff,
            Eff::Ro
        );
        for l in [with_class, without, AbsLock::global()] {
            assert!(l.leq(&l.coarsen()), "{l} ≤ its coarsening");
            assert!(l.coarsen().is_flow_insensitive());
        }
    }

    #[test]
    fn rec_leq_agrees_with_structural_leq() {
        let fine = |base, ops, pts, eff| AbsLock {
            path: Some(path(VarId(base), ops)),
            pts: Some(PtsClass(pts)),
            eff,
        };
        let samples = [
            AbsLock::global(),
            AbsLock::coarse(PtsClass(3), Eff::Rw),
            AbsLock::coarse(PtsClass(3), Eff::Ro),
            AbsLock::coarse(PtsClass(4), Eff::Rw),
            fine(1, vec![PathOp::Deref], 3, Eff::Rw),
            fine(1, vec![PathOp::Deref], 3, Eff::Ro),
            fine(2, vec![], 3, Eff::Rw),
            fine(1, vec![PathOp::Deref, PathOp::Deref], 4, Eff::Rw),
        ];
        let mut paths: Vec<PathExpr> = Vec::new();
        let recs: Vec<LockRec> = samples
            .iter()
            .map(|l| {
                LockRec::new(l, |p| {
                    let known = paths.iter().position(|q| q == p);
                    known.unwrap_or_else(|| {
                        paths.push(p.clone());
                        paths.len() - 1
                    }) as u32
                })
            })
            .collect();
        for (x, rx) in samples.iter().zip(&recs) {
            for (y, ry) in samples.iter().zip(&recs) {
                assert_eq!(rx.leq(*ry), x.leq(y), "leq mismatch between {x} and {y}");
            }
        }
    }

    #[test]
    fn only_schemes_with_a_partition_under_their_fine_locks_are_executable() {
        let full = SchemeConfig::full(9, None);
        assert!(full.is_executable());
        assert!(SchemeConfig::trivially_sound(None).is_executable());
        let no_expr = SchemeConfig {
            use_expr: false,
            ..full
        };
        assert!(no_expr.is_executable());
        let no_pts = SchemeConfig {
            use_pts: false,
            ..full
        };
        assert!(!no_pts.is_executable());
    }

    #[test]
    fn to_spec_round_trip_shapes() {
        let (p, pt) = pt_for("fn main(a) { let b = *a; }");
        let a = p.functions[0].params[0];
        assert_eq!(AbsLock::global().to_spec(), LockSpec::Global);
        let fine = AbsLock::fine(path(a, vec![]), Eff::Ro, &pt).unwrap();
        assert!(matches!(
            fine.to_spec(),
            LockSpec::Fine { eff: Eff::Ro, .. }
        ));
        let coarse = AbsLock::coarse(PtsClass(2), Eff::Rw);
        assert_eq!(
            coarse.to_spec(),
            LockSpec::Coarse {
                pts: 2,
                eff: Eff::Rw
            }
        );
    }

    #[test]
    fn a_scheme_reads_back_from_its_text() {
        let cfg = SchemeConfig {
            use_pts: false,
            ..SchemeConfig::full(9, None)
        };
        assert_eq!(cfg.to_string(), "k=9,expr=true,pts=false,eff=true");
        assert_eq!(cfg.to_string().parse(), Ok(cfg));
        // `elem_field` is not part of the text.
        let with_elem = SchemeConfig::full(3, Some(lir::FieldId(4)));
        assert_eq!(
            with_elem.to_string().parse(),
            Ok(SchemeConfig::full(3, None))
        );
        for bad in [
            "",
            "k=9",
            "k=9,expr=true,pts=false",
            "k=9,expr=true,pts=false,eff=true,",
            "k=9,pts=false,expr=true,eff=true",
            "k=-1,expr=true,pts=false,eff=true",
            "k=9,expr=1,pts=false,eff=true",
            "k 9,expr=true,pts=false,eff=true",
        ] {
            assert!(bad.parse::<SchemeConfig>().is_err(), "accepted: {bad}");
        }
    }
}
