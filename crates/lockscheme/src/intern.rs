//! Global hash-consing of [`AbsLock`] terms.
//!
//! The dataflow engine's hot loop compares, stores, and copies abstract
//! locks millions of times on SPECint-sized programs. Hash-consing
//! makes every lock a `u32`: each distinct `AbsLock` (and each distinct
//! lock *path*) is stored exactly once in a process-wide table, so
//!
//! * lock equality is integer equality,
//! * the lattice order `≤` is a handful of integer compares on the
//!   interned components (path id, points-to class, effect) — no path
//!   walk, because syntactically equal paths share one id,
//! * the join `+`/`*` ops are memoized on id pairs,
//! * dataflow state can be a short list of ids per program point.
//!
//! The table only grows (ids are never reused), so a [`LockRec`] copied
//! out of the interner stays valid forever; engines cache records and
//! `Arc<AbsLock>` handles locally and touch the shared `RwLock` only on
//! first sight of a lock. Interner ids are *names*, not semantics: two
//! processes (or two runs) may number locks differently, and nothing
//! downstream may depend on id order — the engine's outputs are sorted
//! structurally before they leave the analysis.

use crate::AbsLock;
use lir::{Eff, PathExpr};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock, RwLock};

/// Id of a hash-consed [`AbsLock`] in the global interner.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct LockId(pub u32);

/// Sentinel for "component absent" (`⊤`) in a [`LockRec`].
pub const NONE: u32 = u32::MAX;

/// Compact, `Copy` shadow of one interned lock: enough to evaluate the
/// lattice order without touching the lock's path.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LockRec {
    /// Interned path id, or [`NONE`] for coarse/global locks.
    pub path: u32,
    /// Points-to class, or [`NONE`] for the global lock.
    pub pts: u32,
    /// Effect component.
    pub eff: Eff,
}

impl LockRec {
    /// The scheme order `≤` on interned records — componentwise, with
    /// [`NONE`] as the top of the path and points-to components.
    /// Agrees with [`AbsLock::leq`] by construction: equal paths have
    /// equal path ids and vice versa.
    #[inline]
    pub fn leq(self, other: LockRec) -> bool {
        (other.path == NONE || self.path == other.path)
            && (other.pts == NONE || self.pts == other.pts)
            && self.eff.leq(other.eff)
    }

    /// True for fine-grain expression locks.
    #[inline]
    pub fn is_fine(self) -> bool {
        self.path != NONE
    }
}

#[derive(Default)]
struct Inner {
    lock_ids: HashMap<AbsLock, u32>,
    locks: Vec<Arc<AbsLock>>,
    recs: Vec<LockRec>,
    path_ids: HashMap<PathExpr, u32>,
    join_memo: HashMap<(u32, u32), u32>,
}

/// The process-wide hash-consing table. See the module docs.
#[derive(Default)]
pub struct LockInterner {
    inner: RwLock<Inner>,
}

/// The global interner instance.
pub fn global() -> &'static LockInterner {
    static GLOBAL: OnceLock<LockInterner> = OnceLock::new();
    GLOBAL.get_or_init(LockInterner::default)
}

impl LockInterner {
    /// Interns `lock`, returning its id and compact record. Idempotent:
    /// structurally equal locks map to the same id forever.
    pub fn intern(&self, lock: &AbsLock) -> (LockId, LockRec) {
        if let Some(hit) = {
            let inner = self.inner.read().unwrap();
            inner
                .lock_ids
                .get(lock)
                .map(|&id| (LockId(id), inner.recs[id as usize]))
        } {
            return hit;
        }
        let mut inner = self.inner.write().unwrap();
        // Double-check: another thread may have interned it meanwhile.
        if let Some(&id) = inner.lock_ids.get(lock) {
            return (LockId(id), inner.recs[id as usize]);
        }
        let path = match &lock.path {
            None => NONE,
            Some(p) => match inner.path_ids.get(p) {
                Some(&pid) => pid,
                None => {
                    let pid = inner.path_ids.len() as u32;
                    inner.path_ids.insert(p.clone(), pid);
                    pid
                }
            },
        };
        let rec = LockRec {
            path,
            pts: lock.pts.map_or(NONE, |c| c.0),
            eff: lock.eff,
        };
        let id = inner.locks.len() as u32;
        inner.locks.push(Arc::new(lock.clone()));
        inner.recs.push(rec);
        inner.lock_ids.insert(lock.clone(), id);
        (LockId(id), rec)
    }

    /// The lock behind `id`. Panics on an id not minted by this
    /// interner (impossible for the global instance — ids are only ever
    /// obtained from [`LockInterner::intern`]).
    pub fn resolve(&self, id: LockId) -> Arc<AbsLock> {
        Arc::clone(&self.inner.read().unwrap().locks[id.0 as usize])
    }

    /// The compact record of `id`.
    pub fn rec(&self, id: LockId) -> LockRec {
        self.inner.read().unwrap().recs[id.0 as usize]
    }

    /// The lattice order on interned ids.
    pub fn leq(&self, a: LockId, b: LockId) -> bool {
        if a == b {
            return true;
        }
        let inner = self.inner.read().unwrap();
        inner.recs[a.0 as usize].leq(inner.recs[b.0 as usize])
    }

    /// The least upper bound of two interned locks, memoized on the
    /// (unordered) id pair.
    pub fn join(&self, a: LockId, b: LockId) -> LockId {
        if a == b {
            return a;
        }
        let key = (a.0.min(b.0), a.0.max(b.0));
        if let Some(&id) = self.inner.read().unwrap().join_memo.get(&key) {
            return LockId(id);
        }
        let joined = {
            let inner = self.inner.read().unwrap();
            inner.locks[a.0 as usize].join(&inner.locks[b.0 as usize])
        };
        let (id, _) = self.intern(&joined);
        self.inner.write().unwrap().join_memo.insert(key, id.0);
        id
    }

    /// Number of distinct locks interned so far (process lifetime).
    pub fn len(&self) -> usize {
        self.inner.read().unwrap().locks.len()
    }

    /// True when nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of distinct lock paths interned so far.
    pub fn n_paths(&self) -> usize {
        self.inner.read().unwrap().path_ids.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lir::{PathOp, VarId};
    use pointsto::PtsClass;

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
        let it = LockInterner::default();
        let a = fine(1, vec![PathOp::Deref], 3, Eff::Rw);
        let b = fine(1, vec![PathOp::Deref], 3, Eff::Ro);
        let (ia, _) = it.intern(&a);
        let (ia2, _) = it.intern(&a);
        let (ib, _) = it.intern(&b);
        assert_eq!(ia, ia2);
        assert_ne!(ia, ib);
        assert_eq!(*it.resolve(ia), a);
        assert_eq!(*it.resolve(ib), b);
        // Same path, different effect: one path entry, two locks.
        assert_eq!(it.n_paths(), 1);
        assert_eq!(it.len(), 2);
    }

    #[test]
    fn rec_leq_agrees_with_structural_leq() {
        let it = LockInterner::default();
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
        let ids: Vec<(LockId, LockRec)> = samples.iter().map(|l| it.intern(l)).collect();
        for (i, x) in samples.iter().enumerate() {
            for (j, y) in samples.iter().enumerate() {
                assert_eq!(
                    ids[i].1.leq(ids[j].1),
                    x.leq(y),
                    "leq mismatch between {x} and {y}"
                );
                assert_eq!(it.leq(ids[i].0, ids[j].0), x.leq(y));
            }
        }
    }

    #[test]
    fn join_is_memoized_and_structural() {
        let it = LockInterner::default();
        let a = fine(1, vec![PathOp::Deref], 3, Eff::Ro);
        let b = fine(1, vec![PathOp::Deref], 3, Eff::Rw);
        let c = fine(2, vec![PathOp::Deref], 3, Eff::Rw);
        let (ia, _) = it.intern(&a);
        let (ib, _) = it.intern(&b);
        let (ic, _) = it.intern(&c);
        // Same path: join keeps it, lifting the effect.
        assert_eq!(*it.resolve(it.join(ia, ib)), a.join(&b));
        assert_eq!(it.join(ia, ib), it.join(ib, ia), "memo is unordered");
        // Different paths, same class: coarse lock.
        let j = it.resolve(it.join(ib, ic));
        assert!(j.path.is_none());
        assert_eq!(j.pts, Some(PtsClass(3)));
        assert_eq!(it.join(ia, ia), ia);
    }

    #[test]
    fn global_interner_is_shared_across_threads() {
        let lock = fine(7, vec![PathOp::Deref], 1, Eff::Rw);
        let ids: Vec<LockId> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| s.spawn(|| global().intern(&lock).0))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
    }
}
