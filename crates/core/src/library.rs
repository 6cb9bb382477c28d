//! Pre-compiled library support (§4.3, "Supporting pre-compiled
//! libraries").
//!
//! When a callee's source is unavailable, the analysis accepts a
//! *function specification* instead: a list of coarse-grain locks
//! covering everything the function may access, plus the set of
//! points-to classes it may modify. Coarse locks are flow-insensitive,
//! so they protect all accesses inside the opaque function; fine locks
//! flowing backward across the call are demoted to their coarse
//! points-to lock whenever the opaque function could have changed the
//! cells their expression reads.

use lir::FnId;
use lockscheme::AbsLock;
use pointsto::{PointsTo, PtsClass};
use std::collections::HashMap;

/// Specification of one opaque (pre-compiled) function.
#[derive(Clone, Debug, Default)]
pub struct ExternalSummary {
    /// Coarse locks protecting every access the function performs.
    pub locks: Vec<AbsLock>,
    /// Points-to classes whose cells the function may overwrite.
    pub modifies: Vec<PtsClass>,
}

/// Function specifications for functions treated as pre-compiled.
#[derive(Clone, Debug, Default)]
pub struct LibrarySpec {
    specs: HashMap<FnId, ExternalSummary>,
}

impl LibrarySpec {
    /// Creates an empty specification set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares `f` opaque with the given summary.
    pub fn insert(&mut self, f: FnId, summary: ExternalSummary) {
        self.specs.insert(f, summary);
    }

    /// The summary for `f`, if it is opaque.
    pub fn get(&self, f: FnId) -> Option<&ExternalSummary> {
        self.specs.get(&f)
    }

    /// Whether `f` is opaque.
    pub fn is_external(&self, f: FnId) -> bool {
        self.specs.contains_key(&f)
    }

    /// Transfers a (normalised) fine lock backward across a call to
    /// opaque `f`: if any dereference step of the lock's expression
    /// reads a cell the function may modify, the expression is no longer
    /// meaningful before the call and the lock is
    /// [coarsened](AbsLock::coarsen) to its own class; otherwise it
    /// passes through unchanged.
    pub fn transfer_across(&self, f: FnId, lock: &AbsLock, pt: &PointsTo) -> AbsLock {
        let Some(summary) = self.get(f) else {
            return lock.clone();
        };
        let Some(path) = &lock.path else {
            return lock.clone();
        };
        for j in 0..path.ops.len() {
            if path.ops[j] != lir::PathOp::Deref {
                continue;
            }
            let prefix = lir::PathExpr {
                base: path.base,
                ops: path.ops[..j].to_vec(),
            };
            if let Some(c) = pt.class_of_path(&prefix) {
                if summary.modifies.contains(&c) {
                    return lock.coarsen();
                }
            }
        }
        lock.clone()
    }
}
