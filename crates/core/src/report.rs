//! Lock-distribution reporting (the data behind Figure 7 and the
//! per-program columns of Table 1).

use crate::dataflow::ProgramAnalysis;
use lir::Eff;
use std::fmt;
use std::ops::AddAssign;

/// Counts of inferred locks by category, as in Figure 7.
///
/// The global lock `⊤` is counted as a coarse read-write lock (it is
/// one — the coarsest).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LockCounts {
    pub fine_ro: usize,
    pub fine_rw: usize,
    pub coarse_ro: usize,
    pub coarse_rw: usize,
}

impl LockCounts {
    /// Total number of locks.
    pub fn total(&self) -> usize {
        self.fine_ro + self.fine_rw + self.coarse_ro + self.coarse_rw
    }
}

impl AddAssign for LockCounts {
    fn add_assign(&mut self, rhs: LockCounts) {
        self.fine_ro += rhs.fine_ro;
        self.fine_rw += rhs.fine_rw;
        self.coarse_ro += rhs.coarse_ro;
        self.coarse_rw += rhs.coarse_rw;
    }
}

impl fmt::Display for LockCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fine-ro {:3}  fine-rw {:3}  coarse-ro {:3}  coarse-rw {:3}  (total {})",
            self.fine_ro,
            self.fine_rw,
            self.coarse_ro,
            self.coarse_rw,
            self.total()
        )
    }
}

impl ProgramAnalysis {
    /// Lock counts aggregated over all atomic sections.
    pub fn lock_counts(&self) -> LockCounts {
        let mut counts = LockCounts::default();
        for sec in &self.sections {
            for lock in &sec.locks {
                match (lock.is_fine(), lock.eff) {
                    (true, Eff::Ro) => counts.fine_ro += 1,
                    (true, Eff::Rw) => counts.fine_rw += 1,
                    (false, Eff::Ro) => counts.coarse_ro += 1,
                    (false, Eff::Rw) => counts.coarse_rw += 1,
                }
            }
        }
        counts
    }

    /// Number of atomic sections analyzed.
    pub fn n_sections(&self) -> usize {
        self.sections.len()
    }

    /// Renders every section's lock set using program names — the
    /// human-readable analysis report.
    pub fn render(&self, program: &lir::Program) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for sec in &self.sections {
            let _ = writeln!(
                out,
                "section #{} in {} (instrs {}..{}):",
                sec.id.0,
                program.fn_name(sec.func),
                sec.enter,
                sec.exit
            );
            let mut locks = sec.locks.clone();
            locks.sort();
            for l in locks {
                let _ = writeln!(out, "  {}", program.render_lock(&l.to_spec()));
            }
        }
        out
    }
}
