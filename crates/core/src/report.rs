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

/// Runtime degradation counters from one execution, aggregated across
/// the locking runtimes (filled by the interpreter's
/// `Machine::degradation_report`; this crate only defines the shape so
/// reports travel with the analysis results).
///
/// "Degradation" covers everything on the graceful-degradation ladder:
/// STM starvation fallbacks to irrevocable mode, lock sessions poisoned
/// by unwinding workers, and deliberately injected faults.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DegradationReport {
    /// STM: committed transactions.
    pub stm_commits: u64,
    /// STM: aborted attempts (conflicts plus injected).
    pub stm_aborts: u64,
    /// STM: transactions that escalated to irrevocable global mode.
    pub stm_fallbacks: u64,
    /// Lock sessions that unwound while holding locks.
    pub poisoned_sessions: u64,
    /// Lock modes released by unwind (drop) instead of protocol order.
    pub unwind_releases: u64,
    /// Lock batches released and re-acquired because a fine-grained
    /// descriptor drifted while the session waited (the guarded
    /// structure moved between evaluation and grant). Informational —
    /// revalidation is the protocol *working*, not degrading — so it
    /// does not affect [`DegradationReport::is_clean`].
    pub lock_revalidations: u64,
    /// Faults injected by the active plan, by class.
    pub injected_panics: u64,
    pub injected_aborts: u64,
    pub injected_delays: u64,
    pub injected_stalls: u64,
    /// In-section accesses the online sentinel found unlicensed by the
    /// live held-mode set (a real protection gap — never clean).
    pub sentinel_violations: u64,
    /// Sections the sentinel's quarantine ladder demoted to the
    /// trivially sound global scheme. Informational, like
    /// [`DegradationReport::lock_revalidations`]: quarantine is the
    /// *remedy* working, while the gap itself is already counted in
    /// [`DegradationReport::sentinel_violations`].
    pub sections_quarantined: u64,
    /// Quarantined sections re-admitted to their original
    /// configuration after serving their probation of consecutive
    /// clean executions. Informational.
    pub sections_healed: u64,
}

impl DegradationReport {
    /// True when nothing degraded: no fallbacks, no poisoning, no
    /// sentinel violations, no injections — the run stayed on the happy
    /// path end to end.
    pub fn is_clean(&self) -> bool {
        let DegradationReport {
            stm_commits: _,
            stm_aborts: _,
            lock_revalidations: _,
            sections_quarantined: _,
            sections_healed: _,
            stm_fallbacks,
            poisoned_sessions,
            unwind_releases,
            injected_panics,
            injected_aborts,
            injected_delays,
            injected_stalls,
            sentinel_violations,
        } = *self;
        stm_fallbacks == 0
            && poisoned_sessions == 0
            && unwind_releases == 0
            && injected_panics == 0
            && injected_aborts == 0
            && injected_delays == 0
            && injected_stalls == 0
            && sentinel_violations == 0
    }
}

impl fmt::Display for DegradationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "stm {}c/{}a/{}f  poisoned {}  unwound {}  revalidated {}  \
             injected p{}/a{}/d{}/s{}  sentinel {}v/{}q/{}h",
            self.stm_commits,
            self.stm_aborts,
            self.stm_fallbacks,
            self.poisoned_sessions,
            self.unwind_releases,
            self.lock_revalidations,
            self.injected_panics,
            self.injected_aborts,
            self.injected_delays,
            self.injected_stalls,
            self.sentinel_violations,
            self.sections_quarantined,
            self.sections_healed
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
