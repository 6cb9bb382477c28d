//! Reconstruction of the sentinel's quarantine ladder from a trace.
//!
//! The interpreter's online sentinel (`crates/interp/src/sentinel.rs`)
//! has its worker emit a `["qr", section,
//! healed, probation]` event on every ladder transition: a demotion
//! (`healed == 0`) when a section's first uncovered access demotes it
//! to the trivially sound global scheme, and a heal (`healed == 1`)
//! when its probation of consecutive clean executions elapses and the
//! original configuration is re-admitted. This module replays those
//! transitions from a merged trace, producing the per-section history
//! `trace-dump` prints and the corpus tests digest.
//!
//! Truncated traces get the same treatment as the profiler's
//! stale-open-section guard (DESIGN.md §5.4): a quarantine whose heal
//! never made it into the buffer is reported in [`QuarantineHistory::
//! open`] only when the trace is complete. Two truncations count:
//! the recorder dropped events (`dropped > 0`), and the run *crashed*
//! — a thread is still mid-section at trace end (same detection the
//! lockset validator uses), so the trace ends inside a quarantine or
//! inside its probation and the lost tail may hold the heal or a
//! dirty-execution reset. In both cases the half-open entries are
//! *discarded* (counted in [`QuarantineHistory::suppressed`]) instead
//! of being claimed as live state the run may never have been in. A
//! heal with no matching open demotion (possible only on malformed
//! input) is likewise skipped and counted, never fabricated into a
//! transition pair.

use crate::event::EventKind;
use crate::sections::Cursor;
use crate::Trace;

/// One ladder transition, in trace order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct QuarantineTransition {
    /// Global merge epoch of the transition event.
    pub epoch: u64,
    /// Thread whose execution drove the transition.
    pub tid: u32,
    /// The section whose configuration changed.
    pub section: u32,
    /// `false` = demoted to the global scheme; `true` = re-admitted.
    pub healed: bool,
    /// The probation length attached to the transition (executions to
    /// serve for a demotion, executions served for a heal).
    pub probation: u32,
}

impl std::fmt::Display for QuarantineTransition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "epoch {} tid {}: section {} {} (probation {})",
            self.epoch,
            self.tid,
            self.section,
            if self.healed { "healed" } else { "quarantined" },
            self.probation
        )
    }
}

/// The reconstructed ladder history of one trace.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct QuarantineHistory {
    /// Every transition, in epoch order.
    pub transitions: Vec<QuarantineTransition>,
    /// Sections demoted and not healed by the end of a *complete*
    /// trace (still serving probation). Sorted, deduplicated.
    pub open: Vec<u32>,
    /// Half-open quarantines discarded because the trace is truncated
    /// — the recorder dropped events (`dropped > 0`) or the run
    /// crashed mid-section, ending the trace inside a quarantine or
    /// its probation: the heal may simply be missing from the buffer
    /// or the lost tail, so the guard refuses to report them as live
    /// state.
    pub suppressed: u64,
    /// Heals with no matching open demotion — malformed input, never
    /// produced by the sentinel; skipped rather than paired up.
    pub orphan_heals: u64,
}

impl QuarantineHistory {
    /// Sections that were demoted at least once, sorted, deduplicated.
    pub fn sections(&self) -> Vec<u32> {
        let mut s: Vec<u32> = self
            .transitions
            .iter()
            .filter(|t| !t.healed)
            .map(|t| t.section)
            .collect();
        s.sort_unstable();
        s.dedup();
        s
    }

    /// Demotions recorded.
    pub fn demotions(&self) -> u64 {
        self.transitions.iter().filter(|t| !t.healed).count() as u64
    }

    /// Heals recorded.
    pub fn heals(&self) -> u64 {
        self.transitions.iter().filter(|t| t.healed).count() as u64
    }
}

/// Replays the `["qr", …]` events of `trace` into a ladder history.
///
/// Unlike [`crate::validate`], truncated traces are not refused —
/// the transitions that made it into the buffer are still exact; only
/// the *open* set is unknowable, so it is emptied and counted in
/// [`QuarantineHistory::suppressed`] instead.
pub fn quarantine_history(trace: &Trace) -> QuarantineHistory {
    let mut h = QuarantineHistory::default();
    let mut open: Vec<u32> = Vec::new();
    // Crash truncation: a thread whose events stop mid-section died
    // there (injected panic, wedge), so the trace ends inside whatever
    // quarantine or probation was serving at that point. An aborted
    // STM attempt that retried to completion is not one.
    let mut threads: std::collections::BTreeMap<u32, Cursor> = std::collections::BTreeMap::new();
    for e in &trace.events {
        match e.kind {
            EventKind::Quarantine {
                section,
                healed,
                probation,
            } => {
                if healed {
                    match open.iter().position(|&s| s == section) {
                        Some(i) => {
                            open.remove(i);
                        }
                        None => {
                            h.orphan_heals += 1;
                            continue;
                        }
                    }
                } else {
                    open.push(section);
                }
                h.transitions.push(QuarantineTransition {
                    epoch: e.epoch,
                    tid: e.tid,
                    section,
                    healed,
                    probation,
                });
            }
            _ => {
                threads.entry(e.tid).or_default().step(&e);
            }
        }
    }
    open.sort_unstable();
    open.dedup();
    let crashed = threads.values().any(Cursor::crashed);
    if trace.dropped > 0 || crashed {
        h.suppressed = open.len() as u64;
    } else {
        h.open = open;
    }
    h
}

/// Renders a history the way `trace-dump` prints it.
pub fn render(h: &QuarantineHistory) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "quarantine history: {} demotions, {} heals, {} still quarantined{}{}",
        h.demotions(),
        h.heals(),
        h.open.len(),
        if h.suppressed > 0 {
            format!(" ({} half-open dropped: truncated trace)", h.suppressed)
        } else {
            String::new()
        },
        if h.orphan_heals > 0 {
            format!(" ({} orphan heals skipped)", h.orphan_heals)
        } else {
            String::new()
        }
    );
    for t in &h.transitions {
        let _ = writeln!(out, "  {t}");
    }
    for s in &h.open {
        let _ = writeln!(out, "  section {s}: still serving probation at trace end");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;

    fn qr(epoch: u64, section: u32, healed: bool, probation: u32) -> Event {
        Event {
            epoch,
            tid: 0,
            clock: epoch,
            kind: EventKind::Quarantine {
                section,
                healed,
                probation,
            },
        }
    }

    fn trace_of(events: Vec<Event>, dropped: u64) -> Trace {
        Trace {
            meta: vec![("mode".into(), "MultiGrain".into())],
            allocs: Vec::new(),
            events: events.into(),
            dropped,
        }
    }

    #[test]
    fn demote_heal_pairs_reconstruct() {
        let t = trace_of(
            vec![
                qr(0, 3, false, 4),
                qr(1, 3, true, 4),
                qr(2, 3, false, 8),
                qr(3, 5, false, 4),
            ],
            0,
        );
        let h = quarantine_history(&t);
        assert_eq!(h.transitions.len(), 4);
        assert_eq!(h.demotions(), 3);
        assert_eq!(h.heals(), 1);
        assert_eq!(h.sections(), vec![3, 5]);
        assert_eq!(h.open, vec![3, 5]);
        assert_eq!(h.suppressed, 0);
        assert_eq!(h.orphan_heals, 0);
        // Flap damping is visible in the record: the re-offense
        // carries the grown probation.
        assert_eq!(h.transitions[2].probation, 8);
    }

    #[test]
    fn truncated_traces_drop_half_open_quarantines() {
        let t = trace_of(vec![qr(0, 3, false, 4), qr(1, 7, false, 4)], 12);
        let h = quarantine_history(&t);
        // The transitions that made it into the buffer are exact…
        assert_eq!(h.demotions(), 2);
        // …but the half-open entries are suppressed, not claimed.
        assert!(h.open.is_empty());
        assert_eq!(h.suppressed, 2);
    }

    #[test]
    fn crash_inside_probation_suppresses_the_half_open_entry() {
        let se = |epoch: u64, tid: u32, enter: bool| Event {
            epoch,
            tid,
            clock: epoch,
            kind: if enter {
                EventKind::SectionEnter { section: 3 }
            } else {
                EventKind::SectionExit { section: 3 }
            },
        };
        // Section 3 is demoted, serves part of its probation (a clean
        // enter/exit pair), then the worker dies inside the next
        // execution: the trace ends inside probation with dropped == 0.
        let t = trace_of(
            vec![
                se(0, 1, true),
                qr(1, 3, false, 4),
                se(2, 1, false),
                se(3, 1, true),
                se(4, 1, false),
                se(5, 1, true), // never exited — crash
            ],
            0,
        );
        let h = quarantine_history(&t);
        assert_eq!(h.demotions(), 1);
        assert!(
            h.open.is_empty(),
            "a crashed run cannot prove its live quarantine state"
        );
        assert_eq!(h.suppressed, 1);
        // The same shape with the final execution completing stays
        // exact: the section is genuinely still serving.
        let complete = trace_of(
            vec![
                se(0, 1, true),
                qr(1, 3, false, 4),
                se(2, 1, false),
                se(3, 1, true),
                se(4, 1, false),
            ],
            0,
        );
        let h = quarantine_history(&complete);
        assert_eq!(h.open, vec![3]);
        assert_eq!(h.suppressed, 0);
    }

    #[test]
    fn stm_aborts_do_not_count_as_crashes() {
        let ev = |epoch: u64, kind: EventKind| Event {
            epoch,
            tid: 0,
            clock: epoch,
            kind,
        };
        // An aborted attempt resets the depth; the retry completes.
        let t = trace_of(
            vec![
                ev(0, EventKind::SectionEnter { section: 2 }),
                ev(1, EventKind::StmAbort),
                ev(2, EventKind::SectionEnter { section: 2 }),
                qr(3, 2, false, 4),
                ev(4, EventKind::SectionExit { section: 2 }),
            ],
            0,
        );
        let h = quarantine_history(&t);
        assert_eq!(h.open, vec![2], "abort + clean retry is not a crash");
        assert_eq!(h.suppressed, 0);
    }

    #[test]
    fn orphan_heals_are_skipped_not_fabricated() {
        let t = trace_of(vec![qr(0, 9, true, 4), qr(1, 2, false, 4)], 0);
        let h = quarantine_history(&t);
        assert_eq!(h.orphan_heals, 1);
        assert_eq!(h.heals(), 0, "the orphan must not appear as a transition");
        assert_eq!(h.open, vec![2]);
    }

    #[test]
    fn renders_summarize() {
        let t = trace_of(vec![qr(0, 1, false, 4), qr(1, 1, true, 4)], 0);
        let r = render(&quarantine_history(&t));
        assert!(r.contains("1 demotions, 1 heals, 0 still quarantined"));
        assert!(r.contains("section 1 quarantined"));
        assert!(r.contains("section 1 healed"));
    }
}
