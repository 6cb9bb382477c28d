//! The per-thread section protocol, stated once.
//!
//! A thread's events nest: `SectionEnter` opens a level, `SectionExit`
//! closes one, the outermost level's `PlanComplete` markers split it
//! into wait and hold (the first is the acquisition point, later ones
//! are revalidation retries — DESIGN.md §5.2), and an `StmAbort`
//! abandons every open level at once. [`Cursor`] is the only code that
//! interprets that nesting; the validator, the profiler, the
//! quarantine history and the flamegraph exporter each feed it their
//! thread's events and keep only their own payload (held locks,
//! histograms, ladder transitions, frames), so "which section is open,
//! where did its wait end, did the thread die inside it" cannot be
//! answered two ways.
//!
//! Events that cannot move a boundary from where the cursor stands —
//! an exit or an abort with nothing open, a plan completion outside
//! any section, every other kind — are [`Step::Other`]: readers of a
//! truncated or hand-made trace see no transition rather than a
//! fabricated one.

use crate::event::{Event, EventKind};

/// One outermost section execution, as far as the cursor has seen it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Execution {
    /// The section entered at the outermost level — the one whose
    /// `acquireAll` plan holds the locks for everything nested in it.
    pub section: u32,
    /// Clock of that `SectionEnter`.
    pub enter: u64,
    /// Clock of the first `PlanComplete` after it: the acquisition
    /// point. `None` for an execution with no marker — every STM
    /// section, and a lock section cut short by trace truncation.
    pub acquired: Option<u64>,
    /// Plan completions beyond the first.
    pub revalidations: u64,
}

/// What one event did to its thread's section nesting.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Step {
    /// The thread was outside any section and entered `section`.
    EnteredOutermost { section: u32 },
    /// `section` was entered inside an open one.
    EnteredNested { section: u32 },
    /// The open outermost execution's plan was fully granted: its
    /// acquisition point when `first`, a revalidation retry otherwise.
    Acquired { first: bool },
    /// A nested level closed; the outermost execution stays open.
    ExitedNested,
    /// The outermost execution closed.
    ExitedOutermost(Execution),
    /// An STM attempt aborted, abandoning every level open under
    /// outermost `section`.
    Aborted { section: u32 },
    /// No section boundary moved.
    Other,
}

/// One thread's position in the section protocol.
#[derive(Default, Debug)]
pub struct Cursor {
    /// The open outermost execution, while the thread is in a section.
    open: Option<Execution>,
    /// Levels open inside it.
    nested: u32,
}

impl Cursor {
    /// Advances over `e`, one of this thread's events in trace order.
    pub fn step(&mut self, e: &Event) -> Step {
        match e.kind {
            EventKind::SectionEnter { section } => {
                if self.open.is_some() {
                    self.nested += 1;
                    return Step::EnteredNested { section };
                }
                self.open = Some(Execution {
                    section,
                    enter: e.clock,
                    acquired: None,
                    revalidations: 0,
                });
                Step::EnteredOutermost { section }
            }
            EventKind::SectionExit { .. } => {
                if self.nested > 0 {
                    self.nested -= 1;
                    return Step::ExitedNested;
                }
                self.open.take().map_or(Step::Other, Step::ExitedOutermost)
            }
            EventKind::PlanComplete => match &mut self.open {
                Some(x) => {
                    let first = x.acquired.is_none();
                    if first {
                        x.acquired = Some(e.clock);
                    } else {
                        x.revalidations += 1;
                    }
                    Step::Acquired { first }
                }
                None => Step::Other,
            },
            EventKind::StmAbort => {
                self.nested = 0;
                self.open
                    .take()
                    .map_or(Step::Other, |x| Step::Aborted { section: x.section })
            }
            _ => Step::Other,
        }
    }

    /// The outermost section open on the thread, if it is inside one.
    pub fn open_section(&self) -> Option<u32> {
        self.open.map(|x| x.section)
    }

    /// At end of stream: the thread's events stop mid-section — a
    /// crashed or panicked worker, or a truncated recording.
    pub fn crashed(&self) -> bool {
        self.open.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn steps(c: &mut Cursor, events: &[(u64, EventKind)]) -> Vec<Step> {
        events
            .iter()
            .map(|&(clock, kind)| {
                c.step(&Event {
                    epoch: clock,
                    tid: 0,
                    clock,
                    kind,
                })
            })
            .collect()
    }

    #[test]
    fn nesting_acquisition_and_exit_are_reported_once_each() {
        let mut c = Cursor::default();
        let got = steps(
            &mut c,
            &[
                (10, EventKind::SectionEnter { section: 1 }),
                (12, EventKind::PlanComplete),
                (13, EventKind::SectionEnter { section: 2 }),
                (14, EventKind::PlanComplete),
                (15, EventKind::SectionExit { section: 2 }),
                (16, EventKind::Write { addr: 4 }),
                (20, EventKind::SectionExit { section: 1 }),
            ],
        );
        assert_eq!(
            got,
            [
                Step::EnteredOutermost { section: 1 },
                Step::Acquired { first: true },
                Step::EnteredNested { section: 2 },
                Step::Acquired { first: false },
                Step::ExitedNested,
                Step::Other,
                Step::ExitedOutermost(Execution {
                    section: 1,
                    enter: 10,
                    acquired: Some(12),
                    revalidations: 1,
                }),
            ]
        );
        assert!(!c.crashed());
    }

    #[test]
    fn an_abort_abandons_every_level_and_the_outermost_section_is_named() {
        let mut c = Cursor::default();
        let got = steps(
            &mut c,
            &[
                (1, EventKind::SectionEnter { section: 7 }),
                (2, EventKind::SectionEnter { section: 8 }),
                (3, EventKind::StmAbort),
                (4, EventKind::SectionEnter { section: 7 }),
            ],
        );
        assert_eq!(got[2], Step::Aborted { section: 7 });
        assert_eq!(got[3], Step::EnteredOutermost { section: 7 });
        assert_eq!(c.open_section(), Some(7));
        assert!(c.crashed(), "the stream ends inside the retry");
    }

    #[test]
    fn boundaries_with_nothing_open_move_nothing() {
        let mut c = Cursor::default();
        let got = steps(
            &mut c,
            &[
                (1, EventKind::SectionExit { section: 3 }),
                (2, EventKind::PlanComplete),
                (3, EventKind::StmAbort),
            ],
        );
        assert_eq!(got, [Step::Other; 3]);
        assert_eq!(c.open_section(), None);
        assert!(!c.crashed());
    }
}
