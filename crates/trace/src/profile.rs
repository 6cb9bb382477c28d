//! Per-section contention and hold-time profiles derived from a trace.
//!
//! For every outermost section execution the profiler splits the
//! virtual-clock interval at the *acquisition point* — the clock of the
//! **first** [`EventKind::PlanComplete`] marker recorded after the
//! section entry (for STM sections, the section entry itself):
//!
//! * **wait** = acquisition point − section entry (time spent blocked
//!   on the lock plan — the contention cost the paper's Fig. 8/9
//!   experiments measure);
//! * **hold** = section exit − acquisition point (time the locks were
//!   held, bounding what other threads conflict against);
//! * **revalidations** = plan completions after the first one, i.e.
//!   acquire-time revalidation retries: the fine descriptors drifted
//!   while the session waited, the plan was released and re-acquired
//!   (DESIGN.md §5.2), and the worker re-ran the protocol *while
//!   already inside its hold interval*.
//!
//! The first-completion rule matters: a revalidation retry emits fresh
//! `LockAcquire` grants mid-section, so taking the *last* grant as the
//! acquisition point (as this module originally did) silently
//! reclassifies hold time as wait time on drift-heavy workloads — and
//! an adaptive policy fed those numbers would coarsen exactly the
//! sections that were already making progress. An execution with no
//! marker at all — every STM section, and a lock section cut short by
//! trace truncation — counts as acquired at its entry.
//!
//! All three intervals are accumulated into log₂-bucketed
//! [`Histogram`]s per static section id.

use crate::event::{Event, EventKind};
use crate::sections::{Cursor, Step};
use crate::Trace;
use std::collections::{BTreeMap, HashMap};

/// A log₂-bucketed histogram of `u64` samples.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Histogram {
    /// `buckets[i]` counts samples `v` with `⌊log₂(v+1)⌋ == i` (so
    /// bucket 0 is exactly the zero samples).
    pub buckets: Vec<u64>,
    pub count: u64,
    pub sum: u64,
    pub max: u64,
}

impl Histogram {
    /// The bucket a sample lands in: `⌊log₂(v+1)⌋`, with `u64::MAX`
    /// saturating into the top bucket.
    #[inline]
    fn bucket_of(v: u64) -> usize {
        (63 - v.saturating_add(1).leading_zeros().min(63)) as usize
    }

    /// Adds one sample. Saturates rather than overflows: `u64::MAX`
    /// lands in the top bucket and `sum` clamps at `u64::MAX`.
    pub fn add(&mut self, v: u64) {
        let idx = Histogram::bucket_of(v);
        if self.buckets.len() <= idx {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Arithmetic mean of the samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// One-line rendering: `n=… mean=… max=… [2^i:count …]`.
    pub fn render(&self) -> String {
        let mut s = format!("n={} mean={:.1} max={}", self.count, self.mean(), self.max);
        if self.count > 0 {
            s.push_str(" [");
            let mut first = true;
            for (i, &c) in self.buckets.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                if !first {
                    s.push(' ');
                }
                first = false;
                s.push_str(&format!("2^{i}:{c}"));
            }
            s.push(']');
        }
        s
    }
}

/// Aggregated statistics for one static section id.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct SectionProfile {
    pub section: u32,
    /// Outermost executions completed.
    pub entries: u64,
    /// STM attempts aborted inside this section.
    pub aborts: u64,
    /// Virtual ticks from section entry to the first plan completion.
    pub wait: Histogram,
    /// Virtual ticks the locks (or transaction) were held.
    pub hold: Histogram,
    /// Acquire-time revalidation retries per outermost execution
    /// (plan completions beyond the first).
    pub revalidations: Histogram,
}

#[derive(Default)]
struct ThreadState {
    sections: Cursor,
    /// The open outermost execution is profiled. Cleared for one whose
    /// entry looks like a desync in a truncated trace (below): the
    /// cursor keeps following it, but it contributes no sample.
    trusted: bool,
    /// After an `StmAbort`: the outermost section the retry must
    /// re-enter. A *different* section id on the next outermost enter
    /// means the re-enter event was lost (truncated crash trace) and
    /// what we are seeing is a nested enter — profiling it from this
    /// state would fabricate a sample, so the execution is skipped.
    retry_section: Option<u32>,
}

/// The profile fold, one event at a time — for a caller that is
/// walking the events anyway (`obs::from_trace`); [`profile`] is the
/// whole-trace form.
#[derive(Default)]
pub struct Profiler {
    sections: BTreeMap<u32, SectionProfile>,
    threads: HashMap<u32, ThreadState>,
}

impl Profiler {
    fn section(&mut self, section: u32) -> &mut SectionProfile {
        self.sections
            .entry(section)
            .or_insert_with(|| SectionProfile {
                section,
                ..SectionProfile::default()
            })
    }

    /// Folds in the next event of the merged trace.
    pub fn step(&mut self, e: &Event) {
        let st = self.threads.entry(e.tid).or_default();
        match st.sections.step(e) {
            Step::EnteredOutermost { section } => {
                st.trusted = st.retry_section.is_none_or(|s| s == section);
                st.retry_section = None;
            }
            Step::ExitedOutermost(x) => {
                // An exit naming another section than the one entered
                // is the same desync seen from the other end.
                if st.trusted && e.kind == (EventKind::SectionExit { section: x.section }) {
                    let acq = x.acquired.unwrap_or(x.enter);
                    let p = self.section(x.section);
                    p.entries += 1;
                    p.wait.add(acq.saturating_sub(x.enter));
                    p.hold.add(e.clock.saturating_sub(acq));
                    p.revalidations.add(x.revalidations);
                }
            }
            Step::Aborted { section } => {
                if st.trusted {
                    st.retry_section = Some(section);
                    self.section(section).aborts += 1;
                }
            }
            Step::EnteredNested { .. }
            | Step::Acquired { .. }
            | Step::ExitedNested
            | Step::Other => {}
        }
    }

    /// The profiles, sorted by section id.
    pub fn finish(self) -> Vec<SectionProfile> {
        self.sections.into_values().collect()
    }
}

/// Derives per-section profiles from a merged trace, sorted by section
/// id.
pub fn profile(trace: &Trace) -> Vec<SectionProfile> {
    let mut p = Profiler::default();
    for e in &trace.events {
        p.step(e);
    }
    p.finish()
}

/// Renders profiles as an aligned text report (the `trace-dump`
/// `--profile` output).
pub fn render(profiles: &[SectionProfile]) -> String {
    let mut out = String::new();
    for p in profiles {
        out.push_str(&format!(
            "section {:>3}  entries={:<6} aborts={:<6}\n  wait:  {}\n  hold:  {}\n  reval: {}\n",
            p.section,
            p.entries,
            p.aborts,
            p.wait.render(),
            p.hold.render(),
            p.revalidations.render()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use mglock::{Mode, NodeKey};

    fn ev(epoch: u64, tid: u32, clock: u64, kind: EventKind) -> Event {
        Event {
            epoch,
            tid,
            clock,
            kind,
        }
    }

    fn acq(node: NodeKey, mode: Mode) -> EventKind {
        EventKind::LockAcquire { node, mode }
    }

    fn rel(node: NodeKey, mode: Mode) -> EventKind {
        EventKind::LockRelease { node, mode }
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 7, 8, 100] {
            h.add(v);
        }
        assert_eq!(h.count, 7);
        assert_eq!(h.max, 100);
        assert_eq!(h.buckets[0], 1); // v = 0
        assert_eq!(h.buckets[1], 2); // v ∈ {1, 2}
        assert_eq!(h.buckets[2], 1); // v = 3
        assert_eq!(h.buckets[3], 2); // v ∈ {7, 8}
        let r = h.render();
        assert!(r.starts_with("n=7"), "{r}");
    }

    #[test]
    fn histogram_saturates_at_the_boundary() {
        let mut h = Histogram::default();
        h.add(u64::MAX); // v + 1 would overflow; must not panic
        h.add(u64::MAX - 1);
        h.add(u64::MAX);
        assert_eq!(h.count, 3);
        assert_eq!(h.max, u64::MAX);
        assert_eq!(h.sum, u64::MAX, "sum clamps instead of wrapping");
        assert_eq!(h.buckets[63], 3, "both land in the top bucket");
    }

    #[test]
    fn wait_and_hold_split_at_first_plan_completion() {
        let t = Trace {
            events: vec![
                ev(0, 0, 100, EventKind::SectionEnter { section: 3 }),
                ev(1, 0, 104, acq(NodeKey::Root, Mode::Ix)),
                ev(2, 0, 110, acq(NodeKey::Pts(1), Mode::X)),
                ev(3, 0, 110, EventKind::PlanComplete),
                ev(4, 0, 130, EventKind::SectionExit { section: 3 }),
            ],
            ..Trace::default()
        };
        let ps = profile(&t);
        assert_eq!(ps.len(), 1);
        assert_eq!(ps[0].section, 3);
        assert_eq!(ps[0].entries, 1);
        assert_eq!(ps[0].wait.sum, 10);
        assert_eq!(ps[0].hold.sum, 20);
        assert_eq!(ps[0].revalidations.sum, 0);
    }

    #[test]
    fn revalidation_retries_land_in_hold_not_wait() {
        // The chaos-suite TH resize schedule in miniature: the plan
        // completes at clock 110, the hash-table descriptor drifts
        // (resize), the session releases and re-acquires, completing
        // again at 140. The last-grant rule would report wait = 35 and
        // hold = 60, reclassifying 30 held ticks as contention.
        let t = Trace {
            events: vec![
                ev(0, 0, 100, EventKind::SectionEnter { section: 5 }),
                ev(1, 0, 104, acq(NodeKey::Root, Mode::Ix)),
                ev(2, 0, 110, acq(NodeKey::Pts(2), Mode::X)),
                ev(3, 0, 110, EventKind::PlanComplete),
                // Drift detected: release, re-evaluate, re-acquire.
                ev(4, 0, 120, rel(NodeKey::Pts(2), Mode::X)),
                ev(5, 0, 120, rel(NodeKey::Root, Mode::Ix)),
                ev(6, 0, 128, acq(NodeKey::Root, Mode::Ix)),
                ev(7, 0, 135, acq(NodeKey::Pts(3), Mode::X)),
                ev(8, 0, 140, EventKind::PlanComplete),
                ev(9, 0, 200, EventKind::SectionExit { section: 5 }),
            ],
            ..Trace::default()
        };
        let ps = profile(&t);
        assert_eq!(ps.len(), 1);
        assert_eq!(ps[0].entries, 1);
        assert_eq!(ps[0].wait.sum, 10, "wait ends at the FIRST completion");
        assert_eq!(ps[0].hold.sum, 90, "retry time stays in hold");
        assert_eq!(ps[0].revalidations.count, 1);
        assert_eq!(ps[0].revalidations.sum, 1, "one retry, counted apart");
    }

    #[test]
    fn stm_aborts_are_attributed_to_the_open_section() {
        let t = Trace {
            events: vec![
                ev(0, 0, 10, EventKind::SectionEnter { section: 1 }),
                ev(1, 0, 15, EventKind::StmAbort),
                ev(2, 0, 16, EventKind::SectionEnter { section: 1 }),
                ev(
                    3,
                    0,
                    20,
                    EventKind::StmCommit {
                        reads: 1,
                        writes: 1,
                    },
                ),
                ev(4, 0, 20, EventKind::SectionExit { section: 1 }),
            ],
            ..Trace::default()
        };
        let ps = profile(&t);
        assert_eq!(ps[0].aborts, 1);
        assert_eq!(ps[0].entries, 1);
        // STM sections have no lock grants: wait 0, hold = exit − enter.
        assert_eq!(ps[0].wait.sum, 0);
        assert_eq!(ps[0].hold.sum, 4);
    }

    #[test]
    fn nested_sections_profile_only_the_outermost() {
        let t = Trace {
            events: vec![
                ev(0, 0, 0, EventKind::SectionEnter { section: 1 }),
                ev(1, 0, 2, EventKind::SectionEnter { section: 2 }),
                ev(2, 0, 4, EventKind::SectionExit { section: 2 }),
                ev(3, 0, 6, EventKind::SectionExit { section: 1 }),
            ],
            ..Trace::default()
        };
        let ps = profile(&t);
        assert_eq!(ps.len(), 1);
        assert_eq!(ps[0].section, 1);
        assert_eq!(ps[0].entries, 1);
    }

    #[test]
    fn truncated_crash_trace_does_not_profile_from_stale_state() {
        // A nested STM attempt aborts; the retry's outer re-enter was
        // lost to buffer truncation, so the next event is the *nested*
        // re-enter. Profiling it as an outermost execution would
        // fabricate a sample for section 2 from stale depth
        // bookkeeping; the abort guard skips it, and the next complete
        // execution profiles normally.
        let t = Trace {
            events: vec![
                ev(0, 0, 10, EventKind::SectionEnter { section: 1 }),
                ev(1, 0, 12, EventKind::SectionEnter { section: 2 }),
                ev(2, 0, 15, EventKind::StmAbort),
                // enter(1) @16 dropped — the trace is truncated.
                ev(3, 0, 17, EventKind::SectionEnter { section: 2 }),
                ev(4, 0, 20, EventKind::SectionExit { section: 2 }),
                ev(5, 0, 25, EventKind::SectionExit { section: 1 }),
                ev(6, 0, 30, EventKind::SectionEnter { section: 1 }),
                ev(7, 0, 33, EventKind::PlanComplete),
                ev(8, 0, 40, EventKind::SectionExit { section: 1 }),
            ],
            dropped: 1,
            ..Trace::default()
        };
        let ps = profile(&t);
        assert_eq!(ps.len(), 1, "no fabricated profile for section 2: {ps:?}");
        assert_eq!(ps[0].section, 1);
        assert_eq!(ps[0].aborts, 1);
        assert_eq!(ps[0].entries, 1, "only the complete execution counts");
        assert_eq!(ps[0].wait.sum, 3);
        assert_eq!(ps[0].hold.sum, 7);
    }
}
