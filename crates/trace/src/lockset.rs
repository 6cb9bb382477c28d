//! Eraser-style lockset validation of a merged trace.
//!
//! The dynamic counterpart of Theorem 1: replay the totally-ordered
//! event stream, tracking per thread the set of held lock-tree nodes
//! with their granted modes and the open section's private allocations
//! (which section is open is [`crate::sections::Cursor`]'s to say).
//! Every in-section shared access must be *licensed* by some held node
//! ([`licensed`], the one statement of the predicate):
//!
//! * the node must **cover** the location — `Root` covers everything,
//!   `Pts(p)` covers every cell whose allocation site has points-to
//!   class `p`, `Fine(_, Cell(a))` covers exactly cell `a`, and
//!   `Fine(_, Range(b))` covers every cell of the allocation based at
//!   `b`;
//! * the node's granted mode must license the **effect** — per Fig. 6,
//!   full modes do (`X` licenses reads and writes; `S` and `SIX`
//!   license reads) while intention modes (`IS`, `IX`) license
//!   *nothing*: they only announce locking intent below, so an access
//!   "protected" by an intention grant alone is a real violation.
//!
//! Cells the thread allocated inside the still-open section are exempt
//! (Lemma 2's reachability proviso: unpublished cells are private).
//!
//! STM-mode traces carry no lock events; for them the validator checks
//! the transactional discipline structurally — every access must fall
//! inside an open section attempt — and reports coverage vacuously.

use crate::event::EventKind;
use crate::sections::{Cursor, Step};
use crate::Trace;
use mglock::{FineAddr, Mode, NodeKey};

/// One uncovered in-section access: the one record of a violation,
/// which re-inference diagnoses (`src/reinfer.rs`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Violation {
    pub tid: u32,
    pub epoch: u64,
    pub clock: u64,
    pub addr: u64,
    pub write: bool,
    /// The outermost section open on the thread — the one whose
    /// `acquireAll` plan holds the locks, and the one the sentinel and
    /// the profiler name (0 if none is open).
    pub section: u32,
    /// The grants the thread held at the access, in the order the
    /// trace left them.
    pub held: Vec<(NodeKey, Mode)>,
    /// The accessed cell's allocation `(base, points-to class)`, when
    /// the trace's allocation table has one.
    pub extent: Option<(u64, u32)>,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "tid {} epoch {} clock {}: uncovered {} of cell {} in section {}",
            self.tid,
            self.epoch,
            self.clock,
            if self.write { "write" } else { "read" },
            self.addr,
            self.section
        )
    }
}

/// Validation outcome.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Validation {
    /// In-section accesses checked against the lockset rule.
    pub checked: u64,
    /// Accesses exempt as section-private allocations.
    pub exempt: u64,
    /// Accesses not licensed by any held lock.
    pub violations: Vec<Violation>,
    /// Threads whose trace ends mid-section (crashed or panicked
    /// workers — legitimate under fault injection; their locks were
    /// unwind-released, which the trace records).
    pub crashed: Vec<u32>,
}

impl Validation {
    /// True when no uncovered access was found.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Why a trace could not be validated at all (as opposed to failing
/// validation).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ValidationError {
    /// The recorder dropped events (a thread hit its capacity); a
    /// truncated trace could be missing lock grants, so checking it
    /// would report false violations.
    DroppedEvents { dropped: u64 },
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::DroppedEvents { dropped } => {
                write!(f, "trace dropped {dropped} events; refusing to validate")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

#[derive(Default)]
struct ThreadState {
    sections: Cursor,
    held: Vec<(NodeKey, Mode)>,
    allocs: Vec<(u64, u64)>,
}

/// Does any grant in `held` license an access of `addr` with the given
/// effect? This is the Fig. 6 licensing predicate, stated here once: a
/// grant licenses the access when its mode grants the effect
/// ([`mode_grants`]) and its node covers the cell ([`covers`]). The
/// post-hoc validator below asks it of a recorded trace's grants, and
/// the interpreter's online sentinel (`Worker::licensed`, in
/// `crates/interp/src/worker.rs`) of a worker's live held-mode set, so
/// their verdicts cannot diverge.
///
/// `extent` resolves the accessed cell's allocation `(base, points-to
/// class)`, when known. It is called lazily — at most once, and only
/// if a `Pts` or `Range` grant survives the mode filter — because
/// resolving it costs an allocation-table lookup per access while the
/// common grants (`Root`, an exact cell) decide without it.
pub fn licensed(
    held: impl IntoIterator<Item = (NodeKey, Mode)>,
    addr: u64,
    write: bool,
    extent: impl FnOnce() -> Option<(u64, u32)>,
) -> bool {
    let mut extent = Some(extent);
    let mut memo = None;
    held.into_iter().any(|(node, mode)| {
        mode_grants(mode, write) && {
            let ext = match node {
                NodeKey::Root | NodeKey::Fine(_, FineAddr::Cell(_)) => None,
                NodeKey::Pts(_) | NodeKey::Fine(_, FineAddr::Range(_)) => {
                    *memo.get_or_insert_with(|| extent.take().and_then(|f| f()))
                }
            };
            covers(node, addr, ext)
        }
    })
}

/// Does `node` cover the cell `addr` (whose allocation, if any, is
/// `extent = (base, points-to class)`), whatever its mode? `Root`
/// covers everything, `Pts(p)` every cell of class `p`, a `Cell` node
/// exactly its cell, and a `Range` node every cell of the allocation it
/// is based at.
pub fn covers(node: NodeKey, addr: u64, extent: Option<(u64, u32)>) -> bool {
    match node {
        NodeKey::Root => true,
        NodeKey::Pts(p) => extent.is_some_and(|(_, class)| class == p),
        NodeKey::Fine(_, FineAddr::Cell(a)) => addr == a,
        NodeKey::Fine(_, FineAddr::Range(b)) => extent.is_some_and(|(base, _)| base == b),
    }
}

/// Fig. 6's effect filter alone: X is the only mode granting writes; S
/// and SIX additionally grant reads; the intention modes IS/IX grant no
/// access of their own.
pub fn mode_grants(mode: Mode, write: bool) -> bool {
    if write {
        mode == Mode::X
    } else {
        matches!(mode, Mode::S | Mode::Six | Mode::X)
    }
}

/// Replays `trace` and checks the lockset discipline.
///
/// # Errors
///
/// [`ValidationError::DroppedEvents`] when the trace is truncated.
pub fn validate(trace: &Trace) -> Result<Validation, ValidationError> {
    if trace.dropped > 0 {
        return Err(ValidationError::DroppedEvents {
            dropped: trace.dropped,
        });
    }
    // STM traces have no lock grants; accesses are covered by the
    // transaction itself. Check section structure only.
    let stm = trace.meta_get("mode") == Some("Stm");
    // A trace names a handful of threads and mostly runs one of them
    // for many events in a row: a scan from the last one found beats
    // hashing every event's tid.
    let mut threads: Vec<(u32, ThreadState)> = Vec::new();
    let mut at = 0;
    let mut v = Validation::default();
    for e in &trace.events {
        if threads.get(at).is_none_or(|&(tid, _)| tid != e.tid) {
            at = match threads.iter().position(|&(tid, _)| tid == e.tid) {
                Some(i) => i,
                None => {
                    threads.push((e.tid, ThreadState::default()));
                    threads.len() - 1
                }
            };
        }
        let st = &mut threads[at].1;
        match e.kind {
            EventKind::LockAcquire { node, mode } => st.held.push((node, mode)),
            EventKind::LockRelease { node, mode } => {
                if let Some(i) = st.held.iter().position(|&(n, m)| n == node && m == mode) {
                    st.held.swap_remove(i);
                }
            }
            EventKind::Alloc { base, len } => {
                if st.sections.open_section().is_some() {
                    st.allocs.push((base, len));
                }
            }
            EventKind::Read { addr } | EventKind::Write { addr } => {
                let write = matches!(e.kind, EventKind::Write { .. });
                if st.allocs.iter().any(|&(b, l)| addr >= b && addr < b + l) {
                    v.exempt += 1;
                    continue;
                }
                v.checked += 1;
                let open = st.sections.open_section();
                let extent = || trace.alloc_of(addr).map(|a| (a.base, a.class));
                let covered = if stm {
                    // The access is covered by the open transaction.
                    open.is_some()
                } else {
                    open.is_some() && licensed(st.held.iter().copied(), addr, write, extent)
                };
                if !covered {
                    v.violations.push(Violation {
                        tid: e.tid,
                        epoch: e.epoch,
                        clock: e.clock,
                        addr,
                        write,
                        section: open.unwrap_or(0),
                        held: st.held.clone(),
                        extent: extent(),
                    });
                }
            }
            _ => {
                // Private allocations live as long as the outermost
                // execution: a commit publishes them, an aborted
                // attempt's are unreachable.
                if let Step::ExitedOutermost(_) | Step::Aborted { .. } = st.sections.step(&e) {
                    st.allocs.clear();
                }
            }
        }
    }
    let mut crashed: Vec<u32> = threads
        .iter()
        .filter(|(_, st)| st.sections.crashed())
        .map(|&(tid, _)| tid)
        .collect();
    crashed.sort_unstable();
    v.crashed = crashed;
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::AllocRecord;
    use proptest::prelude::*;

    fn ev(epoch: u64, tid: u32, kind: EventKind) -> Event {
        Event {
            epoch,
            tid,
            clock: epoch,
            kind,
        }
    }

    fn lock_trace(events: Vec<Event>) -> Trace {
        Trace {
            meta: vec![("mode".into(), "MultiGrain".into())],
            allocs: vec![
                AllocRecord {
                    base: 10,
                    len: 4,
                    class: 1,
                },
                AllocRecord {
                    base: 20,
                    len: 8,
                    class: 2,
                },
            ],
            events: events.into(),
            dropped: 0,
        }
    }

    #[test]
    fn licensed_agrees_with_the_validator_core() {
        let fine = NodeKey::Fine(1, FineAddr::Cell(42));
        // X licenses the write…
        assert!(licensed([(fine, Mode::X)], 42, true, || None));
        // …S does not, and intention modes license nothing.
        assert!(!licensed([(fine, Mode::S)], 42, true, || None));
        assert!(!licensed([(NodeKey::Pts(1), Mode::Ix)], 42, true, || {
            Some((40, 1))
        }));
        // Root covers everything; Pts covers by class.
        assert!(licensed([(NodeKey::Root, Mode::X)], 7, true, || None));
        assert!(licensed([(NodeKey::Pts(3), Mode::S)], 7, false, || {
            Some((0, 3))
        }));
        assert!(!licensed([(NodeKey::Pts(3), Mode::S)], 7, false, || {
            Some((0, 4))
        }));
    }

    #[test]
    fn extent_is_resolved_lazily_and_at_most_once() {
        use std::cell::Cell;
        let calls = Cell::new(0u32);
        let counting = || {
            calls.set(calls.get() + 1);
            Some((40, 1))
        };
        // An exact-cell grant decides without the extent.
        let fine = NodeKey::Fine(1, FineAddr::Cell(42));
        assert!(licensed([(fine, Mode::X)], 42, true, counting));
        assert_eq!(calls.get(), 0);
        // Intention modes are filtered before the extent is touched.
        assert!(!licensed([(NodeKey::Pts(1), Mode::Ix)], 42, true, counting));
        assert_eq!(calls.get(), 0);
        // Two extent-hungry grants share one resolution.
        assert!(!licensed(
            [(NodeKey::Pts(7), Mode::X), (NodeKey::Pts(8), Mode::X)],
            42,
            true,
            counting
        ));
        assert_eq!(calls.get(), 1);
    }

    /// Three allocations of four cells at bases 0, 4 and 8; cells 12..16
    /// belong to none.
    const BASES: [u64; 3] = [0, 4, 8];
    const LEN: u64 = 4;

    fn node() -> impl Strategy<Value = NodeKey> {
        prop_oneof![
            Just(NodeKey::Root),
            (0u32..3).prop_map(NodeKey::Pts),
            (0u32..3, 0u64..16).prop_map(|(p, a)| NodeKey::Fine(p, FineAddr::Cell(a))),
            // Base 2 is no allocation's: such a node covers nothing.
            (0u32..3, prop::sample::select(vec![0u64, 2, 4, 8]))
                .prop_map(|(p, b)| NodeKey::Fine(p, FineAddr::Range(b))),
        ]
    }

    fn mode() -> impl Strategy<Value = Mode> {
        prop::sample::select(vec![Mode::Is, Mode::Ix, Mode::S, Mode::Six, Mode::X])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The lazy predicate is the eager one, grant by grant, and
        /// resolves the extent at most once, only for a grant that
        /// needs it; coverage is what each node names in the
        /// allocation table.
        #[test]
        fn lazy_licensing_is_the_eager_predicate(
            held in prop::collection::vec((node(), mode()), 0..5),
            classes in prop::collection::vec(0u32..3, 3..4),
            addr in 0u64..16,
            write in any::<bool>(),
        ) {
            let eager = BASES
                .iter()
                .zip(&classes)
                .find(|&(&b, _)| (b..b + LEN).contains(&addr))
                .map(|(&b, &class)| (b, class));
            let calls = std::cell::Cell::new(0u32);
            let lazy = licensed(held.iter().copied(), addr, write, || {
                calls.set(calls.get() + 1);
                eager
            });
            let want = held
                .iter()
                .any(|&(n, m)| mode_grants(m, write) && covers(n, addr, eager));
            prop_assert_eq!(lazy, want);
            prop_assert!(calls.get() <= 1);
            let needs = |n: NodeKey| {
                matches!(n, NodeKey::Pts(_) | NodeKey::Fine(_, FineAddr::Range(_)))
            };
            prop_assert!(
                calls.get() == 0 || held.iter().any(|&(n, m)| needs(n) && mode_grants(m, write))
            );
            // Each node covers exactly the cells it names: its class's
            // allocations, its cell, or the allocation it is based at.
            for &(n, _) in &held {
                let in_alloc = |b: u64| BASES.contains(&b) && (b..b + LEN).contains(&addr);
                let named = match n {
                    NodeKey::Root => true,
                    NodeKey::Pts(p) => BASES
                        .iter()
                        .zip(&classes)
                        .any(|(&b, &c)| c == p && in_alloc(b)),
                    NodeKey::Fine(_, FineAddr::Cell(a)) => a == addr,
                    NodeKey::Fine(_, FineAddr::Range(b)) => in_alloc(b),
                };
                prop_assert_eq!(covers(n, addr, eager), named, "{:?} at {}", n, addr);
            }
        }
    }

    #[test]
    fn full_modes_license_their_effects() {
        let node = NodeKey::Fine(1, FineAddr::Cell(11));
        let t = lock_trace(vec![
            ev(0, 0, EventKind::SectionEnter { section: 1 }),
            ev(
                1,
                0,
                EventKind::LockAcquire {
                    node,
                    mode: Mode::X,
                },
            ),
            ev(2, 0, EventKind::Read { addr: 11 }),
            ev(3, 0, EventKind::Write { addr: 11 }),
            ev(
                4,
                0,
                EventKind::LockRelease {
                    node,
                    mode: Mode::X,
                },
            ),
            ev(5, 0, EventKind::SectionExit { section: 1 }),
        ]);
        let v = validate(&t).unwrap();
        assert!(v.passed(), "{:?}", v.violations);
        assert_eq!(v.checked, 2);
    }

    #[test]
    fn shared_mode_rejects_writes() {
        let node = NodeKey::Pts(1);
        let t = lock_trace(vec![
            ev(0, 0, EventKind::SectionEnter { section: 1 }),
            ev(
                1,
                0,
                EventKind::LockAcquire {
                    node,
                    mode: Mode::S,
                },
            ),
            ev(2, 0, EventKind::Read { addr: 11 }),
            ev(3, 0, EventKind::Write { addr: 11 }),
            ev(4, 0, EventKind::SectionExit { section: 1 }),
        ]);
        let v = validate(&t).unwrap();
        assert_eq!(v.violations.len(), 1);
        assert!(v.violations[0].write);
        // The violation carries what diagnosing it needs: the grants
        // held at the access and the cell's allocation.
        assert_eq!(v.violations[0].held, vec![(node, Mode::S)]);
        assert_eq!(v.violations[0].extent, Some((10, 1)));
    }

    #[test]
    fn intention_modes_license_nothing() {
        // IX on the partition announces a fine lock below; it must not
        // itself cover other cells of the class (the Fig. 6
        // distinction the validator exists to enforce).
        let t = lock_trace(vec![
            ev(0, 0, EventKind::SectionEnter { section: 1 }),
            ev(
                1,
                0,
                EventKind::LockAcquire {
                    node: NodeKey::Pts(1),
                    mode: Mode::Ix,
                },
            ),
            ev(
                2,
                0,
                EventKind::LockAcquire {
                    node: NodeKey::Fine(1, FineAddr::Cell(10)),
                    mode: Mode::X,
                },
            ),
            ev(3, 0, EventKind::Write { addr: 10 }),
            ev(4, 0, EventKind::Write { addr: 11 }),
            ev(5, 0, EventKind::SectionExit { section: 1 }),
        ]);
        let v = validate(&t).unwrap();
        assert_eq!(v.violations.len(), 1, "{:?}", v.violations);
        assert_eq!(v.violations[0].addr, 11);
    }

    #[test]
    fn range_and_coarse_nodes_cover_by_extent_and_class() {
        let t = lock_trace(vec![
            ev(0, 0, EventKind::SectionEnter { section: 2 }),
            ev(
                1,
                0,
                EventKind::LockAcquire {
                    node: NodeKey::Fine(2, FineAddr::Range(20)),
                    mode: Mode::X,
                },
            ),
            ev(2, 0, EventKind::Write { addr: 27 }),
            ev(
                3,
                0,
                EventKind::LockAcquire {
                    node: NodeKey::Pts(1),
                    mode: Mode::X,
                },
            ),
            ev(4, 0, EventKind::Write { addr: 12 }),
            // Cell 30 has no allocation record: neither node covers it.
            ev(5, 0, EventKind::Read { addr: 30 }),
            ev(6, 0, EventKind::SectionExit { section: 2 }),
        ]);
        let v = validate(&t).unwrap();
        assert_eq!(v.violations.len(), 1);
        assert_eq!(v.violations[0].addr, 30);
        assert_eq!(v.violations[0].extent, None);
        assert_eq!(v.violations[0].held.len(), 2);
    }

    #[test]
    fn section_private_allocations_are_exempt() {
        let t = lock_trace(vec![
            ev(0, 0, EventKind::SectionEnter { section: 1 }),
            ev(1, 0, EventKind::Alloc { base: 100, len: 3 }),
            ev(2, 0, EventKind::Write { addr: 101 }),
            ev(3, 0, EventKind::SectionExit { section: 1 }),
        ]);
        let v = validate(&t).unwrap();
        assert!(v.passed());
        assert_eq!(v.exempt, 1);
        assert_eq!(v.checked, 0);
    }

    #[test]
    fn stm_abort_resets_depth_and_crashed_threads_are_reported() {
        let t = Trace {
            meta: vec![("mode".into(), "Stm".into())],
            allocs: Vec::new(),
            events: vec![
                ev(0, 0, EventKind::SectionEnter { section: 1 }),
                ev(1, 0, EventKind::Read { addr: 5 }),
                ev(2, 0, EventKind::StmAbort),
                ev(3, 0, EventKind::SectionEnter { section: 1 }),
                ev(4, 0, EventKind::Read { addr: 5 }),
                ev(
                    5,
                    0,
                    EventKind::StmCommit {
                        reads: 1,
                        writes: 0,
                    },
                ),
                ev(6, 0, EventKind::SectionExit { section: 1 }),
                // Thread 1 dies mid-section.
                ev(7, 1, EventKind::SectionEnter { section: 1 }),
                ev(
                    8,
                    1,
                    EventKind::Fault {
                        class: crate::event::FaultClass::Panic,
                    },
                ),
            ]
            .into(),
            dropped: 0,
        };
        let v = validate(&t).unwrap();
        assert!(v.passed());
        assert_eq!(v.crashed, vec![1]);
    }

    #[test]
    fn a_violation_after_a_nested_exit_is_blamed_on_the_outermost_section() {
        // Section 1's plan holds the locks for everything nested in it;
        // once section 2 has closed, an uncovered access is section 1's
        // gap, not section 2's.
        let t = lock_trace(vec![
            ev(0, 0, EventKind::SectionEnter { section: 1 }),
            ev(1, 0, EventKind::SectionEnter { section: 2 }),
            ev(2, 0, EventKind::SectionExit { section: 2 }),
            ev(3, 0, EventKind::Write { addr: 11 }),
            ev(4, 0, EventKind::SectionExit { section: 1 }),
        ]);
        let v = validate(&t).unwrap();
        assert_eq!(v.violations.len(), 1);
        assert_eq!(v.violations[0].section, 1);
        assert!(v.crashed.is_empty());
    }

    #[test]
    fn truncated_traces_are_refused() {
        let mut t = lock_trace(Vec::new());
        t.dropped = 7;
        assert!(matches!(
            validate(&t),
            Err(ValidationError::DroppedEvents { dropped: 7 })
        ));
    }
}
