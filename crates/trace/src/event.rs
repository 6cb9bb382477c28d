//! The structured event vocabulary of a runtime trace.
//!
//! One [`Event`] is recorded per observable runtime action: section
//! boundaries, lock-tree grants and releases (with their Fig. 6 mode),
//! shared heap accesses, STM lifecycle transitions, and injected
//! faults. Events carry the global merge epoch (total order), the
//! recording thread, and that thread's virtual clock at the time.

use mglock::{Mode, NodeKey};

/// Which fault-injection class fired (mirrors `interp::fault`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultClass {
    /// Mid-section panic (the worker unwound).
    Panic,
    /// Spurious transactional abort.
    SpuriousAbort,
    /// Pre-acquisition stall.
    Stall,
    /// Delayed lock-wait wakeup.
    WakeupDelay,
}

impl FaultClass {
    /// Every class, in the order metric series and fixed-shape
    /// snapshots list them.
    pub const ALL: [FaultClass; 4] = [
        FaultClass::Panic,
        FaultClass::SpuriousAbort,
        FaultClass::Stall,
        FaultClass::WakeupDelay,
    ];

    /// The class's one spelling: the `CLASS` tag of the trace format
    /// and the `class` label / name infix of the fault metrics.
    pub fn tag(self) -> &'static str {
        match self {
            FaultClass::Panic => "panic",
            FaultClass::SpuriousAbort => "abort",
            FaultClass::Stall => "stall",
            FaultClass::WakeupDelay => "delay",
        }
    }

    pub(crate) fn from_tag(s: &str) -> Option<FaultClass> {
        FaultClass::ALL.into_iter().find(|c| c.tag() == s)
    }
}

/// What happened.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EventKind {
    /// An atomic section was entered (every nesting level records one).
    SectionEnter { section: u32 },
    /// An atomic section was left. In STM mode this is recorded only
    /// when the attempt survives (inner levels always; the outermost
    /// level after a successful commit) — an aborted attempt ends with
    /// [`EventKind::StmAbort`] instead.
    SectionExit { section: u32 },
    /// A lock-tree node was granted in `mode` (from `mglock`).
    LockAcquire { node: NodeKey, mode: Mode },
    /// A lock-tree node grant was released (including unwind releases
    /// from a panicking worker's session drop).
    LockRelease { node: NodeKey, mode: Mode },
    /// The thread's lock plan for the current outermost section is
    /// fully granted. The *first* marker after a `SectionEnter` is the
    /// section's acquisition point (wait ends, hold begins); later
    /// markers before the exit are acquire-time revalidation retries —
    /// the descriptors drifted while the session waited and the plan
    /// was released and re-acquired (DESIGN.md §5.2).
    PlanComplete,
    /// An in-section shared read of heap cell `addr`.
    Read { addr: u64 },
    /// An in-section shared write of heap cell `addr`.
    Write { addr: u64 },
    /// An in-section allocation: cells `[base, base+len)` are private
    /// to the allocating thread until the section publishes them
    /// (Lemma 2's reachability proviso) — the validator exempts them.
    Alloc { base: u64, len: u64 },
    /// The outermost STM section committed with the given read/write
    /// set sizes (from `tl2`).
    StmCommit { reads: u64, writes: u64 },
    /// The current STM attempt aborted and will retry; the thread's
    /// section depth resets to zero.
    StmAbort,
    /// The STM starvation fallback engaged: the next attempt runs
    /// irrevocably (from `tl2`).
    StmFallback,
    /// A fault-injection point fired.
    Fault { class: FaultClass },
    /// The sentinel's quarantine ladder transitioned for `section`:
    /// `healed == false` is a demotion (the section's next executions
    /// run under the trivially sound global scheme), `healed == true`
    /// a re-admission after its probation elapsed. `probation` is the
    /// number of consecutive clean executions required before (for a
    /// demotion) or served by (for a heal) this transition — it grows
    /// exponentially when a healed section re-offends (flap damping).
    Quarantine {
        section: u32,
        healed: bool,
        probation: u32,
    },
    /// A policy-steered lock release made a wake decision: `depth`
    /// threads were queued on `node`, of which the `woken` with the
    /// minimal policy rank form the preferred batch; `mode` is the
    /// request of the batch's first member. Recorded by the releasing
    /// thread (after its release events) only when a wake policy is
    /// configured — the legacy FIFO path emits nothing, keeping
    /// historical traces byte-identical.
    WakeDecision {
        node: NodeKey,
        mode: Mode,
        depth: u32,
        woken: u32,
    },
    /// The re-inference repair ledger transitioned for `section`:
    /// `accepted == true` means the section healed onto repair
    /// `candidate` (its next executions plan the repaired specs
    /// instead of the seed scheme), `accepted == false` means the
    /// active repair was revoked because it drew a violation itself
    /// (the section falls back to the ordinary quarantine ladder).
    /// Recorded by the worker immediately after the corresponding
    /// [`EventKind::Quarantine`] transition; runs without staged
    /// repairs emit nothing, keeping historical traces byte-identical.
    Reinfer {
        section: u32,
        candidate: u32,
        accepted: bool,
    },
}

impl EventKind {
    /// Every kind's one spelling, sorted: the `kind` label of the
    /// event-count metrics and the keys of [`crate::Trace::counts`].
    pub const NAMES: [&'static str; 15] = [
        "alloc",
        "fault",
        "lock_acquire",
        "lock_release",
        "plan_complete",
        "quarantine",
        "read",
        "reinfer",
        "section_enter",
        "section_exit",
        "stm_abort",
        "stm_commit",
        "stm_fallback",
        "wake_decision",
        "write",
    ];

    /// This kind's position in [`EventKind::NAMES`].
    pub fn index(self) -> usize {
        match self {
            EventKind::Alloc { .. } => 0,
            EventKind::Fault { .. } => 1,
            EventKind::LockAcquire { .. } => 2,
            EventKind::LockRelease { .. } => 3,
            EventKind::PlanComplete => 4,
            EventKind::Quarantine { .. } => 5,
            EventKind::Read { .. } => 6,
            EventKind::Reinfer { .. } => 7,
            EventKind::SectionEnter { .. } => 8,
            EventKind::SectionExit { .. } => 9,
            EventKind::StmAbort => 10,
            EventKind::StmCommit { .. } => 11,
            EventKind::StmFallback => 12,
            EventKind::WakeDecision { .. } => 13,
            EventKind::Write { .. } => 14,
        }
    }

    /// Which of [`EventKind::NAMES`] this event is.
    pub fn name(self) -> &'static str {
        Self::NAMES[self.index()]
    }
}

/// One recorded event.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Event {
    /// Global merge order: a monotone counter stamped at record time.
    /// Under the virtual-time scheduler exactly one thread runs at a
    /// time, so epochs give a deterministic total order.
    pub epoch: u64,
    /// Recording thread.
    pub tid: u32,
    /// The thread's virtual clock when the event fired (0 in real-time
    /// runs, which have no virtual clock).
    pub clock: u64,
    /// What happened.
    pub kind: EventKind,
}
