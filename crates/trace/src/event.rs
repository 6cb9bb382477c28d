//! The structured event vocabulary of a runtime trace.
//!
//! One [`Event`] is recorded per observable runtime action: section
//! boundaries, lock-tree grants and releases (with their Fig. 6 mode),
//! shared heap accesses, STM lifecycle transitions, and injected
//! faults. Events carry the global merge epoch (total order), the
//! recording thread, and that thread's virtual clock at the time.
//!
//! A trace stores its events byte-coded in an [`EventLog`]; [`Event`]
//! and [`EventKind`] are the values every reader decodes from it.

use mglock::modes::ALL_MODES;
use mglock::{FineAddr, Mode, NodeKey};

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
    /// A staged re-inference repair changed phase for `section`:
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

/// An append-only, byte-coded sequence of [`Event`]s: how a trace
/// stores its events. The recorder and the JSON reader push; every
/// reader decodes with [`EventLog::iter`].
///
/// Each event is one kind byte followed by LEB128 varints, the layout
/// of Go's runtime execution tracer:
///
/// ```text
/// event := kind Δepoch tid zigzag(Δclock) field*
/// kind  := index | small << 4
/// node  := pts << 2 | class [addr]
/// ```
///
/// `index` is [`EventKind::index`]; `small` is the kind's one small
/// field — the Fig. 6 mode of an acquire, release or wake decision, the
/// fault class, the `qr` healed or `ri` accepted flag — and 0 for the
/// other kinds; it is below 8, so the kind byte's high bit is clear.
/// `Δepoch` is the wrapping difference from the previous event's epoch
/// and `Δclock` the signed one from its clock, so the usual event, one
/// epoch and a few ticks after the last, spends a byte on each. The
/// kind's other fields follow in declaration order; a node is its
/// points-to class shifted past its [`NodeKey::CLASSES`] index, then
/// the fine address of a `cell` or `range`. Recorded traces take
/// 5.3–6.4 bytes per event, against 64 for an [`Event`].
///
/// Deltas run over the whole log, not per thread, so no state is sized
/// by a decoded value. The bytes are a function of the sequence, so
/// equal sequences are equal logs and the derived `PartialEq` compares
/// sequences.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct EventLog {
    bytes: Vec<u8>,
    len: usize,
    /// The last event's epoch and clock, which the next one's deltas
    /// are taken from.
    epoch: u64,
    clock: u64,
}

fn put(bytes: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        bytes.push((v as u8) | 0x80);
        v >>= 7;
    }
    bytes.push(v as u8);
}

fn put_node(bytes: &mut Vec<u8>, node: NodeKey) {
    match node {
        NodeKey::Root => put(bytes, 0),
        NodeKey::Pts(p) => put(bytes, (u64::from(p) << 2) | 1),
        NodeKey::Fine(p, FineAddr::Cell(a)) => {
            put(bytes, (u64::from(p) << 2) | 2);
            put(bytes, a);
        }
        NodeKey::Fine(p, FineAddr::Range(b)) => {
            put(bytes, (u64::from(p) << 2) | 3);
            put(bytes, b);
        }
    }
}

impl EventLog {
    pub fn new() -> EventLog {
        EventLog::default()
    }

    /// Events in the log.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes the coded events take.
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// Appends `e`.
    pub fn push(&mut self, e: Event) {
        // The kind byte goes first; it is filled in once the fields
        // have told its small field, so the kind is dispatched on once.
        let at = self.bytes.len();
        let b = &mut self.bytes;
        b.push(0);
        put(b, e.epoch.wrapping_sub(self.epoch));
        put(b, e.tid.into());
        let d = e.clock.wrapping_sub(self.clock) as i64;
        put(b, ((d << 1) ^ (d >> 63)) as u64);
        let small = match e.kind {
            EventKind::SectionEnter { section } | EventKind::SectionExit { section } => {
                put(b, section.into());
                0
            }
            EventKind::LockAcquire { node, mode } | EventKind::LockRelease { node, mode } => {
                put_node(b, node);
                mode as u8
            }
            EventKind::Read { addr } | EventKind::Write { addr } => {
                put(b, addr);
                0
            }
            EventKind::Alloc { base, len } => {
                put(b, base);
                put(b, len);
                0
            }
            EventKind::StmCommit { reads, writes } => {
                put(b, reads);
                put(b, writes);
                0
            }
            EventKind::Quarantine {
                section,
                healed,
                probation,
            } => {
                put(b, section.into());
                put(b, probation.into());
                healed.into()
            }
            EventKind::WakeDecision {
                node,
                mode,
                depth,
                woken,
            } => {
                put_node(b, node);
                put(b, depth.into());
                put(b, woken.into());
                mode as u8
            }
            EventKind::Reinfer {
                section,
                candidate,
                accepted,
            } => {
                put(b, section.into());
                put(b, candidate.into());
                accepted.into()
            }
            EventKind::Fault { class } => class as u8,
            EventKind::PlanComplete | EventKind::StmAbort | EventKind::StmFallback => 0,
        };
        b[at] = e.kind.index() as u8 | (small << 4);
        (self.epoch, self.clock) = (e.epoch, e.clock);
        self.len += 1;
    }

    /// The events, decoded in order.
    pub fn iter(&self) -> Events<'_> {
        Events {
            bytes: &self.bytes,
            pos: 0,
            left: self.len,
            epoch: 0,
            clock: 0,
        }
    }

    /// Gives back the capacity the log grew beyond its bytes.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.bytes.shrink_to_fit();
    }
}

/// The decoding iterator over an [`EventLog`]. A reader pays for a
/// decode on every pass, ≈ 6–8 ns an event on a 2-vCPU x86-64 machine
/// against ≈ 1 ns to iterate a `Vec<Event>`.
pub struct Events<'a> {
    bytes: &'a [u8],
    pos: usize,
    left: usize,
    epoch: u64,
    clock: u64,
}

impl Events<'_> {
    #[inline]
    fn varint(&mut self) -> u64 {
        let mut v = 0;
        let mut shift = 0;
        loop {
            let b = self.bytes[self.pos];
            self.pos += 1;
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                return v;
            }
            shift += 7;
        }
    }

    /// A field [`EventLog::push`] wrote from a `u32`.
    fn varint32(&mut self) -> u32 {
        self.varint() as u32
    }

    fn node(&mut self) -> NodeKey {
        let head = self.varint();
        let pts = (head >> 2) as u32;
        match head & 3 {
            0 => NodeKey::Root,
            1 => NodeKey::Pts(pts),
            2 => NodeKey::Fine(pts, FineAddr::Cell(self.varint())),
            _ => NodeKey::Fine(pts, FineAddr::Range(self.varint())),
        }
    }
}

impl Iterator for Events<'_> {
    type Item = Event;

    #[inline]
    fn next(&mut self) -> Option<Event> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        // The kind byte never has its high bit set, so when none of the
        // first four bytes has, the header is four one-byte fields.
        let (head, step, tid, z) = match self.bytes.get(self.pos..self.pos + 4) {
            Some(&[head, step, tid, z]) if (head | step | tid | z) < 0x80 => {
                self.pos += 4;
                (head, step.into(), tid.into(), z.into())
            }
            _ => {
                let head = self.bytes[self.pos];
                self.pos += 1;
                (head, self.varint(), self.varint32(), self.varint())
            }
        };
        let small = usize::from(head >> 4);
        self.epoch = self.epoch.wrapping_add(step);
        self.clock = self.clock.wrapping_add((z >> 1) ^ (z & 1).wrapping_neg());
        let kind = match head & 0xf {
            0 => EventKind::Alloc {
                base: self.varint(),
                len: self.varint(),
            },
            1 => EventKind::Fault {
                class: FaultClass::ALL[small],
            },
            2 => EventKind::LockAcquire {
                node: self.node(),
                mode: ALL_MODES[small],
            },
            3 => EventKind::LockRelease {
                node: self.node(),
                mode: ALL_MODES[small],
            },
            4 => EventKind::PlanComplete,
            5 => EventKind::Quarantine {
                section: self.varint32(),
                healed: small == 1,
                probation: self.varint32(),
            },
            6 => EventKind::Read {
                addr: self.varint(),
            },
            7 => EventKind::Reinfer {
                section: self.varint32(),
                candidate: self.varint32(),
                accepted: small == 1,
            },
            8 => EventKind::SectionEnter {
                section: self.varint32(),
            },
            9 => EventKind::SectionExit {
                section: self.varint32(),
            },
            10 => EventKind::StmAbort,
            11 => EventKind::StmCommit {
                reads: self.varint(),
                writes: self.varint(),
            },
            12 => EventKind::StmFallback,
            13 => EventKind::WakeDecision {
                node: self.node(),
                mode: ALL_MODES[small],
                depth: self.varint32(),
                woken: self.varint32(),
            },
            _ => EventKind::Write {
                addr: self.varint(),
            },
        };
        Some(Event {
            epoch: self.epoch,
            tid,
            clock: self.clock,
            kind,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Events<'_> {}

impl<'a> IntoIterator for &'a EventLog {
    type Item = Event;
    type IntoIter = Events<'a>;

    fn into_iter(self) -> Events<'a> {
        self.iter()
    }
}

impl FromIterator<Event> for EventLog {
    fn from_iter<I: IntoIterator<Item = Event>>(events: I) -> EventLog {
        let mut log = EventLog::new();
        for e in events {
            log.push(e);
        }
        log
    }
}

impl From<Vec<Event>> for EventLog {
    fn from(events: Vec<Event>) -> EventLog {
        events.into_iter().collect()
    }
}

/// The decoded events.
impl std::fmt::Debug for EventLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Trace;
    use proptest::prelude::*;

    /// Field values at every varint width boundary a field can reach.
    const EDGES: [u64; 9] = [
        0,
        1,
        127,
        128,
        16_383,
        16_384,
        u32::MAX as u64,
        u64::MAX - 1,
        u64::MAX,
    ];

    fn edge() -> impl Strategy<Value = u64> {
        prop::sample::select(EDGES.to_vec())
    }

    /// The event of kind `index` (into [`EventKind::NAMES`]) built from
    /// `small` and `f`; 32-bit fields keep the low half of theirs.
    fn kind(index: u8, small: usize, f: [u64; 4]) -> EventKind {
        let node = match f[1] % 4 {
            0 => NodeKey::Root,
            1 => NodeKey::Pts(f[0] as u32),
            2 => NodeKey::Fine(f[0] as u32, FineAddr::Cell(f[2])),
            _ => NodeKey::Fine(f[0] as u32, FineAddr::Range(f[2])),
        };
        let mode = ALL_MODES[small % 5];
        let k = match index {
            0 => EventKind::Alloc {
                base: f[0],
                len: f[1],
            },
            1 => EventKind::Fault {
                class: FaultClass::ALL[small % 4],
            },
            2 => EventKind::LockAcquire { node, mode },
            3 => EventKind::LockRelease { node, mode },
            4 => EventKind::PlanComplete,
            5 => EventKind::Quarantine {
                section: f[0] as u32,
                healed: small % 2 == 1,
                probation: f[3] as u32,
            },
            6 => EventKind::Read { addr: f[3] },
            7 => EventKind::Reinfer {
                section: f[3] as u32,
                candidate: f[2] as u32,
                accepted: small % 2 == 1,
            },
            8 => EventKind::SectionEnter {
                section: f[0] as u32,
            },
            9 => EventKind::SectionExit {
                section: f[2] as u32,
            },
            10 => EventKind::StmAbort,
            11 => EventKind::StmCommit {
                reads: f[3],
                writes: f[0],
            },
            12 => EventKind::StmFallback,
            13 => EventKind::WakeDecision {
                node,
                mode,
                depth: f[2] as u32,
                woken: f[3] as u32,
            },
            _ => EventKind::Write { addr: f[1] },
        };
        assert_eq!(k.index(), usize::from(index));
        k
    }

    fn event() -> impl Strategy<Value = Event> {
        (
            0u8..15,
            0usize..20,
            edge(),
            edge(),
            edge(),
            (edge(), edge(), edge(), edge()),
        )
            .prop_map(|(index, small, epoch, tid, clock, (a, b, c, d))| Event {
                epoch,
                tid: tid as u32,
                clock,
                kind: kind(index, small, [a, b, c, d]),
            })
    }

    fn json_of(events: EventLog) -> (Trace, String) {
        let t = Trace {
            events,
            ..Trace::default()
        };
        let json = t.to_json();
        (t, json)
    }

    /// Text with every character the encoder escapes, and the
    /// separators [`respaced`] must leave alone inside a string.
    fn text() -> impl Strategy<Value = String> {
        let chars = vec![
            'a', ',', '[', ' ', '/', 'é', '𝄞', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}',
        ];
        prop::collection::vec(prop::sample::select(chars), 0..8)
            .prop_map(|cs| cs.into_iter().collect())
    }

    /// `json` with a space after every `,` and `[` outside a string:
    /// still the same document, but no event in its canonical spelling.
    fn respaced(json: &str) -> String {
        let (mut out, mut in_string, mut escaped) = (String::new(), false, false);
        for c in json.chars() {
            out.push(c);
            match c {
                _ if escaped => escaped = false,
                '\\' if in_string => escaped = true,
                '"' => in_string = !in_string,
                ',' | '[' if !in_string => out.push(' '),
                _ => {}
            }
        }
        out
    }

    /// FNV-1a over `bytes`, folded here rather than by the library.
    fn fnv(bytes: &[u8]) -> String {
        let h = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        format!("{h:016x}")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn the_digest_hashes_the_json_and_both_readers_agree(
            events in prop::collection::vec(event(), 0..40),
            meta in prop::collection::vec((text(), text()), 0..3),
        ) {
            let t = Trace {
                meta,
                events: events.into(),
                ..Trace::default()
            };
            let json = t.to_json();
            prop_assert_eq!(t.digest(), fnv(json.as_bytes()));
            // Canonical events take the typed reader, respaced ones the
            // tree: both read back the trace.
            prop_assert_eq!(&Trace::from_json(&json).expect("canonical"), &t);
            let spaced = respaced(&json);
            prop_assert_eq!(&Trace::from_json(&spaced).expect("respaced"), &t);
        }

        #[test]
        fn pushed_events_read_back_and_code_canonically(
            events in prop::collection::vec(event(), 0..40)
        ) {
            let log: EventLog = events.iter().copied().collect();
            prop_assert_eq!(log.len(), events.len());
            prop_assert_eq!(log.iter().len(), events.len());
            prop_assert_eq!(log.iter().collect::<Vec<_>>(), events.clone());
            // Equal sequences, however they were pushed, are equal bytes.
            let mut again = EventLog::new();
            for &e in &events {
                again.push(e);
            }
            prop_assert_eq!(&again, &log);
            prop_assert_eq!(log.iter().collect::<EventLog>(), log.clone());
            let (t, json) = json_of(log);
            let back = Trace::from_json(&json).expect("the trace decodes");
            prop_assert_eq!(&back, &t);
            prop_assert_eq!(back.to_json(), json);
        }
    }

    #[test]
    fn hostile_values_decode_in_bytes_proportional_to_the_input() {
        let pc = EventKind::PlanComplete;
        let events: EventLog = vec![
            Event {
                epoch: 0,
                tid: u32::MAX,
                clock: u64::MAX,
                kind: pc,
            },
            Event {
                epoch: u64::MAX - 1,
                tid: 0,
                clock: 0,
                kind: EventKind::Read { addr: u64::MAX },
            },
            Event {
                epoch: 1,
                tid: u32::MAX,
                clock: u64::MAX,
                kind: pc,
            },
        ]
        .into();
        let (t, json) = json_of(events);
        assert!(json.contains("[0,4294967295,18446744073709551615,[\"pc\"]]"));
        let back = Trace::from_json(&json).expect("hostile values decode");
        assert_eq!(back, t);
        assert!(back.events.byte_len() <= json.len(), "{back:?}");
        assert_eq!(back.to_json(), json, "re-encodes byte-identically");
    }

    #[test]
    fn a_recorded_event_costs_a_few_bytes() {
        // One epoch and a few ticks after the last: a byte each for the
        // kind, the deltas and the tid, and two for the address.
        let log: EventLog = (0..100)
            .map(|i| Event {
                epoch: i,
                tid: 3,
                clock: 10 * i,
                kind: EventKind::Read { addr: 4000 + i },
            })
            .collect();
        assert_eq!(log.byte_len(), 6 * 100);
        // `Debug` shows the events, not the bytes.
        let events: Vec<Event> = log.iter().collect();
        assert_eq!(format!("{log:?}"), format!("{events:?}"));
    }
}
