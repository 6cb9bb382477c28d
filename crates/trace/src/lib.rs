//! # trace — runtime event tracing for the locking runtimes
//!
//! The dynamic counterpart of the paper's Theorem 1: every execution
//! under any of the three runtimes (multi-grain locks, TL2 STM, the
//! global-lock baseline) can record a structured event trace, and the
//! [`lockset`] validator replays the trace checking the
//! Eraser-style discipline — *every shared access inside an atomic
//! section must be covered by a held lock whose Fig. 6 mode licenses
//! the access effect*. Full modes license (X → read+write, S/SIX →
//! read); intention modes (IS/IX) license nothing — they only announce
//! descendants.
//!
//! The pieces:
//!
//! * [`event`] — the event vocabulary (section boundaries, lock
//!   grants/releases with modes, shared reads/writes, STM lifecycle,
//!   injected faults) and [`EventLog`], the byte-coded sequence a trace
//!   stores them in (5.3–6.4 bytes an event; every reader decodes it);
//! * [`recorder`] — one event log per machine, written in epoch order
//!   under one lock; [`Recorder::take`] hands it over as the
//!   totally-ordered [`Trace`], with no merge;
//! * [`sections`] — the per-thread enter / exit / plan-completion /
//!   abort nesting protocol, read by everything below;
//! * [`lockset`] — the validator;
//! * [`profile`](mod@profile) — per-section contention/hold-time histograms derived
//!   from a trace;
//! * [`quarantine`] — reconstruction of the sentinel's quarantine
//!   ladder (`["qr", …]` transitions) from a trace, with a truncation
//!   guard that drops half-open quarantines instead of fabricating
//!   state;
//! * [`json`] — the workspace's one JSON writer and reader, and the
//!   trace codec built on them (the build environment has no registry
//!   access, so there is no serde — see `shims/README.md`).
//!
//! Under the deterministic virtual-time scheduler (`interp::sim`)
//! exactly one thread executes at any moment, so the epoch stamps give
//! a *deterministic* total order: the same seed and fault plan export
//! byte-identical traces, which is what makes recorded schedules
//! replayable.

pub mod event;
pub mod json;
pub mod lockset;
pub mod profile;
pub mod quarantine;
pub mod recorder;
pub mod sections;

pub use event::{Event, EventKind, EventLog, FaultClass};
pub use lockset::{validate, Validation, ValidationError, Violation};
pub use profile::{profile, Histogram, SectionProfile};
pub use quarantine::{quarantine_history, QuarantineHistory, QuarantineTransition};
pub use recorder::{Recorder, ThreadRecorder, TraceConfig};

/// One allocation extent, snapshotted from the machine's allocation
/// table when the trace is taken. The allocator is a monotone bump
/// allocator, so the final table is a superset valid for every access
/// in the trace; `class` is the points-to partition of the site.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AllocRecord {
    pub base: u64,
    pub len: u64,
    pub class: u32,
}

/// A totally-ordered execution trace: one log, in epoch order.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Trace {
    /// Ordered key/value metadata. The validator reads `mode`; the
    /// replayer additionally stores the full run configuration
    /// (source, seed, threads, fault plan, entry points) so a trace
    /// file is self-describing.
    pub meta: Vec<(String, String)>,
    /// Allocation table snapshot (sorted by base).
    pub allocs: Vec<AllocRecord>,
    /// Events in epoch order, as they were recorded, byte-coded: a
    /// reader decodes them on every pass with `events.iter()`, and
    /// `events.len()` is the event count.
    pub events: EventLog,
    /// Events discarded because their thread registration had already
    /// kept [`TraceConfig::capacity`] events. Each still used up an
    /// epoch, so a truncated trace shows gaps in the sequence.
    pub dropped: u64,
}

impl Trace {
    /// Looks up a metadata value.
    pub fn meta_get(&self, key: &str) -> Option<&str> {
        self.meta
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Sets (or replaces) a metadata value, preserving insertion order
    /// for new keys.
    pub fn meta_set(&mut self, key: &str, value: impl Into<String>) {
        match self.meta.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value.into(),
            None => self.meta.push((key.to_owned(), value.into())),
        }
    }

    /// The allocation extent containing `loc`, by binary search (bases
    /// are monotone).
    pub fn alloc_of(&self, loc: u64) -> Option<AllocRecord> {
        let idx = self.allocs.partition_point(|a| a.base <= loc);
        if idx == 0 {
            return None;
        }
        let a = self.allocs[idx - 1];
        (loc < a.base + a.len).then_some(a)
    }

    /// Canonical JSON encoding (see [`json`]).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.events.len() * 24);
        json::write_trace(&mut out, self);
        out
    }

    /// Parses a trace from its JSON encoding.
    ///
    /// # Errors
    ///
    /// Returns a rendered message on malformed input.
    pub fn from_json(s: &str) -> Result<Trace, String> {
        json::decode(s)
    }

    /// FNV-1a digest of the canonical JSON — the identity used by the
    /// replay determinism checks (same digest ⇔ byte-identical trace).
    /// The writer feeds the hash as it encodes: the digest covers
    /// exactly [`Trace::to_json`]'s bytes without building that string.
    pub fn digest(&self) -> String {
        let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
        json::write_trace(&mut h, self);
        format!("{:016x}", h.0)
    }

    /// Event counts by kind ([`EventKind::name`]), for summaries.
    pub fn counts(&self) -> std::collections::BTreeMap<&'static str, u64> {
        let mut m = std::collections::BTreeMap::new();
        for e in &self.events {
            *m.entry(e.kind.name()).or_insert(0) += 1;
        }
        m
    }
}

/// A 64-bit FNV-1a hash as a JSON sink: each byte written is folded in.
struct Fnv1a(u64);

impl std::fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mglock::{FineAddr, Mode, NodeKey};

    fn sample() -> Trace {
        let rec = Recorder::new(TraceConfig { capacity: 16 });
        let mut t0 = rec.register(0);
        t0.record(5, EventKind::SectionEnter { section: 1 });
        t0.record(
            5,
            EventKind::LockAcquire {
                node: NodeKey::Fine(2, FineAddr::Cell(40)),
                mode: Mode::X,
            },
        );
        t0.record(5, EventKind::Write { addr: 40 });
        t0.record(
            5,
            EventKind::LockRelease {
                node: NodeKey::Fine(2, FineAddr::Cell(40)),
                mode: Mode::X,
            },
        );
        t0.record(5, EventKind::SectionExit { section: 1 });
        rec.take(
            vec![("mode".into(), "MultiGrain".into())],
            vec![AllocRecord {
                base: 40,
                len: 4,
                class: 2,
            }],
        )
    }

    #[test]
    fn epochs_are_monotone_in_the_log() {
        let t = sample();
        let epochs: Vec<u64> = t.events.iter().map(|e| e.epoch).collect();
        assert!(epochs.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(t.dropped, 0);
    }

    #[test]
    fn capacity_overflow_counts_dropped() {
        let rec = Recorder::new(TraceConfig { capacity: 2 });
        let mut t0 = rec.register(0);
        for _ in 0..5 {
            t0.record(0, EventKind::StmAbort);
        }
        let t = rec.take(Vec::new(), Vec::new());
        assert_eq!(t.events.len(), 2);
        assert_eq!(t.dropped, 3);
    }

    #[test]
    fn take_drains() {
        let rec = Recorder::new(TraceConfig::default());
        let mut t0 = rec.register(0);
        t0.record(0, EventKind::StmAbort);
        assert_eq!(rec.take(Vec::new(), Vec::new()).events.len(), 1);
        assert_eq!(rec.take(Vec::new(), Vec::new()).events.len(), 0);
    }

    #[test]
    fn alloc_lookup_uses_extents() {
        let t = sample();
        assert_eq!(t.alloc_of(40).unwrap().base, 40);
        assert_eq!(t.alloc_of(43).unwrap().base, 40);
        assert!(t.alloc_of(44).is_none());
        assert!(t.alloc_of(0).is_none());
    }

    #[test]
    fn digest_is_stable_and_json_roundtrips() {
        let t = sample();
        let back = Trace::from_json(&t.to_json()).expect("roundtrip");
        assert_eq!(t, back);
        assert_eq!(t.digest(), back.digest());
    }

    #[test]
    fn meta_accessors() {
        let mut t = sample();
        assert_eq!(t.meta_get("mode"), Some("MultiGrain"));
        t.meta_set("mode", "Stm");
        t.meta_set("seed", "7");
        assert_eq!(t.meta_get("mode"), Some("Stm"));
        assert_eq!(t.meta_get("seed"), Some("7"));
    }
}
