//! Low-overhead event recording: one epoch-ordered log per machine.
//!
//! Every event is appended to a single byte-coded [`EventLog`] under
//! one mutex, and its epoch is assigned under that same lock, so the
//! log is in epoch order by construction: a trace is one total order,
//! written once, and [`Recorder::take`] hands it over without merging
//! or sorting. Under real threads the mutex is the serialization point
//! that gives their events one order, taken once per event.
//!
//! Each worker registers a [`ThreadRecorder`]: a handle naming its
//! thread and its registration slot (whose events count against
//! [`TraceConfig::capacity`]). The worker is its events' only
//! producer — lock grants and releases, STM commits and aborts
//! included — and stamps each with its own clock. Under the
//! virtual-time scheduler (`interp::sim`) only one worker runs at a
//! time, between two scheduling points, so it holds the log for that
//! whole slice ([`ThreadRecorder::hold`]) and pays for the lock once
//! per slice, not once per event.

use crate::event::{Event, EventKind, EventLog};
use crate::{AllocRecord, Trace};
use parking_lot::{Mutex, MutexGuard};

/// Recorder construction options (kept `Copy` so it can ride inside
/// `interp::Options`).
#[derive(Clone, Copy, Debug)]
pub struct TraceConfig {
    /// Maximum events kept per thread registration between two takes.
    /// Events past the cap are counted in [`Trace::dropped`] and
    /// discarded; the lockset validator refuses truncated traces rather
    /// than report false violations from missing lock events.
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig { capacity: 1 << 20 }
    }
}

/// The events since the last take, in epoch order.
#[derive(Default)]
struct Log {
    events: EventLog,
    /// The epoch the next event gets, kept or dropped.
    next_epoch: u64,
    /// Events kept per registration slot since the last take.
    kept: Vec<usize>,
    /// Events discarded over capacity since the last take.
    dropped: u64,
}

impl Log {
    /// Appends an event with the next epoch, or counts it dropped once
    /// registration `slot` has kept `capacity` events.
    fn record(&mut self, capacity: usize, slot: usize, tid: u32, clock: u64, kind: EventKind) {
        let epoch = self.next_epoch;
        self.next_epoch += 1;
        if self.kept[slot] < capacity {
            self.kept[slot] += 1;
            self.events.push(Event {
                epoch,
                tid,
                clock,
                kind,
            });
        } else {
            self.dropped += 1;
        }
    }
}

/// One thread registration's handle on the machine's log.
pub struct ThreadRecorder<'r> {
    tid: u32,
    slot: usize,
    rec: &'r Recorder,
    /// The log, while this thread holds it for a slice.
    held: Option<MutexGuard<'r, Log>>,
}

impl ThreadRecorder<'_> {
    /// Appends an event stamped with the next epoch and `clock`: through
    /// the held log, or under one lock of the log.
    pub fn record(&mut self, clock: u64, kind: EventKind) {
        let (capacity, slot, tid) = (self.rec.capacity, self.slot, self.tid);
        match &mut self.held {
            Some(log) => log.record(capacity, slot, tid, clock, kind),
            None => self.rec.log.lock().record(capacity, slot, tid, clock, kind),
        }
    }

    /// Holds the log until [`ThreadRecorder::release`]: events are
    /// recorded without taking its lock again. No other handle on the
    /// same recorder may record, register or take in the meantime — a
    /// virtual-time worker holds it for its slice, while nobody else
    /// runs.
    pub fn hold(&mut self) {
        if self.held.is_none() {
            self.held = Some(self.rec.log.lock());
        }
    }

    /// Lets go of a log taken by [`ThreadRecorder::hold`].
    pub fn release(&mut self) {
        self.held = None;
    }
}

/// The machine-wide recorder: owns the log.
pub struct Recorder {
    capacity: usize,
    log: Mutex<Log>,
}

impl Recorder {
    /// Creates an empty recorder.
    pub fn new(cfg: TraceConfig) -> Recorder {
        Recorder {
            capacity: cfg.capacity,
            log: Mutex::new(Log::default()),
        }
    }

    /// Registers thread `tid`, returning its handle. A re-registration —
    /// e.g. the init, worker, and check phases all running as thread 0 —
    /// gets a fresh capacity allowance.
    pub fn register(&self, tid: u32) -> ThreadRecorder<'_> {
        let slot = {
            let mut log = self.log.lock();
            log.kept.push(0);
            log.kept.len() - 1
        };
        ThreadRecorder {
            tid,
            slot,
            rec: self,
            held: None,
        }
    }

    /// Hands over the log as one epoch-ordered [`Trace`]. Later events
    /// start a fresh log (continuing the epoch sequence), and every
    /// registration's capacity allowance starts over.
    pub fn take(&self, meta: Vec<(String, String)>, allocs: Vec<AllocRecord>) -> Trace {
        let mut log = self.log.lock();
        log.kept.fill(0);
        let mut events = std::mem::take(&mut log.events);
        // The log grew by doubling. A trace often outlives its machine
        // (a kept baseline or winner), so it gives the unused tail back.
        events.shrink_to_fit();
        Trace {
            meta,
            allocs,
            events,
            dropped: std::mem::take(&mut log.dropped),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn epochs(t: &Trace) -> Vec<(u64, u32)> {
        t.events.iter().map(|e| (e.epoch, e.tid)).collect()
    }

    fn clock(t: &Trace, i: usize) -> u64 {
        t.events.iter().nth(i).expect("the event was kept").clock
    }

    #[test]
    fn capacity_counts_per_registration_and_resets_at_take() {
        let rec = Recorder::new(TraceConfig { capacity: 2 });
        // Thread 0 registers twice (init phase, then worker phase):
        // each registration has its own allowance.
        let mut first = rec.register(0);
        let mut second = rec.register(0);
        let mut other = rec.register(1);
        for _ in 0..3 {
            first.record(0, EventKind::StmAbort);
        }
        for _ in 0..3 {
            second.record(0, EventKind::StmAbort);
        }
        other.record(0, EventKind::StmAbort);
        let t = rec.take(Vec::new(), Vec::new());
        assert_eq!(epochs(&t), [(0, 0), (1, 0), (3, 0), (4, 0), (6, 1)]);
        assert_eq!(t.dropped, 2);
        // A take gives every registration its full allowance back.
        for _ in 0..2 {
            first.record(0, EventKind::StmAbort);
        }
        let t = rec.take(Vec::new(), Vec::new());
        assert_eq!(epochs(&t), [(7, 0), (8, 0)]);
        assert_eq!(t.dropped, 0);
    }

    #[test]
    fn a_dropped_event_uses_up_an_epoch() {
        let rec = Recorder::new(TraceConfig { capacity: 1 });
        let mut t0 = rec.register(0);
        let mut t1 = rec.register(1);
        t0.record(0, EventKind::StmAbort);
        t0.record(0, EventKind::StmAbort);
        t1.record(0, EventKind::StmAbort);
        t0.record(0, EventKind::StmAbort);
        let t = rec.take(Vec::new(), Vec::new());
        assert_eq!(epochs(&t), [(0, 0), (2, 1)]);
        assert_eq!(t.dropped, 2);
    }

    #[test]
    fn a_second_take_continues_the_epoch_sequence() {
        let rec = Recorder::new(TraceConfig::default());
        let mut t0 = rec.register(0);
        let mut t1 = rec.register(1);
        t0.record(3, EventKind::StmAbort);
        t1.record(0, EventKind::StmAbort);
        let t = rec.take(Vec::new(), Vec::new());
        assert_eq!(epochs(&t), [(0, 0), (1, 1)]);
        assert_eq!(clock(&t, 0), 3);
        t1.record(0, EventKind::StmAbort);
        t0.record(3, EventKind::StmAbort);
        let t = rec.take(Vec::new(), Vec::new());
        assert_eq!(epochs(&t), [(2, 1), (3, 0)]);
        assert_eq!(clock(&t, 1), 3);
    }

    #[test]
    fn a_held_log_records_what_per_event_locking_records() {
        // Slices of two threads, each held for its slice, against the
        // same events recorded one lock at a time: one log, one epoch
        // sequence, one capacity account.
        let run = |hold: bool| {
            let rec = Recorder::new(TraceConfig { capacity: 3 });
            let mut ts = [rec.register(0), rec.register(1)];
            for (slice, n) in [(0, 2), (1, 1), (0, 2), (1, 1)] {
                let t = &mut ts[slice];
                if hold {
                    t.hold();
                }
                for c in 0..n {
                    t.record(c, EventKind::StmAbort);
                }
                t.release();
            }
            let t = rec.take(Vec::new(), Vec::new());
            (t.digest(), epochs(&t), t.dropped)
        };
        let held = run(true);
        assert_eq!(held, run(false));
        assert_eq!(held.1, [(0, 0), (1, 0), (2, 1), (3, 0), (5, 1)]);
        assert_eq!(held.2, 1);
    }
}
