//! Low-overhead event recording: one epoch-ordered log per machine,
//! and observer adapters for the `mglock` and `tl2` runtimes.
//!
//! Every event is appended to a single byte-coded [`EventLog`] under
//! one mutex, and its epoch is assigned under that same lock, so the
//! log is in epoch order by construction: a trace is one total order,
//! written once, and [`Recorder::take`] hands it over without merging
//! or sorting. Under the virtual-time scheduler (`interp::sim`) only
//! one thread runs at a time, so the mutex is never contended; under
//! real threads it is the serialization point that gives their events
//! one order.
//!
//! Each worker registers a [`ThreadRecorder`]: a handle naming its
//! thread, its registration slot (whose events count against
//! [`TraceConfig::capacity`]) and its published virtual clock.

use crate::event::{Event, EventKind, EventLog};
use crate::{AllocRecord, Trace};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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

/// What the recorder and its thread handles share.
struct Shared {
    capacity: usize,
    log: Mutex<Log>,
}

impl Shared {
    fn record(&self, slot: usize, tid: u32, clock: u64, kind: EventKind) {
        let mut log = self.log.lock();
        let epoch = log.next_epoch;
        log.next_epoch += 1;
        if log.kept[slot] < self.capacity {
            log.kept[slot] += 1;
            log.events.push(Event {
                epoch,
                tid,
                clock,
                kind,
            });
        } else {
            log.dropped += 1;
        }
    }
}

/// One thread registration's handle on the machine's log.
pub struct ThreadRecorder {
    tid: u32,
    slot: usize,
    shared: Arc<Shared>,
    /// The owning worker's virtual clock, published before each batch
    /// of events so observer callbacks (which fire inside the lock and
    /// STM runtimes, without access to the worker) stamp correctly.
    clock: AtomicU64,
}

impl ThreadRecorder {
    /// Publishes the thread's current virtual clock for subsequent
    /// events.
    pub fn set_clock(&self, clock: u64) {
        self.clock.store(clock, Ordering::Relaxed);
    }

    /// Appends an event stamped with the next epoch and the last
    /// published clock.
    pub fn record(&self, kind: EventKind) {
        let clock = self.clock.load(Ordering::Relaxed);
        self.shared.record(self.slot, self.tid, clock, kind);
    }
}

/// Lock-runtime adapter: grants and releases observed by a session are
/// recorded with the node and Fig. 6 mode.
impl mglock::LockObserver for ThreadRecorder {
    fn lock_acquired(&self, node: mglock::NodeKey, mode: mglock::Mode) {
        self.record(EventKind::LockAcquire { node, mode });
    }

    fn lock_released(&self, node: mglock::NodeKey, mode: mglock::Mode) {
        self.record(EventKind::LockRelease { node, mode });
    }
}

/// The machine-wide recorder: owns the log and routes runtime-side
/// events to the thread that caused them.
pub struct Recorder {
    shared: Arc<Shared>,
    /// The live registration per tid, for routing runtime-side events
    /// (`tl2` observer callbacks carry only a thread token).
    current: Mutex<HashMap<u32, Arc<ThreadRecorder>>>,
}

impl Recorder {
    /// Creates an empty recorder.
    pub fn new(cfg: TraceConfig) -> Recorder {
        Recorder {
            shared: Arc::new(Shared {
                capacity: cfg.capacity,
                log: Mutex::new(Log::default()),
            }),
            current: Mutex::new(HashMap::new()),
        }
    }

    /// Registers (or re-registers) thread `tid`, returning its handle.
    /// A re-registration — e.g. the init, worker, and check phases all
    /// running as thread 0 — gets a fresh capacity allowance.
    pub fn register(&self, tid: u32) -> Arc<ThreadRecorder> {
        let slot = {
            let mut log = self.shared.log.lock();
            log.kept.push(0);
            log.kept.len() - 1
        };
        let t = Arc::new(ThreadRecorder {
            tid,
            slot,
            shared: Arc::clone(&self.shared),
            clock: AtomicU64::new(0),
        });
        self.current.lock().insert(tid, Arc::clone(&t));
        t
    }

    /// Hands over the log as one epoch-ordered [`Trace`]. Later events
    /// start a fresh log (continuing the epoch sequence), and every
    /// registration's capacity allowance starts over.
    pub fn take(&self, meta: Vec<(String, String)>, allocs: Vec<AllocRecord>) -> Trace {
        let mut log = self.shared.log.lock();
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

/// STM adapter: `tl2` reports transaction lifecycle transitions with a
/// thread token, routed to that thread's live registration (stamped
/// with its last published clock).
impl tl2::StmObserver for Recorder {
    fn txn_commit(&self, token: u64, reads: u64, writes: u64) {
        self.to_thread(token, EventKind::StmCommit { reads, writes });
    }

    fn txn_abort(&self, token: u64) {
        self.to_thread(token, EventKind::StmAbort);
    }

    fn txn_fallback(&self, token: u64) {
        self.to_thread(token, EventKind::StmFallback);
    }
}

impl Recorder {
    fn to_thread(&self, token: u64, kind: EventKind) {
        let t = self.current.lock().get(&(token as u32)).cloned();
        if let Some(t) = t {
            t.record(kind);
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
        let first = rec.register(0);
        let second = rec.register(0);
        let other = rec.register(1);
        for _ in 0..3 {
            first.record(EventKind::StmAbort);
        }
        for _ in 0..3 {
            second.record(EventKind::StmAbort);
        }
        other.record(EventKind::StmAbort);
        let t = rec.take(Vec::new(), Vec::new());
        assert_eq!(epochs(&t), [(0, 0), (1, 0), (3, 0), (4, 0), (6, 1)]);
        assert_eq!(t.dropped, 2);
        // A take gives every registration its full allowance back.
        for _ in 0..2 {
            first.record(EventKind::StmAbort);
        }
        let t = rec.take(Vec::new(), Vec::new());
        assert_eq!(epochs(&t), [(7, 0), (8, 0)]);
        assert_eq!(t.dropped, 0);
    }

    #[test]
    fn a_dropped_event_uses_up_an_epoch() {
        let rec = Recorder::new(TraceConfig { capacity: 1 });
        let t0 = rec.register(0);
        let t1 = rec.register(1);
        t0.record(EventKind::StmAbort);
        t0.record(EventKind::StmAbort);
        t1.record(EventKind::StmAbort);
        t0.record(EventKind::StmAbort);
        let t = rec.take(Vec::new(), Vec::new());
        assert_eq!(epochs(&t), [(0, 0), (2, 1)]);
        assert_eq!(t.dropped, 2);
    }

    #[test]
    fn a_second_take_continues_the_epoch_sequence() {
        let rec = Recorder::new(TraceConfig::default());
        let t0 = rec.register(0);
        let t1 = rec.register(1);
        t0.set_clock(3);
        t0.record(EventKind::StmAbort);
        t1.record(EventKind::StmAbort);
        let t = rec.take(Vec::new(), Vec::new());
        assert_eq!(epochs(&t), [(0, 0), (1, 1)]);
        assert_eq!(clock(&t, 0), 3);
        t1.record(EventKind::StmAbort);
        t0.record(EventKind::StmAbort);
        let t = rec.take(Vec::new(), Vec::new());
        assert_eq!(epochs(&t), [(2, 1), (3, 0)]);
        assert_eq!(clock(&t, 1), 3, "the published clock survives a take");
    }

    #[test]
    fn runtime_events_route_to_the_latest_registration() {
        let rec = Recorder::new(TraceConfig { capacity: 1 });
        let first = rec.register(0);
        first.record(EventKind::StmAbort);
        let second = rec.register(0);
        second.set_clock(9);
        tl2::StmObserver::txn_abort(&rec, 0);
        tl2::StmObserver::txn_abort(&rec, 0);
        // A token no thread registered is ignored and takes no epoch.
        tl2::StmObserver::txn_abort(&rec, 5);
        first.record(EventKind::StmAbort);
        let t = rec.take(Vec::new(), Vec::new());
        assert_eq!(epochs(&t), [(0, 0), (1, 0)]);
        assert_eq!(clock(&t, 1), 9);
        assert_eq!(t.dropped, 2);
    }
}
