//! Virtual-time execution: a deterministic discrete-event scheduler
//! that stands in for the paper's 8-core test machine.
//!
//! Real threads on the host cannot be trusted to exhibit the
//! parallelism the evaluation measures — the container may have one
//! CPU or several, loaded or idle — so nothing here depends on how
//! many it has. Each logical thread carries a *virtual clock* (1 tick
//! per interpreted instruction; nop loops cost their count; locking
//! and STM operations are charged via [`CostModel`]), and exactly one
//! thread executes at a time — always the `Ready` one with the
//! smallest `(clock, rank, tid)` — so interleavings are deterministic,
//! and:
//!
//! * threads that *wait on a lock* have their clock jumped to the
//!   releasing thread's clock, charging real serialization;
//! * threads that can run in parallel (compatible lock modes, disjoint
//!   locks, optimistic transactions) advance their clocks
//!   independently, so the *makespan* — the maximum final clock — shows
//!   genuine speedup.
//!
//! The reported "execution time" of a virtual run is the makespan.
//!
//! # The hand-off protocol
//!
//! The right to execute is a baton (*the turn*). Thread 0 starts with
//! it; every other worker joins through [`Sim::enter`] and parks on
//! its own flag. Only the turn holder mutates the schedule, at its
//! *scheduling points* — [`Sim::advance`], [`Sim::begin_wait_with`],
//! [`Sim::finish`] — where it alone decides, under the (therefore
//! uncontended) scheduler mutex, who runs next:
//!
//! * it is still the minimum: it returns and keeps running — no
//!   wake-up, no syscall;
//! * another thread is: it drops the mutex, sets *that thread's* flag,
//!   unparks that one thread, and (in `advance`) parks on its own.
//!   The flag is set after the unlock so the woken thread never blocks
//!   on a mutex its waker still holds.
//!
//! [`Sim::on_release_with`] and [`Sim::end_wait`] are also turn-holder
//! calls, but they are not scheduling points: a release promotes the
//! waiters (clock jump, ranks, [`WakeGrant`]s) and wakes nobody — the
//! releaser keeps the turn until its next scheduling point, where a
//! promoted waiter with a smaller key takes over. Hence the
//! **one-runner invariant**: between two hand-offs exactly one virtual
//! thread executes, and it is the one recorded in the scheduler's
//! running marker (checked at every turn-holder call in debug builds;
//! `tests/one_runner.rs` stresses the consequence — identical results,
//! makespans and digests on every unpinned run).
//!
//! The only exit from the invariant is a *wedge* (every live thread
//! waiting, none left to release anything): a sticky flag is set and
//! every thread unparked, each waiter gets `None` from
//! [`Sim::await_release`], and the run drains out with
//! [`crate::InterpError::SchedulerStalled`] — an error, never a hang.
//! After a wedge the turn no longer exists; the draining threads'
//! `on_release`/`finish` calls only update state.
//!
//! # Wake ordering
//!
//! Wake ordering is pluggable (`sched`): each waiter carries a *rank*
//! assigned by the configured [`WakePolicy`] at the release that
//! promotes it, and the scheduling order compares `(clock, rank, tid)`.
//! Ranks never touch clocks — only the acquisition order among waiters
//! promoted at the same release time changes — and every thread's rank
//! resets to 0 at its next scheduling point. With no policy no ranking
//! pass runs, every rank stays 0, and the order is the historical
//! `(clock, tid)` — the one way to get it; there is no FIFO policy.

use parking_lot::{Mutex, MutexGuard};
use sched::{rank_batch, Waiter, WakeGrant, WakePolicy};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::thread::Thread;

/// Virtual-time costs of runtime operations, in ticks (one tick ≈ one
/// interpreted instruction ≈ 1 ns of the reported time).
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Per lock-tree node acquired at `acquire_all`.
    pub lock_node: u64,
    /// Per lock descriptor evaluated at section entry.
    pub lock_desc: u64,
    /// Per release batch.
    pub lock_release: u64,
    /// STM: beginning a transaction.
    pub txn_start: u64,
    /// STM: per transactional read (instrumentation).
    pub stm_read: u64,
    /// STM: per transactional write (buffering).
    pub stm_write: u64,
    /// STM: commit base cost.
    pub stm_commit_base: u64,
    /// STM: per write-back at commit (write-set locking + publish).
    pub stm_commit_per_write: u64,
    /// STM: per read-set entry validated at commit (writing txns only).
    pub stm_commit_per_read: u64,
    /// STM: abort/rollback penalty (plus the wasted section work,
    /// which is charged naturally by re-execution).
    pub stm_abort: u64,
    /// STM: escalating to irrevocable global mode after the abort
    /// budget (acquiring the commit gate serially).
    pub stm_fallback: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        // Calibrated against TL2's published overheads relative to a
        // plain interpreted instruction (1 tick): instrumented reads
        // and writes cost several ticks, commits pay per-entry
        // validation and write-back, and uncontended lock nodes cost a
        // few dozen ticks.
        CostModel {
            lock_node: 25,
            lock_desc: 10,
            lock_release: 10,
            txn_start: 50,
            stm_read: 6,
            stm_write: 8,
            stm_commit_base: 80,
            stm_commit_per_write: 8,
            stm_commit_per_read: 2,
            stm_abort: 150,
            stm_fallback: 300,
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum St {
    Ready,
    Waiting,
    Done,
}

struct SimInner {
    clocks: Vec<u64>,
    state: Vec<St>,
    /// Policy-assigned wake ranks, breaking clock ties ahead of the
    /// thread id. 0 for every thread that is not a freshly promoted
    /// waiter; reset at the thread's next `advance`.
    ranks: Vec<u64>,
    /// Waiter snapshots registered at `begin_wait`, consumed (and
    /// cleared) by the next release's ranking pass.
    waiters: Vec<Option<Waiter>>,
    /// The release epoch at which each thread's current *wait streak*
    /// began. A promoted waiter that fails to acquire re-parks without
    /// clearing this, so aging policies see how many release grants it
    /// has sat through ([`sched::Waiter::age`]); cleared by
    /// [`Sim::end_wait`] when the acquisition finally succeeds.
    wait_epoch: Vec<Option<u64>>,
    release_epoch: u64,
    /// The turn holder: the one thread allowed to execute and to
    /// mutate the schedule. Written at every hand-off, before the new
    /// holder is woken.
    running: usize,
    /// Scheduling points reached, and how many of them handed the turn
    /// to another thread.
    yield_points: u64,
    handoffs: u64,
}

/// Where one virtual thread parks while it does not hold the turn.
struct Seat {
    /// Set by the thread handing this one the turn, consumed on wake.
    turn: AtomicBool,
    /// Whom to unpark; registered under the scheduler mutex at
    /// [`Sim::enter`].
    thread: OnceLock<Thread>,
}

/// The shared scheduler. One instance per virtual run.
pub(crate) struct Sim {
    inner: Mutex<SimInner>,
    seats: Vec<Seat>,
    /// Set when every live thread is `Waiting`: no runnable thread
    /// remains to release anything, so the run can never progress.
    /// Sticky — once wedged, all waiters drain out with an error.
    wedged: AtomicBool,
    /// Ticks a thread may execute between scheduling points.
    pub quantum: u64,
    /// Wake policy for lock releases. `None` is the legacy path: no
    /// ranking pass runs, no wake decisions are reported, and the
    /// schedule is the historical `(clock, tid)` order.
    policy: Option<Box<dyn WakePolicy>>,
}

impl Sim {
    /// A policy-free scheduler: the historical `(clock, tid)` order.
    #[cfg(test)]
    pub fn new(n: usize, quantum: u64) -> Sim {
        Sim::with_policy(n, quantum, None)
    }

    /// A scheduler for `n` threads, all `Ready` at clock 0 — so thread
    /// 0 is the minimum and starts with the turn.
    pub fn with_policy(n: usize, quantum: u64, policy: Option<Box<dyn WakePolicy>>) -> Sim {
        Sim {
            inner: Mutex::new(SimInner {
                clocks: vec![0; n],
                state: vec![St::Ready; n],
                ranks: vec![0; n],
                waiters: vec![None; n],
                wait_epoch: vec![None; n],
                release_epoch: 0,
                running: 0,
                yield_points: 0,
                handoffs: 0,
            }),
            seats: (0..n)
                .map(|_| Seat {
                    turn: AtomicBool::new(false),
                    thread: OnceLock::new(),
                })
                .collect(),
            wedged: AtomicBool::new(false),
            quantum,
            policy,
        }
    }

    /// Whether `tid` may mutate the schedule: it holds the turn, or
    /// the run wedged and there is no turn left to hold.
    fn holds_turn(&self, g: &SimInner, tid: usize) -> bool {
        g.running == tid || self.wedged.load(Ordering::Acquire)
    }

    /// The `Ready` thread with the smallest `(clock, rank, tid)`.
    fn ready_min(g: &SimInner) -> Option<usize> {
        (0..g.state.len())
            .filter(|&j| g.state[j] == St::Ready)
            .min_by_key(|&j| (g.clocks[j], g.ranks[j], j))
    }

    /// Parks until handed the turn; `false` when the schedule wedged
    /// instead. A hand-off made before the park is not lost: the flag
    /// is checked first and `unpark` leaves a token.
    fn park(&self, tid: usize) -> bool {
        loop {
            if self.seats[tid].turn.swap(false, Ordering::Acquire) {
                return true;
            }
            if self.wedged.load(Ordering::Acquire) {
                return false;
            }
            std::thread::park();
        }
    }

    /// The scheduling decision of turn holder `tid`, whose own state
    /// and clock are already updated: hands the turn to the `Ready`
    /// minimum when that is another thread, or declares the wedge when
    /// only waiters remain. Returns whether `tid` may keep executing.
    fn pass_turn(&self, mut g: MutexGuard<'_, SimInner>, tid: usize) -> bool {
        if self.wedged.load(Ordering::Acquire) {
            return true;
        }
        g.yield_points += 1;
        match Self::ready_min(&g) {
            Some(next) if next == tid => true,
            Some(next) => {
                g.handoffs += 1;
                g.running = next;
                // A thread that has not entered yet finds the marker
                // when it does (registration and marker share the
                // mutex), so it needs — and must get — no flag.
                let thread = self.seats[next].thread.get();
                drop(g);
                if let Some(thread) = thread {
                    self.seats[next].turn.store(true, Ordering::Release);
                    thread.unpark();
                }
                false
            }
            None => {
                if g.state.contains(&St::Waiting) {
                    self.wedged.store(true, Ordering::Release);
                    drop(g);
                    for thread in self.seats.iter().filter_map(|s| s.thread.get()) {
                        thread.unpark();
                    }
                }
                false
            }
        }
    }

    /// Joins the schedule: registers the calling OS thread as virtual
    /// thread `tid` and blocks until it holds the turn (thread 0 does
    /// from the start; any other may have been handed it before
    /// getting here). Returns the thread's clock.
    pub fn enter(&self, tid: usize) -> u64 {
        let g = self.inner.lock();
        let fresh = self.seats[tid].thread.set(std::thread::current());
        debug_assert!(fresh.is_ok(), "thread {tid} entered twice");
        let (granted, clock) = (g.running == tid, g.clocks[tid]);
        drop(g);
        if !granted {
            self.park(tid);
        }
        clock
    }

    /// Advances `tid`'s clock and blocks until it is the scheduling
    /// minimum again, returning the clock. Reaching a scheduling point
    /// retires any wake rank: the thread has consumed its preferential
    /// slot and competes on `(clock, tid)` again.
    pub fn advance(&self, tid: usize, ticks: u64) -> u64 {
        let mut g = self.inner.lock();
        debug_assert!(self.holds_turn(&g, tid), "thread {tid} ran out of turn");
        g.clocks[tid] += ticks;
        g.ranks[tid] = 0;
        // Only a release moves another thread's clock, and only a
        // waiter's: ours is final before we park.
        let clock = g.clocks[tid];
        if !self.pass_turn(g, tid) {
            self.park(tid);
        }
        clock
    }

    /// Marks `tid` blocked on a lock; other threads may run. Only a
    /// future [`Sim::on_release`] makes it runnable again.
    #[cfg(test)]
    pub fn begin_wait(&self, tid: usize) {
        self.begin_wait_with(tid, None);
    }

    /// [`Sim::begin_wait`] plus a waiter snapshot for the wake policy:
    /// what the thread blocked on, in which mode, from which section.
    /// `None` (or a `None` policy) ranks the thread 0, the FIFO slot.
    /// Gives the turn away; follow with [`Sim::await_release`].
    pub fn begin_wait_with(&self, tid: usize, waiter: Option<Waiter>) {
        let mut g = self.inner.lock();
        debug_assert!(self.holds_turn(&g, tid), "thread {tid} ran out of turn");
        g.state[tid] = St::Waiting;
        g.waiters[tid] = waiter;
        // Re-parking after an unsuccessful promotion continues the same
        // wait streak: the age baseline survives.
        let epoch = g.release_epoch;
        g.wait_epoch[tid].get_or_insert(epoch);
        self.pass_turn(g, tid);
    }

    /// Ends `tid`'s wait streak: the blocked acquisition went through,
    /// so the next park starts aging from zero again. Called by the
    /// acquire loop after its final successful step.
    pub fn end_wait(&self, tid: usize) {
        let mut g = self.inner.lock();
        debug_assert!(self.holds_turn(&g, tid), "thread {tid} ran out of turn");
        g.wait_epoch[tid] = None;
    }

    /// Blocks until some thread releases locks and this waiter — which
    /// the releaser promoted, with its clock advanced to the release
    /// time — is handed the turn; returns that clock. `None` when the
    /// scheduler wedged instead — the caller must abandon the wait and
    /// report [`crate::InterpError::SchedulerStalled`], never hang.
    #[must_use]
    pub fn await_release(&self, tid: usize) -> Option<u64> {
        self.park(tid).then(|| self.inner.lock().clocks[tid])
    }

    /// Announces that `tid` released locks at its current clock.
    /// Every waiter is promoted to Ready *atomically here* — with its
    /// clock jumped to the release time — so scheduling order never
    /// depends on OS wake-up order. Promote-all is what keeps the
    /// wedge detection sound: a policy only *ranks* the batch (who
    /// retries first among equal clocks), it never leaves anyone
    /// parked.
    ///
    pub fn on_release(&self, tid: usize) {
        self.on_release_with(tid, |_| {});
    }

    /// [`Sim::on_release`], reporting the policy's wake decisions —
    /// one per blocked-on node, empty on the legacy (`None`-policy)
    /// path. Nobody is woken: the releaser keeps the turn, so the
    /// callback — and everything up to the releaser's next scheduling
    /// point — runs before any promoted waiter resumes. A tracing
    /// caller stamps the `["wk", …]` events with epochs strictly ahead
    /// of whatever the woken threads record next, keeping the merged
    /// order deterministic.
    pub fn on_release_with(&self, tid: usize, mut decision: impl FnMut(WakeGrant)) {
        let mut g = self.inner.lock();
        debug_assert!(self.holds_turn(&g, tid), "thread {tid} ran out of turn");
        let now = g.clocks[tid];
        let epoch = g.release_epoch;
        g.release_epoch += 1;
        let grants = match &self.policy {
            None => Vec::new(),
            Some(policy) => {
                // Queue order is thread-id order — deterministic under
                // the virtual-time scheduler, and exactly the order the
                // historical tie-break would retry the batch in. Each
                // waiter's age is the number of release grants its wait
                // streak has already sat through — schedule state, so
                // aging policies rank identically on replay.
                let queue: Vec<Waiter> = g
                    .waiters
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| g.state[j] == St::Waiting)
                    .filter_map(|(j, w)| {
                        w.map(|mut w| {
                            w.age = epoch - g.wait_epoch[j].unwrap_or(epoch);
                            w
                        })
                    })
                    .collect();
                if queue.is_empty() {
                    Vec::new()
                } else {
                    let (ranks, grants) = rank_batch(policy.as_ref(), &queue);
                    for (w, r) in queue.iter().zip(&ranks) {
                        g.ranks[w.tid as usize] = *r;
                    }
                    grants
                }
            }
        };
        for gr in grants {
            decision(gr);
        }
        for j in 0..g.state.len() {
            if g.state[j] == St::Waiting {
                g.clocks[j] = g.clocks[j].max(now);
                g.state[j] = St::Ready;
                g.waiters[j] = None;
            }
        }
    }

    /// Marks `tid` finished and hands the turn on. If that leaves only
    /// waiters, the schedule is wedged (a finished thread releases its
    /// locks first, so any still-waiting thread waits on something no
    /// one holds — a bug surfaced as an error, not a hang).
    pub fn finish(&self, tid: usize) {
        let mut g = self.inner.lock();
        debug_assert!(self.holds_turn(&g, tid), "thread {tid} ran out of turn");
        g.state[tid] = St::Done;
        self.pass_turn(g, tid);
    }

    /// The virtual makespan so far (max clock).
    pub fn makespan(&self) -> u64 {
        let g = self.inner.lock();
        g.clocks.iter().copied().max().unwrap_or(0)
    }

    /// `(scheduling points, hand-offs)` so far.
    pub fn yield_counts(&self) -> (u64, u64) {
        let g = self.inner.lock();
        (g.yield_points, g.handoffs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    /// Runs `f` on its own thread and fails the test — instead of
    /// hanging it — when `f` has not returned within ten seconds: a
    /// lost wake-up must show up as a failure, not as a stuck runner.
    fn bounded<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        let h = std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        match rx.recv_timeout(Duration::from_secs(10)) {
            Ok(v) => v,
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                panic!("virtual threads still blocked after 10 s: lost wake-up")
            }
            // The sender dropped without sending: `f` panicked.
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(h.join().unwrap_err())
            }
        }
    }

    /// Spawns one OS thread per body (virtual thread ids in order) and
    /// joins them all, propagating panics.
    fn run_threads(bodies: Vec<Box<dyn FnOnce() + Send>>) {
        let handles: Vec<_> = bodies.into_iter().map(std::thread::spawn).collect();
        for h in handles {
            if let Err(p) = h.join() {
                std::panic::resume_unwind(p);
            }
        }
    }

    #[test]
    fn threads_interleave_by_clock() {
        let (got, makespan) = bounded(|| {
            let sim = Arc::new(Sim::new(2, 10));
            let order = Arc::new(Mutex::new(Vec::new()));
            let body = |tid: usize| -> Box<dyn FnOnce() + Send> {
                let (sim, order) = (Arc::clone(&sim), Arc::clone(&order));
                Box::new(move || {
                    sim.enter(tid);
                    for step in 0..3 {
                        order.lock().push((tid, step));
                        sim.advance(tid, 10);
                    }
                    sim.finish(tid);
                })
            };
            run_threads(vec![body(0), body(1)]);
            let got = order.lock().clone();
            (got, sim.makespan())
        });
        // Deterministic round-robin: t0 s0, t1 s0, t0 s1, t1 s1, …
        assert_eq!(got, vec![(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)]);
        assert_eq!(makespan, 30);
    }

    #[test]
    fn waiters_inherit_the_releasers_clock() {
        let waiter_clock = bounded(|| {
            let sim = Arc::new(Sim::new(2, 10));
            let sim2 = Arc::clone(&sim);
            // Thread 1 "waits on a lock" released by thread 0 at clock 500.
            let h = std::thread::spawn(move || {
                sim2.enter(1);
                sim2.advance(1, 5);
                sim2.begin_wait(1);
                let clock = sim2.await_release(1);
                sim2.finish(1);
                clock
            });
            sim.enter(0);
            sim.advance(0, 500); // thread 1 runs up to its wait
            sim.on_release(0);
            sim.finish(0);
            h.join().unwrap()
        });
        assert_eq!(
            waiter_clock,
            Some(500),
            "waiter resumed at the release time"
        );
    }

    #[test]
    fn wedge_is_detected_not_hung() {
        // Thread 1 waits; thread 0 finishes without releasing anything.
        // The waiter must get `None` instead of blocking forever.
        let resumed = bounded(|| {
            let sim = Arc::new(Sim::new(2, 10));
            let sim2 = Arc::clone(&sim);
            let h = std::thread::spawn(move || {
                sim2.enter(1);
                sim2.advance(1, 5);
                sim2.begin_wait(1);
                let resumed = sim2.await_release(1);
                sim2.finish(1);
                resumed
            });
            sim.enter(0);
            sim.advance(0, 100); // let thread 1 park itself
            sim.finish(0);
            h.join().unwrap()
        });
        assert_eq!(resumed, None, "waiter must observe the wedge");
    }

    #[test]
    fn late_wait_after_all_finished_is_wedged() {
        let resumed = bounded(|| {
            let sim = Sim::new(1, 10);
            sim.begin_wait(0);
            sim.await_release(0)
        });
        assert_eq!(resumed, None, "sole waiter wedges immediately");
    }

    #[test]
    fn policy_ranks_break_clock_ties_among_promoted_waiters() {
        use mglock::{Mode, NodeKey};
        use sched::{PolicyKind, SchedConfig};
        let (grants, order, makespan) = bounded(|| {
            // Section 1 is expected to hold for 100 ticks, section 2 for
            // 5: shortest-expected-hold must wake tid 2 (section 2) ahead
            // of tid 1 despite the lower thread id waiting too.
            let cfg = SchedConfig {
                policy: PolicyKind::ShortestExpectedHold,
                expected_hold: vec![(1, 100), (2, 5)],
                aging: 0,
            };
            let sim = Arc::new(Sim::with_policy(3, 10, Some(cfg.build())));
            let order = Arc::new(Mutex::new(Vec::new()));
            let grants = Arc::new(Mutex::new(Vec::new()));
            let waiter = |tid: usize, section: u32| -> Box<dyn FnOnce() + Send> {
                let (sim, order) = (Arc::clone(&sim), Arc::clone(&order));
                Box::new(move || {
                    sim.enter(tid);
                    sim.begin_wait_with(
                        tid,
                        Some(Waiter {
                            tid: tid as u32,
                            since: 0,
                            section,
                            node: NodeKey::Root,
                            mode: Mode::X,
                            age: 0,
                        }),
                    );
                    assert!(sim.await_release(tid).is_some());
                    order.lock().push(tid);
                    sim.advance(tid, 1);
                    sim.finish(tid);
                })
            };
            // Thread 0 "holds the lock": its advance to 500 lets both
            // waiters park, then it releases.
            let holder: Box<dyn FnOnce() + Send> = {
                let (sim, grants) = (Arc::clone(&sim), Arc::clone(&grants));
                Box::new(move || {
                    sim.enter(0);
                    sim.advance(0, 500);
                    sim.on_release_with(0, |g| grants.lock().push(g));
                    sim.finish(0);
                })
            };
            run_threads(vec![holder, waiter(1, 1), waiter(2, 2)]);
            let (grants, order) = (grants.lock().clone(), order.lock().clone());
            (grants, order, sim.makespan())
        });
        assert_eq!(
            grants,
            vec![WakeGrant {
                node: NodeKey::Root,
                mode: Mode::X,
                depth: 2,
                woken: 1,
            }]
        );
        assert_eq!(
            order,
            vec![2, 1],
            "the short-hold section's waiter goes first"
        );
        // Both waiters resumed at the release clock: ranks reorder
        // ties, they never touch clocks.
        assert_eq!(makespan, 501);
    }

    #[test]
    fn waiter_age_accumulates_across_reparks_and_resets_on_end_wait() {
        use mglock::{Mode, NodeKey};

        /// Records the age of every waiter it is asked to rank.
        struct AgeSpy(Mutex<Vec<u64>>);
        impl sched::WakePolicy for &'static AgeSpy {
            fn name(&self) -> &'static str {
                "age-spy"
            }
            fn rank(&self, waiter: &Waiter, _queue: &[Waiter]) -> u64 {
                self.0.lock().push(waiter.age);
                0
            }
        }

        static SPY: AgeSpy = AgeSpy(Mutex::new(Vec::new()));
        bounded(|| {
            let sim = Arc::new(Sim::with_policy(2, 10, Some(Box::new(&SPY))));
            let w = Waiter {
                tid: 1,
                since: 0,
                section: 1,
                node: NodeKey::Root,
                mode: Mode::X,
                age: 0,
            };
            // Park, sit through two releases (re-parking after the first
            // promotion fails to acquire), then succeed and park afresh.
            let waiter: Box<dyn FnOnce() + Send> = {
                let sim = Arc::clone(&sim);
                Box::new(move || {
                    sim.enter(1);
                    sim.begin_wait_with(1, Some(w));
                    assert!(sim.await_release(1).is_some());
                    sim.begin_wait_with(1, Some(w));
                    assert!(sim.await_release(1).is_some());
                    sim.end_wait(1);
                    sim.begin_wait_with(1, Some(w));
                    assert!(sim.await_release(1).is_some());
                    sim.finish(1);
                })
            };
            // Each advance hands the turn to the waiter (whose clock
            // trails) until it parks again; then comes the release.
            let releaser: Box<dyn FnOnce() + Send> = {
                let sim = Arc::clone(&sim);
                Box::new(move || {
                    sim.enter(0);
                    for _ in 0..3 {
                        sim.advance(0, 10);
                        sim.on_release_with(0, |_| {});
                    }
                    sim.finish(0);
                })
            };
            run_threads(vec![releaser, waiter]);
        });
        assert_eq!(
            SPY.0.lock().clone(),
            vec![0, 1, 0],
            "age counts releases survived per wait streak"
        );
    }

    #[test]
    fn a_panicking_turn_holder_still_hands_the_turn_on() {
        // The exit `run_threads_virtual` takes for a worker that faults
        // or panics mid-run: `on_release` then `finish`, both while it
        // still holds the turn. Thread 1 dies at clock 20 holding the
        // "lock" thread 2 waits on; threads 0 and 2 must run to
        // completion on the schedule the broadcast scheduler produced
        // (makespan 60: thread 0's six quanta; thread 2 resumes at 20).
        let (died, order, makespan, counts) = bounded(|| {
            let sim = Arc::new(Sim::new(3, 10));
            let order = Arc::new(Mutex::new(Vec::new()));
            let steady: Box<dyn FnOnce() + Send> = {
                let (sim, order) = (Arc::clone(&sim), Arc::clone(&order));
                Box::new(move || {
                    sim.enter(0);
                    for _ in 0..6 {
                        let clock = sim.advance(0, 10);
                        order.lock().push((0, clock));
                    }
                    sim.finish(0);
                })
            };
            let died = Arc::new(Mutex::new(false));
            let doomed: Box<dyn FnOnce() + Send> = {
                let (sim, died) = (Arc::clone(&sim), Arc::clone(&died));
                Box::new(move || {
                    sim.enter(1);
                    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        sim.advance(1, 10);
                        sim.advance(1, 10);
                        std::panic::resume_unwind(Box::new("injected"));
                    }));
                    *died.lock() = r.is_err();
                    sim.on_release(1);
                    sim.finish(1);
                })
            };
            let waiter: Box<dyn FnOnce() + Send> = {
                let (sim, order) = (Arc::clone(&sim), Arc::clone(&order));
                Box::new(move || {
                    sim.enter(2);
                    sim.begin_wait(2);
                    let clock = sim.await_release(2).expect("released by the dying thread");
                    order.lock().push((2, clock));
                    let clock = sim.advance(2, 15);
                    order.lock().push((2, clock));
                    sim.finish(2);
                })
            };
            run_threads(vec![steady, doomed, waiter]);
            let (died, order) = (*died.lock(), order.lock().clone());
            (died, order, sim.makespan(), sim.yield_counts())
        });
        assert!(died);
        assert_eq!(
            order,
            vec![
                (0, 10),
                (0, 20),
                (2, 20),
                (0, 30),
                (2, 35),
                (0, 40),
                (0, 50),
                (0, 60)
            ]
        );
        assert_eq!(makespan, 60);
        let (yield_points, handoffs) = counts;
        assert!(handoffs <= yield_points, "{handoffs} > {yield_points}");
    }

    #[test]
    fn a_thread_handed_the_turn_before_entering_starts_without_a_lost_wakeup() {
        let order = bounded(|| {
            let sim = Arc::new(Sim::new(2, 10));
            let order = Arc::new(Mutex::new(Vec::new()));
            let first = {
                let (sim, order) = (Arc::clone(&sim), Arc::clone(&order));
                std::thread::spawn(move || {
                    sim.enter(0);
                    order.lock().push(0);
                    sim.advance(0, 10); // hands the turn to thread 1 …
                    order.lock().push(0);
                    sim.finish(0);
                })
            };
            // … which does not exist yet: wait for the hand-off itself,
            // not for a guess at how long it takes.
            while sim.inner.lock().running != 1 {
                std::thread::yield_now();
            }
            sim.enter(1);
            order.lock().push(1);
            sim.finish(1);
            first.join().unwrap();
            let got = order.lock().clone();
            got
        });
        assert_eq!(order, vec![0, 1, 0]);
    }

    #[test]
    fn the_sole_runner_never_hands_off() {
        let counts = bounded(|| {
            let sim = Sim::new(1, 10);
            sim.enter(0);
            for _ in 0..100 {
                sim.advance(0, 10);
            }
            sim.finish(0);
            sim.yield_counts()
        });
        assert_eq!(counts, (101, 0));
    }
}
