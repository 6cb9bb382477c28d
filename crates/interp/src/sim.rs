//! Virtual-time execution: a deterministic discrete-event scheduler
//! that stands in for the paper's 8-core test machine.
//!
//! Real threads on the host cannot be trusted to exhibit the
//! parallelism the evaluation measures — the container may have one
//! CPU or several, loaded or idle — so nothing here depends on how
//! many it has. Each logical thread carries a *virtual clock* (1 tick
//! per interpreted instruction; nop loops cost their count; locking
//! and STM operations are charged via `CostModel`), and exactly one
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
//! # The driver loop
//!
//! A virtual thread is not an OS thread: it is a resumable `Worker`
//! whose `resume` runs until its call returns, fails, or reaches a
//! *scheduling point* — `Sim::advance`, `Sim::begin_wait`,
//! `Sim::finish` — at which another thread has become the minimum.
//! `Machine::run_threads_virtual` owns the `Sim` and the workers and,
//! on the calling thread, resumes whichever thread `Sim::next_runner`
//! names until none is left. A `Sim` is plain single-owner state; each
//! scheduling point scans the threads once and reports who runs next,
//! and a thread that is still the minimum simply keeps running. The
//! `Sim` keeps that decision, and the driver's next `next_runner`
//! hands it over without a second scan: a hand-off costs one scan. Only
//! the driver's first call, and one after a release that nothing has
//! rescheduled since, scans for itself.
//!
//! `Sim::on_release_with` and `Sim::end_wait` are not scheduling
//! points: a release promotes the waiters (clock jump, ranks,
//! `WakeGrant`s) and the releaser runs on until its next scheduling
//! point, where a promoted waiter with a smaller key takes over.
//! Exactly one virtual thread executes at a time because exactly one
//! `resume` is on the stack — which is also why a traced worker may
//! hold the event log from one scheduling point to the next.
//!
//! A *wedge* is the driver finding no `Ready` thread while some are
//! `Waiting` (none left to release anything): the condition is sticky,
//! every waiter is resumed in turn and fails with
//! [`crate::InterpError::SchedulerStalled`] — an error, never a hang —
//! and scheduling points stop counting.
//!
//! # Wake ordering
//!
//! Each waiter carries a *rank* assigned by the configured wake policy
//! ([`SchedConfig::rank`]) at the release that promotes it, and the
//! scheduling order compares `(clock, rank, tid)`.
//! Ranks never touch clocks — only the acquisition order among waiters
//! promoted at the same release time changes — and every thread's rank
//! resets to 0 at its next scheduling point. With no policy no ranking
//! pass runs, every rank stays 0, and the order is the historical
//! `(clock, tid)` — the one way to get it; there is no FIFO policy.

use crate::sched::{rank_batch, SchedConfig, Waiter, WakeGrant};

/// Virtual-time costs of runtime operations, in ticks (one tick ≈ one
/// interpreted instruction ≈ 1 ns of the reported time).
#[derive(Clone, Copy, Debug)]
pub(crate) struct CostModel {
    /// Per lock-tree node acquired at `acquire_all`.
    pub(crate) lock_node: u64,
    /// Per lock descriptor evaluated at section entry.
    pub(crate) lock_desc: u64,
    /// Per release batch.
    pub(crate) lock_release: u64,
    /// STM: beginning a transaction.
    pub(crate) txn_start: u64,
    /// STM: per transactional read (instrumentation).
    pub(crate) stm_read: u64,
    /// STM: per transactional write (buffering).
    pub(crate) stm_write: u64,
    /// STM: commit base cost.
    pub(crate) stm_commit_base: u64,
    /// STM: per write-back at commit (write-set locking + publish).
    pub(crate) stm_commit_per_write: u64,
    /// STM: per read-set entry validated at commit (writing txns only).
    pub(crate) stm_commit_per_read: u64,
    /// STM: abort/rollback penalty (plus the wasted section work,
    /// which is charged naturally by re-execution).
    pub(crate) stm_abort: u64,
    /// STM: escalating to irrevocable global mode after the abort
    /// budget (acquiring the commit gate serially).
    pub(crate) stm_fallback: u64,
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

/// The scheduler of one virtual run.
pub(crate) struct Sim {
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
    /// began. A promoted waiter that fails to acquire waits again without
    /// clearing this, so aging policies see how many release grants it
    /// has sat through ([`Waiter::age`]); cleared by
    /// [`Sim::end_wait`] when the acquisition finally succeeds.
    wait_epoch: Vec<Option<u64>>,
    release_epoch: u64,
    /// Scheduling points reached, and how many of them made another
    /// thread the runner.
    yield_points: u64,
    handoffs: u64,
    /// Set when the driver found only waiters: no runnable thread
    /// remains to release anything, so the run can never progress.
    /// Sticky — once wedged, all waiters drain out with an error.
    wedged: bool,
    /// The runner the last scheduling point named, for the driver's
    /// next [`Sim::next_runner`]: set by every scheduling point, taken
    /// by the driver, cleared by a release (whose promotions may have
    /// made a waiter the minimum).
    decided: Option<usize>,
    /// Wake policy for lock releases. `None` is the legacy path: no
    /// ranking pass runs, no wake decisions are reported, and the
    /// schedule is the historical `(clock, tid)` order.
    policy: Option<SchedConfig>,
}

impl Sim {
    /// A policy-free scheduler: the historical `(clock, tid)` order.
    #[cfg(test)]
    pub(crate) fn new(n: usize) -> Sim {
        Sim::with_policy(n, None)
    }

    /// A scheduler for `n` threads, all `Ready` at clock 0 — so thread
    /// 0 is the minimum and runs first.
    pub(crate) fn with_policy(n: usize, policy: Option<SchedConfig>) -> Sim {
        Sim {
            clocks: vec![0; n],
            state: vec![St::Ready; n],
            ranks: vec![0; n],
            waiters: vec![None; n],
            wait_epoch: vec![None; n],
            release_epoch: 0,
            yield_points: 0,
            handoffs: 0,
            wedged: false,
            decided: None,
            policy,
        }
    }

    /// The `Ready` thread with the smallest `(clock, rank, tid)`, in one
    /// pass: a thread replaces the best so far only with a strictly
    /// smaller `(clock, rank)`, so the lowest tid wins a tie.
    fn ready_min(&self) -> Option<usize> {
        let mut best: Option<(u64, u64, usize)> = None;
        for (j, &st) in self.state.iter().enumerate() {
            if st != St::Ready {
                continue;
            }
            let key = (self.clocks[j], self.ranks[j]);
            if best.is_none_or(|(clock, rank, _)| key < (clock, rank)) {
                best = Some((key.0, key.1, j));
            }
        }
        best.map(|(.., j)| j)
    }

    /// [`Sim::ready_min`] by definition: the oracle its one pass is
    /// held to.
    #[cfg(test)]
    fn ready_min_reference(&self) -> Option<usize> {
        (0..self.state.len())
            .filter(|&j| self.state[j] == St::Ready)
            .min_by_key(|&j| (self.clocks[j], self.ranks[j], j))
    }

    /// The scheduling decision at a scheduling point of `tid`, whose
    /// own state and clock are already updated: who runs next. Kept for
    /// the driver's [`Sim::next_runner`].
    fn schedule(&mut self, tid: usize) -> Option<usize> {
        let next = self.ready_min();
        if !self.wedged {
            self.yield_points += 1;
            self.handoffs += u64::from(next.is_some_and(|next| next != tid));
        }
        self.decided = next;
        next
    }

    /// The thread the driver resumes next: the `Ready` minimum — the
    /// runner the last scheduling point reported, when one is pending,
    /// so a hand-off costs one scan, not two. With none `Ready` but
    /// waiters left, the schedule is wedged and the waiters are handed
    /// out in thread order to fail. `None` when every thread is done.
    pub(crate) fn next_runner(&mut self) -> Option<usize> {
        if let Some(next) = self.decided.take() {
            return Some(next);
        }
        self.ready_min().or_else(|| {
            let waiter = self.state.iter().position(|&s| s == St::Waiting)?;
            self.wedged = true;
            Some(waiter)
        })
    }

    /// Whether the schedule wedged: a resumed waiter must abandon its
    /// wait with [`crate::InterpError::SchedulerStalled`].
    pub(crate) fn wedged(&self) -> bool {
        self.wedged
    }

    /// `tid`'s clock: what its last scheduling point left it at, or
    /// the release time a promotion jumped it to.
    pub(crate) fn clock(&self, tid: usize) -> u64 {
        self.clocks[tid]
    }

    /// Advances `tid`'s clock and reports who runs next — `tid` itself
    /// while it is still the scheduling minimum. Reaching a scheduling
    /// point retires any wake rank: the thread has consumed its
    /// preferential slot and competes on `(clock, tid)` again.
    pub(crate) fn advance(&mut self, tid: usize, ticks: u64) -> usize {
        self.clocks[tid] += ticks;
        self.ranks[tid] = 0;
        self.schedule(tid).expect("the advancing thread is ready")
    }

    /// Marks `tid` blocked on a lock and reports who runs next (nobody:
    /// the driver will find the wedge). Only a future
    /// [`Sim::on_release`] makes `tid` runnable again, with its clock
    /// advanced to the release time. The waiter snapshot is for the
    /// wake policy: what the thread blocked on, in which mode, from
    /// which section; `None` (or a `None` policy) ranks the thread 0,
    /// the FIFO slot.
    pub(crate) fn begin_wait(&mut self, tid: usize, waiter: Option<Waiter>) -> Option<usize> {
        self.state[tid] = St::Waiting;
        self.waiters[tid] = waiter;
        // Waiting again after an unsuccessful promotion continues the same
        // wait streak: the age baseline survives.
        let epoch = self.release_epoch;
        self.wait_epoch[tid].get_or_insert(epoch);
        self.schedule(tid)
    }

    /// Ends `tid`'s wait streak: the blocked acquisition went through,
    /// so the next wait starts aging from zero again. Called by the
    /// acquire loop after its final successful step.
    pub(crate) fn end_wait(&mut self, tid: usize) {
        self.wait_epoch[tid] = None;
    }

    /// Announces that `tid` released locks at its current clock.
    /// Every waiter is promoted to Ready *atomically here* — with its
    /// clock jumped to the release time. Promote-all is what keeps the
    /// wedge detection sound: a policy only *ranks* the batch (who
    /// retries first among equal clocks), it never leaves anyone
    /// waiting.
    pub(crate) fn on_release(&mut self, tid: usize) {
        self.on_release_with(tid, |_| {});
    }

    /// [`Sim::on_release`], reporting the policy's wake decisions —
    /// one per blocked-on node, empty on the legacy (`None`-policy)
    /// path. The releaser keeps running, so the callback — and
    /// everything up to the releaser's next scheduling point — runs
    /// before any promoted waiter resumes. A tracing caller stamps the
    /// `["wk", …]` events with epochs strictly ahead of whatever the
    /// woken threads record next.
    pub(crate) fn on_release_with(&mut self, tid: usize, mut decision: impl FnMut(WakeGrant)) {
        // A promoted waiter may now be the minimum: the driver's next
        // runner is the next scheduling point's to name, or a scan's.
        self.decided = None;
        let now = self.clocks[tid];
        let epoch = self.release_epoch;
        self.release_epoch += 1;
        if let Some(policy) = &self.policy {
            // Queue order is thread-id order — exactly the order the
            // historical tie-break would retry the batch in. Each
            // waiter's age is the number of release grants its wait
            // streak has already sat through — schedule state, so
            // aging policies rank identically on replay.
            let queue: Vec<Waiter> = (0..self.state.len())
                .filter(|&j| self.state[j] == St::Waiting)
                .filter_map(|j| {
                    self.waiters[j].map(|mut w| {
                        w.age = epoch - self.wait_epoch[j].unwrap_or(epoch);
                        w
                    })
                })
                .collect();
            if !queue.is_empty() {
                let (ranks, grants) = rank_batch(policy, &queue);
                for (w, r) in queue.iter().zip(&ranks) {
                    self.ranks[w.tid as usize] = *r;
                }
                grants.into_iter().for_each(&mut decision);
            }
        }
        for j in 0..self.state.len() {
            if self.state[j] == St::Waiting {
                self.clocks[j] = self.clocks[j].max(now);
                self.state[j] = St::Ready;
                self.waiters[j] = None;
            }
        }
    }

    /// Marks `tid` finished and reports who runs next. If that leaves
    /// only waiters, the schedule is wedged (a finished thread releases
    /// its locks first, so any still-waiting thread waits on something
    /// no one holds — a bug surfaced as an error, not a hang).
    pub(crate) fn finish(&mut self, tid: usize) -> Option<usize> {
        self.state[tid] = St::Done;
        self.schedule(tid)
    }

    /// The virtual makespan so far (max clock).
    pub(crate) fn makespan(&self) -> u64 {
        self.clocks.iter().copied().max().unwrap_or(0)
    }

    /// `(scheduling points, hand-offs)` so far.
    pub(crate) fn yield_counts(&self) -> (u64, u64) {
        (self.yield_points, self.handoffs)
    }
}

#[cfg(test)]
mod tests {
    //! Each test is the transcript of one schedule: the calls the
    //! driver and the running thread make, in order, with every
    //! scheduling point's answer to "who runs next" asserted.

    use super::*;

    #[test]
    fn threads_interleave_by_clock() {
        // Two threads, each: three times (record, advance 10), finish.
        let mut sim = Sim::new(2);
        let mut order = Vec::new();
        let mut runner = sim.next_runner().unwrap();
        let mut steps = [0; 2];
        while steps[runner] < 3 {
            order.push((runner, steps[runner]));
            steps[runner] += 1;
            runner = sim.advance(runner, 10);
        }
        // Deterministic round-robin: t0 s0, t1 s0, t0 s1, t1 s1, …
        assert_eq!(order, vec![(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)]);
        assert_eq!(runner, 0);
        assert_eq!(sim.finish(0), Some(1));
        assert_eq!(sim.finish(1), None);
        assert_eq!(sim.next_runner(), None);
        assert_eq!(sim.makespan(), 30);
    }

    #[test]
    fn waiters_inherit_the_releasers_clock() {
        // Thread 1 "waits on a lock" released by thread 0 at clock 500.
        let mut sim = Sim::new(2);
        assert_eq!(sim.next_runner(), Some(0));
        assert_eq!(sim.advance(0, 500), 1); // thread 1 runs up to its wait
        assert_eq!(sim.advance(1, 5), 1);
        assert_eq!(sim.begin_wait(1, None), Some(0));
        sim.on_release(0);
        assert_eq!(sim.finish(0), Some(1));
        assert!(!sim.wedged());
        assert_eq!(sim.clock(1), 500, "waiter resumed at the release time");
        assert_eq!(sim.finish(1), None);
    }

    #[test]
    fn wedge_is_detected_not_hung() {
        // Thread 1 waits; thread 0 finishes without releasing anything.
        // The driver must hand the waiter out to fail, not stop short.
        let mut sim = Sim::new(2);
        assert_eq!(sim.advance(0, 100), 1);
        assert_eq!(sim.advance(1, 5), 1);
        assert_eq!(sim.begin_wait(1, None), Some(0));
        assert_eq!(sim.finish(0), None);
        assert!(!sim.wedged(), "the wedge is the driver's finding");
        assert_eq!(sim.next_runner(), Some(1));
        assert!(sim.wedged(), "waiter must observe the wedge");
        // The waiter's unclean exit: release, then leave the schedule.
        sim.on_release(1);
        assert_eq!(sim.finish(1), None);
        assert_eq!(sim.next_runner(), None);
    }

    #[test]
    fn late_wait_after_all_finished_is_wedged() {
        let mut sim = Sim::new(1);
        assert_eq!(sim.begin_wait(0, None), None);
        assert_eq!(sim.next_runner(), Some(0));
        assert!(sim.wedged(), "sole waiter wedges immediately");
    }

    fn waiter(tid: u32, section: u32) -> Waiter {
        Waiter {
            tid,
            section,
            node: mglock::NodeKey::Root,
            mode: mglock::Mode::X,
            age: 0,
        }
    }

    #[test]
    fn policy_ranks_break_clock_ties_among_promoted_waiters() {
        use crate::sched::PolicyKind;
        use mglock::{Mode, NodeKey};
        // Section 1 is expected to hold for 100 ticks, section 2 for
        // 5: shortest-expected-hold must wake tid 2 (section 2) ahead
        // of tid 1 despite the lower thread id waiting too.
        let cfg = SchedConfig {
            policy: PolicyKind::ShortestExpectedHold,
            expected_hold: vec![(1, 100), (2, 5)],
            aging: 0,
        };
        let mut sim = Sim::with_policy(3, Some(cfg));
        // Thread 0 "holds the lock": its advance to 500 lets both
        // waiters park, then it releases.
        assert_eq!(sim.advance(0, 500), 1);
        assert_eq!(sim.begin_wait(1, Some(waiter(1, 1))), Some(2));
        assert_eq!(sim.begin_wait(2, Some(waiter(2, 2))), Some(0));
        let mut grants = Vec::new();
        sim.on_release_with(0, |g| grants.push(g));
        assert_eq!(
            grants,
            vec![WakeGrant {
                node: NodeKey::Root,
                mode: Mode::X,
                depth: 2,
                woken: 1,
            }]
        );
        // Each waiter, once resumed: advance 1, finish.
        assert_eq!(
            sim.finish(0),
            Some(2),
            "the short-hold section's waiter goes first"
        );
        assert_eq!(sim.advance(2, 1), 1);
        assert_eq!(sim.advance(1, 1), 1);
        assert_eq!(sim.finish(1), Some(2));
        assert_eq!(sim.finish(2), None);
        // Both waiters resumed at the release clock: ranks reorder
        // ties, they never touch clocks.
        assert_eq!(sim.makespan(), 501);
    }

    #[test]
    fn a_writer_joins_the_read_batch_at_exactly_aging_grants() {
        use crate::sched::PolicyKind;
        use mglock::Mode;
        let cfg = SchedConfig {
            policy: PolicyKind::ReaderBatch,
            expected_hold: Vec::new(),
            aging: 2,
        };
        let mut sim = Sim::with_policy(3, Some(cfg));
        let writer = Some(waiter(1, 1));
        let reader = Some(Waiter {
            mode: Mode::S,
            ..waiter(2, 1)
        });
        let mut grants = Vec::new();
        // Thread 0 releases three times. The writer (thread 1) parks
        // once and re-parks after each promotion, as a failed acquisition
        // does, so its streak ages 0, 1, 2; the reader (thread 2)
        // acquires after each promotion and parks afresh, at age 0.
        assert_eq!(sim.advance(0, 10), 1);
        assert_eq!(sim.begin_wait(1, writer), Some(2));
        assert_eq!(sim.begin_wait(2, reader), Some(0));
        sim.on_release_with(0, |g| grants.push((g.mode, g.depth, g.woken)));
        for _ in 0..2 {
            assert_eq!(sim.advance(0, 10), 2, "the reader ranks first");
            sim.end_wait(2);
            assert_eq!(sim.begin_wait(2, reader), Some(1));
            assert_eq!(sim.begin_wait(1, writer), Some(0));
            sim.on_release_with(0, |g| grants.push((g.mode, g.depth, g.woken)));
        }
        assert_eq!(
            grants,
            vec![(Mode::S, 2, 1), (Mode::S, 2, 1), (Mode::X, 2, 2)],
            "one grant short of the bound the writer still waits behind the batch"
        );
        // Ranked with the batch, the writer wins the tie on its tid and
        // acquires, which ends its streak. Parked again beside a fresh
        // reader, it ages from 0: the next grant is the read batch's.
        assert_eq!(sim.advance(0, 10), 1);
        sim.end_wait(1);
        assert_eq!(sim.begin_wait(1, writer), Some(2));
        sim.end_wait(2);
        assert_eq!(sim.begin_wait(2, reader), Some(0));
        grants.clear();
        sim.on_release_with(0, |g| grants.push((g.mode, g.depth, g.woken)));
        assert_eq!(
            grants,
            vec![(Mode::S, 2, 1)],
            "a finished wait starts the next streak at age 0"
        );
        assert_eq!(sim.advance(0, 10), 2, "the reader ranks first");
        assert_eq!(sim.finish(2), Some(1));
        assert_eq!(sim.finish(1), Some(0));
        assert_eq!(sim.finish(0), None);
    }

    #[test]
    fn a_dying_runner_still_leaves_the_schedule_running() {
        // The exit `run_threads_virtual` takes for a worker that faults
        // or panics mid-run: `on_release` then `finish`. Thread 0 runs
        // six quanta of 10; thread 1 dies at clock 20 holding the
        // "lock" thread 2 waits on; thread 2 resumes at 20, advances
        // 15 and finishes. A thread notes `(tid, clock)` each time it
        // is resumed after a scheduling point.
        let mut sim = Sim::new(3);
        let mut order = Vec::new();
        let mut note = |sim: &Sim, tid: usize| order.push((tid, sim.clock(tid)));
        assert_eq!(sim.advance(0, 10), 1);
        assert_eq!(sim.advance(1, 10), 2);
        assert_eq!(sim.begin_wait(2, None), Some(0));
        note(&sim, 0);
        assert_eq!(sim.advance(0, 10), 1);
        assert_eq!(sim.advance(1, 10), 0);
        note(&sim, 0);
        assert_eq!(sim.advance(0, 10), 1);
        // Thread 1 dies here.
        sim.on_release(1);
        assert_eq!(sim.finish(1), Some(2));
        note(&sim, 2);
        assert_eq!(sim.advance(2, 15), 0);
        note(&sim, 0);
        assert_eq!(sim.advance(0, 10), 2);
        note(&sim, 2);
        assert_eq!(sim.finish(2), Some(0));
        for _ in 0..2 {
            note(&sim, 0);
            assert_eq!(sim.advance(0, 10), 0);
        }
        note(&sim, 0);
        assert_eq!(sim.finish(0), None);
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
        assert_eq!(sim.makespan(), 60);
        let (yield_points, handoffs) = sim.yield_counts();
        assert!(handoffs <= yield_points, "{handoffs} > {yield_points}");
    }

    #[test]
    fn a_thread_that_has_not_run_yet_is_scheduled_like_any_other() {
        // Thread 0 runs, advances past thread 1 — which has executed
        // nothing so far — and runs again once thread 1 is done.
        let mut sim = Sim::new(2);
        let mut order = vec![sim.next_runner().unwrap()];
        order.push(sim.advance(0, 10));
        order.extend(sim.finish(1));
        assert_eq!(order, vec![0, 1, 0]);
        assert_eq!(sim.finish(0), None);
    }

    /// One call the running thread makes, from a generated transcript:
    /// `(kind, ticks, section, hand back)`. Kinds 0–2 advance by
    /// `ticks` (a scheduling point), 3 blocks on a lock from `section`
    /// (one), 4 releases, promoting every waiter — and, with `hand
    /// back`, ends the slice there, so the driver must see the
    /// promotions — and 5 finishes.
    type Op = (u8, u64, u32, bool);

    /// Drives `ops` through a `Sim` of `n` threads the way
    /// `run_threads_virtual` does, asserting that every runner the
    /// driver resumes, and every scheduling point's answer, is what the
    /// reference scan says at that moment. Once the transcript is spent
    /// each resumed thread finishes; a wedged schedule fails each thread
    /// it hands out (release, then finish), as the driver does.
    fn check_transcript(n: usize, ranked: bool, ops: &[Op]) {
        use crate::sched::PolicyKind;
        let policy = ranked.then(|| SchedConfig {
            policy: PolicyKind::ShortestExpectedHold,
            expected_hold: vec![(0, 0), (1, 5), (2, 5), (3, 50)],
            aging: 0,
        });
        let mut sim = Sim::with_policy(n, policy);
        let mut ops = ops.iter();
        loop {
            let want = sim
                .ready_min_reference()
                .or_else(|| sim.state.iter().position(|&s| s == St::Waiting));
            let runner = sim.next_runner();
            assert_eq!(runner, want, "the driver resumes the reference minimum");
            let Some(r) = runner else { break };
            if sim.wedged() {
                sim.on_release(r);
                sim.finish(r);
                continue;
            }
            loop {
                let Some(&(kind, ticks, section, hand_back)) = ops.next() else {
                    sim.finish(r);
                    break;
                };
                match kind {
                    0..=2 => {
                        let next = sim.advance(r, ticks);
                        assert_eq!(Some(next), sim.ready_min_reference());
                        if next != r {
                            break;
                        }
                    }
                    3 => {
                        let waiter = waiter(r as u32, section);
                        let next = sim.begin_wait(r, Some(waiter));
                        assert_eq!(next, sim.ready_min_reference());
                        break;
                    }
                    4 => {
                        sim.on_release_with(r, |_| {});
                        if hand_back {
                            break;
                        }
                    }
                    _ => {
                        let next = sim.finish(r);
                        assert_eq!(next, sim.ready_min_reference());
                        break;
                    }
                }
            }
        }
        assert!(sim.state.iter().all(|&s| s == St::Done));
        let (yield_points, handoffs) = sim.yield_counts();
        assert!(handoffs <= yield_points);
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]
        /// The driver resumes exactly the thread the reference scan
        /// names, whether the last scheduling point's decision hands it
        /// over or the driver scans: ties on `(clock, rank)` go to the
        /// lowest tid, ranks break clock ties, a release's promotions
        /// are seen, and a wedge hands out the waiters.
        #[test]
        fn the_driver_resumes_the_reference_minimum(
            n in 1usize..6,
            ranked in proptest::arbitrary::any::<bool>(),
            ops in proptest::collection::vec(
                (0u8..6, 0u64..4, 0u32..4, proptest::arbitrary::any::<bool>()),
                0..120,
            ),
        ) {
            check_transcript(n, ranked, &ops);
        }
    }

    #[test]
    fn the_sole_runner_never_hands_off() {
        let mut sim = Sim::new(1);
        for _ in 0..100 {
            assert_eq!(sim.advance(0, 10), 0);
        }
        assert_eq!(sim.finish(0), None);
        assert_eq!(sim.yield_counts(), (101, 0));
    }
}
