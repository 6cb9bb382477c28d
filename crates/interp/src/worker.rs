//! Per-thread execution: the resumable instruction loop, the three
//! section disciplines, and the thread harness.
//!
//! A [`Worker`] is a machine that [`Worker::resume`] steps: it runs
//! until its call returns, fails, or a scheduling point of the
//! virtual-time scheduler makes another thread the runner. Nothing of
//! an interpreted call lives on the host stack — frames are entries of
//! [`Worker::frames`] over one slot vector — so a yield unwinds (as
//! [`Exc::Yield`]) to `resume` from wherever it happened, and three
//! small records say where the next `resume` continues:
//!
//! * [`Cont`]: how far the instruction at the top frame's `pc` got —
//!   not started, head tick paid, in its body, storing a call's
//!   parameters, storing an effectful right-hand side's value;
//! * [`Enter`] / [`Exit`] / [`Acquire`]: the stage of a section-entry
//!   or -exit instruction, whose protocol has a scheduling point
//!   between most of its steps — each stage names its successor
//!   *before* the call that may yield;
//! * the access journal: under STM every transactional read and write
//!   is followed by a tick, so an instruction body can yield after any
//!   of its accesses. The body is then re-executed with the accesses
//!   it already made answered from the journal — frame-slot operands
//!   are recomputed, which is idempotent because the destination store
//!   comes last.
//!
//! In real time no scheduling point yields, and the same loop runs to
//! completion in one `resume`.

use crate::error::{Exc, InterpError};
use crate::fault::{splitmix, FaultPanic, Injector};
use crate::machine::{ExecMode, Machine, Storage};
use crate::sched::Waiter;
use crate::sentinel::{LadderEvent, Response};
use crate::sim::Sim;
use lir::{ArithOp, CmpOp, FnId, Instr, Intrinsic, LockSpec, PathOp, Rvalue, SectionId, VarId};
use mglock::{Access, Descriptor, FineAddr, Session};
use pointsto::PtsClass;
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use tl2::Backoff;
use trace::FaultClass;

/// Frames a worker may stack. They live on the heap, so this bounds an
/// interpreted program's memory, not the host stack.
const MAX_CALL_DEPTH: usize = 4000;

/// Where an instruction sends control.
enum Flow {
    Next,
    Jump(usize),
    /// Call the function with the arguments in [`Worker::argv`].
    Call(FnId),
    Return(i64),
}

/// What one [`Worker::resume`] came to.
pub(crate) enum Step {
    /// Another virtual thread is the runner now; resume this one when
    /// the scheduler names it again.
    Yield,
    /// The entry call returned.
    Done(i64),
}

/// One interpreted call: its function, the instruction it is at (kept
/// in a local while the frame runs; written back when control leaves
/// it) and where its slots start in the worker's slot vector.
#[derive(Clone, Copy)]
struct Frame {
    f: FnId,
    pc: usize,
    base: usize,
}

/// Source position of the executing instruction, for diagnostics.
#[derive(Clone, Copy)]
struct At {
    f: FnId,
    pc: usize,
}

/// How far the instruction at the top frame's `pc` has got: where
/// `resume` picks it up.
#[derive(Clone, Copy)]
enum Cont {
    /// Not started: its head tick comes first.
    Fetch,
    /// The head tick is paid (it was the scheduling point).
    Ticked,
    /// In its body: re-execute it, the journal answering for the
    /// accesses already made, the stage records for a section's.
    Body,
    /// The arguments of a call are in `argv`; the callee's frame is
    /// not pushed yet. (How the entry call starts, too.)
    Call(FnId),
    /// The callee's frame is on top; parameters from this index on are
    /// still to be stored.
    Params(usize),
    /// The right-hand side of this `Assign` took effect — a call
    /// returned, an intrinsic ran, cells were allocated — and produced
    /// this value; only the store into the destination is left.
    Dest(i64),
    /// The entry call returned this value (the exit flush may have
    /// been the scheduling point).
    Finished(i64),
}

/// Stage of a section-entry instruction.
#[derive(Clone, Copy)]
enum Enter {
    Start,
    /// `⊤` in `X` is queued; acquire it. Its grant is the acquisition
    /// point of an outermost section.
    Global {
        outermost: bool,
    },
    /// A nested lock section: the outer level's grants cover it.
    Nested,
    /// Evaluate the section's lock specs into a plan.
    Plan,
    /// The plan is queued: acquire it, then check it did not drift.
    Planned,
    /// STM: `txn_start` is charged; publish the clock.
    TxnCharged,
    /// STM: begin the transaction at this exact virtual time.
    TxnFlushed,
    /// STM: retrying for the commit gate (irrevocable fallback).
    Gate,
}

/// Stage of a section-exit instruction.
#[derive(Clone, Copy)]
enum Exit {
    Start,
    /// `lock_release` is charged; publish the release time.
    Charged,
    /// Release, and (outermost) tell the scheduler.
    Closing,
    /// The outermost level closed; tidy up.
    Released,
    /// STM: the commit cost is charged; publish the clock.
    CommitCharged,
    /// STM: commit at this exact virtual time.
    Commit,
}

/// Stage of one acquisition batch ([`Worker::acquire_session`]).
#[derive(Clone, Copy)]
enum Acquire {
    Start,
    /// Any injected stall is served.
    Stalled,
    /// The descriptors' cost is charged; publish the clock.
    Charged,
    /// Take the plan's next nodes.
    Step,
    /// Blocked on a node; resumed by a release (or the wedge).
    Woken,
    /// Every node is held.
    Granted,
}

pub(crate) struct Worker<'m> {
    m: &'m Machine,
    tid: u32,
    rng: u64,
    session: Session,
    txn: Option<tl2::Txn<'m>>,
    /// STM section nesting depth (lock modes use the session's level).
    sec_depth: u32,
    /// The call stack, innermost last.
    frames: Vec<Frame>,
    /// Every frame's slots, contiguous; a frame's are the tail from
    /// its `base`. Taken out of the worker while `resume` runs.
    slots: Vec<i64>,
    /// Argument values between a call instruction and the callee's
    /// parameter stores.
    argv: Vec<i64>,
    cont: Cont,
    enter: Enter,
    exit: Exit,
    acquire: Acquire,
    /// Outcome of the current instruction's transactional accesses by
    /// ordinal (`None`: the read aborted), written as they happen.
    journal: Vec<Option<i64>>,
    /// Accesses the instruction being re-executed made before it
    /// yielded — the yield was the tick after the last of them. 0
    /// whenever no instruction is half done.
    done: usize,
    /// The frame (as a stack depth) and section-entry `pc` that own the
    /// open STM transaction, with that frame's slots at entry in
    /// `snapshot`: where an abort rolls back to.
    retry: Option<(usize, usize)>,
    snapshot: Vec<i64>,
    /// Contention back-off of the retrying STM section, and of the
    /// irrevocable fallback's wait for the commit gate.
    backoff: Backoff,
    gate_backoff: Backoff,
    /// The section being entered plans its staged repair, not the
    /// seed specs (decided once per entry).
    repaired: bool,
    /// Nodes held when the current acquisition batch began, and
    /// whether it has had to wait.
    held_before: usize,
    waited: bool,
    /// The descriptors the current outermost multi-grain plan queued,
    /// in spec order — what post-acquisition revalidation compares
    /// against. Reused from section to section.
    planned: Vec<Descriptor>,
    /// Calls of [`Worker::resume`] so far, and the call in which the
    /// current plan was evaluated: under the virtual-time scheduler no
    /// other thread runs inside one call, so a plan granted in the call
    /// that evaluated it cannot have drifted.
    resumes: u64,
    planned_in: u64,
    /// `(base, len)` of the cells this thread allocated inside the open
    /// section, in allocation order: private until published, so exempt
    /// from coverage (Lemma 2). Kept when a sentinel checks coverage.
    my_allocs: Vec<(u64, u64)>,
    /// The outermost section open on this thread: what a coverage miss,
    /// a sentinel violation and a lock waiter are reported against.
    current_section: SectionId,
    /// Virtual-time scheduler (None = real-time execution), shared with
    /// the driver and the run's other workers — one of which runs at a
    /// time.
    sim: Option<&'m RefCell<Sim>>,
    /// Ticks between scheduling points (the machine's, kept at hand
    /// for the per-instruction test).
    quantum: u64,
    /// The clock this thread last published to the scheduler (what
    /// its last scheduling point returned; 0 in real time).
    vclock: u64,
    /// Ticks accumulated since the last scheduling point.
    vticks: u64,
    /// Fault injection stream (None = no plan configured).
    injector: Option<Injector>,
    /// Aborts suffered by the currently-retrying STM section; at
    /// `Machine::stm_abort_budget` the next attempt escalates.
    section_aborts: u64,
    /// Next STM section entry begins irrevocably (starvation fallback).
    escalate: bool,
    /// This thread's handle on the machine's event log (None = machine
    /// not built with tracing). The worker is its events' only
    /// producer: lock grants and releases and STM lifecycle events are
    /// recorded here, not inside the runtimes.
    tracer: Option<trace::ThreadRecorder<'m>>,
    /// The clock the thread's events are stamped with: [`Worker::now`]
    /// as of the last event or [`Worker::stamp_clock`].
    stamp: u64,
    /// Entries of the session's held list whose grants are logged: the
    /// grants of an acquisition batch are logged as each walk step
    /// returns.
    grants_logged: usize,
    /// Set while lock descriptors are re-evaluated *under* the freshly
    /// acquired grants (drift detection): those path reads are part of
    /// the acquisition protocol, not of the section body, so they are
    /// exempt from the sentinel's coverage check and from the trace.
    revalidating: bool,
    /// In-section accesses seen so far, driving the sentinel's sampling
    /// schedule (a per-worker monotone counter, so the schedule is
    /// deterministic under the virtual-time scheduler).
    accesses: u64,
    /// A sentinel violation was recorded during the current outermost
    /// section execution; consumed at close — dirty executions do not
    /// count toward a quarantined section's probation.
    section_violated: bool,
}

impl<'m> Worker<'m> {
    /// A worker about to call `f(args)` as thread `tid` — under the
    /// virtual-time scheduler when `sim` is given.
    pub(crate) fn new(
        m: &'m Machine,
        tid: u32,
        sim: Option<&'m RefCell<Sim>>,
        f: FnId,
        args: &[i64],
    ) -> Worker<'m> {
        Worker {
            m,
            tid,
            rng: splitmix(m.seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(tid as u64 + 1))),
            session: Session::new(Arc::clone(&m.mg)),
            txn: None,
            sec_depth: 0,
            frames: Vec::new(),
            slots: Vec::new(),
            argv: args.to_vec(),
            cont: Cont::Call(f),
            enter: Enter::Start,
            exit: Exit::Start,
            acquire: Acquire::Start,
            journal: Vec::new(),
            done: 0,
            retry: None,
            snapshot: Vec::new(),
            backoff: Backoff::new(),
            gate_backoff: Backoff::new(),
            repaired: false,
            held_before: 0,
            waited: false,
            planned: Vec::new(),
            resumes: 0,
            planned_in: 0,
            my_allocs: Vec::new(),
            current_section: SectionId(0),
            sim,
            quantum: m.quantum,
            vclock: 0,
            vticks: 0,
            injector: m.faults.map(|plan| Injector::new(plan, tid)),
            section_aborts: 0,
            escalate: false,
            tracer: m.tracer.as_ref().map(|r| r.register(tid)),
            stamp: 0,
            grants_logged: 0,
            revalidating: false,
            accesses: 0,
            section_violated: false,
        }
    }

    /// Charges virtual time; a scheduling point at quantum boundaries.
    /// A no-op in real-time mode.
    #[inline]
    fn tick(&mut self, n: u64) -> Result<(), Exc> {
        if self.sim.is_some() {
            self.vticks += n;
            if self.vticks >= self.quantum {
                return self.flush_ticks();
            }
        }
        Ok(())
    }

    /// Publishes all pending ticks to the scheduler immediately (used
    /// at synchronization points so lock ordering sees exact clocks) —
    /// a scheduling point: [`Exc::Yield`] when another thread runs
    /// next, the caller having already recorded where to continue.
    fn flush_ticks(&mut self) -> Result<(), Exc> {
        let Some(sim) = self.sim else { return Ok(()) };
        let tid = self.tid as usize;
        let mut sim = sim.borrow_mut();
        let next = sim.advance(tid, std::mem::take(&mut self.vticks));
        self.vclock = sim.clock(tid);
        if next == tid {
            Ok(())
        } else {
            Err(Exc::Yield)
        }
    }

    /// Lets `spins` units of time pass: virtual ticks under the
    /// scheduler — plus `cost`, the modelled price of what led to the
    /// wait, charged in the same step so the scheduling point does not
    /// move — and a busy-wait of `spins` in real time.
    fn idle(&mut self, cost: u64, spins: u64) -> Result<(), Exc> {
        if self.sim.is_some() {
            return self.tick(cost + spins);
        }
        for _ in 0..spins {
            std::hint::spin_loop();
        }
        Ok(())
    }

    /// Announces a lock release to the virtual scheduler, tracing the
    /// wake policy's `["wk", …]` decisions (none on the legacy path).
    /// A traced releaser then re-enters the schedule before executing
    /// anything further: a promoted waiter with a smaller
    /// `(clock, rank, tid)` records its grants ahead of the releaser's
    /// next events — the epoch order of every recorded trace. An
    /// untraced one runs on until its next scheduling point.
    /// No-op in real time.
    fn sim_release(&mut self) -> Result<(), Exc> {
        let Some(sim) = self.sim else { return Ok(()) };
        self.stamp_clock();
        let stamp = self.stamp;
        sim.borrow_mut().on_release_with(self.tid as usize, |g| {
            if let Some(t) = &mut self.tracer {
                t.record(
                    stamp,
                    trace::EventKind::WakeDecision {
                        node: g.node,
                        mode: g.mode,
                        depth: g.depth,
                        woken: g.woken,
                    },
                );
            }
        });
        if self.tracer.is_some() {
            self.flush_ticks()?;
        }
        Ok(())
    }

    /// When `r` is a yield, the next `resume` continues at `cont`.
    fn resuming_at<T>(&mut self, cont: Cont, r: Result<T, Exc>) -> Result<T, Exc> {
        if let Err(Exc::Yield) = r {
            self.cont = cont;
        }
        r
    }

    // ------------------------------------------------------------------
    // The instruction loop

    /// Runs until the entry call returns, fails, or a scheduling point
    /// makes another virtual thread the runner (never, in real time).
    ///
    /// Under virtual time nobody else runs until this returns, so a
    /// traced worker holds the event log for the whole slice and
    /// records through that one lock; a real-time worker takes it per
    /// event. (A panic leaves the log held until the worker is dropped,
    /// which its driver does next.)
    pub(crate) fn resume(&mut self) -> Result<Step, Exc> {
        self.resumes += 1;
        if let (Some(t), Some(_)) = (&mut self.tracer, self.sim) {
            t.hold();
        }
        // The slots leave `self` while instructions run, so the running
        // frame stays borrowed across `&mut self` calls.
        let mut slots = std::mem::take(&mut self.slots);
        let step = self.run(&mut slots);
        self.slots = slots;
        if let Some(t) = &mut self.tracer {
            t.release();
        }
        match step {
            Err(Exc::Yield) => Ok(Step::Yield),
            step => step,
        }
    }

    fn run(&mut self, slots: &mut Vec<i64>) -> Result<Step, Exc> {
        loop {
            match self.cont {
                Cont::Call(g) => self.push_frame(g, slots)?,
                Cont::Finished(v) => return Ok(Step::Done(v)),
                _ => {}
            }
            let Frame { f, pc, base } = *self.frames.last().expect("a live worker has a frame");
            let (pc, left) = self.run_frame(f, pc, &mut slots[base..]);
            self.frames.last_mut().expect("still there").pc = pc;
            match left {
                Ok(Flow::Call(g)) => self.cont = Cont::Call(g),
                Ok(Flow::Return(v)) => {
                    self.frames.pop();
                    slots.truncate(base);
                    if self.frames.is_empty() {
                        // Thread exit publishes the final clock.
                        self.cont = Cont::Finished(v);
                        self.flush_ticks()?;
                    } else {
                        self.cont = Cont::Dest(v);
                    }
                }
                Ok(Flow::Next | Flow::Jump(_)) => unreachable!("run_frame follows these itself"),
                Err(Exc::Abort) => {
                    self.roll_back(slots)?;
                    let spins = self.backoff.spins() as u64;
                    self.idle(self.m.costs.stm_abort, spins)?;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Executes the top frame from `pc` until control leaves it — a
    /// call, a return, a yield, an error — and reports where it stood.
    /// `pc` and the frame live in locals here; the hot path pays for
    /// resumability only in `tick`'s quantum test.
    fn run_frame(
        &mut self,
        f: FnId,
        mut pc: usize,
        frame: &mut [i64],
    ) -> (usize, Result<Flow, Exc>) {
        let m = self.m;
        let body = &m.program.func(f).body;
        let mut flow = self.reenter(At { f, pc }, &body[pc], frame);
        loop {
            match flow {
                Ok(Flow::Next) => pc += 1,
                Ok(Flow::Jump(t)) => pc = t,
                Err(Exc::Yield) => {
                    if let Cont::Fetch = self.cont {
                        self.cont = Cont::Body;
                    }
                    return (pc, flow);
                }
                _ => return (pc, flow),
            }
            if let Err(e) = self.head() {
                return (pc, Err(e));
            }
            flow = self.step(At { f, pc }, &body[pc], frame);
        }
    }

    /// What precedes every instruction: its tick — the loop's one
    /// scheduling point — and the panic-injection point.
    #[inline]
    fn head(&mut self) -> Result<(), Exc> {
        let ticked = self.tick(1);
        self.resuming_at(Cont::Ticked, ticked)?;
        self.maybe_inject_panic();
        Ok(())
    }

    /// Executes the instruction at `at` from wherever the last `resume`
    /// left it.
    #[inline(never)]
    fn reenter(&mut self, at: At, ins: &'m Instr, frame: &mut [i64]) -> Result<Flow, Exc> {
        let flow = self.finish_instr(at, ins, frame);
        if !matches!(flow, Err(Exc::Yield)) {
            // Whatever was half done is done: nothing left to replay.
            self.done = 0;
        }
        flow
    }

    fn finish_instr(&mut self, at: At, ins: &'m Instr, frame: &mut [i64]) -> Result<Flow, Exc> {
        match std::mem::replace(&mut self.cont, Cont::Fetch) {
            Cont::Dest(val) => {
                return match ins {
                    Instr::Assign(x, _) => self.finish_assign(frame, *x, val, at),
                    _ => Err(InterpError::Internal {
                        detail: "a value came back to an instruction that assigns nothing".into(),
                    }
                    .into()),
                }
            }
            Cont::Params(first) => {
                self.store_params(at.f, first, frame)?;
                self.head()?;
            }
            Cont::Ticked => self.maybe_inject_panic(),
            Cont::Body => {}
            Cont::Fetch | Cont::Call(_) | Cont::Finished(_) => self.head()?,
        }
        self.step(at, ins, frame)
    }

    /// Pushes `g`'s frame — slots zeroed, address-taken locals given
    /// their cells — for the arguments waiting in `argv`.
    fn push_frame(&mut self, g: FnId, slots: &mut Vec<i64>) -> Result<(), Exc> {
        let m = self.m;
        if self.frames.len() >= MAX_CALL_DEPTH {
            return Err(self.fault(At { f: g, pc: 0 }, "call stack overflow"));
        }
        let layout = &m.layouts[g.0 as usize];
        let base = slots.len();
        slots.resize(base + layout.n_slots as usize, 0);
        self.frames.push(Frame { f: g, pc: 0, base });
        for &(slot, class) in &layout.heapified {
            slots[base + slot as usize] = self.alloc_cells(1, class)? as i64;
        }
        self.done = 0;
        self.cont = Cont::Params(0);
        Ok(())
    }

    /// Stores `argv[first..]` into the fresh top frame's parameters.
    fn store_params(&mut self, f: FnId, first: usize, frame: &mut [i64]) -> Result<(), Exc> {
        let params = &self.m.program.func(f).params;
        for (i, &param) in params.iter().enumerate().skip(first) {
            let Some(&val) = self.argv.get(i) else { break };
            let stored = self.write_var(frame, param, val, 0, At { f, pc: 0 });
            self.resuming_at(Cont::Params(i), stored)?;
            self.done = 0;
        }
        Ok(())
    }

    /// Stores the value of an `Assign` whose right-hand side has taken
    /// effect, so that a yield in the store does not repeat the effect.
    fn finish_assign(
        &mut self,
        frame: &mut [i64],
        x: VarId,
        val: i64,
        at: At,
    ) -> Result<Flow, Exc> {
        let stored = self.write_var(frame, x, val, 0, at);
        self.resuming_at(Cont::Dest(val), stored)?;
        Ok(Flow::Next)
    }

    /// An STM conflict unwound to here: pops back to the frame that
    /// owns the transaction, restores its slots and points it at the
    /// section entry again.
    fn roll_back(&mut self, slots: &mut Vec<i64>) -> Result<(), Exc> {
        let m = self.m;
        let Some((depth, pc)) = self.retry else {
            return Err(Exc::Abort);
        };
        self.frames.truncate(depth);
        let owner = self.frames.last_mut().expect("the owning frame is live");
        owner.pc = pc;
        slots.truncate(owner.base);
        slots.extend_from_slice(&self.snapshot);
        self.cont = Cont::Fetch;
        self.done = 0;
        self.txn = None;
        self.sec_depth = 0;
        self.stamp_clock();
        m.space.note_abort();
        self.record(trace::EventKind::StmAbort);
        self.section_aborts += 1;
        if self.section_aborts >= m.stm_abort_budget {
            // Starving: the next attempt runs irrevocably (see
            // `section_enter`).
            self.escalate = true;
        }
        Ok(())
    }

    /// One instruction's body. Shared-cell accesses carry their ordinal
    /// within the instruction (see [`Worker::txn_tick`]); the store
    /// into the destination comes last, so re-execution after a yield
    /// recomputes frame-slot operands unchanged.
    #[inline(always)]
    fn step(&mut self, at: At, ins: &'m Instr, frame: &mut [i64]) -> Result<Flow, Exc> {
        let m = self.m;
        match ins {
            Instr::Assign(x, rv) => {
                let val = match rv {
                    Rvalue::Copy(y) => self.read_var(frame, *y, 0, at)?,
                    Rvalue::AddrOf(y) => match m.storage[y.0 as usize] {
                        Storage::Indirect(s) => frame[s as usize],
                        Storage::Global(a) => a as i64,
                        Storage::Direct(_) => {
                            return Err(self.fault(at, "address of unheapified local"))
                        }
                    },
                    Rvalue::Load(y) => {
                        let a = self.read_var(frame, *y, 0, at)?;
                        self.heap_read(a, 1, at)?
                    }
                    Rvalue::FieldAddr(y, fd) => {
                        let a = self.read_var(frame, *y, 0, at)?;
                        if a <= 0 {
                            return Err(self.fault(at, "field of null"));
                        }
                        a + m.field_offset[fd.0 as usize] as i64
                    }
                    Rvalue::DynAddr(y, z) => {
                        let a = self.read_var(frame, *y, 0, at)?;
                        let i = self.read_var(frame, *z, 1, at)?;
                        if a <= 0 {
                            return Err(self.fault(at, "index of null"));
                        }
                        if i < 0 {
                            return Err(self.fault(at, "negative index"));
                        }
                        a + i
                    }
                    Rvalue::Null => 0,
                    Rvalue::ConstInt(c) => *c,
                    Rvalue::Arith(op, a, b) => {
                        let a = self.read_var(frame, *a, 0, at)?;
                        let b = self.read_var(frame, *b, 1, at)?;
                        self.arith(*op, a, b, at)?
                    }
                    Rvalue::Cmp(op, a, b) => {
                        let a = self.read_var(frame, *a, 0, at)?;
                        let b = self.read_var(frame, *b, 1, at)?;
                        i64::from(match op {
                            CmpOp::Eq => a == b,
                            CmpOp::Ne => a != b,
                            CmpOp::Lt => a < b,
                            CmpOp::Le => a <= b,
                            CmpOp::Gt => a > b,
                            CmpOp::Ge => a >= b,
                        })
                    }
                    // The rest take effect once: what follows the
                    // effect is `finish_assign`'s, not a re-execution's.
                    Rvalue::Alloc(n) => {
                        let class = self.class_of_site(at)?;
                        let a = self.alloc_cells(*n, class)? as i64;
                        return self.finish_assign(frame, *x, a, at);
                    }
                    Rvalue::AllocDyn(z) => {
                        let n = self.read_var(frame, *z, 0, at)?;
                        if n < 0 {
                            return Err(self.fault(at, "negative allocation size"));
                        }
                        let class = self.class_of_site(at)?;
                        let a = self.alloc_cells(n as usize, class)? as i64;
                        // The operand read is behind the effect: the
                        // store starts its own count of accesses.
                        self.done = 0;
                        return self.finish_assign(frame, *x, a, at);
                    }
                    Rvalue::Call(g, args) => {
                        self.argv.clear();
                        for (k, a) in args.iter().enumerate() {
                            let v = self.read_var(frame, *a, k, at)?;
                            self.argv.push(v);
                        }
                        return Ok(Flow::Call(*g));
                    }
                    Rvalue::Intrinsic(i, args) => {
                        let arg = match args.first() {
                            Some(a) => self.read_var(frame, *a, 0, at)?,
                            None => 0,
                        };
                        // As above — and `nops` may yield before the store.
                        self.done = 0;
                        let val = self.intrinsic(*i, arg, at)?;
                        return self.finish_assign(frame, *x, val, at);
                    }
                };
                self.write_var(frame, *x, val, 2, at)?;
                Ok(Flow::Next)
            }
            Instr::Store(x, y) => {
                let v = self.read_var(frame, *y, 0, at)?;
                let a = self.read_var(frame, *x, 1, at)?;
                self.heap_write(a, v, 2, at)?;
                Ok(Flow::Next)
            }
            Instr::Jump(t) => Ok(Flow::Jump(*t as usize)),
            Instr::Branch(v, t, e) => {
                let c = self.read_var(frame, *v, 0, at)?;
                Ok(Flow::Jump(if c != 0 { *t as usize } else { *e as usize }))
            }
            Instr::Ret => {
                let ret = m.program.func(at.f).ret;
                Ok(Flow::Return(self.read_var(frame, ret, 0, at)?))
            }
            Instr::Nop => Ok(Flow::Next),
            Instr::EnterAtomic(_) | Instr::AcquireAll(..) => {
                if self.section_enter(ins, frame, at)? {
                    // This frame now owns a fresh transaction.
                    self.retry = Some((self.frames.len(), at.pc));
                    self.snapshot.clear();
                    self.snapshot.extend_from_slice(frame);
                }
                Ok(Flow::Next)
            }
            Instr::ExitAtomic(_) | Instr::ReleaseAll(_) => {
                if self.section_exit(ins)? {
                    // The section is over: its abort budget and
                    // contention backoff start fresh.
                    self.retry = None;
                    self.section_aborts = 0;
                    self.escalate = false;
                    self.backoff.reset();
                }
                Ok(Flow::Next)
            }
        }
    }

    fn arith(&mut self, op: ArithOp, a: i64, b: i64, at: At) -> Result<i64, Exc> {
        Ok(match op {
            ArithOp::Add => a.wrapping_add(b),
            ArithOp::Sub => a.wrapping_sub(b),
            ArithOp::Mul => a.wrapping_mul(b),
            ArithOp::Div | ArithOp::Rem if b == 0 => {
                return Err(InterpError::DivByZero {
                    func: self.m.program.fn_name(at.f).to_owned(),
                    pc: at.pc,
                }
                .into());
            }
            ArithOp::Div => a.wrapping_div(b),
            ArithOp::Rem => a.wrapping_rem(b),
            ArithOp::And => a & b,
            ArithOp::Or => a | b,
            ArithOp::Xor => a ^ b,
            ArithOp::Shl => a.wrapping_shl(b as u32),
            ArithOp::Shr => a.wrapping_shr(b as u32),
        })
    }

    /// An intrinsic's effect and value. `nops` is a scheduling point:
    /// the time is spent, only the store of its 0 is left.
    fn intrinsic(&mut self, i: Intrinsic, arg: i64, at: At) -> Result<i64, Exc> {
        match i {
            Intrinsic::Nops => {
                let idled = self.idle(0, arg.max(0) as u64);
                self.resuming_at(Cont::Dest(0), idled)?;
                Ok(0)
            }
            Intrinsic::Rand => {
                self.rng = splitmix(self.rng);
                Ok(if arg > 0 {
                    ((self.rng >> 11) % arg as u64) as i64
                } else {
                    0
                })
            }
            Intrinsic::Tid => Ok(self.tid as i64),
            Intrinsic::Print => {
                self.m.out.lock().push(arg.to_string());
                Ok(0)
            }
            Intrinsic::Assert => {
                if arg == 0 {
                    return Err(InterpError::AssertFailed {
                        func: self.m.program.fn_name(at.f).to_owned(),
                        pc: at.pc,
                    }
                    .into());
                }
                Ok(0)
            }
        }
    }

    // ------------------------------------------------------------------
    // Variables and memory

    /// Reads variable `v` — access `k` of its instruction when it lives
    /// in a shared cell.
    #[inline]
    fn read_var(&mut self, frame: &[i64], v: VarId, k: usize, at: At) -> Result<i64, Exc> {
        let a = match self.m.storage[v.0 as usize] {
            Storage::Direct(s) => return Ok(frame[s as usize]),
            Storage::Indirect(s) => frame[s as usize] as u64,
            Storage::Global(a) => a,
        };
        self.cell_read(a, k, at)
    }

    #[inline]
    fn write_var(
        &mut self,
        frame: &mut [i64],
        v: VarId,
        val: i64,
        k: usize,
        at: At,
    ) -> Result<(), Exc> {
        let a = match self.m.storage[v.0 as usize] {
            Storage::Direct(s) => {
                frame[s as usize] = val;
                return Ok(());
            }
            Storage::Indirect(s) => frame[s as usize] as u64,
            Storage::Global(a) => a,
        };
        self.cell_write(a, val, k, at)
    }

    fn check_addr(&self, addr: i64, at: At) -> Result<u64, Exc> {
        if addr <= 0 || addr as usize >= self.m.space.len() {
            return Err(self.fault(at, format!("bad address {addr}")));
        }
        Ok(addr as u64)
    }

    fn heap_read(&mut self, addr: i64, k: usize, at: At) -> Result<i64, Exc> {
        let a = self.check_addr(addr, at)?;
        self.cell_read(a, k, at)
    }

    fn heap_write(&mut self, addr: i64, val: i64, k: usize, at: At) -> Result<(), Exc> {
        let a = self.check_addr(addr, at)?;
        self.cell_write(a, val, k, at)
    }

    /// Access `k` of the executing instruction at `at`: a traced,
    /// sentinel-checked read of a shared cell. When the instruction is
    /// being re-executed after a yield, an access it already made is
    /// answered from the journal; the last of them yielded at its tick,
    /// so what follows that tick — the sentinel check — is still to do.
    fn cell_read(&mut self, a: u64, k: usize, at: At) -> Result<i64, Exc> {
        let val = if k < self.done {
            let logged = self.journal[k].ok_or(Exc::Abort)?;
            if k + 1 < self.done {
                return Ok(logged);
            }
            logged
        } else {
            self.trace_access(a, false);
            self.heap_read_raw(a, k)?
        };
        self.sentinel_check(a, false, at)?;
        Ok(val)
    }

    /// [`Worker::cell_read`]'s counterpart for a write.
    fn cell_write(&mut self, a: u64, val: i64, k: usize, at: At) -> Result<(), Exc> {
        if k + 1 < self.done {
            return Ok(());
        }
        if k >= self.done {
            self.trace_access(a, true);
            self.heap_write_raw(a, val, k)?;
        }
        self.sentinel_check(a, true, at)
    }

    /// Raw cell read: transactional inside an STM section, direct
    /// otherwise.
    fn heap_read_raw(&mut self, a: u64, k: usize) -> Result<i64, Exc> {
        self.maybe_inject_stm_abort()?;
        match self.txn.as_mut() {
            Some(txn) => {
                let v = txn.read(a as usize).ok();
                self.txn_tick(k, v, self.m.costs.stm_read)?;
                v.ok_or(Exc::Abort)
            }
            None => Ok(self.m.space.read_direct(a as usize)),
        }
    }

    fn heap_write_raw(&mut self, a: u64, val: i64, k: usize) -> Result<(), Exc> {
        self.maybe_inject_stm_abort()?;
        match self.txn.as_mut() {
            Some(txn) => {
                txn.write(a as usize, val);
                self.txn_tick(k, Some(val), self.m.costs.stm_write)
            }
            None => {
                self.m.space.write_direct(a as usize, val);
                Ok(())
            }
        }
    }

    /// Charges transactional access `k` of the executing instruction —
    /// a scheduling point in the middle of that instruction. The
    /// outcome goes into the journal first; should the tick yield, the
    /// re-execution finds accesses `0..=k` there instead of making
    /// them again.
    fn txn_tick(&mut self, k: usize, outcome: Option<i64>, cost: u64) -> Result<(), Exc> {
        if self.journal.len() <= k {
            self.journal.resize(k + 1, None);
        }
        self.journal[k] = outcome;
        let ticked = self.tick(cost);
        if let Err(Exc::Yield) = ticked {
            self.done = k + 1;
        }
        ticked
    }

    // ------------------------------------------------------------------
    // Tracing (all no-ops when the machine was built without a tracer)

    /// The thread's current virtual clock (0 in real-time runs).
    fn now(&self) -> u64 {
        self.vclock + self.vticks
    }

    /// Stamps the thread's next events with the current clock: called
    /// before a runtime call whose outcome is logged (a lock walk, an
    /// STM commit, abort or fallback).
    fn stamp_clock(&mut self) {
        self.stamp = self.now();
    }

    /// Records one event with the last stamped clock.
    fn record(&mut self, kind: trace::EventKind) {
        if let Some(t) = &mut self.tracer {
            t.record(self.stamp, kind);
        }
    }

    /// Records one event stamped with the current clock.
    fn trace_event(&mut self, kind: trace::EventKind) {
        if self.tracer.is_some() {
            self.stamp_clock();
            self.record(kind);
        }
    }

    /// Logs the grants a walk step added to the session's held list, in
    /// grant order.
    fn trace_grants(&mut self) {
        if let Some(t) = &mut self.tracer {
            for (node, mode) in self.session.held_modes().skip(self.grants_logged) {
                t.record(self.stamp, trace::EventKind::LockAcquire { node, mode });
            }
        }
        self.grants_logged = self.session.held_count();
    }

    /// Logs the release of every held node, children before ancestors —
    /// the order the session releases them in. Called just before the
    /// session lets them go: on real threads a waiter's grant is then
    /// logged after the release it waited for.
    fn trace_releases(&mut self) {
        if let Some(t) = &mut self.tracer {
            for (node, mode) in self.session.held_modes().rev() {
                t.record(self.stamp, trace::EventKind::LockRelease { node, mode });
            }
        }
    }

    /// *release-all*, logging the releases of the outermost level.
    fn release_all(&mut self) {
        if self.session.nesting_level() == 1 {
            self.trace_releases();
        }
        self.session.release_all();
    }

    /// Records an in-section shared access. Accesses outside any
    /// section (including lock-spec evaluation, which runs before
    /// `acquire_all` at nesting level 0, and post-acquisition descriptor
    /// revalidation) are not part of the lockset discipline and are
    /// skipped.
    fn trace_access(&mut self, addr: u64, write: bool) {
        if self.tracer.is_none() || self.revalidating {
            return;
        }
        if self.sec_depth == 0 && self.session.nesting_level() == 0 {
            return;
        }
        self.trace_event(if write {
            trace::EventKind::Write { addr }
        } else {
            trace::EventKind::Read { addr }
        });
    }

    // ------------------------------------------------------------------
    // Coverage: the online lockset sentinel

    /// Is this in-section access covered? The one coverage predicate,
    /// the sentinel's, whatever its policy: a cell this thread
    /// allocated inside the open section is exempt (Lemma 2); otherwise
    /// a live grant must license the access under Fig. 6
    /// (`trace::lockset::licensed`, which the offline validator asks of
    /// a recorded trace; the cell's allocation extent is looked up only
    /// if a `Pts` or `Range` grant needs it).
    fn licensed(&self, addr: u64, write: bool) -> bool {
        // `my_allocs` bases are monotone (allocation order), so the
        // Lemma 2 exemption is a binary search — sections that allocate
        // heavily would otherwise pay a linear scan per access.
        let i = self.my_allocs.partition_point(|&(b, _)| b <= addr);
        if i > 0 {
            let (b, l) = self.my_allocs[i - 1];
            if addr < b + l {
                return true;
            }
        }
        trace::lockset::licensed(self.session.held_modes(), addr, write, || {
            self.m.extent_class(addr)
        })
    }

    /// The one coverage check: [`Worker::licensed`] of the in-section
    /// access at `at`, on the sampling schedule. Runs *after* the access
    /// completed and was traced. Exempt, like the post-hoc validator:
    /// protocol reads (descriptor revalidation) and accesses outside
    /// any section.
    ///
    /// A miss under `Response::Fail` ends the thread with
    /// [`InterpError::Unprotected`]. Under `Quarantine` it is counted,
    /// never fatal: the section completes, and a first offense demotes
    /// it on the quarantine ladder (traced as a `["qr", …]` event so
    /// replay sees the transition). The access itself is already in
    /// the trace, with the grants held at it: that is the record of
    /// the miss.
    fn sentinel_check(&mut self, addr: u64, write: bool, at: At) -> Result<(), Exc> {
        let Some(sent) = &self.m.sentinel else {
            return Ok(());
        };
        if self.revalidating || (self.sec_depth == 0 && self.session.nesting_level() == 0) {
            return Ok(());
        }
        let n = self.accesses;
        self.accesses += 1;
        let cfg = sent.config();
        if !cfg.should_check(n) || self.licensed(addr, write) {
            return Ok(());
        }
        if cfg.response == Response::Fail {
            return Err(InterpError::Unprotected {
                func: self.m.program.fn_name(at.f).to_owned(),
                pc: at.pc,
                addr,
                write,
                section: self.current_section,
            }
            .into());
        }
        self.section_violated = true;
        if let Some(ev) = sent.report_violation(self.current_section.0) {
            self.trace_quarantine(ev);
            // A demotion of a section running its repaired scheme
            // revokes the repair: it did not hold up, so the section
            // falls back to the ordinary quarantine ladder.
            if sent.revoke_repair(ev.section) {
                self.trace_repair(ev.section, false);
            }
        }
        Ok(())
    }

    /// Reports one finished outermost section execution to the
    /// quarantine ladder; a completed probation re-admits the section,
    /// traced as a heal `["qr", …]` event.
    fn note_section_closed(&mut self, section: u32) {
        let Some(sent) = &self.m.sentinel else { return };
        let clean = !self.section_violated;
        self.section_violated = false;
        if let Some(ev) = sent.section_closed(section, clean) {
            self.trace_quarantine(ev);
            // A heal with a staged repair re-admits the section onto
            // the repaired scheme rather than the seed scheme.
            if ev.healed && self.m.repairs.contains_key(&section) && sent.activate_repair(section) {
                self.trace_repair(section, true);
            }
        }
    }

    fn trace_quarantine(&mut self, ev: LadderEvent) {
        self.trace_event(trace::EventKind::Quarantine {
            section: ev.section,
            healed: ev.healed,
            probation: ev.probation,
        });
    }

    /// Traces `section`'s staged repair as switched on (`accepted`) or
    /// revoked, with the candidate index [`Machine::repairs`] holds.
    fn trace_repair(&mut self, section: u32, accepted: bool) {
        let candidate = self.m.repairs[&section].0;
        self.trace_event(trace::EventKind::Reinfer {
            section,
            candidate,
            accepted,
        });
    }

    // ------------------------------------------------------------------
    // Fault injection points (all no-ops without a plan)

    /// Accounts for one injected fault everywhere it is counted: the
    /// machine's [`FaultStats`](crate::fault::FaultStats) and the trace.
    fn note_fault(&mut self, class: FaultClass) {
        let stats = &self.m.fault_stats;
        let fired = match class {
            FaultClass::Panic => &stats.injected_panics,
            FaultClass::SpuriousAbort => &stats.injected_aborts,
            FaultClass::Stall => &stats.injected_stalls,
            FaultClass::WakeupDelay => &stats.injected_delays,
        };
        fired.fetch_add(1, Ordering::Relaxed);
        self.trace_event(trace::EventKind::Fault { class });
    }

    /// Injected mid-section panic: fires only inside an atomic section
    /// (any discipline), via `resume_unwind` so drop glue runs — the
    /// session and transaction release on the way out — without
    /// tripping the global panic hook.
    #[inline]
    fn maybe_inject_panic(&mut self) {
        let Some(inj) = self.injector.as_mut() else {
            return;
        };
        let in_section = self.sec_depth > 0 || self.session.nesting_level() > 0;
        if in_section && inj.take_panic() {
            self.note_fault(FaultClass::Panic);
            std::panic::resume_unwind(Box::new(FaultPanic { tid: self.tid }));
        }
    }

    /// Injected spurious abort on a transactional access. Suppressed
    /// while irrevocable: an irrevocable transaction must never abort.
    fn maybe_inject_stm_abort(&mut self) -> Result<(), Exc> {
        let abortable = self.txn.as_ref().is_some_and(|t| !t.is_irrevocable());
        if !abortable {
            return Ok(());
        }
        let fire = match self.injector.as_mut() {
            Some(inj) => inj.take_stm_abort(),
            None => false,
        };
        if fire {
            self.note_fault(FaultClass::SpuriousAbort);
            return Err(Exc::Abort);
        }
        Ok(())
    }

    /// Injected delayed wakeup after a lock wait. Every wake path must
    /// route through this one helper (rather than consulting the
    /// injector inline) so new wait paths cannot diverge from the
    /// fault plan's delay stream or its accounting.
    fn injected_wakeup_delay(&mut self) -> Result<(), Exc> {
        let delay = match self.injector.as_mut() {
            Some(inj) => inj.take_wakeup_delay(),
            None => None,
        };
        if let Some(t) = delay {
            self.note_fault(FaultClass::WakeupDelay);
            self.idle(0, t)?;
        }
        Ok(())
    }

    fn alloc_cells(&mut self, n: usize, class: PtsClass) -> Result<u64, Exc> {
        let base = self.m.alloc(n, class)?;
        let in_section = self.sec_depth > 0 || self.session.nesting_level() > 0;
        if in_section {
            self.trace_event(trace::EventKind::Alloc {
                base,
                len: n.max(1) as u64,
            });
        }
        if in_section && self.m.sentinel.is_some() {
            // Cells allocated by this thread during the section are
            // private until it publishes them: exempt from coverage
            // (Lemma 2's reachability proviso) in `licensed`.
            self.my_allocs.push((base, n.max(1) as u64));
        }
        Ok(base)
    }

    fn class_of_site(&self, at: At) -> Result<PtsClass, Exc> {
        self.m
            .site_class
            .get(&(at.f, at.pc as u32))
            .copied()
            .ok_or_else(|| {
                InterpError::Internal {
                    detail: format!(
                        "allocation site {}:{} was not pre-registered",
                        self.m.program.fn_name(at.f),
                        at.pc
                    ),
                }
                .into()
            })
    }

    fn fault(&self, at: At, detail: impl Into<String>) -> Exc {
        InterpError::Fault {
            func: self.m.program.fn_name(at.f).to_owned(),
            pc: at.pc,
            detail: detail.into(),
        }
        .into()
    }

    // ------------------------------------------------------------------
    // Atomic sections
    //
    // Entry and exit are protocols with a scheduling point between most
    // of their steps. Each is a loop over its stage record; a stage
    // names its successor *before* the call that may yield, so a
    // re-executed instruction continues exactly after that call.

    /// Enters a section; returns true when this frame now owns a fresh
    /// STM transaction (and must snapshot for retry).
    fn section_enter(&mut self, ins: &'m Instr, frame: &[i64], at: At) -> Result<bool, Exc> {
        let m = self.m;
        let sid = match ins {
            Instr::AcquireAll(s, _) | Instr::EnterAtomic(s) => *s,
            _ => unreachable!("only section entries get here"),
        };
        loop {
            match self.enter {
                Enter::Start => {
                    // Every nesting level (and every STM retry) records
                    // an entry; lock grants follow at the outermost
                    // level only.
                    self.trace_event(trace::EventKind::SectionEnter { section: sid.0 });
                    match m.mode {
                        ExecMode::Global => {
                            let outermost = self.session.nesting_level() == 0;
                            if outermost {
                                self.open_section(sid);
                            }
                            self.queue_global();
                            self.enter = Enter::Global { outermost };
                        }
                        ExecMode::MultiGrain => {
                            if let Instr::EnterAtomic(s) = ins {
                                return Err(
                                    InterpError::NeedsTransformedProgram { section: *s }.into()
                                );
                            }
                            self.enter = self.plan_kind(sid);
                        }
                        ExecMode::Stm => {
                            self.sec_depth += 1;
                            if self.sec_depth > 1 {
                                return Ok(false);
                            }
                            self.enter = Enter::TxnCharged;
                            self.tick(m.costs.txn_start)?;
                        }
                    }
                }
                Enter::Global { outermost } => {
                    self.acquire_session(1)?;
                    if outermost {
                        // The acquisition point: the plan is granted.
                        self.trace_event(trace::EventKind::PlanComplete);
                    }
                    return self.entered(false);
                }
                Enter::Nested => {
                    self.acquire_session(0)?;
                    return self.entered(false);
                }
                Enter::Plan => {
                    self.planned.clear();
                    self.planned_in = self.resumes;
                    for spec in self.specs_to_plan(ins, sid) {
                        if let Some(d) = self.eval_spec(spec, frame, at)? {
                            self.session.to_acquire(d);
                            self.planned.push(d);
                        }
                    }
                    self.enter = Enter::Planned;
                }
                Enter::Planned => {
                    self.acquire_session(self.planned.len() as u64)?;
                    // The plan is fully granted at this clock. The
                    // first marker after the section entry is its
                    // acquisition point (wait ends, hold begins);
                    // markers from later retries mark revalidation —
                    // `trace::profile` counts them apart instead of
                    // moving the split point.
                    self.trace_event(trace::EventKind::PlanComplete);
                    // Fine descriptors were evaluated *before* blocking.
                    // If the guarded structure moved while this thread
                    // waited (e.g. a concurrent section resized the
                    // array the path names), the locks now held cover a
                    // stale footprint. Re-evaluate under the grants and
                    // retry on drift; every retry implies some other
                    // section committed in between, so the loop makes
                    // system-wide progress. Under virtual time, a plan
                    // granted without a yield since it was evaluated
                    // saw nobody else run: the same evaluation would
                    // read the same cells, so it is skipped.
                    if self.sim.is_some() && self.planned_in == self.resumes {
                        return self.entered(false);
                    }
                    let specs = self.specs_to_plan(ins, sid);
                    if self.plan_still_current(specs, frame, at)? {
                        return self.entered(false);
                    }
                    m.fault_stats
                        .lock_revalidations
                        .fetch_add(1, Ordering::Relaxed);
                    self.release_all();
                    self.enter = Enter::Plan;
                    self.sim_release()?;
                }
                Enter::TxnCharged => {
                    // Make the transaction window visible at exact
                    // virtual time.
                    self.enter = Enter::TxnFlushed;
                    self.flush_ticks()?;
                }
                Enter::TxnFlushed => {
                    // A section that starved runs irrevocably, under
                    // the commit gate (see `roll_back`).
                    if !self.escalate {
                        self.txn = Some(m.space.begin());
                        return self.entered(true);
                    }
                    self.gate_backoff = Backoff::new();
                    self.enter = Enter::Gate;
                    self.tick(m.costs.stm_fallback)?;
                }
                Enter::Gate => {
                    // Waiting for the commit gate is cooperative under
                    // the scheduler: this thread charges its own clock
                    // until the gate holder (whose clock then becomes
                    // the minimum) runs and releases it.
                    self.stamp_clock();
                    if let Some(txn) = m.space.try_begin_irrevocable() {
                        self.record(trace::EventKind::StmFallback);
                        self.txn = Some(txn);
                        return self.entered(true);
                    }
                    let spins = self.gate_backoff.spins() as u64;
                    self.idle(0, spins)?;
                }
            }
        }
    }

    fn entered(&mut self, owns_txn: bool) -> Result<bool, Exc> {
        self.enter = Enter::Start;
        Ok(owns_txn)
    }

    /// Book-keeping at the entry of an outermost lock section.
    fn open_section(&mut self, sid: SectionId) {
        self.current_section = sid;
        self.section_violated = false;
    }

    /// Queues the one-lock plan — `⊤` in `X` — that every Global-mode
    /// section and every quarantined section runs under.
    fn queue_global(&mut self) {
        self.session.to_acquire(Descriptor::Global {
            access: Access::Write,
        });
    }

    /// How a multi-grain section entry acquires: covered by the outer
    /// level, demoted to the global lock, or by planning its specs.
    fn plan_kind(&mut self, sid: SectionId) -> Enter {
        let m = self.m;
        if self.session.nesting_level() > 0 {
            return Enter::Nested;
        }
        self.open_section(sid);
        if m.sentinel.as_ref().is_some_and(|s| s.is_quarantined(sid.0)) {
            // Quarantined: the section serves its probation under the
            // trivially sound global scheme — one Root/X grant, no fine
            // plan, and (since the grant covers every address) no
            // revalidation loop.
            self.queue_global();
            return Enter::Global { outermost: true };
        }
        // A healed section with an active repair plans the repaired
        // specs instead of the seed scheme — decided here, once: a
        // repair activated while this entry waits is the next entry's.
        self.repaired = m.repairs.contains_key(&sid.0)
            && m.sentinel.as_ref().is_some_and(|s| s.repair_active(sid.0));
        Enter::Plan
    }

    /// The specs this entry plans: the section's repair while it is
    /// active, else its `acquireAll`'s. Planning and quiet revalidation
    /// both ask here, so they agree (or revalidation would retry
    /// forever).
    fn specs_to_plan(&self, ins: &'m Instr, sid: SectionId) -> &'m [LockSpec] {
        let m = self.m;
        match (ins, m.repairs.get(&sid.0)) {
            (_, Some((_, repair))) if self.repaired => repair,
            (Instr::AcquireAll(_, specs), _) => specs,
            _ => &[],
        }
    }

    /// Acquires the queued locks: blocking in real time, cooperative
    /// try/wait under the virtual scheduler (waiters inherit the
    /// releaser's clock). Charges the protocol's virtual cost.
    ///
    /// A real-time acquisition always ends in a grant: the protocol's
    /// global order admits no wait-for cycle. Under virtual time it
    /// errors when the scheduler wedges; partially-acquired nodes are
    /// then released by the session's drop (counted as an unwind
    /// release).
    fn acquire_session(&mut self, n_descriptors: u64) -> Result<(), Exc> {
        let m = self.m;
        loop {
            match self.acquire {
                Acquire::Start => {
                    self.acquire = Acquire::Stalled;
                    let stall = match self.injector.as_mut() {
                        Some(inj) => inj.take_stall(),
                        None => None,
                    };
                    if let Some(t) = stall {
                        self.note_fault(FaultClass::Stall);
                        self.idle(0, t)?;
                    }
                }
                Acquire::Stalled => {
                    self.held_before = self.session.held_count();
                    self.grants_logged = self.held_before;
                    self.waited = false;
                    if self.sim.is_some() {
                        self.acquire = Acquire::Charged;
                        self.tick(m.costs.lock_desc * n_descriptors)?;
                    } else {
                        self.stamp_clock();
                        self.session.acquire_all();
                        self.trace_grants();
                        self.acquire = Acquire::Granted;
                    }
                }
                Acquire::Charged => {
                    self.acquire = Acquire::Step;
                    self.flush_ticks()?;
                }
                Acquire::Step => {
                    let sim = self.sim.expect("stepping is the scheduler's way");
                    self.stamp_clock();
                    let step = self.session.acquire_all_step();
                    self.trace_grants();
                    match step {
                        mglock::StepResult::Done => {
                            if self.waited {
                                sim.borrow_mut().end_wait(self.tid as usize);
                            }
                            let acquired = (self.session.held_count() - self.held_before) as u64;
                            self.acquire = Acquire::Granted;
                            self.tick(m.costs.lock_node * acquired)?;
                        }
                        mglock::StepResult::WouldBlock => {
                            self.waited = true;
                            // Snapshot what we are blocked on for the
                            // wake policy (ignored on the legacy path).
                            // Age is filled in by the scheduler at each
                            // release from the streak's first wait.
                            let waiter = self.session.blocked_on().map(|(node, mode)| Waiter {
                                tid: self.tid,
                                section: self.current_section.0,
                                node,
                                mode,
                                age: 0,
                            });
                            self.acquire = Acquire::Woken;
                            sim.borrow_mut().begin_wait(self.tid as usize, waiter);
                            return Err(Exc::Yield);
                        }
                    }
                }
                Acquire::Woken => {
                    let sim = self
                        .sim
                        .expect("only the scheduler makes a worker wait")
                        .borrow();
                    if sim.wedged() {
                        return Err(InterpError::SchedulerStalled { tid: self.tid }.into());
                    }
                    // A release promoted this waiter to its own time.
                    self.vclock = sim.clock(self.tid as usize);
                    drop(sim);
                    self.acquire = Acquire::Step;
                    self.injected_wakeup_delay()?;
                }
                Acquire::Granted => {
                    self.acquire = Acquire::Start;
                    return Ok(());
                }
            }
        }
    }

    /// Leaves a section; returns true when the outermost level closed
    /// (for STM: the transaction committed).
    fn section_exit(&mut self, ins: &Instr) -> Result<bool, Exc> {
        let m = self.m;
        let sid = match ins {
            Instr::ExitAtomic(s) | Instr::ReleaseAll(s) => *s,
            _ => unreachable!("only section exits get here"),
        };
        loop {
            match (self.exit, m.mode) {
                (Exit::Start, ExecMode::Stm) => {
                    self.sec_depth -= 1;
                    if self.sec_depth > 0 {
                        // Inner exits always survive; the outermost one
                        // is recorded only after a successful commit
                        // (an aborted attempt ends in `StmAbort`).
                        self.trace_event(trace::EventKind::SectionExit { section: sid.0 });
                        return Ok(false);
                    }
                    let (reads, writes) = self.txn_sizes()?;
                    // Read-only transactions skip commit-time
                    // validation entirely (the TL2 fast path).
                    let vreads = if writes > 0 { reads } else { 0 };
                    self.exit = Exit::CommitCharged;
                    self.tick(
                        m.costs.stm_commit_base
                            + m.costs.stm_commit_per_write * writes
                            + m.costs.stm_commit_per_read * vreads,
                    )?;
                }
                (Exit::Start, _) => {
                    self.exit = Exit::Charged;
                    self.tick(m.costs.lock_release)?;
                }
                (Exit::Charged, _) => {
                    self.exit = Exit::Closing;
                    if self.session.nesting_level() == 1 {
                        // Publish the exact release time before waking
                        // waiters.
                        self.flush_ticks()?;
                    }
                }
                (Exit::Closing, _) => {
                    // Exit before the releases: the validator checks
                    // every access while the grants are still held, and
                    // release events trail the section like the
                    // runtime's own order.
                    self.trace_event(trace::EventKind::SectionExit { section: sid.0 });
                    self.release_all();
                    if self.session.nesting_level() > 0 {
                        return self.left(false);
                    }
                    self.exit = Exit::Released;
                    self.sim_release()?;
                }
                (Exit::Released, _) => {
                    self.my_allocs.clear();
                    self.note_section_closed(sid.0);
                    return self.left(true);
                }
                (Exit::CommitCharged, _) => {
                    self.exit = Exit::Commit;
                    self.flush_ticks()?;
                }
                (Exit::Commit, _) => {
                    self.exit = Exit::Start;
                    self.stamp_clock();
                    let (reads, writes) = self.txn_sizes()?;
                    let txn = self.txn.take().expect("sized just above");
                    return match txn.commit() {
                        Ok(()) => {
                            m.space.note_commit();
                            self.record(trace::EventKind::StmCommit { reads, writes });
                            self.trace_event(trace::EventKind::SectionExit { section: sid.0 });
                            Ok(true)
                        }
                        Err(_) => Err(Exc::Abort),
                    };
                }
            }
        }
    }

    fn left(&mut self, closed: bool) -> Result<bool, Exc> {
        self.exit = Exit::Start;
        Ok(closed)
    }

    /// `(reads, writes)` of the open transaction.
    fn txn_sizes(&self) -> Result<(u64, u64), Exc> {
        match &self.txn {
            Some(txn) => Ok((txn.read_set_len() as u64, txn.write_set_len() as u64)),
            None => Err(InterpError::Internal {
                detail: "no open transaction at STM section exit".into(),
            }
            .into()),
        }
    }

    /// Evaluates a lock spec at section entry into a runtime descriptor.
    /// Returns `None` when a fine expression evaluates through null (no
    /// location to protect — the access it would have protected faults
    /// first).
    fn eval_spec(
        &mut self,
        spec: &LockSpec,
        frame: &[i64],
        at: At,
    ) -> Result<Option<Descriptor>, Exc> {
        let m = self.m;
        let access = |e: lir::Eff| match e {
            lir::Eff::Ro => Access::Read,
            lir::Eff::Rw => Access::Write,
        };
        match spec {
            LockSpec::Global => Ok(Some(Descriptor::Global {
                access: Access::Write,
            })),
            LockSpec::Coarse { pts, eff } => Ok(Some(Descriptor::Coarse {
                pts: *pts,
                access: access(*eff),
            })),
            LockSpec::Fine { path, pts, eff } => {
                let mut cur: i64;
                let mut ops = path.ops.as_slice();
                if ops.is_empty() {
                    // Lock on the variable's own cell (&x).
                    cur = match m.storage[path.base.0 as usize] {
                        Storage::Global(a) => a as i64,
                        Storage::Indirect(s) => frame[s as usize],
                        Storage::Direct(_) => return Ok(None),
                    };
                } else {
                    debug_assert_eq!(ops[0], PathOp::Deref, "lock paths start at the value");
                    cur = self.read_var(frame, path.base, 0, at)?;
                    ops = &ops[1..];
                }
                for (i, op) in ops.iter().enumerate() {
                    if cur <= 0 {
                        return Ok(None);
                    }
                    match op {
                        PathOp::Deref => {
                            let a = self.check_addr(cur, At { pc: 0, ..at })?;
                            cur = self.heap_read_raw(a, 0)?;
                        }
                        PathOp::Field(fd) if Some(*fd) == m.elem_field => {
                            debug_assert_eq!(i + 1, ops.len(), "[] only in final position");
                            return Ok(Some(Descriptor::Fine {
                                pts: *pts,
                                addr: FineAddr::Range(cur as u64),
                                access: access(*eff),
                            }));
                        }
                        PathOp::Field(fd) => {
                            cur += m.field_offset[fd.0 as usize] as i64;
                        }
                        PathOp::Index(v) => {
                            let i = self.read_var(frame, *v, 0, at)?;
                            if i < 0 {
                                return Ok(None);
                            }
                            cur += i;
                        }
                    }
                }
                if cur <= 0 {
                    return Ok(None);
                }
                Ok(Some(Descriptor::Fine {
                    pts: *pts,
                    addr: FineAddr::Cell(cur as u64),
                    access: access(*eff),
                }))
            }
        }
    }

    /// Post-acquisition drift detection: re-evaluates the section's
    /// lock specs with access checks and tracing muted (the reads
    /// belong to the acquisition protocol, not the section body) and
    /// reports whether they still name exactly the descriptors in
    /// [`Worker::planned`]. Side-effect free, charges no virtual time.
    /// Every spec is evaluated even past a mismatch, so an evaluation
    /// error surfaces whether or not the plan also drifted.
    fn plan_still_current(
        &mut self,
        specs: &[LockSpec],
        frame: &[i64],
        at: At,
    ) -> Result<bool, Exc> {
        self.revalidating = true;
        let mut current = true;
        let mut seen = 0;
        let mut err = None;
        for spec in specs {
            match self.eval_spec(spec, frame, at) {
                Ok(Some(d)) => {
                    current &= self.planned.get(seen) == Some(&d);
                    seen += 1;
                }
                Ok(None) => {}
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        self.revalidating = false;
        match err {
            Some(e) => Err(e),
            None => Ok(current && seen == self.planned.len()),
        }
    }
}

/// A worker dropped while its session holds nodes — one that failed
/// or panicked inside a section — logs their releases here, before the
/// session's own drop unwinds the grants.
impl Drop for Worker<'_> {
    fn drop(&mut self) {
        self.trace_releases();
    }
}

// ----------------------------------------------------------------------
// Thread harness

/// Maps a caught panic payload to a typed error: injected fault panics
/// are recognized by their payload type; anything else is a genuine
/// worker bug, contained and reported.
fn panic_error(tid: u32, payload: Box<dyn std::any::Any + Send>) -> InterpError {
    if let Some(fp) = payload.downcast_ref::<FaultPanic>() {
        InterpError::InjectedPanic { tid: fp.tid }
    } else if let Some(s) = payload.downcast_ref::<&'static str>() {
        InterpError::WorkerPanicked {
            tid,
            detail: (*s).to_owned(),
        }
    } else if let Some(s) = payload.downcast_ref::<String>() {
        InterpError::WorkerPanicked {
            tid,
            detail: s.clone(),
        }
    } else {
        InterpError::WorkerPanicked {
            tid,
            detail: "opaque panic payload".to_owned(),
        }
    }
}

/// Converts a worker exit to the public result; `Abort` and `Yield`
/// must have been consumed by the section and the `resume` that own
/// them.
fn exit_error(e: Exc) -> InterpError {
    match e {
        Exc::Err(e) => *e,
        Exc::Abort => InterpError::Internal {
            detail: "transaction abort escaped its owning section".into(),
        },
        Exc::Yield => InterpError::Internal {
            detail: "a yield escaped `resume`".into(),
        },
    }
}

/// One `resume` of thread `tid`'s worker, with a panic in it contained
/// and every failure typed.
fn resume_contained(tid: u32, w: &mut Worker<'_>) -> Result<Step, InterpError> {
    match catch_unwind(AssertUnwindSafe(|| w.resume())) {
        Ok(Ok(step)) => Ok(step),
        Ok(Err(e)) => Err(exit_error(e)),
        Err(payload) => Err(panic_error(tid, payload)),
    }
}

impl Machine {
    /// Runs `name(args)` on the calling thread (thread id 0).
    ///
    /// # Errors
    ///
    /// Returns any runtime error raised during execution.
    pub fn run_named(&self, name: &str, args: &[i64]) -> Result<i64, InterpError> {
        self.run_fn(self.entry(name)?, args, 0)
    }

    /// The function a run named `name` enters: the one lookup of
    /// [`Machine::run_named`], [`Machine::run_threads`] and
    /// [`Machine::run_threads_virtual`].
    fn entry(&self, name: &str) -> Result<FnId, InterpError> {
        self.program
            .function_named(name)
            .ok_or_else(|| InterpError::NoSuchFunction(name.to_owned()))
    }

    /// Checks `args` against `f`'s parameter list: the one arity check
    /// of every entry point, made before any thread starts.
    fn check_arity(&self, f: FnId, args: &[i64]) -> Result<(), InterpError> {
        let want = self.program.func(f).params.len();
        if want != args.len() {
            return Err(InterpError::ArityMismatch {
                func: self.program.fn_name(f).to_owned(),
                want,
                got: args.len(),
            });
        }
        Ok(())
    }

    /// The argument vector of each of `n` threads, once each has been
    /// checked against `f`'s parameter list.
    fn thread_args(
        &self,
        f: FnId,
        n: usize,
        args: impl Fn(u32) -> Vec<i64>,
    ) -> Result<Vec<Vec<i64>>, InterpError> {
        (0..n as u32)
            .map(|tid| {
                let argv = args(tid);
                self.check_arity(f, &argv).map(|()| argv)
            })
            .collect()
    }

    /// The id of a named function — convenience for harnesses that
    /// drive [`Machine::run_fn`] from their own thread scopes.
    ///
    /// # Panics
    ///
    /// Panics when no function has that name.
    pub fn program_fn(&self, name: &str) -> FnId {
        self.program
            .function_named(name)
            .unwrap_or_else(|| panic!("no function named `{name}`"))
    }

    /// Runs function `f` with `args` as thread `tid`.
    ///
    /// # Errors
    ///
    /// Returns any runtime error raised during execution.
    pub fn run_fn(&self, f: FnId, args: &[i64], tid: u32) -> Result<i64, InterpError> {
        self.check_arity(f, args)?;
        let mut w = Worker::new(self, tid, None, f, args);
        let step = resume_contained(tid, &mut w);
        // Drop the worker before reporting: a panicking or erroring
        // worker may still hold locks or an open transaction, and the
        // drop glue (session unwind-release, gate guard) frees them.
        drop(w);
        match step? {
            Step::Done(v) => Ok(v),
            Step::Yield => Err(InterpError::Internal {
                detail: "a real-time worker yielded".into(),
            }),
        }
    }

    /// Like [`Machine::run_threads`], but under the deterministic
    /// virtual-time scheduler: returns the per-thread results plus the
    /// virtual makespan in ticks (1 tick ≈ 1 ns of reported time).
    /// It stands in for the paper's 8-core machine on any host,
    /// whatever its core count — see `crate::sim`. The `n` virtual
    /// threads are workers this call resumes, one at a time, on the
    /// calling thread; it spawns none.
    ///
    /// # Errors
    ///
    /// Returns [`InterpError::NoSuchFunction`] or
    /// [`InterpError::ArityMismatch`] before any thread starts, and
    /// otherwise the earliest thread error — the first one the
    /// `(clock, rank, tid)` resume loop meets, not the lowest failing
    /// thread id: a run is one total order.
    pub fn run_threads_virtual(
        &self,
        name: &str,
        n: usize,
        args: impl Fn(u32) -> Vec<i64> + Sync,
    ) -> Result<(Vec<i64>, u64), InterpError> {
        let f = self.entry(name)?;
        let argvs = self.thread_args(f, n, args)?;
        let sim = RefCell::new(Sim::with_policy(n, self.sched.clone()));
        let mut workers: Vec<Option<Worker<'_>>> = (0..n as u32)
            .zip(&argvs)
            .map(|(tid, argv)| Some(Worker::new(self, tid, Some(&sim), f, argv)))
            .collect();
        let mut results: Vec<Option<i64>> = vec![None; n];
        let mut first_err = None;
        loop {
            let next = sim.borrow_mut().next_runner();
            let Some(tid) = next else { break };
            let w = workers[tid]
                .as_mut()
                .expect("a thread that exited is never the next runner");
            let result = match resume_contained(tid as u32, w) {
                Ok(Step::Yield) => continue,
                Ok(Step::Done(v)) => Ok(v),
                Err(e) => Err(e),
            };
            // The worker goes first: one that failed may still hold
            // locks or an open transaction, and its drop (session
            // unwind-release, gate guard) frees them. The waiters that
            // unblocks are promoted before the thread leaves the
            // schedule, so the rest can finish.
            workers[tid] = None;
            if result.is_err() {
                sim.borrow_mut().on_release(tid);
            }
            sim.borrow_mut().finish(tid);
            match result {
                Ok(v) => results[tid] = Some(v),
                Err(e) => _ = first_err.get_or_insert(e),
            }
        }
        let sim = sim.borrow();
        let (yield_points, handoffs) = sim.yield_counts();
        self.sim_yield_points
            .fetch_add(yield_points, Ordering::Relaxed);
        self.sim_handoffs.fetch_add(handoffs, Ordering::Relaxed);
        if let Some(e) = first_err {
            return Err(e);
        }
        let results = results
            .into_iter()
            .map(|r| r.expect("the schedule drains only when every thread has exited"))
            .collect();
        Ok((results, sim.makespan()))
    }

    /// Spawns `n` OS threads all running `name(args(tid))`, joining them
    /// and returning their results in thread order.
    ///
    /// # Errors
    ///
    /// Returns [`InterpError::NoSuchFunction`] or
    /// [`InterpError::ArityMismatch`] before any thread starts, and
    /// otherwise the error of the lowest failing thread id: OS threads
    /// share no clock to order their failures by.
    pub fn run_threads(
        &self,
        name: &str,
        n: usize,
        args: impl Fn(u32) -> Vec<i64> + Sync,
    ) -> Result<Vec<i64>, InterpError> {
        let f = self.entry(name)?;
        let argvs = self.thread_args(f, n, args)?;
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (tid, argv) in (0..n as u32).zip(argvs) {
                handles.push(scope.spawn(move || self.run_fn(f, &argv, tid)));
            }
            handles
                .into_iter()
                .enumerate()
                .map(|(tid, h)| h.join().unwrap_or_else(|p| Err(panic_error(tid as u32, p))))
                .collect()
        })
    }
}
