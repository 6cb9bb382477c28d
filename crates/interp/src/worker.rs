//! Per-thread execution: the instruction loop, the four section
//! disciplines, and the thread harness.

use crate::error::{Exc, InterpError};
use crate::fault::{splitmix, FaultPanic, Injector};
use crate::machine::{ExecMode, Machine, Storage};
use crate::sim::Sim;
use lir::{ArithOp, CmpOp, FnId, Instr, Intrinsic, LockSpec, PathOp, Rvalue, SectionId, VarId};
use lockscheme::ConcreteLock;
use mglock::{Access, Descriptor, FineAddr, Session};
use pointsto::PtsClass;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use tl2::Backoff;
use trace::FaultClass;

const MAX_CALL_DEPTH: u32 = 4000;

enum Flow {
    Next,
    Jump(usize),
    Return(i64),
}

pub(crate) struct Worker<'m> {
    m: &'m Machine,
    tid: u32,
    rng: u64,
    session: Session,
    txn: Option<tl2::Txn<'m>>,
    /// STM section nesting depth (lock modes use the session's level).
    sec_depth: u32,
    depth: u32,
    /// The descriptors the current outermost multi-grain plan queued,
    /// in spec order — what post-acquisition revalidation compares
    /// against. Reused from section to section.
    planned: Vec<Descriptor>,
    held_concrete: Vec<ConcreteLock>,
    my_allocs: Vec<(u64, u64)>,
    /// Section currently open (Validate diagnostics).
    current_section: SectionId,
    /// Location of the instruction being executed (diagnostics).
    cur_fn: FnId,
    cur_pc: usize,
    /// Virtual-time scheduler (None = real-time execution).
    sim: Option<&'m Sim>,
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
    /// This thread's event sink (None = machine not built with tracing).
    tracer: Option<Arc<trace::ThreadRecorder>>,
    /// Set while lock descriptors are re-evaluated *under* the freshly
    /// acquired grants (drift detection): those path reads are part of
    /// the acquisition protocol, not of the section body, so they are
    /// exempt from both Validate-mode coverage checks and the trace.
    revalidating: bool,
    /// In-section accesses seen so far, driving the sentinel's sampling
    /// schedule (a per-worker monotone counter, so the schedule is
    /// deterministic under the virtual-time scheduler).
    accesses: u64,
    /// A sentinel violation was recorded during the current outermost
    /// section execution; consumed at close — dirty executions do not
    /// count toward a quarantined section's probation.
    section_violated: bool,
    /// Outermost lock-section enter / plan-acquisition clocks feeding
    /// the live `ali_run_section_{wait,hold}_ticks` histograms
    /// (meaningful only while [`Machine::metrics`] is armed).
    sect_enter_clock: u64,
    sect_plan_clock: u64,
}

impl<'m> Worker<'m> {
    pub(crate) fn new(m: &'m Machine, tid: u32) -> Worker<'m> {
        let tracer = m.tracer.as_ref().map(|r| r.register(tid));
        let mut session = Session::new(Arc::clone(&m.mg));
        session.set_observer(tracer.clone().map(|t| t as Arc<dyn mglock::LockObserver>));
        Worker {
            m,
            tid,
            rng: splitmix(m.seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(tid as u64 + 1))),
            session,
            txn: None,
            sec_depth: 0,
            depth: 0,
            planned: Vec::new(),
            held_concrete: Vec::new(),
            my_allocs: Vec::new(),
            current_section: SectionId(0),
            cur_fn: FnId(0),
            cur_pc: 0,
            sim: None,
            vclock: 0,
            vticks: 0,
            injector: m.faults.map(|plan| Injector::new(plan, tid)),
            section_aborts: 0,
            escalate: false,
            tracer,
            revalidating: false,
            accesses: 0,
            section_violated: false,
            sect_enter_clock: 0,
            sect_plan_clock: 0,
        }
    }

    /// A worker under the virtual-time scheduler. Blocks until the
    /// thread holds the turn.
    pub(crate) fn with_sim(m: &'m Machine, tid: u32, sim: &'m Sim) -> Worker<'m> {
        let mut w = Worker::new(m, tid);
        w.vclock = sim.enter(tid as usize);
        w.sim = Some(sim);
        w
    }

    /// Charges virtual time; yields to the scheduler at quantum
    /// boundaries. A no-op in real-time mode.
    #[inline]
    fn tick(&mut self, n: u64) {
        if let Some(sim) = self.sim {
            self.vticks += n;
            if self.vticks >= sim.quantum {
                let t = std::mem::take(&mut self.vticks);
                self.vclock = sim.advance(self.tid as usize, t);
            }
        }
    }

    /// Publishes all pending ticks to the scheduler immediately (used
    /// at synchronization points so lock ordering sees exact clocks).
    fn flush_ticks(&mut self) {
        if let Some(sim) = self.sim {
            let t = std::mem::take(&mut self.vticks);
            self.vclock = sim.advance(self.tid as usize, t);
        }
    }

    /// Lets `spins` units of time pass: virtual ticks under the
    /// scheduler — plus `cost`, the modelled price of what led to the
    /// wait, charged in the same step so the scheduling point does not
    /// move — and a busy-wait of `spins` in real time.
    fn idle(&mut self, cost: u64, spins: u64) {
        if self.sim.is_some() {
            self.tick(cost + spins);
        } else {
            for _ in 0..spins {
                std::hint::spin_loop();
            }
        }
    }

    /// Announces a lock release to the virtual scheduler, tracing the
    /// wake policy's `["wk", …]` decisions (none on the legacy path).
    /// A traced releaser then re-enters the schedule before executing
    /// anything further: a promoted waiter with a smaller
    /// `(clock, rank, tid)` records its grants ahead of the releaser's
    /// next events — the epoch order of every recorded trace. An
    /// untraced one keeps the turn until its next scheduling point.
    /// No-op in real time.
    fn sim_release(&mut self) {
        let Some(sim) = self.sim else { return };
        // The decision callback runs inside the scheduler's release
        // critical section, so `record` must not re-enter the
        // scheduler: pre-stamp the clock and append directly.
        self.sync_trace_clock();
        sim.on_release_with(self.tid as usize, |g| {
            if let Some(mx) = &self.m.metrics {
                mx.wake_decisions.inc();
                mx.wake_woken.add(g.woken as u64);
            }
            if let Some(t) = &self.tracer {
                t.record(trace::EventKind::WakeDecision {
                    node: g.node,
                    mode: g.mode,
                    depth: g.depth,
                    woken: g.woken,
                });
            }
        });
        if self.tracer.is_some() {
            self.flush_ticks();
        }
    }

    // ------------------------------------------------------------------
    // Tracing (all no-ops when the machine was built without a tracer)

    /// The thread's current virtual clock (0 in real-time runs).
    fn now(&self) -> u64 {
        self.vclock + self.vticks
    }

    /// Publishes the current clock to the recorder so runtime-side
    /// observer callbacks (lock grants, STM lifecycle) stamp correctly.
    fn sync_trace_clock(&self) {
        if let Some(t) = &self.tracer {
            t.set_clock(self.now());
        }
    }

    /// Records one event stamped with the current clock.
    fn trace_event(&self, kind: trace::EventKind) {
        if let Some(t) = &self.tracer {
            t.set_clock(self.now());
            t.record(kind);
        }
    }

    /// Records an in-section shared access. Accesses outside any
    /// section (including lock-spec evaluation, which runs before
    /// `acquire_all` at nesting level 0, and post-acquisition descriptor
    /// revalidation) are not part of the lockset discipline and are
    /// skipped.
    fn trace_access(&self, addr: u64, write: bool) {
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
    // Online lockset sentinel (all no-ops when the machine has none)

    /// Inline Fig. 6 licensing check against the live held-mode set.
    /// Runs *after* the access completed, so an STM footprint already
    /// contains the cell it just touched. Exempt, like the post-hoc
    /// validator: protocol reads (descriptor revalidation), accesses
    /// outside any section, this thread's section-private allocations
    /// (Lemma 2) — plus whatever the sampling schedule skips.
    ///
    /// A violation is recorded, never fatal: the section completes, and
    /// a first offense demotes it on the quarantine ladder (traced as a
    /// `["qr", …]` event so replay sees the transition).
    fn sentinel_check(&mut self, addr: u64, write: bool) {
        let Some(sent) = &self.m.sentinel else { return };
        if self.revalidating || (self.sec_depth == 0 && self.session.nesting_level() == 0) {
            return;
        }
        let n = self.accesses;
        self.accesses += 1;
        if !sent.config().should_check(n) {
            return;
        }
        // `my_allocs` bases are monotone (allocation order), so the
        // Lemma 2 exemption is a binary search — sections that allocate
        // heavily would otherwise pay a linear scan per access.
        let i = self.my_allocs.partition_point(|&(b, _)| b <= addr);
        if i > 0 {
            let (b, l) = self.my_allocs[i - 1];
            if addr < b + l {
                return;
            }
        }
        let licensed = match self.m.mode {
            // Transactional discipline: the access is sound iff the
            // transaction tracks the cell (or runs irrevocably under
            // the commit gate). A miss means the access bypassed the
            // transaction.
            ExecMode::Stm => self
                .txn
                .as_ref()
                .is_some_and(|t| t.is_tracked(addr as usize)),
            _ => sentinel::licensed(self.session.held_modes(), addr, write, || {
                self.m.extent_class(addr)
            }),
        };
        if licensed {
            return;
        }
        self.section_violated = true;
        let held = self.session.held_modes().collect();
        // Clock and access counter key the canonical violation ledger
        // `(clock, tid, seq)` — both are schedule state, not
        // OS-thread-arrival state, so re-inference input is
        // deterministic at every thread count.
        let v = sentinel::Violation::new(
            self.current_section.0,
            self.tid,
            addr,
            write,
            self.now(),
            n,
            held,
        );
        if let Some(ev) = sent.report_violation(v) {
            self.trace_quarantine(ev);
            // A demotion of a section running its repaired scheme
            // revokes the repair: it did not hold up, so the section
            // falls back to the ordinary quarantine ladder.
            if let Some(candidate) = sent.revoke_repair(ev.section) {
                self.trace_event(trace::EventKind::Reinfer {
                    section: ev.section,
                    candidate,
                    accepted: false,
                });
            }
        }
    }

    /// Is this lock spec dropped by the weakened-inference fault plan?
    /// Consulted by both the planning pass and the quiet revalidation
    /// pass: the two must agree, or revalidation would retry forever.
    fn spec_dropped(&self, section: u32, index: usize) -> bool {
        self.m
            .weaken
            .is_some_and(|w| w.section == section && w.drop_index == index)
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
            if ev.healed {
                if let Some(candidate) = sent.activate_repair(section) {
                    self.trace_event(trace::EventKind::Reinfer {
                        section,
                        candidate,
                        accepted: true,
                    });
                }
            }
        }
    }

    fn trace_quarantine(&self, ev: sentinel::LadderEvent) {
        self.trace_event(trace::EventKind::Quarantine {
            section: ev.section,
            healed: ev.healed,
            probation: ev.probation,
        });
    }

    pub(crate) fn call(&mut self, f: FnId, args: &[i64]) -> Result<i64, Exc> {
        let m = self.m;
        self.depth += 1;
        if self.depth > MAX_CALL_DEPTH {
            return Err(InterpError::Fault {
                func: m.program.fn_name(f).to_owned(),
                pc: 0,
                detail: "call stack overflow".into(),
            }
            .into());
        }
        let layout = &m.layouts[f.0 as usize];
        let mut frame = vec![0i64; layout.n_slots as usize];
        for &(slot, class) in &layout.heapified {
            frame[slot as usize] = self.alloc_cells(1, class)? as i64;
        }
        for (&p, &a) in m.program.func(f).params.iter().zip(args) {
            self.write_var(&mut frame, p, a)?;
        }
        let r = self.exec(f, &mut frame);
        self.depth -= 1;
        r
    }

    fn exec(&mut self, f: FnId, frame: &mut Vec<i64>) -> Result<i64, Exc> {
        let m = self.m;
        let body = &m.program.func(f).body;
        let mut pc: usize = 0;
        // Set when *this frame* owns an open STM transaction: the pc of
        // the section-entry instruction and the frame snapshot.
        let mut retry: Option<(usize, Vec<i64>)> = None;
        let mut backoff = Backoff::new();
        loop {
            let ins = &body[pc];
            self.cur_fn = f;
            self.cur_pc = pc;
            self.tick(1);
            self.maybe_inject_panic();
            let result: Result<Flow, Exc> = match ins {
                Instr::EnterAtomic(_) | Instr::AcquireAll(..) => {
                    match self.section_enter(ins, frame, f) {
                        Ok(owns_txn) => {
                            if owns_txn {
                                retry = Some((pc, frame.clone()));
                            }
                            Ok(Flow::Next)
                        }
                        Err(e) => Err(e),
                    }
                }
                Instr::ExitAtomic(_) | Instr::ReleaseAll(_) => match self.section_exit(ins) {
                    Ok(closed_all) => {
                        if closed_all {
                            retry = None;
                            // The section is over: its abort budget and
                            // contention backoff start fresh.
                            self.section_aborts = 0;
                            self.escalate = false;
                            backoff.reset();
                        }
                        Ok(Flow::Next)
                    }
                    Err(e) => Err(e),
                },
                _ => self.step(f, ins, frame, pc),
            };
            match result {
                Ok(Flow::Next) => pc += 1,
                Ok(Flow::Jump(t)) => pc = t,
                Ok(Flow::Return(v)) => return Ok(v),
                Err(Exc::Abort) => match &retry {
                    Some((rpc, snapshot)) => {
                        self.txn = None;
                        self.sec_depth = 0;
                        // The aborted attempt's private allocations are
                        // unreachable (the allocator never reuses
                        // addresses); drop their Lemma 2 exemptions.
                        self.my_allocs.clear();
                        frame.clone_from(snapshot);
                        pc = *rpc;
                        self.sync_trace_clock();
                        m.space.note_abort_by(self.tid as u64);
                        self.section_aborts += 1;
                        if let Some(mx) = &m.metrics {
                            mx.section_retries.inc();
                        }
                        if self.section_aborts >= m.stm_abort_budget {
                            // Starving: the next attempt runs
                            // irrevocably (see `section_enter`).
                            self.escalate = true;
                        }
                        self.idle(m.costs.stm_abort, backoff.spins() as u64);
                    }
                    None => return Err(Exc::Abort),
                },
                Err(e) => return Err(e),
            }
        }
    }

    fn step(&mut self, f: FnId, ins: &Instr, frame: &mut [i64], pc: usize) -> Result<Flow, Exc> {
        let m = self.m;
        match ins {
            Instr::Assign(x, rv) => {
                let val = match rv {
                    Rvalue::Copy(y) => self.read_var(frame, *y)?,
                    Rvalue::AddrOf(y) => match m.storage[y.0 as usize] {
                        Storage::Indirect(s) => frame[s as usize],
                        Storage::Global(a) => a as i64,
                        Storage::Direct(_) => {
                            return Err(self.fault(f, pc, "address of unheapified local"))
                        }
                    },
                    Rvalue::Load(y) => {
                        let a = self.read_var(frame, *y)?;
                        self.heap_read(a, f, pc)?
                    }
                    Rvalue::FieldAddr(y, fd) => {
                        let a = self.read_var(frame, *y)?;
                        if a <= 0 {
                            return Err(self.fault(f, pc, "field of null"));
                        }
                        a + m.field_offset[fd.0 as usize] as i64
                    }
                    Rvalue::DynAddr(y, z) => {
                        let a = self.read_var(frame, *y)?;
                        let i = self.read_var(frame, *z)?;
                        if a <= 0 {
                            return Err(self.fault(f, pc, "index of null"));
                        }
                        if i < 0 {
                            return Err(self.fault(f, pc, "negative index"));
                        }
                        a + i
                    }
                    Rvalue::Alloc(n) => {
                        let class = self.class_of_site(f, pc)?;
                        self.alloc_cells(*n, class)? as i64
                    }
                    Rvalue::AllocDyn(z) => {
                        let n = self.read_var(frame, *z)?;
                        if n < 0 {
                            return Err(self.fault(f, pc, "negative allocation size"));
                        }
                        let class = self.class_of_site(f, pc)?;
                        self.alloc_cells(n as usize, class)? as i64
                    }
                    Rvalue::Null => 0,
                    Rvalue::ConstInt(c) => *c,
                    Rvalue::Arith(op, a, b) => {
                        let (a, b) = (self.read_var(frame, *a)?, self.read_var(frame, *b)?);
                        self.arith(*op, a, b, f, pc)?
                    }
                    Rvalue::Cmp(op, a, b) => {
                        let (a, b) = (self.read_var(frame, *a)?, self.read_var(frame, *b)?);
                        i64::from(match op {
                            CmpOp::Eq => a == b,
                            CmpOp::Ne => a != b,
                            CmpOp::Lt => a < b,
                            CmpOp::Le => a <= b,
                            CmpOp::Gt => a > b,
                            CmpOp::Ge => a >= b,
                        })
                    }
                    Rvalue::Call(g, args) => {
                        let mut vals = Vec::with_capacity(args.len());
                        for a in args {
                            vals.push(self.read_var(frame, *a)?);
                        }
                        self.call(*g, &vals)?
                    }
                    Rvalue::Intrinsic(i, args) => {
                        let mut vals = Vec::with_capacity(args.len());
                        for a in args {
                            vals.push(self.read_var(frame, *a)?);
                        }
                        self.intrinsic(*i, &vals, f, pc)?
                    }
                };
                self.write_var(frame, *x, val)?;
                Ok(Flow::Next)
            }
            Instr::Store(x, y) => {
                let v = self.read_var(frame, *y)?;
                let a = self.read_var(frame, *x)?;
                self.heap_write(a, v, f, pc)?;
                Ok(Flow::Next)
            }
            Instr::Jump(t) => Ok(Flow::Jump(*t as usize)),
            Instr::Branch(v, t, e) => {
                let c = self.read_var(frame, *v)?;
                Ok(Flow::Jump(if c != 0 { *t as usize } else { *e as usize }))
            }
            Instr::Ret => {
                let ret = m.program.func(f).ret;
                Ok(Flow::Return(self.read_var(frame, ret)?))
            }
            Instr::Nop => Ok(Flow::Next),
            Instr::EnterAtomic(_)
            | Instr::ExitAtomic(_)
            | Instr::AcquireAll(..)
            | Instr::ReleaseAll(_) => unreachable!("section markers handled by exec"),
        }
    }

    fn arith(&mut self, op: ArithOp, a: i64, b: i64, f: FnId, pc: usize) -> Result<i64, Exc> {
        Ok(match op {
            ArithOp::Add => a.wrapping_add(b),
            ArithOp::Sub => a.wrapping_sub(b),
            ArithOp::Mul => a.wrapping_mul(b),
            ArithOp::Div => {
                if b == 0 {
                    return Err(InterpError::DivByZero {
                        func: self.m.program.fn_name(f).to_owned(),
                        pc,
                    }
                    .into());
                }
                a.wrapping_div(b)
            }
            ArithOp::Rem => {
                if b == 0 {
                    return Err(InterpError::DivByZero {
                        func: self.m.program.fn_name(f).to_owned(),
                        pc,
                    }
                    .into());
                }
                a.wrapping_rem(b)
            }
            ArithOp::And => a & b,
            ArithOp::Or => a | b,
            ArithOp::Xor => a ^ b,
            ArithOp::Shl => a.wrapping_shl(b as u32),
            ArithOp::Shr => a.wrapping_shr(b as u32),
        })
    }

    fn intrinsic(&mut self, i: Intrinsic, vals: &[i64], f: FnId, pc: usize) -> Result<i64, Exc> {
        match i {
            Intrinsic::Nops => {
                self.idle(0, vals[0].max(0) as u64);
                Ok(0)
            }
            Intrinsic::Rand => {
                self.rng = splitmix(self.rng);
                let n = vals[0];
                Ok(if n > 0 {
                    ((self.rng >> 11) % n as u64) as i64
                } else {
                    0
                })
            }
            Intrinsic::Tid => Ok(self.tid as i64),
            Intrinsic::Print => {
                self.m.out.lock().push(vals[0].to_string());
                Ok(0)
            }
            Intrinsic::Assert => {
                if vals[0] == 0 {
                    return Err(InterpError::AssertFailed {
                        func: self.m.program.fn_name(f).to_owned(),
                        pc,
                    }
                    .into());
                }
                Ok(0)
            }
        }
    }

    // ------------------------------------------------------------------
    // Variables and memory

    fn read_var(&mut self, frame: &[i64], v: VarId) -> Result<i64, Exc> {
        let a = match self.m.storage[v.0 as usize] {
            Storage::Direct(s) => return Ok(frame[s as usize]),
            Storage::Indirect(s) => frame[s as usize] as u64,
            Storage::Global(a) => a,
        };
        self.check_var_access(a, false)?;
        self.trace_access(a, false);
        let val = self.heap_read_raw(a)?;
        self.sentinel_check(a, false);
        Ok(val)
    }

    fn write_var(&mut self, frame: &mut [i64], v: VarId, val: i64) -> Result<(), Exc> {
        let a = match self.m.storage[v.0 as usize] {
            Storage::Direct(s) => {
                frame[s as usize] = val;
                return Ok(());
            }
            Storage::Indirect(s) => frame[s as usize] as u64,
            Storage::Global(a) => a,
        };
        self.check_var_access(a, true)?;
        self.trace_access(a, true);
        self.heap_write_raw(a, val, true)?;
        self.sentinel_check(a, true);
        Ok(())
    }

    /// Validate-mode coverage check for variable cells (globals and
    /// heapified locals).
    fn check_var_access(&self, a: u64, write: bool) -> Result<(), Exc> {
        // Lock-spec evaluation happens before `acquire_all`, while the
        // nesting level is still 0, so it is naturally exempt here;
        // post-acquisition revalidation runs at level 1 and is exempted
        // explicitly.
        if self.m.mode == ExecMode::Validate
            && !self.revalidating
            && self.session.nesting_level() > 0
        {
            self.check_protected(a, write, self.cur_fn, self.cur_pc)?;
        }
        Ok(())
    }

    fn check_addr(&self, addr: i64, f: FnId, pc: usize) -> Result<u64, Exc> {
        if addr <= 0 || addr as usize >= self.m.space.len() {
            return Err(self.fault(f, pc, format!("bad address {addr}")));
        }
        Ok(addr as u64)
    }

    fn heap_read(&mut self, addr: i64, f: FnId, pc: usize) -> Result<i64, Exc> {
        let a = self.check_addr(addr, f, pc)?;
        if self.m.mode == ExecMode::Validate && self.session.nesting_level() > 0 {
            self.check_protected(a, false, f, pc)?;
        }
        self.trace_access(a, false);
        let val = self.heap_read_raw(a)?;
        self.sentinel_check(a, false);
        Ok(val)
    }

    fn heap_write(&mut self, addr: i64, val: i64, f: FnId, pc: usize) -> Result<(), Exc> {
        let a = self.check_addr(addr, f, pc)?;
        if self.m.mode == ExecMode::Validate && self.session.nesting_level() > 0 {
            self.check_protected(a, true, f, pc)?;
        }
        self.trace_access(a, true);
        self.heap_write_raw(a, val, false)?;
        self.sentinel_check(a, true);
        Ok(())
    }

    /// Raw cell read: transactional inside an STM section, direct
    /// otherwise.
    fn heap_read_raw(&mut self, a: u64) -> Result<i64, Exc> {
        self.maybe_inject_stm_abort()?;
        match self.txn.as_mut() {
            Some(txn) => {
                let v = txn.read(a as usize).map_err(|_| Exc::Abort);
                self.tick(self.m.costs.stm_read);
                v
            }
            None => Ok(self.m.space.read_direct(a as usize)),
        }
    }

    fn heap_write_raw(&mut self, a: u64, val: i64, _var_cell: bool) -> Result<(), Exc> {
        self.maybe_inject_stm_abort()?;
        match self.txn.as_mut() {
            Some(txn) => {
                txn.write(a as usize, val);
                self.tick(self.m.costs.stm_write);
                Ok(())
            }
            None => {
                self.m.space.write_direct(a as usize, val);
                Ok(())
            }
        }
    }

    // ------------------------------------------------------------------
    // Live metrics (all no-ops when the machine has no registry)

    /// Marks the outermost acquisition point: wait ends here, hold
    /// begins. Lock modes only — STM has no plan to complete.
    fn metric_plan_complete(&mut self) {
        let m = self.m;
        if let Some(mx) = &m.metrics {
            let now = self.now();
            mx.wait_ticks
                .observe(now.saturating_sub(self.sect_enter_clock));
            self.sect_plan_clock = now;
        }
    }

    /// Closes the outermost lock section's hold interval.
    fn metric_section_closed(&mut self) {
        let m = self.m;
        if let Some(mx) = &m.metrics {
            mx.hold_ticks
                .observe(self.now().saturating_sub(self.sect_plan_clock));
        }
    }

    // ------------------------------------------------------------------
    // Fault injection points (all no-ops without a plan)

    /// Accounts for one injected fault everywhere it is counted: the
    /// machine's [`FaultStats`](crate::FaultStats), the trace, the live
    /// registry.
    fn note_fault(&self, class: FaultClass) {
        let stats = &self.m.fault_stats;
        let fired = match class {
            FaultClass::Panic => &stats.injected_panics,
            FaultClass::SpuriousAbort => &stats.injected_aborts,
            FaultClass::Stall => &stats.injected_stalls,
            FaultClass::WakeupDelay => &stats.injected_delays,
        };
        fired.fetch_add(1, Ordering::Relaxed);
        self.trace_event(trace::EventKind::Fault { class });
        if let Some(mx) = &self.m.metrics {
            mx.fault(class);
        }
    }

    /// Injected mid-section panic: fires only inside an atomic section
    /// (any discipline), via `resume_unwind` so drop glue runs — the
    /// session and transaction release on the way out — without
    /// tripping the global panic hook.
    fn maybe_inject_panic(&mut self) {
        let in_section = self.sec_depth > 0 || self.session.nesting_level() > 0;
        if !in_section {
            return;
        }
        let fire = match self.injector.as_mut() {
            Some(inj) => inj.take_panic(),
            None => false,
        };
        if fire {
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
    fn injected_wakeup_delay(&mut self) {
        let delay = match self.injector.as_mut() {
            Some(inj) => inj.take_wakeup_delay(),
            None => None,
        };
        if let Some(t) = delay {
            self.note_fault(FaultClass::WakeupDelay);
            self.idle(0, t);
        }
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
        if in_section && (self.m.mode == ExecMode::Validate || self.m.sentinel.is_some()) {
            // Cells allocated by this thread during the section are
            // private until it publishes them: exempt from coverage
            // (Lemma 2's reachability proviso). Both the Validate-mode
            // checker and the online sentinel consult this list.
            self.my_allocs.push((base, n.max(1) as u64));
        }
        Ok(base)
    }

    fn class_of_site(&self, f: FnId, pc: usize) -> Result<PtsClass, Exc> {
        self.m
            .site_class
            .get(&(f, pc as u32))
            .copied()
            .ok_or_else(|| {
                Exc::Err(InterpError::Internal {
                    detail: format!(
                        "allocation site {}:{pc} was not pre-registered",
                        self.m.program.fn_name(f)
                    ),
                })
            })
    }

    fn check_protected(&self, a: u64, write: bool, f: FnId, pc: usize) -> Result<(), Exc> {
        if self.my_allocs.iter().any(|&(b, l)| a >= b && a < b + l) {
            return Ok(());
        }
        let eff = if write { lir::Eff::Rw } else { lir::Eff::Ro };
        if self
            .held_concrete
            .iter()
            .any(|l| l.protects(a, eff, self.m))
        {
            return Ok(());
        }
        Err(InterpError::Unprotected {
            func: self.m.program.fn_name(f).to_owned(),
            pc,
            addr: a,
            write,
            section: self.current_section,
        }
        .into())
    }

    fn fault(&self, f: FnId, pc: usize, detail: impl Into<String>) -> Exc {
        Exc::Err(InterpError::Fault {
            func: self.m.program.fn_name(f).to_owned(),
            pc,
            detail: detail.into(),
        })
    }

    // ------------------------------------------------------------------
    // Atomic sections

    /// Enters a section; returns true when this frame now owns a fresh
    /// STM transaction (and must snapshot for retry).
    fn section_enter(&mut self, ins: &Instr, frame: &mut [i64], f: FnId) -> Result<bool, Exc> {
        let m = self.m;
        let sid = match ins {
            Instr::AcquireAll(s, _) | Instr::EnterAtomic(s) => *s,
            _ => unreachable!("section markers handled by exec"),
        };
        if self.tracer.is_some() {
            // Every nesting level (and every STM retry) records an
            // entry; lock grants follow at the outermost level only.
            self.trace_event(trace::EventKind::SectionEnter { section: sid.0 });
        }
        if let Some(mx) = &m.metrics {
            mx.section_entries.inc();
        }
        match m.mode {
            ExecMode::Global => {
                let outermost = self.session.nesting_level() == 0;
                if outermost {
                    self.current_section = sid;
                    self.section_violated = false;
                    self.sect_enter_clock = self.now();
                }
                self.acquire_global(outermost)?;
                Ok(false)
            }
            ExecMode::MultiGrain | ExecMode::Validate => {
                let specs = match ins {
                    Instr::AcquireAll(_, specs) => specs,
                    Instr::EnterAtomic(s) => {
                        return Err(InterpError::NeedsTransformedProgram { section: *s }.into())
                    }
                    _ => unreachable!(),
                };
                if self.session.nesting_level() > 0 {
                    // Nested entry: the outer level's grants cover it.
                    self.acquire_session(0)?;
                    return Ok(false);
                }
                self.current_section = sid;
                self.section_violated = false;
                self.sect_enter_clock = self.now();
                if m.sentinel.as_ref().is_some_and(|s| s.is_quarantined(sid.0)) {
                    // Quarantined: the section serves its probation
                    // under the trivially sound global scheme — one
                    // Root/X grant, no fine plan, and (since the grant
                    // covers every address) no revalidation loop.
                    self.held_concrete.clear();
                    if m.mode == ExecMode::Validate {
                        self.held_concrete.push(ConcreteLock::Global);
                    }
                    self.acquire_global(true)?;
                    return Ok(false);
                }
                // A healed section with an active repair plans the
                // repaired specs instead of the seed scheme. The
                // repaired plan is a fresh inference artifact, so the
                // weakened-seed fault does not apply to it — planning
                // and quiet revalidation skip the drop filter together
                // (they must agree, or revalidation retries forever).
                let repair = m
                    .sentinel
                    .as_ref()
                    .and_then(|s| s.active_repair(sid.0))
                    .and_then(|_| m.repairs.get(&sid.0));
                let (specs, filter_dropped) = match repair {
                    Some(r) => (r.as_slice(), false),
                    None => (specs.as_slice(), true),
                };
                loop {
                    self.held_concrete.clear();
                    self.planned.clear();
                    for (i, spec) in specs.iter().enumerate() {
                        if filter_dropped && self.spec_dropped(sid.0, i) {
                            continue;
                        }
                        if let Some((d, c)) = self.eval_spec(spec, frame, f)? {
                            self.session.to_acquire(d);
                            self.planned.push(d);
                            if m.mode == ExecMode::Validate {
                                self.held_concrete.push(c);
                            }
                        }
                    }
                    self.acquire_session(self.planned.len() as u64)?;
                    // The plan is fully granted at this clock. The
                    // first marker after the section entry is its
                    // acquisition point (wait ends, hold begins);
                    // markers from later loop iterations mark
                    // revalidation retries — `trace::profile` counts
                    // them apart instead of moving the split point.
                    self.trace_event(trace::EventKind::PlanComplete);
                    self.metric_plan_complete();
                    // Fine descriptors were evaluated *before* blocking.
                    // If the guarded structure moved while this thread
                    // waited (e.g. a concurrent section resized the
                    // array the path names), the locks now held cover a
                    // stale footprint. Re-evaluate under the grants and
                    // retry on drift; every retry implies some other
                    // section committed in between, so the loop makes
                    // system-wide progress.
                    if self.plan_still_current(specs, frame, f, filter_dropped)? {
                        break;
                    }
                    m.fault_stats
                        .lock_revalidations
                        .fetch_add(1, Ordering::Relaxed);
                    if let Some(mx) = &m.metrics {
                        mx.revalidations.inc();
                    }
                    self.session.release_all();
                    self.sim_release();
                }
                Ok(false)
            }
            ExecMode::Stm => {
                self.sec_depth += 1;
                if self.sec_depth == 1 {
                    self.current_section = sid;
                    self.section_violated = false;
                    self.tick(m.costs.txn_start);
                    // Make the transaction window visible at exact
                    // virtual time.
                    self.flush_ticks();
                    // A quarantined section runs irrevocably — the
                    // commit gate serializes it, the STM counterpart of
                    // the lock modes' global-scheme demotion.
                    let quarantined = m.sentinel.as_ref().is_some_and(|s| s.is_quarantined(sid.0));
                    self.txn = Some(if self.escalate || quarantined {
                        self.begin_irrevocable()
                    } else {
                        m.space.begin()
                    });
                    Ok(true)
                } else {
                    Ok(false)
                }
            }
        }
    }

    /// The one-lock plan — `⊤` in `X` — that every Global-mode section
    /// and every quarantined section runs under; at the outermost level
    /// its grant is the section's acquisition point.
    fn acquire_global(&mut self, outermost: bool) -> Result<(), Exc> {
        self.session.to_acquire(Descriptor::Global {
            access: Access::Write,
        });
        self.acquire_session(1)?;
        if outermost {
            self.trace_event(trace::EventKind::PlanComplete);
            self.metric_plan_complete();
        }
        Ok(())
    }

    /// STM starvation fallback: begins an irrevocable transaction,
    /// waiting for the commit gate. Under the scheduler the wait is
    /// cooperative — we charge our own clock until the gate holder
    /// (whose clock then becomes the minimum) runs and releases it.
    fn begin_irrevocable(&mut self) -> tl2::Txn<'m> {
        self.tick(self.m.costs.stm_fallback);
        let mut backoff = Backoff::new();
        loop {
            self.sync_trace_clock();
            if let Some(txn) = self.m.space.try_begin_irrevocable_by(self.tid as u64) {
                return txn;
            }
            self.idle(0, backoff.spins() as u64);
        }
    }

    /// Acquires the queued locks: blocking in real time, cooperative
    /// try/wait under the virtual scheduler (waiters inherit the
    /// releaser's clock). Charges the protocol's virtual cost.
    ///
    /// Errors when the degradation policy trips: an acquisition timeout
    /// or detected deadlock in real time, a wedged scheduler under
    /// virtual time. Partially-acquired nodes are released by the
    /// session's drop (counted as an unwind release).
    fn acquire_session(&mut self, n_descriptors: u64) -> Result<(), Exc> {
        let stall = match self.injector.as_mut() {
            Some(inj) => inj.take_stall(),
            None => None,
        };
        if let Some(t) = stall {
            self.note_fault(FaultClass::Stall);
            self.idle(0, t);
        }
        let held_before = self.session.held_count();
        match self.sim {
            None => {
                self.sync_trace_clock();
                // Honours whatever degradation policy the runtime was
                // built with; under the default one it blocks for real.
                self.session
                    .acquire_all_checked()
                    .map_err(|source| InterpError::Lock {
                        tid: self.tid,
                        source,
                    })?;
            }
            Some(sim) => {
                self.tick(self.m.costs.lock_desc * n_descriptors);
                self.flush_ticks();
                let mut parked = false;
                loop {
                    self.sync_trace_clock();
                    match self.session.acquire_all_step() {
                        mglock::StepResult::Done => break,
                        mglock::StepResult::WouldBlock => {
                            parked = true;
                            // Snapshot what we are blocked on for the
                            // wake policy (ignored on the legacy path).
                            // Age is filled in by the scheduler at each
                            // release from the streak's park epoch.
                            let waiter =
                                self.session.blocked_on().map(|(node, mode)| sched::Waiter {
                                    tid: self.tid,
                                    since: self.now(),
                                    section: self.current_section.0,
                                    node,
                                    mode,
                                    age: 0,
                                });
                            sim.begin_wait_with(self.tid as usize, waiter);
                            match sim.await_release(self.tid as usize) {
                                Some(clock) => self.vclock = clock,
                                None => {
                                    return Err(
                                        InterpError::SchedulerStalled { tid: self.tid }.into()
                                    )
                                }
                            }
                            self.injected_wakeup_delay();
                        }
                    }
                }
                if parked {
                    sim.end_wait(self.tid as usize);
                }
                let acquired = (self.session.held_count() - held_before) as u64;
                self.tick(self.m.costs.lock_node * acquired);
            }
        }
        if let Some(mx) = &self.m.metrics {
            mx.lock_acquisitions
                .add((self.session.held_count() - held_before) as u64);
        }
        Ok(())
    }

    /// Leaves a section; returns true when the outermost level closed
    /// (for STM: the transaction committed).
    fn section_exit(&mut self, ins: &Instr) -> Result<bool, Exc> {
        let m = self.m;
        let sid = match ins {
            Instr::ExitAtomic(s) | Instr::ReleaseAll(s) => *s,
            _ => unreachable!("section markers handled by exec"),
        };
        match m.mode {
            ExecMode::Global | ExecMode::MultiGrain | ExecMode::Validate => {
                let will_close = self.session.nesting_level() == 1;
                self.tick(m.costs.lock_release);
                if will_close {
                    // Publish the exact release time before waking
                    // waiters.
                    self.flush_ticks();
                }
                // Exit before the releases: the validator checks every
                // access while the grants are still held, and release
                // events trail the section like the runtime's own order.
                self.trace_event(trace::EventKind::SectionExit { section: sid.0 });
                self.session.release_all();
                let closed = self.session.nesting_level() == 0;
                if closed {
                    self.metric_section_closed();
                    self.sim_release();
                    self.held_concrete.clear();
                    self.my_allocs.clear();
                    self.note_section_closed(sid.0);
                }
                Ok(closed)
            }
            ExecMode::Stm => {
                self.sec_depth -= 1;
                if self.sec_depth > 0 {
                    // Inner exits always survive; the outermost one is
                    // recorded only after a successful commit (an
                    // aborted attempt ends in `StmAbort` instead).
                    self.trace_event(trace::EventKind::SectionExit { section: sid.0 });
                    return Ok(false);
                }
                let txn = self.txn.take().ok_or_else(|| {
                    Exc::Err(InterpError::Internal {
                        detail: "no open transaction at STM section exit".into(),
                    })
                })?;
                let writes = txn.write_set_len() as u64;
                let reads = txn.read_set_len() as u64;
                // Read-only transactions skip commit-time validation
                // entirely (the TL2 fast path).
                let vreads = if writes > 0 { reads } else { 0 };
                self.tick(
                    m.costs.stm_commit_base
                        + m.costs.stm_commit_per_write * writes
                        + m.costs.stm_commit_per_read * vreads,
                );
                self.flush_ticks();
                self.sync_trace_clock();
                match txn.commit() {
                    Ok(()) => {
                        m.space.note_commit_by(self.tid as u64, reads, writes);
                        self.trace_event(trace::EventKind::SectionExit { section: sid.0 });
                        self.my_allocs.clear();
                        self.note_section_closed(sid.0);
                        Ok(true)
                    }
                    Err(_) => Err(Exc::Abort),
                }
            }
        }
    }

    /// Evaluates a lock spec at section entry into a runtime descriptor
    /// plus its concrete denotation. Returns `None` when a fine
    /// expression evaluates through null (no location to protect —
    /// the access it would have protected faults first).
    fn eval_spec(
        &mut self,
        spec: &LockSpec,
        frame: &[i64],
        f: FnId,
    ) -> Result<Option<(Descriptor, ConcreteLock)>, Exc> {
        let m = self.m;
        let access = |e: lir::Eff| match e {
            lir::Eff::Ro => Access::Read,
            lir::Eff::Rw => Access::Write,
        };
        match spec {
            LockSpec::Global => Ok(Some((
                Descriptor::Global {
                    access: Access::Write,
                },
                ConcreteLock::Global,
            ))),
            LockSpec::Coarse { pts, eff } => Ok(Some((
                Descriptor::Coarse {
                    pts: *pts,
                    access: access(*eff),
                },
                ConcreteLock::Coarse {
                    pts: PtsClass(*pts),
                    eff: *eff,
                },
            ))),
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
                    cur = self.read_var(frame, path.base)?;
                    ops = &ops[1..];
                }
                for (i, op) in ops.iter().enumerate() {
                    if cur <= 0 {
                        return Ok(None);
                    }
                    match op {
                        PathOp::Deref => {
                            let a = self.check_addr(cur, f, 0)?;
                            cur = self.heap_read_raw(a)?;
                        }
                        PathOp::Field(fd) if Some(*fd) == m.elem_field => {
                            debug_assert_eq!(i + 1, ops.len(), "[] only in final position");
                            return Ok(Some((
                                Descriptor::Fine {
                                    pts: *pts,
                                    addr: FineAddr::Range(cur as u64),
                                    access: access(*eff),
                                },
                                ConcreteLock::Range {
                                    base: cur as u64,
                                    eff: *eff,
                                },
                            )));
                        }
                        PathOp::Field(fd) => {
                            cur += m.field_offset[fd.0 as usize] as i64;
                        }
                        PathOp::Index(v) => {
                            let i = self.read_var(frame, *v)?;
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
                Ok(Some((
                    Descriptor::Fine {
                        pts: *pts,
                        addr: FineAddr::Cell(cur as u64),
                        access: access(*eff),
                    },
                    ConcreteLock::Cell {
                        addr: cur as u64,
                        eff: *eff,
                    },
                )))
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
        f: FnId,
        filter_dropped: bool,
    ) -> Result<bool, Exc> {
        self.revalidating = true;
        let mut current = true;
        let mut seen = 0;
        let mut err = None;
        let section = self.current_section.0;
        for (i, spec) in specs.iter().enumerate() {
            if filter_dropped && self.spec_dropped(section, i) {
                continue;
            }
            match self.eval_spec(spec, frame, f) {
                Ok(Some((d, _))) => {
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

/// Converts a worker exit to the public result; `Abort` must have been
/// consumed by its owning section.
fn exit_error(e: Exc) -> InterpError {
    match e {
        Exc::Err(e) => e,
        Exc::Abort => InterpError::Internal {
            detail: "transaction abort escaped its owning section".into(),
        },
    }
}

impl Machine {
    /// Runs `name(args)` on the calling thread (thread id 0).
    ///
    /// # Errors
    ///
    /// Returns any runtime error raised during execution.
    pub fn run_named(&self, name: &str, args: &[i64]) -> Result<i64, InterpError> {
        let f = self
            .program
            .function_named(name)
            .ok_or_else(|| InterpError::NoSuchFunction(name.to_owned()))?;
        self.run_fn(f, args, 0)
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
        let want = self.program.func(f).params.len();
        if want != args.len() {
            return Err(InterpError::ArityMismatch {
                func: self.program.fn_name(f).to_owned(),
                want,
                got: args.len(),
            });
        }
        let mut w = Worker::new(self, tid);
        let r = catch_unwind(AssertUnwindSafe(|| w.call(f, args)));
        // Drop the worker before reporting: a panicking or erroring
        // worker may still hold locks or an open transaction, and the
        // drop glue (session unwind-release, gate guard) frees them.
        drop(w);
        match r {
            Ok(Ok(v)) => Ok(v),
            Ok(Err(e)) => Err(exit_error(e)),
            Err(payload) => Err(panic_error(tid, payload)),
        }
    }

    /// Like [`Machine::run_threads`], but under the deterministic
    /// virtual-time scheduler: returns the per-thread results plus the
    /// virtual makespan in ticks (1 tick ≈ 1 ns of reported time).
    /// It stands in for the paper's 8-core machine on any host,
    /// whatever its core count — see `crate::sim`.
    ///
    /// # Errors
    ///
    /// Returns the first thread error encountered.
    pub fn run_threads_virtual(
        &self,
        name: &str,
        n: usize,
        args: impl Fn(u32) -> Vec<i64> + Sync,
    ) -> Result<(Vec<i64>, u64), InterpError> {
        let f = self
            .program
            .function_named(name)
            .ok_or_else(|| InterpError::NoSuchFunction(name.to_owned()))?;
        let sim = Sim::with_policy(n, self.quantum, self.sched.as_ref().map(|c| c.build()));
        let sim = &sim;
        let results = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for tid in 0..n as u32 {
                let argv = args(tid);
                handles.push(scope.spawn(move || {
                    let mut w = Worker::with_sim(self, tid, sim);
                    match catch_unwind(AssertUnwindSafe(|| w.call(f, &argv))) {
                        Ok(Ok(v)) => {
                            w.flush_ticks();
                            sim.finish(tid as usize);
                            Ok(v)
                        }
                        Ok(Err(e)) => {
                            // Unclean exit: release this worker's locks
                            // (session/transaction drop), promote any
                            // waiters they unblocked, then leave the
                            // schedule — `finish` hands the turn on —
                            // so the rest can finish.
                            drop(w);
                            sim.on_release(tid as usize);
                            sim.finish(tid as usize);
                            Err(exit_error(e))
                        }
                        Err(payload) => {
                            drop(w);
                            sim.on_release(tid as usize);
                            sim.finish(tid as usize);
                            Err(panic_error(tid, payload))
                        }
                    }
                }));
            }
            handles
                .into_iter()
                .enumerate()
                .map(|(tid, h)| h.join().unwrap_or_else(|p| Err(panic_error(tid as u32, p))))
                .collect::<Result<Vec<i64>, InterpError>>()
        });
        let (yield_points, handoffs) = sim.yield_counts();
        self.sim_yield_points
            .fetch_add(yield_points, Ordering::Relaxed);
        self.sim_handoffs.fetch_add(handoffs, Ordering::Relaxed);
        Ok((results?, sim.makespan()))
    }

    /// Spawns `n` OS threads all running `name(args(tid))`, joining them
    /// and returning their results in thread order.
    ///
    /// # Errors
    ///
    /// Returns the first thread error encountered.
    pub fn run_threads(
        &self,
        name: &str,
        n: usize,
        args: impl Fn(u32) -> Vec<i64> + Sync,
    ) -> Result<Vec<i64>, InterpError> {
        let f = self
            .program
            .function_named(name)
            .ok_or_else(|| InterpError::NoSuchFunction(name.to_owned()))?;
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for tid in 0..n as u32 {
                let argv = args(tid);
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
