//! Deterministic fault injection for the three locking runtimes.
//!
//! A [`FaultPlan`] is a seeded description of *which* faults to inject
//! and *how often*; each worker derives its own splitmix stream from
//! `(plan.seed, tid)`, so a given (plan, program, thread count) always
//! injects the same faults at the same points — chaos runs are exactly
//! reproducible and can be re-checked under Validate mode.
//!
//! Four fault classes, matching the degradation ladder:
//!
//! * **mid-section panics** — the worker unwinds from inside an atomic
//!   section; lock sessions release on drop (poisoning accounted in
//!   [`mglock::Stats`]) and the harness reports
//!   [`crate::InterpError::InjectedPanic`];
//! * **spurious STM aborts** — transactional reads/writes fail as if
//!   conflicted, exercising the retry and abort-budget escalation
//!   paths (suppressed while irrevocable, which must not abort);
//! * **lock-acquisition stalls** — extra virtual ticks charged before
//!   an `acquire_all`, shifting lock-contention interleavings;
//! * **delayed wakeups** — extra virtual ticks charged after a waiter
//!   is released, perturbing the scheduler's wake order.

use std::sync::atomic::AtomicU64;

/// A seeded, copyable fault-injection plan. Rates are per-mille
/// (0–1000) per opportunity; a zeroed plan (the default) injects
/// nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for the per-thread injection streams.
    pub seed: u64,
    /// Chance (‰ per in-section instruction) of an injected panic.
    pub panic_per_mille: u16,
    /// Cap on injected panics per thread (0 = unlimited once the rate
    /// is nonzero — usually you want 1 or 2 so most threads survive).
    pub max_panics: u32,
    /// Chance (‰ per transactional access) of a spurious abort.
    pub stm_abort_per_mille: u16,
    /// Chance (‰ per lock-wait wakeup) of a delayed wakeup.
    pub wakeup_delay_per_mille: u16,
    /// Virtual ticks added by one delayed wakeup.
    pub wakeup_delay_ticks: u64,
    /// Chance (‰ per acquisition batch) of a pre-acquisition stall.
    pub stall_per_mille: u16,
    /// Virtual ticks added by one stall.
    pub stall_ticks: u64,
}

impl FaultPlan {
    /// An empty plan with the given seed; combine with the `with_*`
    /// builders.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Injects thread panics at `per_mille`‰ per in-section
    /// instruction, at most `max` per thread.
    pub fn with_panics(mut self, per_mille: u16, max: u32) -> FaultPlan {
        self.panic_per_mille = per_mille;
        self.max_panics = max;
        self
    }

    /// Injects spurious transactional aborts at `per_mille`‰ per
    /// transactional access.
    pub fn with_stm_aborts(mut self, per_mille: u16) -> FaultPlan {
        self.stm_abort_per_mille = per_mille;
        self
    }

    /// Delays `per_mille`‰ of lock-wait wakeups by `ticks` virtual
    /// ticks.
    pub fn with_wakeup_delays(mut self, per_mille: u16, ticks: u64) -> FaultPlan {
        self.wakeup_delay_per_mille = per_mille;
        self.wakeup_delay_ticks = ticks;
        self
    }

    /// Stalls `per_mille`‰ of acquisition batches by `ticks` virtual
    /// ticks before they start acquiring.
    pub fn with_stalls(mut self, per_mille: u16, ticks: u64) -> FaultPlan {
        self.stall_per_mille = per_mille;
        self.stall_ticks = ticks;
        self
    }

    /// True when the plan can inject anything at all.
    pub fn is_active(&self) -> bool {
        self.panic_per_mille > 0
            || self.stm_abort_per_mille > 0
            || self.wakeup_delay_per_mille > 0
            || self.stall_per_mille > 0
    }
}

/// Fault-injected *weakened inference*: drops the `drop_index`-th lock
/// spec from `section`'s `acquireAll` at plan time, simulating a
/// compiler that under-inferred that section's footprint. Both the
/// planning pass and the post-acquisition revalidation pass skip the
/// spec (they must agree, or revalidation would retry forever), so the
/// weakened plan is stable — and the executed section has a genuine
/// soundness gap for the online sentinel to catch, without corrupting
/// the analysis itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WeakenPlan {
    /// The section whose plan is weakened.
    pub section: u32,
    /// Index into the section's `acquireAll` spec list to drop.
    pub drop_index: usize,
}

/// Machine-wide injection counters (what actually fired, as opposed to
/// the plan's rates).
#[derive(Debug, Default)]
pub struct FaultStats {
    /// Panics injected (each unwound one worker).
    pub injected_panics: AtomicU64,
    /// Spurious transactional aborts injected.
    pub injected_aborts: AtomicU64,
    /// Wakeups delayed.
    pub injected_delays: AtomicU64,
    /// Acquisition batches stalled.
    pub injected_stalls: AtomicU64,
    /// Not an injection: lock batches released and re-acquired because
    /// a fine descriptor drifted during the wait. Lives here because
    /// this is the machine's bucket of cross-thread runtime counters.
    pub lock_revalidations: AtomicU64,
}

/// Panic payload used by injected panics; the harness recognizes it and
/// reports [`crate::InterpError::InjectedPanic`] instead of a generic
/// worker panic. Delivered via `resume_unwind`, so it unwinds (running
/// all drop glue) without triggering the global panic hook's backtrace.
#[derive(Debug)]
pub(crate) struct FaultPanic {
    pub tid: u32,
}

/// Per-worker injection state: the plan plus this thread's stream.
pub(crate) struct Injector {
    plan: FaultPlan,
    rng: u64,
    panics_left: u32,
}

impl Injector {
    pub fn new(plan: FaultPlan, tid: u32) -> Injector {
        Injector {
            plan,
            rng: splitmix(plan.seed ^ splitmix(0xFA17 ^ (tid as u64) << 17)),
            panics_left: if plan.max_panics == 0 {
                u32::MAX
            } else {
                plan.max_panics
            },
        }
    }

    fn roll(&mut self, per_mille: u16) -> bool {
        if per_mille == 0 {
            return false;
        }
        self.rng = splitmix(self.rng);
        ((self.rng >> 17) % 1000) < per_mille as u64
    }

    /// Should an in-section instruction panic here?
    pub fn take_panic(&mut self) -> bool {
        if self.panics_left == 0 || !self.roll(self.plan.panic_per_mille) {
            return false;
        }
        self.panics_left -= 1;
        true
    }

    /// Should this transactional access spuriously abort?
    pub fn take_stm_abort(&mut self) -> bool {
        self.roll(self.plan.stm_abort_per_mille)
    }

    /// Extra ticks for this wakeup, if it is one of the delayed ones.
    pub fn take_wakeup_delay(&mut self) -> Option<u64> {
        self.roll(self.plan.wakeup_delay_per_mille)
            .then_some(self.plan.wakeup_delay_ticks)
    }

    /// Extra ticks before this acquisition batch, if it stalls.
    pub fn take_stall(&mut self) -> Option<u64> {
        self.roll(self.plan.stall_per_mille)
            .then_some(self.plan.stall_ticks)
    }
}

/// One step of the splitmix64 generator — every per-thread stream in
/// the interpreter (fault injection here, the `rand` intrinsic in the
/// worker) is a chain of these.
pub(crate) fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_per_thread() {
        let plan = FaultPlan::new(42).with_stm_aborts(100);
        let run = |tid| {
            let mut inj = Injector::new(plan, tid);
            (0..64).map(|_| inj.take_stm_abort()).collect::<Vec<_>>()
        };
        assert_eq!(run(0), run(0), "same thread, same stream");
        assert_ne!(run(0), run(1), "threads get independent streams");
    }

    #[test]
    fn rates_are_roughly_honoured() {
        let plan = FaultPlan::new(7).with_stm_aborts(250);
        let mut inj = Injector::new(plan, 3);
        let hits = (0..4000).filter(|_| inj.take_stm_abort()).count();
        assert!((600..1400).contains(&hits), "≈25% of 4000, got {hits}");
    }

    #[test]
    fn panic_cap_is_enforced() {
        let plan = FaultPlan::new(9).with_panics(1000, 2);
        let mut inj = Injector::new(plan, 0);
        let fired = (0..100).filter(|_| inj.take_panic()).count();
        assert_eq!(fired, 2);
    }

    #[test]
    fn zero_plan_injects_nothing() {
        let mut inj = Injector::new(FaultPlan::new(1), 0);
        assert!(!FaultPlan::new(1).is_active());
        assert!((0..1000).all(|_| {
            !inj.take_panic()
                && !inj.take_stm_abort()
                && inj.take_wakeup_delay().is_none()
                && inj.take_stall().is_none()
        }));
    }
}
