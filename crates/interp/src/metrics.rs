//! Live run metrics (`ali_run_*`), published into an [`obs::Registry`]
//! handed in via [`Options::metrics`](crate::Options).
//!
//! The hot path touches only pre-resolved handles — relaxed atomic
//! increments, no registry lookups, no locks — so a metrics-armed run
//! executes the identical deterministic schedule and produces the
//! identical trace as an unarmed one (the `metrics-overhead` bench
//! gates the wall-clock cost). End-of-run totals from the lock
//! runtime, the STM space, and the sentinel are scraped once by
//! [`Machine::publish_metrics`](crate::Machine::publish_metrics).

use obs::Registry;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use trace::FaultClass;

/// Pre-resolved handles for every hot-path series.
pub(crate) struct Metrics {
    pub registry: Arc<Registry>,
    /// Section entries, every nesting level and every STM retry —
    /// mirrors the trace's `section_enter` count.
    pub section_entries: obs::Counter,
    /// STM abort-driven section retries.
    pub section_retries: obs::Counter,
    /// Injected faults, indexed like [`FaultClass::ALL`].
    pub faults: [obs::Counter; 4],
    /// Individual lock-node grants taken by `acquire_all`.
    pub lock_acquisitions: obs::Counter,
    /// Multi-grain plan revalidation retries.
    pub revalidations: obs::Counter,
    /// Wake-policy ranking decisions and threads woken by them.
    pub wake_decisions: obs::Counter,
    pub wake_woken: obs::Counter,
    /// Outermost-section ticks before/after the acquisition point
    /// (lock modes only — STM has no `plan_complete` marker).
    pub wait_ticks: obs::Hist,
    pub hold_ticks: obs::Hist,
}

impl Metrics {
    pub fn new(registry: Arc<Registry>) -> Metrics {
        // Live series are label-free (`Registry::snapshot`); the class
        // is part of the name instead.
        let faults = FaultClass::ALL
            .map(|class| registry.counter(&format!("ali_run_faults_{}_total", class.tag())));
        Metrics {
            section_entries: registry.counter("ali_run_section_entries_total"),
            section_retries: registry.counter("ali_run_section_retries_total"),
            faults,
            lock_acquisitions: registry.counter("ali_run_lock_acquisitions_total"),
            revalidations: registry.counter("ali_run_lock_revalidations_total"),
            wake_decisions: registry.counter("ali_run_wake_decisions_total"),
            wake_woken: registry.counter("ali_run_wake_woken_total"),
            wait_ticks: registry.histogram("ali_run_section_wait_ticks"),
            hold_ticks: registry.histogram("ali_run_section_hold_ticks"),
            registry,
        }
    }

    pub fn fault(&self, class: FaultClass) {
        let i = FaultClass::ALL
            .iter()
            .position(|&c| c == class)
            .expect("every fault class is indexed");
        self.faults[i].inc();
    }
}

impl crate::Machine {
    /// Scrapes the end-of-run totals — multi-grain lock runtime, STM
    /// space, sentinel ladder, virtual-time scheduler — into
    /// `ali_run_*` gauges on the registry this machine was built with.
    /// A no-op without one.
    /// Idempotent: gauges are set, not accumulated, so calling after
    /// each phase of a run is safe.
    pub fn publish_metrics(&self) {
        let Some(mx) = &self.metrics else { return };
        let reg = &mx.registry;
        let set = |name: &str, v: u64| reg.gauge(name).set(v);
        let mg = self.mg_stats();
        set("ali_run_mg_batches", mg.batches.load(Ordering::Relaxed));
        set(
            "ali_run_mg_node_acquisitions",
            mg.node_acquisitions.load(Ordering::Relaxed),
        );
        set(
            "ali_run_mg_poisoned_sessions",
            mg.poisoned_sessions.load(Ordering::Relaxed),
        );
        set(
            "ali_run_mg_unwind_releases",
            mg.unwind_releases.load(Ordering::Relaxed),
        );
        let stm = self.stm_stats();
        set("ali_run_stm_commits", stm.commits);
        set("ali_run_stm_aborts", stm.aborts);
        set("ali_run_stm_fallbacks", stm.fallbacks);
        let (violations, quarantined, healed) = match self.sentinel() {
            Some(s) => (
                s.sentinel_violations(),
                s.sections_quarantined(),
                s.sections_healed(),
            ),
            None => (0, 0, 0),
        };
        set("ali_run_sentinel_violations", violations);
        set("ali_run_sections_quarantined", quarantined);
        set("ali_run_sections_healed", healed);
        set("ali_run_heap_used", self.heap_used());
        set(
            "ali_run_sim_yield_points",
            self.sim_yield_points.load(Ordering::Relaxed),
        );
        set(
            "ali_run_sim_handoffs",
            self.sim_handoffs.load(Ordering::Relaxed),
        );
    }
}
