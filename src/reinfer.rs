//! Quarantine-aware re-inference — the *measurement* half (DESIGN.md
//! §5.8).
//!
//! [`lockinfer::reinfer`] is the pure policy: a canonical violation
//! ledger in, diagnosed repair candidates and an acceptance rule out.
//! This module documents the loop [`crate::Pipeline::reinfer`] closes against
//! the deterministic interpreter through the shared evaluation harness
//! ([`crate::eval`]), and owns its result type:
//!
//! 1. **Record** the armed run (sentinel on, typically with a seeded
//!    [`interp::WeakenPlan`] fault) and snapshot the sentinel's
//!    canonical violation ledger — sorted by `(clock, tid, seq)`, so
//!    every downstream decision is thread-count independent.
//! 2. **Resolve** each violation address through the trace's
//!    allocation-table snapshot into its points-to class
//!    ([`trace::Trace::alloc_of`]), producing the [`lockinfer::Witness`]es the
//!    policy diagnoses.
//! 3. **Reference**: for every offending section, measure the cost of
//!    the quarantine ladder's *status quo* — the run with that section
//!    permanently demoted to the global lock
//!    ([`lockscheme::ConfigMap::demote_to_global`], weaken off).
//! 4. **Replay** every repair candidate on the identical deterministic
//!    schedule (weaken off, sentinel still armed), concurrently on the
//!    harness's eval-thread pool, and check each for *cleanliness*:
//!    zero sentinel violations **and** a lockset-clean validator
//!    verdict.
//! 5. **Admit** per section ([`lockinfer::reinfer::admit`]): the
//!    cheapest clean candidate strictly below the demotion reference's
//!    total wait, or nothing (the demotion stands — sound, just slow).
//! 6. **Heal**: re-run the original armed configuration with the
//!    admitted repairs installed dormant ([`crate::replay::RunConfig::repairs`]). The
//!    section offends, demotes, serves its probation, and heals *onto
//!    the repaired scheme*, ledgered as `["ri",section,candidate,1]`
//!    in the trace. The healed recording is stamped with full `run.*`
//!    metadata (including `run.repair.*`), so it replays byte-for-byte.
//!
//! Everything downstream of the recorded trace is deterministic, so
//! two runs over the same config produce byte-identical
//! [`RepairReport`] JSON and healed-trace digests **at every analysis
//! and eval thread count**.

use crate::replay::Recording;
use lockinfer::reinfer::RepairReport;

/// The full result of one re-inference pass.
#[derive(Clone, Debug)]
pub struct ReinferRun {
    /// Machine-readable repair record (all sections, all candidates).
    pub report: RepairReport,
    /// The armed baseline recording the ledger came from.
    pub baseline: Recording,
    /// The healed re-recording with every admitted repair installed,
    /// when at least one section's repair was admitted. Carries the
    /// demote → probation → heal → `ri`-accepted arc in its events.
    pub healed: Option<Recording>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::RunConfig;
    use crate::Pipeline;
    use interp::{ExecMode, SentinelConfig, WeakenPlan};
    use trace::EventKind;

    /// Two sections with disjoint footprints: section 0 updates two
    /// globals under real work (its plan has two inferred locks —
    /// either is droppable), section 1 hammers a third. Demoting
    /// section 0 to the global lock serializes section 1 against it;
    /// a coarse per-class repair does not — so the repair is strictly
    /// cheaper than the demotion and the acceptance rule admits it.
    const SRC: &str = r#"
        global a;
        global b;
        global c;
        fn setup(n) { a = n; b = n; c = n; }
        fn work(iters) {
            let i = 0;
            while (i < iters) {
                atomic { a = a + 1; b = b + a; nops(20); }
                atomic { c = c + 1; nops(20); }
                i = i + 1;
            }
            return 0;
        }
        fn total() { return a + c; }
    "#;

    fn cfg() -> RunConfig {
        RunConfig {
            name: "weakened-pair".into(),
            source: SRC.into(),
            k: 3,
            mode: ExecMode::MultiGrain,
            threads: 6,
            heap_cells: 1 << 14,
            seed: 13,
            quantum: 64,
            stm_abort_budget: 16,
            faults: None,
            sentinel: Some(SentinelConfig::default()),
            weaken: Some(WeakenPlan {
                section: 0,
                drop_index: 0,
            }),
            sched: None,
            repairs: Vec::new(),
            trace_capacity: 1 << 18,
            init: ("setup".into(), vec![0]),
            worker: ("work".into(), vec![24]),
            check: Some("total".into()),
        }
    }

    #[test]
    fn a_weakened_section_heals_onto_an_admitted_nonglobal_repair() {
        let run = Pipeline::new(cfg()).reinfer().unwrap();
        // The seeded fault produced violations and the ledger reached
        // the diagnosis.
        let sec = run
            .report
            .sections
            .iter()
            .find(|s| s.section == 0)
            .expect("the weakened section is reported");
        assert!(sec.violations > 0);
        assert!(!sec.candidates.is_empty());
        // A repair was admitted: lockset-clean and strictly cheaper
        // than the global-demotion reference.
        let w = sec.winner().expect("a repair is admitted");
        assert!(w.clean);
        assert!(w.cost.total_wait < sec.demoted.total_wait);
        assert!(!w.candidate.config.is_trivially_sound());
        // The healed run ledgers the re-admission onto the repair and
        // never demotes the section again afterwards.
        let healed = run.healed.as_ref().expect("healed recording exists");
        let events = &healed.trace.events;
        let accept = events
            .iter()
            .position(|e| {
                matches!(
                    e.kind,
                    EventKind::Reinfer {
                        section: 0,
                        accepted: true,
                        ..
                    }
                )
            })
            .expect("healed trace carries the ri-accepted ledger entry");
        assert!(
            !events.iter().skip(accept).any(|e| matches!(
                e.kind,
                EventKind::Quarantine {
                    section: 0,
                    healed: false,
                    ..
                }
            )),
            "zero post-repair violations: the repaired scheme must not re-offend"
        );
        // The healed recording is self-describing: replaying it
        // re-derives the repaired specs and reproduces the digest.
        assert!(
            healed.trace.meta_get("run.repair.0").is_some(),
            "repairs are stamped"
        );
        let again = crate::replay::replay(&healed.trace).unwrap();
        assert_eq!(again.trace.digest(), healed.trace.digest());
        assert_eq!(again.outcome, healed.outcome);
    }

    #[test]
    fn reports_and_healed_digests_are_identical_at_every_eval_thread_count() {
        let runs: Vec<ReinferRun> = [1usize, 2, 7]
            .iter()
            .map(|&t| Pipeline::new(cfg()).eval_threads(t).reinfer().unwrap())
            .collect();
        for r in &runs[1..] {
            assert_eq!(r.report.to_json(), runs[0].report.to_json());
            assert_eq!(r.baseline.trace.digest(), runs[0].baseline.trace.digest());
            match (&r.healed, &runs[0].healed) {
                (Some(a), Some(b)) => assert_eq!(a.trace.digest(), b.trace.digest()),
                (None, None) => {}
                other => panic!("healing diverged across eval thread counts: {other:?}"),
            }
        }
    }

    #[test]
    fn clean_armed_runs_are_left_untouched() {
        let mut c = cfg();
        c.weaken = None;
        let run = Pipeline::new(c).reinfer().unwrap();
        assert!(run.report.sections.is_empty());
        assert!(run.healed.is_none());
        // And the baseline stays fully replayable.
        let again = crate::replay::replay(&run.baseline.trace).unwrap();
        assert_eq!(again.trace.digest(), run.baseline.trace.digest());
    }

    #[test]
    fn unarmed_runs_are_rejected() {
        let mut c = cfg();
        c.sentinel = None;
        let err = Pipeline::new(c).reinfer().unwrap_err();
        assert!(err.contains("sentinel-armed"), "{err}");
    }
}
