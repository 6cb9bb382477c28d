//! Determinism properties of the profile-guided adaptation loop
//! (DESIGN.md §5.4): for one recorded trace and candidate set, the
//! decision — every candidate, every replayed cost, the selected
//! override, the report bytes — must be identical at every eval thread
//! count, on every run. A selected override must also strictly
//! reduce total replayed wait.

use atomic_lock_inference::adapt::{candidates, Adjustment, PlanCost};
use atomic_lock_inference::replay::RunConfig;
use atomic_lock_inference::Pipeline;
use interp::ExecMode;
use lockinfer::AdaptPolicy;
use lockscheme::{ConfigMap, SchemeConfig};
use proptest::prelude::*;
use workloads::{micro, Contention, RunSpec};

fn spec_for(which: usize, ops: i64) -> RunSpec {
    match which {
        0 => micro::list(Contention::High, ops, 10),
        1 => micro::hashtable2(Contention::High, ops, 10),
        _ => micro::th(Contention::High, ops, 10),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The whole loop — record, profile, propose, replay, select — is a
    /// pure function of the run configuration: the loop's eval
    /// parallelism must never leak into the decision.
    #[test]
    fn decision_is_identical_at_every_eval_thread_count(
        which in 0usize..3,
        seed in any::<u64>(),
        threads in 2usize..5,
        ops in 20i64..50,
    ) {
        let spec = spec_for(which, ops);
        let mut cfg = RunConfig::from_spec(&spec, 9, ExecMode::MultiGrain, threads);
        cfg.seed = seed;
        let runs: Vec<_> = [1usize, 2, 7]
            .iter()
            .map(|&t| {
                Pipeline::new(cfg.clone())
                    .eval_threads(t)
                    .adapt(&AdaptPolicy)
                    .unwrap()
            })
            .collect();
        let first = &runs[0];
        for r in &runs[1..] {
            prop_assert_eq!(r.report.to_json(), first.report.to_json());
            prop_assert_eq!(r.baseline.trace.digest(), first.baseline.trace.digest());
            match (&r.adapted, &first.adapted) {
                (Some(a), Some(b)) => prop_assert_eq!(a.trace.digest(), b.trace.digest()),
                (None, None) => {}
                _ => prop_assert!(false, "selection diverged across eval thread counts"),
            }
        }
    }

    /// The policy itself is pure: re-deriving candidates from the same
    /// recorded trace always yields the same overrides. Every
    /// scheme-changing override differs from the section's base
    /// configuration; wake-policy candidates steer the scheduler
    /// instead and must leave the scheme exactly at base.
    #[test]
    fn candidate_overrides_are_stable_and_canonical(
        which in 0usize..3,
        seed in any::<u64>(),
        ops in 20i64..50,
    ) {
        let spec = spec_for(which, ops);
        let mut cfg = RunConfig::from_spec(&spec, 9, ExecMode::MultiGrain, 4);
        cfg.seed = seed;
        let rec = atomic_lock_inference::replay::record(&cfg).unwrap();
        let profiles = trace::profile(&rec.trace);
        let base = ConfigMap::uniform(SchemeConfig::full(
            9,
            lir::compile(&cfg.source).unwrap().elem_field_opt(),
        ));
        let a = candidates(&profiles, &base);
        let b = candidates(&profiles, &base);
        prop_assert_eq!(&a, &b);
        for c in &a {
            if let Adjustment::WakePolicy(_) = c.adjustment {
                // The scheme is untouched; the adjustment lives in the
                // run's sched config.
                prop_assert!(c.config == base.for_section(c.section));
                continue;
            }
            prop_assert!(c.config != base.for_section(c.section));
            // The override survives the map's canonicalization.
            let map = c.config_map(&base);
            prop_assert_eq!(map.overrides().len(), 1);
            prop_assert_eq!(map.for_section(c.section), c.config);
        }
    }
}

/// A selected override must beat the baseline strictly — never ties,
/// never regressions (the `adapt-smoke` CI invariant).
#[test]
fn selected_candidate_strictly_reduces_wait() {
    let spec = micro::list(Contention::High, 120, 20);
    let cfg = RunConfig::from_spec(&spec, 9, ExecMode::MultiGrain, 8);
    let pipeline = Pipeline::new(cfg);
    let run = pipeline.adapt(&AdaptPolicy).unwrap();
    let base: PlanCost = run.report.baseline;
    if let Some(w) = run.report.winner() {
        assert!(
            w.cost.total_wait < base.total_wait,
            "winner {} !< baseline {}",
            w.cost.total_wait,
            base.total_wait
        );
    }
    // And repeated runs agree byte for byte.
    let again = pipeline.adapt(&AdaptPolicy).unwrap();
    assert_eq!(run.report.to_json(), again.report.to_json());
}
