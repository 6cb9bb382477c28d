//! Property test for nested atomic sections (§5.3 `nlevel`) under
//! injected faults: every run either completes its sections atomically
//! or unwinds with all lock modes released — never a leaked mode, never
//! a hang, never an untyped crash.

mod common;

use common::machine_for;
use interp::{ExecMode, FaultPlan, InterpError, Options, SentinelConfig};
use proptest::prelude::*;

/// `inner` runs both as a nested section (from `outer`) and as an
/// outermost section of its own (from `flat`) — the paper's `nlevel`
/// scenario. The paired writes to `g1`/`g2` are the atomicity witness.
const SRC: &str = r#"
    global g1, g2;
    fn inner(v) {
        atomic { g1 = g1 + v; nops(10); g2 = g2 + v; }
        return 0;
    }
    fn outer(iters) {
        let i = 0;
        while (i < iters) {
            atomic {
                inner(2);
                nops(5);
                inner(3);
            }
            i = i + 1;
        }
        return 0;
    }
    fn flat(iters) {
        let i = 0;
        while (i < iters) { inner(1); i = i + 1; }
        return 0;
    }
    fn sum() { return g1 + g2; }
    fn diff() { return g1 - g2; }
"#;

/// The three disciplines, and MultiGrain under the Theorem-1 checker.
const ALL_RUNS: [(ExecMode, Option<SentinelConfig>); 4] = [
    (ExecMode::Global, None),
    (ExecMode::MultiGrain, None),
    (ExecMode::Stm, None),
    (ExecMode::MultiGrain, Some(SentinelConfig::validate())),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn nested_sections_complete_or_release_everything(
        seed in any::<u64>(),
        abort_pm in 0u16..150,
        panics in any::<bool>(),
    ) {
        for (mode, sentinel) in ALL_RUNS {
            let plan = FaultPlan::new(seed)
                .with_stm_aborts(abort_pm)
                .with_panics(if panics { 25 } else { 0 }, 1);
            let opts = Options {
                faults: Some(plan),
                stm_abort_budget: 8,
                sentinel,
                ..Options::default()
            };
            let m = machine_for(SRC, 3, mode, opts).unwrap();
            let nested = m.run_threads("outer", 4, |_| vec![10]);
            let outermost = m.run_threads("flat", 2, |_| vec![10]);
            for r in [&nested, &outermost] {
                if let Err(e) = r {
                    assert!(
                        matches!(e, InterpError::InjectedPanic { .. }),
                        "{mode:?} {sentinel:?}: only injected panics may surface, got {e}"
                    );
                }
            }
            // The ladder's core guarantee: whatever happened, no lock
            // mode outlives its session.
            assert!(m.locks_quiescent(), "{mode:?} {sentinel:?}: lock mode leaked past a fault");
            let injected_panics = m.degradation_report().injected_panics;
            if injected_panics == 0 {
                // Spurious aborts alone must be invisible: retries (or
                // the irrevocable fallback) land every increment.
                assert!(nested.is_ok() && outermost.is_ok(), "{mode:?} {sentinel:?}");
                let expected = 4 * 10 * (2 * 5) + 2 * 10 * 2;
                assert_eq!(m.run_named("sum", &[]).unwrap(), expected, "{mode:?} {sentinel:?}");
            }
            // STM rolls back a panicking transaction wholesale, so the
            // paired writes stay balanced even across injected panics;
            // lock runtimes promise that only for panic-free runs.
            if mode == ExecMode::Stm || injected_panics == 0 {
                assert_eq!(m.run_named("diff", &[]).unwrap(), 0, "{mode:?} {sentinel:?}");
            }
        }
    }
}
