//! Property: the exported event trace is a pure function of the run's
//! inputs. For any (seed, fault plan, mode, thread count), two traced
//! virtual-time executions produce **byte-identical** canonical JSON —
//! the property that makes [`trace::Trace::digest`] a fingerprint of a
//! concurrent execution and record/replay possible at all.

mod common;

use interp::{ExecMode, FaultPlan, Options};
use proptest::prelude::*;

const SRC: &str = r#"
    struct node { next; val; }
    global head, total;
    fn setup(n) {
        let i = 0;
        while (i < n) {
            let e = new node;
            e->val = i;
            e->next = head;
            head = e;
            i = i + 1;
        }
    }
    fn work(iters, amount) {
        let i = 0;
        while (i < iters) {
            atomic {
                let e = head;
                while (e != null) { total = total + e->val; e = e->next; }
                total = total + amount;
                nops(30);
            }
            i = i + 1;
        }
        return 0;
    }
    fn sum() { return total; }
"#;

fn traced_json(seed: u64, plan: FaultPlan, mode: ExecMode, threads: usize) -> String {
    let opts = Options {
        heap_cells: 1 << 16,
        seed,
        faults: Some(plan),
        stm_abort_budget: 8,
        trace: Some(trace::TraceConfig::default()),
        ..Options::default()
    };
    let m = common::machine_for(SRC, 3, mode, opts).expect("fixture compiles");
    m.run_named("setup", &[8]).expect("setup is fault-free");
    // Chaos plans may kill the run; the trace up to the failure still
    // has to reproduce.
    let _ = m.run_threads_virtual("work", threads, |tid| vec![12, tid as i64]);
    m.take_trace().expect("tracing was enabled").to_json()
}

fn plan_strategy() -> impl Strategy<Value = FaultPlan> {
    (
        any::<u64>(),
        0u16..40,
        0u16..120,
        (0u16..200, 1u64..400),
        (0u16..200, 1u64..400),
    )
        .prop_map(
            |(seed, panic_pm, abort_pm, (wake_pm, wake_t), (stall_pm, stall_t))| {
                FaultPlan::new(seed)
                    .with_panics(panic_pm, 1)
                    .with_stm_aborts(abort_pm)
                    .with_wakeup_delays(wake_pm, wake_t)
                    .with_stalls(stall_pm, stall_t)
            },
        )
}

fn mode_strategy() -> impl Strategy<Value = ExecMode> {
    proptest::sample::select(vec![ExecMode::Global, ExecMode::MultiGrain, ExecMode::Stm])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn same_seed_and_plan_export_identical_traces(
        seed in any::<u64>(),
        plan in plan_strategy(),
        mode in mode_strategy(),
        threads in 1usize..5,
    ) {
        let a = traced_json(seed, plan, mode, threads);
        let b = traced_json(seed, plan, mode, threads);
        prop_assert_eq!(a, b, "trace bytes diverged for {:?} t={}", mode, threads);
    }
}
