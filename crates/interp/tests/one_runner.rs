//! One virtual thread executes at a time, observed from outside: a
//! virtual run is a function of its inputs and nothing else. Eight
//! virtual threads fight over one reader/writer-contended pair of
//! cells, under every wake policy, with and without delayed-wakeup
//! faults; every one of [`RUNS`] repetitions must return the same
//! per-thread results and makespan — and, traced, the same digest.
//!
//! The workers are resumed by one loop on the calling thread, so the
//! host's scheduling cannot reach a run; what repetition inside one
//! process can still catch is state that leaks from a run into the
//! next — a static, an address or a hash order in a result.

mod common;

use interp::{ExecMode, FaultPlan, InterpError, Options, PolicyKind, SchedConfig};

const THREADS: usize = 8;
const RUNS: usize = 200;

/// Writers bump both cells with a long hold; readers return what they
/// saw, so any reordering of section grants changes a result. `r` is
/// updated *outside* any section, right after a release — a data race
/// on real threads, deterministic because the releaser and the waiter
/// it just promoted never run side by side.
const SRC: &str = r#"
    global a, b, r;
    fn work(iters, tid) {
        let i = 0;
        let seen = 0;
        while (i < iters) {
            if ((i + tid) % 3 == 0) {
                atomic { a = a + 1; nops(40); b = b + a; }
            } else {
                atomic { seen = seen + a + b; nops(6); }
            }
            r = r * 3 + tid;
            seen = seen + r % 1000;
            nops(tid);
            i = i + 1;
        }
        return seen;
    }
"#;

type Outcome = (Result<(Vec<i64>, u64), InterpError>, Option<String>);

fn run(policy: Option<PolicyKind>, faults: Option<FaultPlan>, traced: bool) -> Outcome {
    let opts = Options {
        heap_cells: 1 << 10,
        faults,
        sched: policy.map(|policy| SchedConfig {
            policy,
            expected_hold: vec![(0, 60), (1, 12)],
            aging: 0,
        }),
        trace: traced.then(trace::TraceConfig::default),
        ..Options::default()
    };
    let m = common::machine_for(SRC, 3, ExecMode::MultiGrain, opts).expect("fixture compiles");
    let outcome = m.run_threads_virtual("work", THREADS, |tid| vec![12, tid as i64]);
    (outcome, m.take_trace().map(|t| t.digest()))
}

#[test]
fn repeated_runs_are_identical_under_every_policy_and_delayed_wakeups() {
    let policies = [
        None,
        Some(PolicyKind::ShortestExpectedHold),
        Some(PolicyKind::ReaderBatch),
    ];
    let plans = [
        None,
        Some(FaultPlan::new(0xD1A7).with_wakeup_delays(300, 170)),
    ];
    for policy in policies {
        for plan in plans {
            for traced in [false, true] {
                let label = format!("{policy:?} / {plan:?} / traced={traced}");
                let first = run(policy, plan, traced);
                let distinct = (1..RUNS)
                    .filter(|_| run(policy, plan, traced) != first)
                    .count();
                let (outcome, digest) = first;
                let (results, makespan) = outcome.unwrap_or_else(|e| panic!("{label}: {e}"));
                assert_eq!(digest.is_some(), traced);
                assert!(
                    makespan > 0 && results.iter().any(|&r| r > 0),
                    "{label}: the fixture did no work"
                );
                assert_eq!(
                    distinct, 0,
                    "{label}: {distinct} of {RUNS} runs differ from the first"
                );
            }
        }
    }
}

/// Workers that die mid-section, holding the contended lock, leave the
/// schedule running: the run returns the typed error, every lock is
/// released, the survivors complete all their sections, and the last
/// clock anyone reaches is the one the OS-thread scheduler produced
/// for this seed.
#[test]
fn an_injected_panic_under_virtual_time_leaves_the_rest_running() {
    const ITERS: u64 = 12;
    let opts = Options {
        heap_cells: 1 << 10,
        faults: Some(FaultPlan::new(0xBAD).with_panics(3, 1)),
        trace: Some(trace::TraceConfig::default()),
        ..Options::default()
    };
    let m = common::machine_for(SRC, 3, ExecMode::MultiGrain, opts).expect("fixture compiles");
    let err = m
        .run_threads_virtual("work", THREADS, |tid| vec![ITERS as i64, tid as i64])
        .unwrap_err();
    let trace = m.take_trace().expect("tracing was enabled");
    let last_clock = trace.events.iter().map(|e| e.clock).max();
    let count = |kind| trace.counts().get(kind).copied().unwrap_or(0);
    let (exits, panics) = (count("section_exit"), count("fault"));
    assert!(matches!(err, InterpError::InjectedPanic { .. }), "{err}");
    assert!(m.locks_quiescent(), "locks leaked past the panic");
    assert!(
        (1..THREADS as u64).contains(&panics),
        "{panics} of {THREADS} workers died: the fixture needs both kinds"
    );
    assert!(
        exits >= ITERS * (THREADS as u64 - panics),
        "a survivor did not finish: {exits} section exits, {panics} deaths"
    );
    assert_eq!((last_clock, exits, panics), PARENT_RUN);
}

/// `(max event clock, section exits, deaths)` of the run above when
/// virtual threads were OS threads.
const PARENT_RUN: (Option<u64>, u64, u64) = (Some(9228), 75, 2);
