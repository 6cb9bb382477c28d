//! Seeded chaos suite: micro-benchmarks × {Global, MultiGrain, Stm} ×
//! fault plans, each run twice under a watchdog.
//!
//! The acceptance bar for the fault-injection harness:
//!
//! * every run **terminates** (watchdogged — a wedge is a test failure,
//!   not a hang) with either a result or a *typed* error;
//! * every run is **deterministic**: same plan, same digest (results,
//!   makespan, printed output, degradation counters), twice;
//! * locks are **quiescent** afterwards no matter how workers died;
//! * surviving multi-grain runs pass the Theorem-1 coverage check when
//!   re-executed with the checker armed (`SentinelConfig::validate`)
//!   under the same plan;
//! * an abort storm drives TL2 into its irrevocable fallback within the
//!   configured abort budget;
//! * every run records an event trace whose digest reproduces exactly,
//!   and the Eraser-style lockset validator finds **zero uncovered
//!   accesses** in it — chaos included, crashed threads included.

use atomic_lock_inference as ali;

use ali::interp::{
    DegradationReport, ExecMode, FaultPlan, InterpError, Machine, Options, SentinelConfig,
};
use ali::lir;
use ali::lockscheme::SchemeConfig;
use ali::pointsto::PointsTo;
use ali::replay::WeakenPlan;
use ali::workloads::{micro, Contention, RunSpec};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

const THREADS: usize = 4;
const K: usize = 3;
const WATCHDOG: Duration = Duration::from_secs(120);

/// The chaos corpus: small instances of three structurally different
/// micro-benchmarks (list, open hashtable, red-black tree).
fn specs() -> Vec<RunSpec> {
    vec![
        micro::list(Contention::High, 40, 20),
        micro::hashtable2(Contention::High, 60, 20),
        micro::rbtree(Contention::Low, 40, 20),
    ]
}

/// Three seeded plans covering the whole fault surface.
fn plans() -> [FaultPlan; 3] {
    [
        FaultPlan::new(0x0A11)
            .with_stm_aborts(60)
            .with_stalls(120, 400),
        FaultPlan::new(0x0B22)
            .with_panics(8, 1)
            .with_wakeup_delays(150, 300),
        FaultPlan::new(0x0C33)
            .with_stm_aborts(250)
            .with_panics(4, 1)
            .with_stalls(80, 250)
            .with_wakeup_delays(80, 200),
    ]
}

fn build(spec: &RunSpec, mode: ExecMode, opts: Options) -> Machine {
    let program = lir::compile(&spec.source).expect("chaos specs compile");
    let pt = Arc::new(PointsTo::analyze(&program));
    let cfg = SchemeConfig::full(K, program.elem_field_opt());
    let analysis = ali::lockinfer::analyze_program(&program, &pt, cfg);
    let transformed = Arc::new(ali::lockinfer::transform(&program, &analysis));
    Machine::new(transformed, pt, mode, opts)
}

/// Everything observable about one chaos run; two runs of the same
/// (spec, mode, plan) must produce equal digests.
#[derive(Debug, PartialEq)]
struct Digest {
    init: Result<i64, InterpError>,
    outcome: Option<Result<(Vec<i64>, u64), InterpError>>,
    output: Vec<String>,
    quiescent: bool,
    report: DegradationReport,
    check: Option<Result<i64, InterpError>>,
    /// FNV digest of the recorded event trace: equality means the two
    /// runs produced byte-identical canonical trace JSON.
    trace_digest: String,
}

/// Runs `spec` once under `mode` with `plan` injected and tracing on,
/// inside a watchdog: exceeding [`WATCHDOG`] is reported as a hang.
fn chaos_run(spec: RunSpec, mode: ExecMode, plan: FaultPlan) -> (Digest, ali::trace::Trace) {
    chaos_run_with(spec, mode, plan, Options::default())
}

/// [`chaos_run`] on top of `base`'s options: a wake policy steering the
/// virtual scheduler's release order, or a sentinel checking the run.
fn chaos_run_with(
    spec: RunSpec,
    mode: ExecMode,
    plan: FaultPlan,
    base: Options,
) -> (Digest, ali::trace::Trace) {
    let label = format!("{} [{mode:?}] plan {:#x}", spec.name, plan.seed);
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let opts = Options {
            heap_cells: spec.heap_cells,
            faults: Some(plan),
            stm_abort_budget: 64,
            trace: Some(ali::trace::TraceConfig::default()),
            ..base
        };
        let m = build(&spec, mode, opts);
        let (init_fn, init_args) = &spec.init;
        let init = m.run_named(init_fn, init_args);
        let (worker_fn, worker_args) = &spec.worker;
        let outcome = init
            .is_ok()
            .then(|| m.run_threads_virtual(worker_fn, THREADS, |_| worker_args.clone()));
        // The post-run invariant check only applies to surviving runs:
        // a mid-section panic under a lock runtime legitimately leaves
        // partial updates behind (locks are not a rollback mechanism).
        let check = match (&outcome, spec.check) {
            (Some(Ok(_)), Some(check_fn)) => Some(m.run_named(check_fn, &[])),
            _ => None,
        };
        let trace = m.take_trace().expect("chaos machines trace");
        let digest = Digest {
            init,
            outcome,
            output: m.output(),
            quiescent: m.locks_quiescent(),
            report: m.degradation_report(),
            check,
            trace_digest: trace.digest(),
        };
        let _ = tx.send((digest, trace));
    });
    match rx.recv_timeout(WATCHDOG) {
        Ok(digest) => {
            let _ = handle.join();
            digest
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => match handle.join() {
            Err(payload) => std::panic::resume_unwind(payload),
            Ok(()) => unreachable!("sender dropped without panicking"),
        },
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("{label}: run exceeded the {WATCHDOG:?} watchdog — a hang")
        }
    }
}

/// An error that surfaced from a chaos run must be one the fault model
/// can legitimately produce — never an internal invariant failure, an
/// unprotected access, or an uncontained panic.
fn assert_typed(label: &str, e: &InterpError) {
    assert!(
        matches!(
            e,
            InterpError::InjectedPanic { .. } | InterpError::SchedulerStalled { .. }
        ),
        "{label}: untyped or impossible chaos error: {e}"
    );
}

/// Every chaos trace must satisfy the lockset discipline: zero
/// uncovered in-section accesses, even in runs where threads died
/// mid-section (their accesses happened while the grants were held).
fn assert_lockset_clean(label: &str, trace: &ali::trace::Trace) {
    let v = ali::trace::validate(trace).expect("chaos traces are complete");
    assert!(
        v.violations.is_empty(),
        "{label}: uncovered accesses in the chaos trace: {:?}",
        v.violations
    );
    assert!(v.checked > 0, "{label}: the trace recorded no accesses");
}

#[test]
fn chaos_matrix_terminates_deterministically() {
    for mode in [ExecMode::Global, ExecMode::MultiGrain, ExecMode::Stm] {
        for plan in plans() {
            for spec in specs() {
                let label = format!("{} [{mode:?}] plan {:#x}", spec.name, plan.seed);
                let (first, trace) = chaos_run(spec.clone(), mode, plan);
                let (second, _) = chaos_run(spec, mode, plan);
                assert_eq!(first, second, "{label}: chaos must reproduce exactly");
                if let Err(e) = &first.init {
                    assert_typed(&label, e);
                }
                if let Some(Err(e)) = &first.outcome {
                    assert_typed(&label, e);
                }
                assert!(first.quiescent, "{label}: locks leaked");
                if let Some(check) = &first.check {
                    assert!(check.is_ok(), "{label}: survivor broke its invariant");
                }
                assert_lockset_clean(&label, &trace);
                // A worker that died to an injected panic shows up as a
                // crashed thread in the validator's report.
                if matches!(first.outcome, Some(Err(InterpError::InjectedPanic { .. })))
                    && mode != ExecMode::Stm
                {
                    let v = ali::trace::validate(&trace).unwrap();
                    assert!(
                        !v.crashed.is_empty(),
                        "{label}: a panicked worker must be reported as crashed"
                    );
                }
            }
        }
    }
}

/// Every wake policy must carry the chaos bar under fault-delayed
/// wakeups: deterministic (same digest twice), quiescent, typed
/// errors only, lockset-clean traces. Delayed wakeups are the nasty
/// case for a wake policy — the preferred waiter's preferential slot
/// can be stalled out from under it.
#[test]
fn chaos_wake_policies_reproduce_under_delayed_wakeups() {
    let plan = FaultPlan::new(0x0D44).with_wakeup_delays(150, 300);
    for kind in ali::interp::PolicyKind::ALL {
        // A fixed frozen hold table (what a prior profile would have
        // produced) — the decisions must be pure functions of it.
        let sched = ali::interp::SchedConfig {
            expected_hold: vec![(0, 60), (1, 15), (2, 40)],
            ..ali::interp::SchedConfig::from_profiles(kind, &[])
        };
        for spec in specs() {
            let label = format!("{} [MultiGrain] wake {}", spec.name, kind.tag());
            let steered = || Options {
                sched: Some(sched.clone()),
                ..Options::default()
            };
            let (first, trace) =
                chaos_run_with(spec.clone(), ExecMode::MultiGrain, plan, steered());
            let (second, _) = chaos_run_with(spec, ExecMode::MultiGrain, plan, steered());
            assert_eq!(first, second, "{label}: steered chaos must reproduce");
            if let Some(Err(e)) = &first.outcome {
                assert_typed(&label, e);
            }
            assert!(first.quiescent, "{label}: locks leaked");
            if let Some(check) = &first.check {
                assert!(check.is_ok(), "{label}: survivor broke its invariant");
            }
            assert_lockset_clean(&label, &trace);
        }
    }
}

#[test]
fn chaos_survivors_pass_theorem_1_coverage() {
    // Re-run the multi-grain combinations with the checker armed: every
    // in-section access of a surviving execution must be covered by a
    // held lock (Theorem 1), fault plan and all.
    for plan in plans() {
        for spec in specs() {
            let label = format!("{} [checked] plan {:#x}", spec.name, plan.seed);
            let checked = Options {
                sentinel: Some(SentinelConfig::validate()),
                ..Options::default()
            };
            let (digest, trace) = chaos_run_with(spec, ExecMode::MultiGrain, plan, checked);
            if let Err(e) = &digest.init {
                assert_typed(&label, e);
            }
            if let Some(Err(e)) = &digest.outcome {
                assert_typed(&label, e);
            }
            assert!(digest.quiescent, "{label}: locks leaked");
            assert_lockset_clean(&label, &trace);
        }
    }
}

/// Two structurally separate sections: section 0 (globals `a`/`b`,
/// two inferred fine locks) is the target of the seeded weakened
/// inference; section 1 (global `c`) must never be quarantined.
const SENTINEL_SRC: &str = r#"
    global a;
    global b;
    global c;
    fn setup(n) { a = n; b = n; c = n; }
    fn work(iters) {
        let i = 0;
        while (i < iters) {
            atomic { a = a + 1; b = b + a; nops(10); }
            atomic { c = c + 1; nops(5); }
            i = i + 1;
        }
        return 0;
    }
    fn probe() { return c; }
"#;

const SENTINEL_ITERS: i64 = 8;

/// Everything observable about one sentinel run; two runs must agree
/// exactly, weakened or not.
#[derive(Debug, PartialEq)]
struct SentinelDigest {
    outcome: Result<(Vec<i64>, u64), InterpError>,
    probe: i64,
    report: DegradationReport,
    /// The ladder history read off the trace's `["qr", …]` events, as
    /// `(section, healed, probation)` triples.
    history: Vec<(u32, bool, u32)>,
    quiescent: bool,
    trace_digest: String,
}

/// Runs [`SENTINEL_SRC`] under MultiGrain with the online sentinel on
/// (default tuning: probation 4, flap ×2) and an optional weakened-
/// inference injection, inside the chaos watchdog.
fn sentinel_run(weaken: Option<WeakenPlan>) -> (SentinelDigest, ali::trace::Trace) {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let opts = Options {
            heap_cells: 1 << 12,
            sentinel: Some(SentinelConfig::default()),
            trace: Some(ali::trace::TraceConfig::default()),
            ..Options::default()
        };
        let (program, _, mut transformed) =
            ali::lockinfer::compile_with_locks(SENTINEL_SRC, K).expect("sentinel source compiles");
        if let Some(w) = weaken {
            w.apply(&mut transformed);
        }
        let pt = Arc::new(PointsTo::analyze(&program));
        let m = Machine::new(Arc::new(transformed), pt, ExecMode::MultiGrain, opts);
        m.run_named("setup", &[0]).expect("sentinel init");
        let outcome = m.run_threads_virtual("work", THREADS, |_| vec![SENTINEL_ITERS]);
        let probe = m.run_named("probe", &[]).expect("sentinel probe");
        let trace = m.take_trace().expect("sentinel machines trace");
        let history = ali::trace::quarantine_history(&trace)
            .transitions
            .iter()
            .map(|t| (t.section, t.healed, t.probation))
            .collect();
        let digest = SentinelDigest {
            outcome,
            probe,
            report: m.degradation_report(),
            history,
            quiescent: m.locks_quiescent(),
            trace_digest: trace.digest(),
        };
        let _ = tx.send((digest, trace));
    });
    match rx.recv_timeout(WATCHDOG) {
        Ok(result) => {
            let _ = handle.join();
            result
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => match handle.join() {
            Err(payload) => std::panic::resume_unwind(payload),
            Ok(()) => unreachable!("sender dropped without panicking"),
        },
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("sentinel run exceeded the {WATCHDOG:?} watchdog — a hang")
        }
    }
}

#[test]
fn weakened_inference_is_caught_quarantined_and_healed() {
    let weaken = WeakenPlan {
        section: 0,
        drop_index: 0,
    };
    let (digest, trace) = sentinel_run(Some(weaken));
    // The run completes: violations are recorded, never fatal.
    assert!(
        digest.outcome.is_ok(),
        "weakened run must complete: {digest:?}"
    );
    assert!(digest.quiescent, "weakened run leaked locks");
    // Section 1 is untouched by the gap, so `c` stays exact.
    assert_eq!(digest.probe, THREADS as i64 * SENTINEL_ITERS);
    // The sentinel caught the seeded gap…
    let r = &digest.report;
    assert!(r.sentinel_violations >= 1, "no violations caught: {r}");
    assert!(!r.is_clean(), "a caught violation is a real soundness gap");
    // …quarantined exactly the offending section…
    assert!(!digest.history.is_empty());
    assert!(
        digest.history.iter().all(|&(s, _, _)| s == weaken.section),
        "only the weakened section may transition: {:?}",
        digest.history
    );
    // …healed it after the probation ran out, and damped the flap:
    // the second offense serves an exponentially longer term.
    let demote_terms: Vec<u32> = digest
        .history
        .iter()
        .filter(|&&(_, healed, _)| !healed)
        .map(|&(_, _, p)| p)
        .collect();
    assert!(
        demote_terms.len() >= 2,
        "the healed section must re-offend under the persistent gap: {:?}",
        digest.history
    );
    assert_eq!(
        &demote_terms[..2],
        &[4, 8],
        "flap damping must double the term"
    );
    assert!(
        r.sections_healed >= 1,
        "the section must be re-admitted after clean executions: {r}"
    );
    assert_eq!(r.sections_quarantined, demote_terms.len() as u64);
    // The ladder read off the trace's `["qr", …]` events agrees with
    // the sentinel's own counts.
    let h = ali::trace::quarantine_history(&trace);
    assert_eq!(h.demotions(), r.sections_quarantined);
    assert_eq!(h.heals(), r.sections_healed);
    assert_eq!(h.sections(), vec![weaken.section]);
    // And the whole thing reproduces exactly.
    let (second, _) = sentinel_run(Some(weaken));
    assert_eq!(digest, second, "weakened sentinel runs must reproduce");
}

#[test]
fn sentinel_stays_silent_on_sound_plans() {
    let (digest, trace) = sentinel_run(None);
    assert!(digest.outcome.is_ok(), "{digest:?}");
    assert!(digest.quiescent);
    let r = &digest.report;
    assert!(r.is_clean(), "sound plans must not trip the sentinel: {r}");
    assert_eq!(r.sentinel_violations, 0);
    assert!(digest.history.is_empty(), "{:?}", digest.history);
    assert!(
        !trace
            .events
            .iter()
            .any(|e| matches!(e.kind, ali::trace::EventKind::Quarantine { .. })),
        "a sound run must record no quarantine events"
    );
}

#[test]
fn abort_storm_forces_irrevocable_fallback_within_budget() {
    let spec = micro::hashtable2(Contention::High, 30, 20);
    let plan = FaultPlan::new(0x5707).with_stm_aborts(700);
    let label = format!("{} [Stm] abort storm", spec.name);
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let opts = Options {
            heap_cells: spec.heap_cells,
            faults: Some(plan),
            stm_abort_budget: 4,
            ..Options::default()
        };
        let m = build(&spec, ExecMode::Stm, opts);
        let (init_fn, init_args) = &spec.init;
        m.run_named(init_fn, init_args).expect("storm init");
        let (worker_fn, worker_args) = &spec.worker;
        m.run_threads_virtual(worker_fn, THREADS, |_| worker_args.clone())
            .expect("the fallback must carry the storm to completion");
        if let Some(check_fn) = spec.check {
            m.run_named(check_fn, &[]).expect("storm invariant");
        }
        let _ = tx.send(m.degradation_report());
    });
    let report = match rx.recv_timeout(WATCHDOG) {
        Ok(r) => r,
        Err(mpsc::RecvTimeoutError::Disconnected) => match handle.join() {
            Err(payload) => std::panic::resume_unwind(payload),
            Ok(()) => unreachable!(),
        },
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("{label}: hang"),
    };
    let _ = handle.join();
    assert!(
        report.stm_fallbacks > 0,
        "{label}: the storm must escalate to irrevocable mode: {report}"
    );
    assert!(
        report.stm_commits > 0,
        "{label}: and still commit: {report}"
    );
}
