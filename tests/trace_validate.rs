//! End-to-end checks of the tracing subsystem against the inference
//! pipeline:
//!
//! * **positive** — on every micro and STAMP-like workload, under all
//!   three runtimes, the Eraser-style lockset validator finds zero
//!   uncovered in-section accesses in the recorded trace (the runtime
//!   counterpart of the paper's Theorem 1);
//! * **negative** — deliberately weakening the inference by dropping
//!   one inferred lock from an `acquireAll` is *caught*: the validator
//!   flags the now-unlicensed access;
//! * **replay** — a trace written to disk re-executes to the same
//!   digest, twice, including a run that crashed under fault injection;
//! * **size** — a recorded event is stored in at most eight bytes.

use atomic_lock_inference as ali;

use ali::interp::{ExecMode, FaultPlan, Machine, Options, SentinelConfig};
use ali::lir;
use ali::pointsto::PointsTo;
use ali::replay::{self, RunConfig, WeakenPlan};
use ali::workloads::{micro, stamp, Contention, RunSpec};
use std::sync::Arc;

const THREADS: usize = 4;

fn corpus() -> Vec<RunSpec> {
    vec![
        micro::list(Contention::Low, 40, 5),
        micro::hashtable(Contention::High, 60, 5),
        micro::hashtable2(Contention::High, 60, 5),
        micro::rbtree(Contention::Low, 40, 5),
        micro::th(Contention::Low, 40, 5),
        stamp::genome(60, 5),
        stamp::vacation(60, 5),
        stamp::kmeans(60, 5),
    ]
}

#[test]
fn every_workload_validates_clean_under_every_runtime() {
    for spec in corpus() {
        for mode in [ExecMode::Global, ExecMode::MultiGrain, ExecMode::Stm] {
            for k in [0, 9] {
                let label = format!("{} [{mode:?}] k={k}", spec.name);
                let cfg = RunConfig::from_spec(&spec, k, mode, THREADS);
                let rec = replay::record(&cfg).unwrap_or_else(|e| panic!("{label}: {e}"));
                assert!(
                    rec.outcome.error.is_none(),
                    "{label}: {:?}",
                    rec.outcome.error
                );
                let v =
                    ali::trace::validate(&rec.trace).unwrap_or_else(|e| panic!("{label}: {e:?}"));
                assert!(
                    v.passed(),
                    "{label}: uncovered accesses: {:?}",
                    v.violations
                );
                assert!(v.checked > 0, "{label}: no accesses recorded");
            }
        }
    }
}

/// Builds a MultiGrain machine from `source` at `k`, optionally
/// dropping the lock descriptor at `drop_spec` = (section occurrence,
/// index) from its `acquireAll`, and returns the validated trace
/// verdict.
#[test]
fn recorded_events_cost_at_most_eight_bytes_each() {
    // The byte-coded log's size is a function of the events alone, so
    // this bound is the same on every machine.
    for spec in [
        micro::hashtable2(Contention::High, 60, 5),
        micro::th(Contention::High, 60, 5),
        stamp::kmeans(60, 5),
        stamp::genome(60, 5),
    ] {
        for mode in [ExecMode::MultiGrain, ExecMode::Stm] {
            let cfg = RunConfig::from_spec(&spec, 9, mode, THREADS);
            let t = replay::record(&cfg).expect("records").trace;
            let per_event = t.events.byte_len() as f64 / t.events.len() as f64;
            assert!(
                per_event <= 8.0,
                "{} [{mode:?}]: {per_event:.2} B/event over {} events",
                spec.name,
                t.events.len()
            );
        }
    }
}

fn run_weakened(source: &str, k: usize, drop_spec: Option<usize>) -> ali::trace::Validation {
    let program = lir::compile(source).expect("fixture compiles");
    let pt = Arc::new(PointsTo::analyze(&program));
    let cfg = ali::lockscheme::SchemeConfig::full(k, program.elem_field_opt());
    let analysis = ali::lockinfer::analyze_program(&program, &pt, cfg);
    let mut transformed = ali::lockinfer::transform(&program, &analysis);
    if let Some(i) = drop_spec {
        let weaken = WeakenPlan {
            section: 0,
            drop_index: i,
        };
        let planned = weaken.apply(&mut transformed);
        assert!(
            planned.is_some_and(|n| i < n),
            "nothing to drop at index {i}"
        );
    }
    let opts = Options {
        heap_cells: 1 << 16,
        trace: Some(ali::trace::TraceConfig::default()),
        ..Options::default()
    };
    let m = Machine::new(Arc::new(transformed), pt, ExecMode::MultiGrain, opts);
    m.run_threads_virtual("work", THREADS, |_| vec![20])
        .expect("weakened locks still run — they just race");
    ali::trace::validate(&m.take_trace().expect("tracing on")).expect("complete trace")
}

#[test]
fn dropping_one_inferred_lock_is_caught() {
    let src = r#"
        global a, b;
        fn work(iters) {
            let i = 0;
            while (i < iters) {
                atomic { a = a + 1; b = b + a; nops(10); }
                i = i + 1;
            }
            return 0;
        }
    "#;
    // Intact inference: clean.
    let v = run_weakened(src, 3, None);
    assert!(v.passed(), "intact locks must validate: {:?}", v.violations);
    assert!(v.checked > 0);
    // Count the inferred descriptors on the section.
    let program = lir::compile(src).unwrap();
    let pt = Arc::new(PointsTo::analyze(&program));
    let cfg = ali::lockscheme::SchemeConfig::full(3, program.elem_field_opt());
    let analysis = ali::lockinfer::analyze_program(&program, &pt, cfg);
    let transformed = ali::lockinfer::transform(&program, &analysis);
    let n_specs = transformed
        .functions
        .iter()
        .flat_map(|f| &f.body)
        .find_map(|ins| match ins {
            lir::Instr::AcquireAll(_, specs) => Some(specs.len()),
            _ => None,
        })
        .expect("the section was transformed");
    assert!(n_specs > 0, "inference produced no locks to weaken");
    // Dropping any single descriptor must uncover at least one access
    // in at least one weakened variant (for this two-global section,
    // every descriptor is load-bearing).
    let mut caught = 0;
    for i in 0..n_specs {
        let v = run_weakened(src, 3, Some(i));
        if !v.violations.is_empty() {
            caught += 1;
        }
    }
    assert!(
        caught > 0,
        "weakened inference went unnoticed across {n_specs} variants"
    );
}

/// A sentinel-armed weakened run that crashes mid-section while the
/// demoted section is still serving probation: the reconstructed
/// quarantine history must suppress the half-open entry (never claim
/// live state the run can't prove), survive a JSON round trip intact,
/// and the crashed trace must still replay byte for byte.
#[test]
fn crash_inside_probation_suppresses_history_and_round_trips() {
    let spec = RunSpec {
        name: "probation-crash".into(),
        source: r#"
            global a, b;
            fn setup(n) { a = n; b = n; }
            fn work(iters) {
                let i = 0;
                while (i < iters) {
                    atomic { a = a + 1; b = b + a; nops(10); }
                    i = i + 1;
                }
                return 0;
            }
        "#
        .into(),
        init: ("setup", vec![0]),
        worker: ("work", vec![30]),
        check: None,
        heap_cells: 1 << 12,
    };
    let mut cfg = RunConfig::from_spec(&spec, 3, ExecMode::MultiGrain, THREADS);
    cfg.sentinel = Some(SentinelConfig::default());
    cfg.weaken = Some(WeakenPlan {
        section: 0,
        drop_index: 0,
    });
    cfg.faults = Some(FaultPlan::new(0x9A1C).with_panics(6, 1));
    let rec = replay::record(&cfg).expect("recording survives the crash");
    let h = ali::trace::quarantine_history(&rec.trace);
    assert!(
        h.demotions() > 0,
        "the weakened section must demote before the crash"
    );
    assert!(
        h.open.is_empty(),
        "a crashed run cannot prove its live quarantine state: {h:?}"
    );
    assert!(
        h.suppressed > 0,
        "the probation the crash interrupted is suppressed, not claimed: {h:?}"
    );
    // JSON round trip preserves both the bytes and the reconstruction.
    let loaded = ali::trace::Trace::from_json(&rec.trace.to_json()).expect("parse trace");
    assert_eq!(loaded.digest(), rec.trace.digest(), "JSON round-trip");
    let h2 = ali::trace::quarantine_history(&loaded);
    assert_eq!(h2, h, "history diverged across the round trip");
    assert_eq!(
        ali::trace::quarantine::render(&h2),
        ali::trace::quarantine::render(&h)
    );
    // The crashed, truncated run replays exactly.
    let again = replay::replay(&loaded).expect("crashed runs replay");
    assert_eq!(again.trace.digest(), rec.trace.digest());
    assert_eq!(again.outcome, rec.outcome);
}

#[test]
fn trace_file_replays_to_the_same_digest_twice() {
    let spec = micro::hashtable2(Contention::High, 50, 5);
    let mut cfg = RunConfig::from_spec(&spec, 9, ExecMode::MultiGrain, THREADS);
    // Crash the run on purpose: the failure must replay exactly too.
    cfg.faults = Some(FaultPlan::new(0x0B22).with_panics(8, 1));
    let rec = replay::record(&cfg).expect("recording survives the crash");
    let path = std::env::temp_dir().join("ali-trace-validate-roundtrip.json");
    std::fs::write(&path, rec.trace.to_json()).expect("write trace");
    let loaded = ali::trace::Trace::from_json(&std::fs::read_to_string(&path).expect("read"))
        .expect("parse trace");
    assert_eq!(loaded.digest(), rec.trace.digest(), "JSON round-trip");
    let once = replay::replay(&loaded).expect("first replay");
    let twice = replay::replay(&loaded).expect("second replay");
    assert_eq!(once.trace.digest(), loaded.digest(), "replay == recording");
    assert_eq!(
        once.trace.digest(),
        twice.trace.digest(),
        "replay is stable"
    );
    assert_eq!(once.outcome, twice.outcome);
    let _ = std::fs::remove_file(&path);
}

/// Real OS threads, traced: no scheduler takes turns, so the recorder's
/// log is the only total order the events get. It must still be one
/// strictly increasing epoch sequence that keeps every thread's events
/// in program order, and the lockset validator must accept it.
#[test]
fn traced_real_threads_record_one_ordered_log() {
    use ali::trace::sections::{Cursor, Step};
    use std::collections::BTreeMap;

    const ITERS: usize = 40;
    let src = r#"
        global a, b;
        fn work(iters) {
            let i = 0;
            while (i < iters) {
                atomic { a = a + 1; nops(5); }
                atomic { b = b + a; }
                i = i + 1;
            }
            return 0;
        }
    "#;
    for mode in [ExecMode::MultiGrain, ExecMode::Stm] {
        let program = lir::compile(src).expect("fixture compiles");
        let pt = Arc::new(PointsTo::analyze(&program));
        let cfg = ali::lockscheme::SchemeConfig::full(3, program.elem_field_opt());
        let analysis = ali::lockinfer::analyze_program(&program, &pt, cfg);
        let transformed = ali::lockinfer::transform(&program, &analysis);
        let opts = Options {
            heap_cells: 1 << 12,
            trace: Some(ali::trace::TraceConfig::default()),
            ..Options::default()
        };
        let m = Machine::new(Arc::new(transformed), pt, mode, opts);
        m.run_threads("work", THREADS, |_| vec![ITERS as i64])
            .unwrap_or_else(|e| panic!("{mode:?}: {e}"));
        let t = m.take_trace().expect("tracing on");
        assert_eq!(t.dropped, 0, "{mode:?}");
        let epochs: Vec<u64> = t.events.iter().map(|e| e.epoch).collect();
        assert!(
            epochs.windows(2).all(|w| w[0] < w[1]),
            "{mode:?}: epochs must strictly increase"
        );
        // Each thread completes its two sections alternately, `ITERS`
        // times: its events came out in the order it ran them.
        let mut threads: BTreeMap<u32, (Cursor, Vec<u32>)> = BTreeMap::new();
        for e in &t.events {
            let (cursor, done) = threads.entry(e.tid).or_default();
            if let Step::ExitedOutermost(x) = cursor.step(&e) {
                done.push(x.section);
            }
        }
        assert_eq!(threads.len(), THREADS, "{mode:?}");
        let first = &threads[&0].1;
        let pair = [first[0], first[1]];
        assert_ne!(pair[0], pair[1], "{mode:?}");
        for (tid, (cursor, done)) in &threads {
            assert!(
                !cursor.crashed(),
                "{mode:?}: thread {tid} ends inside a section"
            );
            assert_eq!(*done, pair.repeat(ITERS), "{mode:?}: thread {tid}");
        }
        let v = ali::trace::validate(&t).unwrap_or_else(|e| panic!("{mode:?}: {e:?}"));
        assert!(v.passed(), "{mode:?}: {:?}", v.violations);
        assert!(v.checked > 0, "{mode:?}");
    }
}
