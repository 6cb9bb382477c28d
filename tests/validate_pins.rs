//! The Theorem-1 checker's verdict on every single-lock weakening,
//! pinned.
//!
//! For each program below, at k ∈ {0, 3, 9} and on 1 and 4 virtual
//! threads, every `WeakenPlan { section, drop_index }` the inferred
//! plan admits is run twice under MultiGrain with tracing on: once
//! with the checker armed (`SentinelConfig::validate`), whose outcome
//! is a result or the hard `Unprotected` error naming the earliest
//! uncovered access, and once unchecked, whose trace the offline
//! lockset validator then checks. Both lines of every configuration are
//! held to `tests/golden/validate_pins.txt`, which was recorded before
//! the checker's coverage test was rewritten; it is never regenerated
//! to make this test pass. Four of its lines (`hashtable2_mg_k9`, four
//! threads) were re-pinned once, when a virtual run began reporting its
//! earliest error rather than that of its lowest failing thread id:
//! they used to name a later miss of a lower-numbered thread.
//!
//! The two checkers must also agree: where the checker stops at an
//! uncovered access, the validator's first violation in epoch order is
//! that same `(section, cell, effect)`, and where the checker runs to
//! the end, the trace is clean. The tracing makes the two runs follow
//! one schedule up to the checker's error (the check charges no virtual
//! time). The failing access is itself traced, so the checked run's own
//! trace must name it as its first violation too.

use atomic_lock_inference as ali;

use ali::interp::{ExecMode, InterpError, Machine, Options, SentinelConfig};
use ali::lir;
use ali::pointsto::PointsTo;
use ali::replay::{RunConfig, WeakenPlan};
use std::fmt::Write as _;
use std::sync::Arc;

/// One program and how to drive it.
struct Fixture {
    name: String,
    source: String,
    init: Option<(String, Vec<i64>)>,
    worker: (String, Vec<i64>),
    heap_cells: usize,
    seed: u64,
    quantum: u64,
}

/// The weakened section of `tests/trace_validate.rs`.
const TRACE_VALIDATE_SRC: &str = r#"
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

/// `SENTINEL_SRC` of `tests/chaos.rs`.
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

fn fixtures() -> Vec<Fixture> {
    let defaults = Options::default();
    let mut all = vec![
        Fixture {
            name: "trace_validate".into(),
            source: TRACE_VALIDATE_SRC.into(),
            init: None,
            worker: ("work".into(), vec![20]),
            heap_cells: 1 << 16,
            seed: defaults.seed,
            quantum: defaults.quantum,
        },
        Fixture {
            name: "chaos_sentinel".into(),
            source: SENTINEL_SRC.into(),
            init: Some(("setup".into(), vec![0])),
            worker: ("work".into(), vec![8]),
            heap_cells: 1 << 12,
            seed: defaults.seed,
            quantum: defaults.quantum,
        },
    ];
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("tests/corpus exists")
        .map(|e| e.expect("corpus entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    assert_eq!(files.len(), 3, "the corpus holds three programs: {files:?}");
    for path in files {
        let text = std::fs::read_to_string(&path).unwrap();
        let t = ali::trace::Trace::from_json(&text).unwrap();
        let cfg = RunConfig::from_trace(&t).unwrap();
        all.push(Fixture {
            name: path.file_stem().unwrap().to_string_lossy().into_owned(),
            source: cfg.source,
            init: Some(cfg.init),
            worker: cfg.worker,
            heap_cells: cfg.heap_cells,
            seed: cfg.seed,
            quantum: cfg.quantum,
        });
    }
    all
}

/// Every single-spec weakening of `transformed`, in section order,
/// with the program it leaves.
fn weakenings(transformed: &lir::Program) -> Vec<(WeakenPlan, Arc<lir::Program>)> {
    let mut plans = Vec::new();
    for func in &transformed.functions {
        for ins in &func.body {
            if let lir::Instr::AcquireAll(sid, specs) = ins {
                plans.extend((0..specs.len()).map(|drop_index| WeakenPlan {
                    section: sid.0,
                    drop_index,
                }));
            }
        }
    }
    plans.sort_by_key(|w| (w.section, w.drop_index));
    plans.dedup();
    plans
        .into_iter()
        .map(|w| {
            let mut weakened = transformed.clone();
            w.apply(&mut weakened);
            (w, Arc::new(weakened))
        })
        .collect()
}

/// An uncovered access as both checkers name it.
type Miss = (u32, u64, bool);

fn effect(write: bool) -> &'static str {
    if write {
        "write"
    } else {
        "read"
    }
}

/// Runs `fx`'s `weakened` program under MultiGrain with tracing on,
/// checked by `sentinel` when one is given.
fn run(
    fx: &Fixture,
    weakened: &Arc<lir::Program>,
    pt: &Arc<PointsTo>,
    sentinel: Option<SentinelConfig>,
    threads: usize,
) -> (Result<(Vec<i64>, u64), InterpError>, Machine) {
    let opts = Options {
        heap_cells: fx.heap_cells,
        seed: fx.seed,
        quantum: fx.quantum,
        sentinel,
        trace: Some(ali::trace::TraceConfig::default()),
        ..Options::default()
    };
    let m = Machine::new(
        Arc::clone(weakened),
        Arc::clone(pt),
        ExecMode::MultiGrain,
        opts,
    );
    // The weakening applies to the setup call too, so a setup that
    // trips the checker ends the run there.
    let outcome = match &fx.init {
        Some((f, args)) => m.run_named(f, args).map(drop),
        None => Ok(()),
    }
    .and_then(|()| m.run_threads_virtual(&fx.worker.0, threads, |_| fx.worker.1.clone()));
    (outcome, m)
}

/// The pinned lines of one configuration, and whether the two checkers
/// named the same first miss.
fn configuration(
    fx: &Fixture,
    weakened: &Arc<lir::Program>,
    pt: &Arc<PointsTo>,
    threads: usize,
) -> (String, bool) {
    let checker = Some(SentinelConfig::validate());
    let (validate, checked) = run(fx, weakened, pt, checker, threads);
    let (mg, m) = run(fx, weakened, pt, None, threads);
    let mut lines = String::new();
    let validate_miss: Option<Miss> = match &validate {
        Ok((results, makespan)) => {
            writeln!(lines, "  validate ok {results:?} makespan {makespan}").unwrap();
            None
        }
        Err(InterpError::Unprotected {
            func,
            pc,
            addr,
            write,
            section,
        }) => {
            writeln!(
                lines,
                "  validate unprotected {} of cell {addr} in section {} at {func}:{pc}",
                effect(*write),
                section.0
            )
            .unwrap();
            Some((section.0, *addr, *write))
        }
        Err(e) => panic!("{}: the checked run failed otherwise: {e}", fx.name),
    };
    if let Some(miss) = validate_miss {
        // The failing access was traced before the check ended its
        // thread, and every access before it in the run's one order
        // passed the same predicate the validator asks.
        let own = checked.take_trace().expect("traced");
        let v = ali::trace::validate(&own).expect("complete trace");
        let first = v.violations.iter().min_by_key(|v| v.epoch);
        assert_eq!(
            first.map(|f| (f.section, f.addr, f.write)),
            Some(miss),
            "{}: the checked run's own trace names another first miss",
            fx.name
        );
    }
    let (results, makespan) =
        mg.unwrap_or_else(|e| panic!("{}: weakened MultiGrain: {e}", fx.name));
    let trace = m.take_trace().expect("traced");
    let v = ali::trace::validate(&trace).expect("complete trace");
    let first = v.violations.iter().min_by_key(|v| v.epoch);
    let mg_miss: Option<Miss> = first.map(|f| (f.section, f.addr, f.write));
    match first {
        None => writeln!(lines, "  multigrain clean {results:?} makespan {makespan}").unwrap(),
        Some(f) => writeln!(
            lines,
            "  multigrain {} violations, first {} of cell {} in section {} by tid {}",
            v.violations.len(),
            effect(f.write),
            f.addr,
            f.section,
            f.tid
        )
        .unwrap(),
    }
    (lines, validate_miss == mg_miss)
}

#[test]
fn validate_outcomes_match_the_pins_and_the_offline_validator() {
    let mut actual = String::new();
    let mut disagree = Vec::new();
    for fx in fixtures() {
        let program = lir::compile(&fx.source).unwrap_or_else(|e| panic!("{}: {e}", fx.name));
        let pt = Arc::new(PointsTo::analyze(&program));
        for k in [0, 3, 9] {
            let cfg = ali::lockscheme::SchemeConfig::full(k, program.elem_field_opt());
            let analysis = ali::lockinfer::analyze_program(&program, &pt, cfg);
            let transformed = ali::lockinfer::transform(&program, &analysis);
            let plans = weakenings(&transformed);
            assert!(!plans.is_empty(), "{} k={k}: no lock to drop", fx.name);
            for threads in [1, 4] {
                for (w, weakened) in &plans {
                    let head = format!(
                        "{} k={k} t={threads} drop {}:{}",
                        fx.name, w.section, w.drop_index
                    );
                    let (lines, agree) = configuration(&fx, weakened, &pt, threads);
                    writeln!(actual, "{head}").unwrap();
                    actual.push_str(&lines);
                    if !agree {
                        disagree.push(head);
                    }
                }
            }
        }
    }
    let pinned = include_str!("golden/validate_pins.txt");
    if actual != pinned {
        let drift: Vec<String> = actual
            .lines()
            .zip(pinned.lines())
            .filter(|(a, p)| a != p)
            .take(8)
            .map(|(a, p)| format!("  pinned: {p}\n  actual: {a}"))
            .collect();
        panic!(
            "checked outcomes drifted from tests/golden/validate_pins.txt \
             ({} actual vs {} pinned lines):\n{}\n--- actual ---\n{actual}",
            actual.lines().count(),
            pinned.lines().count(),
            drift.join("\n")
        );
    }
    assert!(
        disagree.is_empty(),
        "the checker and the offline validator name different first misses: {disagree:?}"
    );
}
