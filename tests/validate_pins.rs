//! Validate mode's verdict on every single-lock weakening, pinned.
//!
//! For each program below, at k ∈ {0, 3, 9} and on 1 and 4 virtual
//! threads, every `WeakenPlan { section, drop_index }` the inferred
//! plan admits is run twice with tracing on: once under Validate mode,
//! whose outcome is a result or the hard `Unprotected` error naming
//! the first uncovered access, and once under MultiGrain, whose trace
//! the offline lockset validator then checks. Both lines of every
//! configuration are held to `tests/golden/validate_pins.txt`, which
//! was recorded before Validate mode's coverage check was rewritten;
//! it is never regenerated to make this test pass.
//!
//! The two checkers must also agree: where Validate stops at an
//! uncovered access, the validator's first violation in epoch order is
//! that same `(section, cell, effect)`, and where Validate runs to the
//! end, the trace is clean. The tracing makes the two runs follow one
//! schedule up to Validate's first error (the coverage check charges no
//! virtual time). [`ORDER_DISAGREEMENTS`] lists the configurations
//! where the names differ, and why.

use atomic_lock_inference as ali;

use ali::interp::{ExecMode, InterpError, Machine, Options, WeakenPlan};
use ali::lir;
use ali::pointsto::PointsTo;
use ali::replay::RunConfig;
use std::fmt::Write as _;
use std::sync::Arc;

/// Four-thread configurations where Validate's error and the
/// validator's first violation name different accesses, as recorded
/// before the rewrite. `run_threads_virtual` reports the error of the
/// lowest failing thread id, not the earliest: in each of these, tid 2
/// is the first to touch an uncovered cell (the validator's first
/// violation), Validate ends tid 2 there, and the schedule without it
/// later stops a lower-numbered thread at a different cell, and that
/// error is the one returned.
const ORDER_DISAGREEMENTS: [&str; 4] = [
    "hashtable2_mg_k9 k=0 t=4 drop 2:2",
    "hashtable2_mg_k9 k=0 t=4 drop 2:3",
    "hashtable2_mg_k9 k=3 t=4 drop 2:0",
    "hashtable2_mg_k9 k=9 t=4 drop 2:0",
];

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

/// Every single-spec weakening of `transformed`, in section order.
fn weakenings(transformed: &lir::Program) -> Vec<WeakenPlan> {
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

/// Runs `fx` weakened by `weaken` under `mode` with tracing on.
fn run(
    fx: &Fixture,
    transformed: &Arc<lir::Program>,
    pt: &Arc<PointsTo>,
    mode: ExecMode,
    threads: usize,
    weaken: WeakenPlan,
) -> (Result<(Vec<i64>, u64), InterpError>, Machine) {
    let opts = Options {
        heap_cells: fx.heap_cells,
        seed: fx.seed,
        quantum: fx.quantum,
        weaken: Some(weaken),
        trace: Some(ali::trace::TraceConfig::default()),
        ..Options::default()
    };
    let m = Machine::new(Arc::clone(transformed), Arc::clone(pt), mode, opts);
    // The weakening applies to the setup call too, so a setup that
    // trips Validate ends the run there.
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
    transformed: &Arc<lir::Program>,
    pt: &Arc<PointsTo>,
    threads: usize,
    weaken: WeakenPlan,
) -> (String, bool) {
    let (validate, _) = run(fx, transformed, pt, ExecMode::Validate, threads, weaken);
    let (mg, m) = run(fx, transformed, pt, ExecMode::MultiGrain, threads, weaken);
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
        Err(e) => panic!("{}: Validate failed otherwise: {e}", fx.name),
    };
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
            let transformed = Arc::new(ali::lockinfer::transform(&program, &analysis));
            let plans = weakenings(&transformed);
            assert!(!plans.is_empty(), "{} k={k}: no lock to drop", fx.name);
            for threads in [1, 4] {
                for &w in &plans {
                    let head = format!(
                        "{} k={k} t={threads} drop {}:{}",
                        fx.name, w.section, w.drop_index
                    );
                    let (lines, agree) = configuration(&fx, &transformed, &pt, threads, w);
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
            "Validate outcomes drifted from tests/golden/validate_pins.txt \
             ({} actual vs {} pinned lines):\n{}\n--- actual ---\n{actual}",
            actual.lines().count(),
            pinned.lines().count(),
            drift.join("\n")
        );
    }
    assert_eq!(
        disagree, ORDER_DISAGREEMENTS,
        "Validate and the offline validator name different first misses \
         in exactly the pinned configurations"
    );
}
