//! The observability layer's determinism contract (DESIGN.md §5.9):
//! a trace-derived metrics snapshot is a pure function of the trace
//! bytes, so it is byte-identical at every analysis thread count; the
//! exporters render those bytes into frozen golden files.
//!
//! Set `BLESS=1` to regenerate the goldens under `tests/golden/` after
//! an intentional format change.

use atomic_lock_inference as ali;

use ali::interp::{ExecMode, Machine, Options};
use ali::lockinfer::library::LibrarySpec;
use ali::lockscheme::SchemeConfig;
use ali::obs;
use ali::pointsto::PointsTo;
use ali::replay::{record, RunConfig};
use proptest::prelude::*;
use std::sync::Arc;

/// A writer section, a read-mostly section, and a short counter
/// section: enough shape for nonzero wait/hold histograms, lock-mode
/// spread, and per-section metric labels.
const SRC: &str = r#"
    global shared;
    global total;
    fn setup(n) { shared = n; total = 0; }
    fn work(iters) {
        let i = 0;
        let acc = 0;
        while (i < iters) {
            atomic { shared = shared + 1; nops(60); }
            atomic { acc = acc + shared; nops(5); }
            atomic { total = total + 1; }
            i = i + 1;
        }
        return acc;
    }
    fn probe() { return shared + total; }
"#;

fn cfg(seed: u64, threads: usize, iters: i64) -> RunConfig {
    RunConfig {
        name: "obs-metrics".into(),
        source: SRC.into(),
        k: 3,
        mode: ExecMode::MultiGrain,
        threads,
        heap_cells: 1 << 12,
        seed,
        quantum: 64,
        stm_abort_budget: 16,
        faults: None,
        sentinel: None,
        weaken: None,
        sched: None,
        repairs: Vec::new(),
        trace_capacity: 1 << 16,
        init: ("setup".into(), vec![0]),
        worker: ("work".into(), vec![iters]),
        check: Some("probe".into()),
    }
}

/// Records `c`'s worker phase with the inference run at
/// `analysis_threads` Phase B workers. A pipeline always runs one per
/// core, so this builds the machine itself.
fn record_at(c: &RunConfig, analysis_threads: usize) -> ali::trace::Trace {
    let program = ali::lir::compile(&c.source).expect("source compiles");
    let pt = Arc::new(PointsTo::analyze(&program));
    let analysis = ali::lockinfer::analyze_program_with_opts(
        &program,
        &pt,
        SchemeConfig::full(c.k, program.elem_field_opt()),
        &LibrarySpec::new(),
        analysis_threads,
    );
    let transformed = Arc::new(ali::lockinfer::transform(&program, &analysis));
    let opts = Options {
        heap_cells: c.heap_cells,
        seed: c.seed,
        quantum: c.quantum,
        trace: Some(ali::trace::TraceConfig {
            capacity: c.trace_capacity,
        }),
        ..Options::default()
    };
    let m = Machine::new(transformed, pt, c.mode, opts);
    m.run_named(&c.init.0, &c.init.1).expect("init");
    m.run_threads_virtual(&c.worker.0, c.threads, |_| c.worker.1.clone())
        .expect("workers");
    m.take_trace().expect("the machine traces")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// `obs::from_trace` composed with the recorder is byte-identical
    /// at analysis thread counts 1, 2, and 7 — the snapshot inherits
    /// the trace's thread-count independence, and the canonical JSON
    /// encoding makes that equality literal.
    #[test]
    fn derived_snapshots_are_identical_at_every_analysis_thread_count(
        seed in any::<u64>(),
        threads in 2usize..5,
        iters in 4i64..10,
    ) {
        let c = cfg(seed, threads, iters);
        let snaps: Vec<String> = [1usize, 2, 7]
            .iter()
            .map(|&t| obs::from_trace(&record_at(&c, t)).to_json())
            .collect();
        prop_assert_eq!(&snaps[1], &snaps[0], "snapshot bytes diverged at 2 threads");
        prop_assert_eq!(&snaps[2], &snaps[0], "snapshot bytes diverged at 7 threads");
        prop_assert!(
            snaps[0].starts_with("{\"format\":\"ali-metrics-v1\""),
            "canonical header missing"
        );
    }

    /// A recording's end-of-run gauges are a function of the run, like
    /// its trace: two recordings of one configuration carry the same
    /// trace bytes and the same gauges, and the scheduler handed the
    /// turn on at no more of its scheduling points than there were.
    #[test]
    fn run_gauges_repeat_with_the_trace(
        seed in any::<u64>(),
        threads in 2usize..5,
        iters in 4i64..8,
    ) {
        let c = cfg(seed, threads, iters);
        let first = record(&c).expect("recording succeeds");
        let again = record(&c).expect("recording succeeds");
        prop_assert_eq!(first.trace.to_json(), again.trace.to_json());
        prop_assert_eq!(&first.outcome, &again.outcome);
        prop_assert_eq!(&first.gauges, &again.gauges);
        let gauge = |name: &str| {
            first
                .gauges
                .gauges
                .iter()
                .find(|(k, _)| k.name == name)
                .map(|(_, v)| *v)
        };
        prop_assert!(gauge("ali_run_sim_yield_points") > Some(0));
        prop_assert!(gauge("ali_run_sim_handoffs") <= gauge("ali_run_sim_yield_points"));
    }
}

/// Golden recording: fixed seed and shape, so the exporters' output is
/// frozen down to the byte.
fn golden_trace() -> ali::trace::Trace {
    record(&cfg(0x0B5, 4, 6))
        .expect("golden recording succeeds")
        .trace
}

fn assert_golden(name: &str, rendered: &str) {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&path, rendered).unwrap_or_else(|e| panic!("bless {path}: {e}"));
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{path}: {e} (run with BLESS=1 to create)"));
    assert_eq!(
        rendered, want,
        "{name} drifted from its golden file — rerun with BLESS=1 if intentional"
    );
}

#[test]
fn prometheus_exposition_matches_the_golden_file() {
    let t = golden_trace();
    assert_golden(
        "metrics.prom",
        &obs::export::prometheus(&obs::from_trace(&t)),
    );
}

#[test]
fn speedscope_flamegraph_matches_the_golden_file() {
    let t = golden_trace();
    assert_golden("metrics.speedscope.json", &obs::export::speedscope(&t));
}

#[test]
fn snapshot_json_matches_the_golden_file() {
    let t = golden_trace();
    assert_golden("metrics.json", &obs::from_trace(&t).to_json());
}
