//! Determinism of a sentinel-armed run (DESIGN.md §5.5): for one
//! (program, weaken plan, seed, worker count), the entire observable
//! outcome — the trace bytes, every quarantine and heal transition,
//! the degradation report and every violation the trace records — must
//! be identical at every *analysis* thread count. The inference's
//! parallel per-section phase must never leak into the runtime's
//! quarantine decisions.

use atomic_lock_inference as ali;

use ali::interp::{ExecMode, Machine, Options, SentinelConfig};
use ali::lir;
use ali::lockinfer::library::LibrarySpec;
use ali::lockscheme::SchemeConfig;
use ali::pointsto::PointsTo;
use ali::replay::WeakenPlan;
use proptest::prelude::*;
use std::sync::Arc;

/// Same two-section shape as the chaos suite's sentinel runs: the
/// weakened section has two inferred locks (either is droppable), the
/// other must stay healthy.
const SRC: &str = r#"
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
"#;

/// Everything one armed run can be observed by: trace digest, ladder
/// transitions, rendered degradation report, the trace's violations in
/// `(clock, tid, epoch)` order.
type Observables = (String, Vec<(u32, bool, u32)>, String, Vec<String>);

/// One full sentinel run with the inference executed at
/// `analysis_threads`; returns every observable it produces.
fn observe(
    analysis_threads: usize,
    weaken: WeakenPlan,
    seed: u64,
    workers: usize,
    iters: i64,
) -> Observables {
    let program = lir::compile(SRC).expect("sentinel source compiles");
    let pt = Arc::new(PointsTo::analyze(&program));
    let cfg = SchemeConfig::full(3, program.elem_field_opt());
    let analysis = ali::lockinfer::analyze_program_with_opts(
        &program,
        &pt,
        cfg,
        &LibrarySpec::new(),
        analysis_threads,
    );
    let mut transformed = ali::lockinfer::transform(&program, &analysis);
    weaken.apply(&mut transformed);
    let opts = Options {
        heap_cells: 1 << 12,
        seed,
        sentinel: Some(SentinelConfig::default()),
        trace: Some(ali::trace::TraceConfig::default()),
        ..Options::default()
    };
    let m = Machine::new(Arc::new(transformed), pt, ExecMode::MultiGrain, opts);
    m.run_named("setup", &[0]).expect("init");
    m.run_threads_virtual("work", workers, |_| vec![iters])
        .expect("weakened runs still complete");
    let trace = m.take_trace().expect("tracing on");
    let mut violations = ali::trace::validate(&trace)
        .expect("the trace dropped nothing")
        .violations;
    violations.sort_by_key(|v| (v.clock, v.tid, v.epoch));
    let rendered = violations.iter().map(|v| format!("{v:?}")).collect();
    let history = ali::trace::quarantine_history(&trace)
        .transitions
        .iter()
        .map(|t| (t.section, t.healed, t.probation))
        .collect();
    (
        trace.digest(),
        history,
        m.degradation_report().to_string(),
        rendered,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A quarantined run is a pure function of its configuration:
    /// digests, transitions, the rendered report and the violations
    /// agree byte for byte at analysis thread counts 1, 2, and 7.
    #[test]
    fn the_quarantine_run_is_identical_at_every_analysis_thread_count(
        seed in any::<u64>(),
        workers in 2usize..5,
        iters in 4i64..10,
        drop_index in 0usize..2,
    ) {
        let weaken = WeakenPlan { section: 0, drop_index };
        let runs: Vec<_> = [1usize, 2, 7]
            .iter()
            .map(|&t| observe(t, weaken, seed, workers, iters))
            .collect();
        let first = &runs[0];
        prop_assert!(
            !first.1.is_empty(),
            "dropping a spec from the hot section must trip the ladder"
        );
        prop_assert!(
            !first.3.is_empty(),
            "dropping a spec from the hot section must trace violations"
        );
        for r in &runs[1..] {
            prop_assert_eq!(&r.0, &first.0, "trace digests diverged");
            prop_assert_eq!(&r.1, &first.1, "ladder transitions diverged");
            prop_assert_eq!(&r.2, &first.2, "degradation reports diverged");
            prop_assert_eq!(&r.3, &first.3, "violations diverged");
        }
    }
}
