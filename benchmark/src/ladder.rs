//! One sample of each stage of the ladder, measured from outside: every
//! timing is a clock read around a call into a layer's public function.
//!
//! A sample returns its two end-to-end timings (`setup_s`, `stage_s`),
//! the *facts* it observed (deterministic outputs, compared with the
//! expected file or with the run's first sample), the intrinsic
//! *checks* it made (the program's own invariants), and — when the
//! tracer is on — per-layer counts and ratios. Per-layer timings come
//! from the tracer's spans.

use crate::contract;
use crate::spans::Tracer;
use crate::sys::Pinned;
use crate::workloads::{Input, Runnable, Stage, Workload};
use ali::interp::{Machine, Options, SentinelConfig};
use ali::lockinfer::{ProgramAnalysis, SummaryStore};
use ali::lockscheme::{ConfigMap, SchemeConfig};
use ali::pointsto::PointsTo;
use ali::workloads::RunSpec;
use atomic_lock_inference as ali;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

#[derive(Default)]
pub struct Sample {
    pub setup_s: f64,
    pub stage_s: f64,
    pub facts: Vec<(&'static str, String)>,
    pub checks: Vec<(&'static str, bool)>,
    pub layers: Vec<(&'static str, f64)>,
}

impl Sample {
    fn fact(&mut self, key: &'static str, value: impl ToString) {
        self.facts.push((key, value.to_string()));
    }

    fn check(&mut self, what: &'static str, ok: bool) {
        self.checks.push((what, ok));
    }

    /// Records the check and hands back the value when it holds.
    fn checked<T>(&mut self, what: &'static str, r: Result<T, String>) -> Option<T> {
        if let Err(e) = &r {
            eprintln!("perf-ladder: {what}: {e}");
        }
        self.check(what, r.is_ok());
        r.ok()
    }

    fn layer(&mut self, name: &'static str, value: f64) {
        assert!(contract::is_per_layer(name), "{name} is not in PER_LAYER");
        self.layers.push((name, value));
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// FNV-1a over `text`, the digest the product's own reports use.
pub fn fnv(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// One sample of `w`'s stage under machine seed `seed`.
pub fn sample(w: &Workload, seed: u64, t: &mut Tracer) -> Sample {
    match (&w.input, w.stage) {
        (Input::Spec { k, .. }, Stage::Compile) => compile_sample(w, *k, t),
        (Input::Runnable(r), Stage::Run) => run_sample(r, seed, t),
        (Input::Runnable(r), Stage::Offline) => offline_sample(r, seed, t),
        (Input::Runnable(r), Stage::Adapt) => adapt_sample(r, seed, t),
        (Input::Spec { .. }, _) | (Input::Runnable(_), Stage::Compile) => {
            unreachable!("{}: SPEC-like programs compile, runnable ones run", w.name)
        }
    }
}

/// The measurements that are not part of any sample: warm and parallel
/// re-analysis, the same run under tracing or the sentinel, direct
/// runtime kernels. Traced runs make them once per child process,
/// after the samples, so nothing here perturbs a timed stage.
pub fn extras(w: &Workload, seed: u64, stage_s: f64, pinned: &mut Pinned) -> Sample {
    let mut x = Sample::default();
    match (&w.input, w.stage) {
        (Input::Spec { k, .. }, _) => {
            let spec = w.spec_source().expect("a Spec input generates a source");
            compile_tracing_overhead(&mut x, &spec.source, *k);
            reanalysis(&mut x, &spec.source, *k, pinned);
        }
        (Input::Runnable(r), Stage::Run) => run_extras(&mut x, r, seed, stage_s),
        (Input::Runnable(_), Stage::Offline) => {}
        (Input::Runnable(r), Stage::Adapt) => adapt_extras(&mut x, r, seed, stage_s, pinned),
        (Input::Runnable(_), Stage::Compile) => unreachable!(),
    }
    x
}

// ---------------------------------------------------------------------
// source → locks

type Compiled = (ali::lir::Program, ProgramAnalysis, ali::lir::Program);

/// `lockinfer::compile_with_locks` — or, traced, the same four calls it
/// makes with a span around each.
fn compile(src: &str, k: usize, t: &mut Tracer) -> Result<Compiled, String> {
    if !t.enabled() {
        return ali::lockinfer::compile_with_locks(src, k).map_err(|e| e.to_string());
    }
    let program = t
        .span("lir.compile", |_| ali::lir::compile(src))
        .map_err(|e| e.to_string())?;
    let pt = t.span("pointsto.analyze", |_| PointsTo::analyze(&program));
    let cfg = SchemeConfig::full(k, program.elem_field_opt());
    let analysis = t.span("lockinfer.analyze", |_| {
        ali::lockinfer::analyze_program(&program, &pt, cfg)
    });
    let transformed = t.span("lockinfer.transform", |_| {
        ali::lockinfer::transform(&program, &analysis)
    });
    Ok((program, analysis, transformed))
}

/// The precision guard: a faster analysis that changes any of these
/// fails the check.
fn compile_facts(s: &mut Sample, program: &ali::lir::Program, analysis: &ProgramAnalysis) {
    let c = analysis.lock_counts();
    s.fact("sections", analysis.n_sections());
    s.fact(
        "locks_fine_ro/fine_rw/coarse_ro/coarse_rw",
        format!(
            "{}/{}/{}/{}",
            c.fine_ro, c.fine_rw, c.coarse_ro, c.coarse_rw
        ),
    );
    s.fact("lock_sets_digest", fnv(&analysis.render(program)));
}

fn compile_layers(
    s: &mut Sample,
    src: &str,
    program: &ali::lir::Program,
    analysis: &ProgramAnalysis,
    id: u32,
    t: &Tracer,
) {
    let lines = src.lines().count() as f64;
    s.layer("workloads.kloc", lines / 1000.0);
    s.layer("lir.lines_per_s", lines / t.seconds_of("lir.compile", id));
    s.layer("lir.functions", program.functions.len() as f64);
    let points: usize = program.functions.iter().map(|f| f.body.len()).sum();
    s.layer("lir.points", points as f64);
    s.layer(
        "pointsto.classes",
        f64::from(PointsTo::analyze(program).n_classes()),
    );
    let st = &analysis.stats;
    s.layer("lockinfer.worklist_pops", st.worklist_pops as f64);
    s.layer(
        "lockinfer.pops_per_s",
        st.worklist_pops as f64 / t.seconds_of("lockinfer.analyze", id),
    );
    s.layer("lockinfer.facts_inserted", st.facts_inserted as f64);
    s.layer("lockinfer.widenings", st.widenings as f64);
    s.layer("lockinfer.peak_point_locks", st.peak_point_locks as f64);
    s.layer("lockinfer.summary_cache_hits", st.summary_cache_hits as f64);
    s.layer(
        "lockinfer.summary_cache_misses",
        st.summary_cache_misses as f64,
    );
    s.layer("lockinfer.summary_queries", st.summary_queries as f64);
    let c = analysis.lock_counts();
    s.layer("lockinfer.locks_fine", (c.fine_ro + c.fine_rw) as f64);
    s.layer("lockinfer.locks_coarse", (c.coarse_ro + c.coarse_rw) as f64);
    s.layer("lockscheme.interner_locks", st.interner_locks as f64);
    s.layer("lockscheme.interner_paths", st.interner_paths as f64);
}

fn compile_sample(w: &Workload, k: usize, t: &mut Tracer) -> Sample {
    let mut s = Sample::default();
    let id = t.next_sample();
    let (spec, setup_s) = timed(|| {
        t.span("setup", |t| {
            t.span("workloads.generate", |_| {
                w.spec_source().expect("a Spec input generates a source")
            })
        })
    });
    let (compiled, stage_s) = timed(|| t.span("stage", |t| compile(&spec.source, k, t)));
    (s.setup_s, s.stage_s) = (setup_s, stage_s);
    let Some((program, analysis, transformed)) = s.checked("source compiles", compiled) else {
        return s;
    };
    black_box(&transformed);
    compile_facts(&mut s, &program, &analysis);
    // Every sample runs in a fresh process, so the process-wide lock
    // interner holds exactly this program's terms: equal counts in
    // every sample prove each one started cold.
    s.fact("interner_locks", analysis.stats.interner_locks);
    s.fact("interner_paths", analysis.stats.interner_paths);
    if t.enabled() {
        s.layer("compile_s", stage_s);
        compile_layers(&mut s, &spec.source, &program, &analysis, id, t);
    }
    s
}

/// What the spans cost a compile. A compile sample has no untraced
/// twin — its process must start cold — so both sides are taken here,
/// warm and alternating, after the sample.
fn compile_tracing_overhead(x: &mut Sample, src: &str, k: usize) {
    for first_traced in [true, false] {
        for on in [first_traced, !first_traced] {
            let (out, wall) = timed(|| compile(src, k, &mut Tracer::new(on)));
            x.checked("source compiles", out.map(black_box));
            let side = if on {
                "bench.traced_s"
            } else {
                "bench.untraced_s"
            };
            x.layer(side, wall);
        }
    }
}

/// Warm re-analysis of a program this process has already compiled
/// once: sequential, through a shared `SummaryStore`, and — unpinned —
/// one worker per core.
fn reanalysis(x: &mut Sample, src: &str, k: usize, pinned: &mut Pinned) {
    let Some(program) = x.checked(
        "source compiles",
        ali::lir::compile(src).map_err(|e| e.to_string()),
    ) else {
        return;
    };
    let pt = PointsTo::analyze(&program);
    let cfg = SchemeConfig::full(k, program.elem_field_opt());
    let lib = ali::lockinfer::library::LibrarySpec::new();
    let (seq, warm_s) =
        timed(|| ali::lockinfer::analyze_program_with_opts(&program, &pt, cfg, &lib, 1));
    x.layer("lockinfer.analyze_warm_s", warm_s);

    let store = SummaryStore::new();
    let map = ConfigMap::uniform(cfg);
    let with_store =
        || ali::lockinfer::analyze_program_with_configs(&program, &pt, &map, &lib, 1, Some(&store));
    black_box(with_store());
    let (again, reanalyze_s) = timed(with_store);
    x.layer("lockinfer.reanalyze_warm_s", reanalyze_s);

    pinned.unpin();
    let (par, par_s) =
        timed(|| ali::lockinfer::analyze_program_with_opts(&program, &pt, cfg, &lib, 0));
    x.layer("lockinfer.analyze_par_s", par_s);
    let locks = |a: &ProgramAnalysis| fnv(&a.render(&program));
    x.check(
        "warm, store-backed and parallel analyses agree",
        locks(&seq) == locks(&again) && locks(&seq) == locks(&par),
    );
}

// ---------------------------------------------------------------------
// locks → run

/// Source → machine ready to run workers: what `interp::machine_for`
/// does, then the program's own `init`.
fn build_machine(
    r: &Runnable,
    spec: &RunSpec,
    seed: u64,
    tweak: impl FnOnce(&mut Options),
    t: &mut Tracer,
) -> Result<(Machine, ali::lir::Program, ProgramAnalysis), String> {
    let (program, analysis, transformed) = compile(&spec.source, r.k, t)?;
    let pt = t.span("pointsto.analyze", |_| {
        Arc::new(PointsTo::analyze(&program))
    });
    let mut opts = Options {
        heap_cells: spec.heap_cells,
        seed,
        ..Options::default()
    };
    tweak(&mut opts);
    let m = t.span("interp.machine_new", |_| {
        Machine::new(Arc::new(transformed), pt, r.mode, opts)
    });
    t.span("interp.init", |_| m.run_named(spec.init.0, &spec.init.1))
        .map_err(|e| format!("init: {e}"))?;
    Ok((m, program, analysis))
}

/// Degradation counters that mean the run left the happy path. STM
/// fallbacks to irrevocable mode are TL2's designed answer to
/// starvation, reported as `tl2.fallbacks`, and not a failure.
fn degraded(m: &Machine) -> bool {
    let mut d = m.degradation_report();
    d.stm_fallbacks = 0;
    !d.is_clean()
}

fn run_sample(r: &Runnable, seed: u64, t: &mut Tracer) -> Sample {
    let mut s = Sample::default();
    let id = t.next_sample();
    let ((spec, built), setup_s) = timed(|| {
        t.span("setup", |t| {
            let spec = t.span("workloads.generate", |_| (r.build)(r.ops));
            let built = build_machine(r, &spec, seed, |_| {}, t);
            (spec, built)
        })
    });
    s.setup_s = setup_s;
    let Some((m, program, analysis)) = s.checked("machine builds and init runs", built) else {
        return s;
    };
    let (ran, stage_s) = timed(|| {
        t.span("stage", |t| {
            t.span("interp.run", |_| {
                m.run_threads_virtual(spec.worker.0, r.threads, |_| spec.worker.1.clone())
            })
        })
    });
    s.stage_s = stage_s;
    let Some((results, makespan)) = s.checked("workers run", ran.map_err(|e| e.to_string())) else {
        return s;
    };
    if let Some(check) = spec.check {
        let verdict = t.span("interp.check", |_| m.run_named(check, &[]));
        s.checked(
            "the program's check passes",
            verdict.map_err(|e| e.to_string()),
        );
    }
    s.check("no degradation", !degraded(&m));
    s.fact("makespan_ticks", makespan);
    s.fact("results_digest", fnv(&format!("{results:?}")));
    compile_facts(&mut s, &program, &analysis);
    if t.enabled() {
        s.layer("run_ops_per_s", r.total_ops() as f64 / stage_s);
        s.layer("makespan_ticks", makespan as f64);
        s.layer("interp.ticks_per_s", makespan as f64 / stage_s);
        runtime_layers(&mut s, &m);
        compile_layers(&mut s, &spec.source, &program, &analysis, id, t);
    }
    s
}

fn runtime_layers(s: &mut Sample, m: &Machine) {
    use std::sync::atomic::Ordering::Relaxed;
    let mg = m.mg_stats();
    s.layer("mglock.batches", mg.batches.load(Relaxed) as f64);
    s.layer(
        "mglock.node_acquisitions",
        mg.node_acquisitions.load(Relaxed) as f64,
    );
    s.layer(
        "mglock.revalidations",
        m.degradation_report().lock_revalidations as f64,
    );
    let stm = m.stm_stats();
    s.layer("tl2.commits", stm.commits as f64);
    s.layer("tl2.aborts", stm.aborts as f64);
    s.layer("tl2.fallbacks", stm.fallbacks as f64);
    let attempts = stm.commits + stm.aborts;
    if attempts > 0 {
        s.layer("tl2.commit_ratio", stm.commits as f64 / attempts as f64);
    }
}

/// Wall seconds of the worker phase of `r`'s program at `ops` per
/// thread on `threads` threads, on a machine `tweak`ed: the faster of
/// two more runs.
fn worker_phase_s(
    r: &Runnable,
    ops: i64,
    threads: usize,
    seed: u64,
    tweak: impl Fn(&mut Options),
) -> Result<f64, String> {
    let spec = (r.build)(ops);
    let mut fastest = f64::INFINITY;
    for _ in 0..2 {
        let (m, _, _) = build_machine(r, &spec, seed, &tweak, &mut Tracer::new(false))?;
        let (ran, wall) =
            timed(|| m.run_threads_virtual(spec.worker.0, threads, |_| spec.worker.1.clone()));
        ran.map_err(|e| e.to_string())?;
        fastest = fastest.min(wall);
    }
    Ok(fastest)
}

/// `plain` is the worker phase of the child's own samples (the
/// fastest), the base every variant below is a ratio to.
fn run_extras(x: &mut Sample, r: &Runnable, seed: u64, plain: f64) {
    let phases = (|| {
        let one_thread = worker_phase_s(r, r.total_ops(), 1, seed, |_| {})?;
        let traced = worker_phase_s(r, r.ops, r.threads, seed, |o| {
            o.trace = Some(ali::trace::TraceConfig {
                capacity: r.trace_capacity,
            });
        })?;
        let armed = worker_phase_s(r, r.ops, r.threads, seed, |o| {
            o.sentinel = Some(SentinelConfig::sampled_production());
        })?;
        Ok((one_thread, traced, armed))
    })();
    if let Some((one_thread, traced, armed)) = x.checked("variant runs complete", phases) {
        // The same total operations on one virtual thread never hand
        // off; what the multi-thread run spends beyond that is the
        // scheduler's hand-off plus lock waits.
        x.layer("interp.sim.handoff_share", 1.0 - one_thread / plain);
        x.layer("interp.trace_overhead_ratio", traced / plain);
        x.layer("sentinel.overhead_ratio", armed / plain);
    }
    match r.mode {
        ali::interp::ExecMode::Stm => x.layer("tl2.txn_ns", tl2_kernel_ns()),
        _ => x.layer("mglock.acquire_release_ns", mglock_kernel_ns()),
    }
    trace_extras(x, r, seed);
}

/// Record → encode → replay of `r`, each timed once: what the traced
/// twin of the run costs, and that it is reproducible.
fn trace_extras(x: &mut Sample, r: &Runnable, seed: u64) {
    let spec = (r.build)(r.ops);
    let cfg = r.config(&spec, seed);
    let (rec, record_s) = timed(|| ali::replay::record(&cfg));
    let Some(rec) = x.checked("the run records", rec) else {
        return;
    };
    x.layer("record_s", record_s);
    x.check(
        "the recorded run raised no error",
        rec.outcome.error.is_none(),
    );
    x.check("the lockset validator passes", validates(&rec.trace));
    x.check("the recording dropped no event", rec.trace.dropped == 0);
    x.layer("trace.events", rec.trace.events.len() as f64);
    let (json, to_json_s) = timed(|| rec.trace.to_json());
    x.layer("trace.to_json_s", to_json_s);
    x.layer("trace.json_bytes", json.len() as f64);
    let (replayed, replay_s) = timed(|| ali::replay::replay(&rec.trace));
    x.layer("replay.replay_s", replay_s);
    if let Some(again) = x.checked("the recording replays", replayed) {
        x.check(
            "replay reproduces the recording's digest",
            again.trace.digest() == rec.trace.digest(),
        );
    }
}

/// One uncontended acquire/release batch through `mglock::Session`:
/// a coarse and two fine descriptors, as a hashtable-2 `put` takes.
fn mglock_kernel_ns() -> f64 {
    use ali::mglock::{Access, Descriptor, FineAddr, Runtime, Session};
    const BATCHES: u32 = 200_000;
    let mut session = Session::new(Arc::new(Runtime::new()));
    let plan = [
        Descriptor::Coarse {
            pts: 1,
            access: Access::Read,
        },
        Descriptor::Fine {
            pts: 2,
            addr: FineAddr::Cell(64),
            access: Access::Write,
        },
        Descriptor::Fine {
            pts: 2,
            addr: FineAddr::Cell(72),
            access: Access::Read,
        },
    ];
    let ((), wall) = timed(|| {
        for _ in 0..BATCHES {
            for d in plan {
                session.to_acquire(black_box(d));
            }
            session.acquire_all();
            session.release_all();
        }
    });
    wall * 1e9 / f64::from(BATCHES)
}

/// One uncontended `tl2::Space::atomically`: read-modify-write of four
/// cells.
fn tl2_kernel_ns() -> f64 {
    const TXNS: u32 = 200_000;
    let space = ali::tl2::Space::new(16);
    let ((), wall) = timed(|| {
        for _ in 0..TXNS {
            black_box(space.atomically(|tx| {
                for cell in 0..4 {
                    let v = tx.read(cell)?;
                    tx.write(cell, v + 1);
                }
                Ok(())
            }));
        }
    });
    assert_eq!(
        space.read_direct(0),
        i64::from(TXNS),
        "every transaction committed"
    );
    wall * 1e9 / f64::from(TXNS)
}

// ---------------------------------------------------------------------
// run → trace

fn trace_facts(s: &mut Sample, rec: &ali::replay::Recording) {
    s.check("the run raised no error", rec.outcome.error.is_none());
    s.check("the recording dropped no event", rec.trace.dropped == 0);
    s.fact("trace_digest", rec.trace.digest());
    s.fact("trace_events", rec.trace.events.len());
    s.fact("makespan_ticks", rec.outcome.makespan);
}

fn validates(trace: &ali::trace::Trace) -> bool {
    ali::trace::lockset::validate(trace).is_ok_and(|v| v.passed())
}

fn offline_sample(r: &Runnable, seed: u64, t: &mut Tracer) -> Sample {
    let mut s = Sample::default();
    let id = t.next_sample();
    let (recorded, setup_s) = timed(|| {
        t.span("setup", |t| {
            let spec = t.span("workloads.generate", |_| (r.build)(r.ops));
            let cfg = r.config(&spec, seed);
            let rec = t.span("replay.record", |_| ali::replay::record(&cfg))?;
            let bytes = t.span("trace.to_json", |_| rec.trace.to_json());
            Ok((rec, bytes))
        })
    });
    s.setup_s = setup_s;
    let Some((rec, bytes)) = s.checked("the run records", recorded) else {
        return s;
    };
    // What `trace-dump validate|profile|metrics FILE` and
    // `Pipeline::from_trace` pay, starting from the file's bytes.
    let (out, stage_s) = timed(|| {
        t.span("stage", |t| {
            let trace = t.span("trace.from_json", |_| ali::trace::Trace::from_json(&bytes))?;
            let digest = t.span("trace.digest", |_| trace.digest());
            let valid = t.span("trace.validate", |_| validates(&trace));
            let profiles = t.span("trace.profile", |_| ali::trace::profile::profile(&trace));
            let snapshot = t.span("obs.from_trace", |_| ali::obs::from_trace(&trace));
            Ok((trace, digest, valid, profiles, snapshot))
        })
    });
    s.stage_s = stage_s;
    let Some((trace, digest, valid, profiles, snapshot)) = s.checked("the trace decodes", out)
    else {
        return s;
    };
    trace_facts(&mut s, &rec);
    s.check(
        "the decoded trace re-encodes to the input bytes",
        trace.to_json() == bytes,
    );
    s.check(
        "the decoded digest is the recording's",
        digest == rec.trace.digest(),
    );
    s.check("the lockset validator passes", valid);
    s.fact("json_bytes", bytes.len());
    s.fact("profiled_sections", profiles.len());
    s.fact(
        "obs_series",
        snapshot.counters.len() + snapshot.gauges.len() + snapshot.hists.len(),
    );
    if t.enabled() {
        s.layer("offline_s", stage_s);
        s.layer("trace.events", trace.events.len() as f64);
        s.layer("trace.json_bytes", bytes.len() as f64);
        s.layer(
            "trace.decode_events_per_s",
            trace.events.len() as f64 / t.seconds_of("trace.from_json", id),
        );
    }
    s
}

// ---------------------------------------------------------------------
// trace → decision

fn adapt(
    cfg: &ali::replay::RunConfig,
    eval_threads: usize,
) -> Result<ali::adapt::AdaptRun, String> {
    ali::Pipeline::new(cfg.clone())
        .eval_threads(eval_threads)
        .adapt(&ali::lockinfer::AdaptPolicy::default())
}

fn adapt_sample(r: &Runnable, seed: u64, t: &mut Tracer) -> Sample {
    let mut s = Sample::default();
    t.next_sample();
    let (cfg, setup_s) = timed(|| {
        t.span("setup", |t| {
            let spec = t.span("workloads.generate", |_| (r.build)(r.ops));
            r.config(&spec, seed)
        })
    });
    let (run, stage_s) =
        timed(|| t.span("stage", |t| t.span("pipeline.adapt", |_| adapt(&cfg, 1))));
    (s.setup_s, s.stage_s) = (setup_s, stage_s);
    let Some(run) = s.checked("adapt reaches a decision", run) else {
        return s;
    };
    let report = &run.report;
    let plan_wait = report
        .winner()
        .map_or(report.baseline, |d| d.cost)
        .total_wait;
    s.check(
        "the selected plan waits no longer than the baseline",
        plan_wait <= report.baseline.total_wait,
    );
    s.fact("report_digest", fnv(&report.to_json()));
    s.fact("candidates", report.candidates.len());
    s.fact("baseline_wait_ticks", report.baseline.total_wait);
    s.fact("plan_wait_ticks", plan_wait);
    if t.enabled() {
        let replayed = report
            .candidates
            .iter()
            .filter(|d| d.status.is_replayed())
            .count();
        s.layer("adapt_wait_ticks", plan_wait as f64);
        s.layer("makespan_ticks", report.baseline.makespan as f64);
        s.layer("eval.candidates", report.candidates.len() as f64);
        s.layer("eval.replayed", replayed as f64);
    }
    s
}

fn adapt_extras(x: &mut Sample, r: &Runnable, seed: u64, adapt_s: f64, pinned: &mut Pinned) {
    let spec = (r.build)(r.ops);
    let cfg = r.config(&spec, seed);
    let (ctx, context_s) = timed(|| ali::eval::EvalContext::new(&cfg, true));
    if x.checked("the eval context builds", ctx.map(drop))
        .is_some()
    {
        x.layer("eval.context_new_s", context_s);
    }
    // adapt = one baseline recording + the candidate loop.
    let (rec, record_s) = timed(|| ali::replay::record(&cfg));
    let loop_s = adapt_s - record_s;
    if x.checked("the baseline records", rec.map(drop)).is_some() {
        x.layer("record_s", record_s);
        x.layer("pipeline.candidate_loop_s", loop_s);
    }
    reanalysis(x, &spec.source, r.k, pinned);
    // `reanalysis` left the process unpinned, which the parallel
    // figure needs: both sides of the ratio run here, base first.
    let (one, one_s) = timed(|| adapt(&cfg, 1));
    let (two, two_s) = timed(|| adapt(&cfg, 2));
    if let (Some(one), Some(two)) = (
        x.checked("adapt runs at one eval thread", one),
        x.checked("adapt runs at two eval threads", two),
    ) {
        x.check(
            "reports agree at every eval thread count",
            one.report.to_json() == two.report.to_json(),
        );
        x.layer("eval.parallel_speedup", one_s / two_s);
        let replayed = one
            .report
            .candidates
            .iter()
            .filter(|d| d.status.is_replayed())
            .count();
        if replayed > 0 {
            x.layer("eval.per_candidate_s", loop_s / replayed as f64);
        }
    }
}
