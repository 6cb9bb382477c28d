//! The metric names and units this benchmark prints, in the order
//! `BENCHMARK.json` lists them. A unit test holds the two in step.

/// Which of a run's samples is the run's reported value.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Pick {
    /// The fastest sample of a duration. On the shared 2-vCPU sandbox
    /// interference only ever slows a sample down, in phases that last
    /// from one sample to most of a window; over ten runs per workload
    /// the minimum spread 2–19 % where the median of the same samples
    /// spread 8–28 % (README.md, "Steadiness").
    Min,
    /// Counts and ratios.
    Median,
    /// The fastest sample of a rate, or the largest peak any of the
    /// run's processes reached.
    Max,
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub pick: Pick,
}

const fn def(name: &'static str, unit: &'static str, pick: Pick) -> MetricDef {
    MetricDef { name, unit, pick }
}

/// A count or a ratio.
const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    def(name, unit, Pick::Median)
}

/// A wall-clock duration.
const fn t(name: &'static str, unit: &'static str) -> MetricDef {
    def(name, unit, Pick::Min)
}

/// Work per second.
const fn rate(name: &'static str, unit: &'static str) -> MetricDef {
    def(name, unit, Pick::Max)
}

/// What `--trace 0` prints, on every workload.
pub const END_TO_END: &[MetricDef] = &[
    t("stage_s", "s"),
    def("peak_rss_mb", "MB", Pick::Max),
    t("setup_s", "s"),
];

/// What `--trace 1` prints. A workload that never enters a layer
/// reports 0 for its metrics.
pub const PER_LAYER: &[MetricDef] = &[
    // The timed stage under the name ISSUE 11 gave it, on the
    // workloads whose stage it is.
    t("compile_s", "s"),
    rate("run_ops_per_s", "ops/s"),
    t("record_s", "s"),
    t("offline_s", "s"),
    t("adapt_s", "s"),
    m("makespan_ticks", "ticks"),
    m("adapt_wait_ticks", "ticks"),
    // workloads
    t("workloads.generate_s", "s"),
    m("workloads.kloc", "kloc"),
    // lir
    t("lir.compile_s", "s"),
    rate("lir.lines_per_s", "lines/s"),
    m("lir.functions", "count"),
    m("lir.points", "count"),
    // pointsto
    t("pointsto.analyze_s", "s"),
    m("pointsto.classes", "count"),
    // lockinfer
    t("lockinfer.analyze_s", "s"),
    t("lockinfer.analyze_warm_s", "s"),
    t("lockinfer.analyze_par_s", "s"),
    t("lockinfer.reanalyze_warm_s", "s"),
    rate("lockinfer.pops_per_s", "1/s"),
    m("lockinfer.worklist_pops", "count"),
    m("lockinfer.facts_inserted", "count"),
    m("lockinfer.widenings", "count"),
    m("lockinfer.peak_point_locks", "count"),
    m("lockinfer.summary_cache_hits", "count"),
    m("lockinfer.summary_cache_misses", "count"),
    m("lockinfer.summary_queries", "count"),
    t("lockinfer.transform_s", "s"),
    m("lockinfer.locks_fine", "count"),
    m("lockinfer.locks_coarse", "count"),
    // lockscheme
    m("lockscheme.interner_locks", "count"),
    m("lockscheme.interner_paths", "count"),
    // interp
    t("interp.machine_new_s", "s"),
    t("interp.init_s", "s"),
    t("interp.run_s", "s"),
    t("interp.check_s", "s"),
    rate("interp.ticks_per_s", "ticks/s"),
    m("interp.sim.handoff_share", "ratio"),
    m("interp.trace_overhead_ratio", "ratio"),
    m("sentinel.overhead_ratio", "ratio"),
    // mglock
    m("mglock.batches", "count"),
    m("mglock.node_acquisitions", "count"),
    m("mglock.revalidations", "count"),
    t("mglock.acquire_release_ns", "ns"),
    // tl2
    m("tl2.commits", "count"),
    m("tl2.aborts", "count"),
    m("tl2.fallbacks", "count"),
    m("tl2.commit_ratio", "ratio"),
    t("tl2.txn_ns", "ns"),
    // trace / obs / replay
    m("trace.events", "count"),
    m("trace.json_bytes", "bytes"),
    t("trace.to_json_s", "s"),
    t("trace.from_json_s", "s"),
    rate("trace.decode_events_per_s", "events/s"),
    t("trace.digest_s", "s"),
    t("trace.validate_s", "s"),
    t("trace.profile_s", "s"),
    t("obs.from_trace_s", "s"),
    t("replay.replay_s", "s"),
    // eval / pipeline
    m("eval.candidates", "count"),
    m("eval.replayed", "count"),
    t("eval.context_new_s", "s"),
    t("eval.per_candidate_s", "s"),
    m("eval.parallel_speedup", "ratio"),
    t("pipeline.candidate_loop_s", "s"),
    // the benchmark itself
    // The same work with spans on and off, in one process, fastest
    // sample of each; their ratio less one is the overhead.
    t("bench.traced_s", "s"),
    t("bench.untraced_s", "s"),
    m("bench.tracing_overhead_pct", "%"),
    m("bench.span_coverage", "ratio"),
    m("bench.samples", "count"),
    m("bench.pinned", "count"),
];

/// Span name → the per-layer timing it feeds. Spans not listed
/// (`setup`, `stage`) only structure the tree.
pub const SPAN_METRICS: &[(&str, &str)] = &[
    ("workloads.generate", "workloads.generate_s"),
    ("lir.compile", "lir.compile_s"),
    ("pointsto.analyze", "pointsto.analyze_s"),
    ("lockinfer.analyze", "lockinfer.analyze_s"),
    ("lockinfer.transform", "lockinfer.transform_s"),
    ("interp.machine_new", "interp.machine_new_s"),
    ("interp.init", "interp.init_s"),
    ("interp.run", "interp.run_s"),
    ("interp.check", "interp.check_s"),
    ("replay.record", "record_s"),
    ("trace.to_json", "trace.to_json_s"),
    ("trace.from_json", "trace.from_json_s"),
    ("trace.digest", "trace.digest_s"),
    ("trace.validate", "trace.validate_s"),
    ("trace.profile", "trace.profile_s"),
    ("obs.from_trace", "obs.from_trace_s"),
    ("pipeline.adapt", "adapt_s"),
];

pub fn is_per_layer(name: &str) -> bool {
    PER_LAYER.iter().any(|d| d.name == name)
}

/// How the metric called `name` picks its value (the median for a
/// name this build does not know, e.g. from an older results file).
pub fn pick_of(name: &str) -> Pick {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|d| d.name == name)
        .map_or(Pick::Median, |d| d.pick)
}
