//! Deterministic record/replay of atomic-section executions.
//!
//! A recorded run is **self-describing**: [`record`] stamps the full
//! [`RunConfig`] — source text, inference depth `k`, execution mode,
//! seed, thread count, fault plan, entry points — into the trace's
//! metadata alongside the events, so a trace file alone is enough to
//! re-execute the run. Because the interpreter's virtual-time scheduler
//! is deterministic (see `interp::sim`), [`replay`] reproduces the
//! original execution *exactly*: same interleaving, same events, same
//! canonical JSON bytes, same digest. That makes the digest a complete
//! fingerprint of a concurrent execution — the property the
//! `trace-dump` binary and the chaos tests check.
//!
//! ```
//! use atomic_lock_inference as ali;
//!
//! let spec = ali::workloads::micro::list(ali::workloads::Contention::Low, 40, 1);
//! let cfg = ali::replay::RunConfig::from_spec(&spec, 3, ali::interp::ExecMode::MultiGrain, 4);
//! let rec = ali::replay::record(&cfg)?;
//! let again = ali::replay::replay(&rec.trace)?;
//! assert_eq!(rec.trace.digest(), again.trace.digest());
//! # Ok::<(), String>(())
//! ```

use crate::eval::{EvalContext, Stamp};
use interp::{ExecMode, FaultPlan, Options, RepairSpec, SchedConfig, SentinelConfig, WeakenPlan};
use lockscheme::{ConfigMap, SchemeConfig};
use trace::Trace;

/// One installed repair, at configuration level: `(section, candidate
/// id, repaired scheme configuration)`. The concrete per-section lock
/// specs are **derived** deterministically at machine-build time (see
/// [`repair_specs`]), so a trace stamped with repairs stays
/// self-describing — replaying re-derives the identical specs from the
/// embedded source.
pub type RepairEntry = (u32, u32, SchemeConfig);

/// Everything needed to reproduce one traced execution.
#[derive(Clone, PartialEq, Debug)]
pub struct RunConfig {
    /// Display name (workload name, free-form for ad-hoc runs).
    pub name: String,
    /// Mini-language source text.
    pub source: String,
    /// Lock-inference depth bound `k`.
    pub k: usize,
    /// Execution discipline.
    pub mode: ExecMode,
    /// Virtual threads running the worker entry.
    pub threads: usize,
    /// Heap capacity in cells.
    pub heap_cells: usize,
    /// Base PRNG seed.
    pub seed: u64,
    /// Virtual-time scheduling quantum.
    pub quantum: u64,
    /// STM degradation budget (aborts before irrevocable fallback).
    pub stm_abort_budget: u64,
    /// Fault-injection plan, if any.
    pub faults: Option<FaultPlan>,
    /// Online lockset sentinel, if enabled.
    pub sentinel: Option<SentinelConfig>,
    /// Weakened-inference injection, if any.
    pub weaken: Option<WeakenPlan>,
    /// Wake policy for the virtual-time scheduler (`None` = legacy
    /// FIFO). Stamped into `run.sched_*` so policy-steered runs replay
    /// under the same decisions.
    pub sched: Option<SchedConfig>,
    /// Admitted re-inference repairs (DESIGN.md §5.8), installed
    /// dormant into the sentinel: when the named section heals, its
    /// plans switch to the specs derived under the repaired
    /// configuration instead of the seed scheme. Stamped into
    /// `run.repair.<section>` so healed runs replay exactly.
    pub repairs: Vec<RepairEntry>,
    /// Per-thread event ring capacity.
    pub trace_capacity: usize,
    /// Single-threaded setup entry `(function, args)`.
    pub init: (String, Vec<i64>),
    /// Per-thread timed entry `(function, args)`.
    pub worker: (String, Vec<i64>),
    /// Post-run invariant checker, if any.
    pub check: Option<String>,
}

impl RunConfig {
    /// A config for a benchmark workload with library-default machine
    /// options.
    pub fn from_spec(
        spec: &workloads::RunSpec,
        k: usize,
        mode: ExecMode,
        threads: usize,
    ) -> RunConfig {
        let opts = Options::default();
        RunConfig {
            name: spec.name.clone(),
            source: spec.source.clone(),
            k,
            mode,
            threads,
            heap_cells: spec.heap_cells,
            seed: opts.seed,
            quantum: opts.quantum,
            stm_abort_budget: opts.stm_abort_budget,
            faults: None,
            sentinel: None,
            weaken: None,
            sched: None,
            repairs: Vec::new(),
            trace_capacity: trace::TraceConfig::default().capacity,
            init: (spec.init.0.to_owned(), spec.init.1.clone()),
            worker: (spec.worker.0.to_owned(), spec.worker.1.clone()),
            check: spec.check.map(str::to_owned),
        }
    }

    /// Reconstructs the config a trace was recorded under.
    ///
    /// # Errors
    ///
    /// Returns a message when a required `run.*` metadata key is
    /// missing or malformed — e.g. a trace that was not produced by
    /// [`record`]. Whether the values describe a run a machine can be
    /// built for is decided where every run starts, in [`record`].
    pub fn from_trace(t: &Trace) -> Result<RunConfig, String> {
        let faults = match t.meta_get("run.fault_seed") {
            None => None,
            Some(_) => Some(FaultPlan {
                seed: meta_int(t, "run.fault_seed")?,
                panic_per_mille: meta_int(t, "run.fault_panic_pm")?,
                max_panics: meta_int(t, "run.fault_max_panics")?,
                stm_abort_per_mille: meta_int(t, "run.fault_abort_pm")?,
                wakeup_delay_per_mille: meta_int(t, "run.fault_wakeup_pm")?,
                wakeup_delay_ticks: meta_int(t, "run.fault_wakeup_ticks")?,
                stall_per_mille: meta_int(t, "run.fault_stall_pm")?,
                stall_ticks: meta_int(t, "run.fault_stall_ticks")?,
            }),
        };
        let sentinel = match t.meta_get("run.sentinel_sample") {
            None => None,
            Some(_) => Some(SentinelConfig {
                sample_every: meta_int(t, "run.sentinel_sample")?,
                probation: meta_int(t, "run.sentinel_probation")?,
                flap_multiplier: meta_int(t, "run.sentinel_flap")?,
                max_probation: meta_int(t, "run.sentinel_max")?,
            }),
        };
        let weaken = match t.meta_get("run.weaken_section") {
            None => None,
            Some(_) => Some(WeakenPlan {
                section: meta_int(t, "run.weaken_section")?,
                drop_index: meta_int(t, "run.weaken_drop")?,
            }),
        };
        let sched = match t.meta_get("run.sched_policy") {
            None => None,
            Some(tag) => {
                let policy = interp::PolicyKind::from_tag(tag)
                    .ok_or_else(|| format!("replay: unknown wake policy `{tag}`"))?;
                let expected_hold =
                    SchedConfig::parse_holds(t.meta_get("run.sched_holds").unwrap_or(""))
                        .ok_or_else(|| "replay: bad `run.sched_holds`".to_owned())?;
                // Absent on traces recorded before the aging knob
                // existed: those ran with aging off.
                let aging = match t.meta_get("run.sched_aging") {
                    None => 0,
                    Some(_) => meta_int(t, "run.sched_aging")?,
                };
                Some(SchedConfig {
                    policy,
                    expected_hold,
                    aging,
                })
            }
        };
        let mut repair_keys: Vec<u32> = t
            .meta
            .iter()
            .filter_map(|(k, _)| k.strip_prefix("run.repair."))
            .map(|s| {
                s.parse::<u32>()
                    .map_err(|e| format!("replay: bad repair section `{s}`: {e}"))
            })
            .collect::<Result<_, _>>()?;
        repair_keys.sort_unstable();
        let repairs = repair_keys
            .into_iter()
            .map(|s| {
                let v = meta(t, &format!("run.repair.{s}"))?;
                parse_repair(s, &v)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(RunConfig {
            name: meta(t, "run.name")?,
            source: meta(t, "run.source")?,
            k: meta_int(t, "run.k")?,
            mode: parse_mode(&meta(t, "run.mode")?)?,
            threads: meta_int(t, "run.threads")?,
            heap_cells: meta_int(t, "run.heap_cells")?,
            seed: meta_int(t, "run.seed")?,
            quantum: meta_int(t, "run.quantum")?,
            stm_abort_budget: meta_int(t, "run.stm_abort_budget")?,
            faults,
            sentinel,
            weaken,
            sched,
            repairs,
            trace_capacity: meta_int(t, "run.capacity")?,
            init: (
                meta(t, "run.init")?,
                parse_args(&meta(t, "run.init_args")?)?,
            ),
            worker: (
                meta(t, "run.worker")?,
                parse_args(&meta(t, "run.worker_args")?)?,
            ),
            check: t.meta_get("run.check").map(str::to_owned),
        })
    }

    /// Stamps this config into a trace's metadata (the inverse of
    /// [`RunConfig::from_trace`]).
    pub(crate) fn stamp(&self, t: &mut Trace) {
        t.meta_set("run.name", self.name.clone());
        t.meta_set("run.source", self.source.clone());
        t.meta_set("run.k", self.k.to_string());
        t.meta_set("run.mode", format!("{:?}", self.mode));
        t.meta_set("run.threads", self.threads.to_string());
        t.meta_set("run.heap_cells", self.heap_cells.to_string());
        t.meta_set("run.seed", self.seed.to_string());
        t.meta_set("run.quantum", self.quantum.to_string());
        t.meta_set("run.stm_abort_budget", self.stm_abort_budget.to_string());
        t.meta_set("run.capacity", self.trace_capacity.to_string());
        t.meta_set("run.init", self.init.0.clone());
        t.meta_set("run.init_args", render_args(&self.init.1));
        t.meta_set("run.worker", self.worker.0.clone());
        t.meta_set("run.worker_args", render_args(&self.worker.1));
        if let Some(chk) = &self.check {
            t.meta_set("run.check", chk.clone());
        }
        if let Some(f) = self.faults {
            t.meta_set("run.fault_seed", f.seed.to_string());
            t.meta_set("run.fault_panic_pm", f.panic_per_mille.to_string());
            t.meta_set("run.fault_max_panics", f.max_panics.to_string());
            t.meta_set("run.fault_abort_pm", f.stm_abort_per_mille.to_string());
            t.meta_set("run.fault_wakeup_pm", f.wakeup_delay_per_mille.to_string());
            t.meta_set("run.fault_wakeup_ticks", f.wakeup_delay_ticks.to_string());
            t.meta_set("run.fault_stall_pm", f.stall_per_mille.to_string());
            t.meta_set("run.fault_stall_ticks", f.stall_ticks.to_string());
        }
        if let Some(s) = self.sentinel {
            t.meta_set("run.sentinel_sample", s.sample_every.to_string());
            t.meta_set("run.sentinel_probation", s.probation.to_string());
            t.meta_set("run.sentinel_flap", s.flap_multiplier.to_string());
            t.meta_set("run.sentinel_max", s.max_probation.to_string());
        }
        if let Some(w) = self.weaken {
            t.meta_set("run.weaken_section", w.section.to_string());
            t.meta_set("run.weaken_drop", w.drop_index.to_string());
        }
        if let Some(s) = &self.sched {
            t.meta_set("run.sched_policy", s.policy.tag().to_owned());
            t.meta_set("run.sched_holds", s.holds_string());
            // Only stamped when armed, so pre-aging traces stay
            // byte-identical through a record/stamp round trip.
            if s.aging != 0 {
                t.meta_set("run.sched_aging", s.aging.to_string());
            }
        }
        for &(section, candidate, c) in &self.repairs {
            t.meta_set(
                &format!("run.repair.{section}"),
                format!(
                    "{candidate}:k={},expr={},pts={},eff={},elem={}",
                    c.k,
                    c.use_expr,
                    c.use_pts,
                    c.use_eff,
                    match c.elem_field {
                        Some(f) => f.0.to_string(),
                        None => "none".to_owned(),
                    }
                ),
            );
        }
    }
}

/// Every virtual thread is an OS thread while it runs, so a recorded
/// or replayed thread count is bounded before anything is spawned for
/// it (`EvalContext::run_one_ledger`). The paper and every committed
/// workload stay at or below 16.
pub(crate) const MAX_REPLAY_THREADS: usize = 1024;

/// The heap commits a page the first time one of its cells is touched,
/// 16 bytes a cell, so `heap_cells` is what a program may come to
/// occupy, not what a machine costs to build. It is bounded all the
/// same: 1 GiB, 16× the largest committed workload.
pub(crate) const MAX_REPLAY_HEAP_CELLS: usize = 1 << 26;

fn meta(t: &Trace, k: &str) -> Result<String, String> {
    t.meta_get(k)
        .map(str::to_owned)
        .ok_or_else(|| format!("replay: trace metadata missing `{k}`"))
}

/// A required integer key, parsed at its field's own width so an
/// out-of-range value is an error rather than a truncation.
fn meta_int<T>(t: &Trace, k: &str) -> Result<T, String>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    meta(t, k)?
        .parse()
        .map_err(|e| format!("replay: bad `{k}`: {e}"))
}

/// Parses one `run.repair.<section>` value back into a [`RepairEntry`]
/// (the inverse of the [`RunConfig::stamp`] encoding).
fn parse_repair(section: u32, v: &str) -> Result<RepairEntry, String> {
    let bad = || format!("replay: bad `run.repair.{section}`: `{v}`");
    let (candidate, fields) = v.split_once(':').ok_or_else(bad)?;
    let candidate = candidate.parse::<u32>().map_err(|_| bad())?;
    let mut cfg = SchemeConfig::full(0, None);
    for field in fields.split(',') {
        let (key, val) = field.split_once('=').ok_or_else(bad)?;
        match key {
            "k" => cfg.k = val.parse().map_err(|_| bad())?,
            "expr" => cfg.use_expr = val.parse().map_err(|_| bad())?,
            "pts" => cfg.use_pts = val.parse().map_err(|_| bad())?,
            "eff" => cfg.use_eff = val.parse().map_err(|_| bad())?,
            "elem" => {
                cfg.elem_field = match val {
                    "none" => None,
                    n => Some(lir::FieldId(n.parse().map_err(|_| bad())?)),
                };
            }
            _ => return Err(bad()),
        }
    }
    Ok((section, candidate, cfg))
}

fn parse_mode(s: &str) -> Result<ExecMode, String> {
    Ok(match s {
        "Global" => ExecMode::Global,
        "MultiGrain" => ExecMode::MultiGrain,
        "Stm" => ExecMode::Stm,
        "Validate" => ExecMode::Validate,
        other => return Err(format!("replay: unknown mode `{other}`")),
    })
}

fn render_args(args: &[i64]) -> String {
    args.iter()
        .map(i64::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

fn parse_args(s: &str) -> Result<Vec<i64>, String> {
    if s.is_empty() {
        return Ok(Vec::new());
    }
    s.split(',')
        .map(|p| p.parse().map_err(|e| format!("replay: bad args: {e}")))
        .collect()
}

/// What one recorded/replayed run produced, rendered deterministically
/// under the virtual scheduler.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct RunOutcome {
    /// Per-thread worker return values (empty when the run errored
    /// before the workers finished).
    pub results: Vec<i64>,
    /// Virtual makespan of the worker phase, in ticks.
    pub makespan: u64,
    /// The checker's return value, when the config names one.
    pub check: Option<i64>,
    /// The first runtime error, rendered — chaos runs record and
    /// replay *through* failures rather than aborting.
    pub error: Option<String>,
}

/// The result of [`record`] or [`replay`]: the outcome plus the merged
/// event trace with the config stamped into its metadata.
#[derive(Clone, Debug)]
pub struct Recording {
    pub outcome: RunOutcome,
    pub trace: Trace,
}

/// Compiles, transforms, and executes `cfg` with tracing on, returning
/// the outcome and the self-describing trace.
///
/// Runtime errors (including injected chaos faults) do **not** fail the
/// recording — they land in [`RunOutcome::error`] and the events up to
/// the failure are kept, so a crashing run can be replayed and
/// inspected.
///
/// # Errors
///
/// Returns a message on compile failure, when [`RunConfig::threads`] or
/// [`RunConfig::heap_cells`] exceeds its limit, when the heap cannot
/// hold the program's globals, and when a repair names a scheme
/// configuration the runtime cannot execute.
pub fn record(cfg: &RunConfig) -> Result<Recording, String> {
    let ctx = EvalContext::new(cfg, true)?;
    ctx.run_one(cfg, &ctx.base_map(cfg), Stamp::Run, 0)
}

/// Derives the concrete lock specs each [`RepairEntry`] installs:
/// re-runs the inference with the repaired configuration overriding
/// the entry's section on top of `base` and extracts that section's
/// `acquireAll` plan. Deterministic at every `analysis_threads` count
/// (the engine's Phase B guarantee), and incremental when `store`
/// memoizes Phase A summaries across candidate configs.
pub(crate) fn repair_specs(
    repairs: &[RepairEntry],
    program: &lir::Program,
    pt: &pointsto::PointsTo,
    base: &ConfigMap,
    lib: &lockinfer::library::LibrarySpec,
    analysis_threads: usize,
    store: Option<&lockinfer::SummaryStore>,
) -> Vec<RepairSpec> {
    repairs
        .iter()
        .map(|&(section, candidate, config)| {
            let mut map = base.clone();
            map.set_override(section, config);
            let analysis = lockinfer::analyze_program_with_configs(
                program,
                pt,
                &map,
                lib,
                analysis_threads,
                store,
            );
            let specs = analysis
                .sections
                .iter()
                .find(|s| s.id.0 == section)
                .map(|s| s.locks.iter().map(|l| l.to_spec()).collect())
                .unwrap_or_default();
            RepairSpec {
                section,
                candidate,
                specs,
            }
        })
        .collect()
}

/// The machine options a [`RunConfig`] prescribes (tracing always on).
pub(crate) fn options_for(cfg: &RunConfig) -> Options {
    Options {
        heap_cells: cfg.heap_cells,
        seed: cfg.seed,
        quantum: cfg.quantum,
        faults: cfg.faults,
        sentinel: cfg.sentinel,
        weaken: cfg.weaken,
        sched: cfg.sched.clone(),
        stm_abort_budget: cfg.stm_abort_budget,
        trace: Some(trace::TraceConfig {
            capacity: cfg.trace_capacity,
        }),
        ..Options::default()
    }
}

/// Runs `cfg`'s init/worker/check phases on an already-built machine
/// and takes the (unstamped) trace.
pub(crate) fn execute(m: &interp::Machine, cfg: &RunConfig) -> (RunOutcome, trace::Trace) {
    let mut outcome = RunOutcome::default();
    if let Err(e) = m.run_named(&cfg.init.0, &cfg.init.1) {
        outcome.error = Some(format!("init: {e}"));
    }
    if outcome.error.is_none() {
        match m.run_threads_virtual(&cfg.worker.0, cfg.threads, |_| cfg.worker.1.clone()) {
            Ok((results, makespan)) => {
                outcome.results = results;
                outcome.makespan = makespan;
            }
            Err(e) => outcome.error = Some(format!("worker: {e}")),
        }
    }
    if outcome.error.is_none() {
        if let Some(chk) = &cfg.check {
            match m.run_named(chk, &[]) {
                Ok(v) => outcome.check = Some(v),
                Err(e) => outcome.error = Some(format!("check: {e}")),
            }
        }
    }
    let trace = m
        .take_trace()
        .expect("machine built with tracing enabled has a trace");
    (outcome, trace)
}

/// Re-executes the run a trace was recorded from and returns the fresh
/// recording. Under the deterministic scheduler the new trace's
/// canonical JSON (and therefore [`Trace::digest`]) matches the
/// original byte for byte.
///
/// # Errors
///
/// Returns a message when the trace lacks `run.*` metadata or the
/// embedded source no longer compiles.
pub fn replay(t: &Trace) -> Result<Recording, String> {
    record(&RunConfig::from_trace(t)?)
}

/// The outcome is stamped into the metadata too, so digest equality
/// certifies not just the same events but the same results, makespan,
/// and error disposition.
pub(crate) fn stamp_outcome(o: &RunOutcome, t: &mut Trace) {
    t.meta_set("out.results", render_args(&o.results));
    t.meta_set("out.makespan", o.makespan.to_string());
    if let Some(v) = o.check {
        t.meta_set("out.check", v.to_string());
    }
    if let Some(e) = &o.error {
        t.meta_set("out.error", e.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
        global c;
        fn setup(n) { c = n; }
        fn work(iters) {
            let i = 0;
            while (i < iters) {
                atomic { c = c + 1; nops(20); }
                i = i + 1;
            }
            return 0;
        }
        fn total() { return c; }
    "#;

    fn cfg(mode: ExecMode) -> RunConfig {
        RunConfig {
            name: "counter".into(),
            source: SRC.into(),
            k: 3,
            mode,
            threads: 4,
            heap_cells: 1 << 16,
            seed: 7,
            quantum: 64,
            stm_abort_budget: 16,
            faults: None,
            sentinel: None,
            weaken: None,
            sched: None,
            repairs: Vec::new(),
            trace_capacity: 1 << 16,
            init: ("setup".into(), vec![10]),
            worker: ("work".into(), vec![25]),
            check: Some("total".into()),
        }
    }

    #[test]
    fn config_round_trips_through_trace_meta() {
        let mut t = Trace::default();
        let mut c = cfg(ExecMode::Stm);
        c.faults = Some(FaultPlan::new(9).with_stm_aborts(40));
        c.sentinel = Some(SentinelConfig {
            sample_every: 2,
            probation: 3,
            flap_multiplier: 4,
            max_probation: 24,
        });
        c.weaken = Some(WeakenPlan {
            section: 1,
            drop_index: 0,
        });
        c.sched = Some(SchedConfig {
            policy: interp::PolicyKind::ShortestExpectedHold,
            expected_hold: vec![(1, 40), (2, 900)],
            aging: 6,
        });
        c.repairs = vec![
            (
                0,
                1,
                SchemeConfig {
                    use_expr: false,
                    ..SchemeConfig::full(3, None)
                },
            ),
            (
                2,
                0,
                SchemeConfig {
                    use_eff: false,
                    elem_field: Some(lir::FieldId(4)),
                    ..SchemeConfig::full(9, Some(lir::FieldId(4)))
                },
            ),
        ];
        c.stamp(&mut t);
        assert_eq!(RunConfig::from_trace(&t).unwrap(), c);
        // And through the JSON encoding as well.
        let t2 = Trace::from_json(&t.to_json()).unwrap();
        assert_eq!(RunConfig::from_trace(&t2).unwrap(), c);
    }

    #[test]
    fn record_then_replay_reproduces_the_digest() {
        for mode in [ExecMode::Global, ExecMode::MultiGrain, ExecMode::Stm] {
            let rec = record(&cfg(mode)).unwrap();
            assert_eq!(rec.outcome.check, Some(10 + 4 * 25), "{mode:?}");
            assert!(rec.outcome.error.is_none());
            assert!(!rec.trace.events.is_empty());
            let rep = replay(&rec.trace).unwrap();
            assert_eq!(rec.outcome, rep.outcome, "{mode:?}");
            assert_eq!(rec.trace.digest(), rep.trace.digest(), "{mode:?}");
            assert_eq!(rec.trace.to_json(), rep.trace.to_json(), "{mode:?}");
        }
    }

    #[test]
    fn chaos_failure_replays_to_the_same_digest() {
        let mut c = cfg(ExecMode::MultiGrain);
        c.faults = Some(FaultPlan::new(0xBAD).with_panics(200, 1));
        let rec = record(&c).unwrap();
        let err = rec.outcome.error.as_deref().expect("panic plan fires");
        assert!(err.contains("panic"), "{err}");
        let rep = replay(&rec.trace).unwrap();
        assert_eq!(rec.outcome, rep.outcome);
        assert_eq!(rec.trace.digest(), rep.trace.digest());
    }

    #[test]
    fn recorded_lock_traces_validate_clean() {
        for mode in [ExecMode::Global, ExecMode::MultiGrain] {
            let rec = record(&cfg(mode)).unwrap();
            let v = trace::validate(&rec.trace).unwrap();
            assert!(v.passed(), "{mode:?}: {:?}", v.violations);
            assert!(v.checked > 0, "{mode:?}");
        }
    }

    /// Trace files come from outside the program: one doctored `run.*`
    /// value must surface as `Err` naming the key — never a panic, a
    /// silently truncated field, or a machine built for it.
    #[test]
    fn hostile_replay_metadata_is_rejected_with_a_typed_error() {
        let mut c = cfg(ExecMode::MultiGrain);
        c.faults = Some(FaultPlan::new(9).with_stm_aborts(40));
        c.sentinel = Some(SentinelConfig::default());
        c.weaken = Some(WeakenPlan {
            section: 0,
            drop_index: 0,
        });
        let good = record(&c).unwrap().trace;
        assert!(replay(&good).is_ok(), "the undoctored trace replays");
        // Past each field's own width: u16, u32, usize.
        let (u16_max, u32_max) = (u64::from(u16::MAX), u64::from(u32::MAX));
        let cases: &[(&str, String)] = &[
            ("run.threads", "100000".into()),
            ("run.threads", "-1".into()),
            ("run.heap_cells", "1".into()),
            ("run.heap_cells", u64::MAX.to_string()),
            ("run.fault_panic_pm", (u16_max + 1).to_string()),
            ("run.fault_abort_pm", (u16_max + 1).to_string()),
            ("run.fault_wakeup_pm", (u16_max + 1).to_string()),
            ("run.fault_stall_pm", (u16_max + 1).to_string()),
            ("run.fault_max_panics", (u32_max + 1).to_string()),
            ("run.sentinel_sample", (u32_max + 1).to_string()),
            ("run.sentinel_probation", (u32_max + 1).to_string()),
            ("run.sentinel_flap", (u32_max + 1).to_string()),
            ("run.sentinel_max", (u32_max + 1).to_string()),
            ("run.weaken_section", (u32_max + 1).to_string()),
            ("run.weaken_drop", "18446744073709551616".into()),
        ];
        for (key, value) in cases {
            let mut t = good.clone();
            assert!(t.meta_get(key).is_some(), "{key} is stamped");
            t.meta_set(key, value.clone());
            let err = replay(&t).expect_err(&format!("{key}={value} must be rejected"));
            assert!(err.contains(key.trim_start_matches("run.")), "{key}: {err}");
        }
    }

    /// `Σ_k` without `Σ≡` is an analysis-only point of the scheme: a
    /// trace asking a machine to install it is refused, not unwound
    /// through `to_spec`.
    #[test]
    fn an_unexecutable_repair_is_rejected_with_a_typed_error() {
        let mut t = record(&cfg(ExecMode::MultiGrain)).unwrap().trace;
        t.meta_set(
            "run.repair.0",
            "0:k=9,expr=true,pts=false,eff=true,elem=none",
        );
        let err = replay(&t).expect_err("fine locks without a partition cannot run");
        assert!(err.contains("cannot be executed"), "{err}");
    }

    /// The bounds guard the door every run enters by, not only the
    /// trace-metadata parser.
    #[test]
    fn record_refuses_thread_and_heap_counts_over_the_limits() {
        let mut c = cfg(ExecMode::MultiGrain);
        c.threads = MAX_REPLAY_THREADS + 1;
        assert!(record(&c).unwrap_err().contains("threads"));
        let mut c = cfg(ExecMode::MultiGrain);
        c.heap_cells = MAX_REPLAY_HEAP_CELLS + 1;
        assert!(record(&c).unwrap_err().contains("heap_cells"));
    }

    #[test]
    fn foreign_trace_is_rejected() {
        let t = Trace::default();
        assert!(replay(&t).unwrap_err().contains("run.name"));
    }
}
