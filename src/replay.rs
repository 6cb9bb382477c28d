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
use interp::{ExecMode, FaultPlan, Options, Response, SchedConfig, SentinelConfig};
use lockscheme::{ConfigMap, SchemeConfig};
use trace::Trace;

/// One installed repair, at configuration level: `(section, candidate
/// id, repaired scheme configuration)`. The concrete per-section lock
/// specs are **derived** deterministically at machine-build time (see
/// `eval::repair_specs`), so a trace stamped with repairs stays
/// self-describing — replaying re-derives the identical specs from the
/// embedded source.
pub type RepairEntry = (u32, u32, SchemeConfig);

/// Fault-injected *weakened inference*: drops the `drop_index`-th lock
/// spec from `section`'s `acquireAll`, modeling a compiler that
/// under-inferred that section's footprint. It is a rewrite of the
/// transformed program, made before the machine is built, so the
/// interpreter plans and revalidates the specs it is given and the
/// executed section has a genuine soundness gap for the online
/// sentinel to catch, without corrupting the analysis itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WeakenPlan {
    /// The section whose plan is weakened.
    pub section: u32,
    /// Index into the section's `acquireAll` spec list to drop.
    pub drop_index: usize,
}

impl WeakenPlan {
    /// Drops spec `drop_index` from every `acquireAll` of `section` in
    /// `program`, keeping the other specs in their order. Returns how
    /// many specs the section planned before the drop (`None`: no
    /// `acquireAll` of `section`), so a spec was dropped iff
    /// `drop_index` is below it.
    pub fn apply(self, program: &mut lir::Program) -> Option<usize> {
        let mut planned = None;
        for ins in program.functions.iter_mut().flat_map(|f| &mut f.body) {
            if let lir::Instr::AcquireAll(sid, specs) = ins {
                if sid.0 == self.section {
                    planned = Some(specs.len());
                    if self.drop_index < specs.len() {
                        specs.remove(self.drop_index);
                    }
                }
            }
        }
        planned
    }
}

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
    /// Online lockset sentinel, if enabled: MultiGrain only.
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
    /// Events each thread registration may record (`TraceConfig::capacity`).
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
    /// [`record`]. This only parses: whether the values describe a run
    /// a machine can be built for is `RunConfig::check`'s to decide,
    /// and every recording, [`replay`] included, asks it first.
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
                response: match t.meta_get("run.sentinel_response") {
                    None => Response::Quarantine,
                    Some("fail") => Response::Fail,
                    Some(v) => return Err(format!("replay: bad `run.sentinel_response`: `{v}`")),
                },
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
                let holds = meta(t, "run.sched_holds")?;
                let expected_hold = SchedConfig::parse_holds(&holds)
                    .ok_or_else(|| format!("replay: bad `run.sched_holds`: `{holds}`"))?;
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
            if s.response == Response::Fail {
                t.meta_set("run.sentinel_response", "fail".to_owned());
            }
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
            let elem = c.elem_field.map_or("none".to_owned(), |f| f.0.to_string());
            t.meta_set(
                &format!("run.repair.{section}"),
                format!("{candidate}:{c},elem={elem}"),
            );
        }
    }
}

/// A virtual thread is per-worker state that one scheduler loop resumes
/// on the calling thread: frames, a lock session, a fault stream and,
/// when tracing, a recorder handle. A recorded or replayed thread
/// count caps how many of those one run builds, and is checked before
/// any is ([`check_run_size`]). The paper and every committed workload
/// stay at or below 16.
pub(crate) const MAX_REPLAY_THREADS: usize = 1024;

/// The heap commits a page the first time one of its cells is touched,
/// 16 bytes a cell, so `heap_cells` is what a program may come to
/// occupy, not what a machine costs to build. It is bounded all the
/// same: 1 GiB, 16× the largest committed workload.
pub(crate) const MAX_REPLAY_HEAP_CELLS: usize = 1 << 26;

/// The most virtual ticks an injected lock stall or delayed wake-up may
/// idle a worker. A run's setup has no scheduler (`Machine::run_named`),
/// so there an idle worker spins once per tick: on a 2-vCPU host a small
/// `hashtable2` recording stalled at this bound takes 0.3 s, at 10⁶
/// ticks seconds, and at `u64::MAX / 2` it never finishes. Every
/// committed fault plan stays at or below 500 ticks.
const MAX_FAULT_TICKS: u64 = 100_000;

/// Refuses a run size no machine should be built for: no threads at
/// all, a thread count or heap bound over the limits above, or a heap
/// that cannot hold the program's `globals` (`Machine::new` gives every
/// global its own cell after the null cell and panics when they do not
/// fit). `RunConfig::check` asks it first, and `lockc --run` asks it
/// too: the sizes can come from a trace file or a command line.
///
/// # Errors
///
/// Names the value that is out of bounds.
pub fn check_run_size(threads: usize, heap_cells: usize, globals: usize) -> Result<(), String> {
    if threads == 0 {
        return Err("run: bad `threads`: 0 runs nothing, a run needs at least one".into());
    }
    for (key, value, limit) in [
        ("threads", threads, MAX_REPLAY_THREADS),
        ("heap_cells", heap_cells, MAX_REPLAY_HEAP_CELLS),
    ] {
        if value > limit {
            return Err(format!(
                "run: bad `{key}`: {value} exceeds the limit of {limit}"
            ));
        }
    }
    if heap_cells <= globals {
        return Err(format!(
            "run: heap_cells = {heap_cells} cannot hold the program's {globals} globals"
        ));
    }
    Ok(())
}

impl RunConfig {
    /// The door every recording enters by, whether the config came from
    /// a trace file, a command line or a candidate loop. It refuses, in
    /// order: a size [`check_run_size`] refuses for a program of
    /// `globals` globals, a hold table that does not strictly increase
    /// by section, a fault plan that idles a worker for more than
    /// [`MAX_FAULT_TICKS`] at a time, a section configuration —
    /// `map`'s default, an override or a repair — that is not
    /// [`SchemeConfig::is_executable`], and a sentinel that cannot act:
    /// one outside MultiGrain (it checks a lock plan), one that samples
    /// no access, or none for a repair, which only its ladder installs.
    ///
    /// # Errors
    ///
    /// A `run:` line naming the first value out of bounds.
    pub(crate) fn check(&self, map: &ConfigMap, globals: usize) -> Result<(), String> {
        check_run_size(self.threads, self.heap_cells, globals)?;
        if let Some(s) = &self.sched {
            s.check_holds().map_err(|e| format!("run: {e}"))?;
        }
        if let Some(f) = &self.faults {
            for (key, ticks) in [
                ("fault_wakeup_ticks", f.wakeup_delay_ticks),
                ("fault_stall_ticks", f.stall_ticks),
            ] {
                if ticks > MAX_FAULT_TICKS {
                    return Err(format!(
                        "run: bad `{key}`: {ticks} exceeds the limit of {MAX_FAULT_TICKS}"
                    ));
                }
            }
        }
        let overrides = map.overrides().iter().map(|&(_, c)| c);
        let repairs = self.repairs.iter().map(|&(_, _, c)| c);
        if let Some(c) = std::iter::once(map.default)
            .chain(overrides)
            .chain(repairs)
            .find(|c| !c.is_executable())
        {
            return Err(format!(
                "run: a scheme with expression locks (k={}) but no points-to component \
                 cannot be executed: fine locks need their points-to partition",
                c.k
            ));
        }
        let why = match (self.mode, self.sentinel) {
            (_, Some(s)) if s.sample_every == 0 => "`sentinel_sample`: 0 checks no access".into(),
            (ExecMode::MultiGrain, Some(_)) => return Ok(()),
            (mode, Some(_)) => {
                format!("`sentinel`: it checks a lock plan, and {mode:?} plans none")
            }
            (_, None) if !self.repairs.is_empty() => {
                "`repair`: no sentinel heals a section onto it".into()
            }
            (_, None) => return Ok(()),
        };
        Err(format!("run: bad {why}"))
    }

    /// Applies the weaken plan to `program`, the transformed program
    /// the run executes, and refuses a plan that dropped nothing: the
    /// fault removes one spec from a section's `acquireAll`, which only
    /// MultiGrain plans, so the plan must name an existing spec of one.
    /// The rule and its effect are this one call, so they cannot
    /// disagree.
    pub(crate) fn check_weaken(&self, program: &mut lir::Program) -> Result<(), String> {
        let Some(w) = self.weaken else {
            return Ok(());
        };
        let why = match (self.mode, w.apply(program)) {
            (ExecMode::MultiGrain, Some(n)) if w.drop_index < n => return Ok(()),
            (ExecMode::MultiGrain, Some(n)) => format!("section {} plans {n}", w.section),
            (ExecMode::MultiGrain, None) => format!("no section {} plans any", w.section),
            (mode, _) => format!("{mode:?} plans none"),
        };
        Err(format!(
            "run: bad `weaken` {}:{}: it names no lock spec to drop ({why})",
            w.section, w.drop_index
        ))
    }
}

/// Parses a command-line execution-mode name (`global`,
/// `multigrain`/`mg`, `stm`, `validate`) into a discipline and the
/// sentinel it is checked by: `validate` is MultiGrain under
/// [`SentinelConfig::validate`]. `lockc` and the bench binaries share
/// it; [`RunConfig::from_trace`] reads a trace's own `run.mode`
/// spelling.
pub fn parse_exec_mode(s: &str) -> Option<(ExecMode, Option<SentinelConfig>)> {
    Some(match s {
        "global" => (ExecMode::Global, None),
        "multigrain" | "mg" => (ExecMode::MultiGrain, None),
        "stm" => (ExecMode::Stm, None),
        "validate" => (ExecMode::MultiGrain, Some(SentinelConfig::validate())),
        _ => return None,
    })
}

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
    let (candidate, rest) = v.split_once(':').ok_or_else(bad)?;
    let (scheme, elem) = rest.rsplit_once(",elem=").ok_or_else(bad)?;
    let candidate = candidate.parse::<u32>().map_err(|_| bad())?;
    let mut cfg: SchemeConfig = scheme.parse().map_err(|e| format!("{}: {e}", bad()))?;
    cfg.elem_field = match elem {
        "none" => None,
        n => Some(lir::FieldId(n.parse().map_err(|_| bad())?)),
    };
    Ok((section, candidate, cfg))
}

fn parse_mode(s: &str) -> Result<ExecMode, String> {
    Ok(match s {
        "Global" => ExecMode::Global,
        "MultiGrain" => ExecMode::MultiGrain,
        "Stm" => ExecMode::Stm,
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

/// The result of [`record`] or [`replay`]: the outcome, the event trace
/// with the config stamped into its metadata, and the few numbers only
/// the machine knew at the end of the run.
#[derive(Clone, Debug)]
pub struct Recording {
    pub outcome: RunOutcome,
    pub trace: Trace,
    /// The end-of-run totals no trace carries, as `ali_run_*` gauges:
    /// heap cells used, the virtual scheduler's yield points and
    /// hand-offs, sentinel violations, and lock sessions poisoned and
    /// grants released by unwinding. Everything else a run measures is
    /// `obs::from_trace` of [`Recording::trace`].
    pub gauges: crate::obs::Snapshot,
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
/// Returns a message on compile failure, and the `run:` line of the
/// first rule the config breaks: `RunConfig::check`, then
/// `RunConfig::check_weaken`.
pub fn record(cfg: &RunConfig) -> Result<Recording, String> {
    let ctx = EvalContext::new(cfg, true)?;
    ctx.run_one(cfg, &ctx.base_map(cfg), Stamp::Run)
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
            response: Response::Fail,
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

    /// A worker argument list that does not fit the worker's
    /// parameters is the run's error under the virtual scheduler too:
    /// no thread runs and no result is made up.
    #[test]
    fn a_worker_argument_count_mismatch_is_the_recorded_error() {
        for worker_args in [vec![25, 26, 27], vec![]] {
            let mut c = cfg(ExecMode::MultiGrain);
            let got = worker_args.len();
            c.worker.1 = worker_args;
            let rec = record(&c).unwrap();
            assert_eq!(
                rec.outcome.error.as_deref(),
                Some(&*format!("worker: `work` expects 1 arguments, got {got}"))
            );
            assert!(rec.outcome.results.is_empty());
            assert_eq!(rec.outcome.makespan, 0);
            assert_eq!(rec.outcome.check, None);
        }
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
        c.sentinel = Some(SentinelConfig::validate());
        c.weaken = Some(WeakenPlan {
            section: 0,
            drop_index: 0,
        });
        c.repairs = vec![(0, 0, SchemeConfig::full(3, None))];
        let good = record(&c).unwrap().trace;
        assert!(replay(&good).is_ok(), "the undoctored trace replays");
        // Past each field's own width: u16, u32, usize.
        let (u16_max, u32_max, u64_max) = (u64::from(u16::MAX), u64::from(u32::MAX), u64::MAX);
        let cases: &[(&str, String)] = &[
            ("run.threads", "100000".into()),
            ("run.threads", "0".into()),
            ("run.threads", "-1".into()),
            ("run.heap_cells", "1".into()),
            ("run.heap_cells", u64::MAX.to_string()),
            ("run.fault_panic_pm", (u16_max + 1).to_string()),
            ("run.fault_abort_pm", (u16_max + 1).to_string()),
            ("run.fault_wakeup_pm", (u16_max + 1).to_string()),
            ("run.fault_stall_pm", (u16_max + 1).to_string()),
            ("run.fault_max_panics", (u32_max + 1).to_string()),
            // In range for a `u64`, but a run would spin on them.
            ("run.fault_wakeup_ticks", u64_max.to_string()),
            ("run.fault_stall_ticks", u64_max.to_string()),
            ("run.sentinel_sample", (u32_max + 1).to_string()),
            ("run.sentinel_sample", "0".into()),
            ("run.sentinel_response", "warn".into()),
            // The checker is a sentinel policy, not a discipline.
            ("run.mode", "Validate".into()),
            ("run.weaken_section", (u32_max + 1).to_string()),
            ("run.weaken_drop", "18446744073709551616".into()),
            // `SchemeConfig`'s one text form, between a candidate and
            // an `elem` field: nothing missing, extra or out of place.
            (
                "run.repair.0",
                "0:k=3,expr=true,pts=true,eff=yes,elem=none".into(),
            ),
            (
                "run.repair.0",
                "0:k=3,pts=true,expr=true,eff=true,elem=none".into(),
            ),
            ("run.repair.0", "0:k=3,expr=true,pts=true,elem=none".into()),
            (
                "run.repair.0",
                "0:k=3,expr=true,pts=true,eff=true,x=1,elem=none".into(),
            ),
            ("run.repair.0", "0:k=3,expr=true,pts=true,eff=true".into()),
            (
                "run.repair.0",
                "0:k=3,expr=true,pts=true,eff=true,elem=-1".into(),
            ),
            (
                "run.repair.0",
                "-1:k=3,expr=true,pts=true,eff=true,elem=none".into(),
            ),
            (
                "run.repair.0",
                format!("0:k={u64_max}0,expr=true,pts=true,eff=true,elem=none"),
            ),
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

    /// The bounds, zero threads included, guard the door every run enters
    /// by, not only the trace-metadata parser.
    #[test]
    fn record_refuses_thread_and_heap_counts_over_the_limits() {
        for threads in [0, MAX_REPLAY_THREADS + 1] {
            let mut c = cfg(ExecMode::MultiGrain);
            c.threads = threads;
            assert!(record(&c).unwrap_err().contains("threads"), "{threads}");
        }
        let mut c = cfg(ExecMode::MultiGrain);
        c.heap_cells = MAX_REPLAY_HEAP_CELLS + 1;
        assert!(record(&c).unwrap_err().contains("heap_cells"));
    }

    /// Each bound of the door passes at its limit and is refused one
    /// past it, checked on the config alone: no machine is built.
    #[test]
    fn the_door_admits_each_limit_and_refuses_one_past_it() {
        let map = ConfigMap::uniform(SchemeConfig::full(3, None));
        let globals = 1;
        let with = |edit: &dyn Fn(&mut RunConfig)| {
            let mut c = cfg(ExecMode::MultiGrain);
            edit(&mut c);
            c
        };
        let ticks = |wakeup_delay_ticks, stall_ticks| {
            Some(FaultPlan {
                wakeup_delay_ticks,
                stall_ticks,
                ..FaultPlan::new(9)
            })
        };
        let holds = |expected_hold| {
            Some(SchedConfig {
                policy: interp::PolicyKind::ShortestExpectedHold,
                expected_hold,
                aging: 0,
            })
        };
        // A sentinel needs MultiGrain's lock plan and a sampling period
        // of at least 1; a repair needs a sentinel to heal onto it.
        let sentinel = |sample_every| {
            Some(SentinelConfig {
                sample_every,
                ..SentinelConfig::default()
            })
        };
        let repair = || vec![(0, 0, SchemeConfig::full(3, None))];
        let cases = [
            (
                "threads",
                with(&|c| c.threads = 1),
                with(&|c| c.threads = 0),
            ),
            (
                "threads",
                with(&|c| c.threads = 1024),
                with(&|c| c.threads = 1025),
            ),
            (
                "heap_cells",
                with(&|c| c.heap_cells = globals + 1),
                with(&|c| c.heap_cells = globals),
            ),
            (
                "heap_cells",
                with(&|c| c.heap_cells = 1 << 26),
                with(&|c| c.heap_cells = (1 << 26) + 1),
            ),
            (
                "fault_wakeup_ticks",
                with(&|c| c.faults = ticks(100_000, 0)),
                with(&|c| c.faults = ticks(100_001, 0)),
            ),
            (
                "fault_stall_ticks",
                with(&|c| c.faults = ticks(0, 100_000)),
                with(&|c| c.faults = ticks(0, 100_001)),
            ),
            (
                "sched_holds",
                with(&|c| c.sched = holds(vec![(0, 5), (1, 9)])),
                with(&|c| c.sched = holds(vec![(0, 5), (0, 9)])),
            ),
            (
                "sentinel",
                with(&|c| c.sentinel = sentinel(1)),
                with(&|c| (c.mode, c.sentinel) = (ExecMode::Global, sentinel(1))),
            ),
            (
                "sentinel",
                with(&|c| c.sentinel = sentinel(1)),
                with(&|c| (c.mode, c.sentinel) = (ExecMode::Stm, sentinel(1))),
            ),
            (
                "sentinel_sample",
                with(&|c| c.sentinel = sentinel(1)),
                with(&|c| c.sentinel = sentinel(0)),
            ),
            (
                "repair",
                with(&|c| (c.sentinel, c.repairs) = (sentinel(1), repair())),
                with(&|c| c.repairs = repair()),
            ),
            (
                "repair",
                with(&|c| (c.sentinel, c.repairs) = (sentinel(1), repair())),
                with(&|c| (c.mode, c.repairs) = (ExecMode::Stm, repair())),
            ),
        ];
        for (key, at_limit, past) in cases {
            assert_eq!(at_limit.check(&map, globals), Ok(()), "{key}");
            let err = past.check(&map, globals).unwrap_err();
            assert!(
                err.starts_with("run: ") && err.contains(key),
                "{key}: {err}"
            );
        }
    }

    /// A weaken plan drops one spec of a MultiGrain `acquireAll`; a
    /// plan that names none would record a fault never planted, so the
    /// run refuses it.
    #[test]
    fn a_weaken_plan_that_drops_nothing_is_refused() {
        for (mode, section, drop_index, why) in [
            (ExecMode::MultiGrain, 9, 0, "no section 9 plans any"),
            (ExecMode::MultiGrain, 0, 1, "section 0 plans 1"),
            (ExecMode::Stm, 0, 0, "Stm plans none"),
        ] {
            let mut c = cfg(mode);
            c.sentinel = (mode == ExecMode::MultiGrain).then(SentinelConfig::default);
            c.weaken = Some(WeakenPlan {
                section,
                drop_index,
            });
            assert_eq!(
                record(&c).unwrap_err(),
                format!(
                    "run: bad `weaken` {section}:{drop_index}: it names no lock spec to drop ({why})"
                )
            );
        }
        // The last spec of the section is still a plan.
        let mut c = cfg(ExecMode::MultiGrain);
        c.sentinel = Some(SentinelConfig::default());
        c.weaken = Some(WeakenPlan {
            section: 0,
            drop_index: 0,
        });
        assert!(record(&c).is_ok());
    }

    /// Two sections: the first plans a lock on each of `a` and `b`,
    /// the second one on `c`.
    const TWO_SECTIONS: &str = r#"
        global a, b, c;
        fn work() {
            atomic { a = a + 1; b = b + a; }
            atomic { c = c + 1; }
            return 0;
        }
    "#;

    /// Every `acquireAll` of `program`, as (section, specs).
    fn plans(program: &lir::Program) -> Vec<(u32, Vec<lir::LockSpec>)> {
        program
            .functions
            .iter()
            .flat_map(|f| &f.body)
            .filter_map(|ins| match ins {
                lir::Instr::AcquireAll(sid, specs) => Some((sid.0, specs.clone())),
                _ => None,
            })
            .collect()
    }

    /// `apply` drops spec `i` from every `acquireAll` of section `s`,
    /// keeps the section's other specs in their order and leaves every
    /// other section alone.
    #[test]
    fn a_weaken_plan_drops_one_spec_of_one_section() {
        let (_, _, transformed) = lockinfer::compile_with_locks(TWO_SECTIONS, 3).unwrap();
        let before = plans(&transformed);
        assert!(
            before.iter().any(|(_, specs)| specs.len() >= 2),
            "{before:?}"
        );
        for (section, specs) in &before {
            for drop_index in 0..specs.len() {
                let mut p = transformed.clone();
                let w = WeakenPlan {
                    section: *section,
                    drop_index,
                };
                assert_eq!(w.apply(&mut p), Some(specs.len()), "{w:?}");
                let expected: Vec<_> = before
                    .iter()
                    .map(|(s, specs)| {
                        let mut specs = specs.clone();
                        if s == section {
                            specs.remove(drop_index);
                        }
                        (*s, specs)
                    })
                    .collect();
                assert_eq!(plans(&p), expected, "{w:?}");
            }
        }
    }

    /// An index past the section's specs, a section with no
    /// `acquireAll` and an untransformed (Global) program leave the
    /// program as it was.
    #[test]
    fn a_weaken_plan_that_names_no_spec_drops_nothing() {
        let (program, _, transformed) = lockinfer::compile_with_locks(TWO_SECTIONS, 3).unwrap();
        let n = plans(&transformed)[0].1.len();
        for (w, planned) in [
            (
                WeakenPlan {
                    section: 0,
                    drop_index: n,
                },
                Some(n),
            ),
            (
                WeakenPlan {
                    section: 9,
                    drop_index: 0,
                },
                None,
            ),
        ] {
            let mut p = transformed.clone();
            assert_eq!(w.apply(&mut p), planned, "{w:?}");
            assert_eq!(p.to_string(), transformed.to_string(), "{w:?}");
        }
        let mut p = program.clone();
        let w = WeakenPlan {
            section: 0,
            drop_index: 0,
        };
        assert_eq!(w.apply(&mut p), None);
        assert_eq!(p.to_string(), program.to_string());
    }

    /// `from_profiles` writes an expected-hold table strictly
    /// increasing by section, and every armed wake policy stamps one. A
    /// table it could not have written is refused by the one door every
    /// run enters, with the same line whether it was built in-process or
    /// read from a trace (which parses it as it stands), and so is an
    /// armed policy whose table key is missing, as for any other armed
    /// group.
    #[test]
    fn a_hold_table_from_profiles_could_not_write_is_refused() {
        let steered = |expected_hold: Vec<(u32, u64)>| RunConfig {
            sched: Some(SchedConfig {
                policy: interp::PolicyKind::ShortestExpectedHold,
                expected_hold,
                aging: 0,
            }),
            ..cfg(ExecMode::MultiGrain)
        };
        let refusal =
            |holds: &str| format!("bad `sched_holds` `{holds}`: sections must strictly increase");
        for (table, holds) in [
            (vec![(1, 9), (0, 5), (0, 7)], "1:9,0:5,0:7"),
            (vec![(0, 5), (0, 7)], "0:5,0:7"),
        ] {
            let err = record(&steered(table)).unwrap_err();
            assert_eq!(err, format!("run: {}", refusal(holds)));
        }
        let good = record(&steered(vec![(0, 5), (1, 9)])).unwrap().trace;
        assert_eq!(good.meta_get("run.sched_holds"), Some("0:5,1:9"));
        assert!(replay(&good).is_ok(), "the undoctored trace replays");
        for holds in ["1:9,0:5,0:7", "0:5,0:7"] {
            let mut t = good.clone();
            t.meta_set("run.sched_holds", holds);
            assert!(RunConfig::from_trace(&t).is_ok(), "parsing is not checking");
            assert_eq!(replay(&t).unwrap_err(), format!("run: {}", refusal(holds)));
        }
        let mut t = good;
        t.meta.retain(|(k, _)| k != "run.sched_holds");
        assert_eq!(
            replay(&t).unwrap_err(),
            "replay: trace metadata missing `run.sched_holds`"
        );
    }

    #[test]
    fn foreign_trace_is_rejected() {
        let t = Trace::default();
        assert!(replay(&t).unwrap_err().contains("run.name"));
    }
}
