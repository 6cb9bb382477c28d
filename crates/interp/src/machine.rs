//! The shared machine: heap, layouts, allocation metadata, and the
//! execution-mode configuration.

use crate::error::{Exc, InterpError};
use crate::sentinel::{Sentinel, SentinelConfig};
use lir::{FnId, Instr, Program, Rvalue, VarId};
use parking_lot::{Mutex, RwLock};
use pointsto::{AllocSite, PointsTo, PtsClass};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How atomic sections are executed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExecMode {
    /// One global lock per section (the paper's baseline column).
    Global,
    /// The inferred multi-granularity locks via `mglock` — requires the
    /// transformed program.
    MultiGrain,
    /// Sections as TL2 transactions with local rollback (the optimistic
    /// baseline).
    Stm,
}

/// A staged repaired lock plan for one section, produced by
/// quarantine-aware re-inference (the root crate's `reinfer` loop): once the
/// section has healed, the worker plans `specs` — derived from the
/// admitted repair candidate's refined `SchemeConfig` under this
/// machine's own program and points-to result — instead of the seed
/// scheme. Until the heal, and again if the repair is revoked, the
/// ordinary ladder applies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RepairSpec {
    /// The section the repair targets.
    pub section: u32,
    /// The admitted candidate's index, for the `["ri", …]` trace event.
    pub candidate: u32,
    /// The repaired lock specs the worker plans after the heal.
    pub specs: Vec<lir::LockSpec>,
}

/// Runtime degradation counters from one execution, aggregated across
/// the locking runtimes ([`Machine::degradation_report`]).
///
/// "Degradation" covers everything on the graceful-degradation ladder:
/// STM starvation fallbacks to irrevocable mode, lock sessions poisoned
/// by unwinding workers, and deliberately injected faults.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DegradationReport {
    /// STM: committed transactions.
    pub stm_commits: u64,
    /// STM: aborted attempts (conflicts plus injected).
    pub stm_aborts: u64,
    /// STM: transactions that escalated to irrevocable global mode.
    pub stm_fallbacks: u64,
    /// Lock sessions that unwound while holding locks.
    pub poisoned_sessions: u64,
    /// Lock modes released by unwind (drop) instead of protocol order.
    pub unwind_releases: u64,
    /// Lock batches released and re-acquired because a fine-grained
    /// descriptor drifted while the session waited (the guarded
    /// structure moved between evaluation and grant). Informational —
    /// revalidation is the protocol *working*, not degrading — so it
    /// does not affect [`DegradationReport::is_clean`].
    pub lock_revalidations: u64,
    /// Faults injected by the active plan, by class.
    pub injected_panics: u64,
    pub injected_aborts: u64,
    pub injected_delays: u64,
    pub injected_stalls: u64,
    /// In-section accesses the online sentinel found unlicensed by the
    /// live held-mode set (a real protection gap — never clean).
    pub sentinel_violations: u64,
    /// Sections the sentinel's quarantine ladder demoted to the
    /// trivially sound global scheme. Informational, like
    /// [`DegradationReport::lock_revalidations`]: quarantine is the
    /// *remedy* working, while the gap itself is already counted in
    /// [`DegradationReport::sentinel_violations`].
    pub sections_quarantined: u64,
    /// Quarantined sections re-admitted to their original
    /// configuration after serving their probation of consecutive
    /// clean executions. Informational.
    pub sections_healed: u64,
}

impl DegradationReport {
    /// True when nothing degraded: no fallbacks, no poisoning, no
    /// sentinel violations, no injections — the run stayed on the happy
    /// path end to end.
    pub fn is_clean(&self) -> bool {
        let DegradationReport {
            stm_commits: _,
            stm_aborts: _,
            lock_revalidations: _,
            sections_quarantined: _,
            sections_healed: _,
            stm_fallbacks,
            poisoned_sessions,
            unwind_releases,
            injected_panics,
            injected_aborts,
            injected_delays,
            injected_stalls,
            sentinel_violations,
        } = *self;
        stm_fallbacks == 0
            && poisoned_sessions == 0
            && unwind_releases == 0
            && injected_panics == 0
            && injected_aborts == 0
            && injected_delays == 0
            && injected_stalls == 0
            && sentinel_violations == 0
    }
}

impl fmt::Display for DegradationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "stm {}c/{}a/{}f  poisoned {}  unwound {}  revalidated {}  \
             injected p{}/a{}/d{}/s{}  sentinel {}v/{}q/{}h",
            self.stm_commits,
            self.stm_aborts,
            self.stm_fallbacks,
            self.poisoned_sessions,
            self.unwind_releases,
            self.lock_revalidations,
            self.injected_panics,
            self.injected_aborts,
            self.injected_delays,
            self.injected_stalls,
            self.sentinel_violations,
            self.sections_quarantined,
            self.sections_healed
        )
    }
}

/// Machine construction options: how the machine runs the transformed
/// program it is given, never what that program plans. A planted plan
/// fault is a rewrite of the program before [`Machine::new`], so a
/// worker plans and revalidates exactly the `acquireAll` specs it
/// finds (or a staged repair's). (`Clone` but not `Copy`: the wake
/// policy carries a frozen expected-hold table.)
#[derive(Clone, Debug)]
pub struct Options {
    /// Heap capacity in cells: the bound allocation is refused at, not
    /// a commitment — cells cost memory (16 bytes each, by the page)
    /// only once a run touches them, so a generous bound is free.
    pub heap_cells: usize,
    /// Base PRNG seed (each thread derives its own stream).
    pub seed: u64,
    /// Virtual-time scheduling quantum, in ticks (see
    /// [`Machine::run_threads_virtual`]).
    pub quantum: u64,
    /// Deterministic fault-injection plan (`None` = no injection).
    pub faults: Option<crate::FaultPlan>,
    /// STM degradation: aborts one section may suffer before its next
    /// retry runs irrevocably in global mode (see `tl2`). High enough
    /// by default that healthy workloads never escalate.
    pub stm_abort_budget: u64,
    /// Event-trace recording (`None` = no tracing, zero overhead).
    /// When set, every worker registers with the machine's one event
    /// log, and the trace is available from [`Machine::take_trace`].
    pub trace: Option<trace::TraceConfig>,
    /// Online lockset sentinel (`None` = off, zero overhead), MultiGrain
    /// only: inline Fig. 6 licensing checks of the held grants on
    /// in-section accesses; a miss demotes the section to the global
    /// scheme until it serves probation, or is a hard
    /// [`InterpError::Unprotected`] (`Response::Fail`). A sentinel that
    /// cannot act is not armed: under Global (whose `⊤` in `X` licenses
    /// every access), under STM (which holds no grant), or at
    /// `sample_every` 0.
    pub sentinel: Option<SentinelConfig>,
    /// Wake policy for the virtual-time scheduler (`None` = the legacy
    /// `(clock, tid)` FIFO order, zero overhead, no `["wk", …]`
    /// events). A policy's decisions are a pure function of recorded
    /// state, so policy-steered runs stay deterministic and replayable
    /// (the configuration is stamped into `run.sched_*` metadata by
    /// the replayer).
    pub sched: Option<crate::SchedConfig>,
    /// Staged section repairs from quarantine-aware re-inference
    /// (empty = none). Dormant until their section heals on the
    /// sentinel's quarantine ladder.
    pub repairs: Vec<RepairSpec>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            heap_cells: 1 << 22,
            seed: 0x5EED_0001,
            quantum: 128,
            faults: None,
            stm_abort_budget: 1024,
            trace: None,
            sentinel: None,
            sched: None,
            repairs: Vec::new(),
        }
    }
}

/// Where a variable lives at run time.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Storage {
    /// A global: fixed heap cell.
    Global(u64),
    /// Frame slot holding the value directly.
    Direct(u32),
    /// Address-taken local: frame slot holds the address of its heap
    /// cell (allocated fresh at each call).
    Indirect(u32),
}

/// Per-function frame layout.
#[derive(Clone, Debug, Default)]
pub(crate) struct FnLayout {
    pub n_slots: u32,
    /// `(slot, class)` pairs for address-taken locals, allocated at
    /// entry.
    pub heapified: Vec<(u32, PtsClass)>,
    /// Frame slots of the parameters, in order.
    pub param_slots: Vec<u32>,
    /// Params that are address-taken (index into `params`), needing an
    /// indirect store at entry.
    pub ret_slot: u32,
}

#[derive(Clone, Copy, Debug)]
struct AllocMeta {
    base: u64,
    len: u64,
    class: PtsClass,
}

/// The bump allocator: the next free cell, and every extent handed out,
/// in base order — one lock for both, so an allocation takes one.
struct Heap {
    brk: u64,
    extents: Vec<AllocMeta>,
}

/// The shared interpreter state. `Machine` is `Sync`:
/// [`Machine::run_threads`] shares it between OS threads, and
/// [`Machine::run_threads_virtual`] resumes its virtual threads on the
/// calling one.
pub struct Machine {
    pub(crate) program: Arc<Program>,
    pub(crate) pt: Arc<PointsTo>,
    pub(crate) mode: ExecMode,
    pub(crate) space: tl2::Space,
    heap: RwLock<Heap>,
    pub(crate) mg: Arc<mglock::Runtime>,
    pub(crate) storage: Vec<Storage>,
    pub(crate) layouts: Vec<FnLayout>,
    pub(crate) site_class: HashMap<(FnId, u32), PtsClass>,
    pub(crate) field_offset: Vec<usize>,
    pub(crate) elem_field: Option<lir::FieldId>,
    pub(crate) out: Mutex<Vec<String>>,
    pub(crate) seed: u64,
    pub(crate) quantum: u64,
    pub(crate) costs: crate::sim::CostModel,
    pub(crate) faults: Option<crate::fault::FaultPlan>,
    pub(crate) stm_abort_budget: u64,
    pub(crate) fault_stats: crate::fault::FaultStats,
    /// Scheduling points of every virtual run so far, and how many of
    /// them made another thread the runner (see [`crate::sim`]), added
    /// when each run returns.
    pub(crate) sim_yield_points: AtomicU64,
    pub(crate) sim_handoffs: AtomicU64,
    pub(crate) tracer: Option<trace::Recorder>,
    pub(crate) sentinel: Option<Sentinel>,
    pub(crate) sched: Option<crate::SchedConfig>,
    /// The one record of what is staged: each repaired section's
    /// admitted candidate index and its lock specs (see
    /// [`RepairSpec`]). The worker plans the specs only while the
    /// sentinel reports the section's repair as active.
    pub(crate) repairs: std::collections::BTreeMap<u32, (u32, Vec<lir::LockSpec>)>,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("mode", &self.mode)
            .field("heap_used", &self.heap_used())
            .finish()
    }
}

impl Machine {
    /// Builds a machine for `program` (transformed or marker form,
    /// depending on the mode) with its points-to result.
    ///
    /// # Panics
    ///
    /// Panics if `opts.heap_cells` cannot hold the globals.
    pub fn new(program: Arc<Program>, pt: Arc<PointsTo>, mode: ExecMode, opts: Options) -> Machine {
        let mut storage = Vec::with_capacity(program.vars.len());
        let mut layouts: Vec<FnLayout> = vec![FnLayout::default(); program.functions.len()];
        // First pass: slot assignment per function.
        let mut slot_counters = vec![0u32; program.functions.len()];
        for (i, v) in program.vars.iter().enumerate() {
            match v.owner {
                None => storage.push(Storage::Global(0)), // address assigned below
                Some(f) => {
                    let c = &mut slot_counters[f.0 as usize];
                    let slot = *c;
                    *c += 1;
                    if v.addr_taken {
                        storage.push(Storage::Indirect(slot));
                        layouts[f.0 as usize]
                            .heapified
                            .push((slot, pt.class_of_var(VarId(i as u32))));
                    } else {
                        storage.push(Storage::Direct(slot));
                    }
                }
            }
        }
        for (f, layout) in layouts.iter_mut().enumerate() {
            layout.n_slots = slot_counters[f];
            let func = &program.functions[f];
            layout.param_slots = func
                .params
                .iter()
                .map(|p| match storage[p.0 as usize] {
                    Storage::Direct(s) | Storage::Indirect(s) => s,
                    Storage::Global(_) => unreachable!("params are function-owned"),
                })
                .collect();
            layout.ret_slot = match storage[func.ret.0 as usize] {
                Storage::Direct(s) => s,
                _ => unreachable!("ret vars are never address-taken globals"),
            };
        }
        let mut site_class = HashMap::new();
        for func in &program.functions {
            for (idx, ins) in func.body.iter().enumerate() {
                if let Instr::Assign(_, Rvalue::Alloc(_) | Rvalue::AllocDyn(_)) = ins {
                    let site = AllocSite {
                        func: func.id,
                        idx: idx as u32,
                    };
                    if let Some(c) = pt.class_of_site(site) {
                        site_class.insert((func.id, idx as u32), c);
                    }
                }
            }
        }
        let field_offset = program.fields.iter().map(|fi| fi.offset).collect();
        let elem_field = program.elem_field_opt();
        let mut m = Machine {
            program,
            pt,
            mode,
            space: tl2::Space::new(opts.heap_cells),
            // Address 0 is null; start allocating at 1.
            heap: RwLock::new(Heap {
                brk: 1,
                extents: Vec::new(),
            }),
            mg: Arc::new(mglock::Runtime::new()),
            storage,
            layouts,
            site_class,
            field_offset,
            elem_field,
            out: Mutex::new(Vec::new()),
            seed: opts.seed,
            quantum: opts.quantum,
            costs: crate::sim::CostModel::default(),
            faults: opts.faults,
            stm_abort_budget: opts.stm_abort_budget,
            fault_stats: crate::fault::FaultStats::default(),
            sim_yield_points: AtomicU64::new(0),
            sim_handoffs: AtomicU64::new(0),
            tracer: opts.trace.map(trace::Recorder::new),
            sentinel: opts
                .sentinel
                .filter(|s| mode == ExecMode::MultiGrain && s.sample_every > 0)
                .map(Sentinel::new),
            sched: opts.sched,
            repairs: opts
                .repairs
                .into_iter()
                .map(|r| (r.section, (r.candidate, r.specs)))
                .collect(),
        };
        // Allocate the globals' cells.
        let globals = m.program.globals.clone();
        for g in globals {
            let class = m.pt.class_of_var(g);
            let addr = m.alloc(1, class).expect("heap too small for globals");
            m.storage[g.0 as usize] = Storage::Global(addr);
        }
        m
    }

    /// Bump-allocates `n` cells (fresh cells are zero) and records the
    /// extent for coverage queries ([`Machine::extent_class`]). A
    /// request that does not fit is refused without moving the bump
    /// pointer: `n` comes from the interpreted program, and a refused
    /// `new(huge)` must neither fail every later allocation nor wrap
    /// `brk` back into range.
    pub(crate) fn alloc(&self, n: usize, class: PtsClass) -> Result<u64, Exc> {
        let n = n.max(1) as u64;
        let limit = self.space.len() as u64;
        // The bump pointer moves under the extent table's lock, so
        // extents are pushed in base order, which `alloc_meta_of`
        // binary-searches.
        let mut heap = self.heap.write();
        let base = heap.brk;
        heap.brk = base
            .checked_add(n)
            .filter(|&end| end <= limit)
            .ok_or(InterpError::OutOfMemory)?;
        heap.extents.push(AllocMeta {
            base,
            len: n,
            class,
        });
        Ok(base)
    }

    /// Heap cells allocated so far.
    pub fn heap_used(&self) -> u64 {
        self.heap.read().brk
    }

    /// Lines written by `print` intrinsics, in arrival order.
    pub fn output(&self) -> Vec<String> {
        self.out.lock().clone()
    }

    /// STM commit/abort counters (meaningful in [`ExecMode::Stm`]).
    pub fn stm_stats(&self) -> tl2::TxnStats {
        self.space.global_stats()
    }

    /// Multi-grain lock runtime statistics.
    pub fn mg_stats(&self) -> &mglock::Stats {
        self.mg.stats()
    }

    /// `(scheduling points, hand-offs)` of every virtual run so far:
    /// how often a worker re-entered the schedule, and how many of
    /// those made another thread the runner.
    pub fn sim_counts(&self) -> (u64, u64) {
        (
            self.sim_yield_points.load(Ordering::Relaxed),
            self.sim_handoffs.load(Ordering::Relaxed),
        )
    }

    /// True when every lock node is fully released — no session still
    /// holds a grant. Chaos suites assert this after crashing workers.
    pub fn locks_quiescent(&self) -> bool {
        self.mg.quiescent()
    }

    /// Snapshot of every degradation-ladder counter: STM
    /// commits/aborts/irrevocable fallbacks, lock-session poisoning and
    /// unwind releases, and injected faults by class.
    pub fn degradation_report(&self) -> DegradationReport {
        let stm = self.space.global_stats();
        let mg = self.mg.stats();
        let fs = &self.fault_stats;
        let ld = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let (sentinel_violations, sections_quarantined, sections_healed) =
            self.sentinel.as_ref().map_or((0, 0, 0), Sentinel::totals);
        DegradationReport {
            stm_commits: stm.commits,
            stm_aborts: stm.aborts,
            stm_fallbacks: stm.fallbacks,
            poisoned_sessions: ld(&mg.poisoned_sessions),
            unwind_releases: ld(&mg.unwind_releases),
            injected_panics: ld(&fs.injected_panics),
            injected_aborts: ld(&fs.injected_aborts),
            injected_delays: ld(&fs.injected_delays),
            injected_stalls: ld(&fs.injected_stalls),
            lock_revalidations: ld(&fs.lock_revalidations),
            sentinel_violations,
            sections_quarantined,
            sections_healed,
        }
    }

    /// Hands over the recorded events as one epoch-ordered trace
    /// stamped with this machine's mode/seed metadata and the current
    /// allocation-table snapshot (the bump allocator never reuses
    /// addresses, so the final table is valid for every recorded
    /// access). Returns `None` when tracing was not enabled. A second
    /// call returns only events recorded since the first.
    pub fn take_trace(&self) -> Option<trace::Trace> {
        let rec = self.tracer.as_ref()?;
        let allocs = self
            .heap
            .read()
            .extents
            .iter()
            .map(|a| trace::AllocRecord {
                base: a.base,
                len: a.len,
                class: a.class.0,
            })
            .collect();
        let meta = vec![
            ("mode".to_owned(), format!("{:?}", self.mode)),
            ("seed".to_owned(), self.seed.to_string()),
        ];
        Some(rec.take(meta, allocs))
    }

    /// `(allocation base, points-to class)` of the cell at `loc` in a
    /// single allocation-table lookup — the licensing extent the
    /// sentinel resolves lazily on its hot path.
    pub(crate) fn extent_class(&self, loc: u64) -> Option<(u64, u32)> {
        self.alloc_meta_of(loc).map(|m| (m.base, m.class.0))
    }

    fn alloc_meta_of(&self, loc: u64) -> Option<AllocMeta> {
        let allocs = &self.heap.read().extents;
        // Allocation bases are monotonically increasing: binary search.
        let idx = allocs.partition_point(|a| a.base <= loc);
        if idx == 0 {
            return None;
        }
        let meta = allocs[idx - 1];
        (loc < meta.base + meta.len).then_some(meta)
    }
}
