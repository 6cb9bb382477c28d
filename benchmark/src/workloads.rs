//! The benchmark's workloads: which program, at what size, through
//! which stage of the ladder. `BENCHMARK.json` carries the one-line
//! reason for each; README.md the full glossary.

use ali::interp::ExecMode;
use ali::replay::RunConfig;
use ali::workloads::scale::ScaleParams;
use ali::workloads::{micro, scale, stamp, Contention, RunSpec};
use atomic_lock_inference as ali;

/// The machine seed the expected files were blessed under. Every run
/// checks its warm-up sample against them at this seed, whatever
/// `--seed` the timed samples use.
pub const DEFAULT_SEED: u64 = 42;

/// `spec_like::generate`'s seed for both SPEC-like programs. It is part
/// of the workloads' identity, not an input `--seed` varies: at 2 kloc
/// and k=9 generator seeds 1–14 compile in 0.8 s to over 97 s, so a
/// seed-driven program would make `stage_s` a lottery. Seed 10 is the
/// cheapest of those (≈0.8 s, ≈1.0 M worklist pops), which buys about
/// nine cold samples in a ten-second window.
const SPEC_GEN_SEED: u64 = 10;

/// The stage of the ladder a workload times.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Stage {
    /// `lockinfer::compile_with_locks`: source text → transformed
    /// program, in a fresh process per sample (the lock interner is
    /// process-wide, so a second in-process analysis runs warm).
    Compile,
    /// `Machine::run_threads_virtual`, tracing off.
    Run,
    /// Trace bytes → `from_json` → `digest` → `validate` → `profile` →
    /// `obs::from_trace`.
    Offline,
    /// `Pipeline::adapt` at one eval thread: time to a decision.
    Adapt,
}

/// A program the interpreter can run, and how to run it.
pub struct Runnable {
    /// The program at a given per-thread operation count.
    pub build: fn(i64) -> RunSpec,
    /// Operations each virtual thread performs.
    pub ops: i64,
    pub k: usize,
    pub mode: ExecMode,
    pub threads: usize,
    /// Per-thread event ring, sized so a traced run drops nothing.
    pub trace_capacity: usize,
}

impl Runnable {
    /// The replayable configuration of this run under machine `seed`.
    pub fn config(&self, spec: &RunSpec, seed: u64) -> RunConfig {
        let mut cfg = RunConfig::from_spec(spec, self.k, self.mode, self.threads);
        cfg.seed = seed;
        cfg.trace_capacity = self.trace_capacity;
        cfg
    }

    /// Worker-phase operations of one run.
    pub fn total_ops(&self) -> i64 {
        self.ops * self.threads as i64
    }
}

pub enum Input {
    /// `spec_like::generate(name, kloc, SPEC_GEN_SEED)`: analysis-only
    /// (its `main` faults on a null field when interpreted), whole
    /// program in one atomic section, as Table 1 does for SPEC.
    Spec {
        kloc: f64,
        k: usize,
    },
    Runnable(Runnable),
}

pub struct Workload {
    pub name: &'static str,
    pub stage: Stage,
    pub input: Input,
}

impl Workload {
    pub fn spec_source(&self) -> Option<RunSpec> {
        match self.input {
            Input::Spec { kloc, .. } => Some(ali::workloads::spec_like::generate(
                self.name,
                kloc,
                SPEC_GEN_SEED,
            )),
            Input::Runnable(_) => None,
        }
    }
}

fn ht2(ops: i64) -> RunSpec {
    micro::hashtable2(Contention::High, ops, 20)
}

fn th(ops: i64) -> RunSpec {
    micro::th(Contention::High, ops, 20)
}

fn kmeans(ops: i64) -> RunSpec {
    stamp::kmeans(ops, 20)
}

fn scale_d4w6s12(iters: i64) -> RunSpec {
    let p = ScaleParams {
        depth: 4,
        width: 6,
        sections: 12,
        stmts_per_fn: 10,
        seed: 7,
    };
    scale::smoke("scale-d4w6s12", p, iters)
}

const fn runnable(
    build: fn(i64) -> RunSpec,
    ops: i64,
    mode: ExecMode,
    threads: usize,
    trace_capacity: usize,
) -> Input {
    Input::Runnable(Runnable {
        build,
        ops,
        k: 9,
        mode,
        threads,
        trace_capacity,
    })
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "spec2k-k9",
        stage: Stage::Compile,
        input: Input::Spec { kloc: 2.0, k: 9 },
    },
    Workload {
        name: "spec70k-k0",
        stage: Stage::Compile,
        input: Input::Spec { kloc: 71.6, k: 0 },
    },
    Workload {
        name: "ht2-high-t1",
        stage: Stage::Run,
        input: runnable(ht2, 60_000, ExecMode::MultiGrain, 1, 1 << 21),
    },
    Workload {
        name: "th-high-t8",
        stage: Stage::Run,
        input: runnable(th, 400, ExecMode::MultiGrain, 8, 1 << 20),
    },
    Workload {
        name: "kmeans-stm-t8",
        stage: Stage::Run,
        input: runnable(kmeans, 250, ExecMode::Stm, 8, 1 << 20),
    },
    Workload {
        name: "offline-ht2-15k",
        stage: Stage::Offline,
        input: runnable(ht2, 250, ExecMode::MultiGrain, 2, 1 << 20),
    },
    Workload {
        name: "adapt-scale-d4w6s12",
        stage: Stage::Adapt,
        input: runnable(scale_d4w6s12, 3, ExecMode::MultiGrain, 8, 1 << 20),
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
