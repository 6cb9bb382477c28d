//! # bench — the evaluation harness
//!
//! Regenerates every table and figure of the paper's §6 (see the
//! `bin/` targets):
//!
//! | target | reproduces |
//! |---|---|
//! | `table1`  | program size, atomic sections, analysis time at k=0/9 |
//! | `figure7` | combined lock counts by category over k = 0..9 |
//! | `table2`  | execution time with 8 threads: Global / Coarse / Fine+Coarse / STM |
//! | `figure8` | scalability at 1/2/4/8 threads for rbtree, hashtable-2, TH, genome, kmeans |
//! | `ablation`| lock counts under each scheme component alone (framework parameterization) |
//!
//! The [`harness`] module compiles a [`workloads::RunSpec`], infers and
//! applies locks, and times a multithreaded run under one of the four
//! configurations of Table 2. The [`cli`] module is the shared
//! command-line plumbing (workload lookup, flag parsing, trace
//! loading, canonical-JSON output) for every bin.

pub mod cli;

pub mod harness {
    use interp::{ExecMode, Machine, Options};
    use lockscheme::SchemeConfig;
    use pointsto::PointsTo;
    use std::sync::Arc;
    use workloads::RunSpec;

    /// One column of Table 2.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum Config {
        /// A single global lock per section.
        Global,
        /// Inferred locks at k = 0 (coarse only).
        Coarse,
        /// Inferred locks at k = 9 (fine + coarse).
        FineCoarse,
        /// TL2 software transactional memory.
        Stm,
    }

    impl Config {
        /// All four columns, in the paper's order.
        pub const ALL: [Config; 4] = [
            Config::Global,
            Config::Coarse,
            Config::FineCoarse,
            Config::Stm,
        ];

        /// Column header.
        pub fn label(self) -> &'static str {
            match self {
                Config::Global => "Global",
                Config::Coarse => "Coarse(k=0)",
                Config::FineCoarse => "Fine+Coarse(k=9)",
                Config::Stm => "STM",
            }
        }

        fn mode(self) -> ExecMode {
            match self {
                Config::Global => ExecMode::Global,
                Config::Coarse | Config::FineCoarse => ExecMode::MultiGrain,
                Config::Stm => ExecMode::Stm,
            }
        }

        fn k(self) -> usize {
            match self {
                Config::FineCoarse => 9,
                _ => 0,
            }
        }
    }

    /// Result of one timed run.
    #[derive(Clone, Copy, Debug)]
    pub struct Outcome {
        /// Wall-clock seconds of the worker phase.
        pub seconds: f64,
        /// STM commits (0 for lock configs).
        pub commits: u64,
        /// STM aborts (0 for lock configs).
        pub aborts: u64,
        /// STM transactions that escalated to irrevocable global mode
        /// after exhausting the abort budget (0 for lock configs).
        pub fallbacks: u64,
        /// Every degradation-ladder counter for the run (poisoning,
        /// deadlocks, timeouts, injections — all zero in healthy
        /// benchmark runs).
        pub degradation: lockinfer::DegradationReport,
    }

    /// Compiles, transforms, runs `spec` under `config` with `threads`
    /// worker threads, then executes the spec's invariant check.
    ///
    /// # Panics
    ///
    /// Panics on compile errors, runtime faults, or failed invariant
    /// checks — a benchmark that does not run correctly must not report
    /// a time.
    pub fn run(spec: &RunSpec, config: Config, threads: usize) -> Outcome {
        let program = lir::compile(&spec.source).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        let pt = Arc::new(PointsTo::analyze(&program));
        let cfg = SchemeConfig::full(config.k(), program.elem_field_opt());
        let analysis = lockinfer::analyze_program(&program, &pt, cfg);
        let transformed = Arc::new(lockinfer::transform(&program, &analysis));
        let machine = Machine::new(
            transformed,
            pt,
            config.mode(),
            Options {
                heap_cells: spec.heap_cells,
                seed: 0xBEEF ^ threads as u64,
                ..Options::default()
            },
        );
        let (init_fn, init_args) = &spec.init;
        machine
            .run_named(init_fn, init_args)
            .unwrap_or_else(|e| panic!("{} init: {e}", spec.name));
        let (worker_fn, worker_args) = &spec.worker;
        // Virtual time: the paper's 8-core measurements are reproduced
        // under the deterministic virtual-time scheduler, whatever
        // cores this host has; "seconds" is the makespan at 1 ns per
        // interpreted instruction. See interp::sim and DESIGN.md.
        let (_, makespan) = machine
            .run_threads_virtual(worker_fn, threads, |_| worker_args.clone())
            .unwrap_or_else(|e| panic!("{} worker ({}): {e}", spec.name, config.label()));
        let seconds = makespan as f64 * 1e-9;
        if let Some(check) = spec.check {
            machine
                .run_named(check, &[])
                .unwrap_or_else(|e| panic!("{} check ({}): {e}", spec.name, config.label()));
        }
        let stats = machine.stm_stats();
        Outcome {
            seconds,
            commits: stats.commits,
            aborts: stats.aborts,
            fallbacks: stats.fallbacks,
            degradation: machine.degradation_report(),
        }
    }

    /// Scale factor for benchmark sizes: set `REPRO_SCALE` (default 1.0)
    /// to trade fidelity for wall-clock time.
    pub fn scale() -> f64 {
        std::env::var("REPRO_SCALE")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(1.0)
    }

    /// Ops-per-thread helper honoring `REPRO_SCALE`.
    pub fn ops(base: i64) -> i64 {
        ((base as f64) * scale()).max(1.0) as i64
    }
}

#[cfg(test)]
mod tests {
    use super::harness::{run, Config};
    use workloads::{micro, stamp, Contention};

    #[test]
    fn every_config_runs_a_micro_benchmark_correctly() {
        let spec = micro::hashtable2(Contention::High, 100, 5);
        for config in Config::ALL {
            let out = run(&spec, config, 4);
            assert!(out.seconds >= 0.0);
            if config == Config::Stm {
                assert!(out.commits > 0);
            }
        }
    }

    #[test]
    fn stamp_kernel_runs_under_stm_and_locks() {
        let spec = stamp::kmeans(50, 5);
        for config in [Config::Global, Config::FineCoarse, Config::Stm] {
            run(&spec, config, 4);
        }
    }

    /// The sentinel-overhead gate depends on the scale smoke twin
    /// interpreting without faults (the analysis-only generator does
    /// not); a tiny shape keeps this cheap.
    #[test]
    fn scale_smoke_twin_is_interpretable() {
        let spec = workloads::scale::smoke(
            "smoke-tiny",
            workloads::scale::ScaleParams {
                depth: 2,
                width: 3,
                sections: 3,
                stmts_per_fn: 8,
                seed: 7,
            },
            2,
        );
        let out = run(&spec, Config::FineCoarse, 2);
        assert!(out.degradation.is_clean(), "{}", out.degradation);
    }
}
