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
        /// Seconds of the worker phase: its virtual makespan at 1 ns a
        /// tick.
        pub seconds: f64,
        /// Every degradation-ladder counter for the run: the STM's
        /// commits, aborts and irrevocable fallbacks (0 for lock
        /// configs), and poisoning, unwind releases and injections (all
        /// zero in healthy benchmark runs).
        pub degradation: interp::DegradationReport,
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
        Outcome {
            seconds,
            degradation: machine.degradation_report(),
        }
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
                assert!(out.degradation.stm_commits > 0);
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
