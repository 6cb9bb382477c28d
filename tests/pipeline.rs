//! Cross-crate integration: every evaluation workload goes through the
//! full pipeline (parse → points-to → inference → transformation →
//! execution) under every execution discipline, with its invariants
//! checked afterwards.

use atomic_lock_inference::{interp, lockinfer, lockscheme, pointsto, workloads};
use interp::{ExecMode, Machine, Options, SentinelConfig};
use std::sync::Arc;
use workloads::{Contention, RunSpec};

/// The Theorem-1 checker: every in-section access checked, a miss fatal.
const VALIDATE: Option<SentinelConfig> = Some(SentinelConfig::validate());

/// Runs `spec` under `mode`, checked by `sentinel` when one is given.
fn run_spec(
    spec: &RunSpec,
    mode: ExecMode,
    sentinel: Option<SentinelConfig>,
    k: usize,
    threads: usize,
) {
    let program = lir::compile(&spec.source).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
    let pt = Arc::new(pointsto::PointsTo::analyze(&program));
    let cfg = lockscheme::SchemeConfig::full(k, program.elem_field_opt());
    let analysis = lockinfer::analyze_program(&program, &pt, cfg);
    let transformed = Arc::new(lockinfer::transform(&program, &analysis));
    let machine = Machine::new(
        transformed,
        pt,
        mode,
        Options {
            heap_cells: spec.heap_cells,
            sentinel,
            ..Options::default()
        },
    );
    let (init_fn, init_args) = &spec.init;
    machine
        .run_named(init_fn, init_args)
        .unwrap_or_else(|e| panic!("{} init ({mode:?} {sentinel:?}, k={k}): {e}", spec.name));
    let (worker_fn, worker_args) = &spec.worker;
    machine
        .run_threads(worker_fn, threads, |_| worker_args.clone())
        .unwrap_or_else(|e| panic!("{} worker ({mode:?} {sentinel:?}, k={k}): {e}", spec.name));
    if let Some(check) = spec.check {
        machine
            .run_named(check, &[])
            .unwrap_or_else(|e| panic!("{} check ({mode:?} {sentinel:?}, k={k}): {e}", spec.name));
    }
}

#[test]
fn micro_benchmarks_run_under_all_modes() {
    for c in [Contention::Low, Contention::High] {
        for spec in workloads::micro::all(c, 150, 3) {
            for mode in [ExecMode::Global, ExecMode::MultiGrain, ExecMode::Stm] {
                run_spec(&spec, mode, None, 9, 4);
            }
        }
    }
}

#[test]
fn micro_benchmarks_validate_at_every_k() {
    // The Theorem-1 checker accepts the inferred locks at any k —
    // single-threaded (the checker is about coverage, not races).
    for c in [Contention::Low, Contention::High] {
        for spec in workloads::micro::all(c, 120, 0) {
            for k in [0, 1, 2, 9] {
                run_spec(&spec, ExecMode::MultiGrain, VALIDATE, k, 1);
            }
        }
    }
}

#[test]
fn stamp_kernels_run_under_all_modes() {
    for spec in workloads::stamp::all(120, 3) {
        for mode in [ExecMode::Global, ExecMode::MultiGrain, ExecMode::Stm] {
            run_spec(&spec, mode, None, 9, 4);
        }
        run_spec(&spec, ExecMode::MultiGrain, VALIDATE, 3, 1);
    }
}

#[test]
fn coarse_only_locks_also_run_concurrently() {
    // k = 0 (all coarse) is the paper's "Coarse" column: still correct.
    for spec in [
        workloads::micro::hashtable2(Contention::High, 150, 2),
        workloads::micro::th(Contention::Low, 150, 2),
    ] {
        run_spec(&spec, ExecMode::MultiGrain, None, 0, 8);
    }
}

#[test]
fn virtual_and_real_execution_agree_on_results() {
    let spec = workloads::micro::list(Contention::High, 100, 1);
    let program = lir::compile(&spec.source).unwrap();
    let pt = Arc::new(pointsto::PointsTo::analyze(&program));
    let cfg = lockscheme::SchemeConfig::full(3, program.elem_field_opt());
    let analysis = lockinfer::analyze_program(&program, &pt, cfg);
    let transformed = Arc::new(lockinfer::transform(&program, &analysis));
    for mode in [ExecMode::Global, ExecMode::MultiGrain, ExecMode::Stm] {
        let machine = Machine::new(
            Arc::clone(&transformed),
            Arc::clone(&pt),
            mode,
            Options::default(),
        );
        let (init_fn, init_args) = &spec.init;
        machine.run_named(init_fn, init_args).unwrap();
        let (worker_fn, worker_args) = &spec.worker;
        let (_, makespan) = machine
            .run_threads_virtual(worker_fn, 4, |_| worker_args.clone())
            .unwrap();
        assert!(makespan > 0);
        machine.run_named("check", &[]).unwrap();
    }
}

#[test]
fn fine_beats_coarse_on_hashtable2_in_virtual_time() {
    // The paper's headline Table 2 shape, as a regression test.
    let spec = workloads::micro::hashtable2(Contention::High, 800, 100);
    let span_at = |k: usize| {
        let program = lir::compile(&spec.source).unwrap();
        let pt = Arc::new(pointsto::PointsTo::analyze(&program));
        let cfg = lockscheme::SchemeConfig::full(k, program.elem_field_opt());
        let analysis = lockinfer::analyze_program(&program, &pt, cfg);
        let transformed = Arc::new(lockinfer::transform(&program, &analysis));
        let machine = Machine::new(transformed, pt, ExecMode::MultiGrain, Options::default());
        let (init_fn, init_args) = &spec.init;
        machine.run_named(init_fn, init_args).unwrap();
        let (worker_fn, worker_args) = &spec.worker;
        let (_, span) = machine
            .run_threads_virtual(worker_fn, 8, |_| worker_args.clone())
            .unwrap();
        span
    };
    let coarse = span_at(0);
    let fine = span_at(9);
    assert!(
        (fine as f64) < 0.7 * coarse as f64,
        "fine-grain locks clearly beat coarse: fine={fine} coarse={coarse}"
    );
}
