//! Empirical soundness (Theorem 1) and differential testing over
//! randomly generated runnable programs.

use atomic_lock_inference::{interp, lockinfer, lockscheme, pointsto, workloads};
use interp::{ExecMode, Machine, Options, SentinelConfig};
use std::sync::Arc;

/// The Theorem-1 checker: every in-section access checked, a miss fatal.
const VALIDATE: Option<SentinelConfig> = Some(SentinelConfig::validate());

/// `main`'s result under `mode`, checked by `sentinel` when one is
/// given.
fn checksum(
    spec: &workloads::RunSpec,
    mode: ExecMode,
    sentinel: Option<SentinelConfig>,
    k: usize,
) -> i64 {
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
    machine.run_named("main", &[]).unwrap_or_else(|e| {
        panic!(
            "{} under {mode:?} {sentinel:?} (k={k}): {e}\n--- source ---\n{}",
            spec.name, spec.source
        )
    })
}

/// Theorem 1, empirically: for random programs and every k, a run
/// under the checker never reports an unprotected access.
#[test]
fn inferred_locks_cover_all_section_accesses() {
    for seed in 0..60 {
        let spec = workloads::fuzz::runnable(seed, 50);
        for k in [0, 1, 3, 9] {
            checksum(&spec, ExecMode::MultiGrain, VALIDATE, k);
        }
    }
}

/// Single-threaded differential equivalence: the transformation plus
/// each runtime discipline must preserve program results exactly.
#[test]
fn all_modes_compute_the_same_result() {
    for seed in 60..110 {
        let spec = workloads::fuzz::runnable(seed, 60);
        let expect = checksum(&spec, ExecMode::Global, None, 3);
        for (mode, sentinel, k) in [
            (ExecMode::MultiGrain, None, 0),
            (ExecMode::MultiGrain, None, 9),
            (ExecMode::Stm, None, 3),
            (ExecMode::MultiGrain, VALIDATE, 3),
        ] {
            let got = checksum(&spec, mode, sentinel, k);
            assert_eq!(
                got, expect,
                "seed {seed}: {mode:?} {sentinel:?} k={k} diverged"
            );
        }
    }
}

/// The merge's non-redundancy claim: no inferred lock set contains a
/// lock strictly below another of the same set.
#[test]
fn inferred_lock_sets_are_non_redundant() {
    for seed in 0..40 {
        let spec = workloads::fuzz::runnable(seed, 50);
        let program = lir::compile(&spec.source).unwrap();
        let pt = pointsto::PointsTo::analyze(&program);
        for k in [0, 2, 9] {
            let cfg = lockscheme::SchemeConfig::full(k, program.elem_field_opt());
            let analysis = lockinfer::analyze_program(&program, &pt, cfg);
            for sec in &analysis.sections {
                for a in &sec.locks {
                    for b in &sec.locks {
                        if a != b {
                            assert!(!a.leq(b), "seed {seed} k={k}: redundant lock {a} ≤ {b}");
                        }
                    }
                }
            }
        }
    }
}

/// The analysis is deterministic: same program, same locks.
#[test]
fn analysis_is_deterministic() {
    for seed in [3, 17] {
        let spec = workloads::fuzz::runnable(seed, 60);
        let program = lir::compile(&spec.source).unwrap();
        let pt = pointsto::PointsTo::analyze(&program);
        let cfg = lockscheme::SchemeConfig::full(9, program.elem_field_opt());
        let a = lockinfer::analyze_program(&program, &pt, cfg);
        let b = lockinfer::analyze_program(&program, &pt, cfg);
        for (sa, sb) in a.sections.iter().zip(&b.sections) {
            let (mut la, mut lb) = (sa.locks.clone(), sb.locks.clone());
            la.sort();
            lb.sort();
            assert_eq!(la, lb);
        }
    }
}

/// Raising k never makes the lock set *more* coarse on random programs
/// (the refinement direction of the k-limit).
#[test]
fn k_refines_lock_sets() {
    for seed in 0..25 {
        let spec = workloads::fuzz::runnable(seed, 40);
        let program = lir::compile(&spec.source).unwrap();
        let pt = pointsto::PointsTo::analyze(&program);
        let mut prev_coarse = usize::MAX;
        for k in [0, 1, 2, 3] {
            let cfg = lockscheme::SchemeConfig::full(k, program.elem_field_opt());
            let counts = lockinfer::analyze_program(&program, &pt, cfg).lock_counts();
            let coarse = counts.coarse_ro + counts.coarse_rw;
            assert!(
                coarse <= prev_coarse,
                "seed {seed}: coarse locks grew from {prev_coarse} to {coarse} at k={k}"
            );
            prev_coarse = coarse;
        }
    }
}
