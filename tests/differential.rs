//! Differential testing of the optimized lock-inference engine against
//! the retained naive reference solver (`lockinfer::reference`).
//!
//! The optimized engine changes the *representation* (hash-consed lock
//! ids, small-list state, id-level transfer memo, shared summary cache,
//! parallel per-section solving) but, below the widening bound, must
//! not change a single inferred lock. These tests assert exact
//! equality — section ids, marker positions, and the full ordered lock
//! vectors — over random runnable programs and the `analysis-bench`
//! scale tiers, for several `k` bounds, and that the parallel engine is
//! byte-for-byte deterministic across runs and thread counts. Every
//! input here stays under `WIDTH_LIMIT` (peak 7–12 locks per point);
//! where it fires, widening is arrival-order-sensitive and the engines
//! legitimately differ — `tests/spec_like_pinned.rs` guards that path.

use atomic_lock_inference::{lockinfer, lockscheme, pointsto, workloads};
use proptest::prelude::*;

fn compare_engines(source: &str, name: &str, k: usize, threads: &[usize]) {
    let program = lir::compile(source).unwrap_or_else(|e| panic!("{name}: {e}"));
    let pt = pointsto::PointsTo::analyze(&program);
    let cfg = lockscheme::SchemeConfig::full(k, program.elem_field_opt());
    let lib = lockinfer::library::LibrarySpec::new();
    let reference = lockinfer::analyze_program_reference(&program, &pt, cfg, &lib);
    for &t in threads {
        let got = lockinfer::analyze_program_with_opts(&program, &pt, cfg, &lib, t);
        assert_eq!(
            got.sections, reference,
            "{name} (k={k}, threads={t}): optimized engine diverged from reference"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Exact agreement on random runnable programs, sequential and
    /// parallel, across the k bounds the paper evaluates.
    #[test]
    fn optimized_engine_matches_reference_on_random_programs(
        seed in 0u64..5000,
        stmts in 20usize..70,
        k in prop_oneof![Just(0usize), Just(1), Just(3), Just(9)],
    ) {
        let spec = workloads::fuzz::runnable(seed, stmts);
        compare_engines(&spec.source, &spec.name, k, &[1, 4]);
    }
}

/// Exact agreement on the layered scale programs the throughput
/// benchmark uses — deep call chains and heavily shared summaries, the
/// paths most exercised by the caching layers.
#[test]
fn optimized_engine_matches_reference_on_scale_tiers() {
    for (name, p) in workloads::scale::tiers().into_iter().take(2) {
        let spec = workloads::scale::generate(name, p);
        for k in [0, 3] {
            compare_engines(&spec.source, name, k, &[1, 0]);
        }
    }
}

/// The parallel solve is deterministic: any thread count, any run, the
/// same ordered output.
#[test]
fn parallel_solving_is_deterministic() {
    let (name, p) = &workloads::scale::tiers()[1];
    let spec = workloads::scale::generate(name, *p);
    let program = lir::compile(&spec.source).unwrap();
    let pt = pointsto::PointsTo::analyze(&program);
    let cfg = lockscheme::SchemeConfig::full(3, program.elem_field_opt());
    let lib = lockinfer::library::LibrarySpec::new();
    let baseline = lockinfer::analyze_program_with_opts(&program, &pt, cfg, &lib, 1);
    for t in [2, 3, 8, 0] {
        for _run in 0..2 {
            let got = lockinfer::analyze_program_with_opts(&program, &pt, cfg, &lib, t);
            assert_eq!(
                got.sections, baseline.sections,
                "threads={t} changed the analysis output"
            );
        }
    }
}
