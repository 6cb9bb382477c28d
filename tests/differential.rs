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
//! input of those stays under `WIDTH_LIMIT` (peak 7–12 locks per
//! point); where it fires, widening is arrival-order-sensitive and the
//! engines legitimately differ — `tests/spec_like_pinned.rs` guards
//! that path.
//!
//! The benchmark kernels are additionally compared at the five scheme
//! points of the `ablation` table. Some of those do widen (`rbtree`'s
//! and `TH`'s tree walks, without `Σ≡`), and there the engines agree
//! because the fallback is total: a widened lock becomes a coarser
//! lock under every scheme point, never no lock.

use atomic_lock_inference::{lockinfer, lockscheme, pointsto, workloads};
use lir::Eff;
use lockscheme::SchemeConfig;
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

/// The scheme points of `results_ablation.txt`, the full scheme first.
fn ablation_points(p: &lir::Program) -> [(&'static str, SchemeConfig); 5] {
    let full = SchemeConfig::full(9, p.elem_field_opt());
    [
        ("full (k=9)", full),
        (
            "no effects",
            SchemeConfig {
                use_eff: false,
                ..full
            },
        ),
        (
            "no expressions",
            SchemeConfig {
                use_expr: false,
                ..full
            },
        ),
        (
            "no points-to",
            SchemeConfig {
                use_pts: false,
                ..full
            },
        ),
        (
            "global only",
            SchemeConfig::trivially_sound(p.elem_field_opt()),
        ),
    ]
}

fn takes_a_write_lock(s: &lockinfer::SectionResult) -> bool {
    s.locks.iter().any(|l| l.eff == Eff::Rw)
}

/// Exact agreement, section by section, at every ablation point over
/// the benchmark kernels — and no point loses a section's write lock:
/// turning a component off may only coarsen what the full scheme
/// infers.
#[test]
fn engines_agree_at_every_ablation_point_and_keep_every_write_lock() {
    let lib = lockinfer::library::LibrarySpec::new();
    let mut specs = workloads::micro::all(workloads::Contention::Low, 10, 0);
    specs.extend(workloads::stamp::all(10, 0));
    for spec in &specs {
        let program = lir::compile(&spec.source).unwrap();
        let pt = pointsto::PointsTo::analyze(&program);
        let mut full_writes: Vec<bool> = Vec::new();
        for (label, cfg) in ablation_points(&program) {
            let reference = lockinfer::analyze_program_reference(&program, &pt, cfg, &lib);
            let got = lockinfer::analyze_program_with_opts(&program, &pt, cfg, &lib, 1);
            assert_eq!(
                got.sections, reference,
                "{} under `{label}`: optimized engine diverged from reference",
                spec.name
            );
            let writes: Vec<bool> = reference.iter().map(takes_a_write_lock).collect();
            if full_writes.is_empty() {
                full_writes = writes;
                continue;
            }
            for (sec, (full, here)) in reference.iter().zip(full_writes.iter().zip(&writes)) {
                assert!(
                    !full || *here,
                    "{} under `{label}`: section {} lost its write lock: {:?}",
                    spec.name,
                    sec.id.0,
                    sec.locks
                );
            }
        }
    }
}

/// The defect behind the old "no points-to 9 / 9" ablation row:
/// `tree_remove` writes `x->tval` at the end of a tree walk that
/// widens at k = 9, and without `Σ≡` the widened write lock has no
/// class to fall back to. It must fall back to `⊤[rw]`; it used to
/// vanish, leaving the section with `⊤[ro]` alone.
#[test]
fn a_widened_write_lock_survives_without_points_to() {
    let lib = lockinfer::library::LibrarySpec::new();
    for spec in [
        workloads::micro::rbtree(workloads::Contention::Low, 10, 0),
        workloads::micro::th(workloads::Contention::Low, 10, 0),
    ] {
        let program = lir::compile(&spec.source).unwrap();
        let pt = pointsto::PointsTo::analyze(&program);
        let cfg = SchemeConfig {
            use_pts: false,
            ..SchemeConfig::full(9, program.elem_field_opt())
        };
        let tree_remove = program
            .functions
            .iter()
            .find(|f| program.interner.resolve(f.name) == "tree_remove")
            .expect("the kernel defines tree_remove")
            .id;
        let optimized = lockinfer::analyze_program(&program, &pt, cfg).sections;
        let reference = lockinfer::analyze_program_reference(&program, &pt, cfg, &lib);
        for (engine, sections) in [("optimized", optimized), ("reference", reference)] {
            let sec = sections
                .iter()
                .find(|s| s.func == tree_remove)
                .expect("tree_remove is an atomic section");
            assert!(
                takes_a_write_lock(sec),
                "{} ({engine}): tree_remove writes x->tval but holds {:?}",
                spec.name,
                sec.locks
            );
        }
    }
}
