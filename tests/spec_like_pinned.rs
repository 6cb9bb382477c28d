//! Pinned results for the optimized engine on SPEC-like programs at
//! k=9 — the inputs where `WIDTH_LIMIT` fires.
//!
//! Widening is arrival-order-sensitive, so past the bound the optimized
//! engine and `lockinfer::reference` legitimately differ (optimized ⊆
//! reference) and `tests/differential.rs` cannot guard this path. What
//! can: every value below was printed by the engine *before* its state
//! and transfer layers were rebuilt (PR 16's parent), and a rewrite of
//! the data plane must reproduce them bit for bit — the work counters
//! because local lock ids, drain order and the per-point widening count
//! are part of the engine's contract, the digest because it is what the
//! benchmark checks (`benchmark/expected/spec2k-k9.json`).

use atomic_lock_inference::{lockinfer, lockscheme, pointsto, workloads};

struct Pin {
    kloc: f64,
    seed: u64,
    pops: u64,
    widenings: u64,
    summary_queries: usize,
    cache_hits: u64,
    cache_misses: u64,
    /// fine ro / fine rw / coarse ro / coarse rw
    locks: [usize; 4],
    /// FNV-1a of `ProgramAnalysis::render`.
    digest: u64,
}

const PINS: [Pin; 4] = [
    Pin {
        kloc: 0.3,
        seed: 2,
        pops: 21_389,
        widenings: 18,
        summary_queries: 116,
        cache_hits: 5,
        cache_misses: 0,
        locks: [2, 6, 0, 2],
        digest: 0xf405_ef67_02d5_28bf,
    },
    Pin {
        kloc: 0.5,
        seed: 5,
        pops: 51_855,
        widenings: 85,
        summary_queries: 150,
        cache_hits: 48,
        cache_misses: 381,
        locks: [0, 8, 0, 6],
        digest: 0xdec6_3ec0_3c0a_2113,
    },
    Pin {
        kloc: 1.0,
        seed: 10,
        pops: 236_127,
        widenings: 422,
        summary_queries: 580,
        cache_hits: 521,
        cache_misses: 165,
        locks: [1, 7, 0, 2],
        digest: 0xa0e8_db2f_7625_9188,
    },
    Pin {
        kloc: 2.0,
        seed: 10,
        pops: 993_459,
        widenings: 957,
        summary_queries: 2_610,
        cache_hits: 1_253,
        cache_misses: 288,
        locks: [0, 8, 3, 8],
        digest: 0xa8d7_8472_56f4_a766,
    },
];

fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn spec_like_k9_results_are_pinned() {
    let lib = lockinfer::library::LibrarySpec::new();
    for pin in &PINS {
        let name = format!("spec-like {} kloc seed {}", pin.kloc, pin.seed);
        let spec = workloads::spec_like::generate("x", pin.kloc, pin.seed);
        let program = lir::compile(&spec.source).unwrap_or_else(|e| panic!("{name}: {e}"));
        let pt = pointsto::PointsTo::analyze(&program);
        let cfg = lockscheme::SchemeConfig::full(9, program.elem_field_opt());
        // Sequential, one worker per core, and sequential again: what
        // an earlier analysis did must not show in a later one.
        for threads in [1, 0, 1] {
            let got = lockinfer::analyze_program_with_opts(&program, &pt, cfg, &lib, threads);
            let s = &got.stats;
            let c = got.lock_counts();
            assert_eq!(
                (
                    s.worklist_pops,
                    s.facts_inserted,
                    s.widenings,
                    s.peak_point_locks
                ),
                (pin.pops, pin.pops, pin.widenings, 24),
                "{name} (threads={threads}): pops / facts / widenings / peak"
            );
            assert_eq!(
                (
                    s.summary_queries,
                    s.summary_cache_hits,
                    s.summary_cache_misses
                ),
                (pin.summary_queries, pin.cache_hits, pin.cache_misses),
                "{name} (threads={threads}): summary queries / hits / misses"
            );
            assert_eq!(
                [c.fine_ro, c.fine_rw, c.coarse_ro, c.coarse_rw],
                pin.locks,
                "{name} (threads={threads}): lock counts"
            );
            assert_eq!(
                fnv(&got.render(&program)),
                pin.digest,
                "{name} (threads={threads}): lock-set digest"
            );
        }
    }
}

/// The relation that does hold against the reference solver once
/// widening fires: the optimized engine's locks are a subset of the
/// reference's (which adds coarse locks the optimized arrival order
/// never needs). Small inputs only — the reference takes seconds on the
/// 2-kloc one.
#[test]
fn optimized_locks_are_a_subset_of_the_reference_under_widening() {
    let lib = lockinfer::library::LibrarySpec::new();
    for pin in &PINS[..3] {
        let spec = workloads::spec_like::generate("x", pin.kloc, pin.seed);
        let program = lir::compile(&spec.source).unwrap();
        let pt = pointsto::PointsTo::analyze(&program);
        let cfg = lockscheme::SchemeConfig::full(9, program.elem_field_opt());
        let optimized = lockinfer::analyze_program_with_opts(&program, &pt, cfg, &lib, 1);
        let reference = lockinfer::analyze_program_reference(&program, &pt, cfg, &lib);
        assert_eq!(optimized.sections.len(), reference.len());
        for (o, r) in optimized.sections.iter().zip(&reference) {
            assert!(
                o.locks.iter().all(|l| r.locks.contains(l)),
                "{} kloc seed {}: optimized lock missing from the reference set",
                pin.kloc,
                pin.seed
            );
        }
    }
}
