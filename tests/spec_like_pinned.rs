//! Pinned results for the optimized engine on SPEC-like programs at
//! k=9 — the inputs where `WIDTH_LIMIT` fires — and at k=0, Table 1's
//! points-to-only column.
//!
//! Widening is arrival-order-sensitive, so past the bound the optimized
//! engine and `lockinfer::reference` legitimately differ (optimized ⊆
//! reference) and `tests/differential.rs` cannot guard this path. What
//! can: every value below was printed by the engine *before* its state
//! and transfer layers were rebuilt (PR 16's parent), and a rewrite of
//! the data plane must reproduce them bit for bit — the work counters
//! because local lock ids, drain order and the per-point widening count
//! are part of the engine's contract, the digest because it is what the
//! benchmark checks (`benchmark/expected/spec2k-k9.json`). The state
//! sizes (`state_points`, `contexts`, memo hits, `Gen` summaries and
//! the interner's locks / paths) and the `syn-gzip` row were printed
//! later, by the engine whose point states each owned a `Vec` of their
//! facts, before the state moved into flat per-engine arrays.
//!
//! At k=0 every lock is a class lock `(⊤, P, ε)`: nothing is popped,
//! nothing widens, and the whole analysis is Phase A's summary sets.
//! Those rows were printed by the engine before the sets were indexed
//! by class (PR 25's parent); the 71.6-kloc one is the benchmark's
//! `spec70k-k0` (`benchmark/expected/spec70k-k0.json`).

use atomic_lock_inference::{lockinfer, lockscheme, pointsto, workloads};

struct Pin {
    kloc: f64,
    seed: u64,
    pops: u64,
    widenings: u64,
    summary_queries: usize,
    cache_hits: u64,
    cache_misses: u64,
    /// Sizes of the engines' state: `(context, point)` states, contexts,
    /// memo replays, `Gen` summaries, and distinct locks / paths.
    state_points: u64,
    contexts: u64,
    memo_hits: u64,
    summary_functions: usize,
    interner: (usize, usize),
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
        state_points: 10_661,
        contexts: 122,
        memo_hits: 984,
        summary_functions: 5,
        interner: (449, 387),
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
        state_points: 18_474,
        contexts: 267,
        memo_hits: 2_141,
        summary_functions: 9,
        interner: (873, 783),
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
        state_points: 47_936,
        contexts: 666,
        memo_hits: 33_949,
        summary_functions: 15,
        interner: (2_374, 2_227),
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
        state_points: 203_025,
        contexts: 2_750,
        memo_hits: 187_609,
        summary_functions: 30,
        interner: (5_404, 5_074),
        locks: [0, 8, 3, 8],
        digest: 0xa8d7_8472_56f4_a766,
    },
];

struct K0Pin {
    kloc: f64,
    seed: u64,
    summary_functions: usize,
    contexts: u64,
    cache_hits: u64,
    interner_locks: usize,
    /// fine ro / fine rw / coarse ro / coarse rw
    locks: [usize; 4],
    /// FNV-1a of `ProgramAnalysis::render`.
    digest: u64,
}

const K0_PINS: [K0Pin; 2] = [
    // Table 1's syn-vpr.
    K0Pin {
        kloc: 20.4,
        seed: 1002,
        summary_functions: 190,
        contexts: 191,
        cache_hits: 24,
        interner_locks: 470,
        locks: [0, 0, 160, 232],
        digest: 0xda28_33b2_0dc0_5d78,
    },
    K0Pin {
        kloc: 71.6,
        seed: 10,
        summary_functions: 490,
        contexts: 491,
        cache_hits: 24,
        interner_locks: 1133,
        locks: [0, 0, 367, 584],
        digest: 0x71fa_78f5_2f1d_ad6b,
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
                (
                    s.state_points,
                    s.contexts,
                    s.transfer_memo_hits,
                    s.summary_functions,
                    (s.interner_locks, s.interner_paths)
                ),
                (
                    pin.state_points,
                    pin.contexts,
                    pin.memo_hits,
                    pin.summary_functions,
                    pin.interner
                ),
                "{name} (threads={threads}): state points / contexts / memo hits / \
                 summary functions / interned locks and paths"
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

/// Table 1's first k = 9 row at its real size: `syn-gzip`, 10.3 kloc in
/// one section, ≈ 15.7 M pops. Every value was printed by the engine
/// whose point states each owned a `Vec` of their facts; a rewrite of
/// the state layer must reproduce them. About 2.5 s in release, so it
/// is ignored by default and run by CI's analysis-throughput job with
/// `cargo test --release --test spec_like_pinned -- --include-ignored`.
#[test]
#[ignore = "2.5 s in release; run with --include-ignored"]
fn table1_syn_gzip_k9_is_pinned() {
    let (name, kloc) = workloads::spec_like::table1_programs()[0];
    assert_eq!(name, "syn-gzip");
    let spec = workloads::spec_like::generate(name, kloc, 1000);
    let program = lir::compile(&spec.source).unwrap_or_else(|e| panic!("{name}: {e}"));
    let pt = pointsto::PointsTo::analyze(&program);
    let cfg = lockscheme::SchemeConfig::full(9, program.elem_field_opt());
    let lib = lockinfer::library::LibrarySpec::new();
    let got = lockinfer::analyze_program_with_opts(&program, &pt, cfg, &lib, 0);
    let c = got.lock_counts();
    assert_eq!(
        lockinfer::AnalysisStats {
            threads: 0,
            ..got.stats.clone()
        },
        lockinfer::AnalysisStats {
            worklist_pops: 15_686_850,
            facts_inserted: 15_686_850,
            peak_point_locks: 24,
            widenings: 86_527,
            summary_cache_hits: 24,
            summary_cache_misses: 0,
            summary_functions: 112,
            summary_queries: 31_136,
            contexts: 31_249,
            state_points: 2_500_082,
            transfer_memo_hits: 2_154_450,
            interner_locks: 22_971,
            interner_paths: 22_212,
            threads: 0,
        },
        "{name}: analysis stats"
    );
    assert_eq!(
        [c.fine_ro, c.fine_rw, c.coarse_ro, c.coarse_rw],
        [0, 8, 1, 8],
        "{name}: lock counts"
    );
    assert_eq!(
        fnv(&got.render(&program)),
        0x29ab_ad34_2a49_cbe0,
        "{name}: lock-set digest"
    );
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

#[test]
fn spec_like_k0_results_are_pinned() {
    let lib = lockinfer::library::LibrarySpec::new();
    for pin in &K0_PINS {
        let name = format!("spec-like {} kloc seed {}", pin.kloc, pin.seed);
        let spec = workloads::spec_like::generate("x", pin.kloc, pin.seed);
        let program = lir::compile(&spec.source).unwrap_or_else(|e| panic!("{name}: {e}"));
        let pt = pointsto::PointsTo::analyze(&program);
        let cfg = lockscheme::SchemeConfig::full(0, program.elem_field_opt());
        let got = lockinfer::analyze_program_with_opts(&program, &pt, cfg, &lib, 1);
        let s = &got.stats;
        let c = got.lock_counts();
        assert_eq!(
            (s.worklist_pops, s.widenings, s.summary_queries),
            (0, 0, 0),
            "{name}: k=0 never enters the k-limited machinery"
        );
        assert_eq!(
            (
                s.summary_functions,
                s.contexts,
                s.summary_cache_hits,
                s.interner_locks
            ),
            (
                pin.summary_functions,
                pin.contexts,
                pin.cache_hits,
                pin.interner_locks
            ),
            "{name}: summary functions / contexts / cache hits / interned locks"
        );
        assert_eq!(
            [c.fine_ro, c.fine_rw, c.coarse_ro, c.coarse_rw],
            pin.locks,
            "{name}: lock counts"
        );
        assert_eq!(
            fnv(&got.render(&program)),
            pin.digest,
            "{name}: lock-set digest"
        );
    }
}
