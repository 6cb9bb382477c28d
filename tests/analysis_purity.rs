//! The analysis is a function of `(program, pt, lib, configs)` with no
//! state outside its arguments: lock terms live in tables owned by the
//! engines of one analysis (and by the `SummaryStore` it was handed),
//! so what a process analysed before cannot show in what it reports
//! next.
//!
//! Every expected value below was printed by a *fresh process*
//! analysing that one program first — for `interner_*`, what the
//! process-wide table this repository used to have reported cold
//! (`benchmark/expected/spec2k-k9.json` pins the same quantity on the
//! ladder).

use atomic_lock_inference::{lockinfer, lockscheme, pointsto, workloads};
use lockinfer::{AnalysisStats, SummaryStore};

struct Case {
    name: &'static str,
    source: String,
    k: usize,
    /// `threads` is the one field that is not the program's.
    fresh: AnalysisStats,
}

fn cases() -> [Case; 2] {
    let (tier, params) = workloads::scale::tiers()[0];
    [
        Case {
            name: tier,
            source: workloads::scale::generate(tier, params).source,
            k: 3,
            fresh: AnalysisStats {
                worklist_pops: 523,
                facts_inserted: 523,
                peak_point_locks: 7,
                widenings: 0,
                summary_cache_hits: 10,
                summary_cache_misses: 0,
                summary_functions: 10,
                summary_queries: 0,
                contexts: 14,
                state_points: 171,
                transfer_memo_hits: 0,
                interner_locks: 161,
                interner_paths: 152,
                threads: 0,
            },
        },
        Case {
            name: "spec-like 0.3 kloc seed 2",
            source: workloads::spec_like::generate("x", 0.3, 2).source,
            k: 9,
            fresh: AnalysisStats {
                worklist_pops: 21_389,
                facts_inserted: 21_389,
                peak_point_locks: 24,
                widenings: 18,
                summary_cache_hits: 5,
                summary_cache_misses: 0,
                summary_functions: 5,
                summary_queries: 116,
                contexts: 122,
                state_points: 10_661,
                transfer_memo_hits: 984,
                interner_locks: 449,
                interner_paths: 387,
                threads: 0,
            },
        },
    ]
}

fn analyse(case: &Case, threads: usize, store: Option<&SummaryStore>) -> AnalysisStats {
    let program = lir::compile(&case.source).unwrap_or_else(|e| panic!("{}: {e}", case.name));
    let pt = pointsto::PointsTo::analyze(&program);
    let cfg = lockscheme::SchemeConfig::full(case.k, program.elem_field_opt());
    let lib = lockinfer::library::LibrarySpec::new();
    let got =
        lockinfer::analyze_program_with_configs(&program, &pt, &cfg.into(), &lib, threads, store);
    AnalysisStats {
        threads: 0,
        ..got.stats
    }
}

#[test]
fn stats_do_not_depend_on_what_the_process_analysed_before() {
    let [a, b] = cases();
    for order in [[&a, &b], [&b, &a]] {
        for threads in [1, 0] {
            for case in order {
                let at = format!("{} (threads={threads})", case.name);
                assert_eq!(analyse(case, threads, None), case.fresh, "{at}: cold");
                // Through a store: the analysis that fills it does —
                // and counts — Phase A's work; the next one only
                // borrows the frozen tables, which still count as its
                // terms. Dropping the store frees them.
                let store = SummaryStore::new();
                let filling = analyse(case, threads, Some(&store));
                assert_eq!(filling, case.fresh, "{at}: filling a store");
                let borrowing = analyse(case, threads, Some(&store));
                assert!(borrowing.worklist_pops < case.fresh.worklist_pops, "{at}");
                assert_eq!(
                    (borrowing.interner_locks, borrowing.interner_paths),
                    (case.fresh.interner_locks, case.fresh.interner_paths),
                    "{at}: borrowing a filled store"
                );
                drop(store);
                assert_eq!(
                    analyse(case, threads, None),
                    case.fresh,
                    "{at}: store dropped"
                );
            }
        }
    }
}
