//! Table 2: execution times using 8 threads under the four
//! configurations (Global / Coarse k=0 / Fine+Coarse k=9 / TL2 STM).
//!
//! ```text
//! cargo run -p bench --release --bin table2
//! ```

use bench::harness::{run, Config};
use workloads::{micro, stamp, Contention, RunSpec};

const THREADS: usize = 8;
const NOPK: i64 = 200;

fn specs() -> Vec<RunSpec> {
    let mut v = vec![
        stamp::genome(4000, 60),
        stamp::vacation(1500, 60),
        stamp::kmeans(6000, 60),
        stamp::bayes(2500, 120),
        stamp::labyrinth(1200, 60),
    ];
    for c in [Contention::High, Contention::Low] {
        v.push(micro::hashtable(c, 6000, NOPK));
        v.push(micro::rbtree(c, 6000, NOPK));
        v.push(micro::list(c, 4000, NOPK));
        v.push(micro::hashtable2(c, 8000, NOPK));
        v.push(micro::th(c, 6000, NOPK));
    }
    v
}

fn main() {
    println!("Table 2: execution time (s) using {THREADS} threads");
    println!(
        "{:<18} {:>9} {:>12} {:>17} {:>9} {:>8}  (STM aborts/fallbacks)",
        "Program", "Global", "Coarse(k=0)", "Fine+Coarse(k=9)", "STM", "revalid"
    );
    println!("{}", "-".repeat(97));
    let mut degraded = Vec::new();
    for spec in specs() {
        let mut cells = Vec::new();
        let mut aborts = 0;
        let mut fallbacks = 0;
        let mut revalidations = 0;
        for config in Config::ALL {
            let out = run(&spec, config, THREADS);
            cells.push(out.seconds);
            if config == Config::Stm {
                aborts = out.degradation.stm_aborts;
                fallbacks = out.degradation.stm_fallbacks;
            }
            if config == Config::FineCoarse {
                // Lock batches re-planned because a fine descriptor
                // drifted while the thread waited — only the fine
                // column can revalidate.
                revalidations = out.degradation.lock_revalidations;
            }
            if !out.degradation.is_clean() {
                degraded.push((spec.name.clone(), config.label(), out.degradation));
            }
        }
        println!(
            "{:<18} {:>9.3} {:>12.3} {:>17.3} {:>9.3} {revalidations:>8}  ({aborts}/{fallbacks})",
            spec.name, cells[0], cells[1], cells[2], cells[3]
        );
    }
    for (name, label, report) in degraded {
        println!("  degraded: {name} [{label}]  {report}");
    }
    println!();
    println!("Expected shapes (paper §6.3): STAMP kernels gain nothing from");
    println!("multi-grain locks (coarse ≈ global, fine adds overhead); the");
    println!("STM loses where sections conflict structurally (vacation,");
    println!("hashtable-high, TH-high) and wins on low-contention micro-");
    println!("benchmarks and labyrinth; read/write coarse locks beat the");
    println!("global lock ~2x on -low settings; fine locks halve coarse on");
    println!("hashtable-2-high; TH beats global with either grain.");
}
