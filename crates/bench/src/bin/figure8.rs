//! Figure 8: execution times for rbtree, hashtable-2, TH, genome, and
//! kmeans using 1, 2, 4, and 8 threads.
//!
//! Total work is kept constant across thread counts (ops are divided
//! among threads), so ideal scaling halves the time at each step.
//!
//! ```text
//! cargo run -p bench --release --bin figure8
//! ```

use bench::harness::{run, Config};
use workloads::{micro, stamp, Contention, RunSpec};

const NOPK: i64 = 200;

fn specs(threads: usize) -> Vec<RunSpec> {
    let per = |total: i64| (total / threads as i64).max(1);
    vec![
        micro::rbtree(Contention::Low, per(48000), NOPK),
        micro::rbtree(Contention::High, per(48000), NOPK),
        micro::hashtable2(Contention::High, per(64000), NOPK),
        micro::th(Contention::High, per(48000), NOPK),
        micro::th(Contention::Low, per(48000), NOPK),
        stamp::genome(per(32000), 60),
        stamp::kmeans(per(48000), 60),
    ]
}

fn main() {
    println!("Figure 8: execution time (s) at 1, 2, 4, 8 threads (fixed total work)");
    for config in Config::ALL {
        println!();
        println!("== {} ==", config.label());
        println!(
            "{:<18} {:>8} {:>8} {:>8} {:>8}",
            "Program", "1", "2", "4", "8"
        );
        let names: Vec<String> = specs(1).iter().map(|s| s.name.clone()).collect();
        let mut table: Vec<Vec<f64>> = vec![Vec::new(); names.len()];
        let mut aborts = 0u64;
        let mut fallbacks = 0u64;
        for threads in [1usize, 2, 4, 8] {
            for (i, spec) in specs(threads).iter().enumerate() {
                let out = run(spec, config, threads);
                table[i].push(out.seconds);
                aborts += out.degradation.stm_aborts;
                fallbacks += out.degradation.stm_fallbacks;
            }
        }
        for (name, row) in names.iter().zip(&table) {
            println!(
                "{:<18} {:>8.3} {:>8.3} {:>8.3} {:>8.3}",
                name, row[0], row[1], row[2], row[3]
            );
        }
        if config == Config::Stm {
            println!(
                "(STM totals across all runs: {aborts} aborts, {fallbacks} irrevocable fallbacks)"
            );
        }
    }
    println!();
    println!("Expected shapes (paper Figure 8): under coarse/fine locks,");
    println!("rbtree-low and TH scale with threads while genome does not;");
    println!("hashtable-2-high scales only with fine locks; the STM scales");
    println!("best on rbtree/hashtable-2 and collapses on TH-high at 8");
    println!("threads.");
}
