//! Post-acquisition revalidation under virtual time. A multi-grain plan
//! granted in the same `Worker::resume` that evaluated it is not
//! re-evaluated — nobody else ran in between. A plan that waited did
//! yield, so it must still be re-evaluated: here seven virtual threads
//! plan a fine lock on an element of `tab` while the eighth holds the
//! table's lock and swaps in a new array, so the element they planned
//! is stale by the time they are granted.

mod common;

use interp::{ExecMode, Options};

const THREADS: usize = 8;
const ITERS: i64 = 40;

const SRC: &str = r#"
    global tab;
    fn init() {
        tab = new(8);
        return 0;
    }
    fn work(iters, tid) {
        let i = 0;
        let b = tid % 8;
        while (i < iters) {
            if (tid == 0) {
                atomic {
                    let nt = new(8);
                    let j = 0;
                    while (j < 8) { nt[j] = tab[j]; j = j + 1; }
                    nops(60);
                    tab = nt;
                }
            } else {
                atomic { tab[b] = tab[b] + 1; nops(4); }
            }
            i = i + 1;
        }
        return 0;
    }
    fn total() {
        let s = 0;
        let j = 0;
        while (j < 8) { s = s + tab[j]; j = j + 1; }
        return s;
    }
"#;

#[test]
fn a_plan_that_waited_is_revalidated() {
    let m = common::machine_for(SRC, 9, ExecMode::MultiGrain, Options::default())
        .expect("fixture compiles");
    m.run_named("init", &[]).unwrap();
    m.run_threads_virtual("work", THREADS, |tid| vec![ITERS, tid as i64])
        .unwrap();
    // Every increment landed in the table that survived the swaps.
    let bumps = (THREADS as i64 - 1) * ITERS;
    assert_eq!(m.run_named("total", &[]).unwrap(), bumps);
    let report = m.degradation_report();
    assert!(
        report.lock_revalidations > 0,
        "stale plans were granted without a re-evaluation: {report}"
    );
    assert!(m.locks_quiescent());
}
