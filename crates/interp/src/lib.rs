//! # interp — a concurrent interpreter for transformed programs
//!
//! Executes programs produced by the `lockinfer` pipeline over a shared
//! heap, with four disciplines for atomic sections:
//!
//! * [`ExecMode::Global`] — every section takes one global lock (the
//!   evaluation's baseline column);
//! * [`ExecMode::MultiGrain`] — sections acquire the locks the compiler
//!   inferred, through the `mglock` multi-granularity runtime;
//! * [`ExecMode::Stm`] — sections run as TL2 transactions with local
//!   rollback and retry (the optimistic baseline);
//! * [`ExecMode::Validate`] — MultiGrain plus an empirical check of
//!   Theorem 1: every heap access inside a section must be covered, at
//!   the right effect, by the concrete denotation of some held lock.
//!
//! ```
//! use interp::{ExecMode, Machine, Options};
//! use std::sync::Arc;
//!
//! let src = "global g; fn main() { atomic { g = g + 1; } return g; }";
//! let (program, _analysis, transformed) = lockinfer::compile_with_locks(src, 3)?;
//! let pt = Arc::new(pointsto::PointsTo::analyze(&program));
//! let m = Machine::new(Arc::new(transformed), pt, ExecMode::MultiGrain, Options::default());
//! assert_eq!(m.run_named("main", &[]).unwrap(), 1);
//! # Ok::<(), lir::lower::FrontendError>(())
//! ```

mod error;
pub mod fault;
mod machine;
pub mod sim;
mod worker;

pub use error::InterpError;
pub use fault::{FaultPlan, FaultStats, WeakenPlan};
pub use machine::{ExecMode, Machine, Options, RepairSpec};
pub use sched::{PolicyKind, ReaderBatch, SchedConfig};
pub use sentinel::SentinelConfig;

use std::sync::Arc;

/// End-to-end convenience for tests and examples: compile `src`, infer
/// locks at `k`, transform, and build a machine in `mode`.
///
/// # Errors
///
/// Returns the rendered frontend error message on parse/lowering
/// failure.
pub fn machine_for(src: &str, k: usize, mode: ExecMode, opts: Options) -> Result<Machine, String> {
    let (program, _analysis, transformed) =
        lockinfer::compile_with_locks(src, k).map_err(|e| e.to_string())?;
    let pt = Arc::new(pointsto::PointsTo::analyze(&program));
    Ok(Machine::new(Arc::new(transformed), pt, mode, opts))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str, mode: ExecMode) -> i64 {
        let m = machine_for(src, 3, mode, Options::default()).unwrap();
        m.run_named("main", &[]).unwrap()
    }

    const ALL_MODES: [ExecMode; 4] = [
        ExecMode::Global,
        ExecMode::MultiGrain,
        ExecMode::Stm,
        ExecMode::Validate,
    ];

    #[test]
    fn arithmetic_and_control_flow() {
        let src = r#"
            fn fib(n) {
                if (n < 2) { return n; }
                return fib(n - 1) + fib(n - 2);
            }
            fn main() { return fib(15); }
        "#;
        assert_eq!(run(src, ExecMode::Global), 610);
    }

    #[test]
    fn heap_structures() {
        let src = r#"
            struct node { next; val; }
            fn main() {
                let head = null;
                let i = 0;
                while (i < 10) {
                    let n = new node;
                    n->val = i;
                    n->next = head;
                    head = n;
                    i = i + 1;
                }
                let sum = 0;
                while (head != null) {
                    sum = sum + head->val;
                    head = head->next;
                }
                return sum;
            }
        "#;
        assert_eq!(run(src, ExecMode::Global), 45);
    }

    #[test]
    fn arrays_and_dynamic_indexing() {
        let src = r#"
            fn main() {
                let a = new(10);
                let i = 0;
                while (i < 10) { a[i] = i * i; i = i + 1; }
                return a[7];
            }
        "#;
        assert_eq!(run(src, ExecMode::Global), 49);
    }

    #[test]
    fn sections_work_in_every_mode() {
        let src = r#"
            global g;
            fn main() {
                atomic { g = g + 41; }
                atomic { g = g + 1; }
                return g;
            }
        "#;
        for mode in ALL_MODES {
            assert_eq!(run(src, mode), 42, "{mode:?}");
        }
    }

    #[test]
    fn nested_sections_work_in_every_mode() {
        let src = r#"
            global g, h;
            fn main() {
                atomic {
                    g = 1;
                    atomic { h = 2; }
                    g = g + h;
                }
                return g * 10 + h;
            }
        "#;
        for mode in ALL_MODES {
            assert_eq!(run(src, mode), 32, "{mode:?}");
        }
    }

    #[test]
    fn address_of_locals() {
        let src = r#"
            fn bump(p) { *p = *p + 1; }
            fn main() {
                let x = 5;
                bump(&x);
                bump(&x);
                return x;
            }
        "#;
        assert_eq!(run(src, ExecMode::Global), 7);
    }

    #[test]
    fn concurrent_counter_all_modes() {
        let src = r#"
            global counter;
            fn work(iters) {
                let i = 0;
                while (i < iters) {
                    atomic { counter = counter + 1; }
                    i = i + 1;
                }
                return counter;
            }
            fn main() { return counter; }
        "#;
        for mode in ALL_MODES {
            let m = machine_for(src, 3, mode, Options::default()).unwrap();
            m.run_threads("work", 8, |_| vec![250]).unwrap();
            assert_eq!(m.run_named("main", &[]).unwrap(), 2000, "{mode:?}");
        }
    }

    #[test]
    fn paper_move_example_runs_concurrently() {
        // Figure 1: concurrent move(l1,l2) / move(l2,l1) — the classic
        // deadlock scenario under naive fine-grain locking.
        let src = r#"
            struct elem { next; data; }
            struct list { head; }
            global l1, l2;
            fn setup(n) {
                l1 = new list;
                l2 = new list;
                let i = 0;
                while (i < n) {
                    let e = new elem;
                    e->data = i;
                    e->next = l1->head;
                    l1->head = e;
                    i = i + 1;
                }
            }
            fn move_(from, to) {
                atomic {
                    let x = to->head;
                    let y = from->head;
                    from->head = null;
                    if (x == null) {
                        to->head = y;
                    } else {
                        while (x->next != null) { x = x->next; }
                        x->next = y;
                    }
                }
            }
            fn mover(rounds) {
                let i = 0;
                while (i < rounds) {
                    if (tid() % 2 == 0) { move_(l1, l2); } else { move_(l2, l1); }
                    i = i + 1;
                }
                return 0;
            }
            fn count(l) {
                let n = 0;
                let e = l->head;
                while (e != null) { n = n + 1; e = e->next; }
                return n;
            }
            fn total() { return count(l1) + count(l2); }
        "#;
        for mode in ALL_MODES {
            let m = machine_for(src, 3, mode, Options::default()).unwrap();
            m.run_named("setup", &[30]).unwrap();
            m.run_threads("mover", 4, |_| vec![25]).unwrap();
            assert_eq!(
                m.run_named("total", &[]).unwrap(),
                30,
                "elements conserved in {mode:?}"
            );
        }
    }

    #[test]
    fn validate_mode_accepts_inferred_locks() {
        // A broad sample of section shapes, all checked for coverage.
        let src = r#"
            struct node { next; val; }
            global head, count;
            fn push(v) {
                atomic {
                    let n = new node;
                    n->val = v;
                    n->next = head;
                    head = n;
                    count = count + 1;
                }
            }
            fn sum() {
                let s = 0;
                atomic {
                    let e = head;
                    while (e != null) { s = s + e->val; e = e->next; }
                }
                print(s);
            }
            fn main() {
                push(1); push(2); push(3);
                sum();
                return count;
            }
        "#;
        for k in [0, 2, 9] {
            let m = machine_for(src, k, ExecMode::Validate, Options::default()).unwrap();
            assert_eq!(m.run_named("main", &[]).unwrap(), 3, "k={k}");
        }
    }

    #[test]
    fn validate_mode_catches_missing_locks() {
        // Hand-build a transformed program whose AcquireAll is empty:
        // the write to g inside the section must be flagged.
        let src = "global g; fn main() { atomic { g = 1; } }";
        let program = lir::compile(src).unwrap();
        let pt = Arc::new(pointsto::PointsTo::analyze(&program));
        let mut broken = program.clone();
        for func in &mut broken.functions {
            for ins in &mut func.body {
                match ins {
                    lir::Instr::EnterAtomic(s) => *ins = lir::Instr::AcquireAll(*s, vec![]),
                    lir::Instr::ExitAtomic(s) => *ins = lir::Instr::ReleaseAll(*s),
                    _ => {}
                }
            }
        }
        let m = Machine::new(Arc::new(broken), pt, ExecMode::Validate, Options::default());
        let err = m.run_named("main", &[]).unwrap_err();
        assert!(
            matches!(err, InterpError::Unprotected { write: true, .. }),
            "{err}"
        );
    }

    #[test]
    fn stm_mode_commits_under_contention() {
        let src = r#"
            global c;
            fn work(iters) {
                let i = 0;
                while (i < iters) {
                    atomic { c = c + 1; nops(20); }
                    i = i + 1;
                }
                return 0;
            }
            fn main() { return c; }
        "#;
        let m = machine_for(src, 3, ExecMode::Stm, Options::default()).unwrap();
        m.run_threads("work", 8, |_| vec![100]).unwrap();
        assert_eq!(m.run_named("main", &[]).unwrap(), 800);
        assert_eq!(m.stm_stats().commits, 800);
    }

    #[test]
    fn faults_are_reported() {
        let src = "struct s { f; } fn main() { let x = null; return x->f; }";
        let m = machine_for(src, 3, ExecMode::Global, Options::default()).unwrap();
        assert!(matches!(
            m.run_named("main", &[]).unwrap_err(),
            InterpError::Fault { .. }
        ));

        let src = "fn main() { let x = 1; let y = 0; return x / y; }";
        let m = machine_for(src, 3, ExecMode::Global, Options::default()).unwrap();
        assert!(matches!(
            m.run_named("main", &[]).unwrap_err(),
            InterpError::DivByZero { .. }
        ));

        let src = "fn main() { assert(0); }";
        let m = machine_for(src, 3, ExecMode::Global, Options::default()).unwrap();
        assert!(matches!(
            m.run_named("main", &[]).unwrap_err(),
            InterpError::AssertFailed { .. }
        ));
    }

    #[test]
    fn intrinsics_behave() {
        let src = r#"
            fn main() {
                let r = rand(10);
                assert(r >= 0);
                assert(r < 10);
                nops(5);
                print(r);
                return tid();
            }
        "#;
        let m = machine_for(src, 3, ExecMode::Global, Options::default()).unwrap();
        assert_eq!(m.run_named("main", &[]).unwrap(), 0);
        assert_eq!(m.output().len(), 1);
    }

    #[test]
    fn multigrain_requires_transformed_program() {
        let src = "global g; fn main() { atomic { g = 1; } }";
        let program = Arc::new(lir::compile(src).unwrap());
        let pt = Arc::new(pointsto::PointsTo::analyze(&program));
        let m = Machine::new(program, pt, ExecMode::MultiGrain, Options::default());
        assert!(matches!(
            m.run_named("main", &[]).unwrap_err(),
            InterpError::NeedsTransformedProgram { .. }
        ));
    }

    #[test]
    fn virtual_time_reader_sections_run_in_parallel() {
        let src = r#"
            global g;
            fn work(iters) {
                let i = 0;
                while (i < iters) {
                    atomic { let t = g; nops(2000); }
                    i = i + 1;
                }
                return 0;
            }
        "#;
        let run = |mode: ExecMode, threads: usize| {
            let m = machine_for(src, 3, mode, Options::default()).unwrap();
            let (_, span) = m
                .run_threads_virtual("work", threads, |_| vec![40])
                .unwrap();
            span
        };
        // Read-only sections under multi-grain locks share; under the
        // global lock they serialize.
        let mg8 = run(ExecMode::MultiGrain, 8);
        let gl8 = run(ExecMode::Global, 8);
        assert!(
            gl8 as f64 > 4.0 * mg8 as f64,
            "global ({gl8}) should be much slower than shared reads ({mg8})"
        );
        // And multi-grain reading barely degrades with thread count.
        let mg1 = run(ExecMode::MultiGrain, 1);
        assert!(
            (mg8 as f64) < 2.0 * mg1 as f64,
            "8 readers ({mg8}) near 1 reader ({mg1})"
        );
    }

    #[test]
    fn virtual_time_writer_sections_serialize() {
        let src = r#"
            global g;
            fn work(iters) {
                let i = 0;
                while (i < iters) {
                    atomic { g = g + 1; nops(2000); }
                    i = i + 1;
                }
                return 0;
            }
            fn main() { return g; }
        "#;
        let m = machine_for(src, 3, ExecMode::MultiGrain, Options::default()).unwrap();
        let (_, span1) = m.run_threads_virtual("work", 1, |_| vec![40]).unwrap();
        let m = machine_for(src, 3, ExecMode::MultiGrain, Options::default()).unwrap();
        let (_, span8) = m.run_threads_virtual("work", 8, |_| vec![40]).unwrap();
        assert!(
            span8 as f64 > 5.0 * span1 as f64,
            "writers serialize: 8 threads {span8} vs 1 thread {span1}"
        );
        assert_eq!(m.run_named("main", &[]).unwrap(), 8 * 40);
    }

    #[test]
    fn virtual_time_is_deterministic() {
        let src = r#"
            global c;
            fn work(iters) {
                let i = 0;
                while (i < iters) {
                    atomic { c = c + rand(3); nops(100); }
                    i = i + 1;
                }
                return c;
            }
        "#;
        let span_of = |mode: ExecMode| {
            let m = machine_for(src, 3, mode, Options::default()).unwrap();
            let (r, span) = m.run_threads_virtual("work", 4, |_| vec![50]).unwrap();
            (r, span, m.run_named("work", &[0]).unwrap())
        };
        for mode in [ExecMode::Global, ExecMode::MultiGrain, ExecMode::Stm] {
            let a = span_of(mode);
            let b = span_of(mode);
            assert_eq!(a, b, "virtual runs are reproducible in {mode:?}");
        }
    }

    #[test]
    fn virtual_stm_commits_and_counts() {
        let src = r#"
            global c;
            fn work(iters) {
                let i = 0;
                while (i < iters) {
                    atomic { c = c + 1; nops(50); }
                    i = i + 1;
                }
                return 0;
            }
            fn main() { return c; }
        "#;
        let m = machine_for(src, 3, ExecMode::Stm, Options::default()).unwrap();
        let (_, span) = m.run_threads_virtual("work", 8, |_| vec![50]).unwrap();
        assert!(span > 0);
        assert_eq!(m.run_named("main", &[]).unwrap(), 400);
        assert_eq!(m.stm_stats().commits, 400);
    }

    #[test]
    fn virtual_time_print_order_is_deterministic() {
        let src = r#"
            global turn;
            fn work(iters) {
                let i = 0;
                while (i < iters) {
                    atomic { turn = turn + 1; print(turn * 10 + tid()); nops(300); }
                    i = i + 1;
                }
                return 0;
            }
        "#;
        let outputs: Vec<Vec<String>> = (0..2)
            .map(|_| {
                let m = machine_for(src, 3, ExecMode::MultiGrain, Options::default()).unwrap();
                m.run_threads_virtual("work", 3, |_| vec![5]).unwrap();
                m.output()
            })
            .collect();
        assert_eq!(outputs[0], outputs[1], "print streams reproduce exactly");
        assert_eq!(outputs[0].len(), 15);
    }

    #[test]
    fn virtual_single_thread_equals_instruction_count_scale() {
        // One thread, no contention: makespan ≈ instructions + nops.
        let src = r#"
            fn work(n) {
                let i = 0;
                while (i < n) { nops(100); i = i + 1; }
                return i;
            }
        "#;
        let m = machine_for(src, 3, ExecMode::Global, Options::default()).unwrap();
        let (r, span) = m.run_threads_virtual("work", 1, |_| vec![50]).unwrap();
        assert_eq!(r, vec![50]);
        // 50 × (100 nops + ~8 loop instructions): between 5k and 12k.
        assert!((5_000..12_000).contains(&span), "span {span}");
    }

    #[test]
    fn null_lock_expressions_are_skipped_not_faulted() {
        // The inferred fine lock &(p->head) evaluates through p — when
        // the structure is absent at entry the descriptor is skipped
        // and the run faults only at the actual access (or not at all
        // if the access is guarded).
        let src = r#"
            struct list { head; }
            global l;
            fn main() {
                atomic {
                    if (l != null) { l->head = null; }
                }
                return 7;
            }
        "#;
        let m = machine_for(src, 9, ExecMode::MultiGrain, Options::default()).unwrap();
        assert_eq!(m.run_named("main", &[]).unwrap(), 7);
    }

    #[test]
    fn heapified_locals_work_inside_sections() {
        let src = r#"
            global g;
            fn bump(p) { atomic { *p = *p + g; } }
            fn main() {
                g = 5;
                let x = 1;
                bump(&x);
                bump(&x);
                return x;
            }
        "#;
        for mode in ALL_MODES {
            assert_eq!(run(src, mode), 11, "{mode:?}");
        }
    }

    #[test]
    fn section_in_callee_under_stm_retries_correctly() {
        // The txn is owned by the callee's frame; its locals must roll
        // back on retry while the caller's survive.
        let src = r#"
            global c;
            fn add_one() {
                let local = 100;
                atomic {
                    local = local + 1;
                    c = c + local;
                    nops(50);
                }
                return local;
            }
            fn work(iters) {
                let i = 0;
                let acc = 0;
                while (i < iters) {
                    acc = add_one();
                    i = i + 1;
                }
                return acc;
            }
            fn main() { return c; }
        "#;
        let m = machine_for(src, 3, ExecMode::Stm, Options::default()).unwrap();
        let results = m.run_threads("work", 6, |_| vec![50]).unwrap();
        assert!(
            results.iter().all(|&r| r == 101),
            "local rollback kept: {results:?}"
        );
        assert_eq!(m.run_named("main", &[]).unwrap(), 6 * 50 * 101);
    }

    #[test]
    fn cross_thread_nesting_takes_locks_when_outermost() {
        // §5.3: an inner section in one thread can be the outermost
        // section of another thread. `deposit` is called from inside
        // `batch`'s section (nested — no locks taken) *and* directly
        // (outermost — locks taken). Both must stay atomic.
        let src = r#"
            global acct;
            fn deposit(v) {
                atomic { acct = acct + v; nops(50); }
                return 0;
            }
            fn batch(iters) {
                let i = 0;
                while (i < iters) {
                    atomic {
                        deposit(2);
                        deposit(3);
                    }
                    i = i + 1;
                }
                return 0;
            }
            fn single(iters) {
                let i = 0;
                while (i < iters) {
                    deposit(1);
                    i = i + 1;
                }
                return 0;
            }
            fn main() { return acct; }
        "#;
        for mode in [ExecMode::Global, ExecMode::MultiGrain, ExecMode::Stm] {
            let m = machine_for(src, 3, mode, Options::default()).unwrap();
            // Half the threads batch (nested), half deposit directly.
            std::thread::scope(|s| {
                for t in 0..4 {
                    let m = &m;
                    s.spawn(move || {
                        if t % 2 == 0 {
                            m.run_fn(m.program_fn("batch"), &[100], t).unwrap();
                        } else {
                            m.run_fn(m.program_fn("single"), &[100], t).unwrap();
                        }
                    });
                }
            });
            assert_eq!(
                m.run_named("main", &[]).unwrap(),
                2 * 100 * 5 + 2 * 100,
                "{mode:?}"
            );
        }
    }

    #[test]
    fn out_of_memory_is_reported() {
        let src = "fn main() { let i = 0; while (i < 100) { let x = new(100); i = i + 1; } }";
        let m = machine_for(
            src,
            0,
            ExecMode::Global,
            Options {
                heap_cells: 512,
                seed: 1,
                ..Options::default()
            },
        )
        .unwrap();
        assert!(matches!(
            m.run_named("main", &[]).unwrap_err(),
            InterpError::OutOfMemory
        ));
    }

    #[test]
    fn a_refused_allocation_leaves_the_heap_usable() {
        use lockscheme::LocationModel;
        let src = r#"
            fn big(n) { let a = new(n); return a; }
            fn small() { let a = new(4); return a; }
        "#;
        let opts = Options {
            heap_cells: 64,
            ..Options::default()
        };
        let m = machine_for(src, 0, ExecMode::Global, opts).unwrap();
        let first = m.run_named("small", &[]).unwrap();
        // Twice: the first refusal used to poison the bump pointer, the
        // second to wrap it back into range and "succeed".
        for _ in 0..2 {
            let refused = m.run_named("big", &[i64::MAX]);
            assert!(
                matches!(refused, Err(InterpError::OutOfMemory)),
                "{refused:?}"
            );
            assert!(m.heap_used() <= 64, "brk moved to {}", m.heap_used());
        }
        let second = m.run_named("small", &[]).unwrap();
        assert_eq!(second, first + 4, "the next fresh base");
        assert!(m.heap_used() <= 64);
        // The extent table is still searchable by base.
        for base in [first as u64, second as u64] {
            assert_eq!(m.extent_of(base + 3), Some((base, 4)));
        }
    }

    // ------------------------------------------------------------------
    // Fault injection and graceful degradation

    const COUNTER_SRC: &str = r#"
        global c;
        fn work(iters) {
            let i = 0;
            while (i < iters) {
                atomic { c = c + 1; nops(20); }
                i = i + 1;
            }
            return 0;
        }
        fn main() { return c; }
    "#;

    #[test]
    fn real_threads_honour_the_checked_acquisition_policy() {
        // Real-time workers always acquire through the checked walk; a
        // conforming program under a timeout and the wait-for graph
        // must finish with the right count and trip neither.
        for mode in [ExecMode::Global, ExecMode::MultiGrain, ExecMode::Validate] {
            let opts = Options {
                mg_config: mglock::RuntimeConfig {
                    acquire_timeout: Some(std::time::Duration::from_secs(5)),
                    detect_deadlocks: true,
                },
                ..Options::default()
            };
            let m = machine_for(COUNTER_SRC, 3, mode, opts).unwrap();
            m.run_threads("work", 4, |_| vec![250]).unwrap();
            assert_eq!(m.run_named("main", &[]).unwrap(), 1000, "{mode:?}");
            let report = m.degradation_report();
            assert_eq!(
                (report.deadlocks_detected, report.lock_timeouts),
                (0, 0),
                "{mode:?}"
            );
            assert!(m.locks_quiescent(), "{mode:?}");
        }
    }

    #[test]
    fn injected_panic_is_contained_and_releases_locks() {
        for mode in [ExecMode::Global, ExecMode::MultiGrain, ExecMode::Validate] {
            let opts = Options {
                faults: Some(FaultPlan::new(0xBAD).with_panics(200, 1)),
                ..Options::default()
            };
            let m = machine_for(COUNTER_SRC, 3, mode, opts).unwrap();
            let err = m.run_threads("work", 4, |_| vec![200]).unwrap_err();
            assert!(
                matches!(err, InterpError::InjectedPanic { .. }),
                "{mode:?}: {err}"
            );
            assert!(m.locks_quiescent(), "{mode:?}: locks leaked past a panic");
            assert!(
                m.mg_stats()
                    .poisoned_sessions
                    .load(std::sync::atomic::Ordering::Relaxed)
                    > 0
            );
            // The machine stays usable after the contained panics.
            assert!(m.run_named("main", &[]).unwrap() >= 0, "{mode:?}");
        }
    }

    #[test]
    fn injected_stm_aborts_retry_to_the_correct_result() {
        let opts = Options {
            faults: Some(FaultPlan::new(0xF00D).with_stm_aborts(40)),
            ..Options::default()
        };
        let m = machine_for(COUNTER_SRC, 3, ExecMode::Stm, opts).unwrap();
        m.run_threads("work", 4, |_| vec![100]).unwrap();
        assert_eq!(m.run_named("main", &[]).unwrap(), 400);
        let injected = m
            .fault_stats()
            .injected_aborts
            .load(std::sync::atomic::Ordering::Relaxed);
        assert!(injected > 0, "the plan should have fired");
        assert!(
            m.stm_stats().aborts >= injected,
            "every injection was a real abort"
        );
    }

    #[test]
    fn abort_storm_escalates_to_irrevocable_within_budget() {
        // Storm: nearly every transactional access aborts, so no
        // optimistic attempt can finish — progress requires the
        // irrevocable fallback, which the budget triggers.
        let opts = Options {
            faults: Some(FaultPlan::new(0x5707).with_stm_aborts(700)),
            stm_abort_budget: 3,
            ..Options::default()
        };
        let m = machine_for(COUNTER_SRC, 3, ExecMode::Stm, opts).unwrap();
        m.run_threads("work", 4, |_| vec![25]).unwrap();
        assert_eq!(m.run_named("main", &[]).unwrap(), 100, "no increment lost");
        let stats = m.stm_stats();
        assert!(
            stats.fallbacks > 0,
            "the storm must have escalated: {stats:?}"
        );
        // Budget respected: per committed-after-escalation section, at
        // most `budget` aborts preceded the irrevocable attempt (plus
        // optimistic sections that squeaked through).
        assert_eq!(stats.commits, 100);
    }

    #[test]
    fn fault_injected_virtual_runs_are_deterministic() {
        let plan = FaultPlan::new(0xD13)
            .with_stm_aborts(30)
            .with_stalls(100, 500)
            .with_wakeup_delays(100, 250);
        for mode in [ExecMode::Global, ExecMode::MultiGrain, ExecMode::Stm] {
            let run = || {
                let opts = Options {
                    faults: Some(plan),
                    ..Options::default()
                };
                let m = machine_for(COUNTER_SRC, 3, mode, opts).unwrap();
                let r = m.run_threads_virtual("work", 4, |_| vec![30]);
                (r, m.run_named("main", &[]).unwrap())
            };
            assert_eq!(run(), run(), "chaos reproduces exactly in {mode:?}");
        }
    }

    #[test]
    fn a_wedged_virtual_run_fails_instead_of_hanging() {
        // A grant nobody in the run holds — leaked from outside it —
        // blocks every worker: the driver finds only waiters, and each
        // fails with the typed error.
        let m = machine_for(COUNTER_SRC, 3, ExecMode::Global, Options::default()).unwrap();
        let mut outsider = mglock::Session::new(Arc::clone(&m.mg));
        outsider.to_acquire(mglock::Descriptor::Global {
            access: mglock::Access::Write,
        });
        outsider.acquire_all();
        let err = m.run_threads_virtual("work", 3, |_| vec![5]).unwrap_err();
        assert_eq!(err, InterpError::SchedulerStalled { tid: 0 });
        // Once the grant is back the machine runs as usual.
        outsider.release_all();
        m.run_threads_virtual("work", 3, |_| vec![5]).unwrap();
        assert_eq!(m.run_named("main", &[]).unwrap(), 15);
        assert!(m.locks_quiescent());
    }

    #[test]
    fn fault_injected_survivors_pass_validate_coverage() {
        // The acceptance bar: runs that survive injection still satisfy
        // Theorem 1 — Validate mode re-checks every in-section access.
        let opts = Options {
            faults: Some(FaultPlan::new(0xC07E).with_stalls(150, 400)),
            ..Options::default()
        };
        let m = machine_for(COUNTER_SRC, 3, ExecMode::Validate, opts).unwrap();
        m.run_threads("work", 4, |_| vec![50]).unwrap();
        assert_eq!(m.run_named("main", &[]).unwrap(), 200);
    }
}
