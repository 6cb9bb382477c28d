//! # interp — a concurrent interpreter for transformed programs
//!
//! Executes programs produced by the `lockinfer` pipeline over a shared
//! heap, with three disciplines for atomic sections:
//!
//! * [`ExecMode::Global`] — every section takes one global lock (the
//!   evaluation's baseline column);
//! * [`ExecMode::MultiGrain`] — sections acquire the locks the compiler
//!   inferred, through the `mglock` multi-granularity runtime;
//! * [`ExecMode::Stm`] — sections run as TL2 transactions with local
//!   rollback and retry (the optimistic baseline).
//!
//! Checking is a policy, not a fourth discipline: MultiGrain with the
//! sentinel armed as [`SentinelConfig::validate`] fails on the first
//! in-section access no held grant licenses under Fig. 6 — the
//! empirical check of Theorem 1.
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
mod fault;
mod machine;
mod sched;
mod sentinel;
mod sim;
mod worker;

pub use error::InterpError;
pub use fault::FaultPlan;
pub use machine::{DegradationReport, ExecMode, Machine, Options, RepairSpec};
pub use sched::{PolicyKind, SchedConfig};
pub use sentinel::{Response, SentinelConfig};

// The test support names this crate `interp`, as an integration test
// does.
#[cfg(test)]
extern crate self as interp;
#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod common;

#[cfg(test)]
mod tests {
    use super::*;
    use common::machine_for;
    use std::sync::Arc;

    /// A discipline, and the sentinel policy a run of it is checked by.
    type Run = (ExecMode, Option<SentinelConfig>);

    /// The three disciplines, and MultiGrain under the Theorem-1 checker.
    const ALL_RUNS: [Run; 4] = [
        (ExecMode::Global, None),
        (ExecMode::MultiGrain, None),
        (ExecMode::Stm, None),
        (ExecMode::MultiGrain, Some(SentinelConfig::validate())),
    ];

    /// Default options with `sentinel` armed.
    fn armed(sentinel: Option<SentinelConfig>) -> Options {
        Options {
            sentinel,
            ..Options::default()
        }
    }

    fn run(src: &str, mode: ExecMode) -> i64 {
        run_armed(src, (mode, None))
    }

    fn run_armed(src: &str, (mode, sentinel): Run) -> i64 {
        let m = machine_for(src, 3, mode, armed(sentinel)).unwrap();
        m.run_named("main", &[]).unwrap()
    }

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
        for r in ALL_RUNS {
            assert_eq!(run_armed(src, r), 42, "{r:?}");
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
        for r in ALL_RUNS {
            assert_eq!(run_armed(src, r), 32, "{r:?}");
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
        for (mode, sentinel) in ALL_RUNS {
            let m = machine_for(src, 3, mode, armed(sentinel)).unwrap();
            m.run_threads("work", 8, |_| vec![250]).unwrap();
            assert_eq!(
                m.run_named("main", &[]).unwrap(),
                2000,
                "{mode:?} {sentinel:?}"
            );
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
        for (mode, sentinel) in ALL_RUNS {
            let m = machine_for(src, 3, mode, armed(sentinel)).unwrap();
            m.run_named("setup", &[30]).unwrap();
            m.run_threads("mover", 4, |_| vec![25]).unwrap();
            assert_eq!(
                m.run_named("total", &[]).unwrap(),
                30,
                "elements conserved in {mode:?} {sentinel:?}"
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
            let checked = armed(Some(SentinelConfig::validate()));
            let m = machine_for(src, k, ExecMode::MultiGrain, checked).unwrap();
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
        let checked = armed(Some(SentinelConfig::validate()));
        let m = Machine::new(Arc::new(broken), pt, ExecMode::MultiGrain, checked);
        let err = m.run_named("main", &[]).unwrap_err();
        assert!(
            matches!(err, InterpError::Unprotected { write: true, .. }),
            "{err}"
        );
    }

    #[test]
    fn validate_mode_catches_a_read_lock_guarding_a_write() {
        // The inferred locks with every effect narrowed to `ro`: the
        // read of g is still licensed (S), the write is not — only X
        // licenses writes.
        let src = "global g; fn main() { atomic { g = g + 1; } return g; }";
        for k in [0, 9] {
            let (program, _, mut narrowed) = lockinfer::compile_with_locks(src, k).unwrap();
            let pt = Arc::new(pointsto::PointsTo::analyze(&program));
            let mut specs = 0;
            for ins in narrowed.functions.iter_mut().flat_map(|f| &mut f.body) {
                if let lir::Instr::AcquireAll(_, locks) = ins {
                    for spec in locks {
                        if let lir::LockSpec::Coarse { eff, .. } | lir::LockSpec::Fine { eff, .. } =
                            spec
                        {
                            *eff = lir::Eff::Ro;
                            specs += 1;
                        }
                    }
                }
            }
            assert!(specs > 0, "k={k}: no lock to narrow");
            let m = Machine::new(
                Arc::new(narrowed),
                pt,
                ExecMode::MultiGrain,
                armed(Some(SentinelConfig::validate())),
            );
            let err = m.run_named("main", &[]).unwrap_err();
            assert!(
                matches!(err, InterpError::Unprotected { write: true, .. }),
                "k={k}: {err}"
            );
        }
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
        for r in ALL_RUNS {
            assert_eq!(run_armed(src, r), 11, "{r:?}");
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
            for cell in base..base + 4 {
                assert_eq!(m.extent_class(cell).map(|(b, _)| b), Some(base));
            }
        }
        assert_eq!(m.extent_class(second as u64 + 4), None);
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

    /// The lock disciplines, and MultiGrain under the Theorem-1 checker.
    const LOCK_RUNS: [Run; 3] = [
        (ExecMode::Global, None),
        (ExecMode::MultiGrain, None),
        (ExecMode::MultiGrain, Some(SentinelConfig::validate())),
    ];

    /// A sentinel checks a lock plan: a machine arms none under Global
    /// or STM, where no grant can miss, nor one that samples no access.
    #[test]
    fn only_a_sentinel_that_can_act_is_armed() {
        for (mode, sample_every, arms) in [
            (ExecMode::MultiGrain, 1, true),
            (ExecMode::MultiGrain, 0, false),
            (ExecMode::Global, 1, false),
            (ExecMode::Stm, 1, false),
        ] {
            let sentinel = Some(SentinelConfig {
                sample_every,
                ..SentinelConfig::default()
            });
            let m = machine_for(COUNTER_SRC, 3, mode, armed(sentinel)).unwrap();
            assert_eq!(m.sentinel.is_some(), arms, "{mode:?} {sample_every}");
        }
    }

    #[test]
    fn real_threads_run_the_blocking_walk() {
        // Real-time workers block in `acquire_all`: four OS threads
        // contending on one counter finish with the right count, a
        // clean report and every lock released.
        for (mode, sentinel) in LOCK_RUNS {
            let m = machine_for(COUNTER_SRC, 3, mode, armed(sentinel)).unwrap();
            m.run_threads("work", 4, |_| vec![250]).unwrap();
            assert_eq!(
                m.run_named("main", &[]).unwrap(),
                1000,
                "{mode:?} {sentinel:?}"
            );
            let report = m.degradation_report();
            assert!(report.is_clean(), "{mode:?} {sentinel:?}: {report}");
            assert!(m.locks_quiescent(), "{mode:?} {sentinel:?}");
        }
    }

    #[test]
    fn injected_panic_is_contained_and_releases_locks() {
        for (mode, sentinel) in LOCK_RUNS {
            let opts = Options {
                faults: Some(FaultPlan::new(0xBAD).with_panics(200, 1)),
                ..armed(sentinel)
            };
            let m = machine_for(COUNTER_SRC, 3, mode, opts).unwrap();
            let err = m.run_threads("work", 4, |_| vec![200]).unwrap_err();
            assert!(
                matches!(err, InterpError::InjectedPanic { .. }),
                "{mode:?} {sentinel:?}: {err}"
            );
            assert!(
                m.locks_quiescent(),
                "{mode:?} {sentinel:?}: locks leaked past a panic"
            );
            assert!(
                m.mg_stats()
                    .poisoned_sessions
                    .load(std::sync::atomic::Ordering::Relaxed)
                    > 0
            );
            // The machine stays usable after the contained panics.
            assert!(
                m.run_named("main", &[]).unwrap() >= 0,
                "{mode:?} {sentinel:?}"
            );
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
        let injected = m.degradation_report().injected_aborts;
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
        // Theorem 1 — the checker re-checks every in-section access.
        let opts = Options {
            faults: Some(FaultPlan::new(0xC07E).with_stalls(150, 400)),
            ..armed(Some(SentinelConfig::validate()))
        };
        let m = machine_for(COUNTER_SRC, 3, ExecMode::MultiGrain, opts).unwrap();
        m.run_threads("work", 4, |_| vec![50]).unwrap();
        assert_eq!(m.run_named("main", &[]).unwrap(), 200);
    }

    #[test]
    fn every_entry_point_checks_the_argument_count() {
        // `work` takes one argument; three, or none, do not fit under
        // either scheduler, and no thread runs.
        let m = machine_for(COUNTER_SRC, 3, ExecMode::MultiGrain, Options::default()).unwrap();
        let mismatch = |got| InterpError::ArityMismatch {
            func: "work".into(),
            want: 1,
            got,
        };
        for argv in [vec![5, 6, 7], vec![]] {
            let got = argv.len();
            let virt = m.run_threads_virtual("work", 2, |_| argv.clone());
            assert_eq!(virt.unwrap_err(), mismatch(got));
            let real = m.run_threads("work", 2, |_| argv.clone());
            assert_eq!(real.unwrap_err(), mismatch(got));
            assert_eq!(m.run_named("work", &argv).unwrap_err(), mismatch(got));
        }
        // One thread's misfit fails the whole run before it starts.
        let odd = |tid| if tid == 1 { vec![] } else { vec![5] };
        assert_eq!(
            m.run_threads_virtual("work", 3, odd).unwrap_err(),
            mismatch(0)
        );
        assert_eq!(m.run_named("main", &[]).unwrap(), 0);
        assert_eq!(
            m.run_threads_virtual("missing", 2, |_| vec![]).unwrap_err(),
            InterpError::NoSuchFunction("missing".into())
        );
    }
}
