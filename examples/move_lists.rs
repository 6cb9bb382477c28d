//! The paper's running example (Figure 1): `move` between two linked
//! lists — the classic case where naive fine-grain locking deadlocks
//! (`move(l1,l2) ∥ move(l2,l1)`) and the inferred multi-grain locks
//! don't.
//!
//! Prints the Figure 1(c) lock set — fine locks on `&(to->head)` and
//! `&(from->head)` plus the coarse element lock `E` — then runs the
//! symmetric movers under all three execution disciplines, plus the
//! multi-grain locks again with the Theorem-1 checker armed.
//!
//! ```text
//! cargo run --example move_lists
//! ```

use atomic_lock_inference::{interp, lockinfer, pointsto};
use interp::{ExecMode, Machine, Options, SentinelConfig};
use std::sync::Arc;

const SRC: &str = r#"
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

    // Figure 1(a), verbatim modulo syntax.
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

fn main() {
    let (program, analysis, transformed) =
        lockinfer::compile_with_locks(SRC, 3).expect("figure 1 compiles");

    println!("=== Figure 1(c): locks inferred for move_'s atomic section ===");
    print!("{}", analysis.render(&program));
    println!();
    println!("(compare the paper: fine locks on to->head and from->head, and");
    println!(" one coarse lock E over all list elements — the unbounded");
    println!(" traversal cannot be protected by finitely many expressions)");
    println!();

    let elements = 40;
    for (mode, sentinel) in [
        (ExecMode::Global, None),
        (ExecMode::MultiGrain, None),
        (ExecMode::Stm, None),
        (ExecMode::MultiGrain, Some(SentinelConfig::validate())),
    ] {
        let pt = Arc::new(pointsto::PointsTo::analyze(&program));
        let opts = Options {
            sentinel,
            ..Options::default()
        };
        let machine = Machine::new(Arc::new(transformed.clone()), pt, mode, opts);
        machine.run_named("setup", &[elements]).expect("setup");
        machine
            .run_threads("mover", 4, |_| vec![50])
            .expect("movers");
        let total = machine.run_named("total", &[]).expect("total");
        println!(
            "{mode:?}{}: 4 symmetric movers × 50 rounds — {total} elements survive \
             (expected {elements}) {}",
            if sentinel.is_some() { " (checked)" } else { "" },
            if total == elements { "✓" } else { "✗" }
        );
        assert_eq!(total, elements);
    }
    println!();
    println!("No deadlock, no lost elements: the acquireAll protocol orders");
    println!("all locks globally, so the symmetric movers cannot interlock the");
    println!("way Figure 1(b)'s incremental fine-grain locking does.");
}
