//! Theorem 1, empirically: run a workload under its inferred locks with
//! the checker armed — a sentinel whose policy checks every heap access
//! inside an atomic section and fails the run on the first one no lock
//! grant the section holds licenses under Fig. 6 — then sabotage the
//! transformation and watch the checker flag the hole.
//!
//! ```text
//! cargo run --example validate_soundness
//! ```

use atomic_lock_inference::{interp, lockinfer, pointsto, workloads};
use interp::{ExecMode, InterpError, Machine, Options, SentinelConfig};
use lir::{Instr, LockSpec};
use std::sync::Arc;
use workloads::Contention;

fn main() {
    let spec = workloads::micro::list(Contention::High, 300, 0);
    let program = lir::compile(&spec.source).expect("compiles");
    let pt = Arc::new(pointsto::PointsTo::analyze(&program));
    let cfg = lockscheme::SchemeConfig::full(9, program.elem_field_opt());
    let analysis = lockinfer::analyze_program(&program, &pt, cfg);
    let transformed = lockinfer::transform(&program, &analysis);

    // 1. The inferred locks pass the Theorem-1 checker.
    let checked = || Options {
        sentinel: Some(SentinelConfig::validate()),
        ..Options::default()
    };
    let machine = Machine::new(
        Arc::new(transformed.clone()),
        Arc::clone(&pt),
        ExecMode::MultiGrain,
        checked(),
    );
    let (init_fn, init_args) = &spec.init;
    machine
        .run_named(init_fn, init_args)
        .expect("init validates");
    let (worker_fn, worker_args) = &spec.worker;
    machine
        .run_threads(worker_fn, 4, |_| worker_args.clone())
        .expect("workers validate");
    machine.run_named("check", &[]).expect("invariants hold");
    println!("inferred locks cover every access inside every section ✓");

    // 2. Sabotage: drop the coarse locks from one acquireAll and run
    //    the same workload — the checker reports the first unprotected
    //    access with its location.
    let mut broken = transformed;
    let mut removed = 0;
    'outer: for func in &mut broken.functions {
        for ins in &mut func.body {
            if let Instr::AcquireAll(_, specs) = ins {
                let before = specs.len();
                specs.retain(|s| matches!(s, LockSpec::Fine { .. }));
                removed = before - specs.len();
                if removed > 0 {
                    break 'outer;
                }
            }
        }
    }
    println!("sabotaged the first section: removed {removed} coarse lock(s)");
    let machine = Machine::new(Arc::new(broken), pt, ExecMode::MultiGrain, checked());
    // The prefill already exercises the sabotaged section, so the very
    // first run trips the checker.
    let err = machine
        .run_named(init_fn, init_args)
        .err()
        .or_else(|| {
            machine
                .run_threads(worker_fn, 1, |_| worker_args.clone())
                .err()
        })
        .expect("the checker must catch the hole");
    match &err {
        InterpError::Unprotected {
            func,
            pc,
            addr,
            write,
            section,
        } => {
            println!(
                "checker caught it: unprotected {} of cell {addr} in `{func}` \
                 at instruction {pc} (section #{})",
                if *write { "write" } else { "read" },
                section.0
            );
        }
        other => println!("checker reported: {other}"),
    }
}
