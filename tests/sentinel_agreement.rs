//! The sentinel and the offline validator agree on every miss
//! (DESIGN.md §5.5): a fully armed sentinel (`sample_every = 1`) counts
//! exactly the violations `trace::validate` finds in the same run's
//! trace. The sentinel keeps only that count; the trace is the record
//! re-inference diagnoses, so a sentinel that missed what the validator
//! finds would quarantine less than re-inference repairs.
//!
//! Two kinds of unsound plan are run on three Table 2 programs at
//! 8 threads: a lock spec dropped by [`WeakenPlan`] (nothing held
//! covers the cell) and section 0's `rw` specs narrowed to `ro` (a
//! write under a grant that licenses only reads). The narrowed runs are
//! the positive control for the effect half of the predicate: a
//! sentinel that ignored the access's effect would let every such
//! write through and count none of them.

use atomic_lock_inference as ali;

use ali::interp::{ExecMode, Machine, Options, SentinelConfig};
use ali::lir::{Eff, Instr, LockSpec, Program};
use ali::replay::WeakenPlan;
use ali::workloads::{micro, stamp, Contention, RunSpec};
use std::sync::Arc;

const THREADS: usize = 8;

/// Turns every `rw` spec of section 0's `acquireAll` into `ro`.
fn narrow_section_0(program: &mut Program) {
    for ins in program.functions.iter_mut().flat_map(|f| &mut f.body) {
        if let Instr::AcquireAll(sid, specs) = ins {
            if sid.0 != 0 {
                continue;
            }
            for spec in specs {
                if let LockSpec::Coarse { eff, .. } | LockSpec::Fine { eff, .. } = spec {
                    *eff = Eff::Ro;
                }
            }
        }
    }
}

/// Runs `spec` at `k` under MultiGrain with a fully armed quarantine
/// sentinel after `unsound` rewrites the transformed program, and
/// returns `(sentinel's count, validator's violations)`.
fn counts(spec: &RunSpec, k: usize, unsound: impl FnOnce(&mut Program)) -> (u64, usize) {
    let (program, _, mut transformed) =
        ali::lockinfer::compile_with_locks(&spec.source, k).expect("the workload compiles");
    unsound(&mut transformed);
    let pt = Arc::new(ali::pointsto::PointsTo::analyze(&program));
    let opts = Options {
        heap_cells: spec.heap_cells,
        sentinel: Some(SentinelConfig::default()),
        trace: Some(ali::trace::TraceConfig::default()),
        ..Options::default()
    };
    let m = Machine::new(Arc::new(transformed), pt, ExecMode::MultiGrain, opts);
    m.run_named(spec.init.0, &spec.init.1).expect("init");
    m.run_threads_virtual(spec.worker.0, THREADS, |_| spec.worker.1.clone())
        .expect("an unsound plan still runs to the end");
    let trace = m.take_trace().expect("tracing on");
    let validated = ali::trace::validate(&trace).expect("the trace dropped nothing");
    (
        m.degradation_report().sentinel_violations,
        validated.violations.len(),
    )
}

/// Asserts on three Table 2 programs that `unsound` draws violations
/// and that the sentinel counts each of them.
fn assert_agreement(unsound: impl Fn(&mut Program)) {
    let programs = [
        (micro::hashtable2(Contention::High, 60, 5), 9),
        (stamp::genome(60, 5), 9),
        (stamp::kmeans(60, 5), 3),
    ];
    let got: Vec<(String, u64, u64)> = programs
        .iter()
        .map(|(spec, k)| {
            let (counted, found) = counts(spec, *k, &unsound);
            (spec.name.clone(), counted, found as u64)
        })
        .collect();
    assert!(
        got.iter()
            .all(|&(_, counted, found)| found > 0 && counted == found),
        "(program, sentinel, validator): {got:?}"
    );
}

#[test]
fn the_sentinel_counts_every_violation_of_a_dropped_spec() {
    let weaken = WeakenPlan {
        section: 0,
        drop_index: 0,
    };
    assert_agreement(|p| {
        weaken.apply(p).expect("section 0 plans a lock");
    });
}

#[test]
fn the_sentinel_counts_every_violation_of_a_narrowed_mode() {
    assert_agreement(narrow_section_0);
}
