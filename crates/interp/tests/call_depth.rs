//! Call depth is bounded by `MAX_CALL_DEPTH` (4 000 frames), and the
//! bound is the interpreter's own: frames live in the worker, not on
//! the host stack, so neither a deep recursion nor the refusal of a
//! deeper one depends on how much stack the calling thread has.

use interp::{ExecMode, InterpError, Machine, Options};

/// `down(n)` stacks `n + 1` frames.
const SRC: &str = r#"
    fn down(n) {
        if (n == 0) { return 7; }
        return down(n - 1) + 1;
    }
"#;

const DEEPEST: i64 = 3_999;
const TOO_DEEP: i64 = 4_001;

fn machine() -> Machine {
    interp::machine_for(SRC, 3, ExecMode::Global, Options::default()).expect("fixture compiles")
}

fn assert_overflow(r: Result<impl std::fmt::Debug, InterpError>) {
    match r {
        Err(InterpError::Fault { func, detail, .. }) => {
            assert_eq!(
                (func.as_str(), detail.as_str()),
                ("down", "call stack overflow")
            );
        }
        other => panic!("expected the typed overflow fault, got {other:?}"),
    }
}

#[test]
fn the_bound_holds_on_the_calling_thread() {
    let m = machine();
    assert_eq!(m.run_named("down", &[DEEPEST]), Ok(7 + DEEPEST));
    assert_overflow(m.run_named("down", &[TOO_DEEP]));
}

#[test]
fn the_bound_holds_on_spawned_threads() {
    let m = machine();
    assert_eq!(
        m.run_threads("down", 2, |_| vec![DEEPEST]),
        Ok(vec![7 + DEEPEST; 2])
    );
    assert_overflow(m.run_threads("down", 2, |_| vec![TOO_DEEP]));
}

#[test]
fn the_bound_holds_for_eight_virtual_threads() {
    let m = machine();
    let (results, makespan) = m
        .run_threads_virtual("down", 8, |_| vec![DEEPEST])
        .expect("4 000 frames fit");
    assert_eq!(results, vec![7 + DEEPEST; 8]);
    assert!(makespan > 0);
    // One thread too deep fails the run; the other seven finish.
    assert_overflow(m.run_threads_virtual("down", 8, |tid| {
        vec![if tid == 3 { TOO_DEEP } else { DEEPEST }]
    }));
}
