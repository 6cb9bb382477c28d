//! `trace-dump record` refuses a weaken plan that would drop nothing —
//! a section the program does not have, an index past the section's
//! lock specs, or any plan under STM — and a sentinel outside
//! MultiGrain with one line and exit 1, before it records or writes
//! anything; `adapt` and `reinfer` refuse a run the same way.

use std::path::PathBuf;
use std::process::Command;

#[test]
fn a_weaken_plan_that_drops_nothing_is_one_line_and_exit_1() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("trace-dump-weaken");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the working directory");
    for (weaken, mode, why) in [
        ("99:0", "multigrain", "no section 99 plans any"),
        ("0:99", "multigrain", "section 0 plans 3"),
        ("0:0", "stm", "Stm plans none"),
    ] {
        let args = [
            "record",
            "list",
            "--threads",
            "2",
            "--ops",
            "20",
            "--mode",
            mode,
            "--weaken",
            weaken,
            "--out",
            "t.json",
        ];
        let out = Command::new(env!("CARGO_BIN_EXE_trace-dump"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("trace-dump runs");
        assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?}: recorded before refusing");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            format!(
                "trace-dump: run: bad `weaken` {weaken}: it names no lock spec to drop ({why})\n"
            ),
            "{args:?}"
        );
        assert!(!dir.join("t.json").exists(), "{args:?}: wrote a trace");
    }
}

/// A sentinel checks a lock plan: `record --sentinel` under a mode that
/// plans none is refused the same way, one line and exit 1.
#[test]
fn a_sentinel_outside_multigrain_is_one_line_and_exit_1() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("trace-dump-sentinel");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the working directory");
    for (mode, name) in [("global", "Global"), ("stm", "Stm")] {
        let args = [
            "record",
            "list",
            "--threads",
            "2",
            "--ops",
            "20",
            "--mode",
            mode,
            "--sentinel",
            "--out",
            "t.json",
        ];
        let out = Command::new(env!("CARGO_BIN_EXE_trace-dump"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("trace-dump runs");
        assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?}: recorded before refusing");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            format!(
                "trace-dump: run: bad `sentinel`: it checks a lock plan, and {name} plans none\n"
            ),
            "{args:?}"
        );
        assert!(!dir.join("t.json").exists(), "{args:?}: wrote a trace");
    }
}

/// The loops enter by the same door: `adapt` and `reinfer` print a
/// configuration the run refuses as one line and exit 1, as `record`
/// does, while a flag they do not know stays a usage error, exit 2.
#[test]
fn the_loops_refuse_a_run_with_one_line_and_exit_1() {
    for (args, code, line) in [
        (
            &["reinfer", "list", "--threads", "0"][..],
            1,
            "trace-dump: run: bad `threads`: 0 runs nothing, a run needs at least one\n",
        ),
        (
            &["reinfer", "list", "--mode", "stm"][..],
            1,
            "trace-dump: run: bad `sentinel`: it checks a lock plan, and Stm plans none\n",
        ),
        (
            &["adapt", "list", "--threads", "0"][..],
            1,
            "trace-dump: run: bad `threads`: 0 runs nothing, a run needs at least one\n",
        ),
        (
            &["reinfer", "list", "--bogus"][..],
            2,
            "trace-dump: reinfer: unknown flag `--bogus`\n",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_trace-dump"))
            .args(args)
            .output()
            .expect("trace-dump runs");
        assert_eq!(out.status.code(), Some(code), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?}: ran before refusing");
        assert_eq!(String::from_utf8_lossy(&out.stderr), line, "{args:?}");
    }
}
