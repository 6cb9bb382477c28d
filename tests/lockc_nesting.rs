//! `lockc` at its doors: a source nested past the parser's bound exits
//! 1 with a parse error on every path that reads source, where it used
//! to abort with a stack overflow (exit 134); and a run size a recording
//! refuses exits 1 with a one-line error, where it used to panic
//! (exit 101) or abort on the allocation (exit 134). An argument list
//! the entry function does not take exits 1 with a one-line error on
//! every scheduler, where `--virtual` used to run it anyway. `--mode`
//! takes the names `trace-dump` takes, `mg` included, through the same
//! parser.

use std::path::Path;
use std::process::Command;

#[test]
fn lockc_rejects_over_deep_sources_with_a_message() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let sources = [
        (
            "parens",
            format!(
                "fn f(x) {{ return {}x{}; }}",
                "(".repeat(5_000),
                ")".repeat(5_000)
            ),
        ),
        (
            "negations",
            format!("fn f(x) {{ return {}x; }}", "-".repeat(200_000)),
        ),
        (
            "blocks",
            format!(
                "fn f() {{ {}{} }}",
                "{".repeat(100_000),
                "}".repeat(100_000)
            ),
        ),
        (
            "sum",
            format!("fn f(x) {{ return x{}; }}", " + x".repeat(100_000)),
        ),
    ];
    for (name, src) in sources {
        let path = dir.join(format!("lockc_nesting_{name}.atc"));
        std::fs::write(&path, src).unwrap();
        for emit in ["locks", "fmt"] {
            let out = Command::new(env!("CARGO_BIN_EXE_lockc"))
                .args([path.to_str().unwrap(), "--emit", emit])
                .output()
                .expect("lockc runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{name} --emit {emit}: {stderr}");
            assert_eq!(
                stderr.trim_end(),
                "error: parse error on line 1: nesting deeper than 256 levels",
                "{name} --emit {emit}"
            );
        }
    }
}

#[test]
fn lockc_refuses_run_sizes_a_recording_refuses() {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("lockc_run_size.atc");
    std::fs::write(&path, "global c;\nfn main() { c = 1; return c; }\n").unwrap();
    for (args, message) in [
        (
            &["--heap", "0"][..],
            "error: run: heap_cells = 0 cannot hold the program's 1 globals",
        ),
        (
            &["--heap", "99999999999999"][..],
            "error: run: bad `heap_cells`: 99999999999999 exceeds the limit of 67108864",
        ),
        (
            &["--threads", "100000000", "--virtual"][..],
            "error: run: bad `threads`: 100000000 exceeds the limit of 1024",
        ),
        (
            &["--threads", "0", "--virtual"][..],
            "error: run: bad `threads`: 0 runs nothing, a run needs at least one",
        ),
        (
            &["--threads", "0"][..],
            "error: run: bad `threads`: 0 runs nothing, a run needs at least one",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_lockc"))
            .arg(&path)
            .args(["--run", "main"])
            .args(args)
            .output()
            .expect("lockc runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            !stdout.contains("panicked") && !stderr.contains("panicked"),
            "{args:?}: {stderr}"
        );
        assert_eq!(stderr.trim_end(), message, "{args:?}");
    }
}

#[test]
fn lockc_checks_the_argument_count_on_every_scheduler() {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("lockc_arity.atc");
    std::fs::write(
        &path,
        "global c;\nfn worker(n) { atomic { c = c + n; } return n; }\n",
    )
    .unwrap();
    for (args, got) in [(&["--args", "5,6,7"][..], 3), (&[][..], 0)] {
        for scheduler in [&["--virtual"][..], &[][..]] {
            let out = Command::new(env!("CARGO_BIN_EXE_lockc"))
                .arg(&path)
                .args(["--run", "worker", "--threads", "2"])
                .args(args)
                .args(scheduler)
                .output()
                .expect("lockc runs");
            let label = format!("{args:?} {scheduler:?}");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{label}: {stdout}{stderr}");
            assert!(!stdout.contains("returned"), "{label}: {stdout}");
            assert_eq!(
                stderr.trim_end(),
                format!("error: `worker` expects 1 arguments, got {got}"),
                "{label}"
            );
        }
    }
}

#[test]
fn lockc_reads_mode_names_as_the_bench_binaries_do() {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("lockc_modes.atc");
    std::fs::write(
        &path,
        "global c;\nfn main() { atomic { c = c + 2; } return c; }\n",
    )
    .unwrap();
    let run = |mode: &str| {
        Command::new(env!("CARGO_BIN_EXE_lockc"))
            .arg(&path)
            .args(["--run", "main", "--mode", mode])
            .output()
            .expect("lockc runs")
    };
    let multigrain = run("multigrain");
    assert_eq!(multigrain.status.code(), Some(0), "{multigrain:?}");
    for mode in ["mg", "global", "stm", "validate"] {
        let out = run(mode);
        assert_eq!(out.status.code(), Some(0), "--mode {mode}: {out:?}");
        if mode == "mg" {
            assert_eq!(out.stdout, multigrain.stdout, "mg is multigrain");
        }
    }
    let out = run("fine");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).starts_with("error: unknown mode `fine`"));
}
