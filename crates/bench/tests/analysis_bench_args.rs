//! `analysis-bench` refuses a command line it does not understand
//! before it runs anything: a mistyped flag must not run the full
//! benchmark and overwrite the report in the working directory. A run
//! it does understand writes a report only to the `--out` file.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh, empty working directory for one case.
fn workdir(case: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("analysis-bench-{case}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the working directory");
    dir
}

fn run(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_analysis-bench"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("analysis-bench runs")
}

fn files(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("read the working directory")
        .map(|e| {
            e.expect("an entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    names.sort();
    names
}

#[test]
fn a_bad_command_line_prints_the_usage_and_writes_nothing() {
    for (case, args) in [
        ("help", &["--help"][..]),
        ("typo", &["--smoke", "--chek", "BENCH_analysis.json"]),
        ("out-without-file", &["--smoke", "--out"]),
        ("out-then-flag", &["--out", "--smoke"]),
        ("check-without-file", &["--check"]),
    ] {
        let dir = workdir(case);
        let out = run(&dir, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?}: ran before refusing");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.ends_with("usage: analysis-bench [--smoke] [--out FILE] [--check FILE]\n"),
            "{args:?}: {stderr}"
        );
        assert_eq!(files(&dir), Vec::<String>::new(), "{args:?}");
    }
}

#[test]
fn a_bad_check_file_is_one_line_and_exit_1() {
    let dir = workdir("bad-check");
    std::fs::write(dir.join("garbled.json"), "{\"tiers\": [").expect("write the file");
    for file in ["missing.json", "garbled.json"] {
        let out = run(&dir, &["--smoke", "--check", file]);
        assert_eq!(out.status.code(), Some(1), "{file}: {out:?}");
        assert!(out.stdout.is_empty(), "{file}: ran before refusing");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.starts_with(&format!("analysis-bench: --check {file}: ")),
            "{file}: {stderr}"
        );
        assert_eq!(stderr.lines().count(), 1, "{file}: {stderr}");
    }
    assert_eq!(files(&dir), ["garbled.json"]);
}

/// A smoke run without `--out` (about 7 s in a debug build) prints its
/// table and leaves the working directory as it found it: the committed
/// report is written only when a file is named.
#[test]
fn a_run_without_out_writes_nothing() {
    let dir = workdir("no-out");
    let out = run(&dir, &["--smoke"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(!out.stdout.is_empty(), "the smoke run printed nothing");
    assert_eq!(files(&dir), Vec::<String>::new());
}
