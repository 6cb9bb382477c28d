//! The end-of-run gauges `trace-dump record --metrics` writes, held to
//! pins taken through this command line, so a change to how the
//! gauges are collected cannot move them:
//!
//! * `golden/run_gauges_cli.txt`: all thirteen gauges of eleven
//!   recordings. The snapshot carries the six no trace counts, at their
//!   pinned values; the seven a trace counts are no longer written, and
//!   equal that series of `trace-dump metrics`.
//! * `golden/record_hashtable2_multigrain.metrics.json`: the whole
//!   `--metrics` file of one recording, which is now that file less the
//!   seven traced gauges.
//!
//! The pins are the values of the metrics registry that collected
//! these gauges before a recording carried them; do not re-pin them.
//! `tests/run_gauges.rs` in the root package covers injected panics
//! and STM fallbacks, which no flag makes.

use std::path::Path;
use std::process::Command;
use trace::json::{parse, Value};

/// The recordings, by pin label: every runtime at 1 and 8 threads,
/// `th` with its rehash revalidations, a weakened sentinel run that
/// quarantines and heals, and the `--faults` preset under both kinds
/// of runtime.
const RUNS: [(&str, &[&str]); 11] = [
    (
        "global-t1",
        &["hashtable2", "--mode", "global", "--threads", "1"],
    ),
    (
        "global-t8",
        &["hashtable2", "--mode", "global", "--threads", "8"],
    ),
    (
        "multigrain-t1",
        &["hashtable2", "--mode", "multigrain", "--threads", "1"],
    ),
    (
        "multigrain-t8",
        &["hashtable2", "--mode", "multigrain", "--threads", "8"],
    ),
    ("stm-t1", &["hashtable2", "--mode", "stm", "--threads", "1"]),
    ("stm-t8", &["hashtable2", "--mode", "stm", "--threads", "8"]),
    (
        "th-multigrain",
        &[
            "th",
            "--mode",
            "multigrain",
            "--threads",
            "8",
            "--contention",
            "high",
        ],
    ),
    (
        "weaken-multigrain",
        &["hashtable2", "--mode", "multigrain", "--weaken", "0:0"],
    ),
    (
        "faults-multigrain",
        &["hashtable2", "--mode", "multigrain", "--faults"],
    ),
    (
        "faults-stm",
        &["hashtable2", "--mode", "stm", "--threads", "8", "--faults"],
    ),
    ("kmeans-stm", &["kmeans", "--mode", "stm", "--threads", "8"]),
];

/// Each gauge that a trace also counts: the derived series, and the
/// `kind` label it is read at (`None`: summed over its labels).
const AGREEMENT: [(&str, &str, Option<&str>); 7] = [
    (
        "ali_run_mg_batches",
        "ali_trace_events_total",
        Some("plan_complete"),
    ),
    (
        "ali_run_mg_node_acquisitions",
        "ali_lock_acquires_total",
        None,
    ),
    (
        "ali_run_stm_commits",
        "ali_trace_events_total",
        Some("stm_commit"),
    ),
    (
        "ali_run_stm_aborts",
        "ali_trace_events_total",
        Some("stm_abort"),
    ),
    (
        "ali_run_stm_fallbacks",
        "ali_trace_events_total",
        Some("stm_fallback"),
    ),
    (
        "ali_run_sections_quarantined",
        "ali_quarantine_demotions_total",
        None,
    ),
    (
        "ali_run_sections_healed",
        "ali_quarantine_heals_total",
        None,
    ),
];

/// Runs `trace-dump`; a recording whose lockset validation fails (the
/// weakened run) exits 1 and is still written.
fn trace_dump(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_trace-dump"))
        .args(args)
        .output()
        .expect("trace-dump runs");
    assert!(
        matches!(out.status.code(), Some(0 | 1)),
        "trace-dump {args:?}: {out:?}"
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// Records `args` with `--metrics` and `--out` into `dir`; returns the
/// metrics file's text and the snapshot `trace-dump metrics` derives
/// from the trace file.
fn record(dir: &Path, label: &str, args: &[&str]) -> (String, Value) {
    let metrics = dir.join(format!("run-gauges-{label}.metrics.json"));
    let trace = dir.join(format!("run-gauges-{label}.trace.json"));
    let (metrics, trace) = (metrics.to_str().unwrap(), trace.to_str().unwrap());
    let mut full = vec!["record"];
    full.extend_from_slice(args);
    full.extend_from_slice(&["--metrics", metrics, "--out", trace]);
    trace_dump(&full);
    let text = std::fs::read_to_string(metrics).expect("the snapshot was written");
    let derived = parse(&trace_dump(&["metrics", trace]), 5).expect("a canonical snapshot");
    (text, derived)
}

/// `(name, first label value, value)` of every counter or gauge.
fn scalars(snapshot: &Value) -> Vec<(String, Option<String>, u64)> {
    let mut out = Vec::new();
    for kind in ["counters", "gauges"] {
        for s in snapshot
            .field(kind)
            .and_then(|s| s.as_arr(kind))
            .expect(kind)
        {
            let s = s.as_arr("series").expect("a series");
            let labels = s[1].as_arr("labels").expect("labels");
            let label = labels.first().map(|l| {
                l.as_arr("label").expect("a label pair")[1]
                    .as_str("label value")
                    .expect("a string")
                    .to_owned()
            });
            let name = s[0].as_str("name").expect("a name").to_owned();
            out.push((name, label, s[2].as_u64("value").expect("a count")));
        }
    }
    out
}

/// `label name=value …` lines of `golden/<file>`.
fn pins(file: &str) -> Vec<(String, Vec<(String, u64)>)> {
    let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{path}: {e}"))
        .lines()
        .map(|line| {
            let mut words = line.split(' ');
            let label = words.next().expect("a label").to_owned();
            let gauges = words
                .map(|w| {
                    let (name, v) = w.split_once('=').expect("name=value");
                    (name.to_owned(), v.parse().expect("a count"))
                })
                .collect();
            (label, gauges)
        })
        .collect()
}

#[test]
fn run_gauges_match_their_pins_and_trace_series() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let pins = pins("run_gauges_cli.txt");
    for (label, args) in RUNS {
        let (text, derived) = record(dir, label, args);
        let carried: Vec<(String, u64)> = scalars(&parse(&text, 5).expect("a canonical snapshot"))
            .into_iter()
            .filter(|(name, _, _)| name.starts_with("ali_run_"))
            .map(|(name, _, v)| (name, v))
            .collect();
        let line: Vec<String> = carried.iter().map(|(n, v)| format!("{n}={v}")).collect();
        let pinned = &pins
            .iter()
            .find(|(l, _)| l == label)
            .unwrap_or_else(|| panic!("no pin for `{label} {}`", line.join(" ")))
            .1;
        let pin = |name: &str| {
            pinned
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .unwrap_or_else(|| panic!("{label}: {name} is not pinned"))
        };
        // The snapshot carries exactly the pinned gauges no trace
        // counts, at their pinned values.
        let untraced: Vec<(String, u64)> = pinned
            .iter()
            .filter(|(n, _)| AGREEMENT.iter().all(|&(g, _, _)| g != n))
            .cloned()
            .collect();
        assert_eq!(carried, untraced, "{label}");
        let derived = scalars(&derived);
        for (gauge, series, kind) in AGREEMENT {
            let v: u64 = derived
                .iter()
                .filter(|(name, l, _)| name == series && (kind.is_none() || l.as_deref() == kind))
                .map(|&(_, _, v)| v)
                .sum();
            assert_eq!(v, pin(gauge), "{label}: {gauge}'s trace series {series}");
        }
    }
}

/// The pinned bytes of `record hashtable2 --mode multigrain --metrics`,
/// less the seven gauges a trace also counts: each left the file as
/// one `["name",[],value],` series, and nothing else changed.
#[test]
fn record_metrics_bytes_are_the_pin_less_the_traced_gauges() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let (text, _) = record(dir, "bytes", &["hashtable2", "--mode", "multigrain"]);
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/record_hashtable2_multigrain.metrics.json"
    );
    let mut want = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    for (gauge, _, _) in AGREEMENT {
        let key = format!("[\"{gauge}\",[],");
        let at = want
            .find(&key)
            .unwrap_or_else(|| panic!("{gauge} is not in the pin"));
        let value = at + key.len();
        let end = value
            + want[value..]
                .find("],")
                .expect("a series followed by another")
            + 2;
        want.replace_range(at..end, "");
    }
    assert_eq!(text, want);
}
