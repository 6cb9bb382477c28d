//! Corpus regression tests: recorded `ali-trace-v1` traces under
//! `tests/corpus/` are replayed from scratch and every byte of behavior
//! is re-checked.
//!
//! Each corpus file embeds its full run configuration (workload source,
//! mode, k, threads, fault plan), so `replay::replay` rebuilds the
//! program, re-runs the inference + transformation + scheduler
//! pipeline, and must reproduce the exact recorded event stream. A
//! digest mismatch means some layer of the stack stopped being
//! deterministic — or changed behavior — without the corpus being
//! regenerated on purpose. The recorded locksets are also re-validated
//! against the Eraser-style discipline on every run.

use atomic_lock_inference::interp::{ExecMode, SentinelConfig, WeakenPlan};
use atomic_lock_inference::replay;

fn corpus_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

fn corpus_files() -> Vec<std::path::PathBuf> {
    let mut files: Vec<_> = std::fs::read_dir(corpus_dir())
        .expect("tests/corpus exists")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    assert!(
        files.len() >= 2,
        "corpus should hold the recorded traces, found {files:?}"
    );
    files
}

/// Every corpus trace replays to an identical digest.
#[test]
fn corpus_traces_replay_byte_identically() {
    for path in corpus_files() {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&path).unwrap();
        let t = trace::Trace::from_json(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let rec = replay::replay(&t).unwrap_or_else(|e| panic!("{name}: replay failed: {e}"));
        assert_eq!(
            t.digest(),
            rec.trace.digest(),
            "{name}: replay digest diverged from the recorded trace"
        );
    }
}

/// The canonical JSON encoding round-trips exactly, so digests diffed
/// across tool versions compare the same bytes.
#[test]
fn corpus_traces_round_trip_through_json() {
    for path in corpus_files() {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&path).unwrap();
        let t = trace::Trace::from_json(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(t.to_json(), text, "{name}: canonical encoding changed");
    }
}

/// Each lock-mode corpus run re-recorded with the sentinel armed and a
/// seeded weaken fault (`--sentinel --weaken 0:0`) is just as
/// deterministic as the clean original: the armed twin replays to its
/// own digest byte for byte — quarantine ladder, violation sampling
/// and all — and at least one workload actually trips the ladder, so
/// the armed path is exercised, not just tolerated. The pristine
/// corpus files themselves are untouched: clean-run digests stay the
/// regression anchor.
#[test]
fn corpus_runs_replay_deterministically_when_armed_and_weakened() {
    let mut tripped = 0u32;
    for path in corpus_files() {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&path).unwrap();
        let t = trace::Trace::from_json(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let mut cfg = replay::RunConfig::from_trace(&t).unwrap_or_else(|e| panic!("{name}: {e}"));
        if cfg.mode != ExecMode::MultiGrain {
            continue; // no inferred locks to weaken under Global/Stm
        }
        cfg.name.push_str("-armed");
        cfg.sentinel = Some(SentinelConfig::default());
        cfg.weaken = Some(WeakenPlan {
            section: 0,
            drop_index: 0,
        });
        let rec = replay::record(&cfg).unwrap_or_else(|e| panic!("{name}: armed record: {e}"));
        assert!(
            rec.outcome.error.is_none(),
            "{name}: armed run errored: {:?}",
            rec.outcome.error
        );
        let again =
            replay::replay(&rec.trace).unwrap_or_else(|e| panic!("{name}: armed replay: {e}"));
        assert_eq!(
            rec.trace.digest(),
            again.trace.digest(),
            "{name}: armed+weakened replay digest diverged"
        );
        assert_eq!(rec.outcome, again.outcome, "{name}: armed outcome diverged");
        tripped += u32::from(trace::quarantine_history(&rec.trace).demotions() > 0);
    }
    assert!(
        tripped > 0,
        "no lock-mode corpus workload tripped the quarantine ladder"
    );
}

/// Recorded locksets still satisfy the validation discipline.
#[test]
fn corpus_traces_pass_lockset_validation() {
    for path in corpus_files() {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&path).unwrap();
        let t = trace::Trace::from_json(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let v = trace::validate(&t).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(v.passed(), "{name}: {:?}", v.violations);
    }
}
