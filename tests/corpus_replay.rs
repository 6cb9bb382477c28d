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

use atomic_lock_inference::interp::{ExecMode, SentinelConfig};
use atomic_lock_inference::replay::{self, WeakenPlan};

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

/// What decoding each hostile spelling of one event, written in place
/// of the first lock acquisition past the middle of
/// `hashtable2_mg_k9.json`'s log, yields: the trace digest where the
/// reader accepts it, the whole error (byte offset included) where it
/// refuses it. `PRINT_PINS=1 cargo test --release --test corpus_replay
/// hostile -- --nocapture` prints the values.
const HOSTILE_PINS: &[(&str, &str)] = &[
    ("canonical", "ok 9247069ae330e3c8"),
    ("tid 2^32+1", "err trace json: tid does not fit in 32 bits"),
    ("tid u32::MAX", "ok 1948e523bbf4477f"),
    (
        "epoch u64::MAX+1",
        "err trace json: integer wider than 64 bits at byte 112111",
    ),
    ("epoch 1.5", "err trace json: epoch must be an integer"),
    ("epoch with a leading zero", "ok 9247069ae330e3c8"),
    ("escaped acq tag", "ok 9247069ae330e3c8"),
    ("whitespace inside", "ok 9247069ae330e3c8"),
    ("qr flag 2", "err trace json: qr healed flag must be 0 or 1"),
    ("unknown node class", "err trace json: unknown node `leaf`"),
    ("unknown mode", "err trace json: unknown lock mode `XX`"),
    ("unknown kind", "err trace json: unknown event kind `??`"),
    ("unknown fault class", "err trace json: unknown fault class"),
    (
        "three fields",
        "err trace json: events are [epoch,tid,clock,kind]",
    ),
    (
        "acq without a mode",
        "err trace json: unknown event kind `acq`",
    ),
    ("rd u64::MAX", "ok 8e2cc95113032a1e"),
    (
        "bad event then a syntax error",
        "err trace json: expected a value at byte 112131",
    ),
];

#[test]
fn hostile_events_deep_in_a_corpus_trace_decode_as_pinned() {
    use trace::{EventKind, Trace};
    let text = std::fs::read_to_string(corpus_dir().join("hashtable2_mg_k9.json")).unwrap();
    let t = Trace::from_json(&text).expect("the corpus trace decodes");
    let e = t
        .events
        .iter()
        .skip(t.events.len() / 2)
        .find(|e| matches!(e.kind, EventKind::LockAcquire { .. }))
        .expect("an acquisition past the middle");
    // The event's canonical spelling, from a trace holding only it.
    let alone = Trace {
        events: vec![e].into(),
        ..Trace::default()
    }
    .to_json();
    let event = alone
        .split_once("\"events\":[")
        .and_then(|(_, rest)| rest.strip_suffix("]}"))
        .expect("one event");
    assert_eq!(text.matches(event).count(), 1, "{event} is unique");
    let (epoch, tid, clock) = (e.epoch, e.tid, e.clock);
    let kind = event
        .strip_prefix(&format!("[{epoch},{tid},{clock},"))
        .and_then(|k| k.strip_suffix(']'))
        .expect("[epoch,tid,clock,kind]");
    let EventKind::LockAcquire { node, mode } = e.kind else {
        unreachable!()
    };
    let with = |kind: &str| format!("[{epoch},{tid},{clock},{kind}]");
    let variants = [
        ("canonical", event.to_owned()),
        ("tid 2^32+1", format!("[{epoch},4294967297,{clock},{kind}]")),
        (
            "tid u32::MAX",
            format!("[{epoch},4294967295,{clock},{kind}]"),
        ),
        (
            "epoch u64::MAX+1",
            format!("[18446744073709551616,{tid},{clock},{kind}]"),
        ),
        ("epoch 1.5", format!("[1.5,{tid},{clock},{kind}]")),
        (
            "epoch with a leading zero",
            format!("[0{epoch},{tid},{clock},{kind}]"),
        ),
        (
            "escaped acq tag",
            with(&kind.replacen("\"acq\"", "\"\\u0061cq\"", 1)),
        ),
        (
            "whitespace inside",
            format!(
                "[ {epoch} ,\n{tid},\t{clock}, {} ]",
                kind.replace(',', " , ")
            ),
        ),
        ("qr flag 2", with("[\"qr\",1,2,4]")),
        (
            "unknown node class",
            with(&kind.replacen(&format!("[\"{}\"", node.class()), "[\"leaf\"", 1)),
        ),
        (
            "unknown mode",
            with(&kind.replacen(&format!("\"{}\"]", mode.tag()), "\"XX\"]", 1)),
        ),
        ("unknown kind", with("[\"??\"]")),
        ("unknown fault class", with("[\"flt\",\"gremlin\"]")),
        ("three fields", format!("[{epoch},{tid},{clock}]")),
        ("acq without a mode", with("[\"acq\",[\"root\"]]")),
        ("rd u64::MAX", with("[\"rd\",18446744073709551615]")),
    ];
    let decode = |json: String| match Trace::from_json(&json) {
        Ok(t) => format!("ok {}", t.digest()),
        Err(e) => format!("err {e}"),
    };
    let mut seen: Vec<(&str, String)> = variants
        .into_iter()
        .map(|(name, spelling)| (name, decode(text.replacen(event, &spelling, 1))))
        .collect();
    // A bad event followed by a syntax error: the syntax error wins.
    let bad = with("[\"??\"]");
    seen.push((
        "bad event then a syntax error",
        decode(text.replacen(&format!("{event},"), &format!("{bad},,"), 1)),
    ));
    if std::env::var_os("PRINT_PINS").is_some() {
        for (name, result) in &seen {
            println!("    ({name:?}, {result:?}),");
        }
    }
    let pinned: Vec<(&str, String)> = HOSTILE_PINS
        .iter()
        .map(|&(n, r)| (n, r.to_owned()))
        .collect();
    assert_eq!(seen, pinned);
}
