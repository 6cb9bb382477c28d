//! End-of-run gauges of the runs `trace-dump record` has no flag for:
//! injected thread panics and STM transactions escalated to the
//! irrevocable fallback. `crates/bench/tests/run_gauges.rs` covers the
//! runs the command line can make.
//!
//! Every gauge a recording carries equals its pin in
//! `tests/golden/run_gauges_chaos.txt`, and the seven pinned gauges a
//! trace also counts — no longer collected, since the trace has them —
//! equal that series of `obs::from_trace`. The pins are the values of
//! the metrics registry that collected all thirteen gauges before a
//! recording carried them; do not re-pin them.
//!
//! Each run's trace is pinned too (digest, event count, per-kind
//! counts): the panic runs are the pinned virtual-time traces in which
//! a worker dies holding lock nodes, so their `lock_release` counts
//! include the releases of its unwinding session.

use atomic_lock_inference as ali;

use ali::interp::{ExecMode, FaultPlan};
use ali::obs;
use ali::replay::RunConfig;
use ali::workloads::{micro, Contention};

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

/// The runs, by pin label: panics under both lock runtimes (a panic
/// inside a section poisons its session and unwinds its grants), and
/// an abort storm that a budget of 4 escalates to irrevocable mode.
fn runs() -> Vec<(&'static str, RunConfig)> {
    let spec = micro::hashtable2(Contention::High, 60, 20);
    // Seeded so that the init phase survives and two workers panic.
    let panics = FaultPlan::new(0x0B25)
        .with_panics(2, 1)
        .with_wakeup_delays(150, 300);
    let with_faults = |mode, plan| RunConfig {
        faults: Some(plan),
        ..RunConfig::from_spec(&spec, 3, mode, 4)
    };
    let storm = micro::hashtable2(Contention::High, 30, 20);
    vec![
        (
            "panics-multigrain",
            with_faults(ExecMode::MultiGrain, panics),
        ),
        ("panics-global", with_faults(ExecMode::Global, panics)),
        (
            "fallbacks-stm",
            RunConfig {
                faults: Some(FaultPlan::new(0x5707).with_stm_aborts(700)),
                stm_abort_budget: 4,
                ..RunConfig::from_spec(&storm, 3, ExecMode::Stm, 4)
            },
        ),
    ]
}

/// `label name=value …` lines, as pinned.
fn pins() -> Vec<(String, Vec<(String, u64)>)> {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/run_gauges_chaos.txt"
    );
    std::fs::read_to_string(path)
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
fn chaos_run_gauges_match_their_pins_and_trace_series() {
    let pins = pins();
    for (label, cfg) in runs() {
        let rec = ali::replay::record(&cfg).expect("the run records");
        assert_eq!(rec.trace.dropped, 0, "{label}: the trace is whole");
        let carried: Vec<(&str, u64)> = rec
            .gauges
            .gauges
            .iter()
            .map(|(k, v)| (&k.name[..], *v))
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
        // The recording carries exactly the pinned gauges no trace
        // counts, at their pinned values.
        let untraced: Vec<(&str, u64)> = pinned
            .iter()
            .filter(|(n, _)| AGREEMENT.iter().all(|&(g, _, _)| g != n))
            .map(|(n, v)| (&n[..], *v))
            .collect();
        assert_eq!(carried, untraced, "{label}");
        let derived = obs::from_trace(&rec.trace);
        for (gauge, series, kind) in AGREEMENT {
            let v: u64 = derived
                .counters
                .iter()
                .filter(|(k, _)| {
                    k.name == series && (kind.is_none() || Some(k.labels[0].1.as_str()) == kind)
                })
                .map(|(_, v)| *v)
                .sum();
            assert_eq!(v, pin(gauge), "{label}: {gauge}'s trace series {series}");
        }
    }
}

/// One chaos run's trace, as pinned: its digest, its event count and
/// its per-kind counts.
struct TracePin {
    label: &'static str,
    digest: &'static str,
    events: usize,
    counts: &'static [(&'static str, u64)],
}

const TRACE_PINS: [TracePin; 3] = [
    TracePin {
        label: "panics-multigrain",
        digest: "9893cf10252a2780",
        events: 7190,
        counts: &[
            ("alloc", 247),
            ("fault", 5),
            ("lock_acquire", 1969),
            ("lock_release", 1969),
            ("plan_complete", 277),
            ("read", 1178),
            ("section_enter", 277),
            ("section_exit", 275),
            ("write", 993),
        ],
    },
    TracePin {
        label: "panics-global",
        digest: "c69b80db5f6f63c4",
        events: 3789,
        counts: &[
            ("alloc", 244),
            ("fault", 29),
            ("lock_acquire", 274),
            ("lock_release", 274),
            ("plan_complete", 274),
            ("read", 1163),
            ("section_enter", 274),
            ("section_exit", 272),
            ("write", 985),
        ],
    },
    TracePin {
        label: "fallbacks-stm",
        digest: "473f4e12fa5c0d80",
        events: 7909,
        counts: &[
            ("alloc", 524),
            ("fault", 992),
            ("read", 2095),
            ("section_enter", 1240),
            ("section_exit", 248),
            ("stm_abort", 992),
            ("stm_commit", 248),
            ("stm_fallback", 248),
            ("write", 1322),
        ],
    },
];

/// The traces of the chaos runs, unwind releases included: a worker
/// that panics while holding nodes logs their releases as its session
/// unwinds, under virtual time. `PRINT_PINS=1` prints them.
#[test]
fn chaos_traces_match_their_pins() {
    let runs = runs();
    for (label, cfg) in &runs {
        let rec = ali::replay::record(cfg).expect("the run records");
        let t = &rec.trace;
        if std::env::var_os("PRINT_PINS").is_some() {
            println!(
                "TracePin {{ label: {label:?}, digest: {:?}, events: {}, counts: &{:?} }},",
                t.digest(),
                t.events.len(),
                t.counts().into_iter().collect::<Vec<_>>()
            );
            continue;
        }
        let pin = TRACE_PINS
            .iter()
            .find(|p| p.label == *label)
            .unwrap_or_else(|| panic!("no trace pin for `{label}`"));
        assert_eq!(t.digest(), pin.digest, "{label} digest");
        assert_eq!(t.events.len(), pin.events, "{label} event count");
        let counts: Vec<(&str, u64)> = t.counts().into_iter().collect();
        assert_eq!(counts, pin.counts, "{label} counts");
    }
}
