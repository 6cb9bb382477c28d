//! Byte-level pins of recorded traces: for each configuration, the
//! trace digest (FNV-1a of the canonical `ali-trace-v1` JSON), the
//! event count and [`Trace::counts`], captured before the event log
//! was stored byte-coded. Together the configurations cover every
//! [`EventKind::NAMES`] entry and every [`NodeKey::CLASSES`] entry, so
//! a change to how events are stored or read that alters any kind or
//! node shape fails here. The JSON reports of the re-inference and
//! adapt runs among them are pinned by FNV-1a digest too, and so are
//! the repair report and healed trace of the scale twin CI's heal gate
//! re-infers. The weakened pair's violations are pinned entry by entry
//! (section, tid, address, effect, clock and sorted held set), with
//! its violation, demotion and heal totals.
//!
//! A change that moves a pin on purpose prints the new values with
//! `PRINT_PINS=1 cargo test --release --test trace_pins -- --nocapture`.

use atomic_lock_inference as ali;

use ali::interp::{ExecMode, FaultPlan, PolicyKind, SchedConfig, SentinelConfig};
use ali::lockinfer::AdaptPolicy;
use ali::mglock::NodeKey;
use ali::replay::{record, RunConfig, WeakenPlan};
use ali::trace::{EventKind, Trace};
use ali::workloads::scale::{self, ScaleParams};
use ali::workloads::{micro, stamp, Contention, RunSpec};
use ali::Pipeline;
use std::collections::BTreeSet;
use std::sync::OnceLock;

/// What one pinned trace must reproduce.
struct Pin {
    name: &'static str,
    digest: &'static str,
    events: usize,
    counts: &'static [(&'static str, u64)],
}

fn fnv(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

fn config(spec: &RunSpec, k: usize, mode: ExecMode, threads: usize, seed: u64) -> RunConfig {
    let mut cfg = RunConfig::from_spec(spec, k, mode, threads);
    cfg.seed = seed;
    cfg
}

/// Two sections with disjoint footprints (the re-inference fixture):
/// weakening section 0 draws violations, the quarantine ladder demotes
/// it and a repair heals it.
const PAIR_SRC: &str = r#"
    global a;
    global b;
    global c;
    fn setup(n) { a = n; b = n; c = n; }
    fn work(iters) {
        let i = 0;
        while (i < iters) {
            atomic { a = a + 1; b = b + a; nops(20); }
            atomic { c = c + 1; nops(20); }
            i = i + 1;
        }
        return 0;
    }
    fn total() { return a + c; }
"#;

/// A convoy: every thread hammers one global, half the time under a
/// long section, so a wake policy has queues to steer.
const CONVOY_SRC: &str = r#"
    global shared;
    global tally;
    fn setup(n) { shared = 0; tally = 0; }
    fn work(iters) {
        let i = 0;
        while (i < iters) {
            atomic { shared = shared + 1; nops(300); }
            atomic { tally = tally + 1; }
            i = i + 1;
        }
        return 0;
    }
    fn total() { return shared + tally; }
"#;

fn source_config(name: &str, src: &str, threads: usize, seed: u64, iters: i64) -> RunConfig {
    let spec = RunSpec {
        name: name.into(),
        source: src.into(),
        heap_cells: 1 << 14,
        init: ("setup", vec![0]),
        worker: ("work", vec![iters]),
        check: Some("total"),
    };
    let mut cfg = config(&spec, 3, ExecMode::MultiGrain, threads, seed);
    cfg.quantum = 64;
    cfg.trace_capacity = 1 << 18;
    cfg
}

/// FNV digests of the repair report and the adapt report.
struct Reports {
    repair: String,
    adapt: String,
}

/// Every pinned trace, by name, and the FNV digests of the two loops'
/// reports, recorded once for both tests.
fn recorded() -> &'static (Vec<(&'static str, Trace)>, Reports) {
    static RECORDED: OnceLock<(Vec<(&'static str, Trace)>, Reports)> = OnceLock::new();
    RECORDED.get_or_init(record_all)
}

fn record_all() -> (Vec<(&'static str, Trace)>, Reports) {
    let mut traces = Vec::new();
    let mut keep = |name, rec: ali::replay::Recording| traces.push((name, rec.trace));

    // Range nodes and in-section allocations.
    let genome = config(&stamp::genome(20, 5), 3, ExecMode::MultiGrain, 2, 42);
    keep("genome-mg-t2", record(&genome).expect("genome records"));

    // Mid-section panics, stalls and delayed wake-ups under locks.
    let mut th = config(
        &micro::th(Contention::High, 20, 5),
        3,
        ExecMode::MultiGrain,
        4,
        7,
    );
    th.faults = Some(
        FaultPlan::new(0x0C33)
            .with_panics(4, 1)
            .with_stalls(80, 250)
            .with_wakeup_delays(80, 200),
    );
    keep("th-mg-t4-faults", record(&th).expect("TH records"));

    // Commits, aborts (injected and real) and the irrevocable fallback.
    let mut kmeans = config(&stamp::kmeans(20, 5), 3, ExecMode::Stm, 4, 9);
    kmeans.faults = Some(FaultPlan::new(0x0A11).with_stm_aborts(250));
    kmeans.stm_abort_budget = 4;
    keep(
        "kmeans-stm-t4-aborts",
        record(&kmeans).expect("kmeans records"),
    );

    // Wake decisions: the convoy steered by a wake policy frozen from
    // its own FIFO baseline.
    let fifo = source_config("convoy", CONVOY_SRC, 8, 11, 25);
    let baseline = record(&fifo).expect("convoy records");
    let profiles = ali::trace::profile(&baseline.trace);
    let mut steered = fifo.clone();
    steered.sched = Some(SchedConfig::from_profiles(PolicyKind::ALL[0], &profiles));
    keep("convoy-fifo", baseline);
    keep(
        "convoy-steered",
        record(&steered).expect("steered convoy records"),
    );

    // Quarantine transitions and the repair ledger.
    let mut pair = source_config("weakened-pair", PAIR_SRC, 6, 13, 24);
    pair.sentinel = Some(SentinelConfig::default());
    pair.weaken = Some(WeakenPlan {
        section: 0,
        drop_index: 0,
    });
    let run = Pipeline::new(pair).reinfer().expect("re-inference runs");
    let repair = fnv(&run.report.to_json());
    keep("pair-reinfer-baseline", run.baseline);
    keep(
        "pair-reinfer-healed",
        run.healed.expect("the weakened section heals"),
    );

    // The benchmark's adapt workload at its default seed.
    let p = ScaleParams {
        depth: 4,
        width: 6,
        sections: 12,
        stmts_per_fn: 10,
        seed: 7,
    };
    let mut adapt = config(
        &scale::smoke("scale-d4w6s12", p, 3),
        9,
        ExecMode::MultiGrain,
        8,
        42,
    );
    adapt.trace_capacity = 1 << 20;
    let run = Pipeline::new(adapt)
        .eval_threads(1)
        .adapt(&AdaptPolicy)
        .expect("adapt reaches a decision");
    let adapt = fnv(&run.report.to_json());
    keep("adapt-scale-d4w6s12-baseline", run.baseline);
    keep(
        "adapt-scale-d4w6s12-adapted",
        run.adapted.expect("a candidate beats the baseline"),
    );
    (traces, Reports { repair, adapt })
}

const REPAIR_REPORT_FNV: &str = "169f8ea6fd1d2db9";
const ADAPT_REPORT_FNV: &str = "701df6592f653a78";

const PINS: &[Pin] = &[
    Pin {
        name: "genome-mg-t2",
        digest: "a1b1cea19f598d1a",
        events: 2280,
        counts: &[
            ("alloc", 40),
            ("lock_acquire", 680),
            ("lock_release", 680),
            ("plan_complete", 80),
            ("read", 440),
            ("section_enter", 80),
            ("section_exit", 80),
            ("write", 200),
        ],
    },
    Pin {
        name: "th-mg-t4-faults",
        digest: "bd9af7ec662342b3",
        events: 86,
        counts: &[
            ("alloc", 2),
            ("fault", 1),
            ("lock_acquire", 24),
            ("lock_release", 24),
            ("plan_complete", 3),
            ("read", 16),
            ("section_enter", 3),
            ("section_exit", 2),
            ("write", 11),
        ],
    },
    Pin {
        name: "kmeans-stm-t4-aborts",
        digest: "30e8c91c012034fa",
        events: 6354,
        counts: &[
            ("fault", 320),
            ("read", 4577),
            ("section_enter", 400),
            ("section_exit", 80),
            ("stm_abort", 320),
            ("stm_commit", 80),
            ("stm_fallback", 80),
            ("write", 497),
        ],
    },
    Pin {
        name: "convoy-fifo",
        digest: "d3779d79127dac5e",
        events: 4400,
        counts: &[
            ("lock_acquire", 1200),
            ("lock_release", 1200),
            ("plan_complete", 400),
            ("read", 400),
            ("section_enter", 400),
            ("section_exit", 400),
            ("write", 400),
        ],
    },
    Pin {
        name: "convoy-steered",
        digest: "daf4096f89cb1bf9",
        events: 4749,
        counts: &[
            ("lock_acquire", 1200),
            ("lock_release", 1200),
            ("plan_complete", 400),
            ("read", 400),
            ("section_enter", 400),
            ("section_exit", 400),
            ("wake_decision", 349),
            ("write", 400),
        ],
    },
    Pin {
        name: "pair-reinfer-baseline",
        digest: "2b8a27bbf0ff4b4e",
        events: 3079,
        counts: &[
            ("lock_acquire", 598),
            ("lock_release", 598),
            ("plan_complete", 288),
            ("quarantine", 11),
            ("read", 576),
            ("section_enter", 288),
            ("section_exit", 288),
            ("write", 432),
        ],
    },
    Pin {
        name: "pair-reinfer-healed",
        digest: "ed51a0c9411504ae",
        events: 3571,
        counts: &[
            ("lock_acquire", 848),
            ("lock_release", 848),
            ("plan_complete", 288),
            ("quarantine", 2),
            ("read", 576),
            ("reinfer", 1),
            ("section_enter", 288),
            ("section_exit", 288),
            ("write", 432),
        ],
    },
    Pin {
        name: "adapt-scale-d4w6s12-baseline",
        digest: "79e66e8d322def64",
        events: 136718,
        counts: &[
            ("alloc", 23016),
            ("lock_acquire", 14962),
            ("lock_release", 14962),
            ("plan_complete", 546),
            ("read", 46416),
            ("section_enter", 288),
            ("section_exit", 288),
            ("write", 36240),
        ],
    },
    Pin {
        name: "adapt-scale-d4w6s12-adapted",
        digest: "5b37c1c8b62a6bc7",
        events: 167047,
        counts: &[
            ("alloc", 23016),
            ("lock_acquire", 29375),
            ("lock_release", 29375),
            ("plan_complete", 1043),
            ("read", 46416),
            ("section_enter", 288),
            ("section_exit", 288),
            ("wake_decision", 1006),
            ("write", 36240),
        ],
    },
];

#[test]
fn recorded_traces_match_their_pins() {
    let (traces, reports) = recorded();
    if std::env::var_os("PRINT_PINS").is_some() {
        println!("repair report {}", reports.repair);
        println!("adapt report {}", reports.adapt);
        for (name, t) in traces {
            println!(
                "Pin {{ name: {name:?}, digest: {:?}, events: {}, counts: &{:?} }},",
                t.digest(),
                t.events.len(),
                t.counts().into_iter().collect::<Vec<_>>()
            );
        }
    }
    assert_eq!(
        reports.repair, REPAIR_REPORT_FNV,
        "weakened-pair repair report"
    );
    assert_eq!(
        reports.adapt, ADAPT_REPORT_FNV,
        "adapt-scale-d4w6s12 report"
    );
    assert_eq!(
        traces.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
        PINS.iter().map(|p| p.name).collect::<Vec<_>>()
    );
    for ((name, t), pin) in traces.iter().zip(PINS) {
        assert_eq!(t.digest(), pin.digest, "{name} digest");
        assert_eq!(t.events.len(), pin.events, "{name} event count");
        let counts: Vec<(&str, u64)> = t.counts().into_iter().collect();
        assert_eq!(counts, pin.counts, "{name} counts");
    }
}

#[test]
fn the_pins_cover_every_kind_and_node_class() {
    let (traces, _) = recorded();
    let mut kinds = BTreeSet::new();
    let mut classes = BTreeSet::new();
    for (_, t) in traces {
        for e in &t.events {
            kinds.insert(e.kind.name());
            if let EventKind::LockAcquire { node, .. }
            | EventKind::LockRelease { node, .. }
            | EventKind::WakeDecision { node, .. } = e.kind
            {
                classes.insert(node.class());
            }
        }
    }
    assert_eq!(kinds, EventKind::NAMES.into_iter().collect());
    assert_eq!(classes, NodeKey::CLASSES.into_iter().collect());
}

/// The repair report and healed-recording digest of the run CI's heal
/// gate makes, `trace-dump reinfer scale --threads 8 --ops 4 --weaken
/// 5:0`: a scale twin whose weakened section 5 heals onto a widened
/// repair.
const SCALE_REPAIR_REPORT_FNV: &str = "35c1aa6d6d43b1db";
const SCALE_HEALED_DIGEST: &str = "eac236561f5e1810";

#[test]
fn the_scale_twin_heal_gate_matches_its_pins() {
    // `trace-dump`'s `scale` workload under its `reinfer` defaults:
    // k 9, MultiGrain, a default quarantine sentinel.
    let p = ScaleParams {
        depth: 3,
        width: 4,
        sections: 12,
        stmts_per_fn: 10,
        seed: 11,
    };
    let mut cfg = RunConfig::from_spec(&scale::smoke("scale", p, 4), 9, ExecMode::MultiGrain, 8);
    cfg.sentinel = Some(SentinelConfig::default());
    cfg.weaken = Some(WeakenPlan {
        section: 5,
        drop_index: 0,
    });
    for threads in [1, 7] {
        let run = Pipeline::new(cfg.clone())
            .eval_threads(threads)
            .reinfer()
            .expect("re-inference runs");
        let report = run.report.to_json();
        let healed = run.healed.expect("the weakened section heals").trace;
        if std::env::var_os("PRINT_PINS").is_some() {
            println!(
                "scale repair report {} healed {}",
                fnv(&report),
                healed.digest()
            );
        }
        assert!(report.contains("\"admitted\":0"), "{report}");
        assert_eq!(
            fnv(&report),
            SCALE_REPAIR_REPORT_FNV,
            "scale repair report at {threads} eval threads"
        );
        assert_eq!(
            healed.digest(),
            SCALE_HEALED_DIGEST,
            "scale healed digest at {threads} eval threads"
        );
    }
}

/// FNV-1a of the weakened pair's baseline violations in `(clock, tid,
/// epoch)` order, one line per violation: section, tid, addr, write,
/// clock and the held set, sorted — the fields a trace carries. The
/// value was captured from the sentinel's own list of its misses,
/// before that list was deleted in favour of the trace.
const PAIR_VIOLATIONS_FNV: &str = "815ffdc585c2e701";
/// `(sentinel_violations, sections_quarantined, sections_healed)` of
/// the same run: the violation gauge and the ladder's demotions and
/// heals as traced.
const PAIR_LADDER_TOTALS: (u64, u64, u64) = (33, 6, 5);

#[test]
fn the_weakened_pair_violations_match_their_pin() {
    let mut pair = source_config("weakened-pair", PAIR_SRC, 6, 13, 24);
    pair.sentinel = Some(SentinelConfig::default());
    pair.weaken = Some(WeakenPlan {
        section: 0,
        drop_index: 0,
    });
    for threads in [1, 7] {
        let run = Pipeline::new(pair.clone())
            .eval_threads(threads)
            .reinfer()
            .expect("re-inference runs");
        let rec = &run.baseline;
        let mut violations = ali::trace::validate(&rec.trace)
            .expect("the baseline dropped nothing")
            .violations;
        violations.sort_by_key(|v| (v.clock, v.tid, v.epoch));
        let lines: Vec<String> = violations
            .iter()
            .map(|v| {
                let mut held = v.held.clone();
                held.sort_unstable();
                format!(
                    "{} {} {} {} {} {:?}\n",
                    v.section, v.tid, v.addr, v.write, v.clock, held
                )
            })
            .collect();
        let counted = rec
            .gauges
            .gauges
            .iter()
            .find(|(k, _)| k.name == "ali_run_sentinel_violations")
            .map(|&(_, v)| v)
            .expect("the run reports its violations");
        let (mut quarantined, mut healed) = (0, 0);
        for e in &rec.trace.events {
            if let EventKind::Quarantine { healed: h, .. } = e.kind {
                if h {
                    healed += 1;
                } else {
                    quarantined += 1;
                }
            }
        }
        let totals = (counted, quarantined, healed);
        let digest = fnv(&lines.concat());
        if std::env::var_os("PRINT_PINS").is_some() {
            println!("pair violations {digest} totals {totals:?}");
        }
        assert_eq!(counted, lines.len() as u64, "one entry per violation");
        assert_eq!(
            digest, PAIR_VIOLATIONS_FNV,
            "pair violations at {threads} eval threads"
        );
        assert_eq!(
            totals, PAIR_LADDER_TOTALS,
            "pair ladder totals at {threads} eval threads"
        );
    }
}
