//! The five trace readers agree on the section protocol.
//!
//! `trace::validate`, `trace::profile`, `trace::quarantine_history`,
//! `obs::export::speedscope` and `obs::from_trace` each keep their own
//! payload but read "which section is open, did it close, did the
//! thread die inside it" from one `trace::sections::Cursor`. This is
//! the property that buys: on generated programs, under every runtime,
//! with injected panics and spurious aborts, and with the recorder's
//! capacity cut so that some traces truncate, their answers line up.

use atomic_lock_inference as ali;

use ali::interp::{ExecMode, FaultPlan};
use ali::replay::{record, RunConfig};
use ali::trace::json::{parse, Value};
use ali::trace::{Event, EventKind, Trace};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// What `speedscope` said, read back from its JSON: per section, the
/// outermost `section N` frames closed by the trace itself, and the
/// threads whose frames the exporter had to close at end of stream.
#[derive(Default, Debug)]
struct Flamegraph {
    closed_outermost: BTreeMap<u32, u64>,
    dangling: BTreeSet<u32>,
}

/// Exports `t` with one inert event appended to every thread one tick
/// past the end, so a close the exporter supplied (at that tick) is
/// told apart from one the trace recorded (at or before the end).
fn flamegraph(t: &Trace) -> Flamegraph {
    let end = t.events.iter().map(|e| e.clock).max().unwrap_or(0) + 1;
    let mut marked = t.clone();
    let tids: BTreeSet<u32> = t.events.iter().map(|e| e.tid).collect();
    for (i, &tid) in tids.iter().enumerate() {
        marked.events.push(Event {
            epoch: u64::MAX - tids.len() as u64 + i as u64,
            tid,
            clock: end,
            kind: EventKind::StmFallback,
        });
    }
    let json = ali::obs::export::speedscope(&marked);

    fn get<'v>(v: &'v Value, key: &str) -> &'v Value {
        v.field(key).expect(key)
    }
    let list = |v, key| get(v, key).as_arr(key).expect(key);
    let doc = parse(&json, 5).expect("speedscope output parses");
    // `section 3` or `section 3 wait`, in id order.
    let frames: Vec<Option<u32>> = list(get(&doc, "shared"), "frames")
        .iter()
        .map(|f| {
            let name = get(f, "name").as_str("name").expect("a frame name");
            name.strip_prefix("section ")?.parse().ok()
        })
        .collect();
    let mut out = Flamegraph::default();
    for p in list(&doc, "profiles") {
        let name = get(p, "name").as_str("thread").unwrap();
        let tid: u32 = name["thread ".len()..].parse().expect("a thread id");
        let mut depth = 0u32;
        for ev in list(p, "events") {
            let num = |key| get(ev, key).as_u64(key).expect(key);
            let (frame, at) = (num("frame") as usize, num("at"));
            if get(ev, "type").as_str("type") == Ok("O") {
                depth += 1;
                continue;
            }
            depth -= 1;
            if at == end {
                out.dangling.insert(tid);
            } else if let (0, Some(section)) = (depth, frames[frame]) {
                *out.closed_outermost.entry(section).or_insert(0) += 1;
            }
        }
    }
    out
}

/// `quarantine_history`'s crash detection, made observable: with one
/// demotion appended, the history reports it open on a complete trace
/// and suppresses it on one that ends mid-section or dropped events.
fn quarantine_sees_a_cut(t: &Trace) -> bool {
    let mut probed = t.clone();
    probed.events.push(Event {
        epoch: u64::MAX,
        tid: 0,
        clock: 0,
        kind: EventKind::Quarantine {
            section: u32::MAX,
            healed: false,
            probation: 1,
        },
    });
    let h = ali::trace::quarantine_history(&probed);
    assert_eq!(h.suppressed + h.open.len() as u64, 1, "{h:?}");
    h.suppressed == 1
}

fn check_agreement(t: &Trace, what: &str) -> (bool, bool) {
    let flame = flamegraph(t);
    let profiles = ali::trace::profile(t);
    let cut = quarantine_sees_a_cut(t);

    // Who died mid-section: the validator's list is the exporter's set
    // of threads with dangling frames, and the quarantine history
    // suppresses exactly when that set is non-empty (or events were
    // dropped — which is when the validator refuses).
    match ali::trace::validate(t) {
        Ok(v) => {
            assert_eq!(t.dropped, 0, "{what}");
            let crashed: BTreeSet<u32> = v.crashed.iter().copied().collect();
            assert_eq!(crashed, flame.dangling, "{what}: validate vs speedscope");
            assert_eq!(cut, !crashed.is_empty(), "{what}: validate vs quarantine");
        }
        Err(_) => {
            assert!(t.dropped > 0, "{what}");
            assert!(cut, "{what}: a truncated trace must suppress");
        }
    }

    // Outermost executions: every one the profiler counted (completed
    // or aborted) is a frame the exporter closed before end of stream.
    // On a complete recording the two are equal; a truncated one may
    // contain executions the profiler declines to trust.
    let counted: BTreeMap<u32, u64> = profiles
        .iter()
        .map(|p| (p.section, p.entries + p.aborts))
        .filter(|&(_, n)| n > 0)
        .collect();
    if t.dropped == 0 {
        assert_eq!(
            counted, flame.closed_outermost,
            "{what}: profile vs speedscope"
        );
    } else {
        for (section, n) in &counted {
            let closed = flame.closed_outermost.get(section).copied().unwrap_or(0);
            assert!(*n <= closed, "{what}: section {section}: {n} > {closed}");
        }
    }

    // `from_trace` carries the profiler's numbers, not a recount.
    let snap = ali::obs::from_trace(t);
    for p in &profiles {
        let series = |name: &str| {
            snap.counters
                .iter()
                .find(|(k, _)| k.name == name && k.labels[0].1 == p.section.to_string())
                .map(|(_, v)| *v)
        };
        assert_eq!(
            series("ali_section_entries_total"),
            Some(p.entries),
            "{what}"
        );
        assert_eq!(series("ali_section_aborts_total"), Some(p.aborts), "{what}");
    }
    (t.dropped > 0, !flame.dangling.is_empty())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn readers_agree_on_sections_crashes_and_executions(
        program in any::<u64>(),
        fault_seed in any::<u64>(),
        threads in 2usize..5,
        faults in any::<bool>(),
        capacity in prop::sample::select(vec![40usize, 160, 1 << 20]),
    ) {
        let spec = ali::workloads::fuzz::runnable(program, 120);
        for mode in [ExecMode::Global, ExecMode::MultiGrain, ExecMode::Stm] {
            let mut cfg = RunConfig::from_spec(&spec, 3, mode, threads);
            cfg.trace_capacity = capacity;
            cfg.stm_abort_budget = 8;
            cfg.faults = faults.then(|| {
                FaultPlan::new(fault_seed)
                    .with_panics(4, 1)
                    .with_stm_aborts(100)
            });
            let rec = record(&cfg).expect("the program compiles and runs");
            let what = format!(
                "program {program} {mode:?} threads={threads} faults={faults} capacity={capacity}"
            );
            check_agreement(&rec.trace, &what);
        }
    }
}

/// The generator above must actually reach the corners the property is
/// about; this pins that it does, at fixed inputs.
#[test]
fn the_fixed_cases_cover_truncation_crashes_and_aborts() {
    let spec = ali::workloads::fuzz::runnable(7, 40);
    let run = |mode, capacity, faults: Option<FaultPlan>| {
        let mut cfg = RunConfig::from_spec(&spec, 3, mode, 3);
        cfg.trace_capacity = capacity;
        cfg.stm_abort_budget = 8;
        cfg.faults = faults;
        record(&cfg).expect("records").trace
    };
    let truncated = run(ExecMode::MultiGrain, 48, None);
    assert!(check_agreement(&truncated, "truncated").0);

    let panicky = FaultPlan::new(3).with_panics(200, 2);
    let crashed = run(ExecMode::MultiGrain, 1 << 20, Some(panicky));
    assert_eq!(check_agreement(&crashed, "crashed"), (false, true));

    let aborting = FaultPlan::new(3).with_stm_aborts(300);
    let aborted = run(ExecMode::Stm, 1 << 20, Some(aborting));
    assert_eq!(check_agreement(&aborted, "aborted"), (false, false));
    assert!(ali::trace::profile(&aborted).iter().any(|p| p.aborts > 0));
}
