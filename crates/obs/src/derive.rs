//! Trace-derived metric snapshots.
//!
//! [`from_trace`] maps a recorded `ali-trace-v1` trace onto the `ali_*`
//! metric vocabulary — its one implementation, and a pure function of
//! the trace bytes, so two snapshots derived from the same recording
//! are byte-identical no matter how many analysis or eval threads
//! produced it. The shape is fixed: every kind/mode/class series is
//! always present (zero-valued when unseen), and per-section series
//! follow the `trace::profile` section set.

use crate::{Key, Snapshot};
use mglock::modes::ALL_MODES;
use mglock::NodeKey;
use trace::{EventKind, FaultClass, Trace};

/// Derives the canonical metrics snapshot of a recorded trace, in one
/// walk over its events.
pub fn from_trace(t: &Trace) -> Snapshot {
    let mut snap = Snapshot::default();

    let mut kinds = [0u64; EventKind::NAMES.len()];
    let mut acquires = [0u64; ALL_MODES.len()];
    let mut wake_by_class = [0u64; NodeKey::CLASSES.len()];
    let mut faults = [0u64; FaultClass::ALL.len()];
    let mut woken = 0u64;
    let (mut commit_reads, mut commit_writes) = (0u64, 0u64);
    let (mut demotions, mut heals) = (0u64, 0u64);
    let (mut repairs_on, mut repairs_off) = (0u64, 0u64);
    let mut threads: Vec<u32> = Vec::new();
    let mut makespan = 0u64;
    let mut profiler = trace::profile::Profiler::default();
    for e in &t.events {
        if let Err(i) = threads.binary_search(&e.tid) {
            threads.insert(i, e.tid);
        }
        makespan = makespan.max(e.clock);
        kinds[e.kind.index()] += 1;
        profiler.step(e);
        match e.kind {
            EventKind::LockAcquire { mode, .. } => {
                acquires[ALL_MODES.iter().position(|&m| m == mode).unwrap()] += 1;
            }
            EventKind::Fault { class } => {
                faults[FaultClass::ALL.iter().position(|&c| c == class).unwrap()] += 1;
            }
            EventKind::WakeDecision {
                node, woken: batch, ..
            } => {
                let class = node.class();
                wake_by_class[NodeKey::CLASSES.iter().position(|&c| c == class).unwrap()] += 1;
                woken += batch as u64;
            }
            EventKind::StmCommit { reads, writes } => {
                commit_reads += reads;
                commit_writes += writes;
            }
            EventKind::Quarantine { healed, .. } => {
                if healed {
                    heals += 1;
                } else {
                    demotions += 1;
                }
            }
            EventKind::Reinfer { accepted, .. } => {
                if accepted {
                    repairs_on += 1;
                } else {
                    repairs_off += 1;
                }
            }
            _ => {}
        }
    }
    for (kind, n) in EventKind::NAMES.iter().zip(kinds) {
        snap.counters
            .push((Key::labelled("ali_trace_events_total", "kind", kind), n));
    }
    for (mode, n) in ALL_MODES.iter().zip(acquires) {
        snap.counters
            .push((Key::labelled("ali_lock_acquires_total", "mode", mode), n));
    }
    for (class, n) in NodeKey::CLASSES.iter().zip(wake_by_class) {
        snap.counters
            .push((Key::labelled("ali_wake_decisions_total", "node", class), n));
    }
    for (class, n) in FaultClass::ALL.iter().zip(faults) {
        snap.counters
            .push((Key::labelled("ali_faults_total", "class", class.tag()), n));
    }
    snap.counters
        .push((Key::plain("ali_wake_woken_total"), woken));
    snap.counters
        .push((Key::plain("ali_stm_commit_reads_total"), commit_reads));
    snap.counters
        .push((Key::plain("ali_stm_commit_writes_total"), commit_writes));
    snap.counters
        .push((Key::plain("ali_quarantine_demotions_total"), demotions));
    snap.counters
        .push((Key::plain("ali_quarantine_heals_total"), heals));
    snap.counters
        .push((Key::plain("ali_repairs_accepted_total"), repairs_on));
    snap.counters
        .push((Key::plain("ali_repairs_revoked_total"), repairs_off));

    snap.gauges
        .push((Key::plain("ali_trace_dropped_events"), t.dropped));
    snap.gauges
        .push((Key::plain("ali_trace_threads"), threads.len() as u64));
    snap.gauges
        .push((Key::plain("ali_trace_makespan_ticks"), makespan));

    for p in profiler.finish() {
        snap.counters.push((
            Key::labelled("ali_section_entries_total", "section", p.section),
            p.entries,
        ));
        snap.counters.push((
            Key::labelled("ali_section_aborts_total", "section", p.section),
            p.aborts,
        ));
        snap.hists.push((
            Key::labelled("ali_section_wait_ticks", "section", p.section),
            p.wait,
        ));
        snap.hists.push((
            Key::labelled("ali_section_hold_ticks", "section", p.section),
            p.hold,
        ));
        snap.hists.push((
            Key::labelled("ali_section_revalidations", "section", p.section),
            p.revalidations,
        ));
    }

    snap.sort();
    snap
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_trace_yields_the_full_zero_shape() {
        let snap = from_trace(&Trace::default());
        // One series per kind, mode, node class and fault class, plus
        // 7 plain counters; zero sections.
        assert_eq!(
            snap.counters.len(),
            EventKind::NAMES.len()
                + ALL_MODES.len()
                + NodeKey::CLASSES.len()
                + FaultClass::ALL.len()
                + 7
        );
        assert!(snap.counters.iter().all(|(_, v)| *v == 0));
        assert_eq!(snap.gauges.len(), 3);
        assert!(snap.hists.is_empty());
        // Canonical order: sorted by (name, labels).
        let mut sorted = snap.clone();
        sorted.sort();
        assert_eq!(snap, sorted);
    }
}
