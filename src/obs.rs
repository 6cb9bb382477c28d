//! Metrics: the `ali_*` vocabulary of a run (DESIGN.md §5.9).
//!
//! A run's section, lock, fault, wake and STM metrics have one
//! implementation: [`from_trace`], a pure function of the recorded
//! trace bytes, so snapshots are byte-identical at every analysis and
//! eval thread count. The interpreter emits events and nothing else.
//! The few end-of-run totals no trace carries (`ali_run_*` gauges:
//! heap, scheduler hand-offs, sentinel violations, unwound lock
//! sessions) are read off the machine once per run by `run_gauges`
//! and returned on the recording as a [`Snapshot`] of their own, which
//! [`Snapshot::merge`] joins to the trace's. This module owns every
//! `ali_*` metric name.
//!
//! A [`Snapshot`] is the deterministic export surface: metrics sorted
//! by `(name, labels)`, rendered as canonical JSON ([`Snapshot::to_json`],
//! fixed key order, byte equality ⇔ metric equality), as Prometheus
//! text exposition ([`export::prometheus`]), or — for the per-section
//! wait/hold profiles — as a speedscope-compatible flamegraph
//! ([`export::speedscope`]). Both JSON forms are written with the
//! workspace's one JSON writer, `trace::json::Writer`.

pub mod export;

use interp::Machine;
use mglock::modes::ALL_MODES;
use mglock::NodeKey;
use trace::json::Writer;
use trace::{EventKind, FaultClass, Trace};

/// A metric series identity: name plus (possibly empty) label pairs.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct Key {
    pub name: String,
    pub labels: Vec<(String, String)>,
}

impl Key {
    /// A label-free key.
    pub(crate) fn plain(name: &str) -> Key {
        Key {
            name: name.to_owned(),
            labels: Vec::new(),
        }
    }

    /// A key with one label.
    pub(crate) fn labelled(name: &str, label: &str, value: impl ToString) -> Key {
        Key {
            name: name.to_owned(),
            labels: vec![(label.to_owned(), value.to_string())],
        }
    }
}

/// A point-in-time view of every metric, sorted by `(name, labels)` so
/// equal metric state renders to equal bytes.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Snapshot {
    pub counters: Vec<(Key, u64)>,
    pub gauges: Vec<(Key, u64)>,
    pub hists: Vec<(Key, trace::Histogram)>,
}

impl Snapshot {
    /// Restores the canonical order after out-of-order insertion.
    fn sort(&mut self) {
        self.counters.sort_by(|a, b| a.0.cmp(&b.0));
        self.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        self.hists.sort_by(|a, b| a.0.cmp(&b.0));
    }

    /// Adds every series of `other` and restores the canonical order.
    /// The two sides are expected to name disjoint series — a
    /// recording's `ali_run_*` gauges and [`from_trace`]'s.
    pub fn merge(&mut self, other: Snapshot) {
        self.counters.extend(other.counters);
        self.gauges.extend(other.gauges);
        self.hists.extend(other.hists);
        self.sort();
    }

    /// Canonical JSON (`ali-metrics-v1`): fixed key order, no
    /// whitespace, series `[name,[[label,value],…],n]` (a histogram's
    /// `n` is `[bucket,…],count,sum,max`) in the order held — sorted on
    /// every path that builds a snapshot. Byte equality is snapshot
    /// equality.
    pub fn to_json(&self) -> String {
        /// Opens a series: its name and labels.
        fn key(w: &mut Writer, key: &Key) {
            w.array().str(&key.name).array();
            for (k, v) in &key.labels {
                w.array().str(k).str(v).end_array();
            }
            w.end_array();
        }
        let mut out = String::new();
        let mut w = Writer::new(&mut out);
        w.object().key("format").str("ali-metrics-v1");
        for (name, series) in [("counters", &self.counters), ("gauges", &self.gauges)] {
            w.key(name).array();
            for (k, v) in series {
                key(&mut w, k);
                w.u64(*v).end_array();
            }
            w.end_array();
        }
        w.key("hists").array();
        for (k, h) in &self.hists {
            key(&mut w, k);
            w.array();
            for &b in &h.buckets {
                w.u64(b);
            }
            w.end_array().u64(h.count).u64(h.sum).u64(h.max).end_array();
        }
        w.end_array().end_object();
        out
    }
}

/// Derives the canonical metrics snapshot of a recorded trace, in one
/// walk over its events. The shape is fixed: every kind, mode and class
/// series is present (zero when unseen), and the per-section series
/// follow the `trace::profile` section set.
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
        profiler.step(&e);
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

/// Reads what only the live machine knows at the end of a run — heap,
/// virtual-time scheduler, sentinel, unwound lock sessions — as
/// `ali_run_*` gauges, in name order. Everything a trace carries
/// (sections, grants, faults, wake decisions, commits, quarantine) is
/// [`from_trace`]'s instead.
pub(crate) fn run_gauges(m: &Machine) -> Snapshot {
    use std::sync::atomic::Ordering::Relaxed;
    let mg = m.mg_stats();
    let (yield_points, handoffs) = m.sim_counts();
    let gauges = [
        ("ali_run_heap_used", m.heap_used()),
        (
            "ali_run_mg_poisoned_sessions",
            mg.poisoned_sessions.load(Relaxed),
        ),
        (
            "ali_run_mg_unwind_releases",
            mg.unwind_releases.load(Relaxed),
        ),
        (
            "ali_run_sentinel_violations",
            m.degradation_report().sentinel_violations,
        ),
        ("ali_run_sim_handoffs", handoffs),
        ("ali_run_sim_yield_points", yield_points),
    ];
    Snapshot {
        gauges: gauges
            .into_iter()
            .map(|(name, v)| (Key::plain(name), v))
            .collect(),
        ..Snapshot::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_json_is_stable_under_resorting() {
        let mut snap = Snapshot::default();
        snap.counters.push((Key::labelled("c", "s", 2), 1));
        snap.counters.push((Key::plain("a"), 7));
        let mut twin = snap.clone();
        snap.sort();
        twin.sort();
        assert_eq!(snap.to_json(), twin.to_json());
        assert!(snap.to_json().starts_with("{\"format\":\"ali-metrics-v1\""));
    }

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
