//! Unified observability layer (DESIGN.md §5.9).
//!
//! A run's section, lock, fault, wake and STM metrics have one
//! implementation: [`from_trace`], a pure function of the recorded
//! trace bytes, so snapshots are byte-identical at every analysis and
//! eval thread count. The interpreter emits events and nothing else.
//! What no trace carries — the end-of-run totals only a live machine
//! knows (`ali_run_*` gauges) and the harness's candidate counts
//! (`ali_eval_*`) — goes through a [`Registry`] of named counters and
//! gauges, written once per run, off every hot path.
//!
//! A [`Snapshot`] is the deterministic export surface: metrics sorted
//! by `(name, labels)`, rendered as canonical JSON ([`Snapshot::to_json`],
//! fixed key order, byte equality ⇔ metric equality), as Prometheus
//! text exposition ([`export::prometheus`]), or — for the per-section
//! wait/hold profiles — as a speedscope-compatible flamegraph
//! ([`export::speedscope`]). Both JSON forms are written with the
//! workspace's one JSON writer, `trace::json::Writer`.

pub mod derive;
pub mod export;

pub use derive::from_trace;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use trace::json::Writer;

/// A monotone event counter. Cheap to clone (shares the cell).
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n`. Relaxed: totals are read only at snapshot time.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-writer-wins level (queue depths, end-of-run totals).
#[derive(Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrites the level.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

enum Slot {
    Counter(Counter),
    Gauge(Gauge),
}

/// A named set of counters and gauges. Handle resolution takes a
/// mutex; the handles themselves are relaxed atomics.
#[derive(Default)]
pub struct Registry {
    slots: Mutex<BTreeMap<String, Slot>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("metrics", &self.slots.lock().unwrap().len())
            .finish()
    }
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter named `name`, created on first use.
    ///
    /// # Panics
    ///
    /// Panics when `name` is already registered as a different kind.
    pub fn counter(&self, name: &str) -> Counter {
        let mut slots = self.slots.lock().unwrap();
        match slots
            .entry(name.to_owned())
            .or_insert_with(|| Slot::Counter(Counter(Arc::new(AtomicU64::new(0)))))
        {
            Slot::Counter(c) => c.clone(),
            _ => panic!("metric `{name}` is not a counter"),
        }
    }

    /// The gauge named `name`, created on first use.
    ///
    /// # Panics
    ///
    /// Panics when `name` is already registered as a different kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut slots = self.slots.lock().unwrap();
        match slots
            .entry(name.to_owned())
            .or_insert_with(|| Slot::Gauge(Gauge(Arc::new(AtomicU64::new(0)))))
        {
            Slot::Gauge(g) => g.clone(),
            _ => panic!("metric `{name}` is not a gauge"),
        }
    }

    /// A deterministic snapshot: metrics sorted by name (the registry
    /// map is ordered), labels empty (labelled series and histograms
    /// come from [`from_trace`]).
    pub fn snapshot(&self) -> Snapshot {
        let slots = self.slots.lock().unwrap();
        let mut snap = Snapshot::default();
        for (name, slot) in slots.iter() {
            let key = Key::plain(name);
            match slot {
                Slot::Counter(c) => snap.counters.push((key, c.get())),
                Slot::Gauge(g) => snap.gauges.push((key, g.get())),
            }
        }
        snap
    }
}

/// A metric series identity: name plus (possibly empty) label pairs.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct Key {
    pub name: String,
    pub labels: Vec<(String, String)>,
}

impl Key {
    /// A label-free key.
    pub fn plain(name: &str) -> Key {
        Key {
            name: name.to_owned(),
            labels: Vec::new(),
        }
    }

    /// A key with one label.
    pub fn labelled(name: &str, label: &str, value: impl ToString) -> Key {
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
    pub fn sort(&mut self) {
        self.counters.sort_by(|a, b| a.0.cmp(&b.0));
        self.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        self.hists.sort_by(|a, b| a.0.cmp(&b.0));
    }

    /// Adds every series of `other` and restores the canonical order.
    /// The two sides are expected to name disjoint series — a
    /// registry's `ali_run_*` / `ali_eval_*` and [`from_trace`]'s.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot_in_name_order() {
        let reg = Registry::new();
        let b = reg.counter("bbb");
        let a = reg.counter("aaa");
        a.add(1);
        b.add(3);
        reg.counter("aaa").add(1); // same handle cell
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(k, _)| k.name.as_str()).collect();
        assert_eq!(names, ["aaa", "bbb"]);
        assert_eq!(snap.counters[0].1, 2);
        assert_eq!(snap.counters[1].1, 3);
    }

    #[test]
    fn gauges_are_last_writer_wins() {
        let reg = Registry::new();
        let g = reg.gauge("depth");
        g.set(5);
        g.set(2);
        assert_eq!(reg.snapshot().gauges[0].1, 2);
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn kind_clashes_are_programming_errors() {
        let reg = Registry::new();
        reg.gauge("x");
        reg.counter("x");
    }

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
}
