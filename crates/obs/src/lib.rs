//! Unified observability layer (DESIGN.md §5.9).
//!
//! The runtime crates emit evidence two ways: *live*, through a
//! [`Registry`] of relaxed-atomic counters, gauges, and log₂
//! [histograms](Hist) whose handles are resolved once (at worker or
//! machine construction) and incremented lock-free on the hot path;
//! and *post-hoc*, by deriving the same metric vocabulary from a
//! recorded trace ([`from_trace`]) — the latter is a pure function of
//! the trace bytes, so snapshots are byte-identical at every analysis
//! and eval thread count.
//!
//! A [`Snapshot`] is the deterministic export surface: metrics sorted
//! by `(name, labels)`, rendered as canonical JSON ([`Snapshot::to_json`],
//! fixed key order, byte equality ⇔ metric equality — the same
//! contract as `trace::json`), as Prometheus text exposition
//! ([`export::prometheus`]), or — for the per-section wait/hold
//! profiles — as a speedscope-compatible flamegraph
//! ([`export::speedscope`]).

pub mod derive;
pub mod export;
mod json;

pub use derive::from_trace;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Log₂ histograms cover the full `u64` sample range.
const HIST_BUCKETS: usize = 64;

/// A monotone event counter. Cheap to clone (shares the cell).
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one. Relaxed: totals are read only at snapshot time.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
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

/// Shared storage of a live log₂ histogram (the atomic twin of
/// `trace::Histogram`: bucket `i` counts samples `v` with
/// `⌊log₂(v+1)⌋ == i`, so bucket 0 is exactly the zero samples).
struct HistCell {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistCell {
    fn new() -> HistCell {
        HistCell {
            buckets: (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// A log₂ histogram of `u64` samples, observable concurrently.
#[derive(Clone)]
pub struct Hist(Arc<HistCell>);

impl Hist {
    /// Records one sample (relaxed; saturating like
    /// `trace::Histogram::add`).
    #[inline]
    pub fn observe(&self, v: u64) {
        let idx = trace::Histogram::bucket_of(v);
        self.0.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        // `sum` may saturate conceptually; wrapping is acceptable for a
        // diagnostic aggregate, but stay faithful to the trace twin.
        let _ = self
            .0
            .sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                Some(s.saturating_add(v))
            });
        self.0.max.fetch_max(v, Ordering::Relaxed);
    }

    fn data(&self) -> HistData {
        let mut buckets: Vec<u64> = self
            .0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        while buckets.last() == Some(&0) {
            buckets.pop();
        }
        HistData {
            buckets,
            count: self.0.count.load(Ordering::Relaxed),
            sum: self.0.sum.load(Ordering::Relaxed),
            max: self.0.max.load(Ordering::Relaxed),
        }
    }
}

enum Slot {
    Counter(Counter),
    Gauge(Gauge),
    Hist(Hist),
}

/// A named set of metrics. Handle resolution takes a mutex
/// (registration time only); the handles themselves are lock-free.
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

    /// The histogram named `name`, created on first use.
    ///
    /// # Panics
    ///
    /// Panics when `name` is already registered as a different kind.
    pub fn histogram(&self, name: &str) -> Hist {
        let mut slots = self.slots.lock().unwrap();
        match slots
            .entry(name.to_owned())
            .or_insert_with(|| Slot::Hist(Hist(Arc::new(HistCell::new()))))
        {
            Slot::Hist(h) => h.clone(),
            _ => panic!("metric `{name}` is not a histogram"),
        }
    }

    /// A deterministic snapshot: metrics sorted by name (the registry
    /// map is ordered), labels empty (live metrics are label-free;
    /// labelled series come from [`from_trace`]).
    pub fn snapshot(&self) -> Snapshot {
        let slots = self.slots.lock().unwrap();
        let mut snap = Snapshot::default();
        for (name, slot) in slots.iter() {
            let key = Key::plain(name);
            match slot {
                Slot::Counter(c) => snap.counters.push((key, c.get())),
                Slot::Gauge(g) => snap.gauges.push((key, g.get())),
                Slot::Hist(h) => snap.hists.push((key, h.data())),
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

/// Exported histogram state (the non-atomic view of [`Hist`]).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct HistData {
    /// Trailing zero buckets trimmed.
    pub buckets: Vec<u64>,
    pub count: u64,
    pub sum: u64,
    pub max: u64,
}

impl HistData {
    /// Converts from the trace profiler's histogram.
    pub fn from_trace_hist(h: &trace::Histogram) -> HistData {
        HistData {
            buckets: h.buckets.clone(),
            count: h.count,
            sum: h.sum,
            max: h.max,
        }
    }
}

/// A point-in-time view of every metric, sorted by `(name, labels)` so
/// equal metric state renders to equal bytes.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Snapshot {
    pub counters: Vec<(Key, u64)>,
    pub gauges: Vec<(Key, u64)>,
    pub hists: Vec<(Key, HistData)>,
}

impl Snapshot {
    /// Restores the canonical order after out-of-order insertion.
    pub fn sort(&mut self) {
        self.counters.sort_by(|a, b| a.0.cmp(&b.0));
        self.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        self.hists.sort_by(|a, b| a.0.cmp(&b.0));
    }

    /// Canonical JSON (`ali-metrics-v1`): fixed key order, sorted
    /// series, no whitespace — byte equality is snapshot equality.
    pub fn to_json(&self) -> String {
        json::encode(self)
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
        a.inc();
        b.add(3);
        reg.counter("aaa").inc(); // same handle cell
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(k, _)| k.name.as_str()).collect();
        assert_eq!(names, ["aaa", "bbb"]);
        assert_eq!(snap.counters[0].1, 2);
        assert_eq!(snap.counters[1].1, 3);
    }

    #[test]
    fn histogram_buckets_match_the_trace_profiler() {
        let reg = Registry::new();
        let h = reg.histogram("h");
        let mut t = trace::Histogram::default();
        for v in [0u64, 1, 2, 3, 7, 8, 1000, u64::MAX] {
            h.observe(v);
            t.add(v);
        }
        let data = reg.snapshot().hists[0].1.clone();
        assert_eq!(data, HistData::from_trace_hist(&t));
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
