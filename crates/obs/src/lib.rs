//! Unified observability layer (DESIGN.md §5.9).
//!
//! A run's section, lock, fault, wake and STM metrics have one
//! implementation: [`from_trace`], a pure function of the recorded
//! trace bytes, so snapshots are byte-identical at every analysis and
//! eval thread count. The interpreter emits events and nothing else.
//! The few end-of-run totals no trace carries (`ali_run_*` gauges:
//! heap, scheduler hand-offs, sentinel violations, unwound lock
//! sessions) are read off the machine once per run and returned on the
//! recording as a [`Snapshot`] of their own, which [`Snapshot::merge`]
//! joins to the trace's.
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

use trace::json::Writer;

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
}
