//! Canonical JSON for metric snapshots (`ali-metrics-v1`).
//!
//! Same contract as `trace::json`: fixed key order, series sorted by
//! `(name, labels)`, integers as plain `u64`s, no whitespace — so byte
//! equality of two encodings is equality of the snapshots.

use crate::{Key, Snapshot};
use trace::json::push_escaped;

pub(crate) const FORMAT: &str = "ali-metrics-v1";

fn push_key(out: &mut String, key: &Key) {
    push_escaped(out, &key.name);
    out.push_str(",[");
    for (i, (k, v)) in key.labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        push_escaped(out, k);
        out.push(',');
        push_escaped(out, v);
        out.push(']');
    }
    out.push(']');
}

fn push_scalars(out: &mut String, series: &[(Key, u64)]) {
    out.push('[');
    for (i, (key, v)) in series.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        push_key(out, key);
        out.push_str(&format!(",{v}]"));
    }
    out.push(']');
}

fn push_hist(out: &mut String, h: &trace::Histogram) {
    out.push('[');
    for (i, b) in h.buckets.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&b.to_string());
    }
    out.push_str(&format!("],{},{},{}", h.count, h.sum, h.max));
}

/// Encodes a snapshot; the caller is expected to have [`Snapshot::sort`]ed
/// it (the [`crate::Registry`], [`crate::from_trace`] and
/// [`Snapshot::merge`] paths all do).
pub(crate) fn encode(snap: &Snapshot) -> String {
    let mut out = String::new();
    out.push_str("{\"format\":\"");
    out.push_str(FORMAT);
    out.push_str("\",\"counters\":");
    push_scalars(&mut out, &snap.counters);
    out.push_str(",\"gauges\":");
    push_scalars(&mut out, &snap.gauges);
    out.push_str(",\"hists\":[");
    for (i, (key, h)) in snap.hists.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        push_key(&mut out, key);
        out.push(',');
        push_hist(&mut out, h);
        out.push(']');
    }
    out.push_str("]}");
    out
}
