//! Exporters: Prometheus text exposition and speedscope flamegraphs.
//!
//! Both are deterministic renderings — [`prometheus`] walks the
//! sorted [`Snapshot`] series in order, [`speedscope`] walks the
//! trace's total event order — so equal inputs export to equal bytes
//! (the golden-file tests pin both formats).

use crate::{Key, Snapshot};
use std::collections::HashMap;
use std::fmt::Write as _;
use trace::json::push_escaped;
use trace::sections::{Cursor, Step};
use trace::{EventKind, Histogram, Trace};

fn push_series_name(out: &mut String, key: &Key, suffix: &str, extra: Option<(&str, String)>) {
    out.push_str(&key.name);
    out.push_str(suffix);
    let mut labels: Vec<(&str, String)> = key
        .labels
        .iter()
        .map(|(k, v)| (k.as_str(), v.clone()))
        .collect();
    if let Some((k, v)) = extra {
        labels.push((k, v));
    }
    if !labels.is_empty() {
        out.push('{');
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            // Prometheus label escaping: backslash, quote, newline.
            let escaped = v
                .replace('\\', "\\\\")
                .replace('"', "\\\"")
                .replace('\n', "\\n");
            let _ = write!(out, "{k}=\"{escaped}\"");
        }
        out.push('}');
    }
}

fn push_type_line(out: &mut String, last: &mut String, name: &str, kind: &str) {
    if last != name {
        let _ = writeln!(out, "# TYPE {name} {kind}");
        last.clear();
        last.push_str(name);
    }
}

fn push_scalars(out: &mut String, series: &[(Key, u64)], kind: &str) {
    let mut last = String::new();
    for (key, v) in series {
        push_type_line(out, &mut last, &key.name, kind);
        push_series_name(out, key, "", None);
        let _ = writeln!(out, " {v}");
    }
}

/// The inclusive upper bound of log₂ bucket `i` (samples `v` with
/// `⌊log₂(v+1)⌋ == i`), as the Prometheus `le` label.
fn bucket_le(i: usize) -> String {
    ((1u128 << (i + 1)) - 2).to_string()
}

fn push_hist(out: &mut String, key: &Key, h: &Histogram) {
    let mut cum = 0u64;
    for (i, b) in h.buckets.iter().enumerate() {
        cum += b;
        push_series_name(out, key, "_bucket", Some(("le", bucket_le(i))));
        let _ = writeln!(out, " {cum}");
    }
    push_series_name(out, key, "_bucket", Some(("le", "+Inf".to_owned())));
    let _ = writeln!(out, " {}", h.count);
    push_series_name(out, key, "_sum", None);
    let _ = writeln!(out, " {}", h.sum);
    push_series_name(out, key, "_count", None);
    let _ = writeln!(out, " {}", h.count);
}

/// Renders a snapshot in the Prometheus text exposition format
/// (counters, gauges, and log₂ histograms with cumulative buckets).
pub fn prometheus(snap: &Snapshot) -> String {
    let mut out = String::new();
    push_scalars(&mut out, &snap.counters, "counter");
    push_scalars(&mut out, &snap.gauges, "gauge");
    let mut last = String::new();
    for (key, h) in &snap.hists {
        push_type_line(&mut out, &mut last, &key.name, "histogram");
        push_hist(&mut out, key, h);
    }
    out
}

// ----------------------------------------------------------------------
// Speedscope flamegraph export

#[derive(Default)]
struct ThreadProf {
    sections: Cursor,
    /// Open frame indices, innermost last.
    stack: Vec<usize>,
    /// `(open?, frame, at)` events in thread order.
    events: Vec<(bool, usize, u64)>,
    start: Option<u64>,
    last: u64,
}

impl ThreadProf {
    fn open(&mut self, frame: usize, at: u64) {
        self.stack.push(frame);
        self.events.push((true, frame, at));
    }

    fn close_top(&mut self, at: u64) {
        if let Some(frame) = self.stack.pop() {
            self.events.push((false, frame, at));
        }
    }
}

/// Renders the trace's per-section wait/hold structure as a
/// speedscope evented profile (one profile per thread; each outermost
/// section execution is a frame, with its pre-acquisition wait as a
/// child frame). Open it at <https://www.speedscope.app>.
pub fn speedscope(t: &Trace) -> String {
    let mut frames: Vec<String> = Vec::new();
    let mut frame_ids: HashMap<String, usize> = HashMap::new();
    let mut frame_of = |name: String| -> usize {
        *frame_ids.entry(name.clone()).or_insert_with(|| {
            frames.push(name);
            frames.len() - 1
        })
    };
    // Lock-discipline traces mark acquisition points; STM traces have
    // none, so no wait frames can be attributed.
    let has_plans = t.events.iter().any(|e| e.kind == EventKind::PlanComplete);
    let mut threads: std::collections::BTreeMap<u32, ThreadProf> = Default::default();
    for e in &t.events {
        let th = threads.entry(e.tid).or_default();
        th.start.get_or_insert(e.clock);
        th.last = th.last.max(e.clock);
        match th.sections.step(e) {
            step @ (Step::EnteredOutermost { section } | Step::EnteredNested { section }) => {
                let f = frame_of(format!("section {section}"));
                th.open(f, e.clock);
                if has_plans && matches!(step, Step::EnteredOutermost { .. }) {
                    let w = frame_of(format!("section {section} wait"));
                    th.open(w, e.clock);
                }
            }
            // Only the first completion ends the wait; revalidation
            // retries happen inside the hold interval.
            Step::Acquired { first: true } | Step::ExitedNested => th.close_top(e.clock),
            Step::ExitedOutermost(x) => {
                // No completion seen (truncation): the wait ends here too.
                if has_plans && x.acquired.is_none() {
                    th.close_top(e.clock);
                }
                th.close_top(e.clock);
            }
            Step::Aborted { .. } => {
                // The attempt unwound: every open frame ends here.
                while !th.stack.is_empty() {
                    th.close_top(e.clock);
                }
            }
            Step::Acquired { first: false } | Step::Other => {}
        }
    }

    let mut out = String::new();
    out.push_str("{\"$schema\":\"https://www.speedscope.app/file-format-schema.json\",");
    out.push_str("\"shared\":{\"frames\":[");
    for (i, name) in frames.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        push_escaped(&mut out, name);
        out.push('}');
    }
    out.push_str("]},\"profiles\":[");
    for (i, (tid, th)) in threads.iter_mut().enumerate() {
        // A truncated or crashed thread leaves frames open; close them
        // at its final clock so the profile stays well-formed.
        let last = th.last;
        while !th.stack.is_empty() {
            th.close_top(last);
        }
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"type\":\"evented\",\"name\":\"thread {tid}\",\"unit\":\"none\",\
             \"startValue\":{},\"endValue\":{},\"events\":[",
            th.start.unwrap_or(0),
            th.last
        );
        for (j, (open, frame, at)) in th.events.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"type\":\"{}\",\"frame\":{frame},\"at\":{at}}}",
                if *open { 'O' } else { 'C' }
            );
        }
        out.push_str("]}");
    }
    out.push_str("],\"name\":\"ali section wait/hold profile\",");
    out.push_str("\"exporter\":\"ali-obs\",\"activeProfileIndex\":0}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace::Event;

    fn ev(epoch: u64, tid: u32, clock: u64, kind: EventKind) -> Event {
        Event {
            epoch,
            tid,
            clock,
            kind,
        }
    }

    #[test]
    fn prometheus_renders_cumulative_buckets() {
        let mut snap = Snapshot::default();
        snap.counters.push((Key::plain("c_total"), 2));
        snap.hists.push((
            Key::labelled("h_ticks", "section", 1),
            Histogram {
                buckets: vec![1, 2],
                count: 3,
                sum: 4,
                max: 2,
            },
        ));
        let text = prometheus(&snap);
        assert!(text.contains("# TYPE c_total counter\nc_total 2\n"));
        assert!(text.contains("h_ticks_bucket{section=\"1\",le=\"0\"} 1\n"));
        assert!(text.contains("h_ticks_bucket{section=\"1\",le=\"2\"} 3\n"));
        assert!(text.contains("h_ticks_bucket{section=\"1\",le=\"+Inf\"} 3\n"));
        assert!(text.contains("h_ticks_sum{section=\"1\"} 4\n"));
        assert!(text.contains("h_ticks_count{section=\"1\"} 3\n"));
    }

    #[test]
    fn speedscope_frames_nest_and_close() {
        let t = Trace {
            events: vec![
                ev(0, 0, 10, EventKind::SectionEnter { section: 3 }),
                ev(1, 0, 15, EventKind::PlanComplete),
                ev(2, 0, 30, EventKind::SectionExit { section: 3 }),
                ev(3, 1, 5, EventKind::SectionEnter { section: 3 }),
            ],
            ..Trace::default()
        };
        let s = speedscope(&t);
        // Frame order is first-use: section 3, then its wait frame.
        assert!(s.contains("{\"name\":\"section 3\"},{\"name\":\"section 3 wait\"}"));
        // Thread 0: O section, O wait, C wait at the acquisition point,
        // C section at exit.
        assert!(s.contains(
            "{\"type\":\"O\",\"frame\":0,\"at\":10},{\"type\":\"O\",\"frame\":1,\"at\":10},\
             {\"type\":\"C\",\"frame\":1,\"at\":15},{\"type\":\"C\",\"frame\":0,\"at\":30}"
        ));
        // Thread 1 dangles: closed at its last clock.
        assert!(s.contains(
            "{\"type\":\"C\",\"frame\":1,\"at\":5},{\"type\":\"C\",\"frame\":0,\"at\":5}"
        ));
    }
}
