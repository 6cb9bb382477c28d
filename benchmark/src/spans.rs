//! Spans around the calls into each layer, recorded from outside the
//! product: name, start, end, parent, sample id. Kept in memory and
//! written out when the child process ends. A layer's self time is its
//! span's duration minus the part its child spans cover.

use crate::json::Json;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Which sample of the run the span belongs to.
    pub sample: u32,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Records spans when enabled; when disabled `span` only calls the
/// closure, so traced and untraced runs share one code path and the
/// untraced one pays a branch.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    sample: u32,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            sample: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts attributing spans to the next sample and returns its id
    /// (1 for the first).
    pub fn next_sample(&mut self) -> u32 {
        self.sample += 1;
        self.sample
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            sample: self.sample,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total seconds of the spans called `name` within sample `id`.
    pub fn seconds_of(&self, name: &str, id: u32) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.sample == id && s.name == name)
            .map(Span::seconds)
            .sum()
    }
}

/// Self time in seconds of every span: duration minus its direct
/// children's durations. Children never overlap (one thread, strictly
/// nested), so this is exactly the uncovered part of the interval.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::seconds).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.seconds();
        }
    }
    own
}

/// Share of the `root`-named spans' wall time that spans below them
/// account for as self time: 1.0 means every nanosecond of the stage
/// is attributed to a named layer.
pub fn coverage(spans: &[Span], root: &str) -> f64 {
    let own = self_times(spans);
    let (mut wall, mut uncovered) = (0.0, 0.0);
    for (s, o) in spans.iter().zip(&own) {
        if s.name == root {
            wall += s.seconds();
            uncovered += o;
        }
    }
    if wall == 0.0 {
        0.0
    } else {
        1.0 - uncovered / wall
    }
}

pub fn to_json(spans: &[Span], workload: &str) -> Json {
    let own = self_times(spans);
    Json::Arr(
        spans
            .iter()
            .zip(own)
            .map(|(s, self_s)| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("workload", Json::str(workload)),
                    ("sample", Json::Num(f64::from(s.sample))),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("self_s", Json::Num(self_s)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            sample: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // stage [0, 100 ms): a [10, 40) with a1 [15, 25) inside; b [50, 90).
        let ms = 1_000_000;
        let spans = vec![
            span("stage", 0, 100 * ms, None),
            span("a", 10 * ms, 40 * ms, Some(0)),
            span("a1", 15 * ms, 25 * ms, Some(1)),
            span("b", 50 * ms, 90 * ms, Some(0)),
        ];
        let own = self_times(&spans);
        let close = |x: f64, y: f64| (x - y).abs() < 1e-12;
        assert!(
            close(own[0], 0.030),
            "stage minus both siblings: {}",
            own[0]
        );
        assert!(close(own[1], 0.020), "a minus its nested child: {}", own[1]);
        assert!(close(own[2], 0.010));
        assert!(close(own[3], 0.040));
        assert!(
            close(own.iter().sum::<f64>(), 0.100),
            "self times partition the root"
        );
        assert!(close(coverage(&spans, "stage"), 0.70));
        assert_eq!(coverage(&spans, "absent"), 0.0);
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        let id = t.next_sample();
        let v = t.span("outer", |t| t.span("inner", |_| 7) + t.span("inner", |_| 1));
        assert_eq!(v, 8);
        let names: Vec<_> = t
            .spans()
            .iter()
            .map(|s| (s.name, s.parent, s.sample))
            .collect();
        assert_eq!(
            names,
            [
                ("outer", None, 1),
                ("inner", Some(0), 1),
                ("inner", Some(0), 1)
            ]
        );
        assert!(t.spans().iter().all(|s| s.end_ns >= s.start_ns));
        assert!(t.seconds_of("inner", id) <= t.seconds_of("outer", id));
        assert_eq!(t.seconds_of("inner", id + 1), 0.0);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("outer", |t| t.span("inner", |_| 3)), 3);
        assert!(off.spans().is_empty());
    }
}
