//! The measuring process. The parent spawns one child per batch of
//! samples, so every batch gets a fresh process: a cold lock interner
//! for the compile workloads, its own address-space layout and its own
//! peak RSS for all of them.

use crate::contract::SPAN_METRICS;
use crate::json::Json;
use crate::ladder::{self, Sample};
use crate::spans::{self, Tracer};
use crate::stats::{extend_named, Named};
use crate::workloads::{Stage, Workload, DEFAULT_SEED};
use crate::{expected_path, sys};
use std::time::{Duration, Instant};

pub struct Args {
    pub seed: u64,
    pub traced: bool,
    /// Seconds of timed samples to take (at least one sample).
    pub budget: f64,
    /// Write the expected file from this run instead of checking it.
    pub bless: bool,
}

/// Checks tallied over a child's samples.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn op(&mut self, what: &str, ok: bool) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perf-ladder: FAILED: {what}");
        }
        ok
    }

    /// The sample's own checks; true when all hold.
    fn intrinsic(&mut self, s: &Sample) -> bool {
        s.checks
            .iter()
            .fold(true, |all, (what, ok)| self.op(what, *ok) && all)
    }

    /// One op per fact of `reference`: `s` must have observed the same.
    fn same_facts(&mut self, s: &Sample, reference: &[(String, String)], versus: &str) -> bool {
        reference.iter().fold(true, |all, (key, want)| {
            let got = s
                .facts
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.as_str());
            let same = got == Some(want.as_str());
            self.op(&format!("{key}: got {got:?}, {versus} has {want:?}"), same) && all
        })
    }
}

fn owned(facts: &[(&'static str, String)]) -> Vec<(String, String)> {
    facts
        .iter()
        .map(|(k, v)| ((*k).to_owned(), v.clone()))
        .collect()
}

fn load_expected(w: &Workload) -> Result<Vec<(String, String)>, String> {
    let j = Json::read_file(&expected_path(w.name))?;
    let facts = j.get("facts").ok_or("no `facts` object")?;
    Ok(facts
        .as_obj()
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.as_str()?.to_owned())))
        .collect())
}

fn write_expected(w: &Workload, s: &Sample) -> Result<(), String> {
    let j = Json::obj([
        ("workload", Json::str(w.name)),
        ("blessed_at_seed", Json::Num(DEFAULT_SEED as f64)),
        (
            "facts",
            Json::obj(s.facts.iter().map(|(k, v)| (*k, Json::str(v.clone())))),
        ),
    ]);
    let path = expected_path(w.name);
    std::fs::write(&path, format!("{j}\n")).map_err(|e| format!("{}: {e}", path.display()))
}

/// Checks `s` against the committed expected file (or, blessing,
/// writes the file from it).
fn golden(w: &Workload, s: &Sample, bless: bool, tally: &mut Tally) -> bool {
    if bless {
        let written = write_expected(w, s);
        if let Err(e) = &written {
            eprintln!("perf-ladder: {e}");
        }
        return tally.op("the expected file is written", written.is_ok());
    }
    match load_expected(w) {
        Ok(want) => tally.same_facts(s, &want, "the expected file"),
        Err(e) => tally.op(&format!("the expected file loads: {e}"), false),
    }
}

pub fn run(w: &Workload, args: &Args) -> Json {
    let entered = Instant::now();
    let mut pinned = sys::pin();
    let is_pinned = pinned.is_pinned();
    let mut t = Tracer::new(args.traced);
    let mut tally = Tally::default();
    // A failed check voids its sample's timings: `ok` travels with it.
    let mut samples: Vec<(Sample, bool)> = Vec::new();
    // Traced runs only: wall time of each traced sample's untraced
    // twin, taken in this same process so both sides see the same
    // interference.
    let mut twins: Vec<f64> = Vec::new();
    let mut warm_up_s = 0.0;
    let mut layers: Named<&'static str> = Vec::new();
    let mut add_layer = |name: &'static str, v: f64| extend_named(&mut layers, name, [v]);

    if w.stage == Stage::Compile {
        // A compile sample must start cold, so it is this process's
        // only one; its input does not depend on the seed, so it is
        // always checked against the expected file.
        let s = ladder::sample(w, args.seed, &mut t);
        let ok = tally.intrinsic(&s) & golden(w, &s, args.bless, &mut tally);
        samples.push((s, ok));
    } else {
        // Warm-up at the default seed: fills caches and lazy set-up
        // before anything is timed, and is the sample the expected
        // file describes.
        let warm = ladder::sample(w, DEFAULT_SEED, &mut Tracer::new(false));
        tally.intrinsic(&warm);
        golden(w, &warm, args.bless, &mut tally);
        warm_up_s = entered.elapsed().as_secs_f64();
        let start = Instant::now();
        let budget = Duration::from_secs_f64(args.budget);
        let mut first: Option<Vec<(String, String)>> = None;
        // The interpreter's virtual scheduler is deterministic: two
        // runs of one seed must agree on every fact.
        let mut agrees = |s: &Sample, tally: &mut Tally| match &first {
            Some(reference) => tally.same_facts(s, reference, "this run's first sample"),
            None => {
                first = Some(owned(&s.facts));
                true
            }
        };
        // A blessing run takes the warm-up only.
        let mut spent = args.bless;
        while !spent {
            let s = ladder::sample(w, args.seed, &mut t);
            let ok = tally.intrinsic(&s) & agrees(&s, &mut tally);
            samples.push((s, ok));
            if args.traced {
                let twin = ladder::sample(w, args.seed, &mut Tracer::new(false));
                if tally.intrinsic(&twin) & agrees(&twin, &mut tally) {
                    twins.push(twin.setup_s + twin.stage_s);
                }
            }
            spent = start.elapsed() >= budget;
        }
    }

    if args.traced {
        // Per-sample layer timings from the spans, then the sample's
        // own counts and ratios.
        for (id, (s, ok)) in (1..).zip(&samples) {
            if *ok && !twins.is_empty() {
                add_layer("bench.traced_s", s.setup_s + s.stage_s);
            }
            for (span, metric) in SPAN_METRICS {
                let secs = t.seconds_of(span, id);
                if secs > 0.0 {
                    add_layer(metric, secs);
                }
            }
            for (name, v) in &s.layers {
                add_layer(name, *v);
            }
        }
        add_layer("bench.span_coverage", spans::coverage(t.spans(), "stage"));
        for wall in twins {
            add_layer("bench.untraced_s", wall);
        }
        let fastest_stage_s = samples
            .iter()
            .map(|(s, _)| s.stage_s)
            .fold(f64::INFINITY, f64::min);
        let x = ladder::extras(w, args.seed, fastest_stage_s, &mut pinned);
        tally.intrinsic(&x);
        for (name, v) in &x.layers {
            add_layer(name, *v);
        }
    }

    Json::obj([
        (
            "samples",
            Json::Arr(
                samples
                    .iter()
                    .map(|(s, ok)| {
                        Json::obj([
                            // Everything this process did before the
                            // sample's stage could start: pinning, the
                            // warm-up sample, the sample's own inputs.
                            ("setup_s", Json::Num(warm_up_s + s.setup_s)),
                            ("stage_s", Json::Num(s.stage_s)),
                            ("ok", Json::Bool(*ok)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("attempted", Json::Num(tally.attempted as f64)),
        ("failed", Json::Num(tally.failed as f64)),
        ("rss_mb", Json::Num(sys::peak_rss_mb())),
        ("pinned", Json::Bool(is_pinned)),
        (
            "layers",
            Json::obj(
                layers
                    .into_iter()
                    .map(|(n, vs)| (n, Json::Arr(vs.into_iter().map(Json::Num).collect()))),
            ),
        ),
        ("spans", spans::to_json(t.spans(), w.name)),
    ])
}
