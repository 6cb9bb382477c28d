//! perf-ladder — the repository's wall-clock benchmark: source → locks
//! → run → trace → decision, per layer and end to end. See README.md
//! for the metric and workload glossary; `run.sh` builds and runs this.
//!
//! ```text
//! perf-ladder [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!             [--out FILE] [--bless]
//! perf-ladder compare [--shape] A.json B.json
//! ```
//!
//! With `--workload` the last line of standard output is the one JSON
//! object the benchmark contract reads; without it every workload runs
//! in turn. The process itself only orchestrates: every sample is
//! taken in a child process (`child.rs`).

mod child;
mod compare;
mod contract;
mod json;
mod ladder;
mod results;
mod spans;
mod stats;
mod sys;
mod workloads;

use contract::{END_TO_END, PER_LAYER};
use json::Json;
use results::{Metric, Results, Run, WorkloadResult};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;
use workloads::{Stage, Workload, DEFAULT_SEED, WORKLOADS};

/// Child processes a warm workload's measuring window is split over:
/// each gets its own address-space layout and allocator state, so the
/// reported median is not one process's luck.
const WARM_CHILDREN: usize = 3;
/// A compile sample is a whole child; never report from fewer.
const MIN_COLD_SAMPLES: usize = 3;
/// Traced children a `--trace 1` run's window is split over.
const TRACED_CHILDREN: usize = 3;

fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

pub fn expected_path(workload: &str) -> PathBuf {
    bench_dir()
        .join("expected")
        .join(format!("{workload}.json"))
}

fn benchmark_json() -> Result<Json, String> {
    Json::read_file(&bench_dir().join("../BENCHMARK.json"))
}

struct Cli {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<String>,
    bless: bool,
    /// Child only: seconds of timed samples to take.
    budget: f64,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 0.0,
        traced: false,
        out: None,
        bless: false,
        budget: 0.0,
    };
    let mut seconds = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: &String| v.parse::<f64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let known = || {
                    WORKLOADS
                        .iter()
                        .map(|w| w.name)
                        .collect::<Vec<_>>()
                        .join(", ")
                };
                cli.workload = Some(
                    workloads::find(name)
                        .ok_or_else(|| format!("unknown workload `{name}` (have: {})", known()))?,
                );
            }
            "--seed" => {
                let v = value()?;
                cli.seed = v.parse().map_err(|e| format!("--seed {v}: {e}"))?;
            }
            "--seconds" => seconds = Some(number(value()?)?),
            "--budget" => cli.budget = number(value()?)?,
            "--trace" => cli.traced = number(value()?)? != 0.0,
            "--out" => cli.out = Some(value()?.clone()),
            "--bless" => cli.bless = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    cli.seconds = match seconds {
        Some(s) if s >= 0.0 => s,
        Some(s) => return Err(format!("--seconds {s}: not a window")),
        // Unset: the contract's own.
        None => benchmark_json()?
            .get("run_seconds")
            .and_then(Json::as_f64)
            .ok_or("BENCHMARK.json has no run_seconds")?,
    };
    Ok(cli)
}

#[derive(Clone, Copy)]
struct SampleReport {
    setup_s: f64,
    stage_s: f64,
    /// Every check passed; a failed one voids the sample's timings.
    ok: bool,
}

/// What one child process reported.
struct ChildReport {
    samples: Vec<SampleReport>,
    attempted: u64,
    failed: u64,
    rss_mb: f64,
    pinned: bool,
    layers: stats::Named<String>,
    spans: Vec<Json>,
}

fn spawn_child(w: &Workload, cli: &Cli, traced: bool, budget: f64) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("child")
        .args(["--workload", w.name])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--budget", &budget.to_string()])
        .args(["--seconds", "0"])
        .stderr(Stdio::inherit());
    if cli.bless {
        cmd.arg("--bless");
    }
    // `output` waits for the child: no process outlives this call.
    let out = cmd
        .output()
        .map_err(|e| format!("spawning the child: {e}"))?;
    if !out.status.success() {
        return Err(format!("{}: the child exited with {}", w.name, out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or("the child printed nothing")?;
    let j = Json::parse(line)?;
    let parse = || {
        Some(ChildReport {
            samples: j
                .get("samples")?
                .as_arr()
                .iter()
                .map(|s| {
                    Some(SampleReport {
                        setup_s: s.get("setup_s")?.as_f64()?,
                        stage_s: s.get("stage_s")?.as_f64()?,
                        ok: s.get("ok")?.as_bool()?,
                    })
                })
                .collect::<Option<_>>()?,
            attempted: j.get("attempted")?.as_f64()? as u64,
            failed: j.get("failed")?.as_f64()? as u64,
            rss_mb: j.get("rss_mb")?.as_f64()?,
            pinned: j.get("pinned")?.as_bool()?,
            layers: j
                .get("layers")?
                .as_obj()
                .iter()
                .map(|(k, vs)| {
                    (
                        k.clone(),
                        vs.as_arr().iter().filter_map(Json::as_f64).collect(),
                    )
                })
                .collect(),
            spans: j.get("spans")?.as_arr().to_vec(),
        })
    };
    parse().ok_or_else(|| format!("{}: malformed child report", w.name))
}

/// The samples whose checks all passed — a failed check voids its
/// sample's timing. When every sample failed, all of them, so that the
/// run can still print the result line that reports the failure.
fn valid_samples(children: &[ChildReport]) -> Vec<SampleReport> {
    let all = || children.iter().flat_map(|c| &c.samples).copied();
    let ok: Vec<SampleReport> = all().filter(|s| s.ok).collect();
    if ok.is_empty() {
        all().collect()
    } else {
        ok
    }
}

fn metric(name: &str, unit: &str, values: &[f64]) -> Metric {
    Metric {
        name: name.to_owned(),
        unit: unit.to_owned(),
        values: values.to_vec(),
    }
}

fn tally(w: &Workload, children: &[ChildReport], metrics: Vec<Metric>) -> WorkloadResult {
    WorkloadResult {
        workload: w.name.to_owned(),
        attempted: children.iter().map(|c| c.attempted).sum(),
        failed: children.iter().map(|c| c.failed).sum(),
        metrics,
    }
}

/// `--trace 0`: the end-to-end metrics, tracing off.
fn timed_run(w: &Workload, cli: &Cli) -> Result<WorkloadResult, String> {
    let mut children = Vec::new();
    if w.stage == Stage::Compile {
        let start = Instant::now();
        while children.len() < MIN_COLD_SAMPLES || start.elapsed().as_secs_f64() < cli.seconds {
            children.push(spawn_child(w, cli, false, 0.0)?);
        }
    } else {
        for _ in 0..WARM_CHILDREN {
            children.push(spawn_child(
                w,
                cli,
                false,
                cli.seconds / WARM_CHILDREN as f64,
            )?);
        }
    }
    let samples = valid_samples(&children);
    let column = |f: fn(&SampleReport) -> f64| samples.iter().map(f).collect::<Vec<_>>();
    let rss: Vec<f64> = children.iter().map(|c| c.rss_mb).collect();
    let values = [column(|s| s.stage_s), rss, column(|s| s.setup_s)];
    let metrics = END_TO_END
        .iter()
        .zip(&values)
        .map(|(d, v)| metric(d.name, d.unit, v))
        .collect();
    Ok(tally(w, &children, metrics))
}

/// `--trace 1`: the per-layer metrics, from traced children. Each
/// child also takes every traced sample's untraced twin; the
/// difference between the two is the tracing overhead.
fn traced_run(w: &Workload, cli: &Cli) -> Result<WorkloadResult, String> {
    let budget = cli.seconds / TRACED_CHILDREN as f64;
    let traced = (0..TRACED_CHILDREN)
        .map(|_| spawn_child(w, cli, true, budget))
        .collect::<Result<Vec<_>, _>>()?;
    let mut layers: stats::Named<String> = Vec::new();
    for (name, values) in traced.iter().flat_map(|c| &c.layers) {
        stats::extend_named(&mut layers, name.clone(), values.iter().copied());
    }
    // Fastest against fastest: the one comparison that interference,
    // which only ever adds time, does not swamp.
    let fastest = |name: &str| {
        let values = layers.iter().find(|(n, _)| n == name);
        values
            .and_then(|(_, v)| stats::Summary::of(v))
            .map_or(f64::NAN, |s| s.min)
    };
    let overhead = fastest("bench.traced_s") / fastest("bench.untraced_s") - 1.0;
    layers.push(("bench.tracing_overhead_pct".into(), vec![overhead * 100.0]));
    let ok_samples = traced
        .iter()
        .flat_map(|c| &c.samples)
        .filter(|s| s.ok)
        .count();
    layers.push(("bench.samples".into(), vec![ok_samples as f64]));
    layers.push((
        "bench.pinned".into(),
        vec![f64::from(u8::from(traced.iter().all(|c| c.pinned)))],
    ));

    // One file for the run: each child's `parent` indexes its own
    // spans, so shift it by the spans that came before.
    let mut spans: Vec<Json> = Vec::new();
    for child in &traced {
        let before = spans.len() as f64;
        spans.extend(child.spans.iter().map(|span| {
            Json::obj(span.as_obj().iter().map(|(k, v)| match (k.as_str(), v) {
                ("parent", Json::Num(p)) => (k.clone(), Json::Num(p + before)),
                _ => (k.clone(), v.clone()),
            }))
        }));
    }
    let path = bench_dir()
        .join("out")
        .join(format!("spans-{}.json", w.name));
    write_file(&path, &Json::Arr(spans).to_string())?;

    let metrics = PER_LAYER
        .iter()
        .map(|d| {
            let values = layers
                .iter()
                .find(|(n, _)| n == d.name)
                .map(|(_, v)| v.as_slice());
            metric(d.name, d.unit, values.unwrap_or(&[]))
        })
        .collect();
    Ok(tally(w, &traced, metrics))
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, format!("{text}\n")).map_err(|e| format!("{}: {e}", path.display()))
}

fn run(cli: &Cli) -> Result<i32, String> {
    let selected: Vec<&Workload> = match cli.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    if cli.bless {
        for w in &selected {
            let report = spawn_child(w, cli, false, 0.0)?;
            if report.failed > 0 {
                return Err(format!("{}: blessing failed", w.name));
            }
            println!("blessed {}", expected_path(w.name).display());
        }
        return Ok(0);
    }
    let mut run = Run {
        seed: cli.seed,
        default_seed: DEFAULT_SEED,
        seconds: cli.seconds,
        traced: cli.traced,
        cpus: std::thread::available_parallelism().map_or(1, usize::from),
        workloads: Vec::new(),
    };
    for w in selected {
        let result = if cli.traced {
            traced_run(w, cli)?
        } else {
            timed_run(w, cli)?
        };
        result.print();
        run.workloads.push(result);
    }
    if let (Some(_), [only]) = (cli.workload, run.workloads.as_slice()) {
        println!("{}", only.contract_line());
    }
    let correct = run.workloads.iter().all(WorkloadResult::correct);
    if let Some(out) = &cli.out {
        let path = Path::new(out);
        let mut results = if path.exists() {
            Results::read(path)?
        } else {
            Results::default()
        };
        results.runs.push(run);
        write_file(path, &results.to_json().to_string())?;
    }
    Ok(i32::from(!correct))
}

fn compare_files(args: &[String]) -> Result<i32, String> {
    let (shape_only, files) = match args {
        [flag, rest @ ..] if flag == "--shape" => (true, rest),
        _ => (false, args),
    };
    let [a, b] = files else {
        return Err("usage: compare [--shape] A.json B.json".into());
    };
    let rules = compare::rules(&benchmark_json()?)?;
    let read = |path: &String| Results::read(Path::new(path));
    let ok = compare::compare(&rules, &read(a)?, &read(b)?, shape_only);
    println!("{}", if ok { "compare: ok" } else { "compare: NOT ok" });
    Ok(i32::from(!ok))
}

fn real_main() -> Result<i32, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) if cmd == "compare" => compare_files(rest),
        Some((cmd, rest)) if cmd == "child" => {
            let cli = parse_cli(rest)?;
            let w = cli.workload.ok_or("child needs --workload")?;
            let report = child::run(
                w,
                &child::Args {
                    seed: cli.seed,
                    traced: cli.traced,
                    budget: cli.budget,
                    bless: cli.bless,
                },
            );
            println!("{report}");
            Ok(0)
        }
        _ => run(&parse_cli(&args)?),
    }
}

fn main() {
    std::process::exit(real_main().unwrap_or_else(|e| {
        eprintln!("perf-ladder: {e}");
        2
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    fn listed(benchmark: &Json, key: &str, field: &str) -> Vec<String> {
        benchmark
            .get(key)
            .unwrap()
            .as_arr()
            .iter()
            .map(|e| e.get(field).unwrap().as_str().unwrap().to_owned())
            .collect()
    }

    /// Every name this crate prints is in `BENCHMARK.json` with the
    /// same unit, and the other way round, within the contract's
    /// limits.
    #[test]
    fn benchmark_json_and_the_crate_agree() {
        let b = benchmark_json().unwrap();
        let keys: Vec<&str> = b.as_obj().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );

        let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(listed(&b, "workloads", "name"), ours);
        assert!((2..=8).contains(&ours.len()));
        for why in listed(&b, "workloads", "why") {
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }

        for (key, defs, cap) in [
            ("end_to_end", END_TO_END, 16),
            ("per_layer", PER_LAYER, 128),
        ] {
            assert!(
                (1..=cap).contains(&defs.len()),
                "{key}: {} metrics",
                defs.len()
            );
            let names: Vec<&str> = defs.iter().map(|d| d.name).collect();
            let units: Vec<&str> = defs.iter().map(|d| d.unit).collect();
            assert_eq!(listed(&b, key, "name"), names, "{key} names");
            assert_eq!(listed(&b, key, "unit"), units, "{key} units");
            for u in units {
                let ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
                assert!(u.len() <= 16 && u.chars().all(ok), "unit {u}");
            }
        }
        let mut all: Vec<&str> = ours.clone();
        all.extend(END_TO_END.iter().chain(PER_LAYER).map(|d| d.name));
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        let mut unique = all.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), all.len(), "a name is used once");

        assert!(compare::rules(&b)
            .unwrap()
            .iter()
            .all(|r| r.bound > 0.0 && r.bound <= 0.25));
        assert!(listed(&b, "end_to_end", "name").contains(&"setup_s".to_owned()));
        let seconds = b.get("run_seconds").unwrap().as_f64().unwrap();
        assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    }

    #[test]
    fn every_span_metric_is_a_per_layer_metric() {
        for (span, metric) in contract::SPAN_METRICS {
            assert!(contract::is_per_layer(metric), "{span} -> {metric}");
        }
    }

    #[test]
    fn every_workload_has_an_expected_file() {
        for w in WORKLOADS {
            let j = Json::read_file(&expected_path(w.name)).unwrap();
            assert_eq!(j.get("workload").and_then(Json::as_str), Some(w.name));
            assert!(!j.get("facts").unwrap().as_obj().is_empty());
        }
    }

    #[test]
    fn cli_parses_the_contracts_arguments() {
        let args = [
            "--workload",
            "th-high-t8",
            "--seed",
            "9",
            "--seconds",
            "3",
            "--trace",
            "1",
        ];
        let cli = parse_cli(&args.map(String::from)).unwrap();
        assert_eq!(cli.workload.unwrap().name, "th-high-t8");
        assert_eq!((cli.seed, cli.seconds, cli.traced), (9, 3.0, true));
        assert!(parse_cli(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse_cli(&["--frobnicate".into()]).is_err());
    }
}
