//! `analysis-bench` — tracked throughput benchmark for the lock
//! inference engine.
//!
//! For each synthetic tier of [`workloads::scale`] it times three
//! solvers over the *same* compiled program and points-to results:
//!
//! * `reference` — the retained naive per-section engine
//!   ([`lockinfer::reference`]), the "before" baseline;
//! * `optimized` — the hash-consed/small-list/summary-cached engine,
//!   single-threaded;
//! * `parallel` — the same engine with one worker per core.
//!
//! All three must agree exactly on every section's lock set (checked on
//! every run), and the optimized engine's work counters are recorded
//! alongside the wall times. Each row's `interner_locks` /
//! `interner_paths` are that tier's own: the distinct lock terms and
//! paths in the tables of the engines that analysed it (they were
//! cumulative over the rows while lock terms lived in a process-wide
//! table).
//!
//! The tiers are many small sections. Table 1's shape is the opposite —
//! one section over the whole program — so two last rows time the
//! optimized engine alone on `spec_like` programs and report its work
//! counters and the process's peak RSS so far: `spec-2k`
//! (`generate(_, 2.0, 10)` at k=9, where the width bound fires) and
//! `spec-70k-k0` (`generate(_, 71.6, 10)` at k=0, the benchmark's
//! `spec70k-k0`, where Phase A's summary sets are the whole analysis
//! and an insert that scans the set again is quadratic). There is no
//! naive column: under widening the reference legitimately disagrees
//! (`tests/spec_like_pinned.rs`) and takes seconds. Beside the engine,
//! those rows time the two layers in front of it on the same source:
//! `frontend_ms` (`lir::compile`: lex, parse, lower, drop the AST) and
//! `pointsto_ms` (`PointsTo::analyze`), since at k=0 on 71.6 kloc they
//! take as long as the analysis does.
//!
//! ```text
//! cargo run -p bench --release --bin analysis-bench -- [--smoke]
//!     [--out FILE] [--check FILE]
//! ```
//!
//! `--smoke` runs only the smallest tier and the two SPEC-like rows
//! (for CI). An unknown argument, or `--out` / `--check` without a
//! file, prints the usage line and exits 2 before anything runs; a
//! `--check` file that cannot be read or parsed exits 1 with a
//! one-line error, also before anything runs.
//! `--out FILE` writes the JSON report; without it nothing is written.
//! `--check FILE` compares against a committed report and
//! exits non-zero if any measured wall time (every row's `optimized_ms`,
//! and the SPEC-like rows' `frontend_ms` and `pointsto_ms`) regressed
//! more than 2× — a coarse gate that survives machine-to-machine noise
//! but catches real algorithmic regressions. Each committed time is
//! first scaled by the run's host factor: the median, over the checked
//! values, of measured / committed, floored at 1. A host uniformly
//! slower than the committing one moves every ratio and so the median;
//! one regressed value moves only itself. A host at least as fast as
//! the committing one is gated on the committed times as they are.
//!
//! `--check` also gates two times on their ratio to another time of
//! the same run ([`RATIO_GATES`]): `spec-70k-k0`'s `optimized_ms` and
//! `frontend_ms`, each over the row's `pointsto_ms`. A host phase slows
//! both sides of a ratio alike, so the ratio may grow only
//! [`RATIO_FACTOR`] past the committed one; a k = 0 analysis or a
//! frontend that regresses alone moves its ratio by the whole
//! regression.
//!
//! A full run (not `--smoke`) measures every row in [`SWEEPS`] sweeps
//! and reports each row from its fastest sweep, so one slow moment of
//! the host does not become a committed time.

use lockscheme::SchemeConfig;
use std::time::Instant;
use trace::json::Writer;
use workloads::{scale, spec_like};

/// Allowed slowdown versus the committed baseline, once scaled by the
/// host factor, before `--check` fails.
const CHECK_FACTOR: f64 = 2.0;

/// A measured time: its row's name and its key.
type Time = (&'static str, &'static str);

/// Times gated on their ratio to a time of the same run: each
/// `((row, key), (row, key))` is a numerator and its denominator. The
/// denominator is the same row's points-to time, which is measured and
/// committed with it.
const RATIO_GATES: [(Time, Time); 2] = [
    (
        ("spec-70k-k0", "optimized_ms"),
        ("spec-70k-k0", "pointsto_ms"),
    ),
    (
        ("spec-70k-k0", "frontend_ms"),
        ("spec-70k-k0", "pointsto_ms"),
    ),
];

/// How far a gated ratio may grow past the committed one before
/// `--check` fails.
const RATIO_FACTOR: f64 = 1.25;

/// One ratio gate's verdict: the gate, the ratio this run measured, the
/// committed one, and whether the measured one is past the limit.
struct RatioCheck {
    gate: (Time, Time),
    measured: f64,
    committed: f64,
    failed: bool,
}

/// Every ratio gate both this run and the baseline have both times of.
fn ratio_checks(
    measured: &[(&str, &str, f64)],
    baseline: &[(String, String, f64)],
) -> Vec<RatioCheck> {
    let run = |(row, key): (&str, &str)| {
        measured
            .iter()
            .find(|&&(n, k, _)| n == row && k == key)
            .map(|m| m.2)
    };
    let committed = |(row, key): (&str, &str)| {
        baseline
            .iter()
            .find(|(n, k, _)| n == row && k == key)
            .map(|b| b.2)
    };
    RATIO_GATES
        .iter()
        .filter_map(|&gate @ (num, den)| {
            let measured = run(num)? / run(den)?;
            let committed = committed(num)? / committed(den)?;
            Some(RatioCheck {
                gate,
                measured,
                committed,
                failed: measured > committed * RATIO_FACTOR,
            })
        })
        .collect()
}

/// How much slower this host runs than the one that committed the
/// baseline: the median of the `measured / committed` ratios, floored
/// at 1 (a faster host keeps the committed times).
fn host_factor(ratios: &[f64]) -> f64 {
    let mut r = ratios.to_vec();
    r.sort_by(f64::total_cmp);
    let median = match r.len() {
        0 => 1.0,
        n if n % 2 == 1 => r[n / 2],
        n => (r[n / 2 - 1] + r[n / 2]) / 2.0,
    };
    median.max(1.0)
}

struct TierReport {
    name: String,
    kloc: f64,
    sections: usize,
    functions: usize,
    reference_ms: f64,
    optimized_ms: f64,
    parallel_ms: f64,
    stats: lockinfer::AnalysisStats,
}

/// A one-section SPEC-like row: `spec_like::generate(_, kloc, seed)`
/// at `k`.
struct SpecRow {
    name: &'static str,
    kloc: f64,
    seed: u64,
    k: usize,
}

const SPEC_ROWS: [SpecRow; 2] = [
    SpecRow {
        name: "spec-2k",
        kloc: 2.0,
        seed: 10,
        k: 9,
    },
    SpecRow {
        name: "spec-70k-k0",
        kloc: 71.6,
        seed: 10,
        k: 0,
    },
];

struct SpecReport {
    row: &'static SpecRow,
    kloc: f64,
    functions: usize,
    frontend_ms: f64,
    pointsto_ms: f64,
    optimized_ms: f64,
    stats: lockinfer::AnalysisStats,
    peak_rss_mb: f64,
}

/// Sweeps over every row in a full run; each row is reported from the
/// sweep with the least total time.
const SWEEPS: usize = 3;

impl TierReport {
    fn total_ms(&self) -> f64 {
        self.reference_ms + self.optimized_ms + self.parallel_ms
    }
}

impl SpecReport {
    fn total_ms(&self) -> f64 {
        self.frontend_ms + self.pointsto_ms + self.optimized_ms
    }
}

fn best_of<F: FnMut() -> f64>(iters: usize, mut f: F) -> f64 {
    (0..iters).map(|_| f()).fold(f64::INFINITY, f64::min)
}

fn run_tier(name: &str, p: scale::ScaleParams, iters: usize) -> TierReport {
    let spec = scale::generate(name, p);
    let program = lir::compile(&spec.source).unwrap_or_else(|e| panic!("{name}: {e}"));
    let pt = pointsto::PointsTo::analyze(&program);
    let cfg = SchemeConfig::full(3, program.elem_field_opt());
    let lib = lockinfer::library::LibrarySpec::new();

    let reference_ms = best_of(iters, || {
        let t = Instant::now();
        std::hint::black_box(lockinfer::analyze_program_reference(
            &program, &pt, cfg, &lib,
        ));
        t.elapsed().as_secs_f64() * 1e3
    });
    let optimized_ms = best_of(iters, || {
        let t = Instant::now();
        std::hint::black_box(lockinfer::analyze_program_with_opts(
            &program, &pt, cfg, &lib, 1,
        ));
        t.elapsed().as_secs_f64() * 1e3
    });
    let parallel_ms = best_of(iters, || {
        let t = Instant::now();
        std::hint::black_box(lockinfer::analyze_program_with_opts(
            &program, &pt, cfg, &lib, 0,
        ));
        t.elapsed().as_secs_f64() * 1e3
    });

    // Correctness gate: all three solvers agree exactly.
    let refr = lockinfer::analyze_program_reference(&program, &pt, cfg, &lib);
    let seq = lockinfer::analyze_program_with_opts(&program, &pt, cfg, &lib, 1);
    let par = lockinfer::analyze_program_with_opts(&program, &pt, cfg, &lib, 0);
    assert_eq!(refr.len(), seq.sections.len());
    for (r, s) in refr.iter().zip(&seq.sections) {
        assert_eq!(r.id, s.id, "{name}: section order");
        assert_eq!(
            r.locks, s.locks,
            "{name}: reference vs optimized, section {:?}",
            r.id
        );
    }
    for (s, q) in seq.sections.iter().zip(&par.sections) {
        assert_eq!(
            s.locks, q.locks,
            "{name}: sequential vs parallel, section {:?}",
            s.id
        );
    }

    TierReport {
        name: name.to_owned(),
        kloc: spec.kloc(),
        sections: refr.len(),
        functions: program.functions.len(),
        reference_ms,
        optimized_ms,
        parallel_ms,
        stats: par.stats,
    }
}

fn time_ms<T>(f: impl FnOnce() -> T) -> f64 {
    let t = Instant::now();
    std::hint::black_box(f());
    t.elapsed().as_secs_f64() * 1e3
}

fn run_spec(row: &'static SpecRow, iters: usize) -> SpecReport {
    let name = row.name;
    let spec = spec_like::generate(name, row.kloc, row.seed);
    let program = lir::compile(&spec.source).unwrap_or_else(|e| panic!("{name}: {e}"));
    let pt = pointsto::PointsTo::analyze(&program);
    let cfg = SchemeConfig::full(row.k, program.elem_field_opt());
    let lib = lockinfer::library::LibrarySpec::new();
    let mut stats = lockinfer::AnalysisStats::default();
    // The three layers take turns, so a moment of host slowness lands
    // on one repetition of each rather than on all of one: the ratio
    // gates divide them.
    let [mut frontend_ms, mut pointsto_ms, mut optimized_ms] = [f64::INFINITY; 3];
    for _ in 0..iters {
        frontend_ms = frontend_ms.min(time_ms(|| lir::compile(&spec.source)));
        pointsto_ms = pointsto_ms.min(time_ms(|| pointsto::PointsTo::analyze(&program)));
        let t = Instant::now();
        let analysis = lockinfer::analyze_program_with_opts(&program, &pt, cfg, &lib, 1);
        optimized_ms = optimized_ms.min(t.elapsed().as_secs_f64() * 1e3);
        assert_eq!(analysis.sections.len(), 1, "{name}: one section");
        stats = analysis.stats;
    }
    SpecReport {
        row,
        kloc: spec.kloc(),
        functions: program.functions.len(),
        frontend_ms,
        pointsto_ms,
        optimized_ms,
        stats,
        peak_rss_mb: peak_rss_mb(),
    }
}

/// The process's high-water resident set (`VmHWM`), or 0 where
/// `/proc` does not say.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn encode(tiers: &[TierReport], specs: &[SpecReport]) -> String {
    let mut out = String::new();
    let mut w = Writer::new(&mut out);
    w.object().key("format").str("ali-analysis-bench-v1");
    w.key("tiers").array();
    for t in tiers {
        let s = &t.stats;
        let speedup = |ms| t.reference_ms / ms;
        w.object().key("name").str(&t.name);
        w.key("kloc").fixed(t.kloc, 1);
        w.key("sections").u64(t.sections as u64);
        w.key("functions").u64(t.functions as u64);
        w.key("reference_ms").fixed(t.reference_ms, 3);
        w.key("optimized_ms").fixed(t.optimized_ms, 3);
        w.key("parallel_ms").fixed(t.parallel_ms, 3);
        w.key("speedup_opt").fixed(speedup(t.optimized_ms), 2);
        w.key("speedup_par").fixed(speedup(t.parallel_ms), 2);
        w.key("worklist_pops").u64(s.worklist_pops);
        w.key("facts_inserted").u64(s.facts_inserted);
        w.key("peak_point_locks").u64(s.peak_point_locks as u64);
        w.key("summary_cache_hits").u64(s.summary_cache_hits);
        w.key("summary_cache_misses").u64(s.summary_cache_misses);
        w.key("summary_functions").u64(s.summary_functions as u64);
        w.key("summary_queries").u64(s.summary_queries as u64);
        w.key("contexts").u64(s.contexts);
        w.key("state_points").u64(s.state_points);
        w.key("transfer_memo_hits").u64(s.transfer_memo_hits);
        w.key("interner_locks").u64(s.interner_locks as u64);
        w.key("interner_paths").u64(s.interner_paths as u64);
        w.key("threads").u64(s.threads as u64).end_object();
    }
    w.end_array().key("specs").array();
    for spec in specs {
        let s = &spec.stats;
        w.object().key("name").str(spec.row.name);
        w.key("kloc").fixed(spec.kloc, 1);
        w.key("k").u64(spec.row.k as u64);
        w.key("sections").u64(1);
        w.key("functions").u64(spec.functions as u64);
        w.key("frontend_ms").fixed(spec.frontend_ms, 3);
        w.key("pointsto_ms").fixed(spec.pointsto_ms, 3);
        w.key("optimized_ms").fixed(spec.optimized_ms, 3);
        w.key("worklist_pops").u64(s.worklist_pops);
        w.key("widenings").u64(s.widenings);
        w.key("contexts").u64(s.contexts);
        w.key("state_points").u64(s.state_points);
        w.key("transfer_memo_hits").u64(s.transfer_memo_hits);
        w.key("peak_rss_mb").fixed(spec.peak_rss_mb, 1).end_object();
    }
    w.end_array().end_object();
    out.push('\n');
    out
}

/// `(row name, key, ms)` for every `*_ms` member of a report's rows,
/// tiers first, in document order.
fn committed_ms(json: &str) -> Result<Vec<(String, String, f64)>, String> {
    // Report object → row array → row object.
    let report = trace::json::parse(json, 3)?;
    let mut out = Vec::new();
    for rows in ["tiers", "specs"] {
        for row in report.field(rows)?.as_arr(rows)? {
            let name = row.field("name")?.as_str("name")?;
            for (key, v) in row.as_obj("row")? {
                if key.ends_with("_ms") {
                    out.push((name.to_owned(), key.clone(), v.as_f64(key)?));
                }
            }
        }
    }
    Ok(out)
}

const USAGE: &str = "usage: analysis-bench [--smoke] [--out FILE] [--check FILE]";

/// The command line, read in full before anything runs.
#[derive(Default)]
struct Args {
    smoke: bool,
    out: Option<String>,
    check: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args::default();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let slot = match arg.as_str() {
            "--smoke" => {
                parsed.smoke = true;
                continue;
            }
            "--out" => &mut parsed.out,
            "--check" => &mut parsed.check,
            _ => return Err(format!("unknown argument `{arg}`")),
        };
        match args.next() {
            Some(file) if !file.starts_with("--") => *slot = Some(file.clone()),
            _ => return Err(format!("`{arg}` needs a file")),
        }
    }
    Ok(parsed)
}

/// The committed report `--check` holds this run to.
fn read_baseline(path: &str) -> Result<Vec<(String, String, f64)>, String> {
    let committed = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    committed_ms(&committed)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Args {
        smoke,
        out: out_path,
        check: check_path,
    } = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("analysis-bench: {e}\n{USAGE}");
        std::process::exit(2)
    });
    let check = check_path.map(|path| {
        let baseline = read_baseline(&path).unwrap_or_else(|e| {
            eprintln!("analysis-bench: --check {path}: {e}");
            std::process::exit(1)
        });
        (path, baseline)
    });

    let mut tiers = scale::tiers();
    if smoke {
        tiers.truncate(1);
    }
    let iters = 3;
    let sweeps = if smoke { 1 } else { SWEEPS };
    let mut reports: Vec<TierReport> = Vec::new();
    let mut specs: Vec<SpecReport> = Vec::new();
    for _ in 0..sweeps {
        for (i, &(name, p)) in tiers.iter().enumerate() {
            let r = run_tier(name, p, iters);
            match reports.get_mut(i) {
                Some(best) if best.total_ms() <= r.total_ms() => {}
                Some(best) => *best = r,
                None => reports.push(r),
            }
        }
        for (i, row) in SPEC_ROWS.iter().enumerate() {
            let r = run_spec(row, iters);
            match specs.get_mut(i) {
                Some(best) if best.total_ms() <= r.total_ms() => {}
                Some(best) => *best = r,
                None => specs.push(r),
            }
        }
    }

    println!("analysis-bench: lock-inference engine throughput");
    println!(
        "{:<13} {:>6} {:>5} {:>12} {:>12} {:>12} {:>7} {:>7}",
        "tier", "KLOC", "secs", "naive (ms)", "opt (ms)", "par (ms)", "x-opt", "x-par"
    );
    for r in &reports {
        println!(
            "{:<13} {:>6.1} {:>5} {:>12.2} {:>12.2} {:>12.2} {:>7.2} {:>7.2}",
            r.name,
            r.kloc,
            r.sections,
            r.reference_ms,
            r.optimized_ms,
            r.parallel_ms,
            r.reference_ms / r.optimized_ms,
            r.reference_ms / r.parallel_ms,
        );
    }
    let last = reports.last().expect("at least one tier");
    println!(
        "largest tier ({}): {:.2}x single-threaded, {:.2}x parallel over the naive engine",
        last.name,
        last.reference_ms / last.optimized_ms,
        last.reference_ms / last.parallel_ms,
    );

    for spec in &specs {
        let row = spec.row;
        println!(
            "{} (k={}, 1 section, {:.1} KLOC): frontend {:.2} ms, points-to {:.2} ms, \
                 {:.2} ms optimized, {} pops, {} widenings, \
                 {} contexts, {} state points, peak RSS {:.1} MB",
            row.name,
            row.k,
            spec.kloc,
            spec.frontend_ms,
            spec.pointsto_ms,
            spec.optimized_ms,
            spec.stats.worklist_pops,
            spec.stats.widenings,
            spec.stats.contexts,
            spec.stats.state_points,
            spec.peak_rss_mb,
        );
    }

    if let Some((path, baseline)) = &check {
        let mut failed = false;
        let measured: Vec<(&str, &str, f64)> = reports
            .iter()
            .map(|r| (r.name.as_str(), "optimized_ms", r.optimized_ms))
            .chain(specs.iter().flat_map(|s| {
                [
                    (s.row.name, "frontend_ms", s.frontend_ms),
                    (s.row.name, "pointsto_ms", s.pointsto_ms),
                    (s.row.name, "optimized_ms", s.optimized_ms),
                ]
            }))
            .collect();
        let mut checked = Vec::new();
        for &(name, key, ms) in &measured {
            match baseline.iter().find(|(n, k, _)| n == name && k == key) {
                Some(&(_, _, base_ms)) => checked.push((name, key, ms, base_ms)),
                None => println!("check: {name} {key} absent from {path}, skipping"),
            }
        }
        let ratios: Vec<f64> = checked.iter().map(|&(_, _, ms, base)| ms / base).collect();
        let host = host_factor(&ratios);
        println!(
            "check: host factor {host:.2} (median measured/committed over {} values, floored at 1)",
            ratios.len()
        );
        for (name, key, ms, base_ms) in checked {
            let limit = base_ms * host * CHECK_FACTOR;
            let verdict = if ms > limit {
                failed = true;
                "REGRESSED"
            } else {
                "ok"
            };
            println!(
                "check: {name} {key} {ms:.2} vs committed {base_ms:.2} \
                 (limit {limit:.2}) — {verdict}"
            );
        }
        let mut ratio_failed = false;
        for c in ratio_checks(&measured, baseline) {
            let ((nr, nk), (dr, dk)) = c.gate;
            ratio_failed |= c.failed;
            println!(
                "check: {nr} {nk} / {dr} {dk} {:.3} vs committed {:.3} (limit {:.3}) — {}",
                c.measured,
                c.committed,
                c.committed * RATIO_FACTOR,
                if c.failed { "REGRESSED" } else { "ok" }
            );
        }
        if failed {
            eprintln!(
                "analysis-bench: wall time regressed more than {CHECK_FACTOR}x \
                 the host-scaled committed time"
            );
        }
        if ratio_failed {
            eprintln!(
                "analysis-bench: a time grew more than {RATIO_FACTOR}x against \
                 its same-run reference"
            );
        }
        if failed || ratio_failed {
            std::process::exit(1);
        }
    }

    if let Some(path) = out_path {
        std::fs::write(&path, encode(&reports, &specs))
            .unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("wrote {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One tier and one SPEC-like row with every precision the report
    /// uses (`{:.1}`, `{:.2}`, `{:.3}`), rounding up and down.
    fn fixed_report() -> String {
        let stats = lockinfer::AnalysisStats {
            worklist_pops: 523,
            facts_inserted: 524,
            peak_point_locks: 7,
            widenings: 957,
            summary_cache_hits: 10,
            summary_cache_misses: 1,
            summary_functions: 11,
            summary_queries: 2,
            contexts: 14,
            state_points: 171,
            transfer_memo_hits: 3,
            interner_locks: 161,
            interner_paths: 152,
            threads: 2,
        };
        let tier = TierReport {
            name: "scale-small".to_owned(),
            kloc: 0.26,
            sections: 4,
            functions: 17,
            reference_ms: 0.9664,
            optimized_ms: 0.2316,
            parallel_ms: 0.279,
            stats: stats.clone(),
        };
        let spec = SpecReport {
            row: &SPEC_ROWS[1],
            kloc: 71.64,
            functions: 1189,
            frontend_ms: 22.1959,
            pointsto_ms: 6.7061,
            optimized_ms: 33.4449,
            stats,
            peak_rss_mb: 37.25,
        };
        encode(&[tier], &[spec])
    }

    #[test]
    fn the_report_encoding_is_pinned_to_the_byte() {
        assert_eq!(
            fixed_report(),
            "{\"format\":\"ali-analysis-bench-v1\",\"tiers\":[{\"name\":\"scale-small\",\
             \"kloc\":0.3,\"sections\":4,\"functions\":17,\"reference_ms\":0.966,\
             \"optimized_ms\":0.232,\"parallel_ms\":0.279,\"speedup_opt\":4.17,\
             \"speedup_par\":3.46,\"worklist_pops\":523,\"facts_inserted\":524,\
             \"peak_point_locks\":7,\"summary_cache_hits\":10,\"summary_cache_misses\":1,\
             \"summary_functions\":11,\"summary_queries\":2,\"contexts\":14,\
             \"state_points\":171,\"transfer_memo_hits\":3,\"interner_locks\":161,\
             \"interner_paths\":152,\"threads\":2}],\
             \"specs\":[{\"name\":\"spec-70k-k0\",\"kloc\":71.6,\"k\":0,\"sections\":1,\
             \"functions\":1189,\"frontend_ms\":22.196,\"pointsto_ms\":6.706,\
             \"optimized_ms\":33.445,\"worklist_pops\":523,\"widenings\":957,\
             \"contexts\":14,\"state_points\":171,\"transfer_memo_hits\":3,\
             \"peak_rss_mb\":37.2}]}\n"
        );
    }

    #[test]
    fn the_host_factor_is_the_median_ratio_floored_at_one() {
        // A uniformly slower host: the median follows it.
        assert_eq!(host_factor(&[1.5, 1.4, 1.6]), 1.5);
        // One regressed value cannot drag the median with it.
        assert_eq!(host_factor(&[1.1, 1.2, 2.3, 1.15, 1.05]), 1.15);
        // An even count averages the middle two.
        assert_eq!(host_factor(&[1.2, 1.6, 3.0, 1.0]), 1.4);
        // A faster host, or nothing to compare, is gated as committed.
        assert_eq!(host_factor(&[0.5, 0.7, 0.6]), 1.0);
        assert_eq!(host_factor(&[]), 1.0);
    }

    /// A ratio gate fails only past `RATIO_FACTOR` times the committed
    /// ratio, however slow the host, and skips a gate missing a time.
    #[test]
    fn ratio_gates_hold_a_time_to_its_same_run_reference() {
        let baseline: Vec<(String, String, f64)> = [
            ("spec-2k", "optimized_ms", 100.0),
            ("spec-70k-k0", "optimized_ms", 20.0),
            ("spec-70k-k0", "frontend_ms", 20.0),
            ("spec-70k-k0", "pointsto_ms", 10.0),
        ]
        .map(|(r, k, ms)| (r.to_owned(), k.to_owned(), ms))
        .into();
        let verdicts = |opt: f64, front: f64, host: f64| {
            let run = [
                ("spec-2k", "optimized_ms", 100.0 * host),
                ("spec-70k-k0", "optimized_ms", opt * host),
                ("spec-70k-k0", "frontend_ms", front * host),
                ("spec-70k-k0", "pointsto_ms", 10.0 * host),
            ];
            ratio_checks(&run, &baseline)
                .iter()
                .map(|c| c.failed)
                .collect::<Vec<_>>()
        };
        assert_eq!(verdicts(20.0, 20.0, 1.0), [false, false]);
        assert_eq!(verdicts(24.9, 24.9, 1.8), [false, false]);
        assert_eq!(verdicts(25.1, 20.0, 1.8), [true, false]);
        assert_eq!(verdicts(20.0, 25.1, 1.0), [false, true]);
        let partial = [("spec-70k-k0", "optimized_ms", 40.0)];
        assert!(ratio_checks(&partial, &baseline).is_empty());
    }

    /// `--check` compares against every `*_ms` of the committed
    /// report. Regenerating `BENCH_analysis.json` changes these
    /// numbers; the list is pinned to catch a reader that drops or
    /// misreads one.
    #[test]
    fn the_committed_report_yields_every_timing() {
        let committed = include_str!("../../../../BENCH_analysis.json");
        let expected: Vec<(String, String, f64)> = [
            ("scale-small", "reference_ms", 0.966),
            ("scale-small", "optimized_ms", 0.231),
            ("scale-small", "parallel_ms", 0.279),
            ("scale-medium", "reference_ms", 22.276),
            ("scale-medium", "optimized_ms", 1.191),
            ("scale-medium", "parallel_ms", 1.500),
            ("scale-large", "reference_ms", 171.301),
            ("scale-large", "optimized_ms", 2.755),
            ("scale-large", "parallel_ms", 3.072),
            ("spec-2k", "frontend_ms", 0.705),
            ("spec-2k", "pointsto_ms", 0.176),
            ("spec-2k", "optimized_ms", 94.180),
            ("spec-70k-k0", "frontend_ms", 15.391),
            ("spec-70k-k0", "pointsto_ms", 7.177),
            ("spec-70k-k0", "optimized_ms", 10.458),
        ]
        .map(|(row, key, ms)| (row.to_owned(), key.to_owned(), ms))
        .into();
        assert_eq!(committed_ms(committed), Ok(expected));
    }
}
