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
//! (for CI).
//! `--out` writes the JSON report (default `BENCH_analysis.json` when
//! omitted along with `--check`). `--check FILE` compares against a committed report and
//! exits non-zero if any measured wall time (every row's `optimized_ms`,
//! and the SPEC-like rows' `frontend_ms` and `pointsto_ms`) regressed
//! more than 2× — a coarse gate that survives machine-to-machine noise
//! but catches real algorithmic regressions.

use lockscheme::SchemeConfig;
use std::fmt::Write as _;
use std::time::Instant;
use workloads::{scale, spec_like};

/// Allowed slowdown versus the committed baseline before `--check`
/// fails.
const CHECK_FACTOR: f64 = 2.0;

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
    let frontend_ms = best_of(iters, || time_ms(|| lir::compile(&spec.source)));
    let pt = pointsto::PointsTo::analyze(&program);
    let pointsto_ms = best_of(iters, || time_ms(|| pointsto::PointsTo::analyze(&program)));
    let cfg = SchemeConfig::full(row.k, program.elem_field_opt());
    let lib = lockinfer::library::LibrarySpec::new();
    let mut stats = lockinfer::AnalysisStats::default();
    let optimized_ms = best_of(iters, || {
        let t = Instant::now();
        let analysis = lockinfer::analyze_program_with_opts(&program, &pt, cfg, &lib, 1);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        assert_eq!(analysis.sections.len(), 1, "{name}: one section");
        stats = analysis.stats;
        ms
    });
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
    out.push_str("{\"format\":\"ali-analysis-bench-v1\",\"tiers\":[");
    for (i, t) in tiers.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let s = &t.stats;
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"kloc\":{:.1},\"sections\":{},\"functions\":{},\
             \"reference_ms\":{:.3},\"optimized_ms\":{:.3},\"parallel_ms\":{:.3},\
             \"speedup_opt\":{:.2},\"speedup_par\":{:.2},\
             \"worklist_pops\":{},\"facts_inserted\":{},\"peak_point_locks\":{},\
             \"summary_cache_hits\":{},\"summary_cache_misses\":{},\
             \"summary_functions\":{},\"summary_queries\":{},\
             \"contexts\":{},\"state_points\":{},\"transfer_memo_hits\":{},\
             \"interner_locks\":{},\"interner_paths\":{},\"threads\":{}}}",
            t.name,
            t.kloc,
            t.sections,
            t.functions,
            t.reference_ms,
            t.optimized_ms,
            t.parallel_ms,
            t.reference_ms / t.optimized_ms,
            t.reference_ms / t.parallel_ms,
            s.worklist_pops,
            s.facts_inserted,
            s.peak_point_locks,
            s.summary_cache_hits,
            s.summary_cache_misses,
            s.summary_functions,
            s.summary_queries,
            s.contexts,
            s.state_points,
            s.transfer_memo_hits,
            s.interner_locks,
            s.interner_paths,
            s.threads,
        );
    }
    out.push_str("],\"specs\":[");
    for (i, spec) in specs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let s = &spec.stats;
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"kloc\":{:.1},\"k\":{},\"sections\":1,\
             \"functions\":{},\"frontend_ms\":{:.3},\"pointsto_ms\":{:.3},\
             \"optimized_ms\":{:.3},\"worklist_pops\":{},\"widenings\":{},\
             \"contexts\":{},\"state_points\":{},\"transfer_memo_hits\":{},\
             \"peak_rss_mb\":{:.1}}}",
            spec.row.name,
            spec.kloc,
            spec.row.k,
            spec.functions,
            spec.frontend_ms,
            spec.pointsto_ms,
            spec.optimized_ms,
            s.worklist_pops,
            s.widenings,
            s.contexts,
            s.state_points,
            s.transfer_memo_hits,
            spec.peak_rss_mb,
        );
    }
    out.push_str("]}\n");
    out
}

/// Pulls `(row name, key, ms)` for every `*_ms` key out of a committed
/// report with a plain scan — the encoding is canonical and its rows
/// are flat objects, so this stays trivial.
fn extract_baseline(json: &str) -> Vec<(String, String, f64)> {
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(i) = rest.find("\"name\":\"") {
        rest = &rest[i + 8..];
        let Some(end) = rest.find('"') else { break };
        let name = &rest[..end];
        let row = &rest[..rest.find('}').unwrap_or(rest.len())];
        for field in row.split(',') {
            let Some((key, val)) = field.split_once(':') else {
                continue;
            };
            let key = key.trim_matches('"');
            if let (true, Ok(ms)) = (key.ends_with("_ms"), val.parse::<f64>()) {
                out.push((name.to_owned(), key.to_owned(), ms));
            }
        }
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let flag_val = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1).cloned())
    };
    let out_path = flag_val("--out");
    let check_path = flag_val("--check");

    let mut tiers = scale::tiers();
    if smoke {
        tiers.truncate(1);
    }
    let iters = if smoke { 2 } else { 3 };

    println!("analysis-bench: lock-inference engine throughput");
    println!(
        "{:<13} {:>6} {:>5} {:>12} {:>12} {:>12} {:>7} {:>7}",
        "tier", "KLOC", "secs", "naive (ms)", "opt (ms)", "par (ms)", "x-opt", "x-par"
    );
    let reports: Vec<TierReport> = tiers
        .into_iter()
        .map(|(name, p)| {
            let r = run_tier(name, p, iters);
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
            r
        })
        .collect();
    let last = reports.last().expect("at least one tier");
    println!(
        "largest tier ({}): {:.2}x single-threaded, {:.2}x parallel over the naive engine",
        last.name,
        last.reference_ms / last.optimized_ms,
        last.reference_ms / last.parallel_ms,
    );

    let specs: Vec<SpecReport> = SPEC_ROWS
        .iter()
        .map(|row| {
            let spec = run_spec(row, iters);
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
            spec
        })
        .collect();

    if let Some(path) = &check_path {
        let committed =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("--check {path}: {e}"));
        let baseline = extract_baseline(&committed);
        let mut failed = false;
        let measured = reports
            .iter()
            .map(|r| (r.name.as_str(), "optimized_ms", r.optimized_ms))
            .chain(specs.iter().flat_map(|s| {
                [
                    (s.row.name, "frontend_ms", s.frontend_ms),
                    (s.row.name, "pointsto_ms", s.pointsto_ms),
                    (s.row.name, "optimized_ms", s.optimized_ms),
                ]
            }));
        for (name, key, ms) in measured {
            let Some((_, _, base_ms)) = baseline.iter().find(|(n, k, _)| n == name && k == key)
            else {
                println!("check: {name} {key} absent from {path}, skipping");
                continue;
            };
            let limit = base_ms * CHECK_FACTOR;
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
        if failed {
            eprintln!("analysis-bench: wall time regressed more than {CHECK_FACTOR}x");
            std::process::exit(1);
        }
    }

    let write_to = out_path.or_else(|| {
        if check_path.is_none() {
            Some("BENCH_analysis.json".to_owned())
        } else {
            None
        }
    });
    if let Some(path) = write_to {
        std::fs::write(&path, encode(&reports, &specs))
            .unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("wrote {path}");
    }
}
