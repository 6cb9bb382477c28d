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
//! one section over the whole program at k=9, where the width bound
//! fires — so a last row, `spec-2k`, times the optimized engine alone
//! on `spec_like::generate(_, 2.0, 10)` and reports its work counters
//! and the process's peak RSS. There is no naive column: under widening
//! the reference legitimately disagrees (`tests/spec_like_pinned.rs`)
//! and takes seconds.
//!
//! ```text
//! cargo run -p bench --release --bin analysis-bench -- [--smoke]
//!     [--out FILE] [--check FILE]
//! ```
//!
//! `--smoke` runs only the smallest tier and `spec-2k` (for CI).
//! `--out` writes the JSON report (default `BENCH_analysis.json` when
//! omitted along with `--check`). `--check FILE` compares against a committed report and
//! exits non-zero if any measured row's optimized wall time regressed
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

/// The one-section k=9 row.
struct SpecReport {
    kloc: f64,
    functions: usize,
    optimized_ms: f64,
    stats: lockinfer::AnalysisStats,
    peak_rss_mb: f64,
}

const SPEC_ROW: &str = "spec-2k";

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

fn run_spec(iters: usize) -> SpecReport {
    let spec = spec_like::generate(SPEC_ROW, 2.0, 10);
    let program = lir::compile(&spec.source).unwrap_or_else(|e| panic!("{SPEC_ROW}: {e}"));
    let pt = pointsto::PointsTo::analyze(&program);
    let cfg = SchemeConfig::full(9, program.elem_field_opt());
    let lib = lockinfer::library::LibrarySpec::new();
    let mut stats = lockinfer::AnalysisStats::default();
    let optimized_ms = best_of(iters, || {
        let t = Instant::now();
        let analysis = lockinfer::analyze_program_with_opts(&program, &pt, cfg, &lib, 1);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        assert_eq!(analysis.sections.len(), 1, "{SPEC_ROW}: one section");
        stats = analysis.stats;
        ms
    });
    SpecReport {
        kloc: spec.kloc(),
        functions: program.functions.len(),
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

fn encode(tiers: &[TierReport], spec: &SpecReport) -> String {
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
    let s = &spec.stats;
    let _ = writeln!(
        out,
        "],\"spec\":{{\"name\":\"{SPEC_ROW}\",\"kloc\":{:.1},\"k\":9,\"sections\":1,\
         \"functions\":{},\"optimized_ms\":{:.3},\"worklist_pops\":{},\"widenings\":{},\
         \"contexts\":{},\"state_points\":{},\"transfer_memo_hits\":{},\
         \"peak_rss_mb\":{:.1}}}}}",
        spec.kloc,
        spec.functions,
        spec.optimized_ms,
        s.worklist_pops,
        s.widenings,
        s.contexts,
        s.state_points,
        s.transfer_memo_hits,
        spec.peak_rss_mb,
    );
    out
}

/// Pulls `(name, optimized_ms)` pairs out of a committed report with a
/// plain scan — the encoding is canonical, so this stays trivial.
fn extract_baseline(json: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(i) = rest.find("\"name\":\"") {
        rest = &rest[i + 8..];
        let Some(end) = rest.find('"') else { break };
        let name = rest[..end].to_owned();
        let Some(j) = rest.find("\"optimized_ms\":") else {
            break;
        };
        rest = &rest[j + 15..];
        let val: String = rest
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.')
            .collect();
        if let Ok(ms) = val.parse::<f64>() {
            out.push((name, ms));
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

    let spec = run_spec(iters);
    println!(
        "{SPEC_ROW} (k=9, 1 section, {:.1} KLOC): {:.2} ms optimized, {} pops, {} widenings, \
         {} contexts, {} state points, peak RSS {:.1} MB",
        spec.kloc,
        spec.optimized_ms,
        spec.stats.worklist_pops,
        spec.stats.widenings,
        spec.stats.contexts,
        spec.stats.state_points,
        spec.peak_rss_mb,
    );

    if let Some(path) = &check_path {
        let committed =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("--check {path}: {e}"));
        let baseline = extract_baseline(&committed);
        let mut failed = false;
        let measured = reports
            .iter()
            .map(|r| (r.name.as_str(), r.optimized_ms))
            .chain([(SPEC_ROW, spec.optimized_ms)]);
        for (name, optimized_ms) in measured {
            let Some((_, base_ms)) = baseline.iter().find(|(n, _)| n == name) else {
                println!("check: row {name} absent from {path}, skipping");
                continue;
            };
            let limit = base_ms * CHECK_FACTOR;
            let verdict = if optimized_ms > limit {
                failed = true;
                "REGRESSED"
            } else {
                "ok"
            };
            println!(
                "check: {name} optimized {optimized_ms:.2} ms vs committed {base_ms:.2} ms \
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
        std::fs::write(&path, encode(&reports, &spec))
            .unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("wrote {path}");
    }
}
