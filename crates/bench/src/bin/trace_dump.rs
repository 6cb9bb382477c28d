//! `trace-dump` — record, validate, profile, and replay execution
//! traces of the evaluation workloads.
//!
//! ```text
//! trace-dump record <workload> [--mode M] [--k N] [--threads N] [--ops N]
//!                              [--contention low|high] [--faults]
//!                              [--sentinel] [--weaken S:I]
//!                              [--sentinel-preset default|sampled-production]
//!                              [--metrics FILE] [--out FILE]
//! trace-dump validate <trace.json>
//! trace-dump profile  <trace.json>
//! trace-dump replay   <trace.json>
//! trace-dump quarantine <trace.json>
//! trace-dump metrics <trace.json> [--format json|prometheus|speedscope]
//!                                 [--out FILE]
//! trace-dump adapt   <workload> [--mode M] [--k N] [--threads N] [--ops N]
//!                               [--contention low|high] [--json FILE]
//! trace-dump reinfer <workload> [--mode M] [--k N] [--threads N] [--ops N]
//!                               [--contention low|high] [--weaken S:I]
//!                               [--json FILE]
//! ```
//!
//! * `record` runs a named workload (`list`, `hashtable`, `hashtable2`,
//!   `rbtree`, `th`, `genome`, `vacation`, `kmeans`) under the
//!   deterministic virtual-time scheduler with event tracing on, prints
//!   the lockset-validation verdict and per-section profiles, and —
//!   with `--out` — writes the self-describing trace as canonical JSON.
//!   `--metrics FILE` writes the run's whole metric snapshot as
//!   canonical metrics JSON: everything `metrics` below derives from
//!   the trace just recorded, merged with the `ali_run_*` end-of-run
//!   gauges only the live machine knows (scraped into an
//!   [`obs::Registry`] by [`atomic_lock_inference::Pipeline`]); the
//!   recorded trace is byte-identical either way.
//! * `validate` re-checks a trace file against the Eraser-style
//!   lockset discipline (every in-section access licensed by a held
//!   lock at the right mode).
//! * `profile` prints per-section contention/hold-time histograms.
//! * `replay` re-executes the run embedded in a trace file and
//!   verifies the fresh digest matches, byte for byte.
//! * `quarantine` reconstructs the online sentinel's quarantine ladder
//!   (DESIGN.md §5.5) from the trace's `qr` events: every demotion and
//!   heal in epoch order, sections still serving probation at trace
//!   end, and half-open transitions dropped by the truncation guard.
//!   `record --sentinel` arms the sentinel for the run; `--weaken S:I`
//!   drops inferred lock `I` from section `S` to provoke it.
//! * `metrics` derives the full `ali_*` metric vocabulary from a trace
//!   file (DESIGN.md §5.9) — a pure function of the trace bytes — and
//!   renders it as canonical JSON (default), Prometheus text
//!   exposition, or a speedscope flamegraph of per-section wait/hold.
//! * `adapt` runs the profile-guided adaptation loop (DESIGN.md §5.4):
//!   record a baseline, derive per-section configuration candidates
//!   from the corrected wait/hold profiles — plus `wake:*` wake-policy
//!   candidates (DESIGN.md §5.6) for every convoy-flagged section,
//!   printed as `convoy:` lines — replay each candidate on the same
//!   deterministic schedule, and report whether any of them reduces
//!   total virtual-time wait. Exits nonzero if the selected candidate
//!   fails the `adapted wait <= baseline wait` invariant.
//! * `reinfer` runs quarantine-aware re-inference (DESIGN.md §5.8):
//!   record a sentinel-armed baseline (with `--weaken S:I` seeding the
//!   modeled inference bug), diagnose the canonical violation ledger,
//!   replay every repair candidate and the global-demotion reference
//!   on the same deterministic schedule, and print the repair ledger —
//!   per offending section: the diagnosis-tagged candidates, their
//!   cleanliness and cost, and which (if any) was admitted. When a
//!   fault was seeded, exits nonzero unless at least one section heals
//!   onto an admitted non-global repair that is lockset-clean,
//!   strictly cheaper than the demotion, never re-offends after the
//!   `ri`-accepted event, and replays to the same digest.
//!
//! Exit status is nonzero on a validation failure or digest mismatch,
//! so all subcommands double as CI checks.

use atomic_lock_inference::{replay, Pipeline};
use bench::cli::{self, Flags, RunArgs};
use interp::{FaultPlan, SentinelConfig};
use lockinfer::adapt::AdaptPolicy;
use std::process::ExitCode;
use std::sync::Arc;
use workloads::Contention;

fn usage() -> ExitCode {
    eprintln!(
        "usage: trace-dump record <workload> [--mode global|multigrain|stm|validate] \
         [--k N] [--threads N] [--ops N] [--contention low|high] [--faults] \
         [--sentinel] [--weaken S:I] \
         [--sentinel-preset default|sampled-production] [--metrics FILE] [--out FILE]\n\
         \x20      trace-dump validate <trace.json>\n\
         \x20      trace-dump profile  <trace.json>\n\
         \x20      trace-dump replay   <trace.json>\n\
         \x20      trace-dump quarantine <trace.json>\n\
         \x20      trace-dump metrics  <trace.json> [--format json|prometheus|speedscope] \
         [--out FILE]\n\
         \x20      trace-dump adapt    <workload> [--mode M] [--k N] [--threads N] \
         [--ops N] [--contention low|high] [--json FILE]\n\
         \x20      trace-dump reinfer  <workload> [--mode M] [--k N] [--threads N] \
         [--ops N] [--contention low|high] [--weaken S:I] [--json FILE]\n\
         workloads: {}",
        cli::WORKLOADS
    );
    ExitCode::from(2)
}

fn report(t: &trace::Trace) -> bool {
    let by_kind = t
        .counts()
        .into_iter()
        .map(|(k, n)| format!("{k}:{n}"))
        .collect::<Vec<_>>()
        .join(" ");
    println!(
        "trace: {} events ({by_kind}), {} allocs, dropped={}",
        t.events.len(),
        t.allocs.len(),
        t.dropped
    );
    println!("digest: {}", t.digest());
    print!("{}", trace::profile::render(&trace::profile::profile(t)));
    let qh = trace::quarantine_history(t);
    if !qh.transitions.is_empty() || !qh.open.is_empty() || qh.suppressed > 0 {
        print!("{}", trace::quarantine::render(&qh));
    }
    match trace::validate(t) {
        Ok(v) => {
            println!(
                "lockset validation: checked={} exempt={} violations={}{}",
                v.checked,
                v.exempt,
                v.violations.len(),
                if v.crashed.is_empty() {
                    String::new()
                } else {
                    format!(" (crashed threads: {:?})", v.crashed)
                }
            );
            for viol in &v.violations {
                println!("  VIOLATION {viol}");
            }
            v.passed()
        }
        Err(e) => {
            println!("lockset validation: SKIPPED — {e}");
            false
        }
    }
}

fn cmd_record(args: &[String]) -> Result<ExitCode, String> {
    let name = args.first().ok_or("record: missing workload name")?;
    let mut ra = RunArgs::new(4, Contention::Low);
    let mut faults = None;
    let mut sentinel = false;
    let mut preset = SentinelConfig::default();
    let mut weaken = None;
    let mut metrics = None;
    let mut out = None;
    let mut f = Flags::new("record", &args[1..]);
    while let Some(flag) = f.next() {
        if ra.apply(flag, &mut f)? {
            continue;
        }
        match flag {
            "--faults" => {
                faults = Some(
                    FaultPlan::new(0xC405)
                        .with_stm_aborts(30)
                        .with_stalls(100, 400)
                        .with_wakeup_delays(100, 200),
                );
            }
            "--sentinel" => sentinel = true,
            "--sentinel-preset" => {
                preset = match f.value(flag, "default|sampled-production")? {
                    "default" => SentinelConfig::default(),
                    "sampled-production" => SentinelConfig::sampled_production(),
                    other => return Err(format!("record: unknown sentinel preset `{other}`")),
                };
                sentinel = true;
            }
            "--weaken" => {
                weaken = Some(cli::parse_weaken(f.value(flag, "SECTION:INDEX")?)?);
                sentinel = true;
            }
            "--metrics" => metrics = Some(f.value(flag, "a path")?.to_string()),
            "--out" => out = Some(f.value(flag, "a path")?.to_string()),
            other => return Err(f.unknown(other)),
        }
    }
    let mut cfg = ra.config("record", name)?;
    cfg.faults = faults;
    cfg.sentinel = sentinel.then_some(preset);
    cfg.weaken = weaken;
    // A metrics-armed run goes through the Pipeline so a registry
    // collects the machine's end-of-run gauges; the recorded trace is
    // byte-identical to the plain path either way.
    let registry = metrics.as_ref().map(|_| Arc::new(obs::Registry::new()));
    let rec = match &registry {
        Some(reg) => Pipeline::new(cfg)
            .analysis_threads(0)
            .metrics(Arc::clone(reg))
            .record()?,
        None => replay::record(&cfg)?,
    };
    println!(
        "{name} mode={:?} k={} threads={} ops={}: makespan={} ticks{}",
        ra.mode,
        ra.k,
        ra.threads,
        ra.ops,
        rec.outcome.makespan,
        match &rec.outcome.error {
            Some(e) => format!(" ERROR: {e}"),
            None => String::new(),
        }
    );
    let ok = report(&rec.trace);
    if let (Some(path), Some(reg)) = (&metrics, &registry) {
        let mut snap = reg.snapshot();
        snap.merge(obs::from_trace(&rec.trace));
        cli::write_text(path, &snap.to_json())?;
    }
    if let Some(path) = out {
        cli::write_text(&path, &rec.trace.to_json())?;
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_metrics(args: &[String]) -> Result<ExitCode, String> {
    let path = args.first().ok_or("metrics: missing trace file")?;
    let mut format = "json".to_string();
    let mut out = None;
    let mut f = Flags::new("metrics", &args[1..]);
    while let Some(flag) = f.next() {
        match flag {
            "--format" => {
                format = match f.value(flag, "json|prometheus|speedscope")? {
                    fmt @ ("json" | "prometheus" | "speedscope") => fmt.to_string(),
                    other => return Err(format!("metrics: unknown format `{other}`")),
                };
            }
            "--out" => out = Some(f.value(flag, "a path")?.to_string()),
            other => return Err(f.unknown(other)),
        }
    }
    let t = cli::load_trace(path)?;
    let rendered = match format.as_str() {
        "prometheus" => obs::export::prometheus(&obs::from_trace(&t)),
        "speedscope" => obs::export::speedscope(&t),
        _ => obs::from_trace(&t).to_json(),
    };
    match out {
        Some(p) => cli::write_text(&p, &rendered)?,
        None => {
            print!("{rendered}");
            if !rendered.ends_with('\n') {
                println!();
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_adapt(args: &[String]) -> Result<ExitCode, String> {
    let name = args.first().ok_or("adapt: missing workload name")?;
    let mut ra = RunArgs::new(8, Contention::High);
    let mut json = None;
    let mut f = Flags::new("adapt", &args[1..]);
    while let Some(flag) = f.next() {
        if ra.apply(flag, &mut f)? {
            continue;
        }
        match flag {
            "--json" => json = Some(f.value(flag, "a path")?.to_string()),
            other => return Err(f.unknown(other)),
        }
    }
    let cfg = ra.config("adapt", name)?;
    let policy = AdaptPolicy::default();
    let run = Pipeline::new(cfg).adapt(&policy)?;
    let b = run.report.baseline;
    println!(
        "{name} mode={:?} k={} threads={} ops={}",
        ra.mode, ra.k, ra.threads, ra.ops
    );
    println!(
        "baseline:    wait={} hold={} reval={} makespan={}",
        b.total_wait, b.total_hold, b.total_revalidations, b.makespan
    );
    // The evidence behind the `wake:*` candidates below.
    for c in sched::detect(&trace::profile(&run.baseline.trace), &policy.convoy) {
        println!(
            "convoy: section={} depth={:.1} hold={:.1} pressure={:.1}",
            c.section, c.depth, c.mean_hold, c.pressure
        );
    }
    for (i, d) in run.report.candidates.iter().enumerate() {
        let c = d.cost;
        println!(
            "candidate {i}: section={} {} ({}) wait={} hold={} reval={} makespan={}",
            d.candidate.section,
            d.candidate.adjustment.tag(),
            d.candidate.trigger.tag(),
            c.total_wait,
            c.total_hold,
            c.total_revalidations,
            c.makespan
        );
    }
    let adapted_wait = match run.report.winner() {
        Some(w) => {
            let saved = b.total_wait - w.cost.total_wait;
            println!(
                "selected: section {} {} — wait {} vs baseline {} (-{:.1}%)",
                w.candidate.section,
                w.candidate.adjustment.tag(),
                w.cost.total_wait,
                b.total_wait,
                100.0 * saved as f64 / (b.total_wait as f64).max(1.0)
            );
            w.cost.total_wait
        }
        None => {
            println!("selected: none (uniform configuration stands)");
            b.total_wait
        }
    };
    if let Some(path) = json {
        cli::write_text(&path, &run.report.to_json())?;
    }
    let ok = adapted_wait <= b.total_wait;
    println!(
        "adapt check: adapted wait {adapted_wait} <= baseline wait {}: {}",
        b.total_wait,
        if ok { "OK" } else { "FAIL" }
    );
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_reinfer(args: &[String]) -> Result<ExitCode, String> {
    let name = args.first().ok_or("reinfer: missing workload name")?;
    let mut ra = RunArgs::new(8, Contention::High);
    let mut weaken = None;
    let mut json = None;
    let mut f = Flags::new("reinfer", &args[1..]);
    while let Some(flag) = f.next() {
        if ra.apply(flag, &mut f)? {
            continue;
        }
        match flag {
            "--weaken" => weaken = Some(cli::parse_weaken(f.value(flag, "SECTION:INDEX")?)?),
            "--json" => json = Some(f.value(flag, "a path")?.to_string()),
            other => return Err(f.unknown(other)),
        }
    }
    let mut cfg = ra.config("reinfer", name)?;
    cfg.sentinel = Some(SentinelConfig::default());
    cfg.weaken = weaken;
    let run = Pipeline::new(cfg).reinfer()?;
    let b = run.report.baseline;
    println!(
        "{name} mode={:?} k={} threads={} ops={}",
        ra.mode, ra.k, ra.threads, ra.ops
    );
    println!(
        "baseline (armed{}): wait={} hold={} makespan={}",
        match &weaken {
            Some(w) => format!(", weakened {}:{}", w.section, w.drop_index),
            None => String::new(),
        },
        b.total_wait,
        b.total_hold,
        b.makespan
    );
    for sec in &run.report.sections {
        println!(
            "section {}: {} violations; demoted-to-global wait={} makespan={}",
            sec.section, sec.violations, sec.demoted.total_wait, sec.demoted.makespan
        );
        for (i, d) in sec.candidates.iter().enumerate() {
            let c = &d.candidate.config;
            println!(
                "  candidate {i}: {} ({}) k={} expr={} pts={} eff={} clean={} wait={} makespan={}",
                d.candidate.repair.tag(),
                d.candidate.diagnosis.tag(),
                c.k,
                c.use_expr,
                c.use_pts,
                c.use_eff,
                d.clean,
                d.cost.total_wait,
                d.cost.makespan
            );
        }
        match sec.winner() {
            Some(w) => {
                let saved = sec.demoted.total_wait - w.cost.total_wait;
                println!(
                    "  admitted: {} — wait {} vs demoted {} (-{:.1}%)",
                    w.candidate.repair.tag(),
                    w.cost.total_wait,
                    sec.demoted.total_wait,
                    100.0 * saved as f64 / (sec.demoted.total_wait as f64).max(1.0)
                );
            }
            None => println!("  admitted: none (global demotion stands)"),
        }
    }
    if let Some(path) = json {
        cli::write_text(&path, &run.report.to_json())?;
    }
    let ok = match (&weaken, &run.healed) {
        // No fault seeded: a quiet ledger is the expected outcome.
        (None, _) => {
            if run.report.sections.is_empty() {
                println!("reinfer check: clean armed run, nothing to repair: OK");
            } else {
                println!("reinfer check: violations on an unweakened run — see ledger above");
            }
            run.report.sections.iter().all(|s| s.winner().is_some())
                || run.report.sections.is_empty()
        }
        (Some(_), None) => {
            println!("reinfer check: no repair admitted for the seeded fault: FAIL");
            false
        }
        (Some(_), Some(healed)) => {
            let admitted = run.report.admitted();
            let nonglobal = run.report.sections.iter().all(|s| match s.winner() {
                Some(w) => !w.candidate.config.is_trivially_sound(),
                None => true,
            });
            // Zero post-repair violations: once a section's repair is
            // accepted (`ri` event), it must never demote again.
            let quiet = admitted.iter().all(|&(section, _)| {
                let events = &healed.trace.events;
                match events.iter().rposition(|e| {
                    matches!(e.kind,
                        trace::EventKind::Reinfer { section: s, accepted: true, .. } if s == section)
                }) {
                    Some(at) => !events[at..].iter().any(|e| {
                        matches!(e.kind,
                            trace::EventKind::Quarantine { section: s, healed: false, .. } if s == section)
                    }),
                    None => false,
                }
            });
            let replayed = replay::replay(&healed.trace)
                .map(|again| again.trace.digest() == healed.trace.digest())
                .unwrap_or(false);
            println!(
                "healed: {} section(s) re-admitted, makespan={} ticks, digest {}",
                admitted.len(),
                healed.outcome.makespan,
                healed.trace.digest()
            );
            println!(
                "reinfer check: admitted={} nonglobal={} post-repair-quiet={} replay={}: {}",
                !admitted.is_empty(),
                nonglobal,
                quiet,
                replayed,
                if !admitted.is_empty() && nonglobal && quiet && replayed {
                    "OK"
                } else {
                    "FAIL"
                }
            );
            !admitted.is_empty() && nonglobal && quiet && replayed
        }
    };
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_replay(path: &str) -> Result<ExitCode, String> {
    let t = cli::load_trace(path)?;
    let rec = replay::replay(&t)?;
    let (orig, fresh) = (t.digest(), rec.trace.digest());
    println!("recorded digest: {orig}");
    println!("replayed digest: {fresh}");
    if orig == fresh {
        println!("replay: DETERMINISTIC");
        Ok(ExitCode::SUCCESS)
    } else {
        println!("replay: MISMATCH");
        Ok(ExitCode::FAILURE)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let r = match args.split_first() {
        Some((cmd, rest)) => match (cmd.as_str(), rest) {
            ("record", rest) => cmd_record(rest),
            ("validate", [path]) => cli::load_trace(path).map(|t| {
                if report(&t) {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }),
            ("profile", [path]) => cli::load_trace(path).map(|t| {
                print!("{}", trace::profile::render(&trace::profile::profile(&t)));
                ExitCode::SUCCESS
            }),
            ("replay", [path]) => cmd_replay(path),
            ("quarantine", [path]) => cli::load_trace(path).map(|t| {
                print!(
                    "{}",
                    trace::quarantine::render(&trace::quarantine_history(&t))
                );
                ExitCode::SUCCESS
            }),
            ("metrics", rest) => cmd_metrics(rest),
            ("adapt", rest) => cmd_adapt(rest),
            ("reinfer", rest) => cmd_reinfer(rest),
            _ => return usage(),
        },
        None => return usage(),
    };
    r.unwrap_or_else(|e| {
        eprintln!("trace-dump: {e}");
        ExitCode::from(2)
    })
}
