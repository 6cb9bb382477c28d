//! `sentinel-overhead` — CI gate for the online sentinel's cost
//! (DESIGN.md §5.5).
//!
//! ```text
//! cargo run -p bench --release --bin sentinel-overhead [-- --check]
//! ```
//!
//! Runs the `workloads::scale` smoke program under MultiGrain locks at
//! k = 9 three times per repetition — sentinel disabled, armed with
//! `sample_every = 1` (sampling off: every in-section access checked
//! inline), and armed with the `sampled-production` preset
//! ([`SentinelConfig::sampled_production`], 1-in-8 sampling) — back
//! to back, and scores each armed arm by the median over repetitions
//! of its time divided by the disabled run of the same repetition, so
//! each ratio compares runs made moments apart. Each arm's best time
//! is printed for the record. The armed runs use sound inferred
//! locks, so the sentinel must stay silent; the bin fails outright if
//! it reports a violation.
//!
//! With `--check`, exits nonzero when either armed arm's median ratio
//! reaches 2.0 — the overhead budget the sentinel
//! promises when fully on, which the sampled-production preset (tuned
//! from this very gate) must a fortiori stay inside. The
//! sampled-vs-full comparison is printed for the record but not gated:
//! on this virtual-time interpreter the check itself is cheap, so the
//! two arms sit within scheduler noise of each other.

use interp::{ExecMode, Machine, Options, SentinelConfig};
use lockscheme::SchemeConfig;
use pointsto::PointsTo;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use workloads::scale::{self, ScaleParams};

const THREADS: usize = 4;
/// Repetitions, each running the three arms back to back; an armed
/// arm scores the median of its per-repetition ratios. On a shared
/// 2-vCPU host five repetitions spread the full arm's median over
/// about 0.2× from one invocation to the next; 25 (about 2 s in all)
/// hold it within about 0.1×.
const REPS: usize = 25;

fn main() -> ExitCode {
    let mut check = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--check" => check = true,
            other => {
                eprintln!("sentinel-overhead: unknown flag `{other}` (only --check)");
                return ExitCode::from(2);
            }
        }
    }

    // The medium analysis-bench tier shape, as the runnable smoke
    // twin: enough in-section accesses (layered calls under 16
    // sections) for millisecond-scale runs, small enough for a smoke
    // job.
    let spec = scale::smoke(
        "sentinel-smoke",
        ScaleParams {
            depth: 5,
            width: 8,
            sections: 16,
            stmts_per_fn: 14,
            seed: 12,
        },
        4,
    );
    let program = lir::compile(&spec.source).expect("scale smoke compiles");
    let pt = Arc::new(PointsTo::analyze(&program));
    let cfg = SchemeConfig::full(9, program.elem_field_opt());
    let analysis = lockinfer::analyze_program(&program, &pt, cfg);
    let transformed = Arc::new(lockinfer::transform(&program, &analysis));

    let timed = |sentinel: Option<SentinelConfig>| -> f64 {
        let m = Machine::new(
            transformed.clone(),
            pt.clone(),
            ExecMode::MultiGrain,
            Options {
                heap_cells: spec.heap_cells,
                seed: 0xB0DE,
                sentinel,
                ..Options::default()
            },
        );
        let (worker, args) = &spec.worker;
        m.run_named(spec.init.0, &spec.init.1).expect("smoke setup");
        let t0 = Instant::now();
        m.run_threads_virtual(worker, THREADS, |_| args.clone())
            .expect("scale smoke completes");
        let seconds = t0.elapsed().as_secs_f64();
        let report = m.degradation_report();
        assert_eq!(
            report.sentinel_violations, 0,
            "sound inferred locks must not trip the sentinel: {report}"
        );
        seconds
    };

    let armed_cfg = SentinelConfig::default();
    let sampled_cfg = SentinelConfig::sampled_production();
    // `[off, on, sampled]` seconds of each repetition.
    let runs: Vec<[f64; 3]> = (0..REPS)
        .map(|_| {
            [
                timed(None),
                timed(Some(armed_cfg)),
                timed(Some(sampled_cfg)),
            ]
        })
        .collect();
    let best = |arm: usize| runs.iter().map(|r| r[arm]).fold(f64::INFINITY, f64::min);
    let median_ratio = |arm: usize| {
        let mut ratios: Vec<f64> = runs.iter().map(|r| r[arm] / r[0]).collect();
        ratios.sort_by(f64::total_cmp);
        ratios[REPS / 2]
    };
    let (off, on, sampled) = (best(0), best(1), best(2));
    let (ratio, sampled_ratio) = (median_ratio(1), median_ratio(2));
    println!("sentinel off: {off:.6}s (best of {REPS})");
    println!("sentinel on (sample_every=1): {on:.6}s (best of {REPS})");
    println!(
        "sentinel on (sampled-production, sample_every={}): {sampled:.6}s (best of {REPS})",
        sampled_cfg.sample_every
    );
    println!("overhead ratio: {ratio:.3}x median of {REPS} paired ratios (budget < 2.000x)");
    println!(
        "sampled-production ratio: {sampled_ratio:.3}x median of {REPS} paired ratios \
         (budget < 2.000x)"
    );
    if check && (ratio >= 2.0 || sampled_ratio >= 2.0) {
        println!("sentinel-overhead check: FAIL");
        return ExitCode::FAILURE;
    }
    if check {
        println!("sentinel-overhead check: OK");
    }
    ExitCode::SUCCESS
}
