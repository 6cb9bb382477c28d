//! `compare A.json B.json`: holds B's runs to A's by each end-to-end
//! metric's bound from `BENCHMARK.json`, one row per workload × metric.
//! Each side's figure is the median over its runs of the runs' reported
//! values, and its spread the distance between the quartiles of those
//! values — the same arithmetic the benchmark contract's driver does.

use crate::json::Json;
use crate::results::Results;
use crate::stats::Summary;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Ok,
    Regressed,
    /// Either side's runs spread wider than the bound, so a shift of
    /// the bound's size cannot be told from noise.
    Unresolved,
}

/// How one metric is judged, from its `BENCHMARK.json` entry.
#[derive(Clone, Debug)]
pub struct Rule {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

pub fn rules(benchmark: &Json) -> Result<Vec<Rule>, String> {
    let list = benchmark
        .get("end_to_end")
        .ok_or("BENCHMARK.json has no end_to_end")?;
    list.as_arr()
        .iter()
        .map(|m| {
            Some(Rule {
                name: m.get("name")?.as_str()?.to_owned(),
                lower_is_better: m.get("better")?.as_str()? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<_>>()
        .ok_or_else(|| "BENCHMARK.json: malformed end_to_end entry".to_owned())
}

/// B's runs against A's: the share of A's median by which B's is
/// worse (negative when better), and the verdict under `rule`.
pub fn judge(rule: &Rule, a: &Summary, b: &Summary) -> (f64, Verdict) {
    let sign = if rule.lower_is_better { 1.0 } else { -1.0 };
    let worse = sign * (b.median - a.median) / a.median.abs();
    let every_b_beats_every_a = if rule.lower_is_better {
        b.max < a.min
    } else {
        b.min > a.max
    };
    let verdict = if worse > rule.bound {
        Verdict::Regressed
    } else if a.spread().max(b.spread()) > rule.bound && !every_b_beats_every_a {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (worse, verdict)
}

/// The reported value of `metric` in each of `side`'s runs of
/// `workload`.
fn run_values(side: &Results, workload: &str, metric: &str) -> Vec<f64> {
    side.of(workload)
        .iter()
        .filter_map(|w| w.metric(metric).map(|m| m.value()))
        .collect()
}

fn metric_names(side: &Results, workload: &str) -> Vec<String> {
    let runs = side.of(workload);
    runs.first().map_or(Vec::new(), |w| {
        w.metrics.iter().map(|m| m.name.clone()).collect()
    })
}

/// Prints one row per workload × end-to-end metric and returns whether
/// B is acceptable: nothing regressed, nothing incorrect, same shape.
/// With `shape_only` the timings are not judged at all — what a
/// minimal smoke run can honestly check.
pub fn compare(rules: &[Rule], a: &Results, b: &Results, shape_only: bool) -> bool {
    let mut acceptable = true;
    if a.workload_names() != b.workload_names() {
        println!(
            "workloads differ: {:?} vs {:?}",
            a.workload_names(),
            b.workload_names()
        );
        acceptable = false;
    }
    for workload in a.workload_names() {
        if b.of(workload).is_empty() {
            continue;
        }
        if metric_names(a, workload) != metric_names(b, workload) {
            println!("{workload}: metric names differ");
            acceptable = false;
        }
        for w in b.of(workload).iter().filter(|w| !w.correct()) {
            println!(
                "{workload}: a run of B failed {} of {} checks",
                w.failed, w.attempted
            );
            acceptable = false;
        }
        if shape_only {
            continue;
        }
        for rule in rules {
            let summaries = (
                Summary::of(&run_values(a, workload, &rule.name)),
                Summary::of(&run_values(b, workload, &rule.name)),
            );
            let (Some(sa), Some(sb)) = summaries else {
                continue;
            };
            let (worse, verdict) = judge(rule, &sa, &sb);
            println!(
                "{workload:<22} {:<12} {:>12.6} -> {:>12.6}  {:+6.1}% (bound {:.0}%; runs {}/{}, spread {:.1}%/{:.1}%)  {}",
                rule.name,
                sa.median,
                sb.median,
                worse * 100.0,
                rule.bound * 100.0,
                sa.n,
                sb.n,
                sa.spread() * 100.0,
                sb.spread() * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Unresolved => "unresolved",
                }
            );
            acceptable &= verdict != Verdict::Regressed;
        }
    }
    acceptable
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(lower_is_better: bool) -> Rule {
        Rule {
            name: "stage_s".into(),
            lower_is_better,
            bound: 0.10,
        }
    }

    fn tight(around: f64) -> Summary {
        Summary::of(&[around * 0.99, around, around, around * 1.01]).unwrap()
    }

    #[test]
    fn judges_by_the_bound_in_the_metrics_direction() {
        let (worse, v) = judge(&rule(true), &tight(1.0), &tight(1.05));
        assert!((worse - 0.05).abs() < 1e-9 && v == Verdict::Ok);
        assert_eq!(
            judge(&rule(true), &tight(1.0), &tight(1.2)).1,
            Verdict::Regressed
        );
        assert_eq!(judge(&rule(true), &tight(1.0), &tight(0.5)).1, Verdict::Ok);
        // Higher is better: dropping 20 % regresses, rising does not.
        assert_eq!(
            judge(&rule(false), &tight(1.0), &tight(0.8)).1,
            Verdict::Regressed
        );
        assert_eq!(judge(&rule(false), &tight(1.0), &tight(1.2)).1, Verdict::Ok);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_b_wins_every_run() {
        let noisy = Summary::of(&[0.8, 0.9, 1.0, 1.1, 1.2]).unwrap();
        assert_eq!(
            judge(&rule(true), &noisy, &tight(1.0)).1,
            Verdict::Unresolved
        );
        assert_eq!(judge(&rule(true), &noisy, &tight(0.5)).1, Verdict::Ok);
        assert_eq!(
            judge(&rule(true), &noisy, &tight(1.5)).1,
            Verdict::Regressed
        );
        // One run a side has no spread to speak of: judged on the values.
        let one = |v: f64| Summary::of(&[v]).unwrap();
        assert_eq!(judge(&rule(true), &one(1.0), &one(1.05)).1, Verdict::Ok);
    }
}
