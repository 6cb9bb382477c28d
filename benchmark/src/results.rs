//! What one workload's run produced, the line the contract's driver
//! reads, and the results file `compare` reads.

use crate::contract::{pick_of, Pick};
use crate::json::Json;
use crate::stats::Summary;

pub const FORMAT: &str = "perf-ladder-results-v1";

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    /// Every valid sample of the run, in the order taken. Empty for a
    /// layer the workload never enters, which reports 0.
    pub values: Vec<f64>,
}

impl Metric {
    pub fn summary(&self) -> Summary {
        Summary::of(&self.values).unwrap_or(Summary {
            n: 0,
            min: 0.0,
            q1: 0.0,
            median: 0.0,
            q3: 0.0,
            max: 0.0,
        })
    }

    /// The one number reported for the run.
    pub fn value(&self) -> f64 {
        let s = self.summary();
        match pick_of(&self.name) {
            Pick::Min => s.min,
            Pick::Median => s.median,
            Pick::Max => s.max,
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadResult {
    pub workload: String,
    /// Checks made (the program's invariants, expected-file facts,
    /// run-to-run agreement) and how many failed.
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl WorkloadResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The one-line object the contract asks for: exactly `correct`,
    /// `attempted`, `failed` and `metrics`, each metric a value and a
    /// unit.
    pub fn contract_line(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    let value = Json::obj([
                        ("value", Json::Num(m.value())),
                        ("unit", Json::str(m.unit.clone())),
                    ]);
                    (m.name.clone(), value)
                })),
            ),
        ])
    }

    /// `workload metric unit value` lines with the samples behind each
    /// value; `n` says how many there were.
    pub fn print(&self) {
        for m in &self.metrics {
            let s = m.summary();
            println!(
                "{} {} {} {}  (n={} min={} q1={} median={} q3={} max={})",
                self.workload,
                m.name,
                m.unit,
                m.value(),
                s.n,
                s.min,
                s.q1,
                s.median,
                s.q3,
                s.max
            );
        }
        println!(
            "{} failed_ops_share ratio {}  ({} of {} checks failed)",
            self.workload,
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::str(self.workload.clone())),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    let values = m.values.iter().copied().map(Json::Num).collect();
                    let fields = Json::obj([
                        ("unit", Json::str(m.unit.clone())),
                        ("value", Json::Num(m.value())),
                        ("values", Json::Arr(values)),
                    ]);
                    (m.name.clone(), fields)
                })),
            ),
        ])
    }

    fn from_json(j: &Json) -> Option<WorkloadResult> {
        Some(WorkloadResult {
            workload: j.get("workload")?.as_str()?.to_owned(),
            attempted: j.get("attempted")?.as_f64()? as u64,
            failed: j.get("failed")?.as_f64()? as u64,
            metrics: j
                .get("metrics")?
                .as_obj()
                .iter()
                .map(|(name, v)| {
                    Some(Metric {
                        name: name.clone(),
                        unit: v.get("unit")?.as_str()?.to_owned(),
                        values: v
                            .get("values")?
                            .as_arr()
                            .iter()
                            .map(Json::as_f64)
                            .collect::<Option<_>>()?,
                    })
                })
                .collect::<Option<_>>()?,
        })
    }
}

/// One invocation: every workload it ran, under one seed.
#[derive(Clone, Debug, PartialEq)]
pub struct Run {
    pub seed: u64,
    pub default_seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// CPUs the process could use before its children pinned
    /// themselves to one.
    pub cpus: usize,
    pub workloads: Vec<WorkloadResult>,
}

impl Run {
    fn to_json(&self) -> Json {
        Json::obj([
            ("seed", Json::Num(self.seed as f64)),
            ("default_seed", Json::Num(self.default_seed as f64)),
            ("seconds", Json::Num(self.seconds)),
            ("traced", Json::Bool(self.traced)),
            ("cpus", Json::Num(self.cpus as f64)),
            (
                "workloads",
                Json::Arr(self.workloads.iter().map(WorkloadResult::to_json).collect()),
            ),
        ])
    }

    fn from_json(j: &Json) -> Option<Run> {
        Some(Run {
            seed: j.get("seed")?.as_f64()? as u64,
            default_seed: j.get("default_seed")?.as_f64()? as u64,
            seconds: j.get("seconds")?.as_f64()?,
            traced: j.get("traced")?.as_bool()?,
            cpus: j.get("cpus")?.as_f64()? as usize,
            workloads: j
                .get("workloads")?
                .as_arr()
                .iter()
                .map(WorkloadResult::from_json)
                .collect::<Option<_>>()?,
        })
    }
}

/// A results file: the runs appended to it, oldest first. `compare`
/// needs the spread *between runs*, which one run cannot show, so
/// `--out FILE` adds to an existing file instead of replacing it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Results {
    pub runs: Vec<Run>,
}

impl Results {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("format", Json::str(FORMAT)),
            (
                "runs",
                Json::Arr(self.runs.iter().map(Run::to_json).collect()),
            ),
        ])
    }

    pub fn from_json(j: &Json) -> Result<Results, String> {
        if j.get("format").and_then(Json::as_str) != Some(FORMAT) {
            return Err(format!("not a {FORMAT} file"));
        }
        let runs = j
            .get("runs")
            .map(|r| r.as_arr().iter().map(Run::from_json).collect());
        match runs {
            Some(Some(runs)) => Ok(Results { runs }),
            _ => Err("malformed results file".to_owned()),
        }
    }

    pub fn read(path: &std::path::Path) -> Result<Results, String> {
        Results::from_json(&Json::read_file(path)?).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Workload names in first-seen order.
    pub fn workload_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = Vec::new();
        for w in self.runs.iter().flat_map(|r| &r.workloads) {
            if !names.contains(&w.workload.as_str()) {
                names.push(&w.workload);
            }
        }
        names
    }

    /// Every run's result for `workload`.
    pub fn of(&self, workload: &str) -> Vec<&WorkloadResult> {
        self.runs
            .iter()
            .flat_map(|r| &r.workloads)
            .filter(|w| w.workload == workload)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_results() -> Results {
        let run = Run {
            seed: 7,
            default_seed: 42,
            seconds: 10.0,
            traced: false,
            cpus: 2,
            workloads: vec![WorkloadResult {
                workload: "th-high-t8".into(),
                attempted: 31,
                failed: 1,
                metrics: vec![
                    Metric {
                        name: "stage_s".into(),
                        unit: "s".into(),
                        values: vec![0.2321, 0.2053, 0.2217, 0.275],
                    },
                    Metric {
                        name: "peak_rss_mb".into(),
                        unit: "MB".into(),
                        values: vec![68.9, 69.1, 68.8],
                    },
                    Metric {
                        name: "interp.ticks_per_s".into(),
                        unit: "ticks/s".into(),
                        values: vec![3e6, 1e6, 2e6],
                    },
                    Metric {
                        name: "interp.sim.handoff_share".into(),
                        unit: "ratio".into(),
                        values: vec![0.3, 0.1, 0.2],
                    },
                    Metric {
                        name: "tl2.commits".into(),
                        unit: "count".into(),
                        values: vec![],
                    },
                ],
            }],
        };
        Results {
            runs: vec![run.clone(), run],
        }
    }

    #[test]
    fn results_round_trip_through_json_text() {
        let r = sample_results();
        let text = r.to_json().to_string();
        assert_eq!(
            Results::from_json(&Json::parse(&text).unwrap()),
            Ok(r.clone())
        );
        assert!(Results::from_json(&Json::parse("{\"format\":\"other\"}").unwrap()).is_err());
        assert_eq!(r.workload_names(), ["th-high-t8"]);
        assert_eq!(r.of("th-high-t8").len(), 2);
    }

    #[test]
    fn each_metric_reports_the_sample_its_definition_picks() {
        let w = &sample_results().runs[0].workloads[0];
        let value = |name: &str| w.metric(name).unwrap().value();
        assert_eq!(
            value("stage_s"),
            0.2053,
            "a timing reports its fastest sample"
        );
        assert_eq!(value("peak_rss_mb"), 69.1, "a peak reports the largest");
        assert_eq!(value("interp.ticks_per_s"), 3e6, "a rate its fastest");
        assert_eq!(value("interp.sim.handoff_share"), 0.2, "a ratio its median");
        assert_eq!(value("tl2.commits"), 0.0, "a layer never entered reports 0");
    }

    #[test]
    fn contract_line_has_exactly_the_contract_keys() {
        let w = &sample_results().runs[0].workloads[0];
        let line = Json::parse(&w.contract_line().to_string()).unwrap();
        let keys: Vec<&str> = line.as_obj().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
        let stage = line.get("metrics").unwrap().get("stage_s").unwrap();
        let keys: Vec<&str> = stage.as_obj().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["value", "unit"]);
        assert_eq!(stage.get("value").unwrap().as_f64(), Some(0.2053));
    }
}
