//! Profile-guided per-section granularity adaptation — the *policy*
//! half of the adaptive loop (DESIGN.md §5.4).
//!
//! The paper fixes one `Σ_k × Σ≡ × Σ_ε` point for the whole program;
//! §6 shows no single point wins everywhere. This module closes the
//! loop from runtime evidence back into the static analysis: given the
//! corrected per-section wait/hold/revalidation histograms from
//! [`trace::profile`], [`candidates`] proposes per-section
//! [`SchemeConfig`] overrides, and [`select`] picks the override whose
//! *replayed* cost (measured by the orchestration layer on the same
//! recorded execution) reduces total virtual-time wait.
//!
//! Everything here is a pure function of its arguments — no clocks, no
//! randomness, no thread-count dependence — so identical traces and
//! candidate sets produce byte-identical decisions on any machine, at
//! any parallelism. The replay-and-measure half lives in the root
//! crate (`src/adapt.rs`), which can see the interpreter.

use lockscheme::{ConfigMap, SchemeConfig};
use sched::convoy::ConvoyPolicy;
use sched::PolicyKind;
use std::fmt::Write as _;
use trace::json::push_escaped;
use trace::SectionProfile;

/// Thresholds steering candidate generation. All comparisons are pure
/// arithmetic on the profile's integer counters, so a policy value
/// fully determines the candidate set for a given profile.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdaptPolicy {
    /// Sections with fewer completed executions are left alone — too
    /// little evidence to steer on.
    pub min_entries: u64,
    /// A section is *contended* when `mean(wait) >= ratio ×
    /// max(mean(hold), 1)`: it spends much longer blocking on (and
    /// negotiating) its lock plan than holding it, so the plan itself
    /// is the cost — coarsen toward `Σ≡`/global to shrink it.
    pub coarsen_wait_hold_ratio: f64,
    /// A section is *drifting* when `mean(revalidations) >= threshold`:
    /// its fine descriptors keep moving while it waits (the TH resize
    /// pattern), so each entry re-runs the acquire protocol — a
    /// candidate for coarser locking (ROADMAP: descriptor-drift
    /// telemetry).
    pub drift_reval_mean: f64,
    /// A section is *uncontended* when `mean(wait) <= ratio ×
    /// mean(hold)`: its locks are essentially free, so a larger `k`
    /// (finer expression locks) may pay for itself.
    pub uncontended_wait_hold_ratio: f64,
    /// How much to raise `k` for uncontended fine sections.
    pub raise_k_step: usize,
    /// Upper bound on the raised `k`.
    pub max_k: usize,
    /// Convoy thresholds: sections whose estimated queue depth × hold
    /// pressure exceeds these get wake-policy candidates — the lock
    /// *plan* stands, only the wake order at release changes.
    pub convoy: ConvoyPolicy,
}

impl Default for AdaptPolicy {
    fn default() -> AdaptPolicy {
        AdaptPolicy {
            min_entries: 2,
            coarsen_wait_hold_ratio: 4.0,
            drift_reval_mean: 0.5,
            uncontended_wait_hold_ratio: 0.05,
            raise_k_step: 3,
            max_k: 9,
            convoy: ConvoyPolicy::default(),
        }
    }
}

/// What a candidate override changes relative to the section's current
/// configuration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Adjustment {
    /// Drop the expression component: the section's locks degrade to
    /// the coarse per-class `Σ≡` locks.
    Coarsen,
    /// Drop expression *and* points-to: the section takes the global
    /// lock.
    Globalize,
    /// Raise the expression bound to the given `k` (finer locks).
    RaiseK(usize),
    /// Keep the lock plan, change the wake order: run the section's
    /// workload under the given contention-aware wake policy. The
    /// scheme configuration is untouched, so candidate evaluation
    /// reuses the base inference (a `SummaryStore` cache hit).
    WakePolicy(PolicyKind),
}

impl Adjustment {
    /// Stable machine-readable tag (used in the decision report).
    pub fn tag(&self) -> String {
        match self {
            Adjustment::Coarsen => "coarsen".into(),
            Adjustment::Globalize => "globalize".into(),
            Adjustment::RaiseK(k) => format!("raise-k:{k}"),
            Adjustment::WakePolicy(kind) => format!("wake:{}", kind.tag()),
        }
    }
}

/// Which profile signal fired.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Trigger {
    /// Long wait relative to hold.
    Contention,
    /// Frequent acquire-time revalidation retries.
    Drift,
    /// Negligible wait: room for finer locks.
    NoContention,
    /// A waiter queue that never drains (estimated depth × hold over
    /// the convoy thresholds) — re-ordering wakes can recover wait
    /// that re-planning the locks cannot.
    Convoy,
}

impl Trigger {
    /// Stable machine-readable tag (used in the decision report).
    pub fn tag(&self) -> &'static str {
        match self {
            Trigger::Contention => "contention",
            Trigger::Drift => "drift",
            Trigger::NoContention => "no-contention",
            Trigger::Convoy => "convoy",
        }
    }
}

/// One proposed per-section override.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Candidate {
    /// Static section id the override applies to.
    pub section: u32,
    /// The overriding configuration.
    pub config: SchemeConfig,
    pub adjustment: Adjustment,
    pub trigger: Trigger,
}

impl Candidate {
    /// The candidate's full configuration map: `base` plus this one
    /// override.
    pub fn config_map(&self, base: &ConfigMap) -> ConfigMap {
        let mut m = base.clone();
        m.set_override(self.section, self.config);
        m
    }
}

/// Maps measured section profiles to candidate overrides, one
/// [`ConfigMap`] override per candidate.
///
/// Deterministic: profiles are processed in their given (section-id)
/// order and rules fire in a fixed order, so identical inputs yield an
/// identical candidate vector.
pub fn candidates(
    profiles: &[SectionProfile],
    base: &ConfigMap,
    policy: &AdaptPolicy,
) -> Vec<Candidate> {
    let mut out = Vec::new();
    for p in profiles {
        if p.entries < policy.min_entries {
            continue;
        }
        let current = base.for_section(p.section);
        let wait = p.wait.mean();
        let hold = p.hold.mean();
        let contended = wait >= policy.coarsen_wait_hold_ratio * hold.max(1.0);
        let drifting = p.revalidations.mean() >= policy.drift_reval_mean;
        let uncontended = wait <= policy.uncontended_wait_hold_ratio * hold;
        if contended || drifting {
            let trigger = if contended {
                Trigger::Contention
            } else {
                Trigger::Drift
            };
            if current.use_expr {
                out.push(Candidate {
                    section: p.section,
                    config: SchemeConfig {
                        use_expr: false,
                        ..current
                    },
                    adjustment: Adjustment::Coarsen,
                    trigger,
                });
            }
            if current.use_pts && contended {
                out.push(Candidate {
                    section: p.section,
                    config: SchemeConfig {
                        use_expr: false,
                        use_pts: false,
                        ..current
                    },
                    adjustment: Adjustment::Globalize,
                    trigger,
                });
            }
        } else if uncontended && current.use_expr && current.k < policy.max_k {
            let k = (current.k + policy.raise_k_step).min(policy.max_k);
            out.push(Candidate {
                section: p.section,
                config: SchemeConfig { k, ..current },
                adjustment: Adjustment::RaiseK(k),
                trigger: Trigger::NoContention,
            });
        }
    }
    // Convoy-flagged sections additionally get wake-policy candidates,
    // appended after all granularity proposals (fixed order keeps the
    // candidate vector deterministic). The scheme config is the
    // section's *current* one — the orchestration layer evaluates
    // these by steering the scheduler, not by re-planning locks.
    for flag in sched::convoy::detect(profiles, &policy.convoy) {
        for kind in PolicyKind::ALL {
            out.push(Candidate {
                section: flag.section,
                config: base.for_section(flag.section),
                adjustment: Adjustment::WakePolicy(kind),
                trigger: Trigger::Convoy,
            });
        }
    }
    out
}

/// Total cost of one (baseline or candidate) execution, summed over
/// every section profile of its trace.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PlanCost {
    /// Σ wait ticks across all outermost section executions.
    pub total_wait: u64,
    /// Σ hold ticks.
    pub total_hold: u64,
    /// Σ revalidation retries.
    pub total_revalidations: u64,
    /// Virtual makespan of the worker phase.
    pub makespan: u64,
}

impl PlanCost {
    /// Sums the profile histograms of one trace.
    pub fn from_profiles(profiles: &[SectionProfile], makespan: u64) -> PlanCost {
        let mut c = PlanCost {
            makespan,
            ..PlanCost::default()
        };
        for p in profiles {
            c.total_wait = c.total_wait.saturating_add(p.wait.sum);
            c.total_hold = c.total_hold.saturating_add(p.hold.sum);
            c.total_revalidations = c.total_revalidations.saturating_add(p.revalidations.sum);
        }
        c
    }
}

/// Picks the winning candidate: strictly lower total replayed wait
/// than the baseline, ties broken by lower makespan, then by candidate
/// order. Returns `None` when no candidate improves on the baseline
/// (the global configuration stands).
pub fn select(baseline: PlanCost, outcomes: &[PlanCost]) -> Option<usize> {
    outcomes
        .iter()
        .enumerate()
        .filter(|(_, c)| c.total_wait < baseline.total_wait)
        .min_by_key(|(i, c)| (c.total_wait, c.makespan, *i))
        .map(|(i, _)| i)
}

/// How (whether) one candidate's cost was obtained.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub enum EvalStatus {
    /// Replayed exactly; the cost is measured.
    #[default]
    Replayed,
    /// Ranked out by the trace-analytic estimator before any replay;
    /// the cost is zeroed and `est` carries the estimated total wait
    /// that ranked it.
    Pruned { est: u64 },
    /// Scheduled for replay but the recording was unusable (e.g. the
    /// candidate trace overflowed its ring); the cost is zeroed and
    /// the reason is surfaced instead of a silently bogus profile.
    Skipped { reason: String },
}

impl EvalStatus {
    /// True when the decision's cost is an exact replayed measurement.
    pub fn is_replayed(&self) -> bool {
        matches!(self, EvalStatus::Replayed)
    }

    pub(crate) fn push_json(&self, out: &mut String) {
        match self {
            EvalStatus::Replayed => out.push_str("\"status\":\"replayed\""),
            EvalStatus::Pruned { est } => {
                let _ = write!(out, "\"status\":\"pruned\",\"est\":{est}");
            }
            EvalStatus::Skipped { reason } => {
                out.push_str("\"status\":\"skipped\",\"note\":");
                push_escaped(out, reason);
            }
        }
    }
}

/// Opens a decision report: `{"name":…,"mode":…,"baseline":{…}`. The
/// name arrives from outside (`run.name` trace metadata), so the
/// strings go through the workspace's one JSON escaper.
pub(crate) fn push_header(out: &mut String, name: &str, mode: &str, baseline: PlanCost) {
    out.push_str("{\"name\":");
    push_escaped(out, name);
    out.push_str(",\"mode\":");
    push_escaped(out, mode);
    out.push_str(",\"baseline\":");
    push_cost(out, baseline);
}

pub(crate) fn push_cost(out: &mut String, c: PlanCost) {
    let _ = write!(
        out,
        "{{\"wait\":{},\"hold\":{},\"revalidations\":{},\"makespan\":{}}}",
        c.total_wait, c.total_hold, c.total_revalidations, c.makespan
    );
}

pub(crate) fn push_config(out: &mut String, c: SchemeConfig) {
    let _ = write!(
        out,
        "{{\"k\":{},\"expr\":{},\"pts\":{},\"eff\":{}}}",
        c.k, c.use_expr, c.use_pts, c.use_eff
    );
}

/// One evaluated candidate: the proposal plus its measured replay cost
/// (zeroed when `status` says it was never replayed).
#[derive(Clone, PartialEq, Debug)]
pub struct Decision {
    pub candidate: Candidate,
    pub cost: PlanCost,
    pub status: EvalStatus,
}

/// The machine-readable outcome of one adaptation run.
#[derive(Clone, PartialEq, Debug)]
pub struct DecisionReport {
    /// Workload / run name.
    pub name: String,
    /// Execution mode of the recorded run.
    pub mode: String,
    /// Cost of the recorded baseline execution.
    pub baseline: PlanCost,
    /// Every candidate evaluated, in generation order.
    pub candidates: Vec<Decision>,
    /// Index into `candidates` of the selected override, if any.
    pub selected: Option<usize>,
}

impl DecisionReport {
    /// The selected decision, if any candidate won.
    pub fn winner(&self) -> Option<&Decision> {
        self.selected.map(|i| &self.candidates[i])
    }

    /// Canonical JSON encoding (hand-rolled — the build environment
    /// has no serde; fixed key order, no whitespace).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        push_header(&mut out, &self.name, &self.mode, self.baseline);
        out.push_str(",\"candidates\":[");
        for (i, d) in self.candidates.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"section\":{},\"adjustment\":\"{}\",\"trigger\":\"{}\",\"config\":",
                d.candidate.section,
                d.candidate.adjustment.tag(),
                d.candidate.trigger.tag()
            );
            push_config(&mut out, d.candidate.config);
            out.push_str(",\"cost\":");
            push_cost(&mut out, d.cost);
            out.push(',');
            d.status.push_json(&mut out);
            out.push('}');
        }
        out.push_str("],\"selected\":");
        match self.selected {
            Some(i) => {
                let _ = write!(out, "{i}");
            }
            None => out.push_str("null"),
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace::Histogram;

    fn hist(samples: &[u64]) -> Histogram {
        let mut h = Histogram::default();
        for &s in samples {
            h.add(s);
        }
        h
    }

    fn prof(section: u32, wait: &[u64], hold: &[u64], reval: &[u64]) -> SectionProfile {
        SectionProfile {
            section,
            entries: wait.len() as u64,
            aborts: 0,
            wait: hist(wait),
            hold: hist(hold),
            revalidations: hist(reval),
        }
    }

    fn base() -> ConfigMap {
        ConfigMap::uniform(SchemeConfig::full(3, None))
    }

    #[test]
    fn contended_sections_get_coarsen_and_globalize_candidates() {
        // Mean wait 500 over mean hold 15: contended (ratio 33) *and*
        // convoy-flagged (depth 33, pressure 500), so the granularity
        // candidates are followed by the wake-policy ones.
        let profiles = vec![prof(1, &[400, 600], &[10, 20], &[0, 0])];
        let cs = candidates(&profiles, &base(), &AdaptPolicy::default());
        assert_eq!(cs.len(), 4);
        assert_eq!(cs[0].adjustment, Adjustment::Coarsen);
        assert!(!cs[0].config.use_expr && cs[0].config.use_pts);
        assert_eq!(cs[1].adjustment, Adjustment::Globalize);
        assert!(!cs[1].config.use_pts);
        assert_eq!(cs[0].trigger, Trigger::Contention);
        assert_eq!(
            cs[2].adjustment,
            Adjustment::WakePolicy(PolicyKind::ShortestExpectedHold)
        );
        assert_eq!(
            cs[3].adjustment,
            Adjustment::WakePolicy(PolicyKind::ReaderBatch)
        );
        assert!(cs[2..].iter().all(|c| c.trigger == Trigger::Convoy));
        // Wake candidates leave the lock plan untouched.
        assert_eq!(cs[2].config, base().for_section(1));
        assert_eq!(cs[2].adjustment.tag(), "wake:seh");
        assert_eq!(cs[2].trigger.tag(), "convoy");
    }

    #[test]
    fn convoy_without_contention_gets_only_wake_candidates() {
        // Mean wait 600 over mean hold 300: ratio 2 (< 4, not
        // contended), but depth 2 and pressure 600 flag a convoy.
        let profiles = vec![prof(5, &[500, 700], &[290, 310], &[0, 0])];
        let cs = candidates(&profiles, &base(), &AdaptPolicy::default());
        assert_eq!(cs.len(), 2);
        assert!(cs
            .iter()
            .all(|c| matches!(c.adjustment, Adjustment::WakePolicy(_))));
        assert!(cs.iter().all(|c| c.trigger == Trigger::Convoy));
        assert!(cs.iter().all(|c| c.section == 5));
    }

    #[test]
    fn drifting_sections_coarsen_without_globalizing() {
        let profiles = vec![prof(2, &[50, 60], &[100, 120], &[2, 3])];
        let cs = candidates(&profiles, &base(), &AdaptPolicy::default());
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].adjustment, Adjustment::Coarsen);
        assert_eq!(cs[0].trigger, Trigger::Drift);
    }

    #[test]
    fn uncontended_fine_sections_raise_k() {
        let profiles = vec![prof(3, &[0, 1], &[100, 100], &[0, 0])];
        let cs = candidates(&profiles, &base(), &AdaptPolicy::default());
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].adjustment, Adjustment::RaiseK(6));
        assert_eq!(cs[0].config.k, 6);
        assert_eq!(cs[0].trigger, Trigger::NoContention);
    }

    #[test]
    fn thin_evidence_is_ignored() {
        let profiles = vec![prof(1, &[1000], &[1], &[0])];
        assert!(candidates(&profiles, &base(), &AdaptPolicy::default()).is_empty());
    }

    #[test]
    fn select_requires_strict_wait_improvement() {
        let b = PlanCost {
            total_wait: 100,
            makespan: 50,
            ..PlanCost::default()
        };
        let worse = PlanCost {
            total_wait: 120,
            ..PlanCost::default()
        };
        let tie = PlanCost {
            total_wait: 100,
            ..PlanCost::default()
        };
        let better = PlanCost {
            total_wait: 80,
            makespan: 60,
            ..PlanCost::default()
        };
        let best = PlanCost {
            total_wait: 80,
            makespan: 55,
            ..PlanCost::default()
        };
        assert_eq!(select(b, &[worse, tie]), None);
        assert_eq!(select(b, &[worse, better, best]), Some(2));
        assert_eq!(select(b, &[best, better]), Some(0));
    }

    #[test]
    fn report_json_is_canonical() {
        let c = Candidate {
            section: 4,
            config: SchemeConfig::full(9, None),
            adjustment: Adjustment::RaiseK(9),
            trigger: Trigger::NoContention,
        };
        let r = DecisionReport {
            name: "list".into(),
            mode: "MultiGrain".into(),
            baseline: PlanCost {
                total_wait: 10,
                total_hold: 20,
                total_revalidations: 0,
                makespan: 99,
            },
            candidates: vec![Decision {
                candidate: c,
                cost: PlanCost::default(),
                status: EvalStatus::Replayed,
            }],
            selected: Some(0),
        };
        let j = r.to_json();
        assert_eq!(
            j,
            "{\"name\":\"list\",\"mode\":\"MultiGrain\",\
             \"baseline\":{\"wait\":10,\"hold\":20,\"revalidations\":0,\"makespan\":99},\
             \"candidates\":[{\"section\":4,\"adjustment\":\"raise-k:9\",\
             \"trigger\":\"no-contention\",\
             \"config\":{\"k\":9,\"expr\":true,\"pts\":true,\"eff\":true},\
             \"cost\":{\"wait\":0,\"hold\":0,\"revalidations\":0,\"makespan\":0},\
             \"status\":\"replayed\"}],\
             \"selected\":0}"
        );
        assert_eq!(r.to_json(), j);
    }
}
