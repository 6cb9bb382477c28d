//! Profile-guided per-section granularity adaptation (DESIGN.md §5.4):
//! the policy and the loop that measures it.
//!
//! The paper fixes one `Σ_k × Σ≡ × Σ_ε` point for the whole program;
//! §6 shows no single point wins everywhere. This module closes the
//! loop from runtime evidence back into the static analysis: given the
//! corrected per-section wait/hold/revalidation histograms from
//! [`trace::profile()`], [`candidates`] proposes per-section
//! [`SchemeConfig`] overrides, and [`select`] picks the override whose
//! *replayed* cost, measured on the same recorded execution, reduces
//! total virtual-time wait. [`crate::Pipeline::adapt`] runs the loop
//! against the deterministic interpreter through the shared evaluation
//! harness ([`crate::eval`]):
//!
//! 1. **Record** the baseline under the uniform configuration and
//!    profile its trace — wait split from hold at the first
//!    `PlanComplete` marker, revalidation retries tallied separately.
//!    The program is compiled and points-to analyzed **once**, shared
//!    with every candidate.
//! 2. **Propose** candidate overrides from those profiles — and, for
//!    convoy-flagged sections, wake-policy candidates that keep the
//!    lock plan and steer the scheduler (DESIGN.md §5.6).
//! 3. **Replay** the identical `RunConfig` (same seed, same virtual
//!    scheduler, same fault plan) under each candidate's locks —
//!    **concurrently**, on the harness's eval-thread pool — and
//!    measure the replayed [`PlanCost`]. Of the candidate recordings
//!    only the best ranked so far is kept (O(1) memory in candidate
//!    count); a candidate whose trace overflowed its capacity is
//!    surfaced as [`EvalStatus::Skipped`], not a silently bogus cost.
//! 4. **Select** the candidate with the lowest total virtual-time wait,
//!    strictly below the baseline, and emit a machine-readable
//!    [`DecisionReport`]. The winner was recorded once, by its
//!    evaluation run: that kept recording is the one returned, and
//!    nothing is re-executed.
//!
//! The policy — [`candidates`], `rank`, [`select`] — is a pure
//! function of its arguments: no clocks, no randomness, no
//! thread-count dependence. Inference is byte-identical at any
//! analysis thread count, each replay is an exact virtual-time
//! re-execution, and the harness merges results in candidate order —
//! so two runs over the same config produce byte-identical reports and
//! adapted-trace digests **at every eval thread count**.
//!
//! An adapted trace is deliberately **not** stamped with `run.*`
//! replay metadata: `replay()` would re-infer under the uniform
//! configuration and silently diverge. It carries `adapt.*` keys
//! describing the applied overrides instead.

use crate::replay::Recording;
use interp::PolicyKind;
use lockscheme::{ConfigMap, SchemeConfig};
use trace::json::Writer;
use trace::SectionProfile;

/// A section is *contended* when `mean(wait) >= ratio × max(mean(hold),
/// 1)`: it spends much longer blocking on (and negotiating) its lock
/// plan than holding it, so the plan itself is the cost; coarsen toward
/// `Σ≡`/global to shrink it.
const COARSEN_WAIT_HOLD_RATIO: f64 = 4.0;

/// A section is *drifting* when `mean(revalidations) >= threshold`: its
/// fine descriptors keep moving while it waits (the TH resize pattern),
/// so each entry re-runs the acquire protocol, and coarser locks are a
/// candidate.
const DRIFT_REVAL_MEAN: f64 = 0.5;

/// A section is *uncontended* when `mean(wait) <= ratio × mean(hold)`:
/// its locks are essentially free, so a larger `k` (finer expression
/// locks) may pay for itself.
const UNCONTENDED_WAIT_HOLD_RATIO: f64 = 0.05;

/// Sections with fewer completed executions get no candidate, and no
/// convoy flag: too little evidence to act on.
const MIN_ENTRIES: u64 = 2;

/// Minimum estimated steady-state queue depth (`mean wait / mean
/// hold`) of a convoy: below it there is no queue to re-order.
const MIN_DEPTH: f64 = 1.5;

/// Minimum convoy pressure (`depth × mean hold`, in ticks): queues on
/// cheap locks are not worth steering.
const MIN_PRESSURE: f64 = 200.0;

/// How much to raise `k` for uncontended fine sections.
const RAISE_K_STEP: usize = 3;

/// Upper bound on the raised `k`.
const MAX_K: usize = 9;

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
/// [`ConfigMap`] override per candidate. Sections with fewer than
/// two completed executions get none.
///
/// Deterministic: profiles are processed in their given (section-id)
/// order and rules fire in a fixed order, so identical inputs yield an
/// identical candidate vector. All comparisons are pure arithmetic on
/// the profile's integer counters.
pub fn candidates(profiles: &[SectionProfile], base: &ConfigMap) -> Vec<Candidate> {
    let mut out = Vec::new();
    for p in profiles {
        if p.entries < MIN_ENTRIES {
            continue;
        }
        let current = base.for_section(p.section);
        let wait = p.wait.mean();
        let hold = p.hold.mean();
        let contended = wait >= COARSEN_WAIT_HOLD_RATIO * hold.max(1.0);
        let drifting = p.revalidations.mean() >= DRIFT_REVAL_MEAN;
        let uncontended = wait <= UNCONTENDED_WAIT_HOLD_RATIO * hold;
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
        } else if uncontended && current.use_expr && current.k < MAX_K {
            let k = (current.k + RAISE_K_STEP).min(MAX_K);
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
    // section's *current* one — the harness evaluates these by
    // steering the scheduler, not by re-planning locks.
    for flag in detect_convoys(profiles) {
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

/// One convoy-prone section: a queue that never drains. Waiters pile
/// up behind a long-hold (or frequently re-granted) lock faster than
/// releases retire them, so measured wait grows with queue depth × hold
/// time even though each hold is modest.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ConvoyFlag {
    pub section: u32,
    /// Estimated steady-state queue depth (`mean wait / mean hold`).
    pub depth: f64,
    /// Mean hold ticks.
    pub mean_hold: f64,
    /// `depth × mean_hold`: the per-entry wait a perfect wake policy
    /// could attack.
    pub pressure: f64,
}

/// Flags convoy-prone sections, in section-id order — the trigger of
/// the wake-policy candidates. Baseline traces carry no `["wk", …]`
/// wake decisions, so the queue depth is estimated from the wait/hold
/// histograms: by Little's law an entry that waits `W` ticks behind
/// holders occupying the lock `H` ticks at a time has `W / H`
/// predecessors queued ahead of it. Re-ordering a queue shallower than
/// 1.5 buys nothing, however long its waits.
pub fn detect_convoys(profiles: &[SectionProfile]) -> Vec<ConvoyFlag> {
    let mut out = Vec::new();
    for p in profiles {
        if p.entries < MIN_ENTRIES {
            continue;
        }
        let mean_hold = p.hold.mean();
        let depth = p.wait.mean() / mean_hold.max(1.0);
        let pressure = depth * mean_hold.max(1.0);
        if depth >= MIN_DEPTH && pressure >= MIN_PRESSURE {
            out.push(ConvoyFlag {
                section: p.section,
                depth,
                mean_hold,
                pressure,
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

/// A candidate's place in the selection order, lowest first: total
/// replayed wait, then makespan, then candidate index.
pub(crate) type Rank = (u64, u64, usize);

/// Where candidate `index` with measured `cost` ranks, or `None` when
/// it does not wait strictly less than the baseline and so can never
/// be selected. The one comparator of both decision loops: [`select`]
/// ranks a finished cost vector with it, and the candidate loop keeps
/// the best-ranked recording with it as the candidates finish.
pub(crate) fn rank(baseline: PlanCost, cost: PlanCost, index: usize) -> Option<Rank> {
    (cost.total_wait < baseline.total_wait).then_some((cost.total_wait, cost.makespan, index))
}

/// Picks the winner among the eligible `(candidate index, measured
/// cost)` pairs — adapt's replayed candidates, or a section's clean
/// repairs against its global demotion: the lowest `rank`, strictly
/// lower total replayed wait than `baseline`, ties broken by lower
/// makespan, then by index. `None`: the baseline stands.
pub fn select(
    baseline: PlanCost,
    eligible: impl IntoIterator<Item = (usize, PlanCost)>,
) -> Option<usize> {
    eligible
        .into_iter()
        .filter_map(|(i, c)| rank(baseline, c, i))
        .min()
        .map(|(_, _, i)| i)
}

/// How one candidate's cost was obtained.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub enum EvalStatus {
    /// Replayed exactly; the cost is measured.
    #[default]
    Replayed,
    /// Run, but the recording was unusable (e.g. the candidate trace
    /// overflowed its capacity); the cost is zeroed and the reason is
    /// surfaced instead of a silently bogus profile.
    Skipped { reason: String },
}

impl EvalStatus {
    /// True when the decision's cost is an exact replayed measurement.
    pub fn is_replayed(&self) -> bool {
        matches!(self, EvalStatus::Replayed)
    }

    /// The `status` member, and `note` where it has one.
    pub(crate) fn write_json(&self, w: &mut Writer) {
        match self {
            EvalStatus::Replayed => w.key("status").str("replayed"),
            EvalStatus::Skipped { reason } => {
                w.key("status").str("skipped").key("note").str(reason)
            }
        };
    }
}

/// Opens a decision report: `{"name":…,"mode":…,"baseline":{…}`. The
/// name arrives from outside (`run.name` trace metadata); the writer
/// escapes it.
pub(crate) fn write_header(w: &mut Writer, name: &str, mode: &str, baseline: PlanCost) {
    w.object();
    w.key("name").str(name);
    w.key("mode").str(mode);
    write_cost(w.key("baseline"), baseline);
}

pub(crate) fn write_cost(w: &mut Writer, c: PlanCost) {
    w.object();
    w.key("wait").u64(c.total_wait);
    w.key("hold").u64(c.total_hold);
    w.key("revalidations").u64(c.total_revalidations);
    w.key("makespan").u64(c.makespan);
    w.end_object();
}

pub(crate) fn write_config(w: &mut Writer, c: SchemeConfig) {
    w.object();
    w.key("k").u64(c.k as u64);
    w.key("expr").bool(c.use_expr);
    w.key("pts").bool(c.use_pts);
    w.key("eff").bool(c.use_eff);
    w.end_object();
}

/// An index into a report's candidates, or `null`.
pub(crate) fn write_index(w: &mut Writer, i: Option<usize>) {
    match i {
        Some(i) => w.u64(i as u64),
        None => w.null(),
    };
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

    /// Canonical JSON encoding: fixed key order, no whitespace.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let mut w = Writer::new(&mut out);
        write_header(&mut w, &self.name, &self.mode, self.baseline);
        w.key("candidates").array();
        for d in &self.candidates {
            let c = &d.candidate;
            w.object();
            w.key("section").u64(c.section.into());
            w.key("adjustment").str(&c.adjustment.tag());
            w.key("trigger").str(c.trigger.tag());
            write_config(w.key("config"), c.config);
            write_cost(w.key("cost"), d.cost);
            d.status.write_json(&mut w);
            w.end_object();
        }
        write_index(w.end_array().key("selected"), self.selected);
        w.end_object();
        out
    }
}

/// The full result of one adaptation loop.
#[derive(Clone, Debug)]
pub struct AdaptRun {
    /// Machine-readable decision record (all candidates, all costs).
    pub report: DecisionReport,
    /// The baseline recording the profiles came from.
    pub baseline: Recording,
    /// The winning configuration's recording, when one beat the
    /// baseline.
    pub adapted: Option<Recording>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::RunConfig;
    use crate::Pipeline;
    use interp::ExecMode;
    use lockinfer::AdaptPolicy;
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
        let cs = candidates(&profiles, &base());
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
        let cs = candidates(&profiles, &base());
        assert_eq!(cs.len(), 2);
        assert!(cs
            .iter()
            .all(|c| matches!(c.adjustment, Adjustment::WakePolicy(_))));
        assert!(cs.iter().all(|c| c.trigger == Trigger::Convoy));
        assert!(cs.iter().all(|c| c.section == 5));
    }

    #[test]
    fn deep_convoys_on_expensive_locks_are_flagged() {
        // Mean wait 600 behind mean hold 100: depth 6, pressure 600.
        let flags = detect_convoys(&[prof(1, &[500, 700], &[90, 110], &[0, 0])]);
        assert_eq!(flags.len(), 1);
        assert_eq!(flags[0].section, 1);
        assert!((flags[0].depth - 6.0).abs() < 1e-9);
        assert!((flags[0].pressure - 600.0).abs() < 1e-9);
    }

    #[test]
    fn shallow_or_cheap_convoys_are_not_flagged() {
        // Depth 0.5: waiters drain faster than they arrive.
        let shallow = prof(1, &[50, 50], &[100, 100], &[0, 0]);
        // Depth 10 but pressure 100: a convoy on a trivial lock.
        let cheap = prof(2, &[100, 100], &[10, 10], &[0, 0]);
        // Plenty of pressure but a single entry: no evidence.
        let thin = prof(3, &[10_000], &[100], &[0]);
        assert!(detect_convoys(&[shallow, cheap, thin]).is_empty());
    }

    #[test]
    fn drifting_sections_coarsen_without_globalizing() {
        let profiles = vec![prof(2, &[50, 60], &[100, 120], &[2, 3])];
        let cs = candidates(&profiles, &base());
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].adjustment, Adjustment::Coarsen);
        assert_eq!(cs[0].trigger, Trigger::Drift);
    }

    #[test]
    fn uncontended_fine_sections_raise_k() {
        let profiles = vec![prof(3, &[0, 1], &[100, 100], &[0, 0])];
        let cs = candidates(&profiles, &base());
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].adjustment, Adjustment::RaiseK(6));
        assert_eq!(cs[0].config.k, 6);
        assert_eq!(cs[0].trigger, Trigger::NoContention);
    }

    #[test]
    fn thin_evidence_is_ignored() {
        let profiles = vec![prof(1, &[1000], &[1], &[0])];
        assert!(candidates(&profiles, &base()).is_empty());
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
        assert_eq!(select(b, [worse, tie].into_iter().enumerate()), None);
        assert_eq!(
            select(b, [worse, better, best].into_iter().enumerate()),
            Some(2)
        );
        assert_eq!(select(b, [best, better].into_iter().enumerate()), Some(0));
        // The index returned is the pair's own, not its position among
        // the eligible.
        assert_eq!(select(b, [(3, better), (5, best)]), Some(5));
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

    /// Two sections with opposite temperaments: `hot` hammers one
    /// global under long critical sections (wait ≫ hold per entry once
    /// several threads queue), `cold` touches a thread-private cell
    /// (never contended).
    const SRC: &str = r#"
        global shared;
        global cells;
        fn setup(n) { cells = new(64); shared = 0; }
        fn work(iters) {
            let i = 0;
            while (i < iters) {
                atomic { shared = shared + 1; nops(200); }
                atomic { cells[tid()] = cells[tid()] + 1; }
                i = i + 1;
            }
            return 0;
        }
        fn total() { return shared; }
    "#;

    fn cfg() -> RunConfig {
        RunConfig {
            name: "two-temperaments".into(),
            source: SRC.into(),
            k: 3,
            mode: ExecMode::MultiGrain,
            threads: 8,
            heap_cells: 1 << 16,
            seed: 11,
            quantum: 64,
            stm_abort_budget: 16,
            faults: None,
            sentinel: None,
            weaken: None,
            sched: None,
            repairs: Vec::new(),
            trace_capacity: 1 << 18,
            init: ("setup".into(), vec![0]),
            worker: ("work".into(), vec![30]),
            check: Some("total".into()),
        }
    }

    fn adapt(eval_threads: usize) -> AdaptRun {
        Pipeline::new(cfg())
            .eval_threads(eval_threads)
            .adapt(&AdaptPolicy)
            .unwrap()
    }

    #[test]
    fn adapt_produces_candidates_and_a_report() {
        let run = adapt(1);
        assert!(
            !run.report.candidates.is_empty(),
            "the hot section must trigger at least one proposal"
        );
        let json = run.report.to_json();
        assert!(json.contains("\"baseline\""), "{json}");
        assert!(run.report.baseline.total_wait > 0);
        // The exact default evaluation replays every candidate.
        assert!(run.report.candidates.iter().all(|d| d.status.is_replayed()));
        // Candidate runs still compute the right answer.
        assert_eq!(run.baseline.outcome.check, Some(8 * 30));
    }

    #[test]
    fn adapt_is_deterministic_across_eval_thread_counts() {
        let runs: Vec<AdaptRun> = [1usize, 2, 8].iter().map(|&t| adapt(t)).collect();
        for r in &runs[1..] {
            assert_eq!(r.report.to_json(), runs[0].report.to_json());
            assert_eq!(r.baseline.trace.digest(), runs[0].baseline.trace.digest());
            match (&r.adapted, &runs[0].adapted) {
                (Some(a), Some(b)) => assert_eq!(a.trace.digest(), b.trace.digest()),
                (None, None) => {}
                other => panic!("selection diverged across thread counts: {other:?}"),
            }
        }
    }

    #[test]
    fn adapted_traces_are_not_replayable_but_carry_adapt_meta() {
        let run = adapt(1);
        if let Some(adapted) = &run.adapted {
            assert!(crate::replay::replay(&adapted.trace).is_err());
            assert_eq!(
                adapted.trace.meta_get("adapt.name"),
                Some("two-temperaments")
            );
        }
        // The baseline stays fully replayable.
        let again = crate::replay::replay(&run.baseline.trace).unwrap();
        assert_eq!(again.trace.digest(), run.baseline.trace.digest());
    }

    #[test]
    fn a_pipeline_from_a_recorded_trace_reports_the_same_bytes() {
        let rec = crate::replay::record(&cfg()).unwrap();
        let from_trace = Pipeline::from_trace(&rec.trace)
            .unwrap()
            .adapt(&AdaptPolicy)
            .unwrap();
        assert_eq!(from_trace.report.to_json(), adapt(1).report.to_json());
    }

    /// The benchmark's `adapt-scale-d4w6s12` configuration, where a
    /// wake policy wins.
    fn scale_cfg() -> RunConfig {
        use workloads::scale::{self, ScaleParams};
        let spec = scale::smoke(
            "scale-d4w6s12",
            ScaleParams {
                depth: 4,
                width: 6,
                sections: 12,
                stmts_per_fn: 10,
                seed: 7,
            },
            3,
        );
        RunConfig {
            seed: 42,
            trace_capacity: 1 << 20,
            ..RunConfig::from_spec(&spec, 9, ExecMode::MultiGrain, 8)
        }
    }

    /// `adapt` returns the winner's recording from its candidate run;
    /// a fresh run of the selected candidate is the oracle it must
    /// equal, at every eval thread count.
    #[test]
    fn the_kept_recording_equals_a_rerun_of_the_selected_candidate() {
        use crate::eval::EvalContext;
        for cfg in [cfg(), scale_cfg()] {
            let ctx = EvalContext::new(&cfg, true).unwrap();
            let base_map = ctx.base_map(&cfg);
            for eval_threads in [1, 2, 7] {
                let run = Pipeline::new(cfg.clone())
                    .eval_threads(eval_threads)
                    .adapt(&AdaptPolicy)
                    .unwrap();
                let label = format!("{} at {eval_threads} eval threads", cfg.name);
                let winner = run.report.winner().expect("a candidate wins");
                let profiles = trace::profile(&run.baseline.trace);
                let again = ctx
                    .eval_candidate(
                        &EvalContext::candidate_cfg(&cfg, &winner.candidate, &profiles),
                        &winner.candidate.config_map(&base_map),
                    )
                    .unwrap();
                assert_eq!(again.cost, winner.cost, "{label}");
                let again = again.rec.expect("the winner's rerun replayed");
                let kept = run.adapted.expect("the winner's recording is kept");
                assert_eq!(kept.trace.digest(), again.trace.digest(), "{label}");
                assert_eq!(kept.outcome, again.outcome, "{label}");
            }
        }
    }
}
