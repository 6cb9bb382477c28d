//! Quarantine-aware re-inference (DESIGN.md §5.8): the repair policy
//! and the loop that measures it.
//!
//! The sentinel's quarantine ladder (DESIGN.md §5.5) demotes an
//! offending section to the trivially sound global scheme and, after a
//! clean probation, heals it — *back onto the very scheme that
//! offended*. This module closes that gap: each [`Violation`] the
//! validator finds in the recorded trace is a counterexample witness
//! against the abstraction (the held-mode set that failed Fig. 6
//! licensing, plus the accessed cell's allocation extent), and
//! `diagnose` reads off *which*
//! component failed — a missed may-alias edge in `Σ≡`, an
//! under-approximated effect in `Σ_ε`, or a fine `Σ_k` expression that
//! pinned the wrong cell of the right class. `candidates` maps the
//! per-section diagnosis set to repaired [`SchemeConfig`] overrides,
//! and the acceptance rule installs a repair only if its replayed
//! execution is lockset-clean (`is_clean`) **and** strictly cheaper
//! (total virtual-time wait) than the global demotion it replaces —
//! otherwise the ladder's demotion stands, which is always sound.
//!
//! [`crate::Pipeline::reinfer`] runs the loop against the
//! deterministic interpreter through the shared evaluation harness
//! ([`crate::eval`]), the same baseline step, candidate replay and
//! selection [`crate::Pipeline::adapt`] uses:
//!
//! 1. **Record** the armed run (sentinel on, typically with a seeded
//!    [`crate::replay::WeakenPlan`] fault) with `EvalContext::baseline`.
//!    The trace is the record of its misses.
//! 2. **Validate** the baseline's trace ([`trace::validate`]) and sort
//!    its violations by `(clock, tid, epoch)`, so every downstream
//!    decision is thread-count independent. Each carries the grants
//!    held at the access and the cell's allocation extent, resolved
//!    through the trace's allocation-table snapshot
//!    ([`trace::Trace::alloc_of`]). With a sampled sentinel this is
//!    every miss the trace records, not only the sampled ones: the
//!    sentinel counts what it checked, the validator checks every
//!    access.
//! 3. **Reference**: for every offending section, measure the cost of
//!    the quarantine ladder's *status quo* — the run with that section
//!    permanently demoted to the global lock
//!    ([`lockscheme::ConfigMap::demote_to_global`], weaken off).
//! 4. **Replay** the references and every repair candidate on the
//!    identical deterministic schedule (weaken off, sentinel still
//!    armed) in one `EvalContext::eval_candidates` call — concurrently
//!    on the harness's eval-thread pool, with its skip rule and cost —
//!    and check each recording for *cleanliness* (`is_clean`): no
//!    run error **and** a lockset-clean validator verdict (every
//!    sentinel miss is a validator violation of the same trace, so
//!    the verdict also says the sentinel saw none).
//! 5. **Admit** per section: [`crate::adapt::select`] over the clean
//!    candidates with the demotion reference as the baseline — the
//!    cheapest clean candidate strictly below the reference's total
//!    wait, or nothing (the demotion stands — sound, just slow).
//! 6. **Heal**: re-run the original armed configuration with the
//!    admitted repairs installed dormant ([`crate::replay::RunConfig::repairs`]). The
//!    section offends, demotes, serves its probation, and heals *onto
//!    the repaired scheme*, traced as `["ri",section,candidate,1]`
//!    in the trace. The healed recording is stamped with full `run.*`
//!    metadata (including `run.repair.*`), so it replays byte-for-byte.
//!
//! The policy is a pure function of its arguments — no clocks, no
//! randomness, no thread-count dependence — and the violations it reads
//! are in a canonical order (`(clock, tid, epoch)`, all properties of
//! the deterministic schedule the trace records). Everything
//! downstream of the recorded trace is deterministic, so two runs over
//! the same config produce byte-identical [`RepairReport`] JSON and
//! healed-trace digests **at every analysis and eval thread count**.

use std::collections::BTreeMap;

use crate::adapt::{write_config, write_cost, write_header, write_index, EvalStatus, PlanCost};
use crate::replay::Recording;
use lockscheme::{ConfigMap, SchemeConfig};
use mglock::NodeKey;
use trace::json::Writer;
use trace::lockset::{covers, mode_grants, Violation};

/// Which scheme component the witness convicts. Ordered by
/// specificity: `diagnose` returns the most precise explanation the
/// held set supports.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Diagnosis {
    /// Some held grant *covers* the accessed cell (root, its class, or
    /// its very cell) but in a mode Fig. 6 does not grant the effect —
    /// the effect component `Σ_ε` under-approximated (planned `S`
    /// where the execution writes).
    WrongMode,
    /// Some held grant is a fine lock of the accessed cell's own
    /// class, in a licensing mode, but pinned to a different cell —
    /// the `Σ_k` expression's denotation drifted off the accessed
    /// element (intra-class aliasing the expression missed).
    WrongCell {
        /// The accessed cell's points-to class.
        accessed: u32,
    },
    /// Every licensing-mode grant names a *different* points-to class
    /// than the accessed cell: the abstraction missed a may-alias
    /// edge the execution just proved. The pair is the refinement the
    /// witness asks for (merge `held` into `accessed`).
    MissedAlias {
        /// The accessed cell's points-to class.
        accessed: u32,
        /// The smallest-numbered held class with a licensing mode.
        held: u32,
    },
    /// Nothing held licenses anything relevant — the plan simply never
    /// named the location (the dropped-spec shape a seeded
    /// [`crate::replay::WeakenPlan`] produces). Only the conservative repairs
    /// apply.
    NoCover,
}

impl Diagnosis {
    /// Stable machine-readable tag (used in the repair report).
    pub fn tag(&self) -> String {
        match self {
            Diagnosis::WrongMode => "wrong-mode".into(),
            Diagnosis::WrongCell { accessed } => format!("wrong-cell:c{accessed}"),
            Diagnosis::MissedAlias { accessed, held } => {
                format!("missed-alias:c{held}-c{accessed}")
            }
            Diagnosis::NoCover => "no-cover".into(),
        }
    }

    /// Fixed candidate-generation priority (lower fires first).
    fn rank(&self) -> u8 {
        match self {
            Diagnosis::WrongMode => 0,
            Diagnosis::WrongCell { .. } => 1,
            Diagnosis::MissedAlias { .. } => 2,
            Diagnosis::NoCover => 3,
        }
    }
}

/// The class a held grant speaks for, if any.
fn class_of(node: NodeKey) -> Option<u32> {
    match node {
        NodeKey::Root => None,
        NodeKey::Pts(p) | NodeKey::Fine(p, _) => Some(p),
    }
}

/// Reads the most precise failure explanation off one violation. An
/// access outside every recorded allocation (`extent` is `None`) is
/// one no scheme component can name: only the conservative repairs
/// apply.
///
/// Deterministic: explanations are tried in a fixed specificity order
/// (wrong mode on a covering node, then wrong cell within the right
/// class, then a missed alias, then no cover), and the missed-alias
/// pair picks the smallest-numbered licensing held class.
fn diagnose(v: &Violation) -> Diagnosis {
    if v.held
        .iter()
        .any(|&(node, mode)| covers(node, v.addr, v.extent) && !mode_grants(mode, v.write))
    {
        return Diagnosis::WrongMode;
    }
    if let Some((_, accessed)) = v.extent {
        let fine_same_class = v.held.iter().any(|&(node, mode)| {
            matches!(node, NodeKey::Fine(p, _) if p == accessed) && mode_grants(mode, v.write)
        });
        if fine_same_class {
            return Diagnosis::WrongCell { accessed };
        }
        let held = v
            .held
            .iter()
            .filter(|&&(_, mode)| mode_grants(mode, v.write))
            .filter_map(|&(node, _)| class_of(node))
            .filter(|&p| p != accessed)
            .min();
        if let Some(held) = held {
            return Diagnosis::MissedAlias { accessed, held };
        }
    }
    Diagnosis::NoCover
}

/// What a repair changes relative to the section's current
/// configuration. Unlike [`Adjustment`](crate::adapt::Adjustment), every repair
/// moves *coarser or wider* — a violation is evidence the current
/// point under-protects, so refinements that narrow coverage are never
/// proposed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Repair {
    /// Drop the expression component: the section's locks degrade to
    /// the coarse per-class `Σ≡` locks, which cover every cell of the
    /// class the witness proved reachable.
    Coarsen,
    /// Drop the effect component: every lock is planned at `rw`
    /// (exclusive), closing the read-planned/write-executed gap.
    Widen,
    /// Both: coarse per-class locks at `rw` — the strongest repair
    /// short of the global demotion itself, and still non-global (the
    /// points-to component stays on).
    CoarsenWiden,
}

impl Repair {
    /// Stable machine-readable tag (used in the repair report and the
    /// `["ri",…]` event documentation).
    pub fn tag(&self) -> &'static str {
        match self {
            Repair::Coarsen => "coarsen",
            Repair::Widen => "widen",
            Repair::CoarsenWiden => "coarsen-widen",
        }
    }

    /// Applies the repair to a configuration.
    fn apply(&self, c: SchemeConfig) -> SchemeConfig {
        match self {
            Repair::Coarsen => SchemeConfig {
                use_expr: false,
                use_pts: true,
                ..c
            },
            Repair::Widen => SchemeConfig {
                use_eff: false,
                use_pts: true,
                ..c
            },
            Repair::CoarsenWiden => SchemeConfig {
                use_expr: false,
                use_eff: false,
                use_pts: true,
                ..c
            },
        }
    }
}

/// One proposed per-section repair.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RepairCandidate {
    /// Static section id the repair applies to.
    pub section: u32,
    /// The repaired configuration.
    pub config: SchemeConfig,
    pub repair: Repair,
    /// The (first, in canonical violation order) diagnosis that
    /// motivated this repair.
    pub diagnosis: Diagnosis,
}

impl RepairCandidate {
    /// The candidate's full configuration map: `base` plus this one
    /// override.
    pub(crate) fn config_map(&self, base: &ConfigMap) -> ConfigMap {
        let mut m = base.clone();
        m.set_override(self.section, self.config);
        m
    }
}

/// Maps violations in canonical order to repair candidates, grouped
/// per offending section.
///
/// Deterministic: sections are visited in ascending id order;
/// per-section, violations keep their canonical `(clock, tid, epoch)`
/// order, diagnoses fire candidates in a fixed specificity
/// order ([`Diagnosis::rank`]), and duplicates (by repaired
/// configuration) are emitted once, first occurrence wins. No-op
/// repairs (configuration equal to the section's current one) are
/// dropped — replaying the offending configuration cannot discharge
/// its own counterexample.
pub(crate) fn candidates(violations: &[Violation], base: &ConfigMap) -> Vec<RepairCandidate> {
    let mut by_section: BTreeMap<u32, Vec<&Violation>> = BTreeMap::new();
    for v in violations {
        by_section.entry(v.section).or_default().push(v);
    }
    let mut out = Vec::new();
    for (&section, vs) in &by_section {
        let current = base.for_section(section);
        // The section's diagnosis set, most specific first; ties keep
        // canonical order (stable sort).
        let mut diags: Vec<Diagnosis> = vs.iter().map(|v| diagnose(v)).collect();
        diags.sort_by_key(Diagnosis::rank);
        let mut section_out: Vec<RepairCandidate> = Vec::new();
        let mut push = |repair: Repair, diagnosis: Diagnosis| {
            let config = repair.apply(current);
            if config == current || section_out.iter().any(|c| c.config == config) {
                return;
            }
            section_out.push(RepairCandidate {
                section,
                config,
                repair,
                diagnosis,
            });
        };
        for &d in &diags {
            match d {
                Diagnosis::WrongMode => push(Repair::Widen, d),
                Diagnosis::WrongCell { .. }
                | Diagnosis::MissedAlias { .. }
                | Diagnosis::NoCover => push(Repair::Coarsen, d),
            }
        }
        // The conservative fallback rides along for every offending
        // section, motivated by its most specific diagnosis.
        if let Some(&d) = diags.first() {
            push(Repair::CoarsenWiden, d);
        }
        out.append(&mut section_out);
    }
    out
}

/// The cleanliness verdict on one replayed repair or reference run
/// (step 4 of the module docs): it ran to completion and the offline
/// validator passed its trace. The sentinel asks the validator's
/// predicate of the same accesses the trace records, so a pass also
/// means the sentinel missed nothing.
pub(crate) fn is_clean(rec: &Recording) -> bool {
    rec.outcome.error.is_none() && trace::validate(&rec.trace).is_ok_and(|v| v.passed())
}

/// One evaluated repair candidate: the proposal plus its measured
/// replay outcome (cost zeroed when `status` says it was never
/// replayed).
#[derive(Clone, PartialEq, Debug)]
pub struct RepairDecision {
    pub candidate: RepairCandidate,
    /// Lockset-clean on replay.
    pub clean: bool,
    pub cost: PlanCost,
    pub status: EvalStatus,
}

/// One offending section's repair trial.
#[derive(Clone, PartialEq, Debug)]
pub struct SectionReport {
    /// The demoted section.
    pub section: u32,
    /// The baseline trace's violations attributed to it.
    pub violations: u64,
    /// Measured cost of the global-demotion reference (what healing
    /// back onto the seed scheme under quarantine costs).
    pub demoted: PlanCost,
    /// Every candidate evaluated, in generation order.
    pub candidates: Vec<RepairDecision>,
    /// Index into `candidates` of the admitted repair, if any.
    pub admitted: Option<usize>,
}

impl SectionReport {
    /// The admitted decision, if any candidate was.
    pub fn winner(&self) -> Option<&RepairDecision> {
        self.admitted.map(|i| &self.candidates[i])
    }
}

/// The machine-readable outcome of one re-inference run.
#[derive(Clone, PartialEq, Debug)]
pub struct RepairReport {
    /// Workload / run name.
    pub name: String,
    /// Execution mode of the recorded run.
    pub mode: String,
    /// Cost of the recorded (armed, offending) baseline execution.
    pub baseline: PlanCost,
    /// One entry per offending section, ascending section id.
    pub sections: Vec<SectionReport>,
}

impl RepairReport {
    /// Every admitted `(section, candidate index within its section)`
    /// pair, ascending section order — the set the healed re-run
    /// installs as dormant repairs.
    pub fn admitted(&self) -> Vec<(u32, usize)> {
        self.sections
            .iter()
            .filter_map(|s| s.admitted.map(|i| (s.section, i)))
            .collect()
    }

    /// Canonical JSON encoding: fixed key order, no whitespace.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let mut w = Writer::new(&mut out);
        write_header(&mut w, &self.name, &self.mode, self.baseline);
        w.key("sections").array();
        for s in &self.sections {
            w.object();
            w.key("section").u64(s.section.into());
            w.key("violations").u64(s.violations);
            write_cost(w.key("demoted"), s.demoted);
            w.key("candidates").array();
            for d in &s.candidates {
                w.object();
                w.key("repair").str(d.candidate.repair.tag());
                w.key("diagnosis").str(&d.candidate.diagnosis.tag());
                write_config(w.key("config"), d.candidate.config);
                w.key("clean").bool(d.clean);
                write_cost(w.key("cost"), d.cost);
                d.status.write_json(&mut w);
                w.end_object();
            }
            write_index(w.end_array().key("admitted"), s.admitted);
            w.end_object();
        }
        w.end_array().end_object();
        out
    }
}

/// The full result of one re-inference pass.
#[derive(Clone, Debug)]
pub struct ReinferRun {
    /// Machine-readable repair record (all sections, all candidates).
    pub report: RepairReport,
    /// The armed baseline recording whose violations were diagnosed.
    pub baseline: Recording,
    /// The healed re-recording with every admitted repair installed,
    /// when at least one section's repair was admitted. Carries the
    /// demote → probation → heal → `ri`-accepted arc in its events.
    pub healed: Option<Recording>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::{RunConfig, WeakenPlan};
    use crate::Pipeline;
    use interp::{ExecMode, SentinelConfig};
    use mglock::{FineAddr, Mode};
    use trace::EventKind;

    fn witness(
        section: u32,
        addr: u64,
        write: bool,
        held: Vec<(NodeKey, Mode)>,
        extent: Option<(u64, u32)>,
    ) -> Violation {
        Violation {
            tid: 0,
            epoch: 0,
            clock: 0,
            addr,
            write,
            section,
            held,
            extent,
        }
    }

    fn base() -> ConfigMap {
        ConfigMap::uniform(SchemeConfig::full(3, None))
    }

    #[test]
    fn covering_node_in_a_nonlicensing_mode_is_wrong_mode() {
        // A write under an S grant on the accessed cell's own class:
        // the effect component planned a read lock.
        let w = witness(
            1,
            100,
            true,
            vec![(NodeKey::Pts(2), Mode::S)],
            Some((96, 2)),
        );
        assert_eq!(diagnose(&w), Diagnosis::WrongMode);
        assert_eq!(diagnose(&w).tag(), "wrong-mode");
        // Intention modes never license, so IX on the class is the
        // same story.
        let w = witness(
            1,
            100,
            true,
            vec![(NodeKey::Pts(2), Mode::Ix)],
            Some((96, 2)),
        );
        assert_eq!(diagnose(&w), Diagnosis::WrongMode);
    }

    #[test]
    fn licensing_fine_grant_on_the_wrong_cell_of_the_right_class_is_wrong_cell() {
        let w = witness(
            3,
            100,
            true,
            vec![(NodeKey::Fine(2, FineAddr::Cell(64)), Mode::X)],
            Some((96, 2)),
        );
        assert_eq!(diagnose(&w), Diagnosis::WrongCell { accessed: 2 });
        assert_eq!(diagnose(&w).tag(), "wrong-cell:c2");
    }

    #[test]
    fn licensing_grant_on_a_different_class_is_a_missed_alias() {
        // X held on class 5, access lands in class 2: the abstraction
        // missed the edge. The smallest licensing held class is the
        // reported pair partner.
        let w = witness(
            3,
            100,
            true,
            vec![
                (NodeKey::Pts(7), Mode::X),
                (NodeKey::Pts(5), Mode::X),
                (NodeKey::Pts(4), Mode::Ix),
            ],
            Some((96, 2)),
        );
        assert_eq!(
            diagnose(&w),
            Diagnosis::MissedAlias {
                accessed: 2,
                held: 5
            }
        );
        assert_eq!(diagnose(&w).tag(), "missed-alias:c5-c2");
    }

    #[test]
    fn empty_or_irrelevant_held_sets_are_no_cover() {
        let w = witness(3, 100, true, vec![], Some((96, 2)));
        assert_eq!(diagnose(&w), Diagnosis::NoCover);
        // Intention-only grants license nothing, and without an extent
        // a foreign-class X grant proves no alias pair either.
        let w = witness(
            3,
            100,
            true,
            vec![(NodeKey::Pts(5), Mode::Ix)],
            Some((96, 2)),
        );
        assert_eq!(diagnose(&w), Diagnosis::NoCover);
        let w = witness(3, 100, true, vec![(NodeKey::Pts(5), Mode::X)], None);
        assert_eq!(diagnose(&w), Diagnosis::NoCover);
    }

    #[test]
    fn wrong_mode_outranks_the_alias_explanations() {
        // Both an S grant on the covering class and an X grant on a
        // foreign class: the mode explanation is the more specific
        // conviction (the plan *did* name the location).
        let w = witness(
            1,
            100,
            true,
            vec![(NodeKey::Pts(2), Mode::S), (NodeKey::Pts(5), Mode::X)],
            Some((96, 2)),
        );
        assert_eq!(diagnose(&w), Diagnosis::WrongMode);
    }

    #[test]
    fn candidates_group_by_section_dedupe_and_order_by_specificity() {
        // Section 2: a wrong-mode witness and a no-cover witness.
        // Section 1: a missed alias.
        let ws = vec![
            witness(
                2,
                100,
                true,
                vec![(NodeKey::Pts(3), Mode::S)],
                Some((96, 3)),
            ),
            witness(
                1,
                200,
                true,
                vec![(NodeKey::Pts(4), Mode::X)],
                Some((192, 6)),
            ),
            witness(2, 300, false, vec![(NodeKey::Pts(9), Mode::Ix)], None),
        ];
        let cs = candidates(&ws, &base());
        // Ascending section order.
        assert_eq!(
            cs.iter().map(|c| c.section).collect::<Vec<_>>(),
            vec![1, 1, 2, 2, 2]
        );
        // Section 1: coarsen (from the alias) then the fallback.
        assert_eq!(cs[0].repair, Repair::Coarsen);
        assert_eq!(
            cs[0].diagnosis,
            Diagnosis::MissedAlias {
                accessed: 6,
                held: 4
            }
        );
        assert!(!cs[0].config.use_expr && cs[0].config.use_pts && cs[0].config.use_eff);
        assert_eq!(cs[1].repair, Repair::CoarsenWiden);
        assert!(!cs[1].config.use_expr && cs[1].config.use_pts && !cs[1].config.use_eff);
        // Section 2: widen fires first (wrong-mode is the most
        // specific diagnosis), then coarsen from no-cover, then the
        // fallback — each config distinct, none global.
        assert_eq!(cs[2].repair, Repair::Widen);
        assert_eq!(cs[2].diagnosis, Diagnosis::WrongMode);
        assert_eq!(cs[3].repair, Repair::Coarsen);
        assert_eq!(cs[4].repair, Repair::CoarsenWiden);
        assert!(cs.iter().all(|c| !c.config.is_trivially_sound()));
        // Deterministic.
        assert_eq!(cs, candidates(&ws, &base()));
    }

    #[test]
    fn repairs_that_cannot_move_the_config_are_dropped() {
        // The section already runs coarse `rw` locks: coarsen, widen,
        // and the fallback are all no-ops — nothing to try, the
        // demotion stands.
        let mut base = base();
        base.set_override(
            7,
            SchemeConfig {
                use_expr: false,
                use_eff: false,
                ..SchemeConfig::full(3, None)
            },
        );
        let ws = vec![witness(7, 100, true, vec![], Some((96, 2)))];
        assert!(candidates(&ws, &base).is_empty());
    }

    #[test]
    fn admit_requires_clean_and_strictly_cheaper_than_the_demotion() {
        use crate::adapt::select;
        let demoted = PlanCost {
            total_wait: 100,
            makespan: 50,
            ..PlanCost::default()
        };
        let cost = |total_wait, makespan| PlanCost {
            total_wait,
            makespan,
            ..PlanCost::default()
        };
        // `(clean, cost)` per repair, in generation order.
        let cheap_dirty = (false, cost(10, 0));
        let clean_tie = (true, cost(100, 0));
        let clean_cheap = (true, cost(80, 60));
        let clean_cheapest_tie = (true, cost(80, 55));
        // The loop's admission: `select` over the clean repairs only.
        let admit = |repairs: &[(bool, PlanCost)]| {
            select(
                demoted,
                repairs
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| r.0)
                    .map(|(i, r)| (i, r.1)),
            )
        };
        // A lockset-dirty replay never wins, however cheap.
        assert_eq!(admit(&[cheap_dirty, clean_tie]), None);
        assert_eq!(
            admit(&[cheap_dirty, clean_cheap, clean_cheapest_tie]),
            Some(2)
        );
        assert_eq!(admit(&[clean_cheapest_tie, clean_cheap]), Some(0));
    }

    #[test]
    fn report_json_is_canonical() {
        let c = RepairCandidate {
            section: 4,
            config: SchemeConfig {
                use_expr: false,
                ..SchemeConfig::full(3, None)
            },
            repair: Repair::Coarsen,
            diagnosis: Diagnosis::MissedAlias {
                accessed: 2,
                held: 5,
            },
        };
        let r = RepairReport {
            name: "scale".into(),
            mode: "MultiGrain".into(),
            baseline: PlanCost {
                total_wait: 10,
                total_hold: 20,
                total_revalidations: 0,
                makespan: 99,
            },
            sections: vec![SectionReport {
                section: 4,
                violations: 3,
                demoted: PlanCost {
                    total_wait: 500,
                    total_hold: 40,
                    total_revalidations: 1,
                    makespan: 120,
                },
                candidates: vec![RepairDecision {
                    candidate: c,
                    clean: true,
                    cost: PlanCost {
                        total_wait: 80,
                        total_hold: 30,
                        total_revalidations: 0,
                        makespan: 110,
                    },
                    status: EvalStatus::Replayed,
                }],
                admitted: Some(0),
            }],
        };
        let j = r.to_json();
        assert_eq!(
            j,
            "{\"name\":\"scale\",\"mode\":\"MultiGrain\",\
             \"baseline\":{\"wait\":10,\"hold\":20,\"revalidations\":0,\"makespan\":99},\
             \"sections\":[{\"section\":4,\"violations\":3,\
             \"demoted\":{\"wait\":500,\"hold\":40,\"revalidations\":1,\"makespan\":120},\
             \"candidates\":[{\"repair\":\"coarsen\",\"diagnosis\":\"missed-alias:c5-c2\",\
             \"config\":{\"k\":3,\"expr\":false,\"pts\":true,\"eff\":true},\
             \"clean\":true,\
             \"cost\":{\"wait\":80,\"hold\":30,\"revalidations\":0,\"makespan\":110},\
             \"status\":\"replayed\"}],\
             \"admitted\":0}]}"
        );
        assert_eq!(r.to_json(), j);
        assert_eq!(r.admitted(), vec![(4, 0)]);
        assert_eq!(r.sections[0].winner().unwrap().candidate.section, 4);
    }

    /// `name` comes from `run.name` trace metadata and a skip reason
    /// from the harness: neither may forge a key or break the JSON.
    #[test]
    fn outside_strings_are_escaped_in_both_reports() {
        use crate::adapt::{Adjustment, Candidate, Decision, DecisionReport, Trigger};
        let name = "a\"b\\c\n\",\"selected\":7,\"z\":\"";
        let skipped = EvalStatus::Skipped {
            reason: "ring \"full\"".into(),
        };
        let mut escaped = String::new();
        Writer::new(&mut escaped).str(name);

        let decisions = DecisionReport {
            name: name.into(),
            mode: "MultiGrain".into(),
            baseline: PlanCost::default(),
            candidates: vec![Decision {
                candidate: Candidate {
                    section: 1,
                    config: SchemeConfig::full(3, None),
                    adjustment: Adjustment::Coarsen,
                    trigger: Trigger::Contention,
                },
                cost: PlanCost::default(),
                status: skipped.clone(),
            }],
            selected: None,
        }
        .to_json();
        assert!(decisions.contains(&escaped), "{decisions}");
        assert!(!decisions.contains('\n'), "{decisions}");
        assert!(
            decisions.contains("\"note\":\"ring \\\"full\\\"\""),
            "{decisions}"
        );
        assert_eq!(decisions.matches("\"selected\":").count(), 1, "{decisions}");

        let section = |section| SectionReport {
            section,
            violations: 1,
            demoted: PlanCost::default(),
            candidates: vec![RepairDecision {
                candidate: RepairCandidate {
                    section,
                    config: SchemeConfig::full(3, None),
                    repair: Repair::Widen,
                    diagnosis: Diagnosis::WrongMode,
                },
                clean: false,
                cost: PlanCost::default(),
                status: skipped.clone(),
            }],
            admitted: None,
        };
        let repairs = RepairReport {
            name: name.into(),
            mode: "MultiGrain".into(),
            baseline: PlanCost::default(),
            sections: vec![section(2), section(5)],
        }
        .to_json();
        assert!(repairs.contains(&escaped), "{repairs}");
        assert!(!repairs.contains('\n'), "{repairs}");
        assert_eq!(repairs.matches("\"selected\":").count(), 0, "{repairs}");
        assert_eq!(repairs.matches("\"admitted\":").count(), 2, "{repairs}");
    }

    /// Two sections with disjoint footprints: section 0 updates two
    /// globals under real work (its plan has two inferred locks —
    /// either is droppable), section 1 hammers a third. Demoting
    /// section 0 to the global lock serializes section 1 against it;
    /// a coarse per-class repair does not — so the repair is strictly
    /// cheaper than the demotion and the acceptance rule admits it.
    const SRC: &str = r#"
        global a;
        global b;
        global c;
        fn setup(n) { a = n; b = n; c = n; }
        fn work(iters) {
            let i = 0;
            while (i < iters) {
                atomic { a = a + 1; b = b + a; nops(20); }
                atomic { c = c + 1; nops(20); }
                i = i + 1;
            }
            return 0;
        }
        fn total() { return a + c; }
    "#;

    fn cfg() -> RunConfig {
        RunConfig {
            name: "weakened-pair".into(),
            source: SRC.into(),
            k: 3,
            mode: ExecMode::MultiGrain,
            threads: 6,
            heap_cells: 1 << 14,
            seed: 13,
            quantum: 64,
            stm_abort_budget: 16,
            faults: None,
            sentinel: Some(SentinelConfig::default()),
            weaken: Some(WeakenPlan {
                section: 0,
                drop_index: 0,
            }),
            sched: None,
            repairs: Vec::new(),
            trace_capacity: 1 << 18,
            init: ("setup".into(), vec![0]),
            worker: ("work".into(), vec![24]),
            check: Some("total".into()),
        }
    }

    #[test]
    fn a_weakened_section_heals_onto_an_admitted_nonglobal_repair() {
        let run = Pipeline::new(cfg()).reinfer().unwrap();
        // The seeded fault produced violations and the trace's record
        // of them reached the diagnosis.
        let sec = run
            .report
            .sections
            .iter()
            .find(|s| s.section == 0)
            .expect("the weakened section is reported");
        assert!(sec.violations > 0);
        assert!(!sec.candidates.is_empty());
        // A repair was admitted: lockset-clean and strictly cheaper
        // than the global-demotion reference.
        let w = sec.winner().expect("a repair is admitted");
        assert!(w.clean);
        assert!(w.cost.total_wait < sec.demoted.total_wait);
        assert!(!w.candidate.config.is_trivially_sound());
        // The healed run traces the re-admission onto the repair and
        // never demotes the section again afterwards.
        let healed = run.healed.as_ref().expect("healed recording exists");
        let events = &healed.trace.events;
        let accept = events
            .iter()
            .position(|e| {
                matches!(
                    e.kind,
                    EventKind::Reinfer {
                        section: 0,
                        accepted: true,
                        ..
                    }
                )
            })
            .expect("healed trace carries the ri-accepted event");
        assert!(
            !events.iter().skip(accept).any(|e| matches!(
                e.kind,
                EventKind::Quarantine {
                    section: 0,
                    healed: false,
                    ..
                }
            )),
            "zero post-repair violations: the repaired scheme must not re-offend"
        );
        // The healed recording is self-describing: replaying it
        // re-derives the repaired specs and reproduces the digest.
        assert!(
            healed.trace.meta_get("run.repair.0").is_some(),
            "repairs are stamped"
        );
        let again = crate::replay::replay(&healed.trace).unwrap();
        assert_eq!(again.trace.digest(), healed.trace.digest());
        assert_eq!(again.outcome, healed.outcome);
    }

    #[test]
    fn reports_and_healed_digests_are_identical_at_every_eval_thread_count() {
        let runs: Vec<ReinferRun> = [1usize, 2, 7]
            .iter()
            .map(|&t| Pipeline::new(cfg()).eval_threads(t).reinfer().unwrap())
            .collect();
        for r in &runs[1..] {
            assert_eq!(r.report.to_json(), runs[0].report.to_json());
            assert_eq!(r.baseline.trace.digest(), runs[0].baseline.trace.digest());
            match (&r.healed, &runs[0].healed) {
                (Some(a), Some(b)) => assert_eq!(a.trace.digest(), b.trace.digest()),
                (None, None) => {}
                other => panic!("healing diverged across eval thread counts: {other:?}"),
            }
        }
    }

    #[test]
    fn clean_armed_runs_are_left_untouched() {
        let mut c = cfg();
        c.weaken = None;
        let run = Pipeline::new(c).reinfer().unwrap();
        assert!(run.report.sections.is_empty());
        assert!(run.healed.is_none());
        // And the baseline stays fully replayable.
        let again = crate::replay::replay(&run.baseline.trace).unwrap();
        assert_eq!(again.trace.digest(), run.baseline.trace.digest());
    }

    #[test]
    fn unarmed_runs_are_rejected() {
        let mut c = cfg();
        c.sentinel = None;
        let err = Pipeline::new(c).reinfer().unwrap_err();
        assert!(err.contains("sentinel-armed"), "{err}");
    }
}
