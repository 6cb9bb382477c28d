//! Quarantine-aware re-inference — the *policy* half (DESIGN.md §5.8).
//!
//! The sentinel's quarantine ladder (DESIGN.md §5.5) demotes an
//! offending section to the trivially sound global scheme and, after a
//! clean probation, heals it — *back onto the very scheme that
//! offended*. This module closes that gap: each recorded
//! [`Violation`] is a counterexample witness against the abstraction
//! (the held-mode set that failed Fig. 6 licensing, plus the accessed
//! cell's allocation extent), and [`diagnose`] reads off *which*
//! component failed — a missed may-alias edge in `Σ≡`, an
//! under-approximated effect in `Σ_ε`, or a fine `Σ_k` expression that
//! pinned the wrong cell of the right class. [`candidates`] maps the
//! per-section diagnosis set to repaired [`SchemeConfig`] overrides,
//! and [`admit`] applies the acceptance rule: a repair is installed
//! only if its replayed execution is lockset-clean **and** strictly
//! cheaper (total virtual-time wait) than the global demotion it
//! replaces — otherwise the ladder's demotion stands, which is always
//! sound.
//!
//! Everything here is a pure function of its arguments — no clocks, no
//! randomness, no thread-count dependence — so an identical violation
//! ledger and candidate set produce byte-identical repair reports on
//! any machine, at any parallelism. (The ledger itself is canonical:
//! [`sentinel::Sentinel::violations`] sorts by `(clock, tid, seq)`,
//! all schedule properties.) The replay-and-measure half lives in the
//! root crate (`src/reinfer.rs`), which can see the interpreter.

use std::collections::BTreeMap;

use lockscheme::{ConfigMap, SchemeConfig};
use mglock::{FineAddr, NodeKey};
use pointsto::{PointsTo, PtsClass};
use sentinel::Violation;
use trace::lockset::mode_grants;

use crate::adapt::{push_config, push_cost, push_header};
pub use crate::adapt::{EvalStatus, PlanCost};

/// One violation plus the accessed cell's allocation extent, resolved
/// by the orchestration layer from the recorded trace's allocation
/// events: `(base address, points-to class of the allocation site)`.
/// `None` when the address falls outside every recorded allocation
/// (an out-of-extent access no scheme component can name — only the
/// conservative repairs apply).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Witness {
    pub violation: Violation,
    pub extent: Option<(u64, u32)>,
}

/// Which scheme component the witness convicts. Ordered by
/// specificity: [`diagnose`] returns the most precise explanation the
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
    /// [`WeakenPlan`](../../interp/fault/struct.WeakenPlan.html)
    /// produces). Only the conservative repairs apply.
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

/// Does `node` cover the accessed cell, ignoring mode? (The coverage
/// half of `trace::lockset::licenses`.)
fn covers(node: NodeKey, addr: u64, extent: Option<(u64, u32)>) -> bool {
    match node {
        NodeKey::Root => true,
        NodeKey::Pts(p) => extent.is_some_and(|(_, class)| class == p),
        NodeKey::Fine(_, FineAddr::Cell(a)) => addr == a,
        NodeKey::Fine(_, FineAddr::Range(b)) => extent.is_some_and(|(base, _)| base == b),
    }
}

/// The class a held grant speaks for, if any.
fn class_of(node: NodeKey) -> Option<u32> {
    match node {
        NodeKey::Root => None,
        NodeKey::Pts(p) | NodeKey::Fine(p, _) => Some(p),
    }
}

/// Reads the most precise failure explanation off one witness.
///
/// Deterministic: explanations are tried in a fixed specificity order
/// (wrong mode on a covering node, then wrong cell within the right
/// class, then a missed alias, then no cover), and the missed-alias
/// pair picks the smallest-numbered licensing held class.
pub fn diagnose(w: &Witness) -> Diagnosis {
    let v = &w.violation;
    if v.held
        .iter()
        .any(|&(node, mode)| covers(node, v.addr, w.extent) && !mode_grants(mode, v.write))
    {
        return Diagnosis::WrongMode;
    }
    if let Some((_, accessed)) = w.extent {
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

/// Checks a [`Diagnosis::MissedAlias`] witness against the points-to
/// abstraction by *applying* the refinement it proposes: unify the
/// held and accessed classes with [`PointsTo::merged`] (an incremental
/// re-freeze of the frozen union-find, not a cold re-analysis) and
/// report how many classes the refined abstraction loses. A collapse
/// of `1` means the witnessed edge is local — exactly the two classes
/// fuse; a larger collapse means the edge cascades through successor
/// unification and a coarse repair will cover correspondingly more
/// unrelated state. Returns `None` when either class is out of range
/// or the classes already coincide (the abstraction did not miss the
/// edge — the violation came from a weakened *plan*, not a wrong
/// *analysis*, and the repair report records it as such).
pub fn alias_merge_collapse(pt: &PointsTo, held: u32, accessed: u32) -> Option<u32> {
    if held == accessed || held >= pt.n_classes() || accessed >= pt.n_classes() {
        return None;
    }
    let refined = pt.merged(PtsClass(held), PtsClass(accessed));
    Some(pt.n_classes() - refined.n_classes())
}

/// What a repair changes relative to the section's current
/// configuration. Unlike [`crate::adapt::Adjustment`], every repair
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
    /// `["ri",…]` ledger documentation).
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
    /// The (first, in canonical ledger order) witness diagnosis that
    /// motivated this repair.
    pub diagnosis: Diagnosis,
}

impl RepairCandidate {
    /// The candidate's full configuration map: `base` plus this one
    /// override.
    pub fn config_map(&self, base: &ConfigMap) -> ConfigMap {
        let mut m = base.clone();
        m.set_override(self.section, self.config);
        m
    }
}

/// Maps a canonical violation ledger (as [`Witness`]es) to repair
/// candidates, grouped per offending section.
///
/// Deterministic: sections are visited in ascending id order;
/// per-section, witnesses keep their canonical `(clock, tid, seq)`
/// ledger order, diagnoses fire candidates in a fixed specificity
/// order ([`Diagnosis::rank`]), and duplicates (by repaired
/// configuration) are emitted once, first occurrence wins. No-op
/// repairs (configuration equal to the section's current one) are
/// dropped — replaying the offending configuration cannot discharge
/// its own counterexample.
pub fn candidates(witnesses: &[Witness], base: &ConfigMap) -> Vec<RepairCandidate> {
    let mut by_section: BTreeMap<u32, Vec<&Witness>> = BTreeMap::new();
    for w in witnesses {
        by_section.entry(w.violation.section).or_default().push(w);
    }
    let mut out = Vec::new();
    for (&section, ws) in &by_section {
        let current = base.for_section(section);
        // The section's diagnosis set, most specific first; ties keep
        // ledger order (stable sort).
        let mut diags: Vec<Diagnosis> = ws.iter().map(|w| diagnose(w)).collect();
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

/// Outcome of replaying one repair candidate, as measured by the
/// orchestration layer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RepairOutcome {
    /// The replayed trace validated lockset-clean with zero sentinel
    /// violations.
    pub clean: bool,
    /// The replayed cost.
    pub cost: PlanCost,
}

/// The acceptance rule: a repair is admitted only if its replay is
/// lockset-clean **and** strictly cheaper (total virtual-time wait)
/// than `demoted` — the measured cost of leaving the section on the
/// quarantine ladder's global demotion. Ties break by lower makespan,
/// then generation order. `None` means the demotion stands (always
/// sound, never wrong — just slow).
pub fn admit(demoted: PlanCost, outcomes: &[RepairOutcome]) -> Option<usize> {
    outcomes
        .iter()
        .enumerate()
        .filter(|(_, o)| o.clean && o.cost.total_wait < demoted.total_wait)
        .min_by_key(|(i, o)| (o.cost.total_wait, o.cost.makespan, *i))
        .map(|(i, _)| i)
}

/// One evaluated repair candidate: the proposal plus its measured
/// replay outcome (cost zeroed when `status` says it was never
/// replayed).
#[derive(Clone, PartialEq, Debug)]
pub struct RepairDecision {
    pub candidate: RepairCandidate,
    /// Lockset-clean with zero violations on replay.
    pub clean: bool,
    pub cost: PlanCost,
    pub status: EvalStatus,
}

/// One offending section's repair trial.
#[derive(Clone, PartialEq, Debug)]
pub struct SectionReport {
    /// The demoted section.
    pub section: u32,
    /// Canonical-ledger violations attributed to it.
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
    /// pair, ascending section order — the set the orchestration layer
    /// installs as dormant repairs.
    pub fn admitted(&self) -> Vec<(u32, usize)> {
        self.sections
            .iter()
            .filter_map(|s| s.admitted.map(|i| (s.section, i)))
            .collect()
    }

    /// Canonical JSON encoding (hand-rolled — the build environment
    /// has no serde; fixed key order, no whitespace).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        push_header(&mut out, &self.name, &self.mode, self.baseline);
        out.push_str(",\"sections\":[");
        for (i, s) in self.sections.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"section\":{},\"violations\":{},\"demoted\":",
                s.section, s.violations
            );
            push_cost(&mut out, s.demoted);
            out.push_str(",\"candidates\":[");
            for (j, d) in s.candidates.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"repair\":\"{}\",\"diagnosis\":\"{}\",\"config\":",
                    d.candidate.repair.tag(),
                    d.candidate.diagnosis.tag()
                );
                push_config(&mut out, d.candidate.config);
                let _ = write!(out, ",\"clean\":{},\"cost\":", d.clean);
                push_cost(&mut out, d.cost);
                out.push(',');
                d.status.push_json(&mut out);
                out.push('}');
            }
            out.push_str("],\"admitted\":");
            match s.admitted {
                Some(j) => {
                    let _ = write!(out, "{j}");
                }
                None => out.push_str("null"),
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mglock::Mode;

    fn witness(
        section: u32,
        addr: u64,
        write: bool,
        held: Vec<(NodeKey, Mode)>,
        extent: Option<(u64, u32)>,
    ) -> Witness {
        Witness {
            violation: Violation::new(section, 0, addr, write, 0, 0, held),
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
        let demoted = PlanCost {
            total_wait: 100,
            makespan: 50,
            ..PlanCost::default()
        };
        let cheap_dirty = RepairOutcome {
            clean: false,
            cost: PlanCost {
                total_wait: 10,
                ..PlanCost::default()
            },
        };
        let clean_tie = RepairOutcome {
            clean: true,
            cost: PlanCost {
                total_wait: 100,
                ..PlanCost::default()
            },
        };
        let clean_cheap = RepairOutcome {
            clean: true,
            cost: PlanCost {
                total_wait: 80,
                makespan: 60,
                ..PlanCost::default()
            },
        };
        let clean_cheapest_tie = RepairOutcome {
            clean: true,
            cost: PlanCost {
                total_wait: 80,
                makespan: 55,
                ..PlanCost::default()
            },
        };
        // A lockset-dirty replay never wins, however cheap.
        assert_eq!(admit(demoted, &[cheap_dirty, clean_tie]), None);
        assert_eq!(
            admit(demoted, &[cheap_dirty, clean_cheap, clean_cheapest_tie]),
            Some(2)
        );
        assert_eq!(admit(demoted, &[clean_cheapest_tie, clean_cheap]), Some(0));
    }

    #[test]
    fn alias_merge_collapse_measures_the_refinement_locally() {
        let program = lir::compile(
            r#"
            struct node { next; val; }
            fn f(a, b) {
                atomic { a->next = b; }
            }
            fn g(c) {
                atomic { c->val = 1; }
            }
        "#,
        )
        .unwrap();
        let pt = PointsTo::analyze(&program);
        assert!(pt.n_classes() >= 2);
        // Merging two distinct live classes loses at least one class;
        // the same pair is a no-op (`None`), as are out-of-range ids.
        let collapse = alias_merge_collapse(&pt, 0, 1).expect("distinct classes merge");
        assert!(collapse >= 1);
        assert_eq!(alias_merge_collapse(&pt, 1, 1), None);
        assert_eq!(alias_merge_collapse(&pt, 0, pt.n_classes()), None);
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
        trace::json::push_escaped(&mut escaped, name);

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
}
