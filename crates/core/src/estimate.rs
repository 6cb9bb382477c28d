//! Trace-analytic what-if cost estimation (DESIGN.md §5.7).
//!
//! Replaying a candidate configuration measures its cost *exactly* but
//! pays a full deterministic re-execution. This module scores a
//! candidate **analytically from the baseline trace alone** — a pure
//! integer function of the recorded wait/hold/revalidation profiles —
//! so the evaluation harness can rank candidates first and replay only
//! the most promising `top_k` (trace-analytic pruning).
//!
//! The model is deliberately coarse; it only has to *rank*, not
//! predict. Per adjustment, the recoverable share of the target
//! section's recorded wait `W` (with `R` total revalidation retries):
//!
//! * **Globalize** — the plan collapses to one lock: no multi-lock
//!   negotiation, no descriptor drift, so most of the blocked time is
//!   recoverable: `3W/4`.
//! * **Coarsen** — the expression locks go, the points-to locks stay:
//!   `W/2`, plus a drift bonus `min(W/4, 100·R)` because every retry
//!   re-ran the acquire protocol the coarse plan does not have.
//! * **RaiseK** — finer expression locks shave residual interference
//!   on an *uncontended* section: `W/8`.
//! * **WakePolicy** — wake candidates only exist for convoy-flagged
//!   sections, where the queue never drains and most recorded wait is
//!   queueing behind an unfortunate wake order: `W/2`.
//!
//! The model ranks candidates *within* one adjustment family reliably
//! (same formula, ordered by the target section's recorded wait) but
//! across families the constant factors are guesses. [`prune`]
//! therefore carries a **diversity guard**: besides the overall
//! `top_k`, every family's best-estimated candidates (including exact
//! ties — the model cannot distinguish the two wake policies of one
//! section) are always kept, so a family the constants under-rate
//! still gets its strongest member replayed.
//!
//! The estimate is **advisory**: pruning with it never changes a
//! replayed cost, and `prune: None` keeps exact behavior. The
//! `eval-bench` gate asserts the pruned set always contains the
//! replay-selected winner on every bench workload, which is the
//! empirical soundness statement this model is held to.
//!
//! Everything is integer arithmetic on `u64` counters — no floats, no
//! clocks — so identical profiles produce identical scores on any
//! machine, at any parallelism.

use crate::adapt::{Adjustment, Candidate, PlanCost};
use trace::SectionProfile;

/// Recorded wait/revalidation totals of one section, the estimator's
/// entire view of it.
fn section_totals(profiles: &[SectionProfile], section: u32) -> (u64, u64) {
    profiles
        .iter()
        .find(|p| p.section == section)
        .map(|p| (p.wait.sum, p.revalidations.sum))
        .unwrap_or((0, 0))
}

/// Estimated wait ticks `adjustment` recovers on a section that
/// recorded `wait` total wait and `reval` revalidation retries.
fn recoverable(adjustment: Adjustment, wait: u64, reval: u64) -> u64 {
    let r = match adjustment {
        Adjustment::Globalize => wait / 4 * 3,
        Adjustment::Coarsen => wait / 2 + (wait / 4).min(reval.saturating_mul(100)),
        Adjustment::RaiseK(_) => wait / 8,
        Adjustment::WakePolicy(_) => wait / 2,
    };
    r.min(wait)
}

/// Estimated total wait after applying `c`, per the model above: the
/// baseline's total wait minus the target section's recoverable share.
pub fn estimate(c: &Candidate, profiles: &[SectionProfile], base: PlanCost) -> u64 {
    let (wait, reval) = section_totals(profiles, c.section);
    base.total_wait
        .saturating_sub(recoverable(c.adjustment, wait, reval))
}

/// The candidate indices worth replaying: the `top_k` lowest estimated
/// post-change total waits (ties broken by candidate order), plus the
/// diversity guard — every adjustment family's best-estimated
/// candidates, including exact ties. Returned **in canonical candidate
/// order** so the evaluation merge stays byte-identical at every eval
/// thread count. `top_k >= cands.len()` keeps everything (pruning
/// off).
pub fn prune(
    cands: &[Candidate],
    profiles: &[SectionProfile],
    base: PlanCost,
    top_k: usize,
) -> Vec<usize> {
    let ests: Vec<u64> = cands.iter().map(|c| estimate(c, profiles, base)).collect();
    let mut ranked: Vec<(u64, usize)> = ests.iter().copied().zip(0..).collect();
    ranked.sort_unstable();
    ranked.truncate(top_k);
    let mut keep: Vec<usize> = ranked.into_iter().map(|(_, i)| i).collect();
    // Diversity guard: the constants comparing families are guesses,
    // so each family's strongest members always get replayed.
    let family = |a: &Adjustment| std::mem::discriminant(a);
    let mut best: Vec<(std::mem::Discriminant<Adjustment>, u64)> = Vec::new();
    for (c, &e) in cands.iter().zip(&ests) {
        let f = family(&c.adjustment);
        match best.iter_mut().find(|(bf, _)| *bf == f) {
            Some((_, be)) => *be = (*be).min(e),
            None => best.push((f, e)),
        }
    }
    for (i, (c, &e)) in cands.iter().zip(&ests).enumerate() {
        let f = family(&c.adjustment);
        if best.iter().any(|&(bf, be)| bf == f && be == e) && !keep.contains(&i) {
            keep.push(i);
        }
    }
    keep.sort_unstable();
    keep
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockscheme::SchemeConfig;
    use trace::Histogram;

    fn hist(samples: &[u64]) -> Histogram {
        let mut h = Histogram::default();
        for &s in samples {
            h.add(s);
        }
        h
    }

    fn prof(section: u32, wait: &[u64], reval: &[u64]) -> SectionProfile {
        SectionProfile {
            section,
            entries: wait.len() as u64,
            aborts: 0,
            wait: hist(wait),
            hold: hist(&[10; 4][..wait.len().min(4)]),
            revalidations: hist(reval),
        }
    }

    fn cand(section: u32, adjustment: Adjustment) -> Candidate {
        Candidate {
            section,
            config: SchemeConfig::full(3, None),
            adjustment,
            trigger: crate::adapt::Trigger::Contention,
        }
    }

    #[test]
    fn globalize_recovers_more_than_raise_k() {
        let profiles = vec![prof(1, &[400, 400], &[0, 0])];
        let base = PlanCost {
            total_wait: 800,
            ..PlanCost::default()
        };
        let g = estimate(&cand(1, Adjustment::Globalize), &profiles, base);
        let r = estimate(&cand(1, Adjustment::RaiseK(6)), &profiles, base);
        assert!(g < r, "globalize {g} must rank ahead of raise-k {r}");
        assert_eq!(g, 800 - 600);
        assert_eq!(r, 800 - 100);
    }

    #[test]
    fn drift_bonus_prefers_coarsening_reval_heavy_sections() {
        let profiles = vec![prof(1, &[100, 100], &[0, 0]), prof(2, &[100, 100], &[3, 4])];
        let base = PlanCost {
            total_wait: 400,
            ..PlanCost::default()
        };
        let calm = estimate(&cand(1, Adjustment::Coarsen), &profiles, base);
        let drifty = estimate(&cand(2, Adjustment::Coarsen), &profiles, base);
        assert!(drifty < calm, "{drifty} !< {calm}");
    }

    #[test]
    fn recoverable_never_exceeds_the_section_wait() {
        // A huge drift bonus cannot fabricate more recovery than the
        // section ever waited.
        let profiles = vec![prof(1, &[8], &[1000])];
        let base = PlanCost {
            total_wait: 1000,
            ..PlanCost::default()
        };
        let e = estimate(&cand(1, Adjustment::Coarsen), &profiles, base);
        assert!(e >= 1000 - 8, "recovered more than the section waited");
    }

    #[test]
    fn unknown_sections_estimate_as_no_change() {
        let base = PlanCost {
            total_wait: 500,
            ..PlanCost::default()
        };
        assert_eq!(estimate(&cand(9, Adjustment::Globalize), &[], base), 500);
    }

    #[test]
    fn prune_keeps_top_k_in_canonical_order() {
        let profiles = vec![
            prof(1, &[10, 10], &[0, 0]),
            prof(2, &[500, 500], &[0, 0]),
            prof(3, &[200, 200], &[0, 0]),
        ];
        let base = PlanCost {
            total_wait: 1420,
            ..PlanCost::default()
        };
        let cands = vec![
            cand(1, Adjustment::RaiseK(6)),
            cand(2, Adjustment::Globalize),
            cand(3, Adjustment::Coarsen),
            cand(2, Adjustment::Coarsen),
        ];
        let keep = prune(&cands, &profiles, base, 2);
        // Section 2's candidates recover the most (top-2 = 1 and 3);
        // the diversity guard keeps the raise-k family's only member
        // too. Candidate 2 — a coarsen beaten by candidate 3 within
        // its own family — is the one pruned. Indices stay sorted.
        assert_eq!(keep, vec![0, 1, 3]);
        // top_k >= len keeps everything.
        assert_eq!(prune(&cands, &profiles, base, 10), vec![0, 1, 2, 3]);
        // The guard keeps exact ties within a family: two wake
        // policies on the same section are indistinguishable to the
        // model, so both survive a top-1 prune.
        let wakes = vec![
            cand(
                2,
                Adjustment::WakePolicy(sched::PolicyKind::ShortestExpectedHold),
            ),
            cand(2, Adjustment::WakePolicy(sched::PolicyKind::ReaderBatch)),
            cand(
                3,
                Adjustment::WakePolicy(sched::PolicyKind::ShortestExpectedHold),
            ),
        ];
        assert_eq!(prune(&wakes, &profiles, base, 1), vec![0, 1]);
    }
}
