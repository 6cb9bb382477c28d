//! The online lockset sentinel, MultiGrain only: it checks a lock plan.
//!
//! The inference guarantee (Theorem 1) only holds if the locks the
//! runtime actually takes license every in-section access. The trace
//! validator (`trace::lockset`) checks that *post hoc*; the sentinel
//! evaluates the same Fig. 6 licensing predicate
//! (`trace::lockset::licensed`, asked by `Worker::licensed`) **inline**,
//! against a worker's live held-mode set
//! (`mglock::Session::held_modes`), on each in-section access —
//! sampling-capable, so production runs can trade coverage for
//! overhead. The worker asks it at one site, `Worker::sentinel_check`.
//!
//! Under [`Response::Fail`] ([`SentinelConfig::validate`], the
//! Theorem-1 checker) a miss is a hard error. Under
//! [`Response::Quarantine`] the sentinel counts the miss, lets the
//! section complete, and feeds a **per-section quarantine ladder**:
//!
//! * first offense demotes the section to the trivially sound global
//!   scheme (`lockscheme::SchemeConfig::trivially_sound` — at
//!   runtime, the worker swaps the section's plan for the global
//!   lock);
//! * a probation counter re-admits the original fine-grained
//!   configuration after N consecutive clean executions;
//! * a healed section that re-offends gets an exponentially longer
//!   probation (flap damping), capped.
//!
//! Every ladder transition is reported back to the worker so it can
//! emit a `["qr", …]` trace event — replay and the corpus digests
//! capture quarantine behavior deterministically. Under the
//! virtual-time scheduler exactly one worker runs at a time, so the
//! mutex-serialized transitions happen in a deterministic order.
//!
//! The sentinel keeps counts, not a record: the trace is the record.
//! Each miss is an access the trace carries with the grants held at
//! it, so the offline validator (`trace::lockset::validate`) finds the
//! same miss, asking the same predicate, with everything re-inference
//! needs to diagnose it.
//!
//! A repair staged for a section is the machine's
//! (`Machine::repairs`); the sentinel keeps only where the section
//! stands with it — healed onto it, or revoked for good.

use parking_lot::Mutex;
use std::collections::BTreeMap;

/// Clean executions a first-offense quarantine lasts; each re-offense
/// multiplies the next term by [`FLAP_MULTIPLIER`] (flap damping), up
/// to [`MAX_PROBATION`].
const PROBATION: u32 = 4;
const FLAP_MULTIPLIER: u32 = 2;
const MAX_PROBATION: u32 = 64;

/// What a sentinel does about an access it finds unlicensed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Response {
    /// Record it and demote the section on the quarantine ladder.
    Quarantine,
    /// Fail the accessing thread, recording nothing.
    Fail,
}

/// The policy of one sentinel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SentinelConfig {
    /// Check every `sample_every`-th in-section access per worker
    /// (1 = check every access, i.e. sampling off; larger values
    /// sample). At least 1: 0 checks nothing, so a run refuses it.
    pub sample_every: u32,
    /// What a miss does.
    pub response: Response,
}

impl Default for SentinelConfig {
    fn default() -> SentinelConfig {
        SentinelConfig {
            sample_every: 1,
            response: Response::Quarantine,
        }
    }
}

impl SentinelConfig {
    /// Should the `n`-th in-section access of a worker be checked?
    /// (`n` is a per-worker monotone counter, so the decision is
    /// deterministic under the virtual-time scheduler.)
    pub(crate) fn should_check(&self, n: u64) -> bool {
        n.is_multiple_of(u64::from(self.sample_every))
    }

    /// The production sampling preset. The `sentinel-overhead --check`
    /// gate bounds the fully armed (`sample_every: 1`) monitor at 2×
    /// wall clock, i.e. the per-access check costs at most as much as
    /// the access itself; sampling 1-in-8 therefore bounds the preset's
    /// overhead at roughly 1/8 of that worst case (≈1.125×) while the
    /// per-worker counter keeps every 8th access — not a biased prefix
    /// — under watch. Quarantine bookkeeping is unchanged.
    pub fn sampled_production() -> SentinelConfig {
        SentinelConfig {
            sample_every: 8,
            ..SentinelConfig::default()
        }
    }

    /// The Theorem-1 checker: every in-section access checked, and the
    /// first unlicensed one fails its thread.
    pub const fn validate() -> SentinelConfig {
        SentinelConfig {
            sample_every: 1,
            response: Response::Fail,
        }
    }
}

/// One quarantine-ladder transition, in the order it happened.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct LadderEvent {
    /// The section whose effective configuration changed.
    pub(crate) section: u32,
    /// `false` = demoted to the global scheme, `true` = re-admitted.
    pub(crate) healed: bool,
    /// The probation term attached: executions to serve (demotion) or
    /// just served (heal).
    pub(crate) probation: u32,
}

#[derive(Clone, Copy, Debug)]
enum Health {
    Healthy,
    Quarantined {
        /// Clean executions still to serve.
        remaining: u32,
        /// The full term, for the heal event and defensive resets.
        probation: u32,
    },
}

/// Where a section stands with the repair staged for it: not yet
/// healed onto it (or none staged), running it, or withdrawn for good
/// after the repaired scheme itself drew a violation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RepairPhase {
    Dormant,
    Active,
    Revoked,
}

#[derive(Debug)]
struct SectionState {
    health: Health,
    /// The term the *next* demotion will impose. Starts at
    /// [`PROBATION`] and grows by [`FLAP_MULTIPLIER`] on every
    /// demotion, so a section that heals and re-offends serves an
    /// exponentially longer sentence (saturating at the cap).
    next_probation: u32,
    repair: RepairPhase,
}

/// The ladder and its counts, under one mutex: the totals are read
/// against the same lock that counts a miss, so a report is never torn
/// between a miss and the demotion it caused.
#[derive(Default)]
struct State {
    sections: BTreeMap<u32, SectionState>,
    violations: u64,
    quarantined: u64,
    healed: u64,
}

/// The in-process monitor. One per machine; workers share it.
pub(crate) struct Sentinel {
    cfg: SentinelConfig,
    inner: Mutex<State>,
}

impl Sentinel {
    /// Creates a monitor with the given policy.
    pub(crate) fn new(cfg: SentinelConfig) -> Sentinel {
        Sentinel {
            cfg,
            inner: Mutex::new(State::default()),
        }
    }

    /// The active policy.
    pub(crate) fn config(&self) -> SentinelConfig {
        self.cfg
    }

    /// Is `section` currently serving a quarantine (so the worker must
    /// plan the trivially sound global scheme instead of its inferred
    /// locks)?
    pub(crate) fn is_quarantined(&self, section: u32) -> bool {
        matches!(
            self.inner.lock().sections.get(&section).map(|s| s.health),
            Some(Health::Quarantined { .. })
        )
    }

    /// Counts an unlicensed access in `section`. Returns the demotion
    /// transition when this violation quarantines the section (first
    /// offense of a healthy section); `None` when the section is
    /// already serving.
    pub(crate) fn report_violation(&self, section: u32) -> Option<LadderEvent> {
        let mut st = self.inner.lock();
        st.violations += 1;
        let sec = st.sections.entry(section).or_insert(SectionState {
            health: Health::Healthy,
            next_probation: PROBATION,
            repair: RepairPhase::Dormant,
        });
        match sec.health {
            Health::Quarantined { probation, .. } => {
                // A violation slipped through while serving (sampling
                // caught an access before the demotion's global plan
                // took effect, or a nested enter wiped the worker's
                // dirty flag): restart the term in place. No new
                // ladder event and no `quarantined` bump — the section
                // is already demoted, it just has not earned credit.
                sec.health = Health::Quarantined {
                    remaining: probation,
                    probation,
                };
                None
            }
            Health::Healthy => {
                let probation = sec.next_probation;
                sec.health = Health::Quarantined {
                    remaining: probation,
                    probation,
                };
                sec.next_probation = probation.saturating_mul(FLAP_MULTIPLIER).min(MAX_PROBATION);
                st.quarantined += 1;
                Some(LadderEvent {
                    section,
                    healed: false,
                    probation,
                })
            }
        }
    }

    /// Notes that one outermost execution of `section` finished,
    /// `clean` iff the sentinel saw no violation during it. Returns
    /// the heal transition when this execution completes the
    /// section's probation.
    pub(crate) fn section_closed(&self, section: u32, clean: bool) -> Option<LadderEvent> {
        let mut st = self.inner.lock();
        let sec = st.sections.get_mut(&section)?;
        let Health::Quarantined {
            remaining,
            probation,
        } = sec.health
        else {
            return None;
        };
        if !clean {
            // A violation slipped through while quarantined (e.g. the
            // demotion landed mid-execution): restart the term rather
            // than credit a dirty run.
            sec.health = Health::Quarantined {
                remaining: probation,
                probation,
            };
            return None;
        }
        let remaining = remaining.saturating_sub(1);
        if remaining > 0 {
            sec.health = Health::Quarantined {
                remaining,
                probation,
            };
            return None;
        }
        sec.health = Health::Healthy;
        st.healed += 1;
        Some(LadderEvent {
            section,
            healed: true,
            probation,
        })
    }

    /// Does `section` run its staged repair? The worker plans the
    /// repaired specs instead of the seed scheme while this holds.
    pub(crate) fn repair_active(&self, section: u32) -> bool {
        let st = self.inner.lock();
        st.sections
            .get(&section)
            .is_some_and(|s| s.repair == RepairPhase::Active)
    }

    /// Switches a healed `section` onto the repair staged for it.
    /// Called by the worker, for a section with a staged repair, when
    /// [`Sentinel::section_closed`] returns a heal event. `true` when
    /// the section switched, so the worker traces `["ri", section,
    /// candidate, 1]` once; `false` when it already runs the repair or
    /// the repair was revoked.
    pub(crate) fn activate_repair(&self, section: u32) -> bool {
        let mut st = self.inner.lock();
        match st.sections.get_mut(&section) {
            Some(sec) if sec.repair == RepairPhase::Dormant => {
                sec.repair = RepairPhase::Active;
                true
            }
            _ => false,
        }
    }

    /// Withdraws `section`'s active repair for good — the repaired
    /// scheme itself drew a violation, so the section falls back to the
    /// ordinary demote→probation→seed ladder. `true` when a repair was
    /// active, so the worker traces `["ri", section, candidate, 0]`.
    pub(crate) fn revoke_repair(&self, section: u32) -> bool {
        let mut st = self.inner.lock();
        match st.sections.get_mut(&section) {
            Some(sec) if sec.repair == RepairPhase::Active => {
                sec.repair = RepairPhase::Revoked;
                true
            }
            _ => false,
        }
    }

    /// `(violations, demotions, heals)` so far, read under one lock:
    /// the totals of [`crate::DegradationReport`].
    pub(crate) fn totals(&self) -> (u64, u64, u64) {
        let st = self.inner.lock();
        (st.violations, st.quarantined, st.healed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_offense_quarantines_then_probation_heals() {
        let s = Sentinel::new(SentinelConfig::default());
        assert!(!s.is_quarantined(5));
        let ev = s.report_violation(5).expect("demotes");
        assert_eq!(
            ev,
            LadderEvent {
                section: 5,
                healed: false,
                probation: PROBATION
            }
        );
        assert!(s.is_quarantined(5));
        // Further violations while serving do not re-demote.
        assert!(s.report_violation(5).is_none());
        assert_eq!(s.totals(), (2, 1, 0));
        // One clean execution short of the term: still serving.
        for _ in 1..PROBATION {
            assert!(s.section_closed(5, true).is_none());
        }
        assert!(s.is_quarantined(5));
        // The last completes it.
        let heal = s.section_closed(5, true).expect("heals");
        assert_eq!(
            heal,
            LadderEvent {
                section: 5,
                healed: true,
                probation: PROBATION
            }
        );
        assert!(!s.is_quarantined(5));
        assert_eq!(s.totals(), (2, 1, 1));
    }

    #[test]
    fn flap_damping_grows_the_term_exponentially_and_saturates() {
        let s = Sentinel::new(SentinelConfig::default());
        let mut events = Vec::new();
        let terms: Vec<u32> = (0..6)
            .map(|_| {
                let ev = s.report_violation(1).expect("demotes");
                events.push(ev);
                for _ in 0..ev.probation {
                    events.extend(s.section_closed(1, true));
                }
                assert!(!s.is_quarantined(1));
                ev.probation
            })
            .collect();
        assert_eq!(terms, vec![4, 8, 16, 32, 64, 64], "doubles, then caps");
        // Each term ends in exactly one heal, with the term it served.
        let heals: Vec<u32> = events
            .iter()
            .filter(|e| e.healed)
            .map(|e| e.probation)
            .collect();
        assert_eq!(heals, terms);
        assert_eq!(events.len(), 12);
    }

    #[test]
    fn dirty_executions_restart_the_term() {
        let s = Sentinel::new(SentinelConfig::default());
        s.report_violation(9).expect("demotes");
        assert!(s.section_closed(9, true).is_none());
        // One execution was dirty: progress resets.
        assert!(s.section_closed(9, false).is_none());
        for _ in 1..PROBATION {
            assert!(s.section_closed(9, true).is_none());
        }
        let heal = s.section_closed(9, true).expect("full term served");
        assert!(heal.healed);
    }

    #[test]
    fn probation_violation_restarts_the_term_without_new_ladder_events() {
        let s = Sentinel::new(SentinelConfig::default());
        let demote = s.report_violation(7).expect("demotes");
        // All but one clean execution leave one to serve…
        for _ in 1..PROBATION {
            assert!(s.section_closed(7, true).is_none());
        }
        // …then a violation lands during probation (e.g. a nested
        // enter wiped the worker's dirty flag, so the close below
        // reports clean). It must restart the term itself, without
        // re-demoting or double-counting.
        assert!(s.report_violation(7).is_none());
        assert_eq!(s.totals(), (2, 1, 0));
        assert!(
            s.section_closed(7, true).is_none(),
            "the poisoned execution must not complete the term"
        );
        // The full term was owed again as of the violation; only its
        // last close heals.
        for _ in 2..PROBATION {
            assert!(s.section_closed(7, true).is_none());
        }
        let heal = s.section_closed(7, true).expect("term served anew");
        assert!(heal.healed);
        assert!(!demote.healed);
        // Exactly one demote and one heal, no spurious events: every
        // other call above returned `None`.
        assert_eq!(s.totals(), (2, 1, 1));
    }

    #[test]
    fn repairs_activate_on_heal_and_revoke_on_reoffense() {
        let s = Sentinel::new(SentinelConfig::default());
        // Dormant until the section heals.
        assert!(!s.repair_active(4));
        s.report_violation(4).expect("demotes");
        assert!(!s.repair_active(4));
        for _ in 1..PROBATION {
            assert!(s.section_closed(4, true).is_none());
        }
        s.section_closed(4, true).expect("heals");
        assert!(s.activate_repair(4));
        assert!(s.repair_active(4));
        // Activation is edge-triggered: the worker traces it once.
        assert!(!s.activate_repair(4));
        // A violation under the repaired scheme withdraws it…
        s.report_violation(4).expect("re-demotes");
        assert!(s.revoke_repair(4));
        assert!(!s.repair_active(4));
        // …for good: the next heal (a flap-damped, twice-as-long term)
        // goes back to the seed scheme.
        for _ in 1..PROBATION * FLAP_MULTIPLIER {
            assert!(s.section_closed(4, true).is_none());
        }
        s.section_closed(4, true).expect("heals again");
        assert!(!s.activate_repair(4));
        assert!(!s.repair_active(4));
        // Revoking when nothing is active is a no-op.
        assert!(!s.revoke_repair(4));
    }

    #[test]
    fn sections_quarantine_independently() {
        let s = Sentinel::new(SentinelConfig::default());
        let events: Vec<LadderEvent> = [1, 3]
            .into_iter()
            .filter_map(|section| s.report_violation(section))
            .collect();
        // Closing a healthy section is a no-op.
        assert!(s.section_closed(2, true).is_none());
        // Exactly the reported sections are quarantined, each demoted
        // once, in report order.
        let quarantined: Vec<u32> = [1, 2, 3]
            .into_iter()
            .filter(|&id| s.is_quarantined(id))
            .collect();
        assert_eq!(quarantined, vec![1, 3]);
        let demoted = |section| LadderEvent {
            section,
            healed: false,
            probation: PROBATION,
        };
        assert_eq!(events, vec![demoted(1), demoted(3)]);
    }

    #[test]
    fn sampling_schedule_is_deterministic() {
        let every = SentinelConfig::default();
        assert!(every.should_check(0) && every.should_check(1));
        let tenth = SentinelConfig {
            sample_every: 10,
            ..SentinelConfig::default()
        };
        assert!(tenth.should_check(0));
        assert!(!tenth.should_check(5));
        assert!(tenth.should_check(10));
    }

    #[test]
    fn sampled_production_preset_samples_one_in_eight() {
        let p = SentinelConfig::sampled_production();
        assert_eq!(p.sample_every, 8);
        assert!(p.should_check(0) && p.should_check(8) && !p.should_check(7));
        // It quarantines, like the default.
        assert_eq!(p.response, Response::Quarantine);
    }

    #[test]
    fn validate_preset_checks_everything_and_fails() {
        let v = SentinelConfig::validate();
        assert!((0..16).all(|n| v.should_check(n)));
        assert_eq!(v.response, Response::Fail);
    }
}
