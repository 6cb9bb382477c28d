//! Deterministic wake policies for the virtual-time scheduler.
//!
//! The inferred multigranular locks are only as good as the runtime
//! that arbitrates them: woken in fixed `(clock, tid)` order, lock
//! waiters form reader/writer convoys and queue behind long-hold
//! blockers even when the lockset is optimal. A wake policy ranks the
//! waiters a release promotes; [`SchedConfig::rank`] is the whole
//! policy, one `match` over [`PolicyKind`]:
//!
//! * [`PolicyKind::ShortestExpectedHold`] — waiters whose section's
//!   hold histogram predicts the shortest occupancy go first;
//! * [`PolicyKind::ReaderBatch`] — every shared-mode waiter ranks ahead
//!   of the writers, so one grant wakes the whole read batch, and a
//!   writer that has sat through `aging` grants joins the batch.
//!
//! A rank is a pure function of recorded state — the blocked waiter's
//! snapshot and a frozen per-section expected-hold table derived from
//! [`trace::profile()`] histograms of a prior run. No clocks, no
//! randomness, no thread-count dependence, so identical release batches
//! rank identically on any machine, which keeps steered runs
//! replayable. There is no FIFO policy: running the scheduler with
//! *no* policy is the historical `(clock, tid)` order.
//!
//! The scheduler's side (`crate::sim`): at every lock release it
//! collects the waiter queue in thread-id order, calls [`rank_batch`],
//! stores each waiter's rank and breaks clock ties by
//! `(clock, rank, tid)`. Clocks are never altered by the policy — only
//! the acquisition order among waiters promoted at the same release.
//! Without a policy no ranking pass runs and every rank stays 0, so
//! `(clock, 0, tid)` is the historical schedule byte for byte.

use mglock::{Mode, NodeKey};
use std::collections::BTreeMap;
use trace::SectionProfile;

/// Snapshot of one blocked thread, recorded when it parks on a lock:
/// everything a policy may consult, all of it recorded state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct Waiter {
    /// Logical thread id.
    pub(crate) tid: u32,
    /// Static section id the thread is trying to enter (`u32::MAX`
    /// outside any section).
    pub(crate) section: u32,
    /// The lock-tree node the acquisition cursor blocked on.
    pub(crate) node: NodeKey,
    /// The mode requested at that node.
    pub(crate) mode: Mode,
    /// Release grants the thread's wait streak has sat through, filled
    /// in by the scheduler at each release (a fresh snapshot has 0). It
    /// counts scheduling events, never wall-clock time, so aging stays
    /// replayable.
    pub(crate) age: u64,
}

/// Which built-in policy to run. The tags are stable: they round-trip
/// through `run.sched_policy` trace metadata.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PolicyKind {
    /// Waiters whose section's recorded hold histogram predicts the
    /// shortest occupancy are woken first.
    ShortestExpectedHold,
    /// All shared-mode (read-side) waiters rank ahead of writers.
    ReaderBatch,
}

impl PolicyKind {
    /// Every built-in policy, in evaluation order.
    pub const ALL: [PolicyKind; 2] = [PolicyKind::ShortestExpectedHold, PolicyKind::ReaderBatch];

    /// Stable machine-readable tag (trace metadata, reports).
    pub fn tag(self) -> &'static str {
        match self {
            PolicyKind::ShortestExpectedHold => "seh",
            PolicyKind::ReaderBatch => "rbatch",
        }
    }

    pub fn from_tag(s: &str) -> Option<PolicyKind> {
        Some(match s {
            "seh" => PolicyKind::ShortestExpectedHold,
            "rbatch" => PolicyKind::ReaderBatch,
            _ => return None,
        })
    }
}

/// The writer-starvation bound [`SchedConfig::from_profiles`] gives
/// [`PolicyKind::ReaderBatch`]: after sitting through this many release
/// grants, a writer ranks with the read batch. Small enough that
/// writers land within one reader drain, large enough that a momentary
/// read burst still batches.
const DEFAULT_AGING: u64 = 4;

/// A wake policy plus the recorded state it closes over. Serializable
/// (to `run.sched_*` trace metadata) so a policy-steered run replays
/// bit-for-bit from its trace alone.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SchedConfig {
    pub policy: PolicyKind,
    /// Frozen per-section expected hold times `(section, ticks)`,
    /// strictly increasing by section id — the mean of a prior run's
    /// hold histograms. Only [`PolicyKind::ShortestExpectedHold`]
    /// consults it, but it is carried (and stamped) for every policy so
    /// the metadata fully determines the ranking function.
    pub expected_hold: Vec<(u32, u64)>,
    /// Writer-starvation bound for [`PolicyKind::ReaderBatch`]: a
    /// waiter that has sat through at least this many release grants
    /// ranks with the preferred batch whatever its mode. `0` disables
    /// aging; the other policy ignores it.
    pub aging: u64,
}

impl SchedConfig {
    /// Builds the configuration for `policy` from a prior run's
    /// per-section profiles (the record → profile → re-run loop).
    /// [`PolicyKind::ReaderBatch`] gets the default aging bound of 4
    /// grants, so steered runs never starve writers unboundedly.
    pub fn from_profiles(policy: PolicyKind, profiles: &[SectionProfile]) -> SchedConfig {
        let mut expected_hold: Vec<(u32, u64)> = profiles
            .iter()
            .filter(|p| p.hold.count > 0)
            .map(|p| (p.section, p.hold.mean().round() as u64))
            .collect();
        expected_hold.sort_unstable();
        SchedConfig {
            policy,
            expected_hold,
            aging: match policy {
                PolicyKind::ReaderBatch => DEFAULT_AGING,
                PolicyKind::ShortestExpectedHold => 0,
            },
        }
    }

    /// The rank of `w` among the waiters of one release: lower ranks
    /// wake first among clock ties, and a thread that never blocked
    /// ranks 0, so a policy's preferred waiters rank 0 to compete on
    /// equal terms with running threads.
    pub(crate) fn rank(&self, w: &Waiter) -> u64 {
        match self.policy {
            // Shortest job first over the frozen table; a section with
            // no recorded hold ranks one past the longest known one, so
            // unknown work never jumps the queue.
            PolicyKind::ShortestExpectedHold => {
                let mut longest = 0;
                for &(section, hold) in &self.expected_hold {
                    if section == w.section {
                        return hold;
                    }
                    longest = longest.max(hold);
                }
                longest.saturating_add(1)
            }
            // Read-side requests are those compatible with a shared
            // holder: S itself and the IS intention on the path to a
            // shared descendant. IX/SIX/X announce or perform writes —
            // they wait behind the batch until their age reaches the
            // starvation bound.
            PolicyKind::ReaderBatch => {
                if w.mode.compatible(Mode::S) || (self.aging > 0 && w.age >= self.aging) {
                    0
                } else {
                    1
                }
            }
        }
    }

    /// Refuses an expected-hold table [`SchedConfig::from_profiles`]
    /// could not have written: its sections must strictly increase.
    pub fn check_holds(&self) -> Result<(), String> {
        if self.expected_hold.windows(2).all(|w| w[0].0 < w[1].0) {
            Ok(())
        } else {
            Err(format!(
                "bad `sched_holds` `{}`: sections must strictly increase",
                self.holds_string()
            ))
        }
    }

    /// The expected-hold table as trace metadata: `"sec:hold,…"`
    /// (empty string when the table is empty).
    pub fn holds_string(&self) -> String {
        let mut s = String::new();
        for (i, (sec, hold)) in self.expected_hold.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("{sec}:{hold}"));
        }
        s
    }

    /// Parses [`SchedConfig::holds_string`] output.
    pub fn parse_holds(s: &str) -> Option<Vec<(u32, u64)>> {
        if s.is_empty() {
            return Some(Vec::new());
        }
        let mut out = Vec::new();
        for part in s.split(',') {
            let (sec, hold) = part.split_once(':')?;
            out.push((sec.parse().ok()?, hold.parse().ok()?));
        }
        Some(out)
    }
}

/// One wake decision, mirroring the `["wk", …]` trace event: at a
/// release, `depth` waiters were queued on `node`, of which the
/// `woken` with the minimal rank form the preferred batch; `mode` is
/// the request of the batch's first (lowest-tid) member.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct WakeGrant {
    pub(crate) node: NodeKey,
    pub(crate) mode: Mode,
    pub(crate) depth: u32,
    pub(crate) woken: u32,
}

/// Ranks a whole release batch. Returns the per-waiter ranks (aligned
/// with `queue`) and one [`WakeGrant`] per distinct blocked-on node,
/// in `NodeKey` order. Deterministic given `queue` order.
pub(crate) fn rank_batch(cfg: &SchedConfig, queue: &[Waiter]) -> (Vec<u64>, Vec<WakeGrant>) {
    let ranks: Vec<u64> = queue.iter().map(|w| cfg.rank(w)).collect();
    let mut per_node: BTreeMap<NodeKey, Vec<usize>> = BTreeMap::new();
    for (i, w) in queue.iter().enumerate() {
        per_node.entry(w.node).or_default().push(i);
    }
    let grants = per_node
        .into_iter()
        .map(|(node, idxs)| {
            let min_rank = idxs.iter().map(|&i| ranks[i]).min().unwrap_or(0);
            let preferred: Vec<usize> = idxs
                .iter()
                .copied()
                .filter(|&i| ranks[i] == min_rank)
                .collect();
            WakeGrant {
                node,
                mode: queue[preferred[0]].mode,
                depth: idxs.len() as u32,
                woken: preferred.len() as u32,
            }
        })
        .collect();
    (ranks, grants)
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace::Histogram;

    fn w(tid: u32, section: u32, node: NodeKey, mode: Mode) -> Waiter {
        Waiter {
            tid,
            section,
            node,
            mode,
            age: 0,
        }
    }

    fn reader_batch(aging: u64) -> SchedConfig {
        SchedConfig {
            policy: PolicyKind::ReaderBatch,
            expected_hold: Vec::new(),
            aging,
        }
    }

    #[test]
    fn policy_tags_round_trip() {
        for k in PolicyKind::ALL {
            assert_eq!(PolicyKind::from_tag(k.tag()), Some(k));
        }
        assert_eq!(PolicyKind::from_tag("lifo"), None);
        assert_eq!(PolicyKind::from_tag("fifo"), None, "no policy is FIFO");
    }

    #[test]
    fn seh_ranks_by_frozen_hold_table() {
        let cfg = SchedConfig {
            policy: PolicyKind::ShortestExpectedHold,
            expected_hold: vec![(1, 40), (2, 7)],
            aging: 0,
        };
        let q = vec![
            w(0, 1, NodeKey::Pts(0), Mode::X),
            w(1, 2, NodeKey::Pts(0), Mode::X),
            w(2, 9, NodeKey::Pts(0), Mode::X), // unprofiled section
        ];
        let (ranks, grants) = rank_batch(&cfg, &q);
        assert_eq!(ranks, vec![40, 7, 41]);
        assert_eq!(
            grants,
            vec![WakeGrant {
                node: NodeKey::Pts(0),
                mode: Mode::X,
                depth: 3,
                woken: 1,
            }]
        );
    }

    #[test]
    fn seh_config_builds_from_profiles() {
        let mut hold = Histogram::default();
        hold.add(10);
        hold.add(20);
        let profiles = vec![SectionProfile {
            section: 3,
            entries: 2,
            hold,
            ..SectionProfile::default()
        }];
        let cfg = SchedConfig::from_profiles(PolicyKind::ShortestExpectedHold, &profiles);
        assert_eq!(cfg.expected_hold, vec![(3, 15)]);
    }

    #[test]
    fn reader_batch_prefers_shared_modes() {
        let q = vec![
            w(0, 1, NodeKey::Pts(0), Mode::X),
            w(1, 1, NodeKey::Pts(0), Mode::S),
            w(2, 1, NodeKey::Root, Mode::Is),
            w(3, 1, NodeKey::Pts(0), Mode::S),
        ];
        let (ranks, grants) = rank_batch(&reader_batch(0), &q);
        assert_eq!(ranks, vec![1, 0, 0, 0]);
        assert_eq!(grants.len(), 2, "one grant per distinct node");
        // Pts(0): three waiters, the two readers form the batch.
        let pts = grants.iter().find(|g| g.node == NodeKey::Pts(0)).unwrap();
        assert_eq!((pts.depth, pts.woken, pts.mode), (3, 2, Mode::S));
    }

    #[test]
    fn reader_batch_aging_bounds_writer_starvation() {
        let mut q = vec![
            w(0, 1, NodeKey::Pts(0), Mode::X),
            w(1, 1, NodeKey::Pts(0), Mode::S),
            w(2, 1, NodeKey::Pts(0), Mode::S),
        ];
        // Fresh writer: waits behind the read batch.
        let (ranks, _) = rank_batch(&reader_batch(3), &q);
        assert_eq!(ranks, vec![1, 0, 0]);
        // The writer has sat through three grants: it jumps the batch.
        q[0].age = 3;
        let (ranks, grants) = rank_batch(&reader_batch(3), &q);
        assert_eq!(ranks, vec![0, 0, 0]);
        assert_eq!((grants[0].depth, grants[0].woken), (3, 3));
        // Aging 0 keeps the unbounded pre-aging behavior.
        let (ranks, _) = rank_batch(&reader_batch(0), &q);
        assert_eq!(ranks, vec![1, 0, 0]);
        // from_profiles arms the default bound for ReaderBatch only.
        let cfg = SchedConfig::from_profiles(PolicyKind::ReaderBatch, &[]);
        assert_eq!(cfg.aging, DEFAULT_AGING);
        let cfg = SchedConfig::from_profiles(PolicyKind::ShortestExpectedHold, &[]);
        assert_eq!(cfg.aging, 0);
    }

    #[test]
    fn holds_metadata_round_trips() {
        let cfg = SchedConfig {
            policy: PolicyKind::ShortestExpectedHold,
            expected_hold: vec![(0, 12), (7, 3400)],
            aging: 0,
        };
        let s = cfg.holds_string();
        assert_eq!(s, "0:12,7:3400");
        assert_eq!(SchedConfig::parse_holds(&s), Some(cfg.expected_hold));
        assert_eq!(SchedConfig::parse_holds(""), Some(Vec::new()));
        assert_eq!(SchedConfig::parse_holds("1:2,junk"), None);
    }

    #[test]
    fn only_strictly_increasing_hold_tables_pass() {
        let with = |expected_hold: Vec<(u32, u64)>| SchedConfig {
            expected_hold,
            ..reader_batch(0)
        };
        assert_eq!(with(Vec::new()).check_holds(), Ok(()));
        assert_eq!(with(vec![(0, 5), (1, 9)]).check_holds(), Ok(()));
        assert_eq!(
            with(vec![(1, 9), (0, 5), (0, 7)]).check_holds(),
            Err("bad `sched_holds` `1:9,0:5,0:7`: sections must strictly increase".to_owned())
        );
        assert!(with(vec![(0, 5), (0, 7)]).check_holds().is_err());
    }
}
