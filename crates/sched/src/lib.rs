//! # sched — pluggable deterministic wake policies for the scheduler
//!
//! The inferred multigranular locks are only as good as the runtime
//! that arbitrates them: the virtual-time scheduler (`interp::sim`)
//! originally woke lock waiters in fixed `(clock, tid)` order, so
//! reader/writer convoys and long-hold blockers dominated measured
//! wait even when the lockset was optimal. This crate makes the wake
//! policy an explicit, analyzable component:
//!
//! * [`WakePolicy`] — a *pure* ranking function over recorded state:
//!   the blocked [`Waiter`] snapshots (who waits, on which lock-tree
//!   node, in which mode, for which static section) plus a frozen
//!   per-section expected-hold table derived from
//!   [`trace::profile`] histograms of a prior run. No clocks, no
//!   randomness, no thread-count dependence — identical release
//!   batches rank identically on any machine, at any parallelism,
//!   which is what keeps policy-steered runs replayable.
//! * Built-in policies: [`ShortestExpectedHold`] (waiters whose
//!   section's hold histogram predicts the shortest occupancy go
//!   first) and [`ReaderBatch`] (all shared-mode waiters rank ahead of
//!   writers, so one grant wakes the whole read batch and breaks
//!   writer-preference convoys). There is no FIFO policy: running the
//!   scheduler with *no* policy is the historical `(clock, tid)` order.
//! * [`convoy`] — flags sections whose estimated queue depth × hold
//!   time exceeds a threshold, and [`queue_profiles`] builds per-lock
//!   waiter-queue-depth histograms from recorded `["wk", …]` wake
//!   decisions.
//!
//! The scheduler integration contract: at every lock release the
//! scheduler collects the current waiter queue (ordered by thread id —
//! a deterministic order under the virtual-time scheduler), calls
//! [`rank_batch`], stores each waiter's rank, and breaks clock ties by
//! `(clock, rank, tid)` instead of `(clock, tid)`. Clocks are never
//! altered by the policy — only the acquisition order among waiters
//! promoted at the same release changes, which is exactly the degree
//! of freedom that affects measured wait. Without a policy no ranking
//! pass runs and every rank stays 0, so `(clock, 0, tid)` is the
//! historical schedule — and the historical traces — byte for byte.

pub mod convoy;

use mglock::{Mode, NodeKey};
use std::collections::BTreeMap;
use trace::{EventKind, Histogram, SectionProfile, Trace};

pub use convoy::{detect, ConvoyFlag, ConvoyPolicy};

/// Snapshot of one blocked thread, recorded when it parks on a lock.
/// Everything a policy may consult; all fields come from recorded
/// state, never from wall-clock time.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Waiter {
    /// Logical thread id.
    pub tid: u32,
    /// The thread's virtual clock when it began waiting.
    pub since: u64,
    /// Static section id the thread is trying to enter (u32::MAX when
    /// unknown — e.g. a wait outside any section).
    pub section: u32,
    /// The lock-tree node the acquisition cursor blocked on.
    pub node: NodeKey,
    /// The mode requested at that node.
    pub mode: Mode,
    /// Release grants that have elapsed since the thread parked,
    /// filled in by the scheduler at each release (callers snapshotting
    /// a fresh waiter pass 0). A deterministic age — it counts recorded
    /// scheduling events, never wall-clock time — so aging policies
    /// stay replayable.
    pub age: u64,
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

/// A wake policy plus the recorded state it closes over. Serializable
/// (to `run.sched_*` trace metadata) so a policy-steered run replays
/// bit-for-bit from its trace alone.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SchedConfig {
    pub policy: PolicyKind,
    /// Frozen per-section expected hold times `(section, ticks)`,
    /// sorted by section id — the mean of a prior run's hold
    /// histograms. Only [`PolicyKind::ShortestExpectedHold`] consults
    /// it, but it is carried (and stamped) for every policy so the
    /// metadata fully determines the ranking function.
    pub expected_hold: Vec<(u32, u64)>,
    /// Writer-starvation bound for [`PolicyKind::ReaderBatch`]: a
    /// waiter that has sat through at least this many release grants
    /// jumps into the preferred batch regardless of its mode. `0`
    /// disables aging (the pre-aging behavior); other policies carry
    /// the knob but ignore it.
    pub aging: u64,
}

impl SchedConfig {
    /// Builds the configuration for `policy` from a prior run's
    /// per-section profiles (the record → profile → re-run loop).
    /// [`PolicyKind::ReaderBatch`] gets the default aging bound so
    /// steered runs never starve writers unboundedly.
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
                PolicyKind::ReaderBatch => ReaderBatch::DEFAULT_AGING,
                PolicyKind::ShortestExpectedHold => 0,
            },
        }
    }

    /// Instantiates the ranking function.
    pub fn build(&self) -> Box<dyn WakePolicy> {
        match self.policy {
            PolicyKind::ShortestExpectedHold => {
                Box::new(ShortestExpectedHold::new(&self.expected_hold))
            }
            PolicyKind::ReaderBatch => Box::new(ReaderBatch { aging: self.aging }),
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

/// A deterministic wake-ordering policy: a pure function from one
/// waiter (in the context of the whole release batch) to a rank.
/// Lower ranks wake first among clock ties; waiters that never blocked
/// implicitly rank 0, so a policy that wants its preferred waiters to
/// compete on equal terms with running threads returns 0 for them.
pub trait WakePolicy: Send + Sync {
    /// Stable policy name (matches [`PolicyKind::tag`]).
    fn name(&self) -> &'static str;

    /// Rank `waiter` within `queue` (the full batch being promoted,
    /// ordered by thread id). Must be a pure function of its
    /// arguments.
    fn rank(&self, waiter: &Waiter, queue: &[Waiter]) -> u64;
}

/// Wake the waiter whose section is expected to get out of the way
/// fastest (shortest-job-first over the recorded hold histograms).
/// Sections absent from the frozen table rank after every known one.
pub struct ShortestExpectedHold {
    holds: BTreeMap<u32, u64>,
    /// Rank for sections with no recorded hold: one past the largest
    /// known expected hold, so unknown work never jumps the queue.
    unknown: u64,
}

impl ShortestExpectedHold {
    pub fn new(expected_hold: &[(u32, u64)]) -> ShortestExpectedHold {
        let holds: BTreeMap<u32, u64> = expected_hold.iter().copied().collect();
        let unknown = holds.values().copied().max().unwrap_or(0).saturating_add(1);
        ShortestExpectedHold { holds, unknown }
    }
}

impl WakePolicy for ShortestExpectedHold {
    fn name(&self) -> &'static str {
        "seh"
    }

    fn rank(&self, waiter: &Waiter, _queue: &[Waiter]) -> u64 {
        self.holds
            .get(&waiter.section)
            .copied()
            .unwrap_or(self.unknown)
    }
}

/// Wake every shared-mode waiter ahead of the writers: the whole read
/// batch runs in parallel under compatible grants, so one release
/// drains it instead of letting an interleaved writer reconvoy the
/// readers one by one. A steady read stream would starve writers
/// forever, so `aging` bounds the wait: a writer that has sat through
/// `aging` release grants jumps the batch (0 = unbounded).
pub struct ReaderBatch {
    /// Grants a non-shared waiter may sit out before it is promoted
    /// into the preferred batch (0 disables aging).
    pub aging: u64,
}

impl ReaderBatch {
    /// Default writer-starvation bound used by
    /// [`SchedConfig::from_profiles`]: after sitting through this many
    /// release grants, a writer ranks with the read batch. Small
    /// enough that writers land within one reader drain, large enough
    /// that a momentary read burst still batches.
    pub const DEFAULT_AGING: u64 = 4;
}

impl WakePolicy for ReaderBatch {
    fn name(&self) -> &'static str {
        "rbatch"
    }

    fn rank(&self, waiter: &Waiter, _queue: &[Waiter]) -> u64 {
        // Read-side requests are those compatible with a shared
        // holder: S itself and the IS intention on the path to a
        // shared descendant. IX/SIX/X announce or perform writes —
        // they wait behind the batch until their age crosses the
        // starvation bound.
        if waiter.mode.compatible(Mode::S) || (self.aging > 0 && waiter.age >= self.aging) {
            0
        } else {
            1
        }
    }
}

/// One wake decision, mirroring the `["wk", …]` trace event: at a
/// release, `depth` waiters were queued on `node`, of which the
/// `woken` with the minimal rank form the preferred batch; `mode` is
/// the request of the batch's first (lowest-tid) member.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WakeGrant {
    pub node: NodeKey,
    pub mode: Mode,
    pub depth: u32,
    pub woken: u32,
}

/// Ranks a whole release batch. Returns the per-waiter ranks (aligned
/// with `queue`) and one [`WakeGrant`] per distinct blocked-on node,
/// in `NodeKey` order. Deterministic given `queue` order.
pub fn rank_batch(policy: &dyn WakePolicy, queue: &[Waiter]) -> (Vec<u64>, Vec<WakeGrant>) {
    let ranks: Vec<u64> = queue.iter().map(|w| policy.rank(w, queue)).collect();
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

/// Per-lock waiter-queue-depth histograms, reconstructed from the
/// recorded `["wk", …]` wake decisions of a policy-steered trace.
/// Sorted by node key.
pub fn queue_profiles(trace: &Trace) -> Vec<(NodeKey, Histogram)> {
    let mut per_node: BTreeMap<NodeKey, Histogram> = BTreeMap::new();
    for e in &trace.events {
        if let EventKind::WakeDecision { node, depth, .. } = e.kind {
            per_node.entry(node).or_default().add(depth as u64);
        }
    }
    per_node.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(tid: u32, section: u32, node: NodeKey, mode: Mode) -> Waiter {
        Waiter {
            tid,
            since: 100 + tid as u64,
            section,
            node,
            mode,
            age: 0,
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
        let p = cfg.build();
        let q = vec![
            w(0, 1, NodeKey::Pts(0), Mode::X),
            w(1, 2, NodeKey::Pts(0), Mode::X),
            w(2, 9, NodeKey::Pts(0), Mode::X), // unprofiled section
        ];
        let (ranks, grants) = rank_batch(p.as_ref(), &q);
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
        let (ranks, grants) = rank_batch(&ReaderBatch { aging: 0 }, &q);
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
        let (ranks, _) = rank_batch(&ReaderBatch { aging: 3 }, &q);
        assert_eq!(ranks, vec![1, 0, 0]);
        // The writer has sat through three grants: it jumps the batch.
        q[0].age = 3;
        let (ranks, grants) = rank_batch(&ReaderBatch { aging: 3 }, &q);
        assert_eq!(ranks, vec![0, 0, 0]);
        assert_eq!((grants[0].depth, grants[0].woken), (3, 3));
        // Aging 0 keeps the unbounded pre-aging behavior.
        let (ranks, _) = rank_batch(&ReaderBatch { aging: 0 }, &q);
        assert_eq!(ranks, vec![1, 0, 0]);
        // from_profiles arms the default bound for ReaderBatch only.
        let cfg = SchedConfig::from_profiles(PolicyKind::ReaderBatch, &[]);
        assert_eq!(cfg.aging, ReaderBatch::DEFAULT_AGING);
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
    fn queue_profiles_aggregate_wake_decisions() {
        use trace::Event;
        let wk = |node, depth| Event {
            epoch: 0,
            tid: 0,
            clock: 0,
            kind: EventKind::WakeDecision {
                node,
                mode: Mode::X,
                depth,
                woken: 1,
            },
        };
        let t = Trace {
            events: vec![
                wk(NodeKey::Pts(1), 3),
                wk(NodeKey::Pts(1), 5),
                wk(NodeKey::Root, 1),
            ],
            ..Trace::default()
        };
        let qp = queue_profiles(&t);
        assert_eq!(qp.len(), 2);
        assert_eq!(qp[0].0, NodeKey::Root);
        assert_eq!(qp[1].0, NodeKey::Pts(1));
        assert_eq!(qp[1].1.count, 2);
        assert_eq!(qp[1].1.sum, 8);
    }
}
