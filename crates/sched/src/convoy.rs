//! Convoy detection over recorded per-section profiles.
//!
//! A *convoy* is a queue that never drains: waiters pile up behind a
//! long-hold (or frequently re-granted) lock faster than releases
//! retire them, so measured wait grows with queue depth × hold time
//! even though each individual hold is modest. Baseline (FIFO) traces
//! carry no `["wk", …]` wake decisions, so the detector estimates the
//! steady-state queue depth from the wait/hold histograms instead:
//! by Little's law a section whose entries each wait `W` ticks behind
//! holders occupying the lock `H` ticks at a time has, on average,
//! `W / H` predecessors queued ahead of it. The pressure score
//! `depth × H` (≈ mean wait) is what a wake policy can actually
//! recover — re-ordering a queue of depth < 1 buys nothing, however
//! long its waits.
//!
//! Policy-steered traces additionally record measured per-lock queue
//! depths ([`crate::queue_profiles`]); the estimator here is the
//! *trigger* side used on baseline recordings: flagged sections get
//! `lockinfer::adapt`'s wake-policy candidates.

use trace::SectionProfile;

/// Thresholds steering convoy detection. Pure arithmetic on the
/// profile counters: a policy value fully determines the flag set for
/// a given profile vector.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ConvoyPolicy {
    /// Sections with fewer completed executions are ignored — too
    /// little evidence.
    pub min_entries: u64,
    /// Minimum estimated steady-state queue depth (`mean wait / mean
    /// hold`): below this there is no queue to re-order.
    pub min_depth: f64,
    /// Minimum pressure (`depth × mean hold`, in ticks) — queues on
    /// cheap locks are not worth steering.
    pub min_pressure: f64,
}

impl Default for ConvoyPolicy {
    fn default() -> ConvoyPolicy {
        ConvoyPolicy {
            min_entries: 2,
            min_depth: 1.5,
            min_pressure: 200.0,
        }
    }
}

/// One flagged section.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ConvoyFlag {
    pub section: u32,
    /// Estimated steady-state queue depth (`mean wait / mean hold`).
    pub depth: f64,
    /// Mean hold ticks.
    pub mean_hold: f64,
    /// `depth × mean_hold`: the per-entry wait a perfect policy could
    /// attack.
    pub pressure: f64,
}

/// Flags convoy-prone sections, in section-id order (profiles arrive
/// sorted from [`trace::profile`]).
pub fn detect(profiles: &[SectionProfile], policy: &ConvoyPolicy) -> Vec<ConvoyFlag> {
    let mut out = Vec::new();
    for p in profiles {
        if p.entries < policy.min_entries {
            continue;
        }
        let mean_hold = p.hold.mean();
        let depth = p.wait.mean() / mean_hold.max(1.0);
        let pressure = depth * mean_hold.max(1.0);
        if depth >= policy.min_depth && pressure >= policy.min_pressure {
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

    fn prof(section: u32, wait: &[u64], hold: &[u64]) -> SectionProfile {
        SectionProfile {
            section,
            entries: wait.len() as u64,
            wait: hist(wait),
            hold: hist(hold),
            ..SectionProfile::default()
        }
    }

    #[test]
    fn deep_queues_on_expensive_locks_are_flagged() {
        // Mean wait 600 behind mean hold 100: depth 6, pressure 600.
        let ps = vec![prof(1, &[500, 700], &[90, 110])];
        let flags = detect(&ps, &ConvoyPolicy::default());
        assert_eq!(flags.len(), 1);
        assert_eq!(flags[0].section, 1);
        assert!((flags[0].depth - 6.0).abs() < 1e-9);
        assert!((flags[0].pressure - 600.0).abs() < 1e-9);
    }

    #[test]
    fn shallow_or_cheap_queues_are_not() {
        // Depth 0.5: waiters drain faster than they arrive.
        let shallow = prof(1, &[50, 50], &[100, 100]);
        // Depth 10 but pressure 100: a convoy on a trivial lock.
        let cheap = prof(2, &[100, 100], &[10, 10]);
        // Plenty of pressure but a single entry: no evidence.
        let thin = SectionProfile {
            entries: 1,
            ..prof(3, &[10_000], &[100])
        };
        assert!(detect(&[shallow, cheap, thin], &ConvoyPolicy::default()).is_empty());
    }
}
