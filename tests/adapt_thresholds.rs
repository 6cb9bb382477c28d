//! Boundary pins of the adapt loop's and the convoy detector's
//! thresholds: for each one, a profile just below it, one exactly at it
//! and one just above it, run through `ali::adapt::candidates` and
//! `ali::adapt::detect_convoys`, with the candidate tags each produces.
//!
//! Each profile is built so that only the threshold under test is near
//! its boundary; the others sit far on one side of theirs. A tag is
//! `adjustment/trigger`, in the order `candidates` emits them.

use atomic_lock_inference as ali;

use ali::adapt::{candidates, detect_convoys};
use ali::lockscheme::{ConfigMap, SchemeConfig};
use ali::trace::SectionProfile;

/// `n` entries, each waiting `wait` and holding `hold` ticks; the
/// first `revalidated` of them retried their plan once.
fn prof(n: u64, wait: u64, hold: u64, revalidated: u64) -> SectionProfile {
    let mut p = SectionProfile {
        section: 7,
        entries: n,
        ..SectionProfile::default()
    };
    for i in 0..n {
        p.wait.add(wait);
        p.hold.add(hold);
        p.revalidations.add(u64::from(i < revalidated));
    }
    p
}

/// The candidate tags `p` produces over a uniform base at `k`, and
/// whether the convoy detector flags it.
fn run(k: usize, p: &SectionProfile) -> (Vec<String>, bool) {
    let base = ConfigMap::uniform(SchemeConfig::full(k, None));
    let ps = std::slice::from_ref(p);
    let tags = candidates(ps, &base)
        .iter()
        .map(|c| format!("{}/{}", c.adjustment.tag(), c.trigger.tag()))
        .collect();
    (tags, !detect_convoys(ps).is_empty())
}

/// Asserts `p`'s tags at base `k`, and that the detector flags exactly
/// the profiles that get wake-policy candidates.
fn pin(what: &str, k: usize, p: SectionProfile, want: &[&str]) {
    let (tags, convoy) = run(k, &p);
    assert_eq!(tags, want, "{what}");
    assert_eq!(
        convoy,
        want.iter().any(|t| t.starts_with("wake:")),
        "{what}: the detector disagrees with the wake candidates"
    );
}

const COARSEN: &[&str] = &["coarsen/contention", "globalize/contention"];
const WAKE: &[&str] = &["wake:seh/convoy", "wake:rbatch/convoy"];

#[test]
fn the_adapt_rules_need_two_entries() {
    // Wait 10× hold: contended, but pressure 100 is no convoy.
    pin("1 entry", 3, prof(1, 100, 10, 0), &[]);
    pin("2 entries", 3, prof(2, 100, 10, 0), COARSEN);
    pin("3 entries", 3, prof(3, 100, 10, 0), COARSEN);
}

#[test]
fn contention_starts_at_wait_four_times_hold() {
    pin("wait/hold 3.9", 3, prof(2, 39, 10, 0), &[]);
    pin("wait/hold 4.0", 3, prof(2, 40, 10, 0), COARSEN);
    pin("wait/hold 4.1", 3, prof(2, 41, 10, 0), COARSEN);
}

#[test]
fn drift_starts_at_half_a_revalidation_per_entry() {
    // Wait half the hold: neither contended nor uncontended.
    pin("mean 0.49", 3, prof(100, 50, 100, 49), &[]);
    pin("mean 0.50", 3, prof(100, 50, 100, 50), &["coarsen/drift"]);
    pin("mean 0.51", 3, prof(100, 50, 100, 51), &["coarsen/drift"]);
}

#[test]
fn no_contention_ends_at_wait_one_twentieth_of_hold() {
    let raise = &["raise-k:6/no-contention"];
    pin("wait/hold 0.04", 3, prof(2, 4, 100, 0), raise);
    pin("wait/hold 0.05", 3, prof(2, 5, 100, 0), raise);
    pin("wait/hold 0.06", 3, prof(2, 6, 100, 0), &[]);
}

#[test]
fn k_rises_three_at_a_time() {
    pin("k 0", 0, prof(2, 0, 100, 0), &["raise-k:3/no-contention"]);
    pin("k 3", 3, prof(2, 0, 100, 0), &["raise-k:6/no-contention"]);
    pin("k 5", 5, prof(2, 0, 100, 0), &["raise-k:8/no-contention"]);
}

#[test]
fn k_rises_to_at_most_nine() {
    pin("k 6", 6, prof(2, 0, 100, 0), &["raise-k:9/no-contention"]);
    pin("k 7", 7, prof(2, 0, 100, 0), &["raise-k:9/no-contention"]);
    pin("k 8", 8, prof(2, 0, 100, 0), &["raise-k:9/no-contention"]);
    pin("k 9", 9, prof(2, 0, 100, 0), &[]);
    pin("k 10", 10, prof(2, 0, 100, 0), &[]);
}

#[test]
fn the_convoy_detector_needs_two_entries() {
    // Depth 2, pressure 600, wait/hold 2: a convoy and nothing else.
    pin("1 entry", 3, prof(1, 600, 300, 0), &[]);
    pin("2 entries", 3, prof(2, 600, 300, 0), WAKE);
    pin("3 entries", 3, prof(3, 600, 300, 0), WAKE);
}

#[test]
fn a_convoy_starts_at_depth_one_and_a_half() {
    // Pressure 299–301, over its threshold throughout.
    pin("depth 1.495", 3, prof(2, 299, 200, 0), &[]);
    pin("depth 1.5", 3, prof(2, 300, 200, 0), WAKE);
    pin("depth 1.505", 3, prof(2, 301, 200, 0), WAKE);
}

#[test]
fn a_convoy_starts_at_pressure_two_hundred() {
    // Depth 1.99–2.01, over its threshold throughout.
    pin("pressure 199", 3, prof(2, 199, 100, 0), &[]);
    pin("pressure 200", 3, prof(2, 200, 100, 0), WAKE);
    pin("pressure 201", 3, prof(2, 201, 100, 0), WAKE);
}

#[test]
fn a_contended_convoy_gets_both_kinds_of_candidate() {
    // Wait 10× hold on an expensive lock: granularity first, then wake.
    let both: Vec<&str> = COARSEN.iter().chain(WAKE).copied().collect();
    pin("wait 1000 hold 100", 3, prof(2, 1000, 100, 0), &both);
}
