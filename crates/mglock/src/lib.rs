//! # mglock — a multi-granularity locking runtime
//!
//! The runtime library of *Inferring Locks for Atomic Sections*
//! (PLDI 2008), §5: hierarchical locks with intention modes after Gray
//! et al., a deadlock-free top-down acquisition protocol, and the
//! three-call API the transformed programs use: *to-acquire*,
//! *acquire-all*, *release-all*, plus the `nlevel` nesting support of
//! §5.3.
//!
//! Each piece of §5 is stated once, here: Fig. 6(b) is
//! [`Mode::compatible`], acquire-all is one resumable walk in
//! [`Session`] behind its three entry points, and the mode / node-class
//! spellings that traces and metrics carry are [`Mode`]'s
//! `Display`/`FromStr` and [`NodeKey::class`].
//!
//! ```
//! use mglock::{Access, Descriptor, FineAddr, Runtime, Session};
//! use std::sync::Arc;
//!
//! let rt = Arc::new(Runtime::new());
//! let mut session = Session::new(Arc::clone(&rt));
//!
//! // A transformed atomic section:
//! session.to_acquire(Descriptor::Fine {
//!     pts: 3,
//!     addr: FineAddr::Cell(0x40),
//!     access: Access::Write,
//! });
//! session.to_acquire(Descriptor::Coarse { pts: 7, access: Access::Read });
//! session.acquire_all();
//! // … body of the atomic section …
//! session.release_all();
//! ```

pub mod error;
pub mod modelock;
pub mod modes;
pub mod runtime;

pub use error::MgLockError;
pub use modelock::ModeLock;
pub use modes::Mode;
pub use runtime::{
    Access, Descriptor, FineAddr, LockObserver, NodeKey, Runtime, RuntimeConfig, Session, Stats,
    StepResult,
};

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    fn fine(pts: u32, cell: u64, access: Access) -> Descriptor {
        Descriptor::Fine {
            pts,
            addr: FineAddr::Cell(cell),
            access,
        }
    }

    #[test]
    fn fine_locks_in_different_partitions_run_concurrently() {
        let rt = Arc::new(Runtime::new());
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let mut handles = Vec::new();
        for pts in 0..2u32 {
            let rt = Arc::clone(&rt);
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                let mut s = Session::new(rt);
                s.to_acquire(fine(pts, 100 + pts as u64, Access::Write));
                s.acquire_all();
                // Both threads must be inside simultaneously or this
                // barrier blocks the test forever.
                barrier.wait();
                s.release_all();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn same_cell_write_locks_exclude() {
        let rt = Arc::new(Runtime::new());
        let counter = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let rt = Arc::clone(&rt);
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                for _ in 0..200 {
                    let mut s = Session::new(Arc::clone(&rt));
                    s.to_acquire(fine(0, 42, Access::Write));
                    s.acquire_all();
                    // Non-atomic read-modify-write protected by the lock.
                    let v = counter.load(Ordering::Relaxed);
                    std::hint::spin_loop();
                    counter.store(v + 1, Ordering::Relaxed);
                    s.release_all();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 8 * 200);
    }

    #[test]
    fn coarse_lock_excludes_fine_writers_in_its_partition() {
        let rt = Arc::new(Runtime::new());
        let mut holder = Session::new(Arc::clone(&rt));
        holder.to_acquire(Descriptor::Coarse {
            pts: 5,
            access: Access::Write,
        });
        holder.acquire_all();

        let rt2 = Arc::clone(&rt);
        let entered = Arc::new(AtomicU64::new(0));
        let entered2 = Arc::clone(&entered);
        let h = std::thread::spawn(move || {
            let mut s = Session::new(rt2);
            s.to_acquire(fine(5, 9, Access::Write));
            s.acquire_all();
            entered2.store(1, Ordering::SeqCst);
            s.release_all();
        });
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(
            entered.load(Ordering::SeqCst),
            0,
            "fine writer blocked by coarse X"
        );
        holder.release_all();
        h.join().unwrap();
        assert_eq!(entered.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn coarse_readers_share() {
        let rt = Arc::new(Runtime::new());
        let barrier = Arc::new(std::sync::Barrier::new(4));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let rt = Arc::clone(&rt);
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                let mut s = Session::new(rt);
                s.to_acquire(Descriptor::Coarse {
                    pts: 1,
                    access: Access::Read,
                });
                s.acquire_all();
                barrier.wait();
                s.release_all();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn global_lock_excludes_everything() {
        let rt = Arc::new(Runtime::new());
        let mut g = Session::new(Arc::clone(&rt));
        g.to_acquire(Descriptor::Global {
            access: Access::Write,
        });
        g.acquire_all();

        let rt2 = Arc::clone(&rt);
        let entered = Arc::new(AtomicU64::new(0));
        let entered2 = Arc::clone(&entered);
        let h = std::thread::spawn(move || {
            let mut s = Session::new(rt2);
            s.to_acquire(fine(9, 1, Access::Read));
            s.acquire_all();
            entered2.store(1, Ordering::SeqCst);
            s.release_all();
        });
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(entered.load(Ordering::SeqCst), 0);
        g.release_all();
        h.join().unwrap();
    }

    #[test]
    fn deadlock_freedom_under_symmetric_contention() {
        // The Figure 1(b) scenario: move(l1,l2) ∥ move(l2,l1). With the
        // protocol both threads acquire {cell a, cell b} in the same
        // order, so this completes.
        let rt = Arc::new(Runtime::new());
        let mut handles = Vec::new();
        for flip in [false, true] {
            let rt = Arc::clone(&rt);
            handles.push(std::thread::spawn(move || {
                for _ in 0..500 {
                    let mut s = Session::new(Arc::clone(&rt));
                    let (a, b) = if flip { (7, 3) } else { (3, 7) };
                    s.to_acquire(fine(0, a, Access::Write));
                    s.to_acquire(fine(0, b, Access::Write));
                    s.acquire_all();
                    s.release_all();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn nested_sections_are_no_ops() {
        let rt = Arc::new(Runtime::new());
        let mut s = Session::new(rt);
        s.to_acquire(fine(0, 1, Access::Write));
        s.acquire_all();
        let held = s.held_count();
        // Inner section: queues nothing, acquires nothing.
        s.to_acquire(fine(0, 2, Access::Write));
        s.acquire_all();
        assert_eq!(s.held_count(), held);
        assert_eq!(s.nesting_level(), 2);
        s.release_all();
        assert_eq!(s.held_count(), held, "inner release keeps the locks");
        s.release_all();
        assert_eq!(s.held_count(), 0);
        assert_eq!(s.nesting_level(), 0);
    }

    #[test]
    fn range_and_cell_locks_are_distinct_nodes() {
        let rt = Arc::new(Runtime::new());
        let mut a = Session::new(Arc::clone(&rt));
        a.to_acquire(Descriptor::Fine {
            pts: 0,
            addr: FineAddr::Range(64),
            access: Access::Write,
        });
        a.acquire_all();
        // A cell lock at the same numeric address is a different node;
        // at this layer it does not conflict (the *compiler* guarantees
        // a given allocation is locked consistently via one shape).
        let mut b = Session::new(Arc::clone(&rt));
        b.to_acquire(fine(0, 64, Access::Write));
        b.acquire_all();
        b.release_all();
        a.release_all();
    }

    #[test]
    fn read_and_write_same_cell_conflict() {
        let rt = Arc::new(Runtime::new());
        let mut w = Session::new(Arc::clone(&rt));
        w.to_acquire(fine(2, 5, Access::Write));
        w.acquire_all();
        let rt2 = Arc::clone(&rt);
        let done = Arc::new(AtomicU64::new(0));
        let done2 = Arc::clone(&done);
        let h = std::thread::spawn(move || {
            let mut r = Session::new(rt2);
            r.to_acquire(fine(2, 5, Access::Read));
            r.acquire_all();
            done2.store(1, Ordering::SeqCst);
            r.release_all();
        });
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(done.load(Ordering::SeqCst), 0);
        w.release_all();
        h.join().unwrap();
    }

    #[test]
    fn stepwise_acquisition_blocks_and_resumes() {
        use runtime::StepResult;
        let rt = Arc::new(Runtime::new());
        let mut holder = Session::new(Arc::clone(&rt));
        holder.to_acquire(fine(1, 5, Access::Write));
        holder.acquire_all();

        let mut stepper = Session::new(Arc::clone(&rt));
        stepper.to_acquire(fine(0, 9, Access::Write)); // free
        stepper.to_acquire(fine(1, 5, Access::Write)); // held by holder
                                                       // Progresses up to the contended node, then parks.
        assert_eq!(stepper.acquire_all_step(), StepResult::WouldBlock);
        let partial = stepper.held_count();
        assert!(partial >= 1, "earlier nodes stay held");
        assert_eq!(
            stepper.acquire_all_step(),
            StepResult::WouldBlock,
            "still blocked"
        );
        holder.release_all();
        assert_eq!(stepper.acquire_all_step(), StepResult::Done);
        assert_eq!(stepper.nesting_level(), 1);
        stepper.release_all();
        assert_eq!(stepper.held_count(), 0);
    }

    #[test]
    fn stepwise_nested_sections_are_no_ops() {
        use runtime::StepResult;
        let rt = Arc::new(Runtime::new());
        let mut s = Session::new(rt);
        s.to_acquire(fine(0, 1, Access::Write));
        assert_eq!(s.acquire_all_step(), StepResult::Done);
        let held = s.held_count();
        s.to_acquire(fine(0, 2, Access::Write)); // ignored: nested
        assert_eq!(s.acquire_all_step(), StepResult::Done);
        assert_eq!(s.held_count(), held);
        assert_eq!(s.nesting_level(), 2);
        s.release_all();
        s.release_all();
        assert_eq!(s.held_count(), 0);
    }

    #[test]
    fn stepwise_empty_plan_completes() {
        use runtime::StepResult;
        let rt = Arc::new(Runtime::new());
        let mut s = Session::new(rt);
        assert_eq!(s.acquire_all_step(), StepResult::Done);
        assert_eq!(s.nesting_level(), 1);
        s.release_all();
    }

    #[test]
    fn duplicate_descriptors_combine_modes() {
        // ro + rw on the same cell must yield one X grant, not two
        // separate grants.
        let rt = Arc::new(Runtime::new());
        let mut s = Session::new(Arc::clone(&rt));
        s.to_acquire(fine(0, 7, Access::Read));
        s.to_acquire(fine(0, 7, Access::Write));
        s.acquire_all();
        // Another reader must be blocked (X, not S+S).
        let mut r = Session::new(Arc::clone(&rt));
        r.to_acquire(fine(0, 7, Access::Read));
        assert_eq!(r.acquire_all_step(), runtime::StepResult::WouldBlock);
        s.release_all();
        assert_eq!(r.acquire_all_step(), runtime::StepResult::Done);
        r.release_all();
    }

    #[test]
    fn checked_acquisition_times_out_and_releases_partial() {
        let rt = Arc::new(Runtime::with_config(RuntimeConfig {
            acquire_timeout: Some(Duration::from_millis(40)),
            detect_deadlocks: false,
        }));
        let mut holder = Session::new(Arc::clone(&rt));
        holder.to_acquire(fine(1, 5, Access::Write));
        holder.acquire_all();

        let mut s = Session::new(Arc::clone(&rt));
        s.to_acquire(fine(0, 9, Access::Write)); // free — acquired first
        s.to_acquire(fine(1, 5, Access::Write)); // held — will time out
        assert_eq!(s.acquire_all_checked(), Err(MgLockError::AcquireTimeout));
        assert_eq!(s.held_count(), 0, "partial batch released on error");
        assert_eq!(s.nesting_level(), 0);
        assert_eq!(rt.stats().timeouts.load(Ordering::Relaxed), 1);
        holder.release_all();
        // The session is reusable after the error.
        s.to_acquire(fine(1, 5, Access::Write));
        assert_eq!(s.acquire_all_checked(), Ok(()));
        s.release_all();
    }

    #[test]
    fn checked_acquisition_detects_cross_thread_deadlock() {
        // Protocol misuse: each thread interleaves two sessions, holding
        // one batch while acquiring another — the two-phase discipline
        // the global order depends on is broken, and a genuine wait-for
        // cycle forms. With detection enabled at least one thread must
        // get a typed error instead of hanging.
        let rt = Arc::new(Runtime::with_config(RuntimeConfig {
            acquire_timeout: None,
            detect_deadlocks: true,
        }));
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let mut handles = Vec::new();
        for (own, other) in [(1u64, 2u64), (2, 1)] {
            let rt = Arc::clone(&rt);
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                let mut first = Session::new(Arc::clone(&rt));
                first.to_acquire(fine(0, own, Access::Write));
                first.acquire_all_checked().unwrap();
                barrier.wait();
                let mut second = Session::new(Arc::clone(&rt));
                second.to_acquire(fine(0, other, Access::Write));
                let r = second.acquire_all_checked();
                if r.is_ok() {
                    second.release_all();
                }
                first.release_all();
                r
            }));
        }
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let cycles = results
            .iter()
            .filter(|r| matches!(r, Err(MgLockError::DeadlockDetected { .. })))
            .count();
        assert!(cycles >= 1, "the cycle must be reported, got {results:?}");
        assert!(rt.stats().deadlocks_detected.load(Ordering::Relaxed) >= 1);
        assert!(rt.quiescent(), "all grants released after recovery");
    }

    #[test]
    fn checked_acquisition_with_detection_passes_clean_workloads() {
        // Figure 1(b) symmetric contention again, now through the
        // checked path with detection on: conforming use must never be
        // reported as a deadlock.
        let rt = Arc::new(Runtime::with_config(RuntimeConfig {
            acquire_timeout: None,
            detect_deadlocks: true,
        }));
        let mut handles = Vec::new();
        for flip in [false, true] {
            let rt = Arc::clone(&rt);
            handles.push(std::thread::spawn(move || {
                for _ in 0..200 {
                    let mut s = Session::new(Arc::clone(&rt));
                    let (a, b) = if flip { (7, 3) } else { (3, 7) };
                    s.to_acquire(fine(0, a, Access::Write));
                    s.to_acquire(fine(0, b, Access::Write));
                    s.acquire_all_checked().expect("no false deadlock");
                    s.release_all();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(rt.stats().deadlocks_detected.load(Ordering::Relaxed), 0);
        assert!(rt.quiescent());
    }

    #[test]
    fn panicking_holder_poisons_but_releases() {
        let rt = Arc::new(Runtime::new());
        let rt2 = Arc::clone(&rt);
        let _ = std::thread::spawn(move || {
            let mut s = Session::new(rt2);
            s.to_acquire(fine(0, 11, Access::Write));
            s.acquire_all();
            panic!("worker dies inside the section");
        })
        .join();
        assert_eq!(rt.stats().poisoned_sessions.load(Ordering::Relaxed), 1);
        assert!(
            rt.stats().unwind_releases.load(Ordering::Relaxed) >= 2,
            "root + fine released"
        );
        assert!(rt.quiescent(), "the unwound locks are free again");
        // And another thread can take the same locks.
        let mut s = Session::new(rt);
        s.to_acquire(fine(0, 11, Access::Write));
        s.acquire_all();
        s.release_all();
    }

    /// Records the grant lifecycle as the runtime reports it: `true`
    /// for a grant, `false` for a release.
    #[derive(Default)]
    struct Log(std::sync::Mutex<Vec<(bool, NodeKey, Mode)>>);

    impl Log {
        fn take(&self) -> Vec<(bool, NodeKey, Mode)> {
            std::mem::take(&mut self.0.lock().unwrap())
        }
    }

    impl LockObserver for Log {
        fn lock_acquired(&self, node: NodeKey, mode: Mode) {
            self.0.lock().unwrap().push((true, node, mode));
        }
        fn lock_released(&self, node: NodeKey, mode: Mode) {
            self.0.lock().unwrap().push((false, node, mode));
        }
    }

    fn descriptor() -> impl Strategy<Value = Descriptor> {
        (0u32..3, 0u64..3, any::<bool>(), 0u8..4).prop_map(|(pts, at, write, kind)| {
            let access = if write { Access::Write } else { Access::Read };
            let fine = |addr| Descriptor::Fine { pts, addr, access };
            match kind {
                0 => Descriptor::Global { access },
                1 => Descriptor::Coarse { pts, access },
                2 => fine(FineAddr::Cell(at)),
                _ => fine(FineAddr::Range(at)),
            }
        })
    }

    /// The plan by definition: every node a descriptor names, with its
    /// ancestors, in the join of every mode the batch wants it in, in
    /// `NodeKey` order.
    fn reference_plan(pending: &[Descriptor]) -> Vec<(NodeKey, Mode)> {
        let mut modes: BTreeMap<NodeKey, Mode> = BTreeMap::new();
        let mut want = |k: NodeKey, m: Mode| {
            modes
                .entry(k)
                .and_modify(|cur| *cur = cur.combine(m))
                .or_insert(m);
        };
        let own_mode = |access| match access {
            Access::Read => Mode::S,
            Access::Write => Mode::X,
        };
        for &d in pending {
            match d {
                Descriptor::Global { access } => want(NodeKey::Root, own_mode(access)),
                Descriptor::Coarse { pts, access } => {
                    let own = own_mode(access);
                    want(NodeKey::Pts(pts), own);
                    want(NodeKey::Root, own.ancestor_intention());
                }
                Descriptor::Fine { pts, addr, access } => {
                    let own = own_mode(access);
                    want(NodeKey::Fine(pts, addr), own);
                    want(NodeKey::Pts(pts), own.ancestor_intention());
                    want(NodeKey::Root, own.ancestor_intention());
                }
            }
        }
        modes.into_iter().collect()
    }

    proptest! {
        /// What a batch is granted is the reference plan, duplicates
        /// and all: the sort-and-join over the session's buffer agrees
        /// with the per-node map it replaced.
        #[test]
        fn the_walk_takes_the_reference_plan(
            pending in proptest::collection::vec(descriptor(), 0..12),
        ) {
            let mut s = Session::new(Arc::new(Runtime::new()));
            for &d in &pending {
                s.to_acquire(d);
            }
            prop_assert_eq!(s.acquire_all_step(), StepResult::Done);
            prop_assert_eq!(s.held_modes().collect::<Vec<_>>(), reference_plan(&pending));
            s.release_all();
            // The buffer is reused: a second batch plans from empty.
            s.to_acquire(Descriptor::Global { access: Access::Read });
            prop_assert_eq!(s.acquire_all_step(), StepResult::Done);
            prop_assert_eq!(s.held_modes().collect::<Vec<_>>(), vec![(NodeKey::Root, Mode::S)]);
            s.release_all();
        }

        /// Blocking, checked (under a live policy) and step-wise
        /// acquisition are one walk: uncontended, they grant the same
        /// nodes in the same modes in the same order, account for them
        /// identically, and release in exact reverse.
        #[test]
        fn the_three_entry_points_walk_one_plan(
            plan in proptest::collection::vec(descriptor(), 0..7),
        ) {
            let policy = RuntimeConfig {
                acquire_timeout: Some(Duration::from_secs(5)),
                detect_deadlocks: true,
            };
            let mut walks = Vec::new();
            for entry in ["blocking", "checked", "stepwise"] {
                let rt = Arc::new(match entry {
                    "checked" => Runtime::with_config(policy),
                    _ => Runtime::new(),
                });
                let log = Arc::new(Log::default());
                let mut s = Session::new(Arc::clone(&rt));
                s.set_observer(Some(Arc::clone(&log) as Arc<dyn LockObserver>));
                for &d in &plan {
                    s.to_acquire(d);
                }
                match entry {
                    "blocking" => s.acquire_all(),
                    "checked" => s.acquire_all_checked().expect("uncontended"),
                    _ => prop_assert_eq!(s.acquire_all_step(), StepResult::Done),
                }
                let held: Vec<(NodeKey, Mode)> = s.held_modes().collect();
                let grants = log.take();
                prop_assert_eq!(
                    &grants,
                    &held.iter().map(|&(k, m)| (true, k, m)).collect::<Vec<_>>(),
                    "{}: grants are reported in held order", entry
                );
                prop_assert!(held.windows(2).all(|w| w[0].0 < w[1].0), "{}: top-down", entry);
                prop_assert_eq!(s.nesting_level(), 1);
                prop_assert_eq!(rt.stats().batches.load(Ordering::Relaxed), 1);
                prop_assert_eq!(
                    rt.stats().node_acquisitions.load(Ordering::Relaxed),
                    held.len() as u64
                );
                s.release_all();
                prop_assert_eq!(
                    log.take(),
                    held.iter().rev().map(|&(k, m)| (false, k, m)).collect::<Vec<_>>(),
                    "{}: released in exact reverse", entry
                );
                prop_assert!(rt.quiescent() && s.held_count() == 0);
                walks.push(held);
            }
            prop_assert_eq!(&walks[0], &walks[1], "blocking vs checked");
            prop_assert_eq!(&walks[0], &walks[2], "blocking vs stepwise");
        }
    }

    #[test]
    fn stats_count_batches() {
        let rt = Arc::new(Runtime::new());
        let mut s = Session::new(Arc::clone(&rt));
        s.to_acquire(fine(0, 1, Access::Read));
        s.acquire_all();
        s.release_all();
        assert_eq!(rt.stats().batches.load(Ordering::Relaxed), 1);
        assert!(rt.stats().node_acquisitions.load(Ordering::Relaxed) >= 3);
    }
}
