//! `ModeLock` wake-ups under real contention. A releaser skips the
//! condvar when the node's waiter count reads zero; if that skip could
//! ever miss a sleeper, some thread here would park forever. Eight OS
//! threads run blocking `acquire_all` / `release_all` batches over two
//! cells and their partition — fine and coarse, shared and exclusive,
//! so every node sees readers, writers, intention holders and
//! writer-preference deferrals — and the locks must still exclude:
//! each cell carries a counter bumped by a load–spin–store that only
//! an exclusive grant makes safe.
//!
//! Run unpinned, in `--release`, on ≥ 2 cores (CI's `chaos` job does,
//! with `--test-threads=1`). The run sits under a watchdog — a lost
//! wake-up fails, never hangs.

use mglock::{Access, Descriptor, FineAddr, Runtime, Session};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;

const THREADS: u64 = 8;
const ROUNDS: usize = 2000;
const WATCHDOG: Duration = Duration::from_secs(30);
const PTS: u32 = 0;
const CELLS: [u64; 2] = [3, 7];

/// What one batch asks for, and so what it may do to each cell.
fn batch(r: u64) -> (Vec<Descriptor>, [Option<Access>; 2]) {
    let pick = |bits: u64| match bits % 3 {
        0 => None,
        1 => Some(Access::Read),
        _ => Some(Access::Write),
    };
    match r % 8 {
        0 => (
            vec![Descriptor::Coarse {
                pts: PTS,
                access: Access::Write,
            }],
            [Some(Access::Write); 2],
        ),
        1 => (
            vec![Descriptor::Coarse {
                pts: PTS,
                access: Access::Read,
            }],
            [Some(Access::Read); 2],
        ),
        _ => {
            let caps = [pick(r >> 8).or(Some(Access::Read)), pick(r >> 16)];
            let descriptors = CELLS
                .iter()
                .zip(caps)
                .filter_map(|(&cell, cap)| {
                    cap.map(|access| Descriptor::Fine {
                        pts: PTS,
                        addr: FineAddr::Cell(cell),
                        access,
                    })
                })
                .collect();
            (descriptors, caps)
        }
    }
}

/// One thread's rounds; returns how often it bumped each counter.
fn worker(rt: &Arc<Runtime>, counters: &[AtomicU64; 2], tid: u64) -> [u64; 2] {
    let mut session = Session::new(Arc::clone(rt));
    let mut rng = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(tid + 1);
    let mut bumped = [0u64; 2];
    for _ in 0..ROUNDS {
        rng = rng
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let (descriptors, caps) = batch(rng >> 24);
        for d in descriptors {
            session.to_acquire(d);
        }
        session.acquire_all();
        for (c, cap) in caps.into_iter().enumerate() {
            let Some(access) = cap else { continue };
            let seen = counters[c].load(Ordering::Relaxed);
            std::hint::spin_loop();
            match access {
                // Not an atomic update: a second writer, or a writer
                // beside this reader, shows as a lost or moved count.
                Access::Write => {
                    counters[c].store(seen + 1, Ordering::Relaxed);
                    bumped[c] += 1;
                }
                Access::Read => assert_eq!(
                    counters[c].load(Ordering::Relaxed),
                    seen,
                    "cell {c} written under a shared grant"
                ),
            }
        }
        session.release_all();
    }
    bumped
}

#[test]
fn blocking_batches_always_wake_and_always_exclude() {
    let (tx, rx) = mpsc::channel();
    let run = std::thread::spawn(move || {
        let rt = Arc::new(Runtime::new());
        let counters = [AtomicU64::new(0), AtomicU64::new(0)];
        let start = Barrier::new(THREADS as usize);
        let bumped: Vec<[u64; 2]> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|tid| {
                    let (rt, counters, start) = (&rt, &counters, &start);
                    scope.spawn(move || {
                        start.wait();
                        worker(rt, counters, tid)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let _ = tx.send((counters.map(AtomicU64::into_inner), bumped, rt.quiescent()));
    });
    let (counters, bumped, quiescent) = match rx.recv_timeout(WATCHDOG) {
        Ok(outcome) => outcome,
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("still running after {WATCHDOG:?} — a lost wake-up")
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(run.join().expect_err("sender dropped by a panic"))
        }
    };
    for c in 0..CELLS.len() {
        let expected: u64 = bumped.iter().map(|b| b[c]).sum();
        assert!(expected > 0, "cell {c}: the fixture never wrote");
        assert_eq!(counters[c], expected, "cell {c}: an update was lost");
    }
    assert!(quiescent, "a grant outlived its batch");
}
