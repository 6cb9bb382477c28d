//! A blocking lock node supporting the five access modes.
//!
//! Each node counts how many threads hold it in each mode; a request is
//! granted when [`Mode::compatible`] — the one transcription of
//! Fig. 6(b) — admits it beside everything currently granted.
//! Shared-flavoured requests (`S`/`IS`) additionally yield to queued
//! exclusive requests (writer preference), which prevents writer
//! starvation under read-heavy load. Yielding more conservatively than
//! the matrix can never introduce deadlock here: the acquisition
//! protocol orders all nodes globally and acquires them two-phase, so
//! waits never form a cycle.

use crate::modes::{Mode, ALL_MODES};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::time::Instant;

#[derive(Default)]
struct State {
    /// Granted counts, indexed by `Mode as usize`.
    granted: [u32; 5],
    /// Number of threads blocked on an `X`/`SIX` request.
    waiting_excl: u32,
    /// Number of threads blocked on this node in any mode. Read and
    /// written only under the node's mutex — the one that guards the
    /// grant predicate — so a releaser that reads zero knows nobody can
    /// be between "saw the old state" and "asleep on the condvar".
    waiting: u32,
}

impl State {
    fn admits(&self, mode: Mode) -> bool {
        // Writer preference: purely shared requests queue behind
        // blocked exclusive requests. (A queued exclusive request is
        // never one of these, so it cannot defer to itself.)
        let defer = matches!(mode, Mode::Is | Mode::S) && self.waiting_excl > 0;
        !defer
            && ALL_MODES
                .into_iter()
                .all(|held| self.granted[held as usize] == 0 || held.compatible(mode))
    }
}

/// A multi-mode lock node.
#[derive(Default)]
pub struct ModeLock {
    state: Mutex<State>,
    cond: Condvar,
}

impl ModeLock {
    /// Creates an idle node.
    pub fn new() -> Self {
        Self::default()
    }

    /// Blocks until `mode` can be granted, then records the grant.
    pub fn acquire(&self, mode: Mode) {
        let granted = self.acquire_until(mode, None);
        debug_assert!(granted, "a wait without a deadline only ends in a grant");
    }

    /// The one wait loop: blocks until `mode` is granted (true) or
    /// `deadline`, if any, passes (false). Used with a deadline by the
    /// runtime's degradation ladder, to turn indefinite blocking into a
    /// typed error.
    pub fn acquire_until(&self, mode: Mode, deadline: Option<Instant>) -> bool {
        let mut st = self.state.lock();
        let mut granted = st.admits(mode);
        if !granted {
            let excl = matches!(mode, Mode::X | Mode::Six);
            st.waiting += 1;
            if excl {
                st.waiting_excl += 1;
            }
            granted = loop {
                match deadline {
                    None => self.cond.wait(&mut st),
                    Some(d) => {
                        let now = Instant::now();
                        if now >= d {
                            break false;
                        }
                        self.cond.wait_for(&mut st, d - now);
                    }
                }
                if st.admits(mode) {
                    break true;
                }
            };
            st.waiting -= 1;
            if excl {
                st.waiting_excl -= 1;
            }
        }
        if granted {
            st.granted[mode as usize] += 1;
        } else {
            // Our queued-writer marker may have deferred readers; let
            // them re-evaluate now that we are gone.
            self.wake(st);
        }
        granted
    }

    /// Ends a critical section that may have made a blocked request
    /// grantable. The wake-up (a futex call even on an empty queue) is
    /// skipped when nobody is blocked: a waiter raises `waiting` under
    /// this mutex before it sleeps and `wait` gives the mutex up only
    /// once it is queued, so a zero read here cannot miss one.
    fn wake(&self, st: MutexGuard<'_, State>) {
        let waiting = st.waiting;
        drop(st);
        if waiting > 0 {
            self.cond.notify_all();
        }
    }

    /// Attempts a non-blocking grant.
    pub fn try_acquire(&self, mode: Mode) -> bool {
        let mut st = self.state.lock();
        if st.admits(mode) {
            st.granted[mode as usize] += 1;
            true
        } else {
            false
        }
    }

    /// Releases one grant of `mode`.
    ///
    /// # Panics
    ///
    /// Panics if the node was not held in `mode`.
    pub fn release(&self, mode: Mode) {
        let mut st = self.state.lock();
        assert!(
            st.granted[mode as usize] > 0,
            "release of unheld mode {mode}"
        );
        st.granted[mode as usize] -= 1;
        self.wake(st);
    }

    /// Snapshot of granted counts (diagnostics/tests).
    pub fn granted(&self) -> [u32; 5] {
        self.state.lock().granted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modes::ALL_MODES;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn grants_follow_the_matrix() {
        for a in ALL_MODES {
            for b in ALL_MODES {
                let l = ModeLock::new();
                l.acquire(a);
                assert_eq!(l.try_acquire(b), a.compatible(b), "{a} then {b}");
            }
        }
    }

    #[test]
    fn release_reopens() {
        let l = ModeLock::new();
        l.acquire(Mode::X);
        assert!(!l.try_acquire(Mode::Is));
        l.release(Mode::X);
        assert!(l.try_acquire(Mode::Is));
    }

    #[test]
    fn blocked_writer_eventually_proceeds() {
        let l = Arc::new(ModeLock::new());
        l.acquire(Mode::S);
        let l2 = Arc::clone(&l);
        let done = Arc::new(AtomicU32::new(0));
        let done2 = Arc::clone(&done);
        let h = std::thread::spawn(move || {
            l2.acquire(Mode::X);
            done2.store(1, Ordering::SeqCst);
            l2.release(Mode::X);
        });
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(done.load(Ordering::SeqCst), 0, "writer blocked by reader");
        l.release(Mode::S);
        h.join().unwrap();
        assert_eq!(done.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn writer_preference_defers_new_readers() {
        let l = Arc::new(ModeLock::new());
        l.acquire(Mode::S);
        // Queue a writer.
        let lw = Arc::clone(&l);
        let wh = std::thread::spawn(move || {
            lw.acquire(Mode::X);
            lw.release(Mode::X);
        });
        // Give the writer time to block.
        std::thread::sleep(Duration::from_millis(30));
        // A new reader should now be deferred even though S∥S.
        assert!(!l.try_acquire(Mode::S), "reader defers to queued writer");
        l.release(Mode::S);
        wh.join().unwrap();
        // After the writer finished, readers are admitted again.
        assert!(l.try_acquire(Mode::S));
    }

    /// The one wake-up that is not a release: a queued writer that
    /// gives up takes its marker with it, and the readers the marker
    /// deferred must be told — nothing else will ever wake them.
    #[test]
    fn timed_out_writer_wakes_the_readers_it_deferred() {
        let l = Arc::new(ModeLock::new());
        l.acquire(Mode::S);
        let until = |what: &str, pred: &dyn Fn(&State) -> bool| {
            let give_up = Instant::now() + Duration::from_secs(10);
            while !pred(&l.state.lock()) {
                assert!(Instant::now() < give_up, "never saw {what}");
                std::thread::yield_now();
            }
        };
        let deadline = Instant::now() + Duration::from_millis(400);
        let writer = {
            let l = Arc::clone(&l);
            std::thread::spawn(move || l.acquire_until(Mode::X, Some(deadline)))
        };
        until("the writer queue", &|st| st.waiting_excl == 1);
        let (tx, rx) = std::sync::mpsc::channel();
        let reader = {
            let l = Arc::clone(&l);
            std::thread::spawn(move || {
                l.acquire(Mode::S);
                let _ = tx.send(Instant::now());
            })
        };
        // S∥S, so only the writer's marker can have parked the reader.
        until("the reader park behind the writer", &|st| st.waiting == 2);
        assert!(
            !writer.join().unwrap(),
            "nobody released: the writer times out"
        );
        let granted_at = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the deferred reader was never woken");
        assert!(granted_at >= deadline, "the reader waited out the writer");
        reader.join().unwrap();
        assert_eq!(l.granted()[Mode::S as usize], 2);
    }

    #[test]
    fn intention_modes_share() {
        let l = ModeLock::new();
        l.acquire(Mode::Ix);
        assert!(l.try_acquire(Mode::Ix));
        assert!(l.try_acquire(Mode::Is));
        assert!(!l.try_acquire(Mode::S), "S vs IX conflicts");
        assert_eq!(l.granted()[Mode::Ix as usize], 2);
    }

    #[test]
    #[should_panic(expected = "release of unheld mode")]
    fn release_unheld_panics() {
        ModeLock::new().release(Mode::S);
    }
}
