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
//!
//! The counts live in one word, so a grant nobody contends is one
//! compare-and-swap and its release another:
//!
//! ```text
//! bit  0..12  IS count    bit 36..48  SIX count
//! bit 12..24  IX count    bit 48..60  X count
//! bit 24..36  S count     bit 60      somebody is blocked here
//!                         bit 61      an X / SIX request is blocked here
//! ```
//!
//! Blocked requests queue on a mutex and condvar beside the word; only
//! a thread that has to wait, and a release that finds the "blocked"
//! bit set, touch them.

use crate::modes::{Mode, ALL_MODES};
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicU64, Ordering};

/// Width of one mode's grant count.
const COUNT_BITS: u32 = 12;
/// A full count: a further grant in that mode waits for a release.
const COUNT_MAX: u64 = (1 << COUNT_BITS) - 1;
/// Somebody is blocked on this node (mirrors `Queue::waiting > 0`).
const WAITING: u64 = 1 << 60;
/// An `X` / `SIX` request is blocked here (mirrors
/// `Queue::waiting_excl > 0`): the writer-preference marker.
const EXCL_WAITING: u64 = 1 << 61;

/// One grant of `mode`, as an increment of the word.
const fn one(mode: Mode) -> u64 {
    1 << (COUNT_BITS * mode as u32)
}

fn count(word: u64, mode: Mode) -> u64 {
    (word >> (COUNT_BITS * mode as u32)) & COUNT_MAX
}

/// Per requested mode, the bits of the word that refuse it: the counts
/// of every mode Fig. 6(b) makes incompatible with it, and — for the
/// purely shared requests, which defer to blocked writers — the
/// writer-preference marker. (A queued exclusive request is never one
/// of those, so it cannot defer to itself.)
const REFUSED_BY: [u64; 5] = {
    let mut refused = [0; 5];
    let mut want = 0;
    while want < 5 {
        let mut held = 0;
        while held < 5 {
            if !ALL_MODES[held].compatible(ALL_MODES[want]) {
                refused[want] |= COUNT_MAX << (COUNT_BITS * held as u32);
            }
            held += 1;
        }
        if matches!(ALL_MODES[want], Mode::Is | Mode::S) {
            refused[want] |= EXCL_WAITING;
        }
        want += 1;
    }
    refused
};

fn admits(word: u64, mode: Mode) -> bool {
    word & REFUSED_BY[mode as usize] == 0 && count(word, mode) < COUNT_MAX
}

/// The threads blocked on a node. Read and written only under its
/// mutex, which is also the mutex a blocked thread sleeps on.
#[derive(Default)]
struct Queue {
    /// Threads blocked in any mode.
    waiting: u32,
    /// Threads blocked on an `X`/`SIX` request.
    waiting_excl: u32,
}

impl Queue {
    /// The word's waiter bits for this queue.
    fn bits(&self) -> u64 {
        (WAITING * (self.waiting > 0) as u64) | (EXCL_WAITING * (self.waiting_excl > 0) as u64)
    }
}

/// A multi-mode lock node.
#[derive(Default)]
pub struct ModeLock {
    /// Grant counts and waiter bits, laid out as the module docs show.
    word: AtomicU64,
    queue: Mutex<Queue>,
    cond: Condvar,
}

impl ModeLock {
    /// Creates an idle node.
    pub fn new() -> Self {
        Self::default()
    }

    /// The one wait loop: blocks until `mode` can be granted, then
    /// records the grant. Only [`ModeLock::release`] ends a wait.
    pub fn acquire(&self, mode: Mode) {
        if self.try_acquire(mode) {
            return;
        }
        let excl = matches!(mode, Mode::X | Mode::Six) as u32;
        let mut q = self.queue.lock();
        q.waiting += 1;
        q.waiting_excl += excl;
        loop {
            // Under the queue mutex, in one swap of the word: take the
            // grant and leave the queue, or publish the queue's bits so
            // a release knows to wake us.
            let mut cur = self.word.load(Ordering::Relaxed);
            loop {
                let granted = admits(cur, mode);
                let left = Queue {
                    waiting: q.waiting - granted as u32,
                    waiting_excl: q.waiting_excl - if granted { excl } else { 0 },
                };
                let mut new = (cur & !(WAITING | EXCL_WAITING)) | left.bits();
                if granted {
                    new += one(mode);
                } else if new == cur {
                    break;
                }
                match self
                    .word
                    .compare_exchange_weak(cur, new, Ordering::AcqRel, Ordering::Relaxed)
                {
                    Ok(_) if granted => {
                        *q = left;
                        return;
                    }
                    Ok(_) => break,
                    Err(seen) => cur = seen,
                }
            }
            self.cond.wait(&mut q);
        }
    }

    /// Attempts a non-blocking grant. A grant's swap is `Acquire` and a
    /// release's `Release`: what a holder wrote under the node happens
    /// before the next holder's grant.
    pub fn try_acquire(&self, mode: Mode) -> bool {
        let mut cur = self.word.load(Ordering::Relaxed);
        while admits(cur, mode) {
            match self.word.compare_exchange_weak(
                cur,
                cur + one(mode),
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(seen) => cur = seen,
            }
        }
        false
    }

    /// Releases one grant of `mode` — the one place that can make a
    /// blocked request grantable. The wake-up (a futex call even on an
    /// empty queue) is skipped when the word says nobody is blocked: a
    /// waiter sets that bit, under the queue mutex, in the same swap in
    /// which it saw the word refuse it, and `wait` gives the mutex up
    /// only once it is queued. So a release ordered before that swap
    /// was seen by it (no wait), and one ordered after it sees the bit
    /// and takes the mutex before notifying, which it can only get once
    /// the waiter sleeps.
    ///
    /// # Panics
    ///
    /// Panics if the node was not held in `mode`.
    pub fn release(&self, mode: Mode) {
        let mut cur = self.word.load(Ordering::Relaxed);
        loop {
            assert!(count(cur, mode) > 0, "release of unheld mode {mode}");
            match self.word.compare_exchange_weak(
                cur,
                cur - one(mode),
                Ordering::Release,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
        if cur & WAITING != 0 {
            drop(self.queue.lock());
            self.cond.notify_all();
        }
    }

    /// Snapshot of granted counts (diagnostics/tests).
    pub fn granted(&self) -> [u32; 5] {
        let word = self.word.load(Ordering::Relaxed);
        ALL_MODES.map(|m| count(word, m) as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modes::ALL_MODES;
    use proptest::prelude::*;
    use std::sync::atomic::AtomicU32;
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
        assert_eq!(l.word.load(Ordering::Relaxed) & (WAITING | EXCL_WAITING), 0);
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

    #[test]
    fn a_full_count_refuses_until_a_release() {
        let l = ModeLock::new();
        for _ in 0..COUNT_MAX {
            assert!(l.try_acquire(Mode::Is));
        }
        assert!(!l.try_acquire(Mode::Is), "the count does not carry");
        assert!(l.try_acquire(Mode::Ix), "the next field is untouched");
        assert_eq!(l.granted(), [COUNT_MAX as u32, 1, 0, 0, 0]);
        l.release(Mode::Is);
        assert!(l.try_acquire(Mode::Is));
    }

    /// The node's grant rule by definition: per-mode counts, Fig. 6(b)
    /// over every mode held, no waiters (a lone thread never blocks).
    fn reference_admits(granted: &[u32; 5], mode: Mode) -> bool {
        ALL_MODES
            .into_iter()
            .all(|held| granted[held as usize] == 0 || held.compatible(mode))
    }

    proptest! {
        /// Non-blocking grants and releases on the packed word agree
        /// with per-mode counters under Fig. 6(b), step by step.
        #[test]
        fn the_packed_word_counts_like_the_matrix(
            ops in proptest::collection::vec((0usize..5, any::<bool>()), 0..64),
        ) {
            let l = ModeLock::new();
            let mut model = [0u32; 5];
            for (m, take) in ops {
                let mode = ALL_MODES[m];
                if take {
                    let want = reference_admits(&model, mode);
                    prop_assert_eq!(l.try_acquire(mode), want, "{} over {:?}", mode, model);
                    model[m] += want as u32;
                } else if model[m] > 0 {
                    l.release(mode);
                    model[m] -= 1;
                }
                prop_assert_eq!(l.granted(), model);
            }
        }
    }
}
