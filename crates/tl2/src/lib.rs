//! # tl2 — a TL2-style software transactional memory
//!
//! The optimistic baseline of the PLDI 2008 evaluation is the TL2 STM of
//! Dice, Shalev, and Shavit (DISC 2006). This crate reimplements the
//! published algorithm over a flat word space:
//!
//! * a **global version clock**;
//! * per-cell **versioned write-locks** (version + lock bit in one word);
//! * **invisible reads**: sample version → read value → revalidate
//!   version, abort if the cell is locked or newer than the
//!   transaction's read version `rv`;
//! * **lazy versioning**: writes are buffered in a write set;
//! * **commit**: lock the write set in address order (bounded spin, else
//!   abort), increment the clock to get `wv`, validate the read set,
//!   write back and release with version `wv`.
//!
//! ```
//! use tl2::{Space, TxnError};
//! let space = Space::new(16);
//! let ((), stats) = space.atomically(|txn| {
//!     let v = txn.read(3)?;
//!     txn.write(3, v + 1);
//!     Ok::<_, TxnError>(())
//! });
//! assert_eq!(space.read_direct(3), 1);
//! assert!(stats.commits == 1);
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::OnceLock;

/// A transactional conflict; propagate it out of the closure passed to
/// [`Space::atomically`] (the `?` operator does this) so the runtime can
/// roll back and retry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TxnError;

impl std::fmt::Display for TxnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "transaction conflict")
    }
}

impl std::error::Error for TxnError {}

/// Outcome counters of one [`Space::atomically`] call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TxnStats {
    /// Always 1 on return (the call retries until it commits).
    pub commits: u64,
    /// Aborted attempts before the successful one.
    pub aborts: u64,
    /// Transactions that exhausted their abort budget and completed as
    /// irrevocable global-mode executions.
    pub fallbacks: u64,
}

/// Capped exponential backoff, shared by every retry loop in the
/// workspace (STM retry here, the interpreter's section retry). Spin
/// counts double on each step and saturate at the cap.
#[derive(Clone, Copy, Debug)]
pub struct Backoff {
    cur: u32,
    cap: u32,
}

impl Backoff {
    /// The default spin cap (2^12), matching the historical retry loops.
    pub const DEFAULT_CAP: u32 = 1 << 12;

    /// A backoff starting at one spin with the default cap.
    pub fn new() -> Backoff {
        Backoff::with_cap(Backoff::DEFAULT_CAP)
    }

    /// A backoff starting at one spin with the given cap.
    pub fn with_cap(cap: u32) -> Backoff {
        Backoff {
            cur: 1,
            cap: cap.max(1),
        }
    }

    /// The spin count for this step; doubles (up to the cap) for the
    /// next. Use directly when the delay is charged to a virtual clock.
    pub fn spins(&mut self) -> u32 {
        let s = self.cur;
        self.cur = self.cur.saturating_mul(2).min(self.cap);
        s
    }

    /// Busy-waits for this step's spin count.
    pub fn spin(&mut self) {
        for _ in 0..self.spins() {
            std::hint::spin_loop();
        }
    }

    /// Restarts from one spin (e.g. after a successful acquisition).
    pub fn reset(&mut self) {
        self.cur = 1;
    }
}

impl Default for Backoff {
    fn default() -> Backoff {
        Backoff::new()
    }
}

/// Observer of transaction lifecycle transitions, for tracing backends.
/// Callbacks carry the thread token the driver passed to the tagged
/// notification methods ([`Space::note_commit_by`] and friends), so a
/// machine-wide observer can route the event to the right per-thread
/// buffer.
pub trait StmObserver: Send + Sync {
    /// The token's outermost transaction committed with the given
    /// read/write set sizes.
    fn txn_commit(&self, token: u64, reads: u64, writes: u64);
    /// The token's current attempt aborted (it will retry).
    fn txn_abort(&self, token: u64);
    /// The token's transaction escalated to irrevocable global mode.
    fn txn_fallback(&self, token: u64);
}

const LOCK_BIT: u64 = 1;

struct Cell {
    value: AtomicI64,
    /// `version << 1 | lock`.
    vlock: AtomicU64,
}

/// Cells per page of a [`Space`] (64 KiB of cells).
const PAGE_CELLS: usize = 1 << 12;

/// A flat transactional word space. Its length is a bound, not a
/// commitment: cells live in fixed-size pages, each allocated (zeroed)
/// the first time one of its cells is touched, so a space costs memory
/// and construction time in proportion to what a run touches.
pub struct Space {
    len: usize,
    /// Page `p` holds cells `p * PAGE_CELLS ..`; the last may be short.
    pages: Box<[OnceLock<Box<[Cell]>>]>,
    clock: AtomicU64,
    commits: AtomicU64,
    aborts: AtomicU64,
    fallbacks: AtomicU64,
    /// Degradation gate: optimistic commits take it shared for the
    /// duration of the commit protocol; an irrevocable transaction holds
    /// it exclusively for its whole lifetime, so the two write paths can
    /// never interleave on a cell.
    commit_gate: std::sync::RwLock<()>,
    /// Lifecycle observer for the tagged notification methods; `None`
    /// costs one relaxed load per notification.
    observer: std::sync::RwLock<Option<std::sync::Arc<dyn StmObserver>>>,
}

impl std::fmt::Debug for Space {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Space")
            .field("len", &self.len)
            .field("clock", &self.clock.load(Ordering::Relaxed))
            .finish()
    }
}

impl Space {
    /// Creates a space of `n` cells, all zero.
    pub fn new(n: usize) -> Space {
        Space {
            len: n,
            pages: (0..n.div_ceil(PAGE_CELLS))
                .map(|_| OnceLock::new())
                .collect(),
            clock: AtomicU64::new(0),
            commits: AtomicU64::new(0),
            aborts: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
            commit_gate: std::sync::RwLock::new(()),
            observer: std::sync::RwLock::new(None),
        }
    }

    /// Installs (or clears) the lifecycle observer used by the tagged
    /// notification methods.
    pub fn set_observer(&self, observer: Option<std::sync::Arc<dyn StmObserver>>) {
        *self
            .observer
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = observer;
    }

    fn with_observer(&self, f: impl FnOnce(&dyn StmObserver)) {
        let g = self
            .observer
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(obs) = g.as_deref() {
            f(obs);
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the space has no cells.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Cells in pages committed so far (diagnostics/tests): what the
    /// space occupies, as opposed to the [`Space::len`] it may address.
    pub fn resident_cells(&self) -> usize {
        self.pages
            .iter()
            .filter_map(|p| p.get())
            .map(|p| p.len())
            .sum()
    }

    /// Cell `i`, committing its page on first touch. Racing first
    /// touches agree on one page: `OnceLock` runs one initialiser and
    /// hands every caller the same cells.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not below [`Space::len`].
    fn cell(&self, i: usize) -> &Cell {
        assert!(i < self.len, "cell {i} out of range");
        let page = self.pages[i / PAGE_CELLS].get_or_init(|| {
            let start = i - i % PAGE_CELLS;
            (start..self.len.min(start + PAGE_CELLS))
                .map(|_| Cell {
                    value: AtomicI64::new(0),
                    vlock: AtomicU64::new(0),
                })
                .collect()
        });
        &page[i % PAGE_CELLS]
    }

    /// Non-transactional read (for use outside transactions only).
    pub fn read_direct(&self, i: usize) -> i64 {
        self.cell(i).value.load(Ordering::Acquire)
    }

    /// Non-transactional write (for use outside transactions only).
    pub fn write_direct(&self, i: usize, v: i64) {
        self.cell(i).value.store(v, Ordering::Release);
    }

    /// Global abort/commit/fallback counters since construction.
    pub fn global_stats(&self) -> TxnStats {
        TxnStats {
            commits: self.commits.load(Ordering::Relaxed),
            aborts: self.aborts.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
        }
    }

    /// Begins a transaction explicitly. Prefer [`Space::atomically`]
    /// unless the transaction must span a non-closure control structure
    /// (the interpreter's instruction loop does).
    pub fn begin(&self) -> Txn<'_> {
        Txn {
            space: self,
            rv: self.clock.load(Ordering::Acquire),
            reads: Vec::new(),
            writes: HashMap::new(),
            irrevocable: None,
        }
    }

    /// Attempts to begin an irrevocable transaction: one that executes
    /// in global mode, can never abort, and excludes every optimistic
    /// commit for its lifetime. This is the degradation path for
    /// transactions starved by repeated conflicts. Fails (returning
    /// `None`) while another irrevocable transaction or an optimistic
    /// commit holds the gate; callers on a virtual-time scheduler must
    /// use this non-blocking form and charge the retry delay to their
    /// own clock, or they would stall the scheduler for real.
    pub fn try_begin_irrevocable(&self) -> Option<Txn<'_>> {
        let guard = self.commit_gate.try_write().ok()?;
        self.fallbacks.fetch_add(1, Ordering::Relaxed);
        Some(Txn {
            space: self,
            rv: self.clock.load(Ordering::Acquire),
            reads: Vec::new(),
            writes: HashMap::new(),
            irrevocable: Some(guard),
        })
    }

    /// Blocking form of [`Space::try_begin_irrevocable`] for real-time
    /// callers. Do not use under a cooperative scheduler: it parks the
    /// OS thread until the gate frees.
    pub fn begin_irrevocable(&self) -> Txn<'_> {
        let guard = self
            .commit_gate
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        self.fallbacks.fetch_add(1, Ordering::Relaxed);
        Txn {
            space: self,
            rv: self.clock.load(Ordering::Acquire),
            reads: Vec::new(),
            writes: HashMap::new(),
            irrevocable: Some(guard),
        }
    }

    /// Records an abort for the global statistics (used by explicit
    /// begin/commit drivers; [`Space::atomically`] does this itself).
    pub fn note_abort(&self) {
        self.aborts.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a commit for the global statistics (used by explicit
    /// begin/commit drivers).
    pub fn note_commit(&self) {
        self.commits.fetch_add(1, Ordering::Relaxed);
    }

    /// Like [`Space::note_abort`], additionally notifying the observer
    /// with the driver's thread token.
    pub fn note_abort_by(&self, token: u64) {
        self.note_abort();
        self.with_observer(|o| o.txn_abort(token));
    }

    /// Like [`Space::note_commit`], additionally notifying the observer
    /// with the driver's thread token and the committed read/write set
    /// sizes.
    pub fn note_commit_by(&self, token: u64, reads: u64, writes: u64) {
        self.note_commit();
        self.with_observer(|o| o.txn_commit(token, reads, writes));
    }

    /// Like [`Space::try_begin_irrevocable`], additionally notifying
    /// the observer (on success) with the driver's thread token.
    pub fn try_begin_irrevocable_by(&self, token: u64) -> Option<Txn<'_>> {
        let txn = self.try_begin_irrevocable()?;
        self.with_observer(|o| o.txn_fallback(token));
        Some(txn)
    }

    /// Runs `body` transactionally, retrying on conflict until it
    /// commits. The closure must be re-executable: all its side effects
    /// should go through the transaction (the paper's argument for
    /// pessimistic sections is precisely that irreversible actions
    /// cannot).
    pub fn atomically<T>(
        &self,
        body: impl FnMut(&mut Txn<'_>) -> Result<T, TxnError>,
    ) -> (T, TxnStats) {
        self.atomically_budgeted(u64::MAX, body)
    }

    /// Like [`Space::atomically`], but after `budget` aborted attempts
    /// the transaction escalates to irrevocable global-mode execution
    /// (the graceful-degradation ladder's last rung), which cannot
    /// abort. Inside an irrevocable attempt `body` sees a transaction
    /// whose reads are infallible; returning `Err` from there is treated
    /// as a retryable condition and re-enters the irrevocable loop.
    pub fn atomically_budgeted<T>(
        &self,
        budget: u64,
        mut body: impl FnMut(&mut Txn<'_>) -> Result<T, TxnError>,
    ) -> (T, TxnStats) {
        let mut stats = TxnStats::default();
        let mut backoff = Backoff::new();
        loop {
            let mut txn = if stats.aborts >= budget {
                match self.try_begin_irrevocable() {
                    Some(t) => t,
                    None => {
                        backoff.spin();
                        continue;
                    }
                }
            } else {
                self.begin()
            };
            let irrevocable = txn.is_irrevocable();
            if let Ok(out) = body(&mut txn) {
                if txn.commit().is_ok() {
                    stats.commits = 1;
                    stats.fallbacks = u64::from(irrevocable);
                    self.commits.fetch_add(1, Ordering::Relaxed);
                    return (out, stats);
                }
            }
            stats.aborts += 1;
            self.aborts.fetch_add(1, Ordering::Relaxed);
            backoff.spin();
        }
    }
}

/// An in-flight transaction.
pub struct Txn<'s> {
    space: &'s Space,
    rv: u64,
    reads: Vec<usize>,
    writes: HashMap<usize, i64>,
    /// `Some` while this transaction runs irrevocably; the guard holds
    /// [`Space::commit_gate`] exclusively, keeping every optimistic
    /// commit out until the transaction finishes.
    irrevocable: Option<std::sync::RwLockWriteGuard<'s, ()>>,
}

impl std::fmt::Debug for Txn<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Txn")
            .field("rv", &self.rv)
            .field("reads", &self.reads.len())
            .field("writes", &self.writes.len())
            .field("irrevocable", &self.irrevocable.is_some())
            .finish()
    }
}

impl Txn<'_> {
    /// Transactional read.
    ///
    /// # Errors
    ///
    /// Returns [`TxnError`] when the cell is locked or was written after
    /// this transaction began — the caller should propagate it so the
    /// transaction retries.
    pub fn read(&mut self, i: usize) -> Result<i64, TxnError> {
        if let Some(&v) = self.writes.get(&i) {
            return Ok(v);
        }
        if self.irrevocable.is_some() {
            // No optimistic commit can run while we hold the gate, and
            // our own writes go straight to the cells, so a direct load
            // is always consistent.
            return Ok(self.space.cell(i).value.load(Ordering::Acquire));
        }
        let cell = self.space.cell(i);
        let pre = cell.vlock.load(Ordering::Acquire);
        let value = cell.value.load(Ordering::Acquire);
        let post = cell.vlock.load(Ordering::Acquire);
        if pre != post || post & LOCK_BIT != 0 || (post >> 1) > self.rv {
            return Err(TxnError);
        }
        self.reads.push(i);
        Ok(value)
    }

    /// Number of buffered writes (used by cost models).
    pub fn write_set_len(&self) -> usize {
        self.writes.len()
    }

    /// Number of recorded reads (used by cost models: commit-time
    /// validation is linear in the read set).
    pub fn read_set_len(&self) -> usize {
        self.reads.len()
    }

    /// True while this transaction runs in irrevocable global mode.
    pub fn is_irrevocable(&self) -> bool {
        self.irrevocable.is_some()
    }

    /// Introspection hook for online monitors: is cell `i` covered by
    /// this transaction — buffered in the write set, validated in the
    /// read set, or executed under the irrevocable gate (which excludes
    /// every concurrent writer, so any access is trivially covered)?
    /// The STM analogue of `mglock::Session::held_modes`.
    pub fn is_tracked(&self, i: usize) -> bool {
        self.irrevocable.is_some() || self.writes.contains_key(&i) || self.reads.contains(&i)
    }

    /// Transactional write (buffered until commit in both modes — an
    /// irrevocable transaction still publishes its whole write set
    /// atomically under the lock-bit protocol, or concurrent optimistic
    /// readers could see a torn multi-cell snapshot).
    pub fn write(&mut self, i: usize, v: i64) {
        assert!(i < self.space.len, "cell {i} out of range");
        self.writes.insert(i, v);
    }

    /// Attempts to commit.
    ///
    /// # Errors
    ///
    /// Returns [`TxnError`] when write-set locking or read-set
    /// validation fails; the caller should roll back its local state
    /// and retry from [`Space::begin`].
    pub fn commit(self) -> Result<(), TxnError> {
        let space = self.space;
        if self.writes.is_empty() {
            // Read-only transactions validated every read against rv
            // (or, when irrevocable, read under exclusion).
            return Ok(());
        }
        if self.irrevocable.is_some() {
            // The exclusively-held gate means no optimistic commit or
            // other irrevocable transaction is writing: locking cannot
            // fail and the read set needs no validation. The usual TL2
            // order (lock all, bump clock, write back + release) still
            // matters so optimistic readers see lock bits or a too-new
            // version instead of a partial write-back.
            for &i in self.writes.keys() {
                let cell = space.cell(i);
                let cur = cell.vlock.load(Ordering::Acquire);
                debug_assert_eq!(cur & LOCK_BIT, 0, "no other writer while the gate is held");
                cell.vlock.store(cur | LOCK_BIT, Ordering::Release);
            }
            let wv = space.clock.fetch_add(1, Ordering::AcqRel) + 1;
            for (&i, &val) in &self.writes {
                let cell = space.cell(i);
                cell.value.store(val, Ordering::Release);
                cell.vlock.store(wv << 1, Ordering::Release);
            }
            // Dropping `self` releases the gate.
            return Ok(());
        }
        // Exclude any irrevocable transaction for the commit's duration;
        // if one is in flight (or starting), abort rather than block —
        // blocking here would wedge cooperative schedulers.
        let _gate = match space.commit_gate.try_read() {
            Ok(g) => g,
            Err(std::sync::TryLockError::Poisoned(e)) => e.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => return Err(TxnError),
        };
        // Lock the write set in address order (bounded spin, else abort).
        let mut addrs: Vec<usize> = self.writes.keys().copied().collect();
        addrs.sort_unstable();
        let mut held: Vec<(usize, u64)> = Vec::with_capacity(addrs.len());
        let unlock_held = |held: &[(usize, u64)]| {
            for &(j, old) in held {
                space.cell(j).vlock.store(old, Ordering::Release);
            }
        };
        for &i in &addrs {
            let cell = space.cell(i);
            let mut ok = false;
            for _ in 0..64 {
                let cur = cell.vlock.load(Ordering::Acquire);
                if cur & LOCK_BIT == 0
                    && (cur >> 1) <= self.rv
                    && cell
                        .vlock
                        .compare_exchange(cur, cur | LOCK_BIT, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                {
                    held.push((i, cur));
                    ok = true;
                    break;
                }
                std::hint::spin_loop();
            }
            if !ok {
                unlock_held(&held);
                return Err(TxnError);
            }
        }
        // Advance the clock; wv is this transaction's version.
        let wv = space.clock.fetch_add(1, Ordering::AcqRel) + 1;
        // Validate the read set (skippable when rv + 1 == wv: no one
        // else committed in between — the TL2 fast path).
        if wv != self.rv + 1 {
            for &i in &self.reads {
                let v = space.cell(i).vlock.load(Ordering::Acquire);
                let locked_by_other = v & LOCK_BIT != 0 && !self.writes.contains_key(&i);
                if locked_by_other || (v >> 1) > self.rv {
                    unlock_held(&held);
                    return Err(TxnError);
                }
            }
        }
        // Write back and release with the new version.
        for (&i, &val) in &self.writes {
            let cell = space.cell(i);
            cell.value.store(val, Ordering::Release);
            cell.vlock.store(wv << 1, Ordering::Release);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn read_your_own_writes() {
        let s = Space::new(4);
        s.atomically(|t| {
            t.write(0, 7);
            assert_eq!(t.read(0)?, 7);
            Ok(())
        });
        assert_eq!(s.read_direct(0), 7);
    }

    #[test]
    fn counter_increments_linearize() {
        let s = Arc::new(Space::new(1));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for _ in 0..500 {
                    s.atomically(|t| {
                        let v = t.read(0)?;
                        t.write(0, v + 1);
                        Ok(())
                    });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.read_direct(0), 8 * 500);
    }

    #[test]
    fn bank_transfer_preserves_total() {
        let s = Arc::new(Space::new(8));
        for i in 0..8 {
            s.write_direct(i, 100);
        }
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                let mut x = t.wrapping_mul(2654435761);
                for _ in 0..2000 {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let from = (x >> 33) as usize % 8;
                    let to = (x >> 21) as usize % 8;
                    s.atomically(|txn| {
                        let a = txn.read(from)?;
                        let b = txn.read(to)?;
                        if a > 0 {
                            txn.write(from, a - 1);
                            if from == to {
                                txn.write(to, a);
                            } else {
                                txn.write(to, b + 1);
                            }
                        }
                        Ok(())
                    });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let total: i64 = (0..8).map(|i| s.read_direct(i)).sum();
        assert_eq!(total, 800, "transfers conserve the total");
    }

    #[test]
    fn readers_see_consistent_snapshots() {
        // Writer keeps x == y; readers must never observe x != y.
        let s = Arc::new(Space::new(2));
        let stop = Arc::new(AtomicU64::new(0));
        let w = {
            let s = Arc::clone(&s);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut v = 0i64;
                while stop.load(Ordering::Relaxed) == 0 {
                    v += 1;
                    s.atomically(|t| {
                        t.write(0, v);
                        t.write(1, v);
                        Ok(())
                    });
                }
            })
        };
        let mut readers = Vec::new();
        for _ in 0..4 {
            let s = Arc::clone(&s);
            readers.push(std::thread::spawn(move || {
                for _ in 0..5000 {
                    let ((a, b), _) = s.atomically(|t| Ok((t.read(0)?, t.read(1)?)));
                    assert_eq!(a, b, "torn snapshot observed");
                }
            }));
        }
        for r in readers {
            r.join().unwrap();
        }
        stop.store(1, Ordering::Relaxed);
        w.join().unwrap();
    }

    #[test]
    fn conflicting_transactions_abort_and_retry() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Barrier;
        let s = Arc::new(Space::new(1));
        let barrier = Arc::new(Barrier::new(2));
        let h = {
            let s = Arc::clone(&s);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let first = AtomicBool::new(true);
                let (_, st) = s.atomically(|t| {
                    let v = t.read(0)?;
                    if first.swap(false, Ordering::SeqCst) {
                        barrier.wait(); // let the main thread commit…
                        barrier.wait(); // …and finish before we try to.
                    }
                    t.write(0, v + 1);
                    Ok(())
                });
                st
            })
        };
        barrier.wait();
        s.atomically(|t| {
            t.write(0, 99);
            Ok(())
        });
        barrier.wait();
        let st = h.join().unwrap();
        assert!(st.aborts >= 1, "the interleaved write must force an abort");
        assert_eq!(s.read_direct(0), 100, "the retry read the committed value");
    }

    #[test]
    fn stats_accumulate_globally() {
        let s = Space::new(2);
        for _ in 0..5 {
            s.atomically(|t| {
                let v = t.read(0)?;
                t.write(1, v);
                Ok(())
            });
        }
        assert_eq!(s.global_stats().commits, 5);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let mut b = Backoff::with_cap(8);
        assert_eq!(b.spins(), 1);
        assert_eq!(b.spins(), 2);
        assert_eq!(b.spins(), 4);
        assert_eq!(b.spins(), 8);
        assert_eq!(b.spins(), 8, "spin count saturates at the cap");
        b.reset();
        assert_eq!(b.spins(), 1, "reset restarts the ladder");
        let mut d = Backoff::new();
        for _ in 0..40 {
            assert!(d.spins() <= Backoff::DEFAULT_CAP);
        }
        assert_eq!(d.spins(), Backoff::DEFAULT_CAP);
    }

    #[test]
    fn abort_budget_escalates_to_irrevocable() {
        let s = Space::new(2);
        let (out, st) = s.atomically_budgeted(4, |t| {
            if t.is_irrevocable() {
                let v = t.read(0)?;
                t.write(0, v + 7);
                Ok(42)
            } else {
                // Simulate a transaction that always conflicts.
                Err(TxnError)
            }
        });
        assert_eq!(out, 42);
        assert_eq!(st.aborts, 4, "exactly the budget is spent optimistically");
        assert_eq!(st.fallbacks, 1, "then the fallback engages");
        assert_eq!(s.read_direct(0), 7);
        assert_eq!(s.global_stats().fallbacks, 1);
    }

    #[test]
    fn irrevocable_writer_keeps_optimistic_readers_consistent() {
        // Same invariant as readers_see_consistent_snapshots, but the
        // writer runs irrevocably: its write-through protocol must still
        // make torn reads impossible for optimistic readers.
        let s = Arc::new(Space::new(2));
        let stop = Arc::new(AtomicU64::new(0));
        let w = {
            let s = Arc::clone(&s);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut v = 0i64;
                while stop.load(Ordering::Relaxed) == 0 {
                    v += 1;
                    let mut t = s.begin_irrevocable();
                    t.write(0, v);
                    t.write(1, v);
                    t.commit().unwrap();
                    s.note_commit();
                }
            })
        };
        let mut readers = Vec::new();
        for _ in 0..4 {
            let s = Arc::clone(&s);
            readers.push(std::thread::spawn(move || {
                for _ in 0..3000 {
                    let ((a, b), _) = s.atomically(|t| Ok((t.read(0)?, t.read(1)?)));
                    assert_eq!(a, b, "torn snapshot observed past an irrevocable writer");
                }
            }));
        }
        for r in readers {
            r.join().unwrap();
        }
        stop.store(1, Ordering::Relaxed);
        w.join().unwrap();
        assert!(s.global_stats().fallbacks > 0);
    }

    #[test]
    fn irrevocable_reads_see_own_writes() {
        let s = Space::new(4);
        let mut t = s.begin_irrevocable();
        t.write(2, 9);
        assert_eq!(t.read(2).unwrap(), 9);
        t.commit().unwrap();
        assert_eq!(s.read_direct(2), 9);
    }

    #[test]
    fn untouched_cells_are_not_committed() {
        let len = 1 << 26;
        let s = Space::new(len);
        assert_eq!((s.len(), s.resident_cells()), (len, 0));
        // Never-written cells read as zero, directly and in a
        // transaction.
        assert_eq!(s.read_direct(len / 2), 0);
        assert_eq!(s.atomically(|t| t.read(len / 3)).0, 0);
        // First and last cell, and both sides of a page boundary.
        let edge = 5 * PAGE_CELLS;
        for (i, v) in [(0, 11), (len - 1, 12), (edge - 1, 13), (edge, 14)] {
            s.write_direct(i, v);
            assert_eq!(s.read_direct(i), v);
        }
        // One committed transaction across another boundary.
        let edge = 9 * PAGE_CELLS;
        s.atomically(|t| {
            let below = t.read(edge - 1)?;
            t.write(edge - 1, below + 21);
            t.write(edge, 22);
            Ok(())
        });
        assert_eq!((s.read_direct(edge - 1), s.read_direct(edge)), (21, 22));
        // Eight pages were touched, of 16 384.
        assert_eq!(s.resident_cells(), 8 * PAGE_CELLS);
        // A short last page commits only the cells the space has.
        let short = Space::new(PAGE_CELLS + 3);
        short.write_direct(PAGE_CELLS + 2, 1);
        assert_eq!(short.resident_cells(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn indexing_the_length_panics() {
        // Inside the last page's capacity, outside the space.
        Space::new(PAGE_CELLS + 3).read_direct(PAGE_CELLS + 3);
    }

    #[test]
    fn racing_first_touches_commit_one_page() {
        use std::sync::Barrier;
        const THREADS: usize = 8;
        const PER_THREAD: usize = 64;
        let s = Space::new(4 * PAGE_CELLS);
        let start = Barrier::new(THREADS);
        // Page 1 is first touched by racing direct writes, page 3 by
        // racing transactions; every thread owns distinct cells of both.
        let cells = |page: usize, tid: usize| {
            (0..PER_THREAD).map(move |k| page * PAGE_CELLS + k * THREADS + tid)
        };
        std::thread::scope(|scope| {
            for tid in 0..THREADS {
                let (s, start) = (&s, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in cells(1, tid) {
                        s.write_direct(i, i as i64);
                        assert_eq!(s.read_direct(i), i as i64);
                    }
                    s.atomically(|t| {
                        for i in cells(3, tid) {
                            t.write(i, -(i as i64));
                        }
                        Ok(())
                    });
                });
            }
        });
        for tid in 0..THREADS {
            for i in cells(1, tid) {
                assert_eq!(s.read_direct(i), i as i64, "cell {i} lost its value");
            }
            for i in cells(3, tid) {
                assert_eq!(s.read_direct(i), -(i as i64), "cell {i} lost its value");
            }
        }
        assert_eq!(s.resident_cells(), 2 * PAGE_CELLS, "each page once");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_write_panics() {
        let s = Space::new(1);
        s.atomically(|t| {
            t.write(9, 1);
            Ok(())
        });
    }
}
