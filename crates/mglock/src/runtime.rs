//! The multi-grain lock runtime: descriptor table, hierarchical
//! acquisition protocol, and per-thread sessions (§5.2).
//!
//! The lock structure is the tree the instantiated scheme induces:
//!
//! ```text
//! ⊤ (root)
//! ├── P0 (points-to partition)      ← coarse locks
//! │   ├── cell 0x12  ─ fine cell locks
//! │   └── array@0x40 ─ fine element-family locks
//! ├── P1
//! │   └── …
//! ```
//!
//! Acquire-all turns the pending descriptor list into per-node modes
//! (combining a node's own mode with the intention modes required by its
//! descendants), then acquires the nodes top-down in one global order —
//! root, partitions ascending, fine nodes by (partition, address). All
//! threads use the same order, locks are two-phase (held to
//! `release_all`), so the protocol is deadlock free.
//!
//! That walk exists once, as a resumable cursor; its two entry points
//! differ only in how they wait for one node. [`Session::acquire_all`]
//! blocks, [`Session::acquire_all_step`] never blocks and reports
//! [`StepResult::WouldBlock`] to a cooperative scheduler — so real
//! threads and virtual time run one plan in one order. One release
//! loop serves `release_all` and the unwind in `Drop`.

use crate::modelock::ModeLock;
use crate::modes::Mode;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Effect requested by a descriptor: read-only maps to shared modes,
/// read-write to exclusive ones. (Mirror of `lir::Eff`, kept local so
/// the runtime crate has no compiler dependencies.)
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Access {
    Read,
    Write,
}

impl Access {
    fn own_mode(self) -> Mode {
        match self {
            Access::Read => Mode::S,
            Access::Write => Mode::X,
        }
    }
}

/// Address of a fine-grain lock.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum FineAddr {
    /// A single heap cell.
    Cell(u64),
    /// Every element of the array allocated at the given base (locks
    /// whose expression ends in the dynamic `[]` offset).
    Range(u64),
}

/// A lock descriptor (§5.2): enough of the lock structure for the
/// library to find the path from the root — the points-to partition
/// number, the optional fine address, and the access effect.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Descriptor {
    /// The global lock `⊤`.
    Global { access: Access },
    /// A coarse partition lock `(⊤, P)`.
    Coarse { pts: u32, access: Access },
    /// A fine lock `(e, P)` whose expression evaluated to `addr`.
    Fine {
        pts: u32,
        addr: FineAddr,
        access: Access,
    },
}

/// A node in the lock tree, in the global acquisition order: root
/// first, then partitions, then fine nodes grouped by partition.
/// Public so a session's caller can name the node a grant refers to
/// ([`Session::held_modes`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum NodeKey {
    Root,
    Pts(u32),
    Fine(u32, FineAddr),
}

impl NodeKey {
    /// Every node class, in tree order (the `NODE` tags of a recorded
    /// run's events, the `node` label of the wake-decision metrics).
    pub const CLASSES: [&'static str; 4] = ["root", "pts", "cell", "range"];

    /// Which of [`NodeKey::CLASSES`] this node belongs to.
    pub fn class(self) -> &'static str {
        Self::CLASSES[match self {
            NodeKey::Root => 0,
            NodeKey::Pts(_) => 1,
            NodeKey::Fine(_, FineAddr::Cell(_)) => 2,
            NodeKey::Fine(_, FineAddr::Range(_)) => 3,
        }]
    }
}

/// Counters exposed for benchmarks and tests.
#[derive(Debug, Default)]
pub struct Stats {
    /// `acquire_all` batches that actually acquired (nesting level 0).
    pub batches: AtomicU64,
    /// Individual node acquisitions.
    pub node_acquisitions: AtomicU64,
    /// Sessions dropped while inside a section or holding locks
    /// (i.e. unwound by a panic rather than closed by `release_all`).
    pub poisoned_sessions: AtomicU64,
    /// Node grants released by [`Session`]'s drop glue instead of
    /// `release_all` — each one is a lock a crashed thread would
    /// otherwise have wedged.
    pub unwind_releases: AtomicU64,
}

/// A key as the two words the id map stores and hashes: the node kind
/// and partition, then the fine address.
fn key_words(key: NodeKey) -> (u64, u64) {
    match key {
        NodeKey::Root => (0, 0),
        NodeKey::Pts(p) => (1 << 32 | p as u64, 0),
        NodeKey::Fine(p, FineAddr::Cell(a)) => (2 << 32 | p as u64, a),
        NodeKey::Fine(p, FineAddr::Range(a)) => (3 << 32 | p as u64, a),
    }
}

/// Hashes [`key_words`]: multiply, rotate, xor in the second word,
/// multiply — then fold, so the low bits that pick the bucket see the
/// high ones. Node keys are partition numbers and heap addresses below
/// the machine's own bound, looked up once per node per batch —
/// SipHash's defence against crafted keys would cost more here than
/// the lock it finds.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("node keys hash as two u64 words")
    }

    fn write_u64(&mut self, word: u64) {
        const K: u64 = 0x517c_c1b7_2722_0a95;
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }

    fn finish(&self) -> u64 {
        self.0 ^ self.0 >> 29
    }
}

/// Nodes in the arena's first segment; segment `s` holds `FIRST << s`.
const FIRST: usize = 64;
/// Enough segments for every `u32` id.
const SEGMENTS: usize = 27;

/// The segment and offset of node `id`.
fn arena_slot(id: u32) -> (usize, usize) {
    let s = (id as usize / FIRST + 1).ilog2() as usize;
    (s, id as usize - FIRST * ((1 << s) - 1))
}

/// The shared lock-table runtime. Clone the [`Arc`] into every thread
/// and create one [`Session`] per thread.
///
/// Node locks live in an append-only arena of doubling segments and are
/// named by dense `u32` ids; one mutex-guarded map turns keys into ids.
/// A session names a whole batch under one lock of the map before its
/// walk, then takes and releases nodes by id: past that one lock per
/// batch, a grant's only atomic read-modify-write is the node's own.
/// The map is never locked while a node is waited for.
pub struct Runtime {
    arena: [OnceLock<Box<[ModeLock]>>; SEGMENTS],
    /// Node ids by [`key_words`]; its length is the number of nodes.
    ids: Mutex<HashMap<(u64, u64), u32, BuildHasherDefault<KeyHasher>>>,
    stats: Stats,
}

impl fmt::Debug for Runtime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Runtime")
            .field("stats", &self.stats)
            .finish()
    }
}

impl Default for Runtime {
    fn default() -> Self {
        Self::new()
    }
}

impl Runtime {
    /// Creates an empty lock table.
    pub fn new() -> Self {
        Runtime {
            arena: [const { OnceLock::new() }; SEGMENTS],
            ids: Mutex::new(HashMap::default()),
            stats: Stats::default(),
        }
    }

    /// Acquisition statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// True when no node is granted in any mode — every session has
    /// released (or been unwound). The fault-injection suites assert
    /// this after crashing workers to prove panics cannot leak locks.
    pub fn quiescent(&self) -> bool {
        let len = self.ids.lock().len() as u32;
        (0..len).all(|id| self.lock(id).granted() == [0; 5])
    }

    /// The lock of node `id`.
    fn lock(&self, id: u32) -> &ModeLock {
        let (s, off) = arena_slot(id);
        &self.arena[s]
            .get()
            .expect("an id is handed out after its segment exists")[off]
    }

    /// Fills in the id of every step's node under one lock of the map,
    /// appending a node for each key touched for the first time.
    fn name(&self, steps: &mut [(NodeKey, u32, Mode)]) {
        let mut ids = self.ids.lock();
        for (key, id, _) in steps {
            let next = u32::try_from(ids.len()).expect("lock table full");
            *id = *ids.entry(key_words(*key)).or_insert(next);
            if *id == next {
                let s = arena_slot(next).0;
                self.arena[s]
                    .get_or_init(|| (0..FIRST << s).map(|_| ModeLock::default()).collect());
            }
        }
    }
}

/// Outcome of one [`Session::acquire_all_step`] call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StepResult {
    /// Every pending lock is held; the section is entered.
    Done,
    /// The next node in the acquisition order is currently incompatible;
    /// call again after some lock is released. Nodes acquired so far
    /// stay held — the global order makes that deadlock-free.
    WouldBlock,
}

/// Per-thread session: pending descriptors, held nodes, and the nesting
/// level of §5.3.
pub struct Session {
    rt: Arc<Runtime>,
    pending: Vec<Descriptor>,
    /// Granted nodes in acquisition order, by key and runtime id.
    held: Vec<(NodeKey, u32, Mode)>,
    nlevel: u32,
    /// The acquire-all walk's cursor: the plan's remaining nodes, by
    /// key and runtime id, with their modes, in *descending* order
    /// (popped from the back). Non-empty exactly while a walk is in
    /// flight.
    cursor: Vec<(NodeKey, u32, Mode)>,
}

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("pending", &self.pending.len())
            .field("held", &self.held.len())
            .field("nlevel", &self.nlevel)
            .finish()
    }
}

impl Session {
    /// Creates a session bound to a shared runtime.
    pub fn new(rt: Arc<Runtime>) -> Self {
        Session {
            rt,
            pending: Vec::new(),
            held: Vec::new(),
            nlevel: 0,
            cursor: Vec::new(),
        }
    }

    /// Turns the pending descriptors into the walk's cursor: one step
    /// per node, the mode the join of every capacity the batch wants
    /// the node in, in *descending* `NodeKey` order (the walk pops from
    /// the back), then names the nodes in one call to the runtime.
    /// `combine` is a commutative, idempotent join, so the order of one
    /// node's pairs is immaterial and an unstable sort of the reused
    /// buffer serves.
    fn plan(&mut self) {
        debug_assert!(self.cursor.is_empty(), "a walk is still in flight");
        let cursor = &mut self.cursor;
        // The id is filled in by `Runtime::name` once the steps are known.
        let mut want = |key, mode| cursor.push((key, 0, mode));
        for d in self.pending.drain(..) {
            match d {
                Descriptor::Global { access } => want(NodeKey::Root, access.own_mode()),
                Descriptor::Coarse { pts, access } => {
                    let own = access.own_mode();
                    want(NodeKey::Pts(pts), own);
                    want(NodeKey::Root, own.ancestor_intention());
                }
                Descriptor::Fine { pts, addr, access } => {
                    let own = access.own_mode();
                    want(NodeKey::Fine(pts, addr), own);
                    want(NodeKey::Pts(pts), own.ancestor_intention());
                    want(NodeKey::Root, own.ancestor_intention());
                }
            }
        }
        cursor.sort_unstable_by_key(|&(key, ..)| std::cmp::Reverse(key));
        cursor.dedup_by(|next, kept| {
            let same = next.0 == kept.0;
            if same {
                kept.2 = kept.2.combine(next.2);
            }
            same
        });
        self.rt.name(cursor);
    }

    /// *to-acquire*: queue a descriptor for the next [`Session::acquire_all`].
    /// Inside a nested atomic section (nesting level > 0) this is a
    /// no-op — the outer section's locks already protect the inner one.
    pub fn to_acquire(&mut self, d: Descriptor) {
        if self.nlevel == 0 {
            self.pending.push(d);
        }
    }

    /// The one acquire-all walk (§5.2), resumable: enter a nested
    /// section, or plan the pending descriptors into the cursor and
    /// take its nodes top-down in `NodeKey` order — the one global
    /// order every thread shares. `take` waits for one node, each entry
    /// point in its own way: `false` leaves the cursor in place for the
    /// next call.
    fn advance(&mut self, mut take: impl FnMut(&ModeLock, Mode) -> bool) -> StepResult {
        if self.cursor.is_empty() {
            if self.nlevel > 0 {
                self.nlevel += 1;
                return StepResult::Done;
            }
            self.plan();
        }
        let rt = &*self.rt;
        let mut taken = 0;
        let blocked = loop {
            let Some(&(key, id, mode)) = self.cursor.last() else {
                break false;
            };
            if !take(rt.lock(id), mode) {
                break true;
            }
            self.held.push((key, id, mode));
            self.cursor.pop();
            taken += 1;
        };
        if taken > 0 {
            rt.stats
                .node_acquisitions
                .fetch_add(taken, Ordering::Relaxed);
        }
        if blocked {
            return StepResult::WouldBlock;
        }
        rt.stats.batches.fetch_add(1, Ordering::Relaxed);
        self.nlevel = 1;
        StepResult::Done
    }

    /// Releases every held node, children before ancestors.
    fn release_held(&mut self) {
        for (_, id, mode) in self.held.drain(..).rev() {
            self.rt.lock(id).release(mode);
        }
    }

    /// *acquire-all*: acquire every pending lock using the hierarchical
    /// protocol, then enter the (possibly nested) section. Blocks on
    /// each node for as long as it takes.
    pub fn acquire_all(&mut self) {
        let done = self.advance(|node, mode| {
            node.acquire(mode);
            true
        });
        debug_assert_eq!(done, StepResult::Done);
    }

    /// Non-blocking variant of [`Session::acquire_all`] for cooperative
    /// (virtual-time) schedulers: makes as much progress as possible and
    /// returns [`StepResult::WouldBlock`] when the next node in order is
    /// unavailable. Call again after any lock release; already-acquired
    /// nodes stay held (safe under the global acquisition order).
    pub fn acquire_all_step(&mut self) -> StepResult {
        self.advance(|node, mode| node.try_acquire(mode))
    }

    /// *release-all*: leave the section; at nesting level zero, release
    /// every held node (children before ancestors).
    pub fn release_all(&mut self) {
        assert!(self.nlevel > 0, "release_all without acquire_all");
        self.nlevel -= 1;
        if self.nlevel == 0 {
            self.release_held();
        }
    }

    /// Current nesting level (0 = outside any section).
    pub fn nesting_level(&self) -> u32 {
        self.nlevel
    }

    /// Number of nodes currently held.
    pub fn held_count(&self) -> usize {
        self.held.len()
    }

    /// The session's live held-mode set: every granted `(node, mode)`
    /// pair, in acquisition order — the order a batch's nodes are
    /// granted in, and the reverse of the order `release_all` and the
    /// unwind in `Drop` release them in. The online sentinel evaluates
    /// the Fig. 6 licensing predicate against it on each in-section
    /// access, and the caller that logs grants and releases reads them
    /// here.
    pub fn held_modes(&self) -> impl DoubleEndedIterator<Item = (NodeKey, Mode)> + '_ {
        self.held.iter().map(|&(key, _, mode)| (key, mode))
    }

    /// The `(node, mode)` pair an in-flight step-wise acquisition is
    /// currently blocked on — the cursor's next step. `None` outside a
    /// stepping acquisition (or once the plan is fully granted). Wake
    /// policies snapshot this into the scheduler's waiter queue when a
    /// step returns [`StepResult::WouldBlock`].
    pub fn blocked_on(&self) -> Option<(NodeKey, Mode)> {
        self.cursor.last().map(|&(key, _, mode)| (key, mode))
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        // Sessions abandoned mid-section (e.g. on panic) must not wedge
        // other threads: release everything and account for the
        // poisoning so harnesses can report it.
        if self.nlevel > 0 || !self.cursor.is_empty() || !self.held.is_empty() {
            self.rt
                .stats
                .poisoned_sessions
                .fetch_add(1, Ordering::Relaxed);
        }
        self.rt
            .stats
            .unwind_releases
            .fetch_add(self.held.len() as u64, Ordering::Relaxed);
        self.release_held();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Keys of every kind, distinct for distinct `i`.
    fn key(i: u64) -> NodeKey {
        let pts = (i % 7) as u32;
        match i % 4 {
            0 if i == 0 => NodeKey::Root,
            0 | 1 => NodeKey::Pts(i as u32),
            2 => NodeKey::Fine(pts, FineAddr::Cell(i)),
            _ => NodeKey::Fine(pts, FineAddr::Range(i)),
        }
    }

    /// The id `name` gives `key`, looked up alone.
    fn id_of(rt: &Runtime, key: NodeKey) -> u32 {
        let mut step = [(key, 0, Mode::Is)];
        rt.name(&mut step);
        step[0].1
    }

    #[test]
    fn ids_are_dense_and_stable_across_arena_growth() {
        let rt = Runtime::new();
        let n = 20_000;
        for i in 0..n {
            assert_eq!(id_of(&rt, key(i)), i as u32, "first touch appends");
        }
        let mut batch: Vec<_> = (0..n).rev().map(|i| (key(i), 0, Mode::X)).collect();
        rt.name(&mut batch);
        assert!(batch.iter().all(|&(k, id, _)| k == key(id as u64)));
        assert_eq!(rt.ids.lock().len(), n as usize);
        assert_eq!(rt.lock(n as u32 - 1).granted(), [0; 5]);
        assert_eq!(arena_slot(FIRST as u32 - 1), (0, FIRST - 1));
        assert_eq!(arena_slot(FIRST as u32), (1, 0));
        assert_eq!(arena_slot(u32::MAX).0, SEGMENTS - 1);
    }

    #[test]
    fn node_kinds_sharing_a_partition_and_address_are_distinct() {
        let rt = Runtime::new();
        let kinds = [
            NodeKey::Root,
            NodeKey::Pts(0),
            NodeKey::Fine(0, FineAddr::Cell(0)),
            NodeKey::Fine(0, FineAddr::Range(0)),
        ];
        let ids: Vec<u32> = kinds.iter().map(|&k| id_of(&rt, k)).collect();
        assert_eq!(ids, [0, 1, 2, 3]);
    }

    #[test]
    fn racing_first_touches_agree_on_one_node() {
        const THREADS: u64 = 8;
        const KEYS: u64 = 3_000;
        let rt = Runtime::new();
        let start = std::sync::Barrier::new(THREADS as usize);
        let seen: Vec<Vec<u32>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (rt, start) = (&rt, &start);
                    scope.spawn(move || {
                        start.wait();
                        // Each thread walks the keys from its own
                        // offset, so first touches collide everywhere.
                        let mut ids = vec![0; KEYS as usize];
                        for j in 0..KEYS {
                            let i = (j + t * KEYS / THREADS) % KEYS;
                            ids[i as usize] = id_of(rt, key(i));
                        }
                        ids
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(seen.windows(2).all(|w| w[0] == w[1]), "one id per key");
        let mut ids = seen[0].clone();
        ids.sort_unstable();
        assert_eq!(
            ids,
            (0..KEYS as u32).collect::<Vec<_>>(),
            "one node per key"
        );
        assert!(rt.quiescent());
    }
}
