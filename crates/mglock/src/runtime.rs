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
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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
/// Public so tracing observers can name the node a grant refers to.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum NodeKey {
    Root,
    Pts(u32),
    Fine(u32, FineAddr),
}

impl NodeKey {
    /// Every node class, in tree order (the `NODE` tags of the trace
    /// format, the `node` label of the wake-decision metrics).
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

/// Observer of a [`Session`]'s grant lifecycle. Implemented by tracing
/// backends (the `trace` crate's per-thread recorder); the runtime
/// calls it synchronously on the granting/releasing thread, including
/// for unwind releases from [`Session`]'s drop glue.
pub trait LockObserver: Send + Sync {
    /// `node` was granted to the session in `mode`.
    fn lock_acquired(&self, node: NodeKey, mode: Mode);
    /// The session released its `mode` grant on `node`.
    fn lock_released(&self, node: NodeKey, mode: Mode);
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

/// Multiplicative hasher for the node table: one rotate-xor-multiply
/// per key word picks both the shard and the bucket within it. Node
/// keys are partition numbers and heap addresses below the machine's
/// own bound, looked up once per node per batch — SipHash's defence
/// against crafted keys costs more here than the lock it finds.
#[derive(Clone, Copy, Default)]
struct NodeHasher(u64);

impl Hasher for NodeHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            let v = u64::from_le_bytes(word);
            self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
        }
    }
}

type NodeTable = HashMap<NodeKey, Arc<ModeLock>, BuildHasherDefault<NodeHasher>>;

/// The shared lock-table runtime. Clone the [`Arc`] into every thread
/// and create one [`Session`] per thread.
pub struct Runtime {
    shards: Vec<Mutex<NodeTable>>,
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

const N_SHARDS: usize = 64;

impl Runtime {
    /// Creates an empty lock table.
    pub fn new() -> Self {
        Runtime {
            shards: (0..N_SHARDS)
                .map(|_| Mutex::new(NodeTable::default()))
                .collect(),
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
        self.shards.iter().all(|s| {
            s.lock()
                .values()
                .all(|n| n.granted().iter().all(|&c| c == 0))
        })
    }

    fn node(&self, key: NodeKey) -> Arc<ModeLock> {
        // The table indexes buckets by the hash's low bits and tags
        // them by its top seven; the shard takes bits from between.
        let hash = BuildHasherDefault::<NodeHasher>::default().hash_one(key);
        let mut map = self.shards[(hash >> 32) as usize % N_SHARDS].lock();
        Arc::clone(map.entry(key).or_insert_with(|| Arc::new(ModeLock::new())))
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
    held: Vec<(NodeKey, Arc<ModeLock>, Mode)>,
    nlevel: u32,
    /// The acquire-all walk's cursor: the plan's remaining (node, mode)
    /// pairs in *descending* order (popped from the back). Non-empty
    /// exactly while a walk is in flight.
    cursor: Vec<(NodeKey, Mode)>,
    /// Grant-lifecycle observer (tracing); `None` costs nothing.
    observer: Option<Arc<dyn LockObserver>>,
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
            observer: None,
        }
    }

    /// Installs (or clears) a grant-lifecycle observer. Grants already
    /// held are not replayed to a newly installed observer.
    pub fn set_observer(&mut self, observer: Option<Arc<dyn LockObserver>>) {
        self.observer = observer;
    }

    /// Turns the pending descriptors into the walk's cursor: one
    /// `(node, mode)` pair per node, the mode the join of every
    /// capacity the batch wants the node in, in *descending* `NodeKey`
    /// order (the walk pops from the back). `combine` is a commutative,
    /// idempotent join, so the order of one node's pairs is immaterial
    /// and an unstable sort of the reused buffer serves.
    fn plan(&mut self) {
        debug_assert!(self.cursor.is_empty(), "a walk is still in flight");
        let want = &mut self.cursor;
        for d in self.pending.drain(..) {
            match d {
                Descriptor::Global { access } => want.push((NodeKey::Root, access.own_mode())),
                Descriptor::Coarse { pts, access } => {
                    let own = access.own_mode();
                    want.push((NodeKey::Pts(pts), own));
                    want.push((NodeKey::Root, own.ancestor_intention()));
                }
                Descriptor::Fine { pts, addr, access } => {
                    let own = access.own_mode();
                    want.push((NodeKey::Fine(pts, addr), own));
                    want.push((NodeKey::Pts(pts), own.ancestor_intention()));
                    want.push((NodeKey::Root, own.ancestor_intention()));
                }
            }
        }
        want.sort_unstable_by_key(|&(key, _)| std::cmp::Reverse(key));
        want.dedup_by(|next, kept| {
            let same = next.0 == kept.0;
            if same {
                kept.1 = kept.1.combine(next.1);
            }
            same
        });
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
        while let Some(&(key, mode)) = self.cursor.last() {
            let node = self.rt.node(key);
            if !take(&node, mode) {
                return StepResult::WouldBlock;
            }
            self.rt
                .stats
                .node_acquisitions
                .fetch_add(1, Ordering::Relaxed);
            if let Some(obs) = &self.observer {
                obs.lock_acquired(key, mode);
            }
            self.held.push((key, node, mode));
            self.cursor.pop();
        }
        self.rt.stats.batches.fetch_add(1, Ordering::Relaxed);
        self.nlevel = 1;
        StepResult::Done
    }

    /// Releases every held node, children before ancestors.
    fn release_held(&mut self) {
        for (key, node, mode) in self.held.drain(..).rev() {
            node.release(mode);
            if let Some(obs) = &self.observer {
                obs.lock_released(key, mode);
            }
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
    /// pair, in acquisition order. This is the introspection hook the
    /// online sentinel evaluates the Fig. 6 licensing predicate
    /// against on each in-section access — the same set the trace
    /// validator reconstructs post hoc from grant/release events.
    pub fn held_modes(&self) -> impl Iterator<Item = (NodeKey, Mode)> + '_ {
        self.held.iter().map(|&(key, _, mode)| (key, mode))
    }

    /// The `(node, mode)` pair an in-flight step-wise acquisition is
    /// currently blocked on — the cursor's next step. `None` outside a
    /// stepping acquisition (or once the plan is fully granted). Wake
    /// policies snapshot this into the scheduler's waiter queue when a
    /// step returns [`StepResult::WouldBlock`].
    pub fn blocked_on(&self) -> Option<(NodeKey, Mode)> {
        self.cursor.last().copied()
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
