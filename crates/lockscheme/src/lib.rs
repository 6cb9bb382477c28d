//! # lockscheme — the lock formalism of §3
//!
//! This crate gives the paper's lock definitions executable form:
//!
//! * [`concrete`] — *concrete lock semantics* `[[l]] = (P, ε)`: which
//!   locations a lock protects, for which accesses. The interpreter's
//!   Validate mode uses this to check Theorem 1 empirically.
//! * [`scheme`] — *abstract lock schemes* `Σ = (L, ≤, ⊤, ·̄, +, *)` as a
//!   trait, with the paper's example instances: k-limited expression
//!   locks `Σ_k`, Steensgaard points-to locks `Σ≡`, read/write effect
//!   locks `Σ_ε`, field locks `Σ_i`, and Cartesian products.
//! * [`abslock`] — the *instantiated* scheme `Σ_k × Σ≡ × Σ_ε` used by
//!   the analysis implementation (§4.3), in the specialized tree-shaped
//!   representation the paper describes: a root `(⊤, ⊤)`, coarse
//!   points-to locks `(⊤, P)` below it, and fine expression locks
//!   `(e, P)` as leaves. What the analysis relies on about that
//!   lattice is stated here, once: which locks are flow-insensitive,
//!   how a lock coarsens to its own class, which scheme points a
//!   machine can execute, and [`LockRec`], the integer form of `≤`.
//!
//! [`scheme`] is the oracle for [`abslock`]: a property test holds
//! `AbsLock`'s order and join, and `LockRec`'s order, to the generic
//! product's. There is no lock *table* in this crate — whoever runs an
//! analysis owns its terms (`lockinfer::dataflow`).

pub mod abslock;
pub mod concrete;
pub mod scheme;

pub use abslock::{AbsLock, ConfigMap, LockRec, SchemeConfig};
pub use concrete::{ConcreteLock, LocationModel};
pub use scheme::{EffScheme, FieldScheme, KExprScheme, Product, PtsScheme, Scheme};
