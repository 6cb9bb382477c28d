//! # lockscheme — the lock formalism of §3
//!
//! This crate gives the paper's lock definitions executable form:
//!
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
//!
//! What a lock protects *at run time* — §3.2's concrete semantics — is
//! not restated here: it is what the lock's grant licenses under
//! Fig. 6, one predicate (`trace::lockset::licensed`) that the online
//! sentinel — the Theorem-1 checker among its policies — the offline
//! trace validator and re-inference's diagnosis share.

pub mod abslock;
pub mod scheme;

pub use abslock::{AbsLock, ConfigMap, LockRec, SchemeConfig};
pub use scheme::{EffScheme, FieldScheme, KExprScheme, Product, PtsScheme, Scheme};
