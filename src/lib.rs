//! # atomic-lock-inference
//!
//! A full reproduction of *Inferring Locks for Atomic Sections*
//! (Cherem, Chilimbi, Gulwani; PLDI 2008): a compiler that turns
//! `atomic { .. }` sections into multi-granularity lock acquisitions,
//! together with every substrate the paper's system needs.
//!
//! This facade crate re-exports the workspace members:
//!
//! | crate | role |
//! |---|---|
//! | [`lir`] | input language, parser, canonical IR, CFG |
//! | [`pointsto`] | Steensgaard points-to analysis + `mayAlias` |
//! | [`lockscheme`] | lock formalism: concrete semantics, abstract schemes |
//! | [`lockinfer`] | **the paper's contribution**: backward lock inference + transformation |
//! | [`mglock`] | multi-granularity lock runtime (IS/IX/S/SIX/X) |
//! | [`tl2`] | TL2-style STM (the optimistic baseline) |
//! | [`interp`] | concurrent interpreter: Global/MultiGrain/Stm/Validate + virtual time |
//! | [`trace`] | event tracing, Eraser-style lockset validation, profiles |
//! | [`sentinel`] | online lockset sentinel: inline licensing checks, per-section quarantine |
//! | [`sched`] | pluggable deterministic wake policies + convoy detection |
//! | `reinfer` | quarantine-aware re-inference: diagnose sentinel violations, repair demoted sections (see [`reinfer`](crate::reinfer)) |
//! | [`workloads`] | the evaluation programs (micro, STAMP-like, SPEC-like) |
//!
//! plus [`replay`], this crate's own deterministic record/replay layer
//! over traced executions, [`obs`], the unified observability layer
//! (trace-derived metric snapshots, a counter/gauge registry, exporters),
//! and [`Pipeline`], the builder whose three terminals are the only
//! entry points to the measurement loops (baseline → profile →
//! propose → evaluate → select).
//!
//! ## Quickstart
//!
//! ```
//! use atomic_lock_inference as ali;
//!
//! let src = r#"
//!     struct list { head; }
//!     fn push(l, e) {
//!         atomic { *e = l->head; l->head = e; }
//!     }
//! "#;
//! let (program, analysis, transformed) = ali::lockinfer::compile_with_locks(src, 3)?;
//! println!("{}", analysis.render(&program));
//! assert!(transformed.to_string().contains("acquireAll"));
//! # Ok::<(), ali::lir::lower::FrontendError>(())
//! ```
//!
//! See `examples/` for runnable end-to-end demonstrations and the
//! `bench` crate for the harness regenerating the paper's tables and
//! figures.

pub mod adapt;
pub mod eval;
pub mod pipeline;
pub mod reinfer;
pub mod replay;

pub use pipeline::Pipeline;

pub use interp;
pub use lir;
pub use lockinfer;
pub use lockscheme;
pub use mglock;
pub use obs;
pub use pointsto;
pub use sched;
pub use sentinel;
pub use tl2;
pub use trace;
pub use workloads;
