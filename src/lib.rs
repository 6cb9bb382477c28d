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
//! | [`lockscheme`] | lock formalism: abstract lock schemes and the instantiated scheme |
//! | [`lockinfer`] | **the paper's contribution**: backward lock inference + transformation |
//! | [`mglock`] | multi-granularity lock runtime (IS/IX/S/SIX/X) |
//! | [`tl2`] | TL2-style STM (the optimistic baseline) |
//! | [`interp`] | concurrent interpreter: Global/MultiGrain/Stm + virtual time with its deterministic wake policies, and its online lockset sentinel (inline licensing checks; a miss quarantines the section or, as the Theorem-1 checker, fails the run) |
//! | [`trace`] | event tracing, Eraser-style lockset validation, profiles |
//! | [`workloads`] | the evaluation programs (micro, STAMP-like, SPEC-like) |
//!
//! and holds the measurement loops, each one module with its policy, and
//! the metrics that read their runs:
//!
//! | module | role |
//! |---|---|
//! | [`adapt`] | profile-guided adaptation: candidates (and convoy detection) from wait/hold profiles, ranking, selection |
//! | [`reinfer`] | quarantine-aware re-inference: diagnose the violations a trace records, repair demoted sections, admission |
//! | [`eval`] | the shared candidate harness both loops replay every candidate through |
//! | [`replay`] | deterministic record/replay over traced executions |
//! | [`obs`] | metrics: trace-derived snapshots, merged with a recording's end-of-run gauges; exporters |
//!
//! [`Pipeline`] is the builder whose two terminals are the only entry
//! points to the loops (baseline → profile → propose → evaluate →
//! select); one run is [`replay::record`].
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
pub mod obs;
pub mod pipeline;
pub mod reinfer;
pub mod replay;

pub use pipeline::Pipeline;

pub use interp;
pub use lir;
pub use lockinfer;
pub use lockscheme;
pub use mglock;
pub use pointsto;
pub use tl2;
pub use trace;
pub use workloads;
