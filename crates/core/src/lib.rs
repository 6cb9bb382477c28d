//! # lockinfer — inferring locks for atomic sections
//!
//! The core contribution of *Inferring Locks for Atomic Sections*
//! (Cherem, Chilimbi, Gulwani; PLDI 2008): a backward interprocedural
//! dataflow analysis that, for every `atomic { .. }` section, computes a
//! set of locks — expressible at the section's entry point — protecting
//! every shared location the section may access, and a transformation
//! replacing the section markers with `acquireAll(N)` / `releaseAll`.
//!
//! The analysis is instantiated (as in the paper's implementation) with
//! the product scheme `Σ_k × Σ≡ × Σ_ε`: k-limited expression locks ×
//! Steensgaard points-to locks × read/write effects. See the
//! `lockscheme` crate for the scheme formalism and the `mglock` crate
//! for the runtime that honors the inferred multi-granularity locks.
//!
//! ## Pipeline
//!
//! ```
//! use lockscheme::SchemeConfig;
//!
//! let program = lir::compile(r#"
//!     struct list { head; }
//!     fn push(l, e) {
//!         atomic { *e = l->head; l->head = e; }
//!     }
//! "#)?;
//! let pt = pointsto::PointsTo::analyze(&program);
//! let cfg = SchemeConfig::full(3, program.elem_field_opt());
//! let analysis = lockinfer::analyze_program(&program, &pt, cfg);
//! let transformed = lockinfer::transform(&program, &analysis);
//! assert!(transformed.to_string().contains("acquireAll"));
//! # Ok::<(), lir::lower::FrontendError>(())
//! ```

pub mod adapt;
pub mod dataflow;
pub mod estimate;
pub mod library;
mod par;
pub mod reference;
pub mod reinfer;
pub mod report;
pub mod transfer;
pub mod transform;

pub use adapt::{
    candidates, select, AdaptPolicy, Candidate, Decision, DecisionReport, EvalStatus, PlanCost,
};
pub use dataflow::{
    analyze_program, analyze_program_with_configs, analyze_program_with_opts, AnalysisStats,
    ProgramAnalysis, SectionResult, SummaryStore,
};
pub use par::{par_map, worker_count};
pub use reference::{analyze_program_reference, analyze_program_reference_with_configs};
pub use reinfer::{
    admit, alias_merge_collapse, diagnose, Diagnosis, Repair, RepairCandidate, RepairDecision,
    RepairOutcome, RepairReport, SectionReport, Witness,
};
pub use report::{DegradationReport, LockCounts};
pub use transform::transform;

use lockscheme::SchemeConfig;

/// One-call convenience: parse, analyze with the full `Σ_k × Σ≡ × Σ_ε`
/// scheme, and transform.
///
/// # Errors
///
/// Returns frontend errors from parsing/lowering.
pub fn compile_with_locks(
    src: &str,
    k: usize,
) -> Result<(lir::Program, ProgramAnalysis, lir::Program), lir::lower::FrontendError> {
    let program = lir::compile(src)?;
    let pt = pointsto::PointsTo::analyze(&program);
    let cfg = SchemeConfig::full(k, program.elem_field_opt());
    let analysis = analyze_program(&program, &pt, cfg);
    let transformed = transform(&program, &analysis);
    Ok((program, analysis, transformed))
}
