//! Test support shared by the crate's unit and integration tests.

use interp::{ExecMode, Machine, Options};
use std::sync::Arc;

/// Compiles `src`, infers locks at `k`, transforms, and builds a
/// machine in `mode`.
///
/// # Errors
///
/// Returns the rendered frontend error message on parse/lowering
/// failure.
pub fn machine_for(src: &str, k: usize, mode: ExecMode, opts: Options) -> Result<Machine, String> {
    let (program, _analysis, transformed) =
        lockinfer::compile_with_locks(src, k).map_err(|e| e.to_string())?;
    let pt = Arc::new(pointsto::PointsTo::analyze(&program));
    Ok(Machine::new(Arc::new(transformed), pt, mode, opts))
}
