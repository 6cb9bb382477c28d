//! Typed failures of the locking runtime's degradation paths.
//!
//! The acquisition protocol itself is deadlock free, so these errors
//! only arise when the runtime is configured to police misuse
//! ([`crate::RuntimeConfig`]): a wait-for cycle means some caller broke
//! the protocol (e.g. held two sessions on one thread), and a timeout
//! bounds how long any acquisition may block. Both turn a would-be hang
//! into a structured, reportable error.

/// A failure from [`crate::Session::acquire_all_checked`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MgLockError {
    /// The acquisition exceeded [`crate::RuntimeConfig::acquire_timeout`].
    /// Locks acquired earlier in the batch have been released.
    AcquireTimeout,
    /// The wait-for graph contains a cycle through this session — a
    /// locking-protocol violation (the protocol's global order makes
    /// cycles impossible for conforming callers). The cycle lists the
    /// runtime-assigned ids of the sessions involved, in canonical
    /// form: rotated so the smallest id comes first, making reports
    /// byte-identical regardless of which session on the cycle
    /// detected it.
    DeadlockDetected {
        /// Session ids (in [`crate::Session::new`] order per runtime)
        /// forming the cycle.
        cycle: Vec<u64>,
    },
}

impl std::fmt::Display for MgLockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MgLockError::AcquireTimeout => {
                write!(f, "lock acquisition timed out (partial batch released)")
            }
            MgLockError::DeadlockDetected { cycle } => {
                write!(
                    f,
                    "deadlock detected: wait-for cycle through sessions {cycle:?}"
                )
            }
        }
    }
}

impl std::error::Error for MgLockError {}
