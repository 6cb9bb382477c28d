//! Interpreter errors and the internal control-flow exception.

use lir::SectionId;
use std::fmt;

/// A runtime error from the interpreter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InterpError {
    /// Dereference of null or an out-of-range address.
    Fault {
        func: String,
        pc: usize,
        detail: String,
    },
    /// The heap is exhausted.
    OutOfMemory,
    /// `assert(x)` failed.
    AssertFailed { func: String, pc: usize },
    /// Division or remainder by zero.
    DivByZero { func: String, pc: usize },
    /// The entry function was not found.
    NoSuchFunction(String),
    /// Wrong number of arguments to the entry function.
    ArityMismatch {
        func: String,
        want: usize,
        got: usize,
    },
    /// A mode needed the transformed program but got atomic markers
    /// (or vice versa).
    NeedsTransformedProgram { section: SectionId },
    /// Theorem-1 violation found by the checker sentinel
    /// (`SentinelConfig::validate`): an in-section access no held lock
    /// licenses. The access was made and traced; nothing was recorded.
    Unprotected {
        func: String,
        pc: usize,
        addr: u64,
        write: bool,
        section: SectionId,
    },
    /// A fault-plan panic fired on this thread (see `crate::FaultPlan`).
    /// The worker unwound, its locks were released, and the remaining
    /// threads kept running.
    InjectedPanic { tid: u32 },
    /// A worker thread panicked for a reason other than fault injection
    /// (a genuine bug); the panic was contained and its locks released.
    WorkerPanicked { tid: u32, detail: String },
    /// The virtual-time scheduler wedged: every live thread was blocked
    /// waiting for a lock release that can no longer happen. Reported
    /// instead of hanging.
    SchedulerStalled { tid: u32 },
    /// An internal invariant failed; always a bug in the interpreter,
    /// reported as data instead of a panic so harnesses stay up.
    Internal { detail: String },
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::Fault { func, pc, detail } => {
                write!(f, "memory fault in `{func}` at {pc}: {detail}")
            }
            InterpError::OutOfMemory => write!(f, "heap exhausted"),
            InterpError::AssertFailed { func, pc } => {
                write!(f, "assertion failed in `{func}` at {pc}")
            }
            InterpError::DivByZero { func, pc } => {
                write!(f, "division by zero in `{func}` at {pc}")
            }
            InterpError::NoSuchFunction(name) => write!(f, "no function named `{name}`"),
            InterpError::ArityMismatch { func, want, got } => {
                write!(f, "`{func}` expects {want} arguments, got {got}")
            }
            InterpError::NeedsTransformedProgram { section } => {
                write!(
                    f,
                    "section #{} still has atomic markers; run the lock \
                     inference transformation first for this execution mode",
                    section.0
                )
            }
            InterpError::Unprotected {
                func,
                pc,
                addr,
                write,
                section,
            } => {
                write!(
                    f,
                    "UNPROTECTED {} of cell {addr} inside section #{} (in `{func}` at {pc})",
                    if *write { "write" } else { "read" },
                    section.0
                )
            }
            InterpError::InjectedPanic { tid } => {
                write!(f, "injected panic on thread {tid} (fault plan)")
            }
            InterpError::WorkerPanicked { tid, detail } => {
                write!(f, "worker thread {tid} panicked: {detail}")
            }
            InterpError::SchedulerStalled { tid } => {
                write!(
                    f,
                    "scheduler stalled: every live thread (incl. {tid}) is \
                     waiting on a release that cannot happen"
                )
            }
            InterpError::Internal { detail } => {
                write!(f, "internal interpreter invariant violated: {detail}")
            }
        }
    }
}

impl std::error::Error for InterpError {}

/// Internal non-local control flow: a real error, an STM conflict
/// that unwinds to the owning section for retry, or a scheduling point
/// that made another virtual thread the runner — which unwinds to
/// `Worker::resume`, leaving behind where to continue.
///
/// The error is boxed: every instruction returns a `Result<_, Exc>`,
/// and two words come back in registers where an inline
/// [`InterpError`] (two `String`s wide) would go through memory.
#[derive(Debug)]
pub(crate) enum Exc {
    Err(Box<InterpError>),
    Abort,
    Yield,
}

impl From<InterpError> for Exc {
    fn from(e: InterpError) -> Exc {
        Exc::Err(Box::new(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_instruction_result_is_two_words() {
        let word = std::mem::size_of::<usize>();
        assert_eq!(std::mem::size_of::<Exc>(), 2 * word);
        assert_eq!(std::mem::size_of::<Result<(), Exc>>(), 2 * word);
    }
}
