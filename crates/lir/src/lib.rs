//! # lir — language and IR for the lock-inference compiler
//!
//! This crate implements the input language of *Inferring Locks for
//! Atomic Sections* (Cherem, Chilimbi, Gulwani; PLDI 2008), Figure 3:
//! a small pointer language with `atomic { .. }` sections, plus an
//! integer/arithmetic extension that makes the paper's benchmarks
//! expressible (documented in the repository's `DESIGN.md`).
//!
//! The pipeline is:
//!
//! 1. [`parser::parse`] — C-like surface syntax → [`ast::SModule`]. The
//!    parser pulls one token at a time from a [`lexer::Lexer`], which
//!    interns every identifier into the module's [`Interner`] as it
//!    scans, so tokens and AST names are [`Symbol`]s and no token list
//!    is built. The tree is `Copy` nodes linked by `u32` ids into three
//!    arenas of the module (expressions, statements, call arguments),
//!    and the parser bounds nesting at [`parser::MAX_DEPTH`] levels;
//! 2. [`lower::lower`] — AST → canonical three-address [`ir::Program`]
//!    (exactly the statement forms the paper's transfer functions
//!    consume). The program's interner starts as the module's, and
//!    names resolve through tables indexed by symbol, so each distinct
//!    name is hashed once per program;
//! 3. [`mod@cfg`] — successors/predecessors and atomic-region extraction.
//!
//! Use [`compile`] for steps 1–2 in one call:
//!
//! ```
//! let program = lir::compile(r#"
//!     struct list { head; }
//!     fn main(l) {
//!         atomic { l->head = null; }
//!     }
//! "#)?;
//! assert_eq!(program.n_sections, 1);
//! # Ok::<(), lir::lower::FrontendError>(())
//! ```
//!
//! The output language of the lock-inference transformation is the same
//! IR with [`ir::Instr::AcquireAll`] / [`ir::Instr::ReleaseAll`] in
//! place of the atomic markers.

pub mod ast;
pub mod cfg;
pub mod intern;
pub mod ir;
pub mod lexer;
pub mod lower;
pub mod parser;
pub mod pretty;

pub use intern::{Interner, Symbol};
pub use ir::{
    ArithOp, CmpOp, Eff, FieldId, FnId, Function, Instr, Intrinsic, LockSpec, PathExpr, PathOp,
    Point, Program, Rvalue, SectionId, VarId, VarInfo, VarKind,
};
pub use lower::compile;
