//! The canonical intermediate representation.
//!
//! Programs are lowered (see [`crate::lower`]) into the three-address
//! statement forms of the paper's Figure 3: `x = y`, `x = &y`, `x = *y`,
//! `x = y + f`, `x = new(n)`, `x = null`, `*x = y`, and calls
//! `x = f(a0, .., an)`, plus an integer/arithmetic extension that touches
//! no heap cell (documented in `DESIGN.md`). Atomic sections appear as
//! bracketing [`Instr::EnterAtomic`] / [`Instr::ExitAtomic`] markers; the
//! lock-inference transformation rewrites them to
//! [`Instr::AcquireAll`] / [`Instr::ReleaseAll`].

use crate::intern::{Interner, Symbol};
use std::collections::HashMap;
use std::fmt;

/// Index of a variable in [`Program::vars`]. Unique program-wide.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

/// Index of a field in [`Program::fields`]. Unique program-wide.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FieldId(pub u32);

/// Index of a function in [`Program::functions`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FnId(pub u32);

/// Identifier of an atomic section (program-wide).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SectionId(pub u32);

impl fmt::Debug for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}
impl fmt::Debug for FieldId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}
impl fmt::Debug for FnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fn{}", self.0)
    }
}
impl fmt::Debug for SectionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sec{}", self.0)
    }
}

/// A program point: the location *before* instruction `idx` of `func`.
///
/// `idx == body.len()` denotes the function's exit point.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Point {
    pub func: FnId,
    pub idx: u32,
}

impl fmt::Debug for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}@{}", self.func, self.idx)
    }
}

/// Storage class of a variable.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VarKind {
    /// Program-wide variable; its cell lives in the shared heap.
    Global,
    /// Function parameter.
    Param,
    /// User-declared local.
    Local,
    /// Compiler-introduced temporary (never address-taken).
    Temp,
    /// The distinguished `ret_f` variable of a function.
    Ret,
}

/// Metadata for one variable.
#[derive(Clone, Debug)]
pub struct VarInfo {
    pub name: Symbol,
    /// Owning function; `None` for globals.
    pub owner: Option<FnId>,
    pub kind: VarKind,
    /// Whether `&x` appears anywhere. Address-taken locals are given a
    /// shared heap cell by the interpreter and keep their variable locks.
    pub addr_taken: bool,
}

impl VarInfo {
    /// True for variables whose cell can only be touched by the owning
    /// thread: locals/params/temps whose address is never taken. The
    /// inference omits `x̄` locks for these (paper §4.3).
    pub fn is_thread_local(&self) -> bool {
        self.owner.is_some() && !self.addr_taken
    }
}

/// Metadata for one field offset.
#[derive(Clone, Debug)]
pub struct FieldInfo {
    pub name: Symbol,
    /// Concrete cell offset within the allocation.
    pub offset: usize,
    /// True for the distinguished dynamic-index pseudo-field `[]`.
    /// All array elements are modeled by this single abstract offset,
    /// exactly as the paper collapses array dereferences to field offsets.
    pub dynamic: bool,
}

/// Arithmetic operators of the integer extension.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
}

/// Comparison operators (also usable on locations, e.g. `x == null`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// Builtin operations provided by the runtime.
///
/// None of these touches a heap cell, so for lock inference they behave
/// like `x = null` (pure redefinition of the destination).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Intrinsic {
    /// `nops(n)`: spend `n` units of busy work (the paper dilutes atomic
    /// sections with nop loops; this is that knob).
    Nops,
    /// `rand(n)`: uniform value in `0..n` from the thread's PRNG.
    Rand,
    /// `tid()`: current thread index.
    Tid,
    /// `print(x)`: write the value to stdout (observable action —
    /// exactly what pessimistic atomic sections allow and STMs do not).
    Print,
    /// `assert(x)`: abort the interpreter if `x == 0`.
    Assert,
}

/// Right-hand sides of canonical assignments.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Rvalue {
    /// `x = y`
    Copy(VarId),
    /// `x = &y`
    AddrOf(VarId),
    /// `x = *y`
    Load(VarId),
    /// `x = y + f` — address of field `f` of the object `y` points to.
    FieldAddr(VarId, FieldId),
    /// `x = y +[z]` — address of dynamic element `z` of array `y`;
    /// abstracted as the `[]` pseudo-field for analysis purposes.
    DynAddr(VarId, VarId),
    /// `x = new(n)` with a constant cell count.
    Alloc(usize),
    /// `x = new(z)` with a dynamic cell count.
    AllocDyn(VarId),
    /// `x = null`
    Null,
    /// `x = c` (integer extension)
    ConstInt(i64),
    /// `x = y <op> z` (integer extension)
    Arith(ArithOp, VarId, VarId),
    /// `x = y <cmp> z`, producing 0 or 1 (integer extension)
    Cmp(CmpOp, VarId, VarId),
    /// `x = f(a0, .., an)`
    Call(FnId, Vec<VarId>),
    /// `x = intrinsic(a0, ..)`
    Intrinsic(Intrinsic, Vec<VarId>),
}

/// Access effect: read-only or read-write (the two-point lattice of §3.2,
/// `ro ⊑ rw`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum Eff {
    Ro,
    Rw,
}

impl Eff {
    /// Least upper bound in the effect lattice.
    pub fn join(self, other: Eff) -> Eff {
        if self == Eff::Rw || other == Eff::Rw {
            Eff::Rw
        } else {
            Eff::Ro
        }
    }

    /// The partial order `ro ⊑ rw`.
    pub fn leq(self, other: Eff) -> bool {
        self == Eff::Ro || other == Eff::Rw
    }
}

impl fmt::Display for Eff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Eff::Ro => write!(f, "ro"),
            Eff::Rw => write!(f, "rw"),
        }
    }
}

/// One step of a lock path expression.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum PathOp {
    /// Load the value stored at the current address.
    Deref,
    /// Add the offset of a field to the current address.
    Field(FieldId),
    /// Add the run-time value of a variable to the current address —
    /// a dynamic array index that is still in scope (and equal to its
    /// current value) at the section entry. This is how the paper's
    /// implementation gets a *single* fine-grain lock for `table[b]`
    /// (the runtime lock descriptor holds a concrete memory address).
    Index(VarId),
}

/// A lock path expression: an *address expression* evaluable at an
/// atomic-section entry.
///
/// Starting from the address of `base`, each [`PathOp`] is applied in
/// order. `PathExpr { base: x, ops: [] }` is the lock `x̄` (protecting the
/// variable cell of `x`); appending `Deref` yields `*x̄`, appending
/// `Field(f)` yields `· + f`.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct PathExpr {
    pub base: VarId,
    pub ops: Vec<PathOp>,
}

impl PathExpr {
    /// The length of the lock expression as counted for k-limiting: both
    /// offset operations and dereferences contribute (paper §6.2).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the expression is just a variable address `x̄`.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The lock `x̄`.
    pub fn var(base: VarId) -> Self {
        PathExpr {
            base,
            ops: Vec::new(),
        }
    }
}

/// A lock to acquire at an atomic-section entry, as embedded in the
/// transformed program. Mirrors the runtime's *lock descriptors* (§5.2):
/// a triple of an address expression (the `Σ_k` component), a points-to
/// set number (the `Σ≡` component), and an effect (the `Σ_ε` component).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum LockSpec {
    /// The global lock `⊤`.
    Global,
    /// A coarse-grain lock protecting the whole points-to partition.
    Coarse { pts: u32, eff: Eff },
    /// A fine-grain expression lock, evaluated at section entry.
    Fine { path: PathExpr, pts: u32, eff: Eff },
}

impl LockSpec {
    /// Effect of this lock.
    pub fn eff(&self) -> Eff {
        match self {
            LockSpec::Global => Eff::Rw,
            LockSpec::Coarse { eff, .. } | LockSpec::Fine { eff, .. } => *eff,
        }
    }

    /// True for fine-grain (single-location family) locks.
    pub fn is_fine(&self) -> bool {
        matches!(self, LockSpec::Fine { .. })
    }
}

/// A canonical instruction.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Instr {
    /// `x = rvalue`
    Assign(VarId, Rvalue),
    /// `*x = y`
    Store(VarId, VarId),
    /// Entry marker of an atomic section (input programs).
    EnterAtomic(SectionId),
    /// Exit marker of an atomic section (input programs).
    ExitAtomic(SectionId),
    /// `acquireAll(L)` (transformed programs).
    AcquireAll(SectionId, Vec<LockSpec>),
    /// `releaseAll` (transformed programs).
    ReleaseAll(SectionId),
    /// Unconditional jump to an instruction index in the same function.
    Jump(u32),
    /// Branch on `v != 0`: `(v, then_idx, else_idx)`.
    Branch(VarId, u32, u32),
    /// Return from the function (`ret_f` holds the return value).
    Ret,
    /// No operation (placeholder produced by lowering).
    Nop,
}

/// A function.
#[derive(Clone, Debug)]
pub struct Function {
    pub id: FnId,
    pub name: Symbol,
    pub params: Vec<VarId>,
    /// All locals, params, and temps owned by this function.
    pub locals: Vec<VarId>,
    /// The distinguished return-value variable `ret_f`.
    pub ret: VarId,
    pub body: Vec<Instr>,
}

/// A struct layout declared in the surface syntax.
#[derive(Clone, Debug)]
pub struct StructInfo {
    pub name: Symbol,
    pub fields: Vec<FieldId>,
}

/// A whole program in canonical IR.
#[derive(Clone, Debug, Default)]
pub struct Program {
    pub interner: Interner,
    pub vars: Vec<VarInfo>,
    pub fields: Vec<FieldInfo>,
    pub structs: Vec<StructInfo>,
    pub functions: Vec<Function>,
    pub globals: Vec<VarId>,
    /// Number of atomic sections (section ids are `0..n_sections`).
    pub n_sections: u32,
    fn_by_name: HashMap<Symbol, FnId>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// The distinguished dynamic-index pseudo-field `[]`, created on
    /// first use.
    pub fn elem_field(&mut self) -> FieldId {
        let name = self.interner.intern("[]");
        if let Some((i, _)) = self.fields.iter().enumerate().find(|(_, f)| f.dynamic) {
            debug_assert_eq!(self.fields[i].name, name);
            return FieldId(i as u32);
        }
        let id = FieldId(self.fields.len() as u32);
        self.fields.push(FieldInfo {
            name,
            offset: 0,
            dynamic: true,
        });
        id
    }

    /// Looks up the dynamic-index pseudo-field without creating it.
    pub fn elem_field_opt(&self) -> Option<FieldId> {
        self.fields
            .iter()
            .position(|f| f.dynamic)
            .map(|i| FieldId(i as u32))
    }

    /// Registers a fresh variable and returns its id.
    pub fn add_var(&mut self, info: VarInfo) -> VarId {
        let id = VarId(self.vars.len() as u32);
        if info.kind == VarKind::Global {
            self.globals.push(id);
        }
        self.vars.push(info);
        id
    }

    /// Registers a function shell; the body may be filled in later.
    pub fn add_function(&mut self, f: Function) -> FnId {
        let id = f.id;
        self.fn_by_name.insert(f.name, id);
        self.functions.push(f);
        id
    }

    /// Finds a function by source name.
    pub fn function_named(&self, name: &str) -> Option<FnId> {
        let sym = self.interner.get(name)?;
        self.fn_by_name.get(&sym).copied()
    }

    /// Accessor: function by id.
    pub fn func(&self, id: FnId) -> &Function {
        &self.functions[id.0 as usize]
    }

    /// Accessor: mutable function by id.
    pub fn func_mut(&mut self, id: FnId) -> &mut Function {
        &mut self.functions[id.0 as usize]
    }

    /// Accessor: variable metadata.
    pub fn var(&self, id: VarId) -> &VarInfo {
        &self.vars[id.0 as usize]
    }

    /// Accessor: field metadata.
    pub fn field(&self, id: FieldId) -> &FieldInfo {
        &self.fields[id.0 as usize]
    }

    /// Resolved name of a variable.
    pub fn var_name(&self, id: VarId) -> &str {
        self.interner.resolve(self.var(id).name)
    }

    /// Resolved name of a field.
    pub fn field_name(&self, id: FieldId) -> &str {
        self.interner.resolve(self.field(id).name)
    }

    /// Resolved name of a function.
    pub fn fn_name(&self, id: FnId) -> &str {
        self.interner.resolve(self.func(id).name)
    }

    /// Total instruction count across all functions (a size metric for
    /// the scalability experiments).
    pub fn instr_count(&self) -> usize {
        self.functions.iter().map(|f| f.body.len()).sum()
    }

    /// Allocates a fresh atomic-section id.
    pub fn fresh_section(&mut self) -> SectionId {
        let id = SectionId(self.n_sections);
        self.n_sections += 1;
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eff_lattice_laws() {
        use Eff::*;
        assert_eq!(Ro.join(Ro), Ro);
        assert_eq!(Ro.join(Rw), Rw);
        assert_eq!(Rw.join(Ro), Rw);
        assert!(Ro.leq(Rw));
        assert!(Ro.leq(Ro));
        assert!(Rw.leq(Rw));
        assert!(!Rw.leq(Ro));
    }

    #[test]
    fn elem_field_is_singleton() {
        let mut p = Program::new();
        let a = p.elem_field();
        let b = p.elem_field();
        assert_eq!(a, b);
        assert!(p.field(a).dynamic);
        assert_eq!(p.elem_field_opt(), Some(a));
    }

    #[test]
    fn path_expr_len_counts_all_ops() {
        let e = PathExpr {
            base: VarId(0),
            ops: vec![PathOp::Deref, PathOp::Field(FieldId(1)), PathOp::Deref],
        };
        assert_eq!(e.len(), 3);
        assert!(!e.is_empty());
        assert!(PathExpr::var(VarId(3)).is_empty());
    }

    #[test]
    fn thread_locality() {
        let mut p = Program::new();
        let n = p.interner.intern("x");
        let g = p.add_var(VarInfo {
            name: n,
            owner: None,
            kind: VarKind::Global,
            addr_taken: false,
        });
        let l = p.add_var(VarInfo {
            name: n,
            owner: Some(FnId(0)),
            kind: VarKind::Local,
            addr_taken: false,
        });
        let la = p.add_var(VarInfo {
            name: n,
            owner: Some(FnId(0)),
            kind: VarKind::Local,
            addr_taken: true,
        });
        assert!(!p.var(g).is_thread_local());
        assert!(p.var(l).is_thread_local());
        assert!(!p.var(la).is_thread_local());
        assert_eq!(p.globals, vec![g]);
    }

    #[test]
    fn fresh_sections_are_sequential() {
        let mut p = Program::new();
        assert_eq!(p.fresh_section(), SectionId(0));
        assert_eq!(p.fresh_section(), SectionId(1));
        assert_eq!(p.n_sections, 2);
    }
}
