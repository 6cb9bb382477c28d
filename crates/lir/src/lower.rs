//! Lowering from surface AST to the canonical IR.
//!
//! Nested expressions are flattened to the three-address forms of the
//! paper's Figure 3 by introducing compiler temporaries. Field and array
//! accesses become explicit address computations (`FieldAddr`/`DynAddr`)
//! followed by `Load`/`Store`. Short-circuit `&&`/`||` lower to control
//! flow. Atomic sections become `EnterAtomic`/`ExitAtomic` brackets.

use crate::ast::*;
use crate::intern::{Interner, Symbol};
use crate::ir::*;
use std::fmt;

/// An error produced during lowering (name resolution, arity, etc.).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LowerError {
    pub message: String,
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lowering error: {}", self.message)
    }
}

impl std::error::Error for LowerError {}

/// Either a parse or a lowering error, from [`compile`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrontendError {
    Parse(crate::parser::ParseError),
    Lower(LowerError),
}

impl fmt::Display for FrontendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrontendError::Parse(e) => e.fmt(f),
            FrontendError::Lower(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for FrontendError {}

/// Parses and lowers `src` in one step.
///
/// # Errors
///
/// Returns the first parse or lowering error.
///
/// # Examples
///
/// ```
/// let p = lir::compile("fn main() { let x = new(4); x[0] = 7; }")?;
/// assert_eq!(p.functions.len(), 1);
/// # Ok::<(), lir::lower::FrontendError>(())
/// ```
pub fn compile(src: &str) -> Result<Program, FrontendError> {
    let module = crate::parser::parse(src).map_err(FrontendError::Parse)?;
    lower(&module).map_err(FrontendError::Lower)
}

/// Lowers a parsed module to canonical IR.
///
/// The program's interner starts as a copy of the module's, so every
/// source name keeps its [`crate::Symbol`] and names resolve through
/// tables indexed by symbol.
///
/// # Errors
///
/// Reports unresolved names, arity mismatches, conflicting field
/// offsets, `return` inside `atomic`, and `break`/`continue` outside
/// loops.
pub fn lower(module: &SModule) -> Result<Program, LowerError> {
    let mut program = Program::new();
    program.interner = module.names.clone();
    // Reserve the dynamic pseudo-field first so tests get stable ids.
    program.elem_field();
    let mut lw = Lowerer {
        ast: module,
        tables: Tables::new(&module.names),
        bindings: vec![UNBOUND; module.names.len()],
        program,
        undo: Vec::new(),
        scope: 0,
        temp_names: Vec::new(),
        func: FnId(0),
        ret: VarId(0),
        fn_name: Symbol(0),
        locals: Vec::new(),
        instrs: Vec::new(),
        loops: Vec::new(),
        atomic_depth: 0,
        n_temps: 0,
    };
    lw.declarations(module)?;
    for (i, f) in module.funcs.iter().enumerate() {
        lw.function(FnId(i as u32), f)?;
    }
    Ok(lw.program)
}

fn err<T>(message: String) -> Result<T, LowerError> {
    Err(LowerError { message })
}

/// "No entry" in a symbol-indexed table.
const NONE: u32 = u32::MAX;

/// What each source name means at module level, indexed by [`Symbol`].
struct Tables {
    /// Index into [`Program::structs`].
    structs: Vec<u32>,
    fields: Vec<u32>,
    globals: Vec<u32>,
    fns: Vec<u32>,
    intrinsics: Vec<Option<(Intrinsic, usize)>>,
    /// Parameter count, indexed by [`FnId`].
    arity: Vec<usize>,
}

impl Tables {
    fn new(names: &Interner) -> Self {
        let n = names.len();
        let mut intrinsics = vec![None; n];
        for (name, intr, arity) in [
            ("nops", Intrinsic::Nops, 1),
            ("rand", Intrinsic::Rand, 1),
            ("tid", Intrinsic::Tid, 0),
            ("print", Intrinsic::Print, 1),
            ("assert", Intrinsic::Assert, 1),
        ] {
            if let Some(s) = names.get(name) {
                intrinsics[s.0 as usize] = Some((intr, arity));
            }
        }
        Tables {
            structs: vec![NONE; n],
            fields: vec![NONE; n],
            globals: vec![NONE; n],
            fns: vec![NONE; n],
            intrinsics,
            arity: Vec::new(),
        }
    }
}

fn lookup(table: &[u32], name: Symbol) -> Option<u32> {
    let v = table[name.0 as usize];
    (v != NONE).then_some(v)
}

/// The local a name is bound to, and the scope that bound it.
#[derive(Clone, Copy)]
struct Binding {
    var: u32,
    scope: u32,
}

const UNBOUND: Binding = Binding {
    var: NONE,
    scope: 0,
};

struct LoopCtx {
    continue_target: u32,
    break_patches: Vec<usize>,
}

struct Lowerer<'a> {
    /// The module being lowered: its arenas hold the bodies.
    ast: &'a SModule,
    program: Program,
    tables: Tables,
    /// The innermost local each source name is bound to. Scopes are
    /// this one table plus `undo`: a declaration logs the binding it
    /// hides, and leaving a scope restores what its declarations hid.
    bindings: Vec<Binding>,
    undo: Vec<(Symbol, Binding)>,
    /// Nesting depth of the current scope (the function's is 0).
    scope: u32,
    /// `t$N` interned once per `N` for the whole program.
    temp_names: Vec<Symbol>,
    // The function being lowered.
    func: FnId,
    ret: VarId,
    fn_name: Symbol,
    locals: Vec<VarId>,
    instrs: Vec<Instr>,
    loops: Vec<LoopCtx>,
    atomic_depth: u32,
    n_temps: u32,
}

impl Lowerer<'_> {
    fn text(&self, name: Symbol) -> &str {
        self.program.interner.resolve(name)
    }

    /// Structs, their fields, globals and function names, in the order
    /// the errors about them are reported.
    fn declarations(&mut self, module: &SModule) -> Result<(), LowerError> {
        for s in &module.structs {
            if lookup(&self.tables.structs, s.name).is_some() {
                return err(format!("struct `{}` declared twice", self.text(s.name)));
            }
            let mut fids = Vec::new();
            for (offset, &fname) in s.fields.iter().enumerate() {
                if let Some(existing) = lookup(&self.tables.fields, fname) {
                    let info = self.program.field(FieldId(existing));
                    if info.offset != offset {
                        return err(format!(
                            "field `{}` declared at conflicting offsets {} and {offset}; \
                             field names must resolve to a single offset in this untyped language",
                            self.text(fname),
                            info.offset
                        ));
                    }
                    fids.push(FieldId(existing));
                } else {
                    let id = FieldId(self.program.fields.len() as u32);
                    self.program.fields.push(FieldInfo {
                        name: fname,
                        offset,
                        dynamic: false,
                    });
                    self.tables.fields[fname.0 as usize] = id.0;
                    fids.push(id);
                }
            }
            self.tables.structs[s.name.0 as usize] = self.program.structs.len() as u32;
            self.program.structs.push(StructInfo {
                name: s.name,
                fields: fids,
            });
        }
        for &g in &module.globals {
            if lookup(&self.tables.globals, g).is_some() {
                return err(format!("global `{}` declared twice", self.text(g)));
            }
            let id = self.program.add_var(VarInfo {
                name: g,
                owner: None,
                kind: VarKind::Global,
                addr_taken: false,
            });
            self.tables.globals[g.0 as usize] = id.0;
        }
        // Collect function names first so calls can be forward.
        for (i, f) in module.funcs.iter().enumerate() {
            if lookup(&self.tables.fns, f.name).is_some() {
                return err(format!("function `{}` declared twice", self.text(f.name)));
            }
            if self.tables.intrinsics[f.name.0 as usize].is_some() {
                return err(format!(
                    "function `{}` shadows an intrinsic",
                    self.text(f.name)
                ));
            }
            self.tables.fns[f.name.0 as usize] = i as u32;
            self.tables.arity.push(f.params.len());
        }
        Ok(())
    }

    fn function(&mut self, id: FnId, f: &SFunc) -> Result<(), LowerError> {
        let ret_name = format!("ret${}", self.text(f.name));
        let ret_sym = self.program.interner.intern(&ret_name);
        let ret = self.program.add_var(VarInfo {
            name: ret_sym,
            owner: Some(id),
            kind: VarKind::Ret,
            addr_taken: false,
        });
        self.func = id;
        self.ret = ret;
        self.fn_name = f.name;
        self.n_temps = 0;
        let mut params = Vec::with_capacity(f.params.len());
        for &p in &f.params {
            params.push(self.declare(p, VarKind::Param)?);
        }
        self.stmts(f.body)?;
        self.instrs.push(Instr::Ret);
        self.unbind_to(0);
        // The scratch vectors keep their capacity for the next function;
        // the function gets exactly what it holds.
        self.locals.push(ret);
        let locals = self.locals.drain(..).collect();
        let body = self.instrs.drain(..).collect();
        self.program.add_function(Function {
            id,
            name: f.name,
            params,
            locals,
            ret,
            body,
        });
        Ok(())
    }

    fn emit(&mut self, i: Instr) -> usize {
        self.instrs.push(i);
        self.instrs.len() - 1
    }

    fn here(&self) -> u32 {
        self.instrs.len() as u32
    }

    fn declare(&mut self, name: Symbol, kind: VarKind) -> Result<VarId, LowerError> {
        let hidden = self.bindings[name.0 as usize];
        if hidden.var != NONE && hidden.scope == self.scope {
            return err(format!(
                "`{}` declared twice in the same scope of `{}`",
                self.text(name),
                self.text(self.fn_name)
            ));
        }
        let v = self.program.add_var(VarInfo {
            name,
            owner: Some(self.func),
            kind,
            addr_taken: false,
        });
        self.undo.push((name, hidden));
        self.bindings[name.0 as usize] = Binding {
            var: v.0,
            scope: self.scope,
        };
        self.locals.push(v);
        Ok(v)
    }

    /// Restores every binding declared since `mark`.
    fn unbind_to(&mut self, mark: usize) {
        for (name, hidden) in self.undo.drain(mark..).rev() {
            self.bindings[name.0 as usize] = hidden;
        }
    }

    fn temp(&mut self) -> VarId {
        let n = self.n_temps as usize;
        self.n_temps += 1;
        if n == self.temp_names.len() {
            let sym = self.program.interner.intern(&format!("t${n}"));
            self.temp_names.push(sym);
        }
        let v = self.program.add_var(VarInfo {
            name: self.temp_names[n],
            owner: Some(self.func),
            kind: VarKind::Temp,
            addr_taken: false,
        });
        self.locals.push(v);
        v
    }

    fn resolve(&self, name: Symbol) -> Result<VarId, LowerError> {
        let b = self.bindings[name.0 as usize];
        if b.var != NONE {
            return Ok(VarId(b.var));
        }
        match lookup(&self.tables.globals, name) {
            Some(v) => Ok(VarId(v)),
            None => err(format!(
                "unresolved name `{}` in `{}`",
                self.text(name),
                self.text(self.fn_name)
            )),
        }
    }

    fn stmts(&mut self, body: Run) -> Result<(), LowerError> {
        let ast = self.ast;
        for &s in ast.block(body) {
            self.stmt(s)?;
        }
        Ok(())
    }

    fn scoped(&mut self, body: Run) -> Result<(), LowerError> {
        let mark = self.undo.len();
        self.scope += 1;
        let r = self.stmts(body);
        self.scope -= 1;
        self.unbind_to(mark);
        r
    }
    fn stmt(&mut self, s: SStmt) -> Result<(), LowerError> {
        match s {
            SStmt::Let(name, init) => {
                let v = self.declare(name, VarKind::Local)?;
                match init {
                    Some(e) => self.lower_into(e, v)?,
                    None => {
                        self.emit(Instr::Assign(v, Rvalue::Null));
                    }
                }
                Ok(())
            }
            SStmt::Assign(lv, e) => match self.ast.expr(lv) {
                SExpr::Var(name) => {
                    let v = self.resolve(name)?;
                    self.lower_into(e, v)
                }
                _ => {
                    let rhs = self.lower_val(e)?;
                    let addr = self.lower_addr(lv)?;
                    self.emit(Instr::Store(addr, rhs));
                    Ok(())
                }
            },
            SStmt::Expr(e) => {
                self.lower_val(e)?;
                Ok(())
            }
            SStmt::Atomic(body) => {
                let sid = self.program.fresh_section();
                self.atomic_depth += 1;
                self.emit(Instr::EnterAtomic(sid));
                let r = self.scoped(body);
                self.emit(Instr::ExitAtomic(sid));
                self.atomic_depth -= 1;
                r
            }
            SStmt::If(c, then, els) => {
                let cv = self.lower_val(c)?;
                let br = self.emit(Instr::Branch(cv, 0, 0));
                let then_start = self.here();
                self.scoped(then)?;
                if els.len == 0 {
                    let end = self.here();
                    self.instrs[br] = Instr::Branch(cv, then_start, end);
                } else {
                    let jmp = self.emit(Instr::Jump(0));
                    let else_start = self.here();
                    self.scoped(els)?;
                    let end = self.here();
                    self.instrs[br] = Instr::Branch(cv, then_start, else_start);
                    self.instrs[jmp] = Instr::Jump(end);
                }
                Ok(())
            }
            SStmt::While(c, body) => {
                let head = self.here();
                let cv = self.lower_val(c)?;
                let br = self.emit(Instr::Branch(cv, 0, 0));
                let body_start = self.here();
                self.loops.push(LoopCtx {
                    continue_target: head,
                    break_patches: Vec::new(),
                });
                self.scoped(body)?;
                self.emit(Instr::Jump(head));
                let end = self.here();
                self.instrs[br] = Instr::Branch(cv, body_start, end);
                let lp = self.loops.pop().unwrap();
                for site in lp.break_patches {
                    self.instrs[site] = Instr::Jump(end);
                }
                Ok(())
            }
            SStmt::Return(e) => {
                if self.atomic_depth > 0 {
                    return err(format!(
                        "`return` inside `atomic` is not supported (function `{}`)",
                        self.text(self.fn_name)
                    ));
                }
                let ret = self.ret;
                match e {
                    Some(e) => self.lower_into(e, ret)?,
                    None => {
                        self.emit(Instr::Assign(ret, Rvalue::Null));
                    }
                }
                self.emit(Instr::Ret);
                Ok(())
            }
            SStmt::Break => {
                if self.atomic_depth > 0 && !self.loop_inside_atomic() {
                    return err(format!(
                        "`break` crossing an `atomic` boundary in `{}`",
                        self.text(self.fn_name)
                    ));
                }
                match self.loops.last_mut() {
                    Some(_) => {
                        let site = self.emit(Instr::Jump(0));
                        self.loops.last_mut().unwrap().break_patches.push(site);
                        Ok(())
                    }
                    None => err(format!(
                        "`break` outside a loop in `{}`",
                        self.text(self.fn_name)
                    )),
                }
            }
            SStmt::Continue => match self.loops.last() {
                Some(lp) => {
                    let target = lp.continue_target;
                    self.emit(Instr::Jump(target));
                    Ok(())
                }
                None => err(format!(
                    "`continue` outside a loop in `{}`",
                    self.text(self.fn_name)
                )),
            },
            SStmt::Block(body) => self.scoped(body),
        }
    }

    /// Conservative check: `break` is fine if the innermost loop started
    /// inside the current atomic section. We track this approximately by
    /// requiring that loops and atomic sections are properly nested,
    /// which the grammar guarantees; only a `break` whose loop is
    /// *outside* the atomic section would jump across the boundary.
    fn loop_inside_atomic(&self) -> bool {
        // Loops opened after the current atomic section began have a
        // continue target that is >= the EnterAtomic index. Find the most
        // recent EnterAtomic without a matching Exit.
        let mut depth = 0i32;
        let mut enter_idx = None;
        for (i, ins) in self.instrs.iter().enumerate().rev() {
            match ins {
                Instr::ExitAtomic(_) => depth += 1,
                Instr::EnterAtomic(_) => {
                    if depth == 0 {
                        enter_idx = Some(i as u32);
                        break;
                    }
                    depth -= 1;
                }
                _ => {}
            }
        }
        match (enter_idx, self.loops.last()) {
            (Some(e), Some(lp)) => lp.continue_target >= e,
            _ => true,
        }
    }

    /// Lowers `e` directly into destination variable `dest` where
    /// possible (avoiding a temp + copy).
    fn lower_into(&mut self, e: ExprId, dest: VarId) -> Result<(), LowerError> {
        match self.ast.expr(e) {
            SExpr::Var(name) => {
                let v = self.resolve(name)?;
                self.emit(Instr::Assign(dest, Rvalue::Copy(v)));
            }
            SExpr::Int(n) => {
                self.emit(Instr::Assign(dest, Rvalue::ConstInt(n)));
            }
            SExpr::Null => {
                self.emit(Instr::Assign(dest, Rvalue::Null));
            }
            SExpr::Deref(inner) => {
                let a = self.lower_val(inner)?;
                self.emit(Instr::Assign(dest, Rvalue::Load(a)));
            }
            SExpr::Arrow(..) | SExpr::Index(..) => {
                let addr = self.lower_addr(e)?;
                self.emit(Instr::Assign(dest, Rvalue::Load(addr)));
            }
            SExpr::AddrOf(lv) => {
                let rv = self.addr_rvalue(lv)?;
                self.emit(Instr::Assign(dest, rv));
            }
            SExpr::NewStruct(name) => {
                let Some(si) = lookup(&self.tables.structs, name) else {
                    return err(format!("unknown struct `{}`", self.text(name)));
                };
                let size = self.program.structs[si as usize].fields.len().max(1);
                self.emit(Instr::Assign(dest, Rvalue::Alloc(size)));
            }
            SExpr::NewArray(n) => match self.ast.expr(n) {
                SExpr::Int(k) if k >= 0 => {
                    self.emit(Instr::Assign(dest, Rvalue::Alloc(k as usize)));
                }
                _ => {
                    let v = self.lower_val(n)?;
                    self.emit(Instr::Assign(dest, Rvalue::AllocDyn(v)));
                }
            },
            SExpr::Call(name, args) => {
                let rv = self.call_rvalue(name, args)?;
                self.emit(Instr::Assign(dest, rv));
            }
            SExpr::Binop(kind, a, b) => match binop_class(kind) {
                OpClass::Arith(op) => {
                    let va = self.lower_val(a)?;
                    let vb = self.lower_val(b)?;
                    self.emit(Instr::Assign(dest, Rvalue::Arith(op, va, vb)));
                }
                OpClass::Cmp(op) => {
                    let va = self.lower_val(a)?;
                    let vb = self.lower_val(b)?;
                    self.emit(Instr::Assign(dest, Rvalue::Cmp(op, va, vb)));
                }
                OpClass::And => self.lower_short_circuit(a, b, true, dest)?,
                OpClass::Or => self.lower_short_circuit(a, b, false, dest)?,
            },
            SExpr::Not(inner) => {
                let v = self.lower_val(inner)?;
                let z = self.temp();
                self.emit(Instr::Assign(z, Rvalue::ConstInt(0)));
                self.emit(Instr::Assign(dest, Rvalue::Cmp(CmpOp::Eq, v, z)));
            }
            SExpr::Neg(inner) => {
                let v = self.lower_val(inner)?;
                let z = self.temp();
                self.emit(Instr::Assign(z, Rvalue::ConstInt(0)));
                self.emit(Instr::Assign(dest, Rvalue::Arith(ArithOp::Sub, z, v)));
            }
        }
        Ok(())
    }

    /// Lowers `e` to a variable holding its value.
    fn lower_val(&mut self, e: ExprId) -> Result<VarId, LowerError> {
        if let SExpr::Var(name) = self.ast.expr(e) {
            return self.resolve(name);
        }
        let t = self.temp();
        self.lower_into(e, t)?;
        Ok(t)
    }

    /// Lowers an lvalue to a variable holding the *address* of the
    /// denoted cell.
    fn lower_addr(&mut self, lv: ExprId) -> Result<VarId, LowerError> {
        let rv = self.addr_rvalue(lv)?;
        if let Rvalue::Copy(v) = rv {
            return Ok(v);
        }
        let t = self.temp();
        self.emit(Instr::Assign(t, rv));
        Ok(t)
    }

    /// The rvalue computing the address of an lvalue.
    fn addr_rvalue(&mut self, lv: ExprId) -> Result<Rvalue, LowerError> {
        match self.ast.expr(lv) {
            SExpr::Var(name) => {
                let v = self.resolve(name)?;
                self.program.vars[v.0 as usize].addr_taken = true;
                Ok(Rvalue::AddrOf(v))
            }
            SExpr::Deref(inner) => {
                let v = self.lower_val(inner)?;
                Ok(Rvalue::Copy(v))
            }
            SExpr::Arrow(base, fname) => {
                let b = self.lower_val(base)?;
                let Some(f) = lookup(&self.tables.fields, fname) else {
                    return err(format!(
                        "unknown field `{}` in `{}`",
                        self.text(fname),
                        self.text(self.fn_name)
                    ));
                };
                Ok(Rvalue::FieldAddr(b, FieldId(f)))
            }
            SExpr::Index(base, idx) => {
                let b = self.lower_val(base)?;
                let i = self.lower_val(idx)?;
                Ok(Rvalue::DynAddr(b, i))
            }
            _ => err(format!("not an lvalue in `{}`", self.text(self.fn_name))),
        }
    }

    fn call_rvalue(&mut self, name: Symbol, args: Run) -> Result<Rvalue, LowerError> {
        let ast = self.ast;
        let mut vals = Vec::with_capacity(args.len as usize);
        for &a in ast.args(args) {
            vals.push(self.lower_val(a)?);
        }
        if let Some((intr, n)) = self.tables.intrinsics[name.0 as usize] {
            if vals.len() != n {
                return err(format!(
                    "intrinsic `{}` expects {n} argument(s), got {}",
                    self.text(name),
                    vals.len()
                ));
            }
            return Ok(Rvalue::Intrinsic(intr, vals));
        }
        let Some(fid) = lookup(&self.tables.fns, name) else {
            return err(format!("unknown function `{}`", self.text(name)));
        };
        let want = self.tables.arity[fid as usize];
        if vals.len() != want {
            return err(format!(
                "function `{}` expects {want} argument(s), got {}",
                self.text(name),
                vals.len()
            ));
        }
        Ok(Rvalue::Call(FnId(fid), vals))
    }

    /// Short-circuit `&&` (is_and) / `||`, producing 0/1 into `dest`.
    fn lower_short_circuit(
        &mut self,
        a: ExprId,
        b: ExprId,
        is_and: bool,
        dest: VarId,
    ) -> Result<(), LowerError> {
        let va = self.lower_val(a)?;
        let br = self.emit(Instr::Branch(va, 0, 0));
        // Path where the second operand decides the result:
        let eval_b = self.here();
        let vb = self.lower_val(b)?;
        let z = self.temp();
        self.emit(Instr::Assign(z, Rvalue::ConstInt(0)));
        self.emit(Instr::Assign(dest, Rvalue::Cmp(CmpOp::Ne, vb, z)));
        let jmp = self.emit(Instr::Jump(0));
        // Path where the first operand decides the result:
        let decided = self.here();
        self.emit(Instr::Assign(
            dest,
            Rvalue::ConstInt(if is_and { 0 } else { 1 }),
        ));
        let end = self.here();
        self.instrs[br] = if is_and {
            Instr::Branch(va, eval_b, decided)
        } else {
            Instr::Branch(va, decided, eval_b)
        };
        self.instrs[jmp] = Instr::Jump(end);
        Ok(())
    }
}

enum OpClass {
    Arith(ArithOp),
    Cmp(CmpOp),
    And,
    Or,
}

fn binop_class(k: BinKind) -> OpClass {
    match k {
        BinKind::Add => OpClass::Arith(ArithOp::Add),
        BinKind::Sub => OpClass::Arith(ArithOp::Sub),
        BinKind::Mul => OpClass::Arith(ArithOp::Mul),
        BinKind::Div => OpClass::Arith(ArithOp::Div),
        BinKind::Rem => OpClass::Arith(ArithOp::Rem),
        BinKind::Eq => OpClass::Cmp(CmpOp::Eq),
        BinKind::Ne => OpClass::Cmp(CmpOp::Ne),
        BinKind::Lt => OpClass::Cmp(CmpOp::Lt),
        BinKind::Le => OpClass::Cmp(CmpOp::Le),
        BinKind::Gt => OpClass::Cmp(CmpOp::Gt),
        BinKind::Ge => OpClass::Cmp(CmpOp::Ge),
        BinKind::And => OpClass::And,
        BinKind::Or => OpClass::Or,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Instr as I;

    fn body(src: &str) -> (Program, Vec<Instr>) {
        let p = compile(src).unwrap();
        let b = p.functions[0].body.clone();
        (p, b)
    }

    #[test]
    fn lowers_field_store_to_canonical_forms() {
        let (p, b) = body("struct s { f; g; } fn main(p) { p->g = null; }");
        // t0 = p + g ; t1 = null; *t0 = t1  (order: rhs first, then addr)
        assert!(b
            .iter()
            .any(|i| matches!(i, I::Assign(_, Rvalue::FieldAddr(_, _)))));
        assert!(b.iter().any(|i| matches!(i, I::Store(_, _))));
        assert_eq!(p.functions[0].params.len(), 1);
    }

    #[test]
    fn lowers_index_to_dynaddr() {
        let (_, b) = body("fn main(a, i) { let x = a[i]; a[i] = x; }");
        let dyns = b
            .iter()
            .filter(|i| matches!(i, I::Assign(_, Rvalue::DynAddr(..))))
            .count();
        assert_eq!(dyns, 2);
    }

    #[test]
    fn atomic_brackets_are_emitted() {
        let (_, b) = body("fn main() { atomic { let x = 1; } }");
        assert!(matches!(b[0], I::EnterAtomic(SectionId(0))));
        assert!(b.iter().any(|i| matches!(i, I::ExitAtomic(SectionId(0)))));
    }

    #[test]
    fn short_circuit_and_lowers_to_branches() {
        let (_, b) = body("struct s { f; } fn main(x) { let c = x != null && x->f == null; }");
        // Must not unconditionally load x->f: there is a branch before it.
        let branch_pos = b.iter().position(|i| matches!(i, I::Branch(..))).unwrap();
        let load_pos = b
            .iter()
            .position(|i| matches!(i, I::Assign(_, Rvalue::Load(_))))
            .unwrap();
        assert!(branch_pos < load_pos);
    }

    #[test]
    fn while_loop_shape() {
        let (_, b) = body("struct s { f; } fn main(x) { while (x != null) { x = x->f; } }");
        let br = b.iter().find_map(|i| match i {
            I::Branch(_, t, e) => Some((*t, *e)),
            _ => None,
        });
        let (t, e) = br.unwrap();
        assert!(t < e, "then (body) comes before else (exit)");
        assert!(b.iter().any(|i| matches!(i, I::Jump(0)))); // back edge to head
    }

    #[test]
    fn break_and_continue_resolve() {
        let (_, b) =
            body("fn main(x) { while (1 == 1) { if (x == null) { break; } continue; } return x; }");
        // No unpatched Jump(0) to a Branch... just check all jumps in range.
        for i in &b {
            if let I::Jump(t) = i {
                assert!((*t as usize) <= b.len());
            }
        }
    }

    #[test]
    fn addr_of_marks_vars() {
        let (p, _) = body("fn main() { let x = null; let y = &x; }");
        let x = p
            .vars
            .iter()
            .position(|v| p.interner.resolve(v.name) == "x" && v.kind == VarKind::Local)
            .unwrap();
        assert!(p.vars[x].addr_taken);
    }

    #[test]
    fn rejects_return_inside_atomic() {
        assert!(compile("fn main() { atomic { return; } }").is_err());
    }

    #[test]
    fn rejects_unknown_names() {
        assert!(compile("fn main() { x = 1; }").is_err());
        assert!(compile("fn main() { let x = f(); }").is_err());
        assert!(compile("fn main(p) { let x = p->nope; }").is_err());
        assert!(compile("fn main() { let x = new nope; }").is_err());
    }

    #[test]
    fn rejects_arity_mismatch() {
        assert!(compile("fn f(a) { } fn main() { f(); }").is_err());
        assert!(compile("fn main() { nops(); }").is_err());
    }

    #[test]
    fn structs_share_fields_at_same_offset() {
        assert!(compile("struct a { x; } struct b { x; } fn main() {}").is_ok());
        assert!(compile("struct a { x; y; } struct b { y; } fn main() {}").is_err());
    }

    #[test]
    fn call_lowering() {
        let (p, b) = body("fn main(q) { let r = helper(q, q); } fn helper(a, b) { return a; }");
        assert!(b
            .iter()
            .any(|i| matches!(i, I::Assign(_, Rvalue::Call(FnId(1), args)) if args.len() == 2)));
        assert_eq!(p.functions.len(), 2);
    }

    #[test]
    fn nested_atomic_sections_get_distinct_ids() {
        let (p, b) = body("fn main() { atomic { atomic { let x = 1; } } }");
        assert_eq!(p.n_sections, 2);
        let enters: Vec<_> = b
            .iter()
            .filter_map(|i| match i {
                I::EnterAtomic(s) => Some(*s),
                _ => None,
            })
            .collect();
        assert_eq!(enters, vec![SectionId(0), SectionId(1)]);
    }
}
