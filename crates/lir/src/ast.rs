//! Surface abstract syntax, as produced by the parser.
//!
//! The surface language is a small C-like language with nested
//! expressions; [`crate::lower`] flattens it into the canonical
//! three-address IR the analysis consumes. Names are [`Symbol`]s of the
//! module's own [`Interner`] ([`SModule::names`]).
//!
//! Nodes are `Copy` and name each other by index: an expression's
//! operands are [`ExprId`]s into [`SModule::exprs`], a block is a
//! [`Run`] of [`SModule::stmts`], and a call's arguments a run of
//! [`SModule::args`]. A module's whole tree is those three vectors.

use crate::intern::{Interner, Symbol};

/// Binary operators of the surface language.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BinKind {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    /// Short-circuit conjunction.
    And,
    /// Short-circuit disjunction.
    Or,
}

/// An expression's index in [`SModule::exprs`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ExprId(pub u32);

/// A run of consecutive arena entries: a block's statements in
/// [`SModule::stmts`], or a call's arguments in [`SModule::args`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Run {
    pub start: u32,
    pub len: u32,
}

impl Run {
    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// A surface expression: a node of [`SModule::exprs`], naming its
/// operands by id.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum SExpr {
    /// A variable reference.
    Var(Symbol),
    /// An integer literal.
    Int(i64),
    /// The null location.
    Null,
    /// `*e`
    Deref(ExprId),
    /// `&lv`
    AddrOf(ExprId),
    /// `e->f` — field of the struct `e` points to.
    Arrow(ExprId, Symbol),
    /// `e[i]` — dynamic element of the array `e` points to.
    Index(ExprId, ExprId),
    /// `new S` — allocate a struct named `S`.
    NewStruct(Symbol),
    /// `new(n)` — allocate an array of `n` cells.
    NewArray(ExprId),
    /// `f(a, ..)` — direct call (functions or intrinsics); the
    /// arguments are a run of [`SModule::args`].
    Call(Symbol, Run),
    /// `a <op> b`
    Binop(BinKind, ExprId, ExprId),
    /// `!e`
    Not(ExprId),
    /// `-e`
    Neg(ExprId),
}

/// A surface statement: a node of [`SModule::stmts`]. A block is a run
/// of that arena.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum SStmt {
    /// `let x;` or `let x = e;`
    Let(Symbol, Option<ExprId>),
    /// `lv = e;`
    Assign(ExprId, ExprId),
    /// An expression evaluated for effect (a call).
    Expr(ExprId),
    /// `atomic { .. }`
    Atomic(Run),
    /// `if (c) { .. } else { .. }`
    If(ExprId, Run, Run),
    /// `while (c) { .. }`
    While(ExprId, Run),
    /// `return;` or `return e;`
    Return(Option<ExprId>),
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// A nested block (its own lexical scope).
    Block(Run),
}

/// A struct declaration: an ordered list of field names.
#[derive(Clone, PartialEq, Debug)]
pub struct SStruct {
    pub name: Symbol,
    pub fields: Vec<Symbol>,
}

/// A function declaration.
#[derive(Clone, PartialEq, Debug)]
pub struct SFunc {
    pub name: Symbol,
    pub params: Vec<Symbol>,
    /// The body block, a run of [`SModule::stmts`].
    pub body: Run,
    /// Source line of the `fn` keyword (diagnostics).
    pub line: u32,
}

/// A parsed module: structs, globals, and functions, plus the interner
/// every [`Symbol`] in them resolves through and the three arenas the
/// function bodies live in. Nodes link to each other by index, so the
/// tree is these vectors and nothing else: dropping a module recurses
/// into nothing.
#[derive(Clone, Debug, Default)]
pub struct SModule {
    pub names: Interner,
    pub structs: Vec<SStruct>,
    pub globals: Vec<Symbol>,
    pub funcs: Vec<SFunc>,
    /// Every expression node.
    pub exprs: Vec<SExpr>,
    /// Every statement, each block's contiguous.
    pub stmts: Vec<SStmt>,
    /// Every call's arguments, each call's contiguous.
    pub args: Vec<ExprId>,
}

impl SModule {
    /// The expression `id`.
    pub fn expr(&self, id: ExprId) -> SExpr {
        self.exprs[id.0 as usize]
    }

    /// The statements of a block.
    pub fn block(&self, run: Run) -> &[SStmt] {
        &self.stmts[run.range()]
    }

    /// The arguments of a call.
    pub fn args(&self, run: Run) -> &[ExprId] {
        &self.args[run.range()]
    }

    /// Adds an expression node.
    pub fn push_expr(&mut self, e: SExpr) -> ExprId {
        self.exprs.push(e);
        ExprId(self.exprs.len() as u32 - 1)
    }

    /// Adds a block's statements as one run.
    pub fn push_block(&mut self, stmts: impl IntoIterator<Item = SStmt>) -> Run {
        let start = self.stmts.len();
        self.stmts.extend(stmts);
        run(start, self.stmts.len())
    }

    /// Adds a call's arguments as one run.
    pub fn push_args(&mut self, args: impl IntoIterator<Item = ExprId>) -> Run {
        let start = self.args.len();
        self.args.extend(args);
        run(start, self.args.len())
    }

    /// Emits surface syntax that parses back to this module (used by
    /// refactoring tools and by the parser round-trip property test).
    pub fn to_source(&self) -> String {
        use std::fmt::Write as _;
        let names = &self.names;
        let list = |syms: &[Symbol], sep: &str| {
            let texts: Vec<&str> = syms.iter().map(|s| names.resolve(*s)).collect();
            texts.join(sep)
        };
        let mut out = String::new();
        for s in &self.structs {
            let fields: Vec<String> = s
                .fields
                .iter()
                .map(|f| format!("{};", names.resolve(*f)))
                .collect();
            let name = names.resolve(s.name);
            let _ = writeln!(out, "struct {name} {{ {} }}", fields.join(" "));
        }
        if !self.globals.is_empty() {
            let _ = writeln!(out, "global {};", list(&self.globals, ", "));
        }
        for f in &self.funcs {
            let name = names.resolve(f.name);
            let _ = writeln!(out, "fn {name}({}) {{", list(&f.params, ", "));
            for &st in self.block(f.body) {
                emit_stmt(&mut out, self, st, 1);
            }
            let _ = writeln!(out, "}}");
        }
        out
    }
}

/// The run of arena entries `start..end`.
fn run(start: usize, end: usize) -> Run {
    Run {
        start: start as u32,
        len: (end - start) as u32,
    }
}

fn emit_stmt(out: &mut String, m: &SModule, st: SStmt, depth: usize) {
    use std::fmt::Write as _;
    let names = &m.names;
    let pad = "    ".repeat(depth);
    let expr = |e| emit_expr(m, e);
    let body = |out: &mut String, block: Run| {
        for &s in m.block(block) {
            emit_stmt(out, m, s, depth + 1);
        }
    };
    match st {
        SStmt::Let(name, None) => {
            let _ = writeln!(out, "{pad}let {};", names.resolve(name));
        }
        SStmt::Let(name, Some(e)) => {
            let _ = writeln!(out, "{pad}let {} = {};", names.resolve(name), expr(e));
        }
        SStmt::Assign(lv, e) => {
            let _ = writeln!(out, "{pad}{} = {};", expr(lv), expr(e));
        }
        SStmt::Expr(e) => {
            let _ = writeln!(out, "{pad}{};", expr(e));
        }
        SStmt::Atomic(stmts) => {
            let _ = writeln!(out, "{pad}atomic {{");
            body(out, stmts);
            let _ = writeln!(out, "{pad}}}");
        }
        SStmt::If(c, then, els) => {
            let _ = writeln!(out, "{pad}if ({}) {{", expr(c));
            body(out, then);
            if els.len == 0 {
                let _ = writeln!(out, "{pad}}}");
            } else {
                let _ = writeln!(out, "{pad}}} else {{");
                body(out, els);
                let _ = writeln!(out, "{pad}}}");
            }
        }
        SStmt::While(c, stmts) => {
            let _ = writeln!(out, "{pad}while ({}) {{", expr(c));
            body(out, stmts);
            let _ = writeln!(out, "{pad}}}");
        }
        SStmt::Return(None) => {
            let _ = writeln!(out, "{pad}return;");
        }
        SStmt::Return(Some(e)) => {
            let _ = writeln!(out, "{pad}return {};", expr(e));
        }
        SStmt::Break => {
            let _ = writeln!(out, "{pad}break;");
        }
        SStmt::Continue => {
            let _ = writeln!(out, "{pad}continue;");
        }
        SStmt::Block(stmts) => {
            let _ = writeln!(out, "{pad}{{");
            body(out, stmts);
            let _ = writeln!(out, "{pad}}}");
        }
    }
}

/// Fully parenthesized expression rendering — precedence-safe by
/// construction.
fn emit_expr(m: &SModule, e: ExprId) -> String {
    let names = &m.names;
    let emit_expr = |e| emit_expr(m, e);
    match m.expr(e) {
        SExpr::Var(x) => names.resolve(x).to_owned(),
        SExpr::Int(n) => {
            if n < 0 {
                format!("(0 - {})", n.unsigned_abs())
            } else {
                format!("{n}")
            }
        }
        SExpr::Null => "null".into(),
        SExpr::Deref(inner) => format!("(*{})", emit_expr(inner)),
        SExpr::AddrOf(inner) => format!("(&{})", emit_expr(inner)),
        SExpr::Arrow(base, f) => format!("({})->{}", emit_expr(base), names.resolve(f)),
        SExpr::Index(base, i) => format!("({})[{}]", emit_expr(base), emit_expr(i)),
        SExpr::NewStruct(s) => format!("(new {})", names.resolve(s)),
        SExpr::NewArray(n) => format!("(new({}))", emit_expr(n)),
        SExpr::Call(f, args) => {
            let args: Vec<String> = m.args(args).iter().map(|&a| emit_expr(a)).collect();
            format!("{}({})", names.resolve(f), args.join(", "))
        }
        SExpr::Binop(op, a, b) => {
            let sym = match op {
                BinKind::Add => "+",
                BinKind::Sub => "-",
                BinKind::Mul => "*",
                BinKind::Div => "/",
                BinKind::Rem => "%",
                BinKind::Eq => "==",
                BinKind::Ne => "!=",
                BinKind::Lt => "<",
                BinKind::Le => "<=",
                BinKind::Gt => ">",
                BinKind::Ge => ">=",
                BinKind::And => "&&",
                BinKind::Or => "||",
            };
            format!("({} {} {})", emit_expr(a), sym, emit_expr(b))
        }
        SExpr::Not(inner) => format!("(!{})", emit_expr(inner)),
        SExpr::Neg(inner) => format!("(-{})", emit_expr(inner)),
    }
}
