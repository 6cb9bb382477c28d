//! Surface abstract syntax, as produced by the parser.
//!
//! The surface language is a small C-like language with nested
//! expressions; [`crate::lower`] flattens it into the canonical
//! three-address IR the analysis consumes. Names are [`Symbol`]s of the
//! module's own [`Interner`] ([`SModule::names`]).

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

/// A surface expression.
#[derive(Clone, PartialEq, Debug)]
pub enum SExpr {
    /// A variable reference.
    Var(Symbol),
    /// An integer literal.
    Int(i64),
    /// The null location.
    Null,
    /// `*e`
    Deref(Box<SExpr>),
    /// `&lv`
    AddrOf(Box<SExpr>),
    /// `e->f` — field of the struct `e` points to.
    Arrow(Box<SExpr>, Symbol),
    /// `e[i]` — dynamic element of the array `e` points to.
    Index(Box<SExpr>, Box<SExpr>),
    /// `new S` — allocate a struct named `S`.
    NewStruct(Symbol),
    /// `new(n)` — allocate an array of `n` cells.
    NewArray(Box<SExpr>),
    /// `f(a, ..)` — direct call (functions or intrinsics).
    Call(Symbol, Vec<SExpr>),
    /// `a <op> b`
    Binop(BinKind, Box<SExpr>, Box<SExpr>),
    /// `!e`
    Not(Box<SExpr>),
    /// `-e`
    Neg(Box<SExpr>),
}

/// A surface statement.
#[derive(Clone, PartialEq, Debug)]
pub enum SStmt {
    /// `let x;` or `let x = e;`
    Let(Symbol, Option<SExpr>),
    /// `lv = e;`
    Assign(SExpr, SExpr),
    /// An expression evaluated for effect (a call).
    Expr(SExpr),
    /// `atomic { .. }`
    Atomic(Vec<SStmt>),
    /// `if (c) { .. } else { .. }`
    If(SExpr, Vec<SStmt>, Vec<SStmt>),
    /// `while (c) { .. }`
    While(SExpr, Vec<SStmt>),
    /// `return;` or `return e;`
    Return(Option<SExpr>),
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// A nested block (its own lexical scope).
    Block(Vec<SStmt>),
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
    pub body: Vec<SStmt>,
    /// Source line of the `fn` keyword (diagnostics).
    pub line: u32,
}

/// A parsed module: structs, globals, and functions, plus the interner
/// every [`Symbol`] in them resolves through.
#[derive(Clone, Debug, Default)]
pub struct SModule {
    pub names: Interner,
    pub structs: Vec<SStruct>,
    pub globals: Vec<Symbol>,
    pub funcs: Vec<SFunc>,
}

impl SModule {
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
            for st in &f.body {
                emit_stmt(&mut out, names, st, 1);
            }
            let _ = writeln!(out, "}}");
        }
        out
    }
}

fn emit_stmt(out: &mut String, names: &Interner, st: &SStmt, depth: usize) {
    use std::fmt::Write as _;
    let pad = "    ".repeat(depth);
    let expr = |e| emit_expr(names, e);
    let body = |out: &mut String, stmts: &[SStmt]| {
        for s in stmts {
            emit_stmt(out, names, s, depth + 1);
        }
    };
    match st {
        SStmt::Let(name, None) => {
            let _ = writeln!(out, "{pad}let {};", names.resolve(*name));
        }
        SStmt::Let(name, Some(e)) => {
            let _ = writeln!(out, "{pad}let {} = {};", names.resolve(*name), expr(e));
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
            if els.is_empty() {
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
fn emit_expr(names: &Interner, e: &SExpr) -> String {
    let emit_expr = |e| emit_expr(names, e);
    match e {
        SExpr::Var(x) => names.resolve(*x).to_owned(),
        SExpr::Int(n) => {
            if *n < 0 {
                format!("(0 - {})", n.unsigned_abs())
            } else {
                format!("{n}")
            }
        }
        SExpr::Null => "null".into(),
        SExpr::Deref(inner) => format!("(*{})", emit_expr(inner)),
        SExpr::AddrOf(inner) => format!("(&{})", emit_expr(inner)),
        SExpr::Arrow(base, f) => format!("({})->{}", emit_expr(base), names.resolve(*f)),
        SExpr::Index(base, i) => format!("({})[{}]", emit_expr(base), emit_expr(i)),
        SExpr::NewStruct(s) => format!("(new {})", names.resolve(*s)),
        SExpr::NewArray(n) => format!("(new({}))", emit_expr(n)),
        SExpr::Call(f, args) => {
            let args: Vec<String> = args.iter().map(emit_expr).collect();
            format!("{}({})", names.resolve(*f), args.join(", "))
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
