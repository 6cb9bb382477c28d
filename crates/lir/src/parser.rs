//! Recursive-descent parser for the surface syntax.
//!
//! ```text
//! module  := (struct | global | fn)*
//! struct  := "struct" ident "{" (ident ";")* "}"
//! global  := "global" ident ("," ident)* ";"
//! fn      := "fn" ident "(" params? ")" block
//! stmt    := "let" ident ("=" expr)? ";"
//!          | "atomic" block
//!          | "if" "(" expr ")" block ("else" (block | ifstmt))?
//!          | "while" "(" expr ")" block
//!          | "return" expr? ";" | "break" ";" | "continue" ";"
//!          | block
//!          | lvalue "=" expr ";"
//!          | expr ";"
//! ```
//!
//! Expression precedence (low to high): `||`, `&&`, `==`/`!=`,
//! `<`/`<=`/`>`/`>=`, `+`/`-`, `*`/`/`/`%`, unary (`!` `-` `*` `&`),
//! postfix (`->f`, `[e]`, `(args)`).
//!
//! The parser pulls tokens from a [`Lexer`] one at a time and builds
//! the module's arenas bottom-up: a node is pushed when its parent is
//! built, and a block's statements (a call's arguments) wait on a
//! scratch stack until the block (list) closes and then move to the
//! arena as one run.
//!
//! Nesting is bounded by [`MAX_DEPTH`]: parsing, lowering and printing
//! recurse once per level, so the bound is what keeps a hostile source
//! from overflowing the stack. Dropping a module frees its vectors and
//! recurses into nothing.

use crate::ast::*;
use crate::intern::Symbol;
use crate::lexer::{LexError, Lexer, Spanned, Tok};
use std::fmt;

/// The deepest a module may nest. The levels on a path from a function
/// down to a leaf are its blocks (the function's own, `if`, `else`,
/// `while`, `atomic` and bare `{ }`), each `else if`, each pair of
/// parentheses and each expression node (operators, `->f`, `[e]`,
/// calls, `new(n)`, and the leaf itself); parsing rejects a module with
/// a longer path. A left-deep chain like `a + b + c` is one level per
/// operator. Parsing, lowering and printing recurse once per level;
/// dropping a module frees its arenas and recurses into nothing.
pub const MAX_DEPTH: u32 = 256;

/// A parse error with a source line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    pub line: u32,
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error on line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            line: e.line,
            message: e.message,
        }
    }
}

/// Parses a whole module from source text.
///
/// # Errors
///
/// Returns the source's first lexical error, wherever it lies;
/// otherwise the first syntactic error, or a nesting error past
/// [`MAX_DEPTH`].
///
/// # Examples
///
/// ```
/// let src = "fn main() { let x = 1; return x; }";
/// let module = lir::parser::parse(src)?;
/// assert_eq!(module.funcs.len(), 1);
/// assert_eq!(module.names.resolve(module.funcs[0].name), "main");
/// # Ok::<(), lir::parser::ParseError>(())
/// ```
pub fn parse(src: &str) -> Result<SModule, ParseError> {
    let mut p = Parser {
        lexer: Lexer::new(src),
        cur: Spanned {
            tok: Tok::Eof,
            line: 1,
        },
        lex_error: None,
        depth: 0,
        m: SModule::default(),
        open_stmts: Vec::new(),
        open_args: Vec::new(),
    };
    p.bump();
    let parsed = p.module();
    // A lex error anywhere in the source beats a parse error before it,
    // so a failed parse lexes on to the end.
    if let Some(e) = p.lex_rest() {
        return Err(e.into());
    }
    parsed?;
    let mut m = p.m;
    m.names = p.lexer.into_names();
    Ok(m)
}

/// An expression not yet in the arena, and its height: the levels
/// from it down to its deepest leaf, counted as [`MAX_DEPTH`] counts
/// them. The parent that takes it as an operand pushes it, so a name
/// that turns out to be a callee never becomes a node.
type Expr = (SExpr, u32);

struct Parser<'a> {
    lexer: Lexer<'a>,
    /// The current token: the parser's one token of lookahead.
    cur: Spanned,
    /// The lexer's error, once it has met one; the current token is
    /// then `Eof`.
    lex_error: Option<LexError>,
    /// Levels open above the current token.
    depth: u32,
    /// The module being built; its interner is the lexer's until
    /// [`parse`] is done.
    m: SModule,
    /// The statements of every block still open, innermost last.
    open_stmts: Vec<SStmt>,
    /// The arguments of every call still open, innermost last.
    open_args: Vec<ExprId>,
}

impl Parser<'_> {
    fn peek(&self) -> Tok {
        self.cur.tok
    }

    fn line(&self) -> u32 {
        self.cur.line
    }

    /// Pulls the next token. A lex error is kept for [`parse`] to
    /// report, and ends the token stream.
    fn bump(&mut self) {
        if self.lex_error.is_some() {
            return;
        }
        match self.lexer.token() {
            Ok(t) => self.cur = t,
            Err(e) => {
                self.cur.tok = Tok::Eof;
                self.lex_error = Some(e);
            }
        }
    }

    /// Lexes the rest of the source; its first error, if any.
    fn lex_rest(&mut self) -> Option<LexError> {
        while self.lex_error.is_none() && self.peek() != Tok::Eof {
            self.bump();
        }
        self.lex_error.take()
    }

    fn push(&mut self, e: SExpr) -> ExprId {
        self.m.push_expr(e)
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            line: self.line(),
            message: msg.into(),
        })
    }

    fn found(&self) -> String {
        self.peek().describe(self.lexer.names())
    }

    fn expect(&mut self, t: Tok) -> Result<(), ParseError> {
        if self.peek() == t {
            self.bump();
            Ok(())
        } else {
            let want = t.describe(self.lexer.names());
            self.err(format!("expected {want}, found {}", self.found()))
        }
    }

    fn eat(&mut self, t: Tok) -> bool {
        if self.peek() == t {
            self.bump();
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<Symbol, ParseError> {
        match self.peek() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            _ => self.err(format!("expected identifier, found {}", self.found())),
        }
    }

    fn too_deep<T>(&self) -> Result<T, ParseError> {
        self.err(format!("nesting deeper than {MAX_DEPTH} levels"))
    }

    /// Runs `f` one level further down.
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth == MAX_DEPTH {
            return self.too_deep();
        }
        self.depth += 1;
        let r = f(self);
        self.depth -= 1;
        r
    }

    /// Admits an expression node of height `h` built at this level.
    /// Checking every node, not only each statement's root, keeps the
    /// tree a failed parse drops as shallow as an accepted one.
    fn node(&self, h: u32) -> Result<u32, ParseError> {
        if self.depth + h > MAX_DEPTH {
            return self.too_deep();
        }
        Ok(h)
    }

    fn module(&mut self) -> Result<(), ParseError> {
        loop {
            match self.peek() {
                Tok::Eof => break,
                Tok::Struct => {
                    self.bump();
                    let name = self.ident()?;
                    self.expect(Tok::LBrace)?;
                    let mut fields = Vec::new();
                    while !self.eat(Tok::RBrace) {
                        fields.push(self.ident()?);
                        self.expect(Tok::Semi)?;
                    }
                    self.m.structs.push(SStruct { name, fields });
                }
                Tok::Global => {
                    self.bump();
                    loop {
                        let g = self.ident()?;
                        self.m.globals.push(g);
                        if !self.eat(Tok::Comma) {
                            break;
                        }
                    }
                    self.expect(Tok::Semi)?;
                }
                Tok::Fn => {
                    let line = self.line();
                    self.bump();
                    let name = self.ident()?;
                    self.expect(Tok::LParen)?;
                    let mut params = Vec::new();
                    if !self.eat(Tok::RParen) {
                        loop {
                            params.push(self.ident()?);
                            if self.eat(Tok::RParen) {
                                break;
                            }
                            self.expect(Tok::Comma)?;
                        }
                    }
                    let body = self.block()?;
                    self.m.funcs.push(SFunc {
                        name,
                        params,
                        body,
                        line,
                    });
                }
                _ => return self.err(format!("expected item, found {}", self.found())),
            }
        }
        Ok(())
    }

    fn block(&mut self) -> Result<Run, ParseError> {
        self.expect(Tok::LBrace)?;
        self.nested(|p| {
            let open = p.open_stmts.len();
            while !p.eat(Tok::RBrace) {
                let s = p.stmt()?;
                p.open_stmts.push(s);
            }
            Ok(p.m.push_block(p.open_stmts.drain(open..)))
        })
    }

    fn stmt(&mut self) -> Result<SStmt, ParseError> {
        match self.peek() {
            Tok::Let => {
                self.bump();
                let name = self.ident()?;
                let init = if self.eat(Tok::Assign) {
                    let e = self.expr()?;
                    Some(self.push(e))
                } else {
                    None
                };
                self.expect(Tok::Semi)?;
                Ok(SStmt::Let(name, init))
            }
            Tok::Atomic => {
                self.bump();
                Ok(SStmt::Atomic(self.block()?))
            }
            Tok::If => self.if_stmt(),
            Tok::While => {
                self.bump();
                self.expect(Tok::LParen)?;
                let cond = self.expr()?;
                let cond = self.push(cond);
                self.expect(Tok::RParen)?;
                Ok(SStmt::While(cond, self.block()?))
            }
            Tok::Return => {
                self.bump();
                let val = if self.peek() == Tok::Semi {
                    None
                } else {
                    let e = self.expr()?;
                    Some(self.push(e))
                };
                self.expect(Tok::Semi)?;
                Ok(SStmt::Return(val))
            }
            Tok::Break => {
                self.bump();
                self.expect(Tok::Semi)?;
                Ok(SStmt::Break)
            }
            Tok::Continue => {
                self.bump();
                self.expect(Tok::Semi)?;
                Ok(SStmt::Continue)
            }
            Tok::LBrace => Ok(SStmt::Block(self.block()?)),
            _ => {
                let e = self.expr()?;
                if self.eat(Tok::Assign) {
                    let rhs = self.expr()?;
                    self.expect(Tok::Semi)?;
                    if !is_lvalue(&e) {
                        return self.err("left-hand side of `=` is not assignable");
                    }
                    Ok(SStmt::Assign(self.push(e), self.push(rhs)))
                } else {
                    self.expect(Tok::Semi)?;
                    match e {
                        SExpr::Call(..) => Ok(SStmt::Expr(self.push(e))),
                        _ => self.err("only calls may be used as expression statements"),
                    }
                }
            }
        }
    }

    fn if_stmt(&mut self) -> Result<SStmt, ParseError> {
        self.expect(Tok::If)?;
        self.expect(Tok::LParen)?;
        let cond = self.expr()?;
        let cond = self.push(cond);
        self.expect(Tok::RParen)?;
        let then = self.block()?;
        let els = if self.eat(Tok::Else) {
            if self.peek() == Tok::If {
                let chained = self.nested(Self::if_stmt)?;
                self.m.push_block([chained])
            } else {
                self.block()?
            }
        } else {
            Run::default()
        };
        Ok(SStmt::If(cond, then, els))
    }

    /// A statement-level expression.
    fn expr(&mut self) -> Result<SExpr, ParseError> {
        Ok(self.binary(0)?.0)
    }

    /// An operand one level down: a parenthesised expression, an index,
    /// an argument, an array size.
    fn sub_expr(&mut self) -> Result<Expr, ParseError> {
        self.nested(|p| p.binary(0))
    }

    /// Binary operators of precedence `min` and up, left-associative
    /// (precedence climbing).
    fn binary(&mut self, min: u8) -> Result<Expr, ParseError> {
        let (mut lhs, mut h) = self.unary()?;
        while let Some((op, prec)) = binop(self.peek()) {
            if prec < min {
                break;
            }
            self.bump();
            let (rhs, rh) = self.nested(|p| p.binary(prec + 1))?;
            h = self.node(1 + h.max(rh))?;
            lhs = SExpr::Binop(op, self.push(lhs), self.push(rhs));
        }
        Ok((lhs, h))
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        let wrap: fn(ExprId) -> SExpr = match self.peek() {
            Tok::Bang => SExpr::Not,
            Tok::Minus => SExpr::Neg,
            Tok::Star => SExpr::Deref,
            Tok::Amp => SExpr::AddrOf,
            _ => return self.postfix(),
        };
        let addr_of = self.peek() == Tok::Amp;
        self.bump();
        let (inner, h) = self.nested(Self::unary)?;
        if addr_of && !is_lvalue(&inner) {
            return self.err("`&` requires an lvalue operand");
        }
        Ok((wrap(self.push(inner)), self.node(h + 1)?))
    }

    fn postfix(&mut self) -> Result<Expr, ParseError> {
        let (mut e, mut h) = self.primary()?;
        loop {
            match self.peek() {
                Tok::Arrow => {
                    self.bump();
                    let f = self.ident()?;
                    h = self.node(h + 1)?;
                    e = SExpr::Arrow(self.push(e), f);
                }
                Tok::LBracket => {
                    self.bump();
                    let (idx, ih) = self.sub_expr()?;
                    self.expect(Tok::RBracket)?;
                    h = self.node(1 + h.max(ih))?;
                    e = SExpr::Index(self.push(e), self.push(idx));
                }
                Tok::LParen => {
                    let SExpr::Var(name) = e else {
                        return self.err("only named functions can be called");
                    };
                    self.bump();
                    let open = self.open_args.len();
                    let mut ah = 0;
                    if !self.eat(Tok::RParen) {
                        loop {
                            let (arg, h) = self.sub_expr()?;
                            let arg = self.push(arg);
                            self.open_args.push(arg);
                            ah = ah.max(h);
                            if self.eat(Tok::RParen) {
                                break;
                            }
                            self.expect(Tok::Comma)?;
                        }
                    }
                    h = self.node(1 + ah)?;
                    e = SExpr::Call(name, self.m.push_args(self.open_args.drain(open..)));
                }
                _ => break,
            }
        }
        Ok((e, h))
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        let leaf = match self.peek() {
            Tok::Ident(s) => SExpr::Var(s),
            Tok::Int(n) => SExpr::Int(n),
            Tok::Null => SExpr::Null,
            Tok::New => {
                self.bump();
                return match self.peek() {
                    Tok::Ident(s) => {
                        self.bump();
                        Ok((SExpr::NewStruct(s), self.node(1)?))
                    }
                    Tok::LParen => {
                        self.bump();
                        let (n, h) = self.sub_expr()?;
                        self.expect(Tok::RParen)?;
                        Ok((SExpr::NewArray(self.push(n)), self.node(h + 1)?))
                    }
                    _ => self.err(format!(
                        "expected struct name or `(` after `new`, found {}",
                        self.found()
                    )),
                };
            }
            Tok::LParen => {
                self.bump();
                let (e, h) = self.sub_expr()?;
                self.expect(Tok::RParen)?;
                return Ok((e, self.node(h + 1)?));
            }
            _ => return self.err(format!("expected expression, found {}", self.found())),
        };
        self.bump();
        Ok((leaf, self.node(1)?))
    }
}

/// A binary operator token's kind and precedence (higher binds
/// tighter).
fn binop(t: Tok) -> Option<(BinKind, u8)> {
    Some(match t {
        Tok::PipePipe => (BinKind::Or, 0),
        Tok::AmpAmp => (BinKind::And, 1),
        Tok::EqEq => (BinKind::Eq, 2),
        Tok::NotEq => (BinKind::Ne, 2),
        Tok::Lt => (BinKind::Lt, 3),
        Tok::Le => (BinKind::Le, 3),
        Tok::Gt => (BinKind::Gt, 3),
        Tok::Ge => (BinKind::Ge, 3),
        Tok::Plus => (BinKind::Add, 4),
        Tok::Minus => (BinKind::Sub, 4),
        Tok::Star => (BinKind::Mul, 5),
        Tok::Slash => (BinKind::Div, 5),
        Tok::Percent => (BinKind::Rem, 5),
        _ => return None,
    })
}

/// Whether a surface expression can appear on the left of `=` or under `&`.
fn is_lvalue(e: &SExpr) -> bool {
    matches!(
        e,
        SExpr::Var(_) | SExpr::Deref(_) | SExpr::Arrow(..) | SExpr::Index(..)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_move_example() {
        // The paper's Figure 1(a).
        let src = r#"
            struct elem { next; data; }
            struct list { head; }
            fn move_(from, to) {
                atomic {
                    let x = to->head;
                    let y = from->head;
                    from->head = null;
                    if (x == null) {
                        to->head = y;
                    } else {
                        while (x->next != null) { x = x->next; }
                        x->next = y;
                    }
                }
            }
        "#;
        let m = parse(src).unwrap();
        assert_eq!(m.structs.len(), 2);
        assert_eq!(m.funcs.len(), 1);
        let params: Vec<&str> = m.funcs[0]
            .params
            .iter()
            .map(|p| m.names.resolve(*p))
            .collect();
        assert_eq!(params, ["from", "to"]);
        assert!(matches!(m.block(m.funcs[0].body)[0], SStmt::Atomic(_)));
    }

    #[test]
    fn parses_precedence() {
        let m = parse("fn f() { let x = 1 + 2 * 3 < 4 && 5 == 6; }").unwrap();
        let SStmt::Let(_, Some(e)) = m.block(m.funcs[0].body)[0] else {
            panic!()
        };
        // && binds loosest here.
        assert!(matches!(m.expr(e), SExpr::Binop(BinKind::And, ..)));
    }

    #[test]
    fn parses_postfix_chains() {
        let m = parse("fn f(p) { let x = p->a->b[3]; }").unwrap();
        let SStmt::Let(_, Some(e)) = m.block(m.funcs[0].body)[0] else {
            panic!()
        };
        assert!(matches!(m.expr(e), SExpr::Index(..)));
    }

    #[test]
    fn parses_globals_and_new() {
        let m = parse("global g, h; struct s { f; } fn f() { g = new s; h = new(10); }").unwrap();
        let globals: Vec<&str> = m.globals.iter().map(|g| m.names.resolve(*g)).collect();
        assert_eq!(globals, ["g", "h"]);
        assert_eq!(m.funcs[0].body.len, 2);
    }

    #[test]
    fn rejects_bad_lvalues() {
        assert!(parse("fn f() { 1 = 2; }").is_err());
        assert!(parse("fn f() { let x = &3; }").is_err());
        assert!(parse("fn f() { x + 1; }").is_err());
    }

    #[test]
    fn parses_else_if_chain() {
        let m = parse("fn f(x) { if (x == 1) { } else if (x == 2) { } else { } }").unwrap();
        let SStmt::If(_, _, els) = m.block(m.funcs[0].body)[0] else {
            panic!()
        };
        assert!(matches!(m.block(els), [SStmt::If(..)]));
    }

    #[test]
    fn operators_associate_left_by_precedence() {
        let m = parse("fn f(a, b, c) { let x = a - b - c * a || b && c; }").unwrap();
        let src = m.to_source();
        assert!(
            src.contains("let x = (((a - b) - (c * a)) || (b && c));"),
            "{src}"
        );
    }

    #[test]
    fn reports_line_numbers() {
        let err = parse("fn f() {\n let x = ;\n}").unwrap_err();
        assert_eq!(err.line, 2);
    }

    /// The arenas hold exactly the tree: each node is some parent's
    /// operand or a statement's root, and a callee's name is no node.
    #[test]
    fn the_arenas_hold_exactly_the_tree() {
        let m =
            parse("fn f(a) { g(a, h(1)); if (a) { a = -a; } } fn g(x, y) { } fn h(z) { }").unwrap();
        // g(a, h(1)): a, 1, h(1), g(..); the condition a; a = -a: the
        // operand a, -a, the left-hand a.
        assert_eq!(m.exprs.len(), 8);
        assert_eq!(m.args.len(), 3);
        // g(..); if | a = -a;
        assert_eq!(m.stmts.len(), 3);
        assert_eq!(m.to_source().matches("(-a)").count(), 1);
    }

    /// Lexing finishes before a parse error is reported: a lex error
    /// later in the source wins over a parse error earlier in it.
    #[test]
    fn a_later_lex_error_beats_an_earlier_parse_error() {
        let src = "fn f() {\n let x = ;\n}\nfn g() { let y = 1 $ 2; }";
        let err = parse(src).unwrap_err();
        assert_eq!(
            (err.line, err.message.as_str()),
            (4, "unexpected character `$`")
        );
        // Without the lex error, the parse error stands.
        let err = parse(&src.replace('$', "+")).unwrap_err();
        assert_eq!(
            (err.line, err.message.as_str()),
            (2, "expected expression, found `;`")
        );
        // So does a nesting error.
        let deep = format!(
            "fn f(x) {{ return {}x{}; }} $",
            "(".repeat(300),
            ")".repeat(300)
        );
        assert_eq!(
            parse(&deep).unwrap_err().message,
            "unexpected character `$`"
        );
    }
}
