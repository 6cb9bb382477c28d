//! Property test: `parse(module.to_source()) == module` for randomly
//! generated surface modules — the parser and the emitter agree on the
//! whole grammar. The generator draws owned trees, which are built into
//! an arena module the way the parser builds one (children first, each
//! block and argument list as one run); modules compare as trees read
//! back out of their arenas, by resolved names: the parser's interner
//! numbers names in source order, the generator's does not.

use lir::ast::*;
use lir::{Interner, Symbol};
use proptest::prelude::*;
use std::fmt::Write as _;

const IDENTS: [&str; 10] = [
    "a", "b", "c", "foo", "bar", "baz_1", "cur", "prev", "x9", "tmp",
];
const FIELDS: [&str; 5] = ["f0", "f1", "next", "data", "head"];

/// An expression as a tree: what the generator draws, and what a module
/// reads back as.
#[derive(Clone, PartialEq, Debug)]
enum E {
    Var(Symbol),
    Int(i64),
    Null,
    Deref(Box<E>),
    AddrOf(Box<E>),
    Arrow(Box<E>, Symbol),
    Index(Box<E>, Box<E>),
    NewStruct(Symbol),
    NewArray(Box<E>),
    Call(Symbol, Vec<E>),
    Binop(BinKind, Box<E>, Box<E>),
    Not(Box<E>),
    Neg(Box<E>),
}

/// A statement as a tree.
#[derive(Clone, PartialEq, Debug)]
enum S {
    Let(Symbol, Option<E>),
    Assign(E, E),
    Expr(E),
    Atomic(Vec<S>),
    If(E, Vec<S>, Vec<S>),
    While(E, Vec<S>),
    Return(Option<E>),
    Break,
    Continue,
    Block(Vec<S>),
}

/// A module as trees: structs, globals, and each function's name,
/// parameters and body.
#[derive(Clone, PartialEq, Debug)]
struct Tree {
    structs: Vec<SStruct>,
    globals: Vec<Symbol>,
    funcs: Vec<(Symbol, Vec<Symbol>, Vec<S>)>,
}

fn boxed(e: E) -> Box<E> {
    Box::new(e)
}

/// Pushes `e` into `m`'s arenas, operands first; its id.
fn push_expr(m: &mut SModule, e: &E) -> ExprId {
    let mut sub = |e: &E| push_expr(m, e);
    let node = match e {
        E::Var(x) => SExpr::Var(*x),
        E::Int(n) => SExpr::Int(*n),
        E::Null => SExpr::Null,
        E::Deref(a) => SExpr::Deref(sub(a)),
        E::AddrOf(a) => SExpr::AddrOf(sub(a)),
        E::Arrow(a, f) => SExpr::Arrow(sub(a), *f),
        E::Index(a, i) => SExpr::Index(sub(a), sub(i)),
        E::NewStruct(s) => SExpr::NewStruct(*s),
        E::NewArray(n) => SExpr::NewArray(sub(n)),
        E::Call(f, args) => {
            let ids: Vec<ExprId> = args.iter().map(sub).collect();
            SExpr::Call(*f, m.push_args(ids))
        }
        E::Binop(op, a, b) => SExpr::Binop(*op, sub(a), sub(b)),
        E::Not(a) => SExpr::Not(sub(a)),
        E::Neg(a) => SExpr::Neg(sub(a)),
    };
    m.push_expr(node)
}

/// Pushes a block into `m`'s arenas: every nested block first, then
/// the block's own statements as one run.
fn push_block(m: &mut SModule, stmts: &[S]) -> Run {
    let nodes: Vec<SStmt> = stmts
        .iter()
        .map(|s| match s {
            S::Let(n, e) => SStmt::Let(*n, e.as_ref().map(|e| push_expr(m, e))),
            S::Assign(lv, e) => SStmt::Assign(push_expr(m, lv), push_expr(m, e)),
            S::Expr(e) => SStmt::Expr(push_expr(m, e)),
            S::Atomic(b) => SStmt::Atomic(push_block(m, b)),
            S::If(c, t, e) => SStmt::If(push_expr(m, c), push_block(m, t), push_block(m, e)),
            S::While(c, b) => SStmt::While(push_expr(m, c), push_block(m, b)),
            S::Return(e) => SStmt::Return(e.as_ref().map(|e| push_expr(m, e))),
            S::Break => SStmt::Break,
            S::Continue => SStmt::Continue,
            S::Block(b) => SStmt::Block(push_block(m, b)),
        })
        .collect();
    m.push_block(nodes)
}

/// The arena module of `t`, its names resolving through `names`.
fn build(t: &Tree, names: Interner) -> SModule {
    let mut m = SModule {
        names,
        structs: t.structs.clone(),
        globals: t.globals.clone(),
        ..SModule::default()
    };
    for (name, params, body) in &t.funcs {
        let body = push_block(&mut m, body);
        m.funcs.push(SFunc {
            name: *name,
            params: params.clone(),
            body,
            line: 0,
        });
    }
    m
}

fn expr_tree(m: &SModule, id: ExprId) -> E {
    let sub = |id| boxed(expr_tree(m, id));
    match m.expr(id) {
        SExpr::Var(x) => E::Var(x),
        SExpr::Int(n) => E::Int(n),
        SExpr::Null => E::Null,
        SExpr::Deref(a) => E::Deref(sub(a)),
        SExpr::AddrOf(a) => E::AddrOf(sub(a)),
        SExpr::Arrow(a, f) => E::Arrow(sub(a), f),
        SExpr::Index(a, i) => E::Index(sub(a), sub(i)),
        SExpr::NewStruct(s) => E::NewStruct(s),
        SExpr::NewArray(n) => E::NewArray(sub(n)),
        SExpr::Call(f, args) => E::Call(f, m.args(args).iter().map(|&a| expr_tree(m, a)).collect()),
        SExpr::Binop(op, a, b) => E::Binop(op, sub(a), sub(b)),
        SExpr::Not(a) => E::Not(sub(a)),
        SExpr::Neg(a) => E::Neg(sub(a)),
    }
}

fn block_tree(m: &SModule, run: Run) -> Vec<S> {
    let e = |id| expr_tree(m, id);
    let b = |run| block_tree(m, run);
    m.block(run)
        .iter()
        .map(|&s| match s {
            SStmt::Let(n, init) => S::Let(n, init.map(e)),
            SStmt::Assign(lv, rhs) => S::Assign(e(lv), e(rhs)),
            SStmt::Expr(x) => S::Expr(e(x)),
            SStmt::Atomic(body) => S::Atomic(b(body)),
            SStmt::If(c, t, els) => S::If(e(c), b(t), b(els)),
            SStmt::While(c, body) => S::While(e(c), b(body)),
            SStmt::Return(x) => S::Return(x.map(e)),
            SStmt::Break => S::Break,
            SStmt::Continue => S::Continue,
            SStmt::Block(body) => S::Block(b(body)),
        })
        .collect()
}

/// The module read back out of its arenas.
fn tree(m: &SModule) -> Tree {
    Tree {
        structs: m.structs.clone(),
        globals: m.globals.clone(),
        funcs: m
            .funcs
            .iter()
            .map(|f| (f.name, f.params.clone(), block_tree(m, f.body)))
            .collect(),
    }
}

/// The generator's interner: `IDENTS`, then `FIELDS`, in order.
fn names() -> Interner {
    let mut names = Interner::new();
    for n in IDENTS.iter().chain(&FIELDS) {
        names.intern(n);
    }
    names
}

fn ident() -> impl Strategy<Value = Symbol> {
    (0..IDENTS.len() as u32).prop_map(Symbol)
}

fn field_name() -> impl Strategy<Value = Symbol> {
    (0..FIELDS.len() as u32).prop_map(|i| Symbol(IDENTS.len() as u32 + i))
}

fn binop() -> impl Strategy<Value = BinKind> {
    prop::sample::select(vec![
        BinKind::Add,
        BinKind::Sub,
        BinKind::Mul,
        BinKind::Div,
        BinKind::Rem,
        BinKind::Eq,
        BinKind::Ne,
        BinKind::Lt,
        BinKind::Le,
        BinKind::Gt,
        BinKind::Ge,
        BinKind::And,
        BinKind::Or,
    ])
}

/// Expressions the parser accepts on the left of `=` or under `&`.
fn lvalue(expr: impl Strategy<Value = E> + Clone + 'static) -> BoxedStrategy<E> {
    prop_oneof![
        ident().prop_map(E::Var),
        expr.clone().prop_map(|e| E::Deref(boxed(e))),
        (expr.clone(), field_name()).prop_map(|(e, f)| E::Arrow(boxed(e), f)),
        (expr.clone(), expr).prop_map(|(e, i)| E::Index(boxed(e), boxed(i))),
    ]
    .boxed()
}

fn expr() -> BoxedStrategy<E> {
    let leaf = prop_oneof![
        ident().prop_map(E::Var),
        (0i64..10_000).prop_map(E::Int),
        Just(E::Null),
        ident().prop_map(E::NewStruct),
    ];
    leaf.prop_recursive(4, 24, 4, |inner| {
        prop_oneof![
            inner.clone().prop_map(|e| E::Deref(boxed(e))),
            lvalue(inner.clone()).prop_map(|lv| E::AddrOf(boxed(lv))),
            (inner.clone(), field_name()).prop_map(|(e, f)| E::Arrow(boxed(e), f)),
            (inner.clone(), inner.clone()).prop_map(|(e, i)| E::Index(boxed(e), boxed(i))),
            inner.clone().prop_map(|n| E::NewArray(boxed(n))),
            (ident(), prop::collection::vec(inner.clone(), 0..3))
                .prop_map(|(f, args)| E::Call(f, args)),
            (binop(), inner.clone(), inner.clone()).prop_map(|(op, a, b)| E::Binop(
                op,
                boxed(a),
                boxed(b)
            )),
            inner.clone().prop_map(|e| E::Not(boxed(e))),
            inner.prop_map(|e| E::Neg(boxed(e))),
        ]
    })
    .boxed()
}

fn stmt() -> BoxedStrategy<S> {
    let simple = prop_oneof![
        (ident(), prop::option::of(expr())).prop_map(|(n, e)| S::Let(n, e)),
        (lvalue(expr()), expr()).prop_map(|(lv, e)| S::Assign(lv, e)),
        (ident(), prop::collection::vec(expr(), 0..3))
            .prop_map(|(f, args)| S::Expr(E::Call(f, args))),
        prop::option::of(expr()).prop_map(S::Return),
        Just(S::Break),
        Just(S::Continue),
    ];
    simple
        .prop_recursive(3, 16, 3, |inner| {
            let body = prop::collection::vec(inner.clone(), 0..3);
            prop_oneof![
                body.clone().prop_map(S::Atomic),
                (expr(), body.clone(), body.clone()).prop_map(|(c, t, e)| S::If(c, t, e)),
                (expr(), body.clone()).prop_map(|(c, b)| S::While(c, b)),
                body.prop_map(S::Block),
            ]
        })
        .boxed()
}

fn module() -> impl Strategy<Value = Tree> {
    (
        prop::collection::vec(
            (ident(), prop::collection::vec(field_name(), 1..3)).prop_map(|(name, mut fields)| {
                fields.dedup();
                SStruct { name, fields }
            }),
            0..2,
        ),
        prop::collection::vec(ident(), 0..3),
        prop::collection::vec(
            (
                ident(),
                prop::collection::vec(ident(), 0..3),
                prop::collection::vec(stmt(), 0..5),
            ),
            1..3,
        ),
    )
        .prop_map(|(structs, mut globals, funcs)| {
            globals.dedup();
            Tree {
                structs,
                globals,
                funcs,
            }
        })
}

/// The tree with every symbol shown as its name in `names`.
fn by_name(t: &Tree, names: &Interner) -> String {
    let debug = format!("{t:?}");
    let mut out = String::new();
    let mut rest = debug.as_str();
    while let Some(i) = rest.find("sym#") {
        out.push_str(&rest[..i]);
        rest = &rest[i + 4..];
        let end = rest
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(rest.len());
        let sym = Symbol(rest[..end].parse().unwrap());
        let _ = write!(out, "`{}`", names.resolve(sym));
        rest = &rest[end..];
    }
    out.push_str(rest);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn parse_emit_round_trip(t in module()) {
        let m = build(&t, names());
        prop_assert_eq!(&tree(&m), &t, "the arenas read back as the tree built into them");
        let src = m.to_source();
        let reparsed = lir::parser::parse(&src)
            .unwrap_or_else(|e| panic!("emitted source failed to parse: {e}\n{src}"));
        prop_assert_eq!(
            by_name(&tree(&reparsed), &reparsed.names),
            by_name(&t, &m.names),
            "round-trip mismatch for\n{}",
            src
        );
        prop_assert_eq!(reparsed.to_source(), src);
    }
}
