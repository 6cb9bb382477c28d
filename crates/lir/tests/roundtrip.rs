//! Property test: `parse(module.to_source()) == module` for randomly
//! generated surface ASTs — the parser and the emitter agree on the
//! whole grammar. Modules compare by resolved names: the parser's
//! interner numbers names in source order, the generator's does not.

use lir::ast::*;
use lir::{Interner, Symbol};
use proptest::prelude::*;
use std::fmt::Write as _;

const IDENTS: [&str; 10] = [
    "a", "b", "c", "foo", "bar", "baz_1", "cur", "prev", "x9", "tmp",
];
const FIELDS: [&str; 5] = ["f0", "f1", "next", "data", "head"];

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
fn lvalue(expr: impl Strategy<Value = SExpr> + Clone + 'static) -> BoxedStrategy<SExpr> {
    prop_oneof![
        ident().prop_map(SExpr::Var),
        expr.clone().prop_map(|e| SExpr::Deref(Box::new(e))),
        (expr.clone(), field_name()).prop_map(|(e, f)| SExpr::Arrow(Box::new(e), f)),
        (expr.clone(), expr).prop_map(|(e, i)| SExpr::Index(Box::new(e), Box::new(i))),
    ]
    .boxed()
}

fn expr() -> BoxedStrategy<SExpr> {
    let leaf = prop_oneof![
        ident().prop_map(SExpr::Var),
        (0i64..10_000).prop_map(SExpr::Int),
        Just(SExpr::Null),
        ident().prop_map(SExpr::NewStruct),
    ];
    leaf.prop_recursive(4, 24, 4, |inner| {
        prop_oneof![
            inner.clone().prop_map(|e| SExpr::Deref(Box::new(e))),
            lvalue(inner.clone()).prop_map(|lv| SExpr::AddrOf(Box::new(lv))),
            (inner.clone(), field_name()).prop_map(|(e, f)| SExpr::Arrow(Box::new(e), f)),
            (inner.clone(), inner.clone())
                .prop_map(|(e, i)| SExpr::Index(Box::new(e), Box::new(i))),
            inner.clone().prop_map(|n| SExpr::NewArray(Box::new(n))),
            (ident(), prop::collection::vec(inner.clone(), 0..3))
                .prop_map(|(f, args)| SExpr::Call(f, args)),
            (binop(), inner.clone(), inner.clone()).prop_map(|(op, a, b)| SExpr::Binop(
                op,
                Box::new(a),
                Box::new(b)
            )),
            inner.clone().prop_map(|e| SExpr::Not(Box::new(e))),
            inner.prop_map(|e| SExpr::Neg(Box::new(e))),
        ]
    })
    .boxed()
}

fn stmt() -> BoxedStrategy<SStmt> {
    let simple = prop_oneof![
        (ident(), prop::option::of(expr())).prop_map(|(n, e)| SStmt::Let(n, e)),
        (lvalue(expr()), expr()).prop_map(|(lv, e)| SStmt::Assign(lv, e)),
        (ident(), prop::collection::vec(expr(), 0..3))
            .prop_map(|(f, args)| SStmt::Expr(SExpr::Call(f, args))),
        prop::option::of(expr()).prop_map(SStmt::Return),
        Just(SStmt::Break),
        Just(SStmt::Continue),
    ];
    simple
        .prop_recursive(3, 16, 3, |inner| {
            let body = prop::collection::vec(inner.clone(), 0..3);
            prop_oneof![
                body.clone().prop_map(SStmt::Atomic),
                (expr(), body.clone(), body.clone()).prop_map(|(c, t, e)| SStmt::If(c, t, e)),
                (expr(), body.clone()).prop_map(|(c, b)| SStmt::While(c, b)),
                body.prop_map(SStmt::Block),
            ]
        })
        .boxed()
}

fn module() -> impl Strategy<Value = SModule> {
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
            )
                .prop_map(|(name, params, body)| SFunc {
                    name,
                    params,
                    body,
                    line: 0,
                }),
            1..3,
        ),
    )
        .prop_map(|(structs, mut globals, funcs)| {
            globals.dedup();
            SModule {
                names: names(),
                structs,
                globals,
                funcs,
            }
        })
}

/// The whole module, source lines erased, with every symbol shown as
/// its name.
fn by_name(m: &SModule) -> String {
    let mut funcs = m.funcs.clone();
    for f in &mut funcs {
        f.line = 0;
    }
    let debug = format!("{:?} {:?} {:?}", m.structs, m.globals, funcs);
    let mut out = String::new();
    let mut rest = debug.as_str();
    while let Some(i) = rest.find("sym#") {
        out.push_str(&rest[..i]);
        rest = &rest[i + 4..];
        let end = rest
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(rest.len());
        let sym = Symbol(rest[..end].parse().unwrap());
        let _ = write!(out, "`{}`", m.names.resolve(sym));
        rest = &rest[end..];
    }
    out.push_str(rest);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn parse_emit_round_trip(m in module()) {
        let src = m.to_source();
        let reparsed = lir::parser::parse(&src)
            .unwrap_or_else(|e| panic!("emitted source failed to parse: {e}\n{src}"));
        prop_assert_eq!(by_name(&reparsed), by_name(&m), "round-trip mismatch for\n{}", src);
        prop_assert_eq!(reparsed.to_source(), src);
    }
}
