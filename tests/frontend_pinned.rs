//! Pinned output of the frontend (`lir::compile`) and of points-to as
//! the transformed program shows it.
//!
//! Every value below was printed by the frontend that kept identifiers
//! as `String`s and scoped them in `HashMap`s, before the lexer began
//! interning them. The IR, its variable table, the points-to classes
//! the transformed program's locks name, every frontend error message
//! and `lockc --emit fmt` must reproduce them byte for byte.

use atomic_lock_inference::{lockinfer, workloads};
use lir::Program;
use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Everything a `Program` holds except how its interner numbers names:
/// the variable, field and struct tables by resolved name, and every
/// body with its variable ids (which is how name resolution and
/// shadowing show).
fn tables(p: &Program) -> String {
    let mut out = String::new();
    for (i, v) in p.vars.iter().enumerate() {
        let name = p.interner.resolve(v.name);
        let _ = writeln!(
            out,
            "v{i} {name} {:?} {:?} {}",
            v.owner, v.kind, v.addr_taken
        );
    }
    for (i, f) in p.fields.iter().enumerate() {
        let name = p.interner.resolve(f.name);
        let _ = writeln!(out, "f{i} {name} {} {}", f.offset, f.dynamic);
    }
    for s in &p.structs {
        let _ = writeln!(out, "struct {} {:?}", p.interner.resolve(s.name), s.fields);
    }
    for f in &p.functions {
        let _ = writeln!(
            out,
            "{:?} {} {:?} {:?} {:?}",
            f.id,
            p.fn_name(f.id),
            f.params,
            f.locals,
            f.ret
        );
        for ins in &f.body {
            let _ = writeln!(out, "  {ins:?}");
        }
    }
    let _ = writeln!(out, "globals {:?} sections {}", p.globals, p.n_sections);
    out
}

/// `(name, source, k)` for every corpus the pins cover.
fn corpus() -> Vec<(String, String, usize)> {
    let mut out = Vec::new();
    for spec in workloads::micro::all(workloads::Contention::High, 100, 10) {
        out.push((spec.name, spec.source, 9));
    }
    for spec in workloads::stamp::all(100, 10) {
        out.push((spec.name, spec.source, 9));
    }
    for (name, params) in workloads::scale::tiers() {
        out.push((
            name.to_owned(),
            workloads::scale::generate(name, params).source,
            3,
        ));
    }
    for seed in [3, 17, 101, 2024] {
        let spec = workloads::fuzz::runnable(seed, 60);
        out.push((format!("fuzz-{seed}"), spec.source, 9));
    }
    out.push((
        "spec-2k".to_owned(),
        workloads::spec_like::generate("x", 2.0, 10).source,
        9,
    ));
    out.push((
        "spec-71.6k".to_owned(),
        workloads::spec_like::generate("x", 71.6, 10).source,
        0,
    ));
    out
}

/// `(name, [fnv {program}, fnv {transformed}, fnv tables])`, in
/// [`corpus`] order.
const PINS: [(&str, [u64; 3]); 19] = [
    (
        "hashtable-high",
        [0x2de5c243296b2087, 0x01a05c1041983a86, 0x3a2743d03beae337],
    ),
    (
        "rbtree-high",
        [0xc8d3de43b48e8cde, 0x1b44146fc8ac92d7, 0x985eb7d3c77dd462],
    ),
    (
        "list-high",
        [0x72550cf380cdf162, 0x9503a128e48dc0a2, 0x6795a27f95e72f58],
    ),
    (
        "hashtable-2-high",
        [0x1a94d9025879cce2, 0xbd8eb8115aa0028d, 0x9bf1095b3978dc61],
    ),
    (
        "TH-high",
        [0x128bc1dc89ae46d0, 0x34fb56fce91bb025, 0xfcf185df45cf3001],
    ),
    (
        "genome",
        [0xd7fd41b88c9d6f47, 0x77c04d1e6158d84e, 0x6ee1b7b707d30653],
    ),
    (
        "vacation",
        [0x254b70902cafb3af, 0xb4db0d56b44e784b, 0x897b4d5b5c718510],
    ),
    (
        "kmeans",
        [0x79c2ce2ad49ac44c, 0xeb92b7ff28d5f283, 0xae20a1364d19c45d],
    ),
    (
        "bayes",
        [0x9b6027b30a7b5d13, 0x36eb0611adac5ee2, 0xcc6969d833b22503],
    ),
    (
        "labyrinth",
        [0xc797b499e02579b6, 0x5eeab4c187a7d2a9, 0x561efe80d2e656a9],
    ),
    (
        "scale-small",
        [0x3235617946b37fa8, 0x0ca74eb369847916, 0x27ee32cb43b5f8eb],
    ),
    (
        "scale-medium",
        [0x94cdc49262c9d353, 0xa175ead5c11ac43c, 0x35d2b76acb2621b8],
    ),
    (
        "scale-large",
        [0x35c149368590f792, 0x3fd10841c4cda4fb, 0xc529cf8d1a7bcc8b],
    ),
    (
        "fuzz-3",
        [0x159d6087aad89073, 0xb255adb39b5db78a, 0xa97f275ff9ba7f13],
    ),
    (
        "fuzz-17",
        [0x7886a7a581c0da8c, 0x7fd0472f14a31040, 0x376e4e0da83354cc],
    ),
    (
        "fuzz-101",
        [0xc77297bfe5529d72, 0x12a6a907c1445461, 0xa01545f636d0571f],
    ),
    (
        "fuzz-2024",
        [0xa163ed5b8a9cc2eb, 0xec0ee597a2160dd8, 0xdaadf50f22835add],
    ),
    (
        "spec-2k",
        [0x0c5d48c2d2a5d6c5, 0x39ad1d3ed4b71a7c, 0x38893c0888454891],
    ),
    (
        "spec-71.6k",
        [0x20b7558e1361e9df, 0x8dabd87a23a6bd1b, 0x6ea82911faed20b7],
    ),
];

#[test]
fn compiled_and_transformed_programs_are_pinned() {
    let corpus = corpus();
    assert_eq!(corpus.len(), PINS.len(), "corpus size");
    let mut wrong = Vec::new();
    for ((name, source, k), (pinned_name, want)) in corpus.into_iter().zip(PINS) {
        let (program, _, transformed) =
            lockinfer::compile_with_locks(&source, k).unwrap_or_else(|e| panic!("{name}: {e}"));
        let got = [
            fnv(&program.to_string()),
            fnv(&transformed.to_string()),
            fnv(&tables(&program)),
        ];
        if (name.as_str(), got) != (pinned_name, want) {
            wrong.push(format!(
                "(\"{name}\", [{:#018x}, {:#018x}, {:#018x}]),",
                got[0], got[1], got[2]
            ));
        }
    }
    assert!(wrong.is_empty(), "pins differ; got:\n{}", wrong.join("\n"));
}

/// One source per frontend error, with the exact text `lir::compile`
/// reports for it.
const ERRORS: [(&str, &str); 37] = [
    // lexer
    ("fn f() { let x = 1 $ 2; }", "parse error on line 1: unexpected character `$`"),
    ("fn f() {}\n/* open", "parse error on line 2: unterminated block comment"),
    ("fn f(a, b) { let x = a | b; }", "parse error on line 1: single `|` is not an operator"),
    ("fn f() { let x = 99999999999999999999; }", "parse error on line 1: integer literal `99999999999999999999` out of range"),
    // parser
    ("fn f( { }", "parse error on line 1: expected identifier, found `{`"),
    ("struct s { a }", "parse error on line 1: expected `;`, found `}`"),
    ("fn f() { let x = 1 y; }", "parse error on line 1: expected `;`, found identifier `y`"),
    ("fn f() { let 3 = x; }", "parse error on line 1: expected identifier, found integer `3`"),
    ("let x;", "parse error on line 1: expected item, found `let`"),
    ("fn f() { 1 = 2; }", "parse error on line 1: left-hand side of `=` is not assignable"),
    ("fn f(x) { x + 1; }", "parse error on line 1: only calls may be used as expression statements"),
    ("fn f() { let x = &3; }", "parse error on line 1: `&` requires an lvalue operand"),
    ("struct s { a; } fn f(p) { p->a(1); }", "parse error on line 1: only named functions can be called"),
    ("fn f() { let x = new 3; }", "parse error on line 1: expected struct name or `(` after `new`, found integer `3`"),
    ("fn f() {\n let x = ;\n}", "parse error on line 2: expected expression, found `;`"),
    // lowering
    ("struct s { a; } struct s { b; }", "lowering error: struct `s` declared twice"),
    ("struct s { a; b; } struct t { b; }", "lowering error: field `b` declared at conflicting offsets 1 and 0; field names must resolve to a single offset in this untyped language"),
    ("global g, h, g;", "lowering error: global `g` declared twice"),
    ("fn f() {} fn g() {} fn f() {}", "lowering error: function `f` declared twice"),
    ("fn rand(n) {}", "lowering error: function `rand` shadows an intrinsic"),
    ("fn f(x) { let x = 1; }", "lowering error: `x` declared twice in the same scope of `f`"),
    ("fn f() { x = y; }", "lowering error: unresolved name `x` in `f`"),
    ("fn f() { *p = q; }", "lowering error: unresolved name `q` in `f`"),
    ("fn f() { let x = new nope; }", "lowering error: unknown struct `nope`"),
    ("fn f() { atomic { return; } }", "lowering error: `return` inside `atomic` is not supported (function `f`)"),
    ("fn f() { while (1) { atomic { break; } } }", "lowering error: `break` crossing an `atomic` boundary in `f`"),
    ("fn f() { break; }", "lowering error: `break` outside a loop in `f`"),
    ("fn f() { continue; }", "lowering error: `continue` outside a loop in `f`"),
    ("fn f(p) { let x = p->nope; }", "lowering error: unknown field `nope` in `f`"),
    ("fn f() { nops(1, 2); }", "lowering error: intrinsic `nops` expects 1 argument(s), got 2"),
    ("fn f() { g(); }", "lowering error: unknown function `g`"),
    ("fn f() { g(1); } fn g() {}", "lowering error: function `g` expects 0 argument(s), got 1"),
    // scoping: shadowing is allowed, redeclaring in one scope is not,
    // and no binding outlives its block or its function
    ("fn f() { let x = 1; { let x = 2; let x = 3; } }", "lowering error: `x` declared twice in the same scope of `f`"),
    ("global x; fn f() { let x = 1; let x = 2; }", "lowering error: `x` declared twice in the same scope of `f`"),
    ("fn f() { { let y = 1; } y = 2; }", "lowering error: unresolved name `y` in `f`"),
    ("fn f() { let a = 1; } fn g() { a = 2; }", "lowering error: unresolved name `a` in `g`"),
    ("global g; fn f(g) { { let g = 1; } let g = 2; }", "lowering error: `g` declared twice in the same scope of `f`"),
];

#[test]
fn frontend_error_messages_are_pinned() {
    let mut wrong = Vec::new();
    for (src, want) in ERRORS {
        let got = match lir::compile(src) {
            Ok(_) => "<compiled>".to_owned(),
            Err(e) => e.to_string(),
        };
        if got != want {
            wrong.push(format!("({src:?}, {got:?}),"));
        }
    }
    assert!(
        wrong.is_empty(),
        "messages differ; got:\n{}",
        wrong.join("\n")
    );
}

const FMT_SOURCE: &str = "\
struct node { next; key; }
global root, count;
fn find(k) {
    let cur = root;
    // a comment the formatter drops
    while (cur != null && cur->key != k) { cur = cur->next; }
    if (cur == null) { return 0 - 1; } else if (k > 3) { { let t = -k; k = t; } } else { count = !count; }
    atomic { let a = new(4); a[k % 4] = &count; *a = *root; print(a[0]); }
    return find2(k * 2 + 1, (k - 1) / 3);
}
fn find2(a, b) { let n = new node; n->next = null; return a < b || a >= b; }
";

/// `lockc --emit fmt` on [`FMT_SOURCE`], verbatim.
const FMT_WANT: &str = "\
struct node { next; key; }
global root, count;
fn find(k) {
    let cur = root;
    while (((cur != null) && ((cur)->key != k))) {
        cur = (cur)->next;
    }
    if ((cur == null)) {
        return (0 - 1);
    } else {
        if ((k > 3)) {
            {
                let t = (-k);
                k = t;
            }
        } else {
            count = (!count);
        }
    }
    atomic {
        let a = (new(4));
        (a)[(k % 4)] = (&count);
        (*a) = (*root);
        print((a)[0]);
    }
    return find2(((k * 2) + 1), ((k - 1) / 3));
}
fn find2(a, b) {
    let n = (new node);
    (n)->next = null;
    return ((a < b) || (a >= b));
}
";

fn lockc(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_lockc"))
        .args(args)
        .output()
        .expect("lockc runs")
}

#[test]
fn lockc_emit_fmt_is_pinned() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let small = dir.join("frontend_pinned_fmt.atc");
    std::fs::write(&small, FMT_SOURCE).unwrap();
    let out = lockc(&[small.to_str().unwrap(), "--emit", "fmt"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert_eq!(text, FMT_WANT, "got:\n{text}");

    let genome = dir.join("frontend_pinned_genome.atc");
    std::fs::write(&genome, workloads::stamp::genome(100, 10).source).unwrap();
    let out = lockc(&[genome.to_str().unwrap(), "--emit", "fmt"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        fnv(&String::from_utf8(out.stdout).unwrap()),
        0x53c5_d999_8eed_ab84,
        "genome --emit fmt digest"
    );
}
