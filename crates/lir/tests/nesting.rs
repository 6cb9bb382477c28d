//! The nesting bound at the source door. Each shape below once
//! overflowed the host stack (parsing, lowering or dropping the boxed
//! tree recursed once per level, unbounded); past [`MAX_DEPTH`] each is
//! now a typed parse error, and a module exactly at the bound compiles
//! on a default 2 MiB spawned thread.

use lir::lower::FrontendError;
use lir::parser::MAX_DEPTH;

/// `return ((..(x)..));` — the function's block, `n` parentheses, `x`.
fn parens(n: usize) -> String {
    format!("fn f(x) {{ return {}x{}; }}", "(".repeat(n), ")".repeat(n))
}

/// `return --..-x;` — the block, `n` negations, `x`.
fn negations(n: usize) -> String {
    format!("fn f(x) {{ return {}x; }}", "-".repeat(n))
}

/// `return x + x + .. + x;` with `n` operators: left-deep, so the block,
/// `n` additions and the first `x`.
fn sum(n: usize) -> String {
    format!("fn f(x) {{ return x{}; }}", " + x".repeat(n))
}

/// The function's block around `n` nested bare blocks.
fn blocks(n: usize) -> String {
    format!("fn f() {{ {}{} }}", "{".repeat(n), "}".repeat(n))
}

/// `if (x) {} else if (x) {} ..` with `n` `else if`s: the block, `n`
/// chained `if`s, and the last condition's `x` (or its block).
fn else_ifs(n: usize) -> String {
    format!("fn f(x) {{ if (x) {{ }}{} }}", " else if (x) { }".repeat(n))
}

/// A named source generator and the largest `n` it may be given.
type Shape = (&'static str, fn(usize) -> String, usize);

/// Each shape with the largest `n` whose module nests exactly
/// `MAX_DEPTH` levels.
fn shapes() -> [Shape; 5] {
    let max = MAX_DEPTH as usize;
    [
        ("parentheses", parens, max - 2),
        ("negations", negations, max - 2),
        ("left-deep sum", sum, max - 2),
        ("blocks", blocks, max - 1),
        ("else-if chain", else_ifs, max - 2),
    ]
}

/// Runs `f` on a thread with the default spawned-thread stack.
fn on_2mib_thread<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(f)
        .unwrap()
        .join()
        .expect("no stack overflow")
}

fn assert_too_deep(name: &str, src: &str) {
    match lir::compile(src) {
        Err(FrontendError::Parse(e)) => assert_eq!(
            e.message,
            format!("nesting deeper than {MAX_DEPTH} levels"),
            "{name}"
        ),
        other => panic!("{name}: expected a nesting error, got {other:?}"),
    }
}

#[test]
fn a_module_at_the_bound_compiles_on_a_2mib_thread() {
    for (name, shape, n) in shapes() {
        let src = shape(n);
        on_2mib_thread(move || {
            let module = lir::parser::parse(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!module.to_source().is_empty());
            let program = lir::compile(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(program.functions.len(), 1);
        });
    }
}

/// Every shape at the bound in one module: it parses, lowers, and its
/// arenas are dropped on the small thread (dropping recurses into
/// nothing, so only parsing and lowering need the stack).
#[test]
fn a_module_at_the_bound_parses_lowers_and_drops_on_a_2mib_thread() {
    let src: String = shapes()
        .iter()
        .enumerate()
        .map(|(i, (_, shape, n))| shape(*n).replacen("fn f(", &format!("fn f{i}("), 1))
        .collect();
    on_2mib_thread(move || {
        let module = lir::parser::parse(&src).expect("parses");
        assert_eq!(module.funcs.len(), 5);
        let program = lir::lower::lower(&module).expect("lowers");
        assert_eq!(program.functions.len(), 5);
        drop(module);
        drop(program);
    });
}

#[test]
fn one_level_past_the_bound_is_a_parse_error() {
    for (name, shape, n) in shapes() {
        assert_too_deep(name, &shape(n + 1));
    }
}

/// The sizes that used to abort the process: 5 000 parentheses
/// (4 000 passed), 200 000 negations, 100 000 blocks, and sums of
/// 50 000 terms (lowering overflowed) and 100 000 (so did printing).
#[test]
fn inputs_that_used_to_overflow_are_parse_errors() {
    on_2mib_thread(|| {
        for (name, src) in [
            ("parentheses", parens(5_000)),
            ("negations", negations(200_000)),
            ("blocks", blocks(100_000)),
            ("sum", sum(50_000)),
            ("sum", sum(100_000)),
        ] {
            assert_too_deep(name, &src);
        }
    });
}
