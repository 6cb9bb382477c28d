//! `lockc` at the source door: a source nested past the parser's bound
//! exits 1 with a parse error on every path that reads source, where it
//! used to abort with a stack overflow (exit 134).

use std::path::Path;
use std::process::Command;

#[test]
fn lockc_rejects_over_deep_sources_with_a_message() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let sources = [
        (
            "parens",
            format!(
                "fn f(x) {{ return {}x{}; }}",
                "(".repeat(5_000),
                ")".repeat(5_000)
            ),
        ),
        (
            "negations",
            format!("fn f(x) {{ return {}x; }}", "-".repeat(200_000)),
        ),
        (
            "blocks",
            format!(
                "fn f() {{ {}{} }}",
                "{".repeat(100_000),
                "}".repeat(100_000)
            ),
        ),
        (
            "sum",
            format!("fn f(x) {{ return x{}; }}", " + x".repeat(100_000)),
        ),
    ];
    for (name, src) in sources {
        let path = dir.join(format!("lockc_nesting_{name}.atc"));
        std::fs::write(&path, src).unwrap();
        for emit in ["locks", "fmt"] {
            let out = Command::new(env!("CARGO_BIN_EXE_lockc"))
                .args([path.to_str().unwrap(), "--emit", emit])
                .output()
                .expect("lockc runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{name} --emit {emit}: {stderr}");
            assert_eq!(
                stderr.trim_end(),
                "error: parse error on line 1: nesting deeper than 256 levels",
                "{name} --emit {emit}"
            );
        }
    }
}
