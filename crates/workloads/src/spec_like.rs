//! Synthetic SPECint-like program generation for the analysis
//! scalability experiment (Table 1, top block).
//!
//! SPECint2000 sources are licensed and written in C; what the paper
//! measures on them is *analysis time versus program size*, with `main`
//! wrapped in one big atomic section. The generator below emits
//! mini-language programs of matching size with the same structural
//! ingredients the analysis cost depends on: pointer-heavy statements,
//! struct fields, heap allocation, conditionals, loops, and a deep
//! acyclic call graph rooted at `main`.

use crate::RunSpec;
use std::fmt::Write as _;

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

const N_STRUCTS: usize = 4;
const FIELDS_PER_STRUCT: usize = 3;
const N_GLOBALS: usize = 8;

/// Generates a program of roughly `target_kloc` thousand source lines.
///
/// The result is meant for the *compiler*, not the interpreter: its
/// `worker` entry is `main` (which terminates — all loops are bounded —
/// but computes nothing meaningful).
pub fn generate(name: &str, target_kloc: f64, seed: u64) -> RunSpec {
    let mut rng = Rng(seed ^ 0xC0FF_EE00);
    let mut src = String::new();
    for s in 0..N_STRUCTS {
        let fields: Vec<String> = (0..FIELDS_PER_STRUCT)
            .map(|f| format!("s{s}_f{f};"))
            .collect();
        let _ = writeln!(src, "struct s{s} {{ {} }}", fields.join(" "));
    }
    let globals: Vec<String> = (0..N_GLOBALS).map(|g| format!("g{g}")).collect();
    let _ = writeln!(src, "global {};", globals.join(", "));

    let target_lines = (target_kloc * 1000.0) as usize;
    let mut fns: Vec<String> = Vec::new();
    let mut gen = FnGen { rng: &mut rng };
    let mut lines = src.lines().count();
    while lines + 40 < target_lines {
        let id = fns.len();
        let body = gen.function(id, &fns);
        lines += body.lines().count();
        src.push_str(&body);
        fns.push(format!("fn_{id}"));
    }

    // main: everything under one atomic section, as the paper does for
    // the SPEC programs.
    let _ = writeln!(src, "fn main() {{");
    let _ = writeln!(src, "    let a = new s0;");
    let _ = writeln!(src, "    let b = new s1;");
    let _ = writeln!(src, "    atomic {{");
    let calls = fns.len().min(24);
    for i in 0..calls {
        let f = &fns[gen.rng.below(fns.len())];
        let _ = writeln!(src, "        let r{i} = {f}(a, b);");
    }
    let _ = writeln!(src, "    }}");
    let _ = writeln!(src, "    return 0;");
    let _ = writeln!(src, "}}");

    RunSpec {
        name: name.to_owned(),
        source: src,
        init: ("main", vec![]),
        worker: ("main", vec![]),
        check: None,
        heap_cells: 1 << 22,
    }
}

struct FnGen<'a> {
    rng: &'a mut Rng,
}

/// A pool variable with the struct type it holds (the generator keeps a
/// C-like typed discipline: field `s{t}_f{j}` of a type-`t` object holds
/// a type-`(t+1) % N` pointer, so points-to classes stay separated the
/// way typed C keeps them).
type TypedVar = (String, usize);

impl FnGen<'_> {
    fn function(&mut self, id: usize, earlier: &[String]) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "fn fn_{id}(p0, p1) {{");
        // Parameters carry rotating types so call chains stay typed.
        let mut vars: Vec<TypedVar> = vec![
            ("p0".into(), id % N_STRUCTS),
            ("p1".into(), (id + 1) % N_STRUCTS),
        ];
        let mut n_locals = 0usize;
        let stmts = 14 + self.rng.below(18);
        for _ in 0..stmts {
            self.stmt(&mut out, 1, &mut vars, &mut n_locals, earlier);
        }
        let ret = vars[self.rng.below(vars.len())].0.clone();
        let _ = writeln!(out, "    return {ret};");
        let _ = writeln!(out, "}}");
        out
    }

    fn fresh(&mut self, vars: &mut Vec<TypedVar>, n_locals: &mut usize, ty: usize) -> String {
        let v = format!("v{n}", n = *n_locals);
        *n_locals += 1;
        vars.push((v.clone(), ty));
        v
    }

    fn pick<'v>(&mut self, vars: &'v [TypedVar]) -> &'v TypedVar {
        &vars[self.rng.below(vars.len())]
    }

    fn pick_of<'v>(&mut self, vars: &'v [TypedVar], ty: usize) -> Option<&'v TypedVar> {
        let matching: Vec<&TypedVar> = vars.iter().filter(|(_, t)| *t == ty).collect();
        if matching.is_empty() {
            None
        } else {
            Some(matching[self.rng.below(matching.len())])
        }
    }

    fn stmt(
        &mut self,
        out: &mut String,
        depth: usize,
        vars: &mut Vec<TypedVar>,
        n_locals: &mut usize,
        earlier: &[String],
    ) {
        let pad = "    ".repeat(depth);
        match self.rng.below(10) {
            0 => {
                let ty = self.rng.below(N_STRUCTS);
                let v = self.fresh(vars, n_locals, ty);
                let _ = writeln!(out, "{pad}let {v} = new s{ty};");
            }
            1 | 2 => {
                let (x, ty) = self.pick(vars).clone();
                let f = self.rng.below(FIELDS_PER_STRUCT);
                let v = self.fresh(vars, n_locals, (ty + 1) % N_STRUCTS);
                let _ = writeln!(out, "{pad}let {v} = {x}->s{ty}_f{f};");
            }
            3 | 4 => {
                let (x, ty) = self.pick(vars).clone();
                let f = self.rng.below(FIELDS_PER_STRUCT);
                let want = (ty + 1) % N_STRUCTS;
                let y = match self.pick_of(vars, want) {
                    Some((y, _)) => y.clone(),
                    None => {
                        let y = self.fresh(vars, n_locals, want);
                        let _ = writeln!(out, "{pad}let {y} = new s{want};");
                        y
                    }
                };
                let _ = writeln!(out, "{pad}{x}->s{ty}_f{f} = {y};");
            }
            5 => {
                // Globals are typed by their index.
                let g = self.rng.below(N_GLOBALS);
                let gty = g % N_STRUCTS;
                if self.rng.below(2) == 0 {
                    match self.pick_of(vars, gty) {
                        Some((x, _)) => {
                            let x = x.clone();
                            let _ = writeln!(out, "{pad}g{g} = {x};");
                        }
                        None => {
                            let _ = writeln!(out, "{pad}g{g} = new s{gty};");
                        }
                    }
                } else {
                    let v = self.fresh(vars, n_locals, gty);
                    let _ = writeln!(out, "{pad}let {v} = g{g};");
                }
            }
            6 if depth < 3 => {
                let (x, _) = self.pick(vars).clone();
                let (y, _) = self.pick(vars).clone();
                let _ = writeln!(out, "{pad}if ({x} == {y}) {{");
                let scope = vars.len();
                for _ in 0..1 + self.rng.below(3) {
                    self.stmt(out, depth + 1, vars, n_locals, earlier);
                }
                vars.truncate(scope);
                let _ = writeln!(out, "{pad}}} else {{");
                for _ in 0..1 + self.rng.below(2) {
                    self.stmt(out, depth + 1, vars, n_locals, earlier);
                }
                vars.truncate(scope);
                let _ = writeln!(out, "{pad}}}");
            }
            7 if depth < 3 => {
                let c = self.fresh(vars, n_locals, usize::MAX % N_STRUCTS);
                let bound = 2 + self.rng.below(6);
                let _ = writeln!(out, "{pad}let {c} = 0;");
                let _ = writeln!(out, "{pad}while ({c} < {bound}) {{");
                let _ = writeln!(out, "{pad}    {c} = {c} + 1;");
                let scope = vars.len();
                for _ in 0..1 + self.rng.below(2) {
                    self.stmt(out, depth + 1, vars, n_locals, earlier);
                }
                vars.truncate(scope);
                let _ = writeln!(out, "{pad}}}");
            }
            8 if !earlier.is_empty() => {
                // Callee fn_j expects types (j, j+1); pass (or make)
                // matching arguments so flow stays typed.
                let j = self.rng.below(earlier.len());
                let callee = earlier[j].clone();
                let arg = |want: usize,
                           out: &mut String,
                           slf: &mut Self,
                           vars: &mut Vec<TypedVar>,
                           n_locals: &mut usize| {
                    match slf.pick_of(vars, want) {
                        Some((a, _)) => a.clone(),
                        None => {
                            let a = slf.fresh(vars, n_locals, want);
                            let _ = writeln!(out, "{pad}let {a} = new s{want};");
                            a
                        }
                    }
                };
                let a = arg(j % N_STRUCTS, out, self, vars, n_locals);
                let b = arg((j + 1) % N_STRUCTS, out, self, vars, n_locals);
                let v = self.fresh(vars, n_locals, j % N_STRUCTS);
                let _ = writeln!(out, "{pad}let {v} = {callee}({a}, {b});");
            }
            _ => {
                let (x, ty) = self.pick(vars).clone();
                let v = self.fresh(vars, n_locals, ty);
                let _ = writeln!(out, "{pad}let {v} = {x};");
            }
        }
    }
}

/// The seven SPEC-like programs of Table 1, at the paper's sizes.
pub fn table1_programs() -> Vec<(&'static str, f64)> {
    vec![
        ("syn-gzip", 10.3),
        ("syn-parser", 14.2),
        ("syn-vpr", 20.4),
        ("syn-crafty", 21.2),
        ("syn-twolf", 23.1),
        ("syn-gap", 71.4),
        ("syn-vortex", 71.5),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fnv(text: &str) -> u64 {
        text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The benchmark's inputs come from this generator: its output for
    /// a given `(kloc, seed)` must never drift.
    #[test]
    fn output_is_pinned() {
        let big = generate("x", 2.0, 10).source;
        assert_eq!((big.len(), fnv(&big)), (41_718, 0xc2f7_b70d_456a_ce79));
        let small = generate("x", 0.3, 2).source;
        assert_eq!((small.len(), fnv(&small)), (6_363, 0x1d46_b678_574f_d7e3));
    }
}
