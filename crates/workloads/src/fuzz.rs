//! Random *runnable* programs for differential and soundness testing.
//!
//! Unlike [`crate::spec_like`] (analysis-only stress programs), these
//! programs are generated under a discipline that makes them safe to
//! execute: every pointer variable is non-null by construction (struct
//! pointer fields are initialized right after allocation), loops are
//! bounded, and arithmetic avoids division. Atomic sections are
//! sprinkled over the statement stream.
//!
//! Used by the integration suite to check, over many random programs:
//!
//! * the transformed program passes the Theorem-1 checker (MultiGrain
//!   under `SentinelConfig::validate`) for every `k`;
//! * Global, MultiGrain, Stm, and checked MultiGrain execution all
//!   compute the same result (single-threaded differential
//!   equivalence).

use crate::{Rng, RunSpec};
use std::fmt::Write as _;

const N_STRUCTS: usize = 3;
const FIELDS: usize = 2;

struct Gen {
    rng: Rng,
    out: String,
    /// Non-null pointer variables in scope, with their struct type.
    ptrs: Vec<(String, usize)>,
    /// Integer variables in scope.
    ints: Vec<String>,
    n_locals: usize,
    depth: usize,
    in_atomic: bool,
}

impl Gen {
    fn pad(&self) -> String {
        "    ".repeat(self.depth)
    }

    fn fresh(&mut self) -> String {
        self.n_locals += 1;
        format!("v{}", self.n_locals)
    }

    /// Allocates a struct and fully initializes its pointer fields so
    /// every later field read yields a non-null pointer.
    fn alloc_stmt(&mut self) -> (String, usize) {
        let ty = self.rng.below(N_STRUCTS);
        let v = self.fresh();
        let pad = self.pad();
        let _ = writeln!(self.out, "{pad}let {v} = new s{ty};");
        for f in 0..FIELDS {
            let target = if self.ptrs.is_empty() || self.rng.below(3) == 0 {
                v.clone()
            } else {
                self.pick_ptr_of((ty + 1) % N_STRUCTS)
                    .unwrap_or_else(|| v.clone())
            };
            let _ = writeln!(self.out, "{pad}{v}->s{ty}_f{f} = {target};");
        }
        self.ptrs.push((v.clone(), ty));
        (v, ty)
    }

    fn pick_ptr(&mut self) -> (String, usize) {
        let i = self.rng.below(self.ptrs.len());
        self.ptrs[i].clone()
    }

    fn pick_ptr_of(&mut self, ty: usize) -> Option<String> {
        let matching: Vec<&(String, usize)> = self.ptrs.iter().filter(|(_, t)| *t == ty).collect();
        if matching.is_empty() {
            None
        } else {
            Some(matching[self.rng.below(matching.len())].0.clone())
        }
    }

    fn pick_int(&mut self) -> String {
        if self.ints.is_empty() {
            return format!("{}", self.rng.below(100));
        }
        let i = self.rng.below(self.ints.len());
        self.ints[i].clone()
    }

    fn stmt(&mut self) {
        let pad = self.pad();
        match self.rng.below(12) {
            0 | 1 => {
                self.alloc_stmt();
            }
            2 | 3 => {
                // Follow a field: the discipline guarantees non-null.
                let (x, ty) = self.pick_ptr();
                let f = self.rng.below(FIELDS);
                let v = self.fresh();
                let _ = writeln!(self.out, "{pad}let {v} = {x}->s{ty}_f{f};");
                // The field holds a pointer whose type we tracked at
                // initialization time — but stores may have retargeted
                // it within the same class; the class-compatible type is
                // (ty + 1) % N (stores keep the typed discipline).
                self.ptrs.push((v, (ty + 1) % N_STRUCTS));
            }
            4 | 5 => {
                // Retarget a field, keeping the typed discipline.
                let (x, ty) = self.pick_ptr();
                let f = self.rng.below(FIELDS);
                let want = (ty + 1) % N_STRUCTS;
                if let Some(y) = self.pick_ptr_of(want) {
                    let _ = writeln!(self.out, "{pad}{x}->s{ty}_f{f} = {y};");
                } else {
                    let (y, _) = self.alloc_into(want);
                    let pad = self.pad();
                    let _ = writeln!(self.out, "{pad}{x}->s{ty}_f{f} = {y};");
                }
            }
            6 => {
                // Integer work over the shared scratch array.
                let v = self.fresh();
                let i = self.pick_int();
                let _ = writeln!(self.out, "{pad}let {v} = scratch[({i}) % 16] + 1;");
                let j = self.pick_int();
                let _ = writeln!(self.out, "{pad}scratch[({j}) % 16] = {v};");
                self.ints.push(v);
            }
            7 if self.depth < 3 => {
                let a = self.pick_int();
                let b = self.pick_int();
                let _ = writeln!(self.out, "{pad}if (({a}) % 3 < ({b}) % 3) {{");
                let n = 1 + self.rng.below(3);
                self.nest(n);
                let _ = writeln!(self.out, "{pad}}} else {{");
                let n = 1 + self.rng.below(2);
                self.nest(n);
                let _ = writeln!(self.out, "{pad}}}");
            }
            8 if self.depth < 3 => {
                let c = self.fresh();
                let bound = 1 + self.rng.below(4);
                let _ = writeln!(self.out, "{pad}let {c} = 0;");
                let _ = writeln!(self.out, "{pad}while ({c} < {bound}) {{");
                let inner_pad = "    ".repeat(self.depth + 1);
                let _ = writeln!(self.out, "{inner_pad}{c} = {c} + 1;");
                let n = 1 + self.rng.below(2);
                self.nest(n);
                let _ = writeln!(self.out, "{pad}}}");
            }
            9 if !self.in_atomic && self.depth < 3 => {
                // An atomic section over a nested statement block.
                let _ = writeln!(self.out, "{pad}atomic {{");
                self.in_atomic = true;
                let n = 2 + self.rng.below(4);
                self.nest(n);
                self.in_atomic = false;
                let _ = writeln!(self.out, "{pad}}}");
            }
            10 => {
                // Publish a pointer through a global (class mixing).
                let g = self.rng.below(N_STRUCTS);
                if let Some(x) = self.pick_ptr_of(g) {
                    let _ = writeln!(self.out, "{pad}g{g} = {x};");
                    let v = self.fresh();
                    let pad = self.pad();
                    let _ = writeln!(self.out, "{pad}let {v} = g{g};");
                    self.ptrs.push((v, g));
                }
            }
            _ => {
                let v = self.fresh();
                let a = self.pick_int();
                let _ = writeln!(self.out, "{pad}let {v} = ({a}) * 3 + 1;");
                self.ints.push(v);
            }
        }
    }

    fn alloc_into(&mut self, ty: usize) -> (String, usize) {
        let v = self.fresh();
        let pad = self.pad();
        let _ = writeln!(self.out, "{pad}let {v} = new s{ty};");
        for f in 0..FIELDS {
            let _ = writeln!(self.out, "{pad}{v}->s{ty}_f{f} = {v};");
        }
        self.ptrs.push((v.clone(), ty));
        (v, ty)
    }

    fn nest(&mut self, n: usize) {
        self.depth += 1;
        let ptrs = self.ptrs.len();
        let ints = self.ints.len();
        for _ in 0..n {
            self.stmt();
        }
        self.ptrs.truncate(ptrs);
        self.ints.truncate(ints);
        self.depth -= 1;
    }
}

/// Generates a runnable random program whose `main` returns a checksum
/// of the shared scratch array — identical across execution modes for
/// single-threaded runs.
pub fn runnable(seed: u64, stmts: usize) -> RunSpec {
    let mut g = Gen {
        rng: Rng(seed ^ 0xFA57_F00D),
        out: String::new(),
        ptrs: Vec::new(),
        ints: Vec::new(),
        n_locals: 0,
        depth: 0,
        in_atomic: false,
    };
    for s in 0..N_STRUCTS {
        let fields: Vec<String> = (0..FIELDS).map(|f| format!("s{s}_f{f};")).collect();
        let _ = writeln!(g.out, "struct s{s} {{ {} }}", fields.join(" "));
    }
    let globals: Vec<String> = (0..N_STRUCTS).map(|i| format!("g{i}")).collect();
    let _ = writeln!(g.out, "global {}, scratch;", globals.join(", "));
    let _ = writeln!(g.out, "fn main() {{");
    g.depth = 1;
    let _ = writeln!(g.out, "    scratch = new(16);");
    // Seed the pools so every template has material.
    g.alloc_stmt();
    g.alloc_stmt();
    for i in 0..N_STRUCTS {
        let x = g.pick_ptr_of(i).map(|p| p.to_string());
        if let Some(x) = x {
            let _ = writeln!(g.out, "    g{i} = {x};");
        } else {
            let (v, _) = g.alloc_into(i);
            let _ = writeln!(g.out, "    g{i} = {v};");
        }
    }
    for _ in 0..stmts {
        g.stmt();
    }
    // Checksum.
    let _ = writeln!(g.out, "    let sum = 0;");
    let _ = writeln!(g.out, "    let i = 0;");
    let _ = writeln!(
        g.out,
        "    while (i < 16) {{ sum = sum + scratch[i] * (i + 1); i = i + 1; }}"
    );
    let _ = writeln!(g.out, "    return sum;");
    let _ = writeln!(g.out, "}}");
    RunSpec {
        name: format!("fuzz-{seed}"),
        source: g.out,
        init: ("main", vec![]),
        worker: ("main", vec![]),
        check: None,
        heap_cells: 1 << 20,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_programs_compile() {
        for seed in 0..30 {
            let spec = runnable(seed, 40);
            lir::compile(&spec.source)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{}", spec.source));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(runnable(5, 30).source, runnable(5, 30).source);
        assert_ne!(runnable(5, 30).source, runnable(6, 30).source);
    }
}
