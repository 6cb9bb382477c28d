//! Synthetic programs for the *analysis throughput* benchmark
//! (`analysis-bench`).
//!
//! Unlike [`crate::spec_like`] — which targets a source-line budget with
//! one big atomic section — this generator scales the three dimensions
//! the optimized dataflow engine is built around, independently:
//!
//! * **call-graph depth**: layered acyclic call graph, every function in
//!   layer `i` calls several functions in layer `i+1`, so summary
//!   queries chain `depth` levels down;
//! * **call-graph width**: functions per layer; callees are *shared*
//!   between callers (and between atomic sections), which is exactly
//!   what the cross-section summary cache exploits;
//! * **section count**: many independent atomic sections whose scopes
//!   overlap on the same callee tree — the per-section unit of the
//!   parallel solving phase.
//!
//! The output is for the compiler + analysis only (its `main` is the
//! nominal entry; nothing is meant to be interpreted under load).

use crate::{Rng, RunSpec};
use std::fmt::Write as _;

const N_STRUCTS: usize = 3;
const FIELDS_PER_STRUCT: usize = 3;
const N_GLOBALS: usize = 6;

/// Shape of one synthetic program.
#[derive(Clone, Copy, Debug)]
pub struct ScaleParams {
    /// Call-graph layers below the sections.
    pub depth: usize,
    /// Functions per layer.
    pub width: usize,
    /// Number of atomic sections (each in its own driver function).
    pub sections: usize,
    /// Straight-line statements per generated function.
    pub stmts_per_fn: usize,
    /// Generator seed.
    pub seed: u64,
}

/// The benchmark's size tiers, smallest first. The last entry is the
/// "largest synthetic tier" quoted in `BENCH_analysis.json`.
pub fn tiers() -> Vec<(&'static str, ScaleParams)> {
    vec![
        (
            "scale-small",
            ScaleParams {
                depth: 3,
                width: 4,
                sections: 4,
                stmts_per_fn: 10,
                seed: 11,
            },
        ),
        (
            "scale-medium",
            ScaleParams {
                depth: 5,
                width: 8,
                sections: 16,
                stmts_per_fn: 14,
                seed: 12,
            },
        ),
        (
            "scale-large",
            ScaleParams {
                depth: 7,
                width: 12,
                sections: 48,
                stmts_per_fn: 16,
                seed: 13,
            },
        ),
    ]
}

/// Generates one layered-call-graph program.
pub fn generate(name: &str, p: ScaleParams) -> RunSpec {
    let mut rng = Rng(p.seed ^ 0x5CA1_AB1E);
    let mut src = String::new();
    for s in 0..N_STRUCTS {
        let fields: Vec<String> = (0..FIELDS_PER_STRUCT)
            .map(|f| format!("s{s}_f{f};"))
            .collect();
        let _ = writeln!(src, "struct s{s} {{ {} }}", fields.join(" "));
    }
    let globals: Vec<String> = (0..N_GLOBALS).map(|g| format!("g{g}")).collect();
    let _ = writeln!(src, "global {};", globals.join(", "));

    // Layers are emitted bottom-up so callees precede callers
    // lexically; `layer_fns[d]` holds the names of layer d (d = 0 is
    // the layer the sections call).
    let mut layer_fns: Vec<Vec<String>> = vec![Vec::new(); p.depth];
    for d in (0..p.depth).rev() {
        for w in 0..p.width {
            let fname = format!("fn_d{d}_w{w}");
            let callees: &[String] = if d + 1 < p.depth {
                &layer_fns[d + 1]
            } else {
                &[]
            };
            let body = emit_function(&mut rng, &fname, d, w, p.stmts_per_fn, callees);
            src.push_str(&body);
            layer_fns[d].push(fname);
        }
    }

    // Drivers: one atomic section each, over 2–3 shared layer-0 roots.
    for s in 0..p.sections {
        let _ = writeln!(src, "fn sec_{s}(q0, q1) {{");
        let _ = writeln!(src, "    atomic {{");
        let _ = writeln!(src, "        let t = q0->s0_f0;");
        let _ = writeln!(src, "        q1->s1_f1 = t;");
        let roots = 2 + rng.below(2);
        for c in 0..roots {
            let f = &layer_fns[0][rng.below(layer_fns[0].len())];
            let _ = writeln!(src, "        let r{c} = {f}(q0, q1);");
        }
        let g = rng.below(N_GLOBALS);
        let _ = writeln!(src, "        g{g} = q0;");
        let _ = writeln!(src, "    }}");
        let _ = writeln!(src, "    return q0;");
        let _ = writeln!(src, "}}");
    }

    let _ = writeln!(src, "fn main() {{");
    let _ = writeln!(src, "    let a = new s0;");
    let _ = writeln!(src, "    let b = new s1;");
    for s in 0..p.sections {
        let _ = writeln!(src, "    let m{s} = sec_{s}(a, b);");
    }
    let _ = writeln!(src, "    return 0;");
    let _ = writeln!(src, "}}");

    RunSpec {
        name: name.to_owned(),
        source: src,
        init: ("main", vec![]),
        worker: ("main", vec![]),
        check: None,
        heap_cells: 1 << 20,
    }
}

/// A null-safe twin of [`generate`] for *runtime* smoke tests (the
/// sentinel-overhead gate): the same layered call graph and pointer
/// traffic, but every dereferenced pointer is a parameter, a fresh
/// allocation, or a global initialized by `setup` — loaded fields are
/// treated as opaque — so the program interprets without faults.
/// `generate`'s output may read a field before any store and is
/// compile/analysis-only.
///
/// Workers share state through the six globals: sections publish their
/// roots into them and dereference what other threads published, so the
/// inferred locks are genuinely contended.
pub fn smoke(name: &str, p: ScaleParams, iters: i64) -> RunSpec {
    let mut rng = Rng(p.seed ^ 0x0DD_BA11);
    let mut src = String::new();
    for s in 0..N_STRUCTS {
        let fields: Vec<String> = (0..FIELDS_PER_STRUCT)
            .map(|f| format!("s{s}_f{f};"))
            .collect();
        let _ = writeln!(src, "struct s{s} {{ {} }}", fields.join(" "));
    }
    let globals: Vec<String> = (0..N_GLOBALS).map(|g| format!("g{g}")).collect();
    let _ = writeln!(src, "global {};", globals.join(", "));

    // (name, p0 type, p1 type) per layer, bottom-up as in `generate`.
    let mut layer_fns: Vec<Vec<(String, usize, usize)>> = vec![Vec::new(); p.depth];
    for d in (0..p.depth).rev() {
        for w in 0..p.width {
            let fname = format!("fn_d{d}_w{w}");
            let (t0, t1) = ((d + w) % N_STRUCTS, (d + w + 1) % N_STRUCTS);
            let callees: &[(String, usize, usize)] = if d + 1 < p.depth {
                &layer_fns[d + 1]
            } else {
                &[]
            };
            src.push_str(&emit_smoke_function(
                &mut rng,
                &fname,
                t0,
                t1,
                p.stmts_per_fn,
                callees,
            ));
            layer_fns[d].push((fname, t0, t1));
        }
    }

    for s in 0..p.sections {
        let _ = writeln!(src, "fn sec_{s}(q0, q1) {{");
        let _ = writeln!(src, "    atomic {{");
        let _ = writeln!(src, "        let t = q0->s0_f0;");
        let _ = writeln!(src, "        q1->s1_f1 = t;");
        let roots = 2 + rng.below(2);
        for c in 0..roots {
            let (f, ta, tb) = layer_fns[0][rng.below(layer_fns[0].len())].clone();
            // q0 is s0, q1 is s1; globals g0..g5 cycle s0 s1 s2 s0 s1
            // s2 and are non-null after `setup`, so every type has a
            // safe argument without allocating.
            let arg = |t: usize| match t {
                0 => "q0".to_owned(),
                1 => "q1".to_owned(),
                t => format!("g{t}"),
            };
            let _ = writeln!(src, "        let r{c} = {f}({}, {});", arg(ta), arg(tb));
        }
        // Publish a root for other threads to chase; keep the global's
        // struct type (g0 and g3 hold s0).
        let g = [0, 3][rng.below(2)];
        let _ = writeln!(src, "        g{g} = q0;");
        let _ = writeln!(src, "    }}");
        let _ = writeln!(src, "    return q0;");
        let _ = writeln!(src, "}}");
    }

    let _ = writeln!(src, "fn setup() {{");
    for g in 0..N_GLOBALS {
        let _ = writeln!(src, "    g{g} = new s{};", g % N_STRUCTS);
    }
    let _ = writeln!(src, "    return 0;");
    let _ = writeln!(src, "}}");

    let _ = writeln!(src, "fn work(iters) {{");
    let _ = writeln!(src, "    let a = new s0;");
    let _ = writeln!(src, "    let b = new s1;");
    let _ = writeln!(src, "    let i = 0;");
    let _ = writeln!(src, "    while (i < iters) {{");
    for s in 0..p.sections {
        let _ = writeln!(src, "        let m{s} = sec_{s}(a, b);");
    }
    let _ = writeln!(src, "        i = i + 1;");
    let _ = writeln!(src, "    }}");
    let _ = writeln!(src, "    return 0;");
    let _ = writeln!(src, "}}");

    RunSpec {
        name: name.to_owned(),
        source: src,
        init: ("setup", vec![]),
        worker: ("work", vec![iters]),
        check: None,
        // Smoke functions allocate on every call and never free.
        heap_cells: 1 << 22,
    }
}

/// One null-safe function: dereferences only pool variables that are
/// provably non-null (params, allocations, initialized globals); field
/// loads land in throwaway locals that are stored but never deref'd.
fn emit_smoke_function(
    rng: &mut Rng,
    fname: &str,
    t0: usize,
    t1: usize,
    stmts: usize,
    callees: &[(String, usize, usize)],
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "fn {fname}(p0, p1) {{");
    let mut safe: Vec<(String, usize)> = vec![("p0".into(), t0), ("p1".into(), t1)];
    let mut n = 0usize;
    // Finds (or allocates) a non-null variable of struct type `want`.
    macro_rules! pick_safe {
        ($want:expr) => {{
            let want = $want;
            let hits: Vec<&String> = safe
                .iter()
                .filter(|(_, t)| *t == want)
                .map(|(x, _)| x)
                .collect();
            if hits.is_empty() {
                let v = format!("v{n}");
                n += 1;
                let _ = writeln!(out, "    let {v} = new s{want};");
                safe.push((v.clone(), want));
                v
            } else {
                hits[rng.below(hits.len())].clone()
            }
        }};
    }
    for _ in 0..stmts {
        match rng.below(8) {
            0 => {
                let ty = rng.below(N_STRUCTS);
                let v = format!("v{n}");
                n += 1;
                let _ = writeln!(out, "    let {v} = new s{ty};");
                safe.push((v, ty));
            }
            1 | 2 => {
                let (x, ty) = safe[rng.below(safe.len())].clone();
                let f = rng.below(FIELDS_PER_STRUCT);
                let v = format!("v{n}");
                n += 1;
                // Loaded fields may be null — keep them out of `safe`.
                let _ = writeln!(out, "    let {v} = {x}->s{ty}_f{f};");
            }
            3 | 4 => {
                let (x, ty) = safe[rng.below(safe.len())].clone();
                let f = rng.below(FIELDS_PER_STRUCT);
                let y = pick_safe!((ty + 1) % N_STRUCTS);
                let _ = writeln!(out, "    {x}->s{ty}_f{f} = {y};");
            }
            5 => {
                let g = rng.below(N_GLOBALS);
                let y = pick_safe!(g % N_STRUCTS);
                let _ = writeln!(out, "    g{g} = {y};");
            }
            6 => {
                let g = rng.below(N_GLOBALS);
                let v = format!("v{n}");
                n += 1;
                let _ = writeln!(out, "    let {v} = g{g};");
                // Globals hold their setup type forever (case 5 and the
                // sections preserve it), so the load is deref-safe.
                safe.push((v, g % N_STRUCTS));
            }
            _ => {
                let (x, ty) = safe[rng.below(safe.len())].clone();
                let v = format!("v{n}");
                n += 1;
                let _ = writeln!(out, "    let {v} = {x};");
                safe.push((v, ty));
            }
        }
    }
    for _ in 0..2.min(callees.len()) {
        let (callee, ta, tb) = callees[rng.below(callees.len())].clone();
        let a = pick_safe!(ta);
        let b = pick_safe!(tb);
        let v = format!("v{n}");
        n += 1;
        let _ = writeln!(out, "    let {v} = {callee}({a}, {b});");
        // Smoke functions return their p0, so the result has the
        // callee's p0 type and is non-null.
        safe.push((v, ta));
    }
    let _ = writeln!(out, "    return p0;");
    let _ = writeln!(out, "}}");
    out
}

/// One function of the layered graph: pointer-heavy straight-line code
/// over its two pointer parameters, global traffic, and (below the last
/// layer) a couple of next-layer calls.
fn emit_function(
    rng: &mut Rng,
    fname: &str,
    d: usize,
    w: usize,
    stmts: usize,
    callees: &[String],
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "fn {fname}(p0, p1) {{");
    let t0 = (d + w) % N_STRUCTS;
    let t1 = (d + w + 1) % N_STRUCTS;
    // Tracked pool: (name, struct type) — same typed discipline as
    // spec_like, so points-to classes stay separated.
    let mut vars: Vec<(String, usize)> = vec![("p0".into(), t0), ("p1".into(), t1)];
    let mut n = 0usize;
    for _ in 0..stmts {
        match rng.below(8) {
            0 => {
                let ty = rng.below(N_STRUCTS);
                let v = format!("v{n}");
                n += 1;
                let _ = writeln!(out, "    let {v} = new s{ty};");
                vars.push((v, ty));
            }
            1..=3 => {
                let (x, ty) = vars[rng.below(vars.len())].clone();
                let f = rng.below(FIELDS_PER_STRUCT);
                let v = format!("v{n}");
                n += 1;
                let _ = writeln!(out, "    let {v} = {x}->s{ty}_f{f};");
                vars.push((v, (ty + 1) % N_STRUCTS));
            }
            4 | 5 => {
                let (x, ty) = vars[rng.below(vars.len())].clone();
                let want = (ty + 1) % N_STRUCTS;
                let f = rng.below(FIELDS_PER_STRUCT);
                let y = match vars.iter().find(|(_, t)| *t == want) {
                    Some((y, _)) => y.clone(),
                    None => {
                        let y = format!("v{n}");
                        n += 1;
                        let _ = writeln!(out, "    let {y} = new s{want};");
                        vars.push((y.clone(), want));
                        y
                    }
                };
                let _ = writeln!(out, "    {x}->s{ty}_f{f} = {y};");
            }
            6 => {
                let g = rng.below(N_GLOBALS);
                let gty = g % N_STRUCTS;
                if rng.below(2) == 0 {
                    match vars.iter().find(|(_, t)| *t == gty) {
                        Some((x, _)) => {
                            let x = x.clone();
                            let _ = writeln!(out, "    g{g} = {x};");
                        }
                        None => {
                            let _ = writeln!(out, "    g{g} = new s{gty};");
                        }
                    }
                } else {
                    let v = format!("v{n}");
                    n += 1;
                    let _ = writeln!(out, "    let {v} = g{g};");
                    vars.push((v, gty));
                }
            }
            _ => {
                let (x, ty) = vars[rng.below(vars.len())].clone();
                let v = format!("v{n}");
                n += 1;
                let _ = writeln!(out, "    let {v} = {x};");
                vars.push((v, ty));
            }
        }
    }
    // Fan out to the next layer: two shared callees per function.
    for _ in 0..2.min(callees.len()) {
        let callee = &callees[rng.below(callees.len())];
        let v = format!("v{n}");
        n += 1;
        let _ = writeln!(out, "    let {v} = {callee}(p1, p0);");
        vars.push((v, t1));
    }
    let ret = vars[rng.below(vars.len())].0.clone();
    let _ = writeln!(out, "    return {ret};");
    let _ = writeln!(out, "}}");
    out
}
