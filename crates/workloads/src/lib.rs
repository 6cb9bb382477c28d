//! # workloads — the evaluation programs of §6.1
//!
//! Mini-language sources for every program in the paper's evaluation:
//!
//! * [`micro`] — the data-structure micro-benchmarks (`list`,
//!   `hashtable`, `rbtree`, `hashtable-2`, `TH`) with the paper's
//!   put/get/remove harness, nop dilution, and *low*/*high* contention
//!   mixes;
//! * [`stamp`] — STAMP-like kernels (`genome`, `vacation`, `kmeans`,
//!   `bayes`, `labyrinth`) preserving each benchmark's concurrency
//!   shape (see DESIGN.md for the substitution argument);
//! * [`spec_like`] — a synthetic generator producing SPECint-sized
//!   programs for the analysis-scalability half of Table 1;
//! * [`scale`] — layered call-graph programs scaling depth, width, and
//!   section count independently, for the `analysis-bench` throughput
//!   benchmark;
//! * [`fuzz`] — runnable random programs for the differential and
//!   Theorem-1 soundness property tests.
//!
//! A [`RunSpec`] bundles a source with its init/worker/check entry
//! points; the `bench` crate's harness compiles, transforms, and runs
//! it under each execution mode.

pub mod fuzz;
pub mod micro;
pub mod scale;
pub mod spec_like;
pub mod stamp;

/// The generators' one PRNG (splitmix64): a program is a pure function
/// of its seed, so the pinned corpora depend on this exact sequence. A
/// private item of the crate root, which every generator module sees.
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

/// Contention setting of the micro-benchmark harness (§6.3).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Contention {
    /// Gets four times more common than puts.
    Low,
    /// Puts four times more often (four out of five operations).
    High,
}

impl Contention {
    /// The paper's table suffix (`-low` / `-high`).
    pub fn suffix(self) -> &'static str {
        match self {
            Contention::Low => "low",
            Contention::High => "high",
        }
    }
}

/// A runnable benchmark program.
#[derive(Clone, Debug)]
pub struct RunSpec {
    /// Display name, matching the paper's tables where applicable.
    pub name: String,
    /// Mini-language source text.
    pub source: String,
    /// Single-threaded setup entry `(function, args)`.
    pub init: (&'static str, Vec<i64>),
    /// Per-thread timed entry `(function, args)`.
    pub worker: (&'static str, Vec<i64>),
    /// Post-run invariant checker (asserts internally), if any.
    pub check: Option<&'static str>,
    /// Heap size the program needs.
    pub heap_cells: usize,
}

impl RunSpec {
    /// Thousands of source lines (the paper's size metric).
    pub fn kloc(&self) -> f64 {
        self.source.lines().count() as f64 / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockscheme::SchemeConfig;

    fn compiles_and_analyzes(spec: &RunSpec) {
        let program = lir::compile(&spec.source)
            .unwrap_or_else(|e| panic!("{} fails to compile: {e}", spec.name));
        assert!(program.n_sections > 0, "{} has atomic sections", spec.name);
        let pt = pointsto::PointsTo::analyze(&program);
        for k in [0, 3] {
            let cfg = SchemeConfig::full(k, program.elem_field_opt());
            let analysis = lockinfer::analyze_program(&program, &pt, cfg);
            assert_eq!(analysis.sections.len(), program.n_sections as usize);
            for sec in &analysis.sections {
                assert!(
                    !sec.locks.is_empty(),
                    "{} section #{} at k={k} has locks",
                    spec.name,
                    sec.id.0
                );
            }
        }
    }

    #[test]
    fn micro_benchmarks_compile_and_analyze() {
        for c in [Contention::Low, Contention::High] {
            for spec in micro::all(c, 100, 10) {
                compiles_and_analyzes(&spec);
            }
        }
    }

    #[test]
    fn stamp_kernels_compile_and_analyze() {
        for spec in stamp::all(100, 10) {
            compiles_and_analyzes(&spec);
        }
    }

    #[test]
    fn hashtable2_put_gets_a_fine_lock_and_rbtree_does_not() {
        let spec = micro::hashtable2(Contention::High, 10, 0);
        let program = lir::compile(&spec.source).unwrap();
        let pt = pointsto::PointsTo::analyze(&program);
        let cfg = SchemeConfig::full(9, program.elem_field_opt());
        let analysis = lockinfer::analyze_program(&program, &pt, cfg);
        let counts = analysis.lock_counts();
        assert!(
            counts.fine_rw > 0,
            "hashtable-2 put has a fine rw lock: {counts}"
        );

        let spec = micro::rbtree(Contention::High, 10, 0);
        let program = lir::compile(&spec.source).unwrap();
        let pt = pointsto::PointsTo::analyze(&program);
        let cfg = SchemeConfig::full(9, program.elem_field_opt());
        let analysis = lockinfer::analyze_program(&program, &pt, cfg);
        // rbtree gets no fine locks on tree *nodes* — its only fine
        // locks are bare variable cells (the root pointer, knobs).
        for sec in &analysis.sections {
            for l in sec.locks.iter().filter(|l| l.is_fine()) {
                assert!(
                    l.path.as_ref().unwrap().ops.is_empty(),
                    "unexpected structural fine lock {l} in rbtree"
                );
            }
        }
        assert!(
            counts.coarse_ro > 0,
            "rbtree gets read-only coarse locks: {counts}"
        );
    }

    #[test]
    fn rbtree_reader_sections_are_read_only() {
        let spec = micro::rbtree(Contention::Low, 10, 0);
        let program = lir::compile(&spec.source).unwrap();
        let pt = pointsto::PointsTo::analyze(&program);
        let cfg = SchemeConfig::full(9, program.elem_field_opt());
        let analysis = lockinfer::analyze_program(&program, &pt, cfg);
        // tree_get's section takes only ro locks.
        let get_fn = program.function_named("tree_get").unwrap();
        let sec = analysis.sections.iter().find(|s| s.func == get_fn).unwrap();
        assert!(
            sec.locks.iter().all(|l| l.eff == lir::Eff::Ro),
            "{:?}",
            sec.locks
        );
    }

    #[test]
    fn th_structures_live_in_disjoint_classes() {
        let spec = micro::th(Contention::Low, 10, 0);
        let program = lir::compile(&spec.source).unwrap();
        let pt = pointsto::PointsTo::analyze(&program);
        let cfg = SchemeConfig::full(0, program.elem_field_opt());
        let analysis = lockinfer::analyze_program(&program, &pt, cfg);
        let tree_put = program.function_named("tree_put").unwrap();
        let ht_put = program.function_named("ht_put").unwrap();
        let tree_sec = analysis
            .sections
            .iter()
            .find(|s| s.func == tree_put)
            .unwrap();
        let ht_sec = analysis.sections.iter().find(|s| s.func == ht_put).unwrap();
        let tree_classes: Vec<_> = tree_sec.locks.iter().filter_map(|l| l.pts).collect();
        let ht_classes: Vec<_> = ht_sec.locks.iter().filter_map(|l| l.pts).collect();
        assert!(
            tree_classes.iter().all(|c| !ht_classes.contains(c)),
            "tree locks {tree_classes:?} vs hashtable locks {ht_classes:?} overlap"
        );
    }

    #[test]
    fn generator_hits_size_targets() {
        for (name, kloc) in [("a", 5.0), ("b", 12.0)] {
            let spec = spec_like::generate(name, kloc, 42);
            let got = spec.kloc();
            assert!(
                (got - kloc).abs() / kloc < 0.15,
                "{name}: wanted ~{kloc} KLOC, got {got}"
            );
            let program = lir::compile(&spec.source).unwrap();
            assert_eq!(program.n_sections, 1, "main wrapped in one atomic section");
        }
    }

    #[test]
    fn generator_is_deterministic() {
        let a = spec_like::generate("x", 3.0, 7).source;
        let b = spec_like::generate("x", 3.0, 7).source;
        assert_eq!(a, b);
        let c = spec_like::generate("x", 3.0, 8).source;
        assert_ne!(a, c);
    }

    #[test]
    fn scale_programs_compile_analyze_and_are_deterministic() {
        let (name, p) = &scale::tiers()[0];
        let spec = scale::generate(name, *p);
        assert_eq!(spec.source, scale::generate(name, *p).source);
        let program = lir::compile(&spec.source).unwrap();
        assert_eq!(
            program.n_sections as usize, p.sections,
            "one atomic section per driver"
        );
        let pt = pointsto::PointsTo::analyze(&program);
        let cfg = SchemeConfig::full(3, program.elem_field_opt());
        let analysis = lockinfer::analyze_program(&program, &pt, cfg);
        assert_eq!(analysis.sections.len(), p.sections);
        assert!(
            analysis.sections.iter().all(|s| !s.locks.is_empty()),
            "every scale section gets locks"
        );
        assert!(
            analysis.stats.summary_functions > 0,
            "shared callees produce cached summaries: {:?}",
            analysis.stats
        );
    }
}
