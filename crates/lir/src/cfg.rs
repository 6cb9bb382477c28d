//! Control-flow utilities over a function body: successors,
//! predecessors, and atomic-section regions.

use crate::ir::*;

/// Successor instruction indices of the instruction at `idx`, without
/// allocating.
///
/// The index `body.len()` denotes the function exit point.
pub fn successors(body: &[Instr], idx: usize) -> impl Iterator<Item = u32> {
    let (first, second) = match &body[idx] {
        Instr::Jump(t) => (*t, None),
        Instr::Branch(_, t, e) => (*t, (t != e).then_some(*e)),
        Instr::Ret => (body.len() as u32, None),
        _ => (idx as u32 + 1, None),
    };
    std::iter::once(first).chain(second)
}

/// Predecessor lists for every program point of a function body, in
/// one flat table: the lists of points `0..=body.len()` back to back,
/// and where each starts.
///
/// [`Predecessors::at`]`(i)` lists the instruction indices whose
/// execution can be followed by point `i` (the point *before*
/// instruction `i`), in ascending order; point `body.len()` is the
/// exit point. The analyses' widening depends on that order.
#[derive(Clone, Debug)]
pub struct Predecessors {
    /// `starts[i]..starts[i + 1]` is point `i`'s slice of `preds`.
    starts: Vec<u32>,
    preds: Vec<u32>,
}

impl Predecessors {
    /// The predecessors of program point `point`.
    pub fn at(&self, point: u32) -> &[u32] {
        let i = point as usize;
        &self.preds[self.starts[i] as usize..self.starts[i + 1] as usize]
    }
}

/// The [`Predecessors`] table of a function body: in-degrees counted,
/// then every edge placed in ascending order of its source instruction.
pub fn predecessors(body: &[Instr]) -> Predecessors {
    // Counted two slots up and summed, `starts[s + 1]` is where point
    // `s`'s list begins; as the fill cursor it ends where the list
    // ends, i.e. where point `s + 1`'s begins, and the spare last slot
    // goes.
    let mut starts = vec![0u32; body.len() + 3];
    for i in 0..body.len() {
        for s in successors(body, i) {
            starts[s as usize + 2] += 1;
        }
    }
    for i in 2..starts.len() {
        starts[i] += starts[i - 1];
    }
    let mut preds = vec![0u32; starts[body.len() + 2] as usize];
    for i in 0..body.len() {
        for s in successors(body, i) {
            let at = &mut starts[s as usize + 1];
            preds[*at as usize] = i as u32;
            *at += 1;
        }
    }
    starts.pop();
    Predecessors { starts, preds }
}

/// A lexical atomic region within one function.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AtomicRegion {
    pub id: SectionId,
    /// Index of the `EnterAtomic` instruction.
    pub enter: u32,
    /// Index of the matching `ExitAtomic` instruction.
    pub exit: u32,
}

impl AtomicRegion {
    /// True when instruction index `idx` lies strictly inside the region.
    pub fn contains(&self, idx: u32) -> bool {
        idx > self.enter && idx < self.exit
    }
}

/// Extracts the (possibly nested) atomic regions of a function body.
///
/// Lowering guarantees sections are properly bracketed; regions are
/// returned in order of their `EnterAtomic` instruction.
///
/// # Panics
///
/// Panics on malformed bracketing (which lowering never produces).
pub fn atomic_regions(body: &[Instr]) -> Vec<AtomicRegion> {
    let mut out = Vec::new();
    let mut stack: Vec<(SectionId, u32)> = Vec::new();
    for (i, ins) in body.iter().enumerate() {
        match ins {
            Instr::EnterAtomic(s) => stack.push((*s, i as u32)),
            Instr::ExitAtomic(s) => {
                let (open, enter) = stack.pop().expect("unbalanced atomic brackets");
                assert_eq!(open, *s, "mismatched atomic brackets");
                out.push(AtomicRegion {
                    id: *s,
                    enter,
                    exit: i as u32,
                });
            }
            _ => {}
        }
    }
    assert!(stack.is_empty(), "unclosed atomic section");
    out.sort_by_key(|r| r.enter);
    out
}

/// The nested-`Vec` builder [`predecessors`] replaced, kept as its
/// oracle: one list per point, pushed in ascending instruction order.
#[cfg(test)]
fn reference_predecessors(body: &[Instr]) -> Vec<Vec<u32>> {
    let mut preds = vec![Vec::new(); body.len() + 1];
    for i in 0..body.len() {
        for s in successors(body, i) {
            preds[s as usize].push(i as u32);
        }
    }
    preds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::compile;

    #[test]
    fn straight_line_preds() {
        let p = compile("fn main() { let x = 1; let y = 2; }").unwrap();
        let body = &p.functions[0].body;
        let preds = predecessors(body);
        assert!(preds.at(0).is_empty());
        for i in 1..=body.len() as u32 {
            assert_eq!(preds.at(i), [i - 1]);
        }
    }

    #[test]
    fn loop_has_back_edge() {
        let p = compile("fn main(x) { while (x != null) { x = x->f; } } struct s { f; }").unwrap();
        let body = &p.functions[0].body;
        let preds = predecessors(body);
        // The loop head (index 0 here: first instr of cond) must have >1 pred
        // or at least a pred with a larger index (the back edge).
        let has_back_edge = (0..=body.len() as u32).any(|i| preds.at(i).iter().any(|&pr| pr > i));
        assert!(has_back_edge);
    }

    #[test]
    fn regions_nest() {
        let p = compile("fn main() { atomic { let a = 1; atomic { let b = 2; } } }").unwrap();
        let regions = atomic_regions(&p.functions[0].body);
        assert_eq!(regions.len(), 2);
        let outer = regions.iter().find(|r| r.id == SectionId(0)).unwrap();
        let inner = regions.iter().find(|r| r.id == SectionId(1)).unwrap();
        assert!(outer.contains(inner.enter) && outer.contains(inner.exit));
    }

    #[test]
    fn branch_successors_dedup() {
        let body = vec![Instr::Branch(VarId(0), 1, 1), Instr::Ret];
        assert_eq!(successors(&body, 0).collect::<Vec<_>>(), [1]);
        assert_eq!(successors(&body, 1).collect::<Vec<_>>(), [2]);
        let body = vec![Instr::Branch(VarId(0), 2, 1), Instr::Jump(0), Instr::Ret];
        assert_eq!(successors(&body, 0).collect::<Vec<_>>(), [2, 1]);
    }

    #[test]
    fn an_empty_body_has_one_point() {
        let preds = predecessors(&[]);
        assert_eq!((preds.starts.len(), preds.at(0)), (2, &[][..]));
    }

    /// Holds the flat table to the nested lists it replaced, list for
    /// list in content and order, at every point of every function, the
    /// exit point included.
    fn assert_tables_agree(name: &str, src: &str) {
        let p = compile(src).unwrap_or_else(|e| panic!("{name} fails to compile: {e}"));
        for f in &p.functions {
            let (flat, nested) = (predecessors(&f.body), reference_predecessors(&f.body));
            assert_eq!(flat.starts.len(), nested.len() + 1, "{name} fn {}", f.id.0);
            for (i, list) in nested.iter().enumerate() {
                assert_eq!(
                    flat.at(i as u32),
                    &list[..],
                    "{name} fn {} point {i}",
                    f.id.0
                );
            }
        }
    }

    #[test]
    fn the_flat_table_is_the_nested_one_on_every_corpus() {
        use workloads::{fuzz, micro, scale, spec_like, stamp, Contention};
        for c in [Contention::Low, Contention::High] {
            for spec in micro::all(c, 100, 1) {
                assert_tables_agree(&spec.name, &spec.source);
            }
        }
        for spec in stamp::all(100, 1) {
            assert_tables_agree(&spec.name, &spec.source);
        }
        for (name, params) in scale::tiers() {
            assert_tables_agree(name, &scale::generate(name, params).source);
        }
        for kloc in [2.0, 71.6] {
            assert_tables_agree("spec-like", &spec_like::generate("x", kloc, 10).source);
        }
        for seed in 0..40 {
            assert_tables_agree("fuzz", &fuzz::runnable(seed, 60).source);
        }
    }
}
