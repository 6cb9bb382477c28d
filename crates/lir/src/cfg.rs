//! Control-flow utilities over a function body: successors,
//! predecessors, and atomic-section regions.

use crate::ir::*;

/// Successor instruction indices of the instruction at `idx`.
///
/// The index `body.len()` denotes the function exit point.
pub fn successors(body: &[Instr], idx: usize) -> Vec<u32> {
    match &body[idx] {
        Instr::Jump(t) => vec![*t],
        Instr::Branch(_, t, e) => {
            if t == e {
                vec![*t]
            } else {
                vec![*t, *e]
            }
        }
        Instr::Ret => vec![body.len() as u32],
        _ => vec![idx as u32 + 1],
    }
}

/// Predecessor lists for every program point of a function body.
///
/// Entry `i` lists the instruction indices whose execution can be
/// followed by point `i` (the point *before* instruction `i`); entry
/// `body.len()` is the exit point.
pub fn predecessors(body: &[Instr]) -> Vec<Vec<u32>> {
    let mut preds = vec![Vec::new(); body.len() + 1];
    for (i, _) in body.iter().enumerate() {
        for s in successors(body, i) {
            preds[s as usize].push(i as u32);
        }
    }
    preds
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::compile;

    #[test]
    fn straight_line_preds() {
        let p = compile("fn main() { let x = 1; let y = 2; }").unwrap();
        let body = &p.functions[0].body;
        let preds = predecessors(body);
        assert!(preds[0].is_empty());
        for (i, ps) in preds.iter().enumerate().take(body.len()).skip(1) {
            assert_eq!(*ps, vec![i as u32 - 1]);
        }
    }

    #[test]
    fn loop_has_back_edge() {
        let p = compile("fn main(x) { while (x != null) { x = x->f; } } struct s { f; }").unwrap();
        let body = &p.functions[0].body;
        let preds = predecessors(body);
        // The loop head (index 0 here: first instr of cond) must have >1 pred
        // or at least a pred with a larger index (the back edge).
        let has_back_edge = preds
            .iter()
            .enumerate()
            .any(|(i, ps)| ps.iter().any(|&pr| pr as usize > i));
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
        assert_eq!(successors(&body, 0), vec![1]);
        assert_eq!(successors(&body, 1), vec![2]);
    }
}
