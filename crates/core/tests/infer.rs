//! End-to-end tests of the lock inference on the paper's own examples
//! and on targeted interprocedural scenarios.

use lir::{Eff, PathOp, Program, VarId};
use lockinfer::dataflow::{analyze_program_with_opts, SectionResult};
use lockinfer::library::{ExternalSummary, LibrarySpec};
use lockinfer::{analyze_program, compile_with_locks};
use lockscheme::{AbsLock, SchemeConfig};
use pointsto::PointsTo;

fn var(p: &Program, name: &str) -> VarId {
    VarId(
        p.vars
            .iter()
            .position(|vi| p.interner.resolve(vi.name) == name)
            .unwrap_or_else(|| panic!("no var {name}")) as u32,
    )
}

fn field(p: &Program, name: &str) -> lir::FieldId {
    lir::FieldId(
        p.fields
            .iter()
            .position(|fi| p.interner.resolve(fi.name) == name)
            .unwrap() as u32,
    )
}

/// Renders a section's locks for readable assertions.
fn lock_strings(p: &Program, sec: &SectionResult) -> Vec<String> {
    let mut v: Vec<String> = sec
        .locks
        .iter()
        .map(|l| p.render_lock(&l.to_spec()))
        .collect();
    v.sort();
    v
}

const MOVE_SRC: &str = r#"
    struct elem { next; data; }
    struct list { head; }
    fn move_(from, to) {
        atomic {
            let x = to->head;
            let y = from->head;
            from->head = null;
            if (x == null) {
                to->head = y;
            } else {
                while (x->next != null) { x = x->next; }
                x->next = y;
            }
        }
    }
    fn main() {
        let l1 = new list;
        let l2 = new list;
        l1->head = new elem;
        l2->head = new elem;
        move_(l1, l2);
        move_(l2, l1);
    }
"#;

/// Figure 1(c): fine locks on `&(to->head)` and `&(from->head)`, plus a
/// coarse lock `E` over the list elements (the unbounded traversal).
#[test]
fn figure1_move_example() {
    let (p, analysis, _) = compile_with_locks(MOVE_SRC, 3).unwrap();
    assert_eq!(analysis.sections.len(), 1);
    let sec = &analysis.sections[0];
    let rendered = lock_strings(&p, sec);

    let head = field(&p, "head");
    let (to, from) = (var(&p, "to"), var(&p, "from"));
    let fine_to = lir::PathExpr {
        base: to,
        ops: vec![PathOp::Deref, PathOp::Field(head)],
    };
    let fine_from = lir::PathExpr {
        base: from,
        ops: vec![PathOp::Deref, PathOp::Field(head)],
    };
    let has_fine = |path: &lir::PathExpr, eff: Eff| {
        sec.locks
            .iter()
            .any(|l| l.path.as_ref() == Some(path) && l.eff == eff)
    };
    assert!(
        has_fine(&fine_to, Eff::Rw),
        "fine rw lock on to->head; got {rendered:?}"
    );
    assert!(
        has_fine(&fine_from, Eff::Rw),
        "fine rw lock on from->head; got {rendered:?}"
    );
    let n_coarse = sec.locks.iter().filter(|l| !l.is_fine()).count();
    assert_eq!(
        n_coarse, 1,
        "exactly one coarse lock (the elements); got {rendered:?}"
    );
    assert!(
        sec.locks.iter().all(|l| !l.is_global()),
        "no global lock needed; got {rendered:?}"
    );
    // The coarse lock covers the element class (where x->next lives),
    // which is distinct from the lists' class.
    let pt = PointsTo::analyze(&p);
    let elem_class = pt
        .class_of_path(&lir::PathExpr {
            base: to,
            ops: vec![PathOp::Deref, PathOp::Field(head), PathOp::Deref],
        })
        .unwrap();
    let coarse = sec.locks.iter().find(|l| !l.is_fine()).unwrap();
    assert_eq!(coarse.pts, Some(elem_class));
}

/// Figure 2: to protect `*z = null` at the section entry the analysis
/// must lock both `y->data` (value) and `w` — because `x` may alias `y`.
#[test]
fn figure2_alias_tracing() {
    let src = r#"
        struct s { data; }
        fn main(x, y, w, c) {
            if (c == null) { x = y; }
            atomic {
                x->data = w;
                let z = y->data;
                *z = null;
            }
        }
    "#;
    let (p, analysis, _) = compile_with_locks(src, 9).unwrap();
    let sec = &analysis.sections[0];
    let data = field(&p, "data");
    let (x, y, w) = (var(&p, "x"), var(&p, "y"), var(&p, "w"));
    let has = |base: VarId, ops: Vec<PathOp>, eff: Eff| {
        sec.locks.iter().any(|l| {
            l.path.as_ref()
                == Some(&lir::PathExpr {
                    base,
                    ops: ops.clone(),
                })
                && l.eff == eff
        })
    };
    // *(*ȳ + data): the cell z points to, traced to the entry.
    assert!(
        has(
            y,
            vec![PathOp::Deref, PathOp::Field(data), PathOp::Deref],
            Eff::Rw
        ),
        "lock on value of y->data: {:?}",
        lock_strings(&p, sec)
    );
    // *w̄: the aliased case where x->data was overwritten by w.
    assert!(
        has(w, vec![PathOp::Deref], Eff::Rw),
        "lock on *w: {:?}",
        lock_strings(&p, sec)
    );
    // x->data cell itself is written.
    assert!(
        has(x, vec![PathOp::Deref, PathOp::Field(data)], Eff::Rw),
        "lock on x->data cell: {:?}",
        lock_strings(&p, sec)
    );
}

/// Reads inside a section produce read-only locks; writes read-write.
#[test]
fn effects_are_tracked() {
    let src = r#"
        struct s { f; }
        fn main(a, b) {
            atomic { let x = a->f; }
            atomic { b->f = null; }
        }
    "#;
    let (p, analysis, _) = compile_with_locks(src, 9).unwrap();
    let read_sec = &analysis.sections[0];
    let write_sec = &analysis.sections[1];
    assert!(
        read_sec.locks.iter().all(|l| l.eff == Eff::Ro),
        "pure reader takes only ro locks: {:?}",
        lock_strings(&p, read_sec)
    );
    assert!(
        write_sec.locks.iter().any(|l| l.eff == Eff::Rw),
        "writer takes an rw lock: {:?}",
        lock_strings(&p, write_sec)
    );
}

/// k = 0 yields only coarse locks (Figure 7's first column).
#[test]
fn k0_is_all_coarse() {
    let (_, analysis, _) = compile_with_locks(MOVE_SRC, 0).unwrap();
    let counts = analysis.lock_counts();
    assert_eq!(counts.fine_ro + counts.fine_rw, 0);
    assert!(counts.total() > 0);
}

/// Section-local allocations shed their locks once k is large enough to
/// trace them to the allocation site (the paper's k = 3 dip).
#[test]
fn section_local_allocations_need_no_locks() {
    let src = r#"
        struct s { f; }
        fn main() {
            atomic {
                let n = new s;
                n->f = null;
                let t = n->f;
            }
        }
    "#;
    let (_, analysis, _) = compile_with_locks(src, 9).unwrap();
    assert!(
        analysis.sections[0].locks.is_empty(),
        "nothing escapes, nothing shared: {:?}",
        analysis.sections[0].locks
    );
    // With k = 0 the same section still takes a coarse lock: the
    // allocation-site class is locked conservatively.
    let (_, analysis0, _) = compile_with_locks(src, 0).unwrap();
    assert!(!analysis0.sections[0].locks.is_empty());
}

/// Accesses in called functions are protected at the caller's section
/// entry via function summaries (map/unmap).
#[test]
fn interprocedural_summaries() {
    let src = r#"
        struct list { head; }
        fn set_head(l, v) { l->head = v; }
        fn main(a) {
            atomic { set_head(a, null); }
        }
    "#;
    let (p, analysis, _) = compile_with_locks(src, 9).unwrap();
    let sec = &analysis.sections[0];
    let head = field(&p, "head");
    let a = var(&p, "a");
    let want = lir::PathExpr {
        base: a,
        ops: vec![PathOp::Deref, PathOp::Field(head)],
    };
    assert!(
        sec.locks
            .iter()
            .any(|l| l.path.as_ref() == Some(&want) && l.eff == Eff::Rw),
        "callee's store surfaces as a->head at the caller: {:?}",
        lock_strings(&p, sec)
    );
}

/// A two-level call chain: the access is two frames down.
#[test]
fn nested_call_chain() {
    let src = r#"
        struct list { head; }
        fn inner(q) { q->head = null; }
        fn outer(r) { inner(r); }
        fn main(a) { atomic { outer(a); } }
    "#;
    let (p, analysis, _) = compile_with_locks(src, 9).unwrap();
    let sec = &analysis.sections[0];
    let head = field(&p, "head");
    let a = var(&p, "a");
    let want = lir::PathExpr {
        base: a,
        ops: vec![PathOp::Deref, PathOp::Field(head)],
    };
    assert!(
        sec.locks.iter().any(|l| l.path.as_ref() == Some(&want)),
        "two-level summary: {:?}",
        lock_strings(&p, sec)
    );
}

/// Recursive functions terminate and fall back to coarse locks for the
/// unbounded part.
#[test]
fn recursion_terminates_with_coarse_locks() {
    let src = r#"
        struct node { next; }
        fn last(n) {
            let t = n->next;
            if (t == null) { return n; }
            return last(t);
        }
        fn main(a) {
            atomic { let l = last(a); }
        }
    "#;
    let (p, analysis, _) = compile_with_locks(src, 3).unwrap();
    let sec = &analysis.sections[0];
    assert!(
        sec.locks.iter().any(|l| !l.is_fine()),
        "unbounded traversal needs a coarse lock: {:?}",
        lock_strings(&p, sec)
    );
}

/// Return values are traced through `ret_f` back into the caller.
#[test]
fn return_value_mapping() {
    let src = r#"
        struct list { head; }
        fn get(l) { return l->head; }
        fn main(a) {
            atomic {
                let h = get(a);
                *h = null;
            }
        }
    "#;
    let (p, analysis, _) = compile_with_locks(src, 9).unwrap();
    let sec = &analysis.sections[0];
    let head = field(&p, "head");
    let a = var(&p, "a");
    // *h at entry = *(value of a->head) = a̅ deref, field head, deref.
    let want = lir::PathExpr {
        base: a,
        ops: vec![PathOp::Deref, PathOp::Field(head), PathOp::Deref],
    };
    assert!(
        sec.locks
            .iter()
            .any(|l| l.path.as_ref() == Some(&want) && l.eff == Eff::Rw),
        "callee return traced: {:?}",
        lock_strings(&p, sec)
    );
}

/// Globals read/written inside sections get variable-address locks;
/// thread-local temps do not.
#[test]
fn globals_are_locked_locals_are_not() {
    let src = r#"
        global g;
        fn main() {
            atomic { let t = g; g = t; }
        }
    "#;
    let (p, analysis, _) = compile_with_locks(src, 9).unwrap();
    let sec = &analysis.sections[0];
    let g = var(&p, "g");
    assert!(
        sec.locks
            .iter()
            .any(|l| l.path.as_ref() == Some(&lir::PathExpr::var(g)) && l.eff == Eff::Rw),
        "global cell locked rw: {:?}",
        lock_strings(&p, sec)
    );
    assert_eq!(
        sec.locks.len(),
        1,
        "no locks for the local t: {:?}",
        lock_strings(&p, sec)
    );
}

/// Merge keeps maximal locks only: a coarse lock subsumes fine locks of
/// the same class at the same effect.
#[test]
fn redundant_fine_locks_are_pruned() {
    let src = r#"
        struct node { next; }
        fn main(a) {
            atomic {
                let x = a->next;      // fine candidate
                while (x != null) { x = x->next; }   // forces coarse on the class
            }
        }
    "#;
    let (p, analysis, _) = compile_with_locks(src, 2).unwrap();
    let sec = &analysis.sections[0];
    // Since the traversal produces a coarse rw... actually ro lock on
    // the node class, any fine ro lock of that class must be pruned.
    let coarse_classes: Vec<_> = sec
        .locks
        .iter()
        .filter(|l| !l.is_fine())
        .map(|l| (l.pts, l.eff))
        .collect();
    for l in sec.locks.iter().filter(|l| l.is_fine()) {
        assert!(
            !coarse_classes
                .iter()
                .any(|(c, e)| *c == l.pts && l.eff.leq(*e)),
            "fine lock {} subsumed by a coarse lock in {:?}",
            l,
            lock_strings(&p, sec)
        );
    }
}

/// Nested atomic sections are analyzed independently; the outer one
/// covers the inner accesses too.
#[test]
fn nested_sections() {
    let src = r#"
        global g, h;
        fn main() {
            atomic {
                g = null;
                atomic { h = null; }
            }
        }
    "#;
    let (p, analysis, _) = compile_with_locks(src, 9).unwrap();
    assert_eq!(analysis.sections.len(), 2);
    let outer = &analysis.sections[0];
    let inner = &analysis.sections[1];
    let (g, h) = (var(&p, "g"), var(&p, "h"));
    let mentions = |sec: &SectionResult, v: VarId| {
        sec.locks
            .iter()
            .any(|l| l.path.as_ref() == Some(&lir::PathExpr::var(v)))
    };
    assert!(
        mentions(outer, g) && mentions(outer, h),
        "outer protects both"
    );
    assert!(
        mentions(inner, h) && !mentions(inner, g),
        "inner protects only h"
    );
}

/// The transformation replaces markers and keeps everything else.
#[test]
fn transform_replaces_markers() {
    let (p, analysis, transformed) = compile_with_locks(MOVE_SRC, 3).unwrap();
    let text = transformed.to_string();
    assert!(text.contains("acquireAll #0"));
    assert!(text.contains("releaseAll #0"));
    assert!(!text.contains("enter_atomic"));
    assert!(!text.contains("exit_atomic"));
    // Same instruction count, same functions.
    assert_eq!(p.instr_count(), transformed.instr_count());
    let _ = analysis;
}

/// Pre-compiled library support: the spec's coarse locks stand in for
/// the opaque function's accesses, and fine locks crossing the call are
/// demoted when the spec says the callee modifies their cells.
#[test]
fn library_specifications() {
    let src = r#"
        struct list { head; }
        fn opaque(l) { l->head = null; }
        fn main(a) {
            atomic {
                opaque(a);
                let x = a->head;
                *x = null;
            }
        }
    "#;
    let p = lir::compile(src).unwrap();
    let pt = PointsTo::analyze(&p);
    let cfg = SchemeConfig::full(9, p.elem_field_opt());
    let opaque_fn = p.function_named("opaque").unwrap();

    // Treat `opaque` as pre-compiled: it may touch and modify the list
    // class.
    let a = var(&p, "a");
    let head = field(&p, "head");
    let list_class = pt
        .class_of_path(&lir::PathExpr {
            base: a,
            ops: vec![PathOp::Deref],
        })
        .unwrap();
    let mut lib = LibrarySpec::new();
    lib.insert(
        opaque_fn,
        ExternalSummary {
            locks: vec![AbsLock::coarse(list_class, Eff::Rw)],
            modifies: vec![list_class],
        },
    );
    let analysis = analyze_program_with_opts(&p, &pt, cfg, &lib, 1);
    let sec = &analysis.sections[0];
    // The spec's coarse lock is present.
    assert!(
        sec.locks
            .iter()
            .any(|l| !l.is_fine() && l.pts == Some(list_class) && l.eff == Eff::Rw),
        "spec lock present: {:?}",
        lock_strings(&p, sec)
    );
    // The lock for *x (whose expression reads a->head, which the opaque
    // callee may modify) must have been demoted to a coarse lock — no
    // fine lock mentioning head survives below the call.
    let fine_through_head = sec.locks.iter().any(|l| {
        l.path
            .as_ref()
            .is_some_and(|p2| p2.ops.contains(&PathOp::Field(head)) && p2.ops.len() > 2)
    });
    assert!(
        !fine_through_head,
        "fine locks across the opaque call were demoted: {:?}",
        lock_strings(&p, sec)
    );
    // Compare: with the real body analyzed, the same program still
    // infers sound locks (sanity).
    let full = analyze_program(&p, &pt, cfg);
    assert!(!full.sections[0].locks.is_empty());
}

/// Increasing k refines never-coarser lock sets: the count of coarse
/// locks is non-increasing in k for these programs.
#[test]
fn k_sweep_monotonicity_on_examples() {
    for src in [MOVE_SRC] {
        let mut prev_coarse = usize::MAX;
        for k in 0..6 {
            let (_, analysis, _) = compile_with_locks(src, k).unwrap();
            let c = analysis.lock_counts();
            let coarse = c.coarse_ro + c.coarse_rw;
            assert!(
                coarse <= prev_coarse,
                "coarse count increased from {prev_coarse} to {coarse} at k={k}"
            );
            prev_coarse = coarse;
        }
    }
}

/// A section in a helper function: its locks are expressed in the
/// helper's own parameters and evaluated per invocation.
#[test]
fn section_inside_callee_uses_callee_params() {
    let src = r#"
        struct list { head; }
        fn clear(l) {
            atomic { l->head = null; }
        }
        fn main(a, b) { clear(a); clear(b); }
    "#;
    let (p, analysis, _) = compile_with_locks(src, 9).unwrap();
    let clear_fn = p.function_named("clear").unwrap();
    let sec = analysis
        .sections
        .iter()
        .find(|s| s.func == clear_fn)
        .unwrap();
    let l = var(&p, "l");
    let head = field(&p, "head");
    let want = lir::PathExpr {
        base: l,
        ops: vec![PathOp::Deref, PathOp::Field(head)],
    };
    assert!(
        sec.locks
            .iter()
            .any(|k| k.path.as_ref() == Some(&want) && k.eff == Eff::Rw),
        "{:?}",
        lock_strings(&p, sec)
    );
}

/// Both branches of a diamond contribute locks; the merge keeps both.
#[test]
fn diamond_merges_branch_locks() {
    let src = r#"
        struct s { f; g; }
        fn main(a, b, c) {
            atomic {
                if (c == null) { a->f = null; } else { b->g = null; }
            }
        }
    "#;
    let (p, analysis, _) = compile_with_locks(src, 9).unwrap();
    let sec = &analysis.sections[0];
    let (a, b) = (var(&p, "a"), var(&p, "b"));
    let (f, g) = (field(&p, "f"), field(&p, "g"));
    let has = |base, fld| {
        sec.locks.iter().any(|l| {
            l.path.as_ref()
                == Some(&lir::PathExpr {
                    base,
                    ops: vec![PathOp::Deref, PathOp::Field(fld)],
                })
        })
    };
    assert!(has(a, f) && has(b, g), "{:?}", lock_strings(&p, sec));
}

/// Calling the same helper twice inside one section reuses its summary
/// and protects both receivers.
#[test]
fn summary_reused_across_call_sites() {
    let src = r#"
        struct list { head; }
        fn set_head(l, v) { l->head = v; }
        fn main(a, b) {
            atomic {
                set_head(a, null);
                set_head(b, null);
            }
        }
    "#;
    let (p, analysis, _) = compile_with_locks(src, 9).unwrap();
    let sec = &analysis.sections[0];
    let head = field(&p, "head");
    for name in ["a", "b"] {
        let base = var(&p, name);
        let want = lir::PathExpr {
            base,
            ops: vec![PathOp::Deref, PathOp::Field(head)],
        };
        assert!(
            sec.locks.iter().any(|l| l.path.as_ref() == Some(&want)),
            "missing lock for {name}: {:?}",
            lock_strings(&p, sec)
        );
    }
}

/// Aliased actuals (f(x, x)) are handled by the unmap substitution.
#[test]
fn aliased_actual_arguments() {
    let src = r#"
        struct s { f; g; }
        fn touch(p, q) { p->f = null; let t = q->g; }
        fn main(x) {
            atomic { touch(x, x); }
        }
    "#;
    let (p, analysis, _) = compile_with_locks(src, 9).unwrap();
    let sec = &analysis.sections[0];
    let x = var(&p, "x");
    let (f, g) = (field(&p, "f"), field(&p, "g"));
    let has = |fld, eff| {
        sec.locks.iter().any(|l| {
            l.path.as_ref()
                == Some(&lir::PathExpr {
                    base: x,
                    ops: vec![PathOp::Deref, PathOp::Field(fld)],
                })
                && l.eff == eff
        })
    };
    assert!(has(f, Eff::Rw), "{:?}", lock_strings(&p, sec));
    assert!(has(g, Eff::Ro), "{:?}", lock_strings(&p, sec));
}

/// Loops with break inside a section still converge to a sound set.
#[test]
fn loops_and_breaks_inside_sections() {
    let src = r#"
        struct node { next; val; }
        global head;
        fn main(limit) {
            atomic {
                let cur = head;
                let n = 0;
                while (cur != null) {
                    n = n + 1;
                    if (n > limit) { break; }
                    cur = cur->next;
                }
                head = cur;
            }
        }
    "#;
    let (p, analysis, _) = compile_with_locks(src, 3).unwrap();
    let sec = &analysis.sections[0];
    let head_var = var(&p, "head");
    assert!(
        sec.locks
            .iter()
            .any(|l| l.path.as_ref() == Some(&lir::PathExpr::var(head_var)) && l.eff == Eff::Rw),
        "{:?}",
        lock_strings(&p, sec)
    );
    assert!(
        sec.locks.iter().any(|l| !l.is_fine()),
        "traversal needs the node class"
    );
}

/// Effect canonicalization of summaries: a read-only call and a
/// writing call through the same helper keep their distinct effects.
#[test]
fn summary_effects_are_per_call() {
    let src = r#"
        struct s { f; }
        fn read_f(p) { return p->f; }
        fn main(a, b) {
            atomic {
                let r = read_f(a);
                b->f = r;
            }
        }
    "#;
    let (p, analysis, _) = compile_with_locks(src, 9).unwrap();
    let sec = &analysis.sections[0];
    let (a, b) = (var(&p, "a"), var(&p, "b"));
    let f = field(&p, "f");
    let eff_of = |base| {
        sec.locks
            .iter()
            .find(|l| {
                l.path.as_ref()
                    == Some(&lir::PathExpr {
                        base,
                        ops: vec![PathOp::Deref, PathOp::Field(f)],
                    })
            })
            .map(|l| l.eff)
    };
    assert_eq!(eff_of(a), Some(Eff::Ro), "{:?}", lock_strings(&p, sec));
    assert_eq!(eff_of(b), Some(Eff::Rw), "{:?}", lock_strings(&p, sec));
}

/// The hashtable-2 shape: a put that touches one bucket cell gets a
/// fine lock on that cell at k ≥ 1 (the paper's headline fine-grain
/// win).
#[test]
fn hashtable2_put_is_fine_grained() {
    let src = r#"
        struct entry { next; key; val; }
        global table;
        fn init() { table = new(16); }
        fn put(k, v) {
            atomic {
                let b = k % 16;
                let e = new entry;
                e->key = k;
                e->val = v;
                e->next = table[b];
                table[b] = e;
            }
        }
        fn main() { init(); put(1, 2); }
    "#;
    let (p, analysis, _) = compile_with_locks(src, 9).unwrap();
    let sec = analysis
        .sections
        .iter()
        .find(|s| !s.locks.is_empty())
        .unwrap();
    let rendered = lock_strings(&p, sec);
    // The bucket cell table[b] is written: a fine lock ending in the
    // dynamic [] offset, rw.
    let elem = p.elem_field_opt().unwrap();
    assert!(
        sec.locks.iter().any(|l| l
            .path
            .as_ref()
            .is_some_and(|pa| pa.ops.last() == Some(&PathOp::Field(elem)))
            && l.eff == Eff::Rw),
        "fine rw lock on the bucket family: {rendered:?}"
    );
    // The new entry's fields need no locks (section-local allocation).
    let entry_writes = sec.locks.iter().filter(|l| l.eff == Eff::Rw).count();
    assert!(
        entry_writes <= 3,
        "entry field stores shed locks: {rendered:?}"
    );
}
