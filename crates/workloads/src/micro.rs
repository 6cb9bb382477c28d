//! The data-structure micro-benchmarks of §6.1: `list`, `hashtable`,
//! `rbtree` (the implementations distributed with STAMP), `hashtable-2`
//! (head-insert, never resizes), and `TH` (rbtree + hashtable combined).
//!
//! Every operation is wrapped in an atomic section diluted with a nop
//! loop, exactly as in the paper's harness. The shared harness performs
//! put/get/remove with the *low* (gets 4×) or *high* (puts 4×) mixes.

use crate::{Contention, RunSpec};

/// The shared harness appended to each micro-benchmark: `worker` draws
/// operations according to the weights; `init` sets the nop knob and
/// prefills.
fn harness(put: &str, get: &str, remove: &str) -> String {
    format!(
        r#"
fn worker(ops, putw, getw, totw, keyspace) {{
    let i = 0;
    while (i < ops) {{
        let r = rand(totw);
        let k = rand(keyspace);
        if (r < putw) {{
            {put}(k, k + 1);
        }} else {{
            if (r < putw + getw) {{
                let v = {get}(k);
            }} else {{
                {remove}(k);
            }}
        }}
        i = i + 1;
    }}
    return 0;
}}
"#
    )
}

/// Weights `(put, get, total)` for a contention setting; the remainder
/// of the budget is removes.
fn weights(c: Contention) -> (i64, i64, i64) {
    match c {
        // Gets four times more common than all mutations combined.
        Contention::Low => (1, 8, 10),
        // Puts four times more often: four out of five operations.
        Contention::High => (8, 1, 10),
    }
}

/// Builds the standard micro RunSpec around a source + op names.
fn spec(name: &str, source: String, c: Contention, ops: i64, nopk: i64, keyspace: i64) -> RunSpec {
    let (putw, getw, totw) = weights(c);
    RunSpec {
        name: format!("{name}-{}", c.suffix()),
        source,
        init: ("init", vec![nopk, keyspace / 2, keyspace]),
        worker: ("worker", vec![ops, putw, getw, totw, keyspace]),
        check: Some("check"),
        heap_cells: 1 << 22,
    }
}

/// Sorted singly-linked list (STAMP's `list`).
pub fn list(c: Contention, ops: i64, nopk: i64) -> RunSpec {
    let src = format!(
        r#"
struct lnode {{ lnext; lkey; lval; }}
global lhead, LNOPS;

fn init(nopk, prefill, keyspace) {{
    LNOPS = nopk;
    lhead = null;
    let i = 0;
    while (i < prefill) {{
        put(rand(keyspace), i);
        i = i + 1;
    }}
    return 0;
}}

fn put(k, v) {{
    atomic {{
        nops(LNOPS);
        let prev = null;
        let cur = lhead;
        while (cur != null && cur->lkey < k) {{
            prev = cur;
            cur = cur->lnext;
        }}
        if (cur != null && cur->lkey == k) {{
            cur->lval = v;
        }} else {{
            let n = new lnode;
            n->lkey = k;
            n->lval = v;
            n->lnext = cur;
            if (prev == null) {{ lhead = n; }} else {{ prev->lnext = n; }}
        }}
    }}
    return 0;
}}

fn get(k) {{
    let res = 0 - 1;
    atomic {{
        nops(LNOPS);
        let cur = lhead;
        while (cur != null && cur->lkey < k) {{ cur = cur->lnext; }}
        if (cur != null && cur->lkey == k) {{ res = cur->lval; }}
    }}
    return res;
}}

fn remove(k) {{
    atomic {{
        nops(LNOPS);
        let prev = null;
        let cur = lhead;
        while (cur != null && cur->lkey < k) {{
            prev = cur;
            cur = cur->lnext;
        }}
        if (cur != null && cur->lkey == k) {{
            if (prev == null) {{ lhead = cur->lnext; }} else {{ prev->lnext = cur->lnext; }}
        }}
    }}
    return 0;
}}

fn check() {{
    // Sortedness and acyclicity (bounded walk).
    let cur = lhead;
    let steps = 0;
    while (cur != null) {{
        if (cur->lnext != null) {{ assert(cur->lkey < cur->lnext->lkey); }}
        cur = cur->lnext;
        steps = steps + 1;
        assert(steps < 100000);
    }}
    return steps;
}}
{harness}
"#,
        harness = harness("put", "get", "remove")
    );
    spec("list", src, c, ops, nopk, 256)
}

/// Chained hashtable whose put may trigger a full resize + rehash
/// (STAMP's `hashtable`) — so a put can touch the entire table.
pub fn hashtable(c: Contention, ops: i64, nopk: i64) -> RunSpec {
    let src = format!(
        r#"
struct hentry {{ hnext; hkey; hval; }}
global htab, hnb, hcount, HNOPS;

fn init(nopk, prefill, keyspace) {{
    HNOPS = nopk;
    hnb = 16;
    hcount = 0;
    htab = new(hnb);
    let i = 0;
    while (i < prefill) {{
        put(rand(keyspace), i);
        i = i + 1;
    }}
    return 0;
}}

fn rehash() {{
    let nn = hnb * 2;
    let nt = new(nn);
    let i = 0;
    while (i < hnb) {{
        let cur = htab[i];
        while (cur != null) {{
            let nxt = cur->hnext;
            let b = cur->hkey % nn;
            cur->hnext = nt[b];
            nt[b] = cur;
            cur = nxt;
        }}
        i = i + 1;
    }}
    htab = nt;
    hnb = nn;
    return 0;
}}

fn put(k, v) {{
    atomic {{
        nops(HNOPS);
        let b = k % hnb;
        let cur = htab[b];
        let found = 0;
        while (cur != null && found == 0) {{
            if (cur->hkey == k) {{
                cur->hval = v;
                found = 1;
            }}
            if (found == 0) {{ cur = cur->hnext; }}
        }}
        if (found == 0) {{
            let e = new hentry;
            e->hkey = k;
            e->hval = v;
            e->hnext = htab[b];
            htab[b] = e;
            hcount = hcount + 1;
            if (hcount > hnb * 2) {{ rehash(); }}
        }}
    }}
    return 0;
}}

fn get(k) {{
    let res = 0 - 1;
    atomic {{
        nops(HNOPS);
        let b = k % hnb;
        let cur = htab[b];
        let going = 1;
        while (cur != null && going == 1) {{
            if (cur->hkey == k) {{ res = cur->hval; going = 0; }}
            if (going == 1) {{ cur = cur->hnext; }}
        }}
    }}
    return res;
}}

fn remove(k) {{
    atomic {{
        nops(HNOPS);
        let b = k % hnb;
        let prev = null;
        let cur = htab[b];
        let going = 1;
        while (cur != null && going == 1) {{
            if (cur->hkey == k) {{
                if (prev == null) {{ htab[b] = cur->hnext; }} else {{ prev->hnext = cur->hnext; }}
                hcount = hcount - 1;
                going = 0;
            }}
            if (going == 1) {{ prev = cur; cur = cur->hnext; }}
        }}
    }}
    return 0;
}}

fn check() {{
    // Every entry hashes to its bucket; count matches.
    let n = 0;
    let i = 0;
    while (i < hnb) {{
        let cur = htab[i];
        while (cur != null) {{
            assert(cur->hkey % hnb == i);
            n = n + 1;
            cur = cur->hnext;
            assert(n < 4000000);
        }}
        i = i + 1;
    }}
    assert(n == hcount);
    return n;
}}
{harness}
"#,
        harness = harness("put", "get", "remove")
    );
    // A large keyspace and small prefill keep the table growing under
    // the put-heavy mix, so resizes (which touch the whole table) recur
    // during the measured phase — the behaviour behind the paper's
    // hashtable-high STM collapse.
    let mut s = spec("hashtable", src, c, ops, nopk, 16384);
    s.init = ("init", vec![nopk, 2048, 16384]);
    s
}

/// Head-insert hashtable that never resizes (`hashtable-2`): a put
/// updates exactly one bucket cell, which the inference protects with a
/// single fine-grain lock — the paper's headline fine-grain win. The
/// bucket index is computed before the section so the lock expression
/// is evaluable at the entry.
pub fn hashtable2(c: Contention, ops: i64, nopk: i64) -> RunSpec {
    let src = format!(
        r#"
struct bentry {{ bnext; bkey; bval; }}
global btab, BNB, BNOPS;

fn init(nopk, prefill, keyspace) {{
    BNOPS = nopk;
    BNB = 64;
    btab = new(64);
    let i = 0;
    while (i < prefill) {{
        put(rand(keyspace), i);
        i = i + 1;
    }}
    return 0;
}}

fn put(k, v) {{
    let b = k % BNB;
    atomic {{
        nops(BNOPS);
        let e = new bentry;
        e->bkey = k;
        e->bval = v;
        e->bnext = btab[b];
        btab[b] = e;
    }}
    return 0;
}}

fn get(k) {{
    let b = k % BNB;
    let res = 0 - 1;
    atomic {{
        nops(BNOPS);
        let cur = btab[b];
        let going = 1;
        while (cur != null && going == 1) {{
            if (cur->bkey == k) {{ res = cur->bval; going = 0; }}
            if (going == 1) {{ cur = cur->bnext; }}
        }}
    }}
    return res;
}}

fn remove(k) {{
    let b = k % BNB;
    atomic {{
        nops(BNOPS);
        let prev = null;
        let cur = btab[b];
        let going = 1;
        while (cur != null && going == 1) {{
            if (cur->bkey == k) {{
                if (prev == null) {{ btab[b] = cur->bnext; }} else {{ prev->bnext = cur->bnext; }}
                going = 0;
            }}
            if (going == 1) {{ prev = cur; cur = cur->bnext; }}
        }}
    }}
    return 0;
}}

fn check() {{
    let n = 0;
    let i = 0;
    while (i < BNB) {{
        let cur = btab[i];
        while (cur != null) {{
            assert(cur->bkey % BNB == i);
            n = n + 1;
            cur = cur->bnext;
            assert(n < 2000000);
        }}
        i = i + 1;
    }}
    return n;
}}
{harness}
"#,
        harness = harness("put", "get", "remove")
    );
    spec("hashtable-2", src, c, ops, nopk, 256)
}

/// The red-black tree source, with every name prefixed so `TH` can
/// embed it next to the hashtable without field-offset collisions.
fn rbtree_source() -> &'static str {
    r#"
struct tnode { left; right; parent; red; tkey; tval; }
global troot, TNOPS;

fn rotate_left(x) {
    let y = x->right;
    x->right = y->left;
    if (y->left != null) { y->left->parent = x; }
    y->parent = x->parent;
    if (x->parent == null) {
        troot = y;
    } else {
        if (x == x->parent->left) { x->parent->left = y; } else { x->parent->right = y; }
    }
    y->left = x;
    x->parent = y;
    return 0;
}

fn rotate_right(x) {
    let y = x->left;
    x->left = y->right;
    if (y->right != null) { y->right->parent = x; }
    y->parent = x->parent;
    if (x->parent == null) {
        troot = y;
    } else {
        if (x == x->parent->right) { x->parent->right = y; } else { x->parent->left = y; }
    }
    y->right = x;
    x->parent = y;
    return 0;
}

fn insert_fixup(z) {
    while (z->parent != null && z->parent->red == 1 && z->parent->parent != null) {
        let p = z->parent;
        let g = p->parent;
        if (p == g->left) {
            let u = g->right;
            if (u != null && u->red == 1) {
                p->red = 0;
                u->red = 0;
                g->red = 1;
                z = g;
            } else {
                if (z == p->right) {
                    z = p;
                    rotate_left(z);
                }
                z->parent->red = 0;
                z->parent->parent->red = 1;
                rotate_right(z->parent->parent);
            }
        } else {
            let u = g->left;
            if (u != null && u->red == 1) {
                p->red = 0;
                u->red = 0;
                g->red = 1;
                z = g;
            } else {
                if (z == p->left) {
                    z = p;
                    rotate_right(z);
                }
                z->parent->red = 0;
                z->parent->parent->red = 1;
                rotate_left(z->parent->parent);
            }
        }
    }
    troot->red = 0;
    return 0;
}

fn tree_put(k, v) {
    atomic {
        nops(TNOPS);
        let y = null;
        let x = troot;
        let found = 0;
        while (x != null && found == 0) {
            y = x;
            if (k == x->tkey) {
                x->tval = v;
                found = 1;
            } else {
                if (k < x->tkey) { x = x->left; } else { x = x->right; }
            }
        }
        if (found == 0) {
            let z = new tnode;
            z->tkey = k;
            z->tval = v;
            z->red = 1;
            z->parent = y;
            if (y == null) {
                troot = z;
            } else {
                if (k < y->tkey) { y->left = z; } else { y->right = z; }
            }
            insert_fixup(z);
        }
    }
    return 0;
}

fn tree_get(k) {
    let res = 0 - 1;
    atomic {
        nops(TNOPS);
        let x = troot;
        let going = 1;
        while (x != null && going == 1) {
            if (k == x->tkey) {
                res = x->tval;
                going = 0;
            } else {
                if (k < x->tkey) { x = x->left; } else { x = x->right; }
            }
        }
    }
    return res;
}

fn tree_remove(k) {
    // Tombstone removal: mark the value absent. Keeps the structural
    // invariants (and the concurrency shape: a write that traverses).
    atomic {
        nops(TNOPS);
        let x = troot;
        let going = 1;
        while (x != null && going == 1) {
            if (k == x->tkey) {
                x->tval = 0 - 1;
                going = 0;
            } else {
                if (k < x->tkey) { x = x->left; } else { x = x->right; }
            }
        }
    }
    return 0;
}

fn black_height(x) {
    if (x == null) { return 1; }
    let lh = black_height(x->left);
    let rh = black_height(x->right);
    assert(lh == rh);
    if (x->red == 1) {
        if (x->left != null) { assert(x->left->red == 0); }
        if (x->right != null) { assert(x->right->red == 0); }
        return lh;
    }
    return lh + 1;
}

fn check_order(x, lo, hi) {
    if (x == null) { return 0; }
    assert(lo < x->tkey);
    assert(x->tkey < hi);
    check_order(x->left, lo, x->tkey);
    check_order(x->right, x->tkey, hi);
    return 0;
}

fn tree_check() {
    if (troot != null) {
        assert(troot->red == 0);
        black_height(troot);
        check_order(troot, 0 - 1000000, 1000000);
    }
    return 0;
}
"#
}

/// Red-black tree (STAMP's `rbtree`): gets are pure readers, so the
/// effect scheme lets coarse read locks share — the paper's 2× win of
/// coarse locks over a global lock in the low setting.
pub fn rbtree(c: Contention, ops: i64, nopk: i64) -> RunSpec {
    let src = format!(
        r#"
{tree}
fn init(nopk, prefill, keyspace) {{
    TNOPS = nopk;
    troot = null;
    let i = 0;
    while (i < prefill) {{
        tree_put(rand(keyspace), i);
        i = i + 1;
    }}
    return 0;
}}

fn check() {{
    tree_check();
    return 0;
}}
{harness}
"#,
        tree = rbtree_source(),
        harness = harness("tree_put", "tree_get", "tree_remove")
    );
    spec("rbtree", src, c, ops, nopk, 256)
}

/// `TH`: rbtree and hashtable side by side; each operation picks one of
/// the two structures at random. Disjoint points-to classes mean the
/// coarse locks of the two structures never conflict — the paper's
/// best case for multi-grain locks over a global lock.
pub fn th(c: Contention, ops: i64, nopk: i64) -> RunSpec {
    let (putw, getw, totw) = weights(c);
    let src = format!(
        r#"
{tree}
struct hentry {{ hnext; hkey; hval; }}
global htab, hnb, hcount, HNOPS;

fn ht_rehash() {{
    let nn = hnb * 2;
    let nt = new(nn);
    let i = 0;
    while (i < hnb) {{
        let cur = htab[i];
        while (cur != null) {{
            let nxt = cur->hnext;
            let b = cur->hkey % nn;
            cur->hnext = nt[b];
            nt[b] = cur;
            cur = nxt;
        }}
        i = i + 1;
    }}
    htab = nt;
    hnb = nn;
    return 0;
}}

fn ht_put(k, v) {{
    atomic {{
        nops(HNOPS);
        let b = k % hnb;
        let cur = htab[b];
        let found = 0;
        while (cur != null && found == 0) {{
            if (cur->hkey == k) {{ cur->hval = v; found = 1; }}
            if (found == 0) {{ cur = cur->hnext; }}
        }}
        if (found == 0) {{
            let e = new hentry;
            e->hkey = k;
            e->hval = v;
            e->hnext = htab[b];
            htab[b] = e;
            hcount = hcount + 1;
            if (hcount > hnb * 2) {{ ht_rehash(); }}
        }}
    }}
    return 0;
}}

fn ht_get(k) {{
    let res = 0 - 1;
    atomic {{
        nops(HNOPS);
        let b = k % hnb;
        let cur = htab[b];
        let going = 1;
        while (cur != null && going == 1) {{
            if (cur->hkey == k) {{ res = cur->hval; going = 0; }}
            if (going == 1) {{ cur = cur->hnext; }}
        }}
    }}
    return res;
}}

fn ht_remove(k) {{
    atomic {{
        nops(HNOPS);
        let b = k % hnb;
        let prev = null;
        let cur = htab[b];
        let going = 1;
        while (cur != null && going == 1) {{
            if (cur->hkey == k) {{
                if (prev == null) {{ htab[b] = cur->hnext; }} else {{ prev->hnext = cur->hnext; }}
                hcount = hcount - 1;
                going = 0;
            }}
            if (going == 1) {{ prev = cur; cur = cur->hnext; }}
        }}
    }}
    return 0;
}}

fn init(nopk, prefill, keyspace) {{
    TNOPS = nopk;
    HNOPS = nopk;
    troot = null;
    hnb = 16;
    hcount = 0;
    htab = new(hnb);
    let i = 0;
    while (i < prefill) {{
        tree_put(rand(keyspace), i);
        ht_put(rand(keyspace), i);
        i = i + 1;
    }}
    return 0;
}}

fn check() {{
    tree_check();
    let n = 0;
    let i = 0;
    while (i < hnb) {{
        let cur = htab[i];
        while (cur != null) {{
            assert(cur->hkey % hnb == i);
            n = n + 1;
            cur = cur->hnext;
            assert(n < 4000000);
        }}
        i = i + 1;
    }}
    assert(n == hcount);
    return n;
}}

fn worker(ops, putw, getw, totw, keyspace) {{
    let i = 0;
    while (i < ops) {{
        let which = rand(2);
        let r = rand(totw);
        let k = rand(keyspace);
        if (which == 0) {{
            if (r < putw) {{ tree_put(k, k + 1); }}
            else {{
                if (r < putw + getw) {{ let v = tree_get(k); }}
                else {{ tree_remove(k); }}
            }}
        }} else {{
            if (r < putw) {{ ht_put(k, k + 1); }}
            else {{
                if (r < putw + getw) {{ let v = ht_get(k); }}
                else {{ ht_remove(k); }}
            }}
        }}
        i = i + 1;
    }}
    return 0;
}}
"#,
        tree = rbtree_source(),
    );
    RunSpec {
        name: format!("TH-{}", c.suffix()),
        source: src,
        init: ("init", vec![nopk, 128, 8192]),
        worker: ("worker", vec![ops, putw, getw, totw, 8192]),
        check: Some("check"),
        heap_cells: 1 << 22,
    }
}

/// All five micro-benchmarks at one contention setting.
pub fn all(c: Contention, ops: i64, nopk: i64) -> Vec<RunSpec> {
    vec![
        hashtable(c, ops, nopk),
        rbtree(c, ops, nopk),
        list(c, ops, nopk),
        hashtable2(c, ops, nopk),
        th(c, ops, nopk),
    ]
}
