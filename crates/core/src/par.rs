//! The one index-ordered parallel map: Phase B of the analysis solves
//! sections with it, the eval harness replays candidates with it.

use std::sync::atomic::{AtomicUsize, Ordering};

/// How many workers `threads` resolves to for `n` items: `0` asks for
/// one per core, and no more workers than items are ever started.
pub(crate) fn worker_count(threads: usize, n: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    }
    .clamp(1, n.max(1))
}

/// Runs `f(0..n)` on `worker_count(threads, n)` scoped workers
/// pulling indices from an atomic queue, and merges the results **in
/// index order** — the canonical merge that keeps every downstream
/// report byte-identical at every thread count. One worker (or a
/// single item) degenerates to a plain sequential loop.
pub fn par_map<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let n_threads = worker_count(threads, n);
    if n_threads <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let f = &f;
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let parts: Vec<Vec<(usize, T)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..n_threads)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        out.push((i, f(i)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("par_map worker panicked"))
            .collect()
    });
    for part in parts {
        for (i, v) in part {
            slots[i] = Some(v);
        }
    }
    slots
        .into_iter()
        .map(|o| o.expect("every index evaluated exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_merges_in_index_order_at_any_thread_count() {
        for threads in [0usize, 1, 2, 7, 16] {
            let out = par_map(23, threads, |i| i * i);
            assert_eq!(out, (0..23).map(|i| i * i).collect::<Vec<_>>(), "{threads}");
        }
        assert!(par_map(0, 4, |i| i).is_empty());
    }

    #[test]
    fn par_map_runs_every_index_exactly_once() {
        use std::sync::atomic::AtomicU64;
        let hits: Vec<AtomicU64> = (0..50).map(|_| AtomicU64::new(0)).collect();
        par_map(50, 7, |i| hits[i].fetch_add(1, Ordering::Relaxed));
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }
}
