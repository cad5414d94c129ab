//! Placement-by-index parallel helpers: the one place the workspace
//! decides how work is split across threads and put back in order.
//!
//! Every helper takes a `threads` count and returns (or writes) its
//! results by index, so the output is the same for every thread count.
//! When `threads ≤ 1` or there is at most one item, the work runs on the
//! caller's thread with no slot vector and no thread spawn: a serial run
//! is the helpers' one-chunk case, not a separate code path.
//!
//! * [`map`] — `f(i)` for every `i in 0..n`, results in index order.
//! * [`map_owned`] — the same over owned items, with per-worker state.
//! * [`for_each_chunk_mut`] — disjoint `&mut` chunks of one slice.
//! * [`concat`] — joins per-chunk vectors in order (no copy for one).
//!
//! Workers claim indices from a shared [`AtomicUsize`], so a slow item
//! does not hold up the rest of a contiguous range; each result is placed
//! back at its own index after the workers join.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `f(i)` for every `i in 0..n` on up to `threads` scoped worker
/// threads and returns the results in index order.
pub fn map<R: Send>(n: usize, threads: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    map_indices(n, threads, &|| (), &|_, i| f(i))
}

/// Runs `f(state, item)` for every item on up to `threads` scoped worker
/// threads and returns the results in item order. Each worker makes its
/// own `state` with `init` once (a serial run makes exactly one), so
/// scratch buffers are grown once per worker, not once per item.
pub fn map_owned<I: Send, S, R: Send>(
    items: Vec<I>,
    threads: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, I) -> R + Sync,
) -> Vec<R> {
    if threads <= 1 || items.len() <= 1 {
        let mut state = init();
        return items.into_iter().map(|item| f(&mut state, item)).collect();
    }
    // Each cell is taken by exactly the worker that claimed its index, so
    // the locks are never contended; they only hand ownership across.
    let cells: Vec<Mutex<Option<I>>> = items.into_iter().map(|x| Mutex::new(Some(x))).collect();
    map_indices(cells.len(), threads, &init, &|state, i| {
        let item = cells[i]
            .lock()
            .expect("an item cell is never locked across a panic")
            .take()
            .expect("each index is claimed once");
        f(state, item)
    })
}

/// Calls `f(i, chunk)` for each chunk `data[bounds[i]..bounds[i + 1]]`
/// on up to `threads` scoped worker threads. `bounds` must start at 0,
/// be non-decreasing and end at `data.len()`; the chunks are disjoint, so
/// workers write without locks.
pub fn for_each_chunk_mut<T: Send>(
    data: &mut [T],
    bounds: &[usize],
    threads: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    assert_eq!(
        (bounds.first(), bounds.last()),
        (Some(&0), Some(&data.len())),
        "chunk bounds must span the slice"
    );
    let mut chunks: Vec<(usize, &mut [T])> = Vec::with_capacity(bounds.len() - 1);
    let mut rest = data;
    for (i, w) in bounds.windows(2).enumerate() {
        let (head, tail) = rest.split_at_mut(w[1] - w[0]);
        chunks.push((i, head));
        rest = tail;
    }
    map_owned(chunks, threads, || (), |_, (i, chunk)| f(i, chunk));
}

/// Concatenates per-chunk vectors in order. A single vector is returned
/// as is, so the one-chunk case copies nothing.
pub fn concat<T>(mut parts: Vec<Vec<T>>) -> Vec<T> {
    if parts.len() == 1 {
        return parts.pop().expect("one part");
    }
    let mut out = Vec::with_capacity(parts.iter().map(Vec::len).sum());
    for part in parts {
        out.extend(part);
    }
    out
}

/// The engine behind every helper: `threads.min(n)` workers claim indices
/// from a shared counter and keep `(index, result)` pairs, which are
/// placed back by index once all workers have joined. The closures are
/// taken as trait objects so the thread and placement code is compiled
/// once per result type, not once per call site.
fn map_indices<S, R: Send>(
    n: usize,
    threads: usize,
    init: &(dyn Fn() -> S + Sync),
    f: &(dyn Fn(&mut S, usize) -> R + Sync),
) -> Vec<R> {
    if threads <= 1 || n <= 1 {
        let mut state = init();
        return (0..n).map(|i| f(&mut state, i)).collect();
    }
    // `Relaxed` suffices: the counter only hands out distinct indices
    // (every `fetch_add` sees a distinct value); results travel back
    // through the joins, which synchronize.
    let next = AtomicUsize::new(0);
    let batches: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.min(n))
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            return done;
                        }
                        done.push((i, f(&mut state, i)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (i, r) in batches.into_iter().flatten() {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|r| r.expect("every index is claimed once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_places_results_by_index_for_every_thread_count() {
        let expected: Vec<usize> = (0..1000).map(|i| i * i).collect();
        for threads in [0, 1, 2, 3, 8, 2000] {
            assert_eq!(map(1000, threads, |i| i * i), expected, "threads={threads}");
        }
        assert!(map(0, 4, |i| i).is_empty());
        assert_eq!(map(1, 4, |i| i + 7), vec![7]);
    }

    #[test]
    fn serial_runs_stay_on_the_caller_thread() {
        let caller = std::thread::current().id();
        for (n, threads) in [(5, 0), (5, 1), (1, 8)] {
            assert!(map(n, threads, |_| std::thread::current().id() == caller)
                .into_iter()
                .all(|same| same));
        }
    }

    #[test]
    fn map_owned_moves_items_and_makes_state_once_per_worker() {
        let inits = AtomicUsize::new(0);
        let items: Vec<String> = (0..50).map(|i| i.to_string()).collect();
        for threads in [1, 3] {
            inits.store(0, Ordering::SeqCst);
            let out = map_owned(
                items.clone(),
                threads,
                || {
                    inits.fetch_add(1, Ordering::SeqCst);
                    0usize
                },
                |seen, s| {
                    *seen += 1;
                    s + "!"
                },
            );
            let expected: Vec<String> = items.iter().map(|s| format!("{s}!")).collect();
            assert_eq!(out, expected);
            assert!(inits.load(Ordering::SeqCst) <= threads);
        }
    }

    #[test]
    fn for_each_chunk_mut_writes_each_chunk_once() {
        let bounds = [0, 3, 3, 10, 17];
        for threads in [1, 2, 4] {
            let mut data = vec![0usize; 17];
            for_each_chunk_mut(&mut data, &bounds, threads, |i, chunk| {
                for x in chunk.iter_mut() {
                    *x += i + 1;
                }
            });
            let expected: Vec<usize> = (0..17)
                .map(|j| bounds.windows(2).position(|w| j < w[1]).unwrap() + 1)
                .collect();
            assert_eq!(data, expected, "threads={threads}");
        }
    }

    #[test]
    fn concat_keeps_order_and_passes_a_single_part_through() {
        assert_eq!(concat(vec![vec![1, 2], vec![], vec![3]]), vec![1, 2, 3]);
        let one = vec![4, 5];
        let ptr = one.as_ptr();
        let out = concat(vec![one]);
        assert_eq!(out.as_ptr(), ptr, "a single part is not copied");
        assert!(concat(Vec::<Vec<u8>>::new()).is_empty());
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_reach_the_caller() {
        map(8, 4, |i| {
            if i == 5 {
                panic!("boom");
            }
            i
        });
    }
}
