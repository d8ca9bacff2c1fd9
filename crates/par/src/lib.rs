//! The one thread fan-out in the Pingmesh workspace: the sharded
//! simulation engine's epoch step.
//!
//! The build environment is fully offline, so `rayon` is unavailable, and
//! the orchestrator needs only a sliver of it: split the shard list into
//! contiguous chunks, run the first on the calling thread and each other
//! on its own scoped thread, with mutable access to its shards, and join
//! results **in chunk order** so the barrier merge is deterministic —
//! identical to a serial run — regardless of thread count or scheduling.
//!
//! Built on [`std::thread::scope`], so borrowed (non-`'static`) state
//! works and panics propagate to the caller. No thread pool is kept alive
//! between calls. Nothing else fans out: pinglist generation and window
//! aggregation are serial loops, because a scoped fan-out did not pay for
//! itself in either (EXPERIMENTS.md, "One timing system").

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::num::NonZeroUsize;

/// Number of worker threads to use by default: the machine's available
/// parallelism, floored at 1 (if the OS won't say, fall back to serial).
pub fn max_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Splits `len` work items into at most `threads` contiguous chunk ranges
/// covering `0..len` in order. The first `len % threads` chunks get one
/// extra item, so sizes differ by at most one.
fn chunk_ranges(len: usize, threads: usize) -> Vec<std::ops::Range<usize>> {
    let threads = threads.max(1).min(len.max(1));
    let base = len / threads;
    let extra = len % threads;
    let mut out = Vec::with_capacity(threads);
    let mut start = 0;
    for i in 0..threads {
        let size = base + usize::from(i < extra);
        out.push(start..start + size);
        start += size;
    }
    debug_assert_eq!(start, len);
    out
}

/// Runs `f` over every element of `items` **by mutable reference** on up
/// to `threads` threads (the caller's among them), returning per-element results in input
/// order. This is the fan-out the sharded simulation engine uses: each
/// shard owns disjoint mutable state (its agents, their pending events,
/// its outboxes), advances independently for one epoch, and the results come
/// back in shard order so the barrier merge is deterministic.
///
/// `f` receives the element's index alongside the element so workers can
/// key derived state (e.g. a shard id) without interior mutability.
///
/// The first chunk runs on the calling thread; the rest each get a scoped
/// thread. `threads <= 1` (or a single-item input) runs inline with no
/// spawning at all — a 1-shard run is exactly a serial run.
pub fn par_map_mut_threads<T, R, F>(threads: usize, items: &mut [T], f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    if threads <= 1 || items.len() <= 1 {
        return items.iter_mut().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let ranges = chunk_ranges(items.len(), threads);
    let f = &f;
    let run = move |base: usize, chunk: &mut [T]| -> Vec<R> {
        chunk
            .iter_mut()
            .enumerate()
            .map(|(i, t)| f(base + i, t))
            .collect()
    };
    // Split the slice into disjoint mutable chunks matching `ranges`
    // (chunk i starts at ranges[i].start), spawn one worker per chunk
    // after the first, and run the first on the calling thread, which
    // would otherwise only wait. Disjointness is what makes the mutable
    // fan-out safe.
    let (first, mut rest) = items.split_at_mut(ranges[0].len());
    let chunk_results: Vec<Vec<R>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(ranges.len() - 1);
        for r in &ranges[1..] {
            let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(r.len());
            rest = tail;
            let base = r.start;
            handles.push(scope.spawn(move || run(base, chunk)));
        }
        let mut results = Vec::with_capacity(ranges.len());
        results.push(run(0, first));
        results.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("par_map_mut worker panicked")),
        );
        results
    });
    let mut out = Vec::with_capacity(chunk_results.iter().map(Vec::len).sum());
    for chunk in chunk_results {
        out.extend(chunk);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_tile_the_input() {
        for len in [0usize, 1, 2, 7, 16, 100, 101] {
            for threads in [1usize, 2, 3, 8, 200] {
                let ranges = chunk_ranges(len, threads);
                assert!(ranges.len() <= threads.max(1));
                let mut next = 0;
                let (mut min, mut max) = (usize::MAX, 0);
                for r in &ranges {
                    assert_eq!(r.start, next, "len={len} threads={threads}");
                    next = r.end;
                    min = min.min(r.len());
                    max = max.max(r.len());
                }
                assert_eq!(next, len);
                if len >= threads {
                    assert!(max - min <= 1, "unbalanced: len={len} threads={threads}");
                }
            }
        }
    }

    #[test]
    fn par_map_mut_mutates_in_place_and_orders_results() {
        let expect_state: Vec<u64> = (0..100u64).map(|x| x + 1).collect();
        let expect_out: Vec<u64> = (0..100u64).map(|x| x * 2).collect();
        for threads in [1, 2, 3, 8, 64] {
            let mut items: Vec<u64> = (0..100).collect();
            let out = par_map_mut_threads(threads, &mut items, |i, x| {
                assert_eq!(*x, i as u64, "index matches element position");
                let r = *x * 2;
                *x += 1;
                r
            });
            assert_eq!(items, expect_state, "threads={threads}");
            assert_eq!(out, expect_out, "threads={threads}");
        }
    }

    #[test]
    fn par_map_mut_degenerate_inputs() {
        let mut empty: Vec<u32> = vec![];
        assert!(par_map_mut_threads(8, &mut empty, |_, x| *x).is_empty());
        let mut one = [7u32];
        assert_eq!(par_map_mut_threads(8, &mut one, |_, x| *x + 1), vec![8]);
    }

    #[test]
    #[should_panic(expected = "par_map_mut worker panicked")]
    fn worker_panics_propagate() {
        let mut items: Vec<u32> = (0..8).collect();
        let _ = par_map_mut_threads(4, &mut items, |_, x| {
            assert!(*x != 5, "boom");
            *x
        });
    }

    #[test]
    fn max_threads_is_positive() {
        assert!(max_threads() >= 1);
    }
}
