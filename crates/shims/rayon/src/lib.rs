//! Self-contained stand-in for the subset of the [`rayon`] crate API used by
//! this workspace.
//!
//! The build environment has no access to crates.io, so the workspace vendors
//! a minimal data-parallelism layer:
//!
//! * [`iter::ParallelIterator`] with `map` / `collect` / `for_each` /
//!   `min_by`, available on slices ([`iter::IntoParallelRefIterator`]),
//!   `Vec`s and `usize` ranges ([`iter::IntoParallelIterator`]);
//! * [`parallel_map_indexed`], the lower-level primitive every combinator
//!   compiles down to, with an explicit thread cap for callers that manage
//!   their own parallelism budget (the batch solver), and
//!   [`parallel_map_chunks_mut`], its statically partitioned sibling that
//!   hands each participant one contiguous range of a mutable slice and
//!   writes the range's results in place;
//! * [`join`] and [`current_num_threads`].
//!
//! Work is distributed dynamically: threads pull indices from a shared atomic
//! counter, so heterogeneous item costs (an ILP solve next to an H1 solve)
//! balance automatically. Results are returned **in index order**, so
//! parallel execution is observationally identical to the sequential loop —
//! a property the experiment-reproducibility tests rely on.
//!
//! All fan-outs run on **one shared worker pool** (the private `pool` module): the calling
//! thread always participates in its own job, and idle pool workers join in.
//! Nested fan-outs — the batch engine solving many instances while each
//! solve's candidate scan fans out rows — therefore *share* the machine's
//! cores instead of multiplying `thread::scope` spawns, and a nested call
//! can never deadlock: even with every worker busy, the caller alone drains
//! its own job.
//!
//! [`rayon`]: https://crates.io/crates/rayon

use std::sync::Mutex;

pub mod iter;
mod pool;

/// The glob-import surface matching `rayon::prelude::*`.
pub mod prelude {
    pub use crate::iter::{IntoParallelIterator, IntoParallelRefIterator, ParallelIterator};
}

/// Number of worker threads a parallel call will use by default.
pub fn current_num_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs both closures, potentially in parallel, and returns both results.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if current_num_threads() <= 1 {
        return (a(), b());
    }
    std::thread::scope(|scope| {
        let handle = scope.spawn(b);
        let ra = a();
        let rb = handle.join().expect("joined closure panicked");
        (ra, rb)
    })
}

/// Evaluates `f(0), f(1), …, f(len - 1)` — the caller plus up to
/// `max_threads - 1` shared pool workers (default cap:
/// [`current_num_threads`]) — and returns the results in index order.
///
/// Indices are handed out through a shared atomic counter, so expensive items
/// do not serialise behind a static partition. Panics in `f` propagate to the
/// caller once every participant has stopped.
pub fn parallel_map_indexed<T, F>(len: usize, max_threads: Option<usize>, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = max_threads
        .unwrap_or_else(current_num_threads)
        .clamp(1, len.max(1));
    if threads <= 1 || len <= 1 {
        return (0..len).map(f).collect();
    }

    let slots: Vec<Mutex<Option<T>>> = (0..len).map(|_| Mutex::new(None)).collect();
    let run_item = |index: usize| {
        let value = f(index);
        *slots[index].lock().expect("result slot poisoned") = Some(value);
    };
    pool::run_job(len, threads - 1, &run_item);
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every index was assigned to exactly one participant")
        })
        .collect()
}

/// Evaluates `f(i, &mut items[i])` for every index over `chunks` contiguous
/// index ranges — the caller plus up to `chunks - 1` shared pool workers, one
/// participant per range, each with exclusive access to its range of
/// `items` — and returns the results in index order. Each participant writes
/// its range's results straight into the returned vector, so no per-range
/// vectors are built or concatenated. Panics in `f` propagate to the caller
/// once every participant has stopped (the results already written are
/// leaked, never dropped twice).
pub fn parallel_map_chunks_mut<S, T, F>(items: &mut [S], chunks: usize, f: F) -> Vec<T>
where
    S: Send,
    T: Send,
    F: Fn(usize, &mut S) -> T + Sync,
{
    let len = items.len();
    let chunks = chunks.clamp(1, len.max(1));
    if chunks <= 1 {
        return (items.iter_mut().enumerate())
            .map(|(i, item)| f(i, item))
            .collect();
    }
    let size = len.div_ceil(chunks);
    let mut out: Vec<T> = Vec::with_capacity(len);
    let ranges: Vec<_> = (items.chunks_mut(size))
        .zip(out.spare_capacity_mut()[..len].chunks_mut(size))
        .map(Mutex::new)
        .collect();
    let run_range = |c: usize| {
        let mut range = ranges[c].lock().expect("result range poisoned");
        let (items, slots) = &mut *range;
        for (k, (item, slot)) in items.iter_mut().zip(slots.iter_mut()).enumerate() {
            slot.write(f(c * size + k, item));
        }
    };
    pool::run_job(ranges.len(), ranges.len() - 1, &run_range);
    drop(ranges);
    // SAFETY: `run_job` returned, so no participant panicked and every
    // range ran to its end: each of the first `len` slots was written once.
    unsafe { out.set_len(len) };
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_index_order() {
        let out = parallel_map_indexed(1_000, None, |i| i * 2);
        assert_eq!(out, (0..1_000).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn thread_cap_is_honoured_and_results_match_sequential() {
        let capped = parallel_map_indexed(100, Some(2), |i| i + 1);
        let sequential = parallel_map_indexed(100, Some(1), |i| i + 1);
        assert_eq!(capped, sequential);
    }

    #[test]
    fn chunked_map_matches_the_sequential_map() {
        let mut items: Vec<usize> = (0..1_001).collect();
        let sequential: Vec<String> = (0..1_001).map(|i| (2 * i).to_string()).collect();
        for chunks in [1, 2, 3, 7, 1_001, 5_000] {
            let chunked = parallel_map_chunks_mut(&mut items, chunks, |i, item| {
                assert_eq!(*item, i);
                (2 * i).to_string()
            });
            assert_eq!(chunked, sequential, "{chunks} chunks");
        }
        let mut doubled = items.clone();
        parallel_map_chunks_mut(&mut doubled, 3, |_, item| *item *= 2);
        assert!(doubled.iter().zip(&items).all(|(d, i)| *d == 2 * i));
        assert!(parallel_map_chunks_mut(&mut [0u8; 0], 4, |i, _| i).is_empty());
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn chunked_map_panics_propagate() {
        parallel_map_chunks_mut(&mut [(); 64], 4, |i, _| {
            if i == 40 {
                panic!("boom");
            }
            vec![i]
        });
    }

    #[test]
    fn join_returns_both_results() {
        let (a, b) = join(|| 6 * 7, || "ok");
        assert_eq!(a, 42);
        assert_eq!(b, "ok");
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        parallel_map_indexed(8, Some(4), |i| {
            if i == 5 {
                panic!("boom");
            }
            i
        });
    }
}
