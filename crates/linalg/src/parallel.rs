//! Minimal scoped-thread helpers for data-parallel loops.
//!
//! The workspace deliberately avoids external thread-pool crates; plain
//! `std::thread::scope` over row chunks is enough for the dense kernels and
//! the k-means assignment loops.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Entries at which a one-pass elementwise loop over a buffer splits it
/// across the workers: the Box–Muller transform of
/// [`crate::random::fill_standard_normal`], and the dataset build's
/// mixture and normalization passes. 2²⁰ keeps every JL projection draw
/// of the benchmark workloads (784 × 392 at most) on the calling thread
/// and sends every dataset draw (10000 × 196 at least) to the workers.
pub const PAR_ENTRIES_THRESHOLD: usize = 1 << 20;

/// Process-wide worker-count override (0 = follow the hardware).
static WORKER_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Returns the number of worker threads to use for parallel sections:
/// the override installed by [`set_worker_count`] when present, else the
/// hardware parallelism.
pub fn worker_count() -> usize {
    match WORKER_OVERRIDE.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1),
        n => n,
    }
}

/// Caps every parallel section in the process at `n` worker threads
/// (the CLI's `--threads` knob); `0` restores the hardware default.
/// Results are bit-identical at any setting — only scheduling changes.
pub fn set_worker_count(n: usize) {
    WORKER_OVERRIDE.store(n, Ordering::Relaxed);
}

/// Splits the row-major buffer `data` (rows of width `row_width`) into
/// near-equal chunks of whole rows and runs `f(first_row_index, chunk)` on
/// each, in parallel when `parallel` is true and it is worth it.
///
/// `f` must be safe to run concurrently on disjoint chunks.
///
/// # Panics
///
/// Panics if `row_width == 0` while `data` is non-empty.
pub fn for_each_row_chunk<F>(data: &mut [f64], row_width: usize, parallel: bool, f: F)
where
    F: Fn(usize, &mut [f64]) + Sync,
{
    if data.is_empty() {
        return;
    }
    assert!(row_width > 0, "for_each_row_chunk: zero row width");
    let n_rows = data.len() / row_width;
    let workers = if parallel {
        worker_count().min(n_rows)
    } else {
        1
    };
    if workers <= 1 {
        f(0, data);
        return;
    }
    let rows_per = n_rows.div_ceil(workers);
    std::thread::scope(|scope| {
        let mut rest = data;
        let mut row_start = 0;
        while !rest.is_empty() {
            let take_rows = rows_per.min(rest.len() / row_width);
            let (chunk, tail) = rest.split_at_mut(take_rows * row_width);
            let fref = &f;
            let start = row_start;
            scope.spawn(move || fref(start, chunk));
            row_start += take_rows;
            rest = tail;
        }
    });
}

/// Runs `f` on every job, one scoped thread per job when there are
/// several, and returns the results in job order — the splitter behind
/// the grouped distance pass, whose caller first cuts every group's
/// label and distance vectors at the same row boundaries, so each job
/// owns one run of rows in every group. Per-job work must be
/// independent; then any cut is bit-identical.
pub(crate) fn map_jobs<J, R, F>(jobs: Vec<J>, f: F) -> Vec<R>
where
    J: Send,
    R: Send,
    F: Fn(J) -> R + Sync,
{
    if jobs.len() <= 1 {
        return jobs.into_iter().map(f).collect();
    }
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = jobs
            .into_iter()
            .map(|job| scope.spawn(move || f(job)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
}

/// Maps `f` over `0..n` in parallel, writing results into a `Vec`.
///
/// Used for embarrassingly parallel per-point computations (e.g. assignment
/// distances). Falls back to a sequential loop for small `n`.
pub fn par_map_indices<T, F>(n: usize, min_parallel: usize, f: F) -> Vec<T>
where
    T: Send + Default + Clone,
    F: Fn(usize) -> T + Sync,
{
    let workers = if n >= min_parallel { worker_count() } else { 1 };
    par_map_indices_in(n, workers, f)
}

/// [`par_map_indices`] with an explicit worker count (the chunked
/// `Aᵀ·B`/`gram` sums pass one chosen from their size here). Results
/// are identical at any count — each index's computation is independent
/// and lands in its own slot.
pub fn par_map_indices_in<T, F>(n: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send + Default + Clone,
    F: Fn(usize) -> T + Sync,
{
    let mut out = vec![T::default(); n];
    if n == 0 {
        return out;
    }
    let workers = workers.min(n).max(1);
    if workers <= 1 {
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = f(i);
        }
        return out;
    }
    let per = n.div_ceil(workers);
    std::thread::scope(|scope| {
        let mut rest: &mut [T] = &mut out;
        let mut start = 0;
        while !rest.is_empty() {
            let take = per.min(rest.len());
            let (chunk, tail) = rest.split_at_mut(take);
            let fref = &f;
            scope.spawn(move || {
                for (off, slot) in chunk.iter_mut().enumerate() {
                    *slot = fref(start + off);
                }
            });
            start += take;
            rest = tail;
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_count_at_least_one() {
        assert!(worker_count() >= 1);
    }

    #[test]
    fn for_each_row_chunk_sequential_matches_parallel() {
        let width = 3;
        let rows = 100;
        let mut seq = vec![0.0f64; rows * width];
        let mut par = vec![0.0f64; rows * width];
        let fill = |start: usize, chunk: &mut [f64]| {
            for (local, row) in chunk.chunks_exact_mut(width).enumerate() {
                let i = start + local;
                for (j, v) in row.iter_mut().enumerate() {
                    *v = (i * width + j) as f64;
                }
            }
        };
        for_each_row_chunk(&mut seq, width, false, fill);
        for_each_row_chunk(&mut par, width, true, fill);
        assert_eq!(seq, par);
        assert_eq!(seq[5 * width + 2], (5 * width + 2) as f64);
    }

    #[test]
    fn for_each_row_chunk_empty_ok() {
        let mut empty: Vec<f64> = vec![];
        for_each_row_chunk(&mut empty, 4, true, |_, _| panic!("must not run"));
    }

    #[test]
    fn par_map_indices_matches_sequential() {
        let seq = par_map_indices(1000, usize::MAX, |i| i * i);
        let par = par_map_indices(1000, 1, |i| i * i);
        assert_eq!(seq, par);
        assert_eq!(seq[31], 961);
    }

    #[test]
    fn par_map_indices_in_identical_at_every_worker_count() {
        let reference = par_map_indices_in(257, 1, |i| i * 3 + 1);
        for workers in [2, 4, 8, 300] {
            assert_eq!(par_map_indices_in(257, workers, |i| i * 3 + 1), reference);
        }
    }

    #[test]
    fn map_jobs_keeps_job_order_and_owns_each_job() {
        let mut data = vec![0usize; 61];
        let fill = |(start, chunk): (usize, &mut [usize])| {
            for (off, v) in chunk.iter_mut().enumerate() {
                *v = start + off;
            }
            chunk.len()
        };
        assert_eq!(map_jobs(vec![(0, &mut data[..])], fill), vec![61]);
        let reference = data.clone();
        for per in [1, 7, 30, 61] {
            let mut out = vec![0usize; 61];
            let jobs: Vec<_> = out
                .chunks_mut(per)
                .enumerate()
                .map(|(j, c)| (j * per, c))
                .collect();
            let lens = map_jobs(jobs, fill);
            assert_eq!(lens.iter().sum::<usize>(), 61, "{per} rows per job");
            assert!(lens[..lens.len() - 1].iter().all(|&l| l == per), "{per}");
            assert_eq!(out, reference, "{per} rows per job");
        }
        assert!(map_jobs(Vec::<usize>::new(), |j| j).is_empty());
    }

    #[test]
    fn par_map_indices_empty() {
        let v: Vec<usize> = par_map_indices(0, 1, |i| i);
        assert!(v.is_empty());
    }
}
