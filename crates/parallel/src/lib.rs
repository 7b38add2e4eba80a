#![warn(missing_docs)]
//! Block-parallel execution substrate for the PANE reproduction.
//!
//! The parallel algorithms of the paper (PAPMI, SMGreedyInit, PSVDCCD;
//! Algorithms 5–8) all follow the same pattern: partition the node set `V`
//! and the attribute set `R` into `nb` equally sized blocks, then have `nb`
//! threads process one block each, occasionally synchronizing at a barrier
//! where a main thread concatenates per-block results.
//!
//! This crate provides exactly those primitives, built on
//! [`std::thread::scope`] so that borrowed data can be shared with the
//! workers without `'static` bounds:
//!
//! * [`partition::even_ranges`] — the paper's "partition V into nb subsets
//!   of equal size" (Algorithm 5, lines 1–2);
//! * [`run_on_blocks`] / [`map_blocks`] — fan a closure out over the blocks;
//! * [`for_each_row_block`] — mutate disjoint *row* blocks of a row-major
//!   matrix in parallel (the dense products, every PAPMI step and both
//!   phases of PSVDCCD).

pub mod partition;

pub use partition::{block_of, even_ranges, even_ranges_nonempty};

use std::ops::Range;

/// Runs `f(block_index, range)` for every partition block, using one scoped
/// thread per block when `ranges.len() > 1`.
///
/// The closure only borrows its environment immutably, making this suitable
/// for read-only fan-out such as computing per-block statistics. When a
/// single block is passed the call is executed inline (no thread spawn), so
/// `nb = 1` reproduces the single-threaded algorithms exactly — this is the
/// property behind Lemma 4.1's "same output" guarantee.
pub fn run_on_blocks<F>(ranges: &[Range<usize>], f: F)
where
    F: Fn(usize, Range<usize>) + Sync,
{
    if ranges.is_empty() {
        return;
    }
    if ranges.len() == 1 {
        f(0, ranges[0].clone());
        return;
    }
    std::thread::scope(|s| {
        for (i, r) in ranges.iter().enumerate() {
            let f = &f;
            let r = r.clone();
            s.spawn(move || f(i, r));
        }
    });
}

/// Runs `f(block_index, range)` on every block and collects the results in
/// block order.
///
/// This is the "map" side of the paper's split–merge pattern: e.g.
/// SMGreedyInit (Algorithm 7) computes one `RandSVD` per row block in
/// parallel and then concatenates the factor matrices on the main thread.
pub fn map_blocks<T, F>(ranges: &[Range<usize>], f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, Range<usize>) -> T + Sync,
{
    if ranges.is_empty() {
        return Vec::new();
    }
    if ranges.len() == 1 {
        return vec![f(0, ranges[0].clone())];
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = ranges
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let f = &f;
                let r = r.clone();
                s.spawn(move || f(i, r))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("pane-parallel: worker panicked"))
            .collect()
    })
}

/// Splits the row-major matrix `data` (`rows` × `cols`) into the given row
/// ranges and runs `f(block_index, range, block_rows)` on each block in
/// parallel, where `block_rows` is the mutable sub-slice holding exactly the
/// rows of `range`.
///
/// # Panics
///
/// Panics if the ranges are not sorted, contiguous from 0 and covering
/// `rows` exactly, or if `data.len() != rows * cols`.
pub fn for_each_row_block<F>(
    data: &mut [f64],
    rows: usize,
    cols: usize,
    ranges: &[Range<usize>],
    f: F,
) where
    F: Fn(usize, Range<usize>, &mut [f64]) + Sync,
{
    assert_eq!(data.len(), rows * cols, "matrix buffer size mismatch");
    partition::assert_partition(ranges, rows);
    if ranges.len() == 1 {
        f(0, ranges[0].clone(), data);
        return;
    }
    std::thread::scope(|s| {
        let mut rest = data;
        for (i, r) in ranges.iter().enumerate() {
            let take = (r.end - r.start) * cols;
            let (head, tail) = rest.split_at_mut(take);
            rest = tail;
            let f = &f;
            let r = r.clone();
            s.spawn(move || f(i, r, head));
        }
    });
}

/// Number of blocks to actually use for `n` items and a requested thread
/// count `nb`: at most one block per item, at least one block.
pub fn effective_blocks(n: usize, nb: usize) -> usize {
    nb.max(1).min(n.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn run_on_blocks_visits_all() {
        let ranges = even_ranges(10, 3);
        let count = AtomicUsize::new(0);
        run_on_blocks(&ranges, |_, r| {
            count.fetch_add(r.end - r.start, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn map_blocks_preserves_order() {
        let ranges = even_ranges(9, 4);
        let got = map_blocks(&ranges, |i, r| (i, r.start, r.end));
        for (i, (bi, s, e)) in got.iter().enumerate() {
            assert_eq!(i, *bi);
            assert_eq!(ranges[i], *s..*e);
        }
    }

    #[test]
    fn row_blocks_mutate_disjointly() {
        let rows = 7;
        let cols = 3;
        let mut data = vec![0.0; rows * cols];
        let ranges = even_ranges(rows, 3);
        for_each_row_block(&mut data, rows, cols, &ranges, |bi, r, block| {
            assert_eq!(block.len(), (r.end - r.start) * cols);
            for v in block.iter_mut() {
                *v = bi as f64 + 1.0;
            }
        });
        for (row, chunk) in data.chunks(cols).enumerate() {
            let bi = block_of(&ranges, row).unwrap();
            for v in chunk {
                assert_eq!(*v, bi as f64 + 1.0);
            }
        }
    }

    #[test]
    fn single_block_runs_inline() {
        let ranges = even_ranges(5, 1);
        run_on_blocks(&ranges, |_, _| {});
        let got = map_blocks(&ranges, |_, r| r.len());
        assert_eq!(got, vec![5]);
    }

    #[test]
    fn effective_blocks_clamps() {
        assert_eq!(effective_blocks(3, 8), 3);
        assert_eq!(effective_blocks(100, 8), 8);
        assert_eq!(effective_blocks(0, 8), 1);
        assert_eq!(effective_blocks(10, 0), 1);
    }
}
