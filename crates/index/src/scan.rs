//! The exact scans. Every brute-force scan in this crate (flat, delta
//! segment, IVF cell probes, sqflat shortlist) reduces contiguous rows
//! into bounded [`TopK`]s, one per query of a block, walking the rows
//! once per block in [`PANEL`]-row panels, queries two at a time.
//!
//! The f64 scans read a [`ScanRows`] and score each panel in f32 first
//! ([`kernels::dot2xn_f32`]); a row goes on to [`TopK::push`] with its
//! exact score, [`kernels::dot`] in f64, only if its f32 score plus
//! [`kernels::screen_slack`] is not below the heap's worst — a few rows
//! per panel once a heap is warm. The sqflat code scan
//! ([`scan_block_i8`]) scores in exact integers and needs no screen.
//!
//! # Exactness
//!
//! Both scans are bit-identical to pushing every `(id, score)` pair in
//! row order, query by query:
//!
//! * every pushed f64 score is [`kernels::dot`] of query and row, met in
//!   row order; no f32 number reaches a heap;
//! * a row is skipped only when its exact score is strictly below a
//!   non-NaN heap worst — a row [`TopK::push`] would discard (equal
//!   scores still go to `push`, whose index tie-break decides; NaN on
//!   either side falls through to `push`'s total order). The slack
//!   bounds the f32 error (derived in its doc), and is infinite where no
//!   bound is proved;
//! * the worst is read once per panel: it only rises, so a stale one
//!   lets more rows through, never fewer.

use crate::topk::TopK;
use pane_linalg::{kernels, vecops, DenseMatrix};
use std::ops::Range;

/// Rows scored per panel pass. 64 keeps the score buffers on the stack
/// and the panel of rows within L1/L2 for the dims PANE serves.
pub(crate) const PANEL: usize = 64;

/// The rows of every f64 scan (flat, delta segment, IVF cells): the
/// rows as given, their f32 copy for the screen (made on build,
/// load and insert; never persisted) and the largest row norm.
#[derive(Debug, Clone)]
pub(crate) struct ScanRows {
    rows: DenseMatrix,
    screen: Vec<f32>,
    max_norm: f64,
}

/// A row's norm for the slack; `min` maps NaN to `+∞`, so a NaN row
/// disables the screen instead of vanishing in a `max`.
fn screen_norm(row: &[f64]) -> f64 {
    vecops::norm2(row).min(f64::INFINITY)
}

impl ScanRows {
    /// Takes the rows and derives the screen's fields.
    pub(crate) fn new(rows: DenseMatrix) -> Self {
        let max_norm = (0..rows.rows())
            .map(|i| screen_norm(rows.row(i)))
            .fold(0.0, f64::max);
        let screen = rows.data().iter().map(|&v| v as f32).collect();
        Self {
            rows,
            screen,
            max_norm,
        }
    }

    /// The stored rows.
    pub(crate) fn matrix(&self) -> &DenseMatrix {
        &self.rows
    }

    /// Appends one row.
    pub(crate) fn push_row(&mut self, row: &[f64]) {
        self.rows.push_row(row);
        self.screen.extend(row.iter().map(|&v| v as f32));
        self.max_norm = self.max_norm.max(screen_norm(row));
    }

    /// Offers every row of every range, in order, to each query of a
    /// row-major block: `kernels::dot(query_i, row_r)` to
    /// `accs[i]` under the id `id_of(r)`, screened (see the module docs).
    pub(crate) fn scan_block(
        &self,
        accs: &mut [TopK],
        queries: &[f64],
        ranges: impl IntoIterator<Item = Range<usize>>,
        id_of: impl Fn(usize) -> usize,
    ) {
        let dim = self.rows.cols();
        assert_eq!(queries.len(), accs.len() * dim, "ragged query block");
        let q32: Vec<f32> = queries.iter().map(|&v| v as f32).collect();
        let slack: Vec<f64> = queries
            .chunks_exact(dim)
            .map(|q| kernels::screen_slack(dim, vecops::norm2(q), self.max_norm))
            .collect();
        let (mut scores, mut bounds) = ([[0.0f32; 2]; PANEL], [0.0f64; PANEL]);
        for range in ranges {
            for start in range.clone().step_by(PANEL) {
                let panel = start..range.end.min(start + PANEL);
                let rows32 = &self.screen[panel.start * dim..panel.end * dim];
                let scores = &mut scores[..panel.len()];
                let bounds = &mut bounds[..panel.len()];
                for (i, accs) in accs.chunks_mut(2).enumerate() {
                    let qs = 2 * i * dim..(2 * i + accs.len()) * dim;
                    kernels::dot2xn_f32(&q32[qs], rows32, dim, scores);
                    for (j, acc) in accs.iter_mut().enumerate() {
                        let q = &queries[(2 * i + j) * dim..][..dim];
                        let slack = slack[2 * i + j];
                        for (b, s) in bounds.iter_mut().zip(&*scores) {
                            *b = f64::from(s[j]) + slack;
                        }
                        let exact = |r: usize| kernels::dot(q, self.rows.row(r));
                        offer(worst(acc), start, bounds, exact, |r, s| {
                            acc.push(id_of(r), s)
                        });
                    }
                }
            }
        }
    }
}

/// The sqflat code scan: offers `score_of(i, r, d)` to `accs[i]` under
/// the id `r`, every row in order, where `d` is the exact dot of query
/// `i`'s codes (i16-widened, row-major) with code row `r`, two queries
/// per pass over each panel ([`kernels::dot2xn_i8`]).
pub(crate) fn scan_block_i8(
    accs: &mut [TopK],
    qcodes: &[i16],
    codes: &[i8],
    dim: usize,
    score_of: impl Fn(usize, usize, i32) -> f64,
) {
    assert_eq!(qcodes.len(), accs.len() * dim, "ragged query block");
    let n = codes.len() / dim;
    let (mut raw, mut scores) = ([[0i32; 2]; PANEL], [0.0f64; PANEL]);
    for start in (0..n).step_by(PANEL) {
        let panel = start..n.min(start + PANEL);
        let rows = &codes[panel.start * dim..panel.end * dim];
        let raw = &mut raw[..panel.len()];
        let scores = &mut scores[..panel.len()];
        for (i, accs) in accs.chunks_mut(2).enumerate() {
            let qs = 2 * i * dim..(2 * i + accs.len()) * dim;
            kernels::dot2xn_i8(&qcodes[qs], rows, dim, raw);
            for (j, acc) in accs.iter_mut().enumerate() {
                for ((s, d), r) in scores.iter_mut().zip(&*raw).zip(panel.clone()) {
                    *s = score_of(2 * i + j, r, d[j]);
                }
                let exact = |r: usize| scores[r - start];
                offer(worst(acc), start, scores, exact, |r, s| acc.push(r, s));
            }
        }
    }
}

/// A heap's worst score, the bar a row must reach to be kept, once it
/// is full.
fn worst(acc: &TopK) -> Option<f64> {
    acc.threshold().map(|w| w.score)
}

/// The one filter in front of a heap: of the panel of rows `start..`
/// with `bounds` — each row's exact score or a proved upper bound on it
/// — every row goes to `push` as `(r, exact(r))`, in row order, unless
/// its bound is strictly below `worst`, the non-NaN heap worst read at
/// the start of the panel (a stale worst only lets more rows through).
/// With no worst yet every row goes. The test is one `u64` mask over the
/// panel; only the rows it keeps pay for `exact`.
#[inline]
fn offer(
    worst: Option<f64>,
    start: usize,
    bounds: &[f64],
    exact: impl Fn(usize) -> f64,
    mut push: impl FnMut(usize, f64),
) {
    const _: () = assert!(PANEL <= u64::BITS as usize);
    assert!(bounds.len() <= PANEL, "a panel is at most PANEL rows");
    // `b < NaN` is false for every `b`: no worst keeps every row.
    let worst = worst.unwrap_or(f64::NAN);
    let mut keep = 0u64;
    for (r, &b) in bounds.iter().enumerate() {
        keep |= (u64::from(b < worst) ^ 1) << r;
    }
    while keep != 0 {
        let r = start + keep.trailing_zeros() as usize;
        push(r, exact(r));
        keep &= keep - 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn splat(seed: u64, i: usize) -> f64 {
        let mut z = seed
            .wrapping_add(i as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z ^= z >> 31;
        z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        ((z >> 11) as f64) / (1u64 << 52) as f64 - 1.0
    }

    fn store(n: usize, dim: usize, seed: u64) -> ScanRows {
        let data = (0..n * dim).map(|i| splat(seed, i)).collect();
        ScanRows::new(DenseMatrix::from_vec(n, dim, data))
    }

    /// The reference: every `(id, dot)` pushed in row order.
    fn plain(rows: &ScanRows, q: &[f64], k: usize, id_of: impl Fn(usize) -> usize) -> TopK {
        let mut acc = TopK::new(k);
        for r in 0..rows.matrix().rows() {
            acc.push(id_of(r), kernels::dot(q, rows.matrix().row(r)));
        }
        acc
    }

    /// NaN != NaN under `PartialEq`; compare bit patterns instead.
    fn key(v: Vec<crate::Neighbor>) -> Vec<(usize, u64)> {
        v.into_iter()
            .map(|h| (h.index, h.score.to_bits()))
            .collect()
    }

    #[test]
    fn fused_scan_matches_unfused_pushes() {
        for (n, dim) in [
            (0usize, 8usize),
            (1, 8),
            (63, 16),
            (64, 16),
            (200, 5),
            (300, 64),
        ] {
            let rows = store(n, dim, 2);
            let q: Vec<f64> = (0..dim).map(|i| splat(1, i)).collect();
            for k in [1usize, 3, 10] {
                let mut fused = [TopK::new(k)];
                rows.scan_block(&mut fused, &q, std::iter::once(0..n), |r| r + 7);
                let [fused] = fused;
                let want = plain(&rows, &q, k, |r| r + 7);
                assert_eq!(
                    key(fused.into_sorted()),
                    key(want.into_sorted()),
                    "n {n} k {k}"
                );
            }
        }
    }

    #[test]
    fn fused_scan_handles_nan_rows_like_push() {
        let dim = 4;
        let mut data = store(40, dim, 3).matrix().clone();
        data.row_mut(5)[0] = f64::NAN; // poison row 5
        let rows = ScanRows::new(data);
        let q: Vec<f64> = (0..dim).map(|i| splat(4, i)).collect();
        for k in [3, 50] {
            // k > n: NaN rows must be kept too
            let mut fused = [TopK::new(k)];
            rows.scan_block(&mut fused, &q, std::iter::once(0..40), |r| r);
            let [fused] = fused;
            let want = plain(&rows, &q, k, |r| r);
            assert_eq!(key(fused.into_sorted()), key(want.into_sorted()));
        }
    }

    /// A block of queries (paired, with and without a trailing single,
    /// on the compile-time-dim and the general kernel path, the rows
    /// split into ranges) gives every query the bits of its own
    /// unscreened push loop — a NaN row included.
    #[test]
    fn block_scan_matches_per_query_scans_bitwise() {
        for dim in [5usize, 32, 64] {
            let n = 150; // two full panels and a ragged third
            let mut data = store(n, dim, 5).matrix().clone();
            data.row_mut(70)[1] = f64::NAN;
            let rows = ScanRows::new(data);
            for block in 1..=5usize {
                let queries: Vec<f64> = (0..block * dim).map(|i| splat(6, i)).collect();
                for k in [3usize, 200] {
                    let mut accs: Vec<TopK> = (0..block).map(|_| TopK::new(k)).collect();
                    rows.scan_block(&mut accs, &queries, [0..37, 37..n], |r| r + 9);
                    for (i, acc) in accs.into_iter().enumerate() {
                        let q = &queries[i * dim..(i + 1) * dim];
                        let want = plain(&rows, q, k, |r| r + 9);
                        assert_eq!(
                            key(acc.into_sorted()),
                            key(want.into_sorted()),
                            "dim {dim} block {block} k {k} query {i}"
                        );
                    }
                }
            }
        }
    }

    /// The filter before the mask, the referee of [`offer`]: a closure
    /// per row for the bound and one for the exact score.
    fn offer_per_row(
        worst: Option<f64>,
        panel: Range<usize>,
        bound: impl Fn(usize) -> f64,
        exact: impl Fn(usize) -> f64,
        mut push: impl FnMut(usize, f64),
    ) {
        for r in panel {
            if worst.is_some_and(|w| bound(r) < w) {
                continue;
            }
            push(r, exact(r));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// The mask filter pushes the per-row filter's `(row, score)`
        /// sequence on panels of 1–64 rows: with no worst yet, with
        /// bounds equal to the worst (scores from a small grid), NaN
        /// and ±∞ on either side, and a slack of 0 (the code scan),
        /// finite or `+∞`.
        #[test]
        fn mask_filter_pushes_what_the_per_row_filter_pushes(
            picks in proptest::collection::vec(0usize..10, 1..65),
            pick_worst in 0usize..11,
            pick_slack in 0usize..3,
            start in 0usize..1000,
        ) {
            let grid = [-1.0, -0.0, 0.0, 0.5, 1.0, 1.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e-310];
            let exact: Vec<f64> = picks.iter().map(|&p| grid[p]).collect();
            let slack = [0.0, 0.5, f64::INFINITY][pick_slack];
            let bounds: Vec<f64> = exact.iter().map(|e| e + slack).collect();
            let worst = grid.get(pick_worst).copied();
            let (mut got, mut want) = (Vec::new(), Vec::new());
            offer(worst, start, &bounds, |r| exact[r - start], |r, s| {
                got.push((r, s.to_bits()))
            });
            offer_per_row(
                worst,
                start..start + bounds.len(),
                |r| bounds[r - start],
                |r| exact[r - start],
                |r, s| want.push((r, s.to_bits())),
            );
            prop_assert_eq!(got, want, "worst {:?} bounds {:?}", worst, bounds);
        }
    }

    #[test]
    fn fused_i8_scan_matches_unfused() {
        let dim = 24;
        let n = 150;
        let block = 3;
        let qc: Vec<i16> = (0..block * dim)
            .map(|i| ((i * 37) % 255) as i8 as i16)
            .collect();
        let codes: Vec<i8> = (0..n * dim).map(|i| ((i * 13 + 5) % 255) as i8).collect();
        let score = |i: usize, r: usize, d: i32| 0.001 * ((r + i) % 17 + 1) as f64 * d as f64;
        let mut fused: Vec<TopK> = (0..block).map(|_| TopK::new(9)).collect();
        scan_block_i8(&mut fused, &qc, &codes, dim, score);
        for (i, fused) in fused.into_iter().enumerate() {
            let mut plain = TopK::new(9);
            for r in 0..n {
                let mut d = 0i32;
                for j in 0..dim {
                    d += qc[i * dim + j] as i32 * codes[r * dim + j] as i32;
                }
                plain.push(r, score(i, r, d));
            }
            assert_eq!(fused.into_sorted(), plain.into_sorted(), "query {i}");
        }
    }
}
