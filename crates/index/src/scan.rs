//! Fused panel score + threshold top-k scanning.
//!
//! Every brute-force scan in this crate (flat, delta segment, IVF cell
//! probes, sqflat shortlist) reduces a block of contiguous rows into
//! bounded [`TopK`]s — one per query of the block being answered.
//! [`scan_block`] walks the rows once in [`PANEL`]-row panels and scores
//! every query of the block against a panel while it is cache-hot,
//! queries two at a time ([`kernels::dot2xn`] reuses each row load for
//! both; a trailing single goes through [`kernels::dot1xn`]). A
//! pre-filter against each heap's current threshold skips the heap
//! entirely for rows that cannot qualify — which is almost all of them
//! once the heap warms up.
//!
//! # Exactness
//!
//! The fusion is a pure optimization, bit-identical to pushing every
//! `(id, dot(q, row))` pair in row order, query by query:
//!
//! * per-pair scores come from `dot1xn` / `dot2xn`, which are
//!   bit-identical to [`kernels::dot`] (fixed 8-lane contract), and
//!   each query still meets the rows in row order;
//! * the pre-filter skips a row only when `score < worst.score` with
//!   both sides non-NaN — exactly the rows [`TopK::push`] would discard
//!   (equal scores still go to `push`, whose index tie-break decides;
//!   NaN on either side falls through to `push`'s total order).

use crate::topk::TopK;
use pane_linalg::kernels;

/// Rows scored per panel pass. 64 keeps the score buffers on the stack
/// and the panel of rows within L1/L2 for the dims PANE serves.
pub(crate) const PANEL: usize = 64;

/// Offers one panel's scores to `acc` in row order, under the ids
/// `id_of(row_in_panel)`: the threshold pre-filter, then the exact push.
#[inline]
fn offer(acc: &mut TopK, scores: &[f64], id_of: impl Fn(usize) -> usize) {
    for (r, &s) in scores.iter().enumerate() {
        // Strictly-worse non-NaN scores cannot enter the heap;
        // everything else gets the exact push decision.
        if acc.threshold().is_some_and(|worst| s < worst.score) {
            continue;
        }
        acc.push(id_of(r), s);
    }
}

/// Scans `rows` (row-major, `rows.len() / dim` rows) against a block of
/// prepared queries (row-major, one per accumulator), offering each
/// row's dot score with query `i` to `accs[i]` under the id
/// `id_of(local_row)`. Bit-identical to the unfused per-query, per-row
/// loop — see the module docs.
pub(crate) fn scan_block(
    accs: &mut [TopK],
    queries: &[f64],
    rows: &[f64],
    dim: usize,
    id_of: impl Fn(usize) -> usize,
) {
    assert_eq!(queries.len(), accs.len() * dim, "ragged query block");
    debug_assert_eq!(rows.len() % dim.max(1), 0);
    if dim == 0 {
        return;
    }
    let n = rows.len() / dim;
    let (mut s0, mut s1) = ([0.0f64; PANEL], [0.0f64; PANEL]);
    for start in (0..n).step_by(PANEL) {
        let pr = PANEL.min(n - start);
        let panel = &rows[start * dim..(start + pr) * dim];
        let id = |r| id_of(start + r);
        for (qs, accs) in queries.chunks(2 * dim).zip(accs.chunks_mut(2)) {
            if let [a0, a1] = accs {
                let (q0, q1) = qs.split_at(dim);
                kernels::dot2xn(q0, q1, panel, dim, &mut s0[..pr], &mut s1[..pr]);
                offer(a0, &s0[..pr], id);
                offer(a1, &s1[..pr], id);
            } else {
                kernels::dot1xn(qs, panel, dim, &mut s0[..pr]);
                offer(&mut accs[0], &s0[..pr], id);
            }
        }
    }
}

/// [`scan_block`] for a block of one query.
pub(crate) fn scan_topk(
    acc: &mut TopK,
    q: &[f64],
    rows: &[f64],
    dim: usize,
    id_of: impl Fn(usize) -> usize,
) {
    scan_block(std::slice::from_mut(acc), q, rows, dim, id_of);
}

/// Integer variant for the sqflat code scan: panels of i8×i8 dots via
/// [`kernels::dot1xn_i8`], mapped to the final f64 score by `score_of`
/// (the caller folds in the query/row dequantization scales), then the
/// same threshold-fused push as [`scan_block`].
pub(crate) fn scan_topk_i8(
    acc: &mut TopK,
    qcodes: &[i8],
    codes: &[i8],
    dim: usize,
    score_of: impl Fn(usize, i32) -> f64,
) {
    debug_assert_eq!(qcodes.len(), dim);
    if dim == 0 {
        return;
    }
    let n = codes.len() / dim;
    let (mut raw, mut scores) = ([0i32; PANEL], [0.0f64; PANEL]);
    for start in (0..n).step_by(PANEL) {
        let pr = PANEL.min(n - start);
        let panel = &codes[start * dim..(start + pr) * dim];
        kernels::dot1xn_i8(qcodes, panel, dim, &mut raw[..pr]);
        for (r, (s, &d)) in scores.iter_mut().zip(&raw[..pr]).enumerate() {
            *s = score_of(start + r, d);
        }
        offer(acc, &scores[..pr], |r| start + r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pane_linalg::vecops;

    fn splat(seed: u64, i: usize) -> f64 {
        let mut z = seed
            .wrapping_add(i as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z ^= z >> 31;
        z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        ((z >> 11) as f64) / (1u64 << 52) as f64 - 1.0
    }

    #[test]
    fn fused_scan_matches_unfused_pushes() {
        for (n, dim) in [(0usize, 8usize), (1, 8), (63, 16), (64, 16), (200, 5)] {
            let q: Vec<f64> = (0..dim).map(|i| splat(1, i)).collect();
            let rows: Vec<f64> = (0..n * dim).map(|i| splat(2, i)).collect();
            for k in [1usize, 3, 10] {
                let mut fused = TopK::new(k);
                scan_topk(&mut fused, &q, &rows, dim, |r| r + 7);
                let mut plain = TopK::new(k);
                for r in 0..n {
                    plain.push(r + 7, vecops::dot(&q, &rows[r * dim..(r + 1) * dim]));
                }
                assert_eq!(fused.into_sorted(), plain.into_sorted(), "n {n} k {k}");
            }
        }
    }

    /// NaN != NaN under `PartialEq`; compare bit patterns instead.
    fn key(v: Vec<crate::Neighbor>) -> Vec<(usize, u64)> {
        v.into_iter()
            .map(|h| (h.index, h.score.to_bits()))
            .collect()
    }

    #[test]
    fn fused_scan_handles_nan_rows_like_push() {
        let dim = 4;
        let mut rows: Vec<f64> = (0..40 * dim).map(|i| splat(3, i)).collect();
        rows[5 * dim] = f64::NAN; // poison row 5
        let q: Vec<f64> = (0..dim).map(|i| splat(4, i)).collect();
        let mut fused = TopK::new(50); // k > n: NaN rows must be kept too
        scan_topk(&mut fused, &q, &rows, dim, |r| r);
        let mut plain = TopK::new(50);
        for r in 0..40 {
            plain.push(r, vecops::dot(&q, &rows[r * dim..(r + 1) * dim]));
        }
        assert_eq!(key(fused.into_sorted()), key(plain.into_sorted()));
    }

    /// A block of queries (paired, with and without a trailing single,
    /// on the compile-time-dim and the general kernel path) gives every
    /// query the bits of its own `scan_topk` — a NaN row included.
    #[test]
    fn block_scan_matches_per_query_scans_bitwise() {
        for dim in [5usize, 32, 64] {
            let n = 150; // two full panels and a ragged third
            let mut rows: Vec<f64> = (0..n * dim).map(|i| splat(5, i)).collect();
            rows[70 * dim + 1] = f64::NAN;
            for block in 1..=5usize {
                let queries: Vec<f64> = (0..block * dim).map(|i| splat(6, i)).collect();
                for k in [3usize, 200] {
                    let mut accs: Vec<TopK> = (0..block).map(|_| TopK::new(k)).collect();
                    scan_block(&mut accs, &queries, &rows, dim, |r| r + 9);
                    for (i, acc) in accs.into_iter().enumerate() {
                        let mut single = TopK::new(k);
                        let q = &queries[i * dim..(i + 1) * dim];
                        scan_topk(&mut single, q, &rows, dim, |r| r + 9);
                        assert_eq!(
                            key(acc.into_sorted()),
                            key(single.into_sorted()),
                            "dim {dim} block {block} k {k} query {i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fused_i8_scan_matches_unfused() {
        let dim = 24;
        let n = 150;
        let qc: Vec<i8> = (0..dim).map(|i| ((i * 37) % 255) as i8).collect();
        let codes: Vec<i8> = (0..n * dim).map(|i| ((i * 13 + 5) % 255) as i8).collect();
        let scale = |r: usize| 0.001 * (r % 17 + 1) as f64;
        let mut fused = TopK::new(9);
        scan_topk_i8(&mut fused, &qc, &codes, dim, |r, d| scale(r) * d as f64);
        let mut plain = TopK::new(9);
        for r in 0..n {
            let mut d = 0i32;
            for j in 0..dim {
                d += qc[j] as i32 * codes[r * dim + j] as i32;
            }
            plain.push(r, scale(r) * d as f64);
        }
        assert_eq!(fused.into_sorted(), plain.into_sorted());
    }
}
