//! SIMD-blocked distance kernels — the innermost loops of every hot scan
//! path in the serving tier.
//!
//! A plain `acc += x[i] * y[i]` dot product is a *serial* dependency
//! chain: strict IEEE-754 semantics forbid the compiler from reordering
//! the additions, so the loop runs at FP-add latency (4–5 cycles per
//! element) no matter how wide the vector units are. The kernels here
//! break that chain explicitly with a **fixed number of accumulator
//! lanes** ([`LANES`] = 8): element `i` always accumulates into lane
//! `i % 8`, and the lanes reduce in a fixed pairwise tree. LLVM maps the
//! 8 independent chains onto vector registers (2×AVX2 / 4×NEON f64
//! vectors), turning a latency-bound loop into a throughput-bound one.
//!
//! # Determinism contract
//!
//! The lane count is a *semantic constant*, not a tuning knob: results
//! are a pure function of the input slices — independent of thread
//! count, platform, target CPU, or whether the single-row ([`dot`]),
//! panel ([`dot1xn`]) or two-query panel ([`dot2xn`]) entry point
//! computed them. Concretely:
//!
//! * [`dot`] ≡ the reference in this module's tests: lane `j` sums the
//!   products at positions `≡ j (mod 8)` in index order, then the lanes
//!   reduce as `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`;
//! * [`dot1xn`] and [`dot2xn`] produce, for every (query, row) pair,
//!   *bit-identical* output to [`dot`] on that pair — how rows or
//!   queries are blocked never changes a score;
//! * the integer kernels ([`dot_i8`], [`dot1xn_i8`]) are exact: integer
//!   addition is associative, so any unroll factor — and the SSE2
//!   `pmaddwd` body x86-64 builds use — yields the same sum.
//!
//! Changing [`LANES`] is a format-level break (every stored score
//! golden would shift) and must be treated like a file-format bump.
//!
//! The scan sites in `pane-index` (flat/delta full scans, IVF cluster
//! scans, the sqflat integer scan, HNSW neighbor expansion) and the
//! exact scans in `pane-core`'s query layer all route through these
//! kernels via [`vecops::dot`](crate::vecops::dot), which keeps every
//! exact-vs-indexed bit-identity contract in the test suite intact by
//! construction.

/// Number of independent accumulator lanes in the floating-point
/// reduction kernels. Fixed at 8 on every platform — see the module
/// docs for why this is a semantic constant and not a tuning knob.
pub const LANES: usize = 8;

/// Fixed pairwise reduction of the 8 accumulator lanes.
#[inline(always)]
fn reduce8(acc: [f64; LANES]) -> f64 {
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
}

/// Multi-accumulator dot product `x · y` (8 lanes, fixed reduction
/// order — see the module docs for the exact summation semantics).
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "kernels::dot: length mismatch");
    let split = x.len() - x.len() % LANES;
    let (xb, xt) = x.split_at(split);
    let (yb, yt) = y.split_at(split);
    let mut acc = [0.0f64; LANES];
    for (cx, cy) in xb.chunks_exact(LANES).zip(yb.chunks_exact(LANES)) {
        for j in 0..LANES {
            acc[j] += cx[j] * cy[j];
        }
    }
    for (j, (&a, &b)) in xt.iter().zip(yt.iter()).enumerate() {
        acc[j] += a * b;
    }
    reduce8(acc)
}

/// Panel kernel: dot of one query against `out.len()` contiguous
/// row-major rows ("dot1xN"). Row `r` occupies
/// `rows[r*dim .. (r+1)*dim]`; `out[r]` receives a score bit-identical
/// to `dot(q, row_r)`.
///
/// A per-row [`dot`] loop: the query is L1-resident at serving dims, so
/// sharing its loads across several rows buys nothing, and interleaving
/// rows' accumulators spills the vector registers. What *does* pay is
/// sharing each row's loads across two queries — [`dot2xn`].
///
/// # Panics
/// Panics if `q.len() != dim` or `rows.len() != out.len() * dim`.
#[inline]
pub fn dot1xn(q: &[f64], rows: &[f64], dim: usize, out: &mut [f64]) {
    assert_eq!(q.len(), dim, "kernels::dot1xn: query length != dim");
    assert_eq!(
        rows.len(),
        out.len() * dim,
        "kernels::dot1xn: rows buffer is not out.len() × dim"
    );
    for (r, o) in out.iter_mut().enumerate() {
        *o = dot(q, &rows[r * dim..(r + 1) * dim]);
    }
}

/// Two-query panel kernel: `out0[r] = dot(q0, row_r)` and
/// `out1[r] = dot(q1, row_r)`, bit for bit, from **one** pass over the
/// rows. The flat scan is load-bound (two 16-byte loads per mul+add
/// pair on baseline x86-64); a second query reuses each row chunk from
/// a register. Each (query, row) pair keeps its own 8-lane accumulator
/// and the fixed pairwise reduction — all the lane contract asks for.
///
/// The shared-load body exists only for the dims instantiated below
/// (`k/2` and `k` of the `k` ∈ {64, 128, 256} PANE serves): measured, it
/// pays only with the dim a compile-time constant, so any other dim is
/// two [`dot1xn`] passes. Two queries is the limit — a third
/// accumulator set spills the 16 baseline xmm registers.
///
/// # Panics
/// Panics if a query's length is not `dim`, or `rows` / `out1` disagree
/// with `out0.len()` rows.
pub fn dot2xn(
    q0: &[f64],
    q1: &[f64],
    rows: &[f64],
    dim: usize,
    out0: &mut [f64],
    out1: &mut [f64],
) {
    assert_eq!(q1.len(), dim, "kernels::dot2xn: query length != dim");
    assert_eq!(out1.len(), out0.len(), "kernels::dot2xn: output lengths");
    match dim {
        32 => dot2xn_fixed::<32>(q0, q1, rows, out0, out1),
        64 => dot2xn_fixed::<64>(q0, q1, rows, out0, out1),
        128 => dot2xn_fixed::<128>(q0, q1, rows, out0, out1),
        256 => dot2xn_fixed::<256>(q0, q1, rows, out0, out1),
        _ => {
            dot1xn(q0, rows, dim, out0);
            dot1xn(q1, rows, dim, out1);
        }
    }
}

/// [`dot2xn`] at a compile-time dim `D` (a multiple of [`LANES`]). Out
/// of line: inlined into the scan it is re-vectorized with the caller's
/// loop and measures ~10 % slower.
#[inline(never)]
fn dot2xn_fixed<const D: usize>(
    q0: &[f64],
    q1: &[f64],
    rows: &[f64],
    out0: &mut [f64],
    out1: &mut [f64],
) {
    const { assert!(D.is_multiple_of(LANES)) };
    let q0: &[f64; D] = q0.try_into().expect("kernels::dot2xn: query length != dim");
    let q1: &[f64; D] = q1.try_into().expect("kernels::dot2xn: query length != dim");
    let (rows, rest) = rows.as_chunks::<D>();
    assert!(
        rest.is_empty() && rows.len() == out0.len(),
        "kernels::dot2xn: rows buffer is not out.len() × dim"
    );
    for ((row, o0), o1) in rows.iter().zip(out0).zip(out1) {
        let mut a0 = [0.0f64; LANES];
        let mut a1 = [0.0f64; LANES];
        for c in (0..D).step_by(LANES) {
            for j in 0..LANES {
                a0[j] += q0[c + j] * row[c + j];
                a1[j] += q1[c + j] * row[c + j];
            }
        }
        // The barrier pins each accumulator in memory in lane order
        // before it is reduced. Without it LLVM's SLP pass lays the lanes
        // out to suit `reduce8`'s tree and pays two shuffles per load in
        // the loop above — 1.7× slower at dim 64. Only speed rests on it.
        *o0 = reduce8(std::hint::black_box(a0));
        *o1 = reduce8(std::hint::black_box(a1));
    }
}

/// Integer dot of two `i8` code rows, accumulated in `i32`: exact while
/// `dim · 127² ≤ i32::MAX`, i.e. for `dim ≤ 133 144` — which is why
/// `pane-index` caps sqflat at `1 << 17` dims (the loaders' general
/// `1 << 24` cap is 126× too loose for this kernel). Integer addition is
/// associative, so the vector body and the scalar loop give the same sum.
///
/// i8 → i32 widening does not vectorize on baseline x86-64, so that
/// target multiplies through `pmaddwd`. SSE2 is part of the x86-64
/// baseline: no runtime detection, one body per target.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    assert_eq!(a.len(), b.len(), "kernels::dot_i8: length mismatch");
    #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
    let (done, head) = {
        use core::arch::x86_64::*;
        let done = a.len() - a.len() % 16;
        // SAFETY: the `cfg` above means this compilation has SSE2 enabled
        // (it is in the x86-64 baseline). Each unaligned 16-byte load
        // reads `[c, c + 16)` of a slice of length `a.len() == b.len() >=
        // done`, with `c + 16 <= done`.
        let lanes: [i32; 4] = unsafe {
            let mut acc = _mm_setzero_si128();
            for c in (0..done).step_by(16) {
                let va = _mm_loadu_si128(a.as_ptr().add(c).cast());
                let vb = _mm_loadu_si128(b.as_ptr().add(c).cast());
                // Interleaving a register with itself puts byte `i` in
                // the high half of 16-bit lane `i`; the arithmetic
                // shift sign-extends it. `pmaddwd` then multiplies the
                // lanes and adds adjacent pairs into four `i32`s.
                let lo = _mm_madd_epi16(
                    _mm_srai_epi16(_mm_unpacklo_epi8(va, va), 8),
                    _mm_srai_epi16(_mm_unpacklo_epi8(vb, vb), 8),
                );
                let hi = _mm_madd_epi16(
                    _mm_srai_epi16(_mm_unpackhi_epi8(va, va), 8),
                    _mm_srai_epi16(_mm_unpackhi_epi8(vb, vb), 8),
                );
                acc = _mm_add_epi32(acc, _mm_add_epi32(lo, hi));
            }
            std::mem::transmute(acc)
        };
        (done, lanes.iter().sum::<i32>())
    };
    #[cfg(not(all(target_arch = "x86_64", target_feature = "sse2")))]
    let (done, head) = (0, 0i32);
    head + dot_i8_scalar(&a[done..], &b[done..])
}

/// The portable body of [`dot_i8`] (and its tail, and its test oracle).
#[inline]
fn dot_i8_scalar(a: &[i8], b: &[i8]) -> i32 {
    a.iter().zip(b).map(|(&x, &y)| x as i32 * y as i32).sum()
}

/// Integer panel kernel: [`dot_i8`] of one query code row against
/// `out.len()` contiguous code rows. `out[r]` is exactly
/// `dot_i8(q, row_r)`.
///
/// # Panics
/// Panics if `q.len() != dim` or `rows.len() != out.len() * dim`.
#[inline]
pub fn dot1xn_i8(q: &[i8], rows: &[i8], dim: usize, out: &mut [i32]) {
    assert_eq!(q.len(), dim, "kernels::dot1xn_i8: query length != dim");
    assert_eq!(
        rows.len(),
        out.len() * dim,
        "kernels::dot1xn_i8: rows buffer is not out.len() × dim"
    );
    for (r, o) in out.iter_mut().enumerate() {
        *o = dot_i8(q, &rows[r * dim..(r + 1) * dim]);
    }
}

/// Mixed dot of an `f64` query against an `i8` code row: `Σ q[j]·code[j]`
/// with the same 8-lane accumulation as [`dot`]. The caller applies the
/// per-row dequantization scale *outside* the sum
/// (`score = scale · dot_f64_i8(q, codes)`), hoisting one multiply out
/// of the inner loop.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn dot_f64_i8(q: &[f64], codes: &[i8]) -> f64 {
    assert_eq!(q.len(), codes.len(), "kernels::dot_f64_i8: length mismatch");
    let split = q.len() - q.len() % LANES;
    let (qb, qt) = q.split_at(split);
    let (cb, ct) = codes.split_at(split);
    let mut acc = [0.0f64; LANES];
    for (cq, cc) in qb.chunks_exact(LANES).zip(cb.chunks_exact(LANES)) {
        for j in 0..LANES {
            acc[j] += cq[j] * cc[j] as f64;
        }
    }
    for (j, (&x, &y)) in qt.iter().zip(ct.iter()).enumerate() {
        acc[j] += x * y as f64;
    }
    reduce8(acc)
}

/// Software prefetch of the cache line holding `data[offset]` (and the
/// next line, covering 16 doubles) into all cache levels. A hint only:
/// no-op when the offset is out of range or the target has no stable
/// prefetch intrinsic. HNSW neighbor expansion issues this for upcoming
/// neighbor rows so their demand loads hit L1/L2 instead of DRAM.
#[inline(always)]
pub fn prefetch_f64(data: &[f64], offset: usize) {
    #[cfg(target_arch = "x86_64")]
    {
        if offset < data.len() {
            // SAFETY: `offset` is in range, so the pointer is valid;
            // prefetch has no other safety requirements.
            unsafe {
                use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
                let p = data.as_ptr().add(offset) as *const i8;
                _mm_prefetch(p, _MM_HINT_T0);
                _mm_prefetch(p.add(64), _MM_HINT_T0);
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (data, offset);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Straightforward statement of the lane semantics: lane `j` sums the
    /// products at positions `≡ j (mod LANES)`, then the fixed pairwise
    /// reduction. The optimized kernels must be bit-identical to this.
    fn dot_ref_lanes(x: &[f64], y: &[f64]) -> f64 {
        let mut acc = [0.0f64; LANES];
        for i in 0..x.len() {
            acc[i % LANES] += x[i] * y[i];
        }
        reduce8(acc)
    }

    /// Plain left-to-right scalar dot — the pre-kernel baseline, used
    /// for tolerance (not bitwise) comparison.
    fn dot_ref_scalar(x: &[f64], y: &[f64]) -> f64 {
        x.iter().zip(y).map(|(a, b)| a * b).sum()
    }

    /// Deterministic pseudo-random f64 in [-1, 1).
    fn splat(seed: u64, i: usize) -> f64 {
        let mut z = seed
            .wrapping_add(i as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z ^= z >> 31;
        z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        ((z >> 11) as f64) / (1u64 << 52) as f64 - 1.0
    }

    #[test]
    fn dot_matches_lane_reference_all_lengths() {
        // Every length 0..257 and unaligned start offsets 0..3: the tail
        // handling and lane assignment must agree with the reference at
        // every (length mod 8, alignment) combination.
        let x: Vec<f64> = (0..260).map(|i| splat(1, i)).collect();
        let y: Vec<f64> = (0..260).map(|i| splat(2, i)).collect();
        for off in 0..3 {
            for len in 0..257 {
                let (a, b) = (&x[off..off + len], &y[off..off + len]);
                assert_eq!(
                    dot(a, b).to_bits(),
                    dot_ref_lanes(a, b).to_bits(),
                    "len {len} off {off}"
                );
            }
        }
    }

    #[test]
    fn dot1xn_bit_identical_to_per_row_dot() {
        for dim in [1usize, 7, 8, 31, 64, 129] {
            for n in [0usize, 1, 3, 4, 5, 17] {
                let q: Vec<f64> = (0..dim).map(|i| splat(5, i)).collect();
                let rows: Vec<f64> = (0..n * dim).map(|i| splat(6, i)).collect();
                let mut out = vec![0.0; n];
                dot1xn(&q, &rows, dim, &mut out);
                for r in 0..n {
                    let want = dot(&q, &rows[r * dim..(r + 1) * dim]).to_bits();
                    assert_eq!(out[r].to_bits(), want, "dim {dim} n {n} row {r}");
                }
            }
        }
    }

    /// `dot2xn` against `dot` for one (dim, n) shape: every score of
    /// both queries must carry `dot`'s bits.
    fn assert_dot2xn_is_dot(dim: usize, n: usize, seed: u64) -> Result<(), String> {
        let q0: Vec<f64> = (0..dim).map(|i| splat(seed, i)).collect();
        let q1: Vec<f64> = (0..dim).map(|i| splat(seed ^ 0x51, i)).collect();
        let rows: Vec<f64> = (0..n * dim).map(|i| splat(seed ^ 0xABCD, i)).collect();
        let (mut o0, mut o1) = (vec![0.0; n], vec![0.0; n]);
        dot2xn(&q0, &q1, &rows, dim, &mut o0, &mut o1);
        for r in 0..n {
            let row = &rows[r * dim..(r + 1) * dim];
            for (which, (q, o)) in [(&q0, &o0), (&q1, &o1)].into_iter().enumerate() {
                if o[r].to_bits() != dot(q, row).to_bits() {
                    return Err(format!("dim {dim} n {n} row {r} query {which}"));
                }
            }
        }
        Ok(())
    }

    #[test]
    fn dot2xn_bit_identical_to_per_pair_dot() {
        // 32/64/128 take the compile-time-dim body, the rest the two
        // `dot1xn` passes; n straddles the index crate's 64-row panel.
        for dim in [1usize, 7, 8, 31, 32, 64, 65, 128, 129, 256] {
            for n in [0usize, 1, 3, 64, 65] {
                assert_dot2xn_is_dot(dim, n, 9).unwrap();
            }
        }
    }

    #[test]
    fn dot_i8_exact_at_the_extremes_of_the_dim_cap() {
        // The largest dim sqflat accepts, all codes at ±127: the sum is
        // within 2% of i32::MAX and must not wrap in either body.
        let dim = 1usize << 17;
        let (hi, lo) = (vec![127i8; dim], vec![-127i8; dim]);
        let peak = (dim as i32) * 127 * 127;
        assert_eq!(dot_i8(&hi, &hi), peak);
        assert_eq!(dot_i8(&lo, &lo), peak);
        assert_eq!(dot_i8(&hi, &lo), -peak);
        assert_eq!(
            dot_i8(&hi[3..], &lo[3..]),
            dot_i8_scalar(&hi[3..], &lo[3..])
        );
    }

    #[test]
    fn dot_i8_exact_all_lengths() {
        let a: Vec<i8> = (0..260).map(|i| ((i * 37 + 11) % 255) as i8).collect();
        let b: Vec<i8> = (0..260).map(|i| ((i * 53 + 7) % 255) as i8).collect();
        for off in 0..3 {
            for len in 0..257 {
                let (x, y) = (&a[off..off + len], &b[off..off + len]);
                assert_eq!(dot_i8(x, y), dot_i8_scalar(x, y), "len {len} off {off}");
            }
        }
    }

    #[test]
    fn dot1xn_i8_matches_per_row() {
        let dim = 48;
        let n = 11;
        let q: Vec<i8> = (0..dim).map(|i| ((i * 19) % 255) as i8).collect();
        let rows: Vec<i8> = (0..n * dim).map(|i| ((i * 7 + 3) % 255) as i8).collect();
        let mut out = vec![0i32; n];
        dot1xn_i8(&q, &rows, dim, &mut out);
        for r in 0..n {
            assert_eq!(out[r], dot_i8_scalar(&q, &rows[r * dim..(r + 1) * dim]));
        }
    }

    #[test]
    fn dot_f64_i8_matches_lane_semantics() {
        let dim = 100;
        let q: Vec<f64> = (0..dim).map(|i| splat(7, i)).collect();
        let c: Vec<i8> = (0..dim).map(|i| ((i * 91 + 5) % 255) as i8).collect();
        let cf: Vec<f64> = c.iter().map(|&v| v as f64).collect();
        assert_eq!(dot_f64_i8(&q, &c).to_bits(), dot(&q, &cf).to_bits());
    }

    #[test]
    fn extreme_value_lanes_behave() {
        // ±0.0 inputs: signed zeros must not perturb the sum.
        assert_eq!(dot(&[0.0, -0.0], &[-0.0, 0.0]), 0.0);
        // NaN propagates.
        assert!(dot(&[f64::NAN, 1.0], &[1.0, 1.0]).is_nan());
        // Empty is exactly zero.
        assert_eq!(dot(&[], &[]), 0.0);
        assert_eq!(dot_i8(&[], &[]), 0);
    }

    #[test]
    fn prefetch_is_safe_everywhere() {
        let v = vec![1.0f64; 64];
        prefetch_f64(&v, 0);
        prefetch_f64(&v, 63);
        prefetch_f64(&v, 64); // out of range: no-op, no panic
        prefetch_f64(&[], 0);
    }

    proptest! {
        #[test]
        fn prop_dot_bit_identical_to_lane_reference(
            v in proptest::collection::vec(-1e6f64..1e6, 0..257),
            w in proptest::collection::vec(-1e6f64..1e6, 0..257),
            off in 0usize..4,
        ) {
            let n = v.len().min(w.len());
            let off = off.min(n);
            let (a, b) = (&v[off..n], &w[off..n]);
            prop_assert_eq!(dot(a, b).to_bits(), dot_ref_lanes(a, b).to_bits());
        }

        #[test]
        fn prop_dot_close_to_scalar_reference(
            v in proptest::collection::vec(-1e3f64..1e3, 0..257),
        ) {
            // Tolerance-bounded vs the old left-to-right sum: the lane
            // reorder is a rebaseline, not a numerical regression.
            let w: Vec<f64> = v.iter().map(|x| x * 0.5 + 0.25).collect();
            let kernel = dot(&v, &w);
            let scalar = dot_ref_scalar(&v, &w);
            let mag: f64 = v.iter().zip(&w).map(|(a, b)| (a * b).abs()).sum();
            prop_assert!((kernel - scalar).abs() <= 1e-12 * (1.0 + mag));
        }

        #[test]
        fn prop_dot1xn_equals_per_row(
            dim in 1usize..40,
            n in 0usize..12,
            seed in 0u64..1000,
        ) {
            let q: Vec<f64> = (0..dim).map(|i| splat(seed, i)).collect();
            let rows: Vec<f64> = (0..n * dim).map(|i| splat(seed ^ 0xABCD, i)).collect();
            let mut out = vec![0.0; n];
            dot1xn(&q, &rows, dim, &mut out);
            for r in 0..n {
                prop_assert_eq!(
                    out[r].to_bits(),
                    dot(&q, &rows[r * dim..(r + 1) * dim]).to_bits()
                );
            }
        }

        #[test]
        fn prop_dot2xn_equals_per_pair(
            pick in 1usize..44,
            n in 0usize..12,
            seed in 0u64..1000,
        ) {
            // Small general dims, plus the four compile-time ones.
            let dim = [32, 64, 128, 256].get(pick.wrapping_sub(40)).copied().unwrap_or(pick);
            prop_assert_eq!(assert_dot2xn_is_dot(dim, n, seed), Ok(()));
        }

        #[test]
        fn prop_dot_i8_exact(
            a in proptest::collection::vec(-127i32..128, 0..257),
            b in proptest::collection::vec(-127i32..128, 0..257),
        ) {
            let a: Vec<i8> = a.iter().map(|&v| v as i8).collect();
            let b: Vec<i8> = b.iter().map(|&v| v as i8).collect();
            let n = a.len().min(b.len());
            prop_assert_eq!(dot_i8(&a[..n], &b[..n]), dot_i8_scalar(&a[..n], &b[..n]));
        }
    }
}
