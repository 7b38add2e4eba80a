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
//! count, platform, target CPU, or whether the single-row ([`dot`]) or
//! panel ([`dot1xn`]) entry point computed them. Concretely:
//!
//! * [`dot`] ≡ the reference in this module's tests: lane `j` sums the
//!   products at positions `≡ j (mod 8)` in index order, then the lanes
//!   reduce as `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`;
//! * [`dot1xn`] produces, for every row, *bit-identical* output to
//!   [`dot`] on that pair — how rows are blocked never changes a score;
//! * the integer kernel ([`dot2xn_i8`]) is exact: integer addition is
//!   associative, so any unroll factor — and the SSE2 `pmaddwd` body
//!   x86-64 builds use — yields the same sum.
//!
//! Changing [`LANES`] is a format-level break (every stored score
//! golden would shift) and must be treated like a file-format bump.
//!
//! The f32 kernel ([`dot2xn_f32`]) is outside this contract on purpose:
//! it is a screen. Its scores only decide which rows get an exact [`dot`],
//! [`screen_slack`] bounds their error for every summation order, and no
//! f32 number reaches an answer.
//!
//! The scan sites in `pane-index` (flat/delta full scans, IVF cluster
//! scans, the sqflat integer scan, HNSW neighbor expansion) and the
//! exact scans in `pane-core`'s query layer all score through these
//! kernels — the f64 ones through [`dot`] itself or
//! [`vecops::dot`](crate::vecops::dot) — which keeps every
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
/// rows' accumulators spills the vector registers. The exact scans share
/// each row's loads across two queries instead, in f32 ([`dot2xn_f32`]).
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

/// Two-query f32 panel kernel, the screen in front of the exact scans:
/// for one or two row-major `queries`, `out[r][i]` is `query_i · row_r`
/// summed in f32 (four lanes per SSE2 op where f64 has two), each row
/// chunk loaded once for both. Its scores only decide which rows get an
/// exact [`dot`]; [`screen_slack`] bounds their error. The body is
/// compiled for dims 32/64/128/256 (`k/2` and `k` of the `k` ∈ {64, 128,
/// 256} PANE serves); other dims run it with a runtime dim, ≈2× slower,
/// still no slower than the f64 scan.
///
/// # Panics
/// Panics unless `queries.len()` is `dim` or `2 · dim` and
/// `rows.len() == out.len() * dim`.
pub fn dot2xn_f32(queries: &[f32], rows: &[f32], dim: usize, out: &mut [[f32; 2]]) {
    match (panel_shape(queries.len(), rows.len(), dim, out.len()), dim) {
        (_, 0) => out.fill([0.0; 2]),
        (true, _) => f32_dims::<true>(queries, rows, dim, out),
        (false, _) => f32_dims::<false>(queries, rows, dim, out),
    }
}

/// Checks a panel kernel's shapes (`queries` one or two rows of `dim`,
/// `n` rows) and says whether the queries are a pair.
fn panel_shape(queries: usize, rows: usize, dim: usize, n: usize) -> bool {
    assert!(queries == dim || queries == 2 * dim, "not 1 or 2 queries");
    assert_eq!(rows, n * dim, "rows are not out.len() × dim");
    queries == 2 * dim
}

/// [`dot2xn_f32`] at a compile-time dim where there is one, out of line:
/// inlined into the scan, LLVM re-vectorizes it with the caller's loop.
fn f32_dims<const PAIR: bool>(queries: &[f32], rows: &[f32], dim: usize, out: &mut [[f32; 2]]) {
    #[inline(never)]
    fn fixed<const P: bool, const D: usize>(q: &[f32], rows: &[f32], out: &mut [[f32; 2]]) {
        f32_body::<P>(q, rows, D, out);
    }
    match dim {
        32 => fixed::<PAIR, 32>(queries, rows, out),
        64 => fixed::<PAIR, 64>(queries, rows, out),
        128 => fixed::<PAIR, 128>(queries, rows, out),
        256 => fixed::<PAIR, 256>(queries, rows, out),
        _ => f32_body::<PAIR>(queries, rows, dim, out),
    }
}

/// The loop of [`dot2xn_f32`] (`dim > 0`): 8 lanes per query.
#[inline(always)]
fn f32_body<const PAIR: bool>(queries: &[f32], rows: &[f32], dim: usize, out: &mut [[f32; 2]]) {
    let q0 = &queries[..dim];
    let q1 = if PAIR { &queries[dim..2 * dim] } else { q0 };
    for (row, o) in rows.chunks_exact(dim).zip(out) {
        let (mut a0, mut a1) = ([0.0f32; LANES], [0.0f32; LANES]);
        let (r, rt) = row.as_chunks::<LANES>();
        let ((x0, t0), (x1, t1)) = (q0.as_chunks::<LANES>(), q1.as_chunks::<LANES>());
        for ((r, x0), x1) in r.iter().zip(x0).zip(x1) {
            for j in 0..LANES {
                a0[j] += x0[j] * r[j];
                a1[j] += if PAIR { x1[j] * r[j] } else { 0.0 };
            }
        }
        for (j, ((r, x0), x1)) in rt.iter().zip(t0).zip(t1).enumerate() {
            a0[j] += x0 * r;
            a1[j] += if PAIR { x1 * r } else { 0.0 };
        }
        // Lanes folded to four, both queries side by side, behind a barrier:
        // without it LLVM shuffles inside the loop above to suit the tree.
        let mut h = [0.0f32; LANES];
        for j in 0..LANES / 2 {
            h[j] = a0[j] + a0[j + LANES / 2];
            h[j + LANES / 2] = a1[j] + a1[j + LANES / 2];
        }
        let h = std::hint::black_box(h);
        *o = [(h[0] + h[2]) + (h[1] + h[3]), (h[4] + h[6]) + (h[5] + h[7])];
    }
}

/// A bound on `|s − dot(q, r)|`, where `s` is [`dot2xn_f32`]'s score of
/// the f32-rounded `q` and `r`, for every `r` with `‖r‖ ≤ max_row_norm`;
/// `qnorm` is `‖q‖`, and both norms are as [`vecops::norm2`](crate::vecops::norm2) computes
/// them. `+∞` — every row scored exactly — where no finite bound is
/// proved: a norm above 2¹⁰⁰ or not a number, or `dim > 2²⁰`.
///
/// **Derivation.** Write `n = dim`, `u = 2⁻²⁴` (f32's unit roundoff),
/// `u' = 2⁻⁵³`, `γₙ = nu/(1 − nu)`, `N = ‖q‖`, `R = ‖r‖`, and `q̃`, `r̃` for
/// the f32-rounded vectors. An f32 rounding of an entry or a product is
/// off by at most `u·|x|` in the normal range and by at most `2⁻¹⁵⁰`
/// below it; an addition that underflows is exact.
///
/// 1. *Inputs.* `|q̃ⱼr̃ⱼ − qⱼrⱼ| ≤ (2u + u²)|qⱼrⱼ| + 2⁻¹⁵⁰(1 + u)(|qⱼ| + |rⱼ|)
///    + 2⁻³⁰⁰`; summed with Cauchy–Schwarz and `‖x‖₁ ≤ √n‖x‖`,
///    `|q̃·r̃ − q·r| ≤ (2u + u²)NR + 2⁻¹⁵⁰(1 + u)√n(N + R) + n2⁻³⁰⁰`.
/// 2. *The f32 sum.* Each of the `n` products passes through at most `n`
///    roundings in any summation order, so `|s − q̃·r̃| ≤ γₙΣ|q̃ⱼr̃ⱼ| +
///    (1 + γₙ)n2⁻¹⁵⁰`, with `Σ|q̃ⱼr̃ⱼ| ≤ (1 + u)²NR + (1 + u)2⁻¹⁵⁰√n(N + R)
///    + n2⁻³⁰⁰`.
/// 3. *The f64 dot* is off from `q·r` by at most `γ'ₙNR + (1 + γ'ₙ)n2⁻¹⁰⁷⁵`
///    (`γ'` with `u'`).
///
/// With `nu ≤ 2⁻⁴`, `γₙ ≤ nu(1 + 2nu)`: the relative terms stay below
/// `(n(1 + 2nu) + 4)u·NR`, whose `+4` leaves `≥ 1.8u` for `γ'ₙ`, the
/// norms' own f64 error and this function's rounding; the absolute ones
/// below `2⁻¹⁴⁸n(1 + N + R)`, which also covers a norm whose squares
/// underflowed (short by `≤ √n·2⁻⁵³⁷`). `N, R ≤ 2¹⁰⁰` keep every f32
/// entry, product and partial sum finite. A caller skips a row when
/// `s + slack < w` for an f64 score `w`: rounding is monotone and
/// `dot(q, r) ≤ s + slack` exactly, so a skipped row scores below `w`.
pub fn screen_slack(dim: usize, qnorm: f64, max_row_norm: f64) -> f64 {
    const LIMIT: f64 = (1u128 << 100) as f64;
    let u = f64::from(f32::EPSILON) / 2.0;
    let n = dim as f64;
    let nu = n * u;
    let bounded = qnorm <= LIMIT && max_row_norm <= LIMIT && qnorm * max_row_norm <= LIMIT;
    if !bounded || nu > 1.0 / 16.0 {
        return f64::INFINITY;
    }
    (n * (1.0 + 2.0 * nu) + 4.0) * u * qnorm * max_row_norm
        + 2f64.powi(-148) * n * (1.0 + qnorm + max_row_norm)
}

/// Two-query integer panel kernel for the sqflat code scan: for one or
/// two row-major query code rows, `out[r][i] = Σⱼ query_i[j] · row_r[j]`,
/// exactly, in `i32`. The query codes come widened to `i16` once per
/// block, so each row chunk is loaded and widened once for both.
///
/// Exact while `dim · 127² ≤ i32::MAX`, i.e. for `dim ≤ 133 144` — which
/// is why `pane-index` caps sqflat at `1 << 17` dims (the loaders'
/// general `1 << 24` cap is 126× too loose for this kernel); query codes
/// must lie in `[-127, 127]`. Integer addition is associative, so the
/// vector body and the scalar loop give the same sum.
///
/// i8 → i32 widening does not vectorize on baseline x86-64, so that
/// target multiplies through `pmaddwd`. SSE2 is part of the x86-64
/// baseline: no runtime detection, one body per target.
///
/// # Panics
/// Panics unless `queries.len()` is `dim` or `2 · dim` and
/// `rows.len() == out.len() * dim`.
pub fn dot2xn_i8(queries: &[i16], rows: &[i8], dim: usize, out: &mut [[i32; 2]]) {
    match (panel_shape(queries.len(), rows.len(), dim, out.len()), dim) {
        (_, 0) => out.fill([0; 2]),
        (true, _) => i8_body::<true>(queries, rows, dim, out),
        (false, _) => i8_body::<false>(queries, rows, dim, out),
    }
}

/// The loop of [`dot2xn_i8`] (`dim > 0`).
fn i8_body<const PAIR: bool>(queries: &[i16], rows: &[i8], dim: usize, out: &mut [[i32; 2]]) {
    let q0 = &queries[..dim];
    let q1 = if PAIR { &queries[dim..2 * dim] } else { q0 };
    for (row, o) in rows.chunks_exact(dim).zip(out) {
        #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
        let (done, head) = {
            use core::arch::x86_64::*;
            let done = dim - dim % 16;
            // SAFETY: the `cfg` above means SSE2 is enabled (it is in the
            // x86-64 baseline). With `c + 16 <= done <= dim`, each
            // unaligned load reads `row[c..c + 16]` or a query's `[c..c +
            // 8]` / `[c + 8..c + 16]` (both of length `dim`, checked).
            let head: [i32; 2] = unsafe {
                let (mut acc0, mut acc1) = (_mm_setzero_si128(), _mm_setzero_si128());
                let madd = |lo, hi, q: &[i16], c: usize| {
                    let p = q.as_ptr().add(c);
                    _mm_add_epi32(
                        _mm_madd_epi16(lo, _mm_loadu_si128(p.cast())),
                        _mm_madd_epi16(hi, _mm_loadu_si128(p.add(8).cast())),
                    )
                };
                for c in (0..done).step_by(16) {
                    let v = _mm_loadu_si128(row.as_ptr().add(c).cast());
                    // Interleaving a register with itself puts byte `i` in
                    // the high half of 16-bit lane `i`; the arithmetic
                    // shift sign-extends it. `pmaddwd` then multiplies the
                    // lanes and adds adjacent pairs into four `i32`s.
                    let lo = _mm_srai_epi16(_mm_unpacklo_epi8(v, v), 8);
                    let hi = _mm_srai_epi16(_mm_unpackhi_epi8(v, v), 8);
                    acc0 = _mm_add_epi32(acc0, madd(lo, hi, q0, c));
                    if PAIR {
                        acc1 = _mm_add_epi32(acc1, madd(lo, hi, q1, c));
                    }
                }
                // Both queries' four lanes summed in registers: lanes
                // 0 and 1 end up holding query 0's and query 1's sums.
                let z = _mm_add_epi32(
                    _mm_unpacklo_epi32(acc0, acc1),
                    _mm_unpackhi_epi32(acc0, acc1),
                );
                let sums = _mm_add_epi32(z, _mm_unpackhi_epi64(z, z));
                std::mem::transmute::<i64, [i32; 2]>(_mm_cvtsi128_si64(sums))
            };
            (done, head)
        };
        #[cfg(not(all(target_arch = "x86_64", target_feature = "sse2")))]
        let (done, head) = (0, [0i32; 2]);
        let tail = |q: &[i16]| dot_i8_scalar(&q[done..], &row[done..]);
        *o = [
            head[0] + tail(q0),
            head[1] + if PAIR { tail(q1) } else { 0 },
        ];
    }
}

/// The portable body of [`dot2xn_i8`] (and its tail, and its test oracle).
#[inline]
fn dot_i8_scalar(q: &[i16], row: &[i8]) -> i32 {
    q.iter().zip(row).map(|(&x, &y)| x as i32 * y as i32).sum()
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

    /// Entries the screen has to survive: near ties one f32 ulp apart,
    /// zeros, subnormals of either width, 1e-30, and by `mode` (the seed
    /// mod 4) also 1e30 (2) or values past f32's range — 1e39, 1e300 —
    /// NaN and ±inf (3).
    fn screen_entry(seed: u64, i: usize) -> f64 {
        let base = splat(seed, i);
        let pick = ((splat(seed ^ 0x77, i) + 1.0) * 1e6) as u64 % 16;
        match (seed % 4, pick) {
            (_, 0) => 0.0,
            (_, 1) => base * 1e-310,
            (_, 2) => base * 1e-40,
            (_, 3) => base * 1e-30,
            (_, 4) => f64::from(f32::from_bits((base as f32).to_bits() + 1)),
            (2, 5) => base * 1e30,
            (3, 5) => base * 1e39,
            (3, 6) => base * 1e300,
            (3, 7) => f64::NAN,
            (3, 8) => f64::INFINITY.copysign(base),
            _ => base,
        }
    }

    /// The largest row norm as the scans keep it: NaN counts as `+∞`.
    fn max_norm(rows: &[f64], dim: usize) -> f64 {
        rows.chunks_exact(dim)
            .map(|r| dot(r, r).sqrt())
            .fold(
                0.0,
                |m, x| if x.is_nan() { f64::INFINITY } else { m.max(x) },
            )
    }

    /// `|f32 score − dot| ≤ screen_slack` on every input the slack calls
    /// finite; an entry past 2¹⁰⁰ or not finite makes it infinite. Rows
    /// one f32 ulp from the query, duplicates and zero rows included; a
    /// query's f32 score is the same alone and in either slot of a pair.
    #[test]
    fn dot2xn_f32_stays_within_the_screen_slack() {
        let mut screened = 0;
        for dim in [1usize, 7, 32, 64, 100, 128, 256] {
            for seed in 0..48u64 {
                let q: Vec<f64> = (0..dim).map(|i| screen_entry(seed, i)).collect();
                let mut rows: Vec<f64> = (0..9 * dim)
                    .map(|i| screen_entry(seed ^ 0x5EED0, i))
                    .collect();
                rows[..dim].copy_from_slice(&q);
                rows[dim..2 * dim].iter_mut().zip(&q).for_each(|(r, &x)| {
                    *r = f64::from(f32::from_bits((x as f32).to_bits() ^ 1));
                });
                rows[2 * dim..3 * dim].fill(0.0);
                let slack = screen_slack(dim, dot(&q, &q).sqrt(), max_norm(&rows, dim));
                let tame = |x: &f64| x.abs() <= 2f64.powi(100);
                if !(q.iter().all(tame) && rows.iter().all(tame)) {
                    assert_eq!(slack, f64::INFINITY, "dim {dim} seed {seed}");
                    continue;
                }
                let q32: Vec<f32> = q.iter().map(|&x| x as f32).collect();
                let r32: Vec<f32> = rows.iter().map(|&x| x as f32).collect();
                let rev: Vec<f32> = q32.iter().rev().copied().collect();
                let mut outs = [[[0f32; 2]; 9]; 3];
                dot2xn_f32(&q32, &r32, dim, &mut outs[0]);
                dot2xn_f32(&[&q32[..], &rev].concat(), &r32, dim, &mut outs[1]);
                dot2xn_f32(&[&rev[..], &q32].concat(), &r32, dim, &mut outs[2]);
                for (r, row) in rows.chunks_exact(dim).enumerate() {
                    let s = outs[0][r][0];
                    assert_eq!(
                        [outs[1][r][0], outs[2][r][1]].map(f32::to_bits),
                        [s.to_bits(); 2]
                    );
                    if slack.is_finite() {
                        let err = (f64::from(s) - dot(&q, row)).abs();
                        assert!(
                            err <= slack,
                            "dim {dim} seed {seed} row {r}: {err} > {slack}"
                        );
                        screened += 1;
                    }
                }
            }
        }
        assert!(screened > 1000, "{screened} rows screened");
    }

    #[test]
    fn screen_slack_is_infinite_without_a_bound() {
        assert!(screen_slack(64, 1.0, 1.0) < 5e-6);
        for (n, r) in [
            (f64::NAN, 1.0),
            (1.0, f64::INFINITY),
            (1e20, 1e20),
            (1e31, 0.0),
        ] {
            assert_eq!(screen_slack(64, n, r), f64::INFINITY, "{n} {r}");
        }
        assert_eq!(screen_slack(1 << 21, 1.0, 1.0), f64::INFINITY);
    }

    /// [`dot2xn_i8`] of `a` against the one row `b`: a lone query, and
    /// both queries of a pair.
    fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
        let wide: Vec<i16> = a.iter().map(|&v| v.into()).collect();
        let (mut one, mut two) = ([[0i32; 2]], [[0i32; 2]]);
        dot2xn_i8(&wide, b, a.len(), &mut one);
        dot2xn_i8(&[&wide[..], &wide].concat(), b, a.len(), &mut two);
        assert_eq!(two[0], [one[0][0]; 2]);
        one[0][0]
    }

    fn dot_i8_ref(a: &[i8], b: &[i8]) -> i32 {
        let wide: Vec<i16> = a.iter().map(|&v| v.into()).collect();
        dot_i8_scalar(&wide, b)
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
        assert_eq!(dot_i8(&hi[3..], &lo[3..]), dot_i8_ref(&hi[3..], &lo[3..]));
    }

    #[test]
    fn dot_i8_exact_all_lengths() {
        let a: Vec<i8> = (0..260).map(|i| ((i * 37 + 11) % 255) as i8).collect();
        let b: Vec<i8> = (0..260).map(|i| ((i * 53 + 7) % 255) as i8).collect();
        for off in 0..3 {
            for len in 0..257 {
                let (x, y) = (&a[off..off + len], &b[off..off + len]);
                assert_eq!(dot_i8(x, y), dot_i8_ref(x, y), "len {len} off {off}");
            }
        }
    }

    #[test]
    fn dot2xn_i8_matches_per_row() {
        for dim in [1usize, 15, 16, 48, 64, 100] {
            let n = 11;
            let q0: Vec<i16> = (0..dim).map(|i| ((i * 19) % 255) as i8 as i16).collect();
            let q1: Vec<i16> = (0..dim)
                .map(|i| ((i * 29 + 1) % 255) as i8 as i16)
                .collect();
            let rows: Vec<i8> = (0..n * dim).map(|i| ((i * 7 + 3) % 255) as i8).collect();
            let mut out = vec![[0i32; 2]; n];
            dot2xn_i8(&[&q0[..], &q1].concat(), &rows, dim, &mut out);
            for r in 0..n {
                let row = &rows[r * dim..(r + 1) * dim];
                let want = [dot_i8_scalar(&q0, row), dot_i8_scalar(&q1, row)];
                assert_eq!(out[r], want, "dim {dim} row {r}");
            }
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
        fn prop_dot_i8_exact(
            a in proptest::collection::vec(-127i32..128, 0..257),
            b in proptest::collection::vec(-127i32..128, 0..257),
        ) {
            let a: Vec<i8> = a.iter().map(|&v| v as i8).collect();
            let b: Vec<i8> = b.iter().map(|&v| v as i8).collect();
            let n = a.len().min(b.len());
            prop_assert_eq!(dot_i8(&a[..n], &b[..n]), dot_i8_ref(&a[..n], &b[..n]));
        }
    }
}
