//! SIMD-blocked kernels — the innermost loops of every hot scan path in
//! the serving tier, and of the embed's dense and sparse products.
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
//!   associative, so any unroll factor — and the AVX2 and SSE2 bodies
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
//! The product kernels ([`mul_add_rows`], [`tr_mul_add_rows`],
//! [`sparse_row_sum`]) have a contract of their own: they are
//! axpy-shaped, and each output entry is its terms added one at a time in
//! a fixed order (the inner index, or the sparse row's entries), one
//! rounded multiply and one rounded add per term, however the output is
//! tiled, so RandSVD, GreedyInit, CCD and PAPMI give the same bits on
//! every build target.
//!
//! The scan sites in `pane-index` (flat/delta full scans, IVF cluster
//! scans, the sqflat integer scan, HNSW neighbor expansion) and the
//! exact scans in `pane-core`'s query layer all score through these
//! kernels — the f64 ones through [`dot`] itself or
//! [`vecops::dot`](crate::vecops::dot) — which keeps every
//! exact-vs-indexed bit-identity contract in the test suite intact by
//! construction.

use std::ops::Range;

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
/// summed in f32 (twice the lanes per vector op of f64), each row chunk
/// loaded once for both. Its scores only decide which rows get an exact
/// [`dot`]; [`screen_slack`] bounds their error. The body is compiled
/// for dims 32/64/128/256 (`k/2` and `k` of the `k` ∈ {64, 128, 256}
/// PANE serves); other dims run it with a runtime dim, ≈2× slower, still
/// no slower than the f64 scan.
///
/// Every row is summed the same way: lane `j` takes the products at
/// positions `≡ j (mod 8)` in order, and the lanes fold as `h = lo + hi`,
/// then `(h0 + h2) + (h1 + h3)`, so a row's score has the same bits alone,
/// in either slot of a pair and at any position in the panel. AVX2 builds
/// score dims that are a multiple of 8 four rows per pass; other dims
/// and targets run one row per pass.
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

/// The loop of [`dot2xn_f32`] (`dim > 0`): the four-row AVX2 body where
/// the target has it and `dim` is a multiple of 8, the one-row body
/// otherwise.
#[inline(always)]
fn f32_body<const PAIR: bool>(queries: &[f32], rows: &[f32], dim: usize, out: &mut [[f32; 2]]) {
    #[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
    if dim.is_multiple_of(LANES) {
        return avx2::f32_panel::<PAIR>(queries, rows, dim, out);
    }
    f32_rowwise::<PAIR>(queries, rows, dim, out)
}

/// The portable body of [`dot2xn_f32`]: one row per pass, 8 lanes per
/// query.
#[inline(always)]
fn f32_rowwise<const PAIR: bool>(queries: &[f32], rows: &[f32], dim: usize, out: &mut [[f32; 2]]) {
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
/// One body per target, chosen at compile time: AVX2 builds widen with
/// `vpmovsxbw` and multiply through `vpmaddwd`, four rows per pass;
/// i8 → i32 widening does not vectorize on
/// baseline x86-64, so that target multiplies through SSE2's `pmaddwd`,
/// one row per pass; other targets run the scalar loop.
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

#[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
use avx2::i8_panel as i8_body;

/// The loop of [`dot2xn_i8`] (`dim > 0`) below AVX2.
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx2")))]
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

/// `out += a·b` over row-major slices: `b` is `m × p` (`m = b.len() / p`),
/// `a` is `rows × m` and `out` is `rows × p`. The worker of
/// [`DenseMatrix::matmul_par`](crate::DenseMatrix::matmul_par), public for
/// products over row blocks.
///
/// Every entry of `out` gets its terms `a[i][l]·b[l][j]` added one at a
/// time in ascending `l`, one rounded multiply and one rounded add each,
/// and a term whose factor from `a` is an exact zero is skipped: on a
/// zeroed `out` each entry is the ordered sum `((0 + t₀) + t₁) + …`. How
/// rows and columns are tiled never changes a bit. AVX2 builds keep a
/// tile of 4 rows × 8 columns of `out` in registers across the whole
/// inner index; other targets make one pass over `b` per 4 rows of `a`.
///
/// # Panics
/// Panics unless `b.len()` is a multiple of `p`, `out.len() == rows · p`
/// and `a.len() == rows · m` (with `p == 0`, unless `b` and `out` are
/// empty).
pub fn mul_add_rows(a: &[f64], b: &[f64], p: usize, out: &mut [f64]) {
    let Some(m) = inner_dim(b.len(), p, out.len()) else {
        return;
    };
    assert_eq!(
        a.len(),
        out.len() / p * m,
        "kernels::mul_add_rows: a is not rows × m"
    );
    if m > 0 {
        ab_body(a, b, m, p, out);
    }
}

/// `out += a[:, cols]ᵀ·b` over row-major slices: `a` is `n × m`, `b` is
/// `n × p` (`n = b.len() / p`) and `out` is `cols.len() × p`, its row `r`
/// the product's row `cols.start + r`. The worker of
/// [`DenseMatrix::tr_matmul_par`](crate::DenseMatrix::tr_matmul_par).
///
/// Every entry gets its terms `a[i][l]·b[i][j]` in ascending `i`, exact
/// zeros of `a` skipped, as in [`mul_add_rows`]. AVX2 builds take 8
/// matching rows of `a` and `b` per pass and add their 8 terms to each
/// 16-column chunk of an `out` row held in registers; other targets make
/// one pass over `out` per 4 matching rows.
///
/// # Panics
/// Panics unless `b.len()` is a multiple of `p`, `a.len() == n · m`,
/// `cols.end <= m` and `out.len() == cols.len() · p` (with `p == 0`,
/// unless `b` and `out` are empty).
pub fn tr_mul_add_rows(
    a: &[f64],
    m: usize,
    b: &[f64],
    p: usize,
    cols: Range<usize>,
    out: &mut [f64],
) {
    let Some(n) = inner_dim(b.len(), p, out.len()) else {
        return;
    };
    assert_eq!(a.len(), n * m, "kernels::tr_mul_add_rows: a is not n × m");
    assert!(
        cols.end <= m,
        "kernels::tr_mul_add_rows: columns out of range"
    );
    assert_eq!(
        out.len(),
        cols.len() * p,
        "kernels::tr_mul_add_rows: out is not cols.len() × p"
    );
    if !cols.is_empty() {
        atb_body(a, m, b, p, cols, out);
    }
}

/// The rows of a `p`-wide `b` (`None` when `p == 0`, after checking that
/// `b` and `out` are empty), and checks that `out` is whole rows of `p`.
fn inner_dim(b: usize, p: usize, out: usize) -> Option<usize> {
    if p == 0 {
        assert!(
            b == 0 && out == 0,
            "kernels: a product with p == 0 is empty"
        );
        return None;
    }
    assert!(b.is_multiple_of(p), "kernels: b is not whole rows of p");
    assert!(out.is_multiple_of(p), "kernels: out is not whole rows of p");
    Some(b / p)
}

/// One sparse row times a dense matrix: `out = Σₑ vals[e] · x[cols[e]]`,
/// where `x` holds rows of `w` entries and row `c` is `x[c·w..][..w]`.
/// Each entry of `out` starts at `+0` and gets its terms added one at a
/// time in entry order (no term skipped), one rounded multiply and one
/// rounded add each: the row of PAPMI's propagation and of `pane-sparse`'s
/// `CsrMatrix::mul_dense_par`.
/// AVX2 builds hold 16 columns of `out` in registers across the entries
/// (4 at a time below that).
///
/// # Panics
/// Panics unless `cols.len() == vals.len()`, `out.len() == w`, `x.len()`
/// is a multiple of `w` and every column indexes a row of `x` (with
/// `w == 0`, unless `out` is empty).
pub fn sparse_row_sum(cols: &[u32], vals: &[f64], x: &[f64], w: usize, out: &mut [f64]) {
    assert_eq!(
        cols.len(),
        vals.len(),
        "kernels::sparse_row_sum: cols/vals length mismatch"
    );
    assert_eq!(out.len(), w, "kernels::sparse_row_sum: out.len() != w");
    if w == 0 {
        return;
    }
    assert!(
        x.len().is_multiple_of(w),
        "kernels::sparse_row_sum: x is not whole rows of w"
    );
    sparse_body(cols, vals, x, w, out);
}

#[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
use avx2::{mul_add_rows as ab_body, sparse_row_sum as sparse_body, tr_mul_add_rows as atb_body};
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx2")))]
use portable::{
    mul_add_rows as ab_body, sparse_row_sum as sparse_body, tr_mul_add_rows as atb_body,
};

/// The portable bodies of the three product kernels: the bodies of the
/// baseline build and of other architectures, and the referees of the
/// AVX2 bodies in the tests. One `axpy` per term.
#[cfg(any(test, not(all(target_arch = "x86_64", target_feature = "avx2"))))]
mod portable {
    use crate::vecops::axpy;
    use std::ops::Range;

    /// Rows per pass of [`mul_add_rows`] and [`tr_mul_add_rows`]: enough
    /// to amortize the pass over the other operand, few enough that the
    /// pass's output rows stay in L1.
    const PANEL: usize = 4;

    /// [`mul_add_rows`](super::mul_add_rows), `m, p > 0`, shapes checked:
    /// one pass over `b` per [`PANEL`] rows of `a`.
    pub(super) fn mul_add_rows(a: &[f64], b: &[f64], m: usize, p: usize, out: &mut [f64]) {
        for (apanel, opanel) in a.chunks(PANEL * m).zip(out.chunks_mut(PANEL * p)) {
            for (l, brow) in b.chunks_exact(p).enumerate() {
                for (arow, orow) in apanel.chunks_exact(m).zip(opanel.chunks_exact_mut(p)) {
                    if arow[l] != 0.0 {
                        axpy(arow[l], brow, orow);
                    }
                }
            }
        }
    }

    /// [`tr_mul_add_rows`](super::tr_mul_add_rows), `m, p > 0`, shapes
    /// checked: one pass over `out` per [`PANEL`] matching rows of `a`
    /// and `b`.
    pub(super) fn tr_mul_add_rows(
        a: &[f64],
        m: usize,
        b: &[f64],
        p: usize,
        cols: Range<usize>,
        out: &mut [f64],
    ) {
        for (apanel, bpanel) in a.chunks(PANEL * m).zip(b.chunks(PANEL * p)) {
            for (l, crow) in cols.clone().zip(out.chunks_exact_mut(p)) {
                for (arow, brow) in apanel.chunks_exact(m).zip(bpanel.chunks_exact(p)) {
                    if arow[l] != 0.0 {
                        axpy(arow[l], brow, crow);
                    }
                }
            }
        }
    }

    /// [`sparse_row_sum`](super::sparse_row_sum), `w > 0`, shapes checked.
    pub(super) fn sparse_row_sum(cols: &[u32], vals: &[f64], x: &[f64], w: usize, out: &mut [f64]) {
        out.fill(0.0);
        for (&c, &v) in cols.iter().zip(vals) {
            axpy(v, &x[c as usize * w..][..w], out);
        }
    }
}

/// The AVX2 bodies (x86-64-v3 and up). The two panel kernels score four
/// rows per pass, each query chunk loaded once for the four, the sums
/// folded in registers; each row's arithmetic is the one-row bodies', so a
/// score does not depend on where its row falls in a pass. The three
/// product kernels hold a tile of the output in registers while its terms
/// arrive, each entry's terms in the portable bodies' order, with a
/// separate multiply and add (no FMA), so every entry keeps its bits.
#[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
mod avx2 {
    use super::{dot_i8_scalar, LANES};
    use core::arch::x86_64::*;
    use std::ops::Range;

    /// Rows per pass.
    const ROWS: usize = 4;

    /// [`dot2xn_f32`](super::dot2xn_f32) for `dim % 8 == 0`, `dim > 0`.
    #[inline(always)]
    pub(super) fn f32_panel<const PAIR: bool>(
        queries: &[f32],
        rows: &[f32],
        dim: usize,
        out: &mut [[f32; 2]],
    ) {
        let q0 = &queries[..dim];
        let q1 = if PAIR { &queries[dim..2 * dim] } else { q0 };
        let (quads, rest) = out.as_chunks_mut::<ROWS>();
        let split = quads.len() * ROWS * dim;
        for (block, o) in rows[..split].chunks_exact(ROWS * dim).zip(quads) {
            *o = f32_rows::<PAIR, ROWS>(q0, q1, block, dim);
        }
        for (row, o) in rows[split..].chunks_exact(dim).zip(rest) {
            *o = f32_rows::<PAIR, 1>(q0, q1, row, dim)[0];
        }
    }

    /// The scores of the `R ≤ 4` rows of `rows` (the rest zero): one
    /// 8-lane accumulator per row and query, lane `j` summing the
    /// products at positions `≡ j (mod 8)` in order, then [`fold_f32`].
    #[inline(always)]
    fn f32_rows<const PAIR: bool, const R: usize>(
        q0: &[f32],
        q1: &[f32],
        rows: &[f32],
        dim: usize,
    ) -> [[f32; 2]; ROWS] {
        assert!(R <= ROWS && dim.is_multiple_of(LANES) && rows.len() == R * dim);
        assert!(q0.len() == dim && q1.len() == dim);
        // SAFETY: the `cfg` on this module means AVX2 is enabled. With
        // `c + 8 <= dim` and `r < R`, each unaligned load reads a query's
        // `[c..c + 8]` or `rows[r * dim + c..][..8]`, in bounds by the
        // asserts above.
        unsafe {
            let mut acc = [[_mm256_setzero_ps(); 2]; ROWS];
            for c in (0..dim).step_by(LANES) {
                let x0 = _mm256_loadu_ps(q0.as_ptr().add(c));
                let x1 = _mm256_loadu_ps(q1.as_ptr().add(c));
                for (r, acc) in acc.iter_mut().enumerate().take(R) {
                    let v = _mm256_loadu_ps(rows.as_ptr().add(r * dim + c));
                    acc[0] = _mm256_add_ps(acc[0], _mm256_mul_ps(x0, v));
                    if PAIR {
                        acc[1] = _mm256_add_ps(acc[1], _mm256_mul_ps(x1, v));
                    }
                }
            }
            fold_f32(acc)
        }
    }

    /// Four rows' accumulator pairs to `[query 0, query 1]` scores, each
    /// folded as the one-row body folds it: `h = lo + hi`, then `(h0 +
    /// h2) + (h1 + h3)`.
    #[inline(always)]
    fn fold_f32(acc: [[__m256; 2]; ROWS]) -> [[f32; 2]; ROWS] {
        // SAFETY: the `cfg` on this module means AVX2 is enabled; these
        // intrinsics touch registers only, and the transmute turns 32
        // bytes into 32 bytes of f32s, any bit pattern of which is valid.
        unsafe {
            // Row `r`'s `h` of query 0 in the low half, of query 1 in the high.
            let [h0, h1, h2, h3] = acc.map(|[a, b]| {
                _mm256_add_ps(
                    _mm256_permute2f128_ps::<0x20>(a, b),
                    _mm256_permute2f128_ps::<0x31>(a, b),
                )
            });
            // `[a0 + a2, a1 + a3, b0 + b2, b1 + b3]` for rows `a`, `b`.
            let pairs = |a, b| {
                _mm256_add_ps(
                    _mm256_shuffle_ps::<0x44>(a, b),
                    _mm256_shuffle_ps::<0xEE>(a, b),
                )
            };
            let (t01, t23) = (pairs(h0, h1), pairs(h2, h3));
            // Rows 0–3 of query 0 in the low half, of query 1 in the high.
            let s = _mm256_add_ps(
                _mm256_shuffle_ps::<0x88>(t01, t23),
                _mm256_shuffle_ps::<0xDD>(t01, t23),
            );
            let (lo, hi) = (_mm256_castps256_ps128(s), _mm256_extractf128_ps::<1>(s));
            let s = _mm256_set_m128(_mm_unpackhi_ps(lo, hi), _mm_unpacklo_ps(lo, hi));
            std::mem::transmute::<__m256, [[f32; 2]; ROWS]>(s)
        }
    }

    /// [`dot2xn_i8`](super::dot2xn_i8), `dim > 0`.
    pub(super) fn i8_panel<const PAIR: bool>(
        queries: &[i16],
        rows: &[i8],
        dim: usize,
        out: &mut [[i32; 2]],
    ) {
        let q0 = &queries[..dim];
        let q1 = if PAIR { &queries[dim..2 * dim] } else { q0 };
        let (quads, rest) = out.as_chunks_mut::<ROWS>();
        let split = quads.len() * ROWS * dim;
        for (block, o) in rows[..split].chunks_exact(ROWS * dim).zip(quads) {
            *o = i8_rows::<PAIR, ROWS>(q0, q1, block, dim);
        }
        for (row, o) in rows[split..].chunks_exact(dim).zip(rest) {
            *o = i8_rows::<PAIR, 1>(q0, q1, row, dim)[0];
        }
    }

    /// The exact dots of the `R ≤ 4` code rows of `rows` (the rest
    /// zero): 16 codes per step widened to `i16` and multiplied into
    /// eight `i32` lanes per row and query, one `hadd` tree for the sums,
    /// the last `dim % 16` codes by [`dot_i8_scalar`].
    #[inline(always)]
    fn i8_rows<const PAIR: bool, const R: usize>(
        q0: &[i16],
        q1: &[i16],
        rows: &[i8],
        dim: usize,
    ) -> [[i32; 2]; ROWS] {
        assert!(R <= ROWS && rows.len() == R * dim);
        assert!(q0.len() == dim && q1.len() == dim);
        let done = dim - dim % 16;
        // SAFETY: the `cfg` on this module means AVX2 is enabled. With
        // `c + 16 <= done <= dim` and `r < R`, each unaligned load reads
        // a query's `[c..c + 16]` or `rows[r * dim + c..][..16]`, in
        // bounds by the asserts above.
        let mut sums = unsafe {
            let mut acc = [[_mm256_setzero_si256(); 2]; ROWS];
            for c in (0..done).step_by(16) {
                let x0 = _mm256_loadu_si256(q0.as_ptr().add(c).cast());
                let x1 = _mm256_loadu_si256(q1.as_ptr().add(c).cast());
                for (r, acc) in acc.iter_mut().enumerate().take(R) {
                    let v = _mm_loadu_si128(rows.as_ptr().add(r * dim + c).cast());
                    let v = _mm256_cvtepi8_epi16(v);
                    acc[0] = _mm256_add_epi32(acc[0], _mm256_madd_epi16(v, x0));
                    if PAIR {
                        acc[1] = _mm256_add_epi32(acc[1], _mm256_madd_epi16(v, x1));
                    }
                }
            }
            // Each `hadd` adds adjacent lanes within a 128-bit half; two
            // rounds leave `[r0q0, r0q1, r1q0, r1q1]` per half for rows
            // 0–1 and 2–3, and adding the halves finishes the sums.
            let [a, b, c, d] = acc.map(|[x, y]| _mm256_hadd_epi32(x, y));
            let (ab, cd) = (_mm256_hadd_epi32(a, b), _mm256_hadd_epi32(c, d));
            let s = _mm256_add_epi32(
                _mm256_permute2x128_si256::<0x20>(ab, cd),
                _mm256_permute2x128_si256::<0x31>(ab, cd),
            );
            std::mem::transmute::<__m256i, [[i32; 2]; ROWS]>(s)
        };
        if done < dim {
            for (row, o) in rows.chunks_exact(dim).zip(&mut sums) {
                o[0] += dot_i8_scalar(&q0[done..], &row[done..]);
                if PAIR {
                    o[1] += dot_i8_scalar(&q1[done..], &row[done..]);
                }
            }
        }
        sums
    }

    /// Rows of `a` per tile of [`mul_add_rows`]: with 8 columns, the tile
    /// is 8 `ymm` accumulators, and the two `b` chunks and a broadcast
    /// leave room in the 16 registers.
    const AB_ROWS: usize = 4;
    /// Matching rows of `a` and `b` per pass of [`tr_mul_add_rows`].
    const ATB_ROWS: usize = 8;

    /// [`mul_add_rows`](super::mul_add_rows), `m, p > 0`, shapes checked:
    /// panels of 4 rows, then one panel of the 1–3 rows left.
    pub(super) fn mul_add_rows(a: &[f64], b: &[f64], m: usize, p: usize, out: &mut [f64]) {
        let rows = out.len() / p;
        let done = rows - rows % AB_ROWS;
        for (ap, op) in a
            .chunks_exact(AB_ROWS * m)
            .zip(out.chunks_exact_mut(AB_ROWS * p))
        {
            ab_panel::<AB_ROWS>(ap, b, m, p, op);
        }
        let (a, out) = (&a[done * m..], &mut out[done * p..]);
        match rows - done {
            1 => ab_panel::<1>(a, b, m, p, out),
            2 => ab_panel::<2>(a, b, m, p, out),
            3 => ab_panel::<3>(a, b, m, p, out),
            _ => {}
        }
    }

    /// `R` rows of `out += a·b`: tiles of 8 columns, then one of 4, then
    /// the last `p % 4` columns one at a time.
    #[inline(always)]
    fn ab_panel<const R: usize>(a: &[f64], b: &[f64], m: usize, p: usize, out: &mut [f64]) {
        let mut j = 0;
        while j + 8 <= p {
            ab_tile::<R, 2>(a, b, m, p, j, out);
            j += 8;
        }
        if j + 4 <= p {
            ab_tile::<R, 1>(a, b, m, p, j, out);
            j += 4;
        }
        for j in j..p {
            for (arow, o) in a.chunks_exact(m).zip(out[j..].iter_mut().step_by(p)) {
                for (l, &x) in arow.iter().enumerate() {
                    if x != 0.0 {
                        *o += x * b[l * p + j];
                    }
                }
            }
        }
    }

    /// Columns `j..j + 4V` of `R` rows of `out += a·b`, the tile in `R·V`
    /// registers from the first term to the last; an exact zero of `a`
    /// skips its row's terms.
    #[inline(always)]
    fn ab_tile<const R: usize, const V: usize>(
        a: &[f64],
        b: &[f64],
        m: usize,
        p: usize,
        j: usize,
        out: &mut [f64],
    ) {
        assert!(a.len() == R * m && out.len() == R * p && b.len() == m * p && j + 4 * V <= p);
        // SAFETY: the `cfg` on this module means AVX2 is enabled. With
        // `r < R`, `v < V` and `l < m`, each unaligned load or store
        // touches `out[r * p + j + 4v..][..4]` or `b[l * p + j + 4v..][..4]`
        // and each scalar read is `a[r * m + l]`, in bounds by the assert.
        unsafe {
            let (o, bp) = (out.as_mut_ptr().add(j), b.as_ptr().add(j));
            let mut acc = [[_mm256_setzero_pd(); V]; R];
            for (r, acc) in acc.iter_mut().enumerate() {
                for (v, acc) in acc.iter_mut().enumerate() {
                    *acc = _mm256_loadu_pd(o.add(r * p + 4 * v));
                }
            }
            for l in 0..m {
                let x: [f64; R] = std::array::from_fn(|r| *a.get_unchecked(r * m + l));
                let y: [__m256d; V] =
                    std::array::from_fn(|v| _mm256_loadu_pd(bp.add(l * p + 4 * v)));
                let term = |acc: &mut [__m256d; V], x: f64| {
                    let s = _mm256_set1_pd(x);
                    for (acc, &y) in acc.iter_mut().zip(&y) {
                        *acc = _mm256_add_pd(*acc, _mm256_mul_pd(s, y));
                    }
                };
                if x.iter().all(|&x| x != 0.0) {
                    acc.iter_mut().zip(x).for_each(|(acc, x)| term(acc, x));
                } else {
                    for (acc, x) in acc.iter_mut().zip(x) {
                        if x != 0.0 {
                            term(acc, x);
                        }
                    }
                }
            }
            for (r, acc) in acc.iter().enumerate() {
                for (v, &acc) in acc.iter().enumerate() {
                    _mm256_storeu_pd(o.add(r * p + 4 * v), acc);
                }
            }
        }
    }

    /// [`tr_mul_add_rows`](super::tr_mul_add_rows), `m, p > 0`, shapes
    /// checked, `cols` not empty: passes of 8 matching rows, then one pass
    /// of the 1–7 rows left.
    pub(super) fn tr_mul_add_rows(
        a: &[f64],
        m: usize,
        b: &[f64],
        p: usize,
        cols: Range<usize>,
        out: &mut [f64],
    ) {
        let n = b.len() / p;
        let done = n - n % ATB_ROWS;
        for (ap, bp) in a
            .chunks_exact(ATB_ROWS * m)
            .zip(b.chunks_exact(ATB_ROWS * p))
        {
            atb_pass::<ATB_ROWS>(ap, m, bp, p, cols.clone(), out);
        }
        let (a, b) = (&a[done * m..], &b[done * p..]);
        match n - done {
            1 => atb_pass::<1>(a, m, b, p, cols, out),
            2 => atb_pass::<2>(a, m, b, p, cols, out),
            3 => atb_pass::<3>(a, m, b, p, cols, out),
            4 => atb_pass::<4>(a, m, b, p, cols, out),
            5 => atb_pass::<5>(a, m, b, p, cols, out),
            6 => atb_pass::<6>(a, m, b, p, cols, out),
            7 => atb_pass::<7>(a, m, b, p, cols, out),
            _ => {}
        }
    }

    /// The `R` matching rows' terms added to every row of `out`: chunks of
    /// 16 columns, then one of the 4–12 columns left, then the last `p % 4`
    /// columns one at a time. A row of `out` whose `R` factors from `a`
    /// are all zero gets no term and is not touched.
    #[inline(always)]
    fn atb_pass<const R: usize>(
        a: &[f64],
        m: usize,
        b: &[f64],
        p: usize,
        cols: Range<usize>,
        out: &mut [f64],
    ) {
        assert!(a.len() == R * m && b.len() == R * p && cols.end <= m);
        for (l, orow) in cols.zip(out.chunks_exact_mut(p)) {
            let x: [f64; R] = std::array::from_fn(|r| a[r * m + l]);
            let all = x.iter().all(|&x| x != 0.0);
            if !all && x.iter().all(|&x| x == 0.0) {
                continue;
            }
            let mut j = 0;
            while j + 16 <= p {
                atb_chunk::<R, 4>(&x, all, b, p, j, orow);
                j += 16;
            }
            match (p - j) / 4 {
                1 => atb_chunk::<R, 1>(&x, all, b, p, j, orow),
                2 => atb_chunk::<R, 2>(&x, all, b, p, j, orow),
                3 => atb_chunk::<R, 3>(&x, all, b, p, j, orow),
                _ => {}
            }
            for (j, o) in orow.iter_mut().enumerate().skip(p - p % 4) {
                for (r, &x) in x.iter().enumerate() {
                    if x != 0.0 {
                        *o += x * b[r * p + j];
                    }
                }
            }
        }
    }

    /// Columns `j..j + 4V` of one `out` row: loaded once, the `R` terms
    /// added in row order (exact zeros of `x` skipped unless `all` says
    /// there are none), stored once.
    #[inline(always)]
    fn atb_chunk<const R: usize, const V: usize>(
        x: &[f64; R],
        all: bool,
        b: &[f64],
        p: usize,
        j: usize,
        orow: &mut [f64],
    ) {
        assert!(b.len() == R * p && orow.len() == p && j + 4 * V <= p);
        // SAFETY: the `cfg` on this module means AVX2 is enabled. With
        // `r < R` and `v < V`, each unaligned load or store touches
        // `orow[j + 4v..][..4]` or `b[r * p + j + 4v..][..4]`, in bounds by
        // the assert.
        unsafe {
            let (o, bp) = (orow.as_mut_ptr().add(j), b.as_ptr().add(j));
            let mut acc: [__m256d; V] = std::array::from_fn(|v| _mm256_loadu_pd(o.add(4 * v)));
            let mut term = |r: usize, x: f64| {
                let s = _mm256_set1_pd(x);
                for (v, acc) in acc.iter_mut().enumerate() {
                    let y = _mm256_loadu_pd(bp.add(r * p + 4 * v));
                    *acc = _mm256_add_pd(*acc, _mm256_mul_pd(s, y));
                }
            };
            if all {
                x.iter().enumerate().for_each(|(r, &x)| term(r, x));
            } else {
                for (r, &x) in x.iter().enumerate() {
                    if x != 0.0 {
                        term(r, x);
                    }
                }
            }
            for (v, &acc) in acc.iter().enumerate() {
                _mm256_storeu_pd(o.add(4 * v), acc);
            }
        }
    }

    /// [`sparse_row_sum`](super::sparse_row_sum), `w > 0`, shapes checked:
    /// chunks of 16 columns, then one of the 4–12 columns left, then the
    /// last `w % 4` columns.
    pub(super) fn sparse_row_sum(cols: &[u32], vals: &[f64], x: &[f64], w: usize, out: &mut [f64]) {
        let mut j = 0;
        while j + 16 <= w {
            sparse_chunk::<4>(cols, vals, x, w, j, out);
            j += 16;
        }
        match (w - j) / 4 {
            1 => sparse_chunk::<1>(cols, vals, x, w, j, out),
            2 => sparse_chunk::<2>(cols, vals, x, w, j, out),
            3 => sparse_chunk::<3>(cols, vals, x, w, j, out),
            _ => {}
        }
        let j = w - w % 4;
        if j < w {
            let tail = &mut out[j..];
            tail.fill(0.0);
            for (&c, &v) in cols.iter().zip(vals) {
                for (o, &y) in tail.iter_mut().zip(&x[c as usize * w + j..][..w - j]) {
                    *o += v * y;
                }
            }
        }
    }

    /// Columns `j..j + 4V` of a sparse row sum, held in `V` registers
    /// from `+0` through every entry, stored once.
    #[inline(always)]
    fn sparse_chunk<const V: usize>(
        cols: &[u32],
        vals: &[f64],
        x: &[f64],
        w: usize,
        j: usize,
        out: &mut [f64],
    ) {
        assert!(out.len() == w && j + 4 * V <= w);
        // SAFETY: the `cfg` on this module means AVX2 is enabled. `row` is
        // a bounds-checked slice of `w` entries and `out` has `w`, so with
        // `v < V` each unaligned load or store touches `[j + 4v..][..4]`
        // of one of them, in bounds by the assert.
        unsafe {
            let mut acc = [_mm256_setzero_pd(); V];
            for (&c, &val) in cols.iter().zip(vals) {
                let row = &x[c as usize * w..][..w];
                let s = _mm256_set1_pd(val);
                for (v, acc) in acc.iter_mut().enumerate() {
                    let y = _mm256_loadu_pd(row.as_ptr().add(j + 4 * v));
                    *acc = _mm256_add_pd(*acc, _mm256_mul_pd(s, y));
                }
            }
            for (v, &acc) in acc.iter().enumerate() {
                _mm256_storeu_pd(out.as_mut_ptr().add(j + 4 * v), acc);
            }
        }
    }
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
    use std::ops::Range;

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

    /// FNV-1a over 32-bit words.
    fn fnv(h: u64, word: u32) -> u64 {
        word.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
    }

    /// Both panel kernels' outputs, hashed over panels of 0–9 and 64 rows
    /// at dims 1 to 128, a lone query and a pair: every f32 score's bits
    /// and every i8 dot. The constants were taken on the one-row bodies,
    /// before the four-row ones: a changed constant is a changed screen,
    /// never a test to update.
    #[test]
    fn panel_kernels_are_pinned() {
        let mut h = [0xcbf2_9ce4_8422_2325u64; 2];
        for dim in [1usize, 7, 8, 16, 32, 48, 64, 100, 128] {
            for n in (0..10).chain([64]) {
                let q32: Vec<f32> = (0..2 * dim).map(|i| splat(11, i) as f32).collect();
                let r32: Vec<f32> = (0..n * dim).map(|i| splat(12, i) as f32).collect();
                let code = |seed: u64, i| (splat(seed, i) * 127.5).clamp(-127.0, 127.0) as i8;
                let q8: Vec<i16> = (0..2 * dim).map(|i| code(13, i).into()).collect();
                let r8: Vec<i8> = (0..n * dim).map(|i| code(14, i)).collect();
                for m in [1, 2] {
                    let (mut f, mut d) = (vec![[0f32; 2]; n], vec![[0i32; 2]; n]);
                    dot2xn_f32(&q32[..m * dim], &r32, dim, &mut f);
                    dot2xn_i8(&q8[..m * dim], &r8, dim, &mut d);
                    for r in 0..n {
                        for j in 0..m {
                            h[0] = fnv(h[0], f[r][j].to_bits());
                            h[1] = fnv(h[1], d[r][j] as u32);
                        }
                    }
                }
            }
        }
        assert_eq!(h, [0x47f9_8e48_de29_7589, 0x50f3_6473_6048_5aa2]);
    }

    /// Every row of a panel of `n` rows (every `n mod 4`, every position
    /// in a pass) scores what a one-row call gives that row, in both
    /// kernels, for a lone query and in either slot of a pair; a lone
    /// query's second slot is zero.
    #[test]
    fn panel_rows_score_as_one_row_calls() {
        for dim in [1usize, 7, 8, 16, 24, 32, 40, 64, 100, 128] {
            for n in 0..=13 {
                // Queries `a` and `b` come first, then the `n` rows.
                let (a, b) = (0..dim, dim..2 * dim);
                let f: Vec<f32> = (0..(n + 2) * dim).map(|i| splat(21, i) as f32).collect();
                let c: Vec<i8> = (0..(n + 2) * dim)
                    .map(|i| (splat(22, i) * 127.9) as i8)
                    .collect();
                let w: Vec<i16> = c.iter().map(|&v| v.into()).collect();
                let row = |r: usize| (2 + r) * dim..(3 + r) * dim;
                let one = |q: &Range<usize>, r: usize| {
                    let (mut s, mut d) = ([[0f32; 2]], [[0i32; 2]]);
                    dot2xn_f32(&f[q.clone()], &f[row(r)], dim, &mut s);
                    dot2xn_i8(&w[q.clone()], &c[row(r)], dim, &mut d);
                    assert_eq!(d[0][0], dot_i8_scalar(&w[q.clone()], &c[row(r)]));
                    (s[0][0].to_bits(), d[0][0])
                };
                for slots in [vec![a.clone()], vec![a.clone(), b.clone()], vec![b, a]] {
                    let q32: Vec<f32> = slots.iter().flat_map(|q| f[q.clone()].to_vec()).collect();
                    let q8: Vec<i16> = slots.iter().flat_map(|q| w[q.clone()].to_vec()).collect();
                    let (mut s, mut d) = (vec![[0f32; 2]; n], vec![[0i32; 2]; n]);
                    dot2xn_f32(&q32, &f[2 * dim..], dim, &mut s);
                    dot2xn_i8(&q8, &c[2 * dim..], dim, &mut d);
                    for r in 0..n {
                        let (mut want32, mut want8) = ([0u32; 2], [0i32; 2]);
                        for (j, q) in slots.iter().enumerate() {
                            (want32[j], want8[j]) = one(q, r);
                        }
                        assert_eq!(
                            (s[r].map(f32::to_bits), d[r]),
                            (want32, want8),
                            "dim {dim} n {n} row {r} slots {slots:?}"
                        );
                    }
                }
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

    /// An entry of a product's `a`: about a third exact zeros of either
    /// sign, the rest in `[-1, 1)`.
    fn a_entry(seed: u64, i: usize) -> f64 {
        let v = splat(seed, i);
        if v.abs() < 0.33 {
            0.0f64.copysign(v)
        } else {
            v
        }
    }

    /// An entry of a product's `b` or `x`: about one in ten `+∞`, `−∞` or
    /// NaN, which an exact zero of `a` must skip, the rest in `[-1, 1)`.
    fn b_entry(seed: u64, i: usize) -> f64 {
        match ((splat(seed ^ 0xB0, i) + 1.0) * 1e6) as u64 % 30 {
            0 => f64::INFINITY,
            1 => f64::NEG_INFINITY,
            2 => f64::NAN,
            _ => splat(seed, i),
        }
    }

    /// A start for `out`: `±0`, or a value the products add onto.
    fn out_entry(seed: u64, i: usize) -> f64 {
        match i % 3 {
            0 => -0.0,
            1 => 0.0,
            _ => splat(seed, i),
        }
    }

    /// The bits of every entry, every NaN read as one value (which NaN an
    /// add of two NaNs returns is not part of the contract).
    fn bits(data: &[f64]) -> Vec<u64> {
        data.iter()
            .map(|v| if v.is_nan() { u64::MAX } else { v.to_bits() })
            .collect()
    }

    /// `mul_add_rows` equals its portable body at every row count through
    /// two 4-row tiles (every 1–3-row tail) and every width through five
    /// 8-column tiles (every 4-column and single-column tail), onto `±0`
    /// and other starts, with exact zeros of `a` facing `±∞` and NaN in
    /// `b`. On the baseline build both are the portable body.
    #[test]
    fn mul_add_rows_equals_its_portable_body() {
        for rows in 0..=9 {
            for m in [1usize, 2, 5, 13] {
                for p in 1..=40 {
                    let seed = (rows * 1000 + m * 100 + p) as u64;
                    let a: Vec<f64> = (0..rows * m).map(|i| a_entry(seed, i)).collect();
                    let b: Vec<f64> = (0..m * p).map(|i| b_entry(seed, i)).collect();
                    let start: Vec<f64> = (0..rows * p).map(|i| out_entry(seed, i)).collect();
                    let (mut got, mut want) = (start.clone(), start);
                    mul_add_rows(&a, &b, p, &mut got);
                    portable::mul_add_rows(&a, &b, m, p, &mut want);
                    assert_eq!(bits(&got), bits(&want), "rows {rows} m {m} p {p}");
                }
            }
        }
    }

    /// `tr_mul_add_rows` equals its portable body at every row count
    /// through two 8-row passes (every 1–7-row tail), every width through
    /// two 16-column chunks (every 4–12-column and single-column tail),
    /// whole and partial column ranges, with exact zeros of `a` facing
    /// `±∞` and NaN in `b`.
    #[test]
    fn tr_mul_add_rows_equals_its_portable_body() {
        for n in 0..=17 {
            for (m, cols) in [(1usize, 0..1), (3, 0..3), (6, 2..5), (7, 6..7)] {
                for p in 1..=40 {
                    let seed = (n * 1000 + m * 100 + p) as u64;
                    let a: Vec<f64> = (0..n * m).map(|i| a_entry(seed, i)).collect();
                    let b: Vec<f64> = (0..n * p).map(|i| b_entry(seed, i)).collect();
                    let start: Vec<f64> = (0..cols.len() * p).map(|i| out_entry(seed, i)).collect();
                    let (mut got, mut want) = (start.clone(), start);
                    tr_mul_add_rows(&a, m, &b, p, cols.clone(), &mut got);
                    portable::tr_mul_add_rows(&a, m, &b, p, cols.clone(), &mut want);
                    assert_eq!(bits(&got), bits(&want), "n {n} cols {cols:?} p {p}");
                }
            }
        }
    }

    /// `sparse_row_sum` is the ordered entry loop from `+0` (no term
    /// skipped, so a zero value facing `±∞` gives NaN) and equals its
    /// portable body: empty rows, one entry, repeated columns, widths
    /// across the 16- and 4-column chunks and every tail, and an `out`
    /// that held other values.
    #[test]
    fn sparse_row_sum_is_the_ordered_entry_loop() {
        let rows = 9;
        for w in [1usize, 2, 3, 4, 5, 8, 12, 16, 17, 20, 31, 64] {
            let x: Vec<f64> = (0..rows * w).map(|i| b_entry(w as u64, i)).collect();
            for len in [0usize, 1, 2, 5, 9, 23] {
                let cols: Vec<u32> = (0..len).map(|e| ((e * 7 + len) % rows) as u32).collect();
                let vals: Vec<f64> = (0..len).map(|e| a_entry(len as u64, e)).collect();
                let mut want = vec![0.0f64; w];
                for (&c, &v) in cols.iter().zip(&vals) {
                    for (o, &y) in want.iter_mut().zip(&x[c as usize * w..][..w]) {
                        *o += v * y;
                    }
                }
                let mut got = vec![f64::NAN; w];
                sparse_row_sum(&cols, &vals, &x, w, &mut got);
                assert_eq!(bits(&got), bits(&want), "w {w} entries {len}");
                let mut portable = vec![-1.0; w];
                portable::sparse_row_sum(&cols, &vals, &x, w, &mut portable);
                assert_eq!(
                    bits(&portable),
                    bits(&want),
                    "portable, w {w} entries {len}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "a is not rows × m")]
    fn mul_add_rows_refuses_an_out_longer_than_a() {
        // `a` is 2 × 3 and `b` 3 × 4, but `out` has 3 rows.
        mul_add_rows(&[1.0; 6], &[1.0; 12], 4, &mut [0.0; 12]);
    }

    #[test]
    #[should_panic(expected = "a is not rows × m")]
    fn mul_add_rows_refuses_a_ragged_a() {
        mul_add_rows(&[1.0; 5], &[1.0; 12], 4, &mut [0.0; 8]);
    }

    #[test]
    #[should_panic(expected = "out is not whole rows of p")]
    fn mul_add_rows_refuses_a_ragged_out() {
        mul_add_rows(&[1.0; 6], &[1.0; 12], 4, &mut [0.0; 7]);
    }

    #[test]
    #[should_panic(expected = "b is not whole rows of p")]
    fn mul_add_rows_refuses_a_ragged_b() {
        mul_add_rows(&[1.0; 6], &[1.0; 11], 4, &mut [0.0; 8]);
    }

    #[test]
    #[should_panic(expected = "p == 0")]
    fn mul_add_rows_refuses_a_zero_width_with_data() {
        mul_add_rows(&[], &[1.0; 3], 0, &mut []);
    }

    #[test]
    #[should_panic(expected = "a is not n × m")]
    fn tr_mul_add_rows_refuses_a_ragged_a() {
        // `b` is 4 × 2, so `a` must be 4 × 3.
        tr_mul_add_rows(&[1.0; 11], 3, &[1.0; 8], 2, 0..3, &mut [0.0; 6]);
    }

    #[test]
    #[should_panic(expected = "out is not cols.len() × p")]
    fn tr_mul_add_rows_refuses_a_short_out() {
        tr_mul_add_rows(&[1.0; 12], 3, &[1.0; 8], 2, 0..3, &mut [0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "columns out of range")]
    fn tr_mul_add_rows_refuses_columns_past_m() {
        tr_mul_add_rows(&[1.0; 12], 3, &[1.0; 8], 2, 2..4, &mut [0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "out.len() != w")]
    fn sparse_row_sum_refuses_a_wrong_out() {
        sparse_row_sum(&[0], &[1.0], &[1.0; 8], 4, &mut [0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "cols/vals length mismatch")]
    fn sparse_row_sum_refuses_unpaired_entries() {
        sparse_row_sum(&[0, 1], &[1.0], &[1.0; 8], 4, &mut [0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "x is not whole rows of w")]
    fn sparse_row_sum_refuses_a_ragged_x() {
        sparse_row_sum(&[0], &[1.0], &[1.0; 7], 4, &mut [0.0; 4]);
    }

    #[test]
    #[should_panic]
    fn sparse_row_sum_refuses_a_column_past_x() {
        sparse_row_sum(&[2], &[1.0], &[1.0; 32], 16, &mut [0.0; 16]);
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
