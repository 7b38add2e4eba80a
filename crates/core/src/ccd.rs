//! Cyclic coordinate descent in the Gram space (Algorithm 4: SVDCCD;
//! Algorithm 8: PSVDCCD).
//!
//! Algorithm 4 maintains the residuals `S_f = X_f·Yᵀ − F'`, `S_b = X_b·Yᵀ −
//! B'` and sweeps two phases over them:
//!
//! * **X phase** (`Y` fixed): for every node `v` and coordinate `l`,
//!   `μ = S_f[v]·Y[:,l] / ‖Y[:,l]‖²`, then `X_f[v,l] −= μ` and
//!   `S_f[v] −= μ·Y[:,l]ᵀ` (Eqs. 13, 16, 18); the same for `X_b`/`S_b`.
//! * **Y phase** (`X_f`, `X_b` fixed): for every attribute `r` and `l`,
//!   `μ = (X_f[:,l]·S_f[:,r] + X_b[:,l]·S_b[:,r]) / (‖X_f[:,l]‖² +
//!   ‖X_b[:,l]‖²)`, then `Y[r,l] −= μ` and the column updates of both
//!   residuals (Eqs. 15, 17, 20).
//!
//! Row `v`'s updates read `S_f[v]` only through `g = S_f[v]·Y`, and the
//! residual update moves `g` by `−μ·G[l,:]` with `G = YᵀY`. So the X phase
//! is: `g = X_f[v]·G − (F'Y)[v]`, then for `l = 0..k/2`: `μ = g_l / G_ll`,
//! `X_f[v,l] −= μ`, `g −= μ·G[l,:]`. The Y phase is the same descent on
//! the rows of `Y` with `H = X_fᵀX_f + X_bᵀX_b` in place of `G` and
//! `Q = F'ᵀX_f + B'ᵀX_b` in place of `F'Y`. These are Algorithm 4's
//! iterates in exact arithmetic (rounding differs: agreement with the
//! level-1 oracle in `ccd_oracle.rs` is ~3e-14, tested to 1e-9), at four
//! `2·n·d·(k/2)`-flop products per sweep instead of `16·n·d·(k/2)` flops of
//! dependent dot/axpy pairs, and without any `n×d` matrix besides `F'`, `B'`.
//!
//! Where `d` is small against `n`, a call of several sweeps runs in the
//! attribute space. An X phase maps every gradient row by one fixed linear
//! map, so from the start `X⁰` every iterate is `X_f = [X⁰_f | F']·Z_f`
//! (`Z_f = [I; 0]` at first): the X phase is the same descent on the `k/2+d`
//! rows of `Z_f` with `[0; Y]` for `F'Y`, and with `K_f = [X⁰_f|F']ᵀ[X⁰_f|F']`
//! the Y phase reads `X_fᵀX_f = Z_fᵀK_fZ_f`, `F'ᵀX_f = (K_fZ_f)[k/2..]` (`X_b`
//! likewise with `B'`). The lift `X⁰_f·Z_f[..k/2] + F'·Z_f[k/2..]` ends it,
//! in place in row blocks, with the bits of two products and an add.
//!
//! Further notes:
//!
//! * each coordinate update is the **exact minimizer** of the objective in
//!   that coordinate, so the objective is non-increasing — property-tested;
//! * rows are independent within a phase and the products are
//!   thread-count-invariant, so `nb` workers return the serial sweep's bits
//!   (Algorithm 8 ≡ Algorithm 4) — also tested;
//! * a coordinate whose Gram diagonal is not positive (an all-zero column)
//!   is skipped (`μ = 0`), the correct minimizer of a constant function;
//! * after the Y phase the objective is `‖F'‖² + ‖B'‖² − 2⟨Q,Y⟩ + ⟨H,YᵀY⟩`
//!   from matrices the phase already holds. It is a difference of terms
//!   of size `‖F'‖² + ‖B'‖²`, so its absolute precision is
//!   `O(ε·(‖F'‖² + ‖B'‖²))` however small the residual (clamped at 0).

use crate::greedy_init::InitState;
use pane_linalg::kernels::mul_add_rows;
use pane_linalg::{vecops, DenseMatrix};
use pane_parallel::{even_ranges_nonempty, for_each_row_block};
use std::sync::Mutex;

/// Objective `O = ‖S_f‖² + ‖S_b‖²` (Eq. 4) of `state` as the constructor or
/// the last [`ccd_sweeps`] left it. `O(1)`: see the module docs for how it
/// is kept and how precise it is.
pub fn objective(state: &InitState<'_>) -> f64 {
    state.objective
}

/// Runs `sweeps` full CCD sweeps over `state` on `nb` worker threads, on the
/// node rows or in the attribute space (module docs); same bits for any `nb`.
pub fn ccd_sweeps(state: &mut InitState<'_>, sweeps: usize, nb: usize) {
    let (n, d) = state.f.shape();
    let k2 = state.y.cols();
    assert_eq!(state.b.shape(), (n, d));
    assert_eq!(state.xf.shape(), (n, k2));
    assert_eq!(state.xb.shape(), (n, k2));
    assert_eq!(state.y.rows(), d);
    if n == 0 || d == 0 || k2 == 0 {
        return;
    }
    if in_attribute_space(n, d, k2, sweeps) {
        return attribute_space_sweeps(state, sweeps, nb);
    }
    let mut gram = state.y.tr_matmul_par(&state.y, nb);
    for _ in 0..sweeps {
        // X phase: lines 3–9 of Algorithm 4 / 3–10 of Algorithm 8.
        descend_rows(&mut state.xf, &state.f.matmul_par(&state.y, nb), &gram, nb);
        descend_rows(&mut state.xb, &state.b.matmul_par(&state.y, nb), &gram, nb);

        // Y phase: lines 10–14 of Algorithm 4 / 11–16 of Algorithm 8.
        let h = node_gram(&state.xf, &state.xb, nb);
        let mut q = state.f.tr_matmul_par(&state.xf, nb);
        q.axpy_inplace(1.0, &state.b.tr_matmul_par(&state.xb, nb));
        descend_rows(&mut state.y, &q, &h, nb);

        gram = state.y.tr_matmul_par(&state.y, nb);
        let cross = vecops::dot(q.data(), state.y.data());
        state.objective = gram_objective(state.energy, cross, &h, &gram);
    }
}

/// Whether `sweeps` sweeps cost less in the attribute space, in two-worker
/// multiply–adds (the Grams' `n·d²` at 0.8, the serial small work at 2; see
/// ARCHITECTURE.md). Free of `nb`, so it cannot change the bits; at `n` =
/// 12 000, `k/2` = 32 and 6 sweeps it flips at `d` ≈ 415.
fn in_attribute_space(n: usize, d: usize, k2: usize, sweeps: usize) -> bool {
    let (n, d, k2, s) = (n as f64, d as f64, k2 as f64, sweeps as f64);
    let w = d + k2;
    let grams = 0.8 * 2.0 * n * d * d + 2.0 * n * (d * k2 + k2 * k2);
    let lifts_and_small = 2.0 * n * w * k2 + 2.0 * s * 2.0 * (w * w * k2 + 2.0 * w * k2 * k2);
    sweeps > 1 && grams + lifts_and_small < s * (4.0 * n * d * k2 + 5.0 * n * k2 * k2)
}

/// [`ccd_sweeps`] on the `(k/2+d) × k/2` coefficients `Z` of `X = [X⁰ | A]·Z`
/// (`A` = `F'` or `B'`, module docs): only the Grams and the lifts touch `n`.
fn attribute_space_sweeps(state: &mut InitState<'_>, sweeps: usize, nb: usize) {
    let (k2, d) = (state.y.cols(), state.y.rows());
    let mut sides = [(&state.xf, state.f), (&state.xb, state.b)].map(|(x0, a)| {
        let xa = a.tr_matmul_par(x0, nb);
        let top = DenseMatrix::hstack(&[x0.tr_matmul_par(x0, nb), xa.transpose()]);
        let k = DenseMatrix::vstack(&[top, DenseMatrix::hstack(&[xa, a.tr_matmul_par(a, nb)])]);
        let z = DenseMatrix::vstack(&[DenseMatrix::identity(k2), DenseMatrix::zeros(d, k2)]);
        (k, z)
    });
    let mut gram = state.y.tr_matmul_par(&state.y, nb);
    for _ in 0..sweeps {
        let lin = DenseMatrix::vstack(&[DenseMatrix::zeros(k2, k2), state.y.clone()]);
        let (mut h, mut q) = (DenseMatrix::zeros(k2, k2), DenseMatrix::zeros(d, k2));
        for (k, z) in sides.iter_mut() {
            descend_rows(z, &lin, &gram, nb);
            let kz = k.matmul_par(z, nb);
            h.axpy_inplace(1.0, &z.tr_matmul_par(&kz, nb));
            q.axpy_inplace(1.0, &kz.row_block(k2..k2 + d));
        }
        descend_rows(&mut state.y, &q, &h, nb);

        gram = state.y.tr_matmul_par(&state.y, nb);
        let cross = vecops::dot(q.data(), state.y.data());
        state.objective = gram_objective(state.energy, cross, &h, &gram);
    }
    lift(&mut state.xf, state.f, &sides[0].1, nb);
    lift(&mut state.xb, state.b, &sides[1].1, nb);
}

/// Rows per block of [`lift`], whose two temporaries per worker are this × `k/2`.
const LIFT_ROWS: usize = 64;

/// `X ← X·Z[..k/2] + A·Z[k/2..]` in place, in row blocks on `nb` workers,
/// with the bits of two `matmul_par` products and an `axpy_inplace` add but
/// no `n×k/2` matrix besides `X`; temporaries made on the calling thread.
fn lift(x: &mut DenseMatrix, a: &DenseMatrix, z: &DenseMatrix, nb: usize) {
    let (n, k2) = x.shape();
    let (z0, z1) = z.data().split_at(k2 * k2);
    let ranges = even_ranges_nonempty(n, nb);
    let temps: Vec<_> = ranges
        .iter()
        .map(|_| Mutex::new(vec![0.0; 2 * LIFT_ROWS * k2]))
        .collect();
    for_each_row_block(x.data_mut(), n, k2, &ranges, |i, range, block| {
        let mut temp = temps[i].lock().expect("pane-core: a lift worker panicked");
        let (t0, t1) = temp.split_at_mut(LIFT_ROWS * k2);
        for (lo, xs) in range
            .step_by(LIFT_ROWS)
            .zip(block.chunks_mut(LIFT_ROWS * k2))
        {
            let (t0, t1, rows) = (&mut t0[..xs.len()], &mut t1[..xs.len()], xs.len() / k2);
            t0.fill(0.0);
            t1.fill(0.0);
            mul_add_rows(xs, z0, k2, t0);
            mul_add_rows(&a.data()[lo * a.cols()..][..rows * a.cols()], z1, k2, t1);
            vecops::axpy(1.0, t1, t0);
            xs.copy_from_slice(t0);
        }
    });
}

/// `H = X_fᵀX_f + X_bᵀX_b`, the Gram matrix of the Y phase.
pub(crate) fn node_gram(xf: &DenseMatrix, xb: &DenseMatrix, nb: usize) -> DenseMatrix {
    let mut h = xf.tr_matmul_par(xf, nb);
    h.axpy_inplace(1.0, &xb.tr_matmul_par(xb, nb));
    h
}

/// `‖S_f‖² + ‖S_b‖² = energy − 2·cross + ⟨H, YᵀY⟩`, where `energy = ‖F'‖² +
/// ‖B'‖²` and `cross = ⟨F', X_f·Yᵀ⟩ + ⟨B', X_b·Yᵀ⟩`; clamped at 0.
pub(crate) fn gram_objective(energy: f64, cross: f64, h: &DenseMatrix, gram: &DenseMatrix) -> f64 {
    (energy - 2.0 * cross + vecops::dot(h.data(), gram.data())).max(0.0)
}

/// One pass of exact coordinate minimizations over every row of `x`, for
/// the quadratic whose gradient at row `v` is `x[v]·gram − lin[v]`.
fn descend_rows(x: &mut DenseMatrix, lin: &DenseMatrix, gram: &DenseMatrix, nb: usize) {
    let k2 = x.cols();
    let mut steps = x.matmul_par(gram, nb);
    steps.axpy_inplace(-1.0, lin);
    let ranges = even_ranges_nonempty(x.rows(), nb);
    // Each gradient row becomes the row of steps `μ`: coordinate `l` is read
    // once, at its own update, so its slot then holds `μ_l`, and only the
    // coordinates still to come need `g −= μ_l·gram[l,:]`.
    for_each_row_block(steps.data_mut(), x.rows(), k2, &ranges, |_, _, block| {
        for g in block.chunks_exact_mut(k2) {
            for l in 0..k2 {
                let (head, tail) = g.split_at_mut(l + 1);
                let gll = gram.get(l, l);
                let mu = if gll > 0.0 { head[l] / gll } else { 0.0 };
                head[l] = mu;
                vecops::axpy(-mu, &gram.row(l)[l + 1..], tail);
            }
        }
    });
    x.axpy_inplace(-1.0, &steps);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ccd_oracle::{fresh_residuals, Oracle};
    use crate::greedy_init::{greedy_init, sm_greedy_init, InitOptions};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn affinities(n: usize, d: usize, seed: u64) -> (DenseMatrix, DenseMatrix) {
        let mut rng = StdRng::seed_from_u64(seed);
        let f = DenseMatrix::uniform(n, d, 0.0, 2.0, &mut rng);
        let b = DenseMatrix::uniform(n, d, 0.0, 2.0, &mut rng);
        (f, b)
    }

    fn greedy<'a>(f: &'a DenseMatrix, b: &'a DenseMatrix, k2: usize, seed: u64) -> InitState<'a> {
        let opts = InitOptions {
            half_dim: k2,
            power_iters: 2,
            oversample: 4,
            seed,
        };
        greedy_init(f, b, &opts, 1)
    }

    /// Random init as the PANE-R ablation makes it.
    fn random_state<'a>(
        f: &'a DenseMatrix,
        b: &'a DenseMatrix,
        k2: usize,
        seed: u64,
    ) -> InitState<'a> {
        let mut rng = StdRng::seed_from_u64(seed);
        let xf = DenseMatrix::gaussian(f.rows(), k2, &mut rng);
        let xb = DenseMatrix::gaussian(f.rows(), k2, &mut rng);
        let y = DenseMatrix::gaussian(f.cols(), k2, &mut rng);
        InitState::new(f, b, xf, xb, y, 1)
    }

    fn explicit_objective(st: &InitState<'_>) -> f64 {
        let (sf, sb) = fresh_residuals(st.f, st.b, &st.xf, &st.xb, &st.y);
        sf.frob_norm_sq() + sb.frob_norm_sq()
    }

    #[test]
    fn objective_monotonically_non_increasing() {
        let (f, b) = affinities(25, 10, 1);
        let mut st = greedy(&f, &b, 4, 1);
        let mut prev = objective(&st);
        for _ in 0..6 {
            ccd_sweeps(&mut st, 1, 1);
            let cur = objective(&st);
            assert!(cur <= prev + 1e-9, "objective rose: {prev} -> {cur}");
            prev = cur;
        }
    }

    /// The objective kept in Gram space is the norm of the residuals
    /// nobody maintains any more.
    #[test]
    fn residual_invariant_maintained() {
        let (f, b) = affinities(20, 8, 2);
        let mut st = greedy(&f, &b, 3, 2);
        for sweeps in 0..4 {
            let want = explicit_objective(&st);
            let got = objective(&st);
            assert!(
                (got - want).abs() < 1e-9 * (1.0 + want),
                "after {sweeps} sweeps: kept {got} vs explicit {want}"
            );
            ccd_sweeps(&mut st, 1, 1);
        }
    }

    #[test]
    fn gram_sweeps_follow_the_level1_oracle() {
        let (f, b) = affinities(30, 12, 7);
        let mut st = random_state(&f, &b, 5, 70);
        let mut oracle = Oracle::new(&f, &b, st.xf.clone(), st.xb.clone(), st.y.clone());
        for sweep in 1..=5 {
            ccd_sweeps(&mut st, 1, 2);
            oracle.sweep();
            assert!(st.xf.max_abs_diff(&oracle.xf) < 1e-9, "sweep {sweep}: Xf");
            assert!(st.xb.max_abs_diff(&oracle.xb) < 1e-9, "sweep {sweep}: Xb");
            assert!(st.y.max_abs_diff(&oracle.y) < 1e-9, "sweep {sweep}: Y");
            let (got, want) = (objective(&st), oracle.objective());
            assert!((got - want).abs() < 1e-9 * (1.0 + want), "sweep {sweep}");
        }
    }

    #[test]
    fn parallel_sweeps_bit_identical() {
        let (f, b) = affinities(33, 13, 3);
        let st0 = greedy(&f, &b, 5, 3);
        let mut serial = st0.clone();
        ccd_sweeps(&mut serial, 3, 1);
        for nb in [2, 4, 7] {
            let mut par = st0.clone();
            ccd_sweeps(&mut par, 3, nb);
            assert_eq!(serial.xf.data(), par.xf.data(), "nb={nb}: Xf differs");
            assert_eq!(serial.xb.data(), par.xb.data(), "nb={nb}: Xb differs");
            assert_eq!(serial.y.data(), par.y.data(), "nb={nb}: Y differs");
            assert_eq!(
                objective(&serial).to_bits(),
                objective(&par).to_bits(),
                "nb={nb}: objective differs"
            );
        }
    }

    #[test]
    fn ccd_fixes_perturbed_solution() {
        // Start from an exactly factorizable pair, perturb one coordinate;
        // CCD must restore a near-zero objective.
        let mut rng = StdRng::seed_from_u64(4);
        let xf = DenseMatrix::gaussian(15, 3, &mut rng);
        let y = DenseMatrix::gaussian(6, 3, &mut rng);
        let f = xf.matmul_transb(&y);
        let mut perturbed = xf.clone();
        perturbed.add_at(0, 0, 5.0);
        let mut st = InitState::new(&f, &f, perturbed, xf, y, 1);
        assert!(objective(&st) > 1.0);
        ccd_sweeps(&mut st, 8, 1);
        assert!(
            explicit_objective(&st) < 1e-6,
            "objective after repair: {}",
            explicit_objective(&st)
        );
        // The kept value is exact only to ε·(‖F'‖² + ‖B'‖²).
        assert!(objective(&st) < 1e-6 + 1e-12 * st.energy);
    }

    #[test]
    fn greedy_init_converges_faster_than_random() {
        let (f, b) = affinities(40, 16, 5);
        let mut g = greedy(&f, &b, 4, 5);
        let mut r = random_state(&f, &b, 4, 55);
        // Same number of sweeps from both starts.
        ccd_sweeps(&mut g, 2, 1);
        ccd_sweeps(&mut r, 2, 1);
        assert!(
            objective(&g) < objective(&r),
            "greedy {} should beat random {} at equal sweeps",
            objective(&g),
            objective(&r)
        );
    }

    #[test]
    fn zero_coordinate_columns_are_skipped() {
        let (f, b) = affinities(10, 5, 6);
        let st = greedy(&f, &b, 3, 6);
        // Zero out one Y column and its X counterparts: the sweep must
        // leave them alone and produce no NaN from 0/0.
        let (mut xf, mut xb, mut y) = (st.xf, st.xb, st.y);
        for m in [&mut xf, &mut xb, &mut y] {
            for i in 0..m.rows() {
                m.set(i, 1, 0.0);
            }
        }
        let mut st = InitState::new(&f, &b, xf, xb, y, 1);
        ccd_sweeps(&mut st, 2, 1);
        for m in [&st.xf, &st.xb, &st.y] {
            assert!(m.data().iter().all(|v| v.is_finite()));
            assert!(m.col(1).iter().all(|&v| v == 0.0), "dead coordinate moved");
        }
    }

    /// The four benchmark shapes at `k/2 = 32` and 6 sweeps: the three with
    /// `d ≤ 96` sweep in the attribute space, `embed-wide` (2 000 × 1 000)
    /// on the node rows; so do the shapes `tests/paper_lemmas.rs` runs as
    /// attribute-space referees, and a single sweep never moves. CI's
    /// embed-determinism smoke embeds one graph on each side at `--dim 32`
    /// (`tweibo-like` and `citeseer-like` at scales 0.05 and 0.15).
    #[test]
    fn cost_model_picks_the_attribute_space_where_d_is_small() {
        for (n, d, k2) in [
            (12_000, 64, 32),
            (12_000, 96, 32),
            (5_000, 64, 32),
            (600, 12, 8),
            (200, 5, 8),
            (2_000, 67, 16),
        ] {
            assert!(in_attribute_space(n, d, k2, 6), "{n}x{d}, k/2 = {k2}");
            assert!(!in_attribute_space(n, d, k2, 1), "{n}x{d}: one sweep");
        }
        // `tests/embed_memory.rs`'s small-`d` shape, at its `t` = 3.
        assert!(in_attribute_space(3_000, 32, 32, 3));
        assert!(!in_attribute_space(2_000, 1_000, 32, 6));
        assert!(!in_attribute_space(495, 465, 16, 6));
    }

    /// The in-place lift gives the bits of the two products and the add it
    /// replaces, from each of the three starts (GreedyInit, SMGreedyInit,
    /// random), on row counts that are not a multiple of the block, with
    /// exact zeros in `X` and `A` (the terms both skip).
    #[test]
    fn lift_in_place_equals_two_products() {
        let (k2, d) = (5, 9);
        let bits = |m: &DenseMatrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for n in [3, LIFT_ROWS + 1, 2 * LIFT_ROWS + 13] {
            let (mut f, b) = affinities(n, d, n as u64);
            for v in (0..n).step_by(3) {
                f.set(v, v % d, 0.0);
            }
            let opts = InitOptions {
                half_dim: k2,
                power_iters: 2,
                oversample: 4,
                seed: 9,
            };
            let starts = [
                greedy_init(&f, &b, &opts, 1).xf,
                sm_greedy_init(&f, &b, &opts, 3).xf,
                random_state(&f, &b, k2, 9).xf,
            ];
            let z = DenseMatrix::gaussian(k2 + d, k2, &mut StdRng::seed_from_u64(n as u64));
            for (s, mut x0) in starts.into_iter().enumerate() {
                for v in (0..n).step_by(4) {
                    x0.set(v, 1, 0.0);
                }
                for nb in [1, 2, 3, 7] {
                    let mut want = x0.matmul_par(&z.row_block(0..k2), nb);
                    want.axpy_inplace(1.0, &f.matmul_par(&z.row_block(k2..k2 + d), nb));
                    let mut got = x0.clone();
                    lift(&mut got, &f, &z, nb);
                    assert_eq!(bits(&got), bits(&want), "start {s}, n = {n}, nb = {nb}");
                }
            }
        }
    }

    #[test]
    fn empty_dimensions_are_noops() {
        let f = DenseMatrix::zeros(0, 0);
        let empty = || DenseMatrix::zeros(0, 2);
        let mut st = InitState::new(&f, &f, empty(), empty(), empty(), 2);
        ccd_sweeps(&mut st, 3, 2);
        assert_eq!(objective(&st), 0.0);
    }
}
