//! Embedding initialization (Algorithm 3: GreedyInit; Algorithm 7:
//! SMGreedyInit).
//!
//! The key idea of the solver: a direct application of CCD from random
//! embeddings needs many sweeps; instead, seed with
//!
//! ```text
//!   U, Σ, V ← RandSVD(F', k/2)      X_f ← U·Σ,   Y ← V,   X_b ← B'·Y
//! ```
//!
//! `X_f·Yᵀ ≈ F'` immediately, and because `V` is (near-)unitary,
//! `X_b = B'·Y` gives `X_b·Yᵀ ≈ B'·Y·Yᵀ ≈ B'` — both residuals start small.
//!
//! The split–merge variant partitions the rows of `F'` into `nb` blocks,
//! factorizes each block independently, and merges the per-block right
//! factors with a second small SVD (Lemma 4.2: at `t = ∞` the result still
//! satisfies `X_f·Yᵀ = F'`, `YᵀY = I`, `S_f = 0`, `S_b·Y = 0`).
//!
//! GreedyInit's one RandSVD (exact through the `d×d` Gram where `d` is
//! small: `pane_linalg::randsvd`) runs its `n`-sized products on all `nb`
//! workers; their bits do not depend on `nb`, so neither does the state.

use crate::ccd::{gram_objective, node_gram};
use pane_linalg::{rand_svd, rand_svd_par, vecops, DenseMatrix, RandSvdConfig};
use pane_parallel::{even_ranges_nonempty, map_blocks};

/// Embeddings, the affinity matrices they are fitted to, and the objective.
///
/// The residuals `S_f = X_f·Yᵀ − F'`, `S_b = X_b·Yᵀ − B'` are never formed:
/// CCD works on their Gram-space images (see [`crate::ccd`]), so besides the
/// borrowed `F'`, `B'` the state is `O((n+d)·k)`.
#[derive(Debug, Clone)]
pub struct InitState<'a> {
    /// Forward node embeddings `X_f ∈ R^{n×k/2}`.
    pub xf: DenseMatrix,
    /// Backward node embeddings `X_b ∈ R^{n×k/2}`.
    pub xb: DenseMatrix,
    /// Attribute embeddings `Y ∈ R^{d×k/2}`.
    pub y: DenseMatrix,
    /// Forward affinity `F' ∈ R^{n×d}`.
    pub f: &'a DenseMatrix,
    /// Backward affinity `B' ∈ R^{n×d}`.
    pub b: &'a DenseMatrix,
    /// `‖F'‖² + ‖B'‖²`, the constant term of the objective.
    pub(crate) energy: f64,
    /// `‖S_f‖² + ‖S_b‖²` of the embeddings as [`crate::ccd_sweeps`] (or the
    /// constructor) left them; stale after a direct write to `xf`/`xb`/`y`.
    pub(crate) objective: f64,
}

impl<'a> InitState<'a> {
    /// State around embeddings of any origin (an initializer, random, a
    /// previous run), with its objective evaluated by two `n·d·k/2`
    /// products on `nb` workers.
    ///
    /// # Panics
    /// Panics on any shape mismatch.
    pub fn new(
        f: &'a DenseMatrix,
        b: &'a DenseMatrix,
        xf: DenseMatrix,
        xb: DenseMatrix,
        y: DenseMatrix,
        nb: usize,
    ) -> Self {
        assert_eq!(xb.shape(), (f.rows(), y.cols()), "X_b shape mismatch");
        Self::with_xb(f, b, xf, Some(xb), y, nb)
    }

    /// [`new`](Self::new), or with `xb: None` GreedyInit's `X_b = B'·Y`: the
    /// product `new` makes for `⟨B'Y, X_b⟩` becomes `X_b`, so two `n×k/2`
    /// matrices are alive at the peak instead of three.
    fn with_xb(
        f: &'a DenseMatrix,
        b: &'a DenseMatrix,
        xf: DenseMatrix,
        xb: Option<DenseMatrix>,
        y: DenseMatrix,
        nb: usize,
    ) -> Self {
        let (n, d, k2) = (f.rows(), f.cols(), y.cols());
        assert_eq!(b.shape(), (n, d), "F'/B' shape mismatch");
        assert_eq!(xf.shape(), (n, k2), "X_f shape mismatch");
        assert_eq!(y.rows(), d, "Y shape mismatch");
        let energy = f.frob_norm_sq() + b.frob_norm_sq();
        // ⟨F', X_f·Yᵀ⟩ + ⟨B', X_b·Yᵀ⟩ = ⟨F'Y, X_f⟩ + ⟨B'Y, X_b⟩, one product
        // alive at a time.
        let cross = vecops::dot(f.matmul_par(&y, nb).data(), xf.data());
        let by = b.matmul_par(&y, nb);
        let cross = cross + vecops::dot(by.data(), xb.as_ref().unwrap_or(&by).data());
        let xb = xb.unwrap_or(by);
        let objective = gram_objective(
            energy,
            cross,
            &node_gram(&xf, &xb, nb),
            &y.tr_matmul_par(&y, nb),
        );
        Self {
            xf,
            xb,
            y,
            f,
            b,
            energy,
            objective,
        }
    }
}

/// Options shared by both initializers.
#[derive(Debug, Clone, Copy)]
pub struct InitOptions {
    /// Per-side dimension `k/2`.
    pub half_dim: usize,
    /// RandSVD power iterations (the paper's `t`); inert where it is exact.
    pub power_iters: usize,
    /// RandSVD oversampling; inert where the SVD is exact.
    pub oversample: usize,
    /// Sketch seed; inert where the SVD is exact.
    pub seed: u64,
}

impl InitOptions {
    fn svd_config(&self, seed: u64) -> RandSvdConfig {
        RandSvdConfig {
            rank: self.half_dim,
            power_iters: self.power_iters,
            oversample: self.oversample,
            seed,
        }
    }
}

/// Algorithm 3: one RandSVD of `F'`, its products run by `nb` workers. The
/// result has the same bits for every `nb`.
pub fn greedy_init<'a>(
    f: &'a DenseMatrix,
    b: &'a DenseMatrix,
    opts: &InitOptions,
    nb: usize,
) -> InitState<'a> {
    let svd = rand_svd_par(f, &opts.svd_config(opts.seed), nb);
    let mut xf = svd.u;
    xf.scale_cols_inplace(&svd.s);
    InitState::with_xb(f, b, xf, None, svd.v, nb)
}

/// Algorithm 7 (split–merge, `nb` workers).
pub fn sm_greedy_init<'a>(
    f: &'a DenseMatrix,
    b: &'a DenseMatrix,
    opts: &InitOptions,
    nb: usize,
) -> InitState<'a> {
    let k2 = opts.half_dim;
    let ranges = even_ranges_nonempty(f.rows(), nb);
    if ranges.len() <= 1 {
        return greedy_init(f, b, opts, nb);
    }

    // Lines 1–3: per-block RandSVD of F'[V_i]; keep U_i = Φ·Σ and V_i.
    // Distinct seeds per block: the sketches are independent.
    let blocks = map_blocks(&ranges, |i, range| {
        let cfg = opts.svd_config(opts.seed.wrapping_add(i as u64 + 1));
        let svd = rand_svd(&f.row_block(range), &cfg);
        (svd.u_sigma(), svd.v)
    });

    // Lines 4–6: stack Vᵢᵀ into V ∈ R^{(nb·k/2)×d}, factorize once more.
    let stacked = DenseMatrix::vstack(
        &blocks
            .iter()
            .map(|(_, v)| v.transpose())
            .collect::<Vec<_>>(),
    );
    let merge = rand_svd(&stacked, &opts.svd_config(opts.seed));
    let w = merge.u_sigma(); // (nb·k/2) × k/2

    // Lines 7–11: X_f[V_i] = U_i·W_i; X_b = B'·Y as in Algorithm 3.
    let xf = DenseMatrix::vstack(
        &blocks
            .iter()
            .enumerate()
            .map(|(i, (ui, _))| ui.matmul(&w.row_block(i * k2..(i + 1) * k2)))
            .collect::<Vec<_>>(),
    );
    drop(blocks);
    InitState::with_xb(f, b, xf, None, merge.v, nb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ccd::objective;
    use crate::ccd_oracle::fresh_residuals;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn affinity_like(n: usize, d: usize, rank: usize, seed: u64) -> (DenseMatrix, DenseMatrix) {
        // Non-negative low-rank-ish matrices, like ln(1 + x) affinities.
        let mut rng = StdRng::seed_from_u64(seed);
        let u = DenseMatrix::uniform(n, rank, 0.0, 1.0, &mut rng);
        let v = DenseMatrix::uniform(d, rank, 0.0, 1.0, &mut rng);
        let f = u.matmul_transb(&v);
        let u2 = DenseMatrix::uniform(n, rank, 0.0, 1.0, &mut rng);
        let b = u2.matmul_transb(&v);
        (f, b)
    }

    /// The objective the initializer reports against the residuals formed
    /// explicitly.
    fn assert_objective_consistent(st: &InitState<'_>) {
        let (sf, sb) = fresh_residuals(st.f, st.b, &st.xf, &st.xb, &st.y);
        let want = sf.frob_norm_sq() + sb.frob_norm_sq();
        let got = objective(st);
        assert!(
            (got - want).abs() < 1e-10 * (1.0 + st.energy),
            "reported {got} vs explicit {want}"
        );
    }

    #[test]
    fn greedy_init_residuals_consistent() {
        let (f, b) = affinity_like(40, 12, 6, 1);
        let opts = InitOptions {
            half_dim: 4,
            power_iters: 3,
            oversample: 4,
            seed: 9,
        };
        assert_objective_consistent(&greedy_init(&f, &b, &opts, 1));
    }

    #[test]
    fn greedy_init_beats_random_start() {
        let (f, b) = affinity_like(60, 20, 5, 2);
        let opts = InitOptions {
            half_dim: 5,
            power_iters: 3,
            oversample: 6,
            seed: 3,
        };
        let obj = objective(&greedy_init(&f, &b, &opts, 1));
        // Random init: Xf, Xb, Y gaussian — objective near ||F||² + ||B||²
        // plus noise energy; greedy must be far below that.
        let baseline = f.frob_norm_sq() + b.frob_norm_sq();
        assert!(
            obj < 0.2 * baseline,
            "greedy objective {obj} vs baseline {baseline}"
        );
    }

    /// Lemma 4.2 at t = ∞ (the exact Gram path): X_f·Yᵀ = F', YᵀY = I,
    /// S_f = 0, S_b·Y = 0 — for both GreedyInit and SMGreedyInit; and where
    /// `k/2 < rank(F')`, Y spans the exact top right singular subspace and
    /// S_f is the Eckart–Young tail, with no power rounds at all.
    #[test]
    fn lemma_4_2_exact_svd() {
        let n = 30;
        let d = 6;
        let (f, b) = affinity_like(n, d, 6, 4);
        // half_dim = d leaves no room for a sketch: the Gram path.
        let opts = InitOptions {
            half_dim: d,
            power_iters: 0,
            oversample: 0,
            seed: 5,
        };
        for (name, st) in [
            ("greedy", greedy_init(&f, &b, &opts, 1)),
            ("split-merge", sm_greedy_init(&f, &b, &opts, 3)),
        ] {
            let recon = st.xf.matmul_transb(&st.y);
            assert!(recon.max_abs_diff(&f) < 1e-8, "{name}: XfYᵀ != F'");
            assert!(st.y.is_orthonormal(1e-8), "{name}: Y not orthonormal");
            let (sf, sb) = fresh_residuals(&f, &b, &st.xf, &st.xb, &st.y);
            assert!(sf.frob_norm() < 1e-8, "{name}: Sf != 0");
            let sby = sb.matmul(&st.y);
            assert!(
                sby.frob_norm() < 1e-7,
                "{name}: SbY != 0 ({})",
                sby.frob_norm()
            );
        }

        // A shape with room for a sketch (ℓ = 6 < d = 12) that the cost
        // model still sends to the Gram path. With no power rounds a sketch
        // would miss the subspace by far more than the tolerances below.
        let (n, d, k2) = (2000, 12, 4);
        let (f, b) = affinity_like(n, d, d, 14);
        let opts = InitOptions {
            half_dim: k2,
            power_iters: 0,
            oversample: 2,
            seed: 5,
        };
        let st = greedy_init(&f, &b, &opts, 2);
        let exact = pane_linalg::svd_exact(&f);
        let top = DenseMatrix::from_vec(
            d,
            k2,
            exact
                .v
                .data()
                .chunks_exact(d)
                .flat_map(|r| &r[..k2])
                .copied()
                .collect(),
        );
        let projector = |m: &DenseMatrix| m.matmul_transb(m);
        assert!(
            projector(&st.y).max_abs_diff(&projector(&top)) < 1e-9,
            "Y misses the top subspace"
        );
        assert!(st.y.is_orthonormal(1e-10));
        let (sf, sb) = fresh_residuals(&f, &b, &st.xf, &st.xb, &st.y);
        let tail: f64 = exact.s[k2..].iter().map(|x| x * x).sum();
        assert!((sf.frob_norm() - tail.sqrt()).abs() < 1e-9 * f.frob_norm());
        assert!(
            sf.matmul(&st.y).frob_norm() < 1e-8 * f.frob_norm(),
            "SfY != 0"
        );
        assert!(
            sb.matmul(&st.y).frob_norm() < 1e-8 * b.frob_norm(),
            "SbY != 0"
        );
    }

    #[test]
    fn split_merge_close_to_serial() {
        let (f, b) = affinity_like(80, 16, 6, 6);
        let opts = InitOptions {
            half_dim: 6,
            power_iters: 4,
            oversample: 6,
            seed: 11,
        };
        let serial = greedy_init(&f, &b, &opts, 1);
        let par = sm_greedy_init(&f, &b, &opts, 4);
        // Embeddings differ (basis rotation), but the *objective value*
        // should be comparable: split-merge loses little.
        let o_serial = objective(&serial);
        let o_par = objective(&par);
        let scale = f.frob_norm_sq() + b.frob_norm_sq();
        assert!(
            (o_par - o_serial) / scale < 0.05,
            "split-merge objective {o_par} much worse than serial {o_serial}"
        );
    }

    #[test]
    fn sm_residuals_consistent() {
        let (f, b) = affinity_like(50, 14, 5, 7);
        let opts = InitOptions {
            half_dim: 4,
            power_iters: 2,
            oversample: 4,
            seed: 1,
        };
        assert_objective_consistent(&sm_greedy_init(&f, &b, &opts, 3));
    }

    #[test]
    fn single_block_falls_back_to_serial() {
        let (f, b) = affinity_like(10, 5, 3, 8);
        let opts = InitOptions {
            half_dim: 3,
            power_iters: 2,
            oversample: 2,
            seed: 2,
        };
        let a = greedy_init(&f, &b, &opts, 1);
        let c = sm_greedy_init(&f, &b, &opts, 1);
        assert_eq!(a.xf, c.xf);
        assert_eq!(a.y, c.y);
    }

    #[test]
    fn greedy_init_is_bitwise_worker_invariant() {
        let (f, b) = affinity_like(70, 30, 6, 9);
        let opts = InitOptions {
            half_dim: 5,
            power_iters: 3,
            oversample: 4,
            seed: 13,
        };
        let one = greedy_init(&f, &b, &opts, 1);
        for nb in [2, 3, 7] {
            let par = greedy_init(&f, &b, &opts, nb);
            assert_eq!(one.xf, par.xf, "nb={nb}");
            assert_eq!(one.xb, par.xb, "nb={nb}");
            assert_eq!(one.y, par.y, "nb={nb}");
            assert_eq!(objective(&one).to_bits(), objective(&par).to_bits());
        }
    }
}
