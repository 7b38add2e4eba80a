//! Randomized truncated SVD ("RandSVD" in the paper).
//!
//! GreedyInit (Algorithm 3) seeds the CCD solver with
//! `U, Σ, V ← RandSVD(F', k/2, t)`. The cited method \[30\] is Musco & Musco's
//! randomized block Krylov / power iteration; we implement the
//! power-iteration variant, which is the one used by practical systems:
//!
//! 1. sketch `Y = A·Ω` with Gaussian `Ω ∈ R^{d×ℓ}`, `ℓ = rank + oversample`;
//! 2. orthonormalize; run `q` power rounds `Y ← A·qr(Aᵀ·Q).Q` to sharpen the
//!    spectrum (every round re-orthonormalizes for stability);
//! 3. project `B = Qᵀ·A` (`ℓ × d`) and take its exact (Jacobi) SVD;
//! 4. lift: `U = Q·U_B`, truncate everything to `rank`.
//!
//! The returned `V` has orthonormal columns — the property Lemma 4.2 relies
//! on (`YᵀY = I`) — and `U·diag(s)·Vᵀ` is a near-best rank-`rank`
//! approximation of `A` with the usual `(1+ε)`-type guarantees.

use crate::dense::DenseMatrix;
use crate::jacobi::jacobi_svd;
use crate::qr::thin_qr;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Truncated SVD `A ≈ U · diag(s) · Vᵀ`.
#[derive(Clone)]
pub struct Svd {
    /// `n × r`.
    pub u: DenseMatrix,
    /// Length `r`, descending.
    pub s: Vec<f64>,
    /// `d × r`, orthonormal columns.
    pub v: DenseMatrix,
}

impl Svd {
    /// `U · diag(s)` — the "node side" factor used for `X_f` in GreedyInit.
    pub fn u_sigma(&self) -> DenseMatrix {
        let mut us = self.u.clone();
        for i in 0..us.rows() {
            let row = us.row_mut(i);
            for (j, &sv) in self.s.iter().enumerate() {
                row[j] *= sv;
            }
        }
        us
    }

    /// Reconstruction `U · diag(s) · Vᵀ`.
    pub fn reconstruct(&self) -> DenseMatrix {
        self.u_sigma().matmul_transb(&self.v)
    }
}

/// Configuration for [`rand_svd`].
#[derive(Debug, Clone, Copy)]
pub struct RandSvdConfig {
    /// Target rank `r` (the paper uses `k/2`).
    pub rank: usize,
    /// Number of power iterations (the paper passes its global `t` here).
    pub power_iters: usize,
    /// Column oversampling added to the sketch width.
    pub oversample: usize,
    /// RNG seed for the Gaussian test matrix.
    pub seed: u64,
}

impl RandSvdConfig {
    /// Defaults matching the paper's usage: oversampling 8.
    pub fn new(rank: usize, power_iters: usize, seed: u64) -> Self {
        Self {
            rank,
            power_iters,
            oversample: 8,
            seed,
        }
    }
}

/// Randomized truncated SVD of `a` (`n × d`): [`rand_svd_par`] with one
/// worker.
///
/// # Panics
/// Panics if `rank == 0`.
pub fn rand_svd(a: &DenseMatrix, cfg: &RandSvdConfig) -> Svd {
    rand_svd_par(a, cfg, 1)
}

/// Randomized truncated SVD of `a` (`n × d`) with the `n·d·ℓ` products run
/// by `nb` workers. The products are thread-count-invariant (see
/// [`crate::dense`]) and everything else is serial, so the result has the
/// same bits for every `nb`.
///
/// # Panics
/// Panics if `rank == 0`.
pub fn rand_svd_par(a: &DenseMatrix, cfg: &RandSvdConfig, nb: usize) -> Svd {
    assert!(cfg.rank > 0, "rand_svd: rank must be positive");
    let n = a.rows();
    let d = a.cols();
    let min_dim = n.min(d);
    if min_dim == 0 {
        return Svd {
            u: DenseMatrix::zeros(n, cfg.rank),
            s: vec![0.0; cfg.rank],
            v: DenseMatrix::zeros(d, cfg.rank),
        };
    }
    // If the matrix is already small, fall back to the exact SVD: cheaper
    // and exact (this also makes t = ∞ semantics of Lemma 4.2 testable).
    let sketch = (cfg.rank + cfg.oversample).min(min_dim);
    if min_dim <= sketch || min_dim <= cfg.rank {
        return truncate(svd_exact(a), cfg.rank, n, d);
    }

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let omega = DenseMatrix::gaussian(d, sketch, &mut rng);
    let mut q = thin_qr(&a.matmul_par(&omega, nb)).q; // n × ℓ
    for _ in 0..cfg.power_iters {
        let z = thin_qr(&a.tr_matmul_par(&q, nb)).q; // d × ℓ
        q = thin_qr(&a.matmul_par(&z, nb)).q;
    }
    let b = q.tr_matmul_par(a, nb); // ℓ × d
    let small = jacobi_svd(&b);
    let u = q.matmul_par(&small.u, nb); // n × ℓ
    truncate(
        Svd {
            u,
            s: small.s,
            v: small.v,
        },
        cfg.rank,
        n,
        d,
    )
}

/// Exact SVD via one-sided Jacobi (use only for small or thin matrices).
pub fn svd_exact(a: &DenseMatrix) -> Svd {
    let j = jacobi_svd(a);
    Svd {
        u: j.u,
        s: j.s,
        v: j.v,
    }
}

/// Truncates (or zero-pads) an SVD to exactly `rank` components.
fn truncate(svd: Svd, rank: usize, n: usize, d: usize) -> Svd {
    let have = svd.s.len();
    if have == rank {
        return svd;
    }
    let keep = have.min(rank);
    let mut u = DenseMatrix::zeros(n, rank);
    let mut v = DenseMatrix::zeros(d, rank);
    let mut s = vec![0.0; rank];
    for j in 0..keep {
        s[j] = svd.s[j];
        for i in 0..n {
            u.set(i, j, svd.u.get(i, j));
        }
        for i in 0..d {
            v.set(i, j, svd.v.get(i, j));
        }
    }
    Svd { u, s, v }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::Rng;

    /// Builds a matrix with a controlled, fast-decaying spectrum.
    fn low_rank_plus_noise(n: usize, d: usize, rank: usize, noise: f64, seed: u64) -> DenseMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let u = DenseMatrix::gaussian(n, rank, &mut rng);
        let v = DenseMatrix::gaussian(d, rank, &mut rng);
        let mut a = u.matmul_transb(&v);
        for x in a.data_mut().iter_mut() {
            *x += noise * (rng.gen::<f64>() - 0.5);
        }
        a
    }

    #[test]
    fn recovers_low_rank_matrix() {
        let a = low_rank_plus_noise(60, 25, 4, 0.0, 31);
        let svd = rand_svd(&a, &RandSvdConfig::new(4, 3, 7));
        let err = svd.reconstruct().max_abs_diff(&a);
        assert!(err < 1e-8, "reconstruction error {err}");
        assert!(svd.v.is_orthonormal(1e-9));
    }

    #[test]
    fn near_best_rank_k_error() {
        let a = low_rank_plus_noise(50, 30, 8, 0.3, 32);
        let exact = svd_exact(&a);
        let k = 5;
        // Best possible rank-k Frobenius error: sqrt(sum of tail sigma^2).
        let best: f64 = exact.s[k..].iter().map(|x| x * x).sum::<f64>().sqrt();
        let approx = rand_svd(&a, &RandSvdConfig::new(k, 4, 77));
        let err = approx.reconstruct().sub(&a).frob_norm();
        assert!(err <= 1.1 * best + 1e-9, "err {err} vs best {best}");
    }

    #[test]
    fn more_power_iters_does_not_hurt() {
        let a = low_rank_plus_noise(40, 40, 6, 0.5, 33);
        let e1 = rand_svd(&a, &RandSvdConfig::new(4, 0, 5))
            .reconstruct()
            .sub(&a)
            .frob_norm();
        let e2 = rand_svd(&a, &RandSvdConfig::new(4, 6, 5))
            .reconstruct()
            .sub(&a)
            .frob_norm();
        assert!(
            e2 <= e1 + 1e-9,
            "power iterations increased error: {e1} -> {e2}"
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = low_rank_plus_noise(30, 20, 3, 0.1, 34);
        let s1 = rand_svd(&a, &RandSvdConfig::new(3, 2, 9));
        let s2 = rand_svd(&a, &RandSvdConfig::new(3, 2, 9));
        assert_eq!(s1.u, s2.u);
        assert_eq!(s1.v, s2.v);
    }

    #[test]
    fn worker_count_does_not_change_a_bit() {
        let a = low_rank_plus_noise(45, 33, 5, 0.2, 36);
        let cfg = RandSvdConfig::new(4, 3, 11);
        let one = rand_svd(&a, &cfg);
        for nb in [2, 3, 7] {
            let par = rand_svd_par(&a, &cfg, nb);
            assert_eq!(one.u, par.u, "nb={nb}");
            assert_eq!(one.s, par.s, "nb={nb}");
            assert_eq!(one.v, par.v, "nb={nb}");
        }
    }

    #[test]
    fn rank_larger_than_dims_pads() {
        let a = low_rank_plus_noise(6, 4, 2, 0.0, 35);
        let svd = rand_svd(&a, &RandSvdConfig::new(10, 2, 1));
        assert_eq!(svd.u.shape(), (6, 10));
        assert_eq!(svd.v.shape(), (4, 10));
        assert_eq!(svd.s.len(), 10);
        assert!(svd.reconstruct().max_abs_diff(&a) < 1e-9);
    }

    #[test]
    fn empty_matrix_ok() {
        let a = DenseMatrix::zeros(0, 5);
        let svd = rand_svd(&a, &RandSvdConfig::new(3, 1, 0));
        assert_eq!(svd.u.shape(), (0, 3));
        assert_eq!(svd.v.shape(), (5, 3));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn prop_v_orthonormal_and_error_bounded(
            seed in 0u64..10_000,
            n in 10usize..40,
            d in 10usize..40,
            rank in 2usize..6,
        ) {
            let a = low_rank_plus_noise(n, d, rank + 2, 0.2, seed);
            let svd = rand_svd(&a, &RandSvdConfig::new(rank, 3, seed ^ 0xAB));
            prop_assert!(svd.v.is_orthonormal(1e-8));
            let exact = svd_exact(&a);
            let best: f64 = exact.s[rank.min(exact.s.len())..].iter().map(|x| x * x).sum::<f64>().sqrt();
            let err = svd.reconstruct().sub(&a).frob_norm();
            // Power iterations make this essentially tight; allow slack.
            prop_assert!(err <= 1.25 * best + 1e-6, "err {} vs best {}", err, best);
        }
    }
}
