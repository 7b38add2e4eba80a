//! Truncated SVD for GreedyInit (`U, Σ, V ← RandSVD(F', k/2, t)`,
//! Algorithm 3), on one of two paths picked by a cost model in `(n, d, ℓ, t)`:
//!
//! * **Gram**, the exact truncated SVD (the `t = ∞` case of Lemma 4.2): for
//!   a tall `A`, a Jacobi SVD of `C = AᵀA` gives `V` by descending
//!   eigenvalue, and column `j` of `A·V[:, :rank]` is `σ_j·u_j` (its norm is
//!   `σ_j` to `ε·σ₁`, where `√λ_j` is only good to `√ε·σ₁`); a wide `A` is
//!   the `n×n` mirror. Its `n`-sized work is two products.
//! * **Sketch**, the power-iteration variant of Musco & Musco \[30\]:
//!   `Y = A·Ω` with Gaussian `Ω ∈ R^{d×ℓ}`, `ℓ = rank + oversample`; `t`
//!   rounds `Y ← A·qr(Aᵀ·qr(Y).Q).Q`; the Jacobi SVD of `B = Qᵀ·A`, lifted
//!   by `U = Q·U_B`. Its `2t + 1` MGS2 `thin_qr`s are serial.
//!
//! A `d×d` Jacobi is serial and cubic, so a wide attribute side (`d` in the
//! hundreds) stays on the sketch. Either way `V` has orthonormal columns —
//! the property Lemma 4.2 relies on (`YᵀY = I`) — and `U·diag(s)·Vᵀ` is
//! the best (Gram) or a near-best (sketch) rank-`rank` approximation.

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
        us.scale_cols_inplace(&self.s);
        us
    }

    /// Reconstruction `U · diag(s) · Vᵀ`.
    pub fn reconstruct(&self) -> DenseMatrix {
        self.u_sigma().matmul_transb(&self.v)
    }
}

/// Configuration for [`rand_svd`]. The exact Gram path reads only `rank`.
#[derive(Debug, Clone, Copy)]
pub struct RandSvdConfig {
    /// Target rank `r` (the paper uses `k/2`).
    pub rank: usize,
    /// Power iterations (the paper's `t`); inert on the Gram path.
    pub power_iters: usize,
    /// Column oversampling of the sketch; inert on the Gram path.
    pub oversample: usize,
    /// RNG seed for the Gaussian test matrix; inert on the Gram path.
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

/// Truncated SVD of `a` (`n × d`) on the path the module docs describe, its
/// `n`-sized products run by `nb` workers. The path depends on the shape
/// and `cfg` only and the products are thread-count-invariant (see
/// [`crate::dense`]), so the result has the same bits for every `nb`.
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
    let sketch = (cfg.rank + cfg.oversample).min(min_dim);
    if min_dim <= sketch || gram_is_cheaper(n, d, sketch, cfg.power_iters) {
        return truncate(gram_svd(a, cfg.rank, nb), cfg.rank, n, d);
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

// Nanoseconds per unit on a 2-vCPU host, baseline build (ARCHITECTURE.md,
// "The embed pipeline", has the anchors): a multiply–add of a two-worker
// `AᵀA` / `ℓ`-wide product, a `rows·ℓ²` of a serial `thin_qr`, an `m³` of
// a serial `m×m` Jacobi.
const GRAM_NS: f64 = 0.12;
const PRODUCT_NS: f64 = 0.15;
const QR_NS: f64 = 0.85;
const JACOBI_NS: f64 = 6.8;

/// Whether the Gram path is cheaper for an `n × d` input, a sketch `ℓ`
/// wide and `t` power rounds; free of the worker count, so that it cannot
/// change the bits. At `n` = 12 000, `ℓ` = 40, `t` = 6 it flips at `d` ≈ 345.
fn gram_is_cheaper(n: usize, d: usize, l: usize, t: usize) -> bool {
    let (n, d, l, t) = (n as f64, d as f64, l as f64, t as f64);
    let (long, short) = (n.max(d), n.min(d));
    let gram = (GRAM_NS * short + PRODUCT_NS * l) * long * short + JACOBI_NS * short.powi(3);
    gram < PRODUCT_NS * (2.0 * t + 2.0) * n * d * l
        + QR_NS * ((t + 1.0) * n + t * d) * l * l
        + JACOBI_NS * d * l * l
}

/// The exact SVD through the Gram matrix of the short side, `rank` columns
/// (fewer when the short side is shorter; [`truncate`] pads).
fn gram_svd(a: &DenseMatrix, rank: usize, nb: usize) -> Svd {
    if a.rows() < a.cols() {
        // A = U Σ Vᵀ  ⇔  Aᵀ = V Σ Uᵀ
        let Svd { u, s, v } = gram_svd(&a.transpose(), rank, nb);
        return Svd { u: v, s, v: u };
    }
    let (d, keep) = (a.cols(), rank.min(a.cols()));
    // The eigenvectors of AᵀA with the `keep` largest eigenvalues.
    let v = truncate(svd_exact(&a.tr_matmul_par(a, nb)), keep, d, d).v;
    let mut u = a.matmul_par(&v, nb); // columns σ_j·u_j
    let s: Vec<f64> = u.col_norms_sq().iter().map(|x| x.sqrt()).collect();
    for row in u.data_mut().chunks_exact_mut(keep) {
        for (x, &sj) in row.iter_mut().zip(&s) {
            *x = if sj > 0.0 { *x / sj } else { 0.0 };
        }
    }
    Svd { u, s, v }
}

/// Exact SVD via one-sided Jacobi on `a` itself (small matrices; tests).
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

    /// The shapes of the four benchmark workloads at `k/2 = 32`, `ℓ = 40`,
    /// `t = 6`: the three with `d ≤ 96` take the Gram path, `embed-wide`
    /// (2 000 × 1 000, where a `d×d` Jacobi alone would cost seconds) keeps
    /// the sketch. The two graphs of CI's embed-determinism smoke (`--dim
    /// 32`, so `ℓ = 24`) fall one on each side.
    #[test]
    fn cost_model_picks_gram_only_where_d_is_small() {
        for (n, d, l) in [
            (12_000, 64, 40),
            (12_000, 96, 40),
            (5_000, 64, 40),
            (2_000, 67, 24),
        ] {
            assert!(
                gram_is_cheaper(n, d, l, 6),
                "{n}x{d} should take the Gram path"
            );
        }
        for (n, d, l) in [(2_000, 1_000, 40), (495, 465, 24)] {
            assert!(!gram_is_cheaper(n, d, l, 6), "{n}x{d} must keep the sketch");
        }
    }

    /// The Gram path against one-sided Jacobi on `A` itself: singular values
    /// to `1e-10·σ₁`, the reconstruction error equal to the Eckart–Young
    /// tail, `V` (and the live columns of `U`) orthonormal, the same bits
    /// for every worker count — on a tall, a rank-deficient, a padded
    /// (`d < rank`) and two wide inputs.
    #[test]
    fn gram_path_is_the_exact_truncated_svd() {
        for (name, n, d, true_rank, rank, over) in [
            ("tall", 2000, 30, 30, 4, 4),
            ("rank-deficient", 80, 10, 3, 5, 2),
            ("d < rank", 50, 4, 4, 6, 8),
            ("wide", 8, 40, 8, 5, 8),
            ("wide, rank-deficient", 12, 60, 2, 4, 8),
        ] {
            let a = low_rank_plus_noise(n, d, true_rank, 0.0, 41);
            let cfg = RandSvdConfig {
                rank,
                power_iters: 2,
                oversample: over,
                seed: 3,
            };
            let min_dim = n.min(d);
            let sketch = (rank + over).min(min_dim);
            assert!(
                min_dim <= sketch || gram_is_cheaper(n, d, sketch, cfg.power_iters),
                "{name}: expected the Gram path"
            );
            let got = rand_svd(&a, &cfg);
            let exact = svd_exact(&a);
            let s1 = exact.s[0];
            for (j, &s) in got.s.iter().enumerate() {
                let want = exact.s.get(j).copied().unwrap_or(0.0);
                assert!(
                    (s - want).abs() <= 1e-10 * s1,
                    "{name}: σ_{j} {s} vs {want}"
                );
            }
            let tail: f64 = exact.s[rank.min(min_dim)..].iter().map(|x| x * x).sum();
            let err = got.reconstruct().sub(&a).frob_norm();
            assert!(
                (err - tail.sqrt()).abs() <= 1e-9 * a.frob_norm(),
                "{name}: error {err} vs Eckart–Young {}",
                tail.sqrt()
            );
            // The eigenvector side is orthonormal; the lifted side (`A·v/σ`)
            // is where σ is above rounding level.
            let live = truncate(got.clone(), rank.min(min_dim), n, d);
            let nonzero = got.s.iter().filter(|&&s| s > 1e-6 * s1).count();
            let above = truncate(got.clone(), nonzero, n, d);
            let (eig, lifted) = if n >= d {
                (&live.v, &above.u)
            } else {
                (&live.u, &above.v)
            };
            assert!(eig.is_orthonormal(1e-9), "{name}: eigenvectors");
            assert!(lifted.is_orthonormal(1e-9), "{name}: lifted");
            assert!(
                got.s[live.s.len()..].iter().all(|&s| s == 0.0),
                "{name}: padding"
            );
            for nb in [2, 3, 7] {
                let par = rand_svd_par(&a, &cfg, nb);
                assert_eq!(
                    (&got.u, &got.s, &got.v),
                    (&par.u, &par.s, &par.v),
                    "{name}: nb={nb}"
                );
            }
        }
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
