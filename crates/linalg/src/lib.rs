#![warn(missing_docs)]
//! Dense linear algebra substrate for the PANE reproduction.
//!
//! The PANE solver (Algorithms 3, 4, 7) needs a small but carefully chosen
//! set of dense kernels:
//!
//! * a row-major [`DenseMatrix`] with two row-panel products
//!   ([`DenseMatrix::matmul_par`], [`DenseMatrix::tr_matmul_par`]) whose
//!   bits depend on neither thread count nor panel height;
//! * thin QR factorization ([`qr::thin_qr`]) via modified Gram–Schmidt with
//!   re-orthogonalization;
//! * an exact SVD for small/tall matrices via one-sided Jacobi rotations
//!   ([`jacobi::jacobi_svd`]);
//! * the randomized SVD of Musco & Musco (power-iteration variant) used by
//!   GreedyInit ([`randsvd::rand_svd`], "RandSVD" in the paper).
//!
//! Everything is `f64`; the matrices involved are `n × d` affinity matrices
//! and `n × k/2` factor matrices, never `n × n` (avoiding the quadratic
//! proximity matrix is the whole point of the paper).

// Indexed loops in the numeric kernels are deliberate (they keep the
// zip-free auto-vectorizable shape the perf guide recommends).
#![allow(clippy::needless_range_loop)]
pub mod dense;
pub mod jacobi;
pub mod kernels;
pub mod qr;
pub mod randsvd;
pub mod rng;
pub mod solve;
pub mod vecops;

pub use dense::DenseMatrix;
pub use jacobi::jacobi_svd;
pub use qr::thin_qr;
pub use randsvd::{rand_svd, rand_svd_par, svd_exact, RandSvdConfig, Svd};
pub use rng::NormalSampler;
pub use solve::{lstsq, pinv};
