#![deny(missing_docs)]
//! The PANE algorithms — the paper's primary contribution.
//!
//! Pipeline (Algorithm 1 / Algorithm 5):
//!
//! ```text
//!   G ──► APMI / PAPMI ──► F', B' ──► (SM)GreedyInit ──► SVDCCD/PSVDCCD ──► X_f, X_b, Y
//!         (affinity approximation)     (SVD seeding)      (coordinate descent)
//! ```
//!
//! * [`apmi`](mod@apmi) — Algorithm 2: iterative approximation of the forward and
//!   backward affinity matrices with the Lemma 3.1 error guarantee, without
//!   sampling random walks;
//! * [`papmi`](mod@papmi) — Algorithm 6: the block-parallel version (Lemma 4.1: same
//!   output as [`apmi`](mod@apmi), verified bit-for-bit in tests);
//! * [`greedy_init`](mod@greedy_init) — Algorithms 3 and 7: SVD seeding of the embeddings
//!   (`X_f = UΣ, Y = V, X_b = B'·Y`) and its split–merge parallel variant;
//! * [`ccd`] — the cyclic-coordinate-descent sweeps of Algorithm 4
//!   (Equations 13–20) carried out in the Gram space, so the residuals
//!   `S_f = X_f·Yᵀ − F'`, `S_b = X_b·Yᵀ − B'` are never formed; one code
//!   path for every thread count;
//! * [`pane`] — the user-facing [`Pane`] / [`PaneConfig`] /
//!   [`PaneEmbedding`] API tying everything together.

// Indexed loops in the numeric kernels are deliberate (they keep the
// zip-free auto-vectorizable shape the perf guide recommends).
#![allow(clippy::needless_range_loop)]
pub mod apmi;
pub mod ccd;
#[cfg(test)]
mod ccd_oracle;
pub mod config;
pub mod greedy_init;
pub mod incremental;
pub mod pane;
pub mod papmi;
pub mod persist;
#[cfg(test)]
mod proptests;
pub mod query;

pub use apmi::{apmi, AffinityPair, ApmiInputs};
pub use ccd::{ccd_sweeps, objective};
pub use config::{InitStrategy, PaneConfig, PaneConfigBuilder, PaneError};
pub use greedy_init::{greedy_init, sm_greedy_init, InitOptions, InitState};
pub use incremental::{grow_embedding, reembed_warm};
pub use pane::{Pane, PaneEmbedding, PaneTimings};
pub use papmi::papmi;
pub use persist::{load_columns, load_text, save_columns, save_text, PersistError};
pub use query::{
    build_bases, check_bases, top_k_filter, EmbeddingQuery, QueryBackend, QuerySpace, Scored,
};

/// Number of APMI/CCD iterations implied by an error threshold:
/// `t = ⌈log(ε)/log(1−α)⌉ − 1`, clamped to at least 1 (Algorithm 1, line 1).
pub fn iterations_for(epsilon: f64, alpha: f64) -> usize {
    assert!(
        epsilon > 0.0 && epsilon < 1.0,
        "epsilon must be in (0,1), got {epsilon}"
    );
    assert!(
        alpha > 0.0 && alpha < 1.0,
        "alpha must be in (0,1), got {alpha}"
    );
    let t = (epsilon.ln() / (1.0 - alpha).ln()).ceil() - 1.0;
    (t.max(1.0)) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iteration_count_matches_paper_example() {
        // §5.6: with alpha = 0.5, eps from 0.001 to 0.25 corresponds to
        // t from 9 down to 1.
        assert_eq!(iterations_for(0.001, 0.5), 9);
        assert_eq!(iterations_for(0.25, 0.5), 1);
        // Default setting eps = 0.015, alpha = 0.5.
        let t = iterations_for(0.015, 0.5);
        assert!((5..=6).contains(&t), "t = {t}");
    }

    #[test]
    fn truncation_error_bound_holds() {
        // (1 - alpha)^{t+1} <= eps (Eq. 8 in the Lemma 3.1 proof).
        for &alpha in &[0.15, 0.5, 0.7] {
            for &eps in &[0.001, 0.015, 0.25] {
                let t = iterations_for(eps, alpha);
                let tail = (1.0 - alpha).powi(t as i32 + 1);
                assert!(
                    tail <= eps * (1.0 + 1e-9),
                    "alpha={alpha} eps={eps}: tail {tail}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn bad_epsilon_rejected() {
        iterations_for(1.5, 0.5);
    }
}
