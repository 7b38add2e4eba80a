//! PANE-R — the paper's own ablation (§5.7, Figures 7–8): PANE with
//! **random initialization** in place of GreedyInit.
//!
//! Everything else is identical to PANE: the same APMI affinity matrices
//! and the same CCD sweeps; only Line 1 of Algorithm 4 changes. The
//! experiments plot running time vs AUC at sweep counts
//! `t ∈ {1, 2, 5, 10, 20}` for both, showing GreedyInit converging much
//! faster at equal time.

use pane_core::{
    ccd_sweeps, papmi, ApmiInputs, InitState, PaneConfig, PaneEmbedding, PaneError, PaneTimings,
};
use pane_graph::AttributedGraph;
use pane_linalg::DenseMatrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// The PANE-R embedder: same config surface as PANE.
pub struct PaneR {
    config: PaneConfig,
}

impl PaneR {
    /// Creates the ablation embedder. The config is validated by
    /// [`embed`](Self::embed), which returns [`PaneError::BadConfig`].
    pub fn new(config: PaneConfig) -> Self {
        Self { config }
    }

    /// Runs APMI + random init + CCD; returns the same embedding type PANE
    /// does, so all scorers apply unchanged.
    pub fn embed(&self, graph: &AttributedGraph) -> Result<PaneEmbedding, PaneError> {
        if graph.num_nodes() == 0 {
            return Err(PaneError::EmptyGraph);
        }
        if graph.num_attributes() == 0 || graph.num_attribute_entries() == 0 {
            return Err(PaneError::NoAttributes);
        }
        self.config.validate()?;
        let cfg = &self.config;
        let nb = cfg.threads;
        let t = cfg.iterations();

        let t0 = Instant::now();
        let p = graph.random_walk_matrix(cfg.dangling);
        let pt = p.transpose();
        let rr = graph.attr_row_normalized();
        let rc = graph.attr_col_normalized();
        let aff = papmi(
            &ApmiInputs {
                p: &p,
                pt: &pt,
                rr: &rr,
                rc: &rc,
                alpha: cfg.alpha,
                t,
            },
            nb,
        );
        let affinity_secs = t0.elapsed().as_secs_f64();

        // Random init: Gaussian entries scaled so the initial products have
        // roughly the affinity matrices' magnitude (a fair, non-sabotaged
        // random start).
        let t1 = Instant::now();
        let n = graph.num_nodes();
        let d = graph.num_attributes();
        let k2 = cfg.half_dim();
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xBADC0FFE);
        let scale = (aff.forward.frob_norm_sq() / (n * d) as f64)
            .sqrt()
            .max(1e-12)
            / (k2 as f64).sqrt();
        let mut xf = DenseMatrix::gaussian(n, k2, &mut rng);
        let mut xb = DenseMatrix::gaussian(n, k2, &mut rng);
        let mut y = DenseMatrix::gaussian(d, k2, &mut rng);
        xf.scale_inplace(scale.sqrt());
        xb.scale_inplace(scale.sqrt());
        y.scale_inplace(scale.sqrt());
        let mut state = InitState::new(&aff.forward, &aff.backward, xf, xb, y, nb);
        let init_secs = t1.elapsed().as_secs_f64();

        let t2 = Instant::now();
        ccd_sweeps(&mut state, cfg.sweeps(), nb);
        let ccd_secs = t2.elapsed().as_secs_f64();

        let objective = pane_core::objective(&state);
        Ok(PaneEmbedding {
            forward: state.xf,
            backward: state.xb,
            attribute: state.y,
            timings: PaneTimings {
                affinity_secs,
                init_secs,
                ccd_secs,
            },
            objective,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pane_core::Pane;
    use pane_graph::gen::{generate_sbm, SbmConfig};

    fn graph() -> AttributedGraph {
        generate_sbm(&SbmConfig {
            nodes: 200,
            communities: 4,
            attributes: 20,
            attrs_per_node: 4.0,
            seed: 21,
            ..Default::default()
        })
    }

    fn cfg(sweeps: usize) -> PaneConfig {
        PaneConfig::builder()
            .dimension(16)
            .ccd_sweeps(sweeps)
            .seed(1)
            .build()
    }

    #[test]
    fn greedy_beats_random_at_equal_sweeps() {
        let g = graph();
        for sweeps in [1, 3] {
            let pane = Pane::new(cfg(sweeps)).embed(&g).unwrap();
            let pane_r = PaneR::new(cfg(sweeps)).embed(&g).unwrap();
            assert!(
                pane.objective < pane_r.objective,
                "sweeps={sweeps}: greedy {} should beat random {}",
                pane.objective,
                pane_r.objective
            );
        }
    }

    #[test]
    fn random_init_improves_with_sweeps() {
        let g = graph();
        let few = PaneR::new(cfg(1)).embed(&g).unwrap();
        let many = PaneR::new(cfg(12)).embed(&g).unwrap();
        assert!(
            many.objective < few.objective,
            "{} !< {}",
            many.objective,
            few.objective
        );
    }

    #[test]
    fn invalid_config_is_an_error_not_a_panic() {
        let bad = PaneConfig {
            dimension: 7,
            ..cfg(1)
        };
        assert!(matches!(
            PaneR::new(bad).embed(&graph()),
            Err(PaneError::BadConfig(_))
        ));
    }

    #[test]
    fn same_embedding_surface_as_pane() {
        let g = graph();
        let emb = PaneR::new(cfg(2)).embed(&g).unwrap();
        assert_eq!(emb.forward.shape(), (200, 8));
        assert!(emb.attribute_score(0, 0).is_finite());
        assert!(emb.link_score(0, 1).is_finite());
    }
}
