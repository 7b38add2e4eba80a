//! The user-facing PANE pipeline (Algorithm 1 single-threaded, Algorithm 5
//! parallel — selected by `config.threads`).

use crate::apmi::AffinityPair;
use crate::ccd::ccd_sweeps;
use crate::config::{InitStrategy, PaneConfig, PaneError};
use crate::greedy_init::{greedy_init, sm_greedy_init, InitOptions, InitState};
use crate::papmi::graph_affinity;
use pane_graph::AttributedGraph;
use pane_linalg::DenseMatrix;
use std::time::Instant;

/// Wall-clock timings of the three pipeline stages.
#[derive(Debug, Clone, Copy, Default)]
pub struct PaneTimings {
    /// Affinity approximation (APMI/PAPMI).
    pub affinity_secs: f64,
    /// Embedding initialization ((SM)GreedyInit).
    pub init_secs: f64,
    /// CCD refinement sweeps.
    pub ccd_secs: f64,
}

impl PaneTimings {
    /// Total pipeline time.
    pub fn total_secs(&self) -> f64 {
        self.affinity_secs + self.init_secs + self.ccd_secs
    }
}

/// The embeddings PANE produces.
#[derive(Debug, Clone)]
pub struct PaneEmbedding {
    /// Forward node embeddings `X_f ∈ R^{n×k/2}`.
    pub forward: DenseMatrix,
    /// Backward node embeddings `X_b ∈ R^{n×k/2}`.
    pub backward: DenseMatrix,
    /// Attribute embeddings `Y ∈ R^{d×k/2}`.
    pub attribute: DenseMatrix,
    /// Stage timings of the run that produced these embeddings.
    pub timings: PaneTimings,
    /// Final objective value `‖S_f‖² + ‖S_b‖²`.
    pub objective: f64,
}

impl PaneEmbedding {
    /// The embedding CCD left in `state`, with the timings of its run.
    pub fn from_state(state: InitState<'_>, timings: PaneTimings) -> Self {
        Self {
            objective: state.objective,
            forward: state.xf,
            backward: state.xb,
            attribute: state.y,
            timings,
        }
    }

    /// Node–attribute affinity score (Eq. 21):
    /// `p(v, r) = X_f[v]·Y[r]ᵀ + X_b[v]·Y[r]ᵀ ≈ F[v,r] + B[v,r]`.
    pub fn attribute_score(&self, v: usize, r: usize) -> f64 {
        let y = self.attribute.row(r);
        pane_linalg::vecops::dot(self.forward.row(v), y)
            + pane_linalg::vecops::dot(self.backward.row(v), y)
    }

    /// The Gram matrix `G = YᵀY ∈ R^{k/2×k/2}` used to evaluate link scores
    /// in `O(k²)` rather than `O(dk)` per pair (see [`Self::link_score_with`]).
    pub fn link_gram(&self) -> DenseMatrix {
        self.attribute.tr_matmul(&self.attribute)
    }

    /// Edge-direction-aware link score (Eq. 22):
    /// `p(v_i → v_j) = Σ_r (X_f[v_i]·Y[r]ᵀ)(X_b[v_j]·Y[r]ᵀ)
    ///               = X_f[v_i] · (YᵀY) · X_b[v_j]ᵀ`.
    ///
    /// Pass the precomputed [`Self::link_gram`].
    pub fn link_score_with(&self, gram: &DenseMatrix, src: usize, dst: usize) -> f64 {
        let xf = self.forward.row(src);
        let xb = self.backward.row(dst);
        let k2 = xf.len();
        let mut acc = 0.0;
        for a in 0..k2 {
            let xfa = xf[a];
            if xfa == 0.0 {
                continue;
            }
            acc += xfa * pane_linalg::vecops::dot(gram.row(a), xb);
        }
        acc
    }

    /// Convenience single-pair link score (recomputes the Gram matrix; use
    /// [`Self::link_score_with`] in loops).
    pub fn link_score(&self, src: usize, dst: usize) -> f64 {
        self.link_score_with(&self.link_gram(), src, dst)
    }

    /// The per-query link vector `q = X_f[src]·YᵀY`, so the Eq. 22 score
    /// factorizes as `p(src → dst) = q · X_b[dst]` — the form a
    /// max-inner-product index serves directly. Pass the precomputed
    /// [`Self::link_gram`]; the serving layers (`EmbeddingQuery`,
    /// `pane-serve`) all call this one kernel so their scores cannot
    /// drift apart.
    pub fn link_query_vector_with(&self, gram: &DenseMatrix, src: usize) -> Vec<f64> {
        let k2 = self.forward.cols();
        let mut q = vec![0.0; k2];
        let xf = self.forward.row(src);
        for (a, &xfa) in xf.iter().enumerate() {
            if xfa != 0.0 {
                pane_linalg::vecops::axpy(xfa, gram.row(a), &mut q);
            }
        }
        q
    }

    /// The full `n × k` matrix of [`Self::classifier_features`] rows — the
    /// representation ANN indexes are built over.
    pub fn classifier_feature_matrix(&self) -> DenseMatrix {
        let n = self.forward.rows();
        let k = self.forward.cols() + self.backward.cols();
        let mut m = DenseMatrix::zeros(n, k);
        for v in 0..n {
            m.row_mut(v).copy_from_slice(&self.classifier_features(v));
        }
        m
    }

    /// Per-node feature vector for classifiers: `[X_f[v]‖X_b[v]]`, each half
    /// L2-normalized (the paper's §5.4 preprocessing).
    pub fn classifier_features(&self, v: usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.forward.cols() + self.backward.cols());
        for half in [self.forward.row(v), self.backward.row(v)] {
            let norm = pane_linalg::vecops::norm2(half);
            if norm > 0.0 {
                out.extend(half.iter().map(|x| x / norm));
            } else {
                out.extend_from_slice(half);
            }
        }
        out
    }
}

/// The PANE embedder. Construct with a [`PaneConfig`], call
/// [`embed`](Self::embed).
#[derive(Debug, Clone)]
pub struct Pane {
    config: PaneConfig,
}

impl Pane {
    /// Creates an embedder. The config is validated by
    /// [`embed`](Self::embed), which returns [`PaneError::BadConfig`].
    pub fn new(config: PaneConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &PaneConfig {
        &self.config
    }

    /// Runs the full pipeline on `graph`.
    pub fn embed(&self, graph: &AttributedGraph) -> Result<PaneEmbedding, PaneError> {
        let (emb, _aff) = self.embed_with_affinity(graph)?;
        Ok(emb)
    }

    /// Like [`embed`](Self::embed) but also returns the affinity matrices —
    /// used by ablations and by tests that need `F'`/`B'`.
    pub fn embed_with_affinity(
        &self,
        graph: &AttributedGraph,
    ) -> Result<(PaneEmbedding, AffinityPair), PaneError> {
        let cfg = &self.config;
        let nb = cfg.threads;

        // Stage 1: affinity approximation (Algorithm 2 or 6).
        let t0 = Instant::now();
        let aff = graph_affinity(graph, cfg)?;
        let affinity_secs = t0.elapsed().as_secs_f64();

        // Stage 2: initialization (Algorithm 3 or 7).
        let t1 = Instant::now();
        let opts = InitOptions {
            half_dim: cfg.half_dim(),
            power_iters: cfg.power_iters(),
            oversample: cfg.svd_oversample,
            seed: cfg.seed,
        };
        let mut state = match cfg.init {
            InitStrategy::SplitMerge if nb > 1 => {
                sm_greedy_init(&aff.forward, &aff.backward, &opts, nb)
            }
            _ => greedy_init(&aff.forward, &aff.backward, &opts, nb),
        };
        let init_secs = t1.elapsed().as_secs_f64();

        // Stage 3: CCD refinement (Algorithm 4 or 8).
        let t2 = Instant::now();
        ccd_sweeps(&mut state, cfg.sweeps(), nb);
        let ccd_secs = t2.elapsed().as_secs_f64();

        let timings = PaneTimings {
            affinity_secs,
            init_secs,
            ccd_secs,
        };
        Ok((PaneEmbedding::from_state(state, timings), aff))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pane_graph::gen::{generate_sbm, SbmConfig};
    use pane_graph::toy;

    fn small_sbm(seed: u64) -> AttributedGraph {
        generate_sbm(&SbmConfig {
            nodes: 200,
            communities: 4,
            avg_out_degree: 6.0,
            attributes: 24,
            attrs_per_node: 4.0,
            attr_noise: 0.1,
            seed,
            ..Default::default()
        })
    }

    fn cfg(k: usize) -> PaneConfig {
        PaneConfig::builder()
            .dimension(k)
            .alpha(0.5)
            .error_threshold(0.015)
            .seed(3)
            .build()
    }

    #[test]
    fn embeds_toy_graph() {
        let g = toy::figure1_graph();
        let emb = Pane::new(cfg(4)).embed(&g).unwrap();
        assert_eq!(emb.forward.shape(), (6, 2));
        assert_eq!(emb.backward.shape(), (6, 2));
        assert_eq!(emb.attribute.shape(), (3, 2));
        assert!(emb.objective.is_finite());
        assert!(emb.timings.total_secs() >= 0.0);
    }

    #[test]
    fn dot_products_approximate_affinity() {
        let g = small_sbm(1);
        let pane = Pane::new(cfg(32));
        let (emb, aff) = pane.embed_with_affinity(&g).unwrap();
        // Relative objective should be small: embeddings capture affinity.
        let scale = aff.forward.frob_norm_sq() + aff.backward.frob_norm_sq();
        assert!(
            emb.objective < 0.25 * scale,
            "objective {} vs affinity energy {scale}",
            emb.objective
        );
        // Spot-check Eq. 21 consistency with the raw matrices.
        let mut better = 0;
        let mut trials = 0;
        for v in (0..g.num_nodes()).step_by(17) {
            for r in 0..g.num_attributes() {
                let truth = aff.forward.get(v, r) + aff.backward.get(v, r);
                let score = emb.attribute_score(v, r);
                trials += 1;
                if (truth - score).abs() < 0.5 * truth.abs().max(0.5) {
                    better += 1;
                }
            }
        }
        assert!(
            better as f64 > 0.7 * trials as f64,
            "{better}/{trials} scores close to affinity"
        );
    }

    #[test]
    fn parallel_matches_serial_closely() {
        let g = small_sbm(2);
        let serial = Pane::new(cfg(16)).embed(&g).unwrap();
        let mut pc = cfg(16);
        pc.threads = 4;
        pc.init = InitStrategy::SplitMerge;
        let par = Pane::new(pc).embed(&g).unwrap();
        // Split-merge init ⇒ different embeddings, but the objective must
        // be comparable (§5: "degradation ... is small"). The default
        // Greedy init is exactly thread-invariant; that stronger claim is
        // covered by tests/persistence_and_determinism.rs.
        let rel = (par.objective - serial.objective).abs() / serial.objective.max(1e-9);
        assert!(
            rel < 0.25,
            "parallel objective {} vs serial {}",
            par.objective,
            serial.objective
        );
    }

    #[test]
    fn link_scores_respect_direction() {
        let g = small_sbm(3);
        let emb = Pane::new(cfg(32)).embed(&g).unwrap();
        let gram = emb.link_gram();
        // Average score over existing edges must exceed average over random
        // non-edges.
        let mut rng_state = 123456789u64;
        let mut rand = || {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (rng_state >> 33) as usize
        };
        let mut pos = 0.0;
        let mut npos = 0;
        for (i, j, _) in g.adjacency().iter() {
            pos += emb.link_score_with(&gram, i, j);
            npos += 1;
        }
        let mut neg = 0.0;
        let mut nneg = 0;
        while nneg < npos {
            let i = rand() % g.num_nodes();
            let j = rand() % g.num_nodes();
            if i != j && g.adjacency().get(i, j) == 0.0 {
                neg += emb.link_score_with(&gram, i, j);
                nneg += 1;
            }
        }
        assert!(
            pos / npos as f64 > neg / nneg as f64,
            "edges should score higher: pos {} vs neg {}",
            pos / npos as f64,
            neg / nneg as f64
        );
    }

    #[test]
    fn classifier_features_are_normalized() {
        let g = small_sbm(4);
        let emb = Pane::new(cfg(16)).embed(&g).unwrap();
        let feats = emb.classifier_features(0);
        assert_eq!(feats.len(), 16);
        let (a, b) = feats.split_at(8);
        for half in [a, b] {
            let n = pane_linalg::vecops::norm2(half);
            assert!(n < 1e-9 || (n - 1.0).abs() < 1e-9, "half-norm {n}");
        }
    }

    #[test]
    fn error_cases() {
        let empty = pane_graph::GraphBuilder::new(0, 0).build();
        assert!(matches!(
            Pane::new(cfg(4)).embed(&empty),
            Err(PaneError::EmptyGraph)
        ));
        let mut b = pane_graph::GraphBuilder::new(3, 0);
        b.add_edge(0, 1);
        let no_attrs = b.build();
        assert!(matches!(
            Pane::new(cfg(4)).embed(&no_attrs),
            Err(PaneError::NoAttributes)
        ));
        // An invalid config is an error from `embed`, not a panic in `new`.
        for bad in [
            PaneConfig {
                dimension: 5,
                ..cfg(4)
            },
            PaneConfig {
                threads: 0,
                ..cfg(4)
            },
            PaneConfig {
                error_threshold: 1.5,
                ..cfg(4)
            },
        ] {
            assert!(matches!(
                Pane::new(bad).embed(&toy::figure1_graph()),
                Err(PaneError::BadConfig(_))
            ));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let g = small_sbm(5);
        let e1 = Pane::new(cfg(16)).embed(&g).unwrap();
        let e2 = Pane::new(cfg(16)).embed(&g).unwrap();
        assert_eq!(e1.forward.data(), e2.forward.data());
        assert_eq!(e1.attribute.data(), e2.attribute.data());
    }
}
