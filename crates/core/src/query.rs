//! Query layer over a fitted embedding: top-k attribute inference, top-k
//! link recommendation, and nearest-neighbor search in embedding space.
//! These are the operations a downstream service actually issues against
//! the vectors PANE produces.
//!
//! Serving modes, selected by [`QueryBackend`]:
//!
//! * [`QueryBackend::Exact`] — brute-force scans with a bounded-heap
//!   top-k (`O(n log k)` per query). The default.
//! * [`QueryBackend::Flat`] — serving through `pane-index` flat indexes:
//!   similar-node search runs against an index over the `[X_f ‖ X_b]`
//!   classifier features, link recommendation against one over `X_b` (the
//!   Eq. 22 score `X_f[src]·(YᵀY)·X_b[dst]ᵀ` is a dot product between a
//!   per-query vector `q = X_f[src]·YᵀY` and the stored `X_b` rows). The
//!   approximate kinds serve through [`build_bases`], the construction
//!   behind `pane serve` and the store.
//!
//! # Unified score scale
//!
//! Every backend returns scores with the **same documented semantics**,
//! so a serving daemon can mix backends (or fail over between them)
//! without clients seeing a scale change:
//!
//! * [`similar_nodes`](EmbeddingQuery::similar_nodes):
//!   `s(u, v) = cos(X_f[u], X_f[v]) + cos(X_b[u], X_b[v]) ∈ [-2, 2]`,
//!   where a zero half-vector contributes exactly 0 to the sum. Because
//!   [`PaneEmbedding::classifier_features`] L2-normalizes each half (and
//!   leaves zero halves zero), this is the plain dot product of the
//!   feature vectors — which is what both the exact scan and the
//!   max-inner-product node index compute, **bit-identically**.
//!   (Historically the exact scan renormalized the *concatenation*,
//!   which silently rescaled nodes with a zero half by √2 relative to
//!   the indexed backends and diverged their rankings.)
//! * [`recommend_links`](EmbeddingQuery::recommend_links): the raw Eq. 22
//!   inner product `p(src → dst) = X_f[src]·(YᵀY)·X_b[dst]ᵀ`, identical
//!   across all backends by construction.

use crate::pane::PaneEmbedding;
use pane_index::topk::select as top_k;
use pane_index::{AnyIndex, IndexSpec, Metric, VectorIndex};
use pane_linalg::{vecops, DenseMatrix};
use pane_parallel::{even_ranges_nonempty, map_blocks};
use std::borrow::Cow;

/// A scored item (index + score; larger = better) — `pane-index`'s hit
/// type, so the exact scans and the indexed paths return the same thing.
/// Lists are ranked by `pane_index::topk`: descending score, NaN last (a
/// degenerate embedding degrades instead of panicking), ties by ascending
/// index.
pub type Scored = pane_index::Neighbor;

/// The two query spaces PANE's output is read through, and the only code
/// that knows what each one indexes and how a node queries it. Similar-node
/// search runs over the `k`-dim `[X_f ‖ X_b]` classifier features, link
/// recommendation over the `k/2`-dim `X_b` rows; both rank by inner product
/// (see the module docs), so the space is named explicitly, never inferred
/// from a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuerySpace {
    /// Similar-node search (`cos_f + cos_b` over classifier features).
    Similar,
    /// Link recommendation (raw Eq. 22 inner products over `X_b`).
    Links,
}

impl QuerySpace {
    /// Wire and command-line name (`similar` / `links`).
    pub fn name(self) -> &'static str {
        match self {
            QuerySpace::Similar => "similar",
            QuerySpace::Links => "links",
        }
    }

    /// Inverse of [`Self::name`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "similar" => Some(QuerySpace::Similar),
            "links" => Some(QuerySpace::Links),
            _ => None,
        }
    }

    /// Dimensionality of this space's vectors for half-width `k/2`.
    pub fn dim(self, half_dim: usize) -> usize {
        match self {
            QuerySpace::Similar => 2 * half_dim,
            QuerySpace::Links => half_dim,
        }
    }

    /// The matrix an index of this space is built over; row `v` is
    /// [`Self::row`]`(emb, v)`.
    fn matrix(self, emb: &PaneEmbedding) -> Cow<'_, DenseMatrix> {
        match self {
            QuerySpace::Similar => Cow::Owned(emb.classifier_feature_matrix()),
            QuerySpace::Links => Cow::Borrowed(&emb.backward),
        }
    }

    /// The vector node `v` is stored under — what an insert appends to an
    /// index of this space.
    pub fn row(self, emb: &PaneEmbedding, v: usize) -> Cow<'_, [f64]> {
        match self {
            QuerySpace::Similar => Cow::Owned(emb.classifier_features(v)),
            QuerySpace::Links => Cow::Borrowed(emb.backward.row(v)),
        }
    }

    /// The vector node `v` queries with: its own classifier features, or
    /// `q = X_f[v]·YᵀY` so that `q · X_b[dst]` is the Eq. 22 score. `gram`
    /// is the embedding's precomputed [`PaneEmbedding::link_gram`].
    pub fn query_vector(self, emb: &PaneEmbedding, gram: &DenseMatrix, v: usize) -> Vec<f64> {
        match self {
            QuerySpace::Similar => emb.classifier_features(v),
            QuerySpace::Links => emb.link_query_vector_with(gram, v),
        }
    }

    /// Whether `index` holds exactly `emb`'s rows of this space; the error
    /// names both shapes.
    fn check_index(self, emb: &PaneEmbedding, index: &AnyIndex) -> Result<(), String> {
        let (n, dim) = (emb.forward.rows(), self.dim(emb.forward.cols()));
        if index.len() != n || index.dim() != dim {
            return Err(format!(
                "{}-space index holds {}×{} but the embedding implies {n}×{dim}",
                self.name(),
                index.len(),
                index.dim()
            ));
        }
        Ok(())
    }
}

/// The serving index pair of an embedding, `(similar, links)`, each built
/// from its recipe — the one construction behind `EmbeddingQuery`, store
/// generations and engine compactions.
pub fn build_bases(
    emb: &PaneEmbedding,
    node_spec: &IndexSpec,
    link_spec: &IndexSpec,
    threads: usize,
) -> (AnyIndex, AnyIndex) {
    let build = |space: QuerySpace, spec: &IndexSpec| {
        spec.build(space.matrix(emb), Metric::InnerProduct, threads)
    };
    (
        build(QuerySpace::Similar, node_spec),
        build(QuerySpace::Links, link_spec),
    )
}

/// Whether `node` and `link` are shaped like [`build_bases`]`(emb, …)`: each
/// holds exactly `emb`'s rows of its space. Prebuilt or loaded index files
/// are checked with this before they serve or are committed beside `emb`.
pub fn check_bases(emb: &PaneEmbedding, node: &AnyIndex, link: &AnyIndex) -> Result<(), String> {
    QuerySpace::Similar.check_index(emb, node)?;
    QuerySpace::Links.check_index(emb, link)
}

/// The filtered top-`k` of a read, as `(fetch, keep)`: ask an unfiltered
/// search for `fetch` hits — oversampled so that dropping the source itself
/// and every id in `exclude` cannot starve the result — then `keep(src,
/// hits)` drops those and keeps the first `k`. `id` names a hit's node.
pub fn top_k_filter<'a, H>(
    k: usize,
    exclude: &'a [usize],
    id: impl Fn(&H) -> usize + 'a,
) -> (usize, impl Fn(usize, Vec<H>) -> Vec<H> + 'a) {
    let keep = move |src: usize, hits: Vec<H>| {
        hits.into_iter()
            .filter(|h| id(h) != src && !exclude.contains(&id(h)))
            .take(k)
            .collect()
    };
    (k + exclude.len() + 1, keep)
}

/// How an [`EmbeddingQuery`] serves `similar_nodes` / `recommend_links`.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum QueryBackend {
    /// Exact brute-force scans (the default).
    #[default]
    Exact,
    /// Exact serving through flat `pane-index` structures — same results
    /// as [`QueryBackend::Exact`], but through the shared-index machinery
    /// a daemon uses (and therefore insert-capable via delta segments).
    Flat,
}

/// Query interface over an embedding.
pub struct EmbeddingQuery<'a> {
    emb: &'a PaneEmbedding,
    gram: DenseMatrix,
    /// Index over the `[X_f ‖ X_b]` classifier features (node search).
    node_index: Option<AnyIndex>,
    /// Index over `X_b` (link recommendation).
    link_index: Option<AnyIndex>,
}

impl<'a> EmbeddingQuery<'a> {
    /// Wraps an embedding for exact serving, precomputing the `YᵀY` Gram
    /// matrix once.
    pub fn new(emb: &'a PaneEmbedding) -> Self {
        Self::with_backend(emb, &QueryBackend::Exact)
    }

    /// Wraps an embedding, building the flat index pair when `backend`
    /// asks for it: one over the classifier features for
    /// [`similar_nodes`](Self::similar_nodes) (the unified score
    /// `cos_f + cos_b` *is* their inner product — see the module docs),
    /// and one over `X_b` for [`recommend_links`](Self::recommend_links).
    pub fn with_backend(emb: &'a PaneEmbedding, backend: &QueryBackend) -> Self {
        let (node_index, link_index) = (*backend == QueryBackend::Flat)
            .then(|| build_bases(emb, &IndexSpec::Flat, &IndexSpec::Flat, 1))
            .unzip();
        Self {
            gram: emb.link_gram(),
            emb,
            node_index,
            link_index,
        }
    }

    /// The per-query link vector `q = X_f[src]·YᵀY`, so that the Eq. 22
    /// score is `p(src → dst) = q · X_b[dst]` — the form a
    /// max-inner-product index serves directly. Delegates to
    /// [`PaneEmbedding::link_query_vector_with`] (the single shared
    /// kernel) with the query's precomputed Gram matrix.
    pub fn link_query_vector(&self, src: usize) -> Vec<f64> {
        self.emb.link_query_vector_with(&self.gram, src)
    }

    /// Top-`k` attributes for node `v` by Eq. (21) affinity
    /// ([`PaneEmbedding::top_attributes`]).
    pub fn top_attributes(&self, v: usize, k: usize) -> Vec<Scored> {
        self.emb.top_attributes(v, k)
    }

    /// Top-`k` link recommendations *from* `src` by Eq. (22), excluding
    /// `src` itself and any indices in `exclude` (typically its existing
    /// out-neighbors). Served through the link index when the backend
    /// built one, else by exact scan.
    pub fn recommend_links(&self, src: usize, k: usize, exclude: &[u32]) -> Vec<Scored> {
        let q = self.link_query_vector(src);
        if let Some(idx) = &self.link_index {
            let exclude: Vec<usize> = exclude.iter().map(|&e| e as usize).collect();
            let (fetch, keep) = top_k_filter(k, &exclude, |h: &Scored| h.index);
            return keep(src, idx.search(&q, fetch));
        }
        let n = self.emb.forward.rows();
        top_k(
            (0..n)
                .filter(|&dst| dst != src && !exclude.contains(&(dst as u32)))
                .map(|dst| (dst, vecops::dot(&q, self.emb.backward.row(dst)))),
            k,
        )
    }

    /// Top-`k` nodes most similar to `v` on the **unified score scale**
    /// `s(v, u) = cos(X_f[v], X_f[u]) + cos(X_b[v], X_b[u]) ∈ [-2, 2]`
    /// (a zero half contributes 0; see the module docs). Served through
    /// the node index when the backend built one, else by exact scan —
    /// exact and flat/full-probe-IVF backends return bit-identical
    /// rankings and scores.
    pub fn similar_nodes(&self, v: usize, k: usize) -> Vec<Scored> {
        let target = self.emb.classifier_features(v);
        if let Some(idx) = &self.node_index {
            let (fetch, keep) = top_k_filter(k, &[], |h: &Scored| h.index);
            return keep(v, idx.search(&target, fetch));
        }
        let n = self.emb.forward.rows();
        top_k(
            (0..n).filter(|&u| u != v).map(|u| {
                let f = self.emb.classifier_features(u);
                // The halves of the feature vectors are unit (or zero), so
                // this dot IS cos_f + cos_b — computed with the same kernel
                // the indexed backends use, keeping the paths bit-identical.
                (u, vecops::dot(&target, &f))
            }),
            k,
        )
    }

    /// [`similar_nodes`](Self::similar_nodes) for a batch of query nodes,
    /// fanned out over `threads` scoped workers. Output order matches
    /// `nodes`, and the result is identical for every thread count.
    pub fn batch_similar_nodes(
        &self,
        nodes: &[usize],
        k: usize,
        threads: usize,
    ) -> Vec<Vec<Scored>> {
        let ranges = even_ranges_nonempty(nodes.len(), threads.max(1));
        map_blocks(&ranges, |_, range| {
            range
                .map(|i| self.similar_nodes(nodes[i], k))
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Pane, PaneConfig};
    use pane_graph::gen::{generate_sbm, SbmConfig};
    use pane_index::{HnswConfig, IvfConfig};

    impl<'a> EmbeddingQuery<'a> {
        /// Serves both reads through `spec`'s index pair, built by
        /// [`build_bases`] and read through [`top_k_filter`] —
        /// the construction `pane serve` and the store use.
        fn indexed(emb: &'a PaneEmbedding, spec: IndexSpec) -> Self {
            let (node, link) = build_bases(emb, &spec, &spec, 1);
            Self {
                gram: emb.link_gram(),
                emb,
                node_index: Some(node),
                link_index: Some(link),
            }
        }
    }

    fn fixture() -> (pane_graph::AttributedGraph, PaneEmbedding) {
        let g = generate_sbm(&SbmConfig {
            nodes: 200,
            communities: 4,
            avg_out_degree: 6.0,
            attributes: 20,
            attrs_per_node: 4.0,
            attr_noise: 0.05,
            seed: 31,
            ..Default::default()
        });
        let emb = Pane::new(PaneConfig::builder().dimension(32).seed(5).build())
            .embed(&g)
            .unwrap();
        (g, emb)
    }

    #[test]
    fn top_attributes_rank_owned_high() {
        let (g, emb) = fixture();
        let q = EmbeddingQuery::new(&emb);
        let mut hits = 0;
        let mut trials = 0;
        for v in (0..g.num_nodes()).step_by(13) {
            let (owned, _) = g.node_attributes(v);
            if owned.is_empty() {
                continue;
            }
            let top: Vec<usize> = q
                .top_attributes(v, 8)
                .into_iter()
                .map(|s| s.index)
                .collect();
            trials += 1;
            if owned.iter().any(|&a| top.contains(&(a as usize))) {
                hits += 1;
            }
        }
        assert!(
            hits * 10 >= trials * 7,
            "owned attributes rarely in top-8: {hits}/{trials}"
        );
    }

    #[test]
    fn top_k_is_sorted_and_truncated() {
        let (_, emb) = fixture();
        let q = EmbeddingQuery::new(&emb);
        let top = q.top_attributes(0, 5);
        assert_eq!(top.len(), 5);
        for w in top.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn top_k_survives_nan_scores() {
        // A zeroed-out embedding produces NaN cosines and NaN objective
        // scores downstream; the serving path must degrade, not panic.
        let scores = [1.0, f64::NAN, 0.5, f64::NAN];
        let top = top_k(scores.iter().cloned().enumerate(), 3);
        assert_eq!(top.len(), 3);
        assert_eq!(top[0].index, 0);
        assert_eq!(top[1].index, 2);
        assert!(top[2].score.is_nan());
    }

    #[test]
    fn recommend_links_respects_exclusions() {
        let (g, emb) = fixture();
        let q = EmbeddingQuery::new(&emb);
        let src = 3;
        let (nbrs, _) = g.out_neighbors(src);
        let rec = q.recommend_links(src, 10, nbrs);
        for s in &rec {
            assert_ne!(s.index, src);
            assert!(
                !nbrs.contains(&(s.index as u32)),
                "recommended an existing neighbor"
            );
        }
        // Recommendations favor the same community (homophily signal).
        let src_label = g.labels_of(src)[0];
        let same = rec
            .iter()
            .filter(|s| g.labels_of(s.index).contains(&src_label))
            .count();
        assert!(
            same * 2 >= rec.len(),
            "only {same}/{} recommendations intra-community",
            rec.len()
        );
    }

    #[test]
    fn similar_nodes_prefer_same_community() {
        let (g, emb) = fixture();
        let q = EmbeddingQuery::new(&emb);
        let v = 10;
        let label = g.labels_of(v)[0];
        let sim = q.similar_nodes(v, 10);
        let same = sim
            .iter()
            .filter(|s| g.labels_of(s.index).contains(&label))
            .count();
        assert!(
            same * 2 >= sim.len(),
            "only {same}/{} similar nodes share the community",
            sim.len()
        );
    }

    #[test]
    fn recommend_matches_link_score() {
        let (g, emb) = fixture();
        let q = EmbeddingQuery::new(&emb);
        let gram = emb.link_gram();
        let rec = q.recommend_links(0, 3, &[]);
        for s in rec {
            let direct = emb.link_score_with(&gram, 0, s.index);
            assert!(
                (direct - s.score).abs() < 1e-10,
                "query score diverges from Eq. 22"
            );
        }
        let _ = g;
    }

    /// Regression for the PR 3 review finding: the exact scan used to
    /// renormalize the *concatenated* feature vector, which rescaled
    /// nodes with a zero half-vector by √2 relative to the indexed
    /// backends and diverged the rankings. All exact-capable paths must
    /// now return bit-identical scores on the unified `cos_f + cos_b`
    /// scale, zero halves included.
    #[test]
    fn similar_rankings_identical_across_backends_with_zero_halves() {
        let (n, k2, d) = (26usize, 4usize, 6usize);
        let mut state = 0xD1CEu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        };
        let fill = |rows: usize, next: &mut dyn FnMut() -> f64| {
            pane_linalg::DenseMatrix::from_vec(rows, k2, (0..rows * k2).map(|_| next()).collect())
        };
        let mut forward = fill(n, &mut next);
        let mut backward = fill(n, &mut next);
        let attribute = fill(d, &mut next);
        // Zero half-vectors: forward-only, backward-only, and both.
        for v in [3, 7] {
            forward.row_mut(v).fill(0.0);
        }
        backward.row_mut(5).fill(0.0);
        forward.row_mut(9).fill(0.0);
        backward.row_mut(9).fill(0.0);
        let emb = PaneEmbedding {
            forward,
            backward,
            attribute,
            timings: Default::default(),
            objective: 0.0,
        };

        let exact = EmbeddingQuery::new(&emb);
        let flat = EmbeddingQuery::with_backend(&emb, &QueryBackend::Flat);
        let ivf_full = EmbeddingQuery::indexed(
            &emb,
            IndexSpec::Ivf(IvfConfig {
                nlist: 4,
                nprobe: 4,
                ..Default::default()
            }),
        );
        let hnsw = EmbeddingQuery::indexed(&emb, IndexSpec::Hnsw(HnswConfig::default()));
        for v in 0..n {
            let truth = exact.similar_nodes(v, 8);
            // Unified-scale sanity: every score is a sum of two cosines.
            for s in &truth {
                assert!((-2.0 - 1e-9..=2.0 + 1e-9).contains(&s.score), "{}", s.score);
            }
            assert_eq!(truth, flat.similar_nodes(v, 8), "flat diverged at {v}");
            assert_eq!(
                truth,
                ivf_full.similar_nodes(v, 8),
                "full-probe ivf diverged at {v}"
            );
            // HNSW is approximate, but whatever it returns must be scored
            // on the same scale, bit-identically with the exact kernel.
            let target = emb.classifier_features(v);
            for h in hnsw.similar_nodes(v, 8) {
                let want = vecops::dot(&target, &emb.classifier_features(h.index));
                assert_eq!(h.score, want, "hnsw score off the unified scale at {v}");
            }
        }
    }

    #[test]
    fn indexed_backends_approximate_exact_serving() {
        let (_, emb) = fixture();
        let exact = EmbeddingQuery::new(&emb);
        for spec in [
            IndexSpec::Flat,
            IndexSpec::Ivf(IvfConfig {
                nlist: 8,
                nprobe: 8,
                ..Default::default()
            }),
            IndexSpec::Hnsw(HnswConfig::default()),
        ] {
            let approx = EmbeddingQuery::indexed(&emb, spec);
            let mut overlap = 0;
            let mut total = 0;
            for v in (0..emb.forward.rows()).step_by(19) {
                let truth: Vec<usize> =
                    exact.similar_nodes(v, 10).iter().map(|s| s.index).collect();
                for s in approx.similar_nodes(v, 10) {
                    total += 1;
                    overlap += usize::from(truth.contains(&s.index));
                }
                // Link scores must still be genuine Eq. 22 scores.
                for s in approx.recommend_links(v, 3, &[]) {
                    let direct = emb.link_score_with(&exact.gram, v, s.index);
                    assert!((direct - s.score).abs() < 1e-10);
                }
            }
            assert!(
                overlap * 10 >= total * 8,
                "{spec:?}: similar-node overlap too low ({overlap}/{total})"
            );
        }
    }

    #[test]
    fn indexed_recommend_respects_exclusions() {
        let (g, emb) = fixture();
        let q = EmbeddingQuery::indexed(&emb, IndexSpec::Hnsw(HnswConfig::default()));
        let src = 3;
        let (nbrs, _) = g.out_neighbors(src);
        let rec = q.recommend_links(src, 10, nbrs);
        assert!(!rec.is_empty());
        for s in &rec {
            assert_ne!(s.index, src);
            assert!(!nbrs.contains(&(s.index as u32)));
        }
    }

    #[test]
    fn batch_similar_matches_single_across_threads() {
        let (_, emb) = fixture();
        let q = EmbeddingQuery::new(&emb);
        let nodes: Vec<usize> = (0..40).step_by(3).collect();
        let single: Vec<Vec<Scored>> = nodes.iter().map(|&v| q.similar_nodes(v, 5)).collect();
        for threads in [1, 4] {
            assert_eq!(q.batch_similar_nodes(&nodes, 5, threads), single);
        }
    }
}
