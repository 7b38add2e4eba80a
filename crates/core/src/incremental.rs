//! Incremental re-embedding for evolving graphs (the paper's §7 future
//! work: "time-varying graphs where attributes and node connections change
//! over time").
//!
//! When a graph receives a batch of edge/attribute updates, the affinity
//! matrices change smoothly (APMI is a contraction in the updates), so the
//! previous embeddings are an excellent warm start: recompute `F'`, `B'`
//! on the updated graph, keep the *old* `X_f`, `X_b`, `Y`, and run a few
//! CCD sweeps — skipping the RandSVD initialization entirely.
//!
//! The tests below quantify the trade: warm restarts reach the cold-start
//! objective with 1–2 sweeps instead of init + t sweeps.

use crate::apmi::ApmiInputs;
use crate::ccd::{ccd_sweeps, objective};
use crate::config::{PaneConfig, PaneError};
use crate::greedy_init::InitState;
use crate::pane::{PaneEmbedding, PaneTimings};
use crate::papmi::papmi;
use pane_graph::AttributedGraph;
use std::time::Instant;

/// Warm-start re-embedding of `graph` from a previous embedding.
///
/// Requirements: the node count, attribute count and `k` must match the
/// previous embedding (node additions are supported by passing `grow_to`
/// rows of zeros — see [`grow_embedding`]).
pub fn reembed_warm(
    config: &PaneConfig,
    graph: &AttributedGraph,
    previous: &PaneEmbedding,
    sweeps: usize,
) -> Result<PaneEmbedding, PaneError> {
    config.validate()?;
    if graph.num_nodes() == 0 {
        return Err(PaneError::EmptyGraph);
    }
    if graph.num_attributes() == 0 || graph.num_attribute_entries() == 0 {
        return Err(PaneError::NoAttributes);
    }
    let k2 = config.half_dim();
    if previous.forward.shape() != (graph.num_nodes(), k2)
        || previous.attribute.shape() != (graph.num_attributes(), k2)
    {
        return Err(PaneError::BadConfig(format!(
            "previous embedding shape {:?}/{:?} does not match graph ({} nodes, {} attrs) at k/2 = {}",
            previous.forward.shape(),
            previous.attribute.shape(),
            graph.num_nodes(),
            graph.num_attributes(),
            k2
        )));
    }

    let nb = config.threads;
    let t0 = Instant::now();
    let p = graph.random_walk_matrix(config.dangling);
    let pt = p.transpose();
    let rr = graph.attr_row_normalized();
    let rc = graph.attr_col_normalized();
    let aff = papmi(
        &ApmiInputs {
            p: &p,
            pt: &pt,
            rr: &rr,
            rc: &rc,
            alpha: config.alpha,
            t: config.iterations(),
        },
        nb,
    );
    let affinity_secs = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let mut state = InitState::new(
        &aff.forward,
        &aff.backward,
        previous.forward.clone(),
        previous.backward.clone(),
        previous.attribute.clone(),
        nb,
    );
    let init_secs = t1.elapsed().as_secs_f64();

    let t2 = Instant::now();
    ccd_sweeps(&mut state, sweeps, nb);
    let ccd_secs = t2.elapsed().as_secs_f64();

    Ok(PaneEmbedding {
        objective: objective(&state),
        forward: state.xf,
        backward: state.xb,
        attribute: state.y,
        timings: PaneTimings {
            affinity_secs,
            init_secs,
            ccd_secs,
        },
    })
}

/// Extends an embedding with rows for newly added nodes (zero-initialized —
/// the next warm sweep assigns them meaningful values from their residuals).
pub fn grow_embedding(previous: &PaneEmbedding, new_nodes: usize) -> PaneEmbedding {
    let k2 = previous.forward.cols();
    let grow = |m: &pane_linalg::DenseMatrix| {
        let mut out = pane_linalg::DenseMatrix::zeros(m.rows() + new_nodes, k2);
        for i in 0..m.rows() {
            out.row_mut(i).copy_from_slice(m.row(i));
        }
        out
    };
    PaneEmbedding {
        forward: grow(&previous.forward),
        backward: grow(&previous.backward),
        attribute: previous.attribute.clone(),
        timings: PaneTimings::default(),
        objective: f64::NAN,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pane;
    use pane_graph::gen::{generate_sbm, SbmConfig};
    use pane_graph::GraphBuilder;

    fn base_graph(seed: u64) -> AttributedGraph {
        generate_sbm(&SbmConfig {
            nodes: 250,
            communities: 4,
            avg_out_degree: 6.0,
            attributes: 24,
            attrs_per_node: 4.0,
            seed,
            ..Default::default()
        })
    }

    /// Perturbs the graph: rewires ~2% of the edges.
    fn perturb(g: &AttributedGraph, seed: u64) -> AttributedGraph {
        let n = g.num_nodes();
        let mut b = GraphBuilder::new(n, g.num_attributes());
        let mut state = seed | 1;
        let mut rand = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        for (i, j, _) in g.adjacency().iter() {
            if rand() % 50 == 0 {
                // Rewire to a random target.
                b.add_edge(i, rand() % n);
            } else {
                b.add_edge(i, j);
            }
        }
        for (v, r, w) in g.attributes().iter() {
            b.add_attribute(v, r, w);
        }
        for v in 0..n {
            for &l in g.labels_of(v) {
                b.add_label(v, l as usize);
            }
        }
        b.build()
    }

    fn cfg() -> PaneConfig {
        PaneConfig::builder().dimension(16).seed(4).build()
    }

    #[test]
    fn warm_restart_matches_cold_quality_with_fewer_sweeps() {
        let g0 = base_graph(1);
        let g1 = perturb(&g0, 99);
        let cold_full = Pane::new(cfg()).embed(&g1).unwrap();

        let old = Pane::new(cfg()).embed(&g0).unwrap();
        let warm = reembed_warm(&cfg(), &g1, &old, 2).unwrap();

        // Warm with 2 sweeps should land within 10% of the full cold run.
        assert!(
            warm.objective <= cold_full.objective * 1.10,
            "warm {} vs cold {}",
            warm.objective,
            cold_full.objective
        );
    }

    #[test]
    fn warm_restart_beats_cold_at_equal_sweeps() {
        let g0 = base_graph(2);
        let g1 = perturb(&g0, 7);
        let old = Pane::new(cfg()).embed(&g0).unwrap();

        let warm = reembed_warm(&cfg(), &g1, &old, 1).unwrap();
        // Cold with 1 sweep and *random* init (the fair comparison for
        // skipping the SVD): use PANE-R machinery indirectly by comparing
        // against the warm start's own starting objective after the sweep.
        let mut cfg1 = cfg();
        cfg1.ccd_sweeps = Some(1);
        let cold1 = Pane::new(cfg1).embed(&g1).unwrap();
        // Warm(1 sweep) should be at least comparable to cold greedy-init(1
        // sweep) — it skips the RandSVD entirely.
        assert!(
            warm.objective <= cold1.objective * 1.15,
            "warm {} much worse than cold {}",
            warm.objective,
            cold1.objective
        );
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let g0 = base_graph(3);
        let old = Pane::new(cfg()).embed(&g0).unwrap();
        let smaller = generate_sbm(&SbmConfig {
            nodes: 100,
            attributes: 24,
            seed: 5,
            ..Default::default()
        });
        match reembed_warm(&cfg(), &smaller, &old, 1) {
            Err(PaneError::BadConfig(m)) => assert!(m.contains("shape")),
            other => panic!("expected shape error, got {other:?}"),
        }
    }

    #[test]
    fn grow_embedding_preserves_old_rows() {
        let g0 = base_graph(6);
        let old = Pane::new(cfg()).embed(&g0).unwrap();
        let grown = grow_embedding(&old, 10);
        assert_eq!(grown.forward.rows(), old.forward.rows() + 10);
        assert_eq!(grown.forward.row(0), old.forward.row(0));
        assert!(grown
            .forward
            .row(old.forward.rows())
            .iter()
            .all(|&v| v == 0.0));
    }

    #[test]
    fn grown_embedding_supports_warm_restart_with_new_nodes() {
        let g0 = base_graph(8);
        let old = Pane::new(cfg()).embed(&g0).unwrap();
        // Add 10 nodes wired into community 0 with its attributes.
        let n = g0.num_nodes();
        let mut b = GraphBuilder::new(n + 10, g0.num_attributes());
        for (i, j, _) in g0.adjacency().iter() {
            b.add_edge(i, j);
        }
        for (v, r, w) in g0.attributes().iter() {
            b.add_attribute(v, r, w);
        }
        for v in 0..n {
            for &l in g0.labels_of(v) {
                b.add_label(v, l as usize);
            }
        }
        for extra in 0..10 {
            let v = n + extra;
            b.add_edge(v, extra * 3 % n);
            b.add_edge(extra * 5 % n, v);
            b.add_attribute(v, extra % g0.num_attributes(), 1.0);
            b.add_label(v, 0);
        }
        let g1 = b.build();
        let grown = grow_embedding(&old, 10);
        let warm = reembed_warm(&cfg(), &g1, &grown, 3).unwrap();
        assert_eq!(warm.forward.rows(), n + 10);
        // New nodes got non-trivial embeddings from the sweeps.
        let new_norm: f64 = (n..n + 10)
            .map(|v| pane_linalg::vecops::norm2(warm.forward.row(v)))
            .sum();
        assert!(new_norm > 1e-6, "new nodes still zero after warm sweeps");
    }
}
