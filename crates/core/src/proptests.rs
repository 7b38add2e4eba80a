//! Cross-module property tests for the core pipeline, driven by random
//! SBM graphs (structure-heavy inputs rather than pure random matrices).

#![cfg(test)]

use crate::apmi::{apmi, ApmiInputs};
use crate::ccd::{ccd_sweeps, objective};
use crate::greedy_init::{greedy_init, InitOptions};
use crate::persist::{load_columns, save_columns, PersistError};
use crate::{Pane, PaneConfig, PaneEmbedding};
use pane_graph::gen::{generate_sbm, SbmConfig};
use pane_graph::io::{load_graph_columns, save_graph_columns, IoError};
use pane_graph::{AttributedGraph, DanglingPolicy};
use proptest::prelude::*;
use std::sync::OnceLock;

fn random_graph(seed: u64, nodes: usize) -> AttributedGraph {
    generate_sbm(&SbmConfig {
        nodes,
        communities: 3,
        avg_out_degree: 4.0,
        attributes: 12,
        attrs_per_node: 3.0,
        seed,
        ..Default::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// APMI outputs are finite, non-negative, bounded by ln(n+1)/ln(d+1),
    /// for arbitrary graphs, alphas and iteration counts.
    #[test]
    fn prop_apmi_outputs_well_formed(
        seed in 0u64..1000,
        nodes in 30usize..120,
        alpha in 0.1f64..0.9,
        t in 1usize..12,
    ) {
        let g = random_graph(seed, nodes);
        let p = g.random_walk_matrix(DanglingPolicy::SelfLoop);
        let pt = p.transpose();
        let rr = g.attr_row_normalized();
        let rc = g.attr_col_normalized();
        let aff = apmi(&ApmiInputs { p: &p, pt: &pt, rr: &rr, rc: &rc, alpha, t });
        let fmax = (g.num_nodes() as f64 + 1.0).ln();
        let bmax = (g.num_attributes() as f64 + 1.0).ln();
        for &v in aff.forward.data() {
            prop_assert!(v.is_finite() && v >= 0.0 && v <= fmax + 1e-9, "F entry {v}");
        }
        for &v in aff.backward.data() {
            prop_assert!(v.is_finite() && v >= 0.0 && v <= bmax + 1e-9, "B entry {v}");
        }
    }

    /// CCD never increases the objective, from greedy *or* degenerate
    /// starting points, serial or parallel.
    #[test]
    fn prop_ccd_monotone(seed in 0u64..1000, nb in 1usize..5, sweeps in 1usize..4) {
        let g = random_graph(seed, 60);
        let p = g.random_walk_matrix(DanglingPolicy::SelfLoop);
        let pt = p.transpose();
        let rr = g.attr_row_normalized();
        let rc = g.attr_col_normalized();
        let aff = apmi(&ApmiInputs { p: &p, pt: &pt, rr: &rr, rc: &rc, alpha: 0.5, t: 4 });
        let opts = InitOptions { half_dim: 4, power_iters: 2, oversample: 4, seed };
        let mut st = greedy_init(&aff.forward, &aff.backward, &opts, 1);
        let mut prev = objective(&st);
        for _ in 0..sweeps {
            ccd_sweeps(&mut st, 1, nb);
            let cur = objective(&st);
            prop_assert!(cur <= prev + 1e-9 * (1.0 + prev), "objective rose {prev} -> {cur}");
            prev = cur;
        }
    }

    /// End-to-end embedding is invariant to the thread count in shape and
    /// comparable in quality, for arbitrary graphs.
    #[test]
    fn prop_thread_count_is_quality_neutral(seed in 0u64..300) {
        let g = random_graph(seed, 80);
        let mk = |threads: usize| {
            Pane::new(
                PaneConfig::builder().dimension(8).threads(threads).seed(7).build(),
            )
            .embed(&g)
            .unwrap()
        };
        let a = mk(1);
        let b = mk(3);
        prop_assert_eq!(a.forward.shape(), b.forward.shape());
        let scale = 1.0 + a.objective.max(b.objective);
        prop_assert!((a.objective - b.objective).abs() / scale < 0.35,
            "serial {} vs parallel {}", a.objective, b.objective);
    }

    /// Attribute scores of owned attributes beat the per-node average score
    /// for most nodes — the learnability property every task depends on.
    #[test]
    fn prop_owned_attributes_score_high(seed in 0u64..300) {
        let g = random_graph(seed, 100);
        let emb = Pane::new(PaneConfig::builder().dimension(16).seed(3).build())
            .embed(&g)
            .unwrap();
        let d = g.num_attributes();
        let mut wins = 0usize;
        let mut trials = 0usize;
        for v in 0..g.num_nodes() {
            let (owned, _) = g.node_attributes(v);
            if owned.is_empty() {
                continue;
            }
            let mean: f64 = (0..d).map(|r| emb.attribute_score(v, r)).sum::<f64>() / d as f64;
            let owned_mean: f64 =
                owned.iter().map(|&r| emb.attribute_score(v, r as usize)).sum::<f64>() / owned.len() as f64;
            trials += 1;
            if owned_mean > mean {
                wins += 1;
            }
        }
        prop_assert!(trials > 0);
        prop_assert!(wins * 10 >= trials * 8, "owned attrs beat mean on only {wins}/{trials} nodes");
    }
}

/// An embedding and its saved `PANECOL1` container's bytes, for the
/// corruption properties of the shared reader behind `load_columns`.
fn embedding_fixture() -> &'static (PaneEmbedding, Vec<u8>) {
    static FIXTURE: OnceLock<(PaneEmbedding, Vec<u8>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let emb = Pane::new(PaneConfig::builder().dimension(8).seed(3).build())
            .embed(&random_graph(5, 40))
            .unwrap();
        let p = scratch_file("fixture.col");
        save_columns(&emb, &p).unwrap();
        (emb, std::fs::read(&p).unwrap())
    })
}

fn scratch_file(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pane_core_prop_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Writes `bytes` to a scratch file and loads it with `load`.
fn load_mutated<T, E>(
    name: &str,
    bytes: &[u8],
    load: fn(&std::path::Path) -> Result<T, E>,
) -> Result<T, E> {
    let p = scratch_file(name);
    std::fs::write(&p, bytes).unwrap();
    load(&p)
}

/// A multi-label, undirected graph and its saved `PANECOL1` container's
/// bytes: the same properties through `load_graph_columns`.
fn graph_fixture() -> &'static (AttributedGraph, Vec<u8>) {
    static FIXTURE: OnceLock<(AttributedGraph, Vec<u8>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let g = generate_sbm(&SbmConfig {
            nodes: 40,
            attributes: 12,
            multi_label: true,
            undirected: true,
            seed: 5,
            ..Default::default()
        });
        let p = scratch_file("graph.col");
        save_graph_columns(&g, &p).unwrap();
        (g, std::fs::read(&p).unwrap())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any strict truncation of an embedding container fails the load
    /// with a structured error: the header declares the file's exact
    /// length.
    #[test]
    fn embedding_truncation_always_fails_structured(frac in 0.0f64..1.0) {
        let full = &embedding_fixture().1;
        let keep = (frac * (full.len() - 1) as f64) as usize;
        match load_mutated("trunc.col", &full[..keep], load_columns) {
            Err(PersistError::Format(_)) | Err(PersistError::Io(_)) => {}
            Ok(_) => panic!("an embedding container cut at {keep} loaded"),
        }
    }

    /// A single-byte mutation of an embedding container never panics: the
    /// load fails with a structured error, or — for a flip in the zero
    /// padding before a section, which holds no value and no checksum
    /// covers — yields the saved embedding bit for bit.
    #[test]
    fn embedding_byte_mutations_never_panic(offset_frac in 0.0f64..1.0, xor in 1u32..256) {
        let (emb, bytes) = embedding_fixture();
        let mut bytes = bytes.clone();
        let at = (offset_frac * (bytes.len() - 1) as f64) as usize;
        bytes[at] ^= xor as u8;
        if let Ok(back) = load_mutated("bitflip.col", &bytes, load_columns) {
            for (a, b) in [
                (&emb.forward, &back.forward),
                (&emb.backward, &back.backward),
                (&emb.attribute, &back.attribute),
            ] {
                prop_assert!(a.shape() == b.shape(), "flip at byte {at} changed a shape");
                let bits = |m: &pane_linalg::DenseMatrix| -> Vec<u64> {
                    m.data().iter().map(|x| x.to_bits()).collect()
                };
                prop_assert!(bits(a) == bits(b), "flip at byte {at} changed a value");
            }
        }
    }

    /// Any strict truncation of a graph container fails the load with a
    /// structured error.
    #[test]
    fn graph_truncation_always_fails_structured(frac in 0.0f64..1.0) {
        let full = &graph_fixture().1;
        let keep = (frac * (full.len() - 1) as f64) as usize;
        match load_mutated("gtrunc.col", &full[..keep], load_graph_columns) {
            Err(IoError::Format(_)) | Err(IoError::Io(_)) => {}
            Err(e) => panic!("a graph container cut at {keep}: unexpected error {e}"),
            Ok(_) => panic!("a graph container cut at {keep} loaded"),
        }
    }

    /// A single-byte mutation of a graph container never panics: the load
    /// fails with a structured error, or — for a flip in section padding —
    /// yields the saved graph.
    #[test]
    fn graph_byte_mutations_never_panic(offset_frac in 0.0f64..1.0, xor in 1u32..256) {
        let (g, bytes) = graph_fixture();
        let mut bytes = bytes.clone();
        let at = (offset_frac * (bytes.len() - 1) as f64) as usize;
        bytes[at] ^= xor as u8;
        if let Ok(back) = load_mutated("gbitflip.col", &bytes, load_graph_columns) {
            prop_assert!(back.adjacency() == g.adjacency(), "flip at byte {at} changed the adjacency");
            prop_assert!(back.attributes() == g.attributes(), "flip at byte {at} changed the attributes");
            prop_assert!(back.labels() == g.labels(), "flip at byte {at} changed the labels");
            prop_assert!(
                (back.num_labels(), back.is_undirected()) == (g.num_labels(), g.is_undirected()),
                "flip at byte {at} changed the header"
            );
        }
    }
}
