//! End-to-end serving test: the acceptance path of the `pane serve`
//! subsystem, exercised through the library (the CLI transports are
//! covered in `crates/cli/tests/cli.rs`).
//!
//! One shared index pair is loaded from disk exactly once, batched
//! queries are served over it, a node arriving through `pane-core`'s
//! incremental path (`grow_embedding` + `reembed_warm`) is inserted and
//! returned by the *next* query without any index rebuild, and exact vs
//! ANN backends answer on the same documented score scale.

use pane::prelude::*;
use pane_core::{grow_embedding, reembed_warm};
use pane_graph::gen::{generate_sbm, SbmConfig};
use pane_index::{load_index, Metric, VectorIndex};
use pane_serve::{serve_lines, Json, ServeEngine};
use std::sync::RwLock;

fn sbm(nodes: usize, seed: u64) -> AttributedGraph {
    generate_sbm(&SbmConfig {
        nodes,
        communities: 4,
        avg_out_degree: 6.0,
        attributes: 20,
        attrs_per_node: 4.0,
        seed,
        ..Default::default()
    })
}

fn cfg() -> PaneConfig {
    PaneConfig::builder().dimension(16).seed(11).build()
}

#[test]
fn daemon_serves_shared_index_with_incremental_inserts() {
    let dir = std::env::temp_dir().join(format!("pane_serve_e2e_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // Offline: embed, build the shared index pair, persist everything —
    // what `pane embed` + `pane index build` produce for the daemon.
    let g0 = sbm(220, 5);
    let emb = Pane::new(cfg()).embed(&g0).unwrap();
    let node_path = dir.join("node.idx");
    let link_path = dir.join("link.idx");
    HnswIndex::build(emb.classifier_feature_matrix(), &HnswConfig::default())
        .save(&node_path)
        .unwrap();
    FlatIndex::build(&emb.backward, Metric::InnerProduct)
        .save(&link_path)
        .unwrap();

    // Daemon boot: load the shared indexes once.
    let node_base = load_index(&node_path).unwrap();
    let link_base = load_index(&link_path).unwrap();
    let mut engine = ServeEngine::new(emb.clone(), node_base, link_base, 3).unwrap();
    assert_eq!(engine.num_nodes(), 220);

    // Batched queries against the shared structures.
    let nodes: Vec<usize> = (0..220).step_by(17).collect();
    let sim = engine.similar_nodes(&nodes, 10).unwrap();
    let links = engine.recommend_links(&nodes, 5, &[]).unwrap();
    assert_eq!(sim.len(), nodes.len());
    assert_eq!(links.len(), nodes.len());

    // Unified score scale: whatever the ANN backend returns for
    // similar-nodes must equal the exact backend's score for the same
    // pair, bit-for-bit; link scores must be genuine Eq. 22 values.
    let exact = EmbeddingQuery::new(&emb);
    let gram = emb.link_gram();
    for (qi, &v) in nodes.iter().enumerate() {
        let truth: Vec<_> = exact.similar_nodes(v, 220).into_iter().collect();
        for h in &sim[qi] {
            let t = truth
                .iter()
                .find(|s| s.index == h.node)
                .expect("ANN hit missing from exact scan");
            assert_eq!(
                h.score, t.score,
                "score scale diverged at ({v}, {})",
                h.node
            );
        }
        for h in &links[qi] {
            let direct = emb.link_score_with(&gram, v, h.node);
            assert!((h.score - direct).abs() < 1e-10, "not an Eq. 22 score");
        }
    }

    // A node arrives: re-embed offline through the incremental path and
    // push only the new rows into the running daemon.
    let n = g0.num_nodes();
    let mut b = GraphBuilder::new(n + 1, g0.num_attributes());
    for (i, j, _) in g0.adjacency().iter() {
        b.add_edge(i, j);
    }
    for (v, r, w) in g0.attributes().iter() {
        b.add_attribute(v, r, w);
    }
    // Wire the newcomer into community structure around node 0.
    b.add_edge(n, 0);
    b.add_edge(0, n);
    b.add_edge(n, 1);
    b.add_attribute(n, 0, 1.0);
    b.add_attribute(n, 1, 1.0);
    let g1 = b.build();
    let warm = reembed_warm(&cfg(), &g1, &grow_embedding(&emb, 1), 2).unwrap();

    let base_before = engine.node_stats().base;
    let id = engine
        .insert(warm.forward.row(n), warm.backward.row(n))
        .unwrap();
    assert_eq!(id, n);
    // No rebuild: the base is untouched, the delta holds the newcomer.
    assert_eq!(engine.node_stats().base, base_before);
    assert_eq!(engine.node_stats().delta, 1);
    assert_eq!(engine.link_stats().delta, 1);

    // The very next queries see the node — as a query source and as a
    // result (scan wide enough that the exact delta merge must surface it).
    let sim_new = engine.similar_nodes(&[id], 5).unwrap();
    assert_eq!(sim_new[0].len(), 5);
    let wide = engine.similar_nodes(&[0], n + 1).unwrap();
    assert!(
        wide[0].iter().any(|h| h.node == id),
        "inserted node missing from a full-width scan"
    );
    let links_new = engine.recommend_links(&[id], 5, &[]).unwrap();
    assert_eq!(links_new[0].len(), 5);

    // Compaction folds the delta into a rebuilt base, same answers after.
    let before = engine.similar_nodes(&[id], 5).unwrap();
    assert_eq!(engine.compact(), 1);
    assert_eq!(engine.node_stats().delta, 0);
    assert_eq!(engine.node_stats().base, n + 1);
    let after = engine.similar_nodes(&[id], 5).unwrap();
    let ids = |hits: &Vec<Vec<pane_serve::Hit>>| -> Vec<usize> {
        hits[0].iter().map(|h| h.node).collect()
    };
    // HNSW rebuild may re-rank near-ties, but the newcomer's neighborhood
    // must stay substantially the same.
    let overlap = ids(&before)
        .iter()
        .filter(|v| ids(&after).contains(v))
        .count();
    assert!(
        overlap >= 3,
        "compaction changed the neighborhood: {overlap}/5"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn protocol_session_through_the_facade() {
    // The whole request/response cycle as a daemon would run it, driven
    // through in-memory stdio — no sockets, fully deterministic.
    let g = sbm(100, 9);
    let emb = Pane::new(cfg()).embed(&g).unwrap();
    let engine = RwLock::new(ServeEngine::build(emb, &IndexSpec::Flat, 2));
    let input = concat!(
        r#"{"op":"similar-nodes","nodes":[0,5],"k":4}"#,
        "\n",
        r#"{"op":"stats"}"#,
        "\n",
        r#"{"op":"shutdown"}"#,
        "\n",
    );
    let mut out = Vec::new();
    let ended = serve_lines(&engine, input.as_bytes(), &mut out).unwrap();
    assert!(ended);
    let text = String::from_utf8(out).unwrap();
    for line in text.lines() {
        let v = pane_serve::parse(line).unwrap();
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "{line}");
    }
}
