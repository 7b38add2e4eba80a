//! Integration tests for the beyond-the-paper features: persistence,
//! top-k queries, warm re-embedding and the report card — exercised
//! together through the facade, the way a downstream user would.

use pane::pane_core::incremental::reembed_warm;
use pane::pane_core::{load_columns, save_columns, EmbeddingQuery};
use pane::pane_eval::{report_card, ReportOptions};
use pane::prelude::*;

fn graph() -> pane::pane_graph::AttributedGraph {
    DatasetZoo::CoraLike.generate_scaled(0.08, 11).graph
}

fn config() -> PaneConfig {
    PaneConfig::builder().dimension(16).seed(2).build()
}

#[test]
fn persist_then_query_pipeline() {
    let g = graph();
    let emb = Pane::new(config()).embed(&g).unwrap();

    let dir = std::env::temp_dir().join(format!("pane_ext_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("emb.bin");
    save_columns(&emb, &path).unwrap();
    let loaded = load_columns(&path).unwrap();

    // Queries over the loaded embedding equal queries over the original.
    let q1 = EmbeddingQuery::new(&emb);
    let q2 = EmbeddingQuery::new(&loaded);
    let a1 = q1.top_attributes(3, 5);
    let a2 = q2.top_attributes(3, 5);
    assert_eq!(
        a1.iter().map(|s| s.index).collect::<Vec<_>>(),
        a2.iter().map(|s| s.index).collect::<Vec<_>>()
    );
    let l1 = q1.recommend_links(3, 5, &[]);
    let l2 = q2.recommend_links(3, 5, &[]);
    assert_eq!(l1[0].index, l2[0].index);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn warm_reembed_after_attribute_updates() {
    let g = graph();
    let emb = Pane::new(config()).embed(&g).unwrap();

    // Add a handful of new attribute associations (profile updates).
    let mut b = GraphBuilder::new(g.num_nodes(), g.num_attributes());
    for (i, j, _) in g.adjacency().iter() {
        b.add_edge(i, j);
    }
    for (v, r, w) in g.attributes().iter() {
        b.add_attribute(v, r, w);
    }
    for v in 0..10 {
        b.add_attribute(v, (v * 7) % g.num_attributes(), 1.0);
    }
    for v in 0..g.num_nodes() {
        for &l in g.labels_of(v) {
            b.add_label(v, l as usize);
        }
    }
    let g2 = b.build();

    let warm = reembed_warm(&config(), &g2, &emb, 2).unwrap();
    let cold = Pane::new(config()).embed(&g2).unwrap();
    assert!(
        warm.objective <= cold.objective * 1.1,
        "warm {} should track cold {}",
        warm.objective,
        cold.objective
    );
}

#[test]
fn report_card_through_facade() {
    let g = graph();
    let card = report_card(&g, &ReportOptions::default(), |residual| {
        Pane::new(config()).embed(residual)
    })
    .unwrap();
    assert!(card.link.auc > 0.6, "link {}", card.link.auc);
    assert!(card.attribute.auc > 0.6, "attr {}", card.attribute.auc);
    assert!(card.classification.is_some());
}

#[test]
fn ranking_metrics_agree_with_query_order() {
    use pane::pane_eval::{ndcg_at_k, precision_at_k};
    let g = graph();
    let emb = Pane::new(config()).embed(&g).unwrap();
    let q = EmbeddingQuery::new(&emb);

    // Use a node's owned attributes as ground truth for its top-k list.
    let v = (0..g.num_nodes())
        .find(|&v| g.node_attributes(v).0.len() >= 2)
        .unwrap();
    let relevant: Vec<usize> = g.node_attributes(v).0.iter().map(|&r| r as usize).collect();
    let scores: Vec<f64> = (0..g.num_attributes())
        .map(|r| emb.attribute_score(v, r))
        .collect();

    let k = 10;
    let p_at_k = precision_at_k(&scores, &relevant, k);
    let top: Vec<usize> = q
        .top_attributes(v, k)
        .into_iter()
        .map(|s| s.index)
        .collect();
    let manual = top.iter().filter(|i| relevant.contains(i)).count() as f64 / k as f64;
    assert!(
        (p_at_k - manual).abs() < 1e-12,
        "metric {p_at_k} vs query-derived {manual}"
    );
    assert!(ndcg_at_k(&scores, &relevant, k) >= p_at_k - 1e-12);
}
