//! One-call embedding quality report: runs all three of the paper's tasks
//! on a graph with a user-supplied embedder and renders a compact summary.
//!
//! This is the "does my embedding work on my data" entry point an
//! open-source user reaches for before reading the evaluation internals.

use crate::scoring::PaneScorer;
use crate::split::{split_attribute_entries, split_edges};
use crate::tasks::link_pred::evaluate_link_scorer;
use crate::tasks::node_class::{node_classification, NodeClassOptions};
use crate::tasks::{evaluate_attr_scorer, AucAp};
use pane_core::PaneEmbedding;
use pane_graph::AttributedGraph;

/// Options for [`report_card`].
#[derive(Debug, Clone, Copy)]
pub struct ReportOptions {
    /// Fraction of edges hidden for link prediction.
    pub link_test_frac: f64,
    /// Fraction of attribute entries hidden for inference.
    pub attr_test_frac: f64,
    /// Training fraction for node classification.
    pub class_train_frac: f64,
    /// Classification repeats.
    pub repeats: usize,
    /// Split seed.
    pub seed: u64,
}

impl Default for ReportOptions {
    fn default() -> Self {
        Self {
            link_test_frac: 0.3,
            attr_test_frac: 0.2,
            class_train_frac: 0.5,
            repeats: 3,
            seed: 0,
        }
    }
}

/// The three task results (classification is `None` when the graph has no
/// labels or too few labeled nodes).
#[derive(Debug, Clone)]
pub struct ReportCard {
    /// Link prediction AUC/AP (30% removed edges by default).
    pub link: AucAp,
    /// Attribute inference AUC/AP (20% hidden entries by default).
    pub attribute: AucAp,
    /// Node classification micro/macro F1, if labels exist.
    pub classification: Option<(f64, f64)>,
    /// Wall-clock seconds spent embedding (both residual fits).
    pub embed_secs: f64,
}

impl std::fmt::Display for ReportCard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "embedding quality report")?;
        writeln!(f, "  link prediction     : {}", self.link)?;
        writeln!(f, "  attribute inference : {}", self.attribute)?;
        match self.classification {
            Some((micro, macro_)) => writeln!(
                f,
                "  node classification : micro-F1={micro:.3} macro-F1={macro_:.3}"
            )?,
            None => writeln!(f, "  node classification : (no labels)")?,
        }
        write!(f, "  embedding time      : {:.2}s", self.embed_secs)
    }
}

/// Runs the full report. `embed` is called on each task's residual graph
/// (twice) and once on the full graph for classification features; its
/// first error ends the report.
pub fn report_card<F, E>(
    g: &AttributedGraph,
    opts: &ReportOptions,
    mut embed: F,
) -> Result<ReportCard, E>
where
    F: FnMut(&AttributedGraph) -> Result<PaneEmbedding, E>,
{
    let t0 = std::time::Instant::now();

    let link_split = split_edges(g, opts.link_test_frac, opts.seed);
    let link_emb = embed(&link_split.residual)?;
    let link = evaluate_link_scorer(&PaneScorer::new(&link_emb), &link_split, g.is_undirected());

    let attr_split = split_attribute_entries(g, opts.attr_test_frac, opts.seed);
    let attr_emb = embed(&attr_split.residual)?;
    let attribute = evaluate_attr_scorer(&PaneScorer::new(&attr_emb), &attr_split);

    let labeled = (0..g.num_nodes())
        .filter(|&v| !g.labels_of(v).is_empty())
        .count();
    let classification = if g.num_labels() > 0 && labeled >= 8 {
        let full_emb = embed(g)?;
        let scorer = PaneScorer::new(&full_emb);
        let nc_opts = NodeClassOptions {
            train_frac: opts.class_train_frac,
            repeats: opts.repeats,
            seed: opts.seed,
            ..Default::default()
        };
        let r = node_classification(&scorer, g.labels(), g.num_labels(), &nc_opts);
        Some((r.micro_f1, r.macro_f1))
    } else {
        None
    };

    Ok(ReportCard {
        link,
        attribute,
        classification,
        embed_secs: t0.elapsed().as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pane_core::{Pane, PaneConfig, PaneError};
    use pane_graph::gen::{generate_sbm, SbmConfig};

    fn embedder() -> impl FnMut(&AttributedGraph) -> Result<PaneEmbedding, PaneError> {
        |g: &AttributedGraph| {
            Pane::new(PaneConfig::builder().dimension(16).seed(1).build()).embed(g)
        }
    }

    #[test]
    fn full_report_on_labeled_graph() {
        let g = generate_sbm(&SbmConfig {
            nodes: 250,
            communities: 4,
            avg_out_degree: 7.0,
            attributes: 24,
            attrs_per_node: 4.0,
            seed: 9,
            ..Default::default()
        });
        let card = report_card(&g, &ReportOptions::default(), embedder()).unwrap();
        assert!(card.link.auc > 0.7, "link {}", card.link.auc);
        assert!(card.attribute.auc > 0.7, "attr {}", card.attribute.auc);
        let (micro, _) = card.classification.expect("labels present");
        assert!(micro > 0.5, "micro {micro}");
        let text = format!("{card}");
        assert!(text.contains("link prediction"));
        assert!(text.contains("micro-F1"));
    }

    #[test]
    fn unlabeled_graph_skips_classification() {
        let mut b = pane_graph::GraphBuilder::new(40, 6);
        for i in 0..39 {
            b.add_edge(i, i + 1);
            b.add_edge(i + 1, i);
            b.add_attribute(i, i % 6, 1.0);
        }
        b.add_attribute(39, 3, 1.0);
        let g = b.build();
        let card = report_card(&g, &ReportOptions::default(), embedder()).unwrap();
        assert!(card.classification.is_none());
        assert!(format!("{card}").contains("(no labels)"));
    }
}
