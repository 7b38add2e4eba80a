//! # PANE — Scaling Attributed Network Embedding to Massive Graphs
//!
//! Facade crate for the Rust reproduction of the VLDB 2020 paper
//! *"Scaling Attributed Network Embedding to Massive Graphs"* (Yang et al.).
//!
//! PANE maps every node of an attributed, directed graph to a **forward**
//! embedding `X_f[v]` and a **backward** embedding `X_b[v]`, and every
//! attribute to an embedding `Y[r]`, such that dot products approximate
//! multi-hop node–attribute affinity in both edge directions (shifted
//! pointwise mutual information of a random-walk-with-restart co-occurrence
//! model).
//!
//! ## Quick start
//!
//! ```
//! use pane::prelude::*;
//!
//! // A small synthetic attributed graph (directed SBM with attribute clusters).
//! let graph = DatasetZoo::CoraLike.generate_scaled(0.1, 7).graph;
//!
//! // Embed with the paper's default hyper-parameters (scaled-down k).
//! let cfg = PaneConfig::builder()
//!     .dimension(32)
//!     .alpha(0.5)
//!     .error_threshold(0.015)
//!     .threads(2)
//!     .seed(42)
//!     .build();
//! let emb = Pane::new(cfg).embed(&graph).unwrap();
//!
//! assert_eq!(emb.forward.rows(), graph.num_nodes());
//! assert_eq!(emb.attribute.rows(), graph.num_attributes());
//!
//! // Score node–attribute affinity (attribute inference, Eq. 21).
//! let s = emb.attribute_score(0, 0);
//! assert!(s.is_finite());
//! ```
//!
//! ## Crate map
//!
//! | crate | contents |
//! |-------|----------|
//! | [`pane_graph`] | attributed graph type, loaders, generators, random-walk simulator |
//! | [`pane_sparse`] | CSR/CSC sparse matrices, (parallel) sparse × dense products |
//! | [`pane_linalg`] | dense matrices, QR, Jacobi SVD, randomized SVD |
//! | [`pane_core`] | the PANE algorithms: APMI, GreedyInit, SVDCCD and parallel variants |
//! | [`pane_index`] | ANN serving layer: exact / IVF / HNSW vector indexes over the embeddings |
//! | [`pane_store`] | durable store layer: insert-ahead log, generation snapshots, sharded roots |
//! | [`pane_serve`] | shared-index serving daemon: JSON-lines protocol, durable incremental inserts |
//! | [`pane_obs`] | observability: atomic metrics registry, JSON-lines tracing, slow-query log |
//! | [`pane_eval`] | attribute inference / link prediction / node classification + metrics |
//! | [`pane_baselines`] | competitor stand-ins (NRP-, TADW-, CAN-, BLA-like, SVD baselines, PANE-R) |
//! | [`pane_datasets`] | the eight dataset analogues of Table 3 |
//! | [`pane_parallel`] | block partitioning and scoped worker fan-out |
//!
//! See `ARCHITECTURE.md` at the repository root for the full data-flow
//! picture (embed → persist → index → serve) and the determinism contract.

pub use pane_baselines;
pub use pane_core;
pub use pane_datasets;
pub use pane_eval;
pub use pane_graph;
pub use pane_index;
pub use pane_linalg;
pub use pane_obs;
pub use pane_parallel;
pub use pane_serve;
pub use pane_sparse;
pub use pane_store;

/// Most-used items, re-exported for `use pane::prelude::*`.
pub mod prelude {
    pub use pane_core::{load_columns, save_columns};
    pub use pane_core::{
        EmbeddingQuery, InitStrategy, Pane, PaneConfig, PaneEmbedding, QueryBackend,
    };
    pub use pane_datasets::{DatasetZoo, GeneratedDataset};
    pub use pane_eval::metrics::{average_precision, roc_auc};
    pub use pane_eval::{report_card, ReportOptions};
    pub use pane_graph::{AttributedGraph, GraphBuilder};
    pub use pane_index::{
        DeltaIndex, FlatIndex, HnswConfig, HnswIndex, IvfConfig, IvfIndex, VectorIndex,
    };
    pub use pane_linalg::DenseMatrix;
    pub use pane_serve::{IndexSpec, ServeBackend, ServeEngine, ShardedEngine};
    pub use pane_sparse::CsrMatrix;
    pub use pane_store::{ShardedStore, Store};
}
