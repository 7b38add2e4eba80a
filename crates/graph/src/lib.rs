#![warn(missing_docs)]
//! Attributed, directed graph model for the PANE reproduction (§2.1 of the
//! paper).
//!
//! An [`AttributedGraph`] is the quadruple `G = (V, E_V, R, E_R)`:
//! a node set `V` (|V| = n), directed edges `E_V` (|E_V| = m), an attribute
//! set `R` (|R| = d) and weighted node–attribute associations `E_R`. Nodes
//! may carry (multi-)labels for the node-classification task.
//!
//! The crate also contains everything the evaluation needs around the graph:
//!
//! * [`builder::GraphBuilder`] — incremental construction with validation;
//! * [`encode`] — one-hot encoding of categorical attribute tables (§2.1:
//!   "for a categorical attribute such as marital status, we first apply a
//!   pre-processing step that transforms the attribute into a set of binary
//!   ones");
//! * [`io`] — plain-text loaders/writers for edge lists, attribute triples
//!   and label files, and the `PANECOL1` graph container;
//! * [`walks`] — a Monte-Carlo simulator of the paper's forward/backward
//!   random walks on the extended graph (§2.2), used as ground truth for
//!   testing APMI and to reproduce Table 2;
//! * [`gen`] — seeded synthetic attributed-graph generators (directed
//!   degree-corrected SBM with community-correlated attributes) standing in
//!   for the paper's datasets;
//! * [`toy`] — the running-example graph of Figure 1.

// Indexed loops in the numeric kernels are deliberate (they keep the
// zip-free auto-vectorizable shape the perf guide recommends).
#![allow(clippy::needless_range_loop)]
pub mod analysis;
pub mod builder;
pub mod encode;
pub mod gen;
pub mod graph;
pub mod io;
pub mod toy;
pub mod walks;

pub use builder::GraphBuilder;
pub use graph::{AttributedGraph, DanglingPolicy};
pub use walks::WalkSimulator;
