//! Set-up: everything the program under test receives is generated here
//! from the seed — the graph files it loads and the request lines it is
//! sent. The same seed gives the same bytes.

use crate::workloads::{Workload, DIMENSION, HELD_OUT, RECALL_QUERIES};
use pane::pane_eval::{split_edges, EdgeSplit};
use pane::pane_graph::gen::{generate_sbm, SbmConfig};
use pane::pane_graph::io::save_graph;
use pane::pane_graph::GraphBuilder;
use pane_loadgen::{generate_requests, BatchSpec, Mix, Request, Skew, WorkloadConfig};
use std::fs::File;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Top-k asked for by every query.
pub const K: usize = 10;
/// Requests in each single-op probe stream of the traced run.
pub const PROBE_READS: usize = 400;
pub const PROBE_INSERTS: usize = 200;

pub struct Inputs {
    /// Held-out and negative edges (the residual graph itself is dropped:
    /// the program reads it from the files).
    pub split: EdgeSplit,
    pub edges: PathBuf,
    pub attrs: PathBuf,
    pub labels: PathBuf,
    /// Open-loop stream A and closed-loop stream B.
    pub open: Vec<Request>,
    pub closed: Vec<Request>,
    /// Read-only load sent before each timed closed loop, a third of B.
    pub warm: Vec<Request>,
    /// Single-node queries behind `recall_at_10`.
    pub recall: Vec<Request>,
    /// One-op streams for the traced run's serve-layer probes.
    pub probe_similar: Vec<Request>,
    pub probe_links: Vec<Request>,
    pub probe_insert: Vec<Request>,
    /// Seconds spent in `generate_requests`.
    pub generate_s: f64,
}

fn sub_seed(seed: u64, stream: u64) -> u64 {
    seed.wrapping_mul(6364136223846793005).wrapping_add(stream)
}

fn sync(path: &Path) -> std::io::Result<()> {
    File::open(path)?.sync_all()
}

/// One full set-up into `dir` (created if missing, files overwritten).
pub fn set_up(wl: &Workload, seed: u64, dir: &Path) -> Result<Inputs, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let graph = generate_sbm(&SbmConfig {
        nodes: wl.nodes,
        communities: 8,
        avg_out_degree: wl.out_degree,
        attributes: wl.attributes,
        attrs_per_node: wl.attrs_per_node,
        seed,
        ..Default::default()
    });
    let mut split = split_edges(&graph, HELD_OUT, sub_seed(seed, 1));
    drop(graph);

    let edges = dir.join("edges.txt");
    let attrs = dir.join("attributes.txt");
    let labels = dir.join("labels.txt");
    save_graph(&split.residual, &edges, &attrs, &labels).map_err(|e| format!("save graph: {e}"))?;
    for p in [&edges, &attrs, &labels, &dir.to_path_buf()] {
        sync(p).map_err(|e| format!("fsync {}: {e}", p.display()))?;
    }
    split.residual = GraphBuilder::new(0, 0).build();

    let started = Instant::now();
    let stream = |mix: Mix, batch: BatchSpec, skew: Skew, count: usize, tag: u64| {
        let cfg = WorkloadConfig {
            mix,
            skew,
            batch,
            k: K,
            seed: sub_seed(seed, tag),
        };
        generate_requests(&cfg, wl.nodes, DIMENSION / 2, count)
    };
    let only = |similar, links, insert| Mix {
        similar,
        links,
        insert,
    };
    let open = stream(wl.mix, wl.batch, wl.skew, wl.open_count, 2);
    let closed = stream(wl.mix, wl.batch, wl.skew, wl.closed_count, 3);
    // Percentages must sum to 100: the insert share goes to similar-nodes.
    let reads = only(100 - wl.mix.links, wl.mix.links, 0);
    let warm = stream(reads, wl.batch, wl.skew, wl.closed_count / 3, 8);
    let one = BatchSpec { min: 1, max: 1 };
    let recall = stream(only(50, 50, 0), one, Skew::Uniform, RECALL_QUERIES, 4);
    let probe_similar = stream(only(100, 0, 0), wl.batch, wl.skew, PROBE_READS, 5);
    let probe_links = stream(only(0, 100, 0), wl.batch, wl.skew, PROBE_READS, 6);
    let probe_insert = stream(only(0, 0, 100), wl.batch, wl.skew, PROBE_INSERTS, 7);
    Ok(Inputs {
        generate_s: started.elapsed().as_secs_f64(),
        split,
        edges,
        attrs,
        labels,
        open,
        closed,
        warm,
        recall,
        probe_similar,
        probe_links,
        probe_insert,
    })
}
