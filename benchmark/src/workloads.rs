//! The four workloads. Every number here is frozen: rates and latency
//! limits are constants, never derived at run time from what the run
//! measured (README.md says how each was chosen).

use pane::pane_index::{HnswConfig, IndexSpec, IvfConfig, SqConfig};
use pane_loadgen::{BatchSpec, Mix, Skew};

/// Embedding width `k`, stopping probability `α` and error threshold `ε`
/// of every workload (the paper's α and ε defaults).
pub const DIMENSION: usize = 64;
pub const ALPHA: f64 = 0.5;
pub const EPSILON: f64 = 0.015;
/// Share of edges held out for link prediction (paper §5.3).
pub const HELD_OUT: f64 = 0.3;
/// Open-loop sender threads.
pub const SENDERS: usize = 2;
/// Callers of every warm-up, and of the traced run's closed loops next to
/// its one-caller pass.
pub const CALLERS: usize = 2;
/// Worker threads of the serving engine: `pane serve`'s default. One
/// engine thread serves each request on its caller's thread instead of
/// spawning workers per request.
pub const SERVE_THREADS: usize = 1;
/// Timed cycles a run makes at least, however short `--seconds` is.
pub const MIN_CYCLES: usize = 2;
/// Set-ups at the start of every cycle; `setup_s` is read off all of them.
pub const SETUPS_PER_CYCLE: usize = 3;
/// Queries behind `recall_at_10`, half similar-nodes and half
/// recommend-links.
pub const RECALL_QUERIES: usize = 1000;
/// Served answers compared bit for bit with the exact scan, per space
/// whose index is Flat.
pub const EXACT_SAMPLES: usize = 200;

#[derive(Clone)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    // SBM graph.
    pub nodes: usize,
    pub attributes: usize,
    pub out_degree: f64,
    pub attrs_per_node: f64,
    // Store.
    pub node_spec: IndexSpec,
    pub link_spec: IndexSpec,
    /// 1 = a single `Store`; more = a `ShardedStore`.
    pub shards: usize,
    // Traffic.
    pub mix: Mix,
    pub batch: BatchSpec,
    pub skew: Skew,
    /// Open-loop stream A: request count and fixed rate (requests/s).
    pub open_count: usize,
    pub open_rate: f64,
    /// Closed-loop stream B: request count and callers.
    pub closed_count: usize,
    pub callers: usize,
    /// Latency limit behind `slo_share`.
    pub slo_ms: f64,
}

const IVF: IndexSpec = IndexSpec::Ivf(IvfConfig {
    nlist: 64,
    nprobe: 8,
    train_iters: 10,
    seed: 0,
    threads: 1,
});

const fn mix(similar: u32, links: u32, insert: u32) -> Mix {
    Mix {
        similar,
        links,
        insert,
    }
}

pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "embed-wide",
            why: "attribute dimension dominates: dense n*d affinity, randomized SVD and CCD do the work; index, store and serve do almost nothing",
            nodes: 2000,
            attributes: 1000,
            out_degree: 12.0,
            attrs_per_node: 30.0,
            node_spec: IndexSpec::Flat,
            link_spec: IndexSpec::Flat,
            shards: 1,
            mix: mix(80, 20, 0),
            batch: BatchSpec { min: 1, max: 4 },
            skew: Skew::Zipf(1.1),
            open_count: 2000,
            open_rate: 4500.0,
            closed_count: 8000,
            callers: 2,
            slo_ms: 0.8,
        },
        Workload {
            name: "embed-deep",
            why: "node and edge counts dominate: graph loading, sparse products and the k-means index build do the work; the dense d work is small",
            nodes: 12000,
            attributes: 96,
            out_degree: 20.0,
            attrs_per_node: 6.0,
            node_spec: IVF,
            link_spec: IVF,
            shards: 1,
            mix: mix(80, 20, 0),
            batch: BatchSpec { min: 1, max: 4 },
            skew: Skew::Uniform,
            open_count: 2000,
            open_rate: 4300.0,
            closed_count: 5000,
            callers: 2,
            slo_ms: 1.0,
        },
        Workload {
            name: "serve-scan",
            why: "read-only traffic on flat f64 and i8 scans: the scan kernels and batch_search blocking do the work; nothing is written and the build is short",
            nodes: 12000,
            attributes: 64,
            out_degree: 12.0,
            attrs_per_node: 6.0,
            node_spec: IndexSpec::Flat,
            link_spec: IndexSpec::SqFlat(SqConfig { rerank: 4 }),
            shards: 1,
            mix: mix(70, 30, 0),
            batch: BatchSpec { min: 4, max: 8 },
            skew: Skew::Uniform,
            open_count: 330,
            open_rate: 330.0,
            closed_count: 500,
            callers: 1,
            slo_ms: 5.0,
        },
        Workload {
            name: "serve-mixed",
            why: "5% durable inserts on a 2-shard HNSW/IVF store: WAL fsync, delta tails merged into reads, sharded fan-out and WAL replay at boot; a read gain that costs writes shows here",
            nodes: 5000,
            attributes: 64,
            out_degree: 12.0,
            attrs_per_node: 6.0,
            node_spec: IndexSpec::Hnsw(HnswConfig {
                m: 16,
                ef_construction: 100,
                ef_search: 64,
                seed: 0,
            }),
            link_spec: IVF,
            shards: 2,
            mix: mix(75, 20, 5),
            batch: BatchSpec { min: 1, max: 4 },
            skew: Skew::Uniform,
            open_count: 1200,
            open_rate: 1500.0,
            closed_count: 2500,
            callers: 2,
            slo_ms: 2.0,
        },
    ]
}

impl Workload {
    /// The same shape at a size that runs in a second or two, for
    /// `--self-test`: every phase and check runs, no number means much.
    pub fn smoke(&self) -> Workload {
        Workload {
            nodes: (self.nodes / 16).max(600),
            attributes: self.attributes.min(96),
            out_degree: self.out_degree.min(8.0),
            attrs_per_node: self.attrs_per_node.min(8.0),
            open_count: 500,
            open_rate: 4000.0,
            closed_count: 600,
            slo_ms: 1000.0,
            ..self.clone()
        }
    }
}
