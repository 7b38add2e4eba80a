//! The serving engine: one shared embedding store + two delta-capable
//! indexes, answering batched queries and absorbing incremental inserts.
//!
//! This is the state behind a `pane serve` daemon, the one query path:
//! the engine loads a store generation **once** and answers every read —
//! similar nodes, link recommendation and attribute inference — from the
//! shared structures:
//!
//! * the **embedding store** (`X_f`, `X_b`, `Y` from `pane-core`) — grown
//!   in place when nodes arrive, and scanned exactly for attribute
//!   inference (`d` rows of `Y`, no index);
//! * the **node index** over the `[X_f ‖ X_b]` classifier features
//!   (max-inner-product ⇒ the unified `cos_f + cos_b` score);
//! * the **link index** over `X_b` (max-inner-product ⇒ raw Eq. 22
//!   scores, with the `YᵀY` Gram matrix precomputed once).
//!
//! Both indexes are wrapped in [`DeltaIndex`], so an insert is O(dim) and
//! the very next query sees the new node. [`ServeEngine::compact`] folds
//! accumulated deltas back into optimized base structures by rebuilding
//! them — deterministically, from the engine's recorded [`IndexSpec`].
//!
//! # Durability
//!
//! Every engine is opened over a **store directory** ([`ServeEngine::open`],
//! backed by `pane-store`, created by `pane store init`) and is
//! restart-safe: [`Store::open`] replays the insert-ahead log into the
//! delta segments at boot, every [`ServeEngine::insert`] appends (and
//! syncs) a WAL record *before* the in-memory insert is acknowledged, and
//! [`ServeEngine::snapshot`] compacts the grown state into a fresh on-disk
//! generation and truncates the log.
//!
//! # Consistency model
//!
//! Inserts come from `pane-core`'s incremental path (`grow_embedding` +
//! `reembed_warm`): the caller re-embeds offline and pushes the *new*
//! nodes' rows. Existing rows are not retouched — the daemon serves the
//! embedding it loaded plus appended rows (eventual consistency; a full
//! refresh is a new store, `pane store init`, from the new embedding).

use crate::obs::{EngineObs, ServeObs};
use pane_core::{build_bases, top_k_filter, PaneEmbedding, QuerySpace, Scored};
use pane_index::{DeltaIndex, IndexError, IndexSpec, Neighbor, VectorIndex};
use pane_linalg::DenseMatrix;
use pane_obs::Level;
use pane_store::{OpenStore, Store, StoreError};
use std::path::Path;
use std::time::Instant;

/// Errors a serving request can produce.
#[derive(Debug)]
pub enum ServeError {
    /// The request is malformed or references unknown nodes.
    BadRequest(String),
    /// The underlying index rejected the operation.
    Index(IndexError),
    /// The durable store layer failed (WAL append, snapshot, open).
    Store(StoreError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::BadRequest(m) => write!(f, "bad request: {m}"),
            ServeError::Index(e) => write!(f, "index error: {e}"),
            ServeError::Store(e) => write!(f, "store error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<IndexError> for ServeError {
    fn from(e: IndexError) -> Self {
        ServeError::Index(e)
    }
}

impl From<StoreError> for ServeError {
    fn from(e: StoreError) -> Self {
        ServeError::Store(e)
    }
}

/// One scored hit returned to a client.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hit {
    /// Node id.
    pub node: usize,
    /// Score on the unified scale (see `pane-core`'s `query` docs).
    pub score: f64,
}

impl From<Neighbor> for Hit {
    fn from(n: Neighbor) -> Self {
        Hit {
            node: n.index,
            score: n.score,
        }
    }
}

/// Point-in-time view of one serving index (for `stats` responses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexStats {
    /// Index structure name (`flat` / `ivf` / `hnsw`).
    pub kind: &'static str,
    /// Vectors in the optimized base structure.
    pub base: usize,
    /// Vectors pending in the delta segment.
    pub delta: usize,
}

/// Durability facts surfaced in `stats` responses: which generation the
/// engine booted from and what the insert-ahead log holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreReport {
    /// Current on-disk base generation.
    pub generation: u64,
    /// Records currently in the WAL (replayed at boot + appended since).
    pub wal_records: usize,
    /// Bytes currently in the WAL file (header + records; summed across
    /// shards when sharded).
    pub wal_bytes: u64,
    /// Records replayed from the WAL when the engine booted.
    pub replayed: usize,
    /// Total on-disk bytes of the base generation's artifacts (summed
    /// across shards when sharded).
    pub artifact_bytes: u64,
}

/// Full engine status (the `stats` protocol response).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatusReport {
    /// Served nodes (loaded + inserted; global across shards).
    pub nodes: usize,
    /// Per-direction embedding width `k/2`.
    pub half_dim: usize,
    /// Worker threads for batched searches and compaction builds.
    pub threads: usize,
    /// Similar-nodes index stats (summed across shards when sharded).
    pub node_index: IndexStats,
    /// Link index stats (summed across shards when sharded).
    pub link_index: IndexStats,
    /// Durability facts of the store(s) behind the engine: `Some` from
    /// both engines, since every engine is opened over a store.
    pub store: Option<StoreReport>,
    /// Shard count, when the engine routes across a sharded store.
    pub shards: Option<usize>,
}

/// Result of a [`ServeBackend::snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotOutcome {
    /// New on-disk base generation (of shard 0 when sharded).
    pub generation: u64,
    /// Delta vectors folded into the new base(s).
    pub folded: usize,
}

/// What a serving transport needs from an engine — implemented by
/// [`ServeEngine`] (one store) and `ShardedEngine` (N stores routed by
/// `node_id % N`), so `serve_lines` / `serve_tcp` run either unchanged.
pub trait ServeBackend: Send + Sync {
    /// Batched similar-node search: for each query node, its top-`k`
    /// most similar nodes (self excluded) on the unified
    /// `cos_f + cos_b ∈ [-2, 2]` scale; output order matches `nodes`.
    fn similar_nodes(&self, nodes: &[usize], k: usize) -> Result<Vec<Vec<Hit>>, ServeError> {
        filtered_read(self, QuerySpace::Similar, nodes, k, &[])
    }
    /// Batched link recommendation: for each source node, the top-`k`
    /// destinations by the raw Eq. 22 score, excluding the source itself
    /// and every id in `exclude` (typically known out-neighbors).
    fn recommend_links(
        &self,
        nodes: &[usize],
        k: usize,
        exclude: &[usize],
    ) -> Result<Vec<Vec<Hit>>, ServeError> {
        filtered_read(self, QuerySpace::Links, nodes, k, exclude)
    }
    /// Attribute inference, batched: for each node, its exact top-`k`
    /// attributes by the Eq. 21 score ([`PaneEmbedding::top_attributes`]
    /// over the node's loaded or inserted rows), no index involved;
    /// output order matches `nodes`, attribute ids are global.
    fn top_attributes(&self, nodes: &[usize], k: usize) -> Result<Vec<Vec<Scored>>, ServeError>;
    /// The raw query vector of each node in `space`: classifier features
    /// for [`QuerySpace::Similar`], `q = X_f·YᵀY` link query vectors for
    /// [`QuerySpace::Links`]. This is the owner-shard half of a
    /// distributed query — a router fetches vectors from each node's
    /// owner daemon and fans them out to every shard's
    /// [`ServeBackend::search_raw`], which takes the matrix as returned
    /// (one row per node, in `nodes` order).
    fn query_vectors(&self, space: QuerySpace, nodes: &[usize]) -> Result<DenseMatrix, ServeError>;
    /// Unfiltered top-`fetch` search of one index with caller-supplied
    /// query vectors. Hit ids are in this backend's own id space (local
    /// ids for a single shard daemon, global ids for a sharded engine);
    /// no self- or exclude-filtering happens here — the merging caller
    /// owns that, exactly like the in-process sharded path.
    fn search_raw(
        &self,
        space: QuerySpace,
        queries: &DenseMatrix,
        fetch: usize,
    ) -> Result<Vec<Vec<Hit>>, ServeError>;
    /// Ingests one node's row pair, returning its assigned (global) id.
    fn insert(&mut self, forward: &[f64], backward: &[f64]) -> Result<usize, ServeError>;
    /// Folds delta segments into rebuilt in-memory bases; returns the
    /// number of vectors folded per index.
    fn compact(&mut self) -> usize;
    /// Compacts **and** commits a new durable generation, truncating the
    /// insert-ahead log.
    fn snapshot(&mut self) -> Result<SnapshotOutcome, ServeError>;
    /// Point-in-time status (the `stats` response).
    fn status(&self) -> StatusReport;
    /// Attaches serving-tier observability: the backend swaps its no-op
    /// instrumentation handles for ones registered in `obs`'s metrics
    /// registry (per shard when sharded) and emits its boot event.
    /// Default: no-op — uninstrumented backends keep working.
    fn attach_obs(&mut self, _obs: &ServeObs) {}
}

/// Both read ops, on any backend: the sources' query vectors, one
/// unfiltered search oversampled by the filter, the filter.
fn filtered_read<B: ServeBackend + ?Sized>(
    backend: &B,
    space: QuerySpace,
    nodes: &[usize],
    k: usize,
    exclude: &[usize],
) -> Result<Vec<Vec<Hit>>, ServeError> {
    let queries = backend.query_vectors(space, nodes)?;
    let (fetch, keep) = top_k_filter(k, exclude, |h: &Hit| h.node);
    let raw = backend.search_raw(space, &queries, fetch)?;
    Ok(nodes
        .iter()
        .zip(raw)
        .map(|(&v, hits)| keep(v, hits))
        .collect())
}

/// Validates a query's node-id list against the served id space — shared
/// by both engines and the router so the errors cannot drift.
pub(crate) fn check_nodes(n: usize, nodes: &[usize]) -> Result<(), ServeError> {
    if nodes.is_empty() {
        return Err(ServeError::BadRequest("empty node list".into()));
    }
    if let Some(&bad) = nodes.iter().find(|&&v| v >= n) {
        return Err(ServeError::BadRequest(format!(
            "node {bad} out of range (n = {n})"
        )));
    }
    Ok(())
}

/// Validates a raw query batch against `space`'s shape for `half_dim`.
pub(crate) fn check_queries(
    space: QuerySpace,
    half_dim: usize,
    queries: &DenseMatrix,
) -> Result<(), ServeError> {
    if queries.rows() == 0 {
        return Err(ServeError::BadRequest("empty query batch".into()));
    }
    let want = space.dim(half_dim);
    if queries.cols() != want {
        return Err(ServeError::BadRequest(format!(
            "{}-space queries must have {want} entries (got {})",
            space.name(),
            queries.cols()
        )));
    }
    Ok(())
}

/// The shared serving state. See the [module docs](self).
pub struct ServeEngine {
    emb: PaneEmbedding,
    /// `YᵀY`, precomputed once — link queries are `X_f[src] · gram`.
    gram: DenseMatrix,
    node_index: DeltaIndex,
    link_index: DeltaIndex,
    node_spec: IndexSpec,
    link_spec: IndexSpec,
    threads: usize,
    /// The store directory the engine was opened over.
    store: Store,
    /// Instrumentation handles (no-op until [`ServeBackend::attach_obs`]).
    obs: EngineObs,
}

impl ServeEngine {
    /// Opens a durable engine over a single store directory: loads the
    /// current base generation and replays the insert-ahead log, so every
    /// insert acknowledged before the last shutdown (clean or not) is
    /// served again.
    pub fn open(dir: &Path, threads: usize) -> Result<Self, ServeError> {
        Ok(Self::from_open_store(Store::open(dir)?, threads))
    }

    /// Wraps an already-opened store (the building block `ShardedEngine`
    /// uses per shard).
    pub fn from_open_store(opened: OpenStore, threads: usize) -> Self {
        let OpenStore {
            store,
            embedding,
            node_index,
            link_index,
        } = opened;
        Self {
            gram: embedding.link_gram(),
            node_spec: store.node_spec(),
            link_spec: store.link_spec(),
            node_index,
            link_index,
            emb: embedding,
            threads: threads.max(1),
            store,
            obs: EngineObs::noop(),
        }
    }

    /// Swaps in registered instrumentation handles, syncs the durability
    /// gauges to the store's current state, and emits the boot event.
    /// Called by [`ServeBackend::attach_obs`] (directly, or per shard by
    /// the sharded engine with `{shard="s"}`-labeled handles).
    pub(crate) fn set_engine_obs(&mut self, obs: EngineObs) {
        self.obs = obs;
        self.sync_store_gauges();
        self.obs
            .tracer
            .event(Level::Info, "engine.boot")
            .int_field("nodes", self.num_nodes() as u64)
            .int_field("half_dim", self.half_dim() as u64)
            .int_field("generation", self.store.generation())
            .int_field("wal_records", self.store.wal_records() as u64)
            .int_field("replayed", self.store.replayed() as u64)
            .int_field("recovered_bytes", self.store.recovered_bytes())
            .emit();
    }

    /// Mirrors the store's WAL size and generation into the gauges.
    fn sync_store_gauges(&self) {
        self.obs.wal_bytes.set(self.store.wal_bytes() as i64);
        self.obs.wal_records.set(self.store.wal_records() as i64);
        self.obs.generation.set(self.store.generation() as i64);
    }

    /// Number of served nodes (loaded + inserted).
    pub fn num_nodes(&self) -> usize {
        self.emb.forward.rows()
    }

    /// Per-direction embedding width `k/2`.
    pub fn half_dim(&self) -> usize {
        self.emb.forward.cols()
    }

    /// The served embedding (loaded rows plus inserted ones).
    pub(crate) fn embedding(&self) -> &PaneEmbedding {
        &self.emb
    }

    /// The index (base + delta) serving `space`.
    pub(crate) fn index(&self, space: QuerySpace) -> &DeltaIndex {
        match space {
            QuerySpace::Similar => &self.node_index,
            QuerySpace::Links => &self.link_index,
        }
    }

    /// Query vector of local node `v` in `space`, through the one shared
    /// kernel in `pane-core` (so scores cannot drift from `EmbeddingQuery`'s).
    pub(crate) fn query_vector(&self, space: QuerySpace, v: usize) -> Vec<f64> {
        space.query_vector(&self.emb, &self.gram, v)
    }

    /// Stats of the node (similar-nodes) index.
    pub fn node_stats(&self) -> IndexStats {
        IndexStats {
            kind: self.node_spec.kind_name(),
            base: self.node_index.base_len(),
            delta: self.node_index.delta_len(),
        }
    }

    /// Stats of the link (recommend-links) index.
    pub fn link_stats(&self) -> IndexStats {
        IndexStats {
            kind: self.link_spec.kind_name(),
            base: self.link_index.base_len(),
            delta: self.link_index.delta_len(),
        }
    }

    /// Durability facts of the store behind this engine.
    pub fn store_report(&self) -> StoreReport {
        StoreReport {
            generation: self.store.generation(),
            wal_records: self.store.wal_records(),
            wal_bytes: self.store.wal_bytes(),
            replayed: self.store.replayed(),
            artifact_bytes: self.store.artifact_bytes(),
        }
    }
}

impl ServeBackend for ServeEngine {
    fn top_attributes(&self, nodes: &[usize], k: usize) -> Result<Vec<Vec<Scored>>, ServeError> {
        check_nodes(self.num_nodes(), nodes)?;
        Ok(nodes
            .iter()
            .map(|&v| self.emb.top_attributes(v, k))
            .collect())
    }

    fn query_vectors(&self, space: QuerySpace, nodes: &[usize]) -> Result<DenseMatrix, ServeError> {
        check_nodes(self.num_nodes(), nodes)?;
        let mut queries = DenseMatrix::zeros(0, space.dim(self.half_dim()));
        for &v in nodes {
            queries.push_row(&self.query_vector(space, v));
        }
        Ok(queries)
    }

    /// Hit ids are this engine's own (local) ids; queries fan out over
    /// the engine's worker threads.
    fn search_raw(
        &self,
        space: QuerySpace,
        queries: &DenseMatrix,
        fetch: usize,
    ) -> Result<Vec<Vec<Hit>>, ServeError> {
        check_queries(space, self.half_dim(), queries)?;
        Ok(self
            .index(space)
            .batch_search(queries, fetch, self.threads)
            .into_iter()
            .map(|hits| hits.into_iter().map(Hit::from).collect())
            .collect())
    }

    /// Ingests one new node: appends its forward/backward rows to the
    /// embedding store and its derived vectors to both delta segments.
    /// Returns the assigned node id (dense, append-ordered — the same id
    /// `grow_embedding` gives the node on the offline side).
    ///
    /// The row pair is recorded (and synced) in the insert-ahead log
    /// **before** any in-memory state changes — an acknowledged insert
    /// survives a hard kill. The very next query can return the node; no
    /// rebuild happens here.
    fn insert(&mut self, forward: &[f64], backward: &[f64]) -> Result<usize, ServeError> {
        let k2 = self.half_dim();
        if forward.len() != k2 || backward.len() != k2 {
            return Err(ServeError::BadRequest(format!(
                "insert vectors must have k/2 = {k2} entries (got {} forward, {} backward)",
                forward.len(),
                backward.len()
            )));
        }
        if forward.iter().chain(backward).any(|x| !x.is_finite()) {
            return Err(ServeError::BadRequest(
                "insert vectors must be finite".into(),
            ));
        }
        let id = self.num_nodes();
        let report = self.store.append(id, forward, backward)?;
        self.obs.wal_append.observe_duration(report.write);
        self.obs.wal_fsync.observe_duration(report.sync);
        self.obs.wal_bytes.set(self.store.wal_bytes() as i64);
        self.obs.wal_records.set(self.store.wal_records() as i64);
        self.obs.inserts.inc();
        self.emb.forward.push_row(forward);
        self.emb.backward.push_row(backward);
        self.node_index
            .insert(&QuerySpace::Similar.row(&self.emb, id))?;
        self.link_index
            .insert(&QuerySpace::Links.row(&self.emb, id))?;
        Ok(id)
    }

    /// Folds both delta segments into freshly rebuilt base structures
    /// (per the engine's recorded specs, deterministic given the store).
    /// Returns the number of vectors folded per index.
    ///
    /// In-memory only: the WAL keeps its records, so a restart still
    /// replays them over the unchanged on-disk base — use
    /// [`Self::snapshot`] to make the compaction durable.
    fn compact(&mut self) -> usize {
        let folded = self.node_index.delta_len();
        let (node_base, link_base) =
            build_bases(&self.emb, &self.node_spec, &self.link_spec, self.threads);
        self.node_index = DeltaIndex::new(node_base);
        self.link_index = DeltaIndex::new(link_base);
        folded
    }

    /// Compacts and commits the result as a new on-disk generation:
    /// rebuilds both bases over the grown embedding, writes them (plus
    /// the embedding) into the next `gen-<g>/`, atomically swings the
    /// manifest, and truncates the insert-ahead log. The next
    /// [`ServeEngine::open`] boots from the new generation with an empty
    /// WAL and identical query results.
    fn snapshot(&mut self) -> Result<SnapshotOutcome, ServeError> {
        let started = Instant::now();
        let folded = self.node_index.delta_len();
        let (node_base, link_base) =
            build_bases(&self.emb, &self.node_spec, &self.link_spec, self.threads);
        let generation = self.store.snapshot(&self.emb, &node_base, &link_base)?;
        self.node_index = DeltaIndex::new(node_base);
        self.link_index = DeltaIndex::new(link_base);
        let dur = started.elapsed();
        self.obs.snapshot_seconds.observe_duration(dur);
        self.obs.snapshots.inc();
        self.sync_store_gauges();
        self.obs
            .tracer
            .event(Level::Info, "engine.snapshot")
            .int_field("generation", generation)
            .int_field("folded", folded as u64)
            .int_field("dur_ms", dur.as_millis() as u64)
            .emit();
        Ok(SnapshotOutcome { generation, folded })
    }

    fn status(&self) -> StatusReport {
        StatusReport {
            nodes: self.num_nodes(),
            half_dim: self.half_dim(),
            threads: self.threads,
            node_index: self.node_stats(),
            link_index: self.link_stats(),
            store: Some(self.store_report()),
            shards: None,
        }
    }

    fn attach_obs(&mut self, obs: &ServeObs) {
        self.set_engine_obs(obs.engine_obs(None));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::store_engine;
    use pane_core::{grow_embedding, reembed_warm, EmbeddingQuery, Pane, PaneConfig, QueryBackend};
    use pane_graph::gen::{generate_sbm, SbmConfig};
    use pane_index::{HnswConfig, IvfConfig};

    fn fixture() -> PaneEmbedding {
        let g = generate_sbm(&SbmConfig {
            nodes: 150,
            communities: 3,
            avg_out_degree: 6.0,
            attributes: 18,
            attrs_per_node: 4.0,
            seed: 17,
            ..Default::default()
        });
        Pane::new(PaneConfig::builder().dimension(16).seed(9).build())
            .embed(&g)
            .unwrap()
    }

    #[test]
    fn flat_engine_matches_embedding_query_exactly() {
        let emb = fixture();
        let q = EmbeddingQuery::new(&emb);
        let want = |hits: Vec<Neighbor>| hits.into_iter().map(Hit::from).collect::<Vec<_>>();
        // Twelve nodes over two workers (two blocks of six), then one
        // request of seven on one worker: three query pairs and a
        // trailing single through the block scan.
        let twelve: Vec<usize> = (0..150).step_by(13).collect();
        for (threads, nodes) in [(2, &twelve[..]), (1, &[3, 149, 77, 20, 21, 98, 5][..])] {
            let (engine, _dir) = store_engine(&emb, &IndexSpec::Flat, threads);
            let sim = engine.similar_nodes(nodes, 5).unwrap();
            let links = engine.recommend_links(nodes, 5, &[]).unwrap();
            for (i, &v) in nodes.iter().enumerate() {
                assert_eq!(
                    sim[i],
                    want(q.similar_nodes(v, 5)),
                    "similar diverged at {v}"
                );
                assert_eq!(
                    links[i],
                    want(q.recommend_links(v, 5, &[])),
                    "links diverged at {v}"
                );
            }
        }
    }

    #[test]
    fn exact_and_ann_engines_share_the_score_scale() {
        let emb = fixture();
        let (flat, _flat_dir) = store_engine(&emb, &IndexSpec::Flat, 1);
        let (hnsw, _hnsw_dir) = store_engine(&emb, &IndexSpec::Hnsw(HnswConfig::default()), 1);
        let nodes = [0usize, 7, 33];
        let a = flat.similar_nodes(&nodes, 5).unwrap();
        let b = hnsw.similar_nodes(&nodes, 5).unwrap();
        for (fa, fb) in a.iter().zip(&b) {
            for h in fa.iter().chain(fb.iter()) {
                assert!((-2.0 - 1e-9..=2.0 + 1e-9).contains(&h.score));
            }
            // Wherever both backends return the same node, the score is
            // identical — one documented scale, not two.
            for ha in fa {
                if let Some(hb) = fb.iter().find(|h| h.node == ha.node) {
                    assert_eq!(ha.score, hb.score);
                }
            }
        }
    }

    #[test]
    fn inserted_node_is_served_without_rebuild_and_compaction_folds_it() {
        let g0 = generate_sbm(&SbmConfig {
            nodes: 120,
            communities: 3,
            avg_out_degree: 5.0,
            attributes: 15,
            attrs_per_node: 3.0,
            seed: 4,
            ..Default::default()
        });
        let cfg = PaneConfig::builder().dimension(16).seed(2).build();
        let old = Pane::new(cfg.clone()).embed(&g0).unwrap();
        let (mut engine, _dir) = store_engine(
            &old,
            &IndexSpec::Ivf(IvfConfig {
                nlist: 8,
                nprobe: 8,
                ..Default::default()
            }),
            2,
        );

        // A new node arrives: grow the graph, warm-restart offline (the
        // pane-core incremental path), then push only the new node's rows.
        let n = g0.num_nodes();
        let mut b = pane_graph::GraphBuilder::new(n + 1, g0.num_attributes());
        for (i, j, _) in g0.adjacency().iter() {
            b.add_edge(i, j);
        }
        for (v, r, w) in g0.attributes().iter() {
            b.add_attribute(v, r, w);
        }
        b.add_edge(n, 0);
        b.add_edge(1, n);
        b.add_attribute(n, 0, 1.0);
        let g1 = b.build();
        let warm = reembed_warm(&cfg, &g1, &grow_embedding(&old, 1), 2).unwrap();

        let id = engine
            .insert(warm.forward.row(n), warm.backward.row(n))
            .unwrap();
        assert_eq!(id, n);
        assert_eq!(engine.num_nodes(), n + 1);
        assert_eq!(engine.node_stats().delta, 1);

        // The fresh node is immediately queryable: its own top-1 under
        // the unified scale is itself-excluded, so search *for* it and
        // check it can be *found* as a neighbor of its closest peer.
        let sim = engine.similar_nodes(&[id], 5).unwrap();
        assert_eq!(sim[0].len(), 5);
        let peer = sim[0][0].node;
        let back = engine.similar_nodes(&[peer], 120).unwrap();
        assert!(
            back[0].iter().any(|h| h.node == id),
            "inserted node never surfaces as a neighbor"
        );

        // Compaction folds the delta into the rebuilt base.
        let folded = engine.compact();
        assert_eq!(folded, 1);
        assert_eq!(engine.node_stats().delta, 0);
        assert_eq!(engine.node_stats().base, n + 1);
        let sim2 = engine.similar_nodes(&[id], 5).unwrap();
        assert_eq!(sim2[0].len(), 5);
    }

    #[test]
    fn bad_requests_are_structured_errors() {
        let emb = fixture();
        let (mut engine, _dir) = store_engine(&emb, &IndexSpec::Flat, 1);
        assert!(matches!(
            engine.similar_nodes(&[9999], 3),
            Err(ServeError::BadRequest(_))
        ));
        assert!(matches!(
            engine.similar_nodes(&[], 3),
            Err(ServeError::BadRequest(_))
        ));
        assert!(matches!(
            engine.insert(&[1.0], &[1.0]),
            Err(ServeError::BadRequest(_))
        ));
        let k2 = engine.half_dim();
        assert!(matches!(
            engine.insert(&vec![f64::NAN; k2], &vec![0.0; k2]),
            Err(ServeError::BadRequest(_))
        ));
        // A refused insert is refused before the log: nothing to replay.
        assert_eq!(engine.store_report().wal_records, 0);
    }

    #[test]
    fn engine_backends_agree_with_flat_query_backend() {
        // QueryBackend::Flat (per-query machinery) and the daemon engine
        // must agree bit-for-bit — same kernels, same unified scale.
        let emb = fixture();
        let q = EmbeddingQuery::with_backend(&emb, &QueryBackend::Flat);
        let (engine, _dir) = store_engine(&emb, &IndexSpec::Flat, 3);
        for v in (0..150).step_by(29) {
            let want: Vec<Hit> = q
                .similar_nodes(v, 4)
                .into_iter()
                .map(|s| Hit {
                    node: s.index,
                    score: s.score,
                })
                .collect();
            assert_eq!(engine.similar_nodes(&[v], 4).unwrap()[0], want);
        }
    }

    #[test]
    fn raw_primitives_reconstruct_the_filtered_query_paths() {
        // query_vectors + search_raw are the wire-level building blocks a
        // router uses; composing them by hand must reproduce the engine's
        // own similar_nodes / recommend_links bit-for-bit.
        let emb = fixture();
        let (engine, _dir) = store_engine(&emb, &IndexSpec::Flat, 2);
        let nodes: Vec<usize> = (0..150).step_by(11).collect();
        let k = 6;

        let qv = engine.query_vectors(QuerySpace::Similar, &nodes).unwrap();
        let raw = engine.search_raw(QuerySpace::Similar, &qv, k + 1).unwrap();
        let composed: Vec<Vec<Hit>> = nodes
            .iter()
            .zip(raw)
            .map(|(&v, hits)| hits.into_iter().filter(|h| h.node != v).take(k).collect())
            .collect();
        assert_eq!(composed, engine.similar_nodes(&nodes, k).unwrap());

        let exclude = [3usize, 17];
        let qv = engine.query_vectors(QuerySpace::Links, &nodes).unwrap();
        let raw = engine
            .search_raw(QuerySpace::Links, &qv, k + exclude.len() + 1)
            .unwrap();
        let composed: Vec<Vec<Hit>> = nodes
            .iter()
            .zip(raw)
            .map(|(&v, hits)| {
                hits.into_iter()
                    .filter(|h| h.node != v && !exclude.contains(&h.node))
                    .take(k)
                    .collect()
            })
            .collect();
        assert_eq!(
            composed,
            engine.recommend_links(&nodes, k, &exclude).unwrap()
        );

        // Shape errors are structured, not panics.
        assert!(matches!(
            engine.search_raw(QuerySpace::Links, &DenseMatrix::zeros(1, 3), 4),
            Err(ServeError::BadRequest(_))
        ));
        assert!(matches!(
            engine.search_raw(QuerySpace::Similar, &DenseMatrix::zeros(0, 0), 4),
            Err(ServeError::BadRequest(_))
        ));
        assert!(matches!(
            engine.query_vectors(QuerySpace::Similar, &[9999]),
            Err(ServeError::BadRequest(_))
        ));
    }

    #[test]
    fn durable_engine_replays_acknowledged_inserts_after_hard_stop() {
        let dir = std::env::temp_dir().join(format!("pane_engine_store_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let emb = fixture();
        let n = emb.forward.rows();
        let k2 = emb.forward.cols();
        pane_store::Store::init(&dir, &emb, &IndexSpec::Flat, &IndexSpec::Flat, 2).unwrap();

        // Session 1: insert, acknowledge, hard-stop (drop — no shutdown,
        // no compaction, no snapshot).
        let probe: Vec<f64> = (0..k2).map(|i| 0.05 * (i + 1) as f64).collect();
        {
            let mut engine = ServeEngine::open(&dir, 2).unwrap();
            assert_eq!(engine.status().store.unwrap().replayed, 0);
            let id = engine.insert(&probe, &probe).unwrap();
            assert_eq!(id, n);
        }

        // Session 2: the insert is replayed and served.
        let mut engine = ServeEngine::open(&dir, 2).unwrap();
        let report = engine.status().store.unwrap();
        assert_eq!(report.replayed, 1);
        assert_eq!(report.wal_records, 1);
        assert_eq!(engine.num_nodes(), n + 1);
        let before = engine.similar_nodes(&[n], 5).unwrap();
        assert_eq!(before[0].len(), 5);

        // Snapshot: new generation, WAL empty, identical answers.
        let out = engine.snapshot().unwrap();
        assert_eq!(out.generation, 2);
        assert_eq!(out.folded, 1);
        drop(engine);
        let engine = ServeEngine::open(&dir, 2).unwrap();
        let report = engine.status().store.unwrap();
        assert_eq!(
            (report.generation, report.wal_records, report.replayed),
            (2, 0, 0)
        );
        assert_eq!(engine.similar_nodes(&[n], 5).unwrap(), before);
        std::fs::remove_dir_all(&dir).ok();
    }
}
