//! Sharded serving: one engine per store shard, routed by `node_id % N`,
//! merged under the shared score order.
//!
//! [`ShardedEngine`] opens every shard of a `pane-store` sharded root as
//! its own [`ServeEngine`] (each with its own base generation, delta
//! segments, and insert-ahead log) and presents the union as a single
//! [`ServeBackend`]:
//!
//! * **queries** — the owner shard supplies the query vector (classifier
//!   features / `q = X_f·YᵀY`; every shard holds the full `Y`, so link
//!   query vectors are bit-identical regardless of owner), every shard
//!   answers over its local index, and the per-shard top-k lists are
//!   merged under the *same* total order every index uses
//!   (`topk::cmp_ranked`: score desc, `NaN` last, ties by ascending
//!   global id). With exact (flat) shards the merged top-k is therefore
//!   **bit-identical** to the unsharded exact scan — each global top-k
//!   member is necessarily inside its own shard's local top-k;
//! * **inserts** — the next global id `n` routes to shard `n % N`,
//!   which WAL-appends and acknowledges; round-robin assignment keeps
//!   the shards balanced (the invariant `ShardedStore::open` checks);
//! * **compact / snapshot** — applied per shard; a snapshot commits one
//!   new generation in every shard directory.
//!
//! The layout and id arithmetic live in `pane-store` (`shard_of` /
//! `local_of` / `global_of`), so the directory split and the query
//! routing cannot disagree. This is the single-process sharding path; a
//! multi-daemon deployment points one `pane serve --store` at each shard
//! directory and merges in a thin proxy with the same comparator.

use crate::engine::{
    check_nodes, check_queries, Hit, IndexStats, ServeBackend, ServeEngine, ServeError,
    SnapshotOutcome, StatusReport, StoreReport,
};
use crate::obs::ServeObs;
use pane_core::QuerySpace;
use pane_index::{topk, VectorIndex};
use pane_linalg::DenseMatrix;
use pane_obs::{latency_buckets, Histogram};
use pane_parallel::{even_ranges_nonempty, map_blocks};
use pane_store::{global_of, local_of, shard_of, ShardedStore};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// The shard merge: one query's per-shard candidates, as `(global id,
/// score)` in shard order, ranked under the total order every index uses
/// and cut to `fetch` — shared by [`ShardedEngine`] and the router, so a
/// routed answer cannot rank differently from an in-process one.
pub(crate) fn merge_shard_hits(
    candidates: impl Iterator<Item = (usize, f64)>,
    fetch: usize,
) -> Vec<Hit> {
    topk::select(candidates, fetch)
        .into_iter()
        .map(Hit::from)
        .collect()
}

/// N shard engines behind one global id space. See the [module docs](self).
pub struct ShardedEngine {
    shards: Vec<ServeEngine>,
    threads: usize,
    /// Fan-out + merge latency (unregistered until `attach_obs`).
    fanout: Arc<Histogram>,
}

impl ShardedEngine {
    /// Opens every shard of a sharded store root (replaying each WAL).
    pub fn open(root: &Path, threads: usize) -> Result<Self, ServeError> {
        let opened = ShardedStore::open(root)?;
        let threads = threads.max(1);
        Ok(Self {
            shards: opened
                .into_iter()
                .map(|o| ServeEngine::from_open_store(o, threads))
                .collect(),
            threads,
            fanout: Arc::new(Histogram::new(&latency_buckets())),
        })
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total served nodes across all shards.
    pub fn num_nodes(&self) -> usize {
        self.shards.iter().map(|s| s.num_nodes()).sum()
    }

    /// Per-direction embedding width `k/2`.
    pub fn half_dim(&self) -> usize {
        self.shards[0].half_dim()
    }

    /// Runs `queries` against `space`'s index of every shard and merges
    /// each query's per-shard hit lists (local ids mapped to global) under
    /// the shared total order.
    ///
    /// Shards are searched **concurrently** under the engine's thread
    /// budget — sharded query latency tracks the slowest shard, not the
    /// sum of all shards. The budget is split: shards are partitioned
    /// into `min(threads, shards)` groups searched in parallel, and each
    /// shard's own `batch_search` gets `threads / groups` workers, so
    /// total concurrency never exceeds `threads`. `batch_search` is
    /// thread-count invariant and the merge below iterates shards in
    /// order, so the result is bit-identical to the old sequential scan.
    fn fan_out_merge(
        &self,
        space: QuerySpace,
        queries: &DenseMatrix,
        fetch: usize,
    ) -> Vec<Vec<Hit>> {
        let started = Instant::now();
        let n_shards = self.shards.len();
        let groups = even_ranges_nonempty(n_shards, self.threads.min(n_shards));
        let inner_threads = (self.threads / groups.len()).max(1);
        let per_shard: Vec<Vec<Vec<pane_index::Neighbor>>> = map_blocks(&groups, |_, range| {
            range
                .map(|s| {
                    self.shards[s]
                        .index(space)
                        .batch_search(queries, fetch, inner_threads)
                })
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect();
        let merged = (0..queries.rows())
            .map(|qi| {
                merge_shard_hits(
                    per_shard.iter().enumerate().flat_map(|(s, batched)| {
                        batched[qi]
                            .iter()
                            .map(move |h| (global_of(s, h.index, n_shards), h.score))
                    }),
                    fetch,
                )
            })
            .collect();
        self.fanout.observe_duration(started.elapsed());
        merged
    }
}

impl ServeBackend for ShardedEngine {
    /// The owner shard supplies each node's vector (every shard holds the
    /// full `Y`, so link query vectors do not depend on the owner).
    fn query_vectors(&self, space: QuerySpace, nodes: &[usize]) -> Result<DenseMatrix, ServeError> {
        check_nodes(self.num_nodes(), nodes)?;
        let n_shards = self.shards.len();
        let mut queries = DenseMatrix::zeros(0, space.dim(self.half_dim()));
        for &v in nodes {
            let owner = &self.shards[shard_of(v, n_shards)];
            queries.push_row(&owner.query_vector(space, local_of(v, n_shards)));
        }
        Ok(queries)
    }

    fn search_raw(
        &self,
        space: QuerySpace,
        queries: &DenseMatrix,
        fetch: usize,
    ) -> Result<Vec<Vec<Hit>>, ServeError> {
        check_queries(space, self.half_dim(), queries)?;
        Ok(self.fan_out_merge(space, queries, fetch))
    }

    fn insert(&mut self, forward: &[f64], backward: &[f64]) -> Result<usize, ServeError> {
        let n_shards = self.shards.len();
        let global = self.num_nodes();
        let owner = shard_of(global, n_shards);
        let local = self.shards[owner].insert(forward, backward)?;
        debug_assert_eq!(local, local_of(global, n_shards));
        Ok(global)
    }

    fn compact(&mut self) -> usize {
        self.shards.iter_mut().map(|s| s.compact()).sum()
    }

    fn snapshot(&mut self) -> Result<SnapshotOutcome, ServeError> {
        // Shard snapshots commit independently (each shard stays
        // internally consistent); a mid-loop failure therefore names
        // exactly which shards already committed, and a retry converges
        // — a shard snapshotted twice just writes another generation.
        let mut folded = 0;
        let mut generation = 0;
        for (s, shard) in self.shards.iter_mut().enumerate() {
            let out = shard.snapshot().map_err(|e| {
                ServeError::Store(pane_store::StoreError::Format(format!(
                    "shard {s} snapshot failed ({e}); shards 0..{s} already committed their \
                     new generations — each shard is still consistent, retry the snapshot \
                     to converge the remainder"
                )))
            })?;
            folded += out.folded;
            generation = out.generation;
        }
        Ok(SnapshotOutcome { generation, folded })
    }

    fn status(&self) -> StatusReport {
        let sum_stats = |pick: fn(&ServeEngine) -> IndexStats| {
            let first = pick(&self.shards[0]);
            IndexStats {
                kind: first.kind,
                base: self.shards.iter().map(|s| pick(s).base).sum(),
                delta: self.shards.iter().map(|s| pick(s).delta).sum(),
            }
        };
        let store = self.shards[0].store_report().map(|first| StoreReport {
            // The *minimum* across shards: "every shard is at least at
            // this generation". After an interrupted sharded snapshot
            // the shards can straddle two generations; reporting the
            // laggard surfaces the divergence instead of masking it.
            generation: self
                .shards
                .iter()
                .filter_map(|s| s.store_report())
                .map(|r| r.generation)
                .min()
                .unwrap_or(first.generation),
            wal_records: self
                .shards
                .iter()
                .filter_map(|s| s.store_report())
                .map(|r| r.wal_records)
                .sum(),
            wal_bytes: self
                .shards
                .iter()
                .filter_map(|s| s.store_report())
                .map(|r| r.wal_bytes)
                .sum(),
            replayed: self
                .shards
                .iter()
                .filter_map(|s| s.store_report())
                .map(|r| r.replayed)
                .sum(),
            // One format when the shards agree; "mixed" surfaces a
            // partially migrated root instead of masking it.
            format: if self
                .shards
                .iter()
                .filter_map(|s| s.store_report())
                .all(|r| r.format == first.format)
            {
                first.format
            } else {
                "mixed"
            },
            artifact_bytes: self
                .shards
                .iter()
                .filter_map(|s| s.store_report())
                .map(|r| r.artifact_bytes)
                .sum(),
        });
        StatusReport {
            nodes: self.num_nodes(),
            half_dim: self.half_dim(),
            threads: self.threads,
            node_index: sum_stats(ServeEngine::node_stats),
            link_index: sum_stats(ServeEngine::link_stats),
            store,
            shards: Some(self.shards.len()),
        }
    }

    fn attach_obs(&mut self, obs: &ServeObs) {
        self.fanout = obs.fanout_histogram();
        for (s, shard) in self.shards.iter_mut().enumerate() {
            shard.set_engine_obs(obs.engine_obs(Some(s)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pane_core::{Pane, PaneConfig, PaneEmbedding};
    use pane_graph::gen::{generate_sbm, SbmConfig};
    use pane_index::IndexSpec;

    fn fixture(nodes: usize) -> PaneEmbedding {
        let g = generate_sbm(&SbmConfig {
            nodes,
            communities: 4,
            avg_out_degree: 6.0,
            attributes: 20,
            attrs_per_node: 4.0,
            seed: 23,
            ..Default::default()
        });
        Pane::new(PaneConfig::builder().dimension(12).seed(5).build())
            .embed(&g)
            .unwrap()
    }

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("pane_sharded_{}_{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn sharded_flat_top_k_is_bit_identical_to_unsharded_exact_scan() {
        let emb = fixture(121);
        let root = tmpdir("bitident");
        for shards in [2usize, 3] {
            std::fs::remove_dir_all(&root).ok();
            ShardedStore::init(&root, &emb, &IndexSpec::Flat, &IndexSpec::Flat, shards, 2).unwrap();
            let sharded = ShardedEngine::open(&root, 2).unwrap();
            let unsharded = ServeEngine::build(emb.clone(), &IndexSpec::Flat, 2);
            assert_eq!(sharded.num_nodes(), 121);
            let nodes: Vec<usize> = (0..121).step_by(7).collect();
            assert_eq!(
                ServeBackend::similar_nodes(&sharded, &nodes, 10).unwrap(),
                unsharded.similar_nodes(&nodes, 10).unwrap(),
                "{shards}-way similar-nodes diverged from the exact scan"
            );
            assert_eq!(
                ServeBackend::recommend_links(&sharded, &nodes, 8, &[3, 11]).unwrap(),
                unsharded.recommend_links(&nodes, 8, &[3, 11]).unwrap(),
                "{shards}-way recommend-links diverged from the exact scan"
            );
        }
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn parallel_fan_out_is_thread_count_invariant() {
        // The shard fan-out runs concurrently under the thread budget;
        // results must not depend on how the budget splits across shards
        // (1 thread = the old sequential scan, 5 > shards oversubscribes).
        let emb = fixture(90);
        let root = tmpdir("threads");
        ShardedStore::init(&root, &emb, &IndexSpec::Flat, &IndexSpec::Flat, 3, 1).unwrap();
        let nodes: Vec<usize> = (0..90).step_by(5).collect();
        let baseline = {
            let eng = ShardedEngine::open(&root, 1).unwrap();
            (
                ServeBackend::similar_nodes(&eng, &nodes, 7).unwrap(),
                ServeBackend::recommend_links(&eng, &nodes, 7, &[1, 2]).unwrap(),
            )
        };
        for threads in [2usize, 3, 5] {
            let eng = ShardedEngine::open(&root, threads).unwrap();
            assert_eq!(
                ServeBackend::similar_nodes(&eng, &nodes, 7).unwrap(),
                baseline.0,
                "similar-nodes diverged at {threads} threads"
            );
            assert_eq!(
                ServeBackend::recommend_links(&eng, &nodes, 7, &[1, 2]).unwrap(),
                baseline.1,
                "recommend-links diverged at {threads} threads"
            );
        }
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn sharded_raw_primitives_match_the_filtered_path() {
        let emb = fixture(61);
        let root = tmpdir("raw");
        ShardedStore::init(&root, &emb, &IndexSpec::Flat, &IndexSpec::Flat, 2, 1).unwrap();
        let eng = ShardedEngine::open(&root, 2).unwrap();
        let nodes: Vec<usize> = (0..61).step_by(9).collect();
        let k = 5;
        let qv = eng.query_vectors(QuerySpace::Similar, &nodes).unwrap();
        let raw = eng.search_raw(QuerySpace::Similar, &qv, k + 1).unwrap();
        let composed: Vec<Vec<Hit>> = nodes
            .iter()
            .zip(raw)
            .map(|(&v, hits)| hits.into_iter().filter(|h| h.node != v).take(k).collect())
            .collect();
        assert_eq!(
            composed,
            ServeBackend::similar_nodes(&eng, &nodes, k).unwrap()
        );
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn sharded_inserts_route_round_robin_and_survive_reopen() {
        let emb = fixture(60);
        let n = emb.forward.rows();
        let k2 = emb.forward.cols();
        let root = tmpdir("insert");
        ShardedStore::init(&root, &emb, &IndexSpec::Flat, &IndexSpec::Flat, 2, 1).unwrap();
        let probe: Vec<f64> = (0..k2).map(|i| 0.02 * (i + 1) as f64).collect();
        {
            let mut eng = ShardedEngine::open(&root, 1).unwrap();
            for i in 0..3 {
                let id = eng.insert(&probe, &probe).unwrap();
                assert_eq!(id, n + i);
            }
            let st = eng.status();
            assert_eq!(st.nodes, n + 3);
            assert_eq!(st.shards, Some(2));
            assert_eq!(st.store.unwrap().wal_records, 3);
        } // hard stop

        let eng = ShardedEngine::open(&root, 1).unwrap();
        let st = eng.status();
        assert_eq!(st.nodes, n + 3);
        assert_eq!(st.store.unwrap().replayed, 3);
        // The grown engine still answers queries over the inserted ids.
        let hits = ServeBackend::similar_nodes(&eng, &[n, n + 1, n + 2], 4).unwrap();
        assert_eq!(hits.len(), 3);
        // Two identical inserted rows are each other's nearest neighbors
        // (scores identical, tie broken by id — across shards).
        assert_eq!(hits[0][0].node, n + 1);
        assert_eq!(hits[1][0].node, n);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn sharded_snapshot_commits_every_shard() {
        let emb = fixture(40);
        let k2 = emb.forward.cols();
        let root = tmpdir("snap");
        ShardedStore::init(&root, &emb, &IndexSpec::Flat, &IndexSpec::Flat, 2, 1).unwrap();
        let mut eng = ShardedEngine::open(&root, 1).unwrap();
        let probe = vec![0.3; k2];
        eng.insert(&probe, &probe).unwrap();
        let out = eng.snapshot().unwrap();
        assert_eq!(out.generation, 2);
        assert_eq!(out.folded, 1);
        drop(eng);
        let eng = ShardedEngine::open(&root, 1).unwrap();
        let st = eng.status();
        assert_eq!(st.nodes, 41);
        let store = st.store.unwrap();
        assert_eq!(
            (store.generation, store.wal_records, store.replayed),
            (2, 0, 0)
        );
        std::fs::remove_dir_all(&root).ok();
    }
}
