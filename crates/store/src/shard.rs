//! Sharded store roots: N single stores behind one directory, routed by
//! `node_id % N`.
//!
//! ```text
//! ROOT/
//!   MANIFEST        PANESTR1 manifest: `shards N`
//!   shard-000/      a complete single store (see `store`)
//!   shard-001/
//!   …
//! ```
//!
//! Global node ids are round-robin partitioned: global id `g` lives in
//! shard `g % N` at local id `g / N` ([`shard_of`] / [`local_of`] /
//! [`global_of`]). The partition is *dense per shard*: after any prefix
//! of global inserts, shard sizes differ by at most one, and
//! [`ShardedStore::open`] verifies the invariant so a shard directory
//! swapped in from elsewhere fails the open instead of mis-routing ids.
//!
//! The query-side top-k merge across shards lives in `pane-serve`
//! (`ShardedEngine`); this module owns the directory layout and the
//! id arithmetic, so the two cannot disagree on routing.

use crate::manifest::{Manifest, MANIFEST_FILE};
use crate::store::{OpenStore, Store, StoreStatus};
use crate::StoreError;
use pane_core::{PaneEmbedding, PaneTimings};
use pane_index::IndexSpec;
use pane_linalg::DenseMatrix;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Shard that owns global node id `g` under an `N`-way store.
pub fn shard_of(global: usize, shards: usize) -> usize {
    global % shards
}

/// Local (within-shard) id of global node id `g` under an `N`-way store.
pub fn local_of(global: usize, shards: usize) -> usize {
    global / shards
}

/// Global node id of local id `l` in shard `s` under an `N`-way store.
pub fn global_of(shard: usize, local: usize, shards: usize) -> usize {
    local * shards + shard
}

/// Directory of shard `s` under `root`.
pub fn shard_dir(root: &Path, shard: usize) -> PathBuf {
    root.join(format!("shard-{shard:03}"))
}

/// Number of nodes a balanced round-robin partition places in shard `s`
/// out of `n` total across `shards` shards.
pub fn expected_shard_len(n: usize, shard: usize, shards: usize) -> usize {
    (n + shards - 1 - shard) / shards
}

/// A sharded store root. The type is a namespace: open/init return the
/// per-shard [`OpenStore`]s for the serving layer to wrap.
#[derive(Debug)]
pub struct ShardedStore;

impl ShardedStore {
    /// Initializes `root` as an `shards`-way sharded store: the embedding
    /// is round-robin split (global id `g` → shard `g % shards`), each
    /// shard becomes a complete single store (its own generation + WAL),
    /// and the root manifest records the shard count.
    ///
    /// The attribute matrix `Y` is replicated into every shard — link
    /// queries need the full `YᵀY` Gram regardless of which shard owns
    /// the source node, and `Y` is `d × k/2`, not per-node state.
    ///
    /// `min(shards, threads)` workers, the caller among them, build the
    /// shards at once, byte-identically at any `threads`. On failure the
    /// lowest failing shard's error is returned and no manifest written.
    pub fn init(
        root: &Path,
        emb: &PaneEmbedding,
        node_spec: &IndexSpec,
        link_spec: &IndexSpec,
        shards: usize,
        threads: usize,
    ) -> Result<(), StoreError> {
        Self::init_with_format(
            root,
            emb,
            node_spec,
            link_spec,
            shards,
            threads,
            crate::ArtifactFormat::Columnar,
        )
    }

    /// [`ShardedStore::init`] with an explicit artifact format for every
    /// shard (see [`Store::init_with_format`]).
    #[allow(clippy::too_many_arguments)]
    pub fn init_with_format(
        root: &Path,
        emb: &PaneEmbedding,
        node_spec: &IndexSpec,
        link_spec: &IndexSpec,
        shards: usize,
        threads: usize,
        format: crate::ArtifactFormat,
    ) -> Result<(), StoreError> {
        let n = emb.forward.rows();
        if shards < 2 {
            return Err(StoreError::Format(format!(
                "sharded init needs at least 2 shards, got {shards}"
            )));
        }
        if n < shards {
            return Err(StoreError::Format(format!(
                "cannot split {n} nodes across {shards} shards (every shard needs a node)"
            )));
        }
        crate::store::check_recipe(node_spec, link_spec)?;
        std::fs::create_dir_all(root)?;
        if root.join(MANIFEST_FILE).exists() {
            return Err(StoreError::Format(format!(
                "{} already holds a store (MANIFEST exists); refusing to overwrite",
                root.display()
            )));
        }
        let k2 = emb.forward.cols();
        // Ids are pulled in ascending order; a failure stops the pulls. The
        // counter publishes no data (results return through the joins), so
        // `Relaxed`. The caller is a worker ("Memory of a build", ARCHITECTURE).
        let workers = shards.min(threads.max(1));
        let next = AtomicUsize::new(0);
        let work = || loop {
            let s = next.fetch_add(1, Ordering::Relaxed);
            if s >= shards {
                return None;
            }
            let rows = expected_shard_len(n, s, shards);
            let mut forward = DenseMatrix::zeros(rows, k2);
            let mut backward = DenseMatrix::zeros(rows, k2);
            for local in 0..rows {
                let g = global_of(s, local, shards);
                forward.row_mut(local).copy_from_slice(emb.forward.row(g));
                backward.row_mut(local).copy_from_slice(emb.backward.row(g));
            }
            let shard_emb = PaneEmbedding {
                forward,
                backward,
                attribute: emb.attribute.clone(),
                timings: PaneTimings::default(),
                objective: f64::NAN,
            };
            if let Err(e) = Store::init_with_format(
                &shard_dir(root, s),
                &shard_emb,
                node_spec,
                link_spec,
                (threads / workers).max(1),
                format,
            ) {
                next.store(shards, Ordering::Relaxed);
                return Some((s, e));
            }
        };
        let failure = std::thread::scope(|scope| {
            let spawned: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
            let mine = work();
            spawned
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .chain([mine])
                .flatten()
                .min_by_key(|(s, _)| *s)
        });
        failure.map_or(Ok(()), |(_, e)| Err(e))?;
        Manifest::Sharded { shards }.write(root)?;
        Ok(())
    }

    /// Reads the root manifest: `Some(n)` for a sharded root, `None` for
    /// a single store (errors pass through).
    pub fn shard_count(root: &Path) -> Result<Option<usize>, StoreError> {
        match Manifest::read(root)? {
            Manifest::Sharded { shards } => Ok(Some(shards)),
            Manifest::Single { .. } => Ok(None),
        }
    }

    /// Opens every shard of a sharded root (replaying each shard's WAL)
    /// and validates the round-robin balance invariant and a consistent
    /// `k/2` across shards.
    pub fn open(root: &Path) -> Result<Vec<OpenStore>, StoreError> {
        let shards = match Manifest::read(root)? {
            Manifest::Sharded { shards } => shards,
            Manifest::Single { .. } => {
                return Err(StoreError::Format(format!(
                    "{} is a single store, not a sharded root",
                    root.display()
                )))
            }
        };
        let mut opened = Vec::with_capacity(shards);
        for s in 0..shards {
            opened.push(Store::open(&shard_dir(root, s))?);
        }
        let k2 = opened[0].embedding.forward.cols();
        let n: usize = opened.iter().map(|o| o.embedding.forward.rows()).sum();
        for (s, o) in opened.iter().enumerate() {
            if o.embedding.forward.cols() != k2 {
                return Err(StoreError::Format(format!(
                    "shard {s} holds k/2 = {} but shard 0 holds {k2}",
                    o.embedding.forward.cols()
                )));
            }
            let want = expected_shard_len(n, s, shards);
            let got = o.embedding.forward.rows();
            if got != want {
                return Err(StoreError::Format(format!(
                    "shard {s} holds {got} nodes but a balanced {shards}-way split of {n} \
                     requires {want} — the shards do not form one round-robin partition"
                )));
            }
        }
        Ok(opened)
    }

    /// Offline status of every shard (see [`crate::read_status`]).
    pub fn read_status(root: &Path) -> Result<Vec<StoreStatus>, StoreError> {
        let shards = match Manifest::read(root)? {
            Manifest::Sharded { shards } => shards,
            Manifest::Single { .. } => {
                return Err(StoreError::Format(format!(
                    "{} is a single store, not a sharded root",
                    root.display()
                )))
            }
        };
        (0..shards)
            .map(|s| crate::read_status(&shard_dir(root, s)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::testutil::{fixture, tmpdir};

    #[test]
    fn id_arithmetic_is_a_bijection() {
        for shards in [2usize, 3, 5] {
            for g in 0..40 {
                let (s, l) = (shard_of(g, shards), local_of(g, shards));
                assert!(s < shards);
                assert_eq!(global_of(s, l, shards), g);
            }
            let n = 23;
            let total: usize = (0..shards).map(|s| expected_shard_len(n, s, shards)).sum();
            assert_eq!(total, n);
        }
    }

    #[test]
    fn sharded_init_open_partitions_round_robin() {
        let root = tmpdir("shard_rr");
        let emb = fixture(45, 8);
        ShardedStore::init(&root, &emb, &IndexSpec::Flat, &IndexSpec::Flat, 3, 2).unwrap();
        assert_eq!(ShardedStore::shard_count(&root).unwrap(), Some(3));
        let opened = ShardedStore::open(&root).unwrap();
        assert_eq!(opened.len(), 3);
        assert_eq!(opened[0].embedding.forward.rows(), 15);
        // Row content: shard s local l is global l*3+s, bit-for-bit.
        for (s, o) in opened.iter().enumerate() {
            for local in 0..o.embedding.forward.rows() {
                let g = global_of(s, local, 3);
                assert_eq!(o.embedding.forward.row(local), emb.forward.row(g));
                assert_eq!(o.embedding.backward.row(local), emb.backward.row(g));
            }
            assert_eq!(o.embedding.attribute.data(), emb.attribute.data());
        }
        std::fs::remove_dir_all(&root).ok();
    }

    /// `(relative path, checksum)` of every file under `root`, path-sorted.
    fn tree(root: &Path) -> Vec<(PathBuf, u64)> {
        let mut files = Vec::new();
        let mut dirs = vec![root.to_path_buf()];
        while let Some(dir) = dirs.pop() {
            for entry in std::fs::read_dir(&dir).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    dirs.push(path);
                } else {
                    let sum = pane_format::checksum(&std::fs::read(&path).unwrap());
                    files.push((path.strip_prefix(root).unwrap().to_path_buf(), sum));
                }
            }
        }
        files.sort();
        files
    }

    #[test]
    fn sharded_init_is_thread_count_invariant() {
        use pane_index::{HnswConfig, IvfConfig};
        let emb = fixture(60, 4);
        let node = IndexSpec::Hnsw(HnswConfig {
            m: 4,
            ef_construction: 16,
            ef_search: 16,
            seed: 3,
        });
        let link = IndexSpec::Ivf(IvfConfig {
            nlist: 4,
            ..Default::default()
        });
        for shards in [2, 3, 5] {
            let mut want = None;
            for threads in [1, 2, 4] {
                let root = tmpdir(&format!("shard_inv_{shards}_{threads}"));
                ShardedStore::init(&root, &emb, &node, &link, shards, threads).unwrap();
                let got = tree(&root);
                assert_eq!(got.len(), 1 + 6 * shards, "MANIFEST + 6 files a shard");
                assert_eq!(
                    got,
                    *want.get_or_insert_with(|| got.clone()),
                    "{shards} shards at {threads} threads"
                );
                std::fs::remove_dir_all(&root).ok();
            }
        }
    }

    #[test]
    fn a_failed_shard_reports_the_lowest_and_commits_no_root() {
        let emb = fixture(30, 5);
        for threads in [1, 3] {
            let root = tmpdir(&format!("shard_fail_{threads}"));
            // Shards 1 and 2 both refuse (each already holds a store);
            // shard 1's error is the one reported, at every thread count.
            for s in [1, 2] {
                std::fs::create_dir_all(shard_dir(&root, s)).unwrap();
                std::fs::write(shard_dir(&root, s).join(MANIFEST_FILE), "taken").unwrap();
            }
            match ShardedStore::init(&root, &emb, &IndexSpec::Flat, &IndexSpec::Flat, 3, threads) {
                Err(StoreError::Format(m)) => assert!(m.contains("shard-001"), "{m}"),
                other => panic!("expected shard 1's refusal, got {other:?}"),
            }
            assert!(!root.join(MANIFEST_FILE).exists(), "threads = {threads}");
            std::fs::remove_dir_all(&root).ok();
        }
    }

    #[test]
    fn unbalanced_shards_fail_the_open() {
        let root = tmpdir("shard_unbal");
        let emb = fixture(20, 4);
        ShardedStore::init(&root, &emb, &IndexSpec::Flat, &IndexSpec::Flat, 2, 1).unwrap();
        // Grow shard 1 behind the root's back: the invariant breaks.
        let mut s1 = Store::open(&shard_dir(&root, 1)).unwrap();
        let k2 = s1.embedding.forward.cols();
        s1.store.append(10, &vec![0.5; k2], &vec![0.5; k2]).unwrap();
        drop(s1);
        match ShardedStore::open(&root) {
            Err(StoreError::Format(m)) => assert!(m.contains("round-robin"), "{m}"),
            other => panic!("expected balance error, got {other:?}"),
        }
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn single_store_and_sharded_root_are_distinguished() {
        let root = tmpdir("shard_kind");
        let emb = fixture(20, 6);
        Store::init(&root, &emb, &IndexSpec::Flat, &IndexSpec::Flat, 1).unwrap();
        assert_eq!(ShardedStore::shard_count(&root).unwrap(), None);
        assert!(matches!(
            ShardedStore::open(&root),
            Err(StoreError::Format(_))
        ));
        std::fs::remove_dir_all(&root).ok();
    }
}
