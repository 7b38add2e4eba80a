//! A single durable store directory: immutable base generation + WAL.
//!
//! ```text
//! STORE/
//!   MANIFEST        PANESTR1 manifest naming the current generation
//!   wal.log         PANEWAL1 insert-ahead log (see `wal`)
//!   gen-00003/      the current generation's immutable base artifacts
//!     embedding.bin   PANECOL1 embedding store (X_f, X_b, Y)
//!     node.idx        PANECOL1 similar-nodes index over [X_f ‖ X_b]
//!     link.idx        PANECOL1 link index over X_b
//! ```
//!
//! Every generation is three `PANECOL1` containers, written by one
//! writer ([`write_generation`]) and read back by `load_columns` and
//! `load_index`. A manifest whose generation is in the removed
//! `PANEEMB1` format is refused when it is read (see [`Manifest::read`]).
//!
//! The life cycle mirrors a log-structured store (LogBase, PAPERS.md):
//! [`Store::open`] loads the base generation and **replays** the WAL into
//! delta segments (restart-safe inserts), [`Store::append`] records each
//! new row pair *before* it is acknowledged, and [`Store::snapshot`]
//! compacts everything into a fresh generation — written completely,
//! committed by an atomic manifest rename, and only then the WAL is
//! truncated and the old generation removed. Every crash window leaves a
//! manifest naming one complete generation plus a WAL whose clean prefix
//! re-creates the acknowledged inserts.

use crate::manifest::{Manifest, MANIFEST_FILE};
use crate::wal::{self, Wal};
use crate::StoreError;
use pane_core::{build_bases, check_bases, PaneEmbedding, QuerySpace};
use pane_index::{AnyIndex, DeltaIndex, IndexSpec, VectorIndex};
use std::fs::File;
use std::path::{Path, PathBuf};

/// File name of the insert-ahead log inside a store directory.
pub const WAL_FILE: &str = "wal.log";

/// File names of the base artifacts inside a generation directory.
pub const EMBEDDING_FILE: &str = "embedding.bin";
/// Similar-nodes index file inside a generation directory.
pub const NODE_INDEX_FILE: &str = "node.idx";
/// Link-recommendation index file inside a generation directory.
pub const LINK_INDEX_FILE: &str = "link.idx";

/// Advisory single-writer lock file inside a store directory.
pub const LOCK_FILE: &str = "LOCK";

fn gen_dir(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("gen-{generation:05}"))
}

/// Takes the store's exclusive OS file lock. Two writers on one store
/// directory corrupt each other (an offline `pane store snapshot` would
/// truncate the WAL under a live daemon's append offset, silently
/// dropping its acknowledged inserts as a "torn tail"), so [`Store::open`]
/// and [`Store::init`] refuse to proceed while another process holds the
/// lock. The kernel releases it on *any* process exit — including
/// `kill -9` — so a crashed daemon can never brick its store.
fn take_lock(dir: &Path) -> Result<File, StoreError> {
    let lock = File::create(dir.join(LOCK_FILE))?;
    lock.try_lock().map_err(|e| {
        StoreError::Format(format!(
            "{} is in use by another process (lock unavailable: {e}); stop the other \
             daemon/tool first — concurrent writers would corrupt the insert-ahead log",
            dir.display()
        ))
    })?;
    Ok(lock)
}

/// Fsyncs a freshly written artifact file (write-path durability: the
/// manifest must never commit to pages that have not reached disk).
fn sync_file(path: &Path) -> Result<(), StoreError> {
    File::open(path)?.sync_all()?;
    Ok(())
}

/// Best-effort directory fsync (making renames/creates durable).
/// Directory handles are not openable on every platform; a failure here
/// downgrades durability, never correctness, so it is not propagated.
fn sync_dir(path: &Path) {
    if let Ok(d) = File::open(path) {
        let _ = d.sync_all();
    }
}

/// Writes one generation's three artifacts into `gdir` and fsyncs them:
/// what `init` and `snapshot` both commit to.
fn write_generation(
    gdir: &Path,
    emb: &PaneEmbedding,
    node: &AnyIndex,
    link: &AnyIndex,
) -> Result<(), StoreError> {
    pane_core::save_columns(emb, &gdir.join(EMBEDDING_FILE))?;
    node.save(&gdir.join(NODE_INDEX_FILE))?;
    link.save(&gdir.join(LINK_INDEX_FILE))?;
    for f in [EMBEDDING_FILE, NODE_INDEX_FILE, LINK_INDEX_FILE] {
        sync_file(&gdir.join(f))?;
    }
    sync_dir(gdir);
    Ok(())
}

/// Refuses a recipe [`Manifest::read`] would refuse, before anything is
/// written under it: a manifest we write is a manifest we can read.
pub(crate) fn check_recipe(node_spec: &IndexSpec, link_spec: &IndexSpec) -> Result<(), StoreError> {
    for (what, spec) in [("node_index", node_spec), ("link_index", link_spec)] {
        spec.validate()
            .map_err(|e| StoreError::Format(format!("{what}: {e}")))?;
    }
    Ok(())
}

/// Durable-store handle: the persistence side of a serving engine. The
/// in-memory state it re-creates at open lives in [`OpenStore`].
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    generation: u64,
    node_spec: IndexSpec,
    link_spec: IndexSpec,
    wal: Wal,
    wal_records: usize,
    replayed: usize,
    recovered_bytes: u64,
    /// Held for the handle's lifetime; the kernel releases it on exit.
    _lock: File,
}

/// Everything [`Store::open`] re-creates: the store handle plus the
/// in-memory serving state with the WAL already replayed into it.
#[derive(Debug)]
pub struct OpenStore {
    /// The persistence handle (keep it to append / snapshot).
    pub store: Store,
    /// Embedding store: base rows plus every replayed WAL row.
    pub embedding: PaneEmbedding,
    /// Similar-nodes index: base structure + replayed delta segment.
    pub node_index: DeltaIndex,
    /// Link index: base structure + replayed delta segment.
    pub link_index: DeltaIndex,
}

impl Store {
    /// Initializes `dir` as a fresh store: generation 1 artifacts built
    /// from `emb` per the specs (written as columnar `PANECOL1`
    /// containers), an empty WAL, and the manifest. Refuses a directory
    /// that already holds a manifest.
    pub fn init(
        dir: &Path,
        emb: &PaneEmbedding,
        node_spec: &IndexSpec,
        link_spec: &IndexSpec,
        threads: usize,
    ) -> Result<(), StoreError> {
        if emb.forward.rows() == 0 || emb.forward.cols() == 0 {
            return Err(StoreError::Format(
                "cannot init a store from an empty embedding".into(),
            ));
        }
        check_recipe(node_spec, link_spec)?;
        std::fs::create_dir_all(dir)?;
        if dir.join(MANIFEST_FILE).exists() {
            return Err(StoreError::Format(format!(
                "{} already holds a store (MANIFEST exists); refusing to overwrite",
                dir.display()
            )));
        }
        let _lock = take_lock(dir)?;
        let generation = 1;
        let gdir = gen_dir(dir, generation);
        std::fs::create_dir_all(&gdir)?;
        let (node, link) = build_bases(emb, node_spec, link_spec, threads);
        write_generation(&gdir, emb, &node, &link)?;
        Wal::create(&dir.join(WAL_FILE))?;
        Manifest::Single {
            generation,
            node_spec: *node_spec,
            link_spec: *link_spec,
        }
        .write(dir)?;
        Ok(())
    }

    /// Opens a store directory: loads the current generation's base
    /// artifacts, replays the WAL's clean prefix into the embedding and
    /// both delta segments, and truncates any torn WAL tail.
    ///
    /// Replayed records are validated against the base (width, dense id
    /// sequence, finite values); an inconsistency is a structured
    /// [`StoreError::Wal`] — the WAL belongs to some other store — and
    /// never a partially applied row. Records whose ids precede the base
    /// (possible only when a snapshot crashed between its manifest
    /// commit and its WAL truncation) are provably already folded: they
    /// are skipped and the interrupted truncation is completed here.
    ///
    /// The open takes the store's exclusive OS lock once the manifest is
    /// read, before it reads any artifact, and holds it for the handle's
    /// lifetime — a second daemon or an offline `pane store snapshot` on
    /// a live store fails fast, without loading a generation the live
    /// writer may be replacing, instead of corrupting the log. A refused
    /// manifest creates no lock file. The kernel drops the lock on any
    /// exit, `kill -9` included.
    pub fn open(dir: &Path) -> Result<OpenStore, StoreError> {
        let (generation, node_spec, link_spec) = match Manifest::read(dir)? {
            Manifest::Single {
                generation,
                node_spec,
                link_spec,
            } => (generation, node_spec, link_spec),
            Manifest::Sharded { shards } => {
                return Err(StoreError::Format(format!(
                    "{} is a sharded root ({shards} shards); open it with ShardedStore / \
                     `pane serve --store`",
                    dir.display()
                )))
            }
        };
        let lock = take_lock(dir)?;
        let gdir = gen_dir(dir, generation);
        let mut embedding = pane_core::load_columns(&gdir.join(EMBEDDING_FILE))?;
        let node_base = pane_index::load_index(&gdir.join(NODE_INDEX_FILE))?;
        let link_base = pane_index::load_index(&gdir.join(LINK_INDEX_FILE))?;
        check_bases(&embedding, &node_base, &link_base)
            .map_err(|m| StoreError::Format(format!("{}: {m}", gdir.display())))?;
        let n = embedding.forward.rows();
        let k2 = embedding.forward.cols();
        let mut node_index = DeltaIndex::new(node_base);
        let mut link_index = DeltaIndex::new(link_base);

        let wal_path = dir.join(WAL_FILE);
        let replayed = wal::replay(&wal_path)?;
        let mut stale = 0usize;
        let mut applied: Vec<&wal::WalRecord> = Vec::new();
        for rec in &replayed.records {
            if rec.node_id < n as u64 {
                // Folded into this generation already — the record
                // survived only because a snapshot crashed after its
                // manifest rename but before its WAL truncation.
                stale += 1;
                continue;
            }
            let expect = embedding.forward.rows() as u64;
            if rec.node_id != expect {
                return Err(StoreError::Wal(format!(
                    "WAL record carries node id {} but the store expects {expect} — \
                     the log does not belong to this base generation",
                    rec.node_id
                )));
            }
            if rec.forward.len() != k2 || rec.backward.len() != k2 {
                return Err(StoreError::Wal(format!(
                    "WAL record for node {} has width {} but the store holds k/2 = {k2}",
                    rec.node_id,
                    rec.forward.len()
                )));
            }
            if rec
                .forward
                .iter()
                .chain(&rec.backward)
                .any(|x| !x.is_finite())
            {
                return Err(StoreError::Wal(format!(
                    "WAL record for node {} holds non-finite values",
                    rec.node_id
                )));
            }
            embedding.forward.push_row(&rec.forward);
            embedding.backward.push_row(&rec.backward);
            let id = rec.node_id as usize;
            node_index.insert(&QuerySpace::Similar.row(&embedding, id))?;
            link_index.insert(&QuerySpace::Links.row(&embedding, id))?;
            applied.push(rec);
        }
        let wal_records = applied.len();
        let wal = if stale > 0 {
            // Complete the crash-interrupted truncation: rewrite the log
            // to hold exactly the records not yet folded into the base.
            let mut w = Wal::create(&wal_path)?;
            for rec in &applied {
                w.append(rec.node_id, &rec.forward, &rec.backward)?;
            }
            w
        } else {
            Wal::open_at(&wal_path, replayed.valid_len)?
        };
        Ok(OpenStore {
            store: Store {
                dir: dir.to_path_buf(),
                generation,
                node_spec,
                link_spec,
                wal,
                wal_records,
                replayed: wal_records,
                recovered_bytes: replayed.dropped_bytes,
                _lock: lock,
            },
            embedding,
            node_index,
            link_index,
        })
    }

    /// Durably records one insert. Must be called (and must succeed)
    /// **before** the in-memory insert is acknowledged to any client.
    /// Returns the WAL append report (record bytes, write/sync timing)
    /// so the serving layer can meter durability cost.
    pub fn append(
        &mut self,
        node_id: usize,
        forward: &[f64],
        backward: &[f64],
    ) -> Result<wal::WalAppend, StoreError> {
        let report = self.wal.append(node_id as u64, forward, backward)?;
        self.wal_records += 1;
        Ok(report)
    }

    /// Commits a new base generation: writes `emb` and the two compacted
    /// bases into `gen-<g+1>/`, atomically swings the manifest to it,
    /// removes the previous generation directory, and truncates the WAL.
    /// Returns the new generation number.
    pub fn snapshot(
        &mut self,
        emb: &PaneEmbedding,
        node_base: &AnyIndex,
        link_base: &AnyIndex,
    ) -> Result<u64, StoreError> {
        check_bases(emb, node_base, link_base)
            .map_err(|m| StoreError::Format(format!("snapshot: {m}")))?;
        let next = self.generation + 1;
        let gdir = gen_dir(&self.dir, next);
        // A leftover directory from a crashed attempt is stale garbage the
        // manifest never committed to; clear it.
        if gdir.exists() {
            std::fs::remove_dir_all(&gdir)?;
        }
        std::fs::create_dir_all(&gdir)?;
        // The generation must be fully ON DISK before the manifest can name
        // it (write_generation fsyncs every artifact and the directory
        // entry), or a power loss after the rename could commit to unwritten
        // pages while the WAL (the only other copy of the inserts) is about
        // to be truncated.
        write_generation(&gdir, emb, node_base, link_base)?;
        sync_dir(&self.dir);
        // Commit point: the manifest rename. Before it, the old generation
        // is current; after it, the new one is.
        Manifest::Single {
            generation: next,
            node_spec: self.node_spec,
            link_spec: self.link_spec,
        }
        .write(&self.dir)?;
        // Best-effort: a leftover directory is garbage, not corruption.
        let _ = std::fs::remove_dir_all(gen_dir(&self.dir, self.generation));
        self.wal.truncate()?;
        self.generation = next;
        self.wal_records = 0;
        Ok(next)
    }

    /// Store directory path.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Current base generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Records currently in the WAL (replayed at open + appended since).
    pub fn wal_records(&self) -> usize {
        self.wal_records
    }

    /// Current WAL size in bytes (magic header included).
    pub fn wal_bytes(&self) -> u64 {
        self.wal.len_bytes()
    }

    /// Records replayed from the WAL when this handle was opened.
    pub fn replayed(&self) -> usize {
        self.replayed
    }

    /// Torn-tail bytes dropped (and truncated away) at open.
    pub fn recovered_bytes(&self) -> u64 {
        self.recovered_bytes
    }

    /// Build recipe of the node index.
    pub fn node_spec(&self) -> IndexSpec {
        self.node_spec
    }

    /// Build recipe of the link index.
    pub fn link_spec(&self) -> IndexSpec {
        self.link_spec
    }

    /// Total on-disk bytes of the current generation's three artifacts
    /// (best-effort stat; a vanished file counts as 0 rather than
    /// failing a stats report).
    pub fn artifact_bytes(&self) -> u64 {
        let gdir = gen_dir(&self.dir, self.generation);
        [EMBEDDING_FILE, NODE_INDEX_FILE, LINK_INDEX_FILE]
            .iter()
            .filter_map(|f| std::fs::metadata(gdir.join(f)).ok())
            .map(|m| m.len())
            .sum()
    }
}

/// Offline status of a store directory, read without loading any matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreStatus {
    /// Current base generation.
    pub generation: u64,
    /// Nodes in the base generation (before WAL replay).
    pub base_nodes: usize,
    /// Per-direction embedding width `k/2`.
    pub half_dim: usize,
    /// Replayable records in the WAL's clean prefix.
    pub wal_records: usize,
    /// Torn/corrupt trailing bytes past the clean prefix.
    pub wal_dropped_bytes: u64,
    /// Build recipe of the node index.
    pub node_spec: IndexSpec,
    /// Build recipe of the link index.
    pub link_spec: IndexSpec,
    /// On-disk size of the embedding artifact.
    pub embedding_bytes: u64,
    /// On-disk size of the node index artifact.
    pub node_index_bytes: u64,
    /// On-disk size of the link index artifact.
    pub link_index_bytes: u64,
}

impl StoreStatus {
    /// Total on-disk size of the base generation's artifacts.
    pub fn artifact_bytes(&self) -> u64 {
        self.embedding_bytes + self.node_index_bytes + self.link_index_bytes
    }
}

/// Reads a single store's status: manifest, WAL scan, artifact file
/// sizes, and the embedding's section table — no matrix data is loaded.
pub fn read_status(dir: &Path) -> Result<StoreStatus, StoreError> {
    let (generation, node_spec, link_spec) = match Manifest::read(dir)? {
        Manifest::Single {
            generation,
            node_spec,
            link_spec,
        } => (generation, node_spec, link_spec),
        Manifest::Sharded { shards } => {
            return Err(StoreError::Format(format!(
                "{} is a sharded root ({shards} shards); status each shard or use \
                 `pane store status` on the root",
                dir.display()
            )))
        }
    };
    let gdir = gen_dir(dir, generation);
    let emb_path = gdir.join(EMBEDDING_FILE);
    let (artifact, _, sections) = pane_format::peek_table(&emb_path)?;
    if artifact != pane_format::Artifact::Embedding {
        return Err(StoreError::Format(format!(
            "{}: {artifact:?} artifact where an embedding was expected",
            emb_path.display()
        )));
    }
    let fwd = sections
        .iter()
        .find(|s| s.id == pane_format::section::EMB_FORWARD)
        .ok_or_else(|| {
            StoreError::Format(format!(
                "{}: container has no forward-embedding section",
                emb_path.display()
            ))
        })?;
    let (base_nodes, half_dim) = (fwd.rows, fwd.cols);
    let file_len =
        |name: &str| -> Result<u64, StoreError> { Ok(std::fs::metadata(gdir.join(name))?.len()) };
    let replayed = wal::replay(&dir.join(WAL_FILE))?;
    Ok(StoreStatus {
        generation,
        base_nodes,
        half_dim,
        wal_records: replayed.records.len(),
        wal_dropped_bytes: replayed.dropped_bytes,
        node_spec,
        link_spec,
        embedding_bytes: file_len(EMBEDDING_FILE)?,
        node_index_bytes: file_len(NODE_INDEX_FILE)?,
        link_index_bytes: file_len(LINK_INDEX_FILE)?,
    })
}

#[cfg(test)]
pub(crate) mod testutil {
    use pane_core::{Pane, PaneConfig, PaneEmbedding};
    use pane_graph::gen::{generate_sbm, SbmConfig};

    /// A small deterministic embedding fixture shared by the store tests.
    pub fn fixture(nodes: usize, seed: u64) -> PaneEmbedding {
        let g = generate_sbm(&SbmConfig {
            nodes,
            communities: 3,
            avg_out_degree: 5.0,
            attributes: 15,
            attrs_per_node: 3.0,
            seed,
            ..Default::default()
        });
        Pane::new(PaneConfig::builder().dimension(8).seed(7).build())
            .embed(&g)
            .unwrap()
    }

    pub fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "pane_store_{}_{name}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::{fixture, tmpdir};
    use super::*;

    #[test]
    fn init_open_roundtrip_with_empty_wal() {
        let dir = tmpdir("roundtrip");
        let emb = fixture(80, 3);
        Store::init(&dir, &emb, &IndexSpec::Flat, &IndexSpec::Flat, 2).unwrap();
        let opened = Store::open(&dir).unwrap();
        assert_eq!(opened.store.generation(), 1);
        assert_eq!(opened.store.replayed(), 0);
        assert_eq!(opened.embedding.forward.data(), emb.forward.data());
        assert_eq!(opened.node_index.base_len(), 80);
        assert_eq!(opened.node_index.delta_len(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn init_refuses_existing_store() {
        let dir = tmpdir("refuse");
        let emb = fixture(40, 1);
        Store::init(&dir, &emb, &IndexSpec::Flat, &IndexSpec::Flat, 1).unwrap();
        match Store::init(&dir, &emb, &IndexSpec::Flat, &IndexSpec::Flat, 1) {
            Err(StoreError::Format(m)) => assert!(m.contains("refusing"), "{m}"),
            other => panic!("expected refusal, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
        // A recipe `Manifest::read` would refuse is refused before the
        // directory exists: no unopenable store, nothing to clean up.
        let bad = IndexSpec::SqFlat(pane_index::SqConfig { rerank: 0 });
        for refused in [
            Store::init(&dir, &emb, &IndexSpec::Flat, &bad, 1),
            crate::ShardedStore::init(&dir, &emb, &bad, &IndexSpec::Flat, 2, 1),
        ] {
            match refused {
                Err(StoreError::Format(m)) => assert!(m.contains("'rerank'"), "{m}"),
                other => panic!("expected a format error, got {other:?}"),
            }
            assert!(
                !dir.exists(),
                "a refused init left {} behind",
                dir.display()
            );
        }
    }

    #[test]
    fn appended_rows_survive_reopen_and_snapshot_truncates() {
        let dir = tmpdir("durable");
        let emb = fixture(60, 5);
        let k2 = emb.forward.cols();
        Store::init(&dir, &emb, &IndexSpec::Flat, &IndexSpec::Flat, 1).unwrap();

        // Session 1: append two inserts, then hard-stop (drop everything).
        {
            let mut opened = Store::open(&dir).unwrap();
            let f: Vec<f64> = (0..k2).map(|i| 0.1 * (i + 1) as f64).collect();
            opened.store.append(60, &f, &f).unwrap();
            opened.store.append(61, &f, &f).unwrap();
        }

        // Session 2: the inserts are replayed; snapshot folds them.
        let mut opened = Store::open(&dir).unwrap();
        assert_eq!(opened.store.replayed(), 2);
        assert_eq!(opened.embedding.forward.rows(), 62);
        assert_eq!(opened.node_index.delta_len(), 2);
        let (node, link) = build_bases(
            &opened.embedding,
            &opened.store.node_spec(),
            &opened.store.link_spec(),
            1,
        );
        let g = opened
            .store
            .snapshot(&opened.embedding, &node, &link)
            .unwrap();
        assert_eq!(g, 2);
        assert_eq!(opened.store.wal_records(), 0);
        assert!(!gen_dir(&dir, 1).exists(), "old generation not removed");
        drop(opened); // release the single-writer lock

        // Session 3: boots from the new generation with an empty WAL.
        let opened = Store::open(&dir).unwrap();
        assert_eq!(opened.store.generation(), 2);
        assert_eq!(opened.store.replayed(), 0);
        assert_eq!(opened.embedding.forward.rows(), 62);
        assert_eq!(opened.node_index.base_len(), 62);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Regression (review finding): a crash between a snapshot's
    /// manifest rename and its WAL truncation must not brick the store —
    /// the already-folded records are skipped and the interrupted
    /// truncation is completed at the next open.
    #[test]
    fn crash_between_manifest_commit_and_wal_truncation_recovers() {
        let dir = tmpdir("snapcrash");
        let emb = fixture(40, 7);
        let k2 = emb.forward.cols();
        Store::init(&dir, &emb, &IndexSpec::Flat, &IndexSpec::Flat, 1).unwrap();
        let mut opened = Store::open(&dir).unwrap();
        let probe: Vec<f64> = (0..k2).map(|i| 0.2 * (i + 1) as f64).collect();
        opened.store.append(40, &probe, &probe).unwrap();
        opened.embedding.forward.push_row(&probe);
        opened.embedding.backward.push_row(&probe);
        // Simulate the crash: run the snapshot, then restore the
        // pre-snapshot WAL — exactly the on-disk state of dying after
        // the manifest rename but before wal.truncate().
        let pre_snapshot_wal = std::fs::read(dir.join(WAL_FILE)).unwrap();
        let (node, link) = build_bases(&opened.embedding, &IndexSpec::Flat, &IndexSpec::Flat, 1);
        opened
            .store
            .snapshot(&opened.embedding, &node, &link)
            .unwrap();
        drop(opened);
        std::fs::write(dir.join(WAL_FILE), &pre_snapshot_wal).unwrap();

        let reopened = Store::open(&dir).unwrap();
        assert_eq!(reopened.store.generation(), 2);
        assert_eq!(
            reopened.store.replayed(),
            0,
            "stale records must be skipped"
        );
        assert_eq!(reopened.embedding.forward.rows(), 41);
        assert_eq!(reopened.embedding.forward.row(40), &probe[..]);
        drop(reopened);
        // The interrupted truncation was completed on disk.
        let status = read_status(&dir).unwrap();
        assert_eq!(status.wal_records, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Regression (review finding): two writers on one store directory
    /// would corrupt the WAL; the second open must fail fast while the
    /// first handle lives, and succeed once it is dropped.
    #[test]
    fn second_writer_is_locked_out_until_the_first_exits() {
        let dir = tmpdir("lockout");
        let emb = fixture(30, 2);
        Store::init(&dir, &emb, &IndexSpec::Flat, &IndexSpec::Flat, 1).unwrap();
        let first = Store::open(&dir).unwrap();
        match Store::open(&dir) {
            Err(StoreError::Format(m)) => assert!(m.contains("in use"), "{m}"),
            other => panic!("expected lock refusal, got {other:?}"),
        }
        drop(first);
        Store::open(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The lock is taken before any artifact is read: while a live handle
    /// holds it, a second open reports "in use" even when the generation
    /// it would load is gone — as after a live writer's snapshot removed
    /// it — instead of failing on the missing file.
    #[test]
    fn second_open_is_refused_before_it_reads_the_generation() {
        let dir = tmpdir("lock_first");
        let emb = fixture(30, 4);
        Store::init(&dir, &emb, &IndexSpec::Flat, &IndexSpec::Flat, 1).unwrap();
        let first = Store::open(&dir).unwrap();
        std::fs::remove_file(gen_dir(&dir, 1).join(NODE_INDEX_FILE)).unwrap();
        match Store::open(&dir) {
            Err(StoreError::Format(m)) => assert!(m.contains("in use"), "{m}"),
            other => panic!("expected lock refusal, got {other:?}"),
        }
        drop(first);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Swapped index files keep valid checksums and load, so only
    /// `check_bases`, the shape check against the embedding, can refuse
    /// them; its message names both shapes.
    #[test]
    fn swapped_index_files_are_refused_by_shape() {
        let dir = tmpdir("swapped");
        let emb = fixture(30, 4);
        Store::init(&dir, &emb, &IndexSpec::Flat, &IndexSpec::Flat, 1).unwrap();
        let gdir = gen_dir(&dir, 1);
        let (node, link, spare) = (
            gdir.join(NODE_INDEX_FILE),
            gdir.join(LINK_INDEX_FILE),
            gdir.join("swap.idx"),
        );
        std::fs::rename(&node, &spare).unwrap();
        std::fs::rename(&link, &node).unwrap();
        std::fs::rename(&spare, &link).unwrap();
        let (n, k2) = emb.forward.shape();
        match Store::open(&dir) {
            Err(StoreError::Format(m)) => assert!(
                m.contains(&format!("holds {n}×{k2}"))
                    && m.contains(&format!("implies {n}×{}", 2 * k2)),
                "{m}"
            ),
            other => panic!("expected a shape refusal, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn foreign_wal_is_a_structured_error() {
        let dir = tmpdir("foreign");
        let emb = fixture(30, 9);
        let k2 = emb.forward.cols();
        Store::init(&dir, &emb, &IndexSpec::Flat, &IndexSpec::Flat, 1).unwrap();
        // A record whose node id skips ahead cannot belong to this base.
        let mut wal = Wal::open_at(&dir.join(WAL_FILE), 8).unwrap();
        wal.append(99, &vec![0.5; k2], &vec![0.5; k2]).unwrap();
        drop(wal);
        match Store::open(&dir) {
            Err(StoreError::Wal(m)) => assert!(m.contains("node id 99"), "{m}"),
            other => panic!("expected WAL error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_bytes_grow_with_appends_and_reset_on_snapshot() {
        let dir = tmpdir("walbytes");
        let emb = fixture(40, 4);
        let k2 = emb.forward.cols();
        Store::init(&dir, &emb, &IndexSpec::Flat, &IndexSpec::Flat, 1).unwrap();
        let mut opened = Store::open(&dir).unwrap();
        assert_eq!(opened.store.wal_bytes(), 8, "fresh log is just the magic");
        let row: Vec<f64> = vec![0.5; k2];
        let report = opened.store.append(40, &row, &row).unwrap();
        assert_eq!(report.bytes, (16 + 16 + 16 * k2) as u64);
        assert_eq!(opened.store.wal_bytes(), 8 + report.bytes);
        opened.embedding.forward.push_row(&row);
        opened.embedding.backward.push_row(&row);
        let (node, link) = build_bases(&opened.embedding, &IndexSpec::Flat, &IndexSpec::Flat, 1);
        opened
            .store
            .snapshot(&opened.embedding, &node, &link)
            .unwrap();
        assert_eq!(opened.store.wal_bytes(), 8, "snapshot folds the log");
        drop(opened);
        // Reopen with a non-empty WAL: the byte count is seeded from the
        // replayed clean prefix, not reset to the magic.
        let mut reopened = Store::open(&dir).unwrap();
        let r = reopened.store.append(41, &row, &row).unwrap();
        drop_bytes_check(&dir, 8 + r.bytes);
        assert_eq!(reopened.store.wal_bytes(), 8 + r.bytes);
        drop(reopened);
        let opened = Store::open(&dir).unwrap();
        assert_eq!(opened.store.wal_bytes(), 8 + r.bytes);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn drop_bytes_check(dir: &Path, want: u64) {
        assert_eq!(std::fs::metadata(dir.join(WAL_FILE)).unwrap().len(), want);
    }

    #[test]
    fn offline_status_reads_without_loading() {
        let dir = tmpdir("status");
        let emb = fixture(50, 2);
        let k2 = emb.forward.cols();
        Store::init(&dir, &emb, &IndexSpec::Flat, &IndexSpec::Flat, 1).unwrap();
        let mut opened = Store::open(&dir).unwrap();
        opened
            .store
            .append(50, &vec![0.1; k2], &vec![0.2; k2])
            .unwrap();
        drop(opened);
        let s = read_status(&dir).unwrap();
        assert_eq!(s.generation, 1);
        assert_eq!(s.base_nodes, 50);
        assert_eq!(s.half_dim, k2);
        assert_eq!(s.wal_records, 1);
        assert_eq!(s.wal_dropped_bytes, 0);
        assert_eq!(s.node_spec, IndexSpec::Flat);
        let gdir = gen_dir(&dir, 1);
        for (have, file) in [
            (s.embedding_bytes, EMBEDDING_FILE),
            (s.node_index_bytes, NODE_INDEX_FILE),
            (s.link_index_bytes, LINK_INDEX_FILE),
        ] {
            assert_eq!(have, std::fs::metadata(gdir.join(file)).unwrap().len());
            assert!(have > 0, "{file} reported as empty");
        }
        assert_eq!(
            s.artifact_bytes(),
            s.embedding_bytes + s.node_index_bytes + s.link_index_bytes
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
