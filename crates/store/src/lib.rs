#![deny(missing_docs)]
//! `pane-store` — the unified durable store layer under `pane serve`.
//!
//! Before this crate, persistence lived in three places: `pane-core`
//! saved embeddings, `pane-index` saved index structures, and the
//! serving engine held grown rows only in memory — a daemon restart lost
//! every insert since boot. `pane-store` owns the durability story as
//! one versioned on-disk **store directory** (the LogBase shape from
//! PAPERS.md: an append log over immutable bases):
//!
//! * **immutable base artifacts** per generation — the embedding plus
//!   the node/link index pair, all in `gen-<g>/`, never modified after
//!   the manifest commits to them, each a columnar `PANECOL1` container
//!   (`pane-format`). A manifest that names a generation in the removed
//!   `PANEEMB1` format is refused when it is read;
//! * the **insert-ahead log** ([`wal`], `PANEWAL1`) — length-prefixed,
//!   checksummed records of new `X_f`/`X_b` row pairs, synced *before*
//!   an insert is acknowledged, replayed into delta segments at
//!   [`Store::open`] — restarts keep every acknowledged insert;
//! * the **manifest** ([`manifest`], `PANESTR1`) — names the current
//!   generation; replaced by atomic rename, so a [`Store::snapshot`]
//!   (write new generation → swing manifest → truncate WAL) is
//!   crash-safe at every step;
//! * **sharded roots** ([`shard`]) — N store directories routed by
//!   `node_id % N`, the layout behind `pane serve`'s single-process
//!   sharding and a future multi-daemon deployment.
//!
//! The serving layer (`pane-serve`) wraps [`OpenStore`] in its engine;
//! the CLI surfaces the layer as `pane store init | snapshot | status`.

pub mod manifest;
pub mod shard;
mod store;
pub mod wal;

#[cfg(test)]
mod proptests;

pub use manifest::{Manifest, MANIFEST_FILE};
pub use shard::{expected_shard_len, global_of, local_of, shard_dir, shard_of, ShardedStore};
pub use store::{
    read_status, OpenStore, Store, StoreStatus, EMBEDDING_FILE, LINK_INDEX_FILE, NODE_INDEX_FILE,
    WAL_FILE,
};
pub use wal::{replay as replay_wal, Wal, WalAppend, WalRecord, WalReplay, WAL_MAGIC};

/// Errors from the durable store layer.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A store file (manifest, layout, header) is malformed.
    Format(String),
    /// The insert-ahead log is structurally inconsistent with the base
    /// generation (wrong width, wrong id sequence) — it does not belong
    /// to this store.
    Wal(String),
    /// The embedding artifact failed to load/save.
    Persist(pane_core::PersistError),
    /// An index artifact failed to build/load/save.
    Index(pane_index::IndexError),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "I/O error: {e}"),
            StoreError::Format(m) => write!(f, "store format error: {m}"),
            StoreError::Wal(m) => write!(f, "insert-ahead log error: {m}"),
            StoreError::Persist(e) => write!(f, "embedding artifact error: {e}"),
            StoreError::Index(e) => write!(f, "index artifact error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<pane_core::PersistError> for StoreError {
    fn from(e: pane_core::PersistError) -> Self {
        StoreError::Persist(e)
    }
}

impl From<pane_index::IndexError> for StoreError {
    fn from(e: pane_index::IndexError) -> Self {
        StoreError::Index(e)
    }
}

impl From<pane_format::FormatError> for StoreError {
    fn from(e: pane_format::FormatError) -> Self {
        match e {
            pane_format::FormatError::Io(e) => StoreError::Io(e),
            pane_format::FormatError::Format(m) => StoreError::Format(m),
        }
    }
}
