#![deny(missing_docs)]
//! `pane-serve` — the shared-index serving daemon behind `pane serve`.
//!
//! PR 2 gave every *caller* an ANN index; this crate gives **traffic** a
//! daemon: one process loads the embedding store and one index
//! pair, then answers `similar-nodes` / `recommend-links` /
//! `top-attributes` requests over a JSON-lines protocol (TCP or stdio)
//! with batched, parallel search —
//! instead of every client paying the load cost per invocation (the
//! LogBase lesson from PAPERS.md: serving systems live or die by their
//! ingest and lookup paths, not their batch builders).
//!
//! Four pieces, one per module:
//!
//! * [`protocol`] — the wire format: a strict JSON subset, hand-rolled
//!   (offline workspace), one request/response per line;
//! * [`engine`] — the shared state: embedding store + two
//!   [`pane_index::DeltaIndex`]-wrapped indexes, batched search,
//!   **incremental inserts** (a freshly arrived node is queryable by the
//!   next request, no rebuild), a **compaction** command that folds
//!   deltas into rebuilt bases, and **durability** — every engine is
//!   opened over a `pane-store` directory, so inserts are recorded in an
//!   insert-ahead log before they are acknowledged, replayed at boot, and
//!   folded into a fresh on-disk generation by the `snapshot` request;
//! * [`sharded`] — [`ShardedEngine`]: N store shards routed by
//!   `node_id % N`, per-shard search merged under the shared score
//!   order (bit-identical to the unsharded exact scan for flat shards);
//! * [`server`] — transports: [`serve_lines`] for stdio / tests,
//!   [`serve_tcp`] for the daemon, generic over [`LineHandler`] (any
//!   [`ServeBackend`] behind a lock is one), with bounded request lines
//!   and clean `shutdown` handling.
//!
//! Two more modules take serving **multi-daemon** (`pane route`):
//!
//! * [`client`] — [`ShardClient`]: one pooled, timeout-guarded,
//!   health-tracked connection to one shard daemon;
//! * [`router`] — [`Router`]: one `pane serve` daemon per store shard
//!   behind a thin merging proxy speaking the same protocol, with
//!   graceful degradation when shards die (partial results +
//!   `"degraded":true`) and automatic re-admission when they return;
//! * [`obs`] — [`ServeObs`]: the serving tier's observability schema
//!   over `pane-obs` (per-op request metrics, engine durability gauges,
//!   per-shard client health, the slow-query log), exposed by the
//!   `metrics` protocol op and recorded by [`ObservedHandler`] / the
//!   router transport.
//!
//! Scores are on the unified scale documented in `pane-core::query`:
//! `cos_f + cos_b ∈ [-2, 2]` for similar-node search, raw Eq. 22 inner
//! products for link recommendation — identical across exact and ANN
//! backends, and across sharded and unsharded engines.
//!
//! ```no_run
//! use pane_serve::{IndexSpec, ServeEngine, serve_tcp};
//! use std::sync::{Arc, RwLock};
//!
//! // Durable daemon over a store directory created by `pane store init`:
//! let engine = ServeEngine::open(std::path::Path::new("data/store"), 4).unwrap();
//! let listener = std::net::TcpListener::bind("127.0.0.1:7878").unwrap();
//! serve_tcp(Arc::new(RwLock::new(engine)), listener).unwrap();
//! ```

pub mod client;
pub mod engine;
pub mod obs;
#[cfg(test)]
mod proptests;
pub mod protocol;
pub mod router;
pub mod server;
pub mod sharded;

pub use client::{ClientConfig, ClientError, ShardClient, SleepFn};
pub use engine::{
    Hit, IndexStats, ServeBackend, ServeEngine, ServeError, SnapshotOutcome, StatusReport,
    StoreReport,
};
pub use obs::ServeObs;
// Re-exported for compatibility: the query spaces moved down to
// `pane-core`, beside `EmbeddingQuery`, when they began owning what each
// space indexes and how a node queries it.
pub use pane_core::QuerySpace;
// Re-exported for compatibility: the spec type moved down to
// `pane-index` when the store layer began recording it in manifests.
pub use pane_index::IndexSpec;
pub use protocol::{parse, Json, ParseError};
pub use router::{Router, RouterError};
pub use server::{
    handle_line, serve_lines, serve_tcp, LineHandler, ObservedHandler, MAX_LINE_BYTES,
};
pub use sharded::ShardedEngine;

/// Store-backed engines for the crate's tests: every engine is opened
/// over a store, so each fixture gets its own `Store::init` directory.
#[cfg(test)]
pub(crate) mod testutil {
    use crate::ServeEngine;
    use pane_core::PaneEmbedding;
    use pane_index::IndexSpec;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A directory under the system temp dir, unique within the test
    /// process and removed when dropped.
    pub struct TempDir(pub PathBuf);

    impl TempDir {
        pub fn new() -> Self {
            static NEXT: AtomicUsize = AtomicUsize::new(0);
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let dir = std::env::temp_dir().join(format!("pane_serve_{}_{n}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.0).ok();
        }
    }

    /// An engine over a fresh store of `emb` whose two indexes follow
    /// `spec`, built and served on `threads` workers. Keep the directory
    /// alive as long as the engine.
    pub fn store_engine(
        emb: &PaneEmbedding,
        spec: &IndexSpec,
        threads: usize,
    ) -> (ServeEngine, TempDir) {
        let dir = TempDir::new();
        pane_store::Store::init(&dir.0, emb, spec, spec, threads).unwrap();
        (ServeEngine::open(&dir.0, threads).unwrap(), dir)
    }
}
