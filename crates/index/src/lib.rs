#![deny(missing_docs)]
// Indexed loops in the numeric kernels are deliberate (they keep the
// zip-free auto-vectorizable shape the perf guide recommends).
#![allow(clippy::needless_range_loop)]
//! `pane-index` — the ANN serving subsystem behind PANE's query layer.
//!
//! PANE's embeddings exist to be *queried*: similar-node search, link
//! recommendation, attribute inference. Served naively each query is a
//! brute-force `O(n)` scan over every node — untenable at the paper's
//! MAG scale (59.3M nodes). This crate interposes a purpose-built index
//! between the stored vectors and the query traffic:
//!
//! * [`FlatIndex`] — the exact baseline: a full scan with a bounded-heap
//!   top-k reduction. Ground truth for recall measurements;
//! * [`IvfIndex`] — an inverted-file index: a seeded k-means coarse
//!   quantizer partitions the vectors into `nlist` cells, queries probe
//!   only the `nprobe` nearest cells. Built block-parallel with
//!   `pane-parallel`, yet bit-identical across thread counts (the same
//!   determinism contract the embedding pipeline upholds);
//! * [`HnswIndex`] — a hierarchical navigable-small-world graph with
//!   *deterministic seeded level assignment*, so builds are reproducible
//!   like the rest of the pipeline;
//! * [`DeltaIndex`] — any of the above plus a flat, append-only **delta
//!   segment**: O(1) incremental inserts merged into every search, the
//!   ingest path a serving daemon (`pane serve`) uses so freshly arrived
//!   nodes are queryable without a rebuild.
//!
//! All structures implement [`VectorIndex`] — one required search method,
//! `search_block` (a block of prepared queries in, hits out), on which
//! `search` (a block of one) and `batch_search` (the block split over
//! threads) are written once, plus `insert` / `save` and per-type
//! `build` / `load` — persist as one
//! `PANECOL1` container each (see [`persist`]; sections are listed in
//! `pane_format::section`), and score with a dot product: [`Metric::Cosine`]
//! L2-normalizes stored and query vectors first (so the dot *is* the
//! cosine), [`Metric::InnerProduct`] ranks by the raw dot — both what
//! Eq. 22 link scores and the unified similar-node scale (see
//! `pane-core`'s `query` module) need.

pub mod delta;
pub mod flat;
pub mod hnsw;
pub mod ivf;
pub mod kmeans;
pub mod persist;
#[cfg(test)]
mod proptests;
pub(crate) mod scan;
pub mod spec;
pub mod sq;
pub mod topk;

pub use delta::DeltaIndex;
pub use flat::FlatIndex;
pub use hnsw::{HnswConfig, HnswIndex};
pub use ivf::{IvfConfig, IvfIndex};
pub use kmeans::{kmeans, KmeansResult};
pub use persist::{load_index, AnyIndex};
pub use spec::IndexSpec;
pub use sq::{SqConfig, SqFlatIndex};

use pane_linalg::{vecops, DenseMatrix};
use pane_parallel::{even_ranges_nonempty, map_blocks};
use std::io;
use std::path::Path;

/// SplitMix64 — the crate's only randomness source (k-means init, HNSW
/// level assignment). A counter-based generator keeps the crate std-only
/// and makes every derived decision a pure function of `(seed, counter)`,
/// independent of thread count or insertion order.
#[inline]
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform `f64` in `(0, 1]` from a SplitMix64 word (never 0, so it is
/// safe under `ln`).
#[inline]
pub(crate) fn unit_open(x: u64) -> f64 {
    (((splitmix64(x) >> 11) + 1) as f64) * (1.0 / (1u64 << 53) as f64)
}

/// The prepared query rows of a [`VectorIndex::search_block`] block;
/// panics if `queries.len()` is not a multiple of `dim`.
pub(crate) fn block_rows(queries: &[f64], dim: usize) -> std::slice::ChunksExact<'_, f64> {
    assert_eq!(queries.len() % dim, 0, "ragged query block");
    queries.chunks_exact(dim)
}

/// One search hit: an item id and its similarity score (larger = better).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Row index of the hit in the indexed matrix.
    pub index: usize,
    /// Similarity under the index's [`Metric`].
    pub score: f64,
}

/// How vectors are compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Cosine similarity: vectors are L2-normalized at build/query time and
    /// compared by dot product. Used for similar-node search over the
    /// `[X_f ‖ X_b]` classifier features.
    Cosine,
    /// Raw inner product (maximum-inner-product search). Used for link
    /// recommendation, where the score is `q · X_b[dst]` (Eq. 22).
    InnerProduct,
}

impl Metric {
    /// Stable on-disk tag.
    pub fn tag(self) -> u8 {
        match self {
            Metric::Cosine => 0,
            Metric::InnerProduct => 1,
        }
    }

    /// Inverse of [`Metric::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(Metric::Cosine),
            1 => Some(Metric::InnerProduct),
            _ => None,
        }
    }

    /// L2-normalizes each row of `data` in place when the metric is cosine;
    /// taken by value, so an owned matrix becomes index storage uncopied.
    pub(crate) fn prepare(self, mut data: DenseMatrix) -> DenseMatrix {
        if self == Metric::Cosine {
            for i in 0..data.rows() {
                vecops::normalize(data.row_mut(i), 1e-300);
            }
        }
        data
    }

    /// Copies `query`, L2-normalizing it when the metric is cosine.
    pub(crate) fn prepare_query(self, query: &[f64]) -> Vec<f64> {
        let mut q = query.to_vec();
        if self == Metric::Cosine {
            vecops::normalize(&mut q, 1e-300);
        }
        q
    }
}

/// Which concrete index a [`VectorIndex`] trait object is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// Exact full-scan baseline.
    Flat,
    /// Inverted-file (k-means coarse quantizer) index.
    Ivf,
    /// Hierarchical navigable-small-world graph index.
    Hnsw,
    /// Scalar-quantized flat scan (i8 codes + per-row scale): the 8×-RAM
    /// baseline with a re-ranked shortlist.
    SqFlat,
}

impl IndexKind {
    /// Stable on-disk tag.
    pub fn tag(self) -> u8 {
        match self {
            IndexKind::Flat => 0,
            IndexKind::Ivf => 1,
            IndexKind::Hnsw => 2,
            IndexKind::SqFlat => 3,
        }
    }

    /// Inverse of [`IndexKind::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(IndexKind::Flat),
            1 => Some(IndexKind::Ivf),
            2 => Some(IndexKind::Hnsw),
            3 => Some(IndexKind::SqFlat),
            _ => None,
        }
    }
}

impl std::fmt::Display for IndexKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            IndexKind::Flat => "flat",
            IndexKind::Ivf => "ivf",
            IndexKind::Hnsw => "hnsw",
            IndexKind::SqFlat => "sqflat",
        })
    }
}

/// Errors from building, saving, loading, or mutating an index.
#[derive(Debug)]
pub enum IndexError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file is not a recognizable index dump.
    Format(String),
    /// Invalid build input (e.g. empty data, zero dimension).
    Build(String),
    /// The operation is not supported by this index structure (e.g.
    /// [`VectorIndex::insert`] on a structure without an append path —
    /// wrap it in a [`DeltaIndex`] instead).
    Unsupported(String),
}

impl std::fmt::Display for IndexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexError::Io(e) => write!(f, "I/O error: {e}"),
            IndexError::Format(m) => write!(f, "format error: {m}"),
            IndexError::Build(m) => write!(f, "build error: {m}"),
            IndexError::Unsupported(m) => write!(f, "unsupported operation: {m}"),
        }
    }
}

impl std::error::Error for IndexError {}

impl From<io::Error> for IndexError {
    fn from(e: io::Error) -> Self {
        IndexError::Io(e)
    }
}

/// Uniform interface over the index structures.
///
/// `build` and `load` are inherent per-type (their configurations differ);
/// everything a *serving* path needs is object-safe here.
pub trait VectorIndex: Send + Sync {
    /// Which structure this is.
    fn kind(&self) -> IndexKind;
    /// Similarity metric the index was built with.
    fn metric(&self) -> Metric;
    /// Number of indexed vectors.
    fn len(&self) -> usize;
    /// Whether the index is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Dimensionality of the indexed vectors.
    fn dim(&self) -> usize;

    /// The one search primitive: top-`k` neighbors, best first, of every
    /// query in a **block** — `queries` is row-major, `queries.len() /
    /// dim()` rows, each *already metric-prepared* (cosine-normalized
    /// exactly once, by the two provided methods below). Single-threaded.
    /// Each answer is what a block of that query alone gives; structures
    /// whose scans share rows across queries (flat, a [`DeltaIndex`]'s
    /// delta segment) walk them once per block, the others loop.
    ///
    /// # Panics
    /// Panics if `queries.len()` is not a multiple of `dim()`.
    fn search_block(&self, queries: &[f64], k: usize) -> Vec<Vec<Neighbor>>;

    /// Top-`k` neighbors of `query`, best first: a block of one.
    ///
    /// # Panics
    /// Panics if `query.len() != self.dim()`.
    fn search(&self, query: &[f64], k: usize) -> Vec<Neighbor> {
        assert_eq!(
            query.len(),
            self.dim(),
            "{}::search: dim mismatch",
            self.kind()
        );
        let q = self.metric().prepare_query(query);
        self.search_block(&q, k).pop().unwrap_or_default()
    }

    /// Top-`k` neighbors for each query row: the rows are prepared once
    /// and split into `threads` contiguous blocks, one scoped worker each.
    /// Queries are partitioned, never split, so the result is identical
    /// for every thread count.
    ///
    /// # Panics
    /// Panics if a non-empty `queries` has `cols() != self.dim()`.
    fn batch_search(&self, queries: &DenseMatrix, k: usize, threads: usize) -> Vec<Vec<Neighbor>> {
        let dim = self.dim();
        assert!(
            queries.rows() == 0 || queries.cols() == dim,
            "{}::batch_search: dim mismatch",
            self.kind()
        );
        let prepared = self.metric().prepare(queries.clone());
        let ranges = even_ranges_nonempty(queries.rows(), threads.max(1));
        let per_block = map_blocks(&ranges, |_, range| {
            self.search_block(&prepared.data()[range.start * dim..range.end * dim], k)
        });
        per_block.into_iter().flatten().collect()
    }

    /// Appends one vector, returning its assigned id (`len()` before the
    /// insert — ids are densely assigned in insertion order).
    ///
    /// The default declines with [`IndexError::Unsupported`]: only
    /// structures with a genuine append path implement it ([`FlatIndex`]
    /// natively, [`DeltaIndex`] by buffering into its flat delta segment
    /// for any base). IVF and HNSW serve fresh vectors through
    /// [`DeltaIndex`] until a compaction rebuilds them.
    fn insert(&mut self, vector: &[f64]) -> Result<usize, IndexError> {
        let _ = vector;
        Err(IndexError::Unsupported(format!(
            "{} index has no incremental insert path; wrap it in a DeltaIndex",
            self.kind()
        )))
    }

    /// Writes the index as a `PANECOL1` container (one typed,
    /// checksummed section per array; see [`persist`]). The bytes are a
    /// pure function of the index, so equal builds save byte-identically.
    fn save(&self, path: &Path) -> Result<(), IndexError>;
}

#[cfg(test)]
pub(crate) mod testutil {
    use pane_linalg::DenseMatrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Clustered unit vectors: `clusters` Gaussian centers, points =
    /// center + `noise`·N(0,1), row-normalized. A stand-in for the shape
    /// of real `[X_f ‖ X_b]` features.
    pub fn clustered_vectors(n: usize, dim: usize, clusters: usize, noise: f64) -> DenseMatrix {
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        let mut sampler = pane_linalg::NormalSampler::new();
        let centers: Vec<Vec<f64>> = (0..clusters)
            .map(|_| (0..dim).map(|_| sampler.sample(&mut rng)).collect())
            .collect();
        let mut m = DenseMatrix::zeros(n, dim);
        for i in 0..n {
            let c = rng.gen_range(0..clusters);
            let row = m.row_mut(i);
            for (j, slot) in row.iter_mut().enumerate() {
                *slot = centers[c][j] + noise * sampler.sample(&mut rng);
            }
            pane_linalg::vecops::normalize(row, 1e-300);
        }
        m
    }

    /// Re-stamps the header checksum of a `PANECOL1` image holding
    /// `sections` table entries, after a test patched a header or table
    /// word — so the patch reaches the length/shape guards instead of
    /// being intercepted as a checksum mismatch.
    pub fn reseal_header(bytes: &mut [u8], sections: usize) {
        use pane_format::{checksum, HEADER_LEN, TABLE_ENTRY_LEN};
        let table_end = HEADER_LEN + TABLE_ENTRY_LEN * sections;
        let covered = [&bytes[..24], &bytes[HEADER_LEN..table_end]].concat();
        bytes[24..HEADER_LEN].copy_from_slice(&checksum(&covered).to_le_bytes());
    }

    /// Lets `edit` rewrite the payload of section `id` in a saved index
    /// file, then re-stamps that section's checksum and the header's: the
    /// container stays valid, so the lie is `from_columns`' to catch.
    pub fn patch_section(path: &std::path::Path, id: u32, edit: impl FnOnce(&mut [u8])) {
        use pane_format::{checksum, HEADER_LEN, TABLE_ENTRY_LEN};
        let mut bytes = std::fs::read(path).unwrap();
        let word = |b: &[u8], at: usize| u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
        let sections = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
        let entry = (0..sections)
            .map(|i| HEADER_LEN + TABLE_ENTRY_LEN * i)
            .find(|&e| bytes[e..e + 4] == id.to_le_bytes())
            .expect("section present");
        let (offset, len) = (word(&bytes, entry + 24), word(&bytes, entry + 32));
        let payload = offset as usize..(offset + len) as usize;
        edit(&mut bytes[payload.clone()]);
        let sum = checksum(&bytes[payload]);
        bytes[entry + 40..entry + 48].copy_from_slice(&sum.to_le_bytes());
        reseal_header(&mut bytes, sections);
        std::fs::write(path, bytes).unwrap();
    }
}
