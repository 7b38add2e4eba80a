//! Delta-segment wrapper: O(1) incremental inserts over any base index.
//!
//! IVF and HNSW builds are batch algorithms — appending a vector means
//! either an O(n) structural edit (IVF cell splice) or a graph insertion
//! whose determinism depends on build-time state the index file does
//! not carry (the HNSW level seed). A serving daemon needs neither: it
//! needs fresh vectors to be *queryable now* and folded into the optimized
//! structure *eventually*. [`DeltaIndex`] provides exactly that split:
//!
//! * [`insert`](VectorIndex::insert) appends the vector to a flat **delta
//!   segment** in amortized O(dim);
//! * [`search`](VectorIndex::search) merges the base structure's top-k
//!   with an exact scan of the delta segment under one total order
//!   ([`crate::topk::cmp_ranked`]), so a fresh vector is returned by the very
//!   next query — no rebuild, and exact-by-construction for the delta;
//! * a **compaction** (rebuilding the base over all vectors and wrapping
//!   the result in a fresh `DeltaIndex`) bounds the linear delta-scan
//!   cost. The serving layer owns the original vectors, so compaction
//!   policy lives there (`pane-serve`'s `compact` request / the
//!   `pane serve` daemon), not here.
//!
//! Ids are dense and append-ordered: the delta vector at slot `s` has id
//! `base.len() + s`, matching how `pane-core`'s `grow_embedding` assigns
//! ids to newly arrived nodes.

use crate::topk::TopK;
use crate::{scan::ScanRows, AnyIndex, IndexError, IndexKind, Neighbor, VectorIndex};
use pane_linalg::DenseMatrix;
use std::path::Path;

/// A base index plus a flat, append-only delta segment merged into every
/// search. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct DeltaIndex {
    base: AnyIndex,
    /// Inserted vectors; row `s` has id `base.len() + s`.
    delta: ScanRows,
}

impl DeltaIndex {
    /// Wraps `base` with an empty delta segment.
    pub fn new(base: AnyIndex) -> Self {
        let dim = base.dim();
        Self {
            base,
            delta: ScanRows::new(DenseMatrix::zeros(0, dim)),
        }
    }

    /// The wrapped base index.
    pub fn base(&self) -> &AnyIndex {
        &self.base
    }

    /// Number of vectors in the base structure.
    pub fn base_len(&self) -> usize {
        self.base.len()
    }

    /// Number of vectors accumulated in the delta segment since the last
    /// compaction.
    pub fn delta_len(&self) -> usize {
        self.delta.matrix().rows()
    }

    /// Runtime search knob pass-through (IVF bases only).
    pub fn set_nprobe(&mut self, nprobe: usize) -> bool {
        self.base.set_nprobe(nprobe)
    }

    /// Runtime search knob pass-through (HNSW bases only).
    pub fn set_ef_search(&mut self, ef: usize) -> bool {
        self.base.set_ef_search(ef)
    }
}

impl VectorIndex for DeltaIndex {
    fn kind(&self) -> IndexKind {
        self.base.kind()
    }

    fn len(&self) -> usize {
        self.base.len() + self.delta_len()
    }

    fn dim(&self) -> usize {
        self.base.dim()
    }

    /// The base's answers for the block, then **one** pass over the
    /// delta panel for the whole block, scored by the same dot the base
    /// uses for its own vectors.
    fn search_block(&self, queries: &[f64], k: usize) -> Vec<Vec<Neighbor>> {
        let base_hits = self.base.search_block(queries, k);
        if self.delta_len() == 0 {
            return base_hits;
        }
        let offset = self.base.len();
        let mut accs: Vec<_> = base_hits
            .into_iter()
            .map(|hits| {
                let mut acc = TopK::new(k);
                for h in hits {
                    acc.push(h.index, h.score);
                }
                acc
            })
            .collect();
        let rows = std::iter::once(0..self.delta_len());
        self.delta
            .scan_block(&mut accs, queries, rows, |s| offset + s);
        accs.into_iter().map(TopK::into_sorted).collect()
    }

    fn insert(&mut self, vector: &[f64]) -> Result<usize, IndexError> {
        if vector.len() != self.dim() {
            return Err(IndexError::Build(format!(
                "DeltaIndex::insert: vector has dim {}, index holds dim {}",
                vector.len(),
                self.dim()
            )));
        }
        self.delta.push_row(vector);
        Ok(self.len() - 1)
    }

    fn save(&self, path: &Path) -> Result<(), IndexError> {
        if self.delta_len() > 0 {
            return Err(IndexError::Unsupported(format!(
                "DeltaIndex holds {} uncompacted delta vectors; fold them into a fresh base \
                 first — take a store snapshot (`pane store snapshot` / the daemon's \
                 `snapshot` op) or issue a `compact` — then save",
                self.delta_len()
            )));
        }
        self.base.save(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{clustered_vectors, renormalized};
    use crate::{
        FlatIndex, HnswConfig, HnswIndex, IvfConfig, IvfIndex, Metric, SqConfig, SqFlatIndex,
    };

    fn split(data: &DenseMatrix, at: usize) -> (DenseMatrix, Vec<Vec<f64>>) {
        let head = data.row_block(0..at);
        let tail = (at..data.rows()).map(|i| data.row(i).to_vec()).collect();
        (head, tail)
    }

    #[test]
    fn delta_over_flat_matches_full_flat_exactly() {
        let data = clustered_vectors(120, 10, 4, 0.2);
        let (head, tail) = split(&data, 100);
        let full = FlatIndex::build(&data, Metric::InnerProduct);
        let mut delta = DeltaIndex::new(AnyIndex::Flat(FlatIndex::build(
            &head,
            Metric::InnerProduct,
        )));
        for (i, v) in tail.iter().enumerate() {
            assert_eq!(delta.insert(v).unwrap(), 100 + i);
        }
        assert_eq!(delta.len(), 120);
        for v in (0..120).step_by(7) {
            assert_eq!(
                delta.search(data.row(v), 9),
                full.search(data.row(v), 9),
                "delta-merged search diverged from the flat rebuild at {v}"
            );
        }
    }

    #[test]
    fn fresh_vector_is_served_by_next_query_on_every_base() {
        let data = renormalized(clustered_vectors(200, 8, 4, 0.15));
        let (head, tail) = split(&data, 196);
        let bases = [
            AnyIndex::Flat(FlatIndex::build(&head, Metric::InnerProduct)),
            AnyIndex::Ivf(IvfIndex::build(
                &head,
                &IvfConfig {
                    nlist: 8,
                    nprobe: 8,
                    ..Default::default()
                },
            )),
            AnyIndex::Hnsw(HnswIndex::build(&head, &HnswConfig::default())),
        ];
        for base in bases {
            let kind = base.kind();
            let mut idx = DeltaIndex::new(base);
            for v in &tail {
                idx.insert(v).unwrap();
            }
            for (s, v) in tail.iter().enumerate() {
                let hits = idx.search(v, 1);
                assert_eq!(
                    hits[0].index,
                    196 + s,
                    "{kind}: inserted vector not returned as its own nearest neighbor"
                );
                assert!((hits[0].score - 1.0).abs() < 1e-9);
            }
        }
    }

    /// The block path (the base's block, then one delta pass for all
    /// queries) answers each query exactly as a block of one does — on
    /// every base kind, odd block size, delta non-empty.
    #[test]
    fn block_search_with_pending_delta_matches_single_searches() {
        let data = clustered_vectors(230, 32, 4, 0.2);
        let (head, tail) = split(&data, 200);
        let bases = [
            AnyIndex::Flat(FlatIndex::build(&head, Metric::InnerProduct)),
            AnyIndex::Ivf(IvfIndex::build(&head, &IvfConfig::default())),
            AnyIndex::Hnsw(HnswIndex::build(&head, &HnswConfig::default())),
            AnyIndex::SqFlat(SqFlatIndex::build(&head, SqConfig::default())),
        ];
        for base in bases {
            let mut idx = DeltaIndex::new(base);
            for v in &tail {
                idx.insert(v).unwrap();
            }
            let queries = data.row_block(195..200);
            let single: Vec<_> = (0..5).map(|i| idx.search(queries.row(i), 12)).collect();
            assert!(
                single.iter().flatten().any(|h| h.index >= 200),
                "{}: no delta row among the hits — the test lost its point",
                idx.kind()
            );
            for threads in [1, 2] {
                assert_eq!(
                    idx.batch_search(&queries, 12, threads),
                    single,
                    "{} block diverged from single searches",
                    idx.kind()
                );
            }
        }
    }

    #[test]
    fn insert_dim_mismatch_is_structured_error() {
        let data = renormalized(clustered_vectors(10, 6, 2, 0.2));
        let mut idx = DeltaIndex::new(AnyIndex::Flat(FlatIndex::build(
            &data,
            Metric::InnerProduct,
        )));
        assert!(matches!(idx.insert(&[1.0, 2.0]), Err(IndexError::Build(_))));
    }

    #[test]
    fn save_with_pending_delta_is_refused() {
        let data = renormalized(clustered_vectors(10, 6, 2, 0.2));
        let mut idx = DeltaIndex::new(AnyIndex::Flat(FlatIndex::build(
            &data,
            Metric::InnerProduct,
        )));
        idx.insert(&[0.5; 6]).unwrap();
        let dir = std::env::temp_dir().join(format!("pane_delta_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert!(matches!(
            idx.save(&dir.join("pending.idx")),
            Err(IndexError::Unsupported(_))
        ));
    }

    #[test]
    fn ivf_and_hnsw_decline_native_insert() {
        let data = renormalized(clustered_vectors(30, 6, 2, 0.2));
        let mut ivf = IvfIndex::build(&data, &IvfConfig::default());
        assert!(matches!(
            ivf.insert(data.row(0)),
            Err(IndexError::Unsupported(_))
        ));
        let mut hnsw = HnswIndex::build(&data, &HnswConfig::default());
        assert!(matches!(
            hnsw.insert(data.row(0)),
            Err(IndexError::Unsupported(_))
        ));
    }

    #[test]
    fn flat_native_insert_appends() {
        let data = clustered_vectors(20, 5, 2, 0.2);
        let mut flat = FlatIndex::build(&data, Metric::InnerProduct);
        let id = flat.insert(&[1.0, 0.0, 0.0, 0.0, 0.0]).unwrap();
        assert_eq!(id, 20);
        assert_eq!(flat.len(), 21);
        let hits = flat.search(&[1.0, 0.0, 0.0, 0.0, 0.0], 1);
        assert_eq!(hits[0].index, 20);
    }
}
