//! Exact full-scan index — the recall baseline.

use crate::persist::{columnar_matrix, columnar_meta, open_index_columns};
use crate::topk::TopK;
use crate::{scan, IndexError, IndexKind, Metric, Neighbor, VectorIndex};
use pane_format::{section, Artifact, ColumnData, ColumnSpec};
use pane_linalg::DenseMatrix;
use std::{borrow::Cow, path::Path};

/// Brute-force index: scans every stored vector, keeping the top-k with a
/// bounded heap (`O(n log k)` per query). Exact by construction — the
/// other indexes measure their recall against it.
#[derive(Debug, Clone)]
pub struct FlatIndex {
    metric: Metric,
    data: DenseMatrix,
}

impl FlatIndex {
    /// Indexes the rows of `data` (moved in or copied; normalized if cosine).
    ///
    /// # Panics
    /// Panics if `data` has no rows or no columns.
    pub fn build<'a>(data: impl Into<Cow<'a, DenseMatrix>>, metric: Metric) -> Self {
        let data = metric.prepare(data.into().into_owned());
        assert!(
            data.rows() > 0 && data.cols() > 0,
            "FlatIndex::build: empty data"
        );
        Self { metric, data }
    }

    /// Reads an index written by [`VectorIndex::save`].
    ///
    /// Fails with a structured [`IndexError`] on any corruption: `build`
    /// never produces an empty index, so `n = 0` or `dim = 0` is rejected
    /// at load time rather than surprising the first search.
    pub fn load(path: &Path) -> Result<Self, IndexError> {
        let (c, metric) = open_index_columns(path, IndexKind::Flat)?;
        Self::from_columns(&c, metric)
    }

    /// Reconstructs the index from an already-validated container.
    pub(crate) fn from_columns(
        c: &pane_format::Columns,
        metric: Metric,
    ) -> Result<Self, IndexError> {
        let data = columnar_matrix(c, section::INDEX_VECTORS)?;
        if data.rows() == 0 || data.cols() == 0 || data.cols() > 1 << 24 {
            return Err(IndexError::Format(format!(
                "flat vectors section is {}×{}; outside the valid range",
                data.rows(),
                data.cols()
            )));
        }
        Ok(Self { metric, data })
    }

    /// The stored (metric-prepared) vectors.
    pub fn vectors(&self) -> &DenseMatrix {
        &self.data
    }
}

impl VectorIndex for FlatIndex {
    fn kind(&self) -> IndexKind {
        IndexKind::Flat
    }

    fn metric(&self) -> Metric {
        self.metric
    }

    fn len(&self) -> usize {
        self.data.rows()
    }

    fn dim(&self) -> usize {
        self.data.cols()
    }

    /// The panel walk: the store is streamed **once** for the whole
    /// block, every query scored against each cache-hot row panel
    /// (`scan::scan_block`). Per-query row order is unchanged, so each
    /// answer is bit-identical to a block of that query alone.
    fn search_block(&self, queries: &[f64], k: usize) -> Vec<Vec<Neighbor>> {
        let dim = self.dim();
        let mut accs: Vec<_> = (0..queries.len() / dim).map(|_| TopK::new(k)).collect();
        scan::scan_block(&mut accs, queries, self.data.data(), dim, |r| r);
        accs.into_iter().map(TopK::into_sorted).collect()
    }

    fn insert(&mut self, vector: &[f64]) -> Result<usize, IndexError> {
        if vector.len() != self.dim() {
            return Err(IndexError::Build(format!(
                "FlatIndex::insert: vector has dim {}, index holds dim {}",
                vector.len(),
                self.dim()
            )));
        }
        let prepared = self.metric.prepare_query(vector);
        self.data.push_row(&prepared);
        Ok(self.data.rows() - 1)
    }

    fn save(&self, path: &Path) -> Result<(), IndexError> {
        let specs = [ColumnSpec {
            id: section::INDEX_VECTORS,
            rows: self.data.rows(),
            cols: self.data.cols(),
            data: ColumnData::F64(self.data.data()),
        }];
        pane_format::write_columns(
            path,
            Artifact::Index,
            columnar_meta(IndexKind::Flat, self.metric),
            &specs,
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::clustered_vectors;

    #[test]
    fn finds_itself_first_under_cosine() {
        let data = clustered_vectors(120, 16, 4, 0.2);
        let idx = FlatIndex::build(&data, Metric::Cosine);
        for v in [0, 17, 119] {
            let hits = idx.search(data.row(v), 5);
            assert_eq!(hits[0].index, v);
            assert!((hits[0].score - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn batch_matches_single_and_threads() {
        let data = clustered_vectors(80, 8, 3, 0.3);
        let idx = FlatIndex::build(&data, Metric::InnerProduct);
        let single: Vec<_> = (0..data.rows())
            .map(|i| idx.search(data.row(i), 4))
            .collect();
        for threads in [1, 3] {
            let batch = idx.batch_search(&data, 4, threads);
            assert_eq!(batch, single);
        }
    }
}
