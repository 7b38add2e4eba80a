//! Exact full-scan index — the recall baseline.

use crate::persist::{columnar_matrix, columnar_meta};
use crate::topk::TopK;
use crate::{scan::ScanRows, IndexError, IndexKind, Metric, Neighbor, VectorIndex};
use pane_format::{section, Artifact, ColumnData, ColumnSpec};
use pane_linalg::DenseMatrix;
use std::{borrow::Cow, path::Path};

/// Brute-force index: scans every stored vector, keeping the top-k with a
/// bounded heap (`O(n log k)` per query). Exact by construction — the
/// other indexes measure their recall against it.
#[derive(Debug, Clone)]
pub struct FlatIndex {
    data: ScanRows,
}

impl FlatIndex {
    /// Indexes the rows of `data` as given (moved in or copied). The
    /// [`Metric`] is ignored; see its docs.
    ///
    /// # Panics
    /// Panics if `data` has no rows or no columns.
    pub fn build<'a>(data: impl Into<Cow<'a, DenseMatrix>>, _: Metric) -> Self {
        let data = data.into().into_owned();
        assert!(
            data.rows() > 0 && data.cols() > 0,
            "FlatIndex::build: empty data"
        );
        Self {
            data: ScanRows::new(data),
        }
    }

    /// Reconstructs the index from an already-validated container.
    ///
    /// `build` never produces an empty index, so `n = 0` or `dim = 0` is
    /// a structured [`IndexError`] at load time rather than a surprise
    /// for the first search.
    pub(crate) fn from_columns(c: &mut pane_format::Columns) -> Result<Self, IndexError> {
        let data = columnar_matrix(c, section::INDEX_VECTORS)?;
        if data.rows() == 0 || data.cols() == 0 || data.cols() > 1 << 24 {
            return Err(IndexError::Format(format!(
                "flat vectors section is {}×{}; outside the valid range",
                data.rows(),
                data.cols()
            )));
        }
        Ok(Self {
            data: ScanRows::new(data),
        })
    }

    /// The stored vectors.
    pub fn vectors(&self) -> &DenseMatrix {
        self.data.matrix()
    }
}

impl VectorIndex for FlatIndex {
    fn kind(&self) -> IndexKind {
        IndexKind::Flat
    }

    fn len(&self) -> usize {
        self.vectors().rows()
    }

    fn dim(&self) -> usize {
        self.vectors().cols()
    }

    /// The panel walk: the store is streamed **once** for the whole
    /// block, every query scored against each cache-hot row panel
    /// (`ScanRows::scan_block`, screened). Per-query row order is
    /// unchanged, so each answer is bit-identical to a block of that
    /// query alone.
    fn search_block(&self, queries: &[f64], k: usize) -> Vec<Vec<Neighbor>> {
        let mut accs: Vec<_> = (0..queries.len() / self.dim())
            .map(|_| TopK::new(k))
            .collect();
        self.data
            .scan_block(&mut accs, queries, std::iter::once(0..self.len()), |r| r);
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
        self.data.push_row(vector);
        Ok(self.len() - 1)
    }

    fn save(&self, path: &Path) -> Result<(), IndexError> {
        let specs = [ColumnSpec {
            id: section::INDEX_VECTORS,
            rows: self.len(),
            cols: self.dim(),
            data: ColumnData::F64(self.vectors().data()),
        }];
        pane_format::write_columns(
            path,
            Artifact::Index,
            columnar_meta(IndexKind::Flat),
            &specs,
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{clustered_vectors, renormalized};

    #[test]
    fn finds_itself_first() {
        let data = renormalized(clustered_vectors(120, 16, 4, 0.2));
        let idx = FlatIndex::build(&data, Metric::InnerProduct);
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
