//! Scalar-quantized flat index — the low-RAM exact-rerank baseline.
//!
//! [`SqFlatIndex`] stores each metric-prepared vector as `dim` signed
//! bytes plus one `f64` scale: `code[j] = round(v[j] / scale · 127)`
//! with `scale = max|v| / 127`. That is 8× less resident memory than
//! the `f64` rows a [`crate::FlatIndex`] keeps, while the scan stays a
//! dense dot product — an `i8`×`i8` multiply accumulated in `i32`, one
//! of the shapes auto-vectorizers handle best.
//!
//! A scan over codes alone ranks approximately, so searches run in two
//! stages: the quantized scan keeps a shortlist of `k × rerank`
//! candidates, then re-scores only those before returning the top `k`.
//! Two re-rank sources are available:
//!
//! * [`VectorIndex::search`] — self-contained: re-scores the shortlist
//!   against *dequantized* rows (`code[j] · scale`). No extra memory,
//!   recall limited by the quantization noise floor;
//! * [`SqFlatIndex::search_rerank`] — re-scores against caller-provided
//!   full-precision rows. The serving tier keeps the embedding matrix
//!   resident anyway (for attribute inference and link scores), so exact
//!   re-ranking is free at the system level and recall is bounded only
//!   by shortlist coverage.
//!
//! Quantization, scan order, and tie-breaking are all deterministic:
//! the same build inputs produce bit-identical codes, and the same query
//! produces identical rankings on every run and thread count.

use crate::persist::{columnar_meta, open_index_columns};
use crate::{block_rows, scan, topk, IndexError, IndexKind, Metric, Neighbor, VectorIndex};
use pane_format::{section, Artifact, ColumnData, ColumnSpec};
use pane_linalg::{kernels, vecops, DenseMatrix};
use std::{borrow::Cow, path::Path};

/// Build-time options for [`SqFlatIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SqConfig {
    /// Shortlist multiplier: the quantized scan keeps `k × rerank`
    /// candidates for re-scoring (at least `k`). Larger values trade
    /// re-rank work for recall; 4 is enough for ≥ 0.99 recall@10 on
    /// clustered embedding-like data when re-ranking exactly.
    pub rerank: usize,
}

impl Default for SqConfig {
    fn default() -> Self {
        Self { rerank: 4 }
    }
}

/// Flat scan over 8-bit scalar-quantized vectors with shortlist
/// re-ranking. See the [module docs](self) for the memory/recall
/// contract.
#[derive(Debug, Clone)]
pub struct SqFlatIndex {
    metric: Metric,
    dim: usize,
    /// Row-major `n × dim` codes.
    codes: Vec<i8>,
    /// Per-row dequantization scale (`max|v| / 127`; 0 for all-zero rows).
    scales: Vec<f64>,
    rerank: usize,
}

/// Largest dimension an sqflat index holds: [`kernels::dot_i8`] sums `dim`
/// products of magnitude ≤ 127² in an `i32`, and `(1 << 17) · 127² < 2³¹`.
const MAX_DIM: usize = 1 << 17;

/// Quantizes one prepared row: symmetric max-abs scaling to `[-127, 127]`.
fn quantize_row(row: &[f64], codes: &mut Vec<i8>) -> f64 {
    let mut maxabs = 0.0f64;
    for &v in row {
        maxabs = maxabs.max(v.abs());
    }
    if maxabs == 0.0 || !maxabs.is_finite() {
        codes.extend(std::iter::repeat_n(0, row.len()));
        return 0.0;
    }
    let scale = maxabs / 127.0;
    let inv = 127.0 / maxabs;
    for &v in row {
        let q = (v * inv).round().clamp(-127.0, 127.0);
        codes.push(q as i8);
    }
    scale
}

impl SqFlatIndex {
    /// Quantizes and indexes the rows of `data`, owned or borrowed
    /// (normalized first if cosine, like every other index).
    ///
    /// # Panics
    /// Panics if `data` has no rows or no columns, or more than `1 << 17`
    /// columns (past that an `i32` code dot can wrap).
    pub fn build<'a>(
        data: impl Into<Cow<'a, DenseMatrix>>,
        metric: Metric,
        config: SqConfig,
    ) -> Self {
        let prepared = metric.prepare(data.into().into_owned());
        assert!(
            prepared.rows() > 0 && prepared.cols() > 0,
            "SqFlatIndex::build: empty data"
        );
        assert!(
            prepared.cols() <= MAX_DIM,
            "SqFlatIndex::build: dim exceeds the i32 code-dot cap"
        );
        let mut codes = Vec::with_capacity(prepared.rows() * prepared.cols());
        let mut scales = Vec::with_capacity(prepared.rows());
        for i in 0..prepared.rows() {
            scales.push(quantize_row(prepared.row(i), &mut codes));
        }
        Self {
            metric,
            dim: prepared.cols(),
            codes,
            scales,
            rerank: config.rerank.max(1),
        }
    }

    /// Reads an index written by [`VectorIndex::save`].
    pub fn load(path: &Path) -> Result<Self, IndexError> {
        let (c, metric) = open_index_columns(path, IndexKind::SqFlat)?;
        Self::from_columns(&c, metric)
    }

    /// Reconstructs the index from an already-validated container.
    pub(crate) fn from_columns(
        c: &pane_format::Columns,
        metric: Metric,
    ) -> Result<Self, IndexError> {
        let (n, dim) = c.dims(section::SQ_CODES)?;
        if n == 0 || dim == 0 {
            return Err(IndexError::Format(format!(
                "sqflat codes section is {n}×{dim}; an index is never empty"
            )));
        }
        if dim > MAX_DIM {
            return Err(IndexError::Format(format!(
                "sqflat dim {dim} exceeds {MAX_DIM}, past which an i32 code dot can wrap"
            )));
        }
        let (sn, sc) = c.dims(section::SQ_SCALES)?;
        if sn != n || sc != 1 {
            return Err(IndexError::Format(format!(
                "sqflat scales section is {sn}×{sc}, expected {n}×1"
            )));
        }
        let meta = c.u64s(section::SQ_META)?;
        if meta.len() != 1 {
            return Err(IndexError::Format(format!(
                "sqflat meta section holds {} words, expected 1",
                meta.len()
            )));
        }
        let rerank = meta[0];
        if rerank == 0 || rerank > 1 << 20 {
            return Err(IndexError::Format(format!(
                "sqflat rerank {rerank} outside [1, 2^20]"
            )));
        }
        let scales = c.f64s(section::SQ_SCALES)?;
        for (i, &s) in scales.iter().enumerate() {
            if !(s.is_finite() && s >= 0.0) {
                return Err(IndexError::Format(format!(
                    "sqflat scale[{i}] = {s} is not a finite non-negative value"
                )));
            }
        }
        Ok(Self {
            metric,
            dim,
            codes: c.i8s(section::SQ_CODES)?.to_vec(),
            scales: scales.to_vec(),
            rerank: rerank as usize,
        })
    }

    /// Shortlist multiplier the index was built with.
    pub fn rerank(&self) -> usize {
        self.rerank
    }

    /// Code row `i`.
    #[inline]
    fn code_row(&self, i: usize) -> &[i8] {
        &self.codes[i * self.dim..(i + 1) * self.dim]
    }

    /// Shortlist size for a top-`k` request.
    fn shortlist(&self, k: usize) -> usize {
        k.saturating_mul(self.rerank).max(k).min(self.len())
    }

    /// Quantized scan: top `shortlist(k)` candidates under the
    /// approximate (code-domain) score, best first. Runs as a fused
    /// panel scan over the contiguous code rows ([`scan::scan_topk_i8`]);
    /// the integer dots are exact under any unroll, so the scores are
    /// identical to the one-row-at-a-time loop.
    fn scan(&self, q: &[f64], k: usize) -> Vec<Neighbor> {
        let mut qcodes = Vec::with_capacity(self.dim);
        let qscale = quantize_row(q, &mut qcodes);
        let mut acc = topk::TopK::new(self.shortlist(k));
        scan::scan_topk_i8(&mut acc, &qcodes, &self.codes, self.dim, |i, d| {
            qscale * self.scales[i] * d as f64
        });
        acc.into_sorted()
    }

    /// Top-`k` neighbors re-ranked against caller-provided
    /// full-precision rows instead of dequantized codes.
    ///
    /// `exact` must hold the *same rows in the same order* as the data
    /// the index was built from (un-prepared: this method applies the
    /// metric's normalization itself). The serving tier passes the
    /// resident embedding matrix, making recall a pure function of
    /// shortlist coverage.
    ///
    /// # Panics
    /// Panics if `query.len() != self.dim()` or `exact` disagrees with
    /// the index shape.
    pub fn search_rerank(&self, query: &[f64], k: usize, exact: &DenseMatrix) -> Vec<Neighbor> {
        assert_eq!(query.len(), self.dim, "SqFlatIndex::search_rerank: dim");
        assert_eq!(
            (exact.rows(), exact.cols()),
            (self.len(), self.dim),
            "SqFlatIndex::search_rerank: exact matrix shape mismatch"
        );
        let q = self.metric.prepare_query(query);
        let short = self.scan(&q, k);
        topk::select(
            short.into_iter().map(|cand| {
                let row = self.metric.prepare_query(exact.row(cand.index));
                (cand.index, vecops::dot(&q, &row))
            }),
            k,
        )
    }

    /// Bytes of vector payload held resident (codes + scales). The
    /// comparable figure for a [`crate::FlatIndex`] is `n · dim · 8`.
    pub fn resident_bytes(&self) -> usize {
        self.codes.len() * std::mem::size_of::<i8>()
            + self.scales.len() * std::mem::size_of::<f64>()
    }
}

impl VectorIndex for SqFlatIndex {
    fn kind(&self) -> IndexKind {
        IndexKind::SqFlat
    }

    fn metric(&self) -> Metric {
        self.metric
    }

    fn len(&self) -> usize {
        self.scales.len()
    }

    fn dim(&self) -> usize {
        self.dim
    }

    /// A loop over the block: the whole code array is L2-resident at
    /// serving sizes, so a panel form would buy nothing here.
    fn search_block(&self, queries: &[f64], k: usize) -> Vec<Vec<Neighbor>> {
        block_rows(queries, self.dim)
            .map(|q| {
                let short = self.scan(q, k);
                // Self-contained re-rank: f64 query against dequantized
                // rows, with the per-row scale hoisted out of the sum
                // (`scale · Σ q[j]·code[j]` via the mixed f64×i8 kernel).
                topk::select(
                    short.into_iter().map(|cand| {
                        let s = self.scales[cand.index]
                            * kernels::dot_f64_i8(q, self.code_row(cand.index));
                        (cand.index, s)
                    }),
                    k,
                )
            })
            .collect()
    }

    fn insert(&mut self, vector: &[f64]) -> Result<usize, IndexError> {
        if vector.len() != self.dim {
            return Err(IndexError::Build(format!(
                "SqFlatIndex::insert: vector has dim {}, index holds dim {}",
                vector.len(),
                self.dim
            )));
        }
        let prepared = self.metric.prepare_query(vector);
        self.scales.push(quantize_row(&prepared, &mut self.codes));
        Ok(self.len() - 1)
    }

    fn save(&self, path: &Path) -> Result<(), IndexError> {
        let meta = [self.rerank as u64];
        let specs = [
            ColumnSpec {
                id: section::SQ_CODES,
                rows: self.len(),
                cols: self.dim,
                data: ColumnData::I8(&self.codes),
            },
            ColumnSpec {
                id: section::SQ_SCALES,
                rows: self.len(),
                cols: 1,
                data: ColumnData::F64(&self.scales),
            },
            ColumnSpec {
                id: section::SQ_META,
                rows: 1,
                cols: 1,
                data: ColumnData::U64(&meta),
            },
        ];
        pane_format::write_columns(
            path,
            Artifact::Index,
            columnar_meta(IndexKind::SqFlat, self.metric),
            &specs,
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::clustered_vectors;
    use crate::FlatIndex;

    #[test]
    fn finds_itself_first_under_cosine() {
        let data = clustered_vectors(150, 24, 5, 0.2);
        let idx = SqFlatIndex::build(&data, Metric::Cosine, SqConfig::default());
        for v in [0, 42, 149] {
            let hits = idx.search(data.row(v), 5);
            assert_eq!(hits[0].index, v, "query {v}");
            assert!(
                (hits[0].score - 1.0).abs() < 0.02,
                "score {}",
                hits[0].score
            );
        }
    }

    #[test]
    fn uses_one_eighth_the_vector_memory() {
        let data = clustered_vectors(200, 64, 4, 0.2);
        let idx = SqFlatIndex::build(&data, Metric::Cosine, SqConfig::default());
        let flat_bytes = 200 * 64 * 8;
        // codes are 1/8 of flat; scales add 8 bytes per row.
        assert_eq!(idx.resident_bytes(), 200 * 64 + 200 * 8);
        assert!(idx.resident_bytes() * 7 < flat_bytes);
    }

    #[test]
    fn recall_against_exact_baseline() {
        let data = clustered_vectors(2000, 32, 8, 0.25);
        let exact = FlatIndex::build(&data, Metric::Cosine);
        let idx = SqFlatIndex::build(&data, Metric::Cosine, SqConfig::default());
        let k = 10;
        let queries = 50;
        let mut hit_dq = 0usize;
        let mut hit_rr = 0usize;
        for qi in 0..queries {
            let truth: Vec<usize> = exact
                .search(data.row(qi), k)
                .iter()
                .map(|h| h.index)
                .collect();
            let dq: Vec<usize> = idx
                .search(data.row(qi), k)
                .iter()
                .map(|h| h.index)
                .collect();
            let rr: Vec<usize> = idx
                .search_rerank(data.row(qi), k, &data)
                .iter()
                .map(|h| h.index)
                .collect();
            hit_dq += truth.iter().filter(|t| dq.contains(t)).count();
            hit_rr += truth.iter().filter(|t| rr.contains(t)).count();
        }
        let recall_dq = hit_dq as f64 / (queries * k) as f64;
        let recall_rr = hit_rr as f64 / (queries * k) as f64;
        assert!(recall_dq >= 0.90, "dequantized recall {recall_dq}");
        assert!(recall_rr >= 0.99, "exact-rerank recall {recall_rr}");
        // Exact re-rank can only improve on the dequantized shortlist.
        assert!(recall_rr >= recall_dq - 1e-12);
    }

    #[test]
    fn save_load_roundtrip_is_bit_identical() {
        let dir = std::env::temp_dir().join(format!("pane_sq_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sq.idx");
        let data = clustered_vectors(300, 16, 4, 0.3);
        let idx = SqFlatIndex::build(&data, Metric::InnerProduct, SqConfig { rerank: 3 });
        idx.save(&path).unwrap();
        let back = SqFlatIndex::load(&path).unwrap();
        assert_eq!(back.metric(), Metric::InnerProduct);
        assert_eq!(back.len(), 300);
        assert_eq!(back.dim(), 16);
        assert_eq!(back.codes, idx.codes);
        assert_eq!(
            back.scales.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
            idx.scales.iter().map(|s| s.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(back.rerank, 3);
        for q in [0, 150] {
            assert_eq!(back.search(data.row(q), 7), idx.search(data.row(q), 7));
        }
        std::fs::remove_file(&path).ok();
    }

    /// The dim cap is where the `i32` code dot stops being exact: a
    /// container one past it is a `Format` error (never a search), one
    /// at it loads and scores a saturated row without wrapping.
    #[test]
    fn dim_past_the_i32_dot_cap_is_a_format_error() {
        let dir = std::env::temp_dir().join(format!("pane_sq_cap_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cap.idx");
        let write = |dim: usize| {
            let (codes, scales, meta) = (vec![127i8; dim], [1.0 / 127.0], [1u64]);
            let specs = [
                ColumnSpec {
                    id: section::SQ_CODES,
                    rows: 1,
                    cols: dim,
                    data: ColumnData::I8(&codes),
                },
                ColumnSpec {
                    id: section::SQ_SCALES,
                    rows: 1,
                    cols: 1,
                    data: ColumnData::F64(&scales),
                },
                ColumnSpec {
                    id: section::SQ_META,
                    rows: 1,
                    cols: 1,
                    data: ColumnData::U64(&meta),
                },
            ];
            let meta_word = columnar_meta(IndexKind::SqFlat, Metric::InnerProduct);
            pane_format::write_columns(&path, Artifact::Index, meta_word, &specs).unwrap();
        };
        write(MAX_DIM + 1);
        match SqFlatIndex::load(&path) {
            Err(IndexError::Format(m)) => assert!(m.contains("exceeds"), "{m}"),
            other => panic!("expected a format error, got {other:?}"),
        }
        assert!(matches!(
            crate::load_index(&path),
            Err(IndexError::Format(_))
        ));
        write(MAX_DIM);
        let idx = SqFlatIndex::load(&path).unwrap();
        let hits = idx.search(&vec![1.0; MAX_DIM], 1);
        assert!((hits[0].score - MAX_DIM as f64).abs() < 1e-6, "{hits:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn insert_then_find_inserted() {
        let data = clustered_vectors(64, 12, 3, 0.3);
        let mut idx = SqFlatIndex::build(&data, Metric::Cosine, SqConfig::default());
        let v: Vec<f64> = (0..12).map(|j| (j as f64 + 1.0) * 0.1).collect();
        let id = idx.insert(&v).unwrap();
        assert_eq!(id, 64);
        let hits = idx.search(&v, 3);
        assert_eq!(hits[0].index, 64);
    }

    #[test]
    fn zero_vector_quantizes_without_nan() {
        let mut data = clustered_vectors(10, 8, 2, 0.2);
        for v in data.row_mut(3) {
            *v = 0.0;
        }
        let idx = SqFlatIndex::build(&data, Metric::InnerProduct, SqConfig::default());
        assert_eq!(idx.scales[3], 0.0);
        let hits = idx.search(data.row(0), 5);
        assert!(hits.iter().all(|h| h.score.is_finite()));
    }

    #[test]
    fn deterministic_across_rebuilds() {
        let data = clustered_vectors(500, 20, 6, 0.25);
        let a = SqFlatIndex::build(&data, Metric::Cosine, SqConfig::default());
        let b = SqFlatIndex::build(&data, Metric::Cosine, SqConfig::default());
        assert_eq!(a.codes, b.codes);
        for q in [1, 250, 499] {
            assert_eq!(a.search(data.row(q), 10), b.search(data.row(q), 10));
        }
    }
}
