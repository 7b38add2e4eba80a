//! Scalar-quantized flat index — the low-RAM shortlist-and-re-rank baseline.
//!
//! [`SqFlatIndex`] stores each vector as `dim` signed
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
//! * [`VectorIndex::search_block`] — self-contained: re-scores against
//!   *dequantized* rows (`code[j] · scale`); no extra memory, recall
//!   limited by the quantization noise floor. The serving tier's engines
//!   run this (through `batch_search`), so a served sqflat answer — and
//!   the benchmark's `index.recall_link_at_10` — is the dequantized one;
//! * [`SqFlatIndex::search_rerank`] — re-scores against caller-provided
//!   full-precision rows, so recall is bounded only by shortlist
//!   coverage. Nothing in the serving tier calls it: an exact re-rank
//!   there would change served answers.
//!
//! Both run the same code scan (a `search_rerank` call is a block of one).
//!
//! Quantization, scan order, and tie-breaking are all deterministic:
//! the same build inputs produce bit-identical codes, and the same query
//! produces identical rankings on every run and thread count.

use crate::persist::columnar_meta;
use crate::{block_rows, scan, topk, IndexError, IndexKind, Neighbor, VectorIndex};
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
    dim: usize,
    /// Row-major `n × dim` codes.
    codes: Vec<i8>,
    /// Per-row dequantization scale (`max|v| / 127`; 0 for all-zero rows).
    scales: Vec<f64>,
    rerank: usize,
}

/// Largest dimension an sqflat index holds: [`kernels::dot2xn_i8`] sums `dim`
/// products of magnitude ≤ 127² in an `i32`, and `(1 << 17) · 127² < 2³¹`.
const MAX_DIM: usize = 1 << 17;

/// Quantizes one row: symmetric max-abs scaling to `[-127, 127]`.
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
    /// Quantizes and indexes the rows of `data`, owned or borrowed.
    ///
    /// # Panics
    /// Panics if `data` has no rows or no columns, or more than `1 << 17`
    /// columns (past that an `i32` code dot can wrap).
    pub fn build<'a>(data: impl Into<Cow<'a, DenseMatrix>>, config: SqConfig) -> Self {
        let data = data.into();
        assert!(
            data.rows() > 0 && data.cols() > 0,
            "SqFlatIndex::build: empty data"
        );
        assert!(
            data.cols() <= MAX_DIM,
            "SqFlatIndex::build: dim exceeds the i32 code-dot cap"
        );
        let mut codes = Vec::with_capacity(data.rows() * data.cols());
        let mut scales = Vec::with_capacity(data.rows());
        for i in 0..data.rows() {
            scales.push(quantize_row(data.row(i), &mut codes));
        }
        Self {
            dim: data.cols(),
            codes,
            scales,
            rerank: config.rerank.max(1),
        }
    }

    /// Reconstructs the index from an already-validated container.
    pub(crate) fn from_columns(c: &mut pane_format::Columns) -> Result<Self, IndexError> {
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
        let meta: Vec<u64> = c.take(section::SQ_META)?;
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
        let scales: Vec<f64> = c.take(section::SQ_SCALES)?;
        for (i, &s) in scales.iter().enumerate() {
            if !(s.is_finite() && s >= 0.0) {
                return Err(IndexError::Format(format!(
                    "sqflat scale[{i}] = {s} is not a finite non-negative value"
                )));
            }
        }
        Ok(Self {
            dim,
            codes: c.take(section::SQ_CODES)?,
            scales,
            rerank: rerank as usize,
        })
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

    /// Quantized scan of a block of queries: each one's top
    /// `shortlist(k)` under the code-domain score, best first, from one
    /// pass over the codes ([`scan::scan_block_i8`], exact integer dots).
    fn scan(&self, queries: &[f64], k: usize) -> Vec<Vec<Neighbor>> {
        let mut qcodes = Vec::with_capacity(queries.len());
        let qscales: Vec<f64> = block_rows(queries, self.dim)
            .map(|q| quantize_row(q, &mut qcodes))
            .collect();
        let wide: Vec<i16> = qcodes.into_iter().map(i16::from).collect();
        let mut accs: Vec<_> = qscales
            .iter()
            .map(|_| topk::TopK::new(self.shortlist(k)))
            .collect();
        scan::scan_block_i8(&mut accs, &wide, &self.codes, self.dim, |i, r, d| {
            qscales[i] * self.scales[r] * d as f64
        });
        accs.into_iter().map(topk::TopK::into_sorted).collect()
    }

    /// Top-`k` neighbors re-ranked against caller-provided
    /// full-precision rows instead of dequantized codes.
    ///
    /// `exact` must hold the *same rows in the same order* as the data
    /// the index was built from. Recall is then a pure function of
    /// shortlist coverage. The serving tier does not call it (see the
    /// module docs).
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
        let short = self.scan(query, k).pop().unwrap_or_default();
        topk::select(
            short
                .into_iter()
                .map(|cand| (cand.index, vecops::dot(query, exact.row(cand.index)))),
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

    fn len(&self) -> usize {
        self.scales.len()
    }

    fn dim(&self) -> usize {
        self.dim
    }

    /// One code scan for the whole block, then each query's shortlist
    /// re-ranked on its own.
    fn search_block(&self, queries: &[f64], k: usize) -> Vec<Vec<Neighbor>> {
        let shortlists = self.scan(queries, k);
        block_rows(queries, self.dim)
            .zip(shortlists)
            .map(|(q, short)| {
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
        self.scales.push(quantize_row(vector, &mut self.codes));
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
            columnar_meta(IndexKind::SqFlat),
            &specs,
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{clustered_vectors, renormalized};
    use crate::{FlatIndex, Metric};

    #[test]
    fn finds_itself_first() {
        let data = renormalized(clustered_vectors(150, 24, 5, 0.2));
        let idx = SqFlatIndex::build(&data, SqConfig::default());
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
        let data = renormalized(clustered_vectors(200, 64, 4, 0.2));
        let idx = SqFlatIndex::build(&data, SqConfig::default());
        let flat_bytes = 200 * 64 * 8;
        // codes are 1/8 of flat; scales add 8 bytes per row.
        assert_eq!(idx.resident_bytes(), 200 * 64 + 200 * 8);
        assert!(idx.resident_bytes() * 7 < flat_bytes);
    }

    #[test]
    fn recall_against_exact_baseline() {
        let data = renormalized(clustered_vectors(2000, 32, 8, 0.25));
        let exact = FlatIndex::build(&data, Metric::InnerProduct);
        let idx = SqFlatIndex::build(&data, SqConfig::default());
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
        let idx = SqFlatIndex::build(&data, SqConfig { rerank: 3 });
        idx.save(&path).unwrap();
        let crate::AnyIndex::SqFlat(back) = crate::load_index(&path).unwrap() else {
            panic!("an sqflat file loads as sqflat");
        };
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
            let meta_word = columnar_meta(IndexKind::SqFlat);
            pane_format::write_columns(&path, Artifact::Index, meta_word, &specs).unwrap();
        };
        write(MAX_DIM + 1);
        match crate::load_index(&path) {
            Err(IndexError::Format(m)) => assert!(m.contains("exceeds"), "{m}"),
            other => panic!("expected a format error, got {other:?}"),
        }
        write(MAX_DIM);
        let idx = crate::load_index(&path).unwrap();
        let hits = idx.search(&vec![1.0; MAX_DIM], 1);
        assert!((hits[0].score - MAX_DIM as f64).abs() < 1e-6, "{hits:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn insert_then_find_inserted() {
        let data = renormalized(clustered_vectors(64, 12, 3, 0.3));
        let mut idx = SqFlatIndex::build(&data, SqConfig::default());
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
        let idx = SqFlatIndex::build(&data, SqConfig::default());
        assert_eq!(idx.scales[3], 0.0);
        let hits = idx.search(data.row(0), 5);
        assert!(hits.iter().all(|h| h.score.is_finite()));
    }

    #[test]
    fn deterministic_across_rebuilds() {
        let data = renormalized(clustered_vectors(500, 20, 6, 0.25));
        let a = SqFlatIndex::build(&data, SqConfig::default());
        let b = SqFlatIndex::build(&data, SqConfig::default());
        assert_eq!(a.codes, b.codes);
        for q in [1, 250, 499] {
            assert_eq!(a.search(data.row(q), 10), b.search(data.row(q), 10));
        }
    }
}
