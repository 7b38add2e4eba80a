//! Compressed sparse row matrix and its dense products.

use pane_linalg::DenseMatrix;
use pane_parallel::{even_ranges_nonempty, for_each_row_block};

/// An immutable sparse matrix in CSR format.
///
/// Invariants (checked in debug builds at construction):
/// * `indptr.len() == rows + 1`, `indptr[0] == 0`, non-decreasing;
/// * `indices`/`values` have length `indptr[rows]`;
/// * column indices are strictly increasing within every row (required by
///   [`get`](Self::get)'s binary search; guaranteed by [`crate::CooMatrix`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds from raw CSR arrays.
    ///
    /// # Panics
    /// Panics (debug) if the CSR invariants do not hold.
    pub fn from_raw(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(indptr.len(), rows + 1);
        debug_assert_eq!(indptr.first().copied().unwrap_or(0), 0);
        debug_assert!(indptr.windows(2).all(|w| w[0] <= w[1]));
        debug_assert_eq!(indices.len(), *indptr.last().unwrap_or(&0));
        debug_assert_eq!(values.len(), indices.len());
        #[cfg(debug_assertions)]
        for r in 0..rows {
            let row = &indices[indptr[r]..indptr[r + 1]];
            debug_assert!(
                row.windows(2).all(|w| w[0] < w[1]),
                "row {r} not strictly sorted"
            );
            debug_assert!(
                row.iter().all(|&c| (c as usize) < cols),
                "row {r} column out of bounds"
            );
        }
        Self {
            rows,
            cols,
            indptr,
            indices,
            values,
        }
    }

    /// Builds from raw CSR arrays, validating the invariants in **all**
    /// build profiles (unlike [`from_raw`](Self::from_raw), whose checks
    /// are debug-only). Intended for deserializing untrusted bytes — a
    /// corrupted file must surface as `Err`, not as undefined behavior in
    /// the binary searches that assume sorted rows.
    pub fn try_from_raw(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<f64>,
    ) -> Result<Self, String> {
        if indptr.len() != rows + 1 {
            return Err(format!(
                "indptr length {} does not match rows {rows} + 1",
                indptr.len()
            ));
        }
        if indptr.first() != Some(&0) {
            return Err("indptr does not start at 0".into());
        }
        if let Some(w) = indptr.windows(2).position(|w| w[0] > w[1]) {
            return Err(format!("indptr decreases at row {w}"));
        }
        let nnz = *indptr.last().unwrap();
        if indices.len() != nnz || values.len() != nnz {
            return Err(format!(
                "index/value lengths {}/{} do not match indptr total {nnz}",
                indices.len(),
                values.len()
            ));
        }
        for r in 0..rows {
            let row = &indices[indptr[r]..indptr[r + 1]];
            if !row.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("row {r} columns not strictly increasing"));
            }
            if let Some(&c) = row.last() {
                if c as usize >= cols {
                    return Err(format!("row {r} column {c} out of bounds ({cols})"));
                }
            }
        }
        Ok(Self {
            rows,
            cols,
            indptr,
            indices,
            values,
        })
    }

    /// Empty (all-zero) matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::from_raw(rows, cols, vec![0; rows + 1], Vec::new(), Vec::new())
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        let indptr = (0..=n).collect();
        let indices = (0..n as u32).collect();
        let values = vec![1.0; n];
        Self::from_raw(n, n, indptr, indices, values)
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The raw CSR arrays `(indptr, indices, values)`, borrowed.
    pub fn raw_parts(&self) -> (&[usize], &[u32], &[f64]) {
        (&self.indptr, &self.indices, &self.values)
    }

    /// Column indices and values of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let r = self.indptr[i]..self.indptr[i + 1];
        (&self.indices[r.clone()], &self.values[r])
    }

    /// Number of stored entries in row `i`.
    #[inline]
    pub fn row_nnz(&self, i: usize) -> usize {
        self.indptr[i + 1] - self.indptr[i]
    }

    /// Entry `(i, j)` (0.0 if not stored). `O(log nnz(row))`.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (cols, vals) = self.row(i);
        match cols.binary_search(&(j as u32)) {
            Ok(pos) => vals[pos],
            Err(_) => 0.0,
        }
    }

    /// Per-row sums.
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.rows).map(|i| self.row(i).1.iter().sum()).collect()
    }

    /// Per-column sums.
    pub fn col_sums(&self) -> Vec<f64> {
        let mut s = vec![0.0; self.cols];
        for (&c, &v) in self.indices.iter().zip(&self.values) {
            s[c as usize] += v;
        }
        s
    }

    /// Returns a copy with row `i` scaled by `factors[i]`.
    pub fn scale_rows(&self, factors: &[f64]) -> CsrMatrix {
        assert_eq!(
            factors.len(),
            self.rows,
            "scale_rows: factor length mismatch"
        );
        let mut out = self.clone();
        for i in 0..self.rows {
            let f = factors[i];
            for v in &mut out.values[self.indptr[i]..self.indptr[i + 1]] {
                *v *= f;
            }
        }
        out
    }

    /// Returns a copy with column `j` scaled by `factors[j]`.
    pub fn scale_cols(&self, factors: &[f64]) -> CsrMatrix {
        assert_eq!(
            factors.len(),
            self.cols,
            "scale_cols: factor length mismatch"
        );
        let mut out = self.clone();
        for (idx, &c) in self.indices.iter().enumerate() {
            out.values[idx] *= factors[c as usize];
        }
        out
    }

    /// Row-normalizes: each non-empty row is divided by its sum. Rows whose
    /// sum is zero are left as-is (the caller decides the dangling policy).
    pub fn normalize_rows(&self) -> CsrMatrix {
        let sums = self.row_sums();
        let factors: Vec<f64> = sums
            .iter()
            .map(|&s| if s != 0.0 { 1.0 / s } else { 0.0 })
            .collect();
        self.scale_rows(&factors)
    }

    /// Column-normalizes: each non-empty column divided by its sum.
    pub fn normalize_cols(&self) -> CsrMatrix {
        let sums = self.col_sums();
        let factors: Vec<f64> = sums
            .iter()
            .map(|&s| if s != 0.0 { 1.0 / s } else { 0.0 })
            .collect();
        self.scale_cols(&factors)
    }

    /// Transposed copy (CSR of `selfᵀ`), via counting sort — `O(nnz + n)`.
    pub fn transpose(&self) -> CsrMatrix {
        let mut indptr = vec![0usize; self.cols + 1];
        for &c in &self.indices {
            indptr[c as usize + 1] += 1;
        }
        for i in 0..self.cols {
            indptr[i + 1] += indptr[i];
        }
        let mut indices = vec![0u32; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        let mut cursor = indptr.clone();
        for r in 0..self.rows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                let pos = cursor[c as usize];
                indices[pos] = r as u32;
                values[pos] = v;
                cursor[c as usize] += 1;
            }
        }
        CsrMatrix::from_raw(self.cols, self.rows, indptr, indices, values)
    }

    /// Dense product `C = self · b` (`(n×m)·(m×p) → n×p`).
    pub fn mul_dense(&self, b: &DenseMatrix) -> DenseMatrix {
        let mut c = DenseMatrix::zeros(self.rows, b.cols());
        self.mul_dense_into(b, &mut c);
        c
    }

    /// Dense product into a pre-allocated output (overwritten).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn mul_dense_into(&self, b: &DenseMatrix, out: &mut DenseMatrix) {
        assert_eq!(self.cols, b.rows(), "mul_dense: inner dimension mismatch");
        assert_eq!(
            out.shape(),
            (self.rows, b.cols()),
            "mul_dense: output shape mismatch"
        );
        let p = b.cols();
        for i in 0..self.rows {
            let (cols, vals) = self.row(i);
            let crow = &mut out.data_mut()[i * p..(i + 1) * p];
            crow.iter_mut().for_each(|v| *v = 0.0);
            for (&cidx, &v) in cols.iter().zip(vals) {
                let brow = b.row(cidx as usize);
                for (slot, &bv) in crow.iter_mut().zip(brow) {
                    *slot += v * bv;
                }
            }
        }
    }

    /// Block-parallel dense product over `nb` output row blocks.
    pub fn mul_dense_par(&self, b: &DenseMatrix, nb: usize) -> DenseMatrix {
        assert_eq!(
            self.cols,
            b.rows(),
            "mul_dense_par: inner dimension mismatch"
        );
        let p = b.cols();
        let mut c = DenseMatrix::zeros(self.rows, p);
        let ranges = even_ranges_nonempty(self.rows, nb);
        let me = self;
        for_each_row_block(c.data_mut(), self.rows, p, &ranges, |_, range, block| {
            for (bi, i) in range.clone().enumerate() {
                let (cols, vals) = me.row(i);
                let crow = &mut block[bi * p..(bi + 1) * p];
                for (&cidx, &v) in cols.iter().zip(vals) {
                    let brow = b.row(cidx as usize);
                    for (slot, &bv) in crow.iter_mut().zip(brow) {
                        *slot += v * bv;
                    }
                }
            }
        });
        c
    }

    /// Sparse × dense-vector product `y = self · x`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "mul_vec: dimension mismatch");
        (0..self.rows)
            .map(|i| {
                let (cols, vals) = self.row(i);
                cols.iter()
                    .zip(vals)
                    .map(|(&c, &v)| v * x[c as usize])
                    .sum()
            })
            .collect()
    }

    /// Dense copy (tests / tiny examples only).
    pub fn to_dense(&self) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            let (cols, vals) = self.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                d.set(i, c as usize, v);
            }
        }
        d
    }

    /// Builds from a dense matrix, keeping entries with `|v| > 0`.
    pub fn from_dense(d: &DenseMatrix) -> CsrMatrix {
        crate::CsrBuilder::from_source(d.rows(), d.cols(), crate::MergeRule::Sum, |emit| {
            for i in 0..d.rows() {
                for (j, &v) in d.row(i).iter().enumerate() {
                    if v != 0.0 {
                        emit(i, j, v);
                    }
                }
            }
        })
    }

    /// Iterates over all stored entries as `(row, col, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.rows).flat_map(move |i| {
            let (cols, vals) = self.row(i);
            cols.iter()
                .zip(vals)
                .map(move |(&c, &v)| (i, c as usize, v))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_sparse(rows: usize, cols: usize, density: f64, seed: u64) -> CsrMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut coo = CooMatrix::new(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                if rng.gen::<f64>() < density {
                    coo.push(i, j, rng.gen::<f64>() * 2.0 - 1.0);
                }
            }
        }
        coo.to_csr()
    }

    #[test]
    fn identity_products() {
        let i5 = CsrMatrix::identity(5);
        let mut rng = StdRng::seed_from_u64(1);
        let b = DenseMatrix::gaussian(5, 3, &mut rng);
        assert!(i5.mul_dense(&b).max_abs_diff(&b) < 1e-15);
        assert_eq!(i5.transpose(), i5);
        assert_eq!(i5.nnz(), 5);
    }

    #[test]
    fn mul_dense_matches_dense_reference() {
        let s = random_sparse(17, 11, 0.3, 2);
        let mut rng = StdRng::seed_from_u64(3);
        let b = DenseMatrix::gaussian(11, 7, &mut rng);
        let got = s.mul_dense(&b);
        let want = s.to_dense().matmul(&b);
        assert!(got.max_abs_diff(&want) < 1e-12);
        for nb in [1, 2, 4, 9] {
            assert!(s.mul_dense_par(&b, nb).max_abs_diff(&want) < 1e-12);
        }
    }

    #[test]
    fn transpose_matches_dense_reference() {
        let s = random_sparse(9, 14, 0.25, 4);
        let t = s.transpose();
        assert_eq!(t.rows(), 14);
        assert_eq!(t.cols(), 9);
        assert!(t.to_dense().max_abs_diff(&s.to_dense().transpose()) < 1e-15);
        // Involution
        assert_eq!(t.transpose(), s);
    }

    #[test]
    fn sums_and_scaling() {
        let mut coo = CooMatrix::new(2, 3);
        coo.push(0, 0, 1.0);
        coo.push(0, 2, 3.0);
        coo.push(1, 1, 2.0);
        let s = coo.to_csr();
        assert_eq!(s.row_sums(), vec![4.0, 2.0]);
        assert_eq!(s.col_sums(), vec![1.0, 2.0, 3.0]);
        let rn = s.normalize_rows();
        assert!(rn.row_sums().iter().all(|&x| (x - 1.0).abs() < 1e-12));
        let cn = s.normalize_cols();
        assert!(cn.col_sums().iter().all(|&x| (x - 1.0).abs() < 1e-12));
    }

    #[test]
    fn normalize_skips_empty() {
        let mut coo = CooMatrix::new(3, 2);
        coo.push(0, 0, 2.0);
        let s = coo.to_csr(); // rows 1,2 empty
        let rn = s.normalize_rows();
        assert_eq!(rn.row_sums(), vec![1.0, 0.0, 0.0]);
    }

    #[test]
    fn mul_vec_matches() {
        let s = random_sparse(8, 5, 0.4, 5);
        let x: Vec<f64> = (0..5).map(|i| i as f64 - 2.0).collect();
        let y = s.mul_vec(&x);
        let d = s.to_dense();
        for i in 0..8 {
            let want: f64 = (0..5).map(|j| d.get(i, j) * x[j]).sum();
            assert!((y[i] - want).abs() < 1e-12);
        }
    }

    #[test]
    fn dense_roundtrip() {
        let s = random_sparse(6, 6, 0.5, 6);
        assert_eq!(CsrMatrix::from_dense(&s.to_dense()), s);
    }

    #[test]
    fn iter_visits_all() {
        let s = random_sparse(7, 7, 0.3, 7);
        let mut count = 0;
        for (i, j, v) in s.iter() {
            assert_eq!(s.get(i, j), v);
            count += 1;
        }
        assert_eq!(count, s.nnz());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn prop_spmm_linear(seed in 0u64..10_000) {
            let s = random_sparse(10, 8, 0.3, seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xF);
            let b1 = DenseMatrix::gaussian(8, 4, &mut rng);
            let b2 = DenseMatrix::gaussian(8, 4, &mut rng);
            // S(b1 + b2) = S b1 + S b2
            let mut sum = b1.clone();
            sum.axpy_inplace(1.0, &b2);
            let lhs = s.mul_dense(&sum);
            let mut rhs = s.mul_dense(&b1);
            rhs.axpy_inplace(1.0, &s.mul_dense(&b2));
            prop_assert!(lhs.max_abs_diff(&rhs) < 1e-10);
        }

        #[test]
        fn prop_transpose_product_identity(seed in 0u64..10_000) {
            let s = random_sparse(9, 6, 0.35, seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xAA);
            let b = DenseMatrix::gaussian(9, 3, &mut rng);
            // (Sᵀ b) computed sparsely == dense reference
            let got = s.transpose().mul_dense(&b);
            let want = s.to_dense().transpose().matmul(&b);
            prop_assert!(got.max_abs_diff(&want) < 1e-10);
        }
    }
}
