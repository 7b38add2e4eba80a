//! Row-major dense matrix.
//!
//! [`DenseMatrix`] stores `rows × cols` values contiguously, row by row.
//! Rows are the unit of parallelism throughout the reproduction (nodes are
//! rows of the affinity/embedding matrices), so row access is free and the
//! product kernels are chosen so that the innermost loop is always a
//! contiguous traversal:
//!
//! * [`matmul_par`](DenseMatrix::matmul_par) — `C = A·B`, each worker's
//!   rows by [`kernels::mul_add_rows`];
//! * [`tr_matmul_par`](DenseMatrix::tr_matmul_par) — `C = Aᵀ·B`, each
//!   worker's rows of `C` by [`kernels::tr_mul_add_rows`];
//! * [`matmul_transb`](DenseMatrix::matmul_transb) — `C = A·Bᵀ` as row·row
//!   dot products (tests and small reconstructions only).
//!
//! **Determinism contract of the two panel products.** Every output entry
//! is `((0 + t₀) + t₁) + …` over the inner index in ascending order, one
//! rounded multiply and one rounded add per term; a term whose factor from
//! `A` is an exact zero is skipped, which changes no bit for finite
//! operands and keeps a sparse-in-content `A` at `O(nnz)` terms. Workers
//! own disjoint output rows, and the kernels' tiles only decide which
//! entries share a pass: on AVX2 builds `A·B` holds 4 rows × 8 columns of
//! `C` in registers and `Aᵀ·B` adds 8 matching rows of `A` and `B` per
//! pass, on other targets both take 4 rows per pass. So the bits depend on
//! neither the thread count nor the build target.

use crate::rng::NormalSampler;
use crate::{kernels, vecops};
use pane_parallel::{even_ranges_nonempty, for_each_row_block};
use rand::Rng;
use std::fmt;

/// A row-major dense `f64` matrix.
#[derive(Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl fmt::Debug for DenseMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DenseMatrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(8);
        for i in 0..show_rows {
            write!(f, "  [")?;
            let show_cols = self.cols.min(8);
            for j in 0..show_cols {
                write!(f, "{:>10.4}", self.get(i, j))?;
                if j + 1 < show_cols {
                    write!(f, ", ")?;
                }
            }
            if self.cols > show_cols {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > show_rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

impl DenseMatrix {
    /// All-zeros `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Takes ownership of a row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer length mismatch");
        Self { rows, cols, data }
    }

    /// Builds from nested rows (each inner slice one row).
    ///
    /// # Panics
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |x| x.len());
        let mut data = Vec::with_capacity(r * c);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), c, "row {i} has length {} != {c}", row.len());
            data.extend_from_slice(row);
        }
        Self {
            rows: r,
            cols: c,
            data,
        }
    }

    /// `n × n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Matrix with i.i.d. `N(0, 1)` entries.
    pub fn gaussian<R: Rng + ?Sized>(rows: usize, cols: usize, rng: &mut R) -> Self {
        let mut m = Self::zeros(rows, cols);
        let mut sampler = NormalSampler::new();
        sampler.fill(rng, &mut m.data);
        m
    }

    /// Matrix with i.i.d. `Uniform(lo, hi)` entries.
    pub fn uniform<R: Rng + ?Sized>(
        rows: usize,
        cols: usize,
        lo: f64,
        hi: f64,
        rng: &mut R,
    ) -> Self {
        let mut m = Self::zeros(rows, cols);
        for v in m.data.iter_mut() {
            *v = rng.gen::<f64>() * (hi - lo) + lo;
        }
        m
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

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Immutable view of the backing buffer.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the backing buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Entry `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Sets entry `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// Adds `v` to entry `(i, j)`.
    #[inline]
    pub fn add_at(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] += v;
    }

    /// Row `i` as a contiguous slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Appends `row` as a new last row (amortized O(cols) — the growable
    /// backbone of incremental ingestion paths like index delta segments).
    ///
    /// # Panics
    /// Panics if `row.len() != self.cols()`.
    pub fn push_row(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.cols, "push_row: column-count mismatch");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Copies column `j` into a fresh vector (strided gather).
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols);
        (0..self.rows).map(|i| self.get(i, j)).collect()
    }

    /// Copies column `j` into `out`.
    pub fn col_into(&self, j: usize, out: &mut [f64]) {
        assert!(j < self.cols && out.len() == self.rows);
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.get(i, j);
        }
    }

    /// Overwrites column `j` with `src`.
    pub fn set_col(&mut self, j: usize, src: &[f64]) {
        assert!(j < self.cols && src.len() == self.rows);
        for (i, &v) in src.iter().enumerate() {
            self.set(i, j, v);
        }
    }

    /// Returns a new matrix made of the rows `range.start..range.end`.
    pub fn row_block(&self, range: std::ops::Range<usize>) -> DenseMatrix {
        assert!(range.end <= self.rows);
        let data = self.data[range.start * self.cols..range.end * self.cols].to_vec();
        DenseMatrix::from_vec(range.end - range.start, self.cols, data)
    }

    /// Stacks matrices vertically (all must share `cols`).
    pub fn vstack(blocks: &[DenseMatrix]) -> DenseMatrix {
        assert!(!blocks.is_empty(), "vstack of zero blocks");
        let cols = blocks[0].cols;
        let rows: usize = blocks.iter().map(|b| b.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for b in blocks {
            assert_eq!(b.cols, cols, "vstack: column mismatch");
            data.extend_from_slice(&b.data);
        }
        DenseMatrix::from_vec(rows, cols, data)
    }

    /// Stacks matrices horizontally (all must share `rows`).
    pub fn hstack(blocks: &[DenseMatrix]) -> DenseMatrix {
        assert!(!blocks.is_empty(), "hstack of zero blocks");
        let rows = blocks[0].rows;
        let cols: usize = blocks.iter().map(|b| b.cols).sum();
        let mut out = DenseMatrix::zeros(rows, cols);
        let mut off = 0;
        for b in blocks {
            assert_eq!(b.rows, rows, "hstack: row mismatch");
            for i in 0..rows {
                out.row_mut(i)[off..off + b.cols].copy_from_slice(b.row(i));
            }
            off += b.cols;
        }
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.cols, self.rows);
        // Tile for cache friendliness on big matrices.
        const T: usize = 32;
        for bi in (0..self.rows).step_by(T) {
            for bj in (0..self.cols).step_by(T) {
                for i in bi..(bi + T).min(self.rows) {
                    for j in bj..(bj + T).min(self.cols) {
                        out.data[j * self.rows + i] = self.data[i * self.cols + j];
                    }
                }
            }
        }
        out
    }

    /// `C = self · other` (shapes `(n×m)·(m×p) → n×p`).
    pub fn matmul(&self, other: &DenseMatrix) -> DenseMatrix {
        self.matmul_par(other, 1)
    }

    /// `C = self · other` with `nb` workers over row blocks of `C`; the same
    /// bits for every `nb` (see the module docs).
    pub fn matmul_par(&self, other: &DenseMatrix, nb: usize) -> DenseMatrix {
        assert_eq!(self.cols, other.rows, "matmul: inner dimension mismatch");
        let (m, p) = (self.cols, other.cols);
        let mut c = DenseMatrix::zeros(self.rows, p);
        if m == 0 || p == 0 {
            return c;
        }
        let ranges = even_ranges_nonempty(self.rows, nb);
        for_each_row_block(&mut c.data, self.rows, p, &ranges, |_, range, block| {
            let rows = &self.data[range.start * m..range.end * m];
            kernels::mul_add_rows(rows, &other.data, p, block);
        });
        c
    }

    /// `C = self · otherᵀ` (shapes `(n×m)·(p×m)ᵀ → n×p`), as row·row dots.
    pub fn matmul_transb(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_transb: inner dimension mismatch"
        );
        let mut c = DenseMatrix::zeros(self.rows, other.rows);
        for i in 0..self.rows {
            let arow = self.row(i);
            for j in 0..other.rows {
                c.data[i * other.rows + j] = vecops::dot(arow, other.row(j));
            }
        }
        c
    }

    /// `C = selfᵀ · other` (shapes `(n×m)ᵀ·(n×p) → m×p`).
    pub fn tr_matmul(&self, other: &DenseMatrix) -> DenseMatrix {
        self.tr_matmul_par(other, 1)
    }

    /// `C = selfᵀ · other` with `nb` workers over row blocks of `C` (column
    /// blocks of `self`); the same bits for every `nb` (see the module docs).
    pub fn tr_matmul_par(&self, other: &DenseMatrix, nb: usize) -> DenseMatrix {
        assert_eq!(self.rows, other.rows, "tr_matmul: row count mismatch");
        let (m, p) = (self.cols, other.cols);
        let mut c = DenseMatrix::zeros(m, p);
        if m == 0 || p == 0 {
            return c;
        }
        let ranges = even_ranges_nonempty(m, nb);
        for_each_row_block(&mut c.data, m, p, &ranges, |_, range, block| {
            kernels::tr_mul_add_rows(&self.data, m, &other.data, p, range, block);
        });
        c
    }

    /// `self += a * other`, entrywise.
    pub fn axpy_inplace(&mut self, a: f64, other: &DenseMatrix) {
        assert_eq!(self.shape(), other.shape(), "axpy_inplace: shape mismatch");
        vecops::axpy(a, &other.data, &mut self.data);
    }

    /// `self *= a`, entrywise.
    pub fn scale_inplace(&mut self, a: f64) {
        vecops::scale(a, &mut self.data);
    }

    /// `self[:, j] *= s[j]` for every `j < s.len()`.
    pub fn scale_cols_inplace(&mut self, s: &[f64]) {
        for row in self.data.chunks_exact_mut(self.cols.max(1)) {
            for (v, &sv) in row.iter_mut().zip(s) {
                *v *= sv;
            }
        }
    }

    /// `self - other` as a new matrix.
    pub fn sub(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.shape(), other.shape(), "sub: shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a - b)
            .collect();
        DenseMatrix::from_vec(self.rows, self.cols, data)
    }

    /// Applies `f` to every entry in place.
    pub fn map_inplace<F: Fn(f64) -> f64>(&mut self, f: F) {
        for v in self.data.iter_mut() {
            *v = f(*v);
        }
    }

    /// Frobenius norm.
    pub fn frob_norm(&self) -> f64 {
        vecops::norm2(&self.data)
    }

    /// Squared Frobenius norm.
    pub fn frob_norm_sq(&self) -> f64 {
        vecops::norm2_sq(&self.data)
    }

    /// Largest absolute entrywise difference with `other`.
    pub fn max_abs_diff(&self, other: &DenseMatrix) -> f64 {
        assert_eq!(self.shape(), other.shape(), "max_abs_diff: shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .fold(0.0_f64, |m, (a, b)| m.max((a - b).abs()))
    }

    /// Per-column sums (length `cols`).
    pub fn col_sums(&self) -> Vec<f64> {
        let mut s = vec![0.0; self.cols];
        for i in 0..self.rows {
            vecops::axpy(1.0, self.row(i), &mut s);
        }
        s
    }

    /// Per-row sums (length `rows`).
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.rows).map(|i| vecops::sum(self.row(i))).collect()
    }

    /// Per-column squared Euclidean norms (length `cols`).
    pub fn col_norms_sq(&self) -> Vec<f64> {
        let mut s = vec![0.0; self.cols];
        for i in 0..self.rows {
            for (j, &v) in self.row(i).iter().enumerate() {
                s[j] += v * v;
            }
        }
        s
    }

    /// Normalizes every row to unit Euclidean norm (zero rows untouched).
    pub fn normalize_rows(&mut self) {
        for i in 0..self.rows {
            vecops::normalize(&mut self.data[i * self.cols..(i + 1) * self.cols], 1e-300);
        }
    }

    /// True if `selfᵀ·self ≈ I` to tolerance `tol` (columns orthonormal).
    pub fn is_orthonormal(&self, tol: f64) -> bool {
        let g = self.tr_matmul(self);
        for i in 0..g.rows() {
            for j in 0..g.cols() {
                let want = if i == j { 1.0 } else { 0.0 };
                if (g.get(i, j) - want).abs() > tol {
                    return false;
                }
            }
        }
        true
    }
}

/// Lets a consumer take either an owned matrix or a borrowed one.
impl From<DenseMatrix> for std::borrow::Cow<'_, DenseMatrix> {
    fn from(m: DenseMatrix) -> Self {
        Self::Owned(m)
    }
}

impl<'a> From<&'a DenseMatrix> for std::borrow::Cow<'a, DenseMatrix> {
    fn from(m: &'a DenseMatrix) -> Self {
        Self::Borrowed(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small() -> (DenseMatrix, DenseMatrix) {
        let a = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let b = DenseMatrix::from_rows(&[vec![7.0, 8.0, 9.0], vec![10.0, 11.0, 12.0]]);
        (a, b)
    }

    #[test]
    fn matmul_hand_checked() {
        let (a, b) = small();
        let c = a.matmul(&b);
        let want = DenseMatrix::from_rows(&[
            vec![27.0, 30.0, 33.0],
            vec![61.0, 68.0, 75.0],
            vec![95.0, 106.0, 117.0],
        ]);
        assert_eq!(c, want);
    }

    #[test]
    fn matmul_parallel_matches_serial() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = DenseMatrix::gaussian(23, 11, &mut rng);
        let b = DenseMatrix::gaussian(11, 17, &mut rng);
        let c1 = a.matmul(&b);
        for nb in [1, 2, 5, 8] {
            assert_eq!(c1, a.matmul_par(&b, nb), "nb={nb}");
        }
    }

    #[test]
    fn transb_matches_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = DenseMatrix::gaussian(9, 6, &mut rng);
        let b = DenseMatrix::gaussian(7, 6, &mut rng);
        let c1 = a.matmul_transb(&b);
        let c2 = a.matmul(&b.transpose());
        assert!(c1.max_abs_diff(&c2) < 1e-12);
    }

    #[test]
    fn tr_matmul_matches_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = DenseMatrix::gaussian(8, 5, &mut rng);
        let b = DenseMatrix::gaussian(8, 4, &mut rng);
        let c1 = a.tr_matmul(&b);
        let c2 = a.transpose().matmul(&b);
        assert!(c1.max_abs_diff(&c2) < 1e-12);
    }

    #[test]
    fn transpose_involution() {
        let mut rng = StdRng::seed_from_u64(6);
        let a = DenseMatrix::gaussian(37, 53, &mut rng);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn stacking_roundtrip() {
        let (a, _) = small();
        let top = a.row_block(0..1);
        let bot = a.row_block(1..3);
        assert_eq!(DenseMatrix::vstack(&[top, bot]), a);
        let left = DenseMatrix::from_vec(3, 1, a.col(0));
        let right = DenseMatrix::from_vec(3, 1, a.col(1));
        assert_eq!(DenseMatrix::hstack(&[left, right]), a);
    }

    #[test]
    fn sums_and_norms() {
        let (a, _) = small();
        assert_eq!(a.col_sums(), vec![9.0, 12.0]);
        assert_eq!(a.row_sums(), vec![3.0, 7.0, 11.0]);
        assert_eq!(a.col_norms_sq(), vec![35.0, 56.0]);
        assert!((a.frob_norm_sq() - 91.0).abs() < 1e-12);
    }

    #[test]
    fn identity_is_orthonormal() {
        assert!(DenseMatrix::identity(5).is_orthonormal(1e-12));
        let mut m = DenseMatrix::identity(5);
        m.set(0, 1, 0.5);
        assert!(!m.is_orthonormal(1e-6));
    }

    #[test]
    fn normalize_rows_handles_zero() {
        let mut m = DenseMatrix::from_rows(&[vec![0.0, 0.0], vec![3.0, 4.0]]);
        m.normalize_rows();
        assert_eq!(m.row(0), &[0.0, 0.0]);
        assert!((vecops::norm2(m.row(1)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn map_and_axpy() {
        let (a, _) = small();
        let mut b = a.clone();
        b.map_inplace(|v| v * 2.0);
        let mut c = a.clone();
        c.axpy_inplace(1.0, &a);
        assert_eq!(b, c);
        assert_eq!(a.sub(&a), DenseMatrix::zeros(3, 2));
    }

    #[test]
    fn col_access() {
        let (a, _) = small();
        assert_eq!(a.col(1), vec![2.0, 4.0, 6.0]);
        let mut a2 = a.clone();
        a2.set_col(0, &[9.0, 9.0, 9.0]);
        assert_eq!(a2.col(0), vec![9.0, 9.0, 9.0]);
        let mut buf = vec![0.0; 3];
        a.col_into(0, &mut buf);
        assert_eq!(buf, vec![1.0, 3.0, 5.0]);
    }

    /// Gaussian `n × m` matrix with about a third of the entries set to an
    /// exact zero of either sign (which the panel products skip).
    fn ragged(n: usize, m: usize, rng: &mut StdRng) -> DenseMatrix {
        let mut a = DenseMatrix::gaussian(n, m, rng);
        a.map_inplace(|v| {
            if v.abs() < 0.43 {
                0.0f64.copysign(v)
            } else {
                v
            }
        });
        a
    }

    /// Gaussian `n × m` matrix with about one entry in eight replaced by
    /// `+∞`, `−∞` or NaN: a term that meets an exact zero of `A` must be
    /// skipped, not become NaN.
    fn poisoned(n: usize, m: usize, rng: &mut StdRng) -> DenseMatrix {
        let mut b = DenseMatrix::gaussian(n, m, rng);
        b.map_inplace(|v| match (v.abs() * 1e6) as u64 % 24 {
            0 => f64::INFINITY,
            1 => f64::NEG_INFINITY,
            2 => f64::NAN,
            _ => v,
        });
        b
    }

    /// The bits of every entry, every NaN read as one value (which NaN an
    /// add of two NaNs returns is not part of the contract).
    fn bits(data: &[f64]) -> Vec<u64> {
        data.iter()
            .map(|v| if v.is_nan() { u64::MAX } else { v.to_bits() })
            .collect()
    }

    /// The ordered sum of the module docs as a naive loop: `out[i][j]`
    /// from `start`, `x(i, l)·y(l, j)` added in ascending `l`, exact zeros
    /// of `x` skipped.
    fn ordered(
        (n, m, p): (usize, usize, usize),
        x: impl Fn(usize, usize) -> f64,
        y: impl Fn(usize, usize) -> f64,
        start: f64,
    ) -> Vec<f64> {
        let mut out = vec![start; n * p];
        for i in 0..n {
            for j in 0..p {
                for l in 0..m {
                    if x(i, l) != 0.0 {
                        out[i * p + j] += x(i, l) * y(l, j);
                    }
                }
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Both panel products equal the naive triple loop (inner index
        /// ascending, one accumulator per entry, exact zeros of `A`
        /// skipped) bit for bit: row counts across two 8-row passes and
        /// every tail of the 4- and 8-row tiles, widths across the 16- and
        /// 8-column chunks and every column tail, empty and one-row
        /// operands, exact zeros of `A` facing `±∞` and NaN in `B`, and
        /// every thread count. `mul_add_rows` also adds onto `-0.0`.
        #[test]
        fn prop_panel_products_equal_ordered_triple_loop(
            seed in 0u64..10_000,
            n in 0usize..21,
            m in 0usize..11,
            p in 0usize..41,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = ragged(n, m, &mut rng);
            let b = poisoned(m, p, &mut rng);
            let want = ordered((n, m, p), |i, l| a.get(i, l), |l, j| b.get(l, j), 0.0);
            let bt = poisoned(n, p, &mut rng);
            let want_t = ordered((m, n, p), |l, i| a.get(i, l), |i, j| bt.get(i, j), 0.0);
            for nb in [1usize, 2, 3, 7] {
                prop_assert_eq!(bits(a.matmul_par(&b, nb).data()), bits(&want), "A·B, nb={}", nb);
                prop_assert_eq!(bits(a.tr_matmul_par(&bt, nb).data()), bits(&want_t), "Aᵀ·B, nb={}", nb);
            }
            let mut out = vec![-0.0; n * p];
            kernels::mul_add_rows(a.data(), b.data(), p, &mut out);
            let want = ordered((n, m, p), |i, l| a.get(i, l), |l, j| b.get(l, j), -0.0);
            prop_assert_eq!(bits(&out), bits(&want), "-0.0 + A·B");
        }

        #[test]
        fn prop_matmul_associative(seed in 0u64..500) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = DenseMatrix::gaussian(5, 4, &mut rng);
            let b = DenseMatrix::gaussian(4, 6, &mut rng);
            let c = DenseMatrix::gaussian(6, 3, &mut rng);
            let left = a.matmul(&b).matmul(&c);
            let right = a.matmul(&b.matmul(&c));
            prop_assert!(left.max_abs_diff(&right) < 1e-9);
        }

        #[test]
        fn prop_transpose_product(seed in 0u64..500) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = DenseMatrix::gaussian(6, 5, &mut rng);
            let b = DenseMatrix::gaussian(5, 7, &mut rng);
            // (AB)^T = B^T A^T
            let lhs = a.matmul(&b).transpose();
            let rhs = b.transpose().matmul(&a.transpose());
            prop_assert!(lhs.max_abs_diff(&rhs) < 1e-10);
        }
    }
}
