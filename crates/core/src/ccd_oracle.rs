//! Level-1 reference CCD: Algorithm 4 as printed, on materialized and
//! dynamically maintained residuals, serial. Test-only — compiled into
//! `pane-core`'s unit tests and, by `#[path]`, into `tests/paper_lemmas.rs`;
//! the product code is the Gram-space sweep in `ccd.rs`, which must
//! reproduce these iterates to rounding.

use pane_linalg::{vecops, DenseMatrix};

/// `(S_f, S_b) = (X_f·Yᵀ − F', X_b·Yᵀ − B')`, recomputed from scratch.
pub fn fresh_residuals(
    f: &DenseMatrix,
    b: &DenseMatrix,
    xf: &DenseMatrix,
    xb: &DenseMatrix,
    y: &DenseMatrix,
) -> (DenseMatrix, DenseMatrix) {
    let mut sf = xf.matmul_transb(y);
    sf.axpy_inplace(-1.0, f);
    let mut sb = xb.matmul_transb(y);
    sb.axpy_inplace(-1.0, b);
    (sf, sb)
}

/// Embeddings plus the residuals every update keeps in step with them.
pub struct Oracle {
    pub xf: DenseMatrix,
    pub xb: DenseMatrix,
    pub y: DenseMatrix,
    pub sf: DenseMatrix,
    pub sb: DenseMatrix,
}

impl Oracle {
    pub fn new(
        f: &DenseMatrix,
        b: &DenseMatrix,
        xf: DenseMatrix,
        xb: DenseMatrix,
        y: DenseMatrix,
    ) -> Self {
        let (sf, sb) = fresh_residuals(f, b, &xf, &xb, &y);
        Self { xf, xb, y, sf, sb }
    }

    /// `‖S_f‖² + ‖S_b‖²` from the maintained residuals.
    pub fn objective(&self) -> f64 {
        self.sf.frob_norm_sq() + self.sb.frob_norm_sq()
    }

    /// One sweep: lines 3–14 of Algorithm 4 (Eqs. 13–20).
    pub fn sweep(&mut self) {
        let (n, d) = self.sf.shape();
        let k2 = self.y.cols();
        let cols = |m: &DenseMatrix| (0..k2).map(|l| m.col(l)).collect::<Vec<_>>();

        let ycols = cols(&self.y);
        for v in 0..n {
            for (l, yl) in ycols.iter().enumerate() {
                let norm = vecops::norm2_sq(yl);
                if norm <= 0.0 {
                    continue;
                }
                for (x, s) in [(&mut self.xf, &mut self.sf), (&mut self.xb, &mut self.sb)] {
                    let mu = vecops::dot(s.row(v), yl) / norm;
                    x.add_at(v, l, -mu);
                    vecops::axpy(-mu, yl, s.row_mut(v));
                }
            }
        }

        let (xfcols, xbcols) = (cols(&self.xf), cols(&self.xb));
        for r in 0..d {
            let (mut sfc, mut sbc) = (self.sf.col(r), self.sb.col(r));
            for (l, (xfl, xbl)) in xfcols.iter().zip(&xbcols).enumerate() {
                let norm = vecops::norm2_sq(xfl) + vecops::norm2_sq(xbl);
                if norm <= 0.0 {
                    continue;
                }
                let mu = (vecops::dot(xfl, &sfc) + vecops::dot(xbl, &sbc)) / norm;
                self.y.add_at(r, l, -mu);
                vecops::axpy(-mu, xfl, &mut sfc);
                vecops::axpy(-mu, xbl, &mut sbc);
            }
            self.sf.set_col(r, &sfc);
            self.sb.set_col(r, &sbc);
        }
    }
}
