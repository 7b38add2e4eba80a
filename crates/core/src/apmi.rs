//! APMI — Approximation of the affinity matrices via Pointwise Mutual
//! Information (Algorithm 2).
//!
//! Instead of sampling random walks, APMI computes the truncated series
//!
//! ```text
//!   P_f^{(t)} = α Σ_{ℓ=0..t} (1-α)^ℓ P^ℓ  R_r        (n × d)
//!   P_b^{(t)} = α Σ_{ℓ=0..t} (1-α)^ℓ (Pᵀ)^ℓ R_c      (n × d)
//! ```
//!
//! by the recurrences `P_f^{(ℓ)} = (1-α)·P·P_f^{(ℓ-1)} + α·P_f^{(0)}` with
//! `P_f^{(0)} = R_r` (and symmetrically with `Pᵀ`, `R_c`), which costs
//! `O(m·d·t)` instead of the naive `O(m·n·t)`.
//!
//! **A note on the recurrence.** Unrolling it gives
//! `P_f^{(t)} = Σ_{ℓ=0..t-1} α(1-α)^ℓ P^ℓ R_r + (1-α)^t P^t R_r`: the final
//! term carries weight `(1-α)^t` rather than `α(1-α)^t`, i.e. the recurrence
//! *includes the entire tail mass* `Σ_{ℓ≥t}α(1-α)^ℓ` collapsed onto the t-th
//! hop. This makes `P_f^{(t)}` row-stochastic for every `t` (when `P` is),
//! is what Algorithm 2 literally computes, and satisfies the same Lemma 3.1
//! bound (the deviation from `P_f` is at most the tail mass
//! `(1-α)^{t+1} ≤ ε` in every entry).
//!
//! After `t` iterations, `P̂_f^{(t)}` is column-normalized, `P̂_b^{(t)}`
//! row-normalized, and the SPMI transform of Eqs. (2)–(3) is applied:
//! `F' = ln(n·P̂_f + 1)`, `B' = ln(d·P̂_b + 1)`.

use pane_linalg::{vecops, DenseMatrix};
use pane_parallel::{even_ranges_nonempty, for_each_row_block};
use pane_sparse::CsrMatrix;

/// The pair of approximate affinity matrices returned by APMI.
#[derive(Debug, Clone)]
pub struct AffinityPair {
    /// `F' ∈ R^{n×d}` — forward (node → attribute) affinity.
    pub forward: DenseMatrix,
    /// `B' ∈ R^{n×d}` — backward (attribute → node) affinity.
    pub backward: DenseMatrix,
}

/// Inputs shared by [`apmi`] and [`crate::papmi::papmi`].
pub struct ApmiInputs<'a> {
    /// Random-walk matrix `P = D⁻¹A` (`n × n`).
    pub p: &'a CsrMatrix,
    /// Its transpose `Pᵀ` (precomputed once; both phases need it).
    pub pt: &'a CsrMatrix,
    /// Row-normalized attribute matrix `R_r` (`n × d`).
    pub rr: &'a CsrMatrix,
    /// Column-normalized attribute matrix `R_c` (`n × d`).
    pub rc: &'a CsrMatrix,
    /// Stopping probability `α`.
    pub alpha: f64,
    /// Iteration count `t`.
    pub t: usize,
}

impl<'a> ApmiInputs<'a> {
    fn validate(&self) {
        let n = self.p.rows();
        assert_eq!(self.p.cols(), n, "P must be square");
        assert_eq!(self.pt.rows(), n, "Pᵀ shape mismatch");
        assert_eq!(self.pt.cols(), n, "Pᵀ shape mismatch");
        assert_eq!(self.rr.rows(), n, "R_r row mismatch");
        assert_eq!(self.rc.rows(), n, "R_c row mismatch");
        assert_eq!(self.rr.cols(), self.rc.cols(), "R_r/R_c column mismatch");
        assert!(
            self.alpha > 0.0 && self.alpha < 1.0,
            "alpha must be in (0,1)"
        );
    }
}

/// Algorithm 2 (single-threaded). Returns `(F', B')`.
pub fn apmi(inputs: &ApmiInputs<'_>) -> AffinityPair {
    affinity(inputs, 1)
}

/// Algorithms 2 and 6 share every line: `nb` only sets how many workers
/// share the rows of each step, never what an entry is computed from.
pub(crate) fn affinity(inputs: &ApmiInputs<'_>, nb: usize) -> AffinityPair {
    inputs.validate();
    let (pf, pb) = propagate(inputs, nb);
    finish(pf, pb, nb)
}

/// The iterative propagation (Lines 2–5 of Algorithm 2 / 2–8 of Algorithm
/// 6). The forward side is finished before the backward side starts and
/// both use one scratch matrix, so three `n×d` matrices exist at the peak.
pub(crate) fn propagate(inputs: &ApmiInputs<'_>, nb: usize) -> (DenseMatrix, DenseMatrix) {
    let mut scratch = DenseMatrix::zeros(inputs.rr.rows(), inputs.rr.cols());
    let (alpha, t) = (inputs.alpha, inputs.t);
    let pf = iterate(inputs.p, inputs.rr, alpha, t, nb, &mut scratch);
    let pb = iterate(inputs.pt, inputs.rc, alpha, t, nb, &mut scratch);
    (pf, pb)
}

/// `X^{(ℓ)} = (1-α)·M·X^{(ℓ-1)} + α·R` for `t` steps from `X^{(0)} = R`.
/// Each step writes the rows of the next iterate into `scratch` (`nb`
/// workers, a row block each) and swaps; `α·R` is added from the sparse
/// rows, which for the non-negative `M`, `R` of a graph gives the bits of
/// adding a dense copy of `R`.
fn iterate(
    m: &CsrMatrix,
    r: &CsrMatrix,
    alpha: f64,
    t: usize,
    nb: usize,
    scratch: &mut DenseMatrix,
) -> DenseMatrix {
    let (n, d) = (r.rows(), r.cols());
    let mut x = r.to_dense();
    let ranges = even_ranges_nonempty(n, nb);
    for _ in 0..t {
        for_each_row_block(scratch.data_mut(), n, d, &ranges, |_, range, block| {
            for (i, out) in range.zip(block.chunks_exact_mut(d.max(1))) {
                out.fill(0.0);
                let (cols, vals) = m.row(i);
                for (&c, &v) in cols.iter().zip(vals) {
                    vecops::axpy(v, x.row(c as usize), out);
                }
                vecops::scale(1.0 - alpha, out);
                let (cols, vals) = r.row(i);
                for (&c, &v) in cols.iter().zip(vals) {
                    out[c as usize] += alpha * v;
                }
            }
        });
        std::mem::swap(&mut x, scratch);
    }
    x
}

/// Normalization + SPMI transform (Lines 6–8 of Algorithm 2 / Lines 9–13 of
/// Algorithm 6), in `nb` node row blocks; per-entry arithmetic does not
/// depend on `nb`.
pub(crate) fn finish(
    mut forward: DenseMatrix,
    mut backward: DenseMatrix,
    nb: usize,
) -> AffinityPair {
    let (rows, cols) = forward.shape();
    let (n, d) = (rows as f64, cols as f64);
    // Column-normalize P_f^{(t)}; row-normalize P_b^{(t)}.
    let col_sums = forward.col_sums();
    let row_sums = backward.row_sums();
    let ranges = even_ranges_nonempty(rows, nb);
    for_each_row_block(forward.data_mut(), rows, cols, &ranges, |_, _, block| {
        for frow in block.chunks_exact_mut(cols.max(1)) {
            for (v, &s) in frow.iter_mut().zip(&col_sums) {
                *v = if s > 0.0 {
                    (n * *v / s + 1.0).ln()
                } else {
                    0.0
                };
            }
        }
    });
    for_each_row_block(
        backward.data_mut(),
        rows,
        cols,
        &ranges,
        |_, range, block| {
            for (i, brow) in range.zip(block.chunks_exact_mut(cols.max(1))) {
                let rs = row_sums[i];
                for v in brow.iter_mut() {
                    *v = if rs > 0.0 {
                        (d * *v / rs + 1.0).ln()
                    } else {
                        0.0
                    };
                }
            }
        },
    );
    AffinityPair { forward, backward }
}

#[cfg(test)]
mod tests {

    use super::*;
    use pane_graph::{toy, AttributedGraph, DanglingPolicy};

    pub(crate) fn toy_inputs(
        g: &AttributedGraph,
        alpha: f64,
        t: usize,
    ) -> (CsrMatrix, CsrMatrix, CsrMatrix, CsrMatrix, f64, usize) {
        let p = g.random_walk_matrix(DanglingPolicy::SelfLoop);
        let pt = p.transpose();
        let rr = g.attr_row_normalized();
        let rc = g.attr_col_normalized();
        (p, pt, rr, rc, alpha, t)
    }

    fn run_apmi(g: &AttributedGraph, alpha: f64, t: usize) -> AffinityPair {
        let (p, pt, rr, rc, alpha, t) = toy_inputs(g, alpha, t);
        apmi(&ApmiInputs {
            p: &p,
            pt: &pt,
            rr: &rr,
            rc: &rc,
            alpha,
            t,
        })
    }

    /// Dense reference implementation of the recurrence, for cross-checking.
    fn dense_reference(g: &AttributedGraph, alpha: f64, t: usize) -> (DenseMatrix, DenseMatrix) {
        let p = g.random_walk_matrix(DanglingPolicy::SelfLoop).to_dense();
        let rr = g.attr_row_normalized().to_dense();
        let rc = g.attr_col_normalized().to_dense();
        let pt = p.transpose();
        let mut pf = rr.clone();
        let mut pb = rc.clone();
        for _ in 0..t {
            let mut nf = p.matmul(&pf);
            nf.scale_inplace(1.0 - alpha);
            nf.axpy_inplace(alpha, &rr);
            pf = nf;
            let mut nb2 = pt.matmul(&pb);
            nb2.scale_inplace(1.0 - alpha);
            nb2.axpy_inplace(alpha, &rc);
            pb = nb2;
        }
        (pf, pb)
    }

    #[test]
    fn propagation_matches_dense_reference() {
        let g = toy::figure1_graph();
        let (p, pt, rr, rc, alpha, t) = toy_inputs(&g, 0.15, 5);
        let inputs = ApmiInputs {
            p: &p,
            pt: &pt,
            rr: &rr,
            rc: &rc,
            alpha,
            t,
        };
        let (pf, pb) = propagate(&inputs, 1);
        let (rf, rb) = dense_reference(&g, 0.15, 5);
        assert!(pf.max_abs_diff(&rf) < 1e-12);
        assert!(pb.max_abs_diff(&rb) < 1e-12);
    }

    #[test]
    fn pf_rows_stay_stochastic() {
        // With the SelfLoop policy P is row-stochastic, and R_r rows sum to
        // 1 for attributed terminal nodes; on a graph where *every* node has
        // attributes, P_f^{(t)} rows must sum to exactly 1 for every t.
        let mut b = pane_graph::GraphBuilder::new(4, 2);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(2, 3);
        b.add_edge(3, 0);
        for v in 0..4 {
            b.add_attribute(v, v % 2, 1.0);
        }
        let g = b.build();
        let (p, pt, rr, rc, alpha, t) = toy_inputs(&g, 0.5, 7);
        let inputs = ApmiInputs {
            p: &p,
            pt: &pt,
            rr: &rr,
            rc: &rc,
            alpha,
            t,
        };
        let (pf, _) = propagate(&inputs, 1);
        for s in pf.row_sums() {
            assert!((s - 1.0).abs() < 1e-12, "row sum {s}");
        }
    }

    #[test]
    fn affinities_are_finite_and_nonnegative() {
        let g = toy::figure1_graph();
        let aff = run_apmi(&g, 0.15, 9);
        for m in [&aff.forward, &aff.backward] {
            for &v in m.data() {
                assert!(v.is_finite() && v >= 0.0, "bad affinity {v}");
            }
        }
    }

    #[test]
    fn qualitative_table2_properties() {
        use pane_graph::toy::{attrs::*, nodes::*, EXAMPLE_ALPHA};
        let g = toy::figure1_graph();
        let aff = run_apmi(&g, EXAMPLE_ALPHA, 40);
        let f = &aff.forward;
        let bm = &aff.backward;
        // v1 has high affinity with r1 (connected via v3, v4, v5).
        assert!(
            f.get(V1, R1) > f.get(V1, R3),
            "forward: v1 should prefer r1 over r3"
        );
        assert!(bm.get(V1, R1) > 0.0);
        // v5's forward affinity ranks r3 above r1 (the misleading case)...
        assert!(f.get(V5, R3) > f.get(V5, R1), "v5 forward should prefer r3");
        // ...but combining forward + backward repairs the ranking (v5 owns r1).
        let combined_r1 = f.get(V5, R1) + bm.get(V5, R1);
        let combined_r3 = f.get(V5, R3) + bm.get(V5, R3);
        assert!(
            combined_r1 > combined_r3,
            "combined affinity should prefer owned r1"
        );
        // v6 strongly prefers its own r3 in the forward direction.
        assert!(f.get(V6, R3) > f.get(V6, R1));
    }

    #[test]
    fn more_iterations_converge() {
        // P_f^{(t)} converges geometrically; successive iterates contract.
        let g = toy::figure1_graph();
        let (p, pt, rr, rc, ..) = toy_inputs(&g, 0.3, 0);
        let make = |t: usize| {
            let inputs = ApmiInputs {
                p: &p,
                pt: &pt,
                rr: &rr,
                rc: &rc,
                alpha: 0.3,
                t,
            };
            propagate(&inputs, 1).0
        };
        let d5 = make(5).max_abs_diff(&make(30));
        let d15 = make(15).max_abs_diff(&make(30));
        assert!(d15 < d5, "not converging: d5={d5} d15={d15}");
        assert!(d15 < (1.0_f64 - 0.3).powi(15), "slower than geometric");
    }

    #[test]
    fn matches_monte_carlo_on_fully_attributed_graph() {
        use pane_graph::walks::{RestartRule, WalkSimulator};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        // Every node has an attribute, so the matrix form and the sampled
        // walks agree exactly in expectation.
        let mut b = pane_graph::GraphBuilder::new(5, 3);
        let edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2), (1, 4)];
        for (s, t) in edges {
            b.add_edge(s, t);
        }
        for v in 0..5 {
            b.add_attribute(v, v % 3, 1.0);
            if v % 2 == 0 {
                b.add_attribute(v, (v + 1) % 3, 0.5);
            }
        }
        let g = b.build();
        let alpha = 0.4;
        let aff = run_apmi(&g, alpha, 60);
        let sim = WalkSimulator::new(&g, alpha, DanglingPolicy::SelfLoop, RestartRule::Discard);
        let mut rng = StdRng::seed_from_u64(17);
        let (fe, be) = sim.empirical_affinities(40_000, &mut rng);
        assert!(
            aff.forward.max_abs_diff(&fe) < 0.06,
            "forward diff {}",
            aff.forward.max_abs_diff(&fe)
        );
        assert!(
            aff.backward.max_abs_diff(&be) < 0.06,
            "backward diff {}",
            aff.backward.max_abs_diff(&be)
        );
    }
}
