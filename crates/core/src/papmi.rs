//! PAPMI — the block-parallel affinity approximation (Algorithm 6).
//!
//! As Algorithm 6 writes it, each worker takes **attribute column slabs**
//! and iterates each one alone for all `t` steps: the slab's rows sit in two
//! compact `n×W` buffers (previous and next iterate; `W` from `d` and `nb`),
//! start from the sparse rows of `R_r`/`R_c`, and the finished slab is
//! copied into the output's columns. Workers share only the read-only
//! operator and the output, so each side has one join. The buffers are made
//! on the calling thread (a spawned thread's allocations grow glibc arenas
//! of its own) and serve both sides: the peak is the finished `F'`, the `B'`
//! being filled and `nb·2·n·W` entries (splitting each step by node rows
//! instead would hold the previous iterate as a third `n×d` matrix and
//! join every step). The normalizers and the SPMI transform run in node
//! row blocks.
//!
//! Lemma 4.1: PAPMI returns *exactly* the same `F'`, `B'` as APMI — not just
//! up to rounding. That holds here because the per-entry arithmetic
//! (accumulation over a node's neighbors in CSR order, the scale, the `α·R`
//! add, normalization, `ln`) depends neither on the worker nor on the slab;
//! the tests assert bit-equality, across slab layouts too.

use crate::apmi::{affinity, AffinityPair, ApmiInputs};

/// Algorithm 6. With `nb == 1` this is [`crate::apmi::apmi`].
pub fn papmi(inputs: &ApmiInputs<'_>, nb: usize) -> AffinityPair {
    affinity(inputs, nb.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apmi::{apmi, finish, slab_width};
    use pane_graph::gen::{generate_sbm, SbmConfig};
    use pane_graph::{toy, DanglingPolicy};
    use pane_linalg::{vecops, DenseMatrix};
    use pane_sparse::CsrMatrix;

    fn inputs_for(
        g: &pane_graph::AttributedGraph,
        alpha: f64,
        t: usize,
    ) -> (CsrMatrix, CsrMatrix, CsrMatrix, CsrMatrix, f64, usize) {
        let p = g.random_walk_matrix(DanglingPolicy::SelfLoop);
        let pt = p.transpose();
        let rr = g.attr_row_normalized();
        let rc = g.attr_col_normalized();
        (p, pt, rr, rc, alpha, t)
    }

    /// Lemma 4.1: PAPMI output is bit-identical to APMI for any nb.
    #[test]
    fn lemma_4_1_exact_equality_toy() {
        let g = toy::figure1_graph();
        let (p, pt, rr, rc, alpha, t) = inputs_for(&g, 0.15, 8);
        let inputs = ApmiInputs {
            p: &p,
            pt: &pt,
            rr: &rr,
            rc: &rc,
            alpha,
            t,
        };
        let serial = apmi(&inputs);
        for nb in [2, 3, 5, 7] {
            let par = papmi(&inputs, nb);
            assert_eq!(
                serial.forward.data(),
                par.forward.data(),
                "nb={nb} forward differs"
            );
            assert_eq!(
                serial.backward.data(),
                par.backward.data(),
                "nb={nb} backward differs"
            );
        }
    }

    #[test]
    fn lemma_4_1_exact_equality_sbm() {
        let g = generate_sbm(&SbmConfig {
            nodes: 300,
            communities: 3,
            avg_out_degree: 5.0,
            attributes: 24,
            attrs_per_node: 4.0,
            seed: 5,
            ..Default::default()
        });
        let (p, pt, rr, rc, alpha, t) = inputs_for(&g, 0.5, 5);
        let inputs = ApmiInputs {
            p: &p,
            pt: &pt,
            rr: &rr,
            rc: &rc,
            alpha,
            t,
        };
        let serial = apmi(&inputs);
        for nb in [2, 4, 10] {
            let par = papmi(&inputs, nb);
            assert_eq!(serial.forward.data(), par.forward.data(), "nb={nb}");
            assert_eq!(serial.backward.data(), par.backward.data(), "nb={nb}");
        }
    }

    /// Reference: the same recurrence serially, every row of the next
    /// iterate at full width, then the same normalizers.
    fn full_width(inputs: &ApmiInputs<'_>) -> AffinityPair {
        let side = |m: &CsrMatrix, r: &CsrMatrix| {
            let mut x = r.to_dense();
            for _ in 0..inputs.t {
                let mut next = DenseMatrix::zeros(x.rows(), x.cols());
                for i in 0..x.rows() {
                    let out = next.row_mut(i);
                    let (cols, vals) = m.row(i);
                    for (&c, &v) in cols.iter().zip(vals) {
                        vecops::axpy(v, x.row(c as usize), out);
                    }
                    vecops::scale(1.0 - inputs.alpha, out);
                    let (cols, vals) = r.row(i);
                    for (&c, &v) in cols.iter().zip(vals) {
                        out[c as usize] += inputs.alpha * v;
                    }
                }
                x = next;
            }
            x
        };
        finish(side(inputs.p, inputs.rr), side(inputs.pt, inputs.rc), 1)
    }

    /// Lemma 4.1 across slab layouts: at every `nb` the columns span at
    /// least three slabs with a ragged last one, and at `d = 21` five
    /// workers share three slabs. Every layout gives the full-width bits.
    #[test]
    fn lemma_4_1_exact_equality_across_slabs() {
        for d in [21, 150] {
            let g = generate_sbm(&SbmConfig {
                nodes: 120,
                communities: 3,
                avg_out_degree: 4.0,
                attributes: d,
                attrs_per_node: 6.0,
                seed: 9,
                ..Default::default()
            });
            let (p, pt, rr, rc, alpha, t) = inputs_for(&g, 0.3, 6);
            let inputs = ApmiInputs {
                p: &p,
                pt: &pt,
                rr: &rr,
                rc: &rc,
                alpha,
                t,
            };
            let want = full_width(&inputs);
            for nb in [1, 2, 3, 5] {
                let w = slab_width(d, nb);
                assert!(d.div_ceil(w) >= 3 && d % w != 0, "d={d} nb={nb} w={w}");
                let got = papmi(&inputs, nb);
                assert_eq!(want.forward.data(), got.forward.data(), "d={d} nb={nb}");
                assert_eq!(want.backward.data(), got.backward.data(), "d={d} nb={nb}");
            }
        }
        assert!(21_usize.div_ceil(slab_width(21, 5)) < 5);
    }

    #[test]
    fn more_threads_than_attributes() {
        let g = toy::figure1_graph(); // d = 3
        let (p, pt, rr, rc, alpha, t) = inputs_for(&g, 0.15, 4);
        let inputs = ApmiInputs {
            p: &p,
            pt: &pt,
            rr: &rr,
            rc: &rc,
            alpha,
            t,
        };
        let serial = apmi(&inputs);
        let par = papmi(&inputs, 16);
        assert_eq!(serial.forward.data(), par.forward.data());
    }

    #[test]
    fn nb_one_is_serial_path() {
        let g = toy::figure1_graph();
        let (p, pt, rr, rc, alpha, t) = inputs_for(&g, 0.15, 4);
        let inputs = ApmiInputs {
            p: &p,
            pt: &pt,
            rr: &rr,
            rc: &rc,
            alpha,
            t,
        };
        let a = apmi(&inputs);
        let b = papmi(&inputs, 1);
        assert_eq!(a.forward.data(), b.forward.data());
    }
}
