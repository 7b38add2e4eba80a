//! PAPMI — the block-parallel affinity approximation (Algorithm 6).
//!
//! Algorithm 6 gives worker `i` an **attribute column block** of the dense
//! panels and lets it iterate alone. On a row-major `n×d` matrix a column
//! block is a strided view, and serving it costs a dense copy of `R_r` and
//! `R_c`, a private panel pair per worker and a concatenating copy — six
//! `n×d` matrices at the peak. Here the workers share each step by **node
//! row blocks** of the one next iterate instead (the sparse operator and
//! the previous iterate are shared read-only; one join per step, `t` of
//! them per side), and the normalizers and the SPMI transform also run in
//! node row blocks: three `n×d` matrices at the peak.
//!
//! Lemma 4.1: PAPMI returns *exactly* the same `F'`, `B'` as APMI — not just
//! up to rounding. That holds here because the per-entry arithmetic
//! (accumulation order over a node's neighbors in CSR order, normalization,
//! `ln`) does not depend on which worker computes the entry; the tests
//! assert bit-equality.

use crate::apmi::{affinity, AffinityPair, ApmiInputs};

/// Algorithm 6. With `nb == 1` this is [`crate::apmi::apmi`].
pub fn papmi(inputs: &ApmiInputs<'_>, nb: usize) -> AffinityPair {
    affinity(inputs, nb.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apmi::apmi;
    use pane_graph::gen::{generate_sbm, SbmConfig};
    use pane_graph::{toy, DanglingPolicy};
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
