//! Cross-crate validation of the paper's formal claims on real pipelines.

use pane::pane_core::{apmi, papmi, ApmiInputs};
use pane::pane_graph::walks::{RestartRule, WalkSimulator};
use pane::pane_graph::DanglingPolicy;
use pane::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn inputs(
    g: &pane::pane_graph::AttributedGraph,
) -> (
    pane::pane_sparse::CsrMatrix,
    pane::pane_sparse::CsrMatrix,
    pane::pane_sparse::CsrMatrix,
    pane::pane_sparse::CsrMatrix,
) {
    let p = g.random_walk_matrix(DanglingPolicy::SelfLoop);
    let pt = p.transpose();
    let rr = g.attr_row_normalized();
    let rc = g.attr_col_normalized();
    (p, pt, rr, rc)
}

/// Lemma 3.1: the truncated walk distributions deviate from the exact ones
/// by at most the tail mass, entrywise — the premise from which the
/// lemma's multiplicative affinity bound follows. Our recurrence collapses
/// the tail onto the t-th hop (see `pane_core::apmi` docs), giving
/// `|P_f^{(t)} − P_f| ≤ (1−α)^t` entrywise; we verify that bound against a
/// dense exact reference, plus the lemma-style relative bound on entries
/// whose exact mass dominates the tail.
#[test]
fn lemma_3_1_truncation_error_bound() {
    let g = DatasetZoo::CoraLike.generate_scaled(0.05, 1).graph;
    let p = g.random_walk_matrix(DanglingPolicy::SelfLoop).to_dense();
    let rr = g.attr_row_normalized().to_dense();
    let alpha = 0.5;

    // Exact P_f by explicit series summation (converged at t = 80).
    let series = |t: usize| {
        // alpha * sum_{l=0..t} (1-alpha)^l P^l R_r, computed iteratively.
        let mut term = rr.clone(); // P^l R_r
        let mut acc = rr.clone();
        acc.scale_inplace(alpha);
        let mut weight = alpha;
        for _ in 0..t {
            term = p.matmul(&term);
            weight *= 1.0 - alpha;
            acc.axpy_inplace(weight, &term);
        }
        acc
    };
    let exact = series(80);

    // Our recurrence, as APMI computes it.
    let recurrence = |t: usize| {
        let mut cur = rr.clone();
        for _ in 0..t {
            let mut next = p.matmul(&cur);
            next.scale_inplace(1.0 - alpha);
            next.axpy_inplace(alpha, &rr);
            cur = next;
        }
        cur
    };

    for t in [1usize, 3, 6, 9] {
        let eps = (1.0 - alpha).powi(t as i32);
        let approx = recurrence(t);
        // Entrywise premise.
        let worst = approx.max_abs_diff(&exact);
        assert!(
            worst <= eps + 1e-12,
            "t={t}: |P_f^(t) - P_f| = {worst} > {eps}"
        );
        // Lemma-style relative bound where the exact mass dominates the
        // tail: ratio within [1 - eps/Pf, 1 + eps/Pf].
        for (a, b) in approx.data().iter().zip(exact.data()) {
            if *b >= 10.0 * eps {
                let ratio = a / b;
                assert!(
                    (1.0 - eps / b..=1.0 + eps / b).contains(&ratio),
                    "t={t}: ratio {ratio} outside lemma bound for Pf={b}"
                );
            }
        }
    }
}

/// Lemma 4.1 end-to-end: PAPMI equals APMI bit-for-bit on a zoo dataset.
#[test]
fn lemma_4_1_papmi_equals_apmi() {
    let g = DatasetZoo::PubmedLike.generate_scaled(0.02, 2).graph;
    let (p, pt, rr, rc) = inputs(&g);
    let ins = ApmiInputs {
        p: &p,
        pt: &pt,
        rr: &rr,
        rc: &rc,
        alpha: 0.5,
        t: 6,
    };
    let serial = apmi(&ins);
    for nb in [2usize, 3, 8] {
        let par = papmi(&ins, nb);
        assert_eq!(serial.forward.data(), par.forward.data(), "nb={nb}");
        assert_eq!(serial.backward.data(), par.backward.data(), "nb={nb}");
    }
}

/// APMI ≈ Monte-Carlo walks on a graph where every node is attributed
/// (where the matrix form and the sampled walks coincide exactly).
#[test]
fn apmi_matches_monte_carlo_on_zoo_graph() {
    let mut cfg = DatasetZoo::CoraLike.config(0.02, 3);
    cfg.attrs_per_node = 4.0; // ensure nonzero attrs; generator guarantees >= ~k
    let g = pane::pane_graph::gen::generate_sbm(&cfg);
    // Skip nodes without attributes in the comparison (the matrix form
    // leaves their lost mass unnormalized; see walks.rs docs).
    let alpha = 0.5;
    let (p, pt, rr, rc) = inputs(&g);
    let aff = apmi(&ApmiInputs {
        p: &p,
        pt: &pt,
        rr: &rr,
        rc: &rc,
        alpha,
        t: 40,
    });
    let sim = WalkSimulator::new(&g, alpha, DanglingPolicy::SelfLoop, RestartRule::Discard);
    let mut rng = StdRng::seed_from_u64(11);
    let nr = 4000;
    let pf_mc = sim.estimate_forward(nr, &mut rng);
    // Compare the raw distributions on a sample of attributed nodes.
    let mut checked = 0;
    let mut worst: f64 = 0.0;
    let pf_exact = {
        // Recover P_f from F': P̂_f = (e^{F'} - 1)/n, then un-normalize is
        // unnecessary — compare column-normalized forms of both.
        let mut m = aff.forward.clone();
        m.map_inplace(|v| (v.exp() - 1.0) / g.num_nodes() as f64);
        m
    };
    let mut pf_mc_norm = pf_mc.clone();
    let sums = pf_mc_norm.col_sums();
    for i in 0..pf_mc_norm.rows() {
        let row = pf_mc_norm.row_mut(i);
        for (j, v) in row.iter_mut().enumerate() {
            *v = if sums[j] > 0.0 { *v / sums[j] } else { 0.0 };
        }
    }
    for v in 0..g.num_nodes() {
        if g.node_attributes(v).0.is_empty() {
            continue;
        }
        for r in 0..g.num_attributes() {
            worst = worst.max((pf_exact.get(v, r) - pf_mc_norm.get(v, r)).abs());
            checked += 1;
        }
    }
    assert!(checked > 0);
    assert!(
        worst < 0.08,
        "MC vs APMI column-normalized deviation {worst}"
    );
}

/// The objective is identical whether kept in Gram space by the sweeps or
/// recomputed from the embeddings (Eq. 4 == ‖S_f‖²+‖S_b‖²).
#[test]
fn objective_consistency_through_pipeline() {
    let g = DatasetZoo::CoraLike.generate_scaled(0.05, 5).graph;
    let pane = Pane::new(PaneConfig::builder().dimension(16).seed(1).build());
    let (emb, aff) = pane.embed_with_affinity(&g).unwrap();
    let mut sf = emb.forward.matmul_transb(&emb.attribute);
    sf.axpy_inplace(-1.0, &aff.forward);
    let mut sb = emb.backward.matmul_transb(&emb.attribute);
    sb.axpy_inplace(-1.0, &aff.backward);
    let recomputed = sf.frob_norm_sq() + sb.frob_norm_sq();
    let rel = (recomputed - emb.objective).abs() / recomputed.max(1e-12);
    assert!(
        rel < 1e-9,
        "objective drift: reported {} vs recomputed {recomputed}",
        emb.objective
    );
}

/// Eq. 21/22 consistency: attribute and link scores computed through the
/// public API equal the raw formula on the embedding matrices.
#[test]
fn scoring_formulas_match_raw_algebra() {
    let g = DatasetZoo::CoraLike.generate_scaled(0.04, 6).graph;
    let emb = Pane::new(PaneConfig::builder().dimension(16).seed(2).build())
        .embed(&g)
        .unwrap();
    let gram = emb.link_gram();
    for v in (0..g.num_nodes()).step_by(11) {
        for r in (0..g.num_attributes()).step_by(7) {
            let api = emb.attribute_score(v, r);
            let raw = pane::pane_linalg::vecops::dot(emb.forward.row(v), emb.attribute.row(r))
                + pane::pane_linalg::vecops::dot(emb.backward.row(v), emb.attribute.row(r));
            assert!((api - raw).abs() < 1e-12);
        }
        let w = (v * 3 + 1) % g.num_nodes();
        // Eq. 22 brute force: sum over attributes.
        let mut brute = 0.0;
        for r in 0..g.num_attributes() {
            let f = pane::pane_linalg::vecops::dot(emb.forward.row(v), emb.attribute.row(r));
            let b = pane::pane_linalg::vecops::dot(emb.backward.row(w), emb.attribute.row(r));
            brute += f * b;
        }
        let api = emb.link_score_with(&gram, v, w);
        assert!(
            (api - brute).abs() < 1e-6 * (1.0 + brute.abs()),
            "link score mismatch: {api} vs {brute}"
        );
    }
}

// ---- Gram-space CCD against Algorithm 4 as printed ------------------------

#[path = "../crates/core/src/ccd_oracle.rs"]
mod ccd_oracle;

use ccd_oracle::{fresh_residuals, Oracle};
use pane::pane_core::{ccd_sweeps, greedy_init, objective, sm_greedy_init, InitOptions, InitState};
use pane::pane_linalg::DenseMatrix;

fn affinity_like(n: usize, d: usize, seed: u64) -> (DenseMatrix, DenseMatrix) {
    let mut rng = StdRng::seed_from_u64(seed);
    let f = DenseMatrix::uniform(n, d, 0.0, 2.0, &mut rng);
    let b = DenseMatrix::uniform(n, d, 0.0, 2.0, &mut rng);
    (f, b)
}

fn random_state<'a>(f: &'a DenseMatrix, b: &'a DenseMatrix, k2: usize, seed: u64) -> InitState<'a> {
    let mut rng = StdRng::seed_from_u64(seed);
    let xf = DenseMatrix::gaussian(f.rows(), k2, &mut rng);
    let xb = DenseMatrix::gaussian(f.rows(), k2, &mut rng);
    let y = DenseMatrix::gaussian(f.cols(), k2, &mut rng);
    InitState::new(f, b, xf, xb, y, 1)
}

fn explicit_objective(st: &InitState<'_>) -> f64 {
    let (sf, sb) = fresh_residuals(st.f, st.b, &st.xf, &st.xb, &st.y);
    sf.frob_norm_sq() + sb.frob_norm_sq()
}

fn assert_close(what: &str, got: &DenseMatrix, want: &DenseMatrix) {
    let scale = 1.0 + want.data().iter().fold(0.0_f64, |m, v| m.max(v.abs()));
    let diff = got.max_abs_diff(want);
    assert!(
        diff <= 1e-9 * scale,
        "{what}: off by {diff} at scale {scale}"
    );
}

/// The Gram-space sweep computes Algorithm 4's iterates: sweep by sweep it
/// stays within rounding of the level-1 oracle that maintains the residuals,
/// its objective never rises and equals `‖X_fYᵀ−F'‖² + ‖X_bYᵀ−B'‖²` formed
/// explicitly, and (Algorithm 8 ≡ Algorithm 4) every worker count returns
/// the serial bits — on a shape with fewer attributes than coordinates
/// (`YᵀY` singular), a square one, and one far wider than tall. Then the
/// same on shapes whose six-sweep calls run in the attribute space
/// (`ccd::tests::cost_model_picks_the_attribute_space_where_d_is_small`
/// pins that they do): one `ccd_sweeps(·, 6, nb)` call against six oracle
/// sweeps, from a random, a greedy and a warm start.
#[test]
fn gram_ccd_equals_algorithm_4_on_three_shapes() {
    for (name, n, d, k2) in [("d < k/2", 200, 5, 8), ("n ≫ d", 600, 12, 8)] {
        let (f, b) = affinity_like(n, d, 31);
        let opts = InitOptions {
            half_dim: k2,
            power_iters: 2,
            oversample: 4,
            seed: 9,
        };
        // Warm: the embeddings a previous run left on other affinities.
        let (f0, b0) = affinity_like(n, d, 32);
        let mut prev = greedy_init(&f0, &b0, &opts, 1);
        ccd_sweeps(&mut prev, 6, 1);
        let warm = InitState::new(&f, &b, prev.xf, prev.xb, prev.y, 1);
        for (start_name, start) in [
            ("random", random_state(&f, &b, k2, 33)),
            ("greedy", greedy_init(&f, &b, &opts, 1)),
            ("warm", warm),
        ] {
            let at = format!("{name}, {start_name} start");
            let mut oracle =
                Oracle::new(&f, &b, start.xf.clone(), start.xb.clone(), start.y.clone());
            (0..6).for_each(|_| oracle.sweep());
            let runs: Vec<_> = [1usize, 2, 3, 7]
                .map(|nb| {
                    let mut st = start.clone();
                    ccd_sweeps(&mut st, 6, nb);
                    (nb, st)
                })
                .into();
            let (_, serial) = &runs[0];
            assert_close(&format!("{at}: X_f"), &serial.xf, &oracle.xf);
            assert_close(&format!("{at}: X_b"), &serial.xb, &oracle.xb);
            assert_close(&format!("{at}: Y"), &serial.y, &oracle.y);
            let (cur, explicit) = (objective(serial), explicit_objective(serial));
            // The kept objective is exact to ε·(‖F'‖² + ‖B'‖²) (a greedy
            // start with d < k/2 fits exactly).
            let tol = 1e-9 * explicit + 1e-12 * (f.frob_norm_sq() + b.frob_norm_sq());
            assert!(cur <= objective(&start) + tol, "{at}: objective rose");
            assert!(
                (cur - explicit).abs() <= tol,
                "{at}: kept {cur} vs explicit {explicit}"
            );
            assert!(
                (cur - oracle.objective()).abs() <= tol,
                "{at}: kept {cur} vs maintained {}",
                oracle.objective()
            );
            for (nb, st) in &runs[1..] {
                assert_eq!(serial.xf, st.xf, "{at}: X_f, nb={nb}");
                assert_eq!(serial.xb, st.xb, "{at}: X_b, nb={nb}");
                assert_eq!(serial.y, st.y, "{at}: Y, nb={nb}");
                assert_eq!(cur.to_bits(), objective(st).to_bits(), "{at}: nb={nb}");
            }
        }
    }

    for (name, n, d, k2) in [
        ("d < k/2", 40, 5, 8),
        ("d ≈ n", 24, 25, 4),
        ("d ≫ n", 6, 90, 3),
    ] {
        let (f, b) = affinity_like(n, d, 17);
        let start = random_state(&f, &b, k2, 18);
        let mut oracle = Oracle::new(&f, &b, start.xf.clone(), start.xb.clone(), start.y.clone());
        let mut states: Vec<_> = [1usize, 2, 3, 7].map(|nb| (nb, start.clone())).into();
        let mut prev = objective(&start);
        for sweep in 1..=6 {
            oracle.sweep();
            for (nb, st) in states.iter_mut() {
                ccd_sweeps(st, 1, *nb);
            }
            let (_, serial) = &states[0];
            let at = format!("{name}, sweep {sweep}");
            assert_close(&format!("{at}: X_f"), &serial.xf, &oracle.xf);
            assert_close(&format!("{at}: X_b"), &serial.xb, &oracle.xb);
            assert_close(&format!("{at}: Y"), &serial.y, &oracle.y);

            let cur = objective(serial);
            let explicit = explicit_objective(serial);
            assert!(cur <= prev * (1.0 + 1e-12), "{at}: {prev} -> {cur}");
            assert!(
                (cur - explicit).abs() <= 1e-9 * explicit,
                "{at}: kept {cur} vs explicit {explicit}"
            );
            assert!(
                (cur - oracle.objective()).abs() <= 1e-9 * explicit,
                "{at}: kept {cur} vs maintained {}",
                oracle.objective()
            );
            prev = cur;

            for (nb, st) in &states[1..] {
                assert_eq!(serial.xf, st.xf, "{at}: X_f, nb={nb}");
                assert_eq!(serial.xb, st.xb, "{at}: X_b, nb={nb}");
                assert_eq!(serial.y, st.y, "{at}: Y, nb={nb}");
                assert_eq!(cur.to_bits(), objective(st).to_bits(), "{at}: nb={nb}");
            }
        }
    }
}

/// A coordinate whose column is all zero on both sides of a phase has a
/// constant objective; the oracle skips it and so must the Gram sweep — no
/// `0/0`, and the column stays zero. A rank request above `d` makes
/// GreedyInit pad `Y` with such columns.
#[test]
fn gram_ccd_skips_zero_columns_like_the_oracle() {
    let (f, b) = affinity_like(30, 4, 23);
    let opts = InitOptions {
        half_dim: 6,
        power_iters: 2,
        oversample: 2,
        seed: 5,
    };
    let mut st = greedy_init(&f, &b, &opts, 2);
    let dead: Vec<usize> = (0..6)
        .filter(|&l| st.y.col(l).iter().all(|&v| v == 0.0))
        .collect();
    assert!(!dead.is_empty(), "expected padded columns in Y");
    let mut oracle = Oracle::new(&f, &b, st.xf.clone(), st.xb.clone(), st.y.clone());
    for _ in 0..3 {
        ccd_sweeps(&mut st, 1, 2);
        oracle.sweep();
    }
    for m in [&st.xf, &st.xb, &st.y] {
        assert!(m.data().iter().all(|v| v.is_finite()));
    }
    for &l in &dead {
        assert!(st.y.col(l).iter().all(|&v| v == 0.0), "Y[:,{l}] moved");
    }
    assert_close("X_f", &st.xf, &oracle.xf);
    assert_close("X_b", &st.xb, &oracle.xb);
    assert_close("Y", &st.y, &oracle.y);
}

/// SMGreedyInit (Algorithm 7) hands CCD the same kind of state GreedyInit
/// does: its reported objective is the explicit one, and sweeps from it
/// descend and track the oracle.
#[test]
fn split_merge_init_feeds_gram_ccd() {
    let g = DatasetZoo::CoraLike.generate_scaled(0.04, 8).graph;
    let (p, pt, rr, rc) = inputs(&g);
    let aff = papmi(
        &ApmiInputs {
            p: &p,
            pt: &pt,
            rr: &rr,
            rc: &rc,
            alpha: 0.5,
            t: 5,
        },
        3,
    );
    let opts = InitOptions {
        half_dim: 8,
        power_iters: 3,
        oversample: 4,
        seed: 2,
    };
    let mut st = sm_greedy_init(&aff.forward, &aff.backward, &opts, 3);
    let start = objective(&st);
    let explicit = explicit_objective(&st);
    assert!((start - explicit).abs() <= 1e-9 * explicit);
    let mut oracle = Oracle::new(
        &aff.forward,
        &aff.backward,
        st.xf.clone(),
        st.xb.clone(),
        st.y.clone(),
    );
    ccd_sweeps(&mut st, 3, 3);
    (0..3).for_each(|_| oracle.sweep());
    assert!(objective(&st) < start, "no descent from split-merge init");
    assert_close("X_f", &st.xf, &oracle.xf);
    assert_close("Y", &st.y, &oracle.y);
}
