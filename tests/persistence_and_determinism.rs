//! Integration tests for persistence, determinism and scaling behavior.

use pane::pane_graph::io::{load_graph, save_graph};
use pane::prelude::*;

#[test]
fn graph_roundtrip_preserves_embedding() {
    let g = DatasetZoo::CiteseerLike.generate_scaled(0.03, 1).graph;
    let dir = std::env::temp_dir().join(format!("pane_it_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (e, a, l) = (dir.join("e.txt"), dir.join("a.txt"), dir.join("l.txt"));
    save_graph(&g, &e, &a, &l).unwrap();
    let g2 = load_graph(
        &e,
        Some(&a),
        Some(&l),
        Some(g.num_nodes()),
        Some(g.num_attributes()),
        false,
    )
    .unwrap();

    let cfg = PaneConfig::builder().dimension(16).seed(3).build();
    let emb1 = Pane::new(cfg.clone()).embed(&g).unwrap();
    let emb2 = Pane::new(cfg).embed(&g2).unwrap();
    assert_eq!(
        emb1.forward.data(),
        emb2.forward.data(),
        "embedding changed across I/O roundtrip"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn embeddings_deterministic_across_runs() {
    let g = DatasetZoo::CoraLike.generate_scaled(0.04, 2).graph;
    let cfg = PaneConfig::builder()
        .dimension(16)
        .threads(3)
        .seed(9)
        .build();
    let a = Pane::new(cfg.clone()).embed(&g).unwrap();
    let b = Pane::new(cfg).embed(&g).unwrap();
    assert_eq!(a.forward.data(), b.forward.data());
    assert_eq!(a.backward.data(), b.backward.data());
    assert_eq!(a.attribute.data(), b.attribute.data());
}

/// Lemma 4.1 (PAPMI ≡ APMI) lifted to the whole pipeline: with a fixed
/// config seed, the serial and 4-way block-parallel paths must produce
/// **byte-identical** `X_f`, `X_b` and `Y` — not merely approximately equal
/// embeddings. Compared via `f64::to_bits` so that `-0.0`/`0.0` or NaN
/// payload differences cannot hide behind float `==`.
#[test]
fn thread_count_is_bitwise_invariant() {
    let g = DatasetZoo::CoraLike.generate_scaled(0.05, 11).graph;
    let mk = |threads: usize| {
        let cfg = PaneConfig::builder()
            .dimension(16)
            .seed(42)
            .threads(threads)
            .build();
        Pane::new(cfg).embed(&g).unwrap()
    };
    let serial = mk(1);
    let parallel = mk(4);
    let bits = |xs: &[f64]| xs.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
    assert_eq!(
        bits(serial.forward.data()),
        bits(parallel.forward.data()),
        "X_f differs"
    );
    assert_eq!(
        bits(serial.backward.data()),
        bits(parallel.backward.data()),
        "X_b differs"
    );
    assert_eq!(
        bits(serial.attribute.data()),
        bits(parallel.attribute.data()),
        "Y differs"
    );
    assert_eq!(
        serial.objective.to_bits(),
        parallel.objective.to_bits(),
        "objective differs"
    );
}

/// The contract the benchmark's traced run holds the library to: the
/// pipeline walked stage by stage through the public functions — `papmi` →
/// `greedy_init` → `ccd_sweeps` → `objective` — is `Pane::embed`, bit for
/// bit, the objective included. A faster path inside `embed` that the
/// public stages do not take would break it.
#[test]
fn staged_public_functions_equal_embed_bitwise() {
    use pane::pane_core::{ccd_sweeps, greedy_init, objective, papmi, ApmiInputs, InitOptions};
    let g = DatasetZoo::CoraLike.generate_scaled(0.05, 12).graph;
    let bits = |xs: &[f64]| xs.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
    for threads in [1usize, 2] {
        let cfg = PaneConfig::builder()
            .dimension(16)
            .seed(21)
            .threads(threads)
            .build();
        let whole = Pane::new(cfg.clone()).embed(&g).unwrap();

        let p = g.random_walk_matrix(cfg.dangling);
        let pt = p.transpose();
        let (rr, rc) = (g.attr_row_normalized(), g.attr_col_normalized());
        let inputs = ApmiInputs {
            p: &p,
            pt: &pt,
            rr: &rr,
            rc: &rc,
            alpha: cfg.alpha,
            t: cfg.iterations(),
        };
        let aff = papmi(&inputs, threads);
        let opts = InitOptions {
            half_dim: cfg.half_dim(),
            power_iters: cfg.power_iters(),
            oversample: cfg.svd_oversample,
            seed: cfg.seed,
        };
        let mut state = greedy_init(&aff.forward, &aff.backward, &opts, threads);
        ccd_sweeps(&mut state, cfg.sweeps(), threads);

        assert_eq!(
            objective(&state).to_bits(),
            whole.objective.to_bits(),
            "threads={threads}: objective differs"
        );
        for (name, staged, embedded) in [
            ("X_f", &state.xf, &whole.forward),
            ("X_b", &state.xb, &whole.backward),
            ("Y", &state.y, &whole.attribute),
        ] {
            assert_eq!(
                bits(staged.data()),
                bits(embedded.data()),
                "threads={threads}: {name} differs"
            );
        }
    }
}

#[test]
fn different_seeds_differ_but_equal_quality() {
    let g = DatasetZoo::CoraLike.generate_scaled(0.05, 3).graph;
    let mk = |seed| {
        Pane::new(PaneConfig::builder().dimension(16).seed(seed).build())
            .embed(&g)
            .unwrap()
    };
    let a = mk(1);
    let b = mk(2);
    assert_ne!(
        a.forward.data(),
        b.forward.data(),
        "different sketch seeds should differ"
    );
    let rel = (a.objective - b.objective).abs() / a.objective.max(1e-12);
    assert!(
        rel < 0.1,
        "objectives should be comparable: {} vs {}",
        a.objective,
        b.objective
    );
}

#[test]
fn objective_scales_with_graph_size_not_blowing_up() {
    // Scaling the graph 2x should roughly scale the objective with the
    // affinity mass, not explode — a smoke test for numerical stability.
    let small = DatasetZoo::CoraLike.generate_scaled(0.04, 4).graph;
    let large = DatasetZoo::CoraLike.generate_scaled(0.08, 4).graph;
    let cfg = PaneConfig::builder().dimension(16).seed(5).build();
    let es = Pane::new(cfg.clone()).embed(&small).unwrap();
    let el = Pane::new(cfg).embed(&large).unwrap();
    assert!(es.objective.is_finite() && el.objective.is_finite());
    assert!(
        el.objective < es.objective * 40.0,
        "objective exploded with size"
    );
}

#[test]
fn all_zoo_entries_embed_at_tiny_scale() {
    for zoo in DatasetZoo::ALL {
        let g = zoo.generate_scaled(0.015, 6).graph;
        let cfg = PaneConfig::builder()
            .dimension(8)
            .seed(1)
            .threads(2)
            .build();
        let emb = Pane::new(cfg)
            .embed(&g)
            .unwrap_or_else(|e| panic!("{}: {e}", zoo.name()));
        assert_eq!(emb.forward.rows(), g.num_nodes(), "{}", zoo.name());
        assert!(emb.objective.is_finite(), "{}", zoo.name());
    }
}

#[test]
fn timings_are_populated() {
    let g = DatasetZoo::CoraLike.generate_scaled(0.05, 7).graph;
    let emb = Pane::new(PaneConfig::builder().dimension(16).seed(0).build())
        .embed(&g)
        .unwrap();
    let t = emb.timings;
    assert!(t.affinity_secs >= 0.0 && t.init_secs >= 0.0 && t.ccd_secs >= 0.0);
    assert!(t.total_secs() >= t.ccd_secs);
}
