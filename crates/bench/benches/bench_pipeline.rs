//! Criterion benchmarks of the PANE pipeline stages, matched to the
//! paper's cost model:
//!
//! * APMI vs PAPMI (Algorithm 2 vs 6) — `O(m·d·t)`;
//! * GreedyInit (one RandSVD, its products on 1 and 2 workers) vs
//!   SMGreedyInit (Algorithms 3 / 7);
//! * one Gram-space CCD sweep on 1 and 4 workers (Algorithms 4 / 8);
//! * end-to-end PANE across graph sizes (the Figure 3 microcosm);
//! * the pair scorers (Eq. 21 / Eq. 22 vs the four competitor scorers).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pane_core::{
    apmi, ccd_sweeps, greedy_init, papmi, sm_greedy_init, ApmiInputs, InitOptions, Pane, PaneConfig,
};
use pane_datasets::DatasetZoo;
use pane_eval::scoring::LinkScorer;
use pane_eval::scoring::{PairScore, PaneScorer, SingleEmbeddingScorer};
use pane_graph::{AttributedGraph, DanglingPolicy};
use pane_sparse::CsrMatrix;

struct Prepared {
    p: CsrMatrix,
    pt: CsrMatrix,
    rr: CsrMatrix,
    rc: CsrMatrix,
}

fn prepare(g: &AttributedGraph) -> Prepared {
    let p = g.random_walk_matrix(DanglingPolicy::SelfLoop);
    let pt = p.transpose();
    Prepared {
        p,
        pt,
        rr: g.attr_row_normalized(),
        rc: g.attr_col_normalized(),
    }
}

fn bench_apmi(c: &mut Criterion) {
    let g = DatasetZoo::CoraLike.generate_scaled(0.5, 1).graph;
    let pre = prepare(&g);
    let ins = ApmiInputs {
        p: &pre.p,
        pt: &pre.pt,
        rr: &pre.rr,
        rc: &pre.rc,
        alpha: 0.5,
        t: 6,
    };
    let mut group = c.benchmark_group("apmi");
    group.sample_size(10);
    group.bench_function("apmi(cora-like/2, t=6)", |b| b.iter(|| apmi(&ins)));
    for nb in [2usize, 4] {
        group.bench_with_input(BenchmarkId::new("papmi", nb), &nb, |b, &nb| {
            b.iter(|| papmi(&ins, nb));
        });
    }
    group.finish();
}

fn bench_init(c: &mut Criterion) {
    let g = DatasetZoo::CoraLike.generate_scaled(0.5, 2).graph;
    let pre = prepare(&g);
    let ins = ApmiInputs {
        p: &pre.p,
        pt: &pre.pt,
        rr: &pre.rr,
        rc: &pre.rc,
        alpha: 0.5,
        t: 6,
    };
    let aff = apmi(&ins);
    let opts = InitOptions {
        half_dim: 32,
        power_iters: 3,
        oversample: 8,
        seed: 5,
    };
    let mut group = c.benchmark_group("init");
    group.sample_size(10);
    for nb in [1usize, 2] {
        group.bench_with_input(BenchmarkId::new("greedy_init", nb), &nb, |b, &nb| {
            b.iter(|| greedy_init(&aff.forward, &aff.backward, &opts, nb));
        });
    }
    group.bench_function("sm_greedy_init(nb=4)", |b| {
        b.iter(|| sm_greedy_init(&aff.forward, &aff.backward, &opts, 4));
    });
    group.finish();
}

fn bench_ccd_sweep(c: &mut Criterion) {
    let g = DatasetZoo::CoraLike.generate_scaled(0.5, 3).graph;
    let pre = prepare(&g);
    let ins = ApmiInputs {
        p: &pre.p,
        pt: &pre.pt,
        rr: &pre.rr,
        rc: &pre.rc,
        alpha: 0.5,
        t: 6,
    };
    let aff = apmi(&ins);
    let opts = InitOptions {
        half_dim: 32,
        power_iters: 3,
        oversample: 8,
        seed: 5,
    };
    let state0 = greedy_init(&aff.forward, &aff.backward, &opts, 1);
    let mut group = c.benchmark_group("ccd_sweep");
    group.sample_size(10);
    for nb in [1usize, 4] {
        group.bench_with_input(BenchmarkId::new("one_sweep", nb), &nb, |b, &nb| {
            b.iter_batched(
                || state0.clone(),
                |mut st| ccd_sweeps(&mut st, 1, nb),
                criterion::BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("pane_end_to_end");
    group.sample_size(10);
    for scale in [0.1f64, 0.25, 0.5] {
        let g = DatasetZoo::CoraLike.generate_scaled(scale, 4).graph;
        let n = g.num_nodes();
        let cfg = PaneConfig::builder().dimension(32).seed(1).build();
        group.bench_with_input(BenchmarkId::new("nodes", n), &n, |b, _| {
            b.iter(|| Pane::new(cfg.clone()).embed(&g).unwrap());
        });
    }
    group.finish();
}

fn bench_scorers(c: &mut Criterion) {
    let g = DatasetZoo::CoraLike.generate_scaled(0.25, 5).graph;
    let cfg = PaneConfig::builder().dimension(32).seed(1).build();
    let emb = Pane::new(cfg).embed(&g).unwrap();
    let scorer = PaneScorer::new(&emb);
    let pairs: Vec<(usize, usize)> = (0..1000)
        .map(|i| (i % g.num_nodes(), (i * 7 + 3) % g.num_nodes()))
        .collect();
    let mut group = c.benchmark_group("scorers_1000_pairs");
    group.bench_function("pane_eq22", |b| {
        b.iter(|| {
            pairs
                .iter()
                .map(|&(s, t)| scorer.link_score(s, t))
                .sum::<f64>()
        });
    });
    let inner = SingleEmbeddingScorer::new(&emb.forward, PairScore::InnerProduct, None, 0);
    group.bench_function("inner_product", |b| {
        b.iter(|| {
            pairs
                .iter()
                .map(|&(s, t)| inner.link_score(s, t))
                .sum::<f64>()
        });
    });
    let cos = SingleEmbeddingScorer::new(&emb.forward, PairScore::Cosine, None, 0);
    group.bench_function("cosine", |b| {
        b.iter(|| {
            pairs
                .iter()
                .map(|&(s, t)| cos.link_score(s, t))
                .sum::<f64>()
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_apmi,
    bench_init,
    bench_ccd_sweep,
    bench_end_to_end,
    bench_scorers
);
criterion_main!(benches);
