//! Exact vs IVF vs HNSW serving latency (and recall) on a large synthetic
//! graph — the acceptance benchmark of the `pane-index` subsystem.
//!
//! The fixture generates a 50k-node SBM graph (override with
//! `PANE_INDEX_NODES`) and derives a 64-d unit feature vector per node
//! from its community plus per-node seeded noise — the same clustered
//! geometry real `[X_f ‖ X_b]` features have, without paying for a full
//! embedding run inside a bench. All four indexes are built once; the
//! benchmark then times a 100-query top-10 workload per index and prints
//! each approximate index's recall@10 against the flat ground truth —
//! for the scalar-quantized index both self-contained (dequantized
//! re-rank) and with exact re-rank against the resident `f64` rows,
//! alongside the ~8× resident-byte saving.
//!
//! `scan_curve` is the curve behind the block scan (flat and sqflat at
//! the serving shape, queries per pass and dim varied one at a time).
//! `init_crossover` times GreedyInit (Algorithm 3) plus six
//! CCD sweeps as the attribute dimension grows — the curve the exact
//! Gram-path and attribute-space selectors are checked against — with
//! SMGreedyInit (Algorithm 7) beside GreedyInit at one small `d`.

use criterion::{criterion_group, criterion_main, note, Criterion};
use pane_graph::gen::{generate_sbm, SbmConfig};
use pane_index::{
    FlatIndex, HnswConfig, HnswIndex, IvfConfig, IvfIndex, Metric, SqConfig, SqFlatIndex,
    VectorIndex,
};
use pane_linalg::{vecops, DenseMatrix, NormalSampler};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;
use std::time::Instant;

const DIM: usize = 64;
const K: usize = 10;
const NUM_QUERIES: usize = 100;

struct Fixture {
    data: DenseMatrix,
    queries: Vec<usize>,
    flat: FlatIndex,
    ivf: IvfIndex,
    hnsw: HnswIndex,
    sq: SqFlatIndex,
}

static FIXTURE: OnceLock<Fixture> = OnceLock::new();

fn nodes_from_env() -> usize {
    std::env::var("PANE_INDEX_NODES")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(50_000)
}

/// Community-centered unit vectors for every node of an SBM graph.
fn graph_features(n: usize) -> DenseMatrix {
    let g = generate_sbm(&SbmConfig {
        nodes: n,
        communities: 32,
        avg_out_degree: 8.0,
        attributes: 64,
        attrs_per_node: 4.0,
        seed: 97,
        ..Default::default()
    });
    let mut rng = StdRng::seed_from_u64(1234);
    let mut sampler = NormalSampler::new();
    let centers: Vec<Vec<f64>> = (0..32)
        .map(|_| (0..DIM).map(|_| sampler.sample(&mut rng)).collect())
        .collect();
    let mut m = DenseMatrix::zeros(n, DIM);
    for v in 0..n {
        let c = g.labels_of(v).first().copied().unwrap_or(0) as usize % centers.len();
        let row = m.row_mut(v);
        for (j, slot) in row.iter_mut().enumerate() {
            *slot = centers[c][j] + 0.35 * sampler.sample(&mut rng);
        }
        vecops::normalize(row, 1e-300);
    }
    m
}

/// `m` with each row L2-normalized (again, for [`graph_features`]): the
/// rows every index here is built over and queried with, so an
/// inner-product index ranks by cosine.
fn unit_rows(mut m: DenseMatrix) -> DenseMatrix {
    for i in 0..m.rows() {
        vecops::normalize(m.row_mut(i), 1e-300);
    }
    m
}

fn fixture() -> &'static Fixture {
    FIXTURE.get_or_init(|| {
        let n = nodes_from_env();
        let data = unit_rows(graph_features(n));
        let t0 = Instant::now();
        let flat = FlatIndex::build(&data, Metric::InnerProduct);
        let t_flat = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let ivf = IvfIndex::build(
            &data,
            &IvfConfig {
                nlist: 64,
                nprobe: 8,
                threads: 4,
                ..Default::default()
            },
        );
        let t_ivf = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let hnsw = HnswIndex::build(&data, &HnswConfig::default());
        let t_hnsw = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let sq = SqFlatIndex::build(&data, SqConfig::default());
        let t_sq = t0.elapsed().as_secs_f64();
        eprintln!(
            "index build over n={n}: flat {t_flat:.2}s, ivf {t_ivf:.2}s, hnsw {t_hnsw:.2}s, \
             sqflat {t_sq:.2}s"
        );
        note("nodes", n);
        note("dim", DIM);
        note("k", K);
        note("queries", NUM_QUERIES);
        note("build_flat_s", format!("{t_flat:.3}"));
        note("build_ivf_s", format!("{t_ivf:.3}"));
        note("build_hnsw_s", format!("{t_hnsw:.3}"));
        note("build_sqflat_s", format!("{t_sq:.3}"));
        // The 8× RAM story: flat keeps n·dim f64s resident, sqflat keeps
        // n·dim i8 codes + one f64 scale per row.
        let flat_bytes = n * DIM * std::mem::size_of::<f64>();
        let sq_bytes = sq.resident_bytes();
        eprintln!(
            "resident bytes: flat {flat_bytes}, sqflat {sq_bytes} ({:.2}x smaller)",
            flat_bytes as f64 / sq_bytes as f64
        );
        note("flat_resident_bytes", flat_bytes);
        note("sqflat_resident_bytes", sq_bytes);
        note(
            "sqflat_compression",
            format!("{:.2}", flat_bytes as f64 / sq_bytes as f64),
        );

        let queries: Vec<usize> = (0..NUM_QUERIES).map(|i| (i * n) / NUM_QUERIES).collect();
        let truth = search_all(&flat, &data, &queries);
        let sq_rerank: Vec<Vec<pane_index::Neighbor>> = queries
            .iter()
            .map(|&v| sq.search_rerank(data.row(v), K, &data))
            .collect();
        for (name, hits) in [
            ("ivf", search_all(&ivf, &data, &queries)),
            ("hnsw", search_all(&hnsw, &data, &queries)),
            ("sqflat_dequant", search_all(&sq, &data, &queries)),
            ("sqflat_exact_rerank", sq_rerank),
        ] {
            let mut overlap = 0;
            let mut total = 0;
            for (t, h) in truth.iter().zip(&hits) {
                total += t.len();
                overlap += h
                    .iter()
                    .filter(|x| t.iter().any(|y| y.index == x.index))
                    .count();
            }
            eprintln!(
                "recall@{K} {name} vs flat: {:.3} ({overlap}/{total})",
                overlap as f64 / total as f64
            );
            note(
                format!("recall_at_{K}_{name}"),
                format!("{:.3}", overlap as f64 / total as f64),
            );
        }
        Fixture {
            data,
            queries,
            flat,
            ivf,
            hnsw,
            sq,
        }
    })
}

fn search_all(
    index: &dyn VectorIndex,
    data: &DenseMatrix,
    queries: &[usize],
) -> Vec<Vec<pane_index::Neighbor>> {
    queries
        .iter()
        .map(|&v| index.search(data.row(v), K))
        .collect()
}

fn bench_search(c: &mut Criterion) {
    let f = fixture();
    let mut group = c.benchmark_group(format!("index_search/n={}", f.data.rows()));
    group.sample_size(10);
    group.bench_function("flat_100q", |b| {
        b.iter(|| search_all(&f.flat, &f.data, &f.queries))
    });
    group.bench_function("ivf_nprobe8_100q", |b| {
        b.iter(|| search_all(&f.ivf, &f.data, &f.queries))
    });
    group.bench_function("hnsw_ef64_100q", |b| {
        b.iter(|| search_all(&f.hnsw, &f.data, &f.queries))
    });
    group.bench_function("sqflat_dequant_100q", |b| {
        b.iter(|| search_all(&f.sq, &f.data, &f.queries))
    });
    group.bench_function("sqflat_exact_rerank_100q", |b| {
        b.iter(|| {
            f.queries
                .iter()
                .map(|&v| f.sq.search_rerank(f.data.row(v), K, &f.data))
                .collect::<Vec<_>>()
        })
    });
    group.finish();

    // The size `serve-mixed` serves (two shards of 2 500 rows): where a
    // graph walk and a flat scan of the same rows cross over is what a
    // cost-based index choice per shard would read.
    const SHARD_ROWS: usize = 2_500;
    let shard = unit_rows(graph_features(SHARD_ROWS));
    let flat = FlatIndex::build(&shard, Metric::InnerProduct);
    let hnsw = HnswIndex::build(&shard, &HnswConfig::default());
    let queries: Vec<usize> = (0..NUM_QUERIES)
        .map(|i| i * SHARD_ROWS / NUM_QUERIES)
        .collect();
    let mut group = c.benchmark_group(format!("index_search/n={SHARD_ROWS}"));
    group.sample_size(10);
    group.bench_function("flat_100q", |b| {
        b.iter(|| search_all(&flat, &shard, &queries))
    });
    group.bench_function("hnsw_ef64_100q", |b| {
        b.iter(|| search_all(&hnsw, &shard, &queries))
    });
    group.finish();
}

/// The curve the two path selectors are checked against: GreedyInit
/// (Algorithm 3) plus six CCD sweeps (Algorithm 4) at the benchmark's `n`,
/// `k/2 = 32` and `t = 6`, as the attribute dimension `d` grows. Where `d`
/// is small, RandSVD takes the exact Gram path and CCD sweeps in the
/// attribute space (cost `≈ n·d²`); where it is large, both stay on the
/// sketch and the node rows (cost `≈ n·d·k`), so the curve should bend
/// from quadratic to linear in `d` without a step where either selector
/// flips. `2000×1000` is `embed-wide`'s shape, on the sketch and the node
/// rows. SMGreedyInit (Algorithm 7) runs beside GreedyInit at `d = 48`:
/// it pays off only while one global RandSVD is slower than `nb` block
/// SVDs plus a merge.
fn bench_init_crossover(c: &mut Criterion) {
    use pane_core::{ccd_sweeps, greedy_init, sm_greedy_init, InitOptions};

    const THREADS: usize = 2;
    let opts = InitOptions {
        half_dim: 32,
        power_iters: 6,
        oversample: 8,
        seed: 5,
    };
    let mut rng = StdRng::seed_from_u64(31);
    let mut affinity = |n: usize, d: usize| {
        let f = DenseMatrix::uniform(n, d, 0.0, 2.0, &mut rng);
        (f, DenseMatrix::uniform(n, d, 0.0, 2.0, &mut rng))
    };
    note("crossover_half_dim", opts.half_dim);
    note("crossover_power_iters", opts.power_iters);
    note("crossover_sweeps", 6);
    note("crossover_threads", THREADS);
    note(
        "crossover_host_cpus",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );

    let mut group = c.benchmark_group("init_crossover");
    group.sample_size(10);
    let shapes = [32, 64, 96, 128, 192, 256, 384].map(|d| (12_000, d));
    for (n, d) in shapes.into_iter().chain([(2_000, 1_000)]) {
        let (f, b) = affinity(n, d);
        group.bench_function(format!("n={n},d={d}/greedy_ccd6_t{THREADS}"), |bch| {
            bch.iter(|| {
                let mut st = greedy_init(&f, &b, &opts, THREADS);
                ccd_sweeps(&mut st, 6, THREADS);
                st.xf
            })
        });
    }
    let (f, b) = affinity(12_000, 48);
    group.bench_function(format!("n=12000,d=48/greedy_t{THREADS}"), |bch| {
        bch.iter(|| greedy_init(&f, &b, &opts, THREADS).xf)
    });
    group.bench_function(format!("n=12000,d=48/sm_greedy_t{THREADS}"), |bch| {
        bch.iter(|| sm_greedy_init(&f, &b, &opts, THREADS).xf)
    });
    group.finish();
}

fn bench_batch(c: &mut Criterion) {
    let f = fixture();
    let mut queries = DenseMatrix::zeros(f.queries.len(), DIM);
    for (i, &v) in f.queries.iter().enumerate() {
        queries.row_mut(i).copy_from_slice(f.data.row(v));
    }
    let mut group = c.benchmark_group(format!("index_batch/n={}", f.data.rows()));
    group.sample_size(10);
    group.bench_function("hnsw_t1_100q", |b| {
        b.iter(|| f.hnsw.batch_search(&queries, K, 1))
    });
    group.bench_function("flat_t1_100q", |b| {
        b.iter(|| f.flat.batch_search(&queries, K, 1))
    });
    group.finish();
}

/// The curve behind the block scan: one dimension varied at a time, on
/// the serving shape (12 000 rows, one thread). Every case answers the
/// same 8 queries, as `8 / q` passes of `q` queries each, so the rows of
/// one index are directly comparable. Both kinds stream their rows once
/// per pass and score the queries two per row load — `flat` its f32
/// screen copy (each surviving row then re-scored in f64), `sqflat` its
/// i8 codes — so both fall from `by1` to `by2` and level off after.
fn bench_scan_curve(c: &mut Criterion) {
    const ROWS: usize = 12_000;
    const QUERIES: usize = 8;
    let mut rng = StdRng::seed_from_u64(4242);
    let mut sampler = NormalSampler::new();
    let mut group = c.benchmark_group(format!("scan_curve/n={ROWS}"));
    group.sample_size(30);
    for dim in [32usize, 64, 128] {
        let mut data = DenseMatrix::zeros(ROWS, dim);
        for v in data.data_mut() {
            *v = sampler.sample(&mut rng);
        }
        let data = unit_rows(data);
        let flat = FlatIndex::build(&data, Metric::InnerProduct);
        let sq = SqFlatIndex::build(&data, SqConfig::default());
        let kinds: [(&str, &dyn VectorIndex); 2] = [("flat", &flat), ("sqflat", &sq)];
        for (name, index) in kinds {
            for per_pass in [1usize, 2, 4, 8] {
                let passes: Vec<DenseMatrix> = (0..QUERIES)
                    .step_by(per_pass)
                    .map(|at| data.row_block(at * 100..at * 100 + per_pass))
                    .collect();
                group.bench_function(format!("{name}_d{dim}_{QUERIES}q_by{per_pass}"), |b| {
                    b.iter(|| {
                        passes
                            .iter()
                            .map(|q| index.batch_search(q, K, 1).len())
                            .sum::<usize>()
                    })
                });
            }
        }
    }
    group.finish();
}

/// The plain left-to-right dot the scan sites used before the kernel
/// layer — kept here as the benchmark baseline.
fn scalar_dot(x: &[f64], y: &[f64]) -> f64 {
    let mut acc = 0.0;
    for i in 0..x.len() {
        acc += x[i] * y[i];
    }
    acc
}

/// Scalar vs 8-lane unrolled vs panel kernel at dims 32/128/512, so the
/// crossover points are recorded instead of folklore. Each variant scans
/// the same row block; the noted `kernel_rows_per_s_*` figures are
/// single-thread scan throughput (rows scored per second), measured over
/// a fixed wall-clock budget outside the criterion loop.
fn bench_kernels(c: &mut Criterion) {
    use pane_linalg::kernels;
    use std::hint::black_box;

    // Compile-time SIMD surface of this run. The committed numbers come
    // from a baseline x86-64 build (all three `false`), measured before
    // the workspace's default target became x86-64-v3 (`avx2=true
    // fma=true`). Every target is value-safe: the fixed-lane contract pins
    // the summation order at any vector width, and CI re-runs the bitwise
    // equivalence suites at the default, the baseline and `native`.
    note(
        "kernel_bench_target_features",
        format!(
            "avx2={} fma={} avx512f={}",
            cfg!(target_feature = "avx2"),
            cfg!(target_feature = "fma"),
            cfg!(target_feature = "avx512f")
        ),
    );

    let mut rng = StdRng::seed_from_u64(99);
    let mut sampler = NormalSampler::new();
    for dim in [32usize, 128, 512] {
        // One query against an L2-resident panel (1 MiB working set) —
        // the regime the fused scanner actually creates: batch_search
        // walks the store in ~32 KiB panels and reuses each panel
        // across queries, so the kernels score cache-hot rows. (A cold
        // full-store scan is DRAM-bandwidth-bound; there the kernels
        // can only win up to the memory ceiling, not the ALU ceiling.)
        let n_rows = (1 << 20) / (dim * 8);
        let mut rows = DenseMatrix::zeros(n_rows, dim);
        for v in rows.data_mut() {
            *v = sampler.sample(&mut rng);
        }
        let q: Vec<f64> = (0..dim).map(|_| sampler.sample(&mut rng)).collect();

        // Throughput notes: rows/s over ≥0.2 s of repeated full scans.
        let measure = |f: &mut dyn FnMut() -> f64| -> f64 {
            let mut reps = 0usize;
            let mut sink = 0.0;
            let t0 = Instant::now();
            while t0.elapsed().as_secs_f64() < 0.2 {
                sink += f();
                reps += 1;
            }
            black_box(sink);
            (reps * n_rows) as f64 / t0.elapsed().as_secs_f64()
        };
        let scalar_rps = measure(&mut || {
            (0..n_rows)
                .map(|r| scalar_dot(&q, rows.row(r)))
                .sum::<f64>()
        });
        let unrolled_rps = measure(&mut || {
            (0..n_rows)
                .map(|r| kernels::dot(&q, rows.row(r)))
                .sum::<f64>()
        });
        let mut out = vec![0.0f64; n_rows];
        let panel_rps = measure(&mut || {
            kernels::dot1xn(&q, rows.data(), dim, &mut out);
            out[n_rows - 1]
        });
        note(
            format!("kernel_rows_per_s_dim{dim}_scalar"),
            format!("{scalar_rps:.0}"),
        );
        note(
            format!("kernel_rows_per_s_dim{dim}_unrolled"),
            format!("{unrolled_rps:.0}"),
        );
        note(
            format!("kernel_rows_per_s_dim{dim}_panel"),
            format!("{panel_rps:.0}"),
        );
        note(
            format!("kernel_speedup_dim{dim}_unrolled_vs_scalar"),
            format!("{:.2}", unrolled_rps / scalar_rps),
        );
        note(
            format!("kernel_speedup_dim{dim}_panel_vs_scalar"),
            format!("{:.2}", panel_rps / scalar_rps),
        );
        eprintln!(
            "kernels dim={dim}: scalar {scalar_rps:.3e} rows/s, unrolled {unrolled_rps:.3e} \
             ({:.2}x), panel {panel_rps:.3e} ({:.2}x)",
            unrolled_rps / scalar_rps,
            panel_rps / scalar_rps
        );

        let mut group = c.benchmark_group(format!("kernels/dim={dim}"));
        group.sample_size(20);
        group.bench_function(format!("scalar_{n_rows}rows"), |b| {
            b.iter(|| {
                (0..n_rows)
                    .map(|r| scalar_dot(&q, rows.row(r)))
                    .sum::<f64>()
            })
        });
        group.bench_function(format!("unrolled_{n_rows}rows"), |b| {
            b.iter(|| {
                (0..n_rows)
                    .map(|r| kernels::dot(&q, rows.row(r)))
                    .sum::<f64>()
            })
        });
        group.bench_function(format!("panel_{n_rows}rows"), |b| {
            b.iter(|| {
                kernels::dot1xn(&q, rows.data(), dim, &mut out);
                out[0]
            })
        });
        group.finish();
    }
}

criterion_group!(
    index_benches,
    bench_kernels,
    bench_search,
    bench_batch,
    bench_scan_curve,
    bench_init_crossover
);
criterion_main!(index_benches);
