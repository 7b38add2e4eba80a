//! The traced run: per-layer metrics, measured from outside by timing
//! calls into each layer's public functions, with a span around each.
//!
//! Every timed probe follows the same rule as the end-to-end run: one
//! warm-up, then the median of repetitions.

use crate::build::{init_store, load, pane_config};
use crate::driver::{closed_loop, open_loop, Phase};
use crate::serve::{
    all_ok, check_answers, open_handler, read_latencies_ms, request_nodes, restore,
    snapshot_and_check, warm_up, Backend,
};
use crate::setup::{Inputs, K};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::workloads::{CALLERS, SENDERS, SERVE_THREADS};
use crate::{Ctx, Metric, Res, Run};
use pane::pane_core::{
    ccd_sweeps, greedy_init, objective, papmi, ApmiInputs, InitOptions, Pane, PaneConfig,
    PaneEmbedding, PaneTimings,
};
use pane::pane_graph::AttributedGraph;
use pane::pane_index::{DeltaIndex, FlatIndex, Metric as Space, Neighbor, VectorIndex};
use pane::pane_linalg::{kernels, rand_svd, DenseMatrix, RandSvdConfig};
use pane::pane_serve::LineHandler;
use pane::pane_store::{expected_shard_len, global_of, OpenStore, ShardedStore, Store};
use pane_loadgen::Request;
use std::path::Path;
use std::sync::RwLock;
use std::time::Instant;

/// Timed stage-by-stage embed repetitions (after the reference embed,
/// which is also the warm-up).
const STAGED_REPS: usize = 2;
/// Queries per direct index search probe, and rows per insert probe.
const INDEX_QUERIES: usize = 256;
const INDEX_INSERTS: usize = 512;
/// Timed rounds of the interleaved single-caller probes (after one
/// discarded round).
const PROBE_ROUNDS: usize = 3;
/// Requests per chunk of the traced/untraced closed loop, at most; a short
/// stream is cut into `TRACE_CHUNKS_MIN` chunks so that both arms get
/// their share of it.
const TRACE_CHUNK: usize = 250;
const TRACE_CHUNKS_MIN: usize = 8;
/// Open-loop requests behind `serve.read_p99_ms`, so that with any mix at
/// least fifteen reads lie beyond it.
const TAIL_REQUESTS: usize = 2000;
/// Engine opens behind `serve.boot_s`.
const BOOTS: usize = 21;

fn secs<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

/// Median seconds of `reps` calls after one discarded call.
fn median_secs<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    std::hint::black_box(f());
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let (out, s) = secs(&mut f);
            std::hint::black_box(out);
            s
        })
        .collect();
    median(&times)
}

struct Staged {
    emb: PaneEmbedding,
    forward_affinity: DenseMatrix,
    walk_s: f64,
    affinity_s: f64,
    init_s: f64,
    ccd_s: f64,
    nnz: usize,
}

/// `Pane::embed`, stage by stage through the same public functions, with
/// a span around each stage.
fn staged_embed(tr: &mut Tracer, graph: &AttributedGraph, cfg: &PaneConfig, rep: usize) -> Staged {
    let nb = cfg.threads;
    let ((p, pt, rr, rc), walk_s, _) = tr.span("graph.walk_matrix", rep, |_| {
        let p = graph.random_walk_matrix(cfg.dangling);
        let pt = p.transpose();
        (
            p,
            pt,
            graph.attr_row_normalized(),
            graph.attr_col_normalized(),
        )
    });
    let inputs = ApmiInputs {
        p: &p,
        pt: &pt,
        rr: &rr,
        rc: &rc,
        alpha: cfg.alpha,
        t: cfg.iterations(),
    };
    let (aff, affinity_s, _) = tr.span("core.affinity", rep, |_| papmi(&inputs, nb));
    let opts = init_options(cfg);
    let (mut state, init_s, _) = tr.span("core.init", rep, |_| {
        greedy_init(&aff.forward, &aff.backward, &opts, nb)
    });
    let (_, ccd_s, _) = tr.span("core.ccd", rep, |_| {
        ccd_sweeps(&mut state, cfg.sweeps(), nb)
    });
    let objective = objective(&state);
    Staged {
        emb: PaneEmbedding {
            forward: state.xf,
            backward: state.xb,
            attribute: state.y,
            timings: PaneTimings::default(),
            objective,
        },
        forward_affinity: aff.forward,
        walk_s,
        affinity_s,
        init_s,
        ccd_s,
        nnz: p.nnz(),
    }
}

fn init_options(cfg: &PaneConfig) -> InitOptions {
    InitOptions {
        half_dim: cfg.half_dim(),
        power_iters: cfg.power_iters(),
        oversample: cfg.svd_oversample,
        seed: cfg.seed,
    }
}

fn same_bits(a: &PaneEmbedding, b: &PaneEmbedding) -> bool {
    let bits = |m: &DenseMatrix| m.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    bits(&a.forward) == bits(&b.forward)
        && bits(&a.backward) == bits(&b.backward)
        && bits(&a.attribute) == bits(&b.attribute)
        && a.objective.to_bits() == b.objective.to_bits()
}

/// The embedding as `ShardedStore::init` splits it (one part, the
/// embedding itself, when the workload is unsharded).
fn shard_parts(emb: &PaneEmbedding, shards: usize) -> Vec<PaneEmbedding> {
    let n = emb.forward.rows();
    (0..shards)
        .map(|s| {
            let rows = |m: &DenseMatrix| {
                let picked: Vec<Vec<f64>> = (0..expected_shard_len(n, s, shards))
                    .map(|local| m.row(global_of(s, local, shards)).to_vec())
                    .collect();
                DenseMatrix::from_rows(&picked)
            };
            PaneEmbedding {
                forward: rows(&emb.forward),
                backward: rows(&emb.backward),
                attribute: emb.attribute.clone(),
                timings: PaneTimings::default(),
                objective: f64::NAN,
            }
        })
        .collect()
}

/// Seconds per pass of `queries` through `index`, in request-sized
/// batches as the engine issues them, and the hits of the last pass.
fn search_probe(
    index: &dyn VectorIndex,
    queries: &DenseMatrix,
    batch: usize,
) -> (f64, Vec<Vec<Neighbor>>) {
    let chunks: Vec<DenseMatrix> = (0..queries.rows())
        .step_by(batch)
        .map(|at| queries.row_block(at..(at + batch).min(queries.rows())))
        .collect();
    let mut hits = Vec::new();
    let pass = median_secs(3, || {
        hits = chunks
            .iter()
            .flat_map(|c| index.batch_search(c, K + 1, SERVE_THREADS))
            .collect();
    });
    (pass, hits)
}

fn recall(found: &[Vec<Neighbor>], truth: &[Vec<Neighbor>]) -> f64 {
    let (mut hit, mut want) = (0usize, 0usize);
    for (f, t) in found.iter().zip(truth) {
        want += t.len();
        hit += t
            .iter()
            .filter(|x| f.iter().any(|y| y.index == x.index))
            .count();
    }
    hit as f64 / want as f64
}

fn one_caller<H: LineHandler>(h: &H, what: &str, reqs: &[Request]) -> Res<Phase> {
    let phase = closed_loop(h, reqs, 1, false);
    all_ok(what, &phase)?;
    Ok(phase)
}

fn us_per_request(phase: &Phase) -> f64 {
    phase.wall / phase.attempted as f64 * 1e6
}

/// Sum of every registry series of histogram `name`, its `_sum` part.
fn registry_sum(snapshot: &std::collections::BTreeMap<String, f64>, name: &str) -> f64 {
    snapshot
        .iter()
        .filter(|(k, _)| k.starts_with(name) && k.ends_with("_sum"))
        .map(|(_, v)| v)
        .sum()
}

/// The store, or every shard's store, opened at the store layer.
fn open_stores(dir: &Path, sharded: bool) -> Res<Vec<OpenStore>> {
    if sharded {
        ShardedStore::open(dir)
    } else {
        Store::open(dir).map(|one| vec![one])
    }
    .ctx("store open")
}

/// Records a phase's requests as spans under a span of their own.
fn record_requests(
    tr: &mut Tracer,
    name: &'static str,
    rep: usize,
    run_phase: impl FnOnce() -> Phase,
) -> Phase {
    let (phase, _, _) = tr.span(name, rep, |tr| {
        let base = tr.now_us();
        let phase = run_phase();
        for s in &phase.samples {
            tr.add(
                s.op.wire_name(),
                rep,
                base + s.sent * 1e6,
                base + s.done * 1e6,
            );
        }
        phase
    });
    phase
}

pub fn traced_run<B: Backend>(
    run: &Run,
    inp: &Inputs,
    tr: &mut Tracer,
) -> Res<(Vec<Metric>, usize)> {
    let wl = &run.wl;
    let threads = run.threads;
    let cfg = pane_config(run, threads);
    let mut out: Vec<Metric> = Vec::new();
    let mut put = |name: &'static str, value: f64, unit: &'static str| {
        out.push(Metric { name, value, unit });
    };
    let mut attempted = 0usize;

    // ---- Build path -----------------------------------------------------
    let graph = load(wl, inp)?;
    let reference = Pane::new(cfg.clone()).embed(&graph).ctx("embed")?;
    drop(graph);

    struct BuildRep {
        staged: Staged,
        load_s: f64,
        embed_s: f64,
        cover: f64,
    }
    let mut reps: Vec<BuildRep> = Vec::new();
    let store_of = |rep: usize| run.work.join(format!("store-{rep}"));
    for rep in 0..STAGED_REPS {
        let store = store_of(rep);
        let (r, _, _) = tr.span("build", rep, |tr| -> Res<BuildRep> {
            let (graph, load_s, _) = tr.span("graph.load", rep, |_| load(wl, inp));
            let graph = graph?;
            let (staged, embed_s, embed_id) =
                tr.span("embed", rep, |tr| staged_embed(tr, &graph, &cfg, rep));
            let cover = 1.0 - tr.self_secs(embed_id) / embed_s;
            drop(graph);
            tr.span("store.init", rep, |_| init_store(run, &store, &staged.emb))
                .0?;
            Ok(BuildRep {
                staged,
                load_s,
                embed_s,
                cover,
            })
        });
        let r = r?;
        if !same_bits(&r.staged.emb, &reference) {
            return Err("stage-by-stage embed differs from Pane::embed".into());
        }
        reps.push(r);
    }
    let stage = |f: fn(&BuildRep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    put("graph.load_s", stage(|r| r.load_s), "s");
    put("graph.walk_matrix_s", stage(|r| r.staged.walk_s), "s");
    put("core.affinity_s", stage(|r| r.staged.affinity_s), "s");
    put("core.init_s", stage(|r| r.staged.init_s), "s");
    put("core.ccd_s", stage(|r| r.staged.ccd_s), "s");
    let cover = stage(|r| r.cover);
    if cover < 0.95 {
        return Err(format!(
            "stage spans cover only {cover:.3} of the embed span"
        ));
    }
    put("core.stage_cover", cover, "ratio");
    put("core.iterations_t", cfg.iterations() as f64, "count");
    put("core.ccd_sweeps", cfg.sweeps() as f64, "count");
    put("core.objective", reference.objective, "sq_err");
    let embed_s = stage(|r| r.embed_s);
    let staged = reps.pop().expect("STAGED_REPS > 0").staged;
    let store = store_of(STAGED_REPS - 1);
    put("sparse.nnz", staged.nnz as f64, "count");

    let graph = load(wl, inp)?;
    let (_, one_thread_s, _) = tr.span("embed.one_thread", 0, |_| {
        Pane::new(pane_config(run, 1)).embed(&graph)
    });
    put("parallel.embed_speedup", one_thread_s / embed_s, "ratio");

    let p = graph.random_walk_matrix(cfg.dangling);
    let dense = graph.attr_row_normalized().to_dense();
    drop(graph);
    let (spmm_s, _, _) = tr.span("sparse.spmm", 0, |_| {
        median_secs(5, || p.mul_dense_par(&dense, threads))
    });
    put("sparse.spmm_s", spmm_s, "s");
    drop((p, dense));

    let opts = init_options(&cfg);
    let svd_cfg = RandSvdConfig {
        rank: opts.half_dim,
        power_iters: opts.power_iters,
        oversample: opts.oversample,
        seed: opts.seed,
    };
    let (randsvd_s, _, _) = tr.span("linalg.randsvd", 0, |_| {
        median_secs(2, || rand_svd(&staged.forward_affinity, &svd_cfg))
    });
    put("linalg.randsvd_s", randsvd_s, "s");

    let emb = staged.emb;
    let features = emb.classifier_feature_matrix();
    let mut scores = vec![0.0; features.rows()];
    let (pass_s, _, _) = tr.span("linalg.kernel", 0, |_| {
        median_secs(20, || {
            kernels::dot1xn(
                features.row(0),
                features.data(),
                features.cols(),
                &mut scores,
            )
        })
    });
    put(
        "linalg.kernel_rows_per_s",
        features.rows() as f64 / pass_s,
        "1/s",
    );
    drop(features);

    // ---- Index and store layers, on the rows each store holds -------------
    let parts = shard_parts(&emb, wl.shards);
    let mut built = Vec::new();
    let (mut build_node_s, mut build_link_s) = (0.0, 0.0);
    for part in &parts {
        let (node, s, _) = tr.span("index.build_node", 0, |_| {
            wl.node_spec.build(
                &part.classifier_feature_matrix(),
                Space::InnerProduct,
                threads,
            )
        });
        build_node_s += s;
        let (link, s, _) = tr.span("index.build_link", 0, |_| {
            wl.link_spec
                .build(&part.backward, Space::InnerProduct, threads)
        });
        build_link_s += s;
        built.push((node, link));
    }
    put("index.build_node_s", build_node_s, "s");
    put("index.build_link_s", build_link_s, "s");

    // What `Store::init` does once the bases are built: write a complete
    // generation and commit it. Measured directly, with prebuilt bases.
    let dir = restore(run, &store, "persist")?;
    let opened = open_stores(&dir, wl.shards > 1)?;
    let (write_s, _, _) = tr.span("store.init_write", 0, |_| -> Res<f64> {
        let mut stores: Vec<Store> = opened.into_iter().map(|o| o.store).collect();
        let mut commit = || -> Res<()> {
            for ((shard, part), (node, link)) in stores.iter_mut().zip(&parts).zip(&built) {
                shard.snapshot(part, node, link).ctx("write generation")?;
            }
            Ok(())
        };
        commit()?;
        let times: Vec<f64> = (0..3)
            .map(|_| Ok(secs(&mut commit).1))
            .collect::<Res<_>>()?;
        Ok(median(&times))
    });
    put("store.init_write_s", write_s?, "s");

    let part = &parts[0];
    let (node, link) = built.swap_remove(0);
    let rows = part.forward.rows();
    let picks: Vec<usize> = (0..INDEX_QUERIES).map(|i| i * 7919 % rows).collect();
    let gram = part.link_gram();
    let node_q = DenseMatrix::from_rows(
        &picks
            .iter()
            .map(|&v| part.classifier_features(v))
            .collect::<Vec<_>>(),
    );
    let link_q = DenseMatrix::from_rows(
        &picks
            .iter()
            .map(|&v| part.link_query_vector_with(&gram, v))
            .collect::<Vec<_>>(),
    );
    let part_features = part.classifier_feature_matrix();
    let ((node_pass, node_hits), _, _) = tr.span("index.search_node", 0, |_| {
        search_probe(&node, &node_q, wl.batch.max)
    });
    let ((link_pass, link_hits), _, _) = tr.span("index.search_link", 0, |_| {
        search_probe(&link, &link_q, wl.batch.max)
    });
    put(
        "index.search_node_us",
        node_pass / INDEX_QUERIES as f64 * 1e6,
        "us",
    );
    put(
        "index.search_link_us",
        link_pass / INDEX_QUERIES as f64 * 1e6,
        "us",
    );
    put(
        "index.rows_per_s",
        (rows * INDEX_QUERIES) as f64 / node_pass,
        "1/s",
    );
    let exact = |data: &DenseMatrix, q: &DenseMatrix| {
        FlatIndex::build(data, Space::InnerProduct).batch_search(q, K + 1, threads)
    };
    put(
        "index.recall_node_at_10",
        recall(&node_hits, &exact(&part_features, &node_q)),
        "ratio",
    );
    put(
        "index.recall_link_at_10",
        recall(&link_hits, &exact(&part.backward, &link_q)),
        "ratio",
    );
    let mut delta = DeltaIndex::new(node);
    let (insert_s, _, _) = tr.span("index.insert", 0, |_| {
        secs(|| {
            for i in 0..INDEX_INSERTS {
                delta
                    .insert(part_features.row(i % rows))
                    .expect("delta insert");
            }
        })
        .1
    });
    put(
        "index.insert_us",
        insert_s / INDEX_INSERTS as f64 * 1e6,
        "us",
    );
    drop((delta, link, parts, part_features));

    // ---- Serve layer, one caller: the daemon's handler and a bare engine ---
    let dir = restore(run, &store, "probe")?;
    let observed = open_handler::<B>(&dir)?;
    let plain = RwLock::new(B::open(&restore(run, &store, "plain")?).ctx("open engine")?);
    let engine = || plain.read().expect("no writer panicked");
    put(
        "store.artifact_mib",
        engine()
            .status()
            .store
            .ok_or("engine without store")?
            .artifact_bytes as f64
            / (1 << 20) as f64,
        "MiB",
    );
    let mut sent = 0usize;
    check_answers(&observed, run, inp, &emb)?;
    sent += inp.recall.len();

    // Typed calls against request lines over the same node lists, and the
    // observed handler against the bare lock, in alternating passes so
    // that drift in machine speed falls on all three alike.
    let node_lists: Vec<Vec<usize>> = inp
        .probe_similar
        .iter()
        .map(|r| request_nodes(&r.line))
        .collect::<Res<_>>()?;
    let (mut typed, mut handled, mut bare, mut bytes) = (vec![], vec![], vec![], 0);
    for round in 0..=PROBE_ROUNDS {
        let (_, typed_s) = secs(|| {
            for nodes in &node_lists {
                std::hint::black_box(engine().similar_nodes(nodes, K).expect("similar_nodes"));
            }
        });
        let with_obs = one_caller(&observed, "similar probe", &inp.probe_similar)?;
        let without = one_caller(&plain, "similar probe, bare lock", &inp.probe_similar)?;
        sent += with_obs.attempted;
        attempted += without.attempted;
        if round > 0 {
            typed.push(typed_s / node_lists.len() as f64 * 1e6);
            handled.push(us_per_request(&with_obs));
            bare.push(us_per_request(&without));
            bytes = with_obs.bytes;
        }
    }
    put("serve.handle_similar_us", median(&handled), "us");
    put("serve.engine_similar_us", median(&typed), "us");
    put("serve.protocol_us", median(&handled) - median(&typed), "us");
    put(
        "obs.overhead_share",
        median(&handled) / median(&bare) - 1.0,
        "ratio",
    );

    let (links, _, _) = tr.span("serve.handle_links", 0, |_| {
        one_caller(&observed, "links probe", &inp.probe_links)
    });
    let (insert, _, _) = tr.span("serve.handle_insert", 0, |_| {
        one_caller(&observed, "insert probe", &inp.probe_insert)
    });
    let (links, insert) = (links?, insert?);
    sent += links.attempted + insert.attempted;
    put("serve.handle_links_us", us_per_request(&links), "us");
    put("serve.handle_insert_us", us_per_request(&insert), "us");
    put(
        "serve.response_bytes",
        (bytes + links.bytes) as f64 / (inp.probe_similar.len() + links.attempted) as f64,
        "B",
    );
    let registry = observed.obs().registry().snapshot();
    let fsync = registry_sum(&registry, "pane_wal_fsync_seconds");
    let append = registry_sum(&registry, "pane_wal_append_seconds");
    put("store.wal_fsync_share", fsync / (fsync + append), "ratio");
    let fanout = registry_sum(&registry, "pane_fanout_seconds");
    let reads = registry_sum(&registry, "pane_request_seconds{op=\"similar-nodes\"")
        + registry_sum(&registry, "pane_request_seconds{op=\"recommend-links\"");
    put("serve.fanout_share", fanout / reads, "ratio");
    let total = observed.obs().requests_total() as usize;
    if total != sent {
        return Err(format!("obs counted {total} requests, {sent} were sent"));
    }
    put("obs.requests_total", total as f64, "count");
    attempted += sent;
    drop((observed, plain));
    let (snapshot_s, _, _) = tr.span("store.snapshot", 0, |_| {
        snapshot_and_check::<B>(run, &dir, inp.probe_insert.len())
    });
    put("store.snapshot_s", snapshot_s?, "s");

    // ---- Stream A, traced: as many passes as its tail needs --------------
    // Each pass starts from a restored store, as every cycle of the untraced
    // run does; the passes' samples are pooled.
    let mut dir = run.work.clone();
    let (mut reads, mut late) = (Vec::new(), Vec::new());
    for pass in 0..TAIL_REQUESTS.div_ceil(wl.open_count) {
        dir = restore(run, &store, "serving")?;
        let h = open_handler::<B>(&dir)?;
        let a = record_requests(tr, "serve.open", pass, || {
            open_loop(&h, &inp.open, wl.open_rate, SENDERS)
        });
        all_ok("open loop", &a)?;
        attempted += a.attempted;
        reads.extend(read_latencies_ms(&a));
        late.extend(a.samples.iter().map(|s| (s.sent - s.due) * 1e3));
    }
    put("bench.late_p99_ms", percentile(&late, 99.0)?, "ms");
    put("serve.read_p99_ms", percentile(&reads, 99.0)?, "ms");
    let reopened = B::open(&dir).ctx("boot")?.status();
    put(
        "index.delta_rows",
        reopened.node_index.delta as f64,
        "count",
    );
    put(
        "store.wal_replay_rows",
        reopened.store.ok_or("engine without store")?.replayed as f64,
        "count",
    );
    let (open_s, _, _) = tr.span("store.open", 0, |_| -> Res<f64> {
        open_stores(&dir, wl.shards > 1)?;
        let times: Vec<f64> = (0..5)
            .map(|_| {
                let (opened, s) = secs(|| open_stores(&dir, wl.shards > 1));
                opened.map(|_| s)
            })
            .collect::<Res<_>>()?;
        Ok(median(&times))
    });
    put("store.open_s", open_s?, "s");
    let (boot_s, _, _) = tr.span("serve.boot", 0, |_| -> Res<f64> {
        let times: Vec<f64> = (0..BOOTS)
            .map(|_| {
                let (engine, s) = secs(|| B::open(&dir));
                engine.map(|_| s).ctx("boot")
            })
            .collect::<Res<_>>()?;
        Ok(median(&times))
    });
    put("serve.boot_s", boot_s?, "s");

    // Stream B's first half, two callers, in chunks that alternate between
    // recorded (per-request spans) and unrecorded in an ABBA pattern: the
    // difference is what tracing costs. Then the same requests from one
    // caller, for the scaling ratio.
    let half = &inp.closed[..inp.closed.len() / 2];
    let dir = restore(run, &store, "serving")?;
    let h = open_handler::<B>(&dir)?;
    warm_up(&h, inp)?;
    let (mut traced_s, mut untraced_s, mut traced_n, mut untraced_n) = (0.0, 0.0, 0, 0);
    let chunk_len = (half.len() / TRACE_CHUNKS_MIN).clamp(1, TRACE_CHUNK);
    for (i, chunk) in half.chunks(chunk_len).enumerate() {
        let record = matches!(i % 4, 1 | 2);
        let phase = if record {
            record_requests(tr, "serve.closed", i, || {
                closed_loop(&h, chunk, CALLERS, true)
            })
        } else {
            closed_loop(&h, chunk, CALLERS, false)
        };
        all_ok("closed loop", &phase)?;
        if record {
            traced_s += phase.wall;
            traced_n += phase.attempted;
        } else {
            untraced_s += phase.wall;
            untraced_n += phase.attempted;
        }
    }
    drop(h);
    attempted += half.len();
    let per_traced = traced_s / traced_n as f64;
    let per_untraced = untraced_s / untraced_n as f64;
    put(
        "bench.trace_overhead_share",
        per_traced / per_untraced - 1.0,
        "ratio",
    );
    let two_callers_qps = half.len() as f64 / (traced_s + untraced_s);
    let dir = restore(run, &store, "serving")?;
    let single = one_caller(&open_handler::<B>(&dir)?, "closed loop, one caller", half)?;
    attempted += single.attempted;
    put(
        "serve.scaling_2c",
        two_callers_qps / (CALLERS as f64 * single.qps()),
        "ratio",
    );
    put("loadgen.generate_s", inp.generate_s, "s");
    Ok((out, attempted))
}
