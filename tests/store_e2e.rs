//! End-to-end durability test: the acceptance path of the `pane-store`
//! layer driven through the facade, the way a deployment would run it.
//!
//! Covers the three contract points: (1) inserts acknowledged before a
//! hard stop are served after a restart's WAL replay — bit-for-bit; (2)
//! a post-snapshot restart boots a fresh generation with an empty WAL
//! and identical query results; (3) sharded top-k over 2+ shards is
//! bit-identical to the unsharded exact scan on the same data. A sharded
//! root's bytes are pinned at every thread count as well.

use pane::prelude::*;
use pane_core::{grow_embedding, reembed_warm, Scored};
use pane_graph::gen::{generate_sbm, SbmConfig};
use pane_loadgen::{
    generate_requests, run, BatchSpec, Endpoint, HandlerEndpoint, Mix, OpKind, RunPlan, Skew,
    WorkloadConfig,
};
use pane_serve::Hit;
use pane_store::ShardedStore;
use std::sync::{Arc, RwLock};

fn sbm(nodes: usize, seed: u64) -> AttributedGraph {
    generate_sbm(&SbmConfig {
        nodes,
        communities: 4,
        avg_out_degree: 6.0,
        attributes: 20,
        attrs_per_node: 4.0,
        seed,
        ..Default::default()
    })
}

fn cfg() -> PaneConfig {
    PaneConfig::builder().dimension(16).seed(13).build()
}

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pane_store_e2e_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn kill_and_restart_preserves_acknowledged_inserts() {
    let dir = tmpdir("killrestart");

    // Offline: embed and initialize the durable store (what `pane embed`
    // + `pane store init` produce).
    let g0 = sbm(200, 3);
    let emb = Pane::new(cfg()).embed(&g0).unwrap();
    let n = g0.num_nodes();
    Store::init(&dir, &emb, &IndexSpec::Flat, &IndexSpec::Flat, 2).unwrap();

    // A node arrives through the pane-core incremental path: grow the
    // graph, warm re-embed offline, push only the new node's rows.
    let mut b = GraphBuilder::new(n + 1, g0.num_attributes());
    for (i, j, _) in g0.adjacency().iter() {
        b.add_edge(i, j);
    }
    for (v, r, w) in g0.attributes().iter() {
        b.add_attribute(v, r, w);
    }
    b.add_edge(n, 0);
    b.add_edge(0, n);
    b.add_attribute(n, 0, 1.0);
    let g1 = b.build();
    let warm = reembed_warm(&cfg(), &g1, &grow_embedding(&emb, 1), 2).unwrap();

    // Session 1: insert, read the answers, then hard-stop — the engine
    // is dropped mid-flight with no shutdown, compact, or snapshot.
    let (id, sim_before, links_before) = {
        let mut engine = ServeEngine::open(&dir, 2).unwrap();
        let id = engine
            .insert(warm.forward.row(n), warm.backward.row(n))
            .unwrap();
        assert_eq!(id, n);
        let sim = engine.similar_nodes(&[id, 0, 17], 8).unwrap();
        let links = engine.recommend_links(&[id, 5], 6, &[0]).unwrap();
        (id, sim, links)
    };

    // Session 2: WAL replay restores the insert; every answer involving
    // the recovered node is bit-identical to the pre-kill session.
    let mut engine = ServeEngine::open(&dir, 2).unwrap();
    let report = engine.status().store.unwrap();
    assert_eq!(report.replayed, 1);
    assert_eq!(engine.num_nodes(), n + 1);
    assert_eq!(engine.similar_nodes(&[id, 0, 17], 8).unwrap(), sim_before);
    assert_eq!(
        engine.recommend_links(&[id, 5], 6, &[0]).unwrap(),
        links_before
    );

    // Snapshot: generation 2 commits, the WAL empties, answers hold.
    let out = engine.snapshot().unwrap();
    assert_eq!((out.generation, out.folded), (2, 1));
    drop(engine); // another hard stop

    // Session 3: boots from the new generation, replays nothing, and
    // serves identical results.
    let engine = ServeEngine::open(&dir, 2).unwrap();
    let report = engine.status().store.unwrap();
    assert_eq!(report.generation, 2);
    assert_eq!(report.wal_records, 0);
    assert_eq!(report.replayed, 0);
    assert_eq!(engine.similar_nodes(&[id, 0, 17], 8).unwrap(), sim_before);
    assert_eq!(
        engine.recommend_links(&[id, 5], 6, &[0]).unwrap(),
        links_before
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sharded_top_k_is_bit_identical_to_the_unsharded_exact_scan() {
    let root = tmpdir("sharded");
    let g = sbm(150, 9);
    let emb = Pane::new(cfg()).embed(&g).unwrap();

    // Ground truth: the exact in-process query layer (pinned equal to a
    // flat store's engine in serve's tests).
    let exact = EmbeddingQuery::new(&emb);
    let hits = |s: Vec<Scored>| -> Vec<Hit> { s.into_iter().map(Hit::from).collect() };

    for shards in [2usize, 3] {
        std::fs::remove_dir_all(&root).ok();
        ShardedStore::init(&root, &emb, &IndexSpec::Flat, &IndexSpec::Flat, shards, 2).unwrap();
        let engine = ShardedEngine::open(&root, 2).unwrap();
        assert_eq!(engine.num_shards(), shards);
        let nodes: Vec<usize> = (0..150).step_by(11).collect();
        let sim = engine.similar_nodes(&nodes, 10).unwrap();
        let links = engine.recommend_links(&nodes, 7, &[2, 40]).unwrap();
        for (qi, &v) in nodes.iter().enumerate() {
            assert_eq!(
                sim[qi],
                hits(exact.similar_nodes(v, 10)),
                "{shards}-way similar-nodes diverged at {v}"
            );
            assert_eq!(
                links[qi],
                hits(exact.recommend_links(v, 7, &[2, 40])),
                "{shards}-way recommend-links diverged at {v}"
            );
        }
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn sharded_inserts_survive_restart_and_snapshot() {
    let root = tmpdir("sharded_durable");
    let g = sbm(90, 5);
    let emb = Pane::new(cfg()).embed(&g).unwrap();
    let n = g.num_nodes();
    let k2 = emb.forward.cols();
    ShardedStore::init(&root, &emb, &IndexSpec::Flat, &IndexSpec::Flat, 2, 1).unwrap();

    let probe: Vec<f64> = (0..k2).map(|i| 0.03 * (i + 1) as f64).collect();
    let before = {
        let mut engine = ShardedEngine::open(&root, 1).unwrap();
        for i in 0..3 {
            assert_eq!(engine.insert(&probe, &probe).unwrap(), n + i);
        }
        engine.similar_nodes(&[n, n + 2], 6).unwrap()
    }; // hard stop

    let mut engine = ShardedEngine::open(&root, 1).unwrap();
    assert_eq!(engine.num_nodes(), n + 3);
    assert_eq!(engine.status().store.unwrap().replayed, 3);
    assert_eq!(engine.similar_nodes(&[n, n + 2], 6).unwrap(), before);

    let out = engine.snapshot().unwrap();
    assert_eq!(out.folded, 3);
    drop(engine);
    let engine = ShardedEngine::open(&root, 1).unwrap();
    let report = engine.status().store.unwrap();
    assert_eq!((report.wal_records, report.replayed), (0, 0));
    assert_eq!(engine.similar_nodes(&[n, n + 2], 6).unwrap(), before);
    std::fs::remove_dir_all(&root).ok();
}

/// Concurrency e2e (PR 9): the open-loop load generator drives a
/// store-backed engine through four concurrent connections with a mixed
/// insert/query stream at a fixed seed, then the process hard-stops.
/// Every acknowledged insert must come back through WAL replay, and
/// probe queries must answer bit-identically across the restart.
#[test]
fn open_loop_mixed_load_survives_a_hard_restart() {
    let dir = tmpdir("loadgen_mixed");
    let g = sbm(120, 11);
    let emb = Pane::new(cfg()).embed(&g).unwrap();
    let n = g.num_nodes();
    let half_dim = emb.forward.cols();
    Store::init(&dir, &emb, &IndexSpec::Flat, &IndexSpec::Flat, 2).unwrap();

    let wl = WorkloadConfig {
        mix: Mix {
            similar: 70,
            links: 10,
            insert: 20,
        },
        skew: Skew::Zipf(1.1),
        batch: BatchSpec { min: 1, max: 4 },
        k: 6,
        seed: 4242,
    };
    let requests = generate_requests(&wl, n, half_dim, 300);
    // The acceptance pin, exercised on the e2e path too: same seed +
    // config ⇒ the identical request sequence.
    assert_eq!(requests, generate_requests(&wl, n, half_dim, 300));

    // Session 1: open-loop run against the live engine, then hard stop —
    // no shutdown, no snapshot; acknowledged inserts live in the WAL.
    let (acked, probe, sim_before, links_before) = {
        let engine = Arc::new(RwLock::new(ServeEngine::open(&dir, 2).unwrap()));
        let handler = Arc::clone(&engine);
        let connect =
            move || Ok(Box::new(HandlerEndpoint::new(Arc::clone(&handler))) as Box<dyn Endpoint>);
        let plan = RunPlan {
            qps: 3000.0,
            connections: 4,
        };
        let report = run(&plan, &requests, &connect).unwrap();
        assert_eq!(report.sent, 300);
        assert_eq!(
            report.errors,
            0,
            "in-process mixed load must not fail: {:?}",
            report
                .outcomes
                .iter()
                .find(|o| o.error.is_some())
                .map(|o| (&o.index, &o.error))
        );
        // Protocol desync check: every response echoes its request's op.
        for o in &report.outcomes {
            assert_eq!(
                o.resp_op.as_deref(),
                Some(o.op.wire_name()),
                "request {} got an answer for a different op",
                o.index
            );
        }
        let acked = report
            .outcomes
            .iter()
            .filter(|o| o.ok && o.op == OpKind::Insert)
            .count();
        assert!(acked > 0, "a q70/l10/i20 mix of 300 must insert");
        let eng = engine.read().unwrap();
        assert_eq!(eng.num_nodes(), n + acked);
        // Probe queries spanning base nodes and load-inserted nodes.
        let probe = vec![0, 7, n, n + acked - 1];
        let sim = eng.similar_nodes(&probe, 8).unwrap();
        let links = eng.recommend_links(&probe, 5, &[3]).unwrap();
        (acked, probe, sim, links)
    };

    // Session 2: WAL replay restores exactly the acknowledged inserts,
    // and the probe answers are bit-identical.
    let engine = ServeEngine::open(&dir, 2).unwrap();
    let store = engine.status().store.unwrap();
    assert_eq!(store.replayed, acked, "replay must equal acked inserts");
    assert_eq!(engine.num_nodes(), n + acked);
    assert_eq!(engine.similar_nodes(&probe, 8).unwrap(), sim_before);
    assert_eq!(
        engine.recommend_links(&probe, 5, &[3]).unwrap(),
        links_before
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Every file under `root`, relative path then bytes, in path order,
/// folded into one checksum.
fn tree_hash(root: &std::path::Path) -> u64 {
    let mut files = Vec::new();
    let mut dirs = vec![root.to_path_buf()];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                dirs.push(path);
            } else {
                files.push(path);
            }
        }
    }
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        bytes.extend_from_slice(f.strip_prefix(root).unwrap().to_str().unwrap().as_bytes());
        bytes.extend(std::fs::read(f).unwrap());
    }
    pane_format::checksum(&bytes)
}

/// A sharded HNSW store's bytes are pinned: the tree hash below was taken
/// from the sequential shard build, and the concurrent one must reproduce
/// it at every thread count. The embedding is integer-hashed values, so
/// the pin covers only the split, the index builds and the persist path.
#[test]
fn sharded_hnsw_init_is_byte_pinned() {
    let value = |i: u64| {
        let mut z = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        ((z >> 11) as f64) / (1u64 << 52) as f64 - 1.0
    };
    let matrix = |rows: usize, cols: usize, salt: u64| {
        let data = (0..rows * cols).map(|i| value(i as u64 + salt)).collect();
        DenseMatrix::from_vec(rows, cols, data)
    };
    let emb = PaneEmbedding {
        forward: matrix(301, 8, 0),
        backward: matrix(301, 8, 1 << 20),
        attribute: matrix(12, 8, 1 << 21),
        timings: Default::default(),
        objective: f64::NAN,
    };
    let node = IndexSpec::Hnsw(HnswConfig {
        m: 8,
        ef_construction: 40,
        ef_search: 32,
        seed: 5,
    });
    let link = IndexSpec::Ivf(IvfConfig {
        nlist: 8,
        ..Default::default()
    });
    let root = tmpdir("pinned_tree");
    for threads in [1, 2, 4] {
        std::fs::remove_dir_all(&root).ok();
        ShardedStore::init(&root, &emb, &node, &link, 3, threads).unwrap();
        assert_eq!(tree_hash(&root), 8706102863288644089, "threads = {threads}");
    }
    std::fs::remove_dir_all(&root).ok();
}
