//! End-to-end tests for `pane route`: real shard daemons on localhost
//! sockets behind a [`pane_serve::Router`].
//!
//! Pins the acceptance criteria of the multi-daemon serving tier:
//!
//! * with flat shards, routed `similar-nodes` / `recommend-links` are
//!   **bit-identical** to the in-process [`ShardedEngine`] and to the
//!   unsharded exact scan — scores and query vectors cross the wire
//!   through the shortest-roundtrip float formatter, so equality is
//!   exact, not approximate;
//! * a dead shard **degrades** reads (partial results plus
//!   `"degraded":true` and a `shards_down` list) instead of failing
//!   them, and the partial results are themselves exact over the
//!   surviving shards;
//! * a restarted shard **rejoins** automatically via the router's
//!   health probes;
//! * inserts route to the owner daemon and map back to global ids, and
//!   `stats` / `snapshot` aggregate across daemons.

use pane_core::{Pane, PaneConfig};
use pane_graph::gen::{generate_sbm, SbmConfig};
use pane_index::IndexSpec;
use pane_loadgen::{
    generate_requests, run, BatchSpec, Endpoint, HandlerEndpoint, Mix, RunPlan, Skew,
    WorkloadConfig,
};
use pane_serve::{
    serve_tcp, ClientConfig, Hit, Json, LineHandler, Router, ServeBackend, ServeEngine,
    ShardedEngine,
};
use pane_store::{shard_dir, shard_of, ShardedStore};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

fn fixture(nodes: usize) -> pane_core::PaneEmbedding {
    let g = generate_sbm(&SbmConfig {
        nodes,
        communities: 4,
        avg_out_degree: 6.0,
        attributes: 20,
        attrs_per_node: 4.0,
        seed: 31,
        ..Default::default()
    });
    Pane::new(PaneConfig::builder().dimension(16).seed(7).build())
        .embed(&g)
        .unwrap()
}

fn tmp_root(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pane_router_e2e_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn client_config() -> ClientConfig {
    ClientConfig {
        connect_timeout: Duration::from_millis(500),
        request_timeout: Duration::from_secs(5),
        retries: 1,
        backoff: Duration::from_millis(10),
        probe_interval: Duration::from_millis(50),
        // Retry backoff is clock-injected; e2e tests never sleep it.
        sleep: Arc::new(|_| {}),
    }
}

struct ShardDaemon {
    addr: SocketAddr,
    handle: Option<std::thread::JoinHandle<()>>,
}

/// Boots one `pane serve`-equivalent daemon over one shard directory.
/// `at` pins the listen address (for restarts); `None` takes any port.
fn start_daemon(dir: &Path, at: Option<SocketAddr>) -> ShardDaemon {
    let listener = match at {
        // A just-closed listener port may linger briefly; retry the bind.
        Some(addr) => {
            let deadline = Instant::now() + Duration::from_secs(5);
            loop {
                match TcpListener::bind(addr) {
                    Ok(l) => break l,
                    Err(e) if Instant::now() < deadline => {
                        let _ = e;
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    Err(e) => panic!("cannot rebind {addr}: {e}"),
                }
            }
        }
        None => TcpListener::bind("127.0.0.1:0").unwrap(),
    };
    let addr = listener.local_addr().unwrap();
    let engine = ServeEngine::open(dir, 1).unwrap();
    let handle = std::thread::spawn(move || {
        serve_tcp(Arc::new(RwLock::new(engine)), listener).unwrap();
    });
    ShardDaemon {
        addr,
        handle: Some(handle),
    }
}

impl ShardDaemon {
    /// Clean shutdown: the daemon answers, drains, and releases its
    /// store lock (so the directory can be reopened by a restart).
    fn stop(&mut self) {
        let mut conn = TcpStream::connect(self.addr).unwrap();
        conn.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
        let mut line = String::new();
        BufReader::new(conn).read_line(&mut line).unwrap();
        self.handle.take().unwrap().join().unwrap();
    }
}

fn ask(router: &Router, line: &str) -> Json {
    let (resp, _) = router.handle(line);
    pane_serve::parse(&resp).unwrap()
}

fn results_of(resp: &Json) -> Vec<Vec<(usize, f64)>> {
    let Some(Json::Arr(batches)) = resp.get("results") else {
        panic!("no results in {resp:?}");
    };
    batches
        .iter()
        .map(|b| {
            let Json::Arr(hits) = b else {
                panic!("bad batch {b:?}")
            };
            hits.iter()
                .map(|h| {
                    (
                        h.get("node").unwrap().as_index().unwrap(),
                        h.get("score").unwrap().as_f64().unwrap(),
                    )
                })
                .collect()
        })
        .collect()
}

fn pairs(hits: &[Vec<Hit>]) -> Vec<Vec<(usize, f64)>> {
    hits.iter()
        .map(|b| b.iter().map(|h| (h.node, h.score)).collect())
        .collect()
}

#[test]
fn routed_top_k_is_bit_identical_to_in_process_engines() {
    const N: usize = 121;
    const SHARDS: usize = 3;
    let emb = fixture(N);
    let root = tmp_root("bitident");
    ShardedStore::init(&root, &emb, &IndexSpec::Flat, &IndexSpec::Flat, SHARDS, 2).unwrap();

    // Every rung answers the identical protocol, error replies included:
    // these lines must draw byte-identical replies from an unsharded
    // engine, a sharded engine and the router (whose `degraded` field is
    // the one thing it adds).
    let table = [
        (r#"{"op":"similar-nodes","nodes":[]}"#, false),
        (r#"{"op":"similar-nodes","nodes":[999]}"#, false),
        (r#"{"op":"recommend-links","k":3}"#, false),
        (r#"{"op":"similar-nodes","nodes":[1],"k":"ten"}"#, false),
        (r#"{"op":"recommend-links","nodes":[1],"exclude":7}"#, false),
        (r#"{"op":"similar-nodes","nodes":[0,5,120],"k":4}"#, true),
        (
            r#"{"op":"recommend-links","nodes":[2,60],"k":3,"exclude":[3,11]}"#,
            true,
        ),
    ];
    let replies = |h: &dyn LineHandler| -> Vec<String> {
        table
            .iter()
            .map(|(line, _)| h.handle(line).0.replace(r#","degraded":false"#, ""))
            .collect()
    };

    let nodes: Vec<usize> = (0..N).step_by(7).collect();
    let (want_sim, want_links, sharded_replies) = {
        // The store layer holds exclusive file locks, so compute the
        // in-process expectation first and drop it before the daemons
        // open the same directories.
        let eng = ShardedEngine::open(&root, 2).unwrap();
        (
            eng.similar_nodes(&nodes, 10).unwrap(),
            eng.recommend_links(&nodes, 8, &[3, 11]).unwrap(),
            replies(&RwLock::new(eng)),
        )
    };
    // Transitivity check against the unsharded exact scan as well.
    let unsharded = ServeEngine::build(emb, &IndexSpec::Flat, 2);
    assert_eq!(
        pairs(&unsharded.similar_nodes(&nodes, 10).unwrap()),
        pairs(&want_sim)
    );
    let unsharded_replies = replies(&RwLock::new(unsharded));
    assert_eq!(sharded_replies, unsharded_replies);
    for ((line, ok), reply) in table.iter().zip(&unsharded_replies) {
        assert_eq!(reply.starts_with(r#"{"ok":true"#), *ok, "{line}: {reply}");
    }

    let mut daemons: Vec<ShardDaemon> = (0..SHARDS)
        .map(|s| start_daemon(&shard_dir(&root, s), None))
        .collect();
    let addrs: Vec<String> = daemons.iter().map(|d| d.addr.to_string()).collect();
    let router = Router::connect(&addrs, client_config()).unwrap();

    let sim = ask(
        &router,
        &format!(
            r#"{{"op":"similar-nodes","nodes":[{}],"k":10}}"#,
            nodes
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(",")
        ),
    );
    assert_eq!(sim.get("ok"), Some(&Json::Bool(true)), "{sim:?}");
    assert_eq!(sim.get("degraded"), Some(&Json::Bool(false)));
    assert_eq!(
        results_of(&sim),
        pairs(&want_sim),
        "similar-nodes diverged over the wire"
    );

    let links = ask(
        &router,
        &format!(
            r#"{{"op":"recommend-links","nodes":[{}],"k":8,"exclude":[3,11]}}"#,
            nodes
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(",")
        ),
    );
    assert_eq!(links.get("ok"), Some(&Json::Bool(true)), "{links:?}");
    assert_eq!(
        results_of(&links),
        pairs(&want_links),
        "recommend-links diverged over the wire"
    );
    assert_eq!(replies(&router), unsharded_replies);

    drop(router);
    for d in &mut daemons {
        d.stop();
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn dead_shard_degrades_reads_and_recovers_after_restart() {
    const N: usize = 90;
    const SHARDS: usize = 3;
    const DEAD: usize = 1;
    let emb = fixture(N);
    let root = tmp_root("degrade");
    ShardedStore::init(&root, &emb, &IndexSpec::Flat, &IndexSpec::Flat, SHARDS, 1).unwrap();

    let nodes: Vec<usize> = (0..N).step_by(5).collect();
    let k = 6;
    // Ground truth from the unsharded exact scan: a full-width ranking
    // per query, from which both the healthy and the degraded
    // expectations derive exactly.
    let unsharded = ServeEngine::build(emb, &IndexSpec::Flat, 2);
    let healthy = unsharded.similar_nodes(&nodes, k).unwrap();
    let wide = unsharded.similar_nodes(&nodes, N).unwrap();
    let degraded_want: Vec<Vec<(usize, f64)>> = wide
        .iter()
        .map(|b| {
            b.iter()
                .filter(|h| shard_of(h.node, SHARDS) != DEAD)
                .take(k)
                .map(|h| (h.node, h.score))
                .collect()
        })
        .collect();

    let mut daemons: Vec<ShardDaemon> = (0..SHARDS)
        .map(|s| start_daemon(&shard_dir(&root, s), None))
        .collect();
    let addrs: Vec<String> = daemons.iter().map(|d| d.addr.to_string()).collect();
    let router = Router::connect(&addrs, client_config()).unwrap();
    let query = format!(
        r#"{{"op":"similar-nodes","nodes":[{}],"k":{k}}}"#,
        nodes
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join(",")
    );
    assert_eq!(results_of(&ask(&router, &query)), pairs(&healthy));

    // Kill one shard daemon; reads must keep answering, partially.
    let dead_addr = daemons[DEAD].addr;
    daemons[DEAD].stop();
    let resp = ask(&router, &query);
    assert_eq!(
        resp.get("ok"),
        Some(&Json::Bool(true)),
        "a dead shard must degrade, not fail: {resp:?}"
    );
    assert_eq!(resp.get("degraded"), Some(&Json::Bool(true)));
    assert_eq!(
        resp.get("shards_down").unwrap().as_index_array(),
        Some(vec![DEAD])
    );
    let got = results_of(&resp);
    for (qi, &v) in nodes.iter().enumerate() {
        if shard_of(v, SHARDS) == DEAD {
            // The dead daemon owned this query's vector: empty, not error.
            assert!(got[qi].is_empty(), "node {v}: expected empty results");
        } else {
            assert_eq!(
                got[qi], degraded_want[qi],
                "node {v}: degraded results must be exact over surviving shards"
            );
        }
    }

    // An insert whose owner is down is an error (writes never degrade).
    // The next global id N = 90 is owned by shard 90 % 3 = 0 (alive), so
    // probe the dead owner via a stats check instead: the response must
    // carry it in shards_down.
    let st = ask(&router, r#"{"op":"stats"}"#);
    assert_eq!(st.get("degraded"), Some(&Json::Bool(true)));
    assert_eq!(
        st.get("shards_down").unwrap().as_index_array(),
        Some(vec![DEAD])
    );

    // Restart the daemon on the same address; the health probes must
    // re-admit it and full-fidelity answers must return.
    daemons[DEAD] = start_daemon(&shard_dir(&root, DEAD), Some(dead_addr));
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let st = ask(&router, r#"{"op":"stats"}"#);
        if st.get("degraded") == Some(&Json::Bool(false)) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "router did not re-admit the restarted shard: {st:?}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    assert_eq!(
        results_of(&ask(&router, &query)),
        pairs(&healthy),
        "post-recovery results must match the healthy baseline"
    );

    drop(router);
    for d in &mut daemons {
        d.stop();
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn router_metrics_track_queries_and_shard_death_over_live_daemons() {
    const N: usize = 60;
    const SHARDS: usize = 2;
    const DEAD: usize = 1;
    let emb = fixture(N);
    let root = tmp_root("metrics");
    ShardedStore::init(&root, &emb, &IndexSpec::Flat, &IndexSpec::Flat, SHARDS, 1).unwrap();

    let mut daemons: Vec<ShardDaemon> = (0..SHARDS)
        .map(|s| start_daemon(&shard_dir(&root, s), None))
        .collect();
    let addrs: Vec<String> = daemons.iter().map(|d| d.addr.to_string()).collect();
    let router = Router::connect(&addrs, client_config()).unwrap();

    // Healthy traffic: two queries and a stats probe.
    let query = r#"{"op":"similar-nodes","nodes":[1,5,9],"k":4}"#;
    for _ in 0..2 {
        let resp = ask(&router, query);
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp:?}");
    }
    let st = ask(&router, r#"{"op":"stats"}"#);
    assert_eq!(
        st.get("uptime_secs").map(|v| v.as_f64().is_some()),
        Some(true)
    );
    assert_eq!(st.get("requests_total").unwrap().as_index(), Some(2));

    let m = ask(&router, r#"{"op":"metrics"}"#);
    assert_eq!(m.get("ok"), Some(&Json::Bool(true)), "{m:?}");
    let text = m.get("text").unwrap().as_str().unwrap().to_string();
    assert!(
        text.contains(r#"pane_router_requests_total{op="similar-nodes"} 2"#),
        "query counter missing:\n{text}"
    );
    assert!(text.contains("pane_router_degraded_responses_total 0"));
    assert!(text.contains(r#"pane_shard_up{shard="0"} 1"#));
    assert!(text.contains(r#"pane_shard_up{shard="1"} 1"#));
    // The JSON form is live too, and agrees on the request count.
    let counters = m.get("metrics").unwrap().get("counters").unwrap();
    assert_eq!(
        counters
            .get(r#"pane_router_requests_total{op="similar-nodes"}"#)
            .unwrap()
            .as_index(),
        Some(2)
    );

    // Kill one daemon; a degraded query must flip the health metrics.
    daemons[DEAD].stop();
    let resp = ask(&router, query);
    assert_eq!(resp.get("degraded"), Some(&Json::Bool(true)), "{resp:?}");

    let m = ask(&router, r#"{"op":"metrics"}"#);
    let text = m.get("text").unwrap().as_str().unwrap().to_string();
    assert!(
        text.contains(r#"pane_shard_up{shard="1"} 0"#),
        "dead shard still marked up:\n{text}"
    );
    let gauges = m.get("metrics").unwrap().get("gauges").unwrap();
    assert_eq!(
        gauges.get("pane_router_shards_down").unwrap().as_index(),
        Some(1)
    );
    let counters = m.get("metrics").unwrap().get("counters").unwrap();
    let degraded = counters
        .get("pane_router_degraded_responses_total")
        .unwrap()
        .as_f64()
        .unwrap();
    assert!(degraded >= 1.0, "degraded counter did not move: {degraded}");
    let retries = counters
        .get(r#"pane_shard_retries_total{shard="1"}"#)
        .unwrap()
        .as_f64()
        .unwrap();
    assert!(retries >= 1.0, "retry counter did not move: {retries}");
    assert!(
        counters
            .get(r#"pane_shard_down_transitions_total{shard="1"}"#)
            .unwrap()
            .as_f64()
            .unwrap()
            >= 1.0
    );

    drop(router);
    daemons.remove(DEAD);
    for d in &mut daemons {
        d.stop();
    }
    std::fs::remove_dir_all(&root).ok();
}

/// Chaos e2e (PR 9): the open-loop load generator drives the router
/// while one shard daemon dies mid-run. Every scheduled request must
/// resolve — ok (possibly `"degraded":true`) or a recorded error, never
/// a hang — responses must keep echoing their request's op (no protocol
/// desync across the unknown-outcome window), and the router must still
/// answer over the survivors and re-admit the shard when it returns.
#[test]
fn open_loop_chaos_shard_death_mid_run_degrades_without_desync() {
    const N: usize = 90;
    const SHARDS: usize = 2;
    const DEAD: usize = 1;
    let emb = fixture(N);
    let half_dim = emb.forward.cols();
    let root = tmp_root("chaos");
    ShardedStore::init(&root, &emb, &IndexSpec::Flat, &IndexSpec::Flat, SHARDS, 1).unwrap();
    let mut daemons: Vec<ShardDaemon> = (0..SHARDS)
        .map(|s| start_daemon(&shard_dir(&root, s), None))
        .collect();
    let addrs: Vec<String> = daemons.iter().map(|d| d.addr.to_string()).collect();
    // A tight request timeout: a connection stuck on a dying daemon
    // resolves in 0.5 s, not the default 5 s — this test measures
    // degradation behavior, not timeout patience.
    let router = Arc::new(
        Router::connect(
            &addrs,
            ClientConfig {
                request_timeout: Duration::from_millis(500),
                ..client_config()
            },
        )
        .unwrap(),
    );

    let wl = WorkloadConfig {
        mix: Mix {
            similar: 70,
            links: 10,
            insert: 20,
        },
        skew: Skew::Zipf(1.1),
        batch: BatchSpec { min: 1, max: 3 },
        k: 5,
        seed: 777,
    };
    // 400 requests at 800 qps: the schedule spans ≥ 500 ms of wall
    // clock, so a kill at 150 ms lands squarely mid-run.
    let requests = generate_requests(&wl, N, half_dim, 400);
    let plan = RunPlan {
        qps: 800.0,
        connections: 4,
    };
    let handler = Arc::clone(&router);
    let connect =
        move || Ok(Box::new(HandlerEndpoint::new(Arc::clone(&handler))) as Box<dyn Endpoint>);
    let mut dead = daemons.pop().expect("shard DEAD is the last daemon");
    let dead_addr = dead.addr;
    let (report, _) = std::thread::scope(|s| {
        let killer = s.spawn(move || {
            std::thread::sleep(Duration::from_millis(150));
            dead.stop();
        });
        let report = run(&plan, &requests, &connect).unwrap();
        (report, killer.join().unwrap())
    });
    // Every scheduled request resolved, and none took anywhere near a
    // hang: the whole chaotic run is bounded.
    assert_eq!(report.sent, 400);
    assert!(
        report.wall < Duration::from_secs(30),
        "chaotic run must not hang: {:?}",
        report.wall
    );
    for o in &report.outcomes {
        assert!(
            o.ok || o.error.is_some(),
            "request {} vanished without ok or error",
            o.index
        );
        if o.ok {
            // No protocol desync: an ok response always answers the op
            // that was asked, even right after unknown-outcome inserts.
            assert_eq!(
                o.resp_op.as_deref(),
                Some(o.op.wire_name()),
                "request {} got an answer for a different op",
                o.index
            );
        }
    }
    assert!(report.ok > 0, "the healthy window must have succeeded");
    assert!(
        report.degraded + report.errors > 0,
        "killing a shard mid-run must surface as degradation or errors"
    );

    // The router still answers over the survivors: reads degrade, and
    // every returned hit is owned by a surviving shard.
    let st = ask(&router, r#"{"op":"stats"}"#);
    assert_eq!(st.get("ok"), Some(&Json::Bool(true)), "{st:?}");
    assert_eq!(st.get("degraded"), Some(&Json::Bool(true)));
    assert_eq!(
        st.get("shards_down").unwrap().as_index_array(),
        Some(vec![DEAD])
    );
    let resp = ask(&router, r#"{"op":"similar-nodes","nodes":[0,2,4],"k":5}"#);
    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp:?}");
    assert_eq!(resp.get("degraded"), Some(&Json::Bool(true)));
    for batch in results_of(&resp) {
        assert!(!batch.is_empty(), "survivor-owned queries must answer");
        for (node, _) in batch {
            assert_ne!(
                shard_of(node, SHARDS),
                DEAD,
                "a hit owned by the dead shard appeared in degraded results"
            );
        }
    }
    // The shard returns on its old address and is re-admitted.
    let mut revived = start_daemon(&shard_dir(&root, DEAD), Some(dead_addr));
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let st = ask(&router, r#"{"op":"stats"}"#);
        if st.get("degraded") == Some(&Json::Bool(false)) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "router did not re-admit the revived shard: {st:?}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    let resp = ask(&router, r#"{"op":"similar-nodes","nodes":[0,2,4],"k":5}"#);
    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp:?}");
    assert_eq!(resp.get("degraded"), Some(&Json::Bool(false)));
    drop(router);
    revived.stop();
    for d in &mut daemons {
        d.stop();
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn inserts_stats_and_snapshot_work_through_a_routed_tcp_session() {
    const N: usize = 60;
    const SHARDS: usize = 2;
    let emb = fixture(N);
    let half_dim = emb.forward.cols();
    let root = tmp_root("write");
    ShardedStore::init(&root, &emb, &IndexSpec::Flat, &IndexSpec::Flat, SHARDS, 1).unwrap();
    let mut daemons: Vec<ShardDaemon> = (0..SHARDS)
        .map(|s| start_daemon(&shard_dir(&root, s), None))
        .collect();
    let addrs: Vec<String> = daemons.iter().map(|d| d.addr.to_string()).collect();

    // The full stack: the router itself served over TCP.
    let router = Router::connect(&addrs, client_config()).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let router_addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || serve_tcp(Arc::new(router), listener).unwrap());

    let conn = TcpStream::connect(router_addr).unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    let mut ask = |line: &str| -> Json {
        let mut w = &conn;
        w.write_all(line.as_bytes()).unwrap();
        w.write_all(b"\n").unwrap();
        let mut out = String::new();
        reader.read_line(&mut out).unwrap();
        pane_serve::parse(&out).unwrap()
    };

    // Two inserts land on alternating owners and get global ids.
    let half: Vec<String> = (0..half_dim).map(|i| format!("0.{}", i + 1)).collect();
    let vec_json = format!("[{}]", half.join(","));
    for i in 0..2 {
        let resp = ask(&format!(
            r#"{{"op":"insert","forward":{vec_json},"backward":{vec_json}}}"#
        ));
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp:?}");
        assert_eq!(resp.get("id").unwrap().as_index(), Some(N + i));
        assert_eq!(
            resp.get("shard").unwrap().as_index(),
            Some((N + i) % SHARDS)
        );
    }

    let st = ask(r#"{"op":"stats"}"#);
    assert_eq!(st.get("router"), Some(&Json::Bool(true)));
    assert_eq!(st.get("nodes").unwrap().as_index(), Some(N + 2));
    assert_eq!(st.get("shards").unwrap().as_index(), Some(SHARDS));
    assert_eq!(st.get("degraded"), Some(&Json::Bool(false)));

    // The two identical inserted rows are each other's nearest
    // neighbors, across shard daemons.
    let sim = ask(&format!(
        r#"{{"op":"similar-nodes","nodes":[{},{}],"k":1}}"#,
        N,
        N + 1
    ));
    let got = results_of(&sim);
    assert_eq!(got[0][0].0, N + 1);
    assert_eq!(got[1][0].0, N);

    // Snapshot commits a new generation in every shard.
    let snap = ask(r#"{"op":"snapshot"}"#);
    assert_eq!(snap.get("ok"), Some(&Json::Bool(true)), "{snap:?}");
    assert_eq!(snap.get("generation").unwrap().as_index(), Some(2));
    assert_eq!(snap.get("folded").unwrap().as_index(), Some(2));

    let bye = ask(r#"{"op":"shutdown"}"#);
    assert_eq!(bye.get("ok"), Some(&Json::Bool(true)));
    drop(conn);
    server.join().unwrap();
    for d in &mut daemons {
        d.stop();
    }

    // Durability: the snapshot survives a full fleet restart.
    let eng = ShardedEngine::open(&root, 1).unwrap();
    let status = eng.status();
    assert_eq!(status.nodes, N + 2);
    let store = status.store.unwrap();
    assert_eq!((store.generation, store.wal_records), (2, 0));
    std::fs::remove_dir_all(&root).ok();
}
