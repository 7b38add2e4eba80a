//! Serve path: request line in → response line out, through the same
//! `ObservedHandler` a `pane serve` daemon runs (the socket layer in
//! front of it is out of scope here).

use crate::driver::{closed_loop, Phase};
use crate::setup::{Inputs, K};
use crate::workloads::{CALLERS, EXACT_SAMPLES, SERVE_THREADS};
use crate::{Ctx, Res, Run};
use pane::pane_core::{EmbeddingQuery, PaneEmbedding, QueryBackend, Scored};
use pane::pane_index::IndexSpec;
use pane::pane_obs::Tracer;
use pane::pane_serve::{
    parse, Json, LineHandler, ObservedHandler, ServeBackend, ServeEngine, ServeError, ServeObs,
    ShardedEngine,
};
use pane_loadgen::{OpKind, Request};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The two engines behind one `open`, so every phase is written once.
pub trait Backend: ServeBackend + Sized + 'static {
    fn open(dir: &Path) -> Result<Self, ServeError>;
}

impl Backend for ServeEngine {
    fn open(dir: &Path) -> Result<Self, ServeError> {
        ServeEngine::open(dir, SERVE_THREADS)
    }
}

impl Backend for ShardedEngine {
    fn open(dir: &Path) -> Result<Self, ServeError> {
        ShardedEngine::open(dir, SERVE_THREADS)
    }
}

fn copy_tree(from: &Path, to: &Path) -> Res<()> {
    std::fs::create_dir_all(to).ctx("create store copy")?;
    for e in std::fs::read_dir(from).ctx("read store")? {
        let e = e.ctx("read store")?;
        let dst = to.join(e.file_name());
        if e.path().is_dir() {
            copy_tree(&e.path(), &dst)?;
        } else {
            std::fs::copy(e.path(), &dst).ctx("copy artifact")?;
        }
    }
    Ok(())
}

/// A fresh copy of the pristine store under `name`, replacing any
/// earlier copy: every serve pass of the traced run starts from the same
/// bytes (the untraced run's cycles serve the store they just built).
pub fn restore(run: &Run, pristine: &Path, name: &str) -> Res<PathBuf> {
    let dir = run.work.join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).ctx("remove used store")?;
    }
    copy_tree(pristine, &dir)?;
    Ok(dir)
}

pub fn open_handler<B: Backend>(dir: &Path) -> Res<ObservedHandler<B>> {
    let engine = B::open(dir).ctx("open engine")?;
    let obs = Arc::new(ServeObs::new(Tracer::disabled()));
    Ok(ObservedHandler::new(engine, obs))
}

/// Fails the run when any request of `phase` failed.
pub fn all_ok(what: &str, phase: &Phase) -> Res<()> {
    if phase.failed > 0 {
        return Err(format!(
            "{what}: {} of {} replies were not ok:true with the request's op",
            phase.failed, phase.attempted
        ));
    }
    Ok(())
}

pub fn inserts(reqs: &[Request]) -> usize {
    reqs.iter().filter(|r| r.op == OpKind::Insert).count()
}

/// The query node of a single-node request line.
pub fn request_nodes(line: &str) -> Res<Vec<usize>> {
    parse(line)
        .ctx("parse request")?
        .get("nodes")
        .and_then(Json::as_index_array)
        .ok_or_else(|| format!("request without nodes: {line}"))
}

/// The first result list of a query reply, as (node, score) pairs.
fn reply_hits(reply: &str) -> Res<Vec<(usize, f64)>> {
    let json = parse(reply).ctx("parse reply")?;
    let bad = || format!("malformed reply: {reply}");
    let Some(Json::Arr(lists)) = json.get("results") else {
        return Err(bad());
    };
    let Some(Json::Arr(hits)) = lists.first() else {
        return Err(bad());
    };
    hits.iter()
        .map(|h| {
            let node = h.get("node").and_then(Json::as_index).ok_or_else(bad)?;
            let score = h.get("score").and_then(Json::as_f64).ok_or_else(bad)?;
            Ok((node, score))
        })
        .collect()
}

/// Sends the fixed recall queries and returns recall@10 of the served
/// answers against the exact scan. Where the serving index is Flat, the
/// first `EXACT_SAMPLES` answers of that space must equal
/// `EmbeddingQuery`'s exact scan bit for bit.
pub fn check_answers<H: LineHandler>(
    h: &H,
    run: &Run,
    inp: &Inputs,
    emb: &PaneEmbedding,
) -> Res<f64> {
    let flat = EmbeddingQuery::with_backend(emb, &QueryBackend::Flat);
    let exact = EmbeddingQuery::new(emb);
    let (mut found, mut wanted) = (0usize, 0usize);
    let (mut similar_seen, mut links_seen) = (0usize, 0usize);
    for req in &inp.recall {
        let node = request_nodes(&req.line)?[0];
        let (reply, _) = h.handle(&req.line);
        let served = reply_hits(&reply)?;
        let similar = req.op == OpKind::SimilarNodes;
        let scan = |q: &EmbeddingQuery| -> Vec<Scored> {
            if similar {
                q.similar_nodes(node, K)
            } else {
                q.recommend_links(node, K, &[])
            }
        };
        let (spec, seen) = if similar {
            (run.wl.node_spec, &mut similar_seen)
        } else {
            (run.wl.link_spec, &mut links_seen)
        };
        let truth = scan(&flat);
        wanted += truth.len();
        found += truth
            .iter()
            .filter(|t| served.iter().any(|s| s.0 == t.index))
            .count();
        *seen += 1;
        if spec == IndexSpec::Flat && *seen <= EXACT_SAMPLES {
            let want: Vec<(usize, u64)> = scan(&exact)
                .iter()
                .map(|s| (s.index, s.score.to_bits()))
                .collect();
            let got: Vec<(usize, u64)> = served.iter().map(|s| (s.0, s.1.to_bits())).collect();
            if want != got {
                return Err(format!(
                    "{} answer for node {node} differs from the exact scan",
                    req.op.wire_name()
                ));
            }
        }
    }
    Ok(found as f64 / wanted as f64)
}

/// Open-loop latencies of the read ops, ms from due time to reply.
pub fn read_latencies_ms(phase: &Phase) -> Vec<f64> {
    phase
        .samples
        .iter()
        .filter(|s| s.op != OpKind::Insert)
        .map(|s| (s.done - s.due) * 1e3)
        .collect()
}

/// Share of the attempted requests of an open-loop phase, inserts
/// included, answered ok within `slo_ms` of their due time.
pub fn slo_share(phase: &Phase, slo_ms: f64) -> f64 {
    let within = phase
        .samples
        .iter()
        .filter(|s| s.ok && (s.done - s.due) * 1e3 <= slo_ms)
        .count();
    within as f64 / phase.attempted as f64
}

/// After a pass with inserts: commit a snapshot, reopen, and require the
/// reopened store to hold the base rows plus every acknowledged insert.
pub fn snapshot_and_check<B: Backend>(run: &Run, dir: &Path, acked: usize) -> Res<f64> {
    let h = open_handler::<B>(dir)?;
    let started = Instant::now();
    let (reply, _) = h.handle(r#"{"op":"snapshot"}"#);
    let secs = started.elapsed().as_secs_f64();
    if !reply.starts_with(r#"{"ok":true,"op":"snapshot""#) {
        return Err(format!("snapshot failed: {reply}"));
    }
    drop(h);
    let status = B::open(dir).ctx("reopen after snapshot")?.status();
    let store = status.store.ok_or("reopened engine has no store")?;
    if status.nodes != run.wl.nodes + acked || store.wal_records != 0 {
        return Err(format!(
            "reopened store holds {} rows and {} WAL records; expected {} + {acked} rows and an empty WAL",
            status.nodes, store.wal_records, run.wl.nodes
        ));
    }
    Ok(secs)
}

/// Sends the read-only warm stream from two callers before a closed loop
/// is timed, whatever that loop's own callers: after a stretch with at most
/// one busy core, the next stretch of load ran at up to half speed on the
/// virtual machines this runs on, and a one-caller loop after one-caller
/// load ran at anything from 400 to 600 requests/s where after two-caller
/// load it ran at 560 to 620. Reads leave the store as it was, so the timed
/// phase still starts from the same state.
pub fn warm_up<H: LineHandler>(h: &H, inp: &Inputs) -> Res<()> {
    all_ok("warm-up", &closed_loop(h, &inp.warm, CALLERS, false))
}
