//! Request dispatch and the two transports (stdio JSON-lines, TCP).
//!
//! The engine — any [`ServeBackend`]: a single [`crate::ServeEngine`] or
//! a [`crate::ShardedEngine`] — sits behind an `RwLock`: searches take
//! the read lock (and run concurrently across connections), `insert` /
//! `compact` / `snapshot` take the write lock. Each TCP connection gets
//! its own thread; a `shutdown` request answers, then stops the accept
//! loop, so a scripted client (or the CI smoke step) can tear the daemon
//! down cleanly.
//!
//! Both transports are generic over [`LineHandler`], so the same accept
//! loop and bounded line reader also run the `pane route` query router
//! ([`crate::Router`]), which is not an engine behind a lock.
//!
//! Request lines are read through a **bounded** reader: a line longer
//! than [`MAX_LINE_BYTES`] is answered with a structured
//! `{"ok":false,…}` error and the connection is dropped, so a client
//! streaming bytes without a newline cannot grow daemon memory without
//! bound.

use crate::engine::{Hit, ServeBackend, ServeError, StatusReport};
use crate::obs::ServeObs;
use crate::protocol::{parse, Json};
use pane_core::QuerySpace;
use pane_linalg::DenseMatrix;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

/// Cap on one request (or proxied response) line. A line that exceeds it
/// is answered with a structured error and the connection is dropped —
/// large batches fit comfortably, hostile streams do not.
pub const MAX_LINE_BYTES: usize = 16 << 20;

fn read_engine<B: ServeBackend>(engine: &RwLock<B>) -> RwLockReadGuard<'_, B> {
    engine.read().unwrap_or_else(|e| e.into_inner())
}

fn write_engine<B: ServeBackend>(engine: &RwLock<B>) -> RwLockWriteGuard<'_, B> {
    engine.write().unwrap_or_else(|e| e.into_inner())
}

/// One `[{"<id_key>":id,"score":s},…]` array per query, in request order:
/// `node` hits of the node reads, `attribute` hits of `top-attributes`.
pub(crate) fn hits_json<H: Into<Hit>>(id_key: &str, batched: Vec<Vec<H>>) -> Json {
    Json::Arr(
        batched
            .into_iter()
            .map(|hits| {
                Json::Arr(
                    hits.into_iter()
                        .map(|h| {
                            let h: Hit = h.into();
                            Json::obj(vec![
                                (id_key, Json::num(h.node)),
                                ("score", Json::Num(h.score)),
                            ])
                        })
                        .collect(),
                )
            })
            .collect(),
    )
}

fn status_json(s: &StatusReport) -> Vec<(&'static str, Json)> {
    let idx = |s: crate::engine::IndexStats| {
        Json::obj(vec![
            ("kind", Json::str(s.kind)),
            ("base", Json::num(s.base)),
            ("delta", Json::num(s.delta)),
        ])
    };
    let mut fields = vec![
        ("nodes", Json::num(s.nodes)),
        ("half_dim", Json::num(s.half_dim)),
        ("threads", Json::num(s.threads)),
        ("node_index", idx(s.node_index)),
        ("link_index", idx(s.link_index)),
    ];
    if let Some(store) = &s.store {
        fields.push((
            "store",
            Json::obj(vec![
                ("generation", Json::num(store.generation as usize)),
                ("wal_records", Json::num(store.wal_records)),
                ("wal_bytes", Json::num(store.wal_bytes as usize)),
                ("replayed", Json::num(store.replayed)),
                ("artifact_bytes", Json::num(store.artifact_bytes as usize)),
            ]),
        ));
    }
    if let Some(shards) = s.shards {
        fields.push(("shards", Json::num(shards)));
    }
    fields.push((
        "score_scale",
        Json::str("similar-nodes: cos_f + cos_b in [-2,2]; recommend-links: Eq. 22 inner product"),
    ));
    fields
}

pub(crate) fn error_line(message: &str) -> String {
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        ("error", Json::str(message)),
    ])
    .to_line()
}

fn require_index_array(req: &Json, key: &str) -> Result<Vec<usize>, ServeError> {
    req.get(key)
        .and_then(Json::as_index_array)
        .ok_or_else(|| ServeError::BadRequest(format!("'{key}' must be an array of node ids")))
}

fn optional_index(req: &Json, key: &str, default: usize) -> Result<usize, ServeError> {
    match req.get(key) {
        None => Ok(default),
        Some(v) => v.as_index().ok_or_else(|| {
            ServeError::BadRequest(format!("'{key}' must be a non-negative integer"))
        }),
    }
}

/// The `nodes` and `k` (default 10) fields of a read op. Decoding — the
/// defaults and every error text — is the same for a daemon and the
/// router; the node ids are checked against the served id space by
/// `check_nodes` where the read runs.
pub(crate) fn nodes_and_k(req: &Json) -> Result<(Vec<usize>, usize), ServeError> {
    Ok((
        require_index_array(req, "nodes")?,
        optional_index(req, "k", 10)?,
    ))
}

/// A decoded `similar-nodes` / `recommend-links` request.
pub(crate) struct ReadRequest {
    pub(crate) space: QuerySpace,
    pub(crate) nodes: Vec<usize>,
    pub(crate) k: usize,
    pub(crate) exclude: Vec<usize>,
}

impl ReadRequest {
    /// Decodes the fields of read op `op` (one of the two names above).
    pub(crate) fn decode(op: &str, req: &Json) -> Result<Self, ServeError> {
        let space = match op {
            "similar-nodes" => QuerySpace::Similar,
            _ => QuerySpace::Links,
        };
        let (nodes, k) = nodes_and_k(req)?;
        let exclude = match (space, req.get("exclude")) {
            (QuerySpace::Links, Some(_)) => require_index_array(req, "exclude")?,
            _ => Vec::new(),
        };
        Ok(Self {
            space,
            nodes,
            k,
            exclude,
        })
    }
}

fn require_f64_array(req: &Json, key: &str) -> Result<Vec<f64>, ServeError> {
    req.get(key)
        .and_then(Json::as_f64_array)
        .ok_or_else(|| ServeError::BadRequest(format!("'{key}' must be an array of numbers")))
}

fn require_space(req: &Json) -> Result<QuerySpace, ServeError> {
    let s = req
        .get("space")
        .and_then(Json::as_str)
        .ok_or_else(|| ServeError::BadRequest("request needs a string 'space' field".into()))?;
    QuerySpace::parse(s)
        .ok_or_else(|| ServeError::BadRequest(format!("unknown space '{s}' (similar | links)")))
}

fn require_f64_matrix(req: &Json, key: &str) -> Result<DenseMatrix, ServeError> {
    let rows = match req.get(key) {
        Some(Json::Arr(rows)) => rows,
        _ => {
            return Err(ServeError::BadRequest(format!(
                "'{key}' must be an array of number arrays"
            )))
        }
    };
    let mut data = Vec::with_capacity(rows.len());
    for row in rows {
        data.push(row.as_f64_array().ok_or_else(|| {
            ServeError::BadRequest(format!("'{key}' must be an array of number arrays"))
        })?);
    }
    let cols = data.first().map_or(0, Vec::len);
    if data.iter().any(|r| r.len() != cols) {
        return Err(ServeError::BadRequest(format!(
            "'{key}' rows must all have the same length"
        )));
    }
    Ok(DenseMatrix::from_rows(&data))
}

/// Batch size of a request, when it has one: the length of its `nodes`
/// or `queries` array (what the batch-size histograms record).
pub(crate) fn batch_size(req: &Json) -> Option<usize> {
    for key in ["nodes", "queries"] {
        if let Some(Json::Arr(a)) = req.get(key) {
            return Some(a.len());
        }
    }
    None
}

fn dispatch<B: ServeBackend>(
    engine: &RwLock<B>,
    op: &str,
    req: &Json,
    obs: Option<&ServeObs>,
) -> Result<(Json, bool), ServeError> {
    let ok = |mut fields: Vec<(&str, Json)>| {
        let mut pairs = vec![("ok", Json::Bool(true)), ("op", Json::str(op))];
        pairs.append(&mut fields);
        Json::obj(pairs)
    };
    match op {
        "similar-nodes" | "recommend-links" => {
            let read = ReadRequest::decode(op, req)?;
            // The read lock covers the search only, not rendering the reply.
            let results = {
                let engine = read_engine(engine);
                match read.space {
                    QuerySpace::Similar => engine.similar_nodes(&read.nodes, read.k),
                    QuerySpace::Links => engine.recommend_links(&read.nodes, read.k, &read.exclude),
                }
            }?;
            Ok((ok(vec![("results", hits_json("node", results))]), false))
        }
        "top-attributes" => {
            let (nodes, k) = nodes_and_k(req)?;
            let results = read_engine(engine).top_attributes(&nodes, k)?;
            Ok((
                ok(vec![("results", hits_json("attribute", results))]),
                false,
            ))
        }
        "insert" => {
            let forward = require_f64_array(req, "forward")?;
            let backward = require_f64_array(req, "backward")?;
            let id = write_engine(engine).insert(&forward, &backward)?;
            Ok((ok(vec![("id", Json::num(id))]), false))
        }
        "compact" => {
            let mut g = write_engine(engine);
            let folded = g.compact();
            let nodes = g.status().nodes;
            Ok((
                ok(vec![
                    ("folded", Json::num(folded)),
                    ("nodes", Json::num(nodes)),
                ]),
                false,
            ))
        }
        "snapshot" => {
            let mut g = write_engine(engine);
            let out = g.snapshot()?;
            let nodes = g.status().nodes;
            Ok((
                ok(vec![
                    ("generation", Json::num(out.generation as usize)),
                    ("folded", Json::num(out.folded)),
                    ("nodes", Json::num(nodes)),
                ]),
                false,
            ))
        }
        "query-vectors" => {
            let space = require_space(req)?;
            let nodes = require_index_array(req, "nodes")?;
            let vectors = read_engine(engine).query_vectors(space, &nodes)?;
            let rows = (0..vectors.rows())
                .map(|i| Json::Arr(vectors.row(i).iter().copied().map(Json::Num).collect()))
                .collect();
            Ok((ok(vec![("vectors", Json::Arr(rows))]), false))
        }
        "search" => {
            let space = require_space(req)?;
            let fetch = optional_index(req, "k", 10)?;
            let queries = require_f64_matrix(req, "queries")?;
            let results = read_engine(engine).search_raw(space, &queries, fetch)?;
            Ok((ok(vec![("results", hits_json("node", results))]), false))
        }
        "stats" => {
            let status = read_engine(engine).status();
            let mut fields = status_json(&status);
            if let Some(obs) = obs {
                fields.push(("uptime_secs", Json::num(obs.uptime_secs() as usize)));
                fields.push(("requests_total", Json::num(obs.requests_total() as usize)));
            }
            Ok((ok(fields), false))
        }
        "metrics" => {
            let Some(obs) = obs else {
                return Err(ServeError::BadRequest(
                    "this endpoint serves no metrics (observability is not attached)".into(),
                ));
            };
            Ok((ok(metrics_fields(obs)), false))
        }
        "shutdown" => Ok((ok(vec![]), true)),
        other => Err(ServeError::BadRequest(format!(
            "unknown op '{other}' (similar-nodes | recommend-links | top-attributes | insert | \
             compact | snapshot | stats | metrics | query-vectors | search | shutdown)"
        ))),
    }
}

/// The shared body of a `metrics` response (daemon and router): uptime,
/// total requests, the JSON metrics object (counters / gauges /
/// histogram percentiles), and the Prometheus-style text exposition.
pub(crate) fn metrics_fields(obs: &ServeObs) -> Vec<(&'static str, Json)> {
    let metrics = parse(&obs.registry().render_json())
        .expect("render_json stays inside the wire's JSON subset");
    vec![
        ("uptime_secs", Json::num(obs.uptime_secs() as usize)),
        ("requests_total", Json::num(obs.requests_total() as usize)),
        ("metrics", metrics),
        ("text", Json::str(&obs.registry().render_text())),
    ]
}

/// Answers one request line through `dispatch(op, request)`: the one
/// `parse → op → dispatch → record` skeleton under every endpoint (bare
/// engine, observed engine, router). Never panics on malformed input —
/// every failure is an `{"ok":false,…}` line — and with `obs` the request
/// is timed and recorded under its op (`unknown` when it names none).
pub(crate) fn answer<E: std::fmt::Display>(
    line: &str,
    obs: Option<&ServeObs>,
    dispatch: impl FnOnce(&str, &Json) -> Result<(Json, bool), E>,
) -> (String, bool) {
    let timed = obs.map(|obs| (obs, Instant::now()));
    let req = parse(line);
    let op = req
        .as_ref()
        .ok()
        .and_then(|req| req.get("op"))
        .and_then(Json::as_str);
    let out = match (&req, op) {
        (Err(e), _) => Err(e.to_string()),
        (Ok(_), None) => {
            Err(ServeError::BadRequest("request needs a string 'op' field".into()).to_string())
        }
        (Ok(req), Some(op)) => dispatch(op, req).map_err(|e| e.to_string()),
    };
    let ok = out.is_ok();
    let reply = match out {
        Ok((resp, shutdown)) => (resp.to_line(), shutdown),
        Err(e) => (error_line(&e), false),
    };
    if let Some((obs, started)) = timed {
        let batch = req.as_ref().ok().and_then(batch_size);
        obs.record(op.unwrap_or("unknown"), ok, batch, started.elapsed());
    }
    reply
}

/// Handles one request line against a bare engine, returning the response
/// line and whether the daemon should shut down. Never panics on malformed
/// input — every failure is an `{"ok":false,…}` response.
pub fn handle_line<B: ServeBackend>(engine: &RwLock<B>, line: &str) -> (String, bool) {
    answer(line, None, |op, req| dispatch(engine, op, req, None))
}

/// A [`ServeBackend`] behind a lock **with observability attached**: what
/// `pane serve` actually runs. Every request line is timed and recorded
/// into the shared [`ServeObs`] (per-op counters, latency and batch-size
/// histograms, the slow-query log), and the `metrics` / `stats` ops
/// answer from the same registry. [`handle_line`] over a bare `RwLock`
/// remains the uninstrumented path for embedders and tests.
pub struct ObservedHandler<B: ServeBackend> {
    engine: RwLock<B>,
    obs: Arc<ServeObs>,
}

impl<B: ServeBackend> ObservedHandler<B> {
    /// Wraps `engine`, first letting it register its own instrumentation
    /// handles (and emit its boot event) via [`ServeBackend::attach_obs`].
    pub fn new(mut engine: B, obs: Arc<ServeObs>) -> Self {
        engine.attach_obs(&obs);
        Self {
            engine: RwLock::new(engine),
            obs,
        }
    }

    /// The shared observability state.
    pub fn obs(&self) -> &Arc<ServeObs> {
        &self.obs
    }
}

impl<B: ServeBackend> LineHandler for ObservedHandler<B> {
    fn handle(&self, line: &str) -> (String, bool) {
        let obs = Some(&*self.obs);
        answer(line, obs, |op, req| dispatch(&self.engine, op, req, obs))
    }
}

/// One JSON-lines endpoint: maps a request line to a response line plus
/// a shutdown flag. An engine behind a lock is one ([`handle_line`]);
/// the query router ([`crate::Router`]) is another — both run over the
/// same transports.
pub trait LineHandler: Send + Sync {
    /// Answers one request line. Must never panic on malformed input.
    fn handle(&self, line: &str) -> (String, bool);
}

impl<B: ServeBackend> LineHandler for RwLock<B> {
    fn handle(&self, line: &str) -> (String, bool) {
        handle_line(self, line)
    }
}

/// Outcome of one bounded line read.
pub(crate) enum LineRead {
    /// Clean end of stream with no pending bytes.
    Eof,
    /// A complete line is in the buffer (newline and any `\r` stripped).
    /// An unterminated final line before EOF also lands here.
    Line,
    /// The line exceeded the cap before its newline arrived; the buffer
    /// holds at most `max` bytes and the rest of the stream is unread.
    TooLong,
}

/// Reads one `\n`-terminated line into `buf` without ever buffering more
/// than `max` bytes — the memory-safety half of the serve path: a client
/// streaming bytes with no newline gets cut off at the cap instead of
/// growing daemon memory without bound.
pub(crate) fn read_bounded_line<R: BufRead>(
    reader: &mut R,
    buf: &mut Vec<u8>,
    max: usize,
) -> std::io::Result<LineRead> {
    buf.clear();
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            return Ok(if buf.is_empty() {
                LineRead::Eof
            } else {
                LineRead::Line
            });
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if buf.len() + pos > max {
                    return Ok(LineRead::TooLong);
                }
                buf.extend_from_slice(&chunk[..pos]);
                reader.consume(pos + 1);
                if buf.last() == Some(&b'\r') {
                    buf.pop();
                }
                return Ok(LineRead::Line);
            }
            None => {
                let len = chunk.len();
                if buf.len() + len > max {
                    return Ok(LineRead::TooLong);
                }
                buf.extend_from_slice(chunk);
                reader.consume(len);
            }
        }
    }
}

/// Serves JSON-lines request/response over any reader/writer pair (the
/// `--stdio` transport; also what each TCP connection runs). Blank lines
/// are ignored. Returns `Ok(true)` if a `shutdown` request ended the
/// session, `Ok(false)` on EOF. A request line over [`MAX_LINE_BYTES`]
/// is answered with a structured error, then the session ends (the TCP
/// transport drops the connection).
pub fn serve_lines<H: LineHandler + ?Sized, R: BufRead, W: Write>(
    handler: &H,
    mut reader: R,
    mut writer: W,
) -> std::io::Result<bool> {
    let mut buf = Vec::new();
    let respond = |writer: &mut W, resp: &str| -> std::io::Result<()> {
        writer.write_all(resp.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()
    };
    loop {
        match read_bounded_line(&mut reader, &mut buf, MAX_LINE_BYTES)? {
            LineRead::Eof => return Ok(false),
            LineRead::TooLong => {
                let resp = error_line(&format!(
                    "request line exceeds {MAX_LINE_BYTES} bytes; closing connection"
                ));
                respond(&mut writer, &resp)?;
                return Ok(false);
            }
            LineRead::Line => {}
        }
        let line = match std::str::from_utf8(&buf) {
            Ok(s) => s,
            Err(_) => {
                let resp = error_line("request line is not valid UTF-8");
                respond(&mut writer, &resp)?;
                continue;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let (resp, shutdown) = handler.handle(line);
        respond(&mut writer, &resp)?;
        if shutdown {
            return Ok(true);
        }
    }
}

/// Whether an `accept` error is worth retrying. Resource exhaustion
/// (fd limits, socket buffers, memory) and per-connection network errors
/// Linux surfaces through `accept` clear up on their own; anything else
/// (`EBADF`, `EINVAL`, …) means the listener itself is broken and the
/// loop must exit instead of spinning on it forever.
fn is_transient_accept_error(e: &std::io::Error) -> bool {
    use std::io::ErrorKind;
    if matches!(
        e.kind(),
        ErrorKind::ConnectionReset
            | ErrorKind::ConnectionAborted
            | ErrorKind::Interrupted
            | ErrorKind::TimedOut
            | ErrorKind::WouldBlock
    ) {
        return true;
    }
    // EMFILE(24) | ENFILE(23) | ENOBUFS(105) | ENOMEM(12)
    matches!(e.raw_os_error(), Some(24) | Some(23) | Some(105) | Some(12))
}

/// Serves a [`LineHandler`] over TCP: one thread per connection, shared
/// state behind the handler. Returns `Ok(())` once a client issues
/// `shutdown` (its response is sent first) and all connection threads
/// have drained — connections still open at shutdown are closed
/// server-side, so an idle client cannot keep the daemon alive. A fatal
/// `accept` error (listener closed, bad fd) drains connections and
/// returns it; transient errors (fd exhaustion, aborted handshakes) back
/// off 50 ms and continue.
pub fn serve_tcp<H: LineHandler + 'static>(
    handler: Arc<H>,
    listener: TcpListener,
) -> std::io::Result<()> {
    let stop = Arc::new(AtomicBool::new(false));
    let addr = listener.local_addr()?;
    // One (worker, socket-clone) pair per *live* connection: finished
    // entries are reaped every accept so the vector stays bounded, and
    // the clones let shutdown sever connections blocked in a read.
    let mut conns: Vec<(std::thread::JoinHandle<()>, TcpStream)> = Vec::new();
    let mut fatal = None;
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        conns.retain(|(h, _)| !h.is_finished());
        let stream = match stream {
            Ok(s) => s,
            Err(e) if is_transient_accept_error(&e) => {
                std::thread::sleep(std::time::Duration::from_millis(50));
                continue;
            }
            Err(e) => {
                fatal = Some(e);
                break;
            }
        };
        // Responses are small two-part writes (payload, then newline);
        // without TCP_NODELAY the newline sits in Nagle's buffer waiting
        // on the client's delayed ACK — tens of milliseconds added to
        // every request-response roundtrip.
        let _ = stream.set_nodelay(true);
        let Ok(watch) = stream.try_clone() else {
            continue;
        };
        let handler = Arc::clone(&handler);
        let stop = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let Ok(read_half) = stream.try_clone() else {
                return;
            };
            let shutdown =
                serve_lines(&*handler, BufReader::new(read_half), &stream).unwrap_or(false);
            if shutdown {
                stop.store(true, Ordering::SeqCst);
                // Unblock the accept loop so it can observe the flag.
                let _ = TcpStream::connect(addr);
            }
        });
        conns.push((handle, watch));
    }
    for (handle, watch) in conns {
        // Sever any connection still parked in a blocking read; its
        // worker then sees EOF and exits, so the join cannot hang.
        let _ = watch.shutdown(std::net::Shutdown::Both);
        let _ = handle.join();
    }
    match fatal {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ServeEngine;
    use crate::testutil::{store_engine, TempDir};
    use pane_core::{Pane, PaneConfig};
    use pane_graph::gen::{generate_sbm, SbmConfig};
    use pane_index::IndexSpec;

    fn engine() -> (RwLock<ServeEngine>, TempDir) {
        let g = generate_sbm(&SbmConfig {
            nodes: 90,
            communities: 3,
            avg_out_degree: 5.0,
            attributes: 12,
            attrs_per_node: 3.0,
            seed: 21,
            ..Default::default()
        });
        let emb = Pane::new(PaneConfig::builder().dimension(8).seed(3).build())
            .embed(&g)
            .unwrap();
        let (engine, dir) = store_engine(&emb, &IndexSpec::Flat, 2);
        (RwLock::new(engine), dir)
    }

    fn req(engine: &RwLock<ServeEngine>, line: &str) -> Json {
        let (resp, _) = handle_line(engine, line);
        parse(&resp).unwrap()
    }

    #[test]
    fn full_session_over_in_memory_stdio() {
        let (eng, _dir) = engine();
        let k2 = read_engine(&eng).half_dim();
        let half: Vec<String> = (0..k2).map(|i| format!("0.{}", i + 1)).collect();
        let vec_json = format!("[{}]", half.join(","));
        let insert = format!(r#"{{"op":"insert","forward":{vec_json},"backward":{vec_json}}}"#);
        let input = format!(
            "{}\n\n{}\n{}\n{}\n{}\n",
            r#"{"op":"similar-nodes","nodes":[0,1],"k":3}"#,
            r#"{"op":"recommend-links","nodes":[2],"k":2,"exclude":[0]}"#,
            insert,
            r#"{"op":"stats"}"#,
            r#"{"op":"shutdown"}"#,
        );
        let mut out = Vec::new();
        let ended = serve_lines(&eng, input.as_bytes(), &mut out).unwrap();
        assert!(ended, "shutdown must end the session");
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 5);
        for l in &lines {
            assert_eq!(parse(l).unwrap().get("ok"), Some(&Json::Bool(true)), "{l}");
        }
        let sim = parse(lines[0]).unwrap();
        let results = match sim.get("results") {
            Some(Json::Arr(r)) => r.clone(),
            other => panic!("bad results: {other:?}"),
        };
        assert_eq!(results.len(), 2);
        let insert = parse(lines[2]).unwrap();
        assert_eq!(insert.get("id").unwrap().as_index(), Some(90));
        let stats = parse(lines[3]).unwrap();
        assert_eq!(stats.get("nodes").unwrap().as_index(), Some(91));
        assert_eq!(
            stats
                .get("node_index")
                .unwrap()
                .get("delta")
                .unwrap()
                .as_index(),
            Some(1)
        );
        // The insert was logged before it was acknowledged.
        let store = stats.get("store").expect("store block present");
        assert_eq!(store.get("wal_records").unwrap().as_index(), Some(1));
    }

    #[test]
    fn malformed_and_unknown_requests_are_ok_false() {
        let (eng, _dir) = engine();
        for bad in [
            "not json",
            r#"{"nodes":[0]}"#,
            r#"{"op":"explode"}"#,
            r#"{"op":"similar-nodes","nodes":[9999]}"#,
            r#"{"op":"similar-nodes","nodes":"zero"}"#,
            r#"{"op":"insert","forward":[1],"backward":[]}"#,
            r#"{"op":"top-attributes","k":3}"#,
            r#"{"op":"top-attributes","nodes":[]}"#,
            r#"{"op":"top-attributes","nodes":[0,90]}"#,
            r#"{"op":"top-attributes","nodes":[0],"k":2.5}"#,
        ] {
            let resp = req(&eng, bad);
            assert_eq!(resp.get("ok"), Some(&Json::Bool(false)), "{bad}");
            assert!(resp.get("error").unwrap().as_str().is_some());
        }
    }

    /// A `top-attributes` reply, parsed off the wire, carries the bits of
    /// `EmbeddingQuery::top_attributes` for every node, in request order.
    #[test]
    fn top_attributes_over_the_wire_keep_every_bit() {
        let (eng, _dir) = engine();
        let emb = read_engine(&eng).embedding().clone();
        let n = emb.forward.rows();
        let nodes: Vec<String> = (0..n).rev().map(|v| v.to_string()).collect();
        let resp = req(
            &eng,
            &format!(
                r#"{{"op":"top-attributes","nodes":[{}],"k":4}}"#,
                nodes.join(",")
            ),
        );
        assert_eq!(resp.get("op").unwrap().as_str(), Some("top-attributes"));
        let Some(Json::Arr(lists)) = resp.get("results") else {
            panic!("no results: {resp:?}");
        };
        let exact = pane_core::EmbeddingQuery::new(&emb);
        assert_eq!(lists.len(), n);
        for (list, v) in lists.iter().zip((0..n).rev()) {
            let Json::Arr(hits) = list else {
                panic!("not a list: {list:?}")
            };
            let got: Vec<(usize, u64)> = hits
                .iter()
                .map(|h| {
                    let r = h.get("attribute").unwrap().as_index().unwrap();
                    (r, h.get("score").unwrap().as_f64().unwrap().to_bits())
                })
                .collect();
            let want: Vec<(usize, u64)> = exact
                .top_attributes(v, 4)
                .iter()
                .map(|s| (s.index, s.score.to_bits()))
                .collect();
            assert_eq!(got, want, "node {v}");
        }
    }

    #[test]
    fn snapshot_over_a_store_backed_engine_reports_generation() {
        let dir = std::env::temp_dir().join(format!("pane_server_snap_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let g = generate_sbm(&SbmConfig {
            nodes: 50,
            communities: 2,
            avg_out_degree: 4.0,
            attributes: 10,
            attrs_per_node: 3.0,
            seed: 2,
            ..Default::default()
        });
        let emb = Pane::new(PaneConfig::builder().dimension(8).seed(1).build())
            .embed(&g)
            .unwrap();
        pane_store::Store::init(&dir, &emb, &IndexSpec::Flat, &IndexSpec::Flat, 1).unwrap();
        let eng = RwLock::new(ServeEngine::open(&dir, 1).unwrap());
        let vec_json = "[0.1,0.2,0.3,0.4]";
        let resp = req_any(
            &eng,
            &format!(r#"{{"op":"insert","forward":{vec_json},"backward":{vec_json}}}"#),
        );
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp:?}");
        let stats = req_any(&eng, r#"{"op":"stats"}"#);
        let store = stats.get("store").expect("store block present");
        assert_eq!(store.get("wal_records").unwrap().as_index(), Some(1));
        let snap = req_any(&eng, r#"{"op":"snapshot"}"#);
        assert_eq!(snap.get("ok"), Some(&Json::Bool(true)), "{snap:?}");
        assert_eq!(snap.get("generation").unwrap().as_index(), Some(2));
        assert_eq!(snap.get("folded").unwrap().as_index(), Some(1));
        let stats = req_any(&eng, r#"{"op":"stats"}"#);
        let store = stats.get("store").unwrap();
        assert_eq!(store.get("wal_records").unwrap().as_index(), Some(0));
        std::fs::remove_dir_all(&dir).ok();
    }

    fn req_any(engine: &RwLock<ServeEngine>, line: &str) -> Json {
        let (resp, _) = handle_line(engine, line);
        parse(&resp).unwrap()
    }

    #[test]
    fn observed_handler_serves_metrics_and_instrumented_stats() {
        use crate::obs::ServeObs;
        use pane_obs::Tracer;
        let (eng, _dir) = engine();
        let eng = eng.into_inner().unwrap();
        let handler = ObservedHandler::new(eng, Arc::new(ServeObs::new(Tracer::disabled())));
        let ask = |line: &str| {
            let (resp, _) = handler.handle(line);
            parse(&resp).unwrap()
        };
        // A bare RwLock-backed endpoint refuses the metrics op cleanly.
        let (bare, _bare_dir) = engine();
        let (resp, _) = bare.handle(r#"{"op":"metrics"}"#);
        assert_eq!(parse(&resp).unwrap().get("ok"), Some(&Json::Bool(false)));

        ask(r#"{"op":"similar-nodes","nodes":[0,1,2],"k":3}"#);
        ask(r#"{"op":"explode"}"#);
        let stats = ask(r#"{"op":"stats"}"#);
        assert_eq!(stats.get("ok"), Some(&Json::Bool(true)));
        assert!(stats.get("uptime_secs").unwrap().as_index().is_some());
        // similar-nodes + explode + this stats request itself... the
        // stats line records *after* dispatch, so the count covers the
        // two prior requests.
        assert_eq!(stats.get("requests_total").unwrap().as_index(), Some(2));

        let m = ask(r#"{"op":"metrics"}"#);
        assert_eq!(m.get("ok"), Some(&Json::Bool(true)), "{m:?}");
        assert_eq!(m.get("requests_total").unwrap().as_index(), Some(3));
        let text = m.get("text").unwrap().as_str().unwrap();
        assert!(
            text.contains(r#"pane_requests_total{op="similar-nodes"} 1"#),
            "{text}"
        );
        assert!(text.contains("pane_request_errors_total 1"));
        let counters = m.get("metrics").unwrap().get("counters").unwrap();
        assert_eq!(
            counters
                .get(r#"pane_requests_total{op="similar-nodes"}"#)
                .unwrap()
                .as_index(),
            Some(1)
        );
        // The batch-size histogram saw the 3-node batch.
        let hists = m.get("metrics").unwrap().get("histograms").unwrap();
        let batch = hists
            .get(r#"pane_request_batch_size{op="similar-nodes"}"#)
            .unwrap();
        assert_eq!(batch.get("count").unwrap().as_index(), Some(1));
    }

    #[test]
    fn store_backed_stats_report_wal_bytes() {
        let dir = std::env::temp_dir().join(format!("pane_server_walb_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let g = generate_sbm(&SbmConfig {
            nodes: 40,
            communities: 2,
            avg_out_degree: 4.0,
            attributes: 10,
            attrs_per_node: 3.0,
            seed: 6,
            ..Default::default()
        });
        let emb = Pane::new(PaneConfig::builder().dimension(8).seed(1).build())
            .embed(&g)
            .unwrap();
        pane_store::Store::init(&dir, &emb, &IndexSpec::Flat, &IndexSpec::Flat, 1).unwrap();
        let eng = RwLock::new(ServeEngine::open(&dir, 1).unwrap());
        let stats = req_any(&eng, r#"{"op":"stats"}"#);
        let store = stats.get("store").expect("store block present");
        // Empty WAL: just the 8-byte magic header.
        assert_eq!(store.get("wal_bytes").unwrap().as_index(), Some(8));
        assert!(
            store.get("artifact_bytes").unwrap().as_index().unwrap() > 0,
            "artifact bytes must be reported"
        );
        let vec_json = "[0.1,0.2,0.3,0.4]";
        req_any(
            &eng,
            &format!(r#"{{"op":"insert","forward":{vec_json},"backward":{vec_json}}}"#),
        );
        let stats = req_any(&eng, r#"{"op":"stats"}"#);
        let store = stats.get("store").unwrap();
        // magic + header + ids + 2 * 4 floats = 8 + 16 + 16 + 64.
        assert_eq!(store.get("wal_bytes").unwrap().as_index(), Some(104));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn oversized_request_line_is_refused_and_session_ends() {
        let (eng, _dir) = engine();
        // A line one byte over the cap, followed by a request that must
        // never be served because the connection is dropped first.
        let mut input = vec![b'x'; MAX_LINE_BYTES + 1];
        input.push(b'\n');
        input.extend_from_slice(b"{\"op\":\"stats\"}\n");
        let mut out = Vec::new();
        let ended = serve_lines(&eng, &input[..], &mut out).unwrap();
        assert!(!ended);
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 1, "nothing after the refusal may be served");
        let resp = parse(lines[0]).unwrap();
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
        assert!(resp
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("exceeds"));
    }

    #[test]
    fn large_but_legal_lines_and_crlf_are_served() {
        let (eng, _dir) = engine();
        // Padded with spaces to well past the default BufReader chunk so
        // the bounded reader's multi-chunk path is exercised.
        let pad = " ".repeat(64 << 10);
        let input = format!("{pad}{{\"op\":\"stats\"}}\r\n{{\"op\":\"shutdown\"}}\r\n");
        let mut out = Vec::new();
        let ended = serve_lines(&eng, input.as_bytes(), &mut out).unwrap();
        assert!(ended);
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 2);
        for l in &lines {
            assert_eq!(parse(l).unwrap().get("ok"), Some(&Json::Bool(true)), "{l}");
        }
    }

    #[test]
    fn invalid_utf8_is_an_error_but_not_fatal() {
        let (eng, _dir) = engine();
        let mut input = vec![0xff, 0xfe, b'\n'];
        input.extend_from_slice(b"{\"op\":\"stats\"}\n");
        let mut out = Vec::new();
        serve_lines(&eng, &input[..], &mut out).unwrap();
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(parse(lines[0]).unwrap().get("ok"), Some(&Json::Bool(false)));
        assert_eq!(parse(lines[1]).unwrap().get("ok"), Some(&Json::Bool(true)));
    }

    #[test]
    fn bounded_reader_handles_unterminated_final_line() {
        let mut buf = Vec::new();
        let mut reader = &b"{\"op\":\"stats\"}"[..];
        assert!(matches!(
            read_bounded_line(&mut reader, &mut buf, 64).unwrap(),
            LineRead::Line
        ));
        assert_eq!(buf, b"{\"op\":\"stats\"}");
        assert!(matches!(
            read_bounded_line(&mut reader, &mut buf, 64).unwrap(),
            LineRead::Eof
        ));
    }

    #[test]
    fn query_vectors_and_search_ops_reconstruct_similar_nodes() {
        let (eng, _dir) = engine();
        let filtered = req(&eng, r#"{"op":"similar-nodes","nodes":[4],"k":3}"#);
        assert_eq!(filtered.get("ok"), Some(&Json::Bool(true)));
        let vecs = req(
            &eng,
            r#"{"op":"query-vectors","space":"similar","nodes":[4]}"#,
        );
        assert_eq!(vecs.get("ok"), Some(&Json::Bool(true)), "{vecs:?}");
        let vectors = match vecs.get("vectors") {
            Some(v) => v.to_line(),
            None => panic!("no vectors"),
        };
        let raw = req(
            &eng,
            &format!(r#"{{"op":"search","space":"similar","k":4,"queries":{vectors}}}"#),
        );
        assert_eq!(raw.get("ok"), Some(&Json::Bool(true)), "{raw:?}");
        // Drop the self-hit from the raw results; the remainder must be
        // byte-identical to the filtered path (scores crossed the wire).
        let strip = |v: &Json| -> Vec<Json> {
            match v.get("results") {
                Some(Json::Arr(batches)) => match &batches[0] {
                    Json::Arr(hits) => hits
                        .iter()
                        .filter(|h| h.get("node").unwrap().as_index() != Some(4))
                        .cloned()
                        .collect(),
                    other => panic!("bad hits: {other:?}"),
                },
                other => panic!("bad results: {other:?}"),
            }
        };
        assert_eq!(strip(&raw), strip(&filtered));
        // Malformed variants are clean errors.
        for bad in [
            r#"{"op":"search","space":"similar","queries":[[0.1],[0.1,0.2]]}"#,
            r#"{"op":"search","space":"nope","queries":[[0.1]]}"#,
            r#"{"op":"search","queries":[[0.1]]}"#,
            r#"{"op":"search","space":"similar","queries":[]}"#,
            r#"{"op":"query-vectors","space":"links","nodes":[9999]}"#,
        ] {
            let resp = req(&eng, bad);
            assert_eq!(resp.get("ok"), Some(&Json::Bool(false)), "{bad}");
        }
    }

    #[test]
    fn accept_error_classification() {
        use std::io::{Error, ErrorKind};
        for transient in [
            Error::from(ErrorKind::ConnectionAborted),
            Error::from(ErrorKind::Interrupted),
            Error::from_raw_os_error(24),  // EMFILE
            Error::from_raw_os_error(105), // ENOBUFS
        ] {
            assert!(is_transient_accept_error(&transient), "{transient:?}");
        }
        for fatal in [
            Error::from_raw_os_error(9),  // EBADF
            Error::from_raw_os_error(22), // EINVAL
            Error::from(ErrorKind::InvalidInput),
        ] {
            assert!(!is_transient_accept_error(&fatal), "{fatal:?}");
        }
    }

    #[test]
    fn torn_connection_mid_line_leaves_daemon_serving() {
        use std::io::{BufRead, BufReader, Write};
        let (eng, _dir) = engine();
        let eng = Arc::new(eng);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = {
            let eng = Arc::clone(&eng);
            std::thread::spawn(move || serve_tcp(eng, listener))
        };
        // A client that dies mid-request-line (no trailing newline).
        let mut torn = TcpStream::connect(addr).unwrap();
        torn.write_all(b"{\"op\":\"similar-nodes\",\"nod").unwrap();
        drop(torn);
        // The daemon must still serve a healthy client afterwards.
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(b"{\"op\":\"stats\"}\n{\"op\":\"shutdown\"}\n")
            .unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(parse(&line).unwrap().get("ok"), Some(&Json::Bool(true)));
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(parse(&line).unwrap().get("ok"), Some(&Json::Bool(true)));
        drop(conn);
        server.join().unwrap().unwrap();
    }

    #[test]
    fn shutdown_severs_idle_connections() {
        use std::io::{BufRead, BufReader, Write};
        let (eng, _dir) = engine();
        let eng = Arc::new(eng);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = {
            let eng = Arc::clone(&eng);
            std::thread::spawn(move || serve_tcp(eng, listener))
        };
        // An idle client that never sends a byte must not keep the
        // daemon alive past a shutdown from another client.
        let idle = TcpStream::connect(addr).unwrap();
        let mut active = TcpStream::connect(addr).unwrap();
        active.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
        let mut line = String::new();
        BufReader::new(active.try_clone().unwrap())
            .read_line(&mut line)
            .unwrap();
        assert_eq!(parse(&line).unwrap().get("ok"), Some(&Json::Bool(true)));
        // Joins only if the server severed the idle connection.
        server.join().unwrap().unwrap();
        drop(idle);
    }

    #[test]
    fn tcp_roundtrip_with_clean_shutdown() {
        use std::io::{BufRead, BufReader, Write};
        let (eng, _dir) = engine();
        let eng = Arc::new(eng);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = {
            let eng = Arc::clone(&eng);
            std::thread::spawn(move || serve_tcp(eng, listener))
        };
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(b"{\"op\":\"similar-nodes\",\"nodes\":[0],\"k\":2}\n")
            .unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(
            parse(&line).unwrap().get("ok"),
            Some(&Json::Bool(true)),
            "{line}"
        );
        // A second concurrent connection is served too.
        let mut conn2 = TcpStream::connect(addr).unwrap();
        conn2.write_all(b"{\"op\":\"stats\"}\n").unwrap();
        let mut line2 = String::new();
        BufReader::new(conn2.try_clone().unwrap())
            .read_line(&mut line2)
            .unwrap();
        assert_eq!(parse(&line2).unwrap().get("ok"), Some(&Json::Bool(true)));
        // Shutdown answers, then the server drains and joins.
        conn.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(parse(&line).unwrap().get("ok"), Some(&Json::Bool(true)));
        drop(conn);
        drop(conn2);
        server.join().unwrap().unwrap();
    }
}
