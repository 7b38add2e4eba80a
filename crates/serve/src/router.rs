//! `pane route` — the merging query router over N shard daemons.
//!
//! [`Router`] is the multi-daemon twin of [`crate::ShardedEngine`]: one
//! `pane serve --store shard-<s>/` process per shard directory, and this
//! thin proxy speaking the *same* JSON-lines protocol on both sides. A
//! client request fans out over the shard daemons and the per-shard
//! answers merge under the shared score order:
//!
//! * **queries** (`similar-nodes` / `recommend-links`) — each node's
//!   *owner* daemon (`shard_of(v, N)`) supplies its query vector via the
//!   `query-vectors` op, every daemon answers an unfiltered `search`
//!   over its local index, and the router maps local ids to global
//!   (`global_of`) and merges each query's per-shard top-k under
//!   `topk::cmp_ranked` — exactly the in-process sharded merge, so with
//!   flat shards the routed result is **bit-identical** to both
//!   [`crate::ShardedEngine`] and the unsharded exact scan (query
//!   vectors and scores cross the wire through the shortest-roundtrip
//!   `f64` formatter, so no precision is lost);
//! * **attribute inference** (`top-attributes`) — each node's owner
//!   daemon answers it, through the same owner fan-out as the
//!   `query-vectors` phase above, and its lists pass through unchanged;
//! * **inserts** — the next global id `total` routes to daemon
//!   `total % N` (the same round-robin id arithmetic the store layer
//!   enforces), serialized under a router-side counter; the daemon's
//!   local id maps back to the global id in the response;
//! * **stats / compact / snapshot** — fan out to every daemon and
//!   aggregate (sums; minimum generation, mirroring the in-process
//!   engine's "every shard is at least at this generation" report).
//!
//! **Degradation.** Reads survive dead shards: a down daemon simply
//! contributes no hits (and the nodes it owns get empty result lists,
//! `top-attributes` included), and the response carries
//! `"degraded":true` plus a `"shards_down":[…]` list instead of failing.
//! Writes do not degrade —
//! an insert whose owner is down is an error, and an insert whose
//! outcome is unknown (connection died mid-request) marks the router's
//! node counter dirty so it resyncs from shard `stats` before the next
//! insert. A background health thread probes down shards every
//! [`ClientConfig::probe_interval`], so a restarted daemon rejoins
//! automatically.
//!
//! [`Router::connect`] refuses to start unless every daemon answers,
//! all report the same `half_dim`, none is itself sharded, and the
//! per-shard node counts satisfy the round-robin balance invariant —
//! i.e. the `--shards` list really is `shard-000, shard-001, …` of one
//! sharded root, in order.

use crate::client::{ClientConfig, ClientError, ShardClient};
use crate::engine::{check_nodes, Hit, ServeError};
use crate::obs::ServeObs;
use crate::protocol::Json;
use crate::server::{answer, hits_json, metrics_fields, nodes_and_k, LineHandler, ReadRequest};
use crate::sharded::merge_shard_hits;
use pane_core::top_k_filter;
use pane_obs::{Counter, Gauge, Tracer};
use pane_store::{expected_shard_len, global_of, local_of, shard_of};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// A router-level failure, rendered as the `error` field of an
/// `{"ok":false,…}` response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterError(pub String);

impl std::fmt::Display for RouterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for RouterError {}

/// A client mistake reads the same from the router as from a daemon.
impl From<ServeError> for RouterError {
    fn from(e: ServeError) -> Self {
        RouterError(e.to_string())
    }
}

fn bad(msg: impl Into<String>) -> RouterError {
    RouterError(msg.into())
}

struct NodeCount {
    total: usize,
    /// Set after an insert with unknown outcome; the counter must be
    /// resynced from shard `stats` before it is trusted again.
    dirty: bool,
}

struct Inner {
    clients: Vec<ShardClient>,
    half_dim: usize,
    count: Mutex<NodeCount>,
    probe_interval: Duration,
    obs: Arc<ServeObs>,
    /// Responses answered degraded (some shard contributed nothing).
    degraded: Arc<Counter>,
    /// Shards currently believed down (refreshed per response).
    shards_down: Arc<Gauge>,
}

/// The merging query router. See the [module docs](self). Implements
/// [`LineHandler`], so it runs over the same transports as an engine:
/// `serve_tcp(Arc::new(router), listener)`.
pub struct Router {
    inner: Arc<Inner>,
    stop: Arc<AtomicBool>,
    health: Option<std::thread::JoinHandle<()>>,
}

impl Router {
    /// Connects to one daemon per shard, in shard order, and verifies
    /// the fleet is coherent (see the [module docs](self)). All daemons
    /// must be up to *start*; afterwards reads degrade gracefully.
    pub fn connect(addrs: &[String], config: ClientConfig) -> Result<Self, RouterError> {
        Self::connect_with(
            addrs,
            config,
            Arc::new(ServeObs::for_router(Tracer::disabled())),
        )
    }

    /// [`Router::connect`] with caller-supplied observability: per-shard
    /// client metrics register in `obs`'s registry, and the router's
    /// `metrics` protocol op renders it. `pane route` builds the obs from
    /// its `--log-json` / `--slow-query-ms` flags; [`Router::connect`]
    /// uses a disabled tracer over a private registry.
    pub fn connect_with(
        addrs: &[String],
        config: ClientConfig,
        obs: Arc<ServeObs>,
    ) -> Result<Self, RouterError> {
        if addrs.is_empty() {
            return Err(bad("at least one shard address is required"));
        }
        let clients: Vec<ShardClient> = addrs
            .iter()
            .enumerate()
            .map(|(s, a)| ShardClient::with_obs(a.clone(), config.clone(), obs.client_obs(s)))
            .collect();
        let n = clients.len();
        let mut totals = vec![0usize; n];
        let mut half_dim = None;
        for (s, c) in clients.iter().enumerate() {
            let v = c
                .request(r#"{"op":"stats"}"#)
                .map_err(|e| bad(format!("shard {s} ({}): {e}", c.addr())))?;
            if v.get("shards").is_some() {
                return Err(bad(format!(
                    "shard {s} ({}) serves a sharded root itself; point the router at one \
                     plain `pane serve --store shard-…/` daemon per shard",
                    c.addr()
                )));
            }
            let nodes = v
                .get("nodes")
                .and_then(Json::as_index)
                .ok_or_else(|| bad(format!("shard {s}: stats response has no 'nodes'")))?;
            let hd = v
                .get("half_dim")
                .and_then(Json::as_index)
                .ok_or_else(|| bad(format!("shard {s}: stats response has no 'half_dim'")))?;
            match half_dim {
                None => half_dim = Some(hd),
                Some(prev) if prev != hd => {
                    return Err(bad(format!(
                        "shard {s} ({}) has half_dim {hd} but shard 0 has {prev}; \
                         these daemons do not serve the same embedding",
                        c.addr()
                    )));
                }
                Some(_) => {}
            }
            totals[s] = nodes;
        }
        let total: usize = totals.iter().sum();
        for (s, &got) in totals.iter().enumerate() {
            let want = expected_shard_len(total, s, n);
            if got != want {
                return Err(bad(format!(
                    "shard sizes {totals:?} break the round-robin balance invariant for {n} \
                     shards (shard {s} has {got} nodes, expected {want} of {total}); the \
                     --shards list must name the daemons of shard-000, shard-001, … of one \
                     sharded root, in order"
                )));
            }
        }
        let degraded = obs.registry().counter(
            "pane_router_degraded_responses_total",
            "Responses answered with degraded=true (some shard was down).",
        );
        let shards_down = obs.registry().gauge(
            "pane_router_shards_down",
            "Shards currently believed down by the router.",
        );
        obs.tracer()
            .event(pane_obs::Level::Info, "router.boot")
            .int_field("shards", clients.len() as u64)
            .int_field("nodes", total as u64)
            .emit();
        let inner = Arc::new(Inner {
            clients,
            half_dim: half_dim.expect("addrs is non-empty"),
            count: Mutex::new(NodeCount {
                total,
                dirty: false,
            }),
            probe_interval: config.probe_interval,
            obs,
            degraded,
            shards_down,
        });
        let stop = Arc::new(AtomicBool::new(false));
        let health = {
            let inner = Arc::clone(&inner);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                // Sleep in short slices so Drop can stop the thread
                // promptly even with a long probe interval.
                let tick = Duration::from_millis(20);
                let mut since_probe = Duration::ZERO;
                while !stop.load(Ordering::SeqCst) {
                    std::thread::sleep(tick);
                    since_probe += tick;
                    if since_probe >= inner.probe_interval {
                        since_probe = Duration::ZERO;
                        for c in &inner.clients {
                            if stop.load(Ordering::SeqCst) {
                                return;
                            }
                            if c.is_down() {
                                c.probe();
                            }
                        }
                    }
                }
            })
        };
        Ok(Self {
            inner,
            stop,
            health: Some(health),
        })
    }

    /// Number of shard daemons behind this router.
    pub fn num_shards(&self) -> usize {
        self.inner.clients.len()
    }

    /// Runs `f(shard, client)` for every shard concurrently (these are
    /// network round trips; one thread per shard).
    fn fan_out<T: Send>(&self, f: impl Sync + Fn(usize, &ShardClient) -> T) -> Vec<T> {
        let f = &f;
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .inner
                .clients
                .iter()
                .enumerate()
                .map(|(s, c)| scope.spawn(move || f(s, c)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .collect()
        })
    }

    fn count(&self) -> MutexGuard<'_, NodeCount> {
        self.inner.count.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Re-reads every shard's node count. Strict: every daemon must
    /// answer, because inserts route by the exact total.
    fn resync(&self, count: &mut NodeCount) -> Result<(), RouterError> {
        let per = self.fan_out(|s, c| {
            c.request(r#"{"op":"stats"}"#)
                .map_err(|e| bad(format!("shard {s} ({}): {e}", c.addr())))
                .and_then(|v| {
                    v.get("nodes")
                        .and_then(Json::as_index)
                        .ok_or_else(|| bad(format!("shard {s}: stats response has no 'nodes'")))
                })
        });
        let mut total = 0;
        for r in per {
            total += r?;
        }
        count.total = total;
        count.dirty = false;
        Ok(())
    }

    /// The current global node total for read paths: a failed resync
    /// falls back to the stale count (reads degrade, writes do not).
    fn read_total(&self) -> usize {
        let mut c = self.count();
        if c.dirty {
            let _ = self.resync(&mut c);
        }
        c.total
    }

    fn dispatch(&self, op: &str, req: &Json, raw: &str) -> Result<(Json, bool), RouterError> {
        match op {
            "similar-nodes" | "recommend-links" => self.query(op, req).map(|r| (r, false)),
            "top-attributes" => self.top_attributes(req).map(|r| (r, false)),
            "insert" => self.insert(raw).map(|r| (r, false)),
            "stats" => self.stats().map(|r| (r, false)),
            "compact" | "snapshot" => self.fan_out_write(op).map(|r| (r, false)),
            "metrics" => {
                let mut pairs = vec![("ok", Json::Bool(true)), ("op", Json::str("metrics"))];
                pairs.extend(metrics_fields(&self.inner.obs));
                Ok((Json::obj(pairs), false))
            }
            "shutdown" => Ok((
                Json::obj(vec![
                    ("ok", Json::Bool(true)),
                    ("op", Json::str("shutdown")),
                ]),
                true,
            )),
            other => Err(ServeError::BadRequest(format!(
                "unknown op '{other}' (similar-nodes | recommend-links | top-attributes | insert | \
                 compact | snapshot | stats | metrics | shutdown)"
            ))
            .into()),
        }
    }

    fn response(&self, op: &str, mut fields: Vec<(&str, Json)>, down: &BTreeSet<usize>) -> Json {
        self.inner
            .shards_down
            .set(self.inner.clients.iter().filter(|c| c.is_down()).count() as i64);
        let mut pairs = vec![("ok", Json::Bool(true)), ("op", Json::str(op))];
        pairs.append(&mut fields);
        pairs.push(("degraded", Json::Bool(!down.is_empty())));
        if !down.is_empty() {
            self.inner.degraded.inc();
            pairs.push((
                "shards_down",
                Json::Arr(down.iter().map(|&s| Json::num(s)).collect()),
            ));
        }
        Json::obj(pairs)
    }

    fn query(&self, op: &str, req: &Json) -> Result<Json, RouterError> {
        let ReadRequest {
            space,
            nodes,
            k,
            exclude,
        } = ReadRequest::decode(op, req)?;
        check_nodes(self.read_total(), &nodes)?;
        let (fetch, keep) = top_k_filter(k, &exclude, |h: &Hit| h.node);
        let n = self.inner.clients.len();
        let mut down = BTreeSet::new();

        // Phase 1: owner daemons supply query vectors, passed on to the
        // search as they arrived (the daemons check their shape).
        let owner_rows = self.ask_owners(
            "query-vectors",
            ("space", Json::str(space.name())),
            &nodes,
            "vectors",
            &mut down,
        )?;
        let (live, rows): (Vec<usize>, Vec<Json>) = owner_rows
            .into_iter()
            .enumerate()
            .filter_map(|(i, row)| Some((i, row?)))
            .unzip();
        if live.is_empty() {
            let empty = vec![Json::Arr(Vec::new()); nodes.len()];
            return Ok(self.response(op, vec![("results", Json::Arr(empty))], &down));
        }

        // Phase 2: every daemon answers an unfiltered local search.
        let search_line = Json::obj(vec![
            ("op", Json::str("search")),
            ("space", Json::str(space.name())),
            ("k", Json::num(fetch)),
            ("queries", Json::Arr(rows)),
        ])
        .to_line();
        let per_shard = self.fan_out(|s, c| -> Result<Option<ShardHits>, RouterError> {
            match c.request(&search_line) {
                Ok(v) => parse_shard_hits(&v, s, n, live.len()).map(Some),
                Err(ClientError::Down(_) | ClientError::Io(_)) => Ok(None),
                Err(e) => Err(bad(format!("shard {s} ({}): {e}", c.addr()))),
            }
        });
        let mut answered = Vec::with_capacity(n);
        for (s, r) in per_shard.into_iter().enumerate() {
            match r? {
                Some(batches) => answered.push(batches),
                None => {
                    down.insert(s);
                }
            }
        }

        // Phase 3: the in-process merge and filter — shard order, shared
        // comparator, then the same self/exclude filtering as the engines.
        let mut merged_of: Vec<Vec<Hit>> = vec![Vec::new(); nodes.len()];
        for (qi, &pos) in live.iter().enumerate() {
            let candidates = answered
                .iter()
                .flat_map(|batches| batches[qi].iter().copied());
            merged_of[pos] = keep(nodes[pos], merge_shard_hits(candidates, fetch));
        }
        Ok(self.response(op, vec![("results", hits_json("node", merged_of))], &down))
    }

    /// `top-attributes`: each node's owner daemon answers it (every shard
    /// holds the full `Y`, so its attribute lists pass through as is).
    fn top_attributes(&self, req: &Json) -> Result<Json, RouterError> {
        let (nodes, k) = nodes_and_k(req)?;
        check_nodes(self.read_total(), &nodes)?;
        let mut down = BTreeSet::new();
        let lists = self.ask_owners(
            "top-attributes",
            ("k", Json::num(k)),
            &nodes,
            "results",
            &mut down,
        )?;
        let results = lists
            .into_iter()
            .map(|list| list.unwrap_or(Json::Arr(Vec::new())))
            .collect();
        Ok(self.response(
            "top-attributes",
            vec![("results", Json::Arr(results))],
            &down,
        ))
    }

    /// The owner fan-out of a per-node read: one `{"op":op, field,
    /// "nodes":[local ids]}` request to each node's owner daemon
    /// (`shard_of`), answered concurrently. Returns each node's entry of
    /// its owner's `key` array, in `nodes` order. A dead owner degrades
    /// its nodes to `None` and is added to `down`.
    fn ask_owners(
        &self,
        op: &str,
        field: (&str, Json),
        nodes: &[usize],
        key: &str,
        down: &mut BTreeSet<usize>,
    ) -> Result<Vec<Option<Json>>, RouterError> {
        let n = self.inner.clients.len();
        let mut by_owner: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, &v) in nodes.iter().enumerate() {
            by_owner[shard_of(v, n)].push(i);
        }
        let answers = self.fan_out(|s, c| -> Result<Option<Vec<Json>>, RouterError> {
            if by_owner[s].is_empty() {
                return Ok(None);
            }
            let locals = by_owner[s]
                .iter()
                .map(|&i| Json::num(local_of(nodes[i], n)))
                .collect();
            let line = Json::obj(vec![
                ("op", Json::str(op)),
                field.clone(),
                ("nodes", Json::Arr(locals)),
            ])
            .to_line();
            match c.request(&line) {
                Ok(v) => match v.get(key) {
                    Some(Json::Arr(items)) if items.len() == by_owner[s].len() => {
                        Ok(Some(items.clone()))
                    }
                    _ => Err(bad(format!("shard {s}: malformed {op} response"))),
                },
                // A dead owner degrades its query nodes to empty results.
                Err(ClientError::Down(_) | ClientError::Io(_)) => Ok(None),
                Err(e) => Err(bad(format!("shard {s} ({}): {e}", c.addr()))),
            }
        });
        let mut of_node = vec![None; nodes.len()];
        for (s, r) in answers.into_iter().enumerate() {
            match r? {
                Some(items) => {
                    for (&pos, item) in by_owner[s].iter().zip(items) {
                        of_node[pos] = Some(item);
                    }
                }
                None if !by_owner[s].is_empty() => {
                    down.insert(s);
                }
                None => {}
            }
        }
        Ok(of_node)
    }

    fn insert(&self, raw: &str) -> Result<Json, RouterError> {
        // Serialized under the counter lock: global id assignment must
        // match the round-robin order the store layer verifies.
        let mut count = self.count();
        if count.dirty {
            self.resync(&mut count)
                .map_err(|e| bad(format!("insert blocked until counts resync: {e}")))?;
        }
        let n = self.inner.clients.len();
        let owner = shard_of(count.total, n);
        let client = &self.inner.clients[owner];
        match client.request_once(raw) {
            Ok(v) => {
                let local = v
                    .get("id")
                    .and_then(Json::as_index)
                    .ok_or_else(|| bad(format!("shard {owner}: insert response has no 'id'")))?;
                let global = global_of(owner, local, n);
                if local != local_of(count.total, n) {
                    // The daemon grew outside this router; adopt its id
                    // but stop trusting the counter.
                    count.dirty = true;
                } else {
                    count.total += 1;
                }
                Ok(self.response(
                    "insert",
                    vec![("id", Json::num(global)), ("shard", Json::num(owner))],
                    &BTreeSet::new(),
                ))
            }
            Err(ClientError::OutcomeUnknown(m)) => {
                count.dirty = true;
                Err(bad(format!(
                    "insert outcome unknown on shard {owner} ({}): {m}; counts will resync",
                    client.addr()
                )))
            }
            Err(e) => Err(bad(format!(
                "insert failed: owner shard {owner} ({}) {e}",
                client.addr()
            ))),
        }
    }

    fn stats(&self) -> Result<Json, RouterError> {
        let n = self.inner.clients.len();
        let per = self.fan_out(|s, c| (s, c.request(r#"{"op":"stats"}"#)));
        let mut down = BTreeSet::new();
        let mut nodes = 0usize;
        let mut per_shard = Vec::with_capacity(n);
        for (s, r) in per {
            match r {
                Ok(v) => {
                    let shard_nodes = v
                        .get("nodes")
                        .and_then(Json::as_index)
                        .ok_or_else(|| bad(format!("shard {s}: stats response has no 'nodes'")))?;
                    nodes += shard_nodes;
                    per_shard.push(Json::obj(vec![
                        ("shard", Json::num(s)),
                        ("up", Json::Bool(true)),
                        ("nodes", Json::num(shard_nodes)),
                    ]));
                }
                Err(ClientError::Down(_) | ClientError::Io(_)) => {
                    down.insert(s);
                    per_shard.push(Json::obj(vec![
                        ("shard", Json::num(s)),
                        ("up", Json::Bool(false)),
                    ]));
                }
                Err(e) => {
                    return Err(bad(format!("shard {s}: {e}")));
                }
            }
        }
        if down.is_empty() {
            // A full sweep is an exact count — a free resync.
            let mut count = self.count();
            count.total = nodes;
            count.dirty = false;
        }
        Ok(self.response(
            "stats",
            vec![
                ("router", Json::Bool(true)),
                ("shards", Json::num(n)),
                ("nodes", Json::num(nodes)),
                ("half_dim", Json::num(self.inner.half_dim)),
                ("shard_stats", Json::Arr(per_shard)),
                (
                    "uptime_secs",
                    Json::num(self.inner.obs.uptime_secs() as usize),
                ),
                (
                    "requests_total",
                    Json::num(self.inner.obs.requests_total() as usize),
                ),
            ],
            &down,
        ))
    }

    /// `compact` / `snapshot`: fan out to every daemon, aggregate like
    /// the in-process engine (sums; minimum generation across answering
    /// shards). Down shards degrade the response; a daemon that answers
    /// with an error fails the request (partial snapshots are reported,
    /// not hidden — each shard stays internally consistent, and a retry
    /// converges).
    fn fan_out_write(&self, op: &str) -> Result<Json, RouterError> {
        let line = Json::obj(vec![("op", Json::str(op))]).to_line();
        let per = self.fan_out(|s, c| (s, c.request(&line)));
        let mut down = BTreeSet::new();
        let mut folded = 0usize;
        let mut generation: Option<usize> = None;
        for (s, r) in per {
            match r {
                Ok(v) => {
                    folded += v.get("folded").and_then(Json::as_index).unwrap_or(0);
                    if let Some(g) = v.get("generation").and_then(Json::as_index) {
                        generation = Some(generation.map_or(g, |prev| prev.min(g)));
                    }
                }
                Err(ClientError::Down(_) | ClientError::Io(_)) => {
                    down.insert(s);
                }
                Err(e) => {
                    return Err(bad(format!(
                        "shard {s} ({}) {op} failed: {e}",
                        self.inner.clients[s].addr()
                    )));
                }
            }
        }
        let mut fields = vec![("folded", Json::num(folded))];
        if let Some(g) = generation {
            fields.push(("generation", Json::num(g)));
        }
        Ok(self.response(op, fields, &down))
    }
}

impl LineHandler for Router {
    fn handle(&self, line: &str) -> (String, bool) {
        answer(line, Some(&self.inner.obs), |op, req| {
            self.dispatch(op, req, line)
        })
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.health.take() {
            let _ = h.join();
        }
    }
}

/// One daemon's `search` answer: per-query `(global id, score)`
/// candidate lists, in query order.
type ShardHits = Vec<Vec<(usize, f64)>>;

/// Decodes one daemon's `search` response into [`ShardHits`].
fn parse_shard_hits(
    v: &Json,
    s: usize,
    n_shards: usize,
    expect_queries: usize,
) -> Result<ShardHits, RouterError> {
    let Some(Json::Arr(batches)) = v.get("results") else {
        return Err(bad(format!("shard {s}: malformed search response")));
    };
    if batches.len() != expect_queries {
        return Err(bad(format!(
            "shard {s}: search answered {} queries, expected {expect_queries}",
            batches.len()
        )));
    }
    batches
        .iter()
        .map(|b| {
            let Json::Arr(hits) = b else {
                return Err(bad(format!("shard {s}: malformed search response")));
            };
            hits.iter()
                .map(|h| {
                    let node = h.get("node").and_then(Json::as_index);
                    let score = h.get("score").and_then(Json::as_f64);
                    match (node, score) {
                        (Some(node), Some(score)) => Ok((global_of(s, node, n_shards), score)),
                        _ => Err(bad(format!("shard {s}: malformed hit in search response"))),
                    }
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::parse;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpListener;
    use std::time::Duration;

    fn config() -> ClientConfig {
        ClientConfig {
            connect_timeout: Duration::from_millis(200),
            request_timeout: Duration::from_millis(500),
            retries: 0,
            backoff: Duration::from_millis(5),
            probe_interval: Duration::from_millis(50),
            ..Default::default()
        }
    }

    /// A fake shard daemon that answers every request with `stats_line`.
    fn fake_shard(stats_line: &'static str) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            if let Ok((stream, _)) = listener.accept() {
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut line = String::new();
                while reader.read_line(&mut line).unwrap_or(0) > 0 {
                    let mut w = &stream;
                    if w.write_all(stats_line.as_bytes()).is_err() {
                        break;
                    }
                    let _ = w.write_all(b"\n");
                    line.clear();
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn connect_rejects_an_imbalanced_fleet() {
        // 5 + 2 nodes over 2 shards violates round-robin balance
        // (expected 4 + 3): the --shards list is wrong or reordered.
        let (a, ha) = fake_shard(r#"{"ok":true,"op":"stats","nodes":5,"half_dim":4}"#);
        let (b, hb) = fake_shard(r#"{"ok":true,"op":"stats","nodes":2,"half_dim":4}"#);
        let err = Router::connect(&[a, b], config())
            .err()
            .expect("must refuse");
        assert!(err.0.contains("balance"), "{err}");
        ha.join().unwrap();
        hb.join().unwrap();
    }

    #[test]
    fn connect_rejects_mismatched_embeddings_and_nested_sharding() {
        let (a, ha) = fake_shard(r#"{"ok":true,"op":"stats","nodes":4,"half_dim":4}"#);
        let (b, hb) = fake_shard(r#"{"ok":true,"op":"stats","nodes":3,"half_dim":6}"#);
        let err = Router::connect(&[a, b], config())
            .err()
            .expect("must refuse");
        assert!(err.0.contains("half_dim"), "{err}");
        ha.join().unwrap();
        hb.join().unwrap();

        let (c, hc) = fake_shard(r#"{"ok":true,"op":"stats","nodes":4,"half_dim":4,"shards":2}"#);
        let err = Router::connect(&[c], config()).err().expect("must refuse");
        assert!(err.0.contains("sharded root itself"), "{err}");
        hc.join().unwrap();
    }

    #[test]
    fn connect_requires_every_shard_up() {
        let (a, ha) = fake_shard(r#"{"ok":true,"op":"stats","nodes":4,"half_dim":4}"#);
        let dead = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let err = Router::connect(&[a, dead], config())
            .err()
            .expect("must refuse");
        assert!(err.0.contains("shard 1"), "{err}");
        ha.join().unwrap();
    }

    #[test]
    fn router_metrics_op_reports_request_counters_and_shard_health() {
        // Two fake shards that answer everything with a stats line; the
        // canned replies satisfy connect() and the stats fan-out alike.
        let (a, ha) = fake_shard(r#"{"ok":true,"op":"stats","nodes":4,"half_dim":4}"#);
        let (b, hb) = fake_shard(r#"{"ok":true,"op":"stats","nodes":3,"half_dim":4}"#);
        let router = Router::connect(&[a, b], config()).unwrap();
        let ask = |line: &str| {
            let (resp, _) = router.handle(line);
            parse(&resp).unwrap()
        };
        let stats = ask(r#"{"op":"stats"}"#);
        assert_eq!(stats.get("ok"), Some(&Json::Bool(true)), "{stats:?}");
        assert!(stats.get("uptime_secs").unwrap().as_index().is_some());
        // Recorded after dispatch: the stats request itself is not yet
        // counted when its response is rendered.
        assert_eq!(stats.get("requests_total").unwrap().as_index(), Some(0));

        let m = ask(r#"{"op":"metrics"}"#);
        assert_eq!(m.get("ok"), Some(&Json::Bool(true)), "{m:?}");
        assert_eq!(m.get("requests_total").unwrap().as_index(), Some(1));
        let text = m.get("text").unwrap().as_str().unwrap();
        assert!(
            text.contains(r#"pane_router_requests_total{op="stats"} 1"#),
            "{text}"
        );
        assert!(text.contains(r#"pane_shard_up{shard="0"} 1"#), "{text}");
        assert!(text.contains(r#"pane_shard_up{shard="1"} 1"#));
        assert!(text.contains(r#"pane_shard_connects_total{shard="0"} 1"#));
        assert!(text.contains("pane_router_degraded_responses_total 0"));
        drop(router);
        ha.join().unwrap();
        hb.join().unwrap();
    }

    #[test]
    fn shard_hit_parsing_maps_local_ids_to_global() {
        let v = parse(
            r#"{"ok":true,"op":"search","results":[[{"node":0,"score":1.5},{"node":2,"score":0.25}],[]]}"#,
        )
        .unwrap();
        let hits = parse_shard_hits(&v, 1, 3, 2).unwrap();
        // local 0 of shard 1 in 3 shards is global 1; local 2 is global 7.
        assert_eq!(hits, vec![vec![(1, 1.5), (7, 0.25)], vec![]]);
        assert!(parse_shard_hits(&v, 1, 3, 3).is_err(), "length mismatch");
    }
}
