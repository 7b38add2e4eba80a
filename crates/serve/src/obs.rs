//! Serving-tier observability: one [`ServeObs`] per daemon or router.
//!
//! `pane-obs` supplies the primitives (atomic counters/gauges/histograms
//! and the JSON-lines tracer); this module fixes the **schema** the
//! serving tier exposes so daemon and router metrics cannot drift:
//!
//! * per-op request counters, latency histograms, and batch-size
//!   histograms (`<prefix>_requests_total{op=…}`,
//!   `<prefix>_request_seconds{op=…}`,
//!   `<prefix>_request_batch_size{op=…}` for the four query ops),
//!   recorded once per request line by the transport wrapper
//!   ([`crate::server::ObservedHandler`] / the router's `LineHandler`);
//! * engine durability metrics (`pane_inserts_total`,
//!   `pane_wal_append_seconds`, `pane_wal_fsync_seconds`,
//!   `pane_wal_bytes`, `pane_wal_records`, `pane_store_generation`,
//!   `pane_snapshot_seconds`, `pane_snapshots_total`), labeled
//!   `{shard="s"}` under a sharded engine;
//! * per-shard client health (`pane_shard_up{shard=…}`,
//!   `pane_shard_{connects,connect_failures,retries,outcome_unknown,
//!   down_transitions,probes}_total{shard=…}`) plus the router's
//!   `pane_router_degraded_responses_total` / `pane_router_shards_down`.
//!
//! The handles are pre-registered at attach time, so the hot path is a
//! slice scan plus a few relaxed atomics — the registry lock is only
//! taken when a `metrics` request renders the exposition.

use pane_obs::{latency_buckets, size_buckets, Counter, Gauge, Histogram, MetricsRegistry, Tracer};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every protocol op, with whether it is a *query* op (batch-size
/// histogram + slow-query log eligibility).
const OPS: &[(&str, bool)] = &[
    ("similar-nodes", true),
    ("recommend-links", true),
    ("query-vectors", true),
    ("search", true),
    ("top-attributes", true),
    ("insert", false),
    ("compact", false),
    ("snapshot", false),
    ("stats", false),
    ("metrics", false),
    ("shutdown", false),
];

/// Pre-registered handles for one op.
struct OpMetrics {
    requests: Arc<Counter>,
    latency: Arc<Histogram>,
    /// Query ops only: distribution of request batch sizes.
    batch: Option<Arc<Histogram>>,
    /// Whether the slow-query log applies to this op.
    slow: bool,
}

impl OpMetrics {
    fn register(registry: &MetricsRegistry, prefix: &str, op: &str, query: bool) -> Self {
        let labels = [("op", op)];
        Self {
            requests: registry.counter_with(
                &format!("{prefix}_requests_total"),
                "Requests served, by protocol op.",
                &labels,
            ),
            latency: registry.histogram_with(
                &format!("{prefix}_request_seconds"),
                "Request latency in seconds, by protocol op.",
                &labels,
                &latency_buckets(),
            ),
            batch: query.then(|| {
                registry.histogram_with(
                    &format!("{prefix}_request_batch_size"),
                    "Batch size (nodes or queries per request), query ops only.",
                    &labels,
                    &size_buckets(),
                )
            }),
            slow: query,
        }
    }
}

/// Observability state for one serving endpoint (a `pane serve` daemon
/// or a `pane route` router): the metrics registry, the tracer, and the
/// pre-registered per-op handles. Shared via `Arc` between the transport
/// wrapper (which records requests) and the dispatcher (which answers
/// the `metrics` op from the same registry).
pub struct ServeObs {
    registry: Arc<MetricsRegistry>,
    tracer: Arc<Tracer>,
    start: Instant,
    total: AtomicU64,
    errors: Arc<Counter>,
    ops: Vec<(&'static str, OpMetrics)>,
    unknown: OpMetrics,
}

impl ServeObs {
    /// Observability for a `pane serve` daemon (metric prefix `pane`).
    pub fn new(tracer: Tracer) -> Self {
        Self::with_prefix(tracer, "pane")
    }

    /// Observability for a `pane route` router (metric prefix
    /// `pane_router`, so a scrape of both tiers never collides).
    pub fn for_router(tracer: Tracer) -> Self {
        Self::with_prefix(tracer, "pane_router")
    }

    fn with_prefix(tracer: Tracer, prefix: &str) -> Self {
        let registry = Arc::new(MetricsRegistry::new());
        let errors = registry.counter(
            &format!("{prefix}_request_errors_total"),
            "Requests answered with {\"ok\":false}.",
        );
        let ops = OPS
            .iter()
            .map(|&(op, query)| (op, OpMetrics::register(&registry, prefix, op, query)))
            .collect();
        let unknown = OpMetrics::register(&registry, prefix, "unknown", false);
        Self {
            registry,
            tracer: Arc::new(tracer),
            start: Instant::now(),
            total: AtomicU64::new(0),
            errors,
            ops,
            unknown,
        }
    }

    /// The metrics registry (what the `metrics` protocol op renders).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The structured tracer shared by every instrumented layer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Seconds since this endpoint's observability was created (i.e.
    /// since boot — surfaced by `stats` and `metrics` responses).
    pub fn uptime_secs(&self) -> u64 {
        self.start.elapsed().as_secs()
    }

    /// Total requests recorded (every protocol line, all ops).
    pub fn requests_total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Records one finished request: per-op counter + latency (+ batch
    /// size for query ops), the error counter on `ok == false`, and the
    /// slow-query log when a query op exceeds the tracer's threshold.
    pub fn record(&self, op: &str, ok: bool, batch: Option<usize>, dur: Duration) {
        self.total.fetch_add(1, Ordering::Relaxed);
        let m = self
            .ops
            .iter()
            .find(|(name, _)| *name == op)
            .map_or(&self.unknown, |(_, m)| m);
        m.requests.inc();
        m.latency.observe_duration(dur);
        if let (Some(h), Some(b)) = (&m.batch, batch) {
            h.observe(b as f64);
        }
        if !ok {
            self.errors.inc();
        }
        if m.slow {
            self.tracer.slow_query(op, batch.unwrap_or(0), dur);
        }
    }

    /// Engine-layer handles, labeled `{shard="s"}` when the engine is
    /// one shard of a [`crate::ShardedEngine`].
    pub(crate) fn engine_obs(&self, shard: Option<usize>) -> EngineObs {
        let s = shard.map(|s| s.to_string());
        let labels: Vec<(&str, &str)> = s.iter().map(|s| ("shard", s.as_str())).collect();
        EngineObs {
            tracer: Arc::clone(&self.tracer),
            inserts: self.registry.counter_with(
                "pane_inserts_total",
                "Nodes ingested by the engine.",
                &labels,
            ),
            wal_append: self.registry.histogram_with(
                "pane_wal_append_seconds",
                "Insert-ahead log record write duration.",
                &labels,
                &latency_buckets(),
            ),
            wal_fsync: self.registry.histogram_with(
                "pane_wal_fsync_seconds",
                "Insert-ahead log fsync duration.",
                &labels,
                &latency_buckets(),
            ),
            wal_bytes: self.registry.gauge_with(
                "pane_wal_bytes",
                "Bytes currently in the insert-ahead log.",
                &labels,
            ),
            wal_records: self.registry.gauge_with(
                "pane_wal_records",
                "Records currently in the insert-ahead log.",
                &labels,
            ),
            generation: self.registry.gauge_with(
                "pane_store_generation",
                "Current on-disk base generation.",
                &labels,
            ),
            snapshot_seconds: self.registry.histogram_with(
                "pane_snapshot_seconds",
                "Durable snapshot duration (rebuild + commit).",
                &labels,
                &latency_buckets(),
            ),
            snapshots: self.registry.counter_with(
                "pane_snapshots_total",
                "Durable snapshots committed.",
                &labels,
            ),
        }
    }

    /// The sharded engine's fan-out latency histogram.
    pub(crate) fn fanout_histogram(&self) -> Arc<Histogram> {
        self.registry.histogram(
            "pane_fanout_seconds",
            "Sharded query fan-out + merge duration.",
            &latency_buckets(),
        )
    }

    /// Router-side shard-client handles for shard `shard`.
    pub(crate) fn client_obs(&self, shard: usize) -> Arc<ClientObs> {
        let s = shard.to_string();
        let labels = [("shard", s.as_str())];
        let obs = ClientObs {
            tracer: Arc::clone(&self.tracer),
            connects: self.registry.counter_with(
                "pane_shard_connects_total",
                "Successful TCP connects to the shard daemon.",
                &labels,
            ),
            connect_failures: self.registry.counter_with(
                "pane_shard_connect_failures_total",
                "Failed TCP connect attempts to the shard daemon.",
                &labels,
            ),
            retries: self.registry.counter_with(
                "pane_shard_retries_total",
                "Request retry attempts (after backoff).",
                &labels,
            ),
            outcome_unknown: self.registry.counter_with(
                "pane_shard_outcome_unknown_total",
                "Non-idempotent requests whose outcome is unknown.",
                &labels,
            ),
            down_transitions: self.registry.counter_with(
                "pane_shard_down_transitions_total",
                "Times the shard was marked down.",
                &labels,
            ),
            probes: self.registry.counter_with(
                "pane_shard_probes_total",
                "Forced health probes while marked down.",
                &labels,
            ),
            up: self.registry.gauge_with(
                "pane_shard_up",
                "1 while the shard is believed up, 0 while marked down.",
                &labels,
            ),
        };
        obs.up.set(1);
        Arc::new(obs)
    }
}

impl std::fmt::Debug for ServeObs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeObs")
            .field("uptime_secs", &self.uptime_secs())
            .field("requests_total", &self.requests_total())
            .finish_non_exhaustive()
    }
}

/// Engine-layer instrumentation handles. A freshly built engine holds a
/// no-op set (unregistered atomics + a disabled tracer), swapped for
/// registered handles by [`crate::ServeBackend::attach_obs`].
pub(crate) struct EngineObs {
    pub(crate) tracer: Arc<Tracer>,
    pub(crate) inserts: Arc<Counter>,
    pub(crate) wal_append: Arc<Histogram>,
    pub(crate) wal_fsync: Arc<Histogram>,
    pub(crate) wal_bytes: Arc<Gauge>,
    pub(crate) wal_records: Arc<Gauge>,
    pub(crate) generation: Arc<Gauge>,
    pub(crate) snapshot_seconds: Arc<Histogram>,
    pub(crate) snapshots: Arc<Counter>,
}

impl EngineObs {
    /// Unregistered handles: recording is still branch-free on the hot
    /// path, it just lands in atomics nobody renders.
    pub(crate) fn noop() -> Self {
        Self {
            tracer: Arc::new(Tracer::disabled()),
            inserts: Arc::new(Counter::new()),
            wal_append: Arc::new(Histogram::new(&latency_buckets())),
            wal_fsync: Arc::new(Histogram::new(&latency_buckets())),
            wal_bytes: Arc::new(Gauge::new()),
            wal_records: Arc::new(Gauge::new()),
            generation: Arc::new(Gauge::new()),
            snapshot_seconds: Arc::new(Histogram::new(&latency_buckets())),
            snapshots: Arc::new(Counter::new()),
        }
    }
}

/// Router-side shard-client instrumentation handles (per shard).
pub(crate) struct ClientObs {
    pub(crate) tracer: Arc<Tracer>,
    pub(crate) connects: Arc<Counter>,
    pub(crate) connect_failures: Arc<Counter>,
    pub(crate) retries: Arc<Counter>,
    pub(crate) outcome_unknown: Arc<Counter>,
    pub(crate) down_transitions: Arc<Counter>,
    pub(crate) probes: Arc<Counter>,
    pub(crate) up: Arc<Gauge>,
}

impl ClientObs {
    /// Unregistered handles for clients built without a router obs.
    pub(crate) fn noop() -> Arc<Self> {
        Arc::new(Self {
            tracer: Arc::new(Tracer::disabled()),
            connects: Arc::new(Counter::new()),
            connect_failures: Arc::new(Counter::new()),
            retries: Arc::new(Counter::new()),
            outcome_unknown: Arc::new(Counter::new()),
            down_transitions: Arc::new(Counter::new()),
            probes: Arc::new(Counter::new()),
            up: Arc::new(Gauge::new()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_routes_ops_and_counts_errors() {
        let obs = ServeObs::new(Tracer::disabled());
        obs.record("similar-nodes", true, Some(4), Duration::from_micros(120));
        obs.record("insert", true, None, Duration::from_micros(80));
        obs.record("top-attributes", true, Some(2), Duration::from_micros(30));
        obs.record("explode", false, None, Duration::from_micros(10));
        assert_eq!(obs.requests_total(), 4);
        let text = obs.registry().render_text();
        assert!(
            text.contains(r#"pane_requests_total{op="similar-nodes"} 1"#),
            "{text}"
        );
        assert!(text.contains(r#"pane_requests_total{op="insert"} 1"#));
        assert!(text.contains(r#"pane_requests_total{op="top-attributes"} 1"#));
        assert!(text.contains(r#"pane_request_batch_size_count{op="top-attributes"} 1"#));
        assert!(text.contains(r#"pane_requests_total{op="unknown"} 1"#));
        assert!(text.contains("pane_request_errors_total 1"));
        // Batch sizes only exist for query ops.
        assert!(text.contains(r#"pane_request_batch_size_count{op="similar-nodes"} 1"#));
        assert!(!text.contains(r#"pane_request_batch_size_count{op="insert"}"#));
    }

    #[test]
    fn router_prefix_keeps_metric_names_disjoint() {
        let obs = ServeObs::for_router(Tracer::disabled());
        obs.record("stats", true, None, Duration::from_micros(50));
        let text = obs.registry().render_text();
        assert!(text.contains(r#"pane_router_requests_total{op="stats"} 1"#));
        assert!(!text.contains("\npane_requests_total"));
    }

    #[test]
    fn client_obs_starts_up_and_engine_obs_labels_shards() {
        let obs = ServeObs::new(Tracer::disabled());
        let c = obs.client_obs(2);
        c.retries.inc();
        let _e = obs.engine_obs(Some(2));
        let text = obs.registry().render_text();
        assert!(text.contains(r#"pane_shard_up{shard="2"} 1"#), "{text}");
        assert!(text.contains(r#"pane_shard_retries_total{shard="2"} 1"#));
        assert!(text.contains(r#"pane_inserts_total{shard="2"} 0"#));
    }
}
