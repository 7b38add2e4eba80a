//! # pane-loadgen — open-loop load generation for the PANE serving tier
//!
//! Drives a live `pane serve` daemon or `pane route` deployment (or an
//! in-process [`pane_serve::LineHandler`]) with a deterministic,
//! configurable request stream, and measures what the deployment
//! actually delivers:
//!
//! * **Open-loop arrivals** — requests fire on a fixed schedule derived
//!   from the target QPS, *regardless of completions*. A slow server
//!   does not slow the generator down, so queueing delay shows up in
//!   the measured latency instead of being silently absorbed (the
//!   coordinated-omission trap of closed-loop harnesses). Latency is
//!   measured from the request's **scheduled** arrival, not from when
//!   the socket write happened.
//! * **Deterministic workloads** — the whole request sequence (workload
//!   mix, batch sizes, key skew, insert vectors) is synthesized up
//!   front from one seeded generator; identical seed + config produce
//!   an identical byte-for-byte request stream ([`generate_requests`]).
//! * **Saturation search** — [`find_knee`] steps the offered rate until
//!   achieved throughput stops tracking offered load, locating the
//!   capacity knee of a deployment.
//! * **Measurement reuse** — client-side p50/p95/p99 are nearest-rank
//!   percentiles of the raw per-request latencies the report retains
//!   (the benchmark's definition, not bucket edges), and
//!   [`flatten_wire_metrics`] + [`pane_obs::snapshot_delta`] turn two
//!   scrapes of the daemon's `metrics` op into server-side deltas for
//!   free. Reports serialize through the `PANE_BENCH_JSON` contract
//!   ([`BenchReport`]) shared with the criterion benches.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod config;
mod endpoint;
mod report;
mod runner;
mod workload;

pub use config::{BatchSpec, Mix, Skew, WorkloadConfig};
pub use endpoint::{
    flatten_wire_metrics, scrape_metrics, HandlerEndpoint, TargetInfo, TcpEndpoint,
};
pub use endpoint::{probe_target, Endpoint};
pub use report::BenchReport;
pub use runner::{find_knee, run, KneePoint, KneeReport, RequestOutcome, RunPlan, RunReport};
pub use workload::{generate_requests, NodeSampler, OpKind, Request};
