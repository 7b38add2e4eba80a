//! The open-loop runner and the saturation-knee search.
//!
//! **Open-loop** means arrivals are driven by a schedule, not by
//! completions: request `i` of a run at rate `qps` is due at
//! `start + i/qps`, and its latency is measured from that *scheduled*
//! instant. If the server falls behind, requests queue behind the
//! schedule and the queueing delay lands in the measured latency —
//! exactly the delay a closed-loop harness (next request only after the
//! previous response) silently hides (coordinated omission).

use crate::endpoint::Endpoint;
use crate::workload::{OpKind, Request};
use pane_serve::{parse, Json};
use std::time::{Duration, Instant};

/// How to drive one run: the offered rate and the connection fan-out.
#[derive(Debug, Clone, Copy)]
pub struct RunPlan {
    /// Offered arrival rate, requests per second across all connections.
    pub qps: f64,
    /// Concurrent connections; request `i` is handled by connection
    /// `i % connections`, so the schedule interleaves evenly.
    pub connections: usize,
}

/// What happened to one scheduled request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestOutcome {
    /// Index in the generated request stream.
    pub index: usize,
    /// The op that was sent.
    pub op: OpKind,
    /// Whether the response parsed and carried `"ok":true`.
    pub ok: bool,
    /// Whether the response carried `"degraded":true` (router only).
    pub degraded: bool,
    /// The `op` echoed by the response, when present — comparing it to
    /// [`RequestOutcome::op`] detects protocol desync (an answer
    /// belonging to a different request).
    pub resp_op: Option<String>,
    /// Transport or protocol error, if the request did not complete.
    pub error: Option<String>,
    /// Completion time minus **scheduled** arrival time.
    pub latency: Duration,
}

/// Aggregate result of one open-loop run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The configured arrival rate.
    pub offered_qps: f64,
    /// Successful responses per second of wall clock — the number the
    /// knee search compares against `offered_qps`.
    pub achieved_qps: f64,
    /// Requests sent (always the full stream; open-loop never sheds).
    pub sent: usize,
    /// Responses with `"ok":true`.
    pub ok: usize,
    /// Requests that failed in transport or returned an error/non-response.
    pub errors: usize,
    /// Ok responses that were `"degraded":true`.
    pub degraded: usize,
    /// Client-side p50 latency in seconds — like p95/p99 below, the
    /// nearest-rank percentile of the ok outcomes' raw latencies.
    pub p50_s: f64,
    /// Client-side p95 latency in seconds.
    pub p95_s: f64,
    /// Client-side p99 latency in seconds.
    pub p99_s: f64,
    /// Wall-clock span from the first scheduled arrival to the last
    /// completion.
    pub wall: Duration,
    /// Per-request outcomes, ordered by stream index.
    pub outcomes: Vec<RequestOutcome>,
}

/// Executes `requests` open-loop per `plan`. `connect` builds one
/// endpoint per connection — and a replacement when a connection dies
/// mid-run (the failed request is recorded, the stream continues).
///
/// Individual request failures never abort the run; only an impossible
/// plan (zero rate or connections) is an `Err`.
pub fn run(
    plan: &RunPlan,
    requests: &[Request],
    connect: &(dyn Fn() -> Result<Box<dyn Endpoint>, String> + Sync),
) -> Result<RunReport, String> {
    // `partial_cmp`: NaN must be rejected along with zero and negatives.
    if plan.qps.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) || plan.connections == 0 {
        return Err(format!(
            "run plan needs qps > 0 and connections > 0, got {plan:?}"
        ));
    }
    let conns = plan.connections.min(requests.len().max(1));
    // A small lead so every worker is spawned and parked before the
    // first request is due — the schedule starts clean.
    let start = Instant::now() + Duration::from_millis(5);

    let mut all: Vec<RequestOutcome> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..conns)
            .map(|w| {
                scope.spawn(move || {
                    let mut endpoint: Option<Box<dyn Endpoint>> = None;
                    let mut outcomes = Vec::new();
                    for (index, request) in requests.iter().enumerate().skip(w).step_by(conns) {
                        let due = start + Duration::from_secs_f64(index as f64 / plan.qps);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        if endpoint.is_none() {
                            endpoint = match connect() {
                                Ok(e) => Some(e),
                                Err(e) => {
                                    outcomes.push(failed(index, request.op, e, due.elapsed()));
                                    continue;
                                }
                            };
                        }
                        let result = endpoint
                            .as_mut()
                            .expect("endpoint connected above")
                            .roundtrip(&request.line);
                        let latency = due.elapsed();
                        match result {
                            Ok(resp) => outcomes.push(judge(index, request.op, &resp, latency)),
                            Err(e) => {
                                // The connection is suspect either way;
                                // the next request reconnects.
                                endpoint = None;
                                outcomes.push(failed(index, request.op, e, latency));
                            }
                        }
                    }
                    outcomes
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|h| h.join().expect("loadgen worker panicked"))
            .collect()
    });
    all.sort_by_key(|o| o.index);
    let wall = start.elapsed().max(Duration::from_micros(1));

    let ok = all.iter().filter(|o| o.ok).count();
    let [p50_s, p95_s, p99_s] = latency_percentiles(&all, [0.50, 0.95, 0.99]);
    Ok(RunReport {
        offered_qps: plan.qps,
        achieved_qps: ok as f64 / wall.as_secs_f64(),
        sent: all.len(),
        ok,
        errors: all.iter().filter(|o| !o.ok).count(),
        degraded: all.iter().filter(|o| o.degraded).count(),
        p50_s,
        p95_s,
        p99_s,
        wall,
        outcomes: all,
    })
}

/// Nearest-rank percentiles, in seconds, of the ok outcomes' latencies:
/// for each `q` the sample at 1-based rank `⌈q·N⌉` of the sorted
/// latencies — the definition the repo benchmark's driver uses, so the
/// two agree. All zero when nothing succeeded.
fn latency_percentiles<const K: usize>(outcomes: &[RequestOutcome], qs: [f64; K]) -> [f64; K] {
    let mut ok: Vec<Duration> = outcomes
        .iter()
        .filter(|o| o.ok)
        .map(|o| o.latency)
        .collect();
    ok.sort_unstable();
    qs.map(|q| {
        let rank = (q * ok.len() as f64).ceil() as usize;
        ok.get(rank.max(1) - 1).map_or(0.0, Duration::as_secs_f64)
    })
}

fn failed(index: usize, op: OpKind, error: String, latency: Duration) -> RequestOutcome {
    RequestOutcome {
        index,
        op,
        ok: false,
        degraded: false,
        resp_op: None,
        error: Some(error),
        latency,
    }
}

/// Classifies one response line against the request that produced it.
fn judge(index: usize, op: OpKind, resp: &str, latency: Duration) -> RequestOutcome {
    let parsed = match parse(resp) {
        Ok(v) => v,
        Err(e) => {
            return failed(index, op, format!("unparseable response: {e}"), latency);
        }
    };
    let ok = parsed.get("ok") == Some(&Json::Bool(true));
    let error = if ok {
        None
    } else {
        Some(
            parsed
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("response without ok:true or an error field")
                .to_string(),
        )
    };
    RequestOutcome {
        index,
        op,
        ok,
        degraded: parsed.get("degraded") == Some(&Json::Bool(true)),
        resp_op: parsed.get("op").and_then(Json::as_str).map(str::to_string),
        error,
        latency,
    }
}

/// One step of the saturation search.
#[derive(Debug, Clone, Copy)]
pub struct KneePoint {
    /// The rate this step offered.
    pub offered_qps: f64,
    /// The rate the deployment delivered.
    pub achieved_qps: f64,
    /// Client-side p50 at this step, seconds.
    pub p50_s: f64,
    /// Client-side p99 at this step, seconds.
    pub p99_s: f64,
    /// Successful responses at this step.
    pub ok: usize,
}

/// Result of [`find_knee`]: the stepped trajectory and where it bent.
#[derive(Debug, Clone)]
pub struct KneeReport {
    /// Every step taken, in offered-rate order.
    pub steps: Vec<KneePoint>,
    /// Offered rate of the last step that still tracked offered load
    /// (0 if even the first step fell short).
    pub knee_qps: f64,
    /// Achieved rate at that knee step.
    pub knee_achieved_qps: f64,
    /// Whether a non-tracking step was actually observed. `false`
    /// means the search exhausted `max_steps` without saturating — the
    /// knee is a lower bound, not a measurement.
    pub saturated: bool,
}

/// Steps the offered rate geometrically (`start_qps`, ×`factor`, …, at
/// most `max_steps`) until achieved throughput stops tracking offered
/// load — `achieved/offered < tracking_threshold` — and reports the
/// last rate that tracked as the saturation knee.
///
/// `run_at` performs one run at the given rate; injecting it keeps the
/// search logic independent of transport, so tests pin the knee
/// arithmetic without a live server.
pub fn find_knee(
    start_qps: f64,
    factor: f64,
    max_steps: usize,
    tracking_threshold: f64,
    mut run_at: impl FnMut(f64) -> Result<RunReport, String>,
) -> Result<KneeReport, String> {
    // `partial_cmp`: NaN rates/factors must be rejected too.
    let gt = |a: f64, b: f64| a.partial_cmp(&b) == Some(std::cmp::Ordering::Greater);
    if !gt(start_qps, 0.0) || !gt(factor, 1.0) || max_steps == 0 {
        return Err(format!(
            "knee search needs start_qps > 0, factor > 1, max_steps > 0; \
             got {start_qps}, {factor}, {max_steps}"
        ));
    }
    let mut steps = Vec::new();
    let mut knee: Option<(f64, f64)> = None;
    let mut saturated = false;
    let mut qps = start_qps;
    for _ in 0..max_steps {
        let report = run_at(qps)?;
        steps.push(KneePoint {
            offered_qps: qps,
            achieved_qps: report.achieved_qps,
            p50_s: report.p50_s,
            p99_s: report.p99_s,
            ok: report.ok,
        });
        if report.achieved_qps / qps < tracking_threshold {
            saturated = true;
            break;
        }
        knee = Some((qps, report.achieved_qps));
        qps *= factor;
    }
    let (knee_qps, knee_achieved_qps) = knee.unwrap_or((0.0, 0.0));
    Ok(KneeReport {
        steps,
        knee_qps,
        knee_achieved_qps,
        saturated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorkloadConfig;
    use crate::endpoint::HandlerEndpoint;
    use crate::workload::generate_requests;
    use pane_serve::LineHandler;
    use std::sync::Arc;

    /// A handler that answers instantly, echoing the request op; every
    /// `fail_every`-th request (1-based) gets a remote error instead.
    struct Echo {
        fail_every: usize,
        seen: std::sync::atomic::AtomicUsize,
    }

    impl LineHandler for Echo {
        fn handle(&self, line: &str) -> (String, bool) {
            let n = self.seen.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
            if self.fail_every != 0 && n.is_multiple_of(self.fail_every) {
                return (r#"{"ok":false,"error":"synthetic"}"#.into(), true);
            }
            let op = parse(line)
                .ok()
                .and_then(|v| v.get("op").and_then(Json::as_str).map(str::to_string))
                .unwrap_or_default();
            (format!(r#"{{"ok":true,"op":"{op}","results":[]}}"#), true)
        }
    }

    fn run_against(fail_every: usize, count: usize, qps: f64) -> RunReport {
        let handler = Arc::new(Echo {
            fail_every,
            seen: std::sync::atomic::AtomicUsize::new(0),
        });
        let requests = generate_requests(&WorkloadConfig::default(), 100, 4, count);
        let connect = move || -> Result<Box<dyn Endpoint>, String> {
            Ok(Box::new(HandlerEndpoint::new(Arc::clone(&handler))))
        };
        run(
            &RunPlan {
                qps,
                connections: 3,
            },
            &requests,
            &connect,
        )
        .unwrap()
    }

    #[test]
    fn open_loop_run_completes_the_stream_and_accounts_every_request() {
        let report = run_against(0, 60, 2000.0);
        assert_eq!(report.sent, 60);
        assert_eq!(report.ok, 60);
        assert_eq!(report.errors, 0);
        assert!(report.achieved_qps > 0.0);
        // Outcomes come back in stream order with op echoes intact.
        for (i, o) in report.outcomes.iter().enumerate() {
            assert_eq!(o.index, i);
            assert_eq!(o.resp_op.as_deref(), Some(o.op.wire_name()));
        }
        // An instant server keeps pace: a 60-request run at 2000 qps
        // spans ~30ms of schedule.
        assert!(report.wall < Duration::from_secs(5));
    }

    #[test]
    fn remote_errors_are_recorded_not_fatal() {
        let report = run_against(5, 50, 5000.0);
        assert_eq!(report.sent, 50);
        assert_eq!(report.errors, 10);
        assert_eq!(report.ok, 40);
        let failed = report.outcomes.iter().find(|o| !o.ok).unwrap();
        assert_eq!(failed.error.as_deref(), Some("synthetic"));
    }

    /// Percentiles are sample values, not histogram bucket edges: for
    /// 200 latencies strictly inside the (2.048 ms, 4.096 ms] log bucket
    /// a bucketed quantile would answer 4.096 ms three times.
    #[test]
    fn percentiles_are_nearest_rank_sample_values() {
        let at = |i: u64| Duration::from_micros(3000 + i);
        let ok = |i: u64| RequestOutcome {
            ok: true,
            ..failed(i as usize, OpKind::SimilarNodes, String::new(), at(i))
        };
        let mut outcomes: Vec<_> = (0..200).rev().map(ok).collect();
        // A failed request's latency (a timeout, say) is not a sample.
        let timeout = Duration::from_secs(5);
        outcomes.push(failed(200, OpKind::Insert, "timeout".into(), timeout));
        let [p50, p95, p99, max] = latency_percentiles(&outcomes, [0.50, 0.95, 0.99, 1.0]);
        assert_eq!(p50, at(99).as_secs_f64());
        assert_eq!(p95, at(189).as_secs_f64());
        assert_eq!(p99, at(197).as_secs_f64());
        assert_eq!(max, at(199).as_secs_f64());
        assert!(p50 <= p95 && p95 <= p99 && p99 <= max);
        assert_eq!(latency_percentiles(&outcomes[200..], [0.5]), [0.0]);
    }

    #[test]
    fn zero_rate_plans_are_rejected() {
        assert!(run(
            &RunPlan {
                qps: 0.0,
                connections: 1
            },
            &[],
            &|| Err("never called".into()),
        )
        .is_err());
    }

    #[test]
    fn knee_search_stops_where_throughput_stops_tracking() {
        // A fake deployment that caps out at 100 qps.
        let fake = |qps: f64| -> Result<RunReport, String> {
            let achieved = qps.min(100.0);
            Ok(RunReport {
                offered_qps: qps,
                achieved_qps: achieved,
                sent: 0,
                ok: 0,
                errors: 0,
                degraded: 0,
                p50_s: 0.001,
                p95_s: 0.002,
                p99_s: 0.004,
                wall: Duration::from_secs(1),
                outcomes: Vec::new(),
            })
        };
        let report = find_knee(25.0, 2.0, 10, 0.9, fake).unwrap();
        // 25, 50, 100 track; 200 achieves 100 (ratio 0.5) and stops.
        assert!(report.saturated);
        assert_eq!(report.steps.len(), 4);
        assert_eq!(report.knee_qps, 100.0);
        assert_eq!(report.knee_achieved_qps, 100.0);

        // A deployment that never saturates within the step budget.
        let unbounded = |qps: f64| -> Result<RunReport, String> {
            let mut r = fake(qps)?;
            r.achieved_qps = qps;
            Ok(r)
        };
        let report = find_knee(25.0, 2.0, 3, 0.9, unbounded).unwrap();
        assert!(!report.saturated);
        assert_eq!(report.steps.len(), 3);
        assert_eq!(report.knee_qps, 100.0, "last tracked step: 25*2^2");
    }

    /// Open-loop honesty: a server that stalls for 30ms per request at
    /// an offered interval of 5ms must show queueing delay growing with
    /// the schedule, measured from scheduled (not send) time.
    #[test]
    fn latency_is_measured_from_scheduled_arrival() {
        struct Slow;
        impl LineHandler for Slow {
            fn handle(&self, _line: &str) -> (String, bool) {
                std::thread::sleep(Duration::from_millis(30));
                (
                    r#"{"ok":true,"op":"similar-nodes","results":[]}"#.into(),
                    true,
                )
            }
        }
        let handler = Arc::new(Slow);
        let requests = generate_requests(&WorkloadConfig::default(), 100, 4, 8);
        let connect = move || -> Result<Box<dyn Endpoint>, String> {
            Ok(Box::new(HandlerEndpoint::new(Arc::clone(&handler))))
        };
        // One connection at 200 qps: request i is due at 5ms·i but each
        // takes 30ms, so request 7 completes ≥ (30·8 − 5·7)ms after its
        // scheduled arrival — far beyond its own 30ms service time.
        let report = run(
            &RunPlan {
                qps: 200.0,
                connections: 1,
            },
            &requests,
            &connect,
        )
        .unwrap();
        let last = report.outcomes.last().unwrap();
        assert!(
            last.latency > Duration::from_millis(150),
            "queueing delay missing from open-loop latency: {:?}",
            last.latency
        );
    }
}
