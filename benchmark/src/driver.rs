//! The benchmark's own load driver: count-bound open and closed loops
//! over an in-process `LineHandler`.
//!
//! * **Open loop**: request `i` is *due* at `i / rate` seconds after the
//!   phase starts, whatever happened to earlier requests. `conns` sender
//!   threads take requests in order; each waits for its request's due
//!   time, or sends at once when it is already late. Latency is measured
//!   from the due time, so the wait a stall imposes on later requests
//!   counts. This models independent users.
//! * **Closed loop**: `callers` threads each own every `callers`-th
//!   request and send the next one only after the previous reply. This
//!   models callers that wait, and measures throughput.
//!
//! Both send a fixed, pre-generated list of requests — never a duration —
//! so two runs put the system through exactly the same states.

use pane::pane_serve::LineHandler;
use pane_loadgen::{OpKind, Request};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One request as the driver saw it; times are seconds since phase start.
#[derive(Clone, Copy)]
pub struct Sample {
    pub op: OpKind,
    pub due: f64,
    pub sent: f64,
    pub done: f64,
    pub ok: bool,
}

/// What one phase did (or one of its threads, before they are merged).
#[derive(Default)]
pub struct Phase {
    /// Per-request records (empty for an unrecorded closed loop).
    pub samples: Vec<Sample>,
    pub attempted: usize,
    pub failed: usize,
    /// First send to last reply, seconds.
    pub wall: f64,
    /// Response bytes received.
    pub bytes: usize,
}

impl Phase {
    pub fn qps(&self) -> f64 {
        self.attempted as f64 / self.wall
    }

    /// Counts one reply; returns whether it was good.
    fn count(&mut self, op: OpKind, reply: &str) -> bool {
        let ok = reply_ok(op, reply);
        self.attempted += 1;
        self.failed += usize::from(!ok);
        self.bytes += reply.len();
        ok
    }

    fn merged(threads: Vec<Phase>, wall: f64) -> Phase {
        let mut phase = Phase {
            wall,
            ..Phase::default()
        };
        for t in threads {
            phase.samples.extend(t.samples);
            phase.attempted += t.attempted;
            phase.failed += t.failed;
            phase.bytes += t.bytes;
        }
        phase
    }
}

/// A reply is good when it is `ok:true` and echoes the request's op. The
/// daemon serializes both as the first two fields of every success reply.
fn reply_ok(op: OpKind, reply: &str) -> bool {
    reply
        .strip_prefix(r#"{"ok":true,"op":""#)
        .and_then(|rest| rest.strip_prefix(op.wire_name()))
        .is_some_and(|rest| rest.starts_with('"'))
}

/// Sleeps until shortly before `due`, then spins: a bare sleep overshoots
/// by tens of microseconds, which would be charged to the system.
fn wait_until(start: Instant, due: f64) {
    const SPIN: f64 = 300e-6;
    loop {
        let now = start.elapsed().as_secs_f64();
        if now >= due {
            return;
        }
        if due - now > SPIN {
            std::thread::sleep(Duration::from_secs_f64(due - now - SPIN));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Sends `reqs` on a fixed schedule of `rate` requests per second over
/// `conns` sender threads.
pub fn open_loop<H: LineHandler + ?Sized>(
    handler: &H,
    reqs: &[Request],
    rate: f64,
    conns: usize,
) -> Phase {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let threads: Vec<Phase> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..conns)
            .map(|_| {
                s.spawn(|| {
                    let mut t = Phase::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(req) = reqs.get(i) else { break };
                        let due = i as f64 / rate;
                        wait_until(start, due);
                        let sent = start.elapsed().as_secs_f64();
                        let (reply, _) = handler.handle(&req.line);
                        let done = start.elapsed().as_secs_f64();
                        let ok = t.count(req.op, &reply);
                        t.samples.push(Sample {
                            op: req.op,
                            due,
                            sent,
                            done,
                            ok,
                        });
                    }
                    t
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("open-loop sender panicked"))
            .collect()
    });
    Phase::merged(threads, start.elapsed().as_secs_f64())
}

/// Sends `reqs` from `callers` threads, caller `c` owning requests
/// `c, c + callers, …`, each waiting for a reply before its next send.
/// With `record` off, no per-request records are kept.
pub fn closed_loop<H: LineHandler + ?Sized>(
    handler: &H,
    reqs: &[Request],
    callers: usize,
    record: bool,
) -> Phase {
    let start = Instant::now();
    let threads: Vec<Phase> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..callers)
            .map(|c| {
                s.spawn(move || {
                    let mut t = Phase::default();
                    for req in reqs.iter().skip(c).step_by(callers) {
                        let sent = start.elapsed().as_secs_f64();
                        let (reply, _) = handler.handle(&req.line);
                        let ok = t.count(req.op, &reply);
                        if record {
                            t.samples.push(Sample {
                                op: req.op,
                                due: sent,
                                sent,
                                done: start.elapsed().as_secs_f64(),
                                ok,
                            });
                        }
                    }
                    t
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("closed-loop caller panicked"))
            .collect()
    });
    Phase::merged(threads, start.elapsed().as_secs_f64())
}
