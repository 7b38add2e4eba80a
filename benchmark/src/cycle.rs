//! The untraced run: whole cycles of set-up → build → serve, as many as
//! fit the run length, and the end-to-end metrics read off them.
//!
//! Every cycle does exactly the same work on the same bytes, so its
//! timings are repetitions of one measurement, spread over the whole run:
//! what disturbs the machine for some seconds falls on a few repetitions of
//! every metric, not on every repetition of one. Each timed metric is the
//! median over the cycles. Cycle 0 is the warm-up: nothing it times is
//! kept, and it carries the output checks that need the embedding or change
//! the store, and the peak resident set of a build in a fresh process.

use crate::build::{build_once, hash_tree, peak_rss_mib, reset_peak_rss};
use crate::driver::{closed_loop, open_loop};
use crate::serve::{
    all_ok, check_answers, inserts, open_handler, read_latencies_ms, slo_share, snapshot_and_check,
    warm_up, Backend,
};
use crate::setup::{set_up, Inputs};
use crate::stats::{median, percentile};
use crate::workloads::{MIN_CYCLES, SENDERS, SETUPS_PER_CYCLE};
use crate::{Ctx, Metric, Report, Res, Run};
use pane::pane_eval::scoring::PaneScorer;
use pane::pane_eval::tasks::evaluate_link_scorer;
use std::time::Instant;

/// What the cycles measured: one value per timed cycle (per set-up for
/// `setup_s`), and the quality metrics, which are functions of the seed.
#[derive(Default)]
struct Samples {
    setup_s: Vec<f64>,
    build_s: Vec<f64>,
    read_p50_ms: Vec<f64>,
    slo_share: Vec<f64>,
    closed_qps: Vec<f64>,
    /// Peak resident set of the first build: what a user's `pane embed`
    /// needs. Later builds start on what the allocator kept of earlier ones
    /// and peak 5–15 % higher, by an amount that differs from run to run.
    peak_rss_mib: f64,
    link_auc: f64,
    recall_at_10: f64,
    /// Hash of the store the first build committed; every later build
    /// must commit the same bytes.
    artifacts: Option<u64>,
    attempted: usize,
}

/// Set-ups, one build into a fresh store, and one serve pass on that
/// store: open-loop stream A, warm-up, closed-loop stream B.
fn cycle<B: Backend>(run: &Run, n: usize, s: &mut Samples) -> Res<()> {
    let wl = &run.wl;
    let timed = n > 0;
    let mut inputs: Option<Inputs> = None;
    for _ in 0..SETUPS_PER_CYCLE {
        let started = Instant::now();
        inputs = Some(set_up(wl, run.seed, &run.work.join("input"))?);
        if timed {
            s.setup_s.push(started.elapsed().as_secs_f64());
        }
    }
    let inp = inputs.expect("SETUPS_PER_CYCLE > 0");

    let dir = run.work.join("store");
    if dir.exists() {
        std::fs::remove_dir_all(&dir).ctx("remove used store")?;
    }
    if !timed {
        reset_peak_rss();
    }
    let (emb, build_s) = build_once(run, &inp, &dir)?;
    if !timed {
        s.peak_rss_mib = peak_rss_mib()?;
    }
    let hash = hash_tree(&dir)?;
    if *s.artifacts.get_or_insert(hash) != hash {
        return Err(format!("build {n} committed different artifact bytes"));
    }

    let h = open_handler::<B>(&dir)?;
    if !timed {
        s.link_auc = evaluate_link_scorer(&PaneScorer::new(&emb), &inp.split, false).auc;
        s.recall_at_10 = check_answers(&h, run, &inp, &emb)?;
        s.attempted += inp.recall.len();
    }
    drop(emb);
    let a = open_loop(&h, &inp.open, wl.open_rate, SENDERS);
    all_ok("open loop", &a)?;
    warm_up(&h, &inp)?;
    let b = closed_loop(&h, &inp.closed, wl.callers, false);
    all_ok("closed loop", &b)?;
    drop(h);
    s.attempted += a.attempted + b.attempted;

    let reads = read_latencies_ms(&a);
    let p50 = percentile(&reads, 50.0)?;
    let slo = slo_share(&a, wl.slo_ms);
    eprintln!(
        "[{}] cycle {n}: build {build_s:.3} s, p50 {p50:.3} ms, slo {slo:.4}, closed {:.0}/s",
        wl.name,
        b.qps()
    );
    if timed {
        s.build_s.push(build_s);
        s.read_p50_ms.push(p50);
        s.slo_share.push(slo);
        s.closed_qps.push(b.qps());
    } else {
        let acked = inserts(&inp.open) + inserts(&inp.closed);
        if acked > 0 {
            snapshot_and_check::<B>(run, &dir, acked)?;
        }
    }
    Ok(())
}

/// The warm-up cycle, then timed cycles until the next one would end
/// after `seconds` (but at least `MIN_CYCLES`).
pub fn run_cycles<B: Backend>(run: &Run, seconds: u64) -> Res<Report> {
    let started = Instant::now();
    let mut s = Samples::default();
    let mut n = 0;
    loop {
        let cycle_started = Instant::now();
        cycle::<B>(run, n, &mut s)?;
        let took = cycle_started.elapsed().as_secs_f64();
        let elapsed = started.elapsed().as_secs_f64();
        if n >= MIN_CYCLES && elapsed + took > seconds as f64 {
            break;
        }
        n += 1;
    }
    eprintln!(
        "[{}] {n} timed cycles in {:.1} s",
        run.wl.name,
        started.elapsed().as_secs_f64()
    );
    let m = |name, value, unit| Metric { name, value, unit };
    Ok(Report {
        metrics: vec![
            m("setup_s", median(&s.setup_s), "s"),
            m("build_s", median(&s.build_s), "s"),
            m("build_peak_rss_mib", s.peak_rss_mib, "MiB"),
            m("link_auc", s.link_auc, "ratio"),
            m("recall_at_10", s.recall_at_10, "ratio"),
            m("read_p50_ms", median(&s.read_p50_ms), "ms"),
            m("slo_share", median(&s.slo_share), "ratio"),
            m("closed_qps", median(&s.closed_qps), "1/s"),
        ],
        attempted: s.attempted,
    })
}
