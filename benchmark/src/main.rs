//! The repo benchmark: one command per workload runs the real build path
//! (graph files → embedding → indexes → store generation) and the real
//! serve path (request line → response line) in one process, checks the
//! outputs, and prints every metric by name. See README.md.
//!
//! ```text
//! pane-benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! pane-benchmark --self-test
//! pane-benchmark --calibrate <runs>
//! ```

mod build;
mod calibrate;
mod cycle;
mod driver;
mod layers;
mod serve;
mod setup;
mod stats;
mod trace;
mod workloads;

use pane::pane_serve::{ServeEngine, ShardedEngine};
use std::path::PathBuf;
use std::time::Instant;
use workloads::Workload;

pub type Res<T> = Result<T, String>;

/// `.ctx("what")` turns any displayable error into the run's error string.
pub trait Ctx<T> {
    fn ctx(self, what: &str) -> Res<T>;
}

impl<T, E: std::fmt::Display> Ctx<T> for Result<T, E> {
    fn ctx(self, what: &str) -> Res<T> {
        self.map_err(|e| format!("{what}: {e}"))
    }
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// One workload run: what every phase needs to know.
pub struct Run {
    pub wl: Workload,
    pub seed: u64,
    /// Threads given to `Pane::embed` and the index builds: every core of
    /// the machine, as a user would. (The serving engine has
    /// `SERVE_THREADS`.)
    pub threads: usize,
    /// Scratch directory of this run, removed when it ends.
    pub work: PathBuf,
}

/// `run_seconds` in BENCHMARK.json: the default of `--seconds`, and what
/// `--calibrate` runs with.
pub const RUN_SECONDS: u64 = 30;
/// Everything the benchmark writes goes under this directory of the
/// current directory (the checkout root).
const WORK_ROOT: &str = ".bench_work";

pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: usize,
}

/// The traced run: one set-up, then every layer probe once.
fn traced<B: serve::Backend>(run: &Run) -> Res<Report> {
    let inp = setup::set_up(&run.wl, run.seed, &run.work.join("input"))?;
    let mut tracer = trace::Tracer::new();
    let (metrics, attempted) = layers::traced_run::<B>(run, &inp, &mut tracer)?;
    let path = PathBuf::from(WORK_ROOT).join(format!("trace-{}.jsonl", run.wl.name));
    tracer.write_jsonl(&path, run.wl.name).ctx("write trace")?;
    Ok(Report { metrics, attempted })
}

fn measure<B: serve::Backend>(run: &Run, seconds: u64, trace: bool) -> Res<Report> {
    if trace {
        traced::<B>(run)
    } else {
        cycle::run_cycles::<B>(run, seconds)
    }
}

/// Runs one workload in a scratch directory of its own and removes it.
fn run_workload(wl: Workload, seed: u64, seconds: u64, trace: bool) -> Res<Report> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let work = PathBuf::from(WORK_ROOT).join(format!("run-{}-{}", std::process::id(), wl.name));
    std::fs::create_dir_all(&work).ctx("create work dir")?;
    let sharded = wl.shards > 1;
    let run = Run {
        wl,
        seed,
        threads,
        work,
    };
    let report = if sharded {
        measure::<ShardedEngine>(&run, seconds, trace)
    } else {
        measure::<ServeEngine>(&run, seconds, trace)
    };
    std::fs::remove_dir_all(&run.work).ctx("remove work dir")?;
    let report = report?;
    // NaN and inf are not JSON: a metric that is one is a fault of the
    // benchmark, and the run fails instead of printing it.
    if let Some(bad) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!(
            "{}: metric {} is {}",
            run.wl.name, bad.name, bad.value
        ));
    }
    Ok(report)
}

/// Prints each metric as `name value unit`, then the result as one JSON
/// object on the last line.
fn print_report(report: &Report) {
    for m in &report.metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                r#""{}": {{"value": {}, "unit": "{}"}}"#,
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        r#"{{"correct": true, "attempted": {}, "failed": 0, "metrics": {{{}}}}}"#,
        report.attempted,
        metrics.join(", ")
    );
}

/// Every phase and every check on all four workloads at smoke scale,
/// untraced (0 seconds: the warm-up cycle and `MIN_CYCLES` timed ones) and
/// traced.
fn self_test() -> Res<()> {
    let started = Instant::now();
    for wl in workloads::all() {
        for trace in [false, true] {
            let t = Instant::now();
            let report = run_workload(wl.smoke(), 1, 0, trace)?;
            println!(
                "ok {} trace={} metrics={} requests={} ({:.2} s)",
                wl.name,
                u8::from(trace),
                report.metrics.len(),
                report.attempted,
                t.elapsed().as_secs_f64()
            );
        }
    }
    println!(
        "self-test passed in {:.2} s",
        started.elapsed().as_secs_f64()
    );
    Ok(())
}

fn usage() -> String {
    let mut text = String::from(
        "usage: pane-benchmark --workload <name> --seed <u64> [--seconds <n>] [--trace <0|1>]\n       \
         pane-benchmark --self-test\n       pane-benchmark --calibrate <runs>\nworkloads:",
    );
    for wl in workloads::all() {
        text.push_str(&format!("\n  {}: {}", wl.name, wl.why));
    }
    text
}

fn real_main() -> Res<()> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = RUN_SECONDS;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            return self_test();
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let number = || value.parse::<u64>().ctx(&format!("{flag} {value}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            "--calibrate" => return calibrate::calibrate(number()? as usize),
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    let (Some(name), Some(seed)) = (workload, seed) else {
        return Err(usage());
    };
    let wl = workloads::all()
        .into_iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name}\n{}", usage()))?;
    print_report(&run_workload(wl, seed, seconds, trace)?);
    Ok(())
}

fn main() {
    if let Err(e) = real_main() {
        eprintln!("pane-benchmark: {e}");
        std::process::exit(1);
    }
}
