//! `--calibrate N`: N full runs of every workload, each in a process of
//! its own with a seed of its own (as the acceptance check runs them),
//! and the noise table that the bounds in BENCHMARK.json are set from.

use crate::stats::{median, quartiles, spread};
use crate::{workloads, Ctx, Res, RUN_SECONDS};
use pane::pane_serve::{parse, Json};
use std::collections::BTreeMap;
use std::process::Command;

/// The metrics of one child run, from the JSON object on its last line.
fn child_run(workload: &str, seed: usize) -> Res<Vec<(String, f64)>> {
    let exe = std::env::current_exe().ctx("current_exe")?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &RUN_SECONDS.to_string(), "--trace", "0"])
        .output()
        .ctx("spawn run")?;
    if !out.status.success() {
        return Err(format!(
            "{workload} seed {seed} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().ok_or("run printed nothing")?;
    let json = parse(last).ctx("parse result line")?;
    let Some(Json::Obj(metrics)) = json.get("metrics") else {
        return Err(format!("result line without metrics: {last}"));
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or("metric without value")?;
            Ok((name.clone(), value))
        })
        .collect()
}

/// Largest relative gap between the medians of two half-sets, over three
/// ways of halving the runs: first/second half, odd/even, and pairs.
fn half_set_gap(values: &[f64]) -> f64 {
    let n = values.len();
    let splits: [fn(usize, usize) -> bool; 3] =
        [|i, n| i < n / 2, |i, _| i % 2 == 0, |i, _| i / 2 % 2 == 0];
    let half = |keep: &dyn Fn(usize) -> bool| {
        let picked: Vec<f64> = (0..n).filter(|&i| keep(i)).map(|i| values[i]).collect();
        median(&picked)
    };
    splits
        .iter()
        .map(|first| (half(&|i| first(i, n)) - half(&|i| !first(i, n))).abs())
        .fold(0.0, f64::max)
        / median(values).abs()
}

pub fn calibrate(runs: usize) -> Res<()> {
    if runs < 4 {
        return Err("--calibrate needs at least 4 runs".into());
    }
    let started = std::time::Instant::now();
    println!("| workload | metric | median | q1 | q3 | IQR/median | half-set gap |");
    println!("|---|---|---|---|---|---|---|");
    // Seed-major order: each workload's runs span the whole calibration, so
    // slow drift in machine speed shows in every workload's spread.
    let all = workloads::all();
    let mut series: Vec<BTreeMap<String, Vec<f64>>> = vec![BTreeMap::new(); all.len()];
    let mut order = Vec::new();
    for seed in 1..=runs {
        for (wl, series) in all.iter().zip(&mut series) {
            let metrics = child_run(wl.name, seed)?;
            let shown: Vec<String> = metrics.iter().map(|(n, v)| format!("{n}={v:.5}")).collect();
            eprintln!(
                "{:6.0} s  {} seed {seed}: {}",
                started.elapsed().as_secs_f64(),
                wl.name,
                shown.join(" ")
            );
            if order.is_empty() {
                order = metrics.iter().map(|(n, _)| n.clone()).collect();
            }
            for (name, value) in metrics {
                series.entry(name).or_default().push(value);
            }
        }
    }
    for (wl, series) in all.iter().zip(&series) {
        for name in &order {
            let v = &series[name];
            let (q1, q3) = quartiles(v);
            println!(
                "| {} | {name} | {:.6} | {q1:.6} | {q3:.6} | {:.4} | {:.4} |",
                wl.name,
                median(v),
                spread(v),
                half_set_gap(v)
            );
        }
    }
    Ok(())
}
