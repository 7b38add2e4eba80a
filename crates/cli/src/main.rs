//! `pane` — command-line interface to the PANE reproduction.
//!
//! ```text
//! pane embed    GRAPH [--dim 128] [--alpha 0.5] [--eps 0.015] [--threads 1]
//!               [--seed 0] --output EMB [--text]
//! pane generate --zoo cora-like [--scale 1.0] [--seed 42] --out-dir DIR
//! pane stats    GRAPH
//! pane serve        --store DIR (--stdio | --listen ADDR) [--threads 1]
//!                   [--log-json PATH] [--log-level warn] [--slow-query-ms N]
//! pane route        --shards ADDR,ADDR,… (--stdio | --listen ADDR)
//!                   [--connect-timeout-ms 1000] [--request-timeout-ms 10000]
//!                   [--retries 2] [--probe-interval-ms 2000]
//!                   [--log-json PATH] [--log-level warn] [--slow-query-ms N]
//! pane metrics      --addr ADDR [--json]
//!                   [--connect-timeout-ms 1000] [--request-timeout-ms 10000]
//! pane bench serve  --addr ADDR [--qps 200] [--duration-ms 2000]
//!                   [--connections 4] [--mix q90/i10] [--skew uniform|zipf:1.1]
//!                   [--batch 4|1..16] [--k 10] [--seed 42] [--timeout-ms 5000]
//!                   [--knee] [--knee-factor 2] [--knee-steps 6]
//!                   [--knee-threshold 0.9]
//! pane store init     --embedding EMB [--text] --dir DIR [--shards N]
//!                     [--kind flat|ivf|hnsw|sqflat] [--lists 64] [--nprobe 8]
//!                     [--iters 10] [--m 16] [--efc 100] [--ef 64] [--rerank 4]
//!                     [--seed 0] [--threads 1]
//! pane store snapshot --dir DIR [--threads 1]
//! pane store status   --dir DIR
//! pane evaluate GRAPH [--dim 64] [--alpha 0.5] [--eps 0.015] [--threads 1] [--seed 0]
//! pane convert  GRAPH --output G|DIR
//!
//! GRAPH: --edges E.txt [--attrs A.txt] [--labels L.txt] [--undirected] | --binary G
//! ```
//!
//! `embed` writes `EMB` as a `PANECOL1` container (`--text`: the
//! line-oriented text form), the one binary container every reader
//! takes; `convert` writes a graph as one. A file in a removed stream
//! format — an embedding, index or graph stream — is refused by name,
//! with the remedy, and so is a store whose manifest names a `PANEEMB1`
//! generation.

mod args;

use args::{ArgError, Args};
use pane_core::{Pane, PaneConfig};
use pane_datasets::DatasetZoo;
use pane_graph::io::{load_graph, load_graph_columns};
use pane_index::{HnswConfig, IndexSpec, IvfConfig, SqConfig};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    #[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
    if let Some(why) = host_refusal(host_has_avx2()) {
        eprintln!("error: {why}");
        return ExitCode::FAILURE;
    }
    run()
}

/// Why this build cannot run on a host without AVX2, or `None` when the
/// host has it. The workspace builds for x86-64-v3 (`.cargo/config.toml`),
/// whose code dies with `SIGILL` on an older CPU; the message names the
/// rebuild that runs there. A `&'static str`, so refusing copies nothing:
/// a copy compiled for v3 may itself use AVX registers.
#[cfg_attr(
    not(all(target_arch = "x86_64", target_feature = "avx2")),
    allow(dead_code)
)]
fn host_refusal(has_avx2: bool) -> Option<&'static str> {
    (!has_avx2).then_some(
        "this build of pane targets x86-64-v3 and this CPU lacks AVX2; \
         rebuild it for the baseline with \
         RUSTFLAGS=\"-C target-cpu=x86-64\" cargo build --release",
    )
}

/// Whether the CPU has AVX2 and the OS saves the `ymm` registers, read
/// from CPUID and XGETBV as the processor manuals prescribe. This is the
/// one CPU detection in the workspace. The standard library's detection
/// macro cannot be it: in a build whose target enables AVX2 it folds to
/// `true` at compile time.
#[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
fn host_has_avx2() -> bool {
    use std::arch::x86_64::{__cpuid, __cpuid_count, _xgetbv};
    let osxsave_avx = 1 << 27 | 1 << 28;
    if __cpuid(1).ecx & osxsave_avx != osxsave_avx {
        return false;
    }
    // SAFETY: CPUID.1:ECX.OSXSAVE is set: the CPU has XSAVE and the OS
    // has enabled XGETBV.
    let ymm_saved = unsafe { _xgetbv(0) } & 0b110 == 0b110;
    ymm_saved && __cpuid(0).eax >= 7 && __cpuid_count(7, 0).ebx & 1 << 5 != 0
}

/// Everything `pane` does once the host can run it: one subcommand. Out
/// of line, so none of its code is scheduled ahead of the host check.
#[inline(never)]
fn run() -> ExitCode {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() || raw[0] == "--help" || raw[0] == "help" {
        print_help();
        return ExitCode::SUCCESS;
    }
    let cmd = raw.remove(0);
    let result = match cmd.as_str() {
        "embed" => cmd_embed(raw),
        "generate" => cmd_generate(raw),
        "stats" => cmd_stats(raw),
        "serve" => cmd_serve(raw),
        "route" => cmd_route(raw),
        "metrics" => cmd_metrics(raw),
        "bench" => cmd_bench(raw),
        "store" => cmd_store(raw),
        "evaluate" => cmd_evaluate(raw),
        "convert" => cmd_convert(raw),
        other => Err(format!("unknown command '{other}' (try `pane help`)").into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

fn print_help() {
    println!(
        "pane — scalable attributed network embedding (PANE, VLDB 2020 reproduction)\n\n\
         commands:\n\
           embed     embed a graph (text files or --binary), write the embedding (PANECOL1 or --text)\n\
           generate  generate a synthetic dataset from the zoo\n\
           stats     print Table-3-style statistics of a graph\n\
           serve     serve a store (made by `store init`) over TCP or stdio: similar nodes, links, attributes\n\
           route     run the merging query router over shard daemons (same protocol)\n\
           metrics   scrape a live serve/route endpoint's metrics (Prometheus text or JSON)\n\
           bench     drive a live serve/route endpoint with open-loop load (saturation search)\n\
           store     manage durable store directories (init / snapshot / status)\n\
           evaluate  run the three-task quality report on a graph\n\
           convert   convert a text graph to a PANECOL1 graph container (--binary: back to text)\n\n\
         run `pane <command>` with no options to see its usage in the error message."
    );
}

/// The one graph loader: a `PANECOL1` graph container (`--binary`) or the
/// text triple. The container carries its own undirected bit, so text
/// options next to `--binary` are an argument error, not ignored.
fn load_from_args(a: &Args) -> Result<pane_graph::AttributedGraph, Box<dyn std::error::Error>> {
    if let Some(bin) = a.get("binary") {
        let text = ["edges", "attrs", "labels"]
            .into_iter()
            .find(|k| a.get(k).is_some());
        if let Some(k) = text.or(a.flag("undirected").then_some("undirected")) {
            return Err(ArgError(format!("--binary replaces --{k}")).into());
        }
        return Ok(load_graph_columns(std::path::Path::new(bin))?);
    }
    let edges = PathBuf::from(a.require("edges")?);
    let attrs = a.get("attrs").map(PathBuf::from);
    let labels = a.get("labels").map(PathBuf::from);
    let g = load_graph(
        &edges,
        attrs.as_deref(),
        labels.as_deref(),
        None,
        None,
        a.flag("undirected"),
    )?;
    Ok(g)
}

fn reject_positionals(a: &Args) -> Result<(), ArgError> {
    if let Some(extra) = a.positional().first() {
        return Err(ArgError(format!("unexpected argument '{extra}'")));
    }
    Ok(())
}

fn cmd_embed(raw: Vec<String>) -> CliResult {
    let a = Args::parse(raw, &["undirected", "text"])?;
    reject_positionals(&a)?;
    a.reject_unknown(&[
        "edges", "attrs", "labels", "binary", "dim", "alpha", "eps", "threads", "seed", "output",
    ])?;
    let threads = a.get_count("threads", 1)?;
    let g = load_from_args(&a)?;
    eprintln!("loaded graph: {}", g.stats());

    let config = PaneConfig::builder()
        .dimension(a.get_parsed("dim", 128usize)?)
        .alpha(a.get_parsed("alpha", 0.5f64)?)
        .error_threshold(a.get_parsed("eps", 0.015f64)?)
        .threads(threads)
        .seed(a.get_parsed("seed", 0u64)?)
        .try_build()?;
    let output = PathBuf::from(a.require("output")?);

    let emb = Pane::new(config).embed(&g)?;
    eprintln!(
        "embedded in {:.2}s (affinity {:.2}s, init {:.2}s, ccd {:.2}s); objective {:.3e}",
        emb.timings.total_secs(),
        emb.timings.affinity_secs,
        emb.timings.init_secs,
        emb.timings.ccd_secs,
        emb.objective
    );
    if a.flag("text") {
        pane_core::save_text(&emb, &output)?;
    } else {
        pane_core::save_columns(&emb, &output)?;
    }
    eprintln!("wrote {}", output.display());
    Ok(())
}

fn cmd_generate(raw: Vec<String>) -> CliResult {
    let a = Args::parse(raw, &[])?;
    reject_positionals(&a)?;
    a.reject_unknown(&["zoo", "scale", "seed", "out-dir"])?;
    let name = a.require("zoo")?;
    let zoo = DatasetZoo::ALL
        .into_iter()
        .find(|z| z.name() == name)
        .ok_or_else(|| {
            let names: Vec<&str> = DatasetZoo::ALL.iter().map(|z| z.name()).collect();
            ArgError(format!(
                "unknown zoo entry '{name}'; options: {}",
                names.join(", ")
            ))
        })?;
    let scale = a.get_parsed("scale", 1.0f64)?;
    let seed = a.get_parsed("seed", 42u64)?;
    let dir = PathBuf::from(a.require("out-dir")?);
    std::fs::create_dir_all(&dir)?;

    let ds = zoo.generate_scaled(scale, seed);
    eprintln!("generated {}: {}", zoo.name(), ds.graph.stats());
    pane_graph::io::save_graph(
        &ds.graph,
        &dir.join("edges.txt"),
        &dir.join("attributes.txt"),
        &dir.join("labels.txt"),
    )?;
    eprintln!(
        "wrote edges.txt, attributes.txt, labels.txt under {}",
        dir.display()
    );
    Ok(())
}

fn cmd_stats(raw: Vec<String>) -> CliResult {
    let a = Args::parse(raw, &["undirected"])?;
    reject_positionals(&a)?;
    a.reject_unknown(&["edges", "attrs", "labels", "binary"])?;
    let g = load_from_args(&a)?;
    let s = g.stats();
    println!("{s}");
    // Extra diagnostics beyond Table 3.
    let n = g.num_nodes().max(1);
    let dangling = (0..g.num_nodes()).filter(|&v| g.out_degree(v) == 0).count();
    let attributed = (0..g.num_nodes())
        .filter(|&v| !g.node_attributes(v).0.is_empty())
        .count();
    println!("avg out-degree: {:.2}", g.num_edges() as f64 / n as f64);
    println!(
        "dangling nodes: {dangling} ({:.1}%)",
        100.0 * dangling as f64 / n as f64
    );
    println!(
        "attributed nodes: {attributed} ({:.1}%)",
        100.0 * attributed as f64 / n as f64
    );
    println!(
        "avg attributes per node: {:.2}",
        g.num_attribute_entries() as f64 / n as f64
    );
    let deg = pane_graph::analysis::degree_stats(&g);
    println!(
        "out-degree min/median/max: {}/{}/{} (top-1% share {:.1}%)",
        deg.min,
        deg.median,
        deg.max,
        deg.top1pct_share * 100.0
    );
    println!(
        "largest weakly connected component: {:.1}%",
        pane_graph::analysis::largest_component_fraction(&g) * 100.0
    );
    Ok(())
}

fn cmd_evaluate(raw: Vec<String>) -> CliResult {
    let a = Args::parse(raw, &["undirected"])?;
    reject_positionals(&a)?;
    a.reject_unknown(&[
        "edges", "attrs", "labels", "dim", "alpha", "eps", "threads", "seed", "binary",
    ])?;
    let threads = a.get_count("threads", 1)?;
    let g = load_from_args(&a)?;
    eprintln!("loaded graph: {}", g.stats());
    let config = PaneConfig::builder()
        .dimension(a.get_parsed("dim", 64usize)?)
        .alpha(a.get_parsed("alpha", 0.5f64)?)
        .error_threshold(a.get_parsed("eps", 0.015f64)?)
        .threads(threads)
        .seed(a.get_parsed("seed", 0u64)?)
        .try_build()?;
    let card = pane_eval::report_card(&g, &pane_eval::ReportOptions::default(), |residual| {
        Pane::new(config.clone()).embed(residual)
    })?;
    println!("{card}");
    Ok(())
}

fn cmd_convert(raw: Vec<String>) -> CliResult {
    let a = Args::parse(raw, &["undirected"])?;
    reject_positionals(&a)?;
    a.reject_unknown(&["edges", "attrs", "labels", "output", "binary"])?;
    let out = PathBuf::from(a.require("output")?);
    let g = load_from_args(&a)?;
    if a.get("edges").is_some() {
        pane_graph::io::save_graph_columns(&g, &out)?;
        eprintln!("wrote graph container {} ({})", out.display(), g.stats());
    } else {
        // container -> text triple (output is a directory)
        std::fs::create_dir_all(&out)?;
        pane_graph::io::save_graph(
            &g,
            &out.join("edges.txt"),
            &out.join("attributes.txt"),
            &out.join("labels.txt"),
        )?;
        eprintln!("wrote text graph under {}", out.display());
    }
    Ok(())
}

fn load_embedding_from_args(
    a: &Args,
) -> Result<pane_core::PaneEmbedding, Box<dyn std::error::Error>> {
    let path = PathBuf::from(a.require("embedding")?);
    Ok(if a.flag("text") {
        pane_core::load_text(&path)?
    } else {
        pane_core::load_columns(&path)?
    })
}

/// Parses `--kind` + build parameters into a validated [`IndexSpec`] — the
/// only flags → recipe code (`store init`).
fn spec_from_args(a: &Args) -> Result<IndexSpec, Box<dyn std::error::Error>> {
    let spec = match a.get("kind").unwrap_or("hnsw") {
        "flat" => IndexSpec::Flat,
        "ivf" => IndexSpec::Ivf(IvfConfig {
            nlist: a.get_parsed("lists", 64usize)?,
            nprobe: a.get_parsed("nprobe", 8usize)?,
            train_iters: a.get_parsed("iters", 10usize)?,
            seed: a.get_parsed("seed", 0u64)?,
            threads: 1,
        }),
        "hnsw" => IndexSpec::Hnsw(HnswConfig {
            m: a.get_parsed("m", 16usize)?,
            ef_construction: a.get_parsed("efc", 100usize)?,
            ef_search: a.get_parsed("ef", 64usize)?,
            seed: a.get_parsed("seed", 0u64)?,
        }),
        "sqflat" => IndexSpec::SqFlat(SqConfig {
            rerank: a.get_parsed("rerank", SqConfig::default().rerank)?,
        }),
        other => return Err(format!("unknown index kind '{other}' (flat|ivf|hnsw|sqflat)").into()),
    };
    spec.validate()?;
    Ok(spec)
}

/// Builds the structured tracer shared by `pane serve` and `pane route`
/// from `--log-json PATH` (JSON-lines file; default stderr),
/// `--log-level error|warn|info|debug|off` (default `warn`) and
/// `--slow-query-ms N` (off unless given).
fn tracer_from_args(a: &Args) -> Result<pane_obs::Tracer, Box<dyn std::error::Error>> {
    use pane_obs::{Level, Tracer};
    let slow = a
        .get("slow-query-ms")
        .map(|v| {
            v.parse::<u64>()
                .map_err(|e| format!("--slow-query-ms: {e}"))
        })
        .transpose()?
        .map(std::time::Duration::from_millis);
    let spec = a.get("log-level").unwrap_or("warn");
    let tracer = if spec == "off" {
        Tracer::disabled()
    } else {
        let level = Level::parse(spec)
            .ok_or_else(|| format!("unknown log level '{spec}' (error|warn|info|debug|off)"))?;
        match a.get("log-json") {
            Some(path) => Tracer::to_file(std::path::Path::new(path), level)
                .map_err(|e| format!("--log-json {path}: {e}"))?,
            None => Tracer::to_stderr(level),
        }
    };
    Ok(tracer.with_slow_query(slow))
}

/// The transport `--stdio` / `--listen ADDR` selects: `None` for stdio,
/// else the address. Exactly one must be given.
fn transport_from_args(a: &Args) -> Result<Option<&str>, Box<dyn std::error::Error>> {
    match (a.flag("stdio"), a.get("listen")) {
        (true, None) => Ok(None),
        (false, Some(addr)) => Ok(Some(addr)),
        _ => Err("give exactly one transport: --stdio or --listen ADDR".into()),
    }
}

/// Runs the selected transport over any JSON-lines endpoint — an engine
/// behind a lock or the query router.
fn run_transport<H: pane_serve::LineHandler + 'static>(
    handler: H,
    listen: Option<&str>,
) -> CliResult {
    let Some(addr) = listen else {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        pane_serve::serve_lines(&handler, stdin.lock(), stdout.lock())?;
        return Ok(());
    };
    let listener =
        std::net::TcpListener::bind(addr).map_err(|e| format!("cannot listen on {addr}: {e}"))?;
    // Tests and scripts parse this line to find an OS-assigned port.
    eprintln!("listening on {}", listener.local_addr()?);
    pane_serve::serve_tcp(std::sync::Arc::new(handler), listener)?;
    Ok(())
}

/// Serves an engine opened over a store directory (single or sharded) on
/// the selected transport, instrumented: per-op metrics, the `metrics`
/// protocol op, structured boot/snapshot events and the slow-query log all
/// come from the [`pane_serve::ObservedHandler`] wrapper.
fn serve_store<B: pane_serve::ServeBackend + 'static>(
    engine: B,
    obs: pane_serve::ServeObs,
    listen: Option<&str>,
) -> CliResult {
    let st = engine.status();
    let store = st.store.expect("an engine opened over a store reports it");
    eprintln!(
        "serving {} nodes{} (k/2 = {}, {} threads; generation {}, replayed {} WAL records)",
        st.nodes,
        st.shards
            .map_or(String::new(), |n| format!(" across {n} shards")),
        st.half_dim,
        st.threads,
        store.generation,
        store.replayed,
    );
    let handler = pane_serve::ObservedHandler::new(engine, std::sync::Arc::new(obs));
    run_transport(handler, listen)
}

fn cmd_serve(raw: Vec<String>) -> CliResult {
    let a = Args::parse(raw, &["stdio"])?;
    reject_positionals(&a)?;
    a.reject_unknown(&[
        "store",
        "threads",
        "listen",
        "log-json",
        "log-level",
        "slow-query-ms",
    ])?;
    let threads = a.get_count("threads", 1)?;
    // A store directory (single or sharded) created by `pane store init`:
    // inserts are WAL-backed, `snapshot` works, and a restart replays
    // everything acknowledged since the last snapshot.
    let dir = std::path::Path::new(a.require("store")?);
    // Every flag is checked before the store is opened: opening loads the
    // generation, replays the WAL and takes the store lock.
    let listen = transport_from_args(&a)?;
    let obs = pane_serve::ServeObs::new(tracer_from_args(&a)?);
    match pane_store::ShardedStore::shard_count(dir)? {
        Some(_) => serve_store(pane_serve::ShardedEngine::open(dir, threads)?, obs, listen),
        None => serve_store(pane_serve::ServeEngine::open(dir, threads)?, obs, listen),
    }
}

fn cmd_route(raw: Vec<String>) -> CliResult {
    let a = Args::parse(raw, &["stdio"])?;
    reject_positionals(&a)?;
    a.reject_unknown(&[
        "shards",
        "listen",
        "connect-timeout-ms",
        "request-timeout-ms",
        "retries",
        "probe-interval-ms",
        "log-json",
        "log-level",
        "slow-query-ms",
    ])?;
    // One `pane serve --store shard-<s>/` daemon per address, in shard order.
    let addrs: Vec<String> = a
        .require("shards")?
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    if addrs.is_empty() {
        return Err("--shards needs at least one address".into());
    }
    let ms = std::time::Duration::from_millis;
    let config = pane_serve::ClientConfig {
        connect_timeout: ms(a.get_parsed("connect-timeout-ms", 1_000u64)?),
        request_timeout: ms(a.get_parsed("request-timeout-ms", 10_000u64)?),
        retries: a.get_parsed("retries", 2usize)?,
        probe_interval: ms(a.get_parsed("probe-interval-ms", 2_000u64)?),
        ..Default::default()
    };
    let listen = transport_from_args(&a)?;
    let obs = std::sync::Arc::new(pane_serve::ServeObs::for_router(tracer_from_args(&a)?));
    let router = pane_serve::Router::connect_with(&addrs, config, obs)?;
    eprintln!(
        "routing over {} shard daemons: {}",
        router.num_shards(),
        addrs.join(", ")
    );
    run_transport(router, listen)
}

fn cmd_metrics(raw: Vec<String>) -> CliResult {
    let a = Args::parse(raw, &["json"])?;
    reject_positionals(&a)?;
    a.reject_unknown(&["addr", "connect-timeout-ms", "request-timeout-ms"])?;
    let addr = a.require("addr")?;
    let ms = std::time::Duration::from_millis;
    let config = pane_serve::ClientConfig {
        connect_timeout: ms(a.get_parsed("connect-timeout-ms", 1_000u64)?),
        request_timeout: ms(a.get_parsed("request-timeout-ms", 10_000u64)?),
        retries: 0,
        ..Default::default()
    };
    let client = pane_serve::ShardClient::new(addr, config);
    let resp = client
        .request(r#"{"op":"metrics"}"#)
        .map_err(|e| format!("{addr}: {e}"))?;
    if resp.get("ok") != Some(&pane_serve::Json::Bool(true)) {
        let msg = resp
            .get("error")
            .and_then(|v| v.as_str())
            .unwrap_or("request failed");
        return Err(format!("{addr}: {msg}").into());
    }
    if a.flag("json") {
        let metrics = resp
            .get("metrics")
            .ok_or("response carried no metrics object")?;
        println!("{}", metrics.to_line());
    } else {
        let text = resp
            .get("text")
            .and_then(|v| v.as_str())
            .ok_or("response carried no text exposition")?;
        print!("{text}");
    }
    Ok(())
}

fn cmd_bench(mut raw: Vec<String>) -> CliResult {
    if raw.is_empty() {
        return Err("bench requires a subcommand: serve".into());
    }
    let sub = raw.remove(0);
    match sub.as_str() {
        "serve" => cmd_bench_serve(raw),
        other => Err(format!("unknown bench subcommand '{other}' (serve)").into()),
    }
}

/// `pane bench serve` — open-loop load against a live `pane serve` or
/// `pane route` endpoint. Arrivals follow the configured QPS schedule
/// regardless of completions, so queueing delay lands in the reported
/// latency; `--knee` steps the rate geometrically until achieved
/// throughput stops tracking offered load. The report goes to stdout as
/// a human table and, when `PANE_BENCH_JSON` names a path, to that file
/// in the same `{"results":…,"notes":…}` shape the criterion benches
/// emit.
fn cmd_bench_serve(raw: Vec<String>) -> CliResult {
    use pane_loadgen as lg;
    use std::time::Duration;
    let a = Args::parse(raw, &["knee"])?;
    reject_positionals(&a)?;
    a.reject_unknown(&[
        "addr",
        "qps",
        "duration-ms",
        "connections",
        "mix",
        "skew",
        "batch",
        "k",
        "seed",
        "timeout-ms",
        "knee-factor",
        "knee-steps",
        "knee-threshold",
    ])?;
    let addr = a.require("addr")?.to_string();
    let qps: f64 = a.get_parsed("qps", 200.0f64)?;
    if qps.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        return Err("--qps must be > 0".into());
    }
    let duration = Duration::from_millis(a.get_parsed("duration-ms", 2_000u64)?.max(1));
    let connections: usize = a.get_parsed("connections", 4usize)?;
    let workload = lg::WorkloadConfig {
        mix: lg::Mix::parse(a.get("mix").unwrap_or("q90/i10")).map_err(ArgError)?,
        skew: lg::Skew::parse(a.get("skew").unwrap_or("uniform")).map_err(ArgError)?,
        batch: lg::BatchSpec::parse(a.get("batch").unwrap_or("4")).map_err(ArgError)?,
        k: a.get_parsed("k", 10usize)?,
        seed: a.get_parsed("seed", 42u64)?,
    };
    let timeout = Duration::from_millis(a.get_parsed("timeout-ms", 5_000u64)?);

    // One control connection probes the deployment shape and brackets
    // the run with metrics scrapes; load flows over its own connections.
    let mut control = lg::TcpEndpoint::connect(&addr, timeout)?;
    let target = lg::probe_target(&mut control)?;
    eprintln!(
        "target {addr}: {} nodes, half_dim {} | mix {} skew {} batch {} k {} seed {}",
        target.nodes,
        target.half_dim,
        workload.mix,
        workload.skew,
        workload.batch,
        workload.k,
        workload.seed
    );
    let before = lg::flatten_wire_metrics(&lg::scrape_metrics(&mut control)?);

    let connect_addr = addr.clone();
    let connect = move |_rate: f64| -> Result<Box<dyn lg::Endpoint>, String> {
        Ok(Box::new(lg::TcpEndpoint::connect(&connect_addr, timeout)?))
    };
    let run_at = |rate: f64| -> Result<lg::RunReport, String> {
        let count = (rate * duration.as_secs_f64()).ceil().max(1.0) as usize;
        let requests = lg::generate_requests(&workload, target.nodes, target.half_dim, count);
        lg::run(
            &lg::RunPlan {
                qps: rate,
                connections,
            },
            &requests,
            &|| connect(rate),
        )
    };

    let mut report = lg::BenchReport::new();
    report.note("addr", &addr);
    report.note("nodes", target.nodes);
    report.note("half_dim", target.half_dim);
    report.note("mix", workload.mix);
    report.note("skew", workload.skew);
    report.note("batch", workload.batch);
    report.note("k", workload.k);
    report.note("seed", workload.seed);
    report.note("connections", connections);
    report.note("duration_ms", duration.as_millis());

    let print_step = |r: &lg::RunReport| {
        println!(
            "offered {:>9.1} qps | achieved {:>9.1} qps | p50 {:>9.6}s p95 {:>9.6}s \
             p99 {:>9.6}s | ok {} err {} degraded {}",
            r.offered_qps, r.achieved_qps, r.p50_s, r.p95_s, r.p99_s, r.ok, r.errors, r.degraded
        );
    };

    if a.flag("knee") {
        let factor: f64 = a.get_parsed("knee-factor", 2.0f64)?;
        let max_steps: usize = a.get_parsed("knee-steps", 6usize)?;
        let threshold: f64 = a.get_parsed("knee-threshold", 0.9f64)?;
        let knee = lg::find_knee(qps, factor, max_steps, threshold, |rate| {
            let r = run_at(rate)?;
            print_step(&r);
            Ok(r)
        })?;
        for step in &knee.steps {
            report.result(
                format!("serve_qps_{:.0}", step.offered_qps),
                step.p50_s,
                0.0,
                step.ok,
            );
        }
        let last = knee.steps.last().expect("knee search takes >= 1 step");
        report.note("offered_qps", format!("{:.2}", last.offered_qps));
        report.note("achieved_qps", format!("{:.2}", last.achieved_qps));
        report.note("knee_qps", format!("{:.2}", knee.knee_qps));
        report.note(
            "knee_achieved_qps",
            format!("{:.2}", knee.knee_achieved_qps),
        );
        report.note("saturated", knee.saturated);
        println!(
            "saturation knee: {:.1} qps offered, {:.1} qps achieved ({})",
            knee.knee_qps,
            knee.knee_achieved_qps,
            if knee.saturated {
                "next step stopped tracking"
            } else {
                "lower bound — never saturated within the step budget"
            }
        );
    } else {
        let r = run_at(qps)?;
        print_step(&r);
        report.result("serve_open_loop", r.p50_s, 0.0, r.ok);
        report.note("offered_qps", format!("{:.2}", r.offered_qps));
        report.note("achieved_qps", format!("{:.2}", r.achieved_qps));
        report.note("p50_s", format!("{}", r.p50_s));
        report.note("p95_s", format!("{}", r.p95_s));
        report.note("p99_s", format!("{}", r.p99_s));
        report.note("errors", r.errors);
        report.note("degraded", r.degraded);
    }

    // Server-side deltas for free: scrape again, subtract.
    let after = lg::flatten_wire_metrics(&lg::scrape_metrics(&mut control)?);
    let delta = pane_obs::snapshot_delta(&before, &after);
    let moved: Vec<(&String, &f64)> = delta.iter().filter(|(_, &v)| v != 0.0).collect();
    eprintln!("server-side deltas ({} series moved):", moved.len());
    for (key, value) in &moved {
        eprintln!("  {key} {value:+}");
    }
    for (key, value) in &moved {
        // Requests-total deltas are the cross-check against client-side
        // accounting, so they ride along in the report notes.
        if key.starts_with("pane_requests_total") || key.starts_with("pane_router_requests_total") {
            report.note(format!("delta_{key}"), format!("{value}"));
        }
    }

    if let Some(path) = report.write_env_report()? {
        eprintln!("wrote bench report {}", path.display());
    }
    Ok(())
}

fn cmd_store(mut raw: Vec<String>) -> CliResult {
    if raw.is_empty() {
        return Err("store requires a subcommand: init | snapshot | status".into());
    }
    let sub = raw.remove(0);
    match sub.as_str() {
        "init" => cmd_store_init(raw),
        "snapshot" => cmd_store_snapshot(raw),
        "status" => cmd_store_status(raw),
        other => Err(format!("unknown store subcommand '{other}' (init|snapshot|status)").into()),
    }
}

fn cmd_store_init(raw: Vec<String>) -> CliResult {
    let a = Args::parse(raw, &["text"])?;
    reject_positionals(&a)?;
    a.reject_unknown(&[
        "embedding",
        "dir",
        "shards",
        "kind",
        "lists",
        "nprobe",
        "iters",
        "m",
        "efc",
        "ef",
        "rerank",
        "seed",
        "threads",
    ])?;
    let threads = a.get_count("threads", 1)?;
    let shards = a.get_count("shards", 1)?;
    let emb = load_embedding_from_args(&a)?;
    let dir = PathBuf::from(a.require("dir")?);
    let spec = spec_from_args(&a)?;
    let t0 = std::time::Instant::now();
    if shards > 1 {
        pane_store::ShardedStore::init(&dir, &emb, &spec, &spec, shards, threads)?;
        eprintln!(
            "initialized {shards}-way sharded store over {} nodes ({} indexes) in {:.2}s",
            emb.forward.rows(),
            spec.kind_name(),
            t0.elapsed().as_secs_f64()
        );
    } else {
        pane_store::Store::init(&dir, &emb, &spec, &spec, threads)?;
        eprintln!(
            "initialized store over {} nodes ({} indexes) in {:.2}s",
            emb.forward.rows(),
            spec.kind_name(),
            t0.elapsed().as_secs_f64()
        );
    }
    eprintln!("wrote {}", dir.display());
    Ok(())
}

fn cmd_store_snapshot(raw: Vec<String>) -> CliResult {
    use pane_serve::ServeBackend;
    let a = Args::parse(raw, &[])?;
    reject_positionals(&a)?;
    a.reject_unknown(&["dir", "threads"])?;
    let dir = PathBuf::from(a.require("dir")?);
    let threads = a.get_count("threads", 1)?;
    let t0 = std::time::Instant::now();
    let out = match pane_store::ShardedStore::shard_count(&dir)? {
        Some(_) => pane_serve::ShardedEngine::open(&dir, threads)?.snapshot()?,
        None => pane_serve::ServeEngine::open(&dir, threads)?.snapshot()?,
    };
    eprintln!(
        "snapshot complete: generation {}, folded {} WAL records in {:.2}s",
        out.generation,
        out.folded,
        t0.elapsed().as_secs_f64()
    );
    Ok(())
}

fn print_store_status(label: &str, s: &pane_store::StoreStatus) {
    println!(
        "{label}generation {} | base nodes {} | k/2 {} | wal records {} | node index {} | \
         link index {}",
        s.generation,
        s.base_nodes,
        s.half_dim,
        s.wal_records,
        s.node_spec.to_manifest(),
        s.link_spec.to_manifest(),
    );
    println!(
        "{label}  artifacts: embedding {} B | node index {} B | link index {} B | total {} B",
        s.embedding_bytes,
        s.node_index_bytes,
        s.link_index_bytes,
        s.artifact_bytes(),
    );
    if s.wal_dropped_bytes > 0 {
        println!(
            "{label}  warning: {} torn trailing WAL bytes (dropped at next open)",
            s.wal_dropped_bytes
        );
    }
}

fn cmd_store_status(raw: Vec<String>) -> CliResult {
    let a = Args::parse(raw, &[])?;
    reject_positionals(&a)?;
    a.reject_unknown(&["dir"])?;
    let dir = PathBuf::from(a.require("dir")?);
    match pane_store::ShardedStore::shard_count(&dir)? {
        Some(shards) => {
            let statuses = pane_store::ShardedStore::read_status(&dir)?;
            let nodes: usize = statuses.iter().map(|s| s.base_nodes).sum();
            let wal: usize = statuses.iter().map(|s| s.wal_records).sum();
            println!("sharded store: {shards} shards | base nodes {nodes} | wal records {wal}");
            for (i, s) in statuses.iter().enumerate() {
                print_store_status(&format!("  shard {i}: "), s);
            }
        }
        None => print_store_status("", &pane_store::read_status(&dir)?),
    }
    Ok(())
}

/// Integration tests exercise the binary end-to-end via assert-less spawns
/// in `tests/cli.rs`; unit tests for the parser live in [`args`].
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zoo_lookup_matches_names() {
        for z in DatasetZoo::ALL {
            let found = DatasetZoo::ALL.into_iter().find(|x| x.name() == z.name());
            assert_eq!(found, Some(z));
        }
    }

    #[test]
    fn a_host_without_avx2_is_refused_with_the_baseline_rebuild() {
        assert_eq!(host_refusal(true), None);
        let why = host_refusal(false).expect("a host without AVX2 is refused");
        let printed = format!("error: {why}");
        assert_eq!(printed.lines().count(), 1, "{printed}");
        assert!(printed.contains("AVX2") && printed.contains("x86-64-v3"));
        assert!(printed.contains(r#"RUSTFLAGS="-C target-cpu=x86-64""#));
    }

    #[test]
    fn reject_positionals_works() {
        let a = Args::parse(vec!["stray".to_string()], &[]).unwrap();
        assert!(reject_positionals(&a).is_err());
        let b = Args::parse(vec![], &[]).unwrap();
        assert!(reject_positionals(&b).is_ok());
    }
}
