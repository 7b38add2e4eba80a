//! Build path: graph files → embedding → indexes → committed store
//! generation, the paper's `O(m·d·t)` pipeline plus what serving needs.

use crate::setup::Inputs;
use crate::workloads::{Workload, ALPHA, DIMENSION, EPSILON};
use crate::{Ctx, Res, Run};
use pane::pane_core::{Pane, PaneConfig, PaneEmbedding};
use pane::pane_graph::io::load_graph;
use pane::pane_graph::AttributedGraph;
use pane::pane_store::{ShardedStore, Store};
use std::fs::File;
use std::hash::Hasher;
use std::io::Read;
use std::path::Path;
use std::time::Instant;

pub fn pane_config(run: &Run, threads: usize) -> PaneConfig {
    PaneConfig::builder()
        .dimension(DIMENSION)
        .alpha(ALPHA)
        .error_threshold(EPSILON)
        .threads(threads)
        .seed(run.seed)
        .build()
}

pub fn load(wl: &Workload, inp: &Inputs) -> Res<AttributedGraph> {
    load_graph(
        &inp.edges,
        Some(&inp.attrs),
        Some(&inp.labels),
        Some(wl.nodes),
        Some(wl.attributes),
        false,
    )
    .ctx("load graph")
}

/// Commits generation 1 of a fresh store (sharded when the workload is).
pub fn init_store(run: &Run, dir: &Path, emb: &PaneEmbedding) -> Res<()> {
    let wl = &run.wl;
    if wl.shards > 1 {
        ShardedStore::init(
            dir,
            emb,
            &wl.node_spec,
            &wl.link_spec,
            wl.shards,
            run.threads,
        )
    } else {
        Store::init(dir, emb, &wl.node_spec, &wl.link_spec, run.threads)
    }
    .ctx("store init")
}

/// Hash of every file under `dir` (names and bytes, in sorted order; the
/// lock file is runtime state, not an artifact). Files are streamed, so the
/// check adds nothing to the peak resident set it runs next to.
pub fn hash_tree(dir: &Path) -> Res<u64> {
    fn walk(dir: &Path, rel: &Path, h: &mut std::hash::DefaultHasher) -> Res<()> {
        let mut entries: Vec<_> = std::fs::read_dir(dir)
            .ctx("read store dir")?
            .collect::<Result<_, _>>()
            .ctx("read store dir")?;
        entries.sort_by_key(|e| e.file_name());
        let mut buf = [0u8; 1 << 16];
        for e in entries {
            let name = e.file_name();
            let rel = rel.join(&name);
            if e.path().is_dir() {
                walk(&e.path(), &rel, h)?;
            } else if name != "LOCK" {
                h.write(rel.to_string_lossy().as_bytes());
                let mut file = File::open(e.path()).ctx("open artifact")?;
                loop {
                    let n = file.read(&mut buf).ctx("read artifact")?;
                    if n == 0 {
                        break;
                    }
                    h.write(&buf[..n]);
                }
            }
        }
        Ok(())
    }
    let mut h = std::hash::DefaultHasher::new();
    walk(dir, Path::new(""), &mut h)?;
    Ok(h.finish())
}

/// Peak resident set of this process (`VmHWM`), MiB, since the process
/// started or since the last `reset_peak_rss` that took effect.
pub fn peak_rss_mib() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ctx("read /proc/self/status")?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Sets `VmHWM` back to what is resident now, so that the next reading is
/// the peak of what ran in between, without the harness's set-up before
/// it. Where the kernel refuses the write, the set-up's peak stays in; it
/// is far below the build's.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// One build repetition as a user would run it, into a fresh `dir`:
/// the embedding, and the seconds from graph files to committed store.
pub fn build_once(run: &Run, inp: &Inputs, dir: &Path) -> Res<(PaneEmbedding, f64)> {
    let started = Instant::now();
    let graph = load(&run.wl, inp)?;
    let emb = Pane::new(pane_config(run, run.threads))
        .embed(&graph)
        .ctx("embed")?;
    init_store(run, dir, &emb)?;
    Ok((emb, started.elapsed().as_secs_f64()))
}
