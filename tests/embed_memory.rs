//! The embed's heap peak against its memory model (ARCHITECTURE, "Memory
//! model"): at most two `n×d` affinity matrices are alive at once, next to
//! PAPMI's column-slab buffers and the sparse inputs while affinity runs,
//! or a few `n×k/2` matrices after it. A third `n×d` matrix anywhere in
//! `Pane::embed` breaks the bound.
//!
//! A counting global allocator tracks live and peak bytes, so this file is
//! a test binary of its own, and its tests take turns.

use pane::pane_graph::gen::{generate_sbm, SbmConfig};
use pane::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
            grew(new_size);
        }
        q
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// One measurement at a time: the counters are process-wide.
static SERIAL: Mutex<()> = Mutex::new(());

/// `graph`'s embed under `config`, and the heap it allocated at its peak
/// beyond what was live before it.
fn embed_peak(graph: &AttributedGraph, config: PaneConfig) -> usize {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let pane = Pane::new(config);
    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    let emb = pane.embed(graph).unwrap();
    let peak = PEAK.load(Ordering::SeqCst) - before;
    drop(emb);
    peak
}

fn f64s(count: usize) -> usize {
    count * 8
}

/// `P`, `Pᵀ` (edges plus a self loop per dangling node), `R_r`, `R_c`: a
/// `u32` column and an `f64` value per entry, an offset per row.
fn sparse_inputs(g: &AttributedGraph) -> usize {
    let n = g.num_nodes();
    let csr = |nnz: usize| nnz * 12 + f64s(n + 1);
    2 * csr(g.num_edges() + n) + 2 * csr(g.num_attribute_entries())
}

/// PAPMI's two `n×W` buffers per worker, `W = clamp(d/(4·nb), 8, 64)`.
fn slab_buffers(n: usize, d: usize, nb: usize) -> usize {
    nb * 2 * f64s(n * (d / (4 * nb)).clamp(8, 64).min(d))
}

#[test]
fn embed_peak_heap_is_two_affinity_matrices_plus_small_terms() {
    let (n, d, k, nb) = (1_000, 600, 32, 2);
    let g = generate_sbm(&SbmConfig {
        nodes: n,
        attributes: d,
        avg_out_degree: 8.0,
        attrs_per_node: 10.0,
        seed: 11,
        ..Default::default()
    });
    assert_eq!((g.num_nodes(), g.num_attributes()), (n, d));
    let peak = embed_peak(
        &g,
        PaneConfig::builder()
            .dimension(k)
            .error_threshold(0.2) // t = 2: the matrices alive do not depend on t
            .threads(nb)
            .seed(3)
            .build(),
    );

    let affinity = 2 * f64s(n * d);
    let slabs = slab_buffers(n, d, nb);
    // `X_f`, `X_b` and one product beside them, plus one more for slack.
    let half = 4 * f64s(n * k / 2);
    let sparse = sparse_inputs(&g);
    let bound = affinity + slabs + half + sparse;
    assert!(
        peak <= bound,
        "embed peak {peak} B exceeds the model's {bound} B \
         (2·n·d·8 = {affinity}, slabs {slabs}, n×k/2 terms {half}, sparse {sparse})"
    );
}

/// On a shape whose CCD runs in the attribute space (`d` small against
/// `n`), the embed's peak is the larger of two phases, not their sum:
/// affinity holds `F'`, `B'`, the slab buffers and the sparse inputs;
/// GreedyInit and CCD hold `F'`, `B'`, at most three `n×k/2` matrices and
/// the lift's block temporaries, and no sparse input any more.
#[test]
fn small_d_embed_peak_is_the_larger_phase_not_the_sum() {
    let (n, d, k, nb) = (3_000, 32, 64, 2);
    let g = generate_sbm(&SbmConfig {
        nodes: n,
        attributes: d,
        avg_out_degree: 8.0,
        attrs_per_node: 5.0,
        seed: 5,
        ..Default::default()
    });
    assert_eq!((g.num_nodes(), g.num_attributes()), (n, d));
    let peak = embed_peak(
        &g,
        PaneConfig::builder()
            .dimension(k)
            .error_threshold(0.1) // t = 3 sweeps: the attribute-space path
            .threads(nb)
            .seed(3)
            .build(),
    );

    let affinity_and_init = 2 * f64s(n * d);
    let affinity_phase = affinity_and_init + slab_buffers(n, d, nb) + sparse_inputs(&g);
    // Two workers' block temporaries, 2 × 64 rows × k/2 each.
    let blocks = nb * 2 * f64s(64 * k / 2);
    let init_phase = affinity_and_init + 3 * f64s(n * k / 2) + blocks;
    let bound = affinity_phase.max(init_phase);
    assert!(
        peak <= bound,
        "embed peak {peak} B exceeds the model's {bound} B \
         (affinity phase {affinity_phase}, init/CCD phase {init_phase})"
    );
}
