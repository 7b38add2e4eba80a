//! The embed's heap peak against its memory model (ARCHITECTURE, "Memory
//! model"): at most two `n×d` affinity matrices are alive at once, next to
//! PAPMI's column-slab buffers, a few `n×k/2` matrices and the sparse
//! inputs. A third `n×d` matrix anywhere in `Pane::embed` breaks the bound.
//!
//! A counting global allocator tracks live and peak bytes, so this file is
//! a test binary of its own and holds one test.

use pane::pane_graph::gen::{generate_sbm, SbmConfig};
use pane::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

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
    let pane = Pane::new(
        PaneConfig::builder()
            .dimension(k)
            .error_threshold(0.2) // t = 2: the matrices alive do not depend on t
            .threads(nb)
            .seed(3)
            .build(),
    );

    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    let emb = pane.embed(&g).unwrap();
    let peak = PEAK.load(Ordering::SeqCst) - before;
    drop(emb);

    let f64s = |count: usize| count * 8;
    let affinity = 2 * f64s(n * d);
    // Two `n×W` buffers per worker, `W = clamp(d/(4·nb), 8, 64)`.
    let slabs = nb * 2 * f64s(n * (d / (4 * nb)).clamp(8, 64));
    // `X_f`, `X_b` and one product beside them, plus one more for slack.
    let half = 4 * f64s(n * k / 2);
    // `P`, `Pᵀ` (edges plus a self loop per dangling node), `R_r`, `R_c`:
    // a `u32` column and an `f64` value per entry, an offset per row.
    let csr = |nnz: usize| nnz * 12 + f64s(n + 1);
    let sparse = 2 * csr(g.num_edges() + n) + 2 * csr(g.num_attribute_entries());
    let bound = affinity + slabs + half + sparse;
    assert!(
        peak <= bound,
        "embed peak {peak} B exceeds the model's {bound} B \
         (2·n·d·8 = {affinity}, slabs {slabs}, n×k/2 terms {half}, sparse {sparse})"
    );
}
