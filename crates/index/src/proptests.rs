//! Fuzz-style corruption properties for the `PANECOL1` index loaders, plus
//! the kernel-equivalence and thread-invariance properties of the fused
//! scan paths.
//!
//! The serving daemon loads index files produced by other processes, so
//! the loaders must treat every byte as untrusted: any truncation or
//! header mutation has to surface as a structured [`IndexError`] — never
//! a panic, and never a giant allocation from a corrupt declared length
//! (the harness would hang or OOM long before an assert fired).
//!
//! The scan properties pin the determinism contract of the kernel layer
//! (see `pane-linalg::kernels`): every index's fused panel scan must be
//! *bit-identical* to a reference reduction over `kernels::dot`, and
//! batched search must be bit-identical to single search at every thread
//! count.

use crate::persist::load_index;
use crate::testutil::{clustered_vectors, reseal_header};
use crate::{
    topk, DeltaIndex, FlatIndex, HnswConfig, HnswIndex, IndexError, IvfConfig, IvfIndex, Metric,
    SqConfig, SqFlatIndex, VectorIndex,
};
use pane_linalg::{kernels, DenseMatrix};
use proptest::prelude::*;
use std::sync::OnceLock;

/// One saved fixture per index kind (flat, ivf, hnsw), as raw bytes.
fn fixture_bytes() -> &'static [Vec<u8>; 3] {
    static BYTES: OnceLock<[Vec<u8>; 3]> = OnceLock::new();
    BYTES.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("pane_idx_prop_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = clustered_vectors(60, 6, 3, 0.2);
        let flat = dir.join("flat.idx");
        FlatIndex::build(&data, Metric::Cosine).save(&flat).unwrap();
        let ivf = dir.join("ivf.idx");
        IvfIndex::build(
            &data,
            Metric::InnerProduct,
            &IvfConfig {
                nlist: 4,
                ..Default::default()
            },
        )
        .save(&ivf)
        .unwrap();
        let hnsw = dir.join("hnsw.idx");
        HnswIndex::build(&data, Metric::Cosine, &HnswConfig::default())
            .save(&hnsw)
            .unwrap();
        [
            std::fs::read(&flat).unwrap(),
            std::fs::read(&ivf).unwrap(),
            std::fs::read(&hnsw).unwrap(),
        ]
    })
}

/// Writes `bytes` to a scratch file and loads it through the
/// self-describing entry point.
fn load_mutated(name: &str, bytes: &[u8]) -> Result<crate::AnyIndex, IndexError> {
    let dir = std::env::temp_dir().join(format!("pane_idx_prop_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join(name);
    std::fs::write(&p, bytes).unwrap();
    load_index(&p)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any strict truncation fails the load with a structured error: the
    /// header declares the file's exact length, so a shorter file fails
    /// the declared-vs-actual check (or is too short to hold a header).
    #[test]
    fn truncation_always_fails_structured(kind in 0usize..3, frac in 0.0f64..1.0) {
        let full = &fixture_bytes()[kind];
        let keep = (frac * (full.len() - 1) as f64) as usize;
        let got = load_mutated("trunc.idx", &full[..keep]);
        match got {
            Err(IndexError::Format(_)) | Err(IndexError::Io(_)) => {}
            other => panic!("truncated load must fail, got {:?}", other.map(|i| i.kind())),
        }
    }

    /// Overwriting any length-bearing header or table word — section
    /// count, declared length, or one section's rows / cols / offset /
    /// byte length — with a huge value fails cleanly before any
    /// allocation sized by it. The header checksum is recomputed after
    /// the patch, so it is the section cap, the declared-vs-actual
    /// length check and the table's layout arithmetic that refuse the
    /// file, not a checksum mismatch.
    #[test]
    fn huge_header_word_fails_before_allocating(
        kind in 0usize..3,
        section in 0usize..5,
        word in 0usize..6,
        bump in 0u64..1_000_000,
    ) {
        let mut bytes = fixture_bytes()[kind].clone();
        let sections = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
        let huge = (1u64 << 33) + bump;
        match word {
            0 => bytes[12..16].copy_from_slice(&(u32::MAX - bump as u32).to_le_bytes()),
            1 => bytes[16..24].copy_from_slice(&huge.to_le_bytes()),
            _ => {
                // Table entry: id u32, dtype u32, then rows, cols,
                // offset, byte_len (words 2..=5 here), checksum.
                let entry = pane_format::HEADER_LEN
                    + pane_format::TABLE_ENTRY_LEN * (section % sections);
                let at = entry + 8 * (word - 1);
                bytes[at..at + 8].copy_from_slice(&huge.to_le_bytes());
            }
        }
        reseal_header(&mut bytes, sections);
        match load_mutated("huge_word.idx", &bytes) {
            Err(IndexError::Format(m)) => prop_assert!(!m.contains("checksum"), "{}", m),
            other => panic!(
                "huge header word must be a format error, got {:?}",
                other.map(|i| i.kind())
            ),
        }
    }

    /// Arbitrary single-byte mutations never panic: the load either fails
    /// with a structured error or yields an index that still serves a
    /// search (corrupt *values* are legal — corrupt *structure* is not).
    #[test]
    fn byte_mutations_never_panic(
        kind in 0usize..3,
        offset_frac in 0.0f64..1.0,
        xor in 1u32..256,
    ) {
        let mut bytes = fixture_bytes()[kind].clone();
        let at = (offset_frac * (bytes.len() - 1) as f64) as usize;
        bytes[at] ^= xor as u8;
        if let Ok(idx) = load_mutated("bitflip.idx", &bytes) {
            // Loaded despite the flip ⇒ the invariants all re-validated;
            // a search must complete (NaN scores rank last, no panic).
            prop_assert!(idx.len() > 0 && idx.dim() > 0);
            let q = vec![0.25; idx.dim()];
            let hits = idx.search(&q, 3);
            prop_assert!(hits.len() <= 3);
        }
    }
}

/// Shared vector fixture for the scan properties (built once; the
/// properties vary query, k, and thread count over it).
fn scan_fixture() -> &'static DenseMatrix {
    static DATA: OnceLock<DenseMatrix> = OnceLock::new();
    DATA.get_or_init(|| clustered_vectors(300, 24, 5, 0.2))
}

/// One prebuilt index per kind over the scan fixture (IVF probes 3 of 8
/// cells, so its approximation — not just the exact paths — is pinned),
/// and an HNSW base under a non-empty delta: its pooled scratch is then
/// reused by every query of a block and across blocks.
fn scan_indexes() -> &'static [Box<dyn VectorIndex>; 5] {
    static IDX: OnceLock<[Box<dyn VectorIndex>; 5]> = OnceLock::new();
    IDX.get_or_init(|| {
        let data = scan_fixture();
        let hnsw = |rows| {
            HnswIndex::build(
                data.row_block(0..rows),
                Metric::Cosine,
                &HnswConfig::default(),
            )
        };
        let mut delta = DeltaIndex::new(crate::AnyIndex::Hnsw(hnsw(280)));
        for i in 280..data.rows() {
            delta.insert(data.row(i)).unwrap();
        }
        let mut ivf = IvfIndex::build(
            data,
            Metric::Cosine,
            &IvfConfig {
                nlist: 8,
                ..Default::default()
            },
        );
        ivf.set_nprobe(3);
        [
            Box::new(FlatIndex::build(data, Metric::Cosine)),
            Box::new(ivf),
            Box::new(hnsw(data.rows())),
            Box::new(SqFlatIndex::build(
                data,
                Metric::Cosine,
                SqConfig::default(),
            )),
            Box::new(delta),
        ]
    })
}

/// Bit-level equality of two result lists (PartialEq would treat any
/// NaN score as unequal to itself).
fn same_hits(a: &[crate::Neighbor], b: &[crate::Neighbor]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.index == y.index && x.score.to_bits() == y.score.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The flat index's fused panel scan ≡ a plain bounded-heap select
    /// over `kernels::dot` scores, bitwise — the kernel layer's central
    /// equivalence claim, checked end to end through `search`.
    #[test]
    fn flat_search_bitwise_equals_kernel_reference(
        qrow in 0usize..300,
        k in 1usize..20,
        metric_ip in 0usize..2,
    ) {
        let data = scan_fixture();
        let metric = if metric_ip == 1 { Metric::InnerProduct } else { Metric::Cosine };
        let idx = FlatIndex::build(data, metric);
        let got = idx.search(data.row(qrow), k);
        let q = match metric {
            Metric::Cosine => {
                let mut v = data.row(qrow).to_vec();
                pane_linalg::vecops::normalize(&mut v, 1e-300);
                v
            }
            Metric::InnerProduct => data.row(qrow).to_vec(),
        };
        let want = topk::select(
            (0..idx.len()).map(|i| (i, kernels::dot(&q, idx.vectors().row(i)))),
            k,
        );
        prop_assert!(same_hits(&got, &want));
    }

    /// Batched search ≡ single search, bitwise, at every thread count —
    /// for the blocked flat path and the default per-query fan-out of
    /// the other index kinds. 42 queries: six threads get blocks of 7.
    #[test]
    fn batch_search_thread_invariant_all_kinds(
        threads in 1usize..7,
        k in 1usize..12,
    ) {
        let data = scan_fixture();
        let queries = data.row_block(0..42);
        for idx in scan_indexes() {
            let single: Vec<_> = (0..queries.rows())
                .map(|i| idx.search(queries.row(i), k))
                .collect();
            let batch = idx.batch_search(&queries, k, threads);
            prop_assert_eq!(batch.len(), single.len());
            for (b, s) in batch.iter().zip(&single) {
                prop_assert!(same_hits(b, s), "{} diverged at {threads} threads", idx.kind());
            }
        }
    }

    /// A delta-wrapped flat index ≡ a flat rebuild over all vectors,
    /// bitwise — the prepare-once hoist and the fused delta scan change
    /// nothing observable.
    #[test]
    fn delta_merge_bitwise_equals_rebuild(
        split in 150usize..290,
        qrow in 0usize..300,
        k in 1usize..15,
    ) {
        let data = scan_fixture();
        let full = FlatIndex::build(data, Metric::Cosine);
        let head = data.row_block(0..split);
        let mut delta = DeltaIndex::new(crate::AnyIndex::Flat(
            FlatIndex::build(&head, Metric::Cosine),
        ));
        for i in split..data.rows() {
            delta.insert(data.row(i)).unwrap();
        }
        let a = delta.search(data.row(qrow), k);
        let b = full.search(data.row(qrow), k);
        prop_assert!(same_hits(&a, &b));
    }
}
