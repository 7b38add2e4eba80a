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

/// One saved fixture per index kind (flat, ivf, hnsw, sqflat), as raw
/// bytes.
fn fixture_bytes() -> &'static [Vec<u8>; 4] {
    static BYTES: OnceLock<[Vec<u8>; 4]> = OnceLock::new();
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
        let sq = dir.join("sq.idx");
        SqFlatIndex::build(&data, Metric::InnerProduct, SqConfig::default())
            .save(&sq)
            .unwrap();
        [&flat, &ivf, &hnsw, &sq].map(|p| std::fs::read(p).unwrap())
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
    fn truncation_always_fails_structured(kind in 0usize..4, frac in 0.0f64..1.0) {
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
        kind in 0usize..4,
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
        kind in 0usize..4,
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

/// A uniform `f64` in `[-1, 1)` from `(seed, i)`.
fn unit(seed: u64, i: u64) -> f64 {
    (crate::splitmix64(seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> 11) as f64
        / (1u64 << 52) as f64
        - 1.0
}

/// Entries the screen has to survive: zeros, subnormals of either width
/// and 1e-30 always; by `seed % 4` also 1e30 (2) or values past f32's
/// range — 1e39, 1e300, 1e308 — NaN and ±inf (3).
fn hostile(seed: u64, i: u64) -> f64 {
    let base = unit(seed, i);
    let pick = crate::splitmix64(seed.wrapping_add(i) ^ 0xA5A5) % 16;
    match (seed % 4, pick) {
        (_, 0) => 0.0,
        (_, 1) => base * 1e-310,
        (_, 2) => base * 1e-40,
        (_, 3) => base * 1e-30,
        (2, 4) => base * 1e30,
        (3, 4) => base * 1e39,
        (3, 5) => base * 1e300,
        (3, 6) => base * 1e308,
        (3, 7) => f64::NAN,
        (3, 8) => f64::INFINITY.copysign(base),
        _ => base,
    }
}

/// `n` rows of `hostile` entries, among them duplicates (exact ties),
/// rows one f32 ulp from their predecessor in one entry, rows jittered
/// below f32's resolution (one f32 image, distinct f64 scores — only the
/// slack stands between them and a wrong skip) and zero rows. With
/// `tight`, every row after the first is a copy, a nudge or a jitter of
/// it: all `n` scores then sit within the f32 screen's error.
fn hostile_rows(n: usize, dim: usize, seed: u64, tight: bool) -> DenseMatrix {
    let mut m = DenseMatrix::zeros(n, dim);
    for r in 0..n {
        let (head, tail) = m.data_mut().split_at_mut(r * dim);
        let from = if tight {
            0
        } else {
            head.len().saturating_sub(dim)
        };
        let (prev, row) = (&head[from..from + dim.min(head.len())], &mut tail[..dim]);
        let at = (r * dim) as u64;
        let pick = crate::splitmix64(seed ^ r as u64) % if tight { 6 } else { 8 };
        match (pick, r > 0) {
            (0, true) => row.copy_from_slice(prev),
            (1, true) => {
                row.copy_from_slice(prev);
                let j = r % dim;
                row[j] = f64::from(f32::from_bits((row[j] as f32).to_bits() ^ 1));
            }
            (2..=5, true) => row
                .iter_mut()
                .zip(prev)
                .enumerate()
                .for_each(|(j, (v, p))| *v = p * (1.0 + 1e-9 * unit(seed, at + j as u64))),
            (6, _) => {}
            _ => row
                .iter_mut()
                .enumerate()
                .for_each(|(j, v)| *v = hostile(seed, at + j as u64)),
        }
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The screened scans — flat, a delta segment behind a flat base, IVF
    /// probing every cell — return what pushing every `(id,
    /// kernels::dot(q, row))` in row order returns, ids and score bits,
    /// on rows and queries built to break an f32 screen: ties, scores an
    /// f32 ulp apart, zero rows, subnormals, 1e±30, values past f32's
    /// range, NaN and ±inf, at dims on and off the compiled kernels and
    /// k from 0 to past `n`.
    #[test]
    fn screened_scan_equals_the_exact_push_loop(
        pick_dim in 0usize..5,
        n in 1usize..160,
        pick_k in 0usize..5,
        block in 1usize..6,
        seed in 0u64..1_000_000,
        metric_ip in 0usize..2,
    ) {
        let dim = [1, 7, 32, 64, 100][pick_dim];
        let k = [0, 1, 10, n, n + 5][pick_k];
        let metric = if metric_ip == 1 { Metric::InnerProduct } else { Metric::Cosine };
        let data = hostile_rows(n, dim, seed, seed % 3 == 0);
        // Queries: stored rows (their own best matches) and fresh ones.
        let mut queries = hostile_rows(block, dim, seed ^ 0xF00D, false);
        for i in (0..block).step_by(2) {
            queries.row_mut(i).copy_from_slice(data.row((i * 31) % n));
        }
        let flat = FlatIndex::build(&data, metric);
        let prepared = metric.prepare(queries.clone());
        let want: Vec<_> = (0..block)
            .map(|i| {
                let q = prepared.row(i);
                topk::select((0..n).map(|r| (r, kernels::dot(q, flat.vectors().row(r)))), k)
            })
            .collect();
        let split = n / 2 + 1;
        let mut delta = DeltaIndex::new(crate::AnyIndex::Flat(FlatIndex::build(
            data.row_block(0..split),
            metric,
        )));
        for r in split..n {
            delta.insert(data.row(r)).unwrap();
        }
        let mut ivf = IvfIndex::build(
            &data,
            metric,
            &IvfConfig {
                nlist: 4,
                seed,
                ..Default::default()
            },
        );
        ivf.set_nprobe(ivf.nlist());
        let targets: [(&str, &dyn VectorIndex); 3] =
            [("flat", &flat), ("delta", &delta), ("ivf", &ivf)];
        for (name, idx) in targets {
            let got = idx.batch_search(&queries, k, 1);
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                prop_assert!(same_hits(g, w), "{} query {}: {:?} != {:?}", name, i, g, w);
            }
        }
    }
}

/// FNV-1a over every answer's `(id, score bits)`, in answer order.
fn answers_hash(answers: &[Vec<crate::Neighbor>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for hit in answers.iter().flatten() {
        for b in (hit.index as u64)
            .to_le_bytes()
            .into_iter()
            .chain(hit.score.to_bits().to_le_bytes())
        {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The answers of every scanning index, hashed as (id, score bits) and
/// pinned to a constant taken before the scans were last rewritten:
/// flat (cosine), IVF (inner product, 4 of 16 cells), sqflat (inner
/// product) and a flat base under a 200-row delta, at dims 32 and 64
/// over 2 000 rows, for blocks of 1–8 queries at k = 10 and k = 25.
/// A changed constant is a changed answer, never a test to update.
#[test]
fn scan_answers_are_pinned() {
    let mut answers = Vec::new();
    for dim in [32usize, 64] {
        let cos = clustered_vectors(2000, dim, 12, 0.35);
        let mut ip = cos.clone();
        for i in 0..ip.rows() {
            let w = 1.0 + (i % 7) as f64 * 0.3;
            ip.row_mut(i).iter_mut().for_each(|v| *v *= w);
        }
        let mut ivf = IvfIndex::build(
            &ip,
            Metric::InnerProduct,
            &IvfConfig {
                nlist: 16,
                seed: 5,
                ..Default::default()
            },
        );
        ivf.set_nprobe(4);
        let mut delta = DeltaIndex::new(crate::AnyIndex::Flat(FlatIndex::build(
            cos.row_block(0..1800),
            Metric::Cosine,
        )));
        for i in 1800..cos.rows() {
            delta.insert(cos.row(i)).unwrap();
        }
        let indexes: [(Box<dyn VectorIndex>, &DenseMatrix); 4] = [
            (Box::new(FlatIndex::build(&cos, Metric::Cosine)), &cos),
            (Box::new(ivf), &ip),
            (
                Box::new(SqFlatIndex::build(
                    &ip,
                    Metric::InnerProduct,
                    SqConfig::default(),
                )),
                &ip,
            ),
            (Box::new(delta), &cos),
        ];
        for (idx, data) in &indexes {
            for block in 1..=8usize {
                let start = block * 211 + dim;
                let queries = data.row_block(start..start + block);
                for k in [10, 25] {
                    answers.extend(idx.batch_search(&queries, k, 1));
                }
            }
        }
    }
    assert_eq!(answers.len(), 2 * 4 * 36 * 2);
    assert_eq!(answers_hash(&answers), 12_464_759_234_824_396_802);
}
