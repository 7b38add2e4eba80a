//! ANN serving subsystem acceptance tests: recall of the approximate
//! indexes against the exact baseline on a real embedded SBM fixture,
//! save→load→identical-results persistence, and the determinism contract
//! (index builds bit-identical across thread counts, like the embedding
//! pipeline itself).

use pane_core::{Pane, PaneConfig};
use pane_graph::gen::{generate_sbm, SbmConfig};
use pane_index::{
    load_index, FlatIndex, HnswConfig, HnswIndex, IvfConfig, IvfIndex, Metric, VectorIndex,
};
use pane_linalg::{vecops, DenseMatrix};
use std::path::PathBuf;
use std::sync::OnceLock;

/// Classifier features of an embedded 600-node SBM graph, computed once.
fn features() -> &'static DenseMatrix {
    static FEATURES: OnceLock<DenseMatrix> = OnceLock::new();
    FEATURES.get_or_init(|| {
        let g = generate_sbm(&SbmConfig {
            nodes: 600,
            communities: 6,
            avg_out_degree: 8.0,
            attributes: 30,
            attrs_per_node: 5.0,
            attr_noise: 0.05,
            seed: 77,
            ..Default::default()
        });
        let emb = Pane::new(PaneConfig::builder().dimension(16).seed(9).build())
            .embed(&g)
            .unwrap();
        emb.classifier_feature_matrix()
    })
}

/// [`features`] with each row L2-normalized, so an inner-product index
/// over them ranks by cosine.
fn unit_features() -> &'static DenseMatrix {
    static UNIT: OnceLock<DenseMatrix> = OnceLock::new();
    UNIT.get_or_init(|| {
        let mut m = features().clone();
        for i in 0..m.rows() {
            vecops::normalize(m.row_mut(i), 1e-300);
        }
        m
    })
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pane_ann_index_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn recall_at_10(truth: &FlatIndex, approx: &dyn VectorIndex, data: &DenseMatrix) -> f64 {
    let mut overlap = 0;
    let mut total = 0;
    for v in (0..data.rows()).step_by(7) {
        let exact: Vec<usize> = truth
            .search(data.row(v), 10)
            .into_iter()
            .map(|n| n.index)
            .collect();
        for hit in approx.search(data.row(v), 10) {
            total += 1;
            overlap += usize::from(exact.contains(&hit.index));
        }
    }
    overlap as f64 / total as f64
}

#[test]
fn ivf_and_hnsw_reach_recall_090_on_sbm_embedding() {
    let data = unit_features();
    let flat = FlatIndex::build(data, Metric::InnerProduct);
    let ivf = IvfIndex::build(
        data,
        &IvfConfig {
            nlist: 16,
            nprobe: 8,
            threads: 2,
            ..Default::default()
        },
    );
    let hnsw = HnswIndex::build(data, &HnswConfig::default());
    let r_ivf = recall_at_10(&flat, &ivf, data);
    let r_hnsw = recall_at_10(&flat, &hnsw, data);
    assert!(r_ivf >= 0.9, "IVF recall@10 = {r_ivf:.3} < 0.9");
    assert!(r_hnsw >= 0.9, "HNSW recall@10 = {r_hnsw:.3} < 0.9");
}

#[test]
fn save_load_roundtrip_returns_identical_results() {
    let (data, unit) = (features(), unit_features());
    let indexes: Vec<(&str, Box<dyn VectorIndex>)> = vec![
        (
            "flat",
            Box::new(FlatIndex::build(unit, Metric::InnerProduct)),
        ),
        (
            "ivf",
            Box::new(IvfIndex::build(
                data,
                &IvfConfig {
                    nlist: 12,
                    nprobe: 4,
                    ..Default::default()
                },
            )),
        ),
        (
            "hnsw",
            Box::new(HnswIndex::build(unit, &HnswConfig::default())),
        ),
    ];
    for (name, index) in &indexes {
        let path = tmp(&format!("roundtrip_{name}.idx"));
        index.save(&path).unwrap();
        let loaded = load_index(&path).unwrap();
        assert_eq!(loaded.kind(), index.kind());
        assert_eq!(loaded.len(), index.len());
        assert_eq!(loaded.dim(), index.dim());
        for v in (0..data.rows()).step_by(41) {
            let before = index.search(data.row(v), 10);
            let after = loaded.search(data.row(v), 10);
            assert_eq!(before, after, "{name}: results changed across save/load");
        }
    }
}

#[test]
fn index_files_are_bit_identical_across_thread_counts() {
    let data = unit_features();
    let cfg = IvfConfig {
        nlist: 10,
        seed: 5,
        threads: 1,
        ..Default::default()
    };
    let p1 = tmp("ivf_t1.idx");
    let p4 = tmp("ivf_t4.idx");
    IvfIndex::build(data, &cfg).save(&p1).unwrap();
    IvfIndex::build(data, &IvfConfig { threads: 4, ..cfg })
        .save(&p4)
        .unwrap();
    assert_eq!(
        std::fs::read(&p1).unwrap(),
        std::fs::read(&p4).unwrap(),
        "IVF index bytes differ between 1-thread and 4-thread builds"
    );

    // HNSW builds are sequential; two identically seeded builds must also
    // serialize identically.
    let h1 = tmp("hnsw_a.idx");
    let h2 = tmp("hnsw_b.idx");
    let hcfg = HnswConfig {
        seed: 13,
        ..Default::default()
    };
    HnswIndex::build(data, &hcfg).save(&h1).unwrap();
    HnswIndex::build(data, &hcfg).save(&h2).unwrap();
    assert_eq!(std::fs::read(&h1).unwrap(), std::fs::read(&h2).unwrap());
}

#[test]
fn batch_search_matches_single_queries_for_all_kinds() {
    let data = unit_features();
    let queries = data.row_block(0..24);
    let indexes: Vec<Box<dyn VectorIndex>> = vec![
        Box::new(FlatIndex::build(data, Metric::InnerProduct)),
        Box::new(IvfIndex::build(data, &IvfConfig::default())),
        Box::new(HnswIndex::build(data, &HnswConfig::default())),
    ];
    for index in &indexes {
        let single: Vec<_> = (0..queries.rows())
            .map(|i| index.search(queries.row(i), 5))
            .collect();
        for threads in [1, 3] {
            assert_eq!(
                index.batch_search(&queries, 5, threads),
                single,
                "{:?} batch_search diverges at {threads} threads",
                index.kind()
            );
        }
    }
}
