//! IVF — inverted-file index over a k-means coarse quantizer.
//!
//! Build: cluster the vectors into `nlist` cells with
//! [`kmeans`], then lay each cell's vectors out
//! contiguously so a probe streams memory like the flat scan does — just
//! over `nprobe/nlist` of the data. Search: rank cells by distance from
//! the query to their centroids, scan the `nprobe` nearest, reduce with
//! the shared bounded-heap top-k.
//!
//! Recall/latency trade-off is all in `nprobe` (1 = fastest, `nlist` =
//! exact up to quantization ties); it is a runtime knob, not a build
//! parameter.

use crate::kmeans::kmeans;
use crate::persist::{columnar_matrix, columnar_meta};
use crate::VectorIndex;
use crate::{block_rows, scan::ScanRows, topk, IndexError, IndexKind, Neighbor};
use pane_format::{section, Artifact, ColumnData, ColumnSpec};
use pane_linalg::{vecops, DenseMatrix};
use std::{borrow::Cow, path::Path};

/// Build-time parameters for [`IvfIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IvfConfig {
    /// Number of k-means cells (clamped to the number of vectors).
    pub nlist: usize,
    /// Default number of cells probed per query (clamped to `nlist`).
    pub nprobe: usize,
    /// Lloyd iterations for the coarse quantizer.
    pub train_iters: usize,
    /// Seed for the quantizer's initialization.
    pub seed: u64,
    /// Worker threads for the build (does not change the result).
    pub threads: usize,
}

impl Default for IvfConfig {
    fn default() -> Self {
        Self {
            nlist: 64,
            nprobe: 8,
            train_iters: 10,
            seed: 0,
            threads: 1,
        }
    }
}

/// Inverted-file ANN index. See the module docs.
#[derive(Debug, Clone)]
pub struct IvfIndex {
    nprobe: usize,
    /// `nlist × dim` cell centroids.
    centroids: DenseMatrix,
    /// `‖centroid_c‖²`, cached for the cell-ranking distance.
    cnorms: Vec<f64>,
    /// Cell boundaries into `ids`/`vectors`: cell `c` is `offsets[c]..offsets[c+1]`.
    offsets: Vec<usize>,
    /// Original row ids, cell-major (ascending id within a cell).
    ids: Vec<u32>,
    /// The vectors, laid out cell-major.
    vectors: ScanRows,
}

impl IvfIndex {
    /// Builds the index over the rows of `data`, moved in or borrowed.
    ///
    /// Bit-identical for every `config.threads` value: the parallel phase
    /// (cell assignment) is per-point independent, and all floating-point
    /// accumulation happens serially in point order.
    ///
    /// # Panics
    /// Panics if `data` is empty or `config.nlist == 0`.
    pub fn build<'a>(data: impl Into<Cow<'a, DenseMatrix>>, config: &IvfConfig) -> Self {
        let data = data.into();
        assert!(
            data.rows() > 0 && data.cols() > 0,
            "IvfIndex::build: empty data"
        );
        assert!(config.nlist > 0, "IvfIndex::build: nlist must be positive");
        let km = kmeans(
            &data,
            config.nlist,
            config.train_iters.max(1),
            config.seed,
            config.threads,
        );
        let nlist = km.centroids.rows();
        let n = data.rows();
        let dim = data.cols();

        // Counting sort by cell: offsets, then a stable in-order fill so
        // ids ascend within each cell.
        let mut sizes = vec![0usize; nlist];
        for &a in &km.assignment {
            sizes[a as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(nlist + 1);
        offsets.push(0usize);
        for &s in &sizes {
            offsets.push(offsets.last().unwrap() + s);
        }
        let mut cursor = offsets[..nlist].to_vec();
        let mut ids = vec![0u32; n];
        let mut vectors = DenseMatrix::zeros(n, dim);
        for (i, &a) in km.assignment.iter().enumerate() {
            let slot = cursor[a as usize];
            cursor[a as usize] += 1;
            ids[slot] = i as u32;
            vectors.row_mut(slot).copy_from_slice(data.row(i));
        }
        drop(data); // before the screen's f32 copy is made

        let cnorms = (0..nlist)
            .map(|c| vecops::norm2_sq(km.centroids.row(c)))
            .collect();
        Self {
            nprobe: config.nprobe.clamp(1, nlist),
            centroids: km.centroids,
            cnorms,
            offsets,
            ids,
            vectors: ScanRows::new(vectors),
        }
    }

    /// Number of cells.
    pub fn nlist(&self) -> usize {
        self.centroids.rows()
    }

    /// Sets the number of cells probed per query (clamped to `1..=nlist`).
    pub fn set_nprobe(&mut self, nprobe: usize) {
        self.nprobe = nprobe.clamp(1, self.nlist());
    }

    /// Reconstructs the index from an already-validated container,
    /// checking every structural invariant a search relies on: empty
    /// dimensions, a zero `nlist`, cell sizes that do not sum to `n`, or
    /// arrays whose lengths disagree are all structured [`IndexError`]s
    /// at load time.
    pub(crate) fn from_columns(c: &mut pane_format::Columns) -> Result<Self, IndexError> {
        let centroids = columnar_matrix(c, section::IVF_CENTROIDS)?;
        let vectors = columnar_matrix(c, section::IVF_VECTORS)?;
        let (n, dim) = (vectors.rows(), vectors.cols());
        if n == 0 || dim == 0 || dim > 1 << 24 {
            return Err(IndexError::Format(format!(
                "ivf vectors section is {n}×{dim}; outside the valid range"
            )));
        }
        let nlist = centroids.rows();
        if nlist == 0 || nlist > n || centroids.cols() != dim {
            return Err(IndexError::Format(format!(
                "ivf centroids section is {nlist}×{}, inconsistent with {n}×{dim} vectors",
                centroids.cols()
            )));
        }
        let meta: Vec<u64> = c.take(section::IVF_META)?;
        if meta.len() != 2 || meta[0] as usize != nlist {
            return Err(IndexError::Format(format!(
                "ivf meta section {meta:?} disagrees with nlist = {nlist}"
            )));
        }
        let nprobe = meta[1] as usize;
        if nprobe == 0 || nprobe > nlist {
            return Err(IndexError::Format(format!(
                "nprobe {nprobe} outside [1, {nlist}]"
            )));
        }
        let sizes: Vec<u32> = c.take(section::IVF_SIZES)?;
        if sizes.len() != nlist {
            return Err(IndexError::Format(format!(
                "cell-size array has {} entries, expected {nlist}",
                sizes.len()
            )));
        }
        let mut offsets = Vec::with_capacity(nlist + 1);
        offsets.push(0usize);
        for &s in &sizes {
            offsets.push(offsets.last().unwrap() + s as usize);
        }
        if *offsets.last().unwrap() != n {
            return Err(IndexError::Format(format!(
                "cell sizes sum to {}, expected {n}",
                offsets.last().unwrap()
            )));
        }
        let ids: Vec<u32> = c.take(section::IVF_IDS)?;
        if ids.len() != n {
            return Err(IndexError::Format(format!(
                "id array has {} entries, expected {n}",
                ids.len()
            )));
        }
        let cnorms = (0..nlist)
            .map(|c| vecops::norm2_sq(centroids.row(c)))
            .collect();
        Ok(Self {
            nprobe,
            centroids,
            cnorms,
            offsets,
            ids,
            vectors: ScanRows::new(vectors),
        })
    }
}

impl VectorIndex for IvfIndex {
    fn kind(&self) -> IndexKind {
        IndexKind::Ivf
    }

    fn len(&self) -> usize {
        self.ids.len()
    }

    fn dim(&self) -> usize {
        self.centroids.cols()
    }

    /// A loop over the block: different queries probe different cells,
    /// so there are no rows for a panel form to share.
    fn search_block(&self, queries: &[f64], k: usize) -> Vec<Vec<Neighbor>> {
        let dim = self.dim();
        let nlist = self.nlist();
        let mut cdots = vec![0.0f64; nlist];
        block_rows(queries, dim)
            .map(|q| {
                // Rank cells by squared Euclidean distance to the centroid
                // (‖q‖² is constant, so −(‖c‖² − 2q·c) orders
                // descending-best). Centroids are one contiguous row-major
                // block, so the panel kernel scores them all in one pass.
                pane_linalg::kernels::dot1xn(q, self.centroids.data(), dim, &mut cdots);
                let probes = topk::select(
                    (0..nlist).map(|c| (c, 2.0 * cdots[c] - self.cnorms[c])),
                    self.nprobe,
                );
                // Each probed cell is a contiguous row block — the same
                // screened panel scan the flat index uses, just restricted
                // to the probed cells and mapped through the cell-major id
                // permutation.
                let mut acc = [topk::TopK::new(k)];
                let cells = probes
                    .iter()
                    .map(|p| self.offsets[p.index]..self.offsets[p.index + 1]);
                self.vectors
                    .scan_block(&mut acc, q, cells, |r| self.ids[r] as usize);
                let [acc] = acc;
                acc.into_sorted()
            })
            .collect()
    }

    fn save(&self, path: &Path) -> Result<(), IndexError> {
        let meta = [self.nlist() as u64, self.nprobe as u64];
        let sizes: Vec<u32> = self
            .offsets
            .windows(2)
            .map(|w| (w[1] - w[0]) as u32)
            .collect();
        let specs = [
            ColumnSpec {
                id: section::IVF_META,
                rows: 1,
                cols: 2,
                data: ColumnData::U64(&meta),
            },
            ColumnSpec {
                id: section::IVF_CENTROIDS,
                rows: self.centroids.rows(),
                cols: self.centroids.cols(),
                data: ColumnData::F64(self.centroids.data()),
            },
            ColumnSpec {
                id: section::IVF_SIZES,
                rows: sizes.len(),
                cols: 1,
                data: ColumnData::U32(&sizes),
            },
            ColumnSpec {
                id: section::IVF_IDS,
                rows: self.ids.len(),
                cols: 1,
                data: ColumnData::U32(&self.ids),
            },
            ColumnSpec {
                id: section::IVF_VECTORS,
                rows: self.vectors.matrix().rows(),
                cols: self.vectors.matrix().cols(),
                data: ColumnData::F64(self.vectors.matrix().data()),
            },
        ];
        pane_format::write_columns(path, Artifact::Index, columnar_meta(IndexKind::Ivf), &specs)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{clustered_vectors, renormalized};
    use crate::{FlatIndex, Metric};

    #[test]
    fn full_probe_matches_flat_exactly() {
        let data = renormalized(clustered_vectors(150, 12, 5, 0.15));
        let flat = FlatIndex::build(&data, Metric::InnerProduct);
        let mut ivf = IvfIndex::build(
            &data,
            &IvfConfig {
                nlist: 8,
                ..Default::default()
            },
        );
        ivf.set_nprobe(ivf.nlist());
        for v in (0..150).step_by(11) {
            let a = flat.search(data.row(v), 7);
            let b = ivf.search(data.row(v), 7);
            assert_eq!(a, b, "probe-all IVF diverged from flat at {v}");
        }
    }

    #[test]
    fn build_is_thread_invariant() {
        let data = renormalized(clustered_vectors(200, 10, 6, 0.2));
        let cfg = IvfConfig {
            nlist: 12,
            seed: 3,
            ..Default::default()
        };
        let a = IvfIndex::build(&data, &cfg);
        let b = IvfIndex::build(&data, &IvfConfig { threads: 5, ..cfg });
        assert_eq!(a.ids, b.ids);
        assert_eq!(a.offsets, b.offsets);
        assert_eq!(a.centroids.data(), b.centroids.data());
        assert_eq!(a.vectors.matrix().data(), b.vectors.matrix().data());
    }

    /// Checksum-valid containers that lie about the structure: the
    /// container cannot see these, so `from_columns` has to.
    #[test]
    fn structural_lies_fail_load_cleanly() {
        use crate::testutil::patch_section;
        let dir = std::env::temp_dir().join(format!("pane_ivf_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("lie.idx");
        let data = renormalized(clustered_vectors(120, 10, 4, 0.2));
        let cfg = IvfConfig {
            nlist: 6,
            nprobe: 3,
            ..Default::default()
        };
        let idx = IvfIndex::build(&data, &cfg);
        let check = |idx: &IvfIndex, lie: &dyn Fn(&Path), want: &str| {
            idx.save(&p).unwrap();
            lie(&p);
            match crate::load_index(&p) {
                Err(IndexError::Format(m)) => assert!(m.contains(want), "{want}: {m}"),
                other => panic!("{want}: expected format error, got {other:?}"),
            }
        };
        check(
            &idx,
            &|p| patch_section(p, section::IVF_SIZES, |b| b[0] += 1),
            "cell sizes sum to 121",
        );
        check(
            &idx,
            &|p| patch_section(p, section::IVF_META, |b| b[0] += 1),
            "disagrees with nlist = 6",
        );
        check(
            &idx,
            &|p| patch_section(p, section::IVF_META, |b| b[8] = 7),
            "nprobe 7 outside",
        );
        let mut short = idx.clone();
        short.ids.pop();
        check(&short, &|_| (), "id array has 119 entries");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn nprobe_clamps() {
        let data = clustered_vectors(30, 6, 2, 0.2);
        let mut ivf = IvfIndex::build(&data, &IvfConfig::default());
        ivf.set_nprobe(0);
        assert_eq!(ivf.nprobe, 1);
        ivf.set_nprobe(10_000);
        assert_eq!(ivf.nprobe, ivf.nlist());
    }
}
