//! Index persistence: every index is one `PANECOL1` container.
//!
//! Indexes save as `PANECOL1` containers (see `pane-format`): each
//! structure's arrays become typed, aligned, checksummed sections, and
//! the meta word packs `kind | 1 << 8` — the high byte is the metric
//! tag, and inner product (`1`) is the only one. [`load_index`] is the one
//! loader: `Columns::open` reads each section once, into the vector the
//! structure then owns — `from_columns` takes the vectors by value, so a
//! load holds the file's values once. The container vouches for the
//! *bytes* (declared-vs-actual length before any allocation, header and
//! per-section checksums); each structure's `from_columns` then vouches
//! for the *structure* — shapes that agree, ids in range, a graph whose
//! entry point reaches its top level — and is the only place those
//! invariants are written down. Loaders must *fail the load* on any
//! inconsistency — never panic on the first search.
//!
//! # The removed `PANEIDX1` stream format
//!
//! Builds before the columnar migration wrote a value-by-value stream
//! under the magic `PANEIDX1`. That reader and writer are gone: an index
//! is *derived data*, rebuilt deterministically (and thread-invariantly)
//! from its vectors and build recipe, so there is nothing in such a file
//! worth a second parser. `pane-format` refuses the magic by name, with
//! the remedy, before it reads anything else, so [`load_index`] reports
//! it as an [`IndexError::Format`].

use crate::{
    FlatIndex, HnswIndex, IndexError, IndexKind, IvfIndex, Neighbor, SqFlatIndex, VectorIndex,
};
use pane_format::{Artifact, Columns, FormatError};
use pane_linalg::DenseMatrix;
use std::path::Path;

impl From<FormatError> for IndexError {
    fn from(e: FormatError) -> Self {
        match e {
            FormatError::Io(e) => IndexError::Io(e),
            FormatError::Format(m) => IndexError::Format(m),
        }
    }
}

/// The metric tag every index file carries in its meta word's high byte:
/// inner product, the one way an index scores a row.
const INNER_PRODUCT_TAG: u16 = 1;

/// The `PANECOL1` meta word of an index artifact: low byte =
/// [`IndexKind::tag`], high byte = the inner-product metric tag.
pub(crate) fn columnar_meta(kind: IndexKind) -> u16 {
    kind.tag() as u16 | (INNER_PRODUCT_TAG << 8)
}

/// Unpacks and validates the meta word of an index container: any metric
/// tag but inner product is refused by name, before a section is read.
fn columnar_kind(c: &Columns) -> Result<IndexKind, IndexError> {
    if c.artifact() != Artifact::Index {
        return Err(IndexError::Format(format!(
            "{:?} artifact where an index was expected",
            c.artifact()
        )));
    }
    let meta = c.meta();
    let kind = IndexKind::from_tag((meta & 0xFF) as u8)
        .ok_or_else(|| IndexError::Format(format!("unknown index kind tag {}", meta & 0xFF)))?;
    if meta >> 8 != INNER_PRODUCT_TAG {
        return Err(IndexError::Format(format!(
            "unknown metric tag {} (only inner product, tag {INNER_PRODUCT_TAG}, exists)",
            meta >> 8
        )));
    }
    Ok(kind)
}

/// Takes one f64 section as the matrix that owns its values (no copy;
/// the container checked its length against the real file size).
pub(crate) fn columnar_matrix(c: &mut Columns, id: u32) -> Result<DenseMatrix, IndexError> {
    let (rows, cols) = c.dims(id)?;
    Ok(DenseMatrix::from_vec(rows, cols, c.take(id)?))
}

/// An index of any kind, loaded from disk. Dispatches [`VectorIndex`]
/// calls to the concrete structure.
#[derive(Debug, Clone)]
pub enum AnyIndex {
    /// Exact baseline.
    Flat(FlatIndex),
    /// Inverted-file index.
    Ivf(IvfIndex),
    /// HNSW graph index.
    Hnsw(HnswIndex),
    /// Scalar-quantized flat index.
    SqFlat(SqFlatIndex),
}

impl AnyIndex {
    fn inner(&self) -> &dyn VectorIndex {
        match self {
            AnyIndex::Flat(x) => x,
            AnyIndex::Ivf(x) => x,
            AnyIndex::Hnsw(x) => x,
            AnyIndex::SqFlat(x) => x,
        }
    }

    /// Sets the number of probed cells if this is an IVF index (no-op
    /// otherwise); returns whether it applied.
    pub fn set_nprobe(&mut self, nprobe: usize) -> bool {
        if let AnyIndex::Ivf(x) = self {
            x.set_nprobe(nprobe);
            true
        } else {
            false
        }
    }

    /// Sets the search beam width if this is an HNSW index (no-op
    /// otherwise); returns whether it applied.
    pub fn set_ef_search(&mut self, ef: usize) -> bool {
        if let AnyIndex::Hnsw(x) = self {
            x.set_ef_search(ef);
            true
        } else {
            false
        }
    }
}

impl VectorIndex for AnyIndex {
    fn kind(&self) -> IndexKind {
        self.inner().kind()
    }
    fn len(&self) -> usize {
        self.inner().len()
    }
    fn dim(&self) -> usize {
        self.inner().dim()
    }
    fn search_block(&self, queries: &[f64], k: usize) -> Vec<Vec<Neighbor>> {
        self.inner().search_block(queries, k)
    }
    fn insert(&mut self, vector: &[f64]) -> Result<usize, IndexError> {
        match self {
            AnyIndex::Flat(x) => x.insert(vector),
            AnyIndex::Ivf(x) => x.insert(vector),
            AnyIndex::Hnsw(x) => x.insert(vector),
            AnyIndex::SqFlat(x) => x.insert(vector),
        }
    }
    fn save(&self, path: &Path) -> Result<(), IndexError> {
        self.inner().save(path)
    }
}

/// Loads any index file, dispatching on the kind stored in its
/// container's meta word.
pub fn load_index(path: &Path) -> Result<AnyIndex, IndexError> {
    let mut c = Columns::open(path)?;
    let c = &mut c;
    Ok(match columnar_kind(c)? {
        IndexKind::Flat => AnyIndex::Flat(FlatIndex::from_columns(c)?),
        IndexKind::Ivf => AnyIndex::Ivf(IvfIndex::from_columns(c)?),
        IndexKind::Hnsw => AnyIndex::Hnsw(HnswIndex::from_columns(c)?),
        IndexKind::SqFlat => AnyIndex::SqFlat(SqFlatIndex::from_columns(c)?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Metric;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("pane_index_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn bad_magic_rejected() {
        let p = tmp("bad_magic.idx");
        std::fs::write(&p, [&b"NOTANIDX"[..], &[0u8; 32]].concat()).unwrap();
        match load_index(&p) {
            Err(IndexError::Format(m)) => assert!(m.contains("magic")),
            other => panic!("expected format error, got {other:?}"),
        }
    }

    /// The removed stream format is refused by name, with the remedy,
    /// and only its first 8 bytes are ever looked at.
    #[test]
    fn removed_stream_format_is_rejected_by_name() {
        let p = tmp("stream.idx");
        std::fs::write(&p, b"PANEIDX1\x02\x00 whatever a pre-columnar build wrote").unwrap();
        match load_index(&p) {
            Err(IndexError::Format(m)) => assert!(
                m.contains("PANEIDX1") && m.contains("pane index build"),
                "{m}"
            ),
            other => panic!("expected the named format error, got {other:?}"),
        }
    }

    /// An unknown kind tag, and a known kind under any metric tag but
    /// inner product, are each refused by name before a section is read.
    #[test]
    fn unknown_kind_rejected() {
        let p = tmp("bad_kind.idx");
        let flat = IndexKind::Flat.tag() as u16;
        for (meta, want) in [(9 | (INNER_PRODUCT_TAG << 8), "kind"), (flat, "metric")] {
            pane_format::write_columns(&p, Artifact::Index, meta, &[]).unwrap();
            match load_index(&p) {
                Err(IndexError::Format(m)) => assert!(m.contains(want), "{m}"),
                other => panic!("expected format error, got {other:?}"),
            }
        }
    }

    #[test]
    fn truncated_payload_rejected() {
        use crate::testutil::{clustered_vectors, renormalized};
        let data = renormalized(clustered_vectors(10, 4, 2, 0.1));
        // The declared-vs-actual length check fires before any section
        // is even read.
        let p = tmp("trunc.idx");
        FlatIndex::build(&data, Metric::InnerProduct)
            .save(&p)
            .unwrap();
        let bytes = std::fs::read(&p).unwrap();
        std::fs::write(&p, &bytes[..bytes.len() - 7]).unwrap();
        match load_index(&p) {
            Err(IndexError::Format(m)) => assert!(m.contains("length"), "{m}"),
            other => panic!("expected format error, got {other:?}"),
        }
    }

    #[test]
    fn absurd_declared_count_fails_before_allocating() {
        // A flat container whose table declares a 2²⁷-row (16 GiB)
        // vectors section over a 320-byte payload, with a *valid* header
        // checksum: the table's layout arithmetic must refuse it — the
        // sections would end past the file — before any payload-sized
        // allocation.
        use crate::testutil::{clustered_vectors, renormalized, reseal_header};
        let p = tmp("absurd.idx");
        let data = renormalized(clustered_vectors(10, 4, 2, 0.1));
        FlatIndex::build(&data, Metric::InnerProduct)
            .save(&p)
            .unwrap();
        let mut bytes = std::fs::read(&p).unwrap();
        let entry = pane_format::HEADER_LEN;
        let rows = 1u64 << 27;
        bytes[entry + 8..entry + 16].copy_from_slice(&rows.to_le_bytes());
        bytes[entry + 32..entry + 40].copy_from_slice(&(rows * 4 * 8).to_le_bytes());
        reseal_header(&mut bytes, 1);
        std::fs::write(&p, bytes).unwrap();
        match load_index(&p) {
            Err(IndexError::Format(m)) => assert!(m.contains("sections end at"), "{m}"),
            other => panic!("expected format error, got {other:?}"),
        }
    }

    /// `load_index` verifies every section of a container, not only the
    /// ones its structure takes: a flat index carrying one extra section
    /// loads while intact, and fails with a checksum error once a byte
    /// of that section's payload is flipped.
    #[test]
    fn corrupt_untaken_section_fails_the_load() {
        use crate::testutil::clustered_vectors;
        use pane_format::{section, ColumnData, ColumnSpec};
        let p = tmp("extra_section.idx");
        let flat = FlatIndex::build(clustered_vectors(10, 4, 2, 0.1), Metric::InnerProduct);
        let extra = [7u64; 4];
        let specs = [
            ColumnSpec {
                id: section::INDEX_VECTORS,
                rows: 10,
                cols: 4,
                data: ColumnData::F64(flat.vectors().data()),
            },
            ColumnSpec {
                id: section::RESERVED_PQ_CODES,
                rows: 4,
                cols: 1,
                data: ColumnData::U64(&extra),
            },
        ];
        let meta = columnar_meta(IndexKind::Flat);
        pane_format::write_columns(&p, Artifact::Index, meta, &specs).unwrap();
        assert_eq!(load_index(&p).unwrap().len(), 10);
        // The extra section is the last one: its payload ends the file.
        let mut bytes = std::fs::read(&p).unwrap();
        *bytes.last_mut().unwrap() ^= 0x01;
        std::fs::write(&p, bytes).unwrap();
        match load_index(&p) {
            Err(IndexError::Format(m)) => assert!(m.contains("checksum"), "{m}"),
            other => panic!("expected a checksum error, got {other:?}"),
        }
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn load_index_dispatches_every_columnar_kind() {
        use crate::testutil::{clustered_vectors, renormalized};
        use crate::{HnswConfig, HnswIndex, IvfConfig, SqConfig, SqFlatIndex};
        let data = renormalized(clustered_vectors(60, 8, 3, 0.2));
        let dumps: Vec<(&str, Box<dyn VectorIndex>)> = vec![
            (
                "any_flat.idx",
                Box::new(FlatIndex::build(&data, Metric::InnerProduct)),
            ),
            (
                "any_ivf.idx",
                Box::new(IvfIndex::build(
                    &data,
                    &IvfConfig {
                        nlist: 4,
                        ..Default::default()
                    },
                )),
            ),
            (
                "any_hnsw.idx",
                Box::new(HnswIndex::build(&data, &HnswConfig::default())),
            ),
            (
                "any_sq.idx",
                Box::new(SqFlatIndex::build(&data, SqConfig::default())),
            ),
        ];
        for (name, idx) in dumps {
            let p = tmp(name);
            idx.save(&p).unwrap();
            let back = load_index(&p).unwrap();
            assert_eq!(back.kind(), idx.kind(), "{name}");
            assert_eq!(back.len(), 60);
            assert_eq!(back.dim(), 8);
            assert_eq!(back.search(data.row(5), 5), idx.search(data.row(5), 5));
            std::fs::remove_file(&p).ok();
        }
    }

    #[test]
    fn empty_index_rejected_at_load() {
        // build() asserts non-empty data, so a 0-row vectors section is
        // corruption the container cannot see; it must fail the load
        // instead of panicking the first search.
        let p = tmp("empty.idx");
        pane_format::write_columns(
            &p,
            Artifact::Index,
            columnar_meta(IndexKind::Flat),
            &[pane_format::ColumnSpec {
                id: pane_format::section::INDEX_VECTORS,
                rows: 0,
                cols: 4,
                data: pane_format::ColumnData::F64(&[]),
            }],
        )
        .unwrap();
        match load_index(&p) {
            Err(IndexError::Format(m)) => assert!(m.contains("valid range"), "{m}"),
            other => panic!("expected format error, got {other:?}"),
        }
    }
}
