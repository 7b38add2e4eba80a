//! Index persistence: every index is one `PANECOL1` container.
//!
//! Indexes save as `PANECOL1` containers (see `pane-format`): each
//! structure's arrays become typed, aligned, checksummed sections, the
//! meta word packs `kind | metric << 8`, and loading is a single bulk
//! read plus zero-copy views. The container vouches for the *bytes*
//! (declared-vs-actual length before any allocation, header and
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
//! worth a second parser. A file that still carries the magic is
//! rejected by name — a structured [`IndexError::Format`] that says how
//! to regenerate it, decided from the first 8 bytes alone — and a store
//! generation whose manifest says `format legacy` never has its index
//! files read at all: `pane-store` rebuilds the pair from the manifest's
//! recipe.

use crate::{
    FlatIndex, HnswIndex, IndexError, IndexKind, IvfIndex, Metric, Neighbor, SqFlatIndex,
    VectorIndex,
};
use pane_format::{Artifact, Columns, FormatError};
use pane_linalg::DenseMatrix;
use std::path::Path;

/// Refuse headers implying more than this many `f64`s in one matrix
/// (~8 GiB) — corrupted dimensions should error, not OOM.
const MAX_MATRIX_ELEMS: usize = 1 << 30;

impl From<FormatError> for IndexError {
    fn from(e: FormatError) -> Self {
        match e {
            FormatError::Io(e) => IndexError::Io(e),
            FormatError::Format(m) => IndexError::Format(m),
        }
    }
}

/// Packs `(kind, metric)` into the `PANECOL1` meta word for index
/// artifacts: low byte = [`IndexKind::tag`], high byte = [`Metric::tag`].
pub(crate) fn columnar_meta(kind: IndexKind, metric: Metric) -> u16 {
    kind.tag() as u16 | ((metric.tag() as u16) << 8)
}

/// Unpacks and validates the meta word of an index container.
pub(crate) fn columnar_kind_metric(c: &Columns) -> Result<(IndexKind, Metric), IndexError> {
    if c.artifact() != Artifact::Index {
        return Err(IndexError::Format(format!(
            "{:?} artifact where an index was expected",
            c.artifact()
        )));
    }
    let meta = c.meta();
    let kind = IndexKind::from_tag((meta & 0xFF) as u8)
        .ok_or_else(|| IndexError::Format(format!("unknown index kind tag {}", meta & 0xFF)))?;
    let metric = Metric::from_tag((meta >> 8) as u8)
        .ok_or_else(|| IndexError::Format(format!("unknown metric tag {}", meta >> 8)))?;
    Ok((kind, metric))
}

/// Opens an index file as a validated container, turning the removed
/// stream format into a named error instead of a generic bad-magic one.
fn open_columns(path: &Path) -> Result<Columns, IndexError> {
    if pane_format::peek_magic(path)? == Some(*b"PANEIDX1") {
        return Err(IndexError::Format(format!(
            "{} is a PANEIDX1 stream, a format this build no longer reads; index files are \
             derived data — regenerate it with `pane index build` (for a store directory, run \
             `pane store snapshot`)",
            path.display()
        )));
    }
    Ok(Columns::open(path)?)
}

/// Opens a `PANECOL1` index container, checking the stored kind.
pub(crate) fn open_index_columns(
    path: &Path,
    expect: IndexKind,
) -> Result<(Columns, Metric), IndexError> {
    let c = open_columns(path)?;
    let (kind, metric) = columnar_kind_metric(&c)?;
    if kind != expect {
        return Err(IndexError::Format(format!(
            "index kind mismatch: file holds '{kind}', expected '{expect}'"
        )));
    }
    Ok((c, metric))
}

/// Pulls one f64 section out as an owned matrix (a single `memcpy` from
/// the zero-copy view — the container already validated lengths against
/// the real file size, the cap only guards in-memory blowup).
pub(crate) fn columnar_matrix(c: &Columns, id: u32) -> Result<DenseMatrix, IndexError> {
    let (rows, cols) = c.dims(id)?;
    rows.checked_mul(cols)
        .filter(|&t| t <= MAX_MATRIX_ELEMS)
        .ok_or_else(|| IndexError::Format(format!("matrix {rows}×{cols} overflows cap")))?;
    Ok(DenseMatrix::from_vec(rows, cols, c.f64s(id)?.to_vec()))
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
    fn metric(&self) -> Metric {
        self.inner().metric()
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
    let c = open_columns(path)?;
    let (kind, metric) = columnar_kind_metric(&c)?;
    Ok(match kind {
        IndexKind::Flat => AnyIndex::Flat(FlatIndex::from_columns(&c, metric)?),
        IndexKind::Ivf => AnyIndex::Ivf(IvfIndex::from_columns(&c, metric)?),
        IndexKind::Hnsw => AnyIndex::Hnsw(HnswIndex::from_columns(&c, metric)?),
        IndexKind::SqFlat => AnyIndex::SqFlat(SqFlatIndex::from_columns(&c, metric)?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// The removed stream format is refused by name, with the remedy —
    /// through the self-describing entry point and every typed loader —
    /// and only its first 8 bytes are ever looked at.
    #[test]
    fn removed_stream_format_is_rejected_by_name() {
        let p = tmp("stream.idx");
        std::fs::write(&p, b"PANEIDX1\x02\x00 whatever a pre-columnar build wrote").unwrap();
        let errors = [
            load_index(&p).err(),
            FlatIndex::load(&p).err(),
            IvfIndex::load(&p).err(),
            HnswIndex::load(&p).err(),
            SqFlatIndex::load(&p).err(),
        ];
        for e in errors {
            match e {
                Some(IndexError::Format(m)) => {
                    assert!(
                        m.contains("PANEIDX1") && m.contains("pane index build"),
                        "{m}"
                    )
                }
                other => panic!("expected the named format error, got {other:?}"),
            }
        }
    }

    #[test]
    fn unknown_kind_rejected() {
        let p = tmp("bad_kind.idx");
        let meta = 9 | ((Metric::Cosine.tag() as u16) << 8);
        pane_format::write_columns(&p, Artifact::Index, meta, &[]).unwrap();
        match load_index(&p) {
            Err(IndexError::Format(m)) => assert!(m.contains("kind"), "{m}"),
            other => panic!("expected format error, got {other:?}"),
        }
    }

    #[test]
    fn kind_mismatch_rejected() {
        use crate::testutil::clustered_vectors;
        let p = tmp("flat_as_ivf.idx");
        let data = clustered_vectors(10, 4, 2, 0.1);
        FlatIndex::build(&data, Metric::Cosine).save(&p).unwrap();
        match IvfIndex::load(&p) {
            Err(IndexError::Format(m)) => assert!(m.contains("mismatch")),
            other => panic!("expected format error, got {other:?}"),
        }
    }

    #[test]
    fn truncated_payload_rejected() {
        use crate::testutil::clustered_vectors;
        let data = clustered_vectors(10, 4, 2, 0.1);
        // The declared-vs-actual length check fires before any section
        // is even read.
        let p = tmp("trunc.idx");
        FlatIndex::build(&data, Metric::Cosine).save(&p).unwrap();
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
        use crate::testutil::{clustered_vectors, reseal_header};
        let p = tmp("absurd.idx");
        let data = clustered_vectors(10, 4, 2, 0.1);
        FlatIndex::build(&data, Metric::Cosine).save(&p).unwrap();
        let mut bytes = std::fs::read(&p).unwrap();
        let entry = pane_format::HEADER_LEN;
        let rows = 1u64 << 27;
        bytes[entry + 8..entry + 16].copy_from_slice(&rows.to_le_bytes());
        bytes[entry + 32..entry + 40].copy_from_slice(&(rows * 4 * 8).to_le_bytes());
        reseal_header(&mut bytes, 1);
        std::fs::write(&p, bytes).unwrap();
        match FlatIndex::load(&p) {
            Err(IndexError::Format(m)) => assert!(m.contains("sections end at"), "{m}"),
            other => panic!("expected format error, got {other:?}"),
        }
    }

    #[test]
    fn load_index_dispatches_every_columnar_kind() {
        use crate::testutil::clustered_vectors;
        use crate::{HnswConfig, HnswIndex, IvfConfig, SqConfig, SqFlatIndex};
        let data = clustered_vectors(60, 8, 3, 0.2);
        let dumps: Vec<(&str, Box<dyn VectorIndex>)> = vec![
            (
                "any_flat.idx",
                Box::new(FlatIndex::build(&data, Metric::Cosine)),
            ),
            (
                "any_ivf.idx",
                Box::new(IvfIndex::build(
                    &data,
                    Metric::Cosine,
                    &IvfConfig {
                        nlist: 4,
                        ..Default::default()
                    },
                )),
            ),
            (
                "any_hnsw.idx",
                Box::new(HnswIndex::build(
                    &data,
                    Metric::Cosine,
                    &HnswConfig::default(),
                )),
            ),
            (
                "any_sq.idx",
                Box::new(SqFlatIndex::build(
                    &data,
                    Metric::Cosine,
                    SqConfig::default(),
                )),
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
            columnar_meta(IndexKind::Flat, Metric::Cosine),
            &[pane_format::ColumnSpec {
                id: pane_format::section::INDEX_VECTORS,
                rows: 0,
                cols: 4,
                data: pane_format::ColumnData::F64(&[]),
            }],
        )
        .unwrap();
        match FlatIndex::load(&p) {
            Err(IndexError::Format(m)) => assert!(m.contains("valid range"), "{m}"),
            other => panic!("expected format error, got {other:?}"),
        }
    }
}
