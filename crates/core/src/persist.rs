//! Embedding persistence: save/load `X_f`, `X_b`, `Y` in a binary and a
//! text format.
//!
//! The binary format is the shared `PANECOL1` column container
//! (`pane-format`): one section per matrix, 64-byte aligned and
//! checksummed, each read once into the matrix that owns it — see
//! [`save_columns`] / [`load_columns`]. A file in the removed
//! pre-columnar `PANEEMB1` stream is refused by name, with the remedy,
//! by `pane-format` itself. The text format is line-oriented
//! (`node: values…`) for inspection and interop with the Python tooling
//! the original evaluation used.

use crate::pane::{PaneEmbedding, PaneTimings};
use pane_format::{section, Artifact, ColumnData, ColumnSpec, Columns, FormatError};
use pane_linalg::DenseMatrix;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// Errors from loading an embedding.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file is not a recognizable embedding dump.
    Format(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "I/O error: {e}"),
            PersistError::Format(m) => write!(f, "format error: {m}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<FormatError> for PersistError {
    fn from(e: FormatError) -> Self {
        match e {
            FormatError::Io(e) => PersistError::Io(e),
            FormatError::Format(m) => PersistError::Format(m),
        }
    }
}

/// Writes the embedding as a `PANECOL1` column container (the current
/// on-disk format: one checksummed section per matrix).
pub fn save_columns(emb: &PaneEmbedding, path: &Path) -> Result<(), PersistError> {
    let (n, k2) = emb.forward.shape();
    let d = emb.attribute.rows();
    pane_format::write_columns(
        path,
        Artifact::Embedding,
        0,
        &[
            ColumnSpec {
                id: section::EMB_FORWARD,
                rows: n,
                cols: k2,
                data: ColumnData::F64(emb.forward.data()),
            },
            ColumnSpec {
                id: section::EMB_BACKWARD,
                rows: n,
                cols: k2,
                data: ColumnData::F64(emb.backward.data()),
            },
            ColumnSpec {
                id: section::EMB_ATTRIBUTE,
                rows: d,
                cols: k2,
                data: ColumnData::F64(emb.attribute.data()),
            },
        ],
    )?;
    Ok(())
}

/// Reads an embedding written by [`save_columns`]. `Columns::open`
/// reads each matrix's payload once, straight into the `Vec<f64>` the
/// matrix then owns, and checksums it there — no per-value decode loop
/// and no whole-file buffer to copy out of.
pub fn load_columns(path: &Path) -> Result<PaneEmbedding, PersistError> {
    let mut c = Columns::open(path)?;
    if c.artifact() != Artifact::Embedding {
        return Err(PersistError::Format(format!(
            "{:?} artifact where an embedding was expected",
            c.artifact()
        )));
    }
    let mut matrix = |id| -> Result<DenseMatrix, FormatError> {
        let (rows, cols) = c.dims(id)?;
        Ok(DenseMatrix::from_vec(rows, cols, c.take(id)?))
    };
    let forward = matrix(section::EMB_FORWARD)?;
    let backward = matrix(section::EMB_BACKWARD)?;
    let attribute = matrix(section::EMB_ATTRIBUTE)?;
    if forward.shape() != backward.shape() || forward.cols() != attribute.cols() {
        return Err(PersistError::Format(format!(
            "inconsistent embedding sections: X_f {:?}, X_b {:?}, Y {:?}",
            forward.shape(),
            backward.shape(),
            attribute.shape()
        )));
    }
    Ok(PaneEmbedding {
        forward,
        backward,
        attribute,
        timings: PaneTimings::default(),
        objective: f64::NAN, // not stored; recompute against F'/B' if needed
    })
}

/// Writes the embedding in the text format (three sections).
pub fn save_text(emb: &PaneEmbedding, path: &Path) -> Result<(), PersistError> {
    let mut w = BufWriter::new(File::create(path)?);
    let (n, k2) = emb.forward.shape();
    let d = emb.attribute.rows();
    writeln!(w, "# PANE embedding v1")?;
    writeln!(w, "{n} {d} {k2}")?;
    for (section, m) in [
        ("forward", &emb.forward),
        ("backward", &emb.backward),
        ("attribute", &emb.attribute),
    ] {
        writeln!(w, "# {section}")?;
        for i in 0..m.rows() {
            let row: Vec<String> = m.row(i).iter().map(|v| format!("{v:.17e}")).collect();
            writeln!(w, "{i} {}", row.join(" "))?;
        }
    }
    w.flush()?;
    Ok(())
}

/// Reads an embedding written by [`save_text`].
pub fn load_text(path: &Path) -> Result<PaneEmbedding, PersistError> {
    let mut lines = BufReader::new(File::open(path)?).lines();
    let next_data_line = |lines: &mut dyn Iterator<Item = io::Result<String>>| -> Result<Option<String>, PersistError> {
        for line in lines {
            let line = line?;
            if !line.trim_start().starts_with('#') && !line.trim().is_empty() {
                return Ok(Some(line));
            }
        }
        Ok(None)
    };
    let header =
        next_data_line(&mut lines)?.ok_or_else(|| PersistError::Format("empty file".into()))?;
    let dims: Vec<usize> = header
        .split_whitespace()
        .map(|t| {
            t.parse()
                .map_err(|e| PersistError::Format(format!("bad header: {e}")))
        })
        .collect::<Result<_, _>>()?;
    if dims.len() != 3 {
        return Err(PersistError::Format(format!(
            "header must be 'n d k2', got '{header}'"
        )));
    }
    let (n, d, k2) = (dims[0], dims[1], dims[2]);
    let mut read_matrix = |rows: usize| -> Result<DenseMatrix, PersistError> {
        let mut m = DenseMatrix::zeros(rows, k2);
        for _ in 0..rows {
            let line = next_data_line(&mut lines)?
                .ok_or_else(|| PersistError::Format("unexpected end of file".into()))?;
            let mut toks = line.split_whitespace();
            let idx: usize = toks
                .next()
                .ok_or_else(|| PersistError::Format("missing row index".into()))?
                .parse()
                .map_err(|e| PersistError::Format(format!("bad row index: {e}")))?;
            if idx >= rows {
                return Err(PersistError::Format(format!(
                    "row index {idx} out of range {rows}"
                )));
            }
            let row = m.row_mut(idx);
            for (j, slot) in row.iter_mut().enumerate() {
                let tok = toks
                    .next()
                    .ok_or_else(|| PersistError::Format(format!("row {idx}: missing value {j}")))?;
                *slot = tok
                    .parse()
                    .map_err(|e| PersistError::Format(format!("row {idx}: {e}")))?;
            }
        }
        Ok(m)
    };
    let forward = read_matrix(n)?;
    let backward = read_matrix(n)?;
    let attribute = read_matrix(d)?;
    Ok(PaneEmbedding {
        forward,
        backward,
        attribute,
        timings: PaneTimings::default(),
        objective: f64::NAN,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Pane, PaneConfig};
    use pane_graph::toy::figure1_graph;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("pane_persist_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn example_embedding() -> PaneEmbedding {
        let g = figure1_graph();
        let cfg = PaneConfig::builder()
            .dimension(4)
            .alpha(0.15)
            .seed(3)
            .build();
        Pane::new(cfg).embed(&g).unwrap()
    }

    #[test]
    fn text_roundtrip_is_bit_exact() {
        // %.17e prints f64 losslessly.
        let emb = example_embedding();
        let p = tmp("emb.txt");
        save_text(&emb, &p).unwrap();
        let back = load_text(&p).unwrap();
        assert_eq!(emb.forward.data(), back.forward.data());
        assert_eq!(emb.attribute.data(), back.attribute.data());
    }

    #[test]
    fn columnar_roundtrip_is_bit_exact() {
        let emb = example_embedding();
        let p = tmp("emb.col");
        save_columns(&emb, &p).unwrap();
        let back = load_columns(&p).unwrap();
        assert_eq!(emb.forward.data(), back.forward.data());
        assert_eq!(emb.backward.data(), back.backward.data());
        assert_eq!(emb.attribute.data(), back.attribute.data());
    }

    #[test]
    fn columnar_index_artifact_is_not_an_embedding() {
        let p = tmp("wrong_artifact.col");
        let v = [0.0f64; 4];
        pane_format::write_columns(
            &p,
            pane_format::Artifact::Index,
            0,
            &[pane_format::ColumnSpec {
                id: pane_format::section::INDEX_VECTORS,
                rows: 2,
                cols: 2,
                data: pane_format::ColumnData::F64(&v),
            }],
        )
        .unwrap();
        assert!(matches!(load_columns(&p), Err(PersistError::Format(_))));
    }

    #[test]
    fn bad_magic_rejected() {
        let p = tmp("bad.bin");
        std::fs::write(&p, b"NOTPANE!").unwrap();
        match load_columns(&p) {
            Err(PersistError::Format(m)) => assert!(m.contains("magic")),
            other => panic!("expected format error, got {other:?}"),
        }
    }

    #[test]
    fn malformed_text_rejected() {
        let p = tmp("bad.txt");
        std::fs::write(&p, "# PANE embedding v1\n2 2\n").unwrap();
        assert!(matches!(load_text(&p), Err(PersistError::Format(_))));
        std::fs::write(&p, "# PANE embedding v1\n1 1 2\n0 1.0 not_a_number\n").unwrap();
        assert!(matches!(load_text(&p), Err(PersistError::Format(_))));
    }
}
