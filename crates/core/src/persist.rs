//! Embedding persistence: save/load `X_f`, `X_b`, `Y` in a text and two
//! binary formats.
//!
//! The current binary format is the shared `PANECOL1` column container
//! (`pane-format`): one section per matrix, 64-byte aligned and
//! checksummed, loaded with a single bulk read and three `memcpy`s —
//! see [`save_columns`] / [`load_columns`]. The legacy `PANEEMB1`
//! layout (`magic ‖ n ‖ d ‖ k/2 ‖ X_f ‖ X_b ‖ Y`, decoded value by
//! value) is still readable: [`load_binary`] sniffs the magic and
//! dispatches, so stores written before the columnar migration keep
//! opening — after the header's implied length has been checked against
//! the real file length. The text format is line-oriented (`node: values…`) for
//! inspection and interop with the Python tooling the original
//! evaluation used.

use crate::pane::{PaneEmbedding, PaneTimings};
use pane_format::{section, Artifact, ColumnData, ColumnSpec, FormatError};
use pane_linalg::DenseMatrix;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Magic bytes of the legacy binary format (version 1).
pub const BINARY_MAGIC: &[u8; 8] = b"PANEEMB1";

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

/// Reads an embedding written by [`save_columns`] via the streaming
/// section loader: after header + table validation, each matrix's
/// payload is read once, directly into the `Vec<f64>` it will own, and
/// checksummed there — no per-value decode loop and no intermediate
/// whole-file buffer to copy out of.
pub fn load_columns(path: &Path) -> Result<PaneEmbedding, PersistError> {
    let (artifact, _meta, sections) = pane_format::read_f64_sections(
        path,
        &[
            section::EMB_FORWARD,
            section::EMB_BACKWARD,
            section::EMB_ATTRIBUTE,
        ],
    )?;
    if artifact != Artifact::Embedding {
        return Err(PersistError::Format(format!(
            "{artifact:?} artifact where an embedding was expected"
        )));
    }
    let mut it = sections.into_iter();
    let mut matrix = || -> DenseMatrix {
        let s = it.next().expect("three sections were requested");
        DenseMatrix::from_vec(s.rows, s.cols, s.values)
    };
    let forward = matrix();
    let backward = matrix();
    let attribute = matrix();
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

/// Writes the embedding in the legacy `PANEEMB1` binary format.
///
/// Kept as a writer so compatibility fixtures (tests, the CI
/// migrate-then-serve smoke) can produce pre-`PANECOL1` stores; its only
/// product caller is the legacy arm of `pane-store`'s generation writer
/// (`pane store init --format legacy`). Everything else — `pane embed`
/// included — writes [`save_columns`].
pub fn save_binary(emb: &PaneEmbedding, path: &Path) -> Result<(), PersistError> {
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(BINARY_MAGIC)?;
    let (n, k2) = emb.forward.shape();
    let d = emb.attribute.rows();
    for dim in [n as u64, d as u64, k2 as u64] {
        w.write_all(&dim.to_le_bytes())?;
    }
    for m in [&emb.forward, &emb.backward, &emb.attribute] {
        for &v in m.data() {
            w.write_all(&v.to_le_bytes())?;
        }
    }
    w.flush()?;
    Ok(())
}

/// Reads a binary embedding, whichever container it is in: sniffs the
/// magic and dispatches to the `PANECOL1` bulk path ([`load_columns`])
/// or the legacy `PANEEMB1` per-value decode loop. Every pre-migration
/// store keeps opening through this one entry point.
pub fn load_binary(path: &Path) -> Result<PaneEmbedding, PersistError> {
    if pane_format::is_columnar(path)? {
        return load_columns(path);
    }
    let file = File::open(path)?;
    let file_len = file.metadata()?.len();
    let mut r = BufReader::new(file);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != BINARY_MAGIC {
        return Err(PersistError::Format(format!(
            "bad magic {:?} (expected {:?} or {:?})",
            magic,
            BINARY_MAGIC,
            pane_format::MAGIC
        )));
    }
    let mut dims = [0u64; 3];
    for d in dims.iter_mut() {
        let mut buf = [0u8; 8];
        r.read_exact(&mut buf)?;
        *d = u64::from_le_bytes(buf);
    }
    // The header is untrusted: nothing is allocated from it until the
    // length it implies equals the length the OS reports (the same
    // declared-vs-actual rule `PANECOL1` applies; trailing bytes fail too).
    let [n, d, k2] = dims;
    let declared = n
        .checked_mul(2)
        .and_then(|rows| rows.checked_add(d))
        .and_then(|rows| rows.checked_mul(k2))
        .and_then(|values| values.checked_mul(8))
        .and_then(|bytes| bytes.checked_add(32));
    if declared != Some(file_len) {
        return Err(PersistError::Format(format!(
            "header declares n = {n}, d = {d}, k/2 = {k2} but the file is {file_len} bytes"
        )));
    }
    let (n, d, k2) = (n as usize, d as usize, k2 as usize);
    let mut read_matrix = |rows: usize, cols: usize| -> Result<DenseMatrix, PersistError> {
        let mut data = vec![0.0f64; rows * cols];
        for v in data.iter_mut() {
            let mut buf = [0u8; 8];
            r.read_exact(&mut buf)?;
            *v = f64::from_le_bytes(buf);
        }
        Ok(DenseMatrix::from_vec(rows, cols, data))
    };
    let forward = read_matrix(n, k2)?;
    let backward = read_matrix(n, k2)?;
    let attribute = read_matrix(d, k2)?;
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
    fn binary_roundtrip_is_bit_exact() {
        let emb = example_embedding();
        let p = tmp("emb.bin");
        save_binary(&emb, &p).unwrap();
        let back = load_binary(&p).unwrap();
        assert_eq!(emb.forward.data(), back.forward.data());
        assert_eq!(emb.backward.data(), back.backward.data());
        assert_eq!(emb.attribute.data(), back.attribute.data());
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
    fn load_binary_sniffs_both_containers() {
        let emb = example_embedding();
        let legacy = tmp("sniff_legacy.bin");
        let columnar = tmp("sniff_columnar.bin");
        save_binary(&emb, &legacy).unwrap();
        save_columns(&emb, &columnar).unwrap();
        let a = load_binary(&legacy).unwrap();
        let b = load_binary(&columnar).unwrap();
        assert_eq!(a.forward.data(), b.forward.data());
        assert_eq!(a.backward.data(), b.backward.data());
        assert_eq!(a.attribute.data(), b.attribute.data());
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
        assert!(matches!(load_binary(&p), Err(PersistError::Format(_))));
    }

    #[test]
    fn bad_magic_rejected() {
        let p = tmp("bad.bin");
        std::fs::write(&p, b"NOTPANE!").unwrap();
        match load_binary(&p) {
            Err(PersistError::Format(m)) => assert!(m.contains("magic")),
            other => panic!("expected format error, got {other:?}"),
        }
    }

    #[test]
    fn truncated_binary_rejected() {
        let emb = example_embedding();
        let p = tmp("trunc.bin");
        save_binary(&emb, &p).unwrap();
        let bytes = std::fs::read(&p).unwrap();
        // A 32-byte header declaring 2³³ × 1 rows: must be refused from
        // the file length, not by attempting a 64 GiB allocation.
        let mut absurd = BINARY_MAGIC.to_vec();
        for dim in [1u64 << 33, 4, 1] {
            absurd.extend_from_slice(&dim.to_le_bytes());
        }
        let trailing = [&bytes[..], &[0u8]].concat();
        for bad in [&bytes[..bytes.len() / 2], &absurd, &trailing] {
            std::fs::write(&p, bad).unwrap();
            assert!(
                matches!(load_binary(&p), Err(PersistError::Format(_))),
                "{} bytes accepted",
                bad.len()
            );
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
