//! The `PANESTR1` store manifest: which generation is current, and the
//! index build recipes.
//!
//! A manifest is a small line-oriented text file named `MANIFEST` at the
//! root of a store directory. Two shapes exist:
//!
//! ```text
//! PANESTR1                                  PANESTR1
//! generation 3                              shards 4
//! node_index hnsw m=16 efc=100 ef=64 seed=0
//! link_index flat
//! format columnar
//! ```
//!
//! The left shape names a **single store**: base artifacts live in
//! `gen-00003/` and the insert-ahead log in `wal.log`. The right shape
//! names a **sharded root** whose shards are the single stores
//! `shard-000/` … `shard-003/`.
//!
//! # Atomicity contract
//!
//! The manifest is the *commit point* of a snapshot: a new generation
//! directory is fully written and synced first, then the manifest is
//! replaced via write-to-temp + `rename` (atomic within a directory on
//! every platform we target). A crash before the rename leaves the old
//! manifest naming the old, complete generation; a crash after it leaves
//! the new manifest naming the new, complete generation. There is no
//! window in which the manifest names missing or partial artifacts, so
//! `Store::open` never has to guess.

use crate::StoreError;
use pane_index::IndexSpec;
use std::io::Write;
use std::path::Path;

/// Magic first line of a manifest (version 1).
pub const MANIFEST_MAGIC: &str = "PANESTR1";

/// File name of the manifest inside a store directory.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// The `format` line every single-store manifest carries. `PANECOL1`
/// is the one artifact container, so the line is a constant; reading
/// requires it, which is how a generation from a build that wrote the
/// removed `PANEEMB1` embedding (`format legacy`, or a manifest from
/// before the line existed) is refused before any artifact is opened.
const FORMAT_LINE: &str = "format columnar";

/// Parsed contents of a store manifest.
#[derive(Debug, Clone, PartialEq)]
pub enum Manifest {
    /// A single store directory: current generation + index recipes.
    Single {
        /// Current base generation (its artifacts live in `gen-<g>/`).
        generation: u64,
        /// Build recipe of the similar-nodes index.
        node_spec: IndexSpec,
        /// Build recipe of the link-recommendation index.
        link_spec: IndexSpec,
    },
    /// A sharded root holding `shards` single stores.
    Sharded {
        /// Number of shards (`shard-000/` … `shard-<N-1>/`).
        shards: usize,
    },
}

impl Manifest {
    fn render(&self) -> String {
        match self {
            Manifest::Single {
                generation,
                node_spec,
                link_spec,
            } => format!(
                "{MANIFEST_MAGIC}\ngeneration {generation}\nnode_index {}\nlink_index {}\n{FORMAT_LINE}\n",
                node_spec.to_manifest(),
                link_spec.to_manifest()
            ),
            Manifest::Sharded { shards } => format!("{MANIFEST_MAGIC}\nshards {shards}\n"),
        }
    }

    /// Writes the manifest atomically: `MANIFEST.tmp` is written and
    /// synced, then renamed over `MANIFEST`, then the directory entry is
    /// synced (best-effort) so the commit survives power loss.
    pub fn write(&self, dir: &Path) -> Result<(), StoreError> {
        let tmp = dir.join("MANIFEST.tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(self.render().as_bytes())?;
            f.sync_data()?;
        }
        std::fs::rename(&tmp, dir.join(MANIFEST_FILE))?;
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }

    /// Reads and parses `dir/MANIFEST`. Every malformation is a
    /// structured [`StoreError::Format`] naming the problem.
    pub fn read(dir: &Path) -> Result<Manifest, StoreError> {
        let path = dir.join(MANIFEST_FILE);
        let text = std::fs::read_to_string(&path).map_err(|e| {
            if e.kind() == std::io::ErrorKind::NotFound {
                StoreError::Format(format!(
                    "{} is not a store directory (no {MANIFEST_FILE}); run `pane store init` first",
                    dir.display()
                ))
            } else {
                StoreError::Io(e)
            }
        })?;
        let mut lines = text.lines();
        match lines.next() {
            Some(MANIFEST_MAGIC) => {}
            other => {
                return Err(StoreError::Format(format!(
                    "{}: first line is {other:?}, expected {MANIFEST_MAGIC:?}",
                    path.display()
                )))
            }
        }
        let mut generation = None;
        let mut shards = None;
        let mut node_spec = None;
        let mut link_spec = None;
        let mut format = None;
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (key, rest) = line.split_once(' ').ok_or_else(|| {
                StoreError::Format(format!("{}: malformed line '{line}'", path.display()))
            })?;
            let dup = |what: &str| {
                StoreError::Format(format!("{}: repeated '{what}' line", path.display()))
            };
            match key {
                "generation" => {
                    let g: u64 = rest.parse().map_err(|e| {
                        StoreError::Format(format!("{}: bad generation: {e}", path.display()))
                    })?;
                    if generation.replace(g).is_some() {
                        return Err(dup("generation"));
                    }
                }
                "shards" => {
                    let s: usize = rest.parse().map_err(|e| {
                        StoreError::Format(format!("{}: bad shard count: {e}", path.display()))
                    })?;
                    if shards.replace(s).is_some() {
                        return Err(dup("shards"));
                    }
                }
                "node_index" => {
                    let spec = IndexSpec::from_manifest(rest).map_err(|e| {
                        StoreError::Format(format!("{}: node_index: {e}", path.display()))
                    })?;
                    if node_spec.replace(spec).is_some() {
                        return Err(dup("node_index"));
                    }
                }
                "link_index" => {
                    let spec = IndexSpec::from_manifest(rest).map_err(|e| {
                        StoreError::Format(format!("{}: link_index: {e}", path.display()))
                    })?;
                    if link_spec.replace(spec).is_some() {
                        return Err(dup("link_index"));
                    }
                }
                "format" => {
                    if format.replace(rest).is_some() {
                        return Err(dup("format"));
                    }
                }
                other => {
                    return Err(StoreError::Format(format!(
                        "{}: unknown manifest key '{other}'",
                        path.display()
                    )))
                }
            }
        }
        match (generation, shards, node_spec, link_spec) {
            (Some(generation), None, Some(node_spec), Some(link_spec)) => match format {
                Some("columnar") => Ok(Manifest::Single {
                    generation,
                    node_spec,
                    link_spec,
                }),
                Some("legacy") | None => Err(StoreError::Format(format!(
                    "{}: {} — a legacy generation, a format this build no longer reads; run \
                     `pane store snapshot` on the store with a build from before legacy stores \
                     were removed",
                    path.display(),
                    if format.is_some() {
                        "'format legacy'"
                    } else {
                        "no format line"
                    }
                ))),
                Some(other) => Err(StoreError::Format(format!(
                    "{}: unknown artifact format '{other}' (expected '{FORMAT_LINE}')",
                    path.display()
                ))),
            },
            (None, Some(shards), None, None) => {
                if format.is_some() {
                    return Err(StoreError::Format(format!(
                        "{}: a sharded root carries no 'format' line (each shard records its own)",
                        path.display()
                    )));
                }
                if shards < 2 {
                    return Err(StoreError::Format(format!(
                        "{}: a sharded root needs at least 2 shards, got {shards}",
                        path.display()
                    )));
                }
                Ok(Manifest::Sharded { shards })
            }
            _ => Err(StoreError::Format(format!(
                "{}: manifest must hold either (generation, node_index, link_index) or (shards)",
                path.display()
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pane_index::{HnswConfig, IvfConfig};

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("pane_manifest_{}_{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn single_roundtrip() {
        let dir = tmp("single");
        let m = Manifest::Single {
            generation: 7,
            node_spec: IndexSpec::Hnsw(HnswConfig {
                m: 12,
                ..Default::default()
            }),
            link_spec: IndexSpec::Ivf(IvfConfig {
                nlist: 32,
                ..Default::default()
            }),
        };
        m.write(&dir).unwrap();
        assert_eq!(Manifest::read(&dir).unwrap(), m);
    }

    /// A manifest from a build that wrote `PANEEMB1` generations —
    /// `format legacy`, or no format line at all — is a named error that
    /// gives the remedy, raised while the manifest is read: the store
    /// has no `gen-00002/`, so an open or a status that reached for an
    /// artifact would fail with an I/O error instead, and no lock file
    /// is created.
    #[test]
    fn manifest_without_a_columnar_format_line_is_refused() {
        let dir = tmp("noformat");
        for tail in ["", "format legacy\n"] {
            std::fs::write(
                dir.join(MANIFEST_FILE),
                format!("PANESTR1\ngeneration 2\nnode_index flat\nlink_index flat\n{tail}"),
            )
            .unwrap();
            let errors = [
                Manifest::read(&dir).err(),
                crate::Store::open(&dir).err(),
                crate::read_status(&dir).err(),
            ];
            for e in errors {
                match e {
                    Some(StoreError::Format(m)) => {
                        assert!(m.contains("legacy") && m.contains("store snapshot"), "{m}")
                    }
                    other => panic!("expected the named refusal, got {other:?}"),
                }
            }
            assert!(!dir.join(crate::store::LOCK_FILE).exists());
        }
    }

    #[test]
    fn sharded_roundtrip() {
        let dir = tmp("sharded");
        let m = Manifest::Sharded { shards: 4 };
        m.write(&dir).unwrap();
        assert_eq!(Manifest::read(&dir).unwrap(), m);
    }

    #[test]
    fn corrupt_manifests_are_structured_errors() {
        let dir = tmp("corrupt");
        for bad in [
            "",
            "NOTMAGIC\n",
            "PANESTR1\ngeneration x\n",
            "PANESTR1\ngeneration 1\n",
            "PANESTR1\nshards 1\n",
            "PANESTR1\ngeneration 1\ngeneration 2\nnode_index flat\nlink_index flat\n",
            "PANESTR1\ngeneration 1\nnode_index btree\nlink_index flat\n",
            "PANESTR1\nwhat 3\n",
            "PANESTR1\nshards 2\ngeneration 1\nnode_index flat\nlink_index flat\n",
            "PANESTR1\ngeneration 1\nnode_index flat\nlink_index flat\nformat parquet\n",
            "PANESTR1\nshards 2\nformat columnar\n",
        ] {
            std::fs::write(dir.join(MANIFEST_FILE), bad).unwrap();
            assert!(
                matches!(Manifest::read(&dir), Err(StoreError::Format(_))),
                "accepted: {bad:?}"
            );
        }
    }

    #[test]
    fn missing_manifest_names_the_remedy() {
        let dir = tmp("missing");
        match Manifest::read(&dir) {
            Err(StoreError::Format(m)) => assert!(m.contains("pane store init"), "{m}"),
            other => panic!("expected format error, got {other:?}"),
        }
    }
}
