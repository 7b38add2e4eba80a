//! Buildable index descriptions — the recipe a store manifest records so
//! compactions and snapshot generations rebuild **deterministically**.
//!
//! A [`crate::DeltaIndex`] compaction and a `pane-store` snapshot both
//! need to answer the same question: "given the grown vector set, how do
//! I rebuild the optimized base structure exactly as it was configured?"
//! [`IndexSpec`] is that answer — the structure kind plus every build
//! parameter that influences the result. It round-trips through a stable
//! one-line text form ([`IndexSpec::to_manifest`] /
//! [`IndexSpec::from_manifest`]) so a store directory's `MANIFEST` can
//! carry it across restarts.

use crate::{
    AnyIndex, FlatIndex, HnswConfig, HnswIndex, IndexError, IvfConfig, IvfIndex, Metric, SqConfig,
    SqFlatIndex,
};
use pane_linalg::DenseMatrix;
use std::borrow::Cow;

/// A buildable description of an index structure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IndexSpec {
    /// Exact flat scan.
    Flat,
    /// Inverted-file index with the recorded build parameters.
    Ivf(IvfConfig),
    /// HNSW graph index with the recorded build parameters.
    Hnsw(HnswConfig),
    /// Scalar-quantized flat scan with the recorded shortlist multiplier.
    SqFlat(SqConfig),
}

impl IndexSpec {
    /// Builds an index of this spec over `data` (using `threads` workers
    /// where the structure supports it; results are thread-invariant). An
    /// owned `data` moves into the index; a `&DenseMatrix` is copied.
    pub fn build<'a>(
        &self,
        data: impl Into<Cow<'a, DenseMatrix>>,
        metric: Metric,
        threads: usize,
    ) -> AnyIndex {
        match self {
            IndexSpec::Flat => AnyIndex::Flat(FlatIndex::build(data, metric)),
            IndexSpec::Ivf(cfg) => AnyIndex::Ivf(IvfIndex::build(
                data,
                metric,
                &IvfConfig { threads, ..*cfg },
            )),
            IndexSpec::Hnsw(cfg) => AnyIndex::Hnsw(HnswIndex::build(data, metric, cfg)),
            IndexSpec::SqFlat(cfg) => AnyIndex::SqFlat(SqFlatIndex::build(data, metric, *cfg)),
        }
    }

    /// Refuses the parameters [`Self::build`] would panic on. Everything
    /// that takes a recipe from outside — a manifest line, command-line
    /// flags, a store about to record it — calls this first, so a manifest
    /// that was written is a manifest that can be read.
    pub fn validate(&self) -> Result<(), IndexError> {
        let at_least = |key: &str, value: usize, min: usize| {
            if value < min {
                return Err(IndexError::Format(format!(
                    "index spec '{key}' must be at least {min}"
                )));
            }
            Ok(())
        };
        match self {
            IndexSpec::Flat => Ok(()),
            IndexSpec::Ivf(c) => at_least("nlist", c.nlist, 1),
            IndexSpec::Hnsw(c) => {
                at_least("m", c.m, 2)?;
                at_least("efc", c.ef_construction, 1)
            }
            IndexSpec::SqFlat(c) => at_least("rerank", c.rerank, 1),
        }
    }

    /// Recovers the spec of an existing index. Parameters an index file
    /// does not carry (IVF training iterations, seeds) fall back to
    /// their defaults, so a compaction of a *loaded* index is
    /// deterministic but not necessarily byte-identical to the original
    /// build — which is why a store records the full recipe in its
    /// manifest instead of recovering it this way.
    pub fn of(index: &AnyIndex) -> IndexSpec {
        match index {
            AnyIndex::Flat(_) => IndexSpec::Flat,
            AnyIndex::Ivf(x) => IndexSpec::Ivf(IvfConfig {
                nlist: x.nlist(),
                nprobe: x.nprobe(),
                ..Default::default()
            }),
            AnyIndex::Hnsw(x) => IndexSpec::Hnsw(HnswConfig {
                m: x.m(),
                ef_construction: x.ef_construction(),
                ef_search: x.ef_search(),
                seed: 0,
            }),
            AnyIndex::SqFlat(x) => IndexSpec::SqFlat(SqConfig { rerank: x.rerank() }),
        }
    }

    /// Short stable name (`flat` / `ivf` / `hnsw` / `sqflat`).
    pub fn kind_name(&self) -> &'static str {
        match self {
            IndexSpec::Flat => "flat",
            IndexSpec::Ivf(_) => "ivf",
            IndexSpec::Hnsw(_) => "hnsw",
            IndexSpec::SqFlat(_) => "sqflat",
        }
    }

    /// Stable one-line text form for store manifests: the kind name
    /// followed by `key=value` build parameters (`threads` is runtime
    /// state, not part of the recipe, and is never serialized).
    pub fn to_manifest(&self) -> String {
        match self {
            IndexSpec::Flat => "flat".to_string(),
            IndexSpec::Ivf(c) => format!(
                "ivf nlist={} nprobe={} iters={} seed={}",
                c.nlist, c.nprobe, c.train_iters, c.seed
            ),
            IndexSpec::Hnsw(c) => format!(
                "hnsw m={} efc={} ef={} seed={}",
                c.m, c.ef_construction, c.ef_search, c.seed
            ),
            IndexSpec::SqFlat(c) => format!("sqflat rerank={}", c.rerank),
        }
    }

    /// Inverse of [`Self::to_manifest`]. Unknown kinds, malformed or
    /// unknown `key=value` pairs, and parameters [`Self::build`] would
    /// panic on are structured [`IndexError::Format`]s (a store manifest
    /// is untrusted input like any other file, and opening a legacy
    /// generation builds straight from it).
    pub fn from_manifest(line: &str) -> Result<IndexSpec, IndexError> {
        let mut toks = line.split_whitespace();
        let kind = toks
            .next()
            .ok_or_else(|| IndexError::Format("empty index spec".into()))?;
        let mut pairs = Vec::new();
        for tok in toks {
            let (key, value) = tok.split_once('=').ok_or_else(|| {
                IndexError::Format(format!("index spec token '{tok}' is not key=value"))
            })?;
            let value: u64 = value.parse().map_err(|e| {
                IndexError::Format(format!("index spec '{key}' value '{value}': {e}"))
            })?;
            pairs.push((key, value));
        }
        let take = |pairs: &[(&str, u64)], key: &str, default: u64| -> Result<u64, IndexError> {
            match pairs.iter().filter(|(k, _)| *k == key).count() {
                0 => Ok(default),
                1 => Ok(pairs.iter().find(|(k, _)| *k == key).unwrap().1),
                _ => Err(IndexError::Format(format!(
                    "index spec repeats key '{key}'"
                ))),
            }
        };
        let known = |allowed: &[&str]| -> Result<(), IndexError> {
            for (k, _) in &pairs {
                if !allowed.contains(k) {
                    return Err(IndexError::Format(format!(
                        "unknown index spec key '{k}' for kind '{kind}'"
                    )));
                }
            }
            Ok(())
        };
        let spec = match kind {
            "flat" => {
                known(&[])?;
                IndexSpec::Flat
            }
            "ivf" => {
                known(&["nlist", "nprobe", "iters", "seed"])?;
                let d = IvfConfig::default();
                IndexSpec::Ivf(IvfConfig {
                    nlist: take(&pairs, "nlist", d.nlist as u64)? as usize,
                    nprobe: take(&pairs, "nprobe", d.nprobe as u64)? as usize,
                    train_iters: take(&pairs, "iters", d.train_iters as u64)? as usize,
                    seed: take(&pairs, "seed", d.seed)?,
                    threads: 1,
                })
            }
            "hnsw" => {
                known(&["m", "efc", "ef", "seed"])?;
                let d = HnswConfig::default();
                IndexSpec::Hnsw(HnswConfig {
                    m: take(&pairs, "m", d.m as u64)? as usize,
                    ef_construction: take(&pairs, "efc", d.ef_construction as u64)? as usize,
                    ef_search: take(&pairs, "ef", d.ef_search as u64)? as usize,
                    seed: take(&pairs, "seed", d.seed)?,
                })
            }
            "sqflat" => {
                known(&["rerank"])?;
                let d = SqConfig::default();
                IndexSpec::SqFlat(SqConfig {
                    rerank: take(&pairs, "rerank", d.rerank as u64)? as usize,
                })
            }
            other => {
                return Err(IndexError::Format(format!(
                    "unknown index spec kind '{other}' (flat|ivf|hnsw|sqflat)"
                )))
            }
        };
        spec.validate()?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_roundtrip_preserves_every_parameter() {
        let specs = [
            IndexSpec::Flat,
            IndexSpec::Ivf(IvfConfig {
                nlist: 33,
                nprobe: 5,
                train_iters: 7,
                seed: 9,
                threads: 1,
            }),
            IndexSpec::Hnsw(HnswConfig {
                m: 12,
                ef_construction: 80,
                ef_search: 40,
                seed: 3,
            }),
            IndexSpec::SqFlat(SqConfig { rerank: 6 }),
        ];
        for spec in specs {
            let line = spec.to_manifest();
            let back = IndexSpec::from_manifest(&line).unwrap();
            assert_eq!(back, spec, "{line}");
        }
    }

    #[test]
    fn threads_never_leak_into_the_recipe() {
        let spec = IndexSpec::Ivf(IvfConfig {
            threads: 8,
            ..Default::default()
        });
        let back = IndexSpec::from_manifest(&spec.to_manifest()).unwrap();
        match back {
            IndexSpec::Ivf(c) => assert_eq!(c.threads, 1),
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn malformed_specs_are_structured_errors() {
        for bad in [
            "",
            "btree",
            "ivf nlist",
            "ivf nlist=x",
            "ivf m=4",
            "hnsw m=4 m=5",
            "flat nlist=4",
            "sqflat rerank=0",
            "sqflat nlist=4",
            "ivf nlist=0",
            "hnsw m=1",
            "hnsw efc=0",
        ] {
            assert!(
                matches!(IndexSpec::from_manifest(bad), Err(IndexError::Format(_))),
                "accepted: '{bad}'"
            );
        }
        // The same rules hold for a spec that never was a manifest line.
        for bad in [
            IndexSpec::Ivf(IvfConfig {
                nlist: 0,
                ..Default::default()
            }),
            IndexSpec::Hnsw(HnswConfig {
                m: 1,
                ..Default::default()
            }),
            IndexSpec::Hnsw(HnswConfig {
                ef_construction: 0,
                ..Default::default()
            }),
            IndexSpec::SqFlat(SqConfig { rerank: 0 }),
        ] {
            assert!(
                matches!(bad.validate(), Err(IndexError::Format(_))),
                "accepted: {bad:?}"
            );
        }
    }
}
