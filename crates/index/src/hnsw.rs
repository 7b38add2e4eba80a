//! HNSW — hierarchical navigable-small-world graph index.
//!
//! Standard construction (Malkov & Yashunin 2016): each node gets a
//! geometric random level; search greedily descends the sparse upper
//! layers to a good entry point, then runs a best-first beam (`ef`) over
//! the dense bottom layer.
//!
//! The one deliberate departure from the usual implementation: level
//! assignment is **not** drawn from a shared RNG stream — it is a pure
//! function of `(seed, node id)` via SplitMix64. Together with the
//! sequential insertion order this makes every build bit-identical, the
//! same reproducibility contract the embedding pipeline guarantees.

use crate::persist::{columnar_matrix, columnar_meta, open_index_columns};
use crate::{block_rows, topk, unit_open, IndexError, IndexKind, Metric, Neighbor, VectorIndex};
use pane_format::{section, Artifact, ColumnData, ColumnSpec};
use pane_linalg::{kernels, vecops, DenseMatrix};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};
use std::path::Path;

/// Hard ceiling on levels (a node above level 24 would need `> m^24`
/// points; this only guards degenerate seeds).
const MAX_LEVEL_CAP: usize = 24;

/// How many neighbor rows ahead of the scoring cursor to prefetch in
/// [`HnswIndex::search_layer`]. Deep enough to cover DRAM latency at
/// the ~dim·8-byte rows PANE serves, shallow enough not to thrash L1.
const PREFETCH_AHEAD: usize = 4;

/// Build-time parameters for [`HnswIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HnswConfig {
    /// Max neighbors per node on levels above 0 (level 0 allows `2m`).
    pub m: usize,
    /// Beam width while inserting (larger = better graph, slower build).
    pub ef_construction: usize,
    /// Default beam width while searching (runtime-adjustable).
    pub ef_search: usize,
    /// Seed for the per-node level assignment.
    pub seed: u64,
}

impl Default for HnswConfig {
    fn default() -> Self {
        Self {
            m: 16,
            ef_construction: 100,
            ef_search: 64,
            seed: 0,
        }
    }
}

/// Max-heap entry: the heap root is the *best-ranked* candidate.
struct Best(Neighbor);

impl PartialEq for Best {
    fn eq(&self, other: &Self) -> bool {
        topk::cmp_ranked(&self.0, &other.0) == Ordering::Equal
    }
}
impl Eq for Best {}
impl PartialOrd for Best {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Best {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: cmp_ranked's Less = better, BinaryHeap pops the max.
        topk::cmp_ranked(&other.0, &self.0)
    }
}

/// HNSW graph index. See the module docs.
#[derive(Debug, Clone)]
pub struct HnswIndex {
    metric: Metric,
    m: usize,
    ef_construction: usize,
    ef_search: usize,
    /// Metric-prepared vectors.
    data: DenseMatrix,
    /// Level of each node.
    levels: Vec<u32>,
    /// `links[node][level]` = neighbor ids (level 0 ..= levels[node]).
    links: Vec<Vec<Vec<u32>>>,
    /// Entry point (a node of maximal level).
    entry: u32,
    max_level: u32,
}

impl HnswIndex {
    /// Builds the graph by sequential insertion of the rows of `data`.
    /// Bit-identical for a fixed `(data, metric, config)`.
    ///
    /// # Panics
    /// Panics if `data` is empty or `config.m < 2` / `ef_construction == 0`.
    pub fn build(data: &DenseMatrix, metric: Metric, config: &HnswConfig) -> Self {
        assert!(
            data.rows() > 0 && data.cols() > 0,
            "HnswIndex::build: empty data"
        );
        assert!(config.m >= 2, "HnswIndex::build: m must be at least 2");
        assert!(
            config.ef_construction > 0,
            "HnswIndex::build: ef_construction must be positive"
        );
        let n = data.rows();
        let prepared = metric.prepare(data);
        // mL = 1/ln(m): the standard normalization keeps the expected
        // top-layer population at one node.
        let ml = 1.0 / (config.m as f64).ln();
        let levels: Vec<u32> = (0..n as u64)
            .map(|i| {
                let u = unit_open(config.seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                ((-u.ln() * ml) as usize).min(MAX_LEVEL_CAP) as u32
            })
            .collect();
        let mut index = Self {
            metric,
            m: config.m,
            ef_construction: config.ef_construction,
            ef_search: config.ef_search.max(1),
            data: prepared,
            links: (0..n)
                .map(|i| vec![Vec::new(); levels[i] as usize + 1])
                .collect(),
            levels,
            entry: 0,
            max_level: 0,
        };
        index.max_level = index.levels[0];
        let mut visited = HashSet::new();
        for i in 1..n {
            index.insert(i, &mut visited);
        }
        index
    }

    #[inline]
    fn score(&self, q: &[f64], node: u32) -> f64 {
        vecops::dot(q, self.data.row(node as usize))
    }

    /// Best-first beam search on one level, seeded from `eps`.
    /// Returns up to `ef` hits, best first.
    fn search_layer(
        &self,
        q: &[f64],
        eps: &[Neighbor],
        ef: usize,
        level: usize,
        visited: &mut HashSet<u32>,
    ) -> Vec<Neighbor> {
        visited.clear();
        let mut candidates = BinaryHeap::new();
        let mut results = topk::TopK::new(ef);
        for ep in eps {
            if visited.insert(ep.index as u32) {
                candidates.push(Best(*ep));
                results.push(ep.index, ep.score);
            }
        }
        while let Some(Best(c)) = candidates.pop() {
            if let Some(worst) = results.threshold() {
                // The best remaining candidate is worse than the worst
                // kept result: the beam has converged.
                if topk::cmp_ranked(&c, worst) == Ordering::Greater {
                    break;
                }
            }
            let nbrs = &self.links[c.index][level];
            // Graph expansion visits rows in an order no hardware
            // prefetcher can predict; hint the upcoming neighbor rows
            // into cache before their scores are demanded. A hint only —
            // results are unaffected.
            let dim = self.data.cols();
            for &nb in nbrs.iter().take(PREFETCH_AHEAD) {
                kernels::prefetch_f64(self.data.data(), nb as usize * dim);
            }
            for (i, &nb) in nbrs.iter().enumerate() {
                if let Some(&ahead) = nbrs.get(i + PREFETCH_AHEAD) {
                    kernels::prefetch_f64(self.data.data(), ahead as usize * dim);
                }
                if !visited.insert(nb) {
                    continue;
                }
                let s = self.score(q, nb);
                let item = Neighbor {
                    index: nb as usize,
                    score: s,
                };
                let keep = match results.threshold() {
                    None => true,
                    Some(worst) => topk::cmp_ranked(&item, worst) == Ordering::Less,
                };
                if keep {
                    candidates.push(Best(item));
                    results.push(nb as usize, s);
                }
            }
        }
        results.into_sorted()
    }

    /// Greedy single-step descent through levels `from` down to `to`
    /// (exclusive), used to find the entry point for the beam phase.
    fn descend(
        &self,
        q: &[f64],
        mut ep: Neighbor,
        from: u32,
        to: u32,
        visited: &mut HashSet<u32>,
    ) -> Neighbor {
        let mut lev = from;
        while lev > to {
            let found = self.search_layer(q, &[ep], 1, lev as usize, visited);
            if let Some(&best) = found.first() {
                ep = best;
            }
            lev -= 1;
        }
        ep
    }

    fn insert(&mut self, i: usize, visited: &mut HashSet<u32>) {
        let q = self.data.row(i).to_vec();
        let l = self.levels[i];
        let mut ep = Neighbor {
            index: self.entry as usize,
            score: self.score(&q, self.entry),
        };
        if l < self.max_level {
            ep = self.descend(&q, ep, self.max_level, l, visited);
        }
        let mut eps = vec![ep];
        for lev in (0..=l.min(self.max_level) as usize).rev() {
            let cands = self.search_layer(&q, &eps, self.ef_construction, lev, visited);
            let m_max = if lev == 0 { 2 * self.m } else { self.m };
            let selected = self.select_neighbors(&cands, self.m);
            for &s in &selected {
                self.links[s as usize][lev].push(i as u32);
                if self.links[s as usize][lev].len() > m_max {
                    self.prune(s, lev, m_max);
                }
            }
            self.links[i][lev] = selected;
            eps = cands;
        }
        if l > self.max_level {
            self.entry = i as u32;
            self.max_level = l;
        }
    }

    /// The paper's Algorithm 4 ("select neighbors heuristic"), phrased in
    /// similarity terms: walk `cands` best-first and keep a candidate only
    /// if it is closer to the query than to everything already kept. On
    /// clustered data this trades a few nearest edges for *diverse* edges
    /// that keep distinct regions navigable — plain top-M collapses into
    /// near-cliques whose beam searches stall in local minima. Slots left
    /// over are refilled with the best skipped candidates
    /// (`keepPrunedConnections` in the paper).
    fn select_neighbors(&self, cands: &[Neighbor], m: usize) -> Vec<u32> {
        let mut selected: Vec<u32> = Vec::with_capacity(m);
        let mut skipped: Vec<u32> = Vec::new();
        for c in cands {
            if selected.len() >= m {
                break;
            }
            let crow = self.data.row(c.index);
            let diverse = selected
                .iter()
                .all(|&s| vecops::dot(crow, self.data.row(s as usize)) < c.score);
            if diverse {
                selected.push(c.index as u32);
            } else {
                skipped.push(c.index as u32);
            }
        }
        for s in skipped {
            if selected.len() >= m {
                break;
            }
            selected.push(s);
        }
        selected
    }

    /// Shrinks `node`'s neighbor list on `level` to `m_max` entries via
    /// the same diversity heuristic used at insertion.
    fn prune(&mut self, node: u32, level: usize, m_max: usize) {
        let nq = self.data.row(node as usize).to_vec();
        let mut ranked: Vec<Neighbor> = self.links[node as usize][level]
            .iter()
            .map(|&nb| Neighbor {
                index: nb as usize,
                score: self.score(&nq, nb),
            })
            .collect();
        ranked.sort_by(topk::cmp_ranked);
        self.links[node as usize][level] = self.select_neighbors(&ranked, m_max);
    }

    /// Max neighbors per upper-level node.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Beam width used during construction.
    pub fn ef_construction(&self) -> usize {
        self.ef_construction
    }

    /// Current search beam width.
    pub fn ef_search(&self) -> usize {
        self.ef_search
    }

    /// Sets the search beam width (clamped to at least 1). Larger values
    /// trade latency for recall; `search` always uses `max(ef, k)`.
    pub fn set_ef_search(&mut self, ef: usize) {
        self.ef_search = ef.max(1);
    }

    /// Reads an index written by [`VectorIndex::save`].
    ///
    /// Every graph invariant a search relies on is re-validated here so a
    /// corrupted file fails the *load* with a structured [`IndexError`]
    /// instead of panicking the first search: `n` and `dim` must be
    /// positive (`build` never produces an empty index), the entry point
    /// must exist **and reach `max_level`** (the descent indexes
    /// `links[entry][max_level]`), per-node levels may not exceed
    /// `max_level`, and every edge must point at an in-range node of
    /// sufficient level.
    pub fn load(path: &Path) -> Result<Self, IndexError> {
        let (c, metric) = open_index_columns(path, IndexKind::Hnsw)?;
        Self::from_columns(&c, metric)
    }

    /// Reconstructs the index from an already-validated container.
    ///
    /// The container stores the neighbor lists *flattened*: one `u32`
    /// links section plus a `u64` offsets section with one entry per
    /// list (node-major, then level `0..=levels[node]`) and a final
    /// end sentinel. This is the one place the graph invariants listed
    /// on [`HnswIndex::load`] are checked.
    pub(crate) fn from_columns(
        c: &pane_format::Columns,
        metric: Metric,
    ) -> Result<Self, IndexError> {
        let data = columnar_matrix(c, section::HNSW_VECTORS)?;
        let (n, dim) = (data.rows(), data.cols());
        if n == 0 || dim == 0 || dim > 1 << 24 {
            return Err(IndexError::Format(format!(
                "hnsw vectors section is {n}×{dim}; outside the valid range"
            )));
        }
        let meta = c.u64s(section::HNSW_META)?;
        if meta.len() != 5 {
            return Err(IndexError::Format(format!(
                "hnsw meta section holds {} words, expected 5",
                meta.len()
            )));
        }
        let (m, ef_construction, ef_search) = (meta[0], meta[1], meta[2]);
        for (v, what) in [
            (m, "m"),
            (ef_construction, "ef_construction"),
            (ef_search, "ef_search"),
        ] {
            if v > 1 << 20 {
                return Err(IndexError::Format(format!(
                    "{what} = {v} exceeds sanity cap {}",
                    1 << 20
                )));
            }
        }
        if meta[3] >= n as u64 {
            return Err(IndexError::Format(format!(
                "entry point = {} exceeds sanity cap {}",
                meta[3],
                n - 1
            )));
        }
        let entry = meta[3] as u32;
        if meta[4] > MAX_LEVEL_CAP as u64 {
            return Err(IndexError::Format(format!(
                "max level = {} exceeds sanity cap {MAX_LEVEL_CAP}",
                meta[4]
            )));
        }
        let max_level = meta[4] as u32;
        let levels = c.u32s(section::HNSW_LEVELS)?;
        if levels.len() != n {
            return Err(IndexError::Format(format!(
                "level array has {} entries, expected {n}",
                levels.len()
            )));
        }
        if levels[entry as usize] != max_level {
            return Err(IndexError::Format(format!(
                "entry point {entry} has level {} but the graph claims max level {max_level}",
                levels[entry as usize]
            )));
        }
        let offsets = c.u64s(section::HNSW_LINK_OFFSETS)?;
        let flat = c.u32s(section::HNSW_LINKS)?;
        let lists: usize = levels.iter().map(|&l| l as usize + 1).sum();
        if offsets.len() != lists + 1 || offsets[0] != 0 {
            return Err(IndexError::Format(format!(
                "link-offset array has {} entries, expected {} (one per list plus sentinel, starting at 0)",
                offsets.len(),
                lists + 1
            )));
        }
        if *offsets.last().unwrap() != flat.len() as u64 {
            return Err(IndexError::Format(format!(
                "link offsets end at {} but the links section holds {} ids",
                offsets.last().unwrap(),
                flat.len()
            )));
        }
        let mut links = Vec::with_capacity(n);
        let mut list = 0usize;
        for (node, &l) in levels.iter().enumerate() {
            if l > max_level {
                return Err(IndexError::Format(format!(
                    "node level {l} exceeds max level {max_level}"
                )));
            }
            let mut per_level = Vec::with_capacity(l as usize + 1);
            for lev in 0..=l {
                let (start, end) = (offsets[list], offsets[list + 1]);
                list += 1;
                if start > end || end as usize > flat.len() {
                    return Err(IndexError::Format(format!(
                        "node {node} level {lev}: link offsets [{start}, {end}) invalid for {} link ids",
                        flat.len()
                    )));
                }
                let nbrs = &flat[start as usize..end as usize];
                // A corrupted edge must fail the load, not panic the
                // first search that walks it.
                for &nb in nbrs {
                    if nb as usize >= n {
                        return Err(IndexError::Format(format!(
                            "node {node} level {lev}: neighbor id {nb} out of range {n}"
                        )));
                    }
                    if levels[nb as usize] < lev {
                        return Err(IndexError::Format(format!(
                            "node {node} level {lev}: neighbor {nb} only reaches level {}",
                            levels[nb as usize]
                        )));
                    }
                }
                per_level.push(nbrs.to_vec());
            }
            links.push(per_level);
        }
        Ok(Self {
            metric,
            m: (m as usize).max(2),
            ef_construction: (ef_construction as usize).max(1),
            ef_search: (ef_search as usize).max(1),
            data,
            levels: levels.to_vec(),
            links,
            entry,
            max_level,
        })
    }
}

impl VectorIndex for HnswIndex {
    fn kind(&self) -> IndexKind {
        IndexKind::Hnsw
    }

    fn metric(&self) -> Metric {
        self.metric
    }

    fn len(&self) -> usize {
        self.data.rows()
    }

    fn dim(&self) -> usize {
        self.data.cols()
    }

    /// A loop over the block: graph walks from different queries share
    /// no rows, so there is nothing for a panel form to reuse.
    fn search_block(&self, queries: &[f64], k: usize) -> Vec<Vec<Neighbor>> {
        block_rows(queries, self.dim())
            .map(|q| {
                if k == 0 {
                    return Vec::new();
                }
                let mut visited = HashSet::new();
                let ep = Neighbor {
                    index: self.entry as usize,
                    score: self.score(q, self.entry),
                };
                let ep = self.descend(q, ep, self.max_level, 0, &mut visited);
                let ef = self.ef_search.max(k);
                let mut out = self.search_layer(q, &[ep], ef, 0, &mut visited);
                out.truncate(k);
                out
            })
            .collect()
    }

    fn save(&self, path: &Path) -> Result<(), IndexError> {
        let meta = [
            self.m as u64,
            self.ef_construction as u64,
            self.ef_search as u64,
            self.entry as u64,
            self.max_level as u64,
        ];
        // Flatten the per-node-per-level neighbor lists: offsets get one
        // entry per list (node-major, level-minor) plus an end sentinel.
        let mut offsets = Vec::with_capacity(self.links.iter().map(|p| p.len()).sum::<usize>() + 1);
        let mut flat = Vec::new();
        offsets.push(0u64);
        for per_level in &self.links {
            for nbrs in per_level {
                flat.extend_from_slice(nbrs);
                offsets.push(flat.len() as u64);
            }
        }
        let specs = [
            ColumnSpec {
                id: section::HNSW_META,
                rows: 1,
                cols: 5,
                data: ColumnData::U64(&meta),
            },
            ColumnSpec {
                id: section::HNSW_LEVELS,
                rows: self.levels.len(),
                cols: 1,
                data: ColumnData::U32(&self.levels),
            },
            ColumnSpec {
                id: section::HNSW_LINK_OFFSETS,
                rows: offsets.len(),
                cols: 1,
                data: ColumnData::U64(&offsets),
            },
            ColumnSpec {
                id: section::HNSW_LINKS,
                rows: flat.len(),
                cols: 1,
                data: ColumnData::U32(&flat),
            },
            ColumnSpec {
                id: section::HNSW_VECTORS,
                rows: self.data.rows(),
                cols: self.data.cols(),
                data: ColumnData::F64(self.data.data()),
            },
        ];
        pane_format::write_columns(
            path,
            Artifact::Index,
            columnar_meta(IndexKind::Hnsw, self.metric),
            &specs,
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::clustered_vectors;
    use crate::FlatIndex;

    #[test]
    fn finds_itself_first() {
        let data = clustered_vectors(250, 12, 5, 0.15);
        let idx = HnswIndex::build(&data, Metric::Cosine, &HnswConfig::default());
        for v in (0..250).step_by(23) {
            let hits = idx.search(data.row(v), 3);
            assert_eq!(hits[0].index, v, "node {v} did not find itself");
        }
    }

    #[test]
    fn build_is_deterministic() {
        let data = clustered_vectors(180, 8, 4, 0.2);
        let cfg = HnswConfig {
            seed: 11,
            ..Default::default()
        };
        let a = HnswIndex::build(&data, Metric::Cosine, &cfg);
        let b = HnswIndex::build(&data, Metric::Cosine, &cfg);
        assert_eq!(a.levels, b.levels);
        assert_eq!(a.links, b.links);
        assert_eq!(a.entry, b.entry);
    }

    #[test]
    fn degree_bounds_hold() {
        let data = clustered_vectors(300, 10, 6, 0.2);
        let cfg = HnswConfig {
            m: 8,
            ..Default::default()
        };
        let idx = HnswIndex::build(&data, Metric::Cosine, &cfg);
        for (v, per_level) in idx.links.iter().enumerate() {
            for (lev, nbrs) in per_level.iter().enumerate() {
                let cap = if lev == 0 { 2 * cfg.m } else { cfg.m };
                assert!(
                    nbrs.len() <= cap,
                    "node {v} level {lev} has {} neighbors (cap {cap})",
                    nbrs.len()
                );
                for &nb in nbrs {
                    assert!(idx.levels[nb as usize] as usize >= lev);
                    assert_ne!(nb as usize, v);
                }
            }
        }
    }

    /// Saves `idx` (a checksum-valid container, whatever `idx` holds)
    /// and expects `from_columns` to refuse it with a message containing
    /// `want`; `lie` may first patch the saved file.
    fn assert_load_rejects(idx: &HnswIndex, lie: &dyn Fn(&Path), want: &str) {
        let dir = std::env::temp_dir().join(format!("pane_hnsw_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(format!("{}.idx", want.replace(' ', "_")));
        idx.save(&p).unwrap();
        lie(&p);
        match HnswIndex::load(&p) {
            Err(IndexError::Format(m)) => assert!(m.contains(want), "{want}: {m}"),
            other => panic!("{want}: expected format error, got {other:?}"),
        }
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn corrupted_neighbor_id_fails_load_cleanly() {
        let data = clustered_vectors(40, 6, 2, 0.2);
        let mut idx = HnswIndex::build(&data, Metric::Cosine, &HnswConfig::default());
        assert!(!idx.links[0][0].is_empty(), "fixture node 0 has no links");
        idx.links[0][0][0] = u32::MAX;
        assert_load_rejects(&idx, &|_| (), "out of range");
    }

    #[test]
    fn entry_below_max_level_fails_load_cleanly() {
        // The descent indexes links[entry][max_level]; a file whose entry
        // point does not reach the claimed max level used to panic there.
        let data = clustered_vectors(40, 6, 2, 0.2);
        let mut idx = HnswIndex::build(&data, Metric::Cosine, &HnswConfig::default());
        idx.max_level += 1;
        assert_load_rejects(&idx, &|_| (), "entry point");
    }

    #[test]
    fn inconsistent_link_lists_fail_load_cleanly() {
        use crate::testutil::patch_section;
        let data = clustered_vectors(250, 12, 5, 0.15);
        let idx = HnswIndex::build(&data, Metric::Cosine, &HnswConfig::default());
        // Offsets that run one id past the links section.
        let last = 8 * idx
            .links
            .iter()
            .map(|per_level| per_level.len())
            .sum::<usize>();
        assert_load_rejects(
            &idx,
            &|p| patch_section(p, section::HNSW_LINK_OFFSETS, |b| b[last] ^= 1),
            "link offsets end at",
        );
        // An upper-level edge to a node that only lives on level 0: the
        // search would index links[nb][1] out of bounds.
        assert!(idx.max_level >= 1, "fixture graph has a single level");
        let ground = idx.levels.iter().position(|&l| l == 0).unwrap() as u32;
        let mut bad = idx.clone();
        bad.links[idx.entry as usize][1].push(ground);
        assert_load_rejects(&bad, &|_| (), "only reaches level 0");
    }

    #[test]
    fn decent_recall_on_clusters() {
        let data = clustered_vectors(400, 16, 8, 0.25);
        let flat = FlatIndex::build(&data, Metric::Cosine);
        let idx = HnswIndex::build(&data, Metric::Cosine, &HnswConfig::default());
        let mut hit = 0;
        let mut total = 0;
        for v in (0..400).step_by(7) {
            let truth: HashSet<usize> = flat
                .search(data.row(v), 10)
                .iter()
                .map(|n| n.index)
                .collect();
            for n in idx.search(data.row(v), 10) {
                total += 1;
                hit += usize::from(truth.contains(&n.index));
            }
        }
        assert!(hit * 10 >= total * 9, "recall@10 too low: {hit}/{total}");
    }
}
