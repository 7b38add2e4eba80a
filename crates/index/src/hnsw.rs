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
//!
//! Per visited node a walk does one stamp compare, one dot and the heap
//! work. Everything it writes lives in a `Scratch` — an epoch-stamped
//! visited array, the two heaps, the selection buffers — that `build`
//! owns for the whole construction and a search borrows, one per block,
//! from the index's `Pool`. Every neighbor list lives in one `Links`
//! arena of fixed-capacity lists, the same for a built and a loaded
//! index; the file keeps the packed lists, so the arena is not a format.

use crate::persist::{columnar_matrix, columnar_meta, open_index_columns};
use crate::{block_rows, topk, unit_open, IndexError, IndexKind, Metric, Neighbor, VectorIndex};
use pane_format::{section, Artifact, ColumnData, ColumnSpec};
use pane_linalg::{kernels, vecops, DenseMatrix};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::sync::Mutex;
use std::{borrow::Cow, path::Path};

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
#[derive(Debug)]
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

/// Everything a graph walk writes besides the graph, allocated once for
/// `n` nodes and reused from walk to walk.
#[derive(Debug, Default)]
struct Scratch {
    /// `stamps[v] == epoch` ⇔ `v` was visited by the current layer walk.
    stamps: Vec<u32>,
    epoch: u32,
    candidates: BinaryHeap<Best>,
    /// The `ef` best hits of the current walk, worst at the root.
    results: BinaryHeap<Reverse<Best>>,
    /// A layer walk's seeds on entry, its hits (best first) on return.
    found: Vec<Neighbor>,
    /// An insert's chosen neighbors; a prune's scored list; the
    /// candidates either selection passed over.
    selected: Vec<Neighbor>,
    ranked: Vec<Neighbor>,
    skipped: Vec<Neighbor>,
}

impl Scratch {
    fn new(n: usize) -> Self {
        Self {
            stamps: vec![0; n],
            ..Self::default()
        }
    }

    /// Forgets every visit in O(1); the stamps are zeroed only when the
    /// `u32` epoch wraps.
    fn next_epoch(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamps.fill(0);
            self.epoch = 1;
        }
    }

    /// Marks `node` visited; `true` if it was not yet.
    #[inline]
    fn visit(&mut self, node: usize) -> bool {
        std::mem::replace(&mut self.stamps[node], self.epoch) != self.epoch
    }

    /// [`topk::TopK::push`] on the pooled heap: keeps `item` if fewer than
    /// `ef` hits are held or it outranks the worst of them, which it evicts.
    #[inline]
    fn keep(&mut self, ef: usize, item: Neighbor) -> bool {
        if self.results.len() >= ef {
            let worst = self.results.peek().expect("a beam is at least 1 wide");
            if topk::cmp_ranked(&item, &worst.0 .0) != Ordering::Less {
                return false;
            }
            self.results.pop();
        }
        self.results.push(Reverse(Best(item)));
        true
    }
}

/// Free list of [`Scratch`]es (hnswlib's `VisitedListPool`): a search
/// block pops one or creates it, and pushes it back when done, so a
/// request pays neither a hash nor an O(n) zeroing. A clone of the index
/// starts with an empty pool.
#[derive(Debug, Default)]
struct Pool(Mutex<Vec<Scratch>>);

impl Clone for Pool {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl Pool {
    fn list(&self) -> std::sync::MutexGuard<'_, Vec<Scratch>> {
        self.0
            .lock()
            .expect("scratch pool poisoned: a thread panicked inside a Vec push/pop")
    }
}

/// Every neighbor list of the graph in one allocation. A list is a
/// length slot followed by one id slot more than its cap (`2m` on level
/// 0, `m` above): an insert pushes first and prunes after. Level-0 lists
/// sit at `node · (2m + 2)`; the lists of the few nodes that reach higher
/// follow, `m + 2` slots per level.
#[derive(Debug, Clone)]
struct Links {
    m: usize,
    /// Where each node's level-1 list starts in `slots`.
    upper: Vec<usize>,
    slots: Vec<u32>,
}

impl Links {
    /// Empty lists for nodes of the given levels.
    fn new(levels: &[u32], m: usize) -> Self {
        let mut end = levels.len() * (2 * m + 2);
        let upper = levels.iter().map(|&l| {
            let at = end;
            end += l as usize * (m + 2);
            at
        });
        Self {
            m,
            upper: upper.collect(),
            slots: vec![0; end],
        }
    }

    fn cap(&self, level: usize) -> usize {
        if level == 0 {
            2 * self.m
        } else {
            self.m
        }
    }

    #[inline]
    fn start(&self, node: usize, level: usize) -> usize {
        match level {
            0 => node * (2 * self.m + 2),
            l => self.upper[node] + (l - 1) * (self.m + 2),
        }
    }

    #[inline]
    fn get(&self, node: usize, level: usize) -> &[u32] {
        let at = self.start(node, level);
        &self.slots[at + 1..][..self.slots[at] as usize]
    }

    /// Appends `id`; `true` if the list is now over its cap.
    fn push(&mut self, node: usize, level: usize, id: u32) -> bool {
        let at = self.start(node, level);
        self.slots[at] += 1;
        let len = self.slots[at] as usize;
        self.slots[at + len] = id;
        len > self.cap(level)
    }

    /// Replaces the list with `ids` (at most one more than its cap).
    fn set(&mut self, node: usize, level: usize, ids: impl Iterator<Item = u32>) {
        let at = self.start(node, level);
        let mut len = 0;
        for id in ids {
            len += 1;
            self.slots[at + len] = id;
        }
        self.slots[at] = len as u32;
    }
}

/// HNSW graph index. See the module docs.
#[derive(Debug, Clone)]
pub struct HnswIndex {
    metric: Metric,
    ef_construction: usize,
    ef_search: usize,
    /// Metric-prepared vectors.
    data: DenseMatrix,
    /// Level of each node.
    levels: Vec<u32>,
    links: Links,
    /// Entry point (a node of maximal level).
    entry: u32,
    max_level: u32,
    pool: Pool,
}

fn bad<T>(message: String) -> Result<T, IndexError> {
    Err(IndexError::Format(message))
}

impl HnswIndex {
    /// Builds the graph by sequential insertion of the rows of `data`
    /// (moved in or copied). Bit-identical for a fixed `(data, metric, config)`.
    ///
    /// # Panics
    /// Panics if `data` is empty or `config.m < 2` / `ef_construction == 0`.
    pub fn build<'a>(
        data: impl Into<Cow<'a, DenseMatrix>>,
        metric: Metric,
        config: &HnswConfig,
    ) -> Self {
        let data = metric.prepare(data.into().into_owned());
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
            ef_construction: config.ef_construction,
            ef_search: config.ef_search.max(1),
            data,
            links: Links::new(&levels, config.m),
            max_level: levels[0],
            levels,
            entry: 0,
            pool: Pool::default(),
        };
        let mut scratch = Scratch::new(n);
        for i in 1..n {
            index.insert(i, &mut scratch);
        }
        index
    }

    #[inline]
    fn score(&self, q: &[f64], node: u32) -> f64 {
        vecops::dot(q, self.data.row(node as usize))
    }

    /// Makes the entry point the only seed in `sc`.
    fn seed_entry(&self, q: &[f64], sc: &mut Scratch) {
        sc.found.clear();
        sc.found.push(Neighbor {
            index: self.entry as usize,
            score: self.score(q, self.entry),
        });
    }

    /// Best-first beam search on one level, seeded from `sc.found`, which
    /// it replaces with up to `ef` hits, best first.
    fn search_layer(&self, q: &[f64], ef: usize, level: usize, sc: &mut Scratch) {
        sc.next_epoch();
        sc.candidates.clear();
        for i in 0..sc.found.len() {
            let ep = sc.found[i];
            if sc.visit(ep.index) {
                sc.candidates.push(Best(ep));
                sc.keep(ef, ep);
            }
        }
        sc.found.clear();
        while let Some(Best(c)) = sc.candidates.pop() {
            // The best remaining candidate is worse than the worst kept
            // result: the beam has converged.
            let worst = sc.results.peek().filter(|_| sc.results.len() >= ef);
            if worst.is_some_and(|w| topk::cmp_ranked(&c, &w.0 .0) == Ordering::Greater) {
                break;
            }
            let nbrs = self.links.get(c.index, level);
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
                if !sc.visit(nb as usize) {
                    continue;
                }
                let item = Neighbor {
                    index: nb as usize,
                    score: self.score(q, nb),
                };
                if sc.keep(ef, item) {
                    sc.candidates.push(Best(item));
                }
            }
        }
        let hits = sc.results.drain().map(|Reverse(Best(hit))| hit);
        sc.found.extend(hits);
        sc.found.sort_by(topk::cmp_ranked);
    }

    /// Greedy single-step descent of the seed in `sc` through levels
    /// `from` down to `to` (exclusive): the entry point of the beam phase.
    fn descend(&self, q: &[f64], from: u32, to: u32, sc: &mut Scratch) {
        for lev in (to + 1..=from).rev() {
            self.search_layer(q, 1, lev as usize, sc);
        }
    }

    fn insert(&mut self, i: usize, sc: &mut Scratch) {
        let q = self.data.row(i);
        let l = self.levels[i];
        self.seed_entry(q, sc);
        if l < self.max_level {
            self.descend(q, self.max_level, l, sc);
        }
        for lev in (0..=l.min(self.max_level) as usize).rev() {
            self.search_layer(q, self.ef_construction, lev, sc);
            // The hits stay in `found`: they seed the next level down.
            sc.selected.clear();
            sc.selected.extend_from_slice(&sc.found);
            select_neighbors(&self.data, &mut sc.selected, self.links.m, &mut sc.skipped);
            for j in 0..sc.selected.len() {
                let s = sc.selected[j];
                if self.links.push(s.index, lev, i as u32) {
                    prune(&self.data, &mut self.links, s, lev, sc);
                }
            }
            let mine = sc.selected.iter().map(|s| s.index as u32);
            self.links.set(i, lev, mine);
        }
        if l > self.max_level {
            self.entry = i as u32;
            self.max_level = l;
        }
    }

    /// Max neighbors per upper-level node.
    pub fn m(&self) -> usize {
        self.links.m
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
    /// positive (`build` never produces an empty index), the parameters
    /// must be ones `build` accepts, the entry point must exist **and
    /// reach `max_level`** (the descent reads its list there), per-node
    /// levels may not exceed `max_level`, no list may be longer than its
    /// cap (the arena has no slot for it), and every edge must point at
    /// an in-range node of sufficient level.
    pub fn load(path: &Path) -> Result<Self, IndexError> {
        let (c, metric) = open_index_columns(path, IndexKind::Hnsw)?;
        Self::from_columns(&c, metric)
    }

    /// Reconstructs the index from an already-validated container.
    ///
    /// The container stores the neighbor lists *flattened*: one `u32`
    /// links section plus a `u64` offsets section with one entry per
    /// list (node-major, then level `0..=levels[node]`) and a final
    /// end sentinel; the lists are copied into the arena `build` fills.
    /// This is the one place the graph invariants listed on
    /// [`HnswIndex::load`] are checked.
    pub(crate) fn from_columns(
        c: &pane_format::Columns,
        metric: Metric,
    ) -> Result<Self, IndexError> {
        let data = columnar_matrix(c, section::HNSW_VECTORS)?;
        let (n, dim) = (data.rows(), data.cols());
        if n == 0 || dim == 0 || dim > 1 << 24 {
            return bad(format!(
                "hnsw vectors section is {n}×{dim}; outside the valid range"
            ));
        }
        let &[m, ef_construction, ef_search, entry, max_level] = c.u64s(section::HNSW_META)? else {
            return bad("hnsw meta section does not hold 5 words".into());
        };
        for (v, what, min) in [
            (m, "m", 2),
            (ef_construction, "ef_construction", 1),
            (ef_search, "ef_search", 1),
        ] {
            if !(min..=1 << 20).contains(&v) {
                return bad(format!(
                    "{what} = {v} is outside {min}..={}: no build writes it",
                    1 << 20
                ));
            }
        }
        if entry >= n as u64 {
            return bad(format!(
                "entry point = {entry} exceeds sanity cap {}",
                n - 1
            ));
        }
        if max_level > MAX_LEVEL_CAP as u64 {
            return bad(format!(
                "max level = {max_level} exceeds sanity cap {MAX_LEVEL_CAP}"
            ));
        }
        let (entry, max_level) = (entry as u32, max_level as u32);
        let levels = c.u32s(section::HNSW_LEVELS)?;
        if levels.len() != n {
            return bad(format!(
                "level array has {} entries, expected {n}",
                levels.len()
            ));
        }
        if levels[entry as usize] != max_level {
            return bad(format!(
                "entry point {entry} has level {} but the graph claims max level {max_level}",
                levels[entry as usize]
            ));
        }
        if let Some(node) = levels.iter().position(|&l| l > max_level) {
            let l = levels[node];
            return bad(format!(
                "node {node} level {l} exceeds max level {max_level}"
            ));
        }
        let offsets = c.u64s(section::HNSW_LINK_OFFSETS)?;
        let flat = c.u32s(section::HNSW_LINKS)?;
        let lists: usize = levels.iter().map(|&l| l as usize + 1).sum();
        if offsets.len() != lists + 1 || offsets[0] != 0 {
            return bad(format!(
                "link-offset array has {} entries, expected {} (one per list plus sentinel, starting at 0)",
                offsets.len(),
                lists + 1
            ));
        }
        if offsets[lists] != flat.len() as u64 {
            return bad(format!(
                "link offsets end at {} but the links section holds {} ids",
                offsets[lists],
                flat.len()
            ));
        }
        let mut links = Links::new(levels, m as usize);
        let mut list = 0usize;
        for (node, &l) in levels.iter().enumerate() {
            for lev in 0..=l as usize {
                let (start, end) = (offsets[list], offsets[list + 1]);
                list += 1;
                if start > end || end as usize > flat.len() {
                    return bad(format!(
                        "node {node} level {lev}: link offsets [{start}, {end}) invalid for {} link ids",
                        flat.len()
                    ));
                }
                let nbrs = &flat[start as usize..end as usize];
                let cap = links.cap(lev);
                if nbrs.len() > cap {
                    let len = nbrs.len();
                    return bad(format!(
                        "node {node} level {lev}: list of {len} ids exceeds its cap {cap}"
                    ));
                }
                // A corrupted edge must fail the load, not panic the
                // first search that walks it.
                for &nb in nbrs {
                    if nb as usize >= n {
                        return bad(format!(
                            "node {node} level {lev}: neighbor id {nb} out of range {n}"
                        ));
                    }
                    if (levels[nb as usize] as usize) < lev {
                        return bad(format!(
                            "node {node} level {lev}: neighbor {nb} only reaches level {}",
                            levels[nb as usize]
                        ));
                    }
                }
                links.set(node, lev, nbrs.iter().copied());
            }
        }
        Ok(Self {
            metric,
            ef_construction: ef_construction as usize,
            ef_search: ef_search as usize,
            data,
            levels: levels.to_vec(),
            links,
            entry,
            max_level,
            pool: Pool::default(),
        })
    }
}

/// The paper's Algorithm 4 ("select neighbors heuristic"), phrased in
/// similarity terms: walk `cands` best-first and keep a candidate only
/// if it is closer to the query than to everything already kept. On
/// clustered data this trades a few nearest edges for *diverse* edges
/// that keep distinct regions navigable — plain top-M collapses into
/// near-cliques whose beam searches stall in local minima. Slots left
/// over are refilled with the best skipped candidates
/// (`keepPrunedConnections` in the paper). Shrinks `cands` in place to
/// the at most `m` kept.
fn select_neighbors(
    data: &DenseMatrix,
    cands: &mut Vec<Neighbor>,
    m: usize,
    skipped: &mut Vec<Neighbor>,
) {
    skipped.clear();
    let mut kept = 0;
    for j in 0..cands.len() {
        if kept >= m {
            break;
        }
        let c = cands[j];
        let crow = data.row(c.index);
        let diverse = cands[..kept]
            .iter()
            .all(|s| vecops::dot(crow, data.row(s.index)) < c.score);
        if diverse {
            cands[kept] = c;
            kept += 1;
        } else {
            skipped.push(c);
        }
    }
    cands.truncate(kept);
    cands.extend(skipped.iter().take(m - kept));
}

/// Shrinks `node.index`'s neighbor list on `level` — one over its cap
/// since the last id was pushed — back to the cap via the same diversity
/// heuristic used at insertion. `node.score` is the pushed edge's score,
/// known from the insert's own walk (`kernels::dot` is lane-symmetric,
/// so its bits are those of the dot taken from this end).
fn prune(data: &DenseMatrix, links: &mut Links, node: Neighbor, level: usize, sc: &mut Scratch) {
    let row = data.row(node.index);
    let (&pushed, old) = links
        .get(node.index, level)
        .split_last()
        .expect("prune: an over-full list is not empty");
    sc.ranked.clear();
    sc.ranked.extend(old.iter().map(|&nb| Neighbor {
        index: nb as usize,
        score: vecops::dot(row, data.row(nb as usize)),
    }));
    sc.ranked.push(Neighbor {
        index: pushed as usize,
        score: node.score,
    });
    sc.ranked.sort_by(topk::cmp_ranked);
    select_neighbors(data, &mut sc.ranked, links.cap(level), &mut sc.skipped);
    let kept = sc.ranked.iter().map(|nb| nb.index as u32);
    links.set(node.index, level, kept);
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
    /// no rows, so there is nothing for a panel form to reuse — except
    /// the scratch, checked out once per block.
    fn search_block(&self, queries: &[f64], k: usize) -> Vec<Vec<Neighbor>> {
        let rows = block_rows(queries, self.dim());
        if k == 0 {
            return rows.map(|_| Vec::new()).collect();
        }
        let popped = self.pool.list().pop();
        let mut sc = popped.unwrap_or_else(|| Scratch::new(self.len()));
        let out = rows
            .map(|q| {
                self.seed_entry(q, &mut sc);
                self.descend(q, self.max_level, 0, &mut sc);
                self.search_layer(q, self.ef_search.max(k), 0, &mut sc);
                sc.found.iter().take(k).copied().collect()
            })
            .collect();
        self.pool.list().push(sc);
        out
    }

    fn save(&self, path: &Path) -> Result<(), IndexError> {
        let meta = [
            self.links.m as u64,
            self.ef_construction as u64,
            self.ef_search as u64,
            self.entry as u64,
            self.max_level as u64,
        ];
        // Pack the lists: offsets get one entry per list (node-major,
        // level-minor) plus an end sentinel.
        let mut offsets = vec![0u64];
        let mut flat = Vec::new();
        for (node, &l) in self.levels.iter().enumerate() {
            for lev in 0..=l as usize {
                flat.extend_from_slice(self.links.get(node, lev));
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

    impl HnswIndex {
        /// `node`'s neighbor ids on `level`.
        fn neighbors(&self, node: usize, level: usize) -> &[u32] {
            self.links.get(node, level)
        }
    }

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
        assert_eq!(a.links.slots, b.links.slots);
        assert_eq!(a.entry, b.entry);
    }

    fn fnv1a(h: &mut u64, word: u64) {
        for b in word.to_le_bytes() {
            *h = (*h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// FNV-1a over `levels`, every list (length, then ids) in node-major /
    /// level order, `entry` and `max_level`.
    fn graph_hash(idx: &HnswIndex) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325;
        for &l in &idx.levels {
            fnv1a(&mut h, l as u64);
        }
        for v in 0..idx.len() {
            for lev in 0..=idx.levels[v] as usize {
                let nbrs = idx.neighbors(v, lev);
                fnv1a(&mut h, nbrs.len() as u64);
                for &nb in nbrs {
                    fnv1a(&mut h, nb as u64);
                }
            }
        }
        fnv1a(&mut h, idx.entry as u64);
        fnv1a(&mut h, idx.max_level as u64);
        h
    }

    /// `build_is_deterministic` compares a build with itself and would
    /// pass a refactor that changed every edge. This compares the graph
    /// and 50 answers (ids and score bits) with constants computed before
    /// the walk was rewritten: a change here is a change of the graph.
    #[test]
    fn graph_is_pinned() {
        let data = clustered_vectors(400, 16, 8, 0.25);
        let seeded = HnswConfig {
            m: 8,
            seed: 11,
            ..Default::default()
        };
        for (cfg, graph, answers) in [
            (
                HnswConfig::default(),
                0x8CE3_591F_A7BF_D2CD_u64,
                0x02D9_23ED_D040_8571_u64,
            ),
            (seeded, 0x5B5F_F925_3352_D03D, 0x02D9_23ED_D040_8571),
        ] {
            let idx = HnswIndex::build(&data, Metric::Cosine, &cfg);
            assert_eq!(graph_hash(&idx), graph, "graph changed: {cfg:?}");
            let mut h = 0xCBF2_9CE4_8422_2325;
            for v in (0..400).step_by(8) {
                for hit in idx.search(data.row(v), 10) {
                    fnv1a(&mut h, hit.index as u64);
                    fnv1a(&mut h, hit.score.to_bits());
                }
            }
            assert_eq!(h, answers, "answers changed: {cfg:?}");
        }
    }

    #[test]
    fn degree_bounds_hold() {
        let data = clustered_vectors(300, 10, 6, 0.2);
        let cfg = HnswConfig {
            m: 8,
            ..Default::default()
        };
        let idx = HnswIndex::build(&data, Metric::Cosine, &cfg);
        for v in 0..idx.len() {
            for lev in 0..=idx.levels[v] as usize {
                let nbrs = idx.neighbors(v, lev);
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
        assert!(
            !idx.neighbors(0, 0).is_empty(),
            "fixture node 0 has no links"
        );
        idx.links.set(0, 0, std::iter::once(u32::MAX));
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
        let last = 8 * idx.levels.iter().map(|&l| l as usize + 1).sum::<usize>();
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
        bad.links.push(idx.entry as usize, 1, ground);
        assert_load_rejects(&bad, &|_| (), "only reaches level 0");
    }

    /// What `build` can never write is refused, not clamped or walked: a
    /// list longer than its cap would not fit the arena, and `m < 2` /
    /// `ef = 0` are parameters `IndexSpec::validate` refuses too.
    #[test]
    fn overlong_list_and_bad_parameters_fail_load_cleanly() {
        use crate::testutil::patch_section;
        let data = clustered_vectors(250, 12, 5, 0.15);
        let idx = HnswIndex::build(&data, Metric::Cosine, &HnswConfig::default());
        let cap = 2 * idx.m();
        let full = (0..250)
            .find(|&v| idx.neighbors(v, 0).len() == cap)
            .expect("fixture has a full level-0 list");
        let mut bad = idx.clone();
        assert!(bad.links.push(full, 0, 0));
        let want = format!(
            "node {full} level 0: list of {} ids exceeds its cap {cap}",
            cap + 1
        );
        assert_load_rejects(&bad, &|_| (), &want);
        for (word, what) in [
            (0, "m = 1"),
            (1, "ef_construction = 0"),
            (2, "ef_search = 0"),
        ] {
            let value = u64::from(word == 0);
            assert_load_rejects(
                &idx,
                &|p| {
                    patch_section(p, section::HNSW_META, |b| {
                        b[8 * word..8 * word + 8].copy_from_slice(&value.to_le_bytes())
                    })
                },
                what,
            );
        }
    }

    /// A scratch about to wrap its epoch answers four consecutive layer
    /// walks exactly as a fresh one, though its stamps hold the very
    /// values the restarted epoch takes next.
    #[test]
    fn epoch_wrap_forgets_every_visit() {
        let data = clustered_vectors(300, 10, 6, 0.2);
        let idx = HnswIndex::build(&data, Metric::Cosine, &HnswConfig::default());
        let mut fresh = Scratch::new(300);
        let mut old = Scratch::new(300);
        old.epoch = u32::MAX - 1;
        for (v, stamp) in old.stamps.iter_mut().enumerate() {
            *stamp = [1, 2, 3, u32::MAX - 1][v % 4];
        }
        for walk in 0..4 {
            let q = idx.data.row(37 * walk);
            idx.seed_entry(q, &mut fresh);
            idx.search_layer(q, 24, 0, &mut fresh);
            idx.seed_entry(q, &mut old);
            idx.search_layer(q, 24, 0, &mut old);
            assert_eq!(old.found, fresh.found, "walk {walk}");
            assert_eq!(old.found.len(), 24);
        }
        assert_eq!(old.epoch, 3);
    }

    /// Four threads released together search one shared index: every
    /// answer equals the serial one, and the pool ends up holding at most
    /// one scratch per thread.
    #[test]
    fn pool_under_contention_matches_serial_answers() {
        let data = clustered_vectors(400, 16, 8, 0.25);
        let idx = HnswIndex::build(&data, Metric::Cosine, &HnswConfig::default());
        let serial: Vec<_> = (0..200).map(|v| idx.search(data.row(v), 10)).collect();
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let (idx, data, serial, start) = (&idx, &data, &serial, &start);
                scope.spawn(move || {
                    start.wait();
                    for v in (0..200).map(|i| (i + 50 * t) % 200) {
                        assert_eq!(idx.search(data.row(v), 10), serial[v], "thread {t}");
                    }
                });
            }
        });
        let pooled = idx.pool.list().len();
        assert!((1..=4).contains(&pooled), "{pooled} scratches pooled");
    }

    #[test]
    fn decent_recall_on_clusters() {
        let data = clustered_vectors(400, 16, 8, 0.25);
        let flat = FlatIndex::build(&data, Metric::Cosine);
        let idx = HnswIndex::build(&data, Metric::Cosine, &HnswConfig::default());
        let mut hit = 0;
        let mut total = 0;
        for v in (0..400).step_by(7) {
            let truth: std::collections::BTreeSet<usize> = flat
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
