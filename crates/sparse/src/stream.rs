//! Streaming CSR construction with bounded auxiliary memory.
//!
//! [`crate::CooMatrix`] materializes every triplet before sorting, so a
//! build over `T` pushed triplets peaks at `16·T` bytes of triplet storage
//! *on top of* the final CSR arrays — at MAG scale (0.27B edges) that is
//! gigabytes of scratch. [`CsrBuilder`] removes that materialization two
//! ways:
//!
//! * [`CsrBuilder::from_source`] — a **two-pass counting sort** over a
//!   *replayable* triplet source (a closure that emits the identical
//!   sequence each time it is called: a slice, a CSR iterator, a seeded
//!   generator). Pass 1 counts per-row occupancy, pass 2 scatters straight
//!   into the final `indices`/`values` arrays, then each row is stably
//!   sorted and merged in place. Auxiliary memory is one `usize` per row
//!   plus the scatter slack for duplicate coordinates — the unsorted
//!   triplet set is never held.
//! * The **chunked** push API ([`CsrBuilder::push`] / [`CsrBuilder::finish`])
//!   — for sources that can only be walked once (text edge files). Triplets
//!   accumulate in a bounded chunk; a full chunk is stably sorted and
//!   merge-joined into the running sorted/merged accumulator. Peak
//!   auxiliary memory is `O(nnz_out + chunk)`, not `O(T)`.
//!
//! Both paths produce output **bit-identical** to [`crate::CooMatrix::to_csr`]:
//! entries sorted by `(row, col)`, duplicates summed left-to-right in push
//! order, totals that are exactly `0.0` dropped. (`CooMatrix::to_csr` is
//! itself a thin wrapper over [`CsrBuilder::from_source`], and the property
//! tests in this crate pin all three paths to an independent sort-based
//! reference.)

use crate::csr::CsrMatrix;

/// Bytes held per buffered triplet (`u32` row + `u32` col + `f64` value).
const TRIPLET_BYTES: usize = 16;

/// Default chunk capacity (triplets) for the push API: 1Mi triplets
/// ≈ 16 MiB of buffered input per flush.
pub const DEFAULT_CHUNK_CAPACITY: usize = 1 << 20;

/// How duplicate coordinates are merged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MergeRule {
    /// Sum duplicates in push order and drop totals that are exactly `0.0`
    /// — the [`crate::CooMatrix::to_csr`] contract. Summation order is the
    /// push order, so results are bit-stable for a fixed input sequence.
    #[default]
    Sum,
    /// Keep the value pushed first for each coordinate and discard the
    /// rest — the dedup rule for binary adjacency matrices, where every
    /// duplicate edge carries the same weight `1.0`. No zero-dropping:
    /// the first pushed value is stored verbatim.
    KeepFirst,
}

/// Build statistics returned by [`CsrBuilder::finish_with_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestStats {
    /// Entries in the finished matrix (after merging and zero-dropping).
    pub nnz: usize,
    /// High-water mark of auxiliary triplet-buffer bytes held by the
    /// builder: the accumulator grown by one chunk (the merge is **in
    /// place** — no second output copy exists) plus the pending chunk,
    /// counted at every flush. Excludes the final CSR arrays (which any
    /// build path must produce) and the transient scratch of the chunk
    /// sort.
    pub peak_aux_bytes: usize,
    /// Number of chunk flushes performed.
    pub flushes: usize,
}

/// Streaming builder for [`CsrMatrix`] — see the module docs for when to
/// use this over [`crate::CooMatrix`].
#[derive(Debug, Clone)]
pub struct CsrBuilder {
    rows: usize,
    cols: usize,
    rule: MergeRule,
    chunk_capacity: usize,
    /// Pending triplets, unsorted, bounded by `chunk_capacity`.
    chunk: Vec<(u32, u32, f64)>,
    /// Accumulated entries: sorted by `(row, col)`, coordinates unique,
    /// exact zeros already dropped (under [`MergeRule::Sum`]).
    acc_rows: Vec<u32>,
    acc_cols: Vec<u32>,
    acc_vals: Vec<f64>,
    peak_aux_bytes: usize,
    flushes: usize,
}

impl CsrBuilder {
    /// Empty chunked builder with fixed dimensions, [`MergeRule::Sum`] and
    /// the default chunk capacity.
    ///
    /// # Panics
    /// Panics if a dimension exceeds the `u32` index space.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(
            rows <= u32::MAX as usize && cols <= u32::MAX as usize,
            "dimensions exceed u32 index space"
        );
        Self {
            rows,
            cols,
            rule: MergeRule::Sum,
            chunk_capacity: DEFAULT_CHUNK_CAPACITY,
            chunk: Vec::new(),
            acc_rows: Vec::new(),
            acc_cols: Vec::new(),
            acc_vals: Vec::new(),
            peak_aux_bytes: 0,
            flushes: 0,
        }
    }

    /// Sets the duplicate-merge rule (builder style).
    pub fn merge_rule(mut self, rule: MergeRule) -> Self {
        self.rule = rule;
        self
    }

    /// Sets the chunk capacity in triplets (builder style). Smaller chunks
    /// lower peak memory but flush (sort + merge) more often.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn chunk_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "chunk capacity must be positive");
        self.chunk_capacity = capacity;
        self
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Triplets buffered in the pending chunk, not yet merged.
    pub fn pending(&self) -> usize {
        self.chunk.len()
    }

    /// Adds a triplet; may trigger a chunk flush.
    ///
    /// # Panics
    /// Panics if the coordinates are out of bounds (validate ids *before*
    /// pushing when the input is untrusted — the text loaders do).
    pub fn push(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.rows, "row {row} out of bounds ({})", self.rows);
        assert!(col < self.cols, "col {col} out of bounds ({})", self.cols);
        self.chunk.push((row as u32, col as u32, value));
        if self.chunk.len() >= self.chunk_capacity {
            self.flush();
        }
    }

    /// Sorts the pending chunk and merge-joins it into the accumulator
    /// **in place**: the accumulator arrays grow by the chunk length,
    /// existing entries shift to their tail, and the merge writes forward
    /// into the freed prefix. The write cursor can never overtake the
    /// shifted read cursor (each output entry consumes at least one
    /// input entry), so no second output buffer exists — the transient
    /// is one grown accumulator plus the pending chunk, not two full
    /// accumulator copies.
    fn flush(&mut self) {
        if self.chunk.is_empty() {
            return;
        }
        self.flushes += 1;
        // Stable sort: duplicates of a coordinate stay in push order, so
        // the sequential fold below reproduces push-order summation.
        self.chunk
            .sort_by_key(|&(r, c, _)| ((r as u64) << 32) | c as u64);

        let a_len = self.acc_rows.len();
        let c_len = self.chunk.len();
        let cap = a_len + c_len;
        // Transient high-water: the grown accumulator + the chunk.
        self.peak_aux_bytes = self.peak_aux_bytes.max(TRIPLET_BYTES * (cap + c_len));
        self.acc_rows.resize(cap, 0);
        self.acc_cols.resize(cap, 0);
        self.acc_vals.resize(cap, 0.0);
        // Shift the existing entries to the tail [c_len, cap); the merge
        // then reads them from there and writes merged output from 0.
        self.acc_rows.copy_within(0..a_len, c_len);
        self.acc_cols.copy_within(0..a_len, c_len);
        self.acc_vals.copy_within(0..a_len, c_len);

        let key = |r: u32, c: u32| ((r as u64) << 32) | c as u64;
        let chunk = &self.chunk;
        // End of the run of identical coordinates starting at `j`.
        let run_end = |mut j: usize| {
            let (r, c, _) = chunk[j];
            while j < c_len && chunk[j].0 == r && chunk[j].1 == c {
                j += 1;
            }
            j
        };

        let (rows, cols, vals) = (&mut self.acc_rows, &mut self.acc_cols, &mut self.acc_vals);
        // `ra` reads the shifted accumulator tail, `j` the sorted chunk,
        // `w` writes the merged output. Invariant: `w ≤ ra` (the output
        // never holds more entries than were consumed, and at most
        // `c_len` of them came from the chunk), so reads stay ahead.
        let (mut ra, mut j, mut w) = (c_len, 0usize, 0usize);
        while ra < cap || j < c_len {
            let take_acc =
                j >= c_len || (ra < cap && key(rows[ra], cols[ra]) < key(chunk[j].0, chunk[j].1));
            if take_acc {
                rows[w] = rows[ra];
                cols[w] = cols[ra];
                vals[w] = vals[ra];
                w += 1;
                ra += 1;
                continue;
            }
            let (r, c, first) = chunk[j];
            let end = run_end(j);
            let in_acc = ra < cap && rows[ra] == r && cols[ra] == c;
            match self.rule {
                MergeRule::Sum => {
                    // Fold left-to-right: accumulator value (earlier pushes)
                    // first, then the chunk run in push order — exactly the
                    // order a one-shot build would sum.
                    let (mut v, start) = if in_acc {
                        (vals[ra], j)
                    } else {
                        (first, j + 1)
                    };
                    for k in start..end {
                        v += chunk[k].2;
                    }
                    if v != 0.0 {
                        rows[w] = r;
                        cols[w] = c;
                        vals[w] = v;
                        w += 1;
                    }
                }
                MergeRule::KeepFirst => {
                    rows[w] = r;
                    cols[w] = c;
                    vals[w] = if in_acc { vals[ra] } else { first };
                    w += 1;
                }
            }
            if in_acc {
                ra += 1;
            }
            j = end;
        }
        self.acc_rows.truncate(w);
        self.acc_cols.truncate(w);
        self.acc_vals.truncate(w);
        self.chunk.clear();
    }

    /// Finalizes into a [`CsrMatrix`].
    pub fn finish(self) -> CsrMatrix {
        self.finish_with_stats().0
    }

    /// Finalizes and reports the build's memory/merge statistics.
    pub fn finish_with_stats(mut self) -> (CsrMatrix, IngestStats) {
        self.flush();
        self.peak_aux_bytes = self.peak_aux_bytes.max(TRIPLET_BYTES * self.acc_rows.len());
        let mut indptr = vec![0usize; self.rows + 1];
        for &r in &self.acc_rows {
            indptr[r as usize + 1] += 1;
        }
        for i in 0..self.rows {
            indptr[i + 1] += indptr[i];
        }
        let stats = IngestStats {
            nnz: self.acc_vals.len(),
            peak_aux_bytes: self.peak_aux_bytes,
            flushes: self.flushes,
        };
        (
            CsrMatrix::from_raw(self.rows, self.cols, indptr, self.acc_cols, self.acc_vals),
            stats,
        )
    }

    /// Two-pass counting-sort build from a **replayable** triplet source.
    ///
    /// `source` is called exactly twice and must emit the identical triplet
    /// sequence both times (slices, [`CsrMatrix::iter`] chains and seeded
    /// generators all qualify). Pass 1 counts per-row occupancy; pass 2
    /// scatters values directly into the final arrays; each row is then
    /// stably sorted by column and merged under `rule`. The unsorted
    /// triplet set is never materialized — auxiliary memory is the
    /// `rows + 1` offset table plus the scatter slack for duplicates.
    ///
    /// # Panics
    /// Panics if a coordinate is out of bounds or the second replay does
    /// not match the first.
    pub fn from_source<F>(rows: usize, cols: usize, rule: MergeRule, mut source: F) -> CsrMatrix
    where
        F: FnMut(&mut dyn FnMut(usize, usize, f64)),
    {
        assert!(
            rows <= u32::MAX as usize && cols <= u32::MAX as usize,
            "dimensions exceed u32 index space"
        );
        // Pass 1: per-row triplet counts.
        let mut offsets = vec![0usize; rows + 1];
        source(&mut |r, c, _| {
            assert!(r < rows, "row {r} out of bounds ({rows})");
            assert!(c < cols, "col {c} out of bounds ({cols})");
            offsets[r + 1] += 1;
        });
        for i in 0..rows {
            offsets[i + 1] += offsets[i];
        }
        let total = offsets[rows];
        // Pass 2: scatter into the final arrays at per-row cursors. Within
        // a row, entries land in emission order.
        let mut indices = vec![0u32; total];
        let mut values = vec![0.0f64; total];
        let mut cursor: Vec<usize> = offsets[..rows].to_vec();
        source(&mut |r, c, v| {
            let p = cursor[r];
            assert!(
                p < offsets[r + 1],
                "replayable source emitted extra triplets for row {r} on the second pass"
            );
            indices[p] = c as u32;
            values[p] = v;
            cursor[r] = p + 1;
        });
        for r in 0..rows {
            assert!(
                cursor[r] == offsets[r + 1],
                "replayable source emitted fewer triplets for row {r} on the second pass"
            );
        }
        finalize_rows(rows, cols, &offsets, indices, values, rule)
    }
}

/// Sorts each row segment stably by column, folds duplicates under `rule`,
/// compacts in place and assembles the final matrix.
fn finalize_rows(
    rows: usize,
    cols: usize,
    offsets: &[usize],
    mut indices: Vec<u32>,
    mut values: Vec<f64>,
    rule: MergeRule,
) -> CsrMatrix {
    let mut indptr = vec![0usize; rows + 1];
    let mut scratch: Vec<(u32, f64)> = Vec::new();
    let mut w = 0usize;
    for r in 0..rows {
        let (lo, hi) = (offsets[r], offsets[r + 1]);
        scratch.clear();
        scratch.extend(
            indices[lo..hi]
                .iter()
                .copied()
                .zip(values[lo..hi].iter().copied()),
        );
        // Stable: duplicate columns keep emission (= push) order.
        scratch.sort_by_key(|&(c, _)| c);
        let mut i = 0;
        while i < scratch.len() {
            let col = scratch[i].0;
            let mut v = scratch[i].1;
            let mut j = i + 1;
            while j < scratch.len() && scratch[j].0 == col {
                if rule == MergeRule::Sum {
                    v += scratch[j].1;
                }
                j += 1;
            }
            if rule == MergeRule::KeepFirst || v != 0.0 {
                indices[w] = col;
                values[w] = v;
                w += 1;
                indptr[r + 1] += 1;
            }
            i = j;
        }
    }
    indices.truncate(w);
    values.truncate(w);
    for i in 0..rows {
        indptr[i + 1] += indptr[i];
    }
    CsrMatrix::from_raw(rows, cols, indptr, indices, values)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triplet_source(
        entries: &[(usize, usize, f64)],
    ) -> impl FnMut(&mut dyn FnMut(usize, usize, f64)) + '_ {
        move |emit| {
            for &(r, c, v) in entries {
                emit(r, c, v);
            }
        }
    }

    #[test]
    fn from_source_basic_merge() {
        let entries = [(2, 1, 5.0), (0, 0, 1.0), (0, 3, 2.0), (2, 1, 1.5)];
        let csr = CsrBuilder::from_source(3, 4, MergeRule::Sum, triplet_source(&entries));
        assert_eq!(csr.nnz(), 3);
        assert_eq!(csr.get(0, 0), 1.0);
        assert_eq!(csr.get(0, 3), 2.0);
        assert_eq!(csr.get(2, 1), 6.5);
    }

    #[test]
    fn from_source_cancellation_drops() {
        let entries = [(0, 0, 2.0), (0, 0, -2.0), (1, 1, 3.0)];
        let csr = CsrBuilder::from_source(2, 2, MergeRule::Sum, triplet_source(&entries));
        assert_eq!(csr.nnz(), 1);
        assert_eq!(csr.get(1, 1), 3.0);
    }

    #[test]
    fn from_source_empty() {
        let csr = CsrBuilder::from_source(0, 0, MergeRule::Sum, |_emit| {});
        assert_eq!(csr.rows(), 0);
        assert_eq!(csr.nnz(), 0);
    }

    #[test]
    fn keep_first_dedups_binary_edges() {
        let entries = [(0, 1, 1.0), (1, 0, 1.0), (0, 1, 1.0), (0, 1, 1.0)];
        let csr = CsrBuilder::from_source(2, 2, MergeRule::KeepFirst, triplet_source(&entries));
        assert_eq!(csr.nnz(), 2);
        assert_eq!(csr.get(0, 1), 1.0);
        assert_eq!(csr.get(1, 0), 1.0);
    }

    #[test]
    fn chunked_matches_one_shot_across_chunk_sizes() {
        let entries: Vec<(usize, usize, f64)> = vec![
            (4, 3, 1.25),
            (0, 0, -0.5),
            (4, 3, -1.25), // cancels inside or across chunks
            (2, 2, 3.0),
            (0, 0, 0.75),
            (4, 3, 2.0), // re-adds after cancellation
            (2, 2, 3.0),
        ];
        let want = CsrBuilder::from_source(5, 5, MergeRule::Sum, triplet_source(&entries));
        for chunk in [1, 2, 3, 5, 64] {
            let mut b = CsrBuilder::new(5, 5).chunk_capacity(chunk);
            for &(r, c, v) in &entries {
                b.push(r, c, v);
            }
            let got = b.finish();
            assert_eq!(got, want, "chunk capacity {chunk}");
        }
    }

    #[test]
    fn chunked_keep_first() {
        let mut b = CsrBuilder::new(2, 2)
            .merge_rule(MergeRule::KeepFirst)
            .chunk_capacity(2);
        b.push(0, 1, 1.0);
        b.push(0, 1, 1.0); // same chunk
        b.push(0, 1, 1.0); // later chunk
        b.push(1, 1, 1.0);
        let csr = b.finish();
        assert_eq!(csr.nnz(), 2);
        assert_eq!(csr.get(0, 1), 1.0);
    }

    #[test]
    fn stats_report_flushes_and_peak() {
        let mut b = CsrBuilder::new(4, 4).chunk_capacity(2);
        for i in 0..8 {
            b.push(i % 4, (i * 3) % 4, 1.0 + i as f64);
        }
        let (csr, stats) = b.finish_with_stats();
        assert_eq!(stats.nnz, csr.nnz());
        assert_eq!(stats.flushes, 4);
        assert!(stats.peak_aux_bytes > 0);
        // Bounded by O(nnz_out + chunk): never anywhere near 8 full triplets
        // per side of the merge.
        assert!(stats.peak_aux_bytes <= TRIPLET_BYTES * 2 * (csr.nnz() + 2));
    }

    #[test]
    fn summation_order_is_push_order() {
        // 0.1 + 0.2 + 0.3 differs bitwise from 0.3 + 0.2 + 0.1; all paths
        // must fold in push order.
        let entries = [(0, 0, 0.1), (0, 0, 0.2), (0, 0, 0.3)];
        let want = (0.1f64 + 0.2) + 0.3;
        let one = CsrBuilder::from_source(1, 1, MergeRule::Sum, triplet_source(&entries));
        assert_eq!(one.get(0, 0).to_bits(), want.to_bits());
        for chunk in [1, 2, 16] {
            let mut b = CsrBuilder::new(1, 1).chunk_capacity(chunk);
            for &(r, c, v) in &entries {
                b.push(r, c, v);
            }
            assert_eq!(b.finish().get(0, 0).to_bits(), want.to_bits());
        }
    }

    #[test]
    fn in_place_merge_peak_counts_one_accumulator_copy() {
        // 6 unique entries pushed twice (12 pushes) through chunks of 3:
        // the worst flush holds acc=6 grown by chunk=3 (9) + the chunk
        // itself (3) = 12 triplets. The old double-buffered merge held
        // acc + fresh output = 2·9 = 18 alongside the chunk.
        let mut b = CsrBuilder::new(3, 3).chunk_capacity(3);
        for rep in 0..2 {
            for i in 0..6 {
                let _ = rep;
                b.push(i / 3, i % 3, 1.0);
            }
        }
        let (csr, stats) = b.finish_with_stats();
        assert_eq!(csr.nnz(), 6);
        assert_eq!(stats.peak_aux_bytes, TRIPLET_BYTES * 12);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn push_bounds_checked() {
        let mut b = CsrBuilder::new(2, 2);
        b.push(2, 0, 1.0);
    }

    #[test]
    #[should_panic(expected = "second pass")]
    fn non_replayable_source_detected() {
        let mut calls = 0;
        CsrBuilder::from_source(2, 2, MergeRule::Sum, |emit| {
            calls += 1;
            if calls == 2 {
                emit(0, 0, 1.0); // extra triplet only on the replay
            }
        });
    }
}
