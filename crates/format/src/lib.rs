//! `PANECOL1` — the one column-oriented artifact container every
//! generation artifact (embedding columns, index payloads) is stored in.
//!
//! The pre-columnar stream formats, `PANEEMB1` (embeddings) and
//! `PANEIDX1` (indexes), were decoded value by value through a
//! `BufReader`, so restart cost scaled with a per-`f64` decode loop.
//! Both readers are gone; every reader here refuses those two magics by
//! name, with the remedy, before anything else about the file is read.
//! `PANECOL1` is the map-don't-parse replacement: a sectioned,
//! 64-byte-aligned, per-section-checksummed layout that loads with **one
//! bulk read** into an aligned buffer followed by header + checksum
//! validation — after which every column is a typed zero-copy view
//! (`&[f64]` / `&[f32]` / `&[i8]` / `&[u32]` / `&[u64]`) straight into
//! that buffer. No per-value decode, no per-row `Vec`.
//!
//! # Container layout
//!
//! All integers are little-endian. The file is:
//!
//! | offset | size | field |
//! |-------:|-----:|-------|
//! | 0      | 8    | magic `PANECOL1` |
//! | 8      | 2    | artifact kind ([`Artifact`] tag, `u16`) |
//! | 10     | 2    | artifact meta (`u16`, owner-defined; indexes pack `kind | metric << 8`) |
//! | 12     | 4    | section count (`u32`, at most [`MAX_SECTIONS`]) |
//! | 16     | 8    | declared total file length (`u64`) |
//! | 24     | 8    | header checksum: [`checksum`] over bytes `0..24` ++ the section table |
//! | 32     | 48·count | section table |
//! | …      | …    | sections, each starting on a 64-byte boundary, zero-padded gaps |
//!
//! Each 48-byte table entry is `id: u32`, `dtype: u32` ([`DType`] tag),
//! `rows: u64`, `cols: u64`, `offset: u64`, `byte_len: u64`,
//! `checksum: u64` (over the section's bytes). Section offsets are not
//! free-form: they are the deterministic function *align64 of the
//! previous section's end* (the first section follows the table), and
//! the declared length must equal the last section's end exactly. A
//! reader therefore recomputes the layout from `(rows, cols, dtype)`
//! alone and rejects any table whose stored offsets or lengths disagree
//! — overlapping sections, declared-length lies, and trailing garbage
//! are all structural errors, not undefined behavior.
//!
//! # Validation order (untrusted input)
//!
//! [`Columns::open`] reads the magic first (a removed stream format is
//! named whatever the file's length), then the 32-byte fixed header, and
//! compares the declared length against the *actual* file length
//! **before any allocation** — a lying header can never trigger an
//! oversized allocation, because the buffer is sized by a value the OS
//! confirms.
//! Only then is the aligned buffer allocated, the whole file bulk-read,
//! and the header checksum, table layout, and per-section checksums
//! verified. Every failure is a structured [`FormatError`]; no input
//! byte pattern panics.
//!
//! # Section ID registry
//!
//! Section IDs are global across artifact kinds (see [`section`]);
//! `30..40` are reserved for future product-quantization codebooks so
//! the container never needs a version bump for PQ.

#![deny(missing_docs)]
#![forbid(unsafe_op_in_unsafe_fn)]

use std::borrow::Cow;
use std::fmt;
use std::fs::File;
use std::io::{Read, Write};
use std::path::Path;

/// The 8-byte container magic.
pub const MAGIC: &[u8; 8] = b"PANECOL1";

/// Magics of the pre-columnar stream formats, each with the way to get
/// a `PANECOL1` file instead. Every reader refuses them by name.
const REMOVED_FORMATS: [(&str, &str); 2] = [
    (
        "PANEEMB1",
        "re-run `pane embed` to write a PANECOL1 embedding (a store holding one: run \
         `pane store snapshot` on it with a build from before PANEEMB1 was removed)",
    ),
    (
        "PANEIDX1",
        "index files are derived data — regenerate it with `pane index build` (for a \
         store directory, run `pane store snapshot`)",
    ),
];

/// Size of the fixed header that precedes the section table.
pub const HEADER_LEN: usize = 32;

/// Size of one section-table entry.
pub const TABLE_ENTRY_LEN: usize = 48;

/// Every section starts on a multiple of this (cache-line friendly, and
/// more than enough for any typed view's alignment).
pub const SECTION_ALIGN: usize = 64;

/// Hard ceiling on the section count — far above any real artifact
/// (embeddings use 3 sections, the largest index 5), purely a guard
/// against corrupt headers driving the table parse.
pub const MAX_SECTIONS: usize = 64;

/// Well-known section IDs. The registry is global: an ID means the same
/// thing in every `PANECOL1` file, so tooling can inspect any artifact.
pub mod section {
    /// Forward node embeddings `X_f` (`n × k/2`, f64).
    pub const EMB_FORWARD: u32 = 1;
    /// Backward node embeddings `X_b` (`n × k/2`, f64).
    pub const EMB_BACKWARD: u32 = 2;
    /// Attribute embeddings `Y` (`d × k/2`, f64).
    pub const EMB_ATTRIBUTE: u32 = 3;
    /// Flat index: metric-prepared vectors (`n × dim`, f64).
    pub const INDEX_VECTORS: u32 = 10;
    /// IVF: cell centroids (`nlist × dim`, f64).
    pub const IVF_CENTROIDS: u32 = 11;
    /// IVF: per-cell population (`nlist × 1`, u32).
    pub const IVF_SIZES: u32 = 12;
    /// IVF: cell-major original row ids (`n × 1`, u32).
    pub const IVF_IDS: u32 = 13;
    /// IVF: cell-major prepared vectors (`n × dim`, f64).
    pub const IVF_VECTORS: u32 = 14;
    /// IVF: scalar build/search parameters (`1 × 2`, u64: nlist, nprobe).
    pub const IVF_META: u32 = 15;
    /// HNSW: scalar parameters (`1 × 5`, u64: m, ef_construction,
    /// ef_search, entry, max_level).
    pub const HNSW_META: u32 = 16;
    /// HNSW: per-node level (`n × 1`, u32).
    pub const HNSW_LEVELS: u32 = 17;
    /// HNSW: adjacency-list offsets (`lists + 1 × 1`, u64), indexing
    /// [`HNSW_LINKS`]; lists are ordered node-major, level 0..=level(node).
    pub const HNSW_LINK_OFFSETS: u32 = 18;
    /// HNSW: concatenated neighbor ids (`total_links × 1`, u32).
    pub const HNSW_LINKS: u32 = 19;
    /// HNSW: metric-prepared vectors (`n × dim`, f64).
    pub const HNSW_VECTORS: u32 = 20;
    /// SqFlat: per-row scalar-quantized codes (`n × dim`, i8).
    pub const SQ_CODES: u32 = 21;
    /// SqFlat: per-row dequantization scales (`n × 1`, f64).
    pub const SQ_SCALES: u32 = 22;
    /// SqFlat: scalar parameters (`1 × 1`, u64: rerank factor).
    pub const SQ_META: u32 = 23;
    /// Reserved for PQ codebooks (sub-quantizer centroids).
    pub const RESERVED_PQ_CODEBOOK: u32 = 30;
    /// Reserved for PQ codes.
    pub const RESERVED_PQ_CODES: u32 = 31;
}

/// What a `PANECOL1` file holds — the coarse artifact kind in the fixed
/// header. Finer structure (which index kind, which metric) lives in the
/// owner-defined `meta` word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Artifact {
    /// A PANE embedding (`X_f`, `X_b`, `Y` columns).
    Embedding,
    /// A vector-index payload.
    Index,
}

impl Artifact {
    /// Stable wire tag.
    pub fn tag(self) -> u16 {
        match self {
            Artifact::Embedding => 1,
            Artifact::Index => 2,
        }
    }

    /// Inverse of [`Self::tag`].
    pub fn from_tag(tag: u16) -> Option<Self> {
        match tag {
            1 => Some(Artifact::Embedding),
            2 => Some(Artifact::Index),
            _ => None,
        }
    }
}

/// Element type of a section. Tags are wire-stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DType {
    /// 64-bit IEEE float.
    F64,
    /// 32-bit IEEE float.
    F32,
    /// Signed 8-bit integer (scalar-quantized codes).
    I8,
    /// Unsigned 32-bit integer (ids, levels, sizes).
    U32,
    /// Unsigned 64-bit integer (offsets, scalar parameter blocks).
    U64,
    /// Raw bytes.
    U8,
}

impl DType {
    /// Stable wire tag.
    pub fn tag(self) -> u32 {
        match self {
            DType::F64 => 1,
            DType::F32 => 2,
            DType::I8 => 3,
            DType::U32 => 4,
            DType::U64 => 5,
            DType::U8 => 6,
        }
    }

    /// Inverse of [`Self::tag`].
    pub fn from_tag(tag: u32) -> Option<Self> {
        match tag {
            1 => Some(DType::F64),
            2 => Some(DType::F32),
            3 => Some(DType::I8),
            4 => Some(DType::U32),
            5 => Some(DType::U64),
            6 => Some(DType::U8),
            _ => None,
        }
    }

    /// Bytes per element.
    pub fn size(self) -> usize {
        match self {
            DType::F64 | DType::U64 => 8,
            DType::F32 | DType::U32 => 4,
            DType::I8 | DType::U8 => 1,
        }
    }
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            DType::F64 => "f64",
            DType::F32 => "f32",
            DType::I8 => "i8",
            DType::U32 => "u32",
            DType::U64 => "u64",
            DType::U8 => "u8",
        };
        f.write_str(name)
    }
}

/// Reading or writing a container failed.
#[derive(Debug)]
pub enum FormatError {
    /// The underlying file operation failed.
    Io(std::io::Error),
    /// The bytes are not a valid `PANECOL1` container (wrong magic,
    /// checksum mismatch, layout lie, unknown tag, …).
    Format(String),
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::Io(e) => write!(f, "io error: {e}"),
            FormatError::Format(msg) => write!(f, "format error: {msg}"),
        }
    }
}

impl std::error::Error for FormatError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FormatError::Io(e) => Some(e),
            FormatError::Format(_) => None,
        }
    }
}

impl From<std::io::Error> for FormatError {
    fn from(e: std::io::Error) -> Self {
        FormatError::Io(e)
    }
}

fn format_err<T>(msg: impl Into<String>) -> Result<T, FormatError> {
    Err(FormatError::Format(msg.into()))
}

/// The container checksum: four independent FNV-1a 64 lanes over
/// interleaved 8-byte little-endian words, folded into one hash, with
/// the ≤31 tail bytes absorbed word-serially (the final partial word is
/// zero-extended). Not cryptographic — it detects torn writes and bit
/// rot, like the WAL's record checksum. The lanes exist purely for
/// speed: a single FNV chain serializes on the 64-bit multiply, while
/// four lanes pipeline it, so checksumming never dominates a bulk-load
/// boot.
pub fn checksum(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    // Distinct lane seeds so permuted blocks do not collide trivially.
    let mut lanes = [OFFSET, OFFSET ^ 1, OFFSET ^ 2, OFFSET ^ 3];
    let mut blocks = bytes.chunks_exact(32);
    for b in &mut blocks {
        for (i, lane) in lanes.iter_mut().enumerate() {
            let w = u64::from_le_bytes(b[i * 8..(i + 1) * 8].try_into().unwrap());
            *lane = (*lane ^ w).wrapping_mul(PRIME);
        }
    }
    let mut h = OFFSET;
    for lane in lanes {
        h = (h ^ lane).wrapping_mul(PRIME);
    }
    let mut words = blocks.remainder().chunks_exact(8);
    for c in &mut words {
        let w = u64::from_le_bytes(c.try_into().unwrap());
        h = (h ^ w).wrapping_mul(PRIME);
    }
    let rem = words.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        h = (h ^ u64::from_le_bytes(tail)).wrapping_mul(PRIME);
    }
    h
}

/// Reads a container's header and section table *only* — no payload
/// bytes are read or allocated, so status tools can report shapes of
/// arbitrarily large artifacts cheaply.
///
/// The header checksum (which covers the table), the declared-vs-actual
/// length, and the deterministic layout are all verified exactly as in
/// [`Columns::open`]; section *payload* checksums are not (that would
/// require reading the payloads this function exists to skip).
pub fn peek_table(path: &Path) -> Result<(Artifact, u16, Vec<Section>), FormatError> {
    let mut f = File::open(path)?;
    let t = read_validated_table(&mut f, path)?;
    Ok((t.artifact, t.meta, t.sections))
}

/// The header and section table of a container, read and validated by
/// [`read_validated_table`]; the underlying file cursor is left at the
/// end of the table (the first payload byte, modulo alignment padding).
struct ValidatedTable {
    artifact: Artifact,
    meta: u16,
    sections: Vec<Section>,
    /// Declared (== actual) file length in bytes.
    declared: usize,
    /// The raw header + table bytes, `HEADER_LEN + 48 × count` long.
    head: Vec<u8>,
}

/// Reads and validates the fixed header and section table from `f`
/// (positioned at byte 0). This is the shared front half of every
/// reader — [`peek_table`], [`Columns::open`], [`read_f64_sections`] —
/// so they all enforce the same contract: magic, artifact tag, section
/// cap, declared-vs-actual length *before any payload-sized
/// allocation*, header checksum over the table, per-section shape
/// arithmetic without overflow, deterministic offsets (no overlaps, no
/// gaps beyond alignment padding), unique IDs, and no trailing bytes.
/// Section *payload* checksums are the caller's job — they are stored
/// in the returned [`Section`]s.
///
/// The magic is tested before the length, so a file in one of the
/// [`REMOVED_FORMATS`] is refused by name and remedy whatever its size;
/// only a file too short to hold a magic gets the length error.
fn read_validated_table(f: &mut File, path: &Path) -> Result<ValidatedTable, FormatError> {
    let actual = f.metadata()?.len();
    let mut header = [0u8; HEADER_LEN];
    let head_len = actual.min(HEADER_LEN as u64) as usize;
    f.read_exact(&mut header[..head_len])?;
    if head_len >= 8 && &header[..8] != MAGIC {
        let magic = &header[..8];
        if let Some((name, remedy)) = REMOVED_FORMATS.iter().find(|(m, _)| m.as_bytes() == magic) {
            return format_err(format!(
                "{} is a {name} stream, a format this build no longer reads; {remedy}",
                path.display()
            ));
        }
        return format_err("bad magic (not a PANECOL1 container)");
    }
    if actual < HEADER_LEN as u64 {
        return format_err(format!(
            "file is {actual} bytes, shorter than the {HEADER_LEN}-byte header"
        ));
    }
    let artifact_tag = u16::from_le_bytes(header[8..10].try_into().unwrap());
    let artifact = Artifact::from_tag(artifact_tag)
        .ok_or_else(|| FormatError::Format(format!("unknown artifact tag {artifact_tag}")))?;
    let meta = u16::from_le_bytes(header[10..12].try_into().unwrap());
    let count = u32::from_le_bytes(header[12..16].try_into().unwrap()) as usize;
    if count > MAX_SECTIONS {
        return format_err(format!(
            "section count {count} exceeds the {MAX_SECTIONS}-section cap"
        ));
    }
    let declared = u64::from_le_bytes(header[16..24].try_into().unwrap());
    // The allocation guard: a declared length that disagrees with the
    // file the OS sees is rejected here, before any buffer is sized
    // from it.
    if declared != actual {
        return format_err(format!(
            "declared length {declared} != actual file length {actual}"
        ));
    }
    let table_end = HEADER_LEN + TABLE_ENTRY_LEN * count;
    if (declared as usize) < table_end {
        return format_err(format!(
            "file length {declared} cannot hold a {count}-section table"
        ));
    }
    let mut head = vec![0u8; table_end];
    head[..HEADER_LEN].copy_from_slice(&header);
    f.read_exact(&mut head[HEADER_LEN..])?;
    let stored_hsum = u64::from_le_bytes(header[24..32].try_into().unwrap());
    let mut hsum = Vec::with_capacity(24 + table_end - HEADER_LEN);
    hsum.extend_from_slice(&header[..24]);
    hsum.extend_from_slice(&head[HEADER_LEN..]);
    if checksum(&hsum) != stored_hsum {
        return format_err("header checksum mismatch");
    }
    let mut sections = Vec::with_capacity(count);
    let mut cursor = table_end;
    for i in 0..count {
        let e = &head[HEADER_LEN + i * TABLE_ENTRY_LEN..HEADER_LEN + (i + 1) * TABLE_ENTRY_LEN];
        let id = u32::from_le_bytes(e[0..4].try_into().unwrap());
        let dtype_tag = u32::from_le_bytes(e[4..8].try_into().unwrap());
        let dtype = DType::from_tag(dtype_tag).ok_or_else(|| {
            FormatError::Format(format!("section {i}: unknown dtype tag {dtype_tag}"))
        })?;
        let rows = u64::from_le_bytes(e[8..16].try_into().unwrap());
        let cols = u64::from_le_bytes(e[16..24].try_into().unwrap());
        let offset = u64::from_le_bytes(e[24..32].try_into().unwrap());
        let byte_len = u64::from_le_bytes(e[32..40].try_into().unwrap());
        let sum = u64::from_le_bytes(e[40..48].try_into().unwrap());
        let expected_len = rows
            .checked_mul(cols)
            .and_then(|n| n.checked_mul(dtype.size() as u64))
            .ok_or_else(|| FormatError::Format(format!("section {i}: rows × cols overflows")))?;
        if byte_len != expected_len {
            return format_err(format!(
                "section {i} (id {id}): byte length {byte_len} != {rows} × {cols} × {} ({expected_len})",
                dtype.size()
            ));
        }
        let expected_off = align64(cursor) as u64;
        if offset != expected_off {
            return format_err(format!(
                "section {i} (id {id}): offset {offset} != expected {expected_off}"
            ));
        }
        if sections.iter().any(|s: &Section| s.id == id) {
            return format_err(format!("section id {id} repeats"));
        }
        cursor = (offset + byte_len) as usize;
        sections.push(Section {
            id,
            dtype,
            rows: rows as usize,
            cols: cols as usize,
            range: offset as usize..cursor,
            sum,
        });
    }
    if cursor as u64 != declared {
        return format_err(format!(
            "sections end at byte {cursor} but the file declares {declared} (trailing garbage?)"
        ));
    }
    Ok(ValidatedTable {
        artifact,
        meta,
        sections,
        declared: declared as usize,
        head,
    })
}

/// One `f64` section materialized into its own heap buffer by
/// [`read_f64_sections`].
#[derive(Debug)]
pub struct OwnedF64Section {
    /// Section ID (see [`section`]).
    pub id: u32,
    /// Logical row count.
    pub rows: usize,
    /// Logical column count.
    pub cols: usize,
    /// Row-major values, `rows × cols` long.
    pub values: Vec<f64>,
}

/// Streaming bulk loader for `f64` sections: validates the header and
/// table exactly like [`Columns::open`], then reads each *requested*
/// payload once, straight into the `Vec<f64>` that will be handed to
/// the caller, and verifies its checksum there. Skipping the
/// intermediate whole-file buffer (and the copy out of it) is what the
/// embedding boot path wants: it owns its matrices, so the zero-copy
/// views of [`Columns`] would only add a pass over the data.
///
/// Sections not named in `ids` are skipped unread, and their payload
/// checksums are *not* verified — callers that need every section
/// vouched for should open the full container. A requested ID that is
/// missing, or typed other than `f64`, is a format error. The returned
/// sections are in `ids` order.
pub fn read_f64_sections(
    path: &Path,
    ids: &[u32],
) -> Result<(Artifact, u16, Vec<OwnedF64Section>), FormatError> {
    use std::io::Seek;
    let mut f = File::open(path)?;
    let t = read_validated_table(&mut f, path)?;
    let mut out = Vec::with_capacity(ids.len());
    for &id in ids {
        let s = t
            .sections
            .iter()
            .find(|s| s.id == id)
            .ok_or_else(|| FormatError::Format(format!("missing section id {id}")))?;
        if s.dtype != DType::F64 {
            return format_err(format!(
                "section id {id} holds {} values, f64 requested",
                s.dtype
            ));
        }
        let mut values = vec![0.0f64; s.rows * s.cols];
        // SAFETY: a zeroed Vec<f64> is fully initialized; f64 has no
        // padding or invalid bit patterns, so writing raw bytes through
        // this view is sound, and u8 alignment is never stricter.
        let bytes = unsafe {
            std::slice::from_raw_parts_mut(values.as_mut_ptr() as *mut u8, values.len() * 8)
        };
        f.seek(std::io::SeekFrom::Start(s.range.start as u64))?;
        f.read_exact(bytes)?;
        if checksum(bytes) != s.sum {
            return format_err(format!("section id {id}: payload checksum mismatch"));
        }
        // Wire order is little-endian; the checksum above ran over the
        // wire bytes, so big-endian hosts swap afterwards.
        #[cfg(target_endian = "big")]
        for v in values.iter_mut() {
            *v = f64::from_bits(v.to_bits().swap_bytes());
        }
        out.push(OwnedF64Section {
            id,
            rows: s.rows,
            cols: s.cols,
            values,
        });
    }
    Ok((t.artifact, t.meta, out))
}

// ---------------------------------------------------------------------------
// Aligned buffer

/// A heap buffer whose start is 64-byte aligned, so any section offset
/// (itself a multiple of 64) yields correctly-aligned typed views.
struct AlignedBuf {
    ptr: std::ptr::NonNull<u8>,
    len: usize,
}

// SAFETY: the buffer is a plain owned allocation of bytes; &self access
// hands out shared slices only.
unsafe impl Send for AlignedBuf {}
unsafe impl Sync for AlignedBuf {}

impl AlignedBuf {
    fn new_zeroed(len: usize) -> Self {
        if len == 0 {
            return Self {
                ptr: std::ptr::NonNull::dangling(),
                len: 0,
            };
        }
        let layout = std::alloc::Layout::from_size_align(len, SECTION_ALIGN)
            .expect("section-aligned layout");
        // SAFETY: len > 0, layout is valid; alloc failure aborts via
        // handle_alloc_error.
        let raw = unsafe { std::alloc::alloc_zeroed(layout) };
        let Some(ptr) = std::ptr::NonNull::new(raw) else {
            std::alloc::handle_alloc_error(layout);
        };
        Self { ptr, len }
    }

    fn as_slice(&self) -> &[u8] {
        // SAFETY: ptr covers len initialized (zeroed or read-into) bytes.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    fn as_mut_slice(&mut self) -> &mut [u8] {
        // SAFETY: as above, and we hold &mut self.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl Drop for AlignedBuf {
    fn drop(&mut self) {
        if self.len > 0 {
            let layout = std::alloc::Layout::from_size_align(self.len, SECTION_ALIGN)
                .expect("section-aligned layout");
            // SAFETY: allocated in new_zeroed with this exact layout.
            unsafe { std::alloc::dealloc(self.ptr.as_ptr(), layout) };
        }
    }
}

impl fmt::Debug for AlignedBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AlignedBuf({} bytes)", self.len)
    }
}

fn align64(x: usize) -> usize {
    x.div_ceil(SECTION_ALIGN) * SECTION_ALIGN
}

// ---------------------------------------------------------------------------
// Writer

/// Borrowed column data handed to [`write_columns`]. The writer
/// serializes little-endian regardless of host order.
#[derive(Debug, Clone, Copy)]
pub enum ColumnData<'a> {
    /// 64-bit floats.
    F64(&'a [f64]),
    /// 32-bit floats.
    F32(&'a [f32]),
    /// Signed bytes.
    I8(&'a [i8]),
    /// 32-bit unsigned integers.
    U32(&'a [u32]),
    /// 64-bit unsigned integers.
    U64(&'a [u64]),
    /// Raw bytes.
    U8(&'a [u8]),
}

impl ColumnData<'_> {
    fn dtype(&self) -> DType {
        match self {
            ColumnData::F64(_) => DType::F64,
            ColumnData::F32(_) => DType::F32,
            ColumnData::I8(_) => DType::I8,
            ColumnData::U32(_) => DType::U32,
            ColumnData::U64(_) => DType::U64,
            ColumnData::U8(_) => DType::U8,
        }
    }

    fn elems(&self) -> usize {
        match self {
            ColumnData::F64(v) => v.len(),
            ColumnData::F32(v) => v.len(),
            ColumnData::I8(v) => v.len(),
            ColumnData::U32(v) => v.len(),
            ColumnData::U64(v) => v.len(),
            ColumnData::U8(v) => v.len(),
        }
    }

    /// The section's on-disk bytes. On little-endian hosts every variant
    /// is a free reinterpretation of the slice (all six element types
    /// are plain-old-data with no padding); big-endian hosts pay one
    /// converting copy.
    fn le_bytes(&self) -> Cow<'_, [u8]> {
        #[cfg(target_endian = "little")]
        {
            let (ptr, len) = match self {
                ColumnData::F64(v) => (v.as_ptr().cast::<u8>(), std::mem::size_of_val(*v)),
                ColumnData::F32(v) => (v.as_ptr().cast::<u8>(), std::mem::size_of_val(*v)),
                ColumnData::I8(v) => (v.as_ptr().cast::<u8>(), v.len()),
                ColumnData::U32(v) => (v.as_ptr().cast::<u8>(), std::mem::size_of_val(*v)),
                ColumnData::U64(v) => (v.as_ptr().cast::<u8>(), std::mem::size_of_val(*v)),
                ColumnData::U8(v) => (v.as_ptr().cast::<u8>(), v.len()),
            };
            // SAFETY: ptr/len cover the source slice exactly; every
            // element type here may be viewed as initialized bytes.
            Cow::Borrowed(unsafe { std::slice::from_raw_parts(ptr, len) })
        }
        #[cfg(target_endian = "big")]
        {
            let mut out = Vec::with_capacity(self.elems() * self.dtype().size());
            match self {
                ColumnData::F64(v) => v.iter().for_each(|x| out.extend(x.to_le_bytes())),
                ColumnData::F32(v) => v.iter().for_each(|x| out.extend(x.to_le_bytes())),
                ColumnData::I8(v) => v.iter().for_each(|x| out.extend(x.to_le_bytes())),
                ColumnData::U32(v) => v.iter().for_each(|x| out.extend(x.to_le_bytes())),
                ColumnData::U64(v) => v.iter().for_each(|x| out.extend(x.to_le_bytes())),
                ColumnData::U8(v) => out.extend_from_slice(v),
            }
            Cow::Owned(out)
        }
    }
}

/// One column declaration for [`write_columns`].
#[derive(Debug, Clone, Copy)]
pub struct ColumnSpec<'a> {
    /// Section ID (see [`section`]).
    pub id: u32,
    /// Logical row count.
    pub rows: usize,
    /// Logical column count (`rows * cols` must equal the data length).
    pub cols: usize,
    /// The column values.
    pub data: ColumnData<'a>,
}

/// Writes a `PANECOL1` container. Sections land in declaration order;
/// the caller is responsible for fsync (the store layer owns durability
/// ordering).
///
/// Fails with [`FormatError::Format`] if a spec's `rows * cols`
/// disagrees with its data length, an ID repeats, or more than
/// [`MAX_SECTIONS`] sections are declared.
pub fn write_columns(
    path: &Path,
    artifact: Artifact,
    meta: u16,
    specs: &[ColumnSpec<'_>],
) -> Result<(), FormatError> {
    if specs.len() > MAX_SECTIONS {
        return format_err(format!(
            "{} sections exceed the {MAX_SECTIONS}-section cap",
            specs.len()
        ));
    }
    for (i, s) in specs.iter().enumerate() {
        let elems = s
            .rows
            .checked_mul(s.cols)
            .ok_or_else(|| FormatError::Format("rows × cols overflows".into()))?;
        if elems != s.data.elems() {
            return format_err(format!(
                "section {} (id {}): {} × {} declared but {} values supplied",
                i,
                s.id,
                s.rows,
                s.cols,
                s.data.elems()
            ));
        }
        if specs[..i].iter().any(|p| p.id == s.id) {
            return format_err(format!("section id {} repeats", s.id));
        }
    }

    // Lay out: table end, then each section at the next 64-byte boundary.
    let table_end = HEADER_LEN + TABLE_ENTRY_LEN * specs.len();
    let mut offsets = Vec::with_capacity(specs.len());
    let mut cursor = table_end;
    for s in specs {
        let off = align64(cursor);
        offsets.push(off);
        cursor = off + s.data.elems() * s.data.dtype().size();
    }
    let declared = cursor as u64;

    // Header + table in memory (small), then checksum and splice.
    let mut head = Vec::with_capacity(table_end);
    head.extend_from_slice(MAGIC);
    head.extend_from_slice(&artifact.tag().to_le_bytes());
    head.extend_from_slice(&meta.to_le_bytes());
    head.extend_from_slice(&(specs.len() as u32).to_le_bytes());
    head.extend_from_slice(&declared.to_le_bytes());
    head.extend_from_slice(&[0u8; 8]); // header checksum placeholder
    let mut payload_sums = Vec::with_capacity(specs.len());
    for (s, &off) in specs.iter().zip(&offsets) {
        let bytes = s.data.le_bytes();
        let sum = checksum(&bytes);
        payload_sums.push(sum);
        head.extend_from_slice(&s.id.to_le_bytes());
        head.extend_from_slice(&s.data.dtype().tag().to_le_bytes());
        head.extend_from_slice(&(s.rows as u64).to_le_bytes());
        head.extend_from_slice(&(s.cols as u64).to_le_bytes());
        head.extend_from_slice(&(off as u64).to_le_bytes());
        head.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        head.extend_from_slice(&sum.to_le_bytes());
    }
    let mut hsum = Vec::with_capacity(head.len() - 8);
    hsum.extend_from_slice(&head[..24]);
    hsum.extend_from_slice(&head[HEADER_LEN..]);
    let hsum = checksum(&hsum);
    head[24..32].copy_from_slice(&hsum.to_le_bytes());

    let mut w = std::io::BufWriter::new(File::create(path)?);
    w.write_all(&head)?;
    let mut written = table_end;
    for (s, &off) in specs.iter().zip(&offsets) {
        if off > written {
            const ZEROS: [u8; SECTION_ALIGN] = [0u8; SECTION_ALIGN];
            w.write_all(&ZEROS[..off - written])?;
        }
        let bytes = s.data.le_bytes();
        w.write_all(&bytes)?;
        written = off + bytes.len();
    }
    w.flush()?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Reader

/// One validated section of an opened container.
#[derive(Debug, Clone)]
pub struct Section {
    /// Section ID (see [`section`]).
    pub id: u32,
    /// Element type.
    pub dtype: DType,
    /// Logical row count.
    pub rows: usize,
    /// Logical column count.
    pub cols: usize,
    /// Byte range inside the file buffer.
    range: std::ops::Range<usize>,
    /// Stored payload checksum from the table entry.
    sum: u64,
}

/// An opened, fully-validated `PANECOL1` container: the whole file in
/// one aligned buffer plus the parsed section table. All column
/// accessors are zero-copy views into that buffer.
#[derive(Debug)]
pub struct Columns {
    artifact: Artifact,
    meta: u16,
    buf: AlignedBuf,
    sections: Vec<Section>,
}

impl Columns {
    /// Opens and validates a container. See the module docs for the
    /// validation order; the headline property is that the declared
    /// length is checked against the OS-reported file length *before*
    /// the (single) allocation, so corrupt headers cannot drive an
    /// oversized allocation, and every section checksum is verified
    /// before any view is handed out.
    pub fn open(path: &Path) -> Result<Self, FormatError> {
        let mut f = File::open(path)?;
        // Shared front half: header + table read and fully validated
        // (declared-vs-actual length before any payload-sized
        // allocation, deterministic layout, unique IDs, no trailing
        // bytes) — see [`read_validated_table`].
        let t = read_validated_table(&mut f, path)?;
        let ValidatedTable {
            artifact,
            meta,
            sections,
            declared,
            head,
        } = t;

        // One bulk read of the payload into the aligned buffer, behind
        // the already-read header + table bytes, so section ranges
        // index the buffer exactly as they index the file.
        let mut buf = AlignedBuf::new_zeroed(declared);
        let slice = buf.as_mut_slice();
        slice[..head.len()].copy_from_slice(&head);
        f.read_exact(&mut slice[head.len()..])?;
        // Every payload checksum is verified before any view is handed
        // out; the stored sums came from the validated table entries.
        let bytes = buf.as_slice();
        for s in &sections {
            if checksum(&bytes[s.range.clone()]) != s.sum {
                return format_err(format!("section id {}: payload checksum mismatch", s.id));
            }
        }

        let mut columns = Self {
            artifact,
            meta,
            buf,
            sections,
        };
        columns.fix_endianness();
        Ok(columns)
    }

    /// Sections are little-endian on disk; big-endian hosts byte-swap
    /// each section in place (after checksum validation, which runs over
    /// the wire bytes) so the typed views stay zero-copy everywhere.
    #[cfg(target_endian = "big")]
    fn fix_endianness(&mut self) {
        let sections = self.sections.clone();
        let buf = self.buf.as_mut_slice();
        for s in &sections {
            let width = s.dtype.size();
            if width > 1 {
                for chunk in buf[s.range.clone()].chunks_exact_mut(width) {
                    chunk.reverse();
                }
            }
        }
    }

    #[cfg(target_endian = "little")]
    fn fix_endianness(&mut self) {}

    /// The artifact kind from the header.
    pub fn artifact(&self) -> Artifact {
        self.artifact
    }

    /// The owner-defined meta word from the header.
    pub fn meta(&self) -> u16 {
        self.meta
    }

    /// All sections, in file order.
    pub fn sections(&self) -> &[Section] {
        &self.sections
    }

    /// Looks up a section by ID; a missing section is a structured
    /// format error (artifacts declare fixed schemas).
    pub fn section(&self, id: u32) -> Result<&Section, FormatError> {
        self.sections
            .iter()
            .find(|s| s.id == id)
            .ok_or_else(|| FormatError::Format(format!("missing section id {id}")))
    }

    /// `(rows, cols)` of a section.
    pub fn dims(&self, id: u32) -> Result<(usize, usize), FormatError> {
        let s = self.section(id)?;
        Ok((s.rows, s.cols))
    }

    fn typed_bytes(&self, id: u32, dtype: DType) -> Result<&[u8], FormatError> {
        let s = self.section(id)?;
        if s.dtype != dtype {
            return format_err(format!(
                "section id {id} holds {} values, {dtype} requested",
                s.dtype
            ));
        }
        Ok(&self.buf.as_slice()[s.range.clone()])
    }
}

macro_rules! typed_view {
    ($name:ident, $ty:ty, $dtype:expr, $doc:literal) => {
        impl Columns {
            #[doc = $doc]
            ///
            /// Zero-copy: the returned slice borrows the file buffer
            /// (sections are 64-byte aligned, so the cast never copies).
            pub fn $name(&self, id: u32) -> Result<&[$ty], FormatError> {
                let bytes = self.typed_bytes(id, $dtype)?;
                // Alignment is guaranteed by construction; a misaligned
                // prefix would mean a bug in this crate, not bad input.
                let (prefix, values, suffix) = unsafe { bytes.align_to::<$ty>() };
                debug_assert!(prefix.is_empty() && suffix.is_empty());
                if !prefix.is_empty() || !suffix.is_empty() {
                    return format_err(format!("section id {id}: misaligned view"));
                }
                Ok(values)
            }
        }
    };
}

typed_view!(f64s, f64, DType::F64, "The section's values as `&[f64]`.");
typed_view!(f32s, f32, DType::F32, "The section's values as `&[f32]`.");
typed_view!(i8s, i8, DType::I8, "The section's values as `&[i8]`.");
typed_view!(u32s, u32, DType::U32, "The section's values as `&[u32]`.");
typed_view!(u64s, u64, DType::U64, "The section's values as `&[u64]`.");
typed_view!(u8s, u8, DType::U8, "The section's raw bytes.");

#[cfg(test)]
mod proptests;

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "pane-format-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_specs() -> (Vec<f64>, Vec<u32>, Vec<i8>) {
        let f: Vec<f64> = (0..12).map(|i| i as f64 * 0.5 - 3.0).collect();
        let u: Vec<u32> = (0..5).map(|i| i * 7 + 1).collect();
        let q: Vec<i8> = (0..6).map(|i| (i as i8) - 3).collect();
        (f, u, q)
    }

    fn write_sample(path: &Path) {
        let (f, u, q) = sample_specs();
        write_columns(
            path,
            Artifact::Index,
            0x0203,
            &[
                ColumnSpec {
                    id: section::INDEX_VECTORS,
                    rows: 3,
                    cols: 4,
                    data: ColumnData::F64(&f),
                },
                ColumnSpec {
                    id: section::IVF_SIZES,
                    rows: 5,
                    cols: 1,
                    data: ColumnData::U32(&u),
                },
                ColumnSpec {
                    id: section::SQ_CODES,
                    rows: 2,
                    cols: 3,
                    data: ColumnData::I8(&q),
                },
            ],
        )
        .unwrap();
    }

    #[test]
    fn roundtrip_preserves_every_column() {
        let p = tmpdir().join("roundtrip.col");
        write_sample(&p);
        let (f, u, q) = sample_specs();
        let c = Columns::open(&p).unwrap();
        assert_eq!(c.artifact(), Artifact::Index);
        assert_eq!(c.meta(), 0x0203);
        assert_eq!(c.dims(section::INDEX_VECTORS).unwrap(), (3, 4));
        assert_eq!(c.f64s(section::INDEX_VECTORS).unwrap(), &f[..]);
        assert_eq!(c.u32s(section::IVF_SIZES).unwrap(), &u[..]);
        assert_eq!(c.i8s(section::SQ_CODES).unwrap(), &q[..]);
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn views_are_section_aligned() {
        let p = tmpdir().join("aligned.col");
        write_sample(&p);
        let c = Columns::open(&p).unwrap();
        let v = c.f64s(section::INDEX_VECTORS).unwrap();
        assert_eq!(v.as_ptr() as usize % SECTION_ALIGN, 0);
        for s in c.sections() {
            assert_eq!(s.range.start % SECTION_ALIGN, 0, "section {}", s.id);
        }
        std::fs::remove_file(&p).unwrap();
    }

    /// Pins the exact on-disk bytes of the fixed header (and the first
    /// table entry) for a tiny reference container, so the format cannot
    /// drift silently. If this test ever fails, you are changing the
    /// wire format: bump the magic instead.
    #[test]
    fn golden_header_byte_layout() {
        let p = tmpdir().join("golden.col");
        let values = [1.0f64, -2.5f64];
        write_columns(
            &p,
            Artifact::Embedding,
            7,
            &[ColumnSpec {
                id: section::EMB_FORWARD,
                rows: 1,
                cols: 2,
                data: ColumnData::F64(&values),
            }],
        )
        .unwrap();
        let bytes = std::fs::read(&p).unwrap();
        // Layout: 32-byte header + one 48-byte entry = 80; first section
        // starts at the next 64-byte boundary (128); 16 value bytes end
        // the file at 144.
        assert_eq!(bytes.len(), 144);
        assert_eq!(&bytes[0..8], b"PANECOL1");
        assert_eq!(&bytes[8..10], &1u16.to_le_bytes()); // artifact: embedding
        assert_eq!(&bytes[10..12], &7u16.to_le_bytes()); // meta
        assert_eq!(&bytes[12..16], &1u32.to_le_bytes()); // section count
        assert_eq!(&bytes[16..24], &144u64.to_le_bytes()); // declared length
                                                           // bytes 24..32 are the header checksum — value checked below.
        assert_eq!(&bytes[32..36], &section::EMB_FORWARD.to_le_bytes());
        assert_eq!(&bytes[36..40], &DType::F64.tag().to_le_bytes());
        assert_eq!(&bytes[40..48], &1u64.to_le_bytes()); // rows
        assert_eq!(&bytes[48..56], &2u64.to_le_bytes()); // cols
        assert_eq!(&bytes[56..64], &128u64.to_le_bytes()); // offset
        assert_eq!(&bytes[64..72], &16u64.to_le_bytes()); // byte length
        assert_eq!(
            &bytes[72..80],
            &checksum(&bytes[128..144]).to_le_bytes(),
            "section checksum"
        );
        assert_eq!(&bytes[80..128], &[0u8; 48][..], "padding must be zero");
        assert_eq!(&bytes[128..136], &1.0f64.to_le_bytes());
        assert_eq!(&bytes[136..144], &(-2.5f64).to_le_bytes());
        let mut hsum = Vec::new();
        hsum.extend_from_slice(&bytes[..24]);
        hsum.extend_from_slice(&bytes[32..80]);
        assert_eq!(&bytes[24..32], &checksum(&hsum).to_le_bytes());
        // And the checksum function itself is pinned against an inline
        // mirror of its definition: four FNV-1a 64 lanes over
        // interleaved LE words, folded into one hash, tail words
        // absorbed serially.
        let (off, pr) = (0xcbf2_9ce4_8422_2325u64, 0x0000_0100_0000_01b3u64);
        let fold = |lanes: [u64; 4]| lanes.iter().fold(off, |h, &l| (h ^ l).wrapping_mul(pr));
        let empty = fold([off, off ^ 1, off ^ 2, off ^ 3]);
        assert_eq!(checksum(b""), empty);
        // A sub-block input never touches the lanes: it is absorbed
        // word-serially after the fold of the untouched seeds.
        assert_eq!(checksum(b"PANECOL1"), {
            let w = u64::from_le_bytes(*b"PANECOL1");
            (empty ^ w).wrapping_mul(pr)
        });
        // One full 32-byte block: word i goes to lane i.
        let mut block = [0u8; 32];
        for (i, c) in block.chunks_exact_mut(8).enumerate() {
            c.copy_from_slice(&(i as u64 + 1).to_le_bytes());
        }
        let mut lanes = [off, off ^ 1, off ^ 2, off ^ 3];
        for (i, l) in lanes.iter_mut().enumerate() {
            *l = (*l ^ (i as u64 + 1)).wrapping_mul(pr);
        }
        assert_eq!(checksum(&block), fold(lanes));
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn streaming_reader_loads_requested_sections_only() {
        let p = tmpdir().join("stream.col");
        write_sample(&p);
        let (f, _, _) = sample_specs();
        let (artifact, meta, got) = read_f64_sections(&p, &[section::INDEX_VECTORS]).unwrap();
        assert_eq!(artifact, Artifact::Index);
        assert_eq!(meta, 0x0203);
        assert_eq!(got.len(), 1);
        assert_eq!((got[0].rows, got[0].cols), (3, 4));
        assert_eq!(got[0].values, f);
        // Missing and wrongly-typed requests are structured errors.
        assert!(matches!(
            read_f64_sections(&p, &[section::EMB_FORWARD]),
            Err(FormatError::Format(_))
        ));
        assert!(matches!(
            read_f64_sections(&p, &[section::IVF_SIZES]),
            Err(FormatError::Format(_))
        ));
        // Corrupting an *unrequested* payload is invisible (it is never
        // read), but corrupting the requested one trips its checksum.
        let clean = std::fs::read(&p).unwrap();
        let c = Columns::open(&p).unwrap();
        let codes = c.section(section::SQ_CODES).unwrap().range.clone();
        let vectors = c.section(section::INDEX_VECTORS).unwrap().range.clone();
        drop(c);
        let mut bytes = clean.clone();
        bytes[codes.start] ^= 0xFF;
        std::fs::write(&p, &bytes).unwrap();
        assert!(read_f64_sections(&p, &[section::INDEX_VECTORS]).is_ok());
        let mut bytes = clean.clone();
        bytes[vectors.start] ^= 0xFF;
        std::fs::write(&p, &bytes).unwrap();
        assert!(matches!(
            read_f64_sections(&p, &[section::INDEX_VECTORS]),
            Err(FormatError::Format(_))
        ));
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn peek_table_reports_shapes_without_payload_reads() {
        let p = tmpdir().join("peek.col");
        let f: Vec<f64> = (0..12).map(|i| i as f64).collect();
        write_columns(
            &p,
            Artifact::Embedding,
            7,
            &[ColumnSpec {
                id: section::EMB_FORWARD,
                rows: 3,
                cols: 4,
                data: ColumnData::F64(&f),
            }],
        )
        .unwrap();
        let (artifact, meta, sections) = peek_table(&p).unwrap();
        assert_eq!(artifact, Artifact::Embedding);
        assert_eq!(meta, 7);
        assert_eq!(sections.len(), 1);
        assert_eq!(
            (sections[0].id, sections[0].rows, sections[0].cols),
            (section::EMB_FORWARD, 3, 4)
        );
        // Corrupting a payload byte is invisible to the peek (it reads no
        // payload) but a header/table flip is caught by the checksum.
        let mut bytes = std::fs::read(&p).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&p, &bytes).unwrap();
        assert!(peek_table(&p).is_ok());
        assert!(matches!(Columns::open(&p), Err(FormatError::Format(_))));
        bytes[last] ^= 0xFF;
        bytes[12] ^= 0x01; // section count byte
        std::fs::write(&p, &bytes).unwrap();
        assert!(matches!(peek_table(&p), Err(FormatError::Format(_))));
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn zero_section_container_roundtrips() {
        let p = tmpdir().join("empty.col");
        write_columns(&p, Artifact::Embedding, 0, &[]).unwrap();
        let c = Columns::open(&p).unwrap();
        assert!(c.sections().is_empty());
        assert!(matches!(
            c.section(section::EMB_FORWARD),
            Err(FormatError::Format(_))
        ));
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn wrong_dtype_request_is_a_structured_error() {
        let p = tmpdir().join("dtype.col");
        write_sample(&p);
        let c = Columns::open(&p).unwrap();
        assert!(matches!(
            c.f64s(section::IVF_SIZES),
            Err(FormatError::Format(_))
        ));
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn duplicate_ids_rejected_at_write_time() {
        let p = tmpdir().join("dup.col");
        let v = [1.0f64];
        let spec = ColumnSpec {
            id: 4,
            rows: 1,
            cols: 1,
            data: ColumnData::F64(&v),
        };
        assert!(matches!(
            write_columns(&p, Artifact::Index, 0, &[spec, spec]),
            Err(FormatError::Format(_))
        ));
    }

    #[test]
    fn shape_mismatch_rejected_at_write_time() {
        let p = tmpdir().join("shape.col");
        let v = [1.0f64, 2.0];
        assert!(matches!(
            write_columns(
                &p,
                Artifact::Index,
                0,
                &[ColumnSpec {
                    id: 1,
                    rows: 3,
                    cols: 1,
                    data: ColumnData::F64(&v),
                }]
            ),
            Err(FormatError::Format(_))
        ));
    }

    /// The two pre-columnar stream magics are named, with a remedy, by
    /// every reader, whether the file is a full-size stream or a 12-byte
    /// stub shorter than a header; a file too short for any magic keeps
    /// its length error.
    #[test]
    fn removed_stream_formats_are_rejected_by_name() {
        let dir = tmpdir();
        let full: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        for (magic, remedy) in [
            (b"PANEEMB1", "pane embed"),
            (b"PANEIDX1", "pane index build"),
        ] {
            for tail in [&b"junk"[..], &full[..]] {
                let p = dir.join("removed.bin");
                std::fs::write(&p, [&magic[..], tail].concat()).unwrap();
                let errors = [
                    peek_table(&p).err(),
                    Columns::open(&p).err(),
                    read_f64_sections(&p, &[section::EMB_FORWARD]).err(),
                ];
                for e in errors {
                    match e {
                        Some(FormatError::Format(m)) => assert!(
                            m.contains(std::str::from_utf8(magic).unwrap()) && m.contains(remedy),
                            "{m}"
                        ),
                        other => panic!("expected the named error, got {other:?}"),
                    }
                }
                std::fs::remove_file(p).unwrap();
            }
        }
        let short = dir.join("removed.short");
        std::fs::write(&short, b"PANE").unwrap();
        match Columns::open(&short) {
            Err(FormatError::Format(m)) => assert!(m.contains("shorter than"), "{m}"),
            other => panic!("expected the length error, got {other:?}"),
        }
        std::fs::remove_file(short).unwrap();
    }
}
