//! `PANECOL1` — the one column-oriented artifact container every
//! artifact (embedding columns, index payloads, graphs) is stored in.
//!
//! The pre-columnar stream formats of embeddings, indexes and graphs
//! were decoded value by value through a `BufReader`, so load cost
//! scaled with a per-value decode loop. Their readers are gone; every
//! reader here refuses those magics (`REMOVED_FORMATS`) by name, with
//! the remedy, before anything else about the file is read.
//! `PANECOL1` replaces them with a sectioned, 64-byte-aligned,
//! per-section-checksummed layout. [`Columns::open`] is its one full
//! reader: it reads each section once, straight into the `Vec` of the
//! section's element type that will own the values, and verifies the
//! section's checksum there. Loaders [`Columns::take`] those vectors by
//! value and move them into their structures — no per-value decode, and
//! no second copy of the file. [`peek_table`] is the table-only read for
//! status tools.
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
//! oversized allocation, because every section must then fit inside a
//! length the OS confirms. Only then are the header checksum and the
//! table layout verified, and each section read into its vector and its
//! checksum verified — every section, taken or not, before `open`
//! returns. Every failure is a structured [`FormatError`]; no input byte
//! pattern panics.
//!
//! # Section ID registry
//!
//! Section IDs are global across artifact kinds (see [`section`]):
//! `1..10` embeddings, `10..30` indexes, `30..40` reserved for future
//! product-quantization codebooks (so the container never needs a
//! version bump for PQ), `40..` graphs.

#![deny(missing_docs)]
#![forbid(unsafe_op_in_unsafe_fn)]

use std::any::Any;
use std::borrow::Cow;
use std::fmt;
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

/// The 8-byte container magic.
pub const MAGIC: &[u8; 8] = b"PANECOL1";

/// Magics of the pre-columnar stream formats, each with the way to get
/// a `PANECOL1` file instead. Every reader refuses them by name.
const REMOVED_FORMATS: [(&str, &str); 3] = [
    (
        "PANEEMB1",
        "re-run `pane embed` to write a PANECOL1 embedding (a store holding one: run \
         `pane store snapshot` on it with a build from before PANEEMB1 was removed)",
    ),
    (
        "PANEIDX1",
        "index files are derived data — rebuild them with `pane store init` from the \
         embedding (for an existing store directory, run `pane store snapshot`)",
    ),
    ("PANEGRF1", "re-run `pane convert` from the text graph"),
];

/// Size of the fixed header that precedes the section table.
pub const HEADER_LEN: usize = 32;

/// Size of one section-table entry.
pub const TABLE_ENTRY_LEN: usize = 48;

/// Every section starts on a multiple of this (cache-line friendly).
pub const SECTION_ALIGN: usize = 64;

/// Hard ceiling on the section count — far above any real artifact
/// (embeddings use 3 sections, the largest index 5, a graph 9), purely a guard
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
    /// Graph: scalar parameters (`2 × 1`, u64: d, num_labels).
    pub const GRAPH_META: u32 = 40;
    /// Graph: adjacency CSR row pointers (`n + 1 × 1`, u64).
    pub const GRAPH_ADJ_INDPTR: u32 = 41;
    /// Graph: adjacency CSR column ids (`m × 1`, u32).
    pub const GRAPH_ADJ_INDICES: u32 = 42;
    /// Graph: adjacency CSR edge weights (`m × 1`, f64).
    pub const GRAPH_ADJ_VALUES: u32 = 43;
    /// Graph: attribute CSR row pointers (`n + 1 × 1`, u64).
    pub const GRAPH_ATTR_INDPTR: u32 = 44;
    /// Graph: attribute CSR attribute ids (`|E_R| × 1`, u32).
    pub const GRAPH_ATTR_INDICES: u32 = 45;
    /// Graph: attribute CSR weights (`|E_R| × 1`, f64).
    pub const GRAPH_ATTR_VALUES: u32 = 46;
    /// Graph: per-node label offsets (`n + 1 × 1`, u64), indexing
    /// [`GRAPH_LABEL_IDS`].
    pub const GRAPH_LABEL_OFFSETS: u32 = 47;
    /// Graph: concatenated label ids (`total × 1`, u32).
    pub const GRAPH_LABEL_IDS: u32 = 48;
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
    /// An attributed graph (CSR adjacency and attributes, labels; `meta`
    /// bit 0 = undirected).
    Graph,
}

impl Artifact {
    /// Stable wire tag.
    pub fn tag(self) -> u16 {
        match self {
            Artifact::Embedding => 1,
            Artifact::Index => 2,
            Artifact::Graph => 3,
        }
    }

    /// Inverse of [`Self::tag`].
    pub fn from_tag(tag: u16) -> Option<Self> {
        match tag {
            1 => Some(Artifact::Embedding),
            2 => Some(Artifact::Index),
            3 => Some(Artifact::Graph),
            _ => None,
        }
    }
}

/// Element type of a section. Tags are wire-stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DType {
    /// 64-bit IEEE float.
    F64,
    /// Signed 8-bit integer (scalar-quantized codes).
    I8,
    /// Unsigned 32-bit integer (ids, levels, sizes).
    U32,
    /// Unsigned 64-bit integer (offsets, scalar parameter blocks).
    U64,
}

impl DType {
    /// Stable wire tag.
    pub fn tag(self) -> u32 {
        match self {
            DType::F64 => 1,
            DType::I8 => 3,
            DType::U32 => 4,
            DType::U64 => 5,
        }
    }

    /// Inverse of [`Self::tag`].
    pub fn from_tag(tag: u32) -> Option<Self> {
        match tag {
            1 => Some(DType::F64),
            3 => Some(DType::I8),
            4 => Some(DType::U32),
            5 => Some(DType::U64),
            _ => None,
        }
    }

    /// Bytes per element.
    pub fn size(self) -> usize {
        match self {
            DType::F64 | DType::U64 => 8,
            DType::U32 => 4,
            DType::I8 => 1,
        }
    }
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            DType::F64 => "f64",
            DType::I8 => "i8",
            DType::U32 => "u32",
            DType::U64 => "u64",
        };
        f.write_str(name)
    }
}

mod sealed {
    pub trait Sealed {}
}

/// A Rust type a section's values are held in. Each is plain old data —
/// no padding, every bit pattern a value — so a slice of them is read
/// and written through its bytes; the trait is sealed because those
/// byte views rely on it.
pub trait Element: Copy + Default + Send + 'static + sealed::Sealed {
    /// The section dtype whose values this type holds.
    const DTYPE: DType;
}

macro_rules! element {
    ($($t:ty => $dtype:ident),*) => {$(
        impl sealed::Sealed for $t {}
        impl Element for $t {
            const DTYPE: DType = DType::$dtype;
        }
    )*};
}

element!(f64 => F64, i8 => I8, u32 => U32, u64 => U64);

/// A slice of elements as its host-order bytes.
fn bytes_of<T: Element>(values: &[T]) -> &[u8] {
    // SAFETY: `Element` types are plain old data without padding, so
    // every byte is initialized, and `u8` has no alignment requirement.
    unsafe { std::slice::from_raw_parts(values.as_ptr().cast(), std::mem::size_of_val(values)) }
}

/// A mutable slice of elements as its bytes.
fn bytes_of_mut<T: Element>(values: &mut [T]) -> &mut [u8] {
    // SAFETY: as for `bytes_of`; and every bit pattern is a valid
    // `Element`, so whatever is written through the view is a value.
    unsafe {
        std::slice::from_raw_parts_mut(values.as_mut_ptr().cast(), std::mem::size_of_val(values))
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
    read_validated_table(&mut File::open(path)?, path)
}

/// Reads and validates the fixed header and section table from `f`
/// (positioned at byte 0). This is the shared front half of both
/// readers — [`peek_table`] and [`Columns::open`] — so they enforce the
/// same contract: magic, artifact tag, section cap, declared-vs-actual
/// length *before any payload-sized allocation*, header checksum over
/// the table, per-section shape arithmetic without overflow,
/// deterministic offsets (no overlaps, no gaps beyond alignment
/// padding), unique IDs, and no trailing bytes. Section *payload*
/// checksums are the caller's job — they are stored in the returned
/// [`Section`]s. The file is left positioned at the end of the table.
///
/// The magic is tested before the length, so a file in one of the
/// [`REMOVED_FORMATS`] is refused by name and remedy whatever its size;
/// only a file too short to hold a magic gets the length error.
fn read_validated_table(
    f: &mut File,
    path: &Path,
) -> Result<(Artifact, u16, Vec<Section>), FormatError> {
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
    let mut table = vec![0u8; table_end - HEADER_LEN];
    f.read_exact(&mut table)?;
    let stored_hsum = u64::from_le_bytes(header[24..32].try_into().unwrap());
    if checksum(&[&header[..24], &table[..]].concat()) != stored_hsum {
        return format_err("header checksum mismatch");
    }
    let mut sections = Vec::with_capacity(count);
    let mut cursor = table_end;
    for (i, e) in table.chunks_exact(TABLE_ENTRY_LEN).enumerate() {
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
            offset,
            sum,
        });
    }
    if cursor as u64 != declared {
        return format_err(format!(
            "sections end at byte {cursor} but the file declares {declared} (trailing garbage?)"
        ));
    }
    Ok((artifact, meta, sections))
}

fn align64(x: usize) -> usize {
    x.div_ceil(SECTION_ALIGN) * SECTION_ALIGN
}

/// Converts `width`-byte elements between little-endian wire order and
/// host order, in place — a no-op on little-endian hosts.
fn swap_wire_order(bytes: &mut [u8], width: usize) {
    if cfg!(target_endian = "big") {
        bytes.chunks_exact_mut(width).for_each(<[u8]>::reverse);
    }
}

// ---------------------------------------------------------------------------
// Writer

/// Borrowed column data handed to [`write_columns`]. The writer
/// serializes little-endian regardless of host order.
#[derive(Debug, Clone, Copy)]
pub enum ColumnData<'a> {
    /// 64-bit floats.
    F64(&'a [f64]),
    /// Signed bytes.
    I8(&'a [i8]),
    /// 32-bit unsigned integers.
    U32(&'a [u32]),
    /// 64-bit unsigned integers.
    U64(&'a [u64]),
}

impl<'a> ColumnData<'a> {
    /// The dtype and the wire (little-endian) bytes of the values:
    /// borrowed on little-endian hosts, one swapped copy on big-endian
    /// ones.
    fn wire(self) -> (DType, Cow<'a, [u8]>) {
        let (dtype, bytes) = match self {
            ColumnData::F64(v) => (DType::F64, bytes_of(v)),
            ColumnData::I8(v) => (DType::I8, bytes_of(v)),
            ColumnData::U32(v) => (DType::U32, bytes_of(v)),
            ColumnData::U64(v) => (DType::U64, bytes_of(v)),
        };
        if cfg!(target_endian = "little") {
            return (dtype, Cow::Borrowed(bytes));
        }
        let mut owned = bytes.to_vec();
        swap_wire_order(&mut owned, dtype.size());
        (dtype, Cow::Owned(owned))
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
/// Fails with [`FormatError::Format`], before the file is created, if a
/// spec's `rows * cols` disagrees with its data length, an ID repeats,
/// or more than [`MAX_SECTIONS`] sections are declared.
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
    // Lay out the table and the payloads: each section at the next
    // 64-byte boundary after the previous one (the first after the table).
    let table_end = HEADER_LEN + TABLE_ENTRY_LEN * specs.len();
    let mut table = Vec::with_capacity(table_end - HEADER_LEN);
    let mut payloads = Vec::with_capacity(specs.len());
    let mut cursor = table_end;
    for (i, s) in specs.iter().enumerate() {
        let (dtype, bytes) = s.data.wire();
        let elems = bytes.len() / dtype.size();
        if s.rows.checked_mul(s.cols) != Some(elems) {
            return format_err(format!(
                "section {i} (id {}): {} × {} declared but {elems} values supplied",
                s.id, s.rows, s.cols
            ));
        }
        if specs[..i].iter().any(|p| p.id == s.id) {
            return format_err(format!("section id {} repeats", s.id));
        }
        let offset = align64(cursor);
        table.extend_from_slice(&s.id.to_le_bytes());
        table.extend_from_slice(&dtype.tag().to_le_bytes());
        for word in [
            s.rows as u64,
            s.cols as u64,
            offset as u64,
            bytes.len() as u64,
        ] {
            table.extend_from_slice(&word.to_le_bytes());
        }
        table.extend_from_slice(&checksum(&bytes).to_le_bytes());
        cursor = offset + bytes.len();
        payloads.push((offset, bytes));
    }

    // The fixed header; its checksum covers bytes 0..24 and the table.
    let mut head = Vec::with_capacity(table_end);
    head.extend_from_slice(MAGIC);
    head.extend_from_slice(&artifact.tag().to_le_bytes());
    head.extend_from_slice(&meta.to_le_bytes());
    head.extend_from_slice(&(specs.len() as u32).to_le_bytes());
    head.extend_from_slice(&(cursor as u64).to_le_bytes());
    let hsum = checksum(&[&head[..], &table[..]].concat());
    head.extend_from_slice(&hsum.to_le_bytes());
    head.extend_from_slice(&table);

    let mut w = std::io::BufWriter::new(File::create(path)?);
    w.write_all(&head)?;
    let mut written = table_end;
    for (offset, bytes) in &payloads {
        w.write_all(&[0u8; SECTION_ALIGN][..offset - written])?;
        w.write_all(bytes)?;
        written = offset + bytes.len();
    }
    w.flush()?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Reader

/// One validated entry of a container's section table.
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
    /// Byte offset of the payload inside the file.
    offset: u64,
    /// Stored payload checksum from the table entry.
    sum: u64,
}

/// An opened, fully validated `PANECOL1` container: the parsed section
/// table and every section's values, each read once into the vector
/// that owns it. Loaders [`take`](Self::take) the vectors by value.
#[derive(Debug)]
pub struct Columns {
    artifact: Artifact,
    meta: u16,
    sections: Vec<Section>,
    /// Section `i`'s values — a `Vec` of its dtype's [`Element`] — until
    /// taken.
    values: Vec<Option<Box<dyn Any + Send>>>,
}

impl Columns {
    /// Opens and validates a container. See the module docs for the
    /// validation order; the headline property is that the declared
    /// length is checked against the OS-reported file length *before*
    /// any allocation, so corrupt headers cannot drive an oversized
    /// allocation, and every section's checksum is verified before
    /// `open` returns — sections no loader takes included.
    pub fn open(path: &Path) -> Result<Self, FormatError> {
        let mut f = File::open(path)?;
        let (artifact, meta, sections) = read_validated_table(&mut f, path)?;
        let values = sections
            .iter()
            .map(|s| match s.dtype {
                DType::F64 => read_section::<f64>(&mut f, s),
                DType::I8 => read_section::<i8>(&mut f, s),
                DType::U32 => read_section::<u32>(&mut f, s),
                DType::U64 => read_section::<u64>(&mut f, s),
            })
            .collect::<Result<_, _>>()?;
        Ok(Self {
            artifact,
            meta,
            sections,
            values,
        })
    }

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

    /// Index of section `id`; a missing section is a structured format
    /// error (artifacts declare fixed schemas).
    fn position(&self, id: u32) -> Result<usize, FormatError> {
        self.sections
            .iter()
            .position(|s| s.id == id)
            .ok_or_else(|| FormatError::Format(format!("missing section id {id}")))
    }

    /// `(rows, cols)` of a section.
    pub fn dims(&self, id: u32) -> Result<(usize, usize), FormatError> {
        let s = &self.sections[self.position(id)?];
        Ok((s.rows, s.cols))
    }

    /// Hands out a section's values by value, `rows × cols` row-major,
    /// for the caller to move into its structure. A missing section, a
    /// dtype other than `T`'s, or a second take of one section is a
    /// format error.
    pub fn take<T: Element>(&mut self, id: u32) -> Result<Vec<T>, FormatError> {
        let i = self.position(id)?;
        let dtype = self.sections[i].dtype;
        if dtype != T::DTYPE {
            return format_err(format!(
                "section id {id} holds {dtype} values, {} requested",
                T::DTYPE
            ));
        }
        match self.values[i].take().map(|v| v.downcast::<Vec<T>>()) {
            Some(Ok(values)) => Ok(*values),
            _ => format_err(format!("section id {id} was already taken")),
        }
    }
}

/// Reads one section's payload straight into the `Vec<T>` that will own
/// it, verifies its checksum over the wire bytes, then puts the values
/// in host order.
fn read_section<T: Element>(
    f: &mut File,
    s: &Section,
) -> Result<Option<Box<dyn Any + Send>>, FormatError> {
    let mut values = vec![T::default(); s.rows * s.cols];
    let bytes = bytes_of_mut(&mut values);
    f.seek(SeekFrom::Start(s.offset))?;
    f.read_exact(bytes)?;
    if checksum(bytes) != s.sum {
        return format_err(format!("section id {}: payload checksum mismatch", s.id));
    }
    swap_wire_order(bytes, T::DTYPE.size());
    Ok(Some(Box::new(values)))
}

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
        let mut c = Columns::open(&p).unwrap();
        assert_eq!(c.artifact(), Artifact::Index);
        assert_eq!(c.meta(), 0x0203);
        assert_eq!(c.dims(section::INDEX_VECTORS).unwrap(), (3, 4));
        assert_eq!(c.take::<f64>(section::INDEX_VECTORS).unwrap(), f);
        assert_eq!(c.take::<u32>(section::IVF_SIZES).unwrap(), u);
        assert_eq!(c.take::<i8>(section::SQ_CODES).unwrap(), q);
        // A section is handed out once; its table entry stays.
        assert!(matches!(
            c.take::<f64>(section::INDEX_VECTORS),
            Err(FormatError::Format(m)) if m.contains("already taken")
        ));
        assert_eq!(c.dims(section::INDEX_VECTORS).unwrap(), (3, 4));
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
            c.dims(section::EMB_FORWARD),
            Err(FormatError::Format(_))
        ));
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn wrong_dtype_request_is_a_structured_error() {
        let p = tmpdir().join("dtype.col");
        write_sample(&p);
        let mut c = Columns::open(&p).unwrap();
        assert!(matches!(
            c.take::<f64>(section::IVF_SIZES),
            Err(FormatError::Format(_))
        ));
        // The refused request leaves the section to a request of its type.
        assert!(c.take::<u32>(section::IVF_SIZES).is_ok());
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

    /// The pre-columnar stream magics are named, with a remedy, by
    /// both readers, whether the file is a full-size stream or a 12-byte
    /// stub shorter than a header; a file too short for any magic keeps
    /// its length error.
    #[test]
    fn removed_stream_formats_are_rejected_by_name() {
        let dir = tmpdir();
        let full: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        for (magic, remedy) in [
            (b"PANEEMB1", "pane embed"),
            (b"PANEIDX1", "pane store init"),
            (b"PANEGRF1", "pane convert"),
        ] {
            for tail in [&b"junk"[..], &full[..]] {
                let p = dir.join("removed.bin");
                std::fs::write(&p, [&magic[..], tail].concat()).unwrap();
                let errors = [peek_table(&p).err(), Columns::open(&p).err()];
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
