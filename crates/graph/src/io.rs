//! Plain-text loaders and writers for attributed graphs.
//!
//! The formats mirror what the paper's datasets ship as:
//!
//! * **edge list** — one `src dst` pair per line (whitespace separated);
//! * **attribute triples** — one `node attr weight` per line (weight
//!   optional, default 1.0) — the `E_R` tuples of §2.1;
//! * **labels** — one `node label [label ...]` per line (multi-label).
//!
//! Lines starting with `#` or `%` are comments.
//!
//! All loaders **stream**: [`load_graph`] parses each file line-by-line
//! directly into a chunked [`pane_sparse::CsrBuilder`], so peak memory is
//! the output CSR plus one bounded chunk — never a `Vec` of all parsed
//! records (these files reach hundreds of millions of lines for MAG-scale
//! data). The `for_each_*` functions expose the same streaming parse to
//! callers; the `parse_*` functions are thin collecting wrappers for
//! small inputs.
//!
//! Untrusted input never panics: malformed lines, out-of-range ids (when
//! explicit dimensions are given) and invalid weights all surface as
//! structured [`IoError`]s naming the offending line.
//!
//! The binary form is a `PANECOL1` graph container (`pane-format`), for
//! loading without parsing: [`save_graph_columns`] writes the CSR arrays
//! and labels as checksummed sections, and [`load_graph_columns`] moves
//! them into the graph after the checks the container cannot make.

use crate::graph::AttributedGraph;
use pane_format::{section, Artifact, ColumnData, ColumnSpec, Columns, FormatError};
use pane_sparse::{CsrBuilder, CsrMatrix, MergeRule};
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// Errors raised by the loaders.
#[derive(Debug)]
pub enum IoError {
    /// Underlying file error.
    Io(io::Error),
    /// Malformed line, with file kind, line number and message.
    Parse {
        /// Which loader raised the error ("edge", "attribute", "label", …).
        kind: &'static str,
        /// 1-based line number (0 when no line applies).
        line: usize,
        /// Human-readable description.
        message: String,
    },
    /// A well-formed record referenced an id outside the declared
    /// dimensions (explicit `num_nodes` / `num_attributes`).
    IdOutOfRange {
        /// What the id names ("edge source", "attribute", "label node", …).
        kind: &'static str,
        /// 1-based line number.
        line: usize,
        /// The offending id.
        id: usize,
        /// The exclusive bound it violated.
        bound: usize,
    },
    /// A graph container is unreadable or holds an inconsistent graph.
    Format(String),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "I/O error: {e}"),
            IoError::Parse {
                kind,
                line,
                message,
            } => {
                write!(f, "parse error in {kind} file, line {line}: {message}")
            }
            IoError::IdOutOfRange {
                kind,
                line,
                id,
                bound,
            } => write!(
                f,
                "{kind} id {id} out of range (must be < {bound}), line {line}"
            ),
            IoError::Format(m) => write!(f, "format error: {m}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

impl From<FormatError> for IoError {
    fn from(e: FormatError) -> Self {
        match e {
            FormatError::Io(e) => IoError::Io(e),
            FormatError::Format(m) => IoError::Format(m),
        }
    }
}

fn is_comment(line: &str) -> bool {
    let t = line.trim_start();
    t.is_empty() || t.starts_with('#') || t.starts_with('%')
}

/// Streams records from `reader` line-by-line (one reused buffer, no
/// per-line allocation), skipping comments, calling `f(lineno, line)`.
fn for_each_record<R: BufRead>(
    mut reader: R,
    mut f: impl FnMut(usize, &str) -> Result<(), IoError>,
) -> Result<(), IoError> {
    let mut buf = String::new();
    let mut lineno = 0usize;
    loop {
        buf.clear();
        if reader.read_line(&mut buf)? == 0 {
            return Ok(());
        }
        lineno += 1;
        if !is_comment(&buf) {
            f(lineno, buf.trim_end_matches(['\n', '\r']))?;
        }
    }
}

/// Streams `(line, src, dst)` for every edge record, without materializing
/// the edge list.
pub fn for_each_edge<R: BufRead>(
    reader: R,
    mut f: impl FnMut(usize, usize, usize) -> Result<(), IoError>,
) -> Result<(), IoError> {
    for_each_record(reader, |lineno, line| {
        let mut it = line.split_whitespace();
        let parse = |tok: Option<&str>, what: &str| -> Result<usize, IoError> {
            tok.ok_or_else(|| IoError::Parse {
                kind: "edge",
                line: lineno,
                message: format!("missing {what}"),
            })?
            .parse()
            .map_err(|e| IoError::Parse {
                kind: "edge",
                line: lineno,
                message: format!("bad {what}: {e}"),
            })
        };
        let s = parse(it.next(), "source")?;
        let t = parse(it.next(), "target")?;
        f(lineno, s, t)
    })
}

/// Streams `(line, node, attr, weight)` for every attribute record.
pub fn for_each_attribute<R: BufRead>(
    reader: R,
    mut f: impl FnMut(usize, usize, usize, f64) -> Result<(), IoError>,
) -> Result<(), IoError> {
    for_each_record(reader, |lineno, line| {
        let toks: Vec<&str> = line.split_whitespace().collect();
        if toks.len() < 2 || toks.len() > 3 {
            return Err(IoError::Parse {
                kind: "attribute",
                line: lineno,
                message: format!("expected 'node attr [weight]', got {} tokens", toks.len()),
            });
        }
        let parse_idx = |tok: &str, what: &str| -> Result<usize, IoError> {
            tok.parse().map_err(|e| IoError::Parse {
                kind: "attribute",
                line: lineno,
                message: format!("bad {what}: {e}"),
            })
        };
        let v = parse_idx(toks[0], "node")?;
        let r = parse_idx(toks[1], "attribute")?;
        let w = if toks.len() == 3 {
            toks[2].parse().map_err(|e| IoError::Parse {
                kind: "attribute",
                line: lineno,
                message: format!("bad weight: {e}"),
            })?
        } else {
            1.0
        };
        f(lineno, v, r, w)
    })
}

/// Streams `(line, node, labels)` for every label record. The label slice
/// is a buffer reused across lines — copy it if you need to keep it.
/// Lines with a node but no labels are still reported (they extend the
/// inferred node count).
pub fn for_each_label_line<R: BufRead>(
    reader: R,
    mut f: impl FnMut(usize, usize, &[usize]) -> Result<(), IoError>,
) -> Result<(), IoError> {
    let mut labels: Vec<usize> = Vec::new();
    for_each_record(reader, |lineno, line| {
        let mut it = line.split_whitespace();
        let v: usize = it
            .next()
            .ok_or_else(|| IoError::Parse {
                kind: "label",
                line: lineno,
                message: "empty line".into(),
            })?
            .parse()
            .map_err(|e| IoError::Parse {
                kind: "label",
                line: lineno,
                message: format!("bad node: {e}"),
            })?;
        labels.clear();
        for tok in it {
            labels.push(tok.parse().map_err(|e| IoError::Parse {
                kind: "label",
                line: lineno,
                message: format!("bad label: {e}"),
            })?);
        }
        f(lineno, v, &labels)
    })
}

/// Collects `(src, dst)` pairs from an edge-list reader. Prefer
/// [`for_each_edge`] for large inputs.
pub fn parse_edges<R: BufRead>(reader: R) -> Result<Vec<(usize, usize)>, IoError> {
    let mut out = Vec::new();
    for_each_edge(reader, |_, s, t| {
        out.push((s, t));
        Ok(())
    })?;
    Ok(out)
}

/// Collects `(node, attr, weight)` triples from an attribute reader.
/// Prefer [`for_each_attribute`] for large inputs.
pub fn parse_attributes<R: BufRead>(reader: R) -> Result<Vec<(usize, usize, f64)>, IoError> {
    let mut out = Vec::new();
    for_each_attribute(reader, |_, v, r, w| {
        out.push((v, r, w));
        Ok(())
    })?;
    Ok(out)
}

/// Collects `node label [label ...]` lines from a label reader. Prefer
/// [`for_each_label_line`] for large inputs.
pub fn parse_labels<R: BufRead>(reader: R) -> Result<Vec<(usize, Vec<usize>)>, IoError> {
    let mut out = Vec::new();
    for_each_label_line(reader, |_, v, ls| {
        out.push((v, ls.to_vec()));
        Ok(())
    })?;
    Ok(out)
}

fn open(path: &Path) -> Result<BufReader<File>, IoError> {
    Ok(BufReader::new(File::open(path)?))
}

/// Rejects out-of-range edge endpoints with a structured error.
fn check_edge(line: usize, s: usize, t: usize, n: usize) -> Result<(), IoError> {
    if s >= n {
        return Err(IoError::IdOutOfRange {
            kind: "edge source node",
            line,
            id: s,
            bound: n,
        });
    }
    if t >= n {
        return Err(IoError::IdOutOfRange {
            kind: "edge target node",
            line,
            id: t,
            bound: n,
        });
    }
    Ok(())
}

/// Rejects out-of-range / non-positive attribute records.
fn check_attribute(
    line: usize,
    v: usize,
    r: usize,
    w: f64,
    n: usize,
    d: usize,
) -> Result<(), IoError> {
    if v >= n {
        return Err(IoError::IdOutOfRange {
            kind: "attribute node",
            line,
            id: v,
            bound: n,
        });
    }
    if r >= d {
        return Err(IoError::IdOutOfRange {
            kind: "attribute",
            line,
            id: r,
            bound: d,
        });
    }
    if !(w.is_finite() && w > 0.0) {
        return Err(IoError::Parse {
            kind: "attribute",
            line,
            message: format!("weight must be finite and positive, got {w}"),
        });
    }
    Ok(())
}

/// Loads an attributed graph from separate files, streaming each file
/// once into a chunked [`CsrBuilder`] (no intermediate record vectors;
/// peak auxiliary memory is `O(nnz_out + chunk)`).
///
/// `num_nodes`/`num_attributes` may be `None`, in which case they are
/// inferred as `1 + max index` seen across the files (one extra streaming
/// scan). When a dimension **is** declared, any record referencing an id
/// at or past it is a structured [`IoError::IdOutOfRange`] — never a
/// panic — so a serving-adjacent load of an inconsistent dataset degrades
/// into a clean error.
pub fn load_graph(
    edges_path: &Path,
    attrs_path: Option<&Path>,
    labels_path: Option<&Path>,
    num_nodes: Option<usize>,
    num_attributes: Option<usize>,
    undirected: bool,
) -> Result<AttributedGraph, IoError> {
    // Dimension scan — only the files a missing dimension depends on.
    let (n, d) = match (num_nodes, num_attributes) {
        (Some(n), Some(d)) => (n, d),
        _ => {
            let mut max_n = 0usize; // 1 + max node id seen
            let mut max_d = 0usize; // 1 + max attribute id seen
            if num_nodes.is_none() {
                for_each_edge(open(edges_path)?, |_, s, t| {
                    max_n = max_n.max(s + 1).max(t + 1);
                    Ok(())
                })?;
                if let Some(p) = labels_path {
                    for_each_label_line(open(p)?, |_, v, _| {
                        max_n = max_n.max(v + 1);
                        Ok(())
                    })?;
                }
            }
            if let Some(p) = attrs_path {
                for_each_attribute(open(p)?, |_, v, r, _| {
                    if num_nodes.is_none() {
                        max_n = max_n.max(v + 1);
                    }
                    max_d = max_d.max(r + 1);
                    Ok(())
                })?;
            }
            (num_nodes.unwrap_or(max_n), num_attributes.unwrap_or(max_d))
        }
    };
    // Declared or inferred, the dimensions must fit the u32 index space of
    // the sparse substrate — an id ≥ 2³² in a text file must be a clean
    // error, not a builder assert.
    for (dim, what) in [(n, "node"), (d, "attribute")] {
        if dim > u32::MAX as usize {
            return Err(IoError::Parse {
                kind: "graph",
                line: 0,
                message: format!("{what} count {dim} exceeds the u32 index space"),
            });
        }
    }

    // Build pass: stream records straight into the builders. Duplicate
    // edges collapse to weight 1 (binary adjacency, §2.1); duplicate
    // node–attribute associations sum their weights.
    let mut adjacency = CsrBuilder::new(n, n).merge_rule(MergeRule::KeepFirst);
    for_each_edge(open(edges_path)?, |line, s, t| {
        check_edge(line, s, t, n)?;
        adjacency.push(s, t, 1.0);
        if undirected {
            adjacency.push(t, s, 1.0);
        }
        Ok(())
    })?;
    let mut attributes = CsrBuilder::new(n, d).merge_rule(MergeRule::Sum);
    if let Some(p) = attrs_path {
        for_each_attribute(open(p)?, |line, v, r, w| {
            check_attribute(line, v, r, w, n, d)?;
            attributes.push(v, r, w);
            Ok(())
        })?;
    }
    let (adjacency, attributes) = (adjacency.finish(), attributes.finish());

    let mut labels: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut num_labels = 0usize;
    if let Some(p) = labels_path {
        for_each_label_line(open(p)?, |line, v, ls| {
            if v >= n {
                return Err(IoError::IdOutOfRange {
                    kind: "label node",
                    line,
                    id: v,
                    bound: n,
                });
            }
            for &l in ls {
                // Labels are stored as u32; a larger id in the file is
                // corrupt data, not something to truncate silently.
                if l > u32::MAX as usize {
                    return Err(IoError::IdOutOfRange {
                        kind: "label",
                        line,
                        id: l,
                        bound: u32::MAX as usize + 1,
                    });
                }
                let lu = l as u32;
                if !labels[v].contains(&lu) {
                    labels[v].push(lu);
                }
                num_labels = num_labels.max(l + 1);
            }
            Ok(())
        })?;
    }
    for row in &mut labels {
        row.sort_unstable();
    }

    Ok(AttributedGraph::from_parts(
        adjacency, attributes, labels, num_labels, undirected,
    ))
}

/// Writes the graph back out as the three text files.
pub fn save_graph(
    g: &AttributedGraph,
    edges_path: &Path,
    attrs_path: &Path,
    labels_path: &Path,
) -> Result<(), IoError> {
    let mut ew = BufWriter::new(File::create(edges_path)?);
    writeln!(ew, "# src dst")?;
    for (i, j, _) in g.adjacency().iter() {
        writeln!(ew, "{i} {j}")?;
    }
    ew.flush()?;

    let mut aw = BufWriter::new(File::create(attrs_path)?);
    writeln!(aw, "# node attr weight")?;
    for (v, r, w) in g.attributes().iter() {
        writeln!(aw, "{v} {r} {w}")?;
    }
    aw.flush()?;

    let mut lw = BufWriter::new(File::create(labels_path)?);
    writeln!(lw, "# node labels...")?;
    for v in 0..g.num_nodes() {
        let ls = g.labels_of(v);
        if !ls.is_empty() {
            let body: Vec<String> = ls.iter().map(|l| l.to_string()).collect();
            writeln!(lw, "{v} {}", body.join(" "))?;
        }
    }
    lw.flush()?;
    Ok(())
}

/// One `len × 1` section over `values`.
fn column<'a, T>(id: u32, values: &'a [T], data: fn(&'a [T]) -> ColumnData<'a>) -> ColumnSpec<'a> {
    ColumnSpec {
        id,
        rows: values.len(),
        cols: 1,
        data: data(values),
    }
}

/// Writes the graph as a `PANECOL1` container: adjacency and attributes
/// as CSR sections, labels as offsets + ids, `d` and `num_labels` in a
/// meta section and the undirected bit in the header's `meta` word.
pub fn save_graph_columns(g: &AttributedGraph, path: &Path) -> Result<(), IoError> {
    let meta = [g.num_attributes() as u64, g.num_labels() as u64];
    let (adj_ptr, adj_idx, adj_val) = g.adjacency().raw_parts();
    let (attr_ptr, attr_idx, attr_val) = g.attributes().raw_parts();
    let wide = |ptr: &[usize]| -> Vec<u64> { ptr.iter().map(|&p| p as u64).collect() };
    let (adj_ptr, attr_ptr) = (wide(adj_ptr), wide(attr_ptr));
    let (mut offsets, mut ids) = (vec![0u64], Vec::new());
    for ls in g.labels() {
        ids.extend_from_slice(ls);
        offsets.push(ids.len() as u64);
    }
    pane_format::write_columns(
        path,
        Artifact::Graph,
        u16::from(g.is_undirected()),
        &[
            column(section::GRAPH_META, &meta, ColumnData::U64),
            column(section::GRAPH_ADJ_INDPTR, &adj_ptr, ColumnData::U64),
            column(section::GRAPH_ADJ_INDICES, adj_idx, ColumnData::U32),
            column(section::GRAPH_ADJ_VALUES, adj_val, ColumnData::F64),
            column(section::GRAPH_ATTR_INDPTR, &attr_ptr, ColumnData::U64),
            column(section::GRAPH_ATTR_INDICES, attr_idx, ColumnData::U32),
            column(section::GRAPH_ATTR_VALUES, attr_val, ColumnData::F64),
            column(section::GRAPH_LABEL_OFFSETS, &offsets, ColumnData::U64),
            column(section::GRAPH_LABEL_IDS, &ids, ColumnData::U32),
        ],
    )?;
    Ok(())
}

fn corrupt<T>(message: String) -> Result<T, IoError> {
    Err(IoError::Format(message))
}

/// Takes an offsets section, each entry converted to `usize` with a check.
fn take_offsets(c: &mut Columns, id: u32) -> Result<Vec<usize>, IoError> {
    c.take::<u64>(id)?
        .into_iter()
        .map(|p| {
            usize::try_from(p)
                .or_else(|_| corrupt(format!("section id {id}: offset {p} overflows usize")))
        })
        .collect()
}

/// Takes one CSR matrix's index and value sections and checks the
/// matrix as untrusted input: finite, positive weights and every CSR
/// invariant, in release builds too.
fn take_csr(
    c: &mut Columns,
    indptr: Vec<usize>,
    [indices, values]: [u32; 2],
    (rows, cols): (usize, usize),
    what: &str,
) -> Result<CsrMatrix, IoError> {
    let values = c.take::<f64>(values)?;
    if let Some(w) = values.iter().find(|w| !(w.is_finite() && **w > 0.0)) {
        return corrupt(format!("{what} value {w} is not finite and positive"));
    }
    CsrMatrix::try_from_raw(rows, cols, indptr, c.take(indices)?, values)
        .or_else(|e| corrupt(format!("corrupt {what} matrix: {e}")))
}

/// Reads a graph written by [`save_graph_columns`]. `Columns::open`
/// checks the declared lengths, the layout and every checksum; this
/// checks what the container cannot, each before anything is sized from
/// it: `n` is the adjacency row-pointer count − 1 (no stored word), `n`,
/// `d` and `num_labels` fit `u32`, and both matrices and the label sets
/// pass the CSR checks.
pub fn load_graph_columns(path: &Path) -> Result<AttributedGraph, IoError> {
    let mut c = Columns::open(path)?;
    if c.artifact() != Artifact::Graph || c.meta() > 1 {
        return corrupt(format!(
            "{:?} artifact with meta {:#x} where a graph was expected",
            c.artifact(),
            c.meta()
        ));
    }
    let meta = c.take::<u64>(section::GRAPH_META)?;
    let [d, num_labels] = meta[..] else {
        return corrupt(format!("graph meta holds {} words, not 2", meta.len()));
    };
    let adj_ptr = take_offsets(&mut c, section::GRAPH_ADJ_INDPTR)?;
    let n = adj_ptr.len().saturating_sub(1);
    for (v, what) in [(n as u64, "node"), (d, "attribute"), (num_labels, "label")] {
        if v > u64::from(u32::MAX) {
            return corrupt(format!("{what} count {v} exceeds the u32 index space"));
        }
    }
    let (d, num_labels) = (d as usize, num_labels as usize);
    let adj = [section::GRAPH_ADJ_INDICES, section::GRAPH_ADJ_VALUES];
    let adjacency = take_csr(&mut c, adj_ptr, adj, (n, n), "adjacency")?;
    let attr_ptr = take_offsets(&mut c, section::GRAPH_ATTR_INDPTR)?;
    let attr = [section::GRAPH_ATTR_INDICES, section::GRAPH_ATTR_VALUES];
    let attributes = take_csr(&mut c, attr_ptr, attr, (n, d), "attribute")?;
    // The label sets are an `n × num_labels` pattern: the CSR check holds
    // the offsets to the ids and each set to sorted, unique ids below
    // `num_labels`.
    let offsets = take_offsets(&mut c, section::GRAPH_LABEL_OFFSETS)?;
    let ids = c.take::<u32>(section::GRAPH_LABEL_IDS)?;
    let ones = vec![1.0; ids.len()];
    let labels = CsrMatrix::try_from_raw(n, num_labels, offsets, ids, ones)
        .or_else(|e| corrupt(format!("corrupt label sets: {e}")))?;
    let labels = (0..n).map(|v| labels.row(v).0.to_vec()).collect();
    let undirected = c.meta() == 1;
    Ok(AttributedGraph::from_parts(
        adjacency, attributes, labels, num_labels, undirected,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use std::io::Cursor;

    #[test]
    fn parse_edges_with_comments() {
        let text = "# header\n0 1\n\n% other comment\n2 0\n";
        let e = parse_edges(Cursor::new(text)).unwrap();
        assert_eq!(e, vec![(0, 1), (2, 0)]);
    }

    #[test]
    fn parse_edges_rejects_garbage() {
        let err = parse_edges(Cursor::new("0 x\n")).unwrap_err();
        let msg = format!("{err}");
        assert!(msg.contains("line 1"), "{msg}");
    }

    #[test]
    fn parse_attributes_defaults_weight() {
        let text = "0 3\n1 2 0.5\n";
        let a = parse_attributes(Cursor::new(text)).unwrap();
        assert_eq!(a, vec![(0, 3, 1.0), (1, 2, 0.5)]);
    }

    #[test]
    fn parse_attributes_arity_checked() {
        assert!(parse_attributes(Cursor::new("0 1 2 3\n")).is_err());
        assert!(parse_attributes(Cursor::new("0\n")).is_err());
    }

    #[test]
    fn parse_labels_multi() {
        let l = parse_labels(Cursor::new("3 0 2 5\n1 4\n")).unwrap();
        assert_eq!(l, vec![(3, vec![0, 2, 5]), (1, vec![4])]);
    }

    #[test]
    fn streaming_parsers_report_line_numbers() {
        // Comments and blanks still advance the line counter.
        let text = "# header\n\n0 1\nbroken\n";
        let err = for_each_edge(Cursor::new(text), |_, _, _| Ok(())).unwrap_err();
        assert!(format!("{err}").contains("line 4"), "{err}");
    }

    fn write_files(dir: &std::path::Path, edges: &str, attrs: &str, labels: &str) {
        std::fs::create_dir_all(dir).unwrap();
        std::fs::write(dir.join("e.txt"), edges).unwrap();
        std::fs::write(dir.join("a.txt"), attrs).unwrap();
        std::fs::write(dir.join("l.txt"), labels).unwrap();
    }

    fn tmpdir(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("pane_io_test_{}_{name}", std::process::id()))
    }

    #[test]
    fn roundtrip_through_files() {
        let dir = tmpdir("roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let (ep, ap, lp) = (dir.join("e.txt"), dir.join("a.txt"), dir.join("l.txt"));

        let mut b = GraphBuilder::new(4, 3);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(3, 0);
        b.add_attribute(0, 0, 1.0);
        b.add_attribute(2, 1, 2.5);
        b.add_label(0, 1);
        b.add_label(2, 0);
        b.add_label(2, 1);
        let g = b.build();

        save_graph(&g, &ep, &ap, &lp).unwrap();
        let g2 = load_graph(&ep, Some(&ap), Some(&lp), Some(4), Some(3), false).unwrap();
        assert_eq!(g2.num_edges(), 3);
        assert_eq!(g2.attributes().get(2, 1), 2.5);
        assert_eq!(g2.labels_of(2), &[0, 1]);

        // Inference of n and d from content.
        let g3 = load_graph(&ep, Some(&ap), Some(&lp), None, None, false).unwrap();
        assert_eq!(g3.num_nodes(), 4);
        assert_eq!(g3.num_attributes(), 2); // max attr index 1 -> d=2

        std::fs::remove_dir_all(&dir).ok();
    }

    /// The streaming load path must match a `GraphBuilder` construction of
    /// the same records bit-for-bit (duplicate edges collapse to 1,
    /// duplicate attributes sum, undirected mirrors).
    #[test]
    fn streaming_load_matches_builder() {
        let dir = tmpdir("equiv");
        write_files(
            &dir,
            "0 1\n1 2\n0 1\n2 2\n1 0\n",
            "0 0 0.5\n1 2 2.0\n0 0 0.25\n2 1\n",
            "0 1\n2 0 1\n",
        );
        for undirected in [false, true] {
            let got = load_graph(
                &dir.join("e.txt"),
                Some(&dir.join("a.txt")),
                Some(&dir.join("l.txt")),
                Some(3),
                Some(3),
                undirected,
            )
            .unwrap();
            let mut b = GraphBuilder::new(3, 3);
            if undirected {
                b = b.undirected();
            }
            for (s, t) in [(0, 1), (1, 2), (0, 1), (2, 2), (1, 0)] {
                b.add_edge(s, t);
            }
            for (v, r, w) in [(0, 0, 0.5), (1, 2, 2.0), (0, 0, 0.25), (2, 1, 1.0)] {
                b.add_attribute(v, r, w);
            }
            b.add_label(0, 1);
            b.add_label(2, 0);
            b.add_label(2, 1);
            let want = b.build();
            assert_eq!(got.adjacency(), want.adjacency(), "undirected={undirected}");
            assert_eq!(got.attributes(), want.attributes());
            assert_eq!(got.labels(), want.labels());
            assert_eq!(got.num_labels(), want.num_labels());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Regression: out-of-range ids with explicit dimensions used to hit a
    /// builder assert (process abort); they must be structured errors.
    #[test]
    fn out_of_range_ids_are_errors_not_panics() {
        let dir = tmpdir("oor");
        write_files(&dir, "0 1\n1 7\n", "0 0\n", "0 0\n");
        let err = load_graph(
            &dir.join("e.txt"),
            Some(&dir.join("a.txt")),
            Some(&dir.join("l.txt")),
            Some(3),
            Some(2),
            false,
        )
        .unwrap_err();
        let msg = format!("{err}");
        assert!(
            msg.contains("edge target node id 7") && msg.contains("line 2"),
            "{msg}"
        );

        write_files(&dir, "0 1\n", "5 0\n", "");
        let msg = format!(
            "{}",
            load_graph(
                &dir.join("e.txt"),
                Some(&dir.join("a.txt")),
                None,
                Some(3),
                Some(2),
                false,
            )
            .unwrap_err()
        );
        assert!(msg.contains("attribute node id 5"), "{msg}");

        write_files(&dir, "0 1\n", "0 9\n", "");
        let msg = format!(
            "{}",
            load_graph(
                &dir.join("e.txt"),
                Some(&dir.join("a.txt")),
                None,
                Some(3),
                Some(2),
                false,
            )
            .unwrap_err()
        );
        assert!(msg.contains("attribute id 9"), "{msg}");

        write_files(&dir, "0 1\n", "", "4 0\n");
        let msg = format!(
            "{}",
            load_graph(
                &dir.join("e.txt"),
                None,
                Some(&dir.join("l.txt")),
                Some(3),
                Some(2),
                false,
            )
            .unwrap_err()
        );
        assert!(msg.contains("label node id 4"), "{msg}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Regression: a non-positive attribute weight used to hit the builder
    /// assert; it must be a parse error naming the line.
    #[test]
    fn bad_attribute_weight_is_error() {
        let dir = tmpdir("weight");
        write_files(&dir, "0 1\n", "0 0 1.0\n1 1 -2.0\n", "");
        let msg = format!(
            "{}",
            load_graph(
                &dir.join("e.txt"),
                Some(&dir.join("a.txt")),
                None,
                Some(2),
                Some(2),
                false,
            )
            .unwrap_err()
        );
        assert!(
            msg.contains("finite and positive") && msg.contains("line 2"),
            "{msg}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Regression: ids at or past 2³² in a text file (driving an inferred
    /// dimension past the u32 index space, or a label id that would be
    /// silently truncated) are structured errors, not builder asserts.
    #[test]
    fn oversized_ids_are_errors_not_panics() {
        let dir = tmpdir("u32");
        write_files(&dir, "0 4294967296\n", "", "");
        let msg = format!(
            "{}",
            load_graph(&dir.join("e.txt"), None, None, None, None, false).unwrap_err()
        );
        assert!(msg.contains("exceeds the u32 index space"), "{msg}");

        write_files(&dir, "0 1\n", "0 4294967296 1.0\n", "");
        let msg = format!(
            "{}",
            load_graph(
                &dir.join("e.txt"),
                Some(&dir.join("a.txt")),
                None,
                None,
                None,
                false,
            )
            .unwrap_err()
        );
        assert!(msg.contains("exceeds the u32 index space"), "{msg}");

        write_files(&dir, "0 1\n", "", "0 4294967296\n");
        let msg = format!(
            "{}",
            load_graph(
                &dir.join("e.txt"),
                None,
                Some(&dir.join("l.txt")),
                None,
                None,
                false,
            )
            .unwrap_err()
        );
        assert!(msg.contains("label id 4294967296"), "{msg}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A label line with a node id but no labels still widens the inferred
    /// node count (historical `parse_labels` behavior).
    #[test]
    fn bare_label_node_extends_inference() {
        let dir = tmpdir("barelabel");
        write_files(&dir, "0 1\n", "", "5\n");
        let g = load_graph(
            &dir.join("e.txt"),
            None,
            Some(&dir.join("l.txt")),
            None,
            None,
            false,
        )
        .unwrap();
        assert_eq!(g.num_nodes(), 6);
        assert_eq!(g.num_labels(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn container(name: &str) -> std::path::PathBuf {
        let dir = tmpdir("container");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// The sections of a 2-node graph (edge 0→1, attribute 0 on node 0,
    /// label 0 on node 0), each replaced by the one in `with` of its id:
    /// the corrupt containers below are written with `write_columns`,
    /// not by patching byte offsets.
    fn write_tiny(p: &Path, with: &[ColumnSpec<'_>]) {
        let (meta, ptr, idx, val) = ([1u64, 1], [0u64, 1, 1], [1u32], [1.0f64]);
        let (attr_ptr, labels, label_ids) = ([0u64, 1, 1], [0u64, 1, 1], [0u32]);
        let mut specs = [
            column(section::GRAPH_META, &meta, ColumnData::U64),
            column(section::GRAPH_ADJ_INDPTR, &ptr, ColumnData::U64),
            column(section::GRAPH_ADJ_INDICES, &idx, ColumnData::U32),
            column(section::GRAPH_ADJ_VALUES, &val, ColumnData::F64),
            column(section::GRAPH_ATTR_INDPTR, &attr_ptr, ColumnData::U64),
            column(section::GRAPH_ATTR_INDICES, &[0u32], ColumnData::U32),
            column(section::GRAPH_ATTR_VALUES, &val, ColumnData::F64),
            column(section::GRAPH_LABEL_OFFSETS, &labels, ColumnData::U64),
            column(section::GRAPH_LABEL_IDS, &label_ids, ColumnData::U32),
        ];
        for spec in &mut specs {
            if let Some(w) = with.iter().find(|w| w.id == spec.id) {
                *spec = *w;
            }
        }
        pane_format::write_columns(p, Artifact::Graph, 0, &specs).unwrap();
    }

    /// Writes the tiny graph with `with` swapped in; the load must fail
    /// with a format error naming `needle`.
    fn assert_refused(p: &Path, with: &[ColumnSpec<'_>], needle: &str) {
        write_tiny(p, with);
        match load_graph_columns(p) {
            Err(e @ IoError::Format(_)) => assert!(e.to_string().contains(needle), "{with:?}: {e}"),
            other => panic!("{with:?}: expected a format error, got {other:?}"),
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let g = crate::gen::generate_sbm(&crate::gen::SbmConfig {
            nodes: 300,
            communities: 4,
            attributes: 24,
            attrs_per_node: 4.0,
            multi_label: true,
            extra_label_prob: 0.3,
            seed: 7,
            ..Default::default()
        });
        let p = container("g.col");
        save_graph_columns(&g, &p).unwrap();
        let g2 = load_graph_columns(&p).unwrap();
        assert_eq!(g2.adjacency(), g.adjacency());
        assert_eq!(g2.attributes(), g.attributes());
        assert_eq!(g2.labels(), g.labels());
        assert_eq!(g2.num_labels(), g.num_labels());
        assert_eq!(g2.is_undirected(), g.is_undirected());
        write_tiny(&p, &[]);
        let tiny = load_graph_columns(&p).unwrap();
        assert_eq!((tiny.num_nodes(), tiny.num_attributes()), (2, 1));
        assert_eq!(tiny.labels(), &[vec![0], vec![]]);
    }

    #[test]
    fn roundtrip_weighted_and_undirected() {
        let mut b = GraphBuilder::new(3, 2).undirected();
        b.add_weighted_edge(0, 1, 2.5);
        b.add_edge(1, 2);
        b.add_attribute(0, 1, 0.75);
        let g = b.build();
        let p = container("gw.col");
        save_graph_columns(&g, &p).unwrap();
        let g2 = load_graph_columns(&p).unwrap();
        assert!(g2.is_undirected());
        assert_eq!(g2.adjacency().get(1, 0), 2.5);
        assert_eq!(g2.attributes().get(0, 1), 0.75);
        // The undirected bit is the header's meta word; `d` and
        // `num_labels` are the meta section.
        let mut c = Columns::open(&p).unwrap();
        assert_eq!(c.meta(), 1);
        assert_eq!(c.take::<u64>(section::GRAPH_META).unwrap(), [2, 0]);
    }

    /// Regression: non-positive / non-finite stored weights must be a
    /// format error, not a builder assert downstream.
    #[test]
    fn invalid_value_rejected() {
        let p = container("negval.col");
        for bad in [-1.0, 0.0, f64::NAN, f64::INFINITY] {
            for id in [section::GRAPH_ADJ_VALUES, section::GRAPH_ATTR_VALUES] {
                let bad = [bad];
                let with = [column(id, &bad, ColumnData::F64)];
                assert_refused(&p, &with, "finite and positive");
            }
        }
    }

    #[test]
    fn unsorted_rows_rejected() {
        let p = container("unsorted.col");
        let with = [
            column(section::GRAPH_ADJ_INDPTR, &[0u64, 2, 2], ColumnData::U64),
            column(section::GRAPH_ADJ_INDICES, &[1u32, 0], ColumnData::U32),
            column(section::GRAPH_ADJ_VALUES, &[1.0, 1.0], ColumnData::F64),
        ];
        assert_refused(&p, &with, "strictly increasing");
        // A column past `d` is out of bounds: `d` is the meta word.
        let with = [column(
            section::GRAPH_ATTR_INDICES,
            &[1u32],
            ColumnData::U32,
        )];
        assert_refused(&p, &with, "out of bounds");
    }

    /// A label id ≥ `num_labels`, or label offsets that overrun the ids,
    /// is refused — and so is a label set that is not sorted and unique.
    #[test]
    fn absurd_label_count_rejected() {
        let p = container("badlabel.col");
        let with = [column(section::GRAPH_LABEL_IDS, &[1u32], ColumnData::U32)];
        assert_refused(&p, &with, "corrupt label sets");
        for offsets in [[0u64, 1 << 50, 1 << 50], [0, 2, 1], [1, 1, 1], [0, 1, 0]] {
            let with = [column(
                section::GRAPH_LABEL_OFFSETS,
                &offsets,
                ColumnData::U64,
            )];
            assert_refused(&p, &with, "corrupt label sets");
        }
        for ids in [[1u32, 0], [1, 1]] {
            let with = [
                column(section::GRAPH_META, &[1u64, 2], ColumnData::U64),
                column(section::GRAPH_LABEL_OFFSETS, &[0u64, 2, 2], ColumnData::U64),
                column(section::GRAPH_LABEL_IDS, &ids, ColumnData::U32),
            ];
            assert_refused(&p, &with, "not strictly increasing");
        }
    }

    /// A meta word or an offsets section that disagrees with the section
    /// shapes fails before anything is allocated from it: `n` is the
    /// adjacency row-pointer count, never a stored word, and a count past
    /// the u32 index space or an offsets section of the wrong length is
    /// refused before a row is built.
    #[test]
    fn absurd_node_count_rejected_before_allocation() {
        let p = container("hugen.col");
        for meta in [[u64::MAX, 1], [1, u64::MAX], [1 << 40, 1], [1, 1 << 32]] {
            let with = [column(section::GRAPH_META, &meta, ColumnData::U64)];
            assert_refused(&p, &with, "exceeds the u32 index space");
        }
        for meta in [&[1u64][..], &[1, 1, 1]] {
            let with = [column(section::GRAPH_META, meta, ColumnData::U64)];
            assert_refused(&p, &with, "graph meta holds");
        }
        // Row pointers for 3 nodes next to a 2-node adjacency, label
        // offsets for 3 or 0 nodes, adjacency row pointers past the ids
        // and an empty row-pointer section.
        let with = [column(
            section::GRAPH_ATTR_INDPTR,
            &[0u64, 1, 1, 1],
            ColumnData::U64,
        )];
        assert_refused(&p, &with, "indptr length");
        for offsets in [&[0u64, 1, 1, 1][..], &[]] {
            let with = [column(
                section::GRAPH_LABEL_OFFSETS,
                offsets,
                ColumnData::U64,
            )];
            assert_refused(&p, &with, "corrupt label sets");
        }
        for ptr in [&[0u64, 1 << 50, 1 << 50][..], &[]] {
            let with = [column(section::GRAPH_ADJ_INDPTR, ptr, ColumnData::U64)];
            assert_refused(&p, &with, "corrupt adjacency");
        }
        // An unknown header flag, and another artifact kind.
        let one = [column(section::GRAPH_META, &[1u64, 1], ColumnData::U64)];
        for (artifact, meta) in [(Artifact::Graph, 2), (Artifact::Embedding, 0)] {
            pane_format::write_columns(&p, artifact, meta, &one).unwrap();
            let err = load_graph_columns(&p).unwrap_err().to_string();
            assert!(err.contains("where a graph was expected"), "{err}");
        }
    }
}
