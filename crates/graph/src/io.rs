//! Graph and pattern serialization: a line-oriented text format and a
//! compact binary format.
//!
//! The **text** format is deliberately simple (no external
//! serialization crates needed):
//!
//! ```text
//! # optional comments
//! graph <node_count> <edge_count>
//! n <node_id> <label>
//! e <src> <dst>
//! ```
//!
//! Patterns use the header `pattern` instead of `graph`. The format is
//! what `dgsq generate` writes and `dgsq query` reads.
//!
//! The **binary** format ([`write_graph_binary`] /
//! [`read_graph_binary`] and the pattern twins) is what the serving
//! daemon cold-loads large graphs from — an RMAT graph parses an order
//! of magnitude faster than from text. Layout (all integers LEB128
//! varints unless noted):
//!
//! ```text
//! magic "DGSB" | version u8 = 1 | kind u8 ('G' graph, 'Q' pattern)
//! node_count | edge_count
//! label × node_count
//! per node v in id order: out_degree(v), then its sorted successors
//!     as a first absolute id followed by gaps to the previous id
//! ```
//!
//! [`read_graph_auto`] / [`read_pattern_auto`] sniff the magic and
//! accept either format. Corrupt or truncated binary input yields a
//! typed [`ParseError`], never a panic.

use crate::graph::{Graph, GraphBuilder, NodeId};
use crate::label::Label;
use crate::pattern::{Pattern, PatternBuilder, QNodeId};
use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, Read, Write};

/// Magic prefix of the binary graph/pattern format.
pub const BINARY_MAGIC: [u8; 4] = *b"DGSB";
/// Current version byte of the binary format.
pub const BINARY_VERSION: u8 = 1;
const KIND_GRAPH: u8 = b'G';
const KIND_PATTERN: u8 = b'Q';

/// Errors produced by the text and binary readers.
#[derive(Debug)]
pub enum ParseError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structural problem with text input, with a line number.
    Malformed { line: usize, message: String },
    /// Structural problem with binary input (bad magic, unsupported
    /// version, truncation, out-of-range ids, overflowing counts).
    Corrupt { message: String },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Io(e) => write!(f, "i/o error: {e}"),
            ParseError::Malformed { line, message } => {
                write!(f, "malformed input at line {line}: {message}")
            }
            ParseError::Corrupt { message } => {
                write!(f, "corrupt binary input: {message}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

impl From<io::Error> for ParseError {
    fn from(e: io::Error) -> Self {
        ParseError::Io(e)
    }
}

fn malformed(line: usize, message: impl Into<String>) -> ParseError {
    ParseError::Malformed {
        line,
        message: message.into(),
    }
}

/// Writes `g` in the text format.
pub fn write_graph<W: Write>(g: &Graph, mut w: W) -> io::Result<()> {
    let mut buf = String::new();
    writeln!(buf, "graph {} {}", g.node_count(), g.edge_count()).unwrap();
    for v in g.nodes() {
        writeln!(buf, "n {} {}", v.0, g.label(v).0).unwrap();
    }
    for (u, v) in g.edges() {
        writeln!(buf, "e {} {}", u.0, v.0).unwrap();
    }
    w.write_all(buf.as_bytes())
}

/// Writes `q` in the text format.
pub fn write_pattern<W: Write>(q: &Pattern, mut w: W) -> io::Result<()> {
    let mut buf = String::new();
    writeln!(buf, "pattern {} {}", q.node_count(), q.edge_count()).unwrap();
    for u in q.nodes() {
        writeln!(buf, "n {} {}", u.0, q.label(u).0).unwrap();
    }
    for (u, c) in q.edges() {
        writeln!(buf, "e {} {}", u.0, c.0).unwrap();
    }
    w.write_all(buf.as_bytes())
}

/// A text file's nodes and edges, checked against its header: the
/// labels by node id, every id declared once, every edge in range.
struct Parsed {
    labels: Vec<Label>,
    edges: Vec<(u32, u32)>,
}

/// The next whitespace-separated field of a text line, parsed.
fn field<T: std::str::FromStr>(
    parts: &mut std::str::SplitAsciiWhitespace<'_>,
    line: usize,
    what: &str,
) -> Result<T, ParseError> {
    (parts.next().and_then(|s| s.parse().ok()))
        .ok_or_else(|| malformed(line, format!("bad {what}")))
}

/// Parses a text file whose header must read `kind`.
fn parse<R: Read>(r: R, kind: &str) -> Result<Parsed, ParseError> {
    let reader = BufReader::new(r);
    let mut header: Option<(String, usize, usize)> = None;
    let mut nodes = Vec::new();
    let mut edges = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let lineno = lineno + 1;
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_ascii_whitespace();
        let tag = parts.next().unwrap();
        match tag {
            "graph" | "pattern" => {
                if header.is_some() {
                    return Err(malformed(lineno, "duplicate header"));
                }
                let n: usize = field(&mut parts, lineno, "node count")?;
                let m: usize = field(&mut parts, lineno, "edge count")?;
                header = Some((tag.to_owned(), n, m));
            }
            "n" => {
                let id: u32 = field(&mut parts, lineno, "node id")?;
                nodes.push((id, field::<u16>(&mut parts, lineno, "label")?));
            }
            "e" => {
                let u: u32 = field(&mut parts, lineno, "edge source")?;
                edges.push((u, field(&mut parts, lineno, "edge target")?));
            }
            other => return Err(malformed(lineno, format!("unknown tag {other:?}"))),
        }
    }
    let (header, declared_nodes, declared_edges) =
        header.ok_or_else(|| malformed(0, "missing header line"))?;
    if header != kind {
        return Err(malformed(
            1,
            format!("expected {kind} header, got {header:?}"),
        ));
    }
    // Both counts must match what the file holds before anything is
    // sized from them: a hostile header must not drive an allocation.
    if nodes.len() != declared_nodes || edges.len() != declared_edges {
        return Err(malformed(
            0,
            format!(
                "declared {declared_nodes} nodes and {declared_edges} edges, found {} and {}",
                nodes.len(),
                edges.len()
            ),
        ));
    }
    let mut labels = vec![None; declared_nodes];
    for (id, l) in nodes {
        let slot = (labels.get_mut(id as usize))
            .ok_or_else(|| malformed(0, format!("node id {id} out of range")))?;
        *slot = Some(Label(l));
    }
    let labels = (labels.into_iter().collect::<Option<Vec<Label>>>())
        .ok_or_else(|| malformed(0, "not all node ids declared"))?;
    if let Some((u, v)) = (edges.iter()).find(|&&(u, v)| u.max(v) as usize >= declared_nodes) {
        return Err(malformed(0, format!("edge ({u}, {v}) out of range")));
    }
    Ok(Parsed { labels, edges })
}

/// Reads a graph written by [`write_graph`].
pub fn read_graph<R: Read>(r: R) -> Result<Graph, ParseError> {
    let p = parse(r, "graph")?;
    let mut b = GraphBuilder::with_capacity(p.labels.len(), p.edges.len());
    for l in p.labels {
        b.add_node(l);
    }
    for (u, v) in p.edges {
        b.add_edge(NodeId(u), NodeId(v));
    }
    Ok(b.build())
}

/// Reads a pattern written by [`write_pattern`].
pub fn read_pattern<R: Read>(r: R) -> Result<Pattern, ParseError> {
    let p = parse(r, "pattern")?;
    // The binary reader's bound: query node ids are `u16`.
    if p.labels.len() > usize::from(u16::MAX) {
        return Err(malformed(
            1,
            format!("pattern with {} nodes exceeds u16 ids", p.labels.len()),
        ));
    }
    let mut b = PatternBuilder::new();
    for l in p.labels {
        b.add_node(l);
    }
    for (u, v) in p.edges {
        b.add_edge(QNodeId(u as u16), QNodeId(v as u16));
    }
    Ok(b.build())
}

fn corrupt(message: impl Into<String>) -> ParseError {
    ParseError::Corrupt {
        message: message.into(),
    }
}

fn write_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

fn read_byte<R: Read>(r: &mut R, what: &str) -> Result<u8, ParseError> {
    let mut b = [0u8; 1];
    match r.read_exact(&mut b) {
        Ok(()) => Ok(b[0]),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
            Err(corrupt(format!("truncated while reading {what}")))
        }
        Err(e) => Err(ParseError::Io(e)),
    }
}

fn read_varint<R: Read>(r: &mut R, what: &str) -> Result<u64, ParseError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = read_byte(r, what)?;
        if shift == 63 && byte > 1 {
            return Err(corrupt(format!("varint overflow in {what}")));
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(corrupt(format!("varint too long in {what}")));
        }
    }
}

/// Serializes node labels plus the grouped-by-source, gap-encoded
/// successor lists shared by the graph and pattern binary writers.
fn encode_binary(
    kind: u8,
    node_count: usize,
    edge_count: usize,
    labels: impl Iterator<Item = u16>,
    successors: impl Fn(usize) -> Vec<u32>,
) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16 + node_count * 2 + edge_count * 2);
    buf.extend_from_slice(&BINARY_MAGIC);
    buf.push(BINARY_VERSION);
    buf.push(kind);
    write_varint(&mut buf, node_count as u64);
    write_varint(&mut buf, edge_count as u64);
    for l in labels {
        write_varint(&mut buf, u64::from(l));
    }
    for v in 0..node_count {
        let mut succ = successors(v);
        succ.sort_unstable();
        write_varint(&mut buf, succ.len() as u64);
        let mut prev = 0u32;
        for (i, &t) in succ.iter().enumerate() {
            if i == 0 {
                write_varint(&mut buf, u64::from(t));
            } else {
                write_varint(&mut buf, u64::from(t - prev));
            }
            prev = t;
        }
    }
    buf
}

/// Parsed header + payload of one binary object.
struct BinaryParsed {
    kind: u8,
    labels: Vec<u16>,
    /// Per-source successor lists (sorted; gaps already undone).
    succ: Vec<Vec<u32>>,
    edge_count: usize,
}

/// Reads a binary object after validating magic, version and kind.
/// `max_label` bounds label values (`u16` for both graphs and
/// patterns today, but patterns additionally bound node ids).
fn decode_binary<R: Read>(r: &mut R, want_kind: u8) -> Result<BinaryParsed, ParseError> {
    let mut magic = [0u8; 4];
    for m in &mut magic {
        *m = read_byte(r, "magic")?;
    }
    if magic != BINARY_MAGIC {
        return Err(corrupt(format!(
            "bad magic {magic:?} (expected {BINARY_MAGIC:?})"
        )));
    }
    let version = read_byte(r, "version")?;
    if version != BINARY_VERSION {
        return Err(corrupt(format!(
            "unsupported version {version} (this reader understands {BINARY_VERSION})"
        )));
    }
    let kind = read_byte(r, "kind")?;
    if kind != want_kind {
        let name = |k| match k {
            KIND_GRAPH => "graph",
            KIND_PATTERN => "pattern",
            _ => "unknown object",
        };
        return Err(corrupt(format!(
            "expected a {}, found a {}",
            name(want_kind),
            name(kind)
        )));
    }
    let node_count = read_varint(r, "node count")?;
    let declared_edges = read_varint(r, "edge count")?;
    // Bound the counts before allocating: a corrupt header must not
    // drive an enormous allocation.
    if node_count > u64::from(u32::MAX) {
        return Err(corrupt(format!("node count {node_count} exceeds u32 ids")));
    }
    let n = node_count as usize;
    if declared_edges > node_count.saturating_mul(node_count) {
        return Err(corrupt(format!(
            "edge count {declared_edges} impossible for {n} nodes"
        )));
    }
    let mut labels = Vec::with_capacity(n.min(1 << 20));
    for v in 0..n {
        let l = read_varint(r, "label")?;
        let l = u16::try_from(l).map_err(|_| corrupt(format!("label {l} of node {v} > u16")))?;
        labels.push(l);
    }
    let mut succ = Vec::with_capacity(n.min(1 << 20));
    let mut edge_count = 0usize;
    for v in 0..n {
        let deg = read_varint(r, "out-degree")? as usize;
        if deg > n {
            return Err(corrupt(format!("node {v} declares out-degree {deg} > {n}")));
        }
        let mut targets = Vec::with_capacity(deg);
        let mut prev = 0u64;
        for i in 0..deg {
            let raw = read_varint(r, "edge target")?;
            let t = if i == 0 {
                raw
            } else {
                prev.checked_add(raw)
                    .ok_or_else(|| corrupt("edge-target gap overflows"))?
            };
            if t >= node_count {
                return Err(corrupt(format!("edge ({v}, {t}) out of range")));
            }
            prev = t;
            targets.push(t as u32);
        }
        edge_count += deg;
        succ.push(targets);
    }
    if edge_count != declared_edges as usize {
        return Err(corrupt(format!(
            "declared {declared_edges} edges, found {edge_count}"
        )));
    }
    Ok(BinaryParsed {
        kind,
        labels,
        succ,
        edge_count,
    })
}

/// Writes `g` in the binary format.
pub fn write_graph_binary<W: Write>(g: &Graph, mut w: W) -> io::Result<()> {
    let buf = encode_binary(
        KIND_GRAPH,
        g.node_count(),
        g.edge_count(),
        g.labels().iter().map(|l| l.0),
        |v| g.successors(NodeId(v as u32)).iter().map(|t| t.0).collect(),
    );
    w.write_all(&buf)
}

/// Writes `q` in the binary format.
pub fn write_pattern_binary<W: Write>(q: &Pattern, mut w: W) -> io::Result<()> {
    let buf = encode_binary(
        KIND_PATTERN,
        q.node_count(),
        q.edge_count(),
        q.labels().iter().map(|l| l.0),
        |u| {
            q.children(QNodeId(u as u16))
                .iter()
                .map(|c| u32::from(c.0))
                .collect()
        },
    );
    w.write_all(&buf)
}

/// Reads a graph written by [`write_graph_binary`].
pub fn read_graph_binary<R: Read>(mut r: R) -> Result<Graph, ParseError> {
    let p = decode_binary(&mut r, KIND_GRAPH)?;
    debug_assert_eq!(p.kind, KIND_GRAPH);
    let mut b = GraphBuilder::with_capacity(p.labels.len(), p.edge_count);
    for l in &p.labels {
        b.add_node(Label(*l));
    }
    for (v, targets) in p.succ.iter().enumerate() {
        for &t in targets {
            b.add_edge(NodeId(v as u32), NodeId(t));
        }
    }
    Ok(b.build())
}

/// Reads a pattern written by [`write_pattern_binary`].
pub fn read_pattern_binary<R: Read>(mut r: R) -> Result<Pattern, ParseError> {
    let p = decode_binary(&mut r, KIND_PATTERN)?;
    debug_assert_eq!(p.kind, KIND_PATTERN);
    if p.labels.len() > usize::from(u16::MAX) {
        return Err(corrupt(format!(
            "pattern with {} nodes exceeds u16 ids",
            p.labels.len()
        )));
    }
    let mut b = PatternBuilder::new();
    for l in &p.labels {
        b.add_node(Label(*l));
    }
    for (u, targets) in p.succ.iter().enumerate() {
        for &t in targets {
            b.add_edge(QNodeId(u as u16), QNodeId(t as u16));
        }
    }
    Ok(b.build())
}

/// True when `prefix` starts a binary graph/pattern file.
pub fn looks_binary(prefix: &[u8]) -> bool {
    prefix.len() >= BINARY_MAGIC.len() && prefix[..BINARY_MAGIC.len()] == BINARY_MAGIC
}

/// Reads a graph in either format, sniffing the binary magic.
pub fn read_graph_auto<R: BufRead>(mut r: R) -> Result<Graph, ParseError> {
    if looks_binary(r.fill_buf()?) {
        read_graph_binary(r)
    } else {
        read_graph(r)
    }
}

/// Reads a pattern in either format, sniffing the binary magic.
pub fn read_pattern_auto<R: BufRead>(mut r: R) -> Result<Pattern, ParseError> {
    if looks_binary(r.fill_buf()?) {
        read_pattern_binary(r)
    } else {
        read_pattern(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::pattern::PatternBuilder;

    fn sample_graph() -> Graph {
        let mut b = GraphBuilder::new();
        let a = b.add_node(Label(3));
        let c = b.add_node(Label(7));
        let d = b.add_node(Label(3));
        b.add_edge(a, c);
        b.add_edge(c, d);
        b.add_edge(d, a);
        b.build()
    }

    #[test]
    fn graph_roundtrip() {
        let g = sample_graph();
        let mut buf = Vec::new();
        write_graph(&g, &mut buf).unwrap();
        let g2 = read_graph(&buf[..]).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn pattern_roundtrip() {
        let mut b = PatternBuilder::new();
        let a = b.add_node(Label(0));
        let c = b.add_node(Label(1));
        b.add_edge(a, c);
        b.add_edge(c, a);
        let q = b.build();
        let mut buf = Vec::new();
        write_pattern(&q, &mut buf).unwrap();
        let q2 = read_pattern(&buf[..]).unwrap();
        assert_eq!(q, q2);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# a comment\n\ngraph 2 1\nn 0 5\nn 1 6\n# mid comment\ne 0 1\n";
        let g = read_graph(text.as_bytes()).unwrap();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.label(NodeId(0)), Label(5));
        assert_eq!(g.successors(NodeId(0)), &[NodeId(1)]);
    }

    #[test]
    fn missing_header_rejected() {
        assert!(read_graph("n 0 1\n".as_bytes()).is_err());
    }

    #[test]
    fn wrong_header_rejected() {
        assert!(read_graph("pattern 1 0\nn 0 0\n".as_bytes()).is_err());
        assert!(read_pattern("graph 1 0\nn 0 0\n".as_bytes()).is_err());
    }

    #[test]
    fn out_of_range_edge_rejected() {
        let text = "graph 1 1\nn 0 0\ne 0 5\n";
        assert!(read_graph(text.as_bytes()).is_err());
    }

    #[test]
    fn undeclared_node_rejected() {
        let text = "graph 2 0\nn 0 0\n";
        assert!(read_graph(text.as_bytes()).is_err());
    }

    #[test]
    fn unknown_tag_rejected() {
        let text = "graph 1 0\nn 0 0\nz 1 2\n";
        let err = read_graph(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("unknown tag"));
    }

    #[test]
    fn binary_graph_roundtrip() {
        let g = sample_graph();
        let mut buf = Vec::new();
        write_graph_binary(&g, &mut buf).unwrap();
        assert!(looks_binary(&buf));
        let g2 = read_graph_binary(&buf[..]).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn binary_pattern_roundtrip() {
        let mut b = PatternBuilder::new();
        let a = b.add_node(Label(0));
        let c = b.add_node(Label(9));
        let d = b.add_node(Label(4));
        b.add_edge(a, c);
        b.add_edge(c, a);
        b.add_edge(a, d);
        let q = b.build();
        let mut buf = Vec::new();
        write_pattern_binary(&q, &mut buf).unwrap();
        let q2 = read_pattern_binary(&buf[..]).unwrap();
        assert_eq!(q, q2);
    }

    #[test]
    fn auto_reader_accepts_both_formats() {
        let g = sample_graph();
        let mut bin = Vec::new();
        write_graph_binary(&g, &mut bin).unwrap();
        let mut text = Vec::new();
        write_graph(&g, &mut text).unwrap();
        assert_eq!(read_graph_auto(&bin[..]).unwrap(), g);
        assert_eq!(read_graph_auto(&text[..]).unwrap(), g);
    }

    #[test]
    fn binary_truncation_is_typed_error_at_every_length() {
        let g = sample_graph();
        let mut buf = Vec::new();
        write_graph_binary(&g, &mut buf).unwrap();
        for len in 0..buf.len() {
            let err = read_graph_binary(&buf[..len]).unwrap_err();
            assert!(
                matches!(err, ParseError::Corrupt { .. }),
                "prefix of {len} bytes: expected Corrupt, got {err:?}"
            );
        }
    }

    #[test]
    fn binary_bad_magic_version_kind_rejected() {
        let g = sample_graph();
        let mut buf = Vec::new();
        write_graph_binary(&g, &mut buf).unwrap();

        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(read_graph_binary(&bad[..])
            .unwrap_err()
            .to_string()
            .contains("magic"));

        let mut bad = buf.clone();
        bad[4] = 99;
        assert!(read_graph_binary(&bad[..])
            .unwrap_err()
            .to_string()
            .contains("version"));

        // A pattern reader refuses a graph payload and vice versa.
        assert!(matches!(
            read_pattern_binary(&buf[..]).unwrap_err(),
            ParseError::Corrupt { .. }
        ));
    }

    #[test]
    fn binary_corrupt_counts_rejected_without_huge_alloc() {
        // Header declaring u64::MAX nodes must fail fast.
        let mut buf = Vec::new();
        buf.extend_from_slice(&BINARY_MAGIC);
        buf.push(BINARY_VERSION);
        buf.push(b'G');
        buf.extend_from_slice(&[0xff; 9]);
        buf.push(0x01); // node_count = huge varint
        buf.push(0x00); // edge_count = 0
        assert!(matches!(
            read_graph_binary(&buf[..]).unwrap_err(),
            ParseError::Corrupt { .. }
        ));
    }

    #[test]
    fn text_corrupt_counts_rejected_without_huge_alloc() {
        // An edge count no file holds must fail before it sizes a buffer.
        let err = read_graph("graph 1 1000000000000000\nn 0 0\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("found 1 and 0"), "{err}");
        // A declared count the edge lines do not reach is refused, as
        // the binary reader refuses it.
        let err = read_graph("graph 2 5\nn 0 0\nn 1 0\ne 0 1\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("5 edges, found 2 and 1"), "{err}");
        // More pattern nodes than `u16` ids: a typed error, not a panic.
        let mut text = String::from("pattern 70000 0\n");
        for u in 0..70_000 {
            writeln!(text, "n {u} 0").unwrap();
        }
        let err = read_pattern(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("exceeds u16 ids"), "{err}");
    }

    #[test]
    fn binary_out_of_range_edge_rejected() {
        // graph with 1 node, 1 edge pointing at node 7.
        let mut buf = Vec::new();
        buf.extend_from_slice(&BINARY_MAGIC);
        buf.push(BINARY_VERSION);
        buf.push(b'G');
        buf.push(1); // nodes
        buf.push(1); // edges
        buf.push(0); // label of node 0
        buf.push(1); // out-degree
        buf.push(7); // target 7: out of range
        let err = read_graph_binary(&buf[..]).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn binary_is_smaller_than_text_on_generated_graphs() {
        let g = crate::generate::random::uniform(500, 2_000, 8, 7);
        let (mut text, mut bin) = (Vec::new(), Vec::new());
        write_graph(&g, &mut text).unwrap();
        write_graph_binary(&g, &mut bin).unwrap();
        assert!(
            bin.len() * 2 < text.len(),
            "binary {} B should be well under half of text {} B",
            bin.len(),
            text.len()
        );
        assert_eq!(read_graph_binary(&bin[..]).unwrap(), g);
    }
}
