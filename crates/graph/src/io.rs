//! Graph readers and writers.
//!
//! Two formats are supported:
//!
//! * **Text edge list** — one `u v` pair per line, `#`/`%` comments, any
//!   whitespace separator. This is the format SNAP and most public graph
//!   repositories distribute. The grammar is given below.
//! * **Compact binary** — a little-endian dump of the CSR arrays with a
//!   magic header, for fast reload of generated benchmark graphs. Two
//!   versions exist: v1 (`HCDCSR01`, legacy, unchecksummed) and v2
//!   (`HCDCSR02`, written by default, with a CRC32 over the payload so
//!   bit rot and torn writes are detected on load). `read_binary`
//!   auto-detects the version; errors are typed ([`IoFormatError`]) so
//!   callers can tell truncation (torn write) from corruption.
//!
//! # Text grammar
//!
//! The input is split into lines at `\n`; lines are numbered from 1, and
//! a last line without a newline still counts. Each line is trimmed of
//! whitespace (Unicode `White_Space`, so `\r`, `\x0b`, `\x0c` and
//! U+00A0 too). Then:
//!
//! * an empty line is skipped;
//! * a line starting with `#` or `%` is a comment. Its first
//!   whitespace-separated token `n=<count>`, with `<count>` an unsigned
//!   decimal integer, raises the vertex count to at least `<count>`, so
//!   trailing isolated vertices survive a roundtrip. Tokens `n=` with
//!   other text are ignored. A count above 2^32, more than `u32` ids can name, is a
//!   [`GraphError::Parse`] at that line;
//! * any other line holds two vertex ids, each an optional `+` followed
//!   by decimal digits with a value of at most `u32::MAX`. Further tokens
//!   (weights, timestamps) are ignored. A missing or malformed id is a
//!   [`GraphError::Parse`] at that line.
//!
//! Input that is not UTF-8 fails with `GraphError::Io` of kind
//! `InvalidData`. Errors are reported for the first failing line.
//!
//! [`read_edge_list`] reads through one 64 KiB window and parses each
//! all-ASCII line with a byte loop. A line holding any byte ≥ 0x80 goes
//! through the `str` tokenizer instead, as does any ASCII line the byte
//! loop does not take as a plain edge (blank lines, comments, malformed
//! ids). That tokenizer alone decides errors and Unicode whitespace.

use std::fs::File;
use std::io::{BufReader, BufWriter, ErrorKind, Read, Write};
use std::num::IntErrorKind;
use std::path::Path;

use crate::builder::build_from_edges;
use crate::crc32::crc32;
use crate::csr::{CsrGraph, VertexId};
use crate::error::{GraphError, IoFormatError};

/// Magic tag of the legacy (unchecksummed) binary format.
pub const BINARY_MAGIC_V1: &[u8; 8] = b"HCDCSR01";
/// Magic tag of the checksummed binary format: the payload that follows
/// the magic + CRC header is covered by a CRC32.
pub const BINARY_MAGIC_V2: &[u8; 8] = b"HCDCSR02";

/// Fixed bytes of the v1/v2 payload before the variable-length arrays:
/// vertex count `u64` + arc count `u64`.
const PAYLOAD_HEADER_LEN: u64 = 16;

/// Bytes the text reader reads at a time. The window doubles only when a
/// single line is longer than it.
const WINDOW: usize = 64 * 1024;

/// The largest vertex count an `n=` header may raise the graph to: the
/// number of `u32` ids.
const MAX_VERTICES: u64 = 1 << 32;

/// Parses a text edge list from any reader.
///
/// Lines starting with `#` or `%` and blank lines are skipped. Each data
/// line must contain at least two integer tokens; extra tokens (e.g.
/// weights or timestamps) are ignored. The result is symmetrized and
/// deduplicated. The module docs give the full grammar.
pub fn read_edge_list<R: Read>(mut reader: R) -> Result<CsrGraph, GraphError> {
    let mut lines = EdgeLines::default();
    let mut window = vec![0u8; WINDOW];
    // `window[..filled]` is the unfinished last line: it holds no `\n`.
    let mut filled = 0;
    loop {
        if filled == window.len() {
            window.resize(2 * filled, 0);
        }
        let read = match reader.read(&mut window[filled..]) {
            Ok(0) => break,
            Ok(read) => read,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        };
        let end = filled + read;
        let mut start = 0;
        let mut scan = filled;
        while let Some(nl) = window[scan..end].iter().position(|&b| b == b'\n') {
            lines.parse(&window[start..scan + nl])?;
            start = scan + nl + 1;
            scan = start;
        }
        window.copy_within(start..end, 0);
        filled = end - start;
    }
    if filled > 0 {
        lines.parse(&window[..filled])?;
    }
    Ok(build_from_edges(lines.edges, lines.min_vertices))
}

/// The state of a text edge list parse, fed one line at a time.
#[derive(Default)]
struct EdgeLines {
    edges: Vec<(VertexId, VertexId)>,
    min_vertices: usize,
    lineno: usize,
}

impl EdgeLines {
    /// Parses the next line, without its `\n`.
    fn parse(&mut self, line: &[u8]) -> Result<(), GraphError> {
        self.lineno += 1;
        if line.is_ascii() {
            if let Some(edge) = ascii_edge(line) {
                self.edges.push(edge);
                return Ok(());
            }
        }
        let text = std::str::from_utf8(line).map_err(|_| {
            std::io::Error::new(ErrorKind::InvalidData, "stream did not contain valid UTF-8")
        })?;
        self.parse_text(text)
    }

    /// The `str` tokenizer: the authority on comments, Unicode whitespace
    /// and every error.
    fn parse_text(&mut self, line: &str) -> Result<(), GraphError> {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            // Our own writer records the vertex count in the header so
            // trailing isolated vertices survive a roundtrip; foreign
            // files without it lose nothing they could express.
            for tok in trimmed.split_whitespace() {
                let Some(count) = tok.strip_prefix("n=") else {
                    continue;
                };
                let n = match count.parse::<usize>() {
                    Ok(n) if n as u64 <= MAX_VERTICES => n,
                    Err(e) if *e.kind() != IntErrorKind::PosOverflow => continue,
                    _ => {
                        return Err(GraphError::Parse {
                            line: self.lineno,
                            message: format!("vertex count {tok:?} exceeds the 2^32 ids of u32"),
                        })
                    }
                };
                self.min_vertices = self.min_vertices.max(n);
                break;
            }
            return Ok(());
        }
        let mut it = trimmed.split_whitespace();
        let u = parse_token(it.next(), self.lineno)?;
        let v = parse_token(it.next(), self.lineno)?;
        self.edges.push((u, v));
        Ok(())
    }
}

fn parse_token(tok: Option<&str>, line: usize) -> Result<VertexId, GraphError> {
    let tok = tok.ok_or_else(|| GraphError::Parse {
        line,
        message: "expected two vertex ids".into(),
    })?;
    tok.parse::<VertexId>().map_err(|e| GraphError::Parse {
        line,
        message: format!("invalid vertex id {tok:?}: {e}"),
    })
}

/// Whitespace as `char::is_whitespace` defines it on ASCII.
#[inline]
fn is_space(b: u8) -> bool {
    b == b' ' || (b'\t'..=b'\r').contains(&b)
}

#[inline]
fn skip_spaces(line: &[u8], mut i: usize) -> usize {
    while i < line.len() && is_space(line[i]) {
        i += 1;
    }
    i
}

/// The two ids an ASCII edge line starts with; `None` leaves the line
/// (blank, comment or malformed) to the `str` tokenizer.
#[inline]
fn ascii_edge(line: &[u8]) -> Option<(VertexId, VertexId)> {
    let (u, i) = ascii_id(line, skip_spaces(line, 0))?;
    let (v, _) = ascii_id(line, skip_spaces(line, i))?;
    Some((u, v))
}

/// The id token at `line[i..]` and the index just past it, if it is an
/// optional `+` and digits, ends at whitespace or the line end, and fits
/// a `u32` — what `u32::from_str` accepts, on ASCII.
#[inline]
fn ascii_id(line: &[u8], mut i: usize) -> Option<(VertexId, usize)> {
    if line.get(i) == Some(&b'+') {
        i += 1;
    }
    let digits = i;
    let mut id: VertexId = 0;
    while let Some(&b) = line.get(i) {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            break;
        }
        id = id.checked_mul(10)?.checked_add(d as VertexId)?;
        i += 1;
    }
    let ends = line.get(i).map_or(true, |&b| is_space(b));
    (i > digits && ends).then_some((id, i))
}

/// Reads a text edge list from a file path.
pub fn read_edge_list_file<P: AsRef<Path>>(path: P) -> Result<CsrGraph, GraphError> {
    read_edge_list(File::open(path)?)
}

/// Writes a graph as a text edge list (each undirected edge once).
pub fn write_edge_list<W: Write>(g: &CsrGraph, writer: W) -> Result<(), GraphError> {
    let mut w = BufWriter::new(writer);
    writeln!(
        w,
        "# hcd edge list: n={} m={}",
        g.num_vertices(),
        g.num_edges()
    )?;
    for (u, v) in g.edges() {
        writeln!(w, "{u} {v}")?;
    }
    w.flush()?;
    Ok(())
}

/// Serializes the CSR payload shared by both binary format versions:
/// `n u64 | arcs u64 | offsets (n+1)×u64 | neighbors arcs×u32`, all
/// little-endian.
fn binary_payload(g: &CsrGraph) -> Vec<u8> {
    let mut payload = Vec::with_capacity(
        PAYLOAD_HEADER_LEN as usize + (g.num_vertices() + 1) * 8 + g.num_arcs() * 4,
    );
    payload.extend_from_slice(&(g.num_vertices() as u64).to_le_bytes());
    payload.extend_from_slice(&(g.num_arcs() as u64).to_le_bytes());
    for &off in g.offsets() {
        payload.extend_from_slice(&(off as u64).to_le_bytes());
    }
    for &nb in g.raw_neighbors() {
        payload.extend_from_slice(&nb.to_le_bytes());
    }
    payload
}

/// Writes the checksummed (v2) binary CSR format: magic, CRC32 of the
/// payload, payload. This is the format all new files are written in.
pub fn write_binary<W: Write>(g: &CsrGraph, writer: W) -> Result<(), GraphError> {
    let mut w = BufWriter::new(writer);
    let payload = binary_payload(g);
    w.write_all(BINARY_MAGIC_V2)?;
    w.write_all(&crc32(&payload).to_le_bytes())?;
    w.write_all(&payload)?;
    w.flush()?;
    Ok(())
}

/// Writes the legacy (v1, unchecksummed) binary format. Kept so the
/// v1 read path stays covered by tests and old tooling can be fed.
pub fn write_binary_v1<W: Write>(g: &CsrGraph, writer: W) -> Result<(), GraphError> {
    let mut w = BufWriter::new(writer);
    w.write_all(BINARY_MAGIC_V1)?;
    w.write_all(&binary_payload(g))?;
    w.flush()?;
    Ok(())
}

/// Writes the compact binary CSR format to a file path.
pub fn write_binary_file<P: AsRef<Path>>(g: &CsrGraph, path: P) -> Result<(), GraphError> {
    write_binary(g, File::create(path)?)
}

/// Reads the compact binary CSR format (either version), validating the
/// checksum (v2) and all structural invariants.
///
/// The whole stream is buffered before parsing; vectors only ever grow
/// to the number of bytes actually present, so a corrupt header claiming
/// `2^60` arcs fails with a typed [`IoFormatError::TooShort`] before any
/// payload allocation.
pub fn read_binary<R: Read>(reader: R) -> Result<CsrGraph, GraphError> {
    let mut r = BufReader::new(reader);
    let mut magic = [0u8; 8];
    read_exact_or(&mut r, &mut magic, "magic header")?;
    match &magic {
        m if m == BINARY_MAGIC_V1 => {
            let mut payload = Vec::new();
            r.read_to_end(&mut payload)?;
            // v1 streams historically tolerated trailing bytes; keep that.
            parse_binary_payload(&payload, false)
        }
        m if m == BINARY_MAGIC_V2 => {
            let mut crc_buf = [0u8; 4];
            read_exact_or(&mut r, &mut crc_buf, "payload checksum")?;
            let expected = u32::from_le_bytes(crc_buf);
            let mut payload = Vec::new();
            r.read_to_end(&mut payload)?;
            // Size classification first: a short payload is a torn write
            // (TooShort), not corruption, even though its CRC also fails.
            let g = parse_binary_payload(&payload, true)?;
            let actual = crc32(&payload);
            if actual != expected {
                return Err(IoFormatError::CrcMismatch { expected, actual }.into());
            }
            Ok(g)
        }
        _ => Err(IoFormatError::BadMagic(magic).into()),
    }
}

/// Parses the shared CSR payload, checking header-implied size against
/// the bytes actually present *before* allocating the arrays.
fn parse_binary_payload(payload: &[u8], strict_len: bool) -> Result<CsrGraph, GraphError> {
    if payload.len() < PAYLOAD_HEADER_LEN as usize {
        return Err(IoFormatError::Truncated {
            context: "count header",
        }
        .into());
    }
    let n_raw = u64::from_le_bytes(payload[0..8].try_into().unwrap());
    let arcs_raw = u64::from_le_bytes(payload[8..16].try_into().unwrap());
    // Header sanity before any allocation: vertex ids are u32, and both
    // counts must be addressable on this platform (with room for n + 1
    // offsets).
    if n_raw > u32::MAX as u64 {
        return Err(IoFormatError::CountOverflow {
            what: "vertex",
            value: n_raw,
        }
        .into());
    }
    let n = usize::try_from(n_raw)
        .ok()
        .filter(|n| n.checked_add(1).is_some())
        .ok_or(IoFormatError::CountOverflow {
            what: "vertex",
            value: n_raw,
        })?;
    let arcs = usize::try_from(arcs_raw).map_err(|_| IoFormatError::CountOverflow {
        what: "arc",
        value: arcs_raw,
    })?;
    // Reject headers that imply more bytes than are present before any
    // array allocation: a fabricated count can ask for terabytes, but the
    // actual byte count bounds what we will ever allocate.
    let needed = PAYLOAD_HEADER_LEN
        .checked_add(
            (n as u64 + 1)
                .checked_mul(8)
                .ok_or(IoFormatError::CountOverflow {
                    what: "vertex",
                    value: n_raw,
                })?,
        )
        .and_then(|b| b.checked_add((arcs as u64).checked_mul(4)?))
        .ok_or(IoFormatError::CountOverflow {
            what: "arc",
            value: arcs_raw,
        })?;
    let actual = payload.len() as u64;
    if actual < needed {
        return Err(IoFormatError::TooShort { needed, actual }.into());
    }
    if strict_len && actual > needed {
        return Err(IoFormatError::Invalid(format!(
            "{} trailing bytes after payload",
            actual - needed
        ))
        .into());
    }
    let mut offsets = Vec::with_capacity(n + 1);
    let mut prev = 0u64;
    let mut cursor = PAYLOAD_HEADER_LEN as usize;
    for i in 0..=n {
        let off = u64::from_le_bytes(payload[cursor..cursor + 8].try_into().unwrap());
        cursor += 8;
        if off < prev {
            return Err(IoFormatError::Invalid(format!(
                "offset {off} at index {i} decreases (previous {prev})"
            ))
            .into());
        }
        if off > arcs_raw {
            return Err(IoFormatError::Invalid(format!(
                "offset {off} at index {i} exceeds arc count {arcs_raw}"
            ))
            .into());
        }
        prev = off;
        offsets.push(off as usize);
    }
    if offsets.first() != Some(&0) || offsets.last() != Some(&arcs) {
        return Err(IoFormatError::Invalid("inconsistent offsets".into()).into());
    }
    let mut neighbors = Vec::with_capacity(arcs);
    for _ in 0..arcs {
        let nb = u32::from_le_bytes(payload[cursor..cursor + 4].try_into().unwrap());
        cursor += 4;
        if nb as usize >= n {
            return Err(IoFormatError::Invalid(format!(
                "neighbor id {nb} out of range for {n} vertices"
            ))
            .into());
        }
        neighbors.push(nb);
    }
    let g = CsrGraph::from_csr(offsets, neighbors);
    g.check_invariants()
        .map_err(|m| GraphError::Binary(IoFormatError::Invalid(m)))?;
    Ok(g)
}

/// Reads the compact binary CSR format from a file path.
pub fn read_binary_file<P: AsRef<Path>>(path: P) -> Result<CsrGraph, GraphError> {
    read_binary(File::open(path)?)
}

/// Like `read_exact` but maps the short-read case to a typed truncation
/// error instead of a bare `UnexpectedEof` io error.
fn read_exact_or<R: Read>(
    r: &mut R,
    buf: &mut [u8],
    context: &'static str,
) -> Result<(), GraphError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            GraphError::Binary(IoFormatError::Truncated { context })
        } else {
            GraphError::Io(e)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn sample() -> CsrGraph {
        GraphBuilder::new()
            .edges([(0, 1), (1, 2), (2, 0), (2, 3), (4, 5)])
            .build()
    }

    #[test]
    fn text_roundtrip() {
        let g = sample();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(&buf[..]).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn text_parses_comments_and_extra_columns() {
        let text = "# comment\n% another\n\n0 1 42 weight\n1 2\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 2);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 2));
    }

    #[test]
    fn text_reports_parse_error_with_line() {
        let text = "0 1\nx y\n";
        match read_edge_list(text.as_bytes()) {
            Err(GraphError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn text_requires_two_tokens() {
        let text = "0\n";
        assert!(matches!(
            read_edge_list(text.as_bytes()),
            Err(GraphError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn text_accepts_ascii_whitespace_plus_signs_and_a_final_line_without_newline() {
        let text = "\x0b 0\t+1\r\n\x0c\n+2   3 junk\n4 5";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 3);
        assert!(g.has_edge(0, 1) && g.has_edge(2, 3) && g.has_edge(4, 5));
    }

    #[test]
    fn text_rejects_ids_beyond_u32_signs_and_glued_tokens() {
        for (text, line) in [
            ("0 1\n4294967296 0\n", 2),
            ("-1 2\n", 1),
            ("+ 2\n", 1),
            ("1 2x\n", 1),
            ("0 1\n\n1#2 3\n", 3),
        ] {
            match read_edge_list(text.as_bytes()) {
                Err(GraphError::Parse { line: got, .. }) => assert_eq!(got, line, "{text:?}"),
                other => panic!("{text:?}: expected parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn text_vertex_count_header_is_bounded_by_the_id_space() {
        let g = read_edge_list("# hcd edge list: n=9 m=1\n0 1\n".as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 9);
        // Foreign `n=` tokens that are not counts are still ignored.
        let g = read_edge_list("# n=abc n= n=4\n0 1\n".as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 4);
        for header in ["n=99999999999", "n=4294967297", "n=99999999999999999999999"] {
            let text = format!("0 1\n% {header}\n");
            match read_edge_list(text.as_bytes()) {
                Err(GraphError::Parse { line: 2, message }) => {
                    assert!(message.contains(header), "{message}")
                }
                other => panic!("{header}: expected parse error at line 2, got {other:?}"),
            }
        }
    }

    #[test]
    fn text_rejects_invalid_utf8_as_io_error() {
        match read_edge_list(&b"0 1\n1 \xff2\n"[..]) {
            Err(GraphError::Io(e)) => assert_eq!(e.kind(), ErrorKind::InvalidData),
            other => panic!("expected InvalidData, got {other:?}"),
        }
    }

    #[test]
    fn binary_roundtrip() {
        let g = sample();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        assert_eq!(&buf[..8], BINARY_MAGIC_V2);
        let g2 = read_binary(&buf[..]).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn binary_v1_files_still_load() {
        let g = sample();
        let mut buf = Vec::new();
        write_binary_v1(&g, &mut buf).unwrap();
        assert_eq!(&buf[..8], BINARY_MAGIC_V1);
        let g2 = read_binary(&buf[..]).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let buf = b"NOTMAGIC".to_vec();
        match read_binary(&buf[..]) {
            Err(GraphError::Binary(IoFormatError::BadMagic(m))) => assert_eq!(&m, b"NOTMAGIC"),
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn binary_rejects_truncation_as_typed_truncation() {
        let g = sample();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        match read_binary(&buf[..]) {
            Err(GraphError::Binary(e)) => assert!(e.is_truncation(), "got {e:?}"),
            other => panic!("expected typed truncation, got {other:?}"),
        }
    }

    #[test]
    fn binary_rejects_truncation_at_every_header_byte_offset() {
        // Chop a valid file at every byte offset of the (magic + crc +
        // count) header region, for both format versions. Every prefix
        // must fail with a typed truncation-class error — never a panic,
        // never an allocation driven by a half-read count.
        let g = sample();
        for version in ["v1", "v2"] {
            let mut buf = Vec::new();
            if version == "v1" {
                write_binary_v1(&g, &mut buf).unwrap();
            } else {
                write_binary(&g, &mut buf).unwrap();
            }
            let header_len = if version == "v1" { 8 + 16 } else { 8 + 4 + 16 };
            for cut in 0..header_len {
                let prefix = &buf[..cut];
                match read_binary(prefix) {
                    Err(GraphError::Binary(e)) => assert!(
                        e.is_truncation(),
                        "{version} cut at {cut}: expected truncation, got {e:?}"
                    ),
                    other => panic!("{version} cut at {cut}: expected Err, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn binary_rejects_header_implying_more_bytes_than_present() {
        // A plausible small header whose counts nonetheless exceed the
        // actual byte count must fail with TooShort before allocating.
        let mut buf = BINARY_MAGIC_V1.to_vec();
        buf.extend_from_slice(&8u64.to_le_bytes()); // n = 8
        buf.extend_from_slice(&1_000_000u64.to_le_bytes()); // arcs = 1e6
        buf.extend_from_slice(&[0u8; 64]); // nowhere near enough payload
        match read_binary(&buf[..]) {
            Err(GraphError::Binary(IoFormatError::TooShort { needed, actual })) => {
                assert!(needed > actual, "needed {needed} vs actual {actual}");
            }
            other => panic!("expected TooShort, got {other:?}"),
        }
    }

    #[test]
    fn binary_v2_detects_payload_corruption_via_crc() {
        let g = sample();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        // Flip one bit in the neighbor array (last payload byte region)
        // such that the file still parses structurally.
        let last = buf.len() - 1;
        buf[last] ^= 0x01;
        match read_binary(&buf[..]) {
            Err(GraphError::Binary(e)) => assert!(!e.is_truncation(), "got {e:?}"),
            other => panic!("expected corruption error, got {other:?}"),
        }
        // Flip a bit in the stored CRC itself: payload parses fine, the
        // checksum comparison must catch it.
        buf[last] ^= 0x01;
        buf[9] ^= 0x80;
        match read_binary(&buf[..]) {
            Err(GraphError::Binary(IoFormatError::CrcMismatch { .. })) => {}
            other => panic!("expected CrcMismatch, got {other:?}"),
        }
    }

    #[test]
    fn binary_rejects_giant_header_counts_without_allocating() {
        // Claims u32::MAX vertices / near-u64::MAX arcs with no payload.
        // Must return Err promptly instead of preallocating terabytes.
        let mut buf = BINARY_MAGIC_V1.to_vec();
        buf.extend_from_slice(&(u32::MAX as u64).to_le_bytes());
        buf.extend_from_slice(&(u64::MAX / 2).to_le_bytes());
        assert!(read_binary(&buf[..]).is_err());

        // Vertex count beyond the u32 id space is rejected by the header
        // sanity check itself.
        let mut buf = BINARY_MAGIC_V1.to_vec();
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        match read_binary(&buf[..]) {
            Err(GraphError::Binary(IoFormatError::CountOverflow { what, .. })) => {
                assert_eq!(what, "vertex")
            }
            other => panic!("expected CountOverflow, got {other:?}"),
        }
    }

    #[test]
    fn binary_rejects_decreasing_and_overflowing_offsets() {
        // n=2, arcs=2, offsets [0, 3, 2]: 3 > arcs and 2 < 3.
        let mut buf = BINARY_MAGIC_V1.to_vec();
        buf.extend_from_slice(&2u64.to_le_bytes());
        buf.extend_from_slice(&2u64.to_le_bytes());
        for off in [0u64, 3, 2] {
            buf.extend_from_slice(&off.to_le_bytes());
        }
        buf.extend_from_slice(&[0u8; 8]); // neighbor bytes so length adds up
        match read_binary(&buf[..]) {
            Err(GraphError::Binary(IoFormatError::Invalid(msg))) => {
                assert!(msg.contains("exceeds arc count"))
            }
            other => panic!("expected format error, got {other:?}"),
        }
    }

    #[test]
    fn binary_rejects_out_of_range_neighbor() {
        // n=2, arcs=2, valid offsets, but a neighbor id of 7.
        let mut buf = BINARY_MAGIC_V1.to_vec();
        buf.extend_from_slice(&2u64.to_le_bytes());
        buf.extend_from_slice(&2u64.to_le_bytes());
        for off in [0u64, 1, 2] {
            buf.extend_from_slice(&off.to_le_bytes());
        }
        buf.extend_from_slice(&7u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        match read_binary(&buf[..]) {
            Err(GraphError::Binary(IoFormatError::Invalid(msg))) => {
                assert!(msg.contains("out of range"))
            }
            other => panic!("expected format error, got {other:?}"),
        }
    }

    #[test]
    fn binary_survives_random_corrupt_headers() {
        // Fuzz-style: seeded SplitMix64 generates random headers (valid
        // magic, adversarial counts) followed by random payload bytes.
        // Every outcome must be a clean Err — no panic, no abort, no
        // giant allocation. Valid graphs are astronomically unlikely from
        // random bytes, and the assertions below would catch one anyway.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        };
        for round in 0..400 {
            // Alternate between the two magics so both read paths face
            // the same adversarial headers.
            let magic = if round % 2 == 0 {
                BINARY_MAGIC_V1
            } else {
                BINARY_MAGIC_V2
            };
            let mut buf = magic.to_vec();
            // Mix of plausible-small and absurd-large header counts.
            let n = match round % 4 {
                0 => next() % 16,
                1 => next(),
                2 => u32::MAX as u64 + next() % 1024,
                _ => next() % (1 << 40),
            };
            let arcs = match round % 3 {
                0 => next() % 32,
                1 => next(),
                _ => next() % (1 << 50),
            };
            if magic == BINARY_MAGIC_V2 {
                buf.extend_from_slice(&(next() as u32).to_le_bytes());
            }
            buf.extend_from_slice(&n.to_le_bytes());
            buf.extend_from_slice(&arcs.to_le_bytes());
            let tail = (next() % 256) as usize;
            for _ in 0..tail {
                buf.push(next() as u8);
            }
            assert!(
                read_binary(&buf[..]).is_err(),
                "round {round}: corrupt header (n={n}, arcs={arcs}, tail={tail}) was accepted"
            );
        }
    }

    #[test]
    fn binary_survives_truncation_at_every_offset_of_small_file() {
        // Beyond the header: truncating a full valid v2 file at *every*
        // byte offset must yield a typed error, never a panic.
        let g = sample();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        for cut in 0..buf.len() {
            assert!(
                read_binary(&buf[..cut]).is_err(),
                "prefix of {cut} bytes was accepted"
            );
        }
    }

    #[test]
    fn file_roundtrip() {
        let g = sample();
        let dir = std::env::temp_dir();
        let path = dir.join("hcd_io_test.bin");
        write_binary_file(&g, &path).unwrap();
        let g2 = read_binary_file(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(g, g2);
    }
}
