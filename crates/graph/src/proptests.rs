//! Property-based tests for the graph substrate.

use std::io::{BufRead, BufReader, ErrorKind, Read};

use proptest::prelude::*;

use crate::builder::build_from_edges;
use crate::io::{read_binary, read_edge_list, write_binary, write_edge_list};
use crate::subgraph::InducedSubgraph;
use crate::traversal::connected_components;
use crate::{CsrGraph, GraphError, VertexId};

/// Strategy: an arbitrary messy edge list over up to `max_n` vertices.
pub fn arb_edges(max_n: u32, max_m: usize) -> impl Strategy<Value = Vec<(VertexId, VertexId)>> {
    prop::collection::vec((0..max_n, 0..max_n), 0..max_m)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn builder_output_satisfies_invariants(edges in arb_edges(40, 200)) {
        let g = build_from_edges(edges, 0);
        prop_assert!(g.check_invariants().is_ok());
    }

    #[test]
    fn builder_preserves_edge_membership(edges in arb_edges(30, 100)) {
        let g = build_from_edges(edges.clone(), 0);
        for (u, v) in edges {
            if u != v {
                prop_assert!(g.has_edge(u, v));
                prop_assert!(g.has_edge(v, u));
            }
        }
    }

    #[test]
    fn text_io_roundtrip(edges in arb_edges(30, 100)) {
        let g = build_from_edges(edges, 0);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(&buf[..]).unwrap();
        prop_assert_eq!(g, g2);
    }

    #[test]
    fn binary_io_roundtrip(edges in arb_edges(30, 100)) {
        let g = build_from_edges(edges, 0);
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let g2 = read_binary(&buf[..]).unwrap();
        prop_assert_eq!(g, g2);
    }

    #[test]
    fn components_partition_vertices(edges in arb_edges(30, 100)) {
        let g = build_from_edges(edges, 0);
        let (labels, count) = connected_components(&g);
        // Every vertex labelled, labels dense in 0..count.
        for &l in &labels {
            prop_assert!((l as usize) < count);
        }
        // Endpoints of every edge share a label.
        for (u, v) in g.edges() {
            prop_assert_eq!(labels[u as usize], labels[v as usize]);
        }
    }

    #[test]
    fn induced_subgraph_edge_consistency(edges in arb_edges(25, 80), pick in prop::collection::vec(any::<bool>(), 25)) {
        let g = build_from_edges(edges, 25);
        let subset: Vec<VertexId> = (0..g.num_vertices() as VertexId)
            .filter(|&v| pick.get(v as usize).copied().unwrap_or(false))
            .collect();
        let s = InducedSubgraph::new(&g, &subset);
        prop_assert!(s.graph().check_invariants().is_ok());
        // Every induced edge exists in the original.
        for (a, b) in s.graph().edges() {
            prop_assert!(g.has_edge(s.original_id(a), s.original_id(b)));
        }
        // Every original edge inside the subset is induced.
        let in_subset: Vec<bool> = {
            let mut f = vec![false; g.num_vertices()];
            for &v in &subset { f[v as usize] = true; }
            f
        };
        let expected = g
            .edges()
            .filter(|&(u, v)| in_subset[u as usize] && in_subset[v as usize])
            .count();
        prop_assert_eq!(s.graph().num_edges(), expected);
    }
}

/// The line-at-a-time `String` reader that `read_edge_list` replaced,
/// kept as the oracle of the byte-level one. It differs on purpose in one
/// way: an `n=` header above 2^32 sizes the graph here (and aborts on
/// allocation) instead of failing to parse, so no test feeds it one.
fn oracle_read_edge_list<R: Read>(reader: R) -> Result<CsrGraph, GraphError> {
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    let buf = BufReader::new(reader);
    let mut line = String::new();
    let mut buf = buf;
    let mut lineno = 0usize;
    let mut min_vertices = 0usize;
    loop {
        line.clear();
        if buf.read_line(&mut line)? == 0 {
            break;
        }
        lineno += 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            // Our own writer records the vertex count in the header so
            // trailing isolated vertices survive a roundtrip; foreign
            // files without it lose nothing they could express.
            if let Some(n) = trimmed
                .split_whitespace()
                .find_map(|tok| tok.strip_prefix("n=").and_then(|x| x.parse().ok()))
            {
                min_vertices = min_vertices.max(n);
            }
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let u = oracle_parse_token(it.next(), lineno)?;
        let v = oracle_parse_token(it.next(), lineno)?;
        edges.push((u, v));
    }
    Ok(build_from_edges(edges, min_vertices))
}

fn oracle_parse_token(tok: Option<&str>, line: usize) -> Result<VertexId, GraphError> {
    let tok = tok.ok_or_else(|| GraphError::Parse {
        line,
        message: "expected two vertex ids".into(),
    })?;
    tok.parse::<VertexId>().map_err(|e| GraphError::Parse {
        line,
        message: format!("invalid vertex id {tok:?}: {e}"),
    })
}

/// Asserts that both readers agree on `input`: equal graphs, equal parse
/// errors (line and message), or I/O errors of the same kind. Returns the
/// number of edges read, or `None` on an error.
fn assert_readers_agree(input: &[u8]) -> Option<usize> {
    assert_readers_agree_through(input, |bytes| bytes)
}

/// As [`assert_readers_agree`], with each reader reading `wrap(input)`.
fn assert_readers_agree_through<'a, R: Read>(
    input: &'a [u8],
    wrap: impl Fn(&'a [u8]) -> R,
) -> Option<usize> {
    match (
        read_edge_list(wrap(input)),
        oracle_read_edge_list(wrap(input)),
    ) {
        (Ok(g), Ok(want)) => {
            assert_eq!(g, want, "graphs differ on {input:?}");
            return Some(g.num_edges());
        }
        (
            Err(GraphError::Parse { line, message }),
            Err(GraphError::Parse {
                line: want_line,
                message: want_message,
            }),
        ) => assert_eq!((line, message), (want_line, want_message), "on {input:?}"),
        (Err(GraphError::Io(e)), Err(GraphError::Io(want))) => {
            assert_eq!(e.kind(), want.kind(), "on {input:?}")
        }
        (got, want) => panic!("readers disagree on {input:?}: {got:?} vs {want:?}"),
    }
    None
}

/// SplitMix64: a seeded stream for the byte-level generators below.
fn splitmix(mut state: u64) -> impl FnMut() -> u64 {
    move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// The symbols of the random inputs: every byte class either reader
/// treats specially, a two-byte UTF-8 no-break space and an invalid byte.
const SYMBOLS: &[&[u8]] = &[
    b"0",
    b"1",
    b"2",
    b"3",
    b"4",
    b"5",
    b"6",
    b"7",
    b"8",
    b"9",
    b" ",
    b"\t",
    b"\r",
    b"\n",
    b"\x0b",
    b"#",
    b"%",
    b"+",
    b"-",
    b"x",
    b"n",
    b"=",
    b"\xc2\xa0",
    b"\xff",
];

/// A random input of up to `max_symbols` symbols with digit runs of at
/// most four, so every id or `n=` count stays below 10^4 vertices. Half
/// the symbols are digits, spaces or newlines, so that a share of the
/// inputs parse.
fn random_edge_text(next: &mut impl FnMut() -> u64, max_symbols: u64) -> Vec<u8> {
    const PLAIN: &[&[u8]] = &[b"1", b"2", b"3", b" ", b" ", b"\n"];
    let len = next() % (max_symbols + 1);
    let mut out = Vec::new();
    let mut digits = 0;
    for _ in 0..len {
        let sym = if next() % 2 == 0 {
            PLAIN[(next() % PLAIN.len() as u64) as usize]
        } else {
            SYMBOLS[(next() % SYMBOLS.len() as u64) as usize]
        };
        if sym[0].is_ascii_digit() {
            if digits == 4 {
                continue;
            }
            digits += 1;
        } else {
            digits = 0;
        }
        out.extend_from_slice(sym);
    }
    out
}

#[test]
fn readers_agree_on_random_byte_strings() {
    let mut next = splitmix(0x5eed_0018);
    let (mut graphs, mut with_edges) = (0, 0);
    for _ in 0..50_000 {
        if let Some(m) = assert_readers_agree(&random_edge_text(&mut next, 48)) {
            graphs += 1;
            with_edges += (m > 0) as usize;
        }
    }
    // Not only errors: a share of the inputs parse, some with edges.
    assert!(
        graphs > 3_000 && with_edges > 1_500,
        "{graphs} graphs, {with_edges} with edges"
    );
}

/// 58 bytes: headers with `n=`, CRLF, `\x0b`, extra columns, `+` signs,
/// a blank line, a `%` comment and a last line without newline.
const FIXTURE: &[u8] = b"# g n=12 m=7\r\n0\x0b1\r\n1 2 7 w\n+3\t4\n\n% n=3\n 10  11 x\r\n8 +9\n5 6";

#[test]
fn readers_agree_on_every_byte_substitution_and_truncation_of_a_fixture() {
    assert_readers_agree(FIXTURE);
    let mut input = FIXTURE.to_vec();
    for at in 0..FIXTURE.len() {
        for b in 0..=255u8 {
            input[at] = b;
            assert_readers_agree(&input);
        }
        input[at] = FIXTURE[at];
    }
    for cut in 0..FIXTURE.len() {
        assert_readers_agree(&FIXTURE[..cut]);
    }
}

/// Serves a slice in reads of 1, 2, 3, … 7 bytes, with an `Interrupted`
/// error before every third one.
struct ShortReads<'a> {
    data: &'a [u8],
    calls: usize,
}

impl Read for ShortReads<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.calls += 1;
        if self.calls % 3 == 0 {
            return Err(ErrorKind::Interrupted.into());
        }
        let n = (self.calls % 7 + 1).min(buf.len()).min(self.data.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

fn short_reads(data: &[u8]) -> ShortReads<'_> {
    ShortReads { data, calls: 0 }
}

/// Serves a slice whole, then fails with a non-retryable error.
struct FailsAtEnd<'a>(&'a [u8]);

impl Read for FailsAtEnd<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.0.is_empty() {
            return Err(ErrorKind::BrokenPipe.into());
        }
        let n = buf.len().min(self.0.len());
        buf[..n].copy_from_slice(&self.0[..n]);
        self.0 = &self.0[n..];
        Ok(n)
    }
}

#[test]
fn readers_agree_on_short_reads_and_failing_reads() {
    assert_readers_agree_through(FIXTURE, short_reads);
    let mut next = splitmix(0x5eed_0019);
    for _ in 0..500 {
        let input = random_edge_text(&mut next, 48);
        assert_readers_agree_through(&input, short_reads);
        assert_readers_agree_through(&input, FailsAtEnd);
    }
    for cut in 0..FIXTURE.len() {
        assert_readers_agree_through(&FIXTURE[..cut], FailsAtEnd);
    }
}

#[test]
fn readers_agree_on_lines_longer_than_the_window() {
    // Lines of 70 KB and 200 KB: past one and two doublings of the 64 KiB
    // window, as an extra column, a comment and a malformed id.
    for len in [70_000, 200_000] {
        let pad = " 7".repeat(len / 2);
        let digits = "1".repeat(len);
        for input in [
            format!("0 1{pad}\n2 3\n"),
            format!("# n=5{pad}\n0 1"),
            format!("0 1\n2 {digits}\n"),
            format!("0 {}1\n", "0".repeat(len)),
            format!("{pad}\n\n4 5{pad}"),
        ] {
            assert_readers_agree(input.as_bytes());
            assert_readers_agree_through(input.as_bytes(), FailsAtEnd);
        }
    }
}

#[test]
fn readers_agree_on_a_file_spanning_many_windows() {
    // 40 000 lines of mixed shapes, so lines straddle every window
    // boundary, read whole and in short reads.
    let mut next = splitmix(0x5eed_001a);
    let mut text = String::from("# n=9000\n");
    for i in 0..40_000u64 {
        let (u, v) = (next() % 8000, next() % 8000);
        text.push_str(&match i % 5 {
            0 => format!("{u} {v}\n"),
            1 => format!("{u}\t{v}\t{}\r\n", next()),
            2 => format!("  +{u}  {v}  \n"),
            3 => format!("{u} {v} \u{a0}weight\n"),
            _ => format!("% {u}\n{u}\x0b{v}\n"),
        });
    }
    assert_readers_agree(text.as_bytes());
    assert_readers_agree_through(text.as_bytes(), short_reads);
}
