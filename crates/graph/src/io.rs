//! Plain-text edge-list reading and writing.
//!
//! The format is one `src dst` pair per line (whitespace separated), with
//! optional `#`-prefixed comment lines — the same convention as SNAP data
//! sets. A `#` after the columns starts an inline comment that runs to the
//! end of the line. An optional third column carries an integer edge
//! weight, returned as an aligned weight vector.
//!
//! Malformed lines (non-numeric ids, a missing endpoint, ids overflowing
//! `u32` or equal to `u32::MAX`, which the runtime reserves for NIL, extra
//! columns) are reported with their 1-based line number and a
//! reason. Under the default [`LoadPolicy::Strict`] the first such line
//! aborts the load; [`LoadPolicy::SkipAndCount`] skips them, counting the
//! damage in [`LoadStats`] so callers can decide whether a partially-dirty
//! file is acceptable.
//!
//! Line endings are handled exactly: `\n` and `\r\n` terminate lines, a
//! final line without any terminator (or with a bare trailing `\r`) still
//! counts as a line, and a leading UTF-8 byte-order mark is stripped — so
//! Windows-saved files load identically to Unix ones and malformed-line
//! reports never drift by a line or carry a stray `\r`.

use crate::{Graph, GraphBuilder};
use std::error::Error;
use std::fmt;
use std::io::{BufRead, BufReader, Read, Write};
use std::num::IntErrorKind;
use std::path::Path;

/// Error produced while parsing an edge list.
#[derive(Debug)]
pub enum ParseGraphError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A line that is neither a comment nor a valid edge.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// The offending text.
        text: String,
        /// Which rule the line broke.
        reason: &'static str,
    },
}

impl fmt::Display for ParseGraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseGraphError::Io(e) => write!(f, "i/o error reading edge list: {e}"),
            ParseGraphError::Malformed { line, text, reason } => {
                write!(f, "malformed edge list line {line} ({reason}): {text:?}")
            }
        }
    }
}

impl Error for ParseGraphError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ParseGraphError::Io(e) => Some(e),
            ParseGraphError::Malformed { .. } => None,
        }
    }
}

impl From<std::io::Error> for ParseGraphError {
    fn from(e: std::io::Error) -> Self {
        ParseGraphError::Io(e)
    }
}

/// How the loader treats malformed lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LoadPolicy {
    /// The first malformed line aborts the load with
    /// [`ParseGraphError::Malformed`] (the default).
    #[default]
    Strict,
    /// Malformed lines are skipped; the count (and the first offender, for
    /// diagnostics) is reported in [`LoadStats`].
    SkipAndCount,
}

/// What one load saw, reported alongside the graph.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoadStats {
    /// Total lines read, including blanks and comments.
    pub lines_read: u64,
    /// Edges actually loaded into the graph.
    pub edges_loaded: u64,
    /// Malformed lines skipped (always `0` under [`LoadPolicy::Strict`] —
    /// the first one aborts instead).
    pub lines_skipped: u64,
    /// The first skipped line, kept so a skipping loader can still point
    /// at concrete evidence of a dirty file.
    pub first_skipped: Option<MalformedLine>,
}

/// One offending line: position, text, and which rule it broke.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MalformedLine {
    /// 1-based line number.
    pub line: usize,
    /// The offending text (comment-stripped).
    pub text: String,
    /// Which rule the line broke.
    pub reason: &'static str,
}

/// Result of [`read_edge_list`]: the graph plus per-edge weights (all `1` if
/// the input had no weight column). Weights are aligned with [`crate::EdgeId`]s.
#[derive(Debug, Clone)]
pub struct LoadedGraph {
    /// The parsed graph.
    pub graph: Graph,
    /// Weight of each edge, in edge-id order.
    pub weights: Vec<i64>,
    /// Line/skip accounting for this load.
    pub stats: LoadStats,
}

/// Parses one vertex id, distinguishing "not a number" from "a number that
/// does not fit a `u32` id" (SNAP files with 64-bit ids would otherwise be
/// reported as garbage). `u32::MAX` is refused too: it is the runtime's
/// NIL, and the vertex count `1 + max id` must fit a `u32`.
fn parse_id(tok: &str) -> Result<u32, &'static str> {
    match tok.parse::<u64>() {
        Ok(v) if v < u32::MAX as u64 => Ok(v as u32),
        Ok(v) if v == u32::MAX as u64 => Err("vertex id 4294967295 is reserved for NIL"),
        Ok(_) => Err("vertex id overflows u32"),
        Err(e) if *e.kind() == IntErrorKind::PosOverflow => Err("vertex id overflows u32"),
        Err(_) => Err("vertex id is not an unsigned integer"),
    }
}

/// Parses one comment-stripped, non-empty line into `(src, dst, weight)`.
fn parse_edge_line(trimmed: &str) -> Result<(u32, u32, i64), &'static str> {
    let mut it = trimmed.split_whitespace();
    let src = parse_id(it.next().ok_or("missing source vertex")?)?;
    let dst = parse_id(it.next().ok_or("missing destination vertex")?)?;
    let w: i64 = match it.next() {
        Some(tok) => tok
            .parse()
            .map_err(|_| "edge weight is not a 64-bit integer")?,
        None => 1,
    };
    if it.next().is_some() {
        return Err("too many columns");
    }
    Ok((src, dst, w))
}

/// Reads an edge list from `reader`. Vertex count is `1 + max id` seen.
/// Equivalent to [`read_edge_list_with`] under [`LoadPolicy::Strict`].
///
/// A `reader` can be passed by mutable reference as well as by value.
///
/// # Errors
///
/// Returns [`ParseGraphError::Malformed`] for lines that are not blank,
/// comments, or 2/3-column integer rows, and [`ParseGraphError::Io`] for
/// underlying read failures.
pub fn read_edge_list<R: Read>(reader: R) -> Result<LoadedGraph, ParseGraphError> {
    read_edge_list_with(reader, LoadPolicy::Strict)
}

/// Reads an edge list from `reader` under an explicit malformed-line
/// policy. See [`read_edge_list`] for the format.
///
/// # Errors
///
/// Under [`LoadPolicy::Strict`], as [`read_edge_list`]. Under
/// [`LoadPolicy::SkipAndCount`] only [`ParseGraphError::Io`] is possible;
/// malformed lines are counted in the returned [`LoadStats`].
pub fn read_edge_list_with<R: Read>(
    reader: R,
    policy: LoadPolicy,
) -> Result<LoadedGraph, ParseGraphError> {
    let mut buf = BufReader::new(reader);
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut weights: Vec<i64> = Vec::new();
    let mut max_id: u32 = 0;
    let mut any = false;
    let mut stats = LoadStats::default();
    let mut raw: Vec<u8> = Vec::new();
    let mut i = 0usize;
    loop {
        raw.clear();
        if buf.read_until(b'\n', &mut raw)? == 0 {
            break;
        }
        i += 1;
        stats.lines_read += 1;
        // Strip one `\n` and then one `\r`, so LF and CRLF terminators —
        // and a final line missing its terminator entirely, or ending in
        // a bare `\r` (a CRLF file truncated mid-terminator) — all yield
        // the same text at the same 1-based line number.
        if raw.last() == Some(&b'\n') {
            raw.pop();
        }
        if raw.last() == Some(&b'\r') {
            raw.pop();
        }
        let mut line = std::str::from_utf8(&raw).map_err(|_| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("edge list line {i} is not valid UTF-8"),
            )
        })?;
        if i == 1 {
            // Editors on Windows commonly prepend a UTF-8 byte-order
            // mark; it is not part of the first edge.
            line = line.strip_prefix('\u{feff}').unwrap_or(line);
        }
        let mut trimmed = line.trim();
        // Strip inline trailing comments (`0 1  # hub edge`) before
        // splitting into columns; a full-line comment becomes empty.
        if let Some(hash) = trimmed.find('#') {
            trimmed = trimmed[..hash].trim_end();
        }
        if trimmed.is_empty() {
            continue;
        }
        let (src, dst, w) = match parse_edge_line(trimmed) {
            Ok(edge) => edge,
            Err(reason) => match policy {
                LoadPolicy::Strict => {
                    return Err(ParseGraphError::Malformed {
                        line: i,
                        text: trimmed.to_owned(),
                        reason,
                    })
                }
                LoadPolicy::SkipAndCount => {
                    stats.lines_skipped += 1;
                    if stats.first_skipped.is_none() {
                        stats.first_skipped = Some(MalformedLine {
                            line: i,
                            text: trimmed.to_owned(),
                            reason,
                        });
                    }
                    continue;
                }
            },
        };
        any = true;
        max_id = max_id.max(src).max(dst);
        edges.push((src, dst));
        weights.push(w);
    }
    stats.edges_loaded = edges.len() as u64;
    let n = if any { max_id + 1 } else { 0 };
    let mut b = GraphBuilder::with_capacity(n, edges.len());
    // Weights must follow edges through the CSR permutation: build the graph,
    // then map weights by matching insertion order per source (stable sort).
    for &(s, d) in &edges {
        b.add_edge(s, d);
    }
    let graph = b.build();
    // Reconstruct edge-id order: counting sort mirrors GraphBuilder::build.
    let mut offsets = vec![0u32; n as usize + 1];
    for &(s, _) in &edges {
        offsets[s as usize + 1] += 1;
    }
    for i in 0..n as usize {
        offsets[i + 1] += offsets[i];
    }
    let mut cursor = offsets;
    let mut sorted_weights = vec![0i64; edges.len()];
    for (k, &(s, _)) in edges.iter().enumerate() {
        let slot = cursor[s as usize] as usize;
        sorted_weights[slot] = weights[k];
        cursor[s as usize] += 1;
    }
    Ok(LoadedGraph {
        graph,
        weights: sorted_weights,
        stats,
    })
}

/// Reads an edge list from a file path. See [`read_edge_list`].
///
/// # Errors
///
/// Same conditions as [`read_edge_list`], plus file-open failures.
pub fn read_edge_list_file<P: AsRef<Path>>(path: P) -> Result<LoadedGraph, ParseGraphError> {
    read_edge_list_file_with(path, LoadPolicy::Strict)
}

/// Reads an edge list from a file path under an explicit malformed-line
/// policy. See [`read_edge_list_with`].
///
/// # Errors
///
/// Same conditions as [`read_edge_list_with`], plus file-open failures.
pub fn read_edge_list_file_with<P: AsRef<Path>>(
    path: P,
    policy: LoadPolicy,
) -> Result<LoadedGraph, ParseGraphError> {
    let f = std::fs::File::open(path)?;
    read_edge_list_with(f, policy)
}

/// Writes `graph` as an edge list. If `weights` is provided it must be
/// edge-id aligned and is emitted as a third column.
///
/// A `writer` can be passed by mutable reference as well as by value.
///
/// # Errors
///
/// Propagates I/O failures from `writer`.
///
/// # Panics
///
/// Panics if `weights` is provided with the wrong length.
pub fn write_edge_list<W: Write>(
    graph: &Graph,
    weights: Option<&[i64]>,
    mut writer: W,
) -> std::io::Result<()> {
    if let Some(w) = weights {
        assert_eq!(
            w.len(),
            graph.num_edges() as usize,
            "weights must be edge-aligned"
        );
    }
    for n in graph.nodes() {
        for (t, e) in graph.out_neighbors(n) {
            match weights {
                Some(w) => writeln!(writer, "{} {} {}", n.0, t.0, w[e.index()])?,
                None => writeln!(writer, "{} {}", n.0, t.0)?,
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;

    #[test]
    fn parse_simple() {
        let text = "# comment\n0 1\n1 2\n\n2 0\n";
        let loaded = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(loaded.graph.num_nodes(), 3);
        assert_eq!(loaded.graph.num_edges(), 3);
        assert_eq!(loaded.weights, vec![1, 1, 1]);
    }

    #[test]
    fn parse_weights_follow_csr_permutation() {
        // Insert out of src order so the counting sort actually permutes.
        let text = "1 0 7\n0 2 5\n0 1 3\n";
        let loaded = read_edge_list(text.as_bytes()).unwrap();
        let g = &loaded.graph;
        // Edge ids: vertex 0's edges first in insertion order: (0,2,w5)=e0,
        // (0,1,w3)=e1, then (1,0,w7)=e2.
        assert_eq!(g.edge_target(crate::EdgeId(0)), NodeId(2));
        assert_eq!(loaded.weights, vec![5, 3, 7]);
    }

    #[test]
    fn malformed_line_reports_position() {
        let text = "0 1\nnot an edge\n";
        let err = read_edge_list(text.as_bytes()).unwrap_err();
        match err {
            ParseGraphError::Malformed { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn inline_trailing_comments_are_stripped() {
        let text = "0 1  # hub edge\n1 2 9\t# weighted, tab before comment\n   # only a comment\n2 0#no space\n";
        let loaded = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(loaded.graph.num_nodes(), 3);
        assert_eq!(loaded.graph.num_edges(), 3);
        // Edge-id order: (0,1)=e0, (1,2)=e1, (2,0)=e2.
        assert_eq!(loaded.weights, vec![1, 9, 1]);
    }

    #[test]
    fn malformed_text_before_inline_comment_still_errors() {
        let text = "0 1\n0 # missing dst\n";
        let err = read_edge_list(text.as_bytes()).unwrap_err();
        match err {
            ParseGraphError::Malformed { line, text, reason } => {
                assert_eq!(line, 2);
                // The reported text is the stripped column part, so the
                // message points at what was actually parsed.
                assert_eq!(text, "0");
                assert_eq!(reason, "missing destination vertex");
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn too_many_columns_is_malformed() {
        let text = "0 1 2 3\n";
        assert!(read_edge_list(text.as_bytes()).is_err());
    }

    #[test]
    fn empty_input_gives_empty_graph() {
        let loaded = read_edge_list("".as_bytes()).unwrap();
        assert_eq!(loaded.graph.num_nodes(), 0);
    }

    #[test]
    fn roundtrip_with_weights() {
        let text = "0 1 10\n0 2 20\n1 2 30\n";
        let loaded = read_edge_list(text.as_bytes()).unwrap();
        let mut out = Vec::new();
        write_edge_list(&loaded.graph, Some(&loaded.weights), &mut out).unwrap();
        let again = read_edge_list(&out[..]).unwrap();
        assert_eq!(again.weights, loaded.weights);
        let e1: Vec<_> = loaded.graph.edges().collect();
        let e2: Vec<_> = again.graph.edges().collect();
        assert_eq!(e1, e2);
    }

    #[test]
    fn display_of_errors_is_informative() {
        let err = ParseGraphError::Malformed {
            line: 3,
            text: "x".into(),
            reason: "missing destination vertex",
        };
        let msg = err.to_string();
        assert!(msg.contains("line 3"));
        assert!(msg.contains("missing destination vertex"));
    }

    #[test]
    fn malformed_reasons_are_specific() {
        let cases: [(&str, &str); 5] = [
            ("abc 1\n", "vertex id is not an unsigned integer"),
            ("0 4294967296\n", "vertex id overflows u32"),
            ("0 99999999999999999999999\n", "vertex id overflows u32"),
            ("0 1 2.5\n", "edge weight is not a 64-bit integer"),
            ("0 1 2 3\n", "too many columns"),
        ];
        for (text, want) in cases {
            let err = read_edge_list(text.as_bytes()).unwrap_err();
            match err {
                ParseGraphError::Malformed { reason, .. } => assert_eq!(reason, want, "{text:?}"),
                other => panic!("unexpected error for {text:?}: {other}"),
            }
        }
    }

    #[test]
    fn the_nil_id_is_a_malformed_line() {
        let cases = [
            ("4294967295 0\n", 1),
            ("0 4294967295\n", 1),
            ("0 1\n1 2\n2 4294967295\n3 0\n", 3),
        ];
        for (text, line) in cases {
            match read_edge_list(text.as_bytes()).unwrap_err() {
                ParseGraphError::Malformed {
                    line: at, reason, ..
                } => {
                    assert_eq!(
                        reason, "vertex id 4294967295 is reserved for NIL",
                        "{text:?}"
                    );
                    assert_eq!(at, line, "{text:?}");
                }
                other => panic!("unexpected error for {text:?}: {other}"),
            }
            let loaded = read_edge_list_with(text.as_bytes(), LoadPolicy::SkipAndCount).unwrap();
            assert_eq!(loaded.stats.lines_skipped, 1, "{text:?}");
            assert_eq!(loaded.stats.first_skipped.unwrap().line, line, "{text:?}");
        }
    }

    #[test]
    fn negative_id_is_not_an_unsigned_integer() {
        let err = read_edge_list("-1 2\n".as_bytes()).unwrap_err();
        match err {
            ParseGraphError::Malformed { reason, .. } => {
                assert_eq!(reason, "vertex id is not an unsigned integer");
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn skip_and_count_loads_the_clean_edges() {
        let text = "# header\n0 1\nbogus line\n1 2\n0 99999999999\n2 0\n";
        let loaded = read_edge_list_with(text.as_bytes(), LoadPolicy::SkipAndCount).unwrap();
        assert_eq!(loaded.graph.num_nodes(), 3);
        assert_eq!(loaded.graph.num_edges(), 3);
        assert_eq!(loaded.stats.lines_read, 6);
        assert_eq!(loaded.stats.edges_loaded, 3);
        assert_eq!(loaded.stats.lines_skipped, 2);
        let first = loaded.stats.first_skipped.as_ref().unwrap();
        assert_eq!(first.line, 3);
        assert_eq!(first.text, "bogus line");
        assert_eq!(first.reason, "vertex id is not an unsigned integer");
    }

    #[test]
    fn strict_load_reports_zero_skips_in_stats() {
        let loaded = read_edge_list("0 1\n1 2\n".as_bytes()).unwrap();
        assert_eq!(loaded.stats.lines_read, 2);
        assert_eq!(loaded.stats.edges_loaded, 2);
        assert_eq!(loaded.stats.lines_skipped, 0);
        assert!(loaded.stats.first_skipped.is_none());
    }

    #[test]
    fn crlf_files_load_identically_to_lf() {
        let unix = read_edge_list("# c\n0 1 5\n1 2 7\n".as_bytes()).unwrap();
        let windows = read_edge_list("# c\r\n0 1 5\r\n1 2 7\r\n".as_bytes()).unwrap();
        assert_eq!(unix.graph.num_nodes(), windows.graph.num_nodes());
        assert_eq!(unix.graph.num_edges(), windows.graph.num_edges());
        assert_eq!(unix.weights, windows.weights);
        assert_eq!(unix.stats.lines_read, windows.stats.lines_read);
    }

    #[test]
    fn missing_trailing_newline_still_loads_the_final_edge() {
        for text in ["0 1\n1 2", "0 1\r\n1 2", "0 1\r\n1 2\r"] {
            let loaded = read_edge_list(text.as_bytes()).unwrap();
            assert_eq!(loaded.graph.num_edges(), 2, "{text:?}");
            assert_eq!(loaded.stats.lines_read, 2, "{text:?}");
            assert_eq!(loaded.stats.edges_loaded, 2, "{text:?}");
        }
    }

    #[test]
    fn crlf_malformed_line_numbers_do_not_drift() {
        // Line 3 is the offender in both encodings; the reported text
        // must not carry the `\r`.
        let err = read_edge_list("0 1\r\n1 2\r\nbogus\r\n2 0\r\n".as_bytes()).unwrap_err();
        match err {
            ParseGraphError::Malformed { line, text, .. } => {
                assert_eq!(line, 3);
                assert_eq!(text, "bogus");
            }
            other => panic!("unexpected error: {other:?}"),
        }
        // A malformed *final* line without a terminator reports its real
        // line number too.
        let err = read_edge_list("0 1\n1 2\n3 x".as_bytes()).unwrap_err();
        match err {
            ParseGraphError::Malformed { line, text, .. } => {
                assert_eq!(line, 3);
                assert_eq!(text, "3 x");
            }
            other => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn utf8_bom_is_stripped_from_the_first_line() {
        let loaded = read_edge_list("\u{feff}0 1\n1 2\n".as_bytes()).unwrap();
        assert_eq!(loaded.graph.num_edges(), 2);
        // A BOM ahead of a comment is fine too.
        let loaded = read_edge_list("\u{feff}# header\n0 1\n".as_bytes()).unwrap();
        assert_eq!(loaded.graph.num_edges(), 1);
        // Only the first line: a stray BOM later is malformed, reported
        // at the right line.
        let err = read_edge_list("0 1\n\u{feff}1 2\n".as_bytes()).unwrap_err();
        match err {
            ParseGraphError::Malformed { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn invalid_utf8_is_an_io_error_with_the_line_number() {
        let bytes: &[u8] = b"0 1\n\xff\xfe 2\n";
        let err = read_edge_list(bytes).unwrap_err();
        match err {
            ParseGraphError::Io(e) => {
                assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
                assert!(e.to_string().contains("line 2"), "{e}");
            }
            other => panic!("unexpected error: {other:?}"),
        }
    }
}
