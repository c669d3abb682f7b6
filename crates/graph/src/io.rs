//! Plain-text edge-list serialization.
//!
//! Experiment outputs in this workspace are CSV time-series, but the topologies themselves
//! are often worth keeping too — for plotting with external tools, for replaying the exact
//! same overlay across search algorithms, or for importing traces of real Gnutella
//! snapshots. The format is the simplest one every graph tool understands: one `a b` pair
//! of node indices per line, `#`-prefixed comment lines ignored, node count implied by the
//! largest index (isolated trailing nodes can be preserved with an explicit
//! `# nodes: <N>` header, which [`write_edge_list`] always emits).

use crate::{Graph, NodeId};
use std::error::Error;
use std::fmt;

/// Errors produced while parsing an edge list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EdgeListError {
    /// A line did not contain exactly two whitespace-separated fields.
    MalformedLine {
        /// 1-based line number.
        line: usize,
    },
    /// A field could not be parsed as a node index.
    InvalidIndex {
        /// 1-based line number.
        line: usize,
    },
    /// The edge list contained a self-loop, which simple graphs reject.
    SelfLoop {
        /// 1-based line number.
        line: usize,
    },
    /// The edge list contained the same edge twice.
    DuplicateEdge {
        /// 1-based line number.
        line: usize,
    },
}

impl fmt::Display for EdgeListError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EdgeListError::MalformedLine { line } => {
                write!(
                    f,
                    "line {line}: expected two whitespace-separated node indices"
                )
            }
            EdgeListError::InvalidIndex { line } => {
                write!(
                    f,
                    "line {line}: node index is not a valid non-negative integer"
                )
            }
            EdgeListError::SelfLoop { line } => {
                write!(
                    f,
                    "line {line}: self-loops are not allowed in a simple graph"
                )
            }
            EdgeListError::DuplicateEdge { line } => {
                write!(f, "line {line}: duplicate edge")
            }
        }
    }
}

impl Error for EdgeListError {}

/// Serializes `graph` as a plain-text edge list.
///
/// The output starts with a `# nodes: <N>` header (so isolated nodes survive a round
/// trip), followed by one `a b` line per edge with `a < b`.
///
/// # Example
///
/// ```
/// use sfo_graph::{Graph, NodeId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut g = Graph::with_nodes(3);
/// g.add_edge(NodeId::new(0), NodeId::new(2))?;
/// let text = sfo_graph::write_edge_list(&g);
/// let parsed = sfo_graph::parse_edge_list(&text)?;
/// assert_eq!(parsed, g);
/// # Ok(())
/// # }
/// ```
pub fn write_edge_list(graph: &Graph) -> String {
    let mut out = String::with_capacity(16 + 12 * graph.edge_count());
    out.push_str(&format!("# nodes: {}\n", graph.node_count()));
    for (a, b) in graph.edges() {
        out.push_str(&format!("{} {}\n", a.index(), b.index()));
    }
    out
}

/// Parses a plain-text edge list produced by [`write_edge_list`] (or by any external tool
/// using the same `a b` per-line convention).
///
/// Lines starting with `#` are treated as comments; a `# nodes: <N>` comment sets the
/// minimum node count. Node indices may appear in any order; the graph grows to cover the
/// largest index seen.
///
/// # Errors
///
/// Returns an [`EdgeListError`] identifying the offending line if the input is malformed,
/// contains a self-loop, or repeats an edge.
pub fn parse_edge_list(text: &str) -> Result<Graph, EdgeListError> {
    let mut graph = Graph::new();
    for (idx, raw_line) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw_line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            if let Some(count) = comment.trim().strip_prefix("nodes:") {
                if let Ok(n) = count.trim().parse::<usize>() {
                    if n > graph.node_count() {
                        graph.add_nodes(n - graph.node_count());
                    }
                }
            }
            continue;
        }
        let mut fields = line.split_whitespace();
        let (a, b) = match (fields.next(), fields.next(), fields.next()) {
            (Some(a), Some(b), None) => (a, b),
            _ => return Err(EdgeListError::MalformedLine { line: line_no }),
        };
        let a: usize = a
            .parse()
            .map_err(|_| EdgeListError::InvalidIndex { line: line_no })?;
        let b: usize = b
            .parse()
            .map_err(|_| EdgeListError::InvalidIndex { line: line_no })?;
        if a == b {
            return Err(EdgeListError::SelfLoop { line: line_no });
        }
        let needed = a.max(b) + 1;
        if needed > graph.node_count() {
            graph.add_nodes(needed - graph.node_count());
        }
        let (a, b) = (NodeId::new(a), NodeId::new(b));
        match graph.add_edge_if_absent(a, b) {
            Ok(true) => {}
            Ok(false) => return Err(EdgeListError::DuplicateEdge { line: line_no }),
            Err(_) => unreachable!("nodes were grown to cover both endpoints"),
        }
    }
    Ok(graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::ring_graph;

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn round_trip_preserves_the_edge_set() {
        let g = ring_graph(12, 2).unwrap();
        let text = write_edge_list(&g);
        let parsed = parse_edge_list(&text).unwrap();
        assert_eq!(parsed.node_count(), g.node_count());
        assert_eq!(parsed.edge_count(), g.edge_count());
        let mut original: Vec<_> = g.edges().collect();
        let mut reparsed: Vec<_> = parsed.edges().collect();
        original.sort_unstable();
        reparsed.sort_unstable();
        assert_eq!(original, reparsed);
        parsed.assert_consistent();
    }

    #[test]
    fn round_trip_preserves_isolated_trailing_nodes() {
        let mut g = Graph::with_nodes(5);
        g.add_edge(n(0), n(1)).unwrap();
        // Nodes 2..4 are isolated; without the header they would be lost.
        let text = write_edge_list(&g);
        let parsed = parse_edge_list(&text).unwrap();
        assert_eq!(parsed.node_count(), 5);
        assert_eq!(parsed, g);
    }

    #[test]
    fn empty_graph_round_trips() {
        let g = Graph::new();
        let parsed = parse_edge_list(&write_edge_list(&g)).unwrap();
        assert_eq!(parsed, g);
    }

    #[test]
    fn parses_comments_and_blank_lines() {
        let text = "# a comment\n\n0 1\n# another\n1 2\n";
        let g = parse_edge_list(text).unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn parses_whitespace_variants() {
        let text = "0\t1\n  2   3  \n";
        let g = parse_edge_list(text).unwrap();
        assert_eq!(g.edge_count(), 2);
        assert!(g.contains_edge(n(2), n(3)));
    }

    #[test]
    fn malformed_lines_are_rejected_with_line_numbers() {
        assert_eq!(
            parse_edge_list("0 1\n0 1 2\n"),
            Err(EdgeListError::MalformedLine { line: 2 })
        );
        assert_eq!(
            parse_edge_list("0\n"),
            Err(EdgeListError::MalformedLine { line: 1 })
        );
        assert_eq!(
            parse_edge_list("0 x\n"),
            Err(EdgeListError::InvalidIndex { line: 1 })
        );
        assert_eq!(
            parse_edge_list("0 1\n3 3\n"),
            Err(EdgeListError::SelfLoop { line: 2 })
        );
        assert_eq!(
            parse_edge_list("0 1\n1 0\n"),
            Err(EdgeListError::DuplicateEdge { line: 2 })
        );
    }

    #[test]
    fn error_messages_name_the_line() {
        assert!(EdgeListError::MalformedLine { line: 7 }
            .to_string()
            .contains("line 7"));
        assert!(EdgeListError::InvalidIndex { line: 3 }
            .to_string()
            .contains("line 3"));
        assert!(EdgeListError::SelfLoop { line: 9 }
            .to_string()
            .contains("line 9"));
        assert!(EdgeListError::DuplicateEdge { line: 2 }
            .to_string()
            .contains("line 2"));
    }

    #[test]
    fn nodes_header_never_shrinks_the_graph() {
        let text = "0 5\n# nodes: 2\n";
        let g = parse_edge_list(text).unwrap();
        assert_eq!(g.node_count(), 6);
    }
}
