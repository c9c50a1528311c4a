//! Elementary paths (Definition 3.4).
//!
//! An *elementary path* `p` in a run `R` is a path such that
//! 1. every internal node of `p` has exactly one incoming and one outgoing
//!    edge in `R`, and
//! 2. the start node `s(p)` has at least two outgoing edges and the end node
//!    `t(p)` has at least two incoming edges.
//!
//! Elementary paths are the unit of the paper's edit operations: a single
//! path insertion or deletion adds or removes one elementary path while
//! keeping the graph a valid run.

use crate::digraph::LabeledDigraph;
use crate::ids::NodeId;
use crate::label::Label;
use serde::{Deserialize, Serialize};

/// An elementary path inside a run graph.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ElementaryPath {
    /// The nodes along the path, starting at `s(p)` and ending at `t(p)`.
    pub nodes: Vec<NodeId>,
    /// The labels along the path (same length as `nodes`).
    pub labels: Vec<Label>,
}

impl ElementaryPath {
    /// The number of edges on the path (`|p|` in the paper).
    pub fn len(&self) -> usize {
        self.nodes.len().saturating_sub(1)
    }

    /// `true` if the path has no edges.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The start node `s(p)`.
    #[expect(
        clippy::expect_used,
        reason = "ElementaryPath construction rejects fewer than two nodes; accessors rely on that constructor invariant"
    )]
    pub fn start(&self) -> NodeId {
        *self.nodes.first().expect("elementary path has at least two nodes")
    }

    /// The end node `t(p)`.
    #[expect(
        clippy::expect_used,
        reason = "ElementaryPath construction rejects fewer than two nodes; accessors rely on that constructor invariant"
    )]
    pub fn end(&self) -> NodeId {
        *self.nodes.last().expect("elementary path has at least two nodes")
    }

    /// The label of the start node.
    #[expect(
        clippy::expect_used,
        reason = "ElementaryPath construction rejects empty label lists; accessors rely on that constructor invariant"
    )]
    pub fn start_label(&self) -> &Label {
        self.labels.first().expect("elementary path has labels")
    }

    /// The label of the end node.
    #[expect(
        clippy::expect_used,
        reason = "ElementaryPath construction rejects empty label lists; accessors rely on that constructor invariant"
    )]
    pub fn end_label(&self) -> &Label {
        self.labels.last().expect("elementary path has labels")
    }
}

/// Enumerates all elementary paths of `run`.
///
/// The enumeration walks forward from every node with out-degree at least two
/// (and from the source), following chains of `(in-degree 1, out-degree 1)`
/// internal nodes; a walk that terminates at a node with in-degree at least
/// two yields an elementary path.
pub fn elementary_paths(run: &LabeledDigraph) -> Vec<ElementaryPath> {
    let mut out = Vec::new();
    for start in run.node_ids() {
        if run.out_degree(start) < 2 {
            continue;
        }
        for &e in run.out_edges(start) {
            if let Some(path) = follow_chain(run, start, run.edge(e).dst) {
                out.push(path);
            }
        }
    }
    out
}

/// Follows the unique chain of internal `(1,1)` nodes starting with the edge
/// `start -> next`; returns an elementary path if the chain ends at a node
/// with in-degree at least two.
fn follow_chain(run: &LabeledDigraph, start: NodeId, next: NodeId) -> Option<ElementaryPath> {
    let mut nodes = vec![start];
    let mut cur = next;
    loop {
        nodes.push(cur);
        if run.in_degree(cur) >= 2 {
            // Candidate terminal; by construction all internal nodes passed the
            // (1,1) test, and the start has out-degree >= 2 (checked by caller).
            let labels = nodes.iter().map(|&n| run.label(n).clone()).collect();
            return Some(ElementaryPath { nodes, labels });
        }
        if run.in_degree(cur) == 1 && run.out_degree(cur) == 1 {
            let e = run.out_edges(cur)[0];
            cur = run.edge(e).dst;
            continue;
        }
        // Either the chain ends at the sink (in-degree 1, out-degree 0) or at a
        // branching node whose in-degree is 1: not an elementary path.
        return None;
    }
}

/// Returns `true` if `nodes` forms an elementary path in `run`.
pub fn is_elementary_path(run: &LabeledDigraph, nodes: &[NodeId]) -> bool {
    let [first, .., last] = nodes else {
        return false;
    };
    for w in nodes.windows(2) {
        if !run.has_edge(w[0], w[1]) {
            return false;
        }
    }
    for &mid in &nodes[1..nodes.len() - 1] {
        if run.in_degree(mid) != 1 || run.out_degree(mid) != 1 {
            return false;
        }
    }
    run.out_degree(*first) >= 2 && run.in_degree(*last) >= 2
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run R1 of Figure 2(b).
    fn fig2_run1() -> (LabeledDigraph, Vec<NodeId>) {
        let mut r = LabeledDigraph::new();
        let n1 = r.add_node("1");
        let n2 = r.add_node("2");
        let n3a = r.add_node("3");
        let n3b = r.add_node("3");
        let n4 = r.add_node("4");
        let n6 = r.add_node("6");
        let n7 = r.add_node("7");
        r.add_edge(n1, n2);
        r.add_edge(n2, n3a);
        r.add_edge(n2, n3b);
        r.add_edge(n2, n4);
        r.add_edge(n3a, n6);
        r.add_edge(n3b, n6);
        r.add_edge(n4, n6);
        r.add_edge(n6, n7);
        (r, vec![n1, n2, n3a, n3b, n4, n6, n7])
    }

    #[test]
    fn run1_has_three_elementary_paths() {
        let (r, ns) = fig2_run1();
        let paths = elementary_paths(&r);
        // The three branches 2 -> 3a -> 6, 2 -> 3b -> 6, 2 -> 4 -> 6.
        assert_eq!(paths.len(), 3);
        for p in &paths {
            assert_eq!(p.len(), 2);
            assert_eq!(p.start(), ns[1]);
            assert_eq!(p.end(), ns[5]);
            assert_eq!(p.start_label().as_str(), "2");
            assert_eq!(p.end_label().as_str(), "6");
        }
    }

    #[test]
    fn chain_has_no_elementary_paths() {
        let mut r = LabeledDigraph::new();
        let a = r.add_node("a");
        let b = r.add_node("b");
        let c = r.add_node("c");
        r.add_edge(a, b);
        r.add_edge(b, c);
        assert!(elementary_paths(&r).is_empty());
    }

    #[test]
    fn diamond_paths_are_single_edges() {
        let mut r = LabeledDigraph::new();
        let s = r.add_node("s");
        let a = r.add_node("a");
        let b = r.add_node("b");
        let t = r.add_node("t");
        r.add_edge(s, a);
        r.add_edge(s, b);
        r.add_edge(a, t);
        r.add_edge(b, t);
        let paths = elementary_paths(&r);
        assert_eq!(paths.len(), 2);
        assert!(paths.iter().all(|p| p.len() == 2));
    }

    #[test]
    fn is_elementary_path_checks_structure() {
        let (r, ns) = fig2_run1();
        assert!(is_elementary_path(&r, &[ns[1], ns[2], ns[5]]));
        // Too short / wrong endpoints.
        assert!(!is_elementary_path(&r, &[ns[0], ns[1]]));
        // Internal node with branching (node 2 has out-degree 3).
        assert!(!is_elementary_path(&r, &[ns[0], ns[1], ns[2], ns[5]]));
        // Not a path at all.
        assert!(!is_elementary_path(&r, &[ns[2], ns[4]]));
    }

    #[test]
    fn parallel_multi_edges_are_length_one_elementary_paths() {
        let mut r = LabeledDigraph::new();
        let u = r.add_node("u");
        let v = r.add_node("v");
        r.add_edge(u, v);
        r.add_edge(u, v);
        let paths = elementary_paths(&r);
        assert_eq!(paths.len(), 2);
        assert!(paths.iter().all(|p| p.len() == 1));
    }
}
