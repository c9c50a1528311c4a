//! The NP-hardness gadget of Theorem 1.
//!
//! For general (non-series-parallel) specifications the workflow difference
//! problem is NP-hard; the proof reduces *balanced bipartite clique* to
//! differencing two runs of the 4-node specification
//! `s → v1, s → v2, v1 → v2, v1 → t, v2 → t` — the forbidden minor of
//! directed SP-graphs.  This module constructs the reduction instances so the
//! repository contains an executable artefact of the theorem: the
//! specification, the two runs, and the cost threshold
//! `Γ = (m − ℓ²) + 4(n − ℓ)`, together with a brute-force biclique decider
//! for small graphs used to sanity-check the construction.

use wfdiff_graph::{LabeledDigraph, NodeId};

/// An instance of the workflow-difference problem produced by the Theorem 1
/// reduction.
#[derive(Debug, Clone)]
pub struct HardnessInstance {
    /// The (non-SP) specification graph `G_s`.
    pub spec: LabeledDigraph,
    /// The specification's source node.
    pub spec_source: NodeId,
    /// The specification's sink node.
    pub spec_sink: NodeId,
    /// The run `R1` encoding the bipartite graph `H`.
    pub run1: LabeledDigraph,
    /// The run `R2` encoding the `ℓ × ℓ` biclique pattern.
    pub run2: LabeledDigraph,
    /// The decision threshold `Γ`: `H` has an `ℓ × ℓ` biclique iff the edit
    /// distance under the length cost is at most `Γ`.
    pub threshold: usize,
}

/// Builds the reduction instance for a bipartite graph with parts of size `n`
/// and edge list `edges` (pairs of indices into `X` and `Y`), and the biclique
/// size `l`.
pub fn reduce_biclique_to_difference(
    n: usize,
    edges: &[(usize, usize)],
    l: usize,
) -> HardnessInstance {
    assert!(l <= n, "the biclique size cannot exceed the part size");
    // Specification: s, v1, v2, t with edges s->v1, s->v2, v1->v2, v1->t, v2->t.
    let mut spec = LabeledDigraph::new();
    let s = spec.add_node("s");
    let v1 = spec.add_node("v1");
    let v2 = spec.add_node("v2");
    let t = spec.add_node("t");
    spec.add_edge(s, v1);
    spec.add_edge(s, v2);
    spec.add_edge(v1, v2);
    spec.add_edge(v1, t);
    spec.add_edge(v2, t);

    // Run 1: the bipartite graph H with X labelled v1 and Y labelled v2.
    let mut run1 = LabeledDigraph::new();
    let s1 = run1.add_node("s");
    let t1 = run1.add_node("t");
    let xs: Vec<NodeId> = (0..n).map(|_| run1.add_node("v1")).collect();
    let ys: Vec<NodeId> = (0..n).map(|_| run1.add_node("v2")).collect();
    for &x in &xs {
        run1.add_edge(s1, x);
        run1.add_edge(x, t1);
    }
    for &y in &ys {
        run1.add_edge(s1, y);
        run1.add_edge(y, t1);
    }
    for &(i, j) in edges {
        run1.add_edge(xs[i], ys[j]);
    }

    // Run 2: the complete l x l biclique pattern.
    let mut run2 = LabeledDigraph::new();
    let s2 = run2.add_node("s");
    let t2 = run2.add_node("t");
    let xs2: Vec<NodeId> = (0..l).map(|_| run2.add_node("v1")).collect();
    let ys2: Vec<NodeId> = (0..l).map(|_| run2.add_node("v2")).collect();
    for &x in &xs2 {
        run2.add_edge(s2, x);
        run2.add_edge(x, t2);
    }
    for &y in &ys2 {
        run2.add_edge(s2, y);
        run2.add_edge(y, t2);
    }
    for &x in &xs2 {
        for &y in &ys2 {
            run2.add_edge(x, y);
        }
    }

    // Γ = (m − ℓ²) + 4(n − ℓ); when ℓ² > m no biclique can exist and the
    // threshold is clamped to stay non-negative.
    let m = edges.len();
    let threshold = if m >= l * l { (m - l * l) + 4 * (n - l) } else { 4 * (n - l) };

    HardnessInstance { spec, spec_source: s, spec_sink: t, run1, run2, threshold }
}

/// Brute-force decision of the `l × l` biclique problem for small bipartite
/// graphs (both parts of size `n`).
pub fn has_biclique(n: usize, edges: &[(usize, usize)], l: usize) -> bool {
    if l == 0 {
        return true;
    }
    let mut adj = vec![vec![false; n]; n];
    for &(i, j) in edges {
        adj[i][j] = true;
    }
    // Enumerate all l-subsets of X and check whether their common neighbourhood
    // has at least l vertices.
    let mut subset: Vec<usize> = Vec::new();
    fn rec(start: usize, n: usize, l: usize, adj: &[Vec<bool>], subset: &mut Vec<usize>) -> bool {
        if subset.len() == l {
            let common = (0..n).filter(|&y| subset.iter().all(|&x| adj[x][y])).count();
            return common >= l;
        }
        for x in start..n {
            subset.push(x);
            if rec(x + 1, n, l, adj, subset) {
                return true;
            }
            subset.pop();
        }
        false
    }
    rec(0, n, l, &adj, &mut subset)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfdiff_graph::{decompose, validate_run_against_graph, SpecGraphIndex};

    #[test]
    fn specification_is_the_forbidden_minor() {
        let inst = reduce_biclique_to_difference(3, &[(0, 0), (1, 1)], 1);
        // The 4-node specification is NOT series-parallel.
        assert!(decompose(&inst.spec, inst.spec_source, inst.spec_sink).is_err());
        assert_eq!(inst.spec.node_count(), 4);
        assert_eq!(inst.spec.edge_count(), 5);
    }

    #[test]
    fn both_runs_are_valid_for_the_general_model() {
        let edges = vec![(0, 0), (0, 1), (1, 0), (2, 2)];
        let inst = reduce_biclique_to_difference(3, &edges, 2);
        let index = SpecGraphIndex::new(&inst.spec, inst.spec_source, inst.spec_sink, &[]).unwrap();
        for run in [&inst.run1, &inst.run2] {
            let hom = validate_run_against_graph(&index, run);
            assert!(hom.is_ok(), "reduction runs must be valid runs of the 4-node specification");
        }
    }

    #[test]
    fn run_sizes_match_the_construction() {
        let n = 4;
        let edges = vec![(0, 0), (1, 1), (2, 2), (3, 3), (0, 1)];
        let l = 2;
        let inst = reduce_biclique_to_difference(n, &edges, l);
        // R1: 2 + 2n nodes, 4n + m edges.
        assert_eq!(inst.run1.node_count(), 2 + 2 * n);
        assert_eq!(inst.run1.edge_count(), 4 * n + edges.len());
        // R2: 2 + 2l nodes, 4l + l^2 edges.
        assert_eq!(inst.run2.node_count(), 2 + 2 * l);
        assert_eq!(inst.run2.edge_count(), 4 * l + l * l);
        // Γ = (m - l²) + 4(n - l).
        assert_eq!(inst.threshold, (edges.len() - 4) + 4 * (n - l));
    }

    #[test]
    fn brute_force_biclique_decider() {
        // A 3x3 graph containing a 2x2 biclique on {0,1} x {0,1}.
        let edges = vec![(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)];
        assert!(has_biclique(3, &edges, 2));
        assert!(!has_biclique(3, &edges, 3));
        // A perfect matching has no 2x2 biclique.
        let matching = vec![(0, 0), (1, 1), (2, 2)];
        assert!(!has_biclique(3, &matching, 2));
        assert!(has_biclique(3, &matching, 1));
        assert!(has_biclique(3, &matching, 0));
    }
}
