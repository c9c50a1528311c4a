//! Random SP-specification generation (Sections VIII-B and VIII-C).
//!
//! The paper's synthetic specifications are controlled by the ratio `r` of
//! series to parallel compositions and are optionally annotated with a number
//! of forks and loops.  The generator here grows a specification edge by
//! edge:
//!
//! * a **series** step picks a random edge `u → v` and splits it into
//!   `u → w → v` (one new node, one new edge),
//! * a **parallel** step picks a random edge `u → v` and adds an alternative
//!   two-edge branch `u → w → v` (one new node, two new edges).
//!
//! The probability of a series step is `r / (r + 1)`, so `r = +∞` yields a
//! single path and `r = 0` yields a flat bundle of parallel branches —
//! matching the paper's extremes.  (The paper's generator used parallel
//! multi-edges for `r = 0`; multi-edges between the same labelled pair make
//! run replay ambiguous, so branches of length two are used instead; see
//! DESIGN.md.)
//!
//! Fork and loop annotations are then chosen among the *subtrees* of the
//! canonical SP-tree, which guarantees a laminar family by construction.

use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::BTreeSet;
use wfdiff_graph::{EdgeId, LabeledDigraph, NodeId, SpGraph};
use wfdiff_sptree::canonical::canonical_tree;
use wfdiff_sptree::{ControlKind, NodeType, Specification};

/// Configuration for the random specification generator.
#[derive(Debug, Clone, Copy)]
pub struct SpecGenConfig {
    /// Target number of edges (the generator stops once it reaches or exceeds
    /// this).
    pub target_edges: usize,
    /// Ratio of series to parallel composition steps (`3.0`, `1.0`, `1/3`, …).
    pub series_parallel_ratio: f64,
    /// Number of fork annotations to place.
    pub forks: usize,
    /// Number of loop annotations to place.
    pub loops: usize,
}

impl Default for SpecGenConfig {
    fn default() -> Self {
        SpecGenConfig { target_edges: 100, series_parallel_ratio: 1.0, forks: 0, loops: 0 }
    }
}

/// Generates a random SP-specification according to `config`.
#[expect(
    clippy::expect_used,
    reason = "the generator emits series-parallel graphs by construction; a failure is a generator bug, caught by proptest"
)]
pub fn random_specification(
    name: &str,
    config: &SpecGenConfig,
    rng: &mut impl Rng,
) -> Specification {
    let graph = random_sp_graph(config, rng);
    let sp = SpGraph::from_flow_network(graph).expect("generated graph is a flow network");
    let controls = choose_controls(&sp, config.forks, config.loops, rng);
    Specification::new(name, sp, controls).expect("generated specification is well formed")
}

/// Generates only the SP graph (no fork/loop annotations).
pub fn random_sp_graph(config: &SpecGenConfig, rng: &mut impl Rng) -> LabeledDigraph {
    let mut graph = LabeledDigraph::new();
    let source = graph.add_node("v0");
    let sink = graph.add_node("v1");
    let mut next_label = 2usize;
    graph.add_edge(source, sink);
    let p_series = config.series_parallel_ratio / (config.series_parallel_ratio + 1.0);
    while graph.edge_count() < config.target_edges {
        let edge_idx = rng.gen_range(0..graph.edge_count());
        let edge = graph.edge(wfdiff_graph::EdgeId::from(edge_idx)).clone();
        let mid = graph.add_node(format!("v{next_label}"));
        next_label += 1;
        if rng.gen_bool(p_series) {
            // Series split: u -> mid -> v replaces u -> v.  The original edge
            // cannot be removed from the arena, so instead the split is applied
            // by *rerouting*: we add u -> mid and mid -> v and retarget the old
            // edge is not possible; therefore we emulate the split by treating
            // the old edge as u -> mid and adding mid -> v.
            let old = graph.edge_mut(wfdiff_graph::EdgeId::from(edge_idx));
            let v = old.dst;
            old.dst = mid;
            graph.rebuild_adjacency();
            graph.add_edge(mid, v);
            let _ = edge;
        } else {
            // Parallel branch u -> mid -> v alongside the existing edge.
            graph.add_edge(edge.src, mid);
            graph.add_edge(mid, edge.dst);
        }
    }
    graph
}

/// Chooses fork and loop annotations among the canonical SP-tree's subtrees.
#[expect(
    clippy::expect_used,
    reason = "the generator emits series-parallel graphs by construction; a failure is a generator bug, caught by proptest"
)]
fn choose_controls(
    sp: &SpGraph,
    forks: usize,
    loops: usize,
    rng: &mut impl Rng,
) -> Vec<(ControlKind, BTreeSet<EdgeId>)> {
    let tree = canonical_tree(sp.graph(), sp.source(), sp.sink())
        .expect("generated graphs are series-parallel");
    // Candidate fork subtrees: S or Q nodes (series subgraphs).
    // Candidate loop subtrees: S, Q or P nodes (complete subgraphs).
    let mut fork_candidates = Vec::new();
    let mut loop_candidates = Vec::new();
    for v in tree.postorder(tree.root()) {
        match tree.ty(v) {
            NodeType::S | NodeType::Q => {
                fork_candidates.push(v);
                loop_candidates.push(v);
            }
            NodeType::P => loop_candidates.push(v),
            _ => {}
        }
    }
    fork_candidates.shuffle(rng);
    loop_candidates.shuffle(rng);

    let mut controls: Vec<(ControlKind, BTreeSet<EdgeId>)> = Vec::new();
    let mut used_sets: Vec<BTreeSet<EdgeId>> = Vec::new();
    let mut used_loop_terminals: Vec<(NodeId, NodeId)> = Vec::new();

    for v in fork_candidates {
        if controls.iter().filter(|(k, _)| *k == ControlKind::Fork).count() >= forks {
            break;
        }
        let set: BTreeSet<EdgeId> = tree.leaf_edges(v).into_iter().collect();
        if used_sets.contains(&set) {
            continue;
        }
        used_sets.push(set.clone());
        controls.push((ControlKind::Fork, set));
    }
    for v in loop_candidates {
        if controls.iter().filter(|(k, _)| *k == ControlKind::Loop).count() >= loops {
            break;
        }
        let set: BTreeSet<EdgeId> = tree.leaf_edges(v).into_iter().collect();
        if used_sets.contains(&set) {
            continue;
        }
        let terminals = tree.terminal_nodes(v);
        if used_loop_terminals.contains(&terminals) {
            continue;
        }
        used_sets.push(set.clone());
        used_loop_terminals.push(terminals);
        controls.push((ControlKind::Loop, set));
    }
    controls
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use wfdiff_graph::validate_flow_network;

    #[test]
    fn generated_graphs_hit_the_edge_target_and_are_sp() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for &(edges, ratio) in
            &[(20usize, 3.0f64), (50, 1.0), (80, 1.0 / 3.0), (100, 0.0), (60, 1000.0)]
        {
            let config = SpecGenConfig {
                target_edges: edges,
                series_parallel_ratio: ratio,
                forks: 0,
                loops: 0,
            };
            let g = random_sp_graph(&config, &mut rng);
            assert!(g.edge_count() >= edges);
            assert!(g.edge_count() <= edges + 1);
            assert!(validate_flow_network(&g).is_ok());
            let sp = SpGraph::from_flow_network(g).unwrap();
            assert!(canonical_tree(sp.graph(), sp.source(), sp.sink()).is_ok());
        }
    }

    #[test]
    fn extreme_ratios_produce_chains_and_bundles() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        // Very high ratio: almost everything is a series split -> long chain,
        // so the number of nodes is close to the number of edges + 1.
        let chainish = random_sp_graph(
            &SpecGenConfig { target_edges: 60, series_parallel_ratio: 1e9, forks: 0, loops: 0 },
            &mut rng,
        );
        assert_eq!(chainish.node_count(), chainish.edge_count() + 1);
        // Ratio zero: every step adds a parallel two-edge branch (one new node,
        // two new edges), so the graph is branch-heavy: roughly two edges per
        // node, against exactly one edge per node for the chain.
        let bundle = random_sp_graph(
            &SpecGenConfig { target_edges: 60, series_parallel_ratio: 0.0, forks: 0, loops: 0 },
            &mut rng,
        );
        let ep = validate_flow_network(&bundle).unwrap();
        assert!(bundle.node_count() <= bundle.edge_count() / 2 + 2);
        // It is also much shallower than the chain.
        let chain_depth = chainish.edge_count();
        assert!(bundle.longest_path_len(ep.source, ep.sink).unwrap() < chain_depth / 2);
    }

    #[test]
    fn specifications_with_controls_are_valid() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for seed in 0..10 {
            let config =
                SpecGenConfig { target_edges: 60, series_parallel_ratio: 0.5, forks: 5, loops: 5 };
            let spec = random_specification(&format!("rand{seed}"), &config, &mut rng);
            assert!(spec.tree().validate_spec_tree().is_ok());
            assert!(spec.fork_count() <= 5);
            assert!(spec.loop_count() <= 5);
            // At least some annotations are usually placed on graphs this size.
            assert!(spec.fork_count() + spec.loop_count() > 0);
        }
    }
}
