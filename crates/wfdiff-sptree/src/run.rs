//! Valid runs and Algorithms 2 and 5 (annotated SP-trees for runs).
//!
//! [`Run::from_graph`] takes a specification and a run *graph* and replays the
//! deterministic tree-execution function `f''`: it validates the run (label
//! homomorphism, acyclicity), builds the canonical SP-tree of the run graph
//! and then matches it against the specification's annotated SP-tree,
//! producing the run's annotated SP-tree with `F` and `L` nodes and the
//! homology map `h` (stored as each node's `origin`).
//!
//! Loop iterations are recognised through the implicit back edges
//! `(t(H), s(H))` as in Algorithm 5; the back edges themselves become the
//! separators between iterations and do not appear as leaves of the annotated
//! tree.

use crate::canonical::canonical_tree;
use crate::keyset::KeySets;
use crate::node::{NodeType, TreeId, TreeNode};
use crate::spec::{SpecTables, Specification};
use crate::tree::AnnotatedTree;
use crate::{Result, SpTreeError};
use wfdiff_graph::{validate_run_against_graph, Homomorphism, LabeledDigraph, NodeId};

/// A valid run of an SP-workflow specification: the run graph together with
/// its annotated SP-tree.
#[derive(Debug, Clone)]
pub struct Run {
    spec_name: String,
    spec_fp: crate::Fingerprint,
    graph: LabeledDigraph,
    source: NodeId,
    sink: NodeId,
    tree: AnnotatedTree,
}

impl Run {
    /// Builds a [`Run`] by validating `graph` against `spec` and replaying its
    /// execution (Algorithms 2 and 5).
    ///
    /// Everything the validation and the replay read of `spec` — its label
    /// index, edge and loop back-edge maps and the key set of every spec-tree
    /// node — comes from tables the specification computes once (see
    /// [`Specification`]), so the per-run cost is the run's own: validation,
    /// the SP reduction of its graph into a canonical tree, and one replay
    /// of that tree against the specification's.
    pub fn from_graph(spec: &Specification, graph: LabeledDigraph) -> Result<Run> {
        let tables = spec.tables();
        let hom = validate_run_against_graph(&tables.graph, &graph)?;
        let ctree = canonical_tree(&graph, hom.run_source, hom.run_sink)?;
        let tree = replay(spec, tables, &hom, &ctree)?;
        Ok(Run {
            spec_name: spec.name().to_string(),
            spec_fp: spec.fingerprint(),
            graph,
            source: hom.run_source,
            sink: hom.run_sink,
            tree,
        })
    }

    /// Assembles a run from pre-built parts (used by the execution generator
    /// and by the edit-script applier, which construct the tree directly).
    pub(crate) fn from_parts(
        spec_name: String,
        spec_fp: crate::Fingerprint,
        graph: LabeledDigraph,
        source: NodeId,
        sink: NodeId,
        tree: AnnotatedTree,
    ) -> Run {
        Run { spec_name, spec_fp, graph, source, sink, tree }
    }

    /// Name of the specification this run belongs to.
    pub fn spec_name(&self) -> &str {
        &self.spec_name
    }

    /// Fingerprint of the exact specification *version* this run was
    /// validated against; see [`crate::Specification::fingerprint`].
    pub fn spec_fingerprint(&self) -> crate::Fingerprint {
        self.spec_fp
    }

    /// The run graph (including implicit loop back-edges).
    pub fn graph(&self) -> &LabeledDigraph {
        &self.graph
    }

    /// The run's source node.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// The run's sink node.
    pub fn sink(&self) -> NodeId {
        self.sink
    }

    /// The annotated SP-tree of the run.
    pub fn tree(&self) -> &AnnotatedTree {
        &self.tree
    }

    /// Number of edges of the run graph (implicit loop edges included); this is
    /// the `|E|` the evaluation section reports.
    pub fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// Number of nodes of the run graph.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Two runs are equivalent if their annotated SP-trees are equivalent
    /// (equal up to reordering of `P`/`F` children).
    pub fn equivalent(&self, other: &Run) -> bool {
        self.tree.equivalent(&other.tree)
    }
}

impl Specification {
    /// Convenience wrapper for [`Run::from_graph`].
    pub fn validate_run(&self, graph: LabeledDigraph) -> Result<Run> {
        Run::from_graph(self, graph)
    }
}

/// How a multi-element forest of canonical subtrees composes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Comp {
    Series,
    Parallel,
}

struct Replayer<'a> {
    spec: &'a Specification,
    /// The specification's tables, key sets of its tree nodes included.
    tables: &'a SpecTables,
    ctree: &'a AnnotatedTree,
    /// Key sets of every canonical-run-tree node: what part of the
    /// specification (spec edges, loop back edges) its edges instantiate.
    run_keys: KeySets,
    out: AnnotatedTree,
}

/// Replays the run described by the canonical tree `ctree` against `spec`,
/// producing the annotated run tree.
fn replay(
    spec: &Specification,
    tables: &SpecTables,
    hom: &Homomorphism,
    ctree: &AnnotatedTree,
) -> Result<AnnotatedTree> {
    let mut run_keys = KeySets::new(ctree.len(), tables.width);
    for id in ctree.postorder(ctree.root()) {
        let node = ctree.node(id);
        if node.ty == NodeType::Q {
            let edge = node.edge.ok_or_else(|| {
                SpTreeError::Invariant("canonical tree leaf without a run edge".to_string())
            })?;
            run_keys.insert(id.index(), tables.key_bit(hom.edges[edge.index()]));
        } else {
            for &c in &node.children {
                run_keys.union_into(id.index(), c.index());
            }
        }
    }

    let mut replayer = Replayer { spec, tables, ctree, run_keys, out: AnnotatedTree::empty() };
    let root = replayer.build(spec.tree().root(), &[ctree.root()], Comp::Series)?;
    let mut out = replayer.out;
    out.set_root(root);
    out.recompute_leaf_counts();
    out.validate_run_tree()?;
    Ok(out)
}

impl<'a> Replayer<'a> {
    fn spec_tree(&self) -> &'a AnnotatedTree {
        self.spec.tree()
    }

    fn overlaps(&self, spec_v: TreeId, run_v: TreeId) -> bool {
        self.tables.keys.overlaps(spec_v.index(), &self.run_keys, run_v.index())
    }

    /// Flattens a forest that is known to compose in series into the ordered
    /// list of canonical subtrees at the top level.
    fn flatten_series(&self, forest: &[TreeId], ctx: Comp) -> Result<Vec<TreeId>> {
        if forest.len() == 1 && self.ctree.ty(forest[0]) == NodeType::S {
            Ok(self.ctree.children(forest[0]).to_vec())
        } else if forest.len() == 1 || ctx == Comp::Series {
            Ok(forest.to_vec())
        } else {
            Err(SpTreeError::InvalidRun {
                what: "parallel replication found where the specification requires a series \
                       composition (missing fork annotation?)"
                    .to_string(),
            })
        }
    }

    fn build(&mut self, spec_v: TreeId, forest: &[TreeId], ctx: Comp) -> Result<TreeId> {
        if forest.is_empty() {
            return Err(SpTreeError::InvalidRun {
                what: format!(
                    "no run fragment corresponds to the specification subtree between {} and {}",
                    self.spec_tree().node(spec_v).s_label,
                    self.spec_tree().node(spec_v).t_label
                ),
            });
        }
        match self.spec_tree().ty(spec_v) {
            NodeType::Q => self.build_leaf(spec_v, forest),
            NodeType::S => self.build_series(spec_v, forest, ctx),
            NodeType::P => self.build_parallel(spec_v, forest, ctx),
            NodeType::F => self.build_fork(spec_v, forest, ctx),
            NodeType::L => self.build_loop(spec_v, forest, ctx),
        }
    }

    fn build_leaf(&mut self, spec_v: TreeId, forest: &[TreeId]) -> Result<TreeId> {
        let spec_node = self.spec_tree().node(spec_v);
        if forest.len() != 1 || self.ctree.ty(forest[0]) != NodeType::Q {
            return Err(SpTreeError::InvalidRun {
                what: format!(
                    "module edge {} -> {} is replicated in the run without a fork or loop",
                    spec_node.s_label, spec_node.t_label
                ),
            });
        }
        let cnode = self.ctree.node(forest[0]);
        if cnode.s_label != spec_node.s_label || cnode.t_label != spec_node.t_label {
            return Err(SpTreeError::InvalidRun {
                what: format!(
                    "run edge {} -> {} does not instantiate specification edge {} -> {}",
                    cnode.s_label, cnode.t_label, spec_node.s_label, spec_node.t_label
                ),
            });
        }
        let mut node = TreeNode::new(
            NodeType::Q,
            cnode.s_label.clone(),
            cnode.t_label.clone(),
            cnode.s_node,
            cnode.t_node,
        );
        node.edge = cnode.edge;
        node.origin = Some(spec_v);
        node.leaf_count = 1;
        Ok(self.out.add_node(node))
    }

    fn build_series(&mut self, spec_v: TreeId, forest: &[TreeId], ctx: Comp) -> Result<TreeId> {
        let flat = self.flatten_series(forest, ctx)?;
        let spec_children = self.spec_tree().children(spec_v);
        let mut groups: Vec<Vec<TreeId>> = vec![Vec::new(); spec_children.len()];
        for &f in &flat {
            let mut target = None;
            for (i, &sc) in spec_children.iter().enumerate() {
                if self.overlaps(sc, f) {
                    if target.is_some() {
                        return Err(SpTreeError::InvalidRun {
                            what: "a run fragment spans more than one series component of the \
                                   specification"
                                .to_string(),
                        });
                    }
                    target = Some(i);
                }
            }
            match target {
                Some(i) => groups[i].push(f),
                None => {
                    return Err(SpTreeError::InvalidRun {
                        what: "a run fragment does not correspond to any series component of the \
                               specification"
                            .to_string(),
                    })
                }
            }
        }
        let mut out_children = Vec::with_capacity(spec_children.len());
        for (i, &sc) in spec_children.iter().enumerate() {
            let child = self.build(sc, &groups[i], Comp::Series)?;
            out_children.push(child);
        }
        Ok(self.add_internal(NodeType::S, spec_v, out_children, None))
    }

    fn build_parallel(&mut self, spec_v: TreeId, forest: &[TreeId], ctx: Comp) -> Result<TreeId> {
        let spec_children = self.spec_tree().children(spec_v);
        if forest.len() == 1 && self.ctree.ty(forest[0]) == NodeType::P {
            let flat = self.ctree.children(forest[0]).to_vec();
            let mut groups: Vec<Vec<TreeId>> = vec![Vec::new(); spec_children.len()];
            for &f in &flat {
                let mut target = None;
                for (i, &sc) in spec_children.iter().enumerate() {
                    if self.overlaps(sc, f) {
                        if target.is_some() {
                            return Err(SpTreeError::InvalidRun {
                                what: "a run branch spans more than one parallel branch of the \
                                       specification"
                                    .to_string(),
                            });
                        }
                        target = Some(i);
                    }
                }
                match target {
                    Some(i) => groups[i].push(f),
                    None => {
                        return Err(SpTreeError::InvalidRun {
                            what: "a run branch does not correspond to any parallel branch of \
                                   the specification"
                                .to_string(),
                        })
                    }
                }
            }
            let mut out_children = Vec::new();
            for (i, &sc) in spec_children.iter().enumerate() {
                if groups[i].is_empty() {
                    continue;
                }
                out_children.push(self.build(sc, &groups[i], Comp::Parallel)?);
            }
            if out_children.is_empty() {
                return Err(SpTreeError::InvalidRun {
                    what: "parallel section of the run executes no branch".to_string(),
                });
            }
            Ok(self.add_internal(NodeType::P, spec_v, out_children, None))
        } else {
            // A single branch was taken: the forest is the branch's content.
            let mut target = None;
            for (i, &sc) in spec_children.iter().enumerate() {
                if forest.iter().any(|&f| self.overlaps(sc, f)) {
                    if target.is_some() {
                        return Err(SpTreeError::InvalidRun {
                            what: "run content inside a parallel section maps to several \
                                   branches but is not parallel-composed"
                                .to_string(),
                        });
                    }
                    target = Some(i);
                }
            }
            let i = target.ok_or_else(|| SpTreeError::InvalidRun {
                what: "parallel section of the run executes no branch".to_string(),
            })?;
            let child = self.build(spec_children[i], forest, ctx)?;
            Ok(self.add_internal(NodeType::P, spec_v, vec![child], None))
        }
    }

    fn build_fork(&mut self, spec_v: TreeId, forest: &[TreeId], ctx: Comp) -> Result<TreeId> {
        let body = self.spec_tree().children(spec_v)[0];
        let control_id = self.spec_tree().node(spec_v).control_id;
        let copies: Vec<Vec<TreeId>> =
            if forest.len() == 1 && self.ctree.ty(forest[0]) == NodeType::P {
                self.ctree.children(forest[0]).iter().map(|&c| vec![c]).collect()
            } else if forest.len() > 1 && ctx == Comp::Parallel {
                forest.iter().map(|&c| vec![c]).collect()
            } else {
                vec![forest.to_vec()]
            };
        let mut out_children = Vec::with_capacity(copies.len());
        for copy in &copies {
            out_children.push(self.build(body, copy, Comp::Series)?);
        }
        Ok(self.add_internal(NodeType::F, spec_v, out_children, control_id))
    }

    #[expect(
        clippy::expect_used,
        reason = "spec tree validation assigns control ids to every L node, and an iteration is pushed on loop entry before any child is appended to it"
    )]
    fn build_loop(&mut self, spec_v: TreeId, forest: &[TreeId], ctx: Comp) -> Result<TreeId> {
        let body = self.spec_tree().children(spec_v)[0];
        let control_id = self.spec_tree().node(spec_v).control_id;
        let this_loop = control_id
            .and_then(|c| self.tables.loop_bit(c))
            .expect("L nodes carry the control id of a loop");
        let flat = self.flatten_series(forest, ctx)?;
        // Split the flat sequence at the implicit back edges of *this* loop.
        let mut iterations: Vec<Vec<TreeId>> = vec![Vec::new()];
        for &f in &flat {
            let is_separator =
                self.ctree.ty(f) == NodeType::Q && self.run_keys.is_only(f.index(), this_loop);
            if is_separator {
                iterations.push(Vec::new());
            } else {
                iterations.last_mut().expect("iterations is non-empty").push(f);
            }
        }
        if iterations.iter().any(|it| it.is_empty()) {
            return Err(SpTreeError::InvalidRun {
                what: format!(
                    "loop between {} and {} has an empty iteration (stray back edge)",
                    self.spec_tree().node(spec_v).s_label,
                    self.spec_tree().node(spec_v).t_label
                ),
            });
        }
        let mut out_children = Vec::with_capacity(iterations.len());
        for it in &iterations {
            out_children.push(self.build(body, it, Comp::Series)?);
        }
        Ok(self.add_internal(NodeType::L, spec_v, out_children, control_id))
    }

    /// Adds an internal node whose terminals are inferred from its children
    /// (first child's source, last child's sink).
    #[expect(
        clippy::expect_used,
        reason = "internal nodes are only created wrapping at least one child"
    )]
    fn add_internal(
        &mut self,
        ty: NodeType,
        origin: TreeId,
        children: Vec<TreeId>,
        control_id: Option<usize>,
    ) -> TreeId {
        let first = children[0];
        let last = *children.last().expect("internal nodes have children");
        let mut node = TreeNode::new(
            ty,
            self.out.node(first).s_label.clone(),
            self.out.node(last).t_label.clone(),
            self.out.node(first).s_node,
            self.out.node(last).t_node,
        );
        node.origin = Some(origin);
        node.control_id = control_id;
        let id = self.out.add_node(node);
        for c in children {
            self.out.attach_child(id, c);
        }
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SpecificationBuilder;

    fn fig2_specification() -> Specification {
        let mut b = SpecificationBuilder::new("fig2");
        b.edge("1", "2")
            .path(&["2", "3", "6"])
            .path(&["2", "4", "6"])
            .path(&["2", "5", "6"])
            .edge("6", "7")
            .fork_path(&["2", "3", "6"])
            .fork_path(&["2", "4", "6"])
            .fork_path(&["2", "5", "6"])
            .fork_between("1", "7")
            .loop_between("2", "6");
        b.build().unwrap()
    }

    /// Run R1 of Fig. 2(b): branches 3 (twice, forked) and 4 between 2 and 6.
    fn fig2_run1_graph() -> LabeledDigraph {
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
        r
    }

    /// Run R2 of Fig. 2(c): two copies of the whole workflow (outer fork).
    fn fig2_run2_graph() -> LabeledDigraph {
        let mut r = LabeledDigraph::new();
        // Copy 1: 1 -> 2 -> {3, 4, 4} -> 6 -> 7
        let n1 = r.add_node("1");
        let n2a = r.add_node("2");
        let n3a = r.add_node("3");
        let n4a = r.add_node("4");
        let n4b = r.add_node("4");
        let n6a = r.add_node("6");
        let n7 = r.add_node("7");
        // Copy 2: 1 -> 2 -> {4, 5} -> 6 -> 7 (sharing nodes 1 and 7)
        let n2b = r.add_node("2");
        let n4c = r.add_node("4");
        let n5a = r.add_node("5");
        let n6b = r.add_node("6");
        r.add_edge(n1, n2a);
        r.add_edge(n2a, n3a);
        r.add_edge(n2a, n4a);
        r.add_edge(n2a, n4b);
        r.add_edge(n3a, n6a);
        r.add_edge(n4a, n6a);
        r.add_edge(n4b, n6a);
        r.add_edge(n6a, n7);
        r.add_edge(n1, n2b);
        r.add_edge(n2b, n4c);
        r.add_edge(n2b, n5a);
        r.add_edge(n4c, n6b);
        r.add_edge(n5a, n6b);
        r.add_edge(n6b, n7);
        r
    }

    /// Run R3 of Fig. 2(d): two iterations of the loop between 2 and 6.
    fn fig2_run3_graph() -> LabeledDigraph {
        let mut r = LabeledDigraph::new();
        let n1 = r.add_node("1");
        let n2a = r.add_node("2");
        let n3a = r.add_node("3");
        let n4a = r.add_node("4");
        let n4b = r.add_node("4");
        let n6a = r.add_node("6");
        let n2b = r.add_node("2");
        let n4c = r.add_node("4");
        let n5a = r.add_node("5");
        let n6b = r.add_node("6");
        let n7 = r.add_node("7");
        r.add_edge(n1, n2a);
        r.add_edge(n2a, n3a);
        r.add_edge(n2a, n4a);
        r.add_edge(n2a, n4b);
        r.add_edge(n3a, n6a);
        r.add_edge(n4a, n6a);
        r.add_edge(n4b, n6a);
        r.add_edge(n6a, n2b); // implicit loop back edge
        r.add_edge(n2b, n4c);
        r.add_edge(n2b, n5a);
        r.add_edge(n4c, n6b);
        r.add_edge(n5a, n6b);
        r.add_edge(n6b, n7);
        r
    }

    #[test]
    fn run1_tree_matches_fig6c() {
        let spec = fig2_specification();
        let run = Run::from_graph(&spec, fig2_run1_graph()).unwrap();
        let t = run.tree();
        // Root F (outer fork) with one copy.
        assert_eq!(t.ty(t.root()), NodeType::F);
        assert_eq!(t.children(t.root()).len(), 1);
        let s = t.children(t.root())[0];
        assert_eq!(t.ty(s), NodeType::S);
        assert_eq!(t.children(s).len(), 3);
        // Middle child: L (one iteration) wrapping P.
        let l = t.children(s)[1];
        assert_eq!(t.ty(l), NodeType::L);
        assert_eq!(t.children(l).len(), 1);
        let p = t.children(l)[0];
        assert_eq!(t.ty(p), NodeType::P);
        // Two parallel groups: the fork over branch 3 (2 copies) and branch 4.
        assert_eq!(t.children(p).len(), 2);
        let mut fork_sizes: Vec<usize> =
            t.children(p).iter().map(|&c| t.children(c).len()).collect();
        fork_sizes.sort();
        assert_eq!(fork_sizes, vec![1, 2]);
        // Leaf count excludes nothing here (no loops unrolled): 8 edges.
        assert_eq!(t.leaf_count(t.root()), 8);
        assert_eq!(run.edge_count(), 8);
    }

    #[test]
    fn run2_tree_has_two_outer_fork_copies() {
        let spec = fig2_specification();
        let run = Run::from_graph(&spec, fig2_run2_graph()).unwrap();
        let t = run.tree();
        assert_eq!(t.ty(t.root()), NodeType::F);
        assert_eq!(t.children(t.root()).len(), 2);
        for &copy in t.children(t.root()) {
            assert_eq!(t.ty(copy), NodeType::S);
            assert_eq!(t.children(copy).len(), 3);
        }
        assert_eq!(t.leaf_count(t.root()), 14);
    }

    #[test]
    fn run3_tree_has_two_loop_iterations() {
        let spec = fig2_specification();
        let run = Run::from_graph(&spec, fig2_run3_graph()).unwrap();
        let t = run.tree();
        assert_eq!(t.ty(t.root()), NodeType::F);
        let s = t.children(t.root())[0];
        let l = t.children(s)[1];
        assert_eq!(t.ty(l), NodeType::L);
        assert_eq!(t.children(l).len(), 2, "the loop was executed twice");
        // 13 graph edges, one of which is the implicit back edge.
        assert_eq!(run.edge_count(), 13);
        assert_eq!(t.leaf_count(t.root()), 12);
    }

    #[test]
    fn origins_point_into_the_spec_tree() {
        let spec = fig2_specification();
        let run = Run::from_graph(&spec, fig2_run1_graph()).unwrap();
        let t = run.tree();
        for id in t.postorder(t.root()) {
            let origin = t.node(id).origin.expect("every run node has an origin");
            // The origin is a valid spec node of the same type.
            assert_eq!(spec.tree().ty(origin), t.ty(id));
            // Terminal labels agree with the spec node's terminals.
            assert_eq!(spec.tree().node(origin).s_label, t.node(id).s_label);
            assert_eq!(spec.tree().node(origin).t_label, t.node(id).t_label);
        }
    }

    #[test]
    fn runs_of_the_same_shape_are_equivalent() {
        let spec = fig2_specification();
        let r1 = Run::from_graph(&spec, fig2_run1_graph()).unwrap();
        let r1_again = Run::from_graph(&spec, fig2_run1_graph()).unwrap();
        let r2 = Run::from_graph(&spec, fig2_run2_graph()).unwrap();
        assert!(r1.equivalent(&r1_again));
        assert!(!r1.equivalent(&r2));
    }

    #[test]
    fn replication_without_fork_is_rejected() {
        // Specification chain a -> b -> c with no forks; a run that duplicates
        // the edge a -> b is a valid homomorphic image but not a valid
        // SP-workflow execution.
        let mut b = SpecificationBuilder::new("plain");
        b.path(&["a", "b", "c"]);
        let spec = b.build().unwrap();
        let mut r = LabeledDigraph::new();
        let na = r.add_node("a");
        let nb1 = r.add_node("b");
        let nb2 = r.add_node("b");
        let nc = r.add_node("c");
        r.add_edge(na, nb1);
        r.add_edge(na, nb2);
        r.add_edge(nb1, nc);
        r.add_edge(nb2, nc);
        let err = Run::from_graph(&spec, r).unwrap_err();
        assert!(matches!(err, SpTreeError::InvalidRun { .. }));
    }

    #[test]
    fn missing_series_component_is_rejected() {
        let spec = fig2_specification();
        // A "run" that skips module 6: 1 -> 2 -> 3 -> 7 is not even
        // homomorphic (edge 3 -> 7 does not exist), so use 1 -> 2 -> 3 -> 6
        // without the final 6 -> 7 edge: then 6 is the sink, violating the
        // terminal condition.
        let mut r = LabeledDigraph::new();
        let n1 = r.add_node("1");
        let n2 = r.add_node("2");
        let n3 = r.add_node("3");
        let n6 = r.add_node("6");
        r.add_edge(n1, n2);
        r.add_edge(n2, n3);
        r.add_edge(n3, n6);
        assert!(Run::from_graph(&spec, r).is_err());
    }

    #[test]
    fn single_path_run_is_valid() {
        let spec = fig2_specification();
        let mut r = LabeledDigraph::new();
        let n1 = r.add_node("1");
        let n2 = r.add_node("2");
        let n5 = r.add_node("5");
        let n6 = r.add_node("6");
        let n7 = r.add_node("7");
        r.add_edge(n1, n2);
        r.add_edge(n2, n5);
        r.add_edge(n5, n6);
        r.add_edge(n6, n7);
        let run = Run::from_graph(&spec, r).unwrap();
        let t = run.tree();
        assert_eq!(t.leaf_count(t.root()), 4);
        // Structure: F -> S -> [Q, L -> P -> F -> S(Q,Q), Q]
        assert_eq!(t.ty(t.root()), NodeType::F);
        assert!(t.validate_run_tree().is_ok());
    }
}
