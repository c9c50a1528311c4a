//! SP-workflow specifications and Algorithm 1 (annotated SP-trees for
//! specifications).
//!
//! A specification is a triple `(G, F, L)`: an SP-graph `G` with unique node
//! labels, a set `F` of *fork* subgraphs (series subgraphs of `G`) and a set
//! `L` of *loop* subgraphs (complete subgraphs of `G`), such that the edge
//! sets of `F ∪ L` form a laminar family (Sections III-D and VI).
//!
//! [`Specification::new`] builds the canonical SP-tree of `G` and then applies
//! **Algorithm 1**, inserting an `F` or `L` node above the subtree that
//! represents each fork/loop subgraph.

use crate::canonical::canonical_tree;
use crate::keyset::KeySets;
use crate::laminar::{check_laminar, has_duplicate_sets};
use crate::lengths::BranchFreeLengths;
use crate::node::{NodeType, TreeId, TreeNode};
use crate::tree::AnnotatedTree;
use crate::{Result, SpTreeError};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use wfdiff_graph::{
    EdgeId, EdgeImage, GraphError, Label, LabeledDigraph, NodeId, SpGraph, SpecGraphIndex,
};

/// Whether a control subgraph is replicated in parallel (fork) or in series
/// (loop).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ControlKind {
    /// Fork: copies execute in parallel between the fork point and the
    /// synchronisation point.
    Fork,
    /// Loop: iterations execute in series, joined by implicit back edges from
    /// the sink of one iteration to the source of the next.
    Loop,
}

/// A fork or loop subgraph of a specification.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ControlSubgraph {
    /// Fork or loop.
    pub kind: ControlKind,
    /// The specification edges covered by the subgraph.
    pub edges: BTreeSet<EdgeId>,
    /// Source terminal of the subgraph (the fork/loop entry point).
    pub source: NodeId,
    /// Sink terminal of the subgraph (the synchronisation point).
    pub sink: NodeId,
    /// Label of the source terminal.
    pub source_label: Label,
    /// Label of the sink terminal.
    pub sink_label: Label,
}

impl ControlSubgraph {
    /// Number of specification edges covered (`||F||` / `||L||` contributions
    /// in Table I).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }
}

/// Summary statistics of a specification, matching the columns of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpecStats {
    /// Number of nodes `|V|`.
    pub nodes: usize,
    /// Number of edges `|E|`.
    pub edges: usize,
    /// Number of forks `|F|`.
    pub forks: usize,
    /// Total number of edges covered by forks `||F||`.
    pub fork_edges: usize,
    /// Number of loops `|L|`.
    pub loops: usize,
    /// Total number of edges covered by loops `||L||`.
    pub loop_edges: usize,
}

/// An SP-workflow specification `(G, F, L)` together with its annotated
/// SP-tree `T_G`.
///
/// Three derived values are computed on first use and then kept:
///
/// * the arena [`fingerprint`](Specification::fingerprint) that pins runs
///   to this version;
/// * the [branch-free lengths](Specification::branch_free_lengths) the
///   prefix bounds read;
/// * the tables every [`Run::from_graph`](crate::Run::from_graph) reads:
///   the label index, the spec edges and loop back edges by node pair, the
///   `(s, t)`-label edge map, the loop back-edge label pairs and every
///   spec-tree node's key set.  Without them each run validation rebuilt
///   them all.
///
/// None of them can go stale: a specification has no mutating method after
/// [`Specification::new`], and a changed specification is a new value with
/// empty caches.
#[derive(Debug, Clone)]
pub struct Specification {
    name: String,
    sp: SpGraph,
    controls: Vec<ControlSubgraph>,
    tree: AnnotatedTree,
    /// Tree node of each control annotation (the inserted `F`/`L` node).
    control_tree_nodes: Vec<TreeId>,
    /// Lazily computed arena-identity fingerprint of the annotated tree; used
    /// to detect stale runs after a specification is replaced.
    fp: std::sync::OnceLock<crate::Fingerprint>,
    /// Lazily computed branch-free length sets of the annotated tree.
    lengths: std::sync::OnceLock<BranchFreeLengths>,
    /// Lazily computed run validation and replay tables.
    tables: std::sync::OnceLock<SpecTables>,
}

/// What every run validation and replay against one specification reads.
#[derive(Debug, Clone)]
pub(crate) struct SpecTables {
    /// The label index, and the image of every node pair a run edge may
    /// map to: the spec edges and the loop back edges (`Extra(i)` is the
    /// back edge of the `i`-th loop in control order).
    pub(crate) graph: SpecGraphIndex,
    /// Spec edge by `(source-label, target-label)`.
    edge_by_labels: HashMap<(Label, Label), EdgeId>,
    /// Label pairs of the loop back edges.
    loop_back_labels: HashSet<(Label, Label)>,
    /// Number of spec edges: the first loop's key bit.
    edges: usize,
    /// Key bit of each control's back edge (`None` for forks).
    loop_bits: Vec<Option<usize>>,
    /// Width of a key set: the spec edges, then the loops.
    pub(crate) width: usize,
    /// The key set of every spec-tree node (see [`crate::keyset`]).
    pub(crate) keys: KeySets,
}

impl SpecTables {
    /// The key bit of a run edge that maps to `image`.
    pub(crate) fn key_bit(&self, image: EdgeImage) -> usize {
        match image {
            EdgeImage::Spec(e) => e.index(),
            EdgeImage::Extra(i) => self.edges + i,
        }
    }

    /// The key bit of control `control_id`'s back edge, for loops.
    pub(crate) fn loop_bit(&self, control_id: usize) -> Option<usize> {
        self.loop_bits.get(control_id).copied().flatten()
    }

    #[expect(
        clippy::expect_used,
        reason = "Specification::new checked the labels unique, and spec tree validation puts an edge on every Q leaf and a loop's control id on every L node"
    )]
    fn new(spec: &Specification) -> SpecTables {
        let graph = spec.graph();
        let edges = graph.edge_count();
        // The i-th loop in control order owns key bit `edges + i`.
        let mut loop_bits = vec![None; spec.controls.len()];
        let mut back_edges = Vec::new();
        for (c, control) in spec.controls.iter().enumerate() {
            if control.kind == ControlKind::Loop {
                loop_bits[c] = Some(edges + back_edges.len());
                back_edges.push((control.sink_label.clone(), control.source_label.clone()));
            }
        }
        let width = edges + back_edges.len();
        let tree = spec.tree();
        let mut keys = KeySets::new(tree.len(), width);
        for id in tree.postorder(tree.root()) {
            let node = tree.node(id);
            match node.ty {
                NodeType::Q => {
                    keys.insert(id.index(), node.edge.expect("spec Q leaves carry an edge").index())
                }
                NodeType::L => {
                    let bit = node.control_id.and_then(|c| loop_bits.get(c).copied().flatten());
                    keys.insert(id.index(), bit.expect("L nodes annotate loops"));
                }
                _ => {}
            }
            for &c in &node.children {
                keys.union_into(id.index(), c.index());
            }
        }
        SpecTables {
            graph: SpecGraphIndex::new(graph, spec.sp.source(), spec.sp.sink(), &back_edges)
                .expect("specification labels are unique"),
            edge_by_labels: graph
                .edges()
                .map(|(id, e)| ((graph.label(e.src).clone(), graph.label(e.dst).clone()), id))
                .collect(),
            loop_back_labels: back_edges.into_iter().collect(),
            edges,
            loop_bits,
            width,
            keys,
        }
    }
}

impl Specification {
    /// Builds a specification from an SP-graph and its fork/loop subgraphs
    /// (Algorithm 1).
    pub fn new(
        name: impl Into<String>,
        sp: SpGraph,
        controls: Vec<(ControlKind, BTreeSet<EdgeId>)>,
    ) -> Result<Self> {
        let name = name.into();
        // Specification labels must be unique.
        sp.graph().unique_label_index()?;
        let mut tree = canonical_tree(sp.graph(), sp.source(), sp.sink())?;

        // Validate the control family.
        let sets: Vec<BTreeSet<EdgeId>> = controls.iter().map(|(_, s)| s.clone()).collect();
        if let Err((i, j)) = check_laminar(&sets) {
            return Err(SpTreeError::NotLaminar {
                what: format!("control subgraphs #{i} and #{j} overlap without nesting"),
            });
        }
        if let Some((i, j)) = has_duplicate_sets(&sets) {
            return Err(SpTreeError::AmbiguousControl {
                what: format!("control subgraphs #{i} and #{j} cover exactly the same edges"),
            });
        }

        // Materialise the ControlSubgraph records (terminals from edge sets).
        let mut records = Vec::with_capacity(controls.len());
        for (kind, edges) in &controls {
            if edges.is_empty() {
                return Err(SpTreeError::ControlNotRepresentable {
                    what: "empty fork/loop subgraph".to_string(),
                });
            }
            let (source, sink) = subgraph_terminals(sp.graph(), edges)?;
            records.push(ControlSubgraph {
                kind: *kind,
                edges: edges.clone(),
                source,
                sink,
                source_label: sp.graph().label(source).clone(),
                sink_label: sp.graph().label(sink).clone(),
            });
        }

        // Algorithm 1: insert an F/L node for every control subgraph.
        let mut control_tree_nodes = vec![TreeId(0); records.len()];
        for (idx, rec) in records.iter().enumerate() {
            let inserted = insert_control_annotation(&mut tree, rec, idx)?;
            control_tree_nodes[idx] = inserted;
        }
        tree.recompute_leaf_counts();
        tree.validate_spec_tree()?;

        // Loop back edges `(t(H), s(H))` must be distinguishable by labels.
        let mut loop_back = HashSet::new();
        for rec in &records {
            if rec.kind == ControlKind::Loop
                && !loop_back.insert((&rec.sink_label, &rec.source_label))
            {
                return Err(SpTreeError::AmbiguousControl {
                    what: format!(
                        "two loops share the terminals ({}, {}); their implicit back edges \
                         would be indistinguishable in runs",
                        rec.source_label, rec.sink_label
                    ),
                });
            }
        }

        Ok(Specification {
            name,
            sp,
            controls: records,
            tree,
            control_tree_nodes,
            fp: std::sync::OnceLock::new(),
            lengths: std::sync::OnceLock::new(),
            tables: std::sync::OnceLock::new(),
        })
    }

    /// The **arena-identity** fingerprint of the annotated specification
    /// tree (cached after the first call); see
    /// [`crate::fingerprint::arena_fingerprint`].  Two specifications share
    /// a fingerprint iff their trees are equal as stored — equivalent trees
    /// built with a different parallel-branch order do **not**, because run
    /// trees reference specification nodes by arena id and are therefore not
    /// portable between such builds.
    pub fn fingerprint(&self) -> crate::Fingerprint {
        *self.fp.get_or_init(|| crate::fingerprint::arena_fingerprint(&self.tree))
    }

    /// The achievable branch-free lengths of every specification subtree
    /// (cached after the first call, like [`Specification::fingerprint`]).
    pub fn branch_free_lengths(&self) -> &BranchFreeLengths {
        self.lengths.get_or_init(|| BranchFreeLengths::compute(&self.tree))
    }

    /// The run validation and replay tables (cached after the first call,
    /// like [`Specification::fingerprint`]).
    pub(crate) fn tables(&self) -> &SpecTables {
        self.tables.get_or_init(|| SpecTables::new(self))
    }

    /// This specification's own [`Label`] for module `name`, if it has one.
    /// Runs rebuilt from text share it (a reference-count increment) rather
    /// than allocating one label per run node.
    pub fn label(&self, name: &str) -> Option<&Label> {
        self.tables().graph.node(name).map(|n| self.graph().label(n))
    }

    /// The specification name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The underlying SP-graph.
    pub fn sp(&self) -> &SpGraph {
        &self.sp
    }

    /// The underlying labeled graph.
    pub fn graph(&self) -> &LabeledDigraph {
        self.sp.graph()
    }

    /// The annotated SP-tree `T_G`.
    pub fn tree(&self) -> &AnnotatedTree {
        &self.tree
    }

    /// All fork/loop subgraphs in the order they were supplied.
    pub fn controls(&self) -> &[ControlSubgraph] {
        &self.controls
    }

    /// The control subgraph with the given index.
    pub fn control(&self, idx: usize) -> &ControlSubgraph {
        &self.controls[idx]
    }

    /// The tree node (`F` or `L`) annotating control `idx`.
    pub fn control_tree_node(&self, idx: usize) -> TreeId {
        self.control_tree_nodes[idx]
    }

    /// Number of forks `|F|`.
    pub fn fork_count(&self) -> usize {
        self.controls.iter().filter(|c| c.kind == ControlKind::Fork).count()
    }

    /// Number of loops `|L|`.
    pub fn loop_count(&self) -> usize {
        self.controls.iter().filter(|c| c.kind == ControlKind::Loop).count()
    }

    /// Table-I style statistics.
    pub fn stats(&self) -> SpecStats {
        SpecStats {
            nodes: self.graph().node_count(),
            edges: self.graph().edge_count(),
            forks: self.fork_count(),
            fork_edges: self
                .controls
                .iter()
                .filter(|c| c.kind == ControlKind::Fork)
                .map(|c| c.edge_count())
                .sum(),
            loops: self.loop_count(),
            loop_edges: self
                .controls
                .iter()
                .filter(|c| c.kind == ControlKind::Loop)
                .map(|c| c.edge_count())
                .sum(),
        }
    }

    /// The label pairs of the implicit loop back-edges, which runs may contain
    /// in addition to the specification edges.
    pub fn loop_back_labels(&self) -> &HashSet<(Label, Label)> {
        &self.tables().loop_back_labels
    }

    /// Maps a `(source-label, target-label)` pair to the specification edge id,
    /// when such an edge exists.  Because specification labels are unique and
    /// `G` is a simple multigraph built from compositions, at most one edge can
    /// connect a given ordered pair of labels in a specification.  (Where
    /// parallel edges join one pair anyway, the map keeps the highest id.)
    pub fn edge_by_labels(&self) -> &HashMap<(Label, Label), EdgeId> {
        &self.tables().edge_by_labels
    }
}

/// Computes the terminals of a subgraph given by an edge set: the unique node
/// that only appears as a source within the set, and the unique node that only
/// appears as a target.
fn subgraph_terminals(
    graph: &LabeledDigraph,
    edges: &BTreeSet<EdgeId>,
) -> Result<(NodeId, NodeId)> {
    let mut appears_as_src: BTreeMap<NodeId, usize> = BTreeMap::new();
    let mut appears_as_dst: BTreeMap<NodeId, usize> = BTreeMap::new();
    for &e in edges {
        let edge = graph.edge(e);
        *appears_as_src.entry(edge.src).or_insert(0) += 1;
        *appears_as_dst.entry(edge.dst).or_insert(0) += 1;
    }
    let sources: Vec<NodeId> =
        appears_as_src.keys().filter(|n| !appears_as_dst.contains_key(n)).copied().collect();
    let sinks: Vec<NodeId> =
        appears_as_dst.keys().filter(|n| !appears_as_src.contains_key(n)).copied().collect();
    if sources.len() != 1 || sinks.len() != 1 {
        return Err(SpTreeError::ControlNotRepresentable {
            what: format!(
                "fork/loop subgraph must have a single entry and a single exit \
                 (found {} entries, {} exits)",
                sources.len(),
                sinks.len()
            ),
        });
    }
    Ok((sources[0], sinks[0]))
}

/// Algorithm 1, one subgraph at a time: finds the deepest tree node whose leaf
/// set contains the subgraph's edge set and inserts the `F`/`L` annotation.
/// Returns the id of the inserted annotation node.
fn insert_control_annotation(
    tree: &mut AnnotatedTree,
    rec: &ControlSubgraph,
    control_id: usize,
) -> Result<TreeId> {
    let target: BTreeSet<EdgeId> = rec.edges.clone();
    // Find the deepest node v with Leaf(T[v]) ⊇ target.
    let mut v = tree.root();
    'descend: loop {
        for &c in tree.children(v) {
            let leaves: BTreeSet<EdgeId> = tree.leaf_edges(c).into_iter().collect();
            if target.is_subset(&leaves) {
                v = c;
                continue 'descend;
            }
        }
        break;
    }
    let v_leaves: BTreeSet<EdgeId> = tree.leaf_edges(v).into_iter().collect();
    let node_ty = annotation_type(rec.kind);

    if v_leaves == target {
        // Case 1: the subtree rooted at v represents exactly the subgraph.
        match (rec.kind, tree.ty(v)) {
            (ControlKind::Fork, NodeType::Q | NodeType::S) => {}
            (ControlKind::Loop, NodeType::Q | NodeType::S | NodeType::P) => {}
            (kind, ty) => {
                return Err(SpTreeError::ControlNotRepresentable {
                    what: format!(
                        "{kind:?} subgraph between {} and {} maps to a {ty} subtree, which is not \
                         a {} subgraph",
                        rec.source_label,
                        rec.sink_label,
                        if rec.kind == ControlKind::Fork { "series" } else { "complete" }
                    ),
                });
            }
        }
        let mut ann = TreeNode::new(
            node_ty,
            tree.node(v).s_label.clone(),
            tree.node(v).t_label.clone(),
            tree.node(v).s_node,
            tree.node(v).t_node,
        );
        ann.control_id = Some(control_id);
        Ok(tree.insert_parent(v, ann))
    } else {
        // Case 2: the subgraph is a proper consecutive subsequence of the
        // children of an S node.
        if tree.ty(v) != NodeType::S {
            return Err(SpTreeError::ControlNotRepresentable {
                what: format!(
                    "{:?} subgraph between {} and {} is a proper subset of a {} subtree; only \
                     consecutive children of a series node can be annotated",
                    rec.kind,
                    rec.source_label,
                    rec.sink_label,
                    tree.ty(v)
                ),
            });
        }
        let children: Vec<TreeId> = tree.children(v).to_vec();
        let mut covered: Vec<bool> = Vec::with_capacity(children.len());
        for &c in &children {
            let leaves: BTreeSet<EdgeId> = tree.leaf_edges(c).into_iter().collect();
            if leaves.is_subset(&target) {
                covered.push(true);
            } else if leaves.is_disjoint(&target) {
                covered.push(false);
            } else {
                return Err(SpTreeError::ControlNotRepresentable {
                    what: format!(
                        "{:?} subgraph between {} and {} cuts across a child subtree",
                        rec.kind, rec.source_label, rec.sink_label
                    ),
                });
            }
        }
        let first = covered.iter().position(|&b| b);
        let last = covered.iter().rposition(|&b| b);
        let (first, last) = match (first, last) {
            (Some(f), Some(l)) => (f, l),
            _ => {
                return Err(SpTreeError::ControlNotRepresentable {
                    what: "fork/loop subgraph covers no child of the series node".to_string(),
                })
            }
        };
        if covered[first..=last].iter().any(|&b| !b) {
            return Err(SpTreeError::ControlNotRepresentable {
                what: format!(
                    "{:?} subgraph between {} and {} does not cover a consecutive range of the \
                     series node's children",
                    rec.kind, rec.source_label, rec.sink_label
                ),
            });
        }
        // Check the union matches exactly.
        let mut union: BTreeSet<EdgeId> = BTreeSet::new();
        for &c in &children[first..=last] {
            union.extend(tree.leaf_edges(c));
        }
        if union != target {
            return Err(SpTreeError::ControlNotRepresentable {
                what: format!(
                    "{:?} subgraph between {} and {} is not exactly a union of consecutive \
                     series children",
                    rec.kind, rec.source_label, rec.sink_label
                ),
            });
        }
        let first_child = children[first];
        let last_child = children[last];
        let group_node = TreeNode::new(
            NodeType::S,
            tree.node(first_child).s_label.clone(),
            tree.node(last_child).t_label.clone(),
            tree.node(first_child).s_node,
            tree.node(last_child).t_node,
        );
        let grouped = tree.group_children(v, first..last + 1, group_node);
        let mut ann = TreeNode::new(
            node_ty,
            tree.node(grouped).s_label.clone(),
            tree.node(grouped).t_label.clone(),
            tree.node(grouped).s_node,
            tree.node(grouped).t_node,
        );
        ann.control_id = Some(control_id);
        Ok(tree.insert_parent(grouped, ann))
    }
}

fn annotation_type(kind: ControlKind) -> NodeType {
    match kind {
        ControlKind::Fork => NodeType::F,
        ControlKind::Loop => NodeType::L,
    }
}

/// A convenience builder for specifications: add labeled edges, then declare
/// forks and loops by label paths or by terminal pairs.
#[derive(Debug, Clone, Default)]
pub struct SpecificationBuilder {
    name: String,
    graph: LabeledDigraph,
    by_label: HashMap<Label, NodeId>,
    controls: Vec<(ControlKind, ControlSelector)>,
}

/// How a fork/loop subgraph is described to the builder.
#[derive(Debug, Clone)]
enum ControlSelector {
    /// The edges along a node-label path `l0 -> l1 -> ... -> lk`.
    Path(Vec<Label>),
    /// Every edge lying on a path between the two labeled nodes.
    Between(Label, Label),
    /// Explicit edge list given as `(from-label, to-label)` pairs.
    Edges(Vec<(Label, Label)>),
}

impl SpecificationBuilder {
    /// Creates a builder for a specification with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        SpecificationBuilder { name: name.into(), ..Default::default() }
    }

    fn node(&mut self, label: &str) -> NodeId {
        let key = Label::new(label);
        if let Some(&id) = self.by_label.get(&key) {
            id
        } else {
            let id = self.graph.add_node(key.clone());
            self.by_label.insert(key, id);
            id
        }
    }

    /// Adds an edge between the two labeled modules (creating them on first
    /// use) and returns the builder for chaining.
    pub fn edge(&mut self, from: &str, to: &str) -> &mut Self {
        let u = self.node(from);
        let v = self.node(to);
        self.graph.add_edge(u, v);
        self
    }

    /// Adds every consecutive pair of `labels` as an edge (a path).
    pub fn path(&mut self, labels: &[&str]) -> &mut Self {
        for w in labels.windows(2) {
            self.edge(w[0], w[1]);
        }
        self
    }

    /// Declares a fork over the series subgraph following the node-label path.
    pub fn fork_path(&mut self, labels: &[&str]) -> &mut Self {
        self.controls.push((
            ControlKind::Fork,
            ControlSelector::Path(labels.iter().map(Label::new).collect()),
        ));
        self
    }

    /// Declares a fork over every edge lying between the two labeled nodes.
    pub fn fork_between(&mut self, from: &str, to: &str) -> &mut Self {
        self.controls
            .push((ControlKind::Fork, ControlSelector::Between(Label::new(from), Label::new(to))));
        self
    }

    /// Declares a fork over an explicit list of edges.
    pub fn fork_edges(&mut self, edges: &[(&str, &str)]) -> &mut Self {
        self.controls.push((
            ControlKind::Fork,
            ControlSelector::Edges(
                edges.iter().map(|(a, b)| (Label::new(a), Label::new(b))).collect(),
            ),
        ));
        self
    }

    /// Declares a loop over the series subgraph following the node-label path.
    pub fn loop_path(&mut self, labels: &[&str]) -> &mut Self {
        self.controls.push((
            ControlKind::Loop,
            ControlSelector::Path(labels.iter().map(Label::new).collect()),
        ));
        self
    }

    /// Declares a loop over every edge lying between the two labeled nodes.
    pub fn loop_between(&mut self, from: &str, to: &str) -> &mut Self {
        self.controls
            .push((ControlKind::Loop, ControlSelector::Between(Label::new(from), Label::new(to))));
        self
    }

    /// Declares a loop over an explicit list of edges.
    pub fn loop_edges(&mut self, edges: &[(&str, &str)]) -> &mut Self {
        self.controls.push((
            ControlKind::Loop,
            ControlSelector::Edges(
                edges.iter().map(|(a, b)| (Label::new(a), Label::new(b))).collect(),
            ),
        ));
        self
    }

    /// Builds the [`Specification`].
    pub fn build(&self) -> Result<Specification> {
        let sp = SpGraph::from_flow_network(self.graph.clone())?;
        let mut edge_lookup: HashMap<(NodeId, NodeId), Vec<EdgeId>> = HashMap::new();
        for (id, e) in self.graph.edges() {
            edge_lookup.entry((e.src, e.dst)).or_default().push(id);
        }
        let resolve_node = |label: &Label| -> Result<NodeId> {
            self.by_label
                .get(label)
                .copied()
                .ok_or_else(|| SpTreeError::Graph(GraphError::UnknownLabel(label.clone())))
        };
        let mut controls = Vec::with_capacity(self.controls.len());
        for (kind, sel) in &self.controls {
            let edges: BTreeSet<EdgeId> = match sel {
                ControlSelector::Path(labels) => {
                    let mut set = BTreeSet::new();
                    for w in labels.windows(2) {
                        let u = resolve_node(&w[0])?;
                        let v = resolve_node(&w[1])?;
                        let candidates = edge_lookup.get(&(u, v)).ok_or_else(|| {
                            SpTreeError::ControlNotRepresentable {
                                what: format!("no edge {} -> {} in the specification", w[0], w[1]),
                            }
                        })?;
                        set.insert(candidates[0]);
                    }
                    set
                }
                ControlSelector::Between(from, to) => {
                    let u = resolve_node(from)?;
                    let v = resolve_node(to)?;
                    edges_between(&self.graph, u, v)
                }
                ControlSelector::Edges(pairs) => {
                    let mut set = BTreeSet::new();
                    for (a, b) in pairs {
                        let u = resolve_node(a)?;
                        let v = resolve_node(b)?;
                        let candidates = edge_lookup.get(&(u, v)).ok_or_else(|| {
                            SpTreeError::ControlNotRepresentable {
                                what: format!("no edge {a} -> {b} in the specification"),
                            }
                        })?;
                        set.extend(candidates.iter().copied());
                    }
                    set
                }
            };
            controls.push((*kind, edges));
        }
        Specification::new(self.name.clone(), sp, controls)
    }
}

/// Every edge lying on some path from `s` to `t`.
fn edges_between(graph: &LabeledDigraph, s: NodeId, t: NodeId) -> BTreeSet<EdgeId> {
    let from_s = graph.reachable_from(s);
    let to_t = graph.reaching(t);
    graph
        .edges()
        .filter(|(_, e)| {
            from_s[e.src.index()]
                && to_t[e.src.index()]
                && from_s[e.dst.index()]
                && to_t[e.dst.index()]
        })
        .map(|(id, _)| id)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Figure 2(a) specification: forks over (2,3,6), (2,4,6), (2,5,6) and
    /// the whole graph; loop over the subgraph between 2 and 6.
    pub fn fig2_specification() -> Specification {
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

    #[test]
    fn fig2_spec_builds_and_has_expected_stats() {
        let spec = fig2_specification();
        let stats = spec.stats();
        assert_eq!(stats.nodes, 7);
        assert_eq!(stats.edges, 8);
        assert_eq!(stats.forks, 4);
        assert_eq!(stats.loops, 1);
        // Forks cover 2 + 2 + 2 + 8 = 14 edges; the loop covers 6 edges.
        assert_eq!(stats.fork_edges, 14);
        assert_eq!(stats.loop_edges, 6);
    }

    #[test]
    fn fig2_annotated_tree_matches_fig6b() {
        // Fig. 6(b): F( S( Q(1,2), L( F(S(Q..)), ... actually the loop wraps the
        // parallel section; here we check the key structural facts: the root is
        // an F node (whole-graph fork), each branch S(Q,Q) has an F parent, and
        // an L node wraps the parallel section between 2 and 6.
        let spec = fig2_specification();
        let tree = spec.tree();
        assert_eq!(tree.ty(tree.root()), NodeType::F);
        assert!(tree.validate_spec_tree().is_ok());
        // Count node types.
        let mut counts: HashMap<NodeType, usize> = HashMap::new();
        for id in tree.postorder(tree.root()) {
            *counts.entry(tree.ty(id)).or_insert(0) += 1;
        }
        assert_eq!(counts[&NodeType::Q], 8);
        assert_eq!(counts[&NodeType::F], 4);
        assert_eq!(counts[&NodeType::L], 1);
        assert_eq!(counts[&NodeType::P], 1);
        // 1 outer S + 3 branch S nodes.
        assert_eq!(counts[&NodeType::S], 4);
    }

    #[test]
    fn loop_back_edge_lookup() {
        let spec = fig2_specification();
        assert!(spec.loop_back_labels().contains(&(Label::new("6"), Label::new("2"))));
        assert!(!spec.loop_back_labels().contains(&(Label::new("7"), Label::new("1"))));
        assert_eq!(spec.loop_back_labels().len(), 1);
    }

    #[test]
    fn crossing_controls_rejected() {
        let mut b = SpecificationBuilder::new("bad");
        b.path(&["a", "b", "c", "d"]);
        b.fork_path(&["a", "b", "c"]);
        b.fork_path(&["b", "c", "d"]);
        let err = b.build().unwrap_err();
        assert!(matches!(err, SpTreeError::NotLaminar { .. }));
    }

    #[test]
    fn duplicate_controls_rejected() {
        let mut b = SpecificationBuilder::new("dup");
        b.path(&["a", "b", "c"]);
        b.fork_path(&["a", "b", "c"]);
        b.loop_between("a", "c");
        let err = b.build().unwrap_err();
        assert!(matches!(err, SpTreeError::AmbiguousControl { .. }));
    }

    #[test]
    fn fork_over_parallel_subgraph_rejected() {
        // The subgraph between 1 and 3 is a parallel subgraph (two branches);
        // forks must be over series subgraphs.
        let mut b = SpecificationBuilder::new("badfork");
        b.edge("1", "2").edge("2", "3").edge("1", "3");
        b.fork_between("1", "3");
        let err = b.build().unwrap_err();
        assert!(matches!(err, SpTreeError::ControlNotRepresentable { .. }));
    }

    #[test]
    fn loop_over_parallel_subgraph_accepted() {
        let mut b = SpecificationBuilder::new("okloop");
        b.edge("0", "1").edge("1", "2").edge("2", "3").edge("1", "3").edge("3", "4");
        b.loop_between("1", "3");
        let spec = b.build().unwrap();
        assert_eq!(spec.loop_count(), 1);
        let tree = spec.tree();
        // The L node wraps the P node representing the parallel section.
        let l_node = spec.control_tree_node(0);
        assert_eq!(tree.ty(l_node), NodeType::L);
        assert_eq!(tree.ty(tree.children(l_node)[0]), NodeType::P);
    }

    #[test]
    fn fork_over_consecutive_series_children_inserts_grouping_s_node() {
        // Chain a->b->c->d->e with a fork over the middle b->c->d.
        let mut b = SpecificationBuilder::new("mid");
        b.path(&["a", "b", "c", "d", "e"]);
        b.fork_path(&["b", "c", "d"]);
        let spec = b.build().unwrap();
        let tree = spec.tree();
        let root = tree.root();
        assert_eq!(tree.ty(root), NodeType::S);
        // Root children: Q(a,b), F, Q(d,e).
        assert_eq!(tree.children(root).len(), 3);
        let f = tree.children(root)[1];
        assert_eq!(tree.ty(f), NodeType::F);
        let grouped = tree.children(f)[0];
        assert_eq!(tree.ty(grouped), NodeType::S);
        assert_eq!(tree.leaf_count(grouped), 2);
        assert!(tree.validate_spec_tree().is_ok());
    }

    #[test]
    fn nested_controls_nest_in_the_tree() {
        // Loop over b..d containing a fork over b->c.
        let mut b = SpecificationBuilder::new("nested");
        b.path(&["a", "b", "c", "d", "e"]);
        b.loop_between("b", "d");
        b.fork_path(&["b", "c"]);
        let spec = b.build().unwrap();
        let tree = spec.tree();
        let l_node = spec.control_tree_node(0);
        let f_node = spec.control_tree_node(1);
        assert_eq!(tree.ty(l_node), NodeType::L);
        assert_eq!(tree.ty(f_node), NodeType::F);
        // The fork must be a descendant of the loop.
        let mut cur = Some(f_node);
        let mut found = false;
        while let Some(c) = cur {
            if c == l_node {
                found = true;
                break;
            }
            cur = tree.parent(c);
        }
        assert!(found, "fork annotation should be nested inside the loop annotation");
    }

    #[test]
    fn stats_of_simple_spec_without_controls() {
        let mut b = SpecificationBuilder::new("plain");
        b.path(&["x", "y", "z"]);
        let spec = b.build().unwrap();
        let stats = spec.stats();
        assert_eq!(stats.forks + stats.loops, 0);
        assert_eq!(stats.edges, 2);
        assert_eq!(spec.tree().ty(spec.tree().root()), NodeType::S);
    }

    #[test]
    fn duplicate_labels_rejected() {
        // Two different nodes labelled "x" cannot form a specification; the
        // builder deduplicates by label so build an SpGraph directly.
        let mut g = LabeledDigraph::new();
        let a = g.add_node("x");
        let b = g.add_node("x");
        let c = g.add_node("y");
        g.add_edge(a, b);
        g.add_edge(b, c);
        let sp = SpGraph::from_flow_network(g).unwrap();
        let err = Specification::new("dup-labels", sp, vec![]).unwrap_err();
        assert!(matches!(err, SpTreeError::Graph(GraphError::DuplicateSpecLabel(_))));
    }

    #[test]
    fn edge_by_labels_lookup() {
        let spec = fig2_specification();
        let map = spec.edge_by_labels();
        assert!(map.contains_key(&(Label::new("1"), Label::new("2"))));
        assert!(map.contains_key(&(Label::new("2"), Label::new("5"))));
        assert_eq!(map.len(), 8);
    }
}
