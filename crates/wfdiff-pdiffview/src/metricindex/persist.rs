//! The `metric_index.json` checkpoint of an [`IncrementalMetricIndex`].
//!
//! This module holds only what is particular to vantage-point trees: the
//! entry type (a flattened node arena) and the structural half of
//! validating one — every member exactly once across pivots, twins and
//! leaves, every node reachable exactly once, finite non-negative radii and
//! strictly ascending leaves.  Saving as WAL deltas (kind 4), folding into
//! [`METRIC_INDEX_FILE`], loading, the store-facing checks and the dirty
//! tracking are the shared mechanism of [`crate::derived`], exactly as for
//! `cluster_cache.json`.

use super::incremental::{IncrementalMetricIndex, SpecMetricState};
use super::vptree::{VpNode, VpTree};
use crate::derived::{DerivedIndex, EntryKey, SpecStates};
use crate::wal::DerivedKind;
use serde::{Deserialize, Serialize};
use wfdiff_sptree::Fingerprint;

/// Version tag of the metric-index artifact; unknown versions are treated
/// as stale (rebuilt), never as errors.
pub const METRIC_INDEX_FORMAT: u32 = 1;

/// File name of the artifact inside a store directory.
pub const METRIC_INDEX_FILE: &str = "metric_index.json";

/// One specification's checkpointed vantage-point tree, in
/// `metric_index.json` and in a kind-4 WAL record alike (last write wins).
#[derive(Debug, Serialize, Deserialize)]
pub(crate) struct SpecMetricDoc {
    spec: String,
    /// Version fingerprint (hex) of the specification the tree was built
    /// against; must match the loaded store's version exactly.
    spec_fingerprint: String,
    /// Seed of the pivot draw.
    seed: u64,
    /// Indexed runs, strictly ascending.
    members: Vec<String>,
    /// Canonical tree fingerprint (hex) of each member's run **content**,
    /// aligned with `members` — a run replaced under an unchanged name must
    /// not let a tree shaped by its old distances validate as fresh.
    run_fingerprints: Vec<String>,
    /// Arena index of the root node, `-1` for an empty tree.
    root: i64,
    /// The node arena, flat (the vendored serde has no tagged enums).
    nodes: Vec<NodeDoc>,
}

/// One flattened [`VpNode`]: `leaf` discriminates, unused fields are empty.
#[derive(Debug, Serialize, Deserialize)]
struct NodeDoc {
    /// `true` for a leaf bucket, `false` for a routing node.
    leaf: bool,
    /// Pivot run name (routing nodes only; empty for leaves).
    pivot: String,
    /// Zero-distance duplicates of the pivot, strictly ascending (routing
    /// nodes only; empty for leaves).
    twins: Vec<String>,
    /// Partition radius (routing nodes only; `0` for leaves).
    mu: f64,
    /// Arena index of the inside subtree, `-1` for none.
    inside: i64,
    /// Arena index of the outside subtree, `-1` for none.
    outside: i64,
    /// Leaf members, strictly ascending (leaves only; empty for inner).
    items: Vec<String>,
}

fn child_doc(child: Option<usize>) -> i64 {
    child.map(|c| c as i64).unwrap_or(-1)
}

impl DerivedIndex for IncrementalMetricIndex {
    type State = SpecMetricState;
    type Doc = SpecMetricDoc;
    const FILE: &'static str = METRIC_INDEX_FILE;
    const FORMAT: u32 = METRIC_INDEX_FORMAT;
    const KIND: DerivedKind = DerivedKind::Metric;

    fn states(&self) -> &SpecStates<SpecMetricState> {
        &self.states
    }

    fn members(state: &SpecMetricState) -> &[String] {
        &state.members
    }

    fn to_doc(spec: &str, state: &SpecMetricState, run_fingerprints: Vec<String>) -> SpecMetricDoc {
        let nodes = state
            .tree
            .nodes
            .iter()
            .map(|node| match node {
                VpNode::Inner { pivot, twins, mu, inside, outside } => NodeDoc {
                    leaf: false,
                    pivot: pivot.clone(),
                    twins: twins.clone(),
                    mu: *mu,
                    inside: child_doc(*inside),
                    outside: child_doc(*outside),
                    items: Vec::new(),
                },
                VpNode::Leaf { items } => NodeDoc {
                    leaf: true,
                    pivot: String::new(),
                    twins: Vec::new(),
                    mu: 0.0,
                    inside: -1,
                    outside: -1,
                    items: items.clone(),
                },
            })
            .collect();
        SpecMetricDoc {
            spec: spec.to_string(),
            spec_fingerprint: state.version.to_string(),
            seed: state.seed,
            members: state.members.clone(),
            run_fingerprints,
            root: child_doc(state.tree.root),
            nodes,
        }
    }

    fn key(doc: &SpecMetricDoc) -> EntryKey<'_> {
        EntryKey {
            spec: &doc.spec,
            spec_fingerprint: &doc.spec_fingerprint,
            members: &doc.members,
            run_fingerprints: &doc.run_fingerprints,
        }
    }

    fn to_state(doc: SpecMetricDoc, version: Fingerprint) -> Option<SpecMetricState> {
        // Walk the arena from the root: every node reachable exactly once,
        // every member appearing exactly once across pivots and leaf items.
        let root = usize::try_from(doc.root).ok()?;
        let mut visited = vec![false; doc.nodes.len()];
        let mut held: Vec<&str> = Vec::with_capacity(doc.members.len());
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            let node = doc.nodes.get(id)?;
            if std::mem::replace(&mut visited[id], true) {
                return None;
            }
            if node.leaf {
                if !node.pivot.is_empty()
                    || !node.twins.is_empty()
                    || node.inside != -1
                    || node.outside != -1
                    || !node.items.windows(2).all(|w| w[0] < w[1])
                {
                    return None;
                }
                held.extend(node.items.iter().map(String::as_str));
            } else {
                if !node.items.is_empty()
                    || node.pivot.is_empty()
                    || !node.mu.is_finite()
                    || node.mu < 0.0
                    || !node.twins.windows(2).all(|w| w[0] < w[1])
                {
                    return None;
                }
                held.push(node.pivot.as_str());
                held.extend(node.twins.iter().map(String::as_str));
                for child in [node.inside, node.outside] {
                    if child != -1 {
                        stack.push(usize::try_from(child).ok()?);
                    }
                }
            }
        }
        if visited.iter().any(|v| !v) {
            return None;
        }
        held.sort_unstable();
        if held.len() != doc.members.len()
            || held.iter().copied().ne(doc.members.iter().map(String::as_str))
        {
            return None;
        }
        let nodes: Vec<VpNode> = doc
            .nodes
            .into_iter()
            .map(|node| {
                if node.leaf {
                    VpNode::Leaf { items: node.items }
                } else {
                    VpNode::Inner {
                        pivot: node.pivot,
                        twins: node.twins,
                        mu: node.mu,
                        inside: usize::try_from(node.inside).ok(),
                        outside: usize::try_from(node.outside).ok(),
                    }
                }
            })
            .collect();
        Some(SpecMetricState {
            seed: doc.seed,
            version,
            members: doc.members,
            tree: VpTree { nodes, root: Some(root) },
        })
    }
}
