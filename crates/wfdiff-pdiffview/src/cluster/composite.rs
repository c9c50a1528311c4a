//! Composite-module clustering (the "zoom" feature of Section VII).
//!
//! PDiffView lets users successively cluster modules of the specification
//! into *composite modules* and view the difference of two runs at any level
//! of the resulting hierarchy: composite modules with many changes stand out,
//! unchanged ones can be ignored.  [`Clustering`] assigns specification
//! modules to named clusters and [`ClusterDiff`] aggregates an edit script's
//! operations per cluster.

use crate::session::DiffSession;
use std::collections::{BTreeMap, HashMap};
use wfdiff_core::OpDirection;
use wfdiff_sptree::Specification;

/// An assignment of specification modules (labels) to named composite modules.
#[derive(Debug, Clone, Default)]
pub struct Clustering {
    cluster_of: HashMap<String, String>,
}

impl Clustering {
    /// Creates an empty clustering (every module is its own cluster).
    pub fn new() -> Self {
        Clustering::default()
    }

    /// Assigns a set of module labels to a composite module.
    pub fn assign(&mut self, cluster: &str, modules: &[&str]) -> &mut Self {
        for m in modules {
            self.cluster_of.insert((*m).to_string(), cluster.to_string());
        }
        self
    }

    /// The composite module of a label (labels without an explicit assignment
    /// form singleton clusters named after themselves).
    pub fn cluster_of(&self, module: &str) -> String {
        self.cluster_of.get(module).cloned().unwrap_or_else(|| module.to_string())
    }

    /// Builds a clustering that groups modules by the prefix before the first
    /// occurrence of `separator` in their label (`"blast_swp"` and
    /// `"blast_pir"` both go to `"blast"`); a convenient default for workflows
    /// with hierarchical module names.
    pub fn by_prefix(spec: &Specification, separator: char) -> Self {
        let mut clustering = Clustering::new();
        for (_, node) in spec.graph().nodes() {
            let label = node.label.as_str();
            if let Some(pos) = label.find(separator) {
                clustering.cluster_of.insert(label.to_string(), label[..pos].to_string());
            }
        }
        clustering
    }

    /// Number of explicit assignments.
    pub fn len(&self) -> usize {
        self.cluster_of.len()
    }

    /// `true` when no explicit assignment was made.
    pub fn is_empty(&self) -> bool {
        self.cluster_of.is_empty()
    }
}

/// Per-composite-module aggregation of an edit script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterDiff {
    /// For every composite module: (deletion touches, insertion touches).
    pub changes: BTreeMap<String, (usize, usize)>,
}

impl ClusterDiff {
    /// Aggregates the session's edit script by composite module: an operation
    /// touches a cluster if any label on its path belongs to the cluster.
    pub fn compute(session: &DiffSession, clustering: &Clustering) -> ClusterDiff {
        let mut changes: BTreeMap<String, (usize, usize)> = BTreeMap::new();
        for op in &session.script().ops {
            let mut touched: Vec<String> =
                op.labels.iter().map(|l| clustering.cluster_of(l.as_str())).collect();
            touched.sort();
            touched.dedup();
            for cluster in touched {
                let entry = changes.entry(cluster).or_default();
                match op.direction {
                    OpDirection::Delete => entry.0 += 1,
                    OpDirection::Insert => entry.1 += 1,
                }
            }
        }
        ClusterDiff { changes }
    }

    /// The composite modules ordered by total amount of change (descending) —
    /// "where should the scientist zoom in first".
    pub fn hotspots(&self) -> Vec<(&str, usize)> {
        let mut v: Vec<(&str, usize)> =
            self.changes.iter().map(|(k, (d, i))| (k.as_str(), d + i)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        v
    }

    /// Composite modules with no change at all are simply absent from
    /// `changes`; this helper reports whether a given cluster changed.
    pub fn changed(&self, cluster: &str) -> bool {
        self.changes.contains_key(cluster)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfdiff_core::UnitCost;
    use wfdiff_workloads::figures::{fig2_run1, fig2_run2, fig2_specification};

    #[test]
    fn cluster_diff_aggregates_changes() {
        let spec = fig2_specification();
        let r1 = fig2_run1(&spec);
        let r2 = fig2_run2(&spec);
        let session = DiffSession::new(&spec, &UnitCost, &r1, &r2).unwrap();
        let mut clustering = Clustering::new();
        clustering.assign("analysis", &["2", "3", "4", "5", "6"]);
        clustering.assign("io", &["1", "7"]);
        let diff = ClusterDiff::compute(&session, &clustering);
        assert!(diff.changed("analysis"));
        // All operations touch the analysis section; the whole-workflow copy
        // insertion also touches the io section.
        let hotspots = diff.hotspots();
        assert_eq!(hotspots[0].0, "analysis");
        assert!(diff.changes["analysis"].0 >= 1);
        assert!(diff.changes["analysis"].1 >= 1);
    }

    #[test]
    fn unassigned_modules_are_singleton_clusters() {
        let clustering = Clustering::new();
        assert_eq!(clustering.cluster_of("BlastSwP"), "BlastSwP");
        assert!(clustering.is_empty());
    }

    #[test]
    fn prefix_clustering_groups_by_separator() {
        let mut b = wfdiff_sptree::SpecificationBuilder::new("prefixed");
        b.path(&["start", "blast_swp", "blast_merge", "report_final"]);
        let spec = b.build().unwrap();
        let clustering = Clustering::by_prefix(&spec, '_');
        assert_eq!(clustering.cluster_of("blast_swp"), "blast");
        assert_eq!(clustering.cluster_of("blast_merge"), "blast");
        assert_eq!(clustering.cluster_of("report_final"), "report");
        assert_eq!(clustering.cluster_of("start"), "start");
    }
}
