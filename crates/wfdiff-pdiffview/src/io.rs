//! Import/export of specifications, runs and edit scripts.
//!
//! The PDiffView prototype of the paper stores specifications and runs as XML
//! documents.  Here JSON (via serde) is the primary interchange format —
//! round-trippable in both directions — and a small XML writer mirrors the
//! paper's storage format for export.
//!
//! # Descriptor format
//!
//! Both descriptors carry an explicit [`DESCRIPTOR_FORMAT`] version tag so
//! that persisted documents can be recognised (and rejected with a clear
//! error) after incompatible format changes.  Version 2 references
//! fork/loop subgraphs by **edge index** into the descriptor's `edges` vec
//! rather than by `(source-label, target-label)` pairs: label pairs are
//! ambiguous for the parallel multi-edges a specification may contain (two
//! `A → B` edges would collapse onto whichever edge a lookup map kept last),
//! whereas indices are bijective with the specification's edges.
//!
//! Everything rebuilt from a descriptor is validated: unknown edge indices,
//! out-of-range node indices and malformed structures surface as
//! [`SpTreeError`] values instead of panicking, so descriptors parsed from
//! untrusted or hand-edited input are safe to import.

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use wfdiff_core::{EditScript, OpDirection};
use wfdiff_graph::{EdgeId, LabeledDigraph};
use wfdiff_sptree::{ControlKind, Run, SpTreeError, Specification};

/// Version tag of the descriptor JSON format produced by this module.
///
/// * **1** — historical: fork/loop subgraphs referenced edges by
///   `(source-label, target-label)` pairs, which is ambiguous for parallel
///   edges.  No longer readable.
/// * **2** — current: fork/loop subgraphs reference edges by index into the
///   descriptor's `edges` vec.
pub const DESCRIPTOR_FORMAT: u32 = 2;

fn check_format(found: u32, what: &str) -> Result<(), SpTreeError> {
    if found == DESCRIPTOR_FORMAT {
        Ok(())
    } else {
        Err(SpTreeError::Invariant(format!(
            "{what} has descriptor format {found}, but this build reads only format \
             {DESCRIPTOR_FORMAT}"
        )))
    }
}

/// Parses a descriptor document, diagnosing version mismatches.  The typed
/// parse runs first (no extra work for valid documents); a parsed value
/// whose `format` field (read through `format_of`) is not
/// [`DESCRIPTOR_FORMAT`] is rejected, and when the typed parse itself fails
/// the `format` field alone is probed, so an old-format document (whose
/// field types differ — v1 stored control edges as label pairs) is reported
/// as a version mismatch rather than a confusing `invalid type` error on
/// some inner field.
fn parse_versioned<T: for<'de> Deserialize<'de>>(
    json: &str,
    what: &str,
    format_of: impl Fn(&T) -> u32,
) -> Result<T, serde_json::Error> {
    /// Only the version tag; every other field is ignored.
    #[derive(Deserialize)]
    struct Probe {
        #[serde(default)]
        format: u32,
    }
    match serde_json::from_str::<T>(json) {
        Ok(value) if format_of(&value) != DESCRIPTOR_FORMAT => {
            Err(version_error(format_of(&value), what))
        }
        Ok(value) => Ok(value),
        Err(schema_error) => match serde_json::from_str::<Probe>(json) {
            Ok(probe) if probe.format != DESCRIPTOR_FORMAT => {
                Err(version_error(probe.format, what))
            }
            _ => Err(schema_error),
        },
    }
}

fn version_error(found: u32, what: &str) -> serde_json::Error {
    serde::de::Error::custom(format!(
        "{what} has descriptor format {found}, but this build reads only format \
         {DESCRIPTOR_FORMAT}"
    ))
}

/// A serialisable description of an SP-workflow specification.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpecDescriptor {
    /// Descriptor format version; see [`DESCRIPTOR_FORMAT`].
    #[serde(default)]
    pub format: u32,
    /// Specification name.
    pub name: String,
    /// Node labels in specification node-id order.  Rebuilding adds these
    /// nodes first, so the rebuilt graph — and with it the version
    /// fingerprint — equals the original.  Absent in older documents, which
    /// rebuild nodes in the order their labels first appear in `edges`.
    #[serde(default)]
    pub nodes: Vec<String>,
    /// Edges as `(source-label, target-label)` pairs, in specification edge-id
    /// order.
    pub edges: Vec<(String, String)>,
    /// Fork subgraphs, each a list of indices into [`SpecDescriptor::edges`].
    pub forks: Vec<Vec<usize>>,
    /// Loop subgraphs, each a list of indices into [`SpecDescriptor::edges`].
    pub loops: Vec<Vec<usize>>,
}

impl SpecDescriptor {
    /// Extracts a descriptor from a built specification.
    pub fn from_specification(spec: &Specification) -> Self {
        let graph = spec.graph();
        let label = |n| graph.label(n).as_str().to_string();
        // The descriptor's edge list is emitted in edge-id order, so a
        // specification edge's descriptor index is exactly its dense id.
        let mut forks = Vec::new();
        let mut loops = Vec::new();
        for control in spec.controls() {
            let edges: Vec<usize> = control.edges.iter().map(|e| e.index()).collect();
            match control.kind {
                ControlKind::Fork => forks.push(edges),
                ControlKind::Loop => loops.push(edges),
            }
        }
        SpecDescriptor {
            format: DESCRIPTOR_FORMAT,
            name: spec.name().to_string(),
            nodes: graph.node_ids().map(label).collect(),
            edges: graph.edges().map(|(_, e)| (label(e.src), label(e.dst))).collect(),
            forks,
            loops,
        }
    }

    /// Builds the specification described by this descriptor.
    ///
    /// Every reference is validated: an unknown descriptor format or a
    /// control subgraph naming an edge index outside `0..edges.len()` is
    /// reported as an error, never trusted.
    pub fn to_specification(&self) -> Result<Specification, SpTreeError> {
        check_format(self.format, "specification descriptor")?;
        let mut graph = LabeledDigraph::new();
        let mut by_label = std::collections::HashMap::new();
        let mut node = |graph: &mut LabeledDigraph, l: &str| {
            *by_label.entry(l.to_string()).or_insert_with(|| graph.add_node(l))
        };
        for label in &self.nodes {
            node(&mut graph, label);
        }
        let mut edge_ids = Vec::with_capacity(self.edges.len());
        for (from, to) in &self.edges {
            let u = node(&mut graph, from);
            let v = node(&mut graph, to);
            edge_ids.push(graph.add_edge(u, v));
        }
        let sp = wfdiff_graph::SpGraph::from_flow_network(graph)?;
        let resolve = |indices: &Vec<usize>| -> Result<BTreeSet<EdgeId>, SpTreeError> {
            indices
                .iter()
                .map(|&i| {
                    edge_ids.get(i).copied().ok_or_else(|| {
                        SpTreeError::Invariant(format!(
                            "control subgraph references edge index {i}, but the specification \
                             has only {} edges",
                            edge_ids.len()
                        ))
                    })
                })
                .collect()
        };
        let mut controls = Vec::new();
        for f in &self.forks {
            controls.push((ControlKind::Fork, resolve(f)?));
        }
        for l in &self.loops {
            controls.push((ControlKind::Loop, resolve(l)?));
        }
        Specification::new(self.name.clone(), sp, controls)
    }

    /// Serialises the descriptor to pretty JSON.
    #[expect(
        clippy::expect_used,
        reason = "descriptor types contain only strings/numbers/vectors; serde_json cannot fail on them"
    )]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("descriptors serialise")
    }

    /// Parses a descriptor from JSON, rejecting documents of any other
    /// [`DESCRIPTOR_FORMAT`] with an explicit version-mismatch error.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        parse_versioned(json, "specification descriptor", |d: &Self| d.format)
    }

    /// Exports the specification as a small XML document, mirroring the
    /// storage format of the original prototype.
    pub fn to_xml(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("<specification name=\"{}\">\n", xml_escape(&self.name)));
        for (from, to) in &self.edges {
            out.push_str(&format!(
                "  <edge from=\"{}\" to=\"{}\"/>\n",
                xml_escape(from),
                xml_escape(to)
            ));
        }
        for (tag, groups) in [("fork", &self.forks), ("loop", &self.loops)] {
            for group in groups {
                out.push_str(&format!("  <{tag}>\n"));
                for &i in group {
                    match self.edges.get(i) {
                        Some((from, to)) => out.push_str(&format!(
                            "    <edge index=\"{i}\" from=\"{}\" to=\"{}\"/>\n",
                            xml_escape(from),
                            xml_escape(to)
                        )),
                        None => out.push_str(&format!("    <edge index=\"{i}\"/>\n")),
                    }
                }
                out.push_str(&format!("  </{tag}>\n"));
            }
        }
        out.push_str("</specification>\n");
        out
    }
}

/// A serialisable description of a run: nodes are numbered and carry labels.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunDescriptor {
    /// Descriptor format version; see [`DESCRIPTOR_FORMAT`].
    #[serde(default)]
    pub format: u32,
    /// Name of the specification this run belongs to.
    pub spec: String,
    /// Node labels, indexed by node id.
    pub nodes: Vec<String>,
    /// Edges as pairs of node indices.
    pub edges: Vec<(usize, usize)>,
}

impl RunDescriptor {
    /// Extracts a descriptor from a run.
    pub fn from_run(run: &Run) -> Self {
        let graph = run.graph();
        RunDescriptor {
            format: DESCRIPTOR_FORMAT,
            spec: run.spec_name().to_string(),
            nodes: graph.nodes().map(|(_, n)| n.label.as_str().to_string()).collect(),
            edges: graph.edges().map(|(_, e)| (e.src.index(), e.dst.index())).collect(),
        }
    }

    /// Rebuilds the run (validating it against `spec`).
    ///
    /// Node indices in [`RunDescriptor::edges`] are bounds-checked against
    /// [`RunDescriptor::nodes`]; an out-of-range index from untrusted input
    /// is reported as [`SpTreeError::InvalidRun`] instead of panicking or
    /// silently misbuilding the graph.
    ///
    /// A node whose label the specification has shares the specification's
    /// [`wfdiff_graph::Label`] instead of allocating its own.
    pub fn to_run(&self, spec: &Specification) -> Result<Run, SpTreeError> {
        check_format(self.format, "run descriptor")?;
        let mut graph = LabeledDigraph::with_capacity(self.nodes.len(), self.edges.len());
        for label in &self.nodes {
            match spec.label(label) {
                Some(shared) => graph.add_node(shared.clone()),
                None => graph.add_node(label.as_str()),
            };
        }
        for &(u, v) in &self.edges {
            if u >= self.nodes.len() || v >= self.nodes.len() {
                return Err(SpTreeError::InvalidRun {
                    what: format!(
                        "run edge ({u}, {v}) references a node index outside 0..{}",
                        self.nodes.len()
                    ),
                });
            }
            graph.add_edge(wfdiff_graph::NodeId::from(u), wfdiff_graph::NodeId::from(v));
        }
        Run::from_graph(spec, graph)
    }

    /// Serialises the descriptor to pretty JSON.
    #[expect(
        clippy::expect_used,
        reason = "descriptor types contain only strings/numbers/vectors; serde_json cannot fail on them"
    )]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("descriptors serialise")
    }

    /// Parses a descriptor from JSON, rejecting documents of any other
    /// [`DESCRIPTOR_FORMAT`] with an explicit version-mismatch error.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        parse_versioned(json, "run descriptor", |d: &Self| d.format)
    }

    /// Exports the run as a small XML document.
    pub fn to_xml(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("<run spec=\"{}\">\n", xml_escape(&self.spec)));
        for (i, label) in self.nodes.iter().enumerate() {
            out.push_str(&format!("  <node id=\"{i}\" label=\"{}\"/>\n", xml_escape(label)));
        }
        for (u, v) in &self.edges {
            out.push_str(&format!("  <edge from=\"{u}\" to=\"{v}\"/>\n"));
        }
        out.push_str("</run>\n");
        out
    }
}

/// Exports an edit script as XML: one `<insert>`/`<delete>` element per
/// operation with one `<label>` child per label along the operation's path.
/// (Earlier versions joined the labels with bare commas into a single
/// attribute, which is ambiguous when a label itself contains a comma.)
pub fn script_to_xml(script: &EditScript) -> String {
    let mut out = String::new();
    out.push_str(&format!("<editscript cost=\"{}\">\n", script.total_cost));
    for op in &script.ops {
        let tag = match op.direction {
            OpDirection::Insert => "insert",
            OpDirection::Delete => "delete",
        };
        out.push_str(&format!("  <{tag} cost=\"{}\">\n", op.cost));
        for l in &op.labels {
            out.push_str(&format!("    <label>{}</label>\n", xml_escape(l.as_str())));
        }
        out.push_str(&format!("  </{tag}>\n"));
    }
    out.push_str("</editscript>\n");
    out
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
        .replace('\'', "&apos;")
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfdiff_core::{UnitCost, WorkflowDiff};
    use wfdiff_workloads::figures::{fig2_run1, fig2_run2, fig2_specification};

    #[test]
    fn spec_descriptor_roundtrips_through_json() {
        let spec = fig2_specification();
        let desc = SpecDescriptor::from_specification(&spec);
        assert_eq!(desc.format, DESCRIPTOR_FORMAT);
        let json = desc.to_json();
        let back = SpecDescriptor::from_json(&json).unwrap();
        assert_eq!(desc, back);
        let rebuilt = back.to_specification().unwrap();
        assert_eq!(rebuilt.stats(), spec.stats());
        assert!(rebuilt.tree().equivalent(spec.tree()));
    }

    #[test]
    fn run_descriptor_roundtrips_through_json() {
        let spec = fig2_specification();
        let run = fig2_run1(&spec);
        let desc = RunDescriptor::from_run(&run);
        let json = desc.to_json();
        let back = RunDescriptor::from_json(&json).unwrap();
        let rebuilt = back.to_run(&spec).unwrap();
        assert!(rebuilt.tree().equivalent(run.tree()));
        assert_eq!(rebuilt.edge_count(), run.edge_count());
    }

    #[test]
    fn unsupported_descriptor_formats_are_rejected() {
        let spec = fig2_specification();
        let mut desc = SpecDescriptor::from_specification(&spec);
        desc.format = 1;
        assert!(matches!(desc.to_specification(), Err(SpTreeError::Invariant(_))));
        let mut run_desc = RunDescriptor::from_run(&fig2_run1(&spec));
        run_desc.format = 0;
        assert!(matches!(run_desc.to_run(&spec), Err(SpTreeError::Invariant(_))));
        // A JSON document without a format field is rejected at parse time
        // with an explicit version message (serde default = 0).
        let json = desc.to_json().replace("\"format\": 1,", "");
        let err = SpecDescriptor::from_json(&json).unwrap_err();
        assert!(err.to_string().contains("format 0"), "got {err}");
        // A genuine v1 document (label-pair control references) is
        // diagnosed as a version mismatch, not an `invalid type` error on
        // the forks field.
        let v1 = r#"{"format": 1, "name": "x", "edges": [["a", "b"]],
                     "forks": [[["a", "b"]]], "loops": []}"#;
        let err = SpecDescriptor::from_json(v1).unwrap_err();
        assert!(err.to_string().contains("format 1"), "got {err}");
    }

    #[test]
    fn out_of_range_run_edges_are_rejected_not_panicking() {
        let spec = fig2_specification();
        let mut desc = RunDescriptor::from_run(&fig2_run1(&spec));
        desc.edges.push((desc.nodes.len(), 0));
        let err = desc.to_run(&spec).unwrap_err();
        assert!(matches!(err, SpTreeError::InvalidRun { .. }));
        assert!(err.to_string().contains("node index outside"));
    }

    #[test]
    fn out_of_range_control_edge_indices_are_rejected() {
        let spec = fig2_specification();
        let mut desc = SpecDescriptor::from_specification(&spec);
        desc.forks[0].push(desc.edges.len() + 7);
        let err = desc.to_specification().unwrap_err();
        assert!(matches!(err, SpTreeError::Invariant(_)));
        assert!(err.to_string().contains("edge index"));
    }

    #[test]
    fn parallel_edges_keep_distinct_control_references() {
        // Two parallel a -> b edges, one of them (alone) covered by a loop.
        // With label-pair references both edges collapse onto one map slot;
        // edge indices keep them apart and the round trip preserves which
        // edge carries the loop.
        let mut g = LabeledDigraph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let e0 = g.add_edge(a, b);
        let _e1 = g.add_edge(a, b);
        let sp = wfdiff_graph::SpGraph::from_flow_network(g).unwrap();
        let spec =
            Specification::new("par", sp, vec![(ControlKind::Loop, BTreeSet::from([e0]))]).unwrap();
        let desc = SpecDescriptor::from_specification(&spec);
        assert_eq!(desc.loops, vec![vec![e0.index()]]);
        let rebuilt =
            SpecDescriptor::from_json(&desc.to_json()).unwrap().to_specification().unwrap();
        assert_eq!(rebuilt.controls().len(), 1);
        assert_eq!(rebuilt.controls()[0].edges, BTreeSet::from([e0]));
        assert_eq!(rebuilt.stats(), spec.stats());
    }

    #[test]
    fn xml_export_contains_structure() {
        let spec = fig2_specification();
        let desc = SpecDescriptor::from_specification(&spec);
        let xml = desc.to_xml();
        assert!(xml.starts_with("<specification name=\"fig2\">"));
        assert!(xml.contains("<fork>"));
        assert!(xml.contains("<loop>"));
        assert!(xml.matches("<edge ").count() >= 8);
        assert!(xml.contains("index=\""), "control edges are labelled with their index");
        let run_xml = RunDescriptor::from_run(&fig2_run1(&spec)).to_xml();
        assert!(run_xml.contains("<node id=\"0\""));
    }

    #[test]
    fn script_xml_lists_operations() {
        let spec = fig2_specification();
        let r1 = fig2_run1(&spec);
        let r2 = fig2_run2(&spec);
        let engine = WorkflowDiff::new(&spec, &UnitCost);
        let (result, script) = wfdiff_core::script::diff_with_script(&engine, &r1, &r2).unwrap();
        let xml = script_to_xml(&script);
        assert!(xml.contains("editscript cost=\"4\""));
        assert_eq!(xml.matches("<insert").count() + xml.matches("<delete").count(), 4);
        // Every operation's path labels appear as dedicated child elements.
        assert!(xml.matches("<label>").count() >= 4);
        assert!(!xml.contains("path=\""), "comma-joined path attributes are gone");
        let _ = result;
    }

    #[test]
    fn xml_escaping_handles_special_characters() {
        assert_eq!(xml_escape("a<b&\"c'\">"), "a&lt;b&amp;&quot;c&apos;&quot;&gt;");
    }
}
