//! The worked examples of the paper: Figures 1, 2 and 17.

use wfdiff_graph::LabeledDigraph;
use wfdiff_sptree::{Run, Specification, SpecificationBuilder};

/// The Figure 2(a) specification: modules 1–7, forks over the three branches
/// and over the whole workflow, and a loop over the section between 2 and 6.
#[expect(
    clippy::expect_used,
    reason = "fixed paper-figure specifications; a build failure is a typo in this file, caught by every test"
)]
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
    b.build().expect("the Figure 2 specification is well formed")
}

/// Run `R1` of Figure 2(b): one copy of the workflow, branch 3 forked twice,
/// branch 4 once.
#[expect(
    clippy::expect_used,
    reason = "fixed paper-figure runs validated against their own spec; a failure is a typo in this file"
)]
pub fn fig2_run1(spec: &Specification) -> Run {
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
    Run::from_graph(spec, r).expect("R1 is a valid run")
}

/// Run `R2` of Figure 2(c): two copies of the whole workflow (outer fork).
#[expect(
    clippy::expect_used,
    reason = "fixed paper-figure runs validated against their own spec; a failure is a typo in this file"
)]
pub fn fig2_run2(spec: &Specification) -> Run {
    let mut r = LabeledDigraph::new();
    let n1 = r.add_node("1");
    let n2a = r.add_node("2");
    let n3a = r.add_node("3");
    let n4a = r.add_node("4");
    let n4b = r.add_node("4");
    let n6a = r.add_node("6");
    let n7 = r.add_node("7");
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
    Run::from_graph(spec, r).expect("R2 is a valid run")
}

/// Run `R3` of Figure 2(d): two iterations of the loop between 2 and 6.
#[expect(
    clippy::expect_used,
    reason = "fixed paper-figure runs validated against their own spec; a failure is a typo in this file"
)]
pub fn fig2_run3(spec: &Specification) -> Run {
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
    r.add_edge(n6a, n2b);
    r.add_edge(n2b, n4c);
    r.add_edge(n2b, n5a);
    r.add_edge(n4c, n6b);
    r.add_edge(n5a, n6b);
    r.add_edge(n6b, n7);
    Run::from_graph(spec, r).expect("R3 is a valid run")
}

/// The protein-annotation workflow of Figure 1(a), with module names.
///
/// Forks cover the three BLAST searches and the per-domain annotation section;
/// the loop covers the reciprocal-best-hit section from `FastaFormat` to
/// `collectTop1&Compare`.
#[expect(
    clippy::expect_used,
    reason = "fixed paper-figure specifications; a build failure is a typo in this file, caught by every test"
)]
pub fn protein_annotation() -> Specification {
    let mut b = SpecificationBuilder::new("protein-annotation");
    b.edge("getProteinSeq", "FastaFormat");
    b.path(&["FastaFormat", "BlastSwP", "collectTop1&Compare"]);
    b.path(&["FastaFormat", "BlastTrEMBL", "collectTop1&Compare"]);
    b.path(&["FastaFormat", "BlastPIR", "collectTop1&Compare"]);
    b.edge("collectTop1&Compare", "getDomAnnot");
    b.path(&["getDomAnnot", "getProDomDom", "extractDomSeq"]);
    b.path(&["getDomAnnot", "getPFAMDom", "extractDomSeq"]);
    b.path(&["extractDomSeq", "getGOAnnot", "getFunCatAnnot", "exportAnnotSeq"]);
    b.path(&["extractDomSeq", "getBrendaAnnot", "getEnzymeAnnot", "exportAnnotSeq"]);
    // Forks: each BLAST search can run over many sequences in parallel, and
    // the whole per-domain annotation part is forked per domain.
    b.fork_path(&["FastaFormat", "BlastSwP", "collectTop1&Compare"]);
    b.fork_path(&["FastaFormat", "BlastTrEMBL", "collectTop1&Compare"]);
    b.fork_path(&["FastaFormat", "BlastPIR", "collectTop1&Compare"]);
    b.fork_between("getDomAnnot", "exportAnnotSeq");
    // Loop: reciprocal best hits until a stable set of proteins is found.
    b.loop_between("FastaFormat", "collectTop1&Compare");
    b.build().expect("the protein annotation workflow is well formed")
}

/// The Figure 17(b) specification used for the cost-model study: ten parallel
/// paths between `u` and `v`, the `i`-th of length `i²`, wrapped in a fork so
/// that whole bundles of paths can be replicated.
///
/// The paper forks the parallel subgraph directly; in the SP-workflow model a
/// fork must cover a *series* subgraph, so the fan is framed by an entry edge
/// `a → u` and an exit edge `v → b` and the fork covers the series subgraph
/// from `a` to `b` (each fork copy therefore carries two extra edges, which
/// affects neither the matching structure nor the cost-model comparison).
pub fn fig17_specification() -> Specification {
    fig17_specification_with_paths(10)
}

/// [`fig17_specification`] with a configurable number of parallel paths.
#[expect(
    clippy::expect_used,
    reason = "fixed paper-figure specifications; a build failure is a typo in this file, caught by every test"
)]
pub fn fig17_specification_with_paths(paths: usize) -> Specification {
    let mut b = SpecificationBuilder::new("fig17");
    b.edge("a", "u");
    for i in 1..=paths {
        let len = i * i;
        let mut labels: Vec<String> = vec!["u".to_string()];
        for j in 1..len {
            labels.push(format!("p{i}_{j}"));
        }
        labels.push("v".to_string());
        let refs: Vec<&str> = labels.iter().map(|s| s.as_str()).collect();
        b.path(&refs);
    }
    b.edge("v", "b");
    b.fork_between("a", "b");
    b.build().expect("the Figure 17 specification is well formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfdiff_core::{UnitCost, WorkflowDiff};

    #[test]
    fn fig2_runs_validate_and_match_paper_distance() {
        let spec = fig2_specification();
        let r1 = fig2_run1(&spec);
        let r2 = fig2_run2(&spec);
        let r3 = fig2_run3(&spec);
        assert_eq!(r1.edge_count(), 8);
        assert_eq!(r2.edge_count(), 14);
        assert_eq!(r3.edge_count(), 13);
        let diff = WorkflowDiff::new(&spec, &UnitCost);
        assert_eq!(diff.distance(&r1, &r2).unwrap(), 4.0);
    }

    #[test]
    fn protein_annotation_has_fifteen_modules() {
        let spec = protein_annotation();
        let stats = spec.stats();
        assert_eq!(stats.nodes, 15);
        assert_eq!(stats.forks, 4);
        assert_eq!(stats.loops, 1);
        assert!(spec.tree().validate_spec_tree().is_ok());
    }

    #[test]
    fn fig17_has_squared_path_lengths() {
        let spec = fig17_specification_with_paths(4);
        // Edges: 2 framing edges + 1 + 4 + 9 + 16.
        assert_eq!(spec.stats().edges, 2 + 1 + 4 + 9 + 16);
        assert_eq!(spec.fork_count(), 1);
        let full = fig17_specification();
        assert_eq!(full.stats().edges, 2 + (1..=10).map(|i| i * i).sum::<usize>());
    }
}
