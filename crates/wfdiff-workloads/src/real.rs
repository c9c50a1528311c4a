//! Reconstructions of the six real scientific workflows of Table I.
//!
//! The paper evaluates on six workflows collected from myExperiment and from
//! the literature (PA, EMBOSS, SAXPF, MB, PGAQ, BAIDD) and reports, for each,
//! the number of nodes and edges of the specification and the number and
//! total size of its fork and loop annotations.  The original workflow
//! definitions are not redistributable, so this module synthesises
//! SP-specifications with **exactly** the published statistics; since the
//! differencing algorithm's behaviour depends only on the specification's
//! structure and on the generated runs, this preserves the shape of the
//! Figure 11 scaling curves (see the substitution notes in DESIGN.md).
//!
//! Each workflow is described as a series of *segments* — either a single
//! edge or a parallel block of two-edge branches — with forks and loops
//! selected as individual branches or consecutive segment ranges, which
//! guarantees well-nested (laminar) annotations by construction.

use wfdiff_sptree::{ControlKind, Specification};

/// A segment of a segmented workflow: either a single edge between two
/// junctions, or a parallel block of `k` branches, each two edges long.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Segment {
    /// A single edge.
    Edge,
    /// A parallel block with the given number of two-edge branches.
    Block(usize),
}

/// Selects the subgraph a fork or loop covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlSel {
    /// One branch of a parallel block: `(segment index, branch index)`.
    Branch(usize, usize),
    /// All edges of the consecutive segment range `[from, to]` (inclusive).
    Range(usize, usize),
}

/// A named segmented workflow description.
#[derive(Debug, Clone)]
pub struct RealWorkflow {
    /// Workflow name as reported in Table I.
    pub name: &'static str,
    /// The segments, in series order.
    pub segments: Vec<Segment>,
    /// Fork selections.
    pub forks: Vec<ControlSel>,
    /// Loop selections.
    pub loops: Vec<ControlSel>,
}

impl RealWorkflow {
    /// Builds the [`Specification`] for this workflow.
    pub fn specification(&self) -> Specification {
        build_segmented(self.name, &self.segments, &self.forks, &self.loops)
    }
}

/// The junction label before segment `i`.
fn junction(i: usize) -> String {
    format!("j{i}")
}

/// Builds a specification from a segment description.
#[expect(
    clippy::panic,
    reason = "embedded real-trace workflows are static data; an immediate panic with the workflow name beats a misleading Err"
)]
pub fn build_segmented(
    name: &str,
    segments: &[Segment],
    forks: &[ControlSel],
    loops: &[ControlSel],
) -> Specification {
    use wfdiff_sptree::SpecificationBuilder;
    let mut b = SpecificationBuilder::new(name);
    for (i, seg) in segments.iter().enumerate() {
        let from = junction(i);
        let to = junction(i + 1);
        match seg {
            Segment::Edge => {
                b.edge(&from, &to);
            }
            Segment::Block(k) => {
                for branch in 0..*k {
                    let mid = format!("s{i}b{branch}");
                    b.path(&[&from, &mid, &to]);
                }
            }
        }
    }
    for (kind, sel) in forks
        .iter()
        .map(|s| (ControlKind::Fork, s))
        .chain(loops.iter().map(|s| (ControlKind::Loop, s)))
    {
        match (kind, sel) {
            (ControlKind::Fork, ControlSel::Branch(seg, branch)) => {
                let from = junction(*seg);
                let mid = format!("s{seg}b{branch}");
                let to = junction(*seg + 1);
                b.fork_path(&[&from, &mid, &to]);
            }
            (ControlKind::Loop, ControlSel::Branch(seg, branch)) => {
                let from = junction(*seg);
                let mid = format!("s{seg}b{branch}");
                let to = junction(*seg + 1);
                b.loop_path(&[&from, &mid, &to]);
            }
            (ControlKind::Fork, ControlSel::Range(from, to)) => {
                b.fork_between(&junction(*from), &junction(*to + 1));
            }
            (ControlKind::Loop, ControlSel::Range(from, to)) => {
                b.loop_between(&junction(*from), &junction(*to + 1));
            }
        }
    }
    b.build().unwrap_or_else(|e| panic!("segmented workflow {name} failed to build: {e}"))
}

/// PA — protein annotation (|V|=11, |E|=13, |F|=3, ||F||=6, |L|=1, ||L||=6).
pub fn pa() -> RealWorkflow {
    use ControlSel::*;
    use Segment::*;
    RealWorkflow {
        name: "PA",
        segments: vec![Edge, Block(3), Edge, Edge, Block(2)],
        forks: vec![Branch(1, 0), Branch(1, 1), Branch(1, 2)],
        loops: vec![Range(1, 1)],
    }
}

/// EMBOSS (|V|=17, |E|=22, |F|=4, ||F||=10, |L|=2, ||L||=10).
pub fn emboss() -> RealWorkflow {
    use ControlSel::*;
    use Segment::*;
    RealWorkflow {
        name: "EMBOSS",
        segments: vec![Edge, Block(4), Edge, Block(3), Edge, Block(2), Edge],
        forks: vec![Range(0, 0), Branch(1, 0), Branch(1, 1), Range(5, 6)],
        loops: vec![Range(3, 3), Range(5, 5)],
    }
}

/// SAXPF (|V|=27, |E|=36, |F|=7, ||F||=18, |L|=1, ||L||=7).
pub fn saxpf() -> RealWorkflow {
    use ControlSel::*;
    use Segment::*;
    RealWorkflow {
        name: "SAXPF",
        segments: vec![
            Edge,
            Block(4),
            Edge,
            Block(4),
            Edge,
            Block(3),
            Edge,
            Block(2),
            Edge,
            Block(2),
            Edge,
        ],
        forks: vec![
            Branch(1, 0),
            Branch(1, 1),
            Branch(1, 2),
            Branch(3, 0),
            Branch(3, 1),
            Branch(5, 0),
            Range(6, 8),
        ],
        loops: vec![Range(4, 5)],
    }
}

/// MB (|V|=17, |E|=19, |F|=2, ||F||=6, |L|=1, ||L||=6).
pub fn mb() -> RealWorkflow {
    use ControlSel::*;
    use Segment::*;
    RealWorkflow {
        name: "MB",
        segments: vec![Edge, Edge, Block(3), Edge, Edge, Block(2), Edge, Edge, Edge, Edge, Edge],
        forks: vec![Branch(2, 0), Range(7, 10)],
        loops: vec![Range(2, 2)],
    }
}

/// PGAQ (|V|=37, |E|=41, |F|=4, ||F||=22, |L|=2, ||L||=26).
pub fn pgaq() -> RealWorkflow {
    use ControlSel::*;
    use Segment::*;
    let mut segments = vec![Segment::Edge; 26];
    for idx in [3, 7, 11, 15, 19] {
        segments[idx] = Block(2);
    }
    RealWorkflow {
        name: "PGAQ",
        segments,
        forks: vec![Range(0, 2), Branch(3, 0), Range(4, 8), Range(12, 17)],
        loops: vec![Range(0, 9), Range(12, 18)],
    }
}

/// BAIDD (|V|=29, |E|=36, |F|=8, ||F||=17, |L|=2, ||L||=12).
pub fn baidd() -> RealWorkflow {
    use ControlSel::*;
    use Segment::*;
    RealWorkflow {
        name: "BAIDD",
        segments: vec![
            Edge,
            Block(3),
            Edge,
            Block(3),
            Edge,
            Block(2),
            Edge,
            Edge,
            Block(3),
            Edge,
            Block(2),
            Edge,
            Edge,
            Edge,
            Edge,
        ],
        forks: vec![
            Branch(1, 0),
            Branch(1, 1),
            Branch(3, 0),
            Branch(3, 1),
            Branch(8, 0),
            Branch(5, 0),
            Range(0, 0),
            Range(11, 14),
        ],
        loops: vec![Range(1, 1), Range(3, 3)],
    }
}

/// All six Table I workflows, in the paper's order.
pub fn real_workflows() -> Vec<RealWorkflow> {
    vec![pa(), emboss(), saxpf(), mb(), pgaq(), baidd()]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The statistics of Table I, in the paper's order:
    /// (|V|, |E|, |F|, ||F||, |L|, ||L||).
    const TABLE1: &[(&str, usize, usize, usize, usize, usize, usize)] = &[
        ("PA", 11, 13, 3, 6, 1, 6),
        ("EMBOSS", 17, 22, 4, 10, 2, 10),
        ("SAXPF", 27, 36, 7, 18, 1, 7),
        ("MB", 17, 19, 2, 6, 1, 6),
        ("PGAQ", 37, 41, 4, 22, 2, 26),
        ("BAIDD", 29, 36, 8, 17, 2, 12),
    ];

    #[test]
    fn reconstructions_match_table1_exactly() {
        let workflows = real_workflows();
        assert_eq!(workflows.len(), TABLE1.len());
        for (wf, expected) in workflows.iter().zip(TABLE1.iter()) {
            let spec = wf.specification();
            let stats = spec.stats();
            assert_eq!(wf.name, expected.0);
            assert_eq!(stats.nodes, expected.1, "{}: |V|", wf.name);
            assert_eq!(stats.edges, expected.2, "{}: |E|", wf.name);
            assert_eq!(stats.forks, expected.3, "{}: |F|", wf.name);
            assert_eq!(stats.fork_edges, expected.4, "{}: ||F||", wf.name);
            assert_eq!(stats.loops, expected.5, "{}: |L|", wf.name);
            assert_eq!(stats.loop_edges, expected.6, "{}: ||L||", wf.name);
        }
    }

    #[test]
    fn reconstructions_have_valid_annotated_trees() {
        for wf in real_workflows() {
            let spec = wf.specification();
            assert!(
                spec.tree().validate_spec_tree().is_ok(),
                "{} produces an invalid annotated SP-tree",
                wf.name
            );
        }
    }

    #[test]
    fn reconstructions_execute() {
        use wfdiff_sptree::FullDecider;
        for wf in real_workflows() {
            let spec = wf.specification();
            let run = spec.execute(&mut FullDecider).unwrap();
            assert_eq!(run.edge_count(), spec.stats().edges, "{}", wf.name);
        }
    }
}
