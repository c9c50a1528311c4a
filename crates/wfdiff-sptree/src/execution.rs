//! The execution function `f` / `f'` (Figure 5 and Section VI): generating
//! valid runs from a specification.
//!
//! Execution is nondeterministic in the paper; here the nondeterminism is
//! factored out into an [`ExecutionDecider`], so that deterministic test
//! deciders, exhaustive enumerators and the random workload generators of
//! `wfdiff-workloads` can all share the same machinery.

use crate::materialize::materialize;
use crate::node::{NodeType, TreeId, TreeNode};
use crate::run::Run;
use crate::spec::Specification;
use crate::tree::AnnotatedTree;
use crate::Result;

/// Supplies the nondeterministic choices of the execution function.
pub trait ExecutionDecider {
    /// Chooses which of the `n` branches of a parallel composition to execute.
    /// Returning all-`false` is sanitised to "execute the first branch", since
    /// a parallel execution must execute at least one branch.
    fn parallel_subset(&mut self, n: usize) -> Vec<bool>;

    /// Number of copies a fork execution replicates (sanitised to at least 1).
    /// `control_id` identifies the fork in [`Specification::controls`].
    fn fork_copies(&mut self, control_id: usize) -> usize;

    /// Number of iterations a loop execution performs (sanitised to at least
    /// 1).  `control_id` identifies the loop in [`Specification::controls`].
    fn loop_iterations(&mut self, control_id: usize) -> usize;
}

/// A decider that takes exactly one branch of every parallel composition, one
/// fork copy and one loop iteration: it produces the *smallest* valid run.
#[derive(Debug, Clone, Default)]
pub struct MinimalDecider;

impl ExecutionDecider for MinimalDecider {
    fn parallel_subset(&mut self, n: usize) -> Vec<bool> {
        let mut v = vec![false; n];
        if n > 0 {
            v[0] = true;
        }
        v
    }

    fn fork_copies(&mut self, _control_id: usize) -> usize {
        1
    }

    fn loop_iterations(&mut self, _control_id: usize) -> usize {
        1
    }
}

/// A decider that executes every parallel branch, with a single fork copy and
/// a single loop iteration: the "everything once" run.
#[derive(Debug, Clone, Default)]
pub struct FullDecider;

impl ExecutionDecider for FullDecider {
    fn parallel_subset(&mut self, n: usize) -> Vec<bool> {
        vec![true; n]
    }

    fn fork_copies(&mut self, _control_id: usize) -> usize {
        1
    }

    fn loop_iterations(&mut self, _control_id: usize) -> usize {
        1
    }
}

/// A decider with fixed replication counts, useful in tests: every parallel
/// branch is executed, every fork makes `fork` copies and every loop makes
/// `loops` iterations.
#[derive(Debug, Clone)]
pub struct FixedDecider {
    /// Copies per fork execution.
    pub fork: usize,
    /// Iterations per loop execution.
    pub loops: usize,
}

impl ExecutionDecider for FixedDecider {
    fn parallel_subset(&mut self, n: usize) -> Vec<bool> {
        vec![true; n]
    }

    fn fork_copies(&mut self, _control_id: usize) -> usize {
        self.fork
    }

    fn loop_iterations(&mut self, _control_id: usize) -> usize {
        self.loops
    }
}

/// Executes `spec` with the given decider, producing a valid [`Run`].
pub fn execute(spec: &Specification, decider: &mut dyn ExecutionDecider) -> Result<Run> {
    let mut out = AnnotatedTree::empty();
    let root = gen(spec, spec.tree().root(), decider, &mut out);
    out.set_root(root);
    let materialized = materialize(&mut out);
    out.recompute_leaf_counts();
    out.validate_run_tree()?;
    Ok(Run::from_parts(
        spec.name().to_string(),
        spec.fingerprint(),
        materialized.graph,
        materialized.source,
        materialized.sink,
        out,
    ))
}

impl Specification {
    /// Convenience wrapper for [`execute`].
    pub fn execute(&self, decider: &mut dyn ExecutionDecider) -> Result<Run> {
        execute(self, decider)
    }
}

#[expect(
    clippy::expect_used,
    reason = "spec tree validation assigns control ids to every F and L node before executions are derived"
)]
fn gen(
    spec: &Specification,
    spec_v: TreeId,
    decider: &mut dyn ExecutionDecider,
    out: &mut AnnotatedTree,
) -> TreeId {
    let tree = spec.tree();
    let spec_node = tree.node(spec_v);
    let mut node = TreeNode::new(
        spec_node.ty,
        spec_node.s_label.clone(),
        spec_node.t_label.clone(),
        spec_node.s_node,
        spec_node.t_node,
    );
    node.origin = Some(spec_v);
    node.control_id = spec_node.control_id;
    match tree.ty(spec_v) {
        NodeType::Q => {
            node.leaf_count = 1;
            out.add_node(node)
        }
        NodeType::S => {
            let id = out.add_node(node);
            for &c in tree.children(spec_v) {
                let child = gen(spec, c, decider, out);
                out.attach_child(id, child);
            }
            id
        }
        NodeType::P => {
            let children = tree.children(spec_v).to_vec();
            let mut mask = decider.parallel_subset(children.len());
            mask.resize(children.len(), false);
            if !mask.iter().any(|&b| b) {
                mask[0] = true;
            }
            let id = out.add_node(node);
            for (i, &c) in children.iter().enumerate() {
                if mask[i] {
                    let child = gen(spec, c, decider, out);
                    out.attach_child(id, child);
                }
            }
            id
        }
        NodeType::F => {
            let control = spec_node.control_id.expect("spec F node carries a control id");
            let copies = decider.fork_copies(control).max(1);
            let body = tree.children(spec_v)[0];
            let id = out.add_node(node);
            for _ in 0..copies {
                let child = gen(spec, body, decider, out);
                out.attach_child(id, child);
            }
            id
        }
        NodeType::L => {
            let control = spec_node.control_id.expect("spec L node carries a control id");
            let iterations = decider.loop_iterations(control).max(1);
            let body = tree.children(spec_v)[0];
            let id = out.add_node(node);
            for _ in 0..iterations {
                let child = gen(spec, body, decider, out);
                out.attach_child(id, child);
            }
            id
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::Run;
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

    #[test]
    fn minimal_execution_is_a_single_path() {
        let spec = fig2_specification();
        let run = spec.execute(&mut MinimalDecider).unwrap();
        // 1 -> 2 -> 3 -> 6 -> 7.
        assert_eq!(run.edge_count(), 4);
        assert_eq!(run.node_count(), 5);
        assert!(run.graph().is_acyclic());
    }

    #[test]
    fn full_execution_covers_every_branch_once() {
        let spec = fig2_specification();
        let run = spec.execute(&mut FullDecider).unwrap();
        assert_eq!(run.edge_count(), spec.graph().edge_count());
        assert_eq!(run.tree().leaf_count(run.tree().root()), 8);
    }

    #[test]
    fn fixed_decider_replicates_forks_and_loops() {
        let spec = fig2_specification();
        let run = spec.execute(&mut FixedDecider { fork: 2, loops: 2 }).unwrap();
        // Outer fork doubles everything; the loop runs twice inside each copy;
        // each branch fork doubles each branch.
        let t = run.tree();
        assert_eq!(t.ty(t.root()), NodeType::F);
        assert_eq!(t.children(t.root()).len(), 2);
        assert!(run.graph().is_acyclic());
        assert!(run.edge_count() > spec.graph().edge_count());
    }

    #[test]
    fn executed_runs_replay_to_equivalent_trees() {
        // The fundamental consistency check: executing a specification and then
        // re-validating the produced graph with Algorithm 2/5 must give an
        // equivalent annotated tree.
        let spec = fig2_specification();
        for decider in [
            &mut FixedDecider { fork: 1, loops: 1 } as &mut dyn ExecutionDecider,
            &mut FixedDecider { fork: 2, loops: 1 },
            &mut FixedDecider { fork: 1, loops: 3 },
            &mut FixedDecider { fork: 3, loops: 2 },
            &mut MinimalDecider,
            &mut FullDecider,
        ] {
            let run = spec.execute(decider).unwrap();
            let replayed = Run::from_graph(&spec, run.graph().clone()).unwrap();
            assert!(
                run.tree().equivalent(replayed.tree()),
                "executed tree:\n{}\nreplayed tree:\n{}",
                run.tree().render(run.tree().root()),
                replayed.tree().render(replayed.tree().root())
            );
        }
    }

    #[test]
    fn executed_runs_are_valid_homomorphic_images() {
        let spec = fig2_specification();
        let run = spec.execute(&mut FixedDecider { fork: 2, loops: 2 }).unwrap();
        // Re-validating from the graph must succeed (exercises the
        // homomorphism check including loop back edges).
        assert!(Run::from_graph(&spec, run.graph().clone()).is_ok());
    }

    #[test]
    fn nested_loop_and_fork_execution() {
        let mut b = SpecificationBuilder::new("nested");
        b.path(&["a", "b", "c", "d", "e"]);
        b.loop_between("b", "d");
        b.fork_path(&["b", "c"]);
        let spec = b.build().unwrap();
        let run = spec.execute(&mut FixedDecider { fork: 2, loops: 3 }).unwrap();
        // Each of the 3 iterations has 2 copies of edge b->c plus edge c->d,
        // plus the chain edges a->b, d->e and 2 implicit back edges.
        assert_eq!(run.edge_count(), 3 * (2 + 1) + 2 + 2);
        let replayed = Run::from_graph(&spec, run.graph().clone()).unwrap();
        assert!(run.tree().equivalent(replayed.tree()));
    }
}
