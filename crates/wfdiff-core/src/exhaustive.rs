//! Exhaustive reference implementation of the minimum-cost well-formed
//! mapping (Theorem 3), used as a test oracle.
//!
//! Instead of the Hungarian algorithm at `F` nodes and the alignment DP at
//! `L` nodes, this implementation *enumerates* every partial matching of the
//! children (every non-crossing matching for `L` nodes) and every
//! map-or-don't choice at `P` nodes.  Its running time is exponential in the
//! fork/loop multiplicities, so it is only usable on small runs — which is
//! exactly what a differential-testing oracle needs.

use crate::cost::CostModel;
use crate::deletion::DeletionTables;
use crate::error::DiffError;
use crate::surcharge::SpecContext;
use std::collections::HashMap;
use wfdiff_sptree::{AnnotatedTree, NodeType, Run, Specification, TreeId};

/// Computes the edit distance by exhaustive enumeration of well-formed
/// mappings.  Intended for runs with at most a handful of fork copies and
/// loop iterations.
pub fn exhaustive_distance(
    spec: &Specification,
    cost: &dyn CostModel,
    r1: &Run,
    r2: &Run,
) -> Result<f64, DiffError> {
    let ctx = SpecContext::new(spec);
    let t1 = r1.tree();
    let t2 = r2.tree();
    let x1 = DeletionTables::compute(t1, cost);
    let x2 = DeletionTables::compute(t2, cost);
    let mut memo = HashMap::new();
    let solver = Solver { cost, ctx: &ctx, t1, t2, x1: &x1, x2: &x2 };
    Ok(solver.solve(t1.root(), t2.root(), &mut memo))
}

struct Solver<'a> {
    cost: &'a dyn CostModel,
    ctx: &'a SpecContext<'a>,
    t1: &'a AnnotatedTree,
    t2: &'a AnnotatedTree,
    x1: &'a DeletionTables,
    x2: &'a DeletionTables,
}

impl<'a> Solver<'a> {
    fn solve(&self, v1: TreeId, v2: TreeId, memo: &mut HashMap<(TreeId, TreeId), f64>) -> f64 {
        if let Some(&c) = memo.get(&(v1, v2)) {
            return c;
        }
        let result = match (self.t1.ty(v1), self.t2.ty(v2)) {
            (NodeType::Q, NodeType::Q) => 0.0,
            (NodeType::S, NodeType::S) => {
                let c1 = self.t1.children(v1);
                let c2 = self.t2.children(v2);
                c1.iter().zip(c2.iter()).map(|(&a, &b)| self.solve(a, b, memo)).sum()
            }
            (NodeType::P, NodeType::P) => self.solve_parallel(v1, v2, memo),
            (NodeType::F, NodeType::F) => {
                // Enumerate every partial matching between the two child lists.
                let c1 = self.t1.children(v1).to_vec();
                let c2 = self.t2.children(v2).to_vec();
                self.enumerate_matchings(&c1, &c2, 0, &mut vec![false; c2.len()], memo)
            }
            (NodeType::L, NodeType::L) => {
                // Enumerate every non-crossing matching.
                let c1 = self.t1.children(v1).to_vec();
                let c2 = self.t2.children(v2).to_vec();
                self.enumerate_noncrossing(&c1, &c2, 0, 0, memo)
            }
            _ => f64::INFINITY,
        };
        memo.insert((v1, v2), result);
        result
    }

    #[expect(
        clippy::expect_used,
        reason = "run-tree nodes always carry spec origins (established by Run::from_graph validation)"
    )]
    fn solve_parallel(
        &self,
        v1: TreeId,
        v2: TreeId,
        memo: &mut HashMap<(TreeId, TreeId), f64>,
    ) -> f64 {
        let c1 = self.t1.children(v1).to_vec();
        let c2 = self.t2.children(v2).to_vec();
        // Unstable option (Definition 5.2): both single children, homologous.
        let mut best = f64::INFINITY;
        if c1.len() == 1 && c2.len() == 1 {
            let (a, b) = (c1[0], c2[0]);
            if self.t1.node(a).origin == self.t2.node(b).origin {
                let spec_p = self.t1.node(v1).origin.expect("origin");
                let spec_c = self.t1.node(a).origin.expect("origin");
                let unstable = self.x1.x(a)
                    + self.x2.x(b)
                    + 2.0 * self.ctx.w_surcharge(self.cost, spec_p, spec_c);
                best = best.min(unstable);
            }
        }
        // Stable options: for every homologous pair of children, either map it
        // or delete + insert.
        let mut total = 0.0;
        let mut right_used: Vec<bool> = vec![false; c2.len()];
        for &a in &c1 {
            let origin = self.t1.node(a).origin;
            let partner = c2.iter().enumerate().find(|(_, &b)| self.t2.node(b).origin == origin);
            match partner {
                Some((j, &b)) => {
                    right_used[j] = true;
                    let mapped = self.solve(a, b, memo);
                    total += mapped.min(self.x1.x(a) + self.x2.x(b));
                }
                None => total += self.x1.x(a),
            }
        }
        for (j, &b) in c2.iter().enumerate() {
            if !right_used[j] {
                total += self.x2.x(b);
            }
        }
        best.min(total)
    }

    /// Enumerates every partial matching between `c1[i..]` and the unused
    /// elements of `c2`; unmatched children pay their deletion/insertion cost.
    fn enumerate_matchings(
        &self,
        c1: &[TreeId],
        c2: &[TreeId],
        i: usize,
        used: &mut Vec<bool>,
        memo: &mut HashMap<(TreeId, TreeId), f64>,
    ) -> f64 {
        if i == c1.len() {
            return c2
                .iter()
                .enumerate()
                .filter(|(j, _)| !used[*j])
                .map(|(_, &b)| self.x2.x(b))
                .sum();
        }
        // Option: delete c1[i].
        let mut best = self.x1.x(c1[i]) + self.enumerate_matchings(c1, c2, i + 1, used, memo);
        // Option: match c1[i] with any unused c2[j].
        for j in 0..c2.len() {
            if used[j] {
                continue;
            }
            used[j] = true;
            let cand = self.solve(c1[i], c2[j], memo)
                + self.enumerate_matchings(c1, c2, i + 1, used, memo);
            used[j] = false;
            best = best.min(cand);
        }
        best
    }

    /// Enumerates every non-crossing matching between `c1[i..]` and `c2[j..]`.
    fn enumerate_noncrossing(
        &self,
        c1: &[TreeId],
        c2: &[TreeId],
        i: usize,
        j: usize,
        memo: &mut HashMap<(TreeId, TreeId), f64>,
    ) -> f64 {
        if i == c1.len() {
            return c2[j..].iter().map(|&b| self.x2.x(b)).sum();
        }
        if j == c2.len() {
            return c1[i..].iter().map(|&a| self.x1.x(a)).sum();
        }
        let delete = self.x1.x(c1[i]) + self.enumerate_noncrossing(c1, c2, i + 1, j, memo);
        let insert = self.x2.x(c2[j]) + self.enumerate_noncrossing(c1, c2, i, j + 1, memo);
        let pair =
            self.solve(c1[i], c2[j], memo) + self.enumerate_noncrossing(c1, c2, i + 1, j + 1, memo);
        delete.min(insert).min(pair)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{LengthCost, PowerCost, UnitCost};
    use crate::distance::WorkflowDiff;
    use rand::{Rng, SeedableRng};
    use wfdiff_sptree::{ExecutionDecider, SpecificationBuilder};

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

    /// A random decider with bounded replication for oracle-sized runs.
    struct SmallRandom {
        rng: rand_chacha::ChaCha8Rng,
        max_rep: usize,
    }
    impl ExecutionDecider for SmallRandom {
        fn parallel_subset(&mut self, n: usize) -> Vec<bool> {
            (0..n).map(|_| self.rng.gen_bool(0.6)).collect()
        }
        fn fork_copies(&mut self, _c: usize) -> usize {
            self.rng.gen_range(1..=self.max_rep)
        }
        fn loop_iterations(&mut self, _c: usize) -> usize {
            self.rng.gen_range(1..=self.max_rep)
        }
    }

    #[test]
    fn dynamic_program_matches_exhaustive_oracle_on_random_small_runs() {
        let spec = fig2_specification();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2024);
        for case in 0..25 {
            let seed1 = rng.gen();
            let seed2 = rng.gen();
            let r1 = spec
                .execute(&mut SmallRandom {
                    rng: rand_chacha::ChaCha8Rng::seed_from_u64(seed1),
                    max_rep: 3,
                })
                .unwrap();
            let r2 = spec
                .execute(&mut SmallRandom {
                    rng: rand_chacha::ChaCha8Rng::seed_from_u64(seed2),
                    max_rep: 3,
                })
                .unwrap();
            for cost in [&UnitCost as &dyn CostModel, &LengthCost, &PowerCost::new(0.5)] {
                let engine = WorkflowDiff::new(&spec, cost);
                let fast = engine.distance(&r1, &r2).unwrap();
                let slow = exhaustive_distance(&spec, cost, &r1, &r2).unwrap();
                assert!(
                    (fast - slow).abs() < 1e-9,
                    "case {case}: DP distance {fast} != exhaustive {slow} under {}",
                    cost.name()
                );
            }
        }
    }

    #[test]
    fn oracle_agrees_on_the_paper_example() {
        let spec = fig2_specification();
        // Rebuild R1/R2 from Fig. 2 via explicit graphs (same as distance tests).
        let mut g1 = wfdiff_graph::LabeledDigraph::new();
        let n1 = g1.add_node("1");
        let n2 = g1.add_node("2");
        let n3a = g1.add_node("3");
        let n3b = g1.add_node("3");
        let n4 = g1.add_node("4");
        let n6 = g1.add_node("6");
        let n7 = g1.add_node("7");
        g1.add_edge(n1, n2);
        g1.add_edge(n2, n3a);
        g1.add_edge(n2, n3b);
        g1.add_edge(n2, n4);
        g1.add_edge(n3a, n6);
        g1.add_edge(n3b, n6);
        g1.add_edge(n4, n6);
        g1.add_edge(n6, n7);
        let r1 = wfdiff_sptree::Run::from_graph(&spec, g1).unwrap();
        let r2 = spec
            .execute(&mut SmallRandom {
                rng: rand_chacha::ChaCha8Rng::seed_from_u64(5),
                max_rep: 2,
            })
            .unwrap();
        let engine = WorkflowDiff::new(&spec, &UnitCost);
        let fast = engine.distance(&r1, &r2).unwrap();
        let slow = exhaustive_distance(&spec, &UnitCost, &r1, &r2).unwrap();
        assert_eq!(fast, slow);
    }
}
