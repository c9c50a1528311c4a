//! Algorithms 4 and 6: the edit distance between two valid runs of the same
//! specification, via minimum-cost well-formed mappings on their annotated
//! SP-trees.
//!
//! The entry point is [`WorkflowDiff`]: construct it once per
//! (specification, cost model) pair and call [`WorkflowDiff::diff`] for each
//! pair of runs.  The result carries the edit distance, the minimum-cost
//! well-formed mapping that realises it, and enough bookkeeping for
//! [`crate::script`] to produce a concrete edit script.
//!
//! The recursion follows the paper exactly:
//!
//! * `Q`/`Q` pairs cost nothing;
//! * `S`/`S` pairs map their children pairwise (children of an `S` node are
//!   preserved by every well-formed mapping);
//! * `P`/`P` pairs map homologous children when that is cheaper than deleting
//!   and re-inserting them, with the *unstable pair* surcharge `2·W_TG` when
//!   both nodes would otherwise lose their only child (Definition 5.2);
//! * `F`/`F` pairs solve a minimum-cost bipartite matching over their copies
//!   (Hungarian algorithm);
//! * `L`/`L` pairs solve a minimum-cost **non-crossing** matching over their
//!   iterations (sequence-alignment DP), since iterations are ordered.

use crate::cache::{DiffCache, PairKey};
use crate::cost::CostModel;
use crate::deletion::DeletionTables;
use crate::error::DiffError;
use crate::mapping::Mapping;
use crate::surcharge::SpecContext;
use std::collections::HashMap;
use std::sync::Arc;
use wfdiff_matching::{assignment_with_unmatched, noncrossing_solve};
use wfdiff_sptree::{
    AnnotatedTree, Fingerprint, NodeType, Run, Specification, TreeFingerprints, TreeId,
};

/// How the children of a mapped pair were matched; used to reconstruct the
/// mapping and to derive edit scripts.
#[derive(Debug, Clone, PartialEq)]
pub enum Decision {
    /// A `Q`/`Q` pair: nothing below.
    Leaf,
    /// An `S`/`S` pair: children mapped pairwise in order.
    Series(Vec<(TreeId, TreeId)>),
    /// A `P`/`P` (or `F`/`F`, `L`/`L`) pair: the listed child pairs are mapped,
    /// every other child is deleted (left) or inserted (right).
    Matched(Vec<(TreeId, TreeId)>),
    /// An unstably-matched `P`/`P` pair: the single children are *not* mapped;
    /// the transformation pays `X(c1) + X(c2) + 2·W_TG`.
    Unstable,
}

/// The result of differencing two runs.
#[derive(Debug, Clone)]
pub struct DiffResult {
    /// The edit distance `δ(R1, R2)`.
    pub distance: f64,
    /// A minimum-cost well-formed mapping realising the distance.
    pub mapping: Mapping,
    /// Per mapped pair, how its children were matched.
    pub decisions: HashMap<(TreeId, TreeId), Decision>,
}

/// A differencing engine for one specification and one cost model.
pub struct WorkflowDiff<'a> {
    spec: &'a Specification,
    cost: &'a dyn CostModel,
    ctx: SpecContext<'a>,
    /// Arena-identity fingerprint of the specification (part of every
    /// pair-cache key: the surcharge context and the meaning of run-tree
    /// origins depend on the exact specification build).
    spec_fp: Fingerprint,
    /// Identity hash of the cost model.
    cost_key: u64,
}

/// What differencing needs from one run besides its tree: the canonical
/// fingerprints and the Algorithm 3 tables.
///
/// It depends only on the run and the cost model, and it owns its data, so
/// a long-lived caller (the diff service) can compute it once per stored
/// run with [`WorkflowDiff::prepare_tables`] and keep it beside the run.
#[derive(Debug, Clone)]
pub struct RunTables {
    fps: TreeFingerprints,
    tables: DeletionTables,
}

impl RunTables {
    /// The run tree's canonical fingerprints.
    pub fn fingerprints(&self) -> &TreeFingerprints {
        &self.fps
    }

    /// The run's Algorithm 3 deletion/insertion tables.
    pub fn tables(&self) -> &DeletionTables {
        &self.tables
    }
}

/// A run paired with its [`RunTables`], ready for repeated differencing.
///
/// Build one per run with [`WorkflowDiff::prepare`], or from tables kept
/// across calls with [`PreparedRun::new`], and reuse it across
/// [`WorkflowDiff::diff_prepared`] / [`WorkflowDiff::distance_prepared`]
/// calls: batch workloads (all-pairs clustering) prepare each run once and
/// difference it against many partners.
pub struct PreparedRun<'r> {
    run: &'r Run,
    tables: Arc<RunTables>,
}

impl<'r> PreparedRun<'r> {
    /// Pairs `run` with tables that [`WorkflowDiff::prepare_tables`]
    /// computed for this same run under the engine's cost model.
    pub fn new(run: &'r Run, tables: Arc<RunTables>) -> Self {
        debug_assert_eq!(tables.fps.len(), run.tree().len(), "tables of another run");
        PreparedRun { run, tables }
    }

    /// The underlying run.
    pub fn run(&self) -> &'r Run {
        self.run
    }

    /// The run tree's canonical fingerprints.
    pub fn fingerprints(&self) -> &TreeFingerprints {
        &self.tables.fps
    }

    /// The run's Algorithm 3 deletion/insertion tables.
    pub fn tables(&self) -> &DeletionTables {
        &self.tables.tables
    }
}

/// Per solved pair, how its children were matched: what the full diff keeps
/// for mapping reconstruction.  The cost-only query keeps none.
type Decisions = HashMap<(TreeId, TreeId), Decision>;

impl<'a> WorkflowDiff<'a> {
    /// Creates a differencing engine.
    pub fn new(spec: &'a Specification, cost: &'a dyn CostModel) -> Self {
        let spec_fp = spec.fingerprint();
        let cost_key = cost.cache_key();
        WorkflowDiff { spec, cost, ctx: SpecContext::new(spec), spec_fp, cost_key }
    }

    /// The specification context (branch-free lengths, surcharges).
    pub fn context(&self) -> &SpecContext<'a> {
        &self.ctx
    }

    /// The cost model in use.
    pub fn cost_model(&self) -> &dyn CostModel {
        self.cost
    }

    /// The specification.
    pub fn spec(&self) -> &Specification {
        self.spec
    }

    /// Computes the subtree deletion/insertion tables (Algorithm 3) for a run.
    pub fn deletion_tables(&self, run: &Run) -> DeletionTables {
        DeletionTables::compute(run.tree(), self.cost)
    }

    /// Fingerprints a run and computes its Algorithm 3 tables, reusing
    /// per-subtree cache entries when a shared cache is supplied.
    ///
    /// Fails with [`DiffError::SpecMismatch`] when the run does not belong to
    /// this engine's specification.
    pub fn prepare<'r>(
        &self,
        run: &'r Run,
        cache: Option<&dyn DiffCache>,
    ) -> Result<PreparedRun<'r>, DiffError> {
        Ok(PreparedRun { run, tables: Arc::new(self.prepare_tables(run, cache)?) })
    }

    /// The owned half of [`WorkflowDiff::prepare`]: the run's fingerprints
    /// and Algorithm 3 tables, to keep and pair with the run again through
    /// [`PreparedRun::new`].  Same checks and errors as `prepare`.
    pub fn prepare_tables(
        &self,
        run: &Run,
        cache: Option<&dyn DiffCache>,
    ) -> Result<RunTables, DiffError> {
        if run.spec_name() != self.spec.name() {
            return Err(DiffError::SpecMismatch {
                first: self.spec.name().to_string(),
                second: run.spec_name().to_string(),
            });
        }
        // Same name is not enough: the run must have been validated against
        // this exact specification *version*, or its origin references would
        // index a different tree arena.
        if run.spec_fingerprint() != self.spec_fp {
            return Err(DiffError::SpecVersionMismatch { spec: self.spec.name().to_string() });
        }
        let fps = TreeFingerprints::compute(run.tree());
        let tables = match cache {
            Some(cache) => {
                DeletionTables::compute_cached(run.tree(), self.cost, &fps, self.cost_key, cache)
            }
            None => DeletionTables::compute(run.tree(), self.cost),
        };
        Ok(RunTables { fps, tables })
    }

    /// Computes the edit distance and a minimum-cost mapping between two runs
    /// of this engine's specification.
    pub fn diff(&self, r1: &Run, r2: &Run) -> Result<DiffResult, DiffError> {
        self.diff_with_cache(r1, r2, None)
    }

    /// [`WorkflowDiff::diff`] with an optional shared cache.
    ///
    /// The cache accelerates the Algorithm 3 tables (per-subtree entries) and
    /// short-circuits identical subtree pairs; every computed pair cost is
    /// also *published* to the cache so subsequent
    /// [`WorkflowDiff::distance_prepared`] queries can reuse it.  The mapping
    /// and distance are bit-identical to the uncached path.
    pub fn diff_with_cache(
        &self,
        r1: &Run,
        r2: &Run,
        cache: Option<&dyn DiffCache>,
    ) -> Result<DiffResult, DiffError> {
        let p1 = self.prepare(r1, cache)?;
        let p2 = self.prepare(r2, cache)?;
        self.diff_prepared(&p1, &p2, cache)
    }

    /// Computes the full diff between two prepared runs.
    pub fn diff_prepared(
        &self,
        p1: &PreparedRun<'_>,
        p2: &PreparedRun<'_>,
        cache: Option<&dyn DiffCache>,
    ) -> Result<DiffResult, DiffError> {
        let cx = Ctx::new(p1, p2, cache);
        // Mapping reconstruction needs a decision per mapped pair, so the
        // full diff records them and never *reads* pair costs from the cache
        // — it only publishes them (and uses the O(1) identical-subtree fast
        // path, whose decisions are synthesised during reconstruction).
        let mut solved = Decisions::new();
        let (root1, root2) = (cx.t1.root(), cx.t2.root());
        let root_cost = self.solve(&cx, root1, root2, Some(&mut solved))?;
        // Reconstruct the mapping by walking the decisions from the roots.
        let mut pairs = Vec::new();
        let mut decisions = HashMap::new();
        let mut stack = vec![(root1, root2)];
        while let Some((a, b)) = stack.pop() {
            pairs.push((a, b));
            let decision = match solved.remove(&(a, b)) {
                Some(decision) => decision,
                None if cx.f1.of(a) == cx.f2.of(b) => self.identity_decision(&cx, a, b)?,
                None => {
                    return Err(DiffError::Invariant(format!("missing decision for ({a}, {b})")))
                }
            };
            if let Decision::Series(children) | Decision::Matched(children) = &decision {
                stack.extend(children.iter().copied());
            }
            decisions.insert((a, b), decision);
        }
        Ok(DiffResult { distance: root_cost, mapping: Mapping::new(pairs), decisions })
    }

    /// Computes only the edit distance (no mapping reconstruction); slightly
    /// cheaper and convenient for the benchmark harness.
    pub fn distance(&self, r1: &Run, r2: &Run) -> Result<f64, DiffError> {
        Ok(self.diff(r1, r2)?.distance)
    }

    /// Computes only the edit distance, memoising shared subproblems through
    /// `cache`.
    ///
    /// Unlike the full diff, the cost-only query both reads *and* writes the
    /// fingerprint-keyed pair memo, so repeated or overlapping queries (the
    /// all-pairs clustering workload) skip whole subtree-pair DPs.
    pub fn distance_with_cache(
        &self,
        r1: &Run,
        r2: &Run,
        cache: &dyn DiffCache,
    ) -> Result<f64, DiffError> {
        let p1 = self.prepare(r1, Some(cache))?;
        let p2 = self.prepare(r2, Some(cache))?;
        self.distance_prepared(&p1, &p2, Some(cache))
    }

    /// Computes only the edit distance between two prepared runs.
    pub fn distance_prepared(
        &self,
        p1: &PreparedRun<'_>,
        p2: &PreparedRun<'_>,
        cache: Option<&dyn DiffCache>,
    ) -> Result<f64, DiffError> {
        let cx = Ctx::new(p1, p2, cache);
        self.solve(&cx, cx.t1.root(), cx.t2.root(), None)
    }

    /// The pair-cache key of the homologous subtree pair `(v1, v2)`.
    fn pair_key(&self, cx: &Ctx<'_>, v1: TreeId, v2: TreeId) -> PairKey {
        PairKey {
            spec: self.spec_fp,
            cost_model: self.cost_key,
            left: cx.f1.of(v1),
            right: cx.f2.of(v2),
        }
    }

    /// Synthesises the zero-cost decision of an identical subtree pair
    /// (`fingerprint(v1) == fingerprint(v2)`): children are paired with their
    /// structurally identical counterparts.
    fn identity_decision(
        &self,
        cx: &Ctx<'_>,
        v1: TreeId,
        v2: TreeId,
    ) -> Result<Decision, DiffError> {
        let (n1, n2) = (cx.t1.node(v1), cx.t2.node(v2));
        let mismatch = || {
            DiffError::Invariant(format!(
                "fingerprint-equal pair ({v1}, {v2}) with mismatched shapes"
            ))
        };
        if n1.ty != n2.ty || cx.t1.children(v1).len() != cx.t2.children(v2).len() {
            return Err(mismatch());
        }
        match n1.ty {
            NodeType::Q => Ok(Decision::Leaf),
            NodeType::S | NodeType::L => {
                // Ordered children: identical trees pair positionally.
                let pairs: Vec<(TreeId, TreeId)> = cx
                    .t1
                    .children(v1)
                    .iter()
                    .copied()
                    .zip(cx.t2.children(v2).iter().copied())
                    .collect();
                Ok(if n1.ty == NodeType::S {
                    Decision::Series(pairs)
                } else {
                    Decision::Matched(pairs)
                })
            }
            NodeType::P | NodeType::F => {
                // Unordered children: sort both sides by fingerprint; equal
                // parent fingerprints guarantee equal child multisets, so the
                // zipped pairs are identical subtrees.
                let mut c1 = cx.t1.children(v1).to_vec();
                let mut c2 = cx.t2.children(v2).to_vec();
                c1.sort_by_key(|&c| cx.f1.of(c));
                c2.sort_by_key(|&c| cx.f2.of(c));
                for (&a, &b) in c1.iter().zip(c2.iter()) {
                    if cx.f1.of(a) != cx.f2.of(b) {
                        return Err(mismatch());
                    }
                }
                Ok(Decision::Matched(c1.into_iter().zip(c2).collect()))
            }
        }
    }

    /// The minimum cost of a well-formed mapping between `T1[v1]` and
    /// `T2[v2]`, where `v1` and `v2` are homologous.
    ///
    /// With `solved` present (the full diff) each solved pair's [`Decision`]
    /// is recorded there.  Without it (the cost-only query) the DP does cost
    /// work only: it reads pair costs from the shared cache, builds no
    /// decision and borrows the children lists.  Neither mode memoises
    /// pairs within one DP: a pair of subtrees is reached only from the
    /// pair of their parents, which is solved once.
    fn solve(
        &self,
        cx: &Ctx<'_>,
        v1: TreeId,
        v2: TreeId,
        mut solved: Option<&mut Decisions>,
    ) -> Result<f64, DiffError> {
        let (t1, t2) = (cx.t1, cx.t2);
        let n1 = t1.node(v1);
        let n2 = t2.node(v2);
        if n1.origin != n2.origin {
            return Err(DiffError::Invariant(format!(
                "solve called on non-homologous pair ({v1}, {v2})"
            )));
        }
        // Identical subtrees (same canonical fingerprint, origins included)
        // map onto each other for free — the dominant case when differencing
        // many runs of one specification.  The decision is synthesised on
        // demand during reconstruction.
        if cx.f1.of(v1) == cx.f2.of(v2) {
            return Ok(0.0);
        }
        // Shared fingerprint-keyed memo (cost-only queries): another diff of
        // this specification may already have solved this exact subproblem.
        let key = self.pair_key(cx, v1, v2);
        let record = solved.is_some();
        if !record {
            if let Some(cost) = cx.cache.and_then(|c| c.get_pair(&key)) {
                return Ok(cost);
            }
        }
        let (c1, c2) = (t1.children(v1), t2.children(v2));
        let (cost, decision) = match (n1.ty, n2.ty) {
            (NodeType::Q, NodeType::Q) => (0.0, record.then_some(Decision::Leaf)),
            (NodeType::S, NodeType::S) => {
                if c1.len() != c2.len() {
                    return Err(DiffError::Invariant(
                        "homologous S nodes with different child counts".to_string(),
                    ));
                }
                let mut total = 0.0;
                for (&a, &b) in c1.iter().zip(c2) {
                    total += self.solve(cx, a, b, solved.as_deref_mut())?;
                }
                let pairs = || c1.iter().copied().zip(c2.iter().copied()).collect();
                (total, record.then(|| Decision::Series(pairs())))
            }
            (NodeType::P, NodeType::P) => self.solve_parallel(cx, v1, v2, solved.as_deref_mut())?,
            (NodeType::F, NodeType::F) => {
                let (pair_cost, left, right) =
                    self.child_costs(cx, c1, c2, solved.as_deref_mut())?;
                let matched = assignment_with_unmatched(&pair_cost, &left, &right)?;
                (matched.cost, record.then(|| matched_pairs(c1, c2, &matched.left_to_right)))
            }
            (NodeType::L, NodeType::L) => {
                let (pair_cost, left, right) =
                    self.child_costs(cx, c1, c2, solved.as_deref_mut())?;
                let matched = noncrossing_solve(&pair_cost, &left, &right)?;
                (matched.cost, record.then(|| matched_pairs(c1, c2, &matched.left_to_right)))
            }
            (a, b) => {
                return Err(DiffError::Invariant(format!(
                    "homologous nodes with mismatched types {a} vs {b}"
                )))
            }
        };
        if let Some(cache) = cx.cache {
            cache.put_pair(key, cost);
        }
        if let (Some(solved), Some(decision)) = (solved, decision) {
            solved.insert((v1, v2), decision);
        }
        Ok(cost)
    }

    /// The inputs of an `F`/`F` or `L`/`L` matching: the solved cost of every
    /// child pair, and each side's deletion/insertion costs.
    #[allow(clippy::type_complexity)]
    fn child_costs(
        &self,
        cx: &Ctx<'_>,
        c1: &[TreeId],
        c2: &[TreeId],
        mut solved: Option<&mut Decisions>,
    ) -> Result<(Vec<Vec<Option<f64>>>, Vec<f64>, Vec<f64>), DiffError> {
        let mut pair_cost = vec![vec![None; c2.len()]; c1.len()];
        for (row, &a) in pair_cost.iter_mut().zip(c1) {
            for (cell, &b) in row.iter_mut().zip(c2) {
                *cell = Some(self.solve(cx, a, b, solved.as_deref_mut())?);
            }
        }
        let left = c1.iter().map(|&c| cx.x1.x(c)).collect();
        let right = c2.iter().map(|&c| cx.x2.x(c)).collect();
        Ok((pair_cost, left, right))
    }

    /// Case 3 of Algorithm 4: a pair of `P` nodes.  Returns the cost and,
    /// when `solved` records decisions, the pair's decision.
    fn solve_parallel(
        &self,
        cx: &Ctx<'_>,
        v1: TreeId,
        v2: TreeId,
        mut solved: Option<&mut Decisions>,
    ) -> Result<(f64, Option<Decision>), DiffError> {
        let (t1, t2) = (cx.t1, cx.t2);
        let (x1, x2) = (cx.x1, cx.x2);
        let (c1, c2) = (t1.children(v1), t2.children(v2));
        let record = solved.is_some();
        // Case 3a: both have exactly one child and the children are homologous.
        if let ([a], [b]) = (c1, c2) {
            let (a, b) = (*a, *b);
            if t1.node(a).origin == t2.node(b).origin {
                let mapped = self.solve(cx, a, b, solved.as_deref_mut())?;
                let spec_p = t1.node(v1).origin.ok_or_else(|| missing_origin(v1))?;
                let spec_child = t1.node(a).origin.ok_or_else(|| missing_origin(a))?;
                let unstable =
                    x1.x(a) + x2.x(b) + 2.0 * self.ctx.w_surcharge(self.cost, spec_p, spec_child);
                return Ok(if mapped <= unstable {
                    (mapped, record.then(|| Decision::Matched(vec![(a, b)])))
                } else {
                    (unstable, record.then_some(Decision::Unstable))
                });
            }
        }
        // Case 3b: match children by their specification origin.  A right
        // child is the partner of the left children of its origin — the last
        // such right child, should an origin repeat.
        for &b in c2 {
            t2.node(b).origin.ok_or_else(|| missing_origin(b))?;
        }
        let partner = |origin| c2.iter().rev().copied().find(|&b| t2.node(b).origin == origin);
        let mut total = 0.0;
        let mut pairs = Vec::new();
        for &a in c1 {
            let origin = t1.node(a).origin.ok_or_else(|| missing_origin(a))?;
            match partner(Some(origin)) {
                Some(b) => {
                    let mapped = self.solve(cx, a, b, solved.as_deref_mut())?;
                    let separate = x1.x(a) + x2.x(b);
                    if mapped <= separate {
                        total += mapped;
                        if record {
                            pairs.push((a, b));
                        }
                    } else {
                        total += separate;
                    }
                }
                None => total += x1.x(a),
            }
        }
        for &b in c2 {
            let origin = t2.node(b).origin;
            let matched =
                partner(origin) == Some(b) && c1.iter().any(|&a| t1.node(a).origin == origin);
            if !matched {
                total += x2.x(b);
            }
        }
        Ok((total, record.then_some(Decision::Matched(pairs))))
    }
}

/// The child pairs a matching's `left_to_right` maps, as a decision.
fn matched_pairs(c1: &[TreeId], c2: &[TreeId], left_to_right: &[Option<usize>]) -> Decision {
    Decision::Matched(
        left_to_right.iter().enumerate().filter_map(|(i, j)| j.map(|j| (c1[i], c2[j]))).collect(),
    )
}

/// Everything a single pair-of-runs DP needs, bundled to keep the recursion
/// signatures small.
struct Ctx<'e> {
    t1: &'e AnnotatedTree,
    t2: &'e AnnotatedTree,
    x1: &'e DeletionTables,
    x2: &'e DeletionTables,
    f1: &'e TreeFingerprints,
    f2: &'e TreeFingerprints,
    /// Where computed pair costs are published, and where a cost-only DP
    /// (one that records no [`Decision`]) also reads them.
    cache: Option<&'e dyn DiffCache>,
}

impl<'e> Ctx<'e> {
    fn new(
        p1: &'e PreparedRun<'_>,
        p2: &'e PreparedRun<'_>,
        cache: Option<&'e dyn DiffCache>,
    ) -> Self {
        Ctx {
            t1: p1.run.tree(),
            t2: p2.run.tree(),
            x1: p1.tables(),
            x2: p2.tables(),
            f1: p1.fingerprints(),
            f2: p2.fingerprints(),
            cache,
        }
    }
}

fn missing_origin(v: TreeId) -> DiffError {
    DiffError::Invariant(format!("run tree node {v} has no specification origin"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{LengthCost, PowerCost, UnitCost};
    use wfdiff_graph::LabeledDigraph;
    use wfdiff_sptree::{ExecutionDecider, Run, SpecificationBuilder};

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

    fn fig2_run1(spec: &Specification) -> Run {
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
        Run::from_graph(spec, r).unwrap()
    }

    fn fig2_run2(spec: &Specification) -> Run {
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
        Run::from_graph(spec, r).unwrap()
    }

    fn fig2_run3(spec: &Specification) -> Run {
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
        Run::from_graph(spec, r).unwrap()
    }

    #[test]
    fn paper_example_distance_is_four_under_unit_cost() {
        // Example 5.2: δ(T1, T2) = 4 under the unit cost model.
        let spec = fig2_specification();
        let r1 = fig2_run1(&spec);
        let r2 = fig2_run2(&spec);
        let diff = WorkflowDiff::new(&spec, &UnitCost);
        let result = diff.diff(&r1, &r2).unwrap();
        assert_eq!(result.distance, 4.0);
        // The mapping is well formed and its independently evaluated cost
        // agrees with the reported distance.
        result.mapping.verify_well_formed(r1.tree(), r2.tree()).unwrap();
        let x1 = diff.deletion_tables(&r1);
        let x2 = diff.deletion_tables(&r2);
        let evaluated =
            result.mapping.cost(r1.tree(), r2.tree(), &x1, &x2, diff.context(), &UnitCost);
        assert_eq!(evaluated, result.distance);
    }

    #[test]
    fn distance_to_self_is_zero() {
        let spec = fig2_specification();
        for run in [fig2_run1(&spec), fig2_run2(&spec), fig2_run3(&spec)] {
            for cost in [&UnitCost as &dyn CostModel, &LengthCost, &PowerCost::new(0.5)] {
                let diff = WorkflowDiff::new(&spec, cost);
                assert_eq!(
                    diff.distance(&run, &run).unwrap(),
                    0.0,
                    "distance of a run to itself must be zero under {}",
                    cost.name()
                );
            }
        }
    }

    #[test]
    fn distance_is_symmetric() {
        let spec = fig2_specification();
        let runs = [fig2_run1(&spec), fig2_run2(&spec), fig2_run3(&spec)];
        for cost in [&UnitCost as &dyn CostModel, &LengthCost, &PowerCost::new(0.5)] {
            let diff = WorkflowDiff::new(&spec, cost);
            for a in &runs {
                for b in &runs {
                    let ab = diff.distance(a, b).unwrap();
                    let ba = diff.distance(b, a).unwrap();
                    assert!(
                        (ab - ba).abs() < 1e-9,
                        "distance must be symmetric under {} ({} vs {})",
                        cost.name(),
                        ab,
                        ba
                    );
                }
            }
        }
    }

    #[test]
    fn triangle_inequality_holds_on_paper_runs() {
        let spec = fig2_specification();
        let runs = [fig2_run1(&spec), fig2_run2(&spec), fig2_run3(&spec)];
        for cost in [&UnitCost as &dyn CostModel, &LengthCost] {
            let diff = WorkflowDiff::new(&spec, cost);
            for a in &runs {
                for b in &runs {
                    for c in &runs {
                        let ab = diff.distance(a, b).unwrap();
                        let bc = diff.distance(b, c).unwrap();
                        let ac = diff.distance(a, c).unwrap();
                        assert!(
                            ac <= ab + bc + 1e-9,
                            "triangle inequality violated under {}",
                            cost.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn loop_runs_difference_via_noncrossing_matching() {
        // R1 (one loop iteration, forked branch 3) vs R3 (two loop iterations):
        // the loop matching must pair the single iteration of R1 with one of
        // R3's iterations and insert the other.
        let spec = fig2_specification();
        let r1 = fig2_run1(&spec);
        let r3 = fig2_run3(&spec);
        let diff = WorkflowDiff::new(&spec, &UnitCost);
        let result = diff.diff(&r1, &r3).unwrap();
        assert!(result.distance > 0.0);
        result.mapping.verify_well_formed(r1.tree(), r3.tree()).unwrap();
        // Independent evaluation agrees.
        let x1 = diff.deletion_tables(&r1);
        let x2 = diff.deletion_tables(&r3);
        let evaluated =
            result.mapping.cost(r1.tree(), r3.tree(), &x1, &x2, diff.context(), &UnitCost);
        assert!((evaluated - result.distance).abs() < 1e-9);
        // R1's iteration is closer to R3's first iteration (which also forks
        // branch 3 twice... actually branch 4 twice) — either way, the distance
        // under unit cost is bounded above by deleting/inserting whole
        // iterations.
        assert!(result.distance <= 8.0);
    }

    #[test]
    fn single_branch_runs_have_distance_related_to_their_difference() {
        // Two runs that each take a single (different) branch: 2->3->6 vs
        // 2->5->6.  Under unit cost transforming one into the other inserts
        // the new branch and deletes the old one: distance 2.
        let spec = fig2_specification();
        let mk = |branch: &str| {
            let mut r = LabeledDigraph::new();
            let n1 = r.add_node("1");
            let n2 = r.add_node("2");
            let nb = r.add_node(branch);
            let n6 = r.add_node("6");
            let n7 = r.add_node("7");
            r.add_edge(n1, n2);
            r.add_edge(n2, nb);
            r.add_edge(nb, n6);
            r.add_edge(n6, n7);
            Run::from_graph(&spec, r).unwrap()
        };
        let r3 = mk("3");
        let r5 = mk("5");
        let diff = WorkflowDiff::new(&spec, &UnitCost);
        assert_eq!(diff.distance(&r3, &r5).unwrap(), 2.0);
        // Under the length cost both the deleted and the inserted elementary
        // paths have two edges: distance 4.
        let diff_len = WorkflowDiff::new(&spec, &LengthCost);
        assert_eq!(diff_len.distance(&r3, &r5).unwrap(), 4.0);
    }

    #[test]
    fn unstable_pair_surcharge_applies_when_profitable() {
        // Specification with a parallel section of two branches; runs take the
        // SAME branch but their subtrees differ a lot (different number of fork
        // copies inside the branch).  With a very cheap alternative branch the
        // unstable transformation (delete + insert via a temporary path) can
        // beat mapping the branches, and the distance must still be computed
        // consistently.
        let mut b = SpecificationBuilder::new("unstable");
        b.edge("s", "u");
        // Branch A: u -> a -> v with a fork over (u,a,v).
        b.path(&["u", "a", "v"]);
        b.fork_path(&["u", "a", "v"]);
        // Branch B: direct edge u -> v.
        b.edge("u", "v");
        b.edge("v", "t");
        let spec = b.build().unwrap();

        struct D(usize);
        impl ExecutionDecider for D {
            fn parallel_subset(&mut self, n: usize) -> Vec<bool> {
                vec![true; n]
            }
            fn fork_copies(&mut self, _c: usize) -> usize {
                self.0
            }
            fn loop_iterations(&mut self, _c: usize) -> usize {
                1
            }
        }
        let r1 = spec.execute(&mut D(1)).unwrap();
        let r2 = spec.execute(&mut D(6)).unwrap();
        // Both runs execute both branches; they differ in the fork multiplicity
        // of branch A (1 vs 6 copies).
        let diff = WorkflowDiff::new(&spec, &UnitCost);
        let result = diff.diff(&r1, &r2).unwrap();
        result.mapping.verify_well_formed(r1.tree(), r2.tree()).unwrap();
        // Mapping the forked branch costs 5 insertions (5 extra fork copies);
        // deleting and re-inserting it would cost X(c1) + X(c2) = 1 + 6 = 7,
        // so the mapped option wins and the distance is 5.
        assert_eq!(result.distance, 5.0);
        let x1 = diff.deletion_tables(&r1);
        let x2 = diff.deletion_tables(&r2);
        let evaluated =
            result.mapping.cost(r1.tree(), r2.tree(), &x1, &x2, diff.context(), &UnitCost);
        assert_eq!(evaluated, result.distance);
    }

    #[test]
    fn cached_distances_match_uncached() {
        let spec = fig2_specification();
        let runs = [fig2_run1(&spec), fig2_run2(&spec), fig2_run3(&spec)];
        let cache = crate::ShardedDiffCache::default();
        for cost in [&UnitCost as &dyn CostModel, &LengthCost, &PowerCost::new(0.5)] {
            let diff = WorkflowDiff::new(&spec, cost);
            for a in &runs {
                for b in &runs {
                    let plain = diff.distance(a, b).unwrap();
                    let cold = diff.distance_with_cache(a, b, &cache).unwrap();
                    let warm = diff.distance_with_cache(a, b, &cache).unwrap();
                    assert_eq!(plain, cold, "cold cached distance under {}", cost.name());
                    assert_eq!(plain, warm, "warm cached distance under {}", cost.name());
                }
            }
        }
        assert!(cache.stats().hits > 0, "repeated queries must hit the cache");
    }

    #[test]
    fn cached_full_diff_matches_and_identity_fast_path_reconstructs() {
        let spec = fig2_specification();
        let r1 = fig2_run1(&spec);
        let r1b = fig2_run1(&spec);
        let r2 = fig2_run2(&spec);
        let cache = crate::ShardedDiffCache::default();
        let diff = WorkflowDiff::new(&spec, &UnitCost);
        let res = diff.diff_with_cache(&r1, &r2, Some(&cache)).unwrap();
        assert_eq!(res.distance, 4.0);
        res.mapping.verify_well_formed(r1.tree(), r2.tree()).unwrap();
        // Identical runs exercise the pure fingerprint fast path: the
        // synthesised mapping must be complete, well formed and free.
        let res0 = diff.diff_with_cache(&r1, &r1b, Some(&cache)).unwrap();
        assert_eq!(res0.distance, 0.0);
        res0.mapping.verify_well_formed(r1.tree(), r1b.tree()).unwrap();
        let x1 = diff.deletion_tables(&r1);
        let x2 = diff.deletion_tables(&r1b);
        let evaluated =
            res0.mapping.cost(r1.tree(), r1b.tree(), &x1, &x2, diff.context(), &UnitCost);
        assert_eq!(evaluated, 0.0);
        // A warm repeat of the full diff is bit-identical.
        let again = diff.diff_with_cache(&r1, &r2, Some(&cache)).unwrap();
        assert_eq!(again.distance, res.distance);
        assert_eq!(again.mapping, res.mapping);
    }

    #[test]
    fn warm_cost_only_query_is_answered_at_the_root() {
        let spec = fig2_specification();
        let r1 = fig2_run1(&spec);
        let r2 = fig2_run2(&spec);
        let cache = crate::ShardedDiffCache::default();
        let diff = WorkflowDiff::new(&spec, &UnitCost);
        let cold = diff.distance_with_cache(&r1, &r2, &cache).unwrap();
        let after_cold = cache.stats();
        let warm = diff.distance_with_cache(&r1, &r2, &cache).unwrap();
        let after_warm = cache.stats();
        assert_eq!(cold, warm);
        assert_eq!(
            after_warm.misses, after_cold.misses,
            "a warm query must not miss the cache at all"
        );
        assert!(after_warm.hits > after_cold.hits);
    }

    #[test]
    fn multi_edge_specs_do_not_confuse_the_fast_path() {
        // Two parallel edges u -> v: runs taking different (label-identical)
        // branches are signature-equivalent but NOT distance-zero, because
        // mappings must respect homology.  The fingerprint includes the
        // specification origin precisely so the cached path agrees with the
        // plain DP here.
        let mut b = SpecificationBuilder::new("multi");
        b.edge("s", "u");
        b.edge("u", "v");
        b.edge("u", "v");
        b.edge("v", "t");
        let spec = b.build().unwrap();
        struct Pick(usize);
        impl ExecutionDecider for Pick {
            fn parallel_subset(&mut self, n: usize) -> Vec<bool> {
                (0..n).map(|i| i == self.0).collect()
            }
            fn fork_copies(&mut self, _c: usize) -> usize {
                1
            }
            fn loop_iterations(&mut self, _c: usize) -> usize {
                1
            }
        }
        let ra = spec.execute(&mut Pick(0)).unwrap();
        let rb = spec.execute(&mut Pick(1)).unwrap();
        assert!(ra.equivalent(&rb), "the two runs are signature-equivalent");
        let cache = crate::ShardedDiffCache::default();
        let diff = WorkflowDiff::new(&spec, &UnitCost);
        let plain = diff.distance(&ra, &rb).unwrap();
        let cached = diff.distance_with_cache(&ra, &rb, &cache).unwrap();
        assert_eq!(plain, cached);
        assert!(plain > 0.0, "homology makes these runs differ despite equivalence");
    }

    #[test]
    fn spec_mismatch_is_reported() {
        let spec_a = fig2_specification();
        let mut b = SpecificationBuilder::new("other");
        b.path(&["1", "2", "6", "7"]);
        let spec_b = b.build().unwrap();
        let r_a = fig2_run1(&spec_a);
        let mut g = LabeledDigraph::new();
        let n1 = g.add_node("1");
        let n2 = g.add_node("2");
        let n6 = g.add_node("6");
        let n7 = g.add_node("7");
        g.add_edge(n1, n2);
        g.add_edge(n2, n6);
        g.add_edge(n6, n7);
        let r_b = Run::from_graph(&spec_b, g).unwrap();
        let diff = WorkflowDiff::new(&spec_a, &UnitCost);
        assert!(matches!(diff.diff(&r_a, &r_b), Err(DiffError::SpecMismatch { .. })));
    }

    #[test]
    fn distance_upper_bounded_by_delete_all_plus_insert_all() {
        let spec = fig2_specification();
        let r1 = fig2_run1(&spec);
        let r2 = fig2_run2(&spec);
        for cost in [&UnitCost as &dyn CostModel, &LengthCost, &PowerCost::new(0.3)] {
            let diff = WorkflowDiff::new(&spec, cost);
            let d = diff.distance(&r1, &r2).unwrap();
            let x1 = diff.deletion_tables(&r1);
            let x2 = diff.deletion_tables(&r2);
            // Deleting R1 down to a single copy of the outer fork and growing
            // R2 from it is always an upper bound; the crude bound used here is
            // X(root1) + X(root2) which corresponds to "delete everything,
            // insert everything" modulo the shared root copy.
            let bound = x1.x(r1.tree().root()) + x2.x(r2.tree().root());
            assert!(
                d <= bound + 1e-9,
                "distance {d} exceeds the delete-all/insert-all bound {bound} under {}",
                cost.name()
            );
        }
    }
}
