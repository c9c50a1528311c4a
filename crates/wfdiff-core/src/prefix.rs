//! Certified prefix lower bounds for streaming runs.
//!
//! A run that is still executing is known only as a *prefix*: the set of
//! node-lifecycle events observed so far determines which run edges have
//! definitely completed, but says nothing about what the execution will add
//! before it reaches the sink.  [`WorkflowDiff::prefix_distance`] turns that
//! partial knowledge into a **certified lower bound** on the edit distance
//! between the *final* run (whatever it turns out to be) and a reference run
//! — the quantity a live drift monitor compares against cluster radii.
//!
//! # The bound
//!
//! Every completed run edge instantiates exactly one specification edge
//! (identified by its ordered terminal-label pair; loop back-edges are
//! separators, not leaves, and are excluded).  Completed edges never revert:
//! whatever the final run `R` is, it contains at least `n_done(key)` leaves
//! for every label-pair `key`.  A well-formed mapping (Definition 5.1) only
//! pairs homologous leaves — equal specification origin, hence equal label
//! pair — so at most `n_ref(key)` of them can be mapped into the reference
//! run `R'`.  Any edit script therefore deletes at least
//!
//! ```text
//! D = Σ_key max(0, n_done(key) − n_ref(key))
//! ```
//!
//! leaves of `R`.  Deletions happen as elementary-path operations; a path
//! with `l` edges removes at most `l` leaves and costs at least
//! `γ_min(l) = min_{(s,t)} γ(l, s, t)` over specification label pairs.  The
//! cheapest way to delete `D` leaves is the partition minimising the summed
//! costs, computed by the DP
//!
//! ```text
//! f(0) = 0,    f(d) = min_{1 ≤ l ≤ d} ( γ_min(l) + f(d − l) )
//! ```
//!
//! and `f(D) ≤ δ(R, R')` for every completion `R` of the prefix.  The
//! argument needs one property of the cost model: `γ` must be non-decreasing
//! in the path length (so a single long path is never cheaper than the
//! `l = d` DP term accounts for).  All shipped models — unit, length, power
//! `l^ε` with `ε ∈ [0, 1]` and their label-weighted wrappers — satisfy it.
//!
//! # Monotonicity
//!
//! `n_done` only grows as events arrive, so `D` is non-decreasing; `f` is
//! non-decreasing in `d` (deleting ≥ d+1 leaves also deletes ≥ d).  The
//! reported bound therefore never decreases over the life of a stream, and
//! because it lower-bounds the final distance, switching to the exact
//! [`WorkflowDiff::distance_prepared`] once the run completes keeps the
//! trajectory monotone.  Only the deletion side is certified — insertions
//! the final run still owes the reference are not counted, which keeps the
//! bound sound for *every* possible completion.

use crate::cache::DiffCache;
use crate::distance::{PreparedRun, WorkflowDiff};
use crate::error::DiffError;
use std::collections::BTreeMap;
use wfdiff_graph::Label;
use wfdiff_sptree::{Fingerprint, Specification};

/// What a completed run edge instantiates in the specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefixEdgeClass {
    /// A specification edge: the edge is a `Q` leaf of the final run tree
    /// and counts toward the prefix profile.
    Leaf,
    /// The implicit back edge of a loop: a separator between iterations,
    /// never a leaf.  Recorded events of this class leave the profile
    /// unchanged.
    LoopBack,
}

/// The distance-relevant summary of a run prefix: how many leaves have
/// completed per specification edge (identified by its ordered terminal
/// label pair).
///
/// Build one per in-flight run with [`PrefixProfile::new`], feed it every
/// completed run edge through [`PrefixProfile::record_edge`], and hand it to
/// [`WorkflowDiff::prefix_distance`] for certified lower bounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixProfile {
    spec_fp: Fingerprint,
    counts: BTreeMap<(Label, Label), u64>,
    total: u64,
}

impl PrefixProfile {
    /// Creates an empty profile for runs of `spec`.
    pub fn new(spec: &Specification) -> Self {
        PrefixProfile { spec_fp: spec.fingerprint(), counts: BTreeMap::new(), total: 0 }
    }

    /// Records one completed run edge `from -> to` of a run of `spec`, the
    /// specification the profile was built for, and classifies it.
    ///
    /// Returns `None` when the label pair matches neither a specification
    /// edge nor a loop back-edge — the caller should reject the event (the
    /// run could never validate).  The profile is unchanged in that case.
    pub fn record_edge(
        &mut self,
        spec: &Specification,
        from: &Label,
        to: &Label,
    ) -> Option<PrefixEdgeClass> {
        let key = (from.clone(), to.clone());
        if spec.edge_by_labels().contains_key(&key) {
            *self.counts.entry(key).or_insert(0) += 1;
            self.total += 1;
            Some(PrefixEdgeClass::Leaf)
        } else if spec.loop_back_labels().contains(&key) {
            Some(PrefixEdgeClass::LoopBack)
        } else {
            None
        }
    }

    /// Fingerprint of the specification version the profile was built for.
    pub fn spec_fingerprint(&self) -> Fingerprint {
        self.spec_fp
    }

    /// Total number of completed leaves recorded so far.
    pub fn completed_leaves(&self) -> u64 {
        self.total
    }

    /// Number of completed leaves recorded for one label pair.
    pub fn count(&self, from: &Label, to: &Label) -> u64 {
        self.counts.get(&(from.clone(), to.clone())).copied().unwrap_or(0)
    }

    /// The per-label-pair completed-leaf counts (sorted by key).
    pub fn counts(&self) -> impl Iterator<Item = (&(Label, Label), u64)> {
        self.counts.iter().map(|(k, &n)| (k, n))
    }
}

impl<'a> WorkflowDiff<'a> {
    /// A certified lower bound on the edit distance between the final run of
    /// a stream (any completion of the prefix summarised by `profile`) and
    /// `reference`; see the [module documentation](self) for the argument.
    ///
    /// Once the stream has finished, pass the materialised run as
    /// `completed` and the bound tightens to the exact
    /// [`WorkflowDiff::distance_prepared`] — which is never below any bound
    /// reported earlier, so the trajectory a monitor observes is monotone
    /// non-decreasing from the first event through finalisation.
    pub fn prefix_distance(
        &self,
        profile: &PrefixProfile,
        completed: Option<&PreparedRun<'_>>,
        reference: &PreparedRun<'_>,
        cache: Option<&dyn DiffCache>,
    ) -> Result<f64, DiffError> {
        if profile.spec_fingerprint() != self.spec().fingerprint() {
            return Err(DiffError::SpecVersionMismatch { spec: self.spec().name().to_string() });
        }
        if let Some(done) = completed {
            return self.distance_prepared(done, reference, cache);
        }
        // Reference leaf counts per label pair (the run tree's Q leaves; back
        // edges are separators and have no leaf).
        let tree = reference.run().tree();
        let mut reference_counts: BTreeMap<(Label, Label), u64> = BTreeMap::new();
        for leaf in tree.leaves(tree.root()) {
            let node = tree.node(leaf);
            *reference_counts.entry((node.s_label.clone(), node.t_label.clone())).or_insert(0) += 1;
        }
        let surplus: u64 = profile
            .counts
            .iter()
            .map(|(key, &done)| {
                done.saturating_sub(reference_counts.get(key).copied().unwrap_or(0))
            })
            .sum();
        Ok(self.deletion_floor(surplus))
    }

    /// The DP `f(d)`: the minimum total cost of elementary-path deletions
    /// removing at least `d` leaves, under the length-wise minimum
    /// `γ_min(l)` over specification label pairs.
    fn deletion_floor(&self, d: u64) -> f64 {
        let d = usize::try_from(d).unwrap_or(usize::MAX);
        if d == 0 {
            return 0.0;
        }
        let labels: Vec<&Label> =
            self.spec().graph().node_ids().map(|id| self.spec().graph().label(id)).collect();
        let cost = self.cost_model();
        let gamma_min = |len: usize| -> f64 {
            let mut best = f64::INFINITY;
            for &a in &labels {
                for &b in &labels {
                    let c = cost.op_cost(len, a, b);
                    if c < best {
                        best = c;
                    }
                }
            }
            best
        };
        let mut f = vec![0.0_f64; d + 1];
        let gammas: Vec<f64> = (1..=d).map(gamma_min).collect();
        for i in 1..=d {
            let mut best = f64::INFINITY;
            for l in 1..=i {
                let candidate = gammas[l - 1] + f[i - l];
                if candidate < best {
                    best = candidate;
                }
            }
            f[i] = best;
        }
        f[d]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{LengthCost, PowerCost, UnitCost};
    use wfdiff_graph::LabeledDigraph;
    use wfdiff_sptree::{Run, SpecificationBuilder};

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

    fn single_branch_run(spec: &Specification, branch: &str) -> Run {
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
        Run::from_graph(spec, r).unwrap()
    }

    fn l(s: &str) -> Label {
        Label::new(s)
    }

    #[test]
    fn record_edge_classifies_spec_edges_back_edges_and_junk() {
        let spec = fig2_specification();
        let mut profile = PrefixProfile::new(&spec);
        assert_eq!(profile.record_edge(&spec, &l("1"), &l("2")), Some(PrefixEdgeClass::Leaf));
        assert_eq!(profile.record_edge(&spec, &l("6"), &l("2")), Some(PrefixEdgeClass::LoopBack));
        assert_eq!(profile.record_edge(&spec, &l("7"), &l("1")), None);
        assert_eq!(profile.completed_leaves(), 1);
        assert_eq!(profile.count(&l("1"), &l("2")), 1);
        assert_eq!(profile.count(&l("6"), &l("2")), 0, "back edges are not leaves");
    }

    #[test]
    fn empty_prefix_has_zero_bound_and_full_prefix_lower_bounds_the_distance() {
        let spec = fig2_specification();
        let r3 = single_branch_run(&spec, "3");
        let r5 = single_branch_run(&spec, "5");
        for cost in [&UnitCost as &dyn crate::CostModel, &LengthCost, &PowerCost::new(0.5)] {
            let engine = WorkflowDiff::new(&spec, cost);
            let p3 = engine.prepare(&r3, None).unwrap();
            let p5 = engine.prepare(&r5, None).unwrap();
            let exact = engine.distance_prepared(&p3, &p5, None).unwrap();

            let mut profile = PrefixProfile::new(&spec);
            let empty = engine.prefix_distance(&profile, None, &p5, None).unwrap();
            assert_eq!(empty, 0.0, "an empty prefix constrains nothing");

            // Feed every edge of r3; the bound must stay a lower bound and
            // never decrease.
            let mut last = 0.0;
            for (from, to) in [("1", "2"), ("2", "3"), ("3", "6"), ("6", "7")] {
                profile.record_edge(&spec, &l(from), &l(to)).unwrap();
                let bound = engine.prefix_distance(&profile, None, &p5, None).unwrap();
                assert!(bound >= last, "bound decreased under {}", cost.name());
                assert!(bound <= exact + 1e-9, "bound exceeds the distance under {}", cost.name());
                last = bound;
            }
            // r3's branch edges 2->3 and 3->6 are absent from r5: two surplus
            // leaves must be deleted.
            assert!(last > 0.0, "a genuinely divergent prefix must have a positive bound");

            // With the completed run, the bound is the exact distance.
            let finalised = engine.prefix_distance(&profile, Some(&p3), &p5, None).unwrap();
            assert_eq!(finalised, exact);
            assert!(finalised >= last);
        }
    }

    #[test]
    fn unit_cost_charges_one_deletion_path_for_many_surplus_leaves() {
        // Under unit cost a single elementary deletion can remove arbitrarily
        // many leaves for cost 1, so the certified bound for D surplus leaves
        // is exactly 1 (never D) — the additive DP must not over-claim.
        let spec = fig2_specification();
        let r5 = single_branch_run(&spec, "5");
        let engine = WorkflowDiff::new(&spec, &UnitCost);
        let p5 = engine.prepare(&r5, None).unwrap();
        let mut profile = PrefixProfile::new(&spec);
        for _ in 0..4 {
            profile.record_edge(&spec, &l("2"), &l("3")).unwrap();
            profile.record_edge(&spec, &l("3"), &l("6")).unwrap();
        }
        let bound = engine.prefix_distance(&profile, None, &p5, None).unwrap();
        assert_eq!(bound, 1.0, "unit-cost deletions are 1 per path, not per leaf");
    }

    #[test]
    fn length_cost_bound_counts_every_surplus_leaf() {
        // Under the length cost γ_min(l) = l, so f(D) = D: every surplus leaf
        // costs one edge of deleted path.
        let spec = fig2_specification();
        let r5 = single_branch_run(&spec, "5");
        let engine = WorkflowDiff::new(&spec, &LengthCost);
        let p5 = engine.prepare(&r5, None).unwrap();
        let mut profile = PrefixProfile::new(&spec);
        for _ in 0..3 {
            profile.record_edge(&spec, &l("2"), &l("4")).unwrap();
            profile.record_edge(&spec, &l("4"), &l("6")).unwrap();
        }
        let bound = engine.prefix_distance(&profile, None, &p5, None).unwrap();
        assert_eq!(bound, 6.0);
    }

    #[test]
    fn stale_profile_is_rejected() {
        let spec = fig2_specification();
        let mut other = SpecificationBuilder::new("fig2");
        other.path(&["1", "2", "6", "7"]);
        let other = other.build().unwrap();
        let profile = PrefixProfile::new(&other);
        let r5 = single_branch_run(&spec, "5");
        let engine = WorkflowDiff::new(&spec, &UnitCost);
        let p5 = engine.prepare(&r5, None).unwrap();
        assert!(matches!(
            engine.prefix_distance(&profile, None, &p5, None),
            Err(DiffError::SpecVersionMismatch { .. })
        ));
    }
}
