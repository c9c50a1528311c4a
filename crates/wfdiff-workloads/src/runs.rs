//! Random run generation with the paper's workload parameters.
//!
//! Section VIII controls run generation with five parameters:
//!
//! * `probP` — the probability that each parallel branch of the specification
//!   is taken by the run,
//! * `maxF`, `probF` — a fork execution replicates up to `maxF` copies, each
//!   retained with probability `probF` (so `maxF · probF` is the expected
//!   number of copies),
//! * `maxL`, `probL` — the same for loop iterations.
//!
//! At least one branch, one copy and one iteration are always retained, since
//! the execution semantics require it.

use rand::Rng;
use rand_chacha::ChaCha8Rng;
use wfdiff_sptree::{ExecutionDecider, Run, Specification};

/// Parameters of the random run generator.
#[derive(Debug, Clone, Copy)]
pub struct RunGenConfig {
    /// Probability that each parallel branch is executed (`probP`).
    pub prob_p: f64,
    /// Maximum number of fork copies (`maxF`).
    pub max_f: usize,
    /// Probability that each candidate fork copy is executed (`probF`).
    pub prob_f: f64,
    /// Maximum number of loop iterations (`maxL`).
    pub max_l: usize,
    /// Probability that each candidate loop iteration is executed (`probL`).
    pub prob_l: f64,
}

impl Default for RunGenConfig {
    fn default() -> Self {
        RunGenConfig { prob_p: 0.95, max_f: 1, prob_f: 1.0, max_l: 1, prob_l: 1.0 }
    }
}

/// An [`ExecutionDecider`] driven by a random-number generator and a
/// [`RunGenConfig`].
pub struct RandomDecider<'a, R: Rng> {
    config: RunGenConfig,
    rng: &'a mut R,
}

impl<'a, R: Rng> RandomDecider<'a, R> {
    /// Creates a random decider.
    pub fn new(config: RunGenConfig, rng: &'a mut R) -> Self {
        RandomDecider { config, rng }
    }

    fn replicate(&mut self, max: usize, prob: f64) -> usize {
        let mut count = 0usize;
        for _ in 0..max.max(1) {
            if self.rng.gen_bool(prob.clamp(0.0, 1.0)) {
                count += 1;
            }
        }
        count.max(1)
    }
}

impl<'a, R: Rng> ExecutionDecider for RandomDecider<'a, R> {
    fn parallel_subset(&mut self, n: usize) -> Vec<bool> {
        let mut mask: Vec<bool> =
            (0..n).map(|_| self.rng.gen_bool(self.config.prob_p.clamp(0.0, 1.0))).collect();
        if !mask.iter().any(|&b| b) {
            let idx = self.rng.gen_range(0..n.max(1));
            if n > 0 {
                mask[idx] = true;
            }
        }
        mask
    }

    fn fork_copies(&mut self, _control_id: usize) -> usize {
        self.replicate(self.config.max_f, self.config.prob_f)
    }

    fn loop_iterations(&mut self, _control_id: usize) -> usize {
        self.replicate(self.config.max_l, self.config.prob_l)
    }
}

/// Generates one random valid run of `spec`.
#[expect(
    clippy::expect_used,
    reason = "executions produced by Specification::execute are valid runs of that spec by construction"
)]
pub fn generate_run(spec: &Specification, config: &RunGenConfig, rng: &mut impl Rng) -> Run {
    let mut decider = RandomDecider::new(*config, rng);
    spec.execute(&mut decider).expect("random executions are valid runs")
}

/// Generates a run whose size (in edges) is as close as possible to
/// `target_edges`, by scaling the fork/loop replication factors (used by the
/// Figure 11 experiment, which sweeps the total size of the two runs from 200
/// to 2000 edges).
#[expect(
    clippy::expect_used,
    reason = "the generation loop runs at least once (count is validated non-zero on entry)"
)]
pub fn generate_run_with_target_edges(spec: &Specification, target_edges: usize, seed: u64) -> Run {
    let mut best: Option<Run> = None;
    let mut best_gap = usize::MAX;
    // Increase the replication budget until the run is large enough (or the
    // budget becomes clearly excessive).
    for max_rep in 1..=64usize {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (max_rep as u64).wrapping_mul(0x9E37_79B9));
        let config =
            RunGenConfig { prob_p: 0.95, max_f: max_rep, prob_f: 0.7, max_l: max_rep, prob_l: 0.7 };
        let run = generate_run(spec, &config, &mut rng);
        let gap = run.edge_count().abs_diff(target_edges);
        if gap < best_gap {
            best_gap = gap;
            best = Some(run);
        }
        if best_gap == 0 || best.as_ref().map(|r| r.edge_count()).unwrap_or(0) > target_edges {
            break;
        }
    }
    best.expect("at least one run is generated")
}

/// Generates `families` groups of `per_family` runs each: every family
/// repeats one randomly generated base run, so within-family edit distances
/// are zero while cross-family distances reflect genuinely different
/// executions.
///
/// This is the reference workload for run-clustering experiments: the
/// natural clustering (one cluster per family) is unambiguous, so an
/// incremental clusterer and a from-scratch one must both recover it.
pub fn generate_run_families(
    spec: &Specification,
    config: &RunGenConfig,
    families: usize,
    per_family: usize,
    rng: &mut impl Rng,
) -> Vec<Vec<Run>> {
    (0..families)
        .map(|_| {
            let base = generate_run(spec, config, rng);
            (0..per_family).map(|_| base.clone()).collect()
        })
        .collect()
}

use rand::SeedableRng;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::fig2_specification;
    use crate::real::real_workflows;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use wfdiff_sptree::Run;

    #[test]
    fn run_families_repeat_their_base_run() {
        let spec = fig2_specification();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let config = RunGenConfig { prob_p: 0.6, max_f: 2, prob_f: 0.5, max_l: 2, prob_l: 0.5 };
        let families = generate_run_families(&spec, &config, 3, 4, &mut rng);
        assert_eq!(families.len(), 3);
        for family in &families {
            assert_eq!(family.len(), 4);
            for run in family {
                assert!(run.tree().equivalent(family[0].tree()), "family members are identical");
            }
        }
    }

    #[test]
    fn generated_runs_are_valid_and_replayable() {
        let spec = fig2_specification();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for _ in 0..20 {
            let config = RunGenConfig { prob_p: 0.7, max_f: 3, prob_f: 0.6, max_l: 3, prob_l: 0.6 };
            let run = generate_run(&spec, &config, &mut rng);
            // Replaying the generated graph through Algorithm 2/5 must yield an
            // equivalent annotated tree.
            let replayed = Run::from_graph(&spec, run.graph().clone()).unwrap();
            assert!(run.tree().equivalent(replayed.tree()));
        }
    }

    #[test]
    fn probabilities_scale_run_sizes() {
        let spec = fig2_specification();
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let small: usize = (0..10)
            .map(|_| {
                generate_run(
                    &spec,
                    &RunGenConfig { prob_p: 0.2, max_f: 2, prob_f: 0.2, max_l: 2, prob_l: 0.2 },
                    &mut rng,
                )
                .edge_count()
            })
            .sum();
        let large: usize = (0..10)
            .map(|_| {
                generate_run(
                    &spec,
                    &RunGenConfig { prob_p: 1.0, max_f: 6, prob_f: 0.9, max_l: 6, prob_l: 0.9 },
                    &mut rng,
                )
                .edge_count()
            })
            .sum();
        assert!(large > small, "larger replication parameters must produce larger runs");
    }

    #[test]
    fn target_size_generation_approaches_the_target() {
        for wf in real_workflows().into_iter().take(3) {
            let spec = wf.specification();
            for &target in &[100usize, 300] {
                let run = generate_run_with_target_edges(&spec, target, 42);
                let gap = run.edge_count().abs_diff(target);
                assert!(
                    gap <= target / 2 + 20,
                    "{}: run of {} edges is too far from the target {}",
                    wf.name,
                    run.edge_count(),
                    target
                );
            }
        }
    }

    #[test]
    fn minimum_one_branch_copy_iteration() {
        let spec = fig2_specification();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let run = generate_run(
            &spec,
            &RunGenConfig { prob_p: 0.0, max_f: 1, prob_f: 0.0, max_l: 1, prob_l: 0.0 },
            &mut rng,
        );
        // Even with zero probabilities the run is a single valid path.
        assert!(run.edge_count() >= 4);
        assert!(Run::from_graph(&spec, run.graph().clone()).is_ok());
    }
}
