//! The `similar_sweep` experiment: exact-sweep vs metric-index
//! nearest-run queries over a synthetic store scaled to 10⁵+ runs, in
//! process.
//!
//! The scenario is the metric-index acceptance test: one specification, a
//! large collection of generated runs, and `queries` nearest-neighbour
//! lookups answered three ways —
//!
//! 1. **exact** — [`DiffService::nearest_runs`], the O(n) sweep,
//! 2. **pruned** — [`DiffService::nearest_runs_pruned`] with `ε = 0`
//!    (certified: the answer must equal the sweep bit for bit, ordering and
//!    tie-breaks included; any divergence counts in
//!    [`SimilarBenchReport::mismatches`]),
//! 3. **approx** — the same pruned path with the configured `ε`, whose
//!    recall against the exact top-`k` is reported.
//!
//! Alongside per-mode latency percentiles the report records **distance
//! evaluations** — the number of edit-distance computations each mode asked
//! the oracle for — because that, not wall time over a warm cache, is what
//! the triangle-inequality pruning actually saves:
//! [`SimilarBenchReport::eval_reduction`] is the exact/pruned ratio the
//! `similar_sweep` binary checks (≥ 5x at 10⁴+ runs).  The served `/similar`
//! endpoint is measured end to end by wfbench's `analyze` workload.
//!
//! [`DiffService::nearest_runs`]: wfdiff_pdiffview::DiffService::nearest_runs
//! [`DiffService::nearest_runs_pruned`]: wfdiff_pdiffview::DiffService::nearest_runs_pruned

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;
use wfdiff_pdiffview::{DiffService, PairDistance, WorkflowStore};
use wfdiff_workloads::generator::{random_specification, SpecGenConfig};
use wfdiff_workloads::runs::{generate_run, RunGenConfig};

/// Configuration of one `similar_sweep` experiment.
#[derive(Debug, Clone)]
pub struct SimilarBenchConfig {
    /// Workload label for the report.
    pub label: String,
    /// Number of runs in the served collection.
    pub runs: usize,
    /// Number of query runs measured (drawn seeded from the collection).
    pub queries: usize,
    /// Neighbours requested per query.
    pub k: usize,
    /// Specification size in edges (small on purpose: the diff cache
    /// absorbs duplicate run shapes, so the collection scales to 10⁵+).
    pub spec_edges: usize,
    /// The ε of the approximate pass.
    pub approx_epsilon: f64,
    /// RNG seed (store generation and query selection).
    pub seed: u64,
}

impl SimilarBenchConfig {
    /// The default similar-query workload.
    pub fn new(runs: usize, queries: usize, k: usize) -> Self {
        SimilarBenchConfig {
            label: format!("similar(r={runs},q={queries},k={k})"),
            runs,
            queries,
            k,
            spec_edges: 12,
            approx_epsilon: 0.25,
            seed: 0x51A1,
        }
    }
}

/// Latency percentiles and evaluation counts of one query mode.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimilarModeStats {
    /// Mode name (`exact`, `pruned` or `approx`).
    pub mode: String,
    /// Queries measured.
    pub count: usize,
    /// Median latency in microseconds.
    pub p50_us: u64,
    /// 90th-percentile latency in microseconds.
    pub p90_us: u64,
    /// 99th-percentile latency in microseconds.
    pub p99_us: u64,
    /// Worst observed latency in microseconds.
    pub max_us: u64,
    /// Edit-distance evaluations across all queries of this mode.
    pub distance_evals: u64,
}

/// The full report of one `similar_sweep` experiment
/// (`BENCH_similar.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimilarBenchReport {
    /// Workload label.
    pub label: String,
    /// Number of runs in the collection.
    pub runs: usize,
    /// Neighbours requested per query.
    pub k: usize,
    /// Queries measured per mode.
    pub queries: usize,
    /// Wall time of the one-off vantage-point-tree build (ms), paid by the
    /// first pruned query and amortised across the rest.
    pub build_ms: f64,
    /// The exact O(n) sweep.
    pub exact: SimilarModeStats,
    /// The certified pruned mode (`ε = 0`).
    pub pruned: SimilarModeStats,
    /// The approximate mode.
    pub approx: SimilarModeStats,
    /// The ε of the approximate pass.
    pub approx_epsilon: f64,
    /// Exact-sweep evaluations divided by pruned-mode evaluations — the
    /// number `similar_sweep` checks (≥ 5x at 10⁴+ runs).
    pub eval_reduction: f64,
    /// Pruned answers that diverged from the exact sweep (must be 0).
    pub mismatches: usize,
    /// Fraction of the exact top-`k` the approximate answers recovered.
    pub approx_recall: f64,
}

/// Index into a **sorted** latency vector at percentile `p`.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn mode_stats(mode: &str, mut latencies: Vec<u64>, distance_evals: u64) -> SimilarModeStats {
    latencies.sort_unstable();
    SimilarModeStats {
        mode: mode.to_string(),
        count: latencies.len(),
        p50_us: percentile(&latencies, 50.0),
        p90_us: percentile(&latencies, 90.0),
        p99_us: percentile(&latencies, 99.0),
        max_us: latencies.last().copied().unwrap_or(0),
        distance_evals,
    }
}

/// Two neighbour lists match when every rank agrees on both the run name
/// and the distance — the certified-pruning contract.
fn lists_match(a: &[PairDistance], b: &[PairDistance]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| x.target == y.target && x.distance == y.distance)
}

/// Runs the experiment: builds the store, measures every mode, checks the
/// certified answers against the sweep.
pub fn run_similar(config: &SimilarBenchConfig) -> SimilarBenchReport {
    let spec_name = "similar_bench";
    let store = Arc::new(WorkflowStore::new());
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let spec = random_specification(
        spec_name,
        &SpecGenConfig {
            target_edges: config.spec_edges,
            series_parallel_ratio: 1.0,
            forks: 2,
            loops: 1,
        },
        &mut rng,
    );
    let spec = store.insert_spec(spec).expect("insert generated specification");
    let run_config = RunGenConfig { prob_p: 0.85, max_f: 2, prob_f: 0.5, max_l: 2, prob_l: 0.5 };
    for r in 0..config.runs {
        store
            .insert_run(&format!("run{r:06}"), generate_run(&spec, &run_config, &mut rng))
            .expect("insert generated run");
    }
    let service = DiffService::new(Arc::clone(&store));

    let queries: Vec<String> =
        (0..config.queries).map(|_| format!("run{:06}", rng.gen_range(0..config.runs))).collect();
    let first = queries.first().cloned().unwrap_or_else(|| "run000000".to_string());

    // Untimed warm-up: one exact sweep fills the diff cache for the query
    // row, one pruned query pays the one-off tree build (reported
    // separately so per-query latencies compare steady states).
    service.nearest_runs(spec_name, &first, config.k).expect("warm-up exact query");
    let build_start = Instant::now();
    service
        .nearest_runs_pruned(spec_name, &first, config.k, 0.0)
        .expect("warm-up pruned query (tree build)");
    let build_ms = build_start.elapsed().as_secs_f64() * 1e3;

    let mut exact_lat = Vec::with_capacity(queries.len());
    let mut pruned_lat = Vec::with_capacity(queries.len());
    let mut approx_lat = Vec::with_capacity(queries.len());
    let (mut exact_evals, mut pruned_evals, mut approx_evals) = (0u64, 0u64, 0u64);
    let mut mismatches = 0usize;
    let (mut recall_hits, mut recall_total) = (0usize, 0usize);

    for query in &queries {
        let start = Instant::now();
        let exact = service.nearest_runs(spec_name, query, config.k).expect("exact query");
        exact_lat.push(start.elapsed().as_micros() as u64);
        exact_evals += (config.runs - 1) as u64;

        let start = Instant::now();
        let (pruned, stats) =
            service.nearest_runs_pruned(spec_name, query, config.k, 0.0).expect("pruned query");
        pruned_lat.push(start.elapsed().as_micros() as u64);
        pruned_evals += stats.distance_evals as u64;
        if !lists_match(&exact, &pruned) {
            mismatches += 1;
        }

        let start = Instant::now();
        let (approx, stats) = service
            .nearest_runs_pruned(spec_name, query, config.k, config.approx_epsilon)
            .expect("approx query");
        approx_lat.push(start.elapsed().as_micros() as u64);
        approx_evals += stats.distance_evals as u64;
        let exact_names: std::collections::HashSet<&str> =
            exact.iter().map(|p| p.target.as_str()).collect();
        recall_total += exact.len();
        recall_hits += approx.iter().filter(|p| exact_names.contains(p.target.as_str())).count();
    }

    SimilarBenchReport {
        label: config.label.clone(),
        runs: config.runs,
        k: config.k,
        queries: queries.len(),
        build_ms,
        exact: mode_stats("exact", exact_lat, exact_evals),
        pruned: mode_stats("pruned", pruned_lat, pruned_evals),
        approx: mode_stats("approx", approx_lat, approx_evals),
        approx_epsilon: config.approx_epsilon,
        eval_reduction: if pruned_evals == 0 {
            f64::INFINITY
        } else {
            exact_evals as f64 / pruned_evals as f64
        },
        mismatches,
        approx_recall: if recall_total == 0 {
            1.0
        } else {
            recall_hits as f64 / recall_total as f64
        },
    }
}

/// Renders the report as an aligned human-readable table.
pub fn render_similar(report: &SimilarBenchReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "similar queries: {} ({} run(s), k={}, {} quer(ies); tree build {:.1} ms)\n",
        report.label, report.runs, report.k, report.queries, report.build_ms
    ));
    out.push_str(&format!(
        "  {:<8} {:>8} {:>8} {:>8} {:>8} {:>14}\n",
        "mode", "p50_us", "p90_us", "p99_us", "max_us", "distance_evals"
    ));
    for mode in [&report.exact, &report.pruned, &report.approx] {
        out.push_str(&format!(
            "  {:<8} {:>8} {:>8} {:>8} {:>8} {:>14}\n",
            mode.mode, mode.p50_us, mode.p90_us, mode.p99_us, mode.max_us, mode.distance_evals
        ));
    }
    out.push_str(&format!(
        "  eval reduction {:.1}x, {} mismatch(es), approx(ε={}) recall {:.3}\n",
        report.eval_reduction, report.mismatches, report.approx_epsilon, report.approx_recall
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_similar_bench_is_exact_and_saves_evals() {
        let mut config = SimilarBenchConfig::new(300, 4, 5);
        config.seed = 7;
        let report = run_similar(&config);
        assert_eq!(report.mismatches, 0, "pruned answers diverged from the sweep");
        assert_eq!(report.exact.count, 4);
        assert!(report.pruned.distance_evals < report.exact.distance_evals);
        assert!(report.approx_recall > 0.0);
        let rendered = render_similar(&report);
        assert!(rendered.contains("eval reduction"));
    }
}
