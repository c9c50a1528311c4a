//! Exact-sweep vs metric-index nearest-run queries over one generated
//! store, in process (see [`wfdiff_bench::similar`]).  Prints the per-mode
//! latency and distance-evaluation table and writes `BENCH_similar.json`.
//!
//! ```text
//! similar_sweep [runs] [queries] [k] [seed]
//! ```
//!
//! Defaults: 5000 runs, 20 queries, k=10.  `similar_sweep 100000 20 10` is
//! the 10⁵-run acceptance sweep.
//!
//! Exits non-zero if any certified (ε = 0) answer differs from the exact
//! sweep, or if at 10⁴+ runs pruning saves fewer than 5x distance
//! evaluations.

use wfdiff_bench::benchjson::write_bench_json;
use wfdiff_bench::similar::{render_similar, run_similar, SimilarBenchConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let runs: usize = args.first().and_then(|s| s.parse().ok()).unwrap_or(5000);
    let queries: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(20);
    let k: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(10);

    let mut config = SimilarBenchConfig::new(runs, queries, k);
    if let Some(seed) = args.get(3).and_then(|s| s.parse().ok()) {
        config.seed = seed;
    }

    let report = run_similar(&config);
    print!("{}", render_similar(&report));
    write_bench_json("BENCH_similar.json", &report).expect("write BENCH_similar.json");
    eprintln!("wrote BENCH_similar.json");

    assert_eq!(report.mismatches, 0, "pruned /similar answers diverged from the exact sweep");
    if runs >= 10_000 {
        assert!(
            report.eval_reduction >= 5.0,
            "pruning saved only {:.2}x distance evaluations at {runs} runs (need >= 5x)",
            report.eval_reduction
        );
    }
}
