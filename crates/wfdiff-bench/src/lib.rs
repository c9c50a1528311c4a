//! Shared experiment implementations for the benchmark harness.
//!
//! Every table and figure of the paper's evaluation section (Section VIII) has
//! a corresponding module here; the `src/bin` binaries print the same
//! rows/series the paper reports, each point's time the mean over its
//! samples, and write CSV files.  `similar_sweep` measures the metric index
//! in process and `crash_torture` checks crash recovery; the serving tier is
//! measured by the wfbench benchmark at the repository root.
//!
//! The defaults use fewer samples and smaller replication bounds than the
//! paper so that the full harness completes in minutes on a laptop; every
//! binary accepts arguments to scale the workload up to the paper's settings.
//!
//! # Example
//!
//! Every experiment builds on [`time_ms`] and a reproducible workload
//! generator:
//!
//! ```
//! use wfdiff_bench::fig12::{run, Fig12Config};
//! use wfdiff_bench::time_ms;
//!
//! let (value, elapsed_ms) = time_ms(|| (0u64..1000).sum::<u64>());
//! assert_eq!(value, 499_500);
//! assert!(elapsed_ms >= 0.0);
//!
//! // One point of the Fig. 12/13 sweep: 20-edge specifications, one sample.
//! let config =
//!     Fig12Config { spec_edges: vec![20], ratios: vec![1.0], samples: 1, ..Fig12Config::default() };
//! let points = run(&config);
//! assert_eq!(points.len(), 1);
//! assert!(points[0].avg_time_ms >= 0.0 && points[0].avg_distance >= 0.0);
//! ```

pub mod benchjson;
pub mod csvout;
pub mod events;
pub mod fig11;
pub mod fig12;
pub mod fig14;
pub mod fig16;
pub mod similar;
pub mod table1;
pub mod torture;

/// Measures the wall-clock time of a closure in milliseconds.
pub fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = std::time::Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64() * 1e3)
}
