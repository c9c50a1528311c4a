//! Shared experiment implementations for the benchmark harness.
//!
//! Every table and figure of the paper's evaluation section (Section VIII) has
//! a corresponding module here; the `src/bin` binaries print the same
//! rows/series the paper reports (and write CSV files), and the Criterion
//! benches in `benches/` time representative configurations.
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
//! use wfdiff_bench::batch::{generate_workload, BatchConfig};
//! use wfdiff_bench::time_ms;
//!
//! let (value, elapsed_ms) = time_ms(|| (0u64..1000).sum::<u64>());
//! assert_eq!(value, 499_500);
//! assert!(elapsed_ms >= 0.0);
//!
//! // A tiny Fig. 12-style collection: one specification, three runs.
//! let (spec, runs) = generate_workload(&BatchConfig::fig12(20, 3));
//! assert_eq!(runs.len(), 3);
//! assert!(runs.iter().all(|r| r.spec_name() == spec.name()));
//! ```

pub mod batch;
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
