//! Machine-readable `BENCH_*.json` output of the in-process perf binaries.
//!
//! `batch_diff` and `similar_sweep` each write, next to their human-readable
//! table, one JSON document named `BENCH_<experiment>.json`
//! (`BENCH_batch_diff.json`, `BENCH_similar.json`); CI uploads the batch
//! document as a per-commit artifact.  The documents are flat, stable-keyed
//! and self-describing so that results can be compared across commits
//! without parsing tables.  The served endpoints are measured by the wfbench
//! benchmark instead, whose last stdout line is the JSON document the CI
//! regression gate compares.

use crate::batch::BatchReport;
use serde::Serialize;
use std::io::Write;
use std::path::Path;

/// JSON shape of one [`crate::batch::BatchPoint`].
#[derive(Debug, Serialize)]
pub struct BatchPointJson {
    /// Worker-pool size.
    pub threads: usize,
    /// Cold-cache `diff_all_pairs` wall time (ms).
    pub cold_ms: f64,
    /// Warm-cache `diff_all_pairs` wall time (ms).
    pub warm_ms: f64,
    /// Serial-baseline / cold speedup.
    pub cold_speedup: f64,
    /// Serial-baseline / warm speedup.
    pub warm_speedup: f64,
    /// Cache hits after the warm pass.
    pub cache_hits: u64,
    /// Cache misses after the warm pass.
    pub cache_misses: u64,
    /// Cache hit rate after the warm pass.
    pub hit_rate: f64,
}

/// JSON shape of one [`BatchReport`].
#[derive(Debug, Serialize)]
pub struct BatchReportJson {
    /// Workload label.
    pub workload: String,
    /// Number of runs in the collection.
    pub runs: usize,
    /// Number of distinct unordered pairs.
    pub pairs: usize,
    /// Serial unmemoised baseline (ms).
    pub serial_ms: f64,
    /// Whether every service distance equalled the baseline.
    pub distances_match: bool,
    /// One entry per measured thread count.
    pub points: Vec<BatchPointJson>,
}

impl From<&BatchReport> for BatchReportJson {
    fn from(report: &BatchReport) -> Self {
        BatchReportJson {
            workload: report.label.clone(),
            runs: report.runs,
            pairs: report.pairs,
            serial_ms: report.serial_ms,
            distances_match: report.distances_match,
            points: report
                .points
                .iter()
                .map(|p| BatchPointJson {
                    threads: p.threads,
                    cold_ms: p.cold_ms,
                    warm_ms: p.warm_ms,
                    cold_speedup: report.serial_ms / p.cold_ms,
                    warm_speedup: report.serial_ms / p.warm_ms,
                    cache_hits: p.cache.hits,
                    cache_misses: p.cache.misses,
                    hit_rate: p.cache.hit_rate(),
                })
                .collect(),
        }
    }
}

/// Serialises `value` pretty-printed into `path` (with a trailing newline).
pub fn write_bench_json<T: Serialize>(path: impl AsRef<Path>, value: &T) -> std::io::Result<()> {
    let json = serde_json::to_string_pretty(value)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    let mut file = std::fs::File::create(path)?;
    file.write_all(json.as_bytes())?;
    file.write_all(b"\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchConfig;

    #[test]
    fn batch_report_serialises_to_stable_keys() {
        let mut config = BatchConfig::fig12(30, 4);
        config.threads = vec![1];
        let report = crate::batch::run(&config);
        let json = serde_json::to_string_pretty(&BatchReportJson::from(&report)).unwrap();
        for key in ["workload", "serial_ms", "cold_speedup", "hit_rate", "distances_match"] {
            assert!(json.contains(&format!("\"{key}\"")), "missing {key} in {json}");
        }
        let dir = std::env::temp_dir().join(format!("wfdiff-benchjson-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_batch_diff.json");
        write_bench_json(&path, &BatchReportJson::from(&report)).unwrap();
        assert!(std::fs::read_to_string(&path).unwrap().ends_with("}\n"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
