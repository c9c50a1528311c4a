//! Machine-readable `BENCH_*.json` output for the perf-tracking CI job.
//!
//! Every perf binary (`batch_diff`, `load_gen` in its mixed, `cluster`,
//! `similar` and `stream` modes) writes, next to its human-readable table
//! and CSV, one JSON document named `BENCH_<experiment>.json` that CI
//! uploads as a per-commit artifact (`BENCH_batch_diff.json`,
//! `BENCH_serve.json`, `BENCH_cluster.json`, `BENCH_similar.json`,
//! `BENCH_stream.json`).  The
//! documents are flat, stable-keyed and self-describing so that the perf
//! trajectory can be charted across commits without parsing tables.
//!
//! `BENCH_serve.json` is shared by two experiments — `load_gen`'s mixed and
//! sharded modes — as one object with a member per mode
//! (`{"mixed": …, "sharded": …}`), merged by [`merge_serve_bench_json`].

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

/// The merged shape of `BENCH_serve.json`: one member per `load_gen` mode,
/// each present once its experiment has run.
#[derive(Debug, Default, Serialize, serde::Deserialize)]
pub struct ServeBenchDoc {
    /// The mixed-traffic report (`load_gen`).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub mixed: Option<crate::loadgen::ServeBenchReport>,
    /// The shard-scaling report (`load_gen sharded`).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub sharded: Option<crate::loadgen::ShardedBenchReport>,
}

/// Read-modify-write on the shared `BENCH_serve.json`: loads the existing
/// document (a file that is missing or unreadable starts over empty),
/// applies `update` and writes the result back — so the mixed and sharded
/// experiments never clobber each other's member.
pub fn merge_serve_bench_json(
    path: impl AsRef<Path>,
    update: impl FnOnce(&mut ServeBenchDoc),
) -> std::io::Result<()> {
    let path = path.as_ref();
    let mut doc = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| serde_json::from_str::<ServeBenchDoc>(&text).ok())
        .unwrap_or_default();
    update(&mut doc);
    write_bench_json(path, &doc)
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

    #[test]
    fn member_writes_merge_instead_of_clobbering() {
        let dir = std::env::temp_dir().join(format!("wfdiff-benchmember-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_serve.json");
        let mixed = crate::loadgen::ServeBenchReport {
            label: "m".into(),
            runs: 1,
            spec_edges: 2,
            requests_per_client: 3,
            server_threads: 4,
            mix: vec![1, 1, 1],
            rounds: Vec::new(),
        };
        let sharded = crate::loadgen::ShardedBenchReport {
            label: "s".into(),
            specs: 2,
            runs_per_spec: 3,
            spec_edges: 4,
            requests_per_client: 5,
            server_threads: 6,
            mix: vec![1, 2, 3],
            rounds: Vec::new(),
        };
        merge_serve_bench_json(&path, |d| d.mixed = Some(mixed.clone())).unwrap();
        merge_serve_bench_json(&path, |d| d.sharded = Some(sharded)).unwrap();
        // Re-writing one member leaves the other intact.
        let mut mixed2 = mixed;
        mixed2.runs = 9;
        merge_serve_bench_json(&path, |d| d.mixed = Some(mixed2)).unwrap();
        let doc: ServeBenchDoc =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(doc.mixed.as_ref().unwrap().runs, 9);
        assert_eq!(doc.sharded.as_ref().unwrap().label, "s");
        // A corrupt file starts over instead of erroring.
        std::fs::write(&path, "not json").unwrap();
        merge_serve_bench_json(&path, |_| {}).unwrap();
        let doc: ServeBenchDoc =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert!(doc.mixed.is_none() && doc.sharded.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }
}
