//! Machine-readable `BENCH_*.json` output of the in-process perf binaries.
//!
//! `similar_sweep` and `crash_torture` each write, next to their
//! human-readable report, one JSON document named `BENCH_<experiment>.json`
//! (`BENCH_similar.json`, `BENCH_crash_torture.json`); CI uploads the
//! crash-torture document as a per-commit artifact.  The documents are flat,
//! stable-keyed and self-describing so that results can be compared across
//! commits without parsing tables.  The served endpoints are measured by the
//! wfbench benchmark instead, whose last stdout line is the JSON document the
//! CI regression gate compares.

use serde::Serialize;
use std::io::Write;
use std::path::Path;

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

    #[test]
    fn bench_documents_are_pretty_printed_with_a_trailing_newline() {
        #[derive(Serialize)]
        struct Doc {
            experiment: &'static str,
            value: f64,
        }
        let dir = std::env::temp_dir().join(format!("wfdiff-benchjson-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_test.json");
        write_bench_json(&path, &Doc { experiment: "test", value: 1.5 }).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"experiment\": \"test\""), "{text}");
        assert!(text.ends_with("}\n"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
