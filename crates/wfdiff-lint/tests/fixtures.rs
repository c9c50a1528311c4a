//! Fixture-driven rule tests: every rule fires on a known-bad source with
//! the right rule ID and position, and stays quiet on known-good look-alikes
//! (test modules, raw strings, comments, exempt paths).

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![allow(clippy::todo, clippy::unreachable, clippy::unimplemented)]

use wfdiff_lint::rules::SourceFile;
use wfdiff_lint::{check_sources, CheckConfig, Violation};

/// Parses `(rel_path, source)` pairs and checks them with no allowlist.
fn check(files: &[(&str, &str)]) -> Vec<Violation> {
    let parsed: Vec<SourceFile> =
        files.iter().map(|(path, src)| SourceFile::parse(*path, src)).collect();
    check_sources(&parsed, &[], &CheckConfig::default())
}

fn rules_of(vs: &[Violation]) -> Vec<&str> {
    vs.iter().map(|v| v.rule).collect()
}

// ---------------------------------------------------------------------------
// WFL001 — io-discipline
// ---------------------------------------------------------------------------

#[test]
fn wfl001_flags_direct_fs_calls_in_durability_modules() {
    let src = "use std::fs;\n\
               pub fn save(p: &std::path::Path) -> std::io::Result<()> {\n\
               \x20   fs::write(p, b\"x\")\n\
               }\n";
    let vs = check(&[("crates/x/src/wal.rs", src)]);
    assert_eq!(vs.len(), 1, "{vs:?}");
    assert_eq!((vs[0].rule, vs[0].line, vs[0].col), ("WFL001", 3, 5), "{vs:?}");
    assert!(vs[0].message.contains("fs::write"), "{}", vs[0].message);
}

#[test]
fn wfl001_flags_file_create_and_openoptions() {
    let src = "pub fn f() {\n\
               \x20   let _a = std::fs::File::create(\"a\");\n\
               \x20   let _b = std::fs::OpenOptions::new();\n\
               }\n";
    let vs = check(&[("crates/x/src/persist.rs", src)]);
    // `fs::File` is not itself a call, but `File::create` and
    // `OpenOptions::new` both are.
    assert_eq!(rules_of(&vs), vec!["WFL001", "WFL001"], "{vs:?}");
    assert!(vs[0].message.contains("File::create"), "{}", vs[0].message);
    assert!(vs[1].message.contains("OpenOptions::new"), "{}", vs[1].message);
}

#[test]
fn wfl001_exempts_storeio_and_non_durability_modules() {
    let src = "pub fn f() { let _ = std::fs::File::create(\"a\"); }\n";
    assert!(check(&[("crates/x/src/storeio.rs", src)]).is_empty());
    assert!(check(&[("crates/x/src/render.rs", src)]).is_empty());
}

#[test]
fn wfl001_ignores_test_regions() {
    let src = "#[cfg(test)]\n\
               mod tests {\n\
               \x20   #[test]\n\
               \x20   fn t() { std::fs::write(\"a\", b\"x\").unwrap(); }\n\
               }\n";
    assert!(check(&[("crates/x/src/wal.rs", src)]).is_empty());
}

#[test]
fn wfl001_ignores_raw_strings_and_comments() {
    let src = "//! Docs mentioning fs::write(p) are fine.\n\
               pub fn f() -> &'static str {\n\
               \x20   // a comment saying fs::remove_file(\"x\") is fine\n\
               \x20   r\"call fs::rename(a, b) here\"\n\
               }\n";
    assert!(check(&[("crates/x/src/wal.rs", src)]).is_empty());
}

// ---------------------------------------------------------------------------
// WFL002 — lock-order
// ---------------------------------------------------------------------------

#[test]
fn wfl002_flags_specs_acquired_under_runs() {
    let src = "impl S {\n\
               \x20   fn bad(&self) {\n\
               \x20       let r = self.runs.read();\n\
               \x20       let s = self.specs.read();\n\
               \x20       drop((r, s));\n\
               \x20   }\n\
               }\n";
    let vs = check(&[("crates/wfdiff-pdiffview/src/store.rs", src)]);
    assert_eq!(vs.len(), 1, "{vs:?}");
    assert_eq!((vs[0].rule, vs[0].line), ("WFL002", 4), "{vs:?}");
    assert!(vs[0].message.contains("`specs`") && vs[0].message.contains("`runs`"));
}

#[test]
fn wfl002_accepts_ordered_and_sequentially_relocked_acquisition() {
    let src = "impl S {\n\
               \x20   fn good(&self) {\n\
               \x20       let _g = self.save_lock.lock();\n\
               \x20       { let _s = self.specs.write(); }\n\
               \x20       { let _r = self.runs.read(); }\n\
               \x20       { let _r = self.runs.read(); }\n\
               \x20       let _c = self.persist_fp_cache.lock();\n\
               \x20   }\n\
               }\n";
    assert!(check(&[("crates/wfdiff-pdiffview/src/store.rs", src)]).is_empty());
}

#[test]
fn wfl002_resets_at_function_boundaries_and_skips_other_crates() {
    let per_fn = "impl S {\n\
                  \x20   fn a(&self) { let _r = self.runs.read(); }\n\
                  \x20   fn b(&self) { let _s = self.specs.read(); }\n\
                  }\n";
    assert!(check(&[("crates/wfdiff-pdiffview/src/service.rs", per_fn)]).is_empty());
    let inverted = "fn f(s: &S) { let _r = s.runs.read(); let _x = s.specs.read(); }\n";
    assert!(check(&[("crates/wfdiff-core/src/lib.rs", inverted)]).is_empty());
}

// ---------------------------------------------------------------------------
// WFL004 — metrics-naming
// ---------------------------------------------------------------------------

#[test]
fn wfl004_flags_bad_prefix_missing_suffix_and_duplicates() {
    let src = "pub fn render(out: &mut String) {\n\
               \x20   head(out, \"shard_requests_total\", \"counter\", \"h\");\n\
               \x20   counter_head_sample(out, \"wfdiff_requests\", \"h\", 1);\n\
               \x20   gauge_head_sample(out, \"wfdiff_up\", \"h\", 1);\n\
               \x20   gauge_head_sample(out, \"wfdiff_up\", \"h\", 1);\n\
               }\n";
    let vs = check(&[("crates/x/src/serve/metrics.rs", src)]);
    let msgs: Vec<&str> = vs.iter().map(|v| v.message.as_str()).collect();
    assert_eq!(rules_of(&vs), vec!["WFL004"; 3], "{vs:?}");
    assert!(msgs.iter().any(|m| m.contains("does not match wfdiff_")), "{msgs:?}");
    assert!(msgs.iter().any(|m| m.contains("must end with `_total`")), "{msgs:?}");
    assert!(msgs.iter().any(|m| m.contains("registered more than once")), "{msgs:?}");
}

#[test]
fn wfl004_accepts_a_compliant_registry_and_skips_non_serve_files() {
    let good = "pub fn render(out: &mut String) {\n\
                \x20   counter_head_sample(out, \"wfdiff_requests_total\", \"h\", 1);\n\
                \x20   gauge_head_sample(out, \"wfdiff_shard_count\", \"h\", 1);\n\
                \x20   head(out, \"wfdiff_latency_seconds\", \"histogram\", \"h\");\n\
                }\n";
    assert!(check(&[("crates/x/src/serve/metrics.rs", good)]).is_empty());
    let bad_elsewhere = "pub fn f(out: &mut String) { head(out, \"oops\", \"counter\", \"h\"); }\n";
    assert!(check(&[("crates/x/src/render.rs", bad_elsewhere)]).is_empty());
}

#[test]
fn wfl004_covers_the_similar_query_counters() {
    // The metric-index counters ship under these exact names; keep the rule
    // accepting them and still firing on the obvious near-misses (a dropped
    // `_total`, a second registration).
    let good = "pub fn render(out: &mut String) {\n\
                \x20   counter_head_sample(out, \"wfdiff_similar_pruned_total\", \"h\", 1);\n\
                \x20   counter_head_sample(out, \"wfdiff_similar_distance_evals_total\", \"h\", 1);\n\
                }\n";
    assert!(check(&[("crates/x/src/serve/metrics.rs", good)]).is_empty());

    let bad = "pub fn render(out: &mut String) {\n\
               \x20   counter_head_sample(out, \"wfdiff_similar_distance_evals\", \"h\", 1);\n\
               \x20   counter_head_sample(out, \"wfdiff_similar_pruned_total\", \"h\", 1);\n\
               \x20   counter_head_sample(out, \"wfdiff_similar_pruned_total\", \"h\", 1);\n\
               }\n";
    let vs = check(&[("crates/x/src/serve/metrics.rs", bad)]);
    assert_eq!(rules_of(&vs), vec!["WFL004"; 2], "{vs:?}");
    assert!(vs[0].message.contains("must end with `_total`"), "{}", vs[0].message);
    assert!(vs[1].message.contains("registered more than once"), "{}", vs[1].message);
}

#[test]
fn wfl004_covers_the_streaming_counters() {
    // The streaming-ingestion counters ship under these exact names; keep
    // the rule accepting them and still firing on the obvious near-misses
    // (a dropped `_total`, a second registration).
    let good = "pub fn render(out: &mut String) {\n\
                \x20   counter_head_sample(out, \"wfdiff_stream_events_total\", \"h\", 1);\n\
                \x20   counter_head_sample(out, \"wfdiff_drift_flags_total\", \"h\", 1);\n\
                }\n";
    assert!(check(&[("crates/x/src/serve/metrics.rs", good)]).is_empty());

    let bad = "pub fn render(out: &mut String) {\n\
               \x20   counter_head_sample(out, \"wfdiff_drift_flags\", \"h\", 1);\n\
               \x20   counter_head_sample(out, \"wfdiff_stream_events_total\", \"h\", 1);\n\
               \x20   counter_head_sample(out, \"wfdiff_stream_events_total\", \"h\", 1);\n\
               }\n";
    let vs = check(&[("crates/x/src/serve/metrics.rs", bad)]);
    assert_eq!(rules_of(&vs), vec!["WFL004"; 2], "{vs:?}");
    assert!(vs[0].message.contains("must end with `_total`"), "{}", vs[0].message);
    assert!(vs[1].message.contains("registered more than once"), "{}", vs[1].message);
}
