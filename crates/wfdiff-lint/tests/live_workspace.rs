//! Self-test against the real workspace, plus end-to-end runs of the
//! `wfdiff_lint` binary (exit codes, JSON report, rule listing).

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![allow(clippy::todo, clippy::unreachable, clippy::unimplemented)]

use std::path::{Path, PathBuf};
use std::process::Command;

use wfdiff_lint::{check_workspace, CheckConfig, RULES};

/// The workspace root: two levels above this crate's manifest.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2).expect("workspace root").to_owned()
}

#[test]
fn the_live_workspace_is_clean_under_the_checked_in_allowlist() {
    let violations =
        check_workspace(&workspace_root(), &CheckConfig::default()).expect("workspace scan");
    assert!(
        violations.is_empty(),
        "the tree must lint clean with lint_allow.toml; found:\n{}",
        wfdiff_lint::render_human(&violations)
    );
}

#[test]
fn every_allowlisted_rule_still_fires_when_denied() {
    // `--deny WFL001` must resurface the allowlisted read-side fs calls —
    // proof the allowlist is suppressing live findings, not matching nothing.
    let config = CheckConfig { denied_rules: vec!["WFL001".to_owned()], ..Default::default() };
    let violations = check_workspace(&workspace_root(), &config).expect("workspace scan");
    assert!(
        violations.iter().any(|v| v.rule == "WFL001"),
        "denying WFL001 should expose the allowlisted sites"
    );
    assert!(violations.iter().all(|v| v.rule == "WFL001"), "other rules stay suppressed");
}

fn lint_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_wfdiff_lint"))
}

#[test]
fn check_on_the_live_workspace_exits_zero() {
    let out = lint_bin()
        .args(["check", "--root"])
        .arg(workspace_root())
        .output()
        .expect("run wfdiff_lint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stdout: {stdout}\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("clean"), "{stdout}");
}

#[test]
fn check_on_a_violating_tree_exits_one_and_writes_the_json_report() {
    // Build a tiny violating workspace under the cargo-managed tmp dir.
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("wfdiff_lint_bad_tree");
    let src = dir.join("crates/x/src");
    std::fs::create_dir_all(&src).unwrap();
    std::fs::write(src.join("wal.rs"), "pub fn f() { let _ = std::fs::write(\"a\", b\"x\"); }\n")
        .unwrap();
    let report = dir.join("lint_report.json");
    let out = lint_bin()
        .args(["check", "--root"])
        .arg(&dir)
        .arg("--json")
        .arg(&report)
        .output()
        .expect("run wfdiff_lint");
    assert_eq!(out.status.code(), Some(1), "violations exit 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("[WFL001]") && stdout.contains("crates/x/src/wal.rs:1:27"), "{stdout}");
    let json = std::fs::read_to_string(&report).unwrap();
    assert!(json.contains("\"WFL001\"") && json.contains("\"total\": 1"), "{json}");
}

#[test]
fn usage_errors_exit_two() {
    let out = lint_bin().arg("frobnicate").output().expect("run wfdiff_lint");
    assert_eq!(out.status.code(), Some(2));
    let out = lint_bin().args(["check", "--allow", "WFL999"]).output().expect("run wfdiff_lint");
    assert_eq!(out.status.code(), Some(2), "unknown rule IDs are usage errors");
}

#[test]
fn list_rules_names_every_rule() {
    let out = lint_bin().arg("list-rules").output().expect("run wfdiff_lint");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for rule in &RULES {
        assert!(stdout.contains(rule.id), "missing {} in:\n{stdout}", rule.id);
    }
}
