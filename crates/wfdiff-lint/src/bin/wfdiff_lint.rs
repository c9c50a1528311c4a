//! The `wfdiff_lint` command-line interface.
//!
//! ```text
//! wfdiff_lint check [--root DIR] [--json FILE] [--allow RULE]... [--deny RULE]...
//! wfdiff_lint list-rules
//! ```
//!
//! Exit codes follow the workspace convention (`store_tool` set it): `0`
//! clean, `1` violations found, `2` usage or I/O error.

#![allow(clippy::print_stdout, clippy::print_stderr)]

use std::path::PathBuf;
use std::process::ExitCode;
use wfdiff_lint::engine::{check_workspace, CheckConfig};
use wfdiff_lint::report::{render_human, render_json};
use wfdiff_lint::rules::{rule_info, RULES};

const USAGE: &str = "\
wfdiff_lint — workspace invariant checker (rules WFL000, WFL001, WFL002, WFL004)

USAGE:
    wfdiff_lint check [--root DIR] [--json FILE] [--allow RULE]... [--deny RULE]...
    wfdiff_lint list-rules

COMMANDS:
    check         walk crates/*/src/**/*.rs and report invariant violations
    list-rules    print every rule ID with its description

OPTIONS (check):
    --root DIR    workspace root to scan (default: current directory)
    --json FILE   also write the report as JSON to FILE
    --allow RULE  disable a rule entirely (repeatable)
    --deny RULE   ignore lint_allow.toml entries for a rule (repeatable)

EXIT CODES:
    0  clean        1  violations found        2  usage or I/O error
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => run_check(&args[1..]),
        Some("list-rules") => {
            for r in RULES {
                println!("{}  {:<28} {}", r.id, r.name, r.summary);
            }
            ExitCode::SUCCESS
        }
        Some("--help") | Some("-h") | Some("help") => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => usage_error(&format!("unknown command `{other}`")),
        None => usage_error("missing command"),
    }
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!("error: {message}\n\n{USAGE}");
    ExitCode::from(2)
}

fn run_check(args: &[String]) -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut json_path: Option<PathBuf> = None;
    let mut config = CheckConfig::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => match it.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => return usage_error("--root requires a directory"),
            },
            "--json" => match it.next() {
                Some(file) => json_path = Some(PathBuf::from(file)),
                None => return usage_error("--json requires a file path"),
            },
            "--allow" | "--deny" => {
                let Some(rule) = it.next() else {
                    return usage_error(&format!("{arg} requires a rule ID"));
                };
                let rule = rule.to_uppercase();
                if rule_info(&rule).is_none() {
                    return usage_error(&format!(
                        "unknown rule `{rule}` (see `wfdiff_lint list-rules`)"
                    ));
                }
                if arg == "--allow" {
                    config.allowed_rules.push(rule);
                } else {
                    config.denied_rules.push(rule);
                }
            }
            other => return usage_error(&format!("unknown option `{other}`")),
        }
    }

    let violations = match check_workspace(&root, &config) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(path) = &json_path {
        if let Err(e) = std::fs::write(path, render_json(&violations)) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    if violations.is_empty() {
        println!("wfdiff_lint: clean ({} rules)", RULES.len());
        ExitCode::SUCCESS
    } else {
        print!("{}", render_human(&violations));
        println!("wfdiff_lint: {} violation(s)", violations.len());
        ExitCode::from(1)
    }
}
