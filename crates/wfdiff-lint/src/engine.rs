//! The checking engine: workspace walk, rule dispatch, allowlist
//! application and allowlist hygiene (rule `WFL000`).

use crate::allowlist::AllowEntry;
use crate::report::Violation;
use crate::rules::{self, SourceFile};
use std::fmt;
use std::path::{Path, PathBuf};

/// Which rules run and how the allowlist is honoured.
#[derive(Debug, Default, Clone)]
pub struct CheckConfig {
    /// Rule IDs disabled entirely (`--allow RULE`): their violations are not
    /// reported and their allowlist entries are not hygiene-checked.
    pub allowed_rules: Vec<String>,
    /// Rule IDs whose allowlist entries are ignored (`--deny RULE`): every
    /// violation is reported even when an entry matches.
    pub denied_rules: Vec<String>,
}

impl CheckConfig {
    fn rule_enabled(&self, id: &str) -> bool {
        !self.allowed_rules.iter().any(|r| r == id)
    }

    fn allowlist_honoured(&self, id: &str) -> bool {
        !self.denied_rules.iter().any(|r| r == id)
    }
}

/// A failure to read the tree or the allowlist (distinct from violations:
/// these exit 2, not 1).
#[derive(Debug)]
pub struct EngineError {
    /// What the engine was doing.
    pub context: String,
    /// The underlying failure.
    pub message: String,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.context, self.message)
    }
}

impl std::error::Error for EngineError {}

fn engine_err(context: impl Into<String>, message: impl fmt::Display) -> EngineError {
    EngineError { context: context.into(), message: message.to_string() }
}

/// Checks already-parsed sources against `entries`, returning the surviving
/// violations (including `WFL000` hygiene findings for unmatched entries).
///
/// This is the pure core — fixture tests drive it with in-memory sources;
/// [`check_workspace`] wraps it with the filesystem walk.
pub fn check_sources(
    files: &[SourceFile],
    entries: &[AllowEntry],
    config: &CheckConfig,
) -> Vec<Violation> {
    let raw = rules::check_all(files, &|id| config.rule_enabled(id));
    let mut used = vec![false; entries.len()];
    let mut out: Vec<Violation> = Vec::new();
    for v in raw {
        let matched = entries.iter().enumerate().find(|(_, e)| entry_matches(e, files, &v));
        match matched {
            Some((idx, _)) if config.allowlist_honoured(v.rule) => used[idx] = true,
            _ => out.push(v),
        }
    }
    if config.rule_enabled("WFL000") {
        for (idx, e) in entries.iter().enumerate() {
            if used[idx] || !config.rule_enabled(&e.rule) || !config.allowlist_honoured(&e.rule) {
                continue;
            }
            out.push(Violation {
                rule: "WFL000",
                file: "lint_allow.toml".to_owned(),
                line: idx as u32 + 1,
                col: 1,
                message: format!(
                    "stale allowlist entry: no {} violation in {} matches pattern {:?} — \
                     delete the entry (the burn-down list only shrinks)",
                    e.rule, e.file, e.pattern
                ),
            });
        }
    }
    out
}

/// An entry suppresses a violation when the rule and file match exactly and
/// the flagged line's source text contains the pattern.
fn entry_matches(entry: &AllowEntry, files: &[SourceFile], v: &Violation) -> bool {
    if entry.rule != v.rule || entry.file != v.file {
        return false;
    }
    let Some(file) = files.iter().find(|f| f.rel_path == v.file) else {
        return false;
    };
    file.lines.get(v.line as usize - 1).is_some_and(|line| line.contains(&entry.pattern))
}

/// Walks `root` (the workspace directory), parses every `crates/*/src/**/*.rs`
/// file, loads `root/lint_allow.toml` when present, and checks everything.
pub fn check_workspace(root: &Path, config: &CheckConfig) -> Result<Vec<Violation>, EngineError> {
    let files = load_workspace_sources(root)?;
    if files.is_empty() {
        return Err(engine_err(
            format!("scanning {}", root.display()),
            "no crates/*/src/**/*.rs files found — wrong --root?",
        ));
    }
    let allow_path = root.join("lint_allow.toml");
    let entries = if allow_path.exists() {
        let text = std::fs::read_to_string(&allow_path)
            .map_err(|e| engine_err(format!("reading {}", allow_path.display()), e))?;
        crate::allowlist::parse_allowlist(&text)
            .map_err(|e| engine_err("parsing lint_allow.toml", e))?
    } else {
        Vec::new()
    };
    Ok(check_sources(&files, &entries, config))
}

/// Loads and lexes every `crates/*/src/**/*.rs` under `root`, sorted by
/// workspace-relative path for deterministic output.
pub fn load_workspace_sources(root: &Path) -> Result<Vec<SourceFile>, EngineError> {
    let crates_dir = root.join("crates");
    let mut rs_files: Vec<PathBuf> = Vec::new();
    let crate_dirs = read_dir_sorted(&crates_dir)?;
    for crate_dir in crate_dirs {
        let src = crate_dir.join("src");
        if src.is_dir() {
            collect_rs_files(&src, &mut rs_files)?;
        }
    }
    rs_files.sort();
    let mut out = Vec::with_capacity(rs_files.len());
    for path in rs_files {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| engine_err(format!("reading {}", path.display()), e))?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        out.push(SourceFile::parse(rel, &text));
    }
    Ok(out)
}

fn read_dir_sorted(dir: &Path) -> Result<Vec<PathBuf>, EngineError> {
    let rd = std::fs::read_dir(dir)
        .map_err(|e| engine_err(format!("reading directory {}", dir.display()), e))?;
    let mut entries = Vec::new();
    for entry in rd {
        let entry = entry.map_err(|e| engine_err(format!("reading {}", dir.display()), e))?;
        entries.push(entry.path());
    }
    entries.sort();
    Ok(entries)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), EngineError> {
    for path in read_dir_sorted(dir)? {
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allowlist::parse_allowlist;

    fn one_bad_file() -> Vec<SourceFile> {
        vec![SourceFile::parse(
            "crates/x/src/wal.rs",
            "pub fn f() { let _ = std::fs::write(\"a\", b\"x\"); }\n",
        )]
    }

    #[test]
    fn allowlist_suppresses_a_matching_violation() {
        let files = one_bad_file();
        let entries = parse_allowlist(
            "[[allow]]\nrule = \"WFL001\"\nfile = \"crates/x/src/wal.rs\"\n\
             pattern = \"fs::write\"\njustification = \"fixture\"\n",
        )
        .expect("parses");
        let vs = check_sources(&files, &entries, &CheckConfig::default());
        assert!(vs.is_empty(), "suppressed, and the entry is used: {vs:?}");
    }

    #[test]
    fn stale_entries_are_reported_as_wfl000() {
        let files = one_bad_file();
        let entries = parse_allowlist(
            "[[allow]]\nrule = \"WFL001\"\nfile = \"crates/x/src/wal.rs\"\n\
             pattern = \"no such text\"\njustification = \"stale\"\n",
        )
        .expect("parses");
        let vs = check_sources(&files, &entries, &CheckConfig::default());
        let rules: Vec<&str> = vs.iter().map(|v| v.rule).collect();
        assert!(rules.contains(&"WFL001"), "the fs call is still reported: {vs:?}");
        assert!(rules.contains(&"WFL000"), "the stale entry is reported: {vs:?}");
    }

    #[test]
    fn deny_overrides_the_allowlist() {
        let files = one_bad_file();
        let entries = parse_allowlist(
            "[[allow]]\nrule = \"WFL001\"\nfile = \"crates/x/src/wal.rs\"\n\
             pattern = \"fs::write\"\njustification = \"fixture\"\n",
        )
        .expect("parses");
        let config =
            CheckConfig { denied_rules: vec!["WFL001".to_owned()], ..CheckConfig::default() };
        let vs = check_sources(&files, &entries, &config);
        assert_eq!(vs.len(), 1, "reported despite the entry, no WFL000 for it: {vs:?}");
        assert_eq!(vs[0].rule, "WFL001");
    }

    #[test]
    fn allow_disables_a_rule_entirely() {
        let files = one_bad_file();
        let config =
            CheckConfig { allowed_rules: vec!["WFL001".to_owned()], ..CheckConfig::default() };
        let vs = check_sources(&files, &[], &config);
        assert!(vs.is_empty(), "{vs:?}");
    }
}
