//! The checked-in allowlist (`lint_allow.toml`) and its parser.
//!
//! The file is a burn-down list, not an escape hatch: every entry must carry
//! a non-empty `justification`, and entries that no longer match anything in
//! the tree are themselves reported (rule `WFL000`) so the list can only
//! shrink honestly.
//!
//! We parse a deliberately small TOML subset — `[[allow]]` tables with
//! `key = "string"` pairs — because the workspace has no registry access and
//! the lint crate is dependency-free by design.

use std::fmt;

/// One `[[allow]]` entry from `lint_allow.toml`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Rule ID the entry suppresses, e.g. `"WFL001"`.
    pub rule: String,
    /// Workspace-relative file path the entry applies to, `/`-separated.
    pub file: String,
    /// Substring that must occur in the flagged line's source text.
    pub pattern: String,
    /// Human rationale; must be non-empty.
    pub justification: String,
}

/// A parse failure with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowParseError {
    /// 1-based line in `lint_allow.toml`.
    pub line: u32,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for AllowParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lint_allow.toml:{}: {}", self.line, self.message)
    }
}

/// Parses the TOML-subset allowlist format.
///
/// Accepted lines: blank, `#` comments, `[[allow]]` headers, and
/// `key = "value"` pairs with basic `\"`/`\\` escapes.  Every entry must
/// define `rule`, `file`, `pattern` and a non-empty `justification`.
pub fn parse_allowlist(source: &str) -> Result<Vec<AllowEntry>, AllowParseError> {
    let mut entries: Vec<AllowEntry> = Vec::new();
    let mut current: Option<PartialEntry> = None;
    let mut open_line = 0u32;
    for (idx, raw) in source.lines().enumerate() {
        let lineno = idx as u32 + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[allow]]" {
            if let Some(p) = current.take() {
                entries.push(p.finish(open_line)?);
            }
            current = Some(PartialEntry::default());
            open_line = lineno;
            continue;
        }
        let Some((key, value)) = parse_kv(line) else {
            return Err(AllowParseError {
                line: lineno,
                message: format!("expected `[[allow]]` or `key = \"value\"`, got `{line}`"),
            });
        };
        let Some(p) = current.as_mut() else {
            return Err(AllowParseError {
                line: lineno,
                message: format!("`{key}` outside any [[allow]] table"),
            });
        };
        let slot = match key {
            "rule" => &mut p.rule,
            "file" => &mut p.file,
            "pattern" => &mut p.pattern,
            "justification" => &mut p.justification,
            other => {
                return Err(AllowParseError {
                    line: lineno,
                    message: format!("unknown key `{other}`"),
                });
            }
        };
        if slot.is_some() {
            return Err(AllowParseError {
                line: lineno,
                message: format!("duplicate key `{key}`"),
            });
        }
        *slot = Some(value);
    }
    if let Some(p) = current.take() {
        entries.push(p.finish(open_line)?);
    }
    Ok(entries)
}

#[derive(Default)]
struct PartialEntry {
    rule: Option<String>,
    file: Option<String>,
    pattern: Option<String>,
    justification: Option<String>,
}

impl PartialEntry {
    fn finish(self, open_line: u32) -> Result<AllowEntry, AllowParseError> {
        let missing = |what: &str| AllowParseError {
            line: open_line,
            message: format!("[[allow]] entry is missing `{what}`"),
        };
        let entry = AllowEntry {
            rule: self.rule.ok_or_else(|| missing("rule"))?,
            file: self.file.ok_or_else(|| missing("file"))?,
            pattern: self.pattern.ok_or_else(|| missing("pattern"))?,
            justification: self.justification.ok_or_else(|| missing("justification"))?,
        };
        if entry.justification.trim().is_empty() {
            return Err(AllowParseError {
                line: open_line,
                message: "justification must be non-empty".to_owned(),
            });
        }
        Ok(entry)
    }
}

/// Parses `key = "value"`, returning `(key, unescaped value)`.
fn parse_kv(line: &str) -> Option<(&str, String)> {
    let (key, rest) = line.split_once('=')?;
    let key = key.trim();
    if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
        return None;
    }
    let rest = rest.trim();
    let inner = rest.strip_prefix('"')?;
    let mut value = String::new();
    let mut chars = inner.chars();
    loop {
        match chars.next()? {
            '"' => break,
            '\\' => match chars.next()? {
                '"' => value.push('"'),
                '\\' => value.push('\\'),
                'n' => value.push('\n'),
                't' => value.push('\t'),
                other => {
                    value.push('\\');
                    value.push(other);
                }
            },
            c => value.push(c),
        }
    }
    let trailing: String = chars.collect();
    let trailing = trailing.trim();
    if !trailing.is_empty() && !trailing.starts_with('#') {
        return None;
    }
    Some((key, value))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_entries_with_comments_and_escapes() {
        let src = r#"
# burn-down list
[[allow]]
rule = "WFL001"
file = "crates/wfdiff-pdiffview/src/wal.rs"
pattern = "std::fs::read(\"4 bytes\")"  # trailing comment
justification = "read-only scan; a crash cannot tear a read"

[[allow]]
rule = "WFL001"
file = "crates/wfdiff-pdiffview/src/persist.rs"
pattern = "fs::read_to_string"
justification = "read-only probe; crash cannot tear a read"
"#;
        let entries = parse_allowlist(src).expect("parses");
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].pattern, "std::fs::read(\"4 bytes\")");
        assert_eq!(entries[1].rule, "WFL001");
    }

    #[test]
    fn rejects_missing_justification() {
        let src = "[[allow]]\nrule = \"WFL001\"\nfile = \"f.rs\"\npattern = \"x\"\n";
        let err = parse_allowlist(src).expect_err("must fail");
        assert!(err.message.contains("justification"));
    }

    #[test]
    fn rejects_empty_justification() {
        let src = "[[allow]]\nrule = \"WFL001\"\nfile = \"f.rs\"\npattern = \"x\"\njustification = \"  \"\n";
        let err = parse_allowlist(src).expect_err("must fail");
        assert!(err.message.contains("non-empty"));
    }

    #[test]
    fn rejects_stray_keys_and_garbage() {
        assert!(parse_allowlist("rule = \"WFL001\"\n").is_err());
        assert!(parse_allowlist("[[allow]]\nwat\n").is_err());
        assert!(parse_allowlist("[[allow]]\nbogus = \"x\"\n").is_err());
    }

    #[test]
    fn empty_input_is_ok() {
        assert_eq!(parse_allowlist("# nothing here\n").expect("ok"), vec![]);
    }
}
