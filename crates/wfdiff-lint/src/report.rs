//! Violation records and their human/JSON renderings.

use std::fmt::Write as _;

/// One rule violation at a source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable rule ID, e.g. `"WFL001"`.
    pub rule: &'static str,
    /// Workspace-relative file path, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// What the rule saw.
    pub message: String,
}

/// Renders violations for humans: `file:line:col: [RULE] message`, sorted by
/// file, then position, then rule.
pub fn render_human(violations: &[Violation]) -> String {
    let mut sorted: Vec<&Violation> = violations.iter().collect();
    sorted.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });
    let mut out = String::new();
    for v in sorted {
        let _ = writeln!(out, "{}:{}:{}: [{}] {}", v.file, v.line, v.col, v.rule, v.message);
    }
    out
}

/// Renders violations as a JSON report:
///
/// ```json
/// {"violations": [{"rule": "...", "file": "...", "line": 1, "col": 1,
///   "message": "..."}], "total": 1}
/// ```
///
/// Hand-rolled (the crate is dependency-free); only strings need escaping.
pub fn render_json(violations: &[Violation]) -> String {
    let mut sorted: Vec<&Violation> = violations.iter().collect();
    sorted.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });
    let mut out = String::from("{\n  \"violations\": [");
    for (i, v) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"col\": {}, \"message\": {}}}",
            json_string(v.rule),
            json_string(&v.file),
            v.line,
            v.col,
            json_string(&v.message),
        );
    }
    if !sorted.is_empty() {
        out.push_str("\n  ");
    }
    let _ = write!(out, "],\n  \"total\": {}\n}}\n", sorted.len());
    out
}

/// Escapes `s` as a JSON string literal (with quotes).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(rule: &'static str, file: &str, line: u32) -> Violation {
        Violation { rule, file: file.to_owned(), line, col: 1, message: "m \"q\"".to_owned() }
    }

    #[test]
    fn human_output_is_sorted_and_greppable() {
        let out = render_human(&[v("WFL004", "b.rs", 9), v("WFL001", "a.rs", 2)]);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("a.rs:2:1: [WFL001]"));
        assert!(lines[1].starts_with("b.rs:9:1: [WFL004]"));
    }

    #[test]
    fn json_output_escapes_and_counts() {
        let out = render_json(&[v("WFL001", "a.rs", 1)]);
        assert!(out.contains("\"total\": 1"));
        assert!(out.contains("\\\"q\\\""));
        let empty = render_json(&[]);
        assert!(empty.contains("\"violations\": []"));
        assert!(empty.contains("\"total\": 0"));
    }
}
