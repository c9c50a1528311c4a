//! The WFL rule set.
//!
//! Every rule has a stable ID so allowlist entries, CI output and the
//! "Enforced invariants" table in ARCHITECTURE.md can refer to it.  Rules
//! work on the token stream from [`crate::lexer`] — never on raw text — so
//! strings, comments and test regions cannot produce false positives.

use crate::lexer::{Token, TokenKind};
use crate::report::Violation;
use std::collections::BTreeMap;

/// A parsed source file ready for rule checks.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated (e.g.
    /// `crates/wfdiff-pdiffview/src/wal.rs`).
    pub rel_path: String,
    /// The file's lines, for allowlist pattern matching.
    pub lines: Vec<String>,
    /// The lexed token stream with test regions marked.
    pub tokens: Vec<Token>,
}

impl SourceFile {
    /// Lexes `source` into a checkable file.
    pub fn parse(rel_path: impl Into<String>, source: &str) -> Self {
        SourceFile {
            rel_path: rel_path.into(),
            lines: source.lines().map(str::to_owned).collect(),
            tokens: crate::lexer::lex(source),
        }
    }
}

/// One rule's ID and description, for `list-rules`.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable ID (`WFL000`, `WFL001`, `WFL002` or `WFL004`).
    pub id: &'static str,
    /// Short name.
    pub name: &'static str,
    /// One-line description of what the rule enforces.
    pub summary: &'static str,
}

/// Every rule the engine knows, in ID order.  The gaps are retired rules
/// whose invariants the compiler now enforces: panic-freedom (`WFL003`) is
/// clippy's `expect_used`/`panic`/`todo`/`unreachable`/`unimplemented`
/// denies, and error-to-status exhaustiveness (`WFL005`) is rustc's
/// exhaustive `match` in `serve/api.rs`.
pub const RULES: [RuleInfo; 4] = [
    RuleInfo {
        id: "WFL000",
        name: "allowlist-hygiene",
        summary: "every lint_allow.toml entry must still match a real site (the list only shrinks)",
    },
    RuleInfo {
        id: "WFL001",
        name: "io-discipline",
        summary: "durability-critical modules route all filesystem mutation through StoreIo, \
                  never std::fs directly",
    },
    RuleInfo {
        id: "WFL002",
        name: "lock-order",
        summary: "store locks are acquired in rank order: save_lock, then specs, then runs, \
                  then persist_fp_cache",
    },
    RuleInfo {
        id: "WFL004",
        name: "metrics-naming",
        summary: "serve-tier metrics match wfdiff_[a-z0-9_]+ with the kind-appropriate suffix \
                  and are registered exactly once",
    },
];

/// Looks up a rule by ID.
pub fn rule_info(id: &str) -> Option<RuleInfo> {
    RULES.iter().copied().find(|r| r.id == id)
}

/// Runs every enabled per-file and cross-file rule over `files`.
///
/// `enabled` gates rules by ID (the CLI's `--allow RULE` turns one off).
/// The result is unfiltered by the allowlist — that is the engine's job.
pub fn check_all(files: &[SourceFile], enabled: &dyn Fn(&str) -> bool) -> Vec<Violation> {
    let mut out = Vec::new();
    for file in files {
        if enabled("WFL001") {
            wfl001_io_discipline(file, &mut out);
        }
        if enabled("WFL002") {
            wfl002_lock_order(file, &mut out);
        }
    }
    if enabled("WFL004") {
        wfl004_metrics_naming(files, &mut out);
    }
    out
}

fn violation(rule: &'static str, file: &SourceFile, t: &Token, message: String) -> Violation {
    Violation { rule, file: file.rel_path.clone(), line: t.line, col: t.col, message }
}

// ---------------------------------------------------------------------------
// WFL001 — io-discipline
// ---------------------------------------------------------------------------

/// Modules whose writes must be crash-torture-visible: every filesystem
/// mutation goes through `StoreIo` so `FaultIo` can inject faults into it.
fn is_durability_module(rel_path: &str) -> bool {
    if rel_path.ends_with("/storeio.rs") {
        return false;
    }
    ["/persist.rs", "/wal.rs", "/derived.rs", "/serve/shard.rs"]
        .iter()
        .any(|suffix| rel_path.ends_with(suffix))
}

fn wfl001_io_discipline(file: &SourceFile, out: &mut Vec<Violation>) {
    if !is_durability_module(&file.rel_path) {
        return;
    }
    let toks = &file.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.in_test || t.kind != TokenKind::Ident {
            continue;
        }
        // `fs::<fn>(` — any direct std::fs call.
        if t.text == "fs" && path_call(toks, i).is_some() {
            let name = &toks[i + 3].text;
            out.push(violation(
                "WFL001",
                file,
                t,
                format!(
                    "direct fs::{name} call in a durability-critical module; route it \
                     through StoreIo so FaultIo crash torture covers it"
                ),
            ));
            continue;
        }
        // `File::create/open/...(` and `OpenOptions::new(`.
        if t.text == "File" {
            if let Some(m) = path_call(toks, i) {
                if ["create", "create_new", "open", "options"].contains(&m) {
                    out.push(violation(
                        "WFL001",
                        file,
                        t,
                        format!(
                            "direct File::{m} call in a durability-critical module; route \
                             it through StoreIo so FaultIo crash torture covers it"
                        ),
                    ));
                }
            }
        }
        if t.text == "OpenOptions" && path_call(toks, i) == Some("new") {
            out.push(violation(
                "WFL001",
                file,
                t,
                "direct OpenOptions::new call in a durability-critical module; route it \
                 through StoreIo so FaultIo crash torture covers it"
                    .to_owned(),
            ));
        }
    }
}

/// For `Base::member(` starting at `toks[i] == Base`, returns `member`.
/// The lexer emits `::` as two `:` puncts, so `member` sits at `i + 3`.
fn path_call(toks: &[Token], i: usize) -> Option<&str> {
    if toks.get(i + 1)?.is_punct(':')
        && toks.get(i + 2)?.is_punct(':')
        && toks.get(i + 3).is_some_and(|t| t.kind == TokenKind::Ident)
        && toks.get(i + 4).is_some_and(|t| t.is_punct('('))
    {
        return Some(&toks[i + 3].text);
    }
    None
}

// ---------------------------------------------------------------------------
// WFL002 — lock-order
// ---------------------------------------------------------------------------

/// The store's lock ranks.  Mirrors `wfdiff_pdiffview::lockrank::LockRank`:
/// a lock may only be acquired when every lock already held has a *lower*
/// rank.
const LOCK_RANKS: [(&str, &str, u8); 6] = [
    ("save_lock", "lock", 0),
    ("specs", "read", 1),
    ("specs", "write", 1),
    ("runs", "read", 2),
    ("runs", "write", 2),
    ("persist_fp_cache", "lock", 3),
];

fn wfl002_lock_order(file: &SourceFile, out: &mut Vec<Violation>) {
    if !file.rel_path.contains("crates/wfdiff-pdiffview/src/") {
        return;
    }
    let toks = &file.tokens;
    // Static approximation: within one `fn` body (delimited by `fn` keyword
    // occurrences), acquisitions must be non-decreasing in rank.  This
    // over-approximates guard lifetimes (an early-dropped guard still counts)
    // — intentional: the store's documented discipline is rank-ordered
    // acquisition per function, and the runtime lock-rank guard catches the
    // exact dynamic cases.
    let mut max_rank: Option<(u8, &str)> = None;
    for (i, t) in toks.iter().enumerate() {
        if t.in_test {
            continue;
        }
        if t.is_ident("fn") {
            max_rank = None;
            continue;
        }
        // `.field.method(` acquisition pattern.
        if !t.is_punct('.') {
            continue;
        }
        let Some(field) = toks.get(i + 1).filter(|t| t.kind == TokenKind::Ident) else {
            continue;
        };
        if !toks.get(i + 2).is_some_and(|t| t.is_punct('.')) {
            continue;
        }
        let Some(method) = toks.get(i + 3).filter(|t| t.kind == TokenKind::Ident) else {
            continue;
        };
        if !toks.get(i + 4).is_some_and(|t| t.is_punct('(')) {
            continue;
        }
        let Some(&(name, _, rank)) =
            LOCK_RANKS.iter().find(|(f, m, _)| field.text == *f && method.text == *m)
        else {
            continue;
        };
        // Strictly-lower only: re-acquiring the same rank is a sequential
        // drop-then-relock in the static over-approximation (the runtime
        // guard catches a genuinely nested same-rank acquisition).
        match max_rank {
            Some((held, held_name)) if rank < held => {
                out.push(violation(
                    "WFL002",
                    file,
                    field,
                    format!(
                        "lock-order violation: `{name}` (rank {rank}) acquired after \
                         `{held_name}` (rank {held}); the store's discipline is \
                         save_lock → specs → runs → persist_fp_cache"
                    ),
                ));
            }
            _ => {}
        }
        if max_rank.map_or(true, |(held, _)| rank > held) {
            max_rank = Some((rank, name));
        }
    }
}

// ---------------------------------------------------------------------------
// WFL004 — metrics-naming
// ---------------------------------------------------------------------------

/// A metric registration site found in the serve tier.
struct Registration {
    file_idx: usize,
    token_idx: usize,
    name: String,
    kind: &'static str,
}

fn wfl004_metrics_naming(files: &[SourceFile], out: &mut Vec<Violation>) {
    let mut regs: Vec<Registration> = Vec::new();
    for (file_idx, file) in files.iter().enumerate() {
        if !file.rel_path.contains("/serve/") {
            continue;
        }
        collect_registrations(file_idx, file, &mut regs, out);
    }
    // Pattern + suffix checks.
    for reg in &regs {
        let file = &files[reg.file_idx];
        let t = &file.tokens[reg.token_idx];
        if !metric_name_ok(&reg.name) {
            out.push(violation(
                "WFL004",
                file,
                t,
                format!(
                    "metric name {:?} does not match wfdiff_[a-z0-9_]+ \
                     (lowercase, wfdiff_ prefix)",
                    reg.name
                ),
            ));
        }
        let required = match reg.kind {
            "counter" => Some("_total"),
            "histogram" => Some("_seconds"),
            _ => None,
        };
        if let Some(suffix) = required {
            if !reg.name.ends_with(suffix) {
                out.push(violation(
                    "WFL004",
                    file,
                    t,
                    format!("{} metric {:?} must end with `{suffix}`", reg.kind, reg.name),
                ));
            }
        }
    }
    // Exactly-once registration.
    let mut first: BTreeMap<&str, &Registration> = BTreeMap::new();
    for reg in &regs {
        if let Some(prev) = first.get(reg.name.as_str()) {
            let file = &files[reg.file_idx];
            let t = &file.tokens[reg.token_idx];
            let prev_file = &files[prev.file_idx];
            let prev_tok = &prev_file.tokens[prev.token_idx];
            out.push(violation(
                "WFL004",
                file,
                t,
                format!(
                    "metric {:?} registered more than once (first at {}:{})",
                    reg.name, prev_file.rel_path, prev_tok.line
                ),
            ));
        } else {
            first.insert(reg.name.as_str(), reg);
        }
    }
}

/// Finds `head(..)` / `counter_head_sample(..)` / `gauge_head_sample(..)`
/// call sites and extracts `(name, kind)`.  Skips the helpers' own
/// definitions and the wrapper-internal `head(out, name, ...)` forwarding
/// (bare-`name` second argument); any other non-literal name is a violation
/// because the rule cannot verify what it registers.
fn collect_registrations(
    file_idx: usize,
    file: &SourceFile,
    regs: &mut Vec<Registration>,
    out: &mut Vec<Violation>,
) {
    let toks = &file.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.in_test || t.kind != TokenKind::Ident {
            continue;
        }
        let fixed_kind = match t.text.as_str() {
            "head" => None,
            "counter_head_sample" => Some("counter"),
            "gauge_head_sample" => Some("gauge"),
            _ => continue,
        };
        if !toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            continue;
        }
        // Skip the definition (`fn head(`) and method calls (`x.head(` does
        // not exist in this codebase, but be precise anyway).
        if i > 0 && (toks[i - 1].is_ident("fn") || toks[i - 1].is_punct('.')) {
            continue;
        }
        // The name is the second argument: skip past the first top-level `,`.
        let Some(comma) = arg_comma(toks, i + 1, i + 1) else {
            continue;
        };
        let Some(name_tok) = toks.get(comma + 1) else {
            continue;
        };
        if name_tok.kind != TokenKind::Str {
            // Wrapper forwarding: `head(out, name, "counter", help)` inside
            // counter_head_sample/gauge_head_sample.
            if name_tok.is_ident("name") {
                continue;
            }
            out.push(violation(
                "WFL004",
                file,
                name_tok,
                format!("metric name passed to {} is not a string literal", t.text),
            ));
            continue;
        }
        let kind = match fixed_kind {
            Some(k) => k,
            None => {
                // `head(out, name, kind, help)` — kind is the third argument.
                let Some(comma2) = arg_comma(toks, i + 1, comma) else {
                    continue;
                };
                match toks.get(comma2 + 1) {
                    Some(k) if k.kind == TokenKind::Str => match k.text.as_str() {
                        "counter" => "counter",
                        "gauge" => "gauge",
                        "histogram" => "histogram",
                        other => {
                            out.push(violation(
                                "WFL004",
                                file,
                                k,
                                format!(
                                    "unknown Prometheus type {other:?} (expected counter, \
                                     gauge or histogram)"
                                ),
                            ));
                            continue;
                        }
                    },
                    _ => {
                        out.push(violation(
                            "WFL004",
                            file,
                            name_tok,
                            "metric kind passed to head is not a string literal".to_owned(),
                        ));
                        continue;
                    }
                }
            }
        };
        regs.push(Registration {
            file_idx,
            token_idx: comma + 1,
            name: name_tok.text.clone(),
            kind,
        });
    }
}

/// With `toks[open]` == the call's `(`, returns the index of the first
/// argument-separating comma (depth 1 of that group) strictly after `after`.
fn arg_comma(toks: &[Token], open: usize, after: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.kind != TokenKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    return None;
                }
            }
            "," if depth == 1 && j > after => return Some(j),
            _ => {}
        }
    }
    None
}

fn metric_name_ok(name: &str) -> bool {
    let Some(rest) = name.strip_prefix("wfdiff_") else {
        return false;
    };
    !rest.is_empty()
        && rest.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}
