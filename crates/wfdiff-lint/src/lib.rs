//! `wfdiff-lint`: the workspace invariant checker.
//!
//! The wfdiff workspace carries load-bearing invariants that neither ordinary
//! tests nor the compiler can see: crash-torture coverage is only honest if
//! every durability write routes through `StoreIo`; the store's lock
//! discipline only holds if no future refactor reorders an acquisition;
//! metric names are an operator-facing contract.  This crate turns those
//! prose invariants into machine checks with stable rule IDs:
//!
//! | rule | name | enforces |
//! |------|------|----------|
//! | `WFL000` | allowlist-hygiene | `lint_allow.toml` entries must still match a site |
//! | `WFL001` | io-discipline | no direct `std::fs` in durability-critical modules |
//! | `WFL002` | lock-order | `save_lock` → `specs` → `runs` → `persist_fp_cache` |
//! | `WFL004` | metrics-naming | `wfdiff_`-prefixed, kind-suffixed, registered once |
//!
//! Two former rules are enforced by the toolchain instead.  Panic-freedom
//! (`WFL003`) is the workspace's clippy `deny` of `unwrap_used`,
//! `expect_used`, `panic`, `todo`, `unreachable` and `unimplemented`, with
//! each justified exception an in-place `#[expect(clippy::…, reason = …)]`
//! that fails the build once it no longer fires.  Error-to-status
//! exhaustiveness (`WFL005`) is rustc's exhaustive `match` in the
//! `From<_> for ApiError` impls, which clippy forbids from growing a `_` arm.
//!
//! The crate is deliberately dependency-free (no `syn`, no registry access):
//! a hand-rolled lexer ([`lexer`]) tokenizes Rust precisely enough that
//! strings, comments and `#[cfg(test)]` regions cannot fool a rule, and the
//! engine ([`engine`]) walks `crates/*/src/**/*.rs`, applies the rules
//! ([`rules`]) and subtracts the justified allowlist ([`allowlist`]).
//!
//! Run it as `cargo run -p wfdiff-lint --release -- check`; see the README
//! for the CLI and the `lint_allow.toml` format.
//!
//! # Example
//!
//! ```
//! use wfdiff_lint::engine::{check_sources, CheckConfig};
//! use wfdiff_lint::rules::SourceFile;
//!
//! let file = SourceFile::parse(
//!     "crates/x/src/wal.rs",
//!     "pub fn f() { let _ = std::fs::write(\"a\", b\"x\"); }",
//! );
//! let violations = check_sources(&[file], &[], &CheckConfig::default());
//! assert_eq!(violations.len(), 1);
//! assert_eq!(violations[0].rule, "WFL001");
//! assert_eq!((violations[0].line, violations[0].col), (1, 27));
//! ```

#![deny(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(test, allow(clippy::todo, clippy::unreachable, clippy::unimplemented))]

pub mod allowlist;
pub mod engine;
pub mod lexer;
pub mod report;
pub mod rules;

pub use allowlist::{parse_allowlist, AllowEntry};
pub use engine::{check_sources, check_workspace, CheckConfig};
pub use report::{render_human, render_json, Violation};
pub use rules::{rule_info, SourceFile, RULES};
