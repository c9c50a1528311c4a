//! `wfdiff_serve` — serve a persisted PDiffView store over HTTP.
//!
//! ```text
//! wfdiff_serve <store-dir> [addr] [threads]
//!     Load the store directory at <store-dir> (full validation), warm-start
//!     a DiffService over it and serve queries on [addr] (default
//!     127.0.0.1:7411) with [threads] workers (default: available CPUs).
//! ```
//!
//! `[threads]` is both the HTTP worker count and the diff service's thread
//! count.  Endpoints, limits and the error model are documented on
//! [`wfdiff_pdiffview::serve`]; operations (metrics, tuning, recovery) in
//! `docs/OPERATIONS.md`.  Runs inserted through `POST /runs` are appended
//! durably to the store directory.
//!
//! A directory of `shard-NNN/` stores written by earlier versions is
//! refused: `store_tool merge` turns it into one store directory first.
//!
//! Exit codes: `2` for usage errors (wrong arguments), `1` when the store
//! fails to load or the address cannot be bound.

#![allow(clippy::print_stdout, clippy::print_stderr)]

use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use wfdiff_pdiffview::serve::{AppState, ServeConfig, Server};
use wfdiff_pdiffview::{DiffService, WorkflowStore};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.len() > 3 || args[0].starts_with('-') {
        eprintln!("usage: wfdiff_serve <store-dir> [addr] [threads]");
        std::process::exit(2);
    }
    let dir = args[0].clone();
    let addr = args.get(1).cloned().unwrap_or_else(|| "127.0.0.1:7411".to_string());
    let threads = match args.get(2) {
        None => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        Some(raw) => match raw.parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("wfdiff_serve: thread count must be a positive integer, got {raw:?}");
                eprintln!("usage: wfdiff_serve <store-dir> [addr] [threads]");
                std::process::exit(2);
            }
        },
    };

    if let Err(message) = serve(Path::new(&dir), &addr, threads) {
        eprintln!("wfdiff_serve: {message}");
        std::process::exit(1);
    }
}

/// Loads the store, warm-starts a service over it, resumes its checkpoints
/// and open streams, and serves it until the process ends.
fn serve(dir: &Path, addr: &str, threads: usize) -> Result<(), String> {
    let shards = wfdiff_pdiffview::persist::shard_dirs(dir);
    if !shards.is_empty() && !dir.join("manifest.json").exists() {
        return Err(format!(
            "{} holds {} shard-NNN store(s) and no store of its own; a server serves one \
             store: merge them with `store_tool merge {} <new-dir>` and serve <new-dir>",
            dir.display(),
            shards.len(),
            dir.display()
        ));
    }
    let store =
        Arc::new(WorkflowStore::load_from_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?);
    let service = Arc::new(DiffService::builder(store).threads(threads).build());
    let report = service.warm_start().map_err(|e| e.to_string())?;
    // Resume the checkpointed run clustering and the vantage-point metric
    // index behind pruned /similar (validated entry by entry; stale or
    // corrupt state is simply rebuilt on the next query).
    for (index, report) in [
        ("cluster cache", service.load_cluster_state(dir)),
        ("metric index", service.load_metric_state(dir)),
    ] {
        if report.loaded > 0 || report.stale > 0 {
            println!(
                "wfdiff_serve {index}: {} spec(s) resumed, {} stale entr(ies) to rebuild",
                report.loaded, report.stale
            );
        }
    }
    // Rebuild the in-flight stream registry from the write-ahead log so
    // streams survive a restart (stale or finalised groups are skipped).
    let streams = service.load_streams(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    if streams.loaded > 0 || streams.skipped > 0 {
        println!(
            "wfdiff_serve streams: {} in-flight stream(s) resumed, {} skipped",
            streams.loaded, streams.skipped
        );
    }
    let state = AppState::single(service, Some(dir.to_path_buf()));
    let config = ServeConfig { addr: addr.to_string(), threads, ..ServeConfig::default() };
    let server = Server::bind(state, config).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let bound = server.local_addr().map_err(|e| e.to_string())?;
    println!(
        "wfdiff_serve listening on http://{bound} ({} spec(s), {} run(s) warm, {threads} \
         worker(s))",
        report.specs, report.runs
    );
    // The address line is what scripts wait for; make sure it is not stuck
    // in a pipe buffer when stdout is not a terminal.
    let _ = std::io::stdout().flush();
    server.start().map_err(|e| e.to_string())?.join();
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::disallowed_methods)]
mod tests {
    use super::*;

    #[test]
    fn a_root_of_shard_stores_is_refused_with_the_merge_command() {
        let root = std::env::temp_dir().join(format!("wfdiff-serve-shards-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        WorkflowStore::new().save_to_dir(root.join("shard-000")).unwrap();
        WorkflowStore::new().save_to_dir(root.join("shard-001")).unwrap();
        let message = serve(&root, "127.0.0.1:0", 1).unwrap_err();
        assert!(message.contains("store_tool merge"), "{message}");
        assert!(!root.join("manifest.json").exists(), "nothing was written");
        std::fs::remove_dir_all(&root).ok();
    }
}
