//! `wfdiff_serve` — serve a persisted PDiffView store over HTTP.
//!
//! ```text
//! wfdiff_serve <store-dir> [addr] [threads]
//!     Load the store directory at <store-dir> (full validation), warm-start
//!     a DiffService over it and serve queries on [addr] (default
//!     127.0.0.1:7411) with [threads] workers (default: available CPUs).
//! ```
//!
//! When `<store-dir>` contains `shard-NNN` subdirectories (as written by
//! `store_tool shard`), each is loaded as an independent shard — its own
//! store, diff service and cluster cache — and requests are routed by spec
//! name; otherwise the directory is served as a single shard.  In both modes
//! `[threads]` is the *HTTP worker* count; each shard additionally gets its
//! own diff thread pool.
//!
//! Endpoints, limits and the error model are documented on
//! [`wfdiff_pdiffview::serve`]; operations (sharding, metrics, tuning) in
//! `docs/OPERATIONS.md`.  Runs inserted through `POST /runs` are appended
//! durably to the owning shard's directory.
//!
//! Exit codes: `2` for usage errors (wrong arguments), `1` when the store
//! fails to load or the address cannot be bound.

#![allow(clippy::print_stdout, clippy::print_stderr)]

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use wfdiff_pdiffview::serve::shard::{detect_shard_dirs, ShardEntry, ShardRouter};
use wfdiff_pdiffview::serve::{ServeConfig, Server};
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

    if let Err(message) = serve(&dir, &addr, threads) {
        eprintln!("wfdiff_serve: {message}");
        std::process::exit(1);
    }
}

/// Loads one shard: store, diff service, warm start, checkpoint resume.
/// Returns the entry plus its warm (spec, run) counts.
fn load_shard(dir: &Path, threads: usize) -> Result<(ShardEntry, usize, usize), String> {
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
                "wfdiff_serve {index} [{}]: {} spec(s) resumed, {} stale entr(ies) to rebuild",
                dir.display(),
                report.loaded,
                report.stale
            );
        }
    }
    // Rebuild the in-flight stream registry from the write-ahead log so
    // streams survive a restart (stale or finalised groups are skipped).
    let streams = service.load_streams(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    if streams.loaded > 0 || streams.skipped > 0 {
        println!(
            "wfdiff_serve streams [{}]: {} in-flight stream(s) resumed, {} skipped",
            dir.display(),
            streams.loaded,
            streams.skipped
        );
    }
    Ok((ShardEntry::new(service, Some(dir.to_path_buf())), report.specs, report.runs))
}

fn serve(dir: &str, addr: &str, threads: usize) -> Result<(), String> {
    let shard_dirs = detect_shard_dirs(dir);
    let dirs: Vec<PathBuf> =
        if shard_dirs.is_empty() { vec![PathBuf::from(dir)] } else { shard_dirs };
    let mut shards = Vec::with_capacity(dirs.len());
    let (mut specs, mut runs) = (0usize, 0usize);
    for shard_dir in &dirs {
        let (entry, shard_specs, shard_runs) = load_shard(shard_dir, threads)?;
        specs += shard_specs;
        runs += shard_runs;
        shards.push(entry);
    }
    let shard_count = shards.len();
    let router = ShardRouter::new(shards);
    let config = ServeConfig { addr: addr.to_string(), threads, ..ServeConfig::default() };
    let server = Server::bind(router, config).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let bound = server.local_addr().map_err(|e| e.to_string())?;
    println!(
        "wfdiff_serve listening on http://{bound} ({specs} spec(s), {runs} run(s) warm, \
         {shard_count} shard(s), {threads} worker(s))"
    );
    // The address line is what scripts wait for; make sure it is not stuck
    // in a pipe buffer when stdout is not a terminal.
    let _ = std::io::stdout().flush();
    server.start().map_err(|e| e.to_string())?.join();
    Ok(())
}
