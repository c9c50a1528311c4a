//! Spec-to-shard routing: partitioning a store across N `WorkflowStore`
//! shards and aggregating cross-shard views.
//!
//! A shard is one [`DiffService`] (and through it one [`WorkflowStore`]
//! with its own durable directory and `cluster_cache.json`).  Requests that address a single
//! specification are routed by a stable hash of the spec name
//! ([`shard_of`], FNV-1a 64); `/specs`, `/healthz` and `/metrics` aggregate
//! across every shard.
//!
//! The hash only decides where *new* specs land.  At boot the router records
//! where each spec actually lives (whatever directory it was loaded from),
//! so hand-placed or historically mislocated specs stay reachable — routing
//! never depends on every store having been written by the same hash.

use crate::persist::{PersistError, SaveSummary};
use crate::service::DiffService;
use crate::store::WorkflowStore;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Prefix of per-shard subdirectories inside a sharded store root.
pub const SHARD_DIR_PREFIX: &str = "shard-";

/// The subdirectory name of shard `i` (`shard-000`, `shard-001`, ...).
pub fn shard_dir_name(i: usize) -> String {
    format!("{SHARD_DIR_PREFIX}{i:03}")
}

/// FNV-1a 64-bit hash — the stable spec-routing hash.  Deliberately simple
/// and dependency-free; its value for a given name must never change, or
/// existing sharded stores would misroute (see `docs/OPERATIONS.md`).
pub fn fnv1a_64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The shard index a spec name hashes to, for `n` shards.
pub fn shard_of(spec: &str, n: usize) -> usize {
    if n <= 1 {
        return 0;
    }
    (fnv1a_64(spec) % n as u64) as usize
}

/// Detects a sharded store layout: the `shard-NNN` subdirectories of
/// `root`, sorted by index.  An empty vector means `root` is (or will be) a
/// plain single-store directory.
pub fn detect_shard_dirs(root: impl AsRef<Path>) -> Vec<PathBuf> {
    let root = root.as_ref();
    let mut found: Vec<(usize, PathBuf)> = Vec::new();
    let Ok(entries) = std::fs::read_dir(root) else {
        return Vec::new();
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(index) = name.strip_prefix(SHARD_DIR_PREFIX) else { continue };
        let Ok(index) = index.parse::<usize>() else { continue };
        if entry.path().is_dir() {
            found.push((index, entry.path()));
        }
    }
    found.sort();
    found.into_iter().map(|(_, p)| p).collect()
}

/// One shard: its diff service and, when persistent, its store directory.
pub struct ShardEntry {
    service: Arc<DiffService>,
    dir: Option<PathBuf>,
}

impl ShardEntry {
    /// Creates a shard entry.
    pub fn new(service: Arc<DiffService>, dir: Option<PathBuf>) -> Self {
        ShardEntry { service, dir }
    }

    /// The shard's diff service.
    pub fn service(&self) -> &Arc<DiffService> {
        &self.service
    }

    /// The shard's durable store directory, when it persists.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }
}

/// Routes spec-addressed requests to their shard and aggregates cross-shard
/// views.  Immutable after construction — request handling shares it behind
/// an `Arc` without any locking.
pub struct ShardRouter {
    shards: Vec<ShardEntry>,
    /// Specs that live somewhere other than where the hash would place
    /// them, recorded at boot from actual store contents.
    overrides: BTreeMap<String, usize>,
}

impl ShardRouter {
    /// Builds a router over the given shards.  Every spec already present
    /// in a shard's store is pinned to that shard (first shard wins on
    /// duplicates), so routing matches reality regardless of how the
    /// directories were populated; specs created later land by hash.
    pub fn new(shards: Vec<ShardEntry>) -> Self {
        assert!(!shards.is_empty(), "a router needs at least one shard");
        let n = shards.len();
        let mut overrides = BTreeMap::new();
        for (i, shard) in shards.iter().enumerate() {
            for name in shard.service().store().spec_names() {
                if shard_of(&name, n) != i {
                    overrides.entry(name).or_insert(i);
                }
            }
        }
        ShardRouter { shards, overrides }
    }

    /// A single-shard router — the unsharded server, unchanged semantics.
    pub fn single(service: Arc<DiffService>, dir: Option<PathBuf>) -> Self {
        ShardRouter::new(vec![ShardEntry::new(service, dir)])
    }

    /// Number of shards.
    #[allow(clippy::len_without_is_empty)] // a router is never empty
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// The shard index responsible for a spec name.
    pub fn shard_index(&self, spec: &str) -> usize {
        match self.overrides.get(spec) {
            Some(i) => *i,
            None => shard_of(spec, self.shards.len()),
        }
    }

    /// The shard responsible for a spec name.
    pub fn shard_for(&self, spec: &str) -> &ShardEntry {
        &self.shards[self.shard_index(spec)]
    }

    /// All shards, in index order (for aggregation and scrapes).
    pub fn shards(&self) -> &[ShardEntry] {
        &self.shards
    }
}

/// Partitions a single-store directory into `n` hash-routed shard
/// directories under `dst` (`dst/shard-000` ... `dst/shard-N-1`), the
/// operator migration path from an unsharded deployment.
///
/// Every shard directory is written even when the hash leaves it empty, so
/// the resulting layout boots with exactly `n` shards.  Cluster caches are
/// not migrated — they are rebuildable caches and each shard re-derives its
/// own.  Returns the per-shard save summaries, in shard order.
#[expect(
    clippy::expect_used,
    reason = "the shard store was created empty lines above, so the first insert of each spec cannot conflict, and runs re-inserted during shard load were validated against the same spec when first stored"
)]
pub fn split_store_into_shards(
    src: impl AsRef<Path>,
    dst: impl AsRef<Path>,
    n: usize,
) -> Result<Vec<SaveSummary>, PersistError> {
    let n = n.max(1);
    let source = WorkflowStore::load_from_dir(src)?;
    let shards: Vec<WorkflowStore> = (0..n).map(|_| WorkflowStore::new()).collect();
    for (name, (spec, runs)) in source.snapshot_all() {
        let target = &shards[shard_of(&name, n)];
        target
            .insert_spec((*spec).clone())
            .expect("fresh shard store cannot conflict on spec insert");
        for (run_name, run) in runs {
            target
                .insert_run(&run_name, (*run).clone())
                .expect("loaded run re-inserts cleanly into its own spec");
        }
    }
    let dst = dst.as_ref();
    let mut summaries = Vec::with_capacity(n);
    for (i, shard) in shards.iter().enumerate() {
        summaries.push(shard.save_to_dir(dst.join(shard_dir_name(i)))?);
    }
    Ok(summaries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfdiff_workloads::figures::{fig2_run1, fig2_specification};

    #[test]
    fn fnv_hash_is_pinned_forever() {
        // These exact values are load-bearing: changing the hash would
        // misroute every existing sharded store.
        assert_eq!(fnv1a_64(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64("fig2"), fnv1a_64("fig2"));
        assert_ne!(fnv1a_64("spec00"), fnv1a_64("spec01"));
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for n in 1..=8 {
            for name in ["fig2", "spec00", "spec01", "a very long specification name"] {
                let i = shard_of(name, n);
                assert!(i < n);
                assert_eq!(i, shard_of(name, n), "routing must be deterministic");
            }
        }
        assert_eq!(shard_of("anything", 1), 0);
    }

    #[test]
    fn router_pins_misplaced_specs_to_where_they_live() {
        // Build two shards and put a spec on the *wrong* one on purpose.
        let stores: Vec<Arc<WorkflowStore>> =
            (0..2).map(|_| Arc::new(WorkflowStore::new())).collect();
        let spec_name = "fig2";
        let hashed = shard_of(spec_name, 2);
        let wrong = 1 - hashed;
        let spec = stores[wrong].insert_spec(fig2_specification()).unwrap();
        stores[wrong].insert_run("r1", fig2_run1(&spec)).unwrap();
        let router = ShardRouter::new(
            stores
                .iter()
                .map(|s| ShardEntry::new(Arc::new(DiffService::new(Arc::clone(s))), None))
                .collect(),
        );
        assert_eq!(router.shard_index(spec_name), wrong, "boot pinning beats the hash");
        assert!(router.shard_for(spec_name).service().store().spec(spec_name).is_some());
        // A spec nobody stores routes by hash.
        assert_eq!(router.shard_index("brand-new"), shard_of("brand-new", 2));
    }

    #[test]
    fn shard_dir_names_round_trip_through_detection() {
        let tmp = std::env::temp_dir().join(format!("wfdiff-shard-detect-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&tmp);
        for i in [2usize, 0, 1] {
            std::fs::create_dir_all(tmp.join(shard_dir_name(i))).unwrap();
        }
        std::fs::create_dir_all(tmp.join("not-a-shard")).unwrap();
        let dirs = detect_shard_dirs(&tmp);
        assert_eq!(dirs.len(), 3);
        assert_eq!(dirs[0].file_name().unwrap().to_str().unwrap(), "shard-000");
        assert_eq!(dirs[2].file_name().unwrap().to_str().unwrap(), "shard-002");
        let _ = std::fs::remove_dir_all(&tmp);
        assert!(detect_shard_dirs(&tmp).is_empty(), "missing root detects as unsharded");
    }
}
