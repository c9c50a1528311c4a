//! The `cluster_cache.json` checkpoint of an [`IncrementalClusterIndex`].
//!
//! This module holds only what is particular to clusterings: the entry
//! type and the structural half of validating one (medoids, assignments,
//! memoised distances, silhouette and cost).  Saving as WAL deltas (kind 3),
//! folding into [`CLUSTER_CACHE_FILE`], loading, the store-facing checks and
//! the dirty tracking are the shared mechanism of [`crate::derived`];
//! [`DiffService::save_cluster_state`] and
//! [`DiffService::load_cluster_state`] drive it (the `wfdiff_serve` boot
//! sequence calls the latter right after
//! [`DiffService::warm_start`](crate::service::DiffService::warm_start)).
//!
//! [`DiffService::save_cluster_state`]: crate::service::DiffService::save_cluster_state
//! [`DiffService::load_cluster_state`]: crate::service::DiffService::load_cluster_state

use super::incremental::{IncrementalClusterIndex, SpecClusterState};
use crate::derived::{DerivedIndex, EntryKey, SpecStates};
use crate::wal::DerivedKind;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use wfdiff_sptree::Fingerprint;

/// Version tag of the cluster-cache artifact; unknown versions are treated
/// as stale (rebuilt), never as errors.
pub const CLUSTER_CACHE_FORMAT: u32 = 1;

/// File name of the artifact inside a store directory.
pub const CLUSTER_CACHE_FILE: &str = "cluster_cache.json";

/// One specification's checkpointed clustering, in `cluster_cache.json` and
/// in a kind-3 WAL record alike: the WAL holds whole per-spec snapshots
/// (last write wins), never partial diffs, so a delta validates exactly like
/// a file entry.
#[derive(Debug, Serialize, Deserialize)]
pub(crate) struct SpecClusterDoc {
    spec: String,
    /// Version fingerprint (hex) of the specification the clustering was
    /// computed against; must match the loaded store's version exactly.
    spec_fingerprint: String,
    k: usize,
    seed: u64,
    /// Clustered runs, strictly ascending.
    members: Vec<String>,
    /// Canonical tree fingerprint (hex) of each member's run **content**,
    /// aligned with `members`.  Without this, replacing a run under an
    /// unchanged name would let a checkpoint full of distances computed
    /// against the old content validate as fresh.
    run_fingerprints: Vec<String>,
    /// Cluster id per member, aligned with `members`.
    assignments: Vec<usize>,
    /// Medoid run names, one per cluster.
    medoids: Vec<String>,
    /// Memoised distances, `i < j` indexing `members`.
    distances: Vec<DistanceEntry>,
    silhouette: f64,
    cost: f64,
}

/// One memoised distance of a [`SpecClusterDoc`].
#[derive(Debug, Serialize, Deserialize)]
struct DistanceEntry {
    /// Lower member index.
    i: usize,
    /// Higher member index.
    j: usize,
    /// The edit distance.
    d: f64,
}

impl DerivedIndex for IncrementalClusterIndex {
    type State = SpecClusterState;
    type Doc = SpecClusterDoc;
    const FILE: &'static str = CLUSTER_CACHE_FILE;
    const FORMAT: u32 = CLUSTER_CACHE_FORMAT;
    const KIND: DerivedKind = DerivedKind::Cluster;

    fn states(&self) -> &SpecStates<SpecClusterState> {
        &self.states
    }

    fn members(state: &SpecClusterState) -> &[String] {
        &state.members
    }

    fn to_doc(
        spec: &str,
        state: &SpecClusterState,
        run_fingerprints: Vec<String>,
    ) -> SpecClusterDoc {
        let index_of: HashMap<&str, usize> =
            state.members.iter().enumerate().map(|(i, m)| (m.as_str(), i)).collect();
        let mut distances: Vec<DistanceEntry> = state
            .distances
            .iter()
            .filter_map(|((a, b), &d)| {
                // Entries for runs that have since been removed are already
                // pruned by the index; be defensive anyway.
                let (i, j) = (*index_of.get(a.as_str())?, *index_of.get(b.as_str())?);
                Some(DistanceEntry { i: i.min(j), j: i.max(j), d })
            })
            .collect();
        distances.sort_by_key(|x| (x.i, x.j));
        SpecClusterDoc {
            spec: spec.to_string(),
            spec_fingerprint: state.version.to_string(),
            k: state.k,
            seed: state.seed,
            members: state.members.clone(),
            run_fingerprints,
            assignments: state.members.iter().map(|m| state.assignments[m]).collect(),
            medoids: state.medoids.clone(),
            distances,
            silhouette: state.silhouette,
            cost: state.cost,
        }
    }

    fn key(doc: &SpecClusterDoc) -> EntryKey<'_> {
        EntryKey {
            spec: &doc.spec,
            spec_fingerprint: &doc.spec_fingerprint,
            members: &doc.members,
            run_fingerprints: &doc.run_fingerprints,
        }
    }

    fn to_state(doc: SpecClusterDoc, version: Fingerprint) -> Option<SpecClusterState> {
        let n = doc.members.len();
        let clusters = doc.medoids.len();
        if doc.k == 0 || clusters != doc.k.clamp(1, n) {
            return None;
        }
        // Medoids: distinct members, ascending (the index's normal form), and
        // every assignment must point at an existing cluster with the medoid
        // assigned to itself.
        if !doc.medoids.windows(2).all(|w| w[0] < w[1]) || doc.assignments.len() != n {
            return None;
        }
        let member_index: HashMap<&str, usize> =
            doc.members.iter().enumerate().map(|(i, m)| (m.as_str(), i)).collect();
        for (c, medoid) in doc.medoids.iter().enumerate() {
            let &m = member_index.get(medoid.as_str())?;
            if doc.assignments[m] != c {
                return None;
            }
        }
        if doc.assignments.iter().any(|&a| a >= clusters) {
            return None;
        }
        if !doc.silhouette.is_finite()
            || !(-1.0..=1.0).contains(&doc.silhouette)
            || !doc.cost.is_finite()
            || doc.cost < 0.0
        {
            return None;
        }
        let mut distances = HashMap::with_capacity(doc.distances.len());
        for &DistanceEntry { i, j, d } in &doc.distances {
            if i >= j || j >= n || !d.is_finite() || d < 0.0 {
                return None;
            }
            if distances.insert((doc.members[i].clone(), doc.members[j].clone()), d).is_some() {
                return None;
            }
        }
        let assignments = doc.members.iter().cloned().zip(doc.assignments).collect();
        Some(SpecClusterState {
            k: doc.k,
            seed: doc.seed,
            version,
            members: doc.members,
            assignments,
            medoids: doc.medoids,
            distances,
            silhouette: doc.silhouette,
            cost: doc.cost,
            pivots: None,
        })
    }
}
