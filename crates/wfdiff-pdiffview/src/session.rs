//! Differencing sessions: compute a diff once, then step through its edit
//! script the way the PDiffView GUI steps through operations.
//!
//! Sessions own shared handles ([`Arc`]) to their specification and runs, so
//! they can be created directly from borrowed values
//! ([`DiffSession::new`] clones) or — the cheap path — from the store-backed
//! handles a [`crate::service::DiffService`] already holds
//! ([`DiffSession::from_arcs`]), optionally sharing a
//! [`DiffCache`] with the rest of the service.

use std::sync::Arc;
use wfdiff_core::script::diff_with_script_prepared;
use wfdiff_core::{
    CostModel, DiffCache, DiffError, DiffResult, EditScript, MappingSummary, PathOperation,
    PreparedRun, RunTables, WorkflowDiff,
};
use wfdiff_sptree::{Run, Specification};

/// A differencing session between two runs of the same specification.
pub struct DiffSession {
    spec: Arc<Specification>,
    source: Arc<Run>,
    target: Arc<Run>,
    result: DiffResult,
    script: EditScript,
    cursor: usize,
}

impl DiffSession {
    /// Computes the diff and edit script for the pair of runs.
    ///
    /// The specification and runs are cloned into shared handles; when they
    /// are already behind [`Arc`]s (e.g. coming out of a
    /// [`crate::WorkflowStore`]) prefer [`DiffSession::from_arcs`].
    pub fn new(
        spec: &Specification,
        cost: &dyn CostModel,
        source: &Run,
        target: &Run,
    ) -> Result<Self, DiffError> {
        DiffSession::from_arcs(
            Arc::new(spec.clone()),
            cost,
            Arc::new(source.clone()),
            Arc::new(target.clone()),
            None,
        )
    }

    /// Computes the diff and edit script from shared handles, optionally
    /// reusing (and warming) a shared diff cache.
    pub fn from_arcs(
        spec: Arc<Specification>,
        cost: &dyn CostModel,
        source: Arc<Run>,
        target: Arc<Run>,
        cache: Option<&dyn DiffCache>,
    ) -> Result<Self, DiffError> {
        let engine = WorkflowDiff::new(&spec, cost);
        let source_tables = Arc::new(engine.prepare_tables(&source, cache)?);
        let target_tables = Arc::new(engine.prepare_tables(&target, cache)?);
        DiffSession::from_prepared(
            spec,
            cost,
            (source, source_tables),
            (target, target_tables),
            cache,
        )
    }

    /// [`DiffSession::from_arcs`] over runs whose [`RunTables`] were
    /// prepared earlier (under `cost`), so only the DP and the script are
    /// computed here.
    pub(crate) fn from_prepared(
        spec: Arc<Specification>,
        cost: &dyn CostModel,
        source: (Arc<Run>, Arc<RunTables>),
        target: (Arc<Run>, Arc<RunTables>),
        cache: Option<&dyn DiffCache>,
    ) -> Result<Self, DiffError> {
        let engine = WorkflowDiff::new(&spec, cost);
        let p1 = PreparedRun::new(&source.0, source.1);
        let p2 = PreparedRun::new(&target.0, target.1);
        let (result, script) = diff_with_script_prepared(&engine, &p1, &p2, cache)?;
        drop((p1, p2));
        Ok(DiffSession { spec, source: source.0, target: target.0, result, script, cursor: 0 })
    }

    /// The specification both runs belong to.
    pub fn spec(&self) -> &Specification {
        &self.spec
    }

    /// The source run (`R1`).
    pub fn source(&self) -> &Run {
        &self.source
    }

    /// The target run (`R2`).
    pub fn target(&self) -> &Run {
        &self.target
    }

    /// The edit distance.
    pub fn distance(&self) -> f64 {
        self.result.distance
    }

    /// The full diff result (mapping and decisions).
    pub fn result(&self) -> &DiffResult {
        &self.result
    }

    /// The edit script.
    pub fn script(&self) -> &EditScript {
        &self.script
    }

    /// Summary statistics of the mapping (matched/deleted/inserted leaves).
    pub fn summary(&self) -> MappingSummary {
        self.result.mapping.summary(self.source.tree(), self.target.tree())
    }

    /// Number of operations in the script.
    pub fn total_steps(&self) -> usize {
        self.script.len()
    }

    /// The index of the next operation to apply (0-based).
    pub fn position(&self) -> usize {
        self.cursor
    }

    /// `true` once every operation has been stepped through.
    pub fn is_finished(&self) -> bool {
        self.cursor >= self.script.len()
    }

    /// Advances to the next operation and returns it, or `None` at the end.
    pub fn step(&mut self) -> Option<&PathOperation> {
        if self.cursor >= self.script.len() {
            return None;
        }
        let op = &self.script.ops[self.cursor];
        self.cursor += 1;
        Some(op)
    }

    /// Steps back to the previous operation and returns it.
    pub fn step_back(&mut self) -> Option<&PathOperation> {
        if self.cursor == 0 {
            return None;
        }
        self.cursor -= 1;
        Some(&self.script.ops[self.cursor])
    }

    /// Resets the cursor to the beginning of the script.
    pub fn reset(&mut self) {
        self.cursor = 0;
    }

    /// The operations applied so far.
    pub fn applied(&self) -> &[PathOperation] {
        &self.script.ops[..self.cursor]
    }

    /// The operations still to apply.
    pub fn remaining(&self) -> &[PathOperation] {
        &self.script.ops[self.cursor..]
    }

    /// A one-paragraph overview of the session, mirroring the statistics pane
    /// of the prototype.
    pub fn overview(&self) -> String {
        let s = self.summary();
        format!(
            "spec {spec}: source run {sn} nodes / {se} edges, target run {tn} nodes / {te} edges; \
             distance {d} with {ops} operations ({ins} insertions, {del} deletions); \
             {kept} leaf edges matched, {dl} deleted, {il} inserted",
            spec = self.spec.name(),
            sn = self.source.node_count(),
            se = self.source.edge_count(),
            tn = self.target.node_count(),
            te = self.target.edge_count(),
            d = self.distance(),
            ops = self.script.len(),
            ins = self.script.insertions(),
            del = self.script.deletions(),
            kept = s.mapped_leaves,
            dl = s.deleted_leaves,
            il = s.inserted_leaves,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfdiff_core::UnitCost;
    use wfdiff_workloads::figures::{fig2_run1, fig2_run2, fig2_specification};

    #[test]
    fn session_steps_through_all_operations() {
        let spec = fig2_specification();
        let r1 = fig2_run1(&spec);
        let r2 = fig2_run2(&spec);
        let mut session = DiffSession::new(&spec, &UnitCost, &r1, &r2).unwrap();
        assert_eq!(session.distance(), 4.0);
        assert_eq!(session.total_steps(), 4);
        let mut seen = 0;
        while let Some(op) = session.step() {
            assert!(op.cost > 0.0);
            seen += 1;
        }
        assert_eq!(seen, 4);
        assert!(session.is_finished());
        assert!(session.step().is_none());
        assert_eq!(session.applied().len(), 4);
        assert!(session.remaining().is_empty());
        // Step back and forward again.
        assert!(session.step_back().is_some());
        assert_eq!(session.position(), 3);
        session.reset();
        assert_eq!(session.position(), 0);
    }

    #[test]
    fn overview_mentions_the_key_numbers() {
        let spec = fig2_specification();
        let r1 = fig2_run1(&spec);
        let r2 = fig2_run2(&spec);
        let session = DiffSession::new(&spec, &UnitCost, &r1, &r2).unwrap();
        let text = session.overview();
        assert!(text.contains("fig2"));
        assert!(text.contains("distance 4"));
        assert!(text.contains("8 edges"));
        assert!(text.contains("14 edges"));
    }

    #[test]
    fn identical_runs_have_an_empty_session() {
        let spec = fig2_specification();
        let r1 = fig2_run1(&spec);
        let r1b = fig2_run1(&spec);
        let mut session = DiffSession::new(&spec, &UnitCost, &r1, &r1b).unwrap();
        assert_eq!(session.distance(), 0.0);
        assert!(session.is_finished() || session.step().is_none());
        let s = session.summary();
        assert_eq!(s.deleted_leaves + s.inserted_leaves, 0);
    }
}
