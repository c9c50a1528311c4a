//! Streaming run ingestion: building a run *while it executes* from ordered
//! node-lifecycle events.
//!
//! A workflow engine reports one event per state transition of a node
//! instance — `started`, then exactly one of `completed` / `error` /
//! `cancelled` — following the node-state legality of dashflow's
//! `GraphExecution` specification: a node may only start once every one of
//! its predecessors has completed, and a terminal state is absorbing.
//! [`PartialRun`] consumes those events, validates each against the
//! specification *as it arrives* (unknown label pairs, double starts,
//! events after a terminal state and malformed predecessor lists are all
//! rejected with a typed [`StreamError`] and leave the builder unchanged),
//! and maintains the [`PrefixProfile`] that
//! [`WorkflowDiff::prefix_distance`](wfdiff_core::WorkflowDiff::prefix_distance)
//! turns into a certified, monotone lower bound on the final run's distance
//! to any reference run — the quantity the service layer's drift monitor
//! compares against cluster radii.
//!
//! Node instances are *declared by their `started` events*, in order: event
//! `started { node: i }` must carry `i ==` the number of nodes declared so
//! far, its label must name a specification node, and its predecessor edges
//! must instantiate specification edges (or loop back-edges, which separate
//! iterations and are not leaves).  Nothing about the eventual shape of the
//! run is known up front — which is exactly why the prefix bound is the
//! strongest sound statement a monitor can make.
//!
//! Once every declared node has completed, [`PartialRun::finalize`]
//! materialises the graph and validates it end-to-end through
//! [`Run::from_graph`] — the same Algorithm 2/5 replay a whole-run insert
//! goes through, so a streamed run and a whole run are indistinguishable
//! once stored.  A stream holding an `error` or `cancelled` node can never
//! finalize; it stays in-flight until an operator removes it (see the
//! "stuck in-flight runs" runbook entry in `docs/OPERATIONS.md`).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;
use wfdiff_core::{PrefixEdgeClass, PrefixProfile};
use wfdiff_graph::{Label, LabeledDigraph};
use wfdiff_sptree::{Run, SpTreeError, Specification};

/// The lifecycle transition an event reports (the wire value is the variant
/// name, e.g. `"Started"`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// The node instance became active (and is hereby *declared*).
    Started,
    /// The node instance finished successfully.
    Completed,
    /// The node instance failed.
    Error,
    /// The node instance was cancelled.
    Cancelled,
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EventKind::Started => "started",
            EventKind::Completed => "completed",
            EventKind::Error => "error",
            EventKind::Cancelled => "cancelled",
        };
        f.write_str(s)
    }
}

/// One node-lifecycle event of an executing run, as reported by the engine
/// (and as serialised in `POST /runs/stream` bodies and kind-5 WAL records).
///
/// `label` and `preds` are only meaningful for [`EventKind::Started`] — a
/// `Started { node }` event *declares* instance `node`: `node` must equal
/// the number of instances declared so far, `label` must name a
/// specification node, and every predecessor must be an already-completed
/// instance whose label pair with `label` is a specification edge or a loop
/// back-edge.  Terminal events ignore both fields.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamEvent {
    /// Which transition happened.
    pub kind: EventKind,
    /// Zero-based instance index; `Started` indices must arrive
    /// contiguously.
    pub node: usize,
    /// For `Started`: the specification node this instance executes.
    #[serde(default)]
    pub label: String,
    /// For `Started`: indices of the instances whose outputs this one
    /// consumes; empty exactly for the source instance.
    #[serde(default)]
    pub preds: Vec<usize>,
}

impl StreamEvent {
    /// A `Started` event declaring instance `node`.
    pub fn started(node: usize, label: impl Into<String>, preds: Vec<usize>) -> StreamEvent {
        StreamEvent { kind: EventKind::Started, node, label: label.into(), preds }
    }

    /// A `Completed` event for instance `node`.
    pub fn completed(node: usize) -> StreamEvent {
        StreamEvent { kind: EventKind::Completed, node, label: String::new(), preds: Vec::new() }
    }

    /// An `Error` event for instance `node`.
    pub fn error(node: usize) -> StreamEvent {
        StreamEvent { kind: EventKind::Error, node, label: String::new(), preds: Vec::new() }
    }

    /// A `Cancelled` event for instance `node`.
    pub fn cancelled(node: usize) -> StreamEvent {
        StreamEvent { kind: EventKind::Cancelled, node, label: String::new(), preds: Vec::new() }
    }
}

/// The lifecycle state of one declared node instance.  `Completed`, `Error`
/// and `Cancelled` are absorbing: any further event on the instance is a
/// [`StreamError::NotActive`] conflict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum NodeState {
    /// Started, not yet terminal.
    Active,
    /// Finished successfully.
    Completed,
    /// Failed.
    Error,
    /// Cancelled.
    Cancelled,
}

impl fmt::Display for NodeState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            NodeState::Active => "active",
            NodeState::Completed => "completed",
            NodeState::Error => "error",
            NodeState::Cancelled => "cancelled",
        };
        f.write_str(s)
    }
}

/// Why an event (or a finalisation) was rejected.  Structural errors mean
/// the event could never be valid for this stream; conflicts mean it clashes
/// with the stream's current state (the HTTP layer maps them to 400 and 409
/// respectively, see [`StreamError::is_conflict`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// A `started` event skipped ahead: instances must be declared
    /// contiguously.
    NonContiguousNode {
        /// The index the event carried.
        node: usize,
        /// The index the stream expected next.
        expected: usize,
    },
    /// A `started` event re-declared an existing instance.
    DuplicateStart {
        /// The already-declared index.
        node: usize,
    },
    /// An event referenced an instance that was never declared.
    UnknownNode {
        /// The undeclared index.
        node: usize,
    },
    /// A terminal event hit an instance that is not active.
    NotActive {
        /// The instance index.
        node: usize,
        /// The state it is actually in.
        state: NodeState,
    },
    /// The first instance must execute the specification source, with no
    /// predecessors.
    BadSource {
        /// The label the event carried.
        label: String,
        /// The specification's source label.
        expected: String,
    },
    /// A non-source instance declared no predecessors, which would make the
    /// run graph disconnected.
    MissingPreds {
        /// The instance index.
        node: usize,
    },
    /// A predecessor index is not an earlier declared instance.
    BadPred {
        /// The instance index.
        node: usize,
        /// The offending predecessor index.
        pred: usize,
    },
    /// The same predecessor was listed twice (runs are simple graphs).
    DuplicatePred {
        /// The instance index.
        node: usize,
        /// The repeated predecessor index.
        pred: usize,
    },
    /// A predecessor has not completed, so the dependency edge cannot exist
    /// yet (`GraphExecution`'s safety invariant).
    PredNotCompleted {
        /// The instance index.
        node: usize,
        /// The not-yet-completed predecessor.
        pred: usize,
    },
    /// The label pair of a dependency edge matches neither a specification
    /// edge nor a loop back-edge — no completion of this prefix could ever
    /// validate.
    UnknownEdge {
        /// Source label of the offending edge.
        from: String,
        /// Target label of the offending edge.
        to: String,
    },
    /// Finalisation was requested while instances are still active or
    /// terminally failed; the counts say which.
    Incomplete {
        /// Instances still active.
        active: usize,
        /// Instances in `error` or `cancelled` state (the stream can never
        /// finalize while these exist).
        failed: usize,
    },
    /// The completed event sequence does not assemble into a valid run of
    /// the specification (end-to-end validation at finalisation).
    InvalidRun(SpTreeError),
}

impl StreamError {
    /// `true` for state conflicts (HTTP 409): the event might have been
    /// valid in another stream state.  `false` for structural errors (HTTP
    /// 400): the event could never be valid.
    pub fn is_conflict(&self) -> bool {
        matches!(
            self,
            StreamError::DuplicateStart { .. }
                | StreamError::NotActive { .. }
                | StreamError::PredNotCompleted { .. }
                | StreamError::Incomplete { .. }
        )
    }
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::NonContiguousNode { node, expected } => {
                write!(f, "started node {node} out of order (expected {expected})")
            }
            StreamError::DuplicateStart { node } => {
                write!(f, "node {node} was already started")
            }
            StreamError::UnknownNode { node } => {
                write!(f, "event references undeclared node {node}")
            }
            StreamError::NotActive { node, state } => {
                write!(f, "node {node} is {state}, not active")
            }
            StreamError::BadSource { label, expected } => {
                write!(f, "first node must be the source `{expected}`, got `{label}`")
            }
            StreamError::MissingPreds { node } => {
                write!(f, "non-source node {node} declared no predecessors")
            }
            StreamError::BadPred { node, pred } => {
                write!(f, "node {node} lists predecessor {pred}, which is not an earlier node")
            }
            StreamError::DuplicatePred { node, pred } => {
                write!(f, "node {node} lists predecessor {pred} twice")
            }
            StreamError::PredNotCompleted { node, pred } => {
                write!(f, "node {node} started before predecessor {pred} completed")
            }
            StreamError::UnknownEdge { from, to } => {
                write!(f, "`{from}` -> `{to}` is neither a specification edge nor a loop back-edge")
            }
            StreamError::Incomplete { active, failed } => {
                write!(f, "stream cannot finalize: {active} node(s) still active, {failed} failed")
            }
            StreamError::InvalidRun(e) => write!(f, "completed stream is not a valid run: {e}"),
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::InvalidRun(e) => Some(e),
            _ => None,
        }
    }
}

/// An in-flight streamed run: the event-sourced builder behind
/// `POST /runs/stream`.
///
/// Apply events with [`PartialRun::apply`]; each either commits atomically
/// or returns a [`StreamError`] leaving the builder untouched, so a batch
/// can be validated on a clone and swapped in only when every event is
/// accepted.  The embedded [`PrefixProfile`] is kept exactly in sync with
/// the declared dependency edges, ready for
/// [`prefix_distance`](wfdiff_core::WorkflowDiff::prefix_distance) at any
/// moment.
#[derive(Debug, Clone)]
pub struct PartialRun {
    spec: Arc<Specification>,
    profile: PrefixProfile,
    labels: Vec<Label>,
    preds: Vec<Vec<usize>>,
    states: Vec<NodeState>,
    applied: u64,
}

impl PartialRun {
    /// Opens an empty stream against `spec`.
    pub fn new(spec: Arc<Specification>) -> PartialRun {
        let profile = PrefixProfile::new(&spec);
        PartialRun {
            spec,
            profile,
            labels: Vec::new(),
            preds: Vec::new(),
            states: Vec::new(),
            applied: 0,
        }
    }

    /// The specification the stream was opened against.
    pub fn spec(&self) -> &Arc<Specification> {
        &self.spec
    }

    /// The live prefix profile (completed leaves per specification edge).
    pub fn profile(&self) -> &PrefixProfile {
        &self.profile
    }

    /// Events applied so far — the sequence number of the next event.
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// Declared node instances.
    pub fn node_count(&self) -> usize {
        self.states.len()
    }

    /// The state of a declared instance.
    pub fn state(&self, node: usize) -> Option<NodeState> {
        self.states.get(node).copied()
    }

    /// `true` once at least one instance is declared and every declared
    /// instance has completed — the only state [`PartialRun::finalize`]
    /// accepts.
    pub fn is_complete(&self) -> bool {
        !self.states.is_empty() && self.states.iter().all(|s| *s == NodeState::Completed)
    }

    /// Instances currently in `error` or `cancelled` state.
    pub fn failed_nodes(&self) -> usize {
        self.states.iter().filter(|s| matches!(s, NodeState::Error | NodeState::Cancelled)).count()
    }

    /// Applies one event.  On `Err` the builder is unchanged.
    pub fn apply(&mut self, event: &StreamEvent) -> Result<(), StreamError> {
        match event.kind {
            EventKind::Started => self.start(event.node, &event.label, &event.preds)?,
            EventKind::Completed => self.transition(event.node, NodeState::Completed)?,
            EventKind::Error => self.transition(event.node, NodeState::Error)?,
            EventKind::Cancelled => self.transition(event.node, NodeState::Cancelled)?,
        }
        self.applied += 1;
        Ok(())
    }

    fn start(&mut self, node: usize, label: &str, preds: &[usize]) -> Result<(), StreamError> {
        let expected = self.labels.len();
        if node < expected {
            return Err(StreamError::DuplicateStart { node });
        }
        if node > expected {
            return Err(StreamError::NonContiguousNode { node, expected });
        }
        let label = Label::new(label);
        if expected == 0 {
            let source = self.spec.graph().label(self.spec.sp().source()).clone();
            if !preds.is_empty() {
                return Err(StreamError::BadPred { node, pred: preds[0] });
            }
            if label != source {
                return Err(StreamError::BadSource {
                    label: label.to_string(),
                    expected: source.to_string(),
                });
            }
        } else {
            if preds.is_empty() {
                return Err(StreamError::MissingPreds { node });
            }
            let mut seen = std::collections::HashSet::new();
            for &pred in preds {
                if pred >= expected {
                    return Err(StreamError::BadPred { node, pred });
                }
                if !seen.insert(pred) {
                    return Err(StreamError::DuplicatePred { node, pred });
                }
                if self.states[pred] != NodeState::Completed {
                    return Err(StreamError::PredNotCompleted { node, pred });
                }
                let key = (self.labels[pred].clone(), label.clone());
                if !self.spec.edge_by_labels().contains_key(&key)
                    && !self.spec.loop_back_labels().contains(&key)
                {
                    return Err(StreamError::UnknownEdge {
                        from: key.0.to_string(),
                        to: key.1.to_string(),
                    });
                }
            }
        }
        // Every edge pre-validated: record into the profile (infallible now).
        for &pred in preds {
            let class = self.profile.record_edge(&self.spec, &self.labels[pred], &label);
            debug_assert!(
                matches!(class, Some(PrefixEdgeClass::Leaf | PrefixEdgeClass::LoopBack)),
                "pre-validated edge must classify"
            );
        }
        self.labels.push(label);
        self.preds.push(preds.to_vec());
        self.states.push(NodeState::Active);
        Ok(())
    }

    fn transition(&mut self, node: usize, to: NodeState) -> Result<(), StreamError> {
        match self.states.get(node).copied() {
            None => Err(StreamError::UnknownNode { node }),
            Some(NodeState::Active) => {
                self.states[node] = to;
                Ok(())
            }
            Some(state) => Err(StreamError::NotActive { node, state }),
        }
    }

    /// Materialises the completed stream as a fully validated [`Run`] — the
    /// same Algorithm 2/5 validation a whole-run insert goes through.
    /// Requires [`PartialRun::is_complete`]; streams with failed nodes can
    /// never finalize.
    pub fn finalize(&self) -> Result<Run, StreamError> {
        if !self.is_complete() {
            let active = self.states.iter().filter(|s| matches!(s, NodeState::Active)).count();
            return Err(StreamError::Incomplete { active, failed: self.failed_nodes() });
        }
        let mut graph = LabeledDigraph::new();
        let ids: Vec<_> = self.labels.iter().map(|l| graph.add_node(l.clone())).collect();
        for (node, preds) in self.preds.iter().enumerate() {
            for &pred in preds {
                graph.add_edge(ids[pred], ids[node]);
            }
        }
        Run::from_graph(&self.spec, graph).map_err(StreamError::InvalidRun)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfdiff_core::{UnitCost, WorkflowDiff};

    fn spec() -> Arc<Specification> {
        Arc::new(wfdiff_workloads::figures::fig2_specification())
    }

    fn started(node: usize, label: &str, preds: &[usize]) -> StreamEvent {
        StreamEvent::started(node, label, preds.to_vec())
    }

    fn completed(node: usize) -> StreamEvent {
        StreamEvent::completed(node)
    }

    /// Streams fig2's single-branch run 1 -> 2 -> 3 -> 6 -> 7 to completion.
    fn stream_branch(spec: &Arc<Specification>, branch: &str) -> PartialRun {
        let mut p = PartialRun::new(Arc::clone(spec));
        let labels = ["1", "2", branch, "6", "7"];
        for (i, label) in labels.iter().enumerate() {
            let preds: &[usize] = if i == 0 { &[] } else { &[i - 1] };
            p.apply(&started(i, label, preds)).unwrap();
            p.apply(&completed(i)).unwrap();
        }
        p
    }

    #[test]
    fn a_streamed_run_finalizes_to_the_same_run_as_a_whole_insert() {
        let spec = spec();
        let streamed = stream_branch(&spec, "3").finalize().unwrap();
        let mut g = LabeledDigraph::new();
        let ids: Vec<_> = ["1", "2", "3", "6", "7"].iter().map(|l| g.add_node(*l)).collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1]);
        }
        let whole = Run::from_graph(&spec, g).unwrap();
        let engine = WorkflowDiff::new(&spec, &UnitCost);
        assert_eq!(engine.distance(&streamed, &whole).unwrap(), 0.0);
    }

    #[test]
    fn profile_tracks_leaves_and_prefix_bound_converges() {
        let spec = spec();
        let p = stream_branch(&spec, "3");
        assert_eq!(p.profile().completed_leaves(), 4);
        let reference = stream_branch(&spec, "5").finalize().unwrap();
        let engine = WorkflowDiff::new(&spec, &UnitCost);
        let prepared_ref = engine.prepare(&reference, None).unwrap();
        let bound = engine.prefix_distance(p.profile(), None, &prepared_ref, None).unwrap();
        let this = p.finalize().unwrap();
        let prepared = engine.prepare(&this, None).unwrap();
        let exact = engine.distance_prepared(&prepared, &prepared_ref, None).unwrap();
        assert!(bound > 0.0 && bound <= exact);
    }

    #[test]
    fn structural_errors_are_typed_and_leave_the_builder_unchanged() {
        let spec = spec();
        let mut p = PartialRun::new(Arc::clone(&spec));
        // Wrong source label.
        let err = p.apply(&started(0, "2", &[])).unwrap_err();
        assert!(matches!(err, StreamError::BadSource { .. }) && !err.is_conflict());
        // Non-contiguous declaration.
        let err = p.apply(&started(3, "2", &[0])).unwrap_err();
        assert!(matches!(err, StreamError::NonContiguousNode { expected: 0, .. }));
        assert_eq!(p.node_count(), 0);
        assert_eq!(p.applied(), 0);

        p.apply(&started(0, "1", &[])).unwrap();
        // Terminal event on an undeclared node.
        assert!(matches!(
            p.apply(&completed(7)).unwrap_err(),
            StreamError::UnknownNode { node: 7 }
        ));
        // Successor starting before its predecessor completed: a conflict.
        let err = p.apply(&started(1, "2", &[0])).unwrap_err();
        assert!(matches!(err, StreamError::PredNotCompleted { node: 1, pred: 0 }));
        assert!(err.is_conflict());
        p.apply(&completed(0)).unwrap();
        // Unknown label pair.
        assert!(matches!(
            p.apply(&started(1, "7", &[0])).unwrap_err(),
            StreamError::UnknownEdge { .. }
        ));
        p.apply(&started(1, "2", &[0])).unwrap();
        // Double start and double completion.
        let err = p.apply(&started(1, "2", &[0])).unwrap_err();
        assert!(matches!(err, StreamError::DuplicateStart { node: 1 }) && err.is_conflict());
        p.apply(&completed(1)).unwrap();
        let err = p.apply(&completed(1)).unwrap_err();
        assert!(
            matches!(err, StreamError::NotActive { node: 1, state: NodeState::Completed })
                && err.is_conflict()
        );
        // Profile only holds the one accepted edge.
        assert_eq!(p.profile().completed_leaves(), 1);
    }

    #[test]
    fn failed_streams_never_finalize() {
        let spec = spec();
        let mut p = PartialRun::new(Arc::clone(&spec));
        p.apply(&started(0, "1", &[])).unwrap();
        p.apply(&StreamEvent::error(0)).unwrap();
        let err = p.finalize().unwrap_err();
        assert!(matches!(err, StreamError::Incomplete { active: 0, failed: 1 }));
        assert!(err.is_conflict());
        // Terminal states are absorbing: no resurrection.
        assert!(matches!(
            p.apply(&completed(0)).unwrap_err(),
            StreamError::NotActive { state: NodeState::Error, .. }
        ));
    }

    #[test]
    fn loop_back_edges_separate_iterations_without_counting_as_leaves() {
        let spec = spec();
        let mut p = PartialRun::new(Arc::clone(&spec));
        // Two loop iterations: 1 -> 2 -> 3 -> 6 =(back)=> 2 -> 4 -> 6 -> 7.
        let seq: [(&str, &[usize]); 8] = [
            ("1", &[]),
            ("2", &[0]),
            ("3", &[1]),
            ("6", &[2]),
            ("2", &[3]), // loop back-edge 6 -> 2
            ("4", &[4]),
            ("6", &[5]),
            ("7", &[6]),
        ];
        for (i, (label, preds)) in seq.iter().enumerate() {
            p.apply(&started(i, label, preds)).unwrap();
            p.apply(&completed(i)).unwrap();
        }
        // 7 declared edges, one of which is the back edge: 6 leaves.
        assert_eq!(p.profile().completed_leaves(), 6);
        p.finalize().unwrap();
    }

    #[test]
    fn events_round_trip_through_serde() {
        let events = vec![
            started(0, "1", &[]),
            completed(0),
            StreamEvent::error(3),
            StreamEvent::cancelled(4),
        ];
        let json = serde_json::to_string(&events).unwrap();
        let back: Vec<StreamEvent> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, events);
        assert!(json.contains("\"Started\""), "kind is the tagged wire field: {json}");
        // `label`/`preds` may be omitted for terminal events.
        let sparse: StreamEvent =
            serde_json::from_str("{\"kind\":\"Completed\",\"node\":2}").unwrap();
        assert_eq!(sparse, completed(2));
    }
}
