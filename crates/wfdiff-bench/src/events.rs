//! Node-lifecycle event derivation shared by the streaming experiments.
//!
//! Both the crash-torture streamed-ingest op and wfbench's `ingest` workload
//! feed generated runs through the streaming API event by event; this module
//! turns a validated run into the canonical legal event sequence they use.

use wfdiff_graph::NodeId;
use wfdiff_pdiffview::StreamEvent;
use wfdiff_sptree::Run;

/// Derives a legal node-lifecycle event sequence from a validated run: a
/// deterministic (smallest-id-first) topological order of the run DAG, every
/// instance started after its predecessors completed and completed
/// immediately.  Parallel duplicate edges collapse to one predecessor
/// reference — the builder's `preds` list is a set.
pub fn lifecycle_events(run: &Run) -> Vec<StreamEvent> {
    let g = run.graph();
    let n = g.node_count();
    let mut indegree = vec![0usize; n];
    for (_, e) in g.edges() {
        indegree[e.dst.index()] += 1;
    }
    let mut ready: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    ready.sort_unstable_by(|a, b| b.cmp(a));
    let mut event_index = vec![usize::MAX; n];
    let mut events = Vec::with_capacity(2 * n);
    let mut emitted = 0;
    while let Some(node) = ready.pop() {
        let id = NodeId(node as u32);
        event_index[node] = emitted;
        let mut preds: Vec<usize> =
            g.in_edges(id).iter().map(|&e| event_index[g.edge(e).src.index()]).collect();
        preds.sort_unstable();
        preds.dedup();
        events.push(StreamEvent::started(emitted, g.label(id).as_str(), preds));
        events.push(StreamEvent::completed(emitted));
        emitted += 1;
        for &e in g.out_edges(id) {
            let dst = g.edge(e).dst.index();
            indegree[dst] -= 1;
            if indegree[dst] == 0 {
                let pos = ready.binary_search_by(|x| dst.cmp(x)).unwrap_err();
                ready.insert(pos, dst);
            }
        }
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use std::sync::Arc;
    use wfdiff_pdiffview::PartialRun;
    use wfdiff_workloads::generator::{random_specification, SpecGenConfig};
    use wfdiff_workloads::runs::{generate_run, RunGenConfig};

    #[test]
    fn derived_events_apply_cleanly_and_finalise() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        let spec = Arc::new(random_specification(
            "ev",
            &SpecGenConfig { target_edges: 16, series_parallel_ratio: 1.0, forks: 2, loops: 1 },
            &mut rng,
        ));
        let run = generate_run(
            &spec,
            &RunGenConfig { prob_p: 0.7, max_f: 2, prob_f: 0.5, max_l: 2, prob_l: 0.5 },
            &mut rng,
        );
        let events = lifecycle_events(&run);
        assert_eq!(events.len(), 2 * run.graph().node_count());
        let mut partial = PartialRun::new(Arc::clone(&spec));
        for event in &events {
            partial.apply(event).expect("derived events are legal");
        }
        assert!(partial.is_complete());
        partial.finalize().expect("complete streams finalise");
    }
}
