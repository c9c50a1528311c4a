//! Output checks, run after the timed windows.
//!
//! Served `/diff`, `/diff/batch`, `/similar` and k-medoids answers must
//! equal a local [`DiffService`] recompute bit for bit.  Every streamed
//! batch is replayed into a local [`PartialRun`]; its drift verdict must
//! carry the same counters, and each cluster's certified lower bound must
//! equal a local `prefix_distance` against the named medoid (the medoid set
//! and radii depend on how two writers' inserts interleaved, so those are
//! checked for consistency instead).  After a SIGKILL, every acknowledged
//! insert and finalised stream must be in the reloaded store.

use crate::live::Sample;
use crate::workload::{boot_run_name, Key, Plan, CLUSTER_K, SIMILAR_K};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::Arc;
use wfdiff_core::{DiffCache, ShardedDiffCache, UnitCost, WorkflowDiff};
use wfdiff_pdiffview::serve::api::{
    BatchDiffResponse, DiffResponse, InsertRunResponse, KMedoidsResponse, RunsResponse,
    SimilarResponse, SpecsResponse, StreamEventsResponse,
};
use wfdiff_pdiffview::{
    AllPairsResult, DiffService, PartialRun, WorkflowStore, DEFAULT_CLUSTER_SEED,
};
use wfdiff_sptree::Run;

/// Failed operations found by the checks.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Operations that failed, were refused, or answered wrongly.
    pub failed: usize,
    /// The first few failure descriptions.
    pub messages: Vec<String>,
}

impl Verdict {
    /// Records one failed operation.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.messages.len() < 20 {
            self.messages.push(message);
        }
    }
}

/// Writes one client acknowledged in one repetition.
#[derive(Debug, Default, Clone)]
pub struct Acked {
    /// Names of runs stored by `201` answers (inserts and finalised streams).
    pub names: Vec<String>,
}

/// Recomputes answers locally and compares them with the served ones.
pub struct Checker<'a> {
    plan: &'a Plan,
    local: DiffService,
    cache: ShardedDiffCache,
    diffs: HashMap<(u32, u32), f64>,
    batches: HashMap<u32, Vec<f64>>,
    similar: HashMap<u32, Vec<(String, f64)>>,
    matrix: Option<AllPairsResult>,
    cluster: Option<String>,
    named: HashMap<String, Arc<Run>>,
}

impl<'a> Checker<'a> {
    /// A checker over the plan's boot store.
    pub fn new(plan: &'a Plan, store: Arc<WorkflowStore>) -> Checker<'a> {
        Checker {
            plan,
            local: DiffService::new(store),
            cache: ShardedDiffCache::default(),
            diffs: HashMap::new(),
            batches: HashMap::new(),
            similar: HashMap::new(),
            matrix: None,
            cluster: None,
            named: HashMap::new(),
        }
    }

    fn spec(&self) -> &str {
        self.plan.spec_name()
    }

    /// Checks every sample of one window (grouped per client in send
    /// order, as [`crate::live::run`] returns them) and returns the writes
    /// acknowledged per repetition.
    pub fn check_samples(
        &mut self,
        samples: &[Sample],
        verdict: &mut Verdict,
    ) -> BTreeMap<u16, Acked> {
        let mut acked: BTreeMap<u16, Acked> = BTreeMap::new();
        let mut streams: HashMap<(u16, u16, u32), PartialRun> = HashMap::new();
        for s in samples {
            let req = &self.plan.clients[s.client as usize].requests[s.index as usize];
            let outcome = self.check_one(s, req.key, &mut streams, acked.entry(s.rep).or_default());
            if let Err(e) = outcome {
                verdict.fail(format!(
                    "rep {} client {} request {} ({}): {e}",
                    s.rep,
                    s.client,
                    s.index,
                    s.op.name()
                ));
            }
        }
        acked
    }

    /// Checks a priming answer (the first clustering or `/similar`).
    pub fn check_priming(&mut self, key: Key, status: u16, body: &str) -> Result<(), String> {
        if status != 200 {
            return Err(format!("priming answered {status}: {body}"));
        }
        match key {
            Key::Cluster => self.check_cluster(body),
            Key::Similar(q) => self.check_similar(q, body),
            _ => Ok(()),
        }
    }

    fn check_one(
        &mut self,
        s: &Sample,
        key: Key,
        streams: &mut HashMap<(u16, u16, u32), PartialRun>,
        acked: &mut Acked,
    ) -> Result<(), String> {
        if s.status == 0 {
            return Err("transport failure".to_string());
        }
        let want_status = self.plan.clients[s.client as usize].expected_status(key);
        if s.status != want_status {
            return Err(format!("status {} (want {want_status}): {}", s.status, s.body));
        }
        match key {
            Key::Specs => {
                let got: SpecsResponse = parse(&s.body)?;
                let ok = got.specs.len() == 1
                    && got.specs[0].name == self.spec()
                    && got.specs[0].runs == self.plan.runs.len();
                ok.then_some(()).ok_or_else(|| "spec listing differs".to_string())
            }
            Key::Runs => {
                let got: RunsResponse = parse(&s.body)?;
                let want: Vec<String> = (0..self.plan.runs.len()).map(boot_run_name).collect();
                (got.runs == want).then_some(()).ok_or_else(|| "run listing differs".to_string())
            }
            Key::Diff(a, b) => self.check_diff(a, b, &s.body),
            Key::Batch(i) => self.check_batch(i, &s.body),
            Key::Similar(q) => self.check_similar(q, &s.body),
            Key::Cluster => self.check_cluster(&s.body),
            Key::Insert(i) => {
                let item = &self.plan.clients[s.client as usize].inserts[i as usize];
                let got: InsertRunResponse = parse(&s.body)?;
                if got.name != item.name || !got.persisted {
                    return Err(format!(
                        "insert acknowledged {:?}, persisted {}",
                        got.name, got.persisted
                    ));
                }
                acked.names.push(item.name.clone());
                Ok(())
            }
            Key::Stream { stream, batch } => {
                let item = &self.plan.clients[s.client as usize].streams[stream as usize];
                let partial = streams
                    .entry((s.rep, s.client, stream))
                    .or_insert_with(|| PartialRun::new(Arc::clone(&self.plan.spec)));
                let base_seq = partial.applied();
                for event in item.batch(batch as usize) {
                    partial
                        .apply(event)
                        .map_err(|e| format!("local replay rejects the batch: {e}"))?;
                }
                let got: StreamEventsResponse = parse(&s.body)?;
                let counters_match = got.base_seq == base_seq
                    && got.seq == partial.applied()
                    && got.nodes == partial.node_count()
                    && got.completed_leaves == partial.profile().completed_leaves()
                    && got.complete == partial.is_complete();
                if !counters_match {
                    return Err("stream counters differ from the local replay".to_string());
                }
                if batch as usize + 1 == item.batch_count() {
                    if !(got.finalized && got.persisted) {
                        return Err("final batch was not finalised durably".to_string());
                    }
                    acked.names.push(item.name.clone());
                    return Ok(());
                }
                let drift = got.drift.ok_or("open stream answered without a drift verdict")?;
                if drift.events != partial.applied()
                    || drift.nodes != partial.node_count()
                    || drift.completed_leaves != partial.profile().completed_leaves()
                {
                    return Err("drift counters differ from the local replay".to_string());
                }
                if drift.clusters.is_empty() {
                    return Err("drift verdict has no clusters (clustering was primed)".to_string());
                }
                let engine = WorkflowDiff::new(&self.plan.spec, &UnitCost);
                for c in &drift.clusters {
                    let medoid = self
                        .run_named(&c.medoid)
                        .ok_or_else(|| format!("unknown medoid {:?}", c.medoid))?;
                    let cache: &dyn DiffCache = &self.cache;
                    let prepared =
                        engine.prepare(&medoid, Some(cache)).map_err(|e| e.to_string())?;
                    let bound = engine
                        .prefix_distance(partial.profile(), None, &prepared, Some(cache))
                        .map_err(|e| e.to_string())?;
                    if bound.to_bits() != c.lower_bound.to_bits() {
                        return Err(format!("lower bound {} vs local {bound}", c.lower_bound));
                    }
                    if c.exceeds != (c.lower_bound > c.radius) {
                        return Err("drift `exceeds` contradicts its bound and radius".to_string());
                    }
                }
                if drift.drifted != drift.clusters.iter().all(|c| c.exceeds) {
                    return Err("drift flag contradicts the per-cluster verdicts".to_string());
                }
                Ok(())
            }
        }
    }

    fn check_diff(&mut self, a: u32, b: u32, body: &str) -> Result<(), String> {
        let got: DiffResponse = parse(body)?;
        let (na, nb) = (boot_run_name(a as usize), boot_run_name(b as usize));
        let want = match self.diffs.get(&(a, b)) {
            Some(&d) => d,
            None => {
                let d = self.local.diff(self.spec(), &na, &nb).map_err(|e| e.to_string())?.distance;
                self.diffs.insert((a, b), d);
                d
            }
        };
        if got.source != na || got.target != nb || got.distance.to_bits() != want.to_bits() {
            return Err(format!("diff {na}/{nb} = {} vs local {want}", got.distance));
        }
        Ok(())
    }

    fn check_batch(&mut self, i: u32, body: &str) -> Result<(), String> {
        let got: BatchDiffResponse = parse(body)?;
        let pairs = &self.plan.batches[i as usize];
        if !self.batches.contains_key(&i) {
            let named: Vec<(String, String)> = pairs
                .iter()
                .map(|&(a, b)| (boot_run_name(a as usize), boot_run_name(b as usize)))
                .collect();
            let want = self.local.diff_batch(self.spec(), &named).map_err(|e| e.to_string())?;
            self.batches.insert(i, want.into_iter().map(|p| p.distance).collect());
        }
        let want = &self.batches[&i];
        let ok = got.distances.len() == pairs.len()
            && got.distances.iter().zip(pairs).zip(want).all(|((g, &(a, b)), w)| {
                g.source == boot_run_name(a as usize)
                    && g.target == boot_run_name(b as usize)
                    && g.distance.to_bits() == w.to_bits()
            });
        ok.then_some(()).ok_or_else(|| format!("batch {i} differs from the local recompute"))
    }

    fn check_similar(&mut self, q: u32, body: &str) -> Result<(), String> {
        let got: SimilarResponse = parse(body)?;
        if !self.similar.contains_key(&q) {
            // The exact answer from the full distance matrix, computed once:
            // every other run by (distance, name), the first k.
            if self.matrix.is_none() {
                self.matrix =
                    Some(self.local.diff_all_pairs(self.spec()).map_err(|e| e.to_string())?);
            }
            let all = self.matrix.as_ref().expect("computed above");
            let q_at = all
                .runs
                .iter()
                .position(|r| *r == boot_run_name(q as usize))
                .ok_or("unknown query run")?;
            let mut row: Vec<(String, f64)> = all
                .runs
                .iter()
                .zip(&all.matrix[q_at])
                .enumerate()
                .filter(|&(j, _)| j != q_at)
                .map(|(_, (run, &d))| (run.clone(), d))
                .collect();
            row.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
            row.truncate(SIMILAR_K);
            self.similar.insert(q, row);
        }
        let want = &self.similar[&q];
        let ok = got.neighbors.len() == want.len()
            && got
                .neighbors
                .iter()
                .zip(want)
                .all(|(g, (run, d))| g.run == *run && g.distance.to_bits() == d.to_bits());
        ok.then_some(()).ok_or_else(|| format!("similar for run {q} differs from the exact sweep"))
    }

    fn check_cluster(&mut self, body: &str) -> Result<(), String> {
        let got: KMedoidsResponse = parse(body)?;
        if self.cluster.is_none() {
            let snap = self
                .local
                .cluster_medoids(self.spec(), CLUSTER_K, DEFAULT_CLUSTER_SEED)
                .map_err(|e| e.to_string())?;
            let mut want = format!("{}|{}|", snap.silhouette.to_bits(), snap.cost.to_bits());
            for c in &snap.clusters {
                want.push_str(&format!("{}:{};", c.medoid, c.runs.join(",")));
            }
            self.cluster = Some(want);
        }
        let mut seen = format!("{}|{}|", got.silhouette.to_bits(), got.cost.to_bits());
        for c in &got.clusters {
            seen.push_str(&format!("{}:{};", c.medoid, c.runs.join(",")));
        }
        (self.cluster.as_deref() == Some(seen.as_str()))
            .then_some(())
            .ok_or_else(|| "k-medoids clustering differs from the local recompute".to_string())
    }

    /// The run a stored name refers to: a boot run, an inserted run or a
    /// finalised stream.
    fn run_named(&mut self, name: &str) -> Option<Arc<Run>> {
        if let Some(run) = self.named.get(name) {
            return Some(Arc::clone(run));
        }
        let run = if let Some(i) = name.strip_prefix("run") {
            self.plan.runs.get(i.parse::<usize>().ok()?)?.clone()
        } else {
            let (client, rest) = name.strip_prefix('c')?.split_once('-')?;
            let client = &self.plan.clients[client.parse::<usize>().ok()?];
            if let Some(i) = rest.strip_prefix("ins") {
                client.inserts.get(i.parse::<usize>().ok()?)?.run.clone()
            } else {
                let item = client.streams.get(rest.strip_prefix("str")?.parse::<usize>().ok()?)?;
                let mut partial = PartialRun::new(Arc::clone(&self.plan.spec));
                for e in &item.events {
                    partial.apply(e).ok()?;
                }
                partial.finalize().ok()?
            }
        };
        let run = Arc::new(run);
        self.named.insert(name.to_string(), Arc::clone(&run));
        Some(run)
    }
}

/// Reloads a killed server's directory and checks that every acknowledged
/// write survived, and nothing else was added.
pub fn check_reload(dir: &Path, plan: &Plan, acked: &Acked, verdict: &mut Verdict) {
    let store = match WorkflowStore::load_from_dir(dir) {
        Ok(store) => store,
        Err(e) => {
            verdict.fail(format!("reload after SIGKILL failed: {e}"));
            return;
        }
    };
    for name in &acked.names {
        if store.run(plan.spec_name(), name).is_none() {
            verdict.fail(format!("acknowledged write {name} missing after SIGKILL"));
        }
    }
    let want = plan.runs.len() + acked.names.len();
    if store.run_count() != want {
        verdict
            .fail(format!("reloaded store holds {} runs, {want} acknowledged", store.run_count()));
    }
}

fn parse<T: for<'de> serde::Deserialize<'de>>(body: &str) -> Result<T, String> {
    serde_json::from_str(body).map_err(|e| format!("unparsable answer: {e}"))
}
