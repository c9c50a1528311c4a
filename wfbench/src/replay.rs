//! The traced run: the workload's seeded request sequence replayed
//! in-process, one request at a time, through the public functions of each
//! layer, with a span around every call.
//!
//! Each request is handled twice, on two identical copies of the store
//! (booted, primed and fed the same sequence, so their state stays equal):
//!
//! * copy A runs the serving path — `http::parse_request`,
//!   `handlers::dispatch` against an in-process `AppState`,
//!   `http::render_response`;
//! * copy B runs the same work as separate calls into the layers below the
//!   handler (`store`, `io`, `core`, `metricindex`, `cluster`, `persist`,
//!   `stream`) — the *decomposition*.  `serve.handlers.unattributed_us` is
//!   A's dispatch time minus B's decomposition time.
//!
//! Calls nested inside another timed call (the store snapshot inside a
//! pruned `/similar`, `prefix_distance` inside a drift report) are timed
//! again in a separate `detail` span after the decomposition, so no time is
//! counted twice.  Layers the workload's own requests never reach are timed
//! on a [`workload::probe`] of the same data.  The replay runs once
//! untraced and once traced; the difference is the tracing overhead.

use crate::report::{latencies, Metric};
use crate::server::copy_dir;
use crate::stats::{ns_to_us, Samples};
use crate::trace::{check_nesting, self_times, Span, Tracer};
use crate::workload::{self, boot_run_name, cpus, ClientPlan, Key, Op, Plan, Req};
use crate::workload::{CLUSTER_K, SIMILAR_K};
use crate::Live;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use wfdiff_core::{DiffCache, ShardedDiffCache, WorkflowDiff};
use wfdiff_pdiffview::serve::handlers::{dispatch, AppState};
use wfdiff_pdiffview::serve::http::{parse_request, render_response, ParseOutcome};
use wfdiff_pdiffview::serve::DEFAULT_MAX_BODY_BYTES;
use wfdiff_pdiffview::{
    DiffService, PartialRun, RunDescriptor, WorkflowStore, DEFAULT_CLUSTER_SEED,
};

/// Request id of the set-up spans of the workload's store.
const SETUP: u32 = u32::MAX - 1;
/// Request id of the set-up spans of the probe's store.
const PROBE_SETUP: u32 = u32::MAX - 2;
/// Request ids of probe requests start here.
const PROBE_BASE: u32 = 1 << 24;

/// A per-layer row: the metric, where it was measured, and the end-to-end
/// metric it should move.
pub struct Row {
    /// The metric.
    pub metric: Metric,
    /// `replay` (the workload's own requests or set-up) or `probe`.
    pub source: &'static str,
    /// The end-to-end metric and workload it should move.
    pub moves: String,
}

/// The traced run's result.
pub struct Layers {
    /// The per-layer metrics registered in `BENCHMARK.json`, in order.
    pub metrics: Vec<Metric>,
    /// The printed table: the registered metrics plus extra rows.
    pub rows: Vec<Row>,
    /// Free-text lines printed under the table.
    pub notes: Vec<String>,
    /// Replayed requests that failed, and span-hierarchy violations.
    pub failed: usize,
}

/// Requests replayed per workload (round-robin over its clients).  Ingest
/// replays at least until every client has finalised its first stream, so
/// the finalising path is timed too.
fn replay_len(plan: &Plan) -> usize {
    match plan.workload {
        workload::Workload::Browse => 1500,
        workload::Workload::Analyze => 45,
        workload::Workload::Ingest => {
            let batches = plan
                .clients
                .iter()
                .map(|c| c.streams.first().map_or(0, |s| s.batch_count()))
                .max()
                .unwrap_or(0);
            (3 * batches * plan.clients.len()).max(120)
        }
    }
}

/// One booted, primed copy of a store.
struct Side {
    store: Arc<WorkflowStore>,
    service: Arc<DiffService>,
    cache: Arc<ShardedDiffCache>,
    state: AppState,
    dir: PathBuf,
    spec: String,
}

impl Side {
    /// Boots a copy of `template` the way `wfdiff_serve` does and sends the
    /// plan's priming requests through the handler, recording set-up spans.
    fn open(plan: &Plan, template: &Path, dir: &Path, t: &mut Tracer) -> Result<Side, String> {
        copy_dir(template, dir).map_err(|e| format!("copying the store: {e}"))?;
        let store = t
            .span("persist.load", || WorkflowStore::load_from_dir(dir))
            .map_err(|e| format!("loading the store: {e}"))?;
        let store = Arc::new(store);
        let cache = Arc::new(ShardedDiffCache::default());
        let shared: Arc<dyn DiffCache> = cache.clone();
        let service = Arc::new(
            DiffService::builder(Arc::clone(&store)).threads(cpus()).cache(shared).build(),
        );
        t.span("service.warm_start", || service.warm_start()).map_err(|e| e.to_string())?;
        service.load_streams(dir).map_err(|e| e.to_string())?;
        let state = AppState::single(Arc::clone(&service), Some(dir.to_path_buf()));
        for req in &plan.priming {
            let name = match req.op {
                Op::Cluster => "cluster.medoids_build",
                _ => "metricindex.build",
            };
            let request = parse(req)?;
            let response = t.span(name, || dispatch(&state, &request));
            if response.status != 200 {
                return Err(format!("priming answered {}: {}", response.status, response.body));
            }
        }
        // The priming handlers checkpointed both indexes; time loading
        // them the way a restart would.
        let restarted = DiffService::new(Arc::clone(&store));
        let primes = |op: Op| plan.priming.iter().any(|r| r.op == op);
        if primes(Op::Cluster) {
            t.span("cluster.load", || black_box(restarted.load_cluster_state(dir)));
        }
        if primes(Op::Similar) {
            t.span("metricindex.load", || black_box(restarted.load_metric_state(dir)));
        }
        Ok(Side {
            store,
            service,
            cache,
            state,
            dir: dir.to_path_buf(),
            spec: plan.spec_name().to_string(),
        })
    }
}

fn parse(req: &Req) -> Result<wfdiff_pdiffview::serve::http::Request, String> {
    match parse_request(&req.wire, DEFAULT_MAX_BODY_BYTES) {
        Ok(ParseOutcome::Complete { request, .. }) => Ok(request),
        other => Err(format!("request does not parse: {other:?}")),
    }
}

/// What the replay counts besides spans.
#[derive(Default)]
struct Counts {
    /// Requests per op, and the `prepare` calls they made.
    requests: BTreeMap<Op, usize>,
    prepare_calls: BTreeMap<Op, usize>,
    /// Pruned `/similar`: distance evaluations and the exact sweep's count.
    evals: Vec<(usize, usize)>,
    /// WAL bytes appended by each write request that did not fold.
    wal_bytes: Vec<u64>,
    wal_folds: u64,
    /// Streams finalised by a replayed request.
    finalized: usize,
    cache_hits: u64,
    cache_lookups: u64,
    failed: usize,
    messages: Vec<String>,
}

/// Replays `reqs` (client index, request) against side A (serving path)
/// and side B (decomposition), ids starting at `first_id`.
fn replay(
    plan: &Plan,
    reqs: &[(usize, &Req)],
    a: &Side,
    b: &Side,
    first_id: u32,
    t: &mut Tracer,
    counts: &mut Counts,
) {
    let mut partials: HashMap<String, PartialRun> = HashMap::new();
    let cache_before = a.service.cache_stats();
    for (i, &(client, req)) in reqs.iter().enumerate() {
        let client_plan = &plan.clients[client];
        let wal_before = a.store.wal_stats();
        t.set_request(first_id + i as u32);
        t.enter("request");
        let request = t.span("serve.http.parse", || parse(req));
        let outcome = request.map(|request| {
            let response = t.span("serve.handlers.dispatch", || dispatch(&a.state, &request));
            let bytes = t.span("serve.http.render", || {
                render_response(response.status, response.content_type, &response.body, true)
            });
            black_box(bytes);
            response
        });
        let decomposed = decompose(plan, client_plan, req, b, &mut partials, t, counts);
        t.exit();

        *counts.requests.entry(req.op).or_default() += 1;
        let want = client_plan.expected_status(req.key);
        let problem = match (&outcome, decomposed) {
            (Err(e), _) => Some(e.clone()),
            (Ok(r), _) if r.status != want => {
                Some(format!("status {} (want {want}): {}", r.status, r.body))
            }
            (_, Err(e)) => Some(format!("decomposition failed: {e}")),
            _ => None,
        };
        if let Some(p) = problem {
            counts.failed += 1;
            if counts.messages.len() < 10 {
                counts.messages.push(format!("replayed {} request {i}: {p}", req.op.name()));
            }
        }
        if matches!(req.op, Op::Insert | Op::StreamBatch) {
            let wal = a.store.wal_stats();
            if wal.folds_total > wal_before.folds_total {
                counts.wal_folds += wal.folds_total - wal_before.folds_total;
            } else {
                counts.wal_bytes.push(wal.bytes.saturating_sub(wal_before.bytes));
            }
        }
    }
    let cache = a.service.cache_stats();
    counts.cache_hits += cache.hits - cache_before.hits;
    counts.cache_lookups += (cache.hits + cache.misses) - (cache_before.hits + cache_before.misses);
}

/// The handler's work for one request as separate layer calls on side B.
fn decompose(
    plan: &Plan,
    client: &ClientPlan,
    req: &Req,
    b: &Side,
    partials: &mut HashMap<String, PartialRun>,
    t: &mut Tracer,
    counts: &mut Counts,
) -> Result<(), String> {
    let (store, service, dir, spec) = (&b.store, &b.service, &b.dir, b.spec.as_str());
    let err = |e: &dyn std::fmt::Display| e.to_string();
    t.enter("decompose");
    let result = (|| -> Result<(), String> {
        match req.key {
            Key::Specs => {
                black_box(t.span("store.snapshot_all", || store.snapshot_all()));
            }
            Key::Runs => {
                black_box(t.span("store.snapshot", || store.snapshot(spec)));
            }
            Key::Diff(x, y) => {
                let names = [boot_run_name(x as usize), boot_run_name(y as usize)];
                pairs(b, &[&names[0], &names[1]], &[(0, 1)], req.op, t, counts)?;
            }
            Key::Batch(i) => {
                let batch = &plan.batches[i as usize];
                let mut names: Vec<String> = batch
                    .iter()
                    .flat_map(|&(x, y)| [boot_run_name(x as usize), boot_run_name(y as usize)])
                    .collect();
                names.sort_unstable();
                names.dedup();
                let index = |x: u32| {
                    names.binary_search(&boot_run_name(x as usize)).expect("name was collected")
                };
                let jobs: Vec<(usize, usize)> =
                    batch.iter().map(|&(x, y)| (index(x), index(y))).collect();
                let refs: Vec<&str> = names.iter().map(String::as_str).collect();
                pairs(b, &refs, &jobs, req.op, t, counts)?;
            }
            Key::Similar(q) => {
                let others = store.run_names(spec).len().saturating_sub(1);
                let (_, stats) = t
                    .span("metricindex.nearest", || {
                        service.nearest_runs_pruned(
                            spec,
                            &boot_run_name(q as usize),
                            SIMILAR_K,
                            0.0,
                        )
                    })
                    .map_err(|e| err(&e))?;
                let _ = t.span("metricindex.checkpoint", || service.save_metric_state(dir));
                counts.evals.push((stats.distance_evals, others));
            }
            Key::Cluster => {
                t.span("cluster.medoids", || {
                    service.cluster_medoids(spec, CLUSTER_K, DEFAULT_CLUSTER_SEED)
                })
                .map_err(|e| err(&e))?;
                let _ = t.span("cluster.checkpoint", || service.save_cluster_state(dir));
            }
            Key::Insert(i) => {
                let item = &client.inserts[i as usize];
                let spec_arc = store.spec(spec).ok_or("unknown spec")?;
                let run = t.span("io.run_decode", || {
                    RunDescriptor::from_json(&item.descriptor)
                        .map_err(|e| err(&e))?
                        .to_run(&spec_arc)
                        .map_err(|e| err(&e))
                })?;
                let run = t
                    .span("store.insert", || store.insert_run_new(&item.name, run))
                    .map_err(|e| err(&e))?;
                t.span("persist.append", || store.append_run_to_dir(dir, &item.name, &run))
                    .map_err(|e| err(&e))?;
                t.span("cluster.notify_insert", || service.notify_run_inserted(spec, &item.name));
            }
            Key::Stream { stream, batch } => {
                let item = &client.streams[stream as usize];
                let events = item.batch(batch as usize);
                let outcome = t
                    .span("stream.events", || service.stream_events(spec, &item.name, events))
                    .map_err(|e| err(&e))?;
                let base = outcome.ack.base_seq;
                t.span("persist.stream_append", || {
                    store.append_stream_events_to_dir(dir, spec, &item.name, base, events)
                })
                .map_err(|e| err(&e))?;
                if batch as usize + 1 == item.batch_count() {
                    let (run, seq) = t
                        .span("stream.finalize", || service.finalize_stream(spec, &item.name))
                        .map_err(|e| err(&e))?;
                    let run = t
                        .span("store.insert", || store.insert_run_new(&item.name, run))
                        .map_err(|e| err(&e))?;
                    t.span("persist.append", || store.append_run_to_dir(dir, &item.name, &run))
                        .map_err(|e| err(&e))?;
                    t.span("persist.stream_close", || {
                        let _ = store.append_stream_close_to_dir(dir, spec, &item.name, seq);
                        service.remove_stream(spec, &item.name)
                    });
                    t.span("cluster.notify_insert", || {
                        service.notify_run_inserted(spec, &item.name)
                    });
                    partials.remove(&item.name);
                    counts.finalized += 1;
                } else {
                    let report = t
                        .span("stream.drift", || service.drift_report(spec, &item.name))
                        .map_err(|e| err(&e))?;
                    t.exit();
                    t.enter("detail");
                    let spec_arc = store.spec(spec).ok_or("unknown spec")?;
                    let partial = partials
                        .entry(item.name.clone())
                        .or_insert_with(|| PartialRun::new(Arc::clone(&spec_arc)));
                    for e in events {
                        partial.apply(e).map_err(|e| err(&e))?;
                    }
                    let engine = WorkflowDiff::new(&spec_arc, service.cost_model());
                    let cache: &dyn DiffCache = b.cache.as_ref();
                    for c in &report.clusters {
                        let medoid = store.run(spec, &c.medoid).ok_or("unknown medoid")?;
                        let prepared = engine.prepare(&medoid, Some(cache)).map_err(|e| err(&e))?;
                        let bound = t
                            .span("core.prefix_distance", || {
                                engine.prefix_distance(
                                    partial.profile(),
                                    None,
                                    &prepared,
                                    Some(cache),
                                )
                            })
                            .map_err(|e| err(&e))?;
                        if bound.to_bits() != c.lower_bound.to_bits() {
                            return Err(format!(
                                "prefix_distance {bound} vs drift bound {}",
                                c.lower_bound
                            ));
                        }
                    }
                }
            }
        }
        if let Key::Similar(_) = req.key {
            t.exit();
            t.enter("detail");
            black_box(t.span("store.snapshot", || store.snapshot(spec)));
        }
        Ok(())
    })();
    t.exit();
    result
}

/// Lookup, engine set-up, `prepare` of each distinct run and the DP of
/// each pair — what `DiffService::diff` and `diff_batch` do, serially.
fn pairs(
    b: &Side,
    names: &[&str],
    jobs: &[(usize, usize)],
    op: Op,
    t: &mut Tracer,
    counts: &mut Counts,
) -> Result<(), String> {
    let (spec, runs) =
        t.span("store.lookup", || b.store.lookup_runs(&b.spec, names)).ok_or("unknown spec")?;
    let runs: Vec<_> = runs.into_iter().collect::<Option<Vec<_>>>().ok_or("unknown run")?;
    let engine = t.span("core.engine_new", || WorkflowDiff::new(&spec, b.service.cost_model()));
    let cache: &dyn DiffCache = b.cache.as_ref();
    let mut prepared = Vec::with_capacity(runs.len());
    for run in &runs {
        prepared.push(
            t.span("core.prepare", || engine.prepare(run, Some(cache)))
                .map_err(|e| e.to_string())?,
        );
    }
    for &(i, j) in jobs {
        let d =
            t.span("core.dp", || engine.distance_prepared(&prepared[i], &prepared[j], Some(cache)));
        black_box(d.map_err(|e| e.to_string())?);
    }
    *counts.prepare_calls.entry(op).or_default() += runs.len();
    Ok(())
}

/// The requests a replay sends: round-robin over the clients' sequences.
fn interleave(plan: &Plan, len: usize) -> Vec<(usize, &Req)> {
    let total: usize = plan.clients.iter().map(|c| c.requests.len()).sum();
    let mut out = Vec::with_capacity(len.min(total));
    let mut i = 0;
    while out.len() < len {
        let before = out.len();
        for (c, client) in plan.clients.iter().enumerate() {
            if let Some(req) = client.requests.get(i) {
                if out.len() < len {
                    out.push((c, req));
                }
            }
        }
        if out.len() == before {
            break;
        }
        i += 1;
    }
    out
}

/// Runs the traced replay of `plan` and the probe, and derives the
/// per-layer metrics.  `live` supplies the client-observed p50s that
/// `serve.wait_us` subtracts from.
pub fn run(
    plan: &Plan,
    template: &Path,
    data: &Path,
    seed: u64,
    live: &Live,
) -> Result<Layers, String> {
    let reqs = interleave(plan, replay_len(plan));

    // Untraced passes before and after the traced one, so drift in the
    // machine's speed cancels out of the overhead.
    let untraced = |pass: &str| -> Result<f64, String> {
        let mut off = Tracer::new(false);
        let a = Side::open(plan, template, &data.join(format!("{pass}-a")), &mut off)?;
        let b = Side::open(plan, template, &data.join(format!("{pass}-b")), &mut off)?;
        let started = Instant::now();
        replay(plan, &reqs, &a, &b, 0, &mut off, &mut Counts::default());
        Ok(started.elapsed().as_secs_f64())
    };
    let untraced_before = untraced("untraced-1")?;

    let mut t = Tracer::new(true);
    let mut counts = Counts::default();
    t.set_request(SETUP);
    let a = Side::open(plan, template, &data.join("traced-a"), &mut t)?;
    let b = Side::open(plan, template, &data.join("traced-b"), &mut Tracer::new(false))?;
    let started = Instant::now();
    replay(plan, &reqs, &a, &b, 0, &mut t, &mut counts);
    let traced_s = started.elapsed().as_secs_f64();
    drop((a, b));
    let untraced_s = (untraced_before + untraced("untraced-2")?) / 2.0;

    // The probe: every op the workload does not send, on a small copy.
    let probe = workload::probe(plan, seed);
    let probe_template = data.join("probe-template");
    crate::boot_store(&probe)
        .save_to_dir(&probe_template)
        .map_err(|e| format!("saving the probe store: {e}"))?;
    t.set_request(PROBE_SETUP);
    let pa = Side::open(&probe, &probe_template, &data.join("probe-a"), &mut t)?;
    let pb = Side::open(&probe, &probe_template, &data.join("probe-b"), &mut Tracer::new(false))?;
    let preqs = interleave(&probe, usize::MAX);
    let mut probe_counts = Counts::default();
    replay(&probe, &preqs, &pa, &pb, PROBE_BASE, &mut t, &mut probe_counts);
    drop((pa, pb));

    let spans = t.finish();
    let mut failed = counts.failed + probe_counts.failed;
    let mut notes: Vec<String> =
        counts.messages.iter().chain(&probe_counts.messages).cloned().collect();
    if let Err(e) = check_nesting(&spans) {
        failed += 1;
        notes.push(format!("span hierarchy violated: {e}"));
    }
    if plan.workload == workload::Workload::Ingest && counts.finalized == 0 {
        failed += 1;
        notes.push("the ingest replay finalised no stream".to_string());
    }
    let ops: Vec<Op> = reqs.iter().map(|(_, r)| r.op).collect();
    let table = Table::new(&spans, &ops);
    let mut layers = table.metrics(plan, live, &counts, &probe_counts, traced_s - untraced_s);
    notes.push(format!(
        "{} spans over {} replayed + {} probe requests; nesting checked; replay {:.3} s traced, {:.3} s untraced (mean of the passes before and after)",
        spans.len(),
        reqs.len(),
        preqs.len(),
        traced_s,
        untraced_s
    ));
    notes.extend(notes_for(&counts));
    if plan.workload == workload::Workload::Ingest {
        notes.push(format!("streams finalised by the replay: {}", counts.finalized));
    }
    notes.push(
        "unattributed = A's dispatch minus B's serial decomposition; negative where the \
         service parallelises prepare and distance rows over its worker pool"
            .to_string(),
    );
    layers.notes.splice(0..0, notes);
    layers.failed = failed;
    Ok(layers)
}

fn notes_for(counts: &Counts) -> Vec<String> {
    counts
        .requests
        .iter()
        .filter_map(|(op, n)| {
            counts.prepare_calls.get(op).map(|calls| {
                format!(
                    "distinct runs prepared per {} request = {:.2} ({} over {n} requests; not \
                     registered: the service counts no prepare calls, and the decomposition \
                     prepares each distinct run once)",
                    op.name(),
                    *calls as f64 / *n as f64,
                    calls
                )
            })
        })
        .collect()
}

/// Span self times grouped by name, split into replay, probe and set-up.
struct Table {
    replay: HashMap<&'static str, Vec<u64>>,
    probe: HashMap<&'static str, Vec<u64>>,
    setup: HashMap<(u32, &'static str), u64>,
    /// Per replayed request: op, and durations of parse, dispatch, render
    /// and decomposition.
    per_request: Vec<(Op, [u64; 4])>,
}

impl Table {
    fn new(spans: &[Span], ops: &[Op]) -> Table {
        let selfs = self_times(spans);
        let mut table = Table {
            replay: HashMap::new(),
            probe: HashMap::new(),
            setup: HashMap::new(),
            per_request: ops.iter().map(|&op| (op, [0; 4])).collect(),
        };
        for (s, own) in spans.iter().zip(selfs) {
            if s.request == SETUP || s.request == PROBE_SETUP {
                table.setup.insert((s.request, s.name), s.duration_ns());
            } else if s.request >= PROBE_BASE {
                table.probe.entry(s.name).or_default().push(own);
            } else {
                table.replay.entry(s.name).or_default().push(own);
                let slot = match s.name {
                    "serve.http.parse" => 0,
                    "serve.handlers.dispatch" => 1,
                    "serve.http.render" => 2,
                    "decompose" => 3,
                    _ => continue,
                };
                table.per_request[s.request as usize].1[slot] = s.duration_ns();
            }
        }
        table
    }

    /// Median self time (µs) of a span name: from the replay if it has any,
    /// else from the probe.
    fn layer(&self, name: &str) -> (f64, &'static str) {
        let median = |v: &Vec<u64>| Samples::new(v.clone()).median().map(ns_to_us);
        match self.replay.get(name).and_then(median) {
            Some(us) => (us, "replay"),
            None => (self.probe.get(name).and_then(median).unwrap_or(f64::NAN), "probe"),
        }
    }

    /// A set-up step's duration (s): the workload's own set-up, else the
    /// probe's.
    fn setup_step(&self, name: &'static str) -> (f64, &'static str) {
        match self.setup.get(&(SETUP, name)) {
            Some(&ns) => (ns as f64 / 1e9, "replay"),
            None => (
                self.setup.get(&(PROBE_SETUP, name)).map_or(f64::NAN, |&ns| ns as f64 / 1e9),
                "probe",
            ),
        }
    }

    /// Median over one op's replayed requests of a per-request quantity.
    fn per_op(&self, op: Op, f: impl Fn(&[u64; 4]) -> f64) -> f64 {
        let mut v: Vec<f64> =
            self.per_request.iter().filter(|(o, _)| *o == op).map(|(_, d)| f(d)).collect();
        v.sort_by(f64::total_cmp);
        if v.is_empty() {
            f64::NAN
        } else {
            v[(v.len() - 1) / 2]
        }
    }

    fn metrics(
        &self,
        plan: &Plan,
        live: &Live,
        counts: &Counts,
        probe: &Counts,
        overhead_s: f64,
    ) -> Layers {
        let w = plan.workload.name();
        let mut rows: Vec<Row> = Vec::new();
        let mut push =
            |name: String, value: f64, unit: &'static str, source: &'static str, moves: String| {
                rows.push(Row { metric: Metric::new(name, value, unit), source, moves });
            };
        let (parse, src) = self.layer("serve.http.parse");
        push(
            "serve.http.parse_us".into(),
            parse,
            "us",
            src,
            "read_p50_us (op1/op2_p50_us) on browse".into(),
        );
        let (render, src) = self.layer("serve.http.render");
        push(
            "serve.http.render_us".into(),
            render,
            "us",
            src,
            "read_p50_us (op1/op2_p50_us) on browse".into(),
        );

        let client = latencies(&live.samples);
        for (slot, op) in plan.shape.ops.iter().enumerate() {
            let n = slot + 1;
            let dispatch = self.per_op(*op, |d| ns_to_us(d[1]));
            push(
                format!("serve.handlers.dispatch_us.op{n}"),
                dispatch,
                "us",
                "replay",
                format!("op{n}_p50_us ({}) on {w}", op.name()),
            );
            let served = self.per_op(*op, |d| ns_to_us(d[0] + d[1] + d[2]));
            let p50 = client.get(op).and_then(|s| s.median()).map_or(f64::NAN, ns_to_us);
            push(
                format!("serve.wait_us.op{n}"),
                p50 - served,
                "us",
                "replay",
                format!("op{n}_p50_us ({}) and throughput_rps on {w}", op.name()),
            );
            let unattributed = self.per_op(*op, |d| ns_to_us(d[1]) - ns_to_us(d[3]));
            push(
                format!("serve.handlers.unattributed_us.op{n}"),
                unattributed,
                "us",
                "replay",
                format!("op{n}_p50_us ({}) on {w}", op.name()),
            );
        }

        let layer_rows: [(&str, &str, &str); 14] = [
            ("store.lookup_us", "store.lookup", "op3_p50_us (diff) on browse"),
            ("store.snapshot_us", "store.snapshot", "op2_p50_us (similar) on analyze"),
            ("store.insert_us", "store.insert", "op1_p50_us (insert) on ingest"),
            ("io.run_decode_us", "io.run_decode", "op1_p50_us (insert) on ingest"),
            (
                "core.engine_new_us",
                "core.engine_new",
                "op1/op2_p50_us on analyze; op3_p50_us on browse",
            ),
            ("core.prepare_us", "core.prepare", "op1/op2_p50_us on analyze; op3_p50_us on browse"),
            ("core.dp_us", "core.dp", "op1/op2_p50_us on analyze; op3_p50_us on browse"),
            (
                "core.prefix_distance_us",
                "core.prefix_distance",
                "op2_p50_us (stream_batch) on ingest",
            ),
            ("metricindex.nearest_us", "metricindex.nearest", "op2_p50_us (similar) on analyze"),
            ("cluster.notify_insert_us", "cluster.notify_insert", "op1_p50_us (insert) on ingest"),
            ("persist.append_us", "persist.append", "op1/op2_p50_us and throughput_rps on ingest"),
            (
                "persist.stream_append_us",
                "persist.stream_append",
                "op2_p50_us (stream_batch) on ingest",
            ),
            ("stream.events_us", "stream.events", "op2_p50_us (stream_batch) on ingest"),
            ("stream.drift_us", "stream.drift", "op2_p50_us (stream_batch) on ingest"),
        ];
        for (metric, span, moves) in layer_rows {
            let (v, src) = self.layer(span);
            push(metric.into(), v, "us", src, moves.into());
        }

        let pick = |own: bool| if own { (counts, "replay") } else { (probe, "probe") };
        let (c, src) = pick(counts.cache_lookups > 0);
        push(
            "core.cache.hit_rate".into(),
            c.cache_hits as f64 / c.cache_lookups.max(1) as f64,
            "ratio",
            src,
            "op1/op2_p50_us on analyze".into(),
        );
        let (c, src) = pick(!counts.evals.is_empty());
        let evals = Samples::new(c.evals.iter().map(|e| e.0 as u64).collect());
        let fractions: Vec<f64> =
            c.evals.iter().map(|&(e, n)| e as f64 / n.max(1) as f64).collect();
        push(
            "metricindex.distance_evals".into(),
            evals.median().map_or(f64::NAN, |v| v as f64),
            "count",
            src,
            "op2_p50_us (similar) on analyze".into(),
        );
        push(
            "metricindex.eval_fraction".into(),
            crate::stats::median_f64(&fractions),
            "ratio",
            src,
            "op2_p50_us (similar) on analyze".into(),
        );
        let (c, src) = pick(!counts.wal_bytes.is_empty() || counts.wal_folds > 0);
        let bytes = Samples::new(c.wal_bytes.clone());
        push(
            "wal.bytes_per_write".into(),
            bytes.median().map_or(f64::NAN, |v| v as f64),
            "bytes",
            src,
            "op1_p50_us (insert) on ingest".into(),
        );
        push(
            "wal.folds".into(),
            c.wal_folds as f64,
            "count",
            src,
            "op1_p50_us (insert) on ingest".into(),
        );

        for (metric, step, moves) in [
            ("persist.load_s", "persist.load", "setup_s on every workload; peak_rss_mb on analyze"),
            ("service.warm_start_s", "service.warm_start", "setup_s on every workload"),
            ("metricindex.build_s", "metricindex.build", "setup_s on analyze and ingest"),
            ("metricindex.load_s", "metricindex.load", "setup_s on analyze and ingest"),
            ("cluster.medoids_build_s", "cluster.medoids_build", "setup_s on ingest"),
            ("cluster.load_s", "cluster.load", "setup_s on ingest"),
        ] {
            let (v, src) = self.setup_step(step);
            push(metric.into(), v, "s", src, moves.into());
        }
        push(
            "trace.overhead_s".into(),
            overhead_s,
            "s",
            "replay",
            "none: tracing is off in the end-to-end run".into(),
        );

        let metrics = crate::PER_LAYER
            .iter()
            .map(|name| {
                let row = rows.iter().find(|r| r.metric.name == *name);
                row.expect("every registered per-layer metric has a row").metric.clone()
            })
            .collect();
        Layers { metrics, rows, notes: Vec::new(), failed: 0 }
    }
}
