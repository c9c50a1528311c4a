//! The three workloads: the store each one boots from and the request
//! sequence each of its clients sends, all derived from the `--seed`.
//!
//! Everything here is generated before any timing starts: runs, request
//! bodies and the exact bytes each client writes to its socket.  The same
//! seed gives the same store and the same sequences; nothing in this module
//! reads the clock.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use wfdiff_bench::events::lifecycle_events;
use wfdiff_pdiffview::serve::api::{BatchDiffRequest, StreamEventsRequest};
use wfdiff_pdiffview::{RunDescriptor, SpecDescriptor, StreamEvent};
use wfdiff_sptree::{Run, Specification};
use wfdiff_workloads::generator::{random_specification, SpecGenConfig};
use wfdiff_workloads::runs::{generate_run, RunGenConfig};

/// One kind of request the benchmark sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Op {
    /// `GET /specs`.
    Specs,
    /// `GET /specs/{s}/runs`.
    Runs,
    /// `GET /diff`.
    Diff,
    /// `POST /diff/batch` with [`BATCH_PAIRS`] pairs.
    DiffBatch,
    /// `GET /similar?pruned=1&k=10`.
    Similar,
    /// `GET /cluster?algo=kmedoids`.
    Cluster,
    /// `POST /runs`.
    Insert,
    /// `POST /runs/stream`.
    StreamBatch,
}

impl Op {
    /// Every op, in report order.
    pub const ALL: [Op; 8] = [
        Op::Specs,
        Op::Runs,
        Op::Diff,
        Op::DiffBatch,
        Op::Similar,
        Op::Cluster,
        Op::Insert,
        Op::StreamBatch,
    ];

    /// The op's name in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Op::Specs => "specs",
            Op::Runs => "runs",
            Op::Diff => "diff",
            Op::DiffBatch => "diff_batch",
            Op::Similar => "similar",
            Op::Cluster => "cluster",
            Op::Insert => "insert",
            Op::StreamBatch => "stream_batch",
        }
    }

    /// The request line, as the report prints it.
    pub fn endpoint(self) -> &'static str {
        match self {
            Op::Specs => "GET /specs",
            Op::Runs => "GET /specs/{s}/runs",
            Op::Diff => "GET /diff",
            Op::DiffBatch => "POST /diff/batch",
            Op::Similar => "GET /similar?pruned=1",
            Op::Cluster => "GET /cluster?algo=kmedoids",
            Op::Insert => "POST /runs",
            Op::StreamBatch => "POST /runs/stream",
        }
    }
}

/// Pairs per `POST /diff/batch`.
pub const BATCH_PAIRS: usize = 64;
/// Neighbours per `/similar` query.
pub const SIMILAR_K: usize = 10;
/// Events per `POST /runs/stream` batch.
pub const STREAM_BATCH: usize = 8;
/// Clusters of the primed k-medoids clustering.
pub const CLUSTER_K: usize = 4;
/// Distinct `/diff` pairs a workload draws from.
const DIFF_POOL: usize = 256;
/// Distinct `/diff/batch` bodies a workload draws from.
const BATCH_POOL: usize = 32;
/// Length of a read-only client's sequence; clients cycle through it.
const READ_SEQUENCE: usize = 4096;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Read-only listing and single diffs by one client.
    Browse,
    /// Batch diffs, pruned similarity and single diffs by two clients.
    Analyze,
    /// Inserts, streamed batches and diff reads by two clients.
    Ingest,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::Browse, Workload::Analyze, Workload::Ingest];

    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Browse => "browse",
            Workload::Analyze => "analyze",
            Workload::Ingest => "ingest",
        }
    }

    /// The workload's fixed parameters.
    pub fn shape(self) -> Shape {
        let cpus = cpus();
        match self {
            Workload::Browse => Shape {
                spec_edges: 60,
                runs: 200,
                clients: 1,
                ops: [Op::Specs, Op::Runs, Op::Diff],
                store_per_rep: false,
            },
            Workload::Analyze => Shape {
                spec_edges: 40,
                runs: 2000,
                clients: cpus.min(2),
                ops: [Op::DiffBatch, Op::Similar, Op::Diff],
                store_per_rep: false,
            },
            // A write's cost follows the k-medoids clustering of the store,
            // which differs from seed to seed; a store per repetition
            // averages five clusterings in every run.
            Workload::Ingest => Shape {
                spec_edges: 60,
                runs: 200,
                clients: cpus.min(2),
                ops: [Op::Insert, Op::StreamBatch, Op::Diff],
                store_per_rep: true,
            },
        }
    }

    fn salt(self) -> u64 {
        match self {
            Workload::Browse => 0xB0_5E,
            Workload::Analyze => 0xA7_A1,
            Workload::Ingest => 0x17_6E,
        }
    }
}

/// CPUs available to this process (`nproc`).
pub fn cpus() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// A workload's fixed parameters.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Specification size in edges.
    pub spec_edges: usize,
    /// Runs stored when the server boots.
    pub runs: usize,
    /// Client threads, each with one keep-alive connection.
    pub clients: usize,
    /// The ops the workload sends, in slot order (`op1`, `op2`, `op3`).
    pub ops: [Op; 3],
    /// Whether each repetition boots a store of its own, drawn from
    /// [`rep_seed`], rather than a copy of the first repetition's.
    pub store_per_rep: bool,
}

/// The seed of repetition `rep`'s plan; repetition 0 uses the run's seed.
pub fn rep_seed(seed: u64, rep: usize) -> u64 {
    seed ^ ((rep as u64) << 56)
}

/// An independent random stream for one purpose of one workload and seed.
fn rng(workload: Workload, seed: u64, purpose: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ workload.salt() ^ purpose.rotate_left(40),
    )
}

fn run_gen() -> RunGenConfig {
    RunGenConfig { prob_p: 0.9, max_f: 3, prob_f: 0.6, max_l: 3, prob_l: 0.6 }
}

/// Name of the `i`-th boot run.
pub fn boot_run_name(i: usize) -> String {
    format!("run{i:05}")
}

/// What a request's answer is checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Key {
    /// `GET /specs`.
    Specs,
    /// `GET /specs/{s}/runs`.
    Runs,
    /// `GET /cluster?algo=kmedoids`.
    Cluster,
    /// `GET /diff` between two boot runs.
    Diff(u32, u32),
    /// `POST /diff/batch` with body `batches[i]`.
    Batch(u32),
    /// `GET /similar` for boot run `i`.
    Similar(u32),
    /// `POST /runs` of `inserts[client][i]`.
    Insert(u32),
    /// `POST /runs/stream`: batch `batch` of `streams[client][stream]`.
    Stream {
        /// Index of the stream in the client's stream list.
        stream: u32,
        /// Index of the batch within the stream.
        batch: u32,
    },
}

/// One pre-rendered request.
#[derive(Debug, Clone)]
pub struct Req {
    /// The request's op.
    pub op: Op,
    /// The complete request as written to the socket.
    pub wire: Vec<u8>,
    /// What the answer is checked against.
    pub key: Key,
}

/// A run a client inserts with `POST /runs`.
#[derive(Debug, Clone)]
pub struct InsertItem {
    /// Run name.
    pub name: String,
    /// The run.
    pub run: Run,
    /// The run's descriptor JSON (what the server decodes).
    pub descriptor: String,
}

/// A run a client streams in event by event.
#[derive(Debug, Clone)]
pub struct StreamItem {
    /// Stream (and final run) name.
    pub name: String,
    /// The run's lifecycle events.
    pub events: Vec<StreamEvent>,
}

impl StreamItem {
    /// Number of batches the stream is sent in.
    pub fn batch_count(&self) -> usize {
        self.events.len().div_ceil(STREAM_BATCH)
    }

    /// Events of batch `b`.
    pub fn batch(&self, b: usize) -> &[StreamEvent] {
        let end = ((b + 1) * STREAM_BATCH).min(self.events.len());
        &self.events[b * STREAM_BATCH..end]
    }
}

/// A client's pre-generated sequence and the write payloads it uses.
#[derive(Debug, Clone, Default)]
pub struct ClientPlan {
    /// Requests in send order.
    pub requests: Vec<Req>,
    /// Whether the client may start over at the end (read-only clients) or
    /// must stop (writers: names are create-only).
    pub cycles: bool,
    /// Runs inserted by `Key::Insert`.
    pub inserts: Vec<InsertItem>,
    /// Runs streamed by `Key::Stream`.
    pub streams: Vec<StreamItem>,
}

impl ClientPlan {
    /// The status a correct server answers a request with: `201` for
    /// inserts and finalising stream batches, `200` otherwise.
    pub fn expected_status(&self, key: Key) -> u16 {
        match key {
            Key::Insert(_) => 201,
            Key::Stream { stream, batch }
                if batch as usize + 1 == self.streams[stream as usize].batch_count() =>
            {
                201
            }
            _ => 200,
        }
    }
}

/// A workload instance: the boot store and every client's sequence.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// The seed the plan was drawn from.
    pub seed: u64,
    /// Write cycles per ingest client.
    pub write_cycles: usize,
    /// Its parameters.
    pub shape: Shape,
    /// The single specification.
    pub spec: Arc<Specification>,
    /// Boot runs, named by [`boot_run_name`].
    pub runs: Vec<Run>,
    /// Pairs (boot-run indices) of each `/diff/batch` body.
    pub batches: Vec<Vec<(u32, u32)>>,
    /// One plan per client.
    pub clients: Vec<ClientPlan>,
    /// The set-up requests: the first k-medoids clustering and/or the
    /// first pruned `/similar`, as the workload primes them.
    pub priming: Vec<Req>,
}

impl Plan {
    /// The specification's name.
    pub fn spec_name(&self) -> &str {
        self.spec.name()
    }
}

/// Renders a request as wire bytes.
pub fn wire(method: &str, target: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {target} HTTP/1.1\r\nHost: wfbench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn get(op: Op, target: String, key: Key) -> Req {
    Req { op, wire: wire("GET", &target, ""), key }
}

/// Builds a workload instance from `seed`.  `write_cycles` is the number
/// of insert/stream/diff cycles each ingest client can send before its
/// pre-generated runs run out (read-only clients cycle instead).
pub fn plan(workload: Workload, seed: u64, write_cycles: usize) -> Plan {
    plan_shaped(workload, seed, write_cycles, workload.shape())
}

/// [`plan`] with another store size or specification size.
pub fn plan_shaped(workload: Workload, seed: u64, write_cycles: usize, shape: Shape) -> Plan {
    // The specification is fixed per workload; the seed draws the runs and
    // the requests.  A spec's fork and loop structure sets how large every
    // run of it is, so drawing it from the seed would make seeds differ in
    // difficulty rather than in data.
    let spec = Arc::new(random_specification(
        &format!("wf-{}", workload.name()),
        &SpecGenConfig {
            target_edges: shape.spec_edges,
            series_parallel_ratio: 1.0,
            forks: 3,
            loops: 2,
        },
        &mut rng(workload, SPEC_SEED, 0),
    ));
    let mut data_rng = rng(workload, seed, 0);
    let runs: Vec<Run> =
        (0..shape.runs).map(|_| generate_run(&spec, &run_gen(), &mut data_rng)).collect();
    // Browse takes the read-only part of `load_gen`'s default mix: store
    // reads to diffs 2:5, the reads split evenly between the two listings.
    // Analyze's equal shares and ingest's one-of-each cycle are this
    // benchmark's own choice (see the README): every op gets a comparable
    // sample count, and per-request cost decides where the time goes.
    let mix = match workload {
        Workload::Browse => {
            Mix::Reads(&[Op::Specs, Op::Runs, Op::Diff, Op::Diff, Op::Diff, Op::Diff, Op::Diff])
        }
        Workload::Analyze => Mix::Reads(&[Op::DiffBatch, Op::Similar, Op::Diff]),
        Workload::Ingest => Mix::Writes(write_cycles),
    };
    // Browse primes nothing: its set-up is the boot itself.  Analyze
    // primes only the VP-tree: a k-medoids build is quadratic in the store
    // and takes minutes at its size.
    let priming: &[Op] = match workload {
        Workload::Browse => &[],
        Workload::Analyze => &[Op::Similar],
        Workload::Ingest => &[Op::Cluster, Op::Similar],
    };
    let mut plan = assemble(workload, seed, spec, runs, shape.clients, mix, priming);
    plan.shape = shape;
    plan
}

/// Seed of every workload's specification.
const SPEC_SEED: u64 = 2009;

/// Runs in a [`probe`] store.
pub const PROBE_RUNS: usize = 200;
/// Requests of each read op in a [`probe`].
const PROBE_EACH: usize = 6;
/// Write cycles of a [`probe`]: enough to finalise one stream.
const PROBE_CYCLES: usize = 24;

/// A small companion of `plan` for the traced run: the first
/// [`PROBE_RUNS`] boot runs, primed with a clustering and a VP-tree, and
/// one client sending a few requests of every op the workload itself does
/// not send — so every layer is timed on every workload's data.
pub fn probe(plan: &Plan, seed: u64) -> Plan {
    let runs = plan.runs[..plan.runs.len().min(PROBE_RUNS)].to_vec();
    let missing: Vec<Op> = Op::ALL.into_iter().filter(|op| !plan.shape.ops.contains(op)).collect();
    let mut probe = assemble(
        plan.workload,
        seed ^ 0x9B0BE,
        Arc::clone(&plan.spec),
        runs,
        1,
        Mix::Probe(missing),
        &[Op::Cluster, Op::Similar],
    );
    probe.shape.runs = probe.runs.len();
    probe
}

/// How a plan's clients pick their requests.
enum Mix {
    /// Uniform draws from the listed ops; clients cycle.
    Reads(&'static [Op]),
    /// Insert / stream batch / diff cycles; clients stop when done.
    Writes(usize),
    /// [`PROBE_EACH`] requests of each listed read op, and the listed
    /// write ops of [`PROBE_CYCLES`] write cycles.
    Probe(Vec<Op>),
}

fn assemble(
    workload: Workload,
    seed: u64,
    spec: Arc<Specification>,
    runs: Vec<Run>,
    clients: usize,
    mix: Mix,
    priming: &[Op],
) -> Plan {
    let spec_name = spec.name().to_string();
    let n = runs.len() as u32;
    let mut pool_rng = rng(workload, seed, 1);
    let distinct_pair = |rng: &mut ChaCha8Rng| {
        let a = rng.gen_range(0..n);
        let b = (a + rng.gen_range(1..n)) % n;
        (a, b)
    };
    let diff_pool: Vec<(u32, u32)> = (0..DIFF_POOL).map(|_| distinct_pair(&mut pool_rng)).collect();
    let batches: Vec<Vec<(u32, u32)>> = (0..BATCH_POOL)
        .map(|_| (0..BATCH_PAIRS).map(|_| distinct_pair(&mut pool_rng)).collect())
        .collect();

    let diff_req = |(a, b): (u32, u32)| {
        get(
            Op::Diff,
            format!(
                "/diff?spec={spec_name}&a={}&b={}",
                boot_run_name(a as usize),
                boot_run_name(b as usize)
            ),
            Key::Diff(a, b),
        )
    };
    let similar_req = |q: u32| {
        get(
            Op::Similar,
            format!(
                "/similar?spec={spec_name}&run={}&k={SIMILAR_K}&pruned=1",
                boot_run_name(q as usize)
            ),
            Key::Similar(q),
        )
    };
    let read_req = |op: Op, r: &mut ChaCha8Rng| match op {
        Op::Specs => get(Op::Specs, "/specs".to_string(), Key::Specs),
        Op::Runs => get(Op::Runs, format!("/specs/{spec_name}/runs"), Key::Runs),
        Op::Diff => diff_req(diff_pool[r.gen_range(0..DIFF_POOL)]),
        Op::DiffBatch => {
            let i = r.gen_range(0..BATCH_POOL);
            let body = serde_json::to_string(&BatchDiffRequest {
                spec: spec_name.clone(),
                pairs: batches[i]
                    .iter()
                    .map(|&(a, b)| (boot_run_name(a as usize), boot_run_name(b as usize)))
                    .collect(),
            })
            .expect("batch request serialises");
            Req { op, wire: wire("POST", "/diff/batch", &body), key: Key::Batch(i as u32) }
        }
        // Queries range over every stored run: per-query cost varies
        // widely, so a small pool would make seeds differ in difficulty.
        Op::Similar => similar_req(r.gen_range(0..n)),
        Op::Cluster => get(
            Op::Cluster,
            format!("/cluster?spec={spec_name}&algo=kmedoids&k={CLUSTER_K}"),
            Key::Cluster,
        ),
        Op::Insert | Op::StreamBatch => unreachable!("writes are planned per client"),
    };
    // Inserts assert the specification version the server holds, which is
    // the spec after a store save/load.  For some specs (the browse spec
    // among them) that round trip changes the fingerprint.
    let fingerprint = SpecDescriptor::from_specification(&spec)
        .to_specification()
        .map_or_else(|_| spec.fingerprint(), |stored| stored.fingerprint())
        .to_string();

    let clients = (0..clients)
        .map(|c| {
            let mut r = rng(workload, seed, 16 + c as u64);
            match &mix {
                Mix::Reads(ops) => ClientPlan {
                    requests: (0..READ_SEQUENCE)
                        .map(|_| {
                            let op = ops[r.gen_range(0..ops.len())];
                            read_req(op, &mut r)
                        })
                        .collect(),
                    cycles: true,
                    ..ClientPlan::default()
                },
                Mix::Writes(cycles) => {
                    ingest_client(c, &spec, &fingerprint, *cycles, &mut r, |r| {
                        diff_req(diff_pool[r.gen_range(0..DIFF_POOL)])
                    })
                }
                Mix::Probe(ops) => {
                    let mut plan =
                        ingest_client(c, &spec, &fingerprint, PROBE_CYCLES, &mut r, |r| {
                            diff_req(diff_pool[r.gen_range(0..DIFF_POOL)])
                        });
                    plan.requests.retain(|req| {
                        ops.contains(&req.op) && matches!(req.op, Op::Insert | Op::StreamBatch)
                    });
                    for &op in ops.iter().filter(|op| !matches!(op, Op::Insert | Op::StreamBatch)) {
                        for _ in 0..PROBE_EACH {
                            plan.requests.push(read_req(op, &mut r));
                        }
                    }
                    plan
                }
            }
        })
        .collect();

    let priming = priming
        .iter()
        .map(|&op| if op == Op::Similar { similar_req(0) } else { read_req(op, &mut pool_rng) })
        .collect();
    let write_cycles = match mix {
        Mix::Reads(_) => 0,
        Mix::Writes(cycles) => cycles,
        Mix::Probe(_) => PROBE_CYCLES,
    };
    Plan {
        workload,
        seed,
        write_cycles,
        shape: workload.shape(),
        spec,
        runs,
        batches,
        clients,
        priming,
    }
}

/// An ingest client: cycle `i` inserts one run, sends the next batch of the
/// client's open stream (finalising on its last batch) and reads one diff.
fn ingest_client(
    client: usize,
    spec: &Arc<Specification>,
    fingerprint: &str,
    cycles: usize,
    r: &mut ChaCha8Rng,
    diff_req: impl Fn(&mut ChaCha8Rng) -> Req,
) -> ClientPlan {
    let spec_name = spec.name().to_string();
    let mut plan = ClientPlan { cycles: false, ..ClientPlan::default() };
    let (mut stream, mut batch) = (0usize, 0usize);
    for i in 0..cycles {
        let run = generate_run(spec, &run_gen(), r);
        let name = format!("c{client}-ins{i:06}");
        let descriptor = RunDescriptor::from_run(&run);
        // `InsertRunRequest` only deserialises; names and fingerprints are
        // JSON-safe, and the descriptor is JSON already.
        let descriptor = descriptor.to_json();
        let body = format!(
            "{{\"name\": \"{name}\", \"spec_fingerprint\": \"{fingerprint}\", \"run\": {descriptor}}}"
        );
        plan.requests.push(Req {
            op: Op::Insert,
            wire: wire("POST", "/runs", &body),
            key: Key::Insert(i as u32),
        });
        plan.inserts.push(InsertItem { name, run, descriptor });

        if stream == plan.streams.len() {
            let run = generate_run(spec, &run_gen(), r);
            plan.streams.push(StreamItem {
                name: format!("c{client}-str{stream:05}"),
                events: lifecycle_events(&run),
            });
        }
        let item = &plan.streams[stream];
        let finalize = batch + 1 == item.batch_count();
        let body = serde_json::to_string(&StreamEventsRequest {
            spec: spec_name.clone(),
            stream: item.name.clone(),
            events: item.batch(batch).to_vec(),
            finalize,
        })
        .expect("stream request serialises");
        plan.requests.push(Req {
            op: Op::StreamBatch,
            wire: wire("POST", "/runs/stream", &body),
            key: Key::Stream { stream: stream as u32, batch: batch as u32 },
        });
        if finalize {
            (stream, batch) = (stream + 1, 0);
        } else {
            batch += 1;
        }

        plan.requests.push(diff_req(r));
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wfdiff_pdiffview::PartialRun;

    fn fingerprint(plan: &Plan) -> Vec<u8> {
        let mut out = plan.spec.fingerprint().to_string().into_bytes();
        for run in &plan.runs {
            out.extend(RunDescriptor::from_run(run).to_json().into_bytes());
        }
        for client in &plan.clients {
            for req in &client.requests {
                out.extend_from_slice(&req.wire);
            }
        }
        out
    }

    #[test]
    fn the_same_seed_gives_the_same_store_and_requests() {
        for workload in Workload::ALL {
            let a = plan(workload, 7, 40);
            let b = plan(workload, 7, 40);
            assert_eq!(fingerprint(&a), fingerprint(&b), "{}", workload.name());
            let c = plan(workload, 8, 40);
            assert_ne!(fingerprint(&a), fingerprint(&c), "{}", workload.name());
            let rep = plan(workload, rep_seed(7, 1), 40);
            assert_ne!(fingerprint(&a), fingerprint(&rep), "{}", workload.name());
            assert_ne!(
                RunDescriptor::from_run(&a.runs[0]).to_json(),
                RunDescriptor::from_run(&c.runs[0]).to_json(),
                "a different seed gives a different store"
            );
        }
    }

    #[test]
    fn every_workload_sends_exactly_its_three_ops() {
        for workload in Workload::ALL {
            let p = plan(workload, 3, 60);
            for client in &p.clients {
                let mut seen: Vec<Op> = client.requests.iter().map(|r| r.op).collect();
                seen.sort();
                seen.dedup();
                let mut want = p.shape.ops.to_vec();
                want.sort();
                assert_eq!(seen, want, "{}", workload.name());
            }
        }
    }

    #[test]
    fn streamed_events_rebuild_the_run() {
        let p = plan(Workload::Ingest, 5, 80);
        let client = &p.clients[0];
        assert!(client.streams.len() >= 2, "80 cycles finish at least one stream");
        let item = &client.streams[0];
        let mut partial = PartialRun::new(Arc::clone(&p.spec));
        for b in 0..item.batch_count() {
            for e in item.batch(b) {
                partial.apply(e).expect("derived events are legal");
            }
        }
        assert!(partial.is_complete());
        partial.finalize().expect("complete streams finalise");
    }
}
