//! `wfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path wfbench/Cargo.toml -- \
//!     --workload <browse|analyze|ingest> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root.  It builds `wfdiff_serve`, generates the
//! workload's store from the seed, and for each of [`REPS`] repetitions
//! copies that store (`ingest` generates one per repetition), boots the
//! server as its own process (one worker per CPU), times set-up (boot, `/healthz` and the workload's priming
//! requests), drives it from closed-loop client threads
//! for a share of `--seconds`, reads its peak RSS and kills it with
//! SIGKILL.  All answers are then checked against a local recompute, and
//! for `ingest` the killed directory is reloaded to find every acknowledged
//! write.  `--trace 1` additionally replays the workload in-process through
//! the layers' public functions with spans recorded.
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed`, and the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`).  Any failed check makes the exit code 1.

mod check;
mod client;
mod live;
mod replay;
mod report;
mod server;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wfdiff_pdiffview::WorkflowStore;
use workload::{cpus, Plan, Workload};

/// Repetitions per run, each from a fresh copy of the generated store; the
/// set-up time and peak RSS are their medians.
pub const REPS: usize = 5;

/// The per-layer metrics `--trace 1` reports, in order (registered in
/// `BENCHMARK.json`).  `op1`..`op3` are the workload's ops in slot order.
pub const PER_LAYER: [&str; 37] = [
    "serve.http.parse_us",
    "serve.http.render_us",
    "serve.handlers.dispatch_us.op1",
    "serve.wait_us.op1",
    "serve.handlers.unattributed_us.op1",
    "serve.handlers.dispatch_us.op2",
    "serve.wait_us.op2",
    "serve.handlers.unattributed_us.op2",
    "serve.handlers.dispatch_us.op3",
    "serve.wait_us.op3",
    "serve.handlers.unattributed_us.op3",
    "store.lookup_us",
    "store.snapshot_us",
    "store.insert_us",
    "io.run_decode_us",
    "core.engine_new_us",
    "core.prepare_us",
    "core.dp_us",
    "core.prefix_distance_us",
    "core.cache.hit_rate",
    "metricindex.nearest_us",
    "metricindex.distance_evals",
    "metricindex.eval_fraction",
    "cluster.notify_insert_us",
    "persist.append_us",
    "persist.stream_append_us",
    "wal.bytes_per_write",
    "wal.folds",
    "stream.events_us",
    "stream.drift_us",
    "persist.load_s",
    "service.warm_start_s",
    "metricindex.build_s",
    "metricindex.load_s",
    "cluster.medoids_build_s",
    "cluster.load_s",
    "trace.overhead_s",
];

/// Upper bound on an ingest client's write cycles per second of window;
/// the pre-generated runs cover this rate.
const INGEST_CYCLES_PER_SECOND: f64 = 600.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value:?}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("wfbench: {e}");
            eprintln!("usage: wfbench --workload <browse|analyze|ingest> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let root = std::env::current_dir().expect("the working directory is readable");
    let data = root.join("wfbench").join(".data").join(format!(
        "{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    let outcome = run(&args, &root, &data);
    let _ = std::fs::remove_dir_all(&data);
    match outcome {
        Ok(result) => {
            println!("{}", result.json);
            std::process::exit(if result.correct { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("wfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// What one invocation prints last.
struct Outcome {
    json: String,
    correct: bool,
}

/// The live measurement of one workload: every repetition's samples and
/// set-up figures, plus the check verdict.
pub struct Live {
    /// Every sample of every repetition.
    pub samples: Vec<live::Sample>,
    /// Set-up time of each repetition.
    pub setup_s: Vec<f64>,
    /// Peak RSS of each repetition's server.
    pub rss_mb: Vec<f64>,
    /// Requests sent, priming included.
    pub attempted: usize,
    /// Failed checks.
    pub verdict: check::Verdict,
    /// Writes acknowledged in every repetition and found after the reload.
    pub acked: Vec<String>,
}

fn run(args: &Args, root: &Path, data: &Path) -> Result<Outcome, String> {
    let bin = server::build(root)?;
    let window = Duration::from_secs_f64(args.seconds / REPS as f64);
    let cycles = (window.as_secs_f64() * INGEST_CYCLES_PER_SECOND) as usize + live::WARMUP_REQUESTS;
    let plan = workload::plan(args.workload, args.seed, cycles);
    let template = data.join("template");
    let store = Arc::new(boot_store(&plan));
    store.save_to_dir(&template).map_err(|e| format!("saving the generated store: {e}"))?;

    let live = measure(&plan, &bin, &template, data, Arc::clone(&store), window)?;
    let e2e = report::end_to_end(&plan, &live);
    report::print_header(&plan, args.seed, args.seconds);
    report::print_end_to_end(&plan, &live, &e2e);
    let mut failed = live.verdict.failed;
    for m in &live.verdict.messages {
        eprintln!("wfbench: check failed: {m}");
    }
    let metrics = if args.trace {
        drop(store);
        let layers = replay::run(&plan, &template, data, args.seed, &live)?;
        report::print_layers(&plan, &layers);
        failed += layers.failed;
        layers.metrics
    } else {
        e2e
    };
    Ok(Outcome {
        json: report::json(failed == 0, live.attempted, failed, &metrics),
        correct: failed == 0,
    })
}

/// The plan's boot store, in memory.
pub fn boot_store(plan: &Plan) -> WorkflowStore {
    let store = WorkflowStore::new();
    store.insert_spec((*plan.spec).clone()).expect("a fresh store accepts the spec");
    for (i, run) in plan.runs.iter().enumerate() {
        store.insert_run(&workload::boot_run_name(i), run.clone()).expect("the spec is stored");
    }
    store
}

/// Runs [`REPS`] repetitions against the real server and checks every answer.
/// A workload with [`workload::Shape::store_per_rep`] draws, saves and
/// checks a plan of its own for each repetition after the first, one at a
/// time and before its server starts.
pub fn measure(
    plan: &Plan,
    bin: &Path,
    template: &Path,
    data: &Path,
    store: Arc<WorkflowStore>,
    window: Duration,
) -> Result<Live, String> {
    let mut checker = check::Checker::new(plan, store);
    let mut live = Live {
        samples: Vec::new(),
        setup_s: Vec::new(),
        rss_mb: Vec::new(),
        attempted: 0,
        verdict: check::Verdict::default(),
        acked: Vec::new(),
    };
    for rep in 0..REPS {
        if rep == 0 || !plan.shape.store_per_rep {
            repetition(plan, template, &mut checker, rep, bin, data, window, &mut live)?;
            continue;
        }
        let own = workload::plan_shaped(
            plan.workload,
            workload::rep_seed(plan.seed, rep),
            plan.write_cycles,
            plan.shape,
        );
        let own_template = data.join(format!("template-rep{rep}"));
        let store = Arc::new(boot_store(&own));
        store.save_to_dir(&own_template).map_err(|e| format!("saving the generated store: {e}"))?;
        let mut own_checker = check::Checker::new(&own, store);
        repetition(&own, &own_template, &mut own_checker, rep, bin, data, window, &mut live)?;
        let _ = std::fs::remove_dir_all(&own_template);
    }
    Ok(live)
}

/// One repetition: boot a copy of `template`, time set-up, run the window,
/// read the peak RSS, SIGKILL, then check every answer (and, for `ingest`,
/// reload the killed directory).
#[allow(clippy::too_many_arguments)]
fn repetition(
    plan: &Plan,
    template: &Path,
    checker: &mut check::Checker,
    rep: usize,
    bin: &Path,
    data: &Path,
    window: Duration,
    live: &mut Live,
) -> Result<(), String> {
    let dir: PathBuf = data.join(format!("rep{rep}"));
    server::copy_dir(template, &dir).map_err(|e| format!("copying the store: {e}"))?;
    let started = Instant::now();
    let served = server::Served::spawn(bin, &dir, cpus())?;
    let mut conn = client::Conn::connect(served.addr).map_err(|e| format!("connect: {e}"))?;
    match conn.get("/healthz") {
        Ok((200, _)) => {}
        other => return Err(format!("/healthz did not answer 200: {other:?}")),
    }
    let mut priming = Vec::new();
    for req in &plan.priming {
        let answer = conn.send(&req.wire).map_err(|e| format!("priming request failed: {e}"))?;
        priming.push((req.key, answer));
    }
    live.setup_s.push(started.elapsed().as_secs_f64());
    live.attempted += 1 + plan.priming.len();
    drop(conn);

    let w = live::run(served.addr, &plan.clients, rep as u16, REPS, window);
    live.rss_mb.push(served.peak_rss_mb().ok_or("cannot read the server's VmHWM")?);
    served.kill();
    live.attempted += w.samples.len();
    let verdict = &mut live.verdict;
    if w.exhausted > 0 {
        // The window would end early for them, and throughput with it.
        verdict.fail(format!(
            "rep {rep}: {} client(s) ran out of pre-generated writes before the window closed",
            w.exhausted
        ));
    }
    for (key, (status, body)) in priming {
        if let Err(e) = checker.check_priming(key, status, &body) {
            verdict.fail(format!("rep {rep} priming: {e}"));
        }
    }
    let acked = checker.check_samples(&w.samples, verdict);
    if plan.workload == Workload::Ingest {
        let acked = acked.get(&(rep as u16)).cloned().unwrap_or_default();
        check::check_reload(&dir, plan, &acked, verdict);
        live.acked.extend(acked.names);
    }
    live.samples.extend(w.samples);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny run of every workload against the real server passes all its
    /// output checks (and, for `ingest`, the SIGKILL reload check); the
    /// traced replay of `ingest` finds well-nested spans and no failures.
    #[test]
    fn a_tiny_run_of_each_workload_passes_its_checks() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .expect("the package is in the repository");
        let bin = server::build(root).expect("wfdiff_serve builds");
        for w in Workload::ALL {
            // Ingest runs a small spec, so that a stream finalises within
            // the warm-up requests however slow the machine is.
            let spec_edges = if w == Workload::Ingest { 6 } else { w.shape().spec_edges };
            let shape = workload::Shape { runs: 30, spec_edges, ..w.shape() };
            let plan = workload::plan_shaped(w, 11, 60, shape);
            if w == Workload::Ingest {
                for client in &plan.clients {
                    assert!(3 * client.streams[0].batch_count() <= live::WARMUP_REQUESTS);
                }
            }
            let data = root.join("wfbench").join(".data").join(format!(
                "test-{}-{}",
                w.name(),
                std::process::id()
            ));
            let template = data.join("template");
            let store = Arc::new(boot_store(&plan));
            store.save_to_dir(&template).expect("the store saves");
            let live = measure(&plan, &bin, &template, &data, store, Duration::from_millis(150))
                .expect("the server runs");
            assert_eq!(live.verdict.failed, 0, "{}: {:?}", w.name(), live.verdict.messages);
            for op in plan.shape.ops {
                assert!(
                    live.samples.iter().any(|s| s.timed && s.op == op),
                    "{} sent {}",
                    w.name(),
                    op.name()
                );
            }
            if w == Workload::Ingest {
                // A finalising batch was answered 201, and the finalised
                // stream was among the writes the reload found.
                assert!(live
                    .samples
                    .iter()
                    .any(|s| s.op == workload::Op::StreamBatch && s.status == 201));
                assert!(live.acked.iter().any(|name| name.contains("-str")), "{:?}", live.acked);
                assert!(live.acked.iter().any(|name| name.contains("-ins")), "{:?}", live.acked);
                let layers =
                    replay::run(&plan, &template, &data, 11, &live).expect("the replay runs");
                assert_eq!(layers.failed, 0, "{:?}", layers.notes);
                assert_eq!(layers.metrics.len(), PER_LAYER.len());
            }
            let _ = std::fs::remove_dir_all(&data);
        }
    }
}
