//! Metric computation and the printed tables.

use crate::live::Sample;
use crate::stats::{median_f64, ns_to_us, Samples};
use crate::workload::{cpus, Op, Plan, Workload};
use crate::{Live, REPS};
use std::collections::BTreeMap;
use std::time::Instant;

/// Consecutive completions per chunk of the throughput median.
const THROUGHPUT_CHUNK: usize = 25;

/// One named metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as registered in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric { name: name.into(), value, unit }
    }
}

/// Timed, successful latencies (ns) per op.
pub fn latencies(samples: &[Sample]) -> BTreeMap<Op, Samples> {
    let mut by_op: BTreeMap<Op, Vec<u64>> = BTreeMap::new();
    for s in samples.iter().filter(|s| s.timed && (200..300).contains(&s.status)) {
        by_op.entry(s.op).or_default().push(s.ns);
    }
    by_op.into_iter().map(|(op, v)| (op, Samples::new(v))).collect()
}

/// The end-to-end metrics registered in `BENCHMARK.json`, in order.  Op
/// latencies are reported by slot: `op1`..`op3` are the workload's three
/// ops in [`crate::workload::Shape::ops`] order.  Latencies pool every
/// repetition's timed samples; set-up time and RSS are medians over the
/// repetitions, throughput a median over chunks of completions.
pub fn end_to_end(plan: &Plan, live: &Live) -> Vec<Metric> {
    let lat = latencies(&live.samples);
    // Completions per second over each chunk of THROUGHPUT_CHUNK
    // consecutive completions of a repetition, median over all chunks.  A
    // figure over the whole window follows the rare stalls of the write
    // path (fsync, index folds), whose count differs from run to run.
    let mut rates = Vec::new();
    for rep in 0..REPS {
        let mut done: Vec<Instant> = live
            .samples
            .iter()
            .filter(|s| s.rep as usize == rep && s.timed && (200..300).contains(&s.status))
            .map(|s| s.done)
            .collect();
        done.sort_unstable();
        for end in (THROUGHPUT_CHUNK..done.len()).step_by(THROUGHPUT_CHUNK) {
            let seconds = done[end].duration_since(done[end - THROUGHPUT_CHUNK]).as_secs_f64();
            rates.push(THROUGHPUT_CHUNK as f64 / seconds.max(1e-9));
        }
    }
    let mut out = vec![
        Metric::new("setup_s", median_f64(&live.setup_s), "s"),
        Metric::new("throughput_rps", median_f64(&rates), "1/s"),
        Metric::new("peak_rss_mb", median_f64(&live.rss_mb), "MiB"),
    ];
    // Only medians are registered: on a two-CPU box the tails of the mixed
    // workloads spread more from run to run than any usable bound (the
    // table still prints p90 and p99 with their support).
    for (slot, op) in plan.shape.ops.iter().enumerate() {
        let p50 = lat.get(op).and_then(Samples::median).map_or(f64::NAN, ns_to_us);
        out.push(Metric::new(format!("op{}_p50_us", slot + 1), p50, "us"));
    }
    out
}

/// The run's parameters.
pub fn print_header(plan: &Plan, seed: u64, seconds: f64) {
    let clients = plan.shape.clients;
    println!(
        "wfbench {} — seed {seed}, {seconds} s measured over {REPS} repetitions",
        plan.workload.name()
    );
    println!(
        "  store: 1 spec ({} edges), {} runs; server: wfdiff_serve process, {} worker(s) = nproc {}",
        plan.shape.spec_edges,
        plan.runs.len(),
        cpus(),
        cpus()
    );
    println!(
        "  clients: {clients} closed-loop thread(s) (<= nproc), 1 keep-alive connection each; \
         ops: op1={} op2={} op3={}",
        plan.shape.ops[0].name(),
        plan.shape.ops[1].name(),
        plan.shape.ops[2].name()
    );
}

fn fmt_tail(s: &Samples, p: f64) -> String {
    match s.supported(p) {
        Some(v) => format!("{:.1}", ns_to_us(v)),
        None => format!("unsupported ({} beyond)", s.beyond(p)),
    }
}

/// The untraced end-to-end table: per-op latencies with sample counts and
/// tail support, then every metric by name and unit.
pub fn print_end_to_end(plan: &Plan, live: &Live, e2e: &[Metric]) {
    let lat = latencies(&live.samples);
    println!("\nend-to-end (untraced)");
    println!(
        "  {:<13} {:<27} {:>7} {:>10} {:>10} {:>6} {:>10} {:>6}",
        "op", "endpoint", "n", "p50_us", "p90_us", ">p90", "p99_us", ">p99"
    );
    for op in plan.shape.ops {
        let s = lat.get(&op).cloned().unwrap_or_default();
        println!(
            "  {:<13} {:<27} {:>7} {:>10} {:>10} {:>6} {:>10} {:>6}",
            op.name(),
            op.endpoint(),
            s.len(),
            s.median().map(|v| format!("{:.1}", ns_to_us(v))).unwrap_or_else(|| "-".into()),
            fmt_tail(&s, 90.0),
            s.beyond(90.0),
            fmt_tail(&s, 99.0),
            s.beyond(99.0),
        );
    }
    let error_rate = live.verdict.failed as f64 / live.attempted.max(1) as f64;
    println!("\n  {:<22} {:>14}  unit", "metric", "value");
    for m in e2e {
        println!("  {:<22} {:>14.3}  {}", m.name, m.value, m.unit);
    }
    println!(
        "  {:<22} {:>14.6}  ratio  ({} failed / {} attempted)",
        "error_rate", error_rate, live.verdict.failed, live.attempted
    );
    if plan.workload == Workload::Ingest {
        let streams = live.acked.iter().filter(|name| name.contains("-str")).count();
        println!(
            "  reload after SIGKILL checked {} acknowledged writes ({streams} finalised streams)",
            live.acked.len()
        );
    }

    // The same numbers under the per-op names, `not sent` for ops this
    // workload does not send.
    println!("\n  by op name:");
    let read: Vec<u64> = live
        .samples
        .iter()
        .filter(|s| s.timed && s.status == 200 && matches!(s.op, Op::Specs | Op::Runs))
        .map(|s| s.ns)
        .collect();
    let read = Samples::new(read);
    let groups: [(&str, Option<&Samples>); 6] = [
        ("read", (!read.is_empty()).then_some(&read)),
        ("diff", lat.get(&Op::Diff)),
        ("diff_batch", lat.get(&Op::DiffBatch)),
        ("similar", lat.get(&Op::Similar)),
        ("insert", lat.get(&Op::Insert)),
        ("stream_batch", lat.get(&Op::StreamBatch)),
    ];
    for (name, s) in groups {
        match s {
            Some(s) => {
                let p50 = s.median().map(|v| format!("{:.1}", ns_to_us(v))).unwrap_or_default();
                println!("  {:<22} {:>14}  us  (n={})", format!("{name}_p50_us"), p50, s.len());
                println!("  {:<22} {:>14}  us", format!("{name}_p99_us"), fmt_tail(s, 99.0));
            }
            None => {
                println!("  {:<22} {:>14}", format!("{name}_p50_us"), "not sent");
                println!("  {:<22} {:>14}", format!("{name}_p99_us"), "not sent");
            }
        }
    }
}

/// Prints the traced run's per-layer table.
pub fn print_layers(plan: &Plan, layers: &crate::replay::Layers) {
    println!("\nper-layer (traced in-process replay of {})", plan.workload.name());
    println!("  {:<40} {:>14}  {:<6} {:<8} moves", "metric", "value", "unit", "source");
    for row in &layers.rows {
        println!(
            "  {:<40} {:>14.3}  {:<6} {:<8} {}",
            row.metric.name, row.metric.value, row.metric.unit, row.source, row.moves
        );
    }
    for line in &layers.notes {
        println!("  {line}");
    }
}

/// The result line.  Non-finite values cannot appear in JSON; they are
/// written as `null` (and only arise from a failed run).
pub fn json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value =
                if m.value.is_finite() { format!("{}", m.value) } else { "null".to_string() };
            format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
