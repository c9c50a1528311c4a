//! Crash-injection torture driver for the WAL persistence stack.
//!
//! ```text
//! crash_torture [quick|full]
//! ```
//!
//! Enumerates every durability operation of a scripted workload, re-executes
//! itself as a child that deterministically faults at each one (process
//! kill, torn-write and I/O-error modes), and asserts that recovery is
//! consistent: the reloaded store's run set, open streams, full pairwise
//! distance matrix and k-medoids partition equal an in-memory replay of
//! the operations that survived.  See `wfdiff_bench::torture` for the
//! invariant and `docs/OPERATIONS.md` for operational context.
//!
//! Writes `BENCH_crash_torture.json` (the fault-coverage report CI uploads)
//! and exits non-zero on any violation.

use std::path::Path;
use wfdiff_bench::benchjson::write_bench_json;
use wfdiff_bench::torture::{child_main, render, run_torture, TortureScale, CHILD_FAILURE_EXIT};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("__child") {
        let (Some(dir), Some(ack), Some(scale)) = (args.get(2), args.get(3), args.get(4)) else {
            eprintln!("usage: crash_torture __child <dir> <ack_path> <quick|full>");
            std::process::exit(CHILD_FAILURE_EXIT);
        };
        child_main(Path::new(dir), Path::new(ack), TortureScale::parse(scale));
    }

    let scale = TortureScale::parse(args.get(1).map(String::as_str).unwrap_or("full"));
    let report = run_torture(scale);
    print!("{}", render(&report));
    write_bench_json("BENCH_crash_torture.json", &report)
        .expect("writing BENCH_crash_torture.json");
    println!("wrote BENCH_crash_torture.json");
    if !report.violations.is_empty() {
        std::process::exit(1);
    }
}
