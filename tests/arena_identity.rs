//! Arena identity of rebuilt runs.
//!
//! Stored runs reference their specification's tree by arena id, and every
//! prepared table, cache key and checkpoint downstream hashes run trees as
//! stored.  `tests/fixtures/arena_identity.txt` records, for a seeded
//! corpus, what [`Run::from_graph`] built before its per-specification
//! tables, bitset key sets and arena-based SP reduction existed:
//!
//! * each specification's [`Specification::fingerprint`];
//! * per run, [`arena_fingerprint`] of the run tree (node order, types,
//!   labels, origins, control ids and child order);
//! * per run, a digest of every `Q` leaf's `(edge, s_node, t_node)` in arena
//!   order, which binds the tree to the run graph.
//!
//! The corpus covers the three wfbench specifications (same generator,
//! sizes and seeds as `wfbench/src/workload.rs`), Figure 2 and a spec with
//! forks and loops nested inside each other.  Any change to how a run graph
//! is decomposed or replayed that moves a node, swaps a `P` child or rebinds
//! a leaf fails this test.

use pdiffview::sptree::fingerprint::arena_fingerprint;
use pdiffview::sptree::{NodeType, Run, Specification, SpecificationBuilder, TreeId};
use pdiffview::workloads::figures::{fig2_run1, fig2_run2, fig2_run3, fig2_specification};
use pdiffview::workloads::generator::{random_specification, SpecGenConfig};
use pdiffview::workloads::runs::{generate_run, RunGenConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::path::Path;

/// Runs drawn per generated specification.
const RUNS_PER_SPEC: usize = 40;

/// The wfbench workload specifications: `(name, edges, salt)`.
const WFBENCH_SPECS: [(&str, usize, u64); 3] =
    [("wf-browse", 60, 0xB0_5E), ("wf-analyze", 40, 0xA7_A1), ("wf-ingest", 60, 0x17_6E)];

/// wfbench's specification seed.
const SPEC_SEED: u64 = 2009;

fn wfbench_rng(salt: u64, seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt)
}

fn run_gen() -> RunGenConfig {
    RunGenConfig { prob_p: 0.9, max_f: 3, prob_f: 0.6, max_l: 3, prob_l: 0.6 }
}

/// A loop over a parallel section that holds a fork and a loop of its own,
/// inside a fork over the whole graph.
fn nested_specification() -> Specification {
    let mut b = SpecificationBuilder::new("nested");
    b.edge("a", "b")
        .path(&["b", "c", "d"])
        .path(&["b", "x", "d"])
        .edge("b", "d")
        .path(&["d", "e", "f"])
        .fork_path(&["b", "c", "d"])
        .loop_path(&["b", "x", "d"])
        .loop_between("b", "e")
        .fork_path(&["e", "f"])
        .fork_between("a", "f");
    b.build().unwrap()
}

/// Every specification of the corpus with its runs, each rebuilt from its
/// graph by [`Run::from_graph`].
fn corpus() -> Vec<(Specification, Vec<Run>)> {
    let rebuild = |spec: &Specification, runs: Vec<Run>| -> Vec<Run> {
        runs.iter().map(|r| Run::from_graph(spec, r.graph().clone()).unwrap()).collect()
    };
    let mut out = Vec::new();
    for (name, edges, salt) in WFBENCH_SPECS {
        let config =
            SpecGenConfig { target_edges: edges, series_parallel_ratio: 1.0, forks: 3, loops: 2 };
        let spec = random_specification(name, &config, &mut wfbench_rng(salt, SPEC_SEED));
        let mut rng = wfbench_rng(salt, 1);
        let runs = (0..RUNS_PER_SPEC).map(|_| generate_run(&spec, &run_gen(), &mut rng)).collect();
        let runs = rebuild(&spec, runs);
        out.push((spec, runs));
    }
    let fig2 = fig2_specification();
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let mut runs = vec![fig2_run1(&fig2), fig2_run2(&fig2), fig2_run3(&fig2)];
    runs.extend((0..RUNS_PER_SPEC).map(|_| generate_run(&fig2, &run_gen(), &mut rng)));
    let runs = rebuild(&fig2, runs);
    out.push((fig2, runs));
    let nested = nested_specification();
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let runs = (0..RUNS_PER_SPEC).map(|_| generate_run(&nested, &run_gen(), &mut rng)).collect();
    let runs = rebuild(&nested, runs);
    out.push((nested, runs));
    out
}

/// FNV-1a over every `Q` leaf's `(edge, s_node, t_node)`, in arena order.
fn leaf_digest(run: &Run) -> u64 {
    let tree = run.tree();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut write = |v: u64| {
        for byte in v.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
        }
    };
    for idx in 0..tree.len() {
        let node = tree.node(TreeId::from(idx));
        if node.ty == NodeType::Q {
            write(idx as u64);
            write(node.edge.map_or(u64::MAX, |e| e.index() as u64));
            write(node.s_node.index() as u64);
            write(node.t_node.index() as u64);
        }
    }
    h
}

/// The fixture text for a corpus: a `spec <name> <fingerprint>` line per
/// specification, then a `run <arena fingerprint> <leaf digest>` line per
/// run.
fn record(corpus: &[(Specification, Vec<Run>)]) -> String {
    let mut out = String::new();
    for (spec, runs) in corpus {
        out.push_str(&format!("spec {} {}\n", spec.name(), spec.fingerprint()));
        for run in runs {
            out.push_str(&format!(
                "run {} {:016x}\n",
                arena_fingerprint(run.tree()),
                leaf_digest(run)
            ));
        }
    }
    out
}

#[test]
fn rebuilt_runs_keep_their_recorded_arena_identity() {
    let corpus = corpus();
    assert_eq!(corpus.iter().map(|(_, runs)| runs.len()).sum::<usize>(), 5 * RUNS_PER_SPEC + 3);
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/arena_identity.txt");
    let recorded = std::fs::read_to_string(path).unwrap();
    let now = record(&corpus);
    let (mut spec, mut run) = (String::new(), 0usize);
    for (line, (now, then)) in now.lines().zip(recorded.lines()).enumerate() {
        if let Some(rest) = then.strip_prefix("spec ") {
            (spec, run) = (rest.to_string(), 0);
        } else {
            run += 1;
        }
        assert_eq!(now, then, "fixture line {}: spec {spec}, run {run}", line + 1);
    }
    assert_eq!(now.lines().count(), recorded.lines().count(), "fixture length");
}
