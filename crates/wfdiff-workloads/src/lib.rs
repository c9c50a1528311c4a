//! Workload generators and reference specifications for the provenance
//! differencing evaluation (Section VIII of Bao et al.).
//!
//! * [`figures`] — the worked examples of the paper: the Figure 2
//!   specification and its three runs, the protein-annotation workflow of
//!   Figure 1, and the Figure 17(b) cost-model specification.
//! * [`real`] — reconstructions of the six "real scientific workflows" of
//!   Table I (PA, EMBOSS, SAXPF, MB, PGAQ, BAIDD) with exactly the node,
//!   edge, fork and loop statistics the paper reports.  The original
//!   myExperiment workflows are not redistributable, so the structures are
//!   synthesised to match the published statistics (see DESIGN.md).
//! * [`generator`] — random SP-specification generation controlled by the
//!   series/parallel ratio `r` and random fork/loop annotation, as used by
//!   the Figure 12–15 experiments.
//! * [`runs`] — random run generation with the paper's parameters
//!   (`probP`, `maxF`, `probF`, `maxL`, `probL`) plus helpers that target a
//!   total run size in edges (Figure 11).
//!
//! # Example
//!
//! ```
//! use rand::SeedableRng;
//! use rand_chacha::ChaCha8Rng;
//! use wfdiff_workloads::figures::{fig2_run1, fig2_specification};
//! use wfdiff_workloads::runs::{generate_run, RunGenConfig};
//!
//! // The paper's Figure 2 worked example ...
//! let spec = fig2_specification();
//! let r1 = fig2_run1(&spec);
//! assert_eq!(r1.spec_name(), "fig2");
//!
//! // ... and a random valid run of the same specification.
//! let mut rng = ChaCha8Rng::seed_from_u64(1);
//! let random = generate_run(&spec, &RunGenConfig::default(), &mut rng);
//! assert_eq!(random.spec_fingerprint(), spec.fingerprint());
//! ```

#![deny(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(test, allow(clippy::todo, clippy::unreachable, clippy::unimplemented))]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod figures;
pub mod generator;
pub mod real;
pub mod runs;

pub use generator::{random_specification, SpecGenConfig};
pub use real::{real_workflows, RealWorkflow};
pub use runs::{generate_run, generate_run_with_target_edges, RunGenConfig};
