//! Minimum-cost matching substrates for the workflow differencing algorithm.
//!
//! Algorithm 4 of *Differencing Provenance in Scientific Workflows* pairs the
//! children of two homologous `F` nodes by solving a **minimum-cost bipartite
//! matching** (assignment) problem in which every child may alternatively be
//! deleted or inserted; Algorithm 6 pairs the ordered children of two `L`
//! nodes by a **minimum-cost non-crossing matching**.  This crate provides
//! both primitives:
//!
//! * [`hungarian::solve`] — the Hungarian (Kuhn–Munkres) algorithm with
//!   potentials, `O(n³)`,
//! * [`hungarian::assignment_with_unmatched`] — the unbalanced variant used by
//!   the differencing algorithm, where leaving a row/column unmatched has an
//!   explicit cost,
//! * [`noncrossing::solve`] — the `O(n·m)` sequence-alignment DP for ordered
//!   (loop iteration) matching,
//! * [`greedy`] — a deliberately suboptimal greedy matcher used as an
//!   ablation baseline in the benchmark harness.
//!
//! Costs are `f64`; all algorithms require finite costs (the paper's cost
//! model guarantees finite, non-negative values) and report a
//! [`MatchingError`] — rather than panicking — when a cost model misbehaves.
//!
//! # Example
//!
//! ```
//! use wfdiff_matching::hungarian_solve;
//!
//! // Two rows, two columns: the optimum pairs row 0 with column 1 and
//! // row 1 with column 0 at total cost 1.0 + 2.0.
//! let cost = vec![vec![4.0, 1.0], vec![2.0, 6.0]];
//! let assignment = hungarian_solve(&cost).unwrap();
//! assert_eq!(assignment.row_to_col, vec![1, 0]);
//! assert_eq!(assignment.cost, 3.0);
//! ```

#![deny(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(test, allow(clippy::todo, clippy::unreachable, clippy::unimplemented))]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod error;
pub mod greedy;
pub mod hungarian;
pub mod noncrossing;

pub use error::MatchingError;
pub use greedy::greedy_assignment_with_unmatched;
pub use hungarian::{
    assignment_with_unmatched, solve as hungarian_solve, Assignment, UnbalancedAssignment,
};
pub use noncrossing::{solve as noncrossing_solve, NonCrossingMatch, SeqMatching};
