//! The paper's algorithms, lemma by lemma and theorem by theorem.
//!
//! This crate implements **"Solving Sequential Greedy Problems Distributedly
//! with Sub-Logarithmic Energy Cost"** (Balliu–Fraigniaud–Olivetti–Rabie,
//! PODC 2025) on top of the Sleeping-model simulator:
//!
//! | module | paper element |
//! |---|---|
//! | [`params`] | §5 parameter choices (`b`, iteration count, `a·b²`, stage budgets) |
//! | [`lemma6`] | broadcast/convergecast with awake complexity exactly 3 |
//! | [`lemma10`] | the binary-tree palette mapping `φ`, `r` (Figure 1) |
//! | [`linial`] | Linial's color-reduction subroutine \[Lin92\] |
//! | [`lemma11`] | solving any O-LOCAL problem from a proper `k`-coloring, awake `O(log k)` |
//! | [`bm21`] | the Barenboim–Maimon baseline: awake `O(log Δ + log* n)` |
//! | [`trivial`] | the folklore by-identifier baseline: awake `O(Δ)` |
//! | [`clustering`] | BFS-clusterings (Definitions 2–5), validators, virtual graphs |
//! | [`gather`] | depth-synchronized intra-cluster convergecast+broadcast |
//! | [`virt`] | Lemma 7: simulating an algorithm on the virtual graph `H` over `G` |
//! | [`linegraph`] | edge problems via line-graph virtualization (Lemma 7 replicas on 2-member edge clusters) |
//! | [`lemma15`] | one decomposition phase (Figure 4) |
//! | [`lemma14`] | flattening a two-level clustering (Figure 2) |
//! | [`theorem13`] | the full colored-BFS-clustering pipeline (Figure 3) |
//! | [`theorem9`] | solving O-LOCAL given a colored BFS-clustering, awake `O(log c)` |
//! | [`theorem1`] | the end-to-end result: awake `O(√log n · log* n)` |
//! | [`bounds`] | closed-form awake/round budgets asserted by tests and benches |
//! | [`compose`] | Lemma 8: sequential composition with additive accounting |
//! | [`resilient`] | the one stage runner (executor, fault plan, checkpoint) and the crash-recovery contract |
//!
//! # Quick start
//!
//! ```
//! use awake_graphs::generators;
//! use awake_olocal::problems::DeltaPlusOneColoring;
//! use awake_core::theorem1;
//!
//! let g = generators::gnp(64, 0.3, 1);
//! let result = theorem1::solve(&g, &DeltaPlusOneColoring, Default::default()).unwrap();
//! awake_graphs::coloring::check_proper(&g, &result.outputs).unwrap();
//! println!("awake complexity: {}", result.composition.max_awake());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bm21;
pub mod bounds;
pub mod clustering;
pub mod compose;
pub mod gather;
pub mod lemma10;
pub mod lemma11;
pub mod lemma14;
pub mod lemma15;
pub mod lemma6;
pub mod linegraph;
pub mod linial;
pub mod params;
pub mod resilient;
pub mod theorem1;
pub mod theorem13;
pub mod theorem9;
pub mod trivial;
pub mod virt;
#[cfg(test)]
mod virt_tests;
