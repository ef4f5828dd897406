//! # awake — sub-logarithmic awake complexity for sequential greedy problems
//!
//! Umbrella crate re-exporting the whole workspace. See the README for a
//! tour and its paper-to-module correspondence table.

#![forbid(unsafe_code)]

pub use awake_core as core;
pub use awake_graphs as graphs;
pub use awake_olocal as olocal;
pub use awake_sleeping as sleeping;
