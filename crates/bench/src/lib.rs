//! Micro benchmarks (`benches/micro.rs`) and allocation-regression tests
//! (`tests/alloc_regression.rs`) for the simulator. The library exports
//! nothing; it exists because a Cargo package needs a lib or bin target.
//!
//! The paper's experiments are checked elsewhere: awake cost against `n`
//! and against Δ is the `regime` preset of `awake-lab`
//! (`suite --preset regime --audit`), and the per-lemma claims are unit
//! tests of `awake-core`.
