//! Micro benchmarks (`benches/micro.rs`), allocation-regression tests
//! (`tests/alloc_regression.rs`) and `ab`, the paired A/B runner of the
//! benchmark across commits (`src/bin/ab.rs`). The library exports
//! nothing; it exists because a Cargo package needs a lib target.
//!
//! The paper's experiments are checked elsewhere: awake cost against `n`
//! and against Δ is the `regime` preset of `awake-lab`
//! (`suite --preset regime --audit`), and the per-lemma claims are unit
//! tests of `awake-core`.
