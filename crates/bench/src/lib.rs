//! Shared helpers for the experiment harness.
//!
//! Each `benches/exp_*.rs` target regenerates one evaluation artifact of
//! the paper (experiments E1–E7; each target's header states the claim it
//! checks) and prints a table.

use awake_core::trivial::TrivialGreedy;
use awake_graphs::Graph;
use awake_olocal::OLocalProblem;
use awake_sleeping::{Config, Engine, Metrics};

/// Run the trivial baseline and return its metrics.
pub fn run_trivial<P: OLocalProblem + Clone>(g: &Graph, p: &P) -> Metrics {
    let inputs = p.trivial_inputs(g);
    let programs: Vec<TrivialGreedy<P>> = g
        .nodes()
        .map(|v| TrivialGreedy::new(p.clone(), inputs[v.index()].clone()))
        .collect();
    Engine::new(g, Config::default())
        .run(programs)
        .expect("trivial baseline runs")
        .metrics
}

/// Print a table header and a separator sized to it.
pub fn header(cols: &str) {
    println!("{cols}");
    println!("{}", "-".repeat(cols.len().min(120)));
}
