//! Run the same Sleeping-model workload on the serial skip-ahead engine
//! and the persistent worker-pool executor, and verify they agree bit for
//! bit — outputs, metrics, and the resulting suite report alike.
//!
//! A thin front-end over the `awake-lab` scenario harness: the `executors`
//! preset runs every problem under each solver (trivial, BM21, Theorem 1)
//! at one worker and on an 8-worker pool, on the same `G(n, p)` instance.
//! The harness rows compare the summary metrics; the direct pass below
//! re-runs the trivial greedy at both worker counts on the same graph and
//! compares the raw per-node outputs and full `Metrics`. The executor is
//! one field of the run's `RunSpec`: `workers = 1` runs every round in
//! place, `workers = w > 1` adds the pool.
//!
//! ```sh
//! cargo run --release --example threaded_sim
//! ```

use awake::core::trivial::TrivialGreedy;
use awake::graphs::Graph;
use awake::olocal::problems::{
    DegreePlusOneListColoring, DeltaPlusOneColoring, MaximalIndependentSet, MinimalVertexCover,
};
use awake::olocal::OLocalProblem;
use awake::sleeping::{Codec, Config, Engine, RunSpec};
use awake_lab::runner::Runner;
use awake_lab::scenario::presets;

const WORKERS: usize = 8;

/// Run `problem` on both executors and assert raw outputs *and* full
/// metrics are identical — stronger than the summary-metric comparison the
/// harness rows allow.
fn assert_outputs_agree<P>(problem: &P, g: &Graph)
where
    P: OLocalProblem + Clone + Send + Sync,
    P::Input: Codec,
    P::Output: Codec,
{
    let inputs = problem.trivial_inputs(g);
    let mk = || -> Vec<TrivialGreedy<P>> {
        g.nodes()
            .map(|v| TrivialGreedy::new(problem.clone(), inputs[v.index()].clone()))
            .collect()
    };
    let engine = Engine::new(g, Config::default());
    let run = |workers| {
        engine
            .run_spec(mk(), &RunSpec::on(workers))
            .unwrap()
            .finished()
    };
    let (serial, par) = (run(1), run(WORKERS));
    assert_eq!(serial.outputs, par.outputs, "per-node outputs diverge");
    assert_eq!(serial.metrics, par.metrics, "metrics diverge");
}

fn main() {
    let scenarios = presets::by_name("executors").expect("executors preset exists");
    let suite_seed = 11;
    let report = Runner::serial()
        .run("executors", &scenarios, suite_seed)
        .expect("suite runs");
    print!("{}", report.text_table());

    // Scenario pairs (serial, threaded) of one problem and solver share a
    // graph family, and hence a graph instance, so their deterministic
    // metrics must be identical.
    for pair in report.scenarios.chunks(2) {
        let [serial, threaded] = pair else {
            unreachable!("executors preset pairs scenarios")
        };
        assert_eq!(serial.problem, threaded.problem);
        assert_eq!(threaded.algo, format!("{}-t{WORKERS}", serial.algo));
        assert_eq!(
            serial.metrics, threaded.metrics,
            "executors disagree on {}",
            threaded.name
        );
        assert!(serial.valid && threaded.valid);
    }

    // Direct pass on the same graph instance the suite used: raw outputs
    // and full metrics, not just the report summary.
    let g = scenarios[0].family.build(scenarios[0].seed(suite_seed));
    assert_outputs_agree(&DeltaPlusOneColoring, &g);
    assert_outputs_agree(&DegreePlusOneListColoring, &g);
    assert_outputs_agree(&MaximalIndependentSet, &g);
    assert_outputs_agree(&MinimalVertexCover, &g);

    println!(
        "\nall {} scenario pairs: serial and {WORKERS}-worker executors agree bit for \
         bit (outputs and metrics) ✓",
        report.scenarios.len() / 2
    );
}
