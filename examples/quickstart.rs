//! Quickstart: solve (Δ+1)-coloring with sub-logarithmic awake complexity.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use awake::core::bounds::{self, BoundAlgo, ProblemClass};
use awake::core::theorem1;
use awake::graphs::{coloring, generators};
use awake::olocal::problems::DeltaPlusOneColoring;

fn main() {
    // A 256-node random graph with Δ ≈ √n — the regime where the paper's
    // algorithm asymptotically beats the O(log Δ) baseline.
    let g = generators::random_with_max_degree(256, 16, 42);
    println!("graph: {g:?}");

    let result =
        theorem1::solve(&g, &DeltaPlusOneColoring, Default::default()).expect("simulation runs");

    coloring::check_proper(&g, &result.outputs).expect("output is a proper coloring");
    println!(
        "proper coloring with {} colors (Δ+1 = {})",
        coloring::palette_size(&result.outputs),
        g.max_degree() + 1
    );
    let budget = bounds::budget_for(
        BoundAlgo::Theorem1,
        ProblemClass::Vertex,
        &g,
        &result.params,
    )
    .expect("vertex problems have a Theorem 1 budget");
    println!(
        "awake complexity: {} (closed-form budget {})",
        result.composition.max_awake(),
        budget.awake
    );
    println!(
        "round complexity: {} — the skip-ahead simulator only paid for {} awake node-rounds",
        result.composition.rounds(),
        result.composition.awake_per_node().iter().sum::<u64>()
    );
    println!("\nper-stage accounting:\n{}", result.composition.report());
}
