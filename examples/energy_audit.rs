//! Energy audit: compare the three algorithm generations on one network.
//!
//! A battery-powered sensor mesh needs a maximal independent set (cluster
//! heads). Energy ∝ awake rounds. This example is a thin front-end over
//! the `awake-lab` scenario harness: three scenarios on the *same* graph
//! instance (scenario seeds are derived per graph family, so the rows
//! compare like for like) — the trivial by-identifier greedy (awake
//! `O(Δ)`), Barenboim–Maimon (awake `O(log Δ + log* n)`), and the paper's
//! Theorem 1 (awake `O(√log n · log* n)`).
//!
//! ```sh
//! cargo run --release --example energy_audit
//! ```

use awake_lab::runner::Runner;
use awake_lab::scenario::{Algo, GraphFamily, ProblemKind, Scenario};

fn main() {
    // Dense sensor field: n = 512, Δ ≤ 64.
    let family = GraphFamily::BoundedDegree { n: 512, delta: 64 };
    let scenarios: Vec<Scenario> = [
        (Algo::Trivial, "trivial (awake O(Δ))"),
        (Algo::Bm21, "BM21 (awake O(log Δ + log* n))"),
        (Algo::Theorem1, "Theorem 1 (awake O(√log n · log* n))"),
    ]
    .into_iter()
    .map(|(algo, label)| {
        Scenario::of(family.clone(), ProblemKind::Mis, algo)
            .named(label)
            .build()
    })
    .collect();

    let report = Runner::serial()
        .run("energy-audit", &scenarios, 7)
        .expect("audit runs");
    let row = &report.scenarios[0];
    println!(
        "sensor mesh: n = {}, m = {} (seed {})\n",
        row.n, row.m, row.seed
    );
    print!("{}", report.text_table());

    assert!(
        report.scenarios.iter().all(|s| s.valid),
        "every generation must produce a valid MIS"
    );
    // The budget audit: every generation's measured awake/round complexity
    // must respect its closed-form bound (`awake_core::bounds`) — the same
    // check `suite --audit` gates in CI.
    for s in &report.scenarios {
        assert!(
            s.bound_ok,
            "{}: measured awake {} / bound {}, rounds {} / bound {}",
            s.name, s.metrics.max_awake, s.awake_bound, s.metrics.rounds, s.round_bound
        );
    }
    println!(
        "\nbudget audit: all three generations within their closed-form \
         bounds (max awake ≤ awake_bound, rounds ≤ round_bound)."
    );
    println!(
        "\nNote: Theorem 1's constants dominate at laptop scale — its value \
         is the *shape*: its awake bound does not depend on Δ and grows only \
         as √log n · log* n. The measured cost does depend on Δ: it jumps \
         once Δ passes b = 2^⌈√log₂ n⌉. `suite --preset regime --audit` \
         sweeps n and Δ against the bound."
    );
}
