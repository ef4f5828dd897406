//! The measured-vs-stated audit, end to end: for every algo × problem
//! pair on seeded Gnp/tree/star/caterpillar families, the measured awake
//! and round complexities must stay within the closed-form budgets of
//! `awake_core::bounds::budget_for` — the assertion `bounds.rs` documents
//! ("the tests and the experiment harness assert `measured ≤ bound`"),
//! exercised here through the same scenario runner the suite binary and
//! CI audit gate use.

use awake_lab::runner::{budget_of, run_scenario};
use awake_lab::scenario::{Algo, GraphFamily, ProblemKind, Scenario};

/// The four families the audit sweeps: two seeded random ones (a fresh
/// graph per suite seed) and two deterministic hub-heavy ones.
fn families() -> Vec<GraphFamily> {
    vec![
        GraphFamily::Gnp { n: 48, p: 0.12 },
        GraphFamily::RandomTree { n: 56 },
        GraphFamily::Star { n: 40 },
        GraphFamily::Caterpillar { spine: 8, legs: 4 },
    ]
}

fn assert_within_budget(sc: &Scenario, suite_seed: u64) {
    let r = run_scenario(sc, suite_seed, None).unwrap();
    assert!(r.valid, "{} (seed {suite_seed}): invalid output", r.name);
    assert!(r.metrics.max_awake > 0, "{}: nothing ran", r.name);
    assert!(
        r.metrics.max_awake <= r.awake_bound,
        "{} (seed {suite_seed}): awake {} > bound {}",
        r.name,
        r.metrics.max_awake,
        r.awake_bound
    );
    assert!(
        r.metrics.rounds <= r.round_bound,
        "{} (seed {suite_seed}): rounds {} > bound {}",
        r.name,
        r.metrics.rounds,
        r.round_bound
    );
    assert!(
        r.bound_ok,
        "{}: bound_ok must mirror the two checks",
        r.name
    );
    // The report's budget columns are exactly the audit entry point's.
    let seed = sc.seed(suite_seed);
    let budget = budget_of(sc, &sc.family.build(seed), seed);
    assert_eq!(
        (r.awake_bound, r.round_bound),
        (budget.awake, budget.rounds)
    );
}

#[test]
fn vertex_problems_stay_within_budget_on_all_families_and_algos() {
    for suite_seed in [1u64, 7, 1234] {
        for family in families() {
            for problem in ProblemKind::ALL {
                let of = |algo| Scenario::of(family.clone(), problem, algo);
                for sc in [
                    of(Algo::Trivial).build(),
                    of(Algo::Trivial).on(3).build(),
                    of(Algo::Bm21).build(),
                    of(Algo::Theorem1).build(),
                ] {
                    assert_within_budget(&sc, suite_seed);
                }
            }
        }
    }
}

#[test]
fn edge_problems_stay_within_budget_on_all_families() {
    for suite_seed in [1u64, 7, 1234] {
        for family in families() {
            for problem in ProblemKind::EDGE {
                for workers in [1, 4] {
                    let sc = Scenario::of(family.clone(), problem, Algo::Trivial)
                        .on(workers)
                        .build();
                    assert_within_budget(&sc, suite_seed);
                }
            }
        }
    }
}

/// The trivial baseline's awake bound is `Δ + 2` — a star whose hub holds
/// the *largest* identifier saturates it exactly (the hub must hear every
/// leaf's decision before its own announce round), so the budget is tight,
/// not just an over-approximation.
#[test]
fn star_hub_saturates_the_trivial_awake_bound() {
    use awake::core::bounds;
    use awake::core::trivial::TrivialGreedy;
    use awake::graphs::generators;
    use awake::olocal::problems::MaximalIndependentSet;
    use awake::sleeping::{Config, Engine};

    let n = 40u64;
    // hub (node 0) gets ident n, leaves keep 1..n
    let idents: Vec<u64> = std::iter::once(n).chain(1..n).collect();
    let g = generators::star(n as usize).with_idents(idents);
    let programs: Vec<TrivialGreedy<MaximalIndependentSet>> = g
        .nodes()
        .map(|_| TrivialGreedy::new(MaximalIndependentSet, ()))
        .collect();
    let run = Engine::new(&g, Config::default()).run(programs).unwrap();
    assert_eq!(
        run.metrics.max_awake(),
        bounds::trivial_awake(&g),
        "Δ + 2 is tight on S_{} with the hub last",
        n - 1
    );
    assert!(run.metrics.rounds <= bounds::trivial_rounds(&g));
}
