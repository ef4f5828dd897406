//! End-to-end integration: Theorem 1 across problems × graph families,
//! validated against ground truth and the closed-form awake budgets.

use awake::core::{bm21, bounds, theorem1, trivial};
use awake::graphs::{generators, Graph};
use awake::olocal::problems::{
    DegreePlusOneListColoring, DeltaPlusOneColoring, MaximalIndependentSet, MinimalVertexCover,
};
use awake::olocal::OLocalProblem;
use awake::sleeping::{Config, Engine};

fn families() -> Vec<Graph> {
    vec![
        generators::path(30),
        generators::cycle(24),
        generators::star(25),
        generators::complete(10),
        generators::grid(5, 7),
        generators::hypercube(5),
        generators::random_tree(40, 3),
        generators::gnp(48, 0.12, 9),
        generators::clique_cycle(5, 5),
    ]
}

#[test]
fn theorem1_coloring_everywhere() {
    for g in families() {
        let r = theorem1::solve(&g, &DeltaPlusOneColoring, Default::default()).unwrap();
        DeltaPlusOneColoring
            .validate(&g, &vec![(); g.n()], &r.outputs)
            .unwrap_or_else(|e| panic!("{g:?}: {e}"));
        bounds::audit_stages(&r.composition, &bounds::theorem1_stages(&r.params).unwrap())
            .unwrap_or_else(|e| panic!("{g:?}: {e}"));
        r.clustering.validate_colored(&g).unwrap();
    }
}

#[test]
fn theorem1_mis_everywhere() {
    for g in families() {
        let r = theorem1::solve(&g, &MaximalIndependentSet, Default::default()).unwrap();
        MaximalIndependentSet
            .validate(&g, &vec![(); g.n()], &r.outputs)
            .unwrap_or_else(|e| panic!("{g:?}: {e}"));
    }
}

#[test]
fn theorem1_vertex_cover_and_list_coloring() {
    for g in [generators::gnp(40, 0.15, 2), generators::grid(6, 6)] {
        let r = theorem1::solve(&g, &MinimalVertexCover, Default::default()).unwrap();
        MinimalVertexCover
            .validate(&g, &vec![(); g.n()], &r.outputs)
            .unwrap();

        let p = DegreePlusOneListColoring;
        let inputs = p.trivial_inputs(&g);
        let r = theorem1::solve_with_inputs(&g, &p, &inputs, Default::default()).unwrap();
        p.validate(&g, &inputs, &r.outputs).unwrap();
    }
}

#[test]
fn all_three_generations_solve_the_same_instance() {
    let g = generators::random_with_max_degree(200, 24, 5);
    let p = MaximalIndependentSet;

    let programs: Vec<trivial::TrivialGreedy<MaximalIndependentSet>> = g
        .nodes()
        .map(|_| trivial::TrivialGreedy::new(p, ()))
        .collect();
    let triv = Engine::new(&g, Config::default()).run(programs).unwrap();
    p.validate(&g, &vec![(); g.n()], &triv.outputs).unwrap();

    let b = bm21::solve(&g, &p, &vec![(); g.n()], None).unwrap();
    p.validate(&g, &vec![(); g.n()], &b.outputs).unwrap();

    let t = theorem1::solve(&g, &p, Default::default()).unwrap();
    p.validate(&g, &vec![(); g.n()], &t.outputs).unwrap();

    // Awake bounds: trivial pays Θ(Δ), BM21 pays Θ(log Δ + log* n); the
    // staged solvers stay within every stage's budget.
    assert!(triv.metrics.max_awake() <= bounds::trivial_awake(&g).unwrap());
    let delta = g.max_degree().max(1) as u64;
    bounds::audit_stages(&b.composition, &bounds::bm21_stages(&g, delta).unwrap()).unwrap();
    bounds::audit_stages(&t.composition, &bounds::theorem1_stages(&t.params).unwrap()).unwrap();
    // And the hierarchy on this dense instance: BM21 beats trivial.
    assert!(b.composition.max_awake() < triv.metrics.max_awake());
}

#[test]
fn disconnected_graphs_are_handled() {
    let g =
        awake::graphs::ops::disjoint_union(&generators::cycle(9), &generators::random_tree(12, 1));
    let r = theorem1::solve(&g, &DeltaPlusOneColoring, Default::default()).unwrap();
    DeltaPlusOneColoring
        .validate(&g, &vec![(); g.n()], &r.outputs)
        .unwrap();
}

#[test]
fn single_node_and_tiny_graphs() {
    for n in 1..=4usize {
        let g = generators::path(n);
        let r = theorem1::solve(&g, &MaximalIndependentSet, Default::default()).unwrap();
        MaximalIndependentSet
            .validate(&g, &vec![(); g.n()], &r.outputs)
            .unwrap_or_else(|e| panic!("n={n}: {e}"));
    }
}
