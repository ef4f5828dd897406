//! An inactive fault plan (every rate zero) means no plan: each solver,
//! and the lab's trivial rows, run exactly as without one — the same
//! outputs and the same `Metrics` for every stage, bit for bit, on the
//! serial engine and on the worker pool.

use awake::core::params::Params;
use awake::core::resilient::StageSpec;
use awake::core::{bm21, linegraph, theorem1, theorem13, theorem9};
use awake::graphs::generators;
use awake::olocal::edge::MaximalMatching;
use awake::olocal::problems::{DeltaPlusOneColoring, MaximalIndependentSet};
use awake::olocal::{EdgeProblem, OLocalProblem};
use awake::sleeping::{Config, FaultPlan};
use awake_lab::runner::run_scenario;
use awake_lab::scenario::{Algo, FaultSpec, GraphFamily, ProblemKind, Scenario};

/// A plan with every rate zero; its other knobs are set, so only the
/// rates decide that it is inactive.
fn inactive() -> FaultPlan {
    let mut plan = FaultPlan::new(99);
    plan.delay_rounds = 3;
    plan.quiet_after = 64;
    assert!(!plan.is_active());
    plan
}

/// The (no plan, inactive plan) spec pairs: one worker, then two.
fn spec_pairs() -> [(StageSpec, StageSpec); 2] {
    [1, 2].map(|w| {
        (
            StageSpec::on(w),
            StageSpec::on(w).with_faults(Some(inactive())),
        )
    })
}

#[test]
fn every_solver_ignores_an_inactive_plan() {
    let g = generators::gnp(48, 0.12, 3);
    let params = Params::for_graph(&g);
    let mis = MaximalIndependentSet.trivial_inputs(&g);
    let coloring = DeltaPlusOneColoring.trivial_inputs(&g);
    let edges = MaximalMatching.trivial_inputs(&g);
    for (none, inactive) in spec_pairs() {
        let bm21 =
            |spec: &StageSpec| bm21::solve_spec(&g, &DeltaPlusOneColoring, &coloring, None, spec);
        let (want, got) = (bm21(&none).unwrap(), bm21(&inactive).unwrap());
        assert_eq!(
            (want.outputs, want.colors),
            (got.outputs, got.colors),
            "bm21"
        );
        assert_eq!(want.composition, got.composition, "bm21 stages");

        let t13 = |spec: &StageSpec| theorem13::compute_spec(&g, &params, spec);
        let (want, got) = (t13(&none).unwrap(), t13(&inactive).unwrap());
        assert_eq!(want.clustering, got.clustering, "theorem 13 clustering");
        assert_eq!(want.composition, got.composition, "theorem 13 stages");

        let (clustering, c_bound) = (&want.clustering, params.color_bound());
        let t9 = |spec: &StageSpec| {
            theorem9::solve_spec(&g, &MaximalIndependentSet, &mis, clustering, c_bound, spec)
        };
        let (want, got) = (t9(&none).unwrap(), t9(&inactive).unwrap());
        assert_eq!(want.outputs, got.outputs, "theorem 9 outputs");
        assert_eq!(want.composition, got.composition, "theorem 9 stages");

        let t1 = |spec: &StageSpec| {
            theorem1::solve_spec(&g, &MaximalIndependentSet, &mis, Default::default(), spec)
        };
        let (want, got) = (t1(&none).unwrap(), t1(&inactive).unwrap());
        assert_eq!(want.outputs, got.outputs, "theorem 1 outputs");
        assert_eq!(want.composition, got.composition, "theorem 1 stages");

        let lg = |spec: &StageSpec| {
            linegraph::solve_edges_spec(&g, &MaximalMatching, &edges, Config::default(), spec)
        };
        let (want, got) = (lg(&none).unwrap(), lg(&inactive).unwrap());
        assert_eq!(want.outputs, got.outputs, "edge outputs");
        assert_eq!(want.metrics, got.metrics, "edge metrics");
    }
}

#[test]
fn lab_trivial_rows_ignore_an_all_zero_fault_spec() {
    let zero = FaultSpec {
        delay_rounds: 3,
        quiet_after: 64,
        ..FaultSpec::default()
    };
    let family = GraphFamily::RandomTree { n: 64 };
    for workers in [1, 2] {
        let sc = Scenario::of(family.clone(), ProblemKind::Mis, Algo::Trivial).on(workers);
        let want = run_scenario(&sc.clone().build(), 7, None).unwrap();
        let got = run_scenario(&sc.with_faults(zero).build(), 7, None).unwrap();
        assert!(
            want.valid && got.valid,
            "{workers} workers: outputs validate"
        );
        assert_eq!(want.metrics, got.metrics, "{workers} workers: metrics");
        assert_eq!(
            (want.awake_bound, want.round_bound),
            (got.awake_bound, got.round_bound),
            "{workers} workers: an inactive plan is audited against the fault-free budget"
        );
    }
}
