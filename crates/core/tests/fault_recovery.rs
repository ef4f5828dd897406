//! The recovery contract, end to end: under a seeded [`FaultPlan`] with a
//! quiet period after the last fault, every resilient solver still
//! produces a **valid** output, its resource usage stays within the
//! closed-form **degraded budget**
//! ([`bounds::degraded_budget_for`]), and the run is **bit-for-bit
//! identical** on the serial engine and the worker-pool executor at 1, 2,
//! 4, and 8 workers — for the trivial baseline, BM21, the Theorem 1
//! staged pipeline (gather + virtual-graph layers included), and the
//! line-graph edge adapter.
//!
//! Fault rolls are pure functions of the plan seed, so each plan below is
//! a *fixed, verified adversary*: the tests are exact and deterministic,
//! not statistical. Drops in particular are covered per seed (every
//! retransmitted copy of a message is rolled independently, so a hostile
//! seed could kill all of them) — which is precisely why the contract is
//! checked against pinned seeds rather than argued by construction.

use awake_core::bounds::{self, BoundAlgo, Budget, ProblemClass};
use awake_core::gather::gather_rounds;
use awake_core::linegraph::{self, greedy_hosts};
use awake_core::params::Params;
use awake_core::resilient::{run_stage, StageSpec};
use awake_core::trivial::TrivialGreedy;
use awake_core::{bm21, theorem1};
use awake_graphs::{generators, Graph};
use awake_olocal::edge::{EdgeIndex, MaximalMatching};
use awake_olocal::problems::{DeltaPlusOneColoring, MaximalIndependentSet};
use awake_olocal::{EdgeProblem, OLocalProblem};
use awake_sleeping::{
    redundancy_for, CheckpointError, Codec, Config, FaultPlan, Paused, Persist, Program,
    ResumeError, RunSpec, MAX_REDUNDANCY,
};

/// The pool specs under `plan` at every worker count.
fn pools(plan: FaultPlan) -> impl Iterator<Item = StageSpec> {
    [1, 2, 4, 8]
        .map(|w| StageSpec::on(w).with_faults(Some(plan)))
        .into_iter()
}

/// A dense crash burst early in each stage, then silence: the adversary
/// of the contract's "targeted crashes" clause.
fn crash_burst(seed: u64) -> FaultPlan {
    FaultPlan {
        crash_ppm: 600_000,
        burst_start: 2,
        burst_len: 6,
        quiet_after: 30,
        ..FaultPlan::new(seed)
    }
}

/// Every fault kind at once at moderate rates, quiet after round 25.
fn messy(seed: u64) -> FaultPlan {
    FaultPlan {
        drop_ppm: 40_000,
        dup_ppm: 30_000,
        delay_ppm: 30_000,
        delay_rounds: 2,
        crash_ppm: 60_000,
        quiet_after: 25,
        ..FaultPlan::new(seed)
    }
}

fn budget(algo: BoundAlgo, class: ProblemClass, g: &Graph, plan: &FaultPlan) -> Budget {
    bounds::degraded_budget_for(algo, class, g, &Params::for_graph(g), plan).unwrap()
}

fn assert_within(awake: u64, rounds: u64, b: Budget, what: &str) {
    assert!(
        awake <= b.awake,
        "{what}: awake {awake} > degraded budget {}",
        b.awake
    );
    assert!(
        rounds <= b.rounds,
        "{what}: rounds {rounds} > degraded budget {}",
        b.rounds
    );
}

// ---- trivial baseline ----

#[test]
fn trivial_recovers_within_the_degraded_budget_at_every_worker_count() {
    for g in [generators::gnp(36, 0.14, 4), generators::cycle(18)] {
        for plan in [crash_burst(0xEE1), messy(0xEE2)] {
            let budget = budget(BoundAlgo::Trivial, ProblemClass::Vertex, &g, &plan);
            let run = |spec: &StageSpec| {
                let programs = g
                    .nodes()
                    .map(|_| TrivialGreedy::new(MaximalIndependentSet, ()))
                    .collect::<Vec<_>>();
                let base = bounds::trivial_rounds(&g);
                run_stage(&g, programs, Config::default(), base, &(*spec).into())
                    .unwrap()
                    .finished()
            };
            let serial = run(&StageSpec::default().with_faults(Some(plan)));
            assert!(
                serial.metrics.faults_crashed > 0,
                "plan {:#x} injected no crashes",
                plan.seed
            );
            MaximalIndependentSet
                .validate(&g, &vec![(); g.n()], &serial.outputs)
                .unwrap();
            let m = &serial.metrics;
            assert_within(m.max_awake(), m.rounds, budget, "trivial");
            for spec in pools(plan) {
                let t = run(&spec);
                assert_eq!(serial.outputs, t.outputs, "{:?}: outputs", spec.workers);
                assert_eq!(serial.metrics, t.metrics, "{:?}: metrics", spec.workers);
            }
        }
    }
}

// ---- BM21 ----

#[test]
fn bm21_recovers_within_the_degraded_budget_at_every_worker_count() {
    for g in [generators::gnp(40, 0.1, 6), generators::grid(5, 6)] {
        let inputs = vec![(); g.n()];
        for plan in [crash_burst(0xB1), messy(0xB2)] {
            let budget = budget(BoundAlgo::Bm21, ProblemClass::Vertex, &g, &plan);
            let solve = |spec: &StageSpec| {
                bm21::solve_spec(&g, &DeltaPlusOneColoring, &inputs, None, spec).unwrap()
            };
            let serial = solve(&StageSpec::default().with_faults(Some(plan)));
            DeltaPlusOneColoring
                .validate(&g, &inputs, &serial.outputs)
                .unwrap();
            awake_graphs::coloring::check_proper(&g, &serial.colors).unwrap();
            let c = &serial.composition;
            assert_within(c.max_awake(), c.rounds(), budget, "bm21");
            for spec in pools(plan) {
                let t = solve(&spec);
                let at = format!("{:?} workers", spec.workers);
                assert_eq!(serial.outputs, t.outputs, "{at}: outputs");
                assert_eq!(serial.colors, t.colors, "{at}: colors");
                assert_eq!(serial.composition, t.composition, "{at}: stages");
            }
        }
    }
}

// ---- Theorem 1 (staged pipeline: gather + virt layers included) ----

/// Theorem 1 MIS on `g` under `plan`: valid, within the degraded budget,
/// and bit-for-bit equal at every worker count. Returns the serial run's
/// stages.
fn check_theorem1_recovery(g: &Graph, plan: FaultPlan) -> awake_core::compose::Composition {
    let budget = budget(BoundAlgo::Theorem1, ProblemClass::Vertex, g, &plan);
    let inputs = vec![(); g.n()];
    let solve = |spec: &StageSpec| {
        theorem1::solve_spec(g, &MaximalIndependentSet, &inputs, Default::default(), spec).unwrap()
    };
    let serial = solve(&StageSpec::default().with_faults(Some(plan)));
    MaximalIndependentSet
        .validate(g, &inputs, &serial.outputs)
        .unwrap();
    serial.clustering.validate_colored(g).unwrap();
    let c = &serial.composition;
    assert_within(c.max_awake(), c.rounds(), budget, "theorem1");
    for spec in pools(plan) {
        let t = solve(&spec);
        let at = format!("{:?} workers", spec.workers);
        assert_eq!(serial.outputs, t.outputs, "{at}: outputs");
        assert_eq!(serial.composition, t.composition, "{at}: stages");
    }
    serial.composition
}

#[test]
fn theorem1_recovers_within_the_degraded_budget_at_every_worker_count() {
    check_theorem1_recovery(&generators::gnp(20, 0.2, 3), crash_burst(0x71));
}

/// A crash burst in the first virtual phase of Theorem 9's Lemma 11 stage
/// on a 64-node graph, whose stretch is `MAX_REDUNDANCY` (checked below).
/// About a third of the nodes crash there, after the setup gather, so
/// they restore decoded copies of their cluster's inputs and decide on
/// their own, next to replicas that share their cluster's decision.
fn crash_burst_after_the_gather(seed: u64) -> FaultPlan {
    let start = gather_rounds(64) * MAX_REDUNDANCY + 2;
    FaultPlan {
        crash_ppm: 100_000,
        burst_start: start,
        burst_len: 4,
        quiet_after: start + 30,
        ..FaultPlan::new(seed)
    }
}

/// The paper's regime (Δ > b): clusters merge, and crashed replicas of a
/// merged cluster restore in the Lemma 11 stage on `H`.
#[test]
fn theorem1_recovers_within_the_degraded_budget_at_every_worker_count_when_clusters_merge() {
    let g = generators::random_regular(64, 16, 1);
    let c = Params::for_graph(&g).color_bound();
    let base = bounds::theorem9_stages(g.n() as u32, c)[1].budget.rounds;
    for plan in [crash_burst(0x73), crash_burst_after_the_gather(0x74)] {
        let stages = check_theorem1_recovery(&g, plan);
        assert!(
            stages.stages.iter().any(|s| s.name.contains("lemma14")),
            "clusters merge"
        );
        let lemma11 = stages
            .stages
            .iter()
            .find(|s| s.name.ends_with("theorem9/lemma11-on-H"))
            .expect("Theorem 9 runs Lemma 11 on H");
        assert!(
            lemma11.metrics.faults_crashed > 0,
            "plan {:#x} crashes nodes in the Lemma 11 stage",
            plan.seed
        );
        assert_eq!(redundancy_for(&plan, g.n(), base), MAX_REDUNDANCY);
    }
}

#[test]
fn theorem1_survives_a_message_fault_mix() {
    let g = generators::cycle(14);
    let plan = messy(0x72);
    let budget = budget(BoundAlgo::Theorem1, ProblemClass::Vertex, &g, &plan);
    let inputs = vec![(); g.n()];
    let spec = StageSpec::default().with_faults(Some(plan));
    let r = theorem1::solve_spec(
        &g,
        &DeltaPlusOneColoring,
        &inputs,
        Default::default(),
        &spec,
    )
    .unwrap();
    DeltaPlusOneColoring
        .validate(&g, &inputs, &r.outputs)
        .unwrap();
    let c = &r.composition;
    assert_within(c.max_awake(), c.rounds(), budget, "theorem1/messy");
}

// ---- the line-graph edge adapter ----

#[test]
fn edge_adapter_recovers_within_the_degraded_budget_at_every_worker_count() {
    let g = generators::gnp(14, 0.25, 2);
    let inputs = MaximalMatching.trivial_inputs(&g);
    for plan in [crash_burst(0xED1), messy(0xED2)] {
        let budget = budget(BoundAlgo::Trivial, ProblemClass::Edge, &g, &plan);
        let solve = |spec: &StageSpec| {
            linegraph::solve_edges_spec(&g, &MaximalMatching, &inputs, Config::default(), spec)
                .unwrap()
        };
        let serial = solve(&StageSpec::default().with_faults(Some(plan)));
        MaximalMatching
            .validate(&g, &inputs, &serial.outputs)
            .unwrap();
        let m = &serial.metrics;
        assert_within(m.max_awake(), m.rounds, budget, "edge adapter");
        for spec in pools(plan) {
            let t = solve(&spec);
            assert_eq!(serial.outputs, t.outputs, "{:?}: outputs", spec.workers);
            assert_eq!(serial.metrics, t.metrics, "{:?}: metrics", spec.workers);
        }
    }
}

// ---- mid-outage snapshots ----

/// Snapshot the stage, run as the resilient paths run it (wrapped by
/// [`run_stage`] under `plan`), at every round of the fault window —
/// which includes rounds where crashed nodes are mid-outage, i.e. still in
/// recovery — and check that restore + run-to-end lands bit-for-bit on the
/// uninterrupted faulty run, serially and on the threaded executor.
fn check_mid_outage_snapshots<P, F>(g: &Graph, make: F, base: u64, plan: FaultPlan, what: &str)
where
    P: Program + Persist + Send,
    P::Msg: Codec,
    P::Output: Codec + PartialEq + std::fmt::Debug,
    F: Fn() -> Vec<P>,
{
    let faulty = RunSpec::default().with_faults(Some(plan));
    let run = |spec: &RunSpec| run_stage(g, make(), Config::default(), base, spec).unwrap();
    let full = run(&faulty).finished();
    assert!(
        full.metrics.faults_crashed > 0,
        "{what}: the plan must actually crash nodes"
    );
    // The window where outages (and their recovery tails) live; +8 covers
    // recovery rounds past the last injection.
    let horizon = plan.quiet_after.saturating_add(8).min(full.metrics.rounds);
    let mut paused = 0;
    for r in 1..=horizon {
        let Paused::Snapshot(snap) = run(&faulty.pause_after(r)) else {
            continue;
        };
        paused += 1;
        for workers in [1, 3] {
            // The resumed stage must be wrapped as the paused one was.
            let resume = RunSpec::on(workers)
                .with_faults(Some(plan))
                .resume_from(&snap);
            let resumed = run(&resume).finished();
            let at = format!("{what}: @ {r} on {workers} workers");
            assert_eq!(full.outputs, resumed.outputs, "{at}: outputs");
            assert_eq!(full.metrics, resumed.metrics, "{at}: metrics");
        }
    }
    assert!(
        paused > 0,
        "{what}: no round paused inside the fault window"
    );
}

#[test]
fn mid_outage_snapshots_are_bit_for_bit_for_every_resilient_program() {
    let plan = FaultPlan {
        crash_ppm: 250_000,
        quiet_after: 16,
        ..FaultPlan::new(0x5A)
    };

    // Trivial baseline.
    let g = generators::gnp(14, 0.22, 9);
    let trivial = || {
        g.nodes()
            .map(|_| TrivialGreedy::new(MaximalIndependentSet, ()))
            .collect()
    };
    check_mid_outage_snapshots(&g, trivial, bounds::trivial_rounds(&g), plan, "trivial");

    // BM21 stage 1 (Linial color reduction).
    let delta = g.max_degree().max(1) as u64;
    let [linial_stage, _] = bounds::bm21_stages(&g, delta);
    let ident_bound = g.ident_bound();
    let linial = || {
        g.nodes()
            .map(|v| awake_core::linial::ColorReduction::from_ident(g.ident(v), ident_bound, delta))
            .collect()
    };
    check_mid_outage_snapshots(&g, linial, linial_stage.budget.rounds, plan, "bm21/linial");

    // BM21 stage 2 (Lemma 11 on a proper coloring — identifiers are one).
    let k = ident_bound;
    let lemma11 = || {
        g.nodes()
            .map(|v| {
                awake_core::lemma11::ColorScheduled::new(
                    DeltaPlusOneColoring,
                    (),
                    g.ident(v) + 1,
                    k + 1,
                )
            })
            .collect()
    };
    check_mid_outage_snapshots(&g, lemma11, bounds::lemma11_rounds(k), plan, "bm21/lemma11");

    // The line-graph adapter's hosts (EdgeGreedy replicas).
    let ge = generators::gnp(10, 0.3, 5);
    let idx = EdgeIndex::new(&ge);
    let inputs = MaximalMatching.trivial_inputs(&ge);
    let hosts = || greedy_hosts(&ge, &idx, &MaximalMatching, &inputs);
    let base = bounds::linegraph_rounds(&ge).max(1);
    check_mid_outage_snapshots(&ge, hosts, base, plan, "linegraph");
}

#[test]
fn resuming_a_stage_under_another_plan_is_a_typed_error() {
    // `run_stage` wraps a resumed stage by the plan the caller names; a
    // plan other than the snapshot's is refused with a checkpoint error,
    // never run with a differently stretched wrapper.
    let plan = FaultPlan {
        crash_ppm: 250_000,
        quiet_after: 16,
        ..FaultPlan::new(0x5A)
    };
    let g = generators::gnp(14, 0.22, 9);
    let base = bounds::trivial_rounds(&g);
    let run = |spec: &RunSpec| {
        let programs = g
            .nodes()
            .map(|_| TrivialGreedy::new(MaximalIndependentSet, ()))
            .collect();
        run_stage(&g, programs, Config::default(), base, spec)
    };
    let faulty = RunSpec::default().with_faults(Some(plan));
    let snap = run(&faulty.pause_after(4)).unwrap().into_snapshot();
    // Same rates, other seed: same stretch, so only the plan check refuses.
    let reseeded = FaultPlan { seed: 0x5B, ..plan };
    let got = run(&faulty.with_faults(Some(reseeded)).resume_from(&snap));
    assert!(matches!(
        got,
        Err(ResumeError::Checkpoint(CheckpointError::FaultPlanMismatch))
    ));
    // No plan: the programs are not wrapped, and the snapshot is refused.
    let got = run(&RunSpec::default().resume_from(&snap));
    assert!(matches!(got, Err(ResumeError::Checkpoint(_))));
    // The snapshot's own plan resumes.
    run(&faulty.resume_from(&snap)).unwrap().finished();
}
