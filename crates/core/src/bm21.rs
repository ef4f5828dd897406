//! The Barenboim–Maimon baseline \[BM21\]: any O-LOCAL problem with awake
//! complexity `O(log Δ + log* n)`.
//!
//! Pipeline (composed per Lemma 8): Linial's reduction to an
//! `O(Δ²)`-coloring (`O(log* n)` always-awake rounds), then the Lemma 11
//! wake-schedule solver on that coloring (`O(log Δ)` awake rounds,
//! `O(Δ²)` total rounds).

use crate::bounds;
use crate::compose::Composition;
use crate::lemma11::ColorScheduled;
use crate::linial::{self, ColorReduction};
use crate::resilient::{solver_stage, StageSpec};
use awake_graphs::Graph;
use awake_olocal::OLocalProblem;
use awake_sleeping::{Codec, Config, SimError};

/// Result of a BM21 run.
#[derive(Debug)]
pub struct Bm21Result<O> {
    /// Per-node outputs.
    pub outputs: Vec<O>,
    /// Stage-by-stage accounting (Lemma 8 totals).
    pub composition: Composition,
    /// The intermediate `O(Δ²)` coloring (1-based).
    pub colors: Vec<u64>,
}

/// Solve `problem` on `g` with the BM21 algorithm, fault-free on the
/// serial engine: [`solve_spec`] with the default spec. Kept with this
/// signature because the `perfbench` benchmark calls it. Errors like
/// [`solve_spec`].
pub fn solve<P>(
    g: &Graph,
    problem: &P,
    inputs: &[P::Input],
    delta: Option<usize>,
) -> Result<Bm21Result<P::Output>, SimError>
where
    P: OLocalProblem + Clone + Send + Sync,
    P::Output: Codec,
{
    solve_spec(g, problem, inputs, delta, &StageSpec::default())
}

/// Solve `problem` on `g` with the BM21 algorithm, on the executor and
/// under the fault plan `spec` names (see [`crate::resilient`]: with an
/// active plan both stages run wrapped in
/// [`Redundant`](awake_sleeping::Redundant) time redundancy, and with a
/// quiet period after the last fault the outputs stay valid and the
/// accounting stays within [`bounds::degraded_budget_for`] for
/// [`BoundAlgo::Bm21`](bounds::BoundAlgo::Bm21)). An inactive plan runs
/// exactly like no plan.
///
/// `delta` defaults to the graph's maximum degree (the standard global
/// knowledge assumption of \[BM21\]); pass a larger bound to study
/// sensitivity.
///
/// # Errors
/// Propagates simulator errors (a bug in the schedule, or an exceeded
/// round budget).
pub fn solve_spec<P>(
    g: &Graph,
    problem: &P,
    inputs: &[P::Input],
    delta: Option<usize>,
    spec: &StageSpec,
) -> Result<Bm21Result<P::Output>, SimError>
where
    P: OLocalProblem + Clone + Send + Sync,
    P::Output: Codec,
{
    assert_eq!(inputs.len(), g.n(), "inputs length mismatch");
    let delta = delta.unwrap_or_else(|| g.max_degree()).max(1) as u64;
    let [linial_stage, lemma11_stage] = bounds::bm21_stages(g, delta)?;
    let mut composition = Composition::new();

    // Stage 1: Linial to k = O(Δ²) colors. Hoist the `O(n)` ident-bound
    // scan out of the per-node loop — inline it was `O(n²)`, which
    // dominated the whole sweep past n ≈ 2^14.
    let ident_bound = g.ident_bound();
    let programs: Vec<ColorReduction> = g
        .nodes()
        .map(|v| ColorReduction::from_ident(g.ident(v), ident_bound, delta))
        .collect();
    let run = solver_stage(
        g,
        programs,
        Config::default(),
        linial_stage.budget.rounds,
        spec,
    )?;
    let k = linial::final_palette(delta);
    let colors: Vec<u64> = run.outputs.iter().map(|c| c + 1).collect();
    composition.push(linial_stage.name, run.metrics);

    // Stage 2: Lemma 11 on the computed coloring.
    let programs: Vec<ColorScheduled<P>> = g
        .nodes()
        .map(|v| {
            ColorScheduled::new(
                problem.clone(),
                inputs[v.index()].clone(),
                colors[v.index()],
                k,
            )
        })
        .collect();
    let run = solver_stage(
        g,
        programs,
        Config::default(),
        lemma11_stage.budget.rounds,
        spec,
    )?;
    composition.push(lemma11_stage.name, run.metrics);

    Ok(Bm21Result {
        outputs: run.outputs,
        composition,
        colors,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use awake_graphs::{coloring, generators};
    use awake_olocal::problems::{
        DegreePlusOneListColoring, DeltaPlusOneColoring, MaximalIndependentSet, MinimalVertexCover,
    };

    #[test]
    fn bm21_solves_all_problems() {
        for g in [
            generators::gnp(70, 0.08, 6),
            generators::random_regular(60, 5, 1),
            generators::grid(7, 8),
            generators::complete(9),
        ] {
            let table = bounds::bm21_stages(&g, g.max_degree().max(1) as u64).unwrap();
            let r = solve(&g, &DeltaPlusOneColoring, &vec![(); g.n()], None).unwrap();
            DeltaPlusOneColoring
                .validate(&g, &vec![(); g.n()], &r.outputs)
                .unwrap();
            coloring::check_proper(&g, &r.colors).unwrap();
            bounds::audit_stages(&r.composition, &table).unwrap();

            let r = solve(&g, &MaximalIndependentSet, &vec![(); g.n()], None).unwrap();
            MaximalIndependentSet
                .validate(&g, &vec![(); g.n()], &r.outputs)
                .unwrap();
            bounds::audit_stages(&r.composition, &table).unwrap();

            let r = solve(&g, &MinimalVertexCover, &vec![(); g.n()], None).unwrap();
            MinimalVertexCover
                .validate(&g, &vec![(); g.n()], &r.outputs)
                .unwrap();

            let p = DegreePlusOneListColoring;
            let inputs = p.trivial_inputs(&g);
            let r = solve(&g, &p, &inputs, None).unwrap();
            p.validate(&g, &inputs, &r.outputs).unwrap();
        }
    }

    #[test]
    fn awake_grows_with_log_delta() {
        // On cliques Δ = n−1: awake ≈ 2 log n; on cycles Δ = 2: awake O(1).
        let clique = generators::complete(64);
        let cycle = generators::cycle(64);
        let a_clique = solve(&clique, &MaximalIndependentSet, &[(); 64], None)
            .unwrap()
            .composition
            .max_awake();
        let a_cycle = solve(&cycle, &MaximalIndependentSet, &[(); 64], None)
            .unwrap()
            .composition
            .max_awake();
        assert!(
            a_clique > a_cycle + 4,
            "clique {a_clique} should pay ≈2·log Δ more than cycle {a_cycle}"
        );
    }
}
