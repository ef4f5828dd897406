//! Theorem 1 — the paper's headline result: any O-LOCAL problem is solved
//! deterministically with awake complexity `O(√log n · log* n)`.
//!
//! Composition of [Theorem 13](crate::theorem13) (compute a colored
//! BFS-clustering with `2^{O(√log n)}` colors) and
//! [Theorem 9](crate::theorem9) (solve the problem on top of it with
//! awake complexity logarithmic in the color count).

use crate::clustering::Clustering;
use crate::compose::Composition;
use crate::params::Params;
use crate::resilient::StageSpec;
use crate::theorem13::{self, IterationStats};
use crate::theorem9;
use awake_graphs::Graph;
use awake_olocal::OLocalProblem;
use awake_sleeping::{Codec, SimError};

/// Options for [`solve_spec`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Options {
    /// Override the derived parameters (`None`: derive from the graph).
    pub params: Option<Params>,
}

/// Result of an end-to-end run.
#[derive(Debug)]
pub struct Theorem1Result<O> {
    /// Per-node outputs.
    pub outputs: Vec<O>,
    /// Stage-by-stage accounting across both theorems (Lemma 8 totals).
    pub composition: Composition,
    /// The intermediate colored BFS-clustering.
    pub clustering: Clustering,
    /// Theorem 13's per-iteration statistics.
    pub iteration_stats: Vec<IterationStats>,
    /// The parameters used.
    pub params: Params,
}

/// Solve `problem` on `g` end to end, fault-free on the serial engine,
/// using the problem's trivial inputs.
///
/// # Errors
/// Propagates simulator errors.
pub fn solve<P>(
    g: &Graph,
    problem: &P,
    options: Options,
) -> Result<Theorem1Result<P::Output>, SimError>
where
    P: OLocalProblem + Clone + Send + Sync,
    P::Input: Codec,
    P::Output: Codec,
{
    let inputs = problem.trivial_inputs(g);
    solve_spec(g, problem, &inputs, options, &StageSpec::default())
}

/// Solve `problem` on `g` end to end with explicit per-node inputs,
/// fault-free on the serial engine: [`solve_spec`] with the default spec.
/// Kept with this signature because the `perfbench` benchmark calls it.
/// Errors like [`solve_spec`].
pub fn solve_with_inputs<P>(
    g: &Graph,
    problem: &P,
    inputs: &[P::Input],
    options: Options,
) -> Result<Theorem1Result<P::Output>, SimError>
where
    P: OLocalProblem + Clone + Send + Sync,
    P::Input: Codec,
    P::Output: Codec,
{
    solve_spec(g, problem, inputs, options, &StageSpec::default())
}

/// Solve `problem` on `g` end to end with explicit per-node inputs, on
/// the executor and under the fault plan `spec` names (see
/// [`crate::resilient`]: with an active plan every stage of both theorems
/// runs wrapped in [`Redundant`](awake_sleeping::Redundant) time
/// redundancy). An inactive plan runs exactly like no plan.
///
/// # Errors
/// Propagates simulator errors.
pub fn solve_spec<P>(
    g: &Graph,
    problem: &P,
    inputs: &[P::Input],
    options: Options,
    spec: &StageSpec,
) -> Result<Theorem1Result<P::Output>, SimError>
where
    P: OLocalProblem + Clone + Send + Sync,
    P::Input: Codec,
    P::Output: Codec,
{
    let params = options.params.unwrap_or_else(|| Params::for_graph(g));
    let t13 = theorem13::compute_spec(g, &params, spec)?;
    let t9 = theorem9::solve_spec(
        g,
        problem,
        inputs,
        &t13.clustering,
        params.color_bound(),
        spec,
    )?;
    let mut composition = Composition::new();
    composition.extend_prefixed("theorem1", t13.composition);
    composition.extend_prefixed("theorem1", t9.composition);
    Ok(Theorem1Result {
        outputs: t9.outputs,
        composition,
        clustering: t13.clustering,
        iteration_stats: t13.iteration_stats,
        params,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds;
    use awake_graphs::generators;
    use awake_olocal::problems::{DeltaPlusOneColoring, MaximalIndependentSet};

    #[test]
    fn end_to_end_coloring_and_mis() {
        for g in [
            generators::gnp(40, 0.15, 1),
            generators::cycle(15),
            generators::complete(9),
            // Δ > b: clusters merge and Lemma 14 runs
            generators::random_regular(64, 16, 1),
        ] {
            let table = bounds::theorem1_stages(&Params::for_graph(&g));
            let r = solve(&g, &DeltaPlusOneColoring, Options::default()).unwrap();
            DeltaPlusOneColoring
                .validate(&g, &vec![(); g.n()], &r.outputs)
                .unwrap();
            bounds::audit_stages(&r.composition, &table).unwrap();

            let r = solve(&g, &MaximalIndependentSet, Options::default()).unwrap();
            MaximalIndependentSet
                .validate(&g, &vec![(); g.n()], &r.outputs)
                .unwrap();
            bounds::audit_stages(&r.composition, &table).unwrap();
        }
    }

    /// In the paper's regime (Δ > b) clusters merge and Lemma 14's shared
    /// record sets fill their depth memo from whichever worker gets there
    /// first; the run must still equal the serial one bit for bit.
    #[test]
    fn pooled_runs_equal_the_serial_run_when_clusters_merge() {
        let g = generators::random_regular(64, 16, 1);
        let inputs = vec![(); g.n()];
        let solve = |spec: &StageSpec| {
            solve_spec(
                &g,
                &MaximalIndependentSet,
                &inputs,
                Options::default(),
                spec,
            )
            .unwrap()
        };
        let serial = solve(&StageSpec::default());
        assert!(
            serial
                .composition
                .stages
                .iter()
                .any(|s| s.name.contains("lemma14")),
            "Lemma 14 runs"
        );
        for workers in [1, 2, 4, 8] {
            let pooled = solve(&StageSpec::on(workers));
            assert_eq!(serial.outputs, pooled.outputs, "{workers} workers: outputs");
            assert_eq!(
                serial.clustering, pooled.clustering,
                "{workers} workers: clustering"
            );
            assert_eq!(
                serial.composition, pooled.composition,
                "{workers} workers: stages"
            );
        }
    }
}
