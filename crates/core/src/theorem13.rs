//! Theorem 13: computing a colored BFS-clustering with `2^{O(√log n)}`
//! colors, awake complexity `O(√log n · log* n)`, and polynomial round
//! complexity (Figure 3 of the paper).
//!
//! The pipeline iterates `k = 2⌈√log₂ n⌉` times. Iteration `i` starts from
//! a uniquely-labeled BFS-clustering `(ℓ_{i−1}, δ_{i−1})` of the surviving
//! subgraph `G_{i−1}` (iteration 1: singletons labeled by identifier) and:
//!
//! 1. runs **Lemma 15** on the virtual graph `H_{i−1}` through the
//!    **Lemma 7** simulator — every vertex gets `(γ', δ', ℓ_aux, in_U)`;
//! 2. **finalizes** the `U` vertices: their member nodes adopt the final
//!    color `(i−1)·a·b² + γ'` with their current depth `δ_{i−1}(v)`, and
//!    leave the computation (they sleep through all later stages);
//! 3. runs **Lemma 14** on the rest to flatten `(ℓ_{i−1}, δ_{i−1})` +
//!    `(γ', δ')` into the next clustering `(ℓ_i, δ_i)` of `G_i`.
//!
//! Since Lemma 15 leaves at most `n_H/b` non-`U` vertices and
//! `b^k ≥ n²`, the graph is exhausted after at most `k` iterations. Colors
//! assigned at different iterations come from disjoint ranges, and two
//! same-colored clusters of one iteration are never adjacent (they were
//! distinct vertices of a properly-colored `H[U]`), so the result is a
//! valid colored BFS-clustering — `validate_colored` checks it in tests.

use crate::bounds;
use crate::clustering::{Assign, Clustering};
use crate::compose::Composition;
use crate::gather::gather_rounds;
use crate::lemma14::{L14Payload, TreeGatherVertex};
use crate::lemma15::{Lemma15Config, Lemma15Out, Lemma15Vertex};
use crate::params::Params;
use crate::resilient::{solver_stage, StageSpec};
use crate::virt::VirtSim;
use awake_graphs::Graph;
use awake_sleeping::{Config, SimError};

/// The pipeline's result.
#[derive(Debug)]
pub struct Theorem13Result {
    /// The colored BFS-clustering `(γ, δ)` covering every node.
    pub clustering: Clustering,
    /// Stage-by-stage accounting.
    pub composition: Composition,
    /// Per-iteration statistics: `(iteration, clusters before, finalized
    /// nodes, surviving clusters)` — the series Lemma 15's shrink factor is
    /// checked on.
    pub iteration_stats: Vec<IterationStats>,
}

/// Statistics of one pipeline iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IterationStats {
    /// Iteration number (1-based).
    pub iteration: u32,
    /// Vertices of `H` entering the iteration.
    pub clusters_before: usize,
    /// Nodes finalized (members of `U` vertices).
    pub finalized_nodes: usize,
    /// Surviving (big) clusters after the iteration — Lemma 15 bounds
    /// this by `clusters_before / b`.
    pub clusters_after: usize,
}

/// Compute a colored BFS-clustering of `g` (Theorem 13), fault-free on
/// the serial engine: [`compute_spec`] with the default spec. Kept with
/// this signature because the `perfbench` benchmark calls it. Errors and
/// panics like [`compute_spec`].
pub fn compute(g: &Graph, params: &Params) -> Result<Theorem13Result, SimError> {
    compute_spec(g, params, &StageSpec::default())
}

/// Compute a colored BFS-clustering of `g` (Theorem 13), on the executor
/// and under the fault plan `spec` names (see [`crate::resilient`]: with
/// an active plan every Lemma 15 / Lemma 14 stage runs wrapped in
/// [`Redundant`](awake_sleeping::Redundant) time redundancy).
///
/// # Errors
/// Propagates simulator errors.
///
/// # Panics
/// Panics if the pipeline fails to exhaust the graph within `k`
/// iterations — that would contradict Lemma 15's shrink guarantee.
pub fn compute_spec(
    g: &Graph,
    params: &Params,
    spec: &StageSpec,
) -> Result<Theorem13Result, SimError> {
    let mut composition = Composition::new();
    let mut iteration_stats = Vec::new();
    let mut final_assign: Vec<Option<Assign>> = vec![None; g.n()];

    // Current uniquely-labeled clustering of the surviving subgraph;
    // None = finalized (out of the game).
    let mut current: Vec<Option<Assign>> = Clustering::singletons(g).assign;
    let db = params.depth_bound;

    for iteration in 1..=params.iterations {
        if current.iter().all(|a| a.is_none()) {
            break;
        }
        let cfg = Lemma15Config::at(params, iteration);
        let [l15, l14] = bounds::theorem13_iteration(params, iteration);
        let clusters_before = Clustering {
            assign: current.clone(),
        }
        .labels()
        .len();

        // ---- Stage 1: Lemma 15 on H via Lemma 7 ----
        // The engine cap: the stage's budget plus a two-round tail.
        let budget = Config::with_max_rounds(l15.budget.rounds + 2);
        let factory = move |vi: &crate::virt::VertexInput<()>| Lemma15Vertex::new(cfg, vi);
        let programs: Vec<VirtSim<Lemma15Vertex, _>> = g
            .nodes()
            .map(|v| match current[v.index()] {
                Some(a) => VirtSim::participant(a.label, a.depth, g.ident(v), (), db, factory),
                None => VirtSim::bystander(factory),
            })
            .collect();
        let run = solver_stage(g, programs, budget, l15.budget.rounds, spec)?;
        composition.push(l15.name, run.metrics);
        let out15: Vec<Option<Lemma15Out>> = run.outputs;

        // ---- Finalize U vertices ----
        let mut finalized_nodes = 0;
        for v in g.nodes() {
            if let (Some(a), Some(o)) = (current[v.index()], &out15[v.index()]) {
                if o.in_u {
                    debug_assert!(o.gamma >= 1 && o.gamma <= params.ab2);
                    final_assign[v.index()] = Some(Assign {
                        label: (iteration as u64 - 1) * params.ab2 + o.gamma,
                        depth: a.depth,
                    });
                    current[v.index()] = None;
                    finalized_nodes += 1;
                }
            }
        }

        // ---- Stage 2: Lemma 14 on the survivors ----
        let survivors = current.iter().flatten().count();
        let mut clusters_after = 0;
        if survivors > 0 {
            // The cap adds the two phases of headroom Lemma 15's budget
            // has built in, then the same two-round tail.
            let budget = Config::with_max_rounds(l14.budget.rounds + 2 * gather_rounds(db) + 2);
            let factory =
                move |vi: &crate::virt::VertexInput<L14Payload>| TreeGatherVertex::new(vi, db);
            let programs: Vec<VirtSim<TreeGatherVertex, _>> = g
                .nodes()
                .map(|v| match (current[v.index()], &out15[v.index()]) {
                    (Some(a), Some(o)) => {
                        let payload: L14Payload = (o.gamma, o.delta);
                        VirtSim::participant(a.label, a.depth, g.ident(v), payload, db, factory)
                    }
                    _ => VirtSim::bystander(factory),
                })
                .collect();
            let run = solver_stage(g, programs, budget, l14.budget.rounds, spec)?;
            composition.push(l14.name, run.metrics);
            for v in g.nodes() {
                if current[v.index()].is_some() {
                    let o = run.outputs[v.index()]
                        .as_ref()
                        .expect("survivors participate in Lemma 14");
                    let depth = o.depths[&g.ident(v)];
                    current[v.index()] = Some(Assign { label: o.l2, depth });
                }
            }
            clusters_after = Clustering {
                assign: current.clone(),
            }
            .labels()
            .len();
        }

        iteration_stats.push(IterationStats {
            iteration,
            clusters_before,
            finalized_nodes,
            clusters_after,
        });
    }

    assert!(
        current.iter().all(|a| a.is_none()),
        "pipeline must exhaust the graph within k iterations"
    );
    Ok(Theorem13Result {
        clustering: Clustering {
            assign: final_assign,
        },
        composition,
        iteration_stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use awake_graphs::generators;

    fn check(g: &Graph) -> Theorem13Result {
        let params = Params::for_graph(g);
        let res = compute(g, &params).expect("pipeline runs");
        // Every node colored, validly, within the color bound.
        assert_eq!(res.clustering.assigned(), g.n());
        res.clustering.validate_colored(g).unwrap();
        assert!(res.clustering.max_label() <= params.color_bound());
        // Every stage within its closed-form budget.
        bounds::audit_stages(&res.composition, &bounds::theorem13_stages(&params)).unwrap();
        res
    }

    #[test]
    fn theorem13_on_small_families() {
        for g in [
            generators::path(10),
            generators::cycle(12),
            generators::complete(8),
            generators::star(9),
            generators::grid(4, 5),
        ] {
            check(&g);
        }
    }

    #[test]
    fn theorem13_on_random_graphs() {
        for seed in 0..3 {
            let g = generators::gnp(48, 0.12, seed);
            check(&g);
        }
    }

    #[test]
    fn lemma15_shrink_factor_holds() {
        // Surviving clusters after one iteration ≤ clusters_before / b.
        let g = generators::gnp(120, 0.08, 7);
        let params = Params::for_graph(&g);
        let res = check(&g);
        for s in &res.iteration_stats {
            assert!(
                (s.clusters_after as u64) * params.b <= s.clusters_before as u64,
                "iteration {}: {} survivors from {} (b = {})",
                s.iteration,
                s.clusters_after,
                s.clusters_before,
                params.b
            );
        }
    }
}
