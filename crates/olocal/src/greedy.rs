//! The sequential greedy reference executor — the class-defining algorithm.

use crate::problem::{GreedyView, OLocalProblem};
use awake_graphs::{AcyclicOrientation, Graph};
use std::collections::BTreeMap;

/// Solve `problem` on `graph` by the sequential greedy process along
/// orientation `mu`, processing nodes in a topological order (descendants
/// first). This is the definitional algorithm of the O-LOCAL class and the
/// ground truth the distributed solvers are validated against.
///
/// # Panics
/// Panics if `inputs.len() != graph.n()`.
pub fn solve_sequentially<P: OLocalProblem>(
    problem: &P,
    graph: &Graph,
    mu: &AcyclicOrientation,
    inputs: &[P::Input],
) -> Vec<P::Output> {
    assert_eq!(inputs.len(), graph.n(), "inputs length mismatch");
    let order = mu.topological_order(graph);
    let mut outputs: Vec<Option<P::Output>> = vec![None; graph.n()];
    let mut closure_cache: BTreeMap<u64, P::Output> = BTreeMap::new();
    for v in order {
        let out_neighbors: Vec<(u64, P::Output)> = mu
            .out_neighbors(graph, v)
            .into_iter()
            .map(|u| {
                (
                    graph.ident(u),
                    outputs[u.index()]
                        .clone()
                        .expect("topological order: descendants decided first"),
                )
            })
            .collect();
        // For full-closure problems, expose the closure's outputs.
        let closure: BTreeMap<u64, P::Output> = if problem.needs_full_closure() {
            mu.descendants(graph, v)
                .into_iter()
                .map(|u| {
                    (
                        graph.ident(u),
                        outputs[u.index()].clone().expect("descendants decided"),
                    )
                })
                .collect()
        } else {
            out_neighbors.iter().cloned().collect()
        };
        closure_cache.clear();
        closure_cache.extend(closure);
        let view = GreedyView {
            ident: graph.ident(v),
            degree: graph.degree(v),
            input: &inputs[v.index()],
            out_neighbors: &out_neighbors,
            closure_outputs: &closure_cache,
        };
        outputs[v.index()] = Some(problem.decide(&view));
    }
    outputs
        .into_iter()
        .map(|o| o.expect("all nodes decided"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems::MaximalIndependentSet;
    use awake_graphs::generators;

    #[test]
    fn sequential_matches_validate_for_every_orientation_seed() {
        let g = generators::gnp(25, 0.25, 1);
        let p = MaximalIndependentSet;
        for seed in 0..10 {
            let mu = AcyclicOrientation::random(&g, seed);
            let out = solve_sequentially(&p, &g, &mu, &p.trivial_inputs(&g));
            p.validate(&g, &p.trivial_inputs(&g), &out).unwrap();
        }
    }
}
