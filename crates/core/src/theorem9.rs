//! Theorem 9: solving any O-LOCAL problem given a colored BFS-clustering,
//! with awake complexity `O(log c)` and round complexity `O(c·n)`.
//!
//! Two stages (exactly the paper's proof):
//!
//! 1. every cluster learns its root's identifier by an intra-cluster
//!    gather (the colored labels suffice: adjacent clusters always have
//!    different colors), turning the colored clustering into a
//!    uniquely-labeled overlay `(ℓ, δ)`;
//! 2. the problem `Π′` — "output the solutions of all my members" — is
//!    solved on the virtual graph `H` by the Lemma 11 wake schedule on the
//!    colors `γ` (a proper coloring of `H`), executed through the Lemma 7
//!    simulator. When a vertex decides (at virtual round `φ(γ)`), it runs
//!    the sequential greedy over its members in `(δ, ident)` order, using
//!    the member outputs already received from lower-colored neighbor
//!    clusters — the orientation `µ_G` of the paper (inter-cluster edges
//!    by color, intra-cluster edges by `(δ, ident)`).

use crate::clustering::Clustering;
use crate::compose::Composition;
use crate::gather::ClusterGather;
use crate::lemma10::PaletteTree;
use crate::resilient::{solver_stage, StageSpec};
use crate::virt::{VEnvelope, VOutgoing, VertexInput, VirtSim};
use awake_graphs::Graph;
use awake_olocal::{GreedyView, OLocalProblem};
use awake_sleeping::{
    codec, Action, CheckpointError, Codec, Config, Persist, Reader, Round, SimError, Writer,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Per-node payload of the stage-2 gather: `(γ, problem input)`.
type Payload<I> = (u64, I);

/// The state a vertex broadcasts once decided: its members' outputs.
///
/// This is the virtual message of Lemma 11 on `H`, so it is cheap to clone
/// (see [`VirtualProgram::Msg`](crate::virt::VirtualProgram::Msg)): both
/// lists sit behind an `Arc`. A vertex builds its state once, when it
/// decides, and every send, port, inbox and receiver's `states` entry
/// shares it; nobody mutates it afterwards. It encodes exactly like the
/// plain lists.
#[derive(Debug, Clone, PartialEq)]
pub struct VertexState<O> {
    /// The sending vertex's color.
    pub color: u64,
    /// `(ident, output)` for every member, ascending by ident.
    pub outputs: Arc<Vec<(u64, O)>>,
    /// Accumulated closure for problems that need it (empty otherwise).
    pub closure: Arc<Vec<(u64, O)>>,
}

/// The Π′ vertex program (Lemma 11 on `H`).
pub struct Lemma11Vertex<P: OLocalProblem> {
    problem: P,
    input: VertexInput<Payload<P::Input>>,
    color: u64,
    /// Wake virtual rounds (`1 + r(γ)`), ascending.
    wakes: Vec<Round>,
    cursor: usize,
    phi_vround: Round,
    /// States received from lower-colored neighbor vertices, keyed by
    /// vertex label.
    states: BTreeMap<u64, VertexState<P::Output>>,
    decided: Option<BTreeMap<u64, P::Output>>,
    closure: BTreeMap<u64, P::Output>,
    /// The state this vertex sends, built once from `decided` and
    /// `closure` at decision time. Never persisted: `restore` rebuilds it.
    state: Option<VertexState<P::Output>>,
}

impl<P: OLocalProblem> Lemma11Vertex<P> {
    /// Build from the gathered vertex input; `c` is the public color bound.
    pub fn new(problem: P, input: &VertexInput<Payload<P::Input>>, c: u64) -> Self {
        let color = input
            .members
            .values()
            .next()
            .map(|m| m.payload.0)
            .expect("non-empty cluster");
        debug_assert!(
            input.members.values().all(|m| m.payload.0 == color),
            "one color per cluster"
        );
        assert!((1..=c).contains(&color), "color {color} out of 1..={c}");
        let tree = PaletteTree::covering(c);
        let wakes: Vec<Round> = tree.r(color).into_iter().map(|x| 1 + x).collect();
        Lemma11Vertex {
            problem,
            input: input.clone(),
            color,
            wakes,
            cursor: 0,
            phi_vround: 1 + tree.phi(color),
            states: BTreeMap::new(),
            decided: None,
            closure: BTreeMap::new(),
            state: None,
        }
    }

    /// Decide every member in `(δ, ident)` order (the paper's `µ_G`).
    ///
    /// One running closure map serves every member: it holds the received
    /// closure (when the problem needs it), every out-neighbor output seen
    /// so far and every member decided so far. That is a superset of each
    /// member's descendant closure, which [`GreedyView`] permits.
    fn decide(&mut self) {
        let mut order: Vec<(u32, u64)> = self
            .input
            .members
            .values()
            .map(|m| (m.depth, m.ident))
            .collect();
        order.sort_unstable();
        let full = self.problem.needs_full_closure();
        let mut closure = std::mem::take(&mut self.closure);
        if full {
            for st in self.states.values() {
                for (i, o) in st.outputs.iter().chain(st.closure.iter()) {
                    closure.insert(*i, o.clone());
                }
            }
        }
        let mut decided: BTreeMap<u64, P::Output> = BTreeMap::new();
        let mut out_neighbors: Vec<(u64, P::Output)> = Vec::new();
        for (depth, ident) in order {
            let m = &self.input.members[&ident];
            out_neighbors.clear();
            // Intra-cluster out-neighbors: smaller (δ, ident).
            for &u in &m.intra {
                let mu = &self.input.members[&u];
                if (mu.depth, mu.ident) < (depth, ident) {
                    out_neighbors.push((u, decided[&u].clone()));
                }
            }
            // Border out-neighbors: members of lower-colored clusters.
            for &(nbr_ident, nbr_label, _, ref pl) in &m.border {
                if pl.0 < self.color {
                    let st = self.states.get(&nbr_label).unwrap_or_else(|| {
                        panic!(
                            "state of adjacent lower-colored cluster {nbr_label} \
                             must have arrived before φ"
                        )
                    });
                    let out = st
                        .outputs
                        .binary_search_by_key(&nbr_ident, |(i, _)| *i)
                        .map(|k| st.outputs[k].1.clone())
                        .expect("neighbor cluster reports all members");
                    closure.insert(nbr_ident, out.clone());
                    out_neighbors.push((nbr_ident, out));
                }
            }
            let gv = GreedyView {
                ident,
                degree: m.intra.len() + m.border.len(),
                input: &m.payload.1,
                out_neighbors: &out_neighbors,
                closure_outputs: &closure,
            };
            let out = self.problem.decide(&gv);
            closure.insert(ident, out.clone());
            decided.insert(ident, out);
        }
        if full {
            // The received closure plus every member's output.
            self.closure = closure;
        }
        self.decided = Some(decided);
        self.state = self.build_state();
    }

    /// The state to send, once decided.
    fn build_state(&self) -> Option<VertexState<P::Output>> {
        let decided = self.decided.as_ref()?;
        let collect = |m: &BTreeMap<u64, P::Output>| {
            Arc::new(m.iter().map(|(i, o)| (*i, o.clone())).collect())
        };
        Some(VertexState {
            color: self.color,
            outputs: collect(decided),
            closure: collect(&self.closure),
        })
    }
}

impl<P: OLocalProblem> crate::virt::VirtualProgram for Lemma11Vertex<P> {
    type Msg = VertexState<P::Output>;
    type Output = BTreeMap<u64, P::Output>;
    type Payload = Payload<P::Input>;

    fn send(&mut self, vround: Round, out: &mut Vec<VOutgoing<Self::Msg>>) {
        if vround > self.phi_vround {
            let state = self.state.as_ref().expect("decided before sending");
            out.push(VOutgoing::Broadcast(state.clone()));
        }
    }

    fn receive(&mut self, vround: Round, inbox: &[VEnvelope<Self::Msg>]) -> Action {
        if vround > 1 {
            for e in inbox {
                if e.msg.color < self.color {
                    self.states.entry(e.from).or_insert_with(|| e.msg.clone());
                }
            }
            if vround == self.phi_vround {
                self.decide();
            }
        }
        while self.cursor < self.wakes.len() && self.wakes[self.cursor] <= vround {
            self.cursor += 1;
        }
        match self.wakes.get(self.cursor) {
            Some(&r) => Action::SleepUntil(r),
            None => Action::Halt,
        }
    }

    fn output(&self) -> Option<Self::Output> {
        self.decided.clone()
    }
}

codec!(struct VertexState<O: Codec> { color, outputs, closure });

/// Dynamic state: the wake cursor, the received neighbor-vertex states,
/// the decision map, and the closure. The wake schedule and the decision
/// round derive from `(γ, c)` and are rebuilt by the factory; the state
/// to send derives from the decision map and the closure and is rebuilt
/// here.
impl<P: OLocalProblem> Persist for Lemma11Vertex<P>
where
    P::Output: Codec,
{
    fn save(&self, w: &mut Writer) {
        self.cursor.encode(w);
        self.states.encode(w);
        self.decided.encode(w);
        self.closure.encode(w);
    }
    fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), CheckpointError> {
        self.cursor = r.get()?;
        self.states = r.get()?;
        self.decided = r.get()?;
        self.closure = r.get()?;
        self.state = self.build_state();
        Ok(())
    }
}

/// Result of a Theorem 9 run.
#[derive(Debug)]
pub struct Theorem9Result<O> {
    /// Per-node outputs.
    pub outputs: Vec<O>,
    /// Stage accounting.
    pub composition: Composition,
}

/// Solve `problem` on `g` given a colored BFS-clustering, fault-free on
/// the serial engine: [`solve_spec`] with the default spec. Kept with this
/// signature because the `perfbench` benchmark calls it. Errors and
/// panics like [`solve_spec`].
pub fn solve<P>(
    g: &Graph,
    problem: &P,
    inputs: &[P::Input],
    clustering: &Clustering,
    c_bound: u64,
) -> Result<Theorem9Result<P::Output>, SimError>
where
    P: OLocalProblem + Clone + Send + Sync,
    P::Input: Codec,
    P::Output: Codec,
{
    solve_spec(
        g,
        problem,
        inputs,
        clustering,
        c_bound,
        &StageSpec::default(),
    )
}

/// Solve `problem` on `g` given a colored BFS-clustering, on the executor
/// and under the fault plan `spec` names (see [`crate::resilient`]: with
/// an active plan the root-overlay gather and the Lemma 11 simulation on
/// `H` run wrapped in [`Redundant`](awake_sleeping::Redundant) time
/// redundancy). An inactive plan runs exactly like no plan.
///
/// `c_bound` is the public bound on colors (`max γ ≤ c_bound`) that every
/// node's schedule is derived from — `Params::color_bound()` when the
/// clustering comes from Theorem 13.
///
/// # Errors
/// Propagates simulator errors.
///
/// # Panics
/// Panics if the clustering does not cover every node, or a color exceeds
/// `c_bound`.
pub fn solve_spec<P>(
    g: &Graph,
    problem: &P,
    inputs: &[P::Input],
    clustering: &Clustering,
    c_bound: u64,
    spec: &StageSpec,
) -> Result<Theorem9Result<P::Output>, SimError>
where
    P: OLocalProblem + Clone + Send + Sync,
    P::Input: Codec,
    P::Output: Codec,
{
    assert_eq!(inputs.len(), g.n(), "inputs length mismatch");
    assert_eq!(clustering.assigned(), g.n(), "Theorem 9 needs a full cover");
    assert!(
        clustering.max_label() <= c_bound,
        "colors exceed the public bound"
    );
    let mut composition = Composition::new();
    let db = g.n() as u32;
    let stage_budgets = crate::bounds::theorem9_stage_budgets(db, c_bound);

    // ---- Stage 1: learn root identifiers (colored → uniquely labeled) ----
    let programs: Vec<ClusterGather<()>> = g
        .nodes()
        .map(|v| {
            let a = clustering.assign[v.index()].expect("full cover");
            ClusterGather::participant(a.label, a.depth, g.ident(v), (), db)
        })
        .collect();
    let run = solver_stage(
        g,
        programs,
        Config::default(),
        stage_budgets[0].rounds,
        spec,
    )?;
    let root_ident: Vec<u64> = run
        .outputs
        .iter()
        .map(|o| o.as_ref().expect("participants finish").root_ident())
        .collect();
    composition.push("theorem9/root-overlay", run.metrics);

    // ---- Stage 2: Lemma 11 on H via Lemma 7 ----
    let programs: Vec<VirtSim<Lemma11Vertex<P>, _>> = g
        .nodes()
        .map(|v| {
            let a = clustering.assign[v.index()].expect("full cover");
            let payload: Payload<P::Input> = (a.label, inputs[v.index()].clone());
            let problem = problem.clone();
            VirtSim::participant(
                root_ident[v.index()],
                a.depth,
                g.ident(v),
                payload,
                db,
                move |vi| Lemma11Vertex::new(problem.clone(), vi, c_bound),
            )
        })
        .collect();
    let run = solver_stage(
        g,
        programs,
        Config::default(),
        stage_budgets[1].rounds,
        spec,
    )?;
    composition.push("theorem9/lemma11-on-H", run.metrics);

    let outputs: Vec<P::Output> = g
        .nodes()
        .map(|v| {
            run.outputs[v.index()]
                .as_ref()
                .expect("participants finish")[&g.ident(v)]
                .clone()
        })
        .collect();
    Ok(Theorem9Result {
        outputs,
        composition,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds;
    use crate::clustering::synthesize;
    use awake_graphs::generators;
    use awake_olocal::problems::{
        DegreePlusOneListColoring, DeltaPlusOneColoring, MaximalIndependentSet, MinimalVertexCover,
    };

    #[test]
    fn theorem9_on_synthetic_clusterings() {
        for (g, k) in [
            (generators::grid(7, 7), 8),
            (generators::gnp(60, 0.1, 3), 12),
            (generators::random_tree(45, 2), 5),
            (generators::clique_cycle(6, 5), 6),
            // every pair of clusters is adjacent, so c = 16
            (generators::complete(40), 16),
        ] {
            let cl = synthesize(&g, k, 11);
            cl.validate_colored(&g).unwrap();
            let c = cl.max_label();
            if 2 * g.m() == g.n() * (g.n() - 1) {
                assert_eq!(c, k as u64, "one color per cluster");
            }

            let r = solve(&g, &DeltaPlusOneColoring, &vec![(); g.n()], &cl, c).unwrap();
            DeltaPlusOneColoring
                .validate(&g, &vec![(); g.n()], &r.outputs)
                .unwrap();
            assert!(
                r.composition.max_awake() <= bounds::theorem9_awake(c),
                "awake {} > bound {}",
                r.composition.max_awake(),
                bounds::theorem9_awake(c)
            );

            let r = solve(&g, &MaximalIndependentSet, &vec![(); g.n()], &cl, c).unwrap();
            MaximalIndependentSet
                .validate(&g, &vec![(); g.n()], &r.outputs)
                .unwrap();

            let r = solve(&g, &MinimalVertexCover, &vec![(); g.n()], &cl, c).unwrap();
            MinimalVertexCover
                .validate(&g, &vec![(); g.n()], &r.outputs)
                .unwrap();

            let p = DegreePlusOneListColoring;
            let inputs = p.trivial_inputs(&g);
            let r = solve(&g, &p, &inputs, &cl, c).unwrap();
            p.validate(&g, &inputs, &r.outputs).unwrap();
        }
    }

    #[test]
    fn awake_scales_with_log_c_not_c() {
        // Same graph, two clusterings with very different color counts:
        // awake grows at most logarithmically.
        let g = generators::grid(10, 10);
        let few = synthesize(&g, 4, 1);
        let many = synthesize(&g, 60, 1);
        let (c1, c2) = (few.max_label(), many.max_label());
        assert!(c2 > c1);
        let a1 = solve(&g, &MaximalIndependentSet, &vec![(); g.n()], &few, c1)
            .unwrap()
            .composition
            .max_awake();
        let a2 = solve(&g, &MaximalIndependentSet, &vec![(); g.n()], &many, c2)
            .unwrap()
            .composition
            .max_awake();
        // awake difference bounded by 5·log₂(c₂/c₁) + constant
        assert!(
            a2 <= a1 + 5 * ((c2 as f64 / c1 as f64).log2().ceil() as u64 + 2),
            "a1={a1} (c={c1}), a2={a2} (c={c2})"
        );
    }
}
