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
//!
//! In the model every member of a cluster runs that greedy. The simulator
//! runs it once per cluster: the first replica to reach `φ` stores the
//! decision on the cluster root's shared member record, together with the
//! allocations it read (every member record and every received state),
//! and a replica holding exactly those allocations shares the stored
//! decision instead of recomputing it. A replica restored from a snapshot
//! holds decoded copies, so it computes its own. Either way the decision
//! is the one the replica would compute; messages, awake counts and
//! snapshots are the same as if every replica computed it.

use crate::clustering::Clustering;
use crate::compose::Composition;
use crate::gather::{ClusterGather, MemberRec};
use crate::lemma10::PaletteTree;
use crate::resilient::{solver_stage, StageSpec};
use crate::virt::{VEnvelope, VOutgoing, VertexInput, VirtSim};
use awake_graphs::Graph;
use awake_olocal::{GreedyView, OLocalProblem};
use awake_sleeping::{
    codec, Action, CheckpointError, Codec, Config, Persist, Reader, Round, SimError, Writer,
};
use std::collections::BTreeMap;
use std::sync::{Arc, Weak};

/// Per-node payload of the stage-2 gather: `(γ, problem input)`.
type Payload<I> = (u64, I);

/// The state a vertex broadcasts once decided: its members' outputs.
///
/// This is the virtual message of Lemma 11 on `H`, and it is built once
/// per cluster: the replica that decides first builds it, and every
/// replica that decides from the same inputs shares it (see the module
/// docs), as does every send, port, inbox and receiver's `states` entry.
/// Nobody mutates it, so a clone costs two reference-count increments.
/// It encodes exactly like the plain maps.
#[derive(Debug, Clone, PartialEq)]
pub struct VertexState<O> {
    /// The sending vertex's color.
    pub color: u64,
    /// Every member's output, keyed by ident.
    pub outputs: Arc<BTreeMap<u64, O>>,
    /// Accumulated closure for problems that need it (empty otherwise).
    pub closure: Arc<BTreeMap<u64, O>>,
}

/// A received outputs or closure map, by allocation.
type MapPtr<O> = Weak<BTreeMap<u64, O>>;

/// A cluster's decision as stored on its root's record, with the
/// allocations it was computed from. The pointers are `Weak`: they keep
/// the addresses from being reused while the decision lives, without
/// keeping the records or maps themselves alive. The problem is not part
/// of the key: a root's record comes from one stage's setup gather, and a
/// stage solves one problem.
struct Decision<I, O> {
    /// Every member record, ascending by ident.
    members: Vec<Weak<MemberRec<Payload<I>>>>,
    /// Every received state: `(sender label, outputs, closure)`.
    states: Vec<(u64, MapPtr<O>, MapPtr<O>)>,
    state: VertexState<O>,
}

impl<I, O> Decision<I, O> {
    fn new(
        input: &VertexInput<Payload<I>>,
        states: &BTreeMap<u64, VertexState<O>>,
        state: VertexState<O>,
    ) -> Self {
        Decision {
            members: input.members.values().map(Arc::downgrade).collect(),
            states: states
                .iter()
                .map(|(&l, st)| (l, Arc::downgrade(&st.outputs), Arc::downgrade(&st.closure)))
                .collect(),
            state,
        }
    }

    /// Whether this decision was computed from exactly these allocations.
    fn read(
        &self,
        input: &VertexInput<Payload<I>>,
        states: &BTreeMap<u64, VertexState<O>>,
    ) -> bool {
        self.members.len() == input.members.len()
            && self.states.len() == states.len()
            && self
                .members
                .iter()
                .zip(input.members.values())
                .all(|(w, m)| std::ptr::eq(w.as_ptr(), Arc::as_ptr(m)))
            && self
                .states
                .iter()
                .zip(states)
                .all(|((l, o, c), (label, st))| {
                    l == label
                        && std::ptr::eq(o.as_ptr(), Arc::as_ptr(&st.outputs))
                        && std::ptr::eq(c.as_ptr(), Arc::as_ptr(&st.closure))
                })
    }
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
    /// The decision, set at `φ`: the state this vertex sends and whose
    /// outputs map is its output.
    decided: Option<VertexState<P::Output>>,
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
        }
    }

    /// Decide, sharing the decision stored on the root's record when it
    /// was computed from this replica's inputs.
    fn decide(&mut self) {
        let root = self
            .input
            .members
            .values()
            .find(|m| m.depth == 0)
            .expect("BFS cluster has a root");
        let greedy = || greedy(&self.problem, &self.input, self.color, &self.states);
        let shared = root
            .memo
            .get_or_init(|| Decision::new(&self.input, &self.states, greedy()))
            .filter(|d| d.read(&self.input, &self.states))
            .map(|d| d.state.clone());
        let state = shared.unwrap_or_else(greedy);
        self.decided = Some(state);
    }
}

/// Decide every member in `(δ, ident)` order (the paper's `µ_G`).
///
/// One running closure map serves every member: it holds the received
/// closure (when the problem needs it), every out-neighbor output seen so
/// far and every member decided so far. That is a superset of each
/// member's descendant closure, which [`GreedyView`] permits.
fn greedy<P: OLocalProblem>(
    problem: &P,
    input: &VertexInput<Payload<P::Input>>,
    color: u64,
    states: &BTreeMap<u64, VertexState<P::Output>>,
) -> VertexState<P::Output> {
    let mut order: Vec<(u32, u64)> = input.members.values().map(|m| (m.depth, m.ident)).collect();
    order.sort_unstable();
    let full = problem.needs_full_closure();
    let mut closure: BTreeMap<u64, P::Output> = BTreeMap::new();
    if full {
        for st in states.values() {
            for (i, o) in st.outputs.iter().chain(st.closure.iter()) {
                closure.insert(*i, o.clone());
            }
        }
    }
    let mut decided: BTreeMap<u64, P::Output> = BTreeMap::new();
    let mut out_neighbors: Vec<(u64, P::Output)> = Vec::new();
    for (depth, ident) in order {
        let m = &input.members[&ident];
        out_neighbors.clear();
        // Intra-cluster out-neighbors: smaller (δ, ident).
        for &u in &m.intra {
            let mu = &input.members[&u];
            if (mu.depth, mu.ident) < (depth, ident) {
                out_neighbors.push((u, decided[&u].clone()));
            }
        }
        // Border out-neighbors: members of lower-colored clusters.
        for &(nbr_ident, nbr_label, _, ref pl) in &m.border {
            if pl.0 < color {
                let st = states.get(&nbr_label).unwrap_or_else(|| {
                    panic!(
                        "state of adjacent lower-colored cluster {nbr_label} \
                         must have arrived before φ"
                    )
                });
                let out = st
                    .outputs
                    .get(&nbr_ident)
                    .expect("neighbor cluster reports all members")
                    .clone();
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
        let out = problem.decide(&gv);
        closure.insert(ident, out.clone());
        decided.insert(ident, out);
    }
    VertexState {
        color,
        outputs: Arc::new(decided),
        // The received closure plus every member's output.
        closure: Arc::new(if full { closure } else { BTreeMap::new() }),
    }
}

impl<P: OLocalProblem> crate::virt::VirtualProgram for Lemma11Vertex<P> {
    type Msg = VertexState<P::Output>;
    type Output = Arc<BTreeMap<u64, P::Output>>;
    type Payload = Payload<P::Input>;

    fn send(&mut self, vround: Round, out: &mut Vec<VOutgoing<Self::Msg>>) {
        if vround > self.phi_vround {
            let state = self.decided.as_ref().expect("decided before sending");
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
        self.decided.as_ref().map(|s| Arc::clone(&s.outputs))
    }
}

codec!(struct VertexState<O: Codec> { color, outputs, closure });

/// Dynamic state: the wake cursor, the received neighbor-vertex states,
/// the decision's outputs, and its closure (empty while undecided). The
/// wake schedule and the decision round derive from `(γ, c)` and are
/// rebuilt by the factory, and the decision's color is the vertex's.
impl<P: OLocalProblem> Persist for Lemma11Vertex<P>
where
    P::Output: Codec,
{
    fn save(&self, w: &mut Writer) {
        self.cursor.encode(w);
        self.states.encode(w);
        match &self.decided {
            Some(st) => {
                Some(Arc::clone(&st.outputs)).encode(w);
                st.closure.encode(w);
            }
            None => {
                None::<Arc<BTreeMap<u64, P::Output>>>.encode(w);
                BTreeMap::<u64, P::Output>::new().encode(w);
            }
        }
    }
    fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), CheckpointError> {
        self.cursor = r.get()?;
        self.states = r.get()?;
        let outputs: Option<Arc<BTreeMap<u64, P::Output>>> = r.get()?;
        let closure: Arc<BTreeMap<u64, P::Output>> = r.get()?;
        self.decided = outputs.map(|outputs| VertexState {
            color: self.color,
            outputs,
            closure,
        });
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
    let [overlay_stage, lemma11_stage] = crate::bounds::theorem9_stages(db, c_bound);

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
        overlay_stage.budget.rounds,
        spec,
    )?;
    let root_ident: Vec<u64> = run
        .outputs
        .iter()
        .map(|o| o.as_ref().expect("participants finish").root_ident())
        .collect();
    composition.push(overlay_stage.name, run.metrics);

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
        lemma11_stage.budget.rounds,
        spec,
    )?;
    composition.push(lemma11_stage.name, run.metrics);

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
    use crate::gather::gather_rounds;
    use crate::params::Params;
    use crate::theorem13;
    use awake_graphs::{generators, AcyclicOrientation};
    use awake_olocal::greedy::solve_sequentially;
    use awake_olocal::problems::{
        DegreePlusOneListColoring, DeltaPlusOneColoring, MaximalIndependentSet, MinimalVertexCover,
    };
    use awake_sleeping::{Engine, RunSpec};

    /// The paper's `µ_G`: inter-cluster edges by color, intra-cluster
    /// edges by `(δ, ident)`. Depths are below `n`, so the priority
    /// `γ·n + δ` orders by color first.
    fn mu_g(g: &Graph, cl: &Clustering) -> AcyclicOrientation {
        let n = g.n() as u64;
        let priority = g
            .nodes()
            .map(|v| {
                let a = cl.assign[v.index()].expect("full cover");
                a.label * n + a.depth as u64
            })
            .collect();
        AcyclicOrientation::from_priorities(g, priority)
    }

    /// Theorem 13's clustering of `random_regular(64, 16)`, the paper's
    /// regime, where clusters merge; with its color bound.
    fn dense_case(seed: u64) -> (Graph, Clustering, u64) {
        let g = generators::random_regular(64, 16, seed);
        let params = Params::for_graph(&g);
        let cl = theorem13::compute(&g, &params).unwrap().clustering;
        let largest = cl.members_by_label().values().map(Vec::len).max();
        assert!(largest > Some(1), "seed {seed}: a multi-member cluster");
        (g, cl, params.color_bound())
    }

    #[test]
    fn theorem9_equals_the_sequential_greedy_along_mu_g() {
        let mut cases: Vec<(Graph, Clustering, u64)> = [
            (generators::grid(7, 7), 8),
            (generators::gnp(60, 0.1, 3), 12),
            (generators::random_tree(45, 2), 5),
            (generators::clique_cycle(6, 5), 6),
            (generators::complete(40), 16),
        ]
        .into_iter()
        .map(|(g, k)| {
            let cl = synthesize(&g, k, 11);
            let c = cl.max_label();
            (g, cl, c)
        })
        .collect();
        cases.extend((1..=3).map(dense_case));
        for (g, cl, c) in &cases {
            let mu = mu_g(g, cl);
            let inputs = vec![(); g.n()];
            let r = solve(g, &MaximalIndependentSet, &inputs, cl, *c).unwrap();
            let want = solve_sequentially(&MaximalIndependentSet, g, &mu, &inputs);
            assert_eq!(r.outputs, want, "MIS on {} nodes", g.n());
            let r = solve(g, &DeltaPlusOneColoring, &inputs, cl, *c).unwrap();
            let want = solve_sequentially(&DeltaPlusOneColoring, g, &mu, &inputs);
            assert_eq!(r.outputs, want, "(Δ+1)-coloring on {} nodes", g.n());
        }
    }

    #[test]
    fn replicas_share_one_decision_and_restored_replicas_recompute_it() {
        for seed in 1..=3 {
            let (g, cl, c) = dense_case(seed);
            let db = g.n() as u32;
            // The Lemma 11 stage exactly as `solve_spec` builds it.
            let gather: Vec<ClusterGather<()>> = g
                .nodes()
                .map(|v| {
                    let a = cl.assign[v.index()].unwrap();
                    ClusterGather::participant(a.label, a.depth, g.ident(v), (), db)
                })
                .collect();
            let views = Engine::new(&g, Config::default()).run(gather).unwrap();
            let factory =
                move |vi: &VertexInput<(u64, ())>| Lemma11Vertex::new(MaximalIndependentSet, vi, c);
            let make = || -> Vec<_> {
                g.nodes()
                    .map(|v| {
                        let a = cl.assign[v.index()].unwrap();
                        let root = views.outputs[v.index()].as_ref().unwrap().root_ident();
                        VirtSim::participant(root, a.depth, g.ident(v), (a.label, ()), db, factory)
                    })
                    .collect()
            };
            let engine = Engine::new(&g, Config::default());
            let full = engine.run(make()).unwrap();
            // Pause after the setup gather, before any vertex decides: the
            // resumed replicas hold decoded copies of their inputs.
            let spec = RunSpec::default().pause_after(gather_rounds(db));
            let snap = engine.run_spec(make(), &spec).unwrap().into_snapshot();
            let resume = RunSpec::default().resume_from(&snap);
            let resumed = engine.run_spec(make(), &resume).unwrap().finished();
            assert_eq!(
                full.outputs, resumed.outputs,
                "seed {seed}: restored outputs"
            );
            assert_eq!(
                full.metrics, resumed.metrics,
                "seed {seed}: restored metrics"
            );

            // Outputs grouped by cluster (colors repeat, root idents do not).
            let by_cluster = |outputs: &[Option<Arc<BTreeMap<u64, bool>>>]| {
                let mut m: BTreeMap<u64, Vec<Arc<BTreeMap<u64, bool>>>> = BTreeMap::new();
                for v in g.nodes() {
                    let out = outputs[v.index()].clone().unwrap();
                    assert!(
                        out.contains_key(&g.ident(v)),
                        "a replica reports its member"
                    );
                    let root = views.outputs[v.index()].as_ref().unwrap().root_ident();
                    m.entry(root).or_default().push(out);
                }
                m
            };
            let mut merged = 0;
            for (fresh, restored) in by_cluster(&full.outputs)
                .values()
                .zip(by_cluster(&resumed.outputs).values())
            {
                assert!(
                    fresh.iter().all(|o| Arc::ptr_eq(o, &fresh[0])),
                    "seed {seed}: replicas of one cluster share one output"
                );
                if restored.len() > 1 {
                    merged += 1;
                    assert!(
                        !Arc::ptr_eq(&restored[0], &restored[1]),
                        "seed {seed}: restored replicas recompute their decision"
                    );
                }
            }
            assert!(merged > 0, "seed {seed}: a multi-member cluster");
        }
    }

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

            let table = bounds::theorem9_stages(g.n() as u32, c);
            let r = solve(&g, &DeltaPlusOneColoring, &vec![(); g.n()], &cl, c).unwrap();
            DeltaPlusOneColoring
                .validate(&g, &vec![(); g.n()], &r.outputs)
                .unwrap();
            bounds::audit_stages(&r.composition, &table).unwrap();

            let r = solve(&g, &MaximalIndependentSet, &vec![(); g.n()], &cl, c).unwrap();
            MaximalIndependentSet
                .validate(&g, &vec![(); g.n()], &r.outputs)
                .unwrap();
            bounds::audit_stages(&r.composition, &table).unwrap();

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
