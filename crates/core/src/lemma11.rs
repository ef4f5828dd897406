//! Lemma 11 (Barenboim–Maimon): solving any O-LOCAL problem on a graph
//! with a given proper `k`-coloring, with awake complexity `O(log k)` and
//! round complexity `O(k)`.
//!
//! The orientation `µ` points every edge from the higher color to the
//! lower. A node of color `c` is awake exactly at the rounds of the
//! Lemma 10 wake set `r(c)` (shifted by one so the model's mandatory
//! round 1 stays separate):
//!
//! * at rounds `x ∈ r(c)` with `x < φ(c)` it **stores** the states sent by
//!   lower-colored neighbors that are awake at `x`;
//! * at `x = φ(c)` it **decides** its output — Lemma 10's property 3
//!   guarantees every out-neighbor's state has arrived by then;
//! * at rounds `x > φ(c)` it **sends** its state.
//!
//! Awake complexity: exactly `2 + log₂ q` where `q` is the covering power
//! of two of `k` (one mandatory initial round + the `1 + log₂ q` rounds of
//! `r(c)`) — asserted by the tests, on cycles and on cliques with `k`
//! distinct colors.

use crate::lemma10::PaletteTree;
use awake_olocal::{GreedyView, OLocalProblem};
use awake_sleeping::{codec, persist, Action, Codec, Envelope, Outbox, Program, Round, View};
use std::collections::BTreeMap;

/// The Lemma 11 schedule of color `color ∈ 1..=k`, one round past the
/// mandatory round 1: the wake rounds `1 + r(color)`, ascending, and the
/// decision round `1 + φ(color)`.
///
/// # Panics
/// Panics if `color` is out of range.
pub(crate) fn color_schedule(color: u64, k: u64) -> (Vec<Round>, Round) {
    assert!((1..=k).contains(&color), "color {color} out of 1..={k}");
    let tree = PaletteTree::covering(k);
    let wakes = tree.r(color).into_iter().map(|x| 1 + x).collect();
    (wakes, 1 + tree.phi(color))
}

/// The step of a program awake exactly at the rounds of a fixed ascending
/// list: advance `cursor` past the wakes at or before `now`, then sleep
/// until the next one, or halt once the list is spent.
pub(crate) fn next_wake(wakes: &[Round], cursor: &mut usize, now: Round) -> Action {
    while wakes.get(*cursor).is_some_and(|&r| r <= now) {
        *cursor += 1;
    }
    wakes
        .get(*cursor)
        .map_or(Action::Halt, |&r| Action::SleepUntil(r))
}

/// The state a node shares once decided.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeState<O> {
    /// The sender's identifier.
    pub ident: u64,
    /// The sender's color (receivers sanity-check `color < theirs`).
    pub color: u64,
    /// The decided output.
    pub output: O,
    /// Accumulated descendant closure, for problems that need it.
    pub closure: BTreeMap<u64, O>,
}

/// The Lemma 11 program for one node.
pub struct ColorScheduled<P: OLocalProblem> {
    problem: P,
    input: P::Input,
    color: u64,
    /// Wake rounds (real rounds: `1 + r(c)` elements), ascending.
    wakes: Vec<Round>,
    /// Index of the next wake.
    cursor: usize,
    /// The decision round `1 + φ(c)`.
    phi_round: Round,
    /// Collected out-neighbor states.
    collected: Vec<NodeState<P::Output>>,
    /// Our decided output.
    decided: Option<P::Output>,
    /// Our accumulated closure (only populated when the problem needs it).
    closure: BTreeMap<u64, P::Output>,
}

impl<P: OLocalProblem> ColorScheduled<P> {
    /// Program for a node with proper color `color ∈ 1..=k`.
    ///
    /// # Panics
    /// Panics if `color` is out of range.
    pub fn new(problem: P, input: P::Input, color: u64, k: u64) -> Self {
        let (wakes, phi_round) = color_schedule(color, k);
        ColorScheduled {
            problem,
            input,
            color,
            wakes,
            cursor: 0,
            phi_round,
            collected: Vec::new(),
            decided: None,
            closure: BTreeMap::new(),
        }
    }

    /// Exact awake complexity of this node: `1 + |r(c)|`.
    pub fn awake_budget(&self) -> u64 {
        1 + self.wakes.len() as u64
    }

    fn decide(&mut self, view: &View<'_>) {
        let out_neighbors: Vec<(u64, P::Output)> = self
            .collected
            .iter()
            .map(|s| (s.ident, s.output.clone()))
            .collect();
        if self.problem.needs_full_closure() {
            for s in &self.collected {
                self.closure.insert(s.ident, s.output.clone());
                for (k, v) in &s.closure {
                    self.closure.insert(*k, v.clone());
                }
            }
        } else {
            self.closure = out_neighbors.iter().cloned().collect();
        }
        let gv = GreedyView {
            ident: view.ident,
            degree: view.degree(),
            input: &self.input,
            out_neighbors: &out_neighbors,
            closure_outputs: &self.closure,
        };
        let out = self.problem.decide(&gv);
        if self.problem.needs_full_closure() {
            self.closure.insert(view.ident, out.clone());
        }
        self.decided = Some(out);
    }

    fn state(&self, view: &View<'_>) -> NodeState<P::Output> {
        NodeState {
            ident: view.ident,
            color: self.color,
            output: self.decided.clone().expect("decided before sending"),
            closure: if self.problem.needs_full_closure() {
                self.closure.clone()
            } else {
                BTreeMap::new()
            },
        }
    }
}

impl<P: OLocalProblem> Program for ColorScheduled<P> {
    type Msg = NodeState<P::Output>;
    type Output = P::Output;

    fn send(&mut self, view: &View<'_>, out: &mut Outbox<Self::Msg>) {
        // Send rounds: elements of r(c) strictly above φ(c).
        if view.round > 1 && view.round > self.phi_round {
            out.broadcast(self.state(view));
        }
    }

    fn receive(&mut self, view: &View<'_>, inbox: &[Envelope<Self::Msg>]) -> Action {
        if view.round > 1 {
            // Store states from lower-colored neighbors (our out-neighbors).
            for e in inbox {
                if e.msg.color < self.color
                    && !self.collected.iter().any(|s| s.ident == e.msg.ident)
                {
                    self.collected.push(e.msg.clone());
                }
            }
            if view.round == self.phi_round {
                self.decide(view);
            }
        }
        next_wake(&self.wakes, &mut self.cursor, view.round)
    }

    fn output(&self) -> Option<P::Output> {
        self.decided.clone()
    }
}

codec!(struct NodeState<O: Codec> { ident, color, output, closure });

persist! {
    /// Dynamic state: the schedule cursor, the collected out-neighbor states,
    /// the decision, and the closure. The wake schedule and the decision
    /// round are pure functions of `(color, k)` and stay put.
    ColorScheduled<P: OLocalProblem> where P::Output: Codec {
        cursor,
        collected,
        decided,
        closure,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use awake_graphs::{coloring, generators, AcyclicOrientation, Graph, NodeId};
    use awake_olocal::problems::{DeltaPlusOneColoring, MaximalIndependentSet, MinimalVertexCover};
    use awake_sleeping::{Config, Engine};

    fn greedy_coloring(g: &Graph) -> Vec<u64> {
        // any proper coloring, 1-based
        let order: Vec<NodeId> = g.nodes().collect();
        coloring::greedy_in_order(g, &order)
            .into_iter()
            .map(|c| c + 1)
            .collect()
    }

    fn run_lemma11<P: OLocalProblem + Clone>(
        g: &Graph,
        p: P,
        colors: &[u64],
        k: u64,
    ) -> (Vec<P::Output>, awake_sleeping::Metrics) {
        let inputs = p.trivial_inputs(g);
        let programs: Vec<ColorScheduled<P>> = g
            .nodes()
            .map(|v| {
                ColorScheduled::new(p.clone(), inputs[v.index()].clone(), colors[v.index()], k)
            })
            .collect();
        let run = Engine::new(g, Config::default()).run(programs).unwrap();
        (run.outputs, run.metrics)
    }

    #[test]
    fn solves_coloring_mis_vc_on_families() {
        for g in [
            generators::gnp(60, 0.1, 2),
            generators::cycle(17),
            generators::complete(8),
            generators::grid(6, 7),
            generators::random_tree(40, 5),
        ] {
            let colors = greedy_coloring(&g);
            let k = *colors.iter().max().unwrap();

            let (out, m) = run_lemma11(&g, DeltaPlusOneColoring, &colors, k);
            DeltaPlusOneColoring
                .validate(&g, &vec![(); g.n()], &out)
                .unwrap();
            let q = PaletteTree::covering(k);
            assert!(
                m.max_awake() <= 2 + q.q().trailing_zeros() as u64,
                "awake {} vs bound {}",
                m.max_awake(),
                2 + q.q().trailing_zeros() as u64
            );
            assert!(m.rounds <= 2 * q.q());

            let (mis, _) = run_lemma11(&g, MaximalIndependentSet, &colors, k);
            MaximalIndependentSet
                .validate(&g, &vec![(); g.n()], &mis)
                .unwrap();

            let (vc, _) = run_lemma11(&g, MinimalVertexCover, &colors, k);
            MinimalVertexCover
                .validate(&g, &vec![(); g.n()], &vc)
                .unwrap();
        }
    }

    #[test]
    fn agrees_with_sequential_greedy_on_color_orientation() {
        // With the same orientation (higher color → lower color, ties by
        // ident — but a proper coloring has no ties), the distributed and
        // sequential algorithms produce the *same* outputs.
        let g = generators::gnp(40, 0.2, 9);
        let colors = greedy_coloring(&g);
        let k = *colors.iter().max().unwrap();
        let (out, _) = run_lemma11(&g, DeltaPlusOneColoring, &colors, k);
        let mu = AcyclicOrientation::by_coloring(&g, &colors);
        let seq = awake_olocal::greedy::solve_sequentially(
            &DeltaPlusOneColoring,
            &g,
            &mu,
            &vec![(); g.n()],
        );
        assert_eq!(out, seq);
    }

    #[test]
    fn awake_is_exactly_one_plus_path_len() {
        // a cycle colored from 1..=3, then cliques K_k with k distinct colors
        let cycle = generators::cycle(24);
        let mut cases = vec![(greedy_coloring(&cycle), cycle, 3)];
        for k in [8u64, 16, 32, 64] {
            cases.push(((1..=k).collect(), generators::complete(k as usize), k));
        }
        for (colors, g, k) in cases {
            let programs: Vec<ColorScheduled<DeltaPlusOneColoring>> = g
                .nodes()
                .map(|v| ColorScheduled::new(DeltaPlusOneColoring, (), colors[v.index()], k))
                .collect();
            let budget = programs[0].awake_budget();
            // 1 + |r(c)| = 2 + log₂ q for the covering power of two q ≥ k
            let q = PaletteTree::covering(k).q();
            assert_eq!(budget, 2 + u64::from(q.trailing_zeros()), "k = {k}");
            let run = Engine::new(&g, Config::default()).run(programs).unwrap();
            coloring::check_proper(&g, &run.outputs).unwrap();
            // every node is awake exactly 1 + |r(c)| rounds
            assert!(run.metrics.awake.iter().all(|&a| a == budget), "k = {k}");
        }
    }

    #[test]
    #[should_panic(expected = "out of 1..=")]
    fn rejects_color_out_of_range() {
        let _ = ColorScheduled::new(DeltaPlusOneColoring, (), 9, 4);
    }
}
