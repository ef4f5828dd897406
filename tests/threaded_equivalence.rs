//! The serial skip-ahead engine and the persistent worker-pool executor
//! must agree **bit for bit** on deterministic programs: equal outputs and
//! equal [`Metrics`](awake::sleeping::Metrics) — awake vectors, message
//! counters, round counts, and span attribution — and equal traces and
//! snapshots, across worker counts, fault plans, and pause → resume on
//! either executor (the spec table of `common`).

mod common;

use awake::core::linial::ColorReduction;
use awake::core::trivial::TrivialGreedy;
use awake::graphs::{generators, Graph};
use awake::olocal::problems::{DeltaPlusOneColoring, MaximalIndependentSet};
use awake::olocal::OLocalProblem;
use awake::sleeping::{
    Action, Codec, Engine, Envelope, Outbox, Persist, Program, Round, RunSpec, View,
};

fn assert_equivalent<P>(g: &Graph, mk: impl Fn() -> Vec<P>)
where
    P: Program + Persist + Send,
    P::Msg: Codec,
    P::Output: Codec + PartialEq + std::fmt::Debug,
{
    common::assert_spec_table(|cfg, spec| Engine::new(g, cfg).run_spec(mk(), spec));
}

fn linial(g: &Graph) -> impl Fn() -> Vec<ColorReduction> + '_ {
    let delta = g.max_degree() as u64;
    move || {
        g.nodes()
            .map(|v| ColorReduction::from_ident(g.ident(v), g.ident_bound(), delta))
            .collect()
    }
}

fn trivial<P: OLocalProblem<Input = ()> + Copy + 'static>(
    g: &Graph,
    problem: P,
) -> impl Fn() -> Vec<TrivialGreedy<P>> + '_ {
    move || g.nodes().map(|_| TrivialGreedy::new(problem, ())).collect()
}

#[test]
fn linial_agrees_on_erdos_renyi() {
    let g = generators::gnp(120, 0.07, 13);
    assert_equivalent(&g, linial(&g));
}

#[test]
fn linial_agrees_on_random_tree() {
    let g = generators::random_tree(90, 21);
    assert_equivalent(&g, linial(&g));
}

#[test]
fn trivial_greedy_agrees_on_erdos_renyi() {
    // The trivial baseline exercises long sleeps and message loss, so this
    // covers the wheel (not just the stay lane).
    let g = generators::gnp(80, 0.1, 29);
    assert_equivalent(&g, trivial(&g, MaximalIndependentSet));
}

#[test]
fn trivial_greedy_agrees_on_random_tree() {
    let g = generators::random_tree(110, 5);
    assert_equivalent(&g, trivial(&g, MaximalIndependentSet));
}

#[test]
fn trivial_greedy_agrees_on_bounded_degree_graph() {
    let g = generators::random_with_max_degree(150, 12, 3);
    assert_equivalent(&g, trivial(&g, MaximalIndependentSet));
}

/// Wakes at `initial`, broadcasts its ident, stays until `halt_at`.
struct BlockBoundary {
    initial: Round,
    halt_at: Round,
    heard: Vec<(Round, u64)>,
}

impl Program for BlockBoundary {
    type Msg = u64;
    type Output = Vec<(Round, u64)>;
    fn initial_wake(&self) -> Option<Round> {
        Some(self.initial)
    }
    fn send(&mut self, view: &View, out: &mut Outbox<u64>) {
        out.broadcast(view.ident);
    }
    fn receive(&mut self, view: &View, inbox: &[Envelope<u64>]) -> Action {
        for e in inbox {
            self.heard.push((view.round, e.msg));
        }
        if view.round >= self.halt_at {
            Action::Halt
        } else {
            Action::Stay
        }
    }
    fn output(&self) -> Option<Self::Output> {
        Some(self.heard.clone())
    }
}

awake::sleeping::persist!(BlockBoundary { heard });

/// A wheel wake (node 1 at round 66) coinciding with a stay-lane round
/// after the seed events cascade across the first 64-round block boundary.
/// Equivalence alone is blind to scheduler bugs both executors share, so
/// this asserts the *absolute* expected exchange on both of them.
#[test]
fn stay_lane_meets_wheel_wake_across_block_boundary() {
    let g = generators::path(2);
    let mk = || {
        vec![
            BlockBoundary {
                initial: 65,
                halt_at: 70,
                heard: vec![],
            },
            BlockBoundary {
                initial: 66,
                halt_at: 66,
                heard: vec![],
            },
        ]
    };
    assert_equivalent(&g, mk);
    let engine = Engine::new(&g, Default::default());
    for workers in common::EXECUTORS {
        let run = engine
            .run_spec(mk(), &RunSpec::on(workers))
            .unwrap()
            .finished();
        assert_eq!(run.outputs[0], vec![(66, 2)], "node 0 must hear node 1");
        assert_eq!(run.outputs[1], vec![(66, 1)], "node 1 must hear node 0");
        assert_eq!(run.metrics.rounds, 70);
        assert_eq!(run.metrics.awake, vec![6, 1]);
    }
}

#[test]
fn trivial_greedy_agrees_on_hub_heavy_star() {
    // One hub owning half the endpoint degree mass: the degree-weighted
    // splitter isolates it in a chunk of its own, and the owner-sharded
    // delivery must still reassemble every leaf inbox in sender order.
    let g = generators::star(120);
    assert_equivalent(&g, trivial(&g, MaximalIndependentSet));
}

#[test]
fn linial_agrees_on_hub_heavy_caterpillar() {
    // Heavy hubs on a spine: degree mass concentrates in a few nodes while
    // the awake set stays wide — chunk boundaries land mid-leaf-run.
    let g = generators::caterpillar(8, 14);
    assert_equivalent(&g, linial(&g));
}

#[test]
fn coloring_program_agrees_across_executors() {
    let g = generators::cycle(64);
    assert_equivalent(&g, trivial(&g, DeltaPlusOneColoring));
}
