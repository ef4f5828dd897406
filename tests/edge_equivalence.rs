//! Executor equivalence for the **line-graph virtualization adapter**:
//! adapted edge programs must produce bit-for-bit identical outputs *and*
//! [`Metrics`](awake::sleeping::Metrics) at 1, 2, 4 and 8 workers,
//! fault-free and under a seeded plan, paused and resumed at any worker
//! count (the spec table of
//! `common`) — on Erdős–Rényi graphs, random trees, and the hub-heavy
//! families (star, caterpillar, lollipop) whose dominant-degree nodes
//! stress the degree-weighted chunking — and engine errors raised through
//! adapted edge nodes must respect serial error precedence across chunks.

mod common;

use awake::core::bounds;
use awake::core::linegraph::{self, hosts, EdgeGreedy, LineGraphHost};
use awake::core::resilient::{run_stage, StageSpec};
use awake::core::virt::{VEnvelope, VOutgoing, VirtualProgram};
use awake::graphs::{generators, Graph, NodeId};
use awake::olocal::edge::{
    solve_edges_sequentially, EdgeColoring, EdgeIndex, EdgeProblem, MaximalMatching,
};
use awake::sleeping::{
    Action, CheckpointError, Codec, Config, Engine, Persist, Reader, Round, SimError, Writer,
};

/// Run the spec table over the adapter's hosts for `problem` — through
/// the stage runner the solver uses, so faulty rows run wrapped in time
/// redundancy — and check the packaged solver's outputs: valid, and the
/// sequential greedy's.
fn assert_edge_equivalent<P>(g: &Graph, problem: &P)
where
    P: EdgeProblem + Clone + Send + Sync,
    P::Output: Codec,
{
    let idx = EdgeIndex::new(g);
    let inputs = problem.trivial_inputs(g);
    let base_rounds = bounds::linegraph_rounds(g).max(1);
    common::assert_spec_table(|cfg, spec| {
        let hosts = linegraph::greedy_hosts(g, &idx, problem, &inputs);
        run_stage(g, hosts, cfg, base_rounds, spec)
    });
    let serial = linegraph::solve_edges_spec(
        g,
        problem,
        &inputs,
        Config::default(),
        &StageSpec::default(),
    )
    .unwrap();
    problem.validate(g, &inputs, &serial.outputs).unwrap();
    assert_eq!(
        serial.outputs,
        solve_edges_sequentially(problem, g, &idx, &inputs),
        "adapter must realize the by-label sequential greedy"
    );
}

#[test]
fn matching_agrees_on_erdos_renyi() {
    assert_edge_equivalent(&generators::gnp(64, 0.1, 17), &MaximalMatching);
}

#[test]
fn edge_coloring_agrees_on_erdos_renyi() {
    assert_edge_equivalent(&generators::gnp(64, 0.1, 17), &EdgeColoring);
}

#[test]
fn matching_agrees_on_random_tree() {
    assert_edge_equivalent(&generators::random_tree(96, 23), &MaximalMatching);
}

#[test]
fn edge_coloring_agrees_on_random_tree() {
    assert_edge_equivalent(&generators::random_tree(96, 23), &EdgeColoring);
}

#[test]
fn edge_problems_agree_on_hub_heavy_families() {
    // A dominant hub puts nearly every edge replica on one node: the
    // degree-weighted partitioner gives it a chunk of its own, and the
    // line graph of a star is a clique — the densest L(G) there is.
    for g in [
        generators::star(48),
        generators::caterpillar(10, 4),
        generators::lollipop(9, 12),
    ] {
        assert_edge_equivalent(&g, &MaximalMatching);
        assert_edge_equivalent(&g, &EdgeColoring);
    }
}

#[test]
fn edge_problems_agree_with_remapped_idents() {
    // Reversed identifiers flip every edge's owner and the whole label
    // order; equivalence and validity must be preserved.
    let g = generators::gnp(48, 0.12, 31);
    let n = g.n() as u64;
    let g = g.with_idents((1..=n).rev().collect());
    assert_edge_equivalent(&g, &MaximalMatching);
    assert_edge_equivalent(&g, &EdgeColoring);
}

/// An inner edge program that behaves (announce-free single wake) unless
/// marked bad, in which case it requests a non-future wake round at
/// virtual round 1 — which the host forwards to the engine as this node's
/// `InvalidSleep`.
struct MaybeBad {
    bad: bool,
}

impl VirtualProgram for MaybeBad {
    type Msg = ();
    type Output = ();
    type Payload = ();
    fn send(&mut self, _vround: Round, _out: &mut Vec<VOutgoing<()>>) {}
    fn receive(&mut self, vround: Round, _inbox: &[VEnvelope<()>]) -> Action {
        if self.bad {
            Action::SleepUntil(vround) // not strictly in the future
        } else {
            Action::Halt
        }
    }
    fn output(&self) -> Option<()> {
        Some(())
    }
}

impl Persist for MaybeBad {
    fn save(&self, _: &mut Writer) {}
    fn restore(&mut self, _: &mut Reader<'_>) -> Result<(), CheckpointError> {
        Ok(())
    }
}

fn bad_hosts(g: &Graph, idx: &EdgeIndex, bad_labels: &[u64]) -> Vec<LineGraphHost<MaybeBad>> {
    hosts(g, idx, |ctx| MaybeBad {
        bad: bad_labels.contains(&ctx.label),
    })
}

#[test]
fn error_precedence_matches_serial_across_chunks() {
    // Two adapted edge nodes fail in the same round, far apart on a long
    // path — with several workers they land in different chunks, and the
    // merged error must still be the serial one: the lowest NodeId.
    let g = generators::path(160);
    let idx = EdgeIndex::new(&g);
    // default idents are 1..=n, so canonical edge i has its lower
    // endpoint at node i; mark edges near both ends bad
    let bad = [idx.label(3), idx.label(150)];
    let serial_err = Engine::new(&g, Config::default())
        .run(bad_hosts(&g, &idx, &bad))
        .unwrap_err();
    assert_eq!(
        serial_err,
        SimError::InvalidSleep {
            node: NodeId(3),
            round: 1,
            until: 1
        }
    );
    // Every row of the table fails with exactly this error.
    common::assert_spec_table(|cfg, spec| {
        Engine::new(&g, cfg).run_spec(bad_hosts(&g, &idx, &bad), spec)
    });
}

#[test]
fn single_edge_and_disconnected_graphs_agree() {
    // K_2 (one edge, one virtual node) and a forest with isolated
    // bystander nodes.
    assert_edge_equivalent(&generators::path(2), &MaximalMatching);
    let mut b = awake::graphs::GraphBuilder::new(9);
    b.edge(0, 1).edge(1, 2).edge(5, 6).edge(6, 7).edge(7, 8);
    let g = b.build().unwrap();
    assert_edge_equivalent(&g, &MaximalMatching);
    assert_edge_equivalent(&g, &EdgeColoring);
}

#[test]
fn adapter_rides_the_engine_unchanged_for_custom_inner_programs() {
    // The EdgeGreedy inner program is not special-cased anywhere: a
    // hand-rolled host set over EdgeGreedy equals the packaged driver.
    let g = generators::gnp(40, 0.15, 7);
    let idx = EdgeIndex::new(&g);
    let inputs = vec![(); idx.m()];
    let programs: Vec<LineGraphHost<EdgeGreedy<MaximalMatching>>> =
        linegraph::greedy_hosts(&g, &idx, &MaximalMatching, &inputs);
    let raw = Engine::new(&g, Config::default()).run(programs).unwrap();
    let packaged = linegraph::solve_edges_spec(
        &g,
        &MaximalMatching,
        &inputs,
        Config::default(),
        &StageSpec::default(),
    )
    .unwrap();
    assert_eq!(raw.metrics, packaged.metrics);
    let mut from_raw: Vec<Option<bool>> = vec![None; idx.m()];
    for owned in &raw.outputs {
        for (label, out) in owned {
            from_raw[idx.index_of_label(*label)] = Some(*out);
        }
    }
    let from_raw: Vec<bool> = from_raw.into_iter().map(Option::unwrap).collect();
    assert_eq!(from_raw, packaged.outputs);
}
