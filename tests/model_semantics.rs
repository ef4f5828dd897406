//! Model-semantics checks across crates: exact awake counts for Lemma 6,
//! message loss to sleeping nodes, and Lemma 8 composition accounting.

use awake::core::lemma6::{Broadcast, Convergecast, TreeInput};
use awake::graphs::{generators, traversal, Graph, NodeId};
use awake::sleeping::{Action, Config, Engine, Envelope, Outbox, Program, View};

fn bfs_tree_inputs(g: &Graph) -> Vec<TreeInput> {
    let dist = traversal::bfs_distances(g, NodeId(0));
    (0..g.n())
        .map(|v| TreeInput {
            parent: if v == 0 {
                None
            } else {
                let dv = dist[v].unwrap();
                g.neighbors(NodeId(v as u32))
                    .iter()
                    .copied()
                    .find(|u| dist[u.index()] == Some(dv - 1))
            },
            label: dist[v].unwrap() as u64 + 1,
            label_bound: g.n() as u64 + 1,
        })
        .collect()
}

#[test]
fn lemma6_awake_is_exactly_three_on_many_trees() {
    let trees = (0..10).map(|seed| generators::random_tree(37, seed));
    for g in trees.chain([generators::random_tree(4096, 9)]) {
        let inputs = bfs_tree_inputs(&g);
        // round complexity O(N): within N + 4 for the label bound N
        let round_bound = inputs[0].label_bound + 4;
        let programs: Vec<Broadcast<u64>> = inputs
            .iter()
            .map(|i| Broadcast::new(i.clone(), i.parent.is_none().then_some(99)))
            .collect();
        let run = Engine::new(&g, Config::default()).run(programs).unwrap();
        assert!(run.outputs.iter().all(|&m| m == 99));
        assert!(run.metrics.rounds <= round_bound, "{}", run.metrics.rounds);
        for v in g.nodes() {
            let expect = if inputs[v.index()].parent.is_none() {
                2
            } else {
                3
            };
            assert_eq!(run.metrics.awake[v.index()], expect);
        }

        let programs: Vec<Convergecast<u64>> = inputs
            .iter()
            .enumerate()
            .map(|(v, i)| Convergecast::new(i.clone(), v as u64))
            .collect();
        let run = Engine::new(&g, Config::default()).run(programs).unwrap();
        assert_eq!(run.outputs[0].len(), g.n(), "root gathers everything");
        assert_eq!(run.metrics.max_awake(), 3);
        assert!(run.metrics.rounds <= round_bound, "{}", run.metrics.rounds);
    }
}

/// A probe program: node 0 broadcasts at every round 1..=5 then halts;
/// node 1 sleeps through rounds 2..=4.
struct Probe {
    is_sender: bool,
    heard: Vec<u64>,
}

impl Program for Probe {
    type Msg = u64;
    type Output = Vec<u64>;
    fn send(&mut self, view: &View, out: &mut Outbox<u64>) {
        if self.is_sender {
            out.broadcast(view.round);
        }
    }
    fn receive(&mut self, view: &View, inbox: &[Envelope<u64>]) -> Action {
        self.heard.extend(inbox.iter().map(|e| e.msg));
        if self.is_sender {
            if view.round < 5 {
                Action::Stay
            } else {
                Action::Halt
            }
        } else if view.round == 1 {
            Action::SleepUntil(5)
        } else {
            Action::Halt
        }
    }
    fn output(&self) -> Option<Vec<u64>> {
        Some(self.heard.clone())
    }
}

#[test]
fn messages_to_sleeping_nodes_are_lost_and_counted() {
    let g = generators::path(2);
    let run = Engine::new(&g, Config::default())
        .run(vec![
            Probe {
                is_sender: true,
                heard: vec![],
            },
            Probe {
                is_sender: false,
                heard: vec![],
            },
        ])
        .unwrap();
    // receiver hears rounds 1 and 5 only; rounds 2-4 lost.
    assert_eq!(run.outputs[1], vec![1, 5]);
    assert_eq!(run.metrics.messages_lost, 3);
    assert_eq!(run.metrics.messages_delivered, 2);
}

#[test]
fn composition_accounting_is_additive() {
    use awake::core::compose::Composition;
    use awake::sleeping::Metrics;

    let mut m1 = Metrics::new(2);
    m1.note_awake(NodeId(0), "a");
    m1.rounds = 100;
    let mut m2 = Metrics::new(2);
    m2.note_awake(NodeId(0), "b");
    m2.note_awake(NodeId(1), "b");
    m2.rounds = 50;
    let mut c = Composition::new();
    c.push("s1", m1);
    c.push("s2", m2);
    assert_eq!(c.max_awake(), 2);
    assert_eq!(c.rounds(), 150);
    assert_eq!(c.awake_per_node(), vec![2, 1]);
}

#[test]
fn round_budget_protects_against_runaway_schedules() {
    struct Forever;
    impl Program for Forever {
        type Msg = ();
        type Output = ();
        fn send(&mut self, _: &View, _: &mut Outbox<()>) {}
        fn receive(&mut self, view: &View, _: &[Envelope<()>]) -> Action {
            Action::SleepUntil(view.round + 1000)
        }
        fn output(&self) -> Option<()> {
            Some(())
        }
    }
    let g = generators::path(2);
    let err = Engine::new(&g, Config::with_max_rounds(10_000))
        .run(vec![Forever, Forever])
        .unwrap_err();
    assert!(matches!(
        err,
        awake::sleeping::SimError::RoundBudgetExceeded { .. }
    ));
}
