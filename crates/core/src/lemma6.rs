//! Lemma 6 (Barenboim–Maimon): broadcast and convergecast on a labeled
//! spanning tree with **awake complexity exactly 3** and round complexity
//! `O(N)`.
//!
//! Setting: a rooted tree `T` (each non-root node knows the *port* of its
//! parent), a labeling `L : V → {1..N}` with `L(v) > L(parent(v))`, and `N`
//! known to all. Broadcast delivers the root's message to everyone;
//! convergecast accumulates everyone's payload at the root.
//!
//! The schedule (from the paper's proof):
//! * round 1 — every node announces `L(v)`; each node learns its parent's
//!   label (it knows only the parent's *port* beforehand);
//! * broadcast: wake at `2 + L(parent)` to receive, `2 + L(v)` to forward;
//! * convergecast: with flipped labels `L' = N − L`, wake at `2 + L'(v)`
//!   to collect the children's bags, `2 + L'(parent)` to forward — children
//!   have larger `L`, hence smaller `L'`, hence earlier turns.
//!
//! Awake complexity: the root is awake twice, every other node exactly 3
//! times — asserted by the tests, which also hold both protocols to
//! `N + 4` rounds.

use awake_graphs::NodeId;
use awake_sleeping::{Action, Envelope, Outbox, Program, Round, View};

/// Per-node input for the Lemma 6 protocols.
#[derive(Debug, Clone)]
pub struct TreeInput {
    /// Port of the parent (`None` for the root).
    pub parent: Option<NodeId>,
    /// Label with `L(v) > L(parent(v))`, in `1..=label_bound`.
    pub label: u64,
    /// The public label bound `N`.
    pub label_bound: u64,
}

/// Messages of the Lemma 6 protocols.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeMsg<T> {
    /// Round-1 label announcement.
    Label(u64),
    /// Broadcast payload on its way down.
    Down(T),
    /// Convergecast bag on its way up (addressed to the parent).
    Up(Vec<T>),
}

enum Stage {
    AnnounceLabels,
    AwaitParent,
    Deliver,
    Done,
}

/// The broadcast program: the root's `payload` reaches every node.
pub struct Broadcast<T> {
    input: TreeInput,
    payload: Option<T>,
    stage: Stage,
    received: Option<T>,
}

impl<T: Clone + std::fmt::Debug + Send + Sync> Broadcast<T> {
    /// Program for one node; `payload` must be `Some` exactly at the root.
    pub fn new(input: TreeInput, payload: Option<T>) -> Self {
        assert_eq!(
            input.parent.is_none(),
            payload.is_some(),
            "payload at the root, nowhere else"
        );
        assert!(
            (1..=input.label_bound).contains(&input.label),
            "label out of range"
        );
        Broadcast {
            input,
            payload,
            stage: Stage::AnnounceLabels,
            received: None,
        }
    }
}

impl<T: Clone + std::fmt::Debug + Send + Sync> Program for Broadcast<T> {
    type Msg = TreeMsg<T>;
    type Output = T;

    fn send(&mut self, view: &View<'_>, out: &mut Outbox<TreeMsg<T>>) {
        match self.stage {
            Stage::AnnounceLabels => out.broadcast(TreeMsg::Label(self.input.label)),
            // forwarding round: 2 + L(v)
            Stage::Deliver if view.round == 2 + self.input.label => {
                let m = self
                    .payload
                    .clone()
                    .or_else(|| self.received.clone())
                    .expect("payload present when forwarding");
                out.broadcast(TreeMsg::Down(m));
            }
            _ => {}
        }
    }

    fn receive(&mut self, view: &View<'_>, inbox: &[Envelope<TreeMsg<T>>]) -> Action {
        match &mut self.stage {
            Stage::AnnounceLabels => {
                // Root: skip straight to its forwarding round.
                if self.input.parent.is_none() {
                    self.stage = Stage::Deliver;
                    return Action::SleepUntil(2 + self.input.label);
                }
                let parent = self.input.parent.expect("non-root");
                let parent_label = inbox
                    .iter()
                    .find_map(|e| match (e.from == parent, &e.msg) {
                        (true, TreeMsg::Label(l)) => Some(*l),
                        _ => None,
                    })
                    .expect("parent announces its label at round 1");
                self.stage = Stage::AwaitParent;
                Action::SleepUntil(2 + parent_label)
            }
            Stage::AwaitParent => {
                let parent = self.input.parent.expect("non-root in AwaitParent");
                self.received = inbox.iter().find_map(|e| match (e.from == parent, &e.msg) {
                    (true, TreeMsg::Down(m)) => Some(m.clone()),
                    _ => None,
                });
                assert!(
                    self.received.is_some(),
                    "parent must forward at round {}",
                    view.round
                );
                self.stage = Stage::Deliver;
                Action::SleepUntil(2 + self.input.label)
            }
            Stage::Deliver => {
                self.stage = Stage::Done;
                Action::Halt
            }
            Stage::Done => unreachable!("halted"),
        }
    }

    fn output(&self) -> Option<T> {
        self.payload.clone().or_else(|| self.received.clone())
    }

    fn span(&self) -> &'static str {
        "lemma6/broadcast"
    }
}

/// The convergecast program: every node's `payload` reaches the root,
/// which outputs the full bag (non-roots output their forwarded bag).
pub struct Convergecast<T> {
    input: TreeInput,
    bag: Vec<T>,
    stage: CcStage,
}

enum CcStage {
    AnnounceLabels,
    Collect { parent_label: Option<u64> },
    Forward,
    Done,
}

impl<T: Clone + std::fmt::Debug + Send + Sync> Convergecast<T> {
    /// Program for one node with its payload.
    pub fn new(input: TreeInput, payload: T) -> Self {
        assert!(
            (1..=input.label_bound).contains(&input.label),
            "label out of range"
        );
        Convergecast {
            input,
            bag: vec![payload],
            stage: CcStage::AnnounceLabels,
        }
    }

    fn flipped(&self) -> u64 {
        self.input.label_bound - self.input.label
    }

    fn collect_round(&self) -> Round {
        2 + self.flipped()
    }
}

impl<T: Clone + std::fmt::Debug + Send + Sync> Program for Convergecast<T> {
    type Msg = TreeMsg<T>;
    type Output = Vec<T>;

    fn send(&mut self, view: &View<'_>, out: &mut Outbox<TreeMsg<T>>) {
        match self.stage {
            CcStage::AnnounceLabels => {
                out.broadcast(TreeMsg::Label(self.input.label));
            }
            CcStage::Forward => {
                let parent = self.input.parent.expect("only non-roots forward");
                debug_assert!(view.round > self.collect_round());
                out.to(parent, TreeMsg::Up(self.bag.clone()));
            }
            _ => {}
        }
    }

    fn receive(&mut self, _view: &View<'_>, inbox: &[Envelope<TreeMsg<T>>]) -> Action {
        match &self.stage {
            CcStage::AnnounceLabels => {
                let parent_label = self.input.parent.map(|p| {
                    inbox
                        .iter()
                        .find_map(|e| match (e.from == p, &e.msg) {
                            (true, TreeMsg::Label(l)) => Some(*l),
                            _ => None,
                        })
                        .expect("parent announces its label at round 1")
                });
                self.stage = CcStage::Collect { parent_label };
                Action::SleepUntil(self.collect_round())
            }
            CcStage::Collect { parent_label } => {
                // Children (flipped label smaller... larger) send to us now.
                for e in inbox {
                    if let TreeMsg::Up(items) = &e.msg {
                        self.bag.extend(items.iter().cloned());
                    }
                }
                match parent_label {
                    None => {
                        self.stage = CcStage::Done;
                        Action::Halt
                    }
                    Some(pl) => {
                        let fp = self.input.label_bound - pl;
                        self.stage = CcStage::Forward;
                        Action::SleepUntil(2 + fp)
                    }
                }
            }
            CcStage::Forward => {
                self.stage = CcStage::Done;
                Action::Halt
            }
            CcStage::Done => unreachable!("halted"),
        }
    }

    fn output(&self) -> Option<Vec<T>> {
        Some(self.bag.clone())
    }

    fn span(&self) -> &'static str {
        "lemma6/convergecast"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use awake_graphs::{generators, traversal, Graph};
    use awake_sleeping::{Config, Engine};

    /// Build TreeInputs for a BFS spanning tree of `g` rooted at node 0,
    /// labeling each node `1 + its BFS distance`… that would violate
    /// strict monotonicity between siblings' labels? No: only the
    /// parent-child relation matters, and depth+1 > depth. But Lemma 6
    /// allows arbitrary monotone labels; we use ident-based labels to also
    /// exercise non-depth labelings.
    fn bfs_tree_inputs(g: &Graph, by_depth: bool) -> Vec<TreeInput> {
        let dist = traversal::bfs_distances(g, NodeId(0));
        let n = g.n();
        let mut parent: Vec<Option<NodeId>> = vec![None; n];
        for v in g.nodes() {
            if v.0 == 0 {
                continue;
            }
            let dv = dist[v.index()].expect("connected");
            parent[v.index()] = g
                .neighbors(v)
                .iter()
                .copied()
                .find(|u| dist[u.index()] == Some(dv - 1));
        }
        // label: depth-based or a topological ident-ish labeling
        (0..n)
            .map(|v| {
                let label = if by_depth {
                    dist[v].unwrap() as u64 + 1
                } else {
                    // parent's position in BFS order is smaller; use
                    // 1 + BFS-order index.
                    bfs_order_index(g, NodeId(v as u32)) + 1
                };
                TreeInput {
                    parent: parent[v],
                    label,
                    label_bound: n as u64 + 1,
                }
            })
            .collect()
    }

    fn bfs_order_index(g: &Graph, v: NodeId) -> u64 {
        // order nodes by (distance, id): parent precedes child.
        let dist = traversal::bfs_distances(g, NodeId(0));
        let mut order: Vec<(u32, u32)> =
            g.nodes().map(|u| (dist[u.index()].unwrap(), u.0)).collect();
        order.sort_unstable();
        order.iter().position(|&(_, u)| u == v.0).expect("present") as u64
    }

    #[test]
    fn broadcast_reaches_all_awake_exactly_3() {
        for g in [
            generators::path(9),
            generators::balanced_tree(15, 2),
            generators::random_tree(30, 4),
            generators::star(12),
        ] {
            let inputs = bfs_tree_inputs(&g, true);
            let programs: Vec<Broadcast<String>> = inputs
                .iter()
                .map(|inp| {
                    let payload = inp.parent.is_none().then(|| "hello".to_string());
                    Broadcast::new(inp.clone(), payload)
                })
                .collect();
            let run = Engine::new(&g, Config::default()).run(programs).unwrap();
            assert!(run.outputs.iter().all(|m| m == "hello"));
            // every non-root awake exactly 3 rounds; root exactly 2
            for v in g.nodes() {
                let expect = if inputs[v.index()].parent.is_none() {
                    2
                } else {
                    3
                };
                assert_eq!(run.metrics.awake[v.index()], expect, "node {v}");
            }
            // round complexity O(N)
            assert!(run.metrics.rounds <= 2 + g.n() as u64 + 1);
        }
    }

    #[test]
    fn broadcast_with_ident_labels() {
        let g = generators::random_tree(25, 11);
        let inputs = bfs_tree_inputs(&g, false);
        let programs: Vec<Broadcast<u64>> = inputs
            .iter()
            .map(|inp| Broadcast::new(inp.clone(), inp.parent.is_none().then_some(42)))
            .collect();
        let run = Engine::new(&g, Config::default()).run(programs).unwrap();
        assert!(run.outputs.iter().all(|&m| m == 42));
        assert_eq!(run.metrics.max_awake(), 3);
    }

    #[test]
    fn convergecast_collects_everything_at_root() {
        for g in [
            generators::path(8),
            generators::balanced_tree(21, 4),
            generators::random_tree(40, 2),
        ] {
            let inputs = bfs_tree_inputs(&g, true);
            let programs: Vec<Convergecast<u64>> = inputs
                .iter()
                .enumerate()
                .map(|(v, inp)| Convergecast::new(inp.clone(), g.ident(NodeId(v as u32))))
                .collect();
            let run = Engine::new(&g, Config::default()).run(programs).unwrap();
            let mut root_bag = run.outputs[0].clone();
            root_bag.sort_unstable();
            let expected: Vec<u64> = (1..=g.n() as u64).collect();
            assert_eq!(root_bag, expected, "root gathers all payloads");
            for v in g.nodes() {
                let expect = if inputs[v.index()].parent.is_none() {
                    2
                } else {
                    3
                };
                assert_eq!(run.metrics.awake[v.index()], expect, "node {v}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "payload at the root")]
    fn broadcast_rejects_misplaced_payload() {
        let _ = Broadcast::new(
            TreeInput {
                parent: Some(NodeId(0)),
                label: 2,
                label_bound: 5,
            },
            Some(1u64),
        );
    }
}
