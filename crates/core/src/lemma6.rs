//! Lemma 6 (Barenboim–Maimon): broadcast and convergecast on a labeled
//! spanning tree with **awake complexity exactly 3** and round complexity
//! `O(N)`.
//!
//! Setting: a rooted tree `T` (each non-root node knows the *port* of its
//! parent), a labeling `L : V → {1..N}` with `L(v) > L(parent(v))`, and `N`
//! known to all. Broadcast delivers the root's message to everyone;
//! convergecast accumulates everyone's payload at the root.
//!
//! The schedule (from the paper's proof): at round 1 every node announces
//! `L(v)`, so each node learns its parent's label (it knows only the
//! parent's *port* beforehand). From round 2 on, a convergecast collects
//! the children's bags at `N − L(v)` and forwards at `N − L(parent)` —
//! children have larger labels, hence earlier turns — and a broadcast
//! receives at `L(parent)` and forwards at `L(v)`. `Slot` is this
//! arithmetic for one node; every tree cast in the crate reads it: the
//! gather and the Lemma 7 simulator's phases, Lemma 14's merge and
//! Lemma 15's two `F₂` passes.
//!
//! Awake complexity: the root is awake twice, every other node exactly
//! 3 times, within `N + 3` rounds ([`crate::bounds::lemma6_rounds`]) —
//! asserted by the tests.

use awake_graphs::NodeId;
use awake_sleeping::{Action, Envelope, Outbox, Program, Round, View};

/// One node's four turns in a Lemma 6 cast. A child forwards at its
/// parent's collect round and receives at its parent's re-broadcast round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Slot {
    up: Round,
    down: Round,
    bound: u64,
    label: u64,
    parent: Option<u64>,
}

impl Slot {
    /// The slot of a node with label `label ≤ bound` whose parent has label
    /// `parent < label` (`None` at a root), in a cast whose convergecast
    /// window opens at `up` and whose broadcast window opens at `down`.
    pub(crate) fn new(up: Round, down: Round, bound: u64, label: u64, parent: Option<u64>) -> Self {
        Slot {
            up,
            down,
            bound,
            label,
            parent,
        }
    }

    /// The slot of a tree labeled by depth under the depth bound `db`: the
    /// parent of a node of `depth` has label `depth − 1`, and depth 0 is
    /// the root.
    pub(crate) fn by_depth(up: Round, down: Round, db: u32, depth: u32) -> Self {
        let parent = depth.checked_sub(1).map(u64::from);
        Slot::new(up, down, db.into(), depth.into(), parent)
    }

    /// The round the node collects its children's bags: `up + (N − L)`.
    pub(crate) fn collect(self) -> Round {
        self.up + (self.bound - self.label)
    }

    /// The round the node sends its bag to its parent: `up + (N − P)`.
    pub(crate) fn forward(self) -> Option<Round> {
        self.parent.map(|p| self.up + (self.bound - p))
    }

    /// The round the node hears its parent's re-broadcast: `down + P`.
    pub(crate) fn receive(self) -> Option<Round> {
        self.parent.map(|p| self.down + p)
    }

    /// The round the node re-broadcasts to its children: `down + L`.
    pub(crate) fn rebroadcast(self) -> Round {
        self.down + self.label
    }
}

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

impl TreeInput {
    /// The node's slot, with its parent's label read from the round-1
    /// announcements in `inbox`; both windows open at round 2.
    fn slot<T>(&self, inbox: &[Envelope<TreeMsg<T>>]) -> Slot {
        let parent = self.parent.map(|p| {
            inbox
                .iter()
                .find_map(|e| match &e.msg {
                    TreeMsg::Label(l) if e.from == p => Some(*l),
                    _ => None,
                })
                .expect("parent announces its label at round 1")
        });
        Slot::new(2, 2, self.label_bound, self.label, parent)
    }
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
    AwaitParent(Slot),
    Deliver(Slot),
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
            Stage::Deliver(slot) if view.round == slot.rebroadcast() => {
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
        match self.stage {
            Stage::AnnounceLabels => {
                let slot = self.input.slot(inbox);
                // Root: skip straight to its forwarding round.
                let Some(r) = slot.receive() else {
                    self.stage = Stage::Deliver(slot);
                    return Action::SleepUntil(slot.rebroadcast());
                };
                self.stage = Stage::AwaitParent(slot);
                Action::SleepUntil(r)
            }
            Stage::AwaitParent(slot) => {
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
                self.stage = Stage::Deliver(slot);
                Action::SleepUntil(slot.rebroadcast())
            }
            Stage::Deliver(_) => {
                self.stage = Stage::Done;
                Action::Halt
            }
            Stage::Done => unreachable!("halted"),
        }
    }

    fn output(&self) -> Option<T> {
        self.payload.clone().or_else(|| self.received.clone())
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
    Collect(Slot),
    Forward(Slot),
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
}

impl<T: Clone + std::fmt::Debug + Send + Sync> Program for Convergecast<T> {
    type Msg = TreeMsg<T>;
    type Output = Vec<T>;

    fn send(&mut self, view: &View<'_>, out: &mut Outbox<TreeMsg<T>>) {
        match self.stage {
            CcStage::AnnounceLabels => {
                out.broadcast(TreeMsg::Label(self.input.label));
            }
            CcStage::Forward(slot) => {
                let parent = self.input.parent.expect("only non-roots forward");
                debug_assert_eq!(Some(view.round), slot.forward());
                out.to(parent, TreeMsg::Up(self.bag.clone()));
            }
            _ => {}
        }
    }

    fn receive(&mut self, _view: &View<'_>, inbox: &[Envelope<TreeMsg<T>>]) -> Action {
        match self.stage {
            CcStage::AnnounceLabels => {
                let slot = self.input.slot(inbox);
                self.stage = CcStage::Collect(slot);
                Action::SleepUntil(slot.collect())
            }
            CcStage::Collect(slot) => {
                // The children, with larger labels, forward to us now.
                for e in inbox {
                    if let TreeMsg::Up(items) = &e.msg {
                        self.bag.extend(items.iter().cloned());
                    }
                }
                match slot.forward() {
                    None => {
                        self.stage = CcStage::Done;
                        Action::Halt
                    }
                    Some(r) => {
                        self.stage = CcStage::Forward(slot);
                        Action::SleepUntil(r)
                    }
                }
            }
            CcStage::Forward(_) => {
                self.stage = CcStage::Done;
                Action::Halt
            }
            CcStage::Done => unreachable!("halted"),
        }
    }

    fn output(&self) -> Option<Vec<T>> {
        Some(self.bag.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::{lemma6_rounds, LEMMA6_AWAKE};
    use awake_graphs::{generators, traversal, Graph};
    use awake_sleeping::{Config, Engine, Metrics};

    /// Lemma 6's bounds on one run: the root is awake twice and every
    /// other node exactly [`LEMMA6_AWAKE`] times, within
    /// [`lemma6_rounds`]`(N)` rounds.
    fn assert_lemma6_bounds(inputs: &[TreeInput], m: &Metrics) {
        for (v, inp) in inputs.iter().enumerate() {
            let expect = if inp.parent.is_none() {
                2
            } else {
                LEMMA6_AWAKE
            };
            assert_eq!(m.awake[v], expect, "node {v}");
        }
        assert_eq!(m.max_awake(), LEMMA6_AWAKE);
        let bound = lemma6_rounds(inputs[0].label_bound).unwrap();
        assert!(m.rounds <= bound, "{} rounds > {bound}", m.rounds);
    }

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
            assert_lemma6_bounds(&inputs, &run.metrics);
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
        assert_lemma6_bounds(&inputs, &run.metrics);
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
            assert_lemma6_bounds(&inputs, &run.metrics);
        }
    }

    #[test]
    fn slot_turns_are_ordered_for_every_child_parent_label_pair() {
        let near = u64::from(u32::MAX);
        for (n, l, p) in [
            (5, 2, 1),
            (5, 5, 1),
            (5, 5, 4),
            (near, near, 1),
            (near, near, near - 1),
            (near, 2, 1),
        ] {
            for (up, down) in [(2, 2), (4, 4 + n + 2), (1 << 40, 3)] {
                let s = Slot::new(up, down, n, l, Some(p));
                let at = format!("N = {n}, L = {l}, P = {p}, windows at {up}/{down}");
                assert!(s.collect() < s.forward().unwrap(), "{at}");
                assert!(s.receive().unwrap() < s.rebroadcast(), "{at}");
            }
        }
    }

    #[test]
    fn a_root_slot_has_no_forward_or_receive_turn() {
        let root = Slot::new(2, 2, 7, 1, None);
        assert_eq!((root.forward(), root.receive()), (None, None));
        assert_eq!((root.collect(), root.rebroadcast()), (8, 3));
        let root = Slot::by_depth(3, 9, 4, 0);
        assert_eq!((root.forward(), root.receive()), (None, None));
        assert_eq!((root.collect(), root.rebroadcast()), (7, 9));
    }

    #[test]
    fn depth_slots_reproduce_the_gather_and_lemma14_schedules() {
        // The gather's window at `base` under bound D: a node of depth d
        // collects at base + 1 + (D − d) and forwards one round later, and
        // re-broadcasts at base + D + 3 + d, one round after it receives.
        for (base, db, depth) in [
            (1, 4, 0),
            (1, 4, 1),
            (1, 4, 4),
            (37, 9, 3),
            (1 << 33, 64, 63),
        ] {
            let s = crate::gather::cast(base, db, depth);
            let (d, dbr) = (depth as Round, db as Round);
            let (cc_recv, bc_send) = (base + 1 + (dbr - d), base + dbr + 3 + d);
            let parent_turns = (depth > 0).then_some((cc_recv + 1, bc_send - 1));
            assert_eq!((s.collect(), s.rebroadcast()), (cc_recv, bc_send));
            assert_eq!(s.forward().zip(s.receive()), parent_turns);
        }
        // Lemma 14 at depth δ′ under bound D: collect at 2 + (D − δ′),
        // re-broadcast at D + 5 + δ′, each parent turn one round later
        // and earlier respectively.
        for (db, d2) in [(1, 0), (1, 1), (6, 2), (64, 63), (1000, 1)] {
            let s = Slot::by_depth(2, db as Round + 5, db, d2);
            let (d, dbr) = (d2 as Round, db as Round);
            let (cc_recv, bc_send) = (2 + (dbr - d), dbr + 5 + d);
            let parent_turns = (d2 > 0).then_some((cc_recv + 1, bc_send - 1));
            assert_eq!((s.collect(), s.rebroadcast()), (cc_recv, bc_send));
            assert_eq!(s.forward().zip(s.receive()), parent_turns);
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
