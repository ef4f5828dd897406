//! Depth-synchronized intra-cluster convergecast + broadcast.
//!
//! Inside a BFS cluster every node knows its depth `δ`, so (unlike the
//! generic Lemma 6 setting) parents' wake rounds are computable locally:
//! depth-`d` nodes collect their children's bags at round `2 + (D − d)` and
//! forward at the next round; the root then re-broadcasts the merged bag
//! down, depth layer by depth layer. `D` is the public depth bound (`n`).
//!
//! After the protocol, **every member knows the full structure of its
//! cluster**: member identities, depths, payloads, intra-cluster edges and
//! all border edges (with the neighboring cluster's label and payload) —
//! exactly the "acquire the whole structure of the cluster" step used
//! throughout §4–§5 of the paper. Awake complexity ≤ 5 per node, rounds
//! `2D + 6`.
//!
//! The logic lives in [`GatherCore`] (driven relative to a base round) so
//! that the standalone [`ClusterGather`] program and the Lemma 7 simulator
//! ([`crate::virt`]) share one implementation.

use awake_graphs::NodeId;
use awake_sleeping::{
    Action, CheckpointError, Codec, Envelope, Outbox, Outgoing, Persist, Program, Reader, Round,
    View, Writer,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// A member record traveling in gather bags.
#[derive(Debug, Clone, PartialEq)]
pub struct MemberRec<P> {
    /// The member's identifier.
    pub ident: u64,
    /// Its BFS depth in the cluster.
    pub depth: u32,
    /// Its payload.
    pub payload: P,
    /// Identifiers of its same-cluster neighbors.
    pub intra: Vec<u64>,
    /// Its border edges: `(neighbor ident, neighbor label, neighbor depth,
    /// neighbor payload)`.
    pub border: Vec<(u64, u64, u32, P)>,
}

/// What every member knows after the gather.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterView<P> {
    /// The cluster's label.
    pub label: u64,
    /// This node's identifier.
    pub my_ident: u64,
    /// This node's depth.
    pub my_depth: u32,
    /// All members, keyed by identifier.
    pub members: BTreeMap<u64, MemberRec<P>>,
    /// This node's ports: `(port, neighbor ident, neighbor label)`.
    pub my_ports: Vec<(NodeId, u64, u64)>,
}

impl<P> ClusterView<P> {
    /// Sorted distinct labels of adjacent clusters (the vertex's neighbors
    /// in the virtual graph `H`).
    pub fn neighbor_labels(&self) -> Vec<u64> {
        let mut l: Vec<u64> = self
            .members
            .values()
            .flat_map(|m| m.border.iter().map(|b| b.1))
            .collect();
        l.sort_unstable();
        l.dedup();
        l
    }

    /// Degree of the vertex in `H`.
    pub fn h_degree(&self) -> usize {
        self.neighbor_labels().len()
    }

    /// The root member's identifier (depth 0).
    pub fn root_ident(&self) -> u64 {
        self.members
            .values()
            .find(|m| m.depth == 0)
            .map(|m| m.ident)
            .expect("BFS cluster has a root")
    }

    /// Intra-cluster edges as ident pairs (each once, `a < b`).
    pub fn intra_edges(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for m in self.members.values() {
            for &w in &m.intra {
                if m.ident < w {
                    out.push((m.ident, w));
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Gather protocol messages.
#[derive(Debug, Clone, PartialEq)]
pub enum GatherMsg<P> {
    /// Round-1 announcement: `(label, depth, ident, payload)`.
    Hello(u64, u32, u64, P),
    /// A bag of member records; `up = true` on the convergecast leg.
    /// Shared via `Arc` so per-recipient clones are O(1).
    Bag {
        /// The sending cluster's label (receivers filter on it).
        label: u64,
        /// Convergecast (`true`) or broadcast (`false`) leg.
        up: bool,
        /// The records.
        recs: Arc<Vec<MemberRec<P>>>,
    },
}

/// Total rounds the gather occupies for depth bound `d`.
pub fn gather_rounds(d: u32) -> Round {
    2 * d as Round + 6
}

/// The reusable gather state machine, operating at rounds relative to
/// `base` (the standalone program uses `base = 1`).
#[derive(Debug)]
pub struct GatherCore<P> {
    label: u64,
    depth: u32,
    ident: u64,
    payload: P,
    depth_bound: u32,
    base: Round,
    has_children: bool,
    bag: Vec<MemberRec<P>>,
    bag_idents: BTreeSet<u64>,
    view: Option<ClusterView<P>>,
    my_ports: Vec<(NodeId, u64, u64)>,
}

/// What the core wants next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GatherStep {
    /// Sleep until the given absolute round.
    WakeAt(Round),
    /// The gather is complete at this node; [`GatherCore::view`] is ready.
    Done,
}

impl<P: Clone + std::fmt::Debug + Send + Sync> GatherCore<P> {
    /// New core for a node with cluster `label`, BFS `depth`, its own
    /// identifier, and payload.
    pub fn new(
        label: u64,
        depth: u32,
        ident: u64,
        payload: P,
        depth_bound: u32,
        base: Round,
    ) -> Self {
        GatherCore {
            label,
            depth,
            ident,
            payload,
            depth_bound,
            base,
            has_children: false,
            bag: Vec::new(),
            bag_idents: BTreeSet::new(),
            view: None,
            my_ports: Vec::new(),
        }
    }

    fn hello_round(&self) -> Round {
        self.base
    }
    fn cc_recv_round(&self) -> Round {
        self.base + 1 + (self.depth_bound - self.depth) as Round
    }
    fn cc_send_round(&self) -> Round {
        self.cc_recv_round() + 1
    }
    fn bc_base(&self) -> Round {
        self.base + self.depth_bound as Round + 3
    }
    fn bc_recv_round(&self) -> Round {
        // depth d ≥ 1 receives at base + d − 1; the root "receives" at its
        // cc_recv_round instead.
        self.bc_base() + self.depth as Round - 1
    }
    fn bc_send_round(&self) -> Round {
        self.bc_base() + self.depth as Round
    }

    /// The completed view (once [`GatherStep::Done`]).
    pub fn view(&self) -> Option<&ClusterView<P>> {
        self.view.as_ref()
    }

    /// Consume the core, returning the view.
    pub fn into_view(self) -> Option<ClusterView<P>> {
        self.view
    }

    /// Messages to emit at `round`.
    pub fn send_at(&mut self, round: Round) -> Vec<Outgoing<GatherMsg<P>>> {
        if round == self.hello_round() {
            return vec![Outgoing::Broadcast(GatherMsg::Hello(
                self.label,
                self.depth,
                self.ident,
                self.payload.clone(),
            ))];
        }
        if round == self.cc_send_round() && self.depth > 0 {
            return vec![Outgoing::Broadcast(GatherMsg::Bag {
                label: self.label,
                up: true,
                recs: Arc::new(self.bag.clone()),
            })];
        }
        if round == self.bc_send_round() && self.has_children {
            return vec![Outgoing::Broadcast(GatherMsg::Bag {
                label: self.label,
                up: false,
                recs: Arc::new(self.bag.clone()),
            })];
        }
        vec![]
    }

    /// Process the inbox at `round`; returns the next step.
    pub fn recv_at(&mut self, round: Round, inbox: &[Envelope<GatherMsg<P>>]) -> GatherStep {
        let me_ident = self.ident;
        if round == self.hello_round() {
            // Learn all neighbors; build own record.
            let mut intra = Vec::new();
            let mut border = Vec::new();
            self.my_ports.clear();
            for e in inbox {
                if let GatherMsg::Hello(l, d, ident, pl) = &e.msg {
                    self.my_ports.push((e.from, *ident, *l));
                    if *l == self.label {
                        intra.push(*ident);
                        if *d == self.depth + 1 {
                            self.has_children = true;
                        }
                    } else {
                        border.push((*ident, *l, *d, pl.clone()));
                    }
                }
            }
            intra.sort_unstable();
            border.sort_unstable_by_key(|b| (b.0, b.1));
            self.bag = vec![MemberRec {
                ident: me_ident,
                depth: self.depth,
                payload: self.payload.clone(),
                intra,
                border,
            }];
            self.bag_idents = BTreeSet::from([me_ident]);
            // Singleton root: nothing more to do.
            if self.depth == 0 && !self.has_children {
                self.finish(me_ident);
                return GatherStep::Done;
            }
            if self.has_children {
                return GatherStep::WakeAt(self.cc_recv_round());
            }
            // Leaf: go straight to our forwarding (cc) round.
            return GatherStep::WakeAt(self.cc_send_round());
        }

        if round == self.cc_recv_round() && self.has_children {
            self.merge_bags(inbox, true);
            if self.depth == 0 {
                // Root: bag complete; deliver downward next.
                self.finish(me_ident);
                return GatherStep::WakeAt(self.bc_send_round());
            }
            return GatherStep::WakeAt(self.cc_send_round());
        }

        if round == self.cc_send_round() && self.depth > 0 {
            return GatherStep::WakeAt(self.bc_recv_round());
        }

        if round == self.bc_recv_round() && self.depth > 0 {
            self.merge_bags(inbox, false);
            self.finish(me_ident);
            if self.has_children {
                return GatherStep::WakeAt(self.bc_send_round());
            }
            return GatherStep::Done;
        }

        if round == self.bc_send_round() {
            return GatherStep::Done;
        }

        unreachable!("gather core woke at unscheduled round {round}");
    }

    fn merge_bags(&mut self, inbox: &[Envelope<GatherMsg<P>>], up: bool) {
        for e in inbox {
            if let GatherMsg::Bag { label, up: u, recs } = &e.msg {
                if *label == self.label && *u == up {
                    for r in recs.iter() {
                        if self.bag_idents.insert(r.ident) {
                            self.bag.push(r.clone());
                        }
                    }
                }
            }
        }
    }

    fn finish(&mut self, me_ident: u64) {
        let members: BTreeMap<u64, MemberRec<P>> =
            self.bag.iter().cloned().map(|r| (r.ident, r)).collect();
        self.view = Some(ClusterView {
            label: self.label,
            my_ident: me_ident,
            my_depth: self.depth,
            members,
            my_ports: self.my_ports.clone(),
        });
    }
}

impl<P: Clone + std::fmt::Debug + Send + Sync + Codec> GatherCore<P> {
    /// Write the core's dynamic state (everything `recv_at` mutates). The
    /// ident index and the finished view are derivable from the bag and the
    /// ports, so only a completion flag travels for the view.
    pub fn save(&self, w: &mut Writer) {
        self.has_children.encode(w);
        self.bag.encode(w);
        self.my_ports.encode(w);
        self.view.is_some().encode(w);
    }

    /// Overwrite the dynamic state on a freshly constructed core.
    pub fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), CheckpointError> {
        self.has_children = r.get()?;
        self.bag = r.get()?;
        self.my_ports = r.get()?;
        self.bag_idents = self.bag.iter().map(|m| m.ident).collect();
        let finished: bool = r.get()?;
        if finished {
            self.finish(self.ident);
        } else {
            self.view = None;
        }
        Ok(())
    }
}

/// Standalone gather program: every participant outputs its
/// [`ClusterView`]; non-participants output `None` and never wake.
pub struct ClusterGather<P> {
    core: Option<GatherCore<P>>,
    done_view: Option<ClusterView<P>>,
}

impl<P: Clone + std::fmt::Debug + Send + Sync> ClusterGather<P> {
    /// A participating node.
    pub fn participant(label: u64, depth: u32, ident: u64, payload: P, depth_bound: u32) -> Self {
        ClusterGather {
            core: Some(GatherCore::new(
                label,
                depth,
                ident,
                payload,
                depth_bound,
                1,
            )),
            done_view: None,
        }
    }

    /// A node outside the clustered subgraph (sleeps through the stage).
    pub fn bystander() -> Self {
        ClusterGather {
            core: None,
            done_view: None,
        }
    }
}

impl<P: Clone + std::fmt::Debug + Send + Sync> Program for ClusterGather<P> {
    type Msg = GatherMsg<P>;
    type Output = Option<ClusterView<P>>;

    fn initial_wake(&self) -> Option<Round> {
        self.core.as_ref().map(|_| 1)
    }

    fn send(&mut self, view: &View<'_>, out: &mut Outbox<GatherMsg<P>>) {
        if let Some(core) = &mut self.core {
            out.extend(core.send_at(view.round));
        }
    }

    fn receive(&mut self, view: &View<'_>, inbox: &[Envelope<GatherMsg<P>>]) -> Action {
        let core = self.core.as_mut().expect("bystanders never wake");
        match core.recv_at(view.round, inbox) {
            GatherStep::WakeAt(r) => Action::SleepUntil(r),
            GatherStep::Done => {
                self.done_view = core.view().cloned();
                Action::Halt
            }
        }
    }

    fn output(&self) -> Option<Self::Output> {
        if self.core.is_none() {
            return Some(None);
        }
        self.done_view.clone().map(Some)
    }

    fn span(&self) -> &'static str {
        "gather"
    }
}

/// Dynamic state: the core's gather progress plus a completion flag for
/// the output view (rebuilt from the core, never serialized twice).
/// Participation itself is a construction input: a crash-restart or resume
/// rebuilds the same participant/bystander split from the scenario.
impl<P: Clone + std::fmt::Debug + Send + Sync + Codec> Persist for ClusterGather<P> {
    fn save(&self, w: &mut Writer) {
        match &self.core {
            None => false.encode(w),
            Some(core) => {
                true.encode(w);
                core.save(w);
                self.done_view.is_some().encode(w);
            }
        }
    }
    fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), CheckpointError> {
        let participating: bool = r.get()?;
        match (&mut self.core, participating) {
            (None, false) => Ok(()),
            (Some(core), true) => {
                core.restore(r)?;
                let done: bool = r.get()?;
                self.done_view = if done { core.view().cloned() } else { None };
                Ok(())
            }
            _ => Err(CheckpointError::Corrupt("gather participation mismatch")),
        }
    }
}

impl<P: Codec> Codec for MemberRec<P> {
    fn encode(&self, w: &mut Writer) {
        self.ident.encode(w);
        self.depth.encode(w);
        self.payload.encode(w);
        self.intra.encode(w);
        self.border.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(MemberRec {
            ident: r.get()?,
            depth: r.get()?,
            payload: r.get()?,
            intra: r.get()?,
            border: r.get()?,
        })
    }
}

impl<P: Codec> Codec for ClusterView<P> {
    fn encode(&self, w: &mut Writer) {
        self.label.encode(w);
        self.my_ident.encode(w);
        self.my_depth.encode(w);
        self.members.encode(w);
        self.my_ports.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(ClusterView {
            label: r.get()?,
            my_ident: r.get()?,
            my_depth: r.get()?,
            members: r.get()?,
            my_ports: r.get()?,
        })
    }
}

impl<P: Codec> Codec for GatherMsg<P> {
    fn encode(&self, w: &mut Writer) {
        match self {
            GatherMsg::Hello(label, depth, ident, payload) => {
                0u8.encode(w);
                label.encode(w);
                depth.encode(w);
                ident.encode(w);
                payload.encode(w);
            }
            GatherMsg::Bag { label, up, recs } => {
                1u8.encode(w);
                label.encode(w);
                up.encode(w);
                recs.encode(w);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        match u8::decode(r)? {
            0 => Ok(GatherMsg::Hello(r.get()?, r.get()?, r.get()?, r.get()?)),
            1 => Ok(GatherMsg::Bag {
                label: r.get()?,
                up: r.get()?,
                recs: r.get()?,
            }),
            _ => Err(CheckpointError::Corrupt("GatherMsg tag")),
        }
    }
}
