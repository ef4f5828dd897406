//! Lemma 7: running an algorithm designed for the virtual graph `H` on the
//! underlying graph `G`, over a uniquely-labeled BFS-clustering.
//!
//! Every member of a cluster runs an identical **replica** of the vertex's
//! program (the paper's "gather everything at every node" made explicit:
//! since all members learn the same information, they can all simulate the
//! vertex deterministically). One *virtual round* `x` of `H` becomes a
//! *phase* of `2D+6` real rounds:
//!
//! 1. **exchange** — members forward the vertex's round-`x` messages across
//!    border edges to adjacent awake clusters (and collect incoming ones);
//! 2. **convergecast** — the incoming messages are merged up the BFS tree
//!    (depth-synchronized, ≤ 2 awake rounds);
//! 3. **broadcast** — the merged inbox is pushed back down (≤ 2 awake
//!    rounds); every member then advances the replica by one round of the
//!    inner program and sleeps until the phase of the vertex's next awake
//!    virtual round.
//!
//! A member is awake ≤ 5 real rounds per awake virtual round (the paper
//! proves ≤ 7), and clusters whose vertex sleeps are entirely asleep —
//! messages sent to them are lost, exactly the Sleeping semantics on `H`.
//!
//! # Sharing
//!
//! Replicas share read-only data instead of copying it. Each member record
//! is one `Arc`, created by its member in the setup gather and shared from
//! then on by every bag that carries it, every member's view and every
//! replica's [`VertexInput`], so building a cluster's inputs copies
//! pointers, not records. Virtual messages travel inline: every port,
//! merge bag and collected entry that carries one holds its own clone, so
//! [`VirtualProgram::Msg`] must be cheap to clone — a program keeps a large
//! payload behind an `Arc` inside its message type, and cloning the message
//! then shares the payload.
//!
//! Nothing is mutated once shared. A result that is a pure function of a
//! shared value — the same for every replica of a cluster, such as Lemma
//! 14's merged-cluster depths — may be memoized on that value's allocation,
//! so the first replica computes it and the others read it (see
//! [`crate::lemma14::RecordSet`]). A result that also depends on received
//! messages may be memoized only when it is keyed by the pointer identity
//! of everything it read: a replica reads the stored result only if it
//! holds exactly those allocations, and otherwise computes its own (see
//! Theorem 9's Π′ decision, stored in a write-once slot on the cluster
//! root's member record). An `Arc<T>` encodes exactly like `T` and a
//! memo is never encoded, so snapshots see neither the sharing nor the
//! memo: a decoded value starts with an empty memo and fills it again.

use crate::gather::{
    gather_rounds, Cast, ClusterView, GatherCore, GatherMsg, GatherStep, MemberRec,
};
use awake_sleeping::{
    codec, Action, CheckpointError, Codec, Envelope, Outbox, Persist, Program, Reader, Round, View,
    Writer,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Cluster-level input handed to the inner program's factory.
///
/// Deliberately excludes member-specific data (own ident/ports) so that all
/// replicas of a vertex are identical. The member records are shared, not
/// copied: cloning an input costs one reference-count increment.
#[derive(Debug, Clone, PartialEq)]
pub struct VertexInput<P> {
    /// The vertex's label (= cluster label).
    pub label: u64,
    /// Every member's record, shared by every holder of this input and
    /// never mutated.
    pub members: Arc<BTreeMap<u64, Arc<MemberRec<P>>>>,
}

/// A member's gathered view, less its own identifier, depth and ports.
impl<P> From<ClusterView<P>> for VertexInput<P> {
    fn from(view: ClusterView<P>) -> Self {
        VertexInput {
            label: view.label,
            members: Arc::new(view.members),
        }
    }
}

impl<P: Clone> VertexInput<P> {
    /// Sorted distinct labels of adjacent vertices in `H`.
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

    /// Degree in `H`.
    pub fn h_degree(&self) -> usize {
        self.neighbor_labels().len()
    }

    /// The root member's identifier.
    pub fn root_ident(&self) -> u64 {
        self.members
            .values()
            .find(|m| m.depth == 0)
            .map(|m| m.ident)
            .expect("BFS cluster has a root")
    }

    /// Intra-cluster edges as ident pairs (`a < b`, each once).
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

    /// Border edges `(member ident, neighbor ident, neighbor label,
    /// neighbor depth, neighbor payload)`.
    pub fn border_edges(&self) -> Vec<(u64, u64, u64, u32, P)> {
        let mut out = Vec::new();
        for m in self.members.values() {
            for b in &m.border {
                out.push((m.ident, b.0, b.1, b.2, b.3.clone()));
            }
        }
        out.sort_unstable_by_key(|a| (a.0, a.1, a.2));
        out
    }
}

/// A message from an adjacent vertex.
#[derive(Debug, Clone, PartialEq)]
pub struct VEnvelope<M> {
    /// Sender vertex label.
    pub from: u64,
    /// Payload.
    pub msg: M,
}

/// A message the inner program emits.
#[derive(Debug, Clone, PartialEq)]
pub enum VOutgoing<M> {
    /// To the vertex with this label (must be adjacent in `H`).
    ToCluster(u64, M),
    /// To every adjacent vertex.
    Broadcast(M),
}

/// A program for one vertex of the virtual graph `H`, in the Sleeping
/// model on `H`: `send` then `receive` per awake virtual round; all
/// vertices are awake at virtual round 1.
///
/// Implementations must be deterministic — every cluster member replays an
/// identical replica.
///
/// The [`VertexInput`] a replica is built from is shared by all replicas
/// and never mutated: a program that wants to keep part of it keeps a copy
/// or an `Arc` of its own.
pub trait VirtualProgram: Sized {
    /// Virtual message type. It must be cheap to clone: the simulator
    /// clones a sent message once per port, merge bag and replica inbox
    /// that carries it, so a message with a large payload keeps the
    /// payload behind an `Arc` (as `L15Msg` and `L14Msg` do) and a clone
    /// costs a reference-count increment.
    type Msg: Clone + std::fmt::Debug + Send + Sync + PartialEq;
    /// Vertex-level output.
    type Output: Clone + std::fmt::Debug + Send + Sync;
    /// Per-node payload collected by the setup gather into [`VertexInput`].
    type Payload: Clone + std::fmt::Debug + Send + Sync;

    /// Append the messages to transmit at virtual round `vround` to `out`.
    ///
    /// `out` arrives empty; it is a pooled buffer the simulator clears and
    /// reuses across phases, so steady-state priming allocates nothing.
    fn send(&mut self, vround: Round, out: &mut Vec<VOutgoing<Self::Msg>>);

    /// Process the messages received at `vround`; choose the next action
    /// (rounds in the action are *virtual* rounds).
    fn receive(&mut self, vround: Round, inbox: &[VEnvelope<Self::Msg>]) -> Action;

    /// The vertex output; must be `Some` once halted.
    fn output(&self) -> Option<Self::Output>;
}

/// Physical message type of the simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum VirtMsg<P, M> {
    /// Setup-gather traffic.
    Gather(GatherMsg<P>),
    /// Border traffic at a phase's exchange round.
    Exchange {
        /// Sending vertex.
        from: u64,
        /// Target vertex (`None` = broadcast).
        to: Option<u64>,
        /// Per-round sequence number (for deduplication).
        seq: u16,
        /// Payload.
        msg: M,
    },
    /// Intra-cluster merge traffic (the item list is `Arc`-shared:
    /// per-recipient clones are O(1)).
    Bag {
        /// The cluster this bag belongs to.
        label: u64,
        /// Convergecast (`true`) or broadcast (`false`) leg.
        up: bool,
        /// `(from vertex, seq, msg)` triples.
        items: Arc<Vec<(u64, u16, M)>>,
    },
}

/// Total rounds of a simulation with `inner_rounds` virtual rounds: the
/// setup gather, then one phase per virtual round, each as long as a
/// gather.
///
/// # Panics
/// Panics where the total leaves `u64`; [`checked_virt_rounds`] is the
/// form that returns `None` there.
pub fn virt_rounds(d: u32, inner_rounds: Round) -> Round {
    checked_virt_rounds(d, inner_rounds).expect("the virtual schedule fits in a Round")
}

/// [`virt_rounds`], or `None` where the total leaves `u64`.
pub fn checked_virt_rounds(d: u32, inner_rounds: Round) -> Option<Round> {
    inner_rounds.checked_add(1)?.checked_mul(gather_rounds(d))
}

// ---- phase timing (over the public depth bound) ----

/// The exchange round that opens virtual round `vround`'s phase.
fn t0(db: u32, vround: Round) -> Round {
    1 + vround * gather_rounds(db)
}

/// The cast schedule of virtual round `vround`'s phase at `depth`.
fn cast(db: u32, vround: Round, depth: u32) -> Cast {
    let base = t0(db, vround);
    Cast { base, db, depth }
}

/// The physical message type [`VirtSim`] sends: virtual messages inline.
type Wire<VP> = VirtMsg<<VP as VirtualProgram>::Payload, <VP as VirtualProgram>::Msg>;

/// A collected exchange item: `(sending vertex, seq, payload)`.
type Item<M> = (u64, u16, M);

struct RunState<VP: VirtualProgram> {
    vp: VP,
    /// The cluster-level input the replica was built from — kept so a
    /// snapshot/crash restore can re-run the factory and then overlay the
    /// replica's dynamic state (see the `Persist` impl).
    vinput: VertexInput<VP::Payload>,
    depth: u32,
    has_children: bool,
    ports: Vec<(awake_graphs::NodeId, u64, u64)>,
    label: u64,
    /// Virtual round whose phase is currently executing.
    cur: Round,
    /// The vertex's next awake virtual round (set by `prime`).
    next: Round,
    /// The vertex's outgoing messages for `vround`, numbered.
    outgoing: Vec<(u16, Option<u64>, VP::Msg)>,
    /// Exchange items collected during the current phase, sorted by
    /// `(from, seq)` with one item per key (the first to arrive).
    collected: Vec<Item<VP::Msg>>,
    /// Full merged inbox, kept behind one shared `Arc` so the downward
    /// re-broadcast and the local replica advance reuse the same buffer.
    /// [`publish_bag`] refills it in place once the Arc is unshared.
    bc_copy: Arc<Vec<Item<VP::Msg>>>,
    /// Set once the inner program halts.
    vp_done: bool,
    /// Pooled scratch for [`VirtualProgram::send`] (never persisted —
    /// empty outside `prime`).
    send_buf: Vec<VOutgoing<VP::Msg>>,
    /// Pooled inbox the replica reads each phase (transient).
    inbox_buf: Vec<VEnvelope<VP::Msg>>,
}

enum St<VP: VirtualProgram> {
    Inactive,
    Gather(GatherCore<VP::Payload>),
    Run(Box<RunState<VP>>),
    Done,
}

/// The Lemma 7 simulator: a Sleeping-model [`Program`] on `G` executing a
/// [`VirtualProgram`] on `H`.
///
/// Construct with [`VirtSim::participant`] / [`VirtSim::bystander`]; node
/// output is `Some(vertex output)` for participants, `None` for bystanders.
pub struct VirtSim<VP: VirtualProgram, F> {
    st: St<VP>,
    factory: F,
    depth_bound: u32,
    out: Option<VP::Output>,
}

impl<VP, F> VirtSim<VP, F>
where
    VP: VirtualProgram,
    F: Fn(&VertexInput<VP::Payload>) -> VP,
{
    /// A participating node with cluster `label`, BFS `depth`, identifier
    /// `ident` and gather payload `payload`.
    pub fn participant(
        label: u64,
        depth: u32,
        ident: u64,
        payload: VP::Payload,
        depth_bound: u32,
        factory: F,
    ) -> Self {
        VirtSim {
            st: St::Gather(GatherCore::new(
                label,
                depth,
                ident,
                payload,
                depth_bound,
                1,
            )),
            factory,
            depth_bound,
            out: None,
        }
    }

    /// A node outside the clustered subgraph: never wakes, outputs `None`.
    pub fn bystander(factory: F) -> Self {
        VirtSim {
            st: St::Inactive,
            factory,
            depth_bound: 0,
            out: None,
        }
    }
}

/// Prepare the outgoing messages for the vertex's next awake round. Both
/// the send scratch and the numbered `outgoing` buffer are pooled.
fn prime<VP: VirtualProgram>(run: &mut RunState<VP>, next: Round) {
    run.next = next;
    run.send_buf.clear();
    run.vp.send(next, &mut run.send_buf);
    run.outgoing.clear();
    run.outgoing
        .extend(run.send_buf.drain(..).enumerate().map(|(i, o)| match o {
            VOutgoing::ToCluster(j, m) => (i as u16, Some(j), m),
            VOutgoing::Broadcast(m) => (i as u16, None, m),
        }));
    run.collected.clear();
}

/// Restore `collected`'s order after a merge appended to it: sorted by
/// `(from, seq)`, keeping the first-collected item of each key (the sort
/// is stable and earlier items sit before later ones).
fn settle<M>(collected: &mut Vec<Item<M>>) {
    collected.sort_by_key(|it| (it.0, it.1));
    collected.dedup_by_key(|it| (it.0, it.1));
}

/// Publish `collected` as the phase's merged inbox bag. When this replica
/// holds the previous bag's last reference (the steady state: the engine
/// has delivered and dropped every broadcast copy by the time the next
/// phase merges) the bag is refilled in place and its old buffer becomes
/// the next `collected`, so phase turnover allocates nothing.
fn publish_bag<VP: VirtualProgram>(run: &mut RunState<VP>) {
    match Arc::get_mut(&mut run.bc_copy) {
        Some(bag) => {
            std::mem::swap(bag, &mut run.collected);
            run.collected.clear();
        }
        None => run.bc_copy = Arc::new(std::mem::take(&mut run.collected)),
    }
}

/// Advance the replica once the phase's full inbox is known; returns the
/// engine action covering the node's remaining duties this phase.
fn process<VP: VirtualProgram>(
    out: &mut Option<VP::Output>,
    db: u32,
    run: &mut RunState<VP>,
) -> Action {
    // The merged bag is already sorted by `(from, seq)` and deduplicated.
    run.inbox_buf.clear();
    run.inbox_buf
        .extend(run.bc_copy.iter().map(|(from, _, msg)| VEnvelope {
            from: *from,
            msg: msg.clone(),
        }));
    let x = run.cur;
    match run.vp.receive(x, &run.inbox_buf) {
        Action::Stay => prime(run, x + 1),
        Action::SleepUntil(x2) => {
            assert!(x2 > x, "inner program must sleep strictly forward");
            prime(run, x2);
        }
        Action::Halt => {
            run.vp_done = true;
            *out = run.vp.output();
            assert!(out.is_some(), "inner program halted without output");
        }
    }
    if run.has_children {
        // Still owe the downward re-broadcast of the merged inbox.
        Action::SleepUntil(cast(db, x, run.depth).bc_send())
    } else if run.vp_done {
        Action::Halt
    } else {
        Action::SleepUntil(t0(db, run.next))
    }
}

fn merge_items<VP: VirtualProgram>(run: &mut RunState<VP>, inbox: &[Envelope<Wire<VP>>], up: bool) {
    for e in inbox {
        if let VirtMsg::Bag {
            label,
            up: u,
            items,
        } = &e.msg
        {
            if *label == run.label && *u == up {
                run.collected.extend(items.iter().cloned());
            }
        }
    }
    settle(&mut run.collected);
}

impl<VP, F> Program for VirtSim<VP, F>
where
    VP: VirtualProgram,
    F: Fn(&VertexInput<VP::Payload>) -> VP,
{
    type Msg = Wire<VP>;
    type Output = Option<VP::Output>;

    fn initial_wake(&self) -> Option<Round> {
        match self.st {
            St::Inactive => None,
            _ => Some(1),
        }
    }

    fn send(&mut self, view: &View<'_>, out: &mut Outbox<Self::Msg>) {
        let db = self.depth_bound;
        match &mut self.st {
            St::Inactive | St::Done => {}
            St::Gather(core) => core.send_at(view.round, out, VirtMsg::Gather),
            St::Run(run) => {
                let round = view.round;
                if !run.vp_done && round == t0(db, run.next) {
                    for (seq, to, msg) in &run.outgoing {
                        for &(port, _, l) in &run.ports {
                            let ship = match to {
                                Some(j) => l == *j,
                                None => l != run.label,
                            };
                            if ship {
                                out.to(
                                    port,
                                    VirtMsg::Exchange {
                                        from: run.label,
                                        to: *to,
                                        seq: *seq,
                                        msg: msg.clone(),
                                    },
                                );
                            }
                        }
                    }
                } else if round == cast(db, run.cur, run.depth).cc_send() && run.depth > 0 {
                    // The up-leg bag is dead locally after this broadcast
                    // (bc_recv clears and refills `collected`): move it
                    // into the Arc instead of cloning the item vector.
                    out.broadcast(VirtMsg::Bag {
                        label: run.label,
                        up: true,
                        items: Arc::new(std::mem::take(&mut run.collected)),
                    });
                } else if round == cast(db, run.cur, run.depth).bc_send() && run.has_children {
                    // O(1): the merged inbox is already behind an Arc.
                    out.broadcast(VirtMsg::Bag {
                        label: run.label,
                        up: false,
                        items: Arc::clone(&run.bc_copy),
                    });
                }
            }
        }
    }

    fn receive(&mut self, view: &View<'_>, inbox: &[Envelope<Self::Msg>]) -> Action {
        let round = view.round;
        let db = self.depth_bound;
        match &mut self.st {
            St::Inactive | St::Done => unreachable!("inactive nodes never wake"),
            St::Gather(core) => {
                let step = core.recv_at(round, inbox, |m| match m {
                    VirtMsg::Gather(g) => Some(g),
                    _ => None,
                });
                match step {
                    GatherStep::WakeAt(r) => Action::SleepUntil(r),
                    GatherStep::Done => {
                        let St::Gather(core) = std::mem::replace(&mut self.st, St::Done) else {
                            unreachable!("in the gather stage")
                        };
                        let mut cview = core.into_view().expect("gather done");
                        let has_children = cview.my_ports.iter().any(|&(_, nid, l)| {
                            l == cview.label
                                && cview
                                    .members
                                    .get(&nid)
                                    .is_some_and(|m| m.depth == cview.my_depth + 1)
                        });
                        let (depth, ports) = (cview.my_depth, std::mem::take(&mut cview.my_ports));
                        let vinput = VertexInput::from(cview);
                        let vp = (self.factory)(&vinput);
                        let label = vinput.label;
                        let mut run = Box::new(RunState {
                            vp,
                            vinput,
                            depth,
                            has_children,
                            ports,
                            label,
                            cur: 1,
                            next: 1,
                            outgoing: vec![],
                            collected: vec![],
                            bc_copy: Arc::new(vec![]),
                            vp_done: false,
                            send_buf: vec![],
                            inbox_buf: vec![],
                        });
                        // All vertices are awake at virtual round 1.
                        prime(&mut run, 1);
                        let wake = t0(db, 1);
                        self.st = St::Run(run);
                        Action::SleepUntil(wake)
                    }
                }
            }
            St::Run(run) => {
                let c = cast(db, run.cur, run.depth); // the phase under way
                let action = if round == t0(db, run.next) {
                    // Entering the phase of the next awake virtual round.
                    run.cur = run.next;
                    let x = run.cur;
                    for e in inbox {
                        if let VirtMsg::Exchange { from, to, seq, msg } = &e.msg {
                            if *from != run.label && (to.is_none() || *to == Some(run.label)) {
                                run.collected.push((*from, *seq, msg.clone()));
                            }
                        }
                    }
                    settle(&mut run.collected);
                    if run.depth == 0 && !run.has_children {
                        publish_bag(run);
                        process(&mut self.out, db, run)
                    } else if run.has_children {
                        Action::SleepUntil(cast(db, x, run.depth).cc_recv())
                    } else {
                        Action::SleepUntil(cast(db, x, run.depth).cc_send())
                    }
                } else if round == c.cc_recv() && run.has_children {
                    merge_items(run, inbox, true);
                    if run.depth == 0 {
                        publish_bag(run);
                        process(&mut self.out, db, run)
                    } else {
                        Action::SleepUntil(c.cc_send())
                    }
                } else if round == c.cc_send() && run.depth > 0 {
                    Action::SleepUntil(c.bc_recv())
                } else if round == c.bc_recv() && run.depth > 0 {
                    run.collected.clear();
                    merge_items(run, inbox, false);
                    publish_bag(run);
                    process(&mut self.out, db, run)
                } else if round == c.bc_send() {
                    if run.vp_done {
                        Action::Halt
                    } else {
                        Action::SleepUntil(t0(db, run.next))
                    }
                } else {
                    unreachable!("VirtSim woke at unscheduled round {round}");
                };
                if matches!(action, Action::Halt) {
                    self.st = St::Done;
                }
                action
            }
        }
    }

    fn output(&self) -> Option<Self::Output> {
        match self.st {
            St::Inactive => Some(None),
            St::Done => Some(self.out.clone()),
            _ => None,
        }
    }

    fn span(&self) -> &'static str {
        match self.st {
            St::Gather(_) => "virt/gather",
            _ => "virt/phase",
        }
    }
}

codec!(struct VertexInput<P: Codec> { label, members });

/// Dynamic state of the simulator: which stage it is in, the gather core's
/// progress, or the full phase state of the running replica. The replica
/// itself is restored by re-running the factory on the serialized
/// [`VertexInput`] and then overlaying the inner program's dynamic state
/// through its own [`Persist`] impl — so any persistable
/// [`VirtualProgram`] rides through snapshots and crash-restarts without
/// the simulator knowing its internals.
impl<VP, F> Persist for VirtSim<VP, F>
where
    VP: VirtualProgram + Persist,
    VP::Payload: Codec,
    VP::Msg: Codec,
    VP::Output: Codec,
    F: Fn(&VertexInput<VP::Payload>) -> VP,
{
    fn save(&self, w: &mut Writer) {
        match &self.st {
            St::Inactive => 0u8.encode(w),
            St::Gather(core) => {
                1u8.encode(w);
                core.save(w);
            }
            St::Run(run) => {
                2u8.encode(w);
                run.vinput.encode(w);
                run.depth.encode(w);
                run.has_children.encode(w);
                run.ports.encode(w);
                run.label.encode(w);
                run.cur.encode(w);
                run.next.encode(w);
                run.outgoing.encode(w);
                run.collected.encode(w);
                run.bc_copy.encode(w);
                run.vp_done.encode(w);
                run.vp.save(w);
            }
            St::Done => 3u8.encode(w),
        }
        self.out.encode(w);
    }

    fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), CheckpointError> {
        match u8::decode(r)? {
            0 => self.st = St::Inactive,
            1 => match &mut self.st {
                St::Gather(core) => core.restore(r)?,
                _ => return Err(CheckpointError::Corrupt("VirtSim stage mismatch")),
            },
            2 => {
                let vinput: VertexInput<VP::Payload> = r.get()?;
                let mut vp = (self.factory)(&vinput);
                let depth = r.get()?;
                let has_children = r.get()?;
                let ports = r.get()?;
                let label = r.get()?;
                let cur = r.get()?;
                let next = r.get()?;
                let outgoing = r.get()?;
                let collected = r.get()?;
                let bc_copy = r.get()?;
                let vp_done = r.get()?;
                vp.restore(r)?;
                self.st = St::Run(Box::new(RunState {
                    vp,
                    vinput,
                    depth,
                    has_children,
                    ports,
                    label,
                    cur,
                    next,
                    outgoing,
                    collected,
                    bc_copy,
                    vp_done,
                    send_buf: vec![],
                    inbox_buf: vec![],
                }));
            }
            3 => self.st = St::Done,
            _ => return Err(CheckpointError::Corrupt("VirtSim state tag")),
        }
        self.out = r.get()?;
        Ok(())
    }
}

codec!(enum VirtMsg<P: Codec, M: Codec> {
    0 => Gather(g),
    1 => Exchange { from, to, seq, msg },
    2 => Bag { label, up, items },
});
