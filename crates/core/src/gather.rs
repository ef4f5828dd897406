//! Depth-synchronized intra-cluster convergecast + broadcast.
//!
//! This is Lemma 6 with labels = depths: inside a BFS cluster every node
//! knows its depth `δ`, hence its parent's label `δ − 1`, so no label round
//! is needed. Depth-`d` nodes collect their children's bags at round
//! `2 + (D − d)` and forward at the next round; the root then re-broadcasts
//! the merged bag down, depth layer by depth layer. `D` is the public depth
//! bound (`n`).
//!
//! After the protocol, **every member knows the full structure of its
//! cluster**: member identities, depths, payloads, intra-cluster edges and
//! all border edges (with the neighboring cluster's label and payload) —
//! exactly the "acquire the whole structure of the cluster" step used
//! throughout §4–§5 of the paper. Awake complexity ≤ 5 per node, rounds
//! `2D + 6`.
//!
//! The logic lives in [`GatherCore`] so that the standalone
//! [`ClusterGather`] program and the Lemma 7 simulator ([`crate::virt`])
//! share one implementation; the simulator's phases replay its schedule
//! (`cast`) from their own base rounds.

use crate::lemma6::Slot;
use awake_graphs::NodeId;
use awake_sleeping::{
    codec, persist, Action, CheckpointError, Codec, Envelope, Outbox, Persist, Program, Reader,
    Round, View, Writer,
};
use std::any::Any;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

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
    /// A slot for a result every holder of this record shares (see
    /// [`Memo`]); the root's record carries its cluster's.
    pub(crate) memo: Memo,
}

/// A write-once slot for a result derived from a shared record, so that
/// the first replica computes it and the others read it (the `# Sharing`
/// section of [`crate::virt`]). The slot is type-erased because the record
/// does not know what its readers compute. It is never encoded and never
/// compared, and a cloned or decoded record starts with an empty slot.
#[derive(Default)]
pub(crate) struct Memo(OnceLock<Box<dyn Any + Send + Sync>>);

impl Memo {
    /// The stored value, computed by `init` if the slot is empty; `None`
    /// if the slot holds a value of another type.
    pub(crate) fn get_or_init<T: Any + Send + Sync>(&self, init: impl FnOnce() -> T) -> Option<&T> {
        self.0.get_or_init(|| Box::new(init())).downcast_ref()
    }
}

impl Clone for Memo {
    fn clone(&self) -> Self {
        Memo::default()
    }
}

impl PartialEq for Memo {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl std::fmt::Debug for Memo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Memo")
    }
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
    /// All members, keyed by identifier. Each record is shared with the
    /// bags that carried it and with every other member's view.
    pub members: BTreeMap<u64, Arc<MemberRec<P>>>,
    /// This node's ports: `(port, neighbor ident, neighbor label)`.
    pub my_ports: Vec<(NodeId, u64, u64)>,
}

impl<P> ClusterView<P> {
    /// The root member's identifier (depth 0).
    pub fn root_ident(&self) -> u64 {
        self.members
            .values()
            .find(|m| m.depth == 0)
            .map(|m| m.ident)
            .expect("BFS cluster has a root")
    }
}

/// Gather protocol messages.
#[derive(Debug, Clone, PartialEq)]
pub enum GatherMsg<P> {
    /// Round-1 announcement: `(label, depth, ident, payload)`.
    Hello(u64, u32, u64, P),
    /// A bag of member records; `up = true` on the convergecast leg.
    /// Shared via `Arc` so per-recipient clones are O(1), and each record
    /// sits behind its own `Arc` so merging a bag copies pointers.
    Bag {
        /// The sending cluster's label (receivers filter on it).
        label: u64,
        /// Convergecast (`true`) or broadcast (`false`) leg.
        up: bool,
        /// The records.
        recs: Arc<Vec<Arc<MemberRec<P>>>>,
    },
}

/// Total rounds the gather occupies for depth bound `d`.
pub fn gather_rounds(d: u32) -> Round {
    2 * d as Round + 6
}

/// The Lemma 6 slot of a node at `depth` in the cast window that opens at
/// `base` (the hello round) under depth bound `db`. The window lasts
/// [`gather_rounds`]`(db)` rounds. The gather runs one window; the Lemma 7
/// simulator runs one per awake virtual round.
pub(crate) fn cast(base: Round, db: u32, depth: u32) -> Slot {
    Slot::by_depth(base + 1, base + db as Round + 3, db, depth)
}

/// Append to `bag` the records `incoming` yields whose key neither the
/// bag nor an earlier incoming record holds: the first arrival of each
/// key wins, and the kept records stay in arrival order. The bag's keys
/// must be distinct. One sort of the keys finds the duplicates, and only
/// the kept records are cloned.
pub(crate) fn append_unseen<'a, T: Clone + 'a>(
    bag: &mut Vec<T>,
    incoming: impl IntoIterator<Item = &'a T>,
    key: impl Fn(&T) -> u64,
) {
    let incoming: Vec<&T> = incoming.into_iter().collect();
    let held = bag.len();
    // Every key with its arrival position, the bag's records first.
    let mut keys: Vec<(u64, usize)> = bag
        .iter()
        .chain(incoming.iter().copied())
        .map(&key)
        .zip(0..)
        .collect();
    keys.sort_unstable();
    keys.dedup_by_key(|k| k.0);
    let mut fresh: Vec<usize> = keys
        .into_iter()
        .filter_map(|(_, i)| i.checked_sub(held))
        .collect();
    fresh.sort_unstable();
    bag.extend(fresh.into_iter().map(|i| incoming[i].clone()));
}

/// The reusable gather state machine: the hello round 1, then the cast
/// window that opens there.
#[derive(Debug)]
pub struct GatherCore<P> {
    label: u64,
    ident: u64,
    payload: P,
    depth: u32,
    slot: Slot,
    has_children: bool,
    /// The records gathered so far, shared with the bags that carry them
    /// (a send is a reference-count increment, not a copy).
    bag: Arc<Vec<Arc<MemberRec<P>>>>,
    /// Whether the bag holds the whole cluster (the view is ready).
    done: bool,
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
    /// identifier and payload, under depth bound `db`.
    pub fn new(label: u64, depth: u32, ident: u64, payload: P, db: u32) -> Self {
        GatherCore {
            label,
            ident,
            payload,
            depth,
            slot: cast(1, db, depth),
            has_children: false,
            bag: Arc::default(),
            done: false,
            my_ports: Vec::new(),
        }
    }

    /// The completed view (once [`GatherStep::Done`]); its records are
    /// shared with the core, not copied.
    pub fn view(&self) -> Option<ClusterView<P>> {
        self.done.then(|| ClusterView {
            label: self.label,
            my_ident: self.ident,
            my_depth: self.depth,
            members: self.bag.iter().map(|r| (r.ident, Arc::clone(r))).collect(),
            my_ports: self.my_ports.clone(),
        })
    }

    /// Consume the core, moving its records into the completed view
    /// (copying the record pointers only if a bag in flight still shares
    /// them).
    pub fn into_view(self) -> Option<ClusterView<P>> {
        self.done.then(|| ClusterView {
            label: self.label,
            my_ident: self.ident,
            my_depth: self.depth,
            members: Arc::unwrap_or_clone(self.bag)
                .into_iter()
                .map(|r| (r.ident, r))
                .collect(),
            my_ports: self.my_ports,
        })
    }

    /// Queue the messages due at `round` on `out`, each wrapped by `wrap`
    /// into the caller's message type.
    pub fn send_at<M>(
        &mut self,
        round: Round,
        out: &mut Outbox<M>,
        wrap: impl Fn(GatherMsg<P>) -> M,
    ) {
        if round == 1 {
            out.broadcast(wrap(GatherMsg::Hello(
                self.label,
                self.depth,
                self.ident,
                self.payload.clone(),
            )));
        } else if Some(round) == self.slot.forward() {
            out.broadcast(wrap(GatherMsg::Bag {
                label: self.label,
                up: true,
                recs: Arc::clone(&self.bag),
            }));
        } else if round == self.slot.rebroadcast() && self.has_children {
            out.broadcast(wrap(GatherMsg::Bag {
                label: self.label,
                up: false,
                recs: Arc::clone(&self.bag),
            }));
        }
    }

    /// Process the inbox at `round`; returns the next step. `gather` picks
    /// the gather messages out of the caller's message type, so the inbox
    /// is read in place.
    pub fn recv_at<M>(
        &mut self,
        round: Round,
        inbox: &[Envelope<M>],
        gather: impl Fn(&M) -> Option<&GatherMsg<P>>,
    ) -> GatherStep {
        let msgs = inbox
            .iter()
            .filter_map(|e| gather(&e.msg).map(|m| (e.from, m)));
        if round == 1 {
            // Learn all neighbors; build own record, each list allocated
            // once at its final length.
            let (mut ports, mut same) = (0, 0);
            for (_, msg) in msgs.clone() {
                if let GatherMsg::Hello(l, ..) = msg {
                    ports += 1;
                    same += usize::from(*l == self.label);
                }
            }
            let mut intra = Vec::with_capacity(same);
            let mut border = Vec::with_capacity(ports - same);
            self.my_ports.clear();
            self.my_ports.reserve_exact(ports);
            for (from, msg) in msgs {
                if let GatherMsg::Hello(l, d, ident, pl) = msg {
                    self.my_ports.push((from, *ident, *l));
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
            // The bag `new` made is empty and unshared: it takes the record.
            let bag = Arc::make_mut(&mut self.bag);
            debug_assert!(bag.is_empty(), "round 1 comes first");
            bag.reserve_exact(1);
            bag.push(Arc::new(MemberRec {
                ident: self.ident,
                depth: self.depth,
                payload: self.payload.clone(),
                intra,
                border,
                memo: Memo::default(),
            }));
            return match (self.has_children, self.slot.forward()) {
                (true, _) => GatherStep::WakeAt(self.slot.collect()),
                // Leaf: go straight to our forwarding round.
                (false, Some(r)) => GatherStep::WakeAt(r),
                // Singleton root: nothing more to do.
                (false, None) => {
                    self.done = true;
                    GatherStep::Done
                }
            };
        }

        if round == self.slot.collect() && self.has_children {
            self.merge_bags(msgs, true);
            let Some(r) = self.slot.forward() else {
                // Root: bag complete; deliver downward next.
                self.done = true;
                return GatherStep::WakeAt(self.slot.rebroadcast());
            };
            return GatherStep::WakeAt(r);
        }

        if Some(round) == self.slot.forward() {
            return GatherStep::WakeAt(self.slot.receive().expect("a forwarder has a parent"));
        }

        if Some(round) == self.slot.receive() {
            self.merge_bags(msgs, false);
            self.done = true;
            if self.has_children {
                return GatherStep::WakeAt(self.slot.rebroadcast());
            }
            return GatherStep::Done;
        }

        if round == self.slot.rebroadcast() {
            return GatherStep::Done;
        }

        unreachable!("gather core woke at unscheduled round {round}");
    }

    fn merge_bags<'a>(&mut self, msgs: impl Iterator<Item = (NodeId, &'a GatherMsg<P>)>, up: bool)
    where
        P: 'a,
    {
        let recs = msgs.filter_map(|(_, msg)| match msg {
            GatherMsg::Bag { label, up: u, recs } if *label == self.label && *u == up => {
                Some(recs.iter())
            }
            _ => None,
        });
        // By the time a bag merges, the engine has dropped every copy of
        // this node's earlier bag, so this copies nothing.
        append_unseen(Arc::make_mut(&mut self.bag), recs.flatten(), |r| r.ident);
    }
}

persist! {
    /// Dynamic state: everything `recv_at` mutates.
    GatherCore<P: Codec> { has_children, bag, my_ports, done }
}

/// Standalone gather program: every participant outputs its
/// [`ClusterView`]; non-participants output `None` and never wake.
pub struct ClusterGather<P> {
    core: Option<GatherCore<P>>,
    /// Whether the participant has halted (its view is the output).
    finished: bool,
}

impl<P: Clone + std::fmt::Debug + Send + Sync> ClusterGather<P> {
    /// A participating node.
    pub fn participant(label: u64, depth: u32, ident: u64, payload: P, depth_bound: u32) -> Self {
        ClusterGather {
            core: Some(GatherCore::new(label, depth, ident, payload, depth_bound)),
            finished: false,
        }
    }

    /// A node outside the clustered subgraph (sleeps through the stage).
    pub fn bystander() -> Self {
        ClusterGather {
            core: None,
            finished: false,
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
            core.send_at(view.round, out, |m| m);
        }
    }

    fn receive(&mut self, view: &View<'_>, inbox: &[Envelope<GatherMsg<P>>]) -> Action {
        let core = self.core.as_mut().expect("bystanders never wake");
        match core.recv_at(view.round, inbox, |m| Some(m)) {
            GatherStep::WakeAt(r) => Action::SleepUntil(r),
            GatherStep::Done => {
                self.finished = true;
                Action::Halt
            }
        }
    }

    fn output(&self) -> Option<Self::Output> {
        match &self.core {
            None => Some(None),
            Some(core) if self.finished => Some(core.view()),
            Some(_) => None,
        }
    }
}

/// Dynamic state: the core's gather progress plus the completion flag (the
/// output view is built from the core, never serialized twice).
/// Participation itself is a construction input: a crash-restart or resume
/// rebuilds the same participant/bystander split from the scenario.
impl<P: Clone + std::fmt::Debug + Send + Sync + Codec> Persist for ClusterGather<P> {
    fn save(&self, w: &mut Writer) {
        match &self.core {
            None => false.encode(w),
            Some(core) => {
                true.encode(w);
                core.save(w);
                self.finished.encode(w);
            }
        }
    }
    fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), CheckpointError> {
        let participating: bool = r.get()?;
        match (&mut self.core, participating) {
            (None, false) => Ok(()),
            (Some(core), true) => {
                core.restore(r)?;
                self.finished = r.get()?;
                Ok(())
            }
            _ => Err(CheckpointError::Corrupt("gather participation mismatch")),
        }
    }
}

/// Encodes the record's fields; the memo is never encoded.
impl<P: Codec> Codec for MemberRec<P> {
    fn encode(&self, w: &mut Writer) {
        w.put(&self.ident);
        w.put(&self.depth);
        w.put(&self.payload);
        w.put(&self.intra);
        w.put(&self.border);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(MemberRec {
            ident: r.get()?,
            depth: r.get()?,
            payload: r.get()?,
            intra: r.get()?,
            border: r.get()?,
            memo: Memo::default(),
        })
    }
}

codec!(struct ClusterView<P: Codec> { label, my_ident, my_depth, members, my_ports });

codec!(enum GatherMsg<P: Codec> {
    0 => Hello(label, depth, ident, payload),
    1 => Bag { label, up, recs },
});
