//! The node-program abstraction.

use crate::Round;
use awake_graphs::NodeId;

/// What a node sees when it is awake at a round.
///
/// Faithful to the LOCAL model with port numbering: a node knows `n`, its
/// own identifier, the current round, and has addressable *ports* to its
/// neighbors (represented by the neighbors' [`NodeId`]s, which algorithm
/// implementations must treat as opaque addresses — neighbor *identifiers*
/// must be learned through messages).
#[derive(Debug, Clone, Copy)]
pub struct View<'a> {
    /// Current round (1-based).
    pub round: Round,
    /// This node's position (engine address).
    pub me: NodeId,
    /// This node's unique identifier (≥ 1).
    pub ident: u64,
    /// Number of nodes in the graph (known to all nodes, per the model).
    pub n: usize,
    /// Ports to neighbors. Opaque addresses for [`Outbox::to`].
    pub neighbors: &'a [NodeId],
}

impl View<'_> {
    /// Degree of this node.
    #[inline]
    pub fn degree(&self) -> usize {
        self.neighbors.len()
    }
}

/// One queued outbox entry: `to == None` means broadcast.
#[derive(Debug, Clone)]
pub(crate) struct OutEntry<M> {
    pub(crate) to: Option<NodeId>,
    pub(crate) msg: M,
}

/// The engine-owned, reusable send buffer handed to [`Program::send`].
///
/// The executor clears and re-passes one `Outbox` for every awake
/// node-round, so steady-state sending performs **zero heap allocations**:
/// the buffer's capacity is retained across nodes and rounds. Programs
/// queue messages with [`to`](Outbox::to) and
/// [`broadcast`](Outbox::broadcast).
#[derive(Debug)]
pub struct Outbox<M> {
    pub(crate) items: Vec<OutEntry<M>>,
}

impl<M> Outbox<M> {
    /// An empty outbox (executors construct and reuse these).
    pub(crate) fn new() -> Self {
        Outbox { items: Vec::new() }
    }

    /// Wrap an existing backing buffer (worker pools recycle buffers).
    pub(crate) fn from_vec(items: Vec<OutEntry<M>>) -> Self {
        Outbox { items }
    }

    /// Recover the backing buffer.
    pub(crate) fn into_vec(self) -> Vec<OutEntry<M>> {
        self.items
    }

    /// Queue a message to one neighbor (must be a port in
    /// [`View::neighbors`], or the engine aborts with
    /// [`SimError::NotANeighbor`](crate::SimError::NotANeighbor)).
    #[inline]
    pub fn to(&mut self, port: NodeId, msg: M) {
        self.items.push(OutEntry {
            to: Some(port),
            msg,
        });
    }

    /// Queue a message to every neighbor.
    #[inline]
    pub fn broadcast(&mut self, msg: M) {
        self.items.push(OutEntry { to: None, msg });
    }

    /// Number of queued entries (broadcasts count once).
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Is the outbox empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    #[inline]
    pub(crate) fn clear(&mut self) {
        self.items.clear();
    }
}

/// A message received from an awake neighbor this round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<M> {
    /// The sending neighbor's port.
    pub from: NodeId,
    /// The payload.
    pub msg: M,
}

/// What a node does at the end of an awake round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Remain awake at the next round.
    Stay,
    /// Sleep; wake up again at the given (strictly later) round.
    SleepUntil(Round),
    /// Terminate. [`Program::output`] must return `Some` afterwards.
    Halt,
}

impl Action {
    /// Convenience matching the paper's phrasing: a node asleep for `t`
    /// rounds at the end of round `now` wakes up at round `now + t + 1`.
    /// `sleep_for(now, 0)` is equivalent to [`Action::Stay`].
    pub fn sleep_for(now: Round, t: u64) -> Action {
        if t == 0 {
            Action::Stay
        } else {
            Action::SleepUntil(now + t + 1)
        }
    }
}

/// A per-node program for the Sleeping LOCAL model.
///
/// At every round where the node is awake the engine first calls
/// [`send`](Program::send) (messages transmitted this round), then
/// [`receive`](Program::receive) with the messages sent this round by awake
/// neighbors. This mirrors the model: transmission and reception happen
/// within the same synchronous round, based on state from the previous
/// round.
///
/// Programs must be deterministic functions of `(state, view, inbox)` —
/// the serial and threaded executors are required to agree bit-for-bit.
pub trait Program {
    /// Message type (arbitrary size, per the model).
    type Msg: Clone + std::fmt::Debug + Send + Sync;
    /// The node's final output.
    type Output: Clone + std::fmt::Debug + Send + Sync;

    /// Queue the messages to transmit at the current round into the
    /// engine-owned [`Outbox`] (cleared before every call, reused across
    /// node-rounds — sending is allocation-free in steady state).
    fn send(&mut self, view: &View<'_>, out: &mut Outbox<Self::Msg>);

    /// Process this round's inbox and choose what to do next.
    ///
    /// Envelopes arrive sorted by sending port, ascending.
    fn receive(&mut self, view: &View<'_>, inbox: &[Envelope<Self::Msg>]) -> Action;

    /// The final output; must be `Some` once the program halts.
    fn output(&self) -> Option<Self::Output>;

    /// First round at which this node is awake.
    ///
    /// The default, `Some(FIRST_ROUND)`, is the Sleeping model's rule that
    /// every node starts awake. The other values exist for *composing*
    /// algorithms per Lemma 8 of the paper: when a long algorithm is
    /// executed as a sequence of engine runs, a node that scheduled its
    /// next wake-up for a round inside a later stage starts that stage
    /// asleep (`Some(r)` with `r > 1`), and a node that already terminated
    /// sleeps through the whole stage (`None`: the node is never awake and
    /// halts immediately with its [`output`](Program::output)).
    fn initial_wake(&self) -> Option<crate::Round> {
        Some(crate::FIRST_ROUND)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sleep_for_zero_is_stay() {
        assert_eq!(Action::sleep_for(10, 0), Action::Stay);
    }

    #[test]
    fn sleep_for_positive() {
        // sleeping for t rounds starting after round r means waking at r+t+1,
        // matching the paper's "asleep for t rounds, wakes at round r+t+1".
        assert_eq!(Action::sleep_for(10, 3), Action::SleepUntil(14));
    }

    #[test]
    fn outbox_accumulates_and_clears_without_reallocating() {
        let mut ob: Outbox<u32> = Outbox::new();
        ob.to(NodeId(1), 10);
        ob.broadcast(20);
        assert_eq!(ob.len(), 2);
        let cap = ob.items.capacity();
        ob.clear();
        assert!(ob.is_empty());
        assert_eq!(ob.items.capacity(), cap, "clear retains capacity");
    }
}
