//! Per-round inbox storage: pooled per-recipient segments, no sorting.
//!
//! Messages are delivered straight into their recipient's segment as they
//! are transmitted — **one** write per message. Segments are pooled `Vec`s
//! that are cleared (capacity retained) per round, so the steady state
//! allocates nothing; and because awake nodes transmit in ascending order,
//! each segment is born sorted by sender — the seed engine's per-round
//! `sort_by_key` is replaced by a debug assertion.
//!
//! A flat single-`Vec` arena with per-node offset ranges built by a stable
//! counting sort was implemented and benchmarked first; it loses to the
//! segment pool by ~2.5× per message at experiment scale (n = 4096,
//! Δ = 16) because grouping-by-recipient touches each message ~3 extra
//! times (stage, permute, place) with cache-hostile access patterns, while
//! direct segment delivery touches it once.
//!
//! Two views of the same idea live here:
//!
//! * [`InboxArena`] — the in-place round body's node-indexed segment pool over
//!   all `n` recipients.
//! * [`ChunkInboxes`] — a *per-chunk* segment view indexed by position
//!   within one chunk of the awake set. Each chunk of the worker pool
//!   owns one, and the chunk's executor builds its inboxes by draining
//!   the incoming owner shards in source-chunk order (chunks are
//!   contiguous in node order and senders within a chunk ascend, so the
//!   concatenation is a full sort by sender — same born-sorted invariant,
//!   no coordinator copies).

use crate::program::Envelope;
use awake_graphs::NodeId;

/// Round-scratch inbox storage for the in-place round body.
#[derive(Debug)]
pub(crate) struct InboxArena<M> {
    /// Per-recipient segments; only awake nodes' segments are touched.
    lists: Vec<Vec<Envelope<M>>>,
}

impl<M> InboxArena<M> {
    pub(crate) fn new(n: usize) -> Self {
        InboxArena {
            lists: (0..n).map(|_| Vec::new()).collect(),
        }
    }

    /// Deliver one message. Callers guarantee `to` is awake this round and
    /// that calls arrive in ascending sender order.
    #[inline]
    pub(crate) fn stage(&mut self, from: NodeId, to: NodeId, msg: M) {
        self.lists[to.index()].push(Envelope { from, msg });
    }

    /// The inbox of awake node `v`, sorted by sender.
    ///
    /// Sortedness is free: the transmission loop runs over the ascending
    /// awake set, so envelopes arrive in sender order (debug-asserted here
    /// — a comparison sort would be redundant work).
    #[inline]
    pub(crate) fn inbox(&self, v: u32) -> &[Envelope<M>] {
        let slice = &self.lists[v as usize];
        debug_assert!(
            slice.windows(2).all(|w| w[0].from <= w[1].from),
            "inbox of {v} must arrive sorted by sender"
        );
        slice
    }

    /// Restore node `v`'s sorted-by-sender invariant after an
    /// out-of-order delivery (a fault-delayed message arriving after the
    /// regular ascending-sender transmission pass). Stable, so envelopes
    /// from the same sender keep their staging order — both round bodies
    /// stage in the same order and therefore end with
    /// identical inboxes.
    #[inline]
    pub(crate) fn resort_inbox(&mut self, v: u32) {
        self.lists[v as usize].sort_by_key(|e| e.from);
    }

    /// Clear node `v`'s inbox (capacity retained).
    ///
    /// Segments are *self-clearing*: rather than a separate
    /// cold-cache pass over the awake set at round start, the in-place
    /// round body clears each inbox right after its `receive` (while the
    /// segment header is hot) — so every round starts with all segments
    /// empty by construction.
    #[inline]
    pub(crate) fn clear_inbox(&mut self, v: u32) {
        self.lists[v as usize].clear();
    }
}

/// A worker-owned segment pool over one chunk of the awake set, indexed by
/// the recipient's *position within the chunk* (dense, not node-indexed:
/// a worker never pays memory for nodes it doesn't own this round).
///
/// The threaded executor's receive phase drains each incoming owner shard
/// — one per source chunk, visited in chunk index order — through
/// [`push`](Self::push), then hands [`inbox`](Self::inbox) straight to
/// `Program::receive` and [`clear`](Self::clear)s the segment while its
/// header is hot, exactly like the serial engine's arena discipline.
/// Capacity is retained across rounds and chunk shapes, so the steady
/// state allocates nothing.
#[derive(Debug)]
pub(crate) struct ChunkInboxes<M> {
    segs: Vec<Vec<Envelope<M>>>,
}

impl<M> ChunkInboxes<M> {
    pub(crate) fn new() -> Self {
        ChunkInboxes { segs: Vec::new() }
    }

    /// Make at least `len` segments addressable (pool only ever grows).
    pub(crate) fn ensure(&mut self, len: usize) {
        if self.segs.len() < len {
            self.segs.resize_with(len, Vec::new);
        }
    }

    /// Deliver one envelope to the recipient at chunk position `local`.
    /// Callers guarantee envelopes for a fixed recipient arrive in
    /// ascending sender order (source chunks visited in chunk order).
    #[inline]
    pub(crate) fn push(&mut self, local: u32, env: Envelope<M>) {
        self.segs[local as usize].push(env);
    }

    /// The inbox of the recipient at chunk position `local`, sorted by
    /// sender (asserted in debug builds, same invariant as [`InboxArena`]).
    #[inline]
    pub(crate) fn inbox(&self, local: usize) -> &[Envelope<M>] {
        let slice = &self.segs[local];
        debug_assert!(
            slice.windows(2).all(|w| w[0].from <= w[1].from),
            "chunk inbox {local} must arrive sorted by sender"
        );
        slice
    }

    /// Drain a shard of `(chunk position, envelope)` deliveries into the
    /// pool — the worker pool's receive step pulls incoming
    /// shards through this, one source chunk at a time in chunk index
    /// order, which preserves the born-sorted invariant checked by
    /// [`inbox`](Self::inbox). Callers [`ensure`](Self::ensure) capacity
    /// for the chunk first.
    #[inline]
    pub(crate) fn extend_from(&mut self, entries: impl Iterator<Item = (u32, Envelope<M>)>) {
        for (local, env) in entries {
            self.segs[local as usize].push(env);
        }
    }

    /// Restore the sorted-by-sender invariant of the segment at chunk
    /// position `local` after late (fault-delayed) deliveries — the stable
    /// counterpart of [`InboxArena::resort_inbox`].
    #[inline]
    pub(crate) fn resort(&mut self, local: usize) {
        self.segs[local].sort_by_key(|e| e.from);
    }

    /// Clear the segment at chunk position `local` (capacity retained).
    #[inline]
    pub(crate) fn clear(&mut self, local: usize) {
        self.segs[local].clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_by_recipient_preserving_sender_order() {
        let mut a: InboxArena<&'static str> = InboxArena::new(4);
        // ascending senders: 0 then 1 then 3; interleaved recipients
        a.stage(NodeId(0), NodeId(1), "0->1");
        a.stage(NodeId(0), NodeId(3), "0->3");
        a.stage(NodeId(1), NodeId(0), "1->0");
        a.stage(NodeId(1), NodeId(3), "1->3a");
        a.stage(NodeId(1), NodeId(3), "1->3b");
        a.stage(NodeId(3), NodeId(0), "3->0");
        let msgs = |a: &InboxArena<&'static str>, v: u32| {
            a.inbox(v).iter().map(|e| e.msg).collect::<Vec<_>>()
        };
        assert_eq!(msgs(&a, 0), ["1->0", "3->0"]);
        assert_eq!(msgs(&a, 1), ["0->1"]);
        assert_eq!(msgs(&a, 3), ["0->3", "1->3a", "1->3b"]);
    }

    #[test]
    fn rounds_reuse_segments_via_self_clearing() {
        let mut a: InboxArena<u64> = InboxArena::new(3);
        a.stage(NodeId(0), NodeId(1), 7);
        assert_eq!(a.inbox(1).len(), 1);
        assert!(a.inbox(0).is_empty());
        // the executor clears an inbox after its receive call
        a.clear_inbox(1);
        a.stage(NodeId(1), NodeId(2), 8);
        assert!(a.inbox(1).is_empty());
        assert_eq!(
            a.inbox(2),
            &[Envelope {
                from: NodeId(1),
                msg: 8
            }]
        );
    }

    #[test]
    fn chunk_inboxes_concatenate_source_runs_in_order() {
        let mut c: ChunkInboxes<u64> = ChunkInboxes::new();
        c.ensure(2);
        // source chunk 0 (senders 0, 1), then source chunk 1 (sender 5):
        // concatenation per recipient stays sorted by sender.
        c.push(
            0,
            Envelope {
                from: NodeId(0),
                msg: 10,
            },
        );
        c.push(
            1,
            Envelope {
                from: NodeId(1),
                msg: 11,
            },
        );
        c.push(
            0,
            Envelope {
                from: NodeId(1),
                msg: 12,
            },
        );
        c.push(
            0,
            Envelope {
                from: NodeId(5),
                msg: 50,
            },
        );
        assert_eq!(
            c.inbox(0)
                .iter()
                .map(|e| (e.from.0, e.msg))
                .collect::<Vec<_>>(),
            vec![(0, 10), (1, 12), (5, 50)]
        );
        assert_eq!(c.inbox(1).len(), 1);
        c.clear(0);
        assert!(c.inbox(0).is_empty(), "cleared, capacity retained");
        // growing the pool keeps existing segments intact
        c.ensure(5);
        assert_eq!(c.inbox(1).len(), 1);
    }
}
