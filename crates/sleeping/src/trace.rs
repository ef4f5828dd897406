//! Optional execution tracing for debugging and tests.

use crate::Round;
use awake_graphs::NodeId;

/// How much tracing to record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceMode {
    /// Record nothing (default).
    #[default]
    Off,
    /// Record up to this many events, then stop recording.
    Capped(usize),
}

/// One recorded simulator event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// Node was awake at a round.
    Awake {
        /// Round number.
        round: Round,
        /// The node.
        node: NodeId,
    },
    /// A message was delivered.
    Delivered {
        /// Round number.
        round: Round,
        /// Sender.
        from: NodeId,
        /// Recipient.
        to: NodeId,
    },
    /// A message was lost (recipient asleep or halted).
    Lost {
        /// Round number.
        round: Round,
        /// Sender.
        from: NodeId,
        /// Intended recipient.
        to: NodeId,
    },
    /// Node went to sleep until the given round.
    Sleep {
        /// Round at which the decision was made.
        round: Round,
        /// The node.
        node: NodeId,
        /// Wake-up round.
        until: Round,
    },
    /// Node halted.
    Halt {
        /// Round number.
        round: Round,
        /// The node.
        node: NodeId,
    },
    /// A message was dropped in flight by an injected fault (distinct from
    /// [`Lost`](TraceEvent::Lost), the model's asleep-recipient loss).
    FaultDrop {
        /// Round number.
        round: Round,
        /// Sender.
        from: NodeId,
        /// Intended recipient.
        to: NodeId,
    },
    /// A message was delayed in flight by an injected fault; its delivery
    /// will be attempted at `until`.
    FaultDelay {
        /// Round the message was sent.
        round: Round,
        /// Sender.
        from: NodeId,
        /// Intended recipient.
        to: NodeId,
        /// Round at which delivery is attempted.
        until: Round,
    },
    /// A node crash-restarted: its state changes of this round were lost
    /// and it resumes from its start-of-round state at the next round.
    Crash {
        /// Round number.
        round: Round,
        /// The node.
        node: NodeId,
    },
}

#[derive(Debug, Default)]
pub(crate) struct Tracer {
    mode: TraceMode,
    pub(crate) events: Vec<TraceEvent>,
    /// Events discarded past a [`TraceMode::Capped`] cap — surfaced on
    /// [`Run::trace_dropped`](crate::Run::trace_dropped) so a truncated
    /// trace cannot be mistaken for a complete one.
    pub(crate) dropped: u64,
}

impl Tracer {
    pub(crate) fn new(mode: TraceMode) -> Self {
        Tracer {
            mode,
            events: Vec::new(),
            dropped: 0,
        }
    }

    /// Whether events should be recorded at all (the worker pool's chunks
    /// stage events only when this is true).
    #[inline]
    pub(crate) fn enabled(&self) -> bool {
        self.mode != TraceMode::Off
    }

    #[inline]
    pub(crate) fn push(&mut self, ev: impl FnOnce() -> TraceEvent) {
        match self.mode {
            TraceMode::Off => {}
            TraceMode::Capped(cap) => {
                if self.events.len() < cap {
                    self.events.push(ev());
                } else {
                    self.dropped += 1;
                }
            }
        }
    }

    /// Merge events staged elsewhere (the threaded executor's per-chunk
    /// staged buffers, absorbed in chunk index order), applying the same
    /// cap/drop accounting as [`push`](Self::push).
    pub(crate) fn absorb(&mut self, staged: &mut Vec<TraceEvent>) {
        for ev in staged.drain(..) {
            self.push(|| ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capped_tracer_stops_and_counts_drops() {
        let mut t = Tracer::new(TraceMode::Capped(2));
        for i in 0..5 {
            t.push(|| TraceEvent::Awake {
                round: i,
                node: NodeId(0),
            });
        }
        assert_eq!(t.events.len(), 2);
        assert_eq!(t.dropped, 3);
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::new(TraceMode::Off);
        t.push(|| TraceEvent::Halt {
            round: 1,
            node: NodeId(0),
        });
        assert!(t.events.is_empty());
        assert_eq!(t.dropped, 0);
        assert!(!t.enabled());
    }

    #[test]
    fn absorb_applies_the_same_cap() {
        let mut t = Tracer::new(TraceMode::Capped(3));
        let mut staged: Vec<TraceEvent> = (0..5)
            .map(|i| TraceEvent::Awake {
                round: i,
                node: NodeId(0),
            })
            .collect();
        t.absorb(&mut staged);
        assert!(staged.is_empty(), "staged buffer is drained");
        assert_eq!(t.events.len(), 3);
        assert_eq!(t.dropped, 2);
    }
}
