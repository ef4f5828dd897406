//! A deterministic simulator for the **Sleeping LOCAL model** of
//! distributed computing, with exact awake-complexity accounting.
//!
//! # The model
//!
//! The Sleeping model (Chatterjee–Gmyr–Pandurangan, PODC 2020) extends the
//! classical LOCAL model: `n` fault-free nodes connected as a graph compute
//! in synchronous lock-step rounds. At each round every node is either
//! **awake** or **asleep**:
//!
//! * an awake node sends a message (of arbitrary size) to any subset of its
//!   neighbors, receives the messages sent *this round* by awake neighbors,
//!   and performs unbounded local computation;
//! * an asleep node does nothing, and **messages sent to it are lost**;
//! * a node chooses, as a function of its local state, how long to sleep;
//! * all nodes are awake at round 1 and know `n`.
//!
//! The **awake complexity** of an algorithm is the maximum over nodes of the
//! number of rounds the node is awake; the **round complexity** is the
//! total number of rounds until the last node terminates.
//!
//! # The simulator
//!
//! [`Engine`] executes a [`Program`] per node. It is a *skip-ahead*
//! simulator: the scheduler jumps directly to the next round in which any
//! node is awake, so simulating an algorithm whose round complexity is
//! `Θ(n²·2^{√log n})` costs wall-clock time proportional only to the total
//! *awake* work — precisely the resource the Sleeping model measures. This
//! matters: the paper's algorithms sleep through the overwhelming majority
//! of rounds.
//!
//! ```
//! use awake_graphs::generators;
//! use awake_sleeping::{Action, Config, Engine, Envelope, Outbox, Program, View};
//!
//! /// Every node broadcasts its identifier once, then sleeps until round 6,
//! /// then halts with the number of identifiers heard.
//! struct Hello { heard: Vec<u64> }
//!
//! impl Program for Hello {
//!     type Msg = u64;
//!     type Output = usize;
//!     fn send(&mut self, view: &View, out: &mut Outbox<u64>) {
//!         if view.round == 1 { out.broadcast(view.ident); }
//!     }
//!     fn receive(&mut self, view: &View, inbox: &[Envelope<u64>]) -> Action {
//!         self.heard.extend(inbox.iter().map(|e| e.msg));
//!         if view.round == 1 { Action::SleepUntil(6) } else { Action::Halt }
//!     }
//!     fn output(&self) -> Option<usize> { Some(self.heard.len()) }
//! }
//!
//! let g = generators::cycle(5);
//! let run = Engine::new(&g, Config::default())
//!     .run((0..5).map(|_| Hello { heard: vec![] }).collect())
//!     .unwrap();
//! assert!(run.outputs.iter().all(|&h| h == 2)); // heard both neighbors
//! assert_eq!(run.metrics.max_awake(), 2);       // round 1 + round 6
//! assert_eq!(run.metrics.rounds, 6);
//! ```
//!
//! # The hot path: sending via [`Outbox`]
//!
//! [`Program::send`] does not return a `Vec` of messages; it writes into an
//! **engine-owned, reusable** [`Outbox`]. The executor clears the buffer
//! (retaining capacity) between node-rounds, so a steady-state round
//! performs **zero heap allocations** no matter how many nodes broadcast:
//!
//! * [`Outbox::to`] queues a message to one port,
//! * [`Outbox::broadcast`] queues a message to every neighbor,
//! * [`Outbox::push`]/[`Extend`] accept the legacy [`Outgoing`] value form,
//!   for helper layers that build message lists independently of a buffer.
//!
//! Inboxes are pooled per-recipient segments: each delivered message is one
//! write into its recipient's reusable buffer, and because awake nodes
//! transmit in ascending order, envelopes arrive already sorted by sending
//! port — no per-round sort (see the `arena` module source for the design
//! notes and the benchmarked flat counting-sort alternative it replaced).
//!
//! # The scheduler: bucketed wake-ups + a `Stay` fast lane
//!
//! Wake times live in a hierarchical bucket (calendar) queue over the full
//! `u64` round space — amortized O(1) per event with bitmap probes to find
//! the next non-empty bucket, rather than a binary heap's `O(log n)` per
//! node-round. The dominant action, [`Action::Stay`], never touches the
//! queue at all: nodes staying awake ride a pre-sorted *stay lane* straight
//! into the next round's awake set.
//!
//! One driver runs every simulation on these mechanics, with two round
//! bodies: a round runs *in place* on the calling thread (every round of a
//! one-worker run, and the light rounds of a pool run), or is *dispatched*
//! over a persistent worker pool as degree-weighted contiguous chunks of
//! the awake set, one per executor, in a send step and a receive step
//! between barriers, with message routing and inbox construction running
//! *inside* the workers through owner-sharded delivery buffers (see the
//! [`threaded`] module docs). Both bodies call one set of
//! per-node send, receive and apply functions, so a run agrees **bit for
//! bit**, outputs and [`Metrics`] alike, at every worker count.
//!
//! # One run path: [`RunSpec`]
//!
//! [`Engine::run`] is the fault-free one-worker run. Everything else goes
//! through [`Engine::run_spec`] and one [`RunSpec`]: a worker count
//! ([`RunSpec::workers`]; 1, the default, runs every round in place and
//! `w > 1` adds the pool), a seeded [`FaultPlan`], a [`Checkpoint`]
//! (periodic snapshots or a pause bound) and a [`Snapshot`] to resume
//! from. Any combination is bit-for-bit identical to the same run on one
//! worker.
//!
//! ```
//! use awake_graphs::generators;
//! use awake_sleeping::{Config, Engine, Paused, RunSpec};
//! # use awake_sleeping::{Action, CheckpointError, Envelope, Outbox, Persist, Program, Reader, View, Writer};
//! # #[derive(Clone)]
//! # struct Hello;
//! # impl Program for Hello {
//! #     type Msg = u64;
//! #     type Output = u64;
//! #     fn send(&mut self, view: &View, out: &mut Outbox<u64>) { out.broadcast(view.ident); }
//! #     fn receive(&mut self, view: &View, _: &[Envelope<u64>]) -> Action {
//! #         if view.round < 4 { Action::Stay } else { Action::Halt }
//! #     }
//! #     fn output(&self) -> Option<u64> { Some(1) }
//! # }
//! # impl Persist for Hello {
//! #     fn save(&self, _: &mut Writer) {}
//! #     fn restore(&mut self, _: &mut Reader<'_>) -> Result<(), CheckpointError> { Ok(()) }
//! # }
//! let g = generators::cycle(5);
//! let engine = Engine::new(&g, Config::default());
//! let pause = RunSpec::default().pause_after(2);
//! let Paused::Snapshot(snap) = engine.run_spec(vec![Hello; 5], &pause).unwrap() else {
//!     unreachable!("the run is longer than two rounds")
//! };
//! // Resume on a two-worker pool: the same run as the uninterrupted one.
//! let resume = RunSpec::on(2).resume_from(&snap);
//! let run = engine.run_spec(vec![Hello; 5], &resume).unwrap().finished();
//! assert_eq!(run.metrics, engine.run(vec![Hello; 5]).unwrap().metrics);
//! ```
//!
//! # Checkpointing and fault injection
//!
//! A run can pause at any round boundary into a versioned binary
//! [`Snapshot`] and resume it later — at any worker count — to a run
//! bit-for-bit identical to the uninterrupted one;
//! per-node program state travels through the [`Persist`] trait. A seeded
//! [`FaultPlan`] deterministically drops, duplicates, and delays messages
//! and crash-restarts nodes from their start-of-round state, with
//! per-fault counters in [`Metrics`]. See the [`checkpoint`] and [`faults`]
//! module docs for the formats and contracts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
pub mod checkpoint;
mod engine;
pub mod faults;
mod metrics;
mod program;
pub mod redundant;
pub mod threaded;
mod trace;
mod wheel;

pub use checkpoint::{
    CheckpointError, Codec, Paused, Persist, Reader, ResumeError, Snapshot, Writer,
};
pub use engine::{Checkpoint, Config, Engine, Run, RunSpec, SimError};
pub use faults::{redundancy_for, FaultKind, FaultPlan, MAX_REDUNDANCY};
pub use metrics::{percentile, percentile_of_sorted, Counters, Metrics, PhaseTimes};
pub use program::{Action, Envelope, Outbox, Outgoing, Program, View};
pub use redundant::{Redundant, RedundantMsg};
pub use trace::{TraceEvent, TraceMode};

/// Round numbers are 1-based; all nodes are awake at [`FIRST_ROUND`].
pub type Round = u64;

/// The first round of every execution.
pub const FIRST_ROUND: Round = 1;
