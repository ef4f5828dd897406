//! The round kernel: one driver, two round bodies, one set of per-node
//! functions.
//!
//! Every run — [`Engine::run`], [`Engine::run_spec`] at any worker count,
//! and [`crate::threaded::run_threaded_timed`] — goes through one driver,
//! `Exec`. It pops each round's awake set, checks the round budget,
//! accounts skipped rounds and consults checkpoint control, once per round
//! in one loop, and then runs the round in one of two bodies:
//!
//! * **one chunk, in place** — programs stay in their slots and messages
//!   go straight into the [`InboxArena`]. Every round of a one-worker run
//!   takes this body, as does every round of a pool run whose degree mass
//!   is too small to be worth dispatching;
//! * **dispatched** — the awake set is split into chunks that the worker
//!   pool executes (see [`crate::threaded`]).
//!
//! Both bodies call the same per-node functions: `send_node` (the awake
//! event, the crash save, `send`, routing and the fate roll),
//! `receive_node` (the crash restore, or `receive` and its checks) and
//! `Boundary::apply` (the stay lane, wheel scheduling, halt outputs, wake
//! stamps and recovery accounting, in node order). The Sleeping model's
//! round is therefore written once.
//!
//! # Hot-path design
//!
//! The per-node-round loop is allocation-free in steady state:
//!
//! * **Sending** — programs write into one engine-owned [`Outbox`] that is
//!   cleared (capacity retained) between nodes; no `Vec` is returned per
//!   `send` call.
//! * **Scheduling** — wake-ups live in a hierarchical bucket queue
//!   ([`crate::wheel`]) instead of a binary heap, and [`Action::Stay`] — the
//!   dominant action in dense phases — bypasses the queue entirely via a
//!   *stay lane*: nodes that remain awake are carried to the next round in
//!   an already-sorted `Vec`.
//! * **Inboxes** — messages are delivered straight into pooled
//!   per-recipient segments (one write per message, capacity reused across
//!   rounds). Because awake nodes transmit in ascending order, each inbox
//!   is born sorted by sender — no per-round comparison sort (asserted in
//!   debug builds; see [`crate::arena`] for the design notes and the
//!   benchmarked alternative).

use crate::arena::InboxArena;
use crate::checkpoint::{
    decode_snapshot, encode_snapshot, CheckpointError, Codec, Controller, CrashIo, Paused, Persist,
    Reader, ResumeError, Snapshot, Writer,
};
use crate::faults::{DelayedMsg, FaultKind, FaultPlan, FaultState};
use crate::metrics::{Counters, Metrics, PhaseTimes};
use crate::program::{Action, Envelope, OutEntry, Outbox, Program, View};
use crate::threaded::{with_pool, Dispatcher};
use crate::trace::{TraceEvent, TraceMode, Tracer};
use crate::wheel::WakeWheel;
use crate::Round;
use awake_graphs::{Graph, NodeId};
use std::fmt;
use std::num::NonZeroU64;
use std::time::Instant;

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Abort if the next scheduled round exceeds this bound.
    pub max_rounds: Round,
    /// Tracing mode.
    pub trace: TraceMode,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            // Generous but finite: the paper's round complexities are
            // polynomial; anything beyond this is a runaway schedule bug.
            max_rounds: u64::MAX / 4,
            trace: TraceMode::Off,
        }
    }
}

impl Config {
    /// Config with a specific round budget.
    pub fn with_max_rounds(max_rounds: Round) -> Self {
        Config {
            max_rounds,
            ..Config::default()
        }
    }
}

/// Simulation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A program slept to a round not strictly in the future.
    InvalidSleep {
        /// The offending node.
        node: NodeId,
        /// Current round.
        round: Round,
        /// Requested wake round.
        until: Round,
    },
    /// A program halted but returned no output.
    MissingOutput(
        /// The offending node.
        NodeId,
    ),
    /// A program addressed a message to a non-neighbor.
    NotANeighbor {
        /// Sender.
        from: NodeId,
        /// Intended recipient.
        to: NodeId,
    },
    /// The schedule exceeded [`Config::max_rounds`].
    RoundBudgetExceeded {
        /// The configured budget.
        limit: Round,
    },
    /// The number of programs didn't match the number of nodes.
    ProgramCountMismatch {
        /// Programs supplied.
        got: usize,
        /// Nodes in the graph.
        expected: usize,
    },
    /// A program's [`Program::initial_wake`] was before [`crate::FIRST_ROUND`].
    InvalidInitialWake {
        /// The offending node.
        node: NodeId,
        /// The requested first awake round.
        round: Round,
    },
    /// A wake or delivery round scheduled at `round` lies past the last
    /// representable round: a stay at `u64::MAX`, or a fault delay whose
    /// due round overflows.
    RoundOverflow {
        /// The round the overflowing schedule was made in.
        round: Round,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidSleep { node, round, until } => write!(
                f,
                "node {node} at round {round} requested non-future wake round {until}"
            ),
            SimError::MissingOutput(v) => write!(f, "node {v} halted without an output"),
            SimError::NotANeighbor { from, to } => {
                write!(f, "node {from} sent a message to non-neighbor {to}")
            }
            SimError::RoundBudgetExceeded { limit } => {
                write!(f, "round budget {limit} exceeded")
            }
            SimError::ProgramCountMismatch { got, expected } => {
                write!(f, "got {got} programs for {expected} nodes")
            }
            SimError::InvalidInitialWake { node, round } => {
                write!(
                    f,
                    "node {node} requested initial wake round {round}, before round {}",
                    crate::FIRST_ROUND
                )
            }
            SimError::RoundOverflow { round } => {
                write!(f, "a round scheduled at round {round} overflows u64")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// A completed execution.
#[derive(Debug)]
pub struct Run<O> {
    /// Output of each node (indexed by [`NodeId`]).
    pub outputs: Vec<O>,
    /// Resource accounting.
    pub metrics: Metrics,
    /// Recorded events (empty unless tracing was enabled).
    pub trace: Vec<TraceEvent>,
    /// Events discarded past a [`TraceMode::Capped`] cap — non-zero means
    /// [`trace`](Run::trace) is a truncated prefix, not the full record.
    pub trace_dropped: u64,
}

/// `next_wake` sentinel for "halted / never wakes" (rounds are 1-based, so
/// 0 is free; a plain `Round` stamp is half the size of `Option<Round>`,
/// which matters because the delivery check reads it once per message).
pub(crate) const NEVER: Round = 0;

/// The round after `round`, or [`SimError::RoundOverflow`].
#[inline]
fn next_round(round: Round) -> Result<Round, SimError> {
    round
        .checked_add(1)
        .ok_or(SimError::RoundOverflow { round })
}

/// Pop the next round's awake set into `awake` (ascending), merging the
/// stay lane (nodes that chose [`Action::Stay`] at `prev_round`, already
/// sorted) with the wheel. Returns `None` when nothing is pending.
///
/// A non-empty stay lane wakes at `prev_round + 1`, which is the earliest
/// any pending event can be — so the wheel only participates when its
/// minimum is exactly that round, and the common dense case (everybody
/// `Stay`s) never touches the wheel at all.
fn next_awake_set(
    wheel: &mut WakeWheel,
    stay: &mut Vec<u32>,
    prev_round: Round,
    awake: &mut Vec<u32>,
    scratch: &mut Vec<u32>,
) -> Result<Option<Round>, SimError> {
    awake.clear();
    if stay.is_empty() {
        let Some(round) = wheel.pop_next(awake) else {
            return Ok(None);
        };
        awake.sort_unstable();
        return Ok(Some(round));
    }
    let round = next_round(prev_round)?;
    if wheel.peek_min() == Some(round) {
        scratch.clear();
        let popped = wheel.pop_next(scratch);
        debug_assert_eq!(popped, Some(round));
        scratch.sort_unstable();
        // Merge two sorted, disjoint sets.
        let mut si = 0;
        let mut wi = 0;
        while si < stay.len() && wi < scratch.len() {
            if stay[si] < scratch[wi] {
                awake.push(stay[si]);
                si += 1;
            } else {
                awake.push(scratch[wi]);
                wi += 1;
            }
        }
        awake.extend_from_slice(&stay[si..]);
        awake.extend_from_slice(&scratch[wi..]);
        stay.clear();
        scratch.clear();
    } else {
        awake.append(stay); // fast lane: already sorted
    }
    Ok(Some(round))
}

/// The round the next [`next_awake_set`] would pop, without committing the
/// scheduler (a non-empty stay lane wakes at `prev_round + 1`, which is
/// the earliest any pending event can be).
fn peek_next(
    wheel: &mut WakeWheel,
    stay: &[u32],
    prev_round: Round,
) -> Result<Option<Round>, SimError> {
    if stay.is_empty() {
        Ok(wheel.peek_min())
    } else {
        next_round(prev_round).map(Some)
    }
}

/// The fault hooks the per-node functions need: the (immutable) seeded
/// plan plus the [`Persist`] entry points of the concrete program type as
/// function pointers (see [`CrashIo`]), so the round bodies carry no
/// `Persist` bound. Copied into each dispatched chunk.
pub(crate) struct FaultHooks<P: Program> {
    plan: FaultPlan,
    crash_io: CrashIo<P>,
}

impl<P: Program> Clone for FaultHooks<P> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<P: Program> Copy for FaultHooks<P> {}

/// The mutable fault-injection context of a run: the seeded state (plan,
/// delayed-message buffer, recovery flags) plus the crash-restart entry
/// points of the concrete program type.
pub(crate) struct FaultCtx<P: Program> {
    pub(crate) state: FaultState<P::Msg>,
    crash_io: CrashIo<P>,
}

impl<P: Program + Persist> FaultCtx<P> {
    pub(crate) fn of(state: FaultState<P::Msg>) -> Self {
        FaultCtx {
            state,
            crash_io: CrashIo::of(),
        }
    }
}

impl<P: Program> FaultCtx<P> {
    pub(crate) fn hooks(&self) -> FaultHooks<P> {
        FaultHooks {
            plan: self.state.plan,
            crash_io: self.crash_io,
        }
    }
}

/// The round boundary a run starts from and carries between rounds: the
/// scheduler, the outputs so far, the accounting and the fault state after
/// round `prev_round`. A fresh run starts from [`Boundary::start`] (round
/// 0); a resumed one from a decoded [`Snapshot`], whose config wins over
/// the resuming engine's so the run keeps the budget and trace mode it
/// started under.
pub(crate) struct Boundary<P: Program> {
    pub(crate) config: Config,
    pub(crate) prev_round: Round,
    /// `next_wake[v] = r`: v will be awake at round r; NEVER: halted.
    pub(crate) next_wake: Vec<Round>,
    pub(crate) stay: Vec<u32>,
    pub(crate) wheel: WakeWheel,
    pub(crate) outputs: Vec<Option<P::Output>>,
    pub(crate) metrics: Metrics,
    pub(crate) tracer: Tracer,
    pub(crate) faults: Option<FaultCtx<P>>,
}

impl<P: Program> Boundary<P> {
    /// Round 0: seed the scheduler from [`Program::initial_wake`]. A node
    /// that never wakes sleeps through the whole stage (Lemma 8
    /// composition) and must already have its output.
    pub(crate) fn start(
        graph: &Graph,
        config: Config,
        programs: &[P],
        mut faults: Option<FaultCtx<P>>,
    ) -> Result<Self, SimError> {
        let n = graph.n();
        if programs.len() != n {
            return Err(SimError::ProgramCountMismatch {
                got: programs.len(),
                expected: n,
            });
        }
        let mut outputs: Vec<Option<P::Output>> = (0..n).map(|_| None).collect();
        let mut next_wake: Vec<Round> = Vec::with_capacity(n);
        let mut wheel = WakeWheel::new();
        for (v, p) in programs.iter().enumerate() {
            match p.initial_wake() {
                // Round 0 would alias the NEVER sentinel and violate the
                // wheel's strictly-future invariant; reject it typed.
                Some(r) if r < crate::FIRST_ROUND => {
                    return Err(SimError::InvalidInitialWake {
                        node: NodeId(v as u32),
                        round: r,
                    })
                }
                Some(r) => {
                    next_wake.push(r);
                    wheel.schedule(r, v as u32);
                }
                None => {
                    next_wake.push(NEVER);
                    outputs[v] = Some(
                        p.output()
                            .ok_or(SimError::MissingOutput(NodeId(v as u32)))?,
                    );
                }
            }
        }
        if let Some(f) = faults.as_mut() {
            f.state.recovering.resize(n, false);
        }
        Ok(Boundary {
            config,
            prev_round: 0,
            next_wake,
            stay: Vec::new(),
            wheel,
            outputs,
            metrics: Metrics::new(n),
            tracer: Tracer::new(config.trace),
            faults,
        })
    }

    /// Apply node `v`'s outcome of `round`. Both round bodies call this in
    /// node order, so the stay lane stays sorted, sleeps enter the wheel
    /// and trace events enter the tracer in one order at any chunking.
    /// A crashed node restarts awake next round and starts recovering (the
    /// crashed round itself is not recovery energy); a recovering node's
    /// awake rounds are overhead until its first non-`Stay` outcome puts
    /// it back on its schedule. Returns whether `v` touched recovery
    /// accounting, so the round bumps `recovery_rounds` at most once.
    #[inline]
    pub(crate) fn apply<const FAULTY: bool>(
        &mut self,
        round: Round,
        v: u32,
        outcome: Outcome<P::Output>,
    ) -> Result<bool, SimError> {
        let node = NodeId(v);
        let mut recovery = false;
        if let Some(f) = self.faults.as_mut().filter(|_| FAULTY) {
            let recovering = &mut f.state.recovering[v as usize];
            if matches!(outcome, Outcome::Crashed) {
                self.tracer.push(|| TraceEvent::Crash { round, node });
                self.metrics.faults_crashed += 1;
                *recovering = true;
                recovery = true;
            } else if *recovering {
                self.metrics.recovery_awake += 1;
                *recovering = matches!(outcome, Outcome::Stay);
                recovery = true;
            }
        }
        match outcome {
            Outcome::Stay | Outcome::Crashed => {
                self.next_wake[v as usize] = next_round(round)?;
                self.stay.push(v); // fast lane: never touches the wheel
            }
            Outcome::Sleep(until) => {
                self.tracer
                    .push(|| TraceEvent::Sleep { round, node, until });
                self.next_wake[v as usize] = until;
                self.wheel.schedule(until, v);
            }
            Outcome::Halt(output) => {
                self.tracer.push(|| TraceEvent::Halt { round, node });
                self.next_wake[v as usize] = NEVER;
                self.outputs[v as usize] = Some(output);
            }
        }
        Ok(recovery)
    }

    /// Close a finished run: still-buffered delayed messages never found
    /// an executed due round with an awake recipient and are accounted
    /// lost, and every node must have halted with an output.
    fn finish(self) -> Result<Run<P::Output>, SimError> {
        let Boundary {
            outputs,
            mut metrics,
            mut tracer,
            faults,
            ..
        } = self;
        for d in faults.into_iter().flat_map(|f| f.state.delayed) {
            metrics.messages_lost += 1;
            tracer.push(|| TraceEvent::Lost {
                round: d.due,
                from: d.from,
                to: d.to,
            });
        }
        let outputs = outputs
            .into_iter()
            .enumerate()
            .map(|(v, o)| o.ok_or(SimError::MissingOutput(NodeId(v as u32))))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Run {
            outputs,
            metrics,
            trace: tracer.events,
            trace_dropped: tracer.dropped,
        })
    }
}

/// What one awake node's receive half decided, applied in node order by
/// [`Boundary::apply`].
pub(crate) enum Outcome<O> {
    Stay,
    Sleep(Round),
    Halt(O),
    /// The node crashed this round: its state was rolled back and it
    /// restarts awake next round.
    Crashed,
}

/// Where [`send_node`] records one sender's effects: the run's own
/// accounting on one-chunk rounds, a chunk's staging buffers (merged by
/// the coordinator in chunk order) on dispatched ones.
pub(crate) struct SendLog<'a, P: Program> {
    pub(crate) tally: &'a mut Counters,
    pub(crate) tracer: &'a mut Tracer,
    pub(crate) hooks: Option<&'a FaultHooks<P>>,
    /// Messages fated to arrive later, in transmission order.
    pub(crate) delayed: &'a mut Vec<DelayedMsg<P::Msg>>,
    /// `(node, start-of-round state)` of the nodes that crash this round,
    /// in node order.
    pub(crate) crashes: &'a mut Vec<(u32, Vec<u8>)>,
}

/// One awake node's send half of `round`: the awake event, the crash
/// save, `send`, and every transmission through [`route_entries`] and its
/// fate roll. A copy fated to arrive goes to `deliver(from, to, msg)` if
/// its recipient is awake at exactly this round — the arena on one-chunk
/// rounds, the recipient's owner shard on dispatched ones — and is
/// counted lost otherwise.
///
/// Monomorphized on fault presence: with `FAULTY = false` the crash save
/// and the fate roll are dead code. Under a plan every transmission rolls
/// its fate, keyed by `(seed, round, endpoints, k)` where `k` is the
/// sender's per-round transmission index, so fates do not depend on
/// chunking. Dropped messages vanish (counted as `faults_dropped`, not
/// `messages_lost`), duplicates deliver two copies (each then subject to
/// the awake-recipient rule), and delayed ones join `log.delayed`.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn send_node<P: Program, const FAULTY: bool>(
    graph: &Graph,
    round: Round,
    v: u32,
    p: &mut P,
    outbox: &mut Outbox<P::Msg>,
    next_wake: &[Round],
    log: SendLog<'_, P>,
    mut deliver: impl FnMut(NodeId, NodeId, P::Msg),
) -> Result<(), SimError> {
    let from = NodeId(v);
    let SendLog {
        tally,
        tracer,
        hooks,
        delayed,
        crashes,
    } = log;
    let hooks = hooks.filter(|_| FAULTY);
    tracer.push(|| TraceEvent::Awake { round, node: from });
    if let Some(h) = hooks.filter(|h| h.plan.crashes(round, v)) {
        // Save the start-of-round state *before* the node acts: a crashed
        // node loses this round's state changes but its sends still go
        // out (they left before the crash).
        let mut w = Writer::new();
        (h.crash_io.save)(p, &mut w);
        crashes.push((v, w.into_bytes()));
    }
    let view = View {
        round,
        me: from,
        ident: graph.ident(from),
        n: graph.n(),
        neighbors: graph.neighbors(from),
    };
    outbox.clear();
    p.send(&view, outbox);
    // One copy of a message arriving: a recipient is listening iff it is
    // awake at exactly this round; otherwise the copy is lost.
    let mut arrive = |c: &mut Counters, tracer: &mut Tracer, to: NodeId, msg| {
        if next_wake[to.index()] == round {
            c.messages_delivered += 1;
            tracer.push(|| TraceEvent::Delivered { round, from, to });
            deliver(from, to, msg);
        } else {
            c.messages_lost += 1;
            tracer.push(|| TraceEvent::Lost { round, from, to });
        }
    };
    let Some(plan) = hooks.map(|h| &h.plan) else {
        return route_entries(graph, outbox.items.drain(..), from, tally, |c, to, msg| {
            arrive(c, tracer, to, msg)
        });
    };
    let mut k = 0u32;
    let mut overflow = None;
    let routed = route_entries(graph, outbox.items.drain(..), from, tally, |c, to, msg| {
        let fate = plan.message_fate(round, v, to.0, k);
        k += 1;
        match fate {
            FaultKind::Deliver => arrive(c, tracer, to, msg),
            FaultKind::Duplicate => {
                c.faults_duplicated += 1;
                arrive(c, tracer, to, msg.clone());
                arrive(c, tracer, to, msg);
            }
            FaultKind::Drop => {
                c.faults_dropped += 1;
                tracer.push(|| TraceEvent::FaultDrop { round, from, to });
            }
            FaultKind::Delay => {
                c.faults_delayed += 1;
                let Some(until) = round.checked_add(plan.delay_rounds) else {
                    // The run stops at this node once its routing ends.
                    overflow.get_or_insert(SimError::RoundOverflow { round });
                    return;
                };
                tracer.push(|| TraceEvent::FaultDelay {
                    round,
                    from,
                    to,
                    until,
                });
                delayed.push(DelayedMsg {
                    due: until,
                    from,
                    to,
                    msg,
                });
            }
        }
    });
    // A routing error ends the routing, so an overflow recorded before it
    // is the node's first error in entry order.
    match overflow {
        Some(e) => Err(e),
        None => routed,
    }
}

/// One awake node's receive half of `round`. A node that crashed this
/// round (its save is the next entry of `crashes`, walked in node order
/// through `next_crash`) is rolled back to its start-of-round state and
/// loses the round; any other node runs `receive` on its inbox, and its
/// action is checked: a sleep must end strictly in the future, a halt must
/// leave an output.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn receive_node<P: Program, const FAULTY: bool>(
    graph: &Graph,
    round: Round,
    v: u32,
    p: &mut P,
    inbox: &[Envelope<P::Msg>],
    hooks: Option<&FaultHooks<P>>,
    crashes: &[(u32, Vec<u8>)],
    next_crash: &mut usize,
) -> Result<Outcome<P::Output>, SimError> {
    let node = NodeId(v);
    if let Some(h) = hooks.filter(|_| FAULTY) {
        if let Some((_, save)) = crashes.get(*next_crash).filter(|c| c.0 == v) {
            *next_crash += 1;
            (h.crash_io.restore)(p, &mut Reader::new(save))
                .expect("Persist round-trip: restore must accept its own save");
            return Ok(Outcome::Crashed);
        }
    }
    let view = View {
        round,
        me: node,
        ident: graph.ident(node),
        n: graph.n(),
        neighbors: graph.neighbors(node),
    };
    Ok(match p.receive(&view, inbox) {
        Action::Stay => Outcome::Stay,
        Action::SleepUntil(until) if until <= round => {
            return Err(SimError::InvalidSleep { node, round, until })
        }
        Action::SleepUntil(until) => Outcome::Sleep(until),
        Action::Halt => Outcome::Halt(p.output().ok_or(SimError::MissingOutput(node))?),
    })
}

/// Per-round wall-time stamp of a timed run: the accumulator and the last
/// lap's instant. `None` on untimed runs, which read no clock at all.
pub(crate) type Stamp<'t> = Option<(&'t mut PhaseTimes, Instant)>;

/// Add the time since the last lap to the accumulator `pick` selects and
/// re-stamp.
#[inline]
pub(crate) fn lap(stamp: &mut Stamp<'_>, pick: fn(&mut PhaseTimes) -> &mut u64) {
    if let Some((t, at)) = stamp.as_mut() {
        let now = Instant::now();
        *pick(t) += now.duration_since(*at).as_nanos() as u64;
        *at = now;
    }
}

/// The one executor behind every entry point: the round boundary, every
/// node's program in its slot, and the round scratch. [`Exec::rounds`]
/// drives it round by round; each round runs either in place
/// ([`Exec::round_in_place`]) or dispatched over a worker pool.
pub(crate) struct Exec<'g, P: Program> {
    pub(crate) graph: &'g Graph,
    pub(crate) at: Boundary<P>,
    /// Every node's program. Between rounds and on one-chunk rounds each
    /// sits in its slot; a dispatched round lends the awake ones to their
    /// chunks and puts them back as it applies their outcomes.
    pub(crate) programs: Vec<Option<P>>,
    /// The current round's awake set, ascending.
    pub(crate) awake: Vec<u32>,
    // Round scratch of the in-place body, all reused: zero allocations per
    // node-round once capacities have grown to the workload's high-water
    // mark.
    scratch: Vec<u32>,
    outbox: Outbox<P::Msg>,
    arena: InboxArena<P::Msg>,
    crashes: Vec<(u32, Vec<u8>)>,
    delayed: Vec<DelayedMsg<P::Msg>>,
}

impl<'g, P: Program> Exec<'g, P> {
    /// Continue from `at` (whose program count [`Boundary::start`] or the
    /// snapshot decoder has checked).
    fn new(graph: &'g Graph, programs: Vec<P>, at: Boundary<P>) -> Self {
        Exec {
            graph,
            at,
            programs: programs.into_iter().map(Some).collect(),
            awake: Vec::new(),
            scratch: Vec::new(),
            outbox: Outbox::new(),
            arena: InboxArena::new(graph.n()),
            crashes: Vec::new(),
            delayed: Vec::new(),
        }
    }

    /// Run rounds until nothing is pending (`Ok(None)`) or checkpoint
    /// control pauses at a boundary (`Ok(Some(snapshot))`). A round runs
    /// in place unless `pool` is set and its degree mass makes it worth
    /// splitting into more than one chunk.
    fn rounds(
        &mut self,
        mut pool: Option<&mut Dispatcher<'_, '_, P>>,
        mut ctl: Option<Controller<'_, P>>,
        mut timing: Option<&mut PhaseTimes>,
    ) -> Result<Option<Snapshot>, SimError> {
        let faulty = self.at.faults.is_some();
        loop {
            if let Some(c) = ctl.as_mut() {
                let at = &mut self.at;
                let Some(next) = peek_next(&mut at.wheel, &at.stay, at.prev_round)? else {
                    break;
                };
                let (graph, at, programs) = (self.graph, &self.at, &self.programs);
                let paused =
                    c.at_boundary(at.prev_round, next, |encode| encode(graph, at, programs));
                if paused.is_some() {
                    return Ok(paused);
                }
            }
            // Per-round timing stamp; partition covers pop → publish.
            let mut stamp = timing.as_deref_mut().map(|t| (t, Instant::now()));
            let at = &mut self.at;
            let popped = next_awake_set(
                &mut at.wheel,
                &mut at.stay,
                at.prev_round,
                &mut self.awake,
                &mut self.scratch,
            )?;
            let Some(round) = popped else { break };
            if round > at.config.max_rounds {
                return Err(SimError::RoundBudgetExceeded {
                    limit: at.config.max_rounds,
                });
            }
            // Rounds between the previous executed round and this one had
            // no awake node: the wheel jumped them in one batch-cascade,
            // and they are accounted here so `rounds = executed + skipped`
            // stays exact under compression.
            at.metrics.rounds_skipped += round - at.prev_round - 1;
            at.metrics.rounds = round;
            at.prev_round = round;
            let k = pool
                .as_deref_mut()
                .map_or(1, |d| d.chunks(self.graph, &self.awake));
            if k == 1 {
                lap(&mut stamp, |t| &mut t.partition_ns);
                // Monomorphized on fault presence: compiled with `FAULTY =
                // false` every crash/delay block of the body is dead code,
                // so the fault-free loop optimizes as if fault injection
                // did not exist (the bench gate holds the engine to that).
                if faulty {
                    self.round_in_place::<true>(round)?;
                } else {
                    self.round_in_place::<false>(round)?;
                }
                lap(&mut stamp, |t| &mut t.inline_ns);
                if let Some((t, _)) = stamp.as_mut() {
                    t.inline_rounds += 1;
                }
            } else {
                let d = pool
                    .as_deref_mut()
                    .expect("more than one chunk needs a pool");
                self.round_dispatched(d, round, k, &mut stamp)?;
                if let Some((t, _)) = stamp.as_mut() {
                    t.dispatched_rounds += 1;
                }
            }
        }
        Ok(None)
    }

    /// A one-chunk round, in place: every awake node sends in ascending
    /// order straight into the arena, fault-delayed messages coming due
    /// are resolved, and every awake node receives and has its outcome
    /// applied.
    fn round_in_place<const FAULTY: bool>(&mut self, round: Round) -> Result<(), SimError> {
        let Exec {
            graph,
            at,
            programs,
            awake,
            scratch,
            outbox,
            arena,
            crashes,
            delayed,
        } = self;
        let hooks = at.faults.as_ref().map(FaultCtx::hooks);
        for &v in awake.iter() {
            let p = programs[v as usize]
                .as_mut()
                .expect("programs stay in their slots");
            at.metrics.note_awake(NodeId(v));
            let log = SendLog {
                tally: &mut at.metrics.counters,
                tracer: &mut at.tracer,
                hooks: hooks.as_ref(),
                delayed,
                crashes,
            };
            send_node::<P, FAULTY>(graph, round, v, p, outbox, &at.next_wake, log, |f, t, m| {
                arena.stage(f, t, m)
            })?;
        }
        if let Some(f) = at.faults.as_mut().filter(|_| FAULTY) {
            f.state.delayed.append(delayed);
            // Late deliveries land after the ascending-sender pass;
            // restore each touched inbox's sorted-by-sender invariant.
            let c = &mut at.metrics.counters;
            resolve_due_delays(&mut f.state, round, &at.next_wake, c, &mut at.tracer, |d| {
                arena.stage(d.from, d.to, d.msg);
                scratch.push(d.to.0);
            });
            scratch.sort_unstable();
            scratch.dedup();
            for &v in scratch.iter() {
                arena.resort_inbox(v);
            }
            scratch.clear();
        }
        let mut next_crash = 0;
        let mut recovery = false;
        for &v in awake.iter() {
            let p = programs[v as usize]
                .as_mut()
                .expect("programs stay in their slots");
            let inbox = arena.inbox(v);
            let outcome = receive_node::<P, FAULTY>(
                graph,
                round,
                v,
                p,
                inbox,
                hooks.as_ref(),
                crashes,
                &mut next_crash,
            )?;
            // Clear while the segment header is hot (see `arena`).
            arena.clear_inbox(v);
            recovery |= at.apply::<FAULTY>(round, v, outcome)?;
        }
        crashes.clear();
        if FAULTY && recovery {
            at.metrics.recovery_rounds += 1;
        }
        Ok(())
    }
}

/// Run `programs` from `start` to completion or to a checkpoint pause, on
/// `pool` if one is given.
pub(crate) fn drive<P: Program>(
    graph: &Graph,
    programs: Vec<P>,
    start: Boundary<P>,
    pool: Option<&mut Dispatcher<'_, '_, P>>,
    ctl: Option<Controller<'_, P>>,
    timing: Option<&mut PhaseTimes>,
) -> Result<Paused<P::Output>, SimError> {
    let mut ex = Exec::new(graph, programs, start);
    match ex.rounds(pool, ctl, timing)? {
        Some(snapshot) => Ok(Paused::Snapshot(snapshot)),
        None => ex.at.finish().map(Paused::Done),
    }
}

/// How one simulation runs: on how many workers, under which fault plan,
/// from which round boundary, and with what checkpointing. The default is
/// one worker, fault-free, from round 0. Every combination is bit-for-bit
/// identical (outputs, [`Metrics`], trace) to the same run on one worker;
/// see [`Engine::run_spec`].
#[derive(Clone, Copy)]
pub struct RunSpec<'a> {
    /// Executors driving the run: 1 runs every round on the calling
    /// thread, in place; `w > 1` adds a pool of `w - 1` spawned workers
    /// that takes the rounds whose degree mass is worth splitting. Both
    /// run the same driver and the same per-node functions.
    pub workers: usize,
    /// A seeded fault plan. An inactive plan ([`FaultPlan::is_active`])
    /// means no plan.
    pub faults: Option<FaultPlan>,
    /// Periodic snapshots, or a pause bound.
    pub checkpoint: Option<Checkpoint<'a>>,
    /// Continue the run this snapshot captured instead of starting at
    /// round 0. The snapshot's config wins over the engine's;
    /// [`faults`](Self::faults) must name the plan the snapshot was taken
    /// under.
    pub resume: Option<&'a Snapshot>,
}

impl Default for RunSpec<'_> {
    fn default() -> Self {
        RunSpec::on(1)
    }
}

impl<'a> RunSpec<'a> {
    /// The default spec on `workers` executors.
    pub fn on(workers: usize) -> Self {
        RunSpec {
            workers,
            faults: None,
            checkpoint: None,
            resume: None,
        }
    }

    /// This spec under `faults`.
    pub fn with_faults(self, faults: Option<FaultPlan>) -> Self {
        RunSpec { faults, ..self }
    }

    /// This spec, paused before the first round past `round`.
    pub fn pause_after(self, round: Round) -> Self {
        RunSpec {
            checkpoint: Some(Checkpoint::PauseAfter(round)),
            ..self
        }
    }

    /// This spec, continuing the run `snapshot` captured.
    pub fn resume_from(self, snapshot: &'a Snapshot) -> Self {
        RunSpec {
            resume: Some(snapshot),
            ..self
        }
    }

    /// The fault plan, if it is active.
    pub fn active_faults(&self) -> Option<FaultPlan> {
        self.faults.filter(FaultPlan::is_active)
    }
}

/// The checkpoint control of a [`RunSpec`].
#[derive(Clone, Copy)]
pub enum Checkpoint<'a> {
    /// Hand a snapshot to the sink whenever at least this many rounds have
    /// elapsed since the last one (or since the start boundary) and work
    /// remains — the final state is the returned run. Resuming from any
    /// emitted snapshot continues to the same result.
    Every(NonZeroU64, &'a dyn Fn(&Snapshot)),
    /// Stop before the first round past this bound and return that round
    /// boundary as [`Paused::Snapshot`]; a run that finishes first returns
    /// [`Paused::Done`].
    PauseAfter(Round),
}

/// The deterministic executor: one driver, on the calling thread alone or
/// with the worker pool of [`crate::threaded`], chosen by
/// [`RunSpec::workers`].
///
/// See the [crate docs](crate) for a worked example.
pub struct Engine<'g> {
    graph: &'g Graph,
    config: Config,
}

impl<'g> Engine<'g> {
    /// Create an engine over `graph`.
    pub fn new(graph: &'g Graph, config: Config) -> Self {
        Engine { graph, config }
    }

    /// Execute `programs` (one per node, indexed by [`NodeId`]) to
    /// completion on one worker, fault-free: [`run_spec`](Self::run_spec)
    /// with the default spec, for programs without [`Persist`] state or a
    /// `Send` bound. Every round runs in place on the calling thread. Kept
    /// with this signature because most callers, the `perfbench` benchmark
    /// among them, need nothing more.
    ///
    /// # Errors
    /// Any [`SimError`]; see the variants for the contract each program must
    /// uphold.
    pub fn run<P: Program>(&self, programs: Vec<P>) -> Result<Run<P::Output>, SimError> {
        let start = Boundary::start(self.graph, self.config, &programs, None)?;
        drive(self.graph, programs, start, None, None, None).map(Paused::finished)
    }

    /// Execute `programs` as `spec` says. Runs agree bit for bit at any
    /// worker count, under any fault plan, and across a pause at one
    /// worker count resumed at another. A snapshot of the same run at the
    /// same round is byte-identical whatever the worker count.
    ///
    /// On resume, `programs` must be the *freshly constructed initial*
    /// programs of the original run (same inputs, same order) —
    /// [`Persist::restore`] overwrites their dynamic state.
    ///
    /// # Errors
    /// [`ResumeError::Checkpoint`] if the resume snapshot is corrupt,
    /// truncated, from a different graph, or was taken under a different
    /// fault plan than [`RunSpec::faults`]; [`ResumeError::Sim`] for any
    /// [`SimError`] of the run itself, with one error precedence at every
    /// worker count (lowest node id first).
    pub fn run_spec<P>(
        &self,
        mut programs: Vec<P>,
        spec: &RunSpec<'_>,
    ) -> Result<Paused<P::Output>, ResumeError>
    where
        P: Program + Persist + Send,
        P::Msg: Codec,
        P::Output: Codec,
    {
        let g = self.graph;
        let start = match spec.resume {
            Some(snapshot) => {
                if programs.len() != g.n() {
                    return Err(ResumeError::Sim(SimError::ProgramCountMismatch {
                        got: programs.len(),
                        expected: g.n(),
                    }));
                }
                let start = decode_snapshot(g, snapshot, &mut programs)?;
                if start.faults.as_ref().map(|f| f.state.plan) != spec.active_faults() {
                    return Err(CheckpointError::FaultPlanMismatch.into());
                }
                start
            }
            None => {
                let faults = spec
                    .active_faults()
                    .map(|p| FaultCtx::of(FaultState::new(p)));
                Boundary::start(g, self.config, &programs, faults)?
            }
        };
        let ctl = spec
            .checkpoint
            .map(|c| Controller::new(c, start.prev_round, encode_snapshot::<P>));
        let traced = start.tracer.enabled();
        Ok(with_pool(g, spec.workers, traced, |pool| {
            drive(g, programs, start, pool, ctl, None)
        })?)
    }
}

/// Validate and expand one node's outbox entries. Each directed
/// addressing is checked against the graph ([`SimError::NotANeighbor`] on
/// the first violation, in entry order), broadcasts are expanded over the
/// sender's neighbor list in adjacency order, `messages_sent` is counted
/// into `tally`, and every transmission is handed to `transmit(tally, to,
/// msg)`.
#[inline]
fn route_entries<M: Clone>(
    graph: &Graph,
    entries: impl Iterator<Item = OutEntry<M>>,
    from: NodeId,
    tally: &mut Counters,
    mut transmit: impl FnMut(&mut Counters, NodeId, M),
) -> Result<(), SimError> {
    for entry in entries {
        match entry.to {
            Some(w) => {
                if !graph.has_edge(from, w) {
                    return Err(SimError::NotANeighbor { from, to: w });
                }
                tally.messages_sent += 1;
                transmit(tally, w, entry.msg);
            }
            None => {
                let neighbors = graph.neighbors(from);
                tally.messages_sent += neighbors.len() as u64;
                for &w in neighbors {
                    transmit(tally, w, entry.msg.clone());
                }
            }
        }
    }
    Ok(())
}

/// Resolve the fault-delayed messages that have come due at `round`, on
/// either round body. A delayed message is delivered only if its
/// recipient is awake at exactly its due round; a due round nobody
/// executed (or an asleep recipient) loses it — the model's rule, applied
/// late. Deliverable messages go to `deliver` in buffer order, which is
/// the run's transmission order.
pub(crate) fn resolve_due_delays<M>(
    state: &mut FaultState<M>,
    round: Round,
    next_wake: &[Round],
    c: &mut Counters,
    tracer: &mut Tracer,
    mut deliver: impl FnMut(DelayedMsg<M>),
) {
    if !state.delayed.iter().any(|d| d.due <= round) {
        return;
    }
    let mut kept = Vec::with_capacity(state.delayed.len());
    for d in state.delayed.drain(..) {
        if d.due > round {
            kept.push(d);
            continue;
        }
        let (due, from, to) = (d.due, d.from, d.to);
        if due == round && next_wake[to.index()] == round {
            c.messages_delivered += 1;
            tracer.push(|| TraceEvent::Delivered { round, from, to });
            deliver(d);
        } else {
            c.messages_lost += 1;
            tracer.push(|| TraceEvent::Lost {
                round: due,
                from,
                to,
            });
        }
    }
    state.delayed = kept;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Envelope;
    use awake_graphs::generators;

    /// Broadcasts ident at round 1; collects neighbor idents; halts.
    #[derive(Default)]
    struct OneShot {
        heard: Vec<u64>,
    }

    impl Program for OneShot {
        type Msg = u64;
        type Output = Vec<u64>;
        fn send(&mut self, view: &View, out: &mut Outbox<u64>) {
            out.broadcast(view.ident);
        }
        fn receive(&mut self, _view: &View, inbox: &[Envelope<u64>]) -> Action {
            self.heard = inbox.iter().map(|e| e.msg).collect();
            Action::Halt
        }
        fn output(&self) -> Option<Vec<u64>> {
            Some(self.heard.clone())
        }
    }

    #[test]
    fn round_one_exchange() {
        let g = generators::path(3);
        let run = Engine::new(&g, Config::default())
            .run(vec![
                OneShot::default(),
                OneShot::default(),
                OneShot::default(),
            ])
            .unwrap();
        assert_eq!(run.outputs[0], vec![2]);
        assert_eq!(run.outputs[1], vec![1, 3]);
        assert_eq!(run.metrics.rounds, 1);
        assert_eq!(run.metrics.max_awake(), 1);
        assert_eq!(run.metrics.messages_sent, 4);
        assert_eq!(run.metrics.messages_delivered, 4);
        assert_eq!(run.metrics.messages_lost, 0);
    }

    /// Node 0 stays awake 3 rounds broadcasting; node 1 sleeps immediately
    /// until round 3: the round-2 message must be lost.
    struct Phased {
        is_sender: bool,
        got: Vec<(Round, u64)>,
    }

    impl Program for Phased {
        type Msg = u64;
        type Output = Vec<(Round, u64)>;
        fn send(&mut self, view: &View, out: &mut Outbox<u64>) {
            if self.is_sender {
                out.broadcast(view.round * 10);
            }
        }
        fn receive(&mut self, view: &View, inbox: &[Envelope<u64>]) -> Action {
            for e in inbox {
                self.got.push((view.round, e.msg));
            }
            if self.is_sender {
                if view.round < 3 {
                    Action::Stay
                } else {
                    Action::Halt
                }
            } else if view.round == 1 {
                Action::SleepUntil(3)
            } else {
                Action::Halt
            }
        }
        fn output(&self) -> Option<Self::Output> {
            Some(self.got.clone())
        }
    }

    #[test]
    fn messages_to_sleeping_nodes_are_lost() {
        let g = generators::path(2);
        let run = Engine::new(&g, Config::default())
            .run(vec![
                Phased {
                    is_sender: true,
                    got: vec![],
                },
                Phased {
                    is_sender: false,
                    got: vec![],
                },
            ])
            .unwrap();
        // receiver hears round 1 and round 3, but not round 2
        assert_eq!(run.outputs[1], vec![(1, 10), (3, 30)]);
        assert_eq!(run.metrics.messages_lost, 1);
        assert_eq!(run.metrics.awake[1], 2);
        assert_eq!(run.metrics.awake[0], 3);
    }

    struct Sleeper(Round);
    impl Program for Sleeper {
        type Msg = ();
        type Output = ();
        fn send(&mut self, _: &View, _: &mut Outbox<()>) {}
        fn receive(&mut self, view: &View, _: &[Envelope<()>]) -> Action {
            if view.round == 1 {
                Action::SleepUntil(self.0)
            } else {
                Action::Halt
            }
        }
        fn output(&self) -> Option<()> {
            Some(())
        }
    }

    #[test]
    fn skip_ahead_is_cheap_for_huge_gaps() {
        // The property under test is algorithmic, not wall-clock: the run
        // must cost O(awake node-rounds), not O(rounds). With a 10^12-round
        // gap, a per-round scan could not finish within any test timeout,
        // so completing at all — with exactly two awake rounds per node —
        // is the skip-ahead guarantee.
        let g = generators::path(2);
        let far = 1_000_000_000_000;
        let run = Engine::new(&g, Config::default())
            .run(vec![Sleeper(far), Sleeper(far)])
            .unwrap();
        assert_eq!(run.metrics.rounds, far);
        assert_eq!(run.metrics.max_awake(), 2);
        assert_eq!(run.metrics.awake, vec![2, 2]);
    }

    #[test]
    fn invalid_sleep_detected() {
        let g = generators::path(2);
        let err = Engine::new(&g, Config::default())
            .run(vec![Sleeper(1), Sleeper(5)])
            .unwrap_err();
        assert!(matches!(err, SimError::InvalidSleep { until: 1, .. }));
    }

    #[test]
    fn round_budget_enforced() {
        let g = generators::path(2);
        let err = Engine::new(&g, Config::with_max_rounds(10))
            .run(vec![Sleeper(50), Sleeper(50)])
            .unwrap_err();
        assert_eq!(err, SimError::RoundBudgetExceeded { limit: 10 });
    }

    struct BadSend;
    impl Program for BadSend {
        type Msg = ();
        type Output = ();
        fn send(&mut self, _: &View, out: &mut Outbox<()>) {
            out.to(NodeId(2), ()); // not a neighbor on a path of 3
        }
        fn receive(&mut self, _: &View, _: &[Envelope<()>]) -> Action {
            Action::Halt
        }
        fn output(&self) -> Option<()> {
            Some(())
        }
    }

    #[test]
    fn non_neighbor_send_detected() {
        let g = generators::path(3);
        let err = Engine::new(&g, Config::default())
            .run(vec![BadSend, BadSend, BadSend])
            .unwrap_err();
        assert!(matches!(err, SimError::NotANeighbor { .. }));
    }

    struct NoOutput;
    impl Program for NoOutput {
        type Msg = ();
        type Output = u32;
        fn send(&mut self, _: &View, _: &mut Outbox<()>) {}
        fn receive(&mut self, _: &View, _: &[Envelope<()>]) -> Action {
            Action::Halt
        }
        fn output(&self) -> Option<u32> {
            None
        }
    }

    #[test]
    fn missing_output_detected() {
        let g = generators::path(2);
        let err = Engine::new(&g, Config::default())
            .run(vec![NoOutput, NoOutput])
            .unwrap_err();
        assert!(matches!(err, SimError::MissingOutput(_)));
    }

    #[test]
    fn program_count_mismatch() {
        let g = generators::path(3);
        let err = Engine::new(&g, Config::default())
            .run(vec![NoOutput])
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::ProgramCountMismatch {
                got: 1,
                expected: 3
            }
        ));
    }

    #[test]
    fn empty_graph_runs() {
        let g = awake_graphs::GraphBuilder::new(0).build().unwrap();
        let run = Engine::new(&g, Config::default())
            .run(Vec::<OneShot>::new())
            .unwrap();
        assert!(run.outputs.is_empty());
        assert_eq!(run.metrics.rounds, 0);
    }

    #[test]
    fn trace_records_events() {
        let g = generators::path(2);
        let cfg = Config {
            trace: TraceMode::Capped(100),
            ..Config::default()
        };
        let run = Engine::new(&g, cfg)
            .run(vec![OneShot::default(), OneShot::default()])
            .unwrap();
        assert!(run
            .trace
            .iter()
            .any(|e| matches!(e, TraceEvent::Delivered { .. })));
        assert!(run
            .trace
            .iter()
            .any(|e| matches!(e, TraceEvent::Halt { .. })));
        assert_eq!(run.trace_dropped, 0, "uncapped trace is complete");
    }

    #[test]
    fn capped_trace_reports_dropped_events() {
        let g = generators::path(2);
        let full = Engine::new(
            &g,
            Config {
                trace: TraceMode::Capped(1000),
                ..Config::default()
            },
        )
        .run(vec![OneShot::default(), OneShot::default()])
        .unwrap();
        assert!(full.trace.len() > 2);
        let capped = Engine::new(
            &g,
            Config {
                trace: TraceMode::Capped(2),
                ..Config::default()
            },
        )
        .run(vec![OneShot::default(), OneShot::default()])
        .unwrap();
        // The capped trace is the exact prefix of the full one, and the
        // drop counter accounts for everything past it.
        assert_eq!(capped.trace.as_slice(), &full.trace[..2]);
        assert_eq!(capped.trace_dropped, full.trace.len() as u64 - 2);
    }

    struct WakesAtZero;
    impl Program for WakesAtZero {
        type Msg = ();
        type Output = ();
        fn send(&mut self, _: &View, _: &mut Outbox<()>) {}
        fn receive(&mut self, _: &View, _: &[Envelope<()>]) -> Action {
            Action::Halt
        }
        fn output(&self) -> Option<()> {
            Some(())
        }
        fn initial_wake(&self) -> Option<Round> {
            Some(0)
        }
    }

    #[test]
    fn initial_wake_before_first_round_is_a_typed_error() {
        let g = generators::path(2);
        let err = Engine::new(&g, Config::default())
            .run(vec![WakesAtZero, WakesAtZero])
            .unwrap_err();
        assert_eq!(
            err,
            SimError::InvalidInitialWake {
                node: NodeId(0),
                round: 0
            }
        );
        assert!(err.to_string().contains("initial wake"));
    }

    #[test]
    fn error_display() {
        let e = SimError::NotANeighbor {
            from: NodeId(0),
            to: NodeId(9),
        };
        assert!(e.to_string().contains("non-neighbor"));
    }

    /// Stay-lane and wheel wakes interleaving: node 0 stays every round,
    /// node 1 sleeps in jumps; they must meet exactly when scheduled.
    struct Mixed {
        jumps: bool,
        meetings: Vec<Round>,
    }

    impl Program for Mixed {
        type Msg = u64;
        type Output = Vec<Round>;
        fn send(&mut self, view: &View, out: &mut Outbox<u64>) {
            out.broadcast(view.round);
        }
        fn receive(&mut self, view: &View, inbox: &[Envelope<u64>]) -> Action {
            if !inbox.is_empty() {
                self.meetings.push(view.round);
            }
            if self.jumps {
                if view.round >= 20 {
                    Action::Halt
                } else {
                    Action::SleepUntil(view.round + 7)
                }
            } else if view.round >= 22 {
                Action::Halt
            } else {
                Action::Stay
            }
        }
        fn output(&self) -> Option<Vec<Round>> {
            Some(self.meetings.clone())
        }
    }

    #[test]
    fn stay_lane_meets_wheel_wakes() {
        let g = generators::path(2);
        let run = Engine::new(&g, Config::default())
            .run(vec![
                Mixed {
                    jumps: false,
                    meetings: vec![],
                },
                Mixed {
                    jumps: true,
                    meetings: vec![],
                },
            ])
            .unwrap();
        // node 1 awake at 1, 8, 15, 22; node 0 awake 1..=22: they exchange
        // exactly at node 1's wake rounds.
        assert_eq!(run.outputs[0], vec![1, 8, 15, 22]);
        assert_eq!(run.outputs[1], vec![1, 8, 15, 22]);
        assert_eq!(run.metrics.awake[1], 4);
        assert_eq!(run.metrics.awake[0], 22);
    }

    /// A fully scripted node: first wakes at `initial`, optionally sleeps
    /// once (`at` round, until `until`), halts at `halt_at`, stays
    /// otherwise; broadcasts its ident and records everything it hears.
    struct Scripted {
        initial: Round,
        sleep: Option<(Round, Round)>,
        halt_at: Round,
        heard: Vec<(Round, u64)>,
    }

    impl Scripted {
        fn new(initial: Round, sleep: Option<(Round, Round)>, halt_at: Round) -> Self {
            Scripted {
                initial,
                sleep,
                halt_at,
                heard: vec![],
            }
        }
    }

    impl Program for Scripted {
        type Msg = u64;
        type Output = Vec<(Round, u64)>;
        fn initial_wake(&self) -> Option<Round> {
            Some(self.initial)
        }
        fn send(&mut self, view: &View, out: &mut Outbox<u64>) {
            out.broadcast(view.ident);
        }
        fn receive(&mut self, view: &View, inbox: &[Envelope<u64>]) -> Action {
            for e in inbox {
                self.heard.push((view.round, e.msg));
            }
            if view.round >= self.halt_at {
                Action::Halt
            } else if let Some((at, until)) = self.sleep {
                if view.round == at {
                    return Action::SleepUntil(until);
                }
                Action::Stay
            } else {
                Action::Stay
            }
        }
        fn output(&self) -> Option<Self::Output> {
            Some(self.heard.clone())
        }
    }

    /// Regression for the wheel's stale-min memo: initial wakes at 65/66
    /// make the seed events cascade across the first 64-round block
    /// boundary, after which the memo used to still hold the popped round
    /// 65 — so at round 66 the stay lane (node 0) took the fast path and
    /// node 1's wheel wake was skipped. Node 0 then heard nothing at 66,
    /// and node 1 was popped *after* round 70, regressing metrics.rounds.
    #[test]
    fn wheel_wake_coinciding_with_stay_round_after_cascade() {
        let g = generators::path(2);
        let run = Engine::new(&g, Config::default())
            .run(vec![
                Scripted::new(65, None, 70),
                Scripted::new(66, None, 66),
            ])
            .unwrap();
        // They are both awake exactly at round 66 and must exchange there.
        assert_eq!(run.outputs[0], vec![(66, 2)]);
        assert_eq!(run.outputs[1], vec![(66, 1)]);
        assert_eq!(run.metrics.rounds, 70, "rounds must stay monotone");
        assert_eq!(run.metrics.awake[0], 6); // rounds 65..=70
        assert_eq!(run.metrics.awake[1], 1); // round 66 only
    }

    /// Regression for the memo's other stale path: after round 65's pop,
    /// node 2 schedules a far sleep (round 100) while node 0's wake at 66
    /// is still pending in the wheel. The memo must not adopt 100 as the
    /// minimum, or round 66's stay lane (node 1) would skip node 0's wake.
    #[test]
    fn schedule_after_pop_does_not_hide_pending_wheel_wake() {
        let g = generators::path(3);
        let run = Engine::new(&g, Config::default())
            .run(vec![
                Scripted::new(66, None, 66),
                Scripted::new(65, None, 70),
                Scripted::new(65, Some((65, 100)), 100),
            ])
            .unwrap();
        // Nodes 1 and 2 exchange at 65; nodes 0 and 1 must still exchange
        // at 66 even though node 2's sleep was scheduled in between.
        assert_eq!(run.outputs[0], vec![(66, 2)]);
        assert_eq!(run.outputs[1], vec![(65, 3), (66, 1)]);
        assert_eq!(run.outputs[2], vec![(65, 2)]);
        assert_eq!(run.metrics.rounds, 100);
        assert_eq!(run.metrics.awake, vec![1, 6, 2]);
    }
}
