//! The deterministic skip-ahead executor.
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
    decode_snapshot, encode_snapshot, CheckpointError, Codec, Controller, CrashIo, EngineStateRef,
    Paused, Persist, ProgramsRef, Reader, ResumeError, Snapshot,
};
use crate::faults::{DelayedMsg, FaultPlan, FaultState};
use crate::metrics::{Counters, Metrics};
use crate::program::{Action, Outbox, Program, View};
use crate::trace::{TraceEvent, TraceMode, Tracer};
use crate::wheel::WakeWheel;
use crate::Round;
use awake_graphs::{Graph, NodeId};
use std::fmt;
use std::num::NonZeroU64;

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

/// Pop the next round's awake set into `awake` (ascending), merging the
/// stay lane (nodes that chose [`Action::Stay`] at `prev_round`, already
/// sorted) with the wheel. Returns `None` when nothing is pending.
///
/// A non-empty stay lane wakes at `prev_round + 1`, which is the earliest
/// any pending event can be — so the wheel only participates when its
/// minimum is exactly that round, and the common dense case (everybody
/// `Stay`s) never touches the wheel at all.
pub(crate) fn next_awake_set(
    wheel: &mut WakeWheel,
    stay: &mut Vec<u32>,
    prev_round: Round,
    awake: &mut Vec<u32>,
    scratch: &mut Vec<u32>,
) -> Option<Round> {
    awake.clear();
    if stay.is_empty() {
        let round = wheel.pop_next(awake)?;
        awake.sort_unstable();
        return Some(round);
    }
    let round = prev_round + 1;
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
    Some(round)
}

/// The round the next [`next_awake_set`] would pop, without committing the
/// scheduler (a non-empty stay lane wakes at `prev_round + 1`, which is
/// the earliest any pending event can be).
pub(crate) fn peek_next(wheel: &mut WakeWheel, stay: &[u32], prev_round: Round) -> Option<Round> {
    if stay.is_empty() {
        wheel.peek_min()
    } else {
        Some(prev_round + 1)
    }
}

/// The mutable fault-injection context of one executor: the seeded state
/// (plan + delayed-message buffer) plus the crash-restart machinery — the
/// [`Persist`] entry points of the concrete program type (captured as
/// function pointers so the executor core needs no `Persist` bound) and
/// the current round's crash blobs, saved at start-of-round and consumed
/// in phase B.
pub(crate) struct FaultCtx<P: Program> {
    pub(crate) state: FaultState<P::Msg>,
    pub(crate) crash_io: CrashIo<P>,
    /// `(node, start-of-round state)` of nodes that crash this round, in
    /// node order (phase A order); emptied by phase B.
    crashed: Vec<(u32, Vec<u8>)>,
}

impl<P: Program + Persist> FaultCtx<P> {
    pub(crate) fn of(state: FaultState<P::Msg>) -> Self {
        FaultCtx {
            state,
            crash_io: CrashIo::of(),
            crashed: Vec::new(),
        }
    }
}

/// The round boundary both executors start from: the scheduler, the
/// outputs so far, the accounting and the fault state after round
/// `prev_round`. A fresh run starts from [`Boundary::start`] (round 0); a
/// resumed one from a decoded [`Snapshot`], whose config wins over the
/// resuming engine's so the run keeps the budget and trace mode it
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
}

/// Close a finished run, on either executor: still-buffered delayed
/// messages never found an executed due round with an awake recipient and
/// are accounted lost, and every node must have halted with an output.
pub(crate) fn finish_run<P: Program>(
    outputs: Vec<Option<P::Output>>,
    mut metrics: Metrics,
    mut tracer: Tracer,
    faults: Option<FaultCtx<P>>,
) -> Result<Run<P::Output>, SimError> {
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

/// The serial executor's full mutable state, factored out of
/// [`Engine::run`] so checkpointing can pause between rounds: `step`
/// executes exactly one round, `peek_next` answers "what round would run
/// next" without committing anything, and `state_ref` exposes the round
/// boundary for snapshot encoding.
struct SerialExec<'g, P: Program> {
    graph: &'g Graph,
    config: Config,
    programs: Vec<P>,
    metrics: Metrics,
    tracer: Tracer,
    outputs: Vec<Option<P::Output>>,
    /// `next_wake[v] = r`: v will be awake at round r; NEVER: halted.
    next_wake: Vec<Round>,
    wheel: WakeWheel,
    // Round-scratch state, all reused: zero allocations per node-round
    // once capacities have grown to the workload's high-water mark.
    awake: Vec<u32>,
    scratch: Vec<u32>,
    stay: Vec<u32>,
    outbox: Outbox<P::Msg>,
    arena: InboxArena<P::Msg>,
    prev_round: Round,
    faults: Option<FaultCtx<P>>,
}

impl<'g, P: Program> SerialExec<'g, P> {
    /// Continue from `at` (whose program count [`Boundary::start`] or the
    /// snapshot decoder has checked).
    fn new(graph: &'g Graph, programs: Vec<P>, at: Boundary<P>) -> Self {
        SerialExec {
            graph,
            config: at.config,
            programs,
            metrics: at.metrics,
            tracer: at.tracer,
            outputs: at.outputs,
            next_wake: at.next_wake,
            wheel: at.wheel,
            awake: Vec::new(),
            scratch: Vec::new(),
            stay: at.stay,
            outbox: Outbox::new(),
            arena: InboxArena::new(graph.n()),
            prev_round: at.prev_round,
            faults: at.faults,
        }
    }

    /// Execute one round; `Ok(false)` means nothing was pending.
    fn step(&mut self) -> Result<bool, SimError> {
        // Monomorphized on fault presence: compiled with `FAULTY = false`
        // every crash/delay block in the body is dead code, so the
        // fault-free round loop optimizes exactly as it did before fault
        // injection existed (the bench gate holds the engine to that).
        if self.faults.is_some() {
            self.step_body::<true>()
        } else {
            self.step_body::<false>()
        }
    }

    fn step_body<const FAULTY: bool>(&mut self) -> Result<bool, SimError> {
        // Disjoint field borrows throughout the round body.
        let SerialExec {
            graph,
            config,
            programs,
            metrics,
            tracer,
            outputs,
            next_wake,
            wheel,
            awake,
            scratch,
            stay,
            outbox,
            arena,
            prev_round,
            faults,
        } = self;
        let n = graph.n();
        let Some(round) = next_awake_set(wheel, stay, *prev_round, awake, scratch) else {
            return Ok(false);
        };
        if round > config.max_rounds {
            return Err(SimError::RoundBudgetExceeded {
                limit: config.max_rounds,
            });
        }
        // Rounds between the previous executed round and this one had no
        // awake node: the wheel jumped them in one batch-cascade, and they
        // are accounted here so `rounds = executed + skipped` stays exact
        // under compression (identically in the threaded coordinator).
        metrics.rounds_skipped += round - *prev_round - 1;
        metrics.rounds = round;
        *prev_round = round;

        // Phase A: all awake nodes transmit.
        for &v in awake.iter() {
            let vid = NodeId(v);
            let view = View {
                round,
                me: vid,
                ident: graph.ident(vid),
                n,
                neighbors: graph.neighbors(vid),
            };
            metrics.note_awake(vid, programs[v as usize].span());
            tracer.push(|| TraceEvent::Awake { round, node: vid });
            if FAULTY {
                if let Some(f) = faults.as_mut() {
                    if f.state.plan.crashes(round, v) {
                        // Save the start-of-round state *before* the node
                        // acts: a crashed node loses this round's state
                        // changes but its sends still go out (they left
                        // before the crash).
                        let mut w = crate::checkpoint::Writer::new();
                        (f.crash_io.save)(&programs[v as usize], &mut w);
                        f.crashed.push((v, w.into_bytes()));
                    }
                }
            }
            outbox.clear();
            programs[v as usize].send(&view, outbox);
            route_messages::<P::Msg, FAULTY>(
                graph,
                outbox.items.drain(..),
                next_wake,
                round,
                vid,
                arena,
                metrics,
                tracer,
                faults.as_mut().map(|f| &mut f.state),
            )?;
        }

        // Between phases: resolve fault-delayed messages that have come
        // due. Late deliveries land after the ascending-sender pass;
        // restore each touched inbox's sorted-by-sender invariant.
        if let Some(f) = faults.as_mut().filter(|_| FAULTY) {
            scratch.clear();
            let c = &mut metrics.counters;
            resolve_due_delays(&mut f.state, round, next_wake, c, tracer, |d| {
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

        // Phase B: all awake nodes receive and choose their next action
        // (crashed nodes instead lose the round and restart).
        let mut crash_i = 0usize;
        let mut rec_round = false;
        for &v in awake.iter() {
            let vid = NodeId(v);
            if let Some(f) = faults.as_mut().filter(|_| FAULTY) {
                if f.crashed.get(crash_i).is_some_and(|c| c.0 == v) {
                    let blob = &f.crashed[crash_i].1;
                    crash_i += 1;
                    arena.clear_inbox(v);
                    let mut r = Reader::new(blob);
                    (f.crash_io.restore)(&mut programs[v as usize], &mut r)
                        .expect("Persist round-trip: restore must accept its own save");
                    tracer.push(|| TraceEvent::Crash { round, node: vid });
                    metrics.faults_crashed += 1;
                    f.state.recovering[v as usize] = true;
                    rec_round = true;
                    next_wake[v as usize] = round + 1;
                    stay.push(v);
                    continue;
                }
            }
            let view = View {
                round,
                me: vid,
                ident: graph.ident(vid),
                n,
                neighbors: graph.neighbors(vid),
            };
            let action = programs[v as usize].receive(&view, arena.inbox(v));
            // Clear while the segment header is hot (see `arena`).
            arena.clear_inbox(v);
            // A recovering node's awake rounds are overhead until its first
            // non-Stay action puts it back on its schedule.
            if FAULTY {
                if let Some(f) = faults.as_mut() {
                    if f.state.recovering[v as usize] {
                        metrics.recovery_awake += 1;
                        rec_round = true;
                        if action != Action::Stay {
                            f.state.recovering[v as usize] = false;
                        }
                    }
                }
            }
            match action {
                Action::Stay => {
                    next_wake[v as usize] = round + 1;
                    stay.push(v); // fast lane: never touches the wheel
                }
                Action::SleepUntil(until) => {
                    if until <= round {
                        return Err(SimError::InvalidSleep {
                            node: vid,
                            round,
                            until,
                        });
                    }
                    tracer.push(|| TraceEvent::Sleep {
                        round,
                        node: vid,
                        until,
                    });
                    next_wake[v as usize] = until;
                    wheel.schedule(until, v);
                }
                Action::Halt => {
                    tracer.push(|| TraceEvent::Halt { round, node: vid });
                    next_wake[v as usize] = NEVER;
                    match programs[v as usize].output() {
                        Some(o) => outputs[v as usize] = Some(o),
                        None => return Err(SimError::MissingOutput(vid)),
                    }
                }
            }
        }
        if let Some(f) = faults.as_mut().filter(|_| FAULTY) {
            f.crashed.clear();
        }
        if FAULTY && rec_round {
            metrics.recovery_rounds += 1;
        }
        Ok(true)
    }

    fn finish(self) -> Result<Run<P::Output>, SimError> {
        finish_run(self.outputs, self.metrics, self.tracer, self.faults)
    }

    /// The round boundary as snapshot input.
    fn state_ref(&self) -> EngineStateRef<'_, P> {
        EngineStateRef {
            prev_round: self.prev_round,
            next_wake: &self.next_wake,
            stay: &self.stay,
            wheel_events: self.wheel.pending_events(),
            outputs: &self.outputs,
            programs: ProgramsRef::Flat(&self.programs),
            metrics: &self.metrics,
            tracer: &self.tracer,
            faults: self.faults.as_ref().map(|f| &f.state),
        }
    }

    fn run_out(mut self) -> Result<Run<P::Output>, SimError> {
        while self.step()? {}
        self.finish()
    }

    /// Run to completion under checkpoint control, consulted at every
    /// round boundary. Without control this is [`run_out`](Self::run_out)
    /// — the fault-free round loop stays exactly the plain one.
    fn drive(mut self, ctl: Option<Controller<'_, P>>) -> Result<Paused<P::Output>, SimError> {
        let Some(mut ctl) = ctl else {
            return self.run_out().map(Paused::Done);
        };
        while let Some(next) = peek_next(&mut self.wheel, &self.stay, self.prev_round) {
            let paused = ctl.at_boundary(self.prev_round, next, |encode| {
                encode(self.graph, self.config, self.state_ref())
            });
            if let Some(snapshot) = paused {
                return Ok(Paused::Snapshot(snapshot));
            }
            self.step()?;
        }
        self.finish().map(Paused::Done)
    }
}

/// How one simulation runs: on which executor, under which fault plan,
/// from which round boundary, and with what checkpointing. The default is
/// the serial engine, fault-free, from round 0. Every combination is
/// bit-for-bit identical (outputs, [`Metrics`], trace) to the same run on
/// the serial engine; see [`Engine::run_spec`].
#[derive(Clone, Copy, Default)]
pub struct RunSpec<'a> {
    /// `None` runs the serial engine; `Some(w)` the worker pool with `w`
    /// executors — the calling thread plus `w - 1` spawned ones.
    pub workers: Option<usize>,
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
    /// Test-only seed of the pool's scheduling chaos (the threaded
    /// module's `ChaosPlan`).
    #[cfg(test)]
    pub(crate) chaos: Option<u64>,
}

impl<'a> RunSpec<'a> {
    /// The default spec on `workers` (`None`: the serial engine).
    pub fn on(workers: Option<usize>) -> Self {
        RunSpec {
            workers,
            ..RunSpec::default()
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

/// The deterministic executor: the serial engine, or the worker pool of
/// [`crate::threaded`], chosen by [`RunSpec::workers`].
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
    /// completion on the serial engine, fault-free: [`run_spec`](Self::run_spec)
    /// with the default spec, for programs without [`Persist`] state. Kept with this signature because most callers,
    /// the `perfbench` benchmark among them, need nothing more.
    ///
    /// # Errors
    /// Any [`SimError`]; see the variants for the contract each program must
    /// uphold.
    pub fn run<P: Program>(&self, programs: Vec<P>) -> Result<Run<P::Output>, SimError> {
        let start = Boundary::start(self.graph, self.config, &programs, None)?;
        SerialExec::new(self.graph, programs, start).run_out()
    }

    /// Execute `programs` as `spec` says. The serial engine and the worker
    /// pool agree bit for bit at any worker count, under any fault plan,
    /// and across a pause on one executor resumed on the other. A snapshot
    /// of the same run at the same round is byte-identical whichever
    /// executor took it.
    ///
    /// On resume, `programs` must be the *freshly constructed initial*
    /// programs of the original run (same inputs, same order) —
    /// [`Persist::restore`] overwrites their dynamic state.
    ///
    /// # Errors
    /// [`ResumeError::Checkpoint`] if the resume snapshot is corrupt,
    /// truncated, from a different graph, or was taken under a different
    /// fault plan than [`RunSpec::faults`]; [`ResumeError::Sim`] for any
    /// [`SimError`] of the run itself, with the serial engine's error
    /// precedence (lowest node id first).
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
        #[cfg(test)]
        let chaos = spec.chaos.map(|seed| crate::threaded::ChaosPlan { seed });
        #[cfg(not(test))]
        let chaos = None;
        Ok(match spec.workers {
            None => SerialExec::new(g, programs, start).drive(ctl)?,
            Some(w) => crate::threaded::run_threaded_core(g, programs, start, w, ctl, None, chaos)?,
        })
    }
}

/// Validate and expand one node's outbox entries: the shared addressing
/// checker of both executors. Each directed addressing is checked against
/// the graph ([`SimError::NotANeighbor`] on the first violation, in entry
/// order), broadcasts are expanded over the sender's neighbor list in
/// adjacency order, `messages_sent` is counted into `tally`, and every
/// transmission is handed to `transmit(tally, to, msg)` — the caller
/// decides delivery (arena staging on the serial engine, owner-shard
/// staging inside the threaded executor's workers). Because expansion
/// order and error precedence live here, the two executors count and
/// order identically by construction.
pub(crate) fn route_entries<M: Clone>(
    graph: &Graph,
    entries: impl Iterator<Item = crate::program::OutEntry<M>>,
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

/// Resolve the fault-delayed messages that have come due at `round`: the
/// shared rule of both executors. A delayed message is delivered only if
/// its recipient is awake at exactly its due round; a due round nobody
/// executed (or an asleep recipient) loses it — the model's rule, applied
/// late. Deliverable messages go to `deliver` in buffer order, which is
/// the run's transmission order on both executors.
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

/// Route one node's outbox entries on the serial engine: validate through
/// [`route_entries`], then stage every transmitted message into the arena
/// (or count it lost). Monomorphized on fault presence like the round
/// body: with `FAULTY = false` the fate roll is dead code. Under a plan
/// (`FAULTY`, `fstate` set) every transmission first rolls its fate —
/// keyed by `(seed, round, endpoints, k)` where `k` is the sender's
/// per-round transmission index, so the threaded executor rolls identical
/// fates regardless of chunking. Dropped messages vanish (traced and
/// counted as `faults_dropped`, *not* `messages_lost`), duplicates deliver
/// two copies (each then subject to the awake-recipient rule), delayed
/// messages enter the buffer for later resolution.
#[allow(clippy::too_many_arguments)]
pub(crate) fn route_messages<M: Clone, const FAULTY: bool>(
    graph: &Graph,
    entries: impl Iterator<Item = crate::program::OutEntry<M>>,
    next_wake: &[Round],
    round: Round,
    from: NodeId,
    arena: &mut InboxArena<M>,
    metrics: &mut Metrics,
    tracer: &mut Tracer,
    mut fstate: Option<&mut FaultState<M>>,
) -> Result<(), SimError> {
    let mut k = 0u32;
    route_entries(graph, entries, from, &mut metrics.counters, |c, to, msg| {
        // A recipient is listening iff it is awake at exactly this round.
        let mut deliver_copy = |m: M| {
            if next_wake[to.index()] == round {
                c.messages_delivered += 1;
                tracer.push(|| TraceEvent::Delivered { round, from, to });
                arena.stage(from, to, m);
            } else {
                c.messages_lost += 1;
                tracer.push(|| TraceEvent::Lost { round, from, to });
            }
        };
        let Some(f) = fstate.as_deref_mut().filter(|_| FAULTY) else {
            return deliver_copy(msg);
        };
        let fate = f.plan.message_fate(round, from.0, to.0, k);
        k += 1;
        match fate {
            crate::faults::FaultKind::Deliver => deliver_copy(msg),
            crate::faults::FaultKind::Duplicate => {
                c.faults_duplicated += 1;
                deliver_copy(msg.clone());
                deliver_copy(msg);
            }
            crate::faults::FaultKind::Drop => {
                let _ = deliver_copy; // end the closure's borrows for the tracer below
                c.faults_dropped += 1;
                tracer.push(|| TraceEvent::FaultDrop { round, from, to });
            }
            crate::faults::FaultKind::Delay => {
                let _ = deliver_copy; // end the closure's borrows for the tracer below
                c.faults_delayed += 1;
                let until = round + f.plan.delay_rounds;
                tracer.push(|| TraceEvent::FaultDelay {
                    round,
                    from,
                    to,
                    until,
                });
                f.delayed.push(DelayedMsg {
                    due: until,
                    from,
                    to,
                    msg,
                });
            }
        }
    })
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
