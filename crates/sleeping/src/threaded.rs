//! The worker pool: the dispatched round body of the one driver, run as
//! the Sleeping model's two synchronous steps over fixed chunks.
//!
//! Every run goes through one driver (see the `engine` module): it pops
//! each round's awake set and runs the round in one of two bodies. A
//! round runs **in place** on the calling thread — programs in their
//! slots, messages straight into the inbox arena — when the run has one
//! worker or the round's degree mass is at most `INLINE_MASS`:
//! sequential-greedy schedules spend most rounds waking a handful of
//! nodes, where the pool's barrier crossings would dwarf the work. Any
//! other round is **dispatched** over this module's pool. Both bodies call
//! the same per-node send, receive and apply functions, so the Sleeping
//! model's round is written once and the two bodies agree **bit for bit**
//! — equal outputs, [`Metrics`], traces and snapshot bytes — at every
//! worker count by construction, which the integration tests assert.
//!
//! A run selects its worker count with
//! [`RunSpec::workers`](crate::RunSpec) and goes through
//! [`Engine::run_spec`](crate::Engine::run_spec) like any other: fault
//! plans, checkpoints and resumes work the same way at every worker count,
//! and a snapshot taken at one resumes at another. The module's one
//! public function, [`run_threaded_timed`], is a fault-free run with
//! per-phase timing for programs without [`Persist`](crate::Persist)
//! state.
//!
//! # The dispatched round
//!
//! The model's round is synchronous — every awake node sends, then every
//! awake node receives — and the pool runs it as exactly that: a send step
//! and a receive step, each bounded by a barrier on both sides. `workers`
//! executors — the calling thread (executor 0, the coordinator) plus
//! `workers - 1` spawned threads — live across all rounds, and executor
//! `c` always runs chunk `c`. A dispatched round splits the sorted awake
//! set into at most `workers` contiguous chunks at **equal degree-mass
//! boundaries** (prefix sum over `degree + 1` of the awake set), so a
//! handful of hubs cannot serialize a round the way count-based chunking
//! would. Message routing and inbox construction happen inside the
//! executors; the coordinator partitions and merges:
//!
//! ```text
//!  coordinator (executor 0)              executor c (chunk c)
//!  ────────────────────────              ────────────────────
//!  lend next_wake, partition by
//!  degree mass, move each chunk's
//!  programs into it
//!  ════════════════ barrier: the send step opens ════════════════
//!  chunk 0's sends                       send_node per job, each delivered
//!                                        copy staged into the shard of its
//!                                        recipient's owner chunk; shards
//!                                        swapped into cells (c, owner)
//!  ════════════════ barrier: the send step closes ═══════════════
//!  merge send results in chunk
//!  order (first error wins), stage
//!  due delayed messages into their
//!  owner chunks, take next_wake back
//!  ════════════════ barrier: the receive step opens ═════════════
//!  chunk 0's receives                    drain cells (0..k, c) in source
//!                                        order (born sorted), deliver late
//!                                        messages, receive_node per job
//!  ════════════════ barrier: the receive step closes ════════════
//!  apply outcomes in chunk order
//! ```
//!
//! Determinism holds by construction: during a step, a chunk's buffers
//! belong to one thread, its executor; an exchange cell `(source, owner)`
//! is written in the send step by the source's executor only and drained
//! in the receive step by the owner's only; between steps only the
//! coordinator runs. So which thread ran a chunk, and when, leaves no
//! trace in any buffer, and:
//!
//! * **Every inbox is born sorted.** Chunks are contiguous in node order
//!   and senders within a chunk transmit in ascending order, so draining a
//!   recipient's incoming cells in source-chunk order concatenates
//!   already-sorted runs, exactly like the arena's.
//! * **All merges happen on the coordinator in chunk order** (= node
//!   order): awake/span attribution, message tallies, staged trace events,
//!   and each node's outcome through the driver's one apply function — so
//!   the stay lane, the wheel, the outputs and the trace see the in-place
//!   body's order.
//! * **The first failure in node order wins.** A chunk stops at its first
//!   error or panic; the coordinator inspects chunks in order after each
//!   step and returns the lowest chunk's error, or re-raises its panic —
//!   the failure the in-place body would hit. An executor catches a panic
//!   of its chunk's programs and still closes the step, and every exit of
//!   the run (completion, pause, error or unwinding) opens the shutdown
//!   step, so a panicking program reaches the caller instead of leaving
//!   the pool waiting.
//!
//! Chunk buffers and exchange cells recycle their capacity (swaps only —
//! payloads never move): the steady state allocates nothing per
//! node-round.

use crate::arena::ChunkInboxes;
use crate::engine::{
    drive, lap, receive_node, resolve_due_delays, send_node, Boundary, Exec, FaultCtx, FaultHooks,
    Outcome, SendLog, Stamp,
};
use crate::faults::DelayedMsg;
use crate::metrics::{Counters, Metrics, PhaseTimes};
use crate::program::{Envelope, OutEntry, Outbox, Program};
use crate::trace::{TraceMode, Tracer};
use crate::{Config, Paused, Round, Run, SimError};
use awake_graphs::{Graph, NodeId};
use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard, RwLock};
use std::thread;

/// One delivered message in an outbound owner shard: the recipient's dense
/// position within its owner chunk, plus the envelope to deliver.
struct ShardEntry<M> {
    to_local: u32,
    env: Envelope<M>,
}

/// Per-round context shared with the executors: written by the
/// coordinator between steps (to lend it the run's wake stamps and
/// publish the chunk map), read by every executor during the send step.
/// The lock is never contended — it exists to let the borrow checker
/// accept the sharing.
struct RoundCtx {
    /// `next_wake[v] = r`: `v` wakes at round `r`; `NEVER`: halted. The
    /// driver's own stamps, lent for the send step (empty otherwise).
    next_wake: Vec<Round>,
    /// Position of `v` in this round's awake set; only meaningful when
    /// `next_wake[v]` equals the current round (the stamp that guards it).
    awake_pos: Vec<u32>,
    /// Chunk boundaries as positions into the awake set: chunk `c` owns
    /// positions `bounds[c]..bounds[c+1]`. Strictly increasing,
    /// `bounds[0] = 0`, last entry = awake length.
    bounds: Vec<u32>,
    /// Owner chunk per awake position — one O(1) lookup on the message
    /// staging hot path instead of a `partition_point` binary search per
    /// delivered message. Filled in the same pass that stamps
    /// [`awake_pos`](Self::awake_pos).
    chunk: Vec<u32>,
}

impl RoundCtx {
    /// Stamp every awake node's position and owner chunk from `bounds`.
    fn stamp(&mut self, awake: &[u32]) {
        self.chunk.clear();
        let mut c = 0usize;
        for (i, &v) in awake.iter().enumerate() {
            self.awake_pos[v as usize] = i as u32;
            while self.bounds[c + 1] as usize <= i {
                c += 1;
            }
            self.chunk.push(c as u32);
        }
    }

    /// Where a message to awake node `to` is staged: the recipient's owner
    /// chunk and its entry there.
    #[inline]
    fn stage_entry<M>(&self, from: NodeId, to: NodeId, msg: M) -> (usize, ShardEntry<M>) {
        let pos = self.awake_pos[to.index()];
        let c = self.chunk[pos as usize] as usize;
        let entry = ShardEntry {
            to_local: pos - self.bounds[c],
            env: Envelope { from, msg },
        };
        (c, entry)
    }
}

/// Rounds whose total degree mass is at or below this run in place on the
/// coordinator instead of being dispatched: sequential-greedy schedules
/// wake a handful of nodes per round for most rounds, and a dispatched
/// round's four barrier crossings per executor dwarf a few hundred
/// nanoseconds of node work.
const INLINE_MASS: u64 = 256;

/// Fill `prefix` with the cumulative **degree mass** (`degree + 1` per
/// node, so isolated nodes still weigh in) of the awake set; returns the
/// total. Caller scratch, capacity reused across rounds.
fn degree_mass_prefix(graph: &Graph, awake: &[u32], prefix: &mut Vec<u64>) -> u64 {
    prefix.clear();
    let mut acc = 0u64;
    for &v in awake {
        acc += graph.degree(NodeId(v)) as u64 + 1;
        prefix.push(acc);
    }
    acc
}

/// Split the awake set into `k` non-empty contiguous chunks of roughly
/// equal degree mass, given its mass prefix sum. Boundary `j` lands at the
/// prefix position where cumulative mass crosses `j/k` of the total,
/// clamped so every chunk keeps at least one node — a single hub holding
/// most of the degree mass gets a chunk of its own instead of dragging
/// half the round's work into one worker.
///
/// Requires `1 <= k <= prefix.len()`.
fn partition_by_mass(prefix: &[u64], k: usize, bounds: &mut Vec<u32>) {
    debug_assert!(k >= 1 && k <= prefix.len());
    let total = *prefix.last().expect("non-empty awake set");
    bounds.clear();
    bounds.push(0);
    for j in 1..k {
        let target = total * j as u64 / k as u64;
        let cut = prefix.partition_point(|&p| p <= target);
        let lo = bounds[j - 1] as usize + 1;
        let hi = prefix.len() - (k - j);
        bounds.push(cut.clamp(lo, hi) as u32);
    }
    bounds.push(prefix.len() as u32);
}

/// One chunk of a dispatched round: its jobs and every buffer its two
/// steps fill, owned by executor `c` during a step and by the coordinator
/// between steps. All buffers recycle their capacity across rounds.
struct Chunk<P: Program> {
    round: Round,
    /// Fault plan + crash I/O of the run; `None` for fault-free runs.
    hooks: Option<FaultHooks<P>>,
    /// The chunk's `(node, program)` pairs, ascending by node.
    jobs: Vec<(u32, P)>,
    /// Recycled backing buffer of the chunk's outbox.
    out_items: Vec<OutEntry<P::Msg>>,
    /// Per-job `(node, span)`, captured before `send` exactly as the
    /// in-place body attributes it, in the chunk's node order.
    node_spans: Vec<(u32, &'static str)>,
    /// Message and injected-fault tallies of this chunk.
    tally: Counters,
    /// Messages fated to arrive in a later round, in the chunk's
    /// transmission order; the coordinator appends them (chunk order =
    /// node order) to the run's delayed buffer.
    delayed_out: Vec<DelayedMsg<P::Msg>>,
    /// Events staged by the send step, uncapped, in node order; absorbed
    /// by the coordinator in chunk order through the run's capped tracer.
    trace: Tracer,
    /// Send step: outbound messages sharded by the recipient's owner
    /// chunk. At the end of the step each shard is swapped into the
    /// exchange cell `(this chunk, owner chunk)`, taking back the buffer
    /// the cell's owner drained in the previous round.
    shards: Vec<Vec<ShardEntry<P::Msg>>>,
    /// `(node, start-of-round state)` of this chunk's nodes that crash
    /// this round, ascending by node. Written by the send step (the save
    /// is taken *before* the node acts), consumed by the receive step.
    crashes: Vec<(u32, Vec<u8>)>,
    /// Fault-delayed messages coming due this round for recipients in this
    /// chunk, staged by the coordinator between the steps; the receive
    /// step delivers them after the regular shards and restores each
    /// touched inbox's sorted-by-sender invariant.
    late: Vec<ShardEntry<P::Msg>>,
    /// Scratch: chunk positions touched by late deliveries.
    late_locals: Vec<u32>,
    /// The chunk's inboxes, indexed by position within the chunk.
    inboxes: ChunkInboxes<P::Msg>,
    /// Receive result: one outcome per job, in job order, up to the
    /// chunk's first error.
    outcomes: Vec<Outcome<P::Output>>,
    /// The step's first error, in node order (execution stops there).
    /// Taken by [`failure`](Self::failure); a round that fails ends the
    /// run, so every step starts with none.
    error: Option<SimError>,
    /// The payload of a panic that ended the step early.
    panic: Option<Box<dyn Any + Send>>,
}

impl<P: Program> Chunk<P> {
    fn new(stage: TraceMode) -> Self {
        Chunk {
            round: 0,
            hooks: None,
            jobs: Vec::new(),
            out_items: Vec::new(),
            node_spans: Vec::new(),
            tally: Counters::default(),
            delayed_out: Vec::new(),
            trace: Tracer::new(stage),
            shards: Vec::new(),
            crashes: Vec::new(),
            late: Vec::new(),
            late_locals: Vec::new(),
            inboxes: ChunkInboxes::new(),
            outcomes: Vec::new(),
            error: None,
            panic: None,
        }
    }

    /// The step's failure, if any: re-raise its panic on the calling
    /// thread, or return its error.
    fn failure(&mut self) -> Result<(), SimError> {
        if let Some(payload) = self.panic.take() {
            panic::resume_unwind(payload);
        }
        self.error.take().map_or(Ok(()), Err)
    }
}

/// The steps an executor runs between two barriers, as stored in
/// [`Pool::step`].
const SEND: u8 = 0;
const RECEIVE: u8 = 1;
/// Not a step: the executors leave their loop.
const SHUTDOWN: u8 = 2;

/// The pool shared by the executors: the round context, one chunk per
/// executor, the k×k exchange cells and the barrier. One per run,
/// borrowed by every executor for the duration of the scope.
struct Pool<'g, P: Program> {
    graph: &'g Graph,
    ctx: RwLock<RoundCtx>,
    /// Chunk `c`, run by executor `c`; `kmax` of them (the chunk count
    /// never exceeds the executor count).
    chunks: Vec<Mutex<Chunk<P>>>,
    /// Exchange cells, `(source chunk, owner chunk)`-addressed at
    /// `src * kmax + dst`: the send step of chunk `src` swaps its outbound
    /// shard for chunk `dst` into cell `(src, dst)`; the receive step of
    /// chunk `dst` drains cells `(0..k, dst)` in source order.
    cells: Vec<Mutex<Vec<ShardEntry<P::Msg>>>>,
    kmax: usize,
    /// Every executor waits here twice per step: once for the step to
    /// open, once for it to close.
    barrier: Barrier,
    /// The step the next opening of the barrier starts, and the current
    /// round's chunk count (executors `c >= k` sit the round out). The
    /// coordinator stores both before it opens a step; the barrier orders
    /// those stores before every executor's loads, so relaxed ordering
    /// suffices.
    step: AtomicU8,
    k: AtomicUsize,
}

impl<P: Program> Pool<'_, P> {
    #[inline]
    fn cell(&self, src: usize, dst: usize) -> MutexGuard<'_, Vec<ShardEntry<P::Msg>>> {
        self.cells[src * self.kmax + dst]
            .lock()
            .expect("exchange cell lock")
    }

    fn chunk(&self, c: usize) -> MutexGuard<'_, Chunk<P>> {
        self.chunks[c].lock().expect("chunk lock")
    }

    /// Coordinator side: open `step`, run chunk 0's share of it, and wait
    /// until every executor has closed it.
    fn run(&self, step: u8) {
        self.step.store(step, Ordering::Relaxed);
        self.barrier.wait();
        run_step(self, 0, step);
        self.barrier.wait();
    }
}

/// Executor `c`'s share of `step`: chunk `c`'s sends or receives, if the
/// round has that many chunks. A panic of the chunk's programs is caught
/// and kept for the coordinator, so the executor still closes the step.
fn run_step<P: Program>(pool: &Pool<'_, P>, c: usize, step: u8) {
    let k = pool.k.load(Ordering::Relaxed);
    if c >= k {
        return;
    }
    let mut guard = pool.chunk(c);
    let ch = &mut *guard;
    let ran = panic::catch_unwind(AssertUnwindSafe(|| {
        if step == SEND {
            send_step(pool, c, k, ch);
        } else {
            receive_step(pool, c, k, ch);
        }
    }));
    if let Err(payload) = ran {
        ch.panic = Some(payload);
    }
}

/// A spawned executor: run chunk `c`'s share of every step until the
/// shutdown step opens.
fn executor<P: Program>(pool: &Pool<'_, P>, c: usize) {
    loop {
        pool.barrier.wait();
        let step = pool.step.load(Ordering::Relaxed);
        if step == SHUTDOWN {
            return;
        }
        run_step(pool, c, step);
        pool.barrier.wait();
    }
}

/// The send step of chunk `c`: every job's sends against the round
/// context, then the outbound shards published into the exchange cells —
/// swapping each filled buffer for the drained one the cell held, so
/// capacity circulates and nothing reallocates.
fn send_step<P: Program>(pool: &Pool<'_, P>, c: usize, k: usize, ch: &mut Chunk<P>) {
    {
        let ctx = pool.ctx.read().expect("round context lock");
        // Monomorphized on fault presence, like the in-place body.
        if ch.hooks.is_some() {
            run_sends::<P, true>(pool.graph, &ctx, ch);
        } else {
            run_sends::<P, false>(pool.graph, &ctx, ch);
        }
    }
    for dst in 0..k {
        std::mem::swap(&mut *pool.cell(c, dst), &mut ch.shards[dst]);
    }
}

/// The receive step of chunk `c`: drain the cells addressed to it in
/// source-chunk order into its inboxes (born sorted by sender), then every
/// job's receive.
fn receive_step<P: Program>(pool: &Pool<'_, P>, c: usize, k: usize, ch: &mut Chunk<P>) {
    ch.inboxes.ensure(ch.jobs.len());
    for src in 0..k {
        let mut cell = pool.cell(src, c);
        ch.inboxes
            .extend_from(cell.drain(..).map(|e| (e.to_local, e.env)));
    }
    if ch.hooks.is_some() {
        run_receives::<P, true>(pool.graph, ch);
    } else {
        run_receives::<P, false>(pool.graph, ch);
    }
}

/// Each job's span, then [`send_node`] with every delivered copy staged
/// into the outbound shard of the recipient's owner chunk.
fn run_sends<P: Program, const FAULTY: bool>(graph: &Graph, ctx: &RoundCtx, ch: &mut Chunk<P>) {
    let k = ctx.bounds.len() - 1;
    let Chunk {
        round,
        hooks,
        jobs,
        out_items,
        node_spans,
        tally,
        delayed_out,
        trace,
        shards,
        crashes,
        error,
        ..
    } = ch;
    if shards.len() < k {
        shards.resize_with(k, Vec::new);
    }
    node_spans.clear();
    *tally = Counters::default();
    delayed_out.clear();
    crashes.clear();
    let mut outbox = Outbox::from_vec(std::mem::take(out_items));
    for (v, p) in jobs.iter_mut() {
        node_spans.push((*v, p.span()));
        let log = SendLog {
            tally,
            tracer: trace,
            hooks: hooks.as_ref(),
            delayed: delayed_out,
            crashes,
        };
        // A listening recipient's awake-position stamp is valid and names
        // its owner chunk.
        let stage = |from, to, msg| {
            let (c, entry) = ctx.stage_entry(from, to, msg);
            shards[c].push(entry);
        };
        let wake = &ctx.next_wake;
        let sent = send_node::<P, FAULTY>(graph, *round, *v, p, &mut outbox, wake, log, stage);
        if let Err(e) = sent {
            *error = Some(e);
            break;
        }
    }
    *out_items = outbox.into_vec();
}

/// Deliver the chunk's late messages, then run [`receive_node`] per job
/// over its inboxes, recording one outcome per job up to the first error.
fn run_receives<P: Program, const FAULTY: bool>(graph: &Graph, ch: &mut Chunk<P>) {
    let Chunk {
        round,
        hooks,
        jobs,
        crashes,
        late,
        late_locals,
        inboxes,
        outcomes,
        error,
        ..
    } = ch;
    // Fault-delayed messages coming due land after the ascending-sender
    // pass; deliver them, then restore each touched segment's
    // sorted-by-sender invariant (stable, so same-sender envelopes keep
    // their staging order — identical to the arena's resort).
    if FAULTY && !late.is_empty() {
        late_locals.clear();
        for e in late.drain(..) {
            late_locals.push(e.to_local);
            inboxes.push(e.to_local, e.env);
        }
        late_locals.sort_unstable();
        late_locals.dedup();
        for &l in late_locals.iter() {
            inboxes.resort(l as usize);
        }
    }
    outcomes.clear();
    let mut next_crash = 0;
    for (i, (v, p)) in jobs.iter_mut().enumerate() {
        let inbox = inboxes.inbox(i);
        let hooks = hooks.as_ref();
        match receive_node::<P, FAULTY>(
            graph,
            *round,
            *v,
            p,
            inbox,
            hooks,
            crashes,
            &mut next_crash,
        ) {
            Ok(outcome) => outcomes.push(outcome),
            Err(e) => {
                *error = Some(e);
                break;
            }
        }
        // Clear while the segment header is hot (see `arena`).
        inboxes.clear(i);
    }
    crashes.clear();
}

/// Merge one chunk's send results into the run metrics: awake/span
/// attribution per node in chunk order (= node order, preserving the
/// in-place body's span interning order), then the message tallies, then
/// the staged trace events (absorbed through the run's capped tracer, so
/// the global event sequence and drop count match the in-place body's).
/// The coordinator calls this in chunk index order.
fn merge_sends<P: Program>(
    ch: &mut Chunk<P>,
    metrics: &mut Metrics,
    tracer: &mut Tracer,
    faults: Option<&mut FaultCtx<P>>,
) {
    for &(v, span) in ch.node_spans.iter() {
        metrics.note_awake(NodeId(v), span);
    }
    metrics.counters += ch.tally;
    if let Some(f) = faults {
        // Chunk order = node order, so the run-wide delayed buffer grows
        // in transmission order.
        f.state.delayed.append(&mut ch.delayed_out);
    }
    tracer.absorb(&mut ch.trace.events);
}

/// The coordinator's handle on a running pool, plus its partition
/// scratch.
pub(crate) struct Dispatcher<'a, 'g, P: Program> {
    pool: &'a Pool<'g, P>,
    prefix: Vec<u64>,
}

impl<P: Program> Dispatcher<'_, '_, P> {
    /// The chunk count of a round over `awake`: one (the round runs in
    /// place) when its degree mass is at most [`INLINE_MASS`], otherwise
    /// one chunk per executor, capped at one node per chunk. Leaves the
    /// awake set's mass prefix behind for [`Exec::round_dispatched`] to
    /// partition by.
    pub(crate) fn chunks(&mut self, graph: &Graph, awake: &[u32]) -> usize {
        let mass = degree_mass_prefix(graph, awake, &mut self.prefix);
        if mass <= INLINE_MASS {
            1
        } else {
            self.pool.kmax.min(awake.len())
        }
    }
}

/// Opens the shutdown step when dropped, so the scope can join the
/// spawned executors on every exit of the run, unwinding included.
struct Shutdown<'a, 'g, P: Program>(&'a Pool<'g, P>);

impl<P: Program> Drop for Shutdown<'_, '_, P> {
    fn drop(&mut self) {
        self.0.step.store(SHUTDOWN, Ordering::Relaxed);
        self.0.barrier.wait();
    }
}

/// Run `body` with a pool of `workers` executors (the calling thread plus
/// `workers - 1` spawned ones), or with none when `workers <= 1`. `traced`
/// says whether the run records a trace.
pub(crate) fn with_pool<P: Program + Send, R>(
    graph: &Graph,
    workers: usize,
    traced: bool,
    body: impl FnOnce(Option<&mut Dispatcher<'_, '_, P>>) -> R,
) -> R {
    if workers <= 1 {
        return body(None);
    }
    // Chunks stage trace events uncapped; the run's tracer applies the cap
    // as it absorbs them in chunk order.
    let stage = if traced {
        TraceMode::Capped(usize::MAX)
    } else {
        TraceMode::Off
    };
    // Preallocated once; the steady state only swaps buffers through it.
    let pool: Pool<'_, P> = Pool {
        graph,
        ctx: RwLock::new(RoundCtx {
            next_wake: Vec::new(),
            awake_pos: vec![0u32; graph.n()],
            bounds: Vec::new(),
            chunk: Vec::new(),
        }),
        chunks: (0..workers)
            .map(|_| Mutex::new(Chunk::new(stage)))
            .collect(),
        cells: (0..workers * workers)
            .map(|_| Mutex::new(Vec::new()))
            .collect(),
        kmax: workers,
        barrier: Barrier::new(workers),
        step: AtomicU8::new(SHUTDOWN),
        k: AtomicUsize::new(0),
    };
    thread::scope(|scope| {
        for c in 1..workers {
            let pool = &pool;
            scope.spawn(move || executor(pool, c));
        }
        let _shutdown = Shutdown(&pool);
        body(Some(&mut Dispatcher {
            pool: &pool,
            prefix: Vec::new(),
        }))
    })
}

impl<P: Program> Exec<'_, P> {
    /// A dispatched round over the `k > 1` chunks [`Dispatcher::chunks`]
    /// counted (its mass prefix is still in `d`): lend the wake stamps to
    /// the pool and move the chunks' programs in, run the send step, merge
    /// its results in chunk order, stage fault-delayed messages coming due
    /// into their recipients' chunks and take the stamps back, run the
    /// receive step, and apply every chunk's outcomes in chunk order (=
    /// node order) through [`Boundary::apply`].
    pub(crate) fn round_dispatched(
        &mut self,
        d: &mut Dispatcher<'_, '_, P>,
        round: Round,
        k: usize,
        stamp: &mut Stamp<'_>,
    ) -> Result<(), SimError> {
        let pool = d.pool;
        let hooks = self.at.faults.as_ref().map(FaultCtx::hooks);
        {
            let mut ctx = pool.ctx.write().expect("round context lock");
            std::mem::swap(&mut ctx.next_wake, &mut self.at.next_wake);
            partition_by_mass(&d.prefix, k, &mut ctx.bounds);
            ctx.stamp(&self.awake);
            for c in 0..k {
                let mut ch = pool.chunk(c);
                ch.round = round;
                ch.hooks = hooks;
                ch.jobs.clear();
                for &v in &self.awake[ctx.bounds[c] as usize..ctx.bounds[c + 1] as usize] {
                    let p = self.programs[v as usize]
                        .take()
                        .expect("program in its slot");
                    ch.jobs.push((v, p));
                }
            }
        }
        pool.k.store(k, Ordering::Relaxed);
        lap(stamp, |t| &mut t.partition_ns);

        pool.run(SEND);
        lap(stamp, |t| &mut t.route_ns);
        let at = &mut self.at;
        for c in 0..k {
            let mut ch = pool.chunk(c);
            ch.failure()?;
            merge_sends(&mut ch, &mut at.metrics, &mut at.tracer, at.faults.as_mut());
        }
        {
            let mut ctx = pool.ctx.write().expect("round context lock");
            if let Some(f) = at.faults.as_mut() {
                let (wake, c) = (&ctx.next_wake, &mut at.metrics.counters);
                resolve_due_delays(&mut f.state, round, wake, c, &mut at.tracer, |m| {
                    let (owner, entry) = ctx.stage_entry(m.from, m.to, m.msg);
                    pool.chunk(owner).late.push(entry);
                });
            }
            std::mem::swap(&mut ctx.next_wake, &mut at.next_wake);
        }
        lap(stamp, |t| &mut t.merge_ns);

        pool.run(RECEIVE);
        lap(stamp, |t| &mut t.deliver_ns);
        let mut recovery = false;
        for c in 0..k {
            let mut guard = pool.chunk(c);
            let ch = &mut *guard;
            // Outcomes before the chunk's first failure apply first, as in
            // the in-place body. `FAULTY = true` leaves the fault checks to
            // run time: a dispatched round is heavy enough not to notice.
            for ((v, p), outcome) in ch.jobs.drain(..).zip(ch.outcomes.drain(..)) {
                recovery |= self.at.apply::<true>(round, v, outcome)?;
                self.programs[v as usize] = Some(p);
            }
            ch.failure()?;
        }
        if recovery {
            self.at.metrics.recovery_rounds += 1;
        }
        lap(stamp, |t| &mut t.merge_ns);
        Ok(())
    }
}

/// Run `programs` fault-free with `workers` executors, accumulating
/// per-phase wall time into `timing` ([`PhaseTimes`]) — partition / route
/// / deliver / merge for dispatched rounds, a single bucket for in-place
/// ones. The probe reads the clock only between steps on the coordinator,
/// so the run itself (outputs, [`Metrics`], trace) is bit for bit the
/// one-worker run's. Kept with this signature because the `perfbench`
/// benchmark calls it: it forwards into the driver behind
/// [`Engine::run_spec`](crate::Engine::run_spec) without that method's
/// [`Persist`](crate::Persist) bounds.
///
/// # Errors
/// Same contract as [`Engine::run`](crate::Engine::run) ([`SimError`]),
/// with its error precedence (lowest node id first).
pub fn run_threaded_timed<P>(
    graph: &Graph,
    programs: Vec<P>,
    config: Config,
    workers: usize,
    timing: &mut PhaseTimes,
) -> Result<Run<P::Output>, SimError>
where
    P: Program + Send,
{
    let start = Boundary::start(graph, config, &programs, None)?;
    let traced = start.tracer.enabled();
    with_pool(graph, workers, traced, |pool| {
        drive(graph, programs, start, pool, None, Some(timing))
    })
    .map(Paused::finished)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        Action, CheckpointError, Codec, Engine, FaultPlan, Persist, Reader, ResumeError, RunSpec,
        Snapshot, TraceMode, View, Writer,
    };
    use awake_graphs::generators;

    /// Flood the maximum ident seen so far for `n` rounds, then halt.
    #[derive(Clone)]
    struct FloodMax {
        best: u64,
        rounds: u64,
    }

    impl Program for FloodMax {
        type Msg = u64;
        type Output = u64;
        fn send(&mut self, _view: &View, out: &mut Outbox<u64>) {
            out.broadcast(self.best);
        }
        fn receive(&mut self, view: &View, inbox: &[Envelope<u64>]) -> Action {
            self.best = self.best.max(view.ident);
            for e in inbox {
                self.best = self.best.max(e.msg);
            }
            if view.round >= self.rounds {
                Action::Halt
            } else {
                Action::Stay
            }
        }
        fn output(&self) -> Option<u64> {
            Some(self.best)
        }
    }

    /// `Persist` for test programs whose whole dynamic state is one
    /// `Codec` field (or nothing).
    macro_rules! persist {
        ($t:ty, $field:ident) => {
            impl Persist for $t {
                fn save(&self, w: &mut Writer) {
                    self.$field.encode(w);
                }
                fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), CheckpointError> {
                    self.$field = r.get()?;
                    Ok(())
                }
            }
        };
        ($t:ty) => {
            impl Persist for $t {
                fn save(&self, _: &mut Writer) {}
                fn restore(&mut self, _: &mut Reader<'_>) -> Result<(), CheckpointError> {
                    Ok(())
                }
            }
        };
    }
    persist!(FloodMax, best);

    /// Run `spec` to completion (no pause bound is set by callers).
    fn run<P>(
        g: &Graph,
        programs: Vec<P>,
        cfg: Config,
        spec: &RunSpec,
    ) -> Result<Run<P::Output>, SimError>
    where
        P: Program + Persist + Send,
        P::Msg: Codec,
        P::Output: Codec,
    {
        match Engine::new(g, cfg).run_spec(programs, spec) {
            Ok(paused) => Ok(paused.finished()),
            Err(ResumeError::Sim(e)) => Err(e),
            Err(e) => panic!("snapshot failed to decode: {e}"),
        }
    }

    /// The pool rows of every agreement table: one per worker count, with
    /// an optional fault plan.
    fn pool_specs(workers: &[usize], plan: Option<FaultPlan>) -> Vec<RunSpec<'static>> {
        workers
            .iter()
            .map(|&w| RunSpec::on(w).with_faults(plan))
            .collect()
    }

    fn label(spec: &RunSpec) -> String {
        format!(
            "workers = {}, faults = {}",
            spec.workers,
            spec.faults.is_some()
        )
    }

    fn snapshot_at<P>(g: &Graph, programs: Vec<P>, spec: &RunSpec, bound: Round) -> Snapshot
    where
        P: Program + Persist + Send,
        P::Msg: Codec,
        P::Output: Codec,
    {
        let spec = spec.pause_after(bound);
        Engine::new(g, Config::default())
            .run_spec(programs, &spec)
            .unwrap()
            .into_snapshot()
    }

    /// The agreement table: every pool row of [`pool_specs`] agrees with the
    /// serial engine bit for bit — outputs, metrics and a capped trace
    /// (cap 500 bites on the larger workloads, so both the kept prefix and
    /// the drop counter are checked) — fault-free and under a seeded plan.
    /// A pause halfway through is byte-identical on every row, and resumes
    /// to the uninterrupted run on the other executor.
    fn assert_bitwise_equal<P>(g: &Graph, mk: impl Fn() -> Vec<P>, workers: &[usize])
    where
        P: Program + Persist + Send,
        P::Msg: Codec,
        P::Output: Codec + PartialEq,
    {
        let mut plan = FaultPlan::new(77);
        plan.drop_ppm = 60_000;
        plan.dup_ppm = 60_000;
        plan.delay_ppm = 60_000;
        plan.crash_ppm = 20_000;
        plan.delay_rounds = 1;
        let traced = Config {
            trace: TraceMode::Capped(500),
            ..Config::default()
        };
        for faults in [None, Some(plan)] {
            let serial = RunSpec::default().with_faults(faults);
            let want = run(g, mk(), Config::default(), &serial).unwrap();
            let want_traced = run(g, mk(), traced, &serial).unwrap();
            let pause = want.metrics.rounds / 2;
            let serial_snap = (pause > 0).then(|| snapshot_at(g, mk(), &serial, pause));
            for spec in pool_specs(workers, faults) {
                let at = label(&spec);
                let got = run(g, mk(), Config::default(), &spec).unwrap();
                assert!(want.outputs == got.outputs, "outputs, {at}");
                assert_eq!(want.metrics, got.metrics, "metrics, {at}");
                let got = run(g, mk(), traced, &spec).unwrap();
                assert_eq!(want_traced.trace, got.trace, "trace, {at}");
                assert_eq!(
                    want_traced.trace_dropped, got.trace_dropped,
                    "trace_dropped, {at}"
                );
                let Some(serial_snap) = &serial_snap else {
                    continue;
                };
                // Both steps close before every boundary, so the pool's
                // pause is the serial engine's byte for byte.
                let pool_snap = snapshot_at(g, mk(), &spec, pause);
                assert_eq!(&pool_snap, serial_snap, "snapshot bytes, {at}");
                for (snap, on) in [(serial_snap, spec), (&pool_snap, serial)] {
                    let resume = on.resume_from(snap);
                    let got = run(g, mk(), Config::default(), &resume).unwrap();
                    assert!(want.outputs == got.outputs, "resumed outputs, {at}");
                    assert_eq!(want.metrics, got.metrics, "resumed metrics, {at}");
                }
            }
        }
    }

    fn flood(n: usize, rounds: u64) -> impl Fn() -> Vec<FloodMax> {
        move || (0..n).map(|_| FloodMax { best: 0, rounds }).collect()
    }

    #[test]
    fn threaded_matches_serial_flood() {
        // 160 nodes: total degree mass (2m + n = 478) exceeds INLINE_MASS,
        // so dense rounds genuinely run the multi-chunk parallel pipeline.
        let g = generators::random_tree(160, 9);
        assert_bitwise_equal(&g, flood(160, 170), &[1, 2, 4, 8]);
        let pool = RunSpec::on(4);
        let run = run(&g, flood(160, 170)(), Config::default(), &pool).unwrap();
        // everyone learned the max ident (tree has diameter < 170 rounds)
        assert!(run.outputs.iter().all(|&b| b == 160));
    }

    #[test]
    fn threaded_single_worker() {
        let g = generators::cycle(6);
        let pool = RunSpec::on(1);
        let run = run(&g, flood(6, 3)(), Config::default(), &pool).unwrap();
        assert_eq!(run.metrics.rounds, 3);
    }

    #[test]
    fn more_workers_than_awake_nodes() {
        // Tiny awake set, tiny mass: the inline path absorbs the round.
        let g = generators::path(3);
        assert_bitwise_equal(&g, flood(3, 3), &[1, 16]);
        let pool = RunSpec::on(16);
        let run = run(&g, flood(3, 3)(), Config::default(), &pool).unwrap();
        assert_eq!(run.outputs, vec![3, 3, 3]);
        assert_eq!(run.metrics.rounds, 3);
    }

    #[test]
    fn more_workers_than_awake_nodes_in_the_dispatched_path() {
        // K_20: only 20 awake nodes but degree mass 400 > INLINE_MASS, so
        // the round dispatches with k = 20 chunks under 32 workers — the
        // chunker must cap k at the awake count, one node per chunk.
        let g = generators::complete(20);
        assert_bitwise_equal(&g, flood(20, 3), &[32]);
        let pool = RunSpec::on(32);
        let run = run(&g, flood(20, 3)(), Config::default(), &pool).unwrap();
        assert!(run.outputs.iter().all(|&b| b == 20));
    }

    #[test]
    fn threaded_detects_budget() {
        let g = generators::path(2);
        for spec in pool_specs(&[1, 2], None) {
            let err = run(&g, flood(2, 100)(), Config::with_max_rounds(5), &spec).unwrap_err();
            assert_eq!(
                err,
                SimError::RoundBudgetExceeded { limit: 5 },
                "{}",
                label(&spec)
            );
        }
    }

    /// One worker and the pool at 2 and 4 workers, with an optional fault
    /// plan.
    fn overflow_specs(plan: Option<FaultPlan>) -> Vec<RunSpec<'static>> {
        [1, 2, 4].map(|w| RunSpec::on(w).with_faults(plan)).into()
    }

    #[test]
    fn delay_past_the_last_round_is_a_typed_error() {
        // Half of all transmissions are delayed by u64::MAX rounds: the due
        // round overflows and must surface as a typed error instead of
        // wrapping into an early due round. P_8 runs every round in place;
        // P_200 (degree mass 598) dispatches round 1.
        let mut plan = FaultPlan::new(5);
        plan.delay_ppm = 500_000;
        plan.delay_rounds = u64::MAX;
        for n in [8, 200] {
            let g = generators::path(n);
            for spec in overflow_specs(Some(plan)) {
                let err = run(&g, flood(n, 5)(), Config::default(), &spec).unwrap_err();
                let at = label(&spec);
                assert_eq!(err, SimError::RoundOverflow { round: 1 }, "n = {n}, {at}");
            }
        }
    }

    /// Wakes at `u64::MAX - 1` and stays awake.
    struct StaysToTheEnd;
    persist!(StaysToTheEnd);

    impl Program for StaysToTheEnd {
        type Msg = ();
        type Output = ();
        fn initial_wake(&self) -> Option<Round> {
            Some(u64::MAX - 1)
        }
        fn send(&mut self, _: &View, _: &mut Outbox<()>) {}
        fn receive(&mut self, _: &View, _: &[Envelope<()>]) -> Action {
            Action::Stay
        }
        fn output(&self) -> Option<()> {
            None
        }
    }

    #[test]
    fn stay_past_the_last_round_is_a_typed_error() {
        // With the whole u64 range as budget, a stay at the last round has
        // no next round to wake in.
        let g = generators::path(2);
        let cfg = Config::with_max_rounds(u64::MAX);
        for spec in overflow_specs(None) {
            let progs = vec![StaysToTheEnd, StaysToTheEnd];
            let err = run(&g, progs, cfg, &spec).unwrap_err();
            let want = SimError::RoundOverflow { round: u64::MAX };
            assert_eq!(err, want, "{}", label(&spec));
        }
        let err = Engine::new(&g, cfg)
            .run(vec![StaysToTheEnd, StaysToTheEnd])
            .unwrap_err();
        assert!(err.to_string().contains("overflows"));
    }

    // ---- degree-weighted partitioning ----

    fn split(g: &Graph, awake: &[u32], k: usize) -> Vec<u32> {
        let (mut prefix, mut bounds) = (Vec::new(), Vec::new());
        degree_mass_prefix(g, awake, &mut prefix);
        partition_by_mass(&prefix, k, &mut bounds);
        bounds
    }

    #[test]
    fn partition_balances_uniform_degree_mass() {
        let g = generators::cycle(12); // every node mass 3
        let awake: Vec<u32> = (0..12).collect();
        assert_eq!(split(&g, &awake, 4), vec![0, 3, 6, 9, 12]);
    }

    #[test]
    fn partition_isolates_a_dominant_hub() {
        // Star: the hub (node 0) holds half the endpoint degree mass; the
        // splitter must give it a narrow chunk instead of dragging half
        // the leaves into worker 0.
        let g = generators::star(33); // hub degree 32, leaves degree 1
        let awake: Vec<u32> = (0..33).collect();
        let bounds = split(&g, &awake, 4);
        assert_eq!(bounds.len(), 5);
        assert_eq!((bounds[0], bounds[4]), (0, 33));
        assert!(
            bounds[1] == 1,
            "hub chunk must be the hub alone, got bounds {bounds:?}"
        );
        // every chunk non-empty and monotone
        assert!(bounds.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn partition_survives_single_node_and_k_equals_len() {
        let g = generators::path(4);
        assert_eq!(split(&g, &[2], 1), vec![0, 1]);
        let awake: Vec<u32> = (0..4).collect();
        assert_eq!(split(&g, &awake, 4), vec![0, 1, 2, 3, 4]);
    }

    // ---- degenerate shapes the chunker must survive ----

    /// Node 0 stays awake through `rounds`; everyone else halts at round 1:
    /// every later round has a single awake node under many workers.
    struct LoneStayer {
        rounds: u64,
        heard: u64,
    }
    persist!(LoneStayer, heard);

    impl Program for LoneStayer {
        type Msg = u64;
        type Output = u64;
        fn send(&mut self, view: &View, out: &mut Outbox<u64>) {
            out.broadcast(view.ident);
        }
        fn receive(&mut self, view: &View, inbox: &[Envelope<u64>]) -> Action {
            self.heard += inbox.len() as u64;
            if view.round >= self.rounds {
                Action::Halt
            } else {
                Action::Stay
            }
        }
        fn output(&self) -> Option<u64> {
            Some(self.heard)
        }
    }

    #[test]
    fn single_awake_node_rounds_under_many_workers() {
        let g = generators::star(6);
        let mk = || {
            (0..6)
                .map(|v| LoneStayer {
                    rounds: if v == 0 { 5 } else { 1 },
                    heard: 0,
                })
                .collect::<Vec<_>>()
        };
        assert_bitwise_equal(&g, mk, &[1, 2, 4, 8]);
        let run = Engine::new(&g, Config::default()).run(mk()).unwrap();
        // round 1: hub hears all 5 leaves; rounds 2..=5: hub is alone and
        // its broadcasts are lost to the halted leaves.
        assert_eq!(run.outputs[0], 5);
        assert_eq!(run.metrics.messages_lost, 4 * 5);
        assert_eq!(run.metrics.rounds, 5);
    }

    /// Wakes at `wake`, broadcasts once, halts — wheel wakes separated by
    /// long fully-asleep gaps the skip-ahead must jump over.
    struct GappedWake {
        wake: Round,
        heard: u64,
    }
    persist!(GappedWake, heard);

    impl Program for GappedWake {
        type Msg = u64;
        type Output = u64;
        fn initial_wake(&self) -> Option<Round> {
            Some(self.wake)
        }
        fn send(&mut self, view: &View, out: &mut Outbox<u64>) {
            out.broadcast(view.ident);
        }
        fn receive(&mut self, _view: &View, inbox: &[Envelope<u64>]) -> Action {
            self.heard = inbox.len() as u64;
            Action::Halt
        }
        fn output(&self) -> Option<u64> {
            Some(self.heard)
        }
    }

    #[test]
    fn empty_awake_gaps_between_wheel_wakes() {
        // Pairs meet at rounds 10, 1_000 and 10^9; every round in between
        // has no awake node and must be skipped, not chunked.
        let g = generators::path(6);
        let wakes = [10u64, 10, 1_000, 1_000, 1_000_000_000, 1_000_000_000];
        let mk = || {
            wakes
                .iter()
                .map(|&wake| GappedWake { wake, heard: 0 })
                .collect::<Vec<_>>()
        };
        assert_bitwise_equal(&g, mk, &[1, 2, 4, 8]);
        let run = Engine::new(&g, Config::default()).run(mk()).unwrap();
        assert_eq!(run.metrics.rounds, 1_000_000_000);
        assert_eq!(run.metrics.awake, vec![1; 6]);
        // each pair only hears its partner (outer neighbors sleep)
        assert_eq!(run.outputs, vec![1, 1, 1, 1, 1, 1]);
    }

    #[test]
    fn hub_holding_most_degree_agrees_across_worker_counts() {
        // A star plus a leaf-path tail, big enough to stay above the
        // inline cutoff: the hub dominates the degree mass, exercising the
        // splitter's boundary clamps at every worker count.
        let mut b = awake_graphs::GraphBuilder::new(240);
        for v in 1..200u32 {
            b.edge(0, v);
        }
        for v in 200..240u32 {
            b.edge(v - 1, v);
        }
        let g = b.build().unwrap();
        assert_bitwise_equal(&g, flood(240, 12), &[1, 2, 3, 4, 8, 16]);
    }

    // ---- error precedence matches the serial engine ----

    struct BadSendAt {
        bad: bool,
    }
    persist!(BadSendAt);
    impl Program for BadSendAt {
        type Msg = ();
        type Output = ();
        fn send(&mut self, view: &View, out: &mut Outbox<()>) {
            if self.bad {
                // address a non-neighbor: 2 hops away on a path
                let target = NodeId((view.me.0 + 2) % view.n as u32);
                out.to(target, ());
            }
        }
        fn receive(&mut self, _: &View, _: &[Envelope<()>]) -> Action {
            Action::Halt
        }
        fn output(&self) -> Option<()> {
            Some(())
        }
    }

    #[test]
    fn routing_error_reports_lowest_offending_node() {
        // Round 1 on P_200 has degree mass 598 > INLINE_MASS: the error
        // surfaces from the parallel path, where higher chunks' offenders
        // run concurrently and must lose to node 3's error.
        let g = generators::path(200);
        let mk = || {
            (0..200)
                .map(|v| BadSendAt { bad: v >= 3 })
                .collect::<Vec<_>>()
        };
        let serial_err = Engine::new(&g, Config::default()).run(mk()).unwrap_err();
        assert_eq!(
            serial_err,
            SimError::NotANeighbor {
                from: NodeId(3),
                to: NodeId(5)
            }
        );
        for spec in pool_specs(&[1, 2, 4, 8], None) {
            let err = run(&g, mk(), Config::default(), &spec).unwrap_err();
            assert_eq!(err, serial_err, "{}", label(&spec));
        }
    }

    struct SleepsBackward {
        offender: bool,
    }
    persist!(SleepsBackward);
    impl Program for SleepsBackward {
        type Msg = ();
        type Output = ();
        fn send(&mut self, _: &View, _: &mut Outbox<()>) {}
        fn receive(&mut self, view: &View, _: &[Envelope<()>]) -> Action {
            if view.round >= 2 && self.offender {
                Action::SleepUntil(view.round) // invalid: not in the future
            } else if view.round >= 3 {
                Action::Halt
            } else {
                Action::Stay
            }
        }
        fn output(&self) -> Option<()> {
            Some(())
        }
    }

    #[test]
    fn invalid_sleep_reports_lowest_offending_node() {
        // C_150 (mass 450): the offending round runs the parallel path.
        let g = generators::cycle(150);
        for spec in pool_specs(&[1, 2, 4, 8], None) {
            let progs: Vec<SleepsBackward> = (0..150)
                .map(|v| SleepsBackward { offender: v >= 4 })
                .collect();
            let err = run(&g, progs, Config::default(), &spec).unwrap_err();
            assert_eq!(
                err,
                SimError::InvalidSleep {
                    node: NodeId(4),
                    round: 2,
                    until: 2
                },
                "{}",
                label(&spec)
            );
        }
    }

    #[test]
    fn timed_run_attributes_rounds() {
        // The timing probe must account every executed round exactly once
        // (skipped rounds are free) and leave the run itself untouched.
        let g = generators::random_tree(160, 9);
        let serial = Engine::new(&g, Config::default())
            .run(flood(160, 40)())
            .unwrap();
        let mut t = PhaseTimes::default();
        let timed = run_threaded_timed(&g, flood(160, 40)(), Config::default(), 4, &mut t).unwrap();
        assert_eq!(serial.metrics, timed.metrics);
        assert!(serial.outputs == timed.outputs);
        assert_eq!(
            t.rounds(),
            timed.metrics.rounds - timed.metrics.rounds_skipped,
            "every executed round lands in exactly one bucket"
        );
        assert!(t.dispatched_rounds > 0, "dense rounds must dispatch");
    }

    // ---- a panicking program reaches the caller ----

    /// Panics at round 1 at node `bad`, in `send` or in `receive`.
    struct PanicsAt {
        bad: u32,
        in_send: bool,
    }

    impl Program for PanicsAt {
        type Msg = ();
        type Output = ();
        fn send(&mut self, view: &View, out: &mut Outbox<()>) {
            if self.in_send && view.me.0 == self.bad {
                panic!("node {} panics in send", self.bad);
            }
            out.broadcast(());
        }
        fn receive(&mut self, view: &View, _: &[Envelope<()>]) -> Action {
            if !self.in_send && view.me.0 == self.bad {
                panic!("node {} panics in receive", self.bad);
            }
            Action::Halt
        }
        fn output(&self) -> Option<()> {
            Some(())
        }
    }

    #[test]
    fn a_panicking_program_reaches_the_caller() {
        // Round 1 on P_200 (degree mass 598) dispatches: node 0 is in the
        // first chunk, node 199 in the last. A pool that lost a step to a
        // panic would wait forever, so each run goes on a helper thread and
        // the test waits for its panic with a timeout.
        for workers in [1, 2, 4, 8] {
            for bad in [0, 199] {
                for in_send in [true, false] {
                    let (tx, rx) = std::sync::mpsc::channel();
                    thread::spawn(move || {
                        let g = generators::path(200);
                        let progs = (0..200).map(|_| PanicsAt { bad, in_send }).collect();
                        let mut t = PhaseTimes::default();
                        let ran = panic::catch_unwind(AssertUnwindSafe(|| {
                            run_threaded_timed(&g, progs, Config::default(), workers, &mut t)
                        }));
                        let msg = ran.err().and_then(|p| p.downcast_ref::<String>().cloned());
                        tx.send(msg).expect("the test waits for the run");
                    });
                    let at = format!("workers = {workers}, node {bad}, in send: {in_send}");
                    let got = rx
                        .recv_timeout(std::time::Duration::from_secs(30))
                        .unwrap_or_else(|_| panic!("the run hung, {at}"));
                    let step = if in_send { "send" } else { "receive" };
                    let want = format!("node {bad} panics in {step}");
                    assert_eq!(got.as_deref(), Some(want.as_str()), "{at}");
                }
            }
        }
    }
}
