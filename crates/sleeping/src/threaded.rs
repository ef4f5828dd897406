//! A multi-threaded executor with an owner-sharded parallel delivery
//! pipeline over a persistent worker pool.
//!
//! The serial engine is the reference implementation; this executor
//! demonstrates that the [`Program`] abstraction maps onto real parallel
//! hardware without giving up determinism: the two executors agree **bit
//! for bit** — equal outputs *and* equal [`Metrics`] — which the
//! integration tests assert at every worker count.
//!
//! A run selects this executor with [`RunSpec::workers`](crate::RunSpec)
//! and goes through [`Engine::run_spec`](crate::Engine::run_spec) like any
//! other: fault plans, checkpoints and resumes all work the same way on
//! both executors, and a snapshot taken on one resumes on the other. The
//! module's one public function, [`run_threaded_timed`], is a fault-free
//! pool run with per-phase timing for programs without
//! [`Persist`](crate::Persist) state.
//!
//! # Design
//!
//! `workers` threads are spawned once per run and live across all rounds.
//! Each round the sorted awake set is split into at most `workers`
//! contiguous chunks at **equal degree-mass boundaries** (prefix sum over
//! `degree + 1` of the awake set), so a handful of hubs cannot serialize a
//! round the way count-based chunking would. Message routing and inbox
//! construction happen **inside the workers**; the coordinator is reduced
//! to synchronization and a deterministic merge:
//!
//! ```text
//!  coordinator                       executor e (coordinator or worker)
//!  ───────────                       ──────────────────────────────────
//!  pop awake set for round r
//!  partition by degree mass,
//!  publish {next_wake, chunk map},
//!  park chunk jobs in the slot
//!  arena, open SEND descriptors ──▶  claim a READY send descriptor c
//!                                    (CAS, scan offset by executor id):
//!                                    run send(), validate/expand, stage
//!                                    each message into exchange cell
//!                                    (c, owner); publish results, count
//!                                    down every chunk's pending gate —
//!                                    last contributor opens that
//!                                    chunk's RECEIVE descriptor
//!  consume send results in     ◀──   (claim-and-publish: no barrier)
//!  chunk order (helping via
//!  steal while waiting); merge
//!  tallies/spans/traces/errors       claim a READY receive descriptor d:
//!                                    drain cells (0..k, d) in source
//!  consume receive partials in ◀──   order into local segments (born
//!  chunk order, apply stays/         sorted), run receive() per node,
//!  sleeps/halts, schedule_all        publish action partials
//! ```
//!
//! There is no per-phase barrier: a chunk's receive descriptor opens the
//! moment the *last* send contribution for it lands (`pending` countdown),
//! while other chunks' sends are still running; idle executors steal
//! whatever descriptor is READY. The coordinator itself executes
//! descriptors while it waits, so `workers = 1` spawns no threads and
//! `workers = w` has `w` executors (`w - 1` spawned).
//!
//! Determinism survives stealing because of four invariants:
//!
//! * **Executor identity is unobservable.** Work units are *chunk*
//!   descriptors, not worker assignments: a chunk's batch, shards and
//!   result buffers are indexed by chunk, every phase body reads only the
//!   round context and its own chunk's state, and exchange cells are
//!   `(source chunk, owner chunk)`-addressed. Who executes a descriptor
//!   leaves no trace in any buffer.
//! * **Chunks are contiguous in node order** and senders within a chunk
//!   transmit in ascending order, so draining a recipient's incoming
//!   cells in source-chunk index order concatenates already-sorted runs
//!   — every inbox is born sorted by sender, exactly like the serial
//!   arena's.
//! * **All merges happen coordinator-side in chunk index order** (= node
//!   order): awake/span attribution, message tallies, stay-lane
//!   extension, batched wheel `schedule_all` and halt outputs — identical
//!   to the serial engine's per-node order, whatever order descriptors
//!   actually executed in.
//! * **Error precedence is by lowest node id**: an executor stops at its
//!   chunk's first error and raises a run-wide abort flag (sequenced
//!   before its pending countdown, so no receive descriptor can open on
//!   an aborting round); the coordinator consumes results in chunk order
//!   and surfaces the first error of the lowest-indexed chunk — the error
//!   the serial engine would hit.
//!
//! Batches, shard buffers and exchange cells recycle their capacity
//! (swaps only — payloads never move), executor-local segment pools are
//! retained across rounds: the steady state allocates nothing per
//! node-round. Rounds whose total degree mass is tiny (see `INLINE_MASS`)
//! run **inline** on the coordinator through the very same phase
//! functions — skip-ahead schedules spend most rounds waking a handful of
//! nodes, where descriptor traffic would dwarf the work; the inline path
//! is a single-chunk instance of the same pipeline, so results are
//! identical by construction.
//!
//! Tracing rides the same merge discipline: when [`Config::trace`] is on,
//! each descriptor stages its chunk's [`TraceEvent`]s in node order
//! (awake → per-message delivered/lost in the send phase; sleep/halt in
//! the receive phase) and the coordinator absorbs the staged buffers **in
//! chunk order** through the shared capped tracer — so [`Run::trace`]
//! (and [`Run::trace_dropped`]) is bit-identical to the serial engine's
//! at any worker count.
//!
//! A seeded chaos hook (test-only) perturbs scheduling at every claim
//! point — forced steals, yields, parks, unpark storms — and the
//! equivalence tests assert bit-for-bit agreement under those
//! interleavings too; see `ChaosPlan`.

use crate::arena::ChunkInboxes;
use crate::checkpoint::{
    Controller, CrashIo, EngineStateRef, Paused, ProgramsRef, Reader, Snapshot, Writer,
};
use crate::engine::{
    finish_run, next_awake_set, peek_next, resolve_due_delays, route_entries, Boundary, FaultCtx,
    NEVER,
};
use crate::faults::{DelayedMsg, FaultKind, FaultPlan};
use crate::metrics::{Counters, Metrics, PhaseTimes};
use crate::program::{Action, Envelope, OutEntry, Outbox, Program, View};
use crate::trace::{TraceEvent, Tracer};
use crate::wheel::WakeWheel;
use crate::{Config, Round, Run, SimError};
use awake_graphs::{Graph, NodeId};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, RwLock};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

/// One delivered message in an outbound owner shard: the recipient's dense
/// position within its owner chunk, plus the envelope to deliver.
struct ShardEntry<M> {
    to_local: u32,
    env: Envelope<M>,
}

/// Read-mostly per-round context shared with the executors.
///
/// The coordinator write-locks it at round boundaries (when every
/// descriptor of the previous round is DONE and every executor is idle or
/// scanning) to publish the new wake stamps and chunk map; each send
/// descriptor read-locks it for the duration of its execution. The lock
/// is therefore never contended in steady state — it exists to let the
/// borrow checker accept the sharing.
struct RoundCtx {
    /// `next_wake[v] = r`: `v` wakes at round `r`; [`NEVER`]: halted.
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
    /// The owner chunk of awake position `pos`.
    #[inline]
    fn chunk_of(&self, pos: u32) -> usize {
        self.chunk[pos as usize] as usize
    }

    /// Where a message to awake node `to` is staged: the recipient's owner
    /// chunk and its entry there.
    #[inline]
    fn stage_entry<M>(&self, from: NodeId, to: NodeId, msg: M) -> (usize, ShardEntry<M>) {
        let pos = self.awake_pos[to.index()];
        let c = self.chunk_of(pos);
        let entry = ShardEntry {
            to_local: pos - self.bounds[c],
            env: Envelope { from, msg },
        };
        (c, entry)
    }
}

/// Rounds whose total degree mass is at or below this run inline on the
/// coordinator (a single chunk through the same phase functions) instead
/// of being dispatched: sequential-greedy schedules wake a handful of
/// nodes per round for most rounds, and two channel round-trips per worker
/// dwarf a few hundred nanoseconds of node work.
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

/// The fault hooks a worker needs per round: the (immutable) seeded plan
/// plus the [`Persist`](crate::Persist) entry points of the concrete
/// program type as function pointers (see [`CrashIo`]), so the phase
/// bodies carry no `Persist` bound. Copied into each batch; the mutable fault state (the
/// delayed-message buffer) stays with the coordinator.
struct FaultHooks<P: Program> {
    plan: FaultPlan,
    crash_io: CrashIo<P>,
}

impl<P: Program> Clone for FaultHooks<P> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<P: Program> Copy for FaultHooks<P> {}

/// What one chunk's send descriptor hands back to the coordinator: span
/// attribution, message tallies, staged trace events, delayed messages,
/// and the chunk's first error. Published through the slot's `results`
/// mutex the instant the descriptor completes (separately from the parked
/// batch, so the coordinator can merge in chunk order while the batch
/// buffers wait for the receive descriptor), and drained coordinator-side
/// — the buffers recycle their capacity across rounds.
struct SendResults<P: Program> {
    /// Per-job `(node, span)`, captured before `send` exactly as the
    /// serial engine attributes it, in the chunk's node order.
    node_spans: Vec<(u32, &'static str)>,
    /// Message and injected-fault tallies of this chunk.
    tally: Counters,
    /// Messages fated to arrive in a later round, in the chunk's
    /// transmission order; the coordinator appends them (chunk order =
    /// node order) to the run's delayed buffer.
    delayed_out: Vec<DelayedMsg<P::Msg>>,
    /// Events staged by the send phase, in the serial engine's per-node
    /// order; absorbed by the coordinator in chunk order.
    trace: Vec<TraceEvent>,
    /// First error of this chunk, in node order (execution stops there).
    error: Option<SimError>,
}

impl<P: Program> SendResults<P> {
    fn new() -> Self {
        SendResults {
            node_spans: Vec::new(),
            tally: Counters::default(),
            delayed_out: Vec::new(),
            trace: Vec::new(),
            error: None,
        }
    }
}

/// One chunk's reusable unit of work: a contiguous chunk of the awake set
/// plus the buffers that carry its phase results back to the coordinator.
/// Parked in its chunk's [`ChunkSlot`] between executions; whichever
/// executor claims the descriptor takes the batch, runs the phase, and
/// parks it back — batches are chunk-addressed, never worker-addressed.
struct Batch<P: Program> {
    round: Round,
    /// The chunk's `(node, program)` pairs, ascending by node.
    jobs: Vec<(u32, P)>,
    /// Recycled backing buffer of the executor-side outbox.
    out_items: Vec<OutEntry<P::Msg>>,
    /// Send-phase results, published through the slot on completion.
    res: SendResults<P>,
    /// Send phase: outbound messages sharded by the recipient's owner
    /// chunk. On completion each shard is swapped into the exchange cell
    /// `(this chunk, owner chunk)`, taking back the (drained) buffer the
    /// cell held — capacity circulates between batches and cells.
    shards: Vec<Vec<ShardEntry<P::Msg>>>,
    /// Fault plan + crash I/O of the run; `None` for fault-free runs.
    faults: Option<FaultHooks<P>>,
    /// Receive result: tallies of this chunk (crash-restarts applied).
    tally: Counters,
    /// `(node, start-of-round state)` of this chunk's nodes that crash
    /// this round, ascending by node. Written by the send phase (the blob
    /// is saved *before* the node acts), consumed by the receive phase.
    crashes: Vec<(u32, Vec<u8>)>,
    /// Receive result: nodes of this chunk that crash-restarted this
    /// round, ascending. [`Batch::stays`] conflates crashed nodes with
    /// voluntary stays, so the coordinator's recovery accounting needs the
    /// crashed set separately.
    crashed_nodes: Vec<u32>,
    /// Fault-delayed messages coming due this round for recipients in this
    /// chunk, staged by the coordinator between the phases (the batch is
    /// parked then — faulty rounds gate receives on the coordinator); the
    /// receive phase delivers them after the regular shards and restores
    /// each touched inbox's sorted-by-sender invariant.
    late: Vec<ShardEntry<P::Msg>>,
    /// Scratch: chunk positions touched by late deliveries.
    late_locals: Vec<u32>,
    /// Receive result: nodes that chose [`Action::Stay`] — plus crashed
    /// nodes, which restart awake next round — ascending.
    stays: Vec<u32>,
    /// Receive result: `(wake round, node)` sleeps, ascending by node.
    sleeps: Vec<(Round, u32)>,
    /// Receive result: halted nodes with their outputs, ascending.
    halts: Vec<(u32, P::Output)>,
    /// Receive phase: first error of this chunk, in node order.
    error: Option<SimError>,
    /// Whether to stage trace events (set from the run's [`Config::trace`]).
    trace_on: bool,
    /// Receive-phase events staged by this chunk, in the serial engine's
    /// per-node order; absorbed by the coordinator in chunk order.
    trace: Vec<TraceEvent>,
}

impl<P: Program> Batch<P> {
    fn new() -> Self {
        Batch {
            round: 0,
            jobs: Vec::new(),
            out_items: Vec::new(),
            res: SendResults::new(),
            shards: Vec::new(),
            faults: None,
            tally: Counters::default(),
            crashes: Vec::new(),
            crashed_nodes: Vec::new(),
            late: Vec::new(),
            late_locals: Vec::new(),
            stays: Vec::new(),
            sleeps: Vec::new(),
            halts: Vec::new(),
            error: None,
            trace_on: false,
            trace: Vec::new(),
        }
    }
}

// ---- the injector: chunk descriptors over a preallocated slot arena ----
//
// Descriptor life cycle (all transitions SeqCst):
//
//   send:  DONE ──coordinator──▶ READY ──CAS claim──▶ RUNNING ──▶ DONE
//   recv:  DONE ──coordinator──▶ VACANT ──gate──▶ READY ──CAS──▶ RUNNING ──▶ DONE
//
// The atomics carry the claim protocol; the `Mutex`es under them only
// transfer buffer ownership (a claimed descriptor's batch mutex is always
// uncontended — the CAS serialized access first). This keeps the whole
// executor inside `#![forbid(unsafe_code)]`.

/// Descriptor states. `VACANT` is only meaningful for receive
/// descriptors: reset at round publish, it keeps stale scanners from
/// claiming a receive whose send contributions haven't all landed.
const VACANT: usize = 0;
const READY: usize = 1;
const RUNNING: usize = 2;
const DONE: usize = 3;

/// One chunk's slot in the descriptor arena.
struct ChunkSlot<P: Program> {
    /// Send descriptor state.
    send_state: AtomicUsize,
    /// Receive descriptor state.
    recv_state: AtomicUsize,
    /// Send contributions this chunk's receive still waits for. Reset to
    /// `k` at round publish; every completed send execution decrements
    /// every chunk's gate (after publishing its shards), and the
    /// decrement that hits zero opens the receive descriptor — unless the
    /// round is faulty (coordinator gates receives to stage late
    /// deliveries first) or aborting.
    pending: AtomicUsize,
    /// The chunk's parked batch; `None` exactly while an executor runs a
    /// claimed descriptor for this chunk.
    batch: Mutex<Option<Batch<P>>>,
    /// The chunk's published send results, swapped in on send completion
    /// and drained by the coordinator in chunk order.
    results: Mutex<SendResults<P>>,
}

impl<P: Program> ChunkSlot<P> {
    fn new() -> Self {
        ChunkSlot {
            send_state: AtomicUsize::new(DONE),
            recv_state: AtomicUsize::new(DONE),
            pending: AtomicUsize::new(0),
            batch: Mutex::new(Some(Batch::new())),
            results: Mutex::new(SendResults::new()),
        }
    }
}

/// Test-only scheduler perturbation: a seeded plan that injects forced
/// steals (skipping a claimable descriptor), yields, short parks and
/// unpark storms at every claim point and publication edge. Rolls are a
/// pure function of `(seed, executor id, per-executor counter)` —
/// deterministic per executor, chaotic in interleaving — and never touch
/// any buffer, so the bit-for-bit equivalence tests assert that *no*
/// interleaving the protocol admits changes an observable result.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChaosPlan {
    pub(crate) seed: u64,
}

enum ChaosOp {
    Pass,
    /// Skip a claimable descriptor this scan — forces another executor
    /// (or a later scan) to steal it.
    Steal,
    Yield,
    /// Park for the given number of microseconds (consumes a pending
    /// unpark token, exercising the lost-wakeup paths).
    Nap(u64),
    /// Unpark every executor out of turn.
    Storm,
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl ChaosPlan {
    fn roll(&self, who: usize, ctr: u64) -> ChaosOp {
        let r = splitmix64(self.seed ^ ((who as u64) << 48) ^ ctr);
        match r & 0xf {
            0..=2 => ChaosOp::Steal,
            3..=4 => ChaosOp::Yield,
            5 => ChaosOp::Nap(1 + ((r >> 8) & 0x1f)),
            6 => ChaosOp::Storm,
            _ => ChaosOp::Pass,
        }
    }
}

/// Per-executor state: its scan offset (so executors start their claim
/// scans at different descriptors), its local inbox segment pool
/// (capacity retained across rounds and whichever chunks it happens to
/// execute), and its chaos counter.
struct ExecCtx<M> {
    who: usize,
    inboxes: ChunkInboxes<M>,
    chaos_ctr: u64,
}

impl<M> ExecCtx<M> {
    fn new(who: usize) -> Self {
        ExecCtx {
            who,
            inboxes: ChunkInboxes::new(),
            chaos_ctr: 0,
        }
    }
}

/// The shared injector: the round context, the descriptor slot arena, the
/// k×k exchange cells, and the park/unpark registry. One per run, borrowed
/// by every executor for the duration of the scope.
struct StealPool<'g, P: Program> {
    graph: &'g Graph,
    ctx: RwLock<RoundCtx>,
    /// Chunk descriptor slots, `kmax` of them (chunk count never exceeds
    /// the executor count).
    slots: Vec<ChunkSlot<P>>,
    /// Exchange cells, `(source chunk, owner chunk)`-addressed at
    /// `src * kmax + dst`: send descriptor `src` swaps its outbound shard
    /// for chunk `dst` into cell `(src, dst)`; receive descriptor `dst`
    /// drains cells `(0..k, dst)` in source order.
    cells: Vec<Mutex<Vec<ShardEntry<P::Msg>>>>,
    kmax: usize,
    /// Chunk count of the round in flight (0 while idle/inline). A claim
    /// of a READY descriptor re-reads this *after* the CAS: the READY
    /// store is sequenced after the round's `k` store, so the claimer
    /// always executes with the current round's chunk count even if its
    /// scan used a stale one.
    k: AtomicUsize,
    /// Fault-free runs auto-open a chunk's receive descriptor when its
    /// pending gate hits zero; faulty runs let the coordinator stage late
    /// deliveries into the parked batches first and open all receives
    /// itself.
    auto_receive: bool,
    /// Raised (before any pending decrement) by a send descriptor that
    /// hit an error: no receive descriptor opens on an aborting round.
    abort: AtomicBool,
    shutdown: AtomicBool,
    /// Every executor's thread handle, for unpark storms. Executors
    /// register before their first scan, so a registered executor never
    /// misses a wakeup: state stores happen before `unpark_all`, and a
    /// scan-then-park races at worst into a pending unpark token.
    registry: Mutex<Vec<Thread>>,
    chaos: Option<ChaosPlan>,
}

impl<P: Program> StealPool<'_, P> {
    #[inline]
    fn cell(&self, src: usize, dst: usize) -> &Mutex<Vec<ShardEntry<P::Msg>>> {
        &self.cells[src * self.kmax + dst]
    }

    fn register(&self) {
        self.registry
            .lock()
            .expect("registry lock")
            .push(thread::current());
    }

    fn unpark_all(&self) {
        for t in self.registry.lock().expect("registry lock").iter() {
            t.unpark();
        }
    }
}

/// Roll the chaos plan (if any) at a scheduling edge. Returns `true` when
/// the roll demands skipping a claimable descriptor (a forced steal);
/// side-effect ops (yield/nap/storm) happen here and return `false`.
#[inline]
fn chaos_pulse<P: Program>(pool: &StealPool<'_, P>, ex: &mut ExecCtx<P::Msg>) -> bool {
    let Some(plan) = pool.chaos else { return false };
    ex.chaos_ctr += 1;
    match plan.roll(ex.who, ex.chaos_ctr) {
        ChaosOp::Pass => false,
        ChaosOp::Steal => true,
        ChaosOp::Yield => {
            thread::yield_now();
            false
        }
        ChaosOp::Nap(us) => {
            thread::park_timeout(Duration::from_micros(us));
            false
        }
        ChaosOp::Storm => {
            pool.unpark_all();
            false
        }
    }
}

/// Execute a claimed send descriptor: take the parked batch, run the send
/// phase against the published round context, publish shards into the
/// exchange cells and results into the slot, then count down every
/// chunk's pending gate — opening any receive descriptor whose last
/// contribution this was (fault-free, non-aborting rounds only).
fn execute_send<P: Program>(pool: &StealPool<'_, P>, c: usize, k: usize, ex: &mut ExecCtx<P::Msg>) {
    let slot = &pool.slots[c];
    let mut b = slot
        .batch
        .lock()
        .expect("batch slot lock")
        .take()
        .expect("claimed send descriptor has a parked batch");
    {
        let ctx = pool.ctx.read().expect("round context lock");
        run_send_phase(pool.graph, &ctx, &mut b);
    }
    if b.res.error.is_some() {
        // Raised before the pending decrements below: SeqCst makes the
        // store visible to whichever executor decrements a gate to zero,
        // so no receive descriptor ever opens on an aborting round.
        pool.abort.store(true, Ordering::SeqCst);
    }
    chaos_pulse(pool, ex);
    // Publish outbound shards: swap each filled buffer into its exchange
    // cell, taking back the buffer the previous round's receive drained —
    // capacity circulates between batches and cells, nothing reallocates.
    for dst in 0..k {
        let mut cell = pool.cell(c, dst).lock().expect("exchange cell lock");
        std::mem::swap(&mut *cell, &mut b.shards[dst]);
    }
    {
        let mut r = slot.results.lock().expect("send results lock");
        std::mem::swap(&mut *r, &mut b.res);
    }
    *slot.batch.lock().expect("batch slot lock") = Some(b);
    slot.send_state.store(DONE, Ordering::SeqCst);
    // Contribution countdown — only after this chunk's shards and results
    // are fully published, so an opened receive sees every cell filled.
    for dst in 0..k {
        if pool.slots[dst].pending.fetch_sub(1, Ordering::SeqCst) == 1
            && pool.auto_receive
            && !pool.abort.load(Ordering::SeqCst)
        {
            pool.slots[dst].recv_state.store(READY, Ordering::SeqCst);
        }
    }
    pool.unpark_all();
}

/// Execute a claimed receive descriptor: drain the chunk's exchange cells
/// in source-chunk order into the executor-local segment pool (born
/// sorted by sender), run the receive phase, and park the batch back with
/// its action partials for the coordinator to apply in chunk order.
fn execute_receive<P: Program>(
    pool: &StealPool<'_, P>,
    c: usize,
    k: usize,
    ex: &mut ExecCtx<P::Msg>,
) {
    let slot = &pool.slots[c];
    let mut b = slot
        .batch
        .lock()
        .expect("batch slot lock")
        .take()
        .expect("claimed receive descriptor has a parked batch");
    ex.inboxes.ensure(b.jobs.len());
    chaos_pulse(pool, ex);
    for src in 0..k {
        let mut cell = pool.cell(src, c).lock().expect("exchange cell lock");
        ex.inboxes
            .extend_from(cell.drain(..).map(|e| (e.to_local, e.env)));
    }
    run_receive_phase(pool.graph, &mut b, &mut ex.inboxes);
    *slot.batch.lock().expect("batch slot lock") = Some(b);
    slot.recv_state.store(DONE, Ordering::SeqCst);
    pool.unpark_all();
}

/// One claim scan over the descriptor arena, starting at this executor's
/// offset: claim (CAS READY → RUNNING) and execute the first claimable
/// send, then receive, descriptor. Returns whether anything was executed.
fn try_execute<P: Program>(pool: &StealPool<'_, P>, ex: &mut ExecCtx<P::Msg>) -> bool {
    let k = pool.k.load(Ordering::SeqCst);
    if k == 0 {
        return false;
    }
    for i in 0..k {
        let c = (ex.who + i) % k;
        let slot = &pool.slots[c];
        if slot.send_state.load(Ordering::SeqCst) == READY {
            if chaos_pulse(pool, ex) {
                continue; // forced steal: leave it for someone else
            }
            if slot
                .send_state
                .compare_exchange(READY, RUNNING, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                // Re-read k after the claim: the READY we claimed was
                // published after the round's k store, so this load sees
                // the in-flight round's chunk count (the scan's k may be
                // stale).
                let kr = pool.k.load(Ordering::SeqCst);
                execute_send(pool, c, kr, ex);
                return true;
            }
        }
    }
    for i in 0..k {
        let c = (ex.who + i) % k;
        let slot = &pool.slots[c];
        if slot.recv_state.load(Ordering::SeqCst) == READY {
            if chaos_pulse(pool, ex) {
                continue;
            }
            if slot
                .recv_state
                .compare_exchange(READY, RUNNING, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                let kr = pool.k.load(Ordering::SeqCst);
                execute_receive(pool, c, kr, ex);
                return true;
            }
        }
    }
    false
}

/// How long the coordinator parks between help attempts while waiting on
/// a descriptor (workers park unbounded — every publication edge ends in
/// `unpark_all`, and the coordinator's timeout backstops lost tokens).
const COORD_NAP: Duration = Duration::from_micros(200);

/// Coordinator-side wait for a descriptor to reach DONE, stealing
/// whatever other descriptors are READY in the meantime.
fn wait_done<P: Program>(pool: &StealPool<'_, P>, ex: &mut ExecCtx<P::Msg>, c: usize, recv: bool) {
    loop {
        let state = if recv {
            &pool.slots[c].recv_state
        } else {
            &pool.slots[c].send_state
        };
        if state.load(Ordering::SeqCst) == DONE {
            return;
        }
        if try_execute(pool, ex) {
            continue;
        }
        thread::park_timeout(COORD_NAP);
    }
}

/// Stage one fated-to-arrive message: deliver into the outbound shard of
/// the recipient's owner chunk if the recipient is awake exactly now,
/// otherwise count it lost — the model's rule, shared by the regular and
/// duplicate delivery paths of the send phase.
#[allow(clippy::too_many_arguments)]
#[inline]
fn stage_delivery<M>(
    ctx: &RoundCtx,
    round: Round,
    from: NodeId,
    to: NodeId,
    msg: M,
    shards: &mut [Vec<ShardEntry<M>>],
    tally: &mut Counters,
    trace_on: bool,
    trace: &mut Vec<TraceEvent>,
) {
    if ctx.next_wake[to.index()] == round {
        tally.messages_delivered += 1;
        if trace_on {
            trace.push(TraceEvent::Delivered { round, from, to });
        }
        let (c, entry) = ctx.stage_entry(from, to, msg);
        shards[c].push(entry);
    } else {
        tally.messages_lost += 1;
        if trace_on {
            trace.push(TraceEvent::Lost { round, from, to });
        }
    }
}

/// The send-phase body: run each job's `send`, validate and expand its
/// entries through the shared checker, and stage every delivered message
/// into the outbound shard of the recipient's owner chunk. Fills the
/// batch's span/tally/error partials. Called by the workers and — for
/// rounds too small to be worth dispatching — inline by the coordinator,
/// so both paths are the same code by construction.
fn run_send_phase<P: Program>(graph: &Graph, ctx: &RoundCtx, b: &mut Batch<P>) {
    // Monomorphized on fault presence, like the serial `step`: with
    // `FAULTY = false` the fate-roll closure below is dead code and the
    // fault-free send loop optimizes as if fault injection didn't exist.
    if b.faults.is_some() {
        run_send_phase_body::<P, true>(graph, ctx, b);
    } else {
        run_send_phase_body::<P, false>(graph, ctx, b);
    }
}

fn run_send_phase_body<P: Program, const FAULTY: bool>(
    graph: &Graph,
    ctx: &RoundCtx,
    b: &mut Batch<P>,
) {
    let n = graph.n();
    let round = b.round;
    let k = ctx.bounds.len() - 1;
    let Batch {
        jobs,
        out_items,
        res,
        shards,
        faults,
        crashes,
        trace_on,
        ..
    } = b;
    let SendResults {
        node_spans,
        tally,
        delayed_out,
        trace,
        error,
    } = res;
    if shards.len() < k {
        shards.resize_with(k, Vec::new);
    }
    node_spans.clear();
    trace.clear();
    let trace_on = *trace_on;
    *tally = Counters::default();
    delayed_out.clear();
    crashes.clear();
    *error = None;
    let hooks = *faults;
    let mut outbox = Outbox::from_vec(std::mem::take(out_items));
    for (v, p) in jobs.iter_mut() {
        let vid = NodeId(*v);
        let view = View {
            round,
            me: vid,
            ident: graph.ident(vid),
            n,
            neighbors: graph.neighbors(vid),
        };
        node_spans.push((*v, p.span()));
        if trace_on {
            trace.push(TraceEvent::Awake { round, node: vid });
        }
        if FAULTY {
            if let Some(fh) = hooks {
                if fh.plan.crashes(round, *v) {
                    // Save the start-of-round state *before* the node
                    // acts: a crashed node loses this round's state
                    // changes but its sends still go out (they left
                    // before the crash).
                    let mut w = Writer::new();
                    (fh.crash_io.save)(p, &mut w);
                    crashes.push((*v, w.into_bytes()));
                }
            }
        }
        outbox.clear();
        p.send(&view, &mut outbox);
        let res = if !FAULTY {
            // A recipient is listening iff awake exactly now; if so, its
            // awake position stamp is valid and names its owner chunk.
            route_entries(graph, outbox.items.drain(..), vid, tally, |t, to, msg| {
                stage_delivery(ctx, round, vid, to, msg, shards, t, trace_on, trace);
            })
        } else {
            {
                let fh = hooks.expect("FAULTY send phase implies hooks");
                // One fate roll per transmission, counted per sender per
                // round — the same sequence the serial engine rolls.
                let mut k = 0u32;
                route_entries(graph, outbox.items.drain(..), vid, tally, |t, to, msg| {
                    let fate = fh.plan.message_fate(round, vid.0, to.0, k);
                    k += 1;
                    match fate {
                        FaultKind::Deliver => {
                            stage_delivery(ctx, round, vid, to, msg, shards, t, trace_on, trace)
                        }
                        FaultKind::Duplicate => {
                            t.faults_duplicated += 1;
                            stage_delivery(
                                ctx,
                                round,
                                vid,
                                to,
                                msg.clone(),
                                shards,
                                t,
                                trace_on,
                                trace,
                            );
                            stage_delivery(ctx, round, vid, to, msg, shards, t, trace_on, trace);
                        }
                        FaultKind::Drop => {
                            t.faults_dropped += 1;
                            if trace_on {
                                trace.push(TraceEvent::FaultDrop {
                                    round,
                                    from: vid,
                                    to,
                                });
                            }
                        }
                        FaultKind::Delay => {
                            t.faults_delayed += 1;
                            let until = round + fh.plan.delay_rounds;
                            if trace_on {
                                trace.push(TraceEvent::FaultDelay {
                                    round,
                                    from: vid,
                                    to,
                                    until,
                                });
                            }
                            delayed_out.push(DelayedMsg {
                                due: until,
                                from: vid,
                                to,
                                msg,
                            });
                        }
                    }
                })
            }
        };
        if let Err(e) = res {
            *error = Some(e);
            break;
        }
    }
    b.out_items = outbox.into_vec();
}

/// The receive-phase body: run each job's `receive` over the segments the
/// caller drained into `inboxes` (a receive descriptor drains its
/// exchange cells in source-chunk order; the inline path drains the
/// single batch's own shards) and collect each action into the
/// stay/sleep/halt partials. Shared by the descriptor executors and the
/// coordinator's inline path, like [`run_send_phase`].
fn run_receive_phase<P: Program>(
    graph: &Graph,
    b: &mut Batch<P>,
    inboxes: &mut ChunkInboxes<P::Msg>,
) {
    // Same monomorphization as the send phase: fault-free runs never pay
    // for the crash-restart or late-delivery checks below.
    if b.faults.is_some() {
        run_receive_phase_body::<P, true>(graph, b, inboxes);
    } else {
        run_receive_phase_body::<P, false>(graph, b, inboxes);
    }
}

fn run_receive_phase_body<P: Program, const FAULTY: bool>(
    graph: &Graph,
    b: &mut Batch<P>,
    inboxes: &mut ChunkInboxes<P::Msg>,
) {
    let n = graph.n();
    let round = b.round;
    let Batch {
        jobs,
        faults,
        tally,
        crashes,
        crashed_nodes,
        late,
        late_locals,
        stays,
        sleeps,
        halts,
        error,
        trace_on,
        trace,
        ..
    } = b;
    let trace_on = *trace_on;
    trace.clear();
    *tally = Counters::default();
    crashed_nodes.clear();
    // The caller has already drained this chunk's deliveries into
    // `inboxes` in source-chunk order (senders ascend within a chunk and
    // chunks are contiguous in node order, so each segment is a
    // concatenation of sorted runs — born sorted, same invariant as the
    // serial arena). `ensure` here is an idempotent backstop for chunks
    // that received nothing but still have late deliveries or jobs.
    inboxes.ensure(jobs.len());
    // Fault-delayed messages coming due land after the ascending-sender
    // pass; deliver them, then restore each touched segment's
    // sorted-by-sender invariant (stable, so same-sender envelopes keep
    // their staging order — identical to the serial arena's resort).
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
        late_locals.clear();
    }
    stays.clear();
    sleeps.clear();
    halts.clear();
    *error = None;
    let mut crash_i = 0usize;
    for (i, (v, p)) in jobs.iter_mut().enumerate() {
        let vid = NodeId(*v);
        // A crashed node loses the round — inbox discarded, state rolled
        // back to start-of-round — and restarts awake next round.
        if FAULTY && crashes.get(crash_i).is_some_and(|c| c.0 == *v) {
            let blob = &crashes[crash_i].1;
            crash_i += 1;
            inboxes.clear(i);
            let mut r = Reader::new(blob);
            let io = faults.as_ref().expect("crash blobs imply fault hooks");
            (io.crash_io.restore)(p, &mut r)
                .expect("Persist round-trip: restore must accept its own save");
            if trace_on {
                trace.push(TraceEvent::Crash { round, node: vid });
            }
            tally.faults_crashed += 1;
            crashed_nodes.push(*v);
            stays.push(*v);
            continue;
        }
        let view = View {
            round,
            me: vid,
            ident: graph.ident(vid),
            n,
            neighbors: graph.neighbors(vid),
        };
        let action = p.receive(&view, inboxes.inbox(i));
        // Clear while the segment header is hot (see `arena`).
        inboxes.clear(i);
        match action {
            Action::Stay => stays.push(*v),
            Action::SleepUntil(until) => {
                if until <= round {
                    *error = Some(SimError::InvalidSleep {
                        node: vid,
                        round,
                        until,
                    });
                    break;
                }
                if trace_on {
                    trace.push(TraceEvent::Sleep {
                        round,
                        node: vid,
                        until,
                    });
                }
                sleeps.push((until, *v));
            }
            Action::Halt => {
                if trace_on {
                    trace.push(TraceEvent::Halt { round, node: vid });
                }
                match p.output() {
                    Some(o) => halts.push((*v, o)),
                    None => {
                        *error = Some(SimError::MissingOutput(vid));
                        break;
                    }
                }
            }
        }
    }
    crashes.clear();
}

/// Merge one chunk's published send results into the run metrics:
/// awake/span attribution per node in chunk order (= node order,
/// preserving the serial engine's span interning order), then the message
/// tallies, then the staged trace events (absorbed through the shared
/// capped tracer, so the global event sequence and drop count match the
/// serial engine's). The coordinator calls this in chunk index order —
/// descriptor *execution* order is irrelevant.
fn merge_send_results<P: Program>(
    r: &mut SendResults<P>,
    metrics: &mut Metrics,
    tracer: &mut Tracer,
    faults: Option<&mut FaultCtx<P>>,
) {
    for &(v, span) in r.node_spans.iter() {
        metrics.note_awake(NodeId(v), span);
    }
    r.node_spans.clear();
    metrics.counters += r.tally;
    if let Some(f) = faults {
        // Chunk order = node order, so the run-wide delayed buffer grows
        // in the serial engine's transmission order.
        f.state.delayed.append(&mut r.delayed_out);
    }
    tracer.absorb(&mut r.trace);
}

/// Apply one chunk's receive partials in node order: stay lane extension
/// (chunks ascend, so the lane stays globally sorted), batched wheel
/// scheduling, halt outputs, wake stamps, staged trace events, and
/// program restoration. Returns whether this chunk touched recovery
/// accounting (a crashed or still-recovering node), so the coordinator can
/// bump [`Counters::recovery_rounds`] once per round like the serial
/// engine.
#[allow(clippy::too_many_arguments)]
fn apply_receive_partials<P: Program>(
    b: &mut Batch<P>,
    round: Round,
    ctx: &mut RoundCtx,
    wheel: &mut WakeWheel,
    stay: &mut Vec<u32>,
    outputs: &mut [Option<P::Output>],
    slots: &mut [Option<P>],
    tracer: &mut Tracer,
    metrics: &mut Metrics,
    faults: Option<&mut FaultCtx<P>>,
) -> bool {
    tracer.absorb(&mut b.trace);
    metrics.counters += std::mem::take(&mut b.tally);
    // Recovery accounting, in the chunk's node order — the same merge the
    // serial engine's phase B does inline. A node that crashed this round
    // starts recovering (the crashed round itself is not recovery energy);
    // an awake node still marked recovering pays one recovery_awake round,
    // and its first non-`Stay` action (a sleep or halt partial) ends the
    // recovery. Recovering nodes are always awake — a crash forces the
    // node into the stay lane — so scanning the chunk's jobs sees them all.
    let mut touched = false;
    if let Some(f) = faults {
        let rec = &mut f.state.recovering;
        let (mut ci, mut si, mut hi) = (0usize, 0usize, 0usize);
        for &(v, _) in b.jobs.iter() {
            if b.crashed_nodes.get(ci).is_some_and(|&c| c == v) {
                ci += 1;
                rec[v as usize] = true;
                touched = true;
                continue;
            }
            if !rec[v as usize] {
                continue;
            }
            metrics.recovery_awake += 1;
            touched = true;
            while b.sleeps.get(si).is_some_and(|&(_, s)| s < v) {
                si += 1;
            }
            while b.halts.get(hi).is_some_and(|h| h.0 < v) {
                hi += 1;
            }
            let non_stay = b.sleeps.get(si).is_some_and(|&(_, s)| s == v)
                || b.halts.get(hi).is_some_and(|h| h.0 == v);
            if non_stay {
                rec[v as usize] = false;
            }
        }
        b.crashed_nodes.clear();
    }
    for &v in &b.stays {
        ctx.next_wake[v as usize] = round + 1;
    }
    stay.extend_from_slice(&b.stays);
    b.stays.clear();
    for &(until, v) in &b.sleeps {
        ctx.next_wake[v as usize] = until;
    }
    wheel.schedule_all(b.sleeps.drain(..));
    for (v, o) in b.halts.drain(..) {
        ctx.next_wake[v as usize] = NEVER;
        outputs[v as usize] = Some(o);
    }
    for (v, p) in b.jobs.drain(..) {
        slots[v as usize] = Some(p);
    }
    touched
}

/// A spawned executor: register for unpark storms, then scan-claim-execute
/// until shutdown. Parks (unbounded) when a scan comes up empty — every
/// publication edge (round publish, descriptor completion, shutdown) ends
/// in `unpark_all`, and registration happens before the first scan, so a
/// wakeup can race at worst into a pending unpark token, never past one.
fn worker_loop<P: Program>(pool: &StealPool<'_, P>, who: usize) {
    pool.register();
    let mut ex: ExecCtx<P::Msg> = ExecCtx::new(who);
    loop {
        if pool.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if try_execute(pool, &mut ex) {
            continue;
        }
        if pool.chaos.is_some() {
            // A chaos nap is a `park_timeout`: it may swallow an unpark
            // token raised (by a publication or shutdown) after the scan
            // above. Loop back to re-check instead of falling through to
            // the unbounded park — otherwise that lost token parks this
            // executor forever.
            chaos_pulse(pool, &mut ex);
            thread::park_timeout(COORD_NAP);
            continue;
        }
        thread::park();
    }
}

/// Advance the per-round timing stamp: add the elapsed time to the
/// accumulator `pick` selects and re-stamp. When timing is off the stamp
/// is `None` and no clock is read at all.
#[inline]
fn lap(stamp: &mut Option<(&mut PhaseTimes, Instant)>, pick: fn(&mut PhaseTimes) -> &mut u64) {
    if let Some((t, at)) = stamp.as_mut() {
        let now = Instant::now();
        *pick(t) += now.duration_since(*at).as_nanos() as u64;
        *at = now;
    }
}

/// The worker-pool executor core behind
/// [`Engine::run_spec`](crate::Engine::run_spec): a persistent executor
/// pool (the coordinator plus `workers - 1` spawned threads) driven round
/// by round from a round boundary, with the boundary's fault state (if
/// any), optional checkpoint control, optional per-phase timing, and an
/// optional (test-only) chaos plan perturbing the claim scheduling. All
/// observable state lives coordinator-side between rounds, which is
/// exactly what a [`Snapshot`] captures — byte-identical to the serial
/// engine's at the same boundary.
pub(crate) fn run_threaded_core<P>(
    graph: &Graph,
    programs: Vec<P>,
    start: Boundary<P>,
    workers: usize,
    mut ctl: Option<Controller<'_, P>>,
    mut timing: Option<&mut PhaseTimes>,
    chaos: Option<ChaosPlan>,
) -> Result<Paused<P::Output>, SimError>
where
    P: Program + Send,
{
    let n = graph.n();
    let workers = workers.max(1);
    let Boundary {
        config,
        prev_round: start_round,
        next_wake,
        stay: start_stay,
        mut wheel,
        mut outputs,
        mut metrics,
        mut tracer,
        mut faults,
    } = start;
    let trace_on = tracer.enabled();
    if n == 0 {
        return finish_run(outputs, metrics, tracer, faults).map(Paused::Done);
    }
    let mut slots: Vec<Option<P>> = programs.into_iter().map(Some).collect();
    // The immutable per-round fault hooks workers need; the mutable fault
    // state (the delayed-message buffer) stays with the coordinator.
    let hooks: Option<FaultHooks<P>> = faults.as_ref().map(|f| FaultHooks {
        plan: f.state.plan,
        crash_io: f.crash_io,
    });

    // The shared injector: slot arena (one descriptor slot per potential
    // chunk), k×k exchange cells, round context. Preallocated once; the
    // steady state only swaps buffers through it.
    let pool: StealPool<'_, P> = StealPool {
        graph,
        ctx: RwLock::new(RoundCtx {
            next_wake,
            awake_pos: vec![0u32; n],
            bounds: Vec::new(),
            chunk: Vec::new(),
        }),
        slots: (0..workers).map(|_| ChunkSlot::new()).collect(),
        cells: (0..workers * workers)
            .map(|_| Mutex::new(Vec::new()))
            .collect(),
        kmax: workers,
        k: AtomicUsize::new(0),
        auto_receive: faults.is_none(),
        abort: AtomicBool::new(false),
        shutdown: AtomicBool::new(false),
        registry: Mutex::new(Vec::new()),
        chaos,
    };
    // The coordinator is an executor too (it steals while it waits):
    // register it for unpark storms before anything can publish.
    pool.register();

    let result: Result<Option<Snapshot>, SimError> = std::thread::scope(|scope| {
        for who in 1..workers {
            let pool_ref = &pool;
            scope.spawn(move || worker_loop(pool_ref, who));
        }

        let mut awake: Vec<u32> = Vec::new();
        let mut scratch: Vec<u32> = Vec::new();
        let mut stay: Vec<u32> = start_stay;
        let mut prefix: Vec<u64> = Vec::new();
        let mut bounds: Vec<u32> = Vec::new();
        // The coordinator's executor context: claim-scan offset 0, plus
        // the segment pool its inline path and receive steals share.
        let mut coord: ExecCtx<P::Msg> = ExecCtx::new(0);
        let mut prev_round: Round = start_round;

        // Wrapped so every exit — completion, pause, error — funnels
        // through the one place below that raises shutdown and unparks
        // every executor before the scope joins the threads.
        let out = (|| -> Result<Option<Snapshot>, SimError> {
            // Peek without committing anything, so a pause bound can
            // snapshot this exact boundary.
            while let Some(round) = peek_next(&mut wheel, &stay, prev_round) {
                if let Some(c) = ctl.as_mut() {
                    let paused = c.at_boundary(prev_round, round, |encode| {
                        // Between rounds every program is parked in its slot.
                        let ctx = pool.ctx.read().expect("round context lock");
                        let st = EngineStateRef {
                            prev_round,
                            next_wake: &ctx.next_wake,
                            stay: &stay,
                            wheel_events: wheel.pending_events(),
                            outputs: &outputs,
                            programs: ProgramsRef::Slots(&slots),
                            metrics: &metrics,
                            tracer: &tracer,
                            faults: faults.as_ref().map(|f| &f.state),
                        };
                        encode(graph, config, st)
                    });
                    if paused.is_some() {
                        return Ok(paused);
                    }
                }
                // Per-round timing stamp; partition covers pop → publish.
                let mut stamp = timing.as_deref_mut().map(|t| (t, Instant::now()));
                let popped =
                    next_awake_set(&mut wheel, &mut stay, prev_round, &mut awake, &mut scratch);
                debug_assert_eq!(popped, Some(round), "peek and pop must agree");
                if round > config.max_rounds {
                    return Err(SimError::RoundBudgetExceeded {
                        limit: config.max_rounds,
                    });
                }
                // Same skipped-round accounting as the serial `step_body`:
                // rounds the batch-cascade jumped over had no awake node.
                metrics.rounds_skipped += round - prev_round - 1;
                metrics.rounds = round;
                prev_round = round;
                let total_mass = degree_mass_prefix(graph, &awake, &mut prefix);
                let inline = workers == 1 || total_mass <= INLINE_MASS;
                let k = if inline { 1 } else { workers.min(awake.len()) };
                partition_by_mass(&prefix, k, &mut bounds);
                {
                    let mut ctx = pool.ctx.write().expect("round context lock");
                    ctx.bounds.clone_from(&bounds);
                    ctx.chunk.clear();
                    ctx.chunk.reserve(awake.len());
                    let mut c = 0usize;
                    for (i, &v) in awake.iter().enumerate() {
                        ctx.awake_pos[v as usize] = i as u32;
                        while bounds[c + 1] as usize <= i {
                            c += 1;
                        }
                        ctx.chunk.push(c as u32);
                    }
                }

                if inline {
                    lap(&mut stamp, |t| &mut t.partition_ns);
                    // ---- inline path: one chunk, no descriptors. The same
                    // phase functions the stealing executors run, so results
                    // are identical by construction; only the descriptor
                    // traffic is skipped. Uses chunk 0's parked batch.
                    let mut b = pool.slots[0]
                        .batch
                        .lock()
                        .expect("batch slot lock")
                        .take()
                        .expect("batch parked between rounds");
                    b.round = round;
                    b.trace_on = trace_on;
                    b.faults = hooks;
                    b.jobs.clear();
                    for &v in &awake {
                        b.jobs
                            .push((v, slots[v as usize].take().expect("program present")));
                    }
                    {
                        let ctx = pool.ctx.read().expect("round context lock");
                        run_send_phase(graph, &ctx, &mut b);
                    }
                    if let Some(e) = b.res.error.take() {
                        return Err(e);
                    }
                    merge_send_results(&mut b.res, &mut metrics, &mut tracer, faults.as_mut());
                    if let Some(f) = faults.as_mut() {
                        // A single chunk: every due message is this batch's.
                        let ctx = pool.ctx.read().expect("round context lock");
                        let (late, wake) = (&mut b.late, &ctx.next_wake);
                        let c = &mut metrics.counters;
                        resolve_due_delays(&mut f.state, round, wake, c, &mut tracer, |d| {
                            late.push(ctx.stage_entry(d.from, d.to, d.msg).1)
                        });
                    }
                    // Drain the single chunk's own shards — the inline
                    // counterpart of a receive descriptor draining its cells.
                    coord.inboxes.ensure(b.jobs.len());
                    for shard in b.shards.iter_mut() {
                        coord
                            .inboxes
                            .extend_from(shard.drain(..).map(|e| (e.to_local, e.env)));
                    }
                    run_receive_phase(graph, &mut b, &mut coord.inboxes);
                    if let Some(e) = b.error.take() {
                        return Err(e);
                    }
                    {
                        let mut ctx = pool.ctx.write().expect("round context lock");
                        let rec_round = apply_receive_partials(
                            &mut b,
                            round,
                            &mut ctx,
                            &mut wheel,
                            &mut stay,
                            &mut outputs,
                            &mut slots,
                            &mut tracer,
                            &mut metrics,
                            faults.as_mut(),
                        );
                        if rec_round {
                            metrics.recovery_rounds += 1;
                        }
                    }
                    *pool.slots[0].batch.lock().expect("batch slot lock") = Some(b);
                    lap(&mut stamp, |t| &mut t.inline_ns);
                    if let Some((t, _)) = stamp.as_mut() {
                        t.inline_rounds += 1;
                    }
                } else {
                    // ---- publish: fill every chunk descriptor first, then
                    // open them all at once. Two loops on purpose — an
                    // executor may claim a send the instant its slot turns
                    // READY, and its k publish decrements must land on fully
                    // reset `pending` counters and VACANT receive gates.
                    pool.abort.store(false, Ordering::SeqCst);
                    pool.k.store(k, Ordering::SeqCst);
                    for c in 0..k {
                        let slot = &pool.slots[c];
                        let mut parked = slot.batch.lock().expect("batch slot lock");
                        let b = parked.as_mut().expect("batch parked between rounds");
                        b.round = round;
                        b.trace_on = trace_on;
                        b.faults = hooks;
                        b.jobs.clear();
                        for &v in &awake[bounds[c] as usize..bounds[c + 1] as usize] {
                            b.jobs
                                .push((v, slots[v as usize].take().expect("program present")));
                        }
                        slot.pending.store(k, Ordering::SeqCst);
                        slot.recv_state.store(VACANT, Ordering::SeqCst);
                    }
                    for c in 0..k {
                        pool.slots[c].send_state.store(READY, Ordering::SeqCst);
                    }
                    pool.unpark_all();
                    lap(&mut stamp, |t| &mut t.partition_ns);

                    // ---- send results, in chunk index order. The coordinator
                    // steals work itself while waiting (`wait_done`), so the
                    // merge order — which fixes metrics, trace, and error
                    // precedence — is untouched by who executed what.
                    let mut round_err = None;
                    for c in 0..k {
                        wait_done(&pool, &mut coord, c, false);
                        lap(&mut stamp, |t| &mut t.route_ns);
                        let mut r = pool.slots[c].results.lock().expect("results slot lock");
                        // Error precedence: chunks ascend in node order and a
                        // send stops at its chunk's first routing error, so
                        // the first error of the lowest-indexed chunk is the
                        // serial engine's error.
                        if let Some(e) = r.error.take() {
                            round_err = Some(e);
                            break;
                        }
                        merge_send_results(&mut r, &mut metrics, &mut tracer, faults.as_mut());
                        lap(&mut stamp, |t| &mut t.merge_ns);
                    }
                    if let Some(e) = round_err {
                        return Err(e);
                    }
                    // Between the phases: route fault-delayed messages coming
                    // due into their recipients' owner batches, exactly where
                    // the serial engine resolves them. Only on faulty runs —
                    // fault-free rounds auto-open their receives instead
                    // (`auto_receive`), so this coordinator turn is skipped.
                    if let Some(f) = faults.as_mut() {
                        {
                            let ctx = pool.ctx.read().expect("round context lock");
                            // Stage each due message into its recipient's
                            // parked batch: every receive descriptor is
                            // still gated closed here on a faulty round.
                            let wake = &ctx.next_wake;
                            let c = &mut metrics.counters;
                            resolve_due_delays(&mut f.state, round, wake, c, &mut tracer, |d| {
                                let (c, entry) = ctx.stage_entry(d.from, d.to, d.msg);
                                pool.slots[c]
                                    .batch
                                    .lock()
                                    .expect("batch slot lock")
                                    .as_mut()
                                    .expect("batch parked for staging")
                                    .late
                                    .push(entry);
                            });
                        }
                        for c in 0..k {
                            pool.slots[c].recv_state.store(READY, Ordering::SeqCst);
                        }
                        pool.unpark_all();
                        lap(&mut stamp, |t| &mut t.merge_ns);
                    }

                    // ---- receive partials, in chunk order (= node order):
                    // stay lane stays globally sorted, wake-ups enter the
                    // wheel in the serial engine's schedule order, halt
                    // outputs land in place. Waiting on every receive also
                    // quiesces the round: no executor holds work at a round
                    // boundary, so pause/periodic snapshots stay exact.
                    let mut rec_round = false;
                    for c in 0..k {
                        wait_done(&pool, &mut coord, c, true);
                        lap(&mut stamp, |t| &mut t.deliver_ns);
                        let mut b = pool.slots[c]
                            .batch
                            .lock()
                            .expect("batch slot lock")
                            .take()
                            .expect("batch parked after receive");
                        if let Some(e) = b.error.take() {
                            return Err(e);
                        }
                        {
                            let mut ctx = pool.ctx.write().expect("round context lock");
                            rec_round |= apply_receive_partials(
                                &mut b,
                                round,
                                &mut ctx,
                                &mut wheel,
                                &mut stay,
                                &mut outputs,
                                &mut slots,
                                &mut tracer,
                                &mut metrics,
                                faults.as_mut(),
                            );
                        }
                        *pool.slots[c].batch.lock().expect("batch slot lock") = Some(b);
                        lap(&mut stamp, |t| &mut t.merge_ns);
                    }
                    if rec_round {
                        metrics.recovery_rounds += 1;
                    }
                    if let Some((t, _)) = stamp.as_mut() {
                        t.dispatched_rounds += 1;
                    }
                }
            }
            Ok(None)
        })();
        // One exit for every path: raise shutdown and wake every parked
        // executor so the scope can join its threads.
        pool.shutdown.store(true, Ordering::SeqCst);
        pool.unpark_all();
        out
    });
    if let Some(snapshot) = result? {
        return Ok(Paused::Snapshot(snapshot));
    }

    finish_run(outputs, metrics, tracer, faults).map(Paused::Done)
}

/// Run `programs` fault-free on the worker pool with `workers` executors,
/// accumulating per-phase wall time into `timing` ([`PhaseTimes`]) —
/// partition / route / deliver / merge for dispatched rounds, a single
/// bucket for inline rounds. The probe reads the clock only between
/// pipeline stages on the coordinator, so the run itself (outputs,
/// [`Metrics`], trace) is bit-for-bit the serial engine's. Kept with this
/// signature because the `perfbench` benchmark calls it: it forwards into
/// the pool core behind [`Engine::run_spec`](crate::Engine::run_spec)
/// without that method's [`Persist`](crate::Persist) bounds.
///
/// # Errors
/// Same contract as the serial engine ([`SimError`]), with its error
/// precedence (lowest node id first).
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
    run_threaded_core(graph, programs, start, workers, None, Some(timing), None)
        .map(Paused::finished)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CheckpointError, Codec, Engine, Outbox, Persist, ResumeError, RunSpec, TraceMode};
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

    /// The pool rows of every agreement table: each worker count, plain and
    /// under a chaos plan seeded from `seed` (forced steals, yields, naps
    /// and unpark storms at every claim point).
    fn pool_specs(workers: &[usize], plan: Option<FaultPlan>, seed: u64) -> Vec<RunSpec<'static>> {
        workers
            .iter()
            .flat_map(|&w| {
                [None, Some(31 * w as u64 + seed)].map(|chaos| RunSpec {
                    workers: Some(w),
                    faults: plan,
                    chaos,
                    ..RunSpec::default()
                })
            })
            .collect()
    }

    fn label(spec: &RunSpec) -> String {
        format!(
            "workers = {:?}, chaos = {:?}, faults = {}",
            spec.workers,
            spec.chaos,
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
    fn assert_bitwise_equal<P>(g: &Graph, mk: impl Fn() -> Vec<P>, workers: &[usize], seed: u64)
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
            for spec in pool_specs(workers, faults, seed) {
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
                // Rounds quiesce before every boundary, so the pool's pause
                // is the serial engine's byte for byte, chaos or not.
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
        assert_bitwise_equal(&g, flood(160, 170), &[1, 2, 4, 8], 7);
        let pool = RunSpec::on(Some(4));
        let run = run(&g, flood(160, 170)(), Config::default(), &pool).unwrap();
        // everyone learned the max ident (tree has diameter < 170 rounds)
        assert!(run.outputs.iter().all(|&b| b == 160));
    }

    #[test]
    fn threaded_single_worker() {
        let g = generators::cycle(6);
        let pool = RunSpec::on(Some(1));
        let run = run(&g, flood(6, 3)(), Config::default(), &pool).unwrap();
        assert_eq!(run.metrics.rounds, 3);
    }

    #[test]
    fn more_workers_than_awake_nodes() {
        // Tiny awake set, tiny mass: the inline path absorbs the round.
        let g = generators::path(3);
        assert_bitwise_equal(&g, flood(3, 3), &[1, 16], 7);
        let pool = RunSpec::on(Some(16));
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
        assert_bitwise_equal(&g, flood(20, 3), &[32], 7);
        let pool = RunSpec::on(Some(32));
        let run = run(&g, flood(20, 3)(), Config::default(), &pool).unwrap();
        assert!(run.outputs.iter().all(|&b| b == 20));
    }

    #[test]
    fn threaded_detects_budget() {
        let g = generators::path(2);
        for spec in pool_specs(&[1, 2], None, 7) {
            let err = run(&g, flood(2, 100)(), Config::with_max_rounds(5), &spec).unwrap_err();
            assert_eq!(
                err,
                SimError::RoundBudgetExceeded { limit: 5 },
                "{}",
                label(&spec)
            );
        }
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
        assert_bitwise_equal(&g, mk, &[1, 2, 4, 8], 7);
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
        assert_bitwise_equal(&g, mk, &[1, 2, 4, 8], 7);
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
        assert_bitwise_equal(&g, flood(240, 12), &[1, 2, 3, 4, 8, 16], 7);
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
        // run concurrently (under chaos, possibly long after their
        // neighbors) and must lose to node 3's error.
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
        for spec in pool_specs(&[1, 2, 4, 8], None, 7) {
            let err = run(&g, mk(), Config::default(), &spec).unwrap_err();
            assert_eq!(err, serial_err, "{}", label(&spec));
        }
    }

    /// A pool spec on `workers` executors under the chaos plan `seed`.
    fn chaos_spec(workers: usize, faults: Option<FaultPlan>, seed: u64) -> RunSpec<'static> {
        RunSpec {
            workers: Some(workers),
            faults,
            chaos: Some(seed),
            ..RunSpec::default()
        }
    }

    #[test]
    fn chaos_preserves_error_precedence() {
        // Under chaos the erroring chunk may finish long after its
        // neighbors — the coordinator's chunk-order scan must still report
        // the serial engine's error (lowest node id).
        let g = generators::path(200);
        for seed in 11..=13 {
            let progs: Vec<BadSendAt> = (0..200).map(|v| BadSendAt { bad: v >= 3 }).collect();
            let spec = chaos_spec(4, None, seed);
            let err = run(&g, progs, Config::default(), &spec).unwrap_err();
            assert_eq!(
                err,
                SimError::NotANeighbor {
                    from: NodeId(3),
                    to: NodeId(5)
                },
                "{}",
                label(&spec)
            );
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
        for spec in pool_specs(&[1, 2, 4, 8], None, 7) {
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

    // ---- seeded chaos interleavings: determinism is not scheduling luck --

    #[test]
    fn chaos_interleavings_stay_bit_identical() {
        // Forced steals, yields, naps, and unpark storms at seeded points
        // shuffle which executor runs each descriptor and when — outputs
        // and metrics must not move by a bit relative to the serial engine.
        let g = generators::random_tree(160, 9);
        let serial = Engine::new(&g, Config::default())
            .run(flood(160, 40)())
            .unwrap();
        for seed in 1..=8 {
            for workers in [2, 4, 8] {
                let spec = chaos_spec(workers, None, seed);
                let got = run(&g, flood(160, 40)(), Config::default(), &spec).unwrap();
                assert!(serial.outputs == got.outputs, "outputs, {}", label(&spec));
                assert_eq!(serial.metrics, got.metrics, "metrics, {}", label(&spec));
            }
        }
        // Traces too, including the drop counter under a biting cap.
        let capped = Config {
            trace: TraceMode::Capped(500),
            ..Config::default()
        };
        let serial = Engine::new(&g, capped).run(flood(160, 40)()).unwrap();
        for seed in [9, 10] {
            for workers in [2, 8] {
                let spec = chaos_spec(workers, None, seed);
                let got = run(&g, flood(160, 40)(), capped, &spec).unwrap();
                assert_eq!(serial.trace, got.trace, "trace, {}", label(&spec));
                assert_eq!(
                    serial.trace_dropped,
                    got.trace_dropped,
                    "trace_dropped, {}",
                    label(&spec)
                );
            }
        }
        // Snapshot bytes, resumes and faulty runs over more chaos seeds
        // than the agreement table's one per row.
        for seed in 1..=3 {
            assert_bitwise_equal(&g, flood(160, 40), &[2, 4, 8], seed);
        }
    }

    #[test]
    fn chaos_under_faults_matches_serial() {
        // Chaos and the fault pipeline compose: the coordinator-gated
        // receives and staged late deliveries keep the serial fault
        // semantics under storms (auto_receive is off on faulty runs).
        let mut plan = FaultPlan::new(77);
        plan.drop_ppm = 60_000;
        plan.dup_ppm = 60_000;
        plan.delay_ppm = 60_000;
        plan.delay_rounds = 1;
        let g = generators::random_tree(120, 5);
        let serial = RunSpec::default().with_faults(Some(plan));
        let want = run(&g, flood(120, 30)(), Config::default(), &serial).unwrap();
        for seed in 21..=23 {
            for workers in [2, 4] {
                let spec = chaos_spec(workers, Some(plan), seed);
                let got = run(&g, flood(120, 30)(), Config::default(), &spec).unwrap();
                assert!(want.outputs == got.outputs, "outputs, {}", label(&spec));
                assert_eq!(want.metrics, got.metrics, "metrics, {}", label(&spec));
            }
        }
    }

    #[test]
    fn chaos_snapshot_bytes_match_serial() {
        // Rounds quiesce before every boundary — the coordinator consumes
        // every send and receive descriptor before moving on — so pause
        // snapshots must be byte-identical to the serial engine's even
        // when steal storms shuffled the round that just finished.
        let g = generators::random_tree(160, 9);
        let serial_full = Engine::new(&g, Config::default())
            .run(flood(160, 40)())
            .unwrap();
        let want = snapshot_at(&g, flood(160, 40)(), &RunSpec::default(), 20);
        for seed in 31..=33 {
            for workers in [2, 4] {
                let spec = chaos_spec(workers, None, seed);
                let got = snapshot_at(&g, flood(160, 40)(), &spec, 20);
                assert_eq!(got, want, "snapshot bytes, {}", label(&spec));
                // And the chaotic pause resumes to the uninterrupted run.
                let resume = spec.resume_from(&got);
                let resumed = run(&g, flood(160, 40)(), Config::default(), &resume).unwrap();
                assert!(resumed.outputs == serial_full.outputs, "resumed outputs");
                assert_eq!(resumed.metrics, serial_full.metrics, "resumed metrics");
            }
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
}
