//! The worker pool: the dispatched round body of the one driver, over an
//! owner-sharded parallel delivery pipeline.
//!
//! Every run goes through one driver (see the `engine` module): it pops
//! each round's awake set and runs the round in one of two bodies. A
//! round runs **in place** on the calling thread — programs in their
//! slots, messages straight into the inbox arena — when the run has one
//! worker or the round's degree mass is at most `INLINE_MASS`:
//! sequential-greedy schedules spend most rounds waking a handful of
//! nodes, where descriptor traffic would dwarf the work. Any other round
//! is **dispatched** over this module's pool. Both bodies call the same
//! per-node send, receive and apply functions, so the Sleeping model's
//! round is written once and the two bodies agree **bit for bit** — equal
//! outputs, [`Metrics`], traces and snapshot bytes — at every worker count
//! by construction, which the integration tests assert.
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
//! `workers` executors — the calling thread plus `workers - 1` spawned
//! threads — live across all rounds. A dispatched round splits the sorted
//! awake set into at most `workers` contiguous chunks at **equal
//! degree-mass boundaries** (prefix sum over `degree + 1` of the awake
//! set), so a handful of hubs cannot serialize a round the way count-based
//! chunking would. Message routing and inbox construction happen **inside
//! the executors**; the coordinator is reduced to synchronization and a
//! deterministic merge:
//!
//! ```text
//!  coordinator                       executor e (coordinator or worker)
//!  ───────────                       ──────────────────────────────────
//!  lend next_wake, partition by
//!  degree mass, publish the
//!  chunk map, park chunk jobs in
//!  the slot arena, open SEND    ──▶  claim a READY send descriptor c
//!  descriptors                       (CAS, scan offset by executor id):
//!                                    send_node per job, staging each
//!                                    delivered copy into exchange cell
//!                                    (c, owner); publish results, count
//!                                    down every chunk's pending gate —
//!                                    last contributor opens that
//!                                    chunk's RECEIVE descriptor
//!  consume send results in     ◀──   (claim-and-publish: no barrier)
//!  chunk order (helping via
//!  steal while waiting); merge
//!  tallies/spans/traces/errors;      claim a READY receive descriptor d:
//!  take next_wake back               drain cells (0..k, d) in source
//!                                    order into local segments (born
//!  apply each chunk's outcomes ◀──   sorted), receive_node per job,
//!  in node order                     publish one outcome per job
//! ```
//!
//! There is no per-phase barrier: a chunk's receive descriptor opens the
//! moment the *last* send contribution for it lands (`pending` countdown),
//! while other chunks' sends are still running; idle executors steal
//! whatever descriptor is READY. The coordinator executes descriptors
//! while it waits, so `workers = w` has `w` executors (`w - 1` spawned).
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
//!   — every inbox is born sorted by sender, exactly like the arena's.
//! * **All merges happen coordinator-side in chunk index order** (= node
//!   order): awake/span attribution, message tallies, staged trace events,
//!   and each node's outcome through the driver's one apply function — so
//!   the stay lane, the wheel, the outputs and the trace see the in-place
//!   body's order, whatever order descriptors actually executed in.
//! * **Error precedence is by lowest node id**: an executor stops at its
//!   chunk's first error and raises a run-wide abort flag (sequenced
//!   before its pending countdown, so no receive descriptor can open on
//!   an aborting round); the coordinator consumes results in chunk order
//!   and surfaces the first error of the lowest-indexed chunk — the error
//!   the in-place body would hit.
//!
//! Batches, shard buffers and exchange cells recycle their capacity
//! (swaps only — payloads never move), executor-local segment pools are
//! retained across rounds: the steady state allocates nothing per
//! node-round.
//!
//! A seeded chaos hook (test-only) perturbs scheduling at every claim
//! point — forced steals, yields, parks, unpark storms — and the
//! equivalence tests assert bit-for-bit agreement under those
//! interleavings too; see `ChaosPlan`.

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
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, RwLock};
use std::thread::{self, Thread};
use std::time::Duration;

/// One delivered message in an outbound owner shard: the recipient's dense
/// position within its owner chunk, plus the envelope to deliver.
struct ShardEntry<M> {
    to_local: u32,
    env: Envelope<M>,
}

/// Read-mostly per-round context shared with the executors.
///
/// The coordinator write-locks it at the start of a dispatched round
/// (when every descriptor of the previous round is DONE and every
/// executor is idle or scanning) to lend it the run's wake stamps and
/// publish the chunk map, and again once every send descriptor is DONE to
/// take the stamps back; each send descriptor read-locks it for the
/// duration of its execution. The lock is therefore never contended — it
/// exists to let the borrow checker accept the sharing.
struct RoundCtx {
    /// `next_wake[v] = r`: `v` wakes at round `r`; `NEVER`: halted. The
    /// driver's own stamps, lent for the send phase (empty otherwise).
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
/// wake a handful of nodes per round for most rounds, and two channel
/// round-trips per worker dwarf a few hundred nanoseconds of node work.
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

/// What one chunk's send descriptor hands back to the coordinator: span
/// attribution, message tallies, staged trace events, delayed messages,
/// and the chunk's first error. Published through the slot's `results`
/// mutex the instant the descriptor completes (separately from the parked
/// batch, so the coordinator can merge in chunk order while the batch
/// buffers wait for the receive descriptor), and drained coordinator-side
/// — the buffers recycle their capacity across rounds.
struct SendResults<P: Program> {
    /// Per-job `(node, span)`, captured before `send` exactly as the
    /// in-place body attributes it, in the chunk's node order.
    node_spans: Vec<(u32, &'static str)>,
    /// Message and injected-fault tallies of this chunk.
    tally: Counters,
    /// Messages fated to arrive in a later round, in the chunk's
    /// transmission order; the coordinator appends them (chunk order =
    /// node order) to the run's delayed buffer.
    delayed_out: Vec<DelayedMsg<P::Msg>>,
    /// Events staged by the send phase, uncapped, in node order; absorbed
    /// by the coordinator in chunk order through the run's capped tracer.
    trace: Tracer,
    /// First error of this chunk, in node order (execution stops there).
    error: Option<SimError>,
}

impl<P: Program> SendResults<P> {
    fn new(stage: TraceMode) -> Self {
        SendResults {
            node_spans: Vec::new(),
            tally: Counters::default(),
            delayed_out: Vec::new(),
            trace: Tracer::new(stage),
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
    hooks: Option<FaultHooks<P>>,
    /// `(node, start-of-round state)` of this chunk's nodes that crash
    /// this round, ascending by node. Written by the send phase (the save
    /// is taken *before* the node acts), consumed by the receive phase.
    crashes: Vec<(u32, Vec<u8>)>,
    /// Fault-delayed messages coming due this round for recipients in this
    /// chunk, staged by the coordinator between the phases (the batch is
    /// parked then — faulty rounds gate receives on the coordinator); the
    /// receive phase delivers them after the regular shards and restores
    /// each touched inbox's sorted-by-sender invariant.
    late: Vec<ShardEntry<P::Msg>>,
    /// Scratch: chunk positions touched by late deliveries.
    late_locals: Vec<u32>,
    /// Receive result: one outcome per job, in job order, up to the
    /// chunk's first error.
    outcomes: Vec<Outcome<P::Output>>,
    /// Receive phase: first error of this chunk, in node order.
    error: Option<SimError>,
}

impl<P: Program> Batch<P> {
    fn new(stage: TraceMode) -> Self {
        Batch {
            round: 0,
            jobs: Vec::new(),
            out_items: Vec::new(),
            res: SendResults::new(stage),
            shards: Vec::new(),
            hooks: None,
            crashes: Vec::new(),
            late: Vec::new(),
            late_locals: Vec::new(),
            outcomes: Vec::new(),
            error: None,
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
    fn new(stage: TraceMode) -> Self {
        ChunkSlot {
            send_state: AtomicUsize::new(DONE),
            recv_state: AtomicUsize::new(DONE),
            pending: AtomicUsize::new(0),
            batch: Mutex::new(Some(Batch::new(stage))),
            results: Mutex::new(SendResults::new(stage)),
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
    /// Chunk count of the round in flight (0 while idle). A claim of a
    /// READY descriptor re-reads this *after* the CAS: the READY store is
    /// sequenced after the round's `k` store, so the claimer always
    /// executes with the current round's chunk count even if its scan
    /// used a stale one.
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

    /// Take chunk `c`'s parked batch.
    fn take_batch(&self, c: usize) -> Batch<P> {
        self.slots[c]
            .batch
            .lock()
            .expect("batch slot lock")
            .take()
            .expect("batch parked in its slot")
    }

    /// Park chunk `c`'s batch back in its slot.
    fn park_batch(&self, c: usize, b: Batch<P>) {
        *self.slots[c].batch.lock().expect("batch slot lock") = Some(b);
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
    let mut b = pool.take_batch(c);
    {
        let ctx = pool.ctx.read().expect("round context lock");
        // Monomorphized on fault presence, like the in-place body.
        if b.hooks.is_some() {
            run_send_phase::<P, true>(pool.graph, &ctx, &mut b);
        } else {
            run_send_phase::<P, false>(pool.graph, &ctx, &mut b);
        }
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
    pool.park_batch(c, b);
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
/// its outcomes for the coordinator to apply in chunk order.
fn execute_receive<P: Program>(
    pool: &StealPool<'_, P>,
    c: usize,
    k: usize,
    ex: &mut ExecCtx<P::Msg>,
) {
    let mut b = pool.take_batch(c);
    ex.inboxes.ensure(b.jobs.len());
    chaos_pulse(pool, ex);
    for src in 0..k {
        let mut cell = pool.cell(src, c).lock().expect("exchange cell lock");
        ex.inboxes
            .extend_from(cell.drain(..).map(|e| (e.to_local, e.env)));
    }
    if b.hooks.is_some() {
        run_receive_phase::<P, true>(pool.graph, &mut b, &mut ex.inboxes);
    } else {
        run_receive_phase::<P, false>(pool.graph, &mut b, &mut ex.inboxes);
    }
    pool.park_batch(c, b);
    pool.slots[c].recv_state.store(DONE, Ordering::SeqCst);
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

/// The send-phase body: each job's span, then [`send_node`] with every
/// delivered copy staged into the outbound shard of the recipient's owner
/// chunk. Fills the chunk's send results.
fn run_send_phase<P: Program, const FAULTY: bool>(graph: &Graph, ctx: &RoundCtx, b: &mut Batch<P>) {
    let k = ctx.bounds.len() - 1;
    let Batch {
        round,
        jobs,
        out_items,
        res,
        shards,
        hooks,
        crashes,
        ..
    } = b;
    if shards.len() < k {
        shards.resize_with(k, Vec::new);
    }
    res.node_spans.clear();
    res.tally = Counters::default();
    res.delayed_out.clear();
    res.error = None;
    crashes.clear();
    let mut outbox = Outbox::from_vec(std::mem::take(out_items));
    for (v, p) in jobs.iter_mut() {
        res.node_spans.push((*v, p.span()));
        let log = SendLog {
            tally: &mut res.tally,
            tracer: &mut res.trace,
            hooks: hooks.as_ref(),
            delayed: &mut res.delayed_out,
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
            res.error = Some(e);
            break;
        }
    }
    *out_items = outbox.into_vec();
}

/// The receive-phase body: deliver the chunk's late messages, then run
/// [`receive_node`] per job over the segments the caller drained into
/// `inboxes`, recording one outcome per job up to the first error.
fn run_receive_phase<P: Program, const FAULTY: bool>(
    graph: &Graph,
    b: &mut Batch<P>,
    inboxes: &mut ChunkInboxes<P::Msg>,
) {
    let Batch {
        round,
        jobs,
        hooks,
        crashes,
        late,
        late_locals,
        outcomes,
        error,
        ..
    } = b;
    // The caller has already drained this chunk's deliveries into
    // `inboxes` in source-chunk order (senders ascend within a chunk and
    // chunks are contiguous in node order, so each segment is a
    // concatenation of sorted runs — born sorted, same invariant as the
    // arena's).
    //
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
    *error = None;
    let mut next_crash = 0;
    for (i, (v, p)) in jobs.iter_mut().enumerate() {
        let inbox = inboxes.inbox(i);
        match receive_node::<P, FAULTY>(
            graph,
            *round,
            *v,
            p,
            inbox,
            hooks.as_ref(),
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

/// Merge one chunk's published send results into the run metrics:
/// awake/span attribution per node in chunk order (= node order,
/// preserving the in-place body's span interning order), then the message
/// tallies, then the staged trace events (absorbed through the run's
/// capped tracer, so the global event sequence and drop count match the
/// in-place body's). The coordinator calls this in chunk index order —
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
        // in transmission order.
        f.state.delayed.append(&mut r.delayed_out);
    }
    tracer.absorb(&mut r.trace.events);
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

/// The coordinator's handle on a running pool: the shared injector plus
/// the coordinator's own executor context (it steals while it waits) and
/// partition scratch.
pub(crate) struct Dispatcher<'a, 'g, P: Program> {
    pool: &'a StealPool<'g, P>,
    coord: ExecCtx<P::Msg>,
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

/// Run `body` with a pool of `workers` executors (the calling thread plus
/// `workers - 1` spawned ones), or with none when `workers <= 1`. `faulty`
/// and `traced` say whether the run has a fault plan and records a trace.
/// Every exit of `body` — completion, pause, error — raises shutdown and
/// wakes every parked executor before the scope joins the threads.
pub(crate) fn with_pool<P: Program + Send, R>(
    graph: &Graph,
    workers: usize,
    faulty: bool,
    traced: bool,
    chaos: Option<ChaosPlan>,
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
    let pool: StealPool<'_, P> = StealPool {
        graph,
        ctx: RwLock::new(RoundCtx {
            next_wake: Vec::new(),
            awake_pos: vec![0u32; graph.n()],
            bounds: Vec::new(),
            chunk: Vec::new(),
        }),
        slots: (0..workers).map(|_| ChunkSlot::new(stage)).collect(),
        cells: (0..workers * workers)
            .map(|_| Mutex::new(Vec::new()))
            .collect(),
        kmax: workers,
        k: AtomicUsize::new(0),
        auto_receive: !faulty,
        abort: AtomicBool::new(false),
        shutdown: AtomicBool::new(false),
        registry: Mutex::new(Vec::new()),
        chaos,
    };
    // The coordinator is an executor too (it steals while it waits):
    // register it for unpark storms before anything can publish.
    pool.register();
    thread::scope(|scope| {
        for who in 1..workers {
            let pool = &pool;
            scope.spawn(move || worker_loop(pool, who));
        }
        let mut d = Dispatcher {
            pool: &pool,
            coord: ExecCtx::new(0),
            prefix: Vec::new(),
        };
        let out = body(Some(&mut d));
        pool.shutdown.store(true, Ordering::SeqCst);
        pool.unpark_all();
        out
    })
}

impl<P: Program> Exec<'_, P> {
    /// A dispatched round over the `k > 1` chunks [`Dispatcher::chunks`]
    /// counted (its mass prefix is still in `d`): lend the wake stamps to
    /// the pool and publish the chunks, merge the send results in chunk
    /// order, take the stamps back, stage fault-delayed messages coming due
    /// into their recipients' chunks, and apply every chunk's outcomes in
    /// chunk order (= node order) through [`Boundary::apply`].
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
        }
        // ---- publish: fill every chunk descriptor first, then open them
        // all at once. Two loops on purpose — an executor may claim a send
        // the instant its slot turns READY, and its k publish decrements
        // must land on fully reset `pending` counters and VACANT receive
        // gates.
        pool.abort.store(false, Ordering::SeqCst);
        pool.k.store(k, Ordering::SeqCst);
        {
            let ctx = pool.ctx.read().expect("round context lock");
            for c in 0..k {
                let slot = &pool.slots[c];
                let mut parked = slot.batch.lock().expect("batch slot lock");
                let b = parked.as_mut().expect("batch parked between rounds");
                b.round = round;
                b.hooks = hooks;
                b.jobs.clear();
                for &v in &self.awake[ctx.bounds[c] as usize..ctx.bounds[c + 1] as usize] {
                    let p = self.programs[v as usize]
                        .take()
                        .expect("program in its slot");
                    b.jobs.push((v, p));
                }
                slot.pending.store(k, Ordering::SeqCst);
                slot.recv_state.store(VACANT, Ordering::SeqCst);
            }
        }
        for c in 0..k {
            pool.slots[c].send_state.store(READY, Ordering::SeqCst);
        }
        pool.unpark_all();
        lap(stamp, |t| &mut t.partition_ns);

        // ---- send results, in chunk index order. The coordinator steals
        // work itself while waiting (`wait_done`), so the merge order —
        // which fixes metrics, trace, and error precedence — is untouched
        // by who executed what.
        let at = &mut self.at;
        for c in 0..k {
            wait_done(pool, &mut d.coord, c, false);
            lap(stamp, |t| &mut t.route_ns);
            let mut r = pool.slots[c].results.lock().expect("results slot lock");
            // Error precedence: chunks ascend in node order and a send
            // stops at its chunk's first routing error, so the first error
            // of the lowest-indexed chunk is the in-place body's error.
            if let Some(e) = r.error.take() {
                return Err(e);
            }
            merge_send_results(&mut r, &mut at.metrics, &mut at.tracer, at.faults.as_mut());
            lap(stamp, |t| &mut t.merge_ns);
        }
        // Every send is DONE, so nothing reads the round context any more:
        // stage fault-delayed messages coming due into their recipients'
        // parked batches (every receive is still gated closed on a faulty
        // round), then take the wake stamps back.
        {
            let mut ctx = pool.ctx.write().expect("round context lock");
            if let Some(f) = at.faults.as_mut() {
                let (wake, c) = (&ctx.next_wake, &mut at.metrics.counters);
                resolve_due_delays(&mut f.state, round, wake, c, &mut at.tracer, |m| {
                    let (owner, entry) = ctx.stage_entry(m.from, m.to, m.msg);
                    let mut parked = pool.slots[owner].batch.lock().expect("batch slot lock");
                    let b = parked.as_mut().expect("batch parked for staging");
                    b.late.push(entry);
                });
            }
            std::mem::swap(&mut ctx.next_wake, &mut at.next_wake);
        }
        if at.faults.is_some() {
            for c in 0..k {
                pool.slots[c].recv_state.store(READY, Ordering::SeqCst);
            }
            pool.unpark_all();
            lap(stamp, |t| &mut t.merge_ns);
        }

        // ---- outcomes, in chunk order (= node order). Waiting on every
        // receive also quiesces the round: no executor holds work at a
        // round boundary, so pause/periodic snapshots stay exact.
        let mut recovery = false;
        for c in 0..k {
            wait_done(pool, &mut d.coord, c, true);
            lap(stamp, |t| &mut t.deliver_ns);
            let mut b = pool.take_batch(c);
            // Outcomes before the chunk's first error apply first, as in
            // the in-place body. `FAULTY = true` leaves the fault checks to
            // run time: a dispatched round is heavy enough not to notice.
            for ((v, p), outcome) in b.jobs.drain(..).zip(b.outcomes.drain(..)) {
                recovery |= self.at.apply::<true>(round, v, outcome)?;
                self.programs[v as usize] = Some(p);
            }
            if let Some(e) = b.error.take() {
                return Err(e);
            }
            pool.park_batch(c, b);
            lap(stamp, |t| &mut t.merge_ns);
        }
        if recovery {
            self.at.metrics.recovery_rounds += 1;
        }
        Ok(())
    }
}

/// Run `programs` fault-free with `workers` executors, accumulating
/// per-phase wall time into `timing` ([`PhaseTimes`]) — partition / route
/// / deliver / merge for dispatched rounds, a single bucket for in-place
/// ones. The probe reads the clock only between pipeline stages on the
/// coordinator, so the run itself (outputs, [`Metrics`], trace) is bit for
/// bit the one-worker run's. Kept with this signature because the
/// `perfbench` benchmark calls it: it forwards into the driver behind
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
    with_pool(graph, workers, false, traced, None, |pool| {
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

    /// The pool rows of every agreement table: each worker count, plain and
    /// under a chaos plan seeded from `seed` (forced steals, yields, naps
    /// and unpark storms at every claim point).
    fn pool_specs(workers: &[usize], plan: Option<FaultPlan>, seed: u64) -> Vec<RunSpec<'static>> {
        workers
            .iter()
            .flat_map(|&w| {
                [None, Some(31 * w as u64 + seed)].map(|chaos| RunSpec {
                    workers: w,
                    faults: plan,
                    chaos,
                    ..RunSpec::default()
                })
            })
            .collect()
    }

    fn label(spec: &RunSpec) -> String {
        format!(
            "workers = {}, chaos = {:?}, faults = {}",
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
        assert_bitwise_equal(&g, flood(3, 3), &[1, 16], 7);
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
        assert_bitwise_equal(&g, flood(20, 3), &[32], 7);
        let pool = RunSpec::on(32);
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
            workers,
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
