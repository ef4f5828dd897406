//! Line-graph virtualization: running Sleeping-model programs for the
//! **edges** of `G` on the nodes of `G`.
//!
//! Every edge `e = {u, v}` becomes one virtual node of the line graph
//! `L(G)`. Both endpoints run an identical deterministic **replica** of
//! `e`'s program — the Lemma 7 replica technique ([`crate::virt`]),
//! specialized to the 2-member "cluster" `{u, v}` with depth bound 0: no
//! convergecast/broadcast legs are needed, because any two edges adjacent
//! in `L(G)` share a vertex, and that shared vertex hosts replicas of
//! *both*. A virtual round of `L(G)` therefore costs exactly **one** real
//! round of `G`:
//!
//! * a host delivers an awake replica's messages to its co-hosted
//!   replicas locally, and ships one copy across each sibling edge so the
//!   far replica sees the identical inbox;
//! * inboxes are merged by sorting on `(sender label, seq)` and deduping,
//!   so the two replicas of an edge advance in lock-step;
//! * a host is awake at round `x` iff one of its incident edges is awake
//!   at virtual round `x` — messages to fully sleeping hosts are lost,
//!   which is precisely the Sleeping semantics on `L(G)`.
//!
//! The machinery is shared with Lemma 7: edge programs implement the same
//! [`VirtualProgram`] trait, exchange [`VEnvelope`]s, emit [`VOutgoing`]s,
//! and ride the physical network inside [`VirtMsg::Exchange`] frames. The
//! [`EdgeGreedy`] inner program is the by-label sequential greedy for any
//! [`EdgeProblem`] — the trivial `O(Δ_L)`-awake baseline on `L(G)` —
//! executed unchanged by the serial engine or the worker-pool executor
//! ([`solve_edges_spec`]).

use crate::resilient::{solver_stage, StageSpec};
use crate::virt::{VEnvelope, VOutgoing, VirtMsg, VirtualProgram};
use awake_graphs::{Graph, NodeId};
use awake_olocal::edge::{EdgeGreedyView, EdgeIndex, EdgeProblem};
use awake_sleeping::{
    persist, Action, CheckpointError, Codec, Config, Envelope, FaultPlan, Metrics, Outbox, Persist,
    Program, Reader, Round, SimError, View, Writer,
};
use std::sync::Arc;

/// Cluster-level input of one edge: what both replicas are constructed
/// from (deliberately symmetric, like [`crate::virt::VertexInput`] —
/// host-specific data never reaches the replica, so the two replicas of
/// an edge are identical).
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeCtx {
    /// The edge's label (1-based rank by identifier pair, see
    /// [`EdgeIndex`]).
    pub label: u64,
    /// Identifiers of the endpoints, `(smaller, larger)`.
    pub endpoints: (u64, u64),
    /// Degree in the line graph.
    pub line_degree: usize,
    /// Sorted labels of the adjacent edges.
    pub adjacent: Vec<u64>,
}

/// One hosted replica of an edge program.
struct Replica<VP: VirtualProgram> {
    vp: VP,
    label: u64,
    /// Sorted adjacent labels (incoming-message filter: both replicas
    /// must see identical inboxes, so each host keeps exactly the
    /// messages from `L(G)`-neighbors).
    adj: Vec<u64>,
    /// This host owns the edge (it is the higher-ident endpoint) and
    /// reports its output.
    owned: bool,
    /// Port to the edge's other endpoint (the far replica's host).
    far_port: NodeId,
    /// The replica's next awake virtual round.
    next: Round,
    /// Messages primed for virtual round `next`.
    outgoing: Vec<(u16, Option<u64>, VP::Msg)>,
    done: bool,
    output: Option<VP::Output>,
}

impl<VP: VirtualProgram> Replica<VP> {
    /// Prepare the outgoing messages for the replica's next awake round
    /// (the [`crate::virt`] `prime` step). `buf` is the host's pooled
    /// send scratch — cleared here, so primes allocate nothing once the
    /// buffers reach steady-state capacity.
    fn prime(&mut self, next: Round, buf: &mut Vec<VOutgoing<VP::Msg>>) {
        self.next = next;
        buf.clear();
        self.vp.send(next, buf);
        self.outgoing.clear();
        self.outgoing
            .extend(buf.drain(..).enumerate().map(|(i, o)| match o {
                VOutgoing::ToCluster(j, m) => (i as u16, Some(j), m),
                VOutgoing::Broadcast(m) => (i as u16, None, m),
            }));
    }
}

/// The line-graph host: a Sleeping-model [`Program`] for one node of `G`
/// executing the replicas of all its incident edges' [`VirtualProgram`]s
/// on `L(G)`.
///
/// Node output is the `(label, output)` list of the edges the node
/// **owns** (is the higher-ident endpoint of), ascending by label;
/// isolated nodes never wake and output an empty list.
pub struct LineGraphHost<VP: VirtualProgram> {
    /// Replicas ascending by label.
    replicas: Vec<Replica<VP>>,
    /// Local same-round deliveries `(replica idx, from label, seq, msg)`,
    /// filled in `send`, drained in `receive`.
    local: Vec<(u32, u64, u16, VP::Msg)>,
    /// Pooled merge scratch, local stream: entries for the current
    /// replica, born sorted by `(sender label, seq)`.
    lmerge: Vec<(u64, u16, VP::Msg)>,
    /// Pooled merge scratch, cross-edge stream (needs one stable sort).
    xmerge: Vec<(u64, u16, VP::Msg)>,
    /// Pooled merged inbox handed to the replica each round.
    venv: Vec<VEnvelope<VP::Msg>>,
    /// Pooled scratch for [`VirtualProgram::send`] during primes.
    send_buf: Vec<VOutgoing<VP::Msg>>,
}

/// Build one [`LineGraphHost`] per node of `g`, constructing each edge's
/// replica pair through `factory` (called once per (edge, endpoint) with
/// the edge's symmetric [`EdgeCtx`] — implementations must be
/// deterministic functions of it).
pub fn hosts<VP, F>(g: &Graph, idx: &EdgeIndex, factory: F) -> Vec<LineGraphHost<VP>>
where
    VP: VirtualProgram,
    F: Fn(&EdgeCtx) -> VP,
{
    let mut out: Vec<LineGraphHost<VP>> = g
        .nodes()
        .map(|_| LineGraphHost {
            replicas: Vec::new(),
            local: Vec::new(),
            lmerge: Vec::new(),
            xmerge: Vec::new(),
            venv: Vec::new(),
            send_buf: Vec::new(),
        })
        .collect();
    let mut buf = Vec::new();
    for i in 0..idx.m() {
        let (u, v) = idx.edges()[i];
        let ctx = EdgeCtx {
            label: idx.label(i),
            endpoints: idx.endpoint_idents(g, i),
            line_degree: idx.line_degree(g, i),
            adjacent: idx.adjacent_labels(i),
        };
        let owner = idx.owner(g, i);
        for (host, far) in [(u, v), (v, u)] {
            let mut rep = Replica {
                vp: factory(&ctx),
                label: ctx.label,
                adj: ctx.adjacent.clone(),
                owned: host == owner,
                far_port: far,
                next: 1,
                // Primes refill this in place; one slot absorbs the
                // common single-broadcast case without a mid-run grow.
                outgoing: Vec::with_capacity(1),
                done: false,
                output: None,
            };
            // All virtual nodes are awake at virtual round 1.
            rep.prime(1, &mut buf);
            out[host.index()].replicas.push(rep);
        }
    }
    for h in &mut out {
        h.replicas.sort_by_key(|r| r.label);
        // Warm the pooled scratch now that the replica count is known, so
        // steady state never grows a buffer mid-run: per round at most
        // every co-hosted replica hears from every other (`local`, and its
        // per-replica `lmerge`/`xmerge`/`venv` splits are each no larger).
        let r = h.replicas.len();
        h.local.reserve(r.saturating_sub(1) * 2);
        h.lmerge.reserve(r);
        h.xmerge.reserve(r);
        h.venv.reserve(r * 2);
        h.send_buf.reserve(2);
    }
    out
}

impl<VP: VirtualProgram> Program for LineGraphHost<VP> {
    type Msg = VirtMsg<(), VP::Msg>;
    type Output = Vec<(u64, VP::Output)>;

    fn initial_wake(&self) -> Option<Round> {
        if self.replicas.is_empty() {
            None
        } else {
            Some(1)
        }
    }

    fn send(&mut self, view: &View<'_>, out: &mut Outbox<Self::Msg>) {
        let round = view.round;
        self.local.clear();
        for i in 0..self.replicas.len() {
            if self.replicas[i].done || self.replicas[i].next != round {
                continue;
            }
            for k in 0..self.replicas[i].outgoing.len() {
                let (seq, to, _) = self.replicas[i].outgoing[k];
                // Any two edges at this host share this vertex, so every
                // co-hosted replica is an L(G)-neighbor of the sender.
                for j in 0..self.replicas.len() {
                    if j == i {
                        continue;
                    }
                    let ship = match to {
                        Some(l) => l == self.replicas[j].label,
                        None => true,
                    };
                    if !ship {
                        continue;
                    }
                    let msg = self.replicas[i].outgoing[k].2.clone();
                    self.local
                        .push((j as u32, self.replicas[i].label, seq, msg.clone()));
                    // The far replica of edge j must see the identical
                    // message; its host is one hop across edge j.
                    out.to(
                        self.replicas[j].far_port,
                        VirtMsg::Exchange {
                            from: self.replicas[i].label,
                            to,
                            seq,
                            msg,
                        },
                    );
                }
            }
        }
    }

    fn receive(&mut self, view: &View<'_>, inbox: &[Envelope<Self::Msg>]) -> Action {
        let round = view.round;
        let mut min_next: Option<Round> = None;
        let LineGraphHost {
            replicas,
            local,
            lmerge,
            xmerge,
            venv,
            send_buf,
        } = self;
        for (j, rep) in replicas.iter_mut().enumerate() {
            if rep.done {
                continue;
            }
            if rep.next != round {
                let n = rep.next;
                min_next = Some(min_next.map_or(n, |m| m.min(n)));
                continue;
            }
            // Merge local and cross-edge deliveries for replica j: keep
            // exactly the messages from L(G)-neighbors addressed to this
            // edge, ordered by (sender, seq) with duplicates dropped —
            // both replicas of the edge construct this very sequence.
            //
            // The local stream is born sorted: `send` visits senders in
            // ascending replica (= label) order and seqs ascend within a
            // sender, so only the cross-edge stream needs a sort; the two
            // streams then zip through a pre-sized two-way merge. Ties
            // take the local entry first — exactly what the old stable
            // sort over [local..., cross...] + keep-first dedup did, which
            // matters when faults duplicate frames.
            lmerge.clear();
            for (tgt, from, seq, msg) in local.iter() {
                if *tgt == j as u32 {
                    lmerge.push((*from, *seq, msg.clone()));
                }
            }
            debug_assert!(
                lmerge
                    .windows(2)
                    .all(|w| (w[0].0, w[0].1) <= (w[1].0, w[1].1)),
                "local deliveries must be born sorted by (sender, seq)"
            );
            xmerge.clear();
            for e in inbox {
                if let VirtMsg::Exchange { from, to, seq, msg } = &e.msg {
                    let addressed = match to {
                        Some(l) => *l == rep.label,
                        None => true,
                    };
                    if addressed && rep.adj.binary_search(from).is_ok() {
                        xmerge.push((*from, *seq, msg.clone()));
                    }
                }
            }
            xmerge.sort_by_key(|a| (a.0, a.1));
            venv.clear();
            venv.reserve(lmerge.len() + xmerge.len());
            {
                let mut a = lmerge.drain(..).peekable();
                let mut b = xmerge.drain(..).peekable();
                let mut last: Option<(u64, u16)> = None;
                loop {
                    let take_local = match (a.peek(), b.peek()) {
                        (Some(x), Some(y)) => (x.0, x.1) <= (y.0, y.1),
                        (Some(_), None) => true,
                        (None, Some(_)) => false,
                        (None, None) => break,
                    };
                    let (from, seq, msg) = if take_local {
                        a.next().expect("peeked")
                    } else {
                        b.next().expect("peeked")
                    };
                    if last != Some((from, seq)) {
                        last = Some((from, seq));
                        venv.push(VEnvelope { from, msg });
                    }
                }
            }
            match rep.vp.receive(round, venv) {
                Action::Stay => rep.prime(round + 1, send_buf),
                // Deliberately unvalidated: a non-future wake round is
                // propagated to the engine below, which reports
                // `SimError::InvalidSleep` for this host — the same error
                // surface every other program has.
                Action::SleepUntil(x) => rep.prime(x, send_buf),
                Action::Halt => {
                    rep.done = true;
                    rep.output = rep.vp.output();
                    assert!(
                        rep.output.is_some(),
                        "edge program halted without an output"
                    );
                }
            }
            if !rep.done {
                let n = rep.next;
                min_next = Some(min_next.map_or(n, |m| m.min(n)));
            }
        }
        local.clear();
        match min_next {
            None => Action::Halt,
            Some(n) if n == round + 1 => Action::Stay,
            Some(n) => Action::SleepUntil(n),
        }
    }

    fn output(&self) -> Option<Self::Output> {
        if self.replicas.iter().any(|r| !r.done) {
            return None;
        }
        // A filtered collect has no size hint and would grow the vector
        // several times per host; count first so this is one allocation.
        let owned = self.replicas.iter().filter(|r| r.owned).count();
        let mut out = Vec::with_capacity(owned);
        out.extend(self.replicas.iter().filter(|r| r.owned).map(|r| {
            (
                r.label,
                r.output.clone().expect("halted replicas have outputs"),
            )
        }));
        Some(out)
    }

    fn span(&self) -> &'static str {
        "linegraph"
    }
}

/// The by-label sequential greedy for an [`EdgeProblem`], as a
/// [`VirtualProgram`] on `L(G)` — the line-graph counterpart of
/// [`crate::trivial::TrivialGreedy`]. Edge `e` wakes at virtual round 1,
/// at round `l` for every adjacent label `l < label(e)` (to hear those
/// decisions), and decides + announces at virtual round `label(e)`.
/// Awake `deg_L(e) + 2 = O(Δ_L)` virtual rounds; `m` rounds total.
pub struct EdgeGreedy<EP: EdgeProblem> {
    /// The run-wide shared context — every replica of every edge holds
    /// the same `Arc` (the [`VirtMsg::Bag`] sharing pattern applied to
    /// construction: one problem clone and one input vector per run,
    /// not two per edge).
    shared: Arc<GreedyShared<EP>>,
    /// This edge's index into [`GreedyShared::inputs`].
    input_idx: usize,
    label: u64,
    endpoints: (u64, u64),
    line_degree: usize,
    /// Ascending virtual wake rounds.
    wakes: Vec<Round>,
    cursor: usize,
    collected: Vec<(u64, EP::Output)>,
    decided: Option<EP::Output>,
}

/// The immutable per-run context shared by every [`EdgeGreedy`] replica:
/// the problem instance and the full per-edge input vector (canonical
/// [`EdgeIndex`] order), behind one `Arc`.
#[derive(Debug)]
pub struct GreedyShared<EP: EdgeProblem> {
    /// The problem being solved.
    pub problem: EP,
    /// Per-edge inputs in canonical [`EdgeIndex`] order.
    pub inputs: Vec<EP::Input>,
}

impl<EP: EdgeProblem> EdgeGreedy<EP> {
    /// The greedy program for one edge: `shared` is the run-wide context
    /// (cheaply cloned per replica), `input_idx` the edge's index into
    /// `shared.inputs`.
    pub fn new(shared: Arc<GreedyShared<EP>>, input_idx: usize, ctx: &EdgeCtx) -> Self {
        let mut wakes: Vec<Round> = std::iter::once(1)
            .chain(ctx.adjacent.iter().filter(|&&l| l < ctx.label).copied())
            .chain(std::iter::once(ctx.label))
            .collect();
        wakes.sort_unstable();
        wakes.dedup();
        // `collected` holds one announcement per smaller adjacent label —
        // at most every wake round but the deciding one — so sizing it
        // here keeps the run itself allocation-free.
        let collected = Vec::with_capacity(wakes.len().saturating_sub(1));
        EdgeGreedy {
            shared,
            input_idx,
            label: ctx.label,
            endpoints: ctx.endpoints,
            line_degree: ctx.line_degree,
            wakes,
            cursor: 0,
            collected,
            decided: None,
        }
    }
}

impl<EP> VirtualProgram for EdgeGreedy<EP>
where
    EP: EdgeProblem,
{
    /// An announcement: `(label, decided output)`.
    type Msg = (u64, EP::Output);
    type Output = EP::Output;
    type Payload = ();

    fn send(&mut self, vround: Round, out: &mut Vec<VOutgoing<Self::Msg>>) {
        if vround != self.label {
            return;
        }
        // Decide now: every adjacent edge with a smaller label announced
        // at its own (earlier) label round, and this edge was awake then.
        let view = EdgeGreedyView {
            label: self.label,
            endpoints: self.endpoints,
            line_degree: self.line_degree,
            input: &self.shared.inputs[self.input_idx],
            out_neighbors: &self.collected,
        };
        let decision = self.shared.problem.decide(&view);
        self.decided = Some(decision.clone());
        out.push(VOutgoing::Broadcast((self.label, decision)));
    }

    fn receive(&mut self, vround: Round, inbox: &[VEnvelope<Self::Msg>]) -> Action {
        for e in inbox {
            let (l, out) = &e.msg;
            if *l < self.label && !self.collected.iter().any(|(k, _)| k == l) {
                self.collected.push((*l, out.clone()));
            }
        }
        while self.cursor < self.wakes.len() && self.wakes[self.cursor] <= vround {
            self.cursor += 1;
        }
        match self.wakes.get(self.cursor) {
            Some(&r) => Action::SleepUntil(r),
            None => Action::Halt,
        }
    }

    fn output(&self) -> Option<EP::Output> {
        self.decided.clone()
    }
}

/// A completed edge-problem run: per-edge outputs in [`EdgeIndex`]
/// canonical order, plus the engine's full resource accounting.
#[derive(Debug)]
pub struct EdgeRun<O> {
    /// Output of each edge (canonical [`Graph::edges`] order).
    pub outputs: Vec<O>,
    /// The underlying engine run's metrics.
    pub metrics: Metrics,
}

/// Solve an [`EdgeProblem`] via the line-graph adapter with the
/// [`EdgeGreedy`] inner program, on the executor and under the fault plan
/// `spec` names. With an active plan the hosts run under the crate's
/// [recovery contract](crate::resilient), wrapped in
/// [`Redundant`](awake_sleeping::Redundant) time redundancy, so
/// crash-restarts of a host (which rewind *all* of its replicas at once),
/// dropped `VirtMsg` frames, duplicates, and delays are all masked by
/// retransmission inside each stretched window; with a quiet period after
/// the last fault the outputs stay valid and the accounting stays within
/// [`crate::bounds::degraded_budget_for`]. Serial and pool runs are
/// bit-for-bit identical. An inactive plan runs exactly like no plan.
///
/// # Errors
/// Propagates engine errors.
///
/// # Panics
/// Panics if `inputs.len() != g.m()`.
pub fn solve_edges_spec<EP>(
    g: &Graph,
    problem: &EP,
    inputs: &[EP::Input],
    config: Config,
    spec: &StageSpec,
) -> Result<EdgeRun<EP::Output>, SimError>
where
    EP: EdgeProblem + Clone + Send + Sync,
    EP::Output: Codec,
{
    let idx = EdgeIndex::new(g);
    let programs = greedy_hosts(g, &idx, problem, inputs);
    let base_rounds = crate::bounds::linegraph_rounds(g).max(1);
    let run = solver_stage(g, programs, config, base_rounds, spec)?;
    Ok(collect(&idx, run.outputs, run.metrics))
}

/// [`solve_edges_spec`] fault-free on the worker pool. Kept with this
/// signature because the `perfbench` benchmark calls it. Errors and
/// panics like [`solve_edges_spec`].
pub fn solve_edges_threaded<EP>(
    g: &Graph,
    problem: &EP,
    inputs: &[EP::Input],
    config: Config,
    workers: usize,
) -> Result<EdgeRun<EP::Output>, SimError>
where
    EP: EdgeProblem + Clone + Send + Sync,
    EP::Output: Codec,
{
    solve_edges_spec(g, problem, inputs, config, &StageSpec::on(workers))
}

/// [`solve_edges_spec`] on the worker pool under `plan`. Kept with this
/// signature because the `perfbench` benchmark calls it. Errors and
/// panics like [`solve_edges_spec`].
pub fn solve_edges_threaded_faulty<EP>(
    g: &Graph,
    problem: &EP,
    inputs: &[EP::Input],
    config: Config,
    workers: usize,
    plan: &FaultPlan,
) -> Result<EdgeRun<EP::Output>, SimError>
where
    EP: EdgeProblem + Clone + Send + Sync,
    EP::Output: Codec,
{
    let pool = StageSpec::on(workers);
    solve_edges_spec(g, problem, inputs, config, &pool.with_faults(Some(*plan)))
}

/// The [`EdgeGreedy`] host set for `problem` (exposed so benches and
/// tests can drive the executors directly).
pub fn greedy_hosts<EP>(
    g: &Graph,
    idx: &EdgeIndex,
    problem: &EP,
    inputs: &[EP::Input],
) -> Vec<LineGraphHost<EdgeGreedy<EP>>>
where
    EP: EdgeProblem + Clone,
{
    assert_eq!(inputs.len(), idx.m(), "inputs length mismatch");
    let shared = Arc::new(GreedyShared {
        problem: problem.clone(),
        inputs: inputs.to_vec(),
    });
    hosts(g, idx, |ctx| {
        let i = idx.index_of_label(ctx.label);
        EdgeGreedy::new(Arc::clone(&shared), i, ctx)
    })
}

/// Dynamic replica state: the hosted program's own state plus the
/// prime-step bookkeeping (`next`, `outgoing`, `done`, `output`), and the
/// local deliveries `send` staged for `receive`. Those are empty at an
/// unwrapped host's round boundaries, but a
/// [`Redundant`](awake_sleeping::Redundant) wrapper calls `send` at the
/// start of a window and `receive` at its end, so they are in flight
/// across every boundary inside the window. The topology fields (`label`,
/// `adj`, `owned`, `far_port`) are rebuilt by [`hosts`] and stay put; the
/// pooled merge/send buffers are intra-round scratch, cleared on restore
/// so a crash restore applied mid-round fully rewinds to the
/// start-of-round image.
impl<VP> Persist for LineGraphHost<VP>
where
    VP: VirtualProgram + Persist,
    VP::Msg: Codec,
    VP::Output: Codec,
{
    fn save(&self, w: &mut Writer) {
        self.replicas.len().encode(w);
        for rep in &self.replicas {
            rep.vp.save(w);
            rep.next.encode(w);
            rep.outgoing.encode(w);
            rep.done.encode(w);
            rep.output.encode(w);
        }
        self.local.encode(w);
    }
    fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), CheckpointError> {
        let count: usize = r.get()?;
        if count != self.replicas.len() {
            return Err(CheckpointError::Corrupt("replica count mismatch"));
        }
        for rep in &mut self.replicas {
            rep.vp.restore(r)?;
            rep.next = r.get()?;
            rep.outgoing = r.get()?;
            rep.done = r.get()?;
            rep.output = r.get()?;
        }
        self.local = r.get()?;
        self.lmerge.clear();
        self.xmerge.clear();
        self.venv.clear();
        self.send_buf.clear();
        Ok(())
    }
}

persist! {
    /// Dynamic state: the schedule cursor, collected lower decisions and the
    /// own decision. The schedule itself (`wakes`) is derived from the static
    /// [`EdgeCtx`] in [`EdgeGreedy::new`] and stays put.
    EdgeGreedy<EP: EdgeProblem> where EP::Output: Codec { cursor, collected, decided }
}

/// Flatten per-node owned outputs back to canonical edge order.
fn collect<O: Clone + std::fmt::Debug>(
    idx: &EdgeIndex,
    node_outputs: Vec<Vec<(u64, O)>>,
    metrics: Metrics,
) -> EdgeRun<O> {
    let mut outputs: Vec<Option<O>> = vec![None; idx.m()];
    for owned in &node_outputs {
        for (label, out) in owned {
            let i = idx.index_of_label(*label);
            debug_assert!(outputs[i].is_none(), "edge {i} reported twice");
            outputs[i] = Some(out.clone());
        }
    }
    EdgeRun {
        outputs: outputs
            .into_iter()
            .map(|o| o.expect("every edge has exactly one owner"))
            .collect(),
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use awake_graphs::generators;
    use awake_olocal::edge::{solve_edges_sequentially, EdgeColoring, MaximalMatching};
    use awake_sleeping::Engine;

    fn families() -> Vec<Graph> {
        vec![
            generators::path(9),
            generators::cycle(8),
            generators::star(12),
            generators::complete(7),
            generators::gnp(32, 0.15, 4),
            generators::random_tree(24, 2),
            generators::grid(4, 5),
            generators::caterpillar(5, 2),
            generators::lollipop(5, 4),
            generators::path(1), // no edges: every host inactive
            GraphBuilder_disconnected(),
        ]
    }

    /// Two components + an isolated node: exercises bystander hosts.
    #[allow(non_snake_case)]
    fn GraphBuilder_disconnected() -> Graph {
        let mut b = awake_graphs::GraphBuilder::new(7);
        b.edge(0, 1).edge(1, 2).edge(4, 5).edge(5, 6);
        b.build().unwrap()
    }

    /// The adapter on `spec` with trivial inputs.
    fn solve<EP>(g: &Graph, problem: &EP, spec: &StageSpec) -> EdgeRun<EP::Output>
    where
        EP: EdgeProblem<Input = ()> + Clone + Send + Sync,
        EP::Output: Codec,
    {
        let inputs = vec![(); g.m()];
        solve_edges_spec(g, problem, &inputs, Config::default(), spec).unwrap()
    }

    #[test]
    fn adapter_matches_the_sequential_reference() {
        for g in families() {
            let idx = EdgeIndex::new(&g);
            let inputs = vec![(); idx.m()];
            let mat = solve(&g, &MaximalMatching, &StageSpec::default()).outputs;
            let mat_seq = solve_edges_sequentially(&MaximalMatching, &g, &idx, &inputs);
            assert_eq!(mat, mat_seq, "matching diverges on {g:?}");
            MaximalMatching.validate(&g, &inputs, &mat).unwrap();

            let col = solve(&g, &EdgeColoring, &StageSpec::default()).outputs;
            let col_seq = solve_edges_sequentially(&EdgeColoring, &g, &idx, &inputs);
            assert_eq!(col, col_seq, "coloring diverges on {g:?}");
            EdgeColoring.validate(&g, &inputs, &col).unwrap();
        }
    }

    #[test]
    fn adapter_awake_cost_is_line_degree_bounded() {
        // A host's awake rounds are at most the union of its incident
        // edges' wake rounds: Σ_e∋v (deg_L(e) + 2).
        let g = generators::gnp(40, 0.12, 9);
        let idx = EdgeIndex::new(&g);
        let run = solve(&g, &MaximalMatching, &StageSpec::default());
        for v in g.nodes() {
            let bound: u64 = idx
                .incident(v)
                .iter()
                .map(|&i| idx.line_degree(&g, i as usize) as u64 + 2)
                .sum();
            assert!(
                run.metrics.awake[v.index()] <= bound.max(1),
                "node {v}: awake {} > bound {bound}",
                run.metrics.awake[v.index()]
            );
        }
        // Round complexity ≤ m (the largest label's announce round).
        assert!(run.metrics.rounds <= idx.m() as u64 + 1);
    }

    #[test]
    fn custom_idents_change_the_processing_order_consistently() {
        let g = generators::cycle(7).with_idents(vec![70, 10, 60, 20, 50, 30, 40]);
        let idx = EdgeIndex::new(&g);
        let run = solve(&g, &MaximalMatching, &StageSpec::default());
        let seq = solve_edges_sequentially(&MaximalMatching, &g, &idx, &vec![(); idx.m()]);
        assert_eq!(run.outputs, seq);
        MaximalMatching
            .validate(&g, &vec![(); idx.m()], &run.outputs)
            .unwrap();
    }

    #[test]
    fn serial_and_threaded_adapters_agree() {
        let g = generators::gnp(28, 0.18, 11);
        let a = solve(&g, &EdgeColoring, &StageSpec::default());
        for workers in [1, 2, 4] {
            let b = solve(&g, &EdgeColoring, &StageSpec::on(workers));
            assert_eq!(a.outputs, b.outputs, "workers = {workers}");
            assert_eq!(a.metrics, b.metrics, "workers = {workers}");
        }
    }

    #[test]
    fn crash_inside_a_redundancy_window_keeps_local_deliveries() {
        // On a star whose hub has the largest ident, the hub owns every
        // edge, and its replicas hear each other's announcements as local
        // deliveries: staged by `send` at the start of a `Redundant` window
        // and consumed by `receive` at its end. A crash in between must
        // restore them; losing them would match two edges.
        let g = generators::star(9).with_idents((1..=9).rev().collect());
        for seed in 0..16 {
            let plan = FaultPlan {
                crash_ppm: 300_000,
                quiet_after: 200,
                ..FaultPlan::new(seed)
            };
            let run = solve(
                &g,
                &MaximalMatching,
                &StageSpec::default().with_faults(Some(plan)),
            );
            assert!(run.metrics.faults_crashed > 0, "seed {seed}: no crash");
            let valid = MaximalMatching.validate(&g, &vec![(); g.m()], &run.outputs);
            assert!(valid.is_ok(), "seed {seed}: {valid:?}");
        }
    }

    /// An inner program that requests an invalid (non-future) wake round
    /// at virtual round 1 when its edge is marked bad: the host must
    /// surface it as the engine's `InvalidSleep`, like any other program.
    struct BadSleeper {
        bad: bool,
    }

    impl VirtualProgram for BadSleeper {
        type Msg = ();
        type Output = ();
        type Payload = ();
        fn send(&mut self, _vround: Round, _out: &mut Vec<VOutgoing<()>>) {}
        fn receive(&mut self, vround: Round, _inbox: &[VEnvelope<()>]) -> Action {
            if self.bad {
                Action::SleepUntil(vround) // not strictly future
            } else {
                Action::Halt
            }
        }
        fn output(&self) -> Option<()> {
            Some(())
        }
    }

    #[test]
    fn invalid_inner_sleep_surfaces_as_engine_error() {
        let g = generators::path(6);
        let idx = EdgeIndex::new(&g);
        // Mark the middle edge bad: its lower endpoint is v2.
        let bad_label = idx.label(2);
        let programs = hosts(&g, &idx, |ctx| BadSleeper {
            bad: ctx.label == bad_label,
        });
        let err = Engine::new(&g, Config::default())
            .run(programs)
            .unwrap_err();
        assert_eq!(
            err,
            SimError::InvalidSleep {
                node: NodeId(2),
                round: 1,
                until: 1
            }
        );
    }
}
