//! The event-compression equivalence property.
//!
//! The production executors jump virtual time across idle gaps in one
//! wheel batch-cascade, so their cost is proportional to awake *events*,
//! not elapsed rounds. This file checks that the jump is unobservable: on
//! randomized schedules — including 10⁹-round idle gaps, fault delays
//! whose due rounds land inside a jumped span, and snapshots taken inside
//! one — the executor at 1, 2, 4 and 8 workers is bit-for-bit identical
//! (outputs, `Metrics`, trace, snapshot bytes) to a *reference per-round
//! stepper* implemented here from the model's
//! definition, with none of the engine's machinery: no wheel, no stay
//! lane, no inbox arena. The reference derives each executed round by a
//! brute-force scan over every node's next wake round, which is the
//! Sleeping model's semantics stated directly.

use awake_graphs::{generators, Graph, NodeId};
use awake_sleeping::checkpoint::{Paused, Persist, Reader, Snapshot, Writer};
use awake_sleeping::threaded::run_threaded_timed;
use awake_sleeping::{
    Action, CheckpointError, Config, Engine, Envelope, FaultKind, FaultPlan, Metrics, Outbox,
    PhaseTimes, Program, ResumeError, Run, RunSpec, TraceEvent, TraceMode, View,
};
use std::collections::BTreeMap;

/// The idle-gap magnitude the compression must jump in O(1) bucket work: a
/// per-round reference could never scan 10⁹ rounds, so the reference below
/// *derives* empty rounds from the wake-round minimum instead of visiting
/// them — same semantics, stated directly.
const GAP: u64 = 1_000_000_000;

/// Trace cap for every run in this file — large enough that no test here
/// ever drops an event (asserted via `trace_dropped == 0` comparisons).
const CAP: usize = 200_000;

/// The executor rows of every table.
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

// ---------------------------------------------------------------------------
// A fully scripted program: its behavior is a pure function of the round,
// so the reference stepper can replay it without running the program.

/// Wakes at exactly the rounds in `wakes` (strictly increasing), broadcasts
/// its ident each awake round, records everything it hears, and halts after
/// its last scripted wake. Awake at an unscripted round (crash-restart puts
/// it there), it simply rejoins the script at the next wake after it.
#[derive(Clone)]
struct ScriptProg {
    wakes: Vec<u64>,
    heard: Vec<(u64, u64)>,
}

/// The next scripted wake strictly after `round`, shared by the program
/// and the reference stepper so both sides follow one schedule rule.
fn next_wake_after(wakes: &[u64], round: u64) -> Option<u64> {
    match wakes.binary_search(&(round + 1)) {
        Ok(i) => Some(wakes[i]),
        Err(i) => wakes.get(i).copied(),
    }
}

impl Program for ScriptProg {
    type Msg = u64;
    type Output = Vec<(u64, u64)>;
    fn initial_wake(&self) -> Option<u64> {
        self.wakes.first().copied()
    }
    fn send(&mut self, view: &View, out: &mut Outbox<u64>) {
        out.broadcast(view.ident);
    }
    fn receive(&mut self, view: &View, inbox: &[Envelope<u64>]) -> Action {
        for e in inbox {
            self.heard.push((view.round, e.msg));
        }
        match next_wake_after(&self.wakes, view.round) {
            None => Action::Halt,
            Some(w) if w == view.round + 1 => Action::Stay,
            Some(w) => Action::SleepUntil(w),
        }
    }
    fn output(&self) -> Option<Self::Output> {
        Some(self.heard.clone())
    }
}

impl Persist for ScriptProg {
    fn save(&self, w: &mut Writer) {
        use awake_sleeping::checkpoint::Codec;
        self.heard.encode(w);
    }
    fn restore(
        &mut self,
        r: &mut Reader<'_>,
    ) -> Result<(), awake_sleeping::checkpoint::CheckpointError> {
        use awake_sleeping::checkpoint::Codec;
        self.heard = Vec::decode(r)?;
        Ok(())
    }
}

fn progs(scripts: &[Vec<u64>]) -> Vec<ScriptProg> {
    scripts
        .iter()
        .map(|w| ScriptProg {
            wakes: w.clone(),
            heard: Vec::new(),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Randomized schedules.

/// xorshift64 — deterministic schedule randomness without external deps.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Per-node wake scripts mixing every gap shape the compression must
/// handle: consecutive rounds (stay lane), short and medium sleeps, sleeps
/// that cross a 64-round wheel block boundary, and 10⁹-round jumps. Half
/// the nodes share a rendezvous round on the far side of the big gap so
/// messages actually cross it.
fn random_scripts(rng: &mut Rng, n: usize) -> Vec<Vec<u64>> {
    let rendezvous = GAP + 137;
    (0..n)
        .map(|_| {
            let mut cur = 1 + rng.below(6);
            let mut wakes = vec![cur];
            for _ in 0..3 + rng.below(5) {
                cur += match rng.below(5) {
                    0 => 1,
                    1 => 2 + rng.below(4),
                    2 => 6 + rng.below(75),
                    3 => GAP + rng.below(1000),
                    _ => 64 + rng.below(64),
                };
                wakes.push(cur);
            }
            if rng.below(2) == 0 {
                wakes.push(rendezvous);
                wakes.sort_unstable();
                wakes.dedup();
            }
            wakes
        })
        .collect()
}

// ---------------------------------------------------------------------------
// The reference per-round stepper.

struct RefTrace {
    events: Vec<TraceEvent>,
    dropped: u64,
}

impl RefTrace {
    fn push(&mut self, e: TraceEvent) {
        if self.events.len() < CAP {
            self.events.push(e);
        } else {
            self.dropped += 1;
        }
    }
}

/// Deliver one transmission under the model's rule: received iff the
/// recipient is awake at exactly this round, otherwise lost.
#[allow(clippy::too_many_arguments)]
fn deliver_one(
    round: u64,
    from: NodeId,
    to: NodeId,
    msg: u64,
    next_wake: &[u64],
    metrics: &mut Metrics,
    tr: &mut RefTrace,
    inbox: &mut [Vec<(u32, u64)>],
) {
    if next_wake[to.index()] == round {
        metrics.messages_delivered += 1;
        tr.push(TraceEvent::Delivered { round, from, to });
        inbox[to.index()].push((from.0, msg));
    } else {
        metrics.messages_lost += 1;
        tr.push(TraceEvent::Lost { round, from, to });
    }
}

/// Execute `scripts` on `g` by the definition: the next executed round is
/// the minimum pending wake round over all nodes (found by brute-force
/// scan), every round between it and the previous one is an empty round,
/// and each executed round runs phase A (all awake nodes transmit), late
/// fault-delay resolution, then phase B (receive and choose). Returns the
/// exact `Run` the production executors must reproduce.
fn reference_run(g: &Graph, scripts: &[Vec<u64>], plan: Option<FaultPlan>) -> Run<Vec<(u64, u64)>> {
    let n = g.n();
    let mut metrics = Metrics::new(n);
    let mut tr = RefTrace {
        events: Vec::new(),
        dropped: 0,
    };
    // 0 = halted/never (rounds are 1-based).
    let mut next_wake: Vec<u64> = scripts.iter().map(|w| w[0]).collect();
    let mut heard: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n];
    let mut outputs: Vec<Option<Vec<(u64, u64)>>> = vec![None; n];
    let mut inbox: Vec<Vec<(u32, u64)>> = vec![Vec::new(); n];
    // (due, from, to, msg) in decision order, as the executors keep it.
    let mut delayed: Vec<(u64, u32, u32, u64)> = Vec::new();
    // Crash-restarted nodes still recovering (no non-Stay action yet).
    let mut recovering: Vec<bool> = vec![false; n];
    let mut prev = 0u64;

    while let Some(round) = (0..n).map(|v| next_wake[v]).filter(|&r| r != 0).min() {
        let awake: Vec<u32> = (0..n as u32)
            .filter(|&v| next_wake[v as usize] == round)
            .collect();
        metrics.rounds_skipped += round - prev - 1;
        metrics.rounds = round;
        prev = round;

        // Phase A: all awake nodes transmit, ascending node order.
        let mut crashed: Vec<u32> = Vec::new();
        for &v in &awake {
            let from = NodeId(v);
            metrics.note_awake(from, "main");
            tr.push(TraceEvent::Awake { round, node: from });
            if let Some(p) = plan {
                if p.crashes(round, v) {
                    crashed.push(v);
                }
            }
            let ident = g.ident(from);
            for (k, &to) in g.neighbors(from).iter().enumerate() {
                let k = k as u32;
                metrics.messages_sent += 1;
                let fate = plan.map_or(FaultKind::Deliver, |p| p.message_fate(round, v, to.0, k));
                match fate {
                    FaultKind::Deliver => {
                        deliver_one(
                            round,
                            from,
                            to,
                            ident,
                            &next_wake,
                            &mut metrics,
                            &mut tr,
                            &mut inbox,
                        );
                    }
                    FaultKind::Duplicate => {
                        metrics.faults_duplicated += 1;
                        for _ in 0..2 {
                            deliver_one(
                                round,
                                from,
                                to,
                                ident,
                                &next_wake,
                                &mut metrics,
                                &mut tr,
                                &mut inbox,
                            );
                        }
                    }
                    FaultKind::Drop => {
                        metrics.faults_dropped += 1;
                        tr.push(TraceEvent::FaultDrop { round, from, to });
                    }
                    FaultKind::Delay => {
                        metrics.faults_delayed += 1;
                        let until = round + plan.expect("delay fate implies a plan").delay_rounds;
                        tr.push(TraceEvent::FaultDelay {
                            round,
                            from,
                            to,
                            until,
                        });
                        delayed.push((until, v, to.0, ident));
                    }
                }
            }
        }

        // Between phases: delayed messages that have come due. A due round
        // nobody executed — e.g. one inside a jumped gap — loses the
        // message, stamped with its due round.
        if delayed.iter().any(|d| d.0 <= round) {
            let mut kept = Vec::new();
            let mut touched: Vec<u32> = Vec::new();
            for d in std::mem::take(&mut delayed) {
                let (due, fv, tv, msg) = d;
                if due > round {
                    kept.push(d);
                } else if due == round && next_wake[tv as usize] == round {
                    metrics.messages_delivered += 1;
                    tr.push(TraceEvent::Delivered {
                        round,
                        from: NodeId(fv),
                        to: NodeId(tv),
                    });
                    inbox[tv as usize].push((fv, msg));
                    touched.push(tv);
                } else {
                    metrics.messages_lost += 1;
                    tr.push(TraceEvent::Lost {
                        round: due,
                        from: NodeId(fv),
                        to: NodeId(tv),
                    });
                }
            }
            delayed = kept;
            touched.sort_unstable();
            touched.dedup();
            for v in touched {
                // restore sorted-by-sender (stable, as the arena does)
                inbox[v as usize].sort_by_key(|e| e.0);
            }
        }

        // Phase B: receive and choose, ascending node order. A crashed node
        // loses the round — inbox discarded, state unchanged — and restarts
        // at the next round.
        let mut rec_round = false;
        for &v in &awake {
            let vi = v as usize;
            if crashed.contains(&v) {
                inbox[vi].clear();
                tr.push(TraceEvent::Crash {
                    round,
                    node: NodeId(v),
                });
                metrics.faults_crashed += 1;
                recovering[vi] = true;
                rec_round = true;
                next_wake[vi] = round + 1;
                continue;
            }
            for &(_, msg) in &inbox[vi] {
                heard[vi].push((round, msg));
            }
            inbox[vi].clear();
            let mut stayed = false;
            match next_wake_after(&scripts[vi], round) {
                None => {
                    tr.push(TraceEvent::Halt {
                        round,
                        node: NodeId(v),
                    });
                    next_wake[vi] = 0;
                    outputs[vi] = Some(heard[vi].clone());
                }
                Some(w) if w == round + 1 => {
                    next_wake[vi] = round + 1;
                    stayed = true;
                }
                Some(w) => {
                    tr.push(TraceEvent::Sleep {
                        round,
                        node: NodeId(v),
                        until: w,
                    });
                    next_wake[vi] = w;
                }
            }
            // A recovering node pays recovery energy each awake round
            // until its first non-Stay action ends the recovery.
            if recovering[vi] {
                metrics.recovery_awake += 1;
                rec_round = true;
                if !stayed {
                    recovering[vi] = false;
                }
            }
        }
        if rec_round {
            metrics.recovery_rounds += 1;
        }
    }

    // Still-buffered delayed messages are lost at the end of the run.
    for (due, fv, tv, _) in delayed {
        metrics.messages_lost += 1;
        tr.push(TraceEvent::Lost {
            round: due,
            from: NodeId(fv),
            to: NodeId(tv),
        });
    }
    Run {
        outputs: outputs
            .into_iter()
            .map(|o| o.expect("every scripted node halts"))
            .collect(),
        metrics,
        trace: tr.events,
        trace_dropped: tr.dropped,
    }
}

// ---------------------------------------------------------------------------
// Assertions and fixtures.

fn cfg() -> Config {
    Config {
        trace: TraceMode::Capped(CAP),
        ..Config::default()
    }
}

fn assert_runs_equal(tag: &str, want: &Run<Vec<(u64, u64)>>, got: &Run<Vec<(u64, u64)>>) {
    assert_eq!(got.outputs, want.outputs, "[{tag}] outputs diverge");
    assert_eq!(got.metrics, want.metrics, "[{tag}] metrics diverge");
    assert_eq!(got.trace, want.trace, "[{tag}] traces diverge");
    assert_eq!(got.trace_dropped, want.trace_dropped, "[{tag}] drop count");
}

fn run(g: &Graph, scripts: &[Vec<u64>], spec: &RunSpec) -> Paused<Vec<(u64, u64)>> {
    Engine::new(g, cfg())
        .run_spec(progs(scripts), spec)
        .unwrap()
}

fn pause(g: &Graph, scripts: &[Vec<u64>], spec: &RunSpec, bound: u64) -> Snapshot {
    run(g, scripts, &spec.pause_after(bound)).into_snapshot()
}

/// Every executor row, under `plan`, matches `want` bit for bit.
fn assert_every_executor_matches(
    tag: &str,
    g: &Graph,
    scripts: &[Vec<u64>],
    plan: Option<FaultPlan>,
    want: &Run<Vec<(u64, u64)>>,
) {
    for workers in WORKER_COUNTS {
        let got = run(g, scripts, &RunSpec::on(workers).with_faults(plan)).finished();
        assert_runs_equal(&format!("{tag} workers {workers}"), want, &got);
    }
}

/// Pausing at `bound` gives byte-identical snapshots on every executor
/// row, and each resumes on every row to `want`. Returns the snapshot.
fn assert_pause_resume_anywhere(
    g: &Graph,
    scripts: &[Vec<u64>],
    plan: Option<FaultPlan>,
    bound: u64,
    want: &Run<Vec<(u64, u64)>>,
) -> Snapshot {
    let snap = pause(g, scripts, &RunSpec::default().with_faults(plan), bound);
    for workers in WORKER_COUNTS {
        let got = pause(g, scripts, &RunSpec::on(workers).with_faults(plan), bound);
        assert_eq!(
            got, snap,
            "pause at {bound}: workers {workers} snapshot differs"
        );
        let resume = RunSpec::on(workers).with_faults(plan).resume_from(&snap);
        let resumed = run(g, scripts, &resume).finished();
        assert_runs_equal(&format!("resume at {bound} on {workers}"), want, &resumed);
    }
    snap
}

fn graph_for(case: u64, n: usize) -> Graph {
    match case % 3 {
        0 => generators::path(n),
        1 => generators::cycle(n),
        _ => generators::gnp(n, 0.4, case),
    }
}

// ---------------------------------------------------------------------------
// The properties.

#[test]
fn compressed_executors_match_the_reference_stepper() {
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    for case in 0..10u64 {
        let n = 4 + (case as usize % 5) * 2;
        let g = graph_for(case, n);
        let scripts = random_scripts(&mut rng, g.n());
        let want = reference_run(&g, &scripts, None);
        assert_every_executor_matches(&format!("case {case}"), &g, &scripts, None, &want);

        // The compression invariant: every virtual round is either an
        // executed round (it appears in the trace) or a skipped one.
        let executed: std::collections::BTreeSet<u64> = want
            .trace
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Awake { round, .. } => Some(*round),
                _ => None,
            })
            .collect();
        assert_eq!(
            executed.len() as u64 + want.metrics.rounds_skipped,
            want.metrics.rounds,
            "case {case}: rounds = executed + skipped"
        );
        assert!(
            want.metrics.rounds_skipped >= GAP - 1_000,
            "case {case}: the 10⁹-round gap must be jumped, not executed"
        );
        assert_eq!(want.metrics.awake_events, want.metrics.total_awake());
    }
}

#[test]
fn faulty_runs_with_delays_spanning_jumps_match_the_reference() {
    let mut rng = Rng(42);
    for case in 0..9u64 {
        let n = 5 + (case as usize % 4) * 2;
        let g = graph_for(case, n);
        let scripts = random_scripts(&mut rng, g.n());
        let mut plan = FaultPlan::new(1_000 + case);
        plan.drop_ppm = 120_000;
        plan.dup_ppm = 120_000;
        plan.delay_ppm = 200_000;
        plan.crash_ppm = 80_000;
        // The third shape parks due rounds deep inside jumped gaps, so the
        // executors must lose those messages at the next *executed* round.
        plan.delay_rounds = match case % 3 {
            0 => 1,
            1 => 7,
            _ => GAP / 2,
        };
        let want = reference_run(&g, &scripts, Some(plan));
        let tag = format!("case {case} faulty");
        assert_every_executor_matches(&tag, &g, &scripts, Some(plan), &want);
        // Pause inside the prologue, with faults still firing.
        assert_pause_resume_anywhere(&g, &scripts, Some(plan), 3, &want);
    }
}

#[test]
fn snapshots_anywhere_inside_a_jumped_span_are_byte_identical() {
    // Dense prologue (rounds 1..=4), a shared 10⁹-round idle gap, then an
    // epilogue on the far side. Every pause point inside the gap must see
    // the same round-4 boundary state — the jump leaves no residue that
    // depends on *where* in the gap the pause landed.
    let g = generators::cycle(6);
    let scripts: Vec<Vec<u64>> = (0..6u64)
        .map(|v| vec![1, 2, 3, 4, GAP + 5, GAP + 6 + (v % 2)])
        .collect();
    let reference = reference_run(&g, &scripts, None);
    assert_every_executor_matches("gap fixture", &g, &scripts, None, &reference);

    let snaps: Vec<Snapshot> = [4, 5, 1_000, GAP / 2, GAP + 4]
        .into_iter()
        .map(|bound| assert_pause_resume_anywhere(&g, &scripts, None, bound, &reference))
        .collect();
    assert_eq!(snaps[0].round(), 4, "paused at the round-4 boundary");
    for (i, s) in snaps.iter().enumerate() {
        assert_eq!(
            s, &snaps[0],
            "pause point {i} inside the gap changed the snapshot bytes"
        );
    }
}

#[test]
fn snapshot_with_delayed_messages_pending_across_a_jump_resumes_identically() {
    // Half of all transmissions are delayed by GAP+1 rounds: messages sent
    // in the prologue come due around the epilogue, so the snapshot taken
    // mid-gap carries a delayed-message buffer whose due rounds lie beyond
    // the jump. Resuming must replay exactly those deliveries and losses.
    let g = generators::complete(5);
    let scripts: Vec<Vec<u64>> = (0..5u64)
        .map(|v| vec![1, 2, 3, 4, GAP + 5, GAP + 6 + (v % 2)])
        .collect();
    let mut plan = FaultPlan::new(7);
    plan.delay_ppm = 500_000;
    plan.delay_rounds = GAP + 1;
    let reference = reference_run(&g, &scripts, Some(plan));
    assert_every_executor_matches("delayed fixture", &g, &scripts, Some(plan), &reference);
    assert!(
        reference.metrics.faults_delayed > 0,
        "fixture must actually delay messages"
    );
    assert!(
        reference
            .trace
            .iter()
            .any(|e| matches!(e, TraceEvent::Delivered { round, .. } if *round > GAP)),
        "some delayed message must be delivered on the far side of the jump"
    );
    assert_pause_resume_anywhere(&g, &scripts, Some(plan), GAP / 2, &reference);
}

#[test]
fn resuming_under_another_fault_plan_is_a_typed_error() {
    // A snapshot carries the fault plan it ran under; a resume naming any
    // other plan (or none) would continue a different injection schedule,
    // so it is refused. An inactive plan still means no plan.
    let g = generators::complete(5);
    let scripts: Vec<Vec<u64>> = (0..5).map(|_| vec![1, 2, 3, 4]).collect();
    let plan = FaultPlan {
        drop_ppm: 200_000,
        ..FaultPlan::new(7)
    };
    let other = FaultPlan { seed: 8, ..plan };
    let inactive = FaultPlan::new(7);
    let faulty = pause(&g, &scripts, &RunSpec::default().with_faults(Some(plan)), 2);
    let clean = pause(&g, &scripts, &RunSpec::default(), 2);
    for workers in WORKER_COUNTS {
        let on = RunSpec::on(workers);
        for (snap, faults) in [
            (&faulty, None),
            (&faulty, Some(other)),
            (&faulty, Some(inactive)),
            (&clean, Some(plan)),
        ] {
            let resume = on.with_faults(faults).resume_from(snap);
            let got = Engine::new(&g, cfg()).run_spec(progs(&scripts), &resume);
            assert!(
                matches!(
                    got,
                    Err(ResumeError::Checkpoint(CheckpointError::FaultPlanMismatch))
                ),
                "{workers}: resume under {faults:?} must be refused"
            );
        }
        let resume = on.with_faults(Some(inactive)).resume_from(&clean);
        run(&g, &scripts, &resume).finished();
    }
}

// ---------------------------------------------------------------------------
// Dispatched rounds: the pool splits a round into chunks only when its
// degree mass is worth it, so the small graphs above never leave the
// in-place round body. These cases mix both bodies in one run.

/// The pool's dispatch threshold: on more than one worker, a round whose
/// awake degree mass (`degree + 1` per awake node) exceeds this runs as
/// chunks on the pool; any other round runs in place. A copy of the
/// executor's constant, held to it by [`assert_pool_mixes_round_kinds`].
const INLINE_MASS: u64 = 256;

/// Random scripts with every node also awake at rounds 1, 2 and 6: these
/// dense rounds (and the far rendezvous) are dispatched on a pool, the
/// sparse rounds in between run in place.
fn mixed_scripts(rng: &mut Rng, n: usize) -> Vec<Vec<u64>> {
    random_scripts(rng, n)
        .into_iter()
        .map(|mut wakes| {
            wakes.extend([1, 2, 6]);
            wakes.sort_unstable();
            wakes.dedup();
            wakes
        })
        .collect()
}

/// Whether each executed round of a reference trace is dispatched on a
/// pool (its awake degree mass exceeds [`INLINE_MASS`]).
fn dispatched_rounds(g: &Graph, trace: &[TraceEvent]) -> BTreeMap<u64, bool> {
    let mut mass = BTreeMap::new();
    for e in trace {
        if let TraceEvent::Awake { round, node } = e {
            *mass.entry(*round).or_insert(0) += g.degree(*node) as u64 + 1;
        }
    }
    mass.into_iter()
        .map(|(r, m)| (r, m > INLINE_MASS))
        .collect()
}

/// Assert, from the pool's own round counters, that a fault-free
/// 4-worker run of `scripts` dispatches exactly the rounds `kinds` (the
/// fault-free reference trace's classification) marks as dispatched, runs
/// every other executed round in place, and has rounds of both kinds.
fn assert_pool_mixes_round_kinds(
    tag: &str,
    g: &Graph,
    scripts: &[Vec<u64>],
    kinds: &BTreeMap<u64, bool>,
) {
    let mut t = PhaseTimes::default();
    run_threaded_timed(g, progs(scripts), cfg(), 4, &mut t).unwrap();
    let dispatched = kinds.values().filter(|&&d| d).count() as u64;
    assert_eq!(
        (t.dispatched_rounds, t.inline_rounds),
        (dispatched, kinds.len() as u64 - dispatched),
        "{tag}: the pool must dispatch exactly the rounds above INLINE_MASS"
    );
    assert!(
        t.dispatched_rounds > 0 && t.inline_rounds > 0,
        "{tag}: the run must mix dispatched and in-place rounds"
    );
}

/// Graphs big enough for dense rounds to dispatch and sparse rounds not to.
fn dispatch_graphs() -> [Graph; 2] {
    [generators::gnp(64, 0.3, 11), generators::path(200)]
}

#[test]
fn dispatched_rounds_match_the_reference_stepper() {
    let mut rng = Rng(0x5eed_d15c);
    for (case, g) in dispatch_graphs().iter().enumerate() {
        let scripts = mixed_scripts(&mut rng, g.n());
        let want = reference_run(g, &scripts, None);
        let tag = format!("dispatch case {case}");
        assert_pool_mixes_round_kinds(&tag, g, &scripts, &dispatched_rounds(g, &want.trace));
        assert_every_executor_matches(&tag, g, &scripts, None, &want);
        // Pause after a dispatched round, and inside the sparse span.
        for bound in [1, 2, 4] {
            assert_pause_resume_anywhere(g, &scripts, None, bound, &want);
        }
    }
}

#[test]
fn faulty_dispatched_rounds_match_the_reference() {
    let mut rng = Rng(0xfa_17ed);
    let mut crossings = [false; 2];
    for (case, g) in dispatch_graphs().iter().enumerate() {
        for delay_rounds in [1, 2, 3] {
            let scripts = mixed_scripts(&mut rng, g.n());
            let mut plan = FaultPlan::new(2_000 + delay_rounds);
            plan.drop_ppm = 100_000;
            plan.dup_ppm = 100_000;
            plan.delay_ppm = 200_000;
            plan.crash_ppm = 50_000;
            plan.delay_rounds = delay_rounds;
            let want = reference_run(g, &scripts, Some(plan));
            let tag = format!("dispatch case {case} faulty, delay {delay_rounds}");
            let clean = reference_run(g, &scripts, None);
            assert_pool_mixes_round_kinds(&tag, g, &scripts, &dispatched_rounds(g, &clean.trace));
            assert_every_executor_matches(&tag, g, &scripts, Some(plan), &want);
            for bound in [1, 3] {
                assert_pause_resume_anywhere(g, &scripts, Some(plan), bound, &want);
            }
            // Record delayed messages staged in one kind of round and
            // coming due in an executed round of the other kind.
            let kinds = dispatched_rounds(g, &want.trace);
            for e in &want.trace {
                if let TraceEvent::FaultDelay { round, until, .. } = e {
                    if let (Some(&sent), Some(&due)) = (kinds.get(round), kinds.get(until)) {
                        if sent != due {
                            crossings[sent as usize] = true;
                        }
                    }
                }
            }
        }
    }
    assert_eq!(
        crossings,
        [true, true],
        "delays must cross from in-place into dispatched rounds and back"
    );
}
