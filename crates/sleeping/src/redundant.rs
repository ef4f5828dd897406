//! Time-redundancy wrapping: fault tolerance for *any* program.
//!
//! [`Redundant<P>`] executes an inner [`Program`] on a stretched clock:
//! inner (*virtual*) round `v` occupies the window of real rounds
//! `(v-1)·S+1 ..= v·S`. During its window a node retransmits its virtual
//! round's messages in **every** real round (each copy tagged with the
//! virtual round and a per-message sequence number), buffers and
//! deduplicates the copies it hears, and steps the inner program exactly
//! once, at the window's last round. The inner program observes precisely
//! the unwrapped Sleeping-model semantics — same views, same sorted
//! inboxes, same round numbers (virtual) — so *any* deterministic program
//! gains fault tolerance without changing a line:
//!
//! * a **dropped** copy is covered by the window's surviving copies;
//! * a **duplicated** copy is removed by sequence-number deduplication;
//! * a **delayed** copy either lands later in the same window (absorbed)
//!   or carries a stale virtual-round tag and is discarded;
//! * a **crash-restart** rolls the wrapper back to its start-of-round
//!   state: a re-capture of the inner send is re-run deterministically, at
//!   most one real round of copies is lost in each direction, and the
//!   crash-forced wake-ups outside the node's scheduled windows simply
//!   re-issue the sleep until the next window.
//!
//! With `S = 2L+2`, any `L` crash-restarts per window per edge endpoint
//! leave at least one round in which a copy is both transmitted and
//! heard; [`crate::faults::redundancy_for`] sizes `S` from a
//! [`crate::FaultPlan`]'s rates. The cost is exact and closed-form: awake
//! and round complexity scale by `S` (plus crash-forced wake-ups), which
//! is what the lab's degraded budgets audit.
//!
//! The wrapper is itself a plain deterministic [`Program`], so serial /
//! threaded bit-for-bit equivalence and checkpoint/restore come for free;
//! [`Persist`] (for crash rollback and snapshots) requires only `P:
//! Persist` and a [`Codec`] message type.

use crate::checkpoint::{CheckpointError, Codec, Persist, Reader, Writer};
use crate::program::{Action, Envelope, OutEntry, Outbox, Program, View};
use crate::Round;
use awake_graphs::NodeId;

/// A message copy on the wire: `(virtual round, sequence number, payload)`.
///
/// The sequence number is the payload's index in the sender's virtual-round
/// outbox, so a receiver reassembles the exact unwrapped inbox — order
/// included — from any sufficient subset of copies.
pub type RedundantMsg<M> = (Round, u32, M);

/// Executes `P` with `S`-fold time redundancy; see the [module
/// docs](self) for the protocol and its guarantees.
#[derive(Debug, Clone)]
pub struct Redundant<P: Program> {
    inner: P,
    /// The stretch factor `S ≥ 1` (1 = no redundancy, pure relabeling).
    s: Round,
    /// The virtual round whose window this node last serviced (0 = none).
    cur: Round,
    /// Whether the inner send for `cur` has been captured.
    sent: bool,
    /// Whether `inner.receive(cur)` is still owed (set at capture, cleared
    /// when the window's inbox is delivered — possibly late, after
    /// crash-restarts pushed the node past its window's last round).
    pending: bool,
    /// The inner program's next scheduled virtual round (0 = halted).
    next_v: Round,
    /// Whether the inner program has halted.
    halted: bool,
    /// The captured inner outbox of `cur`, retransmitted every real round
    /// of the window: `(port or broadcast, payload)` in send order.
    cache: Vec<(Option<NodeId>, P::Msg)>,
    /// Copies heard for `cur`'s window, deduplicated by `(from, seq)`.
    buf: Vec<(u32, u32, P::Msg)>,
    /// Recycled backing buffer for capturing the inner send.
    scratch: Vec<OutEntry<P::Msg>>,
}

impl<P: Program> Redundant<P> {
    /// Wrap `inner` with stretch factor `s` (clamped to at least 1).
    pub fn new(inner: P, s: Round) -> Self {
        let s = s.max(1);
        let next_v = inner.initial_wake().unwrap_or(0);
        Redundant {
            inner,
            s,
            cur: 0,
            sent: false,
            pending: false,
            next_v,
            halted: false,
            cache: Vec::new(),
            buf: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// The stretch factor.
    pub fn stretch(&self) -> Round {
        self.s
    }

    /// The wrapped program.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// The virtual round whose window contains real `round`.
    #[inline]
    fn vround(&self, round: Round) -> Round {
        (round - 1) / self.s + 1
    }

    /// First real round of virtual round `v`'s window.
    #[inline]
    fn window_start(&self, v: Round) -> Round {
        (v - 1) * self.s + 1
    }

    /// Deliver window `v`'s buffered copies to the inner program as its
    /// virtual-round-`v` inbox and record its next schedule.
    fn step_inner(&mut self, v: Round, view: &View<'_>) {
        // (from, seq) ascending is exactly the unwrapped inbox order:
        // sorted by sending port, send order within a port.
        self.buf.sort_unstable_by_key(|&(from, seq, _)| (from, seq));
        let inbox: Vec<Envelope<P::Msg>> = self
            .buf
            .drain(..)
            .map(|(from, _, msg)| Envelope {
                from: NodeId(from),
                msg,
            })
            .collect();
        let iv = View {
            round: v,
            me: view.me,
            ident: view.ident,
            n: view.n,
            neighbors: view.neighbors,
        };
        let action = self.inner.receive(&iv, &inbox);
        self.pending = false;
        match action {
            Action::Stay => self.next_v = v + 1,
            Action::SleepUntil(u) => {
                debug_assert!(u > v, "inner slept into the past: {u} <= {v}");
                self.next_v = u;
            }
            Action::Halt => {
                self.next_v = 0;
                self.halted = true;
            }
        }
    }
}

impl<P: Program> Program for Redundant<P> {
    type Msg = RedundantMsg<P::Msg>;
    type Output = P::Output;

    fn initial_wake(&self) -> Option<Round> {
        self.inner.initial_wake().map(|v| self.window_start(v))
    }

    fn send(&mut self, view: &View<'_>, out: &mut Outbox<Self::Msg>) {
        if self.halted {
            return;
        }
        let v = self.vround(view.round);
        // A crash at the window's last round rolled back past the inner
        // step: deliver the (possibly thinned) buffered inbox late, before
        // anything else of this round.
        if self.pending && self.cur < v {
            let cur = self.cur;
            self.step_inner(cur, view);
            if self.halted {
                return;
            }
        }
        if self.next_v != v {
            // Off-schedule wake (crash-forced): nothing to transmit.
            return;
        }
        if self.cur != v {
            self.cur = v;
            self.sent = false;
            self.buf.clear();
        }
        if !self.sent {
            // Capture the inner send exactly once per window. A crash in
            // the capture round rolls `sent` (and the inner state) back,
            // so the deterministic re-capture next round is identical.
            let iv = View {
                round: v,
                me: view.me,
                ident: view.ident,
                n: view.n,
                neighbors: view.neighbors,
            };
            let mut ob = Outbox::from_vec(std::mem::take(&mut self.scratch));
            ob.clear();
            self.inner.send(&iv, &mut ob);
            self.cache.clear();
            self.cache.extend(ob.items.drain(..).map(|e| (e.to, e.msg)));
            self.scratch = ob.into_vec();
            self.sent = true;
            self.pending = true;
        }
        // Retransmit the whole captured outbox, every real round of the
        // window.
        for (seq, (to, msg)) in self.cache.iter().enumerate() {
            let tagged = (v, seq as u32, msg.clone());
            match to {
                Some(p) => out.to(*p, tagged),
                None => out.broadcast(tagged),
            }
        }
    }

    fn receive(&mut self, view: &View<'_>, inbox: &[Envelope<Self::Msg>]) -> Action {
        if self.halted {
            // Only reachable when a late inner step (in this round's send)
            // halted the program.
            return Action::Halt;
        }
        let v = self.vround(view.round);
        if self.next_v == v {
            // Scheduled window: collect and deduplicate this round's
            // copies. Stale tags (delayed copies from earlier windows, or
            // neighbors in other windows) are the unwrapped model's lost
            // messages — discarded.
            for e in inbox {
                let (vr, seq, ref msg) = e.msg;
                if vr != v {
                    continue;
                }
                let from = e.from.0;
                if self.buf.iter().any(|&(f, q, _)| f == from && q == seq) {
                    continue;
                }
                self.buf.push((from, seq, msg.clone()));
            }
            let pos = view.round - self.window_start(v) + 1;
            if pos < self.s {
                return Action::Stay;
            }
            self.step_inner(v, view);
        }
        if self.halted {
            return Action::Halt;
        }
        // Sleep to the start of the next scheduled window; if it is the
        // very next real round, stay awake. Off-schedule wake-ups
        // (`next_v != v`, crash-forced) land here too: `next_v > v`
        // always, because the wrapper only sleeps to window starts.
        let target = self.window_start(self.next_v);
        if target == view.round + 1 {
            Action::Stay
        } else {
            Action::SleepUntil(target)
        }
    }

    fn output(&self) -> Option<P::Output> {
        self.inner.output()
    }
}

impl<P> Persist for Redundant<P>
where
    P: Program + Persist,
    P::Msg: Codec,
{
    fn save(&self, w: &mut Writer) {
        self.inner.save(w);
        self.cur.encode(w);
        self.sent.encode(w);
        self.pending.encode(w);
        self.next_v.encode(w);
        self.halted.encode(w);
        self.cache.encode(w);
        self.buf.encode(w);
    }

    fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), CheckpointError> {
        self.inner.restore(r)?;
        self.cur = Round::decode(r)?;
        self.sent = bool::decode(r)?;
        self.pending = bool::decode(r)?;
        self.next_v = Round::decode(r)?;
        self.halted = bool::decode(r)?;
        self.cache = Vec::decode(r)?;
        self.buf = Vec::decode(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::redundancy_for;
    use crate::{Config, Engine, FaultPlan, Run, RunSpec};
    use awake_graphs::generators;

    /// Flood-max: every node repeatedly broadcasts the largest identifier
    /// it knows and halts with it once stable for `diam` rounds — enough
    /// structure to notice any timing or inbox corruption, and a
    /// deterministic output (the global max) to check validity against.
    #[derive(Clone, Debug)]
    struct FloodMax {
        best: u64,
        quiet: u64,
        need: u64,
    }

    impl Program for FloodMax {
        type Msg = u64;
        type Output = u64;
        fn send(&mut self, view: &View<'_>, out: &mut Outbox<u64>) {
            if view.round == 1 {
                self.best = view.ident;
            }
            out.broadcast(self.best);
        }
        fn receive(&mut self, _view: &View<'_>, inbox: &[Envelope<u64>]) -> Action {
            let before = self.best;
            for e in inbox {
                self.best = self.best.max(e.msg);
            }
            if self.best == before {
                self.quiet += 1;
            } else {
                self.quiet = 0;
            }
            if self.quiet >= self.need {
                Action::Halt
            } else {
                Action::Stay
            }
        }
        fn output(&self) -> Option<u64> {
            Some(self.best)
        }
    }

    crate::persist!(FloodMax { best, quiet });

    fn flood(n: usize) -> Vec<FloodMax> {
        (0..n)
            .map(|_| FloodMax {
                best: 0,
                quiet: 0,
                need: n as u64,
            })
            .collect()
    }

    fn run_plain(n: usize) -> Run<u64> {
        let g = generators::cycle(n);
        Engine::new(&g, Config::default()).run(flood(n)).unwrap()
    }

    fn run_wrapped(n: usize, s: Round, plan: Option<FaultPlan>) -> Run<u64> {
        let g = generators::cycle(n);
        let progs: Vec<Redundant<FloodMax>> =
            flood(n).into_iter().map(|p| Redundant::new(p, s)).collect();
        let spec = RunSpec::default().with_faults(plan);
        Engine::new(&g, Config::default())
            .run_spec(progs, &spec)
            .unwrap()
            .finished()
    }

    #[test]
    fn fault_free_wrap_is_a_pure_time_dilation() {
        let plain = run_plain(7);
        for s in [1u64, 2, 3, 5] {
            let wrapped = run_wrapped(7, s, None);
            assert_eq!(wrapped.outputs, plain.outputs, "s={s}: outputs");
            assert_eq!(
                wrapped.metrics.rounds,
                plain.metrics.rounds * s,
                "s={s}: rounds scale exactly"
            );
            assert_eq!(
                wrapped.metrics.max_awake(),
                plain.metrics.max_awake() * s,
                "s={s}: awake scales exactly"
            );
        }
    }

    #[test]
    fn crashes_drops_dups_delays_do_not_change_the_output() {
        let plain = run_plain(9);
        let mut plan = FaultPlan::new(0xC0FFEE);
        plan.drop_ppm = 120_000;
        plan.dup_ppm = 60_000;
        plan.delay_ppm = 60_000;
        plan.delay_rounds = 1;
        plan.crash_ppm = 60_000;
        plan.quiet_after = 400;
        let s = redundancy_for(&plan, 9, plain.metrics.rounds);
        assert!(s >= 2, "plan must force real redundancy, got {s}");
        let run = run_wrapped(9, s, Some(plan));
        assert_eq!(run.outputs, plain.outputs, "degraded run stays valid");
        assert!(
            run.metrics.faults_crashed > 0 && run.metrics.faults_dropped > 0,
            "plan must actually fire: {:?}",
            run.metrics
        );
        assert!(
            run.metrics.recovery_awake > 0,
            "crash recovery must be accounted"
        );
    }

    #[test]
    fn crash_burst_at_decision_rounds_is_survived() {
        let plain = run_plain(6);
        let mut plan = FaultPlan::new(7);
        // Every node crashes in every burst round — the worst case the
        // 2L+2 sizing is built for.
        plan.crash_ppm = 1_000_000;
        plan.burst_start = 4;
        plan.burst_len = 2;
        let s = redundancy_for(&plan, 6, plain.metrics.rounds);
        assert_eq!(s, 2 * 2 + 2, "L=2 crashes per window");
        let run = run_wrapped(6, s, Some(plan));
        assert_eq!(run.outputs, plain.outputs);
        assert!(run.metrics.faults_crashed >= 6, "burst hits every node");
    }

    #[test]
    fn wrapper_persists_through_snapshot_and_restore() {
        let n = 8;
        let g = generators::cycle(n);
        let mut plan = FaultPlan::new(99);
        plan.crash_ppm = 80_000;
        plan.quiet_after = 300;
        let s = redundancy_for(&plan, n, 64);
        let mk = || -> Vec<Redundant<FloodMax>> {
            flood(n).into_iter().map(|p| Redundant::new(p, s)).collect()
        };
        let engine = Engine::new(&g, Config::default());
        let faulty = RunSpec::default().with_faults(Some(plan));
        let full = engine.run_spec(mk(), &faulty).unwrap().finished();
        // Pause mid-run (while crashes are still firing), resume, compare.
        let pause = faulty.pause_after(9);
        let snap = engine.run_spec(mk(), &pause).unwrap().into_snapshot();
        let resume = faulty.resume_from(&snap);
        let resumed = engine.run_spec(mk(), &resume).unwrap().finished();
        assert_eq!(resumed.outputs, full.outputs, "resume diverged");
        assert_eq!(resumed.metrics, full.metrics, "metrics diverged");
    }
}
