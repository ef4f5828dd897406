//! The folklore baseline: sequential greedy by identifier in the Sleeping
//! model.
//!
//! Node `v` wakes at round `1 + ident(u)` for every neighbor `u` with a
//! smaller identifier (to hear `u`'s decision) and at round `1 + ident(v)`
//! to decide and announce. Awake complexity `deg(v) + 2 = O(Δ)`; round
//! complexity `O(ident bound)`. This is the comparator the paper's §1
//! improves from `O(Δ)` (trivial) through `O(log Δ + log* n)` (BM21) to
//! `O(√log n · log* n)` (Theorem 1).

use awake_olocal::{GreedyView, OLocalProblem};
use awake_sleeping::{codec, persist, Action, Codec, Envelope, Outbox, Program, Round, View};
use std::collections::BTreeMap;

/// Message: `(ident, output)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Announce<O> {
    /// Sender identifier.
    pub ident: u64,
    /// Sender's decided output.
    pub output: O,
}

/// The by-identifier greedy program.
pub struct IdentScheduled<P: OLocalProblem> {
    problem: P,
    input: P::Input,
    /// Wake rounds: `1 + ident(u)` for lower neighbors, then `1 + ident(v)`.
    wakes: Vec<Round>,
    cursor: usize,
    collected: Vec<(u64, P::Output)>,
    decided: Option<P::Output>,
}

impl<P: OLocalProblem> IdentScheduled<P> {
    /// Program for one node.
    pub fn new(problem: P, input: P::Input) -> Self {
        IdentScheduled {
            problem,
            input,
            wakes: Vec::new(),
            cursor: 0,
            collected: Vec::new(),
            decided: None,
        }
    }
}

impl<P: OLocalProblem> IdentScheduled<P> {
    /// Decide (at the scheduled round) and produce the announcement to
    /// broadcast — shared by the bare and [`TrivialGreedy`]-wrapped forms.
    ///
    /// Fires at the first awake round at or past `1 + ident` with no
    /// decision yet. Fault-free that is exactly round `1 + ident`; under
    /// crash-restart faults the decision round can be voided (the crash
    /// discards the round's state changes), and the node then decides at
    /// its next awake round instead of halting outputless.
    fn announcement(&mut self, view: &View<'_>) -> Option<Announce<P::Output>> {
        if view.round < 1 + view.ident || self.decided.is_some() {
            return None;
        }
        // Decide now: all lower neighbors announced at earlier rounds.
        let out_neighbors = self.collected.clone();
        let closure: BTreeMap<u64, P::Output> = out_neighbors.iter().cloned().collect();
        let gv = GreedyView {
            ident: view.ident,
            degree: view.degree(),
            input: &self.input,
            out_neighbors: &out_neighbors,
            closure_outputs: &closure,
        };
        let out = self.problem.decide(&gv);
        self.decided = Some(out.clone());
        Some(Announce {
            ident: view.ident,
            output: out,
        })
    }
}

impl<P: OLocalProblem> Program for IdentScheduled<P> {
    type Msg = Announce<P::Output>;
    type Output = P::Output;

    fn send(&mut self, view: &View<'_>, out: &mut Outbox<Self::Msg>) {
        if let Some(a) = self.announcement(view) {
            out.broadcast(a);
        }
    }

    fn receive(&mut self, view: &View<'_>, inbox: &[Envelope<Self::Msg>]) -> Action {
        debug_assert!(view.round > 1, "round 1 is handled by TrivialGreedy");
        for e in inbox {
            if e.msg.ident < view.ident && !self.collected.iter().any(|(i, _)| *i == e.msg.ident) {
                self.collected.push((e.msg.ident, e.msg.output.clone()));
            }
        }
        while self.cursor < self.wakes.len() && self.wakes[self.cursor] <= view.round {
            self.cursor += 1;
        }
        match self.wakes.get(self.cursor) {
            Some(&r) => Action::SleepUntil(r),
            None => Action::Halt,
        }
    }

    fn output(&self) -> Option<P::Output> {
        self.decided.clone()
    }
}

/// The complete trivial-baseline program: round 1 exchanges identifiers,
/// after which each node follows its ident-derived schedule.
pub struct TrivialGreedy<P: OLocalProblem> {
    inner: IdentScheduled<P>,
    started: bool,
    /// Crash-recovery mode: a crash-restart wiped either the round-1
    /// schedule or the scheduled decision. The ident-derived wake plan is
    /// unrecoverable (the Hello exchange happens once), so the node stays
    /// awake, collects whatever decisions still reach it, decides at its
    /// own round, and halts — degraded awake complexity, but the run
    /// always completes with an output.
    degraded: bool,
}

impl<P: OLocalProblem> TrivialGreedy<P> {
    /// Program for one node.
    pub fn new(problem: P, input: P::Input) -> Self {
        TrivialGreedy {
            inner: IdentScheduled::new(problem, input),
            started: false,
            degraded: false,
        }
    }
}

/// Round-1 identifier announcement or a decision announcement.
#[derive(Debug, Clone, PartialEq)]
pub enum TrivialMsg<O> {
    /// `(ident)` — sent by everyone at round 1.
    Hello(u64),
    /// A decision.
    Decision(Announce<O>),
}

impl<P: OLocalProblem> Program for TrivialGreedy<P> {
    type Msg = TrivialMsg<P::Output>;
    type Output = P::Output;

    fn send(&mut self, view: &View<'_>, out: &mut Outbox<Self::Msg>) {
        if view.round == 1 {
            out.broadcast(TrivialMsg::Hello(view.ident));
        } else if let Some(a) = self.inner.announcement(view) {
            out.broadcast(TrivialMsg::Decision(a));
        }
    }

    fn receive(&mut self, view: &View<'_>, inbox: &[Envelope<Self::Msg>]) -> Action {
        if view.round == 1 {
            self.started = true;
            let mut wakes: Vec<Round> = inbox
                .iter()
                .filter_map(|e| match &e.msg {
                    TrivialMsg::Hello(ident) if *ident < view.ident => Some(1 + *ident),
                    _ => None,
                })
                .collect();
            wakes.push(1 + view.ident);
            wakes.sort_unstable();
            wakes.dedup();
            self.inner.wakes = wakes;
            let first = self.inner.wakes[0];
            return Action::SleepUntil(first);
        }
        if !self.started {
            // A crash-restart at round 1 discarded the Hello inbox; the
            // ident schedule cannot be rebuilt. Degrade: poll every round
            // until our own decision round has produced an output.
            self.started = true;
            self.degraded = true;
            self.inner.wakes = vec![1 + view.ident];
        }
        let decisions: Vec<Envelope<Announce<P::Output>>> = inbox
            .iter()
            .filter_map(|e| match &e.msg {
                TrivialMsg::Decision(a) => Some(Envelope {
                    from: e.from,
                    msg: a.clone(),
                }),
                _ => None,
            })
            .collect();
        if self.degraded {
            for e in &decisions {
                if e.msg.ident < view.ident
                    && !self.inner.collected.iter().any(|(i, _)| *i == e.msg.ident)
                {
                    self.inner
                        .collected
                        .push((e.msg.ident, e.msg.output.clone()));
                }
            }
            return if self.inner.decided.is_some() {
                Action::Halt
            } else {
                Action::Stay
            };
        }
        let action = self.inner.receive(view, &decisions);
        if matches!(action, Action::Halt) && self.inner.decided.is_none() {
            // The scheduled decision round was voided by a crash-restart:
            // stay awake so `announcement` fires again next round.
            self.degraded = true;
            return Action::Stay;
        }
        action
    }

    fn output(&self) -> Option<P::Output> {
        self.inner.output()
    }

    fn span(&self) -> &'static str {
        "trivial"
    }
}

codec!(struct Announce<O: Codec> { ident, output });

codec!(enum TrivialMsg<O: Codec> { 0 => Hello(ident), 1 => Decision(a) });

persist! {
    /// Dynamic state: the round-1 and crash-degradation flags, the
    /// ident-derived schedule (learned at round 1, hence dynamic), the
    /// schedule cursor, the collected lower decisions and the own decision.
    /// The problem and input are construction inputs and stay put.
    TrivialGreedy<P: OLocalProblem> where P::Output: Codec {
        started,
        degraded,
        inner.wakes,
        inner.cursor,
        inner.collected,
        inner.decided,
    }
}

/// Exact awake bound of the trivial baseline for a node of degree `deg`.
pub fn trivial_awake_bound(deg: usize) -> u64 {
    deg as u64 + 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use awake_graphs::{generators, AcyclicOrientation};
    use awake_olocal::problems::{DeltaPlusOneColoring, MaximalIndependentSet};
    use awake_sleeping::{Config, Engine};

    #[test]
    fn trivial_solves_and_matches_sequential() {
        for g in [
            generators::gnp(50, 0.15, 4),
            generators::star(20),
            generators::cycle(9),
        ] {
            let p = MaximalIndependentSet;
            let programs: Vec<TrivialGreedy<MaximalIndependentSet>> =
                g.nodes().map(|_| TrivialGreedy::new(p, ())).collect();
            let run = Engine::new(&g, Config::default()).run(programs).unwrap();
            p.validate(&g, &vec![(); g.n()], &run.outputs).unwrap();
            // identical to the sequential greedy along the by-ident orientation
            let mu = AcyclicOrientation::by_ident(&g);
            let seq = awake_olocal::greedy::solve_sequentially(&p, &g, &mu, &vec![(); g.n()]);
            assert_eq!(run.outputs, seq);
            // awake ≤ deg + 2, rounds ≤ ident bound + 1
            for v in g.nodes() {
                assert!(
                    run.metrics.awake[v.index()] <= trivial_awake_bound(g.degree(v)),
                    "node {v}"
                );
            }
            assert!(run.metrics.rounds <= g.ident_bound() + 1);
        }
    }

    #[test]
    fn trivial_coloring_uses_degree_plus_one() {
        let g = generators::complete(12);
        let programs: Vec<TrivialGreedy<DeltaPlusOneColoring>> = g
            .nodes()
            .map(|_| TrivialGreedy::new(DeltaPlusOneColoring, ()))
            .collect();
        let run = Engine::new(&g, Config::default()).run(programs).unwrap();
        DeltaPlusOneColoring
            .validate(&g, &vec![(); g.n()], &run.outputs)
            .unwrap();
        // on K12 the trivial baseline is awake Θ(Δ): every node hears all
        // lower neighbors
        assert_eq!(run.metrics.max_awake(), 13);
    }
}
