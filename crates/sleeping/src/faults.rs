//! Deterministic, seeded fault injection for both executors.
//!
//! The Sleeping model already loses messages "for free" — a message to an
//! asleep node vanishes — so adversarial message loss and crash-restart are
//! natural robustness surfaces for the executors. A [`FaultPlan`] makes
//! them *deterministic*: every fault decision is a pure function of
//! `(plan.seed, round, endpoints, per-sender transmission index)`, so a
//! faulty run is exactly as reproducible as a clean one — same outputs,
//! same [`Metrics`](crate::Metrics), same trace, on the serial engine and
//! on the threaded executor at any worker count. That is what makes fault
//! campaigns testable to equality rather than statistically.
//!
//! Four fault kinds, rolled per transmission (one hash per message) or per
//! node-round (crashes):
//!
//! * **drop** — the message is silently discarded *in flight*. Distinct
//!   from the model's own loss: it is counted in
//!   [`Counters::faults_dropped`](crate::Counters::faults_dropped), not in
//!   `messages_lost`, and traced as [`TraceEvent::FaultDrop`].
//! * **duplicate** — the message is delivered twice (each copy then
//!   subject to the normal awake-recipient rule).
//! * **delay** — the message is buffered for
//!   [`delay_rounds`](FaultPlan::delay_rounds) rounds; it is delivered
//!   only if its recipient happens to be awake at exactly the due round,
//!   and is otherwise lost (the model's rule, applied late).
//! * **crash** — an awake node loses all state changes of the current
//!   round: its start-of-round state is saved through
//!   [`Persist`](crate::Persist), its sends still go out (they left the
//!   node before the crash), its inbox is discarded, and it restarts from
//!   the saved state at the next round.
//!
//! [`TraceEvent::FaultDrop`]: crate::TraceEvent::FaultDrop

use crate::Round;
use awake_graphs::NodeId;

/// One full roll range: fault probabilities are in parts-per-million.
pub const PPM_SCALE: u32 = 1_000_000;

const MSG_SALT: u64 = 0x6d65_7373_6167_6573; // "messages"
const CRASH_SALT: u64 = 0x6372_6173_6865_7321; // "crashes!"

/// splitmix64 finalizer: the avalanche stage used to derive independent
/// per-decision rolls from the plan seed.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The fate of one transmission under a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Delivered normally (the overwhelmingly common roll).
    Deliver,
    /// Discarded in flight.
    Drop,
    /// Delivered twice.
    Duplicate,
    /// Buffered for [`FaultPlan::delay_rounds`] rounds.
    Delay,
}

/// A seeded, deterministic fault-injection plan.
///
/// Probabilities are in parts per million and are checked in the fixed
/// precedence drop → duplicate → delay against a single per-transmission
/// roll, so `drop_ppm + dup_ppm + delay_ppm` must be at most [`PPM_SCALE`]
/// for each probability to be honored exactly. Crashes are rolled
/// independently, once per awake node-round.
///
/// The same plan produces the same faults on the serial engine and the
/// threaded executor at any worker count: decisions depend only on the
/// seed, the round, the endpoints, and the sender's per-round transmission
/// index — never on scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed all fault decisions derive from.
    pub seed: u64,
    /// Probability (ppm) that a transmission is dropped in flight.
    pub drop_ppm: u32,
    /// Probability (ppm) that a transmission is duplicated.
    pub dup_ppm: u32,
    /// Probability (ppm) that a transmission is delayed.
    pub delay_ppm: u32,
    /// Probability (ppm) that an awake node crash-restarts this round.
    pub crash_ppm: u32,
    /// How many rounds a delayed message is held before its delivery is
    /// attempted (must be ≥ 1; the message is lost unless its recipient is
    /// awake at exactly `round + delay_rounds`).
    pub delay_rounds: Round,
    /// First round of the injection window (with [`burst_len`]). Outside
    /// the window every roll is suppressed: messages deliver, nodes don't
    /// crash. `burst_len == 0` disables the window (faults everywhere),
    /// regardless of this field.
    ///
    /// [`burst_len`]: FaultPlan::burst_len
    pub burst_start: Round,
    /// Length of the injection window starting at
    /// [`burst_start`](FaultPlan::burst_start); `0` means "no window" —
    /// faults are injected at every round. Targeted adversaries (crash
    /// bursts at decision rounds, drop bursts along tree phases) are built
    /// from this.
    pub burst_len: Round,
    /// No fault is injected at or after this round — the *quiet period*
    /// of the recovery contract: after the last fault, the run must still
    /// produce a valid output within the degraded budget. `0` means "never
    /// quiet" (no guarantee horizon).
    pub quiet_after: Round,
}

impl FaultPlan {
    /// A plan that injects nothing; set the ppm fields to taste.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_ppm: 0,
            dup_ppm: 0,
            delay_ppm: 0,
            crash_ppm: 0,
            delay_rounds: 1,
            burst_start: 0,
            burst_len: 0,
            quiet_after: 0,
        }
    }

    /// Whether faults may be injected at `round`: inside the burst window
    /// (if any) and before the quiet period (if any). Pure, like the rolls
    /// it gates.
    #[inline]
    pub fn in_window(&self, round: Round) -> bool {
        (self.quiet_after == 0 || round < self.quiet_after)
            && (self.burst_len == 0
                || (round >= self.burst_start
                    && round < self.burst_start.saturating_add(self.burst_len)))
    }

    #[inline]
    fn roll(&self, salt: u64, a: u64, b: u64, c: u64) -> u64 {
        mix(self.seed ^ mix(salt ^ mix(a ^ mix(b ^ mix(c)))))
    }

    /// The fate of the `k`-th transmission of node `from` at `round`,
    /// addressed to `to`. Pure: both executors call this with identical
    /// arguments regardless of chunking, so they roll identical fates.
    #[inline]
    pub fn message_fate(&self, round: Round, from: u32, to: u32, k: u32) -> FaultKind {
        if self.drop_ppm == 0 && self.dup_ppm == 0 && self.delay_ppm == 0 {
            return FaultKind::Deliver;
        }
        if !self.in_window(round) {
            return FaultKind::Deliver;
        }
        let pair = ((from as u64) << 32) | to as u64;
        let r = (self.roll(MSG_SALT, round, pair, k as u64) % PPM_SCALE as u64) as u32;
        if r < self.drop_ppm {
            FaultKind::Drop
        } else if r < self.drop_ppm + self.dup_ppm {
            FaultKind::Duplicate
        } else if r < self.drop_ppm + self.dup_ppm + self.delay_ppm {
            FaultKind::Delay
        } else {
            FaultKind::Deliver
        }
    }

    /// Whether `node` crash-restarts at `round` (rolled once per awake
    /// node-round, independent of the message rolls).
    #[inline]
    pub fn crashes(&self, round: Round, node: u32) -> bool {
        self.crash_ppm > 0
            && self.in_window(round)
            && (self.roll(CRASH_SALT, round, node as u64, 0) % PPM_SCALE as u64)
                < self.crash_ppm as u64
    }

    /// Whether this plan can inject anything at all.
    pub fn is_active(&self) -> bool {
        self.drop_ppm > 0 || self.dup_ppm > 0 || self.delay_ppm > 0 || self.crash_ppm > 0
    }
}

/// One delayed in-flight message.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DelayedMsg<M> {
    /// Round at which delivery is attempted.
    pub(crate) due: Round,
    pub(crate) from: NodeId,
    pub(crate) to: NodeId,
    pub(crate) msg: M,
}

/// The mutable fault-injection state of a run: the plan plus the buffer of
/// delayed in-flight messages (part of a checkpoint, so a resumed faulty
/// run replays the exact same deliveries).
#[derive(Debug)]
pub(crate) struct FaultState<M> {
    pub(crate) plan: FaultPlan,
    /// Delayed messages in decision order (= sender node order within each
    /// round, rounds ascending) — both executors append identically.
    pub(crate) delayed: Vec<DelayedMsg<M>>,
    /// `recovering[v]`: node `v` has crash-restarted and has not yet taken
    /// a non-[`Stay`](crate::Action::Stay) action — its awake rounds are
    /// recovery overhead, counted in
    /// [`Counters::recovery_awake`](crate::Counters::recovery_awake). Sized
    /// to the node count by the executors; part of a snapshot.
    pub(crate) recovering: Vec<bool>,
}

impl<M> FaultState<M> {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        FaultState {
            plan,
            delayed: Vec::new(),
            recovering: Vec::new(),
        }
    }
}

/// The largest window the redundancy sizer will recommend; wider windows
/// multiply every awake and round budget, so plans hot enough to need more
/// are clamped here and covered best-effort (the suite's validity gate
/// still checks the outcome).
pub const MAX_REDUNDANCY: Round = 64;

/// The maximum number of crash rolls any single node takes within any
/// window of `win` consecutive rounds, enumerated exactly over rounds
/// `1..=horizon`. Deterministic in the plan, so both the budget model and
/// the wrapper sizing see the same adversary.
fn max_window_crashes(plan: &FaultPlan, n: usize, horizon: Round, win: Round) -> u64 {
    let mut worst = 0u64;
    let mut hits: Vec<Round> = Vec::new();
    for v in 0..n as u32 {
        hits.clear();
        for r in 1..=horizon {
            if plan.crashes(r, v) {
                hits.push(r);
            }
        }
        let mut lo = 0usize;
        for hi in 0..hits.len() {
            while hits[hi] - hits[lo] >= win {
                lo += 1;
            }
            worst = worst.max((hi - lo + 1) as u64);
        }
    }
    worst
}

/// The time-redundancy window `S` that makes a run of `base_rounds` rounds
/// on `n` nodes tolerate `plan` when every program is wrapped in
/// [`Redundant`](crate::Redundant): each inner round is stretched to `S`
/// real rounds, every message is re-sent at each of them, so a node that
/// loses `L` rounds of a window to crashes (and messages delayed by up to
/// `delay_rounds`) still observes every inner-round exchange.
///
/// Returns `1` (no stretching) for an inactive plan. Otherwise `S` is the
/// maximum of: `2`, `2L + 2` where `L` is the exact worst per-node crash
/// count in any [`MAX_REDUNDANCY`]-round window over a conservative
/// horizon, and `delay_rounds + 2` when delays are enabled — clamped to
/// [`MAX_REDUNDANCY`]. Drops are covered by the surviving copies (each
/// transmission is rolled independently per real round), which the suite
/// verifies per seed rather than by construction.
pub fn redundancy_for(plan: &FaultPlan, n: usize, base_rounds: Round) -> Round {
    if !plan.is_active() {
        return 1;
    }
    let mut need: Round = 2;
    if plan.delay_ppm > 0 {
        need = need.max(plan.delay_rounds.saturating_add(2));
    }
    if plan.crash_ppm > 0 {
        let horizon = base_rounds
            .saturating_mul(8)
            .saturating_add(MAX_REDUNDANCY)
            .min(1 << 20);
        let l = if (n as u64).saturating_mul(horizon) <= 16_000_000 {
            max_window_crashes(plan, n, horizon, MAX_REDUNDANCY)
        } else {
            // Enumeration would be slower than the run itself: fall back
            // to an 8× margin over the expected crash count per window.
            (MAX_REDUNDANCY * plan.crash_ppm as u64 * 8)
                .div_ceil(PPM_SCALE as u64)
                .max(1)
        };
        need = need.max(2 * l + 2);
    }
    need.clamp(2, MAX_REDUNDANCY)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_plan_always_delivers() {
        let p = FaultPlan::new(7);
        assert!(!p.is_active());
        for k in 0..100 {
            assert_eq!(p.message_fate(3, 0, 1, k), FaultKind::Deliver);
            assert!(!p.crashes(3, k));
        }
    }

    #[test]
    fn fates_are_deterministic_and_seed_sensitive() {
        let mut a = FaultPlan::new(1);
        a.drop_ppm = 250_000;
        a.dup_ppm = 250_000;
        a.delay_ppm = 250_000;
        let b = FaultPlan { seed: 2, ..a };
        let fates_a: Vec<_> = (0..64).map(|k| a.message_fate(5, 3, 4, k)).collect();
        let fates_a2: Vec<_> = (0..64).map(|k| a.message_fate(5, 3, 4, k)).collect();
        let fates_b: Vec<_> = (0..64).map(|k| b.message_fate(5, 3, 4, k)).collect();
        assert_eq!(fates_a, fates_a2, "same plan, same fates");
        assert_ne!(fates_a, fates_b, "different seeds diverge");
        // with 75% fault mass, all four kinds should appear in 64 rolls
        for kind in [
            FaultKind::Deliver,
            FaultKind::Drop,
            FaultKind::Duplicate,
            FaultKind::Delay,
        ] {
            assert!(fates_a.contains(&kind), "missing {kind:?}");
        }
    }

    #[test]
    fn rates_are_roughly_honored() {
        let mut p = FaultPlan::new(42);
        p.drop_ppm = 100_000; // 10%
        let n = 20_000;
        let drops = (0..n)
            .filter(|&k| p.message_fate(1, 0, 1, k) == FaultKind::Drop)
            .count();
        let rate = drops as f64 / n as f64;
        assert!((0.08..0.12).contains(&rate), "drop rate {rate}");
    }

    #[test]
    fn burst_window_and_quiet_period_gate_all_rolls() {
        let mut p = FaultPlan::new(3);
        p.drop_ppm = 900_000;
        p.crash_ppm = 900_000;
        p.burst_start = 10;
        p.burst_len = 5;
        // outside the burst: everything delivers, nobody crashes
        for r in (1..10).chain(15..40) {
            for k in 0..8 {
                assert_eq!(p.message_fate(r, 0, 1, k), FaultKind::Deliver, "round {r}");
            }
            assert!(!p.crashes(r, 0), "round {r}");
        }
        // inside the burst the 90% rates bite
        let in_burst = (10..15)
            .flat_map(|r| (0..8).map(move |k| (r, k)))
            .filter(|&(r, k)| p.message_fate(r, 0, 1, k) == FaultKind::Drop)
            .count();
        assert!(in_burst > 20, "drops inside the burst: {in_burst}");
        assert!((10..15).any(|r| p.crashes(r, 0)));
        // quiet_after wins over the window
        p.quiet_after = 12;
        assert!(p.in_window(11));
        assert!(!p.in_window(12));
        assert_eq!(p.message_fate(13, 0, 1, 0), FaultKind::Deliver);
        assert!(!p.crashes(13, 0));
    }

    #[test]
    fn redundancy_sizing() {
        // inactive plan: no stretching
        assert_eq!(redundancy_for(&FaultPlan::new(1), 16, 100), 1);
        // message-only faults: minimal window
        let mut p = FaultPlan::new(1);
        p.drop_ppm = 100_000;
        assert_eq!(redundancy_for(&p, 16, 100), 2);
        // delays must fit inside the window
        p.delay_ppm = 50_000;
        p.delay_rounds = 3;
        assert_eq!(redundancy_for(&p, 16, 100), 5);
        // crashes widen it to 2L + 2 and it stays clamped
        let mut c = FaultPlan::new(9);
        c.crash_ppm = 30_000;
        let s = redundancy_for(&c, 32, 200);
        assert!((2..=MAX_REDUNDANCY).contains(&s), "s = {s}");
        // a quiet plan with crashes confined to a short burst sizes from
        // the actual rolls, not the rate
        let mut q = FaultPlan::new(9);
        q.crash_ppm = 1_000_000;
        q.burst_start = 5;
        q.burst_len = 2;
        let s = redundancy_for(&q, 8, 50);
        assert_eq!(s, 2 * 2 + 2, "two guaranteed crashes per window");
    }

    #[test]
    fn crash_rolls_are_independent_of_message_rolls() {
        let mut p = FaultPlan::new(9);
        p.crash_ppm = 500_000;
        let crashes: Vec<bool> = (0..64).map(|v| p.crashes(2, v)).collect();
        assert!(crashes.iter().any(|&c| c));
        assert!(crashes.iter().any(|&c| !c));
        assert_eq!(
            crashes,
            (0..64).map(|v| p.crashes(2, v)).collect::<Vec<_>>()
        );
    }
}
