//! Lemma 8: sequential composition of Sleeping-model algorithms.
//!
//! Running algorithm `A₁` for (a deterministic budget of) `T₁` rounds and
//! then `A₂` yields awake complexity `S₁ + S₂` and round complexity
//! `T₁ + T₂`. The pipeline executes each stage as its own engine run and
//! accumulates the accounting additively; nodes that scheduled a wake-up
//! inside a later stage start it asleep via
//! [`Program::initial_wake`](awake_sleeping::Program::initial_wake), so the
//! per-node totals are exactly those of the concatenated single algorithm.

use awake_sleeping::Metrics;

/// Accounting for one named stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageReport {
    /// Stage name (e.g. `"theorem13/iter1/lemma15"`).
    pub name: String,
    /// The stage's metrics.
    pub metrics: Metrics,
}

/// Additive accounting across stages (Lemma 8).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Composition {
    /// Per-stage reports, in execution order.
    pub stages: Vec<StageReport>,
}

impl Composition {
    /// Start an empty composition.
    pub fn new() -> Self {
        Composition::default()
    }

    /// Append a stage.
    pub fn push(&mut self, name: impl Into<String>, metrics: Metrics) {
        self.stages.push(StageReport {
            name: name.into(),
            metrics,
        });
    }

    /// Merge another composition's stages (prefixing their names).
    pub fn extend_prefixed(&mut self, prefix: &str, other: Composition) {
        for s in other.stages {
            self.stages.push(StageReport {
                name: format!("{prefix}/{}", s.name),
                metrics: s.metrics,
            });
        }
    }

    /// Per-node awake rounds summed over stages.
    pub fn awake_per_node(&self) -> Vec<u64> {
        let n = self
            .stages
            .iter()
            .map(|s| s.metrics.awake.len())
            .max()
            .unwrap_or(0);
        let mut acc = vec![0u64; n];
        for s in &self.stages {
            for (i, a) in s.metrics.awake.iter().enumerate() {
                acc[i] += a;
            }
        }
        acc
    }

    /// The composed awake complexity (Lemma 8: `Σ Sᵢ`, maximized per node).
    pub fn max_awake(&self) -> u64 {
        self.awake_per_node().into_iter().max().unwrap_or(0)
    }

    /// Node-averaged composed awake complexity.
    pub fn avg_awake(&self) -> f64 {
        let per = self.awake_per_node();
        if per.is_empty() {
            0.0
        } else {
            per.iter().sum::<u64>() as f64 / per.len() as f64
        }
    }

    /// The composed round complexity (`Σ Tᵢ`).
    pub fn rounds(&self) -> u64 {
        self.stages.iter().map(|s| s.metrics.rounds).sum()
    }

    /// Total awake node-round events across stages — the Sleeping model's
    /// cost unit, summed additively like the other Lemma 8 quantities.
    pub fn awake_events(&self) -> u64 {
        self.stages.iter().map(|s| s.metrics.awake_events).sum()
    }

    /// Virtual rounds the executors jumped (no awake node) across stages.
    pub fn rounds_skipped(&self) -> u64 {
        self.stages.iter().map(|s| s.metrics.rounds_skipped).sum()
    }

    /// Total messages sent across stages.
    pub fn messages_sent(&self) -> u64 {
        self.stages.iter().map(|s| s.metrics.messages_sent).sum()
    }

    /// Total messages lost across stages (sent to sleeping nodes).
    pub fn messages_lost(&self) -> u64 {
        self.stages.iter().map(|s| s.metrics.messages_lost).sum()
    }

    /// Messages dropped by fault injection, summed across stages.
    pub fn faults_dropped(&self) -> u64 {
        self.stages.iter().map(|s| s.metrics.faults_dropped).sum()
    }

    /// Messages duplicated by fault injection, summed across stages.
    pub fn faults_duplicated(&self) -> u64 {
        self.stages
            .iter()
            .map(|s| s.metrics.faults_duplicated)
            .sum()
    }

    /// Messages delayed by fault injection, summed across stages.
    pub fn faults_delayed(&self) -> u64 {
        self.stages.iter().map(|s| s.metrics.faults_delayed).sum()
    }

    /// Node crash-restarts injected, summed across stages.
    pub fn faults_crashed(&self) -> u64 {
        self.stages.iter().map(|s| s.metrics.faults_crashed).sum()
    }

    /// Rounds with at least one node recovering from a crash, summed
    /// across stages (zero on fault-free runs).
    pub fn recovery_rounds(&self) -> u64 {
        self.stages.iter().map(|s| s.metrics.recovery_rounds).sum()
    }

    /// Awake node-rounds spent recovering from crashes, summed across
    /// stages — the energy overhead the degraded budgets bound.
    pub fn recovery_awake(&self) -> u64 {
        self.stages.iter().map(|s| s.metrics.recovery_awake).sum()
    }

    /// A compact multi-line accounting table.
    pub fn report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{:<40} {:>10} {:>12}", "stage", "max awake", "rounds");
        for s in &self.stages {
            let _ = writeln!(
                out,
                "{:<40} {:>10} {:>12}",
                s.name,
                s.metrics.max_awake(),
                s.metrics.rounds
            );
        }
        let _ = writeln!(
            out,
            "{:<40} {:>10} {:>12}",
            "TOTAL (Lemma 8)",
            self.max_awake(),
            self.rounds()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use awake_graphs::NodeId;

    fn metrics_with(awakes: &[u64], rounds: u64) -> Metrics {
        let mut m = Metrics::new(awakes.len());
        for (i, &a) in awakes.iter().enumerate() {
            for _ in 0..a {
                m.note_awake(NodeId(i as u32), "t");
            }
        }
        m.rounds = rounds;
        m
    }

    #[test]
    fn additive_accounting() {
        let mut c = Composition::new();
        c.push("s1", metrics_with(&[3, 1], 10));
        c.push("s2", metrics_with(&[0, 5], 7));
        assert_eq!(c.awake_per_node(), vec![3, 6]);
        assert_eq!(c.max_awake(), 6);
        assert_eq!(c.rounds(), 17);
        assert!((c.avg_awake() - 4.5).abs() < 1e-9);
        assert!(c.report().contains("TOTAL"));
    }

    #[test]
    fn extend_prefixed_names() {
        let mut inner = Composition::new();
        inner.push("x", metrics_with(&[1], 1));
        let mut outer = Composition::new();
        outer.extend_prefixed("outer", inner);
        assert_eq!(outer.stages[0].name, "outer/x");
    }
}
