//! Lemma 8: sequential composition of Sleeping-model algorithms.
//!
//! Running algorithm `A₁` for (a deterministic budget of) `T₁` rounds and
//! then `A₂` yields awake complexity `S₁ + S₂` and round complexity
//! `T₁ + T₂`. The pipeline executes each stage as its own engine run and
//! accumulates the accounting additively; nodes that scheduled a wake-up
//! inside a later stage start it asleep via
//! [`Program::initial_wake`](awake_sleeping::Program::initial_wake), so the
//! per-node totals are exactly those of the concatenated single algorithm.

use awake_sleeping::{Counters, Metrics};

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

    /// Every counter summed over stages, field by field.
    pub fn counters(&self) -> Counters {
        let mut sum = Counters::default();
        for s in &self.stages {
            sum += s.metrics.counters;
        }
        sum
    }

    /// The stages composed into one [`Metrics`] (Lemma 8): per-node awake
    /// rounds, rounds and counters summed over stages.
    pub fn total(&self) -> Metrics {
        let mut m = Metrics::new(0);
        m.awake = self.awake_per_node();
        m.rounds = self.stages.iter().map(|s| s.metrics.rounds).sum();
        m.counters = self.counters();
        m
    }

    /// The composed awake complexity (Lemma 8: `Σ Sᵢ`, maximized per node).
    /// A forward of [`total`](Self::total), kept because `perfbench` reads it.
    pub fn max_awake(&self) -> u64 {
        self.total().max_awake()
    }

    /// The composed round complexity (`Σ Tᵢ`). A forward of
    /// [`total`](Self::total), kept because `perfbench` reads it.
    pub fn rounds(&self) -> u64 {
        self.total().rounds
    }

    /// Total awake node-round events across stages. A forward of
    /// [`counters`](Self::counters), kept because `perfbench` reads it.
    pub fn awake_events(&self) -> u64 {
        self.counters().awake_events
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
        let total = self.total();
        let _ = writeln!(
            out,
            "{:<40} {:>10} {:>12}",
            "TOTAL (Lemma 8)",
            total.max_awake(),
            total.rounds
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
                m.note_awake(NodeId(i as u32));
            }
        }
        m.rounds = rounds;
        m
    }

    #[test]
    fn additive_accounting() {
        let mut c = Composition::new();
        let mut s1 = metrics_with(&[3, 1], 10);
        let mut s2 = metrics_with(&[0, 5], 7);
        // distinct nonzero values per stage and counter
        for (i, (a, b)) in s1.values_mut().into_iter().zip(s2.values_mut()).enumerate() {
            *a += 1 + i as u64;
            *b += 100 * (1 + i as u64);
        }
        c.push("s1", s1.clone());
        c.push("s2", s2.clone());
        assert_eq!(c.awake_per_node(), vec![3, 6]);
        assert_eq!(c.max_awake(), 6);
        assert_eq!(c.rounds(), 17);
        let sum = c.counters();
        for (i, name) in Counters::NAMES.iter().enumerate() {
            let want = s1.values()[i] + s2.values()[i];
            assert_eq!(sum.values()[i], want, "{name} sums field by field");
        }
        assert_eq!(c.awake_events(), s1.awake_events + s2.awake_events);
        let total = c.total();
        assert_eq!(total.awake, vec![3, 6]);
        assert_eq!(total.max_awake(), 6);
        assert_eq!(total.rounds, 17);
        assert_eq!(total.counters, sum);
        assert!((total.avg_awake() - 4.5).abs() < 1e-9);
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
