//! The energy gate: a fresh `BENCH_energy.json` against the committed one.
//!
//! CI's per-PR sweep (`suite --preset scaling --energy-out`) writes a
//! fresh energy document, and [`diff_energy`] holds each sweep point's
//! compression cost `wall_ms / awake_events` — wall time per awake event,
//! the quantity the event-compressed executors keep flat however many idle
//! virtual rounds the wheel jumps — to at most [`COST_TOLERANCE`] above
//! the committed baseline's. Code speed across commits is measured by
//! paired runs of the benchmark instead: the `ab` binary of `awake-bench`.

use crate::json::Value;
use std::fmt::Write as _;

/// Largest tolerated relative rise of a point's cost ratio (0.15 = 15%).
pub const COST_TOLERANCE: f64 = 0.15;

/// One row of the diff table.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDiff {
    /// Point and metric (e.g. `energy.theorem1.n1024.ms_per_awake_event`).
    pub metric: String,
    /// Baseline value.
    pub baseline: f64,
    /// Fresh value.
    pub current: f64,
    /// Relative change, in percent (positive = current larger).
    pub change_pct: f64,
    /// Whether the row gates: a point the baseline has never seen is shown
    /// for context only.
    pub gated: bool,
    /// Whether the row passes.
    pub ok: bool,
}

/// Compare a fresh `BENCH_energy.json` against the committed baseline.
///
/// Each sweep point's cost ratio must not rise more than
/// [`COST_TOLERANCE`] relative to the baseline's. Points the baseline has
/// never seen (a sweep extended to larger `n`) degrade to informational
/// `(new)` rows; a point *dropped* from the current sweep is an error,
/// since shrinking the sweep would silently un-gate it.
///
/// # Errors
/// Returns a message naming the first malformed or missing point.
pub fn diff_energy(baseline: &Value, current: &Value) -> Result<Vec<MetricDiff>, String> {
    let base_pts = energy_points(baseline, "baseline")?;
    let cur_pts = energy_points(current, "current")?;
    let mut rows = Vec::new();
    for (name, cost) in &cur_pts {
        match base_pts.iter().find(|(b, _)| b == name) {
            Some((_, base_cost)) => rows.push(judge(
                format!("{name}.ms_per_awake_event"),
                *base_cost,
                *cost,
            )),
            None => rows.push(MetricDiff {
                metric: format!("{name}.ms_per_awake_event (new)"),
                baseline: 0.0,
                current: *cost,
                change_pct: 0.0,
                gated: false,
                ok: true,
            }),
        }
    }
    for (name, _) in &base_pts {
        if !cur_pts.iter().any(|(c, _)| c == name) {
            return Err(format!(
                "current energy report dropped point `{name}` present in the baseline"
            ));
        }
    }
    Ok(rows)
}

/// Extract `(point-name, wall_ms / awake_events)` pairs from an
/// `awake-lab/energy/v2` document, naming points `energy.<algo>.n<n>`.
fn energy_points(doc: &Value, which: &str) -> Result<Vec<(String, f64)>, String> {
    let Some(Value::Arr(pts)) = doc.get("points") else {
        return Err(format!("{which} energy report has no `points` array"));
    };
    let mut out = Vec::new();
    for (i, p) in pts.iter().enumerate() {
        let algo = p
            .get("algo")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{which} energy point #{i} is missing string `algo`"))?;
        let num = |key: &str| {
            p.get(key).and_then(Value::as_f64).ok_or_else(|| {
                format!(
                    "{which} energy point #{i} ({algo}) is missing numeric `{key}` — \
                         is the document schema awake-lab/energy/v2?"
                )
            })
        };
        let n = num("n")?;
        let events = num("awake_events")?;
        let wall = num("wall_ms")?;
        if events <= 0.0 {
            return Err(format!(
                "{which} energy point {algo}/n={n} has awake_events = 0"
            ));
        }
        out.push((format!("energy.{algo}.n{}", n as u64), wall / events));
    }
    Ok(out)
}

/// Judge one point's `(baseline, current)` cost ratios.
///
/// A zero baseline makes the relative change undefined; it only happens
/// when the point ran faster than the wall-clock granularity, so any
/// current value is then noise, not a measurable regression: the row is
/// labeled `(from zero)` and passes.
fn judge(name: String, base: f64, cur: f64) -> MetricDiff {
    let from_zero = base == 0.0 && cur != 0.0;
    MetricDiff {
        metric: if from_zero {
            format!("{name} (from zero)")
        } else {
            name
        },
        baseline: base,
        current: cur,
        change_pct: match (from_zero, base != 0.0) {
            (true, _) => f64::INFINITY,
            (false, true) => (cur - base) / base * 100.0,
            (false, false) => 0.0,
        },
        gated: true,
        ok: from_zero || cur <= base * (1.0 + COST_TOLERANCE),
    }
}

/// Render the diff as an aligned table (the form CI prints into the log).
pub fn render_table(rows: &[MetricDiff]) -> String {
    let mut out = String::new();
    let w = rows
        .iter()
        .map(|r| r.metric.len())
        .max()
        .unwrap_or(6)
        .max(6);
    let _ = writeln!(
        out,
        "{:<w$} {:>16} {:>16} {:>9}  {:<10} status",
        "metric", "baseline", "current", "change", "rule"
    );
    let _ = writeln!(out, "{}", "-".repeat(w + 64));
    for r in rows {
        let _ = writeln!(
            out,
            "{:<w$} {:>16.4} {:>16.4} {:>+8.1}%  {:<10} {}",
            r.metric,
            r.baseline,
            r.current,
            r.change_pct,
            if r.gated { "cost-ratio" } else { "info" },
            if r.ok { "ok" } else { "FAIL" },
        );
    }
    out
}

/// The regressed rows, if any (empty slice = gate passes).
pub fn failures(rows: &[MetricDiff]) -> Vec<&MetricDiff> {
    rows.iter().filter(|r| !r.ok).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    /// Handcraft an `awake-lab/energy/v2` document from
    /// `(algo, n, awake_events, wall_ms)` points.
    fn energy_doc(points: &[(&str, u64, u64, f64)]) -> Value {
        let mut s = String::from("{\"schema\": \"awake-lab/energy/v2\", \"points\": [");
        for (i, (algo, n, events, wall)) in points.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"algo\": \"{algo}\", \"n\": {n}, \"awake_events\": {events}, \
                 \"wall_ms\": {wall:.3}}}"
            ));
        }
        s.push_str("]}");
        json::parse(&s).unwrap()
    }

    #[test]
    fn identical_energy_reports_pass() {
        let doc = energy_doc(&[
            ("theorem1", 1024, 5_000, 2.5),
            ("bm21", 1024, 7_000, 3.0),
            ("theorem1", 2048, 11_000, 5.5),
        ]);
        let rows = diff_energy(&doc, &doc).unwrap();
        assert_eq!(rows.len(), 3);
        assert!(failures(&rows).is_empty(), "{}", render_table(&rows));
        assert!(rows.iter().all(|r| r.gated));
        assert!(rows
            .iter()
            .any(|r| r.metric == "energy.bm21.n1024.ms_per_awake_event"));
    }

    #[test]
    fn energy_cost_ratio_regression_fails_naming_the_point() {
        let base = energy_doc(&[("theorem1", 1024, 5_000, 2.5), ("bm21", 1024, 7_000, 3.0)]);
        // theorem1 does the same events 30% slower: compression regressed.
        let cur = energy_doc(&[("theorem1", 1024, 5_000, 3.25), ("bm21", 1024, 7_000, 3.0)]);
        let rows = diff_energy(&base, &cur).unwrap();
        let failed = failures(&rows);
        assert_eq!(failed.len(), 1, "{}", render_table(&rows));
        assert_eq!(failed[0].metric, "energy.theorem1.n1024.ms_per_awake_event");
        // A 10% rise stays inside the 15% tolerance.
        let ok = energy_doc(&[("theorem1", 1024, 5_000, 2.75), ("bm21", 1024, 7_000, 3.0)]);
        let rows = diff_energy(&base, &ok).unwrap();
        assert!(failures(&rows).is_empty(), "{}", render_table(&rows));
    }

    #[test]
    fn energy_sweep_extension_is_informational_but_shrink_errors() {
        let base = energy_doc(&[("theorem1", 1024, 5_000, 2.5)]);
        let extended = energy_doc(&[
            ("theorem1", 1024, 5_000, 2.5),
            ("theorem1", 2048, 11_000, 5.5),
        ]);
        let rows = diff_energy(&base, &extended).unwrap();
        assert!(failures(&rows).is_empty(), "{}", render_table(&rows));
        assert!(rows
            .iter()
            .any(|r| { r.metric == "energy.theorem1.n2048.ms_per_awake_event (new)" && !r.gated }));
        // Dropping a gated point must error, not silently pass.
        let err = diff_energy(&extended, &base).unwrap_err();
        assert!(err.contains("energy.theorem1.n2048"), "{err}");
    }

    #[test]
    fn energy_v1_document_without_compression_fields_errors() {
        let v2 = energy_doc(&[("theorem1", 1024, 5_000, 2.5)]);
        let v1 = json::parse(
            "{\"schema\": \"awake-lab/energy/v1\", \
             \"points\": [{\"algo\": \"theorem1\", \"n\": 1024}]}",
        )
        .unwrap();
        let err = diff_energy(&v1, &v2).unwrap_err();
        assert!(err.contains("awake_events"), "{err}");
        assert!(err.contains("baseline"), "{err}");
    }

    #[test]
    fn small_regression_within_tolerance_passes() {
        let base = energy_doc(&[("theorem1", 1024, 5_000, 2.5)]);
        // 10% more wall time per awake event, inside the 15% tolerance
        let cur = energy_doc(&[("theorem1", 1024, 5_000, 2.75)]);
        let rows = diff_energy(&base, &cur).unwrap();
        assert!(failures(&rows).is_empty(), "{}", render_table(&rows));
    }

    #[test]
    fn injected_twenty_percent_regression_fails() {
        let base = energy_doc(&[("bm21", 2048, 8_000, 4.0)]);
        let cur = energy_doc(&[("bm21", 2048, 8_000, 4.8)]);
        let rows = diff_energy(&base, &cur).unwrap();
        let failed = failures(&rows);
        assert_eq!(failed.len(), 1, "{}", render_table(&rows));
        assert!((failed[0].change_pct - 20.0).abs() < 1e-9);
    }

    #[test]
    fn improvements_always_pass() {
        let base = energy_doc(&[("theorem1", 1024, 5_000, 2.5), ("bm21", 1024, 7_000, 3.0)]);
        // half the wall time, and a point that now needs fewer events
        let cur = energy_doc(&[("theorem1", 1024, 5_000, 1.25), ("bm21", 1024, 6_000, 1.0)]);
        let rows = diff_energy(&base, &cur).unwrap();
        assert!(failures(&rows).is_empty(), "{}", render_table(&rows));
    }

    #[test]
    fn cost_rise_from_zero_baseline_is_labeled_but_passes() {
        let base = energy_doc(&[("trivial", 1024, 5_000, 0.0)]);
        let cur = energy_doc(&[("trivial", 1024, 5_000, 0.5)]);
        let rows = diff_energy(&base, &cur).unwrap();
        assert!(failures(&rows).is_empty(), "{}", render_table(&rows));
        assert_eq!(
            rows[0].metric,
            "energy.trivial.n1024.ms_per_awake_event (from zero)"
        );
        assert!(rows[0].change_pct.is_infinite());
    }

    #[test]
    fn missing_metric_is_reported() {
        let base = energy_doc(&[("theorem1", 1024, 5_000, 2.5)]);
        let cur = json::parse(
            "{\"points\": [{\"algo\": \"theorem1\", \"n\": 1024, \"awake_events\": 5000}]}",
        )
        .unwrap();
        let err = diff_energy(&base, &cur).unwrap_err();
        assert!(err.contains("wall_ms"), "{err}");
        assert!(err.contains("current"), "{err}");
    }

    #[test]
    fn table_renders_every_row() {
        let base = energy_doc(&[("theorem1", 1024, 5_000, 2.5)]);
        let cur = energy_doc(&[
            ("theorem1", 1024, 5_000, 2.5),
            ("theorem1", 2048, 11_000, 5.5),
        ]);
        let rows = diff_energy(&base, &cur).unwrap();
        let table = render_table(&rows);
        assert_eq!(table.lines().count(), rows.len() + 2);
        assert!(table.contains("energy.theorem1.n2048.ms_per_awake_event (new)"));
    }
}
