//! Diffing a fresh bench report against the committed baseline.
//!
//! The CI regression gate: after `cargo bench -p awake-bench --bench micro`
//! writes a fresh `BENCH_engine.json`, [`diff_bench`] compares it to the
//! committed `BENCH_baseline.json` and flags
//!
//! * **throughput** (`node_rounds_per_sec` of the serial and worker-pool
//!   executors, and the machine-portable `speedup_vs_legacy` ratio):
//!   a relative drop beyond [`Tolerances::throughput_drop`] fails;
//! * **allocations** (`allocations_per_node_round`): *any* increase beyond
//!   a small absolute epsilon fails — a new steady-state allocation shows
//!   up here as ≈ +1.0, and the whole point of the zero-allocation hot
//!   path is that this number never creeps.
//!
//! Everything else in the report (`ns_per_node_round`, `messages_per_sec`,
//! the legacy section) is shown in the diff table as context but never
//! gates, to keep the gate's flake surface minimal.
//!
//! Absolute throughput numbers are only comparable on the machine that
//! recorded the baseline. [`GateMode::Portable`] (CI's mode, `--portable`
//! on the binary) instead gates the current-vs-legacy throughput *ratios* —
//! the legacy reconstruction runs in the same process, so hardware speed
//! cancels out — and downgrades the absolute rows to context. On a runner
//! with ≥ 4 detected cores, portable mode also holds the
//! `threaded_scaling.w4_vs_serial` ratio to the absolute
//! [`Tolerances::w4_floor`] (default 1.5×); on a 1–3-core runner every
//! parallel-speedup row is demoted to an informational row whose label
//! names the detected core count. Portable mode also holds
//! `threaded_scaling.w1_vs_serial` to [`W1_FLOOR`] on any runner: one
//! worker runs the serial engine's driver, so no core count excuses it.
//! The `phase_times` per-stage timings are always informational.

use crate::json::Value;
use std::fmt::Write as _;

/// Which rows gate: absolute throughput (same-machine diffs) or only the
/// machine-portable ratios and allocation rates (cross-machine CI).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GateMode {
    /// Gate absolute `node_rounds_per_sec` — valid when baseline and
    /// current ran on the same hardware.
    #[default]
    Absolute,
    /// Gate only `*_vs_legacy` ratios and allocations per node-round;
    /// absolute throughput becomes informational.
    Portable,
}

/// Gate thresholds for [`diff_bench`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerances {
    /// Maximum tolerated relative throughput drop (0.15 = 15%).
    pub throughput_drop: f64,
    /// Absolute slack on `allocations_per_node_round` (absorbs the 4-decimal
    /// formatting granularity and first-touch jitter, nothing more).
    pub alloc_epsilon: f64,
    /// Absolute floor on `threaded_scaling.w4_vs_serial` in portable mode
    /// on a runner with ≥ 4 detected cores: the 4-worker pipeline must
    /// beat serial by at least this factor, independent of what the
    /// baseline recorded — a relative gate alone would let the speedup
    /// decay 15% per PR forever.
    pub w4_floor: f64,
}

/// Absolute floor on `threaded_scaling.w1_vs_serial` in portable mode, on
/// any runner: a one-worker run is the serial engine's driver with every
/// round in place, so it must keep (nearly) the serial speed.
pub const W1_FLOOR: f64 = 0.9;

impl Default for Tolerances {
    fn default() -> Self {
        Tolerances {
            throughput_drop: 0.15,
            alloc_epsilon: 0.002,
            w4_floor: 1.5,
        }
    }
}

/// How one metric is judged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// Higher is better; gate on relative drop.
    Throughput,
    /// Lower is better; gate on any absolute increase.
    Allocations,
    /// Lower is better; gate on relative increase (the energy sweep's
    /// `wall_ms / awake_events` compression-cost ratio).
    CostRatio,
    /// Higher is better; gate on an absolute minimum rather than the
    /// baseline — the row's `baseline` column shows the floor itself
    /// ([`Tolerances::w4_floor`] or [`W1_FLOOR`]), not a measured value.
    Floor,
    /// Shown for context, never gates.
    Info,
}

/// One row of the diff table.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDiff {
    /// Dotted metric path (e.g. `engine.node_rounds_per_sec`).
    pub metric: String,
    /// Baseline value.
    pub baseline: f64,
    /// Fresh value.
    pub current: f64,
    /// Relative change, in percent (positive = current larger).
    pub change_pct: f64,
    /// The rule applied.
    pub rule: Rule,
    /// Whether the row passes its rule.
    pub ok: bool,
}

/// Compare a fresh bench report against the baseline.
///
/// Both values must be parsed `BENCH_engine.json` documents
/// (see [`crate::report::BenchReport`]).
///
/// # Errors
/// Returns a message naming the first metric missing from either document.
pub fn diff_bench(
    baseline: &Value,
    current: &Value,
    tol: &Tolerances,
    mode: GateMode,
) -> Result<Vec<MetricDiff>, String> {
    let absolute_rule = match mode {
        GateMode::Absolute => Rule::Throughput,
        GateMode::Portable => Rule::Info,
    };
    // A runner with fewer than 4 cores cannot exhibit the 4-worker
    // speedup the parallel gates check, so those rows would fail for a
    // hardware reason, not a code one. Portable mode (CI's) demotes them
    // to labeled informational context — the label names the detected
    // core count — when the *current* document (the runner that just
    // produced the numbers) detected 1–3 cores. A recorded 0 means
    // detection failed and keeps the gates armed rather than silently
    // disarming them; so does a baseline old enough to predate the
    // `cores` field.
    let few_cores = if mode == GateMode::Portable {
        current
            .get("cores")
            .and_then(Value::as_f64)
            .filter(|c| (1.0..4.0).contains(c))
            .map(|c| c as u64)
    } else {
        None
    };
    let demote_few_cores = |mut d: MetricDiff| {
        if let Some(c) = few_cores {
            let _ = write!(d.metric, " ({c}-core runner)");
            d.rule = Rule::Info;
            d.ok = true;
        }
        d
    };
    let mut rows = Vec::new();
    for section in ["engine", "threaded_4_workers"] {
        rows.push(row(
            baseline,
            current,
            &[section, "node_rounds_per_sec"],
            absolute_rule,
            tol,
        )?);
        rows.push(row(
            baseline,
            current,
            &[section, "allocations_per_node_round"],
            Rule::Allocations,
            tol,
        )?);
        rows.push(row(
            baseline,
            current,
            &[section, "ns_per_node_round"],
            Rule::Info,
            tol,
        )?);
        rows.push(row(
            baseline,
            current,
            &[section, "messages_per_sec"],
            Rule::Info,
            tol,
        )?);
    }
    rows.push(row(
        baseline,
        current,
        &["speedup_vs_legacy"],
        Rule::Throughput,
        tol,
    )?);
    if mode == GateMode::Portable {
        rows.push(demote_few_cores(ratio_row(
            baseline,
            current,
            &["threaded_4_workers", "node_rounds_per_sec"],
            &["legacy_baseline", "node_rounds_per_sec"],
            "threaded_4_workers_vs_legacy",
            tol,
        )?));
    }
    // Delivery-pipeline health: the threaded-scaling sweep. The 4-worker
    // vs serial ratio is measured in one process, so it gates in both
    // modes; absolute per-worker-count throughput only gates same-machine,
    // and a runner with fewer than 4 cores demotes the ratio to context
    // in portable mode.
    rows.push(demote_few_cores(row(
        baseline,
        current,
        &["threaded_scaling", "w4_vs_serial"],
        Rule::Throughput,
        tol,
    )?));
    // On a runner that physically has the cores (≥ 4 detected), portable
    // mode additionally holds the ratio to an absolute floor: the worker
    // pool must actually be *faster* than serial, not merely no worse
    // than a baseline that may itself have decayed.
    if mode == GateMode::Portable {
        rows.push(demote_few_cores(floor_row(
            current,
            "w4_vs_serial",
            tol.w4_floor,
        )?));
        // One worker runs every round in place through the serial
        // engine's driver: no core count excuses it falling behind.
        rows.push(floor_row(current, "w1_vs_serial", W1_FLOOR)?);
    }
    rows.push(row(
        baseline,
        current,
        &["threaded_scaling", "w4", "allocations_per_node_round"],
        Rule::Allocations,
        tol,
    )?);
    for section in ["serial", "w1", "w2", "w4", "w8"] {
        rows.push(row(
            baseline,
            current,
            &["threaded_scaling", section, "node_rounds_per_sec"],
            if section == "serial" || section == "w4" {
                absolute_rule
            } else {
                Rule::Info
            },
            tol,
        )?);
    }
    rows.push(row(
        baseline,
        current,
        &["legacy_baseline", "node_rounds_per_sec"],
        Rule::Info,
        tol,
    )?);
    // Edge problems through the line-graph adapter. Sections newer than
    // the committed baseline may be missing from it entirely — that is a
    // baseline too old to have recorded them, not a regression, so such
    // rows degrade to informational instead of failing the gate. (Missing
    // from the *current* report still errors: dropping a gated section is
    // a regression.)
    for problem in ["matching", "edge_coloring"] {
        rows.push(row_tolerating_missing_baseline(
            baseline,
            current,
            &["edge_problems", problem, "node_rounds_per_sec"],
            absolute_rule,
            tol,
        )?);
        rows.push(row_tolerating_missing_baseline(
            baseline,
            current,
            &["edge_problems", problem, "allocations_per_node_round"],
            Rule::Allocations,
            tol,
        )?);
    }
    // Per-phase timing of the worker-pool pipeline. Phase splits move
    // with hardware and load, so these rows never gate — they are the
    // forensic context for a w4 regression: which stage ate the time.
    for phase in [
        "partition_ns_per_round",
        "route_ns_per_round",
        "deliver_ns_per_round",
        "merge_ns_per_round",
        "inline_ns_per_round",
    ] {
        rows.push(row_tolerating_missing_baseline(
            baseline,
            current,
            &["phase_times", phase],
            Rule::Info,
            tol,
        )?);
    }
    Ok(rows)
}

/// Compare a fresh `BENCH_energy.json` against the committed baseline.
///
/// The compression-regression gate: each sweep point's cost ratio
/// `wall_ms / awake_events` — wall time per awake event, the quantity the
/// event-compressed executors keep flat no matter how many idle virtual
/// rounds the wheel jumps — must not rise more than
/// [`Tolerances::throughput_drop`] relative to the committed baseline.
/// Points the baseline has never seen (a sweep extended to larger `n`)
/// degrade to informational `(new)` rows; a point *dropped* from the
/// current sweep is an error, since shrinking the sweep would silently
/// un-gate it.
///
/// # Errors
/// Returns a message naming the first malformed or missing point.
pub fn diff_energy(
    baseline: &Value,
    current: &Value,
    tol: &Tolerances,
) -> Result<Vec<MetricDiff>, String> {
    let base_pts = energy_points(baseline, "baseline")?;
    let cur_pts = energy_points(current, "current")?;
    let mut rows = Vec::new();
    for (name, cost) in &cur_pts {
        match base_pts.iter().find(|(b, _)| b == name) {
            Some((_, base_cost)) => rows.push(judge(
                format!("{name}.ms_per_awake_event"),
                *base_cost,
                *cost,
                Rule::CostRatio,
                tol,
            )),
            None => rows.push(MetricDiff {
                metric: format!("{name}.ms_per_awake_event (new)"),
                baseline: 0.0,
                current: *cost,
                change_pct: 0.0,
                rule: Rule::Info,
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

/// A portable-mode floor row: `threaded_scaling.<ratio>` of the current
/// report against the absolute minimum `floor`.
fn floor_row(current: &Value, ratio: &str, floor: f64) -> Result<MetricDiff, String> {
    let cur = current
        .path(&["threaded_scaling", ratio])
        .and_then(Value::as_f64)
        .ok_or_else(|| {
            format!("current report is missing numeric metric `threaded_scaling.{ratio}`")
        })?;
    Ok(MetricDiff {
        metric: format!("threaded_scaling.{ratio}_floor"),
        baseline: floor,
        current: cur,
        change_pct: (cur - floor) / floor * 100.0,
        rule: Rule::Floor,
        ok: cur >= floor,
    })
}

/// Like [`row`], but a metric absent from the **baseline** document is
/// reported as an informational row (baseline 0, ok) rather than an
/// error — the tolerance that lets a gate with new sections run against
/// an older committed baseline. Absence from the *current* document is
/// still an error.
fn row_tolerating_missing_baseline(
    baseline: &Value,
    current: &Value,
    path: &[&str],
    rule: Rule,
    tol: &Tolerances,
) -> Result<MetricDiff, String> {
    let name = path.join(".");
    let cur = current
        .path(path)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("current report is missing numeric metric `{name}`"))?;
    match baseline.path(path) {
        // Present in the baseline: judge normally — including the error
        // for a present-but-non-numeric value, which is a corrupted
        // baseline, not a section newer than it.
        Some(_) => row(baseline, current, path, rule, tol),
        None => Ok(MetricDiff {
            metric: format!("{name} (new)"),
            baseline: 0.0,
            current: cur,
            change_pct: 0.0,
            rule: Rule::Info,
            ok: true,
        }),
    }
}

/// A derived row: `num / den` within each document, gated as throughput.
/// The same-process legacy run divides hardware speed out, so the ratio is
/// comparable across machines.
fn ratio_row(
    baseline: &Value,
    current: &Value,
    num: &[&str],
    den: &[&str],
    name: &str,
    tol: &Tolerances,
) -> Result<MetricDiff, String> {
    let get = |doc: &Value, path: &[&str], which: &str| {
        doc.path(path).and_then(Value::as_f64).ok_or_else(|| {
            format!(
                "{which} report is missing numeric metric `{}`",
                path.join(".")
            )
        })
    };
    let base = get(baseline, num, "baseline")? / get(baseline, den, "baseline")?;
    let cur = get(current, num, "current")? / get(current, den, "current")?;
    Ok(judge(name.to_string(), base, cur, Rule::Throughput, tol))
}

/// Judge one `(baseline, current)` pair under `rule` — the shared core of
/// [`row`] and [`ratio_row`].
///
/// A zero baseline makes the relative change undefined: such rows used to
/// print `+0.0%`, so a metric regressing *from* zero (e.g. allocations per
/// node-round leaving the zero-allocation steady state) read as "no
/// change". They are now labeled `(from zero)` explicitly, and a gating
/// rule fails the row whenever the current value exceeds the small
/// absolute epsilon (for throughput — higher is better — a from-zero rise
/// can only be an improvement, so only a *drop to* zero fails there, which
/// the ordinary relative check already handles).
fn judge(name: String, base: f64, cur: f64, rule: Rule, tol: &Tolerances) -> MetricDiff {
    if base == 0.0 && cur != 0.0 {
        let ok = match rule {
            Rule::Throughput | Rule::Info => true,
            Rule::Allocations => cur <= tol.alloc_epsilon,
            // A zero baseline cost ratio only happens when the point ran
            // faster than the wall-clock granularity; any current value is
            // then noise, not a measurable regression.
            Rule::CostRatio => true,
            Rule::Floor => cur >= tol.w4_floor,
        };
        return MetricDiff {
            metric: format!("{name} (from zero)"),
            baseline: base,
            current: cur,
            change_pct: f64::INFINITY,
            rule,
            ok,
        };
    }
    let change_pct = if base != 0.0 {
        (cur - base) / base * 100.0
    } else {
        0.0
    };
    let ok = match rule {
        Rule::Throughput => cur >= base * (1.0 - tol.throughput_drop),
        Rule::Allocations => cur <= base + tol.alloc_epsilon,
        Rule::CostRatio => cur <= base * (1.0 + tol.throughput_drop),
        Rule::Floor => cur >= tol.w4_floor,
        Rule::Info => true,
    };
    MetricDiff {
        metric: name,
        baseline: base,
        current: cur,
        change_pct,
        rule,
        ok,
    }
}

fn row(
    baseline: &Value,
    current: &Value,
    path: &[&str],
    rule: Rule,
    tol: &Tolerances,
) -> Result<MetricDiff, String> {
    let name = path.join(".");
    let get = |doc: &Value, which: &str| {
        doc.path(path)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{which} report is missing numeric metric `{name}`"))
    };
    let base = get(baseline, "baseline")?;
    let cur = get(current, "current")?;
    Ok(judge(name, base, cur, rule, tol))
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
        "{:<w$} {:>16} {:>16} {:>9}  {:<11} status",
        "metric", "baseline", "current", "change", "rule"
    );
    let _ = writeln!(out, "{}", "-".repeat(w + 65));
    for r in rows {
        let _ = writeln!(
            out,
            "{:<w$} {:>16.4} {:>16.4} {:>+8.1}%  {:<11} {}",
            r.metric,
            r.baseline,
            r.current,
            r.change_pct,
            match r.rule {
                Rule::Throughput => "throughput",
                Rule::Allocations => "allocations",
                Rule::CostRatio => "cost-ratio",
                Rule::Floor => "floor",
                Rule::Info => "info",
            },
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
    use crate::report::{
        BenchReport, EdgeProblemsBench, PerfStats, PhaseTimesBench, ScalingRow, ThreadedScaling,
    };

    fn phase_times() -> PhaseTimesBench {
        PhaseTimesBench {
            workers: 4,
            dispatched_rounds: 25,
            inline_rounds: 5,
            partition_ns_per_round: 1.2e5,
            route_ns_per_round: 3.0e5,
            deliver_ns_per_round: 2.5e5,
            merge_ns_per_round: 1.8e5,
            inline_ns_per_round: 4.0e4,
        }
    }

    /// A scaling sweep derived multiplicatively from `base_ns`, so a
    /// uniform hardware slowdown keeps every within-document ratio fixed.
    fn scaling(base_ns: f64, allocs: u64, w4_factor: f64) -> ThreadedScaling {
        let mk = |wall_ns: f64| PerfStats {
            node_rounds: 2_000_000,
            messages: 16_000_000,
            allocations: allocs,
            wall_ns,
        };
        ThreadedScaling {
            n: 65_536,
            degree: 8,
            rounds: 30,
            serial: mk(base_ns),
            rows: [(1, 1.3), (2, 0.8), (4, w4_factor), (8, 0.6)]
                .into_iter()
                .map(|(workers, f)| ScalingRow {
                    workers,
                    stats: mk(base_ns * f),
                })
                .collect(),
            w1_vs_serial: Some(1.0),
        }
    }

    fn report_with_scaling(engine_ns: f64, allocs: u64, w4_factor: f64) -> Value {
        report_with_cores(engine_ns, allocs, w4_factor, 4)
    }

    fn report_with_cores(engine_ns: f64, allocs: u64, w4_factor: f64, cores: usize) -> Value {
        json::parse(&bench_report(engine_ns, allocs, w4_factor, cores).to_json()).unwrap()
    }

    fn bench_report(engine_ns: f64, allocs: u64, w4_factor: f64, cores: usize) -> BenchReport {
        let mk = |wall_ns: f64, allocations: u64| PerfStats {
            node_rounds: 1_000_000,
            messages: 8_000_000,
            allocations,
            wall_ns,
        };
        BenchReport {
            bench: "engine/flood".into(),
            n: 8192,
            degree: 8,
            rounds: 150,
            cores,
            engine: mk(engine_ns, allocs),
            threaded_4_workers: mk(engine_ns * 1.8, allocs),
            legacy_baseline: mk(engine_ns * 2.2, 1_000_000),
            threaded_scaling: scaling(engine_ns, allocs, w4_factor),
            phase_times: phase_times(),
            edge_problems: edge_problems(engine_ns, allocs),
        }
    }

    fn edge_problems(base_ns: f64, allocs: u64) -> EdgeProblemsBench {
        let mk = |wall_ns: f64| PerfStats {
            node_rounds: 250_000,
            messages: 500_000,
            allocations: allocs,
            wall_ns,
        };
        EdgeProblemsBench {
            n: 2048,
            m: 8192,
            matching: mk(base_ns * 0.4),
            edge_coloring: mk(base_ns * 0.5),
        }
    }

    fn report(engine_ns: f64, allocs: u64) -> Value {
        report_with_scaling(engine_ns, allocs, 0.55)
    }

    #[test]
    fn identical_reports_pass() {
        let base = report(6.0e7, 13_000);
        let rows = diff_bench(&base, &base, &Tolerances::default(), GateMode::Absolute).unwrap();
        assert!(failures(&rows).is_empty(), "{}", render_table(&rows));
    }

    #[test]
    fn small_regression_within_tolerance_passes() {
        let base = report(6.0e7, 13_000);
        // 10% slower: wall time up by 1/0.9
        let cur = report(6.0e7 / 0.9, 13_000);
        let rows = diff_bench(&base, &cur, &Tolerances::default(), GateMode::Absolute).unwrap();
        assert!(failures(&rows).is_empty(), "{}", render_table(&rows));
    }

    #[test]
    fn injected_twenty_percent_regression_fails() {
        let base = report(6.0e7, 13_000);
        // 20% throughput drop: wall time divided by 0.8
        let cur = report(6.0e7 / 0.8, 13_000);
        let rows = diff_bench(&base, &cur, &Tolerances::default(), GateMode::Absolute).unwrap();
        let failed = failures(&rows);
        assert!(
            failed
                .iter()
                .any(|r| r.metric == "engine.node_rounds_per_sec"),
            "{}",
            render_table(&rows)
        );
    }

    #[test]
    fn allocation_increase_fails() {
        let base = report(6.0e7, 13_000);
        // one new allocation per node-round
        let cur = report(6.0e7, 1_013_000);
        let rows = diff_bench(&base, &cur, &Tolerances::default(), GateMode::Absolute).unwrap();
        let failed = failures(&rows);
        assert!(failed
            .iter()
            .any(|r| r.metric == "engine.allocations_per_node_round"));
        // throughput unchanged ⇒ only allocation rows fail
        assert!(failed.iter().all(|r| r.rule == Rule::Allocations));
    }

    #[test]
    fn regression_from_zero_is_labeled_and_fails() {
        // The zero-allocation steady state is the baseline (0.0 allocations
        // per node-round); the current report allocates once per
        // node-round. The relative change is undefined — this used to
        // print "+0.0%" and read as no change — so the row must carry an
        // explicit "(from zero)" label and fail the allocation rule.
        let base = report(6.0e7, 0);
        let cur = report(6.0e7, 1_000_000);
        let rows = diff_bench(&base, &cur, &Tolerances::default(), GateMode::Absolute).unwrap();
        let failed = failures(&rows);
        assert!(
            failed.iter().any(
                |r| r.metric == "engine.allocations_per_node_round (from zero)"
                    && r.rule == Rule::Allocations
                    && r.change_pct.is_infinite()
            ),
            "{}",
            render_table(&rows)
        );
        // …and a current value still at (or within epsilon of) zero passes,
        // unlabeled.
        let rows = diff_bench(&base, &base, &Tolerances::default(), GateMode::Absolute).unwrap();
        assert!(failures(&rows).is_empty(), "{}", render_table(&rows));
        assert!(rows.iter().all(|r| !r.metric.contains("(from zero)")));
    }

    #[test]
    fn throughput_rise_from_zero_baseline_is_labeled_but_passes() {
        let d = judge(
            "x.node_rounds_per_sec".into(),
            0.0,
            5.0e6,
            Rule::Throughput,
            &Tolerances::default(),
        );
        assert!(d.ok, "a from-zero throughput rise is an improvement");
        assert_eq!(d.metric, "x.node_rounds_per_sec (from zero)");
    }

    #[test]
    fn improvements_always_pass() {
        let base = report(6.0e7, 13_000);
        let cur = report(3.0e7, 0); // 2× faster, allocation-free
        let rows = diff_bench(&base, &cur, &Tolerances::default(), GateMode::Absolute).unwrap();
        assert!(failures(&rows).is_empty());
    }

    #[test]
    fn portable_mode_ignores_uniform_hardware_slowdown() {
        let base = report(6.0e7, 13_000);
        // every section 40% slower — a slower CI runner, not a regression
        let cur = report(6.0e7 * 1.4, 13_000);
        let rows = diff_bench(&base, &cur, &Tolerances::default(), GateMode::Portable).unwrap();
        assert!(failures(&rows).is_empty(), "{}", render_table(&rows));
        // the same slowdown fails the absolute gate
        let abs = diff_bench(&base, &cur, &Tolerances::default(), GateMode::Absolute).unwrap();
        assert!(!failures(&abs).is_empty());
    }

    #[test]
    fn portable_mode_catches_delivery_pipeline_regression() {
        // Only the scaling sweep's 4-worker leg slows (the serial rows are
        // untouched): the within-document w4_vs_serial ratio must fail.
        let base = report_with_scaling(6.0e7, 13_000, 0.55);
        let cur = report_with_scaling(6.0e7, 13_000, 0.55 / 0.7);
        let rows = diff_bench(&base, &cur, &Tolerances::default(), GateMode::Portable).unwrap();
        let failed = failures(&rows);
        assert!(
            failed
                .iter()
                .any(|r| r.metric == "threaded_scaling.w4_vs_serial"),
            "{}",
            render_table(&rows)
        );
        assert!(failed
            .iter()
            .all(|r| r.metric.starts_with("threaded_scaling.w4")));
    }

    #[test]
    fn portable_mode_catches_engine_only_regression() {
        let mk = |wall_ns: f64| PerfStats {
            node_rounds: 1_000_000,
            messages: 8_000_000,
            allocations: 13_000,
            wall_ns,
        };
        let doc = |engine_ns: f64, threaded_ns: f64| {
            json::parse(
                &BenchReport {
                    bench: "engine/flood".into(),
                    n: 8192,
                    degree: 8,
                    rounds: 150,
                    cores: 4,
                    engine: mk(engine_ns),
                    threaded_4_workers: mk(threaded_ns),
                    legacy_baseline: mk(1.3e8),
                    threaded_scaling: scaling(6.0e7, 13_000, 0.55),
                    phase_times: phase_times(),
                    edge_problems: edge_problems(6.0e7, 13_000),
                }
                .to_json(),
            )
            .unwrap()
        };
        let base = doc(6.0e7, 1.1e8);
        // serial engine alone 25% slower; legacy (same hardware) unchanged
        let eng = diff_bench(
            &base,
            &doc(6.0e7 / 0.75, 1.1e8),
            &Tolerances::default(),
            GateMode::Portable,
        )
        .unwrap();
        assert!(failures(&eng)
            .iter()
            .any(|r| r.metric == "speedup_vs_legacy"));
        // worker-pool executor alone 25% slower
        let thr = diff_bench(
            &base,
            &doc(6.0e7, 1.1e8 / 0.75),
            &Tolerances::default(),
            GateMode::Portable,
        )
        .unwrap();
        assert!(failures(&thr)
            .iter()
            .any(|r| r.metric == "threaded_4_workers_vs_legacy"));
    }

    #[test]
    fn single_core_runner_demotes_parallel_ratios_in_portable_mode() {
        // The 4-worker leg "regresses" 30% — on a 1-core runner that is
        // hardware, not code, so portable mode must demote both parallel
        // ratio rows to labeled context and pass the gate.
        let base = report_with_scaling(6.0e7, 13_000, 0.55);
        let cur = report_with_cores(6.0e7, 13_000, 0.55 / 0.7, 1);
        let rows = diff_bench(&base, &cur, &Tolerances::default(), GateMode::Portable).unwrap();
        assert!(failures(&rows).is_empty(), "{}", render_table(&rows));
        for name in [
            "threaded_scaling.w4_vs_serial (1-core runner)",
            "threaded_scaling.w4_vs_serial_floor (1-core runner)",
            "threaded_4_workers_vs_legacy (1-core runner)",
        ] {
            assert!(
                rows.iter()
                    .any(|r| r.metric == name && r.rule == Rule::Info && r.ok),
                "missing demoted row {name} in\n{}",
                render_table(&rows)
            );
        }
        // The same regression on a multi-core runner still gates…
        let multi = report_with_cores(6.0e7, 13_000, 0.55 / 0.7, 4);
        let rows = diff_bench(&base, &multi, &Tolerances::default(), GateMode::Portable).unwrap();
        assert!(failures(&rows)
            .iter()
            .any(|r| r.metric == "threaded_scaling.w4_vs_serial"));
        // …and so does a runner whose core detection failed (cores = 0):
        // unknown hardware must not silently disarm the gate.
        let unknown = report_with_cores(6.0e7, 13_000, 0.55 / 0.7, 0);
        let rows = diff_bench(&base, &unknown, &Tolerances::default(), GateMode::Portable).unwrap();
        assert!(failures(&rows)
            .iter()
            .any(|r| r.metric == "threaded_scaling.w4_vs_serial"));
        // Absolute mode (same-machine diffs) never demotes.
        let rows = diff_bench(&base, &cur, &Tolerances::default(), GateMode::Absolute).unwrap();
        assert!(failures(&rows)
            .iter()
            .any(|r| r.metric == "threaded_scaling.w4_vs_serial"));
    }

    #[test]
    fn few_core_demotion_names_the_detected_core_count() {
        // 2- and 3-core runners cannot validate a 4-worker speedup either:
        // the parallel rows demote like the 1-core case, and the label
        // carries the detected count so the log says why.
        let base = report_with_scaling(6.0e7, 13_000, 0.55);
        for cores in [2usize, 3] {
            let cur = report_with_cores(6.0e7, 13_000, 0.55 / 0.7, cores);
            let rows = diff_bench(&base, &cur, &Tolerances::default(), GateMode::Portable).unwrap();
            assert!(failures(&rows).is_empty(), "{}", render_table(&rows));
            for name in [
                format!("threaded_scaling.w4_vs_serial ({cores}-core runner)"),
                format!("threaded_scaling.w4_vs_serial_floor ({cores}-core runner)"),
                format!("threaded_4_workers_vs_legacy ({cores}-core runner)"),
            ] {
                assert!(
                    rows.iter()
                        .any(|r| r.metric == name && r.rule == Rule::Info && r.ok),
                    "missing demoted row {name} in\n{}",
                    render_table(&rows)
                );
            }
        }
    }

    #[test]
    fn portable_mode_enforces_w4_speedup_floor_on_multicore_runners() {
        // Baseline and current agree at w4_vs_serial = 1/0.8 = 1.25: the
        // relative gate sees no drop, but 1.25 < the 1.5 floor — on a
        // 4-core runner the floor row must fail on its own.
        let base = report_with_scaling(6.0e7, 13_000, 0.8);
        let cur = report_with_cores(6.0e7, 13_000, 0.8, 4);
        let rows = diff_bench(&base, &cur, &Tolerances::default(), GateMode::Portable).unwrap();
        let failed = failures(&rows);
        assert_eq!(failed.len(), 1, "{}", render_table(&rows));
        assert_eq!(failed[0].metric, "threaded_scaling.w4_vs_serial_floor");
        assert_eq!(failed[0].rule, Rule::Floor);
        assert_eq!(failed[0].baseline, 1.5);
        // A ratio at or above the floor passes it…
        let good = report_with_cores(6.0e7, 13_000, 0.55, 4);
        let fast = report_with_scaling(6.0e7, 13_000, 0.55);
        let rows = diff_bench(&fast, &good, &Tolerances::default(), GateMode::Portable).unwrap();
        assert!(failures(&rows).is_empty(), "{}", render_table(&rows));
        // …failed core detection keeps the floor armed…
        let unknown = report_with_cores(6.0e7, 13_000, 0.8, 0);
        let rows = diff_bench(&base, &unknown, &Tolerances::default(), GateMode::Portable).unwrap();
        assert!(failures(&rows)
            .iter()
            .any(|r| r.metric == "threaded_scaling.w4_vs_serial_floor"));
        // …and absolute mode (same-machine diffs) has no floor row at all.
        let rows = diff_bench(&base, &cur, &Tolerances::default(), GateMode::Absolute).unwrap();
        assert!(!rows.iter().any(|r| r.metric.contains("w4_vs_serial_floor")));
    }

    #[test]
    fn portable_mode_enforces_w1_floor_on_every_runner() {
        // One worker at 1.3x the serial wall time (w1_vs_serial ≈ 0.77):
        // baseline and current agree, so only the absolute 0.9 floor can
        // catch it — on every core count, since one worker is the serial
        // engine's driver and needs no cores to keep its speed.
        let slow_w1 = |cores| {
            let mut b = bench_report(6.0e7, 13_000, 0.55, cores);
            b.threaded_scaling.w1_vs_serial = Some(1.0 / 1.3);
            json::parse(&b.to_json()).unwrap()
        };
        for cores in [1usize, 2, 4, 0] {
            let (base, cur) = (slow_w1(4), slow_w1(cores));
            let rows = diff_bench(&base, &cur, &Tolerances::default(), GateMode::Portable).unwrap();
            let failed = failures(&rows);
            assert_eq!(failed.len(), 1, "{cores} cores\n{}", render_table(&rows));
            assert_eq!(failed[0].metric, "threaded_scaling.w1_vs_serial_floor");
            assert_eq!(failed[0].rule, Rule::Floor);
            assert_eq!(failed[0].baseline, W1_FLOOR);
        }
        // A one-worker run at serial speed passes the floor…
        let good = report_with_scaling(6.0e7, 13_000, 0.55);
        let rows = diff_bench(&good, &good, &Tolerances::default(), GateMode::Portable).unwrap();
        assert!(failures(&rows).is_empty(), "{}", render_table(&rows));
        assert!(rows
            .iter()
            .any(|r| r.metric == "threaded_scaling.w1_vs_serial_floor" && r.ok));
        // …and absolute mode (same-machine diffs) has no floor row at all.
        let rows = diff_bench(
            &good,
            &slow_w1(4),
            &Tolerances::default(),
            GateMode::Absolute,
        )
        .unwrap();
        assert!(!rows.iter().any(|r| r.metric.contains("w1_vs_serial_floor")));
    }

    #[test]
    fn phase_times_rows_are_informational_and_tolerate_old_baselines() {
        let base = report(6.0e7, 13_000);
        let cur = report(6.0e7, 13_000);
        let rows = diff_bench(&base, &cur, &Tolerances::default(), GateMode::Portable).unwrap();
        let phase_rows: Vec<&MetricDiff> = rows
            .iter()
            .filter(|r| r.metric.starts_with("phase_times"))
            .collect();
        assert_eq!(phase_rows.len(), 5, "{}", render_table(&rows));
        assert!(phase_rows.iter().all(|r| r.rule == Rule::Info && r.ok));
        // A committed baseline that predates the section: info "(new)"
        // rows, gate unaffected.
        let old = {
            let Value::Obj(mut m) = report(6.0e7, 13_000) else {
                panic!()
            };
            m.remove("phase_times").expect("section present");
            Value::Obj(m)
        };
        let rows = diff_bench(&old, &cur, &Tolerances::default(), GateMode::Portable).unwrap();
        assert!(failures(&rows).is_empty(), "{}", render_table(&rows));
        assert!(rows.iter().any(|r| {
            r.metric == "phase_times.partition_ns_per_round (new)" && r.rule == Rule::Info
        }));
        // Dropping the section from the current report errors: a report
        // that stops carrying its forensic context is a regression.
        let err = diff_bench(&base, &old, &Tolerances::default(), GateMode::Portable).unwrap_err();
        assert!(err.contains("phase_times"), "{err}");
        assert!(err.contains("current"), "{err}");
    }

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
        let rows = diff_energy(&doc, &doc, &Tolerances::default()).unwrap();
        assert_eq!(rows.len(), 3);
        assert!(failures(&rows).is_empty(), "{}", render_table(&rows));
        assert!(rows.iter().all(|r| r.rule == Rule::CostRatio));
        assert!(rows
            .iter()
            .any(|r| r.metric == "energy.bm21.n1024.ms_per_awake_event"));
    }

    #[test]
    fn energy_cost_ratio_regression_fails_naming_the_point() {
        let base = energy_doc(&[("theorem1", 1024, 5_000, 2.5), ("bm21", 1024, 7_000, 3.0)]);
        // theorem1 does the same events 30% slower: compression regressed.
        let cur = energy_doc(&[("theorem1", 1024, 5_000, 3.25), ("bm21", 1024, 7_000, 3.0)]);
        let rows = diff_energy(&base, &cur, &Tolerances::default()).unwrap();
        let failed = failures(&rows);
        assert_eq!(failed.len(), 1, "{}", render_table(&rows));
        assert_eq!(failed[0].metric, "energy.theorem1.n1024.ms_per_awake_event");
        // A 10% rise stays inside the 15% tolerance.
        let ok = energy_doc(&[("theorem1", 1024, 5_000, 2.75), ("bm21", 1024, 7_000, 3.0)]);
        let rows = diff_energy(&base, &ok, &Tolerances::default()).unwrap();
        assert!(failures(&rows).is_empty(), "{}", render_table(&rows));
    }

    #[test]
    fn energy_sweep_extension_is_informational_but_shrink_errors() {
        let base = energy_doc(&[("theorem1", 1024, 5_000, 2.5)]);
        let extended = energy_doc(&[
            ("theorem1", 1024, 5_000, 2.5),
            ("theorem1", 2048, 11_000, 5.5),
        ]);
        let rows = diff_energy(&base, &extended, &Tolerances::default()).unwrap();
        assert!(failures(&rows).is_empty(), "{}", render_table(&rows));
        assert!(rows.iter().any(|r| {
            r.metric == "energy.theorem1.n2048.ms_per_awake_event (new)" && r.rule == Rule::Info
        }));
        // Dropping a gated point must error, not silently pass.
        let err = diff_energy(&extended, &base, &Tolerances::default()).unwrap_err();
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
        let err = diff_energy(&v1, &v2, &Tolerances::default()).unwrap_err();
        assert!(err.contains("awake_events"), "{err}");
        assert!(err.contains("baseline"), "{err}");
    }

    #[test]
    fn missing_metric_is_reported() {
        let base = report(6.0e7, 13_000);
        let cur = json::parse("{\"engine\": {}}").unwrap();
        let err = diff_bench(&base, &cur, &Tolerances::default(), GateMode::Absolute).unwrap_err();
        assert!(err.contains("node_rounds_per_sec"));
        assert!(err.contains("current"));
    }

    /// The committed document shape *before* the edge_problems section
    /// existed: every other metric present, that section absent.
    fn report_without_edge_section(engine_ns: f64, allocs: u64) -> Value {
        let doc = report(engine_ns, allocs);
        let Value::Obj(mut m) = doc else { panic!() };
        m.remove("edge_problems").expect("section present");
        Value::Obj(m)
    }

    #[test]
    fn edge_section_missing_from_old_baseline_is_informational() {
        // An older committed baseline predates the edge_problems section:
        // the gate must pass (rows downgraded to info), in both modes.
        let old_base = report_without_edge_section(6.0e7, 13_000);
        let cur = report(6.0e7, 13_000);
        for mode in [GateMode::Portable, GateMode::Absolute] {
            let rows = diff_bench(&old_base, &cur, &Tolerances::default(), mode).unwrap();
            assert!(failures(&rows).is_empty(), "{}", render_table(&rows));
            let new_rows: Vec<&MetricDiff> = rows
                .iter()
                .filter(|r| r.metric.starts_with("edge_problems"))
                .collect();
            assert_eq!(new_rows.len(), 4);
            assert!(new_rows
                .iter()
                .all(|r| r.rule == Rule::Info && r.ok && r.metric.ends_with("(new)")));
        }
    }

    #[test]
    fn corrupted_baseline_edge_metric_is_an_error_not_a_new_row() {
        // Present-but-non-numeric is a corrupted baseline, not a section
        // newer than it: the gate must error like any other section.
        let mut base = report(6.0e7, 13_000);
        if let Value::Obj(m) = &mut base {
            let Some(Value::Obj(ep)) = m.get_mut("edge_problems") else {
                panic!()
            };
            let Some(Value::Obj(mat)) = ep.get_mut("matching") else {
                panic!()
            };
            mat.insert("node_rounds_per_sec".into(), Value::Str("oops".into()));
        }
        let cur = report(6.0e7, 13_000);
        let err = diff_bench(&base, &cur, &Tolerances::default(), GateMode::Portable).unwrap_err();
        assert!(err.contains("edge_problems.matching.node_rounds_per_sec"));
        assert!(err.contains("baseline"));
    }

    #[test]
    fn edge_section_missing_from_current_still_errors() {
        let base = report(6.0e7, 13_000);
        let cur = report_without_edge_section(6.0e7, 13_000);
        let err = diff_bench(&base, &cur, &Tolerances::default(), GateMode::Portable).unwrap_err();
        assert!(err.contains("edge_problems"), "{err}");
        assert!(err.contains("current"), "{err}");
    }

    #[test]
    fn edge_problem_regressions_gate_like_engine_rows() {
        let base = report(6.0e7, 13_000);
        // matching 25% slower in absolute mode fails…
        let mut slow = report(6.0e7, 13_000);
        if let Value::Obj(m) = &mut slow {
            let Some(Value::Obj(ep)) = m.get_mut("edge_problems") else {
                panic!()
            };
            let Some(Value::Obj(mat)) = ep.get_mut("matching") else {
                panic!()
            };
            let v = mat.get("node_rounds_per_sec").unwrap().as_f64().unwrap();
            mat.insert("node_rounds_per_sec".into(), Value::Num(v * 0.75));
        }
        let rows = diff_bench(&base, &slow, &Tolerances::default(), GateMode::Absolute).unwrap();
        assert!(failures(&rows)
            .iter()
            .any(|r| r.metric == "edge_problems.matching.node_rounds_per_sec"));
        // …and is informational in portable mode (absolute throughput is
        // machine-specific), where allocation rates still gate.
        let rows = diff_bench(&base, &slow, &Tolerances::default(), GateMode::Portable).unwrap();
        assert!(failures(&rows).is_empty(), "{}", render_table(&rows));
        let mut alloc = report(6.0e7, 13_000);
        if let Value::Obj(m) = &mut alloc {
            let Some(Value::Obj(ep)) = m.get_mut("edge_problems") else {
                panic!()
            };
            let Some(Value::Obj(col)) = ep.get_mut("edge_coloring") else {
                panic!()
            };
            col.insert("allocations_per_node_round".into(), Value::Num(1.5));
        }
        let rows = diff_bench(&base, &alloc, &Tolerances::default(), GateMode::Portable).unwrap();
        assert!(failures(&rows)
            .iter()
            .any(|r| r.metric == "edge_problems.edge_coloring.allocations_per_node_round"));
    }

    #[test]
    fn table_renders_every_row() {
        let base = report(6.0e7, 13_000);
        let rows = diff_bench(&base, &base, &Tolerances::default(), GateMode::Absolute).unwrap();
        let table = render_table(&rows);
        assert_eq!(table.lines().count(), rows.len() + 2);
        assert!(table.contains("speedup_vs_legacy"));
    }
}
