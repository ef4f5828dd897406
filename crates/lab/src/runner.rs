//! Executing scenarios: serially, or sharded across worker threads.
//!
//! The runner guarantees that the *deterministic* part of a
//! [`Report`] — everything in
//! [`ScenarioMetrics`] plus the graph
//! shape and validation verdict — is identical regardless of shard count:
//! each scenario derives its RNG seed from the suite seed and its
//! graph-family key ([`Scenario::seed`]), runs independently, and results
//! are merged in suite order. The determinism test in `tests/golden.rs`
//! asserts this.

use crate::fsio::write_atomic;
use crate::report::{is_row_column, Report, ScenarioMetrics, ScenarioReport, Timing};
use crate::scenario::{Algo, ProblemKind, Scenario};
use awake_core::bounds::{self, BoundAlgo, ProblemClass};
use awake_core::params::Params;
use awake_core::resilient::{run_stage, StageSpec};
use awake_core::trivial::TrivialGreedy;
use awake_core::{bm21, linegraph, theorem1};
use awake_graphs::Graph;
use awake_olocal::edge::{EdgeColoring, MaximalMatching};
use awake_olocal::problems::{
    DegreePlusOneListColoring, DeltaPlusOneColoring, MaximalIndependentSet, MinimalVertexCover,
};
use awake_olocal::{EdgeProblem, OLocalProblem};
use awake_sleeping::{
    Checkpoint, Codec, Config, Counters, FaultPlan, ResumeError, RunSpec, SimError, Snapshot,
};
use std::cell::RefCell;
use std::fmt;
use std::num::NonZeroU64;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Why a scenario could not produce a report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The simulator aborted.
    Sim(SimError),
    /// The scenario paired a problem with a solver that cannot run it —
    /// edge problems ride the line-graph adapter, which exists for the
    /// `trivial` solver only. Fault injection is *not* a
    /// reason anymore: every solver, the staged pipelines and the
    /// line-graph adapter included, takes crash/drop/dup/delay injection
    /// through the time-redundancy recovery contract
    /// ([`awake_core::resilient`]) and is audited against the degraded
    /// budgets.
    UnsupportedAlgo {
        /// The problem's label.
        problem: &'static str,
        /// The solver's label.
        algo: String,
    },
    /// A recoverable run could not write or restore a snapshot file
    /// (I/O failure, or a corrupt/foreign checkpoint under the expected
    /// name).
    Checkpoint(String),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Sim(e) => e.fmt(f),
            RunError::UnsupportedAlgo { problem, algo } => {
                write!(f, "problem `{problem}` cannot run on solver `{algo}`")
            }
            RunError::Checkpoint(msg) => write!(f, "checkpoint: {msg}"),
        }
    }
}

impl From<SimError> for RunError {
    fn from(e: SimError) -> Self {
        RunError::Sim(e)
    }
}

/// A scenario run failure: which scenario, and what went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabError {
    /// The failing scenario's name.
    pub scenario: String,
    /// The underlying failure.
    pub error: RunError,
}

impl fmt::Display for LabError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scenario {}: {}", self.scenario, self.error)
    }
}

impl std::error::Error for LabError {}

/// Reads a process-wide allocation counter (installed by the host binary's
/// `#[global_allocator]`); the runner records deltas around each scenario.
pub type AllocProbe = fn() -> u64;

/// Runs suites of [`Scenario`]s and produces [`Report`]s.
#[derive(Debug, Clone, Default)]
pub struct Runner {
    shards: usize,
    alloc_probe: Option<AllocProbe>,
}

impl Runner {
    /// A serial runner: scenarios execute one by one, in suite order.
    pub fn serial() -> Self {
        Runner {
            shards: 1,
            alloc_probe: None,
        }
    }

    /// A sharded runner: up to `shards` scenarios execute concurrently on
    /// worker threads (results are still reported in suite order, and the
    /// deterministic fields are identical to a serial run).
    pub fn sharded(shards: usize) -> Self {
        Runner {
            shards: shards.max(1),
            alloc_probe: None,
        }
    }

    /// Record per-scenario heap-allocation deltas through `probe`.
    ///
    /// Attribution is exact only on a serial runner — sharded scenarios
    /// share the process-wide counter, so their deltas overlap. The field
    /// is excluded from the canonical report either way.
    pub fn with_alloc_probe(mut self, probe: AllocProbe) -> Self {
        self.alloc_probe = Some(probe);
        self
    }

    /// Run every scenario and collect a [`Report`].
    ///
    /// # Errors
    /// Returns the first failing scenario's [`LabError`] (in suite order).
    pub fn run(&self, suite: &str, scenarios: &[Scenario], seed: u64) -> Result<Report, LabError> {
        self.run_observed(suite, scenarios, seed, |_| {})
    }

    /// Like [`Runner::run`], but `observer` is invoked with the growing
    /// partial report each time the completed **in-suite-order prefix**
    /// extends — the hook the suite uses to stream energy points to disk
    /// as long sweeps finish, so a killed 2²¹-node sweep still leaves
    /// every completed point behind. On a sharded runner, scenarios
    /// finishing out of order are buffered until their predecessors
    /// complete, keeping each emitted partial a byte-prefix of the final
    /// report's scenario list.
    ///
    /// # Errors
    /// Returns the first failing scenario's [`LabError`] (in suite order).
    pub fn run_observed(
        &self,
        suite: &str,
        scenarios: &[Scenario],
        seed: u64,
        observer: impl Fn(&Report) + Sync,
    ) -> Result<Report, LabError> {
        let partial = |rows: &[ScenarioReport]| Report {
            suite: suite.to_string(),
            seed,
            scenarios: rows.to_vec(),
        };
        let slots: Vec<Mutex<Option<Result<ScenarioReport, LabError>>>> =
            scenarios.iter().map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        // The contiguous completed-and-ok prefix emitted so far; a worker
        // that fills a slot tries to extend it (lock order is always
        // prefix → slot, and a slot lock is never held while waiting on
        // the prefix, so the two cannot deadlock).
        let emitted: Mutex<Vec<ScenarioReport>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..self.shards.min(scenarios.len()) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(sc) = scenarios.get(i) else { break };
                    let r = run_scenario(sc, seed, self.alloc_probe);
                    *slots[i].lock().unwrap() = Some(r);
                    let mut prefix = emitted.lock().unwrap();
                    let mut grew = false;
                    while let Some(slot) = slots.get(prefix.len()) {
                        let Some(Ok(row)) = slot.lock().unwrap().clone() else {
                            break;
                        };
                        prefix.push(row);
                        grew = true;
                    }
                    if grew {
                        observer(&partial(&prefix));
                    }
                });
            }
        });
        let mut out = Vec::with_capacity(scenarios.len());
        for slot in slots {
            out.push(slot.into_inner().unwrap().expect("every slot filled")?);
        }
        Ok(Report {
            suite: suite.to_string(),
            seed,
            scenarios: out,
        })
    }

    /// Run a suite **recoverably**: progress and in-flight engine state
    /// persist under `dir`, so a killed run can be re-invoked on the same
    /// directory and continue to the same canonical report, byte for byte.
    ///
    /// * After each completed scenario, `dir/progress.json` is atomically
    ///   rewritten with the canonical partial report; on re-invocation,
    ///   completed rows are reloaded instead of re-run (their
    ///   deterministic fields are identical either way — wall time and
    ///   allocations of reloaded rows read as zero, which only the
    ///   non-canonical report form shows).
    /// * With `every = Some(n)`, vertex scenarios of the `trivial` solver,
    ///   on any executor, additionally persist an engine
    ///   [`Snapshot`] to `dir/<scenario>.ckpt` (atomically) every `n`
    ///   rounds; a re-invocation restores the newest snapshot and runs
    ///   only the remaining rounds. Scenarios without snapshot support
    ///   (staged pipelines, edge adapters) are deterministic and simply
    ///   re-run from scratch.
    /// * `every = None` is resume-only mode: existing snapshots are
    ///   consumed, no new ones are written.
    ///
    /// Scenarios execute serially, in suite order — recoverability needs
    /// a well-defined "done so far" prefix, so the shard count is ignored
    /// here.
    ///
    /// # Errors
    /// The first failing scenario's [`LabError`]; snapshot and progress
    /// I/O failures surface as [`RunError::Checkpoint`].
    pub fn run_recoverable(
        &self,
        suite: &str,
        scenarios: &[Scenario],
        seed: u64,
        dir: &Path,
        every: Option<NonZeroU64>,
    ) -> Result<Report, LabError> {
        let io_err = |scenario: &Scenario, msg: String| LabError {
            scenario: scenario.name.clone(),
            error: RunError::Checkpoint(msg),
        };
        if let Some(first) = scenarios.first() {
            std::fs::create_dir_all(dir)
                .map_err(|e| io_err(first, format!("creating {}: {e}", dir.display())))?;
        }
        let progress_path = dir.join("progress.json");
        // A torn or foreign ledger is never fatal: surviving rows reload,
        // the rest (reported as typed `ProgressError`s) simply re-run.
        let done = match std::fs::read_to_string(&progress_path) {
            Ok(text) => parse_progress(&text).0,
            Err(_) => Vec::new(),
        };
        let mut out: Vec<ScenarioReport> = Vec::with_capacity(scenarios.len());
        for sc in scenarios {
            let reloaded = done
                .iter()
                .find(|row| row.name == sc.name)
                .and_then(|row| row.to_report(sc, seed));
            let row = match reloaded {
                Some(row) => row,
                None => {
                    let ck = CkptFile {
                        path: dir.join(ckpt_file_name(&sc.name)),
                        every,
                    };
                    run_scenario_inner(sc, seed, self.alloc_probe, Some(&ck))?
                }
            };
            out.push(row);
            let partial = Report {
                suite: suite.to_string(),
                seed,
                scenarios: out.clone(),
            };
            write_atomic(&progress_path, partial.canonical_json().as_bytes())
                .map_err(|e| io_err(sc, format!("writing {}: {e}", progress_path.display())))?;
        }
        Ok(Report {
            suite: suite.to_string(),
            seed,
            scenarios: out,
        })
    }
}

/// One row reloaded from `progress.json` — only what the canonical form
/// carries and [`Scenario`] cannot re-derive cheaply.
struct ProgressRow {
    name: String,
    problem: String,
    family: String,
    algo: String,
    n: u64,
    m: u64,
    valid: bool,
    awake_bound: u64,
    round_bound: u64,
    bound_ok: bool,
    metrics: ScenarioMetrics,
}

impl ProgressRow {
    /// Rebuild the [`ScenarioReport`], cross-checking the row against the
    /// scenario it claims to be (`None` on any mismatch ⇒ re-run). The
    /// seed is recomputed from the scenario rather than re-parsed — JSON
    /// numbers travel as `f64`, which cannot hold every `u64` seed.
    fn to_report(&self, sc: &Scenario, suite_seed: u64) -> Option<ScenarioReport> {
        if self.problem != sc.problem.key()
            || self.family != sc.family.key()
            || self.algo != sc.algo_key()
        {
            return None;
        }
        Some(ScenarioReport {
            name: sc.name.clone(),
            problem: sc.problem.key(),
            family: sc.family.key(),
            algo: sc.algo_key(),
            seed: sc.seed(suite_seed),
            n: usize::try_from(self.n).ok()?,
            m: usize::try_from(self.m).ok()?,
            valid: self.valid,
            awake_bound: self.awake_bound,
            round_bound: self.round_bound,
            bound_ok: self.bound_ok,
            metrics: self.metrics.clone(),
            timing: Timing::default(),
        })
    }
}

/// Why (part of) a `progress.json` ledger could not be reloaded. The
/// runner's response is always the same — drop the unreadable part and
/// re-run the affected scenarios — but the typed cause distinguishes "the
/// whole ledger is foreign" from "one row was torn mid-write", which the
/// tests pin separately.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgressError {
    /// The document failed to parse, carried a different schema tag, or
    /// had no scenario array: the whole ledger is ignored.
    Document,
    /// The row at this index (in ledger order) was truncated or corrupt —
    /// a required field missing, mistyped, or outside the exact-`f64`
    /// integer range. Only that row is dropped.
    TornRow(usize),
}

/// Parse a `progress.json` written by
/// [`Runner::run_recoverable`] back into rows. Tolerant by design:
/// anything unreadable (missing file handled by the caller, wrong schema,
/// torn fields, numbers outside exact-`f64` range) is reported as a typed
/// [`ProgressError`] next to the rows that *did* survive, and the affected
/// scenarios are simply re-run.
fn parse_progress(text: &str) -> (Vec<ProgressRow>, Vec<ProgressError>) {
    use crate::json::{parse, Value};
    let exact_u64 = |v: Option<&Value>| -> Option<u64> {
        let f = v?.as_f64()?;
        // beyond 2^53, f64 can no longer represent every integer
        (f.fract() == 0.0 && (0.0..=9007199254740992.0).contains(&f)).then_some(f as u64)
    };
    let Ok(doc) = parse(text) else {
        return (Vec::new(), vec![ProgressError::Document]);
    };
    if doc.get("schema").and_then(Value::as_str) != Some(crate::report::REPORT_SCHEMA) {
        return (Vec::new(), vec![ProgressError::Document]);
    }
    let Some(Value::Arr(rows)) = doc.get("scenarios") else {
        return (Vec::new(), vec![ProgressError::Document]);
    };
    let mut out = Vec::with_capacity(rows.len());
    let mut errors = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        let parsed = (|| {
            Some(ProgressRow {
                name: row.get("name")?.as_str()?.to_string(),
                problem: row.get("problem")?.as_str()?.to_string(),
                family: row.get("family")?.as_str()?.to_string(),
                algo: row.get("algo")?.as_str()?.to_string(),
                n: exact_u64(row.get("n"))?,
                m: exact_u64(row.get("m"))?,
                valid: matches!(row.get("valid")?, Value::Bool(true)),
                awake_bound: exact_u64(row.get("awake_bound"))?,
                round_bound: exact_u64(row.get("round_bound"))?,
                bound_ok: matches!(row.get("bound_ok")?, Value::Bool(true)),
                metrics: ScenarioMetrics {
                    rounds: exact_u64(row.get("rounds"))?,
                    max_awake: exact_u64(row.get("max_awake"))?,
                    awake_p50: exact_u64(row.get("awake_p50"))?,
                    awake_p99: exact_u64(row.get("awake_p99"))?,
                    total_awake: exact_u64(row.get("total_awake"))?,
                    avg_awake: row.get("avg_awake")?.as_f64()?,
                    counters: {
                        let mut c = Counters::default();
                        for (name, v) in Counters::NAMES.iter().zip(c.values_mut()) {
                            if is_row_column(name) {
                                *v = exact_u64(row.get(name))?;
                            }
                        }
                        c
                    },
                },
            })
        })();
        match parsed {
            Some(r) => out.push(r),
            None => errors.push(ProgressError::TornRow(i)),
        }
    }
    (out, errors)
}

/// One scenario's snapshot file in a recoverable run: where it lives and
/// whether the run should keep refreshing it (`every = None` means
/// resume-only — restore if the file exists, emit nothing new).
struct CkptFile {
    path: PathBuf,
    every: Option<NonZeroU64>,
}

impl CkptFile {
    /// The existing snapshot under the final name, if any. A stray
    /// `*.tmp` staging sibling is invisible here by construction — the
    /// lookup is by exact name.
    fn load(&self) -> Result<Option<Snapshot>, RunError> {
        let bytes = match std::fs::read(&self.path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => {
                return Err(RunError::Checkpoint(format!(
                    "reading {}: {e}",
                    self.path.display()
                )))
            }
        };
        Snapshot::from_bytes(bytes)
            .map(Some)
            .map_err(|e| RunError::Checkpoint(format!("decoding {}: {e:?}", self.path.display())))
    }

    /// Persist `snap` atomically, remembering the first I/O failure (the
    /// engine sink is infallible, so errors are surfaced after the run).
    fn store(&self, snap: &Snapshot, first_err: &mut Option<String>) {
        if first_err.is_none() {
            if let Err(e) = write_atomic(&self.path, snap.as_bytes()) {
                *first_err = Some(format!("writing {}: {e}", self.path.display()));
            }
        }
    }
}

/// The snapshot file name of a scenario: its name with every character
/// outside `[A-Za-z0-9._-]` mapped to `-`, plus `.ckpt`.
fn ckpt_file_name(scenario: &str) -> String {
    let mut s: String = scenario
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.') {
                c
            } else {
                '-'
            }
        })
        .collect();
    s.push_str(".ckpt");
    s
}

/// Run one scenario with the given suite seed.
///
/// # Errors
/// Propagates simulator errors, tagged with the scenario name.
pub fn run_scenario(
    sc: &Scenario,
    suite_seed: u64,
    probe: Option<AllocProbe>,
) -> Result<ScenarioReport, LabError> {
    run_scenario_inner(sc, suite_seed, probe, None)
}

fn run_scenario_inner(
    sc: &Scenario,
    suite_seed: u64,
    probe: Option<AllocProbe>,
    ckpt: Option<&CkptFile>,
) -> Result<ScenarioReport, LabError> {
    let seed = sc.seed(suite_seed);
    let a0 = probe.map(|p| p()).unwrap_or(0);
    let t0 = Instant::now();
    let g = sc.family.build(seed);
    let (metrics, valid) = match sc.problem {
        ProblemKind::Coloring => solve(&DeltaPlusOneColoring, sc, &g, seed, ckpt),
        ProblemKind::ListColoring => solve(&DegreePlusOneListColoring, sc, &g, seed, ckpt),
        ProblemKind::Mis => solve(&MaximalIndependentSet, sc, &g, seed, ckpt),
        ProblemKind::VertexCover => solve(&MinimalVertexCover, sc, &g, seed, ckpt),
        ProblemKind::Matching => solve_edge(&MaximalMatching, sc, &g, seed),
        ProblemKind::EdgeColoring => solve_edge(&EdgeColoring, sc, &g, seed),
    }
    .map_err(|error| LabError {
        scenario: sc.name.clone(),
        error,
    })?;
    let wall_ns = t0.elapsed().as_nanos() as f64;
    let allocations = probe.map(|p| p() - a0).unwrap_or(0);
    let budget = budget_of(sc, &g, seed);
    let bound_ok = metrics.max_awake <= budget.awake && metrics.rounds <= budget.rounds;
    Ok(ScenarioReport {
        name: sc.name.clone(),
        problem: sc.problem.key(),
        family: sc.family.key(),
        algo: sc.algo_key(),
        seed,
        n: g.n(),
        m: g.m(),
        valid,
        awake_bound: budget.awake,
        round_bound: budget.rounds,
        bound_ok,
        metrics,
        timing: Timing {
            wall_ns,
            allocations,
        },
    })
}

/// The budget a scenario is audited against on its built graph: the
/// [`bounds::degraded_budget_for`] entry point with the harness's axis
/// mapping, at the exact [`FaultPlan`] the run injects (`seed` is the
/// scenario's derived seed, which also seeds the plan). A fault-free row
/// has no plan, and a missing or inactive plan degrades nothing, so those
/// rows get the fault-free [`bounds::budget_for`]. There is no audit
/// exemption for fault scenarios: the degraded budget is a hard gate like
/// any other. A run is bit-for-bit identical at every worker count, so
/// the budget ignores the executor; the staged pipelines use the same
/// [`Params`] derivation the solvers themselves apply
/// ([`Params::for_graph`]).
///
/// # Panics
/// Panics on an unsupported (algo × problem) pairing — those fail the
/// scenario with [`RunError::UnsupportedAlgo`] before budgets are
/// consulted, so reaching this with one is a harness bug.
pub fn budget_of(sc: &Scenario, g: &Graph, seed: u64) -> bounds::Budget {
    let (algo, class) = bound_axes(sc);
    let plan = sc.faults.map_or(FaultPlan::new(seed), |f| f.plan(seed));
    bounds::degraded_budget_for(algo, class, g, &Params::for_graph(g), &plan)
        .expect("supported (algo × problem) pairings have budgets")
}

/// The harness's axis mapping into [`bounds`]: the solver and the
/// problem class; the executor does not enter.
fn bound_axes(sc: &Scenario) -> (BoundAlgo, ProblemClass) {
    let algo = match sc.algo {
        Algo::Trivial => BoundAlgo::Trivial,
        Algo::Bm21 => BoundAlgo::Bm21,
        Algo::Theorem1 => BoundAlgo::Theorem1,
    };
    let class = if sc.problem.is_edge() {
        ProblemClass::Edge
    } else {
        ProblemClass::Vertex
    };
    (algo, class)
}

/// The spec a scenario names: its executor's worker count, under its
/// fault plan seeded with its derived `seed`.
fn spec_of(sc: &Scenario, seed: u64) -> StageSpec {
    StageSpec::on(sc.executor.workers()).with_faults(sc.faults.map(|f| f.plan(seed)))
}

/// Solve the scenario's problem on `g` with the scenario's algorithm and
/// validate the outputs. `seed` is the scenario's derived seed (it also
/// seeds the fault plan, if any). Every algorithm runs through one spec:
/// the worker count, the fault plan (an inactive one means no plan) and —
/// for the single-stage trivial solver — the recoverable run's snapshot
/// file `ckpt`, resumed from if it exists and refreshed every
/// `ckpt.every` rounds. Snapshots carry the fault plan and its stream
/// position, so a resumed faulty run continues the exact same injection
/// schedule.
fn solve<P>(
    problem: &P,
    sc: &Scenario,
    g: &Graph,
    seed: u64,
    ckpt: Option<&CkptFile>,
) -> Result<(ScenarioMetrics, bool), RunError>
where
    P: OLocalProblem + Clone + Send + Sync,
    P::Input: Codec,
    P::Output: Codec,
{
    let inputs = problem.trivial_inputs(g);
    let spec = spec_of(sc, seed);
    let (metrics, outputs) = match sc.algo {
        Algo::Trivial => {
            let resumed = ckpt.map(CkptFile::load).transpose()?.flatten();
            let store_err = RefCell::new(None);
            let sink = |s: &Snapshot| {
                let ck = ckpt.expect("a snapshot interval implies a snapshot file");
                ck.store(s, &mut store_err.borrow_mut());
            };
            let spec = RunSpec {
                checkpoint: ckpt
                    .and_then(|ck| ck.every)
                    .map(|every| Checkpoint::Every(every, &sink)),
                resume: resumed.as_ref(),
                ..spec.into()
            };
            let programs: Vec<TrivialGreedy<P>> = g
                .nodes()
                .map(|v| TrivialGreedy::new(problem.clone(), inputs[v.index()].clone()))
                .collect();
            let run = run_stage(
                g,
                programs,
                Config::default(),
                bounds::trivial_rounds(g),
                &spec,
            )
            .map_err(|e| match e {
                ResumeError::Sim(e) => RunError::Sim(e),
                ResumeError::Checkpoint(e) => RunError::Checkpoint(format!("resume: {e}")),
            })?
            .finished();
            if let Some(msg) = store_err.into_inner() {
                return Err(RunError::Checkpoint(msg));
            }
            (run.metrics, run.outputs)
        }
        Algo::Bm21 => {
            let r = bm21::solve_spec(g, problem, &inputs, None, &spec)?;
            (r.composition.total(), r.outputs)
        }
        Algo::Theorem1 => {
            let r = theorem1::solve_spec(g, problem, &inputs, Default::default(), &spec)?;
            (r.composition.total(), r.outputs)
        }
    };
    let valid = problem.validate(g, &inputs, &outputs).is_ok();
    Ok((ScenarioMetrics::from_metrics(&metrics), valid))
}

/// Solve an edge-problem scenario through the line-graph virtualization
/// adapter and validate the per-edge outputs. Recoverable runs re-execute
/// edge scenarios deterministically rather than snapshotting them (the
/// adapter's host state is [`awake_sleeping::Persist`]-capable, but the
/// suite keeps snapshot files to the vertex executors). Fault injection —
/// crash-restarts included — rides the adapter through
/// [`linegraph::solve_edges_spec`] and is audited against the degraded
/// budgets.
fn solve_edge<P>(
    problem: &P,
    sc: &Scenario,
    g: &Graph,
    seed: u64,
) -> Result<(ScenarioMetrics, bool), RunError>
where
    P: EdgeProblem + Clone + Send + Sync,
    P::Output: Codec,
{
    if matches!(sc.algo, Algo::Bm21 | Algo::Theorem1) {
        return Err(RunError::UnsupportedAlgo {
            problem: problem.name(),
            algo: sc.algo_key(),
        });
    }
    let inputs = problem.trivial_inputs(g);
    let spec = spec_of(sc, seed);
    let run = linegraph::solve_edges_spec(g, problem, &inputs, Config::default(), &spec)?;
    let valid = problem.validate(g, &inputs, &run.outputs).is_ok();
    Ok((ScenarioMetrics::from_metrics(&run.metrics), valid))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{GraphFamily, ScenarioBuilder};

    fn tiny(algo: Algo) -> ScenarioBuilder {
        Scenario::of(GraphFamily::Gnp { n: 24, p: 0.15 }, ProblemKind::Mis, algo)
    }

    #[test]
    fn all_algorithms_run_and_validate_within_budget() {
        for sc in [
            tiny(Algo::Trivial).build(),
            tiny(Algo::Trivial).on(2).build(),
            tiny(Algo::Bm21).build(),
            tiny(Algo::Theorem1).build(),
        ] {
            let r = run_scenario(&sc, 3, None).unwrap();
            assert!(r.valid, "{} invalid", r.name);
            assert!(r.metrics.max_awake > 0);
            assert_eq!(r.n, 24);
            // the measured-vs-stated audit `bounds.rs` promises
            assert!(
                r.bound_ok,
                "{}: awake {}/{} rounds {}/{}",
                r.name, r.metrics.max_awake, r.awake_bound, r.metrics.rounds, r.round_bound
            );
            assert!(r.metrics.awake_p50 <= r.metrics.awake_p99);
            assert!(r.metrics.awake_p99 <= r.metrics.max_awake);
        }
    }

    #[test]
    fn serial_and_threaded_trivial_agree_exactly() {
        // same family ⇒ same seed ⇒ same graph instance (and fault stream)
        for algo in [Algo::Trivial, Algo::Bm21, Algo::Theorem1] {
            for faults in [None, Some(rough())] {
                let sc = |workers| {
                    let sc = tiny(algo).on(workers);
                    match faults {
                        Some(f) => sc.with_faults(f).build(),
                        None => sc.build(),
                    }
                };
                let a = run_scenario(&sc(1), 3, None).unwrap();
                let b = run_scenario(&sc(4), 3, None).unwrap();
                assert!(a.valid && b.valid, "{}: invalid", b.name);
                assert_eq!(a.metrics, b.metrics, "{}: executors disagree", b.name);
            }
        }
    }

    #[test]
    fn pool_scenarios_of_staged_solvers_run_on_their_worker_count() {
        // Equal outputs cannot show that the pool ran: check the spec.
        for algo in [Algo::Bm21, Algo::Theorem1] {
            let pool = tiny(algo).on(8).build();
            assert_eq!(pool.algo_key(), format!("{}-t8", algo.key()));
            assert_eq!(spec_of(&pool, 3).workers, 8);
            assert_eq!(spec_of(&tiny(algo).build(), 3).workers, 1);
        }
    }

    #[test]
    fn sharded_runner_matches_serial() {
        let scenarios: Vec<Scenario> = [
            ProblemKind::Coloring,
            ProblemKind::ListColoring,
            ProblemKind::Mis,
            ProblemKind::VertexCover,
        ]
        .into_iter()
        .map(|p| Scenario::of(GraphFamily::RandomTree { n: 32 }, p, Algo::Bm21).build())
        .collect();
        let serial = Runner::serial().run("t", &scenarios, 11).unwrap();
        let sharded = Runner::sharded(3).run("t", &scenarios, 11).unwrap();
        assert_eq!(serial.canonical_json(), sharded.canonical_json());
    }

    #[test]
    fn observed_run_streams_growing_in_order_prefixes() {
        let scenarios: Vec<Scenario> = [
            ProblemKind::Coloring,
            ProblemKind::ListColoring,
            ProblemKind::Mis,
            ProblemKind::VertexCover,
        ]
        .into_iter()
        .map(|p| Scenario::of(GraphFamily::RandomTree { n: 32 }, p, Algo::Bm21).build())
        .collect();
        for runner in [Runner::serial(), Runner::sharded(3)] {
            let seen: Mutex<Vec<usize>> = Mutex::new(Vec::new());
            let r = runner
                .run_observed("t", &scenarios, 11, |partial| {
                    // every emission is an in-suite-order prefix
                    for (i, row) in partial.scenarios.iter().enumerate() {
                        assert_eq!(row.name, scenarios[i].name);
                    }
                    seen.lock().unwrap().push(partial.scenarios.len());
                })
                .unwrap();
            let seen = seen.into_inner().unwrap();
            assert!(seen.windows(2).all(|w| w[0] < w[1]), "prefixes must grow");
            assert_eq!(
                seen.last().copied(),
                Some(r.scenarios.len()),
                "the last emission must carry the whole suite"
            );
        }
    }

    #[test]
    fn errors_carry_the_scenario_name() {
        let e = LabError {
            scenario: "x".into(),
            error: RunError::Sim(SimError::RoundBudgetExceeded { limit: 1 }),
        };
        assert!(e.to_string().contains("scenario x"));
        assert!(e.to_string().contains("budget 1"));
    }

    fn tiny_edge(problem: ProblemKind, algo: Algo) -> ScenarioBuilder {
        Scenario::of(GraphFamily::Gnp { n: 24, p: 0.15 }, problem, algo)
    }

    #[test]
    fn edge_problems_run_and_validate_on_both_executors() {
        for problem in ProblemKind::EDGE {
            let a = run_scenario(&tiny_edge(problem, Algo::Trivial).build(), 3, None).unwrap();
            assert!(a.valid, "{} invalid", a.name);
            assert!(a.metrics.max_awake > 0);
            assert!(
                a.bound_ok,
                "{}: awake {}/{} rounds {}/{}",
                a.name, a.metrics.max_awake, a.awake_bound, a.metrics.rounds, a.round_bound
            );
            // serial/threaded share the graph instance and must agree
            let pool = tiny_edge(problem, Algo::Trivial).on(4).build();
            let b = run_scenario(&pool, 3, None).unwrap();
            assert_eq!(a.metrics, b.metrics, "executors must agree bit for bit");
        }
    }

    #[test]
    fn edge_problems_reject_staged_solvers() {
        let sc = tiny_edge(ProblemKind::Matching, Algo::Theorem1).build();
        let e = run_scenario(&sc, 3, None).unwrap_err();
        assert!(
            matches!(e.error, RunError::UnsupportedAlgo { .. }),
            "got {e}"
        );
        assert!(e.to_string().contains("theorem1"));
    }

    use crate::scenario::FaultSpec;

    /// Rates high enough that every fault kind fires on a 80-node run,
    /// including crash-restarts at round 1 and at decision rounds. The
    /// quiet tail lets the run settle, so the degraded budgets apply and
    /// `bound_ok` is a real gate on these rows.
    fn rough() -> FaultSpec {
        FaultSpec {
            drop_ppm: 50_000,
            dup_ppm: 30_000,
            delay_ppm: 30_000,
            crash_ppm: 20_000,
            delay_rounds: 2,
            burst_start: 0,
            burst_len: 0,
            quiet_after: 48,
        }
    }

    fn faulty(problem: ProblemKind, algo: Algo) -> ScenarioBuilder {
        Scenario::of(GraphFamily::Gnp { n: 80, p: 0.08 }, problem, algo).with_faults(rough())
    }

    #[test]
    fn fault_injected_scenarios_complete_identically_on_both_executors() {
        for problem in [ProblemKind::Mis, ProblemKind::Coloring] {
            let a = run_scenario(&faulty(problem, Algo::Trivial).build(), 5, None).unwrap();
            let pool = faulty(problem, Algo::Trivial).on(4).build();
            let b = run_scenario(&pool, 5, None).unwrap();
            assert_eq!(a.metrics, b.metrics, "{problem:?}: executors diverged");
            // the plan must actually have injected something, crashes
            // included — the run recovers, validates, and stays within
            // the degraded budget
            let c = a.metrics.counters;
            assert!(c.faults_dropped > 0, "{problem:?}: no drops");
            assert!(c.faults_crashed > 0, "{problem:?}: no crashes");
            assert!(a.valid, "{}: invalid after recovery", a.name);
            assert!(
                a.bound_ok,
                "{}: awake {}/{} rounds {}/{}",
                a.name, a.metrics.max_awake, a.awake_bound, a.metrics.rounds, a.round_bound
            );
        }
    }

    #[test]
    fn edge_scenarios_take_message_and_crash_faults() {
        // message-only faults ride the line-graph adapter as before
        let msg_only = FaultSpec {
            crash_ppm: 0,
            ..rough()
        };
        let sc = Scenario::of(
            GraphFamily::Gnp { n: 80, p: 0.08 },
            ProblemKind::Matching,
            Algo::Trivial,
        )
        .with_faults(msg_only);
        let a = run_scenario(&sc.clone().build(), 5, None).unwrap();
        let b = run_scenario(&sc.on(4).build(), 5, None).unwrap();
        assert_eq!(a.metrics, b.metrics, "executors diverged");
        assert!(a.metrics.counters.faults_dropped > 0, "no drops injected");
        // crash-restart now rides the adapter too: every host replica
        // rewinds together under the time-redundancy wrapper, recovers,
        // and the row gates against the degraded budget
        let sc = faulty(ProblemKind::Matching, Algo::Trivial);
        let a = run_scenario(&sc.clone().build(), 5, None).unwrap();
        let b = run_scenario(&sc.on(4).build(), 5, None).unwrap();
        assert_eq!(a.metrics, b.metrics, "executors diverged under crashes");
        assert!(a.metrics.counters.faults_crashed > 0, "no crashes injected");
        assert!(a.valid, "{}: invalid after recovery", a.name);
        assert!(
            a.bound_ok,
            "{}: awake {}/{} rounds {}/{}",
            a.name, a.metrics.max_awake, a.awake_bound, a.metrics.rounds, a.round_bound
        );
    }

    #[test]
    fn staged_solvers_take_fault_injection() {
        // smaller graph: the staged pipelines run many stretched stages
        let small = |algo| {
            Scenario::of(GraphFamily::Gnp { n: 36, p: 0.12 }, ProblemKind::Mis, algo)
                .with_faults(rough())
                .build()
        };
        for algo in [Algo::Bm21, Algo::Theorem1] {
            let r = run_scenario(&small(algo), 5, None).unwrap();
            assert!(r.valid, "{}: invalid after recovery", r.name);
            let crashed = r.metrics.counters.faults_crashed;
            assert!(crashed > 0, "{}: no crashes", r.name);
            assert!(
                r.bound_ok,
                "{}: awake {}/{} rounds {}/{}",
                r.name, r.metrics.max_awake, r.awake_bound, r.metrics.rounds, r.round_bound
            );
        }
    }

    #[test]
    fn torn_progress_rows_are_typed_and_only_they_rerun() {
        // a complete ledger parses cleanly, every counter exactly as written
        // (fault counters included)
        let suite = vec![
            tiny(Algo::Trivial).build(),
            tiny(Algo::Bm21).build(),
            faulty(ProblemKind::Mis, Algo::Trivial).build(),
        ];
        let report = Runner::serial().run("t", &suite, 9).unwrap();
        assert!(report.scenarios[2].metrics.counters.faults_crashed > 0);
        let (rows, errors) = parse_progress(&report.canonical_json());
        assert_eq!(rows.len(), 3);
        assert!(errors.is_empty(), "clean ledger: {errors:?}");
        for (row, written) in rows.iter().zip(&report.scenarios) {
            assert_eq!(
                row.metrics.counters, written.metrics.counters,
                "{}",
                row.name
            );
        }
        // tear one row mid-write: drop a required field from row 1
        let torn = report
            .canonical_json()
            .replacen("\"max_awake\"", "\"mangled\"", 2)
            .replacen("\"mangled\"", "\"max_awake\"", 1);
        let (rows, errors) = parse_progress(&torn);
        assert_eq!(rows.len(), 2, "the intact rows survive");
        assert_eq!(rows[0].name, suite[0].name);
        assert_eq!(rows[1].name, suite[2].name);
        assert_eq!(errors, vec![ProgressError::TornRow(1)]);
        // a foreign document is a typed whole-ledger miss
        let (rows, errors) = parse_progress("{\"schema\": \"other/v1\"}");
        assert!(rows.is_empty());
        assert_eq!(errors, vec![ProgressError::Document]);
        // run_recoverable on the torn ledger reloads row 0, re-runs row 1,
        // and converges to the same canonical report
        let dir = scratch_dir("torn");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("progress.json"), &torn).unwrap();
        let recovered = Runner::serial()
            .run_recoverable("t", &suite, 9, &dir, None)
            .unwrap();
        assert_eq!(report.canonical_json(), recovered.canonical_json());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("awake-lab-runner-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A mixed suite covering every recoverable-run path: snapshot-capable
    /// vertex executors (serial + threaded, one fault-injected), an edge
    /// scenario (re-runs deterministically), and a staged pipeline.
    fn mixed_suite() -> Vec<Scenario> {
        vec![
            tiny(Algo::Trivial).build(),
            tiny(Algo::Trivial).on(2).build(),
            faulty(ProblemKind::Mis, Algo::Trivial).build(),
            tiny_edge(ProblemKind::Matching, Algo::Trivial).build(),
            tiny(Algo::Bm21).build(),
        ]
    }

    #[test]
    fn recoverable_run_matches_the_plain_run_byte_for_byte() {
        let dir = scratch_dir("fresh");
        let suite = mixed_suite();
        let plain = Runner::serial().run("t", &suite, 9).unwrap();
        let recoverable = Runner::serial()
            .run_recoverable("t", &suite, 9, &dir, NonZeroU64::new(2))
            .unwrap();
        assert_eq!(plain.canonical_json(), recoverable.canonical_json());
        assert!(dir.join("progress.json").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_consumes_progress_rows_and_mid_run_snapshots() {
        let dir = scratch_dir("resume");
        let suite = mixed_suite();
        let plain = Runner::serial().run("t", &suite, 9).unwrap();
        // checkpointed first pass: leaves progress.json and .ckpt files
        Runner::serial()
            .run_recoverable("t", &suite, 9, &dir, NonZeroU64::new(2))
            .unwrap();
        let ckpts: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".ckpt"))
            .collect();
        assert!(!ckpts.is_empty(), "no snapshot files were written");
        // resume with complete progress: every row reloads, nothing re-runs
        let resumed = Runner::serial()
            .run_recoverable("t", &suite, 9, &dir, None)
            .unwrap();
        assert_eq!(plain.canonical_json(), resumed.canonical_json());
        // drop the progress ledger but keep the snapshots: scenarios
        // restore from their mid-run state and finish to the same report
        std::fs::remove_file(dir.join("progress.json")).unwrap();
        // a torn temp file from a simulated kill must be invisible
        std::fs::write(dir.join("progress.json.tmp"), b"{\"torn\":").unwrap();
        let restored = Runner::serial()
            .run_recoverable("t", &suite, 9, &dir, None)
            .unwrap();
        assert_eq!(plain.canonical_json(), restored.canonical_json());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn garbage_progress_is_ignored_and_garbage_snapshots_are_reported() {
        let dir = scratch_dir("garbage");
        std::fs::create_dir_all(&dir).unwrap();
        let suite = vec![tiny(Algo::Trivial).build()];
        // unparseable progress: treated as "nothing done yet"
        std::fs::write(dir.join("progress.json"), b"not json at all").unwrap();
        let plain = Runner::serial().run("t", &suite, 9).unwrap();
        let r = Runner::serial()
            .run_recoverable("t", &suite, 9, &dir, None)
            .unwrap();
        assert_eq!(plain.canonical_json(), r.canonical_json());
        // a corrupt snapshot file is a hard, named error — silently
        // restarting would hide data loss
        std::fs::remove_file(dir.join("progress.json")).unwrap();
        std::fs::write(dir.join(ckpt_file_name(&suite[0].name)), b"BADSNAP!").unwrap();
        let e = Runner::serial()
            .run_recoverable("t", &suite, 9, &dir, None)
            .unwrap_err();
        assert!(matches!(e.error, RunError::Checkpoint(_)), "got {e}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
