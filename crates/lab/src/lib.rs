//! **awake-lab** — the scenario harness: declarative batch experiments
//! over the Sleeping-model stack.
//!
//! The paper's headline claim is a *trade-off surface* — awake complexity
//! vs. round complexity across problems, graph families, and solvers.
//! This crate turns one point of that surface into a value you can build,
//! run, batch, and diff:
//!
//! * [`scenario`] — a [`Scenario`](scenario::Scenario) names a
//!   (graph family × problem × algorithm × executor) tuple over the four
//!   vertex problems and the two edge problems (maximal matching,
//!   (2Δ−1)-edge coloring, via the line-graph adapter). Build one with
//!   [`Scenario::of`](scenario::Scenario::of), or take a curated suite
//!   from [`scenario::presets`] (`quick`, `full`, `algos`, `executors`,
//!   `huge`, `edges`).
//! * [`runner`] — a [`Runner`](runner::Runner) executes a suite serially
//!   or sharded across worker threads. Every scenario derives its RNG
//!   seed from the suite seed and its graph-family key, so results are
//!   deterministic, independent of shard count, and same-family rows
//!   share one graph instance.
//! * [`report`] — a [`Report`](report::Report) captures rounds, awake
//!   complexity, messages, wall time, and allocations per scenario, and
//!   renders as an aligned text table or JSON. The *canonical* JSON form
//!   is byte-stable at a fixed seed, and the committed goldens pin it for
//!   the `quick`, `edges`, `faults`, `soak`, `regime` and `scaling`
//!   presets (the last two carry the paper's numbers); the same module's
//!   [`PerfStats`](report::PerfStats)/[`BenchReport`](report::BenchReport)
//!   are the schema of `BENCH_engine.json`, so micro benches and suites
//!   share one format.
//! * [`json`] — the minimal std-only JSON reader and writer behind the
//!   recoverable run's progress ledger and the A/B tool (the `ab` binary
//!   of `awake-bench`, which judges code speed across commits by paired
//!   runs of the benchmark).
//!
//! # Defining and running a scenario
//!
//! ```
//! use awake_lab::runner::Runner;
//! use awake_lab::scenario::{Algo, GraphFamily, ProblemKind, Scenario};
//!
//! let scenario = Scenario::of(
//!     GraphFamily::RandomTree { n: 48 },
//!     ProblemKind::Mis,
//!     Algo::Theorem1,
//! )
//! .build();
//!
//! let report = Runner::serial().run("demo", &[scenario], 7).unwrap();
//! let row = &report.scenarios[0];
//! assert!(row.valid); // the MIS validator accepted the outputs
//! println!("{}", report.text_table());
//! println!("{}", report.canonical_json());
//! ```
//!
//! # Running a preset suite
//!
//! ```no_run
//! use awake_lab::{runner::Runner, scenario::presets};
//!
//! let suite = presets::by_name("quick").unwrap();
//! let report = Runner::sharded(4).run("quick", &suite, 1).unwrap();
//! std::fs::write("suite_report.json", report.to_json()).unwrap();
//! ```
//!
//! or from the command line:
//!
//! ```sh
//! cargo run --release -p awake-lab --bin suite -- --preset quick
//! cargo run --release -p awake-lab --bin suite -- --preset scaling --canonical \
//!     --out scaling.json && diff -u crates/lab/tests/golden_scaling.json scaling.json
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fsio;
pub mod json;
pub mod report;
pub mod runner;
pub mod scenario;
