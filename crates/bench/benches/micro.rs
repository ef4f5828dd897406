//! Micro-benchmarks of the round engine: serial and worker-pool flood
//! throughput, the worker-count sweep with its per-phase attribution, and
//! the line-graph adapter.
//!
//! Run with `cargo bench --bench micro`. Emits `BENCH_engine.json`
//! (override the path with `BENCH_OUT`) through the shared
//! `awake_lab::report::{PerfStats, BenchReport}` schema: ns per awake
//! node-round, node-rounds/sec, messages/sec and heap allocations per
//! node-round. It then checks the within-run floors
//! (`ThreadedScaling::floor_failures`: one worker at ≥ 0.9× serial on
//! any runner, four workers at ≥ 1.5× serial on 4 or more cores) and
//! exits non-zero if one is missed. Code speed across commits is measured
//! by the `ab` binary's paired runs of the benchmark, and the allocation
//! rates are capped by `tests/alloc_regression.rs`.

use awake_core::linegraph;
use awake_graphs::{generators, Graph};
use awake_lab::report::{
    BenchReport, EdgeProblemsBench, PerfStats, PhaseTimesBench, ScalingRow, ThreadedScaling,
};
use awake_olocal::edge::{solve_edges_sequentially, EdgeColoring, EdgeIndex, MaximalMatching};
use awake_olocal::EdgeProblem;
use awake_sleeping::{
    threaded, Action, Config, Engine, Envelope, Outbox, PhaseTimes, Program, Run, RunSpec, View,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counts heap allocations so the zero-allocation steady state is a
/// measured number, not a claim.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// A flood program: every node broadcasts its best-known ident for `t`
/// rounds — a dense all-awake workload for engine throughput.
struct Flood {
    best: u64,
    t: u64,
}

impl Program for Flood {
    type Msg = u64;
    type Output = u64;
    fn send(&mut self, _: &View, out: &mut Outbox<u64>) {
        out.broadcast(self.best);
    }
    fn receive(&mut self, view: &View, inbox: &[Envelope<u64>]) -> Action {
        self.best = self.best.max(view.ident);
        for e in inbox {
            self.best = self.best.max(e.msg);
        }
        if view.round >= self.t {
            Action::Halt
        } else {
            Action::Stay
        }
    }
    fn output(&self) -> Option<u64> {
        Some(self.best)
    }
}

awake_sleeping::persist!(Flood { best });

/// Run `programs` to completion on the `workers`-worker pool.
fn pool_run(g: &Graph, programs: Vec<Flood>, workers: usize) -> Run<u64> {
    let engine = Engine::new(g, Config::default());
    engine
        .run_spec(programs, &RunSpec::on(workers))
        .unwrap()
        .finished()
}

/// Best-of-`iters` wall time of `run` on fresh programs from `mk`, with
/// the allocations of the last timed run, and that run. Building the
/// programs is neither timed nor counted, so the window is the engine.
fn best_of<P: Program>(
    iters: usize,
    mk: impl Fn() -> Vec<P>,
    run: impl Fn(Vec<P>) -> Run<P::Output>,
) -> (PerfStats, Run<P::Output>) {
    let mut best_ns = f64::INFINITY;
    let mut last = None;
    for _ in 0..iters {
        let progs = mk();
        let a0 = alloc_count();
        let t0 = Instant::now();
        let r = run(progs);
        let ns = t0.elapsed().as_nanos() as f64;
        let allocs = alloc_count() - a0;
        black_box(&r.outputs);
        best_ns = best_ns.min(ns);
        last = Some((allocs, r));
    }
    let (allocations, run) = last.expect("iters > 0");
    let stats = PerfStats {
        node_rounds: run.metrics.total_awake(),
        messages: run.metrics.messages_sent,
        allocations,
        wall_ns: best_ns,
    };
    (stats, run)
}

/// `n` flood programs that halt after round `t`.
fn floods(n: usize, t: u64) -> Vec<Flood> {
    (0..n).map(|_| Flood { best: 0, t }).collect()
}

const N: usize = 8192;
const DEG: usize = 8;
const ROUNDS: u64 = 150;
const ITERS: usize = 5;

/// Delivery-pipeline scale for the worker sweep: a sparse `G(n, p)` at the
/// size regime the owner-sharded pipeline exists for.
const SCALE_N: usize = 65_536;
const SCALE_DEG: usize = 8;
const SCALE_ROUNDS: u64 = 25;
const SCALE_ITERS: usize = 3;
/// Interleaved serial / 1-worker pairs behind `w1_vs_serial`, each run
/// `W1_ROUNDS` rounds of the scaling workload.
const W1_PAIRS: usize = 41;
const W1_ROUNDS: u64 = 5;

/// The dense flood workload at n = 65 536 on the serial engine and the
/// worker-pool executor at 1/2/4/8 workers — the `threaded_scaling`
/// section of `BENCH_engine.json` — plus the per-phase wall-time
/// attribution of the 4-worker pipeline (the `phase_times` section).
fn bench_threaded_scaling() -> (ThreadedScaling, PhaseTimesBench) {
    let p = SCALE_DEG as f64 / (SCALE_N - 1) as f64;
    let g = generators::gnp_sparse(SCALE_N, p, 7);
    let mk = || floods(SCALE_N, SCALE_ROUNDS);
    let measure = |run: &dyn Fn(Vec<Flood>) -> Run<u64>| best_of(SCALE_ITERS, mk, run).0;

    let serial = measure(&|progs| Engine::new(&g, Config::default()).run(progs).unwrap());
    let rows: Vec<ScalingRow> = [1usize, 2, 4, 8]
        .into_iter()
        .map(|workers| ScalingRow {
            workers,
            stats: measure(&|progs| pool_run(&g, progs, workers)),
        })
        .collect();

    // Serial and one worker run the same driver, so the quotient of their
    // best-of rows is mostly this machine's run-to-run noise (tens of
    // percent per run on a shared host). The floored ratio comes from many
    // short runs in interleaved pairs instead, alternating which side goes
    // first: the median of the per-pair throughput ratios. The serial side
    // is `Engine::run`, the one-worker side `run_spec`.
    let serial_run = |progs| Engine::new(&g, Config::default()).run(progs).unwrap();
    let w1_run = |progs| pool_run(&g, progs, 1);
    let wall_ns = |run: &dyn Fn(Vec<Flood>) -> Run<u64>| {
        let progs = floods(SCALE_N, W1_ROUNDS);
        let t0 = Instant::now();
        let run = run(progs);
        let ns = t0.elapsed().as_nanos() as f64;
        black_box(&run.outputs);
        ns
    };
    let mut ratios: Vec<f64> = (0..W1_PAIRS)
        .map(|i| {
            // Same node-rounds on both sides: throughput ratio = time ratio.
            if i % 2 == 0 {
                let s = wall_ns(&serial_run);
                s / wall_ns(&w1_run)
            } else {
                let w = wall_ns(&w1_run);
                wall_ns(&serial_run) / w
            }
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let w1_vs_serial = ratios[W1_PAIRS / 2];

    // Per-phase attribution of the 4-worker pipeline, accumulated over
    // the same number of iterations. The probe reads the clock only on
    // the coordinator between stages, so the timed run is bit-for-bit the
    // plain threaded run — asserted below along with the serial engine.
    let mut phases = PhaseTimes::default();
    let mut timed = None;
    for _ in 0..SCALE_ITERS {
        timed = Some(
            threaded::run_threaded_timed(&g, mk(), Config::default(), 4, &mut phases).unwrap(),
        );
    }
    let timed = timed.expect("SCALE_ITERS > 0");

    // The sweep is only meaningful if the pipeline computes the serial
    // answer — assert full bit-for-bit agreement once at this scale.
    let s = Engine::new(&g, Config::default()).run(mk()).unwrap();
    let t = pool_run(&g, mk(), 4);
    assert_eq!(s.outputs, t.outputs, "scaling bench executors must agree");
    assert_eq!(s.metrics, t.metrics, "scaling bench metrics must agree");
    assert_eq!(s.outputs, timed.outputs, "timed executor must agree");
    assert_eq!(
        s.metrics, timed.metrics,
        "timed executor metrics must agree"
    );

    (
        ThreadedScaling {
            n: SCALE_N,
            degree: SCALE_DEG,
            rounds: SCALE_ROUNDS,
            serial,
            rows,
            w1_vs_serial: Some(w1_vs_serial),
        },
        PhaseTimesBench::from_phase_times(4, &phases),
    )
}

/// Edge-problem workload: a near-regular host graph at a size where the
/// line-graph adapter simulates ~`EDGE_N * EDGE_DEG / 2` virtual nodes.
const EDGE_N: usize = 2048;
const EDGE_DEG: usize = 8;
const EDGE_ITERS: usize = 3;

/// The `edge_problems` section: maximal matching and (2Δ−1)-edge coloring
/// through the line-graph virtualization adapter on the serial engine.
///
/// The counted window is the engine run only — host construction is
/// one-time setup, excluded so `allocations` reports the adapter's
/// *steady-state* rate (the number `tests/alloc_regression.rs` caps; the
/// whole-solve rate was 3.7–3.9 before the shared-`Arc` + pooled-scratch
/// rework).
fn bench_edge_problems() -> EdgeProblemsBench {
    let g = generators::random_regular(EDGE_N, EDGE_DEG, 2);
    let idx = EdgeIndex::new(&g);
    let inputs = vec![(); idx.m()];

    fn measure<P>(
        g: &Graph,
        idx: &EdgeIndex,
        problem: &P,
        inputs: &[P::Input],
    ) -> (PerfStats, Vec<P::Output>)
    where
        P: EdgeProblem + Clone,
    {
        let (stats, run) = best_of(
            EDGE_ITERS,
            || linegraph::greedy_hosts(g, idx, problem, inputs),
            |programs| Engine::new(g, Config::default()).run(programs).unwrap(),
        );
        // Flatten per-node owned outputs back to canonical edge order
        // (what `linegraph::solve_edges` does), outside the window.
        let mut flat: Vec<Option<P::Output>> = vec![None; idx.m()];
        for owned in &run.outputs {
            for (label, out) in owned {
                flat[idx.index_of_label(*label)] = Some(out.clone());
            }
        }
        let outputs = flat
            .into_iter()
            .map(|o| o.expect("every edge has exactly one owner"))
            .collect();
        (stats, outputs)
    }

    let (matching, matched) = measure(&g, &idx, &MaximalMatching, &inputs);
    let (edge_coloring, colors) = measure(&g, &idx, &EdgeColoring, &inputs);

    // The numbers are only meaningful if the adapter computes the
    // sequential greedy's answer and the validators accept it — the runs
    // are deterministic, so the measured outputs are any run's outputs.
    assert_eq!(
        matched,
        solve_edges_sequentially(&MaximalMatching, &g, &idx, &inputs),
        "adapter must match the sequential reference"
    );
    MaximalMatching.validate(&g, &inputs, &matched).unwrap();
    EdgeColoring.validate(&g, &inputs, &colors).unwrap();

    EdgeProblemsBench {
        n: g.n(),
        m: idx.m(),
        matching,
        edge_coloring,
    }
}

fn main() {
    let g = generators::random_regular(N, DEG, 1);
    println!("engine/flood: n = {N}, degree ≈ {DEG}, {ROUNDS} rounds, best of {ITERS}\n");

    let flood = || floods(N, ROUNDS);
    let engine = best_of(ITERS, flood, |progs| {
        Engine::new(&g, Config::default()).run(progs).unwrap()
    })
    .0;
    let thr = best_of(ITERS, flood, |progs| pool_run(&g, progs, 4)).0;
    let (scaling, phase_times) = bench_threaded_scaling();
    let edge_problems = bench_edge_problems();
    let report = BenchReport {
        bench: "engine/flood".into(),
        n: N,
        degree: DEG,
        rounds: ROUNDS,
        cores: std::thread::available_parallelism()
            .map(|c| c.get())
            .unwrap_or(0),
        engine,
        threaded_4_workers: thr,
        threaded_scaling: scaling,
        phase_times,
        edge_problems,
    };
    println!(
        "engine  (serial)   {:>9.1} ns/node-round  {:>12.0} node-rounds/s  {:>7} allocs ({:.4}/node-round)",
        engine.ns_per_node_round(),
        engine.node_rounds_per_sec(),
        engine.allocations,
        engine.allocations_per_node_round()
    );
    println!(
        "engine  (4 workers){:>9.1} ns/node-round  {:>12.0} node-rounds/s  {:>7} allocs\n",
        thr.ns_per_node_round(),
        thr.node_rounds_per_sec(),
        thr.allocations
    );

    let sc = &report.threaded_scaling;
    println!(
        "threaded_scaling: n = {}, degree ≈ {}, {} rounds, best of {SCALE_ITERS}",
        sc.n, sc.degree, sc.rounds
    );
    println!(
        "  serial           {:>9.1} ns/node-round  {:>12.0} node-rounds/s",
        sc.serial.ns_per_node_round(),
        sc.serial.node_rounds_per_sec()
    );
    for row in &sc.rows {
        println!(
            "  {} workers        {:>9.1} ns/node-round  {:>12.0} node-rounds/s  ({:.4} allocs/node-round)",
            row.workers,
            row.stats.ns_per_node_round(),
            row.stats.node_rounds_per_sec(),
            row.stats.allocations_per_node_round()
        );
    }
    if let Some(r) = sc.w1_vs_serial {
        println!(
            "  1 worker vs serial: {r:.2}x (median of {W1_PAIRS} interleaved pairs, {W1_ROUNDS} rounds each)"
        );
    }
    if let Some(r) = sc.w4_vs_serial() {
        println!("  4-worker pipeline vs serial: {r:.2}x\n");
    }

    let pt = &report.phase_times;
    println!(
        "phase_times ({} workers, {} dispatched + {} inline rounds/run-set):",
        pt.workers, pt.dispatched_rounds, pt.inline_rounds
    );
    println!(
        "  partition {:>10.0} ns/round   route {:>10.0}   deliver {:>10.0}   merge {:>10.0}   inline {:>10.0}\n",
        pt.partition_ns_per_round,
        pt.route_ns_per_round,
        pt.deliver_ns_per_round,
        pt.merge_ns_per_round,
        pt.inline_ns_per_round
    );

    let ep = &report.edge_problems;
    println!(
        "edge_problems (line-graph adapter): n = {}, m = {}, best of {EDGE_ITERS}",
        ep.n, ep.m
    );
    println!(
        "  matching         {:>9.1} ns/node-round  {:>12.0} node-rounds/s  ({:.4} allocs/node-round)",
        ep.matching.ns_per_node_round(),
        ep.matching.node_rounds_per_sec(),
        ep.matching.allocations_per_node_round()
    );
    println!(
        "  edge coloring    {:>9.1} ns/node-round  {:>12.0} node-rounds/s  ({:.4} allocs/node-round)\n",
        ep.edge_coloring.ns_per_node_round(),
        ep.edge_coloring.node_rounds_per_sec(),
        ep.edge_coloring.allocations_per_node_round()
    );

    // cargo runs benches with CWD = the package dir; anchor the report at
    // the workspace root so its path is stable across invocation styles.
    // Atomic write: a killed bench must not leave a torn JSON document
    // under the committed report's name.
    let out = std::env::var("BENCH_OUT")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json").into());
    awake_lab::fsio::write_atomic(std::path::Path::new(&out), report.to_json().as_bytes())
        .expect("write bench report");
    println!("wrote {out}");

    let missed = sc.floor_failures(report.cores);
    for m in &missed {
        eprintln!("micro: floor missed: {m}");
    }
    if !missed.is_empty() {
        std::process::exit(1);
    }
}
