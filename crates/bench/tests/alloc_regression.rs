//! Allocation-count regression tests for the line-graph edge adapter and
//! the Lemma 7 virtual-graph simulator.
//!
//! PRs 1–9 drove the engine's vertex hot path to a zero-allocation steady
//! state; the edge adapter used to undo that by cloning the problem and
//! the full input vector into every replica and by re-allocating merge /
//! scratch buffers each virtual round — 3.7–3.9 heap allocations per
//! awake node-round at the bench workload. With the shared-`Arc` greedy
//! state and pooled host scratch the engine run's rate is 0.0605, capped
//! here at 0.0625: a new per-round or per-replica allocation on the
//! adapter path shows up as ≈ +1.0 and fails loudly, while one-time setup
//! (graph, index, hosts) is excluded from the counted window.
//!
//! The Lemma 7 stack (`VirtSim` running Lemma 15, and Lemma 11 on `H`)
//! used to deep-copy the gathered cluster input and every virtual message
//! into each replica: 21.1 and 11.6 allocations per awake event on sparse
//! random graphs. Sharing both behind `Arc`s brought them to 5.6 and 5.2;
//! carrying cheap-clone messages inline, building Lemma 11's sent state
//! once and searching Lemma 15's clusters without an arc vector bring them
//! to 4.4 and 1.6. The root-overlay `ClusterGather` stage that Theorem 9
//! runs before Lemma 11 went from 13.9 to 10.0 once bags became shared and
//! the output view is built once. Each cap here is the measured rate plus
//! at most 25%, so a copy creeping back in fails it.
//!
//! In the paper's regime (Δ > b, here `random_regular(64, 16)`) clusters
//! merge and grow, and a per-member copy of the cluster costs |C|² per
//! cluster. There Lemma 14 read 14.1 allocations per awake event while
//! every replica rebuilt the merged cluster's BFS, and the root-overlay
//! gather read 46.9 while every member deep-copied every member record.
//! With the BFS memoized on the shared record set and one `Arc` per member
//! record they read 6.8 and 10.6; the sparse rates above did not move.
//! Lemma 11 on `H` read 2.06 there while every replica ran the cluster's
//! sequential greedy and kept its own map of every member's output. With
//! one decision per cluster, stored on the root's shared record and read
//! by every replica whose inputs are the same allocations, it reads 1.19.
//!
//! Replicas used to copy each phase's merged bag into an inbox of their
//! own, Lemma 15 rebuilt maps from inboxes that arrive sorted, and a
//! single-member cluster stored a Theorem 9 decision no other replica
//! could share. With replicas reading the bag in place, sorted vectors
//! for Lemma 15's tables and no memo for single-member clusters, the
//! sparse rates went from 4.47 and 1.68 to 4.40 and 1.44, and the dense
//! rates from 6.66 (Lemma 14) and 1.00 (Lemma 11 on `H`) to 6.37 and 1.00;
//! the caps were lowered to match.
//!
//! `Metrics` used to keep one n-long awake column per phase label beside
//! the per-node awake vector, and the worker pool staged each job's label.
//! Dropping them saves a few allocations per run, not per event: the
//! edge adapter's rate went from 0.06046 to 0.06042, the 4-worker flood's
//! whole run from 0.01492 to 0.01480, and the dense gather's from 7.871 to
//! 7.857. Every cap whose rate fell is now at most its rate plus 25%, or
//! plus 0.002 for the node-round rates; the dense gather cap, left at 13
//! while its rate fell from 10.6, is 9.8.
//!
//! Every member of a Lemma 15 `F₂` tree used to run its own BFS over the
//! tree's gathered adjacency, and every convergecast merge deep-copied
//! the adjacency lists of the subtrees below it. With one depth table per
//! tree, memoized on the edge set the broadcast shares, and each list
//! behind an `Arc`, the sparse Lemma 15 rate went from 4.49 to 3.80 and
//! its cap from 5.3 to 4.7.
//!
//! A one-member cluster used to pay for placeholders: six empty `Arc`s in
//! every Lemma 15 vertex, a per-vertex Linial schedule, a label vector to
//! count its degree in `H`, and a second bag for the gather's first
//! record. With those gone (the schedule shared by the stage, as Theorem
//! 13 builds it) and the gather's first lists allocated at their final
//! length, the sparse rates went from 3.80 (Lemma 15), 10.00 (gather) and
//! 1.44 (Lemma 11 on `H`) to 2.95, 8.28 and 1.34, and the dense ones from
//! 6.36 (Lemma 14), 7.86 (gather) and 1.00 (Lemma 11 on `H`) to 5.52, 6.43
//! and 0.89. Their caps are the new rates plus at most 25%.
//!
//! The round engine recycles every buffer it uses, so once the first
//! rounds have grown them a flood allocates nothing per node-round, run in
//! place at one worker or dispatched at four; the caps here catch a
//! per-round or per-node allocation creeping into either path, and a
//! whole run's setup growing past the rates `BENCH_engine.json` records.
//!
//! The counting allocator is test-local: integration tests are separate
//! binaries, so installing it here does not affect any other test.

use awake_core::clustering::Clustering;
use awake_core::gather::ClusterGather;
use awake_core::lemma14::{lemma14_vrounds, L14Payload, TreeGatherVertex};
use awake_core::lemma15::{Lemma15Config, Lemma15Stage, Lemma15Vertex};
use awake_core::linegraph::{self, EdgeGreedy, LineGraphHost};
use awake_core::params::Params;
use awake_core::theorem13;
use awake_core::theorem9::Lemma11Vertex;
use awake_core::virt::{virt_rounds, VertexInput, VirtSim};
use awake_graphs::{generators, Graph};
use awake_olocal::edge::{EdgeColoring, EdgeIndex, EdgeProblem, MaximalMatching};
use awake_olocal::problems::MaximalIndependentSet;
use awake_sleeping::{
    threaded, Action, Config, Engine, Envelope, Outbox, PhaseTimes, Program, View,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

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

/// The counter is process-wide, so the tests take turns: each holds this
/// lock while it counts.
static COUNTING: Mutex<()> = Mutex::new(());

fn counting_alone() -> MutexGuard<'static, ()> {
    COUNTING.lock().unwrap_or_else(|e| e.into_inner())
}

/// Steady-state allocations per awake node-round for `problem` on `g`:
/// hosts are built *outside* the counted window (per-replica construction
/// is setup, not steady state), the engine run is counted.
fn engine_allocs_per_node_round<P>(g: &Graph, problem: &P, inputs: &[P::Input]) -> f64
where
    P: EdgeProblem + Clone,
{
    let idx = EdgeIndex::new(g);
    let programs: Vec<LineGraphHost<EdgeGreedy<P>>> =
        linegraph::greedy_hosts(g, &idx, problem, inputs);
    let a0 = alloc_count();
    let run = Engine::new(g, Config::default()).run(programs).unwrap();
    let allocs = alloc_count() - a0;
    println!(
        "  run window: {} allocs / {} node-rounds",
        allocs,
        run.metrics.total_awake()
    );
    allocs as f64 / run.metrics.total_awake() as f64
}

#[test]
fn edge_adapter_steady_state_stays_allocation_free() {
    let _alone = counting_alone();
    let g = generators::random_regular(2048, 8, 2);
    let idx = EdgeIndex::new(&g);
    let inputs = vec![(); idx.m()];

    let matching = engine_allocs_per_node_round(&g, &MaximalMatching, &inputs);
    let coloring = engine_allocs_per_node_round(&g, &EdgeColoring, &inputs);
    println!("edge adapter allocs/node-round: matching {matching:.4}, coloring {coloring:.4}");
    // Measured: 0.0604 for both (the workload of `BENCH_engine.json`'s
    // `edge_problems` section); the cap is that + 0.002.
    assert!(
        matching <= 0.0624,
        "matching adapter steady state regressed: {matching:.4} allocs/node-round (cap 0.0624)"
    );
    assert!(
        coloring <= 0.0624,
        "edge-coloring adapter steady state regressed: {coloring:.4} allocs/node-round (cap 0.0624)"
    );
}

/// Allocations per awake event of one engine run over `programs`, and the
/// run's outputs; only `Engine::run` is counted, building the programs is
/// not.
fn run_allocs_per_event<P: Program>(
    g: &Graph,
    config: Config,
    programs: Vec<P>,
) -> (f64, Vec<P::Output>) {
    let engine = Engine::new(g, config);
    let a0 = alloc_count();
    let run = engine.run(programs).unwrap();
    let allocs = alloc_count() - a0;
    println!(
        "  run window: {} allocs / {} awake events",
        allocs, run.metrics.awake_events
    );
    (allocs as f64 / run.metrics.awake_events as f64, run.outputs)
}

#[test]
fn virtualized_lemma15_and_lemma11_share_instead_of_copying() {
    let _alone = counting_alone();
    let n = 2048;
    let g = generators::gnp_sparse(n, 4.0 / (n - 1) as f64, 7);
    let params = Params::for_graph(&g);

    // Lemma 15 as Theorem 13's first iteration runs it: singleton clusters,
    // one Linial schedule for the stage.
    let cfg = Lemma15Config {
        b: params.b,
        label_bound: params.label_bound(1),
        ab2: params.ab2,
    };
    let db = params.depth_bound;
    let stage = Lemma15Stage::from(cfg);
    let factory = |vi: &VertexInput<()>| Lemma15Vertex::new(stage.clone(), vi);
    let singletons = Clustering::singletons(&g);
    let programs: Vec<_> = g
        .nodes()
        .map(|v| {
            let a = singletons.assign[v.index()].unwrap();
            VirtSim::participant(a.label, a.depth, g.ident(v), (), db, factory)
        })
        .collect();
    let config = Config::with_max_rounds(virt_rounds(db, cfg.vrounds() + 2) + 2);
    let (lemma15, _) = run_allocs_per_event(&g, config, programs);

    // Lemma 11 on H as Theorem 9 runs it, over Theorem 13's clustering.
    let clustering = theorem13::compute(&g, &params).unwrap().clustering;
    let db = g.n() as u32;
    let gather: Vec<ClusterGather<()>> = g
        .nodes()
        .map(|v| {
            let a = clustering.assign[v.index()].unwrap();
            ClusterGather::participant(a.label, a.depth, g.ident(v), (), db)
        })
        .collect();
    let (gather, views) = run_allocs_per_event(&g, Config::default(), gather);
    let c_bound = params.color_bound();
    let factory =
        move |vi: &VertexInput<(u64, ())>| Lemma11Vertex::new(MaximalIndependentSet, vi, c_bound);
    let programs: Vec<_> = g
        .nodes()
        .map(|v| {
            let a = clustering.assign[v.index()].unwrap();
            let root = views[v.index()].as_ref().unwrap().root_ident();
            VirtSim::participant(root, a.depth, g.ident(v), (a.label, ()), db, factory)
        })
        .collect();
    let (lemma11, _) = run_allocs_per_event(&g, Config::default(), programs);

    println!(
        "allocs/awake event: lemma15 {lemma15:.3}, root-overlay gather {gather:.3}, \
         lemma11 on H {lemma11:.3}"
    );
    assert!(
        lemma15 <= 3.6,
        "VirtSim<Lemma15Vertex> regressed: {lemma15:.3} allocs/awake event (cap 3.6)"
    );
    assert!(
        gather <= 10.3,
        "ClusterGather regressed: {gather:.3} allocs/awake event (cap 10.3)"
    );
    assert!(
        lemma11 <= 1.67,
        "VirtSim<Lemma11Vertex> regressed: {lemma11:.3} allocs/awake event (cap 1.67)"
    );
}

#[test]
fn dense_regime_lemma14_and_gather_share_instead_of_copying() {
    let _alone = counting_alone();
    // The paper's regime, Δ > b: Lemma 15 leaves survivors, Lemma 14
    // merges them, and the final clusters are large.
    let g = generators::random_regular(64, 16, 1);
    let params = Params::for_graph(&g);
    let db = params.depth_bound;
    let singletons = Clustering::singletons(&g);

    // Lemma 15 as Theorem 13's first iteration runs it (not counted).
    let cfg = Lemma15Config {
        b: params.b,
        label_bound: params.label_bound(1),
        ab2: params.ab2,
    };
    let factory = move |vi: &VertexInput<()>| Lemma15Vertex::new(cfg, vi);
    let programs: Vec<_> = g
        .nodes()
        .map(|v| {
            let a = singletons.assign[v.index()].unwrap();
            VirtSim::participant(a.label, a.depth, g.ident(v), (), db, factory)
        })
        .collect();
    let config = Config::with_max_rounds(virt_rounds(db, cfg.vrounds() + 2) + 2);
    let out15 = Engine::new(&g, config).run(programs).unwrap().outputs;

    // Lemma 14 on its survivors.
    let factory = move |vi: &VertexInput<L14Payload>| TreeGatherVertex::new(vi, db);
    let programs: Vec<_> = g
        .nodes()
        .map(
            |v| match (singletons.assign[v.index()], &out15[v.index()]) {
                (Some(a), Some(o)) if !o.in_u => VirtSim::participant(
                    a.label,
                    a.depth,
                    g.ident(v),
                    (o.gamma, o.delta),
                    db,
                    factory,
                ),
                _ => VirtSim::bystander(factory),
            },
        )
        .collect();
    let config = Config::with_max_rounds(virt_rounds(db, lemma14_vrounds(db) + 2) + 2);
    let (lemma14, outs) = run_allocs_per_event(&g, config, programs);
    assert!(
        outs.iter().flatten().any(|o| o.depths.len() > 1),
        "Lemma 14 merges clusters"
    );

    // The root-overlay gather Theorem 9 runs over Theorem 13's clustering.
    let clustering = theorem13::compute(&g, &params).unwrap().clustering;
    let db = g.n() as u32;
    let gather: Vec<ClusterGather<()>> = g
        .nodes()
        .map(|v| {
            let a = clustering.assign[v.index()].unwrap();
            ClusterGather::participant(a.label, a.depth, g.ident(v), (), db)
        })
        .collect();
    let (gather, views) = run_allocs_per_event(&g, Config::default(), gather);
    let largest = views.iter().flatten().map(|v| v.members.len()).max();
    assert!(
        largest > Some(1),
        "the final clustering has a multi-member cluster"
    );

    // Lemma 11 on H over the root overlay, as Theorem 9 runs it.
    let c_bound = params.color_bound();
    let factory =
        move |vi: &VertexInput<(u64, ())>| Lemma11Vertex::new(MaximalIndependentSet, vi, c_bound);
    let programs: Vec<_> = g
        .nodes()
        .map(|v| {
            let a = clustering.assign[v.index()].unwrap();
            let root = views[v.index()].as_ref().unwrap().root_ident();
            VirtSim::participant(root, a.depth, g.ident(v), (a.label, ()), db, factory)
        })
        .collect();
    let (lemma11, _) = run_allocs_per_event(&g, Config::default(), programs);

    println!(
        "dense allocs/awake event: lemma14 {lemma14:.3}, root-overlay gather {gather:.3}, \
         lemma11 on H {lemma11:.3}"
    );
    assert!(
        lemma14 <= 6.89,
        "VirtSim<TreeGatherVertex> regressed: {lemma14:.3} allocs/awake event (cap 6.89)"
    );
    assert!(
        gather <= 8.0,
        "dense ClusterGather regressed: {gather:.3} allocs/awake event (cap 8.0)"
    );
    assert!(
        lemma11 <= 1.11,
        "dense VirtSim<Lemma11Vertex> regressed: {lemma11:.3} allocs/awake event (cap 1.11)"
    );
}

/// Floods the largest ident seen for `rounds` rounds, then halts: every
/// node is awake in every round.
struct Flood {
    best: u64,
    rounds: u64,
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
        if view.round >= self.rounds {
            Action::Halt
        } else {
            Action::Stay
        }
    }
    fn output(&self) -> Option<u64> {
        Some(self.best)
    }
}

/// Allocations of a `rounds`-round flood on `g` at `workers` workers, and
/// its awake node-rounds. Building the programs is not counted; at one
/// worker every round must run in place, at more every round dispatched.
fn pool_flood_allocs(g: &Graph, workers: usize, rounds: u64) -> (u64, u64) {
    let programs: Vec<Flood> = (0..g.n()).map(|_| Flood { best: 0, rounds }).collect();
    let mut phases = PhaseTimes::default();
    let a0 = alloc_count();
    let run =
        threaded::run_threaded_timed(g, programs, Config::default(), workers, &mut phases).unwrap();
    let allocs = alloc_count() - a0;
    let (ran, how) = match workers {
        1 => (phases.inline_rounds, "in place"),
        _ => (phases.dispatched_rounds, "dispatched"),
    };
    assert_eq!(ran, rounds, "every flood round runs {how}");
    (allocs, run.metrics.total_awake())
}

#[test]
fn dispatched_rounds_stay_allocation_free() {
    let _alone = counting_alone();
    let g = generators::random_regular(2048, 8, 3);
    // One worker is the serial engine's in-place path; four dispatch. The
    // whole-run caps are `BENCH_engine.json`'s 150-round flood rates (serial
    // 0.0134, 4 workers 0.0139 allocations per node-round) + 0.002, the
    // 4-worker one less the 0.0001 its run lost with the per-label awake
    // columns.
    for (workers, whole_cap) in [(1, 0.0154), (4, 0.0158)] {
        // A short and a long run pay the same setup (the pool, its threads,
        // the first rounds' buffer growth); their difference is the steady
        // state.
        let (short, short_rounds) = pool_flood_allocs(&g, workers, 10);
        let (long, long_rounds) = pool_flood_allocs(&g, workers, 150);
        println!("  runs: {short} allocs / {short_rounds} node-rounds, {long} / {long_rounds}");
        let rate = (long as f64 - short as f64) / (long_rounds - short_rounds) as f64;
        let whole = long as f64 / long_rounds as f64;
        println!(
            "{workers}-worker steady state: {rate:.5} allocs/node-round, whole run {whole:.4}"
        );
        // Measured: 0 (both runs allocate the same). One allocation per
        // round would read 1/2048 ≈ 0.0005 here.
        assert!(
            rate <= 0.0001,
            "{workers}-worker rounds regressed: {rate:.5} allocs/node-round (cap 0.0001)"
        );
        assert!(
            whole <= whole_cap,
            "{workers}-worker flood regressed: {whole:.4} allocs/node-round (cap {whole_cap})"
        );
    }
}
