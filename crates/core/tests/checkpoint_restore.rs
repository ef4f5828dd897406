//! End-to-end checkpoint/restore invariant over the real algorithms:
//! *run-to-round-r + snapshot + restore + run-to-end* must be bit-for-bit
//! identical to the uninterrupted run — outputs, `Metrics`, and trace —
//! for every pause round `r`, on the serial engine and on the threaded
//! executor at any worker count, with and without fault injection, for a
//! node problem and an edge problem (via the line-graph adapter).
//!
//! These are the acceptance tests of the snapshot format: the unit tests
//! in `awake-sleeping` exercise synthetic programs; here the persisted
//! state is the shipped solvers'.

use awake_core::clustering::{synthesize, Clustering};
use awake_core::gather::ClusterGather;
use awake_core::lemma11::ColorScheduled;
use awake_core::lemma14::{L14Payload, TreeGatherVertex};
use awake_core::lemma15::{Lemma15Config, Lemma15Out, Lemma15Vertex};
use awake_core::linegraph::greedy_hosts;
use awake_core::linial::{self, ColorReduction};
use awake_core::params::Params;
use awake_core::theorem9::Lemma11Vertex;
use awake_core::trivial::TrivialGreedy;
use awake_core::virt::{VertexInput, VirtSim};
use awake_graphs::{generators, Graph};
use awake_olocal::edge::{EdgeIndex, MaximalMatching};
use awake_olocal::problems::{DeltaPlusOneColoring, MaximalIndependentSet};
use awake_olocal::EdgeProblem;
use awake_sleeping::{
    Checkpoint, Codec, Config, Engine, FaultPlan, Paused, Persist, Program, Round, Run, RunSpec,
    Snapshot, TraceEvent, TraceMode,
};

/// Workers exercised on every resume (the acceptance matrix).
const WORKERS: [usize; 4] = [1, 2, 4, 8];

/// Tracing stays on so "bit-for-bit" covers the event log, not just
/// outputs and counters.
fn traced() -> Config {
    Config {
        trace: TraceMode::Capped(1 << 20),
        ..Config::default()
    }
}

fn assert_same_run<O: PartialEq + std::fmt::Debug>(full: &Run<O>, resumed: &Run<O>, what: &str) {
    assert_eq!(full.outputs, resumed.outputs, "{what}: outputs diverged");
    assert_eq!(full.metrics, resumed.metrics, "{what}: metrics diverged");
    assert_eq!(full.trace, resumed.trace, "{what}: trace diverged");
    assert_eq!(
        full.trace_dropped, resumed.trace_dropped,
        "{what}: trace_dropped diverged"
    );
}

/// The property driver: snapshot the run at *every* round boundary and
/// check each restore — serial and at every worker count — lands on the
/// uninterrupted run exactly. Also asserts the serial and threaded
/// snapshot images are byte-identical at each pause round.
fn check_every_round<P, F>(g: &Graph, make: F, plan: Option<FaultPlan>)
where
    P: Program + Persist + Send,
    P::Msg: Codec,
    P::Output: Codec + PartialEq + std::fmt::Debug,
    F: Fn() -> Vec<P>,
{
    check_pauses(g, make, plan, |full| (1..=full.metrics.rounds).collect());
}

/// [`check_every_round`] for runs whose schedule spans far more rounds
/// than it executes (the Lemma 7 simulator's phases are `2D + 6` rounds
/// long, mostly asleep): pause after every round in which some node was
/// awake.
fn check_every_executed_round<P, F>(g: &Graph, make: F)
where
    P: Program + Persist + Send,
    P::Msg: Codec,
    P::Output: Codec + PartialEq + std::fmt::Debug,
    F: Fn() -> Vec<P>,
{
    check_pauses(g, make, None, |full| {
        assert_eq!(full.trace_dropped, 0, "the trace lists every awake round");
        let mut rounds: Vec<Round> = full
            .trace
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Awake { round, .. } => Some(*round),
                _ => None,
            })
            .collect();
        rounds.dedup();
        rounds
    });
}

/// Pause after each of the rounds `pauses` picks from the uninterrupted
/// run, and check every resume (see [`check_every_round`]).
fn check_pauses<P, F>(
    g: &Graph,
    make: F,
    plan: Option<FaultPlan>,
    pauses: impl Fn(&Run<P::Output>) -> Vec<Round>,
) where
    P: Program + Persist + Send,
    P::Msg: Codec,
    P::Output: Codec + PartialEq + std::fmt::Debug,
    F: Fn() -> Vec<P>,
{
    let engine = Engine::new(g, traced());
    let serial = RunSpec::default().with_faults(plan);
    let full = engine.run_spec(make(), &serial).unwrap().finished();
    let mut paused_at_least_once = false;
    for r in pauses(&full) {
        let snap = match engine.run_spec(make(), &serial.pause_after(r)).unwrap() {
            Paused::Snapshot(s) => s,
            // pausing after the final scheduled round completes instead
            Paused::Done(run) => {
                assert_same_run(&full, &run, &format!("completed at pause bound {r}"));
                continue;
            }
        };
        paused_at_least_once = true;
        assert_eq!(snap.round(), r, "snapshot stamps its pause bound");
        let pool = RunSpec::on(3).with_faults(plan).pause_after(r);
        let threaded_snap = engine.run_spec(make(), &pool).unwrap().into_snapshot();
        assert_eq!(
            snap.as_bytes(),
            threaded_snap.as_bytes(),
            "serial and threaded snapshots differ at round {r}"
        );
        for workers in WORKERS {
            let resume = RunSpec::on(workers).with_faults(plan).resume_from(&snap);
            let resumed = engine.run_spec(make(), &resume).unwrap().finished();
            assert_same_run(
                &full,
                &resumed,
                &format!("resume from round {r} on {workers} workers"),
            );
        }
    }
    assert!(
        paused_at_least_once,
        "run finished in {} round(s) — too short to exercise a pause",
        full.metrics.rounds
    );
}

fn mis_programs(g: &Graph) -> Vec<TrivialGreedy<MaximalIndependentSet>> {
    g.nodes()
        .map(|_| TrivialGreedy::new(MaximalIndependentSet, ()))
        .collect()
}

#[test]
fn node_problem_snapshot_restore_is_bit_for_bit_at_every_round() {
    let g = generators::gnp(28, 0.15, 7);
    check_every_round(&g, || mis_programs(&g), None);
}

/// The fault plan of the fault-injected resume and digest runs.
fn fault_plan() -> FaultPlan {
    FaultPlan {
        drop_ppm: 60_000,
        dup_ppm: 40_000,
        delay_ppm: 40_000,
        crash_ppm: 25_000,
        delay_rounds: 2,
        ..FaultPlan::new(0xFA17)
    }
}

#[test]
fn fault_injected_run_snapshot_restore_is_bit_for_bit_at_every_round() {
    let g = generators::gnp(24, 0.18, 11);
    let plan = fault_plan();
    let make = || -> Vec<TrivialGreedy<DeltaPlusOneColoring>> {
        g.nodes()
            .map(|_| TrivialGreedy::new(DeltaPlusOneColoring, ()))
            .collect()
    };
    // the rates must actually fire, or this test silently degenerates to
    // the fault-free case
    let faulty = RunSpec::default().with_faults(Some(plan));
    let full = Engine::new(&g, traced())
        .run_spec(make(), &faulty)
        .unwrap()
        .finished();
    assert!(
        full.metrics.faults_dropped > 0
            && full.metrics.faults_duplicated > 0
            && full.metrics.faults_crashed > 0,
        "fault plan injected nothing: {:?}",
        full.metrics
    );
    check_every_round(&g, make, Some(plan));
}

#[test]
fn edge_problem_snapshot_restore_is_bit_for_bit_at_every_round() {
    let g = generators::gnp(16, 0.2, 5);
    let idx = EdgeIndex::new(&g);
    let inputs = MaximalMatching.trivial_inputs(&g);
    check_every_round(
        &g,
        || greedy_hosts(&g, &idx, &MaximalMatching, &inputs),
        None,
    );
}

/// A small graph with multi-member clusters for the Lemma 7 programs: the
/// colored clustering `synthesize` builds, and its uniquely-labeled
/// overlay (the labels `VirtSim` runs on).
fn clustered() -> (Graph, Clustering, Clustering) {
    let g = generators::gnp(14, 0.25, 3);
    let colored = synthesize(&g, 4, 5);
    let overlay = colored.root_ident_overlay(&g);
    overlay.validate_uniquely_labeled(&g).unwrap();
    assert!(
        overlay.members_by_label().values().any(|m| m.len() > 2),
        "a cluster with a member below depth 1"
    );
    (g, colored, overlay)
}

/// Lemma 15 on the vertices of `clustered()`'s overlay, with `b = 2` so
/// the small graph already has vertices of degree above `b`.
fn lemma15_programs(
    g: &Graph,
    cl: &Clustering,
) -> Vec<VirtSim<Lemma15Vertex, impl Fn(&VertexInput<()>) -> Lemma15Vertex + Copy>> {
    let params = Params::for_graph(g);
    let cfg = Lemma15Config {
        b: 2,
        label_bound: params.label_bound(1),
        ab2: params.ab2,
    };
    let factory = move |vi: &VertexInput<()>| Lemma15Vertex::new(cfg, vi);
    g.nodes()
        .map(|v| {
            let a = cl.assign[v.index()].unwrap();
            VirtSim::participant(a.label, a.depth, g.ident(v), (), 3, factory)
        })
        .collect()
}

#[test]
fn virtualized_lemma15_snapshot_restore_is_bit_for_bit_at_every_round() {
    let (g, _, cl) = clustered();
    check_every_executed_round(&g, || lemma15_programs(&g, &cl));
}

/// Bounds `δ'`, the depth of a vertex in its merged cluster of `H`:
/// `clustered()`'s `H` has fewer vertices than this.
const H_DEPTH_BOUND: u32 = 14;

fn tree_gather(vi: &VertexInput<L14Payload>) -> TreeGatherVertex {
    TreeGatherVertex::new(vi, H_DEPTH_BOUND)
}

type TreeGatherSim = VirtSim<TreeGatherVertex, fn(&VertexInput<L14Payload>) -> TreeGatherVertex>;

/// Lemma 14's inputs as Theorem 13 builds them: run Lemma 15 on
/// `clustered()`'s `H`, finalize the `U` vertices, and hand the survivors'
/// `(γ', δ')` to the tree gather. Returns the number of surviving nodes
/// with a program factory.
fn lemma14_case() -> (Graph, usize, impl Fn() -> Vec<TreeGatherSim>) {
    let (g, _, cl) = clustered();
    let out15: Vec<Option<Lemma15Out>> = Engine::new(&g, Config::default())
        .run(lemma15_programs(&g, &cl))
        .unwrap()
        .outputs;
    let survivors = out15
        .iter()
        .filter(|o| !o.as_ref().expect("every node participates").in_u)
        .count();
    let graph = g.clone();
    let make = move || -> Vec<TreeGatherSim> {
        let factory: fn(&VertexInput<L14Payload>) -> TreeGatherVertex = tree_gather;
        graph
            .nodes()
            .map(|v| match &out15[v.index()] {
                Some(o) if !o.in_u => {
                    let a = cl.assign[v.index()].unwrap();
                    let payload: L14Payload = (o.gamma, o.delta);
                    VirtSim::participant(a.label, a.depth, graph.ident(v), payload, 3, factory)
                }
                _ => VirtSim::bystander(factory),
            })
            .collect()
    };
    (g, survivors, make)
}

#[test]
fn virtualized_lemma14_snapshot_restore_is_bit_for_bit_at_every_round() {
    let (g, survivors, make) = lemma14_case();
    assert!(
        survivors > 0,
        "Lemma 15 finalized every vertex: no Lemma 14 run"
    );
    check_every_executed_round(&g, make);
}

#[test]
fn virtualized_lemma11_snapshot_restore_is_bit_for_bit_at_every_round() {
    // As Theorem 9 runs it: the root-overlay gather first, then Lemma 11
    // on H with the colors as payload.
    let (g, colored, cl) = clustered();
    let gather: Vec<ClusterGather<()>> = g
        .nodes()
        .map(|v| {
            let a = colored.assign[v.index()].unwrap();
            ClusterGather::participant(a.label, a.depth, g.ident(v), (), 3)
        })
        .collect();
    let views = Engine::new(&g, Config::default()).run(gather).unwrap();
    for v in g.nodes() {
        let root = views.outputs[v.index()].as_ref().unwrap().root_ident();
        assert_eq!(root, cl.assign[v.index()].unwrap().label);
    }
    let c = colored.max_label();
    let factory =
        move |vi: &VertexInput<(u64, ())>| Lemma11Vertex::new(MaximalIndependentSet, vi, c);
    let make = || -> Vec<_> {
        g.nodes()
            .map(|v| {
                let a = cl.assign[v.index()].unwrap();
                let color = colored.assign[v.index()].unwrap().label;
                VirtSim::participant(a.label, a.depth, g.ident(v), (color, ()), 3, factory)
            })
            .collect()
    };
    check_every_executed_round(&g, make);
}

/// FNV-1a over bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The FNV-1a digest of the traced run's snapshots after each of the
/// `rounds`, in order.
fn snapshot_digest<P>(
    g: &Graph,
    make: impl Fn() -> Vec<P>,
    plan: Option<FaultPlan>,
    rounds: &[Round],
) -> u64
where
    P: Program + Persist + Send,
    P::Msg: Codec,
    P::Output: Codec,
{
    let engine = Engine::new(g, traced());
    let spec = RunSpec::default().with_faults(plan);
    let mut bytes = Vec::new();
    for &r in rounds {
        let snap = engine
            .run_spec(make(), &spec.pause_after(r))
            .unwrap()
            .into_snapshot();
        bytes.extend_from_slice(snap.as_bytes());
    }
    fnv1a(&bytes)
}

/// The snapshot format, pinned: fixed runs of every persisted program
/// family, paused at fixed rounds, must encode to the same bytes. A
/// change to any of these digests is a format change and must bump
/// `SNAPSHOT_VERSION` in the same commit.
#[test]
fn snapshot_bytes_match_the_pinned_digests() {
    let trivial_g = generators::gnp(24, 0.18, 11);
    let (clustered_g, colored, cl) = clustered();
    let edges_g = generators::gnp(16, 0.2, 5);
    let idx = EdgeIndex::new(&edges_g);
    let matching_inputs = MaximalMatching.trivial_inputs(&edges_g);
    let bm21_g = generators::cycle(200);
    let delta = bm21_g.max_degree() as u64;
    let linial = || -> Vec<ColorReduction> {
        bm21_g
            .nodes()
            .map(|v| ColorReduction::from_ident(bm21_g.ident(v), bm21_g.ident_bound(), delta))
            .collect()
    };
    let colors = Engine::new(&bm21_g, Config::default())
        .run(linial())
        .unwrap()
        .outputs;
    let k = linial::final_palette(delta);
    let scheduled = || -> Vec<ColorScheduled<MaximalIndependentSet>> {
        bm21_g
            .nodes()
            .map(|v| ColorScheduled::new(MaximalIndependentSet, (), colors[v.index()] + 1, k))
            .collect()
    };
    let c = colored.max_label();
    let lemma11_factory =
        move |vi: &VertexInput<(u64, ())>| Lemma11Vertex::new(MaximalIndependentSet, vi, c);
    let lemma11 = || -> Vec<_> {
        clustered_g
            .nodes()
            .map(|v| {
                let a = cl.assign[v.index()].unwrap();
                let color = colored.assign[v.index()].unwrap().label;
                let ident = clustered_g.ident(v);
                VirtSim::participant(a.label, a.depth, ident, (color, ()), 3, lemma11_factory)
            })
            .collect()
    };
    let (l14_g, _, l14) = lemma14_case();
    let cases: [(&str, u64, u64); 7] = [
        (
            "trivial MIS under faults",
            snapshot_digest(
                &trivial_g,
                || mis_programs(&trivial_g),
                Some(fault_plan()),
                &[3, 9, 17],
            ),
            0x687c_9665_73f9_173e,
        ),
        (
            "VirtSim<Lemma15Vertex>",
            snapshot_digest(
                &clustered_g,
                || lemma15_programs(&clustered_g, &cl),
                None,
                &[9, 749, 1493, 2225],
            ),
            0x942e_76d3_98a1_6815,
        ),
        (
            "VirtSim<Lemma11Vertex>",
            snapshot_digest(&clustered_g, lemma11, None, &[9, 41, 77]),
            0x3f58_7971_329d_c151,
        ),
        (
            "greedy_hosts",
            snapshot_digest(
                &edges_g,
                || greedy_hosts(&edges_g, &idx, &MaximalMatching, &matching_inputs),
                None,
                &[3, 8, 13],
            ),
            0x2668_fc44_a738_802f,
        ),
        (
            "ColorReduction",
            snapshot_digest(&bm21_g, linial, None, &[1]),
            0x6862_5a35_406c_e176,
        ),
        (
            "ColorScheduled",
            snapshot_digest(&bm21_g, scheduled, None, &[2, 5, 9, 13]),
            0xc9c1_2a53_387a_0279,
        ),
        (
            "VirtSim<TreeGatherVertex>",
            snapshot_digest(&l14_g, l14, None, &[9, 185, 233]),
            0x4e3b_8210_0f07_0025,
        ),
    ];
    let drifted: Vec<String> = cases
        .iter()
        .filter(|(_, got, want)| got != want)
        .map(|(name, got, want)| format!("{name}: {got:#018x} (pinned {want:#018x})"))
        .collect();
    assert!(
        drifted.is_empty(),
        "snapshot format drifted:\n{}",
        drifted.join("\n")
    );
}

#[test]
fn checkpointed_run_snapshots_all_resume_to_the_same_result() {
    let g = generators::gnp(28, 0.15, 7);
    let engine = Engine::new(&g, traced());
    let full = engine.run(mis_programs(&g)).unwrap();
    let snaps = std::cell::RefCell::new(Vec::<Snapshot>::new());
    let sink = |s: &Snapshot| {
        let copy = Snapshot::from_bytes(s.as_bytes().to_vec()).unwrap();
        snaps.borrow_mut().push(copy);
    };
    let every = RunSpec {
        checkpoint: Some(Checkpoint::Every(3.try_into().unwrap(), &sink)),
        ..RunSpec::default()
    };
    let checkpointed = engine
        .run_spec(mis_programs(&g), &every)
        .unwrap()
        .finished();
    let snaps = snaps.into_inner();
    assert_same_run(
        &full,
        &checkpointed,
        "checkpointing must not perturb the run",
    );
    assert!(
        snaps.len() >= 2,
        "expected several snapshots, got {}",
        snaps.len()
    );
    for snap in &snaps {
        let resumed = engine
            .run_spec(mis_programs(&g), &RunSpec::default().resume_from(snap))
            .unwrap()
            .finished();
        assert_same_run(
            &full,
            &resumed,
            &format!("resume from emitted snapshot at round {}", snap.round()),
        );
    }
}

#[test]
fn truncated_snapshots_never_resume_at_any_cut_point() {
    let g = generators::gnp(12, 0.25, 3);
    let engine = Engine::new(&g, traced());
    let snap = engine
        .run_spec(mis_programs(&g), &RunSpec::default().pause_after(2))
        .unwrap()
        .into_snapshot();
    let bytes = snap.as_bytes();
    // every strict prefix must be rejected — at header validation or at
    // payload decode — never silently accepted
    for cut in 0..bytes.len() {
        match Snapshot::from_bytes(bytes[..cut].to_vec()) {
            Err(_) => {}
            Ok(s) => assert!(
                engine
                    .run_spec(mis_programs(&g), &RunSpec::default().resume_from(&s))
                    .is_err(),
                "truncated snapshot ({cut}/{} bytes) resumed successfully",
                bytes.len()
            ),
        }
    }
}

#[test]
fn corrupted_and_mismatched_snapshots_are_rejected() {
    let g = generators::gnp(12, 0.25, 3);
    let engine = Engine::new(&g, traced());
    let snap = engine
        .run_spec(mis_programs(&g), &RunSpec::default().pause_after(2))
        .unwrap()
        .into_snapshot();
    // flip each magic byte: the header check must catch it
    for i in 0..8 {
        let mut bad = snap.as_bytes().to_vec();
        bad[i] ^= 0xFF;
        assert!(
            Snapshot::from_bytes(bad).is_err(),
            "corrupted magic byte {i} accepted"
        );
    }
    // a snapshot of one graph must not restore onto another
    let other = generators::gnp(12, 0.25, 99);
    // (and the pool's resume path applies the same checks)
    let engine = Engine::new(&other, traced());
    for workers in [1, 2] {
        let err = engine.run_spec(
            mis_programs(&other),
            &RunSpec::on(workers).resume_from(&snap),
        );
        assert!(
            err.is_err(),
            "{workers} workers: snapshot restored onto another graph"
        );
    }
}
