//! Unit tests for the gather and Lemma 7 simulation machinery (kept in a
//! separate module to keep the implementation files focused).

use crate::clustering::{synthesize, Assign, Clustering};
use crate::gather::{ClusterGather, ClusterView};
use crate::lemma15::{Lemma15Config, Lemma15Vertex};
use crate::params::Params;
use crate::theorem9::Lemma11Vertex;
use crate::virt::{VEnvelope, VOutgoing, VertexInput, VirtSim, VirtualProgram};
use awake_graphs::{generators, Graph, GraphBuilder, NodeId};
use awake_olocal::problems::MaximalIndependentSet;
use awake_sleeping::{
    persist, Action, CheckpointError, Codec, Config, Engine, Envelope, Outbox, Persist, Program,
    Reader, Round, RunSpec, View, Writer,
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Run a standalone gather over a clustering and return each node's view.
fn run_gather(g: &Graph, cl: &Clustering) -> Vec<Option<ClusterView<u64>>> {
    let programs: Vec<ClusterGather<u64>> = g
        .nodes()
        .map(|v| match cl.assign[v.index()] {
            Some(a) => ClusterGather::participant(
                a.label,
                a.depth,
                g.ident(v),
                g.ident(v) * 100, // payload: a distinctive per-node value
                g.n() as u32,
            ),
            None => ClusterGather::bystander(),
        })
        .collect();
    let run = Engine::new(g, Config::default()).run(programs).unwrap();
    // gather is awake-frugal: ≤ 5 rounds per node
    assert!(run.metrics.max_awake() <= 5);
    run.outputs
}

#[test]
fn gather_collects_full_cluster_structure() {
    // path 0-1-2-3-4 in two clusters: {0,1,2} rooted at 1, {3,4} rooted at 3.
    let g = generators::path(5);
    let cl = Clustering {
        assign: vec![
            Some(Assign {
                label: 10,
                depth: 1,
            }),
            Some(Assign {
                label: 10,
                depth: 0,
            }),
            Some(Assign {
                label: 10,
                depth: 1,
            }),
            Some(Assign {
                label: 20,
                depth: 0,
            }),
            Some(Assign {
                label: 20,
                depth: 1,
            }),
        ],
    };
    cl.validate_uniquely_labeled(&g).unwrap();
    let views = run_gather(&g, &cl);
    let v0 = views[0].as_ref().unwrap();
    assert_eq!(v0.label, 10);
    assert_eq!(v0.members.len(), 3);
    assert_eq!(v0.root_ident(), g.ident(awake_graphs::NodeId(1)));
    let input = VertexInput::from(v0.clone());
    assert_eq!(input.intra_edges(), vec![(1, 2), (2, 3)]); // idents 1-2, 2-3

    // border edge 3-4 (idents) seen from cluster 10 with neighbor label 20
    let border: Vec<_> = v0.members.values().flat_map(|m| m.border.iter()).collect();
    assert_eq!(border.len(), 1);
    assert_eq!(border[0].1, 20);
    assert_eq!(border[0].3, 4 * 100); // neighbor payload travels in hellos

    // all members of a cluster compute identical views (replica property)
    let v2 = views[2].as_ref().unwrap();
    assert_eq!(v0.members, v2.members);
}

#[test]
fn gather_singleton_cluster_is_one_awake_round() {
    let g = generators::star(5);
    let cl = Clustering::singletons(&g);
    let programs: Vec<ClusterGather<u64>> = g
        .nodes()
        .map(|v| {
            let a = cl.assign[v.index()].unwrap();
            ClusterGather::participant(a.label, a.depth, g.ident(v), 0, g.n() as u32)
        })
        .collect();
    let run = Engine::new(&g, Config::default()).run(programs).unwrap();
    // singleton roots finish at the hello round
    assert_eq!(run.metrics.max_awake(), 1);
    for v in g.nodes() {
        let view = run.outputs[v.index()].as_ref().unwrap();
        assert_eq!(view.members.len(), 1);
        assert_eq!(VertexInput::from(view.clone()).h_degree(), g.degree(v));
    }
}

#[test]
fn gather_bystanders_never_wake() {
    let g = generators::path(4);
    let cl = Clustering {
        assign: vec![
            Some(Assign { label: 1, depth: 0 }),
            Some(Assign { label: 1, depth: 1 }),
            None,
            None,
        ],
    };
    let programs: Vec<ClusterGather<u64>> = g
        .nodes()
        .map(|v| match cl.assign[v.index()] {
            Some(a) => ClusterGather::participant(a.label, a.depth, g.ident(v), 0, 4),
            None => ClusterGather::bystander(),
        })
        .collect();
    let run = Engine::new(&g, Config::default()).run(programs).unwrap();
    assert_eq!(run.metrics.awake[2], 0);
    assert_eq!(run.metrics.awake[3], 0);
    assert!(run.outputs[2].is_none());
    assert!(run.outputs[3].is_none());
}

/// A tiny virtual program: every vertex floods the maximum label it has
/// heard for `t` virtual rounds, then outputs it. Exercises exchange,
/// convergecast, broadcast, and replica determinism.
#[derive(Debug)]
struct VFlood {
    label: u64,
    best: u64,
    t: Round,
}

impl VirtualProgram for VFlood {
    type Msg = u64;
    type Output = u64;
    type Payload = ();

    fn send(&mut self, _vround: Round, out: &mut Vec<VOutgoing<u64>>) {
        out.push(VOutgoing::Broadcast(self.best));
    }

    fn receive(&mut self, vround: Round, inbox: &[VEnvelope<u64>]) -> Action {
        for e in inbox {
            assert_ne!(e.from, self.label, "no self-messages on H");
            self.best = self.best.max(e.msg);
        }
        if vround >= self.t {
            Action::Halt
        } else {
            Action::Stay
        }
    }

    fn output(&self) -> Option<u64> {
        Some(self.best)
    }
}

persist!(VFlood { best });

fn run_vflood(g: &Graph, cl: &Clustering, t: Round) -> (Vec<Option<u64>>, awake_sleeping::Metrics) {
    let db = g.n() as u32;
    let factory = move |vi: &VertexInput<()>| VFlood {
        label: vi.label,
        best: vi.label,
        t,
    };
    let programs: Vec<VirtSim<VFlood, _>> = g
        .nodes()
        .map(|v| match cl.assign[v.index()] {
            Some(a) => VirtSim::participant(a.label, a.depth, g.ident(v), (), db, factory),
            None => VirtSim::bystander(factory),
        })
        .collect();
    let run = Engine::new(g, Config::default()).run(programs).unwrap();
    (run.outputs, run.metrics)
}

#[test]
fn virtual_flood_spreads_across_h() {
    // Two clusters on a path: H is a single edge; after 1 round both
    // vertices know the max label.
    let g = generators::path(6);
    let cl = Clustering {
        assign: vec![
            Some(Assign { label: 3, depth: 2 }),
            Some(Assign { label: 3, depth: 1 }),
            Some(Assign { label: 3, depth: 0 }),
            Some(Assign { label: 9, depth: 0 }),
            Some(Assign { label: 9, depth: 1 }),
            Some(Assign { label: 9, depth: 2 }),
        ],
    };
    cl.validate_uniquely_labeled(&g).unwrap();
    let (out, metrics) = run_vflood(&g, &cl, 2);
    assert!(out.iter().all(|o| *o == Some(9)));
    // Lemma 7 overhead: gather (≤5) + t awake vrounds × ≤5 each.
    assert!(metrics.max_awake() <= 5 + 2 * 5);
}

#[test]
fn virtual_flood_diameter_of_h() {
    // A cycle of 9 nodes in 3 clusters: H = triangle; flood needs 1 round.
    let g = generators::cycle(9);
    let cl = Clustering {
        assign: (0..9u32)
            .map(|v| {
                Some(Assign {
                    label: (v / 3) as u64 + 1,
                    depth: v % 3, // path-shaped cluster: depths 0,1,2
                })
            })
            .collect(),
    };
    cl.validate_uniquely_labeled(&g).unwrap();
    let (out, _) = run_vflood(&g, &cl, 2);
    assert!(out.iter().all(|o| *o == Some(3)));
}

#[test]
fn virtual_program_can_sleep_on_h() {
    /// Vertex flips between sleeping and awake: awake at vrounds 1, 4, 5.
    #[derive(Debug)]
    struct Sleeper {
        seen: Vec<Round>,
    }
    impl VirtualProgram for Sleeper {
        type Msg = ();
        type Output = Vec<Round>;
        type Payload = ();
        fn send(&mut self, _v: Round, _out: &mut Vec<VOutgoing<()>>) {}
        fn receive(&mut self, vround: Round, _inbox: &[VEnvelope<()>]) -> Action {
            self.seen.push(vround);
            match vround {
                1 => Action::SleepUntil(4),
                4 => Action::Stay,
                _ => Action::Halt,
            }
        }
        fn output(&self) -> Option<Vec<Round>> {
            Some(self.seen.clone())
        }
    }
    let g = generators::path(4);
    let cl = Clustering::singletons(&g);
    let factory = |_: &VertexInput<()>| Sleeper { seen: vec![] };
    let programs: Vec<VirtSim<Sleeper, _>> = g
        .nodes()
        .map(|v| {
            let a = cl.assign[v.index()].unwrap();
            VirtSim::participant(a.label, a.depth, g.ident(v), (), 4, factory)
        })
        .collect();
    let run = Engine::new(&g, Config::default()).run(programs).unwrap();
    for o in run.outputs {
        assert_eq!(o.unwrap(), vec![1, 4, 5]);
    }
}

#[test]
fn messages_to_sleeping_vertices_are_lost_on_h() {
    /// Vertex 1 (label 1) broadcasts at every vround; vertex 2 sleeps
    /// through vround 2 and must miss that message.
    #[derive(Debug)]
    struct Talker {
        label: u64,
        heard: Vec<(Round, u64)>,
    }
    impl VirtualProgram for Talker {
        type Msg = u64;
        type Output = Vec<(Round, u64)>;
        type Payload = ();
        fn send(&mut self, vround: Round, out: &mut Vec<VOutgoing<u64>>) {
            if self.label == 1 {
                out.push(VOutgoing::Broadcast(vround * 10));
            }
        }
        fn receive(&mut self, vround: Round, inbox: &[VEnvelope<u64>]) -> Action {
            for e in inbox {
                self.heard.push((vround, e.msg));
            }
            if self.label == 1 {
                if vround < 3 {
                    Action::Stay
                } else {
                    Action::Halt
                }
            } else if vround == 1 {
                Action::SleepUntil(3)
            } else {
                Action::Halt
            }
        }
        fn output(&self) -> Option<Vec<(Round, u64)>> {
            Some(self.heard.clone())
        }
    }
    let g = generators::path(2);
    let cl = Clustering::singletons(&g);
    let factory = |vi: &VertexInput<()>| Talker {
        label: vi.label,
        heard: vec![],
    };
    let programs: Vec<VirtSim<Talker, _>> = g
        .nodes()
        .map(|v| {
            let a = cl.assign[v.index()].unwrap();
            VirtSim::participant(a.label, a.depth, g.ident(v), (), 2, factory)
        })
        .collect();
    let run = Engine::new(&g, Config::default()).run(programs).unwrap();
    // vertex 2 hears vrounds 1 and 3 but NOT 2 (it was asleep on H).
    assert_eq!(run.outputs[1].as_ref().unwrap(), &vec![(1, 10), (3, 30)]);
}

/// `(vround, [(from, seq, sent at)])` per awake virtual round.
type InboxLog = Vec<(Round, Vec<(u64, u64, Round)>)>;

/// Records every inbox it reads; sends one broadcast (seq 0) and one
/// addressed message per `H`-neighbor (seq 1, 2, …) at each of virtual
/// rounds 1–3.
#[derive(Debug)]
struct Recorder {
    nbrs: Vec<u64>,
    log: InboxLog,
}

impl VirtualProgram for Recorder {
    type Msg = (u64, Round);
    type Output = InboxLog;
    type Payload = ();

    fn send(&mut self, vround: Round, out: &mut Vec<VOutgoing<(u64, Round)>>) {
        out.push(VOutgoing::Broadcast((0, vround)));
        for (k, &j) in self.nbrs.iter().enumerate() {
            out.push(VOutgoing::ToCluster(j, (k as u64 + 1, vround)));
        }
    }

    fn receive(&mut self, vround: Round, inbox: &[VEnvelope<(u64, Round)>]) -> Action {
        let seen = inbox.iter().map(|e| (e.from, e.msg.0, e.msg.1)).collect();
        self.log.push((vround, seen));
        if vround < 3 {
            Action::Stay
        } else {
            Action::Halt
        }
    }

    fn output(&self) -> Option<Self::Output> {
        Some(self.log.clone())
    }
}

persist!(Recorder { log });

#[test]
fn replicas_read_one_sorted_deduplicated_inbox() {
    // Three path-shaped clusters of three nodes (labels 5, 2, 9), with
    // every member of the middle cluster adjacent to every member of both
    // others: each exchange message reaches all three members of a
    // neighboring cluster, and each member hears it from three ports.
    let mut b = GraphBuilder::new(9);
    b.edges([(0, 1), (1, 2), (3, 4), (4, 5), (6, 7), (7, 8)]);
    for m in 3..6 {
        for o in (0..3).chain(6..9) {
            b.edge(m, o);
        }
    }
    let g = b.build().unwrap();
    let labels = [5u64, 2, 9];
    let cl = Clustering {
        assign: (0..9u32)
            .map(|v| {
                Some(Assign {
                    label: labels[v as usize / 3],
                    depth: v % 3,
                })
            })
            .collect(),
    };
    cl.validate_uniquely_labeled(&g).unwrap();
    let h_nbrs = |l: u64| -> Vec<u64> {
        match l {
            2 => vec![5, 9],
            _ => vec![2],
        }
    };
    let run = |workers: usize| {
        let factory = move |vi: &VertexInput<()>| Recorder {
            nbrs: vi.neighbor_labels(),
            log: vec![],
        };
        let programs: Vec<VirtSim<Recorder, _>> = g
            .nodes()
            .map(|v| {
                let a = cl.assign[v.index()].unwrap();
                VirtSim::participant(a.label, a.depth, g.ident(v), (), 9, factory)
            })
            .collect();
        Engine::new(&g, Config::default())
            .run_spec(programs, &RunSpec::on(workers))
            .unwrap()
            .finished()
            .outputs
    };
    let serial = run(1);
    for v in g.nodes() {
        let me = labels[v.index() / 3];
        let log = serial[v.index()].as_ref().unwrap();
        assert_eq!(log.len(), 3);
        for (vround, inbox) in log {
            let keys: Vec<(u64, u64)> = inbox.iter().map(|&(from, seq, _)| (from, seq)).collect();
            assert!(
                keys.windows(2).all(|w| w[0] < w[1]),
                "inbox sorted by (from, seq), each message once: {keys:?}"
            );
            // From each neighbor: its broadcast and the one message it
            // addressed to us, both sent this virtual round.
            let mut expected: Vec<(u64, u64, Round)> = h_nbrs(me)
                .into_iter()
                .flat_map(|j| {
                    let k = h_nbrs(j).iter().position(|&l| l == me).unwrap() as u64;
                    [(j, 0, *vround), (j, k + 1, *vround)]
                })
                .collect();
            expected.sort_unstable();
            assert_eq!(inbox, &expected, "node {v:?} at vround {vround}");
        }
        // Every replica of a vertex read the same inboxes.
        let first = &serial[3 * (v.index() / 3)];
        assert_eq!(&serial[v.index()], first);
    }
    for workers in [2, 4] {
        assert_eq!(run(workers), serial, "{workers} workers");
    }
}

/// Counts the inner program's awake virtual rounds (its `receive` calls)
/// and reports the count with the output, so a run through [`VirtSim`]
/// and a run on `H` can compare per-vertex virtual awake counts.
pub(crate) struct Counted<VP> {
    pub(crate) vp: VP,
    pub(crate) awake: u64,
}

impl<VP: Persist> Persist for Counted<VP> {
    fn save(&self, w: &mut Writer) {
        self.vp.save(w);
        self.awake.encode(w);
    }
    fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), CheckpointError> {
        self.vp.restore(r)?;
        self.awake = r.get()?;
        Ok(())
    }
}

impl<VP: VirtualProgram> VirtualProgram for Counted<VP> {
    type Msg = VP::Msg;
    type Output = (VP::Output, u64);
    type Payload = VP::Payload;

    fn send(&mut self, vround: Round, out: &mut Vec<VOutgoing<VP::Msg>>) {
        self.vp.send(vround, out);
    }

    fn receive(&mut self, vround: Round, inbox: &[VEnvelope<VP::Msg>]) -> Action {
        self.awake += 1;
        self.vp.receive(vround, inbox)
    }

    fn output(&self) -> Option<Self::Output> {
        self.vp.output().map(|o| (o, self.awake))
    }
}

/// The differential oracle's direct run: a [`VirtualProgram`] as a plain
/// [`Program`] on the explicit virtual graph `H`, one virtual round per
/// engine round. Messages carry their index in the sender's send list, and
/// each inbox is handed over sorted by `(sender label, index)` — the order
/// the simulator promises.
pub(crate) struct OnH<VP: VirtualProgram> {
    pub(crate) vp: VP,
    /// The label behind each port (`H`'s identifiers are the labels).
    pub(crate) port_label: BTreeMap<NodeId, u64>,
    pub(crate) send_buf: Vec<VOutgoing<VP::Msg>>,
    pub(crate) out: Option<VP::Output>,
}

impl<VP: VirtualProgram> Program for OnH<VP> {
    type Msg = (u16, VP::Msg);
    type Output = VP::Output;

    fn initial_wake(&self) -> Option<Round> {
        Some(1)
    }

    fn send(&mut self, view: &View<'_>, out: &mut Outbox<Self::Msg>) {
        self.send_buf.clear();
        self.vp.send(view.round, &mut self.send_buf);
        for (seq, o) in self.send_buf.drain(..).enumerate() {
            match o {
                VOutgoing::Broadcast(m) => out.broadcast((seq as u16, m)),
                VOutgoing::ToCluster(j, m) => {
                    let port = self
                        .port_label
                        .iter()
                        .find(|&(_, &l)| l == j)
                        .map(|(&p, _)| p)
                        .expect("addressed vertex is adjacent in H");
                    out.to(port, (seq as u16, m));
                }
            }
        }
    }

    fn receive(&mut self, view: &View<'_>, inbox: &[Envelope<Self::Msg>]) -> Action {
        let mut items: Vec<(u64, u16, VP::Msg)> = inbox
            .iter()
            .map(|e| (self.port_label[&e.from], e.msg.0, e.msg.1.clone()))
            .collect();
        items.sort_by_key(|it| (it.0, it.1));
        let inbox: Vec<VEnvelope<VP::Msg>> = items
            .into_iter()
            .map(|(from, _, msg)| VEnvelope { from, msg })
            .collect();
        let action = self.vp.receive(view.round, &inbox);
        if action == Action::Halt {
            self.out = self.vp.output();
        }
        action
    }

    fn output(&self) -> Option<VP::Output> {
        self.out.clone()
    }
}

/// Run `factory`'s program through [`VirtSim`] on `g` over the
/// uniquely-labeled clustering `cl` (payloads `payload(v)`) at 1, 2, 4 and
/// 8 workers, and directly on `H`; assert every vertex's output and
/// virtual awake count agree. Returns the outputs on `H`.
fn assert_virtsim_matches_h<VP, F>(
    g: &Graph,
    cl: &Clustering,
    payload: impl Fn(NodeId) -> VP::Payload,
    factory: F,
) -> Vec<VP::Output>
where
    VP: VirtualProgram + Persist + Send,
    VP::Msg: Codec,
    VP::Output: Codec + PartialEq,
    VP::Payload: Codec + PartialEq,
    F: Fn(&VertexInput<VP::Payload>) -> VP + Copy + Send + Sync,
{
    let db = g.n() as u32;
    let counted = move |vi: &VertexInput<VP::Payload>| Counted {
        vp: factory(vi),
        awake: 0,
    };

    // Each vertex's input, from a standalone gather on G.
    let gather: Vec<ClusterGather<VP::Payload>> = g
        .nodes()
        .map(|v| {
            let a = cl.assign[v.index()].unwrap();
            ClusterGather::participant(a.label, a.depth, g.ident(v), payload(v), db)
        })
        .collect();
    let views = Engine::new(g, Config::default())
        .run(gather)
        .unwrap()
        .outputs;
    let mut inputs: BTreeMap<u64, VertexInput<VP::Payload>> = BTreeMap::new();
    for view in views.into_iter().map(Option::unwrap) {
        let vi = VertexInput {
            label: view.label,
            members: Arc::new(view.members),
        };
        let first = inputs.entry(vi.label).or_insert_with(|| vi.clone());
        assert_eq!(first, &vi, "members of one cluster gather one view");
    }

    // Directly on H.
    let q = cl.virtual_graph(g);
    let direct: Vec<OnH<Counted<VP>>> = q
        .graph
        .nodes()
        .map(|x| OnH {
            vp: counted(&inputs[&q.labels[x.index()]]),
            port_label: q
                .graph
                .neighbors(x)
                .iter()
                .map(|&y| (y, q.labels[y.index()]))
                .collect(),
            send_buf: vec![],
            out: None,
        })
        .collect();
    let on_h = Engine::new(&q.graph, Config::default())
        .run(direct)
        .unwrap();
    for x in q.graph.nodes() {
        assert_eq!(
            on_h.outputs[x.index()].1,
            on_h.metrics.awake[x.index()],
            "the counter sees every awake round on H"
        );
    }

    // Through the simulator on G.
    for workers in [1, 2, 4, 8] {
        let programs: Vec<VirtSim<Counted<VP>, _>> = g
            .nodes()
            .map(|v| {
                let a = cl.assign[v.index()].unwrap();
                VirtSim::participant(a.label, a.depth, g.ident(v), payload(v), db, counted)
            })
            .collect();
        let sim = Engine::new(g, Config::default())
            .run_spec(programs, &RunSpec::on(workers))
            .unwrap()
            .finished();
        for v in g.nodes() {
            let x = q.vertex_of[v.index()].unwrap();
            let (out, awake) = sim.outputs[v.index()].as_ref().unwrap();
            let (want, want_awake) = &on_h.outputs[x.index()];
            assert!(
                out == want,
                "{workers} workers: node {v:?} (vertex {}) output differs from H's",
                q.labels[x.index()]
            );
            assert_eq!(
                awake,
                want_awake,
                "{workers} workers: node {v:?} (vertex {}) virtual awake count",
                q.labels[x.index()]
            );
        }
    }
    on_h.outputs.into_iter().map(|(o, _)| o).collect()
}

#[test]
fn virtsim_matches_direct_execution_on_h() {
    let (mut in_u, mut deep) = (false, false);
    for (n, p, clusters, seed) in [(40, 0.12, 7, 1), (48, 0.08, 9, 2), (36, 0.2, 5, 3)] {
        let g = generators::gnp(n, p, seed);
        let colored = synthesize(&g, clusters, seed + 10);
        colored.validate_colored(&g).unwrap();
        let cl = colored.root_ident_overlay(&g);
        cl.validate_uniquely_labeled(&g).unwrap();
        let q = cl.virtual_graph(&g);
        assert!(
            q.graph.n() < g.n() && q.graph.m() > 0,
            "multi-member clusters and an edge in H"
        );

        assert_virtsim_matches_h(
            &g,
            &cl,
            |_| (),
            |vi: &VertexInput<()>| VFlood {
                label: vi.label,
                best: vi.label,
                t: 4,
            },
        );

        let c = colored.max_label();
        let color = |v: NodeId| (colored.assign[v.index()].unwrap().label, ());
        assert_virtsim_matches_h(&g, &cl, color, move |vi: &VertexInput<(u64, ())>| {
            Lemma11Vertex::new(MaximalIndependentSet, vi, c)
        });

        let params = Params::for_graph(&g);
        let cfg = Lemma15Config {
            b: 3,
            label_bound: params.label_bound(1),
            ab2: params.ab2,
        };
        let l15 = assert_virtsim_matches_h(
            &g,
            &cl,
            |_| (),
            move |vi: &VertexInput<()>| Lemma15Vertex::new(cfg, vi),
        );
        in_u |= l15.iter().any(|o| o.in_u);
        deep |= l15.iter().any(|o| o.delta > 1);
    }
    assert!(
        in_u && deep,
        "Lemma 15 forms both U vertices and clusters deeper than one hop"
    );
}
