//! Lemma 15: one decomposition phase (Figure 4 of the paper).
//!
//! Runs on the virtual graph `H` (vertices = clusters of the current
//! uniquely-labeled clustering), via the Lemma 7 simulator. Given the
//! degree threshold `b` and a distance-2 coloring (vertex labels are
//! unique, hence a valid distance-2 coloring — the paper's Remark for
//! identifiers from `{1..nˢ}`), the phase:
//!
//! 1. exchanges colors and 2-hop color tables (virtual rounds 1–3);
//! 2. computes the parent pointers `p₁` (smallest `c₁` in `N ∪ N²`), the
//!    shift `b(v)`, the recoloring `c₂ = 2·c₁(p₁) + b(v)`, and the
//!    repaired pointers `p₂ ∈ N(v)` (Claim 16: `c₂` strictly decreases
//!    toward the roots, so `p₂` forms a rooted spanning forest `F₂`);
//! 3. gathers each `F₂` tree at its root and re-broadcasts it (a Lemma 6
//!    pass with labels `c₂`), so every vertex learns its tree, its root
//!    `ℓ_aux`, and whether the root has degree ≤ `b` (the set `U`);
//! 4. exchanges cluster membership and runs a second pass carrying
//!    intra-cluster edges, so `δ_aux` is the *exact* BFS distance within
//!    the cluster (Definition 2), computed from the gathered edges rather
//!    than read off the `F₂` tree;
//! 5. vertices in `U` run Linial on `H[U]` (degree ≤ `b`) down to the
//!    `a·b²` palette and become singleton clusters of that color; the
//!    rest form the uniquely-labeled part, `≤ n_H/b` many clusters.

use crate::linial::{self, Step};
use crate::virt::{VEnvelope, VOutgoing, VertexInput, VirtualProgram};
use awake_sleeping::{Action, CheckpointError, Codec, Persist, Reader, Round, Writer};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Phase parameters (shared by all vertices).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lemma15Config {
    /// Degree threshold `b`.
    pub b: u64,
    /// Upper bound on vertex labels (the distance-2 palette `k`).
    pub label_bound: u64,
    /// The `a·b²` palette (Linial's fixpoint at degree `b`).
    pub ab2: u64,
}

impl Lemma15Config {
    /// `N₆`: bound on `c₂` labels (`c₂ ≤ 4·label_bound + 1`).
    pub fn n6(&self) -> u64 {
        4 * self.label_bound + 2
    }
    fn base1(&self) -> Round {
        4
    }
    fn base2(&self) -> Round {
        self.base1() + self.n6() + 2
    }
    fn base3(&self) -> Round {
        self.base2() + self.n6() + 2
    }
    fn base4(&self) -> Round {
        self.base3() + 1
    }
    fn base5(&self) -> Round {
        self.base4() + self.n6() + 2
    }
    /// First round of the Linial-on-`H[U]` loop.
    pub fn lin_start(&self) -> Round {
        self.base5() + self.n6() + 2
    }
    /// The Linial schedule on `H[U]`.
    pub fn lin_steps(&self) -> Vec<Step> {
        linial::schedule(self.label_bound + 1, self.b)
    }
    /// Total virtual rounds of the phase.
    pub fn vrounds(&self) -> u64 {
        self.lin_start() + self.lin_steps().len() as u64 + 1
    }
}

/// A record describing one vertex inside an `F₂` tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeRec {
    /// Vertex label.
    pub label: u64,
    /// Its `c₂` color.
    pub c2: u64,
    /// Its `p₂` pointer (`None` at the root).
    pub p2: Option<u64>,
    /// Its degree in `H`.
    pub deg_h: u64,
}

/// Virtual messages of the phase.
#[derive(Debug, Clone, PartialEq)]
pub enum L15Msg {
    /// `c₁` announcement.
    Info1(u64),
    /// 2-hop table: `(neighbor label, its c₁)` pairs.
    Info2(Arc<Vec<(u64, u64)>>),
    /// `(c₂, p₂)` announcement.
    Info3(u64, Option<u64>),
    /// Convergecast bag of tree records.
    TreeUp(Arc<Vec<TreeRec>>),
    /// Broadcast of the completed tree.
    TreeDown(Arc<Vec<TreeRec>>),
    /// Cluster membership announcement (`ℓ_aux`).
    Info4(u64),
    /// Convergecast bag of intra-cluster adjacency lists.
    EdgeUp(Arc<Vec<(u64, Vec<u64>)>>),
    /// Broadcast of the cluster's full adjacency.
    EdgeDown(Arc<Vec<(u64, Vec<u64>)>>),
    /// Linial-on-`H[U]` color.
    Lin(u64),
}

/// The vertex output of the phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lemma15Out {
    /// The color `γ'`: in `1..=a·b²` for `U` vertices, `ℓ_aux + a·b²`
    /// otherwise.
    pub gamma: u64,
    /// `δ'`: 0 for `U` vertices, the exact BFS depth in the cluster
    /// otherwise.
    pub delta: u32,
    /// The cluster root's label.
    pub l_aux: u64,
    /// Whether the vertex joined `U` (singleton, small colors).
    pub in_u: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Duty {
    CcRecv(u8),
    CcSend(u8),
    BcRecv(u8),
    BcSend(u8),
    Info4,
    Lin(u16),
}

/// The Lemma 15 vertex program.
pub struct Lemma15Vertex {
    cfg: Lemma15Config,
    label: u64,
    deg_h: u64,
    nbr_labels: Vec<u64>,
    c1: u64,
    nbr_c1: BTreeMap<u64, u64>,
    nbr_tables: BTreeMap<u64, Arc<Vec<(u64, u64)>>>,
    p1: Option<u64>,
    shift: u64,
    c2: u64,
    p2: Option<u64>,
    p2_c2: Option<u64>,
    children: Vec<u64>,
    /// Tree records gathered so far on the first convergecast.
    bag_tree: Arc<Vec<TreeRec>>,
    /// The whole `F₂` tree, shared with the message that delivered it.
    tree: Arc<Vec<TreeRec>>,
    l_aux: u64,
    in_u: bool,
    same_cluster_nbrs: Vec<u64>,
    /// Adjacency lists gathered so far on the second convergecast.
    bag_edges: Arc<Vec<(u64, Vec<u64>)>>,
    /// The cluster's full adjacency, shared like `tree`.
    edges: Arc<Vec<(u64, Vec<u64>)>>,
    delta_aux: u32,
    lin_color: u64,
    lin_steps: Vec<Step>,
    /// Pooled neighbor-color scratch of the Linial duty (transient).
    lin_nbrs: Vec<u64>,
    agenda: std::collections::VecDeque<(Round, Duty)>,
    out: Option<Lemma15Out>,
}

impl Lemma15Vertex {
    /// Build the vertex program from the gathered cluster input.
    pub fn new(cfg: Lemma15Config, input: &VertexInput<()>) -> Self {
        let label = input.label;
        assert!(
            label <= cfg.label_bound,
            "label {label} exceeds bound {}",
            cfg.label_bound
        );
        let nbr_labels = input.neighbor_labels();
        let deg_h = nbr_labels.len() as u64;
        // c₀ = label (unique labels form a distance-2 coloring of H);
        // low-degree vertices shift their color above the threshold.
        let c0 = label;
        let c1 = if deg_h <= cfg.b {
            c0 + cfg.label_bound
        } else {
            c0
        };
        Lemma15Vertex {
            cfg,
            label,
            deg_h,
            nbr_labels,
            c1,
            nbr_c1: BTreeMap::new(),
            nbr_tables: BTreeMap::new(),
            p1: None,
            shift: 0,
            c2: 0,
            p2: None,
            p2_c2: None,
            children: Vec::new(),
            bag_tree: Arc::default(),
            tree: Arc::default(),
            l_aux: 0,
            in_u: false,
            same_cluster_nbrs: Vec::new(),
            bag_edges: Arc::default(),
            edges: Arc::default(),
            delta_aux: 0,
            lin_color: 0,
            lin_steps: cfg.lin_steps(),
            lin_nbrs: Vec::new(),
            agenda: Default::default(),
            out: None,
        }
    }

    fn flip(&self, c2: u64) -> u64 {
        self.cfg.n6() - c2
    }

    /// Choose `p₁`, the shift, `c₂` and `p₂` from the 2-hop color tables.
    fn compute_pointers(&mut self) {
        // N(v): smallest c₁ strictly below ours.
        let best_nbr = self.nbr_labels.iter().map(|&l| (self.nbr_c1[&l], l)).min();
        if let Some((c, l)) = best_nbr {
            if c < self.c1 {
                self.p1 = Some(l);
                self.shift = 0;
                self.c2 = 2 * c;
                self.p2 = Some(l);
                return;
            }
        }
        // N²(v): strictly-2-away vertices from the tables.
        let mut two_hop: BTreeMap<u64, u64> = BTreeMap::new(); // label -> c1
        for (_, table) in self.nbr_tables.iter() {
            for &(w, c) in table.iter() {
                if w != self.label && !self.nbr_labels.contains(&w) {
                    two_hop.entry(w).or_insert(c);
                }
            }
        }
        let best2 = two_hop.iter().map(|(&l, &c)| (c, l)).min();
        if let Some((c, l)) = best2 {
            if c < self.c1 {
                self.p1 = Some(l);
                self.shift = 1;
                self.c2 = 2 * c + 1;
                // p₂: smallest-label common neighbor u ∈ N(v) ∩ N(p₁(v)).
                let u = self
                    .nbr_labels
                    .iter()
                    .copied()
                    .find(|&u| {
                        self.nbr_tables
                            .get(&u)
                            .is_some_and(|t| t.iter().any(|&(w, _)| w == l))
                    })
                    .expect("a 2-hop parent is reachable through a common neighbor");
                self.p2 = Some(u);
                return;
            }
        }
        // Local minimum of c₁ in N ∪ N²: a root.
        self.p1 = None;
        self.p2 = None;
        self.c2 = 0;
    }

    /// Agenda for the two Lemma 6 passes over `F₂`, built once `c₂(p₂)`
    /// and the children are known (after virtual round 3).
    fn build_tree_agenda(&mut self) {
        let cfg = self.cfg;
        let mut ag: Vec<(Round, Duty)> = Vec::new();
        for pass in 0..2u8 {
            let (cc_base, bc_base) = if pass == 0 {
                (cfg.base1(), cfg.base2())
            } else {
                (cfg.base4(), cfg.base5())
            };
            if !self.children.is_empty() {
                ag.push((cc_base + self.flip(self.c2), Duty::CcRecv(pass)));
            }
            if let Some(pc2) = self.p2_c2 {
                ag.push((cc_base + self.flip(pc2), Duty::CcSend(pass)));
                ag.push((bc_base + pc2, Duty::BcRecv(pass)));
            }
            if !self.children.is_empty() {
                ag.push((bc_base + self.c2, Duty::BcSend(pass)));
            }
            if pass == 0 {
                ag.push((cfg.base3(), Duty::Info4));
            }
        }
        ag.sort_unstable_by_key(|&(r, _)| r);
        self.agenda = ag.into();
    }

    /// Append the Linial duties once membership in `U` is established.
    fn maybe_schedule_linial(&mut self) {
        if self.in_u {
            for t in 0..self.lin_steps.len().max(1) as u16 {
                self.agenda
                    .push_back((self.cfg.lin_start() + t as Round, Duty::Lin(t)));
            }
        }
    }

    /// The duty at `i` on the agenda, if it falls due at `vround`. The
    /// callers walk the indices the agenda had on entry, so duties it
    /// gains meanwhile (always later rounds) wait for their own round.
    fn duty_at(&self, i: usize, vround: Round) -> Option<Duty> {
        match self.agenda[i] {
            (r, d) if r == vround => Some(d),
            _ => None,
        }
    }

    fn next_action(&mut self, vround: Round) -> Action {
        while self.agenda.front().is_some_and(|&(r, _)| r <= vround) {
            self.agenda.pop_front();
        }
        match self.agenda.front() {
            Some(&(r, _)) => Action::SleepUntil(r),
            None => {
                self.finish();
                Action::Halt
            }
        }
    }

    /// Assemble the output once all duties are done.
    fn finish(&mut self) {
        let gamma = if self.in_u {
            self.lin_color + 1
        } else {
            self.l_aux + self.cfg.ab2
        };
        self.out = Some(Lemma15Out {
            gamma,
            delta: if self.in_u { 0 } else { self.delta_aux },
            l_aux: self.l_aux,
            in_u: self.in_u,
        });
    }

    /// Once the tree is known (after the first broadcast pass), derive the
    /// root, `U`-membership, and our own record sanity.
    fn absorb_tree(&mut self, tree: Arc<Vec<TreeRec>>) {
        self.tree = tree;
        let root = self
            .tree
            .iter()
            .find(|r| r.p2.is_none())
            .expect("every F₂ tree has a root");
        self.l_aux = root.label;
        self.in_u = root.deg_h <= self.cfg.b;
        if self.in_u {
            // Paper's claim: all members of a small-root cluster have
            // degree ≤ b (their c₁ colors sit above the threshold).
            debug_assert!(
                self.deg_h <= self.cfg.b,
                "U cluster contains a high-degree vertex"
            );
        }
        self.lin_color = self.label;
        // Our first Linial-loop exchange needs the initial colors of
        // U-neighbors, which arrive in the loop's own rounds.
    }

    /// Once the cluster's adjacency is known, compute the exact BFS depth.
    fn absorb_edges(&mut self, edges: Arc<Vec<(u64, Vec<u64>)>>) {
        self.edges = edges;
        self.delta_aux = if self.label == self.l_aux {
            0
        } else {
            bfs_depth(&self.tree, &self.edges, self.l_aux, self.label)
                .expect("cluster is connected through p₂/tree edges")
        };
    }

    fn tree_rec(&self) -> TreeRec {
        TreeRec {
            label: self.label,
            c2: self.c2,
            p2: self.p2,
            deg_h: self.deg_h,
        }
    }
}

/// BFS distance from `root` to `target` over the adjacency lists `edges`,
/// restricted to the members of `tree`; `None` when either end is not a
/// member or `target` is unreachable. The lists are symmetric (both ends
/// of a same-cluster edge list each other), so the search follows them
/// directly: members are indexed by label once, and the search stops as
/// soon as it reaches `target`.
fn bfs_depth(tree: &[TreeRec], edges: &[(u64, Vec<u64>)], root: u64, target: u64) -> Option<u32> {
    let slot: HashMap<u64, usize> = tree.iter().enumerate().map(|(i, r)| (r.label, i)).collect();
    let (r, t) = (*slot.get(&root)?, *slot.get(&target)?);
    let mut adj: Vec<&[u64]> = vec![&[]; tree.len()];
    for (l, nbrs) in edges {
        if let Some(&i) = slot.get(l) {
            adj[i] = nbrs;
        }
    }
    let mut dist = vec![u32::MAX; tree.len()];
    dist[r] = 0;
    let mut queue = vec![r];
    let mut head = 0;
    while let Some(&x) = queue.get(head) {
        head += 1;
        if x == t {
            return Some(dist[x]);
        }
        for w in adj[x] {
            if let Some(&i) = slot.get(w) {
                if dist[i] == u32::MAX {
                    dist[i] = dist[x] + 1;
                    queue.push(i);
                }
            }
        }
    }
    None
}

/// Append the records `incoming` yields to `bag`, skipping any whose key
/// the bag (or an earlier incoming record) already holds; the kept records
/// stay in arrival order. The duplicates are found by one sort of the
/// keys, not a set built per call.
fn append_unseen<'a, T: Clone + 'a>(
    bag: &mut Vec<T>,
    incoming: impl IntoIterator<Item = &'a T>,
    key: impl Fn(&T) -> u64,
) {
    bag.extend(incoming.into_iter().cloned());
    let mut keys: Vec<(u64, usize)> = bag.iter().enumerate().map(|(i, r)| (key(r), i)).collect();
    keys.sort_unstable();
    let mut keep = vec![true; bag.len()];
    let mut dup = false;
    for w in keys.windows(2) {
        if w[0].0 == w[1].0 {
            keep[w[1].1] = false;
            dup = true;
        }
    }
    if dup {
        let mut k = keep.into_iter();
        bag.retain(|_| k.next().unwrap_or(true));
    }
}

impl VirtualProgram for Lemma15Vertex {
    type Msg = L15Msg;
    type Output = Lemma15Out;
    type Payload = ();

    fn send(&mut self, vround: Round, out: &mut Vec<VOutgoing<L15Msg>>) {
        match vround {
            1 => out.push(VOutgoing::Broadcast(L15Msg::Info1(self.c1))),
            2 => {
                let table: Vec<(u64, u64)> = self.nbr_c1.iter().map(|(&l, &c)| (l, c)).collect();
                out.push(VOutgoing::Broadcast(L15Msg::Info2(Arc::new(table))));
            }
            3 => out.push(VOutgoing::Broadcast(L15Msg::Info3(self.c2, self.p2))),
            _ => {
                for i in 0..self.agenda.len() {
                    let Some(duty) = self.duty_at(i, vround) else {
                        continue;
                    };
                    match duty {
                        Duty::CcSend(0) => out.push(VOutgoing::ToCluster(
                            self.p2.expect("cc send implies a parent"),
                            L15Msg::TreeUp(Arc::clone(&self.bag_tree)),
                        )),
                        Duty::CcSend(_) => out.push(VOutgoing::ToCluster(
                            self.p2.expect("cc send implies a parent"),
                            L15Msg::EdgeUp(Arc::clone(&self.bag_edges)),
                        )),
                        Duty::BcSend(0) => out.push(VOutgoing::Broadcast(L15Msg::TreeDown(
                            Arc::clone(&self.tree),
                        ))),
                        Duty::BcSend(_) => out.push(VOutgoing::Broadcast(L15Msg::EdgeDown(
                            Arc::clone(&self.edges),
                        ))),
                        Duty::Info4 => out.push(VOutgoing::Broadcast(L15Msg::Info4(self.l_aux))),
                        Duty::Lin(_) => out.push(VOutgoing::Broadcast(L15Msg::Lin(self.lin_color))),
                        Duty::CcRecv(_) | Duty::BcRecv(_) => {}
                    }
                }
            }
        }
    }

    fn receive(&mut self, vround: Round, inbox: &[VEnvelope<L15Msg>]) -> Action {
        match vround {
            1 => {
                for e in inbox {
                    if let L15Msg::Info1(c1) = e.msg {
                        self.nbr_c1.insert(e.from, c1);
                    }
                }
                Action::Stay
            }
            2 => {
                for e in inbox {
                    if let L15Msg::Info2(t) = &e.msg {
                        self.nbr_tables.insert(e.from, Arc::clone(t));
                    }
                }
                self.compute_pointers();
                Action::Stay
            }
            3 => {
                for e in inbox {
                    if let L15Msg::Info3(c2, p2) = e.msg {
                        if p2 == Some(self.label) {
                            self.children.push(e.from);
                        }
                        if Some(e.from) == self.p2 {
                            self.p2_c2 = Some(c2);
                        }
                    }
                }
                self.children.sort_unstable();
                self.bag_tree = Arc::new(vec![self.tree_rec()]);
                self.build_tree_agenda();
                // A singleton root's tree is itself; it schedules Linial
                // at the Info4 round, once its adjacency is known too.
                if self.p2.is_none() && self.children.is_empty() {
                    self.absorb_tree(Arc::clone(&self.bag_tree));
                }
                self.next_action(vround)
            }
            _ => {
                for i in 0..self.agenda.len() {
                    let Some(duty) = self.duty_at(i, vround) else {
                        continue;
                    };
                    match duty {
                        Duty::CcRecv(0) => {
                            let recs = inbox.iter().filter_map(|e| match &e.msg {
                                L15Msg::TreeUp(recs) if self.children.contains(&e.from) => {
                                    Some(recs.iter())
                                }
                                _ => None,
                            });
                            let bag = Arc::make_mut(&mut self.bag_tree);
                            append_unseen(bag, recs.flatten(), |r| r.label);
                            if self.p2.is_none() {
                                // Root: the tree is complete.
                                self.absorb_tree(Arc::clone(&self.bag_tree));
                            }
                        }
                        Duty::CcRecv(_) => {
                            let recs = inbox.iter().filter_map(|e| match &e.msg {
                                L15Msg::EdgeUp(recs) if self.children.contains(&e.from) => {
                                    Some(recs.iter())
                                }
                                _ => None,
                            });
                            let bag = Arc::make_mut(&mut self.bag_edges);
                            append_unseen(bag, recs.flatten(), |r| r.0);
                            if self.p2.is_none() {
                                self.absorb_edges(Arc::clone(&self.bag_edges));
                                self.maybe_schedule_linial();
                            }
                        }
                        Duty::BcRecv(0) => {
                            let tree = inbox.iter().find_map(|e| match &e.msg {
                                L15Msg::TreeDown(t) if Some(e.from) == self.p2 => {
                                    Some(Arc::clone(t))
                                }
                                _ => None,
                            });
                            let tree = tree.expect("parent broadcasts the tree");
                            self.absorb_tree(tree);
                        }
                        Duty::BcRecv(_) => {
                            let edges = inbox.iter().find_map(|e| match &e.msg {
                                L15Msg::EdgeDown(t) if Some(e.from) == self.p2 => {
                                    Some(Arc::clone(t))
                                }
                                _ => None,
                            });
                            let edges = edges.expect("parent broadcasts the edges");
                            self.absorb_edges(edges);
                            self.maybe_schedule_linial();
                        }
                        Duty::Info4 => {
                            self.same_cluster_nbrs = inbox
                                .iter()
                                .filter_map(|e| match &e.msg {
                                    L15Msg::Info4(l) if *l == self.l_aux => Some(e.from),
                                    _ => None,
                                })
                                .collect();
                            self.same_cluster_nbrs.sort_unstable();
                            self.bag_edges =
                                Arc::new(vec![(self.label, self.same_cluster_nbrs.clone())]);
                            // Singleton clusters already know everything.
                            if self.p2.is_none() && self.children.is_empty() {
                                self.absorb_edges(Arc::clone(&self.bag_edges));
                                self.maybe_schedule_linial();
                            }
                        }
                        Duty::Lin(t) => {
                            self.lin_nbrs.clear();
                            self.lin_nbrs
                                .extend(inbox.iter().filter_map(|e| match &e.msg {
                                    L15Msg::Lin(c) => Some(*c),
                                    _ => None,
                                }));
                            if let Some(step) = self.lin_steps.get(t as usize).copied() {
                                self.lin_color =
                                    linial::reduce_color(self.lin_color, &self.lin_nbrs, step);
                            }
                        }
                        Duty::CcSend(_) | Duty::BcSend(_) => {}
                    }
                }
                self.next_action(vround)
            }
        }
    }

    fn output(&self) -> Option<Lemma15Out> {
        self.out.clone()
    }
}

impl Codec for TreeRec {
    fn encode(&self, w: &mut Writer) {
        self.label.encode(w);
        self.c2.encode(w);
        self.p2.encode(w);
        self.deg_h.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(TreeRec {
            label: r.get()?,
            c2: r.get()?,
            p2: r.get()?,
            deg_h: r.get()?,
        })
    }
}

impl Codec for Lemma15Out {
    fn encode(&self, w: &mut Writer) {
        self.gamma.encode(w);
        self.delta.encode(w);
        self.l_aux.encode(w);
        self.in_u.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(Lemma15Out {
            gamma: r.get()?,
            delta: r.get()?,
            l_aux: r.get()?,
            in_u: r.get()?,
        })
    }
}

impl Codec for Duty {
    fn encode(&self, w: &mut Writer) {
        match self {
            Duty::CcRecv(p) => (0u8, *p).encode(w),
            Duty::CcSend(p) => (1u8, *p).encode(w),
            Duty::BcRecv(p) => (2u8, *p).encode(w),
            Duty::BcSend(p) => (3u8, *p).encode(w),
            Duty::Info4 => (4u8, 0u8).encode(w),
            Duty::Lin(t) => {
                (5u8, 0u8).encode(w);
                t.encode(w);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        let (tag, p): (u8, u8) = r.get()?;
        Ok(match tag {
            0 => Duty::CcRecv(p),
            1 => Duty::CcSend(p),
            2 => Duty::BcRecv(p),
            3 => Duty::BcSend(p),
            4 => Duty::Info4,
            5 => Duty::Lin(r.get()?),
            _ => return Err(CheckpointError::Corrupt("Duty tag")),
        })
    }
}

impl Codec for L15Msg {
    fn encode(&self, w: &mut Writer) {
        match self {
            L15Msg::Info1(c) => {
                0u8.encode(w);
                c.encode(w);
            }
            L15Msg::Info2(t) => {
                1u8.encode(w);
                t.encode(w);
            }
            L15Msg::Info3(c, p) => {
                2u8.encode(w);
                c.encode(w);
                p.encode(w);
            }
            L15Msg::TreeUp(v) => {
                3u8.encode(w);
                v.encode(w);
            }
            L15Msg::TreeDown(v) => {
                4u8.encode(w);
                v.encode(w);
            }
            L15Msg::Info4(l) => {
                5u8.encode(w);
                l.encode(w);
            }
            L15Msg::EdgeUp(v) => {
                6u8.encode(w);
                v.encode(w);
            }
            L15Msg::EdgeDown(v) => {
                7u8.encode(w);
                v.encode(w);
            }
            L15Msg::Lin(c) => {
                8u8.encode(w);
                c.encode(w);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(match u8::decode(r)? {
            0 => L15Msg::Info1(r.get()?),
            1 => L15Msg::Info2(r.get()?),
            2 => L15Msg::Info3(r.get()?, r.get()?),
            3 => L15Msg::TreeUp(r.get()?),
            4 => L15Msg::TreeDown(r.get()?),
            5 => L15Msg::Info4(r.get()?),
            6 => L15Msg::EdgeUp(r.get()?),
            7 => L15Msg::EdgeDown(r.get()?),
            8 => L15Msg::Lin(r.get()?),
            _ => return Err(CheckpointError::Corrupt("L15Msg tag")),
        })
    }
}

/// Dynamic state: everything the phase's receive handlers mutate. The
/// config, the label, the `H`-neighborhood, `c₁`, and the Linial schedule
/// are pure functions of the constructor inputs and are rebuilt by the
/// simulator's factory before `restore` overlays the rest.
impl Persist for Lemma15Vertex {
    fn save(&self, w: &mut Writer) {
        self.nbr_c1.encode(w);
        self.nbr_tables.encode(w);
        self.p1.encode(w);
        self.shift.encode(w);
        self.c2.encode(w);
        self.p2.encode(w);
        self.p2_c2.encode(w);
        self.children.encode(w);
        self.bag_tree.encode(w);
        self.tree.encode(w);
        self.l_aux.encode(w);
        self.in_u.encode(w);
        self.same_cluster_nbrs.encode(w);
        self.bag_edges.encode(w);
        self.edges.encode(w);
        self.delta_aux.encode(w);
        self.lin_color.encode(w);
        self.agenda.encode(w);
        self.out.encode(w);
    }
    fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), CheckpointError> {
        self.nbr_c1 = r.get()?;
        self.nbr_tables = r.get()?;
        self.p1 = r.get()?;
        self.shift = r.get()?;
        self.c2 = r.get()?;
        self.p2 = r.get()?;
        self.p2_c2 = r.get()?;
        self.children = r.get()?;
        self.bag_tree = r.get()?;
        self.tree = r.get()?;
        self.l_aux = r.get()?;
        self.in_u = r.get()?;
        self.same_cluster_nbrs = r.get()?;
        self.bag_edges = r.get()?;
        self.edges = r.get()?;
        self.delta_aux = r.get()?;
        self.lin_color = r.get()?;
        self.agenda = r.get()?;
        self.out = r.get()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use awake_graphs::rng::Rng;

    /// The arc-sorting search `bfs_depth` replaced: both directions of every
    /// listed pair as one sorted arc vector, `(label, distance)` sorted by
    /// label.
    fn bfs_depth_by_sorted_arcs(
        tree: &[TreeRec],
        edges: &[(u64, Vec<u64>)],
        root: u64,
        target: u64,
    ) -> Option<u32> {
        let mut arcs: Vec<(u64, u64)> = edges
            .iter()
            .flat_map(|(l, nbrs)| nbrs.iter().flat_map(move |&w| [(*l, w), (w, *l)]))
            .collect();
        arcs.sort_unstable();
        let mut dist: Vec<(u64, u32)> = tree.iter().map(|r| (r.label, u32::MAX)).collect();
        dist.sort_unstable();
        let slot = |dist: &[(u64, u32)], l: u64| dist.binary_search_by_key(&l, |e| e.0).ok();
        let r = slot(&dist, root)?;
        dist[r].1 = 0;
        let mut queue = vec![root];
        let mut head = 0;
        while let Some(&x) = queue.get(head) {
            head += 1;
            let dx = dist[slot(&dist, x)?].1;
            let from = arcs.partition_point(|a| a.0 < x);
            for &(_, w) in arcs[from..].iter().take_while(|a| a.0 == x) {
                if let Some(i) = slot(&dist, w) {
                    if dist[i].1 == u32::MAX {
                        dist[i].1 = dx + 1;
                        queue.push(w);
                    }
                }
            }
        }
        slot(&dist, target)
            .map(|i| dist[i].1)
            .filter(|&d| d != u32::MAX)
    }

    /// A random cluster: `k` members with distinct labels, a random
    /// spanning tree over the first `reach` of them and another over the
    /// rest (unreachable from the first part), plus extra random edges
    /// inside each part. Lists are symmetric, sorted and in random order.
    fn random_cluster(
        rng: &mut Rng,
        k: usize,
        reach: usize,
    ) -> (Vec<TreeRec>, Vec<(u64, Vec<u64>)>) {
        let mut labels: Vec<u64> = (1..=4 * k as u64).collect();
        rng.shuffle(&mut labels);
        labels.truncate(k);
        let part = |i: usize| i < reach;
        let mut adj: Vec<Vec<u64>> = vec![vec![]; k];
        let link = |adj: &mut Vec<Vec<u64>>, i: usize, j: usize| {
            if i != j && !adj[i].contains(&labels[j]) {
                adj[i].push(labels[j]);
                adj[j].push(labels[i]);
            }
        };
        for i in 1..k {
            let lo = if part(i) { 0 } else { reach };
            if i > lo {
                let j = lo + rng.gen_range(0..i - lo);
                link(&mut adj, i, j);
            }
        }
        for _ in 0..k {
            let (i, j) = (rng.gen_range(0..k), rng.gen_range(0..k));
            if part(i) == part(j) {
                link(&mut adj, i, j);
            }
        }
        let tree: Vec<TreeRec> = labels
            .iter()
            .map(|&label| TreeRec {
                label,
                c2: 0,
                p2: None,
                deg_h: 0,
            })
            .collect();
        let mut edges: Vec<(u64, Vec<u64>)> = labels
            .iter()
            .zip(adj)
            .map(|(&l, mut nbrs)| {
                nbrs.sort_unstable();
                (l, nbrs)
            })
            .collect();
        rng.shuffle(&mut edges);
        (tree, edges)
    }

    #[test]
    fn bfs_depth_matches_the_sorted_arc_search() {
        let mut rng = Rng::seed_from_u64(15);
        let mut found = 0;
        let mut none = 0;
        for _ in 0..300 {
            let k = 1 + rng.gen_range(0..30);
            let reach = 1 + rng.gen_range(0..k);
            let (tree, edges) = random_cluster(&mut rng, k, reach);
            let root = tree[rng.gen_range(0..reach)].label;
            // Every member, plus labels outside `tree`.
            let targets = tree.iter().map(|r| r.label).chain([0, 4 * k as u64 + 1]);
            for target in targets {
                let want = bfs_depth_by_sorted_arcs(&tree, &edges, root, target);
                assert_eq!(
                    bfs_depth(&tree, &edges, root, target),
                    want,
                    "k={k} reach={reach} root={root} target={target}"
                );
                if want.is_some() {
                    found += 1;
                } else {
                    none += 1;
                }
            }
            // A root outside `tree` reaches nothing.
            assert_eq!(bfs_depth(&tree, &edges, 0, tree[0].label), None);
        }
        assert!(
            found > 1000 && none > 1000,
            "both outcomes exercised: {found} / {none}"
        );
    }
}
