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
//!    pass with labels `c₂` under the bound `N₆`, scheduled by the Lemma 6
//!    slot), so every vertex learns its tree, its root `ℓ_aux`, and whether
//!    the root has degree ≤ `b` (the set `U`);
//! 4. exchanges cluster membership and runs a second pass carrying
//!    intra-cluster edges, so `δ_aux` is the *exact* BFS distance within
//!    the cluster (Definition 2), computed from the gathered edges rather
//!    than read off the `F₂` tree. Every member computes it in the model;
//!    the simulator runs one BFS per tree, memoized on the shared
//!    [`EdgeSet`] the broadcast forwards, and every later member holding
//!    the same set and tree reads its depth from that table;
//! 5. vertices in `U` run Linial on `H[U]` (degree ≤ `b`) down to the
//!    `a·b²` palette and become singleton clusters of that color; the
//!    rest form the uniquely-labeled part, `≤ n_H/b` many clusters.

use crate::gather::append_unseen;
use crate::lemma6::Slot;
use crate::linial::{self, Step};
use crate::params::Params;
use crate::virt::{VEnvelope, VOutgoing, VertexInput, VirtualProgram};
use awake_sleeping::{codec, persist, Action, CheckpointError, Codec, Reader, Round, Writer};
use std::sync::{Arc, OnceLock, Weak};

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
    /// The phase Theorem 13 runs at `iteration` under `p`.
    pub fn at(p: &Params, iteration: u32) -> Self {
        Lemma15Config {
            b: p.b,
            label_bound: p.label_bound(iteration),
            ab2: p.ab2,
        }
    }
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

/// What every vertex of one Lemma 15 stage reads: the phase parameters and
/// the Linial schedule on `H[U]`, computed once and shared. A clone costs
/// one reference-count increment, so a stage's factory hands each replica
/// a clone instead of a schedule of its own.
#[derive(Debug, Clone)]
pub struct Lemma15Stage {
    cfg: Lemma15Config,
    lin_steps: Arc<[Step]>,
}

/// The stage of `cfg`, with its schedule computed here.
impl From<Lemma15Config> for Lemma15Stage {
    fn from(cfg: Lemma15Config) -> Self {
        Lemma15Stage {
            cfg,
            lin_steps: cfg.lin_steps().into(),
        }
    }
}

/// A shared value a vertex learns partway through the phase. Until then it
/// holds nothing and allocates nothing, and it encodes like `T::default()`,
/// the placeholder it replaces, so a snapshot reads the same bytes either
/// way; a decoded one always holds its value.
#[derive(Debug, Clone)]
struct Late<T>(Option<Arc<T>>);

impl<T> Late<T> {
    /// The value; the phase reads it only after the round that sets it.
    fn get(&self) -> &Arc<T> {
        self.0
            .as_ref()
            .expect("a late value is read after it is set")
    }

    /// The value, for a change that must not reach its other holders
    /// ([`Arc::make_mut`]).
    fn make_mut(&mut self) -> &mut T
    where
        T: Clone,
    {
        Arc::make_mut(
            self.0
                .as_mut()
                .expect("a late value is extended after it is set"),
        )
    }
}

impl<T> Default for Late<T> {
    fn default() -> Self {
        Late(None)
    }
}

impl<T> From<Arc<T>> for Late<T> {
    fn from(v: Arc<T>) -> Self {
        Late(Some(v))
    }
}

impl<T: Codec + Default> Codec for Late<T> {
    fn encode(&self, w: &mut Writer) {
        match &self.0 {
            Some(v) => v.encode(w),
            None => T::default().encode(w),
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(Late(Some(r.get()?)))
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

/// A vertex's `(neighbor label, its c₁)` pairs, ascending by label: its
/// 2-hop table once sent.
pub type Table = Arc<Vec<(u64, u64)>>;

/// One vertex's record on the second pass: its label and its
/// same-cluster neighbors' labels, ascending. The list is shared by every
/// bag that carries the record.
pub type EdgeRec = (u64, Arc<Vec<u64>>);

/// Adjacency lists as the second pass carries them, with the `F₂` tree's
/// BFS depths memoized on the allocation.
///
/// The memo is derived data: it is never encoded (a set encodes exactly
/// like its record vector and decodes with an empty memo), never compared,
/// and adding a record drops it.
#[derive(Debug, Clone, Default)]
pub struct EdgeSet {
    recs: Vec<EdgeRec>,
    /// Boxed: every vertex holds a set of its own until the broadcast, and
    /// only one per tree fills its memo.
    depths: OnceLock<Box<TreeDepths>>,
}

/// A depth table with the tree and root it was computed for. The tree
/// pointer is `Weak`, as in Theorem 9's decision: it keeps the address
/// from being reused while the table lives, without keeping the tree.
#[derive(Debug, Clone)]
struct TreeDepths {
    tree: Weak<Vec<TreeRec>>,
    root: u64,
    table: DepthTable,
}

impl EdgeSet {
    /// The records, in arrival order.
    pub(crate) fn records(&self) -> &[EdgeRec] {
        &self.recs
    }

    /// Append the incoming records whose label the set does not hold yet
    /// (first arrival wins), dropping the memo.
    fn append_unseen<'a>(&mut self, incoming: impl IntoIterator<Item = &'a EdgeRec>) {
        self.depths = OnceLock::new();
        append_unseen(&mut self.recs, incoming, |r| r.0);
    }

    /// The BFS depth of `target` from `root` over these lists, restricted
    /// to the members of `tree` ([`DepthTable::new`]). The first caller
    /// fills the memo for its `(tree, root)`; a caller holding another
    /// tree allocation or root computes a table of its own.
    fn depth(&self, tree: &Arc<Vec<TreeRec>>, root: u64, target: u64) -> Option<u32> {
        let memo = self.depths.get_or_init(|| {
            Box::new(TreeDepths {
                tree: Arc::downgrade(tree),
                root,
                table: DepthTable::new(tree, &self.recs, root),
            })
        });
        if memo.root == root && std::ptr::eq(memo.tree.as_ptr(), Arc::as_ptr(tree)) {
            memo.table.get(target)
        } else {
            DepthTable::new(tree, &self.recs, root).get(target)
        }
    }
}

impl From<Vec<EdgeRec>> for EdgeSet {
    fn from(recs: Vec<EdgeRec>) -> Self {
        EdgeSet {
            recs,
            depths: OnceLock::new(),
        }
    }
}

impl PartialEq for EdgeSet {
    fn eq(&self, other: &Self) -> bool {
        self.recs == other.recs
    }
}

/// BFS depths from one root over a tree's adjacency lists.
#[derive(Debug, Clone)]
struct DepthTable {
    /// The tree's labels, ascending.
    labels: Vec<u64>,
    /// Each label's depth, `u32::MAX` where unreached.
    dist: Vec<u32>,
}

impl DepthTable {
    /// Search from `root` over the adjacency lists `edges`, restricted to
    /// the members of `tree`; nothing is reached when `root` is not a
    /// member. The lists are symmetric (both ends of a same-cluster edge
    /// list each other), so the search follows them directly, with the
    /// members indexed by the label-sorted vector.
    fn new(tree: &[TreeRec], edges: &[EdgeRec], root: u64) -> Self {
        #[cfg(test)]
        tests::TABLES_BUILT.with(|n| n.set(n.get() + 1));
        let mut labels: Vec<u64> = tree.iter().map(|r| r.label).collect();
        labels.sort_unstable();
        let mut dist = vec![u32::MAX; labels.len()];
        let slot = |l: u64| labels.binary_search(&l).ok();
        if let Some(r) = slot(root) {
            let mut adj: Vec<&[u64]> = vec![&[]; labels.len()];
            for (l, nbrs) in edges {
                if let Some(i) = slot(*l) {
                    adj[i] = nbrs;
                }
            }
            dist[r] = 0;
            let mut queue = vec![r];
            let mut head = 0;
            while let Some(&x) = queue.get(head) {
                head += 1;
                for &w in adj[x] {
                    if let Some(i) = slot(w) {
                        if dist[i] == u32::MAX {
                            dist[i] = dist[x] + 1;
                            queue.push(i);
                        }
                    }
                }
            }
        }
        DepthTable { labels, dist }
    }

    /// The depth of `label`; `None` for a non-member or an unreached one.
    fn get(&self, label: u64) -> Option<u32> {
        let i = self.labels.binary_search(&label).ok()?;
        Some(self.dist[i]).filter(|&d| d != u32::MAX)
    }
}

/// Virtual messages of the phase.
#[derive(Debug, Clone, PartialEq)]
pub enum L15Msg {
    /// `c₁` announcement.
    Info1(u64),
    /// 2-hop table: `(neighbor label, its c₁)` pairs.
    Info2(Table),
    /// `(c₂, p₂)` announcement.
    Info3(u64, Option<u64>),
    /// Convergecast bag of tree records.
    TreeUp(Arc<Vec<TreeRec>>),
    /// Broadcast of the completed tree.
    TreeDown(Arc<Vec<TreeRec>>),
    /// Cluster membership announcement (`ℓ_aux`).
    Info4(u64),
    /// Convergecast bag of intra-cluster adjacency lists.
    EdgeUp(Arc<EdgeSet>),
    /// Broadcast of the cluster's full adjacency.
    EdgeDown(Arc<EdgeSet>),
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
    c1: u64,
    /// The neighbors' `c₁`, sent on as this vertex's 2-hop table.
    nbr_c1: Late<Vec<(u64, u64)>>,
    /// `(neighbor label, its 2-hop table)`, ascending by label.
    nbr_tables: Vec<(u64, Table)>,
    p1: Option<u64>,
    shift: u64,
    c2: u64,
    p2: Option<u64>,
    p2_c2: Option<u64>,
    children: Vec<u64>,
    /// Tree records gathered so far on the first convergecast.
    bag_tree: Late<Vec<TreeRec>>,
    /// The whole `F₂` tree, shared with the message that delivered it.
    tree: Late<Vec<TreeRec>>,
    l_aux: u64,
    in_u: bool,
    /// Same-cluster neighbors, ascending: this vertex's own edge record.
    same_cluster_nbrs: Late<Vec<u64>>,
    /// Adjacency lists gathered so far on the second convergecast.
    bag_edges: Late<EdgeSet>,
    /// The cluster's full adjacency, shared like `tree`.
    edges: Late<EdgeSet>,
    delta_aux: u32,
    lin_color: u64,
    /// The stage's Linial schedule, shared by all its vertices.
    lin_steps: Arc<[Step]>,
    /// Pooled neighbor-color scratch of the Linial duty (transient).
    lin_nbrs: Vec<u64>,
    agenda: std::collections::VecDeque<(Round, Duty)>,
    out: Option<Lemma15Out>,
}

impl Lemma15Vertex {
    /// Build the vertex program from its stage and the gathered cluster
    /// input. `stage` is a [`Lemma15Stage`], whose schedule the vertex
    /// shares, or a [`Lemma15Config`], which computes a schedule for this
    /// vertex alone. The fields the phase fills in later start empty and
    /// allocate nothing until then.
    pub fn new(stage: impl Into<Lemma15Stage>, input: &VertexInput<()>) -> Self {
        let Lemma15Stage { cfg, lin_steps } = stage.into();
        let label = input.label;
        assert!(
            label <= cfg.label_bound,
            "label {label} exceeds bound {}",
            cfg.label_bound
        );
        let deg_h = input.h_degree() as u64;
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
            c1,
            nbr_c1: Late::default(),
            nbr_tables: Vec::new(),
            p1: None,
            shift: 0,
            c2: 0,
            p2: None,
            p2_c2: None,
            children: Vec::new(),
            bag_tree: Late::default(),
            tree: Late::default(),
            l_aux: 0,
            in_u: false,
            same_cluster_nbrs: Late::default(),
            bag_edges: Late::default(),
            edges: Late::default(),
            delta_aux: 0,
            lin_color: 0,
            lin_steps,
            lin_nbrs: Vec::new(),
            agenda: Default::default(),
            out: None,
        }
    }

    /// Agenda for the two Lemma 6 passes over `F₂`, labeled by `c₂` under
    /// the bound `N₆`, built once `c₂(p₂)` and the children are known
    /// (after virtual round 3).
    fn build_tree_agenda(&mut self) {
        let cfg = self.cfg;
        let mut ag: Vec<(Round, Duty)> = vec![(cfg.base3(), Duty::Info4)];
        for (pass, up, down) in [(0, cfg.base1(), cfg.base2()), (1, cfg.base4(), cfg.base5())] {
            let slot = Slot::new(up, down, cfg.n6(), self.c2, self.p2_c2);
            if !self.children.is_empty() {
                ag.push((slot.collect(), Duty::CcRecv(pass)));
                ag.push((slot.rebroadcast(), Duty::BcSend(pass)));
            }
            if let (Some(f), Some(r)) = (slot.forward(), slot.receive()) {
                ag.push((f, Duty::CcSend(pass)));
                ag.push((r, Duty::BcRecv(pass)));
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
        let root = tree
            .iter()
            .find(|r| r.p2.is_none())
            .expect("every F₂ tree has a root");
        self.l_aux = root.label;
        self.in_u = root.deg_h <= self.cfg.b;
        self.tree = tree.into();
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

    /// Once the cluster's adjacency is known, read the exact BFS depth
    /// off the set's depth table.
    fn absorb_edges(&mut self, edges: Arc<EdgeSet>) {
        self.delta_aux = if self.label == self.l_aux {
            0
        } else {
            edges
                .depth(self.tree.get(), self.l_aux, self.label)
                .expect("cluster is connected through p₂/tree edges")
        };
        self.edges = edges.into();
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

/// A vertex's Lemma 15 pointers: `p₁`, the shift `b(v)`, `c₂` and `p₂`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pointers {
    p1: Option<u64>,
    shift: u64,
    c2: u64,
    p2: Option<u64>,
}

/// Choose the pointers of vertex `label` with color `c1` from its
/// neighbors' colors `nbr_c1` and their 2-hop tables `nbr_tables`, each
/// ascending by label with one entry per neighbor. A table lists a
/// neighbor's own `nbr_c1`, and every table reports the same `c₁` for a
/// given label, so the smallest `(c₁, label)` over all table entries
/// outside `N[v]` is the smallest over `N²(v)`.
fn compute_pointers(
    label: u64,
    c1: u64,
    nbr_c1: &[(u64, u64)],
    nbr_tables: &[(u64, Table)],
) -> Pointers {
    let has = |table: &[(u64, u64)], w: u64| table.binary_search_by_key(&w, |e| e.0).is_ok();
    // N(v): smallest c₁ strictly below ours.
    if let Some((c, l)) = nbr_c1.iter().map(|&(l, c)| (c, l)).min() {
        if c < c1 {
            return Pointers {
                p1: Some(l),
                shift: 0,
                c2: 2 * c,
                p2: Some(l),
            };
        }
    }
    // N²(v): strictly-2-away vertices from the tables.
    let best2 = nbr_tables
        .iter()
        .flat_map(|(_, table)| table.iter())
        .filter(|&&(w, _)| w != label && !has(nbr_c1, w))
        .map(|&(w, c)| (c, w))
        .min();
    if let Some((c, l)) = best2 {
        if c < c1 {
            // p₂: smallest-label common neighbor u ∈ N(v) ∩ N(p₁(v)).
            let (u, _) = nbr_tables
                .iter()
                .find(|(_, table)| has(table, l))
                .expect("a 2-hop parent is reachable through a common neighbor");
            return Pointers {
                p1: Some(l),
                shift: 1,
                c2: 2 * c + 1,
                p2: Some(*u),
            };
        }
    }
    // Local minimum of c₁ in N ∪ N²: a root.
    Pointers {
        p1: None,
        shift: 0,
        c2: 0,
        p2: None,
    }
}

impl VirtualProgram for Lemma15Vertex {
    type Msg = L15Msg;
    type Output = Lemma15Out;
    type Payload = ();

    fn send(&mut self, vround: Round, out: &mut Vec<VOutgoing<L15Msg>>) {
        match vround {
            1 => out.push(VOutgoing::Broadcast(L15Msg::Info1(self.c1))),
            2 => out.push(VOutgoing::Broadcast(L15Msg::Info2(Arc::clone(
                self.nbr_c1.get(),
            )))),
            3 => out.push(VOutgoing::Broadcast(L15Msg::Info3(self.c2, self.p2))),
            _ => {
                for i in 0..self.agenda.len() {
                    let Some(duty) = self.duty_at(i, vround) else {
                        continue;
                    };
                    match duty {
                        Duty::CcSend(0) => out.push(VOutgoing::ToCluster(
                            self.p2.expect("cc send implies a parent"),
                            L15Msg::TreeUp(Arc::clone(self.bag_tree.get())),
                        )),
                        Duty::CcSend(_) => out.push(VOutgoing::ToCluster(
                            self.p2.expect("cc send implies a parent"),
                            L15Msg::EdgeUp(Arc::clone(self.bag_edges.get())),
                        )),
                        Duty::BcSend(0) => out.push(VOutgoing::Broadcast(L15Msg::TreeDown(
                            Arc::clone(self.tree.get()),
                        ))),
                        Duty::BcSend(_) => out.push(VOutgoing::Broadcast(L15Msg::EdgeDown(
                            Arc::clone(self.edges.get()),
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
            // The inbox is sorted by sender, one message per neighbor.
            1 => {
                let c1s = inbox.iter().filter_map(|e| match e.msg {
                    L15Msg::Info1(c1) => Some((e.from, c1)),
                    _ => None,
                });
                self.nbr_c1 = Arc::new(c1s.collect::<Vec<_>>()).into();
                debug_assert_eq!(
                    self.nbr_c1.get().len() as u64,
                    self.deg_h,
                    "every neighbor reports c₁"
                );
                Action::Stay
            }
            2 => {
                self.nbr_tables = inbox
                    .iter()
                    .filter_map(|e| match &e.msg {
                        L15Msg::Info2(t) => Some((e.from, Arc::clone(t))),
                        _ => None,
                    })
                    .collect();
                let p = compute_pointers(self.label, self.c1, self.nbr_c1.get(), &self.nbr_tables);
                (self.p1, self.shift, self.c2, self.p2) = (p.p1, p.shift, p.c2, p.p2);
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
                self.bag_tree = Arc::new(vec![self.tree_rec()]).into();
                self.build_tree_agenda();
                // A singleton root's tree is itself; it schedules Linial
                // at the Info4 round, once its adjacency is known too.
                if self.p2.is_none() && self.children.is_empty() {
                    self.absorb_tree(Arc::clone(self.bag_tree.get()));
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
                            append_unseen(self.bag_tree.make_mut(), recs.flatten(), |r| r.label);
                            if self.p2.is_none() {
                                // Root: the tree is complete.
                                self.absorb_tree(Arc::clone(self.bag_tree.get()));
                            }
                        }
                        Duty::CcRecv(_) => {
                            let recs = inbox.iter().filter_map(|e| match &e.msg {
                                L15Msg::EdgeUp(recs) if self.children.contains(&e.from) => {
                                    Some(recs.records().iter())
                                }
                                _ => None,
                            });
                            self.bag_edges.make_mut().append_unseen(recs.flatten());
                            if self.p2.is_none() {
                                self.absorb_edges(Arc::clone(self.bag_edges.get()));
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
                            let mut nbrs: Vec<u64> = inbox
                                .iter()
                                .filter_map(|e| match &e.msg {
                                    L15Msg::Info4(l) if *l == self.l_aux => Some(e.from),
                                    _ => None,
                                })
                                .collect();
                            nbrs.sort_unstable();
                            let nbrs = Arc::new(nbrs);
                            let rec = (self.label, Arc::clone(&nbrs));
                            self.same_cluster_nbrs = nbrs.into();
                            self.bag_edges = Arc::new(EdgeSet::from(vec![rec])).into();
                            // Singleton clusters already know everything.
                            if self.p2.is_none() && self.children.is_empty() {
                                self.absorb_edges(Arc::clone(self.bag_edges.get()));
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

codec!(struct TreeRec { label, c2, p2, deg_h });

codec!(struct Lemma15Out { gamma, delta, l_aux, in_u });

impl Codec for EdgeSet {
    fn encode(&self, w: &mut Writer) {
        self.recs.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(EdgeSet::from(r.get::<Vec<EdgeRec>>()?))
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

codec!(enum L15Msg {
    0 => Info1(c),
    1 => Info2(t),
    2 => Info3(c, p),
    3 => TreeUp(v),
    4 => TreeDown(v),
    5 => Info4(l),
    6 => EdgeUp(v),
    7 => EdgeDown(v),
    8 => Lin(c),
});

persist! {
    /// Dynamic state: everything the phase's receive handlers mutate. The
    /// config, the label, the `H`-neighborhood, `c₁`, and the Linial schedule
    /// are pure functions of the constructor inputs and are rebuilt by the
    /// simulator's factory before `restore` overlays the rest.
    Lemma15Vertex {
        nbr_c1,
        nbr_tables,
        p1,
        shift,
        c2,
        p2,
        p2_c2,
        children,
        bag_tree,
        tree,
        l_aux,
        in_u,
        same_cluster_nbrs,
        bag_edges,
        edges,
        delta_aux,
        lin_color,
        agenda,
        out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clustering::Clustering;
    use crate::virt::{virt_rounds, VirtSim};
    use awake_graphs::rng::Rng;
    use awake_graphs::{generators, Graph};
    use awake_sleeping::{Config, Engine, Persist, RunSpec};
    use std::cell::Cell;
    use std::collections::BTreeMap;

    thread_local! {
        /// Depth tables built on this thread.
        pub(super) static TABLES_BUILT: Cell<usize> = const { Cell::new(0) };
    }

    /// The arc-sorting search the depth table replaced: both directions of
    /// every listed pair as one sorted arc vector, `(label, distance)`
    /// sorted by label.
    fn bfs_depth_by_sorted_arcs(
        tree: &[TreeRec],
        edges: &[EdgeRec],
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
    fn random_cluster(rng: &mut Rng, k: usize, reach: usize) -> (Vec<TreeRec>, Vec<EdgeRec>) {
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
        let mut edges: Vec<EdgeRec> = labels
            .iter()
            .zip(adj)
            .map(|(&l, mut nbrs)| {
                nbrs.sort_unstable();
                (l, Arc::new(nbrs))
            })
            .collect();
        rng.shuffle(&mut edges);
        (tree, edges)
    }

    /// The two-hop-map search `compute_pointers` replaced, over the
    /// neighbor labels and `BTreeMap`s keyed by label: each strictly
    /// 2-away vertex once, with the `c₁` of the first table listing it.
    fn pointers_by_two_hop_map(
        label: u64,
        c1: u64,
        nbr_labels: &[u64],
        nbr_c1: &BTreeMap<u64, u64>,
        nbr_tables: &BTreeMap<u64, Table>,
    ) -> Pointers {
        let best_nbr = nbr_labels.iter().map(|&l| (nbr_c1[&l], l)).min();
        if let Some((c, l)) = best_nbr {
            if c < c1 {
                return Pointers {
                    p1: Some(l),
                    shift: 0,
                    c2: 2 * c,
                    p2: Some(l),
                };
            }
        }
        let mut two_hop: BTreeMap<u64, u64> = BTreeMap::new();
        for table in nbr_tables.values() {
            for &(w, c) in table.iter() {
                if w != label && !nbr_labels.contains(&w) {
                    two_hop.entry(w).or_insert(c);
                }
            }
        }
        let best2 = two_hop.iter().map(|(&l, &c)| (c, l)).min();
        if let Some((c, l)) = best2 {
            if c < c1 {
                let u = nbr_labels
                    .iter()
                    .copied()
                    .find(|&u| {
                        nbr_tables
                            .get(&u)
                            .is_some_and(|t| t.iter().any(|&(w, _)| w == l))
                    })
                    .expect("a common neighbor");
                return Pointers {
                    p1: Some(l),
                    shift: 1,
                    c2: 2 * c + 1,
                    p2: Some(u),
                };
            }
        }
        Pointers {
            p1: None,
            shift: 0,
            c2: 0,
            p2: None,
        }
    }

    #[test]
    fn pointers_match_the_two_hop_map_reference() {
        let mut rng = Rng::seed_from_u64(16);
        let (mut one_hop, mut two_hop, mut roots) = (0, 0, 0);
        for _ in 0..300 {
            // A random `H` on `k` distinct labels; `c₁` values may tie.
            let k = 1 + rng.gen_range(0..24);
            let pct = 5 + rng.gen_range(0..40);
            let mut labels: Vec<u64> = (1..=4 * k as u64).collect();
            rng.shuffle(&mut labels);
            labels.truncate(k);
            let c1: Vec<u64> = (0..k).map(|_| 1 + rng.gen_range(0..2 * k) as u64).collect();
            let mut adj: Vec<Vec<usize>> = vec![vec![]; k];
            for i in 0..k {
                for j in i + 1..k {
                    if rng.gen_range(0..100) < pct {
                        adj[i].push(j);
                        adj[j].push(i);
                    }
                }
            }
            // Each vertex's table: its neighbors' `(label, c₁)`, sorted.
            let tables: Vec<Table> = adj
                .iter()
                .map(|nbrs| {
                    let mut t: Vec<(u64, u64)> = nbrs.iter().map(|&j| (labels[j], c1[j])).collect();
                    t.sort_unstable();
                    Arc::new(t)
                })
                .collect();
            for v in 0..k {
                let mut nbr_tables: Vec<(u64, Table)> = adj[v]
                    .iter()
                    .map(|&j| (labels[j], Arc::clone(&tables[j])))
                    .collect();
                nbr_tables.sort_unstable_by_key(|e| e.0);
                let got = compute_pointers(labels[v], c1[v], &tables[v], &nbr_tables);
                let nbr_labels: Vec<u64> = tables[v].iter().map(|e| e.0).collect();
                let want = pointers_by_two_hop_map(
                    labels[v],
                    c1[v],
                    &nbr_labels,
                    &tables[v].iter().copied().collect(),
                    &nbr_tables.iter().cloned().collect(),
                );
                assert_eq!(got, want, "k={k} vertex {} c₁={}", labels[v], c1[v]);
                match want.shift {
                    _ if want.p1.is_none() => roots += 1,
                    0 => one_hop += 1,
                    _ => two_hop += 1,
                }
            }
        }
        assert!(
            one_hop > 300 && two_hop > 300 && roots > 300,
            "every branch exercised: {one_hop} / {two_hop} / {roots}"
        );
    }

    #[test]
    fn depth_table_matches_the_sorted_arc_search() {
        let mut rng = Rng::seed_from_u64(15);
        let mut found = 0;
        let mut none = 0;
        for _ in 0..300 {
            let k = 1 + rng.gen_range(0..30);
            let reach = 1 + rng.gen_range(0..k);
            let (tree, edges) = random_cluster(&mut rng, k, reach);
            let root = tree[rng.gen_range(0..reach)].label;
            let table = DepthTable::new(&tree, &edges, root);
            // Every member, plus labels outside `tree`.
            let targets = tree.iter().map(|r| r.label).chain([0, 4 * k as u64 + 1]);
            for target in targets {
                let want = bfs_depth_by_sorted_arcs(&tree, &edges, root, target);
                assert_eq!(
                    table.get(target),
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
            let outside = DepthTable::new(&tree, &edges, 0);
            assert!(tree.iter().all(|r| outside.get(r.label).is_none()));
        }
        assert!(
            found > 1000 && none > 1000,
            "both outcomes exercised: {found} / {none}"
        );
    }

    /// A Lemma 15 vertex that also outputs the tree and the edge set it
    /// holds.
    struct Holding(Lemma15Vertex);

    type Held = (Lemma15Out, Arc<Vec<TreeRec>>, Arc<EdgeSet>);

    impl Persist for Holding {
        fn save(&self, w: &mut Writer) {
            self.0.save(w);
        }
        fn restore(&mut self, r: &mut Reader<'_>) -> Result<(), CheckpointError> {
            self.0.restore(r)
        }
    }

    impl VirtualProgram for Holding {
        type Msg = L15Msg;
        type Output = Held;
        type Payload = ();

        fn send(&mut self, vround: Round, out: &mut Vec<VOutgoing<L15Msg>>) {
            self.0.send(vround, out);
        }
        fn receive(&mut self, vround: Round, inbox: &[VEnvelope<L15Msg>]) -> Action {
            self.0.receive(vround, inbox)
        }
        fn output(&self) -> Option<Held> {
            let v = &self.0;
            let out = v.output()?;
            Some((out, Arc::clone(v.tree.get()), Arc::clone(v.edges.get())))
        }
    }

    /// The held outputs of Lemma 15 on the singleton clustering of `g`
    /// (one replica per vertex), run whole or resumed from a pause after
    /// physical round `pause`, with the depth tables the run built.
    fn run_holding(g: &Graph, pause: Option<Round>) -> (Vec<Held>, usize) {
        let params = Params::for_graph(g);
        let cfg = Lemma15Config::at(&params, 1);
        let db = params.depth_bound;
        let make = || -> Vec<_> {
            let factory = move |vi: &VertexInput<()>| Holding(Lemma15Vertex::new(cfg, vi));
            let cl = Clustering::singletons(g);
            g.nodes()
                .map(|v| {
                    let a = cl.assign[v.index()].unwrap();
                    VirtSim::participant(a.label, a.depth, g.ident(v), (), db, factory)
                })
                .collect()
        };
        let engine = Engine::new(g, Config::default());
        let snap = pause.map(|r| {
            let spec = RunSpec::default().pause_after(r);
            engine.run_spec(make(), &spec).unwrap().into_snapshot()
        });
        let before = TABLES_BUILT.with(Cell::get);
        let run = match &snap {
            Some(snap) => engine
                .run_spec(make(), &RunSpec::default().resume_from(snap))
                .unwrap()
                .finished(),
            None => engine.run(make()).unwrap(),
        };
        let built = TABLES_BUILT.with(Cell::get) - before;
        let held = run.outputs.into_iter().map(|o| o.unwrap()).collect();
        (held, built)
    }

    /// The held outputs grouped by `F₂` tree (by `ℓ_aux`).
    fn by_tree(held: &[Held]) -> BTreeMap<u64, Vec<&Held>> {
        let mut trees: BTreeMap<u64, Vec<&Held>> = BTreeMap::new();
        for h in held {
            trees.entry(h.0.l_aux).or_default().push(h);
        }
        trees
    }

    #[test]
    fn members_of_one_tree_share_one_edge_set_and_one_depth_table() {
        let mut restored_tables = 0;
        for seed in [1, 2, 3] {
            let g = generators::random_regular(64, 16, seed);
            let (fresh, built) = run_holding(&g, None);
            let trees = by_tree(&fresh);
            let mut multi = 0;
            for (l_aux, members) in &trees {
                let (_, tree, edges) = members[0];
                assert_eq!(tree.len(), members.len(), "seed {seed}: tree {l_aux}");
                for (_, t, e) in members {
                    assert!(Arc::ptr_eq(t, tree), "seed {seed}: tree {l_aux} shared");
                    assert!(Arc::ptr_eq(e, edges), "seed {seed}: edges {l_aux} shared");
                }
                if members.len() > 1 {
                    multi += 1;
                    let memo = edges.depths.get().expect("a member filled the table");
                    assert!(std::ptr::eq(memo.tree.as_ptr(), Arc::as_ptr(tree)));
                }
            }
            assert!(
                trees.values().any(|m| m.len() > 2),
                "seed {seed}: a deep tree"
            );
            assert_eq!(built, multi, "seed {seed}: one table per multi-member tree");

            // Pause once the root has broadcast the edges: its children hold
            // the set, and each restores a decoded copy of its own, which it
            // forwards to its subtree.
            let params = Params::for_graph(&g);
            let cfg = Lemma15Config::at(&params, 1);
            let pause = virt_rounds(params.depth_bound, cfg.base5());
            let (restored, built) = run_holding(&g, Some(pause));
            let outs = |h: &[Held]| h.iter().map(|h| h.0.clone()).collect::<Vec<_>>();
            assert_eq!(outs(&restored), outs(&fresh), "seed {seed}: same δ_aux");
            for members in by_tree(&restored).values() {
                let (_, _, edges) = members[0];
                let decoded = members.iter().any(|(_, _, e)| !Arc::ptr_eq(e, edges));
                let filled = members.iter().any(|(_, _, e)| e.depths.get().is_some());
                if decoded && filled {
                    restored_tables += 1;
                }
            }
            assert!(
                built > 0,
                "seed {seed}: restored members build their tables"
            );
        }
        assert!(
            restored_tables > 0,
            "a restored member filled the table of a decoded copy"
        );
    }
}
