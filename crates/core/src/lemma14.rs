//! Lemma 14 (Figure 2 of the paper): flattening a two-level clustering.
//!
//! Given a uniquely-labeled BFS-clustering `(ℓ, δ)` of `G` and a
//! uniquely-labeled BFS-clustering `(ℓ', δ')` of its virtual graph `H`
//! (every node knows its own cluster's `(ℓ'(ℓ(v)), δ'(ℓ(v)))`), compute
//! `(ℓ'', δ'')` on `G` whose virtual graph is `K`: merge every group of
//! clusters sharing an `ℓ'` into one, with **exact** BFS depths.
//!
//! Realization: a [`VirtualProgram`] on `H` (run through the Lemma 7
//! simulator). Each vertex selects its parent cluster `p'` (a neighbor
//! with the same `ℓ'` and `δ'` one smaller), then a convergecast +
//! broadcast along the resulting cluster-tree — scheduled by `δ'` depths —
//! circulates every member cluster's structure. Every node then knows the
//! entire merged cluster and computes `δ''` locally by BFS from the merged
//! root (the depth-0 node of the `δ' = 0` cluster). Awake complexity
//! `O(1)`; round complexity `O(n²)`.
//!
//! In the model every node still computes `δ''` itself. The simulator just
//! does not repeat identical work: the broadcast forwards one shared
//! [`RecordSet`], `δ''` is a pure function of it, so the first replica to
//! finish runs the BFS on the shared allocation and every later replica
//! holding the same allocation reads the result. Messages, awake counts
//! and snapshots are the same as if every replica computed it.

use crate::gather::append_unseen;
use crate::virt::{VEnvelope, VOutgoing, VertexInput, VirtualProgram};
use awake_sleeping::{codec, persist, Action, CheckpointError, Codec, Reader, Round, Writer};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// Payload each node contributes to the setup gather: its vertex's
/// `(ℓ', δ')` from the preceding Lemma 15 stage.
pub type L14Payload = (u64, u32);

/// Everything one vertex (= cluster of `G`) contributes to the merge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VertexRec {
    /// The cluster's label `ℓ`.
    pub label: u64,
    /// The merged label `ℓ'`.
    pub l2: u64,
    /// The cluster's depth `δ'` in the merged cluster of `H`.
    pub d2: u32,
    /// Members as `(ident, depth within this cluster)`.
    pub members: Vec<(u64, u32)>,
    /// `G`-edges inside the merged cluster incident to this cluster's
    /// members (intra-cluster edges and border edges to sibling clusters),
    /// as ident pairs.
    pub edges: Vec<(u64, u64)>,
}

/// Vertex records as the convergecast and the broadcast carry them, with
/// the merged cluster's depths memoized on the allocation.
///
/// The memo is derived data: it is never encoded (a set encodes exactly
/// like its record vector and decodes with an empty memo), never compared,
/// and adding a record drops it.
#[derive(Debug, Clone)]
pub struct RecordSet {
    recs: Vec<VertexRec>,
    depths: OnceLock<Arc<BTreeMap<u64, u32>>>,
}

impl RecordSet {
    /// The records, in arrival order.
    pub fn records(&self) -> &[VertexRec] {
        &self.recs
    }

    /// Append the incoming records whose label the set does not hold yet
    /// (first arrival wins), dropping the memo.
    fn append_unseen<'a>(&mut self, incoming: impl IntoIterator<Item = &'a VertexRec>) {
        self.depths = OnceLock::new();
        append_unseen(&mut self.recs, incoming, |r| r.label);
    }

    /// `δ''` per node ident: exact BFS depths in the merged cluster from
    /// the merged root, computed by the first caller on this allocation.
    ///
    /// # Panics
    /// If the records hold no root or the merged cluster is disconnected.
    pub fn depths(&self) -> &Arc<BTreeMap<u64, u32>> {
        self.depths
            .get_or_init(|| Arc::new(merged_depths(&self.recs)))
    }
}

impl From<Vec<VertexRec>> for RecordSet {
    fn from(recs: Vec<VertexRec>) -> Self {
        RecordSet {
            recs,
            depths: OnceLock::new(),
        }
    }
}

impl PartialEq for RecordSet {
    fn eq(&self, other: &Self) -> bool {
        self.recs == other.recs
    }
}

/// BFS from the merged root (the depth-0 member of the `δ' = 0` cluster)
/// over the `G`-edges the records carry.
fn merged_depths(recs: &[VertexRec]) -> BTreeMap<u64, u32> {
    let root_rec = recs
        .iter()
        .find(|r| r.d2 == 0)
        .expect("merged cluster has a root vertex");
    let root = root_rec
        .members
        .iter()
        .find(|&&(_, d)| d == 0)
        .map(|&(i, _)| i)
        .expect("root cluster has a depth-0 node");
    // The arcs in one flat vector sorted by tail.
    let mut arcs: Vec<(u64, u64)> = recs
        .iter()
        .flat_map(|r| r.edges.iter().flat_map(|&(a, b)| [(a, b), (b, a)]))
        .collect();
    arcs.sort_unstable();
    let mut depths: BTreeMap<u64, u32> = BTreeMap::new();
    depths.insert(root, 0);
    let mut queue = vec![(root, 0)];
    let mut head = 0;
    while let Some(&(x, dx)) = queue.get(head) {
        head += 1;
        let from = arcs.partition_point(|a| a.0 < x);
        for &(_, w) in arcs[from..].iter().take_while(|a| a.0 == x) {
            if let std::collections::btree_map::Entry::Vacant(e) = depths.entry(w) {
                e.insert(dx + 1);
                queue.push((w, dx + 1));
            }
        }
    }
    for r in recs {
        for &(m, _) in &r.members {
            assert!(
                depths.contains_key(&m),
                "merged cluster must be connected (ident {m})"
            );
        }
    }
    depths
}

/// Virtual messages.
#[derive(Debug, Clone, PartialEq)]
pub enum L14Msg {
    /// Convergecast bag of vertex records.
    Up(Arc<RecordSet>),
    /// Broadcast of the merged cluster's full record set.
    Down(Arc<RecordSet>),
}

/// Vertex output: the merged label and exact depths for every member of
/// the merged cluster, keyed by ident.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct L14Out {
    /// `ℓ''` (= `ℓ'`).
    pub l2: u64,
    /// `δ''` per node ident, shared by every output computed from the same
    /// record set.
    pub depths: Arc<BTreeMap<u64, u32>>,
}

/// The Lemma 14 vertex program.
pub struct TreeGatherVertex {
    depth_bound: u32,
    /// This vertex's merged label `ℓ'`.
    l2: u64,
    /// This vertex's depth `δ'` in the merged cluster.
    d2: u32,
    /// Parent cluster label (`None` for the `δ' = 0` root vertex).
    parent: Option<u64>,
    /// Records gathered so far on the convergecast; sent up as is.
    bag: Arc<RecordSet>,
    /// The merged cluster's records, shared with the message that
    /// delivered them and forwarded as is.
    all: Option<Arc<RecordSet>>,
    out: Option<L14Out>,
}

impl TreeGatherVertex {
    /// Build from the gathered vertex input. `depth_bound` bounds `δ'`
    /// (the public `n`).
    pub fn new(input: &VertexInput<L14Payload>, depth_bound: u32) -> Self {
        let (l2, d2) = input
            .members
            .values()
            .next()
            .map(|m| m.payload)
            .expect("non-empty cluster");
        debug_assert!(
            input.members.values().all(|m| m.payload == (l2, d2)),
            "all members carry their vertex's (ℓ', δ')"
        );
        let border = input.border_edges();
        // Parent selection: the smallest-(member, neighbor) border edge
        // into a cluster with our ℓ' and δ' − 1. All replicas agree.
        let parent = border
            .iter()
            .find(|b| b.4 == (l2, d2.wrapping_sub(1)))
            .map(|b| b.2);
        assert!(
            d2 == 0 || parent.is_some(),
            "a non-root cluster has a neighbor at depth δ'−1"
        );
        // G-edges within the merged cluster seen from this cluster:
        // intra edges + border edges into clusters with the same ℓ'.
        let mut edges = input.intra_edges();
        edges.extend(
            border
                .iter()
                .filter(|b| b.4 .0 == l2)
                .map(|&(mi, ni, ..)| (mi.min(ni), mi.max(ni))),
        );
        edges.sort_unstable();
        edges.dedup();
        let rec = VertexRec {
            label: input.label,
            l2,
            d2,
            members: input.members.values().map(|m| (m.ident, m.depth)).collect(),
            edges,
        };
        TreeGatherVertex {
            depth_bound,
            l2,
            d2,
            parent: if d2 == 0 { None } else { parent },
            bag: Arc::new(RecordSet::from(vec![rec])),
            all: None,
            out: None,
        }
    }

    fn cc_recv(&self) -> Round {
        2 + (self.depth_bound - self.d2) as Round
    }
    fn cc_send(&self) -> Round {
        self.cc_recv() + 1
    }
    fn bc_base(&self) -> Round {
        self.depth_bound as Round + 5
    }
    fn bc_recv(&self) -> Round {
        self.bc_base() + self.d2 as Round - 1
    }
    fn bc_send(&self) -> Round {
        self.bc_base() + self.d2 as Round
    }

    fn finish(&mut self) {
        let all = self.all.as_ref().expect("records gathered");
        self.out = Some(L14Out {
            l2: self.l2,
            depths: Arc::clone(all.depths()),
        });
    }
}

impl VirtualProgram for TreeGatherVertex {
    type Msg = L14Msg;
    type Output = L14Out;
    type Payload = L14Payload;

    fn send(&mut self, vround: Round, out: &mut Vec<VOutgoing<L14Msg>>) {
        if vround == self.cc_send() {
            if let Some(p) = self.parent {
                out.push(VOutgoing::ToCluster(p, L14Msg::Up(Arc::clone(&self.bag))));
                return;
            }
        }
        if vround == self.bc_send() {
            if let Some(all) = &self.all {
                out.push(VOutgoing::Broadcast(L14Msg::Down(Arc::clone(all))));
            }
        }
    }

    fn receive(&mut self, vround: Round, inbox: &[VEnvelope<L14Msg>]) -> Action {
        if vround == 1 {
            // Mandatory first round: schedule the convergecast.
            return Action::SleepUntil(self.cc_recv());
        }
        if vround == self.cc_recv() {
            let l2 = self.l2;
            let recs = inbox.iter().filter_map(|e| match &e.msg {
                L14Msg::Up(recs) => Some(recs.records().iter().filter(move |r| r.l2 == l2)),
                L14Msg::Down(_) => None,
            });
            Arc::make_mut(&mut self.bag).append_unseen(recs.flatten());
            if self.parent.is_none() {
                // Root vertex: complete; deliver downward.
                self.all = Some(Arc::clone(&self.bag));
                self.finish();
                return Action::SleepUntil(self.bc_send());
            }
            return Action::SleepUntil(self.cc_send());
        }
        if vround == self.cc_send() {
            return Action::SleepUntil(self.bc_recv());
        }
        if vround == self.bc_recv() {
            let all = inbox.iter().find_map(|e| match &e.msg {
                L14Msg::Down(recs) if Some(e.from) == self.parent => Some(Arc::clone(recs)),
                _ => None,
            });
            self.all = Some(all.expect("parent cluster broadcasts the merge"));
            self.finish();
            return Action::SleepUntil(self.bc_send());
        }
        if vround == self.bc_send() {
            return Action::Halt;
        }
        unreachable!("TreeGatherVertex woke at unscheduled virtual round {vround}");
    }

    fn output(&self) -> Option<L14Out> {
        self.out.clone()
    }
}

codec!(struct VertexRec { label, l2, d2, members, edges });

impl Codec for RecordSet {
    fn encode(&self, w: &mut Writer) {
        self.recs.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CheckpointError> {
        Ok(RecordSet::from(r.get::<Vec<VertexRec>>()?))
    }
}

codec!(enum L14Msg { 0 => Up(v), 1 => Down(v) });

codec!(struct L14Out { l2, depths });

persist! {
    /// Dynamic state: the convergecast bag, the completed record set, and the
    /// output. `(ℓ', δ')` and the parent pointer are pure functions of the
    /// gathered [`VertexInput`] and are rebuilt by the factory.
    TreeGatherVertex { bag, all, out }
}

/// Virtual-round budget of the Lemma 14 tree-gather stage, for clusters
/// of depth at most `depth_bound`.
pub fn lemma14_vrounds(depth_bound: u32) -> u64 {
    2 * depth_bound as u64 + 8
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clustering::{synthesize, Clustering};
    use crate::lemma15::{Lemma15Config, Lemma15Out, Lemma15Vertex};
    use crate::params::Params;
    use crate::virt::VirtSim;
    use awake_graphs::traversal::bfs_distances_within;
    use awake_graphs::{generators, Graph, NodeId};
    use awake_sleeping::{Config, Engine};
    use std::collections::BTreeSet;

    /// Lemma 15 on `H` of `cl`, through the simulator.
    fn lemma15(g: &Graph, cl: &Clustering, cfg: Lemma15Config, db: u32) -> Vec<Option<Lemma15Out>> {
        let factory = move |vi: &VertexInput<()>| Lemma15Vertex::new(cfg, vi);
        let programs: Vec<_> = g
            .nodes()
            .map(|v| match cl.assign[v.index()] {
                Some(a) => VirtSim::participant(a.label, a.depth, g.ident(v), (), db, factory),
                None => VirtSim::bystander(factory),
            })
            .collect();
        Engine::new(g, Config::default())
            .run(programs)
            .unwrap()
            .outputs
    }

    /// Run Lemma 14 on the survivors of Lemma 15 over `cl` and check every
    /// survivor's output against a BFS in `G` restricted to its merged
    /// cluster from the merged root. Every replica's depths must come from
    /// one computation per replica of the merged root vertex: one shared
    /// allocation when that vertex is a singleton cluster. Returns the
    /// number of merged clusters with more than one vertex.
    fn check_against_bfs(g: &Graph, cl: &Clustering, cfg: Lemma15Config, db: u32) -> usize {
        let out15 = lemma15(g, cl, cfg, db);
        let survivor = |v: NodeId| match (cl.assign[v.index()], &out15[v.index()]) {
            (Some(_), Some(o)) => (!o.in_u).then_some(o),
            _ => None,
        };
        let factory = move |vi: &VertexInput<L14Payload>| TreeGatherVertex::new(vi, db);
        let programs: Vec<_> = g
            .nodes()
            .map(|v| match (cl.assign[v.index()], survivor(v)) {
                (Some(a), Some(o)) => VirtSim::participant(
                    a.label,
                    a.depth,
                    g.ident(v),
                    (o.gamma, o.delta),
                    db,
                    factory,
                ),
                _ => VirtSim::bystander(factory),
            })
            .collect();
        let out14 = Engine::new(g, Config::default())
            .run(programs)
            .unwrap()
            .outputs;

        let mut merged: BTreeMap<u64, Vec<NodeId>> = BTreeMap::new();
        for v in g.nodes() {
            if let Some(o) = survivor(v) {
                merged.entry(o.gamma).or_default().push(v);
            }
        }
        assert!(!merged.is_empty(), "Lemma 15 leaves survivors");
        let assign = |v: NodeId| cl.assign[v.index()].unwrap();
        let mut multi = 0;
        for (&l2, nodes) in &merged {
            let vertices: BTreeSet<u64> = nodes.iter().map(|&v| assign(v).label).collect();
            multi += usize::from(vertices.len() > 1);
            // Merged root: the depth-0 node of the δ' = 0 cluster.
            let roots: Vec<NodeId> = nodes
                .iter()
                .copied()
                .filter(|&v| survivor(v).unwrap().delta == 0 && assign(v).depth == 0)
                .collect();
            assert_eq!(roots.len(), 1, "merged cluster {l2} has one root");
            let root = roots[0];
            let dist = bfs_distances_within(g, root, |w| nodes.binary_search(&w).is_ok());
            let want: BTreeMap<u64, u32> = nodes
                .iter()
                .map(|&v| {
                    (
                        g.ident(v),
                        dist[v.index()].expect("merged cluster is connected"),
                    )
                })
                .collect();
            let mut allocs = Vec::new();
            for &v in nodes {
                let o = out14[v.index()].as_ref().expect("survivors output");
                assert_eq!((o.l2, o.depths[&g.ident(v)]), (l2, want[&g.ident(v)]));
                assert_eq!(
                    *o.depths, want,
                    "node {v:?}: δ'' of the whole merged cluster"
                );
                allocs.push(Arc::as_ptr(&o.depths));
            }
            allocs.sort_unstable();
            allocs.dedup();
            let root_label = assign(root).label;
            let root_replicas = nodes
                .iter()
                .filter(|&&v| assign(v).label == root_label)
                .count();
            assert!(
                allocs.len() <= root_replicas,
                "merged cluster {l2}: {} depth computations for {root_replicas} root replicas",
                allocs.len()
            );
            if root_replicas == 1 {
                assert_eq!(
                    allocs.len(),
                    1,
                    "merged cluster {l2}: one shared allocation"
                );
            }
        }
        multi
    }

    #[test]
    fn lemma14_matches_bfs_in_the_merged_cluster_on_dense_regular_graphs() {
        for seed in [1, 2, 3] {
            let g = generators::random_regular(64, 16, seed);
            let params = Params::for_graph(&g);
            let cfg = Lemma15Config {
                b: params.b,
                label_bound: params.label_bound(1),
                ab2: params.ab2,
            };
            let cl = Clustering::singletons(&g);
            let multi = check_against_bfs(&g, &cl, cfg, params.depth_bound);
            assert!(
                multi > 0,
                "seed {seed}: some merged cluster joins several vertices"
            );
        }
    }

    #[test]
    fn lemma14_matches_bfs_in_the_merged_cluster_over_multi_member_clusters() {
        let mut multi = 0;
        // The graphs of the simulator's oracle test (b = 3), and the
        // snapshot tests' `clustered()` graph (b = 2).
        for (n, p, clusters, seed, cl_seed, b) in [
            (40, 0.12, 7, 1, 11, 3),
            (48, 0.08, 9, 2, 12, 3),
            (36, 0.2, 5, 3, 13, 3),
            (14, 0.25, 4, 3, 5, 2),
        ] {
            let g = generators::gnp(n, p, seed);
            let cl = synthesize(&g, clusters, cl_seed).root_ident_overlay(&g);
            cl.validate_uniquely_labeled(&g).unwrap();
            let params = Params::for_graph(&g);
            let cfg = Lemma15Config {
                b,
                label_bound: params.label_bound(1),
                ab2: params.ab2,
            };
            multi += check_against_bfs(&g, &cl, cfg, g.n() as u32);
        }
        assert!(multi > 0, "some merged cluster joins several vertices");
    }
}
