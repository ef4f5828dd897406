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

use crate::virt::{VEnvelope, VOutgoing, VertexInput, VirtualProgram};
use awake_sleeping::{codec, persist, Action, Round};
use std::collections::BTreeMap;
use std::sync::Arc;

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

/// Virtual messages.
#[derive(Debug, Clone, PartialEq)]
pub enum L14Msg {
    /// Convergecast bag of vertex records.
    Up(Arc<Vec<VertexRec>>),
    /// Broadcast of the merged cluster's full record set.
    Down(Arc<Vec<VertexRec>>),
}

/// Vertex output: the merged label and exact depths for every member of
/// the merged cluster, keyed by ident.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct L14Out {
    /// `ℓ''` (= `ℓ'`).
    pub l2: u64,
    /// `δ''` per node ident.
    pub depths: BTreeMap<u64, u32>,
}

/// The Lemma 14 vertex program.
pub struct TreeGatherVertex {
    depth_bound: u32,
    rec: VertexRec,
    /// Parent cluster label (`None` for the `δ' = 0` root vertex).
    parent: Option<u64>,
    /// Records gathered so far on the convergecast; sent up as is.
    bag: Arc<Vec<VertexRec>>,
    /// The merged cluster's records, shared with the message that
    /// delivered them and forwarded as is.
    all: Option<Arc<Vec<VertexRec>>>,
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
        // Parent selection: the smallest-(member, neighbor) border edge
        // into a cluster with our ℓ' and δ' − 1. All replicas agree.
        let parent = input
            .border_edges()
            .into_iter()
            .filter(|(_, _, _, _, pl)| *pl == (l2, d2.wrapping_sub(1)))
            .map(|(_, _, nbr_label, _, _)| nbr_label)
            .next();
        assert!(
            d2 == 0 || parent.is_some(),
            "a non-root cluster has a neighbor at depth δ'−1"
        );
        // G-edges within the merged cluster seen from this cluster:
        // intra edges + border edges into clusters with the same ℓ'.
        let mut edges = input.intra_edges();
        for (mi, ni, _, _, pl) in input.border_edges() {
            if pl.0 == l2 {
                let (a, b) = if mi < ni { (mi, ni) } else { (ni, mi) };
                edges.push((a, b));
            }
        }
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
            rec: rec.clone(),
            parent: if d2 == 0 { None } else { parent },
            bag: Arc::new(vec![rec]),
            all: None,
            out: None,
        }
    }

    fn cc_recv(&self) -> Round {
        2 + (self.depth_bound - self.rec.d2) as Round
    }
    fn cc_send(&self) -> Round {
        self.cc_recv() + 1
    }
    fn bc_base(&self) -> Round {
        self.depth_bound as Round + 5
    }
    fn bc_recv(&self) -> Round {
        self.bc_base() + self.rec.d2 as Round - 1
    }
    fn bc_send(&self) -> Round {
        self.bc_base() + self.rec.d2 as Round
    }

    fn finish(&mut self) {
        let all = self.all.as_ref().expect("records gathered");
        // Merged root: the depth-0 member of the δ' = 0 cluster.
        let root_rec = all
            .iter()
            .find(|r| r.d2 == 0)
            .expect("merged cluster has a root vertex");
        let root = root_rec
            .members
            .iter()
            .find(|&&(_, d)| d == 0)
            .map(|&(i, _)| i)
            .expect("root cluster has a depth-0 node");
        // BFS over the merged cluster's idents, with the arcs in one flat
        // vector sorted by tail.
        let mut arcs: Vec<(u64, u64)> = all
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
        for r in all.iter() {
            for &(m, _) in &r.members {
                assert!(
                    depths.contains_key(&m),
                    "merged cluster must be connected (ident {m})"
                );
            }
        }
        self.out = Some(L14Out {
            l2: self.rec.l2,
            depths,
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
            let mut seen: std::collections::BTreeSet<u64> =
                self.bag.iter().map(|r| r.label).collect();
            let bag = Arc::make_mut(&mut self.bag);
            for e in inbox {
                if let L14Msg::Up(recs) = &e.msg {
                    for r in recs.iter() {
                        if r.l2 == self.rec.l2 && seen.insert(r.label) {
                            bag.push(r.clone());
                        }
                    }
                }
            }
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

codec!(enum L14Msg { 0 => Up(v), 1 => Down(v) });

codec!(struct L14Out { l2, depths });

persist! {
    /// Dynamic state: the convergecast bag, the completed record set, and the
    /// output. The own record and parent pointer are pure functions of the
    /// gathered [`VertexInput`] and are rebuilt by the factory.
    TreeGatherVertex { bag, all, out }
}

/// Virtual-round budget of the Lemma 14 tree-gather stage, for clusters
/// of depth at most `depth_bound`.
pub fn lemma14_vrounds(depth_bound: u32) -> u64 {
    2 * depth_bound as u64 + 8
}
