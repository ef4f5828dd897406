//! BFS-clusterings — Definitions 2–5 of the paper — with strict validators,
//! virtual-graph extraction, and a synthetic generator for experiments.
//!
//! * A **uniquely-labeled BFS-clustering** assigns `(ℓ(v), δ(v))` such that
//!   each label class is connected, has exactly one node of depth 0 (the
//!   root), and `δ` is the exact distance to the root *within the cluster's
//!   induced subgraph*.
//! * A **colored BFS-clustering** assigns `(γ(v), δ(v))` such that every
//!   connected component of each color class satisfies the same root/depth
//!   condition — distinct clusters may share a color iff they are not
//!   adjacent (which is automatic for components of a color class).
//!
//! Nodes may be unassigned (`None`): the clustering then covers an induced
//! subgraph, as in the intermediate stages of Theorem 13.

use awake_graphs::{ops, traversal, Graph, NodeId};
use std::collections::BTreeMap;

/// One node's cluster assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Assign {
    /// Cluster label (uniquely-labeled) or color (colored).
    pub label: u64,
    /// BFS depth within the cluster.
    pub depth: u32,
}

/// A (partial) BFS-clustering; interpretation (uniquely-labeled vs colored)
/// is chosen by which validator you call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Clustering {
    /// Per-node assignment (`None` = outside the clustered subgraph).
    pub assign: Vec<Option<Assign>>,
}

/// Why a clustering failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusteringError(pub String);

impl std::fmt::Display for ClusteringError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid clustering: {}", self.0)
    }
}

impl std::error::Error for ClusteringError {}

impl Clustering {
    /// The trivial uniquely-labeled clustering: every node is its own
    /// cluster, labeled by its identifier (Theorem 13's starting point).
    pub fn singletons(g: &Graph) -> Clustering {
        Clustering {
            assign: g
                .nodes()
                .map(|v| {
                    Some(Assign {
                        label: g.ident(v),
                        depth: 0,
                    })
                })
                .collect(),
        }
    }

    /// An empty (all-`None`) clustering on `n` nodes.
    pub fn empty(n: usize) -> Clustering {
        Clustering {
            assign: vec![None; n],
        }
    }

    /// Number of assigned nodes.
    pub fn assigned(&self) -> usize {
        self.assign.iter().flatten().count()
    }

    /// Distinct labels in use, sorted.
    pub fn labels(&self) -> Vec<u64> {
        let mut l: Vec<u64> = self.assign.iter().flatten().map(|a| a.label).collect();
        l.sort_unstable();
        l.dedup();
        l
    }

    /// Largest label (`max_v γ(v)`, the `c` of Theorem 9). 0 if empty.
    pub fn max_label(&self) -> u64 {
        self.assign
            .iter()
            .flatten()
            .map(|a| a.label)
            .max()
            .unwrap_or(0)
    }

    /// Members of each label class, keyed by label.
    pub fn members_by_label(&self) -> BTreeMap<u64, Vec<NodeId>> {
        let mut out: BTreeMap<u64, Vec<NodeId>> = BTreeMap::new();
        for (i, a) in self.assign.iter().enumerate() {
            if let Some(a) = a {
                out.entry(a.label).or_default().push(NodeId(i as u32));
            }
        }
        out
    }

    /// Number of clusters when read as a *colored* clustering (components
    /// of color classes).
    pub fn cluster_count(&self, g: &Graph) -> usize {
        self.members_by_label()
            .values()
            .map(|m| split_components(g, m).len())
            .sum()
    }

    /// Validate as a **uniquely-labeled** BFS-clustering (Definition 2).
    ///
    /// # Errors
    /// Describes the first violated condition.
    pub fn validate_uniquely_labeled(&self, g: &Graph) -> Result<(), ClusteringError> {
        self.expect_len(g)?;
        for (label, members) in self.members_by_label() {
            let comps = split_components(g, &members);
            if comps.len() != 1 {
                return Err(ClusteringError(format!(
                    "label {label} induces {} components (must be connected)",
                    comps.len()
                )));
            }
            self.check_component_is_bfs(g, label, &members)?;
        }
        Ok(())
    }

    /// Validate as a **colored** BFS-clustering (Definition 4): every
    /// connected component of every color class is a BFS cluster.
    ///
    /// # Errors
    /// Describes the first violated condition.
    pub fn validate_colored(&self, g: &Graph) -> Result<(), ClusteringError> {
        self.expect_len(g)?;
        for (label, members) in self.members_by_label() {
            for comp in split_components(g, &members) {
                self.check_component_is_bfs(g, label, &comp)?;
            }
        }
        Ok(())
    }

    fn expect_len(&self, g: &Graph) -> Result<(), ClusteringError> {
        if self.assign.len() != g.n() {
            return Err(ClusteringError(format!(
                "assignment length {} != n = {}",
                self.assign.len(),
                g.n()
            )));
        }
        Ok(())
    }

    /// Check that the connected member set `members` has a unique depth-0
    /// root and exact BFS depths within the induced subgraph.
    fn check_component_is_bfs(
        &self,
        g: &Graph,
        label: u64,
        members: &[NodeId],
    ) -> Result<(), ClusteringError> {
        let roots: Vec<NodeId> = members
            .iter()
            .copied()
            .filter(|v| self.assign[v.index()].expect("member").depth == 0)
            .collect();
        if roots.len() != 1 {
            return Err(ClusteringError(format!(
                "label {label} cluster has {} roots (need exactly 1)",
                roots.len()
            )));
        }
        let in_cluster = |v: NodeId| members.binary_search(&v).is_ok();
        let dist = traversal::bfs_distances_within(g, roots[0], in_cluster);
        for &v in members {
            let want = dist[v.index()].ok_or_else(|| {
                ClusteringError(format!("label {label}: {v} unreachable from root"))
            })?;
            let got = self.assign[v.index()].expect("member").depth;
            if got != want {
                return Err(ClusteringError(format!(
                    "label {label}: {v} has depth {got}, BFS distance is {want}"
                )));
            }
        }
        Ok(())
    }

    /// The virtual graph `H` of a uniquely-labeled clustering
    /// (Definition 3): one vertex per label, adjacency = any cross edge.
    pub fn virtual_graph(&self, g: &Graph) -> ops::Quotient {
        ops::quotient(g, |v| self.assign[v.index()].map(|a| a.label))
    }

    /// Interpret a colored clustering's components as a uniquely-labeled
    /// clustering by relabeling each component with its root's identifier
    /// (the overlay Theorem 9 builds by broadcasting root IDs).
    pub fn root_ident_overlay(&self, g: &Graph) -> Clustering {
        let mut out = Clustering::empty(g.n());
        for (_, members) in self.members_by_label() {
            for comp in split_components(g, &members) {
                let root = comp
                    .iter()
                    .copied()
                    .find(|v| self.assign[v.index()].expect("member").depth == 0)
                    .expect("validated clustering has a root per component");
                for v in comp {
                    out.assign[v.index()] = Some(Assign {
                        label: g.ident(root),
                        depth: self.assign[v.index()].expect("member").depth,
                    });
                }
            }
        }
        out
    }
}

/// Split `members` (sorted) into connected components of the induced
/// subgraph; each component is returned sorted.
pub fn split_components(g: &Graph, members: &[NodeId]) -> Vec<Vec<NodeId>> {
    let mut member_set = vec![false; g.n()];
    for &v in members {
        member_set[v.index()] = true;
    }
    let mut seen = vec![false; g.n()];
    let mut comps = Vec::new();
    for &s in members {
        if seen[s.index()] {
            continue;
        }
        let mut comp = vec![];
        let mut queue = std::collections::VecDeque::from([s]);
        seen[s.index()] = true;
        while let Some(v) = queue.pop_front() {
            comp.push(v);
            for &w in g.neighbors(v) {
                if member_set[w.index()] && !seen[w.index()] {
                    seen[w.index()] = true;
                    queue.push_back(w);
                }
            }
        }
        comp.sort_unstable();
        comps.push(comp);
    }
    comps
}

/// Synthesize a valid colored BFS-clustering with exactly `clusters`
/// clusters (plus extras on disconnected graphs): Voronoi cells of random
/// seeds (connected, exact BFS depths), then a greedy proper coloring of
/// the cluster graph. Theorem 9's tests use it to sweep the color count
/// `c`.
///
/// # Panics
/// Panics on an empty graph.
pub fn synthesize(g: &Graph, clusters: usize, seed: u64) -> Clustering {
    assert!(g.n() > 0, "need a non-empty graph");
    let clusters = clusters.clamp(1, g.n());
    let mut rng = awake_graphs::rng::Rng::seed_from_u64(seed);
    let mut nodes: Vec<NodeId> = g.nodes().collect();
    rng.shuffle(&mut nodes);
    let mut seeds: Vec<NodeId> = nodes.into_iter().take(clusters).collect();

    // Voronoi assignment by (distance, seed index): connected cells.
    let mut cell: Vec<Option<(u32, usize)>> = vec![None; g.n()];
    let assign_from = |cell: &mut Vec<Option<(u32, usize)>>, s: NodeId, si: usize| {
        let dist = traversal::bfs_distances(g, s);
        for v in g.nodes() {
            if let Some(d) = dist[v.index()] {
                let key = (d, si);
                if cell[v.index()].is_none_or(|k| key < k) {
                    cell[v.index()] = Some(key);
                }
            }
        }
    };
    for (si, &s) in seeds.iter().enumerate() {
        assign_from(&mut cell, s, si);
    }
    // Unreached nodes (disconnected graph): seed their components too.
    for v in g.nodes() {
        if cell[v.index()].is_none() {
            let si = seeds.len();
            seeds.push(v);
            assign_from(&mut cell, v, si);
        }
    }

    // Color the cluster graph greedily with colors 1, 2, ….
    let cluster_of = |v: NodeId| cell[v.index()].expect("assigned").1;
    let k = seeds.len();
    let mut adj: Vec<std::collections::BTreeSet<usize>> = vec![Default::default(); k];
    for (u, v) in g.edges() {
        let (cu, cv) = (cluster_of(u), cluster_of(v));
        if cu != cv {
            adj[cu].insert(cv);
            adj[cv].insert(cu);
        }
    }
    let mut color: Vec<u64> = vec![0; k];
    for c in 0..k {
        let used: std::collections::BTreeSet<u64> = adj[c]
            .iter()
            .filter_map(|&d| (color[d] != 0).then_some(color[d]))
            .collect();
        color[c] = (1..).find(|x| !used.contains(x)).expect("free color");
    }

    // Depths: BFS distance to the seed *within the cell*.
    let mut out = Clustering::empty(g.n());
    for (ci, &s) in seeds.iter().enumerate() {
        let dist = traversal::bfs_distances_within(g, s, |v| cluster_of(v) == ci);
        for v in g.nodes() {
            if cluster_of(v) == ci {
                out.assign[v.index()] = Some(Assign {
                    label: color[ci],
                    depth: dist[v.index()].expect("Voronoi cells are connected"),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use awake_graphs::generators;

    #[test]
    fn singletons_are_valid_both_ways() {
        let g = generators::gnp(30, 0.2, 1);
        let c = Clustering::singletons(&g);
        c.validate_uniquely_labeled(&g).unwrap();
        c.validate_colored(&g).unwrap();
        assert_eq!(c.assigned(), 30);
        assert_eq!(c.labels().len(), 30);
    }

    #[test]
    fn hand_built_two_cluster_path() {
        // path 0-1-2-3: clusters {0,1} rooted at 0, {2,3} rooted at 3.
        let g = generators::path(4);
        let c = Clustering {
            assign: vec![
                Some(Assign { label: 7, depth: 0 }),
                Some(Assign { label: 7, depth: 1 }),
                Some(Assign { label: 9, depth: 1 }),
                Some(Assign { label: 9, depth: 0 }),
            ],
        };
        c.validate_uniquely_labeled(&g).unwrap();
        let q = c.virtual_graph(&g);
        assert_eq!(q.graph.n(), 2);
        assert_eq!(q.graph.m(), 1);
        assert_eq!(c.cluster_count(&g), 2);
    }

    #[test]
    fn detects_disconnected_label() {
        let g = generators::path(3);
        let c = Clustering {
            assign: vec![
                Some(Assign { label: 1, depth: 0 }),
                Some(Assign { label: 2, depth: 0 }),
                Some(Assign { label: 1, depth: 0 }), // label 1 not connected
            ],
        };
        let err = c.validate_uniquely_labeled(&g).unwrap_err();
        assert!(err.0.contains("components"));
        // but as a *colored* clustering this is fine: two non-adjacent
        // singleton clusters of color 1.
        c.validate_colored(&g).unwrap();
        assert_eq!(c.cluster_count(&g), 3);
    }

    #[test]
    fn adjacent_same_color_must_be_one_bfs_cluster() {
        // path 0-1: both color 1, both depth 0 => one component with two
        // roots => invalid even as colored.
        let g = generators::path(2);
        let c = Clustering {
            assign: vec![
                Some(Assign { label: 1, depth: 0 }),
                Some(Assign { label: 1, depth: 0 }),
            ],
        };
        assert!(c.validate_colored(&g).unwrap_err().0.contains("roots"));
    }

    #[test]
    fn detects_bad_depths() {
        let g = generators::path(2);
        let bad_depth = Clustering {
            assign: vec![
                Some(Assign { label: 1, depth: 0 }),
                Some(Assign { label: 1, depth: 2 }),
            ],
        };
        assert!(bad_depth
            .validate_uniquely_labeled(&g)
            .unwrap_err()
            .0
            .contains("depth"));
    }

    #[test]
    fn depth_must_be_distance_within_cluster_not_graph() {
        let g = generators::cycle(4);
        // cluster {0,1,3} rooted at 0: distances via in-cluster paths.
        let ok = Clustering {
            assign: vec![
                Some(Assign { label: 5, depth: 0 }),
                Some(Assign { label: 5, depth: 1 }),
                None,
                Some(Assign { label: 5, depth: 1 }),
            ],
        };
        ok.validate_uniquely_labeled(&g).unwrap();
        // the whole cycle rooted at 0: node 2 must have depth 2.
        let whole = Clustering {
            assign: vec![
                Some(Assign { label: 5, depth: 0 }),
                Some(Assign { label: 5, depth: 1 }),
                Some(Assign { label: 5, depth: 1 }), // wrong
                Some(Assign { label: 5, depth: 1 }),
            ],
        };
        assert!(whole.validate_uniquely_labeled(&g).is_err());
    }

    #[test]
    fn root_ident_overlay_uniquifies() {
        let g = generators::path(5);
        let c = Clustering {
            assign: vec![
                Some(Assign { label: 1, depth: 0 }),
                Some(Assign { label: 1, depth: 1 }),
                Some(Assign { label: 2, depth: 0 }),
                Some(Assign { label: 1, depth: 1 }),
                Some(Assign { label: 1, depth: 0 }),
            ],
        };
        c.validate_colored(&g).unwrap();
        let u = c.root_ident_overlay(&g);
        u.validate_uniquely_labeled(&g).unwrap();
        assert_eq!(u.assign[0].unwrap().label, g.ident(NodeId(0)));
        assert_eq!(u.assign[3].unwrap().label, g.ident(NodeId(4)));
        assert_eq!(u.labels().len(), 3);
    }

    #[test]
    fn synthesize_is_valid_and_controls_cluster_count() {
        for (g, k) in [
            (generators::grid(8, 8), 6),
            (generators::gnp(70, 0.1, 3), 10),
            (generators::random_tree(50, 1), 4),
        ] {
            let c = synthesize(&g, k, 42);
            c.validate_colored(&g).unwrap();
            assert_eq!(c.assigned(), g.n());
            assert_eq!(c.cluster_count(&g), k);
        }
    }

    #[test]
    fn synthesize_handles_disconnected_graphs() {
        let g = ops::disjoint_union(&generators::path(5), &generators::cycle(5));
        let c = synthesize(&g, 3, 7);
        c.validate_colored(&g).unwrap();
        assert_eq!(c.assigned(), 10);
    }

    #[test]
    fn synthesize_extremes() {
        let g = generators::grid(5, 5);
        let one = synthesize(&g, 1, 0);
        one.validate_colored(&g).unwrap();
        assert_eq!(one.cluster_count(&g), 1);
        let all = synthesize(&g, 25, 0);
        all.validate_colored(&g).unwrap();
        assert_eq!(all.cluster_count(&g), 25);
    }
}
