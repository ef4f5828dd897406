//! Deterministic, seeded graph family generators.
//!
//! All random generators take an explicit `seed` so that experiments are
//! reproducible; structured generators are fully deterministic.
//!
//! # Example
//! ```
//! use awake_graphs::generators;
//! let g = generators::gnp(100, 0.05, 7);
//! assert_eq!(g.n(), 100);
//! let h = generators::gnp(100, 0.05, 7);
//! assert_eq!(g, h); // same seed, same graph
//! ```

use crate::rng::Rng;
use crate::{Graph, GraphBuilder};

fn must(b: GraphBuilder) -> Graph {
    b.build().expect("generator produced invalid graph")
}

/// Path `P_n`: nodes `0 — 1 — … — n-1`.
pub fn path(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for i in 1..n {
        b.edge(i as u32 - 1, i as u32);
    }
    must(b)
}

/// Cycle `C_n` (requires `n >= 3`; smaller `n` degrades to a path).
pub fn cycle(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for i in 1..n {
        b.edge(i as u32 - 1, i as u32);
    }
    if n >= 3 {
        b.edge(n as u32 - 1, 0);
    }
    must(b)
}

/// Complete graph `K_n`.
pub fn complete(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            b.edge(u, v);
        }
    }
    must(b)
}

/// Star `K_{1,n-1}` with the hub at node 0.
pub fn star(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for v in 1..n as u32 {
        b.edge(0, v);
    }
    must(b)
}

/// Complete bipartite graph `K_{a,b}`; the first `a` nodes form one side.
pub fn complete_bipartite(a: usize, b_size: usize) -> Graph {
    let mut b = GraphBuilder::new(a + b_size);
    for u in 0..a as u32 {
        for v in 0..b_size as u32 {
            b.edge(u, a as u32 + v);
        }
    }
    must(b)
}

/// `rows × cols` 2-D grid.
pub fn grid(rows: usize, cols: usize) -> Graph {
    let idx = |r: usize, c: usize| (r * cols + c) as u32;
    let mut b = GraphBuilder::new(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            if r + 1 < rows {
                b.edge(idx(r, c), idx(r + 1, c));
            }
            if c + 1 < cols {
                b.edge(idx(r, c), idx(r, c + 1));
            }
        }
    }
    must(b)
}

/// `rows × cols` 2-D torus (grid with wraparound; both dims should be ≥ 3
/// for the full 4-regular shape — a dimension of 1 or 2 degrades to the
/// grid edges in that direction, since the wrap edge would be a self-loop
/// or a duplicate).
pub fn torus(rows: usize, cols: usize) -> Graph {
    let idx = |r: usize, c: usize| ((r % rows) * cols + (c % cols)) as u32;
    let mut b = GraphBuilder::new(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            let v = idx(r, c);
            if idx(r + 1, c) != v {
                b.edge(v, idx(r + 1, c));
            }
            if idx(r, c + 1) != v {
                b.edge(v, idx(r, c + 1));
            }
        }
    }
    must(b)
}

/// `d`-dimensional hypercube `Q_d` on `2^d` nodes.
pub fn hypercube(d: u32) -> Graph {
    let n = 1usize << d;
    let mut b = GraphBuilder::new(n);
    for v in 0..n as u32 {
        for bit in 0..d {
            let u = v ^ (1 << bit);
            if u > v {
                b.edge(v, u);
            }
        }
    }
    must(b)
}

/// Balanced `r`-ary rooted tree with `n` nodes (node 0 is the root;
/// node `v`'s parent is `(v-1)/r`).
pub fn balanced_tree(n: usize, r: usize) -> Graph {
    assert!(r >= 1, "arity must be >= 1");
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        b.edge(v as u32, ((v - 1) / r) as u32);
    }
    must(b)
}

/// Caterpillar: a spine path of `spine` nodes, each with `legs` pendant leaves.
pub fn caterpillar(spine: usize, legs: usize) -> Graph {
    let n = spine + spine * legs;
    let mut b = GraphBuilder::new(n);
    for i in 1..spine {
        b.edge(i as u32 - 1, i as u32);
    }
    for s in 0..spine {
        for l in 0..legs {
            b.edge(s as u32, (spine + s * legs + l) as u32);
        }
    }
    must(b)
}

/// Barbell: two `K_k` cliques joined by a path of `bridge` extra nodes
/// (`k = 0` degrades to the bridge path alone).
pub fn barbell(k: usize, bridge: usize) -> Graph {
    if k == 0 {
        return path(bridge);
    }
    let n = 2 * k + bridge;
    let mut b = GraphBuilder::new(n);
    for u in 0..k as u32 {
        for v in (u + 1)..k as u32 {
            b.edge(u, v);
            b.edge(k as u32 + bridge as u32 + u, k as u32 + bridge as u32 + v);
        }
    }
    // path: clique1 node k-1 — bridge nodes — clique2 node 0
    let mut prev = (k - 1) as u32;
    for i in 0..bridge {
        let cur = (k + i) as u32;
        b.edge(prev, cur);
        prev = cur;
    }
    b.edge(prev, (k + bridge) as u32);
    must(b)
}

/// Lollipop: a `K_k` clique with a tail path of `tail` nodes (`k = 0`
/// degrades to the tail path alone).
pub fn lollipop(k: usize, tail: usize) -> Graph {
    if k == 0 {
        return path(tail);
    }
    let mut b = GraphBuilder::new(k + tail);
    for u in 0..k as u32 {
        for v in (u + 1)..k as u32 {
            b.edge(u, v);
        }
    }
    let mut prev = (k - 1) as u32;
    for i in 0..tail {
        let cur = (k + i) as u32;
        b.edge(prev, cur);
        prev = cur;
    }
    must(b)
}

/// Random labeled tree on `n` nodes (uniform random attachment).
pub fn random_tree(n: usize, seed: u64) -> Graph {
    let mut rng = Rng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    for v in 1..n {
        let p = rng.gen_range(0..v);
        b.edge(v as u32, p as u32);
    }
    must(b)
}

/// Erdős–Rényi `G(n, p)`.
pub fn gnp(n: usize, p: f64, seed: u64) -> Graph {
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    let mut rng = Rng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            if rng.gen_bool(p) {
                b.edge(u, v);
            }
        }
    }
    must(b)
}

/// Erdős–Rényi `G(n, p)` by geometric edge skipping (Batagelj–Brandes) —
/// expected `O(n + m)` instead of [`gnp`]'s `O(n²)` pairwise scan, which
/// makes million-node sparse graphs practical.
///
/// Samples the same distribution as [`gnp`] but consumes the RNG stream
/// differently, so `gnp_sparse(n, p, s)` and `gnp(n, p, s)` are different
/// (equally distributed) graphs; seeded streams of each are stable.
/// `p = 1` yields the complete graph, like [`gnp`].
pub fn gnp_sparse(n: usize, p: f64, seed: u64) -> Graph {
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    // The skip walk casts endpoints to u32 when emitting edges; assert the
    // id space up front (GraphBuilder::new re-checks) rather than letting
    // `as u32` truncate silently.
    assert!(
        n <= u32::MAX as usize,
        "n = {n} exceeds the u32 node-id space"
    );
    if p >= 1.0 {
        return complete(n);
    }
    let mut rng = Rng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    if n >= 2 && p > 0.0 {
        let ln_q = (1.0 - p).ln();
        // Walk the lower triangle (v > w) with geometric skips: each jump
        // lands on the next sampled edge directly.
        let mut v: usize = 1;
        let mut w: i64 = -1;
        while v < n {
            let r = rng.gen_f64();
            // skip ~ Geometric(p): number of non-edges before the next edge
            let skip = ((1.0 - r).ln() / ln_q).floor();
            w += 1 + skip.min((n * n) as f64) as i64;
            while w >= v as i64 && v < n {
                w -= v as i64;
                v += 1;
            }
            if v < n {
                b.edge(w as u32, v as u32);
            }
        }
    }
    must(b)
}

/// Random `d`-regular-ish graph by the configuration model with rejection of
/// loops/multi-edges; vertices may end up with degree slightly below `d`
/// when rejections exhaust the stub pool. `n*d` should be even.
pub fn random_regular(n: usize, d: usize, seed: u64) -> Graph {
    assert!(n == 0 || d < n, "degree must be < n");
    let mut rng = Rng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n);
    let mut seen = std::collections::HashSet::new();
    let mut stubs: Vec<u32> = (0..n as u32)
        .flat_map(|v| std::iter::repeat_n(v, d))
        .collect();
    rng.shuffle(&mut stubs);
    // Greedy pairing with bounded retries: swap a conflicting partner with a
    // random later stub. Falls back to dropping the pair.
    let key = |u: u32, v: u32| if u < v { (u, v) } else { (v, u) };
    let mut i = 0;
    while i + 1 < stubs.len() {
        let mut tries = 0;
        while (stubs[i] == stubs[i + 1] || seen.contains(&key(stubs[i], stubs[i + 1])))
            && tries < 50
        {
            let j = rng.gen_range(i + 1..stubs.len());
            stubs.swap(i + 1, j);
            tries += 1;
        }
        if stubs[i] != stubs[i + 1] && seen.insert(key(stubs[i], stubs[i + 1])) {
            b.edge(stubs[i], stubs[i + 1]);
        }
        i += 2;
    }
    must(b)
}

/// Chung–Lu style power-law graph: node `v` has weight `(v+1)^{-1/(β-1)}`
/// scaled so the expected average degree is `avg_deg`.
pub fn power_law(n: usize, beta: f64, avg_deg: f64, seed: u64) -> Graph {
    assert!(beta > 2.0, "beta must be > 2 for finite mean");
    let mut rng = Rng::seed_from_u64(seed);
    let exp = -1.0 / (beta - 1.0);
    let w: Vec<f64> = (0..n).map(|v| ((v + 1) as f64).powf(exp)).collect();
    let sum: f64 = w.iter().sum();
    let scale = avg_deg * n as f64 / sum;
    let w: Vec<f64> = w.into_iter().map(|x| x * scale).collect();
    let total: f64 = w.iter().sum();
    let mut b = GraphBuilder::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            let p = (w[u] * w[v] / total).min(1.0);
            if rng.gen_bool(p) {
                b.edge(u as u32, v as u32);
            }
        }
    }
    must(b)
}

/// Random graph with max degree ~`target_delta`: starts from a Hamiltonian
/// path (connectivity) and adds random edges while respecting the cap.
///
/// The lab's `regime` preset sweeps Δ at fixed `n` with it.
pub fn random_with_max_degree(n: usize, target_delta: usize, seed: u64) -> Graph {
    assert!(target_delta >= 2, "need Δ >= 2");
    let mut rng = Rng::seed_from_u64(seed);
    let mut deg = vec![0usize; n];
    let mut b = GraphBuilder::new(n);
    for i in 1..n {
        b.edge(i as u32 - 1, i as u32);
        deg[i - 1] += 1;
        deg[i] += 1;
    }
    let budget = n * target_delta / 2;
    let mut added = 0;
    let mut attempts = 0;
    while added < budget && attempts < budget * 20 {
        attempts += 1;
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u == v || deg[u] >= target_delta || deg[v] >= target_delta {
            continue;
        }
        let before = b.edge_count();
        b.edge(u as u32, v as u32);
        if b.edge_count() > before {
            deg[u] += 1;
            deg[v] += 1;
            added += 1;
        }
    }
    must(b)
}

/// "Cluster gadget": `k` cliques of size `s` arranged in a cycle, adjacent
/// cliques connected by a single bridge edge. Stresses the clustering
/// pipeline with dense clusters and sparse inter-cluster structure.
pub fn clique_cycle(k: usize, s: usize) -> Graph {
    assert!(k >= 1 && s >= 1);
    let n = k * s;
    let mut b = GraphBuilder::new(n);
    for c in 0..k {
        let base = (c * s) as u32;
        for u in 0..s as u32 {
            for v in (u + 1)..s as u32 {
                b.edge(base + u, base + v);
            }
        }
        if k >= 2 {
            let next = (((c + 1) % k) * s) as u32;
            // On k = 2 the "cycle" is a single bridge; add it once.
            if c + 1 < k || k > 2 {
                b.edge(base + (s as u32 - 1), next);
            }
        }
    }
    must(b)
}

/// The `n`-node path with the *alternating* (anti-monotone) structure used in
/// §2.2 of the paper to show distance-2 coloring is not O-LOCAL: identifiers
/// are assigned via `idents` so tests can choose adversarial placements.
pub fn alternating_path(n: usize, idents: Vec<u64>) -> Graph {
    let g = path(n);
    g.with_idents(idents)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal;

    #[test]
    fn path_and_cycle_shapes() {
        let p = path(5);
        assert_eq!(p.m(), 4);
        assert_eq!(p.max_degree(), 2);
        let c = cycle(5);
        assert_eq!(c.m(), 5);
        assert!(c.has_edge(crate::NodeId(4), crate::NodeId(0)));
    }

    #[test]
    fn complete_star_bipartite() {
        assert_eq!(complete(6).m(), 15);
        assert_eq!(star(7).max_degree(), 6);
        let kb = complete_bipartite(3, 4);
        assert_eq!(kb.m(), 12);
        assert_eq!(kb.max_degree(), 4);
    }

    #[test]
    fn grid_torus_hypercube() {
        let g = grid(3, 4);
        assert_eq!(g.n(), 12);
        assert_eq!(g.m(), 3 * 3 + 2 * 4);
        let t = torus(4, 4);
        assert!(t.nodes().all(|v| t.degree(v) == 4));
        let h = hypercube(4);
        assert!(h.nodes().all(|v| h.degree(v) == 4));
        assert_eq!(h.n(), 16);
    }

    #[test]
    fn trees_are_connected_and_acyclic() {
        for (g, n) in [
            (balanced_tree(17, 3), 17),
            (random_tree(40, 3), 40),
            (caterpillar(5, 3), 20),
        ] {
            assert_eq!(g.n(), n);
            assert_eq!(g.m(), n - 1);
            assert_eq!(traversal::connected_components(&g).count, 1);
        }
    }

    #[test]
    fn barbell_lollipop() {
        let bb = barbell(4, 2);
        assert_eq!(bb.n(), 10);
        assert_eq!(traversal::connected_components(&bb).count, 1);
        let lp = lollipop(5, 3);
        assert_eq!(lp.n(), 8);
        // the clique node carrying the tail has degree 4 (clique) + 1 (tail)
        assert_eq!(lp.max_degree(), 5);
    }

    #[test]
    fn gnp_determinism_and_bounds() {
        let a = gnp(60, 0.1, 5);
        let b = gnp(60, 0.1, 5);
        assert_eq!(a, b);
        let c = gnp(60, 0.1, 6);
        assert_ne!(a, c); // overwhelmingly likely
        assert_eq!(gnp(10, 0.0, 1).m(), 0);
        assert_eq!(gnp(10, 1.0, 1).m(), 45);
    }

    #[test]
    fn gnp_sparse_matches_expected_density() {
        let a = gnp_sparse(4000, 0.002, 5);
        let b = gnp_sparse(4000, 0.002, 5);
        assert_eq!(a, b, "seeded streams are stable");
        assert_ne!(a, gnp_sparse(4000, 0.002, 6));
        // E[m] = p * n(n-1)/2 ≈ 15 996; a 4-sigma band is ~±506
        let m = a.m();
        assert!((15_400..16_600).contains(&m), "m = {m}");
        assert_eq!(gnp_sparse(100, 0.0, 1).m(), 0);
        assert_eq!(gnp_sparse(1, 0.5, 1).m(), 0);
        assert_eq!(gnp_sparse(10, 1.0, 1).m(), 45, "p = 1 is K_n, like gnp");
        // simple-graph invariants hold (builder would reject violations)
        assert!(a.nodes().all(|v| !a.has_edge(v, v)));
    }

    #[test]
    fn gnp_sparse_scales_to_large_n() {
        // The point of the generator: a 200k-node sparse graph in O(n + m).
        let n = 200_000;
        let p = 6.0 / (n - 1) as f64;
        let g = gnp_sparse(n, p, 11);
        assert_eq!(g.n(), n);
        let avg = 2.0 * g.m() as f64 / n as f64;
        assert!((5.5..6.5).contains(&avg), "avg degree {avg}");
    }

    #[test]
    fn random_regular_degree_cap() {
        let g = random_regular(50, 6, 11);
        assert!(g.nodes().all(|v| g.degree(v) <= 6));
        let total: usize = g.nodes().map(|v| g.degree(v)).sum();
        assert!(
            total >= 50 * 6 * 8 / 10,
            "should be near-regular, got {total}"
        );
    }

    #[test]
    fn max_degree_generator_respects_cap() {
        let g = random_with_max_degree(80, 9, 3);
        assert!(g.max_degree() <= 9);
        assert!(g.max_degree() >= 5, "should get close to target");
        assert_eq!(traversal::connected_components(&g).count, 1);
    }

    #[test]
    fn power_law_has_skewed_degrees() {
        let g = power_law(120, 2.5, 4.0, 9);
        let dmax = g.max_degree();
        let davg = 2.0 * g.m() as f64 / g.n() as f64;
        assert!(dmax as f64 > 2.0 * davg, "Δ={dmax} avg={davg}");
    }

    #[test]
    fn clique_cycle_shape() {
        let g = clique_cycle(4, 5);
        assert_eq!(g.n(), 20);
        assert_eq!(traversal::connected_components(&g).count, 1);
        // every node participates in its clique
        assert!(g.nodes().all(|v| g.degree(v) >= 4));
    }

    /// Every generator at its degenerate corner: `n ∈ {0, 1, 2}` and, for
    /// the random families, `p ∈ {0.0, 1e-12, 1.0}`. None may panic,
    /// hang, or emit an invalid graph (`must` would catch self-loops /
    /// out-of-range endpoints via the builder).
    #[test]
    fn degenerate_parameters_build_valid_graphs() {
        for n in [0usize, 1, 2] {
            assert_eq!(path(n).n(), n);
            assert_eq!(cycle(n).n(), n);
            assert_eq!(complete(n).n(), n);
            assert_eq!(star(n).n(), n);
            assert_eq!(balanced_tree(n, 1).n(), n);
            assert_eq!(balanced_tree(n, 2).n(), n);
            assert_eq!(random_tree(n, 1).n(), n);
            assert_eq!(caterpillar(n, 0).n(), n);
            assert_eq!(caterpillar(n, 2).n(), n * 3);
            assert_eq!(random_with_max_degree(n, 2, 1).n(), n);
            for m in [0usize, 1, 2] {
                assert_eq!(grid(n, m).n(), n * m);
                assert_eq!(torus(n, m).n(), n * m);
                assert_eq!(complete_bipartite(n, m).n(), n + m);
                assert_eq!(barbell(n, m).n(), if n == 0 { m } else { 2 * n + m });
                assert_eq!(lollipop(n, m).n(), if n == 0 { m } else { n + m });
            }
            for p in [0.0f64, 1e-12, 1.0] {
                let g = gnp(n, p, 1);
                assert_eq!(g.n(), n);
                let s = gnp_sparse(n, p, 1);
                assert_eq!(s.n(), n);
                if p == 1.0 && n == 2 {
                    assert_eq!(g.m(), 1);
                    assert_eq!(s.m(), 1);
                }
                if p == 0.0 {
                    assert_eq!(g.m(), 0);
                    assert_eq!(s.m(), 0);
                }
            }
            if n > 0 {
                assert_eq!(random_regular(n, 0, 1).m(), 0);
            }
            assert_eq!(power_law(n, 2.5, 1.0, 1).n(), n);
        }
        // n = 0 corners that used to panic (d < n underflow-style assert,
        // k = 0 clique index underflow):
        assert_eq!(random_regular(0, 0, 1).n(), 0);
        assert_eq!(barbell(0, 0).n(), 0);
        assert_eq!(lollipop(0, 0).n(), 0);
        assert_eq!(random_regular(2, 1, 1).n(), 2);
        // tiny tori no longer self-loop on the wrap edges
        assert_eq!(torus(1, 3).m(), 3); // a 3-cycle
        assert_eq!(torus(2, 2).m(), 4); // C_4, wrap edges collapse
        assert_eq!(hypercube(0).n(), 1);
        assert_eq!(hypercube(1).m(), 1);
        assert_eq!(clique_cycle(1, 1).n(), 1);
        assert_eq!(clique_cycle(2, 1).m(), 1);
    }

    #[test]
    fn gnp_sparse_tiny_p_terminates_and_is_sparse() {
        // p = 1e-12 once made the geometric skip enormous; the capped jump
        // must terminate and produce an (almost surely) empty graph.
        let g = gnp_sparse(4096, 1e-12, 3);
        assert_eq!(g.n(), 4096);
        assert!(g.m() <= 1, "m = {}", g.m());
        let h = gnp(64, 1e-12, 3);
        assert_eq!(h.m(), 0);
    }

    #[test]
    #[should_panic(expected = "u32 node-id space")]
    fn builder_rejects_n_beyond_u32() {
        let _ = crate::GraphBuilder::new(u32::MAX as usize + 1);
    }

    #[test]
    #[should_panic(expected = "u32 node-id space")]
    fn gnp_sparse_rejects_n_beyond_u32() {
        let _ = gnp_sparse(u32::MAX as usize + 2, 1e-9, 1);
    }

    #[test]
    fn alternating_path_custom_ids() {
        let g = alternating_path(4, vec![9, 2, 7, 4]);
        assert_eq!(g.ident(crate::NodeId(0)), 9);
        assert_eq!(g.m(), 3);
    }
}
