//! Global parameters of the clustering pipeline (§5 of the paper).
//!
//! Every node derives the *same* parameter set from public knowledge
//! (`n` and the identifier bound), which is what makes the stage-by-stage
//! composition of Lemma 8 legitimate: all round budgets below are
//! deterministic functions of these values.

use crate::linial;

/// Parameters shared by all nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Params {
    /// Number of nodes (known to every node, per the model).
    pub n: usize,
    /// Upper bound on node identifiers (`n^c` in the paper; `n` when the
    /// identifiers are `{1..n}`, the Remark's fast case).
    pub ident_bound: u64,
    /// `b = 2^⌈√log₂ n⌉` — the degree threshold / shrink factor of Lemma 15.
    pub b: u64,
    /// `k = 2·⌈√log₂ n⌉` — iteration count of Theorem 13; chosen so that
    /// `b^k ≥ n²`, guaranteeing the virtual graph is exhausted.
    pub iterations: u32,
    /// `a·b²` — the exact palette Linial's algorithm stabilizes at on
    /// graphs of maximum degree `b` (the paper's `a` is our constant,
    /// computed rather than bounded).
    pub ab2: u64,
    /// Depth bound used by every depth-synchronized convergecast/broadcast
    /// (`D = n`: no BFS cluster is deeper). It saturates at `u32::MAX`
    /// when `n` does not fit in `u32`; the stage table reports such an `n`
    /// as an overflow of its first Lemma 7 stage.
    pub depth_bound: u32,
}

impl Params {
    /// Derive parameters for an `n`-node graph with identifiers `≤ ident_bound`.
    pub fn new(n: usize, ident_bound: u64) -> Params {
        let n1 = n.max(2);
        let log2n = (usize::BITS - (n1 - 1).leading_zeros()) as u64; // ⌈log₂ n⌉
        let s = int_sqrt_ceil(log2n).max(1);
        let b = 1u64 << s.min(32);
        let iterations = (2 * s) as u32;
        let ab2 = linial::final_palette(b);
        Params {
            n,
            ident_bound: ident_bound.max(n as u64),
            b,
            iterations,
            ab2,
            depth_bound: u32::try_from(n).unwrap_or(u32::MAX),
        }
    }

    /// Derive parameters from a graph (identifiers `{1..n}` by default).
    pub fn for_graph(g: &awake_graphs::Graph) -> Params {
        Params::new(g.n(), g.ident_bound())
    }

    /// Upper bound on cluster labels at the start of iteration `i`
    /// (1-based): iteration 1 sees raw identifiers; every later iteration
    /// sees labels of the form `ℓ_aux + a·b²` where `ℓ_aux` was a previous
    /// label.
    pub fn label_bound(&self, iteration: u32) -> u64 {
        self.ident_bound + (iteration as u64).saturating_sub(1) * self.ab2
    }

    /// Number of colors the final colored BFS-clustering may use:
    /// `k · a·b² = 2^{O(√log n)}` (Theorem 13).
    pub fn color_bound(&self) -> u64 {
        self.iterations as u64 * self.ab2
    }

    /// Sanity check: `b^k ≥ n²`, so at most `k` iterations empty the graph.
    pub fn shrinkage_sufficient(&self) -> bool {
        let mut acc: u128 = 1;
        for _ in 0..self.iterations {
            acc = acc.saturating_mul(self.b as u128);
            if acc >= (self.n as u128) * (self.n as u128) {
                return true;
            }
        }
        acc >= (self.n as u128) * (self.n as u128)
    }
}

/// `⌈√x⌉` over integers.
pub fn int_sqrt_ceil(x: u64) -> u64 {
    if x == 0 {
        return 0;
    }
    let mut r = (x as f64).sqrt() as u64;
    while r * r < x {
        r += 1;
    }
    while r >= 1 && (r - 1) * (r - 1) >= x {
        r -= 1;
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_sqrt_ceil_exact() {
        assert_eq!(int_sqrt_ceil(0), 0);
        assert_eq!(int_sqrt_ceil(1), 1);
        assert_eq!(int_sqrt_ceil(2), 2);
        assert_eq!(int_sqrt_ceil(4), 2);
        assert_eq!(int_sqrt_ceil(5), 3);
        assert_eq!(int_sqrt_ceil(9), 3);
        assert_eq!(int_sqrt_ceil(10), 4);
    }

    #[test]
    fn params_guarantee_shrinkage() {
        for n in [2usize, 3, 7, 16, 100, 1000, 4096, 100_000] {
            let p = Params::new(n, n as u64);
            assert!(p.shrinkage_sufficient(), "n={n}: {p:?}");
            assert!(p.b >= 2);
            assert!(p.iterations >= 2);
        }
    }

    #[test]
    fn color_bound_is_subpolynomial() {
        // 2^{O(√log n)} ≪ n^ε: spot-check that the bound is far below n
        // for large n.
        let p = Params::new(1 << 20, 1 << 20);
        assert!((p.color_bound() as usize) < (1 << 20) / 4);
    }

    #[test]
    fn label_bound_grows_by_ab2() {
        let p = Params::new(256, 256);
        assert_eq!(p.label_bound(1), 256);
        assert_eq!(p.label_bound(2), 256 + p.ab2);
        assert_eq!(p.label_bound(3), 256 + 2 * p.ab2);
    }

    #[test]
    fn tiny_n_is_safe() {
        let p = Params::new(1, 1);
        assert!(p.b >= 2);
        assert!(p.shrinkage_sufficient());
    }
}
