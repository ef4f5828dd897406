//! The O-LOCAL problem trait.

use awake_graphs::{Graph, NodeId};
use std::collections::BTreeMap;
use std::fmt;

/// What the greedy step sees when deciding node `v`'s output: `v` itself,
/// its per-node input, and the outputs of its *descendant closure*
/// `Gµ(v) ∖ {v}` (every node reachable from `v` along outgoing edges).
///
/// The out-neighbor accessors are the common case ((Δ+1)-coloring, MIS,
/// etc. only look one hop down); `closure_outputs` exposes the full closure
/// for problems that need it — the class definition permits both.
#[derive(Debug)]
pub struct GreedyView<'a, I, O> {
    /// This node's identifier (the LOCAL model's notion of identity —
    /// distributed solvers never see engine addresses of distant nodes).
    pub ident: u64,
    /// This node's degree in `G`.
    pub degree: usize,
    /// This node's problem input.
    pub input: &'a I,
    /// `(out-neighbor identifier, its output)` per direct out-neighbor.
    pub out_neighbors: &'a [(u64, O)],
    /// Outputs of the entire descendant closure (keyed by identifier),
    /// including the direct out-neighbors. May contain *more* than the
    /// closure when a distributed solver over-shares; the greedy function
    /// must only rely on the guaranteed part.
    pub closure_outputs: &'a BTreeMap<u64, O>,
}

/// A constraint violation found by a validator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Human-readable description of what failed.
    pub reason: String,
    /// The nodes involved.
    pub nodes: Vec<NodeId>,
}

impl Violation {
    /// Construct a violation.
    pub fn new(reason: impl Into<String>, nodes: Vec<NodeId>) -> Self {
        Violation {
            reason: reason.into(),
            nodes,
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (nodes {:?})", self.reason, self.nodes)
    }
}

impl std::error::Error for Violation {}

/// A problem in the O-LOCAL class.
///
/// Implementations must guarantee: for **every** graph `G`, **every**
/// acyclic orientation `µ`, and every processing order respecting `µ`,
/// applying [`decide`](OLocalProblem::decide) node by node yields outputs
/// accepted by [`validate`](OLocalProblem::validate). This is exactly
/// membership in O-LOCAL, and is what the distributed algorithms in
/// `awake-core` rely on. Property tests in this crate exercise the
/// guarantee over random graphs and orientations.
pub trait OLocalProblem {
    /// Per-node input (e.g. the color lists of list-coloring). Use `()`
    /// for input-free problems. Inputs and outputs are owned values
    /// (`'static`), so a solver may keep them in a type-erased memo.
    type Input: Clone + fmt::Debug + Send + Sync + 'static;
    /// Per-node output labeling.
    type Output: Clone + fmt::Debug + PartialEq + Send + Sync + 'static;

    /// A short name for reports.
    fn name(&self) -> &'static str;

    /// The greedy step: compute `v`'s output from its descendants' outputs.
    fn decide(&self, view: &GreedyView<'_, Self::Input, Self::Output>) -> Self::Output;

    /// Check a complete labeling.
    ///
    /// # Errors
    /// Returns the first violated constraint.
    fn validate(
        &self,
        graph: &Graph,
        inputs: &[Self::Input],
        outputs: &[Self::Output],
    ) -> Result<(), Violation>;

    /// Whether the distributed solvers must forward full descendant
    /// closures (`true`) or only direct out-neighbor outputs (`false`,
    /// the default — correct for all problems bundled here).
    fn needs_full_closure(&self) -> bool {
        false
    }

    /// Construct default inputs for a graph (for input-free problems).
    fn trivial_inputs(&self, graph: &Graph) -> Vec<Self::Input>;
}
