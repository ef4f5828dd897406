//! Scenario specifications: what to run, on what graph, with which solver.
//!
//! A [`Scenario`] is one point of the paper's trade-off surface — a
//! (graph family × problem × algorithm × executor) tuple plus a name. The
//! [`presets`] registry enumerates curated suites; [`ScenarioBuilder`]
//! assembles one-off scenarios for examples and tests.

use awake_graphs::{generators, Graph};
use awake_sleeping::FaultPlan;

/// A seeded graph family — the first axis of a scenario.
///
/// Random families receive the scenario's derived seed at build time, so a
/// suite re-run with the same suite seed regenerates identical graphs.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphFamily {
    /// Path `P_n`.
    Path {
        /// Number of nodes.
        n: usize,
    },
    /// Cycle `C_n`.
    Cycle {
        /// Number of nodes.
        n: usize,
    },
    /// `rows × cols` grid.
    Grid {
        /// Grid rows.
        rows: usize,
        /// Grid columns.
        cols: usize,
    },
    /// Uniform random tree on `n` nodes.
    RandomTree {
        /// Number of nodes.
        n: usize,
    },
    /// Erdős–Rényi `G(n, p)`.
    Gnp {
        /// Number of nodes.
        n: usize,
        /// Edge probability.
        p: f64,
    },
    /// Sparse Erdős–Rényi `G(n, p)` with `p = avg_deg / (n-1)`, sampled by
    /// geometric edge skipping (`O(n + m)`) — the million-node family.
    /// A distinct family from [`GraphFamily::Gnp`]: same distribution,
    /// different RNG stream.
    SparseGnp {
        /// Number of nodes.
        n: usize,
        /// Target average degree (sets `p = avg_deg / (n-1)`).
        avg_deg: f64,
    },
    /// Star `S_{n−1}` (one hub, `n − 1` leaves) — the maximally hub-heavy
    /// family, where awake cost concentrates on a single node.
    Star {
        /// Number of nodes (hub included).
        n: usize,
    },
    /// Caterpillar: a path of `spine` nodes with `legs` pendant leaves on
    /// each — many medium hubs in a row.
    Caterpillar {
        /// Spine length.
        spine: usize,
        /// Leaves per spine node.
        legs: usize,
    },
    /// Random `d`-regular graph — the bounded-degree expander family.
    RandomRegular {
        /// Number of nodes.
        n: usize,
        /// Degree.
        d: usize,
    },
    /// Random graph with maximum degree capped at `delta`.
    BoundedDegree {
        /// Number of nodes.
        n: usize,
        /// Maximum degree.
        delta: usize,
    },
}

impl GraphFamily {
    /// A short stable label (used in scenario names and reports).
    pub fn key(&self) -> String {
        match self {
            GraphFamily::Path { n } => format!("path-{n}"),
            GraphFamily::Cycle { n } => format!("cycle-{n}"),
            GraphFamily::Grid { rows, cols } => format!("grid-{rows}x{cols}"),
            GraphFamily::RandomTree { n } => format!("tree-{n}"),
            // `{p}` is f64 Display — the shortest string that round-trips,
            // so distinct probabilities never collide on key (or, since the
            // key salts it, on derived seed)
            GraphFamily::Gnp { n, p } => format!("gnp-{n}-p{p}"),
            GraphFamily::SparseGnp { n, avg_deg } => format!("sgnp-{n}-d{avg_deg}"),
            GraphFamily::Star { n } => format!("star-{n}"),
            GraphFamily::Caterpillar { spine, legs } => format!("cat-{spine}x{legs}"),
            GraphFamily::RandomRegular { n, d } => format!("regular-{n}-d{d}"),
            GraphFamily::BoundedDegree { n, delta } => format!("bdeg-{n}-Δ{delta}"),
        }
    }

    /// Build the graph, feeding `seed` to the random families.
    pub fn build(&self, seed: u64) -> Graph {
        match *self {
            GraphFamily::Path { n } => generators::path(n),
            GraphFamily::Cycle { n } => generators::cycle(n),
            GraphFamily::Grid { rows, cols } => generators::grid(rows, cols),
            GraphFamily::RandomTree { n } => generators::random_tree(n, seed),
            GraphFamily::Gnp { n, p } => generators::gnp(n, p, seed),
            GraphFamily::SparseGnp { n, avg_deg } => {
                // Clamp: avg_deg >= n-1 means the complete graph.
                let p = if n > 1 {
                    (avg_deg / (n - 1) as f64).min(1.0)
                } else {
                    0.0
                };
                generators::gnp_sparse(n, p, seed)
            }
            GraphFamily::Star { n } => generators::star(n),
            GraphFamily::Caterpillar { spine, legs } => generators::caterpillar(spine, legs),
            GraphFamily::RandomRegular { n, d } => generators::random_regular(n, d, seed),
            GraphFamily::BoundedDegree { n, delta } => {
                generators::random_with_max_degree(n, delta, seed)
            }
        }
    }
}

/// One of the bundled O-LOCAL problems — the second axis. Four vertex
/// problems, plus the two edge problems solved via the line-graph
/// virtualization adapter (`awake_core::linegraph`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProblemKind {
    /// (Δ+1)-vertex coloring.
    Coloring,
    /// (deg+1)-list coloring (with the trivial `{0..deg}` lists).
    ListColoring,
    /// Maximal independent set.
    Mis,
    /// Minimal vertex cover.
    VertexCover,
    /// Maximal matching (edge problem, line-graph adapter).
    Matching,
    /// (2Δ−1)-edge coloring (edge problem, line-graph adapter).
    EdgeColoring,
}

impl ProblemKind {
    /// The four vertex problems, in registry order.
    pub const ALL: [ProblemKind; 4] = [
        ProblemKind::Coloring,
        ProblemKind::ListColoring,
        ProblemKind::Mis,
        ProblemKind::VertexCover,
    ];

    /// The two edge problems, in registry order.
    pub const EDGE: [ProblemKind; 2] = [ProblemKind::Matching, ProblemKind::EdgeColoring];

    /// A short stable label.
    pub fn key(&self) -> &'static str {
        match self {
            ProblemKind::Coloring => "coloring",
            ProblemKind::ListColoring => "list-coloring",
            ProblemKind::Mis => "mis",
            ProblemKind::VertexCover => "vertex-cover",
            ProblemKind::Matching => "matching",
            ProblemKind::EdgeColoring => "edge-coloring",
        }
    }

    /// Whether this is an edge problem (solved on the line graph through
    /// the virtualization adapter; only the `trivial` solver applies, on
    /// any executor).
    pub fn is_edge(&self) -> bool {
        matches!(self, ProblemKind::Matching | ProblemKind::EdgeColoring)
    }
}

/// The solver — the third axis.
///
/// `Trivial` runs the folklore by-identifier greedy as one Sleeping-model
/// [`Program`](awake_sleeping::Program); `Bm21` and `Theorem1` are the
/// staged pipelines from `awake-core`. Every solver runs on any
/// [`Executor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// By-identifier greedy, awake `O(Δ)`.
    Trivial,
    /// Barenboim–Maimon, awake `O(log Δ + log* n)`.
    Bm21,
    /// The paper's Theorem 1, awake `O(√log n · log* n)`.
    Theorem1,
}

impl Algo {
    /// A short stable label.
    pub fn key(&self) -> &'static str {
        match self {
            Algo::Trivial => "trivial",
            Algo::Bm21 => "bm21",
            Algo::Theorem1 => "theorem1",
        }
    }
}

/// The executor — the fourth axis: the worker count every stage of the
/// scenario runs on ([`awake_core::resilient::StageSpec::workers`]). A
/// run's outputs and metrics are bit-for-bit identical on either variant,
/// so the axis only moves wall time and the row's label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Executor {
    /// One worker, every round in place; the label has no suffix.
    Serial,
    /// `w` workers, labelled `-t<w>`. `Pool(1)` runs exactly as
    /// [`Executor::Serial`]; only its label differs.
    Pool(usize),
}

impl Executor {
    /// The worker count the scenario's stages run on.
    pub fn workers(self) -> usize {
        match self {
            Executor::Serial => 1,
            Executor::Pool(w) => w,
        }
    }
}

/// Seeded fault-injection rates attached to a scenario (all
/// parts-per-million; the concrete [`FaultPlan`] seed derives from the
/// scenario's derived seed at run time, so the injected fault stream is as
/// reproducible as the graph instance). Every solver takes fault injection
/// through the time-redundancy wrapper; the runner sizes the redundancy
/// factor from these rates and audits against the degraded budgets.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultSpec {
    /// Probability (ppm) that a transmission is dropped in flight.
    pub drop_ppm: u32,
    /// Probability (ppm) that a transmission is duplicated.
    pub dup_ppm: u32,
    /// Probability (ppm) that a transmission is delayed.
    pub delay_ppm: u32,
    /// Probability (ppm) that an awake node crash-restarts in a round.
    pub crash_ppm: u32,
    /// Rounds a delayed message is held before redelivery is attempted.
    pub delay_rounds: u64,
    /// First round of the fault burst window (0 = faults active from the
    /// start; see [`FaultPlan::burst_start`]).
    pub burst_start: u64,
    /// Length of the burst window in rounds (0 = no window: faults at
    /// their rates for the whole run).
    pub burst_len: u64,
    /// Quiet period: no injected faults at or after this round (0 = never
    /// quiet). The degraded-budget property tests rely on a quiet tail so
    /// the run can settle and finish.
    pub quiet_after: u64,
}

impl FaultSpec {
    /// The concrete plan for a scenario run seeded with `seed`.
    pub fn plan(&self, seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            drop_ppm: self.drop_ppm,
            dup_ppm: self.dup_ppm,
            delay_ppm: self.delay_ppm,
            crash_ppm: self.crash_ppm,
            delay_rounds: self.delay_rounds.max(1),
            burst_start: self.burst_start,
            burst_len: self.burst_len,
            quiet_after: self.quiet_after,
        }
    }
}

/// One runnable experiment: a named (family × problem × algo × executor)
/// tuple.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Unique name within a suite (labeling only — the RNG seed derives
    /// from the graph-family key, see [`Scenario::seed`]).
    pub name: String,
    /// The graph family.
    pub family: GraphFamily,
    /// The problem to solve.
    pub problem: ProblemKind,
    /// The solver.
    pub algo: Algo,
    /// The executor.
    pub executor: Executor,
    /// Optional seeded fault injection.
    pub faults: Option<FaultSpec>,
}

impl Scenario {
    /// Start building a serial scenario from its first three axes; the
    /// name defaults to `problem/family/algo`.
    pub fn of(family: GraphFamily, problem: ProblemKind, algo: Algo) -> ScenarioBuilder {
        ScenarioBuilder {
            name: None,
            family,
            problem,
            algo,
            executor: Executor::Serial,
            faults: None,
        }
    }

    /// The report's `algo` column: the solver's key, suffixed `-t<w>` on
    /// [`Executor::Pool`].
    pub fn algo_key(&self) -> String {
        match self.executor {
            Executor::Serial => self.algo.key().to_string(),
            Executor::Pool(w) => format!("{}-t{w}", self.algo.key()),
        }
    }

    /// The scenario's RNG seed: the suite seed salted with a stable hash
    /// of the graph-family key. Deterministic, order-independent, and
    /// stable across platforms — part of the report compatibility surface.
    ///
    /// Salting by *family* (not by name) means every scenario over the same
    /// family spec in a suite gets the **same graph instance**, so
    /// cross-problem and cross-algorithm rows compare like for like, while
    /// distinct families draw independent streams.
    pub fn seed(&self, suite_seed: u64) -> u64 {
        splitmix64(suite_seed ^ fnv1a(self.family.key().as_bytes()))
    }
}

/// Builder for [`Scenario`] (see [`Scenario::of`]).
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    name: Option<String>,
    family: GraphFamily,
    problem: ProblemKind,
    algo: Algo,
    executor: Executor,
    faults: Option<FaultSpec>,
}

impl ScenarioBuilder {
    /// Run on [`Executor::Pool`] with `workers` workers.
    pub fn on(mut self, workers: usize) -> Self {
        self.executor = Executor::Pool(workers);
        self
    }

    /// Override the derived name.
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Attach seeded fault injection (default names gain a `+faults`
    /// suffix so faulted and fault-free rows stay distinct).
    pub fn with_faults(mut self, spec: FaultSpec) -> Self {
        self.faults = Some(spec);
        self
    }

    /// Finish the scenario.
    pub fn build(self) -> Scenario {
        let mut sc = Scenario {
            name: String::new(),
            family: self.family,
            problem: self.problem,
            algo: self.algo,
            executor: self.executor,
            faults: self.faults,
        };
        sc.name = self.name.unwrap_or_else(|| {
            format!(
                "{}/{}/{}{}",
                sc.problem.key(),
                sc.family.key(),
                sc.algo_key(),
                if sc.faults.is_some() { "+faults" } else { "" }
            )
        });
        sc
    }
}

/// FNV-1a over bytes — stable graph-family-key hashing for seed derivation.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// One SplitMix64 step — whitens the suite-seed/name-hash mix.
fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Named suite presets.
pub mod presets {
    use super::*;

    /// The five core families at a small size — one scenario per
    /// (problem × family), all solved with Theorem 1.
    ///
    /// 4 problems × 5 families = 20 scenarios; small enough for CI smoke
    /// runs and the golden-snapshot test.
    pub fn quick() -> Vec<Scenario> {
        core_families()
            .into_iter()
            .flat_map(|family| {
                ProblemKind::ALL.iter().map(move |&problem| {
                    Scenario::of(family.clone(), problem, Algo::Theorem1).build()
                })
            })
            .collect()
    }

    /// Serial vs. worker-pool executor agreement workload: every problem
    /// on `G(n, p)` under each solver, serial and on an 8-worker pool
    /// (24 scenarios, the trivial pairs first).
    pub fn executors() -> Vec<Scenario> {
        let family = GraphFamily::Gnp { n: 300, p: 0.05 };
        [Algo::Trivial, Algo::Bm21, Algo::Theorem1]
            .into_iter()
            .flat_map(|algo| {
                ProblemKind::ALL
                    .map(|problem| serial_and_pool(Scenario::of(family.clone(), problem, algo), 8))
            })
            .flatten()
            .collect()
    }

    /// `sc` serial, then on a `workers`-worker pool. The pair shares a
    /// family, hence a graph instance and a fault stream, so its
    /// deterministic metrics must agree row for row.
    fn serial_and_pool(sc: ScenarioBuilder, workers: usize) -> [Scenario; 2] {
        [sc.clone().build(), sc.on(workers).build()]
    }

    /// Million-node sparse workloads on the owner-sharded worker-pool
    /// executor — the scale regime the delivery pipeline exists for.
    ///
    /// The final row re-runs the headline scenario on the serial engine:
    /// same family spec ⇒ same derived seed ⇒ same graph instance, so the
    /// report pair is a like-for-like executor cross-check at n = 10⁶.
    pub fn huge() -> Vec<Scenario> {
        let million = GraphFamily::SparseGnp {
            n: 1_000_000,
            avg_deg: 6.0,
        };
        let trivial = |family, problem| Scenario::of(family, problem, Algo::Trivial);
        let sgnp = GraphFamily::SparseGnp {
            n: 250_000,
            avg_deg: 8.0,
        };
        vec![
            trivial(million.clone(), ProblemKind::Mis).on(4).build(),
            trivial(GraphFamily::RandomTree { n: 1_000_000 }, ProblemKind::Mis)
                .on(4)
                .build(),
            trivial(sgnp, ProblemKind::Coloring).on(4).build(),
            trivial(million, ProblemKind::Mis).build(),
        ]
    }

    /// The edge-problem workload: maximal matching and (2Δ−1)-edge
    /// coloring on **every** registered graph-family variant, each under
    /// the serial engine and the 4-worker pool (the two executors the
    /// line-graph adapter rides). 10 families × 2 problems × 2 executors
    /// = 40 scenarios; serial/threaded pairs share a graph instance, so
    /// their deterministic metrics must be identical row for row.
    pub fn edges() -> Vec<Scenario> {
        let mut families = core_families();
        families.extend([
            GraphFamily::Path { n: 96 },
            GraphFamily::SparseGnp {
                n: 128,
                avg_deg: 5.0,
            },
            GraphFamily::BoundedDegree { n: 96, delta: 8 },
            GraphFamily::Star { n: 48 },
            GraphFamily::Caterpillar { spine: 10, legs: 4 },
        ]);
        families
            .into_iter()
            .flat_map(|family| {
                ProblemKind::EDGE.map(|problem| {
                    serial_and_pool(Scenario::of(family.clone(), problem, Algo::Trivial), 4)
                })
            })
            .flatten()
            .collect()
    }

    /// The energy-scaling sweep: Theorem 1 and BM21 on sparse Erdős–Rényi
    /// graphs with `n ∈ {2^10 .. 2^21}` (average degree 4, so `Δ` stays
    /// small while `n` spans three orders of magnitude). One run per
    /// (algo × size); the `max_awake` column against `log₂ n` is the
    /// paper's sub-logarithmic claim made empirical. Every deterministic
    /// column is pinned by `crates/lab/tests/golden_scaling.json`, and
    /// `--audit` gates every point against the closed-form budgets. The top sizes are only tractable because the executors'
    /// cost is proportional to awake *events*: the wheel batch-cascades
    /// across the long all-asleep gaps these runs spend most of their
    /// virtual time in.
    pub fn scaling() -> Vec<Scenario> {
        scaling_to(21)
    }

    /// The weekly deep sweep: [`scaling`] extended to `n = 2^22`. Too slow
    /// for the per-PR budget, so CI runs it on a cron schedule only.
    pub fn deep() -> Vec<Scenario> {
        scaling_to(22)
    }

    fn scaling_to(max_exp: u32) -> Vec<Scenario> {
        (10..=max_exp)
            .flat_map(|exp| {
                let family = GraphFamily::SparseGnp {
                    n: 1usize << exp,
                    avg_deg: 4.0,
                };
                [Algo::Theorem1, Algo::Bm21]
                    .into_iter()
                    .map(move |algo| Scenario::of(family.clone(), ProblemKind::Mis, algo).build())
            })
            .collect()
    }

    /// The paper's regime, `Δ > b`, where Theorem 1's Δ-free awake bound
    /// `O(√log n · log* n)` is meant to beat BM21's `O(log Δ + log* n)`.
    /// The trivial greedy, BM21 and Theorem 1 each run on two sweeps of
    /// bounded-degree graphs (36 scenarios), then BM21 and Theorem 1 on a
    /// third (8 scenarios):
    ///
    /// * (Δ+1)-coloring at `Δ = ⌊√n⌋` for `n = 2^6 .. 2^10`, awake cost
    ///   against `n`;
    /// * MIS at `n = 512` for `Δ = 4, 8, …, 256`, awake cost against Δ;
    /// * MIS on random `2b`-regular graphs for `n = 2^8 .. 2^11`, where
    ///   Theorem 13's clusters merge into large ones (`b` = 8, 8, 16, 16).
    ///
    /// `--audit` gates every row against its closed-form budget. Theorem
    /// 1's is the sum over its
    /// [stage table](awake_core::bounds::theorem1_stages), which reads only
    /// `n`, so its budget is the same on all seven rows of the Δ sweep. The measured value is not: it jumps once Δ passes `b`.
    pub fn regime() -> Vec<Scenario> {
        let by_n = (6..=10).map(|k: u32| {
            let n = 1usize << k;
            let family = GraphFamily::BoundedDegree {
                n,
                delta: n.isqrt(),
            };
            (ProblemKind::Coloring, family)
        });
        let by_delta = (2..=8).map(|k: u32| {
            let family = GraphFamily::BoundedDegree {
                n: 512,
                delta: 1 << k,
            };
            (ProblemKind::Mis, family)
        });
        let at_2b = [(256, 16), (512, 16), (1024, 32), (2048, 32)].map(|(n, d)| {
            let family = GraphFamily::RandomRegular { n, d };
            [Algo::Bm21, Algo::Theorem1]
                .map(|algo| Scenario::of(family.clone(), ProblemKind::Mis, algo).build())
        });
        by_n.chain(by_delta)
            .flat_map(|(problem, family)| {
                [Algo::Trivial, Algo::Bm21, Algo::Theorem1]
                    .map(|algo| Scenario::of(family.clone(), problem, algo).build())
            })
            .chain(at_2b.into_iter().flatten())
            .collect()
    }

    /// Seeded fault injection on the by-identifier greedy: every vertex
    /// problem on `G(n, p)` under drops, duplicates, delays and
    /// crash-restarts, on the serial engine and the 4-worker pool
    /// (8 scenarios). Serial/threaded pairs share a graph instance *and*
    /// a fault stream, so their deterministic metrics — fault counters
    /// included — must be identical row for row. The quiet tail lets every
    /// run settle, so `--audit` gates these rows against the *degraded*
    /// budgets — no exemption.
    pub fn faults() -> Vec<Scenario> {
        let family = GraphFamily::Gnp { n: 200, p: 0.06 };
        let spec = FaultSpec {
            drop_ppm: 40_000,
            dup_ppm: 25_000,
            delay_ppm: 25_000,
            crash_ppm: 15_000,
            delay_rounds: 2,
            burst_start: 0,
            burst_len: 0,
            quiet_after: 64,
        };
        ProblemKind::ALL
            .into_iter()
            .flat_map(|problem| {
                let sc = Scenario::of(family.clone(), problem, Algo::Trivial).with_faults(spec);
                serial_and_pool(sc, 4)
            })
            .collect()
    }

    /// The adversarial fault soak: seeded fault streams *aimed* at the
    /// harness's weak points rather than sprayed uniformly —
    ///
    /// * **targeted crashes at decision rounds**: a dense crash burst over
    ///   the window where the by-identifier greedy's nodes wake to
    ///   announce, on the serial engine and the worker pool at 1/2/4/8
    ///   workers (the five rows share one graph and one fault stream, so
    ///   their metrics must agree bit for bit);
    /// * **correlated drops along tree paths**: a heavy drop burst on a
    ///   random tree, where any lost edge message severs the only route
    ///   between two subtrees;
    /// * **delay bursts spanning virtual-time jumps**: delays held long
    ///   enough to resurface inside the all-asleep gaps the
    ///   event-compressed executors batch-cascade over, on the hub-heavy
    ///   star family;
    /// * **crash faults through the staged pipelines** (BM21 and
    ///   Theorem 1) and **through the line-graph adapter** (maximal
    ///   matching, serial + threaded).
    ///
    /// Every spec keeps a quiet tail, so the runs settle and `--audit`
    /// gates each row against its degraded budget.
    pub fn soak() -> Vec<Scenario> {
        // Crash burst over the greedy's decision window. Base rounds are
        // `ident_bound + 1 ≈ n`; the redundancy wrapper stretches real
        // time, so the burst covers the first half of the unstretched
        // schedule and the quiet tail leaves ample settling room.
        let n = 64u64;
        let decision_crashes = FaultSpec {
            drop_ppm: 0,
            dup_ppm: 0,
            delay_ppm: 0,
            crash_ppm: 350_000,
            delay_rounds: 1,
            burst_start: 2,
            burst_len: n / 2,
            quiet_after: n,
        };
        // Correlated drops along tree paths: inside the burst window one
        // in ten transmissions vanishes — on a tree, where a single lost
        // edge severs a whole subtree, not just one neighbor pair. Drops
        // are survived by the redundancy window's surviving copies
        // (verified per seed by the validity gate), so the rate is the
        // hottest this pinned stream tolerates, not an arbitrary dial.
        let tree_path_drops = FaultSpec {
            drop_ppm: 100_000,
            dup_ppm: 0,
            delay_ppm: 0,
            crash_ppm: 0,
            delay_rounds: 1,
            burst_start: 1,
            burst_len: 48,
            quiet_after: 56,
        };
        // Delay bursts spanning virtual-time jumps: long-held delays that
        // resurface inside the all-asleep spans the wheel batch-cascades
        // over (the star's awake schedule is maximally gappy off-hub).
        let gap_delays = FaultSpec {
            drop_ppm: 0,
            dup_ppm: 40_000,
            delay_ppm: 300_000,
            crash_ppm: 0,
            delay_rounds: 6,
            burst_start: 1,
            burst_len: 40,
            quiet_after: 52,
        };
        // A crash-heavy mix for the staged pipelines and the edge adapter.
        let staged_crashes = FaultSpec {
            drop_ppm: 30_000,
            dup_ppm: 20_000,
            delay_ppm: 20_000,
            crash_ppm: 60_000,
            delay_rounds: 2,
            burst_start: 0,
            burst_len: 0,
            quiet_after: 30,
        };
        let gnp = GraphFamily::Gnp {
            n: n as usize,
            p: 0.1,
        };
        let small = GraphFamily::Gnp { n: 36, p: 0.12 };
        let crashes =
            Scenario::of(gnp, ProblemKind::Mis, Algo::Trivial).with_faults(decision_crashes);
        let mut out = vec![crashes.clone().build()];
        out.extend([1, 2, 4, 8].map(|w| crashes.clone().on(w).build()));
        let tree = GraphFamily::RandomTree { n: 72 };
        let star = GraphFamily::Star { n: 48 };
        out.extend(serial_and_pool(
            Scenario::of(tree, ProblemKind::Coloring, Algo::Trivial).with_faults(tree_path_drops),
            4,
        ));
        out.extend(serial_and_pool(
            Scenario::of(star, ProblemKind::VertexCover, Algo::Trivial).with_faults(gap_delays),
            2,
        ));
        out.extend([
            Scenario::of(small.clone(), ProblemKind::Mis, Algo::Bm21)
                .with_faults(staged_crashes)
                .build(),
            Scenario::of(small.clone(), ProblemKind::Mis, Algo::Theorem1)
                .with_faults(staged_crashes)
                .build(),
        ]);
        out.extend(serial_and_pool(
            Scenario::of(small, ProblemKind::Matching, Algo::Trivial).with_faults(staged_crashes),
            4,
        ));
        out
    }

    /// One registry entry: a named preset plus the gate flags the suite
    /// applies (and `suite --list` surfaces) when running it.
    pub struct PresetInfo {
        /// The CLI name (`--preset <name>`).
        pub name: &'static str,
        /// One-line description.
        pub desc: &'static str,
        /// How this preset interacts with the suite's gates:
        /// `degraded-audit` (fault-injected rows gate against the
        /// closed-form *degraded* budgets instead of the fault-free ones —
        /// still a hard `--audit` gate, never an exemption) or
        /// `budget-bounded` (CI runs it under a hard wall-clock budget via
        /// `--budget-secs`).
        pub flags: &'static [&'static str],
        /// The scenarios, in suite order.
        pub scenarios: Vec<Scenario>,
    }

    /// Every preset, in registry order.
    pub fn registry() -> Vec<PresetInfo> {
        let entry = |name, desc, flags, scenarios| PresetInfo {
            name,
            desc,
            flags,
            scenarios,
        };
        const NONE: &[&str] = &[];
        vec![
            entry(
                "quick",
                "4 problems × 5 families, small sizes, Theorem 1",
                NONE,
                quick(),
            ),
            entry(
                "executors",
                "trivial + BM21 + Theorem 1 at 1 vs. 8 workers on G(n,p), all problems",
                NONE,
                executors(),
            ),
            entry(
                "huge",
                "million-node sparse graphs on the worker-pool executor",
                NONE,
                huge(),
            ),
            entry(
                "edges",
                "matching + (2Δ-1)-edge coloring on every family, serial + threaded",
                NONE,
                edges(),
            ),
            entry(
                "scaling",
                "Theorem 1 + BM21 energy sweep, n = 2^10..2^21 on sparse G(n,p)",
                &["budget-bounded"],
                scaling(),
            ),
            entry(
                "deep",
                "the scaling sweep extended to n = 2^22 (weekly cron, not per-PR)",
                &["budget-bounded"],
                deep(),
            ),
            entry(
                "regime",
                "trivial + BM21 + Theorem 1 at Δ = √n (n = 2^6..2^10) and n = 512 (Δ = 4..256); \
                 BM21 + Theorem 1 MIS at Δ = 2b (n = 2^8..2^11)",
                NONE,
                regime(),
            ),
            entry(
                "faults",
                "seeded drop/dup/delay/crash injection on G(n,p), serial + threaded",
                &["degraded-audit"],
                faults(),
            ),
            entry(
                "soak",
                "adversarial fault soak: targeted crashes, tree-path drops, gap-spanning delays",
                &["degraded-audit", "budget-bounded"],
                soak(),
            ),
        ]
    }

    /// Look a preset up by name.
    pub fn by_name(name: &str) -> Option<Vec<Scenario>> {
        registry()
            .into_iter()
            .find(|p| p.name == name)
            .map(|p| p.scenarios)
    }

    /// The five core families at a small size: Erdős–Rényi, random
    /// trees, grids, cycles, bounded-degree expanders.
    fn core_families() -> Vec<GraphFamily> {
        vec![
            GraphFamily::Gnp { n: 72, p: 0.08 },
            GraphFamily::RandomTree { n: 72 },
            GraphFamily::Grid { rows: 8, cols: 9 },
            GraphFamily::Cycle { n: 64 },
            GraphFamily::RandomRegular { n: 64, d: 4 },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_names_are_unique_within_presets() {
        for p in presets::registry() {
            let mut names: Vec<&str> = p.scenarios.iter().map(|s| s.name.as_str()).collect();
            names.sort_unstable();
            let before = names.len();
            names.dedup();
            assert_eq!(before, names.len(), "duplicate names in preset {}", p.name);
        }
    }

    #[test]
    fn quick_preset_covers_the_issue_floor() {
        let quick = presets::quick();
        assert!(quick.len() >= 20, "quick preset has {}", quick.len());
        let problems: std::collections::BTreeSet<&str> =
            quick.iter().map(|s| s.problem.key()).collect();
        assert_eq!(problems.len(), 4);
        let families: std::collections::BTreeSet<String> =
            quick.iter().map(|s| s.family.key()).collect();
        assert!(families.len() >= 5);
    }

    #[test]
    fn huge_preset_is_registered_and_million_scale() {
        let huge = presets::by_name("huge").expect("huge preset registered");
        assert!(huge
            .iter()
            .any(|s| matches!(s.family, GraphFamily::SparseGnp { n: 1_000_000, .. })));
        // the serial cross-check row shares the headline family, hence the
        // same derived seed and graph instance
        let threaded = huge
            .iter()
            .find(|s| s.executor == Executor::Pool(4))
            .expect("threaded row");
        let serial = huge
            .iter()
            .find(|s| s.executor == Executor::Serial)
            .expect("serial cross-check row");
        assert_eq!(threaded.family, serial.family);
        assert_eq!(threaded.seed(1), serial.seed(1));
    }

    #[test]
    fn edges_preset_covers_every_family_variant_and_both_executors() {
        let edges = presets::by_name("edges").expect("edges preset registered");
        assert_eq!(edges.len(), 40);
        assert!(edges.iter().all(|s| s.problem.is_edge()));
        // every GraphFamily variant is represented
        let variants: std::collections::BTreeSet<&str> = edges
            .iter()
            .map(|s| match s.family {
                GraphFamily::Path { .. } => "path",
                GraphFamily::Cycle { .. } => "cycle",
                GraphFamily::Grid { .. } => "grid",
                GraphFamily::RandomTree { .. } => "tree",
                GraphFamily::Gnp { .. } => "gnp",
                GraphFamily::SparseGnp { .. } => "sgnp",
                GraphFamily::Star { .. } => "star",
                GraphFamily::Caterpillar { .. } => "cat",
                GraphFamily::RandomRegular { .. } => "regular",
                GraphFamily::BoundedDegree { .. } => "bdeg",
            })
            .collect();
        assert_eq!(variants.len(), 10, "families: {variants:?}");
        // serial/threaded pairs share a family, hence a graph instance
        let serial = edges
            .iter()
            .filter(|s| s.executor == Executor::Serial)
            .count();
        let threaded = edges
            .iter()
            .filter(|s| s.executor == Executor::Pool(4))
            .count();
        assert_eq!((serial, threaded), (20, 20));
    }

    #[test]
    fn scaling_preset_sweeps_both_staged_algos_over_powers_of_two() {
        let scaling = presets::by_name("scaling").expect("scaling preset registered");
        assert_eq!(scaling.len(), 24);
        for exp in 10..=21usize {
            let at_n: Vec<&Scenario> = scaling
                .iter()
                .filter(|s| matches!(s.family, GraphFamily::SparseGnp { n, .. } if n == 1 << exp))
                .collect();
            let algos: std::collections::BTreeSet<&str> =
                at_n.iter().map(|s| s.algo.key()).collect();
            assert_eq!(algos, ["bm21", "theorem1"].into(), "n = 2^{exp}");
            // same family spec ⇒ same derived seed ⇒ same graph instance,
            // so the two algos compare like for like at every point
            assert_eq!(at_n[0].seed(1), at_n[1].seed(1));
        }
    }

    #[test]
    fn regime_preset_sweeps_n_at_sqrt_n_and_delta_at_fixed_n() {
        let regime = presets::by_name("regime").expect("regime preset registered");
        let rows: Vec<(&str, String, &str)> = regime
            .iter()
            .map(|s| {
                assert_eq!(s.executor, Executor::Serial, "{}", s.name);
                (s.problem.key(), s.family.key(), s.algo.key())
            })
            .collect();
        let bounded = |n, delta| GraphFamily::BoundedDegree { n, delta }.key();
        let expect: Vec<(&str, String, &str)> = [64, 128, 256, 512, 1024]
            .into_iter()
            .zip([8, 11, 16, 22, 32])
            .map(|(n, delta)| ("coloring", bounded(n, delta)))
            .chain([4, 8, 16, 32, 64, 128, 256].map(|delta| ("mis", bounded(512, delta))))
            .flat_map(|(p, f)| ["trivial", "bm21", "theorem1"].map(|a| (p, f.clone(), a)))
            .chain(
                [(256, 16), (512, 16), (1024, 32), (2048, 32)]
                    .into_iter()
                    .flat_map(|(n, d)| {
                        let f = GraphFamily::RandomRegular { n, d }.key();
                        ["bm21", "theorem1"].map(|a| ("mis", f.clone(), a))
                    }),
            )
            .collect();
        assert_eq!(rows, expect);
        // The appended sweep runs at Δ = 2b, inside the paper's regime.
        for s in &regime[36..] {
            let g = s.family.build(s.seed(1));
            let b = awake_core::params::Params::for_graph(&g).b as usize;
            assert_eq!(g.max_degree(), 2 * b, "{}", s.name);
        }
        // Theorem 1's budget never reads Δ: one figure across the Δ sweep
        let budgets: std::collections::BTreeSet<u64> = regime
            .iter()
            .filter(|s| s.problem == ProblemKind::Mis && s.algo == Algo::Theorem1)
            .filter(|s| matches!(s.family, GraphFamily::BoundedDegree { .. }))
            .map(|s| {
                crate::runner::budget_of(s, &s.family.build(s.seed(1)), s.seed(1))
                    .unwrap()
                    .awake
            })
            .collect();
        assert_eq!(budgets.len(), 1, "budgets {budgets:?}");
    }

    #[test]
    fn deep_preset_extends_scaling_and_gate_flags_are_registered() {
        let scaling = presets::by_name("scaling").expect("scaling registered");
        let deep = presets::by_name("deep").expect("deep registered");
        // deep = scaling plus the 2^22 pair, same order (so a weekly deep
        // report is a superset of the per-PR one)
        assert_eq!(deep.len(), scaling.len() + 2);
        assert_eq!(&deep[..scaling.len()], &scaling[..]);
        assert!(deep
            .iter()
            .any(|s| matches!(s.family, GraphFamily::SparseGnp { n, .. } if n == 1 << 22)));
        // the gate flags `suite --list` surfaces
        let flags_of = |name: &str| {
            presets::registry()
                .into_iter()
                .find(|p| p.name == name)
                .expect("registered")
                .flags
        };
        assert_eq!(flags_of("scaling"), ["budget-bounded"]);
        assert_eq!(flags_of("deep"), ["budget-bounded"]);
        assert_eq!(flags_of("faults"), ["degraded-audit"]);
        assert_eq!(flags_of("soak"), ["degraded-audit", "budget-bounded"]);
        assert_eq!(flags_of("quick"), [] as [&str; 0]);
    }

    #[test]
    fn faults_preset_pairs_executors_on_one_fault_stream() {
        let faults = presets::by_name("faults").expect("faults preset registered");
        assert_eq!(faults.len(), 8);
        for s in &faults {
            let spec = s.faults.expect("every row injects faults");
            assert!(s.name.ends_with("+faults"), "name {}", s.name);
            // the concrete plan derives from the scenario seed
            let plan = spec.plan(s.seed(1));
            assert_eq!(plan.seed, s.seed(1));
            assert!(plan.is_active());
            assert!(plan.delay_rounds >= 1);
        }
        // serial/threaded pairs share family ⇒ seed ⇒ graph and fault stream
        let serial = faults
            .iter()
            .filter(|s| s.executor == Executor::Serial)
            .count();
        let threaded = faults
            .iter()
            .filter(|s| s.executor == Executor::Pool(4))
            .count();
        assert_eq!((serial, threaded), (4, 4));
    }

    #[test]
    fn soak_preset_covers_the_adversary_and_worker_matrix() {
        let soak = presets::by_name("soak").expect("soak preset registered");
        // every row injects faults and keeps a quiet tail (the degraded
        // budgets require one)
        for s in &soak {
            let spec = s.faults.expect("every soak row injects faults");
            assert!(spec.quiet_after > 0, "{}: no quiet tail", s.name);
            assert!(spec.plan(s.seed(1)).is_active(), "{}: inert plan", s.name);
        }
        // the decision-crash rows cover serial plus 1/2/4/8 workers on one
        // graph and fault stream
        let crash_rows: Vec<&Scenario> = soak
            .iter()
            .filter(|s| s.faults.is_some_and(|f| f.crash_ppm > 300_000))
            .collect();
        let algos: std::collections::BTreeSet<String> =
            crash_rows.iter().map(|s| s.algo_key()).collect();
        assert_eq!(
            algos,
            [
                "trivial".to_string(),
                "trivial-t1".to_string(),
                "trivial-t2".to_string(),
                "trivial-t4".to_string(),
                "trivial-t8".to_string(),
            ]
            .into()
        );
        for s in &crash_rows[1..] {
            assert_eq!(s.family, crash_rows[0].family);
            assert_eq!(s.seed(1), crash_rows[0].seed(1), "shared fault stream");
        }
        // the three adversary shapes and the staged/edge coverage
        assert!(soak
            .iter()
            .any(|s| matches!(s.family, GraphFamily::RandomTree { .. })
                && s.faults.is_some_and(|f| f.drop_ppm > 0)));
        assert!(soak
            .iter()
            .any(|s| matches!(s.family, GraphFamily::Star { .. })
                && s.faults
                    .is_some_and(|f| f.delay_ppm > 0 && f.delay_rounds > 1)));
        assert!(soak.iter().any(|s| s.algo == Algo::Bm21));
        assert!(soak.iter().any(|s| s.algo == Algo::Theorem1));
        assert!(soak
            .iter()
            .any(|s| s.problem.is_edge() && s.faults.is_some_and(|f| f.crash_ppm > 0)));
    }

    #[test]
    fn seeds_are_stable_and_family_dependent() {
        let a = Scenario::of(GraphFamily::Path { n: 8 }, ProblemKind::Mis, Algo::Trivial).build();
        let b = Scenario::of(GraphFamily::Path { n: 9 }, ProblemKind::Mis, Algo::Trivial).build();
        // same family ⇒ same seed ⇒ same graph instance, even across
        // problems/algorithms (like-for-like comparison rows)
        let c = Scenario::of(
            GraphFamily::Path { n: 8 },
            ProblemKind::Coloring,
            Algo::Bm21,
        )
        .named("other")
        .build();
        assert_eq!(a.seed(7), a.seed(7));
        assert_eq!(a.seed(7), c.seed(7));
        assert_ne!(a.seed(7), b.seed(7));
        assert_ne!(a.seed(7), a.seed(8));
    }

    #[test]
    fn families_build_the_requested_sizes() {
        assert_eq!(GraphFamily::Path { n: 5 }.build(0).n(), 5);
        assert_eq!(GraphFamily::Grid { rows: 3, cols: 4 }.build(0).n(), 12);
        let g = GraphFamily::RandomRegular { n: 32, d: 4 }.build(9);
        assert_eq!(g.n(), 32);
        assert!(g.max_degree() <= 4);
        // same seed, same graph
        assert_eq!(
            GraphFamily::Gnp { n: 40, p: 0.1 }.build(3),
            GraphFamily::Gnp { n: 40, p: 0.1 }.build(3)
        );
    }
}
