//! Closed-form awake/round budgets for every algorithm in the crate.
//!
//! The tests and the experiment harness assert `measured ≤ bound`; the
//! bounds are the paper's statements made concrete with this
//! implementation's exact constants (no hidden `O(·)`).

use crate::gather::gather_rounds;
use crate::lemma10::PaletteTree;
use crate::lemma14::lemma14_vrounds;
use crate::params::Params;
use crate::{linial, virt};
use awake_graphs::Graph;
use awake_sleeping::{redundancy_for, FaultPlan};

/// Lemma 6: broadcast/convergecast awake complexity (non-root nodes).
pub const LEMMA6_AWAKE: u64 = 3;

/// Lemma 6: round complexity for label bound `n_labels`.
pub fn lemma6_rounds(n_labels: u64) -> u64 {
    n_labels + 3
}

/// Awake rounds of the intra-cluster gather (per node).
pub const GATHER_AWAKE: u64 = 5;

/// Awake rounds the Lemma 7 simulator pays per awake virtual round.
pub const VIRT_AWAKE_PER_VROUND: u64 = 5;

/// Linial's round count from palette `m0` at degree bound `delta`
/// (the `O(log* n)` term, computed exactly).
pub fn linial_rounds(m0: u64, delta: u64) -> u64 {
    linial::schedule(m0, delta).len() as u64
}

/// Lemma 11 awake complexity on a `k`-coloring: one mandatory round plus
/// the `r(c)` wake set, `= 2 + log₂ q` with `q = 2^⌈log₂ k⌉`.
pub fn lemma11_awake(k: u64) -> u64 {
    2 + PaletteTree::covering(k).q().trailing_zeros() as u64
}

/// Lemma 11 round complexity (`1 + (2q − 1)`).
pub fn lemma11_rounds(k: u64) -> u64 {
    1 + PaletteTree::covering(k).horizon()
}

/// BM21 awake bound for a graph: Linial rounds (always awake, ≥ 1 for the
/// mandatory first round) + Lemma 11 on the `O(Δ²)` palette.
pub fn bm21_awake(g: &Graph) -> u64 {
    let delta = g.max_degree().max(1) as u64;
    linial_rounds(g.ident_bound(), delta).max(1) + lemma11_awake(linial::final_palette(delta))
}

/// Trivial baseline awake bound: `Δ + 2`.
pub fn trivial_awake(g: &Graph) -> u64 {
    g.max_degree() as u64 + 2
}

/// Virtual-round budget of one Lemma 15 execution at iteration `i`
/// (label bound `lb`): the constant info rounds, two Lemma 6 passes over
/// the `F₂` forest with labels `≤ 4·lb + 1`, and the Linial loop on
/// `H[U]`.
pub fn lemma15_vrounds(p: &Params, iteration: u32) -> u64 {
    let lb = p.label_bound(iteration);
    let n6 = 4 * lb + 2; // c₂ ranges over 0..=4·lb+1
    let t_u = linial_rounds(lb + 1, p.b);
    3 + 2 * (n6 + 2) + 1 + 2 * (n6 + 2) + 1 + 1 + t_u + 2
}

/// Awake virtual rounds a vertex spends inside Lemma 15 (constant + the
/// Linial loop).
pub fn lemma15_vertex_awake(p: &Params, iteration: u32) -> u64 {
    let lb = p.label_bound(iteration);
    let t_u = linial_rounds(lb + 1, p.b);
    // vr1..3 info + 2·(cc+bc) twice + membership round + Linial loop
    3 + 4 + 1 + 4 + 1 + t_u
}

/// Real-round budget of one full Theorem 13 iteration.
pub fn theorem13_iteration_rounds(p: &Params, iteration: u32) -> u64 {
    virt::virt_rounds(p.depth_bound, lemma15_vrounds(p, iteration))
        + virt::virt_rounds(p.depth_bound, lemma14_vrounds(p.depth_bound))
}

/// Awake bound of one Theorem 13 iteration: the Lemma 7 overhead on every
/// awake virtual round of Lemma 15, plus the O(1)-awake Lemma 14 stage.
pub fn theorem13_iteration_awake(p: &Params, iteration: u32) -> u64 {
    GATHER_AWAKE
        + VIRT_AWAKE_PER_VROUND * lemma15_vertex_awake(p, iteration)
        + GATHER_AWAKE
        + VIRT_AWAKE_PER_VROUND * 5
}

/// Awake bound for the whole Theorem 13 pipeline:
/// `O(√log n · log* n)` with explicit constants.
pub fn theorem13_awake(p: &Params) -> u64 {
    (1..=p.iterations)
        .map(|i| theorem13_iteration_awake(p, i))
        .sum()
}

/// Theorem 9 awake bound given a `c`-colored clustering: one gather plus
/// Lemma 11 on `H` through the Lemma 7 simulator.
pub fn theorem9_awake(c: u64) -> u64 {
    GATHER_AWAKE + VIRT_AWAKE_PER_VROUND * (1 + lemma11_awake(c))
}

/// Theorem 9 round bound: `O(c·n)`.
pub fn theorem9_rounds(p: &Params, c: u64) -> u64 {
    virt::virt_rounds(p.depth_bound, lemma11_rounds(c) + 1)
}

/// Theorem 1 awake bound: Theorem 13 + Theorem 9 on `≤ k·a·b²` colors.
pub fn theorem1_awake(p: &Params) -> u64 {
    theorem13_awake(p) + theorem9_awake(p.color_bound())
}

// ---- round bounds ----

/// Trivial baseline round bound: every node announces at round
/// `1 + ident`, so the schedule ends by `ident_bound + 1`.
pub fn trivial_rounds(g: &Graph) -> u64 {
    g.ident_bound() + 1
}

/// BM21 round bound: the always-awake Linial stage (≥ 1 for the mandatory
/// first round) plus the Lemma 11 horizon on the `O(Δ²)` palette.
pub fn bm21_rounds(g: &Graph) -> u64 {
    let delta = g.max_degree().max(1) as u64;
    linial_rounds(g.ident_bound(), delta).max(1) + lemma11_rounds(linial::final_palette(delta))
}

/// Round bound of the whole Theorem 13 pipeline (`Σ` iteration budgets).
pub fn theorem13_rounds(p: &Params) -> u64 {
    (1..=p.iterations)
        .map(|i| theorem13_iteration_rounds(p, i))
        .sum()
}

/// Theorem 9 round bound including its stage-1 root-overlay gather (the
/// [`theorem9_rounds`] figure covers only the Lemma-11-on-`H` stage).
pub fn theorem9_rounds_total(p: &Params, c: u64) -> u64 {
    gather_rounds(p.depth_bound) + theorem9_rounds(p, c)
}

/// Theorem 1 round bound: Theorem 13 followed by Theorem 9 on the
/// `k·a·b²` color budget.
pub fn theorem1_rounds(p: &Params) -> u64 {
    theorem13_rounds(p) + theorem9_rounds_total(p, p.color_bound())
}

// ---- line-graph adapter bounds (edge problems) ----

/// Awake bound of the line-graph virtualization adapter running the
/// by-label [`EdgeGreedy`](crate::linegraph::EdgeGreedy) on `L(G)`.
///
/// A host is awake exactly when one of its incident edges' replicas is
/// awake (one virtual round of `L(G)` costs one real round of `G`), and
/// edge `e` is awake at most `deg_L(e) + 2` virtual rounds, so node `v`
/// pays at most `Σ_{e ∋ v} (deg_L(e) + 2)` awake rounds. With
/// `deg_L({u, w}) = deg(u) + deg(w) − 2` this collapses to the closed form
/// `deg(v)² + Σ_{u ∼ v} deg(u)`, maximized over hosts.
pub fn linegraph_awake(g: &Graph) -> u64 {
    g.nodes()
        .map(|v| {
            let dv = g.degree(v) as u64;
            let nbr_deg: u64 = g.neighbors(v).iter().map(|&u| g.degree(u) as u64).sum();
            dv * dv + nbr_deg
        })
        .max()
        .unwrap_or(0)
}

/// Round bound of the line-graph adapter: labels are `1..=m` and the
/// largest label announces (and every replica halts) at virtual round
/// `m` = real round `m`.
pub fn linegraph_rounds(g: &Graph) -> u64 {
    g.m() as u64
}

// ---- the audit entry point ----

/// A closed-form resource budget: the paper's bound with this
/// implementation's exact constants. The harness asserts
/// `measured max_awake ≤ awake` and `measured rounds ≤ rounds`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Awake-complexity budget (max over nodes of awake rounds).
    pub awake: u64,
    /// Round-complexity budget (last round any node is awake).
    pub rounds: u64,
}

/// The solver generations the budgets cover. The threaded executor is
/// bit-for-bit identical to the serial one, so it shares
/// [`BoundAlgo::Trivial`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundAlgo {
    /// The folklore by-identifier greedy (`O(Δ)` awake).
    Trivial,
    /// Barenboim–Maimon (`O(log Δ + log* n)` awake).
    Bm21,
    /// The paper's Theorem 1 (`O(√log n · log* n)` awake).
    Theorem1,
}

/// Which class of problem the scenario solves: budgets depend on the
/// pipeline, not the concrete O-LOCAL problem, except that edge problems
/// ride the line-graph adapter (and only on the trivial executors).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProblemClass {
    /// A vertex problem (MIS, coloring, …) solved directly on `G`.
    Vertex,
    /// An edge problem (matching, edge coloring) solved on `L(G)` via the
    /// virtualization adapter.
    Edge,
}

/// The single audit entry point: the exact awake/round budget of running
/// `algo` on a `class` problem over `g` with parameters `p`.
///
/// Returns `None` for the unsupported pairings (edge problems exist for
/// the trivial adapter only — the same combinations the harness rejects
/// with a typed error).
pub fn budget_for(algo: BoundAlgo, class: ProblemClass, g: &Graph, p: &Params) -> Option<Budget> {
    match (class, algo) {
        (ProblemClass::Vertex, BoundAlgo::Trivial) => Some(Budget {
            awake: trivial_awake(g),
            rounds: trivial_rounds(g),
        }),
        (ProblemClass::Vertex, BoundAlgo::Bm21) => Some(Budget {
            awake: bm21_awake(g),
            rounds: bm21_rounds(g),
        }),
        (ProblemClass::Vertex, BoundAlgo::Theorem1) => Some(Budget {
            awake: theorem1_awake(p),
            rounds: theorem1_rounds(p),
        }),
        (ProblemClass::Edge, BoundAlgo::Trivial) => Some(Budget {
            awake: linegraph_awake(g),
            rounds: linegraph_rounds(g),
        }),
        (ProblemClass::Edge, _) => None,
    }
}

// ---- degraded budgets (the recovery contract) ----

/// Per-stage budgets of the BM21 pipeline at degree bound `delta`:
/// `[linial, lemma11]`. The rounds figures are the *same* closed forms the
/// resilient solvers size their [`Redundant`](awake_sleeping::Redundant)
/// windows from, so solver and auditor always agree on the stretch factor.
pub fn bm21_stage_budgets(g: &Graph, delta: u64) -> [Budget; 2] {
    let t = linial_rounds(g.ident_bound(), delta).max(1);
    let k = linial::final_palette(delta);
    [
        // Linial keeps every node awake for the whole stage.
        Budget {
            awake: t,
            rounds: t,
        },
        Budget {
            awake: lemma11_awake(k),
            rounds: lemma11_rounds(k),
        },
    ]
}

/// Per-stage budgets of the Theorem 13 pipeline, two per iteration
/// (`lemma15`, `lemma14`), in execution order. Early-exhausted runs simply
/// skip trailing stages, which only lowers the measured figures.
pub fn theorem13_stage_budgets(p: &Params) -> Vec<Budget> {
    let mut v = Vec::with_capacity(2 * p.iterations as usize);
    for i in 1..=p.iterations {
        v.push(Budget {
            awake: GATHER_AWAKE + VIRT_AWAKE_PER_VROUND * lemma15_vertex_awake(p, i),
            rounds: virt::virt_rounds(p.depth_bound, lemma15_vrounds(p, i)),
        });
        v.push(Budget {
            awake: GATHER_AWAKE + VIRT_AWAKE_PER_VROUND * 5,
            rounds: virt::virt_rounds(p.depth_bound, lemma14_vrounds(p.depth_bound)),
        });
    }
    v
}

/// Per-stage budgets of Theorem 9 on a `c`-colored clustering with depth
/// bound `db`: `[root-overlay gather, lemma11-on-H]`. Takes the depth
/// bound directly (the solver passes `g.n()`, the auditor
/// `Params::depth_bound` — equal by construction) so both sides derive
/// identical stretch factors.
pub fn theorem9_stage_budgets(db: u32, c: u64) -> [Budget; 2] {
    [
        Budget {
            awake: GATHER_AWAKE,
            rounds: gather_rounds(db),
        },
        Budget {
            awake: VIRT_AWAKE_PER_VROUND * (1 + lemma11_awake(c)),
            rounds: virt::virt_rounds(db, lemma11_rounds(c) + 1),
        },
    ]
}

/// Round budget of one stage degraded by `plan` at stretch factor `s`
/// (from [`redundancy_for`]): the stretched fault-free budget, extended to
/// the end of the fault window (crash-forced wake-ups can chain until the
/// quiet period) plus the delay horizon and a constant tail for the
/// crash-forced wake-up past the last faulty round. The resilient solvers
/// use this very figure as the engine's round cap.
pub fn degraded_stage_rounds(base_rounds: u64, s: u64, plan: &FaultPlan) -> u64 {
    s.saturating_mul(base_rounds)
        .max(plan.quiet_after)
        .saturating_add(plan.delay_rounds)
        .saturating_add(4)
}

/// Awake budget of one stage degraded by `plan`: the stretched fault-free
/// budget plus one recovery wake-up per possible crash. Crashes are rolled
/// only on awake node-rounds inside the fault window, so the extra term is
/// bounded by the window length (`burst_len`, then `quiet_after`, then the
/// whole degraded run), and a node is never awake more often than the run
/// has rounds.
pub fn degraded_stage_awake(base_awake: u64, s: u64, plan: &FaultPlan, rounds_d: u64) -> u64 {
    let mut window = if plan.quiet_after > 0 {
        plan.quiet_after.min(rounds_d)
    } else {
        rounds_d
    };
    if plan.burst_len > 0 {
        window = window.min(plan.burst_len);
    }
    s.saturating_mul(base_awake)
        .saturating_add(window)
        .saturating_add(2)
        .min(rounds_d)
}

/// The degraded audit entry point: the closed-form awake/round budget of
/// running `algo` on a `class` problem over `g` under fault injection
/// `plan`, with every stage wrapped in
/// [`Redundant`](awake_sleeping::Redundant) time redundancy the way the
/// resilient solvers do it.
///
/// The inflation is a pure function of the plan: per stage, the stretch
/// factor comes from [`redundancy_for`] on the same closed-form stage
/// round bound the solver uses, and the stage budget degrades by
/// [`degraded_stage_rounds`] / [`degraded_stage_awake`]. Stage budgets are
/// then summed per Lemma 8. An inactive plan degrades nothing — the result
/// equals [`budget_for`].
///
/// Returns `None` exactly where [`budget_for`] does (edge problems exist
/// for the trivial adapter only).
pub fn degraded_budget_for(
    algo: BoundAlgo,
    class: ProblemClass,
    g: &Graph,
    p: &Params,
    plan: &FaultPlan,
) -> Option<Budget> {
    let base = budget_for(algo, class, g, p)?;
    if !plan.is_active() {
        return Some(base);
    }
    let stages: Vec<Budget> = match (class, algo) {
        (_, BoundAlgo::Trivial) => vec![base],
        (ProblemClass::Vertex, BoundAlgo::Bm21) => {
            bm21_stage_budgets(g, g.max_degree().max(1) as u64).to_vec()
        }
        (ProblemClass::Vertex, BoundAlgo::Theorem1) => {
            let mut v = theorem13_stage_budgets(p);
            v.extend(theorem9_stage_budgets(p.depth_bound, p.color_bound()));
            v
        }
        (ProblemClass::Edge, _) => unreachable!("budget_for rejected these above"),
    };
    let mut awake = 0u64;
    let mut rounds = 0u64;
    for b in stages {
        let s = redundancy_for(plan, g.n(), b.rounds);
        let rd = degraded_stage_rounds(b.rounds, s, plan);
        awake = awake.saturating_add(degraded_stage_awake(b.awake, s, plan, rd));
        rounds = rounds.saturating_add(rd);
    }
    Some(Budget { awake, rounds })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lemma11_bounds_are_logarithmic() {
        assert_eq!(lemma11_awake(1), 2);
        assert_eq!(lemma11_awake(2), 3);
        assert_eq!(lemma11_awake(8), 5);
        assert_eq!(lemma11_awake(9), 6); // q = 16
        assert_eq!(lemma11_rounds(8), 16);
    }

    #[test]
    fn theorem1_bound_is_sublogarithmic_in_n() {
        // The bound divided by log₂ n must *shrink* as n grows
        // (√log n · log* n = o(log n)).
        let small = Params::new(1 << 10, 1 << 10);
        let large = Params::new(1 << 26, 1 << 26);
        let ratio_small = theorem1_awake(&small) as f64 / 10.0;
        let ratio_large = theorem1_awake(&large) as f64 / 26.0;
        assert!(
            ratio_large < ratio_small,
            "bound/log n should decrease: {ratio_small} vs {ratio_large}"
        );
    }

    #[test]
    fn bounds_are_monotone_in_iteration() {
        let p = Params::new(4096, 4096);
        assert!(lemma15_vrounds(&p, 2) >= lemma15_vrounds(&p, 1));
        assert!(theorem13_iteration_rounds(&p, 1) > 0);
    }

    /// The closed-form `lemma15_vrounds` must dominate the virtual-round
    /// budget the Theorem 13 engine actually allots (`cfg.vrounds() + 2`),
    /// or the round bounds would undercut the execution they audit.
    #[test]
    fn lemma15_vrounds_covers_the_engine_budget() {
        for n in [16usize, 256, 4096, 1 << 16] {
            let p = Params::new(n, n as u64);
            for i in 1..=p.iterations {
                let cfg = crate::lemma15::Lemma15Config {
                    b: p.b,
                    label_bound: p.label_bound(i),
                    ab2: p.ab2,
                };
                assert!(
                    lemma15_vrounds(&p, i) >= cfg.vrounds() + 2,
                    "n={n} iter={i}: bound {} < engine budget {}",
                    lemma15_vrounds(&p, i),
                    cfg.vrounds() + 2
                );
            }
        }
    }

    #[test]
    fn linegraph_bounds_closed_form() {
        use awake_graphs::generators;
        // Star S_4: hub degree 4. Hub bound = 16 + 4·1 = 20; a leaf pays
        // 1 + deg(hub) = 5. Rounds = m = 4.
        let g = generators::star(5);
        assert_eq!(linegraph_awake(&g), 20);
        assert_eq!(linegraph_rounds(&g), 4);
        // Edgeless graph: nothing wakes.
        let empty = awake_graphs::GraphBuilder::new(3).build().unwrap();
        assert_eq!(linegraph_awake(&empty), 0);
        assert_eq!(linegraph_rounds(&empty), 0);
    }

    #[test]
    fn budget_for_covers_every_supported_pairing() {
        use awake_graphs::generators;
        let g = generators::gnp(48, 0.1, 3);
        let p = Params::for_graph(&g);
        for algo in [BoundAlgo::Trivial, BoundAlgo::Bm21, BoundAlgo::Theorem1] {
            let b = budget_for(algo, ProblemClass::Vertex, &g, &p).unwrap();
            assert!(b.awake > 0 && b.rounds > 0, "{algo:?}: {b:?}");
        }
        let b = budget_for(BoundAlgo::Trivial, ProblemClass::Edge, &g, &p).unwrap();
        assert!(b.awake > 0 && b.rounds == g.m() as u64);
        assert_eq!(
            budget_for(BoundAlgo::Bm21, ProblemClass::Edge, &g, &p),
            None
        );
        assert_eq!(
            budget_for(BoundAlgo::Theorem1, ProblemClass::Edge, &g, &p),
            None
        );
    }

    #[test]
    fn round_bounds_dominate_awake_bounds() {
        // A node can be awake at most once per round, so every pipeline's
        // round budget must be at least its awake budget.
        use awake_graphs::generators;
        let g = generators::gnp(64, 0.1, 5);
        let p = Params::for_graph(&g);
        assert!(trivial_rounds(&g) >= trivial_awake(&g));
        assert!(bm21_rounds(&g) >= bm21_awake(&g));
        assert!(theorem1_rounds(&p) >= theorem1_awake(&p));
    }

    #[test]
    fn stage_budgets_sum_to_at_most_the_pipeline_budget() {
        // The degraded model decomposes each pipeline into stages whose
        // fault-free bounds must never exceed the composed closed form —
        // otherwise the inactive-plan degraded budget would be looser than
        // the audited one.
        use awake_graphs::generators;
        let g = generators::gnp(48, 0.1, 3);
        let p = Params::for_graph(&g);
        let bm = bm21_stage_budgets(&g, g.max_degree().max(1) as u64);
        assert!(bm.iter().map(|b| b.awake).sum::<u64>() <= bm21_awake(&g));
        assert!(bm.iter().map(|b| b.rounds).sum::<u64>() <= bm21_rounds(&g));
        let mut t1 = theorem13_stage_budgets(&p);
        t1.extend(theorem9_stage_budgets(p.depth_bound, p.color_bound()));
        assert!(t1.iter().map(|b| b.awake).sum::<u64>() <= theorem1_awake(&p));
        assert!(t1.iter().map(|b| b.rounds).sum::<u64>() <= theorem1_rounds(&p));
    }

    #[test]
    fn degraded_budget_is_identity_on_inactive_plans() {
        use awake_graphs::generators;
        let g = generators::gnp(40, 0.12, 1);
        let p = Params::for_graph(&g);
        let quiet = FaultPlan::new(5);
        for (algo, class) in [
            (BoundAlgo::Trivial, ProblemClass::Vertex),
            (BoundAlgo::Trivial, ProblemClass::Edge),
            (BoundAlgo::Bm21, ProblemClass::Vertex),
            (BoundAlgo::Theorem1, ProblemClass::Vertex),
        ] {
            assert_eq!(
                degraded_budget_for(algo, class, &g, &p, &quiet),
                budget_for(algo, class, &g, &p),
                "{algo:?}/{class:?}"
            );
        }
        // Unsupported pairings stay unsupported.
        let mut hot = FaultPlan::new(5);
        hot.crash_ppm = 100_000;
        assert_eq!(
            degraded_budget_for(BoundAlgo::Bm21, ProblemClass::Edge, &g, &p, &hot),
            None
        );
    }

    #[test]
    fn degraded_budget_dominates_the_fault_free_one() {
        // An active plan can only inflate: the degraded budget must
        // dominate the fault-free closed form for every supported pairing,
        // and the inflation must grow with the redundancy the plan forces.
        use awake_graphs::generators;
        let g = generators::gnp(40, 0.12, 1);
        let p = Params::for_graph(&g);
        let mut mild = FaultPlan::new(11);
        mild.drop_ppm = 40_000;
        mild.quiet_after = 30;
        let mut hot = FaultPlan { ..mild };
        hot.crash_ppm = 800_000;
        hot.burst_start = 1;
        hot.burst_len = 8;
        for (algo, class) in [
            (BoundAlgo::Trivial, ProblemClass::Vertex),
            (BoundAlgo::Trivial, ProblemClass::Edge),
            (BoundAlgo::Bm21, ProblemClass::Vertex),
            (BoundAlgo::Theorem1, ProblemClass::Vertex),
        ] {
            let base = budget_for(algo, class, &g, &p).unwrap();
            let dm = degraded_budget_for(algo, class, &g, &p, &mild).unwrap();
            let dh = degraded_budget_for(algo, class, &g, &p, &hot).unwrap();
            assert!(
                dm.awake >= base.awake && dm.rounds >= base.rounds,
                "{algo:?}/{class:?}"
            );
            assert!(
                dh.rounds >= dm.rounds,
                "{algo:?}/{class:?}: crashes widen rounds"
            );
        }
    }

    #[test]
    fn degraded_stage_math_is_monotone_and_capped() {
        let mut plan = FaultPlan::new(1);
        plan.drop_ppm = 10_000;
        plan.quiet_after = 20;
        let r2 = degraded_stage_rounds(50, 2, &plan);
        let r4 = degraded_stage_rounds(50, 4, &plan);
        assert!(r2 >= 2 * 50 && r4 > r2, "stretch inflates rounds");
        // Awake is never more than one event per degraded round.
        assert!(degraded_stage_awake(10_000, 4, &plan, r4) <= r4);
        // The quiet window bounds the crash-forced overhead term.
        let open = FaultPlan {
            quiet_after: 0,
            ..plan
        };
        assert!(degraded_stage_awake(3, 2, &plan, 1000) <= degraded_stage_awake(3, 2, &open, 1000));
    }
}
