//! Closed-form awake/round budgets for every algorithm in the crate.
//!
//! Every solver is a Lemma 8 chain of stages, and this module declares
//! each solver's stages once, as a table of named budgets: [`stages_for`]
//! returns it for every supported (solver × problem class) pairing, built
//! from [`bm21_stages`], [`theorem13_iteration`] and [`theorem9_stages`].
//! A stage's name is the one its solver records in its [`Composition`],
//! and its rounds figure is the one the solver sizes the stage's engine
//! run from. The table is the one source: [`budget_for`] is its Lemma 8
//! sum, [`degraded_budget_for`] its stage-by-stage degraded sum, and
//! [`audit_stages`] checks a run against it stage by stage.
//!
//! The tests and the experiment harness assert `measured ≤ bound`; the
//! bounds are the paper's statements made concrete with this
//! implementation's exact constants (no hidden `O(·)`).

use crate::compose::Composition;
use crate::gather::gather_rounds;
use crate::lemma10::PaletteTree;
use crate::lemma14::lemma14_vrounds;
use crate::lemma15::Lemma15Config;
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

/// Trivial baseline awake bound: `Δ + 2`.
pub fn trivial_awake(g: &Graph) -> u64 {
    g.max_degree() as u64 + 2
}

/// Trivial baseline round bound: every node announces at round
/// `1 + ident`, so the schedule ends by `ident_bound + 1`.
pub fn trivial_rounds(g: &Graph) -> u64 {
    g.ident_bound() + 1
}

/// Virtual-round budget of one Lemma 15 execution at iteration `i`: the
/// phase's own schedule ([`Lemma15Config::vrounds`]: the constant info
/// rounds, two Lemma 6 passes over the `F₂` forest, the membership round
/// and the Linial loop on `H[U]`) plus two virtual rounds of headroom.
/// The headroom is the slack Theorem 13's engine cap for the stage has
/// always granted (the cap is this budget plus two real rounds), so the
/// budget and the cap stay one figure; the phase itself ends by
/// `vrounds() − 1`.
pub fn lemma15_vrounds(p: &Params, iteration: u32) -> u64 {
    Lemma15Config::at(p, iteration).vrounds() + 2
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

// ---- the stage table ----

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

/// Lemma 8: budgets compose by adding awake and rounds figures.
impl std::iter::Sum for Budget {
    fn sum<I: Iterator<Item = Budget>>(iter: I) -> Budget {
        let (mut awake, mut rounds) = (0u64, 0u64);
        for b in iter {
            awake = awake.saturating_add(b.awake);
            rounds = rounds.saturating_add(b.rounds);
        }
        Budget { awake, rounds }
    }
}

/// One Lemma 8 stage of a solver: the name the solver records it under
/// in its [`Composition`] and its fault-free budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stage {
    /// The stage's name, e.g. `"theorem13/iter1/lemma15"`.
    pub name: String,
    /// Its closed-form budget.
    pub budget: Budget,
}

fn stage(name: impl Into<String>, awake: u64, rounds: u64) -> Stage {
    Stage {
        name: name.into(),
        budget: Budget { awake, rounds },
    }
}

/// BM21's stages at degree bound `delta`: Linial's reduction to the
/// `O(Δ²)` palette, awake for the whole stage (≥ 1 round, the mandatory
/// first one), then Lemma 11 on that palette.
pub fn bm21_stages(g: &Graph, delta: u64) -> [Stage; 2] {
    let t = linial_rounds(g.ident_bound(), delta).max(1);
    let k = linial::final_palette(delta);
    [
        stage("bm21/linial", t, t),
        stage("bm21/lemma11", lemma11_awake(k), lemma11_rounds(k)),
    ]
}

/// Theorem 13's stages at iteration `i`: Lemma 15 on `H`, then Lemma 14
/// on the survivors, each one setup gather plus
/// [`VIRT_AWAKE_PER_VROUND`] per awake virtual round of the Lemma 7
/// simulator. A Lemma 15 vertex is awake at the three info rounds, two
/// rounds of each cast in its two passes, the membership round and the
/// Linial loop on `H[U]`; a Lemma 14 vertex at the first round and two
/// rounds of each cast.
pub fn theorem13_iteration(p: &Params, i: u32) -> [Stage; 2] {
    let db = p.depth_bound;
    let t_u = Lemma15Config::at(p, i).lin_steps().len() as u64;
    [
        stage(
            format!("theorem13/iter{i}/lemma15"),
            GATHER_AWAKE + VIRT_AWAKE_PER_VROUND * (3 + 4 + 1 + 4 + 1 + t_u),
            virt::virt_rounds(db, lemma15_vrounds(p, i)),
        ),
        stage(
            format!("theorem13/iter{i}/lemma14"),
            GATHER_AWAKE + VIRT_AWAKE_PER_VROUND * 5,
            virt::virt_rounds(db, lemma14_vrounds(db)),
        ),
    ]
}

/// Theorem 13's stages over all `k` iterations, in execution order. A
/// run that exhausts the graph early skips the trailing stages.
pub fn theorem13_stages(p: &Params) -> Vec<Stage> {
    (1..=p.iterations)
        .flat_map(|i| theorem13_iteration(p, i))
        .collect()
}

/// Theorem 9's stages on a `c`-colored clustering with depth bound `db`:
/// the root-overlay gather, then Lemma 11 on `H` through the Lemma 7
/// simulator. Takes the depth bound directly: the solver passes `g.n()`,
/// the table `Params::depth_bound`, equal by construction.
pub fn theorem9_stages(db: u32, c: u64) -> [Stage; 2] {
    [
        stage("theorem9/root-overlay", GATHER_AWAKE, gather_rounds(db)),
        stage(
            "theorem9/lemma11-on-H",
            VIRT_AWAKE_PER_VROUND * (1 + lemma11_awake(c)),
            virt::virt_rounds(db, lemma11_rounds(c) + 1),
        ),
    ]
}

/// Theorem 1's stages: Theorem 13's, then Theorem 9's on the `k·a·b²`
/// color budget, each named with the `theorem1/` prefix.
pub fn theorem1_stages(p: &Params) -> Vec<Stage> {
    theorem13_stages(p)
        .into_iter()
        .chain(theorem9_stages(p.depth_bound, p.color_bound()))
        .map(|s| Stage {
            name: format!("theorem1/{}", s.name),
            ..s
        })
        .collect()
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

/// The stage table: every stage of running `algo` on a `class` problem
/// over `g` with parameters `p`, in execution order. The trivial greedy
/// and the line-graph adapter are one stage each.
///
/// Returns `None` for the unsupported pairings (edge problems exist for
/// the trivial adapter only — the same combinations the harness rejects
/// with a typed error).
pub fn stages_for(
    algo: BoundAlgo,
    class: ProblemClass,
    g: &Graph,
    p: &Params,
) -> Option<Vec<Stage>> {
    Some(match (class, algo) {
        (ProblemClass::Vertex, BoundAlgo::Trivial) => {
            vec![stage("trivial", trivial_awake(g), trivial_rounds(g))]
        }
        (ProblemClass::Vertex, BoundAlgo::Bm21) => {
            bm21_stages(g, g.max_degree().max(1) as u64).to_vec()
        }
        (ProblemClass::Vertex, BoundAlgo::Theorem1) => theorem1_stages(p),
        (ProblemClass::Edge, BoundAlgo::Trivial) => {
            vec![stage("linegraph", linegraph_awake(g), linegraph_rounds(g))]
        }
        (ProblemClass::Edge, _) => return None,
    })
}

/// The single audit entry point: the exact awake/round budget of running
/// `algo` on a `class` problem over `g` with parameters `p` — the Lemma 8
/// sum over [`stages_for`], and `None` where it is.
pub fn budget_for(algo: BoundAlgo, class: ProblemClass, g: &Graph, p: &Params) -> Option<Budget> {
    let stages = stages_for(algo, class, g, p)?;
    Some(stages.iter().map(|s| s.budget).sum())
}

/// Check a run's stages against a stage table: every stage `composition`
/// records needs a table entry of the same name, and its `max_awake` and
/// `rounds` must lie within that entry's budget. Table entries the run
/// skipped are not checked.
///
/// # Errors
/// Names the first stage without an entry or over its budget.
pub fn audit_stages(composition: &Composition, table: &[Stage]) -> Result<(), String> {
    for s in &composition.stages {
        let Some(t) = table.iter().find(|t| t.name == s.name) else {
            return Err(format!("{}: no budget", s.name));
        };
        let (awake, rounds) = (s.metrics.max_awake(), s.metrics.rounds);
        if awake > t.budget.awake || rounds > t.budget.rounds {
            let b = t.budget;
            return Err(format!(
                "{}: awake {awake}, rounds {rounds} over {b:?}",
                s.name
            ));
        }
    }
    Ok(())
}

// ---- degraded budgets (the recovery contract) ----

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
/// Each stage of [`stages_for`] degrades on its own: its stretch factor
/// comes from [`redundancy_for`] on the stage's rounds figure (the one the
/// solver sizes its windows from), and its budget degrades by
/// [`degraded_stage_rounds`] / [`degraded_stage_awake`]. The degraded
/// stages are then summed per Lemma 8. An inactive plan degrades nothing —
/// the result equals [`budget_for`].
///
/// Returns `None` exactly where [`budget_for`] does.
pub fn degraded_budget_for(
    algo: BoundAlgo,
    class: ProblemClass,
    g: &Graph,
    p: &Params,
    plan: &FaultPlan,
) -> Option<Budget> {
    if !plan.is_active() {
        return budget_for(algo, class, g, p);
    }
    let stages = stages_for(algo, class, g, p)?;
    let degrade = |b: Budget| {
        let s = redundancy_for(plan, g.n(), b.rounds);
        let rounds = degraded_stage_rounds(b.rounds, s, plan);
        Budget {
            awake: degraded_stage_awake(b.awake, s, plan, rounds),
            rounds,
        }
    };
    Some(stages.iter().map(|s| degrade(s.budget)).sum())
}

#[cfg(test)]
mod tests {
    use super::*;
    use awake_graphs::generators;

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
        let awake = |p: Params| {
            theorem1_stages(&p)
                .iter()
                .map(|s| s.budget)
                .sum::<Budget>()
                .awake as f64
        };
        let ratio_small = awake(Params::new(1 << 10, 1 << 10)) / 10.0;
        let ratio_large = awake(Params::new(1 << 26, 1 << 26)) / 26.0;
        assert!(
            ratio_large < ratio_small,
            "bound/log n should decrease: {ratio_small} vs {ratio_large}"
        );
    }

    #[test]
    fn bounds_are_monotone_in_iteration() {
        let p = Params::new(4096, 4096);
        assert!(lemma15_vrounds(&p, 2) >= lemma15_vrounds(&p, 1));
        let [l15, l14] = theorem13_iteration(&p, 1);
        assert!(l15.budget.rounds > 0 && l14.budget.rounds > 0);
    }

    /// The closed-form `lemma15_vrounds` must cover every virtual round
    /// the phase's schedule uses, up to its last Linial duty, or the round
    /// bounds would undercut the execution they audit.
    #[test]
    fn lemma15_vrounds_covers_the_engine_budget() {
        for n in [16usize, 256, 4096, 1 << 16] {
            let p = Params::new(n, n as u64);
            for i in 1..=p.iterations {
                let cfg = Lemma15Config::at(&p, i);
                let last_duty = cfg.lin_start() + cfg.lin_steps().len().max(1) as u64 - 1;
                assert!(
                    lemma15_vrounds(&p, i) > last_duty,
                    "n={n} iter={i}: bound {} ≤ last duty {last_duty}",
                    lemma15_vrounds(&p, i),
                );
            }
        }
    }

    #[test]
    fn linegraph_bounds_closed_form() {
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
        // A node can be awake at most once per round, so every stage's
        // round budget must be at least its awake budget.
        let g = generators::gnp(64, 0.1, 5);
        let p = Params::for_graph(&g);
        for algo in [BoundAlgo::Trivial, BoundAlgo::Bm21, BoundAlgo::Theorem1] {
            for s in stages_for(algo, ProblemClass::Vertex, &g, &p).unwrap() {
                assert!(
                    s.budget.rounds >= s.budget.awake,
                    "{}: {:?}",
                    s.name,
                    s.budget
                );
            }
        }
    }

    #[test]
    fn stage_budgets_sum_to_at_most_the_pipeline_budget() {
        // Theorem 1's table is Theorem 13's followed by Theorem 9's, under
        // the `theorem1/` prefix, with one name per stage; its Lemma 8 sum
        // is the pipeline budget.
        let g = generators::gnp(48, 0.1, 3);
        let p = Params::for_graph(&g);
        let t1 = stages_for(BoundAlgo::Theorem1, ProblemClass::Vertex, &g, &p).unwrap();
        let mut parts = theorem13_stages(&p);
        parts.extend(theorem9_stages(p.depth_bound, p.color_bound()));
        assert_eq!(t1.len(), 2 * p.iterations as usize + 2);
        for (whole, part) in t1.iter().zip(&parts) {
            assert_eq!(whole.name, format!("theorem1/{}", part.name));
            assert_eq!(whole.budget, part.budget);
        }
        let names: std::collections::BTreeSet<&str> = t1.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names.len(), t1.len(), "stage names are unique");
        let sum: Budget = parts.iter().map(|s| s.budget).sum();
        assert_eq!(
            budget_for(BoundAlgo::Theorem1, ProblemClass::Vertex, &g, &p),
            Some(sum)
        );
    }

    #[test]
    fn degraded_budget_is_identity_on_inactive_plans() {
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
