//! Linial's iterated color reduction \[Lin92\]: from any `m₀`-coloring to
//! `O(Δ²)` colors in `O(log* m₀)` rounds.
//!
//! # Construction
//!
//! One reduction step maps a proper `m`-coloring to a proper `q²`-coloring:
//! pick the smallest degree `d ≥ 1` and prime `q > d·Δ` with `q^{d+1} ≥ m`
//! (a polynomial-code cover-free family). Encode color `c` as the
//! polynomial `p_c` over `GF(q)` whose coefficients are the base-`q` digits
//! of `c`. Distinct colors give distinct polynomials, which agree on at
//! most `d` points; a node with `Δ` neighbors therefore has at most
//! `d·Δ < q` *bad* evaluation points and picks the smallest good `x`,
//! adopting the new color `x·q + p_c(x) < q²`.
//!
//! Iterating from `m₀` reaches the fixpoint `(next_prime(Δ+2))² = O(Δ²)`
//! in `O(log* m₀)` steps ([`schedule`] computes the exact step sequence,
//! identically at every node). [`final_palette`] is the paper's `a·b²`
//! (with `Δ = b`), computed exactly instead of bounded.
//!
//! The same kernel serves two deployments:
//! * [`ColorReduction`] — a Sleeping-model [`Program`] on `G` (always awake
//!   for its `O(log* n)` rounds, as in BM21);
//! * plain function calls inside virtual programs (Lemma 15 on `H[U]`).

use awake_sleeping::{persist, Action, Envelope, Outbox, Program, View};

/// Parameters of one reduction step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// Input palette size `m` (colors are `0..m`).
    pub m: u64,
    /// Polynomial degree bound `d`.
    pub d: u64,
    /// Field size (prime) `q > d·Δ`, `q^{d+1} ≥ m`.
    pub q: u64,
}

impl Step {
    /// Output palette size `q²`.
    pub fn out_palette(&self) -> u64 {
        self.q * self.q
    }
}

/// Is `x` prime? (trial division; inputs are small).
fn is_prime(x: u64) -> bool {
    if x < 2 {
        return false;
    }
    if x.is_multiple_of(2) {
        return x == 2;
    }
    let mut f = 3;
    while f * f <= x {
        if x.is_multiple_of(f) {
            return false;
        }
        f += 2;
    }
    true
}

/// Smallest prime `≥ x`.
pub fn next_prime(x: u64) -> u64 {
    let mut p = x.max(2);
    while !is_prime(p) {
        p += 1;
    }
    p
}

/// Smallest `r` with `r^(e) ≥ m`.
fn int_root_ceil(m: u64, e: u32) -> u64 {
    if m <= 1 {
        return 1;
    }
    let mut r = (m as f64).powf(1.0 / e as f64).floor() as u64;
    // Float imprecision: adjust in both directions.
    while pow_at_least(r, e, m) && r > 1 {
        r -= 1;
    }
    while !pow_at_least(r, e, m) {
        r += 1;
    }
    r
}

fn pow_at_least(base: u64, e: u32, m: u64) -> bool {
    let mut acc: u128 = 1;
    for _ in 0..e {
        acc = acc.saturating_mul(base as u128);
        if acc >= m as u128 {
            return true;
        }
    }
    acc >= m as u128
}

/// Parameters for reducing an `m`-coloring at degree bound `delta`.
///
/// For each degree `d`, the field must satisfy both constraints
/// `q > d·delta` (conflict-freeness) and `q^{d+1} ≥ m` (injective
/// encoding); the step picks the `d` minimizing the output palette `q²`.
pub fn step_params(m: u64, delta: u64) -> Step {
    let delta = delta.max(1);
    let mut best: Option<Step> = None;
    for d in 1..=64u64 {
        let q = next_prime((d * delta + 1).max(int_root_ceil(m, d as u32 + 1)));
        let cand = Step { m, d, q };
        if best.is_none_or(|b| cand.out_palette() < b.out_palette()) {
            best = Some(cand);
        }
        // Once d·delta alone exceeds the best q, larger d cannot win.
        if let Some(b) = best {
            if d * delta + 1 > b.q {
                break;
            }
        }
    }
    best.expect("some degree is always feasible")
}

/// The palette Linial stabilizes at for degree bound `delta`:
/// `next_prime(2·delta+1)²` — every schedule reaches it (a degree-2 step
/// shrinks anything above it), and this is the paper's `a·b²` when
/// `delta = b`.
pub fn final_palette(delta: u64) -> u64 {
    let q = next_prime(2 * delta.max(1) + 1);
    q * q
}

/// The deterministic step sequence from an `m₀`-palette down to at most
/// [`final_palette`]. Every node computes this identically; its length is
/// the number of communication rounds (`O(log* m₀)`).
///
/// # Panics
/// Panics if a step fails to shrink the palette above the fixpoint
/// (impossible by the degree-2 analysis; kept as a hard invariant).
pub fn schedule(m0: u64, delta: u64) -> Vec<Step> {
    let target = final_palette(delta);
    let mut steps = Vec::new();
    let mut m = m0.max(1);
    while m > target {
        let s = step_params(m, delta);
        assert!(
            s.out_palette() < m,
            "Linial step must shrink above the fixpoint: {s:?}"
        );
        steps.push(s);
        m = s.out_palette();
    }
    steps
}

/// Evaluate the polynomial encoding of `color` at `x` over `GF(q)`.
fn poly_eval(color: u64, d: u64, q: u64, x: u64) -> u64 {
    // coefficients: base-q digits of color (d+1 of them, d ≤ 64 as
    // `step_params` picks it), evaluated in Horner order.
    let mut coeffs = [0u64; 65];
    let coeffs = &mut coeffs[..=d as usize];
    let mut c = color;
    for co in coeffs.iter_mut() {
        *co = c % q;
        c /= q;
    }
    let mut acc: u128 = 0;
    for &co in coeffs.iter().rev() {
        acc = (acc * x as u128 + co as u128) % q as u128;
    }
    acc as u64
}

/// One node's reduction: smallest `x` whose evaluation differs from every
/// neighbor's polynomial. Neighbors with a color equal to ours are ignored
/// (they cannot occur in a proper input coloring; distance-2 tables may
/// echo our own color back).
///
/// # Panics
/// Panics if no good point exists — impossible when `#neighbors·d < q` —
/// or if `step.d > 64` (no step [`step_params`] picks).
pub fn reduce_color(my_color: u64, neighbor_colors: &[u64], step: Step) -> u64 {
    let Step { d, q, .. } = step;
    for x in 0..q {
        let mine = poly_eval(my_color, d, q, x);
        let clash = neighbor_colors
            .iter()
            .any(|&nc| nc != my_color && poly_eval(nc, d, q, x) == mine);
        if !clash {
            return x * q + mine;
        }
    }
    panic!(
        "no conflict-free evaluation point: {} neighbors, step {:?}",
        neighbor_colors.len(),
        step
    );
}

/// Distributed Linial on `G`: always awake for `schedule.len()` rounds.
#[derive(Debug)]
pub struct ColorReduction {
    color: u64,
    steps: Vec<Step>,
    t: usize,
    /// Pooled neighbor-color scratch (transient).
    neighbor_colors: Vec<u64>,
}

impl ColorReduction {
    /// Start from an explicit proper coloring value in `0..m0`.
    ///
    /// # Panics
    /// Panics if `initial_color ≥ m0`.
    pub fn new(initial_color: u64, m0: u64, delta_bound: u64) -> Self {
        assert!(initial_color < m0, "color {initial_color} ≥ palette {m0}");
        ColorReduction {
            color: initial_color,
            steps: schedule(m0, delta_bound),
            t: 0,
            neighbor_colors: Vec::new(),
        }
    }

    /// Start from the node's identifier (a proper `ident_bound`-coloring).
    pub fn from_ident(ident: u64, ident_bound: u64, delta_bound: u64) -> Self {
        Self::new(ident - 1, ident_bound, delta_bound)
    }

    /// Number of communication rounds this schedule takes.
    pub fn rounds(&self) -> u64 {
        self.steps.len() as u64
    }
}

impl Program for ColorReduction {
    type Msg = u64;
    type Output = u64;

    fn send(&mut self, _view: &View<'_>, out: &mut Outbox<u64>) {
        if self.t < self.steps.len() {
            out.broadcast(self.color);
        }
    }

    fn receive(&mut self, _view: &View<'_>, inbox: &[Envelope<u64>]) -> Action {
        if self.t >= self.steps.len() {
            return Action::Halt;
        }
        self.neighbor_colors.clear();
        self.neighbor_colors.extend(inbox.iter().map(|e| e.msg));
        self.color = reduce_color(self.color, &self.neighbor_colors, self.steps[self.t]);
        self.t += 1;
        if self.t == self.steps.len() {
            Action::Halt
        } else {
            Action::Stay
        }
    }

    fn output(&self) -> Option<u64> {
        Some(self.color)
    }
}

persist! {
    /// Dynamic state: the current color and the schedule cursor. The step
    /// sequence is a pure function of the constructor arguments.
    ColorReduction { color, t }
}

#[cfg(test)]
mod tests {
    use super::*;
    use awake_graphs::{coloring, generators};
    use awake_sleeping::{Config, Engine};

    #[test]
    fn primes() {
        assert_eq!(next_prime(1), 2);
        assert_eq!(next_prime(8), 11);
        assert_eq!(next_prime(11), 11);
        assert!(is_prime(2) && is_prime(97) && !is_prime(91));
    }

    #[test]
    fn poly_eval_linear() {
        // color 7 base 5 → digits [2, 1] → p(x) = 2 + x over GF(5)
        assert_eq!(poly_eval(7, 1, 5, 0), 2);
        assert_eq!(poly_eval(7, 1, 5, 1), 3);
        assert_eq!(poly_eval(7, 1, 5, 4), 1);
    }

    /// `reduce_color` as it was with a heap-allocated digit vector.
    fn reduce_color_with_digit_vec(my_color: u64, neighbor_colors: &[u64], step: Step) -> u64 {
        let eval = |color: u64, x: u64| {
            let mut coeffs = Vec::with_capacity(step.d as usize + 1);
            let mut c = color;
            for _ in 0..=step.d {
                coeffs.push(c % step.q);
                c /= step.q;
            }
            let mut acc: u128 = 0;
            for &co in coeffs.iter().rev() {
                acc = (acc * x as u128 + co as u128) % step.q as u128;
            }
            acc as u64
        };
        (0..step.q)
            .find_map(|x| {
                let mine = eval(my_color, x);
                let clash = neighbor_colors
                    .iter()
                    .any(|&nc| nc != my_color && eval(nc, x) == mine);
                (!clash).then_some(x * step.q + mine)
            })
            .expect("a conflict-free point exists")
    }

    #[test]
    fn reduce_color_matches_the_digit_vec_evaluation() {
        let mut rng = awake_graphs::rng::Rng::seed_from_u64(0x11a1);
        for (m0, delta) in [
            (1u64 << 40, 3u64),
            (1 << 20, 8),
            (5000, 16),
            (u64::MAX / 2, 2),
        ] {
            for step in schedule(m0, delta) {
                for _ in 0..200 {
                    let mine = rng.bounded_u64(step.m);
                    let k = rng.bounded_u64(delta + 1) as usize;
                    let nbrs: Vec<u64> = (0..k).map(|_| rng.bounded_u64(step.m)).collect();
                    assert_eq!(
                        reduce_color(mine, &nbrs, step),
                        reduce_color_with_digit_vec(mine, &nbrs, step),
                        "color {mine}, neighbors {nbrs:?}, {step:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn schedule_reaches_fixpoint_fast() {
        // log* behaviour: even from an astronomically large palette the
        // schedule is short.
        let steps = schedule(u64::MAX / 2, 8);
        assert!(steps.len() <= 6, "got {} steps", steps.len());
        assert_eq!(schedule(final_palette(8), 8).len(), 0);
    }

    #[test]
    fn single_step_is_proper() {
        let g = generators::gnp(60, 0.12, 3);
        let delta = g.max_degree() as u64;
        let m0 = g.n() as u64;
        let step = step_params(m0, delta);
        let colors: Vec<u64> = g.nodes().map(|v| g.ident(v) - 1).collect();
        let reduced: Vec<u64> = g
            .nodes()
            .map(|v| {
                let nb: Vec<u64> = g.neighbors(v).iter().map(|&u| colors[u.index()]).collect();
                reduce_color(colors[v.index()], &nb, step)
            })
            .collect();
        coloring::check_proper(&g, &reduced).unwrap();
        assert!(reduced.iter().all(|&c| c < step.out_palette()));
    }

    #[test]
    fn distributed_linial_colors_properly() {
        for g in [
            generators::gnp(80, 0.08, 5),
            generators::random_regular(64, 6, 2),
            generators::cycle(33),
            generators::complete(10),
        ] {
            let delta = g.max_degree() as u64;
            let programs: Vec<ColorReduction> = g
                .nodes()
                .map(|v| ColorReduction::from_ident(g.ident(v), g.ident_bound(), delta))
                .collect();
            let expected_rounds = programs[0].rounds();
            let run = Engine::new(&g, Config::default()).run(programs).unwrap();
            coloring::check_proper(&g, &run.outputs).unwrap();
            assert!(
                run.outputs.iter().all(|&c| c < final_palette(delta)),
                "palette O(Δ²)"
            );
            assert_eq!(run.metrics.max_awake(), expected_rounds.max(1));
            // O(log* n): tiny round count
            assert!(run.metrics.rounds <= 8);
        }
    }

    #[test]
    fn already_small_palette_is_noop() {
        let g = generators::path(4);
        let colors = [0u64, 1, 0, 1];
        let programs: Vec<ColorReduction> = g
            .nodes()
            .map(|v| ColorReduction::new(colors[v.index()], 2, 2))
            .collect();
        let run = Engine::new(&g, Config::default()).run(programs).unwrap();
        assert_eq!(run.outputs, colors.to_vec());
        assert_eq!(run.metrics.rounds, 1); // mandatory round 1, no steps
    }

    #[test]
    fn equal_colors_in_tables_are_ignored() {
        // distance-2 tables may echo our own color back; no panic.
        let step = step_params(100, 4);
        let c = reduce_color(42, &[42, 17, 9], step);
        assert!(c < step.out_palette());
    }

    #[test]
    fn final_palette_is_quadratic() {
        for b in [1u64, 2, 4, 16, 64, 256] {
            let fp = final_palette(b);
            assert!(fp >= (b + 1) * (b + 1));
            assert!(fp <= 17 * (b + 1) * (b + 1), "Bertrand-ish bound, b={b}");
        }
    }

    #[test]
    fn schedule_always_terminates_below_fixpoint() {
        // Grid over (m₀, Δ): the schedule must reach ≤ final_palette and
        // never assert (shrinkage above the fixpoint).
        for delta in [1u64, 2, 3, 5, 8, 16, 100] {
            for m0 in [2u64, 10, 50, 61, 100, 1000, 1 << 20, 1 << 40] {
                let steps = schedule(m0, delta);
                let final_m = steps.last().map(|s| s.out_palette()).unwrap_or(m0);
                assert!(
                    final_m <= final_palette(delta).max(m0),
                    "m0={m0} delta={delta}: final {final_m}"
                );
                assert!(steps.len() < 10, "log* bound: {} steps", steps.len());
            }
        }
    }
}
