//! Exact Euclidean projection onto FedL's whole per-epoch feasible set
//!
//! ```text
//! { (x, ρ) : x ∈ [0, 1]^K, ρ ∈ [1, ρ_max], Σ x ≥ n, c·x ≤ cap }
//! ```
//!
//! ρ only has a box, so it is clamped on its own. For the x part the KKT
//! conditions of `min ½‖x − y‖²` give
//!
//! ```text
//! x(λ, ν) = clamp(y + λ·1 − ν·c, 0, 1),   λ, ν ≥ 0,
//! λ·(n − Σx) = 0,   ν·(c·x − cap) = 0,
//! ```
//!
//! with λ the participation multiplier and ν the budget multiplier.
//!
//! * For a fixed ν, `Σx(λ, ν)` is continuous, piecewise linear and
//!   non-decreasing in λ, so the smallest `λ ≥ 0` with `Σx ≥ n` is one
//!   monotone root search. When the budget is slack, ν = 0 and that
//!   search is the whole projection.
//! * When the budget binds, the dual function is concave in ν, so the
//!   spend `c·x(λ(ν), ν)` does not increase with ν: an outer monotone
//!   search over ν finds `c·x = cap`, solving for λ(ν) inside it.
//!
//! Both searches are safeguarded Newton iterations on a piecewise-linear
//! function (the method of Cominetti, Mascarenhas & Silva for the
//! continuous quadratic knapsack problem): once a Newton step starts on
//! the root's linear piece it lands on the root exactly, so a search
//! takes a handful of O(K) passes; bisection keeps the bracket shrinking
//! whenever a step would leave it. Nothing is allocated per projection —
//! the passes read the input in place and the result is written once.

use crate::projection::Project;

/// Hard cap on the steps of one root search. Bisection alone reaches
/// the floating-point resolution of any bracket in about 60 steps.
const MAX_STEPS: usize = 200;

/// Hard cap on the doublings that bracket the budget multiplier. Only a
/// budget below the cheapest feasible spend (an empty set, a caller bug)
/// exhausts it.
const MAX_GROWTH: usize = 64;

/// Multipliers of one projection onto a [`FedlSet`] (the KKT certificate:
/// the projected point is `clamp(y + participation − budget·c, 0, 1)`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Multipliers {
    /// λ ≥ 0 of the participation floor `Σx ≥ n`.
    pub participation: f64,
    /// ν ≥ 0 of the budget cap `c·x ≤ cap`.
    pub budget: f64,
}

/// FedL's per-epoch feasible set over `z = [x₁ … x_K, ρ]`, with an exact,
/// allocation-free [`Project`] implementation (see the module docs).
#[derive(Debug, Clone)]
pub struct FedlSet<'a> {
    costs: &'a [f64],
    min_participants: usize,
    cap: f64,
    /// Budget excess below the rounding error of a K-term cost sum,
    /// `K·ε·|cap|`, counts as feasible: without it a cap equal to the
    /// cheapest feasible spend (summed in another order) would send the
    /// budget search after a 1-ulp excess no finite ν removes.
    slack: f64,
    rho_max: f64,
    /// `Σ max(c, 0)`: the largest spend any point of the box can reach.
    max_spend: f64,
    c_abs_max: f64,
    c_sq: f64,
}

impl<'a> FedlSet<'a> {
    /// The set `x ∈ [0,1]^K, ρ ∈ [1, rho_max], Σx ≥ min_participants,
    /// costs·x ≤ cap` with `K = costs.len()`.
    ///
    /// # Panics
    /// Panics if `costs` is empty or non-finite, `min_participants > K`,
    /// `cap` is not finite, or `rho_max < 1`.
    pub fn new(costs: &'a [f64], min_participants: usize, cap: f64, rho_max: f64) -> Self {
        let k = costs.len();
        assert!(k > 0, "feasible set over no clients");
        assert!(
            min_participants <= k,
            "participation floor {min_participants} above the {k} clients"
        );
        assert!(cap.is_finite(), "budget cap must be finite");
        assert!(rho_max >= 1.0, "rho_max below 1");
        assert!(costs.iter().all(|c| c.is_finite()), "non-finite cost");
        let max_spend = costs.iter().map(|c| c.max(0.0)).sum();
        let c_abs_max = costs.iter().fold(0.0f64, |m, c| m.max(c.abs()));
        let c_sq = costs.iter().map(|c| c * c).sum();
        let slack = k as f64 * f64::EPSILON * cap.abs();
        Self { costs, min_participants, cap, slack, rho_max, max_spend, c_abs_max, c_sq }
    }

    /// Projects `v` in place and returns the multipliers that certify it.
    pub fn project_with_multipliers(&self, v: &mut [f64]) -> Multipliers {
        let k = self.costs.len();
        assert_eq!(v.len(), k + 1, "projection input arity");
        v[k] = v[k].clamp(1.0, self.rho_max);
        let y = &mut v[..k];
        if self.min_participants == k {
            // Σx ≥ K pins x to all ones; the smallest λ that clamps every
            // coordinate at its upper bound certifies it.
            let participation = y.iter().fold(0.0f64, |m, &yi| m.max(1.0 - yi));
            y.fill(1.0);
            return Multipliers { participation, budget: 0.0 };
        }
        let lambda = self.participation_multiplier(y, 0.0);
        let floor_only = Multipliers { participation: lambda, budget: 0.0 };
        let m = if self.max_spend <= self.cap {
            // No point of the box can exceed the cap.
            floor_only
        } else {
            let (spend, slope) = self.spend(y, lambda, 0.0);
            if spend <= self.cap + self.slack {
                floor_only
            } else {
                self.budget_multiplier(y, spend, slope)
            }
        };
        for (yi, &ci) in y.iter_mut().zip(self.costs) {
            *yi = (*yi + m.participation - m.budget * ci).clamp(0.0, 1.0);
        }
        m
    }

    /// Smallest `λ ≥ 0` with `Σ clamp(y + λ − ν·c, 0, 1) ≥ n` at a fixed ν.
    fn participation_multiplier(&self, y: &[f64], nu: f64) -> f64 {
        let n = self.min_participants as f64;
        let (sum, free, t_min) = self.participation(y, 0.0, nu);
        if sum >= n {
            return 0.0;
        }
        // At λ = 1 − min(y − ν·c) every coordinate sits at its upper bound,
        // so Σx = K > n there.
        newton_root(0.0, 1.0 - t_min, 1.0, sum - n, free, |lambda| {
            let (s, f, _) = self.participation(y, lambda, nu);
            (s - n, f)
        })
    }

    /// `Σx(λ, ν)`, its slope in λ (the number of free coordinates) and
    /// the smallest coordinate before clamping, `min(y + λ − ν·c)`.
    fn participation(&self, y: &[f64], lambda: f64, nu: f64) -> (f64, f64, f64) {
        let (mut sum, mut free, mut t_min) = (0.0, 0usize, f64::INFINITY);
        for (&yi, &ci) in y.iter().zip(self.costs) {
            let t = yi + lambda - nu * ci;
            sum += t.clamp(0.0, 1.0);
            free += usize::from(t > 0.0 && t < 1.0);
            t_min = t_min.min(t);
        }
        (sum, free as f64, t_min)
    }

    /// The spend `c·x(λ, ν)` and the slope of `−spend` in ν along the
    /// path λ(ν): `Σ_F c²` over the free coordinates F while the
    /// participation floor is slack (λ = 0), and `Σ_F c² − (Σ_F c)²/|F|`
    /// while it binds (λ then moves with ν to hold Σx = n).
    fn spend(&self, y: &[f64], lambda: f64, nu: f64) -> (f64, f64) {
        let mut spend = 0.0;
        let (mut free, mut free_c, mut free_c2) = (0usize, 0.0, 0.0);
        for (&yi, &ci) in y.iter().zip(self.costs) {
            let t = yi + lambda - nu * ci;
            if t >= 1.0 {
                spend += ci;
            } else if t > 0.0 {
                spend += ci * t;
                free += 1;
                free_c += ci;
                free_c2 += ci * ci;
            }
        }
        let slope = if lambda > 0.0 && free > 0 {
            free_c2 - free_c * free_c / free as f64
        } else {
            free_c2
        };
        (spend, slope)
    }

    /// The multipliers when the budget binds at ν = 0, where the spend
    /// is `spend0` and its ν-slope `slope0`.
    fn budget_multiplier(&self, y: &[f64], spend0: f64, slope0: f64) -> Multipliers {
        let cap = self.cap + self.slack;
        // g(ν) = cap − c·x(λ(ν), ν) is continuous, piecewise linear and
        // non-decreasing; g(0) < 0.
        let g = |nu: f64| {
            let lambda = self.participation_multiplier(y, nu);
            let (spend, slope) = self.spend(y, lambda, nu);
            (cap - spend, slope)
        };
        let (mut lo, mut g_lo, mut s_lo) = (0.0, cap - spend0, slope0);
        // Bracket the root: Newton's guess from the left, at least
        // doubling, until the spend fits.
        let guess = -g_lo / if s_lo > 0.0 { s_lo } else { self.c_sq };
        let mut hi = if guess.is_finite() && guess > 0.0 { guess } else { 1.0 };
        for _ in 0..MAX_GROWTH {
            let (g_hi, s_hi) = g(hi);
            if g_hi >= 0.0 {
                break;
            }
            (lo, g_lo, s_lo) = (hi, g_hi, s_hi);
            let newton = lo - g_lo / s_lo;
            hi = if newton.is_finite() { newton.max(2.0 * lo) } else { 2.0 * lo };
        }
        let unit = 1.0 / self.c_abs_max;
        let nu = newton_root(lo, hi, unit, g_lo, s_lo, g);
        Multipliers { participation: self.participation_multiplier(y, nu), budget: nu }
    }
}

/// A root of a continuous, non-decreasing, piecewise-linear `g` on
/// `[lo, hi]` with `g(lo) < 0 ≤ g(hi)`, given `g(lo)` and its slope
/// there; `eval(t)` returns `(g(t), slope)`.
///
/// Newton steps from the latest point, bisection whenever a step would
/// leave the bracket. The answer is always on the feasible side
/// (`g ≥ 0`): an exact zero, a point whose Newton correction falls below
/// the resolution `4ε·(|t| + unit)`, or `hi` once the bracket collapses
/// to that resolution. A point just short of the root (`g < 0` from
/// rounding) is nudged forward by at least the resolution.
fn newton_root(
    mut lo: f64,
    mut hi: f64,
    unit: f64,
    mut g: f64,
    mut slope: f64,
    mut eval: impl FnMut(f64) -> (f64, f64),
) -> f64 {
    let mut t = lo;
    for _ in 0..MAX_STEPS {
        let resolution = 4.0 * f64::EPSILON * (t.abs() + unit);
        let step = -g / slope;
        if g >= 0.0 && slope > 0.0 && -step <= resolution {
            return t;
        }
        if hi - lo <= resolution {
            break;
        }
        let newton = t + if g < 0.0 { step.max(resolution) } else { step };
        t = if newton > lo && newton < hi { newton } else { lo + 0.5 * (hi - lo) };
        (g, slope) = eval(t);
        if g == 0.0 {
            return t;
        }
        if g < 0.0 {
            lo = t;
        } else {
            hi = t;
        }
    }
    hi
}

impl Project for FedlSet<'_> {
    fn project(&self, v: &mut [f64]) {
        self.project_with_multipliers(v);
    }

    fn contains(&self, v: &[f64], tol: f64) -> bool {
        let k = self.costs.len();
        if v.len() != k + 1 {
            return false;
        }
        let (x, rho) = (&v[..k], v[k]);
        let n = self.min_participants as f64;
        let sum: f64 = x.iter().sum();
        let spend: f64 = x.iter().zip(self.costs).map(|(xi, ci)| xi * ci).sum();
        x.iter().all(|&xi| xi >= -tol && xi <= 1.0 + tol)
            && rho >= 1.0 - tol
            && rho <= self.rho_max + tol
            && sum >= n - tol * (1.0 + n)
            && spend <= self.cap + tol * (1.0 + self.cap.abs())
    }

    fn dim(&self) -> usize {
        self.costs.len() + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slack_budget_is_a_capped_simplex_projection() {
        // Project (0.1, 0.2, 0.3) onto Σx ≥ 2 in the unit box: all three
        // coordinates stay free, so 0.6 + 3λ = 2.
        let costs = [1.0, 1.0, 1.0];
        let set = FedlSet::new(&costs, 2, 10.0, 4.0);
        let mut v = vec![0.1, 0.2, 0.3, 9.0];
        let m = set.project_with_multipliers(&mut v);
        let lambda = 1.4 / 3.0;
        assert!((m.participation - lambda).abs() < 1e-12, "{m:?}");
        assert_eq!(m.budget, 0.0);
        for (got, want) in v.iter().zip([0.1 + lambda, 0.2 + lambda, 0.3 + lambda, 4.0]) {
            assert!((got - want).abs() < 1e-12, "{v:?}");
        }
    }

    #[test]
    fn binding_budget_moves_mass_to_cheap_clients() {
        // Σx ≥ 1 and 4x₀ + x₁ ≤ 1 from (1, 1): x = (0, 1).
        let costs = [4.0, 1.0];
        let set = FedlSet::new(&costs, 1, 1.0, 2.0);
        let mut v = vec![1.0, 1.0, 1.0];
        let m = set.project_with_multipliers(&mut v);
        assert!(m.budget > 0.0, "{m:?}");
        assert!(v[0].abs() < 1e-12 && (v[1] - 1.0).abs() < 1e-12, "{v:?}");
    }

    #[test]
    #[should_panic(expected = "participation floor")]
    fn rejects_a_floor_above_k() {
        let _ = FedlSet::new(&[1.0], 2, 1.0, 2.0);
    }
}
