//! The one-shot decision problem `P_{3,t}` and the modified descent step
//! (paper eqs. (6)–(8)).
//!
//! Decision vector `z = [x₁ … x_K, ρ]` over the available clients `E`,
//! where `ρ = 1/(1−η_t)` is the iteration-control variable. All
//! coefficients come from epoch-`t` *observations* (0-lookahead), except
//! costs and availability, which are known at rental time.

use fedl_linalg::par::{det_dot, det_sum};
use fedl_solver::{minimize, BoxSet, DykstraIntersection, FedlSet, Halfspace, PgdOptions};

/// Fractional decision `Φ̃ = (x̃, ρ)`.
#[derive(Debug, Clone, PartialEq)]
pub struct FracDecision {
    /// Fractional selection per available client, aligned with
    /// [`OneShot::ids`].
    pub x: Vec<f64>,
    /// Iteration-control variable ρ ≥ 1 (`l_t = ⌈ρ⌉`).
    pub rho: f64,
}

impl FracDecision {
    /// Number of iterations implied by ρ (the paper normalizes
    /// `O(log 1/θ₀)` to 1, so `l_t = ⌈1/(1−η_t)⌉ = ⌈ρ⌉`).
    pub fn iterations(&self) -> usize {
        (self.rho.ceil() as usize).max(1)
    }

    /// The maximal local accuracy `η_t = 1 − 1/ρ` this ρ admits.
    pub fn eta(&self) -> f64 {
        1.0 - 1.0 / self.rho.max(1.0)
    }
}

/// Coefficients of one epoch's decision problem.
#[derive(Debug, Clone, Default)]
pub struct OneShot {
    /// Available client ids `E` (decision coordinates map 1:1 to these).
    pub ids: Vec<usize>,
    /// Per-iteration latency estimates τ_k (from the last observation).
    pub tau: Vec<f64>,
    /// Rental costs `c_{t,k}` (known at decision time).
    pub costs: Vec<f64>,
    /// Observed local convergence accuracies η̂_k ∈ [0, 1).
    pub eta: Vec<f64>,
    /// Observed loss-impact coefficients `g_k = J·d_k` (negative is
    /// good: selecting k reduced the global loss).
    pub g: Vec<f64>,
    /// Per-client selection bonus subtracted from the descent objective
    /// (`−Σ bonus_k·x_k`). Zeros reproduce the paper's FedL; the
    /// fairness-aware extension (the paper's stated future work) sets
    /// `bonus_k ∝ 1/(1 + times-selected)` so starved clients get a
    /// standing discount. Does not enter `f_t` (it is not latency).
    pub bonus: Vec<f64>,
    /// Last observed global loss `F_t(w)` over all clients.
    pub loss_all: f64,
    /// Desired global loss upper bound θ (constraint (3d)).
    pub theta: f64,
    /// Minimum participants `n` (constraint (3b)).
    pub min_participants: usize,
    /// Remaining long-term budget (constraint (3a), cumulative form).
    pub budget: f64,
    /// Upper bound for ρ (keeps `l_t` practical).
    pub rho_max: f64,
}

impl OneShot {
    /// Number of decision coordinates (K clients + ρ).
    pub fn dim(&self) -> usize {
        self.ids.len() + 1
    }

    fn check(&self) {
        let k = self.ids.len();
        assert!(k > 0, "one-shot problem with no available clients");
        assert_eq!(self.tau.len(), k, "tau arity");
        assert_eq!(self.costs.len(), k, "costs arity");
        assert_eq!(self.eta.len(), k, "eta arity");
        assert_eq!(self.g.len(), k, "g arity");
        assert_eq!(self.bonus.len(), k, "bonus arity");
        assert!(self.rho_max >= 1.0, "rho_max below 1");
        assert!(self.theta > 0.0, "theta must be positive");
    }

    /// Effective participation floor: `min(n, K)` — the paper's
    /// constraint assumes `n ≤ |E_t|`; when fewer clients are available
    /// the floor drops to what exists.
    pub fn effective_n(&self) -> usize {
        self.min_participants.min(self.ids.len()).max(1)
    }

    /// The constraint vector `h_t(z) = [h⁰, h¹ … h^K]` (paper §4.2):
    /// `h⁰ = F_t + ρ·Σ x_k g_k/|E| − θ` (linearized global-convergence
    /// constraint — the epoch runs `l_t = ⌈ρ⌉` iterations, each moving
    /// the loss by the observed per-iteration impact `g_k = J·d_k`, so
    /// the first-order loss model scales with ρ) and
    /// `h^k = η̂_k·x_k·ρ − ρ + 1` (local convergence).
    pub fn h_value(&self, x: &[f64], rho: f64) -> Vec<f64> {
        let mut h = Vec::with_capacity(self.dim());
        self.h_value_into(x, rho, &mut h);
        h
    }

    /// [`OneShot::h_value`] written into a caller-owned vector (cleared
    /// first); steady-state reuse performs no allocation.
    pub fn h_value_into(&self, x: &[f64], rho: f64, h: &mut Vec<f64>) {
        h.clear();
        h.reserve(self.dim());
        self.for_each_h(x, rho, |hi| h.push(hi));
    }

    /// Visits the entries of [`OneShot::h_value`] in order without
    /// materializing the vector (the regret comparator's penalty folds
    /// them on every objective evaluation).
    pub fn for_each_h(&self, x: &[f64], rho: f64, mut visit: impl FnMut(f64)) {
        self.check();
        assert_eq!(x.len(), self.ids.len(), "x arity");
        let avail = self.ids.len() as f64;
        let mix = det_dot(x, &self.g);
        visit(self.loss_all + rho * mix / avail - self.theta);
        for (xi, ei) in x.iter().zip(&self.eta) {
            visit(ei * xi * rho - rho + 1.0);
        }
    }

    /// Overwrites `self` with `other`, reusing the existing vector
    /// buffers (a `clone_from` that actually recycles capacity — the
    /// derived `Clone` would reallocate).
    pub fn copy_from(&mut self, other: &OneShot) {
        self.ids.clone_from(&other.ids);
        self.tau.clone_from(&other.tau);
        self.costs.clone_from(&other.costs);
        self.eta.clone_from(&other.eta);
        self.g.clone_from(&other.g);
        self.bonus.clone_from(&other.bonus);
        self.loss_all = other.loss_all;
        self.theta = other.theta;
        self.min_participants = other.min_participants;
        self.budget = other.budget;
        self.rho_max = other.rho_max;
    }

    /// The (latency) objective `f_t(z) = ρ·Σ x_k·τ_k` (paper §4.2 — the
    /// sum upper-bounds the max via eq. (4)).
    pub fn f_value(&self, x: &[f64], rho: f64) -> f64 {
        assert_eq!(x.len(), self.tau.len(), "x arity");
        rho * det_dot(x, &self.tau)
    }

    /// Gradient of `f_t` at `(x_prev, rho_prev)` — the linearization
    /// point of the descent step.
    pub fn f_grad_at(&self, x_prev: &[f64], rho_prev: f64) -> Vec<f64> {
        assert_eq!(x_prev.len(), self.tau.len(), "x arity");
        let mut grad: Vec<f64> = self.tau.iter().map(|&t| rho_prev * t).collect();
        grad.push(det_dot(x_prev, &self.tau));
        grad
    }

    /// The budget cap of the feasible set: the remaining budget, relaxed
    /// to the cost of the `n` cheapest clients when it cannot cover them,
    /// so the set stays non-empty (the overshoot is charged to dynamic
    /// fit; the runner's `while C ≥ 0` loop then stops the FL process).
    pub fn relaxed_cap(&self) -> f64 {
        let mut sorted = self.costs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite costs"));
        let min_feasible: f64 = sorted.iter().take(self.effective_n()).sum();
        self.budget.max(min_feasible)
    }

    /// The feasible set of [`OneShot::feasible_set`] with its exact
    /// projection: box, participation floor and [`OneShot::relaxed_cap`]
    /// projected onto at once by a two-multiplier Lagrangian search.
    pub fn projector(&self) -> FedlSet<'_> {
        self.check();
        FedlSet::new(&self.costs, self.effective_n(), self.relaxed_cap(), self.rho_max)
    }

    /// Builds the feasible set
    /// `{x ∈ [0,1]^K, ρ ∈ [1, ρ_max]} ∩ {Σx ≥ n} ∩ {Σc·x ≤ cap}` as a
    /// Dykstra intersection, with `cap` the [`OneShot::relaxed_cap`].
    pub fn feasible_set(&self) -> DykstraIntersection {
        self.check();
        let k = self.ids.len();
        let mut lo = vec![0.0; k];
        lo.push(1.0);
        let mut hi = vec![1.0; k];
        hi.push(self.rho_max);
        let boxset = BoxSet::new(lo, hi);

        let n = self.effective_n() as f64;
        let mut part_normal = vec![1.0; k];
        part_normal.push(0.0);
        let participation = Halfspace::at_least(part_normal, n);

        let mut cost_normal = self.costs.clone();
        cost_normal.push(0.0);
        let budget_hs = Halfspace::new(cost_normal, self.relaxed_cap());

        DykstraIntersection::new(vec![
            Box::new(boxset),
            Box::new(participation),
            Box::new(budget_hs),
        ])
    }

    /// Solves the modified descent step (paper eq. (8)):
    ///
    /// ```text
    /// min_z ∇f_t(z_prev)·(z − z_prev) + μᵀ h_t(z) + ‖z − z_prev‖²/(2β)
    /// ```
    ///
    /// over the feasible set, via projected gradient descent. `mu` is
    /// `[μ⁰, μ¹ … μ^K]` aligned with [`OneShot::h_value`].
    pub fn descend(&self, prev: &FracDecision, mu: &[f64], beta: f64) -> FracDecision {
        self.descend_from(&prev.x, prev.rho, mu, beta)
    }

    /// [`OneShot::descend`] with the anchor passed as bare slices, so
    /// callers holding the anchor in reusable buffers need not assemble
    /// a [`FracDecision`] first.
    pub fn descend_from(
        &self,
        x_prev: &[f64],
        rho_prev: f64,
        mu: &[f64],
        beta: f64,
    ) -> FracDecision {
        self.check();
        let k = self.ids.len();
        assert_eq!(x_prev.len(), k, "anchor arity");
        assert_eq!(mu.len(), k + 1, "multiplier arity");
        assert!(beta > 0.0, "non-positive step size");
        assert!(mu.iter().all(|&m| m >= 0.0), "negative multiplier");

        let mut z_prev: Vec<f64> = x_prev.to_vec();
        z_prev.push(rho_prev.clamp(1.0, self.rho_max));
        let grad_f = self.f_grad_at(x_prev, z_prev[k]);
        let avail = k as f64;

        let objective = {
            let z_prev = z_prev.clone();
            let grad_f = grad_f.clone();
            move |z: &[f64]| {
                let (x, rho) = (&z[..k], z[k]);
                let lin = det_sum(0.0, k + 1, |i| grad_f[i] * (z[i] - z_prev[i]));
                let head = mu[0] * (self.loss_all + rho * det_dot(x, &self.g) / avail - self.theta);
                let dual = det_sum(head, k, |i| mu[1 + i] * (self.eta[i] * x[i] * rho - rho + 1.0));
                let prox =
                    det_sum(0.0, k + 1, |i| (z[i] - z_prev[i]) * (z[i] - z_prev[i])) / (2.0 * beta);
                let fair = det_dot(x, &self.bonus);
                lin + dual + prox - fair
            }
        };
        let gradient = {
            let z_prev = z_prev.clone();
            move |z: &[f64], out: &mut [f64]| {
                let rho = z[k];
                let mix = det_dot(&z[..k], &self.g);
                let head = grad_f[k] + mu[0] * mix / avail + (rho - z_prev[k]) / beta;
                for i in 0..k {
                    out[i] = grad_f[i]
                        + mu[0] * rho * self.g[i] / avail
                        + mu[1 + i] * self.eta[i] * rho
                        + (z[i] - z_prev[i]) / beta
                        - self.bonus[i];
                }
                out[k] = det_sum(head, k, |i| mu[1 + i] * (self.eta[i] * z[i] - 1.0));
            }
        };

        let set = self.feasible_set();
        let opts = PgdOptions { max_iters: 300, tol: 1e-8, ..Default::default() };
        let res = minimize(objective, gradient, &set, &z_prev, &opts);
        // The box part of the feasible set is enforced exactly (rounding
        // requires fractions in [0, 1]); residual halfspace violations —
        // possible when the remaining budget makes the set razor-thin —
        // are charged to dynamic fit rather than hidden here.
        let rho = res.x[k].clamp(1.0, self.rho_max);
        let x = res.x[..k].iter().map(|&v| v.clamp(0.0, 1.0)).collect();
        FracDecision { x, rho }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn problem() -> OneShot {
        OneShot {
            ids: vec![3, 7, 9, 12],
            tau: vec![0.5, 2.0, 1.0, 4.0],
            costs: vec![1.0, 2.0, 6.0, 0.5],
            eta: vec![0.2, 0.8, 0.5, 0.3],
            g: vec![-1.0, -0.2, -0.6, -0.1],
            bonus: vec![0.0; 4],
            loss_all: 2.0,
            theta: 0.7,
            min_participants: 2,
            budget: 100.0,
            rho_max: 10.0,
        }
    }

    fn anchor() -> FracDecision {
        FracDecision { x: vec![0.5; 4], rho: 2.0 }
    }

    #[test]
    fn iterations_and_eta_mapping() {
        let d = FracDecision { x: vec![], rho: 3.2 };
        assert_eq!(d.iterations(), 4);
        assert!((d.eta() - (1.0 - 1.0 / 3.2)).abs() < 1e-12);
        let unit = FracDecision { x: vec![], rho: 1.0 };
        assert_eq!(unit.iterations(), 1);
        assert_eq!(unit.eta(), 0.0);
    }

    #[test]
    fn h_value_signs() {
        let p = problem();
        // All x = 0: h0 = loss - theta > 0 (violated); h^k = -rho + 1 <= 0.
        let h = p.h_value(&[0.0; 4], 2.0);
        assert!(h[0] > 0.0);
        for &v in &h[1..] {
            assert!((v - (-1.0)).abs() < 1e-12);
        }
        // Selecting loss-reducing clients lowers h0.
        let h_sel = p.h_value(&[1.0; 4], 2.0);
        assert!(h_sel[0] < h[0]);
        // h^k = eta*rho - rho + 1 when x = 1.
        assert!((h_sel[1] - (0.2 * 2.0 - 1.0)).abs() < 1e-12);
    }

    #[test]
    fn f_value_and_gradient_consistent() {
        let p = problem();
        let x = [0.3, 0.7, 0.1, 0.9];
        let rho = 2.5;
        let f = p.f_value(&x, rho);
        // Finite-difference check of f_grad_at.
        let grad = p.f_grad_at(&x, rho);
        let eps = 1e-6;
        for i in 0..4 {
            let mut xp = x;
            xp[i] += eps;
            let fd = (p.f_value(&xp, rho) - f) / eps;
            assert!((grad[i] - fd).abs() < 1e-4, "coord {i}: {} vs {fd}", grad[i]);
        }
        let fd_rho = (p.f_value(&x, rho + eps) - f) / eps;
        assert!((grad[4] - fd_rho).abs() < 1e-4);
    }

    #[test]
    fn descent_output_is_feasible() {
        let p = problem();
        let mu = vec![0.5; 5];
        let d = p.descend(&anchor(), &mu, 0.5);
        assert!(d.x.iter().all(|&x| (-1e-9..=1.0 + 1e-9).contains(&x)));
        assert!(d.rho >= 1.0 && d.rho <= p.rho_max);
        let sum: f64 = d.x.iter().sum();
        assert!(sum >= 2.0 - 1e-6, "participation violated: {sum}");
        let cost: f64 = d.x.iter().zip(&p.costs).map(|(x, c)| x * c).sum();
        assert!(cost <= p.budget + 1e-6);
    }

    #[test]
    fn zero_multipliers_minimize_latency_only() {
        // With μ = 0 the step descends pure latency: high-τ clients get
        // pushed down relative to the anchor, low-τ clients kept.
        let p = problem();
        let mu = vec![0.0; 5];
        let d = p.descend(&anchor(), &mu, 1.0);
        // Client 3 (τ=4.0) should fall furthest from the 0.5 anchor;
        // client 0 (τ=0.5) the least.
        assert!(d.x[3] < d.x[0], "{:?}", d.x);
        // Participation floor keeps the sum at n.
        let sum: f64 = d.x.iter().sum();
        assert!(sum >= 2.0 - 1e-6);
    }

    #[test]
    fn convergence_pressure_raises_rho() {
        // Large μ on a local-convergence constraint with selected client
        // must push ρ up relative to the μ = 0 solve.
        let p = problem();
        let low = p.descend(&anchor(), &[0.0; 5], 0.5);
        let mut mu = vec![0.0; 5];
        mu[2] = 50.0; // client with η̂ = 0.8 selected at the anchor
        let high = p.descend(&anchor(), &mu, 0.5);
        assert!(
            high.rho > low.rho,
            "dual pressure should buy more iterations: {} vs {}",
            high.rho,
            low.rho
        );
    }

    #[test]
    fn loss_pressure_favors_helpful_clients() {
        // Large μ⁰ rewards clients with the most negative g.
        let p = problem();
        let mut mu = vec![0.0; 5];
        mu[0] = 100.0;
        let d = p.descend(&anchor(), &mu, 0.5);
        // Client 0 has g = -1.0 (most helpful) -> should be kept highest.
        let best = d.x[0];
        assert!(d.x.iter().all(|&x| x <= best + 1e-9), "{:?}", d.x);
    }

    #[test]
    fn tight_budget_respected() {
        let mut p = problem();
        p.budget = 2.0; // only cheap clients affordable
        let d = p.descend(&anchor(), &[0.0; 5], 0.5);
        let cost: f64 = d.x.iter().zip(&p.costs).map(|(x, c)| x * c).sum();
        assert!(cost <= 2.0 + 1e-6, "cost {cost}");
        let sum: f64 = d.x.iter().sum();
        assert!(sum >= 2.0 - 1e-6, "participation {sum}");
    }

    #[test]
    fn impossible_budget_relaxed_to_cheapest_n() {
        let mut p = problem();
        p.budget = 0.1; // cannot afford 2 clients
        let d = p.descend(&anchor(), &[0.0; 5], 0.5);
        // Feasibility floor: the two cheapest cost 0.5 + 1.0 = 1.5.
        let cost: f64 = d.x.iter().zip(&p.costs).map(|(x, c)| x * c).sum();
        assert!(cost <= 1.5 + 1e-6, "cost {cost}");
        let sum: f64 = d.x.iter().sum();
        assert!(sum >= 2.0 - 1e-6);
    }

    #[test]
    #[should_panic(expected = "no available clients")]
    fn empty_problem_rejected() {
        let p = OneShot {
            ids: vec![],
            tau: vec![],
            costs: vec![],
            eta: vec![],
            g: vec![],
            bonus: vec![],
            loss_all: 1.0,
            theta: 0.5,
            min_participants: 1,
            budget: 10.0,
            rho_max: 5.0,
        };
        let _ = p.h_value(&[], 1.0);
    }
}
