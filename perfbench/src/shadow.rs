//! A shadow of the FedL policy assembled from the public layer
//! functions (`OnlineLearner`, `rounding`, `RegretTracker`) so each
//! layer can be timed from outside the program. It mirrors
//! `FedLPolicy::new`/`select`/`observe` step for step; the workloads run
//! it beside the real policy on the same contexts and count an epoch as
//! failed unless both choose byte-identical cohorts — which also proves
//! the decomposition times the work the program actually does.

use std::time::Instant;

use fedl_core::objective::{FracDecision, OneShot};
use fedl_core::online::{OnlineLearner, StepSizes};
use fedl_core::regret::RegretTracker;
use fedl_core::{rounding, EpochContext, FedLConfig, SelectionDecision};
use fedl_linalg::rng::{derive_seed, Xoshiro256pp};
use fedl_sim::EpochReport;

use crate::measure::ms_since;

/// Per-epoch self times of the FedL layers, in milliseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct FedlTimes {
    /// `OnlineLearner::build_problem` (UCB score update + gather).
    pub build_problem: f64,
    /// `OnlineLearner::decide` (the PGD + Dykstra descent step, eq. 8).
    pub descent: f64,
    /// RDCS rounding + feasibility repair (Alg. 2).
    pub round: f64,
    /// `RegretTracker::record` (the hindsight comparator solve).
    pub hindsight: f64,
    /// `OnlineLearner::observe` (memory fold + dual ascent, eq. 9).
    pub dual: f64,
}

impl FedlTimes {
    /// The decision part: build + descent + round.
    pub fn select(&self) -> f64 {
        self.build_problem + self.descent + self.round
    }

    /// The feedback part: hindsight + dual.
    pub fn observe(&self) -> f64 {
        self.hindsight + self.dual
    }
}

/// The shadow policy (always tracked, as `PolicyKind::build` builds FedL).
pub struct ShadowFedl {
    learner: OnlineLearner,
    tracker: RegretTracker,
    rng: Xoshiro256pp,
    pending: Option<(OneShot, FracDecision)>,
    times: FedlTimes,
}

impl ShadowFedl {
    /// Mirrors `FedLPolicy::new` (RDCS rounding; the ablation-only
    /// independent rounding is not used by any workload).
    pub fn new(config: FedLConfig, num_clients: usize, budget: f64, n: usize) -> Self {
        assert!(!config.independent_rounding, "the shadow mirrors RDCS rounding only");
        let steps = match config.fixed_steps {
            Some((beta, delta)) => StepSizes::fixed(beta, delta),
            None => {
                let base =
                    StepSizes::corollary1(budget, n, config.mean_cost_estimate, config.step_scale);
                StepSizes::fixed(base.beta, base.delta * config.dual_scale.max(1e-9))
            }
        };
        let prior_x = (n as f64 / num_clients.max(1) as f64).clamp(0.02, 0.5);
        let learner = OnlineLearner::new(num_clients, steps, config.theta, config.rho_max, prior_x)
            .with_fairness(config.fairness_weight);
        Self {
            learner,
            tracker: RegretTracker::new(num_clients),
            rng: Xoshiro256pp::seed_from_u64(derive_seed(0xFED1, num_clients as u64)),
            pending: None,
            times: FedlTimes::default(),
        }
    }

    /// Mirrors `FedLPolicy::select`, timing each layer.
    pub fn select(&mut self, ctx: &EpochContext) -> SelectionDecision {
        ctx.validate();
        let t = Instant::now();
        let problem = self.learner.build_problem(ctx);
        self.times.build_problem = ms_since(t);
        let t = Instant::now();
        let frac = self.learner.decide(ctx, &problem);
        self.times.descent = ms_since(t);
        let t = Instant::now();
        let mut x = frac.x.clone();
        let mut selected = rounding::rdcs(&mut x, &mut self.rng);
        rounding::repair(
            &mut selected,
            &problem.costs,
            problem.effective_n(),
            ctx.remaining_budget,
        );
        let cohort: Vec<usize> = selected.iter().map(|&pos| ctx.available[pos]).collect();
        self.times.round = ms_since(t);
        let iterations = frac.iterations();
        self.pending = Some((problem, frac));
        SelectionDecision { cohort, iterations }
    }

    /// Mirrors `FedLPolicy::observe`; returns the epoch's layer times.
    pub fn observe(&mut self, ctx: &EpochContext, report: &EpochReport) -> FedlTimes {
        let (problem, frac) = self.pending.take().expect("observe follows select");
        let t = Instant::now();
        self.tracker.record(&problem, &frac, report);
        self.times.hindsight = ms_since(t);
        let t = Instant::now();
        self.learner.observe(ctx, report, &frac, &problem);
        self.times.dual = ms_since(t);
        std::mem::take(&mut self.times)
    }
}
