//! `train_fig2_quick`: the quick-profile Fig. 2 IID panel — the
//! paper's unit of work. All four policies run one after another, each
//! on its own `ExperimentRunner` with real DANE/MLP training, until that
//! policy stops (budget exhausted or epoch cap). Closed loop: one epoch
//! in flight.
//!
//! The policy is wrapped through `ExperimentRunner::with_policy` so the
//! benchmark times `select`/`observe` from outside; the traced panel
//! also reads the runner's existing spans (`select`, `train`, `round`,
//! `local-train`, `aggregate`, `evaluate`) from an in-memory telemetry
//! sink and runs the FedL shadow beside the real policy.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use fedl_core::policy::{PolicyKind, SelectionPolicy};
use fedl_core::{EpochContext, ExperimentRunner, RunOutcome, ScenarioConfig, SelectionDecision};
use fedl_linalg::rng::derive_seed;
use fedl_sim::EpochReport;
use fedl_telemetry::Telemetry;

use crate::measure::{mean, median, ms_since, peak_rss_mb, percentile, CpuMeter};
use crate::report::{Ledger, Outcome};
use crate::shadow::{FedlTimes, ShadowFedl};
use crate::{Run, Size};

/// The quick profile's FMNIST-like IID scenario (crates/bench
/// `Profile::Quick`): M = 20, n = 4, budget 2500, epoch cap 150.
struct TrainSize {
    clients: usize,
    n: usize,
    budget: f64,
    max_epochs: usize,
    train_size: usize,
    test_size: usize,
    /// One panel takes about this long on the reference machine; the
    /// run measures `seconds / secs_per_panel` panels (at least one),
    /// panel `i` on inputs from `derive_seed(seed, i)`.
    secs_per_panel: f64,
}

const FULL: TrainSize = TrainSize {
    clients: 20,
    n: 4,
    budget: 2500.0,
    max_epochs: 150,
    train_size: 1500,
    test_size: 400,
    secs_per_panel: 2.5,
};

const TINY: TrainSize = TrainSize {
    clients: 6,
    n: 2,
    budget: 60.0,
    max_epochs: 5,
    train_size: 240,
    test_size: 80,
    secs_per_panel: 1.0,
};

/// FedL's quality readout: simulated seconds to this test accuracy.
const TARGET_ACCURACY: f64 = 0.6;

/// Inputs of panel `i`: several input sets per run make the run's
/// medians stable across seeds.
fn panel_seed(seed: u64, i: usize) -> u64 {
    derive_seed(seed, i as u64)
}

fn scenario(size: &TrainSize, seed: u64) -> ScenarioConfig {
    let mut s = ScenarioConfig::small_fmnist(size.clients, size.budget, size.n).with_seed(seed);
    s.train_size = size.train_size;
    s.test_size = size.test_size;
    s.max_epochs = size.max_epochs;
    s
}

/// What the wrapper saw during one `step()`.
#[derive(Default)]
struct Probe {
    select_ms: f64,
    observe_ms: f64,
    ctx: Option<EpochContext>,
    decision: Option<SelectionDecision>,
    report: Option<EpochReport>,
}

/// Times the wrapped policy's `select`/`observe` and keeps the epoch's
/// context and raw decision for the output checks (and, when a shadow
/// replays the epoch, its report).
struct TimedPolicy {
    inner: Box<dyn SelectionPolicy>,
    probe: Arc<Mutex<Probe>>,
    keep_report: bool,
}

impl SelectionPolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn select(&mut self, ctx: &EpochContext) -> SelectionDecision {
        let t = Instant::now();
        let decision = self.inner.select(ctx);
        let ms = ms_since(t);
        let mut probe = self.probe.lock().expect("probe lock is never poisoned");
        probe.select_ms = ms;
        probe.ctx = Some(ctx.clone());
        probe.decision = Some(decision.clone());
        decision
    }

    fn observe(&mut self, ctx: &EpochContext, report: &EpochReport) {
        let t = Instant::now();
        self.inner.observe(ctx, report);
        let ms = ms_since(t);
        let mut probe = self.probe.lock().expect("probe lock is never poisoned");
        probe.observe_ms = ms;
        if self.keep_report {
            probe.report = Some(report.clone());
        }
    }

    fn regret_tracker(&self) -> Option<&fedl_core::regret::RegretTracker> {
        self.inner.regret_tracker()
    }

    fn client_estimate(&self, client: usize) -> Option<f64> {
        self.inner.client_estimate(client)
    }
}

/// The cohort the runner trains for a raw decision (its sanitize +
/// floor-n fallback), used by the floor check.
fn trained_cohort(ctx: &EpochContext, raw: &[usize]) -> Vec<usize> {
    let mut cohort: Vec<usize> =
        raw.iter().copied().filter(|k| ctx.available.contains(k)).collect();
    cohort.sort_unstable();
    cohort.dedup();
    if cohort.is_empty() {
        cohort = ctx.available.iter().copied().take(ctx.effective_n()).collect();
    }
    cohort
}

/// One policy's epochs within a panel.
#[derive(Default, PartialEq, Debug)]
struct PolicyRun {
    decisions: Vec<SelectionDecision>,
    outcome: Option<RunOutcome>,
}

/// One whole panel (all four policies).
#[derive(Default)]
struct Panel {
    setup_s: f64,
    run_s: f64,
    epoch_ms: Vec<f64>,
    decision_ms: Vec<f64>,
    runs: Vec<PolicyRun>,
    // Traced-only attribution (sums over the panel, ms).
    select_ms: f64,
    observe_ms: f64,
    fedl: FedlTimes,
    avail: Vec<f64>,
    cohort: Vec<f64>,
    iterations: Vec<f64>,
    client_iters: f64,
}

impl Panel {
    fn epochs(&self) -> usize {
        self.epoch_ms.len()
    }
}

fn run_panel(
    size: &TrainSize,
    seed: u64,
    telemetry: Option<&Telemetry>,
    cpu: &mut CpuMeter,
    out: &mut Outcome,
) -> Result<Panel, String> {
    let mut panel = Panel::default();
    let setup = Instant::now();
    let mut runners = Vec::new();
    for kind in PolicyKind::ALL {
        let scenario = scenario(size, seed);
        let env = scenario.try_build_env().map_err(|e| e.to_string())?;
        let policy = kind.build(size.clients, size.budget, size.n, scenario.fedl);
        let shadow = (telemetry.is_some() && kind == PolicyKind::FedL)
            .then(|| ShadowFedl::new(scenario.fedl, size.clients, size.budget, size.n));
        let probe = Arc::new(Mutex::new(Probe::default()));
        let timed =
            TimedPolicy { inner: policy, probe: Arc::clone(&probe), keep_report: shadow.is_some() };
        let mut runner = ExperimentRunner::with_policy(scenario.clone(), env, Box::new(timed));
        if let Some(tel) = telemetry {
            runner = runner.with_telemetry(tel.clone());
        }
        runners.push((kind, runner, probe, shadow));
    }
    panel.setup_s = setup.elapsed().as_secs_f64();

    cpu.start();
    for (kind, mut runner, probe, mut shadow) in runners {
        let mut run = PolicyRun::default();
        loop {
            let t = Instant::now();
            let more = runner.step();
            let step_ms = ms_since(t);
            let mut seen = std::mem::take(&mut *probe.lock().expect("probe lock"));
            if let (Some(ctx), Some(decision)) = (seen.ctx.take(), seen.decision.take()) {
                out.attempted += 1;
                panel.run_s += step_ms / 1e3;
                panel.epoch_ms.push(step_ms);
                panel.decision_ms.push(seen.select_ms);
                let trained = trained_cohort(&ctx, &decision.cohort);
                if trained.len() < ctx.effective_n() {
                    out.fail(format!(
                        "{} epoch {}: cohort of {} below the floor {}",
                        kind.label(),
                        ctx.epoch,
                        trained.len(),
                        ctx.effective_n()
                    ));
                } else if ctx.remaining_budget <= 0.0 {
                    out.fail(format!(
                        "{} epoch {} started on an overdrawn ledger ({})",
                        kind.label(),
                        ctx.epoch,
                        ctx.remaining_budget
                    ));
                }
                if telemetry.is_some() {
                    panel.select_ms += seen.select_ms;
                    panel.observe_ms += seen.observe_ms;
                    panel.avail.push(ctx.available.len() as f64);
                    panel.cohort.push(trained.len() as f64);
                    let iterations = decision.iterations.clamp(1, 50);
                    panel.iterations.push(iterations as f64);
                    panel.client_iters += (trained.len() * iterations) as f64;
                }
                if let Some(shadow) = shadow.as_mut() {
                    let report = seen.report.take().expect("a selected epoch is observed");
                    let mirrored = shadow.select(&ctx);
                    let times = shadow.observe(&ctx, &report);
                    if mirrored != decision {
                        out.fail(format!("FedL epoch {}: shadow cohort differs", ctx.epoch));
                    }
                    accumulate(&mut panel.fedl, &times);
                }
                run.decisions.push(decision);
            }
            if !more {
                break;
            }
        }
        // Every epoch has run, so `run` only collects the outcome.
        run.outcome = Some(runner.run());
        panel.runs.push(run);
    }
    cpu.stop();
    Ok(panel)
}

fn accumulate(sum: &mut FedlTimes, t: &FedlTimes) {
    sum.build_problem += t.build_problem;
    sum.descent += t.descent;
    sum.round += t.round;
    sum.hindsight += t.hindsight;
    sum.dual += t.dual;
}

/// Runs the workload.
pub fn run(run: &Run) -> Result<Outcome, String> {
    let size = match run.size {
        Size::Full => &FULL,
        Size::Tiny => &TINY,
    };
    let panels = ((run.seconds as f64 / size.secs_per_panel).round() as usize).max(1);
    let mut out = Outcome::default();
    if run.trace {
        traced(size, panel_seed(run.seed, 0), &mut out)?;
        return Ok(out);
    }
    let mut cpu = CpuMeter::default();
    let mut untraced = Vec::with_capacity(panels);
    for i in 0..panels {
        untraced.push(run_panel(size, panel_seed(run.seed, i), None, &mut cpu, &mut out)?);
    }
    let epochs: usize = untraced.iter().map(Panel::epochs).sum();
    let all = |f: fn(&Panel) -> &Vec<f64>| untraced.iter().flat_map(f).copied().collect::<Vec<_>>();
    let epoch_ms = all(|p| &p.epoch_ms);
    let decision_ms = all(|p| &p.decision_ms);
    let run_s: Vec<f64> = untraced.iter().map(|p| p.run_s).collect();
    let e2e = &mut out.end_to_end;
    e2e.setup_s = median(&untraced.iter().map(|p| p.setup_s).collect::<Vec<_>>());
    e2e.run_s = median(&run_s);
    e2e.epochs_per_s =
        median(&untraced.iter().map(|p| p.epochs() as f64 / p.run_s).collect::<Vec<_>>());
    e2e.epoch_ms = [percentile(&epoch_ms, 50.0), percentile(&epoch_ms, 90.0)];
    e2e.decision_ms = [percentile(&decision_ms, 50.0), percentile(&decision_ms, 90.0)];
    e2e.cpu_ms_per_epoch = cpu.ms_per(epochs);
    e2e.peak_rss_mb = peak_rss_mb();
    Ok(out)
}

/// Untraced/traced panel pairs behind `telemetry.overhead_pct`;
/// alternating them keeps machine drift out of the difference.
const OVERHEAD_PAIRS: usize = 2;

fn traced(size: &TrainSize, seed: u64, out: &mut Outcome) -> Result<(), String> {
    let mut cpu = CpuMeter::default();
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    let mut last = None;
    for _ in 0..OVERHEAD_PAIRS {
        let reference = run_panel(size, seed, None, &mut cpu, out)?;
        plain_s += reference.run_s;
        let (tel, _events) = Telemetry::in_memory();
        let p = run_panel(size, seed, Some(&tel), &mut cpu, out)?;
        for (policy, (traced, plain)) in
            PolicyKind::ALL.iter().zip(p.runs.iter().zip(&reference.runs))
        {
            if traced != plain {
                out.fail(format!(
                    "{}: traced selections/records differ from untraced",
                    policy.label()
                ));
            }
        }
        traced_s += p.run_s;
        last = Some((tel, p));
    }
    let (tel, p) = last.expect("at least one traced panel");
    let epochs = p.epochs() as f64;
    let span_ms = |name: &str| tel.histogram(&format!("span.{name}")).sum() * 1e3;
    let per_epoch = |ms: f64| ms / epochs;
    let (train, local, aggregate) =
        (span_ms("train"), span_ms("local-train"), span_ms("aggregate"));
    let context = span_ms("select") - p.select_ms;
    let epoch_ms = per_epoch(p.epoch_ms.iter().sum());

    let mut ledger = Ledger::default();
    ledger.row("core.context", per_epoch(context));
    ledger.row("core.select", per_epoch(p.select_ms));
    ledger.row("sim.train", per_epoch(train - local - aggregate));
    ledger.row("ml.local_train", per_epoch(local));
    ledger.row("sim.aggregate", per_epoch(aggregate));
    ledger.row("core.observe", per_epoch(p.observe_ms));
    ledger.row("ml.evaluate", per_epoch(span_ms("evaluate")));
    out.notes.extend(ledger.render("train_fig2_quick", epoch_ms));
    out.notes.push(format!(
        "  FedL split (per panel epoch): build {:.4} ms, descent {:.4} ms, round {:.4} ms, \
         hindsight {:.4} ms, dual {:.4} ms",
        per_epoch(p.fedl.build_problem),
        per_epoch(p.fedl.descent),
        per_epoch(p.fedl.round),
        per_epoch(p.fedl.hindsight),
        per_epoch(p.fedl.dual)
    ));

    let fedl = p.runs[0].outcome.as_ref().expect("FedL ran");
    out.layer("core.select_ms", per_epoch(p.select_ms));
    out.layer("core.observe_ms", per_epoch(p.observe_ms));
    out.layer("core.context_ms", per_epoch(context));
    out.layer("core.build_problem_ms", per_epoch(p.fedl.build_problem));
    out.layer("core.descent_ms", per_epoch(p.fedl.descent));
    out.layer("core.round_ms", per_epoch(p.fedl.round));
    out.layer("core.hindsight_ms", per_epoch(p.fedl.hindsight));
    out.layer("core.dual_ms", per_epoch(p.fedl.dual));
    out.layer("core.hindsight_share_pct", per_epoch(p.fedl.hindsight) / epoch_ms * 100.0);
    out.layer("core.avail_k", mean(&p.avail));
    out.layer("core.cohort_size", mean(&p.cohort));
    out.layer("core.iterations", mean(&p.iterations));
    out.layer("core.spent_frac", fedl.epochs.last().map_or(0.0, |r| r.spent) / size.budget);
    out.layer("sim.train_ms", per_epoch(train - local - aggregate));
    out.layer("sim.aggregate_ms", per_epoch(aggregate));
    match fedl.time_to_accuracy(TARGET_ACCURACY) {
        Some(secs) => out.layer("sim.sim_s_to_target", secs),
        None => out.notes.push(format!("FedL did not reach {TARGET_ACCURACY} test accuracy")),
    }
    out.layer("ml.local_train_ms", per_epoch(local));
    out.layer("ml.evaluate_ms", per_epoch(span_ms("evaluate")));
    out.layer("ml.client_iters", p.client_iters);
    out.layer("ml.final_accuracy", fedl.final_accuracy());
    out.layer("telemetry.overhead_pct", (traced_s / plain_s - 1.0) * 100.0);
    out.layer("ledger.epoch_ms", epoch_ms);
    out.layer("ledger.coverage_pct", ledger.coverage_pct(epoch_ms));
    Ok(())
}
