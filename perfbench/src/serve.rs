//! `serve_fedl_1k`: a `ServerState` behind `serve_connection` on its
//! own thread, driven over loopback TCP by one load-generator
//! connection (closed loop: SelectCohort → Cohort → synthesized
//! training → TrainResult → ack). M = 1000, n = 8, FedL built tracked
//! as `fedl-serve` builds it, a budget that never runs out, and
//! `synth_train_result` feedback.
//!
//! The decision is FedL at K ≈ 1000; the epoch is dominated by the
//! tracked regret hindsight solve. That solve costs milliseconds for
//! the first ~25 epochs, starts climbing at epoch 26 and takes seconds
//! per epoch from epoch 28 on (every seed tried), with a heavy,
//! input-dependent tail: two seeds' 10-epoch slow tails differ by up to
//! 2x. So the untraced run measures many short sessions (epochs 0–25,
//! each on its own seed-derived population), which is steady, and the
//! traced run serves one session across the jump and attributes both
//! regimes.

use std::net::{TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Instant;

use fedl_core::columnar::scale_context;
use fedl_core::policy::PolicyKind;
use fedl_linalg::rng::derive_seed;
use fedl_net::{ChannelModel, LatencyModel};
use fedl_serve::{
    reference_run, sanitize_decision, serve_connection, synth_train_result, Message, ProtocolError,
    SelectionRecord, ServeConfig, ServeExit, ServerState, TcpTransport, Trace, PROTOCOL_VERSION,
};
use fedl_sim::{BudgetLedger, ClientColumns};
use fedl_telemetry::Telemetry;

use crate::measure::{median, ms_since, peak_rss_mb, percentile, secs_since, CpuMeter};
use crate::report::{Ledger, Outcome};
use crate::shadow::{FedlTimes, ShadowFedl};
use crate::wire::{BusyLog, BusyTransport, Endpoint};
use crate::{Run, Size};

/// A budget no session can spend: the run never stops early.
const BUDGET: f64 = 1.0e15;

struct ServeSize {
    clients: usize,
    n: usize,
    /// Epochs of an untraced session: all before the hindsight solve's
    /// cost starts to climb.
    session_epochs: usize,
    /// Epochs of the traced session: through the jump into the slow
    /// regime and some way beyond it.
    traced_epochs: usize,
    /// One untraced session (set-up included) takes about this long on
    /// the reference machine: a run measures `seconds / secs_per_session`
    /// sessions, session `i` on a population from `derive_seed(seed, i)`.
    secs_per_session: f64,
}

const FULL: ServeSize =
    ServeSize { clients: 1000, n: 8, session_epochs: 26, traced_epochs: 36, secs_per_session: 1.5 };
const TINY: ServeSize =
    ServeSize { clients: 40, n: 3, session_epochs: 3, traced_epochs: 4, secs_per_session: 1.0 };

/// A running server plus the load generator's connection to it.
struct Deployment {
    client: Endpoint<TcpTransport>,
    server: JoinHandle<Result<ServeExit, ProtocolError>>,
    telemetry: Telemetry,
    busy: Option<BusyLog>,
}

/// Starts the server thread, connects, handshakes and joins every
/// client — the set-up a served federation pays before its first epoch.
fn deploy(config: &ServeConfig, traced: bool) -> Result<Deployment, String> {
    let telemetry = if traced { Telemetry::in_memory().0 } else { Telemetry::disabled() };
    let mut state = ServerState::new(config.clone(), telemetry.clone());
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let busy = traced.then(BusyLog::default);
    let log = busy.clone();
    let server = std::thread::spawn(move || {
        let (stream, _) =
            listener.accept().map_err(|e| ProtocolError::Io { detail: e.to_string() })?;
        let mut transport = BusyTransport::new(TcpTransport::new(stream), log);
        serve_connection(&mut transport, &mut state)
    });
    let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    let mut client = Endpoint::new(TcpTransport::new(stream));
    let hello = Message::Hello { protocol_version: PROTOCOL_VERSION, node: "perfbench".into() };
    match client.rpc(&hello)? {
        Message::Hello { .. } => {}
        other => return Err(format!("expected Hello, got {other:?}")),
    }
    for k in 0..config.env.num_clients {
        match client.rpc(&Message::ClientJoin { client: k })? {
            Message::Snapshot { .. } => {}
            other => return Err(format!("expected a join ack, got {other:?}")),
        }
    }
    Ok(Deployment { client, server, telemetry, busy })
}

impl Deployment {
    /// Sends Shutdown and waits for the server thread to end.
    fn shutdown(mut self) -> Result<(), String> {
        self.client.rpc(&Message::Shutdown)?;
        match self.server.join() {
            Ok(Ok(ServeExit::Shutdown)) => Ok(()),
            Ok(other) => Err(format!("server ended with {other:?}")),
            Err(_) => Err("server thread panicked".to_string()),
        }
    }
}

/// Per-epoch traced attribution.
#[derive(Default, Clone, Copy)]
struct Traced {
    realize_ms: f64,
    context_ms: f64,
    fedl: FedlTimes,
    client_train_ms: f64,
    rpc_ms: f64,
    encode_us: f64,
    decode_us: f64,
    bytes: usize,
    avail: usize,
    cohort: usize,
    iterations: usize,
}

/// One served session.
#[derive(Default)]
struct Session {
    records: Vec<SelectionRecord>,
    epoch_ms: Vec<f64>,
    decision_ms: Vec<f64>,
    traced: Vec<Traced>,
    spent: f64,
}

/// The load generator's view of the deployment, shared by the session
/// and (traced) the shadow.
struct Population {
    cols: ClientColumns,
    channel: ChannelModel,
    latency: LatencyModel,
}

/// Drives `epochs` served epochs. Epochs that error or are refused are
/// failed; a broken connection fails the rest of the session too.
fn session(
    dep: &mut Deployment,
    config: &ServeConfig,
    pop: &Population,
    epochs: usize,
    mut shadow: Option<&mut ShadowFedl>,
    out: &mut Outcome,
) -> Session {
    let mut s = Session::default();
    let mut ledger = BudgetLedger::new(config.budget);
    ledger.set_telemetry(Telemetry::disabled());
    for epoch in 0..epochs {
        out.attempted += 1;
        let mut tr = Traced::default();
        let t0 = Instant::now();
        let reply = dep.client.rpc(&Message::SelectCohort { epoch, trace: Trace::Absent });
        let decision_ms = ms_since(t0);
        let (cohort, iterations) = match reply {
            Ok(Message::Cohort { epoch: got, cohort, iterations, done: false }) if got == epoch => {
                (cohort, iterations)
            }
            other => {
                out.fail(format!("epoch {epoch}: expected its Cohort, got {other:?}"));
                out.attempted += epochs - epoch - 1;
                out.failed += epochs - epoch - 1;
                return s;
            }
        };
        let mut stats = dep.client.last;
        if cohort.is_empty() {
            // Nobody available: the epoch passes untrained (and the
            // reference records it the same way).
            s.records.push(SelectionRecord { epoch, cohort, iterations: 0 });
            continue;
        }
        let t = Instant::now();
        let synth = synth_train_result(
            &pop.cols,
            config,
            &pop.channel,
            &pop.latency,
            epoch,
            &cohort,
            iterations,
        );
        tr.client_train_ms = ms_since(t);
        let ack = dep.client.rpc(&synth.to_message(epoch, &cohort, iterations));
        let epoch_ms = ms_since(t0);
        if !matches!(ack, Ok(Message::Snapshot { .. })) {
            out.fail(format!("epoch {epoch}: TrainResult not acknowledged: {ack:?}"));
            out.attempted += epochs - epoch - 1;
            out.failed += epochs - epoch - 1;
            return s;
        }
        s.epoch_ms.push(epoch_ms);
        s.decision_ms.push(decision_ms);
        stats.encode_us += dep.client.last.encode_us;
        stats.decode_us += dep.client.last.decode_us;
        stats.bytes += dep.client.last.bytes;
        tr.rpc_ms = epoch_ms - tr.client_train_ms;
        tr.encode_us = stats.encode_us;
        tr.decode_us = stats.decode_us;
        tr.bytes = stats.bytes;
        if let Some(shadow) = shadow.as_deref_mut() {
            shadow_epoch(
                shadow, config, pop, epoch, &ledger, &cohort, iterations, &synth, &mut tr, out,
            );
        }
        ledger.charge(synth.cost);
        s.traced.push(tr);
        s.records.push(SelectionRecord { epoch, cohort, iterations });
    }
    s.spent = ledger.spent();
    s
}

/// Replays epoch `epoch`'s decision and feedback through the shadow
/// (after the served epoch, so its time is not in the epoch's);
/// `ledger` is the budget as the server saw it before this epoch.
#[allow(clippy::too_many_arguments)]
fn shadow_epoch(
    shadow: &mut ShadowFedl,
    config: &ServeConfig,
    pop: &Population,
    epoch: usize,
    ledger: &BudgetLedger,
    cohort: &[usize],
    iterations: usize,
    synth: &fedl_serve::loadgen::SynthResult,
    tr: &mut Traced,
    out: &mut Outcome,
) {
    let t = Instant::now();
    let now = pop.cols.epoch_columns(epoch, &config.env, &pop.channel);
    let hint = if epoch == 0 {
        now.clone()
    } else {
        pop.cols.epoch_columns(epoch - 1, &config.env, &pop.channel)
    };
    tr.realize_ms = ms_since(t);
    let t = Instant::now();
    let ctx = scale_context(
        &pop.cols,
        &hint,
        &now,
        &pop.latency,
        ledger.remaining(),
        config.min_participants,
        config.env.seed,
    )
    .expect("a served epoch had available clients");
    tr.context_ms = ms_since(t);
    let decision = shadow.select(&ctx);
    let (mirrored, mirrored_iterations) =
        sanitize_decision(&ctx, decision.cohort, decision.iterations);
    if mirrored != cohort || mirrored_iterations != iterations {
        out.fail(format!("epoch {epoch}: shadow cohort differs from the served one"));
    }
    tr.fedl = shadow.observe(&ctx, &synth.to_report(epoch, cohort, iterations));
    tr.avail = ctx.available.len();
    tr.cohort = cohort.len();
    tr.iterations = iterations;
}

/// Fails every epoch whose served selection differs from the reference.
pub fn check_parity(served: &[SelectionRecord], reference: &[SelectionRecord], out: &mut Outcome) {
    for (i, want) in reference.iter().enumerate() {
        match served.get(i) {
            Some(got) if got == want => {}
            Some(got) => out.fail(format!("epoch {i}: served {got:?}, reference {want:?}")),
            // A session cut short has already failed its missing epochs.
            None => break,
        }
    }
}

/// The load generator's view of the deployment for `config`.
fn population(config: &ServeConfig) -> Population {
    let channel = ChannelModel::default();
    Population {
        cols: ClientColumns::build(&config.env, &channel),
        latency: config.latency_model(),
        channel,
    }
}

/// Runs the workload.
pub fn run(run: &Run) -> Result<Outcome, String> {
    let size = match run.size {
        Size::Full => &FULL,
        Size::Tiny => &TINY,
    };
    let config_for = |seed| ServeConfig::new(size.clients, seed, BUDGET, size.n, PolicyKind::FedL);
    let mut out = Outcome::default();
    if run.trace {
        traced(&config_for(derive_seed(run.seed, 0)), size, &mut out)?;
        return Ok(out);
    }
    let sessions = ((run.seconds as f64 / size.secs_per_session).round() as usize).max(1);
    let mut cpu = CpuMeter::default();
    let (mut setups, mut walls) = (Vec::new(), Vec::new());
    let (mut epoch_ms, mut decision_ms) = (Vec::new(), Vec::new());
    let mut served = Vec::with_capacity(sessions);
    for i in 0..sessions {
        let config = config_for(derive_seed(run.seed, i as u64));
        let pop = population(&config);
        let t = Instant::now();
        let mut dep = deploy(&config, false)?;
        setups.push(secs_since(t));
        cpu.start();
        let t = Instant::now();
        let s = session(&mut dep, &config, &pop, size.session_epochs, None, &mut out);
        walls.push((secs_since(t), s.epoch_ms.len()));
        cpu.stop();
        dep.shutdown()?;
        epoch_ms.extend(s.epoch_ms);
        decision_ms.extend(s.decision_ms);
        served.push((config, s.records));
    }
    let e2e = &mut out.end_to_end;
    e2e.setup_s = median(&setups);
    e2e.run_s = median(&walls.iter().map(|w| w.0).collect::<Vec<_>>());
    e2e.epochs_per_s = median(&walls.iter().map(|w| w.1 as f64 / w.0).collect::<Vec<_>>());
    e2e.epoch_ms = [percentile(&epoch_ms, 50.0), percentile(&epoch_ms, 90.0)];
    e2e.decision_ms = [percentile(&decision_ms, 50.0), percentile(&decision_ms, 90.0)];
    e2e.cpu_ms_per_epoch = cpu.ms_per(epoch_ms.len());
    e2e.peak_rss_mb = peak_rss_mb();
    for (config, records) in &served {
        check_parity(records, &reference_run(config, size.session_epochs), &mut out);
    }
    Ok(out)
}

fn traced(config: &ServeConfig, size: &ServeSize, out: &mut Outcome) -> Result<(), String> {
    let pop = population(config);
    let epochs = size.traced_epochs;
    // The untraced baseline for telemetry.overhead_pct and the
    // selections the traced session must repeat: one untraced session.
    let mut dep = deploy(config, false)?;
    let plain = session(&mut dep, config, &pop, size.session_epochs, None, out);
    dep.shutdown()?;
    let mut dep = deploy(config, true)?;
    let mut shadow = ShadowFedl::new(
        config.fedl,
        config.env.num_clients,
        config.budget,
        config.min_participants,
    );
    let codec = |tel: &Telemetry| {
        (tel.histogram("proto.encode_ns").sum(), tel.histogram("proto.decode_ns").sum())
    };
    let (enc0, dec0) = codec(&dep.telemetry);
    let setup_frames = dep.busy.as_ref().map_or(0, |b| b.lock().expect("busy log").len());
    let s = session(&mut dep, config, &pop, epochs, Some(&mut shadow), out);
    let (enc1, dec1) = codec(&dep.telemetry);
    let busy = dep.busy.clone().expect("traced deployments log busy time");
    dep.shutdown()?;
    if s.records.get(..plain.records.len()) != Some(&plain.records[..]) {
        out.fail("traced selections differ from the untraced session".to_string());
    }
    check_parity(&s.records, &reference_run(config, epochs), out);
    // Requests after the set-up frames: SelectCohort, then TrainResult
    // unless the epoch had nobody available.
    let busy = busy.lock().expect("busy log");
    let mut frames = busy[setup_frames..].iter();
    let (mut select_busy, mut train_busy) = (0.0, 0.0);
    for record in &s.records {
        select_busy += frames.next().copied().unwrap_or(0.0);
        if !record.cohort.is_empty() {
            train_busy += frames.next().copied().unwrap_or(0.0);
        }
    }
    let n = s.traced.len() as f64;
    let (select_busy, train_busy) = (select_busy / n, train_busy / n);
    let epoch_ms = s.epoch_ms.iter().sum::<f64>() / n;
    let avg = |f: fn(&Traced) -> f64| s.traced.iter().map(f).sum::<f64>() / n;
    // Server-side codec comes from the program's proto.* histograms;
    // the client side from the benchmark's endpoint.
    let encode_us = avg(|t| t.encode_us) + (enc1 - enc0) / 1e3 / n;
    let decode_us = avg(|t| t.decode_us) + (dec1 - dec0) / 1e3 / n;
    let client_codec_ms = avg(|t| t.encode_us + t.decode_us) / 1e3;
    let wire = avg(|t| t.rpc_ms) - client_codec_ms - select_busy - train_busy;
    let realize = avg(|t| t.realize_ms);
    let context = avg(|t| t.context_ms);
    let fedl = |f: fn(&FedlTimes) -> f64| s.traced.iter().map(|t| f(&t.fedl)).sum::<f64>() / n;
    let hindsight = fedl(|f| f.hindsight);

    let mut ledger = Ledger::default();
    ledger.row("sim.realize", realize);
    ledger.row("core.context", context);
    ledger.row("core.build_problem", fedl(|f| f.build_problem));
    ledger.row("core.descent", fedl(|f| f.descent));
    ledger.row("core.round", fedl(|f| f.round));
    ledger.row("core.hindsight", hindsight);
    ledger.row("core.dual", fedl(|f| f.dual));
    ledger.row("serve.codec", (encode_us + decode_us) / 1e3);
    ledger.row("serve.wire", wire);
    ledger.row("serve.client_train", avg(|t| t.client_train_ms));
    out.notes.extend(ledger.render("serve_fedl_1k", epoch_ms));
    out.notes.push(format!(
        "  server busy {:.3} ms/epoch, of which the shadowed layers explain {:.3} ms",
        select_busy + train_busy,
        realize + context + fedl(|f| f.select() + f.observe())
    ));
    out.notes.push(
        "series serve_fedl_1k: epoch select_ms hindsight_ms epoch_ms hindsight_share_pct".into(),
    );
    let trained = s.records.iter().filter(|r| !r.cohort.is_empty());
    for (record, (t, ms)) in trained.zip(s.traced.iter().zip(&s.epoch_ms)) {
        out.notes.push(format!(
            "  {:>3} {:>9.3} {:>10.3} {:>10.3} {:>6.1}",
            record.epoch,
            t.fedl.select(),
            t.fedl.hindsight,
            ms,
            t.fedl.hindsight / ms * 100.0
        ));
    }
    // The regret-tracking share before and after the jump: epochs the
    // untraced sessions measure, then the rest of the traced session.
    let split = size.session_epochs.min(s.traced.len());
    let share = |from: usize, to: usize| {
        let h: f64 = s.traced[from..to].iter().map(|t| t.fedl.hindsight).sum();
        h / s.epoch_ms[from..to].iter().sum::<f64>() * 100.0
    };
    out.notes.push(format!(
        "  regret tracking (core.hindsight) is {:.1}% of the served epoch time: {:.1}% over \
         epochs 0-{} (the untraced sessions' window), {:.1}% over the {} epochs after",
        hindsight / epoch_ms * 100.0,
        share(0, split),
        split.saturating_sub(1),
        share(split, s.traced.len()),
        s.traced.len() - split
    ));

    out.layer("core.select_ms", fedl(FedlTimes::select));
    out.layer("core.observe_ms", fedl(FedlTimes::observe));
    out.layer("core.context_ms", realize + context);
    out.layer("core.build_problem_ms", fedl(|f| f.build_problem));
    out.layer("core.descent_ms", fedl(|f| f.descent));
    out.layer("core.round_ms", fedl(|f| f.round));
    out.layer("core.hindsight_ms", hindsight);
    out.layer("core.dual_ms", fedl(|f| f.dual));
    out.layer("core.hindsight_share_pct", hindsight / epoch_ms * 100.0);
    out.layer("core.avail_k", avg(|t| t.avail as f64));
    out.layer("core.cohort_size", avg(|t| t.cohort as f64));
    out.layer("core.iterations", avg(|t| t.iterations as f64));
    out.layer("core.spent_frac", s.spent / config.budget);
    out.layer("sim.realize_ms", realize);
    out.layer("serve.select_busy_ms", select_busy);
    out.layer("serve.train_busy_ms", train_busy);
    out.layer("serve.client_train_ms", avg(|t| t.client_train_ms));
    out.layer("serve.wire_ms", wire);
    out.layer("serve.encode_us", encode_us);
    out.layer("serve.decode_us", decode_us);
    out.layer("serve.bytes_per_epoch", avg(|t| t.bytes as f64));
    // Both sides sum the same epochs' times, so the shadow's replay is
    // excluded.
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    let common = plain.epoch_ms.len().min(s.epoch_ms.len());
    out.layer(
        "telemetry.overhead_pct",
        (sum(&s.epoch_ms[..common]) / sum(&plain.epoch_ms[..common]) - 1.0) * 100.0,
    );
    out.layer("ledger.epoch_ms", epoch_ms);
    out.layer("ledger.coverage_pct", ledger.coverage_pct(epoch_ms));
    Ok(())
}
