//! `dist_fedavg_100k`: a `Coordinator` over two `WorkerState` shards,
//! each served by `run_worker` on its own thread over loopback TCP.
//! M = 100 000, n = 64, FedAvg, a budget that never runs out. The
//! coordinator blocks while the workers compute, so at most two threads
//! run at once; the decision is trivial, so the epoch is per-shard
//! realization, ~50k-client context frames (codec + wire) and the
//! fixed-order merge — the no-change workload for solver work.
//!
//! The measured phase is a series of chunks: each builds a fresh
//! `Coordinator` over the same two worker connections (the re-handshake
//! reuses the shards the workers already hold) and drives epochs
//! `0..chunk_epochs`, so every chunk must reproduce
//! `fedl_serve::reference_run` byte for byte.

use std::net::{TcpListener, TcpStream};
use std::ops::Range;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use fedl_core::policy::PolicyKind;
use fedl_dist::{
    run_worker, shard_ranges, Coordinator, DistOptions, ShardWorker, WorkerLink, WorkerState,
};
use fedl_serve::{
    reference_run, Message, ProtocolError, SelectionRecord, ServeConfig, ServeExit, TcpTransport,
};
use fedl_telemetry::Telemetry;

use crate::measure::{mean, median, peak_rss_mb, percentile, secs_since, CpuMeter};
use crate::report::{Ledger, Outcome};
use crate::wire::{BusyLog, BusyTransport, Endpoint};
use crate::{Run, Size};

/// A budget no run can spend.
const BUDGET: f64 = 1.0e15;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Worker shards (threads).
const WORKERS: usize = 2;

struct DistSize {
    clients: usize,
    n: usize,
    chunk_epochs: usize,
    /// One chunk takes about this long on the reference machine: a run
    /// measures `seconds / secs_per_chunk` chunks (at least one).
    secs_per_chunk: f64,
}

const FULL: DistSize = DistSize { clients: 100_000, n: 64, chunk_epochs: 10, secs_per_chunk: 1.4 };
const TINY: DistSize = DistSize { clients: 2_000, n: 4, chunk_epochs: 3, secs_per_chunk: 1e9 };

/// Which request an exchange carried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Context,
    Train,
    Other,
}

/// One coordinator → worker exchange as the link saw it.
#[derive(Debug, Clone, Copy)]
struct Exchange {
    kind: Kind,
    epoch: usize,
    sent: Instant,
    replied: Option<Instant>,
    codec_ms: [f64; 2],
    bytes: usize,
    /// Context: available clients in the part; Train: shard members.
    count: usize,
    /// Train: requested iterations.
    iterations: usize,
    /// Train reply: the members' summed cost.
    cost: f64,
}

struct LinkState {
    endpoint: Endpoint<TcpTransport>,
    log: Vec<Exchange>,
}

/// The benchmark's `WorkerLink`: TCP to one worker thread, timing every
/// exchange. Clones share the connection, so successive coordinators
/// drive the same worker.
#[derive(Clone)]
struct TimedLink(Arc<Mutex<LinkState>>);

impl TimedLink {
    fn lock(&self) -> std::sync::MutexGuard<'_, LinkState> {
        self.0.lock().expect("link lock is never poisoned")
    }
}

impl WorkerLink for TimedLink {
    fn send(&mut self, msg: &Message) -> Result<(), ProtocolError> {
        let (kind, epoch, count, iterations) = match msg {
            Message::ShardContext { epoch, .. } => (Kind::Context, *epoch, 0, 0),
            Message::ShardTrain { epoch, members, iterations, .. } => {
                (Kind::Train, *epoch, members.len(), *iterations)
            }
            _ => (Kind::Other, 0, 0, 0),
        };
        let mut link = self.lock();
        let sent = Instant::now();
        link.endpoint.send(msg)?;
        let last = link.endpoint.last;
        link.log.push(Exchange {
            kind,
            epoch,
            sent,
            replied: None,
            codec_ms: [last.encode_us / 1e3, 0.0],
            bytes: last.bytes,
            count,
            iterations,
            cost: 0.0,
        });
        Ok(())
    }

    fn recv_reply(&mut self) -> Result<Message, ProtocolError> {
        let mut link = self.lock();
        let reply = link.endpoint.recv()?;
        let replied = Instant::now();
        let last = link.endpoint.last;
        let ex = link.log.last_mut().expect("a reply follows a request");
        ex.replied = Some(replied);
        ex.codec_ms[1] = last.decode_us / 1e3;
        ex.bytes = last.bytes;
        match &reply {
            Message::ShardContextPart { available, .. } => ex.count = available.len(),
            Message::ShardTrainPart { costs, .. } => ex.cost = costs.iter().sum(),
            _ => {}
        }
        Ok(reply)
    }

    fn reset(&mut self) -> Result<(), String> {
        Err("the benchmark does not restart loopback workers".to_string())
    }
}

struct Worker {
    shard: Range<usize>,
    link: TimedLink,
    thread: JoinHandle<Result<ServeExit, ProtocolError>>,
    busy: Option<BusyLog>,
    telemetry: Telemetry,
}

/// Two worker threads, connected and handshaken (each worker has built
/// its shard of the population).
struct Deployment {
    workers: Vec<Worker>,
    telemetry: Telemetry,
}

fn deploy(config: &ServeConfig, traced: bool) -> Result<Deployment, String> {
    let tel = || if traced { Telemetry::in_memory().0 } else { Telemetry::disabled() };
    let mut workers = Vec::with_capacity(WORKERS);
    for shard in shard_ranges(config.env.num_clients, WORKERS) {
        let telemetry = tel();
        let mut state = WorkerState::new(telemetry.clone());
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let busy = traced.then(BusyLog::default);
        let log = busy.clone();
        let thread = std::thread::spawn(move || {
            let (stream, _) =
                listener.accept().map_err(|e| ProtocolError::Io { detail: e.to_string() })?;
            let mut transport = BusyTransport::new(TcpTransport::new(stream), log);
            run_worker(&mut transport, &mut state)
        });
        let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        let endpoint = Endpoint::new(TcpTransport::new(stream));
        let link = TimedLink(Arc::new(Mutex::new(LinkState { endpoint, log: Vec::new() })));
        workers.push(Worker { shard, link, thread, busy, telemetry });
    }
    let dep = Deployment { workers, telemetry: tel() };
    // A zero-epoch run is the handshake alone: version, shard
    // assignment (the worker builds its population) and fingerprint.
    dep.coordinator(config)?.run(&DistOptions { epochs: 0, max_resets: 0 })?;
    Ok(dep)
}

impl Deployment {
    fn coordinator(&self, config: &ServeConfig) -> Result<Coordinator, String> {
        let links = self
            .workers
            .iter()
            .map(|w| ShardWorker { shard: w.shard.clone(), link: Box::new(w.link.clone()) })
            .collect();
        Coordinator::new(config.clone(), links, self.telemetry.clone())
    }

    /// Sends Shutdown to each worker and waits for its thread.
    fn shutdown(self) -> Result<(), String> {
        for w in self.workers {
            w.link.lock().endpoint.rpc(&Message::Shutdown)?;
            match w.thread.join() {
                Ok(Ok(ServeExit::Shutdown)) => {}
                Ok(other) => return Err(format!("worker ended with {other:?}")),
                Err(_) => return Err("worker thread panicked".to_string()),
            }
        }
        Ok(())
    }
}

/// The epochs of a measured phase, reconstructed from the link logs.
#[derive(Default)]
struct Phase {
    run_s: f64,
    selections: Vec<Vec<SelectionRecord>>,
    epoch_ms: Vec<f64>,
    decision_ms: Vec<f64>,
    context_ms: Vec<f64>,
    train_ms: Vec<f64>,
    coord_codec_ms: Vec<[f64; 2]>,
    bytes: Vec<f64>,
    avail: Vec<f64>,
    cohort: Vec<f64>,
    iterations: Vec<f64>,
    spent: f64,
    /// Per epoch, per worker: busy ms on the context and train requests.
    busy: Vec<Vec<[f64; 2]>>,
}

fn ms_between(a: Instant, b: Instant) -> f64 {
    b.duration_since(a).as_secs_f64() * 1e3
}

/// Runs `chunks` chunks on `dep`; epochs of a chunk that errors are
/// failed.
fn measure(
    dep: &Deployment,
    config: &ServeConfig,
    size: &DistSize,
    chunks: usize,
    out: &mut Outcome,
) -> Phase {
    let mut phase = Phase::default();
    let start_of = |w: &Worker| w.link.lock().log.len();
    for _ in 0..chunks {
        out.attempted += size.chunk_epochs;
        let first: Vec<usize> = dep.workers.iter().map(start_of).collect();
        let report = dep
            .coordinator(config)
            .and_then(|mut c| c.run(&DistOptions { epochs: size.chunk_epochs, max_resets: 0 }));
        let end = Instant::now();
        let report = match report {
            Ok(r) => r,
            Err(e) => {
                out.fail(format!("chunk failed: {e}"));
                out.failed += size.chunk_epochs - 1;
                continue;
            }
        };
        // Per worker, this chunk's epoch exchanges (after the handshake).
        let logs: Vec<Vec<(usize, Exchange)>> = dep
            .workers
            .iter()
            .zip(&first)
            .map(|(w, &from)| {
                w.link.lock().log[from..]
                    .iter()
                    .copied()
                    .enumerate()
                    .map(|(i, ex)| (from + i, ex))
                    .filter(|(_, ex)| ex.kind != Kind::Other)
                    .collect()
            })
            .collect();
        let busy: Vec<Option<Vec<f64>>> = dep
            .workers
            .iter()
            .map(|w| w.busy.as_ref().map(|b| b.lock().expect("busy").clone()))
            .collect();
        let of = |kind: Kind, epoch: usize| -> Vec<(usize, usize, Exchange)> {
            logs.iter()
                .enumerate()
                .flat_map(|(w, log)| {
                    log.iter()
                        .filter(move |(_, ex)| ex.kind == kind && ex.epoch == epoch)
                        .map(move |&(i, ex)| (w, i, ex))
                })
                .collect()
        };
        let chunk_start = of(Kind::Context, 0).iter().map(|e| e.2.sent).min();
        let Some(chunk_start) = chunk_start else {
            out.fail("chunk sent no context request".to_string());
            continue;
        };
        phase.run_s += end.duration_since(chunk_start).as_secs_f64();
        for epoch in 0..size.chunk_epochs {
            let ctx = of(Kind::Context, epoch);
            let train = of(Kind::Train, epoch);
            let Some(begin) = ctx.iter().map(|e| e.2.sent).min() else {
                out.fail(format!("epoch {epoch} sent no context request"));
                continue;
            };
            let ctx_end = ctx.iter().filter_map(|e| e.2.replied).max().unwrap_or(begin);
            let train_begin = train.iter().map(|e| e.2.sent).min().unwrap_or(ctx_end);
            let train_end = train.iter().filter_map(|e| e.2.replied).max().unwrap_or(train_begin);
            let next = of(Kind::Context, epoch + 1).iter().map(|e| e.2.sent).min().unwrap_or(end);
            phase.epoch_ms.push(ms_between(begin, next));
            phase.decision_ms.push(ms_between(begin, train_begin));
            phase.context_ms.push(ms_between(begin, ctx_end));
            phase.train_ms.push(ms_between(train_begin, train_end));
            let all = || ctx.iter().chain(&train);
            phase
                .coord_codec_ms
                .push([all().map(|e| e.2.codec_ms[0]).sum(), all().map(|e| e.2.codec_ms[1]).sum()]);
            phase.bytes.push(all().map(|e| e.2.bytes as f64).sum());
            phase.avail.push(ctx.iter().map(|e| e.2.count as f64).sum());
            phase.cohort.push(train.iter().map(|e| e.2.count as f64).sum());
            phase.iterations.push(train.first().map_or(0.0, |e| e.2.iterations as f64));
            phase.spent += train.iter().map(|e| e.2.cost).sum::<f64>();
            if busy.iter().all(Option::is_some) {
                let at = |w: usize, i: usize| busy[w].as_ref().expect("traced")[i];
                let mut per = vec![[0.0; 2]; dep.workers.len()];
                for &(w, i, _) in &ctx {
                    per[w][0] += at(w, i);
                }
                for &(w, i, _) in &train {
                    per[w][1] += at(w, i);
                }
                phase.busy.push(per);
            }
        }
        phase.selections.push(report.selections);
    }
    phase
}

/// Runs the workload.
pub fn run(run: &Run) -> Result<Outcome, String> {
    let size = match run.size {
        Size::Full => &FULL,
        Size::Tiny => &TINY,
    };
    let chunks = ((run.seconds as f64 / size.secs_per_chunk).round() as usize).max(1);
    let config = ServeConfig::new(size.clients, run.seed, BUDGET, size.n, PolicyKind::FedAvg);
    let mut out = Outcome::default();

    let mut setups = Vec::with_capacity(SETUPS);
    let mut dep = None;
    for _ in 0..SETUPS {
        if let Some(previous) = dep.take() {
            Deployment::shutdown(previous)?;
        }
        let t = Instant::now();
        dep = Some(deploy(&config, false)?);
        setups.push(secs_since(t));
    }
    let dep = dep.expect("at least one set-up");
    let mut cpu = CpuMeter::default();
    cpu.start();
    let plain = measure(&dep, &config, size, chunks, &mut out);
    cpu.stop();
    let epochs = plain.epoch_ms.len();
    let e2e = &mut out.end_to_end;
    e2e.setup_s = median(&setups);
    e2e.run_s = plain.run_s;
    e2e.epochs_per_s = epochs as f64 / plain.run_s;
    e2e.epoch_ms = [percentile(&plain.epoch_ms, 50.0), percentile(&plain.epoch_ms, 90.0)];
    e2e.decision_ms = [percentile(&plain.decision_ms, 50.0), percentile(&plain.decision_ms, 90.0)];
    e2e.cpu_ms_per_epoch = cpu.ms_per(epochs);
    e2e.peak_rss_mb = peak_rss_mb();
    dep.shutdown()?;

    let reference = reference_run(&config, size.chunk_epochs);
    for chunk in &plain.selections {
        crate::serve::check_parity(chunk, &reference, &mut out);
    }
    if run.trace {
        traced(&config, size, chunks, &plain, &mut out)?;
    }
    Ok(out)
}

fn traced(
    config: &ServeConfig,
    size: &DistSize,
    chunks: usize,
    plain: &Phase,
    out: &mut Outcome,
) -> Result<(), String> {
    let dep = deploy(config, true)?;
    let codec = |dep: &Deployment| -> [f64; 2] {
        let sum = |name: &str| -> f64 {
            dep.workers.iter().map(|w| w.telemetry.histogram(name).sum()).sum()
        };
        [sum("proto.encode_ns") / 1e6, sum("proto.decode_ns") / 1e6]
    };
    let before = codec(&dep);
    let p = measure(&dep, config, size, chunks, out);
    let after = codec(&dep);
    let merge_ms = dep.telemetry.histogram("span.dist.merge").sum() * 1e3;
    dep.shutdown()?;
    if p.selections != plain.selections {
        out.fail("traced selections differ from the untraced run".to_string());
    }
    let n = p.epoch_ms.len() as f64;
    let epoch_ms = mean(&p.epoch_ms);
    let gating = |phase: usize| -> Vec<f64> {
        p.busy.iter().map(|per| per.iter().map(|b| b[phase]).fold(0.0, f64::max)).collect()
    };
    let (worker_ctx, worker_train) = (gating(0), gating(1));
    let coord_codec = |i: usize| p.coord_codec_ms.iter().map(|c| c[i]).sum::<f64>() / n;
    let encode = coord_codec(0) + (after[0] - before[0]) / n;
    let decode = coord_codec(1) + (after[1] - before[1]) / n;
    let coordinator: Vec<f64> = p
        .epoch_ms
        .iter()
        .zip(p.context_ms.iter().zip(&p.train_ms))
        .map(|(e, (c, t))| e - c - t)
        .collect();
    let wire = mean(&p.context_ms) + mean(&p.train_ms)
        - mean(&worker_ctx)
        - mean(&worker_train)
        - coord_codec(0)
        - coord_codec(1);
    let skew = mean(
        &p.busy
            .iter()
            .map(|per| {
                let totals: Vec<f64> = per.iter().map(|b| b[0] + b[1]).collect();
                totals.iter().fold(0.0, |a: f64, &b| a.max(b))
                    / totals.iter().fold(f64::INFINITY, |a: f64, &b| a.min(b))
            })
            .collect::<Vec<_>>(),
    );

    let mut ledger = Ledger::default();
    ledger.row("dist.worker_context", mean(&worker_ctx));
    ledger.row("dist.worker_train", mean(&worker_train));
    ledger.row("dist.coord_codec", coord_codec(0) + coord_codec(1));
    ledger.row("dist.wire", wire);
    ledger.row("dist.merge", merge_ms / n);
    ledger.row("dist.coordinator_rest", mean(&coordinator) - merge_ms / n);
    out.notes.extend(ledger.render("dist_fedavg_100k", epoch_ms));
    out.notes.push(
        "  (wire is the gathers minus the gating worker's busy time and the coordinator's \
         codec, so this ledger covers the epoch by construction)"
            .to_string(),
    );

    out.layer("core.avail_k", mean(&p.avail));
    out.layer("core.cohort_size", mean(&p.cohort));
    out.layer("core.iterations", mean(&p.iterations));
    out.layer("core.spent_frac", p.spent / chunks as f64 / config.budget);
    out.layer("dist.context_ms", mean(&p.context_ms));
    out.layer("dist.train_ms", mean(&p.train_ms));
    out.layer("dist.coordinator_ms", mean(&coordinator));
    out.layer("dist.merge_ms", merge_ms / n);
    out.layer("dist.worker_context_ms", mean(&worker_ctx));
    out.layer("dist.worker_train_ms", mean(&worker_train));
    out.layer("dist.wire_ms", wire);
    out.layer("dist.shard_skew", skew);
    out.layer("dist.encode_ms", encode);
    out.layer("dist.decode_ms", decode);
    out.layer("dist.bytes_per_epoch", mean(&p.bytes));
    out.layer("telemetry.overhead_pct", (p.run_s / plain.run_s - 1.0) * 100.0);
    out.layer("ledger.epoch_ms", epoch_ms);
    out.layer("ledger.coverage_pct", ledger.coverage_pct(epoch_ms));
    Ok(())
}
