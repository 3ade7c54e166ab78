//! The repository benchmark: three closed-loop workloads driven through
//! the public APIs of `fedl-core`, `fedl-serve` and `fedl-dist`, each
//! reporting the same end-to-end metrics, plus a traced mode that
//! attributes epoch time to the layers (see `perfbench/README.md`).
//!
//! Every workload is a pure function of `(seed, size)`: the program
//! receives only the inputs generated here, and every epoch's output is
//! checked (parity against the in-process reference, the participation
//! floor, the budget ledger, traced == untraced).

pub mod dist;
pub mod measure;
pub mod report;
pub mod serve;
pub mod shadow;
pub mod train;
pub mod wire;

use report::Outcome;

/// The workloads, by the names `BENCHMARK.json` lists.
pub const WORKLOADS: [&str; 3] = ["train_fig2_quick", "serve_fedl_1k", "dist_fedavg_100k"];

/// Problem size of a run. `Full` is the benchmark; `Tiny` shrinks every
/// population and loop so the self-test runs in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` documents.
    Full,
    /// Seconds-scale sizes for the self-test.
    Tiny,
}

/// One benchmark invocation.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Requested measurement length; each workload turns it into a
    /// fixed amount of work (so a run's work never depends on speed).
    pub seconds: u64,
    /// `true` for the traced run (per-layer metrics).
    pub trace: bool,
    /// Problem size.
    pub size: Size,
}

/// Runs workload `name`; `Err` for an unknown name or a workload that
/// could not run at all (as opposed to epochs that failed their checks,
/// which the outcome counts).
pub fn run_workload(name: &str, run: &Run) -> Result<Outcome, String> {
    match name {
        "train_fig2_quick" => train::run(run),
        "serve_fedl_1k" => serve::run(run),
        "dist_fedavg_100k" => dist::run(run),
        other => Err(format!("unknown workload {other:?} (expected one of {WORKLOADS:?})")),
    }
}
