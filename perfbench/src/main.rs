//! Command-line entry of the repository benchmark:
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints human-readable notes (the traced ledger, per-epoch series,
//! failed checks) and, as the last line of standard output, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`.

use std::process::ExitCode;

use fedl_perfbench::{run_workload, Run, Size};

fn parse(args: &[String]) -> Result<(String, Run), String> {
    let mut workload = None;
    let mut run = Run { seed: 0, seconds: 0, trace: false, size: Size::Full };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => run.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => run.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                run.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if run.seconds == 0 {
        return Err("--seconds must be a positive whole number".to_string());
    }
    Ok((workload, run))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, run) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run_workload(&workload, &run) {
        Ok(outcome) => {
            for line in &outcome.notes {
                println!("{line}");
            }
            println!("{}", outcome.json_line(run.trace));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            ExitCode::FAILURE
        }
    }
}
