//! Self-test of the benchmark: tiny runs print every named metric with
//! its unit and pass their output checks, and the parity check catches
//! a single perturbed served cohort.

use fedl_core::policy::PolicyKind;
use fedl_perfbench::report::{Outcome, END_TO_END, PER_LAYER};
use fedl_perfbench::serve::check_parity;
use fedl_perfbench::{run_workload, Run, Size, WORKLOADS};
use fedl_serve::{reference_run, ServeConfig};

fn assert_prints_every_metric(workload: &str, trace: bool) {
    let run = Run { seed: 7, seconds: 1, trace, size: Size::Tiny };
    let outcome = run_workload(workload, &run).expect("tiny workloads run");
    let notes = outcome.notes.join("\n");
    assert_eq!(outcome.failed, 0, "{workload} trace={trace} failed checks:\n{notes}");
    let line = outcome.json_line(trace);
    assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{line}");
    let names = if trace { &PER_LAYER[..] } else { &END_TO_END[..] };
    for (name, unit) in names {
        let entry = format!("\"{name}\": {{\"value\": ");
        let at = line.find(&entry).unwrap_or_else(|| panic!("{workload}: {name} missing"));
        let rest = &line[at + entry.len()..];
        let value: f64 = rest[..rest.find(',').expect("value then unit")].parse().expect("number");
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        assert!(rest.starts_with(&format!("{value:?}, \"unit\": \"{unit}\"}}")), "{name}: {rest}");
        if !trace {
            assert!(value > 0.0, "{workload}: end-to-end {name} must never be 0");
        }
    }
    if trace {
        assert!(notes.contains("coverage: layers sum to"), "{workload}: no coverage line\n{notes}");
    }
}

#[test]
fn tiny_runs_print_every_metric_with_its_unit() {
    for workload in WORKLOADS {
        assert_prints_every_metric(workload, false);
        assert_prints_every_metric(workload, true);
    }
}

#[test]
fn traced_serve_run_prints_the_per_epoch_series() {
    let run = Run { seed: 3, seconds: 1, trace: true, size: Size::Tiny };
    let outcome = run_workload("serve_fedl_1k", &run).expect("tiny serve runs");
    let series = outcome.notes.iter().position(|l| l.starts_with("series serve_fedl_1k"));
    let series = series.expect("the traced serve run prints its series");
    assert!(outcome.notes[series + 1].trim_start().starts_with("0 "));
}

#[test]
fn parity_check_fails_when_one_served_cohort_is_perturbed() {
    let config = ServeConfig::new(40, 5, 1.0e15, 3, PolicyKind::FedL);
    let reference = reference_run(&config, 4);
    let mut clean = Outcome::default();
    check_parity(&reference.clone(), &reference, &mut clean);
    assert_eq!(clean.failed, 0);

    let mut served = reference.clone();
    let member = served[2].cohort[0];
    served[2].cohort[0] = (member + 1..config.env.num_clients)
        .find(|k| !served[2].cohort.contains(k))
        .expect("a client outside the cohort");
    let mut perturbed = Outcome::default();
    check_parity(&served, &reference, &mut perturbed);
    assert_eq!(perturbed.failed, 1, "{:?}", perturbed.notes);
}

#[test]
fn unknown_workloads_are_refused() {
    let run = Run { seed: 1, seconds: 1, trace: false, size: Size::Tiny };
    assert!(run_workload("nope", &run).is_err());
}

#[test]
fn benchmark_json_lists_exactly_the_metrics_and_workloads_printed() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let spec = fedl_json::Value::parse(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        spec.field(key)
            .expect("key present")
            .as_arr()
            .expect("an array")
            .iter()
            .map(|m| {
                let s = |f: &str| m.field(f).expect("field").as_str().expect("string").to_string();
                (s("name"), s("unit"))
            })
            .collect()
    };
    let ours = |v: &[(&str, &str)]| -> Vec<(String, String)> {
        v.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(listed("end_to_end"), ours(&END_TO_END));
    assert_eq!(listed("per_layer"), ours(&PER_LAYER));
    let workloads: Vec<&str> = spec
        .field("workloads")
        .expect("workloads")
        .as_arr()
        .expect("an array")
        .iter()
        .map(|w| w.field("name").expect("name").as_str().expect("string"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
}
