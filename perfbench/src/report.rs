//! Metric names, units, the layer ledger, and the one-line JSON result.

use std::collections::BTreeMap;

/// The end-to-end metrics every workload reports, with units.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("epochs_per_s", "1/s"),
    ("epoch_ms_p50", "ms"),
    ("epoch_ms_p90", "ms"),
    ("decision_ms_p50", "ms"),
    ("decision_ms_p90", "ms"),
    ("cpu_ms_per_epoch", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics the traced run reports, with units. Times are
/// per-epoch means of a layer's self time; a layer that does no work on
/// a workload reports 0.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("core.select_ms", "ms"),
    ("core.observe_ms", "ms"),
    ("core.context_ms", "ms"),
    ("core.build_problem_ms", "ms"),
    ("core.descent_ms", "ms"),
    ("core.round_ms", "ms"),
    ("core.hindsight_ms", "ms"),
    ("core.dual_ms", "ms"),
    ("core.hindsight_share_pct", "%"),
    ("core.avail_k", "count"),
    ("core.cohort_size", "count"),
    ("core.iterations", "count"),
    ("core.spent_frac", "ratio"),
    ("sim.realize_ms", "ms"),
    ("sim.train_ms", "ms"),
    ("sim.aggregate_ms", "ms"),
    ("sim.sim_s_to_target", "s"),
    ("ml.local_train_ms", "ms"),
    ("ml.evaluate_ms", "ms"),
    ("ml.client_iters", "count"),
    ("ml.final_accuracy", "ratio"),
    ("serve.select_busy_ms", "ms"),
    ("serve.train_busy_ms", "ms"),
    ("serve.client_train_ms", "ms"),
    ("serve.wire_ms", "ms"),
    ("serve.encode_us", "us"),
    ("serve.decode_us", "us"),
    ("serve.bytes_per_epoch", "B"),
    ("dist.context_ms", "ms"),
    ("dist.train_ms", "ms"),
    ("dist.coordinator_ms", "ms"),
    ("dist.merge_ms", "ms"),
    ("dist.worker_context_ms", "ms"),
    ("dist.worker_train_ms", "ms"),
    ("dist.wire_ms", "ms"),
    ("dist.shard_skew", "ratio"),
    ("dist.encode_ms", "ms"),
    ("dist.decode_ms", "ms"),
    ("dist.bytes_per_epoch", "B"),
    ("telemetry.overhead_pct", "%"),
    ("ledger.epoch_ms", "ms"),
    ("ledger.coverage_pct", "%"),
];

/// The nine end-to-end figures of one workload run.
#[derive(Debug, Clone, Copy, Default)]
pub struct EndToEnd {
    /// Median set-up seconds over the run's repeated set-ups.
    pub setup_s: f64,
    /// Wall seconds of the measured phase (train: one whole panel).
    pub run_s: f64,
    /// Completed epochs per second of `run_s`.
    pub epochs_per_s: f64,
    /// Epoch latency percentiles.
    pub epoch_ms: [f64; 2],
    /// Decision latency percentiles.
    pub decision_ms: [f64; 2],
    /// Process CPU per epoch over the measured phase.
    pub cpu_ms_per_epoch: f64,
    /// Peak resident memory.
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    fn values(&self) -> [f64; 9] {
        [
            self.setup_s,
            self.run_s,
            self.epochs_per_s,
            self.epoch_ms[0],
            self.epoch_ms[1],
            self.decision_ms[0],
            self.decision_ms[1],
            self.cpu_ms_per_epoch,
            self.peak_rss_mb,
        ]
    }
}

/// A traced epoch broken into its layers' self times: printed as a
/// table with each layer's share and the coverage line (the sum of the
/// layers against the epoch total, so unattributed time is visible).
#[derive(Debug, Default)]
pub struct Ledger {
    rows: Vec<(&'static str, f64)>,
}

impl Ledger {
    /// Adds a layer's mean self time per epoch.
    pub fn row(&mut self, layer: &'static str, ms_per_epoch: f64) {
        self.rows.push((layer, ms_per_epoch));
    }

    /// Sum of the layers as a percentage of `epoch_ms`.
    pub fn coverage_pct(&self, epoch_ms: f64) -> f64 {
        self.rows.iter().map(|r| r.1).sum::<f64>() / epoch_ms * 100.0
    }

    /// The table, rows ranked by cost, then the coverage line.
    pub fn render(&self, workload: &str, epoch_ms: f64) -> Vec<String> {
        let mut rows = self.rows.clone();
        rows.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite layer times"));
        let mut out = vec![format!("ledger {workload}: traced epoch {epoch_ms:.3} ms (mean)")];
        for (layer, ms) in rows {
            out.push(format!("  {layer:<24} {ms:>12.4} ms {:>7.2}%", ms / epoch_ms * 100.0));
        }
        out.push(format!(
            "  coverage: layers sum to {:.3} of {epoch_ms:.3} ms = {:.1}%",
            self.rows.iter().map(|r| r.1).sum::<f64>(),
            self.coverage_pct(epoch_ms)
        ));
        out
    }
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Epochs attempted (one operation = one epoch).
    pub attempted: usize,
    /// Epochs that errored, were refused or failed an output check.
    pub failed: usize,
    /// End-to-end figures, always from untraced phases.
    pub end_to_end: EndToEnd,
    /// Per-layer figures (traced runs only); unset layers report 0.
    pub layers: BTreeMap<&'static str, f64>,
    /// Human-readable lines (ledger, series, check failures) printed
    /// before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Sets a per-layer metric; the name must be one of [`PER_LAYER`].
    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "unlisted layer metric {name}");
        self.layers.insert(name, value);
    }

    /// Counts a failed epoch with the reason.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.notes.push(format!("check failed: {why}"));
    }

    /// The `(name, value, unit)` triples the result line carries.
    pub fn metrics(&self, trace: bool) -> Vec<(&'static str, f64, &'static str)> {
        if trace {
            PER_LAYER
                .iter()
                .map(|&(name, unit)| (name, self.layers.get(name).copied().unwrap_or(0.0), unit))
                .collect()
        } else {
            END_TO_END
                .iter()
                .zip(self.end_to_end.values())
                .map(|(&(name, unit), value)| (name, value, unit))
                .collect()
        }
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`. A non-finite figure is a failed check
    /// (JSON cannot carry it), reported as 0 and marking the run
    /// incorrect.
    pub fn json_line(&self, trace: bool) -> String {
        let mut correct = self.failed == 0 && self.attempted > 0;
        let metrics: Vec<String> = self
            .metrics(trace)
            .into_iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() {
                    value
                } else {
                    correct = false;
                    0.0
                };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> =
            END_TO_END.iter().chain(PER_LAYER.iter()).map(|(n, _)| *n).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name");
        for name in names {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.'));
        }
    }

    #[test]
    fn result_line_carries_every_metric_and_flags_non_finite_values() {
        let mut o = Outcome { attempted: 3, ..Default::default() };
        o.end_to_end.run_s = 1.5;
        let line = o.json_line(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        for (name, unit) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\": {{\"value\": ")), "{name}");
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
        }
        o.end_to_end.setup_s = f64::NAN;
        assert!(o.json_line(false).starts_with("{\"correct\": false"));
        assert!(o.json_line(true).contains("\"ledger.coverage_pct\": {\"value\": 0.0"));
    }
}
