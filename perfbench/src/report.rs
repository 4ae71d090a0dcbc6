//! What a run prints: the human-readable tables and the final JSON line.

use std::fmt::Write as _;

/// The end-to-end metrics every workload reports with `--trace 0`, as
/// `(name, unit)`. Each workload gives them its own user-facing meaning
/// (see `perfbench/README.md`): the latency is flood burst visibility
/// (per 1,000 events) on `ingest-open`, read latency on `read-zipf` and
/// selection latency on `train-select`; the throughput is flood ingest
/// events/s, reads/s and queries through the whole train-and-select
/// round per second.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_p50_us", "us"),
    ("throughput_per_s", "1/s"),
];

/// The per-layer metrics every workload reports with `--trace 1`, as
/// `(name, unit)`. A layer a workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("engine.run_plan_ms.p50", "ms"),
    ("engine.run_plan_ms.p99", "ms"),
    ("planner.materialize_s", "s"),
    ("engine.tap_bytes_per_event", "B"),
    ("engine.delta_share", "ratio"),
    ("engine.delta_decode_ns", "ns"),
    ("estimators.bounds_ns", "ns"),
    ("estimators.offer_ns", "ns"),
    ("estimators.trace_eval_ms", "ms"),
    ("core.features_us", "us"),
    ("mart.train_s", "s"),
    ("mart.select_ns", "ns"),
    ("learn.retrain_ms", "ms"),
    ("learn.absorb_us", "us"),
    ("monitor.shard.ingest_ns.p50", "ns"),
    ("monitor.shard.ingest_ns.p99", "ns"),
    ("monitor.router.send_ns", "ns"),
    ("monitor.runtime.wait_us", "us"),
    ("monitor.runtime.steals", "count"),
    ("monitor.runtime.parks", "count"),
    ("monitor.runtime.queue_depth_peak", "count"),
    ("monitor.service.quiesce_us", "us"),
    ("monitor.service.read_ns.progress.p50", "ns"),
    ("monitor.service.read_ns.progress.p99", "ns"),
    ("monitor.service.read_ns.remaining.p50", "ns"),
    ("monitor.service.read_ns.remaining.p99", "ns"),
    ("monitor.service.read_ns.deadline.p50", "ns"),
    ("monitor.service.read_ns.deadline.p99", "ns"),
    ("monitor.service.read_ns.status.p50", "ns"),
    ("monitor.service.read_ns.status.p99", "ns"),
    ("monitor.service.register_us", "us"),
    ("monitor.service.unregister_us", "us"),
    ("obs.scrape_us", "us"),
    ("gen.late_p99_us", "us"),
    ("trace.overhead_pct", "%"),
    ("trace.unexplained_pct", "%"),
];

/// Upper bounds the traced `ingest-open` budget must meet: the share of
/// freshness p50 the stage self times leave unexplained, and the
/// freshness p50 cost of tracing itself, both in percent.
pub const UNEXPLAINED_PCT_BOUND: f64 = 25.0;
pub const OVERHEAD_PCT_BOUND: f64 = 25.0;

/// Counted correctness checks; every failure is one failed operation.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the log.
    pub messages: Vec<String>,
}

impl Checks {
    /// Count one operation or check; `ok == false` counts it as failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Count one failed operation.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.messages.len() < 20 {
            self.messages.push(msg);
        }
    }

    /// Fold another thread's checks into these.
    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for m in other.messages {
            if self.messages.len() < 20 {
                self.messages.push(m);
            }
        }
    }
}

/// One named value with its unit and the number of samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// Everything one workload run reports.
#[derive(Debug, Default)]
pub struct Report {
    pub workload: String,
    pub checks: Checks,
    /// The gated end-to-end metrics (names from [`END_TO_END`]).
    pub end_to_end: Vec<Metric>,
    /// The workload's own metrics (`freshness_p50_us`, `heldout_l1`, …),
    /// printed in the table but not gated.
    pub named: Vec<Metric>,
    /// Per-layer metrics (names from [`PER_LAYER`]); traced runs only.
    pub layers: Vec<Metric>,
    /// Free-form lines printed under the tables (budget reconciliation).
    pub notes: Vec<String>,
}

impl Report {
    pub fn new(workload: &str) -> Report {
        Report { workload: workload.to_string(), ..Report::default() }
    }

    pub fn e2e(&mut self, name: &str, value: f64, samples: usize) {
        let unit = unit_of(END_TO_END, name);
        self.end_to_end.push(Metric { name: name.into(), value, unit, samples });
    }

    pub fn named(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.named.push(Metric { name: name.into(), value, unit, samples });
    }

    pub fn layer(&mut self, name: &str, value: f64, samples: usize) {
        let unit = unit_of(PER_LAYER, name);
        self.layers.push(Metric { name: name.into(), value, unit, samples });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .chain(&self.named)
            .chain(&self.layers)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The human-readable block: every metric with its unit and sample
    /// count, then the notes and failure messages.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== workload {} ==", self.workload);
        let section = |out: &mut String, title: &str, ms: &[Metric]| {
            if ms.is_empty() {
                return;
            }
            let _ = writeln!(out, "-- {title}");
            for m in ms {
                let _ = writeln!(
                    out,
                    "  {:<40} {:>16.4} {:<6} (n={})",
                    m.name, m.value, m.unit, m.samples
                );
            }
        };
        section(&mut out, "end-to-end", &self.end_to_end);
        section(&mut out, "workload metrics", &self.named);
        section(&mut out, "per-layer (traced run)", &self.layers);
        for n in &self.notes {
            let _ = writeln!(out, "{n}");
        }
        let _ = writeln!(
            out,
            "checks: {} attempted, {} failed (failed_frac {:.6})",
            self.checks.attempted,
            self.checks.failed,
            self.failed_frac()
        );
        for m in &self.checks.messages {
            let _ = writeln!(out, "  FAILED: {m}");
        }
        out
    }

    pub fn failed_frac(&self) -> f64 {
        self.checks.failed as f64 / self.checks.attempted.max(1) as f64
    }

    /// The final JSON line: the end-to-end metrics untraced, every
    /// per-layer metric traced (0 for a layer the workload never calls).
    /// A missing end-to-end metric, or a non-finite value (which JSON
    /// cannot carry), is reported as 0 and counted as a failed check.
    pub fn json(&mut self, traced: bool) -> String {
        let (spec, have) =
            if traced { (PER_LAYER, &self.layers) } else { (END_TO_END, &self.end_to_end) };
        let mut body = String::new();
        let mut bad = Vec::new();
        for (i, (name, unit)) in spec.iter().enumerate() {
            let value = match have.iter().find(|m| m.name == *name) {
                Some(m) if m.value.is_finite() => m.value,
                Some(_) => {
                    bad.push(format!("metric {name} is not finite"));
                    0.0
                }
                None if traced => 0.0,
                None => {
                    bad.push(format!("metric {name} was not measured"));
                    0.0
                }
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(body, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
        }
        for b in bad {
            self.checks.fail(b);
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.checks.failed == 0,
            self.checks.attempted.max(1),
            self.checks.failed
        )
    }
}

fn unit_of(spec: &[(&str, &'static str)], name: &str) -> &'static str {
    spec.iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name} is not declared"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lists_every_declared_metric_and_zero_fills_absent_layers() {
        let mut r = Report::new("w");
        r.e2e("setup_s", 0.5, 3);
        r.checks.check(true, String::new);
        let line = r.json(false);
        for (name, _) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\"")), "{line}");
        }
        // An absent end-to-end metric fails the run.
        assert!(line.starts_with("{\"correct\": false"), "{line}");
        let mut r = Report::new("w");
        let line = r.json(true);
        for (name, _) in PER_LAYER {
            assert!(line.contains(&format!("\"{name}\"")), "{line}");
        }
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"), "{line}");
    }

    #[test]
    fn non_finite_values_fail_the_run() {
        let mut r = Report::new("w");
        for (name, _) in END_TO_END {
            r.e2e(name, 1.0, 1);
        }
        r.end_to_end[0].value = f64::NAN;
        let line = r.json(false);
        assert!(line.contains("\"correct\": false"), "{line}");
        assert_eq!(r.checks.failed, 1);
    }
}
