//! The benchmark's own tests: tiny runs of every workload finish with no
//! failed check, `heldout_l1` repeats across runs of one seed, and the
//! metric names agree with `BENCHMARK.json`. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use prosel_perfbench::report::{END_TO_END, PER_LAYER};
use prosel_perfbench::{run, Params, WORKLOADS};

fn tiny(seed: u64, trace: bool) -> Params {
    Params { seed, seconds: 1.0, trace, tiny: true, span_dir: None }
}

#[test]
fn every_workload_runs_clean_and_reports_every_end_to_end_metric() {
    for w in WORKLOADS {
        let mut report = run(w, &tiny(7, false)).expect("known workload");
        let line = report.json(false);
        assert_eq!(report.checks.failed, 0, "{w}: {:?}", report.checks.messages);
        assert!(report.checks.attempted > 0, "{w} counted no operations");
        for (name, _) in END_TO_END {
            let v = report.get(name).unwrap_or_else(|| panic!("{w} lacks {name}"));
            assert!(v.is_finite() && v > 0.0, "{w} {name} = {v}");
        }
        assert!(line.starts_with("{\"correct\": true"), "{w}: {line}");
    }
}

#[test]
fn traced_runs_report_the_layers_their_workload_calls() {
    let expect: [(&str, &[&str]); 3] = [
        (
            "ingest-open",
            &[
                "monitor.shard.ingest_ns.p50",
                "engine.delta_decode_ns",
                "estimators.bounds_ns",
                "estimators.offer_ns",
                "monitor.router.send_ns",
                "monitor.service.quiesce_us",
                "engine.tap_bytes_per_event",
            ],
        ),
        (
            "read-zipf",
            &[
                "monitor.service.read_ns.progress.p50",
                "monitor.service.read_ns.status.p99",
                "monitor.service.register_us",
                "monitor.service.unregister_us",
                "mart.select_ns",
            ],
        ),
        (
            "train-select",
            &[
                "engine.run_plan_ms.p50",
                "estimators.trace_eval_ms",
                "mart.train_s",
                "learn.retrain_ms",
            ],
        ),
    ];
    for (w, layers) in expect {
        let mut report = run(w, &tiny(3, true)).expect("known workload");
        assert_eq!(report.checks.failed, 0, "{w}: {:?}", report.checks.messages);
        for layer in layers {
            let v = report.get(layer).unwrap_or_else(|| panic!("{w} lacks {layer}"));
            assert!(v.is_finite() && v > 0.0, "{w} {layer} = {v}");
        }
        let line = report.json(true);
        for (name, _) in PER_LAYER {
            assert!(line.contains(&format!("\"{name}\"")), "{w} traced line lacks {name}");
        }
    }
}

#[test]
fn heldout_l1_repeats_across_runs_of_one_seed() {
    let a = run("train-select", &tiny(11, false)).expect("known workload");
    let b = run("train-select", &tiny(11, false)).expect("known workload");
    let (a, b) = (a.get("heldout_l1").unwrap(), b.get("heldout_l1").unwrap());
    assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
}

#[test]
fn metric_names_and_units_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let compact: String = json.split_whitespace().collect();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"");
        assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(compact.matches("\"unit\":").count(), END_TO_END.len() + PER_LAYER.len());
    for w in WORKLOADS {
        assert!(
            compact.contains(&format!("{{\"name\":\"{w}\",\"why\":")),
            "BENCHMARK.json lacks {w}"
        );
    }
}
