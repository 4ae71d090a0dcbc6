//! Concurrency × estimation integration: traces from the multi-query
//! scheduler must flow through the estimator / feature / selection stack
//! unchanged, and live monitoring must neither perturb execution nor
//! behave nondeterministically.

use prosel::core::pipeline_runs::{collect_from_workload, records_from_run, CollectConfig};
use prosel::core::selection::{EstimatorSelector, SelectorConfig};
use prosel::core::training::TrainingSet;
use prosel::engine::{
    run_concurrent, run_concurrent_tapped, Catalog, ConcurrentConfig, ExecConfig, ManualClock,
    QueryRun, TraceEvent,
};
use prosel::estimators::{EstimatorKind, IncrementalObs};
use prosel::mart::BoostParams;
use prosel::monitor::{MonitorBuilder, MonitorConfig, SwitchEvent};
use prosel::planner::workload::{materialize, WorkloadKind, WorkloadSpec};
use prosel::planner::PlanBuilder;

#[test]
fn concurrent_traces_feed_the_full_stack() {
    let spec = WorkloadSpec::new(WorkloadKind::TpchLike, 808).with_queries(18);
    let w = materialize(&spec);
    let catalog = Catalog::new(&w.db, &w.design);
    let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
    let plans: Vec<_> = w.queries.iter().map(|q| builder.build(q).expect("plan")).collect();

    let mut records = Vec::new();
    for (gi, group) in plans.chunks(3).enumerate() {
        let runs = run_concurrent(
            &catalog,
            group,
            &ConcurrentConfig {
                exec: ExecConfig { seed: gi as u64, ..ExecConfig::default() },
                ..Default::default()
            },
        );
        for (qi, run) in runs.iter().enumerate() {
            // Estimator curves stay probabilities on concurrent traces.
            let ctx = prosel::estimators::TraceCtx::new(run);
            for pid in 0..run.pipelines.len() {
                if let Some(obs) = IncrementalObs::with_ctx(run, pid, &ctx) {
                    for kind in EstimatorKind::CANDIDATES {
                        for &v in obs.curve(kind).iter() {
                            assert!((0.0..=1.0).contains(&v), "{kind}: {v}");
                        }
                    }
                }
            }
            records_from_run(run, "concurrent", gi * 3 + qi, 5, &mut records);
        }
    }
    assert!(records.len() >= 18, "got {} records", records.len());

    // A selector trains and evaluates on concurrent data end to end.
    let ts = TrainingSet::from_records(&records);
    let cfg = SelectorConfig::default()
        .with_boost(BoostParams { iterations: 40, ..BoostParams::default() });
    let selector = EstimatorSelector::train(&ts, &cfg);
    let report = selector.evaluate(&ts);
    assert!(report.chosen_l1.is_finite() && report.chosen_l1 < 0.5);
    assert!(report.pct_optimal > 0.2);
}

/// Traces must be byte-for-byte identical: every counter of every
/// snapshot, the windows, and the totals.
fn assert_runs_identical(a: &[QueryRun], b: &[QueryRun], label: &str) {
    assert_eq!(a.len(), b.len());
    for (qi, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.result_rows, y.result_rows, "{label}: q{qi} result rows");
        assert_eq!(
            x.trace.total_time.to_bits(),
            y.trace.total_time.to_bits(),
            "{label}: q{qi} total time"
        );
        assert_eq!(x.trace.final_k, y.trace.final_k, "{label}: q{qi} final K");
        assert_eq!(
            x.trace.final_materialized, y.trace.final_materialized,
            "{label}: q{qi} materialized"
        );
        assert_eq!(x.trace.pipeline_windows, y.trace.pipeline_windows, "{label}: q{qi} windows");
        assert_eq!(
            x.trace.snapshots, y.trace.snapshots,
            "{label}: q{qi} snapshot-by-snapshot trace"
        );
    }
}

#[test]
fn monitored_concurrent_execution_is_deterministic_and_nonintrusive() {
    // Train a small selector so the determinism claim covers online
    // re-selection decisions, not just the raw streams.
    let spec = WorkloadSpec::new(WorkloadKind::TpchLike, 1212).with_queries(16).with_scale(0.5);
    let w = materialize(&spec);
    let records = collect_from_workload(&w, &CollectConfig::default()).expect("records");
    let selector_text = EstimatorSelector::train(
        &TrainingSet::from_records(&records),
        &SelectorConfig::default().with_boost(BoostParams::fast()),
    )
    .to_text();

    let catalog = Catalog::new(&w.db, &w.design);
    let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
    let plans: Vec<_> = w.queries.iter().take(5).map(|q| builder.build(q).expect("plan")).collect();
    // A fresh manual wall clock per run makes the event streams (wall
    // stamps included) byte-comparable across runs; execution itself
    // never reads it.
    let make_cfg = || ConcurrentConfig {
        exec: ExecConfig {
            wall_clock: std::sync::Arc::new(ManualClock::stepping(0.0, 1e-3)),
            ..ExecConfig::default()
        },
        ..ConcurrentConfig::default()
    };
    let cfg = make_cfg();

    let run_monitored = || -> (Vec<QueryRun>, Vec<TraceEvent>, Vec<Vec<SwitchEvent>>, Vec<f64>) {
        let cfg = make_cfg();
        let selector = EstimatorSelector::from_text(&selector_text).expect("selector");
        let mut monitor = MonitorBuilder::with_selector(selector)
            .config(MonitorConfig { reselect_every: 3, ..MonitorConfig::default() })
            .build_monitor()
            .expect("build");
        for (qi, plan) in plans.iter().enumerate() {
            monitor.register(qi, plan);
        }
        let (tap, rx) = std::sync::mpsc::channel();
        let runs = run_concurrent_tapped(&catalog, &plans, &cfg, tap);
        let mut events = Vec::new();
        while let Ok(ev) = rx.try_recv() {
            events.push(ev.clone());
            monitor.ingest(ev);
        }
        let switches: Vec<Vec<SwitchEvent>> = (0..plans.len())
            .map(|qi| monitor.switch_history(qi).expect("registered").to_vec())
            .collect();
        let progress: Vec<f64> =
            (0..plans.len()).map(|qi| monitor.query_progress(qi).expect("registered")).collect();
        (runs, events, switches, progress)
    };

    let (runs_a, events_a, switches_a, progress_a) = run_monitored();
    let (runs_b, events_b, switches_b, progress_b) = run_monitored();

    // Byte-for-byte determinism across runs: traces, the interleaved
    // snapshot stream, and the selector's online decisions.
    assert_runs_identical(&runs_a, &runs_b, "monitored-vs-monitored");
    assert_eq!(events_a.len(), events_b.len(), "event stream lengths differ");
    for (i, (x, y)) in events_a.iter().zip(&events_b).enumerate() {
        assert_eq!(x, y, "event {i} differs between identical monitored runs");
    }
    assert_eq!(switches_a, switches_b, "selector decisions differ across runs");
    assert_eq!(progress_a, progress_b);
    for p in &progress_a {
        assert_eq!(*p, 1.0, "finished queries must pin to exactly 1.0");
    }

    // And attaching the monitor must not have perturbed execution at all.
    let runs_plain = run_concurrent(&catalog, &plans, &cfg);
    assert_runs_identical(&runs_a, &runs_plain, "monitored-vs-unmonitored");
}

#[test]
fn shared_clock_orders_query_completions() {
    let spec = WorkloadSpec::new(WorkloadKind::TpcdsLike, 909).with_queries(4);
    let w = materialize(&spec);
    let catalog = Catalog::new(&w.db, &w.design);
    let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
    let plans: Vec<_> = w.queries.iter().map(|q| builder.build(q).expect("plan")).collect();
    let runs = run_concurrent(&catalog, &plans, &ConcurrentConfig::default());
    // All traces live on one shared axis: every pipeline window must fall
    // within the workload makespan.
    let makespan = runs.iter().map(|r| r.trace.total_time).fold(0.0, f64::max);
    for run in &runs {
        for &(a, b) in &run.trace.pipeline_windows {
            if a.is_finite() {
                assert!(a >= 0.0 && b <= makespan + 1e-6);
            }
        }
    }
}
