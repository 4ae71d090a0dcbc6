//! The harvest contract: records mined **online** from a tapped run (the
//! monitor's `Finished` hook) must be byte-identical — features and
//! labels, across every estimator kind — to what the offline
//! `pipeline_runs` extraction computes by replaying the completed trace of
//! the same execution.

use prosel::core::pipeline_runs::{records_from_run, PipelineRecord};
use prosel::engine::{
    run_concurrent_tapped, run_plan_tapped, Catalog, ConcurrentConfig, ExecConfig, QueryRun,
};
use prosel::estimators::kinds::EstimatorKind;
use prosel::monitor::{HarvestConfig, HarvestedQuery, MonitorBuilder};
use prosel::planner::workload::{materialize, WorkloadKind, WorkloadSpec};
use prosel::planner::PlanBuilder;
use std::sync::Arc;

const MIN_OBS: usize = 5;

/// Field-by-field bit equality of two records.
fn assert_records_identical(online: &PipelineRecord, batch: &PipelineRecord, label: &str) {
    assert_eq!(online.workload, batch.workload, "{label}: workload");
    assert_eq!(online.query_idx, batch.query_idx, "{label}: query_idx");
    assert_eq!(online.pipeline_id, batch.pipeline_id, "{label}: pipeline_id");
    assert_eq!(online.n_obs, batch.n_obs, "{label}: n_obs");
    assert_eq!(online.total_getnext, batch.total_getnext, "{label}: total_getnext");
    assert_eq!(online.fingerprint, batch.fingerprint, "{label}: fingerprint");
    assert_eq!(online.weight.to_bits(), batch.weight.to_bits(), "{label}: weight");
    assert_eq!(online.features.len(), batch.features.len(), "{label}: feature dims");
    for (i, (a, b)) in online.features.iter().zip(&batch.features).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{label}: feature {i}: online {a} vs batch {b}");
    }
    // Labels across every candidate estimator…
    assert_eq!(online.errors_l1.len(), EstimatorKind::CANDIDATES.len());
    for (i, kind) in EstimatorKind::CANDIDATES.into_iter().enumerate() {
        assert_eq!(
            online.errors_l1[i].to_bits(),
            batch.errors_l1[i].to_bits(),
            "{label}: L1({kind})"
        );
        assert_eq!(
            online.errors_l2[i].to_bits(),
            batch.errors_l2[i].to_bits(),
            "{label}: L2({kind})"
        );
    }
    // …and the two oracle models.
    for i in 0..2 {
        assert_eq!(online.oracle_l1[i].to_bits(), batch.oracle_l1[i].to_bits(), "{label}: oracle");
        assert_eq!(online.oracle_l2[i].to_bits(), batch.oracle_l2[i].to_bits(), "{label}: oracle");
    }
}

fn assert_harvest_matches_batch(
    harvests: &[HarvestedQuery],
    runs: &[(usize, &QueryRun)],
    label: &str,
) {
    let mut batch = Vec::new();
    for &(query, run) in runs {
        records_from_run(run, label, query, MIN_OBS, &mut batch);
    }
    let mut online: Vec<&PipelineRecord> = harvests.iter().flat_map(|h| &h.records).collect();
    online.sort_by_key(|r| (r.query_idx, r.pipeline_id));
    batch.sort_by_key(|r| (r.query_idx, r.pipeline_id));
    assert_eq!(online.len(), batch.len(), "{label}: record counts");
    assert!(!batch.is_empty(), "{label}: the workload must yield records");
    for (o, b) in online.iter().zip(&batch) {
        assert_records_identical(o, b, &format!("{label} q{} p{}", b.query_idx, b.pipeline_id));
    }
}

#[test]
fn sequential_harvest_is_byte_identical_to_batch_extraction() {
    for (kind, seed) in [(WorkloadKind::TpchLike, 0xA110u64), (WorkloadKind::TpcdsLike, 0xA111u64)]
    {
        let spec = WorkloadSpec::new(kind, seed).with_queries(10);
        let label = spec.label();
        let w = materialize(&spec);
        let catalog = Catalog::new(&w.db, &w.design);
        let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
        let (sink, harvest_rx) = std::sync::mpsc::channel();
        let mut monitor = MonitorBuilder::fixed(EstimatorKind::Dne)
            .harvester(
                Arc::new(sink),
                HarvestConfig { label: label.clone(), min_observations: MIN_OBS },
            )
            .build_monitor()
            .expect("build");
        let mut runs = Vec::new();
        for (qi, q) in w.queries.iter().enumerate() {
            let plan = builder.build(q).expect("plan");
            let (tap, events) = std::sync::mpsc::channel();
            monitor.register(qi, &plan);
            let cfg = ExecConfig { seed: seed ^ qi as u64, ..ExecConfig::default() };
            let run = run_plan_tapped(&catalog, &plan, &cfg, qi, tap);
            monitor.drain(&events);
            runs.push(run);
        }
        let harvests: Vec<HarvestedQuery> = harvest_rx.try_iter().collect();
        assert_eq!(harvests.len(), w.queries.len(), "{label}: one harvest per query");
        let runs_ref: Vec<(usize, &QueryRun)> = runs.iter().enumerate().collect();
        assert_harvest_matches_batch(&harvests, &runs_ref, &label);
    }
}

#[test]
fn concurrent_harvest_with_thinning_is_byte_identical_to_batch_extraction() {
    let spec = WorkloadSpec::new(WorkloadKind::TpchLike, 0xA112).with_queries(9);
    let label = spec.label();
    let w = materialize(&spec);
    let catalog = Catalog::new(&w.db, &w.design);
    let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
    let plans: Vec<_> = w.queries.iter().map(|q| builder.build(q).expect("plan")).collect();

    let (sink, harvest_rx) = std::sync::mpsc::channel();
    let mut monitor = MonitorBuilder::fixed(EstimatorKind::Dne)
        .harvester(
            Arc::new(sink),
            HarvestConfig { label: label.clone(), min_observations: MIN_OBS },
        )
        .build_monitor()
        .expect("build");
    for (qi, plan) in plans.iter().enumerate() {
        monitor.register(qi, plan);
    }
    let (tap, events) = std::sync::mpsc::channel();
    // A small trace buffer forces thinning events mid-stream, so the
    // harvest also exercises the buffer-mirror path.
    let cfg = ConcurrentConfig {
        exec: ExecConfig { seed: 0xA112, max_snapshots: 24, ..ExecConfig::default() },
        ..Default::default()
    };
    let runs = run_concurrent_tapped(&catalog, &plans, &cfg, tap);
    monitor.drain(&events);
    let harvests: Vec<HarvestedQuery> = harvest_rx.try_iter().collect();
    assert_eq!(harvests.len(), plans.len(), "one harvest per interleaved query");
    let runs_ref: Vec<(usize, &QueryRun)> = runs.iter().enumerate().collect();
    assert_harvest_matches_batch(&harvests, &runs_ref, &label);
}
