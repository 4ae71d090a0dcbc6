//! Identities the paper relies on (§6.6): the specialized estimators
//! coincide with DNE exactly when their target operators are absent —
//! which is why DNE almost never *significantly* outperforms in Table 8.

use prosel_engine::{run_plan, Catalog, ExecConfig};
use prosel_estimators::{EstimatorKind, IncrementalObs, TraceCtx};
use prosel_planner::workload::{materialize, WorkloadKind, WorkloadSpec};
use prosel_planner::PlanBuilder;

#[test]
fn specialized_estimators_collapse_to_dne_without_their_operators() {
    let spec = WorkloadSpec::new(WorkloadKind::TpchLike, 31415).with_queries(40);
    let w = materialize(&spec);
    let catalog = Catalog::new(&w.db, &w.design);
    let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
    let mut plain = 0usize;
    let mut with_batch = 0usize;
    let mut with_seek = 0usize;
    for (qi, q) in w.queries.iter().enumerate() {
        let plan = builder.build(q).expect("plan");
        let run =
            run_plan(&catalog, &plan, &ExecConfig { seed: qi as u64, ..ExecConfig::default() });
        let ctx = TraceCtx::new(&run);
        for (pid, p) in run.pipelines.iter().enumerate() {
            let Some(obs) = IncrementalObs::with_ctx(&run, pid, &ctx) else { continue };
            let dne = obs.curve(EstimatorKind::Dne);
            let batch = obs.curve(EstimatorKind::BatchDne);
            let seek = obs.curve(EstimatorKind::DneSeek);
            if p.batch_sort_nodes.is_empty() {
                assert_eq!(dne, batch, "BATCHDNE must equal DNE without batch sorts");
            } else {
                with_batch += 1;
            }
            // DNESEEK only differs when seeks exist *outside* the driver
            // set (driver-set seeks are already part of DNE).
            let extra_seeks = p.index_seek_nodes.iter().any(|n| !p.driver_nodes.contains(n));
            if !extra_seeks {
                assert_eq!(dne, seek, "DNESEEK must equal DNE without non-driver seeks");
                plain += 1;
            } else {
                with_seek += 1;
            }
        }
    }
    // The workload must exercise both sides of the identity.
    assert!(plain > 10, "need plain pipelines, got {plain}");
    assert!(with_batch + with_seek > 3, "need specialized pipelines");
}

#[test]
fn estimators_at_completion_approach_one_for_driver_based_kinds() {
    let spec = WorkloadSpec::new(WorkloadKind::Real1, 2718).with_queries(25);
    let w = materialize(&spec);
    let catalog = Catalog::new(&w.db, &w.design);
    let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
    for (qi, q) in w.queries.iter().enumerate() {
        let plan = builder.build(q).expect("plan");
        let run =
            run_plan(&catalog, &plan, &ExecConfig { seed: qi as u64, ..ExecConfig::default() });
        let ctx = TraceCtx::new(&run);
        for (pid, p) in run.pipelines.iter().enumerate() {
            let Some(obs) = IncrementalObs::with_ctx(&run, pid, &ctx) else { continue };
            // Driver totals are exact for scans and materialized inputs;
            // when ALL drivers are of that kind, DNE must end at 1.0.
            let all_exact = p.driver_nodes.iter().all(|&d| {
                matches!(
                    run.plan.node(d).op,
                    prosel_engine::OperatorKind::TableScan { .. }
                        | prosel_engine::OperatorKind::IndexScan { .. }
                        | prosel_engine::OperatorKind::Sort { .. }
                        | prosel_engine::OperatorKind::HashAggregate { .. }
                )
            });
            // Early-terminated plans (TOP) may stop before consuming inputs.
            let has_top = run
                .plan
                .nodes
                .iter()
                .any(|n| matches!(n.op, prosel_engine::OperatorKind::Top { .. }));
            if all_exact && !has_top {
                let dne = obs.curve(EstimatorKind::Dne);
                let last = *dne.last().unwrap();
                assert!(
                    last > 0.999,
                    "query {qi} pipeline {pid}: DNE should finish at 1.0, got {last}"
                );
            }
        }
    }
}
