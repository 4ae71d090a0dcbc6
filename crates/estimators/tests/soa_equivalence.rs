//! The struct-of-arrays hot paths ([`prosel_estimators::soa`]) are
//! refactorings, not approximations: on real workload executions every
//! estimator curve and every refinement bound must match the pinned scalar
//! reference walks **bitwise**, across all 11 estimator kinds.

use prosel_engine::{run_plan, Catalog, ExecConfig};
use prosel_estimators::refine::bounds;
use prosel_estimators::soa::BoundsKernel;
use prosel_estimators::{EstimatorKind, IncrementalObs, SnapshotCtx, ONLINE_KINDS};
use prosel_planner::workload::{materialize, WorkloadKind, WorkloadSpec};
use prosel_planner::PlanBuilder;
use std::sync::Arc;

/// All 11 kinds: the 9 online-maintained curves plus the two post-finalize
/// oracles.
fn all_kinds() -> Vec<EstimatorKind> {
    let mut kinds = ONLINE_KINDS.to_vec();
    kinds.push(EstimatorKind::GetNextOracle);
    kinds.push(EstimatorKind::BytesOracle);
    assert_eq!(kinds.len(), 11);
    kinds
}

#[test]
fn soa_and_scalar_paths_are_bit_identical_on_real_workloads() {
    let mut pipelines_checked = 0usize;
    for (kind, queries) in [(WorkloadKind::TpchLike, 14), (WorkloadKind::TpcdsLike, 8)] {
        let spec = WorkloadSpec::new(kind, 4321).with_queries(queries).with_scale(0.6);
        let w = materialize(&spec);
        let catalog = Catalog::new(&w.db, &w.design);
        let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
        for (qi, q) in w.queries.iter().enumerate() {
            let plan = builder.build(q).expect("plan");
            let run = run_plan(
                &catalog,
                &plan,
                &ExecConfig { seed: 0x50A ^ qi as u64, ..ExecConfig::default() },
            );
            let plan = Arc::new(run.plan.clone());
            let kernel = BoundsKernel::new(&plan);
            let mut soa_ctx = SnapshotCtx::empty();
            for pid in 0..run.pipelines.len() {
                let mut soa = IncrementalObs::new(Arc::clone(&plan), &run.pipelines[pid]);
                let mut scalar = IncrementalObs::new(Arc::clone(&plan), &run.pipelines[pid]);
                let (start, end) = run.trace.pipeline_windows[pid];
                for (j, snap) in run.trace.snapshots.iter().enumerate() {
                    let window = (start, end.min(snap.time));
                    // SoA path: compiled kernel + columnar per-pipeline walk.
                    soa_ctx.recompute(&kernel, &snap.k);
                    soa.offer_view(j as u64, snap.as_view(), window, &soa_ctx);
                    // Reference path: scalar bound pass + scalar walk.
                    let ctx = SnapshotCtx::new(&plan, snap);
                    scalar.offer_shared_scalar(j as u64, snap, window, &ctx);
                }
                soa.finalize((start, end));
                scalar.finalize((start, end));
                assert_eq!(soa.len(), scalar.len());
                if soa.is_empty() {
                    continue;
                }
                pipelines_checked += 1;
                for k in all_kinds() {
                    let (a, b) = (soa.curve(k), scalar.curve(k));
                    assert_eq!(a.len(), b.len(), "{k} curve length, pid {pid}");
                    for (j, (x, y)) in a.iter().zip(b.iter()).enumerate() {
                        assert_eq!(
                            x.to_bits(),
                            y.to_bits(),
                            "{k} diverges at obs {j} of pipeline {pid} (soa {x}, scalar {y})"
                        );
                    }
                }
            }
        }
    }
    assert!(pipelines_checked > 30, "only {pipelines_checked} pipelines exercised");
}

#[test]
fn bounds_kernel_matches_scalar_bounds_bitwise() {
    let spec = WorkloadSpec::new(WorkloadKind::Real1, 77).with_queries(10).with_scale(0.6);
    let w = materialize(&spec);
    let catalog = Catalog::new(&w.db, &w.design);
    let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
    let mut snapshots_checked = 0usize;
    for (qi, q) in w.queries.iter().enumerate() {
        let plan = builder.build(q).expect("plan");
        let run =
            run_plan(&catalog, &plan, &ExecConfig { seed: qi as u64, ..ExecConfig::default() });
        let kernel = BoundsKernel::new(&run.plan);
        assert_eq!(kernel.width(), run.plan.len());
        let (mut lb, mut ub) = (Vec::new(), Vec::new());
        for snap in &run.trace.snapshots {
            kernel.eval_into(&snap.k, &mut lb, &mut ub);
            let (slb, sub) = bounds(&run.plan, &snap.k);
            for i in 0..run.plan.len() {
                assert_eq!(lb[i].to_bits(), slb[i].to_bits(), "lb[{i}]");
                assert_eq!(ub[i].to_bits(), sub[i].to_bits(), "ub[{i}]");
            }
            snapshots_checked += 1;
        }
    }
    assert!(snapshots_checked > 50, "only {snapshots_checked} snapshots exercised");
}
