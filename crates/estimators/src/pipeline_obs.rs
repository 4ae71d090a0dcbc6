//! Offline progress curves of a finished run.
//!
//! There is one curve engine, [`IncrementalObs`]: an offline curve is a
//! replay of the run's trace through it ([`IncrementalObs::with_ctx`]), so
//! training labels, experiments and query curves are the same function of
//! the same counters as the curves the live monitor serves.
//! [`PipelineObs`] names that replayed state for offline callers.

use crate::incremental::IncrementalObs;

/// A pipeline's observation state replayed from a finished run.
pub type PipelineObs<'a> = IncrementalObs;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kinds::EstimatorKind;
    use prosel_datagen::schema::{ColumnMeta, ColumnRole, TableMeta};
    use prosel_datagen::{Column, Database, PhysicalDesign, Table, TuningLevel};
    use prosel_engine::plan::{CmpOp, OperatorKind, PhysicalPlan, PlanNode, Predicate};
    use prosel_engine::{run_plan, Catalog, CostModel, ExecConfig, QueryRun};

    fn db_with_rows(n: usize) -> Database {
        let mut db = Database::new("d");
        let meta = TableMeta::new(
            "t",
            64,
            vec![
                ColumnMeta::new("a", ColumnRole::PrimaryKey),
                ColumnMeta::new("b", ColumnRole::Value { min: 0, max: 9 }),
            ],
        );
        db.add(Table::new(
            meta,
            vec![
                Column { name: "a".into(), data: (1..=n as i64).collect() },
                Column { name: "b".into(), data: (0..n as i64).map(|x| x % 10).collect() },
            ],
        ));
        db
    }

    fn node(op: OperatorKind, children: Vec<usize>, est: f64, cols: usize) -> PlanNode {
        PlanNode { op, children, est_rows: est, est_row_bytes: 8.0 * cols as f64, out_cols: cols }
    }

    fn run_scan_filter(est_filter: f64) -> QueryRun {
        let db = db_with_rows(2000);
        let design = PhysicalDesign::derive(&db, TuningLevel::Untuned);
        let cat = Catalog::new(&db, &design);
        let plan = PhysicalPlan {
            nodes: vec![
                node(
                    OperatorKind::TableScan { table: "t".into(), cols: vec![0, 1] },
                    vec![],
                    2000.0,
                    2,
                ),
                node(
                    OperatorKind::Filter {
                        pred: Predicate::ColCmp { col: 1, op: CmpOp::Lt, val: 5 },
                    },
                    vec![0],
                    est_filter,
                    2,
                ),
            ],
            root: 1,
        };
        run_plan(
            &cat,
            &plan,
            &ExecConfig {
                cost: CostModel::deterministic(),
                initial_snapshot_interval: 50.0,
                ..ExecConfig::default()
            },
        )
    }

    #[test]
    fn curves_are_probabilities_and_end_near_one() {
        let run = run_scan_filter(1000.0);
        let p = PipelineObs::replay(&run, 0).expect("observations");
        for kind in EstimatorKind::CANDIDATES {
            let c = p.curve(kind);
            assert_eq!(c.len(), p.len());
            for &v in c.iter() {
                assert!((0.0..=1.0).contains(&v), "{kind}: {v}");
            }
        }
        // DNE and the oracle must end at 1 (all driver input consumed).
        let dne = p.curve(EstimatorKind::Dne);
        assert!((dne.last().unwrap() - 1.0).abs() < 1e-9);
        let oracle = p.curve(EstimatorKind::GetNextOracle);
        assert!((oracle.last().unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dne_accurate_when_work_uniform() {
        let run = run_scan_filter(1000.0);
        let p = PipelineObs::replay(&run, 0).unwrap();
        let dne = p.curve(EstimatorKind::Dne);
        let truth = p.truth();
        let l1: f64 =
            dne.iter().zip(&truth).map(|(a, b)| (a - b).abs()).sum::<f64>() / dne.len() as f64;
        assert!(l1 < 0.05, "uniform scan should be easy for DNE, l1={l1}");
    }

    #[test]
    fn tgn_hurt_by_bad_estimate_dne_immune() {
        // Optimizer thinks the filter passes 10 rows; truth is ~1000.
        let run = run_scan_filter(10.0);
        let p = PipelineObs::replay(&run, 0).unwrap();
        let truth = p.truth();
        let l1 = |c: &[f64]| -> f64 {
            c.iter().zip(&truth).map(|(a, b)| (a - b).abs()).sum::<f64>() / c.len() as f64
        };
        let tgn = l1(&p.curve(EstimatorKind::Tgn));
        let dne = l1(&p.curve(EstimatorKind::Dne));
        assert!(
            tgn > dne + 0.05,
            "TGN should suffer from the cardinality error: tgn={tgn} dne={dne}"
        );
    }

    #[test]
    fn oracle_is_best_in_class() {
        let run = run_scan_filter(10.0);
        let p = PipelineObs::replay(&run, 0).unwrap();
        let truth = p.truth();
        let l1 = |c: &[f64]| -> f64 {
            c.iter().zip(&truth).map(|(a, b)| (a - b).abs()).sum::<f64>() / c.len() as f64
        };
        let oracle = l1(&p.curve(EstimatorKind::GetNextOracle));
        for kind in [EstimatorKind::Tgn, EstimatorKind::Pmax, EstimatorKind::Safe] {
            assert!(oracle <= l1(&p.curve(kind)) + 1e-9, "oracle should beat {kind}");
        }
        assert!(oracle < 0.05, "oracle l1={oracle}");
    }

    #[test]
    fn pmax_is_most_pessimistic() {
        let run = run_scan_filter(1000.0);
        let p = PipelineObs::replay(&run, 0).unwrap();
        let pmax = p.curve(EstimatorKind::Pmax);
        let safe = p.curve(EstimatorKind::Safe);
        for (a, b) in pmax.iter().zip(safe.iter()) {
            assert!(a <= b, "PMAX must lower-bound SAFE");
        }
    }

    #[test]
    fn missing_pipeline_returns_none() {
        let run = run_scan_filter(1000.0);
        assert!(PipelineObs::replay(&run, 0).is_some());
        assert_eq!(run.pipelines.len(), 1);
    }
}
