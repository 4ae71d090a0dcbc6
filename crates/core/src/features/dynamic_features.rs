//! Dynamic features (paper §4.4): execution feedback observed up to the
//! 20%-of-driver-input marker.
//!
//! Consistent observation points across queries are impossible ("if we
//! knew which fraction was done, progress estimation would be trivial"),
//! so markers `t{x}` are defined as the first observation where x% of the
//! driver-node input has been consumed. Two families:
//!
//! * **Pairwise differences** `|A(t{x}) − B(t{x})|` for the pairs
//!   DNE/TGN, DNE/TGNINT, TGN/TGNINT — divergence between estimators
//!   early in the pipeline signals per-tuple-work variance;
//! * **Time correlations** `Cor_{est,i,x}` for the six practical
//!   estimators: how the elapsed-time fraction at the i/4-sub-markers of
//!   x relates to the estimator's value — the only features that
//!   incorporate the actual passage of time.

use crate::features::schema::{COR_ESTIMATORS, COR_POINTS, DIFF_PAIRS, X_MARKERS};
use prosel_estimators::{EstimatorKind, IncrementalObs};

fn kind_by_name(name: &str) -> EstimatorKind {
    match name {
        "DNE" => EstimatorKind::Dne,
        "TGN" => EstimatorKind::Tgn,
        "LUO" => EstimatorKind::Luo,
        "BATCHDNE" => EstimatorKind::BatchDne,
        "DNESEEK" => EstimatorKind::DneSeek,
        "TGNINT" => EstimatorKind::TgnInt,
        other => unreachable!("unknown estimator {other}"),
    }
}

/// First observation index where the driver fraction reaches `frac`
/// (clamped to the last observation when never reached).
fn marker(obs: &IncrementalObs, frac: f64) -> usize {
    let df = obs.driver_fraction();
    df.iter().position(|&a| a >= frac).unwrap_or(df.len().saturating_sub(1))
}

/// Extract the dynamic feature suffix.
///
/// The same definitions serve a replayed run (offline records) and the
/// live monitor: on a prefix of a run, markers not yet reached clamp to
/// the latest observation, giving the *provisional* dynamic features the
/// online re-selection uses until the real markers arrive. The estimator
/// curves are borrowed from `obs`, never copied.
pub fn extract(obs: &IncrementalObs) -> Vec<f32> {
    let curves: Vec<(EstimatorKind, std::borrow::Cow<'_, [f64]>)> = COR_ESTIMATORS
        .iter()
        .map(|&name| {
            let k = kind_by_name(name);
            (k, obs.curve(k))
        })
        .collect();
    let curve_of = |k: EstimatorKind| -> &[f64] {
        curves.iter().find(|(kk, _)| *kk == k).expect("curve").1.as_ref()
    };

    let start = obs.window().0;
    let times = obs.times();
    let mut out = Vec::with_capacity(DIFF_PAIRS.len() * X_MARKERS.len() + 120);

    // Pairwise differences at t{x}.
    for (a, b) in DIFF_PAIRS {
        let ca = curve_of(kind_by_name(a));
        let cb = curve_of(kind_by_name(b));
        for x in X_MARKERS {
            let j = marker(obs, x as f64 / 100.0);
            out.push((ca[j] - cb[j]).abs() as f32);
        }
    }

    // Time correlations: for i = 1..=4, the elapsed-time fraction at
    // t{i·x/4} relative to t{x}, scaled by the inverse of the estimator's
    // value at t{x} (the paper's CorEST,i,x with the t{x} reference).
    for &name in &COR_ESTIMATORS {
        let c = curve_of(kind_by_name(name));
        for i in 1..=COR_POINTS {
            for x in X_MARKERS {
                let jx = marker(obs, x as f64 / 100.0);
                let ji = marker(obs, (x as f64 * i as f64 / COR_POINTS as f64) / 100.0);
                let t_x = (times[jx] - start).max(1e-9);
                let t_i = (times[ji] - start).max(0.0);
                let est = c[jx].max(1e-3); // guard 1/est
                let v = (t_i / t_x) * (1.0 / est);
                out.push(v.clamp(0.0, 1e4) as f32);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::schema::FeatureSchema;
    use prosel_engine::{run_plan, Catalog, ExecConfig};
    use prosel_planner::workload::{materialize, WorkloadKind, WorkloadSpec};
    use prosel_planner::PlanBuilder;

    #[test]
    fn dynamic_vector_matches_schema_suffix() {
        let spec = WorkloadSpec::new(WorkloadKind::TpchLike, 6).with_queries(6).with_scale(0.4);
        let w = materialize(&spec);
        let catalog = Catalog::new(&w.db, &w.design);
        let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
        let s = FeatureSchema::get();
        let mut seen = 0;
        for (qi, q) in w.queries.iter().enumerate() {
            let plan = builder.build(q).unwrap();
            let run =
                run_plan(&catalog, &plan, &ExecConfig { seed: qi as u64, ..ExecConfig::default() });
            let ctx = prosel_estimators::TraceCtx::new(&run);
            for pid in 0..run.pipelines.len() {
                if let Some(obs) = IncrementalObs::with_ctx(&run, pid, &ctx) {
                    let v = extract(&obs);
                    assert_eq!(v.len(), s.len() - s.static_len());
                    assert!(v.iter().all(|x| x.is_finite()));
                    seen += 1;
                }
            }
        }
        assert!(seen > 5);
    }

    #[test]
    fn markers_are_monotone() {
        let spec = WorkloadSpec::new(WorkloadKind::TpchLike, 6).with_queries(3).with_scale(0.4);
        let w = materialize(&spec);
        let catalog = Catalog::new(&w.db, &w.design);
        let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
        let plan = builder.build(&w.queries[0]).unwrap();
        let run = run_plan(&catalog, &plan, &ExecConfig::default());
        if let Some(obs) = IncrementalObs::replay(&run, 0) {
            let mut prev = 0usize;
            for x in X_MARKERS {
                let j = marker(&obs, x as f64 / 100.0);
                assert!(j >= prev, "marker not monotone at x={x}");
                prev = j;
            }
        }
    }
}
