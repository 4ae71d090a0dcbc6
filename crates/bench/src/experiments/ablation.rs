//! Design-choice ablations called out in DESIGN.md.
//!
//! * **Regression vs classification** — the paper (§4.1) models the
//!   *error magnitude* of each estimator instead of classifying the best
//!   one, so catastrophic mis-selections are penalized. The ablation
//!   trains an indicator ("is this estimator the best?") classifier with
//!   the same MART machinery and compares.
//! * **Static-weight combination** — the paper's negative result: a fixed
//!   weighted combination of estimators is brittle because the weights
//!   track the training workload's mix of query types. The ablation fits
//!   least-squares weights over the six estimator curves on two different
//!   training workloads and shows both the weight instability and the
//!   test-error degradation.

use crate::report::Table;
use crate::suite::{paper_workloads, ExpScale, Suite};
use prosel_core::selection::{EstimatorSelector, SelectorConfig};
use prosel_core::training::{FeatureMode, TrainingSet};
use prosel_datagen::TuningLevel;
use prosel_engine::{run_plan, Catalog, ExecConfig};
use prosel_estimators::{l1_error, EstimatorKind, IncrementalObs, TraceCtx};
use prosel_mart::{Dataset, Mart};
use prosel_planner::workload::{materialize, WorkloadKind, WorkloadSpec};
use prosel_planner::PlanBuilder;

/// Regression (predict error, take argmin) vs classification (predict
/// is-best indicator, take argmax).
pub fn run_classification(suite: &mut Suite, scale: ExpScale) -> String {
    let specs = paper_workloads(scale);
    let all = suite.records_all(&specs);
    let full = TrainingSet::from_records(&all);
    let labels: Vec<String> = specs.iter().map(|s| s.label()).collect();
    let candidates = EstimatorKind::EXTENDED;
    let dims = FeatureMode::StaticDynamic.dims();

    let mut reg_l1 = 0.0;
    let mut cls_l1 = 0.0;
    let mut reg_opt = 0.0;
    let mut cls_opt = 0.0;
    let mut n = 0.0;
    for label in &labels {
        let (test, train) = full.split_by(|r| &r.workload == label);

        // Regression selection (the paper's design).
        let cfg = SelectorConfig {
            candidates: candidates.to_vec(),
            mode: FeatureMode::StaticDynamic,
            boost: crate::suite::harness_boost(),
        };
        let sel = EstimatorSelector::train(&train, &cfg);
        let rep = sel.evaluate(&test);
        reg_l1 += rep.chosen_l1 * rep.n as f64;
        reg_opt += rep.pct_optimal * rep.n as f64;

        // One-vs-rest classification with the same learner.
        let classifiers: Vec<Mart> = candidates
            .iter()
            .map(|&k| {
                let ci = k.candidate_index().unwrap();
                let mut data = Dataset::new(dims);
                for r in &train.records {
                    let best = r.best_candidate();
                    data.push(&r.features[..dims], if best == ci { 1.0 } else { 0.0 });
                }
                Mart::train(&data, &crate::suite::harness_boost())
            })
            .collect();
        for r in &test.records {
            let scores: Vec<f32> =
                classifiers.iter().map(|m| m.predict(&r.features[..dims])).collect();
            let pick = scores
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .map(|(i, _)| i)
                .unwrap();
            let ci = candidates[pick].candidate_index().unwrap();
            cls_l1 += r.errors_l1[ci] as f64;
            let min = candidates
                .iter()
                .map(|k| r.errors_l1[k.candidate_index().unwrap()])
                .fold(f32::INFINITY, f32::min);
            if r.errors_l1[ci] <= min + 1e-4 {
                cls_opt += 1.0;
            }
        }
        n += test.len() as f64;
    }

    let mut table = Table::new(
        "Ablation — selection as regression (paper) vs classification",
        &["setup", "avg L1", "% optimal"],
    );
    table.row(&[
        "error regression (argmin)".into(),
        format!("{:.4}", reg_l1 / n),
        format!("{:.1}%", reg_opt / n * 100.0),
    ]);
    table.row(&[
        "is-best classification (argmax)".into(),
        format!("{:.4}", cls_l1 / n),
        format!("{:.1}%", cls_opt / n * 100.0),
    ]);
    let mut out = table.render();
    out.push_str(
        "paper §4.1: regression is preferred because it models error *size*,\n\
         minimizing the cost of inevitable mis-selections.\n",
    );
    println!("{out}");
    out
}

/// Solve the 6×6 normal equations (Gaussian elimination, partial pivot).
fn solve(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Option<Vec<f64>> {
    let n = b.len();
    for col in 0..n {
        let pivot =
            (col..n).max_by(|&i, &j| a[i][col].abs().partial_cmp(&a[j][col].abs()).unwrap())?;
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        for row in col + 1..n {
            let f = a[row][col] / a[col][col];
            let (pivot_rows, rest) = a.split_at_mut(row);
            let pivot_row = &pivot_rows[col];
            for (v, &p) in rest[0][col..].iter_mut().zip(&pivot_row[col..]) {
                *v -= f * p;
            }
            b[row] -= f * b[col];
        }
    }
    let mut x = vec![0.0; n];
    for col in (0..n).rev() {
        let mut acc = b[col];
        for k in col + 1..n {
            acc -= a[col][k] * x[k];
        }
        x[col] = acc / a[col][col];
    }
    Some(x)
}

/// Fit least-squares weights over the six estimator curves of a workload.
fn fit_weights(spec: &WorkloadSpec) -> Vec<f64> {
    let kinds = EstimatorKind::EXTENDED;
    let w = materialize(spec);
    let catalog = Catalog::new(&w.db, &w.design);
    let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
    let mut ata = vec![vec![0.0f64; kinds.len()]; kinds.len()];
    let mut atb = vec![0.0f64; kinds.len()];
    for (qi, q) in w.queries.iter().enumerate() {
        let plan = builder.build(q).expect("plan");
        let run = run_plan(&catalog, &plan, &ExecConfig { seed: qi as u64, ..Default::default() });
        let ctx = TraceCtx::new(&run);
        for pid in 0..run.pipelines.len() {
            let Some(obs) = IncrementalObs::with_ctx(&run, pid, &ctx) else { continue };
            if obs.len() < 5 {
                continue;
            }
            let truth = obs.truth();
            let curves: Vec<_> = kinds.iter().map(|&k| obs.curve(k)).collect();
            for j in 0..obs.len() {
                for a in 0..kinds.len() {
                    for b in 0..kinds.len() {
                        ata[a][b] += curves[a][j] * curves[b][j];
                    }
                    atb[a] += curves[a][j] * truth[j];
                }
            }
        }
    }
    solve(ata, atb).unwrap_or_else(|| vec![1.0 / kinds.len() as f64; kinds.len()])
}

/// Error of the weighted-combination estimator on a workload.
fn combo_error(spec: &WorkloadSpec, weights: &[f64]) -> (f64, usize) {
    let kinds = EstimatorKind::EXTENDED;
    let w = materialize(spec);
    let catalog = Catalog::new(&w.db, &w.design);
    let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
    let mut sum = 0.0;
    let mut n = 0usize;
    for (qi, q) in w.queries.iter().enumerate() {
        let plan = builder.build(q).expect("plan");
        let run = run_plan(&catalog, &plan, &ExecConfig { seed: qi as u64, ..Default::default() });
        let ctx = TraceCtx::new(&run);
        for pid in 0..run.pipelines.len() {
            let Some(obs) = IncrementalObs::with_ctx(&run, pid, &ctx) else { continue };
            if obs.len() < 5 {
                continue;
            }
            let truth = obs.truth();
            let curves: Vec<_> = kinds.iter().map(|&k| obs.curve(k)).collect();
            let combined: Vec<f64> = (0..obs.len())
                .map(|j| {
                    curves.iter().zip(weights).map(|(c, &w)| c[j] * w).sum::<f64>().clamp(0.0, 1.0)
                })
                .collect();
            sum += l1_error(&combined, &truth);
            n += 1;
        }
    }
    (sum / n.max(1) as f64, n)
}

/// Static-weight combination (the paper's §4.1 negative result).
pub fn run_combination(_suite: &mut Suite, scale: ExpScale) -> String {
    let q = match scale {
        ExpScale::Smoke => 40,
        ExpScale::Quick => 120,
        ExpScale::Full => 300,
    };
    // Two training mixes with very different query-type frequencies.
    let train_scan = WorkloadSpec::new(WorkloadKind::TpchLike, 31)
        .with_queries(q)
        .with_tuning(TuningLevel::Untuned);
    let train_nlj = WorkloadSpec::new(WorkloadKind::TpchLike, 31)
        .with_queries(q)
        .with_skew(2.0)
        .with_tuning(TuningLevel::FullyTuned);
    let test = WorkloadSpec::new(WorkloadKind::Real1, 33).with_queries(q);

    let w_scan = fit_weights(&train_scan);
    let w_nlj = fit_weights(&train_nlj);
    let (e_scan, n) = combo_error(&test, &w_scan);
    let (e_nlj, _) = combo_error(&test, &w_nlj);
    // Baseline: the single best estimator on the test workload.
    let kinds = EstimatorKind::EXTENDED;
    let mut unit = vec![0.0; kinds.len()];
    let mut best_single = f64::INFINITY;
    let mut best_name = "";
    for (i, k) in kinds.iter().enumerate() {
        unit.iter_mut().for_each(|v| *v = 0.0);
        unit[i] = 1.0;
        let (e, _) = combo_error(&test, &unit);
        if e < best_single {
            best_single = e;
            best_name = k.name();
        }
    }

    let mut out = String::new();
    let mut t = Table::new(
        "Ablation — static-weight estimator combination (paper §4.1 negative result)",
        &["fit on", "DNE", "TGN", "LUO", "BATCHDNE", "DNESEEK", "TGNINT", "test L1"],
    );
    let mut row = |label: &str, w: &[f64], e: f64| {
        let mut cells = vec![label.to_string()];
        cells.extend(w.iter().map(|v| format!("{v:+.2}")));
        cells.push(format!("{e:.4}"));
        t.row(&cells);
    };
    row("scan-heavy workload", &w_scan, e_scan);
    row("NLJ-heavy workload", &w_nlj, e_nlj);
    out.push_str(&t.render());
    out.push_str(&format!(
        "test pipelines: {n}; best single estimator on test: {best_name} (L1 {best_single:.4}).\n\
         paper: combination weights fluctuate with the training mix (e.g. DNE's\n\
         weight tracks the frequency of nested-loop queries) and the combined\n\
         estimator is not robust under workload shift — selection is.\n",
    ));
    println!("{out}");
    out
}
