//! Estimator zoo: run one query and print every candidate estimator's
//! progress curve side by side, with its L1 error against true progress.
//!
//! Shows *why* no single estimator suffices: pick different queries (via
//! the seed argument) and watch the winner change.
//!
//! ```text
//! cargo run --example estimator_zoo --release -- [query-index]
//! ```

use prosel::engine::{run_plan, Catalog, ExecConfig};
use prosel::estimators::{l1_error, EstimatorKind, IncrementalObs, TraceCtx};
use prosel::planner::workload::{materialize, WorkloadKind, WorkloadSpec};
use prosel::planner::PlanBuilder;

fn main() {
    let query_idx: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(2);

    let spec = WorkloadSpec::new(WorkloadKind::TpchLike, 99)
        .with_queries(query_idx + 1)
        .with_skew(2.0)
        .with_tuning(prosel::datagen::TuningLevel::FullyTuned);
    let w = materialize(&spec);
    let catalog = Catalog::new(&w.db, &w.design);
    let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
    let plan = builder.build(&w.queries[query_idx]).expect("plan");
    println!("query {query_idx} plan:\n{}", plan.render());

    let run = run_plan(&catalog, &plan, &ExecConfig::default());
    println!(
        "{} pipelines, {} observations, {} result rows\n",
        run.pipelines.len(),
        run.trace.snapshots.len(),
        run.result_rows
    );

    // One refinement-bound pass per snapshot, shared by every pipeline.
    let ctx = TraceCtx::new(&run);
    for pid in 0..run.pipelines.len() {
        let Some(obs) = IncrementalObs::with_ctx(&run, pid, &ctx) else { continue };
        if obs.len() < 5 {
            continue;
        }
        let truth = obs.truth();
        println!(
            "pipeline {pid} (nodes {:?}, drivers {:?}):",
            run.pipelines[pid].nodes, run.pipelines[pid].driver_nodes
        );
        // Header: progress at 25/50/75% of the pipeline's lifetime.
        println!("  {:<10} {:>7} {:>7} {:>7}  {:>8}", "estimator", "@25%", "@50%", "@75%", "L1");
        let at = |curve: &[f64], frac: f64| -> f64 {
            let j = truth.iter().position(|&t| t >= frac).unwrap_or(truth.len() - 1);
            curve[j]
        };
        let mut best: Option<(EstimatorKind, f64)> = None;
        for kind in EstimatorKind::CANDIDATES {
            let curve = obs.curve(kind);
            let l1 = l1_error(&curve, &truth);
            if best.is_none() || l1 < best.unwrap().1 {
                best = Some((kind, l1));
            }
            println!(
                "  {:<10} {:>6.1}% {:>6.1}% {:>6.1}%  {:>8.4}",
                kind.name(),
                at(&curve, 0.25) * 100.0,
                at(&curve, 0.50) * 100.0,
                at(&curve, 0.75) * 100.0,
                l1
            );
        }
        let (k, l1) = best.unwrap();
        println!("  -> best: {} (L1 {:.4})\n", k.name(), l1);
    }
}
