//! `train-select`: the paper's offline pipeline as one single-threaded
//! batch job, repeated in rounds.
//!
//! A round executes every query of the six paper workloads, extracts the
//! per-pipeline records, trains the six-candidate dynamic selector on five
//! workloads, evaluates it on the held-out one and runs warm-start
//! feedback rounds of the online learner over the held-out workload's
//! other queries. It never touches the monitor.

use std::sync::Arc;
use std::time::Instant;

use prosel_bench::suite::{harness_boost, paper_workloads, ExpScale};
use prosel_core::features;
use prosel_core::pipeline_runs::{pipeline_fingerprint, records_from_run, PipelineRecord};
use prosel_core::selection::{EstimatorSelector, SelectorConfig};
use prosel_core::training::TrainingSet;
use prosel_engine::{run_plan, Catalog, ExecConfig, QueryRun};
use prosel_estimators::{l1_error, l2_error, EstimatorKind, PipelineObs, TraceCtx};
use prosel_learn::{LearnConfig, OnlineLearner};
use prosel_mart::BoostParams;
use prosel_monitor::HarvestedQuery;
use prosel_planner::workload::{materialize, Workload, WorkloadSpec};
use prosel_planner::PlanBuilder;

use crate::report::{Checks, Report};
use crate::spans::Tracer;
use crate::stats::{median, peak_rss_mb, quantile};
use crate::{Params, SETUPS};

/// The held-out workload: the last of the six (the second real-world
/// workload), never seen in training.
const HELD_OUT: usize = 5;
/// Warm-start feedback rounds of the online learner per pipeline round.
const FEEDBACK_ROUNDS: usize = 3;
/// Pipelines observed fewer times are skipped (the collection default).
const MIN_OBSERVATIONS: usize = 5;
/// Passes of the trained selector over the held-out pipelines per round.
const SELECT_REPS: usize = 5;

fn specs(p: &Params) -> Vec<WorkloadSpec> {
    if p.tiny {
        paper_workloads(ExpScale::Smoke)
            .into_iter()
            .map(|s| s.with_queries(6).with_scale(0.3))
            .collect()
    } else {
        paper_workloads(ExpScale::Quick)
    }
}

fn boost(p: &Params) -> BoostParams {
    if p.tiny {
        BoostParams { iterations: 8, ..harness_boost() }
    } else {
        harness_boost()
    }
}

/// What one round produced.
struct Round {
    /// Wall time of the whole round.
    train_s: f64,
    /// Wall time after the last query was extracted: training, held-out
    /// evaluation and the feedback rounds.
    fit_s: f64,
    heldout_l1: f64,
    /// Plan, execute and extract time of each query, in workload order.
    per_query_us: Vec<f64>,
    /// Fastest `select` of each held-out pipeline, in record order.
    select_ns: Vec<f64>,
}

/// Execute every query of `w` and append its records; per-query latency
/// (plan, execute, extract) goes to `per_query_us`.
fn collect(
    w: &Workload,
    seed: u64,
    tracer: &mut Tracer,
    checks: &mut Checks,
    per_query_us: &mut Vec<f64>,
    out: &mut Vec<PipelineRecord>,
) {
    let catalog = Catalog::new(&w.db, &w.design);
    let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
    let label = w.spec.label();
    for (qi, q) in w.queries.iter().enumerate() {
        let t = Instant::now();
        let plan = builder.build(q).expect("generated queries always plan");
        let exec = ExecConfig {
            seed: seed ^ (qi as u64).wrapping_mul(0x9E37_79B9),
            ..ExecConfig::default()
        };
        let id = qi as u64;
        let run = tracer.time("engine.run_plan", id, None, || run_plan(&catalog, &plan, &exec));
        if tracer.enabled() {
            let before = out.len();
            traced_records(&run, &label, qi, tracer, out);
            if qi == 0 {
                // The span-wrapped extraction must agree with the library's.
                let mut reference = Vec::new();
                records_from_run(&run, &label, qi, MIN_OBSERVATIONS, &mut reference);
                let same = reference.len() == out.len() - before
                    && reference.iter().zip(&out[before..]).all(|(a, b)| {
                        a.features == b.features
                            && a.errors_l1 == b.errors_l1
                            && a.errors_l2 == b.errors_l2
                    });
                checks.check(same, || {
                    format!("{label} q0: traced extraction differs from records_from_run")
                });
            }
        } else {
            records_from_run(&run, &label, qi, MIN_OBSERVATIONS, out);
        }
        per_query_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
}

/// `records_from_run` rebuilt from the estimator and core crates' public
/// pieces: one `core.records` span per query, the causing span of a span
/// around each layer's part.
fn traced_records(
    run: &QueryRun,
    label: &str,
    qi: usize,
    tracer: &mut Tracer,
    out: &mut Vec<PipelineRecord>,
) {
    let id = qi as u64;
    let records = tracer.open("core.records", id, None);
    let parent = records.index();
    let obs: Vec<PipelineObs<'_>> = tracer.time("estimators.trace_eval", id, parent, || {
        let ctx = TraceCtx::new(run);
        (0..run.pipelines.len()).filter_map(|pid| PipelineObs::with_ctx(run, pid, &ctx)).collect()
    });
    for o in obs.iter().filter(|o| o.len() >= MIN_OBSERVATIONS) {
        let pid = o.pipeline_id();
        let truth = o.truth();
        let curve_errors = |kinds: &[EstimatorKind]| -> (Vec<f32>, Vec<f32>) {
            kinds
                .iter()
                .map(|&k| {
                    let c = o.curve(k);
                    (l1_error(&c, &truth) as f32, l2_error(&c, &truth) as f32)
                })
                .unzip()
        };
        let ((errors_l1, errors_l2), (o1, o2)) =
            tracer.time("estimators.errors", id, parent, || {
                (
                    curve_errors(&EstimatorKind::CANDIDATES),
                    curve_errors(&[EstimatorKind::GetNextOracle, EstimatorKind::BytesOracle]),
                )
            });
        let feats = tracer.time("core.features", id, parent, || features::extract(run, o));
        out.push(PipelineRecord {
            workload: label.to_string(),
            query_idx: qi,
            pipeline_id: pid,
            features: feats,
            errors_l1,
            errors_l2,
            total_getnext: o.total_getnext(),
            weight: run.pipeline_weight(pid),
            n_obs: o.len(),
            fingerprint: pipeline_fingerprint(run, pid),
            oracle_l1: [o1[0], o1[1]],
            oracle_l2: [o2[0], o2[1]],
        });
    }
    tracer.close(records);
}

/// Execute and extract every workload; per-query latencies are appended
/// to `per_query_us` in workload order.
fn collect_all(
    p: &Params,
    workloads: &[Workload],
    tracer: &mut Tracer,
    checks: &mut Checks,
    per_query_us: &mut Vec<f64>,
) -> Vec<Vec<PipelineRecord>> {
    workloads
        .iter()
        .map(|w| {
            let mut recs = Vec::new();
            collect(w, p.seed, tracer, checks, per_query_us, &mut recs);
            checks.check(!recs.is_empty(), || format!("{} produced no records", w.spec.label()));
            recs
        })
        .collect()
}

fn round(p: &Params, workloads: &[Workload], tracer: &mut Tracer, checks: &mut Checks) -> Round {
    let start = Instant::now();
    let mut per_query_us = Vec::new();
    let per_workload = collect_all(p, workloads, tracer, checks, &mut per_query_us);
    let collected = Instant::now();
    let train: Vec<PipelineRecord> = per_workload
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != HELD_OUT)
        .flat_map(|(_, r)| r.iter().cloned())
        .collect();
    let config = SelectorConfig::default().with_boost(boost(p));
    let selector = tracer.time("mart.train", 0, None, || {
        EstimatorSelector::train(&TrainingSet::from_records(&train), &config)
    });
    // Even queries of the held-out workload are scored; odd ones feed
    // the learner, so the two sets are disjoint.
    let (scored, feedback): (Vec<PipelineRecord>, Vec<PipelineRecord>) =
        per_workload[HELD_OUT].iter().cloned().partition(|r| r.query_idx % 2 == 0);
    let scored = TrainingSet::from_records(&scored);
    let heldout_l1 = selector.evaluate(&scored).chosen_l1;
    checks
        .check(heldout_l1.is_finite() && heldout_l1 >= 0.0, || format!("heldout_l1 {heldout_l1}"));

    // Feedback: the learner absorbs the held-out workload's other queries
    // as harvests, warm-starting a retrain after each share.
    let mut harvests: Vec<HarvestedQuery> = Vec::new();
    for r in feedback {
        match harvests.last_mut() {
            Some(h) if h.query == r.query_idx => h.records.push(r),
            _ => harvests.push(HarvestedQuery {
                query: r.query_idx,
                selector_epoch: 0,
                total_time: 0.0,
                records: vec![r],
                switches: Vec::new(),
            }),
        }
    }
    let config = LearnConfig { retrain_every: 0, min_records: 1, ..LearnConfig::default() };
    let selector = Arc::new(selector);
    let mut learner = OnlineLearner::new(Arc::clone(&selector), config);
    let chunk = harvests.len().div_ceil(FEEDBACK_ROUNDS).max(1);
    for (ri, share) in harvests.chunks(chunk).enumerate() {
        for h in share {
            tracer.time("learn.absorb", h.query as u64, None, || learner.absorb(h));
        }
        let outcome = tracer.time("learn.retrain", ri as u64, None, || learner.retrain());
        checks.check(outcome.trained_on > 0, || format!("feedback round {ri} trained on nothing"));
    }
    let end = Instant::now();

    // Selection latency, outside the round's time: the trained selector
    // picks an estimator for every held-out pipeline, several times over;
    // each pipeline keeps its fastest pass.
    let held = &per_workload[HELD_OUT];
    let mut select_ns = vec![f64::INFINITY; held.len()];
    for _ in 0..SELECT_REPS {
        for (best, r) in select_ns.iter_mut().zip(held) {
            let t = Instant::now();
            tracer.time("mart.select", r.query_idx as u64, None, || {
                std::hint::black_box(selector.select(std::hint::black_box(&r.features)))
            });
            *best = best.min(t.elapsed().as_nanos() as f64);
        }
    }

    // Untraced rounds execute and extract once more, outside the round's
    // time: a second repetition of every query for the quiet per-query
    // latency, and a check that collection is deterministic.
    if !tracer.enabled() {
        let mut again_us = Vec::new();
        let again = collect_all(p, workloads, tracer, checks, &mut again_us);
        let same = again.iter().zip(&per_workload).all(|(a, b)| {
            a.len() == b.len()
                && a.iter()
                    .zip(b)
                    .all(|(x, y)| x.features == y.features && x.errors_l1 == y.errors_l1)
        });
        checks.check(same, || "a second collection of one seed produced other records".into());
        for (t, u) in per_query_us.iter_mut().zip(again_us) {
            *t = t.min(u);
        }
    }
    Round {
        train_s: (end - start).as_secs_f64(),
        fit_s: (end - collected).as_secs_f64(),
        heldout_l1,
        per_query_us,
        select_ns,
    }
}

pub fn run(p: &Params) -> Report {
    let mut report = Report::new("train-select");
    let mut checks = Checks::default();
    let mut tracer = Tracer::new(p.trace);
    let specs = specs(p);

    let mut setup_s = Vec::new();
    let mut workloads = Vec::new();
    for _ in 0..SETUPS {
        workloads.clear();
        let t = Instant::now();
        for (i, s) in specs.iter().enumerate() {
            workloads.push(tracer.time("planner.materialize", i as u64, None, || materialize(s)));
        }
        setup_s.push(t.elapsed().as_secs_f64());
    }

    let start = Instant::now();
    let mut rounds = Vec::new();
    while rounds.is_empty() || start.elapsed().as_secs_f64() < p.seconds {
        rounds.push(round(p, &workloads, &mut tracer, &mut checks));
    }
    let first = rounds[0].heldout_l1;
    for r in &rounds[1..] {
        checks.check(r.heldout_l1.to_bits() == first.to_bits(), || {
            format!("heldout_l1 differs between rounds of one seed: {first} vs {}", r.heldout_l1)
        });
    }

    // Every round repeats the same work items. Each item's quietest
    // repetition measures the program rather than the host's speed state
    // (see `stats::quiet_quantile`): per-query and per-selection latency
    // are the fastest of their repetitions, and the quiet round time adds
    // the per-query ones to the fastest fit (training, evaluation and
    // feedback).
    let fastest = |item: &dyn Fn(&Round) -> &[f64]| -> Vec<f64> {
        (0..item(&rounds[0]).len())
            .map(|i| rounds.iter().map(|r| item(r)[i]).fold(f64::INFINITY, f64::min))
            .collect()
    };
    let mut per_query = fastest(&|r| &r.per_query_us);
    let mut select_us: Vec<f64> = fastest(&|r| &r.select_ns).iter().map(|ns| ns / 1e3).collect();
    let queries = per_query.len();
    let fit = rounds.iter().map(|r| r.fit_s).fold(f64::INFINITY, f64::min);
    let quiet_round_s = per_query.iter().sum::<f64>() / 1e6 + fit;
    let mut train_s: Vec<f64> = rounds.iter().map(|r| r.train_s).collect();
    report.e2e("setup_s", median(&mut setup_s.clone()), setup_s.len());
    report.e2e("peak_rss_mb", peak_rss_mb(), 1);
    report.e2e("latency_p50_us", quantile(&mut select_us, 0.5), select_us.len());
    report.e2e("throughput_per_s", queries as f64 / quiet_round_s, rounds.len());
    report.named("select_p90_us", quantile(&mut select_us, 0.9), "us", select_us.len());
    report.named("query_p50_us", quantile(&mut per_query, 0.5), "us", queries);
    report.named("query_p90_us", quantile(&mut per_query, 0.9), "us", queries);
    report.named("train_s", median(&mut train_s), "s", rounds.len());
    report.named("heldout_l1", first, "L1", rounds.len());
    report.named("train_quiet_s", quiet_round_s, "s", rounds.len());
    report.named("queries_per_round", queries as f64, "count", rounds.len());

    if p.trace {
        let st = tracer.self_times();
        let med =
            |name: &str, scale: f64| st.get(name).map_or(0.0, |v| median(&mut v.clone()) / scale);
        let cnt = |name: &str| st.get(name).map_or(0, Vec::len);
        let mut run_plan: Vec<f64> =
            st.get("engine.run_plan").map_or(Vec::new(), |v| v.iter().map(|ns| ns / 1e6).collect());
        report.layer("engine.run_plan_ms.p50", quantile(&mut run_plan, 0.5), run_plan.len());
        report.layer("engine.run_plan_ms.p99", quantile(&mut run_plan, 0.99), run_plan.len());
        let materialize: f64 =
            st.get("planner.materialize").map_or(0.0, |v| v.iter().sum::<f64>() / 1e9);
        report.layer(
            "planner.materialize_s",
            materialize / SETUPS as f64,
            cnt("planner.materialize"),
        );
        report.layer(
            "estimators.trace_eval_ms",
            med("estimators.trace_eval", 1e6),
            cnt("estimators.trace_eval"),
        );
        report.layer("core.features_us", med("core.features", 1e3), cnt("core.features"));
        report.layer("mart.train_s", med("mart.train", 1e9), cnt("mart.train"));
        report.layer("mart.select_ns", med("mart.select", 1.0), cnt("mart.select"));
        report.layer("learn.retrain_ms", med("learn.retrain", 1e6), cnt("learn.retrain"));
        report.layer("learn.absorb_us", med("learn.absorb", 1e3), cnt("learn.absorb"));
        if let Some(dir) = &p.span_dir {
            let _ = tracer.write_tsv(&dir.join("train-select.tsv"));
        }
    }
    report.checks = checks;
    report
}
