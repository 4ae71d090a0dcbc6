//! Online monitoring integration: live traces through the monitor must
//! reproduce the offline curves (a replay of the finished trace) exactly,
//! the replay must reproduce digests recorded from the retired batch
//! curve computation, and the served progress must respect the monitor
//! invariants.

use prosel::core::pipeline_runs::{collect_from_workload, CollectConfig};
use prosel::core::selection::{EstimatorSelector, SelectorConfig};
use prosel::core::textio::fnv64;
use prosel::core::training::TrainingSet;
use prosel::engine::{
    run_concurrent_tapped, run_plan, run_plan_tapped, Catalog, ConcurrentConfig, ExecConfig,
    QueryRun, TraceEvent,
};
use prosel::estimators::kinds::EstimatorKind;
use prosel::estimators::{IncrementalObs, TraceCtx, ONLINE_KINDS};
use prosel::mart::BoostParams;
use prosel::monitor::{MonitorBuilder, MonitorConfig, ProgressMonitor};
use prosel::planner::workload::{materialize, WorkloadKind, WorkloadSpec};
use prosel::planner::PlanBuilder;

/// Every estimator kind, oracles included.
fn all_kinds() -> Vec<EstimatorKind> {
    let mut kinds = ONLINE_KINDS.to_vec();
    kinds.push(EstimatorKind::GetNextOracle);
    kinds.push(EstimatorKind::BytesOracle);
    kinds
}

/// Assert that the monitor's live observation state reproduces the
/// offline curves — a replay of the finished trace — bit for bit on every
/// pipeline of `run`.
fn assert_equivalent(monitor: &ProgressMonitor, query: usize, run: &QueryRun, label: &str) {
    let ctx = TraceCtx::new(run);
    for pid in 0..run.pipelines.len() {
        let inc = monitor.observation(query, pid).expect("registered pipeline");
        match IncrementalObs::with_ctx(run, pid, &ctx) {
            None => assert!(
                inc.is_empty(),
                "{label}: pipeline {pid} unobserved post-hoc but online has {} obs",
                inc.len()
            ),
            Some(batch) => {
                assert_eq!(
                    inc.times(),
                    batch.times(),
                    "{label}: observation set mismatch on pipeline {pid}"
                );
                assert_eq!(
                    inc.window(),
                    batch.window(),
                    "{label}: window mismatch, pipeline {pid}"
                );
                for kind in all_kinds() {
                    let online = inc.curve(kind);
                    let offline = batch.curve(kind);
                    assert_eq!(
                        online.len(),
                        offline.len(),
                        "{label}: {kind} curve length mismatch on pipeline {pid}"
                    );
                    for (j, (a, b)) in online.iter().zip(offline.iter()).enumerate() {
                        assert!(
                            a.to_bits() == b.to_bits(),
                            "{label}: {kind} differs at pipeline {pid} obs {j}: \
                             online {a:?} vs replay {b:?}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn online_offline_equivalence_tpch() {
    let spec = WorkloadSpec::new(WorkloadKind::TpchLike, 0x011).with_queries(12);
    let w = materialize(&spec);
    let catalog = Catalog::new(&w.db, &w.design);
    let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
    for (qi, q) in w.queries.iter().enumerate() {
        let plan = builder.build(q).expect("plan");
        let (tap, rx) = std::sync::mpsc::channel();
        let mut monitor = MonitorBuilder::fixed(EstimatorKind::Dne).build_monitor().expect("build");
        monitor.register(qi, &plan);
        let cfg = ExecConfig { seed: qi as u64, ..ExecConfig::default() };
        let run = run_plan_tapped(&catalog, &plan, &cfg, qi, tap);
        monitor.drain(&rx);
        assert_eq!(monitor.is_finished(qi), Some(true));
        assert_equivalent(&monitor, qi, &run, &format!("tpch q{qi}"));
    }
}

#[test]
fn online_offline_equivalence_survives_thinning() {
    // A tiny snapshot budget forces repeated buffer thinning; the monitor
    // must track the engine's bounded trace through every halving.
    let spec = WorkloadSpec::new(WorkloadKind::TpcdsLike, 77).with_queries(6);
    let w = materialize(&spec);
    let catalog = Catalog::new(&w.db, &w.design);
    let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
    let mut thinned = 0usize;
    for (qi, q) in w.queries.iter().enumerate() {
        let plan = builder.build(q).expect("plan");
        let (tap, rx) = std::sync::mpsc::channel();
        let mut monitor = MonitorBuilder::fixed(EstimatorKind::Tgn).build_monitor().expect("build");
        monitor.register(qi, &plan);
        let cfg = ExecConfig {
            max_snapshots: 32,
            initial_snapshot_interval: 5.0,
            seed: qi as u64,
            ..ExecConfig::default()
        };
        let run = run_plan_tapped(&catalog, &plan, &cfg, qi, tap);
        while let Ok(ev) = rx.try_recv() {
            if matches!(ev, TraceEvent::Thinned { .. }) {
                thinned += 1;
            }
            monitor.ingest(ev);
        }
        assert_equivalent(&monitor, qi, &run, &format!("thinning q{qi}"));
    }
    assert!(thinned > 0, "the tiny budget should have forced thinning");
}

#[test]
fn monitor_progress_is_monotone_and_pins_to_one() {
    let spec = WorkloadSpec::new(WorkloadKind::TpchLike, 404).with_queries(8);
    let w = materialize(&spec);
    let catalog = Catalog::new(&w.db, &w.design);
    let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
    for (qi, q) in w.queries.iter().enumerate() {
        let plan = builder.build(q).expect("plan");
        let (tap, rx) = std::sync::mpsc::channel();
        // DNE is monotone (driver counters only grow against fixed
        // totals), so the served query progress must be too.
        let mut monitor = MonitorBuilder::fixed(EstimatorKind::Dne).build_monitor().expect("build");
        monitor.register(qi, &plan);
        let run = run_plan_tapped(&catalog, &plan, &ExecConfig::default(), qi, tap);
        let mut prev = 0.0f64;
        while let Ok(ev) = rx.try_recv() {
            monitor.ingest(ev);
            let p = monitor.query_progress(qi).expect("registered");
            assert!((0.0..=1.0).contains(&p), "q{qi}: progress {p} out of range");
            assert!(p >= prev - 1e-12, "q{qi}: DNE-monitored progress regressed: {prev} -> {p}");
            prev = p;
        }
        assert_eq!(
            monitor.query_progress(qi),
            Some(1.0),
            "q{qi}: progress must pin to exactly 1.0 at the final snapshot"
        );
        // Post-hoc, the monotone estimators' committed curves agree.
        for pid in 0..run.pipelines.len() {
            let inc = monitor.observation(qi, pid).expect("pipeline");
            for kind in [EstimatorKind::Dne, EstimatorKind::GetNextOracle] {
                let c = inc.curve(kind);
                for w2 in c.windows(2) {
                    assert!(w2[0] <= w2[1] + 1e-12, "q{qi} p{pid}: {kind} curve regressed");
                }
            }
        }
    }
}

#[test]
fn selector_driven_monitor_end_to_end() {
    // Train a small selector, then monitor a concurrent batch with online
    // re-selection: curves still match batch exactly (selection never
    // perturbs observation state), switches are well-formed, and the
    // serving surface stays sane throughout.
    let spec = WorkloadSpec::new(WorkloadKind::TpchLike, 21).with_queries(20).with_scale(0.5);
    let w = materialize(&spec);
    let records = collect_from_workload(&w, &CollectConfig::default()).expect("records");
    let train = TrainingSet::from_records(&records);
    let selector = EstimatorSelector::train(
        &train,
        &SelectorConfig::default().with_boost(BoostParams::fast()),
    );

    let catalog = Catalog::new(&w.db, &w.design);
    let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
    let plans: Vec<_> = w.queries.iter().take(6).map(|q| builder.build(q).expect("plan")).collect();

    let (tap, rx) = std::sync::mpsc::channel();
    let mut monitor = MonitorBuilder::with_selector(selector)
        .config(MonitorConfig { reselect_every: 3, ..MonitorConfig::default() })
        .build_monitor()
        .expect("build");
    for (qi, plan) in plans.iter().enumerate() {
        monitor.register(qi, plan);
    }
    let runs = run_concurrent_tapped(&catalog, &plans, &ConcurrentConfig::default(), tap);
    while let Ok(ev) = rx.try_recv() {
        let q = ev.query();
        monitor.ingest(ev);
        let status = monitor.status(q).expect("registered");
        assert!((0.0..=1.0).contains(&status.progress));
        for p in &status.pipelines {
            assert!((0.0..=1.0).contains(&p.progress));
        }
    }
    for (qi, run) in runs.iter().enumerate() {
        assert_eq!(monitor.is_finished(qi), Some(true));
        assert_equivalent(&monitor, qi, run, &format!("selector q{qi}"));
        let switches = monitor.switch_history(qi).expect("registered");
        for s in switches {
            assert_ne!(s.from, s.to, "q{qi}: no-op switch logged");
        }
        // Initial choices came from static features; current choice must
        // equal the initial one composed with the logged switches.
        for pid in 0..run.pipelines.len() {
            let mut k = monitor.initial_choice(qi, pid).expect("pipeline");
            for s in switches.iter().filter(|s| s.pipeline == pid) {
                assert_eq!(s.from, k, "q{qi} p{pid}: switch chain broken");
                k = s.to;
            }
            assert_eq!(monitor.current_choice(qi, pid), Some(k));
        }
    }
}

/// fnv64 digests of the batch curve computation that preceded the single
/// curve engine, recorded from it on the workloads below before it was
/// deleted: first the observation sets (pipeline id, count, times and
/// activity window), then one digest per estimator kind in [`all_kinds`]
/// order over every observed pipeline's curve bit patterns.
const BATCH_DIGESTS: [(WorkloadKind, u64, u64, [u64; 11]); 2] = [
    (
        WorkloadKind::TpchLike,
        5,
        0x69553dc795bd1662,
        [
            0x71c4631c5a5e2abb, // DNE
            0xfb80d1f71c376fcc, // TGN
            0x8fa75291c73f5094, // LUO
            0x6151717cd29f0ae2, // PMAX
            0x54c4d8f9c1c054de, // SAFE
            0x71c4631c5a5e2abb, // BATCHDNE (no batch sorts: equals DNE)
            0x52fa553654542676, // DNESEEK
            0x604afbfeb07827fd, // TGNINT
            0x6ab7f363ff08a978, // TGNRAW
            0x4ef3b0c66ad901b0, // GetNextModel
            0x47164ad8c7eb83c7, // BytesModel
        ],
    ),
    (
        WorkloadKind::TpcdsLike,
        6,
        0xf301c97a3cbcf678,
        [
            0x4a8f155697ae1c8e, // DNE
            0x7548737a95599a9f, // TGN
            0xfc6a32fc1617ce81, // LUO
            0x255f88084f8c3def, // PMAX
            0x8f206c044d7d6c98, // SAFE
            0x0a7ea1629aa02685, // BATCHDNE
            0xeac987d21d192770, // DNESEEK
            0xe3c9a596d90d1f6f, // TGNINT
            0x671b0f06e0b6c1d9, // TGNRAW
            0xff71dbf0d4e7b5df, // GetNextModel
            0x66b20e61f5038585, // BytesModel
        ],
    ),
];

#[test]
fn replay_equivalence_all_workload_kinds() {
    // The replay path is what every offline curve is: it must reproduce,
    // bit for bit, what the batch computation it replaced produced.
    let kinds = all_kinds();
    for (kind, seed, obs_digest, curve_digests) in BATCH_DIGESTS {
        let spec = WorkloadSpec::new(kind, seed).with_queries(6).with_scale(0.5);
        let w = materialize(&spec);
        let catalog = Catalog::new(&w.db, &w.design);
        let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
        let mut obs_bytes: Vec<u8> = Vec::new();
        let mut curve_bytes: Vec<Vec<u8>> = vec![Vec::new(); kinds.len()];
        for (qi, q) in w.queries.iter().enumerate() {
            let plan = builder.build(q).expect("plan");
            let run = run_plan(&catalog, &plan, &ExecConfig::default());
            let ctx = TraceCtx::new(&run);
            for pid in 0..run.pipelines.len() {
                let observed = run.trace.pipeline_observations(pid);
                let Some(inc) = IncrementalObs::with_ctx(&run, pid, &ctx) else {
                    assert!(observed.is_empty(), "{kind:?} q{qi} p{pid}: replay lost observations");
                    continue;
                };
                // The trace's own observation-set and truth rules are an
                // independent oracle for the replay's.
                let serials: Vec<usize> = (0..inc.len()).map(|i| inc.serial(i) as usize).collect();
                assert_eq!(serials, observed, "{kind:?} q{qi} p{pid}: observation set");
                let truth: Vec<f64> =
                    observed.iter().map(|&j| run.trace.true_pipeline_progress(pid, j)).collect();
                assert_eq!(inc.truth(), truth, "{kind:?} q{qi} p{pid}: truth");
                let head = [qi as u64, pid as u64, inc.len() as u64];
                let (start, end) = inc.window();
                for v in head {
                    obs_bytes.extend(v.to_le_bytes());
                }
                for t in inc.times().iter().chain([&start, &end]) {
                    obs_bytes.extend(t.to_bits().to_le_bytes());
                }
                for (buf, &k) in curve_bytes.iter_mut().zip(&kinds) {
                    for v in head {
                        buf.extend(v.to_le_bytes());
                    }
                    for x in inc.curve(k).iter() {
                        buf.extend(x.to_bits().to_le_bytes());
                    }
                }
            }
        }
        assert_eq!(fnv64(&obs_bytes), obs_digest, "{kind:?}: observation sets differ");
        for ((k, buf), want) in kinds.iter().zip(&curve_bytes).zip(curve_digests) {
            assert_eq!(fnv64(buf), want, "{kind:?}: {k} curves differ from the recorded digest");
        }
    }
}
