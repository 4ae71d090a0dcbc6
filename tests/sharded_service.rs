//! Sharded service integration: a [`MonitorService`] fed by real tapped
//! executions must serve exactly what a single-threaded
//! [`ProgressMonitor`] ingesting the same (deterministic) event stream
//! serves — sharding changes the threading, never the estimates.

use prosel::core::pipeline_runs::{collect_from_workload, CollectConfig};
use prosel::core::selection::{EstimatorSelector, SelectorConfig};
use prosel::core::training::TrainingSet;
use prosel::engine::{run_concurrent_tapped, Catalog, ConcurrentConfig, ExecConfig};
use prosel::estimators::kinds::EstimatorKind;
use prosel::mart::BoostParams;
use prosel::monitor::{MonitorBuilder, MonitorConfig, QueryError, RegisterError};
use prosel::planner::workload::{materialize, WorkloadKind, WorkloadSpec};
use prosel::planner::PlanBuilder;

#[test]
fn service_matches_single_monitor_on_concurrent_workload() {
    let spec = WorkloadSpec::new(WorkloadKind::TpchLike, 0xBEEF).with_queries(8).with_scale(0.5);
    let w = materialize(&spec);
    let catalog = Catalog::new(&w.db, &w.design);
    let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
    let plans: Vec<_> = w.queries.iter().map(|q| builder.build(q).expect("plan")).collect();
    let cfg = ConcurrentConfig::default();

    // Run 1: tapped into the sharded service (3 shards on 8 queries so
    // shards hold 3/3/2 queries each).
    let service =
        MonitorBuilder::fixed(EstimatorKind::Dne).shards(3).build_service().expect("build");
    let queries: Vec<usize> = (0..plans.len()).collect();
    for (qi, plan) in plans.iter().enumerate() {
        service.register(qi, plan);
    }
    let runs = run_concurrent_tapped(&catalog, &plans, &cfg, service.tap());
    // Service reads are wait-free snapshots — drain the tapped events
    // before comparing final state.
    service.quiesce();

    // Run 2: the same workload tapped into a channel-fed single monitor.
    // Concurrent execution is deterministic, so both monitors saw the
    // byte-identical event stream.
    let (tap, rx) = std::sync::mpsc::channel();
    let mut reference = MonitorBuilder::fixed(EstimatorKind::Dne).build_monitor().expect("build");
    for (qi, plan) in plans.iter().enumerate() {
        reference.register(qi, plan);
    }
    let runs2 = run_concurrent_tapped(&catalog, &plans, &cfg, tap);
    reference.drain(&rx);

    for (qi, (run, run2)) in runs.iter().zip(&runs2).enumerate() {
        assert_eq!(run.trace.snapshots.len(), run2.trace.snapshots.len(), "q{qi} determinism");
        let served = service.status(qi).expect("registered");
        let expect = reference.status(qi).expect("registered");
        assert!(served.finished && expect.finished, "q{qi} must be finished");
        assert_eq!(served.progress.to_bits(), expect.progress.to_bits(), "q{qi} progress");
        assert_eq!(served.time.to_bits(), expect.time.to_bits(), "q{qi} time");
        assert_eq!(served.pipelines.len(), expect.pipelines.len());
        for (a, b) in served.pipelines.iter().zip(&expect.pipelines) {
            assert_eq!(a.pipeline, b.pipeline);
            assert_eq!(a.estimator, b.estimator);
            assert_eq!(a.progress.to_bits(), b.progress.to_bits(), "q{qi} p{}", a.pipeline);
            assert_eq!(a.observations, b.observations, "q{qi} p{}", a.pipeline);
        }
        for pid in 0..run.pipelines.len() {
            assert_eq!(
                service.pipeline_progress(qi, pid).ok().map(f64::to_bits),
                reference.pipeline_progress(qi, pid).map(f64::to_bits),
                "q{qi} p{pid} pipeline progress"
            );
        }
    }
    assert_eq!(service.registered_queries(), queries);
    service.shutdown();
}

#[test]
fn selector_service_matches_single_monitor_including_switches() {
    // Train a small selector, then compare the sharded service against the
    // single-threaded monitor under dynamic re-selection: choices and
    // switch logs must be identical too.
    let spec = WorkloadSpec::new(WorkloadKind::TpchLike, 21).with_queries(20).with_scale(0.5);
    let w = materialize(&spec);
    let records = collect_from_workload(&w, &CollectConfig::default()).expect("records");
    let train = TrainingSet::from_records(&records);
    let cfg = SelectorConfig::default().with_boost(BoostParams::fast());

    let catalog = Catalog::new(&w.db, &w.design);
    let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
    let plans: Vec<_> = w.queries.iter().take(5).map(|q| builder.build(q).expect("plan")).collect();
    let run_cfg = ConcurrentConfig {
        exec: ExecConfig { seed: 0xD1CE, ..ExecConfig::default() },
        ..Default::default()
    };
    let monitor_cfg = MonitorConfig { reselect_every: 3, ..MonitorConfig::default() };

    let service = MonitorBuilder::with_selector(EstimatorSelector::train(&train, &cfg))
        .config(monitor_cfg.clone())
        .shards(4)
        .build_service()
        .expect("build");
    for (qi, plan) in plans.iter().enumerate() {
        service.register(qi, plan);
    }
    run_concurrent_tapped(&catalog, &plans, &run_cfg, service.tap());
    service.quiesce();

    let (tap, rx) = std::sync::mpsc::channel();
    let mut reference = MonitorBuilder::with_selector(EstimatorSelector::train(&train, &cfg))
        .config(monitor_cfg)
        .build_monitor()
        .expect("build");
    for (qi, plan) in plans.iter().enumerate() {
        reference.register(qi, plan);
    }
    run_concurrent_tapped(&catalog, &plans, &run_cfg, tap);
    reference.drain(&rx);

    for qi in 0..plans.len() {
        let switches = service.switch_history(qi).expect("registered");
        let expect = reference.switch_history(qi).expect("registered");
        assert_eq!(switches.len(), expect.len(), "q{qi} switch count");
        for (a, b) in switches.iter().zip(expect) {
            assert_eq!(a, b, "q{qi} switch event");
        }
        let served = service.status(qi).expect("registered");
        let expected = reference.status(qi).expect("registered");
        for (a, b) in served.pipelines.iter().zip(&expected.pipelines) {
            assert_eq!(a.estimator, b.estimator, "q{qi} p{} final choice", a.pipeline);
        }
        assert_eq!(served.progress.to_bits(), expected.progress.to_bits(), "q{qi}");
    }
}

#[test]
fn service_registration_errors_and_late_join_are_graceful() {
    let spec = WorkloadSpec::new(WorkloadKind::TpchLike, 7).with_queries(2).with_scale(0.3);
    let w = materialize(&spec);
    let catalog = Catalog::new(&w.db, &w.design);
    let builder = PlanBuilder::new(&w.db, &w.stats, &w.design);
    let plan = builder.build(&w.queries[0]).expect("plan");

    let service =
        MonitorBuilder::fixed(EstimatorKind::Tgn).shards(2).build_service().expect("build");
    assert_eq!(service.try_register(0, &plan), Ok(()));
    assert_eq!(service.try_register(0, &plan), Err(RegisterError::DuplicateQuery(0)));

    // An unregistered query streaming through the tap is ignored; a query
    // registered only after its stream started is dropped on first
    // contact, not served corrupted.
    let late = 1usize;
    let runs = prosel::engine::run_plan_tapped(
        &catalog,
        &plan,
        &ExecConfig::default(),
        late,
        service.tap(),
    );
    assert!(runs.trace.snapshots.len() > 1);
    service.quiesce();
    assert_eq!(service.query_progress(late), Err(QueryError::QueryUnknown(late)));
    service.register(late, &plan);
    let _ = prosel::engine::run_plan_tapped(
        &catalog,
        &plan,
        &ExecConfig::default(),
        late,
        service.tap(),
    );
    // The second stream also starts at seq 0 relative to the engine run,
    // which the shard accepts as a fresh stream for the new registration.
    service.quiesce();
    assert_eq!(service.query_progress(late), Ok(1.0));
    service.shutdown();
}

/// Release-mode stress of the workers' park/wake handshake (CI runs it
/// optimized): 8 shards on 2 workers, two producers alternating small
/// bursts on random shards with idle gaps, some long enough for the
/// workers to park and some short enough to race a worker on its way
/// into the park. Every burst ends in a blocking `ingest`, which must
/// return with the whole burst visible; a watchdog turns a hang into a
/// failure instead of a stuck CI job. A lost wakeup would only cost the
/// 10 ms park timeout, so the typical `ingest` must also stay far below
/// that.
#[test]
fn park_wake_stress_drains_every_burst() {
    use prosel::engine::plan::{OperatorKind, PhysicalPlan, PlanNode};
    use prosel::engine::trace::{Snapshot, TraceEvent};
    use prosel::monitor::RuntimeConfig;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use std::time::{Duration, Instant};

    const SHARDS: usize = 8;
    const PRODUCERS: usize = 2;
    const QUERIES: usize = 64;
    const ROUNDS: usize = 150;

    let plan = PhysicalPlan {
        nodes: vec![PlanNode {
            op: OperatorKind::TableScan { table: "t".into(), cols: vec![0] },
            children: vec![],
            est_rows: 1000.0,
            est_row_bytes: 8.0,
            out_cols: 1,
        }],
        root: 0,
    };
    let snapshot = |query: usize, seq: u64| {
        let k = seq + 1;
        TraceEvent::Snapshot {
            query,
            seq,
            wall: k as f64,
            snapshot: Snapshot {
                time: k as f64,
                k: vec![k].into_boxed_slice(),
                bytes_read: vec![k * 8].into_boxed_slice(),
                bytes_written: vec![0].into_boxed_slice(),
                materialized: vec![0].into_boxed_slice(),
            },
            windows: vec![(1.0, k as f64)].into_boxed_slice(),
        }
    };

    let service = MonitorBuilder::fixed(EstimatorKind::Dne)
        .shards(SHARDS)
        .runtime(RuntimeConfig { worker_threads: 2, ..RuntimeConfig::default() })
        .build_service()
        .expect("build");
    assert_eq!(service.n_workers(), 2);
    for q in 0..QUERIES {
        service.register(q, &plan);
    }
    let parks = || service.metrics().counter("runtime_parks_total").unwrap_or(0);
    let parks_before = parks();

    // Producer `p` owns the queries with `(q / SHARDS) % PRODUCERS == p`:
    // `QUERIES / SHARDS / PRODUCERS` of them on every shard, so each
    // query's stream has one writer and stays in sequence.
    let outcomes: Vec<(Vec<u64>, Vec<Duration>)> = std::thread::scope(|scope| {
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let service = &service;
                let snapshot = &snapshot;
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0x5EED + p as u64);
                    let mut seqs = vec![0u64; QUERIES];
                    let mut waits = Vec::with_capacity(ROUNDS);
                    let tap = service.tap();
                    for _ in 0..ROUNDS {
                        let shard = rng.random_range(0..SHARDS);
                        let burst: Vec<usize> = (shard..QUERIES)
                            .step_by(SHARDS)
                            .filter(|q| (q / SHARDS) % PRODUCERS == p)
                            .collect();
                        let (last, rest) = burst.split_last().expect("non-empty burst");
                        for &q in rest {
                            tap.send(snapshot(q, seqs[q])).expect("shard alive");
                            seqs[q] += 1;
                        }
                        // Read-your-writes: the shard is FIFO, so once the
                        // last event is drained the whole burst is.
                        let start = Instant::now();
                        service.ingest(snapshot(*last, seqs[*last]));
                        waits.push(start.elapsed());
                        seqs[*last] += 1;
                        for &q in &burst {
                            let want = seqs[q] as f64 / 1000.0;
                            let got = service.query_progress(q).expect("registered");
                            assert!((got - want).abs() < 1e-12, "q{q}: {got} != {want}");
                        }
                        match rng.random_range(0..4) {
                            0 => {}
                            1 => std::thread::yield_now(),
                            2 => std::thread::sleep(Duration::from_micros(200)),
                            _ => std::thread::sleep(Duration::from_millis(3)),
                        }
                    }
                    (seqs, waits)
                })
            })
            .collect();
        let start = Instant::now();
        while producers.iter().any(|h| !h.is_finished()) {
            assert!(start.elapsed() < Duration::from_secs(60), "a burst was never drained");
            std::thread::sleep(Duration::from_millis(5));
        }
        producers.into_iter().map(|h| h.join().expect("producer")).collect()
    });

    let (sent, waits): (Vec<Vec<u64>>, Vec<Vec<Duration>>) = outcomes.into_iter().unzip();
    let mut waits: Vec<Duration> = waits.into_iter().flatten().collect();
    waits.sort_unstable();
    let median = waits[waits.len() / 2];
    assert!(median < Duration::from_millis(2), "median ingest {median:?}: lost wakeups?");

    service.quiesce();
    let total: u64 = sent.iter().flatten().sum();
    let stats = service.stats().expect("stats");
    assert_eq!(stats.events_ingested, total, "conservation: every sent event was ingested");
    assert_eq!((stats.events_unroutable, stats.events_rejected), (0, 0));
    for q in 0..QUERIES {
        let seq: u64 = sent.iter().map(|s| s[q]).sum();
        let got = service.query_progress(q).expect("registered");
        assert!((got - seq as f64 / 1000.0).abs() < 1e-12, "q{q} final progress");
    }
    assert!(parks() > parks_before, "the workers never parked: the park path did not run");
    service.shutdown();
}
