//! `read-zipf`: the read path and admission under a steady population.
//!
//! Tens of thousands of registered queries (a working set larger than the
//! per-core caches) are read in a closed loop by one reader thread, with
//! Zipf-skewed query ids, cycling the four read kinds. One writer thread
//! meanwhile churns registrations at a fixed rate, each churned query
//! carrying its whole event stream (the trickle of ingest), and
//! unregisters it once its events have drained.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use prosel_bench::traffic::synthetic_selector;
use prosel_core::features::static_features;
use prosel_engine::clock::{Clock, SystemClock};
use prosel_engine::decompose;
use prosel_estimators::EstimatorKind;
use prosel_monitor::MonitorService;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::report::{Checks, Report};
use crate::spans::{merged_self_times, Tracer};
use crate::stats::{median, peak_rss_mb, quantile};
use crate::templates::{restamp, CaptureSize, TemplateSet, Zipf};
use crate::{monitor_builder, pin_generator, Params, SETUPS};

struct Size {
    capture: CaptureSize,
    /// Registered queries the reader draws from.
    population: usize,
    shards: usize,
    /// Register/unregister pairs per second on the writer thread.
    churn_per_s: f64,
    /// Every this many cycles over the four read kinds keeps the latency
    /// samples of its reads.
    sample_every: usize,
    /// Length of the precomputed Zipf read-id sequence.
    id_sequence: usize,
    /// Reads per block of the id sequence; a multiple of four that
    /// divides `id_sequence`.
    block: usize,
}

impl Size {
    fn of(p: &Params) -> Size {
        if p.tiny {
            Size {
                capture: CaptureSize { templates_per_workload: 1, scale: 0.1 },
                population: 512,
                shards: 2,
                churn_per_s: 200.0,
                sample_every: 4,
                id_sequence: 4096,
                block: 512,
            }
        } else {
            Size {
                capture: CaptureSize { templates_per_workload: 4, scale: 0.25 },
                population: 16_384,
                shards: 4,
                churn_per_s: 400.0,
                sample_every: 16,
                id_sequence: 1 << 20,
                block: 1 << 14,
            }
        }
    }
}

/// Zipf exponent of read popularity over query ids (YCSB's default).
const READ_ZIPF: f64 = 0.99;
/// Events each population query receives at set-up (the rest arrive at
/// teardown, so every query finishes before it is unregistered).
const SETUP_EVENTS: usize = 3;
/// A churned query is unregistered once it has been registered this long,
/// so its events have drained and it has finished.
const CHURN_AGE: Duration = Duration::from_millis(20);
/// How long a churned query may take to finish once it is due.
const FINISH_TIMEOUT: Duration = Duration::from_secs(2);
/// Ids of churned queries start here, above the population.
const CHURN_BASE: usize = 1 << 30;

const READ_KINDS: [&str; 4] = ["progress", "remaining", "deadline", "status"];
const READ_SPANS: [&str; 4] = [
    "monitor.service.read.progress",
    "monitor.service.read.remaining",
    "monitor.service.read.deadline",
    "monitor.service.read.status",
];

struct World {
    templates: TemplateSet,
    clock: Arc<SystemClock>,
    service: MonitorService,
    /// Template `(slot, rank)` of each population query.
    population: Vec<(u32, u32)>,
    /// Zipf-skewed read ids, hot ids spread over the id space.
    read_ids: Vec<u32>,
    sent: u64,
    setup_tracer: Tracer,
}

fn set_up(p: &Params, size: &Size) -> World {
    let mut setup_tracer = Tracer::new(p.trace);
    let templates = TemplateSet::capture(p.seed, size.capture, &mut setup_tracer);
    let clock = Arc::new(SystemClock::new());
    let service = monitor_builder(Arc::new(synthetic_selector(EstimatorKind::Dne)), &clock)
        .shards(size.shards)
        .build_service()
        .expect("selector services always build");
    let mut rng = StdRng::seed_from_u64(p.seed ^ 0x2EAD_2199);
    // Popularity rank r reads query id perm[r]: hot ranks spread over
    // shards and registry buckets by a seeded shuffle. Templates go to
    // ranks round-robin, so every seed reads the same template mix at
    // every popularity level.
    let mut perm: Vec<u32> = (0..size.population as u32).collect();
    for i in (1..perm.len()).rev() {
        perm.swap(i, rng.random_range(0..=i));
    }
    let kinds: Vec<(u32, u32)> = templates
        .per_workload
        .iter()
        .enumerate()
        .flat_map(|(slot, list)| (0..list.len()).map(move |rank| (slot as u32, rank as u32)))
        .collect();
    let mut population = vec![(0u32, 0u32); size.population];
    for (r, &q) in perm.iter().enumerate() {
        population[q as usize] = kinds[r % kinds.len()];
    }
    // Register in one batch per template: one quiesce and core lock per
    // shard per batch.
    for (k, &(slot, rank)) in kinds.iter().enumerate() {
        let qs: Vec<usize> =
            perm.iter().skip(k).step_by(kinds.len()).map(|&q| q as usize).collect();
        for (q, r) in service.try_register_batch(&qs, &templates.template(slot, rank).plan) {
            r.unwrap_or_else(|e| panic!("population query {q} must register: {e}"));
        }
    }
    let tap = service.tap();
    let mut sent = 0u64;
    for (q, &(slot, rank)) in population.iter().enumerate() {
        for ev in templates.template(slot, rank).events.iter().take(SETUP_EVENTS) {
            tap.send(restamp(ev, q, clock.now())).expect("live service accepts events");
            sent += 1;
        }
    }
    service.quiesce();
    let zipf = Zipf::new(size.population, READ_ZIPF);
    let read_ids = (0..size.id_sequence).map(|_| perm[zipf.sample(&mut rng)]).collect();
    World { templates, clock, service, population, read_ids, sent, setup_tracer }
}

/// What the reader thread measured.
struct Reads {
    count: u64,
    /// Passes over id-sequence blocks.
    passes: u64,
    /// Per block of the id sequence, its fastest pass: seconds, and the
    /// ns of that pass's sampled reads.
    best: Vec<Option<(f64, Vec<f64>)>>,
    checks: Checks,
    tracer: Tracer,
}

/// The closed read loop. The Zipf id sequence is cycled block by block,
/// so each block is read many times in one run; each block keeps its
/// fastest pass, the one the host did not interrupt.
fn reader(w: &World, size: &Size, deadline: Instant, trace: bool) -> Reads {
    pin_generator();
    let mut checks = Checks::default();
    let mut tracer = Tracer::new(trace);
    let blocks = w.read_ids.len() / size.block;
    let mut best: Vec<Option<(f64, Vec<f64>)>> = vec![None; blocks];
    let mut pass = Vec::with_capacity(size.block / size.sample_every + 4);
    let s = &w.service;
    let mut i = 0usize;
    let mut passes = 0u64;
    while passes == 0 || Instant::now() < deadline {
        let b = (i % w.read_ids.len()) / size.block;
        let horizon = w.clock.now() + 1.0;
        pass.clear();
        let block_start = Instant::now();
        for _ in 0..size.block {
            let q = w.read_ids[i % w.read_ids.len()] as usize;
            let kind = i % 4;
            let sampled = (i / 4).is_multiple_of(size.sample_every);
            let t = sampled.then(Instant::now);
            // Each arm returns (ok, progress-like value, ETA bracket holds).
            let (ok, value, bracket) = match kind {
                0 => match s.query_progress(q) {
                    Ok(v) => (true, v, true),
                    Err(_) => (false, 0.0, true),
                },
                1 => match s.remaining_time(q) {
                    Ok(eta) => (
                        true,
                        eta.progress,
                        eta.remaining_lo <= eta.remaining && eta.remaining <= eta.remaining_hi,
                    ),
                    Err(_) => (false, 0.0, true),
                },
                2 => match s.progress_at_deadline(q, horizon) {
                    Ok(v) => (true, v, true),
                    Err(_) => (false, 0.0, true),
                },
                _ => match s.status(q) {
                    Ok(st) => (true, st.progress, true),
                    Err(_) => (false, 0.0, true),
                },
            };
            if let Some(t) = t {
                let end = Instant::now();
                pass.push((end - t).as_nanos() as f64);
                // Spans of one sampled cycle in 16 keep the trace small.
                if (i / 4).is_multiple_of(size.sample_every * 16) {
                    tracer.record(READ_SPANS[kind], q as u64, t, end);
                }
            }
            let good = ok && value.is_finite() && (0.0..=1.0).contains(&value) && bracket;
            checks.check(good, || {
                format!(
                    "{} read of q{q}: ok={ok} value={value} bracket={bracket}",
                    READ_KINDS[kind]
                )
            });
            i += 1;
        }
        let secs = block_start.elapsed().as_secs_f64();
        passes += 1;
        if best[b].as_ref().is_none_or(|(fastest, _)| secs < *fastest) {
            best[b] = Some((secs, pass.clone()));
        }
    }
    Reads { count: i as u64, passes, best, checks, tracer }
}

/// What the writer thread measured.
struct Churn {
    /// Register plus matching unregister, µs.
    admit_us: Vec<f64>,
    sent: u64,
    checks: Checks,
    tracer: Tracer,
}

fn writer(w: &World, size: &Size, seed: u64, deadline: Instant, trace: bool) -> Churn {
    let mut c = Churn {
        admit_us: Vec::new(),
        sent: 0,
        checks: Checks::default(),
        tracer: Tracer::new(trace),
    };
    pin_generator();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC4E2_0001);
    let tap = w.service.tap();
    let period = Duration::from_secs_f64(1.0 / size.churn_per_s);
    let selector = synthetic_selector(EstimatorKind::Dne);
    let mut live: VecDeque<(usize, Instant, f64)> = VecDeque::new();
    let mut next = Instant::now();
    let mut k = 0usize;
    let retire = |c: &mut Churn, q: usize, reg_us: f64| {
        // Its events normally drained long ago; a host stall may delay
        // them, so wait (bounded) before calling it unfinished.
        let waited = Instant::now();
        let mut finished = w.service.is_finished(q);
        while finished == Ok(false) && waited.elapsed() < FINISH_TIMEOUT {
            std::thread::sleep(Duration::from_micros(100));
            finished = w.service.is_finished(q);
        }
        c.checks.check(finished == Ok(true), || format!("churned q{q} not finished: {finished:?}"));
        let t = Instant::now();
        let r = w.service.unregister(q);
        let end = Instant::now();
        c.tracer.record("monitor.service.unregister", q as u64, t, end);
        c.checks.check(r.is_ok(), || format!("unregister q{q}: {r:?}"));
        let un = (end - t).as_secs_f64() * 1e6;
        c.admit_us.push(reg_us + un);
    };
    while Instant::now() < deadline {
        let now = Instant::now();
        if next > now {
            std::thread::sleep(next - now);
        }
        next += period;
        let (slot, rank) = w.templates.draw(&mut rng);
        let tpl = w.templates.template(slot, rank);
        let q = CHURN_BASE + k;
        k += 1;
        let t = Instant::now();
        let r = w.service.try_register(q, Arc::clone(&tpl.plan));
        let end = Instant::now();
        c.tracer.record("monitor.service.register", q as u64, t, end);
        c.checks.check(r.is_ok(), || format!("register q{q}: {r:?}"));
        let reg_us = (end - t).as_secs_f64() * 1e6;
        if c.tracer.enabled() {
            // The static selection that registration runs, repeated on the
            // writer's own copy of the selector: features, then the MART
            // prediction.
            let pipelines = decompose(&tpl.plan);
            for pid in 0..pipelines.len() {
                let f = c.tracer.time("core.features", q as u64, None, || {
                    static_features::extract_parts(&tpl.plan, &pipelines, pid)
                });
                c.tracer.time("mart.select", q as u64, None, || {
                    std::hint::black_box(selector.select_static(&f))
                });
            }
        }
        for ev in &tpl.events {
            let r = tap.send(restamp(ev, q, w.clock.now()));
            c.checks.check(r.is_ok(), || format!("tap refused an event of q{q}"));
            c.sent += 1;
        }
        live.push_back((q, Instant::now(), reg_us));
        while let Some(&(old, at, reg)) = live.front() {
            if at.elapsed() < CHURN_AGE {
                break;
            }
            live.pop_front();
            retire(&mut c, old, reg);
        }
    }
    w.service.quiesce();
    while let Some((old, _, reg)) = live.pop_front() {
        retire(&mut c, old, reg);
    }
    c
}

pub fn run(p: &Params) -> Report {
    let size = Size::of(p);
    let mut report = Report::new("read-zipf");
    let mut setup_s = Vec::new();
    let mut world = None;
    for _ in 0..SETUPS {
        if let Some(old) = world.take() {
            let World { service, .. } = old;
            service.shutdown();
        }
        let t = Instant::now();
        world = Some(set_up(p, &size));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let w = world.expect("at least one set-up");

    let deadline = Instant::now() + Duration::from_secs_f64(p.seconds);
    let (reads, churn) = std::thread::scope(|s| {
        let r = s.spawn(|| reader(&w, &size, deadline, p.trace));
        let c = s.spawn(|| writer(&w, &size, p.seed, deadline, p.trace));
        (r.join().expect("reader thread panicked"), c.join().expect("writer thread panicked"))
    });

    // Teardown: finish every population query, check and unregister it.
    let mut checks = Checks::default();
    let tap = w.service.tap();
    let mut sent = w.sent + churn.sent;
    for (q, &(slot, rank)) in w.population.iter().enumerate() {
        for ev in w.templates.template(slot, rank).events.iter().skip(SETUP_EVENTS) {
            let r = tap.send(restamp(ev, q, w.clock.now()));
            checks.check(r.is_ok(), || format!("tap refused a teardown event of q{q}"));
            sent += 1;
        }
    }
    w.service.quiesce();
    for q in 0..w.population.len() {
        let finished = w.service.is_finished(q);
        checks.check(finished == Ok(true), || format!("q{q} not finished: {finished:?}"));
        let r = w.service.unregister(q);
        checks.check(r.is_ok(), || format!("unregister q{q}: {r:?}"));
    }
    let stats = w.service.stats().expect("no shard panicked");
    checks.check(stats.events_ingested == sent, || {
        format!("sent {sent} events, shards ingested {}", stats.events_ingested)
    });
    checks
        .check(stats.events_unroutable == 0, || format!("{} unroutable", stats.events_unroutable));
    checks.check(stats.events_rejected == 0, || format!("{} rejected", stats.events_rejected));
    checks.check(stats.queries_dropped == 0, || format!("{} dropped", stats.queries_dropped));
    checks.check(stats.registered == 0, || format!("{} registrations leaked", stats.registered));

    // Percentiles over the sampled reads of each block's fastest pass;
    // the rate of all the fastest passes together.
    let best: Vec<&(f64, Vec<f64>)> = reads.best.iter().flatten().collect();
    let mut fastest: Vec<f64> = best.iter().flat_map(|b| b.1.iter().copied()).collect();
    let n = fastest.len();
    let read_p50 = quantile(&mut fastest, 0.5);
    let read_p90 = quantile(&mut fastest, 0.9);
    let read_p99 = quantile(&mut fastest, 0.99);
    let reads_per_s = (best.len() * size.block) as f64 / best.iter().map(|b| b.0).sum::<f64>();
    let mut admit = churn.admit_us.clone();
    let admit_p99 = quantile(&mut admit, 0.99);
    let setup = median(&mut setup_s.clone());
    report.e2e("setup_s", setup, setup_s.len());
    report.e2e("peak_rss_mb", peak_rss_mb(), 1);
    report.e2e("latency_p50_us", read_p50 / 1e3, n);
    report.e2e("throughput_per_s", reads_per_s, reads.count as usize);
    report.named("read_p50_ns", read_p50, "ns", n);
    report.named("read_p90_ns", read_p90, "ns", n);
    report.named("read_p99_ns", read_p99, "ns", n);
    report.named("reads_per_s", reads_per_s, "1/s", reads.count as usize);
    report.named("admit_p99_us", admit_p99, "us", admit.len());
    report.named("population", w.population.len() as f64, "count", 1);
    report.named("block_passes", reads.passes as f64, "count", best.len());

    if p.trace {
        let setup_spans = w.setup_tracer.self_times();
        let mut run_plan: Vec<f64> = setup_spans
            .get("engine.run_plan")
            .map_or(Vec::new(), |v| v.iter().map(|ns| ns / 1e6).collect());
        report.layer("engine.run_plan_ms.p50", quantile(&mut run_plan, 0.5), run_plan.len());
        report.layer("engine.run_plan_ms.p99", quantile(&mut run_plan, 0.99), run_plan.len());
        let materialize =
            setup_spans.get("planner.materialize").map_or(0.0, |v| v.iter().sum::<f64>() / 1e9);
        report.layer("planner.materialize_s", materialize, 6);
        let st = merged_self_times(&[&reads.tracer, &churn.tracer]);
        for (kind, span) in READ_KINDS.iter().zip(READ_SPANS) {
            let mut v = st.get(span).cloned().unwrap_or_default();
            let n = v.len();
            report.layer(&format!("monitor.service.read_ns.{kind}.p50"), quantile(&mut v, 0.5), n);
            report.layer(&format!("monitor.service.read_ns.{kind}.p99"), quantile(&mut v, 0.99), n);
        }
        let med = |name: &str| st.get(name).map_or(0.0, |v| median(&mut v.clone()));
        let cnt = |name: &str| st.get(name).map_or(0, Vec::len);
        report.layer(
            "monitor.service.register_us",
            med("monitor.service.register") / 1e3,
            cnt("monitor.service.register"),
        );
        report.layer(
            "monitor.service.unregister_us",
            med("monitor.service.unregister") / 1e3,
            cnt("monitor.service.unregister"),
        );
        report.layer("core.features_us", med("core.features") / 1e3, cnt("core.features"));
        report.layer("mart.select_ns", med("mart.select"), cnt("mart.select"));
        if let Some(dir) = &p.span_dir {
            let _ = reads.tracer.write_tsv(&dir.join("read-zipf-reader.tsv"));
            let _ = churn.tracer.write_tsv(&dir.join("read-zipf-writer.tsv"));
        }
    }
    checks.absorb(reads.checks);
    checks.absorb(churn.checks);
    drop(tap);
    let World { service, .. } = w;
    service.shutdown();
    report.checks = checks;
    report
}
