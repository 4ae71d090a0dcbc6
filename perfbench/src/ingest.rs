//! `ingest-open`: the write path under an open-loop offered load.
//!
//! One generator thread replays captured event streams into a live
//! `MonitorService` at a fixed offered event rate, probing a sample of the
//! events until a reader sees them (freshness), then floods bursts cycled
//! from a fixed set of round streams as fast as the tap accepts them and
//! quiesces once per round (burst visibility and ingest throughput, from
//! each stream's fastest round). The traced run adds a twin replay of the
//! paced stream through a `ProgressMonitor` built by the same builder, and
//! through the estimator pieces the shard composes, to split the write
//! path into per-layer self times.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use prosel_bench::traffic::synthetic_selector;
use prosel_core::features::dynamic_features;
use prosel_core::features::static_features;
use prosel_core::selection::EstimatorSelector;
use prosel_engine::clock::{Clock, SystemClock};
use prosel_engine::trace::{thin_half, DeltaDecoder, TraceEvent};
use prosel_engine::{decompose, TraceTap};
use prosel_estimators::soa::BoundsKernel;
use prosel_estimators::{EstimatorKind, IncrementalObs, SnapshotCtx};
use prosel_monitor::{MonitorConfig, MonitorService};
use prosel_obs::MetricsSnapshot;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::{Checks, Report, OVERHEAD_PCT_BOUND, UNEXPLAINED_PCT_BOUND};
use crate::spans::Tracer;
use crate::stats::{median, peak_rss_mb, quantile, quiet_quantile};
use crate::templates::{restamp, stamp, Arrival, CaptureSize, Step, TemplateSet};
use crate::{monitor_builder, pin_generator, Params, SETUPS};

/// Sizing of one `ingest-open` run.
struct Size {
    capture: CaptureSize,
    /// Offered event rate of the paced phase, events/s. Fixed (not
    /// calibrated per host) and set well below the service's flood
    /// capacity, so the phase measures freshness rather than a backlog.
    rate: f64,
    /// Queries replayed side by side.
    concurrency: usize,
    /// Every this many paced events is probed for freshness.
    probe_every: usize,
    /// Events per flood round.
    flood_events: usize,
    shards: usize,
    /// Paced events the traced twin replays at most.
    twin_events: usize,
}

impl Size {
    fn of(p: &Params) -> Size {
        if p.tiny {
            Size {
                capture: CaptureSize { templates_per_workload: 1, scale: 0.1 },
                rate: 4_000.0,
                concurrency: 8,
                probe_every: 4,
                flood_events: 500,
                shards: 2,
                twin_events: 2_000,
            }
        } else {
            Size {
                capture: CaptureSize { templates_per_workload: 4, scale: 0.25 },
                rate: 20_000.0,
                concurrency: 64,
                probe_every: 8,
                flood_events: 1_000,
                shards: 4,
                twin_events: 40_000,
            }
        }
    }
}

/// Share of `--seconds` spent in the paced phase; the rest floods.
const PACED_SHARE: f64 = 0.6;
/// Distinct flood round streams; rounds cycle through them, so each is
/// sent many times and its fastest round can be told from host noise.
const FLOOD_STREAMS: u64 = 24;
/// Cadence of `service.metrics()` scrapes during the paced phase.
const SCRAPE_EVERY: Duration = Duration::from_millis(100);
/// Window length, in seconds, of the quiet-window percentiles.
const WINDOW_S: f64 = 0.5;
/// A probe not seen within this long counts as a failed read.
const PROBE_TIMEOUT: Duration = Duration::from_secs(2);

/// Everything set-up builds; the timed phases start from it.
struct World {
    templates: TemplateSet,
    selector: Arc<EstimatorSelector>,
    clock: Arc<SystemClock>,
    service: MonitorService,
    paced: (Vec<Arrival>, Vec<Step>),
    setup_tracer: Tracer,
}

fn set_up(p: &Params, size: &Size) -> World {
    let mut setup_tracer = Tracer::new(p.trace);
    let templates = TemplateSet::capture(p.seed, size.capture, &mut setup_tracer);
    let selector = Arc::new(synthetic_selector(EstimatorKind::Dne));
    let clock = Arc::new(SystemClock::new());
    let service = monitor_builder(Arc::clone(&selector), &clock)
        .shards(size.shards)
        .build_service()
        .expect("selector services always build");
    let paced_events = (size.rate * p.seconds * PACED_SHARE) as usize;
    let mut rng = StdRng::seed_from_u64(p.seed ^ 0x1A6E_5707);
    let paced = templates.interleave(&mut rng, 0, size.concurrency, paced_events.max(1));
    for a in &paced.0 {
        let plan = Arc::clone(&templates.template(a.slot, a.rank).plan);
        service.try_register(a.query, plan).expect("fresh ids register");
    }
    World { templates, selector, clock, service, paced, setup_tracer }
}

/// A sampled paced event the generator waits to see published.
struct Probe {
    query: usize,
    /// `status(q).time` must reach this (or the query must finish).
    stamp: f64,
    finished: bool,
    due: Instant,
    /// Where the probe's entry in [`Paced::resolved`] is.
    slot: usize,
    /// Whether the probe's first read was kept as a read sample.
    sampled: bool,
}

/// One probed event, once a read showed it.
#[derive(Debug, Clone, Copy)]
struct Resolved {
    step: usize,
    /// Seconds into the phase the event was due.
    at: f64,
    fresh_us: f64,
    late_us: f64,
    send_ns: f64,
}

/// What the paced phase measured.
#[derive(Default)]
struct Paced {
    resolved: Vec<Resolved>,
    late_us: Vec<f64>,
    read_ns: Vec<f64>,
    /// `(seconds into the phase, sent − ingested)` at each scrape.
    backlog: Vec<(f64, f64)>,
    depth_peak: f64,
    bytes: u64,
    deltas: u64,
    sent: u64,
}

/// Send `steps` at the paced rate, probing every `probe_every`-th
/// stamped event until a `status` read shows it.
fn paced_phase(
    w: &World,
    tap: &TraceTap,
    steps: &[(usize, Step)],
    size: &Size,
    tracer: &mut Tracer,
    checks: &mut Checks,
    out: &mut Paced,
) {
    let t0 = Instant::now();
    let period = 1.0 / size.rate;
    let mut pending: Vec<Probe> = Vec::new();
    let mut next_scrape = t0;
    let sent_before = out.sent;
    let ingested_before = ingested(&w.service.metrics());
    // Every sample vector has a size fixed by the stream, not by how fast
    // the host ran, so the run's peak memory does not depend on timing.
    let probes = steps.len().div_ceil(size.probe_every);
    out.late_us.reserve_exact(steps.len());
    out.resolved.reserve_exact(probes);
    out.read_ns.reserve_exact(probes);
    let poll =
        |pending: &mut Vec<Probe>, out: &mut Paced, tracer: &mut Tracer, checks: &mut Checks| {
            pending.retain_mut(|pr| {
                let t = Instant::now();
                let status = w.service.status(pr.query);
                let done = Instant::now();
                // Probes poll in a tight loop: keep each probe's first read
                // as the read sample.
                if !pr.sampled {
                    pr.sampled = true;
                    tracer.record(
                        "monitor.service.read.status",
                        out.resolved[pr.slot].step as u64,
                        t,
                        done,
                    );
                    out.read_ns.push((done - t).as_nanos() as f64);
                }
                let status = match status {
                    Ok(s) => s,
                    Err(e) => {
                        checks.fail(format!("status of q{}: {e}", pr.query));
                        return false;
                    }
                };
                checks.check(
                    status.progress.is_finite() && (0.0..=1.0).contains(&status.progress),
                    || format!("q{} progress {} outside [0,1]", pr.query, status.progress),
                );
                let seen = if pr.finished { status.finished } else { status.time >= pr.stamp };
                if seen {
                    out.resolved[pr.slot].fresh_us = (done - pr.due).as_secs_f64() * 1e6;
                    return false;
                }
                if done - pr.due > PROBE_TIMEOUT {
                    checks.fail(format!("an event of q{} was not visible after 2 s", pr.query));
                    return false;
                }
                true
            });
        };
    for (i, &(idx, step)) in steps.iter().enumerate() {
        let due = t0 + Duration::from_secs_f64(i as f64 * period);
        loop {
            poll(&mut pending, out, tracer, checks);
            let now = Instant::now();
            if now >= next_scrape {
                next_scrape = now + SCRAPE_EVERY;
                let m = w.service.metrics();
                let after = Instant::now();
                tracer.record("obs.scrape", i as u64, now, after);
                let backlog = (out.sent - sent_before) as f64 - (ingested(&m) - ingested_before);
                out.backlog.push(((now - t0).as_secs_f64(), backlog));
                out.depth_peak = out.depth_peak.max(m.gauge("runtime_queue_depth").unwrap_or(0.0));
            }
            if Instant::now() >= due {
                break;
            }
        }
        let template_event =
            &w.templates.template(step.slot, step.rank).events[step.event as usize];
        let ev = restamp(template_event, step.query, w.clock.now());
        out.bytes += ev.payload_bytes() as u64;
        out.deltas += matches!(ev, TraceEvent::Delta { .. }) as u64;
        let start = Instant::now();
        let sent = tap.send(ev);
        let end = Instant::now();
        tracer.record("monitor.router.send", idx as u64, start, end);
        out.sent += 1;
        checks.check(sent.is_ok(), || format!("tap refused event {idx}"));
        let late = start.saturating_duration_since(due).as_secs_f64() * 1e6;
        out.late_us.push(late);
        if i % size.probe_every != 0 {
            continue;
        }
        let Some(s) = stamp(template_event) else { continue };
        out.resolved.push(Resolved {
            step: idx,
            at: (due - t0).as_secs_f64(),
            fresh_us: f64::NAN,
            late_us: late,
            send_ns: (end - start).as_nanos() as f64,
        });
        pending.push(Probe {
            query: step.query,
            stamp: s,
            finished: matches!(template_event, TraceEvent::Finished { .. }),
            due,
            slot: out.resolved.len() - 1,
            sampled: false,
        });
    }
    while !pending.is_empty() {
        poll(&mut pending, out, tracer, checks);
    }
    out.resolved.retain(|r| r.fresh_us.is_finite());
}

fn ingested(m: &MetricsSnapshot) -> f64 {
    m.sum_counters("_events_ingested_total") as f64
}

/// Least-squares growth of the backlog over the phase, in events.
fn backlog_growth(samples: &[(f64, f64)]) -> f64 {
    let n = samples.len() as f64;
    if n < 3.0 {
        return 0.0;
    }
    let mt = samples.iter().map(|s| s.0).sum::<f64>() / n;
    let mb = samples.iter().map(|s| s.1).sum::<f64>() / n;
    let cov: f64 = samples.iter().map(|s| (s.0 - mt) * (s.1 - mb)).sum();
    let var: f64 = samples.iter().map(|s| (s.0 - mt).powi(2)).sum();
    let span = samples.last().map_or(0.0, |s| s.0) - samples[0].0;
    if var > 0.0 {
        cov / var * span
    } else {
        0.0
    }
}

/// Check that every query of `arrivals` finished, then unregister it.
fn retire(service: &MonitorService, arrivals: &[Arrival], checks: &mut Checks) {
    for a in arrivals {
        let finished = service.is_finished(a.query);
        checks.check(finished == Ok(true), || format!("q{} not finished: {finished:?}", a.query));
        let gone = service.unregister(a.query);
        checks.check(gone.is_ok(), || format!("unregister q{}: {gone:?}", a.query));
    }
}

/// What one flood round measured.
struct Flood {
    events: u64,
    secs: f64,
    quiesce_us: f64,
}

/// One flood round: register round stream `stream` (the same queries and
/// events each time, under fresh ids), send it as fast as the tap
/// accepts, quiesce once.
#[allow(clippy::too_many_arguments)]
fn flood_round(
    w: &World,
    tap: &TraceTap,
    seed: u64,
    stream: u64,
    first_id: &mut usize,
    size: &Size,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Flood {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xF100_D000 ^ (stream << 40));
    let (arrivals, steps) =
        w.templates.interleave(&mut rng, *first_id, size.concurrency, size.flood_events);
    *first_id += arrivals.len();
    for a in &arrivals {
        let plan = Arc::clone(&w.templates.template(a.slot, a.rank).plan);
        let r = w.service.try_register(a.query, plan);
        checks.check(r.is_ok(), || format!("register q{}: {r:?}", a.query));
    }
    // The round's events are built before the clock starts, so the round
    // times the service, not the generator.
    let now = w.clock.now();
    let events: Vec<(usize, TraceEvent)> = steps
        .iter()
        .map(|s| {
            let ev = &w.templates.template(s.slot, s.rank).events[s.event as usize];
            (s.query, restamp(ev, s.query, now))
        })
        .collect();
    let start = Instant::now();
    for (query, ev) in events {
        let r = tap.send(ev);
        checks.check(r.is_ok(), || format!("tap refused flood event of q{query}"));
    }
    let q0 = Instant::now();
    w.service.quiesce();
    let end = Instant::now();
    tracer.record("monitor.service.quiesce", *first_id as u64, q0, end);
    retire(&w.service, &arrivals, checks);
    Flood {
        events: steps.len() as u64,
        secs: (end - start).as_secs_f64(),
        quiesce_us: (end - q0).as_secs_f64() * 1e6,
    }
}

pub fn run(p: &Params) -> Report {
    let size = Size::of(p);
    let mut report = Report::new("ingest-open");
    let mut checks = Checks::default();

    let mut setup_s = Vec::new();
    let mut world = None;
    for _ in 0..SETUPS {
        drop(world.take());
        let t = Instant::now();
        world = Some(set_up(p, &size));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let w = world.expect("at least one set-up");
    pin_generator();
    let tap = w.service.tap();
    let phase_start = Instant::now();

    // Paced phase. A traced run paces its first half untraced, as the
    // baseline of the tracing overhead, and traces the second half.
    let steps: Vec<(usize, Step)> = w.paced.1.iter().copied().enumerate().collect();
    let split = if p.trace { steps.len() / 2 } else { steps.len() };
    let mut untraced = Tracer::new(false);
    let mut tracer = Tracer::new(p.trace);
    let mut base = Paced::default();
    paced_phase(&w, &tap, &steps[..split], &size, &mut untraced, &mut checks, &mut base);
    let mut traced = Paced { sent: base.sent, ..Paced::default() };
    if p.trace {
        paced_phase(&w, &tap, &steps[split..], &size, &mut tracer, &mut checks, &mut traced);
    }
    let paced_sent = traced.sent;
    w.service.quiesce();
    retire(&w.service, &w.paced.0, &mut checks);

    // Flood phase: rounds cycling through the round streams until the
    // run's time is up, at least one. Each stream keeps its fastest round.
    let mut next_id = w.paced.0.len();
    let mut flood_sent = 0u64;
    let mut rounds = 0u64;
    let mut best: Vec<Option<Flood>> = (0..FLOOD_STREAMS).map(|_| None).collect();
    let mut quiesce_us = Vec::new();
    let deadline = phase_start + Duration::from_secs_f64(p.seconds);
    while rounds == 0 || Instant::now() < deadline {
        let stream = rounds % FLOOD_STREAMS;
        let round =
            flood_round(&w, &tap, p.seed, stream, &mut next_id, &size, &mut tracer, &mut checks);
        flood_sent += round.events;
        rounds += 1;
        quiesce_us.push(round.quiesce_us);
        let b = &mut best[stream as usize];
        if b.as_ref().is_none_or(|b| round.secs < b.secs) {
            *b = Some(round);
        }
    }

    // Conservation over the whole run.
    let stats = w.service.stats().expect("no shard panicked");
    let total = paced_sent + flood_sent;
    checks.check(stats.events_ingested == total, || {
        format!("sent {total} events, shards ingested {}", stats.events_ingested)
    });
    checks
        .check(stats.events_unroutable == 0, || format!("{} unroutable", stats.events_unroutable));
    checks.check(stats.events_rejected == 0, || format!("{} rejected", stats.events_rejected));
    checks.check(stats.queries_dropped == 0, || format!("{} dropped", stats.queries_dropped));
    checks.check(stats.registered == 0, || format!("{} registrations leaked", stats.registered));

    // Backlog: a growing queue means the offered rate exceeds capacity
    // and the freshness figures describe a backlog, not the service.
    let growth = backlog_growth(&base.backlog);
    let limit = (size.rate * 0.01).max(64.0);
    checks.check(growth <= limit, || {
        format!("paced backlog grew by {growth:.0} events (limit {limit:.0}): rate above capacity")
    });

    let fresh: Vec<(f64, f64)> = base.resolved.iter().map(|r| (r.at, r.fresh_us)).collect();
    let fresh_n = fresh.len();
    let fresh_p50 = quiet_quantile(&fresh, WINDOW_S, 0.5);
    let fresh_p90 = quiet_quantile(&fresh, WINDOW_S, 0.9);
    let fresh_p99 = quiet_quantile(&fresh, WINDOW_S, 0.99);
    let mut reads = base.read_ns.clone();
    let read_p50 = quantile(&mut reads, 0.5);
    let read_p99 = quantile(&mut reads, 0.99);
    // Each stream's fastest round: the burst's visibility time per 1,000
    // events, and the rate of all the fastest rounds together.
    let best: Vec<&Flood> = best.iter().flatten().collect();
    let mut burst_us: Vec<f64> = best.iter().map(|b| b.secs * 1e9 / b.events as f64).collect();
    let burst_p50 = median(&mut burst_us);
    let best_events: u64 = best.iter().map(|b| b.events).sum();
    let flood_rate = best_events as f64 / best.iter().map(|b| b.secs).sum::<f64>();
    let setup = median(&mut setup_s.clone());
    let rss = peak_rss_mb();
    let late_p99 = quantile(&mut base.late_us.clone(), 0.99);

    report.e2e("setup_s", setup, setup_s.len());
    report.e2e("peak_rss_mb", rss, 1);
    report.e2e("latency_p50_us", burst_p50, burst_us.len());
    report.e2e("throughput_per_s", flood_rate, rounds as usize);
    report.named("freshness_p50_us", fresh_p50, "us", fresh_n);
    report.named("freshness_p90_us", fresh_p90, "us", fresh_n);
    report.named("freshness_p99_us", fresh_p99, "us", fresh_n);
    report.named("ingest_events_per_s", flood_rate, "1/s", rounds as usize);
    report.named("burst_visible_p50_us", burst_p50, "us", burst_us.len());
    report.named("read_p50_ns", read_p50, "ns", reads.len());
    report.named("read_p99_ns", read_p99, "ns", reads.len());
    report.named("gen.late_p99_us", late_p99, "us", base.late_us.len());
    report.named("backlog_growth_events", growth, "count", base.backlog.len());
    report.named("paced_rate_per_s", size.rate, "1/s", base.sent as usize);

    if p.trace {
        layers(&size, split, &w, &base, &traced, &tracer, &quiesce_us, &mut report, &mut checks);
        if let Some(dir) = &p.span_dir {
            let _ = tracer.write_tsv(&dir.join("ingest-open.tsv"));
        }
    }
    drop(tap);
    w.service.shutdown();
    report.checks = checks;
    report
}

/// Twin replay and budget reconciliation of the traced run.
#[allow(clippy::too_many_arguments)]
fn layers(
    size: &Size,
    split: usize,
    w: &World,
    base: &Paced,
    traced: &Paced,
    tracer: &Tracer,
    quiesce_us: &[f64],
    report: &mut Report,
    checks: &mut Checks,
) {
    let setup = w.setup_tracer.self_times();
    let mut run_plan: Vec<f64> = setup
        .get("engine.run_plan")
        .cloned()
        .unwrap_or_default()
        .iter()
        .map(|ns| ns / 1e6)
        .collect();
    report.layer("engine.run_plan_ms.p50", quantile(&mut run_plan, 0.5), run_plan.len());
    report.layer("engine.run_plan_ms.p99", quantile(&mut run_plan, 0.99), run_plan.len());
    let materialize: f64 =
        setup.get("planner.materialize").map_or(0.0, |v| v.iter().sum::<f64>() / 1e9);
    report.layer("planner.materialize_s", materialize, 6);
    // `traced.sent` counts on from the untraced half: it is the total.
    let sent = traced.sent.max(1) as f64;
    report.layer(
        "engine.tap_bytes_per_event",
        (base.bytes + traced.bytes) as f64 / sent,
        sent as usize,
    );
    report.layer("engine.delta_share", (base.deltas + traced.deltas) as f64 / sent, sent as usize);

    // Twin replay of the traced half's stream, from each query's first
    // event on (a stream joined mid-way cannot be decoded).
    let mut started = HashSet::new();
    let twin_steps: Vec<(usize, Step)> = w.paced.1[split..]
        .iter()
        .copied()
        .enumerate()
        .map(|(i, s)| (split + i, s))
        .filter(|(_, s)| (s.event == 0 && started.insert(s.query)) || started.contains(&s.query))
        .take(size.twin_events)
        .collect();
    let mut twin_tracer = Tracer::new(true);
    let twin_ingest = twin_replay(w, &twin_steps, &mut twin_tracer, checks);
    let st = twin_tracer.self_times();
    let med = |name: &str| st.get(name).map_or(0.0, |v| median(&mut v.clone()));
    let count = |name: &str| st.get(name).map_or(0, Vec::len);
    let mut ingest: Vec<f64> = twin_ingest.values().copied().collect();
    report.layer("monitor.shard.ingest_ns.p50", quantile(&mut ingest, 0.5), ingest.len());
    report.layer("monitor.shard.ingest_ns.p99", quantile(&mut ingest, 0.99), ingest.len());
    for (layer, span) in [
        ("engine.delta_decode_ns", "engine.delta_decode"),
        ("estimators.bounds_ns", "estimators.bounds"),
        ("mart.select_ns", "mart.select"),
        ("estimators.offer_ns", "estimators.offer"),
    ] {
        report.layer(layer, med(span), count(span));
    }
    report.layer("core.features_us", med("core.features") / 1e3, count("core.features"));

    // Paced-phase spans of the traced half.
    let own = tracer.self_times();
    let span_med = |name: &str| own.get(name).map_or(0.0, |v| median(&mut v.clone()));
    let span_n = |name: &str| own.get(name).map_or(0, Vec::len);
    report.layer(
        "monitor.router.send_ns",
        span_med("monitor.router.send"),
        span_n("monitor.router.send"),
    );
    let mut status = own.get("monitor.service.read.status").cloned().unwrap_or_default();
    report.layer("monitor.service.read_ns.status.p50", quantile(&mut status, 0.5), status.len());
    report.layer("monitor.service.read_ns.status.p99", quantile(&mut status, 0.99), status.len());
    report.layer("obs.scrape_us", span_med("obs.scrape") / 1e3, span_n("obs.scrape"));
    report.layer("monitor.service.quiesce_us", median(&mut quiesce_us.to_vec()), quiesce_us.len());
    report.layer(
        "gen.late_p99_us",
        quantile(&mut traced.late_us.clone(), 0.99),
        traced.late_us.len(),
    );
    let m = w.service.metrics();
    report.layer(
        "monitor.runtime.steals",
        m.counter("runtime_steals_total").unwrap_or(0) as f64,
        1,
    );
    report.layer("monitor.runtime.parks", m.counter("runtime_parks_total").unwrap_or(0) as f64, 1);
    report.layer(
        "monitor.runtime.queue_depth_peak",
        base.depth_peak.max(traced.depth_peak),
        traced.backlog.len(),
    );

    // Budget: per probed event, queue wait is what freshness leaves after
    // generator lateness, the router send and the event's own shard
    // ingest (from the twin); the medians of the stages should add up to
    // the median freshness.
    let mut fresh = Vec::new();
    let mut late = Vec::new();
    let mut send = Vec::new();
    let mut own_ingest = Vec::new();
    let mut wait = Vec::new();
    for &Resolved { step, fresh_us: f, late_us: l, send_ns: s, .. } in &traced.resolved {
        let Some(&ing) = twin_ingest.get(&step) else { continue };
        fresh.push(f);
        late.push(l);
        send.push(s / 1e3);
        own_ingest.push(ing / 1e3);
        wait.push((f - l - s / 1e3 - ing / 1e3).max(0.0));
    }
    let n = fresh.len();
    let (f50, l50, s50, i50, w50) = (
        median(&mut fresh),
        median(&mut late),
        median(&mut send),
        median(&mut own_ingest),
        median(&mut wait),
    );
    report.layer("monitor.runtime.wait_us", w50, n);
    let unexplained = 100.0 * (f50 - (l50 + s50 + i50 + w50)).abs() / f50;
    report.layer("trace.unexplained_pct", unexplained, n);
    let mut base_fresh: Vec<f64> = base.resolved.iter().map(|r| r.fresh_us).collect();
    let b50 = median(&mut base_fresh);
    let overhead = 100.0 * (f50 - b50) / b50;
    report.layer("trace.overhead_pct", overhead, n);
    report.notes.push(format!(
        "budget (ingest-open, traced half, n={n} probes): freshness p50 {f50:.2} us = lateness {l50:.2} + \
         router send {s50:.2} + queue wait {w50:.2} + shard ingest {i50:.2} us; \
         unexplained {unexplained:.2}% (bound {UNEXPLAINED_PCT_BOUND}%), \
         tracing overhead {overhead:.2}% vs untraced p50 {b50:.2} us (bound {OVERHEAD_PCT_BOUND}%)"
    ));
    let reconciled = unexplained <= UNEXPLAINED_PCT_BOUND && overhead.abs() <= OVERHEAD_PCT_BOUND;
    report.notes.push(format!("budget reconciled: {}", if reconciled { "yes" } else { "NO" }));
}

/// Per-query state of the layer replay: what a shard keeps per query,
/// rebuilt from the estimator crate's public pieces.
struct TwinQuery {
    decoder: DeltaDecoder,
    kernel: BoundsKernel,
    ctx: SnapshotCtx,
    obs: Vec<IncrementalObs>,
    static_feats: Vec<Vec<f32>>,
    since_select: Vec<usize>,
    live: Vec<u64>,
    serial: u64,
}

/// Replay `steps` through a twin `ProgressMonitor` (per-event ingest ns,
/// keyed by step) and through the layers the shard composes (spans).
fn twin_replay(
    w: &World,
    steps: &[(usize, Step)],
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> HashMap<usize, f64> {
    let mut twin = monitor_builder(Arc::clone(&w.selector), &w.clock)
        .build_monitor()
        .expect("selector monitors always build");
    let mut queries: HashMap<usize, TwinQuery> = HashMap::new();
    let mut ingest_ns = HashMap::with_capacity(steps.len());
    let reselect_every = MonitorConfig::default().reselect_every;
    for &(idx, step) in steps {
        let tpl = w.templates.template(step.slot, step.rank);
        if let Entry::Vacant(slot) = queries.entry(step.query) {
            twin.try_register(step.query, Arc::clone(&tpl.plan)).expect("fresh twin id");
            let pipelines = decompose(&tpl.plan);
            slot.insert(TwinQuery {
                decoder: DeltaDecoder::new(),
                kernel: BoundsKernel::new(&tpl.plan),
                ctx: SnapshotCtx::empty(),
                obs: pipelines
                    .iter()
                    .map(|pl| IncrementalObs::new(Arc::clone(&tpl.plan), pl))
                    .collect(),
                static_feats: (0..pipelines.len())
                    .map(|pid| static_features::extract_parts(&tpl.plan, &pipelines, pid))
                    .collect(),
                since_select: vec![0; pipelines.len()],
                live: Vec::new(),
                serial: 0,
            });
        }
        let ev = &tpl.events[step.event as usize];
        let stamped = restamp(ev, step.query, 0.0);
        let t = Instant::now();
        twin.ingest(stamped);
        let end = Instant::now();
        tracer.record("monitor.shard.ingest", idx as u64, t, end);
        ingest_ns.insert(idx, (end - t).as_nanos() as f64);

        let q = queries.get_mut(&step.query).expect("inserted above");
        let id = idx as u64;
        let advanced = match ev {
            TraceEvent::Snapshot { snapshot, windows, .. } => {
                q.decoder.apply_full(snapshot, windows);
                true
            }
            TraceEvent::Delta { time, changes, window_updates, .. } => {
                let ok = tracer.time("engine.delta_decode", id, None, || {
                    q.decoder.apply_delta(*time, changes, window_updates)
                });
                checks.check(ok, || format!("delta of q{} did not decode", step.query));
                ok
            }
            TraceEvent::Thinned { .. } => {
                thin_half(&mut q.live);
                for o in &mut q.obs {
                    o.thin(&q.live);
                }
                false
            }
            TraceEvent::Finished { windows, .. } => {
                for o in &mut q.obs {
                    let pid = o.pipeline_id();
                    o.finalize(windows[pid]);
                }
                false
            }
        };
        if !advanced {
            continue;
        }
        let TwinQuery { decoder, kernel, ctx, obs, static_feats, since_select, live, serial } = q;
        let view = decoder.view();
        tracer.time("estimators.bounds", id, None, || ctx.recompute(kernel, view.k));
        live.push(*serial);
        for (pi, o) in obs.iter_mut().enumerate() {
            let pid = o.pipeline_id();
            let window = decoder.windows()[pid];
            let committed = tracer
                .time("estimators.offer", id, None, || o.offer_view(*serial, view, window, ctx));
            since_select[pi] += committed;
            if committed > 0 && since_select[pi] >= reselect_every && !o.is_empty() {
                since_select[pi] = 0;
                let feats = tracer.time("core.features", id, None, || {
                    let mut f = static_feats[pi].clone();
                    f.extend(dynamic_features::extract(&*o));
                    f
                });
                tracer.time("mart.select", id, None, || {
                    std::hint::black_box(w.selector.select(&feats))
                });
            }
        }
        *serial += 1;
    }
    ingest_ns
}
