//! The worker threads behind [`MonitorService`](crate::MonitorService):
//! static shard ownership.
//!
//! Each shard is owned by exactly one worker thread, `shard % workers`,
//! for the service's whole life, so a shard is never drained by two
//! threads at once by construction. A worker loops over its own shards,
//! drains each one's event queue in batches of at most `INGEST_BATCH`
//! (64) events (the service's `drain_batch`, see [`crate::service`]), and
//! parks on its own `Parker` once they are all empty. Reads never come near the workers:
//! a read read-locks the owning shard's slot registry, clones the query's
//! slot `Arc` and runs a seqlock pass over the published snapshot.
//!
//! Design notes:
//!
//! - **No crates.io.** Everything is `std`: one mutex + condvar per worker
//!   for parking, atomics for the `parked` flag.
//! - **Wakeups are free under load.** A producer wakes the owning worker
//!   only when that worker is parked (`Parker::wake` is one atomic load
//!   otherwise), so saturated ingest takes no extra lock and sends no
//!   notify per event.
//! - **No busy-spinning.** An idle worker parks with a 10 ms timeout; the
//!   timeout is belt-and-braces only, correctness never depends on it.
//! - **Core affinity.** [`RuntimeConfig::core_ids`] pins worker `i` to
//!   `core_ids[i % len]` via a raw `sched_setaffinity` call on Linux
//!   (best-effort, no-op elsewhere) so a latency-sensitive deployment can
//!   fence the ingest workers away from serving threads.
//! - **Panic containment** lives in the drain: a panicking shard is
//!   caught there, marked dead and its events counted rejected, and the
//!   worker keeps draining its other shards.

use prosel_obs::{Counter, MetricsRegistry};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Knobs for the shard workers, embedded in
/// [`MonitorConfig`](crate::MonitorConfig).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Number of worker threads, clamped to the shard count (a worker
    /// beyond it would own no shard). `0` (the default) picks
    /// `min(available_parallelism, n_shards)`.
    pub worker_threads: usize,
    /// Optional CPU pinning: worker `i` is pinned to `core_ids[i % len]`.
    /// Empty (the default) leaves placement to the OS scheduler. Pinning is
    /// best-effort and Linux-only; invalid ids are ignored.
    pub core_ids: Vec<usize>,
}

impl RuntimeConfig {
    /// Resolve the worker count for `n_shards` shards: always in
    /// `1..=n_shards`.
    pub(crate) fn resolved_workers(&self, n_shards: usize) -> usize {
        let wanted = if self.worker_threads > 0 {
            self.worker_threads
        } else {
            std::thread::available_parallelism().map_or(1, |p| p.get())
        };
        wanted.clamp(1, n_shards.max(1))
    }
}

/// Maximum number of tap events a worker ingests from one shard before it
/// moves on to its next shard: large enough to amortize the queue lock
/// under saturated ingest, small enough that one busy shard cannot hold
/// back the others a worker owns.
pub(crate) const INGEST_BATCH: usize = 64;

/// One worker's parking spot.
///
/// The missed-wakeup guard: the worker announces `parked` and re-checks
/// for work while holding `sleep`, and a waking producer takes `sleep`
/// before notifying, so a notify can never fall between the worker's
/// check and its wait. The producer side ([`Self::wake`]) and the
/// worker's re-check ([`Self::park`]'s `ready`) must see each other's
/// writes: the producer publishes its work with a `SeqCst` write before
/// calling [`Self::wake`], and `ready` reads it with `SeqCst` — then
/// either the producer sees `parked` or the worker sees the work. A
/// producer that finds `parked` already cleared by another waker read it
/// before the worker's next park, whose re-check sees its work.
pub(crate) struct Parker {
    parked: AtomicBool,
    sleep: Mutex<()>,
    wake: Condvar,
    /// Times the worker went to sleep (`runtime_parks_total`).
    parks: Arc<Counter>,
    /// Times it woke up again, by notify or timeout
    /// (`runtime_unparks_total`).
    unparks: Arc<Counter>,
}

impl Parker {
    pub(crate) fn new(registry: &MetricsRegistry) -> Parker {
        Parker {
            parked: AtomicBool::new(false),
            sleep: Mutex::new(()),
            wake: Condvar::new(),
            parks: registry.counter("runtime_parks_total"),
            unparks: registry.counter("runtime_unparks_total"),
        }
    }

    /// Wake the worker if it is parked. One atomic load when it is not —
    /// the saturated-ingest case. The first waker clears `parked`, so a
    /// burst arriving while the worker gets up sends one notify, not one
    /// per event.
    pub(crate) fn wake(&self) {
        if self.parked.load(Ordering::SeqCst) && self.parked.swap(false, Ordering::SeqCst) {
            self.notify();
        }
    }

    /// Wake the worker unconditionally (cold paths: panic injection and
    /// shutdown, whose signals `ready` reads under the sleep lock).
    pub(crate) fn notify(&self) {
        drop(self.sleep.lock().unwrap_or_else(|e| e.into_inner()));
        self.wake.notify_one();
    }

    /// Sleep until woken (or 10 ms pass) unless `ready()` already reports
    /// work.
    pub(crate) fn park(&self, ready: impl Fn() -> bool) {
        let guard = self.sleep.lock().unwrap_or_else(|e| e.into_inner());
        self.parked.store(true, Ordering::SeqCst);
        if !ready() {
            self.parks.inc();
            let _ = self.wake.wait_timeout(guard, Duration::from_millis(10));
            self.unparks.inc();
        }
        self.parked.store(false, Ordering::SeqCst);
    }
}

/// Spawn `n_workers` named worker threads, each running `run(worker)`,
/// pinned per [`RuntimeConfig::core_ids`].
pub(crate) fn spawn_workers(
    config: &RuntimeConfig,
    n_workers: usize,
    run: impl Fn(usize) + Send + Sync + 'static,
) -> Vec<JoinHandle<()>> {
    let run = Arc::new(run);
    (0..n_workers)
        .map(|w| {
            let run = Arc::clone(&run);
            let pin =
                (!config.core_ids.is_empty()).then(|| config.core_ids[w % config.core_ids.len()]);
            std::thread::Builder::new()
                .name(format!("prosel-shard-worker-{w}"))
                .spawn(move || {
                    if let Some(core) = pin {
                        pin_to_core(core);
                    }
                    run(w);
                })
                .expect("spawn shard worker")
        })
        .collect()
}

/// Best-effort thread pinning via a raw `sched_setaffinity(2)` call — the
/// workspace takes no crates.io dependencies, so the one libc symbol we need
/// is declared by hand. Failures (bad core id, restricted cpuset) are
/// ignored: affinity is an optimization, never a correctness requirement.
#[cfg(target_os = "linux")]
fn pin_to_core(core: usize) {
    // Mirrors glibc's cpu_set_t: a 1024-bit mask.
    #[repr(C)]
    struct CpuSet {
        bits: [u64; 16],
    }
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    }
    if core >= 1024 {
        return;
    }
    let mut set = CpuSet { bits: [0; 16] };
    set.bits[core / 64] |= 1u64 << (core % 64);
    // pid 0 targets the calling thread.
    // SAFETY: `set` is a live, initialized mask of exactly the size passed;
    // the kernel only reads it during the call.
    let _ = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
}

#[cfg(not(target_os = "linux"))]
fn pin_to_core(_core: usize) {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::test_support::{scan_plan, snapshot_event};
    use crate::{HarvestConfig, HarvestSink, HarvestedQuery, MonitorBuilder, MonitorService};
    use prosel_engine::trace::TraceEvent;
    use prosel_estimators::EstimatorKind;

    fn config(workers: usize) -> RuntimeConfig {
        RuntimeConfig { worker_threads: workers, ..RuntimeConfig::default() }
    }

    fn service(shards: usize, workers: usize) -> MonitorService {
        MonitorBuilder::fixed(EstimatorKind::Dne)
            .shards(shards)
            .runtime(config(workers))
            .build_service()
            .expect("DNE is online")
    }

    fn finished(query: usize) -> TraceEvent {
        TraceEvent::Finished {
            query,
            wall: 40.0,
            windows: vec![(1.0, 40.0)].into_boxed_slice(),
            total_time: 40.0,
        }
    }

    /// Records which thread delivered each finished query's harvest: the
    /// harvest runs inline in the drain, on the worker that owns the shard.
    #[derive(Default)]
    struct DrainLog(Mutex<Vec<(usize, String)>>);

    impl HarvestSink for DrainLog {
        fn deliver(&self, harvest: HarvestedQuery) {
            let thread = std::thread::current().name().unwrap_or_default().to_string();
            self.0.lock().unwrap().push((harvest.query, thread));
        }
    }

    #[test]
    fn more_work_reruns_until_drained() {
        // 200 events land on the one shard in a single push; a drain pass
        // takes at most INGEST_BATCH of them, so the worker must go round
        // again until the queue is empty.
        let service = service(1, 1);
        let events: Vec<TraceEvent> = (0..200).map(|seq| snapshot_event(7, seq, 1.0, 1)).collect();
        service.tap().send_batch(events).unwrap();
        service.quiesce();
        assert_eq!(service.stats().unwrap().events_unroutable, 200);
        let batches = service.metrics();
        let batches = batches.histogram("service_ingest_batch_len").expect("recorded");
        assert!(batches.count() >= 200_u64.div_ceil(INGEST_BATCH as u64), "{batches:?}");
        service.shutdown();
    }

    #[test]
    fn panicking_task_does_not_kill_the_pool() {
        // One worker owns both shards; shard 0 crashes, shard 1 must keep
        // being drained by the same worker.
        let service = service(2, 1);
        assert_eq!(service.n_workers(), 1);
        service.register(1, scan_plan());
        service.inject_shard_panic(0);
        service.ingest(snapshot_event(1, 0, 10.0, 50));
        assert!((service.query_progress(1).unwrap() - 0.5).abs() < 1e-12);
        assert_eq!(service.query_progress(0), Err(crate::QueryError::ShardDown));
        service.shutdown();
    }

    #[test]
    fn stop_is_idempotent_and_drains_queued_tasks() {
        let log = Arc::new(DrainLog::default());
        let service = MonitorBuilder::fixed(EstimatorKind::Dne)
            .shards(8)
            .runtime(config(2))
            .harvester(Arc::clone(&log) as Arc<dyn HarvestSink>, HarvestConfig::default())
            .build_service()
            .unwrap();
        let plan = scan_plan();
        let tap = service.tap();
        for q in 0..8 {
            service.register(q, &plan);
            tap.send(snapshot_event(q, 0, 10.0, 50)).unwrap();
            tap.send(finished(q)).unwrap();
        }
        // No quiesce: shutdown itself drains what is queued, and the Drop
        // that follows it stops a second time, which must be a no-op.
        service.shutdown();
        let mut drained: Vec<usize> = log.0.lock().unwrap().iter().map(|(q, _)| *q).collect();
        drained.sort_unstable();
        assert_eq!(drained, (0..8).collect::<Vec<_>>());
        assert_eq!(tap.send(finished(0)), Err(finished(0)), "a stopped service refuses events");
    }

    #[test]
    fn default_config_resolves_sane_worker_counts() {
        let cfg = RuntimeConfig::default();
        assert_eq!(cfg.resolved_workers(1), 1);
        assert!((1..=4).contains(&cfg.resolved_workers(4)));
        assert_eq!(config(3).resolved_workers(8), 3);
        // A worker beyond the shard count would own no shard.
        assert_eq!(config(3).resolved_workers(1), 1);
        assert_eq!(config(3).resolved_workers(0), 1);
    }

    #[test]
    fn each_shard_drains_on_exactly_one_worker() {
        assert_eq!(service(4, 16).n_workers(), 4, "workers clamp to the shard count");
        for shards in [1, 3, 8] {
            let auto = service(shards, 0);
            assert!((1..=shards).contains(&auto.n_workers()));
        }

        let log = Arc::new(DrainLog::default());
        let service = MonitorBuilder::fixed(EstimatorKind::Dne)
            .shards(8)
            .runtime(config(3))
            .harvester(Arc::clone(&log) as Arc<dyn HarvestSink>, HarvestConfig::default())
            .build_service()
            .unwrap();
        assert_eq!(service.n_workers(), 3);
        let plan = scan_plan();
        let queries: Vec<usize> = (0..64).collect();
        for (q, r) in service.try_register_batch(&queries, &plan) {
            r.unwrap_or_else(|e| panic!("q{q}: {e}"));
        }
        let tap = service.tap();
        for &q in &queries {
            tap.send(snapshot_event(q, 0, 10.0, 50)).unwrap();
        }
        for &q in &queries {
            tap.send(finished(q)).unwrap();
        }
        service.quiesce();
        let log = log.0.lock().unwrap();
        assert_eq!(log.len(), queries.len());
        for (q, thread) in log.iter() {
            let shard = q % 8;
            assert_eq!(
                *thread,
                format!("prosel-shard-worker-{}", shard % 3),
                "q{q} (shard {shard})"
            );
        }
    }
}
