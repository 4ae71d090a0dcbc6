//! A small hand-rolled work-stealing runtime for shard tasks.
//!
//! The sharded [`MonitorService`](crate::MonitorService) used to pin one OS
//! thread per shard and serialize *every* operation — ingest, reads, swaps —
//! through that thread's FIFO channel. This module replaces the thread-per-
//! shard model with cooperative scheduling: each shard is a *task* (an index
//! `0..n_tasks`), and a fixed pool of workers runs whichever tasks have work.
//! Reads never come anywhere near this runtime, so the pool only ever
//! executes the ingest drain. A read is not wait-free, though: it
//! read-locks the owning shard's slot registry, clones the query's slot
//! `Arc` and runs a seqlock pass over the published snapshot (see
//! [`crate::service`]).
//!
//! Design notes:
//!
//! - **No crates.io.** Everything is `std`: mutex-guarded deques per worker,
//!   a condvar for parking, atomics for the per-task state machine.
//! - **At-most-once execution.** A task is never run by two workers at once.
//!   Each task carries an atomic state (`IDLE`/`QUEUED`/`RUNNING`/
//!   `RUNNING_DIRTY`); `Shared::schedule` transitions `IDLE -> QUEUED`
//!   (enqueue) or `RUNNING -> RUNNING_DIRTY` (re-run after the current pass),
//!   and is a no-op when the task is already queued or dirty. This gives the
//!   classic "schedule is idempotent, wakeups are coalesced" property that
//!   lets the ingest path batch events without losing them.
//! - **Work stealing.** Tasks are pushed round-robin across per-worker
//!   queues; an idle worker first drains its own queue, then scans the
//!   others. With shards >> workers this keeps all cores busy without a
//!   global contended queue.
//! - **Core affinity.** [`RuntimeConfig::core_ids`] pins worker `i` to
//!   `core_ids[i % len]` via a raw `sched_setaffinity` call on Linux
//!   (best-effort, no-op elsewhere) so a latency-sensitive deployment can
//!   fence the ingest pool away from serving threads.
//! - **Panic containment.** A task body that panics is caught at the worker
//!   loop; the worker survives and keeps running other tasks. The service
//!   layers its own dead-shard accounting on top.

use prosel_obs::{Counter, Gauge, MetricsRegistry};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Knobs for the shard runtime, embedded in
/// [`MonitorConfig`](crate::MonitorConfig).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Number of pool workers. `0` (the default) picks
    /// `min(available_parallelism, n_shards)`.
    pub worker_threads: usize,
    /// Optional CPU pinning: worker `i` is pinned to `core_ids[i % len]`.
    /// Empty (the default) leaves placement to the OS scheduler. Pinning is
    /// best-effort and Linux-only; invalid ids are ignored.
    pub core_ids: Vec<usize>,
    /// Maximum number of tap events a shard task ingests per scheduling
    /// pass. Larger batches amortize wakeups and queue locking under
    /// saturated ingest; smaller batches reduce the latency until a
    /// freshly-enqueued event is reflected in the read snapshot.
    pub ingest_batch: usize,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig { worker_threads: 0, core_ids: Vec::new(), ingest_batch: 64 }
    }
}

impl RuntimeConfig {
    /// Resolve the worker count for `n_tasks` shard tasks.
    pub(crate) fn resolved_workers(&self, n_tasks: usize) -> usize {
        if self.worker_threads > 0 {
            return self.worker_threads;
        }
        let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
        cores.min(n_tasks.max(1)).max(1)
    }
}

/// Scheduler instrumentation: steal count, park/unpark churn, and the
/// live scheduled-task depth across all worker queues. Registered under
/// `runtime_*` names; all increments are relaxed atomics on the
/// scheduling paths (never inside a task body).
pub(crate) struct RuntimeObs {
    /// Tasks popped from a queue other than the popping worker's own.
    steals: Arc<Counter>,
    /// Times a worker went to sleep on the condvar.
    parks: Arc<Counter>,
    /// Times a parked worker woke up (timeout or notify).
    unparks: Arc<Counter>,
    /// Signed live depth behind the gauge (push/pop races can transiently
    /// observe it negative; the gauge publishes whatever was current).
    depth: AtomicI64,
    depth_gauge: Arc<Gauge>,
}

impl RuntimeObs {
    pub(crate) fn from_registry(registry: &MetricsRegistry) -> RuntimeObs {
        RuntimeObs {
            steals: registry.counter("runtime_steals_total"),
            parks: registry.counter("runtime_parks_total"),
            unparks: registry.counter("runtime_unparks_total"),
            depth: AtomicI64::new(0),
            depth_gauge: registry.gauge("runtime_queue_depth"),
        }
    }

    fn task_pushed(&self) {
        let d = self.depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.depth_gauge.set(d as f64);
    }

    fn task_popped(&self) {
        let d = self.depth.fetch_sub(1, Ordering::Relaxed) - 1;
        self.depth_gauge.set(d as f64);
    }
}

// Per-task scheduling states. `RUNNING_DIRTY` means "schedule() was called
// while the task was running": the worker re-queues the task after the pass
// instead of idling it, so no wakeup is ever lost.
const IDLE: u8 = 0;
const QUEUED: u8 = 1;
const RUNNING: u8 = 2;
const RUNNING_DIRTY: u8 = 3;

/// State shared between workers and external schedulers (the tap/router).
pub(crate) struct Shared {
    /// One deque per worker; tasks are pushed round-robin and stolen freely.
    queues: Vec<Mutex<VecDeque<usize>>>,
    /// One scheduling state per task.
    states: Vec<AtomicU8>,
    /// Round-robin cursor for external pushes.
    next: AtomicUsize,
    /// Parking lot. Workers re-check for work while holding `sleep` before
    /// waiting, and pushers acquire (and immediately release) `sleep` before
    /// notifying, so a push can never slip between a worker's check and its
    /// wait — the classic missed-wakeup guard.
    sleep: Mutex<()>,
    wake: Condvar,
    stop: AtomicBool,
    /// Optional scheduler instrumentation (service mode wires it in).
    obs: Option<Arc<RuntimeObs>>,
}

impl Shared {
    /// Request that `task` run (again). Idempotent; coalesces with a pending
    /// or in-flight run. Wait-free for the caller apart from one short queue
    /// lock when the task transitions to `QUEUED`.
    pub(crate) fn schedule(&self, task: usize) {
        let state = &self.states[task];
        loop {
            match state.load(Ordering::Acquire) {
                IDLE => {
                    if state
                        .compare_exchange(IDLE, QUEUED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        self.push(task);
                        return;
                    }
                }
                RUNNING => {
                    if state
                        .compare_exchange(
                            RUNNING,
                            RUNNING_DIRTY,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        )
                        .is_ok()
                    {
                        return;
                    }
                }
                // Already queued or already marked dirty: the pending run
                // will observe everything enqueued before it starts.
                _ => return,
            }
        }
    }

    fn push(&self, task: usize) {
        let w = self.next.fetch_add(1, Ordering::Relaxed) % self.queues.len();
        self.queues[w].lock().unwrap_or_else(|e| e.into_inner()).push_back(task);
        if let Some(obs) = &self.obs {
            obs.task_pushed();
        }
        // Take and drop the sleep lock so the notify cannot race a worker
        // that has checked the queues but not yet parked.
        drop(self.sleep.lock().unwrap_or_else(|e| e.into_inner()));
        self.wake.notify_one();
    }

    /// Pop a task: own queue first, then steal from the others.
    fn pop(&self, me: usize) -> Option<usize> {
        let n = self.queues.len();
        for i in 0..n {
            let victim = (me + i) % n;
            let task = self.queues[victim].lock().unwrap_or_else(|e| e.into_inner()).pop_front();
            if task.is_some() {
                if let Some(obs) = &self.obs {
                    obs.task_popped();
                    if victim != me {
                        obs.steals.inc();
                    }
                }
                return task;
            }
        }
        None
    }

    fn has_work(&self) -> bool {
        self.queues.iter().any(|q| !q.lock().unwrap_or_else(|e| e.into_inner()).is_empty())
    }
}

fn worker_loop(shared: &Shared, me: usize, body: &(dyn Fn(usize) -> bool + Send + Sync)) {
    loop {
        if let Some(task) = shared.pop(me) {
            run_task(shared, me, task, body);
            continue;
        }
        let guard = shared.sleep.lock().unwrap_or_else(|e| e.into_inner());
        // Re-check under the sleep lock: a push between our pop scan and
        // this point takes the same lock before notifying, so either we see
        // its task here or its notify lands on our wait below.
        if shared.has_work() {
            continue;
        }
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        // The timeout is belt-and-braces only; correctness never depends on
        // it. 10ms bounds the cost of any wakeup bug to a schedule hiccup.
        if let Some(obs) = &shared.obs {
            obs.parks.inc();
        }
        let _ = shared.wake.wait_timeout(guard, Duration::from_millis(10));
        if let Some(obs) = &shared.obs {
            obs.unparks.inc();
        }
    }
}

fn run_task(shared: &Shared, me: usize, task: usize, body: &(dyn Fn(usize) -> bool + Send + Sync)) {
    let state = &shared.states[task];
    state.store(RUNNING, Ordering::Release);
    // `body` returns true when the task knows it has more work (e.g. events
    // left in the shard queue beyond this batch). A panicking body is
    // contained here; the service marks the shard dead from inside the body,
    // so from the runtime's perspective a panicked pass simply has no more
    // work.
    let more = catch_unwind(AssertUnwindSafe(|| body(task))).unwrap_or(false);
    if more {
        state.store(QUEUED, Ordering::Release);
        self_push(shared, me, task);
        return;
    }
    if state.compare_exchange(RUNNING, IDLE, Ordering::AcqRel, Ordering::Acquire).is_err() {
        // RUNNING_DIRTY: schedule() fired mid-run; run again.
        state.store(QUEUED, Ordering::Release);
        self_push(shared, me, task);
    }
}

/// Re-queue onto the finishing worker's own deque (stays cache-warm, still
/// stealable), and nudge a sleeper in case this worker is saturated.
fn self_push(shared: &Shared, me: usize, task: usize) {
    shared.queues[me].lock().unwrap_or_else(|e| e.into_inner()).push_back(task);
    if let Some(obs) = &shared.obs {
        obs.task_pushed();
    }
    drop(shared.sleep.lock().unwrap_or_else(|e| e.into_inner()));
    shared.wake.notify_one();
}

/// The worker pool. Owns the threads; dropping (or [`Runtime::stop`])
/// signals shutdown and joins them. Queued tasks still run to completion
/// before workers exit — shutdown drains, it does not abandon.
pub(crate) struct Runtime {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Runtime {
    /// Spawn a pool running `body` for tasks `0..n_tasks`. `body(task)`
    /// returns whether the task should immediately run again.
    /// Uninstrumented [`Self::spawn_observed`] (test harness entry).
    #[cfg(test)]
    pub(crate) fn spawn(
        n_tasks: usize,
        config: &RuntimeConfig,
        body: Arc<dyn Fn(usize) -> bool + Send + Sync>,
    ) -> Runtime {
        Self::spawn_observed(n_tasks, config, body, None)
    }

    /// Spawn with optional scheduler instrumentation — the service
    /// passes a [`RuntimeObs`] registered in its metrics registry.
    pub(crate) fn spawn_observed(
        n_tasks: usize,
        config: &RuntimeConfig,
        body: Arc<dyn Fn(usize) -> bool + Send + Sync>,
        obs: Option<Arc<RuntimeObs>>,
    ) -> Runtime {
        let n_workers = config.resolved_workers(n_tasks);
        let shared = Arc::new(Shared {
            queues: (0..n_workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            states: (0..n_tasks).map(|_| AtomicU8::new(IDLE)).collect(),
            next: AtomicUsize::new(0),
            sleep: Mutex::new(()),
            wake: Condvar::new(),
            stop: AtomicBool::new(false),
            obs,
        });
        let workers = (0..n_workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                let body = Arc::clone(&body);
                let pin = if config.core_ids.is_empty() {
                    None
                } else {
                    Some(config.core_ids[w % config.core_ids.len()])
                };
                std::thread::Builder::new()
                    .name(format!("prosel-shard-worker-{w}"))
                    .spawn(move || {
                        if let Some(core) = pin {
                            pin_to_core(core);
                        }
                        worker_loop(&shared, w, &*body);
                    })
                    .expect("spawn shard runtime worker")
            })
            .collect();
        Runtime { shared, workers }
    }

    pub(crate) fn shared(&self) -> Arc<Shared> {
        Arc::clone(&self.shared)
    }

    pub(crate) fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Signal shutdown and join the pool. Idempotent.
    pub(crate) fn stop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        drop(self.shared.sleep.lock().unwrap_or_else(|e| e.into_inner()));
        self.shared.wake.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.stop();
    }
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
    let _ = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
}

#[cfg(not(target_os = "linux"))]
fn pin_to_core(_core: usize) {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn config(workers: usize) -> RuntimeConfig {
        RuntimeConfig { worker_threads: workers, ..RuntimeConfig::default() }
    }

    fn spin_until(deadline_ms: u64, mut done: impl FnMut() -> bool) -> bool {
        let start = std::time::Instant::now();
        while start.elapsed() < Duration::from_millis(deadline_ms) {
            if done() {
                return true;
            }
            std::thread::yield_now();
        }
        done()
    }

    #[test]
    fn scheduled_tasks_run_and_coalesce() {
        let runs: Arc<Vec<AtomicU64>> = Arc::new((0..4).map(|_| AtomicU64::new(0)).collect());
        let body = {
            let runs = Arc::clone(&runs);
            Arc::new(move |task: usize| {
                runs[task].fetch_add(1, Ordering::SeqCst);
                false
            }) as Arc<dyn Fn(usize) -> bool + Send + Sync>
        };
        let mut rt = Runtime::spawn(4, &config(2), body);
        let shared = rt.shared();
        for task in 0..4 {
            shared.schedule(task);
        }
        assert!(spin_until(2_000, || (0..4).all(|t| runs[t].load(Ordering::SeqCst) >= 1)));
        rt.stop();
        // Coalescing never drops a run: every task ran at least once, and an
        // idle task scheduled once runs exactly once.
        for task in 0..4 {
            assert!(runs[task].load(Ordering::SeqCst) >= 1);
        }
    }

    #[test]
    fn dirty_reschedule_runs_the_task_again() {
        // The body parks until released, so we can schedule() while RUNNING
        // and prove the dirty bit forces a second pass.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let runs = Arc::new(AtomicU64::new(0));
        let body = {
            let gate = Arc::clone(&gate);
            let runs = Arc::clone(&runs);
            Arc::new(move |_task: usize| {
                if runs.fetch_add(1, Ordering::SeqCst) == 0 {
                    let (lock, cv) = &*gate;
                    let mut open = lock.lock().unwrap();
                    while !*open {
                        open = cv.wait(open).unwrap();
                    }
                }
                false
            }) as Arc<dyn Fn(usize) -> bool + Send + Sync>
        };
        let mut rt = Runtime::spawn(1, &config(1), body);
        let shared = rt.shared();
        shared.schedule(0);
        assert!(spin_until(2_000, || runs.load(Ordering::SeqCst) == 1));
        // First pass is parked inside body(): this schedule must coalesce
        // into RUNNING_DIRTY and trigger a second pass once released.
        shared.schedule(0);
        {
            let (lock, cv) = &*gate;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
        assert!(spin_until(2_000, || runs.load(Ordering::SeqCst) == 2));
        rt.stop();
        assert_eq!(runs.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn more_work_reruns_until_drained() {
        // body() drains a counter one step per pass and reports "more".
        let left = Arc::new(AtomicU64::new(5));
        let body = {
            let left = Arc::clone(&left);
            Arc::new(move |_task: usize| left.fetch_sub(1, Ordering::SeqCst) > 1)
                as Arc<dyn Fn(usize) -> bool + Send + Sync>
        };
        let mut rt = Runtime::spawn(1, &config(1), body);
        rt.shared().schedule(0);
        assert!(spin_until(2_000, || left.load(Ordering::SeqCst) == 0));
        rt.stop();
    }

    #[test]
    fn panicking_task_does_not_kill_the_pool() {
        let runs = Arc::new(AtomicU64::new(0));
        let body = {
            let runs = Arc::clone(&runs);
            Arc::new(move |task: usize| {
                runs.fetch_add(1, Ordering::SeqCst);
                if task == 0 {
                    panic!("task 0 always panics");
                }
                false
            }) as Arc<dyn Fn(usize) -> bool + Send + Sync>
        };
        let mut rt = Runtime::spawn(2, &config(1), body);
        let shared = rt.shared();
        shared.schedule(0);
        assert!(spin_until(2_000, || runs.load(Ordering::SeqCst) == 1));
        // The single worker survived the panic and still runs task 1.
        shared.schedule(1);
        assert!(spin_until(2_000, || runs.load(Ordering::SeqCst) == 2));
        rt.stop();
    }

    #[test]
    fn work_is_stolen_across_worker_queues() {
        // One worker, many tasks pushed round-robin over... with a single
        // queue stealing is trivially exercised; use 3 workers and 32 tasks
        // so round-robin spreads work and the pop scan must cross queues.
        let runs: Arc<Vec<AtomicU64>> = Arc::new((0..32).map(|_| AtomicU64::new(0)).collect());
        let body = {
            let runs = Arc::clone(&runs);
            Arc::new(move |task: usize| {
                runs[task].fetch_add(1, Ordering::SeqCst);
                false
            }) as Arc<dyn Fn(usize) -> bool + Send + Sync>
        };
        let mut rt = Runtime::spawn(32, &config(3), body);
        assert_eq!(rt.worker_count(), 3);
        let shared = rt.shared();
        for task in 0..32 {
            shared.schedule(task);
        }
        assert!(spin_until(5_000, || (0..32).all(|t| runs[t].load(Ordering::SeqCst) == 1)));
        rt.stop();
    }

    #[test]
    fn stop_is_idempotent_and_drains_queued_tasks() {
        let runs = Arc::new(AtomicU64::new(0));
        let body = {
            let runs = Arc::clone(&runs);
            Arc::new(move |_task: usize| {
                runs.fetch_add(1, Ordering::SeqCst);
                false
            }) as Arc<dyn Fn(usize) -> bool + Send + Sync>
        };
        let mut rt = Runtime::spawn(8, &config(2), body);
        let shared = rt.shared();
        for task in 0..8 {
            shared.schedule(task);
        }
        rt.stop();
        rt.stop();
        // Shutdown drained everything that was queued before the signal.
        assert_eq!(runs.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn default_config_resolves_sane_worker_counts() {
        let cfg = RuntimeConfig::default();
        assert!(cfg.resolved_workers(1) >= 1);
        assert!(cfg.resolved_workers(4) <= 4);
        assert_eq!(config(3).resolved_workers(1), 3);
        assert_eq!(cfg.ingest_batch, 64);
    }
}
