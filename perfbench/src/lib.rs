//! # prosel-perfbench
//!
//! The repository's benchmark: three workloads against the public API of
//! the workspace crates, each printing its end-to-end metrics (or, traced,
//! its per-layer metrics) and counting correctness checks.
//!
//! * [`ingest`] — `ingest-open`: open-loop paced ingest freshness and
//!   flood ingest throughput on a live `MonitorService`.
//! * [`read`] — `read-zipf`: Zipf-skewed closed-loop reads over a steady
//!   population under registration churn.
//! * [`train`] — `train-select`: the paper's offline execute, extract,
//!   train, evaluate and feedback pipeline.
//!
//! See `perfbench/README.md` for the metric-to-layer-to-target map.

pub mod ingest;
pub mod read;
pub mod report;
pub mod spans;
pub mod stats;
pub mod templates;
pub mod train;

use std::path::PathBuf;
use std::sync::Arc;

use prosel_core::selection::EstimatorSelector;
use prosel_engine::clock::{Clock, SystemClock};
use prosel_monitor::{MetricsRegistry, MonitorBuilder, MonitorConfig, RuntimeConfig};
use report::Report;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 3] = ["ingest-open", "read-zipf", "train-select"];

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct Params {
    pub seed: u64,
    /// Length of the measured part of the run.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Test-sized inputs (a tiny run of every workload finishes in seconds).
    pub tiny: bool,
    /// Where traced runs write their spans (none: keep them in memory).
    pub span_dir: Option<PathBuf>,
}

/// Run one workload by name.
pub fn run(workload: &str, p: &Params) -> Option<Report> {
    match workload {
        "ingest-open" => Some(ingest::run(p)),
        "read-zipf" => Some(read::run(p)),
        "train-select" => Some(train::run(p)),
        _ => None,
    }
}

/// The monitor both serving workloads run, and the twin the traced
/// `ingest-open` run replays into: `selector`, the clock that also stamps
/// the events, its own metrics registry, and (service form) one runtime
/// worker pinned to the last core.
pub fn monitor_builder(
    selector: Arc<EstimatorSelector>,
    clock: &Arc<SystemClock>,
) -> MonitorBuilder {
    MonitorBuilder::with_selector(selector).config(MonitorConfig {
        clock: Arc::clone(clock) as Arc<dyn Clock>,
        metrics: Some(Arc::new(MetricsRegistry::new())),
        runtime: runtime_config(),
        ..MonitorConfig::default()
    })
}

/// The service's runtime: one worker, pinned to the last core.
fn runtime_config() -> RuntimeConfig {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    RuntimeConfig {
        worker_threads: 1,
        core_ids: if cores > 1 { vec![cores - 1] } else { Vec::new() },
        ..RuntimeConfig::default()
    }
}

/// Pin the calling generator thread to every core but the runtime
/// worker's (see [`runtime_config`]), so load generation never shares a
/// core with the service. Best effort: a no-op on one core or off Linux.
pub fn pin_generator() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores > 1 {
        pin_to(0..cores - 1);
    }
}

#[cfg(target_os = "linux")]
fn pin_to(cores: std::ops::Range<usize>) {
    /// glibc's `cpu_set_t`: a 1024-bit mask.
    #[repr(C)]
    struct CpuSet {
        bits: [u64; 16],
    }
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    }
    let mut set = CpuSet { bits: [0; 16] };
    for core in cores.take_while(|&c| c < 1024) {
        set.bits[core / 64] |= 1u64 << (core % 64);
    }
    // SAFETY: `set` is a live, initialized 128-byte mask and the size passed
    // is its size; pid 0 names the calling thread. A failure (restricted
    // cpuset) leaves the affinity unchanged, which is harmless.
    let _ = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
}

#[cfg(not(target_os = "linux"))]
fn pin_to(_cores: std::ops::Range<usize>) {}
