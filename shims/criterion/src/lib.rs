//! Offline stand-in for the subset of the `criterion` crate that prosel's
//! benches use.
//!
//! The build environment has no route to a crates.io mirror, so the
//! workspace vendors this minimal implementation under the same crate name.
//! Bench targets compile unchanged (`criterion_group!` / `criterion_main!`,
//! `benchmark_group`, `bench_function`, `bench_with_input`, `iter`,
//! `iter_custom`, `Throughput`, `BenchmarkId`) and, when actually run via
//! `cargo bench`, execute each closure a bounded number of times and print
//! mean wall-clock per iteration. There is no statistical analysis,
//! warm-up tuning, or HTML report — swap in the real crate for that.
//!
//! Two environment hooks feed the repo's perf-trajectory CI:
//!
//! * `PROSEL_BENCH_JSON=<path>` — append one JSON line per timed bench
//!   (`{"name":…,"mean_ns":…,"iters":…}`) to `<path>`; the
//!   `bench_report` bin of `prosel-bench` folds these into the
//!   `BENCH_<sha>.json` trajectory artifact.
//! * `PROSEL_BENCH_QUICK=<n>` — clamp every bench to at most `n` timed
//!   iterations (the CI "quick profile"; per-bench `sample_size` calls
//!   cannot raise it back).

use std::fmt;
use std::io::Write as _;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// How work is scaled when reporting (accepted, echoed in output).
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    Elements(u64),
    Bytes(u64),
}

/// A benchmark identifier composed of a function name and a parameter.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    pub fn new(function_name: impl Into<String>, parameter: impl fmt::Display) -> Self {
        BenchmarkId { id: format!("{}/{}", function_name.into(), parameter) }
    }

    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        BenchmarkId { id: parameter.to_string() }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { id: s }
    }
}

/// The CI quick-profile clamp: `min(requested, $PROSEL_BENCH_QUICK)`.
fn effective_samples(requested: usize) -> usize {
    match std::env::var("PROSEL_BENCH_QUICK").ok().and_then(|v| v.parse::<usize>().ok()) {
        Some(q) => requested.min(q.max(1)),
        None => requested,
    }
}

/// One machine-readable sample as a JSON line (JSONL record).
fn sample_line(name: &str, mean_ns: f64, iters: usize) -> String {
    let escaped: String = name
        .chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c if (c as u32) < 0x20 => vec![' '],
            c => vec![c],
        })
        .collect();
    format!("{{\"name\":\"{escaped}\",\"mean_ns\":{mean_ns},\"iters\":{iters}}}\n")
}

/// Append one machine-readable sample line to `$PROSEL_BENCH_JSON`, if
/// set. Failures to write are reported but never fail the bench.
fn report_sample(name: &str, mean_ns: f64, iters: usize) {
    let Ok(path) = std::env::var("PROSEL_BENCH_JSON") else { return };
    let line = sample_line(name, mean_ns, iters);
    let write = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| f.write_all(line.as_bytes()));
    if let Err(e) = write {
        eprintln!("criterion shim: cannot append to {path}: {e}");
    }
}

/// Timing loop handle passed to bench closures.
pub struct Bencher {
    samples: usize,
    /// Fully qualified bench name (`group/function/param`), carried so the
    /// timing loop can attribute its JSON sample line.
    name: String,
}

impl Bencher {
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // One untimed warm-up call, then `samples` timed iterations.
        black_box(f());
        let start = Instant::now();
        for _ in 0..self.samples {
            black_box(f());
        }
        let elapsed = start.elapsed();
        let per_iter = elapsed / self.samples as u32;
        println!("    {:>12?} /iter ({} iters)", per_iter, self.samples);
        report_sample(&self.name, elapsed.as_nanos() as f64 / self.samples as f64, self.samples);
    }

    /// Let the routine time itself: `routine(iters)` runs `iters`
    /// iterations and returns the time they took, so per-iteration setup
    /// and teardown can stay outside the measurement. Same signature as
    /// the real crate's `Bencher::iter_custom`.
    pub fn iter_custom<R: FnMut(u64) -> Duration>(&mut self, mut routine: R) {
        // One untimed warm-up iteration, then `samples` timed ones.
        black_box(routine(1));
        let elapsed = routine(self.samples as u64);
        println!("    {:>12?} /iter ({} iters)", elapsed / self.samples as u32, self.samples);
        report_sample(&self.name, elapsed.as_nanos() as f64 / self.samples as f64, self.samples);
    }
}

/// Top-level benchmark driver.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 10 }
    }
}

impl Criterion {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let name = id.into().id;
        println!("bench: {name}");
        let mut b = Bencher { samples: effective_samples(self.sample_size), name };
        f(&mut b);
        self
    }

    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup { parent: self, name: name.into(), sample_size: None }
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    parent: &'a mut Criterion,
    name: String,
    sample_size: Option<usize>,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n.max(1));
        self
    }

    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        println!("group {}: throughput {:?}", self.name, throughput);
        self
    }

    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let name = format!("{}/{}", self.name, id.into().id);
        println!("bench: {name}");
        let samples = self.sample_size.unwrap_or(self.parent.sample_size);
        let mut b = Bencher { samples: effective_samples(samples), name };
        f(&mut b);
        self
    }

    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let name = format!("{}/{}", self.name, id.into().id);
        println!("bench: {name}");
        let samples = self.sample_size.unwrap_or(self.parent.sample_size);
        let mut b = Bencher { samples: effective_samples(samples), name };
        f(&mut b, input);
        self
    }

    pub fn finish(self) {}
}

#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // `cargo bench` passes harness flags (e.g. `--bench`); this shim
            // runs everything unconditionally and ignores them.
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_lines_are_valid_jsonl() {
        let line = sample_line("group/fn/3", 1234.5, 10);
        assert_eq!(line, "{\"name\":\"group/fn/3\",\"mean_ns\":1234.5,\"iters\":10}\n");
        let line = sample_line("we\"ird\\name\n", 1.0, 1);
        assert!(line.contains("we\\\"ird\\\\name "), "escaped: {line}");
    }

    #[test]
    fn group_and_function_run() {
        let mut c = Criterion::default();
        let mut calls = 0usize;
        c.sample_size(2).bench_function("t", |b| b.iter(|| calls += 1));
        assert!(calls >= 2);
        let mut group = c.benchmark_group("g");
        group.sample_size(2);
        group.throughput(Throughput::Elements(5));
        group.bench_with_input(BenchmarkId::new("f", 1), &3, |b, &x| b.iter(|| x * 2));
        group.finish();
    }

    #[test]
    fn iter_custom_reports_the_routines_own_time() {
        let mut c = Criterion::default();
        let mut asked = Vec::new();
        c.sample_size(3).bench_function("custom", |b| {
            b.iter_custom(|iters| {
                asked.push(iters);
                Duration::from_nanos(10 * iters)
            })
        });
        // One warm-up iteration, then all timed iterations in one call.
        assert_eq!(asked, vec![1, 3]);
    }
}
