//! Order statistics over measured samples, and the process's peak memory.

/// Percentile `q` (in `[0, 1]`) of `samples`, which are sorted in place.
///
/// With many samples the estimate is the mean of the order statistics
/// within ±0.2% of the sample count around rank `q·(n−1)`: as robust as
/// a single order statistic, but it keeps the digits the raw integer
/// nanosecond readings would otherwise round away. With few samples it is
/// the linear interpolation between the two neighbouring order statistics.
/// When every order statistic in that window reads the same whole number
/// (timer nanoseconds), the rank is placed inside that value's unit bin.
/// Returns NaN for an empty set.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let n = samples.len();
    let rank = q.clamp(0.0, 1.0) * (n - 1) as f64;
    let half = n as f64 * 0.002;
    if half < 1.0 {
        let lo = rank.floor() as usize;
        let hi = (lo + 1).min(n - 1);
        let frac = rank - lo as f64;
        return samples[lo] * (1.0 - frac) + samples[hi] * frac;
    }
    let lo = (rank - half).floor().max(0.0) as usize;
    let hi = ((rank + half).ceil() as usize).min(n - 1);
    let v = samples[lo];
    if v == samples[hi] && v.fract() == 0.0 {
        // Whole-unit readings (timer nanoseconds) tied across the whole
        // window: place the rank inside the unit bin of the tied value,
        // as the median of grouped data does.
        let below = samples.partition_point(|&x| x < v);
        let upto = samples.partition_point(|&x| x <= v);
        return v - 0.5 + (rank + 0.5 - below as f64) / (upto - below) as f64;
    }
    let window = &samples[lo..=hi];
    window.iter().sum::<f64>() / window.len() as f64
}

/// Median of `samples` (sorted in place).
pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Percentile `q` of `(seconds, value)` samples as the program shows it
/// when the host leaves it alone: each window of `width` seconds gets its
/// own percentile, and the result is the lowest decile of those. On a
/// small shared virtual machine the host's speed drifts by up to 2× in
/// states that last seconds, and steal comes in bursts; both only ever
/// add latency, so the quietest windows measure the program, and a slower
/// program moves every window. Only windows with at least ten samples
/// beyond the percentile count; with none, the pooled percentile.
pub fn quiet_quantile(samples: &[(f64, f64)], width: f64, q: f64) -> f64 {
    let need = (10.0 / (1.0 - q).max(1e-9)).ceil() as usize;
    let mut windows: std::collections::BTreeMap<u64, Vec<f64>> = Default::default();
    for &(t, v) in samples {
        windows.entry((t.max(0.0) / width) as u64).or_default().push(v);
    }
    let mut per_window: Vec<f64> = windows
        .into_values()
        .filter(|w| w.len() >= need)
        .map(|mut w| quantile(&mut w, q))
        .collect();
    if per_window.is_empty() {
        let mut all: Vec<f64> = samples.iter().map(|s| s.1).collect();
        return quantile(&mut all, q);
    }
    quantile(&mut per_window, 0.1)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or NaN where
/// `/proc` does not provide it.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return f64::NAN;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_sets_interpolate() {
        let mut v = vec![3.0, 1.0, 2.0, 4.0];
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert_eq!(quantile(&mut v, 0.5), 2.5);
        assert!(quantile(&mut [], 0.5).is_nan());
    }

    #[test]
    fn large_sets_average_a_narrow_window() {
        let mut v: Vec<f64> = (0..10_000).map(f64::from).collect();
        let p50 = quantile(&mut v, 0.5);
        assert!((p50 - 4999.5).abs() < 1.0, "{p50}");
        let p99 = quantile(&mut v, 0.99);
        assert!((p99 - 9899.0).abs() < 2.0, "{p99}");
    }

    #[test]
    fn quiet_quantile_ignores_noisy_windows() {
        // Ten one-second windows; stalls hit a quarter of eight of them.
        let mut samples: Vec<(f64, f64)> = (0..10_000).map(|i| (i as f64 / 1000.0, 10.0)).collect();
        for s in samples.iter_mut().skip(2000).step_by(4) {
            s.1 = 5000.0;
        }
        // The quiet windows' p90 is the tied whole number 10, placed
        // inside its unit bin.
        let q = quiet_quantile(&samples, 1.0, 0.9);
        assert!((q - 10.0).abs() < 0.5, "{q}");
        // Too few samples per window for a p99: the pooled percentile.
        let few: Vec<(f64, f64)> = (0..50).map(|i| (i as f64, i as f64)).collect();
        assert!((quiet_quantile(&few, 1.0, 0.99) - 48.51).abs() < 1e-9);
    }

    #[test]
    fn tied_whole_numbers_interpolate_inside_their_bin() {
        let mut v: Vec<f64> = std::iter::repeat_n(120.0, 900)
            .chain(std::iter::repeat_n(119.0, 300))
            .chain(std::iter::repeat_n(121.0, 800))
            .collect();
        let p50 = quantile(&mut v, 0.5);
        assert!(p50 > 119.5 && p50 < 120.5 && p50 != 120.0, "{p50}");
    }
}
