//! Small statistics and process helpers shared by the workloads.

use refloat_telemetry::Clock;

/// Median of a sample (mean of the middle pair for even sizes); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// Nearest-rank `q`-quantile — the runtime report's own percentile, so the
/// benchmark and `RuntimeReport` agree on what "p95" means.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    refloat_runtime::telemetry::percentile(samples, q)
}

/// The process's peak resident set (`VmHWM`), in MiB; 0 where `/proc` is absent.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seconds `f` took on `clock`, with its result.
pub fn timed<T>(clock: &dyn Clock, f: impl FnOnce() -> T) -> (T, f64) {
    let start = clock.now_s();
    let out = f();
    (out, clock.now_s() - start)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.95), 190.0);
        assert_eq!(quantile(&v, 0.5), 100.0);
    }
}
