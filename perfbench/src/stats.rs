//! Sample statistics and process-memory readings.

/// A percentile of a sample set, reported only when at least
/// [`MIN_BEYOND`] samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// The nearest-rank value, or `None` when too few samples lie beyond
    /// the requested rank for it to mean anything.
    pub value: Option<f64>,
    /// Number of samples the percentile was taken over.
    pub n: usize,
}

/// How many samples must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of percentile `p` (in `(0, 1]`) among `n`
/// samples, when at least [`MIN_BEYOND`] samples lie beyond it.
pub fn rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then_some(rank)
}

/// Nearest-rank percentile `p` (in `(0, 1]`) of `samples`. The value is
/// `None` unless at least [`MIN_BEYOND`] samples lie beyond its rank.
pub fn pct(samples: &[f64], p: f64) -> Pct {
    let value = rank(samples.len(), p).map(|rank| {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        sorted[rank - 1]
    });
    Pct {
        value,
        n: samples.len(),
    }
}

/// Median of `samples` (the mean of the middle pair for an even count);
/// zero for an empty set.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// Arithmetic mean; zero for an empty set.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or zero when `den` is zero.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`), in MiB.
pub fn proc_status_mib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status
        .lines()
        .find(|l| l.strip_prefix(field).is_some_and(|r| r.starts_with(':')))?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(pct(&samples, 0.5).value, Some(10.0));
        assert_eq!(pct(&samples, 0.9).value, None);
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(pct(&many, 0.99).value, Some(990.0));
        assert_eq!(pct(&[], 0.5).n, 0);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn reads_own_memory() {
        let hwm = proc_status_mib("VmHWM").expect("procfs status");
        let rss = proc_status_mib("VmRSS").expect("procfs status");
        assert!(hwm > 0.0 && hwm >= rss * 0.5);
    }
}
