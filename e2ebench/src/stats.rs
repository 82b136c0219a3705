//! Exact-rank percentiles over latency samples.
//!
//! A percentile is the sample at nearest rank `ceil(q * n)` of the sorted
//! samples — never interpolated — so every reported value is one that was
//! actually observed. A tail percentile is only reported when at least
//! ten samples lie beyond it (choosing-metrics §1): p99 needs 1000
//! samples, p90 needs 100.

/// Summary of one sample class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// The highest percentile with at least ten samples beyond it (the
    /// maximum when there are fewer than ten samples in all).
    pub tail: f64,
    /// Which percentile `tail` is, as a fraction (0.99, 0.9, … or 1.0 for
    /// the maximum).
    pub tail_q: f64,
}

/// Value at nearest rank `ceil(q * n)` (1-based) of `sorted`.
pub fn rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let n = sorted.len();
    let r = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[r - 1]
}

/// The highest of p99.9, p99, p90, p50 that has at least ten samples
/// beyond its rank; 1.0 (the maximum) when none has.
pub fn supported_tail(n: usize) -> f64 {
    [0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|q| n - ((q * n as f64).ceil() as usize).min(n) >= 10)
        .unwrap_or(1.0)
}

/// Median and supported tail of `samples` (any order).
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let tail_q = supported_tail(sorted.len());
    Some(Summary {
        n: sorted.len(),
        p50: rank(&sorted, 0.5),
        tail: rank(&sorted, tail_q),
        tail_q,
    })
}

/// Nearest-rank percentile of `samples` (any order), `None` when empty.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(rank(&sorted, q))
}

/// Median (nearest rank), `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_are_exact_samples() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(rank(&s, 0.5), 500.0);
        assert_eq!(rank(&s, 0.99), 990.0);
        assert_eq!(rank(&s, 1.0), 1000.0);
        assert_eq!(rank(&s, 0.0), 1.0);
        // Odd count: the middle sample itself.
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(1000), 0.99);
        assert_eq!(supported_tail(999), 0.9);
        assert_eq!(supported_tail(10_000), 0.999);
        assert_eq!(supported_tail(100), 0.9);
        assert_eq!(supported_tail(20), 0.5);
        assert_eq!(supported_tail(3), 1.0);
        let s: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let sum = summarize(&s).unwrap();
        assert_eq!(
            (sum.n, sum.p50, sum.tail, sum.tail_q),
            (1000, 500.0, 990.0, 0.99)
        );
        assert!(summarize(&[]).is_none());
    }
}
