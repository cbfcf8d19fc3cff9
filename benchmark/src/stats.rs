//! Order statistics for latency samples.
//!
//! Percentiles are nearest-rank: the p-th percentile of `n` ascending
//! samples is the sample at 1-based rank `ceil(p/100 · n)`. No
//! interpolation, so every reported value is a latency that was actually
//! observed.

/// Tail percentiles the benchmark may report, ascending.
pub const TAILS: [f64; 5] = [90.0, 95.0, 99.0, 99.9, 99.99];

/// 1-based nearest rank of percentile `p` among `n` samples. The small
/// slack keeps a product that is a whole number in exact arithmetic
/// (99.9 % of 10 000) from being rounded up by its floating-point error.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice; 0 when it is empty.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// Samples strictly beyond the nearest-rank position of percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// The highest percentile of [`TAILS`] with at least ten samples beyond
/// it, or `None` when even p90 has fewer: a tail read off a handful of
/// samples is one slow operation, not a percentile.
pub fn reported_tail(n: usize) -> Option<f64> {
    TAILS
        .iter()
        .rev()
        .copied()
        .find(|&p| samples_beyond(n, p) >= 10)
}

/// Whether percentile `p` of `n` samples has ten samples beyond it.
pub fn supported(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= 10
}

/// Median of a slice of floats (mean of the middle two when even);
/// 0 when empty.
pub fn median_f64(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_example() {
        // The classic nearest-rank example: 15, 20, 35, 40, 50.
        let s = [15, 20, 35, 40, 50];
        assert_eq!(percentile(&s, 5.0), 15);
        assert_eq!(percentile(&s, 30.0), 20);
        assert_eq!(percentile(&s, 40.0), 20);
        assert_eq!(percentile(&s, 50.0), 35);
        assert_eq!(percentile(&s, 100.0), 50);
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile(&[7], 99.9), 7);
    }

    #[test]
    fn percentile_of_one_to_hundred_is_its_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 50.0), 50);
        assert_eq!(percentile(&s, 95.0), 95);
        assert_eq!(percentile(&s, 99.0), 99);
        assert_eq!(percentile(&s, 99.9), 100);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 100 samples: p90 sits at rank 90, leaving exactly 10 beyond.
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(reported_tail(100), Some(90.0));
        // 99 samples: rank ceil(89.1) = 90, 9 beyond — no tail at all.
        assert_eq!(reported_tail(99), None);
        // 200 samples support p95 (rank 190, 10 beyond) but not p99.
        assert_eq!(reported_tail(200), Some(95.0));
        assert_eq!(reported_tail(1_000), Some(99.0));
        assert_eq!(reported_tail(9_999), Some(99.0));
        assert_eq!(reported_tail(10_000), Some(99.9));
        assert_eq!(reported_tail(100_000), Some(99.99));
        assert!(supported(1_000, 99.0));
        assert!(!supported(1_000, 99.9));
        assert_eq!(reported_tail(0), None);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median_f64(&[]), 0.0);
    }
}
