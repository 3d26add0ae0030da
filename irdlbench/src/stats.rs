//! Order statistics over latency samples.

/// Index of the nearest-rank `p`-th percentile in `n` sorted samples.
pub fn rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// The `p`-th percentile of ascending `sorted` samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p)]
}

/// The tail latency the report quotes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    /// Which percentile `value` is.
    pub percentile: f64,
    /// Samples strictly beyond it.
    pub beyond: usize,
}

/// The highest percentile, at most p99, that has at least ten samples
/// beyond it. With fewer than eleven samples no percentile qualifies and
/// the maximum is returned with the count that lies beyond it (zero).
pub fn tail(sorted: &[f64]) -> Tail {
    let n = sorted.len();
    let k = if n < 11 {
        n - 1
    } else {
        rank(n, 99.0).min(n - 11)
    };
    Tail {
        value: sorted[k],
        percentile: 100.0 * (k + 1) as f64 / n as f64,
        beyond: n - 1 - k,
    }
}

/// Share of repetitions the timing metrics are taken from. Other
/// tenants of a shared machine slow whole passes down by up to 1.7x for
/// seconds at a time; the fastest tenth of a run is what repeats.
pub const QUIET_SHARE: f64 = 0.1;

/// Indices of the fastest [`QUIET_SHARE`] of `times`, but at least `min`
/// of them (as many as there are, if fewer), fastest first.
pub fn quiet(times: &[u64], min: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..times.len()).collect();
    order.sort_by_key(|&i| times[i]);
    let keep = ((times.len() as f64 * QUIET_SHARE).ceil() as usize).max(min);
    order.truncate(keep);
    order
}

/// Median, first and third quartile of unsorted `values`.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    (
        percentile(&sorted, 50.0),
        percentile(&sorted, 25.0),
        percentile(&sorted, 75.0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = ramp(10);
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 90.0), 9.0);
        assert_eq!(percentile(&s, 100.0), 10.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), (2.0, 1.0, 3.0));
    }

    #[test]
    fn tail_is_p99_when_enough_samples_lie_beyond() {
        let t = tail(&ramp(2000));
        assert_eq!((t.value, t.percentile, t.beyond), (1980.0, 99.0, 20));
        let t = tail(&ramp(1100));
        assert_eq!((t.value, t.percentile, t.beyond), (1089.0, 99.0, 11));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_on_small_runs() {
        // 36 samples: the rank with exactly ten beyond is the 26th, p72.2.
        let t = tail(&ramp(36));
        assert_eq!((t.value, t.beyond), (26.0, 10));
        assert!((t.percentile - 72.22).abs() < 0.01, "{}", t.percentile);
        let t = tail(&ramp(1000));
        assert_eq!((t.value, t.percentile, t.beyond), (990.0, 99.0, 10));
    }

    #[test]
    fn quiet_keeps_the_fastest_tenth_but_at_least_min() {
        let times: Vec<u64> = (0..25).rev().collect();
        assert_eq!(quiet(&times, 1), [24, 23, 22]);
        assert_eq!(quiet(&times, 4), [24, 23, 22, 21]);
        assert_eq!(quiet(&[50, 10, 40], 1), [1]);
        assert_eq!(quiet(&[7], 3), [0]);
        assert!(quiet(&[], 1).is_empty());
    }

    #[test]
    fn tail_falls_back_to_the_maximum() {
        let t = tail(&ramp(5));
        assert_eq!((t.value, t.percentile, t.beyond), (5.0, 100.0, 0));
        let t = tail(&ramp(11));
        assert_eq!((t.value, t.beyond), (1.0, 10));
    }
}
