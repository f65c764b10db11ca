//! Order statistics over small samples: the median and quartiles every
//! timing metric is reported as, and the nearest-rank percentile used on
//! per-output latency samples.

/// Five-number summary of the draws behind one reported metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metrics are never NaN"));
    v
}

/// Median; the mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method:
/// position `i * (n + 1) / 4` with linear interpolation) — the driver's
/// spread check uses that function, so `selfcheck` must agree with it.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let v = sorted(values);
    let n = v.len();
    let at = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Inter-quartile distance as a share of the median: the contract's
/// run-to-run spread.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// Summary of the draws behind a metric (quartiles fall back to min/max
/// for a single value).
pub fn summarize(values: &[f64]) -> Summary {
    let v = sorted(values);
    let (q1, q3) = if v.len() >= 2 {
        quartiles(&v)
    } else {
        (v[0], v[0])
    };
    Summary {
        n: v.len(),
        min: v[0],
        q1,
        median: median(&v),
        q3,
        max: v[v.len() - 1],
    }
}

/// Nearest-rank percentile of an already sorted sample: the smallest
/// value with at least `p` percent of the sample at or below it.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    /// Reference values from `statistics.quantiles(range(1, 11), n=4)` =
    /// `[2.75, 5.5, 8.25]` and `statistics.quantiles([1, 2, 4, 8, 16], n=4)`
    /// = `[1.5, 4.0, 12.0]`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        assert_eq!(quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]), (1.5, 12.0));
        assert_eq!(quartiles(&[1.0, 3.0]), (0.5, 3.5));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&ten), (8.25 - 2.75) / 5.5);
    }

    #[test]
    fn summary_orders_its_fields() {
        let s = summarize(&[5.0, 1.0, 9.0, 3.0, 7.0]);
        assert_eq!((s.n, s.min, s.median, s.max), (5, 1.0, 5.0, 9.0));
        assert!(s.min <= s.q1 && s.q1 <= s.median && s.median <= s.q3 && s.q3 <= s.max);
        let one = summarize(&[2.0]);
        assert_eq!((one.q1, one.median, one.q3), (2.0, 2.0, 2.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&s, 50.0), 50);
        assert_eq!(percentile_sorted(&s, 99.0), 99);
        assert_eq!(percentile_sorted(&s, 100.0), 100);
        assert_eq!(percentile_sorted(&s, 0.0), 1);
        assert_eq!(percentile_sorted(&[10, 20, 30], 50.0), 20);
        assert_eq!(percentile_sorted(&[10, 20, 30, 40], 50.0), 20);
    }
}
