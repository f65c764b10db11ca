//! Log-bucketed histogram with atomic buckets, cheap enough for the
//! per-output hot path.
//!
//! Buckets are powers of two: bucket `0` holds the value `0`, bucket `i`
//! (for `i >= 1`) holds values in `[2^(i-1), 2^i - 1]`, and the last
//! bucket is the overflow (`+Inf` in Prometheus terms). Recording is one
//! relaxed `fetch_add` on the bucket plus two on `_sum`/`_count` — no
//! locks, no allocation — so the histogram can stay armed on every run
//! without showing up in a metrics-on vs. metrics-off comparison.

use dgs_sync::atomic::{AtomicU64, Ordering};

/// Number of finite buckets. Bucket 38 tops out at `2^38 - 1` ns
/// (~4.6 min) — far beyond any per-output latency or fsync this runtime
/// produces; larger values land in the overflow bucket.
pub const BUCKETS: usize = 40;

/// A lock-free log-bucketed histogram (values are `u64`, typically
/// nanoseconds).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

/// Index of the bucket holding `v`: 0 for 0, else `64 - leading_zeros`
/// (so `[2^(i-1), 2^i - 1]` maps to `i`), clamped into the overflow.
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// Inclusive upper bound of finite bucket `i` (`2^i - 1`; 0 for bucket 0).
pub fn bucket_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// Record one value. Three relaxed atomic adds; safe from any number
    /// of writer threads.
    pub fn record(&self, v: u64) {
        // ORDERING: Relaxed — monotone stat counters with no cross-
        // location invariant; snapshots tolerate torn in-flight adds.
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy. Buckets are read independently with relaxed
    /// loads, so a snapshot racing writers may be off by in-flight
    /// records — exact once the writers are quiescent.
    pub fn snapshot(&self) -> HistogramSnapshot {
        // ORDERING: Relaxed — see `record`; exact at quiescence.
        HistogramSnapshot {
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            sum: self.sum.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data copy of a [`Histogram`] at one instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Raw (non-cumulative) per-bucket counts, `BUCKETS` entries.
    pub buckets: Vec<u64>,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Number of recorded values.
    pub count: u64,
}

impl HistogramSnapshot {
    /// Estimated quantile `q` in `[0, 1]`: the upper bound of the first
    /// bucket whose cumulative count reaches `q * count` (the resolution
    /// is the bucket width — a factor of two). `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(bucket_bound(i));
            }
        }
        Some(bucket_bound(BUCKETS - 1))
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(7), 3);
        assert_eq!(bucket_of(8), 4);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        // Bound/index agree: every bound's value maps into its bucket.
        for i in 1..BUCKETS - 1 {
            assert_eq!(bucket_of(bucket_bound(i)), i, "bound of bucket {i}");
            assert_eq!(bucket_of(bucket_bound(i) + 1), i + 1);
        }
    }

    #[test]
    fn records_and_quantiles() {
        let h = Histogram::default();
        assert!(h.snapshot().quantile(0.5).is_none());
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1106);
        // p50 of {1,2,3,100,1000} falls in bucket of 3 (bound 3).
        assert_eq!(s.quantile(0.5), Some(3));
        // p100 lands in the bucket of 1000: [512, 1023].
        assert_eq!(s.quantile(1.0), Some(1023));
        // Quantile estimate never understates by more than the bucket
        // width (factor of two).
        let p95 = s.quantile(0.95).unwrap();
        assert!((1000..2048).contains(&p95), "p95 {p95}");
    }

    #[test]
    fn concurrent_records_all_land() {
        let h = std::sync::Arc::new(Histogram::default());
        std::thread::scope(|s| {
            for t in 0..4 {
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..1000u64 {
                        h.record(t * 1000 + i);
                    }
                });
            }
        });
        assert_eq!(h.snapshot().count, 4000);
    }
}
