//! Fixed-bucket log-linear latency histogram.
//!
//! The layout is HdrHistogram-like but much smaller: values below
//! 2^SUB_BITS nanoseconds get exact unit buckets; above that, each power
//! of two is divided into 2^SUB_BITS linear sub-buckets, bounding the
//! relative quantization error at 1/2^SUB_BITS (~3%). All buckets are
//! atomics, so recording is a single relaxed `fetch_add` — lock-free and
//! wait-free — and the whole histogram is a fixed ~8.5 KiB allocation.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-bucket resolution: 2^5 = 32 linear sub-buckets per octave.
const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;

/// Highest tracked value: 2^38 ns ≈ 4.6 minutes. Anything larger clamps
/// into the last bucket (it still counts; its value saturates).
const MAX_MSB: u32 = 38;

/// Total bucket count: SUB unit buckets plus (MAX_MSB - SUB_BITS) octaves
/// of SUB sub-buckets each.
pub const BUCKETS: usize = (SUB as usize) * ((MAX_MSB - SUB_BITS) as usize + 1);

/// Bucket index for a value.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let msb = 63 - (v.leading_zeros() as u64);
    let shift = (msb as u32).saturating_sub(SUB_BITS);
    let sub = (v >> shift) - SUB;
    let idx = (shift as usize + 1) * SUB as usize + sub as usize;
    idx.min(BUCKETS - 1)
}

/// Inclusive upper bound of the values a bucket holds.
fn bucket_upper(idx: usize) -> u64 {
    if idx < SUB as usize {
        return idx as u64;
    }
    let shift = (idx / SUB as usize - 1) as u32;
    let sub = (idx % SUB as usize) as u64;
    ((SUB + sub + 1) << shift) - 1
}

/// Concurrent latency histogram (nanosecond values).
pub struct Histogram {
    counts: Box<[AtomicU64; BUCKETS]>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// New empty histogram.
    pub fn new() -> Self {
        let counts: Vec<AtomicU64> = (0..BUCKETS).map(|_| AtomicU64::new(0)).collect();
        let counts: Box<[AtomicU64; BUCKETS]> = counts.into_boxed_slice().try_into().unwrap();
        Histogram {
            counts,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Record one value (nanoseconds). Values beyond the trackable range
    /// saturate at [`max_trackable_ns`] — they land in the last bucket and
    /// contribute the saturated value to the sum, so `sum` cannot be blown
    /// up by a single wild measurement.
    #[inline]
    pub fn record(&self, v: u64) {
        let v = v.min(max_trackable_ns());
        self.counts[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Point-in-time copy. Under concurrent recording the snapshot is a
    /// consistent *lower* bound per bucket; once writers quiesce it is
    /// exact.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            counts: self
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count.load(Ordering::Relaxed))
            .field("sum", &self.sum.load(Ordering::Relaxed))
            .finish()
    }
}

/// Immutable copy of a [`Histogram`]'s state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistSnapshot {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        HistSnapshot {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl HistSnapshot {
    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values (ns).
    pub fn sum_ns(&self) -> u64 {
        self.sum
    }

    /// Number of recorded values ≤ `bound` ns. Conservative for the bucket
    /// straddling `bound` (counts it only if the whole bucket is ≤ bound),
    /// so the result is monotone in `bound` and reaches `count()` once
    /// `bound` covers the last non-empty bucket.
    pub fn cumulative_le(&self, bound: u64) -> u64 {
        self.counts
            .iter()
            .enumerate()
            .take_while(|(i, _)| bucket_upper(*i) <= bound)
            .map(|(_, c)| *c)
            .sum()
    }

    /// Value (ns) at percentile `p` in [0, 100]: the upper bound of the
    /// first bucket whose cumulative count reaches `ceil(p/100 · count)`.
    /// Returns 0 for an empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let rank = rank.min(self.count);
        let mut cum = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return bucket_upper(i);
            }
        }
        bucket_upper(BUCKETS - 1)
    }

    /// Merge another snapshot into this one (bucket-wise sum). Merging is
    /// commutative and associative — shard merges can happen in any order.
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Raw bucket counts (test/debug support).
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }
}

/// Inclusive upper bound (ns) of bucket `idx` — exposed for rendering.
pub fn bucket_upper_ns(idx: usize) -> u64 {
    bucket_upper(idx)
}

/// Largest value the histogram tracks without saturating (~9 minutes).
#[inline]
pub fn max_trackable_ns() -> u64 {
    bucket_upper(BUCKETS - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_buckets_are_exact() {
        for v in 0..SUB {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_upper(v as usize), v);
        }
    }

    #[test]
    fn index_and_upper_agree() {
        // Every value maps to a bucket whose range contains it.
        for &v in &[0, 1, 31, 32, 33, 63, 64, 100, 1_000, 123_456, u64::MAX] {
            let idx = bucket_index(v);
            assert!(idx < BUCKETS);
            let upper = bucket_upper(idx);
            if idx < BUCKETS - 1 {
                assert!(v <= upper, "v={v} idx={idx} upper={upper}");
            }
            if idx > 0 {
                let prev_upper = bucket_upper(idx - 1);
                assert!(v > prev_upper || idx == BUCKETS - 1);
            }
        }
    }

    #[test]
    fn relative_error_bounded() {
        for &v in &[100u64, 5_000, 77_777, 1_000_000, 250_000_000] {
            let upper = bucket_upper(bucket_index(v));
            let err = (upper - v) as f64 / v as f64;
            assert!(err <= 1.0 / SUB as f64 + 1e-9, "v={v} upper={upper}");
        }
    }

    #[test]
    fn percentiles_of_known_data() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v * 1_000); // 1µs .. 100µs
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 100);
        let p50 = s.percentile(50.0);
        let p99 = s.percentile(99.0);
        // p50 ≈ 50µs, p99 ≈ 99µs within ~3% quantization.
        assert!((48_000..=53_000).contains(&p50), "p50={p50}");
        assert!((96_000..=103_000).contains(&p99), "p99={p99}");
        assert!(p50 <= p99);
    }

    #[test]
    fn huge_values_clamp_into_last_bucket() {
        let h = Histogram::new();
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.count(), 1);
        assert_eq!(s.bucket_counts()[BUCKETS - 1], 1);
    }
}
