//! The runner's own arithmetic: exact percentiles, quartiles as the driver
//! computes them, and best-round selection.

/// Nearest-rank percentile of an ascending slice: the smallest sample with at
/// least `p` of the samples at or below it. Exact (no interpolation), so the
/// median of `[1, 2, 3, 4]` is 2.
pub fn percentile_sorted(sorted: &[u32], p: f64) -> u32 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile that still has at least ten samples beyond it,
/// capped at p99: `(fraction, label)`. With fewer than twenty samples the
/// median is all the sample supports.
pub fn tail_percentile(samples: usize) -> (f64, String) {
    if samples >= 1000 {
        return (0.99, "p99".to_owned());
    }
    if samples < 20 {
        return (0.5, "p50".to_owned());
    }
    let whole = (samples - 10) * 100 / samples;
    (whole as f64 / 100.0, format!("p{whole}"))
}

/// Median of unsorted values (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(q1, median, q3)` as Python's `statistics.quantiles(values, n=4)`
/// (exclusive method) gives them — the driver's spread measure. Needs at
/// least two values; with fewer, all three are the one value (or 0).
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only, only);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Inter-quartile range as a share of the median (0 when the median is 0).
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// One measured round of the closed loop.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Round {
    /// Completed and verified calls.
    pub calls: u64,
    /// Wall time of the round, argument generation included.
    pub wall_ns: u64,
    pub p50_ns: u32,
    /// Latency at [`tail_percentile`] of this round's sample count.
    pub tail_ns: u32,
}

impl Round {
    pub fn calls_per_s(&self) -> f64 {
        self.calls as f64 * 1e9 / self.wall_ns.max(1) as f64
    }
}

/// Best-round statistics. The host has two speed modes about 30 % apart that
/// last seconds, so per-run medians do not repeat within a tenth; the lowest
/// per-round median and the highest per-round rate do.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Best {
    pub calls_per_s: f64,
    pub p50_ns: u32,
    /// Tail latency of the round that had the lowest median.
    pub tail_ns: u32,
    /// Samples in that round (decides which percentile `tail_ns` is).
    pub tail_samples: u64,
}

pub fn best_of(rounds: &[Round]) -> Option<Best> {
    let fastest = rounds
        .iter()
        .filter(|r| r.calls > 0)
        .min_by_key(|r| r.p50_ns)?;
    let calls_per_s = rounds
        .iter()
        .map(Round::calls_per_s)
        .fold(0.0_f64, f64::max);
    Some(Best {
        calls_per_s,
        p50_ns: fastest.p50_ns,
        tail_ns: fastest.tail_ns,
        tail_samples: fastest.calls,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_exact_nearest_rank() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 50);
        assert_eq!(percentile_sorted(&v, 0.99), 99);
        assert_eq!(percentile_sorted(&v, 1.0), 100);
        assert_eq!(percentile_sorted(&v, 0.0), 1);
        assert_eq!(percentile_sorted(&[1, 2, 3, 4], 0.5), 2);
        assert_eq!(percentile_sorted(&[7], 0.99), 7);
        // 1000 samples: p99 leaves exactly ten beyond it.
        let v: Vec<u32> = (0..1000).collect();
        assert_eq!(percentile_sorted(&v, 0.99), 989);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(30_000), (0.99, "p99".to_owned()));
        assert_eq!(tail_percentile(1000), (0.99, "p99".to_owned()));
        assert_eq!(tail_percentile(200), (0.95, "p95".to_owned()));
        assert_eq!(tail_percentile(25), (0.6, "p60".to_owned()));
        assert_eq!(tail_percentile(12), (0.5, "p50".to_owned()));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 15.0, 22.5));
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn best_round_takes_lowest_median_and_highest_rate_independently() {
        let r = |calls, wall_ns, p50_ns, tail_ns| Round {
            calls,
            wall_ns,
            p50_ns,
            tail_ns,
        };
        let rounds = [
            r(1000, 500_000_000, 400, 900),
            // Lowest median, but a short round with a lower rate.
            r(900, 500_000_000, 350, 2000),
            r(1100, 500_000_000, 380, 800),
            // An empty round never wins the median.
            r(0, 500_000_000, 0, 0),
        ];
        let best = best_of(&rounds).unwrap();
        assert_eq!(best.p50_ns, 350);
        assert_eq!(best.tail_ns, 2000);
        assert_eq!(best.tail_samples, 900);
        assert_eq!(best.calls_per_s, 2200.0);
        assert_eq!(best_of(&[]), None);
    }
}
