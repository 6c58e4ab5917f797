//! Property tests for the latency histogram: the invariants the
//! observability layer's numbers rest on.
//!
//! * the rendered CDF is monotone and exhaustive;
//! * percentiles are monotone in `p` (so p50 ≤ p99, always);
//! * merging is associative and commutative — per-thread shards can be
//!   combined in any order and agree with a single shared histogram;
//! * concurrent recording (several server or client threads) loses nothing: the
//!   post-quiesce snapshot accounts for every observation exactly once.

use bsoap_obs::{HistSnapshot, Histogram};
use proptest::prelude::*;

fn record_all(values: &[u64]) -> HistSnapshot {
    let h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h.snapshot()
}

/// Latency-ish values: spread across the full log range plus edge cases.
fn latencies() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(
        prop_oneof![
            0u64..64,
            64u64..100_000,
            100_000u64..1_000_000_000,
            Just(u64::MAX),
        ],
        0..200,
    )
}

proptest! {
    #[test]
    fn cdf_is_monotone_and_exhaustive(values in latencies()) {
        let s = record_all(&values);
        let mut last = 0u64;
        // Sweep a log ladder of bounds; cumulative counts must never
        // decrease and must reach the total by the top of the range.
        for k in 0..64u32 {
            let bound = 1u64 << k;
            let c = s.cumulative_le(bound.saturating_sub(1).max(1));
            prop_assert!(c >= last, "CDF decreased at 2^{k}");
            prop_assert!(c <= s.count());
            last = c;
        }
        prop_assert_eq!(s.cumulative_le(u64::MAX), s.count());
    }

    #[test]
    fn percentiles_are_monotone(values in latencies()) {
        let s = record_all(&values);
        let ps = [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0];
        let mut last = 0u64;
        for &p in &ps {
            let v = s.percentile(p);
            prop_assert!(v >= last, "percentile({p}) = {v} < {last}");
            last = v;
        }
        // The headline invariant.
        prop_assert!(s.percentile(50.0) <= s.percentile(99.0));
    }

    #[test]
    fn percentile_brackets_true_quantile(values in latencies()) {
        prop_assume!(!values.is_empty());
        let s = record_all(&values);
        let mut sorted = values.clone();
        sorted.sort_unstable();
        // p100 must cover the max within one bucket's quantization (~3%,
        // or saturated for clamped values).
        let max = *sorted.last().unwrap();
        let p100 = s.percentile(100.0);
        if max < (1u64 << 38) {
            prop_assert!(p100 >= max, "p100={p100} < max={max}");
            prop_assert!(p100 as f64 <= max as f64 * 1.04 + 1.0);
        }
    }

    #[test]
    fn merge_is_associative_and_matches_shared(
        a in latencies(),
        b in latencies(),
        c in latencies(),
    ) {
        let (sa, sb, sc) = (record_all(&a), record_all(&b), record_all(&c));

        // (a ⊕ b) ⊕ c
        let mut left = sa.clone();
        left.merge(&sb);
        left.merge(&sc);

        // a ⊕ (b ⊕ c)
        let mut bc = sb.clone();
        bc.merge(&sc);
        let mut right = sa.clone();
        right.merge(&bc);

        prop_assert_eq!(&left, &right, "merge must be associative");

        // b ⊕ a == a ⊕ b (commutative)
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        prop_assert_eq!(&ab, &ba, "merge must be commutative");

        // Sharded-then-merged equals one shared histogram over everything.
        let all: Vec<u64> = a.iter().chain(&b).chain(&c).copied().collect();
        let shared = record_all(&all);
        prop_assert_eq!(&left, &shared, "shard merge must match shared histogram");
    }
}

/// Concurrent recording from several workers, then a quiesced snapshot:
/// nothing lost, nothing double-counted — the consistency guarantee every
/// multi-threaded recorder (server workers, pooled clients) relies on.
#[test]
fn concurrent_recording_snapshot_is_exact() {
    use std::sync::Arc;

    for workers in [2usize, 4, 8] {
        let h = Arc::new(Histogram::new());
        let per_worker = 5_000u64;
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    let mut sum = 0u64;
                    for i in 0..per_worker {
                        // Deterministic spread across buckets per worker.
                        let v = (i * 37 + w as u64 * 1_009) % 2_000_000;
                        h.record(v);
                        sum += v;
                    }
                    sum
                })
            })
            .collect();
        let expect_sum: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        let s = h.snapshot();
        assert_eq!(s.count(), per_worker * workers as u64);
        assert_eq!(s.sum_ns(), expect_sum);
        assert_eq!(
            s.bucket_counts().iter().sum::<u64>(),
            s.count(),
            "bucket counts must account for every observation"
        );
    }
}
