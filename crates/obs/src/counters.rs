//! Lock-free counter primitives.
//!
//! [`ShardedCounter`] spreads increments across cache-line-padded atomic
//! shards so concurrent flush workers and server threads never contend on
//! one line; reads sum the shards. [`MaxGauge`] keeps a running maximum
//! (peak open connections, largest overlay window).

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Number of shards. Power of two; enough that a worker pool of the sizes
/// this engine runs (≤ a few dozen threads) rarely collides.
const SHARDS: usize = 16;

/// One atomic on its own cache line.
#[repr(align(64))]
#[derive(Default)]
struct PaddedAtomic(AtomicU64);

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static MY_SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The shard this thread increments. Assigned round-robin on first use so
/// threads spread out even when spawned in bursts.
fn my_shard() -> usize {
    MY_SHARD.with(|s| {
        let v = s.get();
        if v != usize::MAX {
            return v;
        }
        let v = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
        s.set(v);
        v
    })
}

/// A monotone counter sharded across cache lines.
#[derive(Default)]
pub struct ShardedCounter {
    shards: [PaddedAtomic; SHARDS],
}

impl ShardedCounter {
    /// New counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` on this thread's shard.
    #[inline]
    pub fn add(&self, delta: u64) {
        self.shards[my_shard()]
            .0
            .fetch_add(delta, Ordering::Relaxed);
    }

    /// Sum of all shards. Monotone between calls as long as only `add` is
    /// used; concurrent adds may or may not be visible (relaxed loads).
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

impl std::fmt::Debug for ShardedCounter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("ShardedCounter").field(&self.get()).finish()
    }
}

/// A gauge that remembers the maximum value ever observed.
#[derive(Default)]
pub struct MaxGauge(AtomicU64);

impl MaxGauge {
    /// New gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record an observation; keeps the max.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// The maximum observed so far.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for MaxGauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("MaxGauge").field(&self.get()).finish()
    }
}

/// A settable up/down gauge (current value, not a peak). Backs resource
/// levels such as resident template bytes, where the quantity shrinks on
/// eviction — something [`MaxGauge`] (fetch-max only) cannot express.
#[derive(Default)]
pub struct LevelGauge(AtomicU64);

impl LevelGauge {
    /// New gauge at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overwrite the level.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raise the level by `delta`.
    #[inline]
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Lower the level by `delta`, saturating at zero.
    #[inline]
    pub fn sub(&self, delta: u64) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(delta))
            });
    }

    /// The current level.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for LevelGauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("LevelGauge").field(&self.get()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counter_sums_across_threads() {
        let c = Arc::new(ShardedCounter::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    c.add(1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 80_000);
    }

    #[test]
    fn max_gauge_keeps_peak() {
        let g = MaxGauge::new();
        g.observe(3);
        g.observe(7);
        g.observe(5);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn level_gauge_tracks_current_value() {
        let g = LevelGauge::new();
        g.add(10);
        g.sub(3);
        assert_eq!(g.get(), 7);
        g.set(100);
        assert_eq!(g.get(), 100);
        g.sub(200);
        assert_eq!(g.get(), 0, "sub saturates at zero");
    }
}
