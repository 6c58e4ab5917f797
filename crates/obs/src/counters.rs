//! Gauge primitives: [`MaxGauge`] keeps a running maximum (peak open
//! connections, largest overlay window) and [`LevelGauge`] a settable
//! current value (resident template bytes). Each is one atomic, like a
//! [`crate::Metrics`] counter.

use std::sync::atomic::{AtomicU64, Ordering};

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
