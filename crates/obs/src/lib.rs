//! # bsoap-obs — the observability layer
//!
//! Metrics and tracing for the differential-serialization engine. The
//! paper's argument is about *which tier a send takes* and *how much work
//! shifting and chunk management do* (HPDC 2004 §3–§4); this crate makes
//! those quantities visible on live traffic:
//!
//! * [`ShardedCounter`] — lock-free, cache-line-padded monotone counters;
//! * [`Histogram`] — fixed-bucket log-linear latency histograms (~3%
//!   relative error, wait-free recording, no allocation after construction);
//! * [`TraceRing`] — a bounded ring of per-send span events;
//! * [`Clock`] / [`VirtualClock`] — injectable time so timing-dependent
//!   tests run deterministically;
//! * [`Metrics`] — the registry tying these together, with
//!   [`Metrics::snapshot`] producing an [`EngineStats`] and
//!   [`Metrics::render_prometheus`] producing the `/metrics` text body.
//!
//! Everything is std-only: no new dependencies.
//!
//! ## Cost when disabled
//!
//! Components hold an `Option<Arc<Metrics>>`; the disabled path is a
//! `None` check (one branch, no atomics). A constructed registry can also
//! be switched off with [`Metrics::set_enabled`], turning every record
//! call into a single relaxed load.

mod clock;
mod counters;
mod deadline;
mod hist;
mod prom;
mod trace;

pub use clock::{Clock, MonotonicClock, VirtualClock};
pub use counters::{LevelGauge, MaxGauge, ShardedCounter};
pub use deadline::{Backoff, Deadline, DeadlineExpired};
pub use hist::{bucket_upper_ns, max_trackable_ns, HistSnapshot, Histogram, BUCKETS};
pub use prom::parse_value;
pub use trace::{BreakerState, TraceEvent, TraceKind, TraceRing};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Which connection-handling core a server runs (DESIGN.md §3.13). It
/// lives in this leaf crate so `EngineConfig::server_core` (`bsoap-core`)
/// and `ServerOptions::core` (`bsoap-transport`), which do not see each
/// other, are one type rather than two mirrored ones.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ServerCore {
    /// One blocking worker thread drives each connection end to end on
    /// the bounded accept pool.
    WorkerPool,
    /// Epoll loops multiplex every connection as a sans-io state machine
    /// and hand complete requests to a small dispatch pool. Falls back to
    /// [`ServerCore::WorkerPool`] on platforms without epoll.
    EventLoop,
}

/// Which of the paper's four matching tiers a send used (§3). Defined
/// here so the observability layer stays a leaf crate (core depends on
/// obs, not the other way around); `bsoap_core::SendTier` is this type.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Tier {
    /// First-time send: full serialization, template built.
    FirstTime,
    /// Message content match: nothing dirty, bytes resent verbatim.
    ContentMatch,
    /// Perfect structural match: only dirty values rewritten in place.
    PerfectStructural,
    /// Partial structural match: array sizes changed; template expanded or
    /// contracted before patching.
    PartialStructural,
}

impl Tier {
    /// All tiers in counter order.
    pub const ALL: [Tier; 4] = [
        Tier::FirstTime,
        Tier::ContentMatch,
        Tier::PerfectStructural,
        Tier::PartialStructural,
    ];

    /// Human-readable tier name (matches the paper's terminology).
    pub fn name(self) -> &'static str {
        match self {
            Tier::FirstTime => "first-time send",
            Tier::ContentMatch => "message content match",
            Tier::PerfectStructural => "perfect structural match",
            Tier::PartialStructural => "partial structural match",
        }
    }

    /// Stable snake_case label (Prometheus `tier` label value).
    pub fn label(self) -> &'static str {
        match self {
            Tier::FirstTime => "first_time",
            Tier::ContentMatch => "content_match",
            Tier::PerfectStructural => "perfect_structural",
            Tier::PartialStructural => "partial_structural",
        }
    }

    /// Index into per-tier arrays.
    pub fn index(self) -> usize {
        match self {
            Tier::FirstTime => 0,
            Tier::ContentMatch => 1,
            Tier::PerfectStructural => 2,
            Tier::PartialStructural => 3,
        }
    }
}

macro_rules! metric_enum {
    ($(#[$meta:meta])* $name:ident { $($(#[$vmeta:meta])* $variant:ident => $label:literal,)+ }) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        pub enum $name {
            $($(#[$vmeta])* $variant,)+
        }

        impl $name {
            /// Every variant, in declaration (array-index) order.
            pub const ALL: &'static [$name] = &[$($name::$variant,)+];

            /// Number of variants.
            pub const COUNT: usize = $name::ALL.len();

            /// Array index of this variant.
            pub fn index(self) -> usize {
                self as usize
            }

            /// Prometheus metric name.
            pub fn name(self) -> &'static str {
                match self {
                    $($name::$variant => $label,)+
                }
            }
        }
    };
}

metric_enum! {
    /// Monotone engine counters.
    Counter {
        /// Sends that took the first-time tier.
        SendFirstTime => "bsoap_sends_total",
        /// Sends that took the content-match tier.
        SendContentMatch => "bsoap_sends_total",
        /// Sends that took the perfect-structural tier.
        SendPerfectStructural => "bsoap_sends_total",
        /// Sends that took the partial-structural tier.
        SendPartialStructural => "bsoap_sends_total",
        /// Dirty values rewritten into saved messages.
        ValuesWritten => "bsoap_values_written_total",
        /// Shift operations (tail moved to widen a field).
        Shifts => "bsoap_shifts_total",
        /// Steal operations (width taken from a neighbor's padding).
        Steals => "bsoap_steals_total",
        /// Chunk splits forced by field expansion.
        Splits => "bsoap_chunk_splits_total",
        /// Bytes moved by shifting.
        ShiftedBytes => "bsoap_shifted_bytes_total",
        /// DUT entries whose location was fixed up after shifts/splits.
        DutFixups => "bsoap_dut_fixups_total",
        /// Payload bytes handed to the transport.
        BytesSent => "bsoap_bytes_sent_total",
        /// Vectored write syscalls issued.
        WritevCalls => "bsoap_writev_calls_total",
        /// Vectored writes that returned short and had to resume.
        WritevPartials => "bsoap_writev_partials_total",
        /// Chunk allocations grown in place.
        ChunkGrows => "bsoap_chunk_grows_total",
        /// Bytes moved by intra-chunk range moves (stealing).
        ChunkMovedBytes => "bsoap_chunk_moved_bytes_total",
        /// Pool connections dialed fresh.
        PoolCreated => "bsoap_pool_created_total",
        /// Pool checkouts satisfied by an idle connection.
        PoolReused => "bsoap_pool_reused_total",
        /// Pooled connections found dead at checkout.
        PoolStale => "bsoap_pool_stale_total",
        /// Pooled connections reaped by idle timeout.
        PoolExpired => "bsoap_pool_expired_total",
        /// Calls retried once on a stale pooled connection.
        PoolRetries => "bsoap_pool_retries_total",
        /// Connections accepted by the worker-pool server.
        ServerConnections => "bsoap_server_connections_total",
        /// Requests served.
        ServerRequests => "bsoap_server_requests_total",
        /// Response bytes written by the server.
        ServerBytesOut => "bsoap_server_bytes_out_total",
        /// `GET /metrics` scrapes served.
        MetricsScrapes => "bsoap_metrics_scrapes_total",
        /// Read-only send plans computed by the planner.
        PlansComputed => "bsoap_plans_computed_total",
        /// Sends where the cost gate discarded the template and fell back
        /// to a first-time serialization.
        CostFallbacks => "bsoap_cost_fallbacks_total",
        /// Coalesced right-to-left shift passes (one per chunk with
        /// planned width growth, regardless of how many fields grew).
        CoalescedShiftPasses => "bsoap_coalesced_shift_passes_total",
        /// Send attempts re-issued by the retry policy (excludes the
        /// first attempt of each call).
        RetriesAttempted => "bsoap_retries_attempted_total",
        /// Circuit-breaker transitions into the open state.
        BreakerOpens => "bsoap_breaker_opens_total",
        /// Calls refused fast because the breaker was open.
        BreakerFastFails => "bsoap_breaker_fast_fails_total",
        /// Calls that ran out of deadline budget.
        DeadlinesExceeded => "bsoap_deadlines_exceeded_total",
        /// Sends made in degraded mode (stateless full serialization,
        /// no template retained).
        DegradedSends => "bsoap_degraded_sends_total",
        /// Malformed requests answered with 400 by the server.
        ServerBadRequests => "bsoap_server_bad_requests_total",
        /// Connections evicted by the server's per-connection read
        /// deadline (slow-loris defense).
        ServerTimeouts => "bsoap_server_timeouts_total",
        /// Window portions streamed by the chunk-overlay sender (§3.3):
        /// each is one re-serialization of the reused window fragment,
        /// flushed to the wire as its own HTTP chunk.
        OverlayPortions => "bsoap_overlay_portions_total",
        /// Payload bytes streamed through the overlay pipeline (prologue +
        /// portions + epilogue; excludes HTTP framing).
        OverlayBytesStreamed => "bsoap_overlay_bytes_streamed_total",
        /// Per-connection state-machine transitions on the event-loop
        /// server core (one per edge the connection's lifecycle takes).
        ConnStateTransitions => "bsoap_conn_state_transitions_total",
        /// Idle keep-alive connections reaped by the event-loop core's
        /// idle timer (distinct from [`Counter::ServerTimeouts`], which
        /// counts mid-request stalls and budget exhaustion).
        ServerIdleReaped => "bsoap_server_idle_reaped_total",
        /// Shared-store lookups that returned a usable saved template.
        TemplateHits => "bsoap_template_hits_total",
        /// Shared-store lookups that found nothing usable (no entry, or a
        /// structural match below the promotion bar) and forced a rebuild.
        TemplateMisses => "bsoap_template_misses_total",
        /// Templates dropped by the shared store: budget/quota eviction,
        /// per-key cap overflow, cost-fallback discard, degraded purge.
        TemplateEvictions => "bsoap_template_evictions_total",
        /// Sends that went out on the SOAP/XML wire lane.
        SendsXml => "bsoap_sends_xml_total",
        /// Sends that went out on the negotiated compact binary wire lane.
        SendsBinary => "bsoap_sends_binary_total",
    }
}

impl Counter {
    /// The send counter for a tier.
    pub fn send(tier: Tier) -> Counter {
        match tier {
            Tier::FirstTime => Counter::SendFirstTime,
            Tier::ContentMatch => Counter::SendContentMatch,
            Tier::PerfectStructural => Counter::SendPerfectStructural,
            Tier::PartialStructural => Counter::SendPartialStructural,
        }
    }
}

metric_enum! {
    /// Peak-value gauges.
    Gauge {
        /// Deepest the server accept queue ever got.
        QueueDepthPeak => "bsoap_queue_depth_peak",
        /// Largest window fragment (template bytes) the overlay sender
        /// ever held — the sender's memory bound, flat in array size.
        OverlayWindowPeakBytes => "bsoap_overlay_window_peak_bytes",
        /// Most connections the event-loop server core ever held open at
        /// once (the readiness loop's concurrency high-water mark).
        ConnectionsOpenPeak => "bsoap_connections_open_peak",
    }
}

metric_enum! {
    /// Settable up/down level gauges (current value, not a peak).
    Level {
        /// Template bytes currently resident in the shared store
        /// (templates plus reserved overlay-window fragments).
        TemplateBytesResident => "bsoap_template_bytes_resident",
    }
}

metric_enum! {
    /// Latency histogram identifiers.
    HistId {
        /// Client send latency, first-time tier.
        SendFirstTime => "bsoap_send_latency_seconds",
        /// Client send latency, content-match tier.
        SendContentMatch => "bsoap_send_latency_seconds",
        /// Client send latency, perfect-structural tier.
        SendPerfectStructural => "bsoap_send_latency_seconds",
        /// Client send latency, partial-structural tier.
        SendPartialStructural => "bsoap_send_latency_seconds",
        /// Server request handling latency.
        ServerRequest => "bsoap_request_latency_seconds",
        /// Pool checkout latency.
        PoolCheckout => "bsoap_pool_checkout_seconds",
    }
}

impl HistId {
    /// The send-latency histogram for a tier.
    pub fn send(tier: Tier) -> HistId {
        match tier {
            Tier::FirstTime => HistId::SendFirstTime,
            Tier::ContentMatch => HistId::SendContentMatch,
            Tier::PerfectStructural => HistId::SendPerfectStructural,
            Tier::PartialStructural => HistId::SendPartialStructural,
        }
    }
}

/// Sink for instrumentation events. [`Metrics`] is the real implementation;
/// the trait exists so tests and benches can substitute their own recorder
/// (or a no-op) without touching call sites.
pub trait Recorder: Send + Sync {
    /// Whether recording is on. Callers may skip work when false.
    fn is_enabled(&self) -> bool;
    /// Add to a counter.
    fn add(&self, c: Counter, delta: u64);
    /// Observe a peak-gauge value.
    fn gauge(&self, g: Gauge, v: u64);
    /// Record a latency observation in nanoseconds.
    fn observe_ns(&self, h: HistId, ns: u64);
    /// Drop a trace event into the ring.
    fn trace(&self, kind: TraceKind);
    /// Current time on the recorder's clock.
    fn now_ns(&self) -> u64;
}

/// Default trace-ring capacity (events).
pub const DEFAULT_TRACE_CAPACITY: usize = 1024;

/// The metrics registry: one per engine/server instance (or shared between
/// the two sides of a benchmark). All recording paths are lock-free except
/// the trace ring, which takes a short mutex.
pub struct Metrics {
    enabled: AtomicBool,
    clock: Arc<dyn Clock>,
    counters: [ShardedCounter; Counter::COUNT],
    gauges: [MaxGauge; Gauge::COUNT],
    levels: [LevelGauge; Level::COUNT],
    hists: [Histogram; HistId::COUNT],
    trace: TraceRing,
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// Registry on the real (monotonic) clock.
    pub fn new() -> Self {
        Self::with_clock(Arc::new(MonotonicClock::new()))
    }

    /// Registry on an injected clock (tests pass a [`VirtualClock`]).
    pub fn with_clock(clock: Arc<dyn Clock>) -> Self {
        Metrics {
            enabled: AtomicBool::new(true),
            clock,
            counters: std::array::from_fn(|_| ShardedCounter::new()),
            gauges: std::array::from_fn(|_| MaxGauge::new()),
            levels: std::array::from_fn(|_| LevelGauge::new()),
            hists: std::array::from_fn(|_| Histogram::new()),
            trace: TraceRing::new(DEFAULT_TRACE_CAPACITY),
        }
    }

    /// Convenience: a shared, enabled registry.
    pub fn shared() -> Arc<Metrics> {
        Arc::new(Metrics::new())
    }

    /// Flip recording on/off at runtime. When off, every record call is a
    /// single relaxed load and branch.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// The injected clock.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// The trace ring.
    pub fn trace_ring(&self) -> &TraceRing {
        &self.trace
    }

    /// Point-in-time aggregate of everything recorded so far.
    pub fn snapshot(&self) -> EngineStats {
        let (_, trace_dropped) = self.trace.snapshot();
        EngineStats {
            counters: std::array::from_fn(|i| self.counters[i].get()),
            gauges: std::array::from_fn(|i| self.gauges[i].get()),
            levels: std::array::from_fn(|i| self.levels[i].get()),
            hists: self.hists.iter().map(|h| h.snapshot()).collect(),
            trace_dropped,
        }
    }

    /// Overwrite a level gauge.
    #[inline]
    pub fn level_set(&self, l: Level, v: u64) {
        if self.is_enabled() {
            self.levels[l.index()].set(v);
        }
    }

    /// The current value of a level gauge.
    pub fn level_get(&self, l: Level) -> u64 {
        self.levels[l.index()].get()
    }

    /// Render the current snapshot in Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        prom::render(&self.snapshot())
    }
}

impl Recorder for Metrics {
    #[inline]
    fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    #[inline]
    fn add(&self, c: Counter, delta: u64) {
        if self.is_enabled() {
            self.counters[c.index()].add(delta);
        }
    }

    #[inline]
    fn gauge(&self, g: Gauge, v: u64) {
        if self.is_enabled() {
            self.gauges[g.index()].observe(v);
        }
    }

    #[inline]
    fn observe_ns(&self, h: HistId, ns: u64) {
        if self.is_enabled() {
            self.hists[h.index()].record(ns);
        }
    }

    fn trace(&self, kind: TraceKind) {
        if self.is_enabled() {
            self.trace.push(TraceEvent {
                ts_ns: self.clock.now_ns(),
                kind,
            });
        }
    }

    #[inline]
    fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }
}

impl std::fmt::Debug for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Metrics")
            .field("enabled", &self.is_enabled())
            .field("snapshot", &self.snapshot())
            .finish()
    }
}

/// A recorder that records nothing (clock pinned at 0).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn is_enabled(&self) -> bool {
        false
    }
    fn add(&self, _: Counter, _: u64) {}
    fn gauge(&self, _: Gauge, _: u64) {}
    fn observe_ns(&self, _: HistId, _: u64) {}
    fn trace(&self, _: TraceKind) {}
    fn now_ns(&self) -> u64 {
        0
    }
}

/// Point-in-time aggregate of a [`Metrics`] registry — the engine's
/// observable state. Plain data: compare, clone, diff.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EngineStats {
    /// All counters, indexed by [`Counter::index`].
    counters: [u64; Counter::COUNT],
    /// All gauges, indexed by [`Gauge::index`].
    gauges: [u64; Gauge::COUNT],
    /// All level gauges, indexed by [`Level::index`].
    levels: [u64; Level::COUNT],
    /// All histograms, indexed by [`HistId::index`].
    hists: Vec<HistSnapshot>,
    /// Trace events evicted from the ring so far.
    trace_dropped: u64,
}

impl Default for EngineStats {
    // Derived `Default` stops at 32-element arrays; spelled out so the
    // counter enum can keep growing.
    fn default() -> Self {
        EngineStats {
            counters: [0; Counter::COUNT],
            gauges: [0; Gauge::COUNT],
            levels: [0; Level::COUNT],
            hists: Vec::new(),
            trace_dropped: 0,
        }
    }
}

impl EngineStats {
    /// Snapshot a registry (alias for [`Metrics::snapshot`]).
    pub fn snapshot(metrics: &Metrics) -> EngineStats {
        metrics.snapshot()
    }

    /// Value of a counter.
    pub fn get(&self, c: Counter) -> u64 {
        self.counters[c.index()]
    }

    /// Value of a gauge.
    pub fn gauge(&self, g: Gauge) -> u64 {
        self.gauges[g.index()]
    }

    /// Value of a level gauge.
    pub fn level(&self, l: Level) -> u64 {
        self.levels[l.index()]
    }

    /// A histogram's snapshot.
    pub fn hist(&self, h: HistId) -> &HistSnapshot {
        &self.hists[h.index()]
    }

    /// Sends recorded for one tier.
    pub fn tier_sends(&self, tier: Tier) -> u64 {
        self.get(Counter::send(tier))
    }

    /// Per-tier send counts in [`Tier::ALL`] order.
    pub fn tier_counts(&self) -> [u64; 4] {
        [
            self.tier_sends(Tier::FirstTime),
            self.tier_sends(Tier::ContentMatch),
            self.tier_sends(Tier::PerfectStructural),
            self.tier_sends(Tier::PartialStructural),
        ]
    }

    /// Total sends across all tiers.
    pub fn total_sends(&self) -> u64 {
        self.tier_counts().iter().sum()
    }

    /// Trace events evicted from the ring.
    pub fn trace_dropped(&self) -> u64 {
        self.trace_dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enum_indices_are_dense() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        for (i, h) in HistId::ALL.iter().enumerate() {
            assert_eq!(h.index(), i);
        }
        for (i, g) in Gauge::ALL.iter().enumerate() {
            assert_eq!(g.index(), i);
        }
        for (i, l) in Level::ALL.iter().enumerate() {
            assert_eq!(l.index(), i);
        }
    }

    #[test]
    fn level_gauge_moves_both_ways_in_snapshots() {
        let m = Metrics::new();
        m.level_set(Level::TemplateBytesResident, 4096);
        assert_eq!(m.snapshot().level(Level::TemplateBytesResident), 4096);
        m.level_set(Level::TemplateBytesResident, 128);
        assert_eq!(m.snapshot().level(Level::TemplateBytesResident), 128);
        m.set_enabled(false);
        m.level_set(Level::TemplateBytesResident, 9);
        assert_eq!(m.level_get(Level::TemplateBytesResident), 128);
    }

    #[test]
    fn snapshot_reflects_recording() {
        let m = Metrics::new();
        m.add(Counter::send(Tier::ContentMatch), 3);
        m.add(Counter::Shifts, 7);
        m.gauge(Gauge::QueueDepthPeak, 5);
        m.observe_ns(HistId::ServerRequest, 1_500);
        let s = m.snapshot();
        assert_eq!(s.tier_sends(Tier::ContentMatch), 3);
        assert_eq!(s.get(Counter::Shifts), 7);
        assert_eq!(s.gauge(Gauge::QueueDepthPeak), 5);
        assert_eq!(s.hist(HistId::ServerRequest).count(), 1);
        assert_eq!(s.total_sends(), 3);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let m = Metrics::new();
        m.set_enabled(false);
        m.add(Counter::Shifts, 1);
        m.observe_ns(HistId::ServerRequest, 10);
        m.trace(TraceKind::PoolReconnect);
        let s = m.snapshot();
        assert_eq!(s.get(Counter::Shifts), 0);
        assert_eq!(s.hist(HistId::ServerRequest).count(), 0);
        assert!(m.trace_ring().snapshot().0.is_empty());
    }

    #[test]
    fn virtual_clock_drives_trace_timestamps() {
        let clock = Arc::new(VirtualClock::new());
        let m = Metrics::with_clock(clock.clone());
        clock.advance(42);
        m.trace(TraceKind::PoolReconnect);
        let (events, _) = m.trace_ring().snapshot();
        assert_eq!(events[0].ts_ns, 42);
    }
}
