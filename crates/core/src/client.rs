//! The client stub: automatic four-tier differential sends.
//!
//! "When called upon to make an outcall, the client stub determines
//! whether parts or all of the last copy of the same message type can be
//! reused" (§3.1). [`Client::call`] is that stub, and it is thin: it names
//! the template (tenant, endpoint, structure, lane), hands the call to the
//! one tiered send ([`TemplateStore::send`], shared with the server's
//! response path) and settles the outcome — `ClientStats`, `BytesSent`,
//! the latency histogram and the degraded-mode ladder, all of which move
//! only once the transport took the bytes ([`crate::send`] states the
//! whole accounting rule).
//!
//! Two §6 ("Future Work") refinements are opt-in:
//!
//! * [`Client::set_templates_per_key`] keeps up to *k* templates per
//!   `(endpoint, structure)` and serves the one whose array lengths match
//!   the outgoing call — alternating message shapes stop paying for
//!   resizes;
//! * [`Client::set_endpoint_sharing`] lets a first call to a *new*
//!   endpoint clone a same-structure template saved for another service
//!   and merely diff it, amortizing serialization across services.

use crate::cache::TemplateKey;
use crate::config::{EngineConfig, WireFormat};
use crate::error::EngineError;
use crate::overlay::{max_element_bytes, OverlayReport, OverlaySender};
use crate::schema::{OpDesc, TypeDesc};
use crate::sendv::write_all_vectored;
use crate::store::{StoreKey, TemplateStore};
use crate::template::{SendReport, SendTier};
use crate::value::Value;
use bsoap_obs::{Counter, HistId, Metrics, Recorder, TraceKind};
use std::collections::HashMap;
use std::io::Write;
use std::sync::Arc;

/// Cumulative client statistics across all templates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Calls that built a new template from scratch.
    pub first_time: u64,
    /// Calls resent verbatim.
    pub content_match: u64,
    /// Calls that patched values in place.
    pub perfect_structural: u64,
    /// Calls that resized the template.
    pub partial_structural: u64,
    /// Calls that bootstrapped a new endpoint by cloning a sibling
    /// template (§6 cross-endpoint sharing). Also counted under the tier
    /// the post-clone diff realized.
    pub shared_clones: u64,
    /// Calls served in degraded mode: stateless full serialization with
    /// no template retained. Also counted under `first_time`.
    pub degraded_sends: u64,
    /// Total bytes handed to transports.
    pub bytes_sent: u64,
}

impl ClientStats {
    /// Total call count.
    pub fn calls(&self) -> u64 {
        self.first_time + self.content_match + self.perfect_structural + self.partial_structural
    }

    fn record(&mut self, tier: SendTier, bytes: usize) {
        match tier {
            SendTier::FirstTime => self.first_time += 1,
            SendTier::ContentMatch => self.content_match += 1,
            SendTier::PerfectStructural => self.perfect_structural += 1,
            SendTier::PartialStructural => self.partial_structural += 1,
        }
        self.bytes_sent += bytes as u64;
    }
}

/// Per-endpoint failure bookkeeping for the degraded-mode ladder.
#[derive(Clone, Copy, Debug, Default)]
struct EndpointHealth {
    /// Transport failures since the last success.
    consecutive_failures: u32,
    /// Whether the endpoint is demoted to stateless full sends.
    degraded: bool,
    /// Successes accumulated while degraded (drives recovery).
    degraded_successes: u32,
}

/// How [`Client::call_overlaid`] served a call.
#[derive(Clone, Copy, Debug)]
pub enum OverlaidOutcome {
    /// Large enough to stream: served by the chunk-overlay pipeline.
    Streamed(OverlayReport),
    /// Below [`EngineConfig::overlay_threshold_bytes`] (or not a
    /// single-array call): served by the buffered tier machinery.
    Buffered(SendReport),
}

/// A differential-serialization SOAP client.
#[derive(Debug)]
pub struct Client {
    config: EngineConfig,
    stats: ClientStats,
    templates_per_key: usize,
    share_across_endpoints: bool,
    metrics: Option<Arc<Metrics>>,
    health: HashMap<String, EndpointHealth>,
    /// Cached overlay senders, keyed like templates: the window fragment
    /// is the overlaid region's "saved copy", so keeping the sender across
    /// calls is what preserves DUT/tier semantics between streamed sends.
    overlays: HashMap<TemplateKey, OverlaySender>,
    /// Template ownership: the store handle (injected via
    /// [`Client::set_template_store`], or a private one created lazily
    /// from the config's budget knobs).
    store: Option<Arc<TemplateStore>>,
    /// Tenant this client's templates are charged to in the shared store.
    tenant: u64,
    /// Overlay-window bytes currently reserved against the shared store's
    /// budget, per key.
    overlay_reserved: HashMap<TemplateKey, u64>,
    /// Per-endpoint negotiated wire format overrides (set by the
    /// transport's negotiation layer once a peer advertises the binary
    /// lane). Endpoints not present use the config's `wire_format`.
    endpoint_formats: HashMap<String, WireFormat>,
}

impl Client {
    /// Client with the given engine configuration.
    pub fn new(config: EngineConfig) -> Self {
        Client {
            config,
            stats: ClientStats::default(),
            templates_per_key: 1,
            share_across_endpoints: false,
            metrics: None,
            health: HashMap::new(),
            overlays: HashMap::new(),
            store: None,
            tenant: 0,
            overlay_reserved: HashMap::new(),
            endpoint_formats: HashMap::new(),
        }
    }

    /// Client with the paper-default configuration.
    pub fn with_defaults() -> Self {
        Self::new(EngineConfig::paper_default())
    }

    /// The engine configuration in force.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// Route template ownership through `store` (shared across clients,
    /// server cores, even processes' worth of tenants). Without an
    /// injected store the client lazily creates a private one from the
    /// config's budget knobs.
    pub fn set_template_store(&mut self, store: Arc<TemplateStore>) {
        if let Some(m) = &self.metrics {
            store.set_metrics(Arc::clone(m));
        }
        self.store = Some(store);
    }

    /// The template store, if one exists yet (injected or lazily built).
    pub fn template_store(&self) -> Option<&Arc<TemplateStore>> {
        self.store.as_ref()
    }

    /// Tenant this client's templates are charged to in the shared store
    /// (default `0`).
    pub fn set_tenant(&mut self, tenant: u64) {
        self.tenant = tenant;
    }

    /// The shared-store handle, creating a private store from the
    /// config's budget knobs on first use.
    fn store_handle(&mut self) -> Arc<TemplateStore> {
        if self.store.is_none() {
            let store = TemplateStore::new(
                self.config.store_budget_bytes,
                self.config.tenant_quota_bytes,
            );
            if let Some(m) = &self.metrics {
                store.set_metrics(Arc::clone(m));
            }
            self.store = Some(Arc::new(store));
        }
        Arc::clone(self.store.as_ref().expect("just created"))
    }

    /// Total templates saved for this client. With an injected store this
    /// counts the whole store (other clients' templates included).
    pub fn template_count(&self) -> usize {
        self.store.as_ref().map_or(0, |s| s.template_count())
    }

    /// Distinct `(endpoint, structure)` keys with at least one saved
    /// template.
    pub fn cached_keys(&self) -> usize {
        self.store.as_ref().map_or(0, |s| s.len())
    }

    /// Attach an observability registry. Every subsequent call records its
    /// tier counter and patch-work counters (via the template flush), plus
    /// a per-tier send-latency observation covering diff + flush +
    /// transport. Templates built from now on inherit the registry.
    pub fn set_metrics(&mut self, metrics: Arc<Metrics>) {
        if let Some(store) = &self.store {
            store.set_metrics(Arc::clone(&metrics));
        }
        self.metrics = Some(metrics);
    }

    /// The attached registry, if any.
    pub fn metrics(&self) -> Option<&Arc<Metrics>> {
        self.metrics.as_ref()
    }

    /// Keep up to `k` templates per `(endpoint, structure)` key (§6).
    /// Values are clamped to at least 1. With `k > 1`, a call whose array
    /// lengths match no cached template builds a new variant instead of
    /// resizing, up to the cap; the least recently used variant is
    /// evicted.
    pub fn set_templates_per_key(&mut self, k: usize) {
        self.templates_per_key = k.max(1);
    }

    /// Enable cross-endpoint template sharing (§6): first calls to a new
    /// endpoint clone a same-structure sibling template and diff it
    /// rather than serializing from scratch.
    pub fn set_endpoint_sharing(&mut self, on: bool) {
        self.share_across_endpoints = on;
    }

    /// Pin the wire format used for `endpoint` — the hook the transport's
    /// negotiation layer calls once the peer's `X-BSOAP-Accept` advert (or
    /// its absence) settles the lane. Templates for the endpoint are keyed
    /// by format, so switching lanes never patches bytes of the other lane;
    /// templates already saved for the previous lane simply go cold.
    pub fn set_endpoint_format(&mut self, endpoint: &str, format: WireFormat) {
        self.endpoint_formats.insert(endpoint.to_owned(), format);
    }

    /// The wire format in force for `endpoint`: the negotiated override if
    /// one was pinned, else the config's `wire_format`.
    pub fn endpoint_format(&self, endpoint: &str) -> WireFormat {
        self.endpoint_formats
            .get(endpoint)
            .copied()
            .unwrap_or(self.config.wire_format)
    }

    /// Store key for `(endpoint, op)` under the endpoint's format.
    fn key_for(&self, endpoint: &str, op: &OpDesc) -> StoreKey {
        let format = self.endpoint_format(endpoint);
        StoreKey::new(self.tenant, TemplateKey::for_format(endpoint, op, format))
    }

    /// Invoke `op` on `endpoint` with `args`, sending the message to
    /// `sink`. Selects the cheapest of the four matching tiers.
    pub fn call(
        &mut self,
        endpoint: &str,
        op: &OpDesc,
        args: &[Value],
        sink: &mut impl Write,
    ) -> Result<SendReport, EngineError> {
        self.call_via(endpoint, op, args, |slices| {
            let mut w = sink;
            write_all_vectored(&mut w, slices)
        })
    }

    /// Like [`Client::call`], but hands the serialized message (as its
    /// chunk gather list) to `send` — the hook for framed transports
    /// (e.g. an HTTP POST per message) that need to see whole-message
    /// boundaries rather than a byte stream.
    pub fn call_via<F>(
        &mut self,
        endpoint: &str,
        op: &OpDesc,
        args: &[Value],
        send: F,
    ) -> Result<SendReport, EngineError>
    where
        F: FnOnce(&[std::io::IoSlice<'_>]) -> std::io::Result<usize>,
    {
        let call_start = self.metrics.as_ref().map(|m| m.now_ns());
        // Degraded mode: stateless full serialization every call, no
        // template looked up or retained (`cap` 0). Counted as a
        // first-time send plus `DegradedSends`.
        let degraded = self.is_degraded(endpoint);
        let cap = if degraded { 0 } else { self.templates_per_key };
        let out = self.store_handle().send(
            &self.key_for(endpoint, op),
            &self.config,
            self.metrics.as_ref(),
            op,
            args,
            cap,
            self.share_across_endpoints,
            send,
        );
        let out = out.map(|(report, cloned)| {
            self.stats.shared_clones += u64::from(cloned);
            report
        });
        let sent = out.as_ref().map(|r| (r.tier, r.bytes));
        self.settle(endpoint, op, call_start, degraded, sent);
        out
    }

    /// The delivery half of the accounting rule ([`crate::send`]), shared
    /// by tiered and overlaid calls: `ClientStats`, `BytesSent` and the
    /// per-tier latency observation move only when the transport took the
    /// bytes; a transport failure moves the degraded-mode ladder instead.
    fn settle(
        &mut self,
        endpoint: &str,
        op: &OpDesc,
        call_start: Option<u64>,
        degraded: bool,
        sent: Result<(SendTier, usize), &EngineError>,
    ) {
        match sent {
            Ok((tier, bytes)) => {
                self.stats.record(tier, bytes);
                self.stats.degraded_sends += u64::from(degraded);
                if let Some(m) = &self.metrics {
                    if degraded {
                        m.add(Counter::DegradedSends, 1);
                    }
                    m.add(Counter::BytesSent, bytes as u64);
                    let elapsed = m.now_ns().saturating_sub(call_start.unwrap_or(0));
                    m.observe_ns(HistId::send(tier), elapsed);
                }
                self.note_send_success(endpoint);
            }
            // Transport failures — I/O and deadline expiry alike — drive
            // the degraded-mode ladder. `DeadlinesExceeded` is counted
            // (and traced) by the layer that *detected* the expiry (the
            // transport's `Resilience`); counting here too would read one
            // expired call as two on a shared registry.
            Err(EngineError::Io(_) | EngineError::DeadlineExceeded) => {
                self.note_send_failure(endpoint, op);
            }
            // Semantic errors (schema/arity/plan) say nothing about the
            // endpoint's health.
            Err(_) => {}
        }
    }

    /// Whether the overlay path would engage for this call: a
    /// single-array operation whose worst-case serialized size meets
    /// [`EngineConfig::overlay_threshold_bytes`].
    pub fn overlay_engages(&self, op: &OpDesc, args: &[Value]) -> bool {
        if op.params.len() != 1 || args.len() != 1 {
            return false;
        }
        let TypeDesc::Array { item } = &op.params[0].desc else {
            return false;
        };
        let Some(n) = args[0].array_len() else {
            return false;
        };
        n.saturating_mul(max_element_bytes(item)) >= self.config.overlay_threshold_bytes
    }

    /// Invoke `op` streaming the array argument through the chunk-overlay
    /// pipeline (§3.3) when the call is large enough to benefit, falling
    /// through to the ordinary tiered [`Client::call`] otherwise. The
    /// engagement decision is [`Client::overlay_engages`]; the knobs are
    /// [`EngineConfig::overlay_threshold_bytes`] and
    /// [`EngineConfig::window_elems`].
    pub fn call_overlaid(
        &mut self,
        endpoint: &str,
        op: &OpDesc,
        args: &[Value],
        sink: &mut impl Write,
    ) -> Result<OverlaidOutcome, EngineError> {
        if self.overlay_engages(op, args) {
            let report = self.call_overlaid_via(endpoint, op, args, |slices| {
                let mut w = &mut *sink;
                write_all_vectored(&mut w, slices)
            })?;
            Ok(OverlaidOutcome::Streamed(report))
        } else {
            self.call(endpoint, op, args, sink)
                .map(OverlaidOutcome::Buffered)
        }
    }

    /// Like [`Client::call_overlaid`] but always streaming, handing every
    /// serialized portion to `portion` the moment it exists — the hook a
    /// chunked transport (`ChunkedBodyWriter::write_portion`) plugs into
    /// so each overlaid portion leaves as its own HTTP chunk.
    ///
    /// The overlay sender for `(endpoint, op)` persists across calls:
    /// the first streamed send builds the window fragment (tier
    /// `FirstTime`), subsequent sends re-serialize only values into it
    /// (tier `PerfectStructural`) — the same DUT semantics the buffered
    /// tiers provide, scoped to the reused window.
    pub fn call_overlaid_via<F>(
        &mut self,
        endpoint: &str,
        op: &OpDesc,
        args: &[Value],
        portion: F,
    ) -> Result<OverlayReport, EngineError>
    where
        F: FnMut(&[std::io::IoSlice<'_>]) -> std::io::Result<usize>,
    {
        if args.len() != 1 {
            return Err(EngineError::StructureMismatch {
                why: "overlay call takes exactly the array argument".into(),
            });
        }
        let call_start = self.metrics.as_ref().map(|m| m.now_ns());
        // The chunk-overlay pipeline streams the XML envelope around
        // window fragments; it is not format-negotiated, so overlaid
        // sends always take the XML lane regardless of the endpoint's
        // negotiated format (buffered tiers carry the binary lane).
        let key = TemplateKey::new(endpoint, op);
        if !self.overlays.contains_key(&key) {
            let config = self.config.with_wire_format(WireFormat::SoapXml);
            let sender = if config.window_elems == 0 {
                OverlaySender::auto_window(config, op)?
            } else {
                OverlaySender::new(config, op, config.window_elems)?
            };
            self.overlays.insert(key.clone(), sender);
        }
        let sender = self.overlays.get_mut(&key).expect("just inserted");
        if let (Some(m), None) = (self.metrics.clone(), sender.metrics()) {
            sender.set_metrics(m);
        }
        let out = sender.send_portions(&args[0], portion);
        if let Ok(report) = &out {
            // Charge the cached window fragment to the store's budget
            // (reserved, non-evictable — it is the overlaid region's
            // saved copy), reconciling as the peak moves.
            let window_now = report.window_bytes as u64;
            let reserved = self.overlay_reserved.get(&key).copied().unwrap_or(0);
            if window_now != reserved {
                let store = self.store_handle();
                if window_now > reserved {
                    store.reserve(self.tenant, window_now - reserved);
                } else {
                    store.release(self.tenant, reserved - window_now);
                }
                self.overlay_reserved.insert(key, window_now);
            }
        }
        let sent = out.as_ref().map(|r| (r.tier, r.bytes));
        self.settle(endpoint, op, call_start, false, sent);
        out
    }

    /// Whether `endpoint` is currently demoted to stateless full sends.
    pub fn is_degraded(&self, endpoint: &str) -> bool {
        self.config.degrade_after > 0
            && self
                .health
                .get(endpoint)
                .map(|h| h.degraded)
                .unwrap_or(false)
    }

    fn note_send_success(&mut self, endpoint: &str) {
        if self.config.degrade_after == 0 {
            return;
        }
        let recover_after = self.config.recover_after.max(1);
        let h = self.health.entry(endpoint.to_owned()).or_default();
        h.consecutive_failures = 0;
        if h.degraded {
            h.degraded_successes += 1;
            if h.degraded_successes >= recover_after {
                h.degraded = false;
                h.degraded_successes = 0;
                if let Some(m) = &self.metrics {
                    m.trace(TraceKind::Degraded { on: false });
                }
            }
        }
    }

    fn note_send_failure(&mut self, endpoint: &str, op: &OpDesc) {
        if self.config.degrade_after == 0 {
            return;
        }
        let threshold = self.config.degrade_after;
        let h = self.health.entry(endpoint.to_owned()).or_default();
        h.consecutive_failures += 1;
        let demote = !h.degraded && h.consecutive_failures >= threshold;
        if demote {
            h.degraded = true;
            h.degraded_successes = 0;
            // Stateless mode retains nothing: drop the saved template (and
            // any overlay window fragment) so a possibly
            // poisoned-by-the-peer diff state can't linger.
            let key = self.key_for(endpoint, op);
            // Overlay senders always live on the XML lane (streamed sends
            // are not negotiated), so their bookkeeping is keyed XML.
            let xml_key = TemplateKey::new(endpoint, op);
            if let Some(store) = &self.store {
                store.purge(&key);
                if let Some(bytes) = self.overlay_reserved.remove(&xml_key) {
                    store.release(self.tenant, bytes);
                }
            }
            self.overlays.remove(&xml_key);
            if let Some(m) = &self.metrics {
                m.trace(TraceKind::Degraded { on: true });
            }
        }
    }

    /// Drop the saved template(s) for `(endpoint, op)` (memory
    /// reclamation).
    pub fn evict(&mut self, endpoint: &str, op: &OpDesc) -> bool {
        let key = self.key_for(endpoint, op);
        self.store.as_ref().is_some_and(|s| s.purge(&key) > 0)
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        // Return overlay-window reservations to a shared store's budget.
        if let Some(store) = &self.store {
            for (_, bytes) in self.overlay_reserved.drain() {
                store.release(self.tenant, bytes);
            }
        }
    }
}
