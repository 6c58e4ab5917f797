//! The client stub: automatic four-tier differential sends.
//!
//! "When called upon to make an outcall, the client stub determines
//! whether parts or all of the last copy of the same message type can be
//! reused" (§3.1). [`Client::call`] is that stub, and it is thin: it finds
//! the call site — one record per endpoint, one entry per operation, whose
//! store keys were built on the site's first call — hands the call to the
//! one tiered send ([`TemplateStore::send`], shared with the server's
//! response path) on the lane it was given, and settles the outcome —
//! `ClientStats`, `BytesSent`, the latency histogram and the degraded-mode
//! ladder, all of which move only once the transport took the bytes
//! ([`crate::send`] states the whole accounting rule).
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

use crate::config::{EngineConfig, WireFormat};
use crate::error::EngineError;
use crate::overlay::{element_bytes, OverlayReport, OverlaySender};
use crate::schema::OpDesc;
use crate::sendv::write_all_vectored;
use crate::store::{StoreKey, TemplateKey, TemplateStore};
use crate::template::{SendReport, SendTier};
use crate::value::Value;
use bsoap_obs::{Counter, HistId, Metrics, Recorder, TraceKind};
use std::collections::HashMap;
use std::io::{IoSlice, Write};
use std::sync::Arc;

/// Estimated serialized size from which [`Client::call_overlaid`] streams
/// a single-array call through the overlay instead of a buffered send
/// (below it, overlay framing costs more than it saves).
const OVERLAY_THRESHOLD_BYTES: usize = 1 << 20;

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
}

/// What the client keeps per endpoint: the degraded-mode ladder and one
/// [`Site`] per operation called there.
#[derive(Debug, Default)]
struct Endpoint {
    /// Whether the endpoint is demoted to stateless full sends.
    degraded: bool,
    /// The run that would flip `degraded`: transport failures in a row
    /// while healthy, successes so far while degraded.
    streak: u32,
    sites: Vec<Site>,
}

/// One call site — an operation on an endpoint, the paper's "client stub"
/// (§3.1): what names its templates and holds its streamed window is
/// fixed on the first call and reused by every later one.
#[derive(Debug)]
struct Site {
    /// A later call finds the site by comparing descriptors, not by
    /// rebuilding a signature.
    op: OpDesc,
    /// Store key of each lane, at [`WireFormat::index`].
    keys: [StoreKey; WireFormat::ALL.len()],
    /// The overlay sender: its window fragment is the overlaid region's
    /// "saved copy", so keeping it across calls is what preserves DUT/tier
    /// semantics between streamed sends.
    overlay: Option<OverlaySender>,
    /// Window bytes reserved against the store's budget for `overlay`.
    reserved: u64,
}

impl Endpoint {
    /// Index of the site for `op`, created on its first call.
    fn site(&mut self, endpoint: &str, op: &OpDesc) -> usize {
        let seen = self.sites.iter().position(|s| s.op == *op);
        seen.unwrap_or_else(|| {
            let key = |lane| StoreKey::new(0, TemplateKey::for_format(endpoint, op, lane));
            self.sites.push(Site {
                op: op.clone(),
                keys: WireFormat::ALL.map(key),
                overlay: None,
                reserved: 0,
            });
            self.sites.len() - 1
        })
    }

    /// Move the ladder by one call's outcome at `site`. Transport
    /// failures — I/O and deadline expiry alike — drive it
    /// (`DeadlinesExceeded` is counted and traced by the layer that
    /// *detected* the expiry, the transport's `Resilience`); a semantic
    /// error (schema/arity/plan) says nothing about the endpoint's health.
    fn settle(
        &mut self,
        site: usize,
        sent: &Result<(SendTier, usize), &EngineError>,
        config: &EngineConfig,
        store: &TemplateStore,
        metrics: Option<&Arc<Metrics>>,
    ) {
        if config.degrade_after == 0 {
            return;
        }
        let limit = match (sent, self.degraded) {
            (Ok(_), true) => config.recover_after.max(1),
            (Ok(_), false) => {
                self.streak = 0;
                return;
            }
            (Err(EngineError::Io(_) | EngineError::DeadlineExceeded), false) => {
                config.degrade_after
            }
            (Err(_), _) => return,
        };
        self.streak += 1;
        if self.streak < limit {
            return;
        }
        self.degraded = !self.degraded;
        self.streak = 0;
        if self.degraded {
            // Stateless mode retains nothing: a possibly
            // poisoned-by-the-peer diff state must not linger.
            self.sites[site].clean(store);
        }
        if let Some(m) = metrics {
            m.trace(TraceKind::Degraded { on: self.degraded });
        }
    }
}

impl Site {
    /// Forget everything saved for the site — every lane's templates, the
    /// overlay window and its reservation. Returns how many templates went.
    fn clean(&mut self, store: &TemplateStore) -> usize {
        self.overlay = None;
        store.release(0, std::mem::take(&mut self.reserved));
        self.keys.iter().map(|key| store.purge(key)).sum()
    }
}

/// How [`Client::call_overlaid`] served a call.
#[derive(Clone, Copy, Debug)]
pub enum OverlaidOutcome {
    /// Large enough to stream: served by the chunk-overlay pipeline.
    Streamed(OverlayReport),
    /// Below 1 MiB at worst-case widths (or not a single-array call):
    /// served by the buffered tier machinery.
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
    /// Owner of every saved template: a private store sized by the
    /// config's budget knobs unless [`Client::set_template_store`] injects
    /// a shared one. The client files under tenant `0`.
    store: Arc<TemplateStore>,
    endpoints: HashMap<String, Endpoint>,
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
            store: TemplateStore::shared(config.store_budget_bytes, config.tenant_quota_bytes),
            endpoints: HashMap::new(),
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
    /// server cores, even processes' worth of tenants) instead of the
    /// client's private one. Inject before the first call: what was
    /// already saved or reserved stays with the store that took it.
    pub fn set_template_store(&mut self, store: Arc<TemplateStore>) {
        if let Some(m) = &self.metrics {
            store.set_metrics(Arc::clone(m));
        }
        self.store = store;
    }

    /// The store that owns this client's templates.
    pub fn template_store(&self) -> &Arc<TemplateStore> {
        &self.store
    }

    /// Attach an observability registry. Every subsequent call records its
    /// tier counter and patch-work counters (via the template flush), plus
    /// a per-tier send-latency observation covering diff + flush +
    /// transport. Templates built from now on inherit the registry.
    pub fn set_metrics(&mut self, metrics: Arc<Metrics>) {
        self.store.set_metrics(Arc::clone(&metrics));
        self.metrics = Some(metrics);
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
            write_all_vectored(sink, slices)
        })
    }

    /// Like [`Client::call`], but hands the serialized message (as its
    /// chunk gather list) to `send` — the hook for framed transports
    /// (e.g. an HTTP POST per message) that need to see whole-message
    /// boundaries rather than a byte stream.
    pub fn call_via(
        &mut self,
        endpoint: &str,
        op: &OpDesc,
        args: &[Value],
        send: impl FnOnce(&[IoSlice<'_>]) -> std::io::Result<usize>,
    ) -> Result<SendReport, EngineError> {
        self.call_on(self.config.wire_format, endpoint, op, args, send)
    }

    /// [`Client::call_via`] on an explicit wire `lane` — the entry of a
    /// transport that negotiates: it holds the peer's verdict and passes
    /// it with every call. Templates are filed per lane, so switching
    /// never patches bytes of the other lane; what was saved for the
    /// previous lane simply goes cold.
    pub fn call_on(
        &mut self,
        lane: WireFormat,
        endpoint: &str,
        op: &OpDesc,
        args: &[Value],
        send: impl FnOnce(&[IoSlice<'_>]) -> std::io::Result<usize>,
    ) -> Result<SendReport, EngineError> {
        let call_start = self.metrics.as_ref().map(|m| m.now_ns());
        let ep = match self.endpoints.get_mut(endpoint) {
            Some(ep) => ep,
            None => self.endpoints.entry(endpoint.to_owned()).or_default(),
        };
        let site = ep.site(endpoint, op);
        // Degraded mode: stateless full serialization every call, no
        // template looked up or retained (`cap` 0). Counted as a
        // first-time send plus `DegradedSends`.
        let degraded = ep.degraded;
        let cap = if degraded { 0 } else { self.templates_per_key };
        let out = self.store.send(
            &ep.sites[site].keys[lane.index()],
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
        ep.settle(
            site,
            &sent,
            &self.config,
            &self.store,
            self.metrics.as_ref(),
        );
        self.count_delivered(call_start, degraded, sent);
        out
    }

    /// The delivery half of the accounting rule ([`crate::send`]), shared
    /// by tiered and overlaid calls: `ClientStats`, `BytesSent` and the
    /// per-tier latency observation move only when the transport took the
    /// bytes (a transport failure moves the endpoint's ladder instead).
    fn count_delivered(
        &mut self,
        call_start: Option<u64>,
        degraded: bool,
        sent: Result<(SendTier, usize), &EngineError>,
    ) {
        let Ok((tier, bytes)) = sent else { return };
        match tier {
            SendTier::FirstTime => self.stats.first_time += 1,
            SendTier::ContentMatch => self.stats.content_match += 1,
            SendTier::PerfectStructural => self.stats.perfect_structural += 1,
            SendTier::PartialStructural => self.stats.partial_structural += 1,
        }
        self.stats.bytes_sent += bytes as u64;
        self.stats.degraded_sends += u64::from(degraded);
        if let Some(m) = &self.metrics {
            if degraded {
                m.add(Counter::DegradedSends, 1);
            }
            m.add(Counter::BytesSent, bytes as u64);
            let elapsed = m.now_ns().saturating_sub(call_start.unwrap_or(0));
            m.observe_ns(HistId::send(tier), elapsed);
        }
    }

    /// Whether the overlay path would engage for this call: a
    /// single-array operation whose worst-case serialized size is 1 MiB or
    /// more.
    pub fn overlay_engages(&self, op: &OpDesc, args: &[Value]) -> bool {
        let (Ok((_, item)), [arg]) = (op.sole_array(), args) else {
            return false;
        };
        let (Some(n), Ok(elem)) = (arg.array_len(), element_bytes(item)) else {
            return false;
        };
        n.saturating_mul(elem) >= OVERLAY_THRESHOLD_BYTES
    }

    /// Invoke `op` streaming the array argument through the chunk-overlay
    /// pipeline (§3.3) when the call is large enough to benefit, falling
    /// through to the ordinary tiered [`Client::call`] otherwise. The
    /// engagement decision is [`Client::overlay_engages`]; the window is
    /// one chunk ([`OverlaySender::auto_window`]).
    pub fn call_overlaid(
        &mut self,
        endpoint: &str,
        op: &OpDesc,
        args: &[Value],
        sink: &mut impl Write,
    ) -> Result<OverlaidOutcome, EngineError> {
        if self.overlay_engages(op, args) {
            let report = self.call_overlaid_via(endpoint, op, args, |slices| {
                write_all_vectored(&mut *sink, slices)
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
    /// tiers provide, scoped to the reused window. The pipeline streams an
    /// XML envelope around its window fragments and is not negotiated, so
    /// an overlaid send is XML ([`OverlaySender::new`] pins it) whatever
    /// lane the buffered tiers ride. A degraded endpoint streams
    /// stateless, like the tiered path: a throwaway window, nothing
    /// reserved, counted as a degraded first-time send.
    pub fn call_overlaid_via(
        &mut self,
        endpoint: &str,
        op: &OpDesc,
        args: &[Value],
        portion: impl FnMut(&[IoSlice<'_>]) -> std::io::Result<usize>,
    ) -> Result<OverlayReport, EngineError> {
        let call_start = self.metrics.as_ref().map(|m| m.now_ns());
        let ep = match self.endpoints.get_mut(endpoint) {
            Some(ep) => ep,
            None => self.endpoints.entry(endpoint.to_owned()).or_default(),
        };
        let at = ep.site(endpoint, op);
        let degraded = ep.degraded;
        let site = &mut ep.sites[at];
        let mut throwaway = None;
        let kept = if degraded {
            &mut throwaway
        } else {
            &mut site.overlay
        };
        let sender = match kept {
            Some(sender) => sender,
            None => kept.insert(OverlaySender::auto_window(self.config, op)?),
        };
        if let (Some(m), None) = (&self.metrics, sender.metrics()) {
            sender.set_metrics(Arc::clone(m));
        }
        let out = sender.stream(args, portion);
        if let (Ok(report), false) = (&out, degraded) {
            // Charge the cached window fragment to the store's budget
            // (reserved, non-evictable — it is the overlaid region's
            // saved copy), reconciling as the peak moves.
            let window_now = report.window_bytes as u64;
            if window_now > site.reserved {
                self.store.reserve(0, window_now - site.reserved);
            } else {
                self.store.release(0, site.reserved - window_now);
            }
            site.reserved = window_now;
        }
        let sent = out.as_ref().map(|r| (r.tier, r.bytes));
        ep.settle(at, &sent, &self.config, &self.store, self.metrics.as_ref());
        self.count_delivered(call_start, degraded, sent);
        out
    }

    /// Whether `endpoint` is currently demoted to stateless full sends.
    pub fn is_degraded(&self, endpoint: &str) -> bool {
        self.endpoints.get(endpoint).is_some_and(|ep| ep.degraded)
    }

    /// Drop what this client saved for `(endpoint, op)` — its templates
    /// on every lane and its overlay window (memory reclamation).
    pub fn evict(&mut self, endpoint: &str, op: &OpDesc) -> bool {
        let ep = self.endpoints.get_mut(endpoint);
        let site = ep.and_then(|ep| ep.sites.iter_mut().find(|s| s.op == *op));
        site.is_some_and(|site| site.clean(&self.store) > 0)
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        // A shared store outlives the client; its budget must not keep
        // paying for this client's overlay windows.
        let sites = self.endpoints.values().flat_map(|ep| &ep.sites);
        sites.for_each(|site| self.store.release(0, site.reserved));
    }
}
