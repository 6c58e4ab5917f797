//! Engine configuration: the paper's design-space knobs.

pub use bsoap_chunks::ChunkConfig;
pub use bsoap_convert::FloatFormatter;
use bsoap_convert::ScalarKind;
pub use bsoap_obs::ServerCore;

pub use crate::lane::WireFormat;

/// Initial field-width policy — the *stuffing* knob (§3.2, §4.4).
///
/// The field width is the number of characters allocated to a value in the
/// template; it "must always match or exceed the serialized length" (§3.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WidthPolicy {
    /// Allocate exactly the serialized length (no stuffing). Growth later
    /// requires stealing/shifting.
    Exact,
    /// Stuff every bounded field to its type's maximum width: "setting
    /// field widths to maximum values can help avoid shifting altogether,
    /// at the expense of larger messages" (§3.2).
    Max,
    /// Stuff to a fixed intermediate width per kind (clamped up to the
    /// actual serialized length when the value is already longer). The
    /// paper's §4.4 intermediate widths are 18 chars for doubles and
    /// implicitly 36 for whole MIOs.
    Fixed {
        /// Width for `xsd:double` fields.
        double: usize,
        /// Width for `xsd:int` fields.
        int: usize,
        /// Width for `xsd:long` fields.
        long: usize,
    },
}

impl WidthPolicy {
    /// Initial field width for a value of `kind` whose serialized form is
    /// `ser_len` bytes. Strings are unbounded and never stuffed.
    pub fn initial_width(self, kind: ScalarKind, ser_len: usize) -> usize {
        let target = match (self, kind) {
            (_, ScalarKind::Str) => ser_len,
            (WidthPolicy::Exact, _) => ser_len,
            (WidthPolicy::Max, k) => k.max_width().unwrap_or(ser_len),
            (WidthPolicy::Fixed { double, .. }, ScalarKind::Double) => double,
            (WidthPolicy::Fixed { int, .. }, ScalarKind::Int) => int,
            (WidthPolicy::Fixed { long, .. }, ScalarKind::Long) => long,
            (WidthPolicy::Fixed { .. }, ScalarKind::Bool) => bsoap_convert::BOOL_MAX_WIDTH,
        };
        target.max(ser_len)
    }
}

/// What width a field gets after an expansion forced it to shift (§3.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum GrowthPolicy {
    /// Grow to exactly the new serialized length (minimal message size;
    /// the next growth shifts again).
    #[default]
    Exact,
    /// Grow straight to the type's maximum width so this field never
    /// shifts again.
    ToMax,
}

/// Who owns saved templates (§ DESIGN 3.14): always the sharded,
/// byte-budgeted [`crate::store::TemplateStore`] keyed by
/// `(tenant, endpoint, op)`. A client owns a private one until a shared
/// store is injected.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StoreMode {
    /// The only ownership mode.
    Shared,
}

/// Full engine configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EngineConfig {
    /// Chunk store parameters (initial size / split threshold / reserve).
    pub chunk: ChunkConfig,
    /// Initial stuffing policy.
    pub width: WidthPolicy,
    /// Post-shift growth policy.
    pub growth: GrowthPolicy,
    /// Enable stealing slack from the right neighbor before shifting.
    pub steal: bool,
    /// `f64` → ASCII conversion kernel. Both settings produce identical
    /// bytes; [`FloatFormatter::Exact2004`] reproduces the paper's
    /// conversion cost model, [`FloatFormatter::Fast`] is the Grisu3
    /// fast path (see `bsoap-convert::grisu`).
    pub float: FloatFormatter,
    /// Server side: which connection-handling core hosts connections.
    pub server_core: ServerCore,
    /// Enable the §5 break-even gate: before patching a saved template the
    /// client compares the plan's estimated cost against a from-scratch
    /// rebuild estimate and falls back to the FirstTime path when patching
    /// would be dearer.
    pub cost_fallback: bool,
    /// Break-even multiplier for the cost gate: fall back when
    /// `plan.cost() > fallback_ratio × rebuild_estimate`. `1.0` switches at
    /// the model's break-even point; larger values keep differential sends
    /// longer, smaller values fall back sooner.
    pub fallback_ratio: f64,
    /// Consecutive transport failures after which the client demotes the
    /// endpoint to degraded mode: stateless full-serialization sends, no
    /// template retained. `0` disables demotion.
    pub degrade_after: u32,
    /// Consecutive degraded-mode successes that promote the endpoint back
    /// to differential sends.
    pub recover_after: u32,
    /// Maximum bytes of HTTP head (start line + headers) read off the
    /// wire. A server answers a larger request head 400 and drops the
    /// connection; `RpcClient` fails a larger response head with a typed
    /// `TooLarge` I/O error.
    pub max_head_bytes: usize,
    /// Maximum HTTP body (`Content-Length` or summed chunks), enforced
    /// the same way on both sides: 400 for a request, a typed `TooLarge`
    /// I/O error for a response.
    pub max_body_bytes: usize,
    /// Not a knob: every byte kernel has one implementation, so this has
    /// one value and nothing reads it. Kept only for
    /// `benchmark/src/staged.rs`, which passes it on.
    #[doc(hidden)]
    pub kernel: (),
    /// Hard global byte budget for the shared template store (resident
    /// template bytes plus reserved overlay-window bytes). Admitting past
    /// it evicts the cheapest-to-rebuild templates first. `0` = unlimited.
    pub store_budget_bytes: usize,
    /// Per-tenant byte quota inside the shared store, so one hot tenant
    /// cannot evict everyone else. `0` = unlimited.
    pub tenant_quota_bytes: usize,
    /// Which wire framing templates serialize into: the paper's SOAP XML
    /// or the negotiated compact binary lane.
    pub wire_format: WireFormat,
}

impl EngineConfig {
    /// Paper-default configuration: 32 KiB chunks, exact widths, stealing
    /// on, the 2004-era exact conversion kernel. This is the operating
    /// point the figure reproductions pin.
    pub fn paper_default() -> Self {
        EngineConfig {
            chunk: ChunkConfig::k32(),
            width: WidthPolicy::Exact,
            growth: GrowthPolicy::Exact,
            steal: true,
            float: FloatFormatter::Exact2004,
            server_core: ServerCore::WorkerPool,
            cost_fallback: false,
            fallback_ratio: 1.0,
            degrade_after: 0,
            recover_after: 2,
            max_head_bytes: 1 << 20,
            max_body_bytes: 64 << 20,
            kernel: (),
            store_budget_bytes: 0,
            tenant_quota_bytes: 0,
            wire_format: WireFormat::SoapXml,
        }
    }

    /// Configuration with maximum stuffing (the shift-free operating point).
    pub fn stuffed_max() -> Self {
        EngineConfig {
            width: WidthPolicy::Max,
            ..Self::paper_default()
        }
    }

    /// Builder-style chunk override.
    pub fn with_chunk(mut self, chunk: ChunkConfig) -> Self {
        self.chunk = chunk;
        self
    }

    /// Builder-style width override.
    pub fn with_width(mut self, width: WidthPolicy) -> Self {
        self.width = width;
        self
    }

    /// Builder-style growth override.
    pub fn with_growth(mut self, growth: GrowthPolicy) -> Self {
        self.growth = growth;
        self
    }

    /// Builder-style steal toggle.
    pub fn with_steal(mut self, steal: bool) -> Self {
        self.steal = steal;
        self
    }

    /// Builder-style float-kernel override.
    pub fn with_float(mut self, float: FloatFormatter) -> Self {
        self.float = float;
        self
    }

    /// Builder-style server-core override.
    pub fn with_server_core(mut self, core: ServerCore) -> Self {
        self.server_core = core;
        self
    }

    /// Builder-style cost-gate toggle.
    pub fn with_cost_fallback(mut self, on: bool) -> Self {
        self.cost_fallback = on;
        self
    }

    /// Builder-style break-even ratio override.
    pub fn with_fallback_ratio(mut self, ratio: f64) -> Self {
        self.fallback_ratio = ratio;
        self
    }

    /// Builder-style degraded-mode ladder: demote after `degrade_after`
    /// consecutive failures, promote after `recover_after` successes.
    pub fn with_degraded(mut self, degrade_after: u32, recover_after: u32) -> Self {
        self.degrade_after = degrade_after;
        self.recover_after = recover_after.max(1);
        self
    }

    /// Builder-style HTTP caps (head bytes, body bytes) for requests a
    /// server reads and responses `RpcClient` reads.
    pub fn with_http_caps(mut self, max_head_bytes: usize, max_body_bytes: usize) -> Self {
        self.max_head_bytes = max_head_bytes;
        self.max_body_bytes = max_body_bytes;
        self
    }

    /// No-op kept only for `benchmark/src/spec.rs`, which PR 13 could not edit.
    #[doc(hidden)]
    pub fn with_store_mode(self, _: StoreMode) -> Self {
        self
    }

    /// Builder-style shared-store global byte budget (`0` = unlimited).
    pub fn with_store_budget(mut self, bytes: usize) -> Self {
        self.store_budget_bytes = bytes;
        self
    }

    /// Builder-style per-tenant byte quota (`0` = unlimited).
    pub fn with_tenant_quota(mut self, bytes: usize) -> Self {
        self.tenant_quota_bytes = bytes;
        self
    }

    /// Builder-style wire-format override.
    pub fn with_wire_format(mut self, format: WireFormat) -> Self {
        self.wire_format = format;
        self
    }
}

impl Default for EngineConfig {
    /// Like [`EngineConfig::paper_default`] but with the fast float kernel:
    /// the output bytes are identical, only the conversion cost differs, so
    /// this is the right default everywhere except cost-model figures.
    fn default() -> Self {
        Self::paper_default().with_float(FloatFormatter::Fast)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_policy_exact() {
        assert_eq!(WidthPolicy::Exact.initial_width(ScalarKind::Double, 5), 5);
    }

    #[test]
    fn width_policy_max() {
        assert_eq!(WidthPolicy::Max.initial_width(ScalarKind::Double, 5), 24);
        assert_eq!(WidthPolicy::Max.initial_width(ScalarKind::Int, 2), 11);
        // Strings have no max — width stays at the serialized length.
        assert_eq!(WidthPolicy::Max.initial_width(ScalarKind::Str, 7), 7);
    }

    #[test]
    fn width_policy_fixed_clamps_up() {
        let p = WidthPolicy::Fixed {
            double: 18,
            int: 6,
            long: 12,
        };
        assert_eq!(p.initial_width(ScalarKind::Double, 5), 18);
        assert_eq!(
            p.initial_width(ScalarKind::Double, 22),
            22,
            "never below ser_len"
        );
        assert_eq!(p.initial_width(ScalarKind::Int, 2), 6);
    }

    #[test]
    fn builder_chain() {
        let c = EngineConfig::paper_default()
            .with_chunk(ChunkConfig::k8())
            .with_width(WidthPolicy::Max)
            .with_growth(GrowthPolicy::ToMax)
            .with_steal(false);
        assert_eq!(c.chunk, ChunkConfig::k8());
        assert_eq!(c.width, WidthPolicy::Max);
        assert_eq!(c.growth, GrowthPolicy::ToMax);
        assert!(!c.steal);
    }

    #[test]
    fn paper_default_pins_exact_kernel() {
        let p = EngineConfig::paper_default();
        assert_eq!(p.float, FloatFormatter::Exact2004);
        // Default differs only in the (byte-identical) conversion kernel.
        let d = EngineConfig::default();
        assert_eq!(d.float, FloatFormatter::Fast);
        assert_eq!(d.with_float(FloatFormatter::Exact2004), p);
    }

    #[test]
    fn builder_plan_knobs() {
        let d = EngineConfig::paper_default();
        assert!(!d.cost_fallback);
        assert_eq!(d.fallback_ratio, 1.0);
        let c = d.with_cost_fallback(true).with_fallback_ratio(0.5);
        assert!(c.cost_fallback);
        assert_eq!(c.fallback_ratio, 0.5);
    }

    #[test]
    fn server_core_knob() {
        let d = EngineConfig::paper_default();
        assert_eq!(d.server_core, ServerCore::WorkerPool);
        let c = d.with_server_core(ServerCore::EventLoop);
        assert_eq!(c.server_core, ServerCore::EventLoop);
    }

    #[test]
    fn store_budget_knobs() {
        let d = EngineConfig::paper_default();
        assert_eq!(d.store_budget_bytes, 0, "budget unlimited by default");
        assert_eq!(d.tenant_quota_bytes, 0, "quota unlimited by default");
        let c = d.with_store_budget(1 << 20).with_tenant_quota(64 << 10);
        assert_eq!(c.store_budget_bytes, 1 << 20);
        assert_eq!(c.tenant_quota_bytes, 64 << 10);
    }

    #[test]
    fn wire_format_knobs() {
        let d = EngineConfig::paper_default();
        assert_eq!(d.wire_format, WireFormat::SoapXml);
        for lane in WireFormat::ALL {
            assert_eq!(d.with_wire_format(lane).wire_format, lane);
        }
    }

    #[test]
    fn fault_knobs_default_off_and_build() {
        let d = EngineConfig::paper_default();
        assert_eq!(d.degrade_after, 0, "degraded mode off by default");
        assert_eq!(d.max_head_bytes, 1 << 20);
        assert_eq!(d.max_body_bytes, 64 << 20);
        let c = d.with_degraded(4, 2).with_http_caps(8 << 10, 1 << 20);
        assert_eq!(c.degrade_after, 4);
        assert_eq!(c.recover_after, 2);
        assert_eq!(c.max_head_bytes, 8 << 10);
        assert_eq!(c.max_body_bytes, 1 << 20);
    }
}
