//! Operation registry and the per-message dispatch pipeline.

use bsoap_core::{
    EngineConfig, OpDesc, SendTier, StoreKey, TemplateKey, TemplateStore, Value, WireFormat,
};
use bsoap_deser::{DeserError, DiffOutcome, LaneDeserializer};
use bsoap_obs::Metrics;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Error produced by an operation handler or the dispatch pipeline.
#[derive(Debug)]
pub enum HandlerError {
    /// No operation with the requested name is registered.
    UnknownOperation(String),
    /// Request body failed to deserialize.
    BadRequest(DeserError),
    /// The handler itself failed (becomes a SOAP fault).
    Fault(String),
    /// Response serialization failed.
    Response(bsoap_core::EngineError),
    /// The request used a wire format this service does not accept
    /// (maps to HTTP 415; clients downgrade to XML and retry).
    UnsupportedFormat(WireFormat),
}

impl fmt::Display for HandlerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HandlerError::UnknownOperation(n) => write!(f, "unknown operation {n}"),
            HandlerError::BadRequest(e) => write!(f, "bad request: {e}"),
            HandlerError::Fault(m) => write!(f, "fault: {m}"),
            HandlerError::Response(e) => write!(f, "response serialization: {e}"),
            HandlerError::UnsupportedFormat(w) => {
                write!(f, "unsupported wire format {}", w.name())
            }
        }
    }
}

impl std::error::Error for HandlerError {}

/// Handler: request argument values in, response argument values out.
pub type Handler = dyn Fn(&[Value]) -> Result<Vec<Value>, String> + Send + Sync;

struct Operation {
    response: OpDesc,
    handler: Box<Handler>,
    /// One request deserializer per lane, at [`WireFormat::index`]: each
    /// lane keeps its own retained reference message (and content-match
    /// fast path).
    deser: [Mutex<LaneDeserializer>; WireFormat::ALL.len()],
    /// Where the response template lives in the service's store, one key
    /// per lane at [`WireFormat::index`] (the lanes have different byte
    /// geometry, so each keeps its own resident template). §3: one
    /// template serves "multiple separate clients". Built once here so a
    /// served response builds no key.
    response_keys: [StoreKey; WireFormat::ALL.len()],
}

/// Cumulative service statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests dispatched successfully.
    pub requests: u64,
    /// Requests that arrived byte-identical to the previous one.
    pub requests_identical: u64,
    /// Requests parsed differentially (leaf-level).
    pub requests_differential: u64,
    /// Requests fully parsed.
    pub requests_full_parse: u64,
    /// Responses resent verbatim (content matches).
    pub responses_content: u64,
    /// Responses patched in place (perfect structural).
    pub responses_perfect: u64,
    /// Responses resized (partial structural).
    pub responses_partial: u64,
    /// Responses serialized from scratch.
    pub responses_first: u64,
    /// Handler faults returned.
    pub faults: u64,
}

/// A SOAP service: registered operations plus both differential engines.
pub struct Service {
    namespace: String,
    config: EngineConfig,
    ops: HashMap<String, Operation>,
    stats: Mutex<ServiceStats>,
    metrics: Option<Arc<Metrics>>,
    /// Owner of every response template, keyed by `(tenant, namespace,
    /// response op, lane)`: a private unbudgeted store unless
    /// [`Service::set_template_store`] injects a shared one, so several
    /// servers reuse one another's serialized responses under one byte
    /// budget.
    store: Arc<TemplateStore>,
    tenant: u64,
    /// Whether this service accepts (and adverts) the negotiated lanes.
    /// Flipping it off mid-flight makes in-flight binary requests fail
    /// with [`HandlerError::UnsupportedFormat`] — the 415 that drives a
    /// client's mid-keep-alive downgrade back to XML.
    binary_enabled: AtomicBool,
}

impl Service {
    /// Empty service for `namespace` using `config` for response
    /// templates.
    pub fn new(namespace: &str, config: EngineConfig) -> Self {
        Service {
            namespace: namespace.to_owned(),
            config,
            ops: HashMap::new(),
            stats: Mutex::new(ServiceStats::default()),
            metrics: None,
            store: TemplateStore::shared(0, 0),
            tenant: 0,
            binary_enabled: AtomicBool::new(true),
        }
    }

    /// Toggle acceptance of the compact binary lane. Enabled by default;
    /// when disabled the service stops advertising `bin1` and rejects
    /// binary bodies with [`HandlerError::UnsupportedFormat`].
    pub fn set_binary_enabled(&self, enabled: bool) {
        self.binary_enabled.store(enabled, Ordering::SeqCst);
    }

    /// Whether the compact binary lane is currently accepted.
    pub fn binary_enabled(&self) -> bool {
        self.binary_enabled.load(Ordering::SeqCst)
    }

    /// Keep response templates in `store` under `tenant` instead of the
    /// service's private store. Inject the same store into several
    /// services (e.g. one per server core) to share response templates
    /// across them under one byte budget.
    pub fn set_template_store(&mut self, store: Arc<TemplateStore>, tenant: u64) {
        if let Some(m) = &self.metrics {
            store.set_metrics(Arc::clone(m));
        }
        self.store = store;
        self.tenant = tenant;
        for key in self.ops.values_mut().flat_map(|op| &mut op.response_keys) {
            key.tenant = tenant;
        }
    }

    /// The store that owns this service's response templates.
    pub fn template_store(&self) -> &Arc<TemplateStore> {
        &self.store
    }

    /// Attach an observability registry: response templates record their
    /// send tier, shift/steal/split work and DUT fix-ups into it, and the
    /// first-time serialization of each operation's response is counted.
    pub fn set_metrics(&mut self, metrics: Arc<Metrics>) {
        self.store.set_metrics(Arc::clone(&metrics));
        self.metrics = Some(metrics);
    }

    /// The attached observability registry, if any.
    pub fn metrics(&self) -> Option<&Arc<Metrics>> {
        self.metrics.as_ref()
    }

    /// The service namespace.
    pub fn namespace(&self) -> &str {
        &self.namespace
    }

    /// The engine configuration.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// Register `op` with a handler producing values for `response_params`
    /// (the response operation is conventionally named `{op}Response`).
    pub fn register(
        &mut self,
        request: OpDesc,
        response_params: Vec<bsoap_core::ParamDesc>,
        handler: impl Fn(&[Value]) -> Result<Vec<Value>, String> + Send + Sync + 'static,
    ) {
        let response = OpDesc::new(
            &format!("{}Response", request.name),
            &request.namespace,
            response_params,
        );
        let deser =
            WireFormat::ALL.map(|lane| Mutex::new(LaneDeserializer::new(lane, request.clone())));
        let response_keys = WireFormat::ALL.map(|format| {
            let key = TemplateKey::for_format(&self.namespace, &response, format);
            StoreKey::new(self.tenant, key)
        });
        self.ops.insert(
            request.name,
            Operation {
                response,
                handler: Box::new(handler),
                deser,
                response_keys,
            },
        );
    }

    /// Registered operation names (sorted).
    pub fn operation_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.ops.keys().cloned().collect();
        names.sort();
        names
    }

    /// The response descriptor of an operation.
    pub fn response_desc(&self, op: &str) -> Option<OpDesc> {
        self.ops.get(op).map(|o| o.response.clone())
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> ServiceStats {
        *self.stats.lock()
    }

    /// Dispatch one SOAP XML request body addressed to `op_name`; returns
    /// the serialized response envelope. Thin wrapper over
    /// [`Service::dispatch_formatted`] on the XML lane.
    pub fn dispatch(&self, op_name: &str, body: &[u8]) -> Result<Vec<u8>, HandlerError> {
        self.dispatch_formatted(op_name, body, WireFormat::SoapXml)
            .map(|(bytes, _)| bytes)
    }

    /// Dispatch one request body addressed to `op_name` on the given wire
    /// lane; returns the serialized response envelope plus the format it
    /// was serialized in (the response mirrors the request's format).
    /// Binary requests are rejected with
    /// [`HandlerError::UnsupportedFormat`] while the lane is disabled.
    pub fn dispatch_formatted(
        &self,
        op_name: &str,
        body: &[u8],
        format: WireFormat,
    ) -> Result<(Vec<u8>, WireFormat), HandlerError> {
        self.dispatch_with(op_name, format, |deser| deser.deserialize(body))
    }

    /// [`Service::dispatch_formatted`] of a body the caller owns, which the
    /// reference takes by swap: `body` comes back a spare buffer.
    pub fn dispatch_owned(
        &self,
        op_name: &str,
        body: &mut Vec<u8>,
        format: WireFormat,
    ) -> Result<(Vec<u8>, WireFormat), HandlerError> {
        self.dispatch_with(op_name, format, |deser| deser.deserialize_owned(body))
    }

    /// The one dispatch body; `decode` hands the request to its deserializer.
    fn dispatch_with(
        &self,
        op_name: &str,
        format: WireFormat,
        decode: impl FnOnce(&mut LaneDeserializer) -> Result<(&[Value], DiffOutcome), DeserError>,
    ) -> Result<(Vec<u8>, WireFormat), HandlerError> {
        if format.negotiated() && !self.binary_enabled() {
            return Err(HandlerError::UnsupportedFormat(format));
        }
        let op = self
            .ops
            .get(op_name)
            .ok_or_else(|| HandlerError::UnknownOperation(op_name.to_owned()))?;

        // 1. Differential deserialization of the request. Each lane keeps
        //    its own retained reference message, which the request becomes
        //    once it decodes (by swap when the body is owned); the handler
        //    runs under the lane's lock because args borrow the
        //    deserializer's state. Handlers are expected to be short. A
        //    handler that panics is a fault like any other: uncaught, the
        //    unwind would take the serving thread with it and the caller
        //    would never be answered. The handler only reads `args`, so
        //    the reference the finished deserialize left behind stands.
        let (result, outcome) = {
            let mut deser = op.deser[format.index()].lock();
            let (args, outcome) = decode(&mut deser).map_err(HandlerError::BadRequest)?;
            let result = catch_unwind(AssertUnwindSafe(|| (op.handler)(args)))
                .unwrap_or_else(|_| Err("handler panicked".to_owned()));
            (result, outcome)
        };

        // 2. Differential serialization of the response on the lane the
        //    request arrived on: the one tiered send, delivering into the
        //    response buffer. A cross-core hit if another service sharing
        //    the store serialized this response last. Cap 1: one response
        //    shape per operation and lane, resized in place.
        let mut bytes = Vec::new();
        let sent = result.map_err(HandlerError::Fault).and_then(|values| {
            let deliver = |slices: &[std::io::IoSlice<'_>]| {
                bytes.reserve_exact(slices.iter().map(|s| s.len()).sum());
                slices.iter().for_each(|s| bytes.extend_from_slice(s));
                Ok(bytes.len())
            };
            self.store
                .send(
                    &op.response_keys[format.index()],
                    &self.config,
                    self.metrics.as_ref(),
                    &op.response,
                    &values,
                    1,
                    false,
                    deliver,
                )
                .map_err(HandlerError::Response)
        });

        // 3. One stats fold per request, once its outcome is known.
        let mut stats = self.stats.lock();
        match outcome {
            DiffOutcome::Identical => stats.requests_identical += 1,
            DiffOutcome::Differential { .. } => stats.requests_differential += 1,
            DiffOutcome::FullParse => stats.requests_full_parse += 1,
        }
        match &sent {
            Ok((report, _)) => {
                stats.requests += 1;
                match report.tier {
                    SendTier::FirstTime => stats.responses_first += 1,
                    SendTier::ContentMatch => stats.responses_content += 1,
                    SendTier::PerfectStructural => stats.responses_perfect += 1,
                    SendTier::PartialStructural => stats.responses_partial += 1,
                }
            }
            Err(HandlerError::Fault(_)) => stats.faults += 1,
            Err(_) => {}
        }
        drop(stats);
        sent.map(|_| (bytes, format))
    }

    /// Render a minimal SOAP 1.1 fault envelope.
    pub fn fault_envelope(code: &str, message: &str) -> Vec<u8> {
        let mut out = Vec::with_capacity(256);
        out.extend_from_slice(bsoap_core::soap::XML_DECL.as_bytes());
        out.extend_from_slice(bsoap_core::soap::envelope_open("urn:fault").as_bytes());
        out.extend_from_slice(bsoap_core::soap::BODY_OPEN.as_bytes());
        out.extend_from_slice(b"<SOAP-ENV:Fault><faultcode>");
        bsoap_xml::escape_text_into(&mut out, code);
        out.extend_from_slice(b"</faultcode><faultstring>");
        bsoap_xml::escape_text_into(&mut out, message);
        out.extend_from_slice(b"</faultstring></SOAP-ENV:Fault>\n");
        out.extend_from_slice(bsoap_core::soap::CLOSES.as_bytes());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsoap_convert::ScalarKind;
    use bsoap_core::{MessageTemplate, ParamDesc, TypeDesc};

    fn echo_service() -> Service {
        let mut svc = Service::new("urn:echo", EngineConfig::paper_default());
        let op = OpDesc::single(
            "echo",
            "urn:echo",
            "xs",
            TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double)),
        );
        svc.register(
            op,
            vec![ParamDesc {
                name: "xs".into(),
                desc: TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double)),
            }],
            |args| Ok(args.to_vec()),
        );
        svc
    }

    fn lane_request_bytes(lane: WireFormat, xs: &[f64]) -> Vec<u8> {
        let op = OpDesc::single(
            "echo",
            "urn:echo",
            "xs",
            TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double)),
        );
        MessageTemplate::build(
            EngineConfig::paper_default().with_wire_format(lane),
            &op,
            &[Value::DoubleArray(xs.to_vec())],
        )
        .unwrap()
        .to_bytes()
    }

    fn request_bytes(xs: &[f64]) -> Vec<u8> {
        lane_request_bytes(WireFormat::SoapXml, xs)
    }

    #[test]
    fn every_lane_round_trips_and_tiers_progress() {
        for lane in WireFormat::ALL {
            let svc = echo_service();
            let resp_op = svc.response_desc("echo").unwrap();
            let dispatch = |xs: &[f64]| {
                svc.dispatch_formatted("echo", &lane_request_bytes(lane, xs), lane)
                    .unwrap()
            };
            let (resp, fmt) = dispatch(&[1.5, 2.5]);
            assert_eq!(fmt, lane);
            let parsed = bsoap_deser::decode(lane, &resp, &resp_op).unwrap();
            assert_eq!(parsed, vec![Value::DoubleArray(vec![1.5, 2.5])]);

            dispatch(&[1.5, 2.5]);
            dispatch(&[9.5, 2.5]);
            dispatch(&[9.5, 2.5, 3.5]);
            let s = svc.stats();
            assert_eq!(s.requests, 4, "{lane:?}");
            assert_eq!(s.responses_first, 1, "{lane:?}");
            assert_eq!(s.responses_content, 1, "{lane:?}");
            assert_eq!(s.responses_perfect, 1, "{lane:?}");
            assert_eq!(s.responses_partial, 1, "{lane:?}");
            // Request side: identical second request skipped parsing.
            assert_eq!(s.requests_identical, 1, "{lane:?}");
        }
    }

    #[test]
    fn unknown_operation_rejected() {
        let svc = echo_service();
        assert!(matches!(
            svc.dispatch("ghost", b"<x/>"),
            Err(HandlerError::UnknownOperation(_))
        ));
    }

    #[test]
    fn malformed_body_rejected() {
        let svc = echo_service();
        assert!(matches!(
            svc.dispatch("echo", b"not xml"),
            Err(HandlerError::BadRequest(_))
        ));
    }

    #[test]
    fn handler_fault_counted() {
        let mut svc = Service::new("urn:f", EngineConfig::paper_default());
        let op = OpDesc::single("f", "urn:f", "v", TypeDesc::Scalar(ScalarKind::Int));
        svc.register(
            op.clone(),
            vec![ParamDesc {
                name: "r".into(),
                desc: TypeDesc::Scalar(ScalarKind::Int),
            }],
            |_| Err("nope".to_owned()),
        );
        let body = MessageTemplate::build(EngineConfig::paper_default(), &op, &[Value::Int(1)])
            .unwrap()
            .to_bytes();
        assert!(matches!(
            svc.dispatch("f", &body),
            Err(HandlerError::Fault(_))
        ));
        assert_eq!(svc.stats().faults, 1);
    }

    #[test]
    fn fault_envelope_escapes() {
        let env = Service::fault_envelope("SOAP-ENV:Server", "boom <&>");
        let text = String::from_utf8(env).unwrap();
        assert!(text.contains("boom &lt;&amp;&gt;"));
        assert!(text.contains("<SOAP-ENV:Fault>"));
    }

    fn binary_request_bytes(xs: &[f64]) -> Vec<u8> {
        lane_request_bytes(WireFormat::CompactBinary, xs)
    }

    #[test]
    fn lanes_keep_independent_response_templates() {
        // Same values through both lanes: each lane's second identical
        // dispatch must content-match against its OWN retained template,
        // never the other lane's bytes.
        let svc = echo_service();
        let xml = request_bytes(&[7.5]);
        let bin = binary_request_bytes(&[7.5]);
        let (rx1, _) = svc
            .dispatch_formatted("echo", &xml, WireFormat::SoapXml)
            .unwrap();
        let (rb1, _) = svc
            .dispatch_formatted("echo", &bin, WireFormat::CompactBinary)
            .unwrap();
        assert_ne!(rx1, rb1);
        let (rx2, _) = svc
            .dispatch_formatted("echo", &xml, WireFormat::SoapXml)
            .unwrap();
        let (rb2, _) = svc
            .dispatch_formatted("echo", &bin, WireFormat::CompactBinary)
            .unwrap();
        assert_eq!(rx1, rx2);
        assert_eq!(rb1, rb2);
        let s = svc.stats();
        assert_eq!(s.responses_first, 2); // one per lane
        assert_eq!(s.responses_content, 2);
    }

    #[test]
    fn disabled_binary_lane_rejects_with_unsupported_format() {
        let svc = echo_service();
        svc.set_binary_enabled(false);
        assert!(!svc.binary_enabled());
        assert!(matches!(
            svc.dispatch_formatted(
                "echo",
                &binary_request_bytes(&[1.0]),
                WireFormat::CompactBinary
            ),
            Err(HandlerError::UnsupportedFormat(WireFormat::CompactBinary))
        ));
        // XML keeps flowing.
        svc.dispatch("echo", &request_bytes(&[1.0])).unwrap();
        svc.set_binary_enabled(true);
        svc.dispatch_formatted(
            "echo",
            &binary_request_bytes(&[1.0]),
            WireFormat::CompactBinary,
        )
        .unwrap();
    }

    #[test]
    fn shared_template_across_distinct_callers() {
        // Two "clients" sending the same query get the content-match
        // response path — the §3.4 heavily-used-server effect.
        let svc = echo_service();
        let req = request_bytes(&[42.5]);
        svc.dispatch("echo", &req).unwrap();
        let before = svc.stats().responses_content;
        svc.dispatch("echo", &req).unwrap(); // "another client"
        assert_eq!(svc.stats().responses_content, before + 1);
    }
}
