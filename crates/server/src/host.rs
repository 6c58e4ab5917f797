//! Loopback HTTP host for a [`Service`].
//!
//! The host is one [`Handler`](bsoap_transport::Handler) closure —
//! `respond_to`: route a parsed SOAP POST (`Content-Length` or chunked)
//! by `SOAPAction` (`"namespace#operation"`, falling back to the first
//! operation for action-less callers) and render the reply — handed to
//! [`bsoap_transport::serve`], which owns everything about connections:
//! framing, caps, 400s, timeouts, keep-alive, drain. `server_options`
//! is the one place the service's `EngineConfig` becomes transport
//! [`ServerOptions`]: the two HTTP caps; the rest are the transport's
//! defaults. The handler runs on the event-loop thread that read the
//! request.

use crate::dispatch::{HandlerError, Service, ServiceStats};
use bsoap_core::{EngineConfig, WireFormat};
use bsoap_obs::{Counter, Metrics, Recorder};
use bsoap_transport::http::RequestHead;
use bsoap_transport::negotiate::{HDR_ACCEPT, HDR_FORMAT, HDR_FORMAT_LOWER};
use bsoap_transport::{ReqBody, Response, ServeMode, Server, ServerOptions};
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;

/// A running HTTP SOAP server.
pub struct HttpServer {
    service: Arc<Service>,
    server: Server,
}

/// The transport options a service's engine configuration asks for.
fn server_options(cfg: &EngineConfig) -> ServerOptions {
    ServerOptions {
        max_head_bytes: cfg.max_head_bytes,
        max_body_bytes: cfg.max_body_bytes,
        ..ServerOptions::default()
    }
}

impl HttpServer {
    /// Bind an ephemeral loopback port and serve `service`.
    pub fn spawn(service: Service) -> io::Result<Self> {
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0))?;
        let service = Arc::new(service);
        let handler_service = Arc::clone(&service);
        // Where an action-less request goes. Operations are registered
        // before the service is shared, so this is decided once.
        let fallback = service.operation_names().into_iter().next();
        let mode = ServeMode::Http {
            handler: Arc::new(move |head, body| {
                let mut bytes = match body {
                    ReqBody::Full(b) => b,
                    // The host never installs a body sink, so a streamed
                    // body cannot reach us; answer defensively anyway.
                    ReqBody::Streamed { .. } => Vec::new(),
                };
                let resp = respond_to(&handler_service, fallback.as_deref(), head, &mut bytes);
                // Whatever buffer the reference traded for the body.
                Response {
                    spare: bytes,
                    ..resp
                }
            }),
        };
        let server = bsoap_transport::serve(
            listener,
            &server_options(&service.config()),
            service.metrics().cloned(),
            None,
            mode,
        )?;
        Ok(HttpServer { service, server })
    }

    /// [`HttpServer::spawn`] with an observability registry attached to the
    /// service: requests tick server counters and the request-latency
    /// histogram, response templates record their send tier, and the host
    /// answers `GET /metrics` with the Prometheus text rendering.
    pub fn spawn_with_metrics(mut service: Service, metrics: Arc<Metrics>) -> io::Result<Self> {
        service.set_metrics(metrics);
        Self::spawn(service)
    }

    /// Address clients should POST to.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Live statistics view.
    pub fn stats(&self) -> ServiceStats {
        self.service.stats()
    }

    /// The hosted service — e.g. to toggle the binary lane on a running
    /// server (`set_binary_enabled` takes `&self`).
    pub fn service(&self) -> &Service {
        &self.service
    }

    /// Stop accepting, drain in-flight requests, return final statistics.
    pub fn stop(mut self) -> ServiceStats {
        self.server.stop();
        self.service.stats()
    }
}

/// Operation name from a `SOAPAction` header value
/// (`"urn:ns#operation"`, quotes optional).
fn operation_from_action(action: &str) -> Option<&str> {
    let unquoted = action.trim().trim_matches('"');
    unquoted.rsplit_once('#').map(|(_, op)| op)
}

/// One parsed request in, one response out: routing (by `SOAPAction`,
/// else to `fallback`), fault mapping, the `/metrics` endpoint and the
/// negotiation echo.
fn respond_to(
    service: &Service,
    fallback: Option<&str>,
    head: &RequestHead,
    body: &mut Vec<u8>,
) -> Response {
    if head.method == "GET" && head.path() == "/metrics" {
        return Response::metrics_scrape(service.metrics().map(|m| m.as_ref()));
    }
    let req_format = WireFormat::of_message(head.header(HDR_FORMAT_LOWER), body);
    let op_name = head
        .header("soapaction")
        .and_then(operation_from_action)
        .or(fallback);
    let reply = match op_name {
        Some(op) => service.dispatch_owned(op, body, req_format),
        None => Err(HandlerError::UnknownOperation("<none>".to_owned())),
    };
    // Faults always go out as XML fault envelopes, whatever lane the
    // request took: the fault path must stay decodable by a client that
    // is about to abandon the lane.
    let (status, reason, payload, resp_format) = match reply {
        Ok((bytes, fmt)) => (200, "OK", bytes, fmt),
        Err(HandlerError::Fault(msg)) => {
            // Application faults are HTTP 500 with a Fault body per
            // SOAP 1.1 §6.2.
            (
                500,
                "Internal Server Error",
                Service::fault_envelope("SOAP-ENV:Server", &msg),
                WireFormat::SoapXml,
            )
        }
        Err(HandlerError::UnknownOperation(op)) => (
            404,
            "Not Found",
            Service::fault_envelope("SOAP-ENV:Client", &format!("no operation {op}")),
            WireFormat::SoapXml,
        ),
        Err(HandlerError::UnsupportedFormat(f)) => (
            415,
            "Unsupported Media Type",
            Service::fault_envelope(
                "SOAP-ENV:Client",
                &format!("wire format {} not accepted", f.name()),
            ),
            WireFormat::SoapXml,
        ),
        Err(e) => (
            400,
            "Bad Request",
            Service::fault_envelope("SOAP-ENV:Client", &e.to_string()),
            WireFormat::SoapXml,
        ),
    };
    // Count the request before its response leaves: a scrape racing
    // the final response on another connection must still see it.
    if let Some(m) = service.metrics() {
        m.add(Counter::ServerRequests, 1);
    }
    let mut resp = Response::xml(status, reason, payload);
    resp.content_type = resp_format.content_type();
    // Echo the negotiation headers on every SOAP response: the format
    // this body is in, plus the capability advert while the negotiated
    // lanes are accepting (its absence after a toggle-off tells offering
    // clients to stop asking).
    resp = resp.with_header(HDR_FORMAT, resp_format.name().to_owned());
    if service.binary_enabled() {
        resp = resp.with_header(HDR_ACCEPT, WireFormat::ADVERT.to_owned());
    }
    resp
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsoap_convert::ScalarKind;
    use bsoap_core::{EngineConfig, MessageTemplate, OpDesc, ParamDesc, TypeDesc, Value};
    use bsoap_obs::HistId;
    use bsoap_transport::http::{
        post_gather_vectored, read_response_limited, HttpVersion, PostScratch, RequestConfig,
    };
    use bsoap_transport::negotiate::TOKEN_BINARY;
    use std::io::{IoSlice, Write};
    use std::net::TcpStream;

    fn sum_service() -> Service {
        let mut svc = Service::new("urn:sum", EngineConfig::paper_default());
        let op = OpDesc::single(
            "sum",
            "urn:sum",
            "xs",
            TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double)),
        );
        svc.register(
            op,
            vec![ParamDesc {
                name: "total".into(),
                desc: TypeDesc::Scalar(ScalarKind::Double),
            }],
            |args| {
                let Value::DoubleArray(v) = &args[0] else {
                    return Err("type".into());
                };
                Ok(vec![Value::Double(v.iter().sum())])
            },
        );
        svc
    }

    fn lane_request_bytes(lane: WireFormat, xs: &[f64]) -> Vec<u8> {
        let op = OpDesc::single(
            "sum",
            "urn:sum",
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

    fn post(addr: std::net::SocketAddr, action: &str, body: &[u8]) -> (u16, Vec<u8>) {
        let mut c = TcpStream::connect(addr).unwrap();
        // An unanswered request fails its test instead of hanging it.
        c.set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        let cfg = RequestConfig {
            path: "/svc".into(),
            host: "localhost".into(),
            soap_action: action.into(),
            version: HttpVersion::Http11Length,
            extra_headers: Vec::new(),
        };
        let mut scratch = PostScratch::default();
        post_gather_vectored(&mut c, &cfg, &[IoSlice::new(body)], &mut scratch).unwrap();
        reply(&mut c)
    }

    fn reply(stream: &mut TcpStream) -> (u16, Vec<u8>) {
        read_response_limited(stream, 1 << 16, 1 << 16).unwrap()
    }

    #[test]
    fn end_to_end_sum() {
        let server = HttpServer::spawn(sum_service()).unwrap();
        let (status, resp) = post(
            server.addr(),
            "urn:sum#sum",
            &request_bytes(&[1.5, 2.5, 3.0]),
        );
        assert_eq!(status, 200);
        let resp_op = OpDesc::new(
            "sumResponse",
            "urn:sum",
            vec![ParamDesc {
                name: "total".into(),
                desc: TypeDesc::Scalar(ScalarKind::Double),
            }],
        );
        let parsed = bsoap_deser::parse_envelope(&resp, &resp_op).unwrap();
        assert_eq!(parsed, vec![Value::Double(7.0)]);
        let stats = server.stop();
        assert_eq!(stats.requests, 1);
    }

    #[test]
    fn repeat_queries_hit_content_match_responses() {
        let server = HttpServer::spawn(sum_service()).unwrap();
        let body = request_bytes(&[4.0, 4.0]);
        for _ in 0..3 {
            let (status, _) = post(server.addr(), "urn:sum#sum", &body);
            assert_eq!(status, 200);
        }
        let stats = server.stop();
        assert_eq!(stats.responses_first, 1);
        assert_eq!(stats.responses_content, 2);
        assert_eq!(stats.requests_identical, 2);
    }

    #[test]
    fn unknown_action_is_404() {
        let server = HttpServer::spawn(sum_service()).unwrap();
        let (status, body) = post(server.addr(), "urn:sum#ghost", &request_bytes(&[1.0]));
        assert_eq!(status, 404);
        assert!(String::from_utf8(body).unwrap().contains("SOAP-ENV:Fault"));
        server.stop();
    }

    #[test]
    fn malformed_body_is_400() {
        let server = HttpServer::spawn(sum_service()).unwrap();
        let (status, _) = post(server.addr(), "urn:sum#sum", b"junk");
        assert_eq!(status, 400);
        server.stop();
    }

    #[test]
    fn shared_store_carries_templates_across_servers() {
        // One TemplateStore injected into two hosts. The first server pays
        // the first-time serialization; the second server's very first
        // response to the same query checks the shared store and goes out
        // as a content match. Without the store each host would
        // re-serialize from scratch.
        use bsoap_core::TemplateStore;
        let store = TemplateStore::shared(0, 0);
        let body = request_bytes(&[8.0, 0.5]);

        let mut first = sum_service();
        first.set_template_store(Arc::clone(&store), 7);
        let server_a = HttpServer::spawn(first).unwrap();
        let (status, reply_a) = post(server_a.addr(), "urn:sum#sum", &body);
        assert_eq!(status, 200);
        let stats_a = server_a.stop();
        assert_eq!(stats_a.responses_first, 1);
        assert_eq!(store.len(), 1, "response template resident after stop");

        let mut second = sum_service();
        second.set_template_store(Arc::clone(&store), 7);
        let server_b = HttpServer::spawn(second).unwrap();
        let (status, reply_b) = post(server_b.addr(), "urn:sum#sum", &body);
        assert_eq!(status, 200);
        let stats_b = server_b.stop();
        assert_eq!(
            stats_b.responses_first, 0,
            "second server must reuse the stored template"
        );
        assert_eq!(stats_b.responses_content, 1);
        assert_eq!(reply_a, reply_b, "stored reuse must be byte-identical");
        assert_eq!(store.tenant_resident_bytes(7), store.resident_bytes());
    }

    #[test]
    fn handler_fault_is_500_fault_envelope() {
        let mut svc = Service::new("urn:f", EngineConfig::paper_default());
        let op = OpDesc::single("f", "urn:f", "v", TypeDesc::Scalar(ScalarKind::Int));
        svc.register(
            op.clone(),
            vec![ParamDesc {
                name: "r".into(),
                desc: TypeDesc::Scalar(ScalarKind::Int),
            }],
            |_| Err("deliberate".into()),
        );
        let server = HttpServer::spawn(svc).unwrap();
        let body = MessageTemplate::build(EngineConfig::paper_default(), &op, &[Value::Int(1)])
            .unwrap()
            .to_bytes();
        let (status, resp) = post(server.addr(), "urn:f#f", &body);
        assert_eq!(status, 500);
        assert!(String::from_utf8(resp).unwrap().contains("deliberate"));
        server.stop();
    }

    #[test]
    fn a_panicking_handler_costs_a_fault_not_a_thread() {
        let mut svc = sum_service();
        let boom = OpDesc::single("boom", "urn:sum", "v", TypeDesc::Scalar(ScalarKind::Int));
        svc.register(boom.clone(), Vec::new(), |_| {
            panic!("deliberate handler panic")
        });
        let server = HttpServer::spawn(svc).unwrap();
        let body = MessageTemplate::build(EngineConfig::paper_default(), &boom, &[Value::Int(1)])
            .unwrap()
            .to_bytes();
        // One more than the serving threads: uncontained, each panic
        // would take one down, answer nobody, and leave none for the
        // well-formed request that follows.
        let answers: Vec<_> = (0..=ServerOptions::default().event_loop_threads)
            .map(|_| post(server.addr(), "urn:sum#boom", &body))
            .collect();
        for (status, resp) in answers {
            assert_eq!(status, 500);
            let text = String::from_utf8(resp).unwrap();
            assert!(text.contains("SOAP-ENV:Fault") && text.contains("handler panicked"));
        }
        let (status, _) = post(server.addr(), "urn:sum#sum", &request_bytes(&[1.0, 2.0]));
        assert_eq!(status, 200);
        let stats = server.stop();
        assert_eq!(
            stats.faults,
            ServerOptions::default().event_loop_threads as u64 + 1
        );
        assert_eq!(stats.requests, 1);
    }

    #[test]
    fn concurrent_clients() {
        let server = HttpServer::spawn(sum_service()).unwrap();
        let addr = server.addr();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    let body = request_bytes(&[i as f64, 1.0]);
                    let (status, _) = post(addr, "urn:sum#sum", &body);
                    assert_eq!(status, 200);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let stats = server.stop();
        assert_eq!(stats.requests, 4);
    }

    #[test]
    fn metrics_endpoint_mirrors_response_tiers() {
        let metrics = Metrics::shared();
        let server = HttpServer::spawn_with_metrics(sum_service(), Arc::clone(&metrics)).unwrap();
        // first-time, content-match, perfect-structural response tiers.
        for xs in [&[1.0, 2.0][..], &[1.0, 2.0], &[9.0, 2.0]] {
            let (status, _) = post(server.addr(), "urn:sum#sum", &request_bytes(xs));
            assert_eq!(status, 200);
        }
        let mut c = TcpStream::connect(server.addr()).unwrap();
        let mut get = Vec::new();
        bsoap_transport::http::render_get_request(&mut get, "/metrics", "localhost");
        c.write_all(&get).unwrap();
        let (status, text) = reply(&mut c);
        assert_eq!(status, 200);
        let text = String::from_utf8(text).unwrap();
        assert_eq!(
            bsoap_obs::parse_value(&text, "bsoap_server_requests_total"),
            Some(3.0)
        );
        drop(c);
        let stats = server.stop();
        let snap = metrics.snapshot();
        use bsoap_obs::Tier;
        assert_eq!(snap.tier_sends(Tier::FirstTime), stats.responses_first);
        assert_eq!(snap.tier_sends(Tier::ContentMatch), stats.responses_content);
        assert_eq!(
            snap.tier_sends(Tier::PerfectStructural),
            stats.responses_perfect
        );
        assert_eq!(
            snap.tier_sends(Tier::PartialStructural),
            stats.responses_partial
        );
        assert_eq!(snap.total_sends(), stats.requests);
        assert_eq!(snap.get(Counter::ServerRequests), stats.requests);
        assert_eq!(snap.hist(HistId::ServerRequest).count(), stats.requests);
    }

    #[test]
    fn non_http_garbage_draws_400_not_hang() {
        let server = HttpServer::spawn(sum_service()).unwrap();
        let mut c = TcpStream::connect(server.addr()).unwrap();
        c.write_all(b"GARBAGE THAT IS NOT HTTP\r\n\r\n").unwrap();
        let (status, _) = reply(&mut c);
        assert_eq!(status, 400);
        drop(c);
        server.stop();
    }

    #[test]
    fn oversized_body_draws_400_under_cap() {
        let cfg = EngineConfig::paper_default().with_http_caps(1 << 20, 64);
        let mut svc = Service::new("urn:sum", cfg);
        let op = OpDesc::single(
            "sum",
            "urn:sum",
            "xs",
            TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double)),
        );
        svc.register(
            op,
            vec![ParamDesc {
                name: "total".into(),
                desc: TypeDesc::Scalar(ScalarKind::Double),
            }],
            |_| Ok(vec![Value::Double(0.0)]),
        );
        let server = HttpServer::spawn(svc).unwrap();
        let (status, _) = post(
            server.addr(),
            "urn:sum#sum",
            &request_bytes(&[1.0, 2.0, 3.0, 4.0]),
        );
        assert_eq!(status, 400, "body larger than the 64-byte cap is refused");
        server.stop();
    }

    fn binary_request_bytes(xs: &[f64]) -> Vec<u8> {
        lane_request_bytes(WireFormat::CompactBinary, xs)
    }

    fn post_with_headers(
        addr: std::net::SocketAddr,
        action: &str,
        body: &[u8],
        extra: Vec<(String, String)>,
    ) -> (u16, Vec<(String, String)>, Vec<u8>) {
        let mut c = TcpStream::connect(addr).unwrap();
        let cfg = RequestConfig {
            path: "/svc".into(),
            host: "localhost".into(),
            soap_action: action.into(),
            version: HttpVersion::Http11Length,
            extra_headers: extra,
        };
        let mut scratch = PostScratch::default();
        post_gather_vectored(&mut c, &cfg, &[IoSlice::new(body)], &mut scratch).unwrap();
        bsoap_transport::http::read_response_headers_limited(&mut c, usize::MAX, usize::MAX)
            .unwrap()
    }

    fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
        headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    #[test]
    fn binary_round_trip_echoes_negotiation_headers() {
        use bsoap_transport::negotiate::{HDR_ACCEPT_LOWER, HDR_FORMAT_LOWER};
        let server = HttpServer::spawn(sum_service()).unwrap();
        let (status, headers, resp) = post_with_headers(
            server.addr(),
            "urn:sum#sum",
            &binary_request_bytes(&[1.5, 2.5, 3.0]),
            vec![
                (HDR_FORMAT.into(), TOKEN_BINARY.into()),
                (HDR_ACCEPT.into(), TOKEN_BINARY.into()),
            ],
        );
        assert_eq!(status, 200);
        assert_eq!(header(&headers, HDR_FORMAT_LOWER), Some("bin1"));
        assert_eq!(header(&headers, HDR_ACCEPT_LOWER), Some("bin1"));
        assert_eq!(
            header(&headers, "content-type"),
            Some("application/x-bsoap-binary")
        );
        let resp_op = OpDesc::new(
            "sumResponse",
            "urn:sum",
            vec![ParamDesc {
                name: "total".into(),
                desc: TypeDesc::Scalar(ScalarKind::Double),
            }],
        );
        let parsed = bsoap_deser::parse_binary_envelope(&resp, &resp_op).unwrap();
        assert_eq!(parsed, vec![Value::Double(7.0)]);
        server.stop();
    }

    #[test]
    fn headerless_binary_body_is_sniffed() {
        // A peer that frames binary bodies but never sends X-BSOAP-Format:
        // the 4-byte magic carries the lane decision.
        let server = HttpServer::spawn(sum_service()).unwrap();
        let (status, headers, _) = post_with_headers(
            server.addr(),
            "urn:sum#sum",
            &binary_request_bytes(&[4.0, 0.5]),
            Vec::new(),
        );
        assert_eq!(status, 200);
        assert_eq!(
            header(&headers, bsoap_transport::negotiate::HDR_FORMAT_LOWER),
            Some("bin1")
        );
        server.stop();
    }

    #[test]
    fn xml_responses_advertise_the_binary_lane() {
        let server = HttpServer::spawn(sum_service()).unwrap();
        let (status, headers, _) = post_with_headers(
            server.addr(),
            "urn:sum#sum",
            &request_bytes(&[1.0]),
            Vec::new(),
        );
        assert_eq!(status, 200);
        assert_eq!(
            header(&headers, bsoap_transport::negotiate::HDR_ACCEPT_LOWER),
            Some("bin1"),
            "enabled lane must advertise on XML traffic"
        );
        assert_eq!(
            header(&headers, bsoap_transport::negotiate::HDR_FORMAT_LOWER),
            Some("xml")
        );
        server.stop();
    }

    #[test]
    fn unknown_format_token_lands_on_xml() {
        // A peer declaring a format we don't know (future rev, typo):
        // the body reads as XML — same behavior as an old server that
        // never heard of the header — so nothing is lost.
        let server = HttpServer::spawn(sum_service()).unwrap();
        let (status, headers, _) = post_with_headers(
            server.addr(),
            "urn:sum#sum",
            &request_bytes(&[2.0, 2.0]),
            vec![(HDR_FORMAT.into(), "bin9".into())],
        );
        assert_eq!(status, 200);
        assert_eq!(
            header(&headers, bsoap_transport::negotiate::HDR_FORMAT_LOWER),
            Some("xml")
        );
        server.stop();
    }

    #[test]
    fn disabled_binary_lane_draws_415_without_advert() {
        let svc = sum_service();
        svc.set_binary_enabled(false);
        let server = HttpServer::spawn(svc).unwrap();
        let (status, headers, body) = post_with_headers(
            server.addr(),
            "urn:sum#sum",
            &binary_request_bytes(&[1.0]),
            vec![(HDR_FORMAT.into(), TOKEN_BINARY.into())],
        );
        assert_eq!(status, 415);
        assert!(
            header(&headers, bsoap_transport::negotiate::HDR_ACCEPT_LOWER).is_none(),
            "a disabled lane must not advertise"
        );
        assert!(String::from_utf8(body).unwrap().contains("SOAP-ENV:Fault"));
        // XML still flows on the same server.
        let (status, _, _) = post_with_headers(
            server.addr(),
            "urn:sum#sum",
            &request_bytes(&[1.0]),
            Vec::new(),
        );
        assert_eq!(status, 200);
        server.stop();
    }

    #[test]
    fn action_parsing() {
        assert_eq!(operation_from_action("\"urn:x#op\""), Some("op"));
        assert_eq!(operation_from_action("urn:x#op"), Some("op"));
        assert_eq!(operation_from_action("opaque"), None);
    }
}
