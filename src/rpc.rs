//! High-level RPC: the whole stack behind one call.
//!
//! [`RpcClient`] connects the pieces a downstream user would otherwise
//! wire by hand: a WSDL-derived service description, the differential
//! serialization client, HTTP framing over TCP, and response
//! deserialization. Every request rides the cheapest matching tier; every
//! response is parsed against the operation's `{name}Response` schema.

use crate::deser::DeserError;
use crate::transport::http::{HttpVersion, RequestConfig};
use crate::transport::negotiate::{NegotiationState, Negotiator, HDR_FORMAT};
use crate::transport::ClientConn;
use crate::wsdl::ServiceDesc;
use crate::{Client, EngineConfig, EngineError, OpDesc, ParamDesc, SendReport, Value, WireFormat};
use std::fmt;
use std::net::SocketAddr;
use std::sync::Arc;

/// RPC-level error.
#[derive(Debug)]
pub enum RpcError {
    /// The service description has no such operation.
    UnknownOperation(String),
    /// Request serialization or transport failure.
    Send(EngineError),
    /// Transport-level response failure.
    Io(std::io::Error),
    /// The server answered with a non-200 status (body included).
    Status(u16, Vec<u8>),
    /// The response body did not match the expected schema.
    Response(DeserError),
}

impl fmt::Display for RpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RpcError::UnknownOperation(n) => write!(f, "unknown operation {n}"),
            RpcError::Send(e) => write!(f, "send failed: {e}"),
            RpcError::Io(e) => write!(f, "response I/O failed: {e}"),
            RpcError::Status(s, _) => write!(f, "server returned HTTP {s}"),
            RpcError::Response(e) => write!(f, "response parse failed: {e}"),
        }
    }
}

impl std::error::Error for RpcError {}

/// One operation as this client speaks it, resolved on its first use.
struct Binding {
    name: String,
    /// The `SOAPAction` header value.
    soap_action: String,
    /// The `{op}Response` descriptor (the WSDL subset in this stack
    /// describes requests; responses follow the convention and are
    /// declared explicitly). Undeclared: replies decode to no values.
    response: Option<OpDesc>,
}

/// What one exchange brought back.
struct Reply {
    status: u16,
    /// The lane the reply's body is on.
    lane: WireFormat,
    body: Vec<u8>,
    report: SendReport,
}

/// An RPC client for one service.
pub struct RpcClient {
    service: Arc<ServiceDesc>,
    bindings: Vec<Binding>,
    client: Client,
    addr: SocketAddr,
    /// `None` after a failed exchange: the next one dials `addr` again.
    conn: Option<ClientConn>,
    /// The POST target; `soap_action` is rewritten per call (the
    /// operation's action), `extra_headers` (the negotiator's offer)
    /// whenever the negotiation state moved since they were rendered.
    request: RequestConfig,
    /// The negotiation state `request.extra_headers` were rendered for.
    offered: Option<NegotiationState>,
    /// Per-connection wire-format negotiation, and the one holder of its
    /// verdict: every exchange asks it for the lane and hands that to the
    /// engine. Seeded from the config's `wire_format`: an XML config
    /// never offers, a config asking for a negotiated lane starts offering
    /// it and upgrades once the server adverts back.
    negotiator: Negotiator,
}

impl RpcClient {
    /// Connect to `addr` and speak `service`'s operations over
    /// HTTP/1.1 (`Content-Length` framing, persistent connection).
    ///
    /// `config.wire_format` is the *desired* lane, not the opening one:
    /// when it asks for compact binary the client still sends its first
    /// request as XML with an `X-BSOAP-Accept: bin1` offer, switching to
    /// binary bodies only after the server adverts the lane back — and
    /// dropping back to XML (with one transparent resend) if the server
    /// answers a binary body with HTTP 415.
    pub fn connect(
        service: ServiceDesc,
        addr: SocketAddr,
        config: EngineConfig,
    ) -> std::io::Result<Self> {
        let request = RequestConfig {
            path: "/".to_owned(),
            host: addr.ip().to_string(),
            soap_action: String::new(),
            version: HttpVersion::Http11Length,
            extra_headers: Vec::new(),
        };
        Ok(RpcClient {
            service: Arc::new(service),
            bindings: Vec::new(),
            client: Client::new(config),
            addr,
            conn: Some(ClientConn::connect(addr, None)?),
            request,
            offered: None,
            negotiator: Negotiator::new(config.wire_format.negotiated()),
        })
    }

    /// Where this endpoint's format negotiation currently stands.
    pub fn negotiation_state(&self) -> crate::transport::NegotiationState {
        self.negotiator.state()
    }

    /// Index of `op`'s binding, made on first use.
    fn bind(&mut self, op: &str) -> usize {
        let bound = self.bindings.iter().position(|b| b.name == op);
        bound.unwrap_or_else(|| {
            self.bindings.push(Binding {
                name: op.to_owned(),
                soap_action: self.service.soap_action(op),
                response: None,
            });
            self.bindings.len() - 1
        })
    }

    /// Declare the response parameters of `op` so [`RpcClient::call`] can
    /// parse replies (defaults to an empty response otherwise).
    pub fn declare_response(&mut self, op: &str, params: Vec<ParamDesc>) {
        let desc = OpDesc::new(&format!("{op}Response"), &self.service.namespace, params);
        let at = self.bind(op);
        self.bindings[at].response = Some(desc);
    }

    /// The differential client's statistics (tier histogram).
    pub fn stats(&self) -> crate::ClientStats {
        self.client.stats()
    }

    /// The service description this client was built from.
    pub fn service(&self) -> &ServiceDesc {
        &self.service
    }

    /// Invoke `op_name(args)` and parse the response.
    pub fn call(&mut self, op_name: &str, args: &[Value]) -> Result<Vec<Value>, RpcError> {
        let service = Arc::clone(&self.service);
        let op = service
            .operation(op_name)
            .ok_or_else(|| RpcError::UnknownOperation(op_name.to_owned()))?;
        self.call_op(op, args).map(|(values, _)| values)
    }

    /// Invoke with the full send report (tier, bytes, patch counters).
    pub fn call_op(
        &mut self,
        op: &OpDesc,
        args: &[Value],
    ) -> Result<(Vec<Value>, SendReport), RpcError> {
        let at = self.bind(&op.name);
        let mut reply = self.exchange(at, op, args)?;
        if reply.status == 415 && self.negotiator.on_unsupported() {
            // The server disabled the binary lane mid-keep-alive: the
            // negotiator is now settled on XML, so resend the same call
            // on the XML lane — exactly once, and no request is lost.
            reply = self.exchange(at, op, args)?;
        }
        if reply.status != 200 {
            return Err(RpcError::Status(reply.status, reply.body));
        }
        let values = match &self.bindings[at].response {
            Some(desc) => {
                crate::deser::decode(reply.lane, &reply.body, desc).map_err(RpcError::Response)?
            }
            None => Vec::new(),
        };
        Ok((values, reply.report))
    }

    /// One request/response exchange, through binding `at`, on the lane
    /// the negotiator currently prescribes.
    fn exchange(&mut self, at: usize, op: &OpDesc, args: &[Value]) -> Result<Reply, RpcError> {
        let mut conn = match self.conn.take() {
            Some(conn) => conn,
            None => ClientConn::connect(self.addr, None).map_err(RpcError::Io)?,
        };
        // Before the template is touched: a desynchronised stream cannot
        // carry this call, and that is no verdict on the endpoint's lane.
        conn.in_step().map_err(RpcError::Io)?;
        let request = &mut self.request;
        request
            .soap_action
            .clone_from(&self.bindings[at].soap_action);
        let state = self.negotiator.state();
        if self.offered != Some(state) {
            request.extra_headers = self.negotiator.request_headers();
            self.offered = Some(state);
        }
        let lane =
            WireFormat::from_name(self.negotiator.body_token()).unwrap_or(WireFormat::SoapXml);
        let endpoint = &self.service.endpoint;
        let sent = self
            .client
            .call_on(lane, endpoint, op, args, |s| conn.post(request, s));
        let report = match sent {
            Ok(report) => report,
            Err(e) => {
                // A semantic error never reached the hand-off.
                if !matches!(e, EngineError::Io(_) | EngineError::DeadlineExceeded) {
                    self.conn = Some(conn);
                }
                return Err(RpcError::Send(e));
            }
        };
        // A reply is wire input like any request: past the caps it is a
        // typed `TooLarge` (kind `InvalidData`), not a buffer that grows
        // for as long as the peer keeps streaming.
        let config = self.client.config();
        let (status, head, body) = conn
            .read_reply(config.max_head_bytes, config.max_body_bytes)
            .map_err(RpcError::Io)?;
        // A 415 is judged by `on_unsupported` (in `call_op`), never as the
        // endpoint's advert.
        if status != 415 {
            self.negotiator.observe(head);
        }
        // The reply is decoded on the lane its own header names.
        let lane = WireFormat::of_message(head.header(HDR_FORMAT), &body);
        // After a transport failure the stream's state is unknown, so the
        // connection is not put back and the next call dials again.
        // Nothing is resent — the tiered send already ran — and the
        // negotiator keeps its verdict.
        self.conn = Some(conn);
        Ok(Reply {
            status,
            lane,
            body,
            report,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::ScalarKind;
    use crate::server::{HttpServer, Service};
    use crate::wsdl::{parse_wsdl, write_wsdl};
    use crate::{SendTier, TypeDesc};

    fn lane_config(format: WireFormat) -> EngineConfig {
        EngineConfig::paper_default().with_wire_format(format)
    }

    fn scale_service() -> (ServiceDesc, Service) {
        let op = OpDesc::single(
            "scale",
            "urn:vec",
            "xs",
            TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double)),
        );
        let desc = ServiceDesc {
            name: "Vec".into(),
            namespace: "urn:vec".into(),
            endpoint: "http://svc/vec".into(),
            operations: vec![op.clone()],
        };
        let mut svc = Service::new("urn:vec", EngineConfig::paper_default());
        svc.register(
            op,
            vec![ParamDesc {
                name: "ys".into(),
                desc: TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double)),
            }],
            |args| {
                let Value::DoubleArray(v) = &args[0] else {
                    return Err("type".into());
                };
                Ok(vec![Value::DoubleArray(
                    v.iter().map(|x| x * 2.0).collect(),
                )])
            },
        );
        (desc, svc)
    }

    #[test]
    fn end_to_end_rpc_round_trip() {
        let (desc, svc) = scale_service();
        let server = HttpServer::spawn(svc).unwrap();
        // The client side bootstraps from the published WSDL document.
        let parsed = parse_wsdl(write_wsdl(&desc).as_bytes()).unwrap();
        // The XML lane's trajectory; `negotiated_binary_upgrade_round_trip`
        // narrates the binary one (its second call is the lane upgrade, a
        // FirstTime rebuild).
        let mut rpc =
            RpcClient::connect(parsed, server.addr(), EngineConfig::paper_default()).unwrap();
        rpc.declare_response(
            "scale",
            vec![ParamDesc {
                name: "ys".into(),
                desc: TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double)),
            }],
        );

        let got = rpc
            .call("scale", &[Value::DoubleArray(vec![1.5, 2.5])])
            .unwrap();
        assert_eq!(got, vec![Value::DoubleArray(vec![3.0, 5.0])]);

        // Second identical call: content match on the wire.
        let (got, report) = rpc
            .call_op(
                &rpc.service().operation("scale").unwrap().clone(),
                &[Value::DoubleArray(vec![1.5, 2.5])],
            )
            .unwrap();
        assert_eq!(got, vec![Value::DoubleArray(vec![3.0, 5.0])]);
        assert_eq!(report.tier, SendTier::ContentMatch);
        let stats = rpc.stats();
        assert_eq!(stats.first_time, 1);
        assert_eq!(stats.content_match, 1);
        server.stop();
    }

    #[test]
    fn negotiated_binary_upgrade_round_trip() {
        use crate::transport::NegotiationState;
        let (desc, svc) = scale_service();
        let server = HttpServer::spawn(svc).unwrap();
        let mut rpc = RpcClient::connect(
            desc,
            server.addr(),
            EngineConfig::paper_default().with_wire_format(WireFormat::CompactBinary),
        )
        .unwrap();
        rpc.declare_response(
            "scale",
            vec![ParamDesc {
                name: "ys".into(),
                desc: TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double)),
            }],
        );
        assert_eq!(rpc.negotiation_state(), NegotiationState::Undecided);

        // Call 1 goes out as XML with the offer; the server's advert
        // upgrades the endpoint.
        let got = rpc
            .call("scale", &[Value::DoubleArray(vec![1.5, 2.5])])
            .unwrap();
        assert_eq!(got, vec![Value::DoubleArray(vec![3.0, 5.0])]);
        assert_eq!(rpc.negotiation_state(), NegotiationState::Binary);

        // Call 2 is the binary lane's first-time build; call 3
        // content-matches against the binary template. Values
        // survive both hops.
        let op = rpc.service().operation("scale").unwrap().clone();
        let (got, report) = rpc
            .call_op(&op, &[Value::DoubleArray(vec![4.0, 0.5])])
            .unwrap();
        assert_eq!(got, vec![Value::DoubleArray(vec![8.0, 1.0])]);
        assert_eq!(report.tier, SendTier::FirstTime);
        let (got, report) = rpc
            .call_op(&op, &[Value::DoubleArray(vec![4.0, 0.5])])
            .unwrap();
        assert_eq!(got, vec![Value::DoubleArray(vec![8.0, 1.0])]);
        assert_eq!(report.tier, SendTier::ContentMatch);
        server.stop();
    }

    #[test]
    fn xml_config_never_offers_binary() {
        use crate::transport::NegotiationState;
        let (desc, svc) = scale_service();
        let server = HttpServer::spawn(svc).unwrap();
        let mut rpc =
            RpcClient::connect(desc, server.addr(), EngineConfig::paper_default()).unwrap();
        rpc.call("scale", &[Value::DoubleArray(vec![1.0])]).unwrap();
        // The server adverts bin1, but a client that never offered
        // stays on XML.
        assert_eq!(rpc.negotiation_state(), NegotiationState::Xml);
        server.stop();
    }

    #[test]
    fn mid_keepalive_downgrade_loses_no_request() {
        use crate::transport::NegotiationState;
        let (desc, svc) = scale_service();
        let server = HttpServer::spawn(svc).unwrap();
        let mut rpc = RpcClient::connect(
            desc,
            server.addr(),
            EngineConfig::paper_default().with_wire_format(WireFormat::CompactBinary),
        )
        .unwrap();
        rpc.declare_response(
            "scale",
            vec![ParamDesc {
                name: "ys".into(),
                desc: TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double)),
            }],
        );
        // Upgrade, then send one binary call so the lane is live.
        rpc.call("scale", &[Value::DoubleArray(vec![1.0])]).unwrap();
        rpc.call("scale", &[Value::DoubleArray(vec![2.0])]).unwrap();
        assert_eq!(rpc.negotiation_state(), NegotiationState::Binary);

        // The server turns the lane off mid-keep-alive. The next
        // binary body draws a 415; the client must downgrade and
        // transparently resend the SAME request as XML — the caller
        // just sees values.
        server.service().set_binary_enabled(false);
        let got = rpc
            .call("scale", &[Value::DoubleArray(vec![5.0, 6.0])])
            .unwrap();
        assert_eq!(got, vec![Value::DoubleArray(vec![10.0, 12.0])]);
        assert_eq!(rpc.negotiation_state(), NegotiationState::Xml);

        // Settled: later calls stay on XML and keep answering.
        let got = rpc.call("scale", &[Value::DoubleArray(vec![7.0])]).unwrap();
        assert_eq!(got, vec![Value::DoubleArray(vec![14.0])]);
        assert_eq!(rpc.negotiation_state(), NegotiationState::Xml);
        let stats = server.stop();
        assert_eq!(
            stats.requests, 4,
            "four successful dispatches (the bounced binary body is not one)"
        );
    }

    #[test]
    fn unknown_operation_rejected_client_side() {
        for format in WireFormat::ALL {
            let (desc, svc) = scale_service();
            let server = HttpServer::spawn(svc).unwrap();
            let mut rpc = RpcClient::connect(desc, server.addr(), lane_config(format)).unwrap();
            assert!(matches!(
                rpc.call("ghost", &[]),
                Err(RpcError::UnknownOperation(_))
            ));
            server.stop();
        }
    }

    #[test]
    fn handler_fault_becomes_status_error() {
        let op = OpDesc::single("f", "urn:x", "v", TypeDesc::Scalar(ScalarKind::Int));
        let desc = ServiceDesc {
            name: "F".into(),
            namespace: "urn:x".into(),
            endpoint: "http://svc/f".into(),
            operations: vec![op.clone()],
        };
        let mut svc = Service::new("urn:x", EngineConfig::paper_default());
        svc.register(
            op,
            vec![ParamDesc {
                name: "r".into(),
                desc: TypeDesc::Scalar(ScalarKind::Int),
            }],
            |_| Err("boom".into()),
        );
        let server = HttpServer::spawn(svc).unwrap();
        for format in WireFormat::ALL {
            let mut rpc =
                RpcClient::connect(desc.clone(), server.addr(), lane_config(format)).unwrap();
            match rpc.call("f", &[Value::Int(1)]) {
                Err(RpcError::Status(500, body)) => {
                    assert!(String::from_utf8(body).unwrap().contains("boom"));
                }
                other => panic!("{format:?}: expected 500 fault, got {other:?}"),
            }
        }
        server.stop();
    }

    #[test]
    fn missing_response_decl_yields_empty_values() {
        let (desc, svc) = scale_service();
        let server = HttpServer::spawn(svc).unwrap();
        for format in WireFormat::ALL {
            let mut rpc =
                RpcClient::connect(desc.clone(), server.addr(), lane_config(format)).unwrap();
            // Two calls: on the binary lane the second one rides bin1.
            for _ in 0..2 {
                let got = rpc.call("scale", &[Value::DoubleArray(vec![1.0])]).unwrap();
                assert!(
                    got.is_empty(),
                    "{format:?}: no declared response schema → values skipped"
                );
            }
        }
        server.stop();
    }

    /// A peer that answers every request on one keep-alive connection
    /// with `body` under `Content-Length` framing, then `junk`, in one
    /// write.
    fn spawn_fixed_reply_peer(
        body: Vec<u8>,
        junk: &'static [u8],
    ) -> (SocketAddr, std::thread::JoinHandle<()>) {
        use crate::transport::http::RequestReader;
        use std::io::Write;
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut requests = RequestReader::new(stream.try_clone().unwrap());
            let head = format!("HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n", body.len());
            let reply = [head.as_bytes(), &body, junk].concat();
            while let Ok(Some(_)) = requests.next_request() {
                // The client hangs up without reading a body it has
                // already refused; that is the point, not a peer failure.
                if stream.write_all(&reply).is_err() {
                    break;
                }
            }
        });
        (addr, peer)
    }

    #[test]
    fn stray_bytes_after_a_reply_fail_the_next_call() {
        let (desc, _) = scale_service();
        let (addr, peer) = spawn_fixed_reply_peer(Vec::new(), b"junk");
        let mut rpc = RpcClient::connect(desc, addr, EngineConfig::paper_default()).unwrap();
        // The reply itself is whole (no declared response: no values).
        let args = [Value::DoubleArray(vec![1.0])];
        assert_eq!(rpc.call("scale", &args).unwrap(), vec![]);
        match rpc.call("scale", &args) {
            Err(RpcError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
                assert_eq!(e.to_string(), "unsolicited bytes before request");
            }
            other => panic!("a desynchronised stream must not carry a call: {other:?}"),
        }
        drop(rpc);
        peer.join().unwrap();
    }

    #[test]
    fn an_io_error_costs_the_connection_not_the_client() {
        use crate::transport::http::RequestReader;
        use std::io::Write;
        // A listener that takes two connections: the first answers one
        // call and closes (an idle reap, seen from the client), the
        // second answers until the client hangs up.
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let (closed, first_closed) = std::sync::mpsc::channel();
        let peer = std::thread::spawn(move || {
            for calls in [1, usize::MAX] {
                let (mut stream, _) = listener.accept().unwrap();
                let mut requests = RequestReader::new(stream.try_clone().unwrap());
                for _ in 0..calls {
                    let Ok(Some(_)) = requests.next_request() else {
                        break;
                    };
                    stream
                        .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n")
                        .unwrap();
                }
                drop((requests, stream));
                closed.send(()).unwrap();
            }
        });
        let (desc, _) = scale_service();
        let mut rpc =
            RpcClient::connect(desc.clone(), addr, EngineConfig::paper_default()).unwrap();
        let op = &desc.operations[0];
        let args = [Value::DoubleArray(vec![1.0])];
        assert_eq!(rpc.call_op(op, &args).unwrap().1.tier, SendTier::FirstTime);
        first_closed.recv().unwrap();
        // The request leaves (the tiered send ran: a content match), the
        // reply never comes.
        assert!(matches!(rpc.call_op(op, &args), Err(RpcError::Io(_))));
        // The next exchange dials again; the template outlived the socket.
        let (values, report) = rpc.call_op(op, &args).unwrap();
        assert_eq!((values, report.tier), (vec![], SendTier::ContentMatch));
        assert_eq!(rpc.stats().content_match, 2);
        drop(rpc);
        peer.join().unwrap();
    }

    #[test]
    fn reply_buffer_is_per_connection() {
        let (desc, svc) = scale_service();
        let server = HttpServer::spawn(svc).unwrap();
        let mut rpc =
            RpcClient::connect(desc, server.addr(), EngineConfig::paper_default()).unwrap();
        let args = [Value::DoubleArray(vec![1.5, 2.5])];
        fn reply_buf(rpc: &RpcClient) -> &crate::transport::http::ParseBuf {
            rpc.conn.as_ref().expect("connected").reply_buf()
        }
        assert_eq!(reply_buf(&rpc).capacity(), 0, "no reply, no buffer");
        rpc.call("scale", &args).unwrap();
        // A fully consumed window rewinds to the allocation's first byte.
        let buffer = |rpc: &RpcClient| {
            let buf = reply_buf(rpc);
            assert!(buf.window().is_empty());
            (buf.window().as_ptr(), buf.capacity())
        };
        let first = buffer(&rpc);
        assert!(first.1 > 0);
        for call in 1..1000 {
            rpc.call("scale", &args).unwrap();
            assert_eq!(buffer(&rpc), first, "call {call}");
        }
        drop(rpc);
        server.stop();
    }

    #[test]
    fn reply_past_the_body_cap_is_a_typed_error() {
        const CAP: usize = 4096;
        let (desc, _) = scale_service();
        let ys = vec![ParamDesc {
            name: "ys".into(),
            desc: TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double)),
        }];
        // A well-formed reply, padded with trailing whitespace (which the
        // envelope grammar allows) to exactly the length under test.
        let reply = crate::MessageTemplate::build(
            EngineConfig::paper_default(),
            &OpDesc::new("scaleResponse", "urn:vec", ys.clone()),
            &[Value::DoubleArray(vec![2.0])],
        )
        .unwrap()
        .to_bytes();
        let config = EngineConfig::paper_default().with_http_caps(1 << 20, CAP);
        for body_len in [CAP, CAP + 1] {
            let mut body = reply.clone();
            body.resize(body_len, b' ');
            let (addr, peer) = spawn_fixed_reply_peer(body, b"");
            let mut rpc = RpcClient::connect(desc.clone(), addr, config).unwrap();
            rpc.declare_response("scale", ys.clone());
            match rpc.call("scale", &[Value::DoubleArray(vec![1.0])]) {
                Ok(values) if body_len == CAP => {
                    assert_eq!(values, vec![Value::DoubleArray(vec![2.0])]);
                }
                Err(RpcError::Io(e)) if body_len > CAP => {
                    assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}");
                    assert!(e.to_string().contains("size cap"), "{e}");
                }
                other => panic!("{body_len}-byte reply under a {CAP}-byte cap: {other:?}"),
            }
            drop(rpc);
            peer.join().unwrap();
        }
    }
}
