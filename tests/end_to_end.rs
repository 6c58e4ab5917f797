//! Cross-crate integration: client → transport → server → deserializer.
//!
//! These tests exercise the full stack the way the paper's measurement
//! harness does — real sockets, real framing — and assert *byte-level*
//! agreement between what the differential client ships and what a fresh
//! serialization would have shipped, then close the loop by parsing the
//! collected wire bytes back into values.

mod common;

use bsoap::deser::{parse_envelope, DiffDeserializer, DiffOutcome};
use bsoap::transport::http::{HttpVersion, RequestConfig};
use bsoap::transport::{ClientConn, ServerMode, ServerOptions, TestServer};
use bsoap::{
    mio, Client, EngineConfig, OpDesc, SendTier, TypeDesc, Value, WidthPolicy, WireFormat,
};
use common::spec::{assert_wire, doubles, doubles_op, full_xml, lane_client};

// Tests that are about the transport, not the lane, take their client from
// `lane_client` and run on both lanes.

#[test]
fn raw_tcp_bytes_match_fresh_serialization() {
    let server = TestServer::spawn_with(ServerMode::Discard, ServerOptions::default()).unwrap();
    let mut expected_total = 0u64;
    // One connection per lane into the same byte-counting server.
    for format in WireFormat::ALL {
        let mut t = std::net::TcpStream::connect(server.addr()).unwrap();
        t.set_nodelay(true).unwrap();
        let op = doubles_op();
        let mut client = lane_client(format);

        let mut xs = vec![1.5, 2.5, 3.5];
        for step in 0..5 {
            xs[step % 3] += 1.0;
            let r = client
                .call("tcp://peer", &op, &[Value::DoubleArray(xs.clone())], &mut t)
                .unwrap();
            expected_total += r.bytes as u64;
            // The oracle's own message parses to the values it was given.
            let args = vec![Value::DoubleArray(xs.clone())];
            assert_eq!(parse_envelope(&full_xml(&op, &args), &op).unwrap(), args);
        }
    }
    let stats = server.stop();
    assert_eq!(stats.bytes_received, expected_total);
}

#[test]
fn http_collect_round_trip_all_tiers() {
    let server = TestServer::spawn_with(ServerMode::Collect, ServerOptions::default()).unwrap();
    let cfg = RequestConfig::loopback(HttpVersion::Http11Length);
    let mut t = ClientConn::connect(server.addr(), None).unwrap();
    let op = doubles_op();
    let mut client = Client::new(EngineConfig::paper_default());

    let sequences: Vec<Vec<f64>> = vec![
        vec![1.5, 2.5, 3.5],      // first-time
        vec![1.5, 2.5, 3.5],      // content match
        vec![9.5, 2.5, 3.5],      // perfect structural
        vec![9.5, 2.5, 3.5, 4.5], // partial structural (grow)
        vec![9.5, 2.5],           // partial structural (shrink)
    ];
    let expected_tiers = [
        SendTier::FirstTime,
        SendTier::ContentMatch,
        SendTier::PerfectStructural,
        SendTier::PartialStructural,
        SendTier::PartialStructural,
    ];
    for (xs, want) in sequences.iter().zip(expected_tiers) {
        let r = client
            .call_via("http://svc", &op, &[Value::DoubleArray(xs.clone())], |s| {
                t.post(&cfg, s)
            })
            .unwrap();
        assert_eq!(r.tier, want);
        let (status, _, _) = t.read_reply(usize::MAX, usize::MAX).unwrap();
        assert_eq!(status, 200);
    }
    drop(t);

    let requests = server.stop_collecting();
    assert_eq!(requests.len(), sequences.len());
    for (req, xs) in requests.iter().zip(&sequences) {
        assert_eq!(req.head.method, "POST");
        let args = parse_envelope(&req.body, &op).unwrap();
        assert_eq!(args, vec![Value::DoubleArray(xs.clone())]);
    }
}

#[test]
fn chunked_http_streams_multi_chunk_templates() {
    // Small chunks force a multi-chunk template; HTTP/1.1 chunked framing
    // maps each template chunk onto a wire chunk.
    let server = TestServer::spawn_with(ServerMode::Collect, ServerOptions::default()).unwrap();
    let cfg = RequestConfig::loopback(HttpVersion::Http11Chunked);
    let mut t = ClientConn::connect(server.addr(), None).unwrap();
    let config = EngineConfig::paper_default().with_chunk(bsoap::ChunkConfig {
        initial_size: 1024,
        split_threshold: 2048,
        reserve: 64,
    });
    let op = doubles_op();
    let mut client = Client::new(config);

    let xs: Vec<f64> = (0..2000).map(|i| i as f64 + 0.5).collect();
    client
        .call_via("http://svc", &op, &[Value::DoubleArray(xs.clone())], |s| {
            assert!(
                s.len() > 1,
                "template should be multi-chunk, got {} slices",
                s.len()
            );
            t.post(&cfg, s)
        })
        .unwrap();
    let (status, _, _) = t.read_reply(usize::MAX, usize::MAX).unwrap();
    assert_eq!(status, 200);
    drop(t);

    let requests = server.stop_collecting();
    assert_eq!(requests.len(), 1);
    let args = parse_envelope(&requests[0].body, &op).unwrap();
    assert_eq!(args, vec![Value::DoubleArray(xs)]);
}

#[test]
fn client_server_differential_deserialization_pipeline() {
    // The full paper pipeline: differential client on one end,
    // differential deserializer on the other.
    let server = TestServer::spawn_with(ServerMode::Collect, ServerOptions::default()).unwrap();
    let cfg = RequestConfig::loopback(HttpVersion::Http10);
    let mut t = ClientConn::connect(server.addr(), None).unwrap();
    let op = OpDesc::single("m", "urn:x", "a", TypeDesc::array_of(TypeDesc::mio()));
    let mut client = Client::new(EngineConfig::paper_default().with_width(WidthPolicy::Max));

    let mut elems: Vec<(i32, i32, f64)> = (0..50).map(|i| (i, -i, i as f64 * 0.5)).collect();
    let as_value =
        |e: &[(i32, i32, f64)]| Value::Array(e.iter().map(|&(x, y, v)| mio(x, y, v)).collect());
    for step in 0..6 {
        if step > 0 {
            elems[step * 7 % 50].2 += 1.0;
        }
        client
            .call_via("http://svc", &op, &[as_value(&elems)], |s| t.post(&cfg, s))
            .unwrap();
        let (status, _, _) = t.read_reply(usize::MAX, usize::MAX).unwrap();
        assert_eq!(status, 200);
    }
    drop(t);

    let requests = server.stop_collecting();
    let mut deser = DiffDeserializer::new(op);
    let mut outcomes = Vec::new();
    for req in &requests {
        let (_, outcome) = deser.deserialize(&req.body).unwrap();
        outcomes.push(outcome);
    }
    assert_eq!(outcomes[0], DiffOutcome::FullParse);
    for o in &outcomes[1..] {
        assert!(
            matches!(o, DiffOutcome::Differential { reparsed: 1, .. }),
            "expected 1-leaf differential parse, got {o:?}"
        );
    }
    // Final values agree with the client's final state.
    let (args, _) = deser.deserialize(&requests.last().unwrap().body).unwrap();
    assert_eq!(args, &[as_value(&elems)][..]);
}

#[test]
fn overlay_wire_bytes_equal_template_bytes() {
    use bsoap::OverlaySender;
    let op = doubles_op();
    let config = EngineConfig::paper_default();
    let xs: Vec<f64> = (0..5000).map(|i| (i as f64).sin()).collect();
    let value = Value::DoubleArray(xs);

    // Overlay path: bounded memory, streamed.
    let mut overlay = OverlaySender::auto_window(config, &op).unwrap();
    let mut overlay_out = Vec::new();
    let report = overlay.send(&value, &mut overlay_out).unwrap();
    assert!(report.portions > 1, "workload must span several windows");
    assert!(
        report.window_bytes < overlay_out.len() / 2,
        "overlay memory ({}) must be far below message size ({})",
        report.window_bytes,
        overlay_out.len()
    );

    // Whole-template path.
    // Overlaid stream and stored template alike are the one full
    // serialization of the value (so pad-equivalent to each other), and
    // parse back.
    let args = [value];
    let tpl = bsoap::MessageTemplate::build(config, &op, &args).unwrap();
    assert_wire(WireFormat::SoapXml, &op, &args, &overlay_out).unwrap();
    assert_wire(WireFormat::SoapXml, &op, &args, &tpl.to_bytes()).unwrap();
}

#[test]
fn pooled_keep_alive_scrape_reports_tier_counters_mid_load() {
    // One observability registry shared by the differential client, the
    // connection pool, and the server. Mid-load, `GET
    // /metrics` is scraped over the same pooled keep-alive connection the
    // POSTs ride on, and the per-tier send counters must sum to exactly
    // the requests served so far.
    use bsoap::obs::{parse_value, Counter, Metrics, Tier};
    use bsoap::transport::{HttpPoolClient, PoolConfig, RequestConfig};
    use std::sync::Arc;

    for format in WireFormat::ALL {
        let metrics = Metrics::shared();
        let server = bsoap::transport::TestServer::spawn_with_metrics(
            ServerMode::Ack,
            ServerOptions::default(),
            Arc::clone(&metrics),
        )
        .unwrap();
        let mut pool = HttpPoolClient::new(
            server.addr(),
            RequestConfig::loopback(HttpVersion::Http11Length),
            PoolConfig::default(),
        );
        pool.set_metrics(Arc::clone(&metrics));

        let op = doubles_op();
        let mut client = lane_client(format);
        client.set_metrics(Arc::clone(&metrics));
        let endpoint = format!("http://{}/service", server.addr());

        let tier_sum = |text: &str| -> u64 {
            Tier::ALL
                .iter()
                .map(|t| {
                    parse_value(
                        text,
                        &format!("bsoap_sends_total{{tier=\"{}\"}}", t.label()),
                    )
                    .unwrap_or_else(|| panic!("missing tier series {}", t.label()))
                        as u64
                })
                .sum()
        };
        let scrape = |pool: &HttpPoolClient| -> String {
            let reply = pool.get("/metrics").unwrap();
            assert_eq!(reply.status, 200);
            String::from_utf8(reply.body).unwrap()
        };

        let total = 24usize;
        let mut xs: Vec<f64> = (0..64).map(|i| i as f64 * 0.5).collect();
        for i in 0..total {
            if i > 0 {
                xs[(i * 7) % 64] += 1.0; // a few dirty values per call
            }
            client
                .call_via(&endpoint, &op, &[Value::DoubleArray(xs.clone())], |s| {
                    let reply = pool.call(s)?;
                    assert_eq!(reply.status, 200);
                    Ok(reply.wire_bytes)
                })
                .unwrap();

            if i + 1 == total / 2 {
                // Mid-load scrape over the live keep-alive connection.
                let text = scrape(&pool);
                let served = parse_value(&text, "bsoap_server_requests_total").unwrap() as usize;
                assert_eq!(served, i + 1, "server_requests mid-load, {format:?}");
                assert_eq!(
                    tier_sum(&text) as usize,
                    i + 1,
                    "tier sum mid-load, {format:?}"
                );
            }
        }

        let text = scrape(&pool);
        assert_eq!(
            parse_value(&text, "bsoap_server_requests_total").unwrap() as usize,
            total,
            "scrapes must not count as served requests ({format:?})"
        );
        assert_eq!(
            tier_sum(&text) as usize,
            total,
            "tier sum after load, {format:?}"
        );
        assert_eq!(
            parse_value(&text, "bsoap_metrics_scrapes_total").unwrap() as usize,
            2,
            "{format:?}"
        );
        assert!(
            text.lines()
                .any(|l| l.starts_with("bsoap_send_latency_seconds_bucket")),
            "send-latency histogram missing from the scrape ({format:?})"
        );

        let snap = metrics.snapshot();
        assert_eq!(snap.total_sends() as usize, total);
        assert_eq!(snap.tier_sends(Tier::FirstTime), 1);
        assert_eq!(
            snap.get(Counter::ServerRequests) as usize,
            total,
            "{format:?}"
        );
        assert!(
            snap.get(Counter::PoolReused) > 0,
            "keep-alive reuse never happened ({format:?})"
        );

        // Close the idle keep-alive connections so the stop below
        // does not sit out its drain deadline waiting on them.
        drop(pool);
        let stats = server.stop();
        assert_eq!(stats.requests as usize, total, "{format:?}");
    }
}

#[test]
fn two_endpoints_get_independent_templates() {
    for format in WireFormat::ALL {
        let op = doubles_op();
        let mut client = lane_client(format);
        let mut sink_a = bsoap::transport::SinkTransport::new();
        let mut sink_b = bsoap::transport::SinkTransport::new();

        let xs = vec![1.5; 10];
        client
            .call(
                "http://a",
                &op,
                &[Value::DoubleArray(xs.clone())],
                &mut sink_a,
            )
            .unwrap();
        // Same payload to a different endpoint: its own first-time send.
        let r = client
            .call(
                "http://b",
                &op,
                &[Value::DoubleArray(xs.clone())],
                &mut sink_b,
            )
            .unwrap();
        assert_eq!(r.tier, SendTier::FirstTime);
        assert_eq!(client.template_store().len(), 2);
        // Back to endpoint A unchanged: content match survives interleaving.
        let r = client
            .call("http://a", &op, &[Value::DoubleArray(xs)], &mut sink_a)
            .unwrap();
        assert_eq!(r.tier, SendTier::ContentMatch);
    }
}

/// A default `HttpServer` answers every client that holds its keep-alive
/// connection open, however many there are: a held connection costs the
/// server no thread of its own. `RpcClient` has no deadline, so a call the
/// server never answers would hang; each reply is awaited with a bound.
#[test]
fn every_held_keep_alive_client_is_answered() {
    use bsoap::rpc::RpcClient;
    use bsoap::server::{HttpServer, Service};
    use bsoap::wsdl::ServiceDesc;
    use std::sync::mpsc;
    use std::time::Duration;

    const CLIENTS: usize = 8;
    let op = doubles_op();
    let mut svc = Service::new(&op.namespace, EngineConfig::paper_default());
    svc.register(op.clone(), Vec::new(), |_| Ok(Vec::new()));
    let desc = ServiceDesc {
        name: "Held".into(),
        namespace: op.namespace.clone(),
        endpoint: "http://svc/held".into(),
        operations: vec![op.clone()],
    };
    let server = HttpServer::spawn(svc).unwrap();
    let addr = server.addr();
    let (answered, replies) = mpsc::channel();
    // Joined only once every reply arrived: a call that hangs fails the
    // bounded wait below instead.
    let calls = std::thread::spawn(move || {
        let mut clients: Vec<RpcClient> = (0..CLIENTS)
            .map(|_| RpcClient::connect(desc.clone(), addr, EngineConfig::paper_default()).unwrap())
            .collect();
        for round in 0..2 {
            for (i, client) in clients.iter_mut().enumerate() {
                client.call(&op.name, &doubles(&[i as f64])).unwrap();
                answered.send((round, i)).unwrap();
            }
        }
    });
    for round in 0..2 {
        for i in 0..CLIENTS {
            assert_eq!(
                replies.recv_timeout(Duration::from_secs(5)),
                Ok((round, i)),
                "call {round} of client {i} (of {CLIENTS} holding connections)"
            );
        }
    }
    calls.join().unwrap();
    let stats = server.stop();
    assert_eq!(stats.requests, 2 * CLIENTS as u64);
}
