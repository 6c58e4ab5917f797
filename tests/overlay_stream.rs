//! End-to-end streaming overlay: `Client::call_overlaid_via` feeding
//! `HttpPoolClient::post_streamed`, received by a server that never
//! buffers the envelope — `read_head` + `ChunkedBodyReader` +
//! `StreamingDeserializer` — with metrics reconciled across the wire.

mod common;

use bsoap::deser::StreamingDeserializer;
use bsoap::obs::{Counter, Gauge, Metrics};
use bsoap::transport::http::{parse_request_head, HttpVersion, RequestConfig};
use bsoap::transport::pool::PoolConfig;
use bsoap::transport::stream::{read_head, ChunkedBodyReader};
use bsoap::transport::HttpPoolClient;
use bsoap::{ChunkConfig, Client, EngineConfig, OpDesc, OverlaySender, SendTier, Value};
use common::spec::doubles_op;
use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;

/// One parsed request as seen by the streaming server.
struct Received {
    items: Vec<f64>,
    declared: usize,
    /// Largest number of body bytes ever held at once (reader buffer +
    /// deserializer carry): the server-side memory bound.
    peak_buffered: usize,
    body_bytes: usize,
}

/// A server that deserializes each chunked request incrementally: no
/// point in the pipeline ever holds the whole envelope.
fn spawn_streaming_server(op: OpDesc) -> (std::net::SocketAddr, mpsc::Receiver<Received>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (tx, rx) = mpsc::channel();
    thread::spawn(move || {
        // One client pool → serial connections; handle until the harness
        // drops the sender side.
        for conn in listener.incoming() {
            let Ok(mut stream) = conn else { break };
            if !handle_conn(&mut stream, &op, &tx) {
                break;
            }
        }
    });
    (addr, rx)
}

/// Serve one connection until clean EOF. Returns false when the results
/// channel is gone (test finished).
fn handle_conn(stream: &mut TcpStream, op: &OpDesc, tx: &mpsc::Sender<Received>) -> bool {
    loop {
        let Ok(Some((head, leftover))) = read_head(&mut *stream, 1 << 16) else {
            return true; // clean close (or error): next connection
        };
        let parsed = parse_request_head(&head).unwrap();
        assert_eq!(
            parsed.header("transfer-encoding").map(str::to_owned),
            Some("chunked".to_owned()),
            "streamed sends must be chunked"
        );
        let mut reader =
            ChunkedBodyReader::with_capacity(&mut *stream, leftover, 64 * 1024, 1 << 30);
        let mut deser = StreamingDeserializer::new(op).unwrap();
        let mut items = Vec::new();
        while let Some(slice) = reader.next_slice().unwrap() {
            deser
                .push(slice, |_, v| {
                    match v {
                        Value::Double(x) => items.push(x),
                        other => panic!("expected double item, got {other:?}"),
                    }
                    Ok(())
                })
                .unwrap();
        }
        let body_bytes = reader.body_bytes();
        let peak_buffered = reader.capacity() + deser.peak_carry_bytes();
        let declared = deser.declared_len();
        let summary = deser.finish().unwrap();
        assert_eq!(summary.items, items.len());
        stream
            .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n")
            .unwrap();
        if tx
            .send(Received {
                items,
                declared,
                peak_buffered,
                body_bytes,
            })
            .is_err()
        {
            return false;
        }
    }
}

#[test]
fn overlaid_call_streams_end_to_end() {
    let op = doubles_op();
    let (addr, rx) = spawn_streaming_server(op.clone());

    // An 8 KiB chunk: a window of ~130 elements, ~150 portions a send.
    let config = EngineConfig::stuffed_max().with_chunk(ChunkConfig::k8());
    let window = OverlaySender::auto_window(config, &op)
        .unwrap()
        .window_elems();
    let mut client = Client::new(config);
    let metrics = Arc::new(Metrics::new());
    client.set_metrics(metrics.clone());

    let pool = HttpPoolClient::new(
        addr,
        RequestConfig::loopback(HttpVersion::Http11Chunked),
        PoolConfig::default(),
    );

    let n = 20_000usize;
    let mut expect_tiers = vec![SendTier::FirstTime, SendTier::PerfectStructural];
    for round in 0..2 {
        let vals: Vec<f64> = (0..n).map(|i| (i + round * 3) as f64 * 0.5).collect();
        let value = Value::DoubleArray(vals.clone());
        let (reply, report) = pool
            .post_streamed(|w| {
                client
                    .call_overlaid_via("http://svc", &op, std::slice::from_ref(&value), |slices| {
                        w.write_portion(slices)
                    })
                    .map_err(|e| std::io::Error::other(e.to_string()))
            })
            .unwrap();
        assert_eq!(reply.status, 200);
        assert_eq!(report.tier, expect_tiers.remove(0), "round {round}");
        assert_eq!(report.portions, n.div_ceil(window));

        let got = rx.recv().unwrap();
        assert_eq!(got.declared, n);
        assert_eq!(
            got.items, vals,
            "values corrupted in flight (round {round})"
        );
        assert_eq!(got.body_bytes, report.bytes, "body length mismatch");
        // Neither side ever held the message: the client's window and the
        // server's reader+carry both stay far below the body size.
        assert!(
            report.window_bytes * 4 < report.bytes,
            "client window {} not bounded vs body {}",
            report.window_bytes,
            report.bytes
        );
        assert!(
            got.peak_buffered * 4 < got.body_bytes,
            "server buffered {} of a {}-byte body",
            got.peak_buffered,
            got.body_bytes
        );
    }

    // Metrics reconcile with the reports: two sends of n elements each.
    let snap = metrics.snapshot();
    assert_eq!(
        snap.get(Counter::OverlayPortions),
        2 * n.div_ceil(window) as u64
    );
    assert!(snap.get(Counter::OverlayBytesStreamed) > 0);
    assert!(snap.gauge(Gauge::OverlayWindowPeakBytes) > 0);
    assert_eq!(snap.get(Counter::SendFirstTime), 1);
    assert_eq!(snap.get(Counter::SendPerfectStructural), 1);

    let stats = client.stats();
    assert_eq!(stats.first_time, 1);
    assert_eq!(stats.perfect_structural, 1);
}

#[test]
fn small_calls_fall_through_to_buffered_tiers() {
    let op = doubles_op();
    // The 1 MiB threshold is far above what three doubles serialize to.
    let config = EngineConfig::paper_default();
    let mut client = Client::new(config);
    let mut sink = Vec::new();
    let args = vec![Value::DoubleArray(vec![1.0, 2.0, 3.0])];
    assert!(!client.overlay_engages(&op, &args));
    match client
        .call_overlaid("http://svc", &op, &args, &mut sink)
        .unwrap()
    {
        bsoap::OverlaidOutcome::Buffered(r) => assert_eq!(r.tier, SendTier::FirstTime),
        bsoap::OverlaidOutcome::Streamed(_) => panic!("small call should not stream"),
    }
    assert!(!sink.is_empty());
}

#[test]
fn large_calls_auto_engage() {
    let op = doubles_op();
    let config = EngineConfig::stuffed_max(); // the 1 MiB threshold
    let mut client = Client::new(config);
    let n = 200_000usize; // ~ 4.8 MB serialized at max double width
    let args = vec![Value::DoubleArray((0..n).map(|i| i as f64).collect())];
    assert!(client.overlay_engages(&op, &args));
    let mut sink = Vec::new();
    match client
        .call_overlaid("http://svc", &op, &args, &mut sink)
        .unwrap()
    {
        bsoap::OverlaidOutcome::Streamed(r) => {
            assert_eq!(r.tier, SendTier::FirstTime);
            assert_eq!(r.bytes, sink.len());
            assert!(r.window_bytes * 8 < r.bytes);
        }
        bsoap::OverlaidOutcome::Buffered(_) => panic!("large call should stream"),
    }
}

#[test]
fn send_failure_demotes_overlay_window() {
    // Once failures cross the degradation threshold, the cached window is
    // dropped with the template so the next send rebuilds (FirstTime),
    // mirroring template-cache demotion.
    let op = doubles_op();
    // An 8 KiB chunk: the 1 000 values take several portions.
    let config = EngineConfig::stuffed_max()
        .with_chunk(ChunkConfig::k8())
        .with_degraded(1, 1);
    let mut client = Client::new(config);
    let value = Value::DoubleArray((0..1_000).map(|i| i as f64).collect());

    let r = client
        .call_overlaid_via("http://svc", &op, std::slice::from_ref(&value), |slices| {
            Ok(slices.iter().map(|s| s.len()).sum())
        })
        .unwrap();
    assert_eq!(r.tier, SendTier::FirstTime);

    // Fail after a few portions.
    let mut seen = 0usize;
    let err = client
        .call_overlaid_via("http://svc", &op, std::slice::from_ref(&value), |slices| {
            seen += 1;
            if seen > 3 {
                Err(std::io::Error::other("wire cut"))
            } else {
                Ok(slices.iter().map(|s| s.len()).sum())
            }
        })
        .unwrap_err();
    assert!(matches!(err, bsoap::EngineError::Io(_)));

    let r = client
        .call_overlaid_via("http://svc", &op, std::slice::from_ref(&value), |slices| {
            Ok(slices.iter().map(|s| s.len()).sum())
        })
        .unwrap();
    assert_eq!(r.tier, SendTier::FirstTime, "window survived a failed send");
}

/// The streamed wire bytes (sans HTTP framing) are byte-identical to the
/// non-overlay serialization — asserted over a real socket.
#[test]
fn wire_body_matches_full_serialization() {
    let op = doubles_op();
    let config = EngineConfig::stuffed_max();
    let n = 5_000usize;
    let value = Value::DoubleArray((0..n).map(|i| i as f64 * 0.25).collect());

    let mut sender = OverlaySender::new(config, &op, 256).unwrap();
    let mut streamed = Vec::new();
    sender.send(&value, &mut streamed).unwrap();

    let full = bsoap::MessageTemplate::build(config, &op, std::slice::from_ref(&value))
        .unwrap()
        .to_bytes()
        .to_vec();
    assert_eq!(streamed, full);
}
