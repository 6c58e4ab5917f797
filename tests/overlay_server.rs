//! Overlay streaming against the event-loop server core, over real
//! sockets: `Client::call_overlaid_via` chunks a huge array through a
//! bounded window, and the server's per-connection state machine decodes
//! the chunked body *natively* — each decoded slice flows through a
//! [`BodySink`] into a `StreamingDeserializer` as it arrives, so no
//! point on the server ever holds the envelope (ROADMAP item 2's
//! server-side accept integration).

mod common;

use bsoap::deser::StreamingDeserializer;
use bsoap::obs::{Counter, Metrics};
use bsoap::transport::http::{HttpVersion, RequestConfig};
use bsoap::transport::{
    BodySink, HttpPoolClient, PoolConfig, ServerMode, ServerOptions, TestServer,
};
use bsoap::{ChunkConfig, Client, EngineConfig, OverlaySender, SendTier, Value};
use common::spec::doubles_op;
use std::io;
use std::sync::{Arc, Mutex};

/// One fully streamed request as the server-side sink saw it.
struct Received {
    items: Vec<f64>,
    declared: usize,
    body_bytes: usize,
    /// Largest single buffered quantum (decoded slice + deserializer
    /// carry): the server-side memory bound.
    peak_buffered: usize,
}

/// [`BodySink`] feeding each decoded chunk slice straight into a
/// [`StreamingDeserializer`]; nothing is retained but parsed values.
struct DeserSink {
    deser: Option<StreamingDeserializer>,
    items: Vec<f64>,
    body_bytes: usize,
    peak_slice: usize,
    results: Arc<Mutex<Vec<Received>>>,
}

impl BodySink for DeserSink {
    fn on_slice(&mut self, slice: &[u8]) -> io::Result<()> {
        self.body_bytes += slice.len();
        self.peak_slice = self.peak_slice.max(slice.len());
        let items = &mut self.items;
        self.deser
            .as_mut()
            .expect("slice after finish")
            .push(slice, |_, v| {
                match v {
                    Value::Double(x) => items.push(x),
                    other => panic!("expected double item, got {other:?}"),
                }
                Ok(())
            })
            .map_err(|e| io::Error::other(e.to_string()))
    }

    fn finish(&mut self) -> io::Result<()> {
        let deser = self.deser.take().expect("double finish");
        let declared = deser.declared_len();
        let peak_carry = deser.peak_carry_bytes();
        let summary = deser
            .finish()
            .map_err(|e| io::Error::other(e.to_string()))?;
        let items = std::mem::take(&mut self.items);
        assert_eq!(summary.items, items.len());
        self.results.lock().unwrap().push(Received {
            items,
            declared,
            body_bytes: self.body_bytes,
            peak_buffered: self.peak_slice + peak_carry,
        });
        Ok(())
    }
}

#[test]
fn overlaid_calls_stream_into_the_event_loop_server() {
    let op = doubles_op();
    let metrics = Metrics::shared();
    let results: Arc<Mutex<Vec<Received>>> = Arc::new(Mutex::new(Vec::new()));

    let factory_op = op.clone();
    let factory_results = Arc::clone(&results);
    let server = TestServer::spawn_streaming(
        ServerMode::Ack,
        ServerOptions::default(),
        Some(Arc::clone(&metrics)),
        Arc::new(move |head| {
            // Stream POST bodies; anything else (e.g. /metrics) buffers.
            if head.method != "POST" {
                return None;
            }
            Some(Box::new(DeserSink {
                deser: Some(StreamingDeserializer::new(&factory_op).unwrap()),
                items: Vec::new(),
                body_bytes: 0,
                peak_slice: 0,
                results: Arc::clone(&factory_results),
            }))
        }),
    )
    .unwrap();

    // An 8 KiB chunk: a window of ~130 elements, ~150 portions a send.
    let config = EngineConfig::stuffed_max().with_chunk(ChunkConfig::k8());
    let window = OverlaySender::auto_window(config, &op)
        .unwrap()
        .window_elems();
    let mut client = Client::new(config);
    client.set_metrics(Arc::clone(&metrics));
    let pool = HttpPoolClient::new(
        server.addr(),
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
                    .map_err(|e| io::Error::other(e.to_string()))
            })
            .unwrap();
        assert_eq!(reply.status, 200, "round {round}");
        assert_eq!(report.tier, expect_tiers.remove(0), "round {round}");
        assert_eq!(report.portions, n.div_ceil(window));

        // The sink finished (and recorded) before the 200 was written.
        let got = results.lock().unwrap().pop().expect("sink never finished");
        assert_eq!(got.declared, n, "round {round}");
        assert_eq!(
            got.items, vals,
            "values corrupted in flight (round {round})"
        );
        assert_eq!(
            got.body_bytes, report.bytes,
            "server-side body length vs client report (round {round})"
        );
        // Bounded server memory: the largest decoded slice plus the
        // deserializer's carry stays far below the body size.
        assert!(
            got.peak_buffered * 4 < got.body_bytes,
            "server buffered {} of a {}-byte body",
            got.peak_buffered,
            got.body_bytes
        );
        // Client-side window is equally bounded.
        assert!(
            report.window_bytes * 4 < report.bytes,
            "client window {} not bounded vs body {}",
            report.window_bytes,
            report.bytes
        );
    }
    drop(pool);

    // Metrics reconcile across the wire: two streamed sends, each in
    // ceil(n/window) portions, served as exactly two requests.
    let snap = metrics.snapshot();
    assert_eq!(snap.get(Counter::ServerRequests), 2);
    assert_eq!(
        snap.get(Counter::OverlayPortions),
        2 * n.div_ceil(window) as u64
    );
    assert!(snap.get(Counter::OverlayBytesStreamed) > 0);
    assert_eq!(snap.get(Counter::SendFirstTime), 1);
    assert_eq!(snap.get(Counter::SendPerfectStructural), 1);

    let stats = server.stop();
    assert_eq!(stats.requests, 2);
}

/// The buffered fallback on the same server: a request the factory
/// declines (no sink) still round-trips through the normal full-body
/// dispatch path on the event-loop core.
#[test]
fn non_streamed_requests_still_buffer_on_the_streaming_server() {
    let op = doubles_op();
    let results: Arc<Mutex<Vec<Received>>> = Arc::new(Mutex::new(Vec::new()));
    let server = TestServer::spawn_streaming(
        ServerMode::Collect,
        ServerOptions::default(),
        None,
        Arc::new(move |_head| None), // decline every request: buffer all
    )
    .unwrap();

    let cfg = RequestConfig::loopback(HttpVersion::Http11Length);
    let pool = HttpPoolClient::new(server.addr(), cfg, PoolConfig::default());
    let mut client = Client::new(EngineConfig::paper_default());
    let xs = vec![1.5, 2.5, 3.5];
    client
        .call_via(
            "http://svc",
            &op,
            &[Value::DoubleArray(xs.clone())],
            |slices| {
                let reply = pool.call(slices)?;
                assert_eq!(reply.status, 200);
                Ok(reply.wire_bytes)
            },
        )
        .unwrap();
    drop(pool);

    let requests = server.stop_collecting();
    assert_eq!(requests.len(), 1);
    assert_eq!(
        bsoap::deser::parse_envelope(&requests[0].body, &op).unwrap(),
        vec![Value::DoubleArray(xs)]
    );
    assert!(results.lock().unwrap().is_empty());
}
