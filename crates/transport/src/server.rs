//! The one server entry point, and loopback servers for tests, examples
//! and measurements built on it.
//!
//! [`serve`] starts a server on a bound listener: it derives the
//! per-connection [`ConnConfig`] from [`ServerOptions`] and returns one
//! [`Server`] handle. The server is the epoll core of [`crate::event_loop`]:
//! a few loop threads multiplex every connection as a [`Conn`](crate::conn::Conn) state
//! machine and run the handler inline on the thread that read the request,
//! so thousands of idle keep-alive clients cost map entries instead of
//! pinned threads. Every protocol rule (caps, 400s, evictions, idle
//! reaping, body sinks, server counters) is `Conn`'s. Linux only: elsewhere
//! [`serve`] fails with `Unsupported`.
//!
//! [`TestServer`] reproduces the paper's measurement endpoint — "a dummy
//! SOAP server … \[that\] does not deserialize or parse the incoming SOAP
//! packet" — and adds parsing modes: `Collect` hands complete request
//! bodies back to the test so integration tests can assert exact
//! bytes-on-the-wire, and `Ack` parses and responds without storing, so
//! throughput benchmarks can sustain millions of requests without
//! accumulating memory. It is a [`Handler`] closure (`handle_one`) handed
//! to [`serve`].

use crate::conn::{ConnConfig, Handler, ReqBody, Response, SinkFactory};
pub use crate::event_loop::Server;
use crate::http::{RequestHead, DEFAULT_MAX_BODY, DEFAULT_MAX_HEAD};
use bsoap_obs::{Counter, Metrics, Recorder};
use parking_lot::Mutex;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What the server does with connections.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServerMode {
    /// Drain and discard all bytes (the paper's dummy server; no HTTP).
    Discard,
    /// Parse HTTP requests, record them, respond `200 OK` to each.
    Collect,
    /// Parse HTTP requests and respond `200 OK`, storing nothing — the
    /// throughput-benchmark endpoint.
    Ack,
}

#[doc(hidden)]
pub use bsoap_obs::ServerCore;

/// Server tuning.
#[derive(Clone, Copy, Debug)]
pub struct ServerOptions {
    /// Selects nothing: there is one server core. Kept for callers that
    /// still name one.
    #[doc(hidden)]
    pub core: ServerCore,
    /// Event-loop threads; accepted connections go round-robin between
    /// them, and each runs the handler for its own connections.
    pub event_loop_threads: usize,
    /// Accept cap: beyond this many open connections, new ones wait in the
    /// listen backlog — queued, not refused.
    pub max_connections: usize,
    /// Graceful-drain deadline on stop.
    pub drain_deadline: Duration,
    /// Per-*read* stall timeout (Collect/Ack modes): a connection that
    /// makes no read progress for this long is evicted and counted under
    /// [`Counter::ServerTimeouts`]. On its own this does not bound a
    /// whole request — a peer dribbling one byte per interval just under
    /// this timeout keeps sliding it; pair it with
    /// [`ServerOptions::request_timeout`] for that. `None` (the default)
    /// lets a connection wait forever.
    pub read_timeout: Option<Duration>,
    /// Per-*request* time budget (Collect/Ack modes): opened at the first
    /// byte of a request head, it caps head + body read time in total, so
    /// the slow-loris dribbler that defeats `read_timeout` alone is still
    /// evicted (counted under [`Counter::ServerTimeouts`]). Idle
    /// keep-alive gaps *between* requests are not on this budget. `None`
    /// leaves request duration unbounded.
    pub request_timeout: Option<Duration>,
    /// Idle keep-alive reaper: a connection sitting in `Idle` with no
    /// request in flight for this long is closed and counted under
    /// [`Counter::ServerIdleReaped`].
    pub idle_timeout: Option<Duration>,
    /// Cap on one request head; larger heads get a `400` and the
    /// connection closed (see [`crate::http::RequestParser::new`]).
    pub max_head_bytes: usize,
    /// Cap on one request body (declared or chunk-accumulated).
    pub max_body_bytes: usize,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            core: ServerCore::EventLoop,
            event_loop_threads: 2,
            max_connections: 8192,
            drain_deadline: Duration::from_secs(2),
            read_timeout: None,
            request_timeout: None,
            idle_timeout: None,
            max_head_bytes: DEFAULT_MAX_HEAD,
            max_body_bytes: DEFAULT_MAX_BODY,
        }
    }
}

/// Counters published by a stopped server.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerStats {
    /// Total bytes drained off all connections (Discard mode) or body
    /// bytes received (Collect/Ack modes).
    pub bytes_received: u64,
    /// Connections accepted.
    pub connections: u64,
    /// Complete requests parsed (Collect/Ack modes only).
    pub requests: u64,
}

/// One collected request (Collect mode).
#[derive(Clone, Debug)]
pub struct CollectedRequest {
    /// Parsed request head.
    pub head: crate::http::RequestHead,
    /// Complete (de-chunked) body bytes.
    pub body: Vec<u8>,
}

/// What a server does with connection bytes.
#[derive(Clone)]
pub enum ServeMode {
    /// Parse HTTP requests and answer each through `handler`.
    Http {
        /// Produces the response for each complete request.
        handler: Handler,
    },
    /// No protocol: count every byte read until EOF (the
    /// [`ServerMode::Discard`] contract).
    Discard {
        /// Called with each read's byte count.
        on_bytes: Arc<dyn Fn(u64) + Send + Sync>,
    },
}

/// Serve `listener`: the one entry point behind [`TestServer`] and
/// `bsoap-server`'s host. Maps `opts` onto the per-connection
/// [`ConnConfig`] once and starts the loops. `sinks`, when given, chooses
/// per request whether the body streams into a
/// [`BodySink`](crate::conn::BodySink) instead of being buffered.
pub fn serve(
    listener: TcpListener,
    opts: &ServerOptions,
    metrics: Option<Arc<Metrics>>,
    sinks: Option<SinkFactory>,
    mode: ServeMode,
) -> io::Result<Server> {
    let conn_cfg = ConnConfig {
        max_head: opts.max_head_bytes,
        max_body: opts.max_body_bytes,
        read_timeout: opts.read_timeout,
        request_timeout: opts.request_timeout,
        idle_timeout: opts.idle_timeout,
        sink_factory: sinks,
    };
    Server::start(listener, opts, conn_cfg, metrics, mode)
}

struct Shared {
    bytes: AtomicU64,
    requests: AtomicU64,
    collected: Mutex<Vec<CollectedRequest>>,
}

/// A loopback server.
pub struct TestServer {
    shared: Arc<Shared>,
    server: Server,
}

impl TestServer {
    /// Bind an ephemeral loopback port and start serving with default
    /// options.
    pub fn spawn(mode: ServerMode) -> io::Result<Self> {
        Self::spawn_with(mode, ServerOptions::default())
    }

    /// Bind an ephemeral loopback port and start serving.
    pub fn spawn_with(mode: ServerMode, opts: ServerOptions) -> io::Result<Self> {
        Self::spawn_inner(mode, opts, None, None)
    }

    /// [`TestServer::spawn_with`] with an observability registry: requests
    /// tick [`Counter::ServerRequests`] and the request-latency histogram,
    /// and (Collect/Ack modes) the server answers `GET /metrics` with the
    /// registry's Prometheus text rendering.
    pub fn spawn_with_metrics(
        mode: ServerMode,
        opts: ServerOptions,
        metrics: Arc<Metrics>,
    ) -> io::Result<Self> {
        Self::spawn_inner(mode, opts, Some(metrics), None)
    }

    /// [`TestServer::spawn_with_metrics`] plus a per-request body-sink
    /// chooser: requests the factory claims stream their decoded bodies
    /// through the returned [`crate::conn::BodySink`] as chunks arrive,
    /// instead of buffering them whole — the server-side half of chunk
    /// overlaying.
    pub fn spawn_streaming(
        mode: ServerMode,
        opts: ServerOptions,
        metrics: Option<Arc<Metrics>>,
        sinks: SinkFactory,
    ) -> io::Result<Self> {
        Self::spawn_inner(mode, opts, metrics, Some(sinks))
    }

    fn spawn_inner(
        mode: ServerMode,
        opts: ServerOptions,
        metrics: Option<Arc<Metrics>>,
        sinks: Option<SinkFactory>,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let shared = Arc::new(Shared {
            bytes: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            collected: Mutex::new(Vec::new()),
        });
        let s = Arc::clone(&shared);
        let serve_mode = match mode {
            ServerMode::Discard => ServeMode::Discard {
                on_bytes: Arc::new(move |n| {
                    s.bytes.fetch_add(n, Ordering::Relaxed);
                }),
            },
            ServerMode::Collect | ServerMode::Ack => {
                let store = mode == ServerMode::Collect;
                let m = metrics.clone();
                ServeMode::Http {
                    handler: Arc::new(move |head, body| {
                        handle_one(head, body, &s, store, m.as_deref())
                    }),
                }
            }
        };
        let server = serve(listener, &opts, metrics, sinks, serve_mode)?;
        Ok(TestServer { shared, server })
    }

    /// The address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Bytes drained so far (live view).
    pub fn bytes_received(&self) -> u64 {
        self.shared.bytes.load(Ordering::Relaxed)
    }

    /// Requests parsed so far (live view; Collect/Ack modes).
    pub fn requests(&self) -> u64 {
        self.shared.requests.load(Ordering::Relaxed)
    }

    /// Stop the server and return its counters.
    pub fn stop(mut self) -> ServerStats {
        self.server.stop();
        ServerStats {
            bytes_received: self.shared.bytes.load(Ordering::Relaxed),
            connections: self.server.connections(),
            requests: self.shared.requests.load(Ordering::Relaxed),
        }
    }

    /// Stop the server and return everything it collected (Collect mode).
    pub fn stop_collecting(mut self) -> Vec<CollectedRequest> {
        self.server.stop();
        std::mem::take(&mut *self.shared.collected.lock())
    }
}

/// [`TestServer`]'s request handler: answer `GET /metrics` with the
/// registry scrape, count and optionally store everything else, answer
/// `200 OK <ack/>`. Counters tick *before* the response goes out, so a
/// scrape racing the final response on another connection still sees the
/// request.
fn handle_one(
    head: &RequestHead,
    body: ReqBody,
    shared: &Shared,
    store: bool,
    metrics: Option<&Metrics>,
) -> Response {
    if head.method == "GET" && head.path() == "/metrics" {
        return Response::metrics_scrape(metrics);
    }
    shared.bytes.fetch_add(body.len() as u64, Ordering::Relaxed);
    shared.requests.fetch_add(1, Ordering::Relaxed);
    if store {
        if let ReqBody::Full(bytes) = body {
            shared.collected.lock().push(CollectedRequest {
                head: head.clone(),
                body: bytes,
            });
        }
    }
    if let Some(m) = metrics {
        m.add(Counter::ServerRequests, 1);
    }
    Response::xml(200, "OK", b"<ack/>".to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{
        post_gather_vectored, read_response_limited, HttpVersion, PostScratch, RequestConfig,
    };
    use bsoap_obs::HistId;
    use std::io::{IoSlice, Read, Write};
    use std::net::TcpStream;

    fn reply(stream: &mut TcpStream) -> (u16, Vec<u8>) {
        read_response_limited(stream, DEFAULT_MAX_HEAD, DEFAULT_MAX_BODY).unwrap()
    }

    #[test]
    fn discard_server_counts_bytes() {
        let server = TestServer::spawn_with(ServerMode::Discard, ServerOptions::default()).unwrap();
        let mut c = TcpStream::connect(server.addr()).unwrap();
        c.write_all(b"0123456789abcdef").unwrap();
        c.shutdown(std::net::Shutdown::Write).unwrap();
        drop(c);
        // Drain happens on another thread; spin briefly for the count.
        for _ in 0..2000 {
            if server.bytes_received() == 16 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let stats = server.stop();
        assert_eq!(stats.bytes_received, 16);
        assert_eq!(stats.connections, 1);
    }

    #[test]
    fn collect_server_parses_and_acks() {
        let server = TestServer::spawn_with(ServerMode::Collect, ServerOptions::default()).unwrap();
        let mut c = TcpStream::connect(server.addr()).unwrap();
        let cfg = RequestConfig::loopback(HttpVersion::Http11Length);
        let body = b"<m>7</m>".to_vec();
        let mut scratch = PostScratch::default();
        post_gather_vectored(&mut c, &cfg, &[IoSlice::new(&body)], &mut scratch).unwrap();
        let (status, resp) = reply(&mut c);
        assert_eq!(status, 200);
        assert_eq!(resp, b"<ack/>");
        drop(c);
        let reqs = server.stop_collecting();
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].body, body);
    }

    #[test]
    fn ack_server_counts_but_does_not_store() {
        let server = TestServer::spawn_with(ServerMode::Ack, ServerOptions::default()).unwrap();
        let mut c = TcpStream::connect(server.addr()).unwrap();
        let cfg = RequestConfig::loopback(HttpVersion::Http11Length);
        let body = b"<m>9</m>".to_vec();
        let mut scratch = PostScratch::default();
        // Two keep-alive requests on one connection.
        for _ in 0..2 {
            post_gather_vectored(&mut c, &cfg, &[IoSlice::new(&body)], &mut scratch).unwrap();
            let (status, resp) = reply(&mut c);
            assert_eq!(status, 200);
            assert_eq!(resp, b"<ack/>");
        }
        drop(c);
        let stats = server.stop();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.connections, 1, "keep-alive reused one connection");
        assert_eq!(stats.bytes_received, 2 * body.len() as u64);
    }

    #[test]
    fn multiple_connections() {
        let server = TestServer::spawn_with(ServerMode::Discard, ServerOptions::default()).unwrap();
        let mut handles = Vec::new();
        for i in 0..4 {
            let addr = server.addr();
            handles.push(std::thread::spawn(move || {
                let mut c = TcpStream::connect(addr).unwrap();
                c.write_all(&vec![b'a'; (i + 1) * 100]).unwrap();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for _ in 0..2000 {
            if server.bytes_received() == 1000 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let stats = server.stop();
        assert_eq!(stats.bytes_received, 1000);
        assert_eq!(stats.connections, 4);
    }

    #[test]
    fn concurrent_connections_on_one_loop_all_complete() {
        // One loop thread, 3 concurrent HTTP clients: all requests must
        // be answered.
        let server = TestServer::spawn_with(
            ServerMode::Ack,
            ServerOptions {
                event_loop_threads: 1,
                ..ServerOptions::default()
            },
        )
        .unwrap();
        let addr = server.addr();
        let handles: Vec<_> = (0..3)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut c = TcpStream::connect(addr).unwrap();
                    let cfg = RequestConfig::loopback(HttpVersion::Http11Length);
                    let body = b"<q/>".to_vec();
                    let mut scratch = PostScratch::default();
                    post_gather_vectored(&mut c, &cfg, &[IoSlice::new(&body)], &mut scratch)
                        .unwrap();
                    let (status, _) = reply(&mut c);
                    assert_eq!(status, 200);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let stats = server.stop();
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.connections, 3);
    }

    #[test]
    fn metrics_endpoint_reports_server_counters() {
        let metrics = Metrics::shared();
        let server = TestServer::spawn_with_metrics(
            ServerMode::Ack,
            ServerOptions::default(),
            Arc::clone(&metrics),
        )
        .unwrap();
        let mut c = TcpStream::connect(server.addr()).unwrap();
        let cfg = RequestConfig::loopback(HttpVersion::Http11Length);
        let body = b"<m>1</m>".to_vec();
        let mut scratch = PostScratch::default();
        for _ in 0..3 {
            post_gather_vectored(&mut c, &cfg, &[IoSlice::new(&body)], &mut scratch).unwrap();
            let (status, _) = reply(&mut c);
            assert_eq!(status, 200);
        }
        // Scrape over the same keep-alive connection.
        let mut get = Vec::new();
        crate::http::render_get_request(&mut get, "/metrics", "localhost");
        c.write_all(&get).unwrap();
        let (status, text) = reply(&mut c);
        assert_eq!(status, 200);
        let text = String::from_utf8(text).unwrap();
        assert_eq!(
            bsoap_obs::parse_value(&text, "bsoap_server_requests_total"),
            Some(3.0)
        );
        assert_eq!(
            bsoap_obs::parse_value(&text, "bsoap_metrics_scrapes_total"),
            Some(1.0)
        );
        drop(c);
        let stats = server.stop();
        assert_eq!(stats.requests, 3, "the scrape is not counted as a request");
        let snap = metrics.snapshot();
        assert_eq!(snap.get(Counter::ServerRequests), 3);
        assert_eq!(snap.get(Counter::ServerConnections), 1);
        assert_eq!(snap.hist(HistId::ServerRequest).count(), 3);
    }

    #[test]
    fn metrics_scrape_without_registry_is_404() {
        let server = TestServer::spawn_with(ServerMode::Ack, ServerOptions::default()).unwrap();
        let mut c = TcpStream::connect(server.addr()).unwrap();
        let mut get = Vec::new();
        crate::http::render_get_request(&mut get, "/metrics", "localhost");
        c.write_all(&get).unwrap();
        let (status, _) = reply(&mut c);
        assert_eq!(status, 404);
        drop(c);
        server.stop();
    }

    #[test]
    fn malformed_request_draws_400_then_close() {
        let metrics = Metrics::shared();
        let server = TestServer::spawn_with_metrics(
            ServerMode::Ack,
            ServerOptions::default(),
            Arc::clone(&metrics),
        )
        .unwrap();
        let mut c = TcpStream::connect(server.addr()).unwrap();
        c.write_all(b"THIS IS NOT HTTP AT ALL\r\n\r\n").unwrap();
        let (status, body) = reply(&mut c);
        assert_eq!(status, 400);
        assert!(!body.is_empty(), "400 body explains the rejection");
        // Connection is closed after the 400.
        let mut probe = [0u8; 1];
        assert_eq!(c.read(&mut probe).unwrap(), 0);
        drop(c);
        let stats = server.stop();
        assert_eq!(stats.requests, 0);
        assert_eq!(metrics.snapshot().get(Counter::ServerBadRequests), 1);
    }

    #[test]
    fn oversized_head_draws_400() {
        let metrics = Metrics::shared();
        let server = TestServer::spawn_with_metrics(
            ServerMode::Ack,
            ServerOptions {
                max_head_bytes: 1024,
                ..ServerOptions::default()
            },
            Arc::clone(&metrics),
        )
        .unwrap();
        let mut c = TcpStream::connect(server.addr()).unwrap();
        let mut req = Vec::new();
        req.extend_from_slice(b"POST / HTTP/1.1\r\nX-Pad: ");
        req.extend_from_slice(&vec![b'x'; 4096]);
        req.extend_from_slice(b"\r\nContent-Length: 0\r\n\r\n");
        c.write_all(&req).unwrap();
        let (status, _) = reply(&mut c);
        assert_eq!(status, 400);
        drop(c);
        server.stop();
        assert_eq!(metrics.snapshot().get(Counter::ServerBadRequests), 1);
    }

    #[test]
    fn slow_loris_connection_is_evicted() {
        let metrics = Metrics::shared();
        let server = TestServer::spawn_with_metrics(
            ServerMode::Ack,
            ServerOptions {
                read_timeout: Some(Duration::from_millis(40)),
                ..ServerOptions::default()
            },
            Arc::clone(&metrics),
        )
        .unwrap();
        let mut c = TcpStream::connect(server.addr()).unwrap();
        // Half a request head, then silence: the server must evict
        // rather than pin a worker (or a map entry) forever.
        c.write_all(b"POST / HTTP/1.1\r\nHost: lo").unwrap();
        let mut probe = [0u8; 64];
        // FIN reads zero bytes; RST errors. Either means evicted.
        if let Ok(n) = c.read(&mut probe) {
            assert_eq!(n, 0, "server closed on us");
        }
        drop(c);
        server.stop();
        assert_eq!(metrics.snapshot().get(Counter::ServerTimeouts), 1);
    }

    #[test]
    fn timeouts_fire_without_a_metrics_registry() {
        // The deadline rules are the machine's, not the registry's: a
        // server spawned without metrics still evicts a stalled peer.
        let server = TestServer::spawn_with(
            ServerMode::Ack,
            ServerOptions {
                read_timeout: Some(Duration::from_millis(40)),
                ..ServerOptions::default()
            },
        )
        .unwrap();
        let mut c = TcpStream::connect(server.addr()).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        c.write_all(b"POST / HTTP/1.1\r\nHost: lo").unwrap();
        let mut probe = [0u8; 64];
        match c.read(&mut probe) {
            Ok(n) => assert_eq!(n, 0, "server closed on us"),
            Err(e) => assert!(
                !matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ),
                "never evicted"
            ),
        }
        drop(c);
        server.stop();
    }

    #[test]
    fn dribbling_slow_loris_is_evicted_by_the_request_budget() {
        // A peer sending one byte per interval just under `read_timeout`
        // keeps every individual read succeeding — the per-read timeout
        // alone never fires (on the event loop, every byte slides the
        // stall timer). The per-request budget must evict it anyway.
        let metrics = Metrics::shared();
        let server = TestServer::spawn_with_metrics(
            ServerMode::Ack,
            ServerOptions {
                read_timeout: Some(Duration::from_millis(200)),
                request_timeout: Some(Duration::from_millis(120)),
                ..ServerOptions::default()
            },
            Arc::clone(&metrics),
        )
        .unwrap();
        let mut c = TcpStream::connect(server.addr()).unwrap();
        let head: &[u8] = b"POST / HTTP/1.1\r\nHost: l";
        for chunk in head.chunks(1).take(12) {
            // Ignore write errors: once evicted the dribble may hit RST.
            let _ = c.write_all(chunk);
            std::thread::sleep(Duration::from_millis(25));
        }
        // ~300ms of dribbling against a 120ms request budget: the
        // server must have evicted the connection and counted it.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while metrics.snapshot().get(Counter::ServerTimeouts) == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "server never evicted the dribbler"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        // The read half confirms the close: a clean FIN reads zero
        // bytes, and an error (RST) also means closed.
        let mut probe = [0u8; 8];
        if let Ok(n) = c.read(&mut probe) {
            assert_eq!(n, 0, "server must not answer a dribbler");
        }
        drop(c);
        let stats = server.stop();
        assert_eq!(stats.requests, 0);
        assert_eq!(metrics.snapshot().get(Counter::ServerTimeouts), 1);
    }

    #[test]
    fn keep_alive_idle_gap_is_not_on_the_request_budget() {
        // The budget opens at the first byte of a request: a client that
        // idles between two requests longer than `request_timeout` must
        // still be served (only reads *within* a request are budgeted).
        let server = TestServer::spawn_with(
            ServerMode::Ack,
            ServerOptions {
                request_timeout: Some(Duration::from_millis(80)),
                ..ServerOptions::default()
            },
        )
        .unwrap();
        let mut c = TcpStream::connect(server.addr()).unwrap();
        let cfg = RequestConfig::loopback(HttpVersion::Http11Length);
        let body = b"<m>1</m>".to_vec();
        let mut scratch = PostScratch::default();
        post_gather_vectored(&mut c, &cfg, &[IoSlice::new(&body)], &mut scratch).unwrap();
        let (status, _) = reply(&mut c);
        assert_eq!(status, 200);
        // Idle past the per-request budget, then send a second request.
        std::thread::sleep(Duration::from_millis(160));
        post_gather_vectored(&mut c, &cfg, &[IoSlice::new(&body)], &mut scratch).unwrap();
        let (status, _) = reply(&mut c);
        assert_eq!(status, 200);
        drop(c);
        let stats = server.stop();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.connections, 1, "keep-alive survived the idle gap");
    }

    #[test]
    fn stop_without_traffic() {
        let server = TestServer::spawn_with(ServerMode::Discard, ServerOptions::default()).unwrap();
        let stats = server.stop();
        assert_eq!(stats.bytes_received, 0);
    }

    #[test]
    fn drop_shuts_down_cleanly() {
        let server = TestServer::spawn_with(ServerMode::Collect, ServerOptions::default()).unwrap();
        let addr = server.addr();
        drop(server);
        // Port should be released promptly; a new bind may or may not
        // get the same port, but connecting must not hang.
        let _ = TcpStream::connect(addr);
    }

    /// A keep-alive connection with no request in flight is closed by the
    /// idle timer after `idle_timeout`, ticking
    /// [`Counter::ServerIdleReaped`] — and the gap is *not* billed to the
    /// request budget.
    #[test]
    fn idle_keep_alive_connection_is_reaped() {
        let metrics = Metrics::shared();
        let server = TestServer::spawn_with_metrics(
            ServerMode::Ack,
            ServerOptions {
                idle_timeout: Some(Duration::from_millis(60)),
                request_timeout: Some(Duration::from_secs(30)),
                ..ServerOptions::default()
            },
            Arc::clone(&metrics),
        )
        .unwrap();
        let mut c = TcpStream::connect(server.addr()).unwrap();
        // Serve one request so the connection re-enters Idle (proving
        // the reaper re-arms after a request, not just at accept).
        let cfg = RequestConfig::loopback(HttpVersion::Http11Length);
        let body = b"<m>1</m>".to_vec();
        let mut scratch = PostScratch::default();
        post_gather_vectored(&mut c, &cfg, &[IoSlice::new(&body)], &mut scratch).unwrap();
        let (status, _) = reply(&mut c);
        assert_eq!(status, 200);
        // Now idle: the reaper must close us within the timeout (plus
        // driver latency), counted as a reap — not a timeout/eviction.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while metrics.snapshot().get(Counter::ServerIdleReaped) == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "idle connection never reaped"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let mut probe = [0u8; 8];
        if let Ok(n) = c.read(&mut probe) {
            assert_eq!(n, 0, "reaped connection is closed");
        }
        drop(c);
        let stats = server.stop();
        assert_eq!(stats.requests, 1);
        let snap = metrics.snapshot();
        assert_eq!(snap.get(Counter::ServerIdleReaped), 1);
        assert_eq!(
            snap.get(Counter::ServerTimeouts),
            0,
            "a reap is not an eviction"
        );
        // The loop also publishes how many connections it held.
        assert!(snap.gauge(bsoap_obs::Gauge::ConnectionsOpenPeak) >= 1);
    }

    /// A request the sink factory claims streams its decoded body through
    /// the sink as it arrives and reaches the handler as a byte count; one
    /// it declines is buffered as usual.
    #[test]
    fn claimed_bodies_stream_into_the_sink() {
        use crate::conn::BodySink;
        struct Tally(Arc<Mutex<(usize, bool)>>);
        impl BodySink for Tally {
            fn on_slice(&mut self, slice: &[u8]) -> io::Result<()> {
                self.0.lock().0 += slice.len();
                Ok(())
            }
            fn finish(&mut self) -> io::Result<()> {
                self.0.lock().1 = true;
                Ok(())
            }
        }
        let tally = Arc::new(Mutex::new((0usize, false)));
        let sink_tally = Arc::clone(&tally);
        let server = TestServer::spawn_streaming(
            ServerMode::Collect,
            ServerOptions::default(),
            None,
            Arc::new(move |head: &RequestHead| {
                (head.path() == "/stream")
                    .then(|| Box::new(Tally(Arc::clone(&sink_tally))) as Box<dyn BodySink>)
            }),
        )
        .unwrap();
        let mut c = TcpStream::connect(server.addr()).unwrap();
        let mut scratch = PostScratch::default();
        let parts = [vec![b'x'; 70_000], vec![b'y'; 30_000]];
        let slices: Vec<IoSlice<'_>> = parts.iter().map(|p| IoSlice::new(p)).collect();
        for path in ["/stream", "/buffered"] {
            let cfg = RequestConfig {
                path: path.to_owned(),
                ..RequestConfig::loopback(HttpVersion::Http11Chunked)
            };
            post_gather_vectored(&mut c, &cfg, &slices, &mut scratch).unwrap();
            let (status, _) = reply(&mut c);
            assert_eq!(status, 200);
        }
        drop(c);
        assert_eq!(server.bytes_received(), 200_000);
        let collected = server.stop_collecting();
        assert_eq!(*tally.lock(), (100_000, true));
        // Only the buffered request has a body to collect.
        assert_eq!(collected.len(), 1);
        assert_eq!(collected[0].head.path(), "/buffered");
        assert_eq!(collected[0].body.len(), 100_000);
    }

    /// The timer wheel reads the metrics clock: with a frozen
    /// `VirtualClock` an idle connection outlives its `idle_timeout` in
    /// real time, and is reaped only once the virtual clock advances past
    /// the deadline.
    #[test]
    fn frozen_virtual_clock_defers_the_idle_reaper() {
        use bsoap_obs::VirtualClock;
        let clock = Arc::new(VirtualClock::new());
        let metrics = Arc::new(Metrics::with_clock(clock.clone()));
        let server = TestServer::spawn_with_metrics(
            ServerMode::Ack,
            ServerOptions {
                idle_timeout: Some(Duration::from_millis(50)),
                ..ServerOptions::default()
            },
            Arc::clone(&metrics),
        )
        .unwrap();
        let c = TcpStream::connect(server.addr()).unwrap();
        // Wait until the loop has registered the connection, then give
        // the (frozen) reaper far longer than idle_timeout in real time.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while metrics.snapshot().get(Counter::ServerConnections) == 0 {
            assert!(std::time::Instant::now() < deadline, "never accepted");
            std::thread::sleep(Duration::from_millis(2));
        }
        std::thread::sleep(Duration::from_millis(200));
        assert_eq!(
            metrics.snapshot().get(Counter::ServerIdleReaped),
            0,
            "time is frozen: nothing may be reaped"
        );
        // Advance virtual time past the deadline: the next loop tick
        // (≤ 50ms real) fires the reaper.
        clock.advance(Duration::from_millis(60).as_nanos() as u64);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while metrics.snapshot().get(Counter::ServerIdleReaped) == 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "reaper never fired after the clock advanced"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        drop(c);
        server.stop();
    }
}
