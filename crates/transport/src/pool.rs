//! Client-side connection pooling for keep-alive HTTP SOAP calls.
//!
//! The paper's differential serialization makes the *stub* cheap; this
//! module makes the wire path keep up. A [`ConnectionPool`] holds
//! persistent keep-alive connections to one endpoint so a differential
//! resend costs one `writev`, not a TCP + HTTP handshake. Checkout
//! health-checks the socket (a zero-byte `peek` distinguishes a live idle
//! connection from one the peer closed), idle connections past their
//! timeout are reaped, and [`HttpPoolClient`] retries once on a stale
//! socket that died mid-exchange — transparent reconnect, visible only in
//! [`PoolStats`].

use crate::client::ClientConn;
use crate::fault::{AttemptFailure, FaultPolicy, Resilience};
use crate::http::{RequestConfig, DEFAULT_MAX_BODY, DEFAULT_MAX_HEAD};
use crate::stream::ChunkedBodyWriter;
use bsoap_obs::{Clock, Counter, Deadline, HistId, Metrics, MonotonicClock, Recorder, TraceKind};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::io::{self, IoSlice};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::time::Duration;

/// Pool tuning.
#[derive(Clone, Copy, Debug)]
pub struct PoolConfig {
    /// Maximum idle connections retained; checkouts beyond this open
    /// fresh connections that are dropped (oldest first) on checkin.
    pub max_idle: usize,
    /// Idle connections older than this are reaped at the next checkout
    /// (or explicit [`ConnectionPool::reap`]).
    pub idle_timeout: Duration,
    /// Hard cap on connections checked out at once. Checkouts beyond the
    /// cap *queue* (they block until a connection returns) rather than
    /// being refused or dialing past the cap. `None` = uncapped (the seed
    /// behavior).
    pub max_live: Option<usize>,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            max_idle: 4,
            idle_timeout: Duration::from_secs(30),
            max_live: None,
        }
    }
}

/// Cumulative pool counters (relaxed; exact in quiescence).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Fresh TCP connections opened.
    pub created: u64,
    /// Checkouts served by an idle pooled connection.
    pub reused: u64,
    /// Connections discarded as unusable: the checkout health check
    /// failed, or check-in found bytes read past the last reply.
    pub stale: u64,
    /// Idle connections discarded because they out-sat the idle timeout.
    pub expired: u64,
    /// Exchanges retried on a fresh connection after a reused one died.
    pub retries: u64,
    /// Checkouts that had to queue on the `max_live` cap before being
    /// served (queued-not-refused).
    pub waited: u64,
}

#[derive(Default)]
struct AtomicStats {
    created: AtomicU64,
    reused: AtomicU64,
    stale: AtomicU64,
    expired: AtomicU64,
    retries: AtomicU64,
    waited: AtomicU64,
}

/// An idle pooled connection. Its request scratch and reply buffer travel
/// with the socket, so repeated exchanges through the pool allocate nothing.
struct Idle {
    conn: ClientConn,
    /// Pool-clock reading at checkin (drives idle-timeout reaping; on a
    /// `VirtualClock` expiry is testable without real sleeps).
    since_ns: u64,
}

/// Real-time slice for one queued-checkout condvar wait; the deadline
/// itself is re-checked on its injected clock between slices.
const QUEUE_WAIT_SLICE: Duration = Duration::from_millis(5);

/// The `max_live` admission gate: a counted semaphore on a condvar so
/// over-cap checkouts queue instead of being refused.
#[derive(Default)]
struct LiveGate {
    live: StdMutex<usize>,
    returned: Condvar,
}

/// A pool of persistent keep-alive connections to one endpoint.
pub struct ConnectionPool {
    addr: SocketAddr,
    cfg: PoolConfig,
    idle: Mutex<VecDeque<Idle>>,
    stats: AtomicStats,
    metrics: Option<Arc<Metrics>>,
    clock: Arc<dyn Clock>,
    gate: LiveGate,
}

impl ConnectionPool {
    /// Empty pool for `addr`.
    pub fn new(addr: SocketAddr, cfg: PoolConfig) -> Self {
        ConnectionPool {
            addr,
            cfg,
            idle: Mutex::new(VecDeque::new()),
            stats: AtomicStats::default(),
            metrics: None,
            clock: Arc::new(MonotonicClock::new()),
            gate: LiveGate::default(),
        }
    }

    /// Inject the clock idle ages are measured on (tests pass a
    /// [`bsoap_obs::VirtualClock`] so reaping needs no real sleeps).
    pub fn set_clock(&mut self, clock: Arc<dyn Clock>) {
        self.clock = clock;
    }

    /// Attach an observability registry: checkouts, reuse, staleness,
    /// expiry and retries are mirrored into its counters, checkout latency
    /// into its [`HistId::PoolCheckout`] histogram, and every checkout /
    /// reconnect drops a trace event.
    pub fn set_metrics(&mut self, metrics: Arc<Metrics>) {
        self.metrics = Some(metrics);
    }

    /// The endpoint this pool serves.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Check a connection out: most-recently-used healthy idle connection
    /// if one exists (LIFO keeps sockets warm), else a fresh connect with
    /// `TCP_NODELAY` set. Expired and health-check-failed idles found on
    /// the way are discarded.
    pub fn checkout(&self) -> io::Result<PooledConn<'_>> {
        self.checkout_within(None)
    }

    /// [`ConnectionPool::checkout`] under a call deadline: the `max_live`
    /// queue wait, the TCP connect, and the returned socket's read/write
    /// timeouts are all bounded by the remaining budget.
    pub fn checkout_within(&self, deadline: Option<&Deadline>) -> io::Result<PooledConn<'_>> {
        self.acquire_permit(deadline)?;
        match self.checkout_inner(deadline) {
            Ok(conn) => Ok(conn),
            Err(e) => {
                self.release_permit();
                Err(e)
            }
        }
    }

    fn checkout_inner(&self, deadline: Option<&Deadline>) -> io::Result<PooledConn<'_>> {
        let start = self.metrics.as_ref().map(|m| m.now_ns());
        let idle_timeout_ns = self.cfg.idle_timeout.as_nanos() as u64;
        loop {
            let candidate = self.idle.lock().pop_back();
            let Some(idle) = candidate else { break };
            if self.clock.now_ns().saturating_sub(idle.since_ns) > idle_timeout_ns {
                self.stats.expired.fetch_add(1, Ordering::Relaxed);
                self.note(Counter::PoolExpired, 1);
                continue;
            }
            if !socket_is_live(idle.conn.stream()) {
                self.note_stale();
                continue;
            }
            apply_socket_deadline(idle.conn.stream(), deadline)?;
            self.stats.reused.fetch_add(1, Ordering::Relaxed);
            self.note_checkout(Counter::PoolReused, start, true);
            return Ok(PooledConn {
                pool: self,
                conn: Some(idle.conn),
                reused: true,
            });
        }
        let budget = deadline.and_then(|d| d.remaining());
        if budget.is_some_and(|b| b.is_zero()) {
            return Err(Deadline::timed_out());
        }
        let conn = ClientConn::connect(self.addr, budget)?;
        apply_socket_deadline(conn.stream(), deadline)?;
        self.stats.created.fetch_add(1, Ordering::Relaxed);
        self.note_checkout(Counter::PoolCreated, start, false);
        Ok(PooledConn {
            pool: self,
            conn: Some(conn),
            reused: false,
        })
    }

    /// Take a `max_live` permit, queueing (not refusing) when the pool is
    /// fully checked out. A bounded deadline turns the queue wait into a
    /// timed wait that fails with `TimedOut` once the budget is spent.
    fn acquire_permit(&self, deadline: Option<&Deadline>) -> io::Result<()> {
        let Some(cap) = self.cfg.max_live else {
            return Ok(());
        };
        let cap = cap.max(1);
        let mut live = self.gate.live.lock().unwrap_or_else(|e| e.into_inner());
        let mut waited = false;
        while *live >= cap {
            if !waited {
                waited = true;
                self.stats.waited.fetch_add(1, Ordering::Relaxed);
            }
            match deadline.and_then(|d| d.remaining()) {
                Some(left) => {
                    if left.is_zero() {
                        return Err(Deadline::timed_out());
                    }
                    // The condvar can only wait in *real* time, while
                    // `left` is measured on the deadline's injected clock
                    // (a VirtualClock in tests). Wait in short real-time
                    // slices and re-derive the remaining budget from the
                    // deadline's own clock each pass: a queued checkout
                    // neither times out early while virtual time stands
                    // still, nor keeps waiting once virtual time is
                    // already past the deadline.
                    let slice = left.min(QUEUE_WAIT_SLICE);
                    let (guard, _res) = self
                        .gate
                        .returned
                        .wait_timeout(live, slice)
                        .unwrap_or_else(|e| e.into_inner());
                    live = guard;
                }
                None => {
                    live = self
                        .gate
                        .returned
                        .wait(live)
                        .unwrap_or_else(|e| e.into_inner());
                }
            }
        }
        *live += 1;
        Ok(())
    }

    fn release_permit(&self) {
        if self.cfg.max_live.is_none() {
            return;
        }
        let mut live = self.gate.live.lock().unwrap_or_else(|e| e.into_inner());
        *live = live.saturating_sub(1);
        drop(live);
        self.gate.returned.notify_one();
    }

    /// Connections currently checked out (0 when `max_live` is unset —
    /// the gate only counts under a cap).
    pub fn live_count(&self) -> usize {
        *self.gate.live.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn note_stale(&self) {
        self.stats.stale.fetch_add(1, Ordering::Relaxed);
        self.note(Counter::PoolStale, 1);
    }

    fn note(&self, c: Counter, delta: u64) {
        if let Some(m) = &self.metrics {
            m.add(c, delta);
        }
    }

    fn note_checkout(&self, c: Counter, start: Option<u64>, reused: bool) {
        if let Some(m) = &self.metrics {
            m.add(c, 1);
            m.observe_ns(
                HistId::PoolCheckout,
                m.now_ns().saturating_sub(start.unwrap_or(0)),
            );
            m.trace(TraceKind::PoolCheckout { reused });
        }
    }

    /// Drop idle connections past the idle timeout.
    pub fn reap(&self) {
        let now = self.clock.now_ns();
        let idle_timeout_ns = self.cfg.idle_timeout.as_nanos() as u64;
        let mut idle = self.idle.lock();
        let before = idle.len();
        idle.retain(|c| now.saturating_sub(c.since_ns) <= idle_timeout_ns);
        let reaped = (before - idle.len()) as u64;
        drop(idle);
        self.stats.expired.fetch_add(reaped, Ordering::Relaxed);
        self.note(Counter::PoolExpired, reaped);
    }

    /// Idle connections currently pooled.
    pub fn idle_count(&self) -> usize {
        self.idle.lock().len()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            created: self.stats.created.load(Ordering::Relaxed),
            reused: self.stats.reused.load(Ordering::Relaxed),
            stale: self.stats.stale.load(Ordering::Relaxed),
            expired: self.stats.expired.load(Ordering::Relaxed),
            retries: self.stats.retries.load(Ordering::Relaxed),
            waited: self.stats.waited.load(Ordering::Relaxed),
        }
    }

    fn checkin(&self, conn: ClientConn) {
        // Bytes read past the last reply are the buffered twin of what
        // `socket_is_live` peeks for: unsolicited data, so not reusable.
        if conn.in_step().is_err() {
            self.note_stale();
            return;
        }
        // Clear per-call socket timeouts so a later unbounded call is not
        // haunted by a previous call's deadline.
        let _ = conn.stream().set_read_timeout(None);
        let _ = conn.stream().set_write_timeout(None);
        let mut idle = self.idle.lock();
        idle.push_back(Idle {
            conn,
            since_ns: self.clock.now_ns(),
        });
        while idle.len() > self.cfg.max_idle.max(1) {
            idle.pop_front();
        }
    }
}

/// Derive `SO_RCVTIMEO`/`SO_SNDTIMEO` from the deadline's remaining
/// budget; an already-expired deadline errors instead of setting a zero
/// (i.e. infinite) timeout.
fn apply_socket_deadline(stream: &TcpStream, deadline: Option<&Deadline>) -> io::Result<()> {
    let Some(d) = deadline else {
        return Ok(());
    };
    let timeout = d.socket_timeout()?;
    stream.set_read_timeout(timeout)?;
    stream.set_write_timeout(timeout)?;
    Ok(())
}

/// Health check: a nonblocking zero-consume `peek`. `WouldBlock` means the
/// socket is open with nothing pending — healthy. `Ok(0)` is a FIN the
/// peer sent while the connection idled; `Ok(_)` is unsolicited data
/// (protocol desync). Both make the connection unusable for a fresh
/// request/response exchange.
fn socket_is_live(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return false;
    }
    let mut probe = [0u8; 1];
    let live = matches!(stream.peek(&mut probe), Err(e) if e.kind() == io::ErrorKind::WouldBlock);
    stream.set_nonblocking(false).is_ok() && live
}

/// A checked-out connection. Returned to the pool on drop; call
/// [`PooledConn::discard`] instead after an I/O error so a broken socket
/// never re-enters circulation.
pub struct PooledConn<'a> {
    pool: &'a ConnectionPool,
    conn: Option<ClientConn>,
    /// Whether this checkout was served from the pool (vs fresh connect).
    pub reused: bool,
}

impl PooledConn<'_> {
    /// The checked-out connection.
    pub fn conn(&mut self) -> &mut ClientConn {
        self.conn.as_mut().expect("connection present until drop")
    }

    /// Consume without returning the connection to the pool.
    pub fn discard(mut self) {
        self.conn = None;
    }
}

impl Drop for PooledConn<'_> {
    fn drop(&mut self) {
        if let Some(conn) = self.conn.take() {
            self.pool.checkin(conn);
        }
        // Checked-out (even discarded) connections hold a max_live permit;
        // release after checkin so a queued waiter sees the idle socket.
        self.pool.release_permit();
    }
}

/// A reply to a pooled HTTP call.
#[derive(Clone, Debug)]
pub struct HttpReply {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: Vec<u8>,
    /// Request bytes written to the wire (head + framing + payload).
    pub wire_bytes: usize,
}

/// A pooled keep-alive HTTP client: POST a gather list, read the reply,
/// return the connection to the pool. Shareable across threads (`&self`
/// API); each call checks a connection out for its exclusive use.
pub struct HttpPoolClient {
    pool: ConnectionPool,
    cfg: RequestConfig,
    resilience: Resilience,
    /// `(max_head, max_body)` caps applied to every response read — the
    /// client-side mirror of the server's `RequestReader::with_limits`
    /// hardening. Defaults to the caps `ServerOptions::default()` states.
    resp_caps: (usize, usize),
}

impl HttpPoolClient {
    /// Client for `addr` posting per `cfg`, pooling per `pool_cfg`, with
    /// the seed-compatible [`FaultPolicy::default`] (no deadline, no
    /// policy retries, breaker off).
    pub fn new(addr: SocketAddr, cfg: RequestConfig, pool_cfg: PoolConfig) -> Self {
        Self::with_fault_policy(addr, cfg, pool_cfg, FaultPolicy::default())
    }

    /// Client with an explicit fault-tolerance policy.
    pub fn with_fault_policy(
        addr: SocketAddr,
        cfg: RequestConfig,
        pool_cfg: PoolConfig,
        policy: FaultPolicy,
    ) -> Self {
        HttpPoolClient {
            pool: ConnectionPool::new(addr, pool_cfg),
            cfg,
            resilience: Resilience::new(policy),
            resp_caps: (DEFAULT_MAX_HEAD, DEFAULT_MAX_BODY),
        }
    }

    /// Cap response heads/bodies: a reply whose head exceeds `max_head`
    /// or whose body (length-framed *or* chunk-accumulated) exceeds
    /// `max_body` fails with [`crate::http::HttpError::TooLarge`] instead
    /// of buffering without bound.
    pub fn set_response_caps(&mut self, max_head: usize, max_body: usize) {
        self.resp_caps = (max_head.max(1), max_body);
    }

    /// The underlying pool (stats, reaping).
    pub fn pool(&self) -> &ConnectionPool {
        &self.pool
    }

    /// The fault-tolerance executor (breaker state, policy).
    pub fn resilience(&self) -> &Resilience {
        &self.resilience
    }

    /// Inject the clock that drives idle reaping, deadlines, backoff
    /// sleeps, and breaker cooldowns.
    pub fn set_clock(&mut self, clock: Arc<dyn Clock>) {
        self.pool.set_clock(Arc::clone(&clock));
        let policy = *self.resilience.policy();
        let metrics = self.pool.metrics.clone();
        self.resilience = Resilience::with_clock(policy, clock);
        if let Some(m) = metrics {
            self.resilience.set_metrics(m);
        }
    }

    /// Attach an observability registry (see [`ConnectionPool::set_metrics`];
    /// retry/breaker/deadline counters record here too).
    pub fn set_metrics(&mut self, metrics: Arc<Metrics>) {
        self.pool.set_metrics(Arc::clone(&metrics));
        self.resilience.set_metrics(metrics);
    }

    /// POST `body` and read the response. A reused connection that fails
    /// the exchange is discarded and the call retried once on a fresh
    /// connection — the template was not consumed, so the resend is free
    /// (the stale socket is the only thing replaced). Errors on a fresh
    /// connection propagate: the endpoint itself is down.
    pub fn call(&self, body: &[IoSlice<'_>]) -> io::Result<HttpReply> {
        let sent = self.exchange(|conn, _| conn.post(&self.cfg, body).map(|n| (n, ())))?;
        Ok(sent.0)
    }

    /// POST a body produced *incrementally*: `produce` receives a
    /// [`ChunkedBodyWriter`] and streams portions straight onto the
    /// socket — the overlay pipeline's wire hookup, where sender memory
    /// stays bounded by the window fragment rather than the message.
    ///
    /// Runs under the same fault policy as [`call`](Self::call): the
    /// writer carries the attempt's [`Deadline`], and on a retry
    /// `produce` is invoked again from the top (portions
    /// already written to a dead socket were never seen by the server, so
    /// re-streaming from scratch is the correct replay). The head is
    /// chunked `HTTP/1.1` whatever the client's configured version — a
    /// streamed body cannot promise a `Content-Length` up front.
    ///
    /// Returns the reply plus `produce`'s own result (e.g. an
    /// `OverlayReport`) from the successful attempt.
    pub fn post_streamed<T>(
        &self,
        mut produce: impl FnMut(&mut ChunkedBodyWriter<'_, TcpStream>) -> io::Result<T>,
    ) -> io::Result<(HttpReply, T)> {
        self.exchange(|conn, deadline| conn.post_streamed(&self.cfg, Some(deadline), &mut produce))
    }

    /// Issue a bodiless keep-alive `GET` for `path` over a pooled
    /// connection — how the throughput bench and integration tests scrape
    /// `GET /metrics` mid-load without opening a fresh socket.
    pub fn get(&self, path: &str) -> io::Result<HttpReply> {
        let sent = self.exchange(|conn, _| conn.get(path, &self.cfg.host).map(|n| (n, ())))?;
        Ok(sent.0)
    }

    /// One exchange under the fault policy: check a connection out, let
    /// `write` put one request on it, read the reply under the response
    /// caps. The legacy stale-socket retry survives as the *free* retry (a
    /// reused connection that dies mid-exchange is replaced once without
    /// consuming the policy budget); deadline propagation, policy retries
    /// with backoff, and the circuit breaker all live in
    /// [`Resilience::run_with`]. A checkout failure is a hard attempt
    /// failure — the endpoint itself is unreachable, so it only retries if
    /// the *policy* says so (seed default: it does not).
    fn exchange<T>(
        &self,
        mut write: impl FnMut(&mut ClientConn, &Deadline) -> io::Result<(usize, T)>,
    ) -> io::Result<(HttpReply, T)> {
        let (max_head, max_body) = self.resp_caps;
        self.resilience.run_with(
            |deadline, _attempt| {
                let mut pooled = self
                    .pool
                    .checkout_within(Some(deadline))
                    .map_err(AttemptFailure::hard)?;
                let conn = pooled.conn();
                let attempt = write(conn, deadline).and_then(|(wire_bytes, produced)| {
                    let (status, _, body) = conn.read_reply(max_head, max_body)?;
                    Ok((
                        HttpReply {
                            status,
                            body,
                            wire_bytes,
                        },
                        produced,
                    ))
                });
                attempt.map_err(|error| {
                    let free_retry = pooled.reused;
                    pooled.discard();
                    AttemptFailure { error, free_retry }
                })
            },
            || {
                self.pool.stats.retries.fetch_add(1, Ordering::Relaxed);
                if let Some(m) = &self.pool.metrics {
                    m.add(Counter::PoolRetries, 1);
                    m.trace(TraceKind::PoolReconnect);
                }
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{render_response, HttpVersion, RequestReader};
    use crate::server::{ServerMode, TestServer};
    use std::io::Write;
    use std::net::TcpListener;

    fn client_for(addr: SocketAddr, pool_cfg: PoolConfig) -> HttpPoolClient {
        HttpPoolClient::new(
            addr,
            RequestConfig::loopback(HttpVersion::Http11Length),
            pool_cfg,
        )
    }

    #[test]
    fn sequential_calls_reuse_one_connection() {
        let server = TestServer::spawn(ServerMode::Collect).unwrap();
        let client = client_for(server.addr(), PoolConfig::default());
        for i in 0..5 {
            let body = format!("<n>{i}</n>").into_bytes();
            let reply = client.call(&[IoSlice::new(&body)]).unwrap();
            assert_eq!(reply.status, 200);
            assert_eq!(reply.body, b"<ack/>");
        }
        let stats = client.pool().stats();
        assert_eq!(stats.created, 1, "one connection serves all 5 calls");
        assert_eq!(stats.reused, 4);
        drop(client);
        let reqs = server.stop_collecting();
        assert_eq!(reqs.len(), 5);
    }

    #[test]
    fn expired_idle_connections_are_replaced() {
        // Idle expiry measured on an injected VirtualClock: no real sleeps.
        let server = TestServer::spawn(ServerMode::Collect).unwrap();
        let clock = Arc::new(bsoap_obs::VirtualClock::new());
        let mut client = client_for(
            server.addr(),
            PoolConfig {
                idle_timeout: Duration::from_secs(30),
                ..PoolConfig::default()
            },
        );
        client.set_clock(Arc::clone(&clock) as Arc<dyn Clock>);
        let body = b"<x/>".to_vec();
        client.call(&[IoSlice::new(&body)]).unwrap();
        clock.advance(Duration::from_secs(31).as_nanos() as u64);
        client.call(&[IoSlice::new(&body)]).unwrap();
        let stats = client.pool().stats();
        assert_eq!(stats.created, 2);
        assert_eq!(stats.expired, 1);
        assert_eq!(stats.reused, 0);
        drop(client);
        server.stop();
    }

    #[test]
    fn reap_drops_expired_idles() {
        let server = TestServer::spawn(ServerMode::Collect).unwrap();
        let clock = Arc::new(bsoap_obs::VirtualClock::new());
        let mut client = client_for(
            server.addr(),
            PoolConfig {
                idle_timeout: Duration::from_secs(30),
                ..PoolConfig::default()
            },
        );
        client.set_clock(Arc::clone(&clock) as Arc<dyn Clock>);
        let body = b"<x/>".to_vec();
        client.call(&[IoSlice::new(&body)]).unwrap();
        assert_eq!(client.pool().idle_count(), 1);
        clock.advance(Duration::from_secs(31).as_nanos() as u64);
        client.pool().reap();
        assert_eq!(client.pool().idle_count(), 0);
        assert_eq!(client.pool().stats().expired, 1);
        drop(client);
        server.stop();
    }

    #[test]
    fn health_check_catches_peer_close() {
        // Manual one-shot server: accept, respond to one request, close.
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            for _ in 0..2 {
                let (mut s, _) = listener.accept().unwrap();
                let mut reader = RequestReader::new(s.try_clone().unwrap());
                let _ = reader.next_request().unwrap();
                let mut resp = Vec::new();
                render_response(&mut resp, 200, "OK", b"<one/>");
                s.write_all(&resp).unwrap();
                // Connection drops here: the pooled socket goes stale.
            }
        });
        let client = client_for(addr, PoolConfig::default());
        let body = b"<x/>".to_vec();
        client.call(&[IoSlice::new(&body)]).unwrap();
        // Give the FIN time to arrive so the health check (not the
        // mid-exchange retry) is what catches the stale socket.
        std::thread::sleep(Duration::from_millis(30));
        client.call(&[IoSlice::new(&body)]).unwrap();
        let stats = client.pool().stats();
        assert_eq!(stats.created, 2);
        assert_eq!(stats.stale, 1);
        server.join().unwrap();
    }

    #[test]
    fn reply_with_trailing_junk_is_not_pooled() {
        // First connection: the reply and four stray bytes leave in one
        // write. Second connection: a clean reply.
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            for (body, junk) in [(&b"<a/>"[..], &b"junk"[..]), (b"<b/>", b"")] {
                let (mut s, _) = listener.accept().unwrap();
                let mut reader = RequestReader::new(s.try_clone().unwrap());
                let _ = reader.next_request().unwrap();
                let mut resp = Vec::new();
                render_response(&mut resp, 200, "OK", body);
                resp.extend_from_slice(junk);
                s.write_all(&resp).unwrap();
                let _ = reader.next_request(); // wait for client close
            }
        });
        let metrics = Metrics::shared();
        let mut client = client_for(addr, PoolConfig::default());
        client.set_metrics(Arc::clone(&metrics));
        let body = b"<x/>".to_vec();
        let first = client.call(&[IoSlice::new(&body)]).unwrap();
        assert_eq!(first.body, b"<a/>", "the reply itself is whole");
        assert_eq!(client.pool().idle_count(), 0, "desynchronised: not idled");
        assert_eq!(client.pool().stats().stale, 1);
        assert_eq!(metrics.snapshot().get(Counter::PoolStale), 1);
        let second = client.call(&[IoSlice::new(&body)]).unwrap();
        assert_eq!(second.body, b"<b/>");
        let stats = client.pool().stats();
        assert_eq!((stats.created, stats.reused, stats.retries), (2, 0, 0));
        assert_eq!(client.pool().idle_count(), 1);
        drop(client);
        server.join().unwrap();
    }

    #[test]
    fn mid_exchange_death_retries_on_fresh_connection() {
        // Server: first connection answers one request then swallows the
        // next and closes WITHOUT responding (stale keep-alive mid-call);
        // second connection answers normally.
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let mut resp = Vec::new();
            {
                let (mut s, _) = listener.accept().unwrap();
                let mut reader = RequestReader::new(s.try_clone().unwrap());
                let _ = reader.next_request().unwrap();
                render_response(&mut resp, 200, "OK", b"<a/>");
                s.write_all(&resp).unwrap();
                // Read the second request fully, then close (stream AND
                // reader clone, so the FIN actually goes out) with no
                // response: the client sees a clean write + EOF on read.
                let _ = reader.next_request();
            }
            let (mut s, _) = listener.accept().unwrap();
            let mut reader = RequestReader::new(s.try_clone().unwrap());
            let _ = reader.next_request().unwrap();
            render_response(&mut resp, 200, "OK", b"<b/>");
            s.write_all(&resp).unwrap();
            let _ = reader.next_request(); // wait for client close
        });
        let client = client_for(addr, PoolConfig::default());
        let body = b"<x/>".to_vec();
        let first = client.call(&[IoSlice::new(&body)]).unwrap();
        assert_eq!(first.body, b"<a/>");
        let second = client.call(&[IoSlice::new(&body)]).unwrap();
        assert_eq!(second.body, b"<b/>", "transparent retry returned data");
        let stats = client.pool().stats();
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.created, 2);
        drop(client);
        server.join().unwrap();
    }

    #[test]
    fn fresh_connection_failure_propagates() {
        // Nothing listening: checkout fails, no silent retry loop.
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);
        let client = client_for(addr, PoolConfig::default());
        let body = b"<x/>".to_vec();
        assert!(client.call(&[IoSlice::new(&body)]).is_err());
        assert_eq!(client.pool().stats().retries, 0);
    }

    #[test]
    fn pool_metrics_mirror_pool_stats() {
        let metrics = Metrics::shared();
        let server = TestServer::spawn(ServerMode::Collect).unwrap();
        let mut client = client_for(server.addr(), PoolConfig::default());
        client.set_metrics(Arc::clone(&metrics));
        let body = b"<x/>".to_vec();
        for _ in 0..4 {
            client.call(&[IoSlice::new(&body)]).unwrap();
        }
        let stats = client.pool().stats();
        let snap = metrics.snapshot();
        assert_eq!(snap.get(Counter::PoolCreated), stats.created);
        assert_eq!(snap.get(Counter::PoolReused), stats.reused);
        assert_eq!(snap.get(Counter::PoolRetries), stats.retries);
        assert_eq!(
            snap.hist(HistId::PoolCheckout).count(),
            stats.created + stats.reused,
            "one checkout latency observation per checkout"
        );
        let (events, _) = metrics.trace_ring().snapshot();
        let checkouts = events
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::PoolCheckout { .. }))
            .count() as u64;
        assert_eq!(checkouts, stats.created + stats.reused);
        drop(client);
        server.stop();
    }

    #[test]
    fn pooled_get_scrapes_metrics_endpoint() {
        let metrics = Metrics::shared();
        let server = TestServer::spawn_with_metrics(
            ServerMode::Ack,
            crate::server::ServerOptions::default(),
            Arc::clone(&metrics),
        )
        .unwrap();
        let client = client_for(server.addr(), PoolConfig::default());
        let reply = client.get("/metrics").unwrap();
        assert_eq!(reply.status, 200);
        let text = String::from_utf8(reply.body).unwrap();
        assert_eq!(
            bsoap_obs::parse_value(&text, "bsoap_metrics_scrapes_total"),
            Some(1.0)
        );
        drop(client);
        server.stop();
    }

    #[test]
    fn max_idle_caps_pool_size() {
        let server = TestServer::spawn(ServerMode::Collect).unwrap();
        let client = client_for(
            server.addr(),
            PoolConfig {
                max_idle: 2,
                ..PoolConfig::default()
            },
        );
        // Four concurrent checkouts force four connections; on checkin
        // only two stay pooled.
        let body = b"<x/>".to_vec();
        let conns: Vec<_> = (0..4).map(|_| client.pool.checkout().unwrap()).collect();
        assert_eq!(client.pool().stats().created, 4);
        drop(conns);
        assert_eq!(client.pool().idle_count(), 2);
        // Still usable afterwards.
        client.call(&[IoSlice::new(&body)]).unwrap();
        drop(client);
        server.stop();
    }
}
