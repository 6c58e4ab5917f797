//! The server core: a nonblocking listener and epoll loops, each driving
//! its connections' [`Conn`] machines and running the handler inline.
//!
//! Topology: `loops` threads each own a [`Poller`], a [`TimerWheel`], and
//! a map of connections. Loop 0 additionally owns the listener and
//! round-robins accepted sockets across loops (cross-loop handoff via an
//! injection queue plus an eventfd wake). A complete request runs the
//! handler on the loop thread that read it, and the response is written
//! straight after: no hand-off, no wake, and the readiness-interest
//! changes of one step collapse into one `epoll_ctl`, so a keep-alive
//! request makes none. The price is that a slow handler delays the other
//! connections on its loop (DESIGN §3.13). A handler that panics costs
//! its connection a 500 and a close, never the loop.
//!
//! A readable event reads on while its connection is mid-request and the
//! last read returned bytes, up to `READS_PER_EVENT` (16) reads, so a
//! request larger than one read does not wait for another `epoll_wait`.
//!
//! All protocol logic lives in [`Conn`] (sans-io); this module only moves
//! bytes, timers and handler calls. Timer deadlines read the metrics
//! clock, so a `VirtualClock` drives eviction in tests (a server without a
//! registry reads a [`MonotonicClock`]); `epoll_wait` is capped at 50 ms
//! real time so virtual-clock advances are observed promptly.
//!
//! Graceful drain (`stop`): stop accepting, close idle connections,
//! finish in-flight requests, then force-close whatever remains at the
//! drain deadline.
//!
//! Linux only: elsewhere the poller fails with `Unsupported`, and so does
//! starting a server.

use crate::conn::{Conn, ConnAction, ConnConfig, ConnState, ReqBody};
use crate::http::RequestHead;
use crate::poller::{Interest, PollEvent, Poller, WakeFd, MAX_EVENTS_PER_WAIT};
use crate::server::{ServeMode, ServerOptions};
use crate::timer::{TimerKind, TimerWheel};
use bsoap_obs::{
    Clock, Counter, Gauge, Metrics, MonotonicClock, NullRecorder, Recorder, TraceKind,
};
use std::collections::HashMap;
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Token of the listener on loop 0.
const TOKEN_LISTEN: u64 = 0;
/// Token of each loop's wake fd.
const TOKEN_WAKE: u64 = 1;
/// First connection token.
const TOKEN_CONN_BASE: u64 = 2;
/// Most reads one readable event makes on a connection that is
/// mid-request: a large body is read through without a trip back to
/// `epoll_wait`, and a flooding peer still yields to the loop's others.
const READS_PER_EVENT: usize = 16;

fn relock<'a, T>(
    r: Result<MutexGuard<'a, T>, std::sync::PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    r.unwrap_or_else(|p| p.into_inner())
}

/// Cross-thread mailbox of one loop.
struct LoopShared {
    /// Sockets accepted by loop 0, destined for this loop.
    injected: Mutex<Vec<(u64, TcpStream)>>,
    wake: WakeFd,
}

struct Shared {
    stop: AtomicBool,
    abandon: AtomicBool,
    drain_traced: AtomicBool,
    listener_parked: AtomicBool,
    conn_count: AtomicU64,
    accepted: AtomicU64,
    next_token: AtomicU64,
    next_loop: AtomicUsize,
    max_connections: usize,
    rec: Arc<dyn Recorder>,
    /// What timer deadlines are read on: the registry's clock, if any.
    clock: Arc<dyn Clock>,
    loops: Vec<LoopShared>,
    live_loops: Mutex<usize>,
    drained: Condvar,
}

impl Shared {
    fn wake_all(&self) {
        for l in &self.loops {
            l.wake.wake();
        }
    }
}

/// A running server. Dropping it stops the server (with the configured
/// drain deadline).
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    loop_threads: Vec<JoinHandle<()>>,
    drain_deadline: Duration,
    stopped: bool,
}

impl Server {
    /// Start `opts.event_loop_threads` loops; every connection runs a
    /// [`Conn`] configured by `conn`. Fails with `Unsupported` where epoll
    /// is unavailable.
    pub(crate) fn start(
        listener: TcpListener,
        opts: &ServerOptions,
        conn: ConnConfig,
        metrics: Option<Arc<Metrics>>,
        mode: ServeMode,
    ) -> io::Result<Server> {
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let nloops = opts.event_loop_threads.max(1);
        let (rec, clock): (Arc<dyn Recorder>, Arc<dyn Clock>) = match metrics {
            Some(m) => (m.clone(), m.clock().clone()),
            None => (Arc::new(NullRecorder), Arc::new(MonotonicClock::new())),
        };

        let mut loops = Vec::with_capacity(nloops);
        let mut pollers = Vec::with_capacity(nloops);
        for _ in 0..nloops {
            loops.push(LoopShared {
                injected: Mutex::new(Vec::new()),
                wake: WakeFd::new()?,
            });
            pollers.push(Poller::new()?);
        }

        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            abandon: AtomicBool::new(false),
            drain_traced: AtomicBool::new(false),
            listener_parked: AtomicBool::new(false),
            conn_count: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            next_token: AtomicU64::new(TOKEN_CONN_BASE),
            next_loop: AtomicUsize::new(0),
            max_connections: opts.max_connections.max(1),
            rec,
            clock,
            loops,
            live_loops: Mutex::new(nloops),
            drained: Condvar::new(),
        });

        let mut loop_threads = Vec::with_capacity(nloops);
        let mut listener_slot = Some(listener);
        for (idx, poller) in pollers.into_iter().enumerate() {
            let shared = shared.clone();
            let listener = if idx == 0 { listener_slot.take() } else { None };
            // Built here, not on its thread: a loop that never gets a
            // connection then never allocates, so it claims no malloc
            // arena of its own (an idle second loop that did cost
            // `echo_small` ~0.2 MiB of peak RSS).
            let mut lt = LoopThread::new(
                idx,
                shared.clone(),
                poller,
                listener,
                mode.clone(),
                conn.clone(),
            );
            loop_threads.push(
                thread::Builder::new()
                    .name(format!("bsoap-el-{idx}"))
                    .spawn(move || {
                        lt.run();
                        let mut live = relock(shared.live_loops.lock());
                        *live -= 1;
                        shared.drained.notify_all();
                    })?,
            );
        }

        Ok(Server {
            addr,
            shared,
            loop_threads,
            drain_deadline: opts.drain_deadline,
            stopped: false,
        })
    }

    /// The address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections accepted so far.
    pub fn connections(&self) -> u64 {
        self.shared.accepted.load(Ordering::Relaxed)
    }

    /// Connections currently open.
    pub fn open_connections(&self) -> u64 {
        self.shared.conn_count.load(Ordering::Relaxed)
    }

    /// Stop accepting, drain in-flight requests (bounded by the drain
    /// deadline), close idle connections, force the rest at the deadline,
    /// join every thread. Idempotent.
    pub fn stop(&mut self) {
        if self.stopped {
            return;
        }
        self.stopped = true;
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.wake_all();

        let deadline = Instant::now() + self.drain_deadline;
        {
            let mut live = relock(self.shared.live_loops.lock());
            while *live > 0 {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let (guard, _) = self
                    .shared
                    .drained
                    .wait_timeout(live, deadline - now)
                    .unwrap_or_else(|p| p.into_inner());
                live = guard;
            }
            if *live > 0 {
                self.shared.abandon.store(true, Ordering::SeqCst);
                self.shared.wake_all();
            }
        }
        for t in self.loop_threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One registered connection.
enum Entry {
    Http {
        conn: Box<Conn>,
        sock: TcpStream,
        interest: Interest,
    },
    Discard {
        sock: TcpStream,
    },
}

struct LoopThread {
    idx: usize,
    shared: Arc<Shared>,
    poller: Poller,
    listener: Option<TcpListener>,
    listener_registered: bool,
    mode: ServeMode,
    conn_cfg: ConnConfig,
    conns: HashMap<u64, Entry>,
    wheel: TimerWheel,
    stop_seen: bool,
    /// Reused action list: filled by `Conn` calls, drained by `apply`.
    actions: Vec<ConnAction>,
    /// `apply`'s second list, the batch it is carrying out while the
    /// handler it runs fills `actions` anew.
    batch: Vec<ConnAction>,
    /// What one `epoll_wait` reported; allocated by `new`, so on the
    /// spawning thread.
    events: Vec<PollEvent>,
    /// Where Discard connections' bytes are read to, and dropped.
    discard_buf: Vec<u8>,
}

impl LoopThread {
    fn new(
        idx: usize,
        shared: Arc<Shared>,
        poller: Poller,
        listener: Option<TcpListener>,
        mode: ServeMode,
        conn_cfg: ConnConfig,
    ) -> LoopThread {
        LoopThread {
            idx,
            shared,
            poller,
            listener,
            listener_registered: false,
            mode,
            conn_cfg,
            conns: HashMap::new(),
            wheel: TimerWheel::new(),
            stop_seen: false,
            actions: Vec::new(),
            batch: Vec::new(),
            events: Vec::with_capacity(MAX_EVENTS_PER_WAIT),
            discard_buf: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.shared.clock.now_ns()
    }

    fn run(&mut self) {
        if self
            .poller
            .add(
                &self.shared.loops[self.idx].wake,
                TOKEN_WAKE,
                Interest::READ,
            )
            .is_err()
        {
            return;
        }
        if let Some(listener) = &self.listener {
            if self
                .poller
                .add(listener, TOKEN_LISTEN, Interest::READ)
                .is_err()
            {
                return;
            }
            self.listener_registered = true;
        }

        let mut events = std::mem::take(&mut self.events);
        let mut expired: Vec<(u64, TimerKind)> = Vec::new();
        loop {
            // Re-admit accepts if the cap freed up.
            if self.listener.is_some()
                && !self.listener_registered
                && !self.shared.stop.load(Ordering::SeqCst)
                && self.shared.conn_count.load(Ordering::Relaxed)
                    < self.shared.max_connections as u64
            {
                self.unpark_listener();
            }

            let timeout = self.wait_timeout();
            if self.poller.wait(&mut events, Some(timeout)).is_err() {
                break;
            }

            for &ev in events.iter() {
                match ev.token {
                    TOKEN_WAKE => self.shared.loops[self.idx].wake.drain(),
                    TOKEN_LISTEN => self.accept_ready(),
                    token => self.conn_ready(token, ev),
                }
            }

            self.take_injected();
            self.fire_timers(&mut expired);

            if self.shared.stop.load(Ordering::SeqCst) && !self.stop_seen {
                self.enter_drain();
            }
            if self.shared.abandon.load(Ordering::SeqCst) {
                let tokens: Vec<u64> = self.conns.keys().copied().collect();
                for t in tokens {
                    self.teardown(t);
                }
            }
            if self.stop_seen && self.conns.is_empty() {
                let injected_empty = relock(self.shared.loops[self.idx].injected.lock()).is_empty();
                if injected_empty {
                    break;
                }
            }
        }
    }

    /// Cap the epoll sleep at 50 ms so virtual-clock advances and stop
    /// flags are observed promptly, and clamp to the next timer deadline.
    fn wait_timeout(&self) -> Duration {
        let mut t = Duration::from_millis(50);
        if let Some(d) = self.wheel.next_deadline_ns() {
            let now = self.now_ns();
            t = t.min(Duration::from_nanos(d.saturating_sub(now)));
        }
        t
    }

    fn unpark_listener(&mut self) {
        let ok = match &self.listener {
            Some(l) => self.poller.add(l, TOKEN_LISTEN, Interest::READ).is_ok(),
            None => false,
        };
        if ok {
            self.listener_registered = true;
            self.shared.listener_parked.store(false, Ordering::SeqCst);
            self.accept_ready();
        }
    }

    fn park_listener(&mut self) {
        if let Some(listener) = &self.listener {
            if self.listener_registered {
                self.poller.delete(listener);
                self.listener_registered = false;
                self.shared.listener_parked.store(true, Ordering::SeqCst);
            }
        }
    }

    fn accept_ready(&mut self) {
        loop {
            if self.shared.conn_count.load(Ordering::Relaxed) >= self.shared.max_connections as u64
            {
                // At capacity: stop pulling from the backlog (level
                // triggering would spin otherwise). Closes unpark us.
                self.park_listener();
                return;
            }
            let res = match &self.listener {
                Some(l) => l.accept(),
                None => return,
            };
            match res {
                Ok((sock, _)) => {
                    if sock.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = sock.set_nodelay(true);
                    let token = self.shared.next_token.fetch_add(1, Ordering::Relaxed);
                    self.shared.accepted.fetch_add(1, Ordering::Relaxed);
                    let open = self.shared.conn_count.fetch_add(1, Ordering::SeqCst) + 1;
                    let rec = &*self.shared.rec;
                    rec.add(Counter::ServerConnections, 1);
                    rec.gauge(Gauge::ConnectionsOpenPeak, open);
                    rec.trace(TraceKind::Accept { conn_id: token });
                    let nloops = self.shared.loops.len();
                    let target = self.shared.next_loop.fetch_add(1, Ordering::Relaxed) % nloops;
                    if target == self.idx {
                        self.install(token, sock);
                    } else {
                        relock(self.shared.loops[target].injected.lock()).push((token, sock));
                        self.shared.loops[target].wake.wake();
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn take_injected(&mut self) {
        let staged: Vec<(u64, TcpStream)> = {
            let mut inj = relock(self.shared.loops[self.idx].injected.lock());
            std::mem::take(&mut *inj)
        };
        for (token, sock) in staged {
            self.install(token, sock);
        }
    }

    fn install(&mut self, token: u64, sock: TcpStream) {
        if self.poller.add(&sock, token, Interest::READ).is_err() {
            self.shared.conn_count.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        if matches!(self.mode, ServeMode::Http { .. }) {
            let mut conn = Box::new(Conn::new(token, self.conn_cfg.clone()));
            conn.on_accept(&mut self.actions);
            self.conns.insert(
                token,
                Entry::Http {
                    conn,
                    sock,
                    interest: Interest::READ,
                },
            );
            self.apply(token);
            if self.stop_seen {
                self.drain_conn(token);
            }
        } else {
            // Discard connections drain by waiting for client EOF; the
            // abandon deadline bounds them.
            self.conns.insert(token, Entry::Discard { sock });
        }
    }

    fn conn_ready(&mut self, token: u64, ev: PollEvent) {
        match self.conns.get_mut(&token) {
            None => {}
            Some(Entry::Discard { sock }) => {
                // On the heap: a stack array here would sit (probed, so
                // resident) under every handler this loop runs too.
                let scratch = &mut self.discard_buf;
                scratch.resize(16 * 1024, 0);
                let mut close = false;
                let mut counted: u64 = 0;
                loop {
                    match sock.read(scratch) {
                        Ok(0) => {
                            close = true;
                            break;
                        }
                        Ok(n) => counted += n as u64,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(_) => {
                            close = true;
                            break;
                        }
                    }
                }
                if counted > 0 {
                    if let ServeMode::Discard { on_bytes } = &self.mode {
                        on_bytes(counted);
                    }
                }
                if close || ev.hangup {
                    self.teardown(token);
                }
            }
            Some(Entry::Http { conn, sock, .. }) => {
                let rec = &*self.shared.rec;
                if ev.readable || ev.hangup {
                    // Read on while a request is part-read and bytes keep
                    // coming; level-triggered epoll reports whatever is
                    // left after the cap.
                    for _ in 0..READS_PER_EVENT {
                        let starved = conn.on_readable(sock, rec, &mut self.actions);
                        let mid_request = matches!(
                            conn.state(),
                            ConnState::ReadingHead
                                | ConnState::ReadingBody
                                | ConnState::ReadingChunked
                        );
                        if starved || !mid_request {
                            break;
                        }
                    }
                }
                if (ev.writable || ev.hangup) && !conn.is_closing() {
                    conn.on_writable(sock, rec, &mut self.actions);
                }
                let closing = conn.is_closing();
                self.apply(token);
                if ev.hangup && !closing && self.conns.contains_key(&token) {
                    // Error'd socket that produced no state change: drop it.
                    self.teardown(token);
                }
            }
        }
    }

    fn fire_timers(&mut self, expired: &mut Vec<(u64, TimerKind)>) {
        self.wheel.pop_expired(self.now_ns(), expired);
        for &(token, kind) in expired.iter() {
            let Some(Entry::Http { conn, .. }) = self.conns.get_mut(&token) else {
                continue;
            };
            conn.on_timer(kind, &*self.shared.rec, &mut self.actions);
            self.apply(token);
        }
    }

    /// Carry out (and clear) the actions the last `Conn` calls left in
    /// `self.actions`, and those each dispatch adds. Interest changes
    /// collapse: only the last one counts, and it costs an `epoll_ctl` only
    /// if it differs from the registered interest.
    fn apply(&mut self, token: u64) {
        let mut batch = std::mem::take(&mut self.batch);
        let mut want = None;
        while !self.actions.is_empty() {
            std::mem::swap(&mut batch, &mut self.actions);
            for action in batch.drain(..) {
                match action {
                    ConnAction::Arm(kind, after) => {
                        let at = self.now_ns().saturating_add(after.as_nanos() as u64);
                        self.wheel.arm(token, kind, at);
                    }
                    ConnAction::Cancel(kind) => self.wheel.cancel(token, kind),
                    ConnAction::Interest { read, write } => want = Some(Interest { read, write }),
                    ConnAction::Dispatch(head, body) => self.dispatch(token, head, body),
                    ConnAction::Close(_) => {
                        self.teardown(token);
                        self.actions.clear();
                        break;
                    }
                }
            }
        }
        self.batch = batch;
        if let (Some(want), Some(Entry::Http { sock, interest, .. })) =
            (want, self.conns.get_mut(&token))
        {
            if *interest != want && self.poller.modify(sock, token, want).is_ok() {
                *interest = want;
            }
        }
    }

    /// Run the handler on the request `token` just completed, on this
    /// thread, and start writing the answer.
    fn dispatch(&mut self, token: u64, head: RequestHead, body: ReqBody) {
        let (ServeMode::Http { handler }, Some(Entry::Http { conn, sock, .. })) =
            (&self.mode, self.conns.get_mut(&token))
        else {
            return;
        };
        let rec = &*self.shared.rec;
        match catch_unwind(AssertUnwindSafe(|| handler(&head, body))) {
            Ok(resp) => conn.on_dispatch_done(resp, rec),
            Err(_) => conn.on_dispatch_panicked(rec),
        }
        // Optimistic write: usually completes without an EPOLLOUT round
        // trip.
        conn.on_writable(sock, rec, &mut self.actions);
    }

    fn teardown(&mut self, token: u64) {
        let Some(entry) = self.conns.remove(&token) else {
            return;
        };
        match &entry {
            Entry::Http { sock, .. } | Entry::Discard { sock } => self.poller.delete(sock),
        }
        self.wheel.cancel_all(token);
        let open = self.shared.conn_count.fetch_sub(1, Ordering::SeqCst) - 1;
        if self.shared.listener_parked.load(Ordering::SeqCst)
            && open < self.shared.max_connections as u64
        {
            // Loop 0 re-admits from the backlog.
            self.shared.loops[0].wake.wake();
        }
    }

    fn enter_drain(&mut self) {
        self.stop_seen = true;
        if self
            .shared
            .drain_traced
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            self.shared.rec.trace(TraceKind::Drain {
                in_flight: self.shared.conn_count.load(Ordering::Relaxed),
            });
        }
        if let Some(listener) = self.listener.take() {
            if self.listener_registered {
                self.poller.delete(&listener);
                self.listener_registered = false;
            }
        }
        // Close idle connections; let in-flight ones finish. Discard-mode
        // connections drain on client EOF (bounded by abandon).
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.drain_conn(token);
        }
    }

    /// Start draining one HTTP connection. Read first: bytes the peer
    /// already sent are a request in flight, not an idle connection to
    /// hang up on.
    fn drain_conn(&mut self, token: u64) {
        if let Some(Entry::Http { conn, sock, .. }) = self.conns.get_mut(&token) {
            let rec = &*self.shared.rec;
            conn.on_readable(sock, rec, &mut self.actions);
            conn.set_draining(rec, &mut self.actions);
            self.apply(token);
        }
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;
    use crate::conn::Response;
    use crate::http::{
        read_response_limited, render_response, RequestConfig, DEFAULT_MAX_BODY, DEFAULT_MAX_HEAD,
    };
    use std::io::Write;

    fn handler_ack() -> crate::conn::Handler {
        Arc::new(|_head, body| Response::xml(200, "OK", format!("len={}", body.len()).into_bytes()))
    }

    fn opts() -> ServerOptions {
        ServerOptions {
            event_loop_threads: 2,
            ..ServerOptions::default()
        }
    }

    fn serve(opts: &ServerOptions, mode: ServeMode) -> Server {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        Server::start(listener, opts, ConnConfig::default(), None, mode).unwrap()
    }

    fn post(addr: SocketAddr, body: &[u8]) -> (u16, Vec<u8>) {
        post_on(&mut TcpStream::connect(addr).unwrap(), body)
    }

    /// One request on `s`; an answer that never comes fails the test after
    /// five seconds instead of hanging it.
    fn post_on(s: &mut TcpStream, body: &[u8]) -> (u16, Vec<u8>) {
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let cfg = RequestConfig::loopback(crate::http::HttpVersion::Http11Length);
        let mut head = Vec::new();
        cfg.render_head(&mut head, Some(body.len()));
        s.write_all(&head).unwrap();
        s.write_all(body).unwrap();
        reply(s)
    }

    fn reply(stream: &mut TcpStream) -> (u16, Vec<u8>) {
        read_response_limited(stream, DEFAULT_MAX_HEAD, DEFAULT_MAX_BODY).unwrap()
    }

    #[test]
    fn serves_concurrent_keep_alive_clients() {
        let mut server = serve(
            &opts(),
            ServeMode::Http {
                handler: handler_ack(),
            },
        );
        let addr = server.addr();
        let mut handles = Vec::new();
        for _ in 0..8 {
            handles.push(thread::spawn(move || {
                let mut s = TcpStream::connect(addr).unwrap();
                let cfg = RequestConfig::loopback(crate::http::HttpVersion::Http11Length);
                for i in 0..5usize {
                    let body = vec![b'x'; 10 + i];
                    let mut head = Vec::new();
                    cfg.render_head(&mut head, Some(body.len()));
                    s.write_all(&head).unwrap();
                    s.write_all(&body).unwrap();
                    let (status, resp) = reply(&mut s);
                    assert_eq!(status, 200);
                    assert_eq!(resp, format!("len={}", body.len()).into_bytes());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(server.connections(), 8);
        server.stop();
    }

    #[test]
    fn responses_match_plain_rendering() {
        let mut server = serve(
            &opts(),
            ServeMode::Http {
                handler: handler_ack(),
            },
        );
        let (status, body) = post(server.addr(), b"hello");
        assert_eq!((status, body.as_slice()), (200, b"len=5".as_slice()));
        let mut expect = Vec::new();
        render_response(&mut expect, 200, "OK", b"len=5");
        server.stop();
    }

    #[test]
    fn stop_without_traffic_is_clean() {
        let mut server = serve(
            &opts(),
            ServeMode::Http {
                handler: handler_ack(),
            },
        );
        server.stop();
        server.stop(); // idempotent
    }

    #[test]
    fn discard_mode_counts_bytes() {
        let counted = Arc::new(AtomicU64::new(0));
        let c = counted.clone();
        let mut server = serve(
            &opts(),
            ServeMode::Discard {
                on_bytes: Arc::new(move |n| {
                    c.fetch_add(n, Ordering::Relaxed);
                }),
            },
        );
        {
            let mut s = TcpStream::connect(server.addr()).unwrap();
            s.write_all(&vec![7u8; 10_000]).unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while counted.load(Ordering::Relaxed) < 10_000 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(counted.load(Ordering::Relaxed), 10_000);
        server.stop();
    }

    #[test]
    fn max_connections_queues_not_refuses() {
        let mut o = opts();
        o.max_connections = 2;
        let mut server = serve(
            &o,
            ServeMode::Http {
                handler: handler_ack(),
            },
        );
        let addr = server.addr();
        // Two admitted + two waiting in the backlog.
        let mut held: Vec<TcpStream> = (0..2).map(|_| TcpStream::connect(addr).unwrap()).collect();
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.open_connections() < 2 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(2));
        }
        let t = thread::spawn(move || post(addr, b"queued"));
        thread::sleep(Duration::from_millis(50));
        // Freeing one admitted connection lets the queued one through.
        held.pop();
        let (status, body) = t.join().unwrap();
        assert_eq!((status, body.as_slice()), (200, b"len=6".as_slice()));
        drop(held);
        server.stop();
    }

    /// A handler that panics costs its own connection a 500 and a close;
    /// the loop it ran on goes on serving its other connections.
    #[test]
    fn a_panicking_handler_costs_its_connection_not_the_loop() {
        let mut server = serve(
            &ServerOptions {
                event_loop_threads: 1,
                ..ServerOptions::default()
            },
            ServeMode::Http {
                handler: Arc::new(|_head, body| {
                    assert!(body != ReqBody::Full(b"boom".to_vec()), "deliberate panic");
                    Response::xml(200, "OK", b"fine".to_vec())
                }),
            },
        );
        let mut other = TcpStream::connect(server.addr()).unwrap();
        let mut doomed = TcpStream::connect(server.addr()).unwrap();
        let (status, body) = post_on(&mut doomed, b"boom");
        assert_eq!(
            (status, body.as_slice()),
            (500, b"handler panicked".as_slice())
        );
        let mut probe = [0u8; 1];
        assert_eq!(doomed.read(&mut probe).unwrap(), 0, "closed after the 500");
        for _ in 0..2 {
            let (status, body) = post_on(&mut other, b"calm");
            assert_eq!((status, body.as_slice()), (200, b"fine".as_slice()));
        }
        server.stop();
    }

    /// The inline trade: a handler blocks only its own loop. Accepts go
    /// round-robin, so the second connection lives on the other loop and is
    /// answered while the first connection's handler waits.
    #[test]
    fn a_slow_handler_delays_only_its_own_loop() {
        use std::sync::{mpsc, Barrier};
        let release = Arc::new(Barrier::new(2));
        let (entered, in_handler) = mpsc::sync_channel(1);
        let gate = Arc::clone(&release);
        let mut server = serve(
            &ServerOptions {
                event_loop_threads: 2,
                ..ServerOptions::default()
            },
            ServeMode::Http {
                handler: Arc::new(move |_head, body| {
                    if body == ReqBody::Full(b"wait".to_vec()) {
                        entered.send(()).unwrap();
                        gate.wait();
                    }
                    Response::xml(200, "OK", b"done".to_vec())
                }),
            },
        );
        let mut first = TcpStream::connect(server.addr()).unwrap();
        let mut second = TcpStream::connect(server.addr()).unwrap();
        let blocked = thread::spawn(move || post_on(&mut first, b"wait"));
        in_handler.recv_timeout(Duration::from_secs(5)).unwrap();
        let (status, _) = post_on(&mut second, b"go");
        assert_eq!(status, 200, "the other loop answers meanwhile");
        release.wait();
        assert_eq!(blocked.join().unwrap().0, 200);
        server.stop();
    }
}
