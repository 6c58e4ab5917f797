//! Readiness-driven server core: nonblocking listener + epoll loops
//! driving per-connection [`Conn`] machines + a small dispatch pool.
//!
//! Topology: `loops` threads each own a [`Poller`], a [`TimerWheel`], and
//! a map of connections. Loop 0 additionally owns the listener and
//! round-robins accepted sockets across loops (cross-loop handoff via an
//! injection queue plus an eventfd wake). Complete requests are pushed
//! onto one shared bounded-pending dispatch queue feeding `dispatchers`
//! CPU workers that run the handler — overload therefore stays
//! queued-not-refused exactly like the worker-pool core, but idle
//! keep-alive connections cost a map entry instead of a pinned thread.
//!
//! All protocol logic lives in [`Conn`] (sans-io); this module is one of
//! its two drivers and only moves bytes, timers, and queue entries. Timer deadlines read the metrics
//! clock, so a `VirtualClock` drives eviction in tests; `epoll_wait` is
//! capped at 50 ms real time so virtual-clock advances are observed
//! promptly.
//!
//! Graceful drain (`stop`): stop accepting, close idle connections,
//! finish in-flight requests, then force-close whatever remains at the
//! drain deadline — the worker-pool contract on readiness.

use crate::conn::{Conn, ConnAction, ConnConfig, ReqBody, Response};
use crate::http::RequestHead;
use crate::poller::{Interest, PollEvent, Poller, WakeFd};
use crate::server::{ServeMode, ServerOptions};
use crate::timer::{TimerKind, TimerWheel};
use bsoap_obs::{Counter, Gauge, Metrics, Recorder, TraceKind};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
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

fn relock<'a, T>(
    r: Result<MutexGuard<'a, T>, std::sync::PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    r.unwrap_or_else(|p| p.into_inner())
}

/// One pending request for the dispatch pool.
struct Job {
    loop_idx: usize,
    token: u64,
    head: RequestHead,
    body: ReqBody,
}

#[derive(Default)]
struct DqState {
    jobs: VecDeque<Job>,
    closed: bool,
    peak: usize,
}

/// Bounded-pending dispatch queue (bounded by `max_connections`: each
/// connection holds at most one in-flight request).
#[derive(Default)]
struct DispatchQueue {
    state: Mutex<DqState>,
    ready: Condvar,
}

impl DispatchQueue {
    /// Returns the depth including the new job.
    fn push(&self, job: Job) -> usize {
        let mut st = relock(self.state.lock());
        st.jobs.push_back(job);
        let depth = st.jobs.len();
        st.peak = st.peak.max(depth);
        self.ready.notify_one();
        depth
    }

    fn pop(&self) -> Option<Job> {
        let mut st = relock(self.state.lock());
        loop {
            if let Some(job) = st.jobs.pop_front() {
                return Some(job);
            }
            if st.closed {
                return None;
            }
            st = relock(self.ready.wait(st));
        }
    }

    fn close(&self) {
        relock(self.state.lock()).closed = true;
        self.ready.notify_all();
    }

    fn peak(&self) -> usize {
        relock(self.state.lock()).peak
    }
}

/// Cross-thread mailbox of one loop.
struct LoopShared {
    /// Sockets accepted by loop 0, destined for this loop.
    injected: Mutex<Vec<(u64, TcpStream)>>,
    /// Finished responses routed back from the dispatch pool.
    completions: Mutex<Vec<(u64, Response)>>,
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
    dispatch: DispatchQueue,
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

/// Handle to a running event-loop server.
pub struct EventLoopServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    loop_threads: Vec<JoinHandle<()>>,
    dispatch_threads: Vec<JoinHandle<()>>,
    drain_deadline: Duration,
    stopped: bool,
}

impl EventLoopServer {
    /// Start `opts.event_loop_threads` loops and (for [`ServeMode::Http`])
    /// `opts.workers` dispatch workers; every connection runs a [`Conn`]
    /// configured by `conn`. Fails with `Unsupported` where epoll is
    /// unavailable.
    pub fn serve(
        listener: TcpListener,
        opts: &ServerOptions,
        conn: ConnConfig,
        metrics: Option<Arc<Metrics>>,
        mode: ServeMode,
    ) -> io::Result<EventLoopServer> {
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let nloops = opts.event_loop_threads.max(1);
        // The timer wheel runs on the recorder's clock, so even a server
        // without a registry needs one that tells time: a switched-off
        // `Metrics` records nothing but still reads the monotonic clock.
        let rec: Arc<dyn Recorder> = metrics.unwrap_or_else(|| {
            let off = Metrics::new();
            off.set_enabled(false);
            Arc::new(off)
        });

        let mut loops = Vec::with_capacity(nloops);
        let mut pollers = Vec::with_capacity(nloops);
        for _ in 0..nloops {
            loops.push(LoopShared {
                injected: Mutex::new(Vec::new()),
                completions: Mutex::new(Vec::new()),
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
            dispatch: DispatchQueue::default(),
            loops,
            live_loops: Mutex::new(nloops),
            drained: Condvar::new(),
        });

        let mut loop_threads = Vec::with_capacity(nloops);
        let mut listener_slot = Some(listener);
        for (idx, poller) in pollers.into_iter().enumerate() {
            let shared = shared.clone();
            let mode = mode.clone();
            let conn_cfg = conn.clone();
            let listener = if idx == 0 { listener_slot.take() } else { None };
            loop_threads.push(
                thread::Builder::new()
                    .name(format!("bsoap-el-{idx}"))
                    .spawn(move || {
                        LoopThread::new(idx, shared.clone(), poller, listener, mode, conn_cfg)
                            .run();
                        let mut live = relock(shared.live_loops.lock());
                        *live -= 1;
                        shared.drained.notify_all();
                    })?,
            );
        }

        let mut dispatch_threads = Vec::new();
        if let ServeMode::Http { handler } = &mode {
            for i in 0..opts.workers.max(1) {
                let shared = shared.clone();
                let handler = handler.clone();
                dispatch_threads.push(
                    thread::Builder::new()
                        .name(format!("bsoap-eld-{i}"))
                        .spawn(move || {
                            while let Some(job) = shared.dispatch.pop() {
                                let resp = handler(&job.head, job.body);
                                relock(shared.loops[job.loop_idx].completions.lock())
                                    .push((job.token, resp));
                                shared.loops[job.loop_idx].wake.wake();
                            }
                        })?,
                );
            }
        }

        Ok(EventLoopServer {
            addr,
            shared,
            loop_threads,
            dispatch_threads,
            drain_deadline: opts.drain_deadline,
            stopped: false,
        })
    }

    /// Bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Total connections accepted.
    pub fn connections(&self) -> u64 {
        self.shared.accepted.load(Ordering::Relaxed)
    }

    /// Connections currently open.
    pub fn open_connections(&self) -> u64 {
        self.shared.conn_count.load(Ordering::Relaxed)
    }

    /// Deepest the pending-dispatch queue ever got.
    pub fn peak_queue_depth(&self) -> usize {
        self.shared.dispatch.peak()
    }

    /// Graceful drain: finish in-flight requests, close idle, force the
    /// rest at the drain deadline.
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
        self.shared.dispatch.close();
        for t in self.dispatch_threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for EventLoopServer {
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
    /// Reused action list: filled by one `Conn` call, drained by `apply`.
    actions: Vec<ConnAction>,
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
        }
    }

    fn rec(&self) -> &dyn Recorder {
        &*self.shared.rec
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

        let mut events: Vec<PollEvent> = Vec::new();
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
            self.take_completions();
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
            let now = self.rec().now_ns();
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
                let mut scratch = [0u8; 16 * 1024];
                let mut close = false;
                let mut counted: u64 = 0;
                loop {
                    match sock.read(&mut scratch) {
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
                    // One read per readiness event: level-triggered epoll
                    // reports the socket again while bytes remain.
                    conn.on_readable(sock, rec, &mut self.actions);
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

    fn take_completions(&mut self) {
        let staged: Vec<(u64, Response)> = {
            let mut c = relock(self.shared.loops[self.idx].completions.lock());
            std::mem::take(&mut *c)
        };
        for (token, resp) in staged {
            let Some(Entry::Http { conn, sock, .. }) = self.conns.get_mut(&token) else {
                continue;
            };
            let rec = &*self.shared.rec;
            conn.on_dispatch_done(resp, rec);
            // Optimistic write: usually completes without an EPOLLOUT
            // round trip.
            conn.on_writable(sock, rec, &mut self.actions);
            self.apply(token);
        }
    }

    fn fire_timers(&mut self, expired: &mut Vec<(u64, TimerKind)>) {
        let now = self.rec().now_ns();
        self.wheel.pop_expired(now, expired);
        for &(token, kind) in expired.iter() {
            let Some(Entry::Http { conn, .. }) = self.conns.get_mut(&token) else {
                continue;
            };
            conn.on_timer(kind, &*self.shared.rec, &mut self.actions);
            self.apply(token);
        }
    }

    /// Carry out (and clear) the actions the last `Conn` call left in
    /// `self.actions`.
    fn apply(&mut self, token: u64) {
        let mut actions = std::mem::take(&mut self.actions);
        for action in actions.drain(..) {
            match action {
                ConnAction::Arm(kind, after) => {
                    let now_ns = self.rec().now_ns();
                    self.wheel
                        .arm(token, kind, now_ns.saturating_add(after.as_nanos() as u64));
                }
                ConnAction::Cancel(kind) => self.wheel.cancel(token, kind),
                ConnAction::Interest { read, write } => {
                    if let Some(Entry::Http { sock, interest, .. }) = self.conns.get_mut(&token) {
                        let want = Interest { read, write };
                        if *interest != want && self.poller.modify(sock, token, want).is_ok() {
                            *interest = want;
                        }
                    }
                }
                ConnAction::Dispatch(head, body) => {
                    let depth = self.shared.dispatch.push(Job {
                        loop_idx: self.idx,
                        token,
                        head,
                        body,
                    });
                    let rec = self.rec();
                    rec.gauge(Gauge::QueueDepthPeak, depth as u64);
                    rec.trace(TraceKind::QueueDepth {
                        depth: depth as u64,
                    });
                }
                ConnAction::Close(_reason) => self.teardown(token),
            }
        }
        self.actions = actions;
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
            self.rec().trace(TraceKind::Drain {
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

    /// Start draining one HTTP connection. Like the blocking driver, read
    /// first: bytes the peer already sent are a request in flight, not an
    /// idle connection to hang up on.
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
            workers: 2,
            ..ServerOptions::default()
        }
    }

    fn serve(opts: &ServerOptions, mode: ServeMode) -> EventLoopServer {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        EventLoopServer::serve(listener, opts, ConnConfig::default(), None, mode).unwrap()
    }

    fn post(addr: SocketAddr, body: &[u8]) -> (u16, Vec<u8>) {
        let mut s = TcpStream::connect(addr).unwrap();
        let cfg = RequestConfig::loopback(crate::http::HttpVersion::Http11Length);
        let mut head = Vec::new();
        cfg.render_head(&mut head, Some(body.len()));
        s.write_all(&head).unwrap();
        s.write_all(body).unwrap();
        reply(&mut s)
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
}
