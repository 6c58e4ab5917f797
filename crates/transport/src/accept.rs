//! Bounded worker-pool accept loop: the thread side of the worker-pool
//! core (what each worker *does* with a connection is the caller's
//! closure — for HTTP, [`crate::conn::drive_blocking`]).
//!
//! The seed servers spawned one unbounded thread per connection and
//! sleep-polled a nonblocking listener every millisecond — fine for unit
//! tests, hopeless for sustained traffic (thread churn, idle CPU burn,
//! unbounded memory under a connection flood). This module replaces both:
//! a **blocking** accept thread feeds accepted connections into an
//! unbounded queue drained by a **fixed** pool of worker threads, so
//! concurrency beyond the worker count queues instead of spawning or
//! refusing, and an idle server consumes zero CPU.
//!
//! Shutdown is graceful: the stop flag is raised, a loopback self-connect
//! unblocks the accept call (no sleep-poll needed), already-accepted
//! connections are drained to completion, and only after a drain deadline
//! are still-busy connections force-closed.

use bsoap_obs::{Counter, Gauge, Metrics, Recorder, TraceKind};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Accepted-connection queue plus worker bookkeeping, all under one lock
/// so the drain wait can be a plain condvar wait (no sleep polling).
struct QueueState {
    conns: VecDeque<TcpStream>,
    /// No further pushes; workers exit once the queue empties.
    closed: bool,
    /// Drain deadline passed: workers drop queued connections unserved
    /// instead of risking an unbounded read on a live client.
    abandon: bool,
    /// Workers currently inside the connection handler.
    busy: usize,
    /// High-water mark of queued connections (observability: proves
    /// queueing happened when connections outnumber workers).
    peak_depth: usize,
}

struct Queue {
    state: Mutex<QueueState>,
    /// Signaled when work arrives or the queue closes.
    ready: Condvar,
    /// Signaled when the pool may have fully drained.
    drained: Condvar,
}

fn relock<'a, T>(
    r: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    r.unwrap_or_else(PoisonError::into_inner)
}

impl Queue {
    fn new() -> Self {
        Queue {
            state: Mutex::new(QueueState {
                conns: VecDeque::new(),
                closed: false,
                abandon: false,
                busy: 0,
                peak_depth: 0,
            }),
            ready: Condvar::new(),
            drained: Condvar::new(),
        }
    }

    /// Enqueue a connection; returns the queue depth after the push so the
    /// accept loop can publish it without retaking the lock.
    fn push(&self, s: TcpStream) -> usize {
        let mut st = relock(self.state.lock());
        st.conns.push_back(s);
        let depth = st.conns.len();
        st.peak_depth = st.peak_depth.max(depth);
        drop(st);
        self.ready.notify_one();
        depth
    }

    /// Blocking pop; marks the calling worker busy before releasing the
    /// lock so the drain wait can never observe a claimed-but-untracked
    /// connection. Returns `None` when closed and empty (worker exits).
    fn pop(&self) -> Option<TcpStream> {
        let mut st = relock(self.state.lock());
        loop {
            if st.abandon {
                // Late shutdown: discard whatever is still queued.
                while let Some(c) = st.conns.pop_front() {
                    let _ = c.shutdown(Shutdown::Both);
                }
            }
            if let Some(c) = st.conns.pop_front() {
                st.busy += 1;
                return Some(c);
            }
            if st.closed {
                return None;
            }
            st = relock(self.ready.wait(st));
        }
    }

    fn done(&self) {
        let mut st = relock(self.state.lock());
        st.busy -= 1;
        let idle = st.busy == 0 && st.conns.is_empty();
        drop(st);
        if idle {
            self.drained.notify_all();
        }
    }

    fn close(&self) {
        relock(self.state.lock()).closed = true;
        self.ready.notify_all();
        self.drained.notify_all();
    }

    /// Wait until no connection is queued or being handled, or until the
    /// deadline. Returns `true` if fully drained.
    fn wait_drained(&self, deadline: Duration) -> bool {
        let end = Instant::now() + deadline;
        let mut st = relock(self.state.lock());
        while st.busy > 0 || !st.conns.is_empty() {
            let now = Instant::now();
            if now >= end {
                return false;
            }
            let (g, _) = self
                .drained
                .wait_timeout(st, end - now)
                .unwrap_or_else(PoisonError::into_inner);
            st = g;
        }
        true
    }

    fn abandon(&self) {
        relock(self.state.lock()).abandon = true;
        self.ready.notify_all();
    }
}

/// Streams currently inside a handler, so a timed-out drain can unblock
/// workers parked in `read()` on connections the client left open. Only
/// active (dequeued) connections are held, so the map stays bounded by
/// the worker count.
#[derive(Default)]
struct Registry {
    streams: Mutex<HashMap<u64, TcpStream>>,
}

impl Registry {
    fn insert(&self, id: u64, stream: &TcpStream) {
        if let Ok(clone) = stream.try_clone() {
            relock(self.streams.lock()).insert(id, clone);
        }
    }

    fn remove(&self, id: u64) {
        relock(self.streams.lock()).remove(&id);
    }

    fn shutdown_all(&self) {
        for (_, s) in relock(self.streams.lock()).drain() {
            let _ = s.shutdown(Shutdown::Both);
        }
    }
}

struct PoolShared {
    stop: AtomicBool,
    /// The stop sentinel's client-side address, so the accept thread can
    /// tell the wakeup connection apart from real ones that raced it into
    /// the backlog. [`WorkerPool::stop`] holds this lock from before the
    /// sentinel connect until the address is stored, so an accept-side
    /// lock acquired after observing the stop flag always sees it.
    sentinel: Mutex<Option<SocketAddr>>,
    queue: Queue,
    registry: Registry,
    connections: AtomicU64,
    next_id: AtomicU64,
}

/// Handle to a running worker-pool server. Dropping it stops the pool
/// (with the configured drain deadline).
pub struct WorkerPool {
    addr: SocketAddr,
    workers_wanted: usize,
    drain_deadline: Duration,
    shared: Arc<PoolShared>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

/// Serve `listener` with a fixed pool of `workers` threads; `handler` is
/// invoked once per accepted connection and owns it until it returns
/// (keep-alive loops live inside the handler). Its second argument is the
/// pool's stop flag, raised when [`WorkerPool::stop`] begins: a handler
/// that polls it can finish its in-flight request and hang up instead of
/// idling into the drain deadline.
///
/// With a registry attached, every accepted connection ticks
/// [`Counter::ServerConnections`], and each enqueue publishes the observed
/// queue depth as a [`Gauge::QueueDepthPeak`] observation plus a
/// [`TraceKind::QueueDepth`] event.
pub fn serve_with_metrics<F>(
    listener: TcpListener,
    workers: usize,
    drain_deadline: Duration,
    metrics: Option<Arc<Metrics>>,
    handler: F,
) -> io::Result<WorkerPool>
where
    F: Fn(TcpStream, &AtomicBool) + Send + Sync + 'static,
{
    let addr = listener.local_addr()?;
    let shared = Arc::new(PoolShared {
        stop: AtomicBool::new(false),
        sentinel: Mutex::new(None),
        queue: Queue::new(),
        registry: Registry::default(),
        connections: AtomicU64::new(0),
        next_id: AtomicU64::new(0),
    });
    let handler = Arc::new(handler);
    let worker_threads = (0..workers.max(1))
        .map(|_| {
            let shared = Arc::clone(&shared);
            let handler = Arc::clone(&handler);
            std::thread::spawn(move || {
                while let Some(stream) = shared.queue.pop() {
                    let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
                    shared.registry.insert(id, &stream);
                    handler(stream, &shared.stop);
                    shared.registry.remove(id);
                    shared.queue.done();
                }
            })
        })
        .collect();
    let accept_shared = Arc::clone(&shared);
    let accept_thread = std::thread::spawn(move || {
        // Blocking accept: zero CPU while idle. stop() self-connects to
        // unblock this call; the loop exits only on accepting that exact
        // connection (matched by peer address), so real connections that
        // entered the backlog ahead of the sentinel are still served and
        // the sentinel is never counted.
        loop {
            match listener.accept() {
                Ok((stream, peer)) => {
                    if accept_shared.stop.load(Ordering::Acquire)
                        && *relock(accept_shared.sentinel.lock()) == Some(peer)
                    {
                        break;
                    }
                    let _ = stream.set_nodelay(true);
                    accept_shared.connections.fetch_add(1, Ordering::Relaxed);
                    let depth = accept_shared.queue.push(stream);
                    if let Some(m) = &metrics {
                        m.add(Counter::ServerConnections, 1);
                        m.gauge(Gauge::QueueDepthPeak, depth as u64);
                        m.trace(TraceKind::QueueDepth {
                            depth: depth as u64,
                        });
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        // Listener drops here: no further connections are accepted.
    });
    Ok(WorkerPool {
        addr,
        workers_wanted: workers.max(1),
        drain_deadline,
        shared,
        accept_thread: Some(accept_thread),
        workers: worker_threads,
    })
}

impl WorkerPool {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections accepted (sentinel self-connects excluded).
    pub fn connections(&self) -> u64 {
        self.shared.connections.load(Ordering::Relaxed)
    }

    /// High-water mark of connections queued awaiting a worker.
    pub fn peak_queue_depth(&self) -> usize {
        relock(self.shared.queue.state.lock()).peak_depth
    }

    /// Number of worker threads (stable across [`WorkerPool::stop`]).
    pub fn workers(&self) -> usize {
        self.workers_wanted
    }

    /// Stop accepting, drain in-flight connections (bounded by the drain
    /// deadline), then join every thread. Idempotent.
    pub fn stop(&mut self) {
        let Some(accept) = self.accept_thread.take() else {
            return;
        };
        // Hold the sentinel lock across the connect so the accept thread,
        // once it sees the stop flag, blocks here until the sentinel's
        // address is known and never misclassifies a real connection.
        let mut sentinel_slot = relock(self.shared.sentinel.lock());
        self.shared.stop.store(true, Ordering::Release);
        // Unblock the accept call; if the connect fails the listener has
        // already errored out and the thread is gone anyway.
        let sentinel = TcpStream::connect(self.addr).ok();
        *sentinel_slot = sentinel.as_ref().and_then(|s| s.local_addr().ok());
        drop(sentinel_slot);
        let _ = accept.join();
        drop(sentinel);
        self.shared.queue.close();
        if !self.shared.queue.wait_drained(self.drain_deadline) {
            // Deadline passed: force-close active connections to unblock
            // workers parked in read(), and drop still-queued ones.
            self.shared.queue.abandon();
            self.shared.registry.shutdown_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::sync::atomic::AtomicUsize;

    fn echo_pool(workers: usize) -> WorkerPool {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        serve_with_metrics(
            listener,
            workers,
            Duration::from_secs(2),
            None,
            |mut s, _stop| {
                let mut buf = [0u8; 1024];
                loop {
                    match s.read(&mut buf) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => {
                            if s.write_all(&buf[..n]).is_err() {
                                break;
                            }
                        }
                    }
                }
            },
        )
        .unwrap()
    }

    #[test]
    fn echoes_through_workers() {
        let mut pool = echo_pool(2);
        let mut c = TcpStream::connect(pool.addr()).unwrap();
        c.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        c.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        drop(c);
        pool.stop();
        assert_eq!(pool.connections(), 1);
    }

    #[test]
    fn more_connections_than_workers_queue_not_refuse() {
        let mut pool = echo_pool(2);
        let addr = pool.addr();
        // 6 concurrent connections against 2 workers: every one must be
        // served (the surplus queues until a worker frees up).
        let handles: Vec<_> = (0..6)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut c = TcpStream::connect(addr).unwrap();
                    let msg = [b'a' + i as u8; 16];
                    c.write_all(&msg).unwrap();
                    let mut buf = [0u8; 16];
                    c.read_exact(&mut buf).unwrap();
                    assert_eq!(buf, msg);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        pool.stop();
        assert_eq!(pool.connections(), 6);
        assert_eq!(pool.workers(), 2);
    }

    #[test]
    fn graceful_stop_drains_queued_connections() {
        // One worker held busy; a second connection sits queued when stop
        // begins — it must still be served (drained), not dropped.
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let served = Arc::new(AtomicUsize::new(0));
        let served_h = Arc::clone(&served);
        let mut pool = serve_with_metrics(
            listener,
            1,
            Duration::from_secs(5),
            None,
            move |mut s, _stop| {
                let mut buf = [0u8; 4];
                if s.read_exact(&mut buf).is_ok() {
                    let _ = s.write_all(b"ok");
                    served_h.fetch_add(1, Ordering::SeqCst);
                }
            },
        )
        .unwrap();
        let addr = pool.addr();
        let t1 = std::thread::spawn(move || {
            let mut c = TcpStream::connect(addr).unwrap();
            std::thread::sleep(Duration::from_millis(100));
            c.write_all(b"aaaa").unwrap();
            let mut r = [0u8; 2];
            c.read_exact(&mut r).unwrap();
        });
        let t2 = std::thread::spawn(move || {
            let mut c = TcpStream::connect(addr).unwrap();
            c.write_all(b"bbbb").unwrap();
            let mut r = [0u8; 2];
            c.read_exact(&mut r).unwrap();
        });
        // Wait for both connections to be accepted, then stop mid-flight.
        while pool.connections() < 2 {
            std::thread::yield_now();
        }
        pool.stop();
        t1.join().unwrap();
        t2.join().unwrap();
        assert_eq!(served.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn stop_with_idle_keepalive_connection_times_out_cleanly() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let mut pool = serve_with_metrics(
            listener,
            1,
            Duration::from_millis(50),
            None,
            |mut s, _stop| {
                let mut buf = [0u8; 1024];
                while !matches!(s.read(&mut buf), Ok(0) | Err(_)) {}
            },
        )
        .unwrap();
        // Client connects and stays idle forever: drain must hit the
        // deadline and force-close rather than hang.
        let c = TcpStream::connect(pool.addr()).unwrap();
        let start = Instant::now();
        pool.stop();
        assert!(start.elapsed() < Duration::from_secs(2));
        drop(c);
    }

    #[test]
    fn stop_is_idempotent_and_drop_safe() {
        let mut pool = echo_pool(1);
        pool.stop();
        pool.stop();
        // Drop after explicit stop must not panic or hang.
    }
}
