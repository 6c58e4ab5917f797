//! Pool exhaustion and breaker contention tests (integration-level).
//!
//! The `max_live` cap must *queue* over-cap checkouts, never refuse them:
//! every queued checkout eventually succeeds once a connection returns,
//! and the pool's counters account for each wait exactly. A deadline
//! turns the queue wait into a typed `TimedOut`, not a hang. And when a
//! tripped breaker's cooldown lapses, exactly one of N racing callers
//! wins the half-open probe slot.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use bsoap_obs::{BreakerState, Clock, Deadline, MonotonicClock, VirtualClock};
use bsoap_transport::pool::{ConnectionPool, PoolConfig, PoolStats};
use bsoap_transport::CircuitBreaker;

/// Accept exactly `n` connections and hold them open (no reads, no
/// writes — a held socket passes the pool's reuse health check) until
/// the returned guard is dropped.
struct HoldingServer {
    addr: SocketAddr,
    release: Option<mpsc::Sender<()>>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl HoldingServer {
    fn accept(n: usize) -> Self {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let (tx, rx) = mpsc::channel::<()>();
        let thread = std::thread::spawn(move || {
            let mut held: Vec<TcpStream> = Vec::with_capacity(n);
            for _ in 0..n {
                let (s, _) = listener.accept().unwrap();
                held.push(s);
            }
            // Keep every accepted socket open until the test is done.
            let _ = rx.recv();
            drop(held);
        });
        HoldingServer {
            addr,
            release: Some(tx),
            thread: Some(thread),
        }
    }
}

impl Drop for HoldingServer {
    fn drop(&mut self) {
        drop(self.release.take());
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Spin (no sleeps) until `cond` holds, panicking after `cap`.
fn spin_until(cap: Duration, what: &str, mut cond: impl FnMut() -> bool) {
    let start = Instant::now();
    while !cond() {
        assert!(start.elapsed() < cap, "timed out spinning for: {what}");
        std::thread::yield_now();
    }
}

/// Over-cap checkouts queue behind the `max_live` gate and every one of
/// them is eventually served — none is refused, none dials past the cap
/// — with exact `waited`/`created`/`reused` accounting.
#[test]
fn max_live_checkouts_queue_not_refuse() {
    let server = HoldingServer::accept(2);
    let pool = ConnectionPool::new(
        server.addr,
        PoolConfig {
            max_idle: 4,
            max_live: Some(2),
            ..PoolConfig::default()
        },
    );

    // Saturate the cap.
    let c1 = pool.checkout().unwrap();
    let c2 = pool.checkout().unwrap();
    assert_eq!(pool.live_count(), 2);
    assert_eq!(pool.stats().created, 2);

    let (done_tx, done_rx) = mpsc::channel::<bool>();
    std::thread::scope(|scope| {
        for _ in 0..3 {
            let tx = done_tx.clone();
            let pool = &pool;
            scope.spawn(move || {
                // Blocks (queued) until a permit frees up; must never
                // error and must never open a third connection.
                let conn = pool.checkout();
                tx.send(conn.is_ok()).unwrap();
                drop(conn); // checkin + release: wakes the next waiter
            });
        }

        // All three must be queued (each counts `waited` exactly once on
        // first observing the cap) while the cap holds firm.
        spin_until(Duration::from_secs(10), "3 queued checkouts", || {
            pool.stats().waited == 3
        });
        assert_eq!(pool.live_count(), 2, "queueing must not dial past the cap");
        assert_eq!(pool.stats().created, 2);

        // Release both; the waiters drain one at a time through the gate.
        drop(c1);
        drop(c2);
        for _ in 0..3 {
            let ok = done_rx
                .recv_timeout(Duration::from_secs(10))
                .expect("queued checkout never completed");
            assert!(ok, "queued checkout was refused");
        }
    });

    // Queued checkouts were served from the checked-in sockets: no new
    // dials, every wait accounted, gate fully released.
    let stats = pool.stats();
    assert_eq!(
        stats,
        PoolStats {
            created: 2,
            reused: 3,
            stale: 0,
            expired: 0,
            retries: 0,
            waited: 3,
        }
    );
    assert_eq!(pool.live_count(), 0);
    assert_eq!(pool.idle_count(), 2);
}

/// A deadline bounds the queue wait: a checkout against a saturated pool
/// fails with a typed `TimedOut` (never hangs, never panics), and the
/// pool still serves the next unbounded checkout once capacity returns.
#[test]
fn saturated_pool_checkout_times_out_typed() {
    let server = HoldingServer::accept(1);
    let pool = ConnectionPool::new(
        server.addr,
        PoolConfig {
            max_live: Some(1),
            ..PoolConfig::default()
        },
    );

    let held = pool.checkout().unwrap();
    assert_eq!(pool.live_count(), 1);

    // Real-clock deadline: the condvar wait itself must give up.
    let clock: Arc<dyn Clock> = Arc::new(MonotonicClock::new());
    let deadline = Deadline::from_budget(clock, Some(Duration::from_millis(25)));
    let err = pool
        .checkout_within(Some(&deadline))
        .err()
        .expect("saturated checkout under a deadline must fail");
    assert_eq!(err.kind(), std::io::ErrorKind::TimedOut);

    // Already-expired deadline on a virtual clock: fails before waiting.
    let vclock = Arc::new(VirtualClock::new());
    let expired = Deadline::from_budget(vclock as Arc<dyn Clock>, Some(Duration::ZERO));
    let err = pool
        .checkout_within(Some(&expired))
        .err()
        .expect("expired deadline must fail immediately");
    assert_eq!(err.kind(), std::io::ErrorKind::TimedOut);

    // Both timed-out attempts observed the cap exactly once each, and a
    // failed wait must not leak a permit or wedge the gate.
    assert_eq!(pool.stats().waited, 2);
    assert_eq!(pool.live_count(), 1);
    drop(held);
    let conn = pool.checkout().expect("pool wedged after timed-out waits");
    assert!(conn.reused, "returned socket should be served from idle");
    assert_eq!(pool.stats().reused, 1);
}

/// The queue wait burns *deadline-clock* time, not wall time: a queued
/// checkout under a virtual-clock deadline must keep waiting while real
/// time passes (the old code handed the deadline's remaining budget to
/// a real-time condvar wait, timing out on the wrong clock), then fail
/// with a typed `TimedOut` promptly once the virtual clock is advanced
/// past the budget.
#[test]
fn queued_checkout_waits_on_the_deadline_clock_not_real_time() {
    let server = HoldingServer::accept(1);
    let pool = ConnectionPool::new(
        server.addr,
        PoolConfig {
            max_live: Some(1),
            ..PoolConfig::default()
        },
    );

    let held = pool.checkout().unwrap();
    assert_eq!(pool.live_count(), 1);

    let vclock = Arc::new(VirtualClock::new());
    let deadline = Deadline::from_budget(
        Arc::clone(&vclock) as Arc<dyn Clock>,
        Some(Duration::from_millis(50)),
    );

    let (tx, rx) = mpsc::channel::<std::io::Result<()>>();
    std::thread::scope(|scope| {
        let pool = &pool;
        let deadline = deadline.clone();
        scope.spawn(move || {
            let res = pool.checkout_within(Some(&deadline)).map(drop);
            tx.send(res).unwrap();
        });

        // The waiter is queued on the gate...
        spin_until(Duration::from_secs(10), "queued checkout", || {
            pool.stats().waited == 1
        });
        // ...and 120ms of *real* time must not expire its 50ms of
        // *virtual* budget.
        std::thread::sleep(Duration::from_millis(120));
        assert!(
            matches!(rx.try_recv(), Err(mpsc::TryRecvError::Empty)),
            "queued checkout gave up on real time despite a frozen virtual deadline"
        );

        // Spend the virtual budget: the waiter must notice promptly.
        vclock.advance(50_000_001);
        let res = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("waiter never observed the advanced virtual clock");
        let err = res.expect_err("expired virtual deadline must fail");
        assert_eq!(err.kind(), std::io::ErrorKind::TimedOut);
    });

    // The failed wait released its queue slot: capacity returning still
    // serves the next checkout.
    assert_eq!(pool.live_count(), 1);
    drop(held);
    let conn = pool
        .checkout()
        .expect("pool wedged after virtual-clock timeout");
    assert!(conn.reused);
}

/// When a tripped breaker's cooldown lapses, exactly one of N racing
/// callers is admitted as the half-open probe; the rest fail fast. The
/// probe's verdict then decides for everyone.
#[test]
fn breaker_half_open_admits_exactly_one_probe() {
    let clock = Arc::new(VirtualClock::new());
    let breaker = CircuitBreaker::new(
        3,
        Duration::from_secs(1),
        Arc::clone(&clock) as Arc<dyn Clock>,
    );

    for _ in 0..3 {
        breaker.record_failure();
    }
    assert_eq!(breaker.state(), BreakerState::Open);
    assert!(!breaker.allow(), "open breaker must fail fast");

    // Cooldown lapses (virtual time only): N threads race for the probe.
    clock.advance(1_000_000_001);
    let n = 8;
    let barrier = Barrier::new(n);
    let admitted: Vec<bool> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|_| {
                let breaker = &breaker;
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    breaker.allow()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(
        admitted.iter().filter(|&&a| a).count(),
        1,
        "exactly one racer may hold the half-open probe, got {admitted:?}"
    );
    assert_eq!(breaker.state(), BreakerState::HalfOpen);

    // Probe fails: straight back to Open, cooldown restarts.
    breaker.record_failure();
    assert_eq!(breaker.state(), BreakerState::Open);
    assert!(!breaker.allow());

    // Next cooldown, next probe — this time it succeeds and the breaker
    // closes for everyone.
    clock.advance(1_000_000_001);
    assert!(breaker.allow(), "post-cooldown caller must get the probe");
    assert_eq!(breaker.state(), BreakerState::HalfOpen);
    breaker.record_success();
    assert_eq!(breaker.state(), BreakerState::Closed);
    assert!(breaker.allow());

    // Closed-state failure counting starts from zero again.
    breaker.record_failure();
    breaker.record_failure();
    assert_eq!(breaker.state(), BreakerState::Closed);
    breaker.record_success();
    assert_eq!(breaker.state(), BreakerState::Closed);
}

/// The queued-not-refused guarantee holds on the *server* side too: more
/// concurrent keep-alive clients than the server accepts at once
/// (`max_connections`) all get every request served — over-cap
/// connections wait in the listen backlog, none is refused or dropped.
#[test]
fn overloaded_server_queues_every_client() {
    use bsoap_transport::http::{
        post_gather_vectored, read_response_limited, HttpVersion, PostScratch, RequestConfig,
    };
    use bsoap_transport::{ServerMode, ServerOptions, TestServer};
    use std::io::{IoSlice, Write};

    let server = TestServer::spawn_with(
        ServerMode::Ack,
        ServerOptions {
            event_loop_threads: 1,
            max_connections: 4,
            ..ServerOptions::default()
        },
    )
    .unwrap();
    let addr = server.addr();
    let clients = 12;
    let reqs_per_conn = 3;

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|i| {
                scope.spawn(move || {
                    let mut s = TcpStream::connect(addr).unwrap();
                    let cfg = RequestConfig::loopback(HttpVersion::Http11Length);
                    for r in 0..reqs_per_conn {
                        let body = format!("<m>client {i} req {r}</m>");
                        let mut scratch = PostScratch::default();
                        post_gather_vectored(
                            &mut s,
                            &cfg,
                            &[IoSlice::new(body.as_bytes())],
                            &mut scratch,
                        )
                        .unwrap();
                        s.flush().unwrap();
                        let (status, _) = read_response_limited(&mut s, 1 << 10, 1 << 10).unwrap();
                        assert_eq!(status, 200, "client {i} req {r}");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });

    let stats = server.stop();
    assert_eq!(
        stats.requests as usize,
        clients * reqs_per_conn,
        "every queued request must be served"
    );
}

/// Held keep-alive connections cost the server no thread each: of N held
/// open with a request on each, every one is answered, on one loop thread.
#[test]
fn connection_sweep_scales_on_the_event_loop_only() {
    use bsoap_obs::{Counter, Metrics};
    use bsoap_transport::http::{
        post_gather_vectored, read_response_limited, HttpVersion, PostScratch, RequestConfig,
    };
    use bsoap_transport::{ServerMode, ServerOptions, TestServer};
    use std::io::{IoSlice, Write};

    const CONNS: usize = 12;
    let mut probe = Vec::new();
    post_gather_vectored(
        &mut probe,
        &RequestConfig::loopback(HttpVersion::Http11Length),
        &[IoSlice::new(b"<probe/>")],
        &mut PostScratch::default(),
    )
    .unwrap();

    let metrics = Metrics::shared();
    let server = TestServer::spawn_with_metrics(
        ServerMode::Ack,
        ServerOptions {
            event_loop_threads: 1,
            max_connections: 2 * CONNS,
            ..ServerOptions::default()
        },
        Arc::clone(&metrics),
    )
    .unwrap();
    let mut socks: Vec<TcpStream> = (0..CONNS)
        .map(|_| TcpStream::connect(server.addr()).unwrap())
        .collect();
    for s in &mut socks {
        s.write_all(&probe).unwrap();
    }

    spin_until(
        Duration::from_secs(20),
        "all accepted, all answered",
        || {
            metrics.snapshot().get(Counter::ServerConnections) == CONNS as u64
                && server.requests() == CONNS as u64
        },
    );

    // Every connection carries a reply.
    for s in &socks {
        s.set_nonblocking(true).unwrap();
    }
    let mut answered = Vec::new();
    spin_until(Duration::from_secs(20), "replies readable", || {
        for (i, s) in socks.iter().enumerate() {
            let mut byte = [0u8; 1];
            if !answered.contains(&i) && matches!(s.peek(&mut byte), Ok(1)) {
                answered.push(i);
            }
        }
        answered.len() >= CONNS
    });
    assert_eq!(answered.len(), CONNS);

    // And each stays served: a second request on one is answered at once.
    let first = &mut socks[answered[0]];
    first.set_nonblocking(false).unwrap();
    let (status, _) = read_response_limited(first, 1 << 10, 1 << 10).unwrap();
    assert_eq!(status, 200);
    first.write_all(&probe).unwrap();
    let (status, _) = read_response_limited(first, 1 << 10, 1 << 10).unwrap();
    assert_eq!(status, 200);
    assert_eq!(server.requests(), CONNS as u64 + 1);

    drop(socks);
    server.stop();
}

/// Scripted checkout/checkin/reap sequence with exact `PoolStats` at the
/// end — every counter justified by a specific event, idle expiry driven
/// by a virtual clock (no sleeps).
#[test]
fn pool_stats_reconcile_exactly() {
    let server = HoldingServer::accept(3);
    let clock = Arc::new(VirtualClock::new());
    let mut pool = ConnectionPool::new(
        server.addr,
        PoolConfig {
            max_idle: 1,
            idle_timeout: Duration::from_secs(5),
            max_live: None,
        },
    );
    pool.set_clock(Arc::clone(&clock) as Arc<dyn Clock>);

    // Cold checkout dials (created=1); checkin pools it.
    let c = pool.checkout().unwrap();
    assert!(!c.reused);
    drop(c);
    assert_eq!(pool.idle_count(), 1);

    // Warm checkout reuses it (reused=1).
    let c = pool.checkout().unwrap();
    assert!(c.reused);
    drop(c);

    // Two concurrent checkouts: one warm (reused=2), one dials
    // (created=2). On checkin, max_idle=1 retains only one of them.
    let a = pool.checkout().unwrap();
    let b = pool.checkout().unwrap();
    assert!(a.reused);
    assert!(!b.reused);
    drop(a);
    drop(b);
    assert_eq!(pool.idle_count(), 1);

    // The survivor out-sits the idle timeout (virtual time); reap
    // discards it (expired=1).
    clock.advance(6_000_000_000);
    pool.reap();
    assert_eq!(pool.idle_count(), 0);

    // Nothing idle: the next checkout dials again (created=3).
    let c = pool.checkout().unwrap();
    assert!(!c.reused);
    drop(c);

    assert_eq!(
        pool.stats(),
        PoolStats {
            created: 3,
            reused: 2,
            stale: 0,
            expired: 1,
            retries: 0,
            waited: 0,
        }
    );
    // `max_live` unset: the gate never counts.
    assert_eq!(pool.live_count(), 0);
}
