//! Concurrent throughput benchmark: pooled keep-alive vs connection-per-call.
//!
//! The paper's figures measure one client's Send Time against a discard
//! server. This scenario measures the *system* under concurrency: N client
//! threads, each with its own differential-serialization engine, POST
//! width-stable workloads at an [`Ack`](ServerMode::Ack) server running on
//! the bounded worker pool. Two transport modes are compared at each
//! dirty-fraction level:
//!
//! * **pooled** — all threads share one [`HttpPoolClient`]: persistent
//!   keep-alive connections, health-checked checkout, zero-copy vectored
//!   POSTs.
//! * **per_call** — every request opens a fresh TCP connection (the
//!   HTTP/1.0-era baseline), same vectored send path, so the delta
//!   isolates connection setup/teardown.
//!
//! Dirty fractions toggle the first `d%` of array elements between two
//! 18-character doubles, so every resend is a Perfect Structural Match
//! rewriting exactly that fraction in place — serialization cost scales
//! with `d` while message bytes stay constant.
//!
//! Results (requests/sec, p50/p99 latency) serialize to JSON for
//! `BENCH_throughput.json`; see `EXPERIMENTS.md`.

use crate::workload::{Kind, DOUBLE_MID_W};
use bsoap_convert::format_f64;
use bsoap_core::{Client, EngineConfig, Value};
use bsoap_obs::{parse_value, HistId, Metrics, Tier};
use bsoap_transport::http::{
    post_gather, post_gather_vectored, read_response, render_get_request, HttpVersion,
    RequestConfig,
};
use bsoap_transport::pool::{HttpPoolClient, PoolConfig};
use bsoap_transport::server::{ServerCore, ServerMode, ServerOptions, TestServer};
use bsoap_transport::PostScratch;
use std::io::{self, IoSlice, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Benchmark knobs.
#[derive(Clone, Debug)]
pub struct ThroughputConfig {
    /// Concurrent client threads.
    pub clients: usize,
    /// Requests each client issues per scenario.
    pub requests_per_client: usize,
    /// Array elements per message (doubles).
    pub elems: usize,
    /// Client pool size (`PoolConfig::max_idle`, and its default).
    pub pool_size: usize,
    /// Server worker threads, from `EngineConfig::server_workers` by
    /// default.
    pub workers: usize,
    /// Dirty-fraction levels (percent of elements rewritten per resend).
    pub dirty_percents: Vec<usize>,
    /// Concurrent-connection scaling sweep run after the matrix.
    pub sweep: SweepConfig,
}

impl Default for ThroughputConfig {
    fn default() -> Self {
        let e = EngineConfig::default();
        ThroughputConfig {
            clients: 4,
            requests_per_client: 250,
            elems: 100,
            pool_size: PoolConfig::default().max_idle,
            workers: e.server_workers,
            dirty_percents: vec![0, 50, 100],
            sweep: SweepConfig::default(),
        }
    }
}

impl ThroughputConfig {
    /// A seconds-scale configuration for CI smoke runs.
    pub fn smoke() -> Self {
        ThroughputConfig {
            clients: 2,
            requests_per_client: 40,
            dirty_percents: vec![50],
            sweep: SweepConfig::smoke(),
            ..Self::default()
        }
    }
}

/// Knobs for the concurrent-connection scaling sweep: how many idle
/// keep-alive clients each core can keep *responsive* at once.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Connection counts probed on the worker-pool core. The pool pins
    /// one thread per live connection, so responsiveness stalls at
    /// `workers` — small points suffice to show the ceiling.
    pub worker_pool_points: Vec<usize>,
    /// Connection counts probed on the event-loop core, which must keep
    /// every connection responsive.
    pub event_loop_points: Vec<usize>,
    /// Loop threads for the event-loop points (the paper-scale claim is
    /// ≥5k connections with ≤4 loop threads).
    pub event_loop_threads: usize,
    /// How long unanswered probes are polled before a point settles.
    pub settle: Duration,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            worker_pool_points: vec![100, 1000],
            event_loop_points: vec![100, 1000, 2500, 5000],
            event_loop_threads: 2,
            settle: Duration::from_secs(5),
        }
    }
}

impl SweepConfig {
    /// A sub-second sweep for CI smoke runs and unit tests.
    pub fn smoke() -> Self {
        SweepConfig {
            worker_pool_points: vec![50],
            event_loop_points: vec![200],
            settle: Duration::from_secs(2),
            ..Self::default()
        }
    }
}

/// One point of the connection sweep.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// `"worker_pool"` or `"event_loop"`.
    pub core: &'static str,
    /// Keep-alive connections opened, each sending one probe request.
    pub connections: usize,
    /// Connections whose probe got a complete HTTP response before the
    /// settle deadline.
    pub responsive: usize,
    /// Serving threads: `workers` (worker pool) or loop threads (event
    /// loop).
    pub threads: usize,
    /// Seconds from the first probe byte until the point settled.
    pub elapsed_s: f64,
}

/// One (mode, dirty-fraction) measurement.
#[derive(Clone, Debug)]
pub struct ScenarioResult {
    /// `"pooled"` or `"per_call"`.
    pub mode: &'static str,
    /// Percent of elements rewritten per resend.
    pub dirty_pct: usize,
    /// Total requests completed.
    pub requests: u64,
    /// Wall-clock seconds for the whole scenario.
    pub elapsed_s: f64,
    /// Requests per second across all clients.
    pub rps: f64,
    /// Median request latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile request latency, microseconds.
    pub p99_us: f64,
    /// Request bytes written to the wire.
    pub wire_bytes: u64,
    /// TCP connections the server accepted.
    pub connections: u64,
    /// Server-side queue high-water mark.
    pub peak_queue_depth: usize,
    /// Pooled mode: connections opened / checkouts served from the pool /
    /// mid-exchange retries. Zero for per_call.
    pub pool_created: u64,
    /// See [`ScenarioResult::pool_created`].
    pub pool_reused: u64,
    /// See [`ScenarioResult::pool_created`].
    pub pool_retries: u64,
    /// Requests per send tier ([`Tier::ALL`] order) from the shared
    /// metrics registry.
    pub tier_requests: [u64; 4],
    /// Per-tier p50 send latency (µs) from the latency histograms.
    pub tier_p50_us: [f64; 4],
    /// Per-tier p99 send latency (µs).
    pub tier_p99_us: [f64; 4],
    /// The `GET /metrics` scrape taken before the server stopped (not
    /// embedded in the JSON report; the bench front-end writes it to
    /// `BENCH_metrics.prom`).
    pub metrics_prom: String,
}

/// Full report: config echo plus one result per (mode, dirty) pair and
/// the connection-sweep scaling curve.
#[derive(Clone, Debug)]
pub struct ThroughputReport {
    /// The knobs the run used.
    pub config: ThroughputConfig,
    /// One entry per (mode, dirty-fraction) pair.
    pub results: Vec<ScenarioResult>,
    /// Concurrent-connection scaling points, both cores.
    pub sweep: Vec<SweepPoint>,
}

impl ThroughputReport {
    /// Pooled-over-per-call requests/sec ratio at `dirty_pct`.
    pub fn speedup(&self, dirty_pct: usize) -> Option<f64> {
        let rps = |mode: &str| {
            self.results
                .iter()
                .find(|r| r.mode == mode && r.dirty_pct == dirty_pct)
                .map(|r| r.rps)
        };
        match (rps("pooled"), rps("per_call")) {
            (Some(p), Some(c)) if c > 0.0 => Some(p / c),
            _ => None,
        }
    }

    /// Hand-rolled JSON (no serde in the dependency tree).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"benchmark\": \"throughput\",\n");
        s.push_str(&format!("  \"clients\": {},\n", self.config.clients));
        s.push_str(&format!(
            "  \"requests_per_client\": {},\n",
            self.config.requests_per_client
        ));
        s.push_str(&format!("  \"elems\": {},\n", self.config.elems));
        s.push_str(&format!("  \"pool_size\": {},\n", self.config.pool_size));
        s.push_str(&format!("  \"server_workers\": {},\n", self.config.workers));
        s.push_str("  \"scenarios\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"mode\": \"{}\", \"dirty_pct\": {}, \"requests\": {}, \
                 \"elapsed_s\": {:.4}, \"rps\": {:.1}, \"p50_us\": {:.1}, \
                 \"p99_us\": {:.1}, \"wire_bytes\": {}, \"connections\": {}, \
                 \"peak_queue_depth\": {}, \"pool_created\": {}, \
                 \"pool_reused\": {}, \"pool_retries\": {}, \"tiers\": {}}}{}\n",
                r.mode,
                r.dirty_pct,
                r.requests,
                r.elapsed_s,
                r.rps,
                r.p50_us,
                r.p99_us,
                r.wire_bytes,
                r.connections,
                r.peak_queue_depth,
                r.pool_created,
                r.pool_reused,
                r.pool_retries,
                tiers_json(r),
                if i + 1 < self.results.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"connection_sweep\": [\n");
        for (i, p) in self.sweep.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"core\": \"{}\", \"connections\": {}, \"responsive\": {}, \
                 \"threads\": {}, \"elapsed_s\": {:.4}}}{}\n",
                p.core,
                p.connections,
                p.responsive,
                p.threads,
                p.elapsed_s,
                if i + 1 < self.sweep.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"speedup_pooled_over_per_call\": {");
        let mut first = true;
        for &d in &self.config.dirty_percents {
            if let Some(x) = self.speedup(d) {
                if !first {
                    s.push_str(", ");
                }
                s.push_str(&format!("\"{d}\": {x:.2}"));
                first = false;
            }
        }
        s.push_str("}\n}\n");
        s
    }
}

/// The per-tier block of one scenario's JSON entry: request count and
/// latency percentiles for every tier that actually saw traffic.
fn tiers_json(r: &ScenarioResult) -> String {
    let mut s = String::from("{");
    let mut first = true;
    for (i, tier) in Tier::ALL.iter().enumerate() {
        if r.tier_requests[i] == 0 {
            continue;
        }
        if !first {
            s.push_str(", ");
        }
        s.push_str(&format!(
            "\"{}\": {{\"requests\": {}, \"p50_us\": {:.1}, \"p99_us\": {:.1}}}",
            tier.label(),
            r.tier_requests[i],
            r.tier_p50_us[i],
            r.tier_p99_us[i],
        ));
        first = false;
    }
    s.push('}');
    s
}

/// An 18-character double distinct from [`DOUBLE_MID_W`], found by search
/// so the dirty-toggle rewrites are guaranteed width-stable (pure in-place
/// PSM, no shifting).
fn alt_mid_double() -> f64 {
    for b in 13..99 {
        let v = b as f64 + 0.345_678_901_234_567;
        if v != DOUBLE_MID_W && format_f64(v).len() == 18 {
            return v;
        }
    }
    unreachable!("some 2-digit integer part yields an 18-char double");
}

/// The two argument sets a client alternates between: all-mid, and
/// first-`dirty_pct`% swapped to the alternate 18-char value.
fn arg_pair(elems: usize, dirty_pct: usize) -> (Value, Value) {
    let base = vec![DOUBLE_MID_W; elems];
    let mut dirty = base.clone();
    let k = elems * dirty_pct / 100;
    let alt = alt_mid_double();
    for x in dirty.iter_mut().take(k) {
        *x = alt;
    }
    (Value::DoubleArray(base), Value::DoubleArray(dirty))
}

fn percentile_us(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)] as f64
}

struct ThreadOutcome {
    latencies_us: Vec<u64>,
    wire_bytes: u64,
}

/// Run one scenario: `clients` threads issue `requests_per_client`
/// requests each through `mode`'s transport against a fresh Ack server.
fn run_scenario(
    cfg: &ThroughputConfig,
    mode: &'static str,
    dirty_pct: usize,
) -> io::Result<ScenarioResult> {
    // One registry shared by every client engine, the pooled transport and
    // the server: tier counters and latency histograms aggregate the whole
    // scenario, and `GET /metrics` exposes them mid-run.
    let metrics = Metrics::shared();
    let server = TestServer::spawn_with_metrics(
        ServerMode::Ack,
        ServerOptions {
            workers: cfg.workers,
            drain_deadline: Duration::from_secs(5),
            ..ServerOptions::default()
        },
        Arc::clone(&metrics),
    )?;
    let addr = server.addr();
    let req_cfg = RequestConfig::loopback(HttpVersion::Http11Length);
    let pooled: Option<Arc<HttpPoolClient>> = (mode == "pooled").then(|| {
        let mut client = HttpPoolClient::new(
            addr,
            req_cfg.clone(),
            PoolConfig {
                max_idle: cfg.pool_size,
                ..PoolConfig::default()
            },
        );
        client.set_metrics(Arc::clone(&metrics));
        Arc::new(client)
    });

    let barrier = Arc::new(Barrier::new(cfg.clients + 1));
    let mut handles = Vec::with_capacity(cfg.clients);
    for _ in 0..cfg.clients {
        let barrier = Arc::clone(&barrier);
        let pooled = pooled.clone();
        let req_cfg = req_cfg.clone();
        let thread_metrics = Arc::clone(&metrics);
        let (elems, requests) = (cfg.elems, cfg.requests_per_client);
        handles.push(std::thread::spawn(move || -> io::Result<ThreadOutcome> {
            let mut engine = Client::new(EngineConfig::default());
            engine.set_metrics(thread_metrics);
            let op = Kind::Doubles.op();
            let endpoint = format!("http://{addr}/service");
            let (base, dirty) = arg_pair(elems, dirty_pct);
            let mut latencies_us = Vec::with_capacity(requests);
            let mut wire_bytes = 0u64;
            let mut scratch = PostScratch::default();
            barrier.wait();
            for r in 0..requests {
                let args = if r % 2 == 0 { &base } else { &dirty };
                let args = std::slice::from_ref(args);
                let t0 = Instant::now();
                let report = match &pooled {
                    Some(pool) => engine
                        .call_via(&endpoint, &op, args, |slices| {
                            let reply = pool.call(slices)?;
                            if reply.status != 200 {
                                return Err(io::Error::new(
                                    io::ErrorKind::InvalidData,
                                    format!("HTTP {}", reply.status),
                                ));
                            }
                            Ok(reply.wire_bytes)
                        })
                        .map_err(|e| io::Error::other(e.to_string()))?,
                    None => engine
                        .call_via(&endpoint, &op, args, |slices| {
                            let mut stream = TcpStream::connect(addr)?;
                            stream.set_nodelay(true)?;
                            let n =
                                post_gather_vectored(&mut stream, &req_cfg, slices, &mut scratch)?;
                            let (status, _) = read_response(&mut stream)?;
                            if status != 200 {
                                return Err(io::Error::new(
                                    io::ErrorKind::InvalidData,
                                    format!("HTTP {status}"),
                                ));
                            }
                            Ok(n)
                        })
                        .map_err(|e| io::Error::other(e.to_string()))?,
                };
                latencies_us.push(t0.elapsed().as_micros() as u64);
                wire_bytes += report.bytes as u64;
            }
            Ok(ThreadOutcome {
                latencies_us,
                wire_bytes,
            })
        }));
    }

    barrier.wait();
    let start = Instant::now();
    let mut latencies = Vec::with_capacity(cfg.clients * cfg.requests_per_client);
    let mut wire_bytes = 0u64;
    for h in handles {
        let outcome = h.join().expect("client thread panicked")?;
        latencies.extend(outcome.latencies_us);
        wire_bytes += outcome.wire_bytes;
    }
    let elapsed = start.elapsed();

    let (pool_created, pool_reused, pool_retries) = match &pooled {
        Some(p) => {
            let st = p.pool().stats();
            (st.created, st.reused, st.retries)
        }
        None => (0, 0, 0),
    };

    // Scrape /metrics while the server is still up — through the pool's
    // keep-alive path when there is one, else a one-shot GET.
    let metrics_prom = match &pooled {
        Some(p) => {
            let reply = p.get("/metrics")?;
            if reply.status != 200 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("metrics scrape returned HTTP {}", reply.status),
                ));
            }
            String::from_utf8_lossy(&reply.body).into_owned()
        }
        None => scrape_metrics(addr)?,
    };
    drop(pooled);
    let stats = server.stop();
    let total = latencies.len() as u64;
    assert_eq!(
        stats.requests, total,
        "server must have answered every request ({mode}, {dirty_pct}% dirty)"
    );

    // The registry must agree exactly with what the bench issued: one tier
    // counter tick and one latency observation per request, visible both in
    // the snapshot and in the scraped Prometheus text.
    let snap = metrics.snapshot();
    assert_eq!(
        snap.total_sends(),
        total,
        "tier counters must sum to requests issued"
    );
    let hist_counts: u64 = Tier::ALL
        .iter()
        .map(|t| snap.hist(HistId::send(*t)).count())
        .sum();
    assert_eq!(
        hist_counts, total,
        "latency histogram counts must equal requests issued"
    );
    assert_eq!(
        parse_value(&metrics_prom, "bsoap_server_requests_total"),
        Some(total as f64),
        "scraped text must report every request"
    );
    let tier_requests = snap.tier_counts();
    let tier_p50_us = std::array::from_fn(|i| {
        snap.hist(HistId::send(Tier::ALL[i])).percentile(50.0) as f64 / 1e3
    });
    let tier_p99_us = std::array::from_fn(|i| {
        snap.hist(HistId::send(Tier::ALL[i])).percentile(99.0) as f64 / 1e3
    });

    latencies.sort_unstable();
    let elapsed_s = elapsed.as_secs_f64();
    Ok(ScenarioResult {
        mode,
        dirty_pct,
        requests: total,
        elapsed_s,
        rps: total as f64 / elapsed_s.max(1e-9),
        p50_us: percentile_us(&latencies, 50.0),
        p99_us: percentile_us(&latencies, 99.0),
        wire_bytes,
        connections: stats.connections,
        peak_queue_depth: stats.peak_queue_depth,
        pool_created,
        pool_reused,
        pool_retries,
        tier_requests,
        tier_p50_us,
        tier_p99_us,
        metrics_prom,
    })
}

/// One-shot `GET /metrics` against `addr` on a fresh connection.
fn scrape_metrics(addr: std::net::SocketAddr) -> io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    let mut head = Vec::new();
    render_get_request(&mut head, "/metrics", "localhost");
    stream.write_all(&head)?;
    stream.flush()?;
    let (status, body) = read_response(&mut stream)?;
    if status != 200 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("metrics scrape returned HTTP {status}"),
        ));
    }
    Ok(String::from_utf8_lossy(&body).into_owned())
}

/// One sweep point: open `n` keep-alive connections against a fresh Ack
/// server on `core`, send one probe POST on each, then poll nonblocking
/// until every connection answered or the settle deadline passes.
fn sweep_point(sweep: &SweepConfig, core: ServerCore, n: usize) -> io::Result<SweepPoint> {
    let (core_name, threads) = match core {
        ServerCore::WorkerPool => ("worker_pool", EngineConfig::default().server_workers),
        ServerCore::EventLoop => ("event_loop", sweep.event_loop_threads),
    };
    let server = TestServer::spawn_with(
        ServerMode::Ack,
        ServerOptions {
            core,
            workers: threads,
            event_loop_threads: sweep.event_loop_threads,
            max_connections: n.max(1) * 2,
            drain_deadline: Duration::from_secs(1),
            ..ServerOptions::default()
        },
    )?;
    let addr = server.addr();

    // One probe request, framed once, written to every connection.
    let mut probe = Vec::new();
    let mut scratch = Vec::new();
    let req_cfg = RequestConfig::loopback(HttpVersion::Http11Length);
    post_gather(
        &mut probe,
        &req_cfg,
        &[IoSlice::new(b"<probe/>")],
        &mut scratch,
    )?;

    let mut socks = Vec::with_capacity(n);
    for i in 0..n {
        let s = TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        socks.push(s);
        // Pace the connect storm so the accept side (sharing one machine,
        // possibly one core) keeps the listen backlog drained.
        if i % 64 == 63 {
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    let start = Instant::now();
    for s in &mut socks {
        s.write_all(&probe)?;
        s.flush()?;
    }
    for s in &socks {
        s.set_nonblocking(true)?;
    }

    // Poll for responses: a connection is responsive once its buffered
    // reply contains a complete head (the Ack reply is head-only).
    let deadline = start + sweep.settle;
    // A point also settles once no byte has arrived for a while: the
    // worker pool's stalled majority should not burn the whole budget.
    let quiesce = Duration::from_millis(750).min(sweep.settle / 2);
    let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); n];
    let mut done = vec![false; n];
    let mut responsive = 0usize;
    let mut remaining = n;
    let mut last_answer = start;
    let mut last_progress = Instant::now();
    while remaining > 0 && Instant::now() < deadline && last_progress.elapsed() < quiesce {
        let mut progress = false;
        for i in 0..n {
            if done[i] {
                continue;
            }
            let mut chunk = [0u8; 256];
            match (&socks[i]).read(&mut chunk) {
                Ok(0) => {
                    done[i] = true;
                    remaining -= 1;
                }
                Ok(k) => {
                    progress = true;
                    bufs[i].extend_from_slice(&chunk[..k]);
                    if bufs[i].windows(4).any(|w| w == b"\r\n\r\n") {
                        done[i] = true;
                        remaining -= 1;
                        responsive += 1;
                        last_answer = Instant::now();
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => progress = true,
                Err(_) => {
                    done[i] = true;
                    remaining -= 1;
                }
            }
        }
        if progress {
            last_progress = Instant::now();
        } else {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    drop(socks);
    server.stop();

    Ok(SweepPoint {
        core: core_name,
        connections: n,
        responsive,
        threads,
        elapsed_s: (last_answer - start).as_secs_f64(),
    })
}

/// Run the scaling sweep on both cores, with the self-checks the curves
/// exist to prove: the worker pool stalls at `workers` responsive
/// connections, while the event loop keeps *every* keep-alive client
/// responsive (≥5k with ≤4 loop threads at the default points).
pub fn run_sweep(sweep: &SweepConfig) -> io::Result<Vec<SweepPoint>> {
    let mut points = Vec::new();
    for &n in &sweep.worker_pool_points {
        let p = sweep_point(sweep, ServerCore::WorkerPool, n)?;
        assert_eq!(
            p.responsive,
            n.min(p.threads),
            "worker pool must serve exactly its {} workers out of {} connections",
            p.threads,
            n
        );
        points.push(p);
    }
    if bsoap_transport::poller::supported() {
        for &n in &sweep.event_loop_points {
            let p = sweep_point(sweep, ServerCore::EventLoop, n)?;
            assert_eq!(
                p.responsive, n,
                "event loop must keep all {} connections responsive on {} loop threads",
                n, p.threads
            );
            points.push(p);
        }
    }
    Ok(points)
}

/// Run the full matrix — both modes at every dirty-fraction level — then
/// the connection sweep on both cores.
pub fn run(cfg: &ThroughputConfig) -> io::Result<ThroughputReport> {
    let mut results = Vec::new();
    for &dirty in &cfg.dirty_percents {
        for mode in ["pooled", "per_call"] {
            results.push(run_scenario(cfg, mode, dirty)?);
        }
    }
    let sweep = run_sweep(&cfg.sweep)?;
    Ok(ThroughputReport {
        config: cfg.clone(),
        results,
        sweep,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alt_double_is_18_chars_and_distinct() {
        let alt = alt_mid_double();
        assert_eq!(format_f64(alt).len(), 18);
        assert_ne!(alt, DOUBLE_MID_W);
        assert_eq!(format_f64(DOUBLE_MID_W).len(), 18);
    }

    #[test]
    fn percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_us(&v, 50.0), 51.0);
        assert_eq!(percentile_us(&v, 99.0), 99.0);
        assert_eq!(percentile_us(&[], 50.0), 0.0);
    }

    #[test]
    fn connection_sweep_scales_on_the_event_loop_only() {
        let sweep = SweepConfig {
            worker_pool_points: vec![12],
            event_loop_points: vec![24],
            event_loop_threads: 1,
            settle: Duration::from_secs(2),
        };
        let points = run_sweep(&sweep).unwrap();
        let wp = points.iter().find(|p| p.core == "worker_pool").unwrap();
        // run_sweep's own self-checks already asserted exact counts; pin
        // the shape here so the JSON curve stays meaningful.
        assert_eq!(wp.connections, 12);
        assert_eq!(wp.responsive, wp.threads.min(12));
        if bsoap_transport::poller::supported() {
            let el = points.iter().find(|p| p.core == "event_loop").unwrap();
            assert_eq!((el.connections, el.responsive), (24, 24));
            assert_eq!(el.threads, 1);
        }
    }

    #[test]
    fn smoke_run_both_modes() {
        let cfg = ThroughputConfig {
            clients: 2,
            requests_per_client: 8,
            elems: 10,
            dirty_percents: vec![50],
            sweep: SweepConfig {
                worker_pool_points: vec![8],
                event_loop_points: vec![16],
                settle: Duration::from_secs(2),
                ..SweepConfig::smoke()
            },
            ..ThroughputConfig::default()
        };
        let report = run(&cfg).unwrap();
        assert_eq!(report.results.len(), 2);
        for r in &report.results {
            assert_eq!(r.requests, 16);
            assert!(r.rps > 0.0);
            assert!(r.p50_us > 0.0);
            assert!(r.p99_us >= r.p50_us);
            // Tier accounting: counters sum to requests issued, and the
            // scraped exposition text agrees.
            assert_eq!(r.tier_requests.iter().sum::<u64>(), r.requests);
            assert_eq!(
                r.tier_requests[bsoap_obs::Tier::FirstTime.index()],
                cfg.clients as u64,
                "each client's first call serializes from scratch"
            );
            assert_eq!(
                parse_value(&r.metrics_prom, "bsoap_server_requests_total"),
                Some(r.requests as f64)
            );
            for (i, _) in bsoap_obs::Tier::ALL.iter().enumerate() {
                if r.tier_requests[i] > 0 {
                    assert!(r.tier_p99_us[i] >= r.tier_p50_us[i]);
                }
            }
        }
        let pooled = &report.results[0];
        let per_call = &report.results[1];
        assert_eq!(pooled.mode, "pooled");
        // Keep-alive: connections bounded by client count (+1 for the
        // metrics scrape); per-call pays one TCP connection per request
        // plus the scrape's.
        assert!(pooled.connections <= cfg.clients as u64 + 1 + pooled.pool_retries);
        assert_eq!(per_call.connections, 17);
        let json = report.to_json();
        assert!(json.contains("\"benchmark\": \"throughput\""));
        assert!(json.contains("\"mode\": \"pooled\""));
        assert!(json.contains("speedup_pooled_over_per_call"));
        assert!(json.contains("\"connection_sweep\""));
        assert!(json.contains("\"core\": \"worker_pool\""));
        if bsoap_transport::poller::supported() {
            assert!(json.contains("\"core\": \"event_loop\""));
        }
    }
}
