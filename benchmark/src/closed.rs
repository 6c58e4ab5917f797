//! The untraced run: a closed loop of one client thread on one keep-alive
//! loopback connection against the real server, measured in rounds.
//!
//! Callers of an RPC stub each wait for their reply, so the load is a closed
//! loop. A run is split into segments; each segment sets everything up from
//! scratch (service, server, connection, negotiation, fixed-count warm-up) and
//! then measures its share of the rounds, so `setup_s` is a median over
//! set-ups spread across the run rather than one reading.

use crate::gen::{Expect, Gen, Kind};
use crate::spec::{self, Sent, Spec, ENDPOINT};
use crate::stats::{self, Round};
use bsoap::deser::StreamingDeserializer;
use bsoap::rpc::RpcClient;
use bsoap::server::HttpServer;
use bsoap::transport::http::{HttpVersion, RequestConfig};
use bsoap::transport::{
    BodySink, HttpPoolClient, NegotiationState, PoolConfig, ServerCore, ServerMode, ServerOptions,
    TestServer,
};
use bsoap::{Client, OpDesc, SendTier, Value, WireFormat};
use std::io;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Length of one measured round.
pub const ROUND: Duration = Duration::from_millis(500);
/// Set-ups (and so segments) per run, when the run has that many rounds.
pub const SEGMENTS: usize = 5;
/// Latency samples kept per round; rounds are far shorter than this.
const SAMPLE_CAP: usize = 1 << 17;

/// What the streaming server's sink saw of one request.
#[derive(Clone, Copy, Debug)]
struct Streamed {
    items: usize,
    declared: usize,
    sum: f64,
}

/// Feeds each decoded body slice to a `StreamingDeserializer` and keeps only
/// a count and a running sum — nothing the size of the array.
struct SumSink {
    deser: Option<StreamingDeserializer>,
    items: usize,
    sum: f64,
    done: Arc<Mutex<Vec<Streamed>>>,
}

impl BodySink for SumSink {
    fn on_slice(&mut self, slice: &[u8]) -> io::Result<()> {
        let (items, sum) = (&mut self.items, &mut self.sum);
        self.deser
            .as_mut()
            .ok_or_else(|| io::Error::other("slice after finish"))?
            .push(slice, |_, v| {
                if let Value::Double(x) = v {
                    *items += 1;
                    *sum += x;
                }
                Ok(())
            })
            .map_err(|e| io::Error::other(e.to_string()))
    }

    fn finish(&mut self) -> io::Result<()> {
        let deser = self
            .deser
            .take()
            .ok_or_else(|| io::Error::other("double finish"))?;
        let declared = deser.declared_len();
        deser
            .finish()
            .map_err(|e| io::Error::other(e.to_string()))?;
        self.done.lock().expect("sink results lock").push(Streamed {
            items: self.items,
            declared,
            sum: self.sum,
        });
        Ok(())
    }
}

/// Client, server and connection of one segment.
// One value per segment, never moved in a hot path: boxing buys nothing.
#[allow(clippy::large_enum_variant)]
enum Rig {
    /// `RpcClient::call_op` → `HttpServer` on the worker-pool core.
    Rpc {
        client: RpcClient,
        server: HttpServer,
        ops: Vec<OpDesc>,
    },
    /// `Client::call_overlaid_via` + `HttpPoolClient::post_streamed` → the
    /// event-loop `TestServer` with a streaming sink (the only core that
    /// honours sinks).
    Stream {
        client: Client,
        pool: HttpPoolClient,
        server: TestServer,
        op: OpDesc,
        done: Arc<Mutex<Vec<Streamed>>>,
    },
}

impl Rig {
    fn setup(spec: &Spec) -> Result<Rig, String> {
        if spec.kind == Kind::BulkStream {
            return Self::setup_stream(spec);
        }
        let (desc, service) = spec::build_service(spec.kind);
        let ops = desc.operations.clone();
        let server = HttpServer::spawn(service).map_err(|e| format!("server spawn: {e}"))?;
        if !server.addr().ip().is_loopback() {
            return Err(format!("server bound off loopback: {}", server.addr()));
        }
        let mut client = RpcClient::connect(desc, server.addr(), spec::client_config(spec))
            .map_err(|e| format!("connect: {e}"))?;
        for op in &ops {
            client.declare_response(&op.name, spec::response_params(spec.kind));
        }
        Ok(Rig::Rpc {
            client,
            server,
            ops,
        })
    }

    fn setup_stream(spec: &Spec) -> Result<Rig, String> {
        if !bsoap::transport::poller::supported() {
            return Err("bulk_stream needs the event-loop core (epoll)".to_owned());
        }
        let op = spec::operations(spec.kind).remove(0);
        let done: Arc<Mutex<Vec<Streamed>>> = Arc::default();
        let (sink_op, sink_done) = (op.clone(), Arc::clone(&done));
        let server = TestServer::spawn_streaming(
            ServerMode::Ack,
            ServerOptions {
                core: ServerCore::EventLoop,
                event_loop_threads: 1,
                ..ServerOptions::default()
            },
            None,
            Arc::new(move |head| {
                if head.method != "POST" {
                    return None;
                }
                Some(Box::new(SumSink {
                    deser: Some(StreamingDeserializer::new(&sink_op).ok()?),
                    items: 0,
                    sum: 0.0,
                    done: Arc::clone(&sink_done),
                }))
            }),
        )
        .map_err(|e| format!("server spawn: {e}"))?;
        let pool = HttpPoolClient::new(
            server.addr(),
            RequestConfig::loopback(HttpVersion::Http11Chunked),
            PoolConfig::default(),
        );
        Ok(Rig::Stream {
            client: Client::new(spec::client_config(spec)),
            pool,
            server,
            op,
            done,
        })
    }

    /// One call: request sent → reply parsed. Returns what was sent and what
    /// came back (for the streamed call: what the server's sink saw).
    fn call(&mut self, gen: &Gen) -> Result<(Sent, Reply), String> {
        match self {
            Rig::Rpc { client, ops, .. } => {
                let (values, r) = client
                    .call_op(&ops[gen.op()], gen.args())
                    .map_err(|e| e.to_string())?;
                let sent = Sent {
                    tier: r.tier,
                    bytes: r.bytes,
                    values_written: r.values_written,
                    shifts: r.shifts,
                    steals: r.steals,
                };
                Ok((sent, Reply::Values(values)))
            }
            Rig::Stream {
                client,
                pool,
                op,
                done,
                ..
            } => {
                let (reply, r) = pool
                    .post_streamed(|w| {
                        client
                            .call_overlaid_via(ENDPOINT, op, gen.args(), |s| w.write_portion(s))
                            .map_err(|e| io::Error::other(e.to_string()))
                    })
                    .map_err(|e| e.to_string())?;
                if reply.status != 200 {
                    return Err(format!("server returned HTTP {}", reply.status));
                }
                let sent = Sent {
                    tier: r.tier,
                    bytes: r.bytes,
                    values_written: r.values_written,
                    shifts: 0,
                    steals: 0,
                };
                // The sink finishes before the 200 is written.
                let seen = done.lock().expect("sink results lock").pop();
                Ok((sent, Reply::Streamed(seen)))
            }
        }
    }

    /// Post-warm-up state the trajectory depends on.
    fn check_warm(&self, spec: &Spec) -> Result<(), String> {
        if let Rig::Rpc { client, .. } = self {
            let want = match spec.wire {
                WireFormat::CompactBinary => NegotiationState::Binary,
                WireFormat::SoapXml => NegotiationState::Xml,
            };
            if client.negotiation_state() != want {
                return Err(format!(
                    "{}: lane is {:?} after warm-up, expected {want:?}",
                    spec.name,
                    client.negotiation_state()
                ));
            }
        }
        Ok(())
    }

    fn teardown(self) {
        match self {
            Rig::Rpc { client, server, .. } => {
                // Close the connection first so the worker sees EOF and the
                // drain has nothing to wait for.
                drop(client);
                server.stop();
            }
            Rig::Stream { pool, server, .. } => {
                drop(pool);
                server.stop();
            }
        }
    }
}

enum Reply {
    Values(Vec<Value>),
    Streamed(Option<Streamed>),
}

impl Reply {
    fn matches(&self, expect: &Expect) -> bool {
        match (self, expect) {
            (Reply::Values(v), _) => spec::reply_matches(expect, v),
            (Reply::Streamed(Some(s)), Expect::Sum { total, items }) => {
                s.items == *items && s.declared == *items && s.sum.to_bits() == total.to_bits()
            }
            _ => false,
        }
    }
}

/// Everything the untraced run measured.
#[derive(Debug, Default)]
pub struct ClosedRun {
    pub rounds: Vec<Round>,
    pub setups_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Mean `SendReport.bytes` over the workload's fixed window of calls.
    pub request_bytes_per_call: f64,
    /// Measured calls by tier: first-time, content, perfect, partial.
    pub tiers: [u64; 4],
    /// The first few failures, verbatim.
    pub errors: Vec<String>,
}

impl ClosedRun {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(why);
        }
    }

    pub fn first_time_share(&self) -> f64 {
        let total: u64 = self.tiers.iter().sum();
        if total == 0 {
            0.0
        } else {
            self.tiers[0] as f64 / total as f64
        }
    }
}

pub struct ClosedOpts {
    pub seed: u64,
    pub rounds: usize,
    pub segments: usize,
    pub bulk_len: usize,
}

/// Run the closed loop. `Err` means the run could not be set up or lost its
/// connection; failed calls are counted in the result instead.
pub fn run(spec: &Spec, opts: &ClosedOpts, process_start: Instant) -> Result<ClosedRun, String> {
    let mut out = ClosedRun::default();
    let mut samples: Vec<u32> = Vec::with_capacity(SAMPLE_CAP);
    let segments = opts.segments.clamp(1, opts.rounds.max(1));
    let (mut window_bytes, mut window_calls) = (0u64, 0usize);
    for seg in 0..segments {
        // The first set-up is timed from process start, so whatever a later
        // change moves into start-up shows.
        let seg_start = if seg == 0 {
            process_start
        } else {
            Instant::now()
        };
        let mut gen = Gen::new(spec.kind, opts.seed, opts.bulk_len);
        let mut rig = Rig::setup(spec)?;
        for i in 0..spec.warmup_calls {
            gen.advance();
            let (_, reply) = rig
                .call(&gen)
                .map_err(|e| format!("{}: warm-up call {i}: {e}", spec.name))?;
            if !reply.matches(&gen.expect()) {
                return Err(format!("{}: wrong reply to warm-up call {i}", spec.name));
            }
        }
        rig.check_warm(spec)?;
        out.setups_s.push(seg_start.elapsed().as_secs_f64());

        let rounds_here = opts.rounds / segments + usize::from(seg < opts.rounds % segments);
        for _ in 0..rounds_here {
            samples.clear();
            let round_start = Instant::now();
            let mut calls = 0u64;
            let wall = loop {
                gen.advance();
                let t0 = Instant::now();
                let result = rig.call(&gen);
                let t1 = Instant::now();
                out.attempted += 1;
                let (sent, reply) =
                    result.map_err(|e| format!("{}: connection lost: {e}", spec.name))?;
                out.tiers[tier_index(sent.tier)] += 1;
                if !reply.matches(&gen.expect()) {
                    out.fail(format!("{}: wrong reply", spec.name));
                } else if let Err(why) = spec::on_trajectory(spec, gen.phase(), &sent) {
                    out.fail(why);
                } else {
                    calls += 1;
                    if samples.len() < SAMPLE_CAP {
                        samples.push((t1 - t0).as_nanos().min(u32::MAX as u128) as u32);
                    }
                    if seg == 0 && window_calls < spec.bytes_window {
                        window_bytes += sent.bytes as u64;
                        window_calls += 1;
                    }
                }
                let wall = t1 - round_start;
                if wall >= ROUND {
                    break wall;
                }
            };
            samples.sort_unstable();
            let (tail_p, _) = stats::tail_percentile(samples.len());
            // A round in which every call failed has no latency to report.
            let percentile = |p| {
                if samples.is_empty() {
                    0
                } else {
                    stats::percentile_sorted(&samples, p)
                }
            };
            out.rounds.push(Round {
                calls,
                wall_ns: wall.as_nanos() as u64,
                p50_ns: percentile(0.5),
                tail_ns: percentile(tail_p),
            });
        }
        rig.teardown();
    }
    out.request_bytes_per_call = window_bytes as f64 / window_calls.max(1) as f64;

    if spec.kind == Kind::ColdMix && out.attempted > 0 {
        if out.first_time_share() < 0.85 {
            out.fail(format!(
                "cold_mix: first-time share {:.3} below 0.85",
                out.first_time_share()
            ));
        }
        // The warm-up sent every operation, and a first-time send happens
        // only when no template is saved under the key: one in the measured
        // calls proves an eviction.
        if out.tiers[0] == 0 {
            out.fail("cold_mix: no template was ever evicted".to_owned());
        }
    }
    Ok(out)
}

pub fn tier_index(tier: SendTier) -> usize {
    match tier {
        SendTier::FirstTime => 0,
        SendTier::ContentMatch => 1,
        SendTier::PerfectStructural => 2,
        SendTier::PartialStructural => 3,
    }
}
