//! The traced run: each call replayed stage by stage in one thread, the
//! benchmark holding both ends of a loopback connection, with one span per
//! call into a layer's public API.
//!
//! The stages are the ones `RpcClient::call_op` and the hosted server go
//! through — template store checkout, `update_args` → `plan` →
//! `flush_planned` (or `MessageTemplate::build`), `io_slices`,
//! `post_gather_vectored`, `RequestReader::next_request`,
//! `Service::dispatch_formatted`, the response write, the response read and
//! the reply parse — so their sum, set against the closed loop's
//! `call_p50_us`, leaves what no layer accounts for: thread hand-off,
//! loopback and scheduling.
//!
//! Two things are measured by re-execution rather than as spans, because the
//! call that contains them is one opaque public function: request
//! deserialization and the handler (on a twin deserializer fed the same
//! bytes, added as twin children of `server.dispatch`), and number→ASCII
//! conversion (re-run on exactly the values the call rewrote; the planner
//! already holds the conversion, so it has no span of its own to time).
//! Re-executions run in passes of their own: between the stages of a traced
//! pass they would leave the caches cold and inflate every stage after them
//! (seen: +27 % on `patch_mid`, +45 % on `echo_small`).

use crate::gen::{self, Expect, Gen, Kind, Num};
use crate::spec::{self, HandlerFn, Sent, Spec, ENDPOINT, NAMESPACE};
use crate::trace::{Recorder, NO_PARENT};
use bsoap::baseline::GSoapLike;
use bsoap::convert::write_i32;
use bsoap::deser::{
    parse_binary_envelope, parse_envelope, BinaryDiffDeserializer, DiffDeserializer, DiffOutcome,
    StreamingDeserializer,
};
use bsoap::server::Service;
use bsoap::transport::http::{
    parse_request_head, post_gather_vectored, read_response_headers_limited, read_response_limited,
    render_response_head_extra, write_response_vectored, HttpVersion, PostScratch, RequestConfig,
    RequestReader,
};
use bsoap::transport::negotiate::{
    Negotiator, HDR_ACCEPT, HDR_FORMAT, HDR_FORMAT_LOWER, TOKEN_BINARY,
};
use bsoap::transport::stream::DEFAULT_STREAM_BUF;
use bsoap::transport::{read_head, write_gather, ChunkedBodyReader, ChunkedBodyWriter};
use bsoap::xml::{escape_text_into_with, Event, PullParser};
use bsoap::{
    Checkout, Client, EngineConfig, MessageTemplate, OpDesc, SendReport, SendTier, StoreKey,
    TemplateKey, TemplateStore, Value, WireFormat,
};
use std::hint::black_box;
use std::io::{self, IoSlice, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// A blocked single-threaded write or read is a deadlock; fail instead.
const IO_GUARD: Duration = Duration::from_secs(10);

/// The client end, counting the write calls the transport makes.
struct CountingStream {
    stream: TcpStream,
    writes: u64,
}

impl Write for CountingStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.writes += 1;
        self.stream.write(buf)
    }
    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        self.writes += 1;
        self.stream.write_vectored(bufs)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }
}

/// Counts of one traced call, read off public reports at the same
/// boundaries as the spans, plus the re-executed costs.
#[derive(Clone, Debug)]
pub struct CallCounts {
    pub sent: Sent,
    pub splits: usize,
    pub shifted_bytes: u64,
    pub slices: usize,
    pub writes: u64,
    pub wire_bytes: usize,
    pub body_bytes: usize,
    pub store_hit: bool,
    pub evicted: u64,
    pub portions: usize,
    pub window_bytes: usize,
    /// Wall time of the staged call, spans included.
    pub wall_ns: u64,
    /// The re-executions below are made only by a re-execution pass: they
    /// would leave the caches cold for the next call's stages.
    pub outcome: Option<DiffOutcome>,
    pub twin_deser_ns: u64,
    pub twin_handler_ns: u64,
    pub convert_ns: u64,
    pub convert_values: usize,
    /// Serialized bytes of the values the call rewrote.
    pub dirty_bytes: usize,
    pub escape_ns: u64,
    pub escape_bytes: usize,
    pub pull_ns: u64,
    pub baseline_ns: u64,
}

impl CallCounts {
    /// Counts of a call that sent `sent`, everything else still zero.
    fn new(sent: Sent, wall_ns: u64) -> Self {
        CallCounts {
            sent,
            splits: 0,
            shifted_bytes: 0,
            slices: 0,
            writes: 0,
            wire_bytes: 0,
            body_bytes: 0,
            store_hit: false,
            evicted: 0,
            portions: 0,
            window_bytes: 0,
            wall_ns,
            outcome: None,
            twin_deser_ns: 0,
            twin_handler_ns: 0,
            convert_ns: 0,
            convert_values: 0,
            dirty_bytes: 0,
            escape_ns: 0,
            escape_bytes: 0,
            pull_ns: 0,
            baseline_ns: 0,
        }
    }
}

/// One staged pass over the first calls of a seed.
pub struct Pass {
    pub calls: Vec<CallCounts>,
    pub failures: Vec<String>,
    /// Template bytes resident in the client's store when the pass ended.
    pub store_resident_bytes: u64,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn loopback_pair() -> Result<(TcpStream, TcpStream), String> {
    let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(err)?;
    let client = TcpStream::connect(listener.local_addr().map_err(err)?).map_err(err)?;
    let (server, peer) = listener.accept().map_err(err)?;
    if !peer.ip().is_loopback() {
        return Err(format!("peer {peer} is not on loopback"));
    }
    for s in [&client, &server] {
        s.set_nodelay(true).map_err(err)?;
        s.set_read_timeout(Some(IO_GUARD)).map_err(err)?;
        s.set_write_timeout(Some(IO_GUARD)).map_err(err)?;
    }
    Ok((client, server))
}

fn wire_format_of(token: &str) -> WireFormat {
    WireFormat::from_name(token).unwrap_or(WireFormat::SoapXml)
}

fn content_type(format: WireFormat) -> &'static str {
    match format {
        WireFormat::SoapXml => "text/xml; charset=utf-8",
        WireFormat::CompactBinary => "application/x-bsoap-binary",
    }
}

/// Re-run the conversion of `nums`; returns `(ns, serialized bytes)`. On the
/// binary lane nothing is converted: values are copied at fixed width.
fn reconvert(cfg: &EngineConfig, format: WireFormat, nums: &[Num]) -> (u64, usize) {
    if format == WireFormat::CompactBinary {
        let bytes = nums
            .iter()
            .map(|n| match n {
                Num::F(_) => 8,
                Num::I(_) => 4,
            })
            .sum();
        return (0, bytes);
    }
    let mut buf = [0u8; 32];
    let mut bytes = 0;
    let t0 = Instant::now();
    for n in nums {
        bytes += match *n {
            Num::F(v) => cfg.float.write_f64(&mut buf, black_box(v)),
            Num::I(i) => write_i32(&mut buf, black_box(i)),
        };
        black_box(&buf);
    }
    (t0.elapsed().as_nanos() as u64, bytes)
}

/// Tokenise an XML body to the end; returns ns spent.
fn pull_all(body: &[u8]) -> Result<u64, String> {
    let t0 = Instant::now();
    let mut parser = PullParser::new(body);
    loop {
        match parser.next_event().map_err(err)? {
            Event::Eof => break,
            ev => {
                black_box(&ev);
            }
        }
    }
    Ok(t0.elapsed().as_nanos() as u64)
}

/// Both ends of the buffered (non-streamed) exchange.
struct Buffered {
    cfg: EngineConfig,
    ops: Vec<OpDesc>,
    resp_descs: Vec<OpDesc>,
    store: TemplateStore,
    negotiator: Negotiator,
    req_cfg: RequestConfig,
    scratch: PostScratch,
    client: CountingStream,
    reader: RequestReader<TcpStream>,
    server: TcpStream,
    service: Service,
    handler: HandlerFn,
    twin_xml: Vec<DiffDeserializer>,
    twin_bin: Vec<BinaryDiffDeserializer>,
    head_scratch: Vec<u8>,
    gsoap: GSoapLike,
    leaves: Vec<Num>,
    escaped: Vec<u8>,
}

impl Buffered {
    fn new(spec: &Spec) -> Result<Self, String> {
        let (desc, service) = spec::build_service(spec.kind);
        let ops = desc.operations;
        let cfg = spec::client_config(spec);
        let server_cfg = spec::server_config();
        let (client, server) = loopback_pair()?;
        let reader = RequestReader::with_limits(
            server.try_clone().map_err(err)?,
            server_cfg.max_head_bytes,
            server_cfg.max_body_bytes,
        );
        Ok(Buffered {
            resp_descs: ops
                .iter()
                .map(|op| {
                    OpDesc::new(
                        &format!("{}Response", op.name),
                        NAMESPACE,
                        spec::response_params(spec.kind),
                    )
                })
                .collect(),
            store: TemplateStore::new(cfg.store_budget_bytes, cfg.tenant_quota_bytes),
            negotiator: Negotiator::new(cfg.wire_format == WireFormat::CompactBinary),
            req_cfg: RequestConfig {
                path: "/".to_owned(),
                host: "127.0.0.1".to_owned(),
                soap_action: String::new(),
                version: HttpVersion::Http11Length,
                extra_headers: Vec::new(),
            },
            scratch: PostScratch::default(),
            client: CountingStream {
                stream: client,
                writes: 0,
            },
            reader,
            server,
            service,
            handler: spec::handler(spec.kind),
            twin_xml: ops.iter().cloned().map(DiffDeserializer::new).collect(),
            twin_bin: ops
                .iter()
                .cloned()
                .map(BinaryDiffDeserializer::new)
                .collect(),
            head_scratch: Vec::new(),
            gsoap: GSoapLike::new(),
            leaves: Vec::new(),
            escaped: Vec::new(),
            cfg,
            ops,
        })
    }

    fn call<R: Recorder>(
        &mut self,
        rec: &mut R,
        gen: &Gen,
        call_id: u32,
        twin: bool,
        reexecute: bool,
    ) -> Result<CallCounts, String> {
        let op = &self.ops[gen.op()];
        let args = gen.args();
        let wall = Instant::now();
        rec.begin_call(call_id);
        let t_root = rec.now();
        let root = rec.open("rpc.call", NO_PARENT, t_root);

        // Client: lane, headers, template look-up (what `RpcClient::exchange`
        // and `Client::call_via` do before the tier work).
        let format = wire_format_of(self.negotiator.body_token());
        self.req_cfg.soap_action = format!("{NAMESPACE}#{}", op.name);
        self.req_cfg.extra_headers = self.negotiator.request_headers();
        let t = rec.now();
        let skey = StoreKey::new(0, TemplateKey::for_format(ENDPOINT, op, format));
        let checkout = self.store.checkout(&skey, args, 1);
        rec.span("core.store", root, t, rec.now());

        let (tpl, store_hit, report, shifted_bytes) = match checkout {
            Checkout::Hit(mut tpl) => {
                let shifted_before = tpl.stats().shifted_bytes;
                let t0 = rec.now();
                tpl.update_args(args).map_err(err)?;
                let t1 = rec.now();
                rec.span("core.diff", root, t0, t1);
                let plan = tpl.plan().map_err(err)?;
                let t2 = rec.now();
                rec.span("core.plan", root, t1, t2);
                let report = tpl.flush_planned(&plan).map_err(err)?;
                rec.span("core.patch", root, t2, rec.now());
                let shifted = tpl.stats().shifted_bytes - shifted_before;
                (tpl, true, report, shifted)
            }
            Checkout::MissEmpty | Checkout::MissVariant => {
                let t0 = rec.now();
                let tpl = MessageTemplate::build(self.cfg.with_wire_format(format), op, args)
                    .map_err(err)?;
                rec.span("core.build", root, t0, rec.now());
                let report = SendReport {
                    tier: SendTier::FirstTime,
                    bytes: 0,
                    values_written: tpl.leaf_count(),
                    shifts: 0,
                    steals: 0,
                    splits: 0,
                    fell_back: false,
                };
                (tpl, false, report, 0)
            }
        };

        let t0 = rec.now();
        let slices = tpl.io_slices();
        let t1 = rec.now();
        rec.span("core.gather", root, t0, t1);
        let slice_count = slices.len();
        self.client.writes = 0;
        let wire_bytes =
            post_gather_vectored(&mut self.client, &self.req_cfg, &slices, &mut self.scratch)
                .map_err(err)?;
        let t2 = rec.now();
        rec.span("transport.post", root, t1, t2);
        drop(slices);
        let body_bytes = tpl.message_len();
        let evicted = self.store.admit(skey, tpl, 1);
        let t3 = rec.now();
        rec.span("core.store", root, t2, t3);

        // Server: read, dispatch, respond (what `host::serve_connection` does).
        let (head, body) = self
            .reader
            .next_request()
            .map_err(err)?
            .ok_or("server end saw EOF")?;
        let t4 = rec.now();
        rec.span("transport.req_read", root, t3, t4);
        let req_format = head
            .header(HDR_FORMAT_LOWER)
            .map_or(WireFormat::SoapXml, wire_format_of);
        let op_name = head
            .header("soapaction")
            .and_then(|a| a.trim().trim_matches('"').rsplit_once('#'))
            .map(|(_, name)| name.to_owned())
            .ok_or("request without SOAPAction")?;
        let (response, resp_format) = self
            .service
            .dispatch_formatted(&op_name, &body, req_format)
            .map_err(err)?;
        let t5 = rec.now();
        rec.span("server.dispatch", root, t4, t5);
        render_response_head_extra(
            &mut self.head_scratch,
            200,
            "OK",
            content_type(resp_format),
            response.len(),
            &[
                (HDR_FORMAT, resp_format.name().to_owned()),
                (HDR_ACCEPT, TOKEN_BINARY.to_owned()),
            ],
        );
        write_gather(
            &mut self.server,
            &[IoSlice::new(&self.head_scratch), IoSlice::new(&response)],
        )
        .and_then(|_| self.server.flush())
        .map_err(err)?;
        let t6 = rec.now();
        rec.span("transport.resp_write", root, t5, t6);

        // Client: read and parse the reply.
        let (status, headers, reply_body) =
            read_response_headers_limited(&mut self.client.stream, usize::MAX, usize::MAX)
                .map_err(err)?;
        let t7 = rec.now();
        rec.span("transport.resp_read", root, t6, t7);
        self.negotiator.observe_response(&headers);
        let reply_binary = headers
            .iter()
            .any(|(n, v)| n == HDR_FORMAT_LOWER && v.eq_ignore_ascii_case(TOKEN_BINARY));
        let resp_desc = &self.resp_descs[gen.op()];
        let reply = if reply_binary {
            parse_binary_envelope(&reply_body, resp_desc)
        } else {
            parse_envelope(&reply_body, resp_desc)
        }
        .map_err(err)?;
        let t8 = rec.now();
        rec.span("deser.reply", root, t7, t8);
        rec.close(root, t8);
        let wall_ns = wall.elapsed().as_nanos() as u64;

        // Correctness: the reply carries the value computed from the
        // arguments, and the bytes that reached the server parse back to them.
        if status != 200 {
            return Err(format!("HTTP {status}"));
        }
        if !spec::reply_matches(&gen.expect(), &reply) {
            return Err("wrong reply".to_owned());
        }
        let parsed = match req_format {
            WireFormat::SoapXml => parse_envelope(&body, op),
            WireFormat::CompactBinary => parse_binary_envelope(&body, op),
        }
        .map_err(err)?;
        if parsed != args {
            return Err("request bytes do not parse back to the arguments".to_owned());
        }

        let mut counts = CallCounts {
            splits: report.splits,
            shifted_bytes,
            slices: slice_count,
            writes: self.client.writes,
            wire_bytes,
            body_bytes,
            store_hit,
            evicted,
            ..CallCounts::new(
                Sent {
                    tier: report.tier,
                    bytes: body_bytes,
                    values_written: report.values_written,
                    shifts: report.shifts,
                    steals: report.steals,
                },
                wall_ns,
            )
        };
        if !twin {
            return Ok(counts);
        }

        // Twin: the same bytes through a deserializer of our own (from the
        // first warm-up call on, so it holds the reference message the
        // service's own deserializer holds), then the same handler on what it
        // parsed.
        let t0 = Instant::now();
        let (twin_args, outcome) = match req_format {
            WireFormat::SoapXml => self.twin_xml[gen.op()].deserialize(&body),
            WireFormat::CompactBinary => self.twin_bin[gen.op()].deserialize(&body),
        }
        .map_err(err)?;
        counts.twin_deser_ns = t0.elapsed().as_nanos() as u64;
        let t1 = Instant::now();
        black_box((self.handler)(twin_args)).map_err(err)?;
        counts.twin_handler_ns = t1.elapsed().as_nanos() as u64;
        counts.outcome = Some(outcome);
        if !reexecute {
            return Ok(counts);
        }

        // Re-executions, reported beside the stage that contains them.
        let nums: &[Num] = if report.tier == SendTier::FirstTime {
            self.leaves.clear();
            gen::collect_leaves(args, &mut self.leaves);
            &self.leaves
        } else {
            gen.changed()
        };
        (counts.convert_ns, counts.dirty_bytes) = reconvert(&self.cfg, format, nums);
        counts.convert_values = nums.len();
        if format == WireFormat::SoapXml {
            if let Some(Value::Str(label)) = args.first() {
                self.escaped.clear();
                let t0 = Instant::now();
                escape_text_into_with(&mut self.escaped, black_box(label), self.cfg.kernel);
                counts.escape_ns = t0.elapsed().as_nanos() as u64;
                counts.escape_bytes = label.len();
                black_box(&self.escaped);
            }
            counts.pull_ns = pull_all(&body)?;
        }
        let t0 = Instant::now();
        black_box(self.gsoap.serialize(op, args).map_err(err)?);
        counts.baseline_ns = t0.elapsed().as_nanos() as u64;
        Ok(counts)
    }
}

/// Both ends of the streamed exchange (`bulk_stream`): every overlay portion
/// is written as one HTTP chunk, then read and parsed on the server end
/// before the next is serialized, so no socket buffer ever has to hold more
/// than a window.
struct Streamed {
    cfg: EngineConfig,
    op: OpDesc,
    engine: Client,
    req_cfg: RequestConfig,
    client: CountingStream,
    server: TcpStream,
    head_scratch: Vec<u8>,
    gsoap: GSoapLike,
    leaves: Vec<Num>,
}

impl Streamed {
    fn new(spec: &Spec) -> Result<Self, String> {
        let cfg = spec::client_config(spec);
        let (client, server) = loopback_pair()?;
        Ok(Streamed {
            op: spec::operations(spec.kind).remove(0),
            engine: Client::new(cfg),
            req_cfg: RequestConfig::loopback(HttpVersion::Http11Chunked),
            client: CountingStream {
                stream: client,
                writes: 0,
            },
            server,
            head_scratch: Vec::new(),
            gsoap: GSoapLike::new(),
            leaves: Vec::new(),
            cfg,
        })
    }

    fn call<R: Recorder>(
        &mut self,
        rec: &mut R,
        gen: &Gen,
        call_id: u32,
        reexecute: bool,
    ) -> Result<CallCounts, String> {
        let Streamed {
            cfg,
            op,
            engine,
            req_cfg,
            client,
            server,
            head_scratch,
            gsoap,
            leaves,
        } = self;
        let args = gen.args();
        let server_cfg = spec::server_config();
        let wall = Instant::now();
        rec.begin_call(call_id);
        let t_root = rec.now();
        let root = rec.open("rpc.call", NO_PARENT, t_root);

        client.writes = 0;
        let mut writer =
            ChunkedBodyWriter::start(&mut *client, req_cfg, head_scratch, None).map_err(err)?;
        let t1 = rec.now();
        rec.span("transport.post", root, t_root, t1);
        let (head, leftover) = read_head(&mut *server, server_cfg.max_head_bytes)
            .map_err(err)?
            .ok_or("server end saw EOF")?;
        parse_request_head(&head).map_err(err)?;
        let mut reader = ChunkedBodyReader::with_capacity(
            &mut *server,
            leftover,
            DEFAULT_STREAM_BUF,
            server_cfg.max_body_bytes,
        );
        let mut deser = StreamingDeserializer::new(op).map_err(err)?;
        let t2 = rec.now();
        rec.span("transport.req_read", root, t1, t2);

        let (mut items, mut sum) = (0usize, 0.0f64);
        let overlay = rec.open("core.overlay", root, t2);
        let report = engine
            .call_overlaid_via(ENDPOINT, op, args, |slices| {
                let a = rec.now();
                let n = writer.write_portion(slices)?;
                let mut b = rec.now();
                rec.span("transport.post", overlay, a, b);
                while reader.body_bytes() < writer.body_bytes() {
                    let slice = reader
                        .next_slice()?
                        .ok_or_else(|| io::Error::other("body ended early"))?;
                    let c = rec.now();
                    rec.span("transport.req_read", overlay, b, c);
                    deser
                        .push(slice, |_, v| {
                            if let Value::Double(x) = v {
                                items += 1;
                                sum += x;
                            }
                            Ok(())
                        })
                        .map_err(|e| io::Error::other(e.to_string()))?;
                    b = rec.now();
                    rec.span("deser.request", overlay, c, b);
                }
                Ok(n)
            })
            .map_err(err)?;
        let t3 = rec.now();
        rec.close(overlay, t3);

        let (wire_bytes, body_bytes, _) = writer.finish().map_err(err)?;
        let t4 = rec.now();
        rec.span("transport.post", root, t3, t4);
        if reader.next_slice().map_err(err)?.is_some() {
            return Err("body bytes after the last portion".to_owned());
        }
        let t5 = rec.now();
        rec.span("transport.req_read", root, t4, t5);
        let declared = deser.declared_len();
        deser.finish().map_err(err)?;
        let t6 = rec.now();
        rec.span("deser.request", root, t5, t6);
        drop(reader);
        write_response_vectored(&mut *server, 200, "OK", &[], head_scratch).map_err(err)?;
        let t7 = rec.now();
        rec.span("transport.resp_write", root, t6, t7);
        let (status, _) =
            read_response_limited(&mut client.stream, usize::MAX, usize::MAX).map_err(err)?;
        let t8 = rec.now();
        rec.span("transport.resp_read", root, t7, t8);
        rec.close(root, t8);
        let wall_ns = wall.elapsed().as_nanos() as u64;

        if status != 200 {
            return Err(format!("HTTP {status}"));
        }
        let Expect::Sum {
            total,
            items: expected,
        } = gen.expect()
        else {
            unreachable!("bulk_stream expects a sum")
        };
        if items != expected || declared != expected || sum.to_bits() != total.to_bits() {
            return Err(format!(
                "sink saw {items} items (declared {declared}), sum {sum}; expected {expected}, {total}"
            ));
        }

        let mut counts = CallCounts {
            writes: client.writes,
            wire_bytes,
            body_bytes,
            store_hit: report.tier != SendTier::FirstTime,
            portions: report.portions,
            window_bytes: report.window_bytes,
            ..CallCounts::new(
                Sent {
                    tier: report.tier,
                    bytes: report.bytes,
                    values_written: report.values_written,
                    shifts: 0,
                    steals: 0,
                },
                wall_ns,
            )
        };
        if !reexecute {
            return Ok(counts);
        }
        // The window is reused for every portion, so a streamed send
        // re-serializes every element whatever share of them changed.
        leaves.clear();
        gen::collect_leaves(args, leaves);
        (counts.convert_ns, counts.dirty_bytes) = reconvert(cfg, WireFormat::SoapXml, leaves);
        counts.convert_values = leaves.len();
        let t0 = Instant::now();
        black_box(gsoap.serialize(op, args).map_err(err)?);
        counts.baseline_ns = t0.elapsed().as_nanos() as u64;
        Ok(counts)
    }
}

enum Ends {
    Buffered(Box<Buffered>),
    Streamed(Box<Streamed>),
}

/// Replay warm-up plus `traced_calls` calls of `seed` through fresh ends.
/// Only the traced calls are recorded and counted. With `reexecute`, each
/// traced call is followed by the twin and re-executed measurements. A call
/// that errors ends the pass (the connection state is unknown after it).
pub fn run_pass<R: Recorder>(
    spec: &Spec,
    seed: u64,
    traced_calls: usize,
    bulk_len: usize,
    rec: &mut R,
    reexecute: bool,
) -> Result<Pass, String> {
    let mut ends = match spec.kind {
        Kind::BulkStream => Ends::Streamed(Box::new(Streamed::new(spec)?)),
        _ => Ends::Buffered(Box::new(Buffered::new(spec)?)),
    };
    let mut gen = Gen::new(spec.kind, seed, bulk_len);
    let mut pass = Pass {
        calls: Vec::with_capacity(traced_calls),
        failures: Vec::new(),
        store_resident_bytes: 0,
    };
    for i in 0..spec.warmup_calls + traced_calls {
        let traced = i >= spec.warmup_calls;
        rec.set_live(traced);
        gen.advance();
        let result = match &mut ends {
            Ends::Buffered(b) => b.call(rec, &gen, i as u32, reexecute, reexecute && traced),
            Ends::Streamed(s) => s.call(rec, &gen, i as u32, reexecute && traced),
        };
        let counts = result.map_err(|e| format!("{}: staged call {i}: {e}", spec.name))?;
        if !traced {
            continue;
        }
        if let Err(why) = spec::on_trajectory(spec, gen.phase(), &counts.sent) {
            pass.failures.push(why);
        }
        pass.calls.push(counts);
    }
    if let Ends::Buffered(b) = &ends {
        pass.store_resident_bytes = b.store.resident_bytes();
    }
    Ok(pass)
}
