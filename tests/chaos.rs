//! Chaos proptest suite: the fault-tolerance layer's headline proof.
//!
//! Randomized schedules of partial writes, injected transport errors,
//! EINTR storms, and stalls past the deadline are driven through the
//! differential client, with every send routed through the production
//! [`Resilience`] layer under a bounded policy deadline — the layer that
//! detects expiry, counts `DeadlinesExceeded`, and mints the marker
//! error the client maps to a typed `DeadlineExceeded`. For every
//! schedule, three things must hold:
//!
//! 1. **Wire fidelity or typed failure** — each call either puts bytes on
//!    the wire that are pad-equivalent to a from-scratch full
//!    serialization of the same arguments, or surfaces a *typed* error
//!    ([`EngineError::Io`] with the injected kind, or
//!    [`EngineError::DeadlineExceeded`] for timeout kinds — under a
//!    bounded deadline every socket timeout is sized to the remaining
//!    budget, so `TimedOut`/`WouldBlock` from an attempt IS expiry). No
//!    wrong bytes, no untyped panics.
//! 2. **State integrity** — the saved template (when one survives) passes
//!    its structural invariants after every step, the degraded-mode
//!    ladder demotes/recovers exactly as specified, and a clean send
//!    after the schedule always succeeds with oracle-identical bytes.
//! 3. **Exact observability** — tier counters, values written, bytes
//!    sent, plan counts, deadline expiries, degraded sends, latency
//!    histogram observation counts, `ClientStats`, and
//!    Degraded/DeadlineExceeded trace events all reconcile against the
//!    executable spec (`common::spec`), after every single call.
//!
//! Everything runs on a [`VirtualClock`]: stalls "past the deadline"
//! advance virtual time, so the whole suite performs zero real sleeps.
//!
//! Every schedule runs on both wire lanes (DESIGN §3.15). Fault taxonomy,
//! typed errors, the degraded ladder and the counter model are
//! format-blind; only how `assert_wire` reads the bytes (the compact
//! frames are decoded, the pad-stripping gSOAP-style comparison being
//! XML-only) and the `SendsXml`/`SendsBinary` lane counters switch.

mod common;

use std::io::{self, IoSlice, Write};
use std::sync::Arc;
use std::time::Duration;

use bsoap::obs::{Clock, Metrics, VirtualClock};
use bsoap::{
    write_all_vectored, AttemptFailure, Client, EngineConfig, EngineError, FaultPolicy, Resilience,
    StoreKey, TemplateKey, WireFormat,
};
use common::spec::{
    apply, assert_wire, doubles, doubles_op, fail, full_xml, small_f64, update_strategy, Delivery,
    Spec, Update, Verdict,
};
use proptest::prelude::*;

/// Per-call budget the resilience policy grants each send.
const BUDGET: Duration = Duration::from_secs(5);

/// Virtual nanoseconds a stalled write burns before erroring — larger
/// than [`BUDGET`], so a stall always spends the whole budget.
const STALL_NS: u64 = 10_000_000_000;

// ---------------------------------------------------------------------
// Fault injection: a Write shim with one scheduled fault per call.
// ---------------------------------------------------------------------

/// Injected transport error kinds (the taxonomy the resilience layer
/// classifies: stale-socket kinds, hard kinds, and timeout kinds).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ErrKind {
    Reset,
    BrokenPipe,
    Aborted,
    /// Injected as a zero-byte write; the vectored-send loop converts it.
    WriteZero,
    TimedOut,
    WouldBlock,
}

impl ErrKind {
    fn io(self) -> io::ErrorKind {
        match self {
            ErrKind::Reset => io::ErrorKind::ConnectionReset,
            ErrKind::BrokenPipe => io::ErrorKind::BrokenPipe,
            ErrKind::Aborted => io::ErrorKind::ConnectionAborted,
            ErrKind::WriteZero => io::ErrorKind::WriteZero,
            ErrKind::TimedOut => io::ErrorKind::TimedOut,
            ErrKind::WouldBlock => io::ErrorKind::WouldBlock,
        }
    }
}

/// One call's fault plan.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Fault {
    /// Accept everything.
    Clean,
    /// Accept at most `cap` bytes per write call (partial writes); the
    /// send loop must resume and complete.
    Dribble { cap: usize },
    /// Return `Interrupted` for the first `hiccups` write calls, then
    /// accept everything — must NOT fail the call (EINTR is retried).
    EintrThenClean { hiccups: u8 },
    /// Accept `accept` bytes, then fail with `kind`. If the message is
    /// shorter than `accept` the fault never fires and the call succeeds.
    ErrorAfter { accept: usize, kind: ErrKind },
    /// Accept `accept` bytes, then stall past the deadline: advance the
    /// virtual clock and fail with `TimedOut`.
    StallPastDeadline { accept: usize },
}

/// What error kind the wire surfaces if this fault fires.
fn injected_kind(f: Fault) -> Option<io::ErrorKind> {
    match f {
        Fault::ErrorAfter { kind, .. } => Some(kind.io()),
        Fault::StallPastDeadline { .. } => Some(io::ErrorKind::TimedOut),
        _ => None,
    }
}

/// Whether this fault, if it fires, must be classified as deadline
/// expiry by the resilience layer: under a bounded policy deadline,
/// both timeout spellings (`TimedOut` from `connect_timeout`,
/// `WouldBlock` from `SO_RCVTIMEO`/`SO_SNDTIMEO`) mean the budget is
/// spent.
fn is_timeout_fault(f: Fault) -> bool {
    matches!(
        f,
        Fault::ErrorAfter {
            kind: ErrKind::TimedOut | ErrKind::WouldBlock,
            ..
        } | Fault::StallPastDeadline { .. }
    )
}

/// Write shim executing one [`Fault`] per call; collects the bytes it
/// accepted so successful sends can be checked against the oracle.
struct FaultyStream {
    /// Bytes accepted during the current call.
    wire: Vec<u8>,
    fault: Fault,
    taken: usize,
    hiccups_left: u8,
    /// Whether the scheduled fault actually fired this call.
    fired: bool,
    clock: Arc<VirtualClock>,
}

impl FaultyStream {
    fn new(clock: Arc<VirtualClock>) -> Self {
        FaultyStream {
            wire: Vec::new(),
            fault: Fault::Clean,
            taken: 0,
            hiccups_left: 0,
            fired: false,
            clock,
        }
    }

    fn begin_call(&mut self, fault: Fault) {
        self.wire.clear();
        self.taken = 0;
        self.fired = false;
        self.fault = fault;
        self.hiccups_left = match fault {
            Fault::EintrThenClean { hiccups } => hiccups,
            _ => 0,
        };
    }

    fn accept(&mut self, bufs: &[IoSlice<'_>], room: usize) -> usize {
        let mut n = 0;
        for b in bufs {
            if n == room {
                break;
            }
            let take = b.len().min(room - n);
            self.wire.extend_from_slice(&b[..take]);
            n += take;
        }
        self.taken += n;
        n
    }
}

impl Write for FaultyStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.write_vectored(&[IoSlice::new(buf)])
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        let total: usize = bufs.iter().map(|b| b.len()).sum();
        match self.fault {
            Fault::Clean => Ok(self.accept(bufs, total)),
            Fault::Dribble { cap } => Ok(self.accept(bufs, cap.max(1).min(total))),
            Fault::EintrThenClean { .. } => {
                if self.hiccups_left > 0 {
                    self.hiccups_left -= 1;
                    return Err(io::Error::new(io::ErrorKind::Interrupted, "injected EINTR"));
                }
                Ok(self.accept(bufs, total))
            }
            Fault::ErrorAfter { accept, kind } => {
                if self.taken >= accept {
                    self.fired = true;
                    if kind == ErrKind::WriteZero {
                        return Ok(0);
                    }
                    return Err(io::Error::new(kind.io(), "injected fault"));
                }
                Ok(self.accept(bufs, (accept - self.taken).min(total)))
            }
            Fault::StallPastDeadline { accept } => {
                if self.taken >= accept {
                    self.fired = true;
                    self.clock.advance(STALL_NS);
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "stalled past deadline",
                    ));
                }
                Ok(self.accept(bufs, (accept - self.taken).min(total)))
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Schedule driver: the client and the executable spec (`common::spec`)
// take every call together. What the *transport* saw — bytes taken, or
// which fault fired — is what the spec is told; what the engine reported
// must then be what the spec predicted.
// ---------------------------------------------------------------------

/// Run one fault schedule end to end, checking every property after
/// every call. A final clean send is appended to every schedule: after
/// arbitrary chaos, the next healthy call must succeed with bytes
/// identical to a fresh full serialization.
fn run_schedule(
    init: Vec<f64>,
    steps: &[(Update, Fault)],
    degrade_after: u32,
    format: WireFormat,
) -> Verdict {
    let op = doubles_op();
    let clock = Arc::new(VirtualClock::new());
    let metrics = Arc::new(Metrics::with_clock(Arc::clone(&clock) as Arc<dyn Clock>));
    let cfg = EngineConfig::stuffed_max()
        .with_wire_format(format)
        .with_degraded(degrade_after, 2);
    let mut client = Client::new(cfg);
    client.set_metrics(Arc::clone(&metrics));
    let mut spec = Spec::of(&cfg);
    // Sends go through the production resilience layer: it opens the
    // per-call deadline, classifies timeout kinds as expiry, counts and
    // traces `DeadlinesExceeded` (the client deliberately does not — one
    // expired call must read as one on the shared registry), and mints
    // the marker error the client maps to `DeadlineExceeded`. No policy
    // retries and no breaker: each injected fault fires exactly once.
    let resilience = {
        let mut r = Resilience::with_clock(
            FaultPolicy {
                deadline: Some(BUDGET),
                ..FaultPolicy::default()
            },
            Arc::clone(&clock) as Arc<dyn Clock>,
        );
        r.set_metrics(Arc::clone(&metrics));
        r
    };
    let mut faulty = FaultyStream::new(Arc::clone(&clock));
    let mut xs = init;

    let clean = (Update::Resend, Fault::Clean);
    for (i, (u, fault)) in steps.iter().chain([&clean]).enumerate() {
        apply(&mut xs, u);
        faulty.begin_call(*fault);
        let args = doubles(&xs);
        let res = client.call_via("ep", &op, &args, |slices| {
            resilience
                .run(|_, _| write_all_vectored(&mut faulty, slices).map_err(AttemptFailure::hard))
        });

        // Under a bounded deadline every socket timeout is sized to the
        // remaining budget, so a timeout fault that fires IS expiry.
        let delivery = match (faulty.fired, is_timeout_fault(*fault)) {
            (false, _) => Delivery::Sent(faulty.wire.len() as u64),
            (true, true) => Delivery::Expired,
            (true, false) => Delivery::Failed,
        };
        let predicted = spec.step("ep", &args, delivery);
        match (&res, delivery) {
            (Ok(report), Delivery::Sent(_)) => {
                predicted.check(report)?;
                prop_assert_eq!(report.bytes, faulty.wire.len(), "step {}: bytes", i);
                assert_wire(format, &op, &args, &faulty.wire)?;
                // The compact frame always undercuts the XML envelope
                // the same send would have cost.
                let xml = full_xml(&op, &args).len();
                prop_assert!(!format.negotiated() || faulty.wire.len() < xml);
            }
            (Err(EngineError::DeadlineExceeded), Delivery::Expired) => {}
            (Err(EngineError::Io(e)), Delivery::Failed) => {
                prop_assert_eq!(Some(e.kind()), injected_kind(*fault), "step {}", i);
            }
            (other, _) => {
                let saw = format!("{fault:?} → {delivery:?}, the call ended {other:?}");
                return Err(fail(format!("step {i}: wrong or untyped outcome: {saw}")));
            }
        }

        // Whatever the outcome, a surviving template must be internally
        // consistent, and its existence must match the spec (failures
        // before first save keep none; demotion evicts).
        let key = StoreKey::new(0, TemplateKey::for_format("ep", &op, format));
        let store = client.template_store();
        let resident = store.peek(&key, |tpl| tpl.assert_invariants()).is_some();
        prop_assert_eq!(resident, spec.has_template("ep"), "template at step {}", i);

        spec.check(&metrics.snapshot())?;
        spec.check_client(&client.stats())?;
    }

    // Deadline expiries, degraded-mode transitions, and one SendSpan per
    // differential flush, with nothing evicted from the ring.
    spec.check_traces(&metrics)
}

// ---------------------------------------------------------------------
// Strategies.
// ---------------------------------------------------------------------

fn err_kind_strategy() -> impl Strategy<Value = ErrKind> {
    prop_oneof![
        Just(ErrKind::Reset),
        Just(ErrKind::BrokenPipe),
        Just(ErrKind::Aborted),
        Just(ErrKind::WriteZero),
        Just(ErrKind::TimedOut),
        Just(ErrKind::WouldBlock),
    ]
}

fn fault_strategy() -> impl Strategy<Value = Fault> {
    prop_oneof![
        Just(Fault::Clean),
        (1usize..96).prop_map(|cap| Fault::Dribble { cap }),
        (1u8..4).prop_map(|hiccups| Fault::EintrThenClean { hiccups }),
        // Small accepts fail early (often before the first-time template
        // is saved); large accepts may never fire and the call succeeds.
        (0usize..64, err_kind_strategy())
            .prop_map(|(accept, kind)| Fault::ErrorAfter { accept, kind }),
        (0usize..4096, err_kind_strategy())
            .prop_map(|(accept, kind)| Fault::ErrorAfter { accept, kind }),
        (0usize..2048).prop_map(|accept| Fault::StallPastDeadline { accept }),
    ]
}

// ---------------------------------------------------------------------
// The chaos properties. 192 + 96 = 288 randomized fault schedules per
// default run (PROPTEST_CASES scales both).
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Default policy (no degraded mode): every schedule keeps wire
    /// fidelity, typed errors, template invariants, and exact counters.
    #[test]
    fn chaos_schedules_default_policy(
        init in prop::collection::vec(small_f64(), 0..12),
        steps in prop::collection::vec((update_strategy(32), fault_strategy()), 1..16),
        binary in any::<bool>(),
    ) {
        let format = if binary { WireFormat::CompactBinary } else { WireFormat::SoapXml };
        run_schedule(init, &steps, 0, format)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// With the degraded-mode ladder armed: demotion to stateless sends,
    /// recovery, and the DegradedSends/Degraded-trace accounting must
    /// track the reference ladder exactly.
    #[test]
    fn chaos_schedules_degraded_ladder(
        init in prop::collection::vec(small_f64(), 0..12),
        steps in prop::collection::vec((update_strategy(32), fault_strategy()), 1..16),
        degrade_after in 1u32..4,
        binary in any::<bool>(),
    ) {
        let format = if binary { WireFormat::CompactBinary } else { WireFormat::SoapXml };
        run_schedule(init, &steps, degrade_after, format)?;
    }
}

/// Fixed-seed smoke schedule visiting every fault kind, run on both
/// wire lanes with the ladder both armed and off — the deterministic
/// anchor for CI.
#[test]
fn chaos_smoke_fixed_schedule() {
    let steps = vec![
        (Update::Resend, Fault::Clean),
        (Update::Set(1, 9.5), Fault::Dribble { cap: 7 }),
        (Update::Set(2, -3.25), Fault::EintrThenClean { hiccups: 2 }),
        (
            Update::Resend,
            Fault::ErrorAfter {
                accept: 11,
                kind: ErrKind::Reset,
            },
        ),
        (
            Update::Resize(6),
            Fault::ErrorAfter {
                accept: 0,
                kind: ErrKind::WriteZero,
            },
        ),
        (Update::Set(0, 7.5), Fault::StallPastDeadline { accept: 5 }),
        (Update::Resend, Fault::Clean),
        (
            Update::Set(3, 1.0),
            Fault::ErrorAfter {
                accept: 3,
                kind: ErrKind::BrokenPipe,
            },
        ),
        (Update::Resend, Fault::Clean),
        (Update::Resend, Fault::Clean),
    ];
    for format in WireFormat::ALL {
        for degrade_after in [0, 2] {
            run_schedule(vec![1.5, 2.5, 3.5, 4.5], &steps, degrade_after, format).unwrap_or_else(
                |e| panic!("{} degrade_after {degrade_after}: {e:?}", format.name()),
            );
        }
    }
}

// ---------------------------------------------------------------------
// Server-backed chaos: the same fault taxonomy the write shim injects
// (partial writes, EINTR storms) driven over *real* sockets against the
// server, on both lanes. Every dribbled, interrupted send must reassemble
// byte-perfectly in the event loop's incremental per-connection state
// machine.
// ---------------------------------------------------------------------

#[test]
fn fragmented_chaos_sends_round_trip_on_both_lanes() {
    use bsoap::transport::http::{
        post_gather_vectored, read_response_limited, HttpVersion, PostScratch, RequestConfig,
    };
    use bsoap::transport::{ServerMode, ServerOptions, TestServer};
    use std::net::TcpStream;

    /// Write shim over a real socket: at most `cap` bytes per call, with
    /// periodic injected EINTR — the worst fragmentation a client socket
    /// can legally exhibit, now hitting a live server.
    struct FragShim<'a> {
        inner: &'a TcpStream,
        cap: usize,
        calls: usize,
        eintr_every: usize,
    }
    impl Write for FragShim<'_> {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            if self.eintr_every != 0 && self.calls.is_multiple_of(self.eintr_every) {
                return Err(io::ErrorKind::Interrupted.into());
            }
            let n = buf.len().min(self.cap);
            (&mut self.inner).write(&buf[..n])
        }
        fn flush(&mut self) -> io::Result<()> {
            (&mut self.inner).flush()
        }
    }

    for format in WireFormat::ALL {
        let server = TestServer::spawn_with(ServerMode::Collect, ServerOptions::default()).unwrap();
        let stream = TcpStream::connect(server.addr()).unwrap();
        let mut read_half = stream.try_clone().unwrap();
        let cfg = RequestConfig::loopback(HttpVersion::Http11Length);
        let op = doubles_op();
        let mut client = Client::new(EngineConfig::stuffed_max().with_wire_format(format));
        let mut xs: Vec<f64> = (0..24).map(|i| i as f64 * 0.25).collect();
        let mut sent: Vec<Vec<f64>> = Vec::new();

        // (update, fragment cap, EINTR period): every tier of the
        // differential hierarchy crosses the wire in fragments, over one
        // keep-alive connection.
        let steps: [(Update, usize, usize); 8] = [
            (Update::Resend, 3, 0),
            (Update::Set(1, 99.5), 1, 2),
            (Update::Set(5, -0.125), 7, 3),
            (Update::Resize(40), 2, 0),
            (Update::Resend, 5, 4),
            (Update::Resize(9), 1, 3),
            (Update::Set(0, 1234.5), 4, 0),
            (Update::Resend, 6, 2),
        ];
        for (u, cap, eintr_every) in steps {
            apply(&mut xs, &u);
            let mut shim = FragShim {
                inner: &stream,
                cap,
                calls: 0,
                eintr_every,
            };
            let mut scratch = PostScratch::default();
            client
                .call_via("http://svc", &op, &doubles(&xs), |s| {
                    post_gather_vectored(&mut shim, &cfg, s, &mut scratch)
                })
                .unwrap();
            let (status, _) = read_response_limited(&mut read_half, 1 << 16, 1 << 16).unwrap();
            assert_eq!(status, 200, "{format:?}");
            sent.push(xs.clone());
        }
        drop(stream);
        drop(read_half);

        let requests = server.stop_collecting();
        assert_eq!(requests.len(), sent.len(), "{format:?}");
        // Binary frames carry arbitrary bytes (raw double bits), the
        // harshest payload for fragmented reassembly.
        for (req, xs) in requests.iter().zip(&sent) {
            assert_wire(format, &op, &doubles(xs), &req.body)
                .unwrap_or_else(|e| panic!("{format:?}: reassembled body: {e:?}"));
        }
    }
}

// ---------------------------------------------------------------------
// Response-side chaos: garbage and mutated HTTP responses fed to the
// client's response reader must yield Ok or a typed io::Error — never a
// panic, never a runaway allocation.
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
enum RespMutation {
    None,
    /// Mid-response hangup: the peer closes after `keep` bytes.
    Truncate(usize),
    /// Flip bits somewhere in the response.
    Flip {
        pos: usize,
        xor: u8,
    },
    /// Garbage bytes where the status line should be.
    GarbagePrefix(Vec<u8>),
}

fn render_response(style: usize, status: u16, body: &[u8]) -> Vec<u8> {
    match style % 3 {
        0 => {
            let mut out = format!(
                "HTTP/1.1 {status} X\r\nContent-Length: {}\r\n\r\n",
                body.len()
            )
            .into_bytes();
            out.extend_from_slice(body);
            out
        }
        1 => {
            let mut out = format!(
                "HTTP/1.0 {status} X\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
                body.len()
            )
            .into_bytes();
            out.extend_from_slice(body);
            out
        }
        // No Content-Length: a framing the reader must reject, typed.
        _ => {
            let mut out = format!("HTTP/1.1 {status} X\r\n\r\n").into_bytes();
            out.extend_from_slice(body);
            out
        }
    }
}

fn mutation_strategy() -> impl Strategy<Value = RespMutation> {
    prop_oneof![
        Just(RespMutation::None),
        (0usize..512).prop_map(RespMutation::Truncate),
        (0usize..512, 1u8..=255).prop_map(|(pos, xor)| RespMutation::Flip { pos, xor }),
        prop::collection::vec(any::<u8>(), 1..64).prop_map(RespMutation::GarbagePrefix),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Mid-response hangups, flipped bytes, and pure garbage: the
    /// response reader returns Ok or a typed error and, for untouched
    /// well-framed responses, round-trips status and body exactly.
    #[test]
    fn garbage_responses_are_typed_never_fatal(
        style in 0usize..3,
        status in 100u16..600,
        body in prop::collection::vec(any::<u8>(), 0..160),
        mutation in mutation_strategy(),
    ) {
        let mut bytes = render_response(style, status, &body);
        match &mutation {
            RespMutation::None => {}
            RespMutation::Truncate(keep) => bytes.truncate(*keep % (bytes.len() + 1)),
            RespMutation::Flip { pos, xor } => {
                let n = bytes.len();
                if n > 0 {
                    bytes[pos % n] ^= xor;
                }
            }
            RespMutation::GarbagePrefix(g) => {
                let mut out = g.clone();
                out.extend_from_slice(&bytes);
                bytes = out;
            }
        }
        let input_len = bytes.len();
        let mut cursor = io::Cursor::new(bytes);
        // No caps: even so a forged length can only deliver bytes that exist.
        let res = bsoap::transport::http::read_response_limited(&mut cursor, usize::MAX, usize::MAX);
        match (&mutation, style % 3) {
            // Untouched, length-framed responses must round-trip.
            (RespMutation::None, 0) | (RespMutation::None, 1) => {
                let (got_status, got_body) = res.expect("well-formed response");
                prop_assert_eq!(got_status, status);
                prop_assert_eq!(got_body, body);
            }
            // Untouched but missing Content-Length: typed rejection.
            (RespMutation::None, _) => {
                prop_assert!(res.is_err());
            }
            // Mutated: anything goes except a panic or a wrong shape —
            // reaching this point at all is the property. A forged
            // Content-Length can only deliver bytes that exist: the body
            // is bounded by the input (no runaway allocation).
            _ => {
                if let Ok((_, b)) = res {
                    prop_assert!(b.len() <= input_len, "body larger than the input");
                }
            }
        }
    }
}
