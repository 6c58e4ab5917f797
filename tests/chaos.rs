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
//!    histogram observation counts, and Degraded/DeadlineExceeded trace
//!    events all reconcile against a reference model, after every single
//!    call.
//!
//! Everything runs on a [`VirtualClock`]: stalls "past the deadline"
//! advance virtual time, so the whole suite performs zero real sleeps.
//!
//! Every schedule runs on both wire lanes (DESIGN §3.15). The XML lane
//! proves fidelity against the gSOAP-style full-serialization oracle;
//! the compact-binary lane — whose frames the pad-stripping oracle
//! cannot read — proves it by *decoding* the captured wire with
//! [`parse_binary_envelope`] and demanding bit-exact argument recovery.
//! Fault taxonomy, typed errors, the degraded ladder, and the counter
//! model are format-blind; only the fidelity oracle and the
//! `SendsXml`/`SendsBinary` lane counters switch.

use std::io::{self, IoSlice, Write};
use std::sync::Arc;
use std::time::Duration;

use bsoap::baseline::GSoapLike;
use bsoap::convert::ScalarKind;
use bsoap::deser::parse_binary_envelope;
use bsoap::obs::{Clock, Counter, EngineStats, HistId, Metrics, TraceKind, VirtualClock};
use bsoap::xml::strip_pad;
use bsoap::{
    write_all_vectored, AttemptFailure, Client, EngineConfig, EngineError, FaultPolicy, OpDesc,
    Resilience, SendTier, StoreKey, TemplateKey, TypeDesc, Value, WidthPolicy, WireFormat,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Per-call budget the resilience policy grants each send.
const BUDGET: Duration = Duration::from_secs(5);

/// Virtual nanoseconds a stalled write burns before erroring — larger
/// than [`BUDGET`], so a stall always spends the whole budget.
const STALL_NS: u64 = 10_000_000_000;

fn doubles_op() -> OpDesc {
    OpDesc::single(
        "send",
        "urn:bench",
        "arr",
        TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double)),
    )
}

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
// Reference model: the four-tier hierarchy plus the fault-tolerance
// counters (deadline expiries, degraded-mode ladder, failure-aware
// counter attribution).
// ---------------------------------------------------------------------

/// How one call ended on the wire.
enum Outcome {
    Success { wire: u64 },
    Fail { deadline: bool },
}

/// Extends the tier reference model (`tests/tier_state_machine.rs`) with
/// failure semantics, under the one accounting rule (DESIGN §3.5): a send
/// counts its tier, lane and values when its bytes exist — whatever tier
/// it is, whatever the wire then does — while `BytesSent`, the latency
/// histograms and `DegradedSends` record only sends the transport took. A
/// template that existed keeps the new values after a failed write; a
/// fresh one is saved only once delivered.
struct ChaosModel {
    /// Bit patterns of the template contents; `None` = no template.
    saved: Option<Vec<u64>>,
    tiers: [u64; 4],
    /// Successful sends per tier (= latency histogram observations).
    hist: [u64; 4],
    values_written: u64,
    bytes_sent: u64,
    plans: u64,
    /// Differential flushes (each emits one `SendSpan` trace).
    diff_flushes: u64,
    /// Sends landed on the negotiated lane's `SendsXml`/`SendsBinary`
    /// counter: every serialized send, delivered or not.
    format_sends: u64,
    deadlines: u64,
    degraded_sends: u64,
    demotions: u64,
    recoveries: u64,
    // Degraded-ladder state, mirroring the client's per-endpoint health.
    degrade_after: u32,
    recover_after: u32,
    fails: u32,
    degraded: bool,
    degraded_successes: u32,
}

impl ChaosModel {
    fn new(degrade_after: u32, recover_after: u32) -> Self {
        ChaosModel {
            saved: None,
            tiers: [0; 4],
            hist: [0; 4],
            values_written: 0,
            bytes_sent: 0,
            plans: 0,
            diff_flushes: 0,
            format_sends: 0,
            deadlines: 0,
            degraded_sends: 0,
            demotions: 0,
            recoveries: 0,
            degrade_after,
            recover_after: recover_after.max(1),
            fails: 0,
            degraded: false,
            degraded_successes: 0,
        }
    }

    fn on_success_health(&mut self) {
        if self.degrade_after == 0 {
            return;
        }
        self.fails = 0;
        if self.degraded {
            self.degraded_successes += 1;
            if self.degraded_successes >= self.recover_after {
                self.degraded = false;
                self.degraded_successes = 0;
                self.recoveries += 1;
            }
        }
    }

    fn on_fail(&mut self, deadline: bool) {
        if deadline {
            self.deadlines += 1;
        }
        if self.degrade_after == 0 {
            return;
        }
        self.fails += 1;
        if !self.degraded && self.fails >= self.degrade_after {
            // Demotion evicts the template: stateless mode keeps nothing.
            self.degraded = true;
            self.degraded_successes = 0;
            self.demotions += 1;
            self.saved = None;
        }
    }

    /// Fold one call into the model; returns the tier a successful send
    /// must report.
    fn step(&mut self, xs: &[f64], outcome: &Outcome) -> Option<SendTier> {
        let bits: Vec<u64> = xs.iter().map(|x| x.to_bits()).collect();
        // Degraded: stateless full serialization, nothing looked up or
        // kept (demotion already evicted the template).
        let stateless = self.degrade_after > 0 && self.degraded;

        // Serialization: what it costs is decided by what is saved, and
        // it is counted before the wire is asked.
        let (tier, written) = match &self.saved {
            None => (SendTier::FirstTime, bits.len() as u64 + 1),
            Some(old) => {
                self.plans += 1;
                self.diff_flushes += 1;
                let changed = old.iter().zip(&bits).filter(|(o, n)| *o != *n).count() as u64;
                if old.len() != bits.len() {
                    (SendTier::PartialStructural, changed + 1)
                } else if changed > 0 {
                    (SendTier::PerfectStructural, changed)
                } else {
                    (SendTier::ContentMatch, 0)
                }
            }
        };
        self.tiers[tier.index()] += 1;
        self.values_written += written;
        self.format_sends += 1;

        // Delivery.
        let delivered = matches!(outcome, Outcome::Success { .. });
        if !stateless && (delivered || self.saved.is_some()) {
            self.saved = Some(bits);
        }
        match outcome {
            Outcome::Success { wire } => {
                self.hist[tier.index()] += 1;
                self.bytes_sent += wire;
                self.degraded_sends += u64::from(stateless);
                self.on_success_health();
                Some(tier)
            }
            Outcome::Fail { deadline } => {
                self.on_fail(*deadline);
                None
            }
        }
    }

    /// Assert a registry snapshot agrees with the model exactly.
    fn check(&self, snap: &EngineStats, format: WireFormat) -> Result<(), TestCaseError> {
        prop_assert_eq!(snap.tier_counts(), self.tiers, "tier counters");
        prop_assert_eq!(
            snap.total_sends(),
            self.tiers.iter().sum::<u64>(),
            "total sends"
        );
        prop_assert_eq!(
            snap.get(Counter::ValuesWritten),
            self.values_written,
            "values written"
        );
        prop_assert_eq!(snap.get(Counter::BytesSent), self.bytes_sent, "bytes sent");
        prop_assert_eq!(snap.get(Counter::PlansComputed), self.plans, "plans");
        prop_assert_eq!(snap.get(Counter::CostFallbacks), 0u64, "cost fallbacks");
        prop_assert_eq!(
            snap.get(Counter::DeadlinesExceeded),
            self.deadlines,
            "deadline expiries"
        );
        prop_assert_eq!(
            snap.get(Counter::DegradedSends),
            self.degraded_sends,
            "degraded sends"
        );
        // Zero shift/steal/split work on both lanes — via Max-width
        // stuffing on XML, and intrinsically on binary, whose
        // fixed-width numeric slots can never outgrow their region.
        prop_assert_eq!(snap.get(Counter::Shifts), 0u64);
        prop_assert_eq!(snap.get(Counter::Steals), 0u64);
        prop_assert_eq!(snap.get(Counter::Splits), 0u64);
        // Every send lands on the negotiated lane's counter and never
        // the other lane's.
        let (own, other) = match format {
            WireFormat::SoapXml => (Counter::SendsXml, Counter::SendsBinary),
            WireFormat::CompactBinary => (Counter::SendsBinary, Counter::SendsXml),
        };
        prop_assert_eq!(snap.get(own), self.format_sends, "own-lane sends");
        prop_assert_eq!(snap.get(other), 0u64, "wrong-lane sends");
        // Latency observations exist only for sends that reached the
        // wire — a failed send counts its tier but never observes a
        // latency.
        for t in SendTier::ALL {
            prop_assert_eq!(
                snap.hist(HistId::send(t)).count(),
                self.hist[t.index()],
                "latency observations for {:?}",
                t
            );
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Schedule driver.
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
enum Update {
    Set(usize, f64),
    Resize(usize),
    Resend,
}

fn apply(xs: &mut Vec<f64>, u: &Update) {
    match u {
        Update::Set(i, v) => {
            if !xs.is_empty() {
                let i = i % xs.len();
                xs[i] = *v;
            }
        }
        Update::Resize(n) => {
            let n = *n;
            if n > xs.len() {
                let start = xs.len();
                xs.extend((start..n).map(|k| k as f64 * 0.5));
            } else {
                xs.truncate(n);
            }
        }
        Update::Resend => {}
    }
}

/// Run one fault schedule end to end, checking every property after
/// every call. A final clean send is appended to every schedule: after
/// arbitrary chaos, the next healthy call must succeed with bytes
/// identical to a fresh full serialization.
fn run_schedule(
    init: Vec<f64>,
    steps: &[(Update, Fault)],
    degrade_after: u32,
    format: WireFormat,
) -> Result<(), TestCaseError> {
    let op = doubles_op();
    let clock = Arc::new(VirtualClock::new());
    let metrics = Arc::new(Metrics::with_clock(Arc::clone(&clock) as Arc<dyn Clock>));
    let cfg = EngineConfig::paper_default()
        .with_width(WidthPolicy::Max)
        .with_wire_format(format)
        .with_degraded(degrade_after, 2);
    let mut client = Client::new(cfg);
    client.set_metrics(Arc::clone(&metrics));
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
    let mut model = ChaosModel::new(degrade_after, 2);
    let mut oracle = GSoapLike::new();
    let mut xs = init;

    let mut all_steps: Vec<(Update, Fault)> = steps.to_vec();
    all_steps.push((Update::Resend, Fault::Clean));
    let last = all_steps.len() - 1;

    for (i, (u, fault)) in all_steps.iter().enumerate() {
        apply(&mut xs, u);
        faulty.begin_call(*fault);
        let args = [Value::DoubleArray(xs.clone())];
        let res = client.call_via("ep", &op, &args, |slices| {
            resilience
                .run(|_, _| write_all_vectored(&mut faulty, slices).map_err(AttemptFailure::hard))
        });

        if i == last {
            prop_assert!(
                res.is_ok(),
                "clean send after the schedule must succeed, got {:?}",
                res.as_ref().err()
            );
        }

        let outcome = match &res {
            Ok(report) => {
                prop_assert!(
                    !faulty.fired,
                    "step {}: fault {:?} fired but the call succeeded",
                    i,
                    fault
                );
                prop_assert_eq!(
                    report.bytes,
                    faulty.wire.len(),
                    "step {}: reported bytes vs wire bytes",
                    i
                );
                let full = oracle.serialize(&op, &args).unwrap().to_vec();
                match format {
                    WireFormat::SoapXml => {
                        prop_assert_eq!(
                            strip_pad(&faulty.wire),
                            strip_pad(&full),
                            "step {}: wire bytes diverge from full serialization",
                            i
                        );
                    }
                    WireFormat::CompactBinary => {
                        // The pad-stripping oracle can't read binary
                        // frames; fidelity means the wire *decodes* back
                        // to the arguments, bit-exactly.
                        let decoded = parse_binary_envelope(&faulty.wire, &op).map_err(|e| {
                            TestCaseError::Fail(format!(
                                "step {i}: binary wire does not decode: {e}"
                            ))
                        })?;
                        prop_assert_eq!(decoded.len(), 1, "step {}: param count", i);
                        let Value::DoubleArray(ds) = &decoded[0] else {
                            return Err(TestCaseError::Fail(format!(
                                "step {i}: decoded param is not a double array"
                            )));
                        };
                        let got: Vec<u64> = ds.iter().map(|x| x.to_bits()).collect();
                        let want: Vec<u64> = xs.iter().map(|x| x.to_bits()).collect();
                        prop_assert_eq!(
                            got,
                            want,
                            "step {}: decoded doubles diverge from the arguments",
                            i
                        );
                        // The compact frame always undercuts the XML
                        // envelope the same send would have cost.
                        prop_assert!(
                            faulty.wire.len() < full.len(),
                            "step {}: binary frame ({}B) not smaller than XML ({}B)",
                            i,
                            faulty.wire.len(),
                            full.len()
                        );
                    }
                }
                Outcome::Success {
                    wire: report.bytes as u64,
                }
            }
            Err(EngineError::DeadlineExceeded) => {
                prop_assert!(faulty.fired, "step {}: phantom deadline error", i);
                prop_assert!(
                    is_timeout_fault(*fault),
                    "step {}: DeadlineExceeded from a non-timeout fault {:?}",
                    i,
                    fault
                );
                Outcome::Fail { deadline: true }
            }
            Err(EngineError::Io(e)) => {
                prop_assert!(faulty.fired, "step {}: phantom I/O error {:?}", i, e);
                prop_assert!(
                    !is_timeout_fault(*fault),
                    "step {}: timeout fault under a bounded deadline must surface \
                     as DeadlineExceeded, got Io({:?})",
                    i,
                    e.kind()
                );
                prop_assert_eq!(
                    Some(e.kind()),
                    injected_kind(*fault),
                    "step {}: error kind vs injected fault {:?}",
                    i,
                    fault
                );
                Outcome::Fail { deadline: false }
            }
            Err(other) => {
                return Err(TestCaseError::Fail(format!(
                    "step {i}: untyped error escaped: {other:?}"
                )));
            }
        };

        let want_tier = model.step(&xs, &outcome);
        if let Ok(report) = &res {
            prop_assert_eq!(Some(report.tier), want_tier, "tier at step {}", i);
        }

        // Whatever the outcome, a surviving template must be internally
        // consistent, and its existence must match the model (failures
        // before first save keep none; demotion evicts).
        let key = StoreKey::new(0, TemplateKey::for_format("ep", &op, format));
        let store = client.template_store().expect("a call was made");
        prop_assert_eq!(
            store.peek(&key, |tpl| tpl.assert_invariants()).is_some(),
            model.saved.is_some(),
            "template presence at step {}",
            i
        );

        model.check(&metrics.snapshot(), format)?;
    }

    // Trace-event reconciliation: deadline expiries, degraded-mode
    // transitions, and one SendSpan per differential flush, with nothing
    // evicted from the ring.
    let (events, dropped) = metrics.trace_ring().snapshot();
    prop_assert_eq!(dropped, 0u64, "trace ring overflowed");
    let count =
        |pred: &dyn Fn(&TraceKind) -> bool| events.iter().filter(|e| pred(&e.kind)).count() as u64;
    prop_assert_eq!(
        count(&|k| matches!(k, TraceKind::DeadlineExceeded)),
        model.deadlines,
        "DeadlineExceeded trace events"
    );
    prop_assert_eq!(
        count(&|k| matches!(k, TraceKind::Degraded { on: true })),
        model.demotions,
        "demotion trace events"
    );
    prop_assert_eq!(
        count(&|k| matches!(k, TraceKind::Degraded { on: false })),
        model.recoveries,
        "recovery trace events"
    );
    prop_assert_eq!(
        count(&|k| matches!(k, TraceKind::SendSpan { .. })),
        model.diff_flushes,
        "SendSpan trace events"
    );
    Ok(())
}

// ---------------------------------------------------------------------
// Strategies.
// ---------------------------------------------------------------------

fn small_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<i32>().prop_map(|i| i as f64),
        (any::<i32>(), 1i32..1000).prop_map(|(a, b)| a as f64 / b as f64),
        any::<u64>()
            .prop_map(f64::from_bits)
            .prop_filter("finite", |x| x.is_finite()),
    ]
}

fn update_strategy() -> impl Strategy<Value = Update> {
    prop_oneof![
        (0usize..64, small_f64()).prop_map(|(i, v)| Update::Set(i, v)),
        (0usize..32).prop_map(Update::Resize),
        Just(Update::Resend),
    ]
}

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
        steps in prop::collection::vec((update_strategy(), fault_strategy()), 1..16),
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
        steps in prop::collection::vec((update_strategy(), fault_strategy()), 1..16),
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
// (partial writes, EINTR storms) driven over *real* sockets against both
// server cores. Every dribbled, interrupted send must reassemble
// byte-perfectly on the server — on the worker pool's blocking reader
// and on the event loop's incremental per-connection state machine alike.
// ---------------------------------------------------------------------

#[test]
fn fragmented_chaos_sends_round_trip_on_both_cores() {
    use bsoap::transport::http::{
        post_gather_vectored, read_response, HttpVersion, PostScratch, RequestConfig,
    };
    use bsoap::transport::{supported_cores, ServerMode, ServerOptions, TestServer};
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

    for (&core, format) in supported_cores()
        .iter()
        .flat_map(|c| WireFormat::ALL.map(move |f| (c, f)))
    {
        let server = TestServer::spawn_with(
            ServerMode::Collect,
            ServerOptions {
                core,
                ..ServerOptions::default()
            },
        )
        .unwrap();
        let stream = TcpStream::connect(server.addr()).unwrap();
        let mut read_half = stream.try_clone().unwrap();
        let cfg = RequestConfig::loopback(HttpVersion::Http11Length);
        let op = doubles_op();
        let mut client = Client::new(
            EngineConfig::paper_default()
                .with_width(WidthPolicy::Max)
                .with_wire_format(format),
        );
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
                .call_via("http://svc", &op, &[Value::DoubleArray(xs.clone())], |s| {
                    post_gather_vectored(&mut shim, &cfg, s, &mut scratch)
                })
                .unwrap();
            let (status, _) = read_response(&mut read_half).unwrap();
            assert_eq!(status, 200, "core {core:?}");
            sent.push(xs.clone());
        }
        drop(stream);
        drop(read_half);

        let requests = server.stop_collecting();
        assert_eq!(requests.len(), sent.len(), "core {core:?}");
        let mut oracle = GSoapLike::new();
        for (req, xs) in requests.iter().zip(&sent) {
            match format {
                WireFormat::SoapXml => {
                    let full = oracle
                        .serialize(&op, &[Value::DoubleArray(xs.clone())])
                        .unwrap()
                        .to_vec();
                    assert_eq!(
                        strip_pad(&req.body),
                        strip_pad(&full),
                        "core {core:?}: reassembled body diverges from full serialization"
                    );
                }
                WireFormat::CompactBinary => {
                    // Binary frames carry arbitrary bytes (raw double
                    // bits), the harshest payload for fragmented
                    // reassembly; fidelity is decode-exactness.
                    let decoded = parse_binary_envelope(&req.body, &op)
                        .unwrap_or_else(|e| panic!("core {core:?}: body does not decode: {e}"));
                    let Value::DoubleArray(ds) = &decoded[0] else {
                        panic!("core {core:?}: decoded param is not a double array");
                    };
                    let got: Vec<u64> = ds.iter().map(|x| x.to_bits()).collect();
                    let want: Vec<u64> = xs.iter().map(|x| x.to_bits()).collect();
                    assert_eq!(
                        got, want,
                        "core {core:?}: reassembled binary body diverges from the arguments"
                    );
                }
            }
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
        let res = bsoap::transport::http::read_response(&mut cursor);
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
