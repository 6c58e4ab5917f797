//! The executable spec: the one reference model of a tiered send.
//!
//! Pure, slow, obviously right. [`Spec::step`] predicts what one send of
//! `args` does — which of the four tiers (paper §3) serves it, how many
//! leaves it rewrites, whether the §5 cost gate reroutes it — by comparing
//! leaf bit patterns and array lengths against what is saved, and folds
//! the send into counters under the one accounting rule of DESIGN §3.5:
//! serialization counters tick when the bytes exist, delivery counters
//! only when the transport took them. The root suites are schedule
//! generators: each drives the engine and this spec through the same
//! calls and compares — [`Predicted::check`] against the `SendReport`,
//! [`Spec::check`] / [`Spec::check_client`] / [`Spec::check_service`]
//! against the registries, [`assert_wire`] against the bytes.
//!
//! Checks return a [`Verdict`] so a property test can `?` them and keep
//! its case seed; a plain test unwraps.

use std::collections::BTreeMap;
use std::io::{self, Write};

use bsoap::baseline::GSoapLike;
use bsoap::convert::ScalarKind;
use bsoap::obs::{Counter, EngineStats, HistId, Metrics, TraceKind};
use bsoap::server::ServiceStats;
use bsoap::xml::strip_pad;
use bsoap::{
    Client, ClientStats, EngineConfig, OpDesc, SendReport, SendTier, TypeDesc, Value, WidthPolicy,
    WireFormat,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

pub type Verdict<T = ()> = Result<T, TestCaseError>;

pub fn fail(why: String) -> TestCaseError {
    TestCaseError::Fail(why)
}

// ---------------------------------------------------------------------
// Values as the DUT sees them.
// ---------------------------------------------------------------------

/// One tracked leaf. Numbers compare by bit pattern (`NaN == NaN`,
/// `0.0 != -0.0`), as the engine's dirty check does.
#[derive(Clone, Debug, PartialEq)]
enum Leaf {
    Bits(u64),
    Text(String),
}

/// One parameter: its own leaves, or — an array — one row of leaves per
/// element (plus, in the engine, one leaf for the length).
#[derive(Clone, Debug, PartialEq)]
enum Param {
    Plain(Vec<Leaf>),
    Array(Vec<Vec<Leaf>>),
}

fn row(v: &Value) -> Vec<Leaf> {
    match v {
        Value::Int(x) => vec![Leaf::Bits(*x as u64)],
        Value::Long(x) => vec![Leaf::Bits(*x as u64)],
        Value::Double(x) => vec![Leaf::Bits(x.to_bits())],
        Value::Bool(x) => vec![Leaf::Bits(u64::from(*x))],
        Value::Str(s) => vec![Leaf::Text(s.clone())],
        Value::Struct(fields) => fields.iter().flat_map(row).collect(),
        other => panic!("{} nested in a parameter", other.variant_name()),
    }
}

fn shape(args: &[Value]) -> Vec<Param> {
    args.iter()
        .map(|v| match v {
            Value::DoubleArray(xs) => {
                Param::Array(xs.iter().map(|x| row(&Value::Double(*x))).collect())
            }
            Value::IntArray(xs) => Param::Array(xs.iter().map(|x| row(&Value::Int(*x))).collect()),
            Value::Array(elems) => Param::Array(elems.iter().map(row).collect()),
            plain => Param::Plain(row(plain)),
        })
        .collect()
}

/// What a from-scratch build serializes: every leaf, and a length per array.
fn leaf_count(params: &[Param]) -> u64 {
    let n: usize = params
        .iter()
        .map(|p| match p {
            Param::Plain(leaves) => leaves.len(),
            Param::Array(rows) => 1 + rows.iter().map(Vec::len).sum::<usize>(),
        })
        .sum();
    n as u64
}

/// `MessageTemplate::pending_tier`'s rule: a length change anywhere is a
/// partial structural match, else any changed leaf a perfect one, else a
/// content match. Rewritten = the changed leaves of the common prefix plus
/// one length leaf per resized array (appended elements are built, not
/// rewritten). Also says whether a changed leaf was text.
fn diff(old: &[Param], new: &[Param]) -> (SendTier, u64, bool) {
    let (mut changed, mut resized, mut text) = (0u64, 0u64, false);
    let mut rows = |a: &[Leaf], b: &[Leaf]| {
        for (x, _) in a.iter().zip(b).filter(|(x, y)| x != y) {
            changed += 1;
            text |= matches!(x, Leaf::Text(_));
        }
    };
    for pair in old.iter().zip(new) {
        match pair {
            (Param::Plain(a), Param::Plain(b)) => rows(a, b),
            (Param::Array(a), Param::Array(b)) => {
                a.iter().zip(b).for_each(|(x, y)| rows(x, y));
                resized += u64::from(a.len() != b.len());
            }
            _ => panic!("the operation changed shape under the spec"),
        }
    }
    let tier = match (resized, changed) {
        (0, 0) => SendTier::ContentMatch,
        (0, _) => SendTier::PerfectStructural,
        _ => SendTier::PartialStructural,
    };
    (tier, changed + resized, text)
}

// ---------------------------------------------------------------------
// The model.
// ---------------------------------------------------------------------

/// What the transport did with the bytes it was handed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Delivery {
    /// Took them: this many.
    Sent(u64),
    /// Failed with an I/O error.
    Failed,
    /// Failed because a `Resilience` sharing the registry saw the call's
    /// deadline expire (it counts and traces `DeadlinesExceeded`).
    Expired,
}

/// What one send must report.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Predicted {
    pub tier: SendTier,
    pub values_written: u64,
    /// The §5 gate discarded the template and the send rebuilt.
    pub fell_back: bool,
    /// No field can have outgrown its width: only numbers changed, into
    /// fixed-width binary slots or max-width stuffed XML fields.
    pub shift_free: bool,
}

impl Predicted {
    pub fn check(&self, r: &SendReport) -> Verdict {
        prop_assert_eq!(r.tier, self.tier, "tier");
        prop_assert_eq!(r.values_written as u64, self.values_written, "values");
        prop_assert_eq!(r.fell_back, self.fell_back, "cost-gate fallback");
        if self.shift_free {
            prop_assert_eq!((r.shifts, r.steals, r.splits), (0, 0, 0), "shift work");
        }
        Ok(())
    }
}

#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct Health {
    fails: u32,
    degraded: bool,
    successes: u32,
}

/// Every counter the sends so far must have left behind.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Tally {
    /// Serialized sends per tier (when the bytes exist).
    pub tiers: [u64; 4],
    pub values_written: u64,
    pub plans: u64,
    pub fallbacks: u64,
    /// Differential flushes: each leaves one `SendSpan` trace.
    pub flushes: u64,
    /// Some send may have had to shift, steal or split.
    pub shifted: bool,
    /// Delivered sends per tier (when the transport took them).
    pub delivered: [u64; 4],
    pub bytes_sent: u64,
    pub degraded_sends: u64,
    pub shared_clones: u64,
    pub deadlines: u64,
    pub demotions: u64,
    pub recoveries: u64,
}

/// One `(client or service, operation)`: what is saved per endpoint, the
/// degraded ladder per endpoint, and the tally.
#[derive(Clone, Debug)]
pub struct Spec {
    lane: WireFormat,
    /// Numeric fields cannot outgrow their width.
    fixed_width: bool,
    /// The §5 gate at ratio 0: any patch that costs anything is rejected.
    strict_gate: bool,
    degrade_after: u32,
    recover_after: u32,
    /// §6: an endpoint with nothing saved clones a sibling's template.
    sharing: bool,
    saved: BTreeMap<String, Vec<Param>>,
    health: BTreeMap<String, Health>,
    pub n: Tally,
}

impl Spec {
    /// The spec of an engine configured with `config`.
    pub fn of(config: &EngineConfig) -> Self {
        assert!(
            !config.cost_fallback || config.fallback_ratio == 0.0,
            "the spec models the cost gate only at ratio 0"
        );
        Spec {
            lane: config.wire_format,
            fixed_width: config.wire_format.negotiated() || config.width == WidthPolicy::Max,
            strict_gate: config.cost_fallback,
            degrade_after: config.degrade_after,
            recover_after: config.recover_after.max(1),
            sharing: false,
            saved: BTreeMap::new(),
            health: BTreeMap::new(),
            n: Tally::default(),
        }
    }

    /// §6 cross-endpoint sharing on (drive at most two endpoints: which
    /// of several siblings the store clones is not specified).
    pub fn sharing(mut self, on: bool) -> Self {
        self.sharing = on;
        self
    }

    pub fn has_template(&self, endpoint: &str) -> bool {
        self.saved.contains_key(endpoint)
    }

    pub fn is_degraded(&self, endpoint: &str) -> bool {
        self.health.get(endpoint).is_some_and(|h| h.degraded)
    }

    /// The template for `endpoint` left the store (explicit evict, budget).
    pub fn evict(&mut self, endpoint: &str) {
        self.saved.remove(endpoint);
    }

    /// Fold in one send of `args` to `endpoint` whose bytes met `delivery`.
    pub fn step(&mut self, endpoint: &str, args: &[Value], delivery: Delivery) -> Predicted {
        let now = shape(args);
        // Degraded: stateless, nothing looked up and nothing kept.
        let stateless = self.is_degraded(endpoint);
        let own = self.saved.get(endpoint).filter(|_| !stateless);
        // §6: nothing saved here, so another endpoint's template is cloned.
        let may_clone = own.is_none() && self.sharing && !stateless;
        let mut others = self.saved.iter().filter(|(ep, _)| *ep != endpoint);
        let sibling = others.next().filter(|_| may_clone).map(|(_, s)| s);
        let cloned = sibling.is_some();
        let differential = own.or(sibling).map(|old| diff(old, &now));

        // Serialization: decided by what is saved, counted before the
        // wire is asked.
        let mut patched = false;
        let mut predicted = Predicted {
            tier: SendTier::FirstTime,
            values_written: leaf_count(&now),
            fell_back: false,
            shift_free: true,
        };
        if let Some((tier, values_written, text)) = differential {
            self.n.plans += 1;
            if self.strict_gate && tier != SendTier::ContentMatch {
                // Discarded before a byte moved; rebuilt from scratch.
                self.n.fallbacks += 1;
                predicted.fell_back = true;
                self.saved.remove(endpoint);
            } else {
                patched = true;
                self.n.flushes += 1;
                predicted.tier = tier;
                predicted.values_written = values_written;
                predicted.shift_free =
                    tier == SendTier::ContentMatch || (self.fixed_width && !text);
            }
        }
        self.n.tiers[predicted.tier.index()] += 1;
        self.n.values_written += predicted.values_written;
        self.n.shifted |= !predicted.shift_free;

        // What is saved: a template that came out of the store goes back
        // with the new values whatever the wire did; a fresh one (built
        // or cloned) is saved only once delivered.
        let took = matches!(delivery, Delivery::Sent(_));
        if !stateless && (took || (patched && !cloned)) {
            self.saved.insert(endpoint.to_owned(), now);
        }

        // Delivery.
        let armed = self.degrade_after > 0;
        let health = self.health.entry(endpoint.to_owned()).or_default();
        if let Delivery::Sent(bytes) = delivery {
            self.n.delivered[predicted.tier.index()] += 1;
            self.n.bytes_sent += bytes;
            self.n.degraded_sends += u64::from(stateless);
            self.n.shared_clones += u64::from(cloned && patched);
            health.fails = 0;
            if health.degraded {
                health.successes += 1;
                if health.successes >= self.recover_after {
                    *health = Health::default();
                    self.n.recoveries += 1;
                }
            }
        } else {
            self.n.deadlines += u64::from(delivery == Delivery::Expired);
            health.fails += 1;
            if armed && !health.degraded && health.fails >= self.degrade_after {
                // Demotion evicts: stateless mode keeps nothing.
                health.degraded = true;
                health.successes = 0;
                self.n.demotions += 1;
                self.saved.remove(endpoint);
            }
        }
        predicted
    }

    /// The serialization half of the accounting rule.
    pub fn check_serialized(&self, snap: &EngineStats) -> Verdict {
        let sends: u64 = self.n.tiers.iter().sum();
        prop_assert_eq!(snap.tier_counts(), self.n.tiers, "sends by tier");
        prop_assert_eq!(snap.total_sends(), sends, "total sends");
        for lane in WireFormat::ALL {
            let want = if lane == self.lane { sends } else { 0 };
            prop_assert_eq!(snap.get(lane.send_counter()), want, "{} sends", lane.name());
        }
        let values = snap.get(Counter::ValuesWritten);
        prop_assert_eq!(values, self.n.values_written, "values written");
        prop_assert_eq!(snap.get(Counter::PlansComputed), self.n.plans, "plans");
        let fallbacks = snap.get(Counter::CostFallbacks);
        prop_assert_eq!(fallbacks, self.n.fallbacks, "cost fallbacks");
        if !self.n.shifted {
            for c in [
                Counter::Shifts,
                Counter::Steals,
                Counter::Splits,
                Counter::ShiftedBytes,
                Counter::CoalescedShiftPasses,
            ] {
                prop_assert_eq!(snap.get(c), 0, "{:?} on fixed-width fields", c);
            }
        }
        Ok(())
    }

    /// Both halves, as a client's registry must show them: the delivery
    /// half moves only for sends the transport took.
    pub fn check(&self, snap: &EngineStats) -> Verdict {
        self.check_serialized(snap)?;
        prop_assert_eq!(
            snap.get(Counter::BytesSent),
            self.n.bytes_sent,
            "bytes sent"
        );
        let degraded = snap.get(Counter::DegradedSends);
        prop_assert_eq!(degraded, self.n.degraded_sends, "degraded sends");
        let deadlines = snap.get(Counter::DeadlinesExceeded);
        prop_assert_eq!(deadlines, self.n.deadlines, "deadline expiries");
        for t in SendTier::ALL {
            let seen = snap.hist(HistId::send(t)).count();
            prop_assert_eq!(seen, self.n.delivered[t.index()], "latencies of {:?}", t);
        }
        Ok(())
    }

    pub fn check_client(&self, stats: &ClientStats) -> Verdict {
        let by_tier = [
            stats.first_time,
            stats.content_match,
            stats.perfect_structural,
            stats.partial_structural,
        ];
        prop_assert_eq!(by_tier, self.n.delivered, "ClientStats by tier");
        prop_assert_eq!(stats.bytes_sent, self.n.bytes_sent, "ClientStats bytes");
        prop_assert_eq!(stats.degraded_sends, self.n.degraded_sends, "degraded");
        prop_assert_eq!(stats.shared_clones, self.n.shared_clones, "shared clones");
        Ok(())
    }

    /// A service's responses are sends like any other (always delivered:
    /// the hand-off is a copy into the response buffer).
    pub fn check_service(&self, stats: &ServiceStats) -> Verdict {
        let by_tier = [
            stats.responses_first,
            stats.responses_content,
            stats.responses_perfect,
            stats.responses_partial,
        ];
        prop_assert_eq!(by_tier, self.n.delivered, "ServiceStats by tier");
        prop_assert_eq!(
            stats.requests,
            self.n.delivered.iter().sum::<u64>(),
            "requests"
        );
        Ok(())
    }

    /// The trace ring: one span per differential flush, one event per
    /// ladder transition and counted expiry, nothing dropped.
    pub fn check_traces(&self, metrics: &Metrics) -> Verdict {
        let (events, dropped) = metrics.trace_ring().snapshot();
        prop_assert_eq!(dropped, 0, "trace ring overflowed");
        let count =
            |want: fn(&TraceKind) -> bool| events.iter().filter(|e| want(&e.kind)).count() as u64;
        let spans = count(|k| matches!(k, TraceKind::SendSpan { .. }));
        prop_assert_eq!(spans, self.n.flushes, "SendSpan traces");
        let expiries = count(|k| matches!(k, TraceKind::DeadlineExceeded));
        prop_assert_eq!(expiries, self.n.deadlines, "DeadlineExceeded traces");
        let down = count(|k| matches!(k, TraceKind::Degraded { on: true }));
        prop_assert_eq!(down, self.n.demotions, "demotion traces");
        let up = count(|k| matches!(k, TraceKind::Degraded { on: false }));
        prop_assert_eq!(up, self.n.recoveries, "recovery traces");
        Ok(())
    }
}

// ---------------------------------------------------------------------
// The wire invariant.
// ---------------------------------------------------------------------

/// The independent full serialization of `op(args)` (always XML).
pub fn full_xml(op: &OpDesc, args: &[Value]) -> Vec<u8> {
    GSoapLike::new().serialize(op, args).unwrap().to_vec()
}

/// Wire bytes ≡ full serialization of the current values: `bytes` decode
/// on `lane` to exactly `args`, bit for bit, and on the XML lane are
/// pad-equivalent to what the gSOAP-style reference serializer emits.
pub fn assert_wire(lane: WireFormat, op: &OpDesc, args: &[Value], bytes: &[u8]) -> Verdict {
    let decoded = bsoap::deser::decode(lane, bytes, op)
        .map_err(|e| fail(format!("{} wire does not decode: {e}", lane.name())))?;
    prop_assert_eq!(shape(&decoded), shape(args), "decoded values");
    if lane == WireFormat::SoapXml {
        let full = full_xml(op, args);
        let (wire, full) = (strip_pad(bytes), strip_pad(&full));
        prop_assert!(wire == full, "wire bytes diverge from full serialization");
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Shared generators.
// ---------------------------------------------------------------------

pub fn doubles_op() -> OpDesc {
    let doubles = TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double));
    OpDesc::single("send", "urn:bench", "arr", doubles)
}

pub fn doubles(xs: &[f64]) -> [Value; 1] {
    [Value::DoubleArray(xs.to_vec())]
}

pub fn lane_client(format: WireFormat) -> Client {
    Client::new(EngineConfig::paper_default().with_wire_format(format))
}

pub fn small_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<i32>().prop_map(|i| i as f64),
        (any::<i32>(), 1i32..1000).prop_map(|(a, b)| a as f64 / b as f64),
        any::<u64>()
            .prop_map(f64::from_bits)
            .prop_filter("finite", |x| x.is_finite()),
    ]
}

/// One step of a doubles-array schedule.
#[derive(Clone, Debug)]
pub enum Update {
    /// Set element `i % len` (a no-op on an empty array).
    Set(usize, f64),
    Resize(usize),
    Resend,
}

pub fn apply(xs: &mut Vec<f64>, u: &Update) {
    match *u {
        Update::Set(i, v) if !xs.is_empty() => {
            let i = i % xs.len();
            xs[i] = v;
        }
        Update::Resize(n) if n > xs.len() => xs.extend((xs.len()..n).map(|k| k as f64 * 0.5)),
        Update::Resize(n) => xs.truncate(n),
        Update::Set(..) | Update::Resend => {}
    }
}

/// Sets, resizes below `max_len`, resends.
pub fn update_strategy(max_len: usize) -> impl Strategy<Value = Update> {
    prop_oneof![
        (0usize..64, small_f64()).prop_map(|(i, v)| Update::Set(i, v)),
        (0..max_len).prop_map(Update::Resize),
        Just(Update::Resend),
    ]
}

/// Writer that takes `accept` bytes, then fails every write: with `kind`,
/// or — `None` — with the marker-carrying `TimedOut` a `Resilience` mints
/// once a call's budget is spent.
pub struct FailingSink {
    pub accept: usize,
    pub kind: Option<io::ErrorKind>,
    pub out: Vec<u8>,
}

impl FailingSink {
    pub fn after(accept: usize, kind: io::ErrorKind) -> Self {
        let (kind, out) = (Some(kind), Vec::new());
        FailingSink { accept, kind, out }
    }

    /// Refuses every byte with the deadline marker.
    pub fn expired() -> Self {
        let (accept, kind, out) = (0, None, Vec::new());
        FailingSink { accept, kind, out }
    }
}

impl Write for FailingSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let room = self.accept - self.out.len();
        if room == 0 {
            return Err(self.kind.map_or_else(bsoap::Deadline::timed_out, |kind| {
                io::Error::new(kind, "injected")
            }));
        }
        let n = buf.len().min(room);
        self.out.extend_from_slice(&buf[..n]);
        Ok(n)
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}
