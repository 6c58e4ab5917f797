//! The four-tier matching logic as a state machine (paper §3).
//!
//! Drives a client through crafted call sequences and asserts the exact
//! tier each send takes, that tier costs are ordered the way the paper
//! claims (content ≤ perfect ≤ partial ≤ first in values written), and
//! that statistics account for every call.

use std::sync::Arc;

use bsoap::convert::ScalarKind;
use bsoap::obs::{Counter, EngineStats, HistId, Metrics, VirtualClock};
use bsoap::transport::SinkTransport;
use bsoap::{
    mio, Client, EngineConfig, OpDesc, SendTier, StoreKey, TemplateKey, TypeDesc, Value,
    WidthPolicy, WireFormat,
};

fn doubles_op() -> OpDesc {
    OpDesc::single(
        "send",
        "urn:bench",
        "arr",
        TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double)),
    )
}

/// The tier ladder sits above the lane: the tests that take a client from
/// here run on both.
fn lane_client(format: WireFormat) -> Client {
    Client::new(EngineConfig::paper_default().with_wire_format(format))
}

fn call(
    client: &mut Client,
    sink: &mut SinkTransport,
    op: &OpDesc,
    xs: &[f64],
) -> bsoap::SendReport {
    client
        .call("ep", op, &[Value::DoubleArray(xs.to_vec())], sink)
        .expect("call")
}

#[test]
fn canonical_tier_sequence() {
    for format in WireFormat::ALL {
        let op = doubles_op();
        let mut client = lane_client(format);
        let mut sink = SinkTransport::new();

        let r = call(&mut client, &mut sink, &op, &[1.5, 2.5, 3.5]);
        assert_eq!(r.tier, SendTier::FirstTime);

        let r = call(&mut client, &mut sink, &op, &[1.5, 2.5, 3.5]);
        assert_eq!(r.tier, SendTier::ContentMatch);
        assert_eq!(r.values_written, 0, "content match writes nothing");

        let r = call(&mut client, &mut sink, &op, &[1.5, 9.5, 3.5]);
        assert_eq!(r.tier, SendTier::PerfectStructural);
        assert_eq!(r.values_written, 1, "only the changed value is written");

        let r = call(&mut client, &mut sink, &op, &[1.5, 9.5, 3.5, 4.5]);
        assert_eq!(r.tier, SendTier::PartialStructural);

        let r = call(&mut client, &mut sink, &op, &[1.5, 9.5, 3.5, 4.5]);
        assert_eq!(
            r.tier,
            SendTier::ContentMatch,
            "resize settles back to content matches"
        );

        let stats = client.stats();
        assert_eq!(stats.calls(), 5);
        assert_eq!(
            (
                stats.first_time,
                stats.content_match,
                stats.perfect_structural,
                stats.partial_structural
            ),
            (1, 2, 1, 1)
        );
    }
}

#[test]
fn same_bits_rewrite_is_content_match() {
    for format in WireFormat::ALL {
        // Writing the same f64 bits must not dirty the leaf (the DUT's
        // bitwise comparison), including the NaN == NaN case.
        let op = doubles_op();
        let mut client = lane_client(format);
        let mut sink = SinkTransport::new();
        call(&mut client, &mut sink, &op, &[f64::NAN, 1.5]);
        let r = call(&mut client, &mut sink, &op, &[f64::NAN, 1.5]);
        assert_eq!(r.tier, SendTier::ContentMatch);

        // 0.0 vs -0.0 have different bits AND different lexical forms.
        let r = call(&mut client, &mut sink, &op, &[f64::NAN, -0.0]);
        assert_eq!(r.tier, SendTier::PerfectStructural);
        assert_eq!(r.values_written, 1);
    }
}

#[test]
fn zero_length_boundary_cases() {
    for format in WireFormat::ALL {
        let op = doubles_op();
        let mut client = lane_client(format);
        let mut sink = SinkTransport::new();

        let r = call(&mut client, &mut sink, &op, &[]);
        assert_eq!(r.tier, SendTier::FirstTime);
        let r = call(&mut client, &mut sink, &op, &[]);
        assert_eq!(r.tier, SendTier::ContentMatch);
        let r = call(&mut client, &mut sink, &op, &[1.5]);
        assert_eq!(r.tier, SendTier::PartialStructural);
        let r = call(&mut client, &mut sink, &op, &[]);
        assert_eq!(r.tier, SendTier::PartialStructural);
        let r = call(&mut client, &mut sink, &op, &[]);
        assert_eq!(r.tier, SendTier::ContentMatch);
    }
}

#[test]
fn multi_param_dirty_tracking_spans_params() {
    for format in WireFormat::ALL {
        let op = OpDesc::new(
            "f",
            "urn:x",
            vec![
                bsoap::ParamDesc {
                    name: "id".into(),
                    desc: TypeDesc::Scalar(ScalarKind::Int),
                },
                bsoap::ParamDesc {
                    name: "xs".into(),
                    desc: TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double)),
                },
                bsoap::ParamDesc {
                    name: "tag".into(),
                    desc: TypeDesc::Scalar(ScalarKind::Str),
                },
            ],
        );
        let mut client = lane_client(format);
        let mut sink = SinkTransport::new();
        let args = |id: i32, xs: Vec<f64>, s: &str| {
            vec![Value::Int(id), Value::DoubleArray(xs), Value::Str(s.into())]
        };

        client
            .call("ep", &op, &args(1, vec![1.5, 2.5], "abc"), &mut sink)
            .unwrap();
        // Change only the trailing string (same length → no shift).
        let r = client
            .call("ep", &op, &args(1, vec![1.5, 2.5], "xyz"), &mut sink)
            .unwrap();
        assert_eq!(r.tier, SendTier::PerfectStructural);
        assert_eq!(r.values_written, 1);
        // Change the leading int and one array element.
        let r = client
            .call("ep", &op, &args(2, vec![9.5, 2.5], "xyz"), &mut sink)
            .unwrap();
        assert_eq!(r.tier, SendTier::PerfectStructural);
        assert_eq!(r.values_written, 2);
    }
}

#[test]
fn mio_partial_dirty_percentages() {
    for format in WireFormat::ALL {
        // The Figure 4 setup: vary what fraction of MIO doubles are dirty and
        // confirm values_written tracks it exactly.
        let op = OpDesc::single("m", "urn:x", "a", TypeDesc::array_of(TypeDesc::mio()));
        let mut client = lane_client(format);
        let mut sink = SinkTransport::new();
        let n = 100usize;
        let build = |bump: usize, round: f64| {
            Value::Array(
                (0..n)
                    .map(|i| mio(i as i32, -(i as i32), if i < bump { round } else { 0.5 }))
                    .collect(),
            )
        };

        client.call("ep", &op, &[build(0, 0.5)], &mut sink).unwrap();
        for (frac, expect) in [(25usize, 25usize), (50, 50), (75, 75), (100, 100)] {
            // Use a fresh value per round so exactly `frac` doubles change.
            let round = frac as f64 + 0.25;
            let r = client
                .call("ep", &op, &[build(frac, round)], &mut sink)
                .unwrap();
            assert_eq!(r.tier, SendTier::PerfectStructural);
            assert_eq!(r.values_written, expect, "at {frac}%");
        }
    }
}

#[test]
fn shift_and_steal_counters_surface() {
    // Exact widths + growing values: expansion must happen and be counted.
    let op = doubles_op();
    let config = EngineConfig::paper_default().with_width(WidthPolicy::Exact);
    let mut client = Client::new(config);
    let mut sink = SinkTransport::new();

    call(&mut client, &mut sink, &op, &[1.0, 2.0, 3.0]);
    // Every value grows from 1 char to many chars.
    let r = call(&mut client, &mut sink, &op, &[1.0625, 2.0625, 3.0625]);
    assert_eq!(r.tier, SendTier::PerfectStructural);
    assert_eq!(r.values_written, 3);
    assert!(
        r.shifts + r.steals > 0,
        "growth beyond exact width must shift or steal (got {r:?})"
    );

    // With max stuffing the same growth is free of both.
    let mut client = Client::new(config.with_width(WidthPolicy::Max));
    call(&mut client, &mut sink, &op, &[1.0, 2.0, 3.0]);
    let r = call(&mut client, &mut sink, &op, &[1.0625, 2.0625, 3.0625]);
    assert_eq!(r.shifts, 0);
    assert_eq!(r.steals, 0);
}

#[test]
fn evicting_forgets_the_template() {
    for format in WireFormat::ALL {
        let op = doubles_op();
        let mut client = lane_client(format);
        let mut sink = SinkTransport::new();
        call(&mut client, &mut sink, &op, &[1.5]);
        assert!(client.evict("ep", &op));
        assert!(!client.evict("ep", &op), "double evict is a no-op");
        let r = call(&mut client, &mut sink, &op, &[1.5]);
        assert_eq!(
            r.tier,
            SendTier::FirstTime,
            "evicted template forces re-serialization"
        );
    }
}

// ---------------------------------------------------------------------
// Model-checked metrics: a reference model of the matching hierarchy
// predicts the tier, the values written, and the full metrics snapshot
// after every single send.
// ---------------------------------------------------------------------

/// Reference model of the four-tier hierarchy (paper §3) plus the
/// counters the obs layer must accumulate for a doubles-array operation.
/// The DUT compares bit patterns, so the model tracks `f64::to_bits`.
///
/// The model carries the wire format because the counters are per-lane:
/// every send must land on its own format's counter and never the
/// other's — and because the collapse prediction differs. On the XML
/// lane, zero shift work requires `WidthPolicy::Max` stuffing; on the
/// binary lane the same prediction holds under *exact* widths, since
/// fixed-width numerics cannot grow (tier-3 machinery collapses into
/// tier-2 overwrites, DESIGN §3.15).
struct TierModel {
    /// The lane the modeled client sends on.
    format: WireFormat,
    /// Sends expected on this lane's per-format counter: every
    /// serialized send, delivered or not.
    format_sends: u64,
    /// Bit patterns of the last-sent array; `None` = no template saved.
    saved: Option<Vec<u64>>,
    tiers: [u64; 4],
    /// Successful sends per tier — the latency histograms observe only
    /// sends that reached the wire, while the tier counters also include
    /// sends whose wire write then failed.
    hist: [u64; 4],
    values_written: u64,
    bytes_sent: u64,
    sends: u64,
    /// Sends that priced a differential plan: every send served by a
    /// saved template plans exactly once (even a content match — the
    /// planner is how the flush learns nothing is dirty). FirstTime
    /// builds never plan.
    plans: u64,
    /// Cost-gate rejections. Zero unless `cost_fallback` is on.
    fallbacks: u64,
    /// Calls that ran out of deadline budget (`TimedOut` on the wire).
    deadlines: u64,
    /// Stateless full sends made while the endpoint was degraded.
    degraded_sends: u64,
}

impl TierModel {
    fn new(format: WireFormat) -> Self {
        TierModel {
            format,
            format_sends: 0,
            saved: None,
            tiers: [0; 4],
            hist: [0; 4],
            values_written: 0,
            bytes_sent: 0,
            sends: 0,
            plans: 0,
            fallbacks: 0,
            deadlines: 0,
            degraded_sends: 0,
        }
    }

    /// The serialization half of a call (DESIGN §3.5): predict the tier
    /// and values written from what is saved and count them, as the engine
    /// does the moment the bytes exist — before the wire is asked, for
    /// every tier alike. Returns the prediction and the new bit patterns.
    fn serialized(&mut self, xs: &[f64]) -> (SendTier, u64, Vec<u64>) {
        let bits: Vec<u64> = xs.iter().map(|x| x.to_bits()).collect();
        if self.saved.is_some() {
            self.plans += 1;
        }
        let (tier, written) = match &self.saved {
            // First-time build serializes every element leaf plus the
            // array-length leaf.
            None => (SendTier::FirstTime, bits.len() as u64 + 1),
            Some(old) => {
                let changed = old.iter().zip(&bits).filter(|(o, n)| **o != **n).count() as u64;
                if old.len() != bits.len() {
                    // Resize rewrites the length leaf too; appended
                    // elements are built, not rewritten.
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
        self.sends += 1;
        self.format_sends += 1;
        (tier, written, bits)
    }

    /// Fold in a delivered send of `xs`; returns the predicted tier and
    /// values written.
    fn step(&mut self, xs: &[f64]) -> (SendTier, u64) {
        let (tier, written, bits) = self.serialized(xs);
        self.hist[tier.index()] += 1;
        self.saved = Some(bits);
        (tier, written)
    }

    /// Fold in a call whose wire write failed: serialized and counted,
    /// but never a byte or a latency observation. A template that existed
    /// keeps the new values (the flush applied them); a fresh one is not
    /// saved.
    fn step_wire_failed(&mut self, xs: &[f64], deadline: bool) {
        if deadline {
            self.deadlines += 1;
        }
        let (_, _, bits) = self.serialized(xs);
        if self.saved.is_some() {
            self.saved = Some(bits);
        }
    }

    /// Fold in a delivered degraded-mode send: stateless (the demotion
    /// evicted the template and nothing is kept), so it serializes as a
    /// first-time send, plus `DegradedSends`.
    fn step_degraded(&mut self, xs: &[f64]) {
        let (tier, _, _) = self.serialized(xs);
        self.hist[tier.index()] += 1;
        self.degraded_sends += 1;
    }

    fn evict(&mut self) {
        self.saved = None;
    }

    /// Assert a registry snapshot agrees with the model exactly.
    fn check(&self, snap: &EngineStats) {
        assert_eq!(snap.tier_counts(), self.tiers, "tier counters");
        assert_eq!(snap.total_sends(), self.sends, "total sends");
        // Every send lands on its own lane's counter, never the other's.
        let (own, other) = match self.format {
            WireFormat::SoapXml => (Counter::SendsXml, Counter::SendsBinary),
            WireFormat::CompactBinary => (Counter::SendsBinary, Counter::SendsXml),
        };
        assert_eq!(snap.get(own), self.format_sends, "own-lane sends");
        assert_eq!(snap.get(other), 0, "wrong-lane sends");
        assert_eq!(
            snap.get(Counter::ValuesWritten),
            self.values_written,
            "values written"
        );
        assert_eq!(snap.get(Counter::BytesSent), self.bytes_sent, "bytes sent");
        // Nothing ever shifts, steals, or splits: on the XML lane
        // because max-width stuffing leaves room for any double, on the
        // binary lane because fixed-width numerics cannot grow even at
        // exact widths — the tier-3 collapse.
        assert_eq!(snap.get(Counter::Shifts), 0);
        assert_eq!(snap.get(Counter::Steals), 0);
        assert_eq!(snap.get(Counter::Splits), 0);
        assert_eq!(snap.get(Counter::ShiftedBytes), 0);
        // Plan/execute accounting: one plan per template-served send, and
        // with no shifts there is never a coalesced pass to count.
        assert_eq!(snap.get(Counter::PlansComputed), self.plans, "plans");
        assert_eq!(
            snap.get(Counter::CostFallbacks),
            self.fallbacks,
            "cost fallbacks"
        );
        assert_eq!(snap.get(Counter::CoalescedShiftPasses), 0);
        // Fault-tolerance accounting: deadline expiries and degraded
        // (stateless) sends.
        assert_eq!(
            snap.get(Counter::DeadlinesExceeded),
            self.deadlines,
            "deadline expiries"
        );
        assert_eq!(
            snap.get(Counter::DegradedSends),
            self.degraded_sends,
            "degraded sends"
        );
        // Exactly one latency observation per send that reached the
        // wire, in the histogram of the tier the send took.
        for t in SendTier::ALL {
            assert_eq!(
                snap.hist(HistId::send(t)).count(),
                self.hist[t.index()],
                "latency observations for {t:?}"
            );
        }
    }
}

#[test]
fn metrics_snapshot_matches_reference_model() {
    // XML lane: shift-free only because max-width stuffing absorbs any
    // double's lexical growth.
    run_reference_model_walk(WireFormat::SoapXml, WidthPolicy::Max);
}

#[test]
fn binary_lane_matches_reference_model_at_exact_widths() {
    // Binary lane, *exact* widths: the model predicts the identical tier
    // trajectory AND the same zero-shift counters — the prediction that
    // would be false on the XML lane without stuffing. Tier-3 patch work
    // collapses into tier-2 in the format itself, not in a width policy.
    run_reference_model_walk(WireFormat::CompactBinary, WidthPolicy::Exact);
}

fn run_reference_model_walk(format: WireFormat, width: WidthPolicy) {
    let op = doubles_op();
    let metrics = Arc::new(Metrics::with_clock(Arc::new(VirtualClock::new())));
    let mut client = Client::new(
        EngineConfig::paper_default()
            .with_width(width)
            .with_wire_format(format),
    );
    client.set_metrics(Arc::clone(&metrics));
    let mut sink = SinkTransport::new();
    let mut model = TierModel::new(format);

    let mut send = |client: &mut Client, model: &mut TierModel, xs: &[f64]| {
        let (want_tier, want_written) = model.step(xs);
        let r = call(client, &mut sink, &op, xs);
        assert_eq!(r.tier, want_tier, "tier for {xs:?}");
        assert_eq!(
            r.values_written as u64, want_written,
            "values written for {xs:?}"
        );
        // Wire bytes come from the engine (the model doesn't re-derive
        // the serialized form); the counter must still track them 1:1.
        model.bytes_sent += r.bytes as u64;
        model.check(&metrics.snapshot());
    };

    // Scripted opening: visit every tier once.
    send(&mut client, &mut model, &[1.5, 2.5, 3.5]); // first time
    send(&mut client, &mut model, &[1.5, 2.5, 3.5]); // content match
    send(&mut client, &mut model, &[1.5, 9.5, 3.5]); // perfect structural
    send(&mut client, &mut model, &[1.5, 9.5, 3.5, 4.5]); // partial (grow)
    send(&mut client, &mut model, &[1.5, 9.5]); // partial (shrink)
    send(&mut client, &mut model, &[1.5, 9.5]); // content match again

    // Eviction forgets the template; the model forgets with it.
    assert!(client.evict("ep", &op));
    model.evict();
    send(&mut client, &mut model, &[1.5, 9.5]); // first time again

    // Long pseudo-random walk (fixed-seed LCG, fully reproducible):
    // resends, single- and multi-value mutations, resizes, evictions.
    let mut state = 0x2545_F491_4F6C_DD1D_u64;
    let mut rng = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let mut xs: Vec<f64> = (0..8).map(|i| i as f64 + 0.5).collect();
    for _ in 0..200 {
        match rng() % 10 {
            0 => {} // resend unchanged
            1 => {
                // Resize (possibly to the same length) and rewrite.
                let n = 1 + rng() % 12;
                xs = (0..n)
                    .map(|i| (rng() % 64) as f64 * 0.25 + i as f64)
                    .collect();
            }
            2 => {
                if client.evict("ep", &op) {
                    model.evict();
                }
            }
            k => {
                // Mutate up to 7 positions; collisions and writing the
                // same bits back are part of the point.
                for _ in 0..(k - 2) {
                    let i = rng() % xs.len();
                    xs[i] = (rng() % 256) as f64 * 0.125;
                }
            }
        }
        let step = xs.clone();
        send(&mut client, &mut model, &step);
    }
}

#[test]
fn shift_counters_match_reports_exactly() {
    // Exact widths force expansion work on every growth step; the obs
    // counters must agree with the per-send reports, send after send.
    let op = doubles_op();
    let metrics = Arc::new(Metrics::new());
    let mut client = Client::new(EngineConfig::paper_default().with_width(WidthPolicy::Exact));
    client.set_metrics(Arc::clone(&metrics));
    let mut sink = SinkTransport::new();

    let mut xs = vec![1.0, 2.0, 3.0, 4.0];
    let first = call(&mut client, &mut sink, &op, &xs);
    let (mut shifts, mut steals, mut splits) = (0u64, 0u64, 0u64);
    let mut written = first.values_written as u64;

    for _ in 0..6 {
        // Every value's text representation grows.
        for x in xs.iter_mut() {
            *x = *x * 2.0 + 0.0625;
        }
        let before = metrics.snapshot();
        let r = call(&mut client, &mut sink, &op, &xs);
        let snap = metrics.snapshot();

        assert_eq!(r.tier, SendTier::PerfectStructural);
        assert!(
            r.shifts + r.steals > 0,
            "growth beyond exact width must shift or steal (got {r:?})"
        );
        shifts += r.shifts as u64;
        steals += r.steals as u64;
        splits += r.splits as u64;
        written += r.values_written as u64;

        assert_eq!(snap.get(Counter::Shifts), shifts);
        assert_eq!(snap.get(Counter::Steals), steals);
        assert_eq!(snap.get(Counter::Splits), splits);
        assert_eq!(snap.get(Counter::ValuesWritten), written);
        if r.shifts > 0 {
            assert!(
                snap.get(Counter::ShiftedBytes) > before.get(Counter::ShiftedBytes),
                "shifts moved no bytes?"
            );
        }
    }
}

#[test]
fn cost_gate_fallback_is_counted_and_exact() {
    for format in WireFormat::ALL {
        // fallback_ratio = 0.0 makes the §5 gate maximally strict: any plan
        // with nonzero cost is rejected in favor of a rebuild, while a
        // zero-cost plan (content match) still passes (`0 > 0` is false).
        let op = doubles_op();
        let metrics = Arc::new(Metrics::with_clock(Arc::new(VirtualClock::new())));
        let mut client = Client::new(
            EngineConfig::paper_default()
                .with_wire_format(format)
                .with_cost_fallback(true)
                .with_fallback_ratio(0.0),
        );
        client.set_metrics(Arc::clone(&metrics));
        let mut sink = SinkTransport::new();

        let r = call(&mut client, &mut sink, &op, &[1.5, 2.5, 3.5]);
        assert_eq!(r.tier, SendTier::FirstTime);
        assert!(!r.fell_back, "first-time builds never consult the gate");

        let r = call(&mut client, &mut sink, &op, &[1.5, 2.5, 3.5]);
        assert_eq!(r.tier, SendTier::ContentMatch);
        assert!(!r.fell_back);
        let snap = metrics.snapshot();
        assert_eq!(snap.get(Counter::PlansComputed), 1);
        assert_eq!(snap.get(Counter::CostFallbacks), 0);

        // One dirty value → plan cost ≥ 1 → rejected at ratio 0.0: the send
        // rebuilds from scratch and reports the fallback.
        let r = call(&mut client, &mut sink, &op, &[1.5, 9.5, 3.5]);
        assert_eq!(r.tier, SendTier::FirstTime);
        assert!(r.fell_back);
        let snap = metrics.snapshot();
        assert_eq!(snap.get(Counter::PlansComputed), 2);
        assert_eq!(snap.get(Counter::CostFallbacks), 1);

        // A resize also prices nonzero → fallback again, from the template
        // the previous fallback freshly saved.
        let r = call(&mut client, &mut sink, &op, &[1.5, 9.5, 3.5, 4.5]);
        assert_eq!(r.tier, SendTier::FirstTime);
        assert!(r.fell_back);
        let snap = metrics.snapshot();
        assert_eq!(snap.get(Counter::PlansComputed), 3);
        assert_eq!(snap.get(Counter::CostFallbacks), 2);

        // The discarded-and-rebuilt template keeps serving: an unchanged
        // resend is a content match, not another rebuild.
        let r = call(&mut client, &mut sink, &op, &[1.5, 9.5, 3.5, 4.5]);
        assert_eq!(r.tier, SendTier::ContentMatch);
        assert!(!r.fell_back);

        // With a generous ratio the same kind of update patches in place.
        let mut client = Client::new(
            EngineConfig::paper_default()
                .with_wire_format(format)
                .with_cost_fallback(true)
                .with_fallback_ratio(10.0),
        );
        call(&mut client, &mut sink, &op, &[1.5, 2.5, 3.5]);
        let r = call(&mut client, &mut sink, &op, &[1.5, 9.5, 3.5]);
        assert_eq!(r.tier, SendTier::PerfectStructural);
        assert!(!r.fell_back);
    }

    // The gate on the input it exists for: a shift storm — every field
    // of 2000 outgrows its exact width in one update — prices at about
    // one rebuild, so a 0.75 break-even sends it down the rebuild path,
    // and what that send then costs stays within 1.2x a FirstTime send
    // of the same values. Cost is modelled from the work counters (the
    // currency of bsoap-bench's `psm_orders_by_dirty_fraction`), so the
    // bound holds on any machine.
    let op = doubles_op();
    let config = EngineConfig::paper_default()
        .with_chunk(bsoap::chunks::ChunkConfig::k32())
        .with_width(WidthPolicy::Exact)
        .with_cost_fallback(true)
        .with_fallback_ratio(0.75);
    let calm: Vec<f64> = (0..2000).map(|i| (i % 10) as f64 + 0.5).collect();
    let storm: Vec<f64> = (0..2000).map(|i| (i as f64 + 0.1) / 3.0).collect();
    let modeled_send = |warm_up: Option<&[f64]>| {
        let metrics = Arc::new(Metrics::new());
        let mut client = Client::new(config);
        client.set_metrics(Arc::clone(&metrics));
        let mut sink = SinkTransport::new();
        if let Some(xs) = warm_up {
            call(&mut client, &mut sink, &op, xs);
        }
        let before = metrics.snapshot();
        let r = call(&mut client, &mut sink, &op, &storm);
        let after = metrics.snapshot();
        let delta = |c: Counter| after.get(c) - before.get(c);
        assert_eq!(r.tier, SendTier::FirstTime);
        let cost = delta(Counter::ValuesWritten) * 60
            + r.bytes as u64 * 2
            + delta(Counter::ShiftedBytes) * 4
            + delta(Counter::BytesSent);
        (r.fell_back, cost)
    };
    let (fell_back, gated) = modeled_send(Some(&calm));
    assert!(fell_back, "the gate admitted the storm at ratio 0.75");
    let (_, first_time) = modeled_send(None);
    assert!(
        gated as f64 <= 1.2 * first_time as f64,
        "gated storm modelled at {gated}, a first-time send at {first_time}"
    );
}

/// Writer that always fails with a fixed error kind.
struct AlwaysFail(std::io::ErrorKind);

impl std::io::Write for AlwaysFail {
    fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
        Err(std::io::Error::new(self.0, "injected"))
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Writer that always fails with the canonical deadline-expiry error —
/// the marker-carrying `TimedOut` a transport-layer `Resilience` returns
/// once a call's budget is spent.
struct DeadlineFail;

impl std::io::Write for DeadlineFail {
    fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
        Err(bsoap::Deadline::timed_out())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn degraded_ladder_walk_matches_reference_model() {
    use bsoap::obs::TraceKind;
    use bsoap::EngineError;

    let op = doubles_op();
    let metrics = Arc::new(Metrics::with_clock(Arc::new(VirtualClock::new())));
    // Demote after 2 consecutive transport failures; recover after 2
    // successes while degraded.
    let mut client = Client::new(
        EngineConfig::paper_default()
            .with_width(WidthPolicy::Max)
            .with_degraded(2, 2),
    );
    client.set_metrics(Arc::clone(&metrics));
    let mut sink = SinkTransport::new();
    let mut model = TierModel::new(WireFormat::SoapXml);
    let args = |xs: &[f64]| vec![Value::DoubleArray(xs.to_vec())];

    // Healthy opening: first time, then a content match.
    let xs = [1.5, 2.5, 3.5];
    for _ in 0..2 {
        let (want_tier, _) = model.step(&xs);
        let r = call(&mut client, &mut sink, &op, &xs);
        assert_eq!(r.tier, want_tier);
        model.bytes_sent += r.bytes as u64;
        model.check(&metrics.snapshot());
    }

    // First failure: the differential flush completed (content match
    // counted), the wire write did not. Not yet demoted.
    let err = client
        .call(
            "ep",
            &op,
            &args(&xs),
            &mut AlwaysFail(std::io::ErrorKind::ConnectionReset),
        )
        .unwrap_err();
    assert!(matches!(err, EngineError::Io(_)));
    model.step_wire_failed(&xs, false);
    model.check(&metrics.snapshot());
    assert!(!client.is_degraded("ep"), "one failure must not demote");

    // Second consecutive failure (a dirty value this time): demoted, and
    // the template is evicted with the demotion.
    let dirty = [1.5, 9.5, 3.5];
    let err = client
        .call(
            "ep",
            &op,
            &args(&dirty),
            &mut AlwaysFail(std::io::ErrorKind::BrokenPipe),
        )
        .unwrap_err();
    assert!(matches!(err, EngineError::Io(_)));
    model.step_wire_failed(&dirty, false);
    model.evict();
    model.check(&metrics.snapshot());
    assert!(client.is_degraded("ep"), "two consecutive failures demote");
    let key = StoreKey::new(0, TemplateKey::new("ep", &op));
    let store = client.template_store().expect("calls were made");
    assert!(
        store.peek(&key, |_| ()).is_none(),
        "demotion evicts the template"
    );

    // Degraded sends: stateless first-time serialization every call.
    let r = call(&mut client, &mut sink, &op, &dirty);
    assert_eq!(r.tier, SendTier::FirstTime);
    model.step_degraded(&dirty);
    model.bytes_sent += r.bytes as u64;
    model.check(&metrics.snapshot());

    // A bare OS-level timeout while degraded: with no deadline policy in
    // the path there is no budget to have spent — the error stays a
    // typed `Io(TimedOut)` (no `DeadlineExceeded` mapping without the
    // marker) and no deadline expiry is counted.
    let err = client
        .call(
            "ep",
            &op,
            &args(&dirty),
            &mut AlwaysFail(std::io::ErrorKind::TimedOut),
        )
        .unwrap_err();
    assert!(
        matches!(&err, EngineError::Io(e) if e.kind() == std::io::ErrorKind::TimedOut),
        "bare TimedOut must stay Io, got {err:?}"
    );
    model.step_wire_failed(&dirty, false); // serialized, not delivered
    model.check(&metrics.snapshot());

    // A genuine expiry (the marker error a transport-layer `Resilience`
    // mints) maps to the typed `DeadlineExceeded` — but the client never
    // counts or traces it: that belongs to the layer that *detected* the
    // expiry, which already spoke on its own registry. Recovery progress
    // survives both failures.
    let err = client
        .call("ep", &op, &args(&dirty), &mut DeadlineFail)
        .unwrap_err();
    assert!(matches!(err, EngineError::DeadlineExceeded));
    model.step_wire_failed(&dirty, false); // counted upstream, not here
    model.check(&metrics.snapshot());

    // Second degraded success completes recovery.
    let r = call(&mut client, &mut sink, &op, &dirty);
    assert_eq!(r.tier, SendTier::FirstTime);
    model.step_degraded(&dirty);
    model.bytes_sent += r.bytes as u64;
    model.check(&metrics.snapshot());
    assert!(!client.is_degraded("ep"), "two successes recover");

    // Recovered: the next call is a normal first-time send that saves a
    // template again, and the one after that is differential.
    for want in [SendTier::FirstTime, SendTier::ContentMatch] {
        let (want_tier, _) = model.step(&dirty);
        assert_eq!(want_tier, want);
        let r = call(&mut client, &mut sink, &op, &dirty);
        assert_eq!(r.tier, want);
        model.bytes_sent += r.bytes as u64;
        model.check(&metrics.snapshot());
    }

    // Trace reconciliation: one demotion, one recovery, and no deadline
    // traces — the client propagates expiry but only the detecting
    // transport layer traces it.
    let (events, dropped) = metrics.trace_ring().snapshot();
    assert_eq!(dropped, 0);
    let count = |want: &TraceKind| events.iter().filter(|e| &e.kind == want).count();
    assert_eq!(count(&TraceKind::Degraded { on: true }), 1, "demotions");
    assert_eq!(count(&TraceKind::Degraded { on: false }), 1, "recoveries");
    assert_eq!(count(&TraceKind::DeadlineExceeded), 0, "deadline traces");
}

#[test]
fn errors_do_not_poison_the_template() {
    for format in WireFormat::ALL {
        let op = doubles_op();
        let mut client = lane_client(format);
        let mut sink = SinkTransport::new();
        call(&mut client, &mut sink, &op, &[1.5, 2.5]);
        // Wrong arity errors out…
        assert!(client.call("ep", &op, &[], &mut sink).is_err());
        // …but the saved template still serves content matches.
        let r = call(&mut client, &mut sink, &op, &[1.5, 2.5]);
        assert_eq!(r.tier, SendTier::ContentMatch);
    }
}
