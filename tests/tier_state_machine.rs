//! The four-tier matching logic as a state machine (paper §3).
//!
//! Crafted call sequences and a long pseudo-random walk go down a client
//! and the executable spec (`common::spec`) in lockstep — the [`Rig`]
//! refuses any send whose tier, values written, wire bytes or counters are
//! not what the spec says — and the literal expectations here pin the
//! spec's own answers on the cases the paper names. The spec's self-test
//! (`the_spec_is_pinned_by_a_literal_table`) runs without the engine.

mod common;

use bsoap::convert::ScalarKind;
use bsoap::obs::{Counter, Metrics};
use bsoap::{
    mio, Client, EngineConfig, EngineError, OpDesc, ParamDesc, SendReport, SendTier, StoreKey,
    TemplateKey, TypeDesc, Value, WidthPolicy, WireFormat,
};
use common::spec::{doubles, doubles_op, Delivery, FailingSink, Spec, Tally};
use common::Rig;
use std::io::ErrorKind;

use SendTier::{ContentMatch, FirstTime, PartialStructural, PerfectStructural};

fn send(rig: &mut Rig, xs: &[f64]) -> SendReport {
    rig.send("ep", &doubles(xs)).unwrap()
}

/// The tiers a run of sends took.
fn tiers(rig: &mut Rig, runs: &[&[f64]]) -> Vec<SendTier> {
    runs.iter().map(|xs| send(rig, xs).tier).collect()
}

#[test]
fn canonical_tier_sequence() {
    for format in WireFormat::ALL {
        let mut rig = Rig::on_lane(doubles_op(), format);
        let took = tiers(
            &mut rig,
            &[
                &[1.5, 2.5, 3.5],
                &[1.5, 2.5, 3.5],
                &[1.5, 9.5, 3.5],
                &[1.5, 9.5, 3.5, 4.5],
                &[1.5, 9.5, 3.5, 4.5],
            ],
        );
        let resize_settles = ContentMatch;
        assert_eq!(
            took,
            [
                FirstTime,
                ContentMatch,
                PerfectStructural,
                PartialStructural,
                resize_settles
            ]
        );
        assert_eq!(rig.client.stats().calls(), 5);
    }
}

#[test]
fn same_bits_rewrite_is_content_match() {
    for format in WireFormat::ALL {
        // Writing the same f64 bits must not dirty the leaf (the DUT's
        // bitwise comparison), including the NaN == NaN case.
        let mut rig = Rig::on_lane(doubles_op(), format);
        send(&mut rig, &[f64::NAN, 1.5]);
        assert_eq!(send(&mut rig, &[f64::NAN, 1.5]).tier, ContentMatch);

        // 0.0 vs -0.0 have different bits AND different lexical forms.
        let r = send(&mut rig, &[f64::NAN, -0.0]);
        assert_eq!((r.tier, r.values_written), (PerfectStructural, 1));
    }
}

#[test]
fn zero_length_boundary_cases() {
    for format in WireFormat::ALL {
        let mut rig = Rig::on_lane(doubles_op(), format);
        assert_eq!(
            tiers(&mut rig, &[&[], &[], &[1.5], &[], &[]]),
            [
                FirstTime,
                ContentMatch,
                PartialStructural,
                PartialStructural,
                ContentMatch
            ]
        );
    }
}

#[test]
fn multi_param_dirty_tracking_spans_params() {
    for format in WireFormat::ALL {
        let param = |name: &str, desc| ParamDesc {
            name: name.into(),
            desc,
        };
        let op = OpDesc::new(
            "f",
            "urn:x",
            vec![
                param("id", TypeDesc::Scalar(ScalarKind::Int)),
                param(
                    "xs",
                    TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double)),
                ),
                param("tag", TypeDesc::Scalar(ScalarKind::Str)),
            ],
        );
        let mut rig = Rig::on_lane(op, format);
        let args = |id: i32, xs: Vec<f64>, s: &str| {
            vec![Value::Int(id), Value::DoubleArray(xs), Value::Str(s.into())]
        };

        rig.send("ep", &args(1, vec![1.5, 2.5], "abc")).unwrap();
        // Change only the trailing string (same length → no shift).
        let r = rig.send("ep", &args(1, vec![1.5, 2.5], "xyz")).unwrap();
        assert_eq!((r.tier, r.values_written), (PerfectStructural, 1));
        // Change the leading int and one array element.
        let r = rig.send("ep", &args(2, vec![9.5, 2.5], "xyz")).unwrap();
        assert_eq!((r.tier, r.values_written), (PerfectStructural, 2));
    }
}

#[test]
fn mio_partial_dirty_percentages() {
    for format in WireFormat::ALL {
        // The Figure 4 setup: vary what fraction of MIO doubles are dirty and
        // confirm values_written tracks it exactly.
        let op = OpDesc::single("m", "urn:x", "a", TypeDesc::array_of(TypeDesc::mio()));
        let mut rig = Rig::on_lane(op, format);
        let n = 100usize;
        let build = |bump: usize, round: f64| {
            let elem = |i| mio(i as i32, -(i as i32), if i < bump { round } else { 0.5 });
            [Value::Array((0..n).map(elem).collect())]
        };

        rig.send("ep", &build(0, 0.5)).unwrap();
        for frac in [25usize, 50, 75, 100] {
            // Use a fresh value per round so exactly `frac` doubles change.
            let r = rig.send("ep", &build(frac, frac as f64 + 0.25)).unwrap();
            assert_eq!((r.tier, r.values_written), (PerfectStructural, frac));
        }
    }
}

#[test]
fn shift_and_steal_counters_surface() {
    // Exact widths + growing values: expansion must happen and be counted.
    let config = EngineConfig::paper_default().with_width(WidthPolicy::Exact);
    let mut rig = Rig::new(doubles_op(), config);
    send(&mut rig, &[1.0, 2.0, 3.0]);
    // Every value grows from 1 char to many chars.
    let r = send(&mut rig, &[1.0625, 2.0625, 3.0625]);
    assert_eq!((r.tier, r.values_written), (PerfectStructural, 3));
    assert!(
        r.shifts + r.steals > 0,
        "growth beyond exact width must shift or steal (got {r:?})"
    );

    // With max stuffing the same growth is free of both.
    let mut rig = Rig::new(doubles_op(), config.with_width(WidthPolicy::Max));
    send(&mut rig, &[1.0, 2.0, 3.0]);
    let r = send(&mut rig, &[1.0625, 2.0625, 3.0625]);
    assert_eq!((r.shifts, r.steals), (0, 0));
}

#[test]
fn evicting_forgets_the_template() {
    for format in WireFormat::ALL {
        let mut rig = Rig::on_lane(doubles_op(), format);
        send(&mut rig, &[1.5]);
        rig.evict("ep");
        rig.evict("ep"); // a double evict is a no-op on both sides
        let forced = send(&mut rig, &[1.5]).tier;
        assert_eq!(
            forced, FirstTime,
            "evicted template forces re-serialization"
        );
    }
}

// ---------------------------------------------------------------------
// The spec, pinned without the engine: if a rule in `Spec` drifts, this
// fails whatever the engine does — the oracle cannot go vacuous.
// ---------------------------------------------------------------------

#[test]
fn the_spec_is_pinned_by_a_literal_table() {
    let tally = |tiers, delivered, values_written, plans, flushes, bytes_sent| Tally {
        tiers,
        delivered,
        values_written,
        plans,
        flushes,
        bytes_sent,
        ..Tally::default()
    };
    let step = |spec: &mut Spec, xs: &[f64], delivery| {
        let p = spec.step("ep", &doubles(xs), delivery);
        (p.tier, p.values_written, p.fell_back)
    };
    let sent = Delivery::Sent(100);

    // Ladder: demote after 2 failures, recover after 1 success.
    let mut spec = Spec::of(&EngineConfig::stuffed_max().with_degraded(2, 1));
    // first-time → content → perfect → grow → shrink → content.
    assert_eq!(
        step(&mut spec, &[1.5, 2.5, 3.5], sent),
        (FirstTime, 4, false)
    );
    assert_eq!(spec.n, tally([1, 0, 0, 0], [1, 0, 0, 0], 4, 0, 0, 100));
    assert_eq!(
        step(&mut spec, &[1.5, 2.5, 3.5], sent),
        (ContentMatch, 0, false)
    );
    assert_eq!(spec.n, tally([1, 1, 0, 0], [1, 1, 0, 0], 4, 1, 1, 200));
    assert_eq!(
        step(&mut spec, &[1.5, 9.5, 3.5], sent),
        (PerfectStructural, 1, false)
    );
    assert_eq!(spec.n, tally([1, 1, 1, 0], [1, 1, 1, 0], 5, 2, 2, 300));
    // A resize rewrites the length leaf; appended elements are built.
    assert_eq!(
        step(&mut spec, &[1.5, 9.5, 3.5, 4.5], sent),
        (PartialStructural, 1, false)
    );
    assert_eq!(
        step(&mut spec, &[1.5, 8.5], sent),
        (PartialStructural, 2, false)
    );
    assert_eq!(step(&mut spec, &[1.5, 8.5], sent), (ContentMatch, 0, false));
    assert_eq!(spec.n, tally([1, 2, 1, 2], [1, 2, 1, 2], 8, 5, 5, 600));
    // evict → first-time: nothing to plan against.
    spec.evict("ep");
    assert_eq!(step(&mut spec, &[1.5, 8.5], sent), (FirstTime, 3, false));
    assert_eq!(spec.n, tally([2, 2, 1, 2], [2, 2, 1, 2], 11, 5, 5, 700));

    // A wire-failed step serializes and counts but delivers nothing, and
    // the template keeps the new values: the retry is a content match.
    assert_eq!(
        step(&mut spec, &[7.5, 8.5], Delivery::Failed),
        (PerfectStructural, 1, false)
    );
    assert_eq!(spec.n, tally([2, 2, 2, 2], [2, 2, 1, 2], 12, 6, 6, 700));
    // The second failure in a row demotes, and demotion evicts.
    assert_eq!(
        step(&mut spec, &[7.5, 8.5], Delivery::Expired),
        (ContentMatch, 0, false)
    );
    assert!(spec.is_degraded("ep") && !spec.has_template("ep"));
    let demoted = Tally {
        deadlines: 1,
        demotions: 1,
        ..tally([2, 3, 2, 2], [2, 2, 1, 2], 12, 7, 7, 700)
    };
    assert_eq!(spec.n, demoted);
    // A degraded step is a stateless first-time send. One success recovers;
    // nothing was kept, so the send after it builds again.
    assert_eq!(step(&mut spec, &[7.5, 8.5], sent), (FirstTime, 3, false));
    let recovered = Tally {
        degraded_sends: 1,
        recoveries: 1,
        ..demoted
    };
    assert_eq!(
        spec.n,
        Tally {
            tiers: [3, 3, 2, 2],
            delivered: [3, 2, 1, 2],
            values_written: 15,
            bytes_sent: 800,
            ..recovered
        }
    );
    assert!(!spec.is_degraded("ep"));
    assert_eq!(step(&mut spec, &[7.5, 8.5], sent), (FirstTime, 3, false));

    // The §5 gate at ratio 0 lets a zero-cost plan through and turns any
    // other into a rebuild: planned, discarded, counted as a first-time
    // send of every leaf.
    let gated = EngineConfig::stuffed_max()
        .with_cost_fallback(true)
        .with_fallback_ratio(0.0);
    let mut spec = Spec::of(&gated);
    assert_eq!(step(&mut spec, &[1.5, 2.5], sent), (FirstTime, 3, false));
    assert_eq!(step(&mut spec, &[1.5, 2.5], sent), (ContentMatch, 0, false));
    assert_eq!(step(&mut spec, &[1.5, 9.5], sent), (FirstTime, 3, true));
    let fell_back = Tally {
        fallbacks: 1,
        ..tally([2, 1, 0, 0], [2, 1, 0, 0], 6, 2, 1, 300)
    };
    assert_eq!(spec.n, fell_back);
    assert_eq!(step(&mut spec, &[1.5, 9.5], sent), (ContentMatch, 0, false));
}

// ---------------------------------------------------------------------
// Model-checked metrics: after every single send of a long walk the
// spec predicts the tier, the values written and the whole registry.
// ---------------------------------------------------------------------

#[test]
fn metrics_snapshot_matches_reference_model() {
    // XML lane: shift-free only because max-width stuffing absorbs any
    // double's lexical growth.
    run_reference_model_walk(WireFormat::SoapXml, WidthPolicy::Max);
}

#[test]
fn binary_lane_matches_reference_model_at_exact_widths() {
    // Binary lane, *exact* widths: the spec predicts the identical tier
    // trajectory AND the same zero-shift counters — the prediction that
    // would be false on the XML lane without stuffing. Tier-3 patch work
    // collapses into tier-2 in the format itself, not in a width policy
    // (DESIGN §3.15).
    run_reference_model_walk(WireFormat::CompactBinary, WidthPolicy::Exact);
}

fn run_reference_model_walk(format: WireFormat, width: WidthPolicy) {
    let config = EngineConfig::paper_default()
        .with_width(width)
        .with_wire_format(format);
    let mut rig = Rig::new(doubles_op(), config);

    // Scripted opening: visit every tier once, then forget and rebuild.
    let opening: [&[f64]; 6] = [
        &[1.5, 2.5, 3.5],
        &[1.5, 2.5, 3.5],
        &[1.5, 9.5, 3.5],
        &[1.5, 9.5, 3.5, 4.5],
        &[1.5, 9.5],
        &[1.5, 9.5],
    ];
    tiers(&mut rig, &opening);
    rig.evict("ep");
    send(&mut rig, &[1.5, 9.5]);

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
            2 => rig.evict("ep"),
            k => {
                // Mutate up to 7 positions; collisions and writing the
                // same bits back are part of the point.
                for _ in 0..(k - 2) {
                    let i = rng() % xs.len();
                    xs[i] = (rng() % 256) as f64 * 0.125;
                }
            }
        }
        send(&mut rig, &xs);
    }
    assert!(!rig.spec.n.shifted, "the walk was predicted shift-free");
    assert!(
        rig.spec.n.tiers.iter().all(|&n| n > 10),
        "every tier walked"
    );
}

#[test]
fn shift_counters_match_reports_exactly() {
    // Exact widths force expansion work on every growth step; the obs
    // counters must agree with the per-send reports, send after send.
    let config = EngineConfig::paper_default().with_width(WidthPolicy::Exact);
    let mut rig = Rig::new(doubles_op(), config);
    let mut xs = vec![1.0, 2.0, 3.0, 4.0];
    send(&mut rig, &xs);
    let (mut shifts, mut steals, mut splits) = (0u64, 0u64, 0u64);

    for _ in 0..6 {
        // Every value's text representation grows.
        for x in xs.iter_mut() {
            *x = *x * 2.0 + 0.0625;
        }
        let before = rig.metrics.snapshot();
        let r = send(&mut rig, &xs);
        let snap = rig.metrics.snapshot();

        assert_eq!(r.tier, PerfectStructural);
        assert!(
            r.shifts + r.steals > 0,
            "growth beyond exact width must shift or steal (got {r:?})"
        );
        shifts += r.shifts as u64;
        steals += r.steals as u64;
        splits += r.splits as u64;
        assert_eq!(snap.get(Counter::Shifts), shifts);
        assert_eq!(snap.get(Counter::Steals), steals);
        assert_eq!(snap.get(Counter::Splits), splits);
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
        // The rig holds every send to the spec's gate rule and counters
        // (`PlansComputed`, `CostFallbacks`).
        let gated = EngineConfig::paper_default()
            .with_wire_format(format)
            .with_cost_fallback(true);
        let mut rig = Rig::new(doubles_op(), gated.with_fallback_ratio(0.0));
        let runs: [(&[f64], SendTier, bool); 5] = [
            (&[1.5, 2.5, 3.5], FirstTime, false), // builds never consult the gate
            (&[1.5, 2.5, 3.5], ContentMatch, false),
            (&[1.5, 9.5, 3.5], FirstTime, true), // one dirty value prices > 0
            (&[1.5, 9.5, 3.5, 4.5], FirstTime, true), // so does a resize
            // The discarded-and-rebuilt template keeps serving.
            (&[1.5, 9.5, 3.5, 4.5], ContentMatch, false),
        ];
        for (xs, tier, fell_back) in runs {
            let r = send(&mut rig, xs);
            assert_eq!((r.tier, r.fell_back), (tier, fell_back), "{xs:?}");
        }
        assert_eq!((rig.spec.n.plans, rig.spec.n.fallbacks), (4, 2));

        // With a generous ratio the same kind of update patches in place
        // (the spec models the gate only at ratio 0: a plain client).
        let mut client = Client::new(gated.with_fallback_ratio(10.0));
        let op = doubles_op();
        let mut call = |xs: &[f64]| client.call("ep", &op, &doubles(xs), &mut Vec::new());
        call(&[1.5, 2.5, 3.5]).unwrap();
        let r = call(&[1.5, 9.5, 3.5]).unwrap();
        assert_eq!((r.tier, r.fell_back), (PerfectStructural, false));
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
        let metrics = Metrics::shared();
        let mut client = Client::new(config);
        client.set_metrics(std::sync::Arc::clone(&metrics));
        let mut call = |xs: &[f64]| client.call("ep", &op, &doubles(xs), &mut Vec::new());
        if let Some(xs) = warm_up {
            call(xs).unwrap();
        }
        let before = metrics.snapshot();
        let r = call(&storm).unwrap();
        let after = metrics.snapshot();
        let delta = |c: Counter| after.get(c) - before.get(c);
        assert_eq!(r.tier, FirstTime);
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

#[test]
fn degraded_ladder_walk_matches_reference_model() {
    // Demote after 2 consecutive transport failures; recover after 2
    // successes while degraded.
    let config = EngineConfig::stuffed_max().with_degraded(2, 2);
    let mut rig = Rig::new(doubles_op(), config);
    let fail = |rig: &mut Rig, xs: &[f64], mut sink: FailingSink| {
        rig.fail("ep", &doubles(xs), &mut sink).unwrap()
    };
    let refusing = |kind| FailingSink::after(0, kind);

    // Healthy opening: first time, then a content match.
    let xs = [1.5, 2.5, 3.5];
    assert_eq!(tiers(&mut rig, &[&xs, &xs]), [FirstTime, ContentMatch]);

    // First failure: the differential flush completed (content match
    // counted), the wire write did not. Not yet demoted.
    fail(&mut rig, &xs, refusing(ErrorKind::ConnectionReset));
    assert!(!rig.client.is_degraded("ep"), "one failure must not demote");

    // Second consecutive failure (a dirty value this time): demoted, and
    // the template is evicted with the demotion.
    let dirty = [1.5, 9.5, 3.5];
    fail(&mut rig, &dirty, refusing(ErrorKind::BrokenPipe));
    assert!(rig.client.is_degraded("ep") && rig.spec.is_degraded("ep"));
    let key = StoreKey::new(0, TemplateKey::new("ep", &rig.op));
    let store = rig.client.template_store();
    assert!(store.peek(&key, |_| ()).is_none(), "demotion evicts");

    // Degraded sends: stateless first-time serialization every call.
    assert_eq!(send(&mut rig, &dirty).tier, FirstTime);

    // A bare OS-level timeout while degraded: with no deadline policy in
    // the path there is no budget to have spent — the error stays a
    // typed `Io(TimedOut)` (no `DeadlineExceeded` mapping without the
    // marker) and no deadline expiry is counted.
    let err = fail(&mut rig, &dirty, refusing(ErrorKind::TimedOut));
    assert!(
        matches!(&err, EngineError::Io(e) if e.kind() == ErrorKind::TimedOut),
        "bare TimedOut must stay Io, got {err:?}"
    );

    // A genuine expiry (the marker error a transport-layer `Resilience`
    // mints) maps to the typed `DeadlineExceeded` — but the client never
    // counts or traces it: that belongs to the layer that *detected* the
    // expiry, which already spoke on its own registry (so the spec is
    // told `Failed`, not `Expired`). Recovery progress survives both.
    let err = fail(&mut rig, &dirty, FailingSink::expired());
    assert!(matches!(err, EngineError::DeadlineExceeded));

    // Second degraded success completes recovery; the next call is a
    // normal first-time send that saves a template again, and the one
    // after that is differential.
    assert_eq!(
        tiers(&mut rig, &[&dirty, &dirty, &dirty]),
        [FirstTime, FirstTime, ContentMatch]
    );
    assert!(!rig.client.is_degraded("ep"), "two successes recover");

    // One demotion, one recovery, no deadline traces, a span per flush.
    rig.spec.check_traces(&rig.metrics).unwrap();
    assert_eq!((rig.spec.n.demotions, rig.spec.n.recoveries), (1, 1));
}

#[test]
fn errors_do_not_poison_the_template() {
    for format in WireFormat::ALL {
        let mut rig = Rig::on_lane(doubles_op(), format);
        send(&mut rig, &[1.5, 2.5]);
        // Wrong arity errors out, and moves nothing the spec tracks…
        let refused = rig.client.call("ep", &rig.op, &[], &mut Vec::new());
        assert!(refused.is_err());
        rig.check().unwrap();
        // …and the saved template still serves content matches.
        assert_eq!(send(&mut rig, &[1.5, 2.5]).tier, ContentMatch);
    }
}
