//! Satellite proof: overlaid send output vs the non-overlay full
//! serialization, for random window sizes (including tails that don't
//! divide the array).
//!
//! Two equivalence strengths, by width policy:
//!
//! * `WidthPolicy::Max` (stuffed) — **byte-identical**: every slot is
//!   padded to the type's maximum width, so per-window templates and the
//!   whole-message template emit the same bytes.
//! * `WidthPolicy::Exact` — **strip_pad-identical**: the window's slot
//!   widths persist across portions while a full template sizes each slot
//!   to its own value, so the streams agree exactly once stuffing pad is
//!   removed.

use bsoap_convert::ScalarKind;
use bsoap_core::overlay::OverlaySender;
use bsoap_core::{EngineConfig, MessageTemplate, OpDesc, TypeDesc, Value};
use bsoap_xml::strip_pad;
use proptest::prelude::*;
use std::io::IoSlice;

fn doubles_op() -> OpDesc {
    OpDesc::single(
        "send",
        "urn:bench",
        "arr",
        TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double)),
    )
}

fn mios_op() -> OpDesc {
    OpDesc::single(
        "sendM",
        "urn:bench",
        "arr",
        TypeDesc::array_of(TypeDesc::mio()),
    )
}

/// Drive `send_portions` directly so the test also covers the portion
/// callback path `Client::call_overlaid_via` uses (not just `send`).
fn overlay_bytes(
    config: EngineConfig,
    op: &OpDesc,
    window: usize,
    value: &Value,
) -> (Vec<u8>, usize) {
    let mut sender = OverlaySender::new(config, op, window).unwrap();
    let mut out = Vec::new();
    let report = sender
        .send_portions(value, |slices: &[IoSlice<'_>]| {
            let mut n = 0;
            for s in slices {
                out.extend_from_slice(s);
                n += s.len();
            }
            Ok(n)
        })
        .unwrap();
    (out, report.portions)
}

fn full_bytes(config: EngineConfig, op: &OpDesc, value: &Value) -> Vec<u8> {
    MessageTemplate::build(config, op, std::slice::from_ref(value))
        .unwrap()
        .to_bytes()
        .to_vec()
}

fn dval(i: usize) -> f64 {
    // Mix of widths: integers, short fractions, long fractions, negatives.
    match i % 4 {
        0 => i as f64,
        1 => -(i as f64) * 0.5,
        2 => i as f64 * 0.123456789,
        _ => f64::from_bits(0x3ff0_0000_0000_0000 | (i as u64 * 0x9e37_79b9)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Stuffed (Max width): overlay output is byte-identical to the full
    /// serialization for any window size.
    #[test]
    fn stuffed_overlay_is_byte_identical(
        n in 0usize..600,
        window in 1usize..97,
    ) {
        let config = EngineConfig::stuffed_max();
        let op = doubles_op();
        let value = Value::DoubleArray((0..n).map(dval).collect());
        let (streamed, portions) = overlay_bytes(config, &op, window, &value);
        let full = full_bytes(config, &op, &value);
        prop_assert_eq!(streamed, full);
        prop_assert_eq!(portions, n.div_ceil(window));
    }

    /// Exact width: overlay output matches the full serialization once
    /// stuffing pad is stripped, for any window size.
    #[test]
    fn exact_overlay_is_strip_pad_identical(
        n in 0usize..600,
        window in 1usize..97,
    ) {
        let config = EngineConfig::paper_default();
        let op = doubles_op();
        let value = Value::DoubleArray((0..n).map(dval).collect());
        let (streamed, _) = overlay_bytes(config, &op, window, &value);
        let full = full_bytes(config, &op, &value);
        prop_assert_eq!(strip_pad(&streamed), strip_pad(&full));
    }

    /// Struct-element arrays (mio): same stuffed byte-identity holds when
    /// each item is a nested structure, including non-dividing tails.
    #[test]
    fn stuffed_struct_overlay_is_byte_identical(
        n in 0usize..200,
        window in 1usize..41,
    ) {
        let config = EngineConfig::stuffed_max();
        let op = mios_op();
        let items: Vec<Value> = (0..n)
            .map(|i| bsoap_core::value::mio(i as i32, -(i as i32), dval(i)))
            .collect();
        let value = Value::Array(items);
        let (streamed, _) = overlay_bytes(config, &op, window, &value);
        let full = full_bytes(config, &op, &value);
        prop_assert_eq!(streamed, full);
    }

    /// Re-sending different values through the same sender (warm window,
    /// PerfectStructural tier) still matches the full serialization.
    #[test]
    fn warm_window_resend_is_byte_identical(
        n1 in 1usize..300,
        n2 in 1usize..300,
        window in 1usize..64,
    ) {
        let config = EngineConfig::stuffed_max();
        let op = doubles_op();
        let mut sender = OverlaySender::new(config, &op, window).unwrap();
        for (round, n) in [n1, n2].into_iter().enumerate() {
            let value = Value::DoubleArray((0..n).map(|i| dval(i + round * 7)).collect());
            let mut out = Vec::new();
            sender.send(&value, &mut out).unwrap();
            let full = full_bytes(config, &op, &value);
            prop_assert_eq!(out, full, "round {}", round);
        }
    }
}

#[test]
fn non_dividing_tail_exact_boundaries() {
    // Deterministic spot-checks at the awkward boundaries: window larger
    // than array, window == array, off-by-one tails.
    let op = doubles_op();
    let config = EngineConfig::stuffed_max();
    for (n, window) in [(1, 5), (5, 5), (6, 5), (9, 5), (10, 5), (11, 5), (0, 3)] {
        let value = Value::DoubleArray((0..n).map(dval).collect());
        let (streamed, portions) = overlay_bytes(config, &op, window, &value);
        let full = full_bytes(config, &op, &value);
        assert_eq!(streamed, full, "n={n} window={window}");
        assert_eq!(portions, n.div_ceil(window), "n={n} window={window}");
    }
}
