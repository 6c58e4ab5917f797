//! Partial structural matches: array growth and contraction (§3).
//!
//! The load-bearing check throughout: after any resize, the template's
//! bytes must equal a **fresh full serialization** of the same arguments
//! (modulo stuffing whitespace, which these configs avoid by using exact
//! widths and value-stable updates).

use bsoap_chunks::ChunkConfig;
use bsoap_convert::ScalarKind;
use bsoap_core::{
    value::mio, EngineConfig, MessageTemplate, OpDesc, ParamDesc, SendTier, TypeDesc, Value,
};
use bsoap_xml::strip_pad;

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

fn small_chunks() -> ChunkConfig {
    ChunkConfig {
        initial_size: 256,
        split_threshold: 512,
        reserve: 32,
    }
}

fn dvals(n: usize) -> Value {
    Value::DoubleArray((0..n).map(|i| i as f64 + 0.25).collect())
}

fn mvals(n: usize) -> Value {
    Value::Array(
        (0..n)
            .map(|i| mio(i as i32, -(i as i32), i as f64 * 1.5))
            .collect(),
    )
}

/// Resize via update_args and verify byte equality with a fresh build.
fn check_resize(op: &OpDesc, from: Value, to: Value) {
    let config = EngineConfig::paper_default().with_chunk(small_chunks());
    let mut tpl = MessageTemplate::build(config, op, std::slice::from_ref(&from)).unwrap();
    let tier = tpl.update_args(std::slice::from_ref(&to)).unwrap();
    assert_eq!(tier, SendTier::PartialStructural);
    let report = tpl.flush();
    assert_eq!(report.tier, SendTier::PartialStructural);
    tpl.assert_invariants();

    let fresh = MessageTemplate::build(config, op, std::slice::from_ref(&to)).unwrap();
    // The length field is stuffed to 11 chars in both, so padding matches;
    // resized bytes must be identical to a from-scratch serialization.
    assert_eq!(
        String::from_utf8(tpl.to_bytes()).unwrap(),
        String::from_utf8(fresh.to_bytes()).unwrap()
    );
}

#[test]
fn grow_small() {
    check_resize(&doubles_op(), dvals(3), dvals(5));
}

#[test]
fn grow_across_chunks() {
    check_resize(&doubles_op(), dvals(10), dvals(200));
}

#[test]
fn grow_from_empty() {
    check_resize(&doubles_op(), dvals(0), dvals(7));
}

#[test]
fn grow_by_one() {
    check_resize(&doubles_op(), dvals(50), dvals(51));
}

#[test]
fn shrink_small() {
    check_resize(&doubles_op(), dvals(5), dvals(3));
}

#[test]
fn shrink_across_chunks() {
    check_resize(&doubles_op(), dvals(200), dvals(10));
}

#[test]
fn shrink_to_empty() {
    check_resize(&doubles_op(), dvals(7), dvals(0));
}

#[test]
fn shrink_by_one() {
    check_resize(&doubles_op(), dvals(51), dvals(50));
}

#[test]
fn mio_grow_and_shrink() {
    check_resize(&mios_op(), mvals(4), mvals(20));
    check_resize(&mios_op(), mvals(20), mvals(4));
    check_resize(&mios_op(), mvals(0), mvals(3));
    check_resize(&mios_op(), mvals(3), mvals(0));
}

#[test]
fn repeated_resizes_stay_consistent() {
    let config = EngineConfig::paper_default().with_chunk(small_chunks());
    let op = doubles_op();
    let mut tpl = MessageTemplate::build(config, &op, &[dvals(5)]).unwrap();
    for n in [9usize, 2, 40, 1, 0, 17, 16, 18, 100, 3] {
        tpl.update_args(&[dvals(n)]).unwrap();
        tpl.flush();
        tpl.assert_invariants();
        assert_eq!(tpl.array_len(0), n);
        let fresh = MessageTemplate::build(config, &op, &[dvals(n)]).unwrap();
        assert_eq!(tpl.to_bytes(), fresh.to_bytes(), "n = {n}");
    }
    // After the dust settles, a same-shape update is a perfect match again.
    let mut v = match dvals(3) {
        Value::DoubleArray(v) => v,
        _ => unreachable!(),
    };
    v[1] = 123.456;
    let tier = tpl.update_args(&[Value::DoubleArray(v)]).unwrap();
    assert_eq!(tier, SendTier::PerfectStructural);
}

#[test]
fn resize_with_params_after_array() {
    // Leaves *after* the array must survive the splice/pointer fix-ups.
    let op = OpDesc::new(
        "mixed",
        "urn:bench",
        vec![
            ParamDesc {
                name: "before".into(),
                desc: TypeDesc::Scalar(ScalarKind::Int),
            },
            ParamDesc {
                name: "arr".into(),
                desc: TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double)),
            },
            ParamDesc {
                name: "after".into(),
                desc: TypeDesc::Scalar(ScalarKind::Str),
            },
        ],
    );
    let config = EngineConfig::paper_default().with_chunk(small_chunks());
    let args = |n: usize, s: &str| vec![Value::Int(1), dvals(n), Value::Str(s.to_owned())];
    let mut tpl = MessageTemplate::build(config, &op, &args(8, "alpha")).unwrap();

    // Grow the array AND change the trailing scalar in one update.
    tpl.update_args(&args(80, "omega")).unwrap();
    tpl.flush();
    tpl.assert_invariants();
    let fresh = MessageTemplate::build(config, &op, &args(80, "omega")).unwrap();
    assert_eq!(tpl.to_bytes(), fresh.to_bytes());

    // Shrink and mutate again. "zz" is shorter than "omega", so the string
    // field keeps its width and pads (the paper's close-tag shift) —
    // compare modulo pad.
    tpl.update_args(&args(2, "zz")).unwrap();
    tpl.flush();
    tpl.assert_invariants();
    let fresh = MessageTemplate::build(config, &op, &args(2, "zz")).unwrap();
    assert_eq!(strip_pad(&tpl.to_bytes()), strip_pad(&fresh.to_bytes()));
}

#[test]
fn two_arrays_resize_independently() {
    let op = OpDesc::new(
        "pair",
        "urn:bench",
        vec![
            ParamDesc {
                name: "a".into(),
                desc: TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Int)),
            },
            ParamDesc {
                name: "b".into(),
                desc: TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double)),
            },
        ],
    );
    let ints = |n: usize| Value::IntArray((0..n as i32).collect());
    let config = EngineConfig::paper_default().with_chunk(small_chunks());
    let mut tpl = MessageTemplate::build(config, &op, &[ints(5), dvals(5)]).unwrap();

    for (na, nb) in [
        (12usize, 5usize),
        (12, 40),
        (3, 40),
        (3, 2),
        (60, 60),
        (0, 1),
        (5, 5),
    ] {
        tpl.update_args(&[ints(na), dvals(nb)]).unwrap();
        tpl.flush();
        tpl.assert_invariants();
        assert_eq!(tpl.array_len(0), na);
        assert_eq!(tpl.array_len(1), nb);
        let fresh = MessageTemplate::build(config, &op, &[ints(na), dvals(nb)]).unwrap();
        assert_eq!(tpl.to_bytes(), fresh.to_bytes(), "na={na} nb={nb}");
    }
}

#[test]
fn resize_updates_length_attribute() {
    let config = EngineConfig::paper_default();
    let mut tpl = MessageTemplate::build(config, &doubles_op(), &[dvals(3)]).unwrap();
    tpl.update_args(&[dvals(12)]).unwrap();
    tpl.flush();
    let text = String::from_utf8(tpl.to_bytes()).unwrap();
    assert!(text.contains("xsd:double[12"), "{text}");
    assert!(!text.contains("xsd:double[3 "), "old length must be gone");
}

#[test]
fn grow_with_changed_prefix_values() {
    // Prefix diff + growth in the same update. "9.5" and "8.5" are shorter
    // than the "0.25"/"2.25" they overwrite, so those fields pad instead of
    // contracting (§3.2's close-tag shift) — compare modulo pad.
    let config = EngineConfig::paper_default().with_chunk(small_chunks());
    let op = doubles_op();
    let mut tpl = MessageTemplate::build(config, &op, &[dvals(4)]).unwrap();
    let new = Value::DoubleArray(vec![9.5, 1.25, 8.5, 3.25, 100.0, 200.0]);
    tpl.update_args(std::slice::from_ref(&new)).unwrap();
    tpl.flush();
    tpl.assert_invariants();
    let fresh = MessageTemplate::build(config, &op, std::slice::from_ref(&new)).unwrap();
    assert_eq!(strip_pad(&tpl.to_bytes()), strip_pad(&fresh.to_bytes()));
}
