//! Chunk overlaying (§3.3): bounded memory, tags written once,
//! stream equals the whole-template serialization.

use bsoap_convert::ScalarKind;
use bsoap_core::overlay::OverlaySender;
use bsoap_core::{EngineConfig, MessageTemplate, OpDesc, TypeDesc, Value};
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

fn dvals(n: usize) -> Value {
    Value::DoubleArray((0..n).map(|i| i as f64 * 0.75 + 0.125).collect())
}

#[test]
fn stream_is_pad_equivalent_to_template() {
    let op = doubles_op();
    let config = EngineConfig::paper_default();
    for n in [0usize, 1, 7, 100, 3000] {
        let value = dvals(n);
        let mut sender = OverlaySender::new(config, &op, 64).unwrap();
        let mut out = Vec::new();
        sender.send(&value, &mut out).unwrap();
        let tpl = MessageTemplate::build(config, &op, std::slice::from_ref(&value)).unwrap();
        assert_eq!(
            String::from_utf8(strip_pad(&out)).unwrap(),
            String::from_utf8(strip_pad(&tpl.to_bytes())).unwrap(),
            "n = {n}"
        );
    }
}

#[test]
fn window_memory_stays_bounded() {
    let op = doubles_op();
    let mut sender = OverlaySender::new(EngineConfig::paper_default(), &op, 128).unwrap();
    let mut out = Vec::new();
    let small = sender.send(&dvals(256), &mut out).unwrap();
    out.clear();
    let large = sender.send(&dvals(16_384), &mut out).unwrap();
    // 64x the data, same window-bounded footprint (individual values are
    // a little wider in the large array, so allow that growth but nothing
    // proportional to the array).
    assert!(
        large.window_bytes < small.window_bytes * 2,
        "window grew with the array: {} vs {}",
        large.window_bytes,
        small.window_bytes
    );
    assert_eq!(large.portions, 16_384 / 128);
    assert!(large.window_bytes < out.len() / 50);
}

#[test]
fn tags_written_once_values_every_portion() {
    // Re-sending through the same sender reuses the window fragment:
    // every send after the first re-serializes values only.
    let op = doubles_op();
    let mut sender = OverlaySender::new(EngineConfig::paper_default(), &op, 32).unwrap();
    let mut out = Vec::new();
    let n = 320usize;
    let r1 = sender.send(&dvals(n), &mut out).unwrap();
    assert_eq!(r1.portions, 10);
    // First send serializes every value at least once (builds the window).
    assert!(
        r1.values_written >= n - 32,
        "first send: {}",
        r1.values_written
    );
    out.clear();
    let r2 = sender.send(&dvals(n), &mut out).unwrap();
    // Subsequent sends also re-serialize all values (that is the overlay
    // trade-off) but never rebuild tags; the report shape stays stable.
    assert_eq!(r2.portions, 10);
    assert_eq!(r2.values_written, n);
}

#[test]
fn changing_data_between_sends() {
    let op = doubles_op();
    let config = EngineConfig::paper_default();
    let mut sender = OverlaySender::new(config, &op, 16).unwrap();
    let mut out1 = Vec::new();
    sender.send(&dvals(100), &mut out1).unwrap();

    let mut changed = dvals(100);
    let Value::DoubleArray(v) = &mut changed else {
        unreachable!()
    };
    for x in v.iter_mut() {
        *x += 1.0;
    }
    let mut out2 = Vec::new();
    sender.send(&changed, &mut out2).unwrap();
    let tpl = MessageTemplate::build(config, &op, &[changed]).unwrap();
    assert_eq!(strip_pad(&out2), strip_pad(&tpl.to_bytes()));
    assert_ne!(strip_pad(&out1), strip_pad(&out2));
}

#[test]
fn length_changes_between_sends() {
    // Growing and shrinking arrays re-portion correctly (tail fragment
    // rebuilt on size change).
    let op = doubles_op();
    let config = EngineConfig::paper_default();
    let mut sender = OverlaySender::new(config, &op, 16).unwrap();
    for n in [100usize, 37, 160, 16, 15, 17, 0, 5] {
        let value = dvals(n);
        let mut out = Vec::new();
        sender.send(&value, &mut out).unwrap();
        let tpl = MessageTemplate::build(config, &op, std::slice::from_ref(&value)).unwrap();
        assert_eq!(strip_pad(&out), strip_pad(&tpl.to_bytes()), "n = {n}");
    }
}

#[test]
fn mio_overlay_round_trips() {
    let op = mios_op();
    let config = EngineConfig::paper_default();
    let value = Value::Array(
        (0..200)
            .map(|i| bsoap_core::value::mio(i, -i, i as f64 * 1.5))
            .collect(),
    );
    let mut sender = OverlaySender::auto_window(config, &op).unwrap();
    let mut out = Vec::new();
    let report = sender.send(&value, &mut out).unwrap();
    assert!(report.bytes > 0);
    let tpl = MessageTemplate::build(config, &op, &[value]).unwrap();
    assert_eq!(strip_pad(&out), strip_pad(&tpl.to_bytes()));
}

#[test]
fn auto_window_fills_one_chunk() {
    let op = mios_op();
    let config = EngineConfig::paper_default();
    let sender = OverlaySender::auto_window(config, &op).unwrap();
    let elem_max = bsoap_core::overlay::max_element_bytes(&TypeDesc::mio());
    assert!(sender.window_elems() >= 1);
    assert!(
        sender.window_elems() * elem_max <= config.chunk.fill_limit(),
        "window must fit the chunk at worst-case widths"
    );
}

#[test]
fn invalid_shapes_rejected() {
    let config = EngineConfig::paper_default();
    // Non-array parameter.
    let scalar_op = OpDesc::single("f", "urn:x", "v", TypeDesc::Scalar(ScalarKind::Int));
    assert!(OverlaySender::new(config, &scalar_op, 8).is_err());
    // Multi-parameter operation.
    let multi = OpDesc::new(
        "g",
        "urn:x",
        vec![
            bsoap_core::ParamDesc {
                name: "a".into(),
                desc: TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Int)),
            },
            bsoap_core::ParamDesc {
                name: "b".into(),
                desc: TypeDesc::Scalar(ScalarKind::Int),
            },
        ],
    );
    assert!(OverlaySender::new(config, &multi, 8).is_err());
    // Zero-element window.
    assert!(OverlaySender::new(config, &doubles_op(), 0).is_err());
    // Wrong value kind at send time.
    let mut ok = OverlaySender::new(config, &doubles_op(), 8).unwrap();
    assert!(ok.send(&Value::Int(3), &mut Vec::new()).is_err());
}
