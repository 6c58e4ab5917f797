//! Template construction and tier-selection behavior.

use bsoap_chunks::ChunkConfig;
use bsoap_convert::ScalarKind;
use bsoap_core::{
    value::mio, Client, EngineConfig, MessageTemplate, OpDesc, SendTier, TypeDesc, Value,
    WidthPolicy, WireFormat,
};
use bsoap_xml::{Event, PullParser};

fn doubles_op() -> OpDesc {
    OpDesc::single(
        "sendDoubles",
        "urn:bench",
        "arr",
        TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double)),
    )
}

fn ints_op() -> OpDesc {
    OpDesc::single(
        "sendInts",
        "urn:bench",
        "arr",
        TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Int)),
    )
}

fn mios_op() -> OpDesc {
    OpDesc::single(
        "sendMios",
        "urn:bench",
        "arr",
        TypeDesc::array_of(TypeDesc::mio()),
    )
}

fn mio_array(n: usize) -> Value {
    Value::Array(
        (0..n)
            .map(|i| mio(i as i32, (i * 2) as i32, i as f64 + 0.5))
            .collect(),
    )
}

/// Parse a message and return (element name count map hits, text leaves).
fn well_formed(bytes: &[u8]) -> usize {
    let mut p = PullParser::new(bytes);
    let mut items = 0;
    loop {
        match p.next_event().expect("well-formed template output") {
            Event::Eof => break,
            Event::Start { name, .. } if p.input()[name.clone()].ends_with(b"item") => {
                items += 1;
            }
            _ => {}
        }
    }
    items
}

#[test]
fn build_produces_well_formed_soap() {
    let op = doubles_op();
    let tpl = MessageTemplate::build(
        EngineConfig::paper_default(),
        &op,
        &[Value::DoubleArray(vec![1.5, 2.5, 3.5])],
    )
    .unwrap();
    let bytes = tpl.to_bytes();
    let text = String::from_utf8(bytes.clone()).unwrap();
    assert!(text.starts_with("<?xml"));
    assert!(text.contains("<SOAP-ENV:Envelope"));
    assert!(text.contains("<ns1:sendDoubles>"));
    assert!(text.contains("SOAP-ENC:arrayType=\"xsd:double[3"));
    assert!(text.contains(">1.5</item>"));
    assert_eq!(well_formed(&bytes), 3);
    tpl.assert_invariants();
}

#[test]
fn mio_build_structure() {
    let tpl =
        MessageTemplate::build(EngineConfig::paper_default(), &mios_op(), &[mio_array(2)]).unwrap();
    let text = String::from_utf8(tpl.to_bytes()).unwrap();
    assert!(text.contains("arrayType=\"ns1:mio[2"), "{text}");
    assert!(text.contains("<item xsi:type=\"ns1:mio\">"));
    assert!(text.contains("<x xsi:type=\"xsd:int\">0</x>"));
    assert!(text.contains("<value xsi:type=\"xsd:double\">0.5</value>"));
    // 1 length leaf + 2 elements × 3 leaves
    assert_eq!(tpl.leaf_count(), 7);
    tpl.assert_invariants();
}

#[test]
fn content_match_resends_identical_bytes() {
    let op = doubles_op();
    let args = [Value::DoubleArray(vec![1.0, 2.0, 3.0])];
    let mut tpl = MessageTemplate::build(EngineConfig::paper_default(), &op, &args).unwrap();
    let first = tpl.to_bytes();

    // No updates → content match.
    assert_eq!(tpl.pending_tier(), SendTier::ContentMatch);
    let mut sink = Vec::new();
    let report = tpl.send(&mut sink).unwrap();
    assert_eq!(report.tier, SendTier::ContentMatch);
    assert_eq!(report.values_written, 0);
    assert_eq!(sink, first);

    // update_args with identical values is still a content match.
    let tier = tpl.update_args(&args).unwrap();
    assert_eq!(tier, SendTier::ContentMatch);
}

#[test]
fn perfect_structural_match_rewrites_only_dirty() {
    let op = doubles_op();
    let mut tpl = MessageTemplate::build(
        EngineConfig::paper_default(),
        &op,
        &[Value::DoubleArray(vec![1.0, 2.0, 3.0, 4.0])],
    )
    .unwrap();

    let tier = tpl
        .update_args(&[Value::DoubleArray(vec![1.0, 9.0, 3.0, 8.0])])
        .unwrap();
    assert_eq!(tier, SendTier::PerfectStructural);
    assert_eq!(tpl.dirty_count(), 2, "only two values changed");

    let report = tpl.flush();
    assert_eq!(report.tier, SendTier::PerfectStructural);
    assert_eq!(report.values_written, 2);
    let text = String::from_utf8(tpl.to_bytes()).unwrap();
    assert!(text.contains(">9</item>"));
    assert!(text.contains(">8</item>"));
    assert!(text.contains(">1</item>"));
    tpl.assert_invariants();
}

#[test]
fn same_length_update_touches_value_only() {
    // 2.5 → 7.5: identical serialized length → value bytes overwritten,
    // closing tag untouched (the cheapest dirty path).
    let op = doubles_op();
    let mut tpl = MessageTemplate::build(
        EngineConfig::paper_default(),
        &op,
        &[Value::DoubleArray(vec![2.5])],
    )
    .unwrap();
    let before = tpl.to_bytes();
    tpl.update_args(&[Value::DoubleArray(vec![7.5])]).unwrap();
    tpl.flush();
    let after = tpl.to_bytes();
    assert_eq!(before.len(), after.len());
    let diffs: Vec<usize> = before
        .iter()
        .zip(&after)
        .enumerate()
        .filter(|(_, (a, b))| a != b)
        .map(|(i, _)| i)
        .collect();
    assert_eq!(diffs.len(), 1, "exactly the changed digit differs");
}

#[test]
fn leaf_accessors_and_errors() {
    let op = mios_op();
    let mut tpl =
        MessageTemplate::build(EngineConfig::paper_default(), &op, &[mio_array(3)]).unwrap();
    // leaf 0 is the internal array-length field: rejected.
    assert!(tpl.set_int(0, 5).is_err());
    // element 1 field 2 (the double) via the indexing helper.
    let leaf = tpl.array_leaf(0, 1, 2);
    tpl.set_double(leaf, 42.25).unwrap();
    assert_eq!(tpl.dirty_count(), 1);
    // Kind mismatch: the x field is an int.
    let xleaf = tpl.array_leaf(0, 1, 0);
    assert!(tpl.set_double(xleaf, 1.0).is_err());
    // Out of range.
    assert!(tpl.set_double(10_000, 1.0).is_err());
    tpl.flush();
    assert!(String::from_utf8(tpl.to_bytes())
        .unwrap()
        .contains(">42.25</value>"));
}

#[test]
fn setters_in_any_order_flush_like_update_args() {
    // The diff marks leaves dirty in ascending order; an application
    // calling setters need not. The dirty list keeps the executor's order
    // either way, on both lanes.
    let old: Vec<f64> = (0..12).map(|i| f64::from(i) + 0.5).collect();
    let new: Vec<f64> = old.iter().map(|x| x * 1000.0 - 3.25).collect();
    for lane in WireFormat::ALL {
        let config = EngineConfig::paper_default().with_wire_format(lane);
        let build = || {
            MessageTemplate::build(config, &doubles_op(), &[Value::DoubleArray(old.clone())])
                .unwrap()
        };
        let mut by_args = build();
        by_args
            .update_args(&[Value::DoubleArray(new.clone())])
            .unwrap();
        let mut by_setters = build();
        for element in (0..new.len()).rev() {
            let leaf = by_setters.array_leaf(0, element, 0);
            by_setters.set_double(leaf, new[element]).unwrap();
        }
        by_setters.assert_invariants();
        assert_eq!(by_setters.dut().dirty(), by_args.dut().dirty(), "{lane:?}");
        by_args.flush();
        by_setters.flush();
        assert_eq!(by_setters.to_bytes(), by_args.to_bytes(), "{lane:?}");
        by_setters.assert_invariants();
    }
}

#[test]
fn the_wrong_array_variant_is_a_type_error_that_touches_nothing() {
    // `update_array` used to be public and skipped `check_args`: a
    // `DoubleArray` handed to an `int[]` (or struct-array) parameter
    // stored `Scalar::Double` into leaves of another kind. The only way
    // in is `update_args` now, and it checks first.
    let doubles = Value::DoubleArray(vec![9.5, 8.5, 7.5]);
    for (op, args) in [
        (ints_op(), Value::IntArray(vec![1, 2, 3])),
        (mios_op(), mio_array(3)),
    ] {
        let mut tpl = MessageTemplate::build(EngineConfig::paper_default(), &op, &[args]).unwrap();
        let before = tpl.to_bytes();
        let err = tpl.update_args(std::slice::from_ref(&doubles)).unwrap_err();
        assert!(
            matches!(err, bsoap_core::EngineError::TypeMismatch { .. }),
            "{err:?}"
        );
        assert_eq!(tpl.dirty_count(), 0);
        assert_eq!(tpl.pending_tier(), SendTier::ContentMatch);
        tpl.flush();
        assert_eq!(tpl.to_bytes(), before);
        tpl.assert_invariants();
    }
}

#[test]
fn multi_param_messages() {
    let op = OpDesc::new(
        "store",
        "urn:cat",
        vec![
            bsoap_core::ParamDesc {
                name: "id".into(),
                desc: TypeDesc::Scalar(ScalarKind::Int),
            },
            bsoap_core::ParamDesc {
                name: "values".into(),
                desc: TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double)),
            },
            bsoap_core::ParamDesc {
                name: "tag".into(),
                desc: TypeDesc::Scalar(ScalarKind::Str),
            },
        ],
    );
    let args = [
        Value::Int(7),
        Value::DoubleArray(vec![1.0, 2.0]),
        Value::Str("alpha".into()),
    ];
    let mut tpl = MessageTemplate::build(EngineConfig::paper_default(), &op, &args).unwrap();
    let text = String::from_utf8(tpl.to_bytes()).unwrap();
    assert!(text.contains("<id xsi:type=\"xsd:int\">7</id>"));
    assert!(text.contains("<tag xsi:type=\"xsd:string\">alpha</tag>"));

    // Update the scalar after the array.
    let tier = tpl
        .update_args(&[
            Value::Int(7),
            Value::DoubleArray(vec![1.0, 2.0]),
            Value::Str("beta!".into()),
        ])
        .unwrap();
    assert_eq!(tier, SendTier::PerfectStructural);
    tpl.flush();
    assert!(String::from_utf8(tpl.to_bytes())
        .unwrap()
        .contains(">beta!</tag>"));
    tpl.assert_invariants();
}

#[test]
fn client_tier_progression() {
    for format in WireFormat::ALL {
        let op = ints_op();
        let mut client = Client::new(EngineConfig::paper_default().with_wire_format(format));
        let mut sink = Vec::new();

        let r1 = client
            .call(
                "http://svc/a",
                &op,
                &[Value::IntArray(vec![1, 2, 3])],
                &mut sink,
            )
            .unwrap();
        assert_eq!(r1.tier, SendTier::FirstTime);

        let r2 = client
            .call(
                "http://svc/a",
                &op,
                &[Value::IntArray(vec![1, 2, 3])],
                &mut sink,
            )
            .unwrap();
        assert_eq!(r2.tier, SendTier::ContentMatch);

        let r3 = client
            .call(
                "http://svc/a",
                &op,
                &[Value::IntArray(vec![1, 9, 3])],
                &mut sink,
            )
            .unwrap();
        assert_eq!(r3.tier, SendTier::PerfectStructural);

        let r4 = client
            .call(
                "http://svc/a",
                &op,
                &[Value::IntArray(vec![1, 9, 3, 4])],
                &mut sink,
            )
            .unwrap();
        assert_eq!(r4.tier, SendTier::PartialStructural);

        // A different endpoint gets its own template (first-time again).
        let r5 = client
            .call(
                "http://svc/b",
                &op,
                &[Value::IntArray(vec![1, 2, 3])],
                &mut sink,
            )
            .unwrap();
        assert_eq!(r5.tier, SendTier::FirstTime);

        let stats = client.stats();
        assert_eq!(stats.first_time, 2);
        assert_eq!(stats.content_match, 1);
        assert_eq!(stats.perfect_structural, 1);
        assert_eq!(stats.partial_structural, 1);
        assert_eq!(stats.calls(), 5);
    }
}

#[test]
fn stuffed_max_widths_pad_with_whitespace() {
    let op = doubles_op();
    let tpl = MessageTemplate::build(
        EngineConfig::stuffed_max(),
        &op,
        &[Value::DoubleArray(vec![1.0])],
    )
    .unwrap();
    let text = String::from_utf8(tpl.to_bytes()).unwrap();
    // Field width 24 for a 1-char value → 23 pad spaces after </item>.
    assert!(
        text.contains(&format!(">1</item>{}", " ".repeat(23))),
        "{text}"
    );
    tpl.assert_invariants();
}

#[test]
fn small_chunks_split_large_messages() {
    let config = EngineConfig::paper_default().with_chunk(ChunkConfig {
        initial_size: 256,
        split_threshold: 512,
        reserve: 32,
    });
    let tpl = MessageTemplate::build(
        config,
        &doubles_op(),
        &[Value::DoubleArray(
            (0..100).map(|i| i as f64 * 1.125).collect(),
        )],
    )
    .unwrap();
    assert!(
        tpl.chunk_count() > 4,
        "message must span chunks: {}",
        tpl.chunk_count()
    );
    assert_eq!(well_formed(&tpl.to_bytes()), 100);
    tpl.assert_invariants();
}

#[test]
fn rejected_shapes() {
    // Arrays of arrays.
    let bad = OpDesc::single(
        "f",
        "urn:x",
        "a",
        TypeDesc::array_of(TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Int))),
    );
    assert!(
        MessageTemplate::build(EngineConfig::paper_default(), &bad, &[Value::Array(vec![])])
            .is_err()
    );

    // Array inside a struct.
    let bad2 = OpDesc::single(
        "f",
        "urn:x",
        "s",
        TypeDesc::Struct {
            name: "holder".into(),
            fields: vec![(
                "inner".into(),
                TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Int)),
            )],
        },
    );
    assert!(MessageTemplate::build(
        EngineConfig::paper_default(),
        &bad2,
        &[Value::Struct(vec![Value::IntArray(vec![])])]
    )
    .is_err());
}

#[test]
fn nested_structs_supported() {
    let inner = TypeDesc::Struct {
        name: "pt".into(),
        fields: vec![
            ("x".into(), TypeDesc::Scalar(ScalarKind::Double)),
            ("y".into(), TypeDesc::Scalar(ScalarKind::Double)),
        ],
    };
    let outer = TypeDesc::Struct {
        name: "seg".into(),
        fields: vec![("a".into(), inner.clone()), ("b".into(), inner)],
    };
    let op = OpDesc::single("draw", "urn:x", "seg", outer);
    let point = |x: f64, y: f64| Value::Struct(vec![Value::Double(x), Value::Double(y)]);
    let args = [Value::Struct(vec![point(0.0, 1.0), point(2.0, 3.0)])];
    let mut tpl = MessageTemplate::build(EngineConfig::paper_default(), &op, &args).unwrap();
    assert_eq!(tpl.leaf_count(), 4);
    let t2 = [Value::Struct(vec![point(0.0, 1.0), point(2.0, 99.5)])];
    assert_eq!(tpl.update_args(&t2).unwrap(), SendTier::PerfectStructural);
    tpl.flush();
    assert!(String::from_utf8(tpl.to_bytes())
        .unwrap()
        .contains(">99.5</y>"));
    tpl.assert_invariants();
}

#[test]
fn bool_and_long_leaves() {
    let op = OpDesc::new(
        "flags",
        "urn:x",
        vec![
            bsoap_core::ParamDesc {
                name: "on".into(),
                desc: TypeDesc::Scalar(ScalarKind::Bool),
            },
            bsoap_core::ParamDesc {
                name: "big".into(),
                desc: TypeDesc::Scalar(ScalarKind::Long),
            },
        ],
    );
    let mut tpl = MessageTemplate::build(
        EngineConfig::paper_default(),
        &op,
        &[Value::Bool(true), Value::Long(1 << 40)],
    )
    .unwrap();
    let text = String::from_utf8(tpl.to_bytes()).unwrap();
    assert!(text.contains(">true</on>"));
    assert!(text.contains(">1099511627776</big>"));
    tpl.update_args(&[Value::Bool(false), Value::Long(-1)])
        .unwrap();
    tpl.flush();
    let text = String::from_utf8(tpl.to_bytes()).unwrap();
    assert!(text.contains(">false</on>"));
    assert!(text.contains(">-1</big>"));
    tpl.assert_invariants();
}

#[test]
fn width_policy_intermediate() {
    let config = EngineConfig::paper_default().with_width(WidthPolicy::Fixed {
        double: 18,
        int: 6,
        long: 20,
    });
    let tpl =
        MessageTemplate::build(config, &doubles_op(), &[Value::DoubleArray(vec![1.0])]).unwrap();
    // 1-char value stuffed to 18 → 17 pad spaces.
    let text = String::from_utf8(tpl.to_bytes()).unwrap();
    assert!(text.contains(&format!(">1</item>{}", " ".repeat(17))));
}
