//! Property tests: deserialization inverts serialization, and the
//! differential path is observationally identical to full parsing.

use bsoap_convert::ScalarKind;
use bsoap_core::value::mio;
use bsoap_core::{EngineConfig, MessageTemplate, OpDesc, TypeDesc, Value, WidthPolicy};
use bsoap_deser::{parse_envelope, DiffDeserializer};
use proptest::prelude::*;

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

fn any_finite_f64() -> impl Strategy<Value = f64> {
    // Full bit-pattern coverage, filtered to XML-representable values
    // (xsd:double has no NaN/Inf lexical forms in our profile).
    any::<u64>()
        .prop_map(f64::from_bits)
        .prop_filter("finite", |x| x.is_finite())
}

fn config_strategy() -> impl Strategy<Value = EngineConfig> {
    prop_oneof![
        Just(EngineConfig::paper_default()),
        Just(EngineConfig::stuffed_max()),
        Just(
            EngineConfig::paper_default().with_width(WidthPolicy::Fixed {
                double: 18,
                int: 6,
                long: 12
            })
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn parse_inverts_build_doubles(
        values in prop::collection::vec(any_finite_f64(), 0..40),
        config in config_strategy(),
    ) {
        let op = doubles_op();
        let args = vec![Value::DoubleArray(values)];
        let tpl = MessageTemplate::build(config, &op, &args).unwrap();
        let parsed = parse_envelope(&tpl.to_bytes(), &op).unwrap();
        // Bitwise comparison: shortest-repr round-trips exactly.
        let (Value::DoubleArray(a), Value::DoubleArray(b)) = (&args[0], &parsed[0]) else {
            panic!("variant drift");
        };
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn parse_inverts_build_mios(
        elems in prop::collection::vec((any::<i32>(), any::<i32>(), any_finite_f64()), 0..20),
        config in config_strategy(),
    ) {
        let op = mios_op();
        let args = vec![Value::Array(elems.iter().map(|&(x, y, v)| mio(x, y, v)).collect())];
        let tpl = MessageTemplate::build(config, &op, &args).unwrap();
        let parsed = parse_envelope(&tpl.to_bytes(), &op).unwrap();
        prop_assert_eq!(&parsed, &args);
    }

    #[test]
    fn differential_equals_full_parse_over_update_sequences(
        initial in prop::collection::vec(any_finite_f64(), 1..20),
        updates in prop::collection::vec(
            prop::collection::vec((0usize..20, any_finite_f64()), 0..6),
            1..8
        ),
        stuffed in any::<bool>(),
    ) {
        let op = doubles_op();
        let config = if stuffed {
            EngineConfig::stuffed_max()
        } else {
            EngineConfig::paper_default()
        };
        let mut current = initial.clone();
        let mut tpl =
            MessageTemplate::build(config, &op, &[Value::DoubleArray(current.clone())]).unwrap();
        let mut diff = DiffDeserializer::new(op.clone());
        diff.deserialize(&tpl.to_bytes()).unwrap();

        for update in updates {
            for (idx, v) in update {
                let idx = idx % current.len();
                current[idx] = v;
            }
            tpl.update_args(&[Value::DoubleArray(current.clone())]).unwrap();
            tpl.flush();
            let bytes = tpl.to_bytes();
            let full = parse_envelope(&bytes, &op).unwrap();
            let (diffed, _) = diff.deserialize(&bytes).unwrap();
            prop_assert_eq!(diffed, &full[..], "differential drifted from full parse");
        }
    }

    #[test]
    fn string_values_round_trip(
        s in "[ -~]{0,60}",  // printable ASCII incl. <, &, quotes
    ) {
        let op = OpDesc::single("f", "urn:x", "s", TypeDesc::Scalar(ScalarKind::Str));
        let args = vec![Value::Str(s)];
        let tpl = MessageTemplate::build(EngineConfig::paper_default(), &op, &args).unwrap();
        let parsed = parse_envelope(&tpl.to_bytes(), &op).unwrap();
        prop_assert_eq!(&parsed, &args);
    }
}
