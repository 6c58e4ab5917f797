//! Adversarial deserialization: mutated, truncated, and
//! boundary-straddling messages must never produce a *wrong* value.
//!
//! The differential deserializer trusts the previous message's region
//! map only as far as the new bytes justify it. An attacker (or a
//! corrupted wire) handing it truncated bytes, flipped bytes, inserted
//! bytes, or edits that straddle a leaf-region boundary — after a message
//! of another length, so the shift-tolerant walk is what meets them — must
//! get exactly what a from-scratch full parse of those same bytes yields:
//!
//! * the same values (the differential path never *invents* a reading the
//!   full parser would not produce, and never keeps a stale one), or
//! * a typed [`DeserError`] where the full parser raises one too — never
//!   a panic, and never a poisoned deserializer: the previous good
//!   message is still the reference, and the next well-formed message
//!   parses correctly.

use bsoap_convert::ScalarKind;
use bsoap_core::{EngineConfig, MessageTemplate, OpDesc, TypeDesc, Value};
use bsoap_deser::{parse_envelope, DiffDeserializer, DiffOutcome, StreamingDeserializer};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

fn doubles_op() -> OpDesc {
    OpDesc::single(
        "send",
        "urn:bench",
        "arr",
        TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double)),
    )
}

fn any_finite_f64() -> impl Strategy<Value = f64> {
    any::<u64>()
        .prop_map(f64::from_bits)
        .prop_filter("finite", |x| x.is_finite())
}

/// One corruption applied to a message's bytes.
#[derive(Clone, Debug)]
enum Mutation {
    /// Mid-message hangup.
    Truncate(usize),
    /// Flip bits anywhere — skeleton or leaf.
    Flip { pos: usize, xor: u8 },
    /// Insert a byte, shifting every later tag.
    Insert { pos: usize, byte: u8 },
    /// Overwrite a 4-byte window straddling a leaf region's start (last
    /// skeleton bytes of the open tag + first value bytes) with digits:
    /// the cheapest way to desynchronize the skeleton while keeping the
    /// bytes plausible.
    StraddleLeaf { leaf: usize, digits: [u8; 4] },
}

fn apply_mutation(bytes: &mut Vec<u8>, m: &Mutation) {
    match m {
        Mutation::Truncate(keep) => {
            let keep = keep % (bytes.len() + 1);
            bytes.truncate(keep);
        }
        Mutation::Flip { pos, xor } => {
            if !bytes.is_empty() {
                let n = bytes.len();
                bytes[pos % n] ^= xor;
            }
        }
        Mutation::Insert { pos, byte } => {
            let pos = pos % (bytes.len() + 1);
            bytes.insert(pos, *byte);
        }
        Mutation::StraddleLeaf { leaf, digits } => {
            // A leaf region starts where an item's open tag ends, in the
            // *current* bytes; if none is left (earlier mutation),
            // straddle nothing.
            let open = b"xsd:double\">";
            let leaves: Vec<usize> = (open.len()..=bytes.len())
                .filter(|&end| bytes[..end].ends_with(open))
                .collect();
            if leaves.is_empty() {
                return;
            }
            let start = leaves[leaf % leaves.len()].saturating_sub(2);
            for (i, d) in digits.iter().enumerate() {
                if let Some(b) = bytes.get_mut(start + i) {
                    *b = b'0' + (d % 10);
                }
            }
        }
    }
}

fn mutation_strategy() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (0usize..4096).prop_map(Mutation::Truncate),
        (0usize..4096, 1u8..=255).prop_map(|(pos, xor)| Mutation::Flip { pos, xor }),
        (0usize..4096, any::<u8>()).prop_map(|(pos, byte)| Mutation::Insert { pos, byte }),
        (0usize..32, any::<u32>()).prop_map(|(leaf, d)| Mutation::StraddleLeaf {
            leaf,
            digits: d.to_le_bytes(),
        }),
    ]
}

/// Prologues only a substring search could mistake for an envelope: the
/// streaming parser must reject each, as `parse_envelope` does, before
/// it emits an item.
#[test]
fn streaming_prologue_is_parsed_not_searched() {
    let op = doubles_op();
    let tail = "<item>1.5</item></arr></ns1:send></SOAP-ENV:Body></SOAP-ENV:Envelope>";
    let head = "<SOAP-ENV:Envelope><SOAP-ENV:Body><ns1:send>";
    for (what, bytes) in [
        (
            "the three open tags exist only inside a comment",
            format!(
                "<!--<SOAP-ENV:Envelope<SOAP-ENV:Body<ns1:send-->\
                 <arr SOAP-ENC:arrayType=\"xsd:double[1]\">{tail}"
            ),
        ),
        (
            "the array element only starts with the parameter's name",
            format!("{head}<arrX SOAP-ENC:arrayType=\"xsd:double[1]\">{tail}")
                .replace("</arr>", "</arrX>"),
        ),
        (
            "an empty-element array tag followed by sibling items",
            format!("{head}<arr SOAP-ENC:arrayType=\"xsd:double[1]\"/>{tail}"),
        ),
    ] {
        assert!(
            parse_envelope(bytes.as_bytes(), &op).is_err(),
            "{what}: the oracle must reject"
        );
        let mut d = StreamingDeserializer::new(&op).unwrap();
        let mut items = 0usize;
        let pushed = d.push(bytes.as_bytes(), |_, _| {
            items += 1;
            Ok(())
        });
        assert_eq!(items, 0, "{what}: emitted an item");
        assert!(
            pushed.is_err(),
            "{what}: accepted by the streaming prologue"
        );
    }
}

/// A declared array length is a claim, not a size: a negative one is a
/// typed error (it used to panic the reservation), an absurd one costs
/// no more memory than the message itself.
#[test]
fn lying_array_lengths_are_typed_errors() {
    let op = doubles_op();
    for n in ["-1", "-2147483648", "2147483647"] {
        let bytes = format!(
            "<SOAP-ENV:Envelope><SOAP-ENV:Body><ns1:send>\
             <arr SOAP-ENC:arrayType=\"xsd:double[{n}]\"><item>1.5</item></arr>\
             </ns1:send></SOAP-ENV:Body></SOAP-ENV:Envelope>"
        );
        assert!(parse_envelope(bytes.as_bytes(), &op).is_err(), "[{n}]");
        let mut d = StreamingDeserializer::new(&op).unwrap();
        let streamed = d
            .push(bytes.as_bytes(), |_, _| Ok(()))
            .and_then(|()| d.finish().map(drop));
        assert!(streamed.is_err(), "[{n}] streamed");
    }
}

/// An array with a scalar behind it, so a leaf can fail *after* the walk
/// has already cut or extended the array.
fn doubles_then_scalar_op() -> OpDesc {
    let param = |name: &str, desc| bsoap_core::ParamDesc {
        name: name.into(),
        desc,
    };
    OpDesc::new(
        "send",
        "urn:bench",
        vec![
            param(
                "arr",
                TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double)),
            ),
            param("tail", TypeDesc::Scalar(ScalarKind::Double)),
        ],
    )
}

/// Hand-written attacks on a resized message, each fed to a deserializer
/// primed with the good message of another length before it. The walk
/// must answer as the full parse does — it may refuse, it may not invent
/// an error or a value — and whatever it answered, the reference must
/// still be the primed message: resending it is `Identical`, and the
/// untampered resize still decodes differentially to the oracle's values.
#[test]
fn tampered_resizes_match_the_oracle_and_keep_the_reference() {
    let op = doubles_then_scalar_op();
    let args = |xs: &[f64], tail: f64| vec![Value::DoubleArray(xs.to_vec()), Value::Double(tail)];
    let first = args(&[1.5, 2.5, 3.5], 9.5);
    for config in [EngineConfig::paper_default(), EngineConfig::stuffed_max()] {
        let tpl = MessageTemplate::build(config, &op, &first).unwrap();
        let primed = tpl.to_bytes().to_vec();
        let next = |values: Vec<Value>| {
            let mut tpl = tpl.clone();
            tpl.update_args(&values).unwrap();
            tpl.flush();
            String::from_utf8(tpl.to_bytes().to_vec()).unwrap()
        };
        let grown = next(args(&[1.5, 2.5, 3.5, 4.5, 5.5], 9.5));
        let shrunk = next(args(&[1.5], 9.5));
        let open = "<item xsi:type=\"xsd:double\">";
        let cases: [(&str, &String, String); 8] = [
            (
                "`<` injected into leaf text",
                &grown,
                grown.replace("2.5</item>", "2<5</item>"),
            ),
            (
                "close tag of an appended element renamed",
                &grown,
                grown.replace("4.5</item>", "4.5</itex>"),
            ),
            (
                "declared length is not the carried count after an append",
                &grown,
                grown.replace("xsd:double[5]", "xsd:double[4]"),
            ),
            (
                "message cut in the middle of an appended leaf",
                &grown,
                grown[..grown.find("4.5").unwrap() + 2].to_owned(),
            ),
            (
                "appended element with a different open skeleton",
                &grown,
                grown.replace(&format!("{open}4.5"), "<item xsi:type=\"xsd:doubly\">4.5"),
            ),
            (
                "lexical error in the middle of the walk",
                &grown,
                grown.replace("2.5</item>", "2x5</item>"),
            ),
            (
                "lexical error in an appended element",
                &grown,
                grown.replace("5.5</item>", "5.x</item>"),
            ),
            (
                "lexical error after a truncation",
                &shrunk,
                shrunk.replace("9.5</tail>", "9.z</tail>"),
            ),
        ];
        for (what, good, tampered) in cases {
            assert_ne!(&tampered, good, "{what}: the tamper did not apply");
            assert_ne!(tampered.len(), primed.len(), "{what}: same length");
            let mut diff = DiffDeserializer::new(op.clone());
            diff.deserialize(&primed).unwrap();

            let oracle = parse_envelope(tampered.as_bytes(), &op);
            match (diff.deserialize(tampered.as_bytes()), &oracle) {
                (Ok((got, _)), Ok(want)) => assert_eq!(got, &want[..], "{what}"),
                (Err(_), Err(_)) => {}
                (got, want) => panic!("{what}: walk {got:?}, oracle {want:?}"),
            }
            if oracle.is_ok() {
                continue;
            }
            let (got, outcome) = diff.deserialize(&primed).unwrap();
            assert_eq!(
                (got, outcome),
                (&first[..], DiffOutcome::Identical),
                "{what}"
            );
            let want = parse_envelope(good.as_bytes(), &op).unwrap();
            let (got, outcome) = diff.deserialize(good.as_bytes()).unwrap();
            assert_eq!(got, &want[..], "{what}");
            assert!(
                matches!(outcome, DiffOutcome::Differential { .. }),
                "{what}: {outcome:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Differential deserialization of corrupted bytes, primed with the
    /// unmutated previous message of a different length: exactly the full
    /// parse's reading of those bytes — same values or both a typed error
    /// — and afterwards the deserializer still handles clean traffic.
    #[test]
    fn mutated_messages_never_yield_wrong_values(
        initial in prop::collection::vec(any_finite_f64(), 1..16),
        update in prop::collection::vec((0usize..16, any_finite_f64()), 0..4),
        resize in prop_oneof![(1usize..4).prop_map(Ok), (1usize..16).prop_map(Err)],
        mutations in prop::collection::vec(mutation_strategy(), 1..4),
        stuffed in any::<bool>(),
    ) {
        let op = doubles_op();
        let config = if stuffed {
            EngineConfig::stuffed_max()
        } else {
            EngineConfig::paper_default()
        };
        let mut values = initial;
        let mut tpl =
            MessageTemplate::build(config, &op, &[Value::DoubleArray(values.clone())]).unwrap();
        let mut diff = DiffDeserializer::new(op.clone());
        let primed = tpl.to_bytes().to_vec();
        diff.deserialize(&primed).unwrap();

        // A legitimate update that rewrites values and appends or drops
        // elements, so the message changes length; then corrupt it on the
        // wire.
        for (idx, v) in &update {
            let idx = idx % values.len();
            values[idx] = *v;
        }
        match resize {
            Ok(grow) => values.extend((0..grow).map(|i| i as f64 + 0.5)),
            Err(drop) => values.truncate(values.len().saturating_sub(drop)),
        }
        tpl.update_args(&[Value::DoubleArray(values.clone())]).unwrap();
        tpl.flush();
        let mut corrupted = tpl.to_bytes().to_vec();
        prop_assume!(corrupted.len() != primed.len());
        for m in &mutations {
            apply_mutation(&mut corrupted, m);
        }

        let full = parse_envelope(&corrupted, &op);
        match (diff.deserialize(&corrupted), full) {
            (Ok((vals, outcome)), Ok(full_vals)) => prop_assert_eq!(
                vals,
                &full_vals[..],
                "differential ({:?}) drifted from full parse of mutated bytes",
                outcome
            ),
            (Err(_), Err(_)) => {
                // Nothing landed: the primed message is still the reference.
                let (_, outcome) = diff.deserialize(&primed).unwrap();
                prop_assert_eq!(outcome, DiffOutcome::Identical);
            }
            (Ok((_, outcome)), Err(e)) => {
                return Err(TestCaseError::Fail(format!(
                    "differential accepted ({outcome:?}) what the full \
                     parser rejects ({e})"
                )));
            }
            (Err(e), Ok(_)) => {
                return Err(TestCaseError::Fail(format!(
                    "differential invented an error ({e}) for bytes the \
                     full parser reads"
                )));
            }
        }

        // Recovery: a fresh well-formed message must parse correctly and
        // identically on both paths — corruption never poisons state.
        if values.is_empty() {
            values.push(0.0);
        }
        for (i, v) in values.iter_mut().enumerate() {
            *v = (i as f64) * 0.25 - 1.5;
        }
        tpl.update_args(&[Value::DoubleArray(values.clone())]).unwrap();
        tpl.flush();
        let clean = tpl.to_bytes().to_vec();
        let full = parse_envelope(&clean, &op).expect("clean message must parse");
        let (diffed, _) = diff
            .deserialize(&clean)
            .expect("clean message after corruption must parse");
        prop_assert_eq!(diffed, &full[..], "post-corruption recovery drifted");
        prop_assert_eq!(
            &full[0],
            &Value::DoubleArray(values),
            "recovered values are not the sent values"
        );
    }

    /// The schema-directed envelope parser on the same corpus: any result
    /// is acceptable except a panic or a shape-violating success.
    #[test]
    fn envelope_parser_is_total_on_mutated_bytes(
        initial in prop::collection::vec(any_finite_f64(), 0..16),
        mutations in prop::collection::vec(mutation_strategy(), 1..6),
        stuffed in any::<bool>(),
    ) {
        let op = doubles_op();
        let config = if stuffed {
            EngineConfig::stuffed_max()
        } else {
            EngineConfig::paper_default()
        };
        let tpl = MessageTemplate::build(config, &op, &[Value::DoubleArray(initial)]).unwrap();
        let mut bytes = tpl.to_bytes().to_vec();
        for m in &mutations {
            apply_mutation(&mut bytes, m);
        }
        if let Ok(args) = parse_envelope(&bytes, &op) {
            prop_assert_eq!(args.len(), 1, "shape violated: wrong arity accepted");
            prop_assert!(
                matches!(args[0], Value::DoubleArray(_)),
                "shape violated: wrong variant accepted"
            );
        }
    }

    /// Pure garbage: both parse paths stay total (typed result, no
    /// panic), and the differential deserializer is not poisoned by it.
    #[test]
    fn garbage_bytes_never_fatal(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let op = doubles_op();
        let mut diff = DiffDeserializer::new(op.clone());
        if let Ok(args) = parse_envelope(&bytes, &op) {
            prop_assert_eq!(args.len(), 1, "shape violated on garbage input");
        }
        let _ = diff.deserialize(&bytes);
        // And it must still work afterwards.
        let tpl = MessageTemplate::build(
            EngineConfig::paper_default(),
            &op,
            &[Value::DoubleArray(vec![1.5, 2.5])],
        )
        .unwrap();
        let (vals, _) = diff.deserialize(&tpl.to_bytes()).expect("clean after garbage");
        prop_assert_eq!(&vals[0], &Value::DoubleArray(vec![1.5, 2.5]));
    }
}
