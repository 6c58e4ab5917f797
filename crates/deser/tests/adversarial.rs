//! Adversarial deserialization: mutated, truncated, and
//! boundary-straddling messages must never produce a *wrong* value.
//!
//! The differential deserializer trusts the previous message's skeleton
//! map only when the new bytes justify it. An attacker (or a corrupted
//! wire) handing it truncated bytes, flipped bytes, inserted bytes, or
//! edits that straddle a leaf-region boundary must get one of exactly
//! two outcomes:
//!
//! * `Ok(values)` — in which case the values must be identical to what a
//!   from-scratch full parse of those same mutated bytes yields (the
//!   differential path never *invents* a reading the full parser would
//!   not produce);
//! * a typed [`DeserError`] — never a panic, and never a poisoned
//!   deserializer: the next well-formed message must parse correctly.

use bsoap_convert::ScalarKind;
use bsoap_core::{EngineConfig, MessageTemplate, OpDesc, TypeDesc, Value};
use bsoap_deser::{parse_envelope, parse_envelope_mapped, DiffDeserializer, StreamingDeserializer};
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

fn apply_mutation(bytes: &mut Vec<u8>, m: &Mutation, op: &OpDesc) {
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
            // Regions come from mapping the *current* bytes; if they no
            // longer parse (earlier mutation), straddle nothing.
            if let Ok(mapped) = parse_envelope_mapped(bytes, op) {
                if mapped.leaves.is_empty() {
                    return;
                }
                let r = &mapped.leaves[leaf % mapped.leaves.len()].region;
                let start = r.start.saturating_sub(2);
                for (i, d) in digits.iter().enumerate() {
                    if let Some(b) = bytes.get_mut(start + i) {
                        *b = b'0' + (d % 10);
                    }
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Differential deserialization of corrupted bytes: either the exact
    /// same reading as a full parse of those bytes, or a typed error —
    /// and afterwards the deserializer still handles clean traffic.
    #[test]
    fn mutated_messages_never_yield_wrong_values(
        initial in prop::collection::vec(any_finite_f64(), 1..16),
        update in prop::collection::vec((0usize..16, any_finite_f64()), 0..4),
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
        diff.deserialize(&tpl.to_bytes()).unwrap();

        // A legitimate differential update, then corrupt it on the wire.
        for (idx, v) in &update {
            let idx = idx % values.len();
            values[idx] = *v;
        }
        tpl.update_args(&[Value::DoubleArray(values.clone())]).unwrap();
        tpl.flush();
        let mut corrupted = tpl.to_bytes().to_vec();
        for m in &mutations {
            apply_mutation(&mut corrupted, m, &op);
        }

        let full = parse_envelope(&corrupted, &op);
        // A typed rejection from the differential path is always fine;
        // only an `Ok` must agree with the full parser.
        if let Ok((vals, outcome)) = diff.deserialize(&corrupted) {
            let vals = vals.to_vec();
            match full {
                Ok(full_vals) => prop_assert_eq!(
                    &vals,
                    &full_vals,
                    "differential ({:?}) drifted from full parse of mutated bytes",
                    outcome
                ),
                Err(e) => {
                    return Err(TestCaseError::Fail(format!(
                        "differential accepted ({outcome:?}) what the full \
                         parser rejects ({e})"
                    )));
                }
            }
        }

        // Recovery: a fresh well-formed message must parse correctly and
        // identically on both paths — corruption never poisons state.
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
            apply_mutation(&mut bytes, m, &op);
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
