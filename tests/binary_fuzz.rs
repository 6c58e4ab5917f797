//! Adversarial fuzz for the compact-binary decoder (DESIGN §3.15).
//!
//! The binary lane's decoder faces attacker-controlled bytes the moment
//! a server advertises `X-BSOAP-Accept: bin1`, so its contract is
//! absolute: *every* input — truncated, bit-flipped, spliced,
//! length-lying, or pure noise — returns a typed [`DeserError`] or a
//! valid decode; it never panics, never reads out of bounds, and never
//! lets a hostile length prefix drive an allocation past the message's
//! own size.
//!
//! The corpus is deterministic: every mutation stream derives from the
//! fixed xorshift seeds below, so a failure here is a regression anyone
//! can replay byte-for-byte — no `.proptest-regressions` file or seed
//! hunting needed. The proptest block at the bottom adds randomized
//! schedules on top (its failures print the generated case).
//!
//! `poisoned_frames_keep_the_reference_on_every_lane` attacks the
//! differential shell both lanes' decoders share, so it runs on both.

use bsoap::convert::ScalarKind;
use bsoap::deser::{
    parse_binary_envelope, BinaryDiffDeserializer, DeserError, DiffOutcome, LaneDeserializer,
};
use bsoap::{mio, EngineConfig, MessageTemplate, OpDesc, ParamDesc, TypeDesc, Value, WireFormat};
use proptest::prelude::*;

/// Fixed seeds: the whole corpus replays deterministically from these.
const SEEDS: [u64; 4] = [
    0x9E37_79B9_7F4A_7C15,
    0xBF58_476D_1CE4_E5B9,
    0x94D0_49BB_1331_11EB,
    0x2545_F491_4F6C_DD1D,
];

/// Mutations per seed per corpus frame.
const ROUNDS: usize = 1024;

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

fn bin_cfg() -> EngineConfig {
    EngineConfig::paper_default().with_wire_format(WireFormat::CompactBinary)
}

/// The operation every corpus frame is decoded against: one leaf of
/// every family the format defines.
fn fuzz_op() -> OpDesc {
    OpDesc::new(
        "fuzzTarget",
        "urn:fuzz",
        vec![
            ParamDesc {
                name: "i".into(),
                desc: TypeDesc::Scalar(ScalarKind::Int),
            },
            ParamDesc {
                name: "l".into(),
                desc: TypeDesc::Scalar(ScalarKind::Long),
            },
            ParamDesc {
                name: "b".into(),
                desc: TypeDesc::Scalar(ScalarKind::Bool),
            },
            ParamDesc {
                name: "xs".into(),
                desc: TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double)),
            },
            ParamDesc {
                name: "mios".into(),
                desc: TypeDesc::array_of(TypeDesc::mio()),
            },
            ParamDesc {
                name: "tag".into(),
                desc: TypeDesc::Scalar(ScalarKind::Str),
            },
        ],
    )
}

fn frame(args: &[Value]) -> Vec<u8> {
    MessageTemplate::build(bin_cfg(), &fuzz_op(), args)
        .unwrap()
        .to_bytes()
}

/// The arguments of the first corpus frame.
fn corpus_args() -> Vec<Value> {
    vec![
        Value::Int(-7),
        Value::Long(1 << 40),
        Value::Bool(true),
        Value::DoubleArray(vec![0.5, -1.25, 3.75]),
        Value::Array(vec![mio(1, -2, 0.125), mio(3, 4, -9.5)]),
        Value::Str("payload".into()),
    ]
}

/// Valid frames the mutators start from — including one whose string
/// shrank, so a pad run sits mid-message.
fn corpus() -> Vec<Vec<u8>> {
    let op = fuzz_op();
    let base = corpus_args();
    let mut frames = vec![
        frame(&base),
        frame(&[
            Value::Int(0),
            Value::Long(0),
            Value::Bool(false),
            Value::DoubleArray(Vec::new()),
            Value::Array(Vec::new()),
            Value::Str(String::new()),
        ]),
    ];
    // Shrink the string and one array so stuffing pads appear.
    let mut tpl = MessageTemplate::build(bin_cfg(), &op, &base).unwrap();
    let mut shrunk = base;
    shrunk[5] = Value::Str("p".into());
    shrunk[3] = Value::DoubleArray(vec![0.5]);
    tpl.update_args(&shrunk).unwrap();
    tpl.flush();
    frames.push(tpl.to_bytes());
    frames
}

/// Feed `bytes` to both decoder entry points; the only acceptable
/// outcomes are a typed error or a clean decode.
fn probe(bytes: &[u8], diff: &mut BinaryDiffDeserializer) {
    let op = fuzz_op();
    match parse_binary_envelope(bytes, &op) {
        Ok(vals) => assert_eq!(vals.len(), op.params.len()),
        Err(e) => {
            // Typed, displayable, and categorized.
            assert!(
                matches!(e, DeserError::Binary { .. } | DeserError::Shape { .. }),
                "unexpected error category: {e}"
            );
            let _ = e.to_string();
        }
    }
    let _ = diff.deserialize(bytes);
}

#[test]
fn mutated_frames_never_panic_and_errors_are_typed() {
    let corpus = corpus();
    let mut diff = BinaryDiffDeserializer::new(fuzz_op());
    let valid = &corpus[0];

    for &seed in &SEEDS {
        let mut rng = XorShift(seed);
        for base in &corpus {
            for _ in 0..ROUNDS {
                let mut m = base.clone();
                match rng.below(6) {
                    // Flip a single bit.
                    0 => {
                        let i = rng.below(m.len());
                        m[i] ^= 1 << rng.below(8);
                    }
                    // Overwrite a byte with a chosen value (tag bytes,
                    // pad, extremes — the interesting constants).
                    1 => {
                        let i = rng.below(m.len());
                        let palette = [
                            0x00, 0x01, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0B, 0x20, 0x7F, 0xFF,
                        ];
                        m[i] = palette[rng.below(palette.len())];
                    }
                    // Truncate.
                    2 => m.truncate(rng.below(m.len())),
                    // Append noise.
                    3 => {
                        for _ in 0..rng.below(9) {
                            m.push(rng.next() as u8);
                        }
                    }
                    // Zero out a range (kills length prefixes mid-frame).
                    4 => {
                        let start = rng.below(m.len());
                        let end = (start + rng.below(16)).min(m.len());
                        m[start..end].iter_mut().for_each(|b| *b = 0);
                    }
                    // Splice the tail of another corpus frame on.
                    _ => {
                        let other = &corpus[rng.below(corpus.len())];
                        let cut = rng.below(m.len());
                        let graft = rng.below(other.len());
                        m.truncate(cut);
                        m.extend_from_slice(&other[graft..]);
                    }
                }
                probe(&m, &mut diff);
            }
        }
        // The persistent differential decoder must survive the abuse:
        // after any error stream it still decodes a valid frame.
        let (vals, _) = diff.deserialize(valid).expect("decoder wedged by fuzz");
        assert_eq!(vals.len(), fuzz_op().params.len());
    }
}

#[test]
fn pure_noise_never_panics() {
    let mut diff = BinaryDiffDeserializer::new(fuzz_op());
    for &seed in &SEEDS {
        let mut rng = XorShift(seed ^ 0xDEAD_BEEF);
        for _ in 0..ROUNDS {
            let len = rng.below(256);
            let mut m: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
            // Half the time, lead with real magic so the fuzz reaches
            // past the first gate.
            if rng.below(2) == 0 && m.len() >= 4 {
                m[..4].copy_from_slice(b"BSB1");
            }
            probe(&m, &mut diff);
        }
    }
}

/// Hand-built frames whose length prefixes lie — each must die with a
/// typed error *before* any allocation sized by the lie.
#[test]
fn length_lying_frames_are_rejected_without_overallocation() {
    let op = fuzz_op();
    let good = corpus().remove(0);

    // String length claims u32::MAX.
    let tag_pos = good
        .windows(5)
        .position(|w| w[0] == 0x05)
        .map(|p| p + 1)
        .unwrap();
    let mut bad = good.clone();
    bad[tag_pos..tag_pos + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    let Err(e) = parse_binary_envelope(&bad, &op) else {
        panic!("lying string length accepted");
    };
    assert!(e.to_string().contains("exceeds"), "{e}");

    // Array count claims more elements than the bytes can hold.
    // ARRAY_BEGIN + TAG_INT + count 3 LE — the xs array, matched by its
    // full prefix so neither the param-count byte (also 0x06) nor a
    // payload byte can alias it.
    let arr_pos = good
        .windows(6)
        .position(|w| w == [0x06, 0x01, 0x03, 0x00, 0x00, 0x00])
        .unwrap();
    let count_pos = arr_pos + 2;
    let mut bad = good.clone();
    let lie = (bad.len() as u32).to_le_bytes();
    bad[count_pos..count_pos + 4].copy_from_slice(&lie);
    assert!(parse_binary_envelope(&bad, &op).is_err());

    // Op-name length prefix pointing past the end of the buffer.
    let mut bad = good.clone();
    bad[4..6].copy_from_slice(&u16::MAX.to_le_bytes());
    assert!(parse_binary_envelope(&bad, &op).is_err());

    // Param count mismatch.
    let name_len = u16::from_le_bytes([good[4], good[5]]) as usize;
    let mut bad = good.clone();
    bad[6 + name_len] = 0xFE;
    assert!(matches!(
        parse_binary_envelope(&bad, &op),
        Err(DeserError::Shape { .. })
    ));

    // Bool payload outside {0, 1}.
    let bool_pos = good.windows(1).position(|w| w[0] == 0x04).unwrap() + 1;
    let mut bad = good;
    bad[bool_pos] = 2;
    assert!(parse_binary_envelope(&bad, &op).is_err());
}

/// A decode error must not poison the retained reference of the shared
/// differential shell, on any lane: after a truncated, a bit-flipped and a
/// wrong-lane body — each a typed error — the content-match shortcut still
/// fires for the last *good* message, with its values.
#[test]
fn poisoned_frames_keep_the_reference_on_every_lane() {
    let op = fuzz_op();
    let args = corpus_args();
    let frame_on = |lane| {
        let config = EngineConfig::paper_default().with_wire_format(lane);
        MessageTemplate::build(config, &op, &args)
            .unwrap()
            .to_bytes()
    };
    for lane in WireFormat::ALL {
        let good = frame_on(lane);
        let mut diff = LaneDeserializer::new(lane, op.clone());
        diff.deserialize(&good).unwrap();

        let mut truncated = good.clone();
        truncated.truncate(good.len() / 2);
        // Same length, one leaf byte off: on XML this dies inside the leaf
        // tier (`-7` → `m7`), after the skeleton compare passed.
        let mut flipped = good.clone();
        let at = match lane {
            WireFormat::SoapXml => good.windows(3).position(|w| w == b">-7").unwrap() + 1,
            // The bool payload: `1` → `0x41`.
            WireFormat::CompactBinary => good.windows(2).position(|w| w == [0x04, 1]).unwrap() + 1,
        };
        flipped[at] ^= 0x40;
        let wrong_lane = WireFormat::ALL
            .into_iter()
            .find(|other| *other != lane)
            .map(frame_on)
            .unwrap();
        for (what, poison) in [
            ("truncated", truncated),
            ("bit-flipped", flipped),
            ("wrong-lane", wrong_lane),
        ] {
            assert!(
                diff.deserialize(&poison).is_err(),
                "{lane:?} accepted a {what} body"
            );
        }

        let (vals, outcome) = diff.deserialize(&good).unwrap();
        assert_eq!(
            outcome,
            DiffOutcome::Identical,
            "{lane:?}: retained reference lost after poison frames"
        );
        assert_eq!(vals, &args[..], "{lane:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Randomized mutation schedules on top of the fixed corpus: any
    /// cut/splice/overwrite combination decodes or errors, never panics.
    #[test]
    fn random_mutation_schedules_never_panic(
        picks in prop::collection::vec((0usize..3, any::<u16>(), any::<u8>()), 1..24),
        noise in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let corpus = corpus();
        let mut diff = BinaryDiffDeserializer::new(fuzz_op());
        let mut m = corpus[0].clone();
        for (kind, pos, byte) in picks {
            let pos = pos as usize % m.len().max(1);
            match kind {
                0 if !m.is_empty() => m[pos] = byte,
                1 => m.truncate(pos),
                _ => {
                    m.splice(pos..pos, noise.iter().copied());
                }
            }
            probe(&m, &mut diff);
        }
    }
}
