//! Streaming deserializer: incremental element emission from arbitrary
//! byte fragmentation, bounded carry memory, typed errors on
//! declared-length mismatches and runaway units, and — against the full
//! parser as oracle — elements read by the learned skeleton or, at the
//! first byte that differs from it, by the oracle's own grammar.

use bsoap_convert::ScalarKind;
use bsoap_core::value::mio;
use bsoap_core::{
    EngineConfig, MessageTemplate, OpDesc, OverlaySender, TypeDesc, Value, WidthPolicy,
};
use bsoap_deser::StreamingDeserializer;
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

fn labels_op() -> OpDesc {
    OpDesc::single(
        "label",
        "urn:bench",
        "arr",
        TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Str)),
    )
}

/// An array value's elements, one `Value` each.
fn elements(array: &Value) -> Vec<Value> {
    match array {
        Value::DoubleArray(xs) => xs.iter().map(|&x| Value::Double(x)).collect(),
        Value::IntArray(xs) => xs.iter().map(|&x| Value::Int(x)).collect(),
        Value::Array(items) => items.clone(),
        other => panic!("not an array: {other:?}"),
    }
}

fn message(config: EngineConfig, op: &OpDesc, value: &Value) -> Vec<u8> {
    MessageTemplate::build(config, op, std::slice::from_ref(value))
        .unwrap()
        .to_bytes()
        .to_vec()
}

/// Push `bytes` in pieces at the given cut points, collecting items.
fn stream_parse(
    op: &OpDesc,
    bytes: &[u8],
    cuts: &[usize],
) -> Result<(Vec<Value>, usize), bsoap_deser::DeserError> {
    let mut d = StreamingDeserializer::new(op)?;
    let mut items = Vec::new();
    let mut last = 0usize;
    let mut push = |d: &mut StreamingDeserializer, chunk: &[u8]| {
        d.push(chunk, |i, v| {
            assert_eq!(i, items.len(), "items must arrive in order");
            items.push(v);
            Ok(())
        })
    };
    for &cut in cuts {
        let cut = cut.min(bytes.len());
        if cut > last {
            push(&mut d, &bytes[last..cut])?;
            last = cut;
        }
    }
    push(&mut d, &bytes[last..])?;
    let summary = d.finish()?;
    assert_eq!(summary.items, items.len());
    Ok((items, summary.peak_carry_bytes))
}

#[test]
fn whole_message_single_push() {
    let op = doubles_op();
    let vals: Vec<f64> = (0..50).map(|i| i as f64 * 1.5 - 3.0).collect();
    let bytes = message(
        EngineConfig::paper_default(),
        &op,
        &Value::DoubleArray(vals.clone()),
    );
    let (items, _) = stream_parse(&op, &bytes, &[]).unwrap();
    let got: Vec<f64> = items
        .iter()
        .map(|v| match v {
            Value::Double(x) => *x,
            other => panic!("expected double, got {other:?}"),
        })
        .collect();
    assert_eq!(got, vals);
}

#[test]
fn byte_at_a_time_push() {
    let op = doubles_op();
    let vals = vec![0.125, -7.5, 42.0];
    let bytes = message(
        EngineConfig::stuffed_max(),
        &op,
        &Value::DoubleArray(vals.clone()),
    );
    let cuts: Vec<usize> = (1..bytes.len()).collect();
    let (items, _) = stream_parse(&op, &bytes, &cuts).unwrap();
    assert_eq!(items.len(), 3);
    assert_eq!(items[0], Value::Double(0.125));
    assert_eq!(items[2], Value::Double(42.0));
}

#[test]
fn struct_items_stream() {
    let op = mios_op();
    let items_in: Vec<Value> = (0..20).map(|i| mio(i, -i, i as f64 * 0.5)).collect();
    let bytes = message(
        EngineConfig::paper_default(),
        &op,
        &Value::Array(items_in.clone()),
    );
    // Cut mid-message in a few awkward places.
    let cuts = [10, 11, 200, 201, bytes.len() - 5];
    let (items, _) = stream_parse(&op, &bytes, &cuts).unwrap();
    assert_eq!(items, items_in);
}

#[test]
fn empty_array_streams() {
    let op = doubles_op();
    let bytes = message(
        EngineConfig::paper_default(),
        &op,
        &Value::DoubleArray(vec![]),
    );
    let (items, _) = stream_parse(&op, &bytes, &[5, 6, 7]).unwrap();
    assert!(items.is_empty());
}

#[test]
fn peak_carry_stays_bounded_by_item_not_message() {
    let op = doubles_op();
    let vals: Vec<f64> = (0..5000).map(|i| i as f64).collect();
    let bytes = message(
        EngineConfig::paper_default(),
        &op,
        &Value::DoubleArray(vals),
    );
    // Feed in 256-byte chunks; carry should stay near one chunk + one
    // incomplete item, nowhere near the whole message.
    let cuts: Vec<usize> = (1..bytes.len() / 256).map(|i| i * 256).collect();
    let (items, peak) = stream_parse(&op, &bytes, &cuts).unwrap();
    assert_eq!(items.len(), 5000);
    assert!(
        peak < 2048,
        "peak carry {peak} not bounded (message is {} bytes)",
        bytes.len()
    );
}

#[test]
fn declared_length_undercount_is_error() {
    let op = doubles_op();
    let bytes = message(
        EngineConfig::paper_default(),
        &op,
        &Value::DoubleArray(vec![1.0, 2.0, 3.0]),
    );
    // Claim 5 items but ship 3: finish() must reject.
    let text = String::from_utf8(bytes).unwrap();
    let doctored = text.replace("double[3]", "double[5]");
    let mut d = StreamingDeserializer::new(&op).unwrap();
    let mut n = 0usize;
    d.push(doctored.as_bytes(), |_, _| {
        n += 1;
        Ok(())
    })
    .unwrap();
    assert_eq!(n, 3);
    let err = d.finish().unwrap_err();
    assert!(
        err.to_string().contains("declares"),
        "unexpected error: {err}"
    );
}

#[test]
fn declared_length_overcount_is_error() {
    let op = doubles_op();
    let bytes = message(
        EngineConfig::paper_default(),
        &op,
        &Value::DoubleArray(vec![1.0, 2.0, 3.0]),
    );
    // Claim 2 items but ship 3: push must reject on the third.
    let text = String::from_utf8(bytes).unwrap();
    let doctored = text.replace("double[3]", "double[2]");
    let mut d = StreamingDeserializer::new(&op).unwrap();
    let err = d.push(doctored.as_bytes(), |_, _| Ok(())).unwrap_err();
    assert!(
        err.to_string().contains("declares"),
        "unexpected error: {err}"
    );
}

#[test]
fn carry_cap_rejects_runaway_unit() {
    let op = doubles_op();
    // An <item> that never closes: the carry cap must produce a typed
    // error instead of buffering without bound.
    let mut d = StreamingDeserializer::with_max_carry(&op, 256).unwrap();
    let prologue = b"<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n\
        <SOAP-ENV:Envelope xmlns:SOAP-ENV=\"http://schemas.xmlsoap.org/soap/envelope/\">\n\
        <SOAP-ENV:Body>\n<ns1:send xmlns:ns1=\"urn:bench\">\n\
        <arr xsi:type=\"SOAP-ENC:Array\" SOAP-ENC:arrayType=\"xsd:double[1]\">\n";
    d.push(prologue, |_, _| Ok(())).unwrap();
    let mut err = None;
    for _ in 0..64 {
        if let Err(e) = d.push(b"<item xsi:type=\"xsd:double\">11111111", |_, _| Ok(())) {
            err = Some(e);
            break;
        }
    }
    let err = err.expect("cap never triggered");
    assert!(err.to_string().contains("carry"), "unexpected error: {err}");
}

#[test]
fn a_slice_larger_than_the_cap_is_accepted() {
    // The cap bounds the unit kept across a slice boundary, not the slice:
    // a transport's 64 KiB slices pass a 256-byte cap untouched.
    let op = doubles_op();
    let vals: Vec<f64> = (0..5000).map(|i| i as f64 * 0.37 - 900.0).collect();
    let bytes = message(
        EngineConfig::paper_default(),
        &op,
        &Value::DoubleArray(vals.clone()),
    );
    let mut d = StreamingDeserializer::with_max_carry(&op, 256).unwrap();
    let mut got = Vec::new();
    for slice in bytes.chunks(64 * 1024) {
        d.push(slice, |_, v| {
            got.push(v);
            Ok(())
        })
        .unwrap();
    }
    let summary = d.finish().unwrap();
    assert_eq!(got, elements(&Value::DoubleArray(vals)));
    assert!(
        summary.peak_carry_bytes <= 256,
        "peak carry {} counts more than what was kept",
        summary.peak_carry_bytes
    );
}

#[test]
fn wrong_operation_tag_rejected() {
    let op = doubles_op();
    let other = OpDesc::single(
        "other",
        "urn:bench",
        "arr",
        TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double)),
    );
    let bytes = message(
        EngineConfig::paper_default(),
        &other,
        &Value::DoubleArray(vec![1.0]),
    );
    let mut d = StreamingDeserializer::new(&op).unwrap();
    let res = d.push(&bytes, |_, _| Ok(()));
    let finish_err = res.is_err() || d.finish().is_err();
    assert!(finish_err, "mismatched op accepted");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any fragmentation of a valid message yields exactly the original
    /// values, for exact, stuffed, and fixed widths.
    #[test]
    fn arbitrary_fragmentation_round_trips(
        vals in prop::collection::vec(-1e9f64..1e9, 0..60),
        cuts in prop::collection::vec(any::<u16>(), 0..24),
        stuffed in any::<bool>(),
    ) {
        let op = doubles_op();
        let config = if stuffed {
            EngineConfig::stuffed_max()
        } else {
            EngineConfig::paper_default().with_width(WidthPolicy::Exact)
        };
        let bytes = message(config, &op, &Value::DoubleArray(vals.clone()));
        let mut cuts: Vec<usize> = cuts.iter().map(|&c| c as usize % bytes.len().max(1)).collect();
        cuts.sort_unstable();
        let (items, _) = stream_parse(&op, &bytes, &cuts).unwrap();
        let got: Vec<f64> = items.iter().map(|v| match v {
            Value::Double(x) => *x,
            other => panic!("expected double, got {other:?}"),
        }).collect();
        prop_assert_eq!(got, vals);
    }

    /// Streaming agrees with the batch envelope parser on struct arrays.
    #[test]
    fn streaming_matches_batch_parse(
        n in 0usize..30,
        cuts in prop::collection::vec(any::<u16>(), 0..16),
    ) {
        let op = mios_op();
        let items_in: Vec<Value> = (0..n).map(|i| mio(i as i32, -(i as i32), i as f64)).collect();
        let bytes = message(EngineConfig::paper_default(), &op, &Value::Array(items_in));
        let batch = bsoap_deser::parse_envelope(&bytes, &op).unwrap();
        let mut cuts: Vec<usize> = cuts.iter().map(|&c| c as usize % bytes.len()).collect();
        cuts.sort_unstable();
        let (items, _) = stream_parse(&op, &bytes, &cuts).unwrap();
        prop_assert_eq!(Value::Array(items), batch[0].clone());
    }
}

/// One corruption of a streamed envelope. The byte-level ones land
/// anywhere; three aim at the prologue, where a parser that searches for
/// tags instead of parsing them is fooled; the last three at the skeleton
/// learned from the first element, where a reader that trusts it is.
#[derive(Clone, Debug)]
enum Mutation {
    Truncate(usize),
    Flip {
        pos: usize,
        xor: u8,
    },
    Insert {
        pos: usize,
        byte: u8,
    },
    Delete(usize),
    /// `<arr …>` becomes `<arr{byte} …>`.
    ExtendArrayName(u8),
    /// Everything before the array open tag becomes one comment.
    CommentOutPrologue,
    /// `<arr …>` becomes `<arr …/>`.
    SelfCloseArrayTag,
    /// A byte flipped inside the open tag of an element after the first
    /// or, with `close`, inside its first close tag.
    FlipLaterTag {
        close: bool,
        elem: usize,
        at: usize,
        xor: u8,
    },
    /// The first attribute of an element (or of its first field) removed.
    DropAttribute(usize),
    /// The first element's open tag gains an attribute the rest lack.
    FirstElementDiffers,
}

fn array_open(bytes: &[u8]) -> Option<usize> {
    bytes.windows(4).position(|w| w == b"<arr")
}

/// Where each element's `<item` starts.
fn item_opens(bytes: &[u8]) -> Vec<usize> {
    let tag = |w: &[u8]| w.starts_with(b"<item") && matches!(w[5], b' ' | b'>' | b'/');
    bytes
        .windows(6)
        .enumerate()
        .filter(|(_, w)| tag(w))
        .map(|(at, _)| at)
        .collect()
}

fn mutate(bytes: &mut Vec<u8>, m: &Mutation) {
    match *m {
        Mutation::Truncate(keep) => bytes.truncate(keep % (bytes.len() + 1)),
        Mutation::Flip { pos, xor } => {
            if !bytes.is_empty() {
                let n = bytes.len();
                bytes[pos % n] ^= xor;
            }
        }
        Mutation::Insert { pos, byte } => bytes.insert(pos % (bytes.len() + 1), byte),
        Mutation::Delete(pos) => {
            if !bytes.is_empty() {
                bytes.remove(pos % bytes.len());
            }
        }
        Mutation::ExtendArrayName(byte) => {
            if let Some(at) = array_open(bytes) {
                bytes.insert(at + 4, byte);
            }
        }
        Mutation::CommentOutPrologue => {
            if let Some(at) = array_open(bytes) {
                bytes.splice(at..at, *b"-->");
                bytes.splice(0..0, *b"<!--");
            }
        }
        Mutation::SelfCloseArrayTag => {
            if let Some(at) = array_open(bytes) {
                if let Some(gt) = bytes[at..].iter().position(|&b| b == b'>') {
                    bytes.insert(at + gt, b'/');
                }
            }
        }
        Mutation::FlipLaterTag {
            close,
            elem,
            at,
            xor,
        } => {
            let opens = item_opens(bytes);
            if opens.len() > 1 {
                let element = opens[1 + elem % (opens.len() - 1)];
                let tag: &[u8] = if close { b"</" } else { b"<" };
                let start = bytes[element..].windows(tag.len()).position(|w| w == tag);
                let start = element + start.unwrap_or(0);
                if let Some(gt) = bytes[start..].iter().position(|&b| b == b'>') {
                    bytes[start + at % (gt + 1)] ^= xor;
                }
            }
        }
        Mutation::DropAttribute(elem) => {
            let opens = item_opens(bytes);
            if !opens.is_empty() {
                let start = opens[elem % opens.len()];
                let attr = bytes[start..]
                    .windows(11)
                    .position(|w| w == b" xsi:type=\"");
                if let Some(attr) = attr.map(|a| start + a) {
                    if let Some(quote) = bytes[attr + 11..].iter().position(|&b| b == b'"') {
                        bytes.drain(attr..attr + 11 + quote + 1);
                    }
                }
            }
        }
        Mutation::FirstElementDiffers => {
            if let Some(&at) = item_opens(bytes).first() {
                bytes.splice(at + 5..at + 5, *b" id=\"first\"");
            }
        }
    }
}

fn mutation_strategy() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (0usize..4096).prop_map(Mutation::Truncate),
        (0usize..4096, 1u8..=255).prop_map(|(pos, xor)| Mutation::Flip { pos, xor }),
        (0usize..4096, any::<u8>()).prop_map(|(pos, byte)| Mutation::Insert { pos, byte }),
        (0usize..4096).prop_map(Mutation::Delete),
        prop_oneof![Just(b'X'), Just(b' '), Just(b'-'), any::<u8>()]
            .prop_map(Mutation::ExtendArrayName),
        Just(Mutation::CommentOutPrologue),
        Just(Mutation::SelfCloseArrayTag),
        (any::<bool>(), 0usize..64, 0usize..64, 1u8..=255).prop_map(|(close, elem, at, xor)| {
            Mutation::FlipLaterTag {
                close,
                elem,
                at,
                xor,
            }
        }),
        (0usize..64).prop_map(Mutation::DropAttribute),
        Just(Mutation::FirstElementDiffers),
    ]
}

/// The three item shapes the overlay sender streams: unboxed doubles, MIO
/// structs, and strings carrying `cold_mix`'s six escapable characters
/// (two each of `&`, `<` and `>`), so leaf text holds entity references.
#[derive(Clone, Debug)]
enum Items {
    Doubles(Vec<f64>),
    Mios(Vec<(i32, i32, f64)>),
    Labels(Vec<String>),
}

impl Items {
    fn op(&self) -> OpDesc {
        match self {
            Items::Doubles(_) => doubles_op(),
            Items::Mios(_) => mios_op(),
            Items::Labels(_) => labels_op(),
        }
    }

    fn value(&self) -> Value {
        match self {
            Items::Doubles(xs) => Value::DoubleArray(xs.clone()),
            Items::Mios(cells) => {
                Value::Array(cells.iter().map(|&(x, y, v)| mio(x, y, v)).collect())
            }
            Items::Labels(labels) => Value::Array(labels.iter().cloned().map(Value::Str).collect()),
        }
    }
}

fn label_strategy() -> impl Strategy<Value = String> {
    const ALNUM: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
    let base = prop::collection::vec(0usize..ALNUM.len(), 0..10);
    (base, prop::collection::vec(0usize..16, 6)).prop_map(|(base, at)| {
        let mut label: Vec<u8> = base.into_iter().map(|i| ALNUM[i]).collect();
        for (special, at) in b"&&<<>>".iter().zip(at) {
            label.insert(at % (label.len() + 1), *special);
        }
        String::from_utf8(label).expect("ASCII label")
    })
}

fn items_strategy() -> impl Strategy<Value = Items> {
    prop_oneof![
        prop::collection::vec(-1e9f64..1e9, 0..24).prop_map(Items::Doubles),
        prop::collection::vec((any::<i32>(), any::<i32>(), -1e9f64..1e9), 0..12)
            .prop_map(Items::Mios),
        prop::collection::vec(label_strategy(), 0..12).prop_map(Items::Labels),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    /// Soundness against the oracle: whatever the streaming parser
    /// accepts, under any fragmentation, `parse_envelope` accepts with
    /// the same values — and what the overlay sender emits untouched is
    /// always accepted, as the values sent. Mutations aimed at the learned
    /// skeleton (a later open tag, a dropped attribute, a first element
    /// unlike the rest) may cost the skeleton its match, never a value.
    #[test]
    fn streaming_accepts_only_what_the_full_parser_accepts(
        items in items_strategy(),
        window in 1usize..8,
        mutations in prop::collection::vec(mutation_strategy(), 0..3),
        cuts in prop::collection::vec(any::<u16>(), 0..16),
    ) {
        let (op, value) = (items.op(), items.value());
        let mut bytes = Vec::new();
        OverlaySender::new(EngineConfig::paper_default(), &op, window)
            .unwrap()
            .send(&value, &mut bytes)
            .unwrap();
        for m in &mutations {
            mutate(&mut bytes, m);
        }
        let mut cuts: Vec<usize> =
            cuts.iter().map(|&c| c as usize % bytes.len().max(1)).collect();
        cuts.sort_unstable();

        let streamed = stream_parse(&op, &bytes, &cuts);
        if mutations.is_empty() {
            prop_assert!(streamed.is_ok(), "overlay output rejected: {:?}", streamed.err());
        }
        if let Ok((got, _)) = streamed {
            match bsoap_deser::parse_envelope(&bytes, &op) {
                Ok(full) => prop_assert_eq!(&elements(&full[0]), &got),
                Err(e) => prop_assert!(
                    false,
                    "streaming accepted {:?}, which the full parser rejects: {}",
                    String::from_utf8_lossy(&bytes),
                    e
                ),
            }
            if mutations.is_empty() {
                prop_assert_eq!(&got, &elements(&value));
            }
        }
    }
}
