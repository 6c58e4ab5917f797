//! Property tests: deserialization inverts serialization, and the
//! differential path is observationally identical to full parsing.

use bsoap_convert::ScalarKind;
use bsoap_core::value::mio;
use bsoap_core::{
    EngineConfig, MessageTemplate, OpDesc, ParamDesc, TypeDesc, Value, WidthPolicy, WireFormat,
};
use bsoap_deser::{decode, parse_envelope, DiffDeserializer, DiffOutcome, LaneDeserializer};
use proptest::prelude::*;
use std::collections::HashMap;

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

/// An array whose elements hold a struct inside a struct: a commit finds
/// `cell`'s leaves two fields down, by the same slot rule as `w`'s one.
fn nested_op() -> OpDesc {
    let outer = TypeDesc::Struct {
        name: "outer".into(),
        fields: vec![
            ("tag".into(), TypeDesc::Scalar(ScalarKind::Str)),
            ("cell".into(), TypeDesc::mio()),
            ("w".into(), TypeDesc::Scalar(ScalarKind::Double)),
        ],
    };
    OpDesc::single("sendN", "urn:bench", "outers", TypeDesc::array_of(outer))
}

/// `nested_op`'s argument carrying `xs`: each double drives every leaf of
/// its element, so a rewrite changes a string, two ints of other widths
/// and two doubles.
fn nested_args(xs: &[f64]) -> Vec<Value> {
    let outer = |(i, &x): (usize, &f64)| {
        let tag = Value::Str(format!("t{}&", x.to_bits() % 97));
        let cell = mio((x * 1e3) as i32, (i as i32).wrapping_sub(x as i32), -x);
        Value::Struct(vec![tag, cell, Value::Double(x / 3.0)])
    };
    vec![Value::Array(xs.iter().enumerate().map(outer).collect())]
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

/// The operations the resize schedules run over: one array each of
/// doubles, ints and MIOs, and a multi-parameter call with an escapable
/// string, two arrays and a struct behind them.
#[derive(Clone, Copy, Debug)]
enum Shape {
    Doubles,
    Ints,
    Mios,
    Mixed,
}

impl Shape {
    fn op(self) -> OpDesc {
        let param = |name: &str, desc| ParamDesc {
            name: name.into(),
            desc,
        };
        match self {
            Shape::Doubles => doubles_op(),
            Shape::Ints => OpDesc::single(
                "sendI",
                "urn:bench",
                "arr",
                TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Int)),
            ),
            Shape::Mios => mios_op(),
            Shape::Mixed => OpDesc::new(
                "mixed",
                "urn:bench",
                vec![
                    param("id", TypeDesc::Scalar(ScalarKind::Int)),
                    param("label", TypeDesc::Scalar(ScalarKind::Str)),
                    param(
                        "xs",
                        TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double)),
                    ),
                    param("cells", TypeDesc::array_of(TypeDesc::mio())),
                    param("p", TypeDesc::mio()),
                ],
            ),
        }
    }

    fn initial(self) -> Vec<Value> {
        let array = |shape: Shape| {
            let mut v = shape.empty();
            for i in 0..3 {
                push_element(&mut v, Width::Mid, i);
            }
            v
        };
        match self {
            Shape::Mixed => vec![
                Value::Int(7),
                Value::Str("a<b&c".into()),
                array(Shape::Doubles),
                array(Shape::Mios),
                mio(1, 2, 0.5),
            ],
            shape => vec![array(shape)],
        }
    }

    fn empty(self) -> Value {
        match self {
            Shape::Doubles => Value::DoubleArray(Vec::new()),
            Shape::Ints => Value::IntArray(Vec::new()),
            Shape::Mios | Shape::Mixed => Value::Array(Vec::new()),
        }
    }
}

/// How wide a generated value serializes on the XML lane.
#[derive(Clone, Copy, Debug)]
enum Width {
    Narrow,
    Mid,
    Wide,
}

fn double_of(width: Width, salt: u32) -> f64 {
    let digit = (1 + salt % 9) as f64;
    match width {
        Width::Narrow => digit,
        Width::Mid => digit + 0.5,
        Width::Wide => -1.2345678901234567e-300 * digit,
    }
}

fn int_of(width: Width, salt: u32) -> i32 {
    let digit = 1 + (salt % 9) as i32;
    match width {
        Width::Narrow => digit,
        Width::Mid => 100 * digit + 11,
        Width::Wide => i32::MIN + digit,
    }
}

fn push_element(array: &mut Value, width: Width, salt: u32) {
    match array {
        Value::DoubleArray(v) => v.push(double_of(width, salt)),
        Value::IntArray(v) => v.push(int_of(width, salt)),
        Value::Array(v) => v.push(mio(
            int_of(width, salt),
            int_of(Width::Narrow, salt / 9),
            double_of(width, salt / 3),
        )),
        other => panic!("not an array: {other:?}"),
    }
}

fn truncate(array: &mut Value, keep: usize) {
    match array {
        Value::DoubleArray(v) => v.truncate(keep),
        Value::IntArray(v) => v.truncate(keep),
        Value::Array(v) => v.truncate(keep),
        other => panic!("not an array: {other:?}"),
    }
}

/// One edit of the argument list between two sends. `array` picks among
/// the operation's array parameters.
#[derive(Clone, Debug)]
enum Step {
    /// Rewrite elements in place: at their width, wider (shift, or steal
    /// from a neighbour's pad) or narrower.
    Set {
        array: usize,
        at: Vec<usize>,
        width: Width,
        salt: u32,
    },
    Append {
        array: usize,
        count: usize,
        width: Width,
        salt: u32,
    },
    Truncate {
        array: usize,
        count: usize,
    },
    ShrinkToZero {
        array: usize,
    },
    /// `Mixed` only: the scalar parameters around the arrays.
    Scalars {
        id: i32,
        label: String,
    },
    /// Send the same values again.
    Resend,
}

fn width_strategy() -> impl Strategy<Value = Width> {
    prop_oneof![Just(Width::Narrow), Just(Width::Mid), Just(Width::Wide)]
}

fn step_strategy() -> impl Strategy<Value = Step> {
    let set = (
        0usize..2,
        prop::collection::vec(0usize..64, 1..5),
        width_strategy(),
        any::<u32>(),
    );
    let append = (0usize..2, 1usize..5, width_strategy(), any::<u32>());
    prop_oneof![
        set.prop_map(|(array, at, width, salt)| Step::Set {
            array,
            at,
            width,
            salt
        }),
        append.prop_map(|(array, count, width, salt)| Step::Append {
            array,
            count,
            width,
            salt
        }),
        (0usize..2, 1usize..4).prop_map(|(array, count)| Step::Truncate { array, count }),
        (0usize..2).prop_map(|array| Step::ShrinkToZero { array }),
        (any::<i32>(), "[ -~]{0,24}").prop_map(|(id, label)| Step::Scalars { id, label }),
        Just(Step::Resend),
    ]
}

fn apply_step(args: &mut [Value], step: &Step) {
    let mut arrays: Vec<&mut Value> = args
        .iter_mut()
        .filter(|v| v.array_len().is_some())
        .collect();
    let count = arrays.len();
    match step {
        Step::Set {
            array,
            at,
            width,
            salt,
        } => {
            let target = &mut *arrays[array % count];
            let len = target.array_len().unwrap();
            for (k, at) in at.iter().enumerate() {
                if len == 0 {
                    break;
                }
                // Rebuild the element in place: push a fresh one, swap it in.
                push_element(target, *width, salt.wrapping_add(k as u32));
                match target {
                    Value::DoubleArray(v) => {
                        v.swap_remove(at % len);
                    }
                    Value::IntArray(v) => {
                        v.swap_remove(at % len);
                    }
                    Value::Array(v) => {
                        v.swap_remove(at % len);
                    }
                    _ => unreachable!(),
                }
            }
        }
        Step::Append {
            array,
            count: n,
            width,
            salt,
        } => {
            for k in 0..*n {
                push_element(arrays[array % count], *width, salt.wrapping_add(k as u32));
            }
        }
        Step::Truncate { array, count: n } => {
            let target = &mut *arrays[array % count];
            let len = target.array_len().unwrap();
            truncate(target, len.saturating_sub(*n));
        }
        Step::ShrinkToZero { array } => truncate(arrays[array % count], 0),
        Step::Scalars { id, label } => {
            if let [Value::Int(i), Value::Str(s), ..] = args {
                *i = *id;
                s.clone_from(label);
            }
        }
        Step::Resend => {}
    }
}

/// Scalar leaves of `args` in document order, in a comparable form.
fn leaves(args: &[Value], out: &mut Vec<String>) {
    for v in args {
        match v {
            Value::Struct(fields) | Value::Array(fields) => leaves(fields, out),
            Value::DoubleArray(xs) => out.extend(xs.iter().map(|x| format!("d{:x}", x.to_bits()))),
            Value::IntArray(xs) => out.extend(xs.iter().map(|x| format!("i{x}"))),
            Value::Double(x) => out.push(format!("d{:x}", x.to_bits())),
            Value::Str(s) => out.push(format!("s{s}")),
            other => out.push(format!("{other:?}")),
        }
    }
}

fn leaf_list(args: &[Value]) -> Vec<String> {
    let mut out = Vec::new();
    leaves(args, &mut out);
    out
}

/// The rewritable regions of a template-built envelope, found without the
/// deserializer's help: `(key, bytes)` in document order. A scalar's region
/// runs from its open tag's `>` through its close tag and pad to the next
/// `<`; an array's length region from the `[` of its `arrayType` likewise.
/// Array leaves are keyed by their position in the array.
fn regions(bytes: &[u8]) -> Vec<(String, Vec<u8>)> {
    let text = std::str::from_utf8(bytes).unwrap();
    let padded_end = |from: usize| from + text[from..].find('<').unwrap();
    let mut out = Vec::new();
    let mut array: Option<(String, usize)> = None;
    let mut pos = 0;
    while let Some(lt) = text[pos..].find('<').map(|p| p + pos) {
        let gt = lt + text[lt..].find('>').unwrap();
        let tag = &text[lt..=gt];
        let name = tag[1..].split([' ', '>']).next().unwrap();
        pos = gt + 1;
        if let Some(closed) = name.strip_prefix('/') {
            if array.as_ref().is_some_and(|(open, _)| open == closed) {
                array = None;
            }
        } else if let Some(bracket) = tag.find("SOAP-ENC:arrayType=").and_then(|_| tag.find('[')) {
            let end = padded_end(pos);
            out.push((format!("{name}.len"), bytes[lt + bracket + 1..end].to_vec()));
            array = Some((name.to_owned(), 0));
            pos = end;
        } else if tag.contains("xsi:type=\"xsd:") {
            let close = pos + text[pos..].find("</").unwrap();
            let end = padded_end(close + 2);
            let key = match &mut array {
                Some((open, leaf)) => {
                    *leaf += 1;
                    format!("{open}[{}]", *leaf - 1)
                }
                None => name.to_owned(),
            };
            out.push((key, bytes[pos..end].to_vec()));
            pos = end;
        }
    }
    out
}

/// What the XML walk owes for `new` after `old`: every region of the new
/// message that the old one does not hold byte for byte is re-read, every
/// leaf it does hold is skipped — unless an array grew from nothing, which
/// only the full parse can read.
fn xml_expectation(old: &[u8], new: &[u8]) -> DiffOutcome {
    if old == new {
        return DiffOutcome::Identical;
    }
    let before: HashMap<String, Vec<u8>> = regions(old).into_iter().collect();
    let (mut reparsed, mut skipped) = (0, 0);
    for (key, bytes) in regions(new) {
        let was = before.get(&key);
        // A length region's pad can change without its length (a
        // neighbour stole from it), so read the lengths themselves.
        let empty = |region: &Vec<u8>| region.starts_with(b"0]");
        if key.ends_with(".len") && was.is_some_and(empty) && !empty(&bytes) {
            return DiffOutcome::FullParse;
        }
        if was != Some(&bytes) {
            reparsed += 1;
        } else if !key.ends_with(".len") {
            skipped += 1;
        }
    }
    DiffOutcome::Differential { reparsed, skipped }
}

/// What the bin1 leaf tier owes: same shape and same strings means only
/// fixed-width records differ, and exactly those are decoded.
fn bin1_expectation(old: &[Value], new: &[Value]) -> DiffOutcome {
    let (mut was, mut now) = (Vec::new(), Vec::new());
    leaves(old, &mut was);
    leaves(new, &mut now);
    let framing = |leaves: &[String]| -> Vec<Option<String>> {
        let strings = leaves.iter().map(|l| l.starts_with('s').then(|| l.clone()));
        strings.collect()
    };
    if framing(&was) != framing(&now) {
        return DiffOutcome::FullParse;
    }
    let reparsed = was.iter().zip(&now).filter(|(a, b)| a != b).count();
    if reparsed == 0 {
        return DiffOutcome::Identical;
    }
    let slots = now.iter().filter(|l| !l.starts_with('s')).count();
    DiffOutcome::Differential {
        reparsed,
        skipped: slots - reparsed,
    }
}

/// A bin1 operation with a leaf of every kind, alone and inside struct
/// arrays: every way a fixed-width record can sit between framing bytes.
fn kinds_op() -> OpDesc {
    let param = |name: &str, desc| ParamDesc {
        name: name.into(),
        desc,
    };
    let scalar = TypeDesc::Scalar;
    let record = TypeDesc::Struct {
        name: "rec".into(),
        fields: vec![
            ("on".into(), scalar(ScalarKind::Bool)),
            ("n".into(), scalar(ScalarKind::Long)),
            ("tag".into(), scalar(ScalarKind::Str)),
            ("v".into(), scalar(ScalarKind::Double)),
        ],
    };
    OpDesc::new(
        "kinds",
        "urn:bench",
        vec![
            param("id", scalar(ScalarKind::Int)),
            param("big", scalar(ScalarKind::Long)),
            param("on", scalar(ScalarKind::Bool)),
            param("x", scalar(ScalarKind::Double)),
            param("label", scalar(ScalarKind::Str)),
            param("xs", TypeDesc::array_of(scalar(ScalarKind::Double))),
            param("recs", TypeDesc::array_of(record)),
            param("ns", TypeDesc::array_of(scalar(ScalarKind::Int))),
            param("cells", TypeDesc::array_of(TypeDesc::mio())),
        ],
    )
}

/// A value of `desc`'s shape, every leaf made from the next salt — any bit
/// pattern for the numbers, NaN payloads and -0.0 included — and every
/// array as long as the next of `lens`.
fn value_of(
    desc: &TypeDesc,
    salts: &mut impl Iterator<Item = u64>,
    lens: &mut impl Iterator<Item = usize>,
) -> Value {
    let mut salt = || salts.next().unwrap();
    match desc {
        TypeDesc::Scalar(ScalarKind::Int) => Value::Int(salt() as i32),
        TypeDesc::Scalar(ScalarKind::Long) => Value::Long(salt() as i64),
        TypeDesc::Scalar(ScalarKind::Bool) => Value::Bool(salt() & 1 == 1),
        TypeDesc::Scalar(ScalarKind::Double) => Value::Double(f64::from_bits(salt())),
        TypeDesc::Scalar(ScalarKind::Str) => Value::Str(format!("{:03x}", salt() % 4096)),
        TypeDesc::Struct { fields, .. } => {
            let fields = fields.iter().map(|(_, f)| value_of(f, salts, lens));
            Value::Struct(fields.collect())
        }
        TypeDesc::Array { item } => {
            let elems = 0..lens.next().unwrap();
            match item.as_ref() {
                TypeDesc::Scalar(ScalarKind::Double) => {
                    Value::DoubleArray(elems.map(|_| f64::from_bits(salt())).collect())
                }
                TypeDesc::Scalar(ScalarKind::Int) => {
                    Value::IntArray(elems.map(|_| salt() as i32).collect())
                }
                item => Value::Array(elems.map(|_| value_of(item, salts, lens)).collect()),
            }
        }
    }
}

/// `old` with the leaves `pick` names taken from `new` (same shape); a
/// string is framing on bin1, so those move only when `strings` says so.
fn rewritten(old: &Value, new: &Value, strings: bool, pick: &mut impl FnMut() -> bool) -> Value {
    let mut both = |a: &[Value], b: &[Value]| -> Vec<Value> {
        let pairs = a.iter().zip(b);
        pairs.map(|(a, b)| rewritten(a, b, strings, pick)).collect()
    };
    match (old, new) {
        (Value::Struct(a), Value::Struct(b)) => Value::Struct(both(a, b)),
        (Value::Array(a), Value::Array(b)) => Value::Array(both(a, b)),
        (Value::DoubleArray(a), Value::DoubleArray(b)) => {
            let pairs = a.iter().zip(b);
            Value::DoubleArray(pairs.map(|(a, b)| if pick() { *b } else { *a }).collect())
        }
        (Value::IntArray(a), Value::IntArray(b)) => {
            let pairs = a.iter().zip(b);
            Value::IntArray(pairs.map(|(a, b)| if pick() { *b } else { *a }).collect())
        }
        (Value::Str(_), _) if !strings => old.clone(),
        (a, b) => if pick() { b } else { a }.clone(),
    }
}

/// One record of a bin1 message, found in the sender's DUT without the
/// decoder's help: `tag` byte, payload up to `end`.
#[derive(Clone, Copy, Debug)]
struct Record {
    tag: usize,
    end: usize,
    kind: ScalarKind,
}

/// The records of `tpl`'s message (one chunk) that are slots — every
/// fixed-width leaf but the arrays' element counts — and the strings.
fn records(tpl: &MessageTemplate, op: &OpDesc, args: &[Value]) -> (Vec<Record>, Vec<Record>) {
    assert_eq!(tpl.chunk_count(), 1);
    let mut is_count = Vec::new();
    for (param, arg) in op.params.iter().zip(args) {
        let leaves = param.desc.leaves_per_instance();
        match arg.array_len() {
            Some(len) => {
                is_count.push(true);
                is_count.resize(is_count.len() + len * leaves, false);
            }
            None => is_count.resize(is_count.len() + leaves, false),
        }
    }
    let entries = tpl.dut().entries();
    assert_eq!(entries.len(), is_count.len());
    let leaves = entries.iter().zip(is_count).filter(|(_, count)| !count);
    leaves
        .map(|(e, _)| Record {
            tag: e.loc.offset as usize,
            end: (e.loc.offset + e.ser_len) as usize,
            kind: e.kind,
        })
        .partition(|r| r.kind != ScalarKind::Str)
}

/// A test-only copy of the hop loop `BinaryReference::patch` ran before it
/// became one forward walk over the slot map: jump to each differing byte,
/// insist it is payload of a slot, decode that record, go on behind it.
fn hop_loop(prev: &[u8], bytes: &[u8], slots: &[Record]) -> Option<(usize, usize)> {
    if prev.len() != bytes.len() {
        return None;
    }
    let mut at = 0;
    let mut slots_left = slots.iter().peekable();
    let mut reparsed = 0;
    loop {
        let same = prev[at..]
            .iter()
            .zip(&bytes[at..])
            .take_while(|(a, b)| a == b);
        at += same.count();
        if at == bytes.len() {
            break;
        }
        while slots_left.next_if(|s| s.end <= at).is_some() {}
        let s = slots_left.next().filter(|s| s.tag < at)?;
        // The tag compared equal, so the one record the decoder can still
        // reject is a bool that is neither 0 nor 1.
        if s.kind == ScalarKind::Bool && bytes[s.tag + 1] > 1 {
            return None;
        }
        reparsed += 1;
        at = s.end;
    }
    Some((reparsed, slots.len() - reparsed))
}

/// Damage done to a message on the wire.
#[derive(Clone, Copy, Debug)]
enum Tamper {
    None,
    /// The tag byte of a slot.
    Tag(usize),
    /// A byte that belongs to no slot: prologue, markers, counts, strings.
    Framing(usize),
    /// A bool payload of 2.
    BoolTwo(usize),
    /// A byte of a string's text.
    StrByte(usize),
    /// The END marker.
    End,
}

fn tamper(bytes: &mut [u8], how: Tamper, slots: &[Record], strings: &[Record]) {
    let nth = |mut of: Vec<usize>, k: usize| (!of.is_empty()).then(|| of.swap_remove(k % of.len()));
    let in_slot = |i: usize| slots.iter().any(|s| (s.tag..s.end).contains(&i));
    let bools = slots.iter().filter(|s| s.kind == ScalarKind::Bool);
    let at = match how {
        Tamper::None => None,
        Tamper::Tag(k) => nth(slots.iter().map(|s| s.tag).collect(), k),
        Tamper::Framing(k) => nth((0..bytes.len()).filter(|&i| !in_slot(i)).collect(), k),
        Tamper::BoolTwo(k) => nth(bools.map(|s| s.tag + 1).collect(), k),
        Tamper::StrByte(k) => nth(strings.iter().flat_map(|s| s.tag + 5..s.end).collect(), k),
        Tamper::End => Some(bytes.len() - 1),
    };
    match (how, at) {
        (_, None) => {}
        (Tamper::BoolTwo(_), Some(at)) => bytes[at] = 2,
        (_, Some(at)) => bytes[at] ^= 0x41,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The bin1 slot walk, over operations with every kind of leaf and a
    /// random subset of records rewritten per message, then one message
    /// damaged on the wire: the values are always the one-shot decode's
    /// (or both refuse, and the reference still describes the last good
    /// message), and the outcome is a full parse exactly when the hop loop
    /// the walk replaced would have asked for one — the same
    /// `{reparsed, skipped}` otherwise.
    #[test]
    fn bin1_slot_walk_equals_the_hop_loop_and_the_oracle(
        lens in prop::collection::vec(0usize..4, 4),
        salts in prop::collection::vec(any::<u64>(), 16..48),
        steps in prop::collection::vec(
            (any::<u64>(), prop::collection::vec(0u8..4, 1..24), 0u8..5, 0u8..8),
            1..5,
        ),
        damage in (0u8..10, 0usize..4096),
    ) {
        let op = kinds_op();
        let config = EngineConfig::paper_default().with_wire_format(WireFormat::CompactBinary);
        let values = |seed: u64| -> Vec<Value> {
            let mut salts = salts.iter().map(|s| s.rotate_left(seed as u32) ^ seed).cycle();
            let mut lens = lens.iter().copied();
            let params = op.params.iter();
            params.map(|p| value_of(&p.desc, &mut salts, &mut lens)).collect()
        };
        let mut args = values(0);
        let mut tpl = MessageTemplate::build(config, &op, &args).unwrap();
        let mut deser = LaneDeserializer::new(WireFormat::CompactBinary, op.clone());
        let mut prev = tpl.to_bytes().to_vec();
        prop_assert_eq!(deser.deserialize(&prev).unwrap().1, DiffOutcome::FullParse);
        let (slots, strings) = records(&tpl, &op, &args);

        let last = steps.len() - 1;
        for (i, (seed, picks, density, strings_too)) in steps.into_iter().enumerate() {
            let mut picks = picks.into_iter().cycle();
            let mut pick = || picks.next().unwrap() < density;
            let fresh = values(seed | 1);
            let pairs = args.iter().zip(&fresh);
            let next: Vec<Value> =
                pairs.map(|(a, b)| rewritten(a, b, strings_too == 0, &mut pick)).collect();
            tpl.update_args(&next).unwrap();
            tpl.flush();
            let mut bytes = tpl.to_bytes().to_vec();
            // Same shape, so the records are where they were.
            prop_assert_eq!(records(&tpl, &op, &next).0.len(), slots.len());
            if i == last {
                let how = match damage {
                    (0, k) => Tamper::Tag(k),
                    (1, k) => Tamper::Framing(k),
                    (2, k) => Tamper::BoolTwo(k),
                    (3, k) => Tamper::StrByte(k),
                    (4, _) => Tamper::End,
                    _ => Tamper::None,
                };
                tamper(&mut bytes, how, &slots, &strings);
            }

            let hopped = hop_loop(&prev, &bytes, &slots);
            match (deser.deserialize(&bytes), decode(WireFormat::CompactBinary, &bytes, &op)) {
                (Ok((got, outcome)), Ok(want)) => {
                    prop_assert_eq!(leaf_list(got), leaf_list(&want), "{:?}", outcome);
                    let expected = match hopped {
                        _ if prev == bytes => DiffOutcome::Identical,
                        Some((reparsed, skipped)) => DiffOutcome::Differential { reparsed, skipped },
                        None => DiffOutcome::FullParse,
                    };
                    prop_assert_eq!(outcome, expected);
                    prev = bytes;
                    args = next;
                }
                (Err(_), Err(_)) => {
                    prop_assert_eq!(hopped, None);
                    let (got, outcome) = deser.deserialize(&prev).unwrap();
                    prop_assert_eq!(outcome, DiffOutcome::Identical);
                    prop_assert_eq!(leaf_list(got), leaf_list(&args));
                }
                (got, want) => prop_assert!(false, "walk {:?}, oracle {:?}", got, want),
            }
        }
    }

    /// Differential ≡ oracle on both lanes, over schedules that rewrite at
    /// width, widen, narrow, append, truncate, empty and refill arrays:
    /// after every send the values are the one-shot decode's, and the
    /// outcome is the cheapest the change allows, with exact counts — the
    /// skipped count is what the walk's jump over unchanged regions
    /// counted. Bodies go in through the owned entry, as a server reads
    /// them, and in a debug build every commit asserts that the map's end
    /// offsets are still the prefix sums of its regions.
    #[test]
    fn differential_equals_oracle_over_resize_schedules(
        shape in prop_oneof![
            Just(Shape::Doubles),
            Just(Shape::Ints),
            Just(Shape::Mios),
            Just(Shape::Mixed),
        ],
        steps in prop::collection::vec(step_strategy(), 1..12),
        stuffed in any::<bool>(),
    ) {
        let op = shape.op();
        for lane in WireFormat::ALL {
            let config = if stuffed {
                EngineConfig::stuffed_max()
            } else {
                EngineConfig::paper_default()
            }
            .with_wire_format(lane);
            let mut args = shape.initial();
            let mut tpl = MessageTemplate::build(config, &op, &args).unwrap();
            let mut deser = LaneDeserializer::new(lane, op.clone());
            let mut prev_bytes = tpl.to_bytes().to_vec();
            let mut body = prev_bytes.clone();
            let (_, first) = deser.deserialize_owned(&mut body).unwrap();
            prop_assert_eq!(first, DiffOutcome::FullParse);

            for step in &steps {
                let prev_args = args.clone();
                apply_step(&mut args, step);
                tpl.update_args(&args).unwrap();
                tpl.flush();
                let bytes = tpl.to_bytes().to_vec();
                let oracle = decode(lane, &bytes, &op).unwrap();
                prop_assert_eq!(&oracle, &args, "{:?}: oracle lost the sent values", lane);

                body.clear();
                body.extend_from_slice(&bytes);
                let (got, outcome) = deser.deserialize_owned(&mut body).unwrap();
                prop_assert_eq!(got, &oracle[..], "{:?} after {:?}", lane, step);
                let expected = match lane {
                    WireFormat::SoapXml => xml_expectation(&prev_bytes, &bytes),
                    WireFormat::CompactBinary => bin1_expectation(&prev_args, &args),
                };
                prop_assert_eq!(outcome, expected, "{:?} after {:?}", lane, step);
                prev_bytes = bytes;
            }
        }
    }

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
        nested in any::<bool>(),
    ) {
        let op = if nested { nested_op() } else { doubles_op() };
        let args_of = |xs: &[f64]| match nested {
            true => nested_args(xs),
            false => vec![Value::DoubleArray(xs.to_vec())],
        };
        let config = if stuffed {
            EngineConfig::stuffed_max()
        } else {
            EngineConfig::paper_default()
        };
        let mut current = initial.clone();
        let mut tpl = MessageTemplate::build(config, &op, &args_of(&current)).unwrap();
        let mut diff = DiffDeserializer::new(op.clone());
        diff.deserialize(&tpl.to_bytes()).unwrap();

        for update in updates {
            for (idx, v) in update {
                let idx = idx % current.len();
                current[idx] = v;
            }
            tpl.update_args(&args_of(&current)).unwrap();
            tpl.flush();
            let bytes = tpl.to_bytes();
            let full = parse_envelope(&bytes, &op).unwrap();
            let (diffed, _) = diff.deserialize(&bytes).unwrap();
            prop_assert_eq!(diffed, &full[..], "differential drifted from full parse");
        }
    }

    /// Two valid messages that share nothing but the operation — other
    /// values, lengths, stuffing, even another serializer: whatever the
    /// walk makes of the second after the first, it is the oracle's
    /// reading.
    #[test]
    fn unrelated_valid_messages_agree_with_the_oracle(
        shape in prop_oneof![Just(Shape::Mios), Just(Shape::Mixed)],
        first in prop::collection::vec(step_strategy(), 0..6),
        second in prop::collection::vec(step_strategy(), 0..6),
        writers in (0usize..3, 0usize..3),
    ) {
        let op = shape.op();
        let message = |steps: &[Step], writer: usize| {
            let mut args = shape.initial();
            for step in steps {
                apply_step(&mut args, step);
            }
            let configs = [EngineConfig::paper_default(), EngineConfig::stuffed_max()];
            match configs.get(writer) {
                Some(config) => MessageTemplate::build(*config, &op, &args).unwrap().to_bytes(),
                None => bsoap_baseline::GSoapLike::new().serialize(&op, &args).unwrap().to_vec(),
            }
        };
        let (a, b) = (message(&first, writers.0), message(&second, writers.1));
        let mut diff = DiffDeserializer::new(op.clone());
        diff.deserialize(&a).unwrap();
        let oracle = parse_envelope(&b, &op).unwrap();
        let (got, outcome) = diff.deserialize(&b).unwrap();
        prop_assert_eq!(got, &oracle[..], "{:?}", outcome);
        // And the reference it leaves behind reads the first one again.
        let oracle = parse_envelope(&a, &op).unwrap();
        let (got, outcome) = diff.deserialize(&a).unwrap();
        prop_assert_eq!(got, &oracle[..], "{:?}", outcome);
    }

    /// A resized message of struct elements and mixed parameters, damaged
    /// on the wire, after the good message before it: the walk reads what
    /// the oracle reads or fails where it fails, and the reference still
    /// describes the good message.
    #[test]
    fn damaged_resizes_of_struct_arrays_agree_with_the_oracle(
        shape in prop_oneof![Just(Shape::Mios), Just(Shape::Mixed)],
        steps in prop::collection::vec(step_strategy(), 1..4),
        damage in prop::collection::vec((0usize..4096, 0usize..4, any::<u8>()), 1..3),
        stuffed in any::<bool>(),
    ) {
        let op = shape.op();
        let config = if stuffed {
            EngineConfig::stuffed_max()
        } else {
            EngineConfig::paper_default()
        };
        let mut args = shape.initial();
        let mut tpl = MessageTemplate::build(config, &op, &args).unwrap();
        let primed = tpl.to_bytes().to_vec();
        let mut diff = DiffDeserializer::new(op.clone());
        diff.deserialize(&primed).unwrap();
        for step in &steps {
            apply_step(&mut args, step);
        }
        tpl.update_args(&args).unwrap();
        tpl.flush();
        let mut damaged = tpl.to_bytes().to_vec();
        for &(pos, how, byte) in &damage {
            let pos = pos % damaged.len();
            match how {
                0 => damaged.truncate(pos),
                1 => damaged.insert(pos, byte),
                2 => drop(damaged.remove(pos)),
                _ => damaged[pos] = byte,
            }
            prop_assume!(!damaged.is_empty());
        }
        match (diff.deserialize(&damaged), parse_envelope(&damaged, &op)) {
            (Ok((got, outcome)), Ok(want)) => prop_assert_eq!(got, &want[..], "{:?}", outcome),
            (Err(_), Err(_)) => {
                let (got, outcome) = diff.deserialize(&primed).unwrap();
                prop_assert_eq!(outcome, DiffOutcome::Identical);
                prop_assert_eq!(got, &shape.initial()[..]);
            }
            (got, want) => prop_assert!(false, "walk {:?}, oracle {:?}", got, want),
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
