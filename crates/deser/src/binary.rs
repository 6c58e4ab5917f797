//! Compact-binary envelope decoding (the receiving half of the
//! negotiated binary lane, DESIGN §3.15).
//!
//! The decoder is schema-directed like [`crate::envelope`]: given the
//! [`OpDesc`] a service expects, it walks the tagged records of a
//! `BSB1` envelope into [`Value`]s. Wherever a tag or marker byte is
//! expected it first skips any run of pad bytes (`0x20`) — the stuffing
//! a shrunk string region leaves behind, exactly as inter-tag whitespace
//! does on the XML lane. No tag byte collides with the pad, so the skip
//! is unambiguous.
//!
//! Every malformed input — truncation, an unknown tag, a length prefix
//! lying about the remaining bytes, trailing garbage — surfaces as a
//! typed [`DeserError`]; the decoder never panics and never reads past
//! the buffer (fuzzed in `tests/binary_fuzz.rs`).

use crate::diff::{DiffShell, Reference};
use crate::envelope::{LeafPaths, LeafSlot, Scalar};
use crate::error::DeserError;
use bsoap_convert::ScalarKind;
use bsoap_core::wire;
use bsoap_core::{OpDesc, TypeDesc, Value};

/// Parse a compact-binary envelope into the operation's argument values.
pub fn parse_binary_envelope(bytes: &[u8], op: &OpDesc) -> Result<Vec<Value>, DeserError> {
    decode(&mut Cursor::new(bytes, None), op)
}

/// The one decoder walk; `c.slots`, when set, collects the slot map.
fn decode(c: &mut Cursor<'_>, op: &OpDesc) -> Result<Vec<Value>, DeserError> {
    let magic = c.take(wire::MAGIC.len(), "magic")?;
    if magic != wire::MAGIC {
        return Err(DeserError::binary("missing BSB1 magic"));
    }
    let name_len = u16::from_le_bytes(c.take(2, "op-name length")?.try_into().unwrap()) as usize;
    let name = c.take(name_len, "op name")?;
    if name != op.name.as_bytes() {
        return Err(DeserError::shape(format!(
            "operation name mismatch: envelope says {:?}, expected {:?}",
            String::from_utf8_lossy(name),
            op.name
        )));
    }
    let param_count = c.byte("param count")? as usize;
    if param_count != op.params.len() {
        return Err(DeserError::shape(format!(
            "param count mismatch: envelope says {param_count}, schema has {}",
            op.params.len()
        )));
    }
    let mut args = Vec::with_capacity(op.params.len());
    for (pidx, param) in op.params.iter().enumerate() {
        c.next = LeafSlot {
            param: pidx as u32,
            leaf: 0,
        };
        args.push(parse_value(c, &param.desc)?);
    }
    c.skip_pads();
    if c.byte("END marker")? != wire::END {
        return Err(DeserError::binary("expected END marker"));
    }
    c.skip_pads();
    if c.pos != c.buf.len() {
        return Err(DeserError::binary(format!(
            "{} trailing bytes after END",
            c.buf.len() - c.pos
        )));
    }
    Ok(args)
}

/// One fixed-width scalar record the sender overwrites in place: its tag
/// byte at `offset`, `width` bytes of payload behind it.
#[derive(Clone, Copy, Debug)]
struct Slot {
    offset: u32,
    width: u8,
    kind: ScalarKind,
    slot: LeafSlot,
}

impl Slot {
    /// One past the payload.
    fn end(&self) -> usize {
        self.offset as usize + 1 + self.width as usize
    }

    /// Bits of an eight-byte load at the payload that are not payload.
    /// `None` for a width no record has.
    fn unused_bits(&self) -> Option<u32> {
        matches!(self.width, 1..=8).then(|| 64 - 8 * u32::from(self.width))
    }

    /// This record's payload in `buf`, as one little-endian word. `None`
    /// if `buf` ends before the payload does.
    ///
    /// Whatever the width, the load is the same eight bytes with the
    /// unused ones shifted out: a struct array mixes widths slot by slot,
    /// and a branch per width would be a branch on data. Only the last few
    /// bytes of a message cannot be read that way.
    fn word(&self, buf: &[u8]) -> Option<u64> {
        let payload = buf.get(self.offset as usize + 1..)?;
        let width = usize::from(self.width);
        let unused = self.unused_bits()?;
        Some(match payload.first_chunk() {
            Some(wide) => u64::from_le_bytes(*wide) << unused >> unused,
            None => {
                let tail = payload.get(..width)?.iter().rev();
                tail.fold(0, |word, &byte| word << 8 | u64::from(byte))
            }
        })
    }

    /// The value a payload word decodes to — [`read_record`] on a record
    /// whose tag is known good. `None` where the full decode would report
    /// an error: that error is its to word.
    fn value(&self, word: u64) -> Option<Scalar> {
        Some(match self.kind {
            ScalarKind::Bool => Scalar::Bool(match word {
                0 => false,
                1 => true,
                _ => return None,
            }),
            ScalarKind::Int => Scalar::Int(word as u32 as i32),
            ScalarKind::Long => Scalar::Long(word as i64),
            ScalarKind::Double => Scalar::Double(f64::from_bits(word)),
            ScalarKind::Str => return None,
        })
    }
}

/// Whether every record of `run` — changed slots of one parameter — has a
/// place of its kind in `args`; with `write`, put them there. An element
/// of an unboxed array takes the payload as it is, with the array found
/// once for the run; any other place, found through `paths`, must hold the
/// variant the payload decodes to.
fn land(run: &[Slot], bytes: &[u8], args: &mut [Value], paths: &LeafPaths, write: bool) -> bool {
    fn elems<T>(
        run: &[Slot],
        bytes: &[u8],
        elems: &mut [T],
        kind: ScalarKind,
        decode: impl Fn(u64) -> T,
        write: bool,
    ) -> bool {
        run.iter().all(|s| {
            let place = elems.get_mut(s.slot.leaf as usize);
            match (s.word(bytes), place) {
                (Some(word), Some(place)) if s.kind == kind => {
                    if write {
                        *place = decode(word);
                    }
                    true
                }
                _ => false,
            }
        })
    }
    match run
        .first()
        .and_then(|s| args.get_mut(s.slot.param as usize))
    {
        Some(Value::DoubleArray(v)) => {
            elems(run, bytes, v, ScalarKind::Double, f64::from_bits, write)
        }
        Some(Value::IntArray(v)) => {
            elems(run, bytes, v, ScalarKind::Int, |w| w as u32 as i32, write)
        }
        _ => run.iter().all(|s| {
            let value = s.word(bytes).and_then(|word| s.value(word));
            match (paths.leaf_mut(args, s.slot), value) {
                (Some(place), Some(value)) => place.store(value, write),
                _ => false,
            }
        }),
    }
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Where the next leaf's value goes.
    next: LeafSlot,
    slots: Option<Vec<Slot>>,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8], slots: Option<Vec<Slot>>) -> Self {
        let next = LeafSlot { param: 0, leaf: 0 };
        Cursor {
            buf,
            pos: 0,
            next,
            slots,
        }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], DeserError> {
        if self.remaining() < n {
            return Err(DeserError::binary(format!(
                "truncated: {what} needs {n} bytes, {} left",
                self.remaining()
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn byte(&mut self, what: &str) -> Result<u8, DeserError> {
        Ok(self.take(1, what)?[0])
    }

    /// Skip pad bytes; legal exactly where a tag or marker is expected.
    fn skip_pads(&mut self) {
        while self.pos < self.buf.len() && self.buf[self.pos] == wire::PAD {
            self.pos += 1;
        }
    }
}

fn parse_value(c: &mut Cursor<'_>, desc: &TypeDesc) -> Result<Value, DeserError> {
    match desc {
        TypeDesc::Scalar(kind) => parse_leaf(c, *kind),
        TypeDesc::Struct { fields, .. } => {
            c.skip_pads();
            if c.byte("STRUCT_BEGIN")? != wire::STRUCT_BEGIN {
                return Err(DeserError::binary("expected STRUCT_BEGIN"));
            }
            let mut vals = Vec::with_capacity(fields.len());
            for (_, fdesc) in fields {
                vals.push(parse_value(c, fdesc)?);
            }
            c.skip_pads();
            if c.byte("STRUCT_END")? != wire::STRUCT_END {
                return Err(DeserError::binary("expected STRUCT_END"));
            }
            Ok(Value::Struct(vals))
        }
        TypeDesc::Array { item } => parse_array(c, item),
    }
}

fn parse_array(c: &mut Cursor<'_>, item: &TypeDesc) -> Result<Value, DeserError> {
    c.skip_pads();
    if c.byte("ARRAY_BEGIN")? != wire::ARRAY_BEGIN {
        return Err(DeserError::binary("expected ARRAY_BEGIN"));
    }
    let Value::Int(len) = read_record(c, ScalarKind::Int)? else {
        unreachable!("int leaf parses to Int");
    };
    if len < 0 {
        return Err(DeserError::binary(format!("negative array length {len}")));
    }
    let len = len as usize;
    // A length prefix cannot promise more elements than the remaining
    // bytes could hold — each element costs at least one tag byte. This
    // bounds allocation before the element loop touches anything.
    if len > c.remaining() {
        return Err(DeserError::binary(format!(
            "array length {len} exceeds the {} bytes left in the message",
            c.remaining()
        )));
    }
    let value = match item {
        TypeDesc::Scalar(ScalarKind::Double) => {
            let mut v = Vec::with_capacity(len);
            for _ in 0..len {
                let Value::Double(x) = parse_leaf(c, ScalarKind::Double)? else {
                    unreachable!("double leaf parses to Double");
                };
                v.push(x);
            }
            Value::DoubleArray(v)
        }
        TypeDesc::Scalar(ScalarKind::Int) => {
            let mut v = Vec::with_capacity(len);
            for _ in 0..len {
                let Value::Int(x) = parse_leaf(c, ScalarKind::Int)? else {
                    unreachable!("int leaf parses to Int");
                };
                v.push(x);
            }
            Value::IntArray(v)
        }
        _ => {
            let mut v = Vec::with_capacity(len);
            for _ in 0..len {
                v.push(parse_value(c, item)?);
            }
            Value::Array(v)
        }
    };
    c.skip_pads();
    if c.byte("ARRAY_END")? != wire::ARRAY_END {
        return Err(DeserError::binary("expected ARRAY_END"));
    }
    Ok(value)
}

/// Decode one of the operation's scalar leaves, noting where it sits if
/// the sender can rewrite it in place (a string carries its own length, so
/// it is framing, not a slot).
fn parse_leaf(c: &mut Cursor<'_>, kind: ScalarKind) -> Result<Value, DeserError> {
    c.skip_pads();
    let (offset, slot) = (c.pos, c.next);
    let value = read_record(c, kind)?;
    c.next.leaf += 1;
    let width = c.pos - offset - 1;
    if let (Some(slots), false) = (&mut c.slots, kind == ScalarKind::Str) {
        slots.push(Slot {
            offset: offset as u32,
            width: width as u8,
            kind,
            slot,
        });
    }
    Ok(value)
}

/// Decode one tagged record of `kind`.
fn read_record(c: &mut Cursor<'_>, kind: ScalarKind) -> Result<Value, DeserError> {
    c.skip_pads();
    let tag = c.byte("leaf tag")?;
    let expected = match kind {
        ScalarKind::Int => wire::TAG_INT,
        ScalarKind::Long => wire::TAG_LONG,
        ScalarKind::Double => wire::TAG_DOUBLE,
        ScalarKind::Bool => wire::TAG_BOOL,
        ScalarKind::Str => wire::TAG_STR,
    };
    if tag != expected {
        return Err(DeserError::binary(format!(
            "leaf tag {tag:#04x} where {kind:?} ({expected:#04x}) was expected"
        )));
    }
    Ok(match kind {
        ScalarKind::Int => Value::Int(i32::from_le_bytes(
            c.take(4, "int payload")?.try_into().unwrap(),
        )),
        ScalarKind::Long => Value::Long(i64::from_le_bytes(
            c.take(8, "long payload")?.try_into().unwrap(),
        )),
        ScalarKind::Double => Value::Double(f64::from_bits(u64::from_le_bytes(
            c.take(8, "double payload")?.try_into().unwrap(),
        ))),
        ScalarKind::Bool => match c.byte("bool payload")? {
            0 => Value::Bool(false),
            1 => Value::Bool(true),
            b => return Err(DeserError::binary(format!("bool payload {b:#04x}"))),
        },
        ScalarKind::Str => {
            let n = u32::from_le_bytes(c.take(4, "string length")?.try_into().unwrap()) as usize;
            if n > c.remaining() {
                return Err(DeserError::binary(format!(
                    "string length {n} exceeds the {} bytes left in the message",
                    c.remaining()
                )));
            }
            let raw = c.take(n, "string payload")?;
            let s = std::str::from_utf8(raw)
                .map_err(|e| DeserError::binary(format!("string payload not UTF-8: {e}")))?;
            Value::Str(s.to_owned())
        }
    })
}

/// What bin1 retains of a message: the decoded arguments and the slot map
/// the decoder walk recorded — every fixed-width scalar record, in wire
/// order. Numeric leaves never change width on this lane, so between two
/// messages of one shape only slot bytes differ.
#[derive(Debug)]
pub struct BinaryReference {
    args: Vec<Value>,
    slots: Vec<Slot>,
    /// Retained scratch of [`Reference::patch`]: the slots whose payload
    /// changed. As long as `slots`.
    changed: Vec<Slot>,
}

impl Reference for BinaryReference {
    fn decode(bytes: &[u8], op: &OpDesc) -> Result<Self, DeserError> {
        // Slot offsets are `u32`; a message they cannot address keeps no
        // slot map, so every byte of it is framing.
        let addressable = u32::try_from(bytes.len()).is_ok();
        let mut c = Cursor::new(bytes, addressable.then(Vec::new));
        let args = decode(&mut c, op)?;
        let slots = c.slots.take().unwrap_or_default();
        let changed = slots.clone();
        Ok(BinaryReference {
            args,
            slots,
            changed,
        })
    }

    fn args(&self) -> &[Value] {
        &self.args
    }

    fn map_bytes(&self) -> usize {
        (self.slots.capacity() + self.changed.capacity()) * size_of::<Slot>()
    }

    /// The leaf tier: one forward walk over the slot map, then the changed
    /// records alone. Two rules make it sound (DESIGN §3.16):
    ///
    /// * **Every differing byte lies in a slot payload.** Same length, and
    ///   the framing before each slot — the gap since the last payload and
    ///   the slot's own tag — and after the last compare equal, so the
    ///   full decode would walk the new message through the same states to
    ///   the same slots. A string that changed, or an array that changed
    ///   length, rewrote framing: full decode.
    /// * **Nothing lands until every changed record is known to.** A
    ///   payload the full decode would reject (a bool that is not 0 or 1)
    ///   or a slot that does not name a place of its kind in the values
    ///   asks for the full decode, before the first value moves.
    ///
    /// Which slots changed is data no branch predictor learns, so the walk
    /// compares each payload as one word and collects the changed slots
    /// without branching on the outcome.
    fn patch(
        &mut self,
        prev: &[u8],
        bytes: &[u8],
        _op: &OpDesc,
        paths: &LeafPaths,
    ) -> Result<Option<(usize, usize)>, DeserError> {
        let BinaryReference {
            args,
            slots,
            changed,
        } = self;
        let Some(n) = changed_slots(slots, prev, bytes, changed) else {
            return Ok(None);
        };
        let runs = || changed[..n].chunk_by(|a, b| a.slot.param == b.slot.param);
        if !runs().all(|run| land(run, bytes, args, paths, false)) {
            return Ok(None);
        }
        for run in runs() {
            let landed = land(run, bytes, args, paths, true);
            debug_assert!(landed, "checked above");
        }
        Ok(Some((n, slots.len() - n)))
    }
}

/// The forward walk of [`BinaryReference::patch`]: write the slots whose
/// payload differs between `prev` and `bytes` to the front of `changed`
/// and return how many there are. `None` if any byte outside
/// the payloads differs, or the map does not fit the messages.
fn changed_slots(slots: &[Slot], prev: &[u8], bytes: &[u8], changed: &mut [Slot]) -> Option<usize> {
    let len = bytes.len();
    if prev.len() != len {
        return None;
    }
    let (mut at, mut n) = (0, 0);
    for s in slots {
        let (tag, end) = (s.offset as usize, s.end());
        if tag < at || end > len {
            return None;
        }
        // One tag byte, nearly always: not worth a `memcmp` call.
        let framing_same = if tag == at {
            prev[tag] == bytes[tag]
        } else {
            prev[at..=tag] == bytes[at..=tag]
        };
        if !framing_same {
            return None;
        }
        let differs = s.word(prev)? != s.word(bytes)?;
        *changed.get_mut(n)? = *s;
        n += usize::from(differs);
        at = end;
    }
    (prev[at..] == bytes[at..]).then_some(n)
}

/// Differential deserializer for one operation's bin1 envelopes.
pub type BinaryDiffDeserializer = DiffShell<BinaryReference>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DiffOutcome;
    use bsoap_core::value::mio;
    use bsoap_core::{EngineConfig, MessageTemplate, WireFormat};

    fn bin_cfg() -> EngineConfig {
        EngineConfig::paper_default().with_wire_format(WireFormat::CompactBinary)
    }

    fn mios_op() -> OpDesc {
        OpDesc::single(
            "sendMios",
            "urn:mesh",
            "mios",
            TypeDesc::array_of(TypeDesc::mio()),
        )
    }

    #[test]
    fn round_trips_every_scalar_kind() {
        let op = OpDesc::new(
            "kinds",
            "urn:t",
            vec![
                bsoap_core::ParamDesc {
                    name: "i".into(),
                    desc: TypeDesc::Scalar(ScalarKind::Int),
                },
                bsoap_core::ParamDesc {
                    name: "l".into(),
                    desc: TypeDesc::Scalar(ScalarKind::Long),
                },
                bsoap_core::ParamDesc {
                    name: "d".into(),
                    desc: TypeDesc::Scalar(ScalarKind::Double),
                },
                bsoap_core::ParamDesc {
                    name: "b".into(),
                    desc: TypeDesc::Scalar(ScalarKind::Bool),
                },
                bsoap_core::ParamDesc {
                    name: "s".into(),
                    desc: TypeDesc::Scalar(ScalarKind::Str),
                },
            ],
        );
        let args = vec![
            Value::Int(i32::MIN),
            Value::Long(i64::MAX),
            Value::Double(-0.0),
            Value::Bool(true),
            // Unescaped on the binary lane: markup characters survive.
            Value::Str("a<b&c>\"d\"".to_owned()),
        ];
        let bytes = MessageTemplate::build(bin_cfg(), &op, &args)
            .unwrap()
            .to_bytes();
        let got = parse_binary_envelope(&bytes, &op).unwrap();
        assert_eq!(got, args);
    }

    #[test]
    fn round_trips_struct_arrays_and_padded_strings() {
        let op = mios_op();
        let args = vec![Value::Array(vec![mio(1, 2, 0.5), mio(-3, 4, f64::NAN)])];
        let mut tpl = MessageTemplate::build(bin_cfg(), &op, &args).unwrap();
        let got = parse_binary_envelope(&tpl.to_bytes(), &op).unwrap();
        // NaN != NaN under PartialEq; compare the bit pattern by hand.
        let Value::Array(elems) = &got[0] else {
            panic!()
        };
        assert_eq!(elems.len(), 2);
        assert_eq!(elems[0], mio(1, 2, 0.5));

        // A resize must stay decodable (length leaf rewritten in place).
        tpl.update_args(&[Value::Array(vec![mio(9, 9, 9.0)])])
            .unwrap();
        tpl.flush();
        let got = parse_binary_envelope(&tpl.to_bytes(), &op).unwrap();
        assert_eq!(got[0], Value::Array(vec![mio(9, 9, 9.0)]));
    }

    #[test]
    fn shrunk_string_pads_are_skipped() {
        let op = OpDesc::single("tag", "urn:t", "s", TypeDesc::Scalar(ScalarKind::Str));
        let mut tpl =
            MessageTemplate::build(bin_cfg(), &op, &[Value::Str("abcdef".into())]).unwrap();
        tpl.update_args(&[Value::Str("ab".into())]).unwrap();
        tpl.flush();
        let bytes = tpl.to_bytes();
        // The shrunk region leaves a pad run before END.
        assert!(bytes.windows(2).any(|w| w == [wire::PAD, wire::PAD]));
        let got = parse_binary_envelope(&bytes, &op).unwrap();
        assert_eq!(got, vec![Value::Str("ab".into())]);
    }

    #[test]
    fn diff_wrapper_short_circuits_identical() {
        let op = mios_op();
        let mut tpl =
            MessageTemplate::build(bin_cfg(), &op, &[Value::Array(vec![mio(1, 2, 3.0)])]).unwrap();
        let mut d = BinaryDiffDeserializer::new(op);
        let (_, o) = d.deserialize(&tpl.to_bytes()).unwrap();
        assert_eq!(o, DiffOutcome::FullParse);
        let (_, o) = d.deserialize(&tpl.to_bytes()).unwrap();
        assert_eq!(o, DiffOutcome::Identical);
        tpl.update_args(&[Value::Array(vec![mio(1, 2, 4.0)])])
            .unwrap();
        tpl.flush();
        let (got, o) = d.deserialize(&tpl.to_bytes()).unwrap();
        assert_eq!(
            o,
            DiffOutcome::Differential {
                reparsed: 1,
                skipped: 2
            }
        );
        assert_eq!(got, &[Value::Array(vec![mio(1, 2, 4.0)])]);
        assert_eq!(d.stats().messages, 3);
        assert!(d.retained_bytes() > 0);
    }

    #[test]
    fn leaf_tier_decodes_changed_slots_and_leaves_framing_to_the_full_decode() {
        let op = OpDesc::new(
            "mix",
            "urn:t",
            vec![
                bsoap_core::ParamDesc {
                    name: "tag".into(),
                    desc: TypeDesc::Scalar(ScalarKind::Str),
                },
                bsoap_core::ParamDesc {
                    name: "on".into(),
                    desc: TypeDesc::Scalar(ScalarKind::Bool),
                },
                bsoap_core::ParamDesc {
                    name: "cells".into(),
                    desc: TypeDesc::array_of(TypeDesc::mio()),
                },
            ],
        );
        let args = |tag: &str, on: bool, cells: &[(i32, i32, f64)]| {
            vec![
                Value::Str(tag.into()),
                Value::Bool(on),
                Value::Array(cells.iter().map(|&(x, y, v)| mio(x, y, v)).collect()),
            ]
        };
        let first = args("ab", false, &[(1, 2, 0.5), (3, 4, 1.5)]);
        let mut tpl = MessageTemplate::build(bin_cfg(), &op, &first).unwrap();
        let mut d = BinaryDiffDeserializer::new(op.clone());
        d.deserialize(&tpl.to_bytes()).unwrap();
        let mut send = |next: Vec<Value>| {
            tpl.update_args(&next).unwrap();
            tpl.flush();
            let bytes = tpl.to_bytes();
            let (got, o) = d.deserialize(&bytes).unwrap();
            assert_eq!(got, &next[..]);
            assert_eq!(got, &parse_binary_envelope(&bytes, &op).unwrap()[..]);
            o
        };
        let differential = |reparsed, skipped| DiffOutcome::Differential { reparsed, skipped };
        // Numeric and bool records change in place; the string is framing.
        assert_eq!(
            send(args("ab", true, &[(1, 2, 0.5), (3, -4, 2.5)])),
            differential(3, 4)
        );
        // A string of the same length still rewrites framing bytes.
        assert_eq!(
            send(args("cd", true, &[(1, 2, 0.5), (3, -4, 2.5)])),
            DiffOutcome::FullParse
        );
        // So does a resize; the slot map then follows the new shape.
        assert_eq!(
            send(args("cd", true, &[(1, 2, 0.5)])),
            DiffOutcome::FullParse
        );
        assert_eq!(send(args("cd", true, &[(9, 2, 0.5)])), differential(1, 3));
    }

    #[test]
    fn a_slot_that_points_nowhere_moves_no_value() {
        // `patch` used to land the changed records one by one, so a slot
        // the values have no place for left the ones before it moved while
        // the reference still claimed to describe `prev`. Nothing lands
        // now until every changed record is known to.
        let op = OpDesc::new(
            "mix",
            "urn:t",
            vec![
                bsoap_core::ParamDesc {
                    name: "xs".into(),
                    desc: TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double)),
                },
                bsoap_core::ParamDesc {
                    name: "cells".into(),
                    desc: TypeDesc::array_of(TypeDesc::mio()),
                },
            ],
        );
        let args = |xs: [f64; 3], v: f64| {
            vec![
                Value::DoubleArray(xs.to_vec()),
                Value::Array(vec![mio(1, 2, v)]),
            ]
        };
        let mut tpl = MessageTemplate::build(bin_cfg(), &op, &args([1.5, 2.5, 3.5], 0.5)).unwrap();
        let prev = tpl.to_bytes();
        tpl.update_args(&args([9.5, 8.5, 7.5], 6.5)).unwrap();
        tpl.flush();
        let bytes = tpl.to_bytes();

        let bits = |r: &BinaryReference| format!("{:?}", r.args);
        let last = 3 + 3 - 1;
        type Tamper = fn(&mut Slot);
        let tampers: [Tamper; 5] = [
            |s| s.slot.leaf = 1,          // a struct element that is not there
            |s| s.slot.param = 2,         // a parameter that is not there
            |s| s.kind = ScalarKind::Int, // a place of another kind
            |s| s.offset = u32::MAX - 8,  // a record outside the message
            |s| s.width = 0,              // a width no record has
        ];
        let paths = LeafPaths::of(&op);
        for (which, tamper) in tampers.into_iter().enumerate() {
            let mut reference = BinaryReference::decode(&prev, &op).unwrap();
            let before = bits(&reference);
            tamper(&mut reference.slots[last]);
            // Every slot before the tampered one changed too.
            assert_eq!(
                reference.patch(&prev, &bytes, &op, &paths).unwrap(),
                None,
                "{which}"
            );
            assert_eq!(bits(&reference), before, "tamper {which}");
        }
        // Untampered, the same pair is four leaves.
        let mut reference = BinaryReference::decode(&prev, &op).unwrap();
        let patched = reference.patch(&prev, &bytes, &op, &paths).unwrap();
        assert_eq!(patched, Some((4, 2)));
        assert_eq!(reference.args, args([9.5, 8.5, 7.5], 6.5));
    }

    #[test]
    fn malformed_envelopes_are_typed_errors() {
        let op = mios_op();
        let bytes = MessageTemplate::build(bin_cfg(), &op, &[Value::Array(vec![mio(1, 2, 3.0)])])
            .unwrap()
            .to_bytes();

        // Truncations at every prefix length: error, never panic.
        for n in 0..bytes.len() {
            assert!(parse_binary_envelope(&bytes[..n], &op).is_err(), "len {n}");
        }
        // Wrong magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(
            parse_binary_envelope(&bad, &op),
            Err(DeserError::Binary { .. })
        ));
        // Length prefix lying about the element count.
        let mut bad = bytes.clone();
        let len_pos = bad.iter().position(|&b| b == wire::TAG_INT).unwrap() + 1;
        bad[len_pos..len_pos + 4].copy_from_slice(&i32::MAX.to_le_bytes());
        assert!(matches!(
            parse_binary_envelope(&bad, &op),
            Err(DeserError::Binary { .. })
        ));
        // Trailing garbage after END.
        let mut bad = bytes.clone();
        bad.push(0xFF);
        assert!(matches!(
            parse_binary_envelope(&bad, &op),
            Err(DeserError::Binary { .. })
        ));
        // Wrong operation for the schema.
        let other = OpDesc::single("other", "urn:t", "v", TypeDesc::Scalar(ScalarKind::Int));
        assert!(matches!(
            parse_binary_envelope(&bytes, &other),
            Err(DeserError::Shape { .. })
        ));
    }
}
