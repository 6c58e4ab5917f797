//! Schema-directed envelope deserialization.
//!
//! [`parse_envelope`] turns the bytes of a SOAP 1.1 call into the argument
//! [`Value`]s the operation declares. [`parse_envelope_mapped`] does the
//! same while recording, for every scalar leaf, the byte region its value
//! occupies — the structure the differential deserializer (§6) compares
//! across messages.
//!
//! A leaf's *region* runs from the end of its open tag to the first `<` of
//! the element that follows its close tag. That span contains the value,
//! the close tag, and any whitespace pad — so a close tag that moved left
//! inside a stuffed field (the client's "closing tag shift") changes only
//! the leaf's own region, never the skeleton around it.

use crate::error::DeserError;
use bsoap_convert::parse as lex;
use bsoap_convert::ScalarKind;
use bsoap_core::{OpDesc, TypeDesc, Value};
use bsoap_xml::{unescape, Event, PullParser};
use std::ops::Range;

/// Identifies where a leaf's value lives within the argument list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LeafSlot {
    /// Parameter index.
    pub param: u32,
    /// Scalar index within the parameter, in document order (for arrays:
    /// `element * leaves_per_element + field`).
    pub leaf: u32,
}

/// One leaf's byte geometry in a parsed message.
#[derive(Clone, Debug)]
pub struct LeafRegion {
    /// Where the parsed value goes.
    pub slot: LeafSlot,
    /// Scalar kind (drives re-parsing).
    pub kind: ScalarKind,
    /// Bytes from open-tag end to the next element's `<` (value + close
    /// tag + pad).
    pub region: Range<usize>,
    /// Byte range of the *open*-tag name. The open tag is skeleton (it
    /// precedes `region`), so this range stays valid across differential
    /// adoptions — unlike the close tag, which moves inside the region
    /// when a shorter value is written.
    pub open_name: Range<usize>,
}

/// A fully parsed message plus its leaf map.
#[derive(Clone, Debug)]
pub struct MappedMessage {
    /// Parsed argument values.
    pub args: Vec<Value>,
    /// Leaf regions in document order (regions are disjoint and sorted).
    pub leaves: Vec<LeafRegion>,
    /// Total message length the map was built against.
    pub len: usize,
}

/// Parse an envelope into argument values (no mapping overhead).
pub fn parse_envelope(bytes: &[u8], op: &OpDesc) -> Result<Vec<Value>, DeserError> {
    Ok(parse_inner(bytes, op, false)?.args)
}

/// Parse an envelope and record every leaf's byte region.
pub fn parse_envelope_mapped(bytes: &[u8], op: &OpDesc) -> Result<MappedMessage, DeserError> {
    parse_inner(bytes, op, true)
}

struct Cursor<'a> {
    parser: PullParser<'a>,
    peeked: Option<Event>,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor {
            parser: PullParser::new(bytes),
            peeked: None,
        }
    }

    fn next(&mut self) -> Result<Event, DeserError> {
        if let Some(e) = self.peeked.take() {
            return Ok(e);
        }
        Ok(self.parser.next_event()?)
    }

    fn peek(&mut self) -> Result<&Event, DeserError> {
        if self.peeked.is_none() {
            self.peeked = Some(self.parser.next_event()?);
        }
        Ok(self.peeked.as_ref().expect("just filled"))
    }

    /// Next event, skipping whitespace-only text, comments, and the XML
    /// declaration.
    fn next_significant(&mut self) -> Result<Event, DeserError> {
        loop {
            let e = self.next()?;
            match &e {
                Event::Decl { .. } | Event::Comment { .. } => continue,
                Event::Text { range } => {
                    let t = &self.parser.input()[range.clone()];
                    if t.iter().all(|b| b.is_ascii_whitespace()) {
                        continue;
                    }
                    return Ok(e);
                }
                _ => return Ok(e),
            }
        }
    }

    fn input(&self) -> &'a [u8] {
        self.parser.input()
    }
}

/// The one schema-directed grammar: [`parse_envelope`] runs it over a
/// whole message, the streaming deserializer over the prologue and each
/// item unit as they complete.
pub(crate) struct Parser<'a> {
    cur: Cursor<'a>,
    mapped: bool,
    leaves: Vec<LeafRegion>,
}

fn parse_inner(bytes: &[u8], op: &OpDesc, mapped: bool) -> Result<MappedMessage, DeserError> {
    let mut p = Parser::new(bytes, mapped);

    p.expect_start("SOAP-ENV:Envelope")?;
    p.expect_start("SOAP-ENV:Body")?;
    let call_name = format!("ns1:{}", op.name);
    p.expect_start(&call_name)?;

    let mut args = Vec::with_capacity(op.params.len());
    for (pidx, param) in op.params.iter().enumerate() {
        let v = p.param(pidx as u32, param.name.as_str(), &param.desc)?;
        args.push(v);
    }

    p.expect_end(&call_name)?;
    p.expect_end("SOAP-ENV:Body")?;
    p.expect_end("SOAP-ENV:Envelope")?;
    p.expect_eof()?;
    Ok(MappedMessage {
        args,
        leaves: p.leaves,
        len: bytes.len(),
    })
}

impl<'a> Parser<'a> {
    pub(crate) fn new(bytes: &'a [u8], mapped: bool) -> Self {
        Parser {
            cur: Cursor::new(bytes),
            mapped,
            leaves: Vec::new(),
        }
    }

    fn name_text(&self, r: &Range<usize>) -> &'a str {
        std::str::from_utf8(&self.cur.parser.input()[r.clone()]).unwrap_or("<non-utf8>")
    }

    pub(crate) fn expect_start(&mut self, name: &str) -> Result<StartTag, DeserError> {
        match self.cur.next_significant()? {
            Event::Start {
                name: n,
                attrs,
                range,
                ..
            } => {
                if &self.cur.input()[n.clone()] != name.as_bytes() {
                    return Err(DeserError::shape(format!(
                        "expected <{name}>, found <{}>",
                        self.name_text(&n)
                    )));
                }
                Ok(StartTag {
                    attrs,
                    name: n,
                    tag_end: range.end,
                })
            }
            other => Err(DeserError::shape(format!(
                "expected <{name}>, found {other:?}"
            ))),
        }
    }

    fn expect_end(&mut self, name: &str) -> Result<(), DeserError> {
        match self.cur.next_significant()? {
            Event::End { name: n, .. } => {
                if &self.cur.input()[n.clone()] != name.as_bytes() {
                    return Err(DeserError::shape(format!(
                        "expected </{name}>, found </{}>",
                        self.name_text(&n)
                    )));
                }
                Ok(())
            }
            other => Err(DeserError::shape(format!(
                "expected </{name}>, found {other:?}"
            ))),
        }
    }

    pub(crate) fn expect_eof(&mut self) -> Result<(), DeserError> {
        match self.cur.next_significant()? {
            Event::Eof => Ok(()),
            other => Err(DeserError::shape(format!("trailing content: {other:?}"))),
        }
    }

    fn param(&mut self, pidx: u32, name: &str, desc: &TypeDesc) -> Result<Value, DeserError> {
        match desc {
            TypeDesc::Array { item } => self.array(pidx, name, item),
            _ => {
                let mut leaf_counter = 0u32;
                self.plain(pidx, &mut leaf_counter, name, desc)
            }
        }
    }

    /// Parse a scalar or struct element named `name`.
    pub(crate) fn plain(
        &mut self,
        pidx: u32,
        leaf_counter: &mut u32,
        name: &str,
        desc: &TypeDesc,
    ) -> Result<Value, DeserError> {
        match desc {
            TypeDesc::Scalar(kind) => {
                let tag = self.expect_start(name)?;
                self.scalar_body(pidx, leaf_counter, name, *kind, tag.name, tag.tag_end)
            }
            TypeDesc::Struct { fields, .. } => {
                self.expect_start(name)?;
                let mut vals = Vec::with_capacity(fields.len());
                for (fname, fdesc) in fields {
                    vals.push(self.plain(pidx, leaf_counter, fname, fdesc)?);
                }
                self.expect_end(name)?;
                Ok(Value::Struct(vals))
            }
            TypeDesc::Array { .. } => Err(DeserError::shape("nested arrays are not supported")),
        }
    }

    /// Parse the text + close tag of a scalar element whose open tag has
    /// been consumed; records the leaf region in mapped mode.
    fn scalar_body(
        &mut self,
        pidx: u32,
        leaf_counter: &mut u32,
        name: &str,
        kind: ScalarKind,
        open_name: Range<usize>,
        open_end: usize,
    ) -> Result<Value, DeserError> {
        // Value text (may be absent for the empty string).
        let text_range = match self.cur.peek()? {
            Event::Text { range } => {
                let r = range.clone();
                self.cur.next()?;
                r
            }
            _ => open_end..open_end,
        };
        let close_name = match self.cur.next()? {
            Event::End { name: n, .. } => {
                if &self.cur.input()[n.clone()] != name.as_bytes() {
                    return Err(DeserError::shape(format!(
                        "expected </{name}>, found </{}>",
                        self.name_text(&n)
                    )));
                }
                n
            }
            other => Err(DeserError::shape(format!(
                "expected </{name}>, found {other:?}"
            )))?,
        };
        let raw = &self.cur.input()[text_range.clone()];
        let value = parse_scalar(raw, kind, name)?;
        if self.mapped {
            let input = self.cur.input();
            // Region extends past the close tag through any whitespace pad
            // to the next '<'.
            let mut end = close_name.end;
            while end < input.len() && input[end] != b'>' {
                end += 1;
            }
            end = (end + 1).min(input.len());
            while end < input.len() && input[end] != b'<' && input[end].is_ascii_whitespace() {
                end += 1;
            }
            self.leaves.push(LeafRegion {
                slot: LeafSlot {
                    param: pidx,
                    leaf: *leaf_counter,
                },
                kind,
                region: open_end..end,
                open_name,
            });
        }
        *leaf_counter += 1;
        Ok(value)
    }

    fn array(&mut self, pidx: u32, name: &str, item: &TypeDesc) -> Result<Value, DeserError> {
        let tag = self.expect_start(name)?;
        // Declared length from SOAP-ENC:arrayType="T[N]".
        let declared = self.array_len_attr(&tag)?;

        let mut leaf_counter = 0u32;
        // Reserve for what the message can carry, not what it claims: no
        // element is shorter than `<item/>`.
        let mut out = ArrayAccum::new(item, declared.min(self.cur.input().len() / 7));
        loop {
            match self.cur.next_significant()? {
                Event::Start { name: n, range, .. } => {
                    if &self.cur.input()[n.clone()] != b"item" {
                        return Err(DeserError::shape(format!(
                            "expected <item>, found <{}>",
                            self.name_text(&n)
                        )));
                    }
                    match item {
                        TypeDesc::Scalar(kind) => {
                            let v = self.scalar_body(
                                pidx,
                                &mut leaf_counter,
                                "item",
                                *kind,
                                n.clone(),
                                range.end,
                            )?;
                            out.push(v)?;
                        }
                        TypeDesc::Struct { fields, .. } => {
                            let mut vals = Vec::with_capacity(fields.len());
                            for (fname, fdesc) in fields {
                                vals.push(self.plain(pidx, &mut leaf_counter, fname, fdesc)?);
                            }
                            self.expect_end("item")?;
                            out.push(Value::Struct(vals))?;
                        }
                        TypeDesc::Array { .. } => {
                            return Err(DeserError::shape("nested arrays are not supported"))
                        }
                    }
                }
                Event::End { name: n, .. } => {
                    if &self.cur.input()[n.clone()] != name.as_bytes() {
                        return Err(DeserError::shape(format!(
                            "expected </{name}>, found </{}>",
                            self.name_text(&n)
                        )));
                    }
                    break;
                }
                other => {
                    return Err(DeserError::shape(format!(
                        "unexpected content in array {name}: {other:?}"
                    )))
                }
            }
        }
        let v = out.finish()?;
        let got = v.array_len().expect("accumulator builds arrays");
        if got != declared {
            return Err(DeserError::shape(format!(
                "array {name} declares {declared} elements but contains {got}"
            )));
        }
        Ok(v)
    }

    pub(crate) fn array_len_attr(&self, tag: &StartTag) -> Result<usize, DeserError> {
        for a in &tag.attrs {
            if &self.cur.input()[a.name.clone()] == b"SOAP-ENC:arrayType" {
                let v = &self.cur.input()[a.value.clone()];
                let open = v
                    .iter()
                    .position(|&b| b == b'[')
                    .ok_or_else(|| DeserError::shape("arrayType missing '['"))?;
                let close = v[open..]
                    .iter()
                    .position(|&b| b == b']')
                    .map(|p| p + open)
                    .ok_or_else(|| DeserError::shape("arrayType missing ']'"))?;
                let n = lex::parse_i32(lex::trim_xml_ws(&v[open + 1..close])).map_err(|err| {
                    DeserError::Lexical {
                        at: "arrayType length".into(),
                        err,
                    }
                })?;
                return usize::try_from(n)
                    .map_err(|_| DeserError::shape("arrayType length is negative"));
            }
        }
        Err(DeserError::shape(
            "array element missing SOAP-ENC:arrayType",
        ))
    }
}

pub(crate) struct StartTag {
    attrs: Vec<bsoap_xml::pull::Attr>,
    name: Range<usize>,
    /// One past the tag's closing `>`.
    pub(crate) tag_end: usize,
}

/// Accumulates array elements into the densest matching `Value` variant.
enum ArrayAccum {
    Doubles(Vec<f64>),
    Ints(Vec<i32>),
    Boxed(Vec<Value>),
}

impl ArrayAccum {
    fn new(item: &TypeDesc, capacity: usize) -> Self {
        match item {
            TypeDesc::Scalar(ScalarKind::Double) => {
                ArrayAccum::Doubles(Vec::with_capacity(capacity))
            }
            TypeDesc::Scalar(ScalarKind::Int) => ArrayAccum::Ints(Vec::with_capacity(capacity)),
            _ => ArrayAccum::Boxed(Vec::with_capacity(capacity)),
        }
    }

    fn push(&mut self, v: Value) -> Result<(), DeserError> {
        match (self, v) {
            (ArrayAccum::Doubles(out), Value::Double(x)) => out.push(x),
            (ArrayAccum::Ints(out), Value::Int(x)) => out.push(x),
            (ArrayAccum::Boxed(out), v) => out.push(v),
            _ => return Err(DeserError::shape("mixed scalar kinds in array")),
        }
        Ok(())
    }

    fn finish(self) -> Result<Value, DeserError> {
        Ok(match self {
            ArrayAccum::Doubles(v) => Value::DoubleArray(v),
            ArrayAccum::Ints(v) => Value::IntArray(v),
            ArrayAccum::Boxed(v) => Value::Array(v),
        })
    }
}

/// Parse one scalar's raw text (entities unresolved) as `kind`.
pub(crate) fn parse_scalar(raw: &[u8], kind: ScalarKind, at: &str) -> Result<Value, DeserError> {
    let lexical_err = |err| DeserError::Lexical {
        at: at.to_owned(),
        err,
    };
    Ok(match kind {
        ScalarKind::Int => Value::Int(lex::parse_i32(lex::trim_xml_ws(raw)).map_err(lexical_err)?),
        ScalarKind::Long => {
            Value::Long(lex::parse_i64(lex::trim_xml_ws(raw)).map_err(lexical_err)?)
        }
        ScalarKind::Double => {
            Value::Double(lex::parse_f64(lex::trim_xml_ws(raw)).map_err(lexical_err)?)
        }
        ScalarKind::Bool => {
            Value::Bool(lex::parse_bool(lex::trim_xml_ws(raw)).map_err(lexical_err)?)
        }
        ScalarKind::Str => {
            let unescaped = unescape(raw)?;
            Value::Str(
                String::from_utf8(unescaped.into_owned())
                    .map_err(|_| DeserError::shape(format!("non-UTF-8 string at {at}")))?,
            )
        }
    })
}

/// Write a re-parsed scalar into the argument list at `slot`, using the
/// operation's type structure to find the target.
pub(crate) fn apply_leaf(
    args: &mut [Value],
    op: &OpDesc,
    slot: LeafSlot,
    value: Value,
) -> Result<(), DeserError> {
    let pidx = slot.param as usize;
    let desc = &op
        .params
        .get(pidx)
        .ok_or_else(|| DeserError::shape("leaf slot param out of range"))?
        .desc;
    let target = &mut args[pidx];
    match (desc, target) {
        (TypeDesc::Array { item }, arr) => {
            let lpe = item.leaves_per_instance().max(1);
            let elem = slot.leaf as usize / lpe;
            let field = slot.leaf as usize % lpe;
            match arr {
                Value::DoubleArray(v) => {
                    let Value::Double(x) = value else {
                        return Err(DeserError::shape("kind drift in leaf apply"));
                    };
                    *v.get_mut(elem)
                        .ok_or_else(|| DeserError::shape("leaf slot element out of range"))? = x;
                }
                Value::IntArray(v) => {
                    let Value::Int(x) = value else {
                        return Err(DeserError::shape("kind drift in leaf apply"));
                    };
                    *v.get_mut(elem)
                        .ok_or_else(|| DeserError::shape("leaf slot element out of range"))? = x;
                }
                Value::Array(elems) => {
                    let e = elems
                        .get_mut(elem)
                        .ok_or_else(|| DeserError::shape("leaf slot element out of range"))?;
                    set_nth_scalar(e, item, field, value)?;
                }
                _ => return Err(DeserError::shape("array value variant drift")),
            }
            Ok(())
        }
        (desc, target) => set_nth_scalar(target, desc, slot.leaf as usize, value),
    }
}

/// Set the `n`th scalar leaf (document order) inside a non-array value.
fn set_nth_scalar(
    target: &mut Value,
    desc: &TypeDesc,
    n: usize,
    value: Value,
) -> Result<(), DeserError> {
    fn walk(
        target: &mut Value,
        desc: &TypeDesc,
        n: &mut usize,
        value: &mut Option<Value>,
    ) -> Result<bool, DeserError> {
        match (desc, target) {
            (TypeDesc::Scalar(_), t) => {
                if *n == 0 {
                    *t = value.take().expect("single take");
                    Ok(true)
                } else {
                    *n -= 1;
                    Ok(false)
                }
            }
            (TypeDesc::Struct { fields, .. }, Value::Struct(vals)) => {
                for ((_, fdesc), fval) in fields.iter().zip(vals) {
                    if walk(fval, fdesc, n, value)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            _ => Err(DeserError::shape("structure drift in leaf apply")),
        }
    }
    let mut n = n;
    let mut v = Some(value);
    if walk(target, desc, &mut n, &mut v)? {
        Ok(())
    } else {
        Err(DeserError::shape("leaf index out of range in apply"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsoap_core::value::mio;
    use bsoap_core::{EngineConfig, MessageTemplate, ParamDesc};

    fn doubles_op() -> OpDesc {
        OpDesc::single(
            "send",
            "urn:bench",
            "arr",
            TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double)),
        )
    }

    fn build_bytes(op: &OpDesc, args: &[Value]) -> Vec<u8> {
        MessageTemplate::build(EngineConfig::paper_default(), op, args)
            .unwrap()
            .to_bytes()
    }

    #[test]
    fn round_trip_doubles() {
        let op = doubles_op();
        let args = vec![Value::DoubleArray(vec![
            0.25,
            -1.5,
            3e300,
            f64::MIN_POSITIVE,
        ])];
        let bytes = build_bytes(&op, &args);
        assert_eq!(parse_envelope(&bytes, &op).unwrap(), args);
    }

    #[test]
    fn round_trip_mios() {
        let op = OpDesc::single("m", "urn:x", "a", TypeDesc::array_of(TypeDesc::mio()));
        let args = vec![Value::Array(vec![mio(1, -2, 0.5), mio(3, 4, -5.25)])];
        let bytes = build_bytes(&op, &args);
        assert_eq!(parse_envelope(&bytes, &op).unwrap(), args);
    }

    #[test]
    fn round_trip_mixed_params() {
        let op = OpDesc::new(
            "mixed",
            "urn:x",
            vec![
                ParamDesc {
                    name: "id".into(),
                    desc: TypeDesc::Scalar(ScalarKind::Int),
                },
                ParamDesc {
                    name: "label".into(),
                    desc: TypeDesc::Scalar(ScalarKind::Str),
                },
                ParamDesc {
                    name: "xs".into(),
                    desc: TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Int)),
                },
                ParamDesc {
                    name: "p".into(),
                    desc: TypeDesc::mio(),
                },
            ],
        );
        let args = vec![
            Value::Int(-7),
            Value::Str("a<b&c>d".into()),
            Value::IntArray(vec![1, 2, 3]),
            mio(9, 8, 7.5),
        ];
        let bytes = build_bytes(&op, &args);
        assert_eq!(parse_envelope(&bytes, &op).unwrap(), args);
    }

    #[test]
    fn tolerates_stuffing_pad() {
        // Stuffed-width templates put whitespace after close tags.
        let op = doubles_op();
        let args = vec![Value::DoubleArray(vec![1.0, 2.5])];
        let bytes = MessageTemplate::build(EngineConfig::stuffed_max(), &op, &args)
            .unwrap()
            .to_bytes();
        assert_eq!(parse_envelope(&bytes, &op).unwrap(), args);
    }

    #[test]
    fn empty_array() {
        let op = doubles_op();
        let args = vec![Value::DoubleArray(vec![])];
        let bytes = build_bytes(&op, &args);
        assert_eq!(parse_envelope(&bytes, &op).unwrap(), args);
    }

    #[test]
    fn empty_string_leaf() {
        let op = OpDesc::single("f", "urn:x", "s", TypeDesc::Scalar(ScalarKind::Str));
        let args = vec![Value::Str(String::new())];
        let bytes = build_bytes(&op, &args);
        assert_eq!(parse_envelope(&bytes, &op).unwrap(), args);
    }

    #[test]
    fn declared_length_mismatch_rejected() {
        let op = doubles_op();
        let bytes = build_bytes(&op, &[Value::DoubleArray(vec![1.0, 2.0])]);
        let text = String::from_utf8(bytes).unwrap();
        let tampered = text.replace("xsd:double[2", "xsd:double[3");
        assert!(matches!(
            parse_envelope(tampered.as_bytes(), &op),
            Err(DeserError::Shape { .. })
        ));
    }

    #[test]
    fn wrong_operation_rejected() {
        let op = doubles_op();
        let bytes = build_bytes(&op, &[Value::DoubleArray(vec![1.0])]);
        let other = OpDesc::single(
            "different",
            "urn:bench",
            "arr",
            TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double)),
        );
        assert!(parse_envelope(&bytes, &other).is_err());
    }

    #[test]
    fn bad_lexical_value_rejected() {
        let op = doubles_op();
        let bytes = build_bytes(&op, &[Value::DoubleArray(vec![1.5])]);
        let tampered = String::from_utf8(bytes).unwrap().replace("1.5", "x.5");
        assert!(matches!(
            parse_envelope(tampered.as_bytes(), &op),
            Err(DeserError::Lexical { .. })
        ));
    }

    #[test]
    fn mapped_regions_cover_values() {
        let op = doubles_op();
        let args = vec![Value::DoubleArray(vec![0.5, 1.5, 2.5])];
        let bytes = build_bytes(&op, &args);
        let mapped = parse_envelope_mapped(&bytes, &op).unwrap();
        assert_eq!(mapped.args, args);
        assert_eq!(mapped.leaves.len(), 3);
        for (i, leaf) in mapped.leaves.iter().enumerate() {
            let region = &bytes[leaf.region.clone()];
            let text = std::str::from_utf8(region).unwrap();
            assert!(text.starts_with(&format!("{}.5", i)), "{text}");
            assert!(text.contains("</item>"), "{text}");
            assert_eq!(
                leaf.slot,
                LeafSlot {
                    param: 0,
                    leaf: i as u32
                }
            );
        }
        // Regions are disjoint and sorted.
        for w in mapped.leaves.windows(2) {
            assert!(w[0].region.end <= w[1].region.start);
        }
    }

    #[test]
    fn mapped_mio_slots() {
        let op = OpDesc::single("m", "urn:x", "a", TypeDesc::array_of(TypeDesc::mio()));
        let args = vec![Value::Array(vec![mio(1, 2, 3.5), mio(4, 5, 6.5)])];
        let bytes = build_bytes(&op, &args);
        let mapped = parse_envelope_mapped(&bytes, &op).unwrap();
        assert_eq!(mapped.leaves.len(), 6);
        assert_eq!(mapped.leaves[4].slot, LeafSlot { param: 0, leaf: 4 });
        assert_eq!(mapped.leaves[5].kind, ScalarKind::Double);
    }

    #[test]
    fn apply_leaf_array_and_struct() {
        let op = OpDesc::new(
            "mix",
            "urn:x",
            vec![
                ParamDesc {
                    name: "d".into(),
                    desc: TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double)),
                },
                ParamDesc {
                    name: "p".into(),
                    desc: TypeDesc::mio(),
                },
            ],
        );
        let mut args = vec![Value::DoubleArray(vec![1.0, 2.0]), mio(1, 2, 3.0)];
        apply_leaf(
            &mut args,
            &op,
            LeafSlot { param: 0, leaf: 1 },
            Value::Double(9.0),
        )
        .unwrap();
        assert_eq!(args[0], Value::DoubleArray(vec![1.0, 9.0]));
        apply_leaf(
            &mut args,
            &op,
            LeafSlot { param: 1, leaf: 2 },
            Value::Double(7.5),
        )
        .unwrap();
        assert_eq!(args[1], mio(1, 2, 7.5));
        apply_leaf(
            &mut args,
            &op,
            LeafSlot { param: 1, leaf: 0 },
            Value::Int(42),
        )
        .unwrap();
        assert_eq!(args[1], mio(42, 2, 7.5));
        // Out-of-range slot errors.
        assert!(apply_leaf(
            &mut args,
            &op,
            LeafSlot { param: 0, leaf: 5 },
            Value::Double(0.0)
        )
        .is_err());
    }

    #[test]
    fn parses_gsoap_baseline_output() {
        // The deserializer must accept the baselines' envelopes too.
        let mut g = bsoap_baseline::GSoapLike::new();
        let op = doubles_op();
        let args = vec![Value::DoubleArray(vec![0.125, 7e-12])];
        let bytes = g.serialize(&op, &args).unwrap().to_vec();
        assert_eq!(parse_envelope(&bytes, &op).unwrap(), args);
    }
}
