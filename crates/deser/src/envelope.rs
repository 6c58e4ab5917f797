//! Schema-directed envelope deserialization.
//!
//! [`parse_envelope`] turns the bytes of a SOAP 1.1 call into the argument
//! [`Value`]s the operation declares. [`parse_envelope_mapped`] does the
//! same while recording the message's *regions* — the byte spans a sender
//! rewrites between two messages of one shape — which is the structure the
//! differential deserializer (§6) walks.
//!
//! The map is relative: each [`Region`] stores the length of the skeleton
//! before it and its own width, so a region that widens moves nothing in
//! the map behind it. Two kinds of region exist:
//!
//! * a **leaf region** runs from the end of a scalar's open tag to the
//!   first `<` of whatever follows its close tag: `text</name>pad`. A close
//!   tag that moved inside a stuffed field (the client's "closing tag
//!   shift") changes only the leaf's own region, never the skeleton;
//! * an **array length region** runs from just after the `[` of
//!   `SOAP-ENC:arrayType="T[N]">` to the first `<` after the open tag:
//!   `N]">pad`, the field a resizing client rewrites in place.
//!
//! Everything else is skeleton, and every skeleton segment starts at a `<`.

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

/// What a [`Region`] holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RegionKind {
    /// `text</name>pad` of a scalar leaf.
    Leaf {
        /// Where the parsed value goes.
        slot: LeafSlot,
        /// Scalar kind (drives re-parsing).
        kind: ScalarKind,
    },
    /// `N]">pad` of the array at this index of the map's array table; its
    /// elements' leaves are the regions that follow.
    ArrayLen(usize),
}

/// One rewritable span of a parsed message, located by widths: it starts
/// `skeleton` bytes after the previous region ends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Region {
    /// Skeleton bytes between the previous region (or the message start)
    /// and this one.
    pub skeleton: usize,
    /// Bytes of the region itself.
    pub width: usize,
    /// What the bytes are.
    pub kind: RegionKind,
}

/// One array whose length the map can follow: its open tag ends in the
/// canonical `[N]">`, so the declared length is a region of its own.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ArrayRegion {
    /// Parameter index.
    pub(crate) param: u32,
    /// Index of the length region; the elements' leaves follow it.
    pub(crate) len_at: usize,
    /// Leaf regions per element (at least one).
    pub(crate) leaves_per_elem: usize,
    /// Elements carried, which is also the declared length.
    pub(crate) elems: usize,
    /// Skeleton bytes between the last element's last leaf region and the
    /// array's close tag: `</item>` for struct elements, nothing for
    /// scalar ones. Meaningful while `elems > 0`.
    pub(crate) elem_close: usize,
}

impl ArrayRegion {
    /// Region indices of the elements' leaves.
    pub(crate) fn leaves(&self) -> Range<usize> {
        let first = self.len_at + 1;
        first..first + self.elems * self.leaves_per_elem
    }
}

/// A fully parsed message plus its region map. The map describes exactly
/// the bytes it was built from: skeleton lengths and region widths sum to
/// the message length less its closing skeleton.
#[derive(Clone, Debug)]
pub struct MappedMessage {
    pub(crate) args: Vec<Value>,
    /// Regions in document order.
    pub(crate) regions: Vec<Region>,
    /// Resizable arrays in document order.
    pub(crate) arrays: Vec<ArrayRegion>,
}

impl MappedMessage {
    /// Parsed argument values.
    pub fn args(&self) -> &[Value] {
        &self.args
    }

    /// Every region with its absolute byte range, in document order.
    pub fn ranges(&self) -> impl Iterator<Item = (Range<usize>, RegionKind)> + '_ {
        self.regions.iter().scan(0usize, |at, r| {
            let start = *at + r.skeleton;
            *at = start + r.width;
            Some((start..*at, r.kind))
        })
    }
}

/// One array element as the oracle accepted it: each leaf's open tags
/// (attributes included) and close tag, then what closes the element. The
/// differential walk reads appended elements by it, the streaming
/// deserializer every element after the first: framing by comparison with
/// bytes the oracle accepted in the same parser state, leaves by the
/// oracle's own grammar ([`leaf_width`], [`parse_scalar`]).
#[derive(Clone, Debug)]
pub(crate) struct ElementSkeleton {
    /// Each leaf's open tags and close tag in document order, then what
    /// closes the element after its last leaf's pad.
    tags: Vec<u8>,
    /// Per leaf: where its open tags and its close tag end in `tags`, and
    /// what it is.
    leaves: Vec<(usize, usize, RegionKind)>,
}

impl ElementSkeleton {
    /// Learn the element whose leaf regions are `leaves`, the first one's
    /// skeleton starting at `bytes[at]` — its first `skip` bytes close the
    /// element before — and that `trailing` closes. `None` if the regions
    /// do not lie in `bytes` or one holds no close tag.
    pub(crate) fn learn(
        bytes: &[u8],
        (mut at, mut skip): (usize, usize),
        leaves: &[Region],
        trailing: &[u8],
    ) -> Option<Self> {
        let (mut tags, mut learned) = (Vec::new(), Vec::new());
        for region in leaves {
            let leaf = at + region.skeleton;
            tags.extend_from_slice(bytes.get(at + skip..leaf)?);
            let open_end = tags.len();
            tags.extend_from_slice(close_tag(bytes.get(leaf..leaf + region.width)?, 0)?);
            learned.push((open_end, tags.len(), region.kind));
            (at, skip) = (leaf + region.width, 0);
        }
        tags.extend_from_slice(trailing);
        Some(ElementSkeleton {
            tags,
            leaves: learned,
        })
    }

    /// What closes the element after its last leaf's pad.
    pub(crate) fn trailing(&self) -> &[u8] {
        &self.tags[self.leaves.last().map_or(0, |l| l.1)..]
    }

    /// Read one element's leaves at the head of `rest`, handing each one's
    /// region and raw text to `leaf`, which parses it. Returns the bytes
    /// read, through the last leaf's pad; `None` at the first byte that
    /// differs from the skeleton or lies past `rest`.
    pub(crate) fn read<'r>(
        &self,
        rest: &'r [u8],
        mut leaf: impl FnMut(Region, &'r [u8]) -> Result<(), DeserError>,
    ) -> Result<Option<usize>, DeserError> {
        let (mut at, mut from) = (0, 0);
        for &(open_end, close_end, kind) in &self.leaves {
            let (open, close) = (&self.tags[from..open_end], &self.tags[open_end..close_end]);
            from = close_end;
            let read = rest[at..].strip_prefix(open).and_then(|body| {
                let text = text_end(body)?;
                Some((&body[..text], leaf_width(body, text, close)?))
            });
            let Some((text, width)) = read else {
                return Ok(None);
            };
            let skeleton = open.len();
            let region = Region {
                skeleton,
                width,
                kind,
            };
            leaf(region, text)?;
            at += skeleton + width;
        }
        Ok(Some(at))
    }
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
    regions: Vec<Region>,
    arrays: Vec<ArrayRegion>,
    /// Where the last recorded region ended.
    mapped_to: usize,
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
        regions: p.regions,
        arrays: p.arrays,
    })
}

impl<'a> Parser<'a> {
    pub(crate) fn new(bytes: &'a [u8], mapped: bool) -> Self {
        Parser {
            cur: Cursor::new(bytes),
            mapped,
            regions: Vec::new(),
            arrays: Vec::new(),
            mapped_to: 0,
        }
    }

    /// Record the region that starts at `start` and runs through `tail_end`
    /// and the whitespace after it, up to the next `<`.
    fn record(&mut self, start: usize, tail_end: usize, kind: RegionKind) {
        let input = self.cur.input();
        let mut end = tail_end.min(input.len());
        while end < input.len() && input[end] != b'<' && input[end].is_ascii_whitespace() {
            end += 1;
        }
        self.regions.push(Region {
            skeleton: start - self.mapped_to,
            width: end - start,
            kind,
        });
        self.mapped_to = end;
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
                self.scalar_body(pidx, leaf_counter, name, *kind, tag.tag_end)
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
        let close_end = match self.cur.next()? {
            Event::End { name: n, range } => {
                if &self.cur.input()[n.clone()] != name.as_bytes() {
                    return Err(DeserError::shape(format!(
                        "expected </{name}>, found </{}>",
                        self.name_text(&n)
                    )));
                }
                range.end
            }
            other => Err(DeserError::shape(format!(
                "expected </{name}>, found {other:?}"
            )))?,
        };
        let raw = &self.cur.input()[text_range.clone()];
        let value = parse_scalar(raw, kind, name)?;
        if self.mapped {
            let slot = LeafSlot {
                param: pidx,
                leaf: *leaf_counter,
            };
            self.record(open_end, close_end, RegionKind::Leaf { slot, kind });
        }
        *leaf_counter += 1;
        Ok(value)
    }

    fn array(&mut self, pidx: u32, name: &str, item: &TypeDesc) -> Result<Value, DeserError> {
        let tag = self.expect_start(name)?;
        // Declared length from SOAP-ENC:arrayType="T[N]".
        let len_text = self.array_len_text(&tag)?;
        let declared = parse_array_len(&self.cur.input()[len_text.clone()])?;
        // The length is a region only in the canonical form the walk can
        // re-read: `]`, the closing quote and `>` end the open tag. Any
        // other array stays skeleton, so its length cannot change
        // differentially.
        let leaves_per_elem = item.leaves_per_instance();
        let array =
            (self.mapped && len_text.end + 3 == tag.tag_end && leaves_per_elem > 0).then(|| {
                let array = self.arrays.len();
                self.record(len_text.start, tag.tag_end, RegionKind::ArrayLen(array));
                self.arrays.push(ArrayRegion {
                    param: pidx,
                    len_at: self.regions.len() - 1,
                    leaves_per_elem,
                    elems: declared,
                    elem_close: 0,
                });
                array
            });

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
                Event::End { name: n, range } => {
                    if &self.cur.input()[n.clone()] != name.as_bytes() {
                        return Err(DeserError::shape(format!(
                            "expected </{name}>, found </{}>",
                            self.name_text(&n)
                        )));
                    }
                    if let Some(array) = array {
                        self.arrays[array].elem_close = range.start - self.mapped_to;
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

    /// The skeleton of the one element a mapped parser has read from the
    /// start of its input.
    pub(crate) fn element_skeleton(&self) -> Option<ElementSkeleton> {
        let input = self.cur.input();
        ElementSkeleton::learn(input, (0, 0), &self.regions, &input[self.mapped_to..])
    }

    pub(crate) fn array_len_attr(&self, tag: &StartTag) -> Result<usize, DeserError> {
        parse_array_len(&self.cur.input()[self.array_len_text(tag)?])
    }

    /// Byte range of the `N` in the tag's `SOAP-ENC:arrayType="T[N]"`.
    fn array_len_text(&self, tag: &StartTag) -> Result<Range<usize>, DeserError> {
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
                return Ok(a.value.start + open + 1..a.value.start + close);
            }
        }
        Err(DeserError::shape(
            "array element missing SOAP-ENC:arrayType",
        ))
    }
}

pub(crate) struct StartTag {
    attrs: Vec<bsoap_xml::pull::Attr>,
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

/// Parse the `N` of `arrayType="T[N]"`.
pub(crate) fn parse_array_len(text: &[u8]) -> Result<usize, DeserError> {
    let n = lex::parse_i32(lex::trim_xml_ws(text)).map_err(|err| DeserError::Lexical {
        at: "arrayType length".into(),
        err,
    })?;
    usize::try_from(n).map_err(|_| DeserError::shape("arrayType length is negative"))
}

/// Parse one scalar's raw text (entities unresolved) as `kind`.
pub(crate) fn parse_scalar(raw: &[u8], kind: ScalarKind, at: &str) -> Result<Value, DeserError> {
    let lexical_err = |err| DeserError::Lexical {
        at: at.to_owned(),
        err,
    };
    Ok(match kind {
        ScalarKind::Int => Value::Int(lex::parse_i32(raw).map_err(lexical_err)?),
        ScalarKind::Long => Value::Long(lex::parse_i64(raw).map_err(lexical_err)?),
        ScalarKind::Double => Value::Double(lex::parse_f64(raw).map_err(lexical_err)?),
        ScalarKind::Bool => Value::Bool(lex::parse_bool(raw).map_err(lexical_err)?),
        ScalarKind::Str => {
            let unescaped = unescape(raw)?;
            Value::Str(
                String::from_utf8(unescaped.into_owned())
                    .map_err(|_| DeserError::shape(format!("non-UTF-8 string at {at}")))?,
            )
        }
    })
}

/// The close tag in a leaf region's old bytes, `text</name>pad`. The oracle
/// checked it against the open tag when the reference was parsed. The
/// region holds one `<`; `guess` is where to look for it first — after a
/// same-width rewrite it sits where the new one does.
pub(crate) fn close_tag(old: &[u8], guess: usize) -> Option<&[u8]> {
    let lt = match old.get(guess) {
        Some(b'<') => guess,
        _ => old.iter().position(|&b| b == b'<')?,
    };
    let tail = &old[lt..];
    Some(&tail[..=tail.iter().position(|&b| b == b'>')?])
}

/// Where a leaf's text ends: the first `<` in `rest`. Eight bytes at a
/// time, since every leaf re-read scans its text: in a word XOR `<<<<<<<<`
/// a `<` is a zero byte, and the lowest byte the zero-byte test flags is
/// the first zero.
pub(crate) fn text_end(rest: &[u8]) -> Option<usize> {
    const ONES: u64 = u64::from_le_bytes([0x01; 8]);
    const HIGH: u64 = u64::from_le_bytes([0x80; 8]);
    const LT: u64 = u64::from_le_bytes([b'<'; 8]);
    let words = rest.chunks_exact(8);
    let tail = words.remainder();
    for (i, word) in words.enumerate() {
        let x = u64::from_le_bytes(word.try_into().expect("chunks of eight")) ^ LT;
        let zeros = x.wrapping_sub(ONES) & !x & HIGH;
        if zeros != 0 {
            return Some(8 * i + (zeros.trailing_zeros() / 8) as usize);
        }
    }
    let at = rest.len() - tail.len();
    tail.iter().position(|&b| b == b'<').map(|p| at + p)
}

/// Width of the leaf region `text</name>pad<` at the head of `rest`, where
/// `text` bytes come before the first `<` and `close` is the close tag to
/// expect; `None` if the bytes do not have that form. The text is then
/// the caller's to `parse_scalar`: its lexical error is the one error a
/// re-read raises — the full parse meets the same text in the same place.
pub(crate) fn leaf_width(rest: &[u8], text: usize, close: &[u8]) -> Option<usize> {
    if !rest[text..].starts_with(close) {
        return None;
    }
    padded_width(rest, text + close.len())
}

/// Width of a region whose content ends at `end`: through the whitespace
/// pad, which must run up to a `<`.
pub(crate) fn padded_width(rest: &[u8], end: usize) -> Option<usize> {
    let pad = rest[end..]
        .iter()
        .take_while(|b| b.is_ascii_whitespace())
        .count();
    (rest.get(end + pad) == Some(&b'<')).then_some(end + pad)
}

/// Where one leaf's value lives in an argument list: an element of an
/// unboxed array, or a scalar [`Value`] of its own.
pub(crate) enum LeafMut<'a> {
    /// An element of a [`Value::DoubleArray`].
    Double(&'a mut f64),
    /// An element of a [`Value::IntArray`].
    Int(&'a mut i32),
    /// A scalar parameter, struct field, or field of a struct element.
    Scalar(&'a mut Value),
}

/// Find the place `slot` names, using the values' own shape first (an
/// unboxed array needs nothing else) and the operation's type structure
/// for the rest. `None` when the slot points outside the argument list.
pub(crate) fn leaf_mut<'a>(
    args: &'a mut [Value],
    op: &OpDesc,
    slot: LeafSlot,
) -> Option<LeafMut<'a>> {
    let pidx = slot.param as usize;
    let mut n = slot.leaf as usize;
    match args.get_mut(pidx)? {
        Value::DoubleArray(v) => v.get_mut(n).map(LeafMut::Double),
        Value::IntArray(v) => v.get_mut(n).map(LeafMut::Int),
        Value::Array(elems) => {
            let TypeDesc::Array { item } = &op.params.get(pidx)?.desc else {
                return None;
            };
            let lpe = item.leaves_per_instance().max(1);
            let elem = elems.get_mut(n / lpe)?;
            n %= lpe;
            nth_scalar_mut(elem, item, &mut n).map(LeafMut::Scalar)
        }
        plain => nth_scalar_mut(plain, &op.params.get(pidx)?.desc, &mut n).map(LeafMut::Scalar),
    }
}

/// Write a re-parsed scalar into the argument list at `slot`.
pub(crate) fn apply_leaf(
    args: &mut [Value],
    op: &OpDesc,
    slot: LeafSlot,
    value: Value,
) -> Result<(), DeserError> {
    match (leaf_mut(args, op, slot), value) {
        (Some(LeafMut::Double(t)), Value::Double(x)) => *t = x,
        (Some(LeafMut::Int(t)), Value::Int(x)) => *t = x,
        (Some(LeafMut::Scalar(t)), value) => *t = value,
        (Some(_), _) => return Err(DeserError::shape("kind drift in leaf apply")),
        (None, _) => return Err(DeserError::shape("leaf slot out of range")),
    }
    Ok(())
}

/// Rebuild one `desc`-shaped value from its scalar leaves in document
/// order; `None` if they run out.
pub(crate) fn value_from_leaves(
    desc: &TypeDesc,
    leaves: &mut impl Iterator<Item = Value>,
) -> Option<Value> {
    match desc {
        TypeDesc::Scalar(_) => leaves.next(),
        TypeDesc::Struct { fields, .. } => fields
            .iter()
            .map(|(_, fdesc)| value_from_leaves(fdesc, leaves))
            .collect::<Option<Vec<_>>>()
            .map(Value::Struct),
        TypeDesc::Array { .. } => None,
    }
}

/// Cut the array `target` back to `keep` elements, then append `elements`.
pub(crate) fn resize_array(
    target: &mut Value,
    keep: usize,
    elements: Vec<Value>,
) -> Result<(), DeserError> {
    let drift = || DeserError::shape("array value variant drift");
    match target {
        Value::DoubleArray(v) => {
            v.truncate(keep);
            for e in elements {
                let Value::Double(x) = e else {
                    return Err(drift());
                };
                v.push(x);
            }
        }
        Value::IntArray(v) => {
            v.truncate(keep);
            for e in elements {
                let Value::Int(x) = e else {
                    return Err(drift());
                };
                v.push(x);
            }
        }
        Value::Array(v) => {
            v.truncate(keep);
            v.extend(elements);
        }
        _ => return Err(drift()),
    }
    Ok(())
}

/// The `n`th scalar leaf (document order) inside a non-array value;
/// `n` is counted down past the leaves that come before it.
fn nth_scalar_mut<'a>(
    target: &'a mut Value,
    desc: &TypeDesc,
    n: &mut usize,
) -> Option<&'a mut Value> {
    match (desc, target) {
        (TypeDesc::Scalar(_), t) => {
            if *n == 0 {
                return Some(t);
            }
            *n -= 1;
            None
        }
        (TypeDesc::Struct { fields, .. }, Value::Struct(vals)) => fields
            .iter()
            .zip(vals)
            .find_map(|((_, fdesc), fval)| nth_scalar_mut(fval, fdesc, n)),
        _ => None,
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
        let text = |range: Range<usize>| std::str::from_utf8(&bytes[range]).unwrap();
        let mut ranges = mapped.ranges();
        // The array's length field comes first: `N]">` and its pad.
        let (range, kind) = ranges.next().unwrap();
        assert_eq!(kind, RegionKind::ArrayLen(0));
        assert!(text(range.clone()).starts_with("3]\">"), "{}", text(range));
        for (i, (range, kind)) in ranges.enumerate() {
            let region = text(range.clone());
            assert_eq!(region, format!("{i}.5</item>"));
            // Every region ends where the next tag starts.
            assert_eq!(bytes[range.end], b'<');
            let slot = LeafSlot {
                param: 0,
                leaf: i as u32,
            };
            let leaf = RegionKind::Leaf {
                slot,
                kind: ScalarKind::Double,
            };
            assert_eq!(kind, leaf);
        }
        assert_eq!(mapped.regions.len(), 4);
        assert_eq!(
            mapped.arrays,
            [ArrayRegion {
                param: 0,
                len_at: 0,
                leaves_per_elem: 1,
                elems: 3,
                elem_close: 0
            }]
        );
    }

    #[test]
    fn non_canonical_array_tag_has_no_length_region() {
        // An attribute after arrayType: the length stays skeleton, so the
        // differential walk can never resize this array.
        let op = doubles_op();
        let bytes = "<SOAP-ENV:Envelope><SOAP-ENV:Body><ns1:send>\
             <arr SOAP-ENC:arrayType=\"xsd:double[1]\" id=\"a\"><item>1.5</item></arr>\
             </ns1:send></SOAP-ENV:Body></SOAP-ENV:Envelope>";
        let mapped = parse_envelope_mapped(bytes.as_bytes(), &op).unwrap();
        assert_eq!(mapped.args, [Value::DoubleArray(vec![1.5])]);
        assert!(mapped.arrays.is_empty());
        assert_eq!(mapped.regions.len(), 1);
    }

    #[test]
    fn mapped_mio_slots() {
        let op = OpDesc::single("m", "urn:x", "a", TypeDesc::array_of(TypeDesc::mio()));
        let args = vec![Value::Array(vec![mio(1, 2, 3.5), mio(4, 5, 6.5)])];
        let bytes = build_bytes(&op, &args);
        let mapped = parse_envelope_mapped(&bytes, &op).unwrap();
        assert_eq!(mapped.regions.len(), 7);
        let slot = LeafSlot { param: 0, leaf: 5 };
        let kind = ScalarKind::Double;
        assert_eq!(mapped.regions[6].kind, RegionKind::Leaf { slot, kind });
        // Struct elements close with `</item>` before the array does.
        assert_eq!(mapped.arrays[0].elem_close, "</item>".len());
        assert_eq!(mapped.arrays[0].leaves(), 1..7);
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
    fn text_end_is_the_first_lt() {
        // Fillers one bit or one step from `<`, and zero, must not match.
        for fill in [b'<' | 0x80, b'<' + 1, b'<' - 1, 0] {
            for len in 0..20 {
                let mut rest = vec![fill; len];
                assert_eq!(text_end(&rest), None);
                for at in (0..len).rev() {
                    rest[at] = b'<';
                    assert_eq!(text_end(&rest), Some(at), "{fill:#x} {len} {at}");
                }
            }
        }
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
