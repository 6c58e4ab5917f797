//! Schema-directed envelope deserialization.
//!
//! [`parse_envelope`] turns the bytes of a SOAP 1.1 call into the argument
//! [`Value`]s the operation declares. [`parse_envelope_mapped`] does the
//! same while recording the message's *regions* — the byte spans a sender
//! rewrites between two messages of one shape — which is the structure the
//! differential deserializer (§6) walks.
//!
//! The map holds each region's start and end offset as two `u32`s, 8 bytes
//! a region (a message of 4 GiB or more is not mapped). What a region
//! holds follows from its index, the array table, each parameter's first
//! leaf and the operation's [`LeafPaths`]. Two kinds of region exist:
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

/// What a region holds.
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

/// Where one region lies in its message, as `u32` offsets: a message they
/// cannot address is not mapped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Span {
    pub(crate) start: u32,
    pub(crate) end: u32,
}

impl Span {
    /// `start..end`; `None` past `u32::MAX`.
    pub(crate) fn new(start: usize, end: usize) -> Option<Span> {
        let (start, end) = (start.try_into().ok()?, end.try_into().ok()?);
        Some(Span { start, end })
    }

    pub(crate) fn start(self) -> usize {
        self.start as usize
    }

    pub(crate) fn end(self) -> usize {
        self.end as usize
    }
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
/// the bytes it was built from.
#[derive(Clone, Debug)]
pub struct MappedMessage {
    pub(crate) args: Vec<Value>,
    /// Regions in document order, parsed to fit: a reference keeps them.
    pub(crate) spans: Vec<Span>,
    /// Resizable arrays in document order.
    pub(crate) arrays: Vec<ArrayRegion>,
    /// Per parameter, the index of its first leaf region.
    pub(crate) params: Vec<u32>,
}

impl MappedMessage {
    /// Parsed argument values.
    pub fn args(&self) -> &[Value] {
        &self.args
    }

    /// Every region with its absolute byte range, in document order;
    /// `paths` are the operation's.
    pub fn ranges<'a>(
        &'a self,
        paths: &'a LeafPaths,
    ) -> impl Iterator<Item = (Range<usize>, RegionKind)> + 'a {
        let spans = self.spans.iter().enumerate();
        spans.map(|(i, s)| (s.start()..s.end(), self.kind(i, paths)))
    }

    /// What region `i` holds: an array's length field, or a leaf of the
    /// last parameter whose leaves start at or before it.
    pub(crate) fn kind(&self, i: usize, paths: &LeafPaths) -> RegionKind {
        // Few parameters and fewer arrays: scans beat searches.
        if let Some(array) = self.arrays.iter().position(|a| a.len_at == i) {
            return RegionKind::ArrayLen(array);
        }
        let param = self.params.iter().rposition(|&first| first as usize <= i);
        let param = param.expect("a leaf region lies in a parameter");
        let slot = LeafSlot {
            param: param as u32,
            leaf: (i - self.params[param] as usize) as u32,
        };
        let kind = paths.kind(slot);
        RegionKind::Leaf { slot, kind }
    }

    /// Leaf regions among `from..to`: all but the arrays' length regions.
    pub(crate) fn leaves_between(&self, from: usize, to: usize) -> usize {
        let lengths = |i: usize| self.arrays.partition_point(|a| a.len_at < i);
        (to - from) - (lengths(to) - lengths(from))
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
    /// its kind.
    leaves: Vec<(usize, usize, ScalarKind)>,
}

impl ElementSkeleton {
    /// Learn the element whose leaf regions are `leaves`, the first one's
    /// skeleton starting at `bytes[at]` — its first `skip` bytes close the
    /// element before — and that `trailing` closes. `None` if the regions
    /// do not lie in `bytes` or one holds no close tag.
    pub(crate) fn learn(
        bytes: &[u8],
        (mut at, mut skip): (usize, usize),
        leaves: impl IntoIterator<Item = (Span, ScalarKind)>,
        trailing: &[u8],
    ) -> Option<Self> {
        let (mut tags, mut learned) = (Vec::new(), Vec::new());
        for (span, kind) in leaves {
            tags.extend_from_slice(bytes.get(at + skip..span.start())?);
            let open_end = tags.len();
            tags.extend_from_slice(close_tag(bytes.get(span.start()..span.end())?, 0)?);
            learned.push((open_end, tags.len(), kind));
            (at, skip) = (span.end(), 0);
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
    /// region in `rest`, kind and raw text to `leaf`, which parses it.
    /// Returns the bytes read, through the last leaf's pad; `None` at the
    /// first byte that differs from the skeleton or lies past `rest`.
    pub(crate) fn read<'r>(
        &self,
        rest: &'r [u8],
        mut leaf: impl FnMut(Range<usize>, ScalarKind, &'r [u8]) -> Result<(), DeserError>,
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
            let start = at + open.len();
            leaf(start..start + width, kind, text)?;
            at = start + width;
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
    /// Whether to record the region map: asked for, and every offset of
    /// the input fits a [`Span`].
    mapped: bool,
    spans: Vec<Span>,
    arrays: Vec<ArrayRegion>,
    params: Vec<u32>,
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
    p.spans.shrink_to_fit();
    p.arrays.shrink_to_fit();
    Ok(MappedMessage {
        args,
        spans: p.spans,
        arrays: p.arrays,
        params: p.params,
    })
}

impl<'a> Parser<'a> {
    pub(crate) fn new(bytes: &'a [u8], mapped: bool) -> Self {
        Parser {
            cur: Cursor::new(bytes),
            mapped: mapped && Span::new(0, bytes.len()).is_some(),
            spans: Vec::new(),
            arrays: Vec::new(),
            params: Vec::new(),
            mapped_to: 0,
        }
    }

    /// Record the region that starts at `start` and runs through `tail_end`
    /// and the whitespace after it, up to the next `<`.
    fn record(&mut self, start: usize, tail_end: usize) {
        let input = self.cur.input();
        let mut end = tail_end.min(input.len());
        while end < input.len() && input[end] != b'<' && input[end].is_ascii_whitespace() {
            end += 1;
        }
        self.spans.extend(Span::new(start, end));
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
                self.first_leaf();
                self.plain(name, desc)
            }
        }
    }

    /// The parameter about to be read has its first leaf region next.
    fn first_leaf(&mut self) {
        if self.mapped {
            self.params.push(self.spans.len() as u32);
        }
    }

    /// Parse a scalar or struct element named `name`.
    pub(crate) fn plain(&mut self, name: &str, desc: &TypeDesc) -> Result<Value, DeserError> {
        match desc {
            TypeDesc::Scalar(kind) => {
                let tag = self.expect_start(name)?;
                self.scalar_body(name, *kind, tag.tag_end)
            }
            TypeDesc::Struct { fields, .. } => {
                self.expect_start(name)?;
                let mut vals = Vec::with_capacity(fields.len());
                for (fname, fdesc) in fields {
                    vals.push(self.plain(fname, fdesc)?);
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
        let value = parse_scalar(raw, kind, name)?.into();
        if self.mapped {
            self.record(open_end, close_end);
        }
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
                self.record(len_text.start, tag.tag_end);
                self.arrays.push(ArrayRegion {
                    param: pidx,
                    len_at: self.spans.len() - 1,
                    leaves_per_elem,
                    elems: declared,
                    elem_close: 0,
                });
                array
            });
        self.first_leaf();
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
                            out.push(self.scalar_body("item", *kind, range.end)?)?;
                        }
                        TypeDesc::Struct { fields, .. } => {
                            let mut vals = Vec::with_capacity(fields.len());
                            for (fname, fdesc) in fields {
                                vals.push(self.plain(fname, fdesc)?);
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
    /// start of its input, whose leaves are `item`'s.
    pub(crate) fn element_skeleton(&self, item: &TypeDesc) -> Option<ElementSkeleton> {
        let input = self.cur.input();
        let kinds = leaves(item).into_iter().map(|(kind, _)| kind);
        let leaves = self.spans.iter().copied().zip(kinds);
        ElementSkeleton::learn(input, (0, 0), leaves, &input[self.mapped_to..])
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

/// One scalar leaf's value: what a re-read stages, without a [`Value`]'s
/// room for containers.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Scalar {
    Int(i32),
    Long(i64),
    Double(f64),
    Bool(bool),
    Str(String),
}

impl From<Scalar> for Value {
    fn from(scalar: Scalar) -> Value {
        match scalar {
            Scalar::Int(x) => Value::Int(x),
            Scalar::Long(x) => Value::Long(x),
            Scalar::Double(x) => Value::Double(x),
            Scalar::Bool(x) => Value::Bool(x),
            Scalar::Str(x) => Value::Str(x),
        }
    }
}

/// Parse one scalar's raw text (entities unresolved) as `kind`.
pub(crate) fn parse_scalar(raw: &[u8], kind: ScalarKind, at: &str) -> Result<Scalar, DeserError> {
    let parsed = match kind {
        ScalarKind::Int => lex::parse_i32(raw).map(Scalar::Int),
        ScalarKind::Long => lex::parse_i64(raw).map(Scalar::Long),
        ScalarKind::Double => lex::parse_f64(raw).map(Scalar::Double),
        ScalarKind::Bool => lex::parse_bool(raw).map(Scalar::Bool),
        ScalarKind::Str => {
            let unescaped = unescape(raw)?.into_owned();
            return String::from_utf8(unescaped)
                .map(Scalar::Str)
                .map_err(|_| DeserError::shape(format!("non-UTF-8 string at {at}")));
        }
    };
    parsed.map_err(|err| lexical(at, err))
}

/// A leaf's lexical error, built only when there is one.
#[cold]
fn lexical(at: &str, err: lex::ParseError) -> DeserError {
    DeserError::Lexical {
        at: at.to_owned(),
        err,
    }
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

impl LeafMut<'_> {
    /// Whether the place holds `scalar`'s kind; with `write`, put it there.
    pub(crate) fn store(self, scalar: Scalar, write: bool) -> bool {
        fn set<T>(place: &mut T, x: T, write: bool) -> bool {
            if write {
                *place = x;
            }
            true
        }
        match (self, scalar) {
            (LeafMut::Double(t) | LeafMut::Scalar(Value::Double(t)), Scalar::Double(x)) => {
                set(t, x, write)
            }
            (LeafMut::Int(t) | LeafMut::Scalar(Value::Int(t)), Scalar::Int(x)) => set(t, x, write),
            (LeafMut::Scalar(Value::Long(t)), Scalar::Long(x)) => set(t, x, write),
            (LeafMut::Scalar(Value::Bool(t)), Scalar::Bool(x)) => set(t, x, write),
            (LeafMut::Scalar(Value::Str(t)), Scalar::Str(x)) => set(t, x, write),
            _ => false,
        }
    }
}

/// Where every leaf of an operation's arguments lives and what it holds,
/// worked out once per operation (DESIGN §3.16): slot `leaf` of a
/// parameter whose instance — the value, or one array element — holds
/// `per` leaves is leaf `leaf % per` of instance `leaf / per`, reached by
/// its field path. Flat and nested structs take the one rule, and no leaf
/// is searched for.
#[derive(Clone, Debug, Default)]
pub struct LeafPaths {
    /// Per parameter, per leaf of one instance: its kind and field
    /// indices, outermost first.
    params: Vec<Vec<(ScalarKind, Vec<u32>)>>,
}

/// Each leaf of one `desc`-shaped instance in document order: its kind and
/// field path.
pub(crate) fn leaves(desc: &TypeDesc) -> Vec<(ScalarKind, Vec<u32>)> {
    let field = |(f, (_, desc)): (u32, &(String, TypeDesc))| {
        let leaves = leaves(desc).into_iter();
        leaves.map(move |(kind, path)| (kind, [vec![f], path].concat()))
    };
    match desc {
        TypeDesc::Scalar(kind) => vec![(*kind, Vec::new())],
        TypeDesc::Struct { fields, .. } => (0..).zip(fields).flat_map(field).collect(),
        TypeDesc::Array { item } => leaves(item),
    }
}

impl LeafPaths {
    /// The table of `op`'s parameters.
    pub fn of(op: &OpDesc) -> Self {
        let params = op.params.iter().map(|p| leaves(&p.desc)).collect();
        LeafPaths { params }
    }

    /// The kind of the leaf `slot` names, which lies in the operation.
    pub(crate) fn kind(&self, slot: LeafSlot) -> ScalarKind {
        let leaves = &self.params[slot.param as usize];
        leaves[slot.leaf as usize % leaves.len()].0
    }

    /// The kinds of one instance's leaves of parameter `param`.
    pub(crate) fn kinds(&self, param: u32) -> impl Iterator<Item = ScalarKind> + '_ {
        self.params[param as usize].iter().map(|leaf| leaf.0)
    }

    /// The place `slot` names in `args`; `None` outside them.
    pub(crate) fn leaf_mut<'a>(
        &self,
        args: &'a mut [Value],
        slot: LeafSlot,
    ) -> Option<LeafMut<'a>> {
        let paths = self.params.get(slot.param as usize)?;
        let n = slot.leaf as usize;
        let (mut place, leaf) = match args.get_mut(slot.param as usize)? {
            Value::DoubleArray(v) => return v.get_mut(n).map(LeafMut::Double),
            Value::IntArray(v) => return v.get_mut(n).map(LeafMut::Int),
            Value::Array(elems) => (elems.get_mut(n.checked_div(paths.len())?)?, n % paths.len()),
            plain => (plain, n),
        };
        for &f in &paths.get(leaf)?.1 {
            let Value::Struct(fields) = place else {
                return None;
            };
            place = fields.get_mut(f as usize)?;
        }
        Some(LeafMut::Scalar(place))
    }
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

/// Heap bytes below `values`: every `Vec` and `String` they own, at its
/// capacity.
pub(crate) fn value_bytes(values: &[Value]) -> usize {
    let value = |v: &Value| match v {
        Value::Str(s) => s.capacity(),
        Value::Struct(vs) | Value::Array(vs) => {
            vs.capacity() * size_of::<Value>() + value_bytes(vs)
        }
        Value::DoubleArray(xs) => xs.capacity() * size_of::<f64>(),
        Value::IntArray(xs) => xs.capacity() * size_of::<i32>(),
        Value::Int(_) | Value::Long(_) | Value::Double(_) | Value::Bool(_) => 0,
    };
    values.iter().map(value).sum()
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
        let paths = LeafPaths::of(&op);
        let mut ranges = mapped.ranges(&paths);
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
        assert_eq!(mapped.spans.len(), 4);
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
        assert_eq!(mapped.spans.len(), 1);
    }

    #[test]
    fn mapped_mio_slots() {
        let op = OpDesc::single("m", "urn:x", "a", TypeDesc::array_of(TypeDesc::mio()));
        let args = vec![Value::Array(vec![mio(1, 2, 3.5), mio(4, 5, 6.5)])];
        let bytes = build_bytes(&op, &args);
        let mapped = parse_envelope_mapped(&bytes, &op).unwrap();
        assert_eq!(mapped.spans.len(), 7);
        let slot = LeafSlot { param: 0, leaf: 5 };
        let kind = ScalarKind::Double;
        let paths = LeafPaths::of(&op);
        assert_eq!(mapped.kind(6, &paths), RegionKind::Leaf { slot, kind });
        // Struct elements close with `</item>` before the array does.
        assert_eq!(mapped.arrays[0].elem_close, "</item>".len());
        assert_eq!(mapped.arrays[0].leaves(), 1..7);
    }

    #[test]
    fn leaf_paths_find_array_struct_and_nested_leaves() {
        let nested = TypeDesc::Struct {
            name: "outer".into(),
            fields: vec![
                ("tag".into(), TypeDesc::Scalar(ScalarKind::Str)),
                ("cell".into(), TypeDesc::mio()),
            ],
        };
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
                ParamDesc {
                    name: "n".into(),
                    desc: TypeDesc::array_of(nested),
                },
            ],
        );
        let outer = |tag: &str, cell| Value::Struct(vec![Value::Str(tag.into()), cell]);
        let mut args = vec![
            Value::DoubleArray(vec![1.0, 2.0]),
            mio(1, 2, 3.0),
            Value::Array(vec![outer("a", mio(1, 2, 0.5)), outer("b", mio(3, 4, 1.5))]),
        ];
        let paths = LeafPaths::of(&op);
        let mut store = |param, leaf, scalar| {
            let place = paths.leaf_mut(&mut args, LeafSlot { param, leaf });
            place.is_some_and(|place| place.store(scalar, true))
        };
        assert!(store(0, 1, Scalar::Double(9.0)));
        assert!(store(1, 2, Scalar::Double(7.5)));
        assert!(store(1, 0, Scalar::Int(42)));
        // Element 1's fourth leaf: `cell.v`, two fields down.
        assert!(store(2, 7, Scalar::Double(-2.5)));
        assert!(store(2, 4, Scalar::Str("c".into())));
        // Out of range, or another kind: nothing lands.
        assert!(!store(0, 5, Scalar::Double(0.0)));
        assert!(!store(2, 8, Scalar::Int(0)));
        assert!(!store(2, 1, Scalar::Double(0.0)));
        assert_eq!(
            args,
            [
                Value::DoubleArray(vec![1.0, 9.0]),
                mio(42, 2, 7.5),
                Value::Array(vec![
                    outer("a", mio(1, 2, 0.5)),
                    outer("c", mio(3, 4, -2.5))
                ]),
            ]
        );
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
