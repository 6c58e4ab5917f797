//! Incremental pull-parse of a streamed single-array envelope.
//!
//! The receive-side dual of chunk overlaying (§3.3): where the overlay
//! sender's memory is bounded by one window fragment, the
//! [`StreamingDeserializer`]'s memory is bounded by one *item unit* — it
//! consumes decoded body slices as a transport hands them over (e.g. from
//! `bsoap-transport`'s `ChunkedBodyReader`), emits each array element the
//! moment its closing tag arrives, and never materializes the envelope.
//! Complete units are read straight from the pushed slice; the carry holds
//! only the unit split across a slice boundary (prologue, one `<item>`, or
//! epilogue), and a cap on what it keeps turns a unit that never completes
//! into a typed error instead of unbounded buffering.
//!
//! The oracle — the schema grammar [`parse_envelope`](crate::parse_envelope)
//! runs — reads the first element, and the bytes it accepted become an
//! `ElementSkeleton`: each leaf's open tags (attributes included) and close
//! tag, then the element's trailing close. Every later element is read by
//! it: framing compared byte for byte, each leaf's text scanned to its `<`
//! and read by the oracle's leaf grammar (close tag, pad, `parse_scalar`).
//! That is the differential walk's soundness rule (`diff.rs`): every
//! accepted byte equals one the oracle accepted in the same parser state
//! or is read by the oracle's leaf grammar, so the full parse reads the
//! same values, and a leaf's lexical error is raised only where the full
//! parse meets the same text. The depth scanner is the fallback: at the
//! first byte that differs from the skeleton, that one unit is delimited by
//! tag depth and read by a fresh oracle `Parser`, which decides — a value
//! or a typed error. It relies on serialized text never containing a raw
//! `<`, which this engine (and any conforming XML writer) escapes. It
//! leaves a unit that only whitespace follows yet for the next slice, as
//! the skeleton's pad rule does, so a slice boundary never sends the
//! oracle an element the skeleton would read.
//!
//! Scope matches the overlay sender: operations with exactly one array
//! parameter of scalar or flat-struct items.

use crate::envelope::{parse_scalar, value_from_leaves, ElementSkeleton, Parser};
use crate::error::DeserError;
use bsoap_core::{OpDesc, TypeDesc, Value};

/// Default cap on the carry buffer — the largest prologue, single item,
/// or epilogue the streaming parser will reassemble across slices.
pub const DEFAULT_MAX_CARRY: usize = 1 << 20;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum StreamState {
    /// Waiting for the envelope prologue through the array open tag.
    Prologue,
    /// Emitting `<item>` units until the array close tag.
    Items,
    /// Accumulating the trailing close tags.
    Epilogue,
}

/// Summary returned by [`StreamingDeserializer::finish`].
#[derive(Clone, Copy, Debug)]
pub struct StreamSummary {
    /// Array elements emitted.
    pub items: usize,
    /// Length declared by `SOAP-ENC:arrayType="T[N]"`.
    pub declared: usize,
    /// Largest number of bytes ever held in the carry buffer — the
    /// receiver-side parse-memory bound, flat in array size.
    pub peak_carry_bytes: usize,
}

/// Incremental deserializer for one streamed single-array message.
///
/// Feed body slices with [`push`](Self::push) (any fragmentation — the
/// slices need not align with XML structure), then call
/// [`finish`](Self::finish) once the transport reports the body complete.
/// Each completed array element is handed to the `push` callback as
/// `(index, Value)` in document order.
#[derive(Debug)]
pub struct StreamingDeserializer {
    param_name: String,
    item_desc: TypeDesc,
    state: StreamState,
    carry: Vec<u8>,
    /// Declared array length, known once the prologue parses.
    declared: usize,
    seen: usize,
    max_carry: usize,
    peak_carry: usize,
    /// Tag names the prologue must contain (envelope, body, operation).
    op_tag: String,
    /// `<param`: once it and the `>` after it have arrived, the prologue
    /// is complete enough to parse.
    probe: Vec<u8>,
    /// `</ns1:op>`, the first close tag after the array's.
    op_close: Vec<u8>,
    /// The first element as the oracle read it; later ones are read by it.
    skeleton: Option<ElementSkeleton>,
    /// Leaf values of the struct element being read.
    leaves: Vec<Value>,
}

impl StreamingDeserializer {
    /// Streaming parser for `op`, which must have exactly one array
    /// parameter (the overlay sender's contract).
    pub fn new(op: &OpDesc) -> Result<Self, DeserError> {
        Self::with_max_carry(op, DEFAULT_MAX_CARRY)
    }

    /// [`StreamingDeserializer::new`] with an explicit carry cap: a
    /// prologue, single item, or epilogue that does not complete within
    /// `max_carry` bytes fails instead of buffering further.
    pub fn with_max_carry(op: &OpDesc, max_carry: usize) -> Result<Self, DeserError> {
        let (param, item) = op
            .sole_array()
            .map_err(|e| DeserError::shape(format!("streaming deserialization: {e}")))?;
        let op_tag = format!("ns1:{}", op.name);
        Ok(StreamingDeserializer {
            param_name: param.name.clone(),
            item_desc: item.clone(),
            state: StreamState::Prologue,
            carry: Vec::with_capacity(4096),
            declared: 0,
            seen: 0,
            max_carry: max_carry.max(64),
            peak_carry: 0,
            probe: format!("<{}", param.name).into_bytes(),
            op_close: format!("</{op_tag}>").into_bytes(),
            op_tag,
            skeleton: None,
            leaves: Vec::new(),
        })
    }

    /// Declared array length (`0` until the prologue has parsed).
    pub fn declared_len(&self) -> usize {
        self.declared
    }

    /// Largest carry-buffer residency so far (the parse-memory bound).
    pub fn peak_carry_bytes(&self) -> usize {
        self.peak_carry
    }

    /// Consume the next body slice, invoking `on_item` for every array
    /// element that completes within it.
    ///
    /// Complete units are read straight from `bytes`; only a unit split at
    /// its end is kept, and the cap bounds that remainder, not the slice.
    pub fn push(
        &mut self,
        bytes: &[u8],
        mut on_item: impl FnMut(usize, Value) -> Result<(), DeserError>,
    ) -> Result<(), DeserError> {
        let mut input = bytes;
        // Finish the unit split at the last boundary: move the slice over
        // in doubling steps until it completes, so only that unit is
        // copied.
        while !self.carry.is_empty() && !input.is_empty() {
            let held = self.carry.len();
            let step = input.len().min(held.max(64));
            self.carry.extend_from_slice(&input[..step]);
            let carry = std::mem::take(&mut self.carry);
            let used = self.consume(&carry, &mut on_item);
            self.carry = carry;
            let used = used?;
            if used >= held {
                // What the carry holds past `used` is still in `input`.
                input = &input[used - held..];
                self.carry.clear();
            } else {
                self.carry.drain(..used);
                input = &input[step..];
            }
        }
        if self.carry.is_empty() {
            let used = self.consume(input, &mut on_item)?;
            self.carry.extend_from_slice(&input[used..]);
        }
        if self.carry.len() > self.max_carry {
            return Err(DeserError::shape(
                "streaming carry buffer cap exceeded (unit never completes)",
            ));
        }
        self.peak_carry = self.peak_carry.max(self.carry.len());
        Ok(())
    }

    /// Read every complete unit at the head of `buf`; returns the bytes
    /// used. What is left is a unit still split, or the epilogue.
    fn consume(
        &mut self,
        buf: &[u8],
        on_item: &mut impl FnMut(usize, Value) -> Result<(), DeserError>,
    ) -> Result<usize, DeserError> {
        let mut pos = 0usize;
        loop {
            match self.state {
                StreamState::Prologue => {
                    let Some(end) = self.try_prologue(&buf[pos..])? else {
                        return Ok(pos);
                    };
                    pos += end;
                    self.state = StreamState::Items;
                }
                StreamState::Items => {
                    let rest = &buf[pos..];
                    let Some(start) = rest.iter().position(|&b| !b.is_ascii_whitespace()) else {
                        // All whitespace: consumable, nothing to keep.
                        return Ok(buf.len());
                    };
                    pos += start;
                    let unit = &rest[start..];
                    if looks_like_close(unit, self.param_name.as_bytes()) {
                        // `</param>`: the item run is over.
                        pos += 2 + self.param_name.len() + 1;
                        self.state = StreamState::Epilogue;
                        continue;
                    }
                    let Some((len, value)) = self.item(unit)? else {
                        return Ok(pos);
                    };
                    on_item(self.seen, value)?;
                    self.seen += 1;
                    if self.declared != 0 && self.seen > self.declared {
                        return Err(DeserError::shape(format!(
                            "array {} declares {} elements but streamed more",
                            self.param_name, self.declared
                        )));
                    }
                    pos += len;
                }
                // Kept (bounded by the cap) and validated at finish.
                StreamState::Epilogue => return Ok(pos),
            }
        }
    }

    /// Read the element at the head of `unit`: by the skeleton when its
    /// bytes follow it, else by the depth scan and the oracle. `None` while
    /// the element, or the `<` after it, has not arrived.
    fn item(&mut self, unit: &[u8]) -> Result<Option<(usize, Value)>, DeserError> {
        if let Some(read) = self.by_skeleton(unit)? {
            return Ok(Some(read));
        }
        let Some(len) = find_unit_end(unit)? else {
            return Ok(None);
        };
        // A unit that only whitespace follows yet waits for the next tag,
        // as the skeleton's pad rule makes a scalar element wait.
        if unit[len..].iter().all(u8::is_ascii_whitespace) {
            return Ok(None);
        }
        let mut p = Parser::new(&unit[..len], self.seen == 0);
        let value = p.plain("item", &self.item_desc)?;
        p.expect_eof()?;
        if self.seen == 0 {
            self.skeleton = p.element_skeleton(&self.item_desc);
        }
        Ok(Some((len, value)))
    }

    /// Read the element at the head of `unit` by the first element's
    /// skeleton; `None` at the first byte the skeleton does not account for
    /// (or before one has been learned).
    fn by_skeleton(&mut self, unit: &[u8]) -> Result<Option<(usize, Value)>, DeserError> {
        let Some(skeleton) = &self.skeleton else {
            return Ok(None);
        };
        let (read, value) = match &self.item_desc {
            // A scalar element is its one leaf, and its text parses straight
            // into the element's value: staged through `leaves` it costs a
            // third more per element.
            &TypeDesc::Scalar(kind) => {
                let mut text = None;
                let read = skeleton.read(unit, |_, _, leaf| {
                    text = Some(leaf);
                    Ok(())
                })?;
                let (Some(read), Some(text)) = (read, text) else {
                    return Ok(None);
                };
                (read, parse_scalar(text, kind, "item")?.into())
            }
            desc => {
                let leaves = &mut self.leaves;
                leaves.clear();
                let read = skeleton.read(unit, |_, kind, text| {
                    leaves.push(parse_scalar(text, kind, "item")?.into());
                    Ok(())
                })?;
                let value = value_from_leaves(desc, &mut leaves.drain(..));
                let (Some(read), Some(value)) = (read, value) else {
                    return Ok(None);
                };
                (read, value)
            }
        };
        let trailing = skeleton.trailing();
        if !unit[read..].starts_with(trailing) {
            return Ok(None);
        }
        Ok(Some((read + trailing.len(), value)))
    }

    /// Validate the epilogue and element count once the transport reports
    /// the body complete.
    pub fn finish(self) -> Result<StreamSummary, DeserError> {
        if self.state != StreamState::Epilogue {
            return Err(DeserError::shape("body ended before the array close tag"));
        }
        // Everything after `</param>` must be exactly the operation,
        // body, and envelope close tags (whitespace tolerated).
        let mut rest: &[u8] = &self.carry;
        for tag in [
            &self.op_close[..],
            b"</SOAP-ENV:Body>",
            b"</SOAP-ENV:Envelope>",
        ] {
            rest = expect_tag(rest, tag)?;
        }
        if !rest.iter().all(|b| b.is_ascii_whitespace()) {
            return Err(DeserError::shape("trailing content after envelope close"));
        }
        if self.seen != self.declared {
            return Err(DeserError::shape(format!(
                "array {} declares {} elements but contains {}",
                self.param_name, self.declared, self.seen
            )));
        }
        Ok(StreamSummary {
            items: self.seen,
            declared: self.declared,
            peak_carry_bytes: self.peak_carry,
        })
    }

    /// Try to consume the prologue (everything through the array open
    /// tag) at the head of `buf`. Returns its length when complete.
    ///
    /// The substring probe only decides *when* enough bytes have arrived;
    /// what they must be is decided by the grammar [`parse_envelope`]
    /// runs, over exactly the probed slice. A probe that cuts early (the
    /// parameter name inside a comment, a `>` inside an attribute value)
    /// hands that grammar a truncated slice and is rejected, so this
    /// parser accepts a subset of the oracle's envelopes, never more.
    ///
    /// [`parse_envelope`]: crate::parse_envelope
    fn try_prologue(&mut self, buf: &[u8]) -> Result<Option<usize>, DeserError> {
        let Some(open_at) = find(buf, &self.probe) else {
            return Ok(None);
        };
        let Some(gt) = buf[open_at..].iter().position(|&b| b == b'>') else {
            return Ok(None);
        };
        let prologue = &buf[..open_at + gt + 1];
        let mut p = Parser::new(prologue, false);
        p.expect_start("SOAP-ENV:Envelope")?;
        p.expect_start("SOAP-ENV:Body")?;
        p.expect_start(&self.op_tag)?;
        let tag = p.expect_start(&self.param_name)?;
        // The oracle reads `<arr …/>` as an empty array; items after it
        // would be siblings, not elements.
        if prologue[..tag.tag_end].ends_with(b"/>") {
            return Err(DeserError::shape(format!(
                "array {} is an empty-element tag",
                self.param_name
            )));
        }
        self.declared = p.array_len_attr(&tag)?;
        Ok(Some(tag.tag_end))
    }
}

/// Whether `buf` begins with the complete close tag `</name>`.
fn looks_like_close(buf: &[u8], name: &[u8]) -> bool {
    let need = 2 + name.len() + 1;
    buf.len() >= need
        && buf.starts_with(b"</")
        && &buf[2..2 + name.len()] == name
        && buf[2 + name.len()] == b'>'
}

/// Expect `tag` at the start of `buf` (after optional whitespace);
/// returns the remainder.
fn expect_tag<'a>(buf: &'a [u8], tag: &[u8]) -> Result<&'a [u8], DeserError> {
    let start = buf
        .iter()
        .position(|b| !b.is_ascii_whitespace())
        .unwrap_or(buf.len());
    let rest = &buf[start..];
    if rest.starts_with(tag) {
        Ok(&rest[tag.len()..])
    } else {
        Err(DeserError::shape(format!(
            "epilogue missing {}",
            String::from_utf8_lossy(tag)
        )))
    }
}

/// Length of the complete element starting at `buf[0] == b'<'`, or `None`
/// if the unit is still split across slices. Tag-depth scan: character
/// data never contains a raw `<` (the serializer escapes it), so every
/// `<` opens or closes an element.
fn find_unit_end(buf: &[u8]) -> Result<Option<usize>, DeserError> {
    if buf.first() != Some(&b'<') {
        return Err(DeserError::shape(format!(
            "expected an element, found {:?}",
            String::from_utf8_lossy(&buf[..buf.len().min(16)])
        )));
    }
    let mut depth = 0usize;
    let mut i = 0usize;
    while i < buf.len() {
        if buf[i] != b'<' {
            i += 1;
            continue;
        }
        if i + 1 >= buf.len() {
            return Ok(None);
        }
        let closing = buf[i + 1] == b'/';
        let Some(gt) = buf[i..].iter().position(|&b| b == b'>') else {
            return Ok(None);
        };
        let gt = i + gt;
        if closing {
            depth = depth
                .checked_sub(1)
                .ok_or_else(|| DeserError::shape("unbalanced close tag in array item"))?;
            if depth == 0 {
                return Ok(Some(gt + 1));
            }
        } else {
            depth += 1;
        }
        i = gt + 1;
    }
    Ok(None)
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    if needle.len() > haystack.len() {
        return None;
    }
    haystack.windows(needle.len()).position(|w| w == needle)
}
