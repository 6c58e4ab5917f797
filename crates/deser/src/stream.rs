//! Incremental pull-parse of a streamed single-array envelope.
//!
//! The receive-side dual of chunk overlaying (§3.3): where the overlay
//! sender's memory is bounded by one window fragment, the
//! [`StreamingDeserializer`]'s memory is bounded by one *item unit* — it
//! consumes decoded body slices as a transport hands them over (e.g. from
//! `bsoap-transport`'s `ChunkedBodyReader`), emits each array element the
//! moment its closing tag arrives, and never materializes the envelope.
//! The carry buffer holds only the bytes of whichever syntactic unit is
//! currently split across slices (prologue, one `<item>`, or epilogue),
//! and a hard cap turns a unit that never completes into a typed error
//! instead of unbounded buffering.
//!
//! Scope matches the overlay sender: operations with exactly one array
//! parameter of scalar or flat-struct items. The depth scanner that
//! delimits item units relies on serialized text never containing a raw
//! `<` — guaranteed for output of this engine (and any conforming XML
//! writer), which escapes `<` in character data.

use crate::envelope::Parser;
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
        Ok(StreamingDeserializer {
            param_name: param.name.clone(),
            item_desc: item.clone(),
            state: StreamState::Prologue,
            carry: Vec::with_capacity(4096),
            declared: 0,
            seen: 0,
            max_carry: max_carry.max(64),
            peak_carry: 0,
            op_tag: format!("ns1:{}", op.name),
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
    pub fn push(
        &mut self,
        bytes: &[u8],
        mut on_item: impl FnMut(usize, Value) -> Result<(), DeserError>,
    ) -> Result<(), DeserError> {
        if self.carry.len() + bytes.len() > self.max_carry {
            return Err(DeserError::shape(
                "streaming carry buffer cap exceeded (unit never completes)",
            ));
        }
        self.carry.extend_from_slice(bytes);
        self.peak_carry = self.peak_carry.max(self.carry.len());
        let mut pos = 0usize;
        loop {
            match self.state {
                StreamState::Prologue => {
                    let Some(end) = self.try_prologue(pos)? else {
                        break;
                    };
                    pos = end;
                    self.state = StreamState::Items;
                }
                StreamState::Items => {
                    let rest = &self.carry[pos..];
                    let start = match rest.iter().position(|&b| !b.is_ascii_whitespace()) {
                        Some(p) => p,
                        None => {
                            // All whitespace: consumable, nothing to keep.
                            pos = self.carry.len();
                            break;
                        }
                    };
                    let unit = &rest[start..];
                    if looks_like_close(unit, self.param_name.as_bytes()) {
                        // `</param>`: the item run is over.
                        pos += start + 2 + self.param_name.len() + 1;
                        self.state = StreamState::Epilogue;
                        continue;
                    }
                    match find_unit_end(unit)? {
                        Some(len) => {
                            let v = parse_item_unit(&unit[..len], &self.item_desc)?;
                            on_item(self.seen, v)?;
                            self.seen += 1;
                            if self.declared != 0 && self.seen > self.declared {
                                return Err(DeserError::shape(format!(
                                    "array {} declares {} elements but streamed more",
                                    self.param_name, self.declared
                                )));
                            }
                            pos += start + len;
                        }
                        None => break,
                    }
                }
                StreamState::Epilogue => {
                    // Keep accumulating (bounded by max_carry); validated
                    // at finish.
                    break;
                }
            }
        }
        // Drop the consumed prefix; what remains is the partial unit (or,
        // in the epilogue, the close tags awaiting `finish`).
        self.carry.drain(..pos);
        Ok(())
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
            format!("</{}>", self.op_tag),
            "</SOAP-ENV:Body>".to_owned(),
            "</SOAP-ENV:Envelope>".to_owned(),
        ] {
            rest = expect_tag(rest, tag.as_bytes())?;
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
    /// tag) starting at `pos`. Returns the end offset when complete.
    ///
    /// The substring probe only decides *when* enough bytes have arrived;
    /// what they must be is decided by the grammar [`parse_envelope`]
    /// runs, over exactly the probed slice. A probe that cuts early (the
    /// parameter name inside a comment, a `>` inside an attribute value)
    /// hands that grammar a truncated slice and is rejected, so this
    /// parser accepts a subset of the oracle's envelopes, never more.
    ///
    /// [`parse_envelope`]: crate::parse_envelope
    fn try_prologue(&mut self, pos: usize) -> Result<Option<usize>, DeserError> {
        let buf = &self.carry[pos..];
        let mut probe = Vec::with_capacity(self.param_name.len() + 1);
        probe.push(b'<');
        probe.extend_from_slice(self.param_name.as_bytes());
        let Some(open_at) = find(buf, &probe) else {
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
        Ok(Some(pos + tag.tag_end))
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

/// Parse one complete `<item>…</item>` unit into a [`Value`].
fn parse_item_unit(bytes: &[u8], desc: &TypeDesc) -> Result<Value, DeserError> {
    let mut p = Parser::new(bytes, false);
    let v = p.plain(0, &mut 0, "item", desc)?;
    p.expect_eof()?;
    Ok(v)
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    if needle.len() > haystack.len() {
        return None;
    }
    haystack.windows(needle.len()).position(|w| w == needle)
}
