//! Differential deserialization (paper §6).
//!
//! The server-side mirror of the client's template: keep the previous
//! message's bytes and what the lane learned decoding them; when the next
//! message arrives,
//!
//! 1. if it is byte-identical, reuse the previous values outright (the
//!    deserialization analogue of a message content match);
//! 2. if the lane's leaf tier can prove that only rewritable regions
//!    changed, re-decode just those (the analogue of a structural match,
//!    perfect or partial). On XML that is one forward walk over the
//!    retained region map (see [`crate::envelope`]) with two cursors, one
//!    in each message, whose distance is the running offset of every width
//!    change so far:
//!    * everything up to the first differing byte is unchanged, so the
//!      regions that end before it are stepped over without a second look;
//!    * a difference inside a **leaf region** `text</name>pad` re-scans it
//!      to its close tag (text free of `<`, the old close tag, whitespace
//!      up to the next `<`), re-parses the text, and moves the cursors by
//!      the old and the new width — a value that outgrew its field costs
//!      one leaf, not a full parse, and a close tag that moved within a
//!      stuffed field never leaves its region, so stuffing on the sender
//!      keeps most changes at the same width (the paper's open question
//!      about stuffing and server-side decoding);
//!    * a difference inside an **array length region** `N]">pad` re-reads
//!      the declared length the same way;
//!    * a difference in the skeleton is provable in two places only. At an
//!      element boundary of an array the new message may show the array's
//!      closing skeleton early: the surplus elements are dropped. After
//!      the last element it may **repeat the element's skeleton** — the
//!      previous element's, byte for byte: each repeat is an appended
//!      element, its leaves read by the same re-scan, until the closing
//!      skeleton appears (the `ElementSkeleton` the streaming deserializer
//!      reads by too). An array with no element has no skeleton to
//!      repeat, so growing from zero is a full parse;
//!    * at the end, every array touched must carry exactly the elements
//!      its length field declares.
//!
//!    Two rules make the walk sound. **It never invents an error:** every
//!    byte of the new message is either compared equal to a skeleton byte
//!    the oracle already accepted in the same parser state, or re-scanned
//!    by the oracle's own leaf grammar; anything else — a skeleton byte
//!    that differs, a `<` that is not the expected close tag, a comment,
//!    a count that is not the declared length, an index past either
//!    buffer — is `None`, and the full parse decides. The one `Err` is a
//!    leaf's own lexical error, which the full parse meets in the same
//!    text. **Nothing lands until everything parsed:** values, widths,
//!    appended and dropped regions are staged and committed after the last
//!    byte, so a refusal or an error leaves the reference describing the
//!    previous message. The cursors only move forward, so the walk is
//!    O(|prev| + |bytes|) on any input. On bin1 the tier is the same idea
//!    without offsets: same length, only fixed-width slot payloads differ;
//! 3. otherwise fall back to a full decode and adopt the new message as
//!    the reference.
//!
//! [`DiffShell`] is that procedure — message counter, retained reference,
//! identical short-circuit, adopt-on-success — written once; a lane
//! instantiates it with the [`Reference`] it retains.

use crate::envelope::{
    apply_leaf, close_tag, leaf_width, padded_width, parse_array_len, parse_envelope_mapped,
    parse_scalar, resize_array, text_end, value_from_leaves, ArrayRegion, ElementSkeleton,
    MappedMessage, Region, RegionKind,
};
use crate::error::DeserError;
use bsoap_convert::ScalarKind;
use bsoap_core::{OpDesc, TypeDesc, Value};
use std::cell::Cell;
use std::mem::take;

/// Which path a message took through the differential deserializer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiffOutcome {
    /// First message, or a change the leaf tier could not prove: full parse.
    FullParse,
    /// Byte-identical to the previous message: nothing parsed.
    Identical,
    /// Skeleton matched: only changed regions were re-parsed.
    Differential {
        /// Regions re-parsed: leaves whose bytes changed, leaves of
        /// appended elements, and an array length field that changed.
        reparsed: usize,
        /// Leaves skipped because their bytes were unchanged.
        skipped: usize,
    },
}

/// Cumulative statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeserStats {
    /// Messages handled.
    pub messages: u64,
    /// Full parses (first message + structure changes).
    pub full_parses: u64,
    /// Byte-identical fast paths.
    pub identical: u64,
    /// Differential (leaf-level) parses.
    pub differential: u64,
    /// Leaves re-parsed on differential paths.
    pub leaves_reparsed: u64,
    /// Leaves skipped on differential paths.
    pub leaves_skipped: u64,
}

/// What a lane retains of the previous message beside its bytes.
pub trait Reference: Sized {
    /// Full decode of `bytes` against `op`.
    fn decode(bytes: &[u8], op: &OpDesc) -> Result<Self, DeserError>;

    /// The decoded argument values.
    fn args(&self) -> &[Value];

    /// The lane's leaf tier: bring `self`, decoded from `prev`, up to
    /// `bytes` by re-decoding only the leaves that changed, returning
    /// `(reparsed, skipped)`; `None` asks for a full decode. An `Err`
    /// must leave `self` describing `prev`. A lane without a leaf tier
    /// keeps this default.
    fn patch(
        &mut self,
        _prev: &[u8],
        _bytes: &[u8],
        _op: &OpDesc,
    ) -> Result<Option<(usize, usize)>, DeserError> {
        Ok(None)
    }
}

/// Differential deserializer for one operation on the lane that retains
/// `R` — [`DiffDeserializer`] on XML, `BinaryDiffDeserializer` on bin1.
#[derive(Debug)]
pub struct DiffShell<R> {
    op: OpDesc,
    /// The last message that decoded, and what the lane kept of it. A
    /// message that fails to decode never replaces it.
    prev: Option<(Vec<u8>, R)>,
    stats: DeserStats,
}

/// Server-side differential deserializer for one operation's XML
/// envelopes: retains the region map, re-parses what changed.
pub type DiffDeserializer = DiffShell<MappedMessage>;

impl<R: Reference> DiffShell<R> {
    /// Deserializer expecting messages for `op`.
    pub fn new(op: OpDesc) -> Self {
        DiffShell {
            op,
            prev: None,
            stats: DeserStats::default(),
        }
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> DeserStats {
        self.stats
    }

    /// Bytes retained as the reference message.
    pub fn retained_bytes(&self) -> usize {
        self.prev.as_ref().map_or(0, |(bytes, _)| bytes.len())
    }

    /// Deserialize `bytes`, taking the cheapest sound path. Returns the
    /// argument values and the path taken.
    pub fn deserialize(&mut self, bytes: &[u8]) -> Result<(&[Value], DiffOutcome), DeserError> {
        self.stats.messages += 1;
        let outcome = self.advance(bytes)?;
        match outcome {
            DiffOutcome::FullParse => self.stats.full_parses += 1,
            DiffOutcome::Identical => self.stats.identical += 1,
            DiffOutcome::Differential { reparsed, skipped } => {
                self.stats.differential += 1;
                self.stats.leaves_reparsed += reparsed as u64;
                self.stats.leaves_skipped += skipped as u64;
            }
        }
        let (_, reference) = self.prev.as_ref().expect("set by advance");
        Ok((reference.args(), outcome))
    }

    /// Move the reference on to `bytes`. On `Err` it still describes the
    /// last message that decoded.
    fn advance(&mut self, bytes: &[u8]) -> Result<DiffOutcome, DeserError> {
        if let Some((prev, reference)) = &mut self.prev {
            if prev.as_slice() == bytes {
                return Ok(DiffOutcome::Identical);
            }
            if let Some((reparsed, skipped)) = reference.patch(prev, bytes, &self.op)? {
                adopt(prev, bytes);
                return Ok(DiffOutcome::Differential { reparsed, skipped });
            }
        }
        let reference = R::decode(bytes, &self.op)?;
        let mut kept = self.prev.take().map_or_else(Vec::new, |(prev, _)| prev);
        adopt(&mut kept, bytes);
        self.prev = Some((kept, reference));
        Ok(DiffOutcome::FullParse)
    }
}

/// Copy `bytes` over the retained message, reusing its buffer and growing
/// it to exactly what the message needs: a service retains one of these
/// per operation, and a differential message may be longer than the last.
fn adopt(kept: &mut Vec<u8>, bytes: &[u8]) {
    kept.clear();
    kept.reserve_exact(bytes.len());
    kept.extend_from_slice(bytes);
}

/// XML retains the region map and walks it against the next message.
impl Reference for MappedMessage {
    fn decode(bytes: &[u8], op: &OpDesc) -> Result<Self, DeserError> {
        parse_envelope_mapped(bytes, op)
    }

    fn args(&self) -> &[Value] {
        &self.args
    }

    fn patch(
        &mut self,
        prev: &[u8],
        bytes: &[u8],
        op: &OpDesc,
    ) -> Result<Option<(usize, usize)>, DeserError> {
        let Some(mut staged) = Walk::new(self, prev, bytes, op, STAGED.take()).run()? else {
            return Ok(None);
        };
        // Committing cannot fail while the map describes `prev`; were it
        // ever to, the full parse rebuilds the whole reference.
        let counts = self.commit(&mut staged, op).ok();
        STAGED.set(staged);
        Ok(counts)
    }
}

thread_local! {
    /// The walk's staging lists, kept empty between walks so a warm walk
    /// allocates nothing: one set per thread, so a service with many
    /// operations keeps the largest, not the sum.
    static STAGED: Cell<Staged> = Cell::new(Staged::default());
}

/// Everything one walk learned, held back until the whole message has
/// walked so that a refusal or an error leaves the reference untouched.
#[derive(Default)]
struct Staged {
    /// `(region, new width, value)` of every region whose bytes changed; a
    /// length region has no value of its own.
    rewrites: Vec<(usize, usize, Option<Value>)>,
    /// `(array, length)` wherever the new message declares another length.
    declared: Vec<(usize, usize)>,
    /// Arrays that ended early or ran long, in document order.
    resizes: Vec<Resize>,
    reparsed: usize,
    skipped: usize,
}

/// One array's new tail.
struct Resize {
    array: usize,
    /// Old elements kept.
    keep: usize,
    /// Appended elements and their leaves' regions.
    elements: Vec<Value>,
    regions: Vec<Region>,
}

impl Staged {
    /// Whether every array the walk touched carries exactly the elements
    /// its length field now declares.
    fn lengths_agree(&self, arrays: &[ArrayRegion]) -> bool {
        let declared = |a: usize| {
            let changed = self.declared.iter().find(|d| d.0 == a);
            changed.map_or(arrays[a].elems, |d| d.1)
        };
        let carried = |a: usize| {
            let resized = self.resizes.iter().find(|r| r.array == a);
            resized.map_or(arrays[a].elems, |r| r.keep + r.elements.len())
        };
        let touched = self.declared.iter().map(|d| d.0);
        touched
            .chain(self.resizes.iter().map(|r| r.array))
            .all(|a| declared(a) == carried(a))
    }
}

/// One forward pass over the region map of `prev` against `bytes`.
///
/// `old` and `new` are the two cursors; `new - old` is the running offset
/// every earlier width change has added up to. The walk proves, segment by
/// segment, that `bytes` is `prev` with some regions rewritten and some
/// array tails cut or extended — and stops with `None` at the first byte
/// it cannot prove. Both cursors only move forward.
struct Walk<'a> {
    map: &'a MappedMessage,
    prev: &'a [u8],
    bytes: &'a [u8],
    op: &'a OpDesc,
    old: usize,
    new: usize,
    staged: Staged,
}

impl<'a> Walk<'a> {
    /// A walk staging into `staged`, which is empty.
    fn new(
        map: &'a MappedMessage,
        prev: &'a [u8],
        bytes: &'a [u8],
        op: &'a OpDesc,
        staged: Staged,
    ) -> Self {
        Walk {
            map,
            prev,
            bytes,
            op,
            old: 0,
            new: 0,
            staged,
        }
    }

    /// Skeleton bytes before region `i`; past the last region, the rest of
    /// the old message.
    fn skeleton(&self, i: usize) -> usize {
        match self.map.regions.get(i) {
            Some(region) => region.skeleton,
            None => self.prev.len().saturating_sub(self.old),
        }
    }

    /// Whether the next `len` bytes under both cursors are equal.
    fn same(&self, len: usize) -> bool {
        let old = self.prev.get(self.old..self.old + len);
        old.is_some() && old == self.bytes.get(self.new..self.new + len)
    }

    /// Whether the new message continues with `expected`; consumes it.
    fn take(&mut self, expected: &[u8]) -> bool {
        let found = self.bytes.get(self.new..self.new + expected.len());
        let taken = found == Some(expected);
        if taken {
            self.new += expected.len();
        }
        taken
    }

    /// Step both cursors over the rest of an unchanged `region`.
    fn skip(&mut self, region: &Region, len: usize) {
        self.old += len;
        self.new += len;
        self.staged.skipped += usize::from(matches!(region.kind, RegionKind::Leaf { .. }));
    }

    fn run(mut self) -> Result<Option<Staged>, DeserError> {
        let regions = &self.map.regions;
        let mut i = 0;
        loop {
            // Up to the first differing byte nothing changed: step over
            // every region that ends before it. The byte after a region is
            // the `<` that closes it, so it has to agree as well.
            let Some(old_rest) = self.prev.get(self.old..) else {
                return Ok(None);
            };
            let mut agree = common_prefix(old_rest, &self.bytes[self.new..]);
            while let Some(region) = regions.get(i) {
                let span = region.skeleton + region.width;
                if span >= agree {
                    break;
                }
                agree -= span;
                self.skip(region, span);
                i += 1;
            }

            // The difference lies in region `i` or in the skeleton before
            // it. In the skeleton, the only thing left to prove is that an
            // array ended early or ran long here — after which region `i`
            // may be as it was.
            let mut skeleton = self.skeleton(i);
            let resized = agree < skeleton;
            if resized {
                let arrays = &self.map.arrays;
                let Some(array) = arrays.partition_point(|a| a.len_at < i).checked_sub(1) else {
                    return Ok(None);
                };
                match self.resize(array, &mut i)? {
                    Some(closing) if self.same(closing) => skeleton = closing,
                    _ => return Ok(None),
                }
            }
            self.old += skeleton;
            self.new += skeleton;
            let Some(region) = regions.get(i) else {
                break;
            };
            if resized && self.same(region.width + 1) {
                self.skip(region, region.width);
                i += 1;
                continue;
            }

            let Some(old) = self.prev.get(self.old..self.old + region.width) else {
                return Ok(None);
            };
            let rest = &self.bytes[self.new..];
            let (width, value) = match region.kind {
                RegionKind::Leaf { kind, .. } => match rescan_leaf(old, rest, kind)? {
                    Some((width, value)) => (width, Some(value)),
                    None => return Ok(None),
                },
                RegionKind::ArrayLen(array) => match rescan_len(old, rest) {
                    Some((width, declared)) => {
                        self.staged.declared.push((array, declared));
                        (width, None)
                    }
                    None => return Ok(None),
                },
            };
            self.staged.rewrites.push((i, width, value));
            self.staged.reparsed += 1;
            self.old += region.width;
            self.new += width;
            i += 1;
        }
        let walked = self.new == self.bytes.len() && self.staged.lengths_agree(&self.map.arrays);
        Ok(walked.then_some(self.staged))
    }

    /// The skeleton before region `i` differs inside (or right after) the
    /// open array: prove that the array closes early here, or that whole
    /// elements were appended, and move on to the array's closing
    /// skeleton, whose length is returned. `None` if neither can be shown.
    fn resize(&mut self, array: usize, i: &mut usize) -> Result<Option<usize>, DeserError> {
        let a = &self.map.arrays[array];
        let lpe = a.leaves_per_elem;
        let leaves = a.leaves();
        if leaves.contains(i) && (*i - leaves.start).is_multiple_of(lpe) {
            // Early close before the element that starts at region `i`:
            // drop the surplus and let the offset absorb the removed span.
            let keep = (*i - leaves.start) / lpe;
            let dropped = &self.map.regions[*i..leaves.end];
            self.old += dropped.iter().map(|r| r.skeleton + r.width).sum::<usize>();
            *i = leaves.end;
            // With no element left, none is closed before the array is.
            let cut = if keep == 0 { a.elem_close } else { 0 };
            let closing = self.skeleton(*i).checked_sub(cut);
            self.old += cut;
            self.staged.resizes.push(Resize {
                array,
                keep,
                elements: Vec::new(),
                regions: Vec::new(),
            });
            return Ok(closing);
        }
        if *i != leaves.end || a.elems == 0 {
            return Ok(None);
        }

        // Past the last old element: further elements must repeat its
        // skeleton byte for byte. `last` is where that element's leaves
        // sit in `prev`; its open tags follow the previous element's close,
        // unless it is the only one.
        let last = &self.map.regions[leaves.end - lpe..leaves.end];
        let span: usize = last.iter().map(|r| r.skeleton + r.width).sum();
        let Some(at) = self.old.checked_sub(span) else {
            return Ok(None);
        };
        let prev = self.prev;
        let Some(close) = prev.get(self.old..self.old + a.elem_close) else {
            return Ok(None);
        };
        let skip = if a.elems > 1 { close.len() } else { 0 };
        if prev.get(at..at + skip) != Some(&close[..skip]) {
            return Ok(None);
        }
        let Some(skeleton) = ElementSkeleton::learn(prev, (at, skip), last, close) else {
            return Ok(None);
        };

        let item = match &self.op.params.get(a.param as usize).map(|p| &p.desc) {
            Some(TypeDesc::Array { item }) => item,
            _ => return Ok(None),
        };
        let mut resize = Resize {
            array,
            keep: a.elems,
            elements: Vec::new(),
            regions: Vec::new(),
        };
        let mut values = Vec::with_capacity(lpe);
        loop {
            // Each element opens after the one before it closes.
            let (element_at, first) = (self.new, resize.regions.len());
            let shift = (lpe * (resize.elements.len() + 1)) as u32;
            let read = if self.take(close) {
                skeleton.read(&self.bytes[self.new..], |mut region, text| {
                    if let RegionKind::Leaf { slot, kind } = &mut region.kind {
                        values.push(parse_scalar(text, *kind, "leaf region")?);
                        slot.leaf += shift;
                    }
                    resize.regions.push(region);
                    Ok(())
                })?
            } else {
                None
            };
            let Some(len) = read else {
                resize.regions.truncate(first);
                self.new = element_at;
                break;
            };
            resize.regions[first].skeleton += close.len();
            self.new += len;
            let Some(element) = value_from_leaves(item, &mut values.drain(..)) else {
                return Ok(None);
            };
            resize.elements.push(element);
            self.staged.reparsed += lpe;
        }
        if resize.elements.is_empty() {
            return Ok(None);
        }
        self.staged.resizes.push(resize);
        Ok(Some(self.skeleton(*i)))
    }
}

impl MappedMessage {
    /// Land a finished walk: the map and the values move on to the new
    /// message together. Returns its `(reparsed, skipped)`; `staged` is
    /// left empty, with its room, for the next walk.
    fn commit(&mut self, staged: &mut Staged, op: &OpDesc) -> Result<(usize, usize), DeserError> {
        staged.declared.clear();
        for (i, width, value) in staged.rewrites.drain(..) {
            self.regions[i].width = width;
            if let (RegionKind::Leaf { slot, .. }, Some(value)) = (self.regions[i].kind, value) {
                apply_leaf(&mut self.args, op, slot, value)?;
            }
        }
        // Last array first, so the region indices of earlier ones hold.
        for resize in staged.resizes.drain(..).rev() {
            let a = self.arrays[resize.array];
            let old = a.leaves();
            let kept = old.start + resize.keep * a.leaves_per_elem;
            if resize.keep == 0 {
                // The closing skeleton no longer starts with an element's
                // close.
                if let Some(next) = self.regions.get_mut(old.end) {
                    next.skeleton -= a.elem_close;
                }
            }
            let elems = resize.keep + resize.elements.len();
            let added = resize.regions.len();
            self.regions.splice(kept..old.end, resize.regions);
            resize_array(
                &mut self.args[a.param as usize],
                resize.keep,
                resize.elements,
            )?;
            self.arrays[resize.array].elems = elems;
            for later in &mut self.arrays[resize.array + 1..] {
                later.len_at = later.len_at + added - (old.end - kept);
            }
        }
        Ok((take(&mut staged.reparsed), take(&mut staged.skipped)))
    }
}

/// Re-read one leaf region at the head of `rest`, `old` being its bytes in
/// the previous message: see [`leaf_width`].
fn rescan_leaf(
    old: &[u8],
    rest: &[u8],
    kind: ScalarKind,
) -> Result<Option<(usize, Value)>, DeserError> {
    let Some(text) = text_end(rest) else {
        return Ok(None);
    };
    let width = close_tag(old, text).and_then(|close| leaf_width(rest, text, close));
    let read = |width| Ok((width, parse_scalar(&rest[..text], kind, "leaf region")?));
    width.map(read).transpose()
}

/// Re-read one array length region at the head of `rest`: `N]">pad<`, with
/// `]">` taken from the region's old bytes.
fn rescan_len(old: &[u8], rest: &[u8]) -> Option<(usize, usize)> {
    let bracket = old.iter().position(|&b| b == b']')?;
    let suffix = old.get(bracket..bracket + 3)?;
    // An `i32` has at most ten digits.
    let digits = rest
        .iter()
        .take(11)
        .take_while(|b| b.is_ascii_digit())
        .count();
    if digits == 0 || !rest[digits..].starts_with(suffix) {
        return None;
    }
    let width = padded_width(rest, digits + suffix.len())?;
    Some((width, parse_array_len(&rest[..digits]).ok()?))
}

/// Length of the longest common prefix of `a` and `b`: whole blocks while
/// they are equal, then a word at a time — the lowest set bit of the XOR
/// of two little-endian words lies in their first differing byte.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    const BLOCK: usize = 32;
    let blocks = a.chunks_exact(BLOCK).zip(b.chunks_exact(BLOCK));
    let mut at = BLOCK * blocks.take_while(|(x, y)| x == y).count();
    for (x, y) in a[at..].chunks_exact(8).zip(b[at..].chunks_exact(8)) {
        let word = |w: &[u8]| u64::from_le_bytes(w.try_into().expect("chunks of eight"));
        let differing = word(x) ^ word(y);
        if differing != 0 {
            return at + (differing.trailing_zeros() / 8) as usize;
        }
        at += 8;
    }
    let bytes = a[at..].iter().zip(&b[at..]);
    at + bytes.take_while(|(x, y)| x == y).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsoap_convert::ScalarKind;
    use bsoap_core::value::mio;
    use bsoap_core::{
        EngineConfig, MessageTemplate, OpDesc, SendTier, TypeDesc, Value, WidthPolicy,
    };

    fn doubles_op() -> OpDesc {
        OpDesc::single(
            "send",
            "urn:bench",
            "arr",
            TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double)),
        )
    }

    #[test]
    fn identical_message_short_circuits() {
        let op = doubles_op();
        let args = vec![Value::DoubleArray(vec![1.5, 2.5])];
        let bytes = MessageTemplate::build(EngineConfig::paper_default(), &op, &args)
            .unwrap()
            .to_bytes();
        let mut d = DiffDeserializer::new(op);
        let (got, o1) = d.deserialize(&bytes).unwrap();
        assert_eq!(o1, DiffOutcome::FullParse);
        assert_eq!(got, &args[..]);
        let (got, o2) = d.deserialize(&bytes).unwrap();
        assert_eq!(o2, DiffOutcome::Identical);
        assert_eq!(got, &args[..]);
        assert_eq!(d.stats().identical, 1);
    }

    #[test]
    fn same_width_value_change_is_differential() {
        // 1.5 -> 9.5: same serialized length, so the template's perfect
        // structural match leaves the skeleton untouched.
        let op = doubles_op();
        let config = EngineConfig::paper_default();
        let mut tpl =
            MessageTemplate::build(config, &op, &[Value::DoubleArray(vec![1.5, 2.5])]).unwrap();
        let mut d = DiffDeserializer::new(op);
        d.deserialize(&tpl.to_bytes()).unwrap();

        tpl.update_args(&[Value::DoubleArray(vec![9.5, 2.5])])
            .unwrap();
        tpl.flush();
        let (got, outcome) = d.deserialize(&tpl.to_bytes()).unwrap();
        assert_eq!(
            outcome,
            DiffOutcome::Differential {
                reparsed: 1,
                skipped: 1
            }
        );
        assert_eq!(got, &[Value::DoubleArray(vec![9.5, 2.5])]);
    }

    #[test]
    fn stuffed_fields_keep_differential_alive_across_width_changes() {
        // With max stuffing, any double fits in the field, so even a
        // value with a different serialized length stays differential —
        // the answer to §6's stuffing-effect question.
        let op = doubles_op();
        let config = EngineConfig::paper_default().with_width(WidthPolicy::Max);
        let mut tpl =
            MessageTemplate::build(config, &op, &[Value::DoubleArray(vec![1.5, 2.5])]).unwrap();
        let mut d = DiffDeserializer::new(op);
        d.deserialize(&tpl.to_bytes()).unwrap();

        let new = vec![1.2345678901234567e-300, 2.5];
        let tier = tpl.update_args(&[Value::DoubleArray(new.clone())]).unwrap();
        assert_eq!(tier, SendTier::PerfectStructural);
        tpl.flush();
        let (got, outcome) = d.deserialize(&tpl.to_bytes()).unwrap();
        assert_eq!(
            outcome,
            DiffOutcome::Differential {
                reparsed: 1,
                skipped: 1
            }
        );
        assert_eq!(got, &[Value::DoubleArray(new)]);
    }

    #[test]
    fn exact_width_length_change_is_differential() {
        // Without stuffing, a longer value shifts the rest of the message:
        // the walk re-reads the widened leaf, folds its growth into the
        // running offset and finds everything behind it where expected.
        let op = doubles_op();
        let config = EngineConfig::paper_default();
        let mut tpl =
            MessageTemplate::build(config, &op, &[Value::DoubleArray(vec![1.5, 2.5])]).unwrap();
        let mut d = DiffDeserializer::new(op);
        let before = tpl.to_bytes().len();
        d.deserialize(&tpl.to_bytes()).unwrap();

        let new = vec![1.25e-300, 2.5];
        tpl.update_args(&[Value::DoubleArray(new.clone())]).unwrap();
        tpl.flush();
        assert!(tpl.to_bytes().len() > before);
        let (got, outcome) = d.deserialize(&tpl.to_bytes()).unwrap();
        assert_eq!(
            outcome,
            DiffOutcome::Differential {
                reparsed: 1,
                skipped: 1
            }
        );
        assert_eq!(got, &[Value::DoubleArray(new)]);
        assert_eq!(d.stats().full_parses, 1);
    }

    #[test]
    fn resize_is_differential() {
        let op = doubles_op();
        let mut tpl = MessageTemplate::build(
            EngineConfig::paper_default(),
            &op,
            &[Value::DoubleArray(vec![1.5, 2.5])],
        )
        .unwrap();
        let mut d = DiffDeserializer::new(op);
        d.deserialize(&tpl.to_bytes()).unwrap();

        // Grow: the length field and the appended element are re-read.
        tpl.update_args(&[Value::DoubleArray(vec![1.5, 2.5, 3.5])])
            .unwrap();
        tpl.flush();
        let (got, o) = d.deserialize(&tpl.to_bytes()).unwrap();
        assert_eq!(
            o,
            DiffOutcome::Differential {
                reparsed: 2,
                skipped: 2
            }
        );
        assert_eq!(got, &[Value::DoubleArray(vec![1.5, 2.5, 3.5])]);

        // Same-shape change afterwards walks the grown map.
        tpl.update_args(&[Value::DoubleArray(vec![1.5, 9.5, 3.5])])
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
        assert_eq!(got, &[Value::DoubleArray(vec![1.5, 9.5, 3.5])]);

        // Shrink: only the length field is re-read, the tail is dropped.
        tpl.update_args(&[Value::DoubleArray(vec![1.5])]).unwrap();
        tpl.flush();
        let (got, o) = d.deserialize(&tpl.to_bytes()).unwrap();
        assert_eq!(
            o,
            DiffOutcome::Differential {
                reparsed: 1,
                skipped: 1
            }
        );
        assert_eq!(got, &[Value::DoubleArray(vec![1.5])]);
        assert_eq!(d.stats().full_parses, 1);
    }

    #[test]
    fn shrink_to_zero_is_differential_and_grow_from_zero_is_a_full_parse() {
        // With no element left there is no skeleton for a new one to
        // repeat, so growing an empty array is the oracle's to read.
        let op = OpDesc::single("m", "urn:x", "a", TypeDesc::array_of(TypeDesc::mio()));
        let cells = |n: i32| Value::Array((0..n).map(|i| mio(i, -i, 0.5)).collect());
        let mut tpl =
            MessageTemplate::build(EngineConfig::paper_default(), &op, &[cells(2)]).unwrap();
        let mut d = DiffDeserializer::new(op);
        d.deserialize(&tpl.to_bytes()).unwrap();

        let mut send = |args: Value| {
            tpl.update_args(std::slice::from_ref(&args)).unwrap();
            tpl.flush();
            let (got, o) = d.deserialize(&tpl.to_bytes()).unwrap();
            assert_eq!(got, &[args]);
            o
        };
        let differential = |reparsed, skipped| DiffOutcome::Differential { reparsed, skipped };
        assert_eq!(send(cells(0)), differential(1, 0));
        assert_eq!(send(cells(3)), DiffOutcome::FullParse);
        assert_eq!(send(cells(5)), differential(7, 9));
        assert_eq!(send(cells(1)), differential(1, 3));
    }

    #[test]
    fn grow_cycle_never_parses_in_full_again() {
        // The benchmark's `grow_cycle`: append narrow values, widen them,
        // truncate — every step costs only what it changed.
        let op = doubles_op();
        let base: Vec<f64> = (0..20).map(|i| i as f64 + 0.5).collect();
        let mut tpl = MessageTemplate::build(
            EngineConfig::paper_default(),
            &op,
            &[Value::DoubleArray(base.clone())],
        )
        .unwrap();
        let mut d = DiffDeserializer::new(op);
        d.deserialize(&tpl.to_bytes()).unwrap();
        let mut send = |xs: &[f64]| {
            let args = [Value::DoubleArray(xs.to_vec())];
            tpl.update_args(&args).unwrap();
            tpl.flush();
            let (got, o) = d.deserialize(&tpl.to_bytes()).unwrap();
            assert_eq!(got, &args);
            o
        };
        let differential = |reparsed, skipped| DiffOutcome::Differential { reparsed, skipped };
        for round in 0..3 {
            let mut xs = base.clone();
            xs.extend((0..5).map(|i| (1 + i + round) as f64));
            assert_eq!(send(&xs), differential(6, 20), "append, round {round}");
            for (i, x) in xs[20..].iter_mut().enumerate() {
                *x = 1.2345678901234567e-300 * (1 + i + round) as f64;
            }
            assert_eq!(send(&xs), differential(5, 20), "widen, round {round}");
            assert_eq!(send(&base), differential(1, 20), "truncate, round {round}");
        }
        let s = d.stats();
        assert_eq!((s.full_parses, s.differential), (1, 9));
    }

    #[test]
    fn all_leaves_changed() {
        let op = doubles_op();
        let mut tpl = MessageTemplate::build(
            EngineConfig::paper_default(),
            &op,
            &[Value::DoubleArray(vec![1.5, 2.5, 3.5, 4.5])],
        )
        .unwrap();
        let mut d = DiffDeserializer::new(op);
        d.deserialize(&tpl.to_bytes()).unwrap();
        let new = vec![5.5, 6.5, 7.5, 8.5];
        tpl.update_args(&[Value::DoubleArray(new.clone())]).unwrap();
        tpl.flush();
        let (got, o) = d.deserialize(&tpl.to_bytes()).unwrap();
        assert_eq!(
            o,
            DiffOutcome::Differential {
                reparsed: 4,
                skipped: 0
            }
        );
        assert_eq!(got, &[Value::DoubleArray(new)]);
    }

    #[test]
    fn corrupted_leaf_region_is_rejected_not_misparsed() {
        let op = doubles_op();
        let tpl = MessageTemplate::build(
            EngineConfig::paper_default(),
            &op,
            &[Value::DoubleArray(vec![1.5, 2.5])],
        )
        .unwrap();
        let bytes = tpl.to_bytes();
        let mut d = DiffDeserializer::new(op);
        d.deserialize(&bytes).unwrap();
        // Replace a value with same-length garbage.
        let tampered = String::from_utf8(bytes).unwrap().replace("1.5", "zzz");
        assert!(d.deserialize(tampered.as_bytes()).is_err());
    }

    #[test]
    fn stats_accumulate() {
        let op = doubles_op();
        let mut tpl = MessageTemplate::build(
            EngineConfig::paper_default(),
            &op,
            &[Value::DoubleArray(vec![1.5, 2.5])],
        )
        .unwrap();
        let mut d = DiffDeserializer::new(op);
        d.deserialize(&tpl.to_bytes()).unwrap();
        d.deserialize(&tpl.to_bytes()).unwrap();
        tpl.update_args(&[Value::DoubleArray(vec![7.5, 2.5])])
            .unwrap();
        tpl.flush();
        d.deserialize(&tpl.to_bytes()).unwrap();
        let s = d.stats();
        assert_eq!(s.messages, 3);
        assert_eq!(s.full_parses, 1);
        assert_eq!(s.identical, 1);
        assert_eq!(s.differential, 1);
        assert_eq!(s.leaves_reparsed, 1);
        assert_eq!(s.leaves_skipped, 1);
        assert!(d.retained_bytes() > 0);
    }
}
