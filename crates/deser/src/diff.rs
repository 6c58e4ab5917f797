//! Differential deserialization (paper §6).
//!
//! The server-side mirror of the client's template: keep the previous
//! message's bytes and what the lane learned decoding them; when the next
//! message arrives,
//!
//! 1. if it is byte-identical, reuse the previous values outright (the
//!    deserialization analogue of a message content match);
//! 2. if the lane has a leaf tier and only leaf regions differ, re-decode
//!    just the changed leaves (the analogue of a perfect structural
//!    match). On XML that is "same length, every inter-leaf *skeleton*
//!    byte identical": a close tag that moved within a stuffed field stays
//!    inside its leaf's region, so stuffing on the sender makes this fast
//!    path *more* likely, answering the paper's open question about how
//!    stuffing affects server-side decoding;
//! 3. otherwise fall back to a full decode and adopt the new message as
//!    the reference.
//!
//! [`DiffShell`] is that procedure — message counter, retained reference,
//! identical short-circuit, adopt-on-success — written once; a lane
//! instantiates it with the [`Reference`] it retains.

use crate::envelope::{apply_leaf, parse_envelope_mapped, parse_scalar, MappedMessage};
use crate::error::DeserError;
use bsoap_core::{OpDesc, Value};

/// Which path a message took through the differential deserializer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiffOutcome {
    /// First message, or structure changed: full parse.
    FullParse,
    /// Byte-identical to the previous message: nothing parsed.
    Identical,
    /// Skeleton matched: only changed leaf regions were re-parsed.
    Differential {
        /// Leaves whose regions changed and were re-parsed.
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
/// envelopes: retains the leaf map, re-parses changed leaves.
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
                prev.clear();
                prev.extend_from_slice(bytes);
                return Ok(DiffOutcome::Differential { reparsed, skipped });
            }
        }
        let reference = R::decode(bytes, &self.op)?;
        // Reuse the reference's buffer, growing it to exactly what the
        // message needs: a service retains one of these per operation.
        let mut kept = self.prev.take().map_or_else(Vec::new, |(prev, _)| prev);
        kept.clear();
        kept.reserve_exact(bytes.len());
        kept.extend_from_slice(bytes);
        self.prev = Some((kept, reference));
        Ok(DiffOutcome::FullParse)
    }
}

/// XML retains the leaf map: with the skeleton proven identical, only the
/// leaf regions whose bytes changed are re-parsed.
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
        if prev.len() != bytes.len() {
            return Ok(None);
        }
        // Same length: compare the skeleton (everything outside leaf
        // regions). Any mismatch means the structure moved — full parse.
        let mut cursor = 0usize;
        for leaf in &self.leaves {
            if prev[cursor..leaf.region.start] != bytes[cursor..leaf.region.start] {
                return Ok(None);
            }
            cursor = leaf.region.end;
        }
        if prev[cursor..] != bytes[cursor..] {
            return Ok(None);
        }

        // Skeleton intact: re-parse only the changed leaf regions (which
        // keep their spans). Every region parses before any value lands.
        let mut skipped = 0usize;
        let mut updates = Vec::new();
        for leaf in &self.leaves {
            let new = &bytes[leaf.region.clone()];
            if &prev[leaf.region.clone()] == new {
                skipped += 1;
            } else {
                updates.push((leaf.slot, reparse_region(new, leaf, prev)?));
            }
        }
        let reparsed = updates.len();
        for (slot, value) in updates {
            apply_leaf(&mut self.args, op, slot, value)?;
        }
        Ok(Some((reparsed, skipped)))
    }
}

/// Re-parse one leaf region: `value</name>pad`. The close-tag name must
/// match the element's open-tag name (skeleton equality only covered
/// bytes outside the region); the open name is read from the retained
/// skeleton, which differential adoptions never change.
fn reparse_region(
    region: &[u8],
    leaf: &crate::envelope::LeafRegion,
    prev_bytes: &[u8],
) -> Result<Value, DeserError> {
    let lt = region
        .iter()
        .position(|&b| b == b'<')
        .ok_or_else(|| DeserError::shape("leaf region lost its close tag"))?;
    let value_text = &region[..lt];
    let rest = &region[lt..];
    // "</name>"
    let expected_name = &prev_bytes[leaf.open_name.clone()];
    if rest.len() < expected_name.len() + 3
        || &rest[..2] != b"</"
        || &rest[2..2 + expected_name.len()] != expected_name
        || rest[2 + expected_name.len()] != b'>'
    {
        return Err(DeserError::shape("leaf region close tag changed"));
    }
    let pad = &rest[3 + expected_name.len()..];
    if !pad.iter().all(|&b| b.is_ascii_whitespace()) {
        return Err(DeserError::shape("non-whitespace after leaf close tag"));
    }
    parse_scalar(value_text, leaf.kind, "leaf region")
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsoap_convert::ScalarKind;
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
    fn exact_width_length_change_falls_back_to_full_parse() {
        // Without stuffing, a longer value shifts the message: lengths
        // differ, so the deserializer re-parses from scratch — and adopts
        // the new message as its reference.
        let op = doubles_op();
        let config = EngineConfig::paper_default();
        let mut tpl =
            MessageTemplate::build(config, &op, &[Value::DoubleArray(vec![1.5, 2.5])]).unwrap();
        let mut d = DiffDeserializer::new(op);
        d.deserialize(&tpl.to_bytes()).unwrap();

        let new = vec![1.25e-300, 2.5];
        tpl.update_args(&[Value::DoubleArray(new.clone())]).unwrap();
        tpl.flush();
        let (got, outcome) = d.deserialize(&tpl.to_bytes()).unwrap();
        assert_eq!(outcome, DiffOutcome::FullParse);
        assert_eq!(got, &[Value::DoubleArray(new)]);
        assert_eq!(d.stats().full_parses, 2);
    }

    #[test]
    fn resize_falls_back_then_recovers() {
        let op = doubles_op();
        let mut tpl = MessageTemplate::build(
            EngineConfig::paper_default(),
            &op,
            &[Value::DoubleArray(vec![1.5, 2.5])],
        )
        .unwrap();
        let mut d = DiffDeserializer::new(op);
        d.deserialize(&tpl.to_bytes()).unwrap();

        // Grow: full parse.
        tpl.update_args(&[Value::DoubleArray(vec![1.5, 2.5, 3.5])])
            .unwrap();
        tpl.flush();
        let (_, o) = d.deserialize(&tpl.to_bytes()).unwrap();
        assert_eq!(o, DiffOutcome::FullParse);

        // Same-shape change afterwards: differential again.
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
