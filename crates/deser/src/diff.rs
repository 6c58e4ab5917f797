//! Differential deserialization (paper §6).
//!
//! The server-side mirror of the client's template: keep the previous
//! message's bytes and the byte region of every leaf; when the next
//! message arrives,
//!
//! 1. if it is byte-identical, reuse the previous values outright (the
//!    deserialization analogue of a message content match);
//! 2. if only leaf regions differ — same length, every inter-leaf
//!    *skeleton* byte identical — re-parse just the changed leaves (the
//!    analogue of a perfect structural match). A close tag that moved
//!    within a stuffed field stays inside its leaf's region, so stuffing
//!    on the sender makes this fast path *more* likely, answering the
//!    paper's open question about how stuffing affects server-side
//!    decoding;
//! 3. otherwise fall back to a full parse and adopt the new message as
//!    the reference.

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

/// Server-side differential deserializer for one operation.
#[derive(Debug)]
pub struct DiffDeserializer {
    op: OpDesc,
    prev: Option<Prev>,
    stats: DeserStats,
}

#[derive(Debug)]
struct Prev {
    bytes: Vec<u8>,
    mapped: MappedMessage,
}

impl DiffDeserializer {
    /// Deserializer expecting messages for `op`.
    pub fn new(op: OpDesc) -> Self {
        DiffDeserializer {
            op,
            prev: None,
            stats: DeserStats::default(),
        }
    }

    /// The operation this deserializer serves.
    pub fn op(&self) -> &OpDesc {
        &self.op
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> DeserStats {
        self.stats
    }

    /// Bytes retained as the reference message.
    pub fn retained_bytes(&self) -> usize {
        self.prev.as_ref().map_or(0, |p| p.bytes.len())
    }

    /// Deserialize `bytes`, taking the cheapest sound path. Returns the
    /// argument values and the path taken.
    pub fn deserialize(&mut self, bytes: &[u8]) -> Result<(&[Value], DiffOutcome), DeserError> {
        self.stats.messages += 1;
        let outcome = self.deserialize_inner(bytes)?;
        match outcome {
            DiffOutcome::FullParse => self.stats.full_parses += 1,
            DiffOutcome::Identical => self.stats.identical += 1,
            DiffOutcome::Differential { reparsed, skipped } => {
                self.stats.differential += 1;
                self.stats.leaves_reparsed += reparsed as u64;
                self.stats.leaves_skipped += skipped as u64;
            }
        }
        Ok((
            &self.prev.as_ref().expect("set by inner").mapped.args,
            outcome,
        ))
    }

    fn deserialize_inner(&mut self, bytes: &[u8]) -> Result<DiffOutcome, DeserError> {
        let Some(prev) = &mut self.prev else {
            return self.full_parse(bytes);
        };
        if prev.bytes == bytes {
            return Ok(DiffOutcome::Identical);
        }
        if prev.bytes.len() != bytes.len() {
            return self.full_parse(bytes);
        }

        // Same length: compare the skeleton (everything outside leaf
        // regions). Any mismatch means the structure moved — full parse.
        let mut cursor = 0usize;
        for leaf in &prev.mapped.leaves {
            if prev.bytes[cursor..leaf.region.start] != bytes[cursor..leaf.region.start] {
                return self.full_parse(bytes);
            }
            cursor = leaf.region.end;
        }
        if prev.bytes[cursor..] != bytes[cursor..] {
            return self.full_parse(bytes);
        }

        // Skeleton intact: re-parse only the changed leaf regions.
        let mut reparsed = 0usize;
        let mut skipped = 0usize;
        let mut updates = Vec::new();
        for (i, leaf) in prev.mapped.leaves.iter().enumerate() {
            let old = &prev.bytes[leaf.region.clone()];
            let new = &bytes[leaf.region.clone()];
            if old == new {
                skipped += 1;
                continue;
            }
            let value = reparse_region(new, leaf, &prev.bytes)?;
            updates.push((i, value));
            reparsed += 1;
        }
        for (i, value) in updates {
            let slot = prev.mapped.leaves[i].slot;
            apply_leaf(&mut prev.mapped.args, &self.op, slot, value)?;
        }
        // Adopt the new bytes as the reference (regions keep their spans —
        // the skeleton was proven identical).
        prev.bytes.clear();
        prev.bytes.extend_from_slice(bytes);
        Ok(DiffOutcome::Differential { reparsed, skipped })
    }

    fn full_parse(&mut self, bytes: &[u8]) -> Result<DiffOutcome, DeserError> {
        let mapped = parse_envelope_mapped(bytes, &self.op)?;
        self.prev = Some(Prev {
            bytes: bytes.to_vec(),
            mapped,
        });
        Ok(DiffOutcome::FullParse)
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
