//! Decoding by lane: the receiving half of `bsoap_core::lane`.
//!
//! The two places a [`WireFormat`] picks a decoder — the one-shot
//! [`decode`] and the per-lane [`LaneDeserializer`] slot a service keeps
//! per operation — so no caller matches on the format itself.

use crate::{
    parse_binary_envelope, parse_envelope, BinaryDiffDeserializer, DeserError, DiffDeserializer,
    DiffOutcome,
};
use bsoap_core::{OpDesc, Value, WireFormat};

/// Decode one `lane` message body into `op`'s argument values.
pub fn decode(lane: WireFormat, bytes: &[u8], op: &OpDesc) -> Result<Vec<Value>, DeserError> {
    match lane {
        WireFormat::SoapXml => parse_envelope(bytes, op),
        WireFormat::CompactBinary => parse_binary_envelope(bytes, op),
    }
}

/// The differential deserializer of one lane.
#[derive(Debug)]
pub enum LaneDeserializer {
    /// [`WireFormat::SoapXml`].
    Xml(DiffDeserializer),
    /// [`WireFormat::CompactBinary`].
    Bin1(BinaryDiffDeserializer),
}

impl LaneDeserializer {
    /// `lane`'s deserializer expecting messages for `op`.
    pub fn new(lane: WireFormat, op: OpDesc) -> Self {
        match lane {
            WireFormat::SoapXml => LaneDeserializer::Xml(DiffDeserializer::new(op)),
            WireFormat::CompactBinary => LaneDeserializer::Bin1(BinaryDiffDeserializer::new(op)),
        }
    }

    /// Deserialize `bytes` on this lane, taking the cheapest sound path.
    pub fn deserialize(&mut self, bytes: &[u8]) -> Result<(&[Value], DiffOutcome), DeserError> {
        match self {
            LaneDeserializer::Xml(d) => d.deserialize(bytes),
            LaneDeserializer::Bin1(d) => d.deserialize(bytes),
        }
    }

    /// [`LaneDeserializer::deserialize`] of a body the caller owns, kept by
    /// [`DiffShell::deserialize_owned`](crate::DiffShell::deserialize_owned).
    pub fn deserialize_owned(
        &mut self,
        body: &mut Vec<u8>,
    ) -> Result<(&[Value], DiffOutcome), DeserError> {
        match self {
            LaneDeserializer::Xml(d) => d.deserialize_owned(body),
            LaneDeserializer::Bin1(d) => d.deserialize_owned(body),
        }
    }
}
