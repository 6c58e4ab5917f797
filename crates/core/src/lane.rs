//! The wire lane: everything that differs between the formats a template
//! can serialize into (§ DESIGN 3.15).
//!
//! The DUT/tier machinery is format-agnostic — a template is bytes plus
//! tracked value locations — so one builder, planner and patcher serve
//! every lane. What a lane *decides* is listed here and nowhere else: its
//! identity on the wire (negotiation token, content type, magic, counter,
//! table index), how a leaf is encoded and how wide its field starts, and
//! the framing bytes around a scalar, a struct, an array and the envelope.
//! Each is a `match` on [`WireFormat`]; XML arms speak [`crate::soap`],
//! bin1 arms speak [`crate::wire`]. Decoding is `bsoap-deser`'s `lane`
//! module; adding or removing a lane touches these two files plus
//! `bsoap_obs::Counter`.

use crate::config::WidthPolicy;
use crate::schema::{OpDesc, TypeDesc};
use crate::value::Scalar;
use crate::{soap, wire};
use bsoap_convert::{FloatFormatter, ScalarKind};
use bsoap_obs::Counter;

/// Which wire framing templates serialize into.
///
/// Binary leaves are fixed-width little-endian (ints/longs/doubles/bools
/// never change serialized length), so `flush` degenerates to in-place
/// overwrites and the planner never emits shifts or steals for numeric
/// workloads: tier 3 collapses into tier 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WireFormat {
    /// The paper's SOAP 1.1 XML envelope (lexical values, stuffing,
    /// stealing, shifting — the full §3 machinery).
    SoapXml,
    /// Compact binary framing: magic + tagged fixed-width LE scalars,
    /// length-prefixed strings, count-prefixed arrays. Negotiated
    /// per-endpoint via `X-BSOAP-Accept`/`X-BSOAP-Format`.
    CompactBinary,
}

/// The framing regions before and after one value; either may be empty.
pub(crate) type Tags = (Vec<u8>, Vec<u8>);

fn xml_tags(open: String, name: &str) -> Tags {
    (open.into_bytes(), soap::elem_close(name).into_bytes())
}

// Identity: how peers, tables and counters name a lane.
impl WireFormat {
    /// Every lane, in [`WireFormat::index`] order.
    pub const ALL: [WireFormat; 2] = [WireFormat::SoapXml, WireFormat::CompactBinary];

    /// `X-BSOAP-Accept` value a peer sends while it accepts the
    /// negotiated lanes.
    pub const ADVERT: &'static str = "bin1";

    /// This lane's position in [`WireFormat::ALL`] — the index of every
    /// per-lane table (`ALL.map(..)` builds one, `table[lane.index()]`
    /// reads it).
    pub fn index(self) -> usize {
        match self {
            WireFormat::SoapXml => 0,
            WireFormat::CompactBinary => 1,
        }
    }

    /// Parse a format name (case-insensitive, separators optional).
    /// `bin1` is the on-the-wire negotiation token and parses too. Runs
    /// per message on both ends, so it allocates nothing.
    pub fn from_name(name: &str) -> Option<Self> {
        let name = name.trim();
        let any_of = |names: &[&str]| names.iter().any(|n| name.eq_ignore_ascii_case(n));
        let bin1 = [
            "bin1",
            "binary",
            "bin",
            "compact_binary",
            "compactbinary",
            "compact-binary",
        ];
        if any_of(&["xml", "soap_xml", "soapxml", "soap-xml"]) {
            Some(WireFormat::SoapXml)
        } else if any_of(&bin1) {
            Some(WireFormat::CompactBinary)
        } else {
            None
        }
    }

    /// The canonical on-the-wire token for this format, as carried in
    /// `X-BSOAP-Accept` / `X-BSOAP-Format` headers. Round-trips through
    /// [`WireFormat::from_name`].
    pub fn name(self) -> &'static str {
        match self {
            WireFormat::SoapXml => "xml",
            WireFormat::CompactBinary => "bin1",
        }
    }

    /// The lane a message body is in: its `X-BSOAP-Format` token when the
    /// header arrived (unknown tokens read as XML — a peer that ignores
    /// the header entirely behaves the same way), else a sniff of the
    /// body's magic for header-less peers.
    pub fn of_message(token: Option<&str>, body: &[u8]) -> Self {
        match token {
            Some(token) => Self::from_name(token).unwrap_or(WireFormat::SoapXml),
            None if body.starts_with(wire::MAGIC) => WireFormat::CompactBinary,
            None => WireFormat::SoapXml,
        }
    }

    /// Whether a peer must advertise this lane before it is used (and a
    /// service may switch it off): every lane but the XML all SOAP peers
    /// speak.
    pub fn negotiated(self) -> bool {
        match self {
            WireFormat::SoapXml => false,
            WireFormat::CompactBinary => true,
        }
    }

    /// Body `Content-Type` of a message on this lane.
    pub fn content_type(self) -> &'static str {
        match self {
            WireFormat::SoapXml => "text/xml; charset=utf-8",
            WireFormat::CompactBinary => "application/x-bsoap-binary",
        }
    }

    /// The per-lane send counter every send on this format ticks (client
    /// sends and server responses alike).
    pub fn send_counter(self) -> Counter {
        match self {
            WireFormat::SoapXml => Counter::SendsXml,
            WireFormat::CompactBinary => Counter::SendsBinary,
        }
    }
}

// Leaves: encoding and the initial-width rule.
impl WireFormat {
    /// Append `value`'s serialization to `out`: the XML lexical form, or
    /// one tagged bin1 record. Every template-internal serialization site
    /// routes through here, and each appends to the buffer the bytes end
    /// up in (the builder's region, the planner's blob).
    pub(crate) fn encode_leaf(self, value: &Scalar, out: &mut Vec<u8>, float: FloatFormatter) {
        match self {
            WireFormat::SoapXml => value.append_lexical(out, float),
            WireFormat::CompactBinary => wire::write_leaf(out, value),
        }
    }

    /// Field width a leaf of `ser_len` serialized bytes starts with.
    /// `floor` asks for at least that much (the array-length field, so a
    /// resize never shifts). XML stuffs per `policy`; a bin1 record is
    /// always exactly its serialized length — numerics are fixed-width by
    /// construction and strings carry their own length prefix.
    pub(crate) fn initial_width(
        self,
        policy: WidthPolicy,
        kind: ScalarKind,
        ser_len: usize,
        floor: Option<usize>,
    ) -> usize {
        match (self, floor) {
            (WireFormat::SoapXml, Some(w)) => w.max(ser_len),
            (WireFormat::SoapXml, None) => policy.initial_width(kind, ser_len),
            (WireFormat::CompactBinary, _) => ser_len,
        }
    }
}

// Framing: the bytes around values. Every function hands out whole
// chunk-store regions, so the builder's region sequence — and with it the
// chunk geometry — is the lane's to define.
impl WireFormat {
    /// Everything before the first parameter, one `region` call per
    /// chunk-store region.
    pub(crate) fn open_envelope(self, op: &OpDesc, mut region: impl FnMut(&[u8])) {
        match self {
            WireFormat::SoapXml => {
                region(soap::XML_DECL.as_bytes());
                region(soap::envelope_open(&op.namespace).as_bytes());
                region(soap::BODY_OPEN.as_bytes());
                region(soap::op_open(&op.name).as_bytes());
            }
            WireFormat::CompactBinary => {
                let mut prologue = Vec::with_capacity(16 + op.name.len());
                wire::write_prologue(&mut prologue, &op.name, op.params.len());
                region(&prologue);
            }
        }
    }

    /// Everything after the last parameter.
    pub(crate) fn close_envelope(self, op: &OpDesc, mut region: impl FnMut(&[u8])) {
        match self {
            WireFormat::SoapXml => {
                region(soap::op_close(&op.name).as_bytes());
                region(soap::CLOSES.as_bytes());
            }
            WireFormat::CompactBinary => region(&[wire::END]),
        }
    }

    /// Region after a parameter, an array's length field and an array's
    /// close.
    pub(crate) fn separator(self) -> &'static [u8] {
        match self {
            WireFormat::SoapXml => b"\n",
            WireFormat::CompactBinary => b"",
        }
    }

    /// Around a scalar leaf; the close is the leaf's DUT-tracked suffix.
    pub(crate) fn scalar_tags(self, name: &str, kind: ScalarKind) -> Tags {
        match self {
            WireFormat::SoapXml => xml_tags(soap::scalar_open(name, kind.xsi_type()), name),
            WireFormat::CompactBinary => Tags::default(),
        }
    }

    /// Around a struct's fields.
    pub(crate) fn struct_tags(self, name: &str, desc: &TypeDesc) -> Tags {
        match self {
            WireFormat::SoapXml => xml_tags(soap::scalar_open(name, &desc.xsi_type()), name),
            WireFormat::CompactBinary => (vec![wire::STRUCT_BEGIN], vec![wire::STRUCT_END]),
        }
    }

    /// Around an array, plus the suffix of its DUT-tracked element count:
    /// open, count, count suffix, elements, close.
    pub(crate) fn array_tags(self, name: &str, item: &TypeDesc) -> (Tags, &'static [u8]) {
        match self {
            WireFormat::SoapXml => {
                let (open, count_suffix) = soap::array_open_parts(name, &item.xsi_type());
                (xml_tags(open, name), count_suffix.as_bytes())
            }
            WireFormat::CompactBinary => ((vec![wire::ARRAY_BEGIN], vec![wire::ARRAY_END]), b""),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_a_bijection_over_all() {
        for lane in WireFormat::ALL {
            assert_eq!(WireFormat::ALL[lane.index()], lane);
            assert_eq!(WireFormat::of_message(Some(lane.name()), b""), lane);
        }
        let distinct = |f: fn(WireFormat) -> &'static str| {
            let mut seen = WireFormat::ALL.map(f).to_vec();
            seen.sort_unstable();
            seen.dedup();
            seen.len() == WireFormat::ALL.len()
        };
        assert!(distinct(WireFormat::name));
        assert!(distinct(|l| l.send_counter().name()));
    }

    #[test]
    fn the_advert_names_exactly_the_negotiated_lanes() {
        let negotiated: Vec<_> = WireFormat::ALL
            .into_iter()
            .filter(|l| l.negotiated())
            .map(WireFormat::name)
            .collect();
        assert_eq!(negotiated.join(","), WireFormat::ADVERT);
    }

    #[test]
    fn names_parse() {
        for name in ["xml", "soap_xml", "SoapXml", " SOAP-XML "] {
            assert_eq!(WireFormat::from_name(name), Some(WireFormat::SoapXml));
        }
        for name in ["binary", "bin", "bin1", "compact_binary", "Compact-Binary"] {
            assert_eq!(WireFormat::from_name(name), Some(WireFormat::CompactBinary));
        }
        assert_eq!(WireFormat::from_name("msgpack"), None);
    }

    #[test]
    fn message_lane_is_header_then_magic() {
        let bin = [&wire::MAGIC[..], b"rest"].concat();
        assert_eq!(
            WireFormat::of_message(None, &bin),
            WireFormat::CompactBinary
        );
        assert_eq!(WireFormat::of_message(None, b"<?xml"), WireFormat::SoapXml);
        assert_eq!(WireFormat::of_message(None, b"BS"), WireFormat::SoapXml);
        // The header wins over the body, and an unknown token reads as XML.
        assert_eq!(
            WireFormat::of_message(Some("xml"), &bin),
            WireFormat::SoapXml
        );
        assert_eq!(
            WireFormat::of_message(Some("bin9"), &bin),
            WireFormat::SoapXml
        );
    }
}
