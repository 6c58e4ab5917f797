//! SOAP 1.1 envelope skeleton and tag construction.
//!
//! Templates always emit the same fixed prefixes and namespace
//! declarations, so these byte strings are build-time constants assembled
//! here. Tag text is written into templates exactly once (the entire point
//! of the technique: "the serialization … of the SOAP message metadata
//! (tags) can be avoided", §3).

use bsoap_xml::name::uris;

/// XML declaration line.
pub const XML_DECL: &str = "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n";

/// Build the `<SOAP-ENV:Envelope …>` open tag with the five standard
/// namespace declarations plus the operation namespace bound to `ns1`.
pub fn envelope_open(op_namespace: &str) -> String {
    format!(
        "<SOAP-ENV:Envelope xmlns:SOAP-ENV=\"{}\" xmlns:SOAP-ENC=\"{}\" \
         xmlns:xsi=\"{}\" xmlns:xsd=\"{}\" xmlns:ns1=\"{}\" \
         SOAP-ENV:encodingStyle=\"{}\">\n",
        uris::SOAP_ENV,
        uris::SOAP_ENC,
        uris::XSI,
        uris::XSD,
        op_namespace,
        uris::SOAP_ENC,
    )
}

/// `<SOAP-ENV:Body>` open tag.
pub const BODY_OPEN: &str = "<SOAP-ENV:Body>\n";
/// Envelope/body closing run.
pub const CLOSES: &str = "</SOAP-ENV:Body>\n</SOAP-ENV:Envelope>\n";

/// `<ns1:opname>` wrapper open tag.
pub fn op_open(op_name: &str) -> String {
    format!("<ns1:{op_name}>\n")
}

/// `</ns1:opname>` wrapper close tag.
pub fn op_close(op_name: &str) -> String {
    format!("</ns1:{op_name}>\n")
}

/// Open tag of a scalar leaf element with an `xsi:type` attribute:
/// `<name xsi:type="xsd:double">`.
pub fn scalar_open(name: &str, xsi_type: &str) -> String {
    format!("<{name} xsi:type=\"{xsi_type}\">")
}

/// Close tag `</name>`.
pub fn elem_close(name: &str) -> String {
    format!("</{name}>")
}

/// SOAP-encoded array open tag, split around the length so the length can
/// be a DUT-tracked field:
/// returns `(prefix, suffix)` with the message form
/// `{prefix}{N}{suffix}` =
/// `<name xsi:type="SOAP-ENC:Array" SOAP-ENC:arrayType="xsd:double[N]">`.
pub fn array_open_parts(name: &str, item_xsi_type: &str) -> (String, &'static str) {
    (
        format!("<{name} xsi:type=\"SOAP-ENC:Array\" SOAP-ENC:arrayType=\"{item_xsi_type}["),
        "]\">",
    )
}

/// Element name used for SOAP-encoded array members.
pub const ITEM_NAME: &str = "item";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_open_declares_all_namespaces() {
        let e = envelope_open("urn:bench");
        for needle in [
            "SOAP-ENV",
            "SOAP-ENC",
            "xmlns:xsi",
            "xmlns:xsd",
            "urn:bench",
            "encodingStyle",
        ] {
            assert!(e.contains(needle), "missing {needle} in {e}");
        }
        assert!(e.starts_with("<SOAP-ENV:Envelope "));
        assert!(e.ends_with(">\n"));
    }

    #[test]
    fn tag_builders() {
        assert_eq!(op_open("sendDoubles"), "<ns1:sendDoubles>\n");
        assert_eq!(op_close("sendDoubles"), "</ns1:sendDoubles>\n");
        assert_eq!(
            scalar_open("item", "xsd:int"),
            "<item xsi:type=\"xsd:int\">"
        );
        assert_eq!(elem_close("item"), "</item>");
    }

    #[test]
    fn array_open_parts_compose() {
        let (prefix, suffix) = array_open_parts("arr", "xsd:double");
        let assembled = format!("{prefix}100{suffix}");
        assert_eq!(
            assembled,
            "<arr xsi:type=\"SOAP-ENC:Array\" SOAP-ENC:arrayType=\"xsd:double[100]\">"
        );
    }
}
