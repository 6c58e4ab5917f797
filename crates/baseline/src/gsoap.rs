//! gSOAP-model streaming serializer.
//!
//! gSOAP compiles WSDL to C stubs that serialize arguments directly into a
//! send buffer on every call — nothing is remembered between calls. This
//! reimplementation keeps that architecture: one pass over the arguments,
//! converting values with the same routines bSOAP uses and appending tags
//! inline, into a buffer that is reused (but fully rewritten) per send.
//!
//! Using the *same* conversion routines as bSOAP is deliberate: the paper
//! notes bSOAP full serialization performs on par with gSOAP (Figures
//! 1–3), so the interesting delta — template reuse — is isolated from
//! incidental differences in number formatting speed.

use bsoap_convert::ScalarKind;
use bsoap_core::soap;
use bsoap_core::{EngineError, OpDesc, TypeDesc, Value};
use std::io::Write;

/// Streaming full serializer (one reusable buffer, rewritten every send).
#[derive(Debug, Default)]
pub struct GSoapLike {
    buf: Vec<u8>,
    scratch: Vec<u8>,
}

impl GSoapLike {
    /// New serializer with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Serialize a complete envelope for `op(args)`; the returned slice is
    /// valid until the next call.
    pub fn serialize(&mut self, op: &OpDesc, args: &[Value]) -> Result<&[u8], EngineError> {
        op.check_args(args)?;
        self.buf.clear();
        self.buf.extend_from_slice(soap::XML_DECL.as_bytes());
        self.buf
            .extend_from_slice(soap::envelope_open(&op.namespace).as_bytes());
        self.buf.extend_from_slice(soap::BODY_OPEN.as_bytes());
        self.buf
            .extend_from_slice(soap::op_open(&op.name).as_bytes());
        for (param, arg) in op.params.iter().zip(args) {
            match &param.desc {
                TypeDesc::Array { item } => self.array(&param.name, item, arg)?,
                desc => {
                    let tags = element_tags(&param.name, desc);
                    self.plain(&mut tags.iter(), &param.name, desc, arg)?;
                    self.buf.push(b'\n');
                }
            }
        }
        self.buf
            .extend_from_slice(soap::op_close(&op.name).as_bytes());
        self.buf.extend_from_slice(soap::CLOSES.as_bytes());
        Ok(&self.buf)
    }

    /// Serialize and write to `sink` — the baseline's "Send Time" path.
    pub fn send(
        &mut self,
        op: &OpDesc,
        args: &[Value],
        sink: &mut impl Write,
    ) -> Result<usize, EngineError> {
        self.serialize(op, args)?;
        sink.write_all(&self.buf)?;
        Ok(self.buf.len())
    }

    fn scalar_text(&mut self, v: &Value, kind: ScalarKind) -> Result<(), EngineError> {
        let err = || EngineError::TypeMismatch {
            at: "scalar".to_owned(),
            expected: kind.xsi_type(),
            found: v.variant_name(),
        };
        self.scratch.clear();
        match (kind, v) {
            (ScalarKind::Int, Value::Int(x)) => {
                let mut b = [0u8; 11];
                let n = bsoap_convert::write_i32(&mut b, *x);
                self.buf.extend_from_slice(&b[..n]);
            }
            (ScalarKind::Long, Value::Long(x)) => {
                let mut b = [0u8; 20];
                let n = bsoap_convert::write_i64(&mut b, *x);
                self.buf.extend_from_slice(&b[..n]);
            }
            (ScalarKind::Double, Value::Double(x)) => {
                let mut b = [0u8; bsoap_convert::DOUBLE_MAX_WIDTH];
                let n = bsoap_convert::write_f64(&mut b, *x);
                self.buf.extend_from_slice(&b[..n]);
            }
            (ScalarKind::Bool, Value::Bool(x)) => {
                self.buf
                    .extend_from_slice(bsoap_convert::format_bool(*x).as_bytes());
            }
            (ScalarKind::Str, Value::Str(s)) => {
                bsoap_xml::escape_text_into(&mut self.scratch, s);
                self.buf.extend_from_slice(&self.scratch);
            }
            _ => return Err(err()),
        }
        Ok(())
    }

    /// One non-array value, its tags read off `tags` in document order.
    fn plain<'t>(
        &mut self,
        tags: &mut impl Iterator<Item = &'t String>,
        name: &str,
        desc: &TypeDesc,
        value: &Value,
    ) -> Result<(), EngineError> {
        match (desc, value) {
            (TypeDesc::Scalar(kind), v) => {
                put_tag(&mut self.buf, tags);
                self.scalar_text(v, *kind)?;
                put_tag(&mut self.buf, tags);
                Ok(())
            }
            (TypeDesc::Struct { fields, .. }, Value::Struct(vals)) => {
                put_tag(&mut self.buf, tags);
                for ((fname, fdesc), fval) in fields.iter().zip(vals) {
                    self.plain(tags, fname, fdesc, fval)?;
                }
                put_tag(&mut self.buf, tags);
                Ok(())
            }
            (d, v) => Err(EngineError::TypeMismatch {
                at: format!("element {name}"),
                expected: match d {
                    TypeDesc::Struct { .. } => "Struct",
                    TypeDesc::Array { .. } => "Array",
                    TypeDesc::Scalar(_) => "scalar",
                },
                found: v.variant_name(),
            }),
        }
    }

    fn array(&mut self, name: &str, item: &TypeDesc, value: &Value) -> Result<(), EngineError> {
        let len = value.array_len().ok_or_else(|| EngineError::TypeMismatch {
            at: format!("array {name}"),
            expected: "array value",
            found: value.variant_name(),
        })?;
        let (prefix, suffix) = soap::array_open_parts(name, &item.xsi_type());
        self.buf.extend_from_slice(prefix.as_bytes());
        self.buf
            .extend_from_slice(bsoap_convert::format_u64(len as u64).as_bytes());
        self.buf.extend_from_slice(suffix.as_bytes());
        self.buf.push(b'\n');
        match (value, item) {
            (Value::DoubleArray(v), TypeDesc::Scalar(ScalarKind::Double)) => {
                let open = soap::scalar_open(soap::ITEM_NAME, "xsd:double");
                let close = soap::elem_close(soap::ITEM_NAME);
                let mut b = [0u8; bsoap_convert::DOUBLE_MAX_WIDTH];
                for &x in v {
                    self.buf.extend_from_slice(open.as_bytes());
                    let n = bsoap_convert::write_f64(&mut b, x);
                    self.buf.extend_from_slice(&b[..n]);
                    self.buf.extend_from_slice(close.as_bytes());
                }
            }
            (Value::IntArray(v), TypeDesc::Scalar(ScalarKind::Int)) => {
                let open = soap::scalar_open(soap::ITEM_NAME, "xsd:int");
                let close = soap::elem_close(soap::ITEM_NAME);
                let mut b = [0u8; 11];
                for &x in v {
                    self.buf.extend_from_slice(open.as_bytes());
                    let n = bsoap_convert::write_i32(&mut b, x);
                    self.buf.extend_from_slice(&b[..n]);
                    self.buf.extend_from_slice(close.as_bytes());
                }
            }
            (Value::Array(_), TypeDesc::Array { .. }) => {
                return Err(EngineError::StructureMismatch {
                    why: "nested arrays are not supported".into(),
                })
            }
            (Value::Array(elems), _) => {
                // A generated stub carries its tags as static strings:
                // format the item type's once, not once per element.
                let tags = element_tags(soap::ITEM_NAME, item);
                for elem in elems {
                    self.plain(&mut tags.iter(), soap::ITEM_NAME, item, elem)?;
                }
            }
            (v, _) => {
                return Err(EngineError::TypeMismatch {
                    at: format!("array {name}"),
                    expected: "array value matching item type",
                    found: v.variant_name(),
                })
            }
        }
        self.buf
            .extend_from_slice(soap::elem_close(name).as_bytes());
        self.buf.push(b'\n');
        Ok(())
    }
}

/// Append the next of `tags`.
fn put_tag<'t>(buf: &mut Vec<u8>, tags: &mut impl Iterator<Item = &'t String>) {
    let tag = tags.next().expect("one open and one close per element");
    buf.extend_from_slice(tag.as_bytes());
}

/// Every tag of one `desc` element named `name`, in document order: the
/// open, the tags of a struct's fields, the close.
fn element_tags(name: &str, desc: &TypeDesc) -> Vec<String> {
    fn collect(name: &str, desc: &TypeDesc, out: &mut Vec<String>) {
        out.push(soap::scalar_open(name, &desc.xsi_type()));
        if let TypeDesc::Struct { fields, .. } = desc {
            for (fname, fdesc) in fields {
                collect(fname, fdesc, out);
            }
        }
        out.push(soap::elem_close(name));
    }
    let mut tags = Vec::new();
    collect(name, desc, &mut tags);
    tags
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_shape() {
        let mut g = GSoapLike::new();
        let op = OpDesc::single(
            "send",
            "urn:bench",
            "arr",
            TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double)),
        );
        let text = String::from_utf8(
            g.serialize(&op, &[Value::DoubleArray(vec![1.5, 2.5])])
                .unwrap()
                .to_vec(),
        )
        .unwrap();
        assert!(text.starts_with("<?xml"));
        assert!(text.contains("SOAP-ENC:arrayType=\"xsd:double[2]\""));
        assert!(text.contains("<item xsi:type=\"xsd:double\">1.5</item>"));
        assert!(text.ends_with("</SOAP-ENV:Envelope>\n"));
    }

    #[test]
    fn send_counts_bytes() {
        let mut g = GSoapLike::new();
        let op = OpDesc::single("f", "urn:x", "v", TypeDesc::Scalar(ScalarKind::Int));
        let mut sink = Vec::new();
        let n = g.send(&op, &[Value::Int(5)], &mut sink).unwrap();
        assert_eq!(n, sink.len());
        assert!(n > 100, "an envelope is never tiny");
    }

    #[test]
    fn string_escaping_applied() {
        let mut g = GSoapLike::new();
        let op = OpDesc::single("f", "urn:x", "s", TypeDesc::Scalar(ScalarKind::Str));
        let out = g.serialize(&op, &[Value::Str("<&>".into())]).unwrap();
        let text = String::from_utf8(out.to_vec()).unwrap();
        assert!(text.contains("&lt;&amp;&gt;"));
    }

    #[test]
    fn empty_array() {
        let mut g = GSoapLike::new();
        let op = OpDesc::single(
            "f",
            "urn:x",
            "a",
            TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Int)),
        );
        let out = g.serialize(&op, &[Value::IntArray(vec![])]).unwrap();
        let text = String::from_utf8(out.to_vec()).unwrap();
        assert!(text.contains("xsd:int[0]"));
        assert!(!text.contains("<item"));
    }
}
