//! In-memory value model.
//!
//! [`Value`] is what applications hand to the engine; [`Scalar`] is the
//! engine's per-leaf storage inside the DUT table.
//!
//! The paper foresees "all 'serializable' data to be located in objects
//! that contain 'get' and 'set' methods, whose implementation will update
//! the DUT table transparently" (§3.1). In safe Rust the template cannot
//! alias application memory with raw pointers, so the template *owns* the
//! current scalar for each leaf and exposes exactly those accessors
//! ([`crate::MessageTemplate::set_double`] etc.), which mark dirty bits.
//!
//! Arrays of `f64`/`i32` have dedicated variants so scientific workloads
//! (the paper's target) avoid per-element boxing.

use bsoap_convert::{FloatFormatter, ScalarKind};

/// A single leaf value as stored in the DUT table.
#[derive(Clone, Debug, PartialEq)]
pub enum Scalar {
    /// `xsd:int`.
    Int(i32),
    /// `xsd:long`.
    Long(i64),
    /// `xsd:double`.
    Double(f64),
    /// `xsd:boolean`.
    Bool(bool),
    /// `xsd:string` (unescaped application form).
    Str(Box<str>),
}

impl Scalar {
    /// The kind tag for this scalar.
    pub fn kind(&self) -> ScalarKind {
        match self {
            Scalar::Int(_) => ScalarKind::Int,
            Scalar::Long(_) => ScalarKind::Long,
            Scalar::Double(_) => ScalarKind::Double,
            Scalar::Bool(_) => ScalarKind::Bool,
            Scalar::Str(_) => ScalarKind::Str,
        }
    }

    /// The leaf `value` is. Only for values [`crate::OpDesc::check_args`]
    /// admitted at a scalar position: the schema already said it is one.
    pub(crate) fn of(value: &Value) -> Scalar {
        match value {
            Value::Int(x) => Scalar::Int(*x),
            Value::Long(x) => Scalar::Long(*x),
            Value::Double(x) => Scalar::Double(*x),
            Value::Bool(x) => Scalar::Bool(*x),
            Value::Str(x) => Scalar::Str(x.as_str().into()),
            other => unreachable!("check_args admitted {} as a leaf", other.variant_name()),
        }
    }

    /// Bitwise/structural equality — `NaN == NaN`, `0.0 != -0.0` — so a
    /// rewrite of the same bits never dirties a leaf spuriously.
    pub fn same_as(&self, other: &Scalar) -> bool {
        match (self, other) {
            (Scalar::Double(a), Scalar::Double(b)) => a.to_bits() == b.to_bits(),
            (a, b) => a == b,
        }
    }

    /// Serialize this scalar's lexical form into `out` (cleared first)
    /// using the paper's exact conversion kernel.
    ///
    /// Strings are XML-escaped here; numeric forms never need escaping.
    pub fn serialize_into(&self, out: &mut Vec<u8>) {
        out.clear();
        self.append_lexical(
            out,
            FloatFormatter::Exact2004,
            bsoap_kernels::KernelPolicy::Scalar,
        );
    }

    /// Append this scalar's lexical form to `out`, converting doubles with
    /// `float` (both kernels emit the same bytes; only the conversion cost
    /// differs) and dispatching the byte kernels on `kernel`: integers go
    /// through the branchless stuffed-itoa kernel and strings through the
    /// SIMD escape scanner when it resolves to a SIMD level. Output is
    /// byte-identical across every policy (property-tested).
    pub fn append_lexical(
        &self,
        out: &mut Vec<u8>,
        float: FloatFormatter,
        kernel: bsoap_kernels::KernelPolicy,
    ) {
        match self {
            Scalar::Int(v) => {
                let mut buf = [0u8; 11];
                let n = bsoap_convert::write_i32_with(&mut buf, *v, kernel);
                out.extend_from_slice(&buf[..n]);
            }
            Scalar::Long(v) => {
                let mut buf = [0u8; 20];
                let n = bsoap_convert::write_i64_with(&mut buf, *v, kernel);
                out.extend_from_slice(&buf[..n]);
            }
            Scalar::Double(v) => {
                let mut buf = [0u8; bsoap_convert::DOUBLE_MAX_WIDTH];
                let n = float.write_f64(&mut buf, *v);
                out.extend_from_slice(&buf[..n]);
            }
            Scalar::Bool(v) => out.extend_from_slice(bsoap_convert::format_bool(*v).as_bytes()),
            Scalar::Str(s) => bsoap_xml::escape_text_into_with(out, s, kernel),
        }
    }
}

/// An application-level value: what gets passed as an RPC argument.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `xsd:int`.
    Int(i32),
    /// `xsd:long`.
    Long(i64),
    /// `xsd:double`.
    Double(f64),
    /// `xsd:boolean`.
    Bool(bool),
    /// `xsd:string`.
    Str(String),
    /// A struct; fields in the order declared by its [`crate::TypeDesc`].
    Struct(Vec<Value>),
    /// Homogeneous array of doubles (fast path, no boxing).
    DoubleArray(Vec<f64>),
    /// Homogeneous array of ints (fast path, no boxing).
    IntArray(Vec<i32>),
    /// Generic array (e.g. of structs like the paper's MIOs).
    Array(Vec<Value>),
}

impl Value {
    /// Short name of the variant, for error messages.
    pub fn variant_name(&self) -> &'static str {
        match self {
            Value::Int(_) => "Int",
            Value::Long(_) => "Long",
            Value::Double(_) => "Double",
            Value::Bool(_) => "Bool",
            Value::Str(_) => "Str",
            Value::Struct(_) => "Struct",
            Value::DoubleArray(_) => "DoubleArray",
            Value::IntArray(_) => "IntArray",
            Value::Array(_) => "Array",
        }
    }

    /// Array length if this is any array variant.
    pub fn array_len(&self) -> Option<usize> {
        match self {
            Value::DoubleArray(v) => Some(v.len()),
            Value::IntArray(v) => Some(v.len()),
            Value::Array(v) => Some(v.len()),
            _ => None,
        }
    }
}

/// Convenience constructor for the paper's mesh interface object
/// (`[int, int, double]` — mesh coordinates plus a field value, §4.1).
pub fn mio(x: i32, y: i32, value: f64) -> Value {
    Value::Struct(vec![Value::Int(x), Value::Int(y), Value::Double(value)])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lexical(s: &Scalar) -> String {
        let mut out = Vec::new();
        s.serialize_into(&mut out);
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn scalar_serialization() {
        assert_eq!(lexical(&Scalar::Int(-42)), "-42");
        assert_eq!(lexical(&Scalar::Long(1 << 40)), "1099511627776");
        assert_eq!(lexical(&Scalar::Double(0.5)), "0.5");
        assert_eq!(lexical(&Scalar::Bool(true)), "true");
        assert_eq!(lexical(&Scalar::Str("a<b".into())), "a&lt;b");
    }

    #[test]
    fn scalar_kinds() {
        assert_eq!(Scalar::Int(0).kind(), ScalarKind::Int);
        assert_eq!(Scalar::Double(0.0).kind(), ScalarKind::Double);
        assert_eq!(Scalar::Str("".into()).kind(), ScalarKind::Str);
    }

    #[test]
    fn same_as_handles_float_edge_cases() {
        assert!(Scalar::Double(f64::NAN).same_as(&Scalar::Double(f64::NAN)));
        assert!(!Scalar::Double(0.0).same_as(&Scalar::Double(-0.0)));
        assert!(Scalar::Int(5).same_as(&Scalar::Int(5)));
        assert!(!Scalar::Int(5).same_as(&Scalar::Long(5)));
    }

    #[test]
    fn serialize_reuses_buffer() {
        let mut out = Vec::with_capacity(32);
        Scalar::Int(1).serialize_into(&mut out);
        assert_eq!(out, b"1");
        Scalar::Int(22).serialize_into(&mut out);
        assert_eq!(out, b"22", "buffer must be cleared, not appended");
    }

    #[test]
    fn mio_shape() {
        let m = mio(1, 2, 3.5);
        let Value::Struct(fields) = &m else { panic!() };
        assert_eq!(fields.len(), 3);
        assert_eq!(m.array_len(), None);
        assert_eq!(Value::DoubleArray(vec![1.0]).array_len(), Some(1));
    }
}
