//! # bsoap-baseline — the paper's comparison toolkits, rebuilt
//!
//! The HPDC 2004 study compares bSOAP against two widely used SOAP stacks
//! of the era. Neither is usable here (gSOAP is C, XSOAP is Java), so this
//! crate reimplements their *serialization architectures* — the property
//! the comparison actually exercises:
//!
//! * [`GSoapLike`] — a streaming serializer in the gSOAP mold: walks the
//!   in-memory arguments on every send, converting each value and copying
//!   tags into one reusable output buffer. No state survives between
//!   sends. The paper observes bSOAP full serialization ≈ gSOAP; both
//!   appear in Figures 1–3.
//! * [`XSoapLike`] — a DOM-building serializer in the Java-toolkit mold:
//!   every send materializes an element tree with per-node heap
//!   allocations and per-value `String`s, then walks the tree into a fresh
//!   output buffer. The allocation-heavy two-pass design reproduces the
//!   constant-factor gap above the C-style serializers that Figure 2
//!   shows.
//!
//! Both produce envelopes byte-identical to bSOAP's first-time send
//! *modulo stuffing pad* (bSOAP stuffs its array-length field so resizes
//! never shift; the baselines, like the real toolkits, write natural
//! widths). Equivalence is asserted with [`bsoap_xml::strip_pad`] in this
//! crate's tests, so every Figure 1–3 comparison measures template reuse —
//! not formatting differences.

//! ```
//! use bsoap_baseline::GSoapLike;
//! use bsoap_core::{OpDesc, TypeDesc, Value};
//! use bsoap_convert::ScalarKind;
//!
//! let op = OpDesc::single("f", "urn:x", "v", TypeDesc::Scalar(ScalarKind::Double));
//! let mut g = GSoapLike::new();
//! let bytes = g.serialize(&op, &[Value::Double(0.5)]).unwrap();
//! assert!(std::str::from_utf8(bytes).unwrap().contains(">0.5</v>"));
//! ```

pub mod gsoap;
pub mod xsoap;

pub use gsoap::GSoapLike;
pub use xsoap::XSoapLike;

#[cfg(test)]
mod tests {
    use super::*;
    use bsoap_convert::ScalarKind;
    use bsoap_core::value::mio;
    use bsoap_core::{EngineConfig, MessageTemplate, OpDesc, TypeDesc, Value};
    use bsoap_xml::strip_pad;

    fn ops_and_args() -> Vec<(OpDesc, Vec<Value>)> {
        vec![
            (
                OpDesc::single(
                    "sendDoubles",
                    "urn:bench",
                    "arr",
                    TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double)),
                ),
                vec![Value::DoubleArray(vec![
                    0.25,
                    -1.5,
                    3e300,
                    f64::MIN_POSITIVE,
                ])],
            ),
            (
                OpDesc::single(
                    "sendInts",
                    "urn:bench",
                    "arr",
                    TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Int)),
                ),
                vec![Value::IntArray(vec![i32::MIN, -1, 0, 1, i32::MAX])],
            ),
            (
                OpDesc::single(
                    "sendMios",
                    "urn:bench",
                    "arr",
                    TypeDesc::array_of(TypeDesc::mio()),
                ),
                vec![Value::Array(vec![mio(1, -2, 0.5), mio(100, 200, -3.25)])],
            ),
            (
                OpDesc::new(
                    "mixed",
                    "urn:svc",
                    vec![
                        bsoap_core::ParamDesc {
                            name: "id".into(),
                            desc: TypeDesc::Scalar(ScalarKind::Int),
                        },
                        bsoap_core::ParamDesc {
                            name: "label".into(),
                            desc: TypeDesc::Scalar(ScalarKind::Str),
                        },
                        bsoap_core::ParamDesc {
                            name: "point".into(),
                            desc: TypeDesc::mio(),
                        },
                    ],
                ),
                vec![Value::Int(7), Value::Str("a<b&c".into()), mio(3, 4, 5.5)],
            ),
        ]
    }

    #[test]
    fn gsoap_matches_bsoap_full_serialization() {
        let mut g = GSoapLike::new();
        for (op, args) in ops_and_args() {
            let tpl = MessageTemplate::build(EngineConfig::paper_default(), &op, &args).unwrap();
            let baseline = g.serialize(&op, &args).unwrap().to_vec();
            assert_eq!(
                String::from_utf8(strip_pad(&baseline)).unwrap(),
                String::from_utf8(strip_pad(&tpl.to_bytes())).unwrap(),
                "op {}",
                op.name
            );
        }
    }

    #[test]
    fn xsoap_matches_gsoap_bytes() {
        let mut g = GSoapLike::new();
        let mut x = XSoapLike::new();
        for (op, args) in ops_and_args() {
            let a = g.serialize(&op, &args).unwrap().to_vec();
            let b = x.serialize(&op, &args).unwrap();
            assert_eq!(
                String::from_utf8(a).unwrap(),
                String::from_utf8(b).unwrap(),
                "op {}",
                op.name
            );
        }
    }

    #[test]
    fn repeated_serialization_is_stable() {
        let mut g = GSoapLike::new();
        let (op, args) = &ops_and_args()[0];
        let first = g.serialize(op, args).unwrap().to_vec();
        for _ in 0..3 {
            assert_eq!(g.serialize(op, args).unwrap(), &first[..]);
        }
    }

    #[test]
    fn type_errors_surface() {
        let mut g = GSoapLike::new();
        let mut x = XSoapLike::new();
        let op = OpDesc::single("f", "urn:x", "v", TypeDesc::Scalar(ScalarKind::Int));
        assert!(g.serialize(&op, &[Value::Double(1.0)]).is_err());
        assert!(x.serialize(&op, &[Value::Double(1.0)]).is_err());
        assert!(g.serialize(&op, &[]).is_err(), "arity");
    }
}
