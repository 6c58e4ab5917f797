//! Message schema: the structural description templates are keyed by.
//!
//! A [`TypeDesc`] plays the role the paper assigns to "a data structure
//! that contains information about the data item's type, including the
//! maximum size of its serialized form" (§3.1). An [`OpDesc`] describes one
//! remote operation — the WSDL-lite service description the client stub
//! works from.

use crate::error::EngineError;
use crate::value::Value;
use bsoap_convert::ScalarKind;

/// Structural type of a parameter or field.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TypeDesc {
    /// A scalar leaf.
    Scalar(ScalarKind),
    /// A named struct with ordered `(field name, type)` pairs.
    Struct {
        /// XML element name used for instances.
        name: String,
        /// Ordered fields.
        fields: Vec<(String, TypeDesc)>,
    },
    /// A SOAP-encoded array; elements serialize as `<item>` children.
    Array {
        /// Element type.
        item: Box<TypeDesc>,
    },
}

impl TypeDesc {
    /// Array-of-scalar convenience.
    pub fn array_of(item: TypeDesc) -> TypeDesc {
        TypeDesc::Array {
            item: Box::new(item),
        }
    }

    /// The paper's mesh interface object: `[int, int, double]` (§4.1).
    pub fn mio() -> TypeDesc {
        TypeDesc::Struct {
            name: "mio".to_owned(),
            fields: vec![
                ("x".to_owned(), TypeDesc::Scalar(ScalarKind::Int)),
                ("y".to_owned(), TypeDesc::Scalar(ScalarKind::Int)),
                ("value".to_owned(), TypeDesc::Scalar(ScalarKind::Double)),
            ],
        }
    }

    /// Number of scalar leaves one instance of this type contributes.
    ///
    /// For arrays this is the per-*element* count (array length is dynamic).
    pub fn leaves_per_instance(&self) -> usize {
        match self {
            TypeDesc::Scalar(_) => 1,
            TypeDesc::Struct { fields, .. } => {
                fields.iter().map(|(_, t)| t.leaves_per_instance()).sum()
            }
            TypeDesc::Array { item } => item.leaves_per_instance(),
        }
    }

    /// The `xsi:type` / `SOAP-ENC:arrayType` element type string.
    pub fn xsi_type(&self) -> String {
        match self {
            TypeDesc::Scalar(k) => k.xsi_type().to_owned(),
            TypeDesc::Struct { name, .. } => format!("ns1:{name}"),
            TypeDesc::Array { item } => format!("{}[]", item.xsi_type()),
        }
    }

    /// Append a canonical structural signature to `out`.
    ///
    /// Two messages have "the same structure — that is, the same header and
    /// field types" (§3) iff their signatures are equal. Array lengths are
    /// *excluded*: a length change is a partial structural match, not a
    /// different structure.
    pub fn signature_into(&self, out: &mut String) {
        match self {
            TypeDesc::Scalar(k) => {
                out.push_str(match k {
                    ScalarKind::Int => "i",
                    ScalarKind::Long => "l",
                    ScalarKind::Double => "d",
                    ScalarKind::Bool => "b",
                    ScalarKind::Str => "s",
                });
            }
            TypeDesc::Struct { name, fields } => {
                out.push('{');
                out.push_str(name);
                out.push(':');
                for (fname, ftype) in fields {
                    out.push_str(fname);
                    out.push('=');
                    ftype.signature_into(out);
                    out.push(',');
                }
                out.push('}');
            }
            TypeDesc::Array { item } => {
                out.push('[');
                item.signature_into(out);
                out.push(']');
            }
        }
    }

    /// Check that `value` is an instance of this type.
    pub fn check(&self, value: &Value, at: &str) -> Result<(), EngineError> {
        self.check_at(value, &At::Root(at))
    }

    fn check_at(&self, value: &Value, at: &At<'_>) -> Result<(), EngineError> {
        let mismatch = |expected: &'static str| EngineError::TypeMismatch {
            at: at.to_string(),
            expected,
            found: value.variant_name(),
        };
        match self {
            TypeDesc::Scalar(ScalarKind::Int) => match value {
                Value::Int(_) => Ok(()),
                _ => Err(mismatch("Int")),
            },
            TypeDesc::Scalar(ScalarKind::Long) => match value {
                Value::Long(_) => Ok(()),
                _ => Err(mismatch("Long")),
            },
            TypeDesc::Scalar(ScalarKind::Double) => match value {
                Value::Double(_) => Ok(()),
                _ => Err(mismatch("Double")),
            },
            TypeDesc::Scalar(ScalarKind::Bool) => match value {
                Value::Bool(_) => Ok(()),
                _ => Err(mismatch("Bool")),
            },
            TypeDesc::Scalar(ScalarKind::Str) => match value {
                Value::Str(_) => Ok(()),
                _ => Err(mismatch("Str")),
            },
            TypeDesc::Struct { fields, .. } => match value {
                Value::Struct(vals) => {
                    if vals.len() != fields.len() {
                        return Err(EngineError::StructureMismatch {
                            why: format!(
                                "{at}: struct has {} fields, value has {}",
                                fields.len(),
                                vals.len()
                            ),
                        });
                    }
                    for (i, ((fname, ftype), v)) in fields.iter().zip(vals).enumerate() {
                        ftype.check_at(v, &At::Field(at, fname, i))?;
                    }
                    Ok(())
                }
                _ => Err(mismatch("Struct")),
            },
            TypeDesc::Array { item } => match (value, item.as_ref()) {
                (Value::DoubleArray(_), TypeDesc::Scalar(ScalarKind::Double)) => Ok(()),
                (Value::IntArray(_), TypeDesc::Scalar(ScalarKind::Int)) => Ok(()),
                (Value::Array(elems), _) => {
                    for (i, e) in elems.iter().enumerate() {
                        item.check_at(e, &At::Elem(at, i))?;
                    }
                    Ok(())
                }
                _ => Err(mismatch("Array")),
            },
        }
    }
}

/// Where in an argument list a check stands: a path borrowed down the
/// recursion and rendered only when a mismatch is reported, so a check
/// that passes — every send — formats and allocates nothing.
enum At<'a> {
    Root(&'a str),
    Param(usize, &'a str),
    Field(&'a At<'a>, &'a str, usize),
    Elem(&'a At<'a>, usize),
}

impl std::fmt::Display for At<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            At::Root(at) => f.write_str(at),
            At::Param(i, name) => write!(f, "param {i} ({name})"),
            At::Field(at, name, i) => write!(f, "{at}.{name}[{i}]"),
            At::Elem(at, i) => write!(f, "{at}[{i}]"),
        }
    }
}

/// One declared parameter of an operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParamDesc {
    /// XML element name of the parameter.
    pub name: String,
    /// Its type.
    pub desc: TypeDesc,
}

/// A remote operation: the unit a template serves.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpDesc {
    /// Operation (RPC method) name; becomes the `ns1:` wrapper element.
    pub name: String,
    /// Target namespace URI advertised as `xmlns:ns1`.
    pub namespace: String,
    /// Ordered parameters.
    pub params: Vec<ParamDesc>,
}

impl OpDesc {
    /// Construct an operation description.
    pub fn new(name: &str, namespace: &str, params: Vec<ParamDesc>) -> Self {
        OpDesc {
            name: name.to_owned(),
            namespace: namespace.to_owned(),
            params,
        }
    }

    /// Single-parameter convenience used throughout the paper's benchmarks
    /// ("sending a single array containing 1 … 100K doubles", §4.1).
    pub fn single(name: &str, namespace: &str, param_name: &str, desc: TypeDesc) -> Self {
        OpDesc::new(
            name,
            namespace,
            vec![ParamDesc {
                name: param_name.to_owned(),
                desc,
            }],
        )
    }

    /// Canonical structural signature of the whole operation.
    pub fn signature(&self) -> String {
        let mut sig = String::with_capacity(64);
        sig.push_str(&self.name);
        sig.push('(');
        for p in &self.params {
            sig.push_str(&p.name);
            sig.push(':');
            p.desc.signature_into(&mut sig);
            sig.push(';');
        }
        sig.push(')');
        sig
    }

    /// Validate an argument list against the declared parameters — the
    /// one place the engine decides whether a value fits its schema
    /// (DESIGN §3.1). What it returns is the only way into the walks
    /// below it, which trust it and check nothing again.
    pub fn check_args<'a>(&self, args: &'a [Value]) -> Result<CheckedArgs<'a>, EngineError> {
        if args.len() != self.params.len() {
            return Err(EngineError::ArityMismatch {
                expected: self.params.len(),
                found: args.len(),
            });
        }
        for (i, (p, a)) in self.params.iter().zip(args).enumerate() {
            p.desc.check_at(a, &At::Param(i, &p.name))?;
        }
        Ok(checked::CheckedArgs(args))
    }

    /// The parameter and item type of an operation whose only parameter
    /// is an array — the contract of the overlay sender and the
    /// streaming deserializer.
    pub fn sole_array(&self) -> Result<(&ParamDesc, &TypeDesc), EngineError> {
        match self.params.as_slice() {
            [param @ ParamDesc {
                desc: TypeDesc::Array { item },
                ..
            }] => Ok((param, &**item)),
            _ => Err(EngineError::StructureMismatch {
                why: format!("{} does not take exactly one array parameter", self.name),
            }),
        }
    }
}

pub(crate) use checked::CheckedArgs;

mod checked {
    use crate::value::Value;

    /// An argument list [`OpDesc::check_args`](super::OpDesc::check_args)
    /// accepted. Its field is private to this module, so `check_args` is
    /// the only code that builds one, and a walk that takes one needs no
    /// check of its own. (Declared `pub` in a private module: nameable
    /// inside the crate only.)
    #[derive(Clone, Copy, Debug)]
    pub struct CheckedArgs<'a>(pub(super) &'a [Value]);

    impl<'a> CheckedArgs<'a> {
        /// The checked values.
        pub(crate) fn values(self) -> &'a [Value] {
            self.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::mio;

    #[test]
    fn leaves_per_instance() {
        assert_eq!(
            TypeDesc::Scalar(ScalarKind::Double).leaves_per_instance(),
            1
        );
        assert_eq!(TypeDesc::mio().leaves_per_instance(), 3);
        assert_eq!(TypeDesc::array_of(TypeDesc::mio()).leaves_per_instance(), 3);
    }

    #[test]
    fn signatures_distinguish_structure_not_length() {
        let op_a = OpDesc::single(
            "send",
            "urn:x",
            "arr",
            TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double)),
        );
        let op_b = OpDesc::single(
            "send",
            "urn:x",
            "arr",
            TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Int)),
        );
        assert_ne!(op_a.signature(), op_b.signature());
        // Same op, any array length → same signature (length is dynamic).
        assert_eq!(op_a.signature(), op_a.signature());
    }

    #[test]
    fn mio_signature_mentions_fields() {
        let sig =
            OpDesc::single("m", "urn:x", "a", TypeDesc::array_of(TypeDesc::mio())).signature();
        assert!(sig.contains("x=i"), "{sig}");
        assert!(sig.contains("value=d"), "{sig}");
    }

    #[test]
    fn xsi_types() {
        assert_eq!(
            TypeDesc::Scalar(ScalarKind::Double).xsi_type(),
            "xsd:double"
        );
        assert_eq!(TypeDesc::mio().xsi_type(), "ns1:mio");
        assert_eq!(
            TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Int)).xsi_type(),
            "xsd:int[]"
        );
    }

    #[test]
    fn check_accepts_matching_values() {
        let desc = TypeDesc::array_of(TypeDesc::mio());
        let val = Value::Array(vec![mio(1, 2, 3.0), mio(4, 5, 6.0)]);
        assert!(desc.check(&val, "root").is_ok());
    }

    #[test]
    fn check_rejects_mismatches() {
        let desc = TypeDesc::Scalar(ScalarKind::Double);
        assert!(desc.check(&Value::Int(1), "root").is_err());
        let arr = TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double));
        assert!(arr.check(&Value::IntArray(vec![1]), "root").is_err());
        let st = TypeDesc::mio();
        assert!(
            st.check(&Value::Struct(vec![Value::Int(1), Value::Int(2)]), "root")
                .is_err(),
            "wrong field count"
        );
    }

    #[test]
    fn arity_checking() {
        let op = OpDesc::single("f", "urn:x", "v", TypeDesc::Scalar(ScalarKind::Int));
        assert!(op.check_args(&[Value::Int(1)]).is_ok());
        assert!(op.check_args(&[]).is_err());
        assert!(op.check_args(&[Value::Int(1), Value::Int(2)]).is_err());
    }

    #[test]
    fn sole_array_is_the_one_array_parameter() {
        let doubles = TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double));
        let op = OpDesc::single("f", "urn:x", "xs", doubles.clone());
        let (param, item) = op.sole_array().unwrap();
        assert_eq!(
            (param.name.as_str(), item),
            ("xs", &TypeDesc::Scalar(ScalarKind::Double))
        );
        let scalar = OpDesc::single("f", "urn:x", "v", TypeDesc::Scalar(ScalarKind::Int));
        let p = |name: &str| ParamDesc {
            name: name.to_owned(),
            desc: doubles.clone(),
        };
        let two = OpDesc::new("f", "urn:x", vec![p("a"), p("b")]);
        let none = OpDesc::new("f", "urn:x", Vec::new());
        for op in [scalar, two, none] {
            let refused = op.sole_array().unwrap_err();
            assert!(matches!(refused, EngineError::StructureMismatch { .. }));
        }
    }
}
