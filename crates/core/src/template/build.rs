//! First-time send: full serialization and template construction.
//!
//! "Messages are completely serialized and saved during the first
//! invocation of the SOAP call" (§1). The builder walks the argument
//! values, appending tag runs and DUT-tracked field regions to the chunk
//! store in document order.

use super::{ArrayInfo, MessageTemplate, TemplateStats};
use crate::config::EngineConfig;
use crate::dut::{DutEntry, DutTable};
use crate::error::EngineError;
use crate::schema::{OpDesc, TypeDesc};
use crate::soap;
use crate::value::{Scalar, Value};
use bsoap_chunks::{ChunkStore, Loc};
use bsoap_convert::{ScalarKind, INT_MAX_WIDTH};

/// Byte length of the fixed close-tag run after an element's last leaf
/// region (0 for scalar items — their close tag is the leaf suffix).
pub(crate) fn elem_close_run(item_desc: &TypeDesc) -> usize {
    match item_desc {
        TypeDesc::Scalar(_) => 0,
        TypeDesc::Struct { .. } => {
            last_field_close_run(item_desc) + soap::elem_close(soap::ITEM_NAME).len()
        }
        TypeDesc::Array { .. } => unreachable!("validated: no nested arrays"),
    }
}

fn last_field_close_run(desc: &TypeDesc) -> usize {
    match desc {
        TypeDesc::Struct { fields, .. } => {
            let (fname, fdesc) = fields.last().expect("structs have fields");
            match fdesc {
                TypeDesc::Scalar(_) => 0,
                TypeDesc::Struct { .. } => {
                    last_field_close_run(fdesc) + soap::elem_close(fname).len()
                }
                TypeDesc::Array { .. } => unreachable!("validated: no nested arrays"),
            }
        }
        _ => 0,
    }
}

/// Reject template shapes the engine does not support: arrays are only
/// allowed as top-level parameters, and array items are scalars or structs
/// (of scalars/structs). This matches the paper's workloads exactly
/// (arrays of ints, doubles, and MIOs).
pub(crate) fn validate_param_type(desc: &TypeDesc, top_level: bool) -> Result<(), EngineError> {
    match desc {
        TypeDesc::Scalar(_) => Ok(()),
        TypeDesc::Struct { fields, .. } => {
            for (_, f) in fields {
                if matches!(f, TypeDesc::Array { .. }) {
                    return Err(EngineError::StructureMismatch {
                        why: "arrays inside structs are not supported by templates".into(),
                    });
                }
                validate_param_type(f, false)?;
            }
            Ok(())
        }
        TypeDesc::Array { item } => {
            if !top_level {
                return Err(EngineError::StructureMismatch {
                    why: "nested arrays are not supported by templates".into(),
                });
            }
            match item.as_ref() {
                TypeDesc::Scalar(_) => Ok(()),
                TypeDesc::Struct { .. } => validate_param_type(item, false),
                TypeDesc::Array { .. } => Err(EngineError::StructureMismatch {
                    why: "arrays of arrays are not supported by templates".into(),
                }),
            }
        }
    }
}

/// Internal builder state.
pub(crate) struct Builder {
    pub config: EngineConfig,
    pub store: ChunkStore,
    pub dut: DutTable,
    pub arrays: Vec<ArrayInfo>,
    pub(crate) scratch: Vec<u8>,
    pub(crate) region: Vec<u8>,
}

impl Builder {
    pub(crate) fn new(config: EngineConfig) -> Self {
        Builder {
            config,
            store: ChunkStore::new(config.chunk),
            dut: DutTable::default(),
            arrays: Vec::new(),
            scratch: Vec::with_capacity(64),
            region: Vec::with_capacity(128),
        }
    }

    /// Current append position (end of the last chunk). A `Loc` at a chunk
    /// boundary is byte-equivalent to `(next chunk, 0)`.
    pub(crate) fn tell(&self) -> Loc {
        if self.store.chunk_count() == 0 {
            Loc::new(0, 0)
        } else {
            let idx = self.store.chunk_count() - 1;
            Loc::new(idx, self.store.chunk(idx).len())
        }
    }

    /// Append raw tag bytes.
    pub(crate) fn raw(&mut self, s: &str) {
        self.store.append_region(s.as_bytes());
    }

    /// Append raw marker bytes (the binary lane's tag runs).
    pub(crate) fn raw_bytes(&mut self, bytes: &[u8]) {
        self.store.append_region(bytes);
    }

    /// Append one DUT-tracked leaf region `[value][close_tag][pad]`.
    ///
    /// `width_override` forces a specific minimum width (the array-length
    /// field stuffs to `INT_MAX_WIDTH` so resizes never shift). On the
    /// binary lane the width is always exactly the serialized length:
    /// numeric records are fixed-width by construction, so stuffing buys
    /// nothing, and string records carry their own length prefix.
    pub(crate) fn leaf(&mut self, value: Scalar, close_tag: &str, width_override: Option<usize>) {
        let kind = value.kind();
        value.serialize_wire(
            &mut self.scratch,
            self.config.float,
            self.config.kernel,
            self.config.wire_format,
        );
        let ser_len = self.scratch.len();
        let width = if self.config.wire_format == crate::config::WireFormat::CompactBinary {
            ser_len
        } else {
            match width_override {
                Some(w) => w.max(ser_len),
                None => self.config.width.initial_width(kind, ser_len),
            }
        };
        self.region.clear();
        self.region.extend_from_slice(&self.scratch);
        self.region.extend_from_slice(close_tag.as_bytes());
        self.region.resize(width + close_tag.len(), b' ');
        let loc = self.store.append_region(&self.region);
        self.dut.push(DutEntry {
            kind,
            dirty: false,
            loc,
            ser_len: ser_len as u32,
            width: width as u32,
            suffix_len: close_tag.len() as u32,
            value,
        });
    }

    /// Serialize a non-array value under element name `name`.
    pub(crate) fn plain_value(
        &mut self,
        name: &str,
        desc: &TypeDesc,
        value: &Value,
    ) -> Result<(), EngineError> {
        match (desc, value) {
            (TypeDesc::Scalar(kind), v) => {
                let scalar = scalar_from_value(v, *kind)?;
                self.raw(&soap::scalar_open(name, kind.xsi_type()));
                self.leaf(scalar, &soap::elem_close(name), None);
                Ok(())
            }
            (TypeDesc::Struct { fields, .. }, Value::Struct(vals)) => {
                self.raw(&format!("<{name} xsi:type=\"{}\">", desc.xsi_type()));
                for ((fname, fdesc), fval) in fields.iter().zip(vals) {
                    self.plain_value(fname, fdesc, fval)?;
                }
                self.raw(&soap::elem_close(name));
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

    /// Serialize the elements of an array value; used both at build time
    /// and when growing an array (resize builds into a fresh `Builder`).
    pub(crate) fn elements(
        &mut self,
        item_desc: &TypeDesc,
        value: &Value,
        from: usize,
        to: usize,
    ) -> Result<(), EngineError> {
        if self.config.wire_format == crate::config::WireFormat::CompactBinary {
            return self.binary_elements(item_desc, value, from, to);
        }
        match (value, item_desc) {
            (Value::DoubleArray(v), TypeDesc::Scalar(ScalarKind::Double)) => {
                let open = soap::scalar_open(soap::ITEM_NAME, "xsd:double");
                let close = soap::elem_close(soap::ITEM_NAME);
                for &x in &v[from..to] {
                    self.raw(&open);
                    self.leaf(Scalar::Double(x), &close, None);
                }
                Ok(())
            }
            (Value::IntArray(v), TypeDesc::Scalar(ScalarKind::Int)) => {
                let open = soap::scalar_open(soap::ITEM_NAME, "xsd:int");
                let close = soap::elem_close(soap::ITEM_NAME);
                for &x in &v[from..to] {
                    self.raw(&open);
                    self.leaf(Scalar::Int(x), &close, None);
                }
                Ok(())
            }
            (Value::Array(elems), _) => {
                for elem in &elems[from..to] {
                    self.one_element(item_desc, elem)?;
                }
                Ok(())
            }
            (v, _) => Err(EngineError::TypeMismatch {
                at: "array".to_owned(),
                expected: "array value matching item type",
                found: v.variant_name(),
            }),
        }
    }

    /// Serialize a single `<item>` element.
    fn one_element(&mut self, item_desc: &TypeDesc, elem: &Value) -> Result<(), EngineError> {
        match (item_desc, elem) {
            (TypeDesc::Scalar(kind), v) => {
                let scalar = scalar_from_value(v, *kind)?;
                self.raw(&soap::scalar_open(soap::ITEM_NAME, kind.xsi_type()));
                self.leaf(scalar, &soap::elem_close(soap::ITEM_NAME), None);
                Ok(())
            }
            (TypeDesc::Struct { fields, .. }, Value::Struct(vals)) => {
                self.raw(&format!(
                    "<{} xsi:type=\"{}\">",
                    soap::ITEM_NAME,
                    item_desc.xsi_type()
                ));
                for ((fname, fdesc), fval) in fields.iter().zip(vals) {
                    self.plain_value(fname, fdesc, fval)?;
                }
                self.raw(&soap::elem_close(soap::ITEM_NAME));
                Ok(())
            }
            (d, v) => Err(EngineError::TypeMismatch {
                at: "array item".to_owned(),
                expected: match d {
                    TypeDesc::Struct { .. } => "Struct",
                    _ => "scalar",
                },
                found: v.variant_name(),
            }),
        }
    }

    /// Serialize a full array parameter: open tag with DUT-tracked length,
    /// elements, close tag. Registers the [`ArrayInfo`].
    pub(crate) fn array_param(
        &mut self,
        pidx: usize,
        name: &str,
        item_desc: &TypeDesc,
        value: &Value,
    ) -> Result<(), EngineError> {
        let len = value.array_len().ok_or_else(|| EngineError::TypeMismatch {
            at: format!("param {pidx} ({name})"),
            expected: "array value",
            found: value.variant_name(),
        })?;
        let (prefix, suffix) = soap::array_open_parts(name, &item_desc.xsi_type());
        self.raw(&prefix);
        let len_leaf = self.dut.len();
        // The length field is always stuffed to the full int width so a
        // resize rewrites it in place, never shifting the array open tag.
        self.leaf(Scalar::Int(len as i32), suffix, Some(INT_MAX_WIDTH));
        self.raw("\n");
        let content_start = self.tell();
        let base_leaf = self.dut.len();
        self.elements(item_desc, value, 0, len)?;
        let content_end = self.tell();
        self.raw(&soap::elem_close(name));
        self.raw("\n");
        self.arrays.push(ArrayInfo {
            param: pidx,
            base_leaf,
            leaves_per_elem: item_desc.leaves_per_instance(),
            len,
            len_leaf,
            item_desc: item_desc.clone(),
            content_start,
            content_end,
            elem_close_run: elem_close_run(item_desc) as u32,
        });
        Ok(())
    }
}

/// Convert a `Value` scalar variant into a `Scalar`, checking the kind.
pub(crate) fn scalar_from_value(v: &Value, kind: ScalarKind) -> Result<Scalar, EngineError> {
    let scalar = match v {
        Value::Int(x) => Scalar::Int(*x),
        Value::Long(x) => Scalar::Long(*x),
        Value::Double(x) => Scalar::Double(*x),
        Value::Bool(x) => Scalar::Bool(*x),
        Value::Str(x) => Scalar::Str(x.as_str().into()),
        other => {
            return Err(EngineError::TypeMismatch {
                at: "scalar".to_owned(),
                expected: "scalar value",
                found: other.variant_name(),
            })
        }
    };
    if scalar.kind() != kind {
        return Err(EngineError::TypeMismatch {
            at: "scalar".to_owned(),
            expected: kind.xsi_type(),
            found: v.variant_name(),
        });
    }
    Ok(scalar)
}

impl MessageTemplate {
    /// Full serialization of `args` for `op` — the first-time send path.
    ///
    /// The resulting template holds the complete serialized message, its
    /// DUT table, and array bookkeeping; subsequent sends go through
    /// [`MessageTemplate::update_args`] / [`MessageTemplate::send`].
    pub fn build(
        config: EngineConfig,
        op: &OpDesc,
        args: &[Value],
    ) -> Result<MessageTemplate, EngineError> {
        op.check_args(args)?;
        for p in &op.params {
            validate_param_type(&p.desc, true)?;
        }
        if config.wire_format == crate::config::WireFormat::CompactBinary {
            return Self::build_binary(config, op, args);
        }
        let mut b = Builder::new(config);
        b.raw(soap::XML_DECL);
        b.raw(&soap::envelope_open(&op.namespace));
        b.raw(soap::BODY_OPEN);
        b.raw(&soap::op_open(&op.name));
        for (pidx, (param, arg)) in op.params.iter().zip(args).enumerate() {
            match &param.desc {
                TypeDesc::Array { item } => b.array_param(pidx, &param.name, item, arg)?,
                desc => {
                    b.plain_value(&param.name, desc, arg)?;
                    b.raw("\n");
                }
            }
        }
        b.raw(&soap::op_close(&op.name));
        b.raw(soap::CLOSES);

        let stats = TemplateStats {
            first_time: 1,
            ..TemplateStats::default()
        };
        Ok(MessageTemplate {
            config,
            op: op.clone(),
            store: b.store,
            dut: b.dut,
            arrays: b.arrays,
            stats,
            structure_changed: false,
            pending_resizes: Vec::new(),
            fault: None,
            metrics: None,
        })
    }

    /// Serialize elements `[from, to)` of an array value as a standalone
    /// fragment (no envelope, no array open/close) — the window object of
    /// chunk overlaying (§3.3). The fragment's DUT leaves are indexed from
    /// zero in element order.
    pub(crate) fn build_fragment(
        config: EngineConfig,
        item_desc: &TypeDesc,
        value: &Value,
        from: usize,
        to: usize,
    ) -> Result<MessageTemplate, EngineError> {
        let mut b = Builder::new(config);
        b.elements(item_desc, value, from, to)?;
        Ok(MessageTemplate {
            config,
            op: OpDesc::new("__overlay_fragment", "", Vec::new()),
            store: b.store,
            dut: b.dut,
            arrays: Vec::new(),
            stats: TemplateStats::default(),
            structure_changed: false,
            pending_resizes: Vec::new(),
            fault: None,
            metrics: None,
        })
    }
}
