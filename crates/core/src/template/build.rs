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
use crate::lane::WireFormat;
use crate::schema::{OpDesc, TypeDesc};
use crate::soap::ITEM_NAME;
use crate::value::{Scalar, Value};
use bsoap_chunks::{ChunkStore, Loc};
use bsoap_convert::{ScalarKind, INT_MAX_WIDTH};

/// Byte length of the fixed close run after an element's last leaf region:
/// the close of every struct still open there (0 for scalar items — their
/// close is the leaf suffix).
fn elem_close_run(lane: WireFormat, name: &str, desc: &TypeDesc) -> usize {
    match desc {
        TypeDesc::Scalar(_) => 0,
        TypeDesc::Struct { fields, .. } => {
            let (fname, fdesc) = fields.last().expect("structs have fields");
            elem_close_run(lane, fname, fdesc) + lane.struct_tags(name, desc).1.len()
        }
        TypeDesc::Array { .. } => unreachable!("validated: no nested arrays"),
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
    pub(crate) region: Vec<u8>,
}

impl Builder {
    pub(crate) fn new(config: EngineConfig) -> Self {
        Builder {
            config,
            store: ChunkStore::new(config.chunk),
            dut: DutTable::default(),
            arrays: Vec::new(),
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

    /// The template holding everything appended so far.
    pub(crate) fn finish(self, op: OpDesc, stats: TemplateStats) -> MessageTemplate {
        MessageTemplate {
            config: self.config,
            op,
            store: self.store,
            dut: self.dut,
            arrays: self.arrays,
            stats,
            structure_changed: false,
            pending_resizes: Vec::new(),
            fault: None,
            metrics: None,
        }
    }

    /// Append one framing region (an empty one appends nothing).
    pub(crate) fn raw(&mut self, bytes: &[u8]) {
        if !bytes.is_empty() {
            self.store.append_region(bytes);
        }
    }

    /// Append one DUT-tracked leaf region `[value][close][pad]`, as wide as
    /// the lane's initial-width rule says (`width_floor` is the array
    /// length field asking for room to grow in place).
    pub(crate) fn leaf(&mut self, value: Scalar, close: &[u8], width_floor: Option<usize>) {
        let kind = value.kind();
        let lane = self.config.wire_format;
        self.region.clear();
        lane.encode_leaf(
            &value,
            &mut self.region,
            self.config.float,
            self.config.kernel,
        );
        let ser_len = self.region.len();
        let width = lane.initial_width(self.config.width, kind, ser_len, width_floor);
        self.region.extend_from_slice(close);
        self.region.resize(width + close.len(), b' ');
        let loc = self.store.append_region(&self.region);
        self.dut.push(DutEntry {
            kind,
            dirty: false,
            loc,
            ser_len: ser_len as u32,
            width: width as u32,
            suffix_len: close.len() as u32,
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
        let lane = self.config.wire_format;
        match (desc, value) {
            (TypeDesc::Scalar(kind), v) => {
                let scalar = scalar_from_value(v, *kind)?;
                let (open, close) = lane.scalar_tags(name, *kind);
                self.raw(&open);
                self.leaf(scalar, &close, None);
                Ok(())
            }
            (TypeDesc::Struct { fields, .. }, Value::Struct(vals)) => {
                let (open, close) = lane.struct_tags(name, desc);
                self.raw(&open);
                for ((fname, fdesc), fval) in fields.iter().zip(vals) {
                    self.plain_value(fname, fdesc, fval)?;
                }
                self.raw(&close);
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

    /// A run of unboxed scalar elements under one hoisted tag pair.
    fn scalar_run<T: Copy>(&mut self, kind: ScalarKind, xs: &[T], wrap: fn(T) -> Scalar) {
        let (open, close) = self.config.wire_format.scalar_tags(ITEM_NAME, kind);
        for &x in xs {
            self.raw(&open);
            self.leaf(wrap(x), &close, None);
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
        match (value, item_desc) {
            (Value::DoubleArray(v), TypeDesc::Scalar(ScalarKind::Double)) => {
                self.scalar_run(ScalarKind::Double, &v[from..to], Scalar::Double);
                Ok(())
            }
            (Value::IntArray(v), TypeDesc::Scalar(ScalarKind::Int)) => {
                self.scalar_run(ScalarKind::Int, &v[from..to], Scalar::Int);
                Ok(())
            }
            (Value::Array(elems), _) => {
                for elem in &elems[from..to] {
                    self.plain_value(ITEM_NAME, item_desc, elem)?;
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

    /// Serialize a full array parameter: open, the DUT-tracked element
    /// count, elements, close. Registers the [`ArrayInfo`].
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
        let lane = self.config.wire_format;
        let ((open, close), len_close) = lane.array_tags(name, item_desc);
        self.raw(&open);
        let len_leaf = self.dut.len();
        // The length field asks for the full int width so a resize
        // rewrites it in place, never shifting the array open.
        self.leaf(Scalar::Int(len as i32), len_close, Some(INT_MAX_WIDTH));
        self.raw(lane.separator());
        let content_start = self.tell();
        let base_leaf = self.dut.len();
        self.elements(item_desc, value, 0, len)?;
        let content_end = self.tell();
        self.raw(&close);
        self.raw(lane.separator());
        self.arrays.push(ArrayInfo {
            param: pidx,
            base_leaf,
            leaves_per_elem: item_desc.leaves_per_instance(),
            len,
            len_leaf,
            item_desc: item_desc.clone(),
            content_start,
            content_end,
            elem_close_run: elem_close_run(lane, ITEM_NAME, item_desc) as u32,
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
        let lane = config.wire_format;
        let mut b = Builder::new(config);
        lane.open_envelope(op, |region| b.raw(region));
        for (pidx, (param, arg)) in op.params.iter().zip(args).enumerate() {
            match &param.desc {
                TypeDesc::Array { item } => b.array_param(pidx, &param.name, item, arg)?,
                desc => {
                    b.plain_value(&param.name, desc, arg)?;
                    b.raw(lane.separator());
                }
            }
        }
        lane.close_envelope(op, |region| b.raw(region));

        let stats = TemplateStats {
            first_time: 1,
            ..TemplateStats::default()
        };
        Ok(b.finish(op.clone(), stats))
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
        let op = OpDesc::new("__overlay_fragment", "", Vec::new());
        Ok(b.finish(op, TemplateStats::default()))
    }
}
