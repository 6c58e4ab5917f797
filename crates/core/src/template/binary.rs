//! First-time send on the compact binary lane (§ DESIGN 3.15).
//!
//! The binary builder mirrors `build.rs` exactly — same DUT geometry,
//! same `ArrayInfo` bookkeeping, same resize/flush machinery downstream —
//! but emits the tagged fixed-width framing of [`crate::wire`] instead of
//! XML tag runs. Because every numeric leaf serializes to a constant
//! length, the patch path degenerates to in-place overwrites and the
//! planner never emits shifts or steals for numeric workloads: tier 3
//! collapses into tier 2.

use super::build::{scalar_from_value, validate_param_type, Builder};
use super::{ArrayInfo, MessageTemplate, TemplateStats};
use crate::config::EngineConfig;
use crate::error::EngineError;
use crate::schema::{OpDesc, TypeDesc};
use crate::value::{Scalar, Value};
use crate::wire;
use bsoap_convert::ScalarKind;

/// Byte length of the fixed marker run after an element's last leaf
/// region on the binary lane: scalars close with nothing, struct items
/// close with one `STRUCT_END` per still-open struct.
pub(crate) fn binary_elem_close_run(item_desc: &TypeDesc) -> usize {
    match item_desc {
        TypeDesc::Scalar(_) => 0,
        TypeDesc::Struct { .. } => binary_last_field_close_run(item_desc) + 1,
        TypeDesc::Array { .. } => unreachable!("validated: no nested arrays"),
    }
}

fn binary_last_field_close_run(desc: &TypeDesc) -> usize {
    match desc {
        TypeDesc::Struct { fields, .. } => {
            let (_, fdesc) = fields.last().expect("structs have fields");
            match fdesc {
                TypeDesc::Scalar(_) => 0,
                TypeDesc::Struct { .. } => binary_last_field_close_run(fdesc) + 1,
                TypeDesc::Array { .. } => unreachable!("validated: no nested arrays"),
            }
        }
        _ => 0,
    }
}

impl Builder {
    /// Serialize a non-array value as binary records.
    pub(crate) fn binary_plain_value(
        &mut self,
        name: &str,
        desc: &TypeDesc,
        value: &Value,
    ) -> Result<(), EngineError> {
        match (desc, value) {
            (TypeDesc::Scalar(kind), v) => {
                let scalar = scalar_from_value(v, *kind)?;
                self.leaf(scalar, "", None);
                Ok(())
            }
            (TypeDesc::Struct { fields, .. }, Value::Struct(vals)) => {
                self.raw_bytes(&[wire::STRUCT_BEGIN]);
                for ((fname, fdesc), fval) in fields.iter().zip(vals) {
                    self.binary_plain_value(fname, fdesc, fval)?;
                }
                self.raw_bytes(&[wire::STRUCT_END]);
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

    /// Binary analog of `Builder::elements`: one tagged record per scalar
    /// element, `STRUCT_BEGIN..STRUCT_END` per struct element. Shared by
    /// first-time builds and array growth (resize builds into a fresh
    /// `Builder` carrying the same config, so it lands here too).
    pub(crate) fn binary_elements(
        &mut self,
        item_desc: &TypeDesc,
        value: &Value,
        from: usize,
        to: usize,
    ) -> Result<(), EngineError> {
        match (value, item_desc) {
            (Value::DoubleArray(v), TypeDesc::Scalar(ScalarKind::Double)) => {
                for &x in &v[from..to] {
                    self.leaf(Scalar::Double(x), "", None);
                }
                Ok(())
            }
            (Value::IntArray(v), TypeDesc::Scalar(ScalarKind::Int)) => {
                for &x in &v[from..to] {
                    self.leaf(Scalar::Int(x), "", None);
                }
                Ok(())
            }
            (Value::Array(elems), _) => {
                for elem in &elems[from..to] {
                    self.binary_one_element(item_desc, elem)?;
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

    fn binary_one_element(
        &mut self,
        item_desc: &TypeDesc,
        elem: &Value,
    ) -> Result<(), EngineError> {
        match (item_desc, elem) {
            (TypeDesc::Scalar(kind), v) => {
                let scalar = scalar_from_value(v, *kind)?;
                self.leaf(scalar, "", None);
                Ok(())
            }
            (TypeDesc::Struct { fields, .. }, Value::Struct(vals)) => {
                self.raw_bytes(&[wire::STRUCT_BEGIN]);
                for ((fname, fdesc), fval) in fields.iter().zip(vals) {
                    self.binary_plain_value(fname, fdesc, fval)?;
                }
                self.raw_bytes(&[wire::STRUCT_END]);
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

    /// Serialize a full binary array parameter: `ARRAY_BEGIN`, a
    /// DUT-tracked int leaf holding the element count (fixed 5 bytes on
    /// the wire, so a resize rewrites it in place — the binary analog of
    /// the XML length field's `INT_MAX_WIDTH` stuffing), the elements,
    /// `ARRAY_END`. Registers the [`ArrayInfo`].
    pub(crate) fn binary_array_param(
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
        self.raw_bytes(&[wire::ARRAY_BEGIN]);
        let len_leaf = self.dut.len();
        self.leaf(Scalar::Int(len as i32), "", None);
        let content_start = self.tell();
        let base_leaf = self.dut.len();
        self.binary_elements(item_desc, value, 0, len)?;
        let content_end = self.tell();
        self.raw_bytes(&[wire::ARRAY_END]);
        self.arrays.push(ArrayInfo {
            param: pidx,
            base_leaf,
            leaves_per_elem: item_desc.leaves_per_instance(),
            len,
            len_leaf,
            item_desc: item_desc.clone(),
            content_start,
            content_end,
            elem_close_run: binary_elem_close_run(item_desc) as u32,
        });
        Ok(())
    }
}

impl MessageTemplate {
    /// Full binary serialization of `args` for `op` — the binary lane's
    /// first-time send path ([`MessageTemplate::build`] routes here when
    /// the config selects [`crate::config::WireFormat::CompactBinary`]).
    pub(crate) fn build_binary(
        config: EngineConfig,
        op: &OpDesc,
        args: &[Value],
    ) -> Result<MessageTemplate, EngineError> {
        op.check_args(args)?;
        for p in &op.params {
            validate_param_type(&p.desc, true)?;
        }
        let mut b = Builder::new(config);
        let mut prologue = Vec::with_capacity(16 + op.name.len());
        wire::write_prologue(&mut prologue, &op.name, op.params.len());
        b.raw_bytes(&prologue);
        for (pidx, (param, arg)) in op.params.iter().zip(args).enumerate() {
            match &param.desc {
                TypeDesc::Array { item } => b.binary_array_param(pidx, &param.name, item, arg)?,
                desc => b.binary_plain_value(&param.name, desc, arg)?,
            }
        }
        b.raw_bytes(&[wire::END]);

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
}

#[cfg(test)]
mod tests {
    use crate::config::{EngineConfig, WireFormat};
    use crate::schema::{OpDesc, ParamDesc, TypeDesc};
    use crate::template::{MessageTemplate, SendTier};
    use crate::value::Value;
    use crate::wire;
    use bsoap_convert::ScalarKind;

    fn bin_cfg() -> EngineConfig {
        EngineConfig::paper_default().with_wire_format(WireFormat::CompactBinary)
    }

    fn mesh_op() -> OpDesc {
        OpDesc::new(
            "updateMesh",
            "urn:mesh",
            vec![
                ParamDesc {
                    name: "step".to_owned(),
                    desc: TypeDesc::Scalar(ScalarKind::Int),
                },
                ParamDesc {
                    name: "field".to_owned(),
                    desc: TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double)),
                },
                ParamDesc {
                    name: "tag".to_owned(),
                    desc: TypeDesc::Scalar(ScalarKind::Str),
                },
            ],
        )
    }

    fn mesh_args(step: i32, field: &[f64], tag: &str) -> Vec<Value> {
        vec![
            Value::Int(step),
            Value::DoubleArray(field.to_vec()),
            Value::Str(tag.to_owned()),
        ]
    }

    #[test]
    fn binary_build_is_framed_and_compact() {
        let t = MessageTemplate::build(
            bin_cfg(),
            &mesh_op(),
            &mesh_args(1, &[1.0, 2.5, -3.0], "run"),
        )
        .unwrap();
        let bytes = t.to_bytes();
        assert!(wire::is_binary(&bytes));
        assert_eq!(*bytes.last().unwrap(), wire::END);
        // prologue + int leaf + array(begin + len leaf + 3 doubles + end) + str leaf + END
        let expected = 4 + 2 + "updateMesh".len() + 1   // prologue
            + 5                                          // step
            + 1 + 5 + 3 * 9 + 1                          // field
            + (1 + 4 + 3)                                // tag
            + 1; // END
        assert_eq!(bytes.len(), expected);
    }

    #[test]
    fn numeric_rewrites_are_pure_overwrites() {
        let mut t = MessageTemplate::build(
            bin_cfg(),
            &mesh_op(),
            &mesh_args(1, &[1.0, 2.5, -3.0], "run"),
        )
        .unwrap();
        let len0 = t.message_len();
        let tier = t
            .update_args(&mesh_args(2, &[9.0, f64::MIN_POSITIVE, 1e300], "run"))
            .unwrap();
        assert_eq!(tier, SendTier::PerfectStructural);
        let report = t.flush();
        assert_eq!(report.shifts, 0);
        assert_eq!(report.steals, 0);
        assert_eq!(t.message_len(), len0);
        // The patched bytes equal a from-scratch build of the new args.
        let fresh = MessageTemplate::build(
            bin_cfg(),
            &mesh_op(),
            &mesh_args(2, &[9.0, f64::MIN_POSITIVE, 1e300], "run"),
        )
        .unwrap();
        assert_eq!(t.to_bytes(), fresh.to_bytes());
    }

    #[test]
    fn resize_matches_fresh_build_bytes() {
        let mut t =
            MessageTemplate::build(bin_cfg(), &mesh_op(), &mesh_args(1, &[1.0, 2.0], "t")).unwrap();
        // Grow.
        let grown = mesh_args(1, &[1.0, 2.0, 3.0, 4.0, 5.0], "t");
        assert_eq!(t.update_args(&grown).unwrap(), SendTier::PartialStructural);
        t.flush();
        let fresh = MessageTemplate::build(bin_cfg(), &mesh_op(), &grown).unwrap();
        assert_eq!(t.to_bytes(), fresh.to_bytes(), "grow");
        // Shrink back below the original length.
        let shrunk = mesh_args(1, &[7.0], "t");
        t.update_args(&shrunk).unwrap();
        t.flush();
        let fresh = MessageTemplate::build(bin_cfg(), &mesh_op(), &shrunk).unwrap();
        assert_eq!(t.to_bytes(), fresh.to_bytes(), "shrink");
    }

    #[test]
    fn string_shrink_pads_in_place_growth_reflows() {
        let mut t =
            MessageTemplate::build(bin_cfg(), &mesh_op(), &mesh_args(1, &[1.0], "abcdef")).unwrap();
        let len0 = t.message_len();
        // Shrink: the string record rewrites inside its width, padding the
        // slack with spaces; total length is unchanged.
        t.update_args(&mesh_args(1, &[1.0], "ab")).unwrap();
        let r = t.flush();
        assert_eq!(r.shifts, 0);
        assert_eq!(t.message_len(), len0);
        let bytes = t.to_bytes();
        assert_eq!(&bytes[bytes.len() - 5..], b"    \x0B");
        // Growth past the width shifts, like an XML string.
        t.update_args(&mesh_args(1, &[1.0], "abcdefghij")).unwrap();
        t.flush();
        let fresh =
            MessageTemplate::build(bin_cfg(), &mesh_op(), &mesh_args(1, &[1.0], "abcdefghij"))
                .unwrap();
        assert_eq!(t.to_bytes(), fresh.to_bytes());
    }

    #[test]
    fn mio_struct_array_binary_lane() {
        let op = OpDesc::single(
            "sendMios",
            "urn:mesh",
            "mios",
            TypeDesc::array_of(TypeDesc::mio()),
        );
        let mios = |n: usize| {
            Value::Array(
                (0..n)
                    .map(|i| crate::value::mio(i as i32, (i * 2) as i32, i as f64 * 0.5))
                    .collect(),
            )
        };
        let mut t = MessageTemplate::build(bin_cfg(), &op, &[mios(4)]).unwrap();
        let bytes = t.to_bytes();
        assert!(wire::is_binary(&bytes));
        // Resize down then up; bytes must always match a fresh build.
        for n in [2usize, 6, 1] {
            t.update_args(&[mios(n)]).unwrap();
            t.flush();
            let fresh = MessageTemplate::build(bin_cfg(), &op, &[mios(n)]).unwrap();
            assert_eq!(t.to_bytes(), fresh.to_bytes(), "n={n}");
        }
    }

    #[test]
    fn cost_gate_prices_binary_rebuilds_in_binary_bytes() {
        // The §5 break-even gate compares plan cost to rebuild_estimate =
        // total_len + leaves. A binary template of the same payload is
        // far smaller than its XML twin, so the gate automatically prices
        // a binary rebuild cheaper — the lane needs no special casing.
        let op = mesh_op();
        let args = mesh_args(6, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], "tag");
        let bin = MessageTemplate::build(bin_cfg(), &op, &args).unwrap();
        let xml = MessageTemplate::build(EngineConfig::paper_default(), &op, &args).unwrap();
        assert!(
            bin.rebuild_estimate() < xml.rebuild_estimate(),
            "binary rebuild ({}) must be priced below XML rebuild ({})",
            bin.rebuild_estimate(),
            xml.rebuild_estimate()
        );
        assert_eq!(
            bin.rebuild_estimate(),
            bin.message_len() as u64 + bin.dut().len() as u64
        );
    }
}
