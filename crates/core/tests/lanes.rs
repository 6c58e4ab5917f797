//! The one builder on every lane: what must hold whatever the framing
//! (loops over `WireFormat::ALL`), then the bin1 geometry the fixed-width
//! records buy (§ DESIGN 3.15).

use bsoap_convert::ScalarKind;
use bsoap_core::value::mio;
use bsoap_core::{
    wire, EngineConfig, MessageTemplate, OpDesc, ParamDesc, SendTier, TypeDesc, Value, WireFormat,
};

fn cfg(lane: WireFormat) -> EngineConfig {
    EngineConfig::paper_default().with_wire_format(lane)
}

fn bin_cfg() -> EngineConfig {
    cfg(WireFormat::CompactBinary)
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
fn resize_matches_fresh_build_bytes_on_every_lane() {
    for lane in WireFormat::ALL {
        let mut t =
            MessageTemplate::build(cfg(lane), &mesh_op(), &mesh_args(1, &[1.0, 2.0], "t")).unwrap();
        assert_eq!(WireFormat::of_message(None, &t.to_bytes()), lane);
        // Grow.
        let grown = mesh_args(1, &[1.0, 2.0, 3.0, 4.0, 5.0], "t");
        assert_eq!(t.update_args(&grown).unwrap(), SendTier::PartialStructural);
        t.flush();
        let fresh = MessageTemplate::build(cfg(lane), &mesh_op(), &grown).unwrap();
        assert_eq!(t.to_bytes(), fresh.to_bytes(), "{lane:?} grow");
        // Shrink back below the original length.
        let shrunk = mesh_args(1, &[7.0], "t");
        t.update_args(&shrunk).unwrap();
        t.flush();
        let fresh = MessageTemplate::build(cfg(lane), &mesh_op(), &shrunk).unwrap();
        assert_eq!(t.to_bytes(), fresh.to_bytes(), "{lane:?} shrink");
        t.assert_invariants();
    }
}

#[test]
fn struct_array_resizes_match_fresh_builds_on_every_lane() {
    let op = OpDesc::single(
        "sendMios",
        "urn:mesh",
        "mios",
        TypeDesc::array_of(TypeDesc::mio()),
    );
    let mios = |n: usize| {
        Value::Array(
            (0..n)
                .map(|i| mio(i as i32, (i * 2) as i32, i as f64 * 0.5))
                .collect(),
        )
    };
    for lane in WireFormat::ALL {
        let mut t = MessageTemplate::build(cfg(lane), &op, &[mios(4)]).unwrap();
        assert_eq!(WireFormat::of_message(None, &t.to_bytes()), lane);
        // Resize down then up; bytes must always match a fresh build.
        for n in [2usize, 6, 1] {
            t.update_args(&[mios(n)]).unwrap();
            t.flush();
            let fresh = MessageTemplate::build(cfg(lane), &op, &[mios(n)]).unwrap();
            assert_eq!(t.to_bytes(), fresh.to_bytes(), "{lane:?} n={n}");
            t.assert_invariants();
        }
    }
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
    assert!(bytes.starts_with(wire::MAGIC));
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
fn binary_numeric_rewrites_are_pure_overwrites() {
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
fn binary_string_shrink_pads_in_place_growth_reflows() {
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
        MessageTemplate::build(bin_cfg(), &mesh_op(), &mesh_args(1, &[1.0], "abcdefghij")).unwrap();
    assert_eq!(t.to_bytes(), fresh.to_bytes());
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
