//! A wire lane is one module: what every lane owes its callers, checked
//! as one table over `WireFormat::ALL`, and the `lane_contract` rows of the
//! rule table: no layer outside the two lane modules (`bsoap-core`'s and
//! `bsoap-deser`'s `lane.rs`) names a particular lane's machinery.

use bsoap::convert::ScalarKind;
use bsoap::deser::{decode, DiffOutcome, LaneDeserializer};
use bsoap::{mio, EngineConfig, MessageTemplate, OpDesc, ParamDesc, TypeDesc, Value, WireFormat};

mod common;

fn contract_op() -> OpDesc {
    let param = |name: &str, desc| ParamDesc {
        name: name.into(),
        desc,
    };
    OpDesc::new(
        "contract",
        "urn:lane",
        vec![
            param("step", TypeDesc::Scalar(ScalarKind::Int)),
            param(
                "xs",
                TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double)),
            ),
            param("mios", TypeDesc::array_of(TypeDesc::mio())),
            param("tag", TypeDesc::Scalar(ScalarKind::Str)),
        ],
    )
}

fn contract_args(step: i32, xs: &[f64], tag: &str) -> Vec<Value> {
    vec![
        Value::Int(step),
        Value::DoubleArray(xs.to_vec()),
        Value::Array(vec![mio(1, -2, 0.5), mio(3, 4, -9.25)]),
        Value::Str(tag.to_owned()),
    ]
}

#[test]
fn every_lane_keeps_the_contract() {
    let op = contract_op();
    let mut content_types = Vec::new();
    for lane in WireFormat::ALL {
        assert_eq!(WireFormat::from_name(lane.name()), Some(lane), "{lane:?}");
        content_types.push(lane.content_type());

        // build → sniff, one-shot decode.
        let config = EngineConfig::paper_default().with_wire_format(lane);
        let first = contract_args(1, &[1.5, 2.5, 3.5], "a<b&c");
        let mut tpl = MessageTemplate::build(config, &op, &first).unwrap();
        let bytes = tpl.to_bytes();
        assert_eq!(WireFormat::of_message(None, &bytes), lane, "{lane:?} sniff");
        assert_eq!(decode(lane, &bytes, &op).unwrap(), first, "{lane:?}");

        // build → update → flush → differential decode, through a value
        // patch, a resize and a resend. Every lane's reference has a leaf
        // tier: two values rewritten at their width cost two leaves.
        let mut deser = LaneDeserializer::new(lane, op.clone());
        let (got, outcome) = deser.deserialize(&bytes).unwrap();
        assert_eq!((got, outcome), (&first[..], DiffOutcome::FullParse));
        for (step, next) in [
            contract_args(2, &[1.5, 9.5, 3.5], "a<b&c"),
            contract_args(2, &[1.5, 9.5, 3.5, 4.5, 5.5], "longer tag"),
            contract_args(2, &[7.5], ""),
        ]
        .into_iter()
        .enumerate()
        {
            tpl.update_args(&next).unwrap();
            tpl.flush();
            let bytes = tpl.to_bytes();
            let (got, outcome) = deser.deserialize(&bytes).unwrap();
            assert_eq!(got, &next[..], "{lane:?}");
            if step == 0 {
                assert!(
                    matches!(outcome, DiffOutcome::Differential { reparsed: 2, .. }),
                    "{lane:?} has no leaf tier: {outcome:?}"
                );
            }
            let (got, outcome) = deser.deserialize(&bytes).unwrap();
            assert_eq!((got, outcome), (&next[..], DiffOutcome::Identical));
            assert_eq!(decode(lane, &bytes, &op).unwrap(), next, "{lane:?}");
        }
    }
    content_types.sort_unstable();
    content_types.dedup();
    assert_eq!(content_types.len(), WireFormat::ALL.len());
}

#[test]
fn a_lane_is_one_module() {
    common::rules::enforce("lane_contract");
}
