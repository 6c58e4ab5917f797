//! Cross-format differential suite: THE proof obligation for the
//! negotiated compact binary lane.
//!
//! Two clients — one pinned to the SOAP/XML lane, one to the compact
//! binary lane — are driven in lockstep through randomized schedules of
//! value updates, array resizes, string churn, injected transport
//! faults (the degraded-mode ladder) and endpoint switches (§6 sharing).
//! Each lane is a [`Rig`]: every send is held to the executable spec
//! (`common::spec`) — tier, values written, wire bytes ≡ the arguments,
//! registry and `ClientStats` — so the two wire images decode to exactly
//! the model arguments and, one spec rule deciding both, the tier
//! trajectories agree exactly (tiers are decided by value dirtiness and
//! structural change, which are format-independent). The spec also says
//! the binary lane realizes every numeric rewrite with *zero* shift work:
//! the tier-3 shifting machinery collapses into plain tier-2 overwrites
//! because fixed-width binary numerics never grow.

mod common;

use bsoap::convert::ScalarKind;
use bsoap::{
    mio, ChunkConfig, EngineConfig, EngineError, OpDesc, ParamDesc, SendTier, TypeDesc, Value,
    WidthPolicy, WireFormat,
};
use common::spec::{small_f64, FailingSink, Verdict};
use common::Rig;
use proptest::prelude::*;
use std::io::ErrorKind;

/// A mixed-shape operation: fixed-width scalars, a double array, a MIO
/// struct array, and an unbounded string — every leaf family the two
/// serializers treat differently.
fn mesh_op() -> OpDesc {
    OpDesc::new(
        "meshUpdate",
        "urn:mesh",
        vec![
            ParamDesc {
                name: "step".into(),
                desc: TypeDesc::Scalar(ScalarKind::Int),
            },
            ParamDesc {
                name: "xs".into(),
                desc: TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double)),
            },
            ParamDesc {
                name: "mios".into(),
                desc: TypeDesc::array_of(TypeDesc::mio()),
            },
            ParamDesc {
                name: "tag".into(),
                desc: TypeDesc::Scalar(ScalarKind::Str),
            },
        ],
    )
}

#[derive(Clone, Debug)]
struct Model {
    step: i32,
    xs: Vec<f64>,
    mios: Vec<(i32, i32, f64)>,
    tag: String,
}

impl Model {
    fn args(&self) -> Vec<Value> {
        vec![
            Value::Int(self.step),
            Value::DoubleArray(self.xs.clone()),
            Value::Array(self.mios.iter().map(|&(x, y, v)| mio(x, y, v)).collect()),
            Value::Str(self.tag.clone()),
        ]
    }
}

#[derive(Clone, Debug)]
enum Step {
    /// Change the scalar counter (numeric overwrite).
    Bump(i32),
    /// Change one double in the array (numeric overwrite).
    SetDouble(usize, f64),
    /// Change one MIO's coordinate and value (numeric overwrites).
    SetMio(usize, i32, f64),
    /// Grow or shrink the double array (structural, both lanes).
    ResizeXs(usize),
    /// Grow or shrink the MIO array (structural, both lanes).
    ResizeMios(usize),
    /// Replace the tag string: `(letter, repeat)` — length changes shift
    /// bytes in *both* formats.
    SetTag(usize, usize),
    /// Send the same arguments again (content match, both lanes).
    Repeat,
    /// The transport fails this call in both lanes — drives the
    /// degraded-mode ladder identically.
    FailSend,
    /// Switch to the other endpoint (§6 cross-endpoint sharing).
    SwitchEndpoint,
}

fn model_strategy() -> impl Strategy<Value = Model> {
    (
        any::<i32>(),
        prop::collection::vec(small_f64(), 0..16),
        prop::collection::vec((any::<i32>(), any::<i32>(), small_f64()), 0..8),
        (0usize..26, 0usize..8),
    )
        .prop_map(|(step, xs, mios, (c, n))| Model {
            step,
            xs,
            mios,
            tag: letter(c).repeat(n),
        })
}

fn letter(c: usize) -> String {
    char::from(b'a' + (c % 26) as u8).to_string()
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        any::<i32>().prop_map(Step::Bump),
        (0usize..32, small_f64()).prop_map(|(i, v)| Step::SetDouble(i, v)),
        (0usize..16, any::<i32>(), small_f64()).prop_map(|(i, x, v)| Step::SetMio(i, x, v)),
        (0usize..24).prop_map(Step::ResizeXs),
        (0usize..12).prop_map(Step::ResizeMios),
        (0usize..26, 0usize..10).prop_map(|(c, n)| Step::SetTag(c, n)),
        Just(Step::Repeat),
        Just(Step::FailSend),
        Just(Step::SwitchEndpoint),
    ]
}

fn config_strategy() -> impl Strategy<Value = EngineConfig> {
    let chunk = prop_oneof![
        Just(ChunkConfig::k32()),
        Just(ChunkConfig {
            initial_size: 192,
            split_threshold: 384,
            reserve: 16
        }),
    ];
    let width = prop_oneof![Just(WidthPolicy::Exact), Just(WidthPolicy::Max)];
    (chunk, width, any::<bool>()).prop_map(|(chunk, width, steal)| {
        EngineConfig::paper_default()
            .with_chunk(chunk)
            .with_width(width)
            .with_steal(steal)
            .with_degraded(2, 2)
    })
}

/// Apply `step` to the model (Repeat/FailSend/SwitchEndpoint change
/// nothing in it).
fn apply_to(model: &mut Model, step: &Step) {
    match step {
        Step::Bump(d) => model.step = model.step.wrapping_add(*d),
        Step::SetDouble(i, v) => {
            if !model.xs.is_empty() {
                let i = i % model.xs.len();
                model.xs[i] = *v;
            }
        }
        Step::SetMio(i, x, v) => {
            if !model.mios.is_empty() {
                let i = i % model.mios.len();
                model.mios[i].0 = *x;
                model.mios[i].2 = *v;
            }
        }
        Step::ResizeXs(n) => {
            let n = *n;
            if n > model.xs.len() {
                model
                    .xs
                    .extend((model.xs.len()..n).map(|k| k as f64 * 0.25));
            } else {
                model.xs.truncate(n);
            }
        }
        Step::ResizeMios(n) => {
            let n = *n;
            if n > model.mios.len() {
                model
                    .mios
                    .extend((model.mios.len()..n).map(|k| (k as i32, -(k as i32), 0.5)));
            } else {
                model.mios.truncate(n);
            }
        }
        Step::SetTag(c, n) => model.tag = letter(*c).repeat(*n),
        Step::Repeat | Step::FailSend | Step::SwitchEndpoint => {}
    }
}

const ENDPOINTS: [&str; 2] = ["http://mesh/a", "http://mesh/b"];

/// One rig per lane over the same operation and configuration.
fn lanes(op: &OpDesc, config: EngineConfig, sharing: bool) -> [Rig; 2] {
    WireFormat::ALL.map(|f| Rig::new(op.clone(), config.with_wire_format(f)).sharing(sharing))
}

fn run_schedule(mut model: Model, steps: &[Step], config: EngineConfig, sharing: bool) -> Verdict {
    let [mut xml, mut bin] = lanes(&mesh_op(), config, sharing);
    let mut ep = 0usize;

    for step in steps {
        if matches!(step, Step::SwitchEndpoint) {
            ep = 1 - ep;
        }
        apply_to(&mut model, step);
        let args = model.args();

        if matches!(step, Step::FailSend) {
            // Both lanes surface the fault (and their ladders move).
            for rig in [&mut xml, &mut bin] {
                let mut sink = FailingSink::after(0, ErrorKind::Other);
                let e = rig.fail(ENDPOINTS[ep], &args, &mut sink)?;
                prop_assert!(matches!(e, EngineError::Io(_)), "{:?}", e);
            }
            continue;
        }
        let xml_r = xml.send(ENDPOINTS[ep], &args)?;
        let bin_r = bin.send(ENDPOINTS[ep], &args)?;
        // The tier-3 collapse shows up as the *shift work* vanishing
        // (the spec's `shift_free`), not as a different label.
        prop_assert_eq!(bin_r.tier, xml_r.tier, "tier divergence after {:?}", step);
        // The compact lane earns its name on every single message.
        prop_assert!(
            bin_r.bytes < xml_r.bytes,
            "binary not smaller after {:?}",
            step
        );
    }

    // The two specs ran the same rule over the same calls: every
    // aggregate agrees except the bytes.
    let (xs, bs) = (xml.spec.n, bin.spec.n);
    prop_assert_eq!((xs.tiers, xs.delivered), (bs.tiers, bs.delivered));
    prop_assert_eq!(xs.degraded_sends, bs.degraded_sends);
    prop_assert_eq!(xs.shared_clones, bs.shared_clones);
    prop_assert_eq!(
        xml.spec.is_degraded(ENDPOINTS[ep]),
        bin.spec.is_degraded(ENDPOINTS[ep])
    );
    prop_assert!(xs.delivered == [0; 4] || bs.bytes_sent < xs.bytes_sent);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// ≥256 randomized schedules over dirty fractions, resizes, string
    /// churn, degradation, §6 sharing: the binary lane is a faithful
    /// compact image of the XML lane.
    #[test]
    fn binary_lane_mirrors_xml_lane(
        initial in model_strategy(),
        steps in prop::collection::vec(step_strategy(), 1..14),
        config in config_strategy(),
        sharing in any::<bool>(),
    ) {
        run_schedule(initial, &steps, config, sharing)?;
    }
}

/// Deterministic witness of the collapse itself: a width-growth-only
/// schedule is tier-3 (PartialStructural) on the XML lane and tier-2
/// (PerfectStructural) on the binary lane, with zero shift work.
#[test]
fn numeric_width_growth_collapses_tier3_to_tier2() {
    let op = OpDesc::single(
        "grow",
        "urn:mesh",
        "xs",
        TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double)),
    );
    let config = EngineConfig::paper_default().with_width(WidthPolicy::Exact);
    let [mut xml, mut bin] = lanes(&op, config, false);

    // Short decimal images first, long ones second: every element's
    // XML width grows; its binary width (8 bytes) cannot.
    let first = [Value::DoubleArray(vec![0.5_f64; 64])];
    let second = [Value::DoubleArray(
        (0..64)
            .map(|i| 0.123456789012345 + i as f64 * 1e-7)
            .collect(),
    )];
    for rig in [&mut xml, &mut bin] {
        assert_eq!(rig.send("ep", &first).unwrap().tier, SendTier::FirstTime);
    }
    let xml_r = xml.send("ep", &second).unwrap();
    let bin_r = bin.send("ep", &second).unwrap();

    // Same tier label both sides — but the XML lane pays shift passes
    // for the wider decimal images while the binary lane overwrites
    // 8-byte slots in place (the rig held it to the spec's `shift_free`).
    // That elimination of tier-3 *work* from a tier-2 send is the
    // collapse the compact format buys.
    assert_eq!(xml_r.tier, SendTier::PerfectStructural);
    assert!(
        xml_r.shifts > 0,
        "exact-width XML lane must shift on width growth"
    );
    assert!(xml.spec.n.shifted && !bin.spec.n.shifted);
    assert_eq!(
        (bin_r.tier, bin_r.values_written),
        (SendTier::PerfectStructural, 64),
        "binary lane must absorb width growth in place"
    );
    assert_eq!((bin_r.shifts, bin_r.steals, bin_r.splits), (0, 0, 0));
}

/// End-to-end leg of the differential suite: the same call schedule
/// through a negotiated-binary RPC client and an XML-pinned one, against
/// a live HTTP server, must produce identical decoded responses — and the
/// binary client must actually settle on the binary lane.
#[test]
fn cross_format_schedules_agree_end_to_end() {
    use bsoap::rpc::RpcClient;
    use bsoap::server::{HttpServer, Service};
    use bsoap::transport::NegotiationState;
    use bsoap::wsdl::ServiceDesc;

    let op = OpDesc::single(
        "scale",
        "urn:vec",
        "xs",
        TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double)),
    );
    let desc = ServiceDesc {
        name: "Vec".into(),
        namespace: "urn:vec".into(),
        endpoint: "http://svc/vec".into(),
        operations: vec![op.clone()],
    };
    let mut svc = Service::new("urn:vec", EngineConfig::paper_default());
    svc.register(
        op,
        vec![ParamDesc {
            name: "ys".into(),
            desc: TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double)),
        }],
        |args| {
            let Value::DoubleArray(v) = &args[0] else {
                return Err("type".into());
            };
            Ok(vec![Value::DoubleArray(
                v.iter().map(|x| x * 2.0).collect(),
            )])
        },
    );
    let server = HttpServer::spawn(svc).unwrap();

    let [mut xml_rpc, mut bin_rpc] = WireFormat::ALL.map(|f| {
        let config = EngineConfig::paper_default().with_wire_format(f);
        RpcClient::connect(desc.clone(), server.addr(), config).unwrap()
    });
    for rpc in [&mut bin_rpc, &mut xml_rpc] {
        rpc.declare_response(
            "scale",
            vec![ParamDesc {
                name: "ys".into(),
                desc: TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double)),
            }],
        );
    }

    // A schedule with content matches, in-place rewrites, and a
    // resize — the same one on both lanes.
    let schedule: Vec<Vec<f64>> = vec![
        vec![0.5; 8],
        vec![0.5; 8],
        {
            let mut v = vec![0.5; 8];
            v[3] = 0.123456789;
            v
        },
        vec![1.25; 13],
    ];
    for (i, xs) in schedule.iter().enumerate() {
        let (bin_vals, bin_r) = bin_rpc
            .call_op(
                &bin_rpc.service().operations[0].clone(),
                &[Value::DoubleArray(xs.clone())],
            )
            .unwrap();
        let (xml_vals, xml_r) = xml_rpc
            .call_op(
                &xml_rpc.service().operations[0].clone(),
                &[Value::DoubleArray(xs.clone())],
            )
            .unwrap();
        assert_eq!(bin_vals, xml_vals, "responses diverged at call {i}");
        let Value::DoubleArray(ys) = &bin_vals[0] else {
            panic!("variant")
        };
        assert_eq!(ys.len(), xs.len());
        for (y, x) in ys.iter().zip(xs) {
            assert_eq!(y.to_bits(), (x * 2.0).to_bits());
        }
        // Call 0 rides XML in both clients (the offer is still out).
        // Call 1 is where the negotiated client switches lanes, so it
        // rebuilds FirstTime on the binary lane while the XML client
        // content-matches; from call 2 on the trajectories realign.
        let expect_xml = [
            SendTier::FirstTime,
            SendTier::ContentMatch,
            SendTier::PerfectStructural,
            SendTier::PartialStructural,
        ];
        let expect_bin = [
            SendTier::FirstTime,
            SendTier::FirstTime,
            SendTier::PerfectStructural,
            SendTier::PartialStructural,
        ];
        assert_eq!(xml_r.tier, expect_xml[i], "xml tier at call {i}");
        assert_eq!(bin_r.tier, expect_bin[i], "bin tier at call {i}");
    }
    assert_eq!(bin_rpc.negotiation_state(), NegotiationState::Binary);
    assert_eq!(xml_rpc.negotiation_state(), NegotiationState::Xml);
    // Request lane settled binary after call 1, so the last three
    // requests rode the compact lane end to end.
    assert!(bin_rpc.stats().bytes_sent < xml_rpc.stats().bytes_sent);
    server.stop();
}

/// Deterministic degradation twin-run: the ladder trips and recovers at
/// the same calls in both lanes, and the stats agree exactly.
#[test]
fn degradation_ladder_is_format_blind() {
    let config = EngineConfig::paper_default().with_degraded(2, 1);
    let [mut xml, mut bin] = lanes(&mesh_op(), config, false);
    let model = Model {
        step: 7,
        xs: vec![1.5, 2.5],
        mios: vec![(1, 2, 3.0)],
        tag: "t".into(),
    };
    let args = model.args();

    // ok, fail, fail → degraded; ok (degraded, recovers); ok (tiered again).
    let script = [false, true, true, false, false, false];
    for (i, &fail) in script.iter().enumerate() {
        for rig in [&mut xml, &mut bin] {
            if fail {
                let mut sink = FailingSink::after(0, ErrorKind::Other);
                rig.fail("ep", &args, &mut sink).unwrap();
            } else {
                rig.send("ep", &args).unwrap();
            }
        }
        let ladder = [&xml, &bin].map(|rig| rig.client.is_degraded("ep"));
        assert_eq!(ladder, [i == 2; 2], "ladder at call {i}");
    }

    // call 0 FirstTime; call 3 degraded FirstTime (template was purged);
    // call 4 FirstTime (nothing retained while degraded); call 5 ContentMatch.
    for rig in [&xml, &bin] {
        assert_eq!(rig.spec.n.delivered, [3, 1, 0, 0]);
        assert_eq!(rig.spec.n.degraded_sends, 1);
    }
    assert!(bin.spec.n.bytes_sent < xml.spec.n.bytes_sent);
}
