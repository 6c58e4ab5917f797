//! Cross-format differential suite: THE proof obligation for the
//! negotiated compact binary lane.
//!
//! Two clients — one pinned to the SOAP/XML lane, one to the compact
//! binary lane — are driven in lockstep through randomized schedules of
//! value updates, array resizes, string churn, injected transport
//! faults (the degraded-mode ladder) and endpoint switches (§6 sharing).
//! After every successful send the two wire images must decode to exactly the model arguments,
//! the tier trajectories must agree exactly (tiers are decided by value
//! dirtiness and structural change, which are format-independent), the
//! binary lane must realize every numeric rewrite with *zero* shift
//! work — the tier-3 shifting machinery collapses into plain tier-2
//! overwrites because fixed-width binary numerics never grow — and at
//! the end each lane's `ClientStats` must reconcile exactly against the
//! reports it actually produced.

use bsoap::convert::ScalarKind;
use bsoap::deser::{parse_binary_envelope, parse_envelope};
use bsoap::{
    mio, ChunkConfig, Client, ClientStats, EngineConfig, EngineError, OpDesc, ParamDesc,
    SendReport, SendTier, TypeDesc, Value, WidthPolicy, WireFormat,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::io;

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

impl Step {
    /// Steps whose only effect is rewriting fixed-width numerics — the
    /// binary lane must realize these with zero shifts/steals/splits.
    fn numeric_only(&self) -> bool {
        matches!(
            self,
            Step::Bump(_) | Step::SetDouble(..) | Step::SetMio(..) | Step::Repeat
        )
    }
}

fn small_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<i32>().prop_map(|i| i as f64),
        (any::<i32>(), 1i32..1000).prop_map(|(a, b)| a as f64 / b as f64),
        any::<u64>()
            .prop_map(f64::from_bits)
            .prop_filter("finite", |x| x.is_finite()),
    ]
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

/// Apply `step` to the model; returns `false` for steps that do not
/// change the model (Repeat/FailSend/SwitchEndpoint).
fn apply(model: &mut Model, step: &Step) {
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

/// One call through a lane: captures the wire image, optionally injects
/// a transport fault, and reports whether the endpoint was degraded
/// going in.
fn send_once(
    client: &mut Client,
    endpoint: &str,
    op: &OpDesc,
    args: &[Value],
    fail: bool,
) -> (Result<SendReport, EngineError>, Vec<u8>, bool) {
    let was_degraded = client.is_degraded(endpoint);
    let mut wire = Vec::new();
    let out = client.call_via(endpoint, op, args, |slices| {
        if fail {
            return Err(io::Error::other("injected transport fault"));
        }
        let mut n = 0;
        for s in slices {
            wire.extend_from_slice(s);
            n += s.len();
        }
        Ok(n)
    });
    (out, wire, was_degraded)
}

/// The tier trajectories the lane actually produced, accumulated the
/// same way `ClientStats::record` does — the reconciliation oracle.
#[derive(Default)]
struct Observed {
    first_time: u64,
    content_match: u64,
    perfect: u64,
    partial: u64,
    degraded: u64,
    bytes: u64,
}

impl Observed {
    fn absorb(&mut self, r: &SendReport, was_degraded: bool) {
        match r.tier {
            SendTier::FirstTime => self.first_time += 1,
            SendTier::ContentMatch => self.content_match += 1,
            SendTier::PerfectStructural => self.perfect += 1,
            SendTier::PartialStructural => self.partial += 1,
        }
        if was_degraded {
            self.degraded += 1;
        }
        self.bytes += r.bytes as u64;
    }

    fn reconcile(&self, stats: &ClientStats, lane: &str) -> Result<(), TestCaseError> {
        prop_assert_eq!(stats.first_time, self.first_time, "{} first_time", lane);
        prop_assert_eq!(
            stats.content_match,
            self.content_match,
            "{} content_match",
            lane
        );
        prop_assert_eq!(stats.perfect_structural, self.perfect, "{} perfect", lane);
        prop_assert_eq!(stats.partial_structural, self.partial, "{} partial", lane);
        prop_assert_eq!(stats.degraded_sends, self.degraded, "{} degraded", lane);
        prop_assert_eq!(stats.bytes_sent, self.bytes, "{} bytes", lane);
        Ok(())
    }
}

const ENDPOINTS: [&str; 2] = ["http://mesh/a", "http://mesh/b"];

fn run_schedule(
    mut model: Model,
    steps: &[Step],
    config: EngineConfig,
    sharing: bool,
) -> Result<(), TestCaseError> {
    let op = mesh_op();
    let [mut xml, mut bin] = WireFormat::ALL.map(|f| Client::new(config.with_wire_format(f)));
    xml.set_endpoint_sharing(sharing);
    bin.set_endpoint_sharing(sharing);

    let mut xml_obs = Observed::default();
    let mut bin_obs = Observed::default();
    let mut ep = 0usize;

    for step in steps {
        if matches!(step, Step::SwitchEndpoint) {
            ep = 1 - ep;
        }
        apply(&mut model, step);
        let args = model.args();
        let fail = matches!(step, Step::FailSend);

        let (xml_out, xml_wire, xml_deg) = send_once(&mut xml, ENDPOINTS[ep], &op, &args, fail);
        let (bin_out, bin_wire, bin_deg) = send_once(&mut bin, ENDPOINTS[ep], &op, &args, fail);

        if fail {
            prop_assert!(
                matches!(xml_out, Err(EngineError::Io(_))),
                "xml lane swallowed the injected fault after {:?}",
                step
            );
            prop_assert!(
                matches!(bin_out, Err(EngineError::Io(_))),
                "binary lane swallowed the injected fault after {:?}",
                step
            );
            continue;
        }

        let xml_r = xml_out.unwrap();
        let bin_r = bin_out.unwrap();
        // The degraded-mode ladders must track each other exactly.
        prop_assert_eq!(xml_deg, bin_deg, "degradation diverged after {:?}", step);
        xml_obs.absorb(&xml_r, xml_deg);
        bin_obs.absorb(&bin_r, bin_deg);
        if xml_deg {
            prop_assert_eq!(xml_r.tier, SendTier::FirstTime);
            prop_assert_eq!(bin_r.tier, SendTier::FirstTime);
        }

        // Equal meaning: both wire images decode to exactly the model.
        let xml_vals = parse_envelope(&xml_wire, &op).unwrap();
        let bin_vals = parse_binary_envelope(&bin_wire, &op).unwrap();
        prop_assert_eq!(&xml_vals, &args, "xml decode drifted after {:?}", step);
        prop_assert_eq!(&bin_vals, &args, "binary decode drifted after {:?}", step);
        let (Value::DoubleArray(xa), Value::DoubleArray(ba)) = (&xml_vals[1], &bin_vals[1]) else {
            panic!("xs variant");
        };
        for ((a, b), m) in xa.iter().zip(ba).zip(&model.xs) {
            prop_assert_eq!(a.to_bits(), m.to_bits());
            prop_assert_eq!(b.to_bits(), m.to_bits());
        }

        // Tier trajectories agree exactly: the tier is decided by value
        // dirtiness and structural change, both format-independent. The
        // tier-3 collapse shows up below as the *shift work* vanishing,
        // not as a different label.
        prop_assert_eq!(bin_r.tier, xml_r.tier, "tier divergence after {:?}", step);

        // Numeric rewrites are same-length overwrites in the binary
        // format: never a shift, steal, or split.
        if step.numeric_only() {
            prop_assert_eq!(bin_r.shifts, 0, "binary shift on numeric {:?}", step);
            prop_assert_eq!(bin_r.steals, 0, "binary steal on numeric {:?}", step);
            prop_assert_eq!(bin_r.splits, 0, "binary split on numeric {:?}", step);
        }

        // The compact lane earns its name on every single message.
        prop_assert!(
            bin_wire.len() < xml_wire.len(),
            "binary image ({}B) not smaller than XML ({}B) after {:?}",
            bin_wire.len(),
            xml_wire.len(),
            step
        );
    }

    // Exact per-lane reconciliation: stats must equal the trajectories
    // the lane actually reported — nothing double-counted, nothing lost.
    let xs = xml.stats();
    let bs = bin.stats();
    xml_obs.reconcile(&xs, "xml")?;
    bin_obs.reconcile(&bs, "bin")?;

    // Cross-lane: every aggregate agrees except the Partial→Perfect
    // redistribution the collapse rule allows.
    prop_assert_eq!(xs.first_time, bs.first_time);
    prop_assert_eq!(xs.content_match, bs.content_match);
    prop_assert_eq!(xs.degraded_sends, bs.degraded_sends);
    prop_assert_eq!(xs.shared_clones, bs.shared_clones);
    prop_assert_eq!(
        xs.perfect_structural + xs.partial_structural,
        bs.perfect_structural + bs.partial_structural
    );
    prop_assert!(bs.perfect_structural >= xs.perfect_structural);
    prop_assert_eq!(xs.calls(), bs.calls());
    if xs.calls() > 0 {
        prop_assert!(bs.bytes_sent < xs.bytes_sent);
    }
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
    let [mut xml, mut bin] = WireFormat::ALL.map(|f| Client::new(config.with_wire_format(f)));

    // Short decimal images first, long ones second: every element's
    // XML width grows; its binary width (8 bytes) cannot.
    let first = vec![0.5_f64; 64];
    let second: Vec<f64> = (0..64)
        .map(|i| 0.123456789012345 + i as f64 * 1e-7)
        .collect();

    for c in [&mut xml, &mut bin] {
        let r = c
            .call_via("ep", &op, &[Value::DoubleArray(first.clone())], |s| {
                Ok(s.iter().map(|x| x.len()).sum())
            })
            .unwrap();
        assert_eq!(r.tier, SendTier::FirstTime);
    }
    let xml_r = xml
        .call_via("ep", &op, &[Value::DoubleArray(second.clone())], |s| {
            Ok(s.iter().map(|x| x.len()).sum())
        })
        .unwrap();
    let bin_r = bin
        .call_via("ep", &op, &[Value::DoubleArray(second.clone())], |s| {
            Ok(s.iter().map(|x| x.len()).sum())
        })
        .unwrap();

    // Same tier label both sides — but the XML lane pays shift passes
    // for the wider decimal images while the binary lane overwrites
    // 8-byte slots in place. That elimination of tier-3 *work* from a
    // tier-2 send is the collapse the compact format buys.
    assert_eq!(xml_r.tier, SendTier::PerfectStructural);
    assert!(
        xml_r.shifts > 0,
        "exact-width XML lane must shift on width growth"
    );
    assert_eq!(
        bin_r.tier,
        SendTier::PerfectStructural,
        "binary lane must absorb width growth in place"
    );
    assert_eq!(bin_r.shifts, 0);
    assert_eq!(bin_r.steals, 0);
    assert_eq!(bin_r.splits, 0);
    assert_eq!(bin_r.values_written, 64);
}

/// End-to-end leg of the differential suite: the same call schedule
/// through a negotiated-binary RPC client and an XML-pinned one, against
/// live HTTP servers on *both* server cores, must produce identical
/// decoded responses — and the binary client must actually settle on
/// the binary lane.
#[test]
fn cross_format_schedules_agree_end_to_end_on_both_cores() {
    use bsoap::rpc::RpcClient;
    use bsoap::server::{HttpServer, Service};
    use bsoap::transport::NegotiationState;
    use bsoap::wsdl::ServiceDesc;

    for &core in bsoap::transport::supported_cores() {
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
        let mut svc = Service::new(
            "urn:vec",
            EngineConfig::paper_default().with_server_core(core),
        );
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
            assert_eq!(
                bin_vals, xml_vals,
                "core {core:?}: responses diverged at call {i}"
            );
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
            assert_eq!(
                xml_r.tier, expect_xml[i],
                "core {core:?}: xml tier at call {i}"
            );
            assert_eq!(
                bin_r.tier, expect_bin[i],
                "core {core:?}: bin tier at call {i}"
            );
        }
        assert_eq!(bin_rpc.negotiation_state(), NegotiationState::Binary);
        assert_eq!(xml_rpc.negotiation_state(), NegotiationState::Xml);
        // Request lane settled binary after call 1, so the last three
        // requests rode the compact lane end to end.
        assert!(bin_rpc.stats().bytes_sent < xml_rpc.stats().bytes_sent);
        server.stop();
    }
}

/// Deterministic degradation twin-run: the ladder trips and recovers at
/// the same calls in both lanes, and the stats agree exactly.
#[test]
fn degradation_ladder_is_format_blind() {
    let op = mesh_op();
    let config = EngineConfig::paper_default().with_degraded(2, 1);
    let [mut xml, mut bin] = WireFormat::ALL.map(|f| Client::new(config.with_wire_format(f)));
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
        let (xml_out, _, xml_deg) = send_once(&mut xml, "ep", &op, &args, fail);
        let (bin_out, _, bin_deg) = send_once(&mut bin, "ep", &op, &args, fail);
        assert_eq!(xml_deg, bin_deg, "ladder diverged at call {i}");
        assert_eq!(
            xml_out.is_ok(),
            bin_out.is_ok(),
            "outcome diverged at call {i}"
        );
    }
    assert!(!xml.is_degraded("ep"));
    assert!(!bin.is_degraded("ep"));

    let (xs, bs) = (xml.stats(), bin.stats());
    assert_eq!(xs.degraded_sends, 1);
    assert_eq!(bs.degraded_sends, 1);
    // call 0 FirstTime; call 3 degraded FirstTime (template was purged);
    // call 4 FirstTime (nothing retained while degraded); call 5 ContentMatch.
    assert_eq!(xs.first_time, 3);
    assert_eq!(bs.first_time, 3);
    assert_eq!(xs.content_match, 1);
    assert_eq!(bs.content_match, 1);
    assert!(bs.bytes_sent < xs.bytes_sent);
}
