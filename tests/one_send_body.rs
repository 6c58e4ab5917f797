//! One tiered send: `TemplateStore::send` is the only body that checks a
//! template out, diffs, gates, patches, hands the bytes over and puts it
//! back, and `Client::call_via` and the server's dispatch are its only
//! callers — the `one_send_body` rows of the rule table over what PR 20
//! deleted, and a run of the same schedule down both sides of the wire
//! showing both are what the one executable spec says.

mod common;

use std::sync::{Arc, Mutex};

use bsoap::convert::ScalarKind;
use bsoap::obs::{Counter, Metrics};
use bsoap::server::Service;
use bsoap::{
    ChunkConfig, Client, EngineConfig, MessageTemplate, OpDesc, ParamDesc, SendTier, TypeDesc,
    Value, WireFormat,
};
use common::spec::{assert_wire, Delivery, Spec};
use common::Rig;

/// The SIMD-hit tally is process-global and a metered send scoops it:
/// the tests here that drive the engine take turns.
static ENGINE: Mutex<()> = Mutex::new(());

#[test]
fn the_tiered_send_has_one_body() {
    common::rules::enforce("one_send_body");
}

fn schedule_op(name: &str) -> OpDesc {
    OpDesc::new(name, "urn:sides", schedule_params())
}

fn schedule_params() -> Vec<ParamDesc> {
    vec![
        ParamDesc {
            name: "tag".into(),
            desc: TypeDesc::Scalar(ScalarKind::Str),
        },
        ParamDesc {
            name: "xs".into(),
            desc: TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double)),
        },
    ]
}

fn schedule_args(tag: &str, xs: &[f64]) -> Vec<Value> {
    vec![Value::Str(tag.into()), Value::DoubleArray(xs.to_vec())]
}

#[test]
fn sides_count_alike() {
    let _turn = ENGINE.lock().unwrap_or_else(|e| e.into_inner());
    // first, repeat, one value changed, resized.
    let tag = "a tag long enough for the <escape> scan & its kernel";
    let schedule = [
        (schedule_args(tag, &[1.5, 2.5, 3.5]), SendTier::FirstTime),
        (schedule_args(tag, &[1.5, 2.5, 3.5]), SendTier::ContentMatch),
        (
            schedule_args(tag, &[1.5, 9.5, 3.5]),
            SendTier::PerfectStructural,
        ),
        (
            schedule_args(tag, &[1.5, 9.5, 3.5, 4.5, 5.5]),
            SendTier::PartialStructural,
        ),
    ];
    for lane in WireFormat::ALL {
        let config = EngineConfig::paper_default().with_wire_format(lane);

        // The server side: an echo whose response is the schedule, and
        // the spec of a send — a response is one.
        let server_metrics = Metrics::shared();
        let mut service = Service::new("urn:sides", config);
        service.set_metrics(Arc::clone(&server_metrics));
        let request = schedule_op("echo");
        service.register(request.clone(), schedule_params(), |args| Ok(args.to_vec()));
        let response = service.response_desc("echo").unwrap();
        let mut server_spec = Spec::of(&config);
        let requests: Vec<Vec<u8>> = schedule
            .iter()
            .map(|(args, _)| {
                MessageTemplate::build(config, &request, args)
                    .unwrap()
                    .to_bytes()
            })
            .collect();

        // The client side sends that same response operation as a request.
        let mut client = Rig::new(response.clone(), config);

        // Building the requests, and the oracle inside every rig send,
        // run kernels nobody is counting; a throwaway metered send scoops
        // that residue before each measured one.
        let mut scratch = Client::new(config);
        scratch.set_metrics(Metrics::shared());
        let mut drain = || {
            let args = &schedule[0].0;
            scratch
                .call("drain", &request, args, &mut Vec::new())
                .unwrap();
        };

        let simd_hits = |m: &Metrics| m.snapshot().get(Counter::SimdKernelHits);
        for (step, ((args, tier), body)) in schedule.iter().zip(&requests).enumerate() {
            let at = format!("{} step {step}", lane.name());

            // The rig holds the client to its spec: tier, lane, values,
            // bytes, and the delivery half of the rule.
            drain();
            let before = simd_hits(&client.metrics);
            let report = client.send("ep", args).unwrap();
            let client_hits = simd_hits(&client.metrics) - before;
            assert_eq!(report.tier, *tier, "{at}");

            drain();
            let before = simd_hits(&server_metrics);
            let (reply, reply_lane) = service.dispatch_formatted("echo", body, lane).unwrap();
            let server_hits = simd_hits(&server_metrics) - before;
            assert_eq!(reply_lane, lane, "{at}");

            // The server's response is held to the same spec: the
            // serialization half on its registry (its transport counts
            // the bytes), the tiers on its `ServiceStats`.
            let delivery = Delivery::Sent(reply.len() as u64);
            let predicted = server_spec.step("ep", args, delivery);
            assert_eq!(predicted.tier, *tier, "{at}");
            server_spec
                .check_serialized(&server_metrics.snapshot())
                .and_then(|()| server_spec.check_service(&service.stats()))
                .and_then(|()| assert_wire(lane, &response, args, &reply))
                .unwrap_or_else(|e| panic!("{at}: {e:?}"));

            // Same body: same bytes, same kernels.
            assert_eq!(client.wire, reply, "{at}");
            assert_eq!(client_hits, server_hits, "{at}: simd hits");
        }
    }
}

#[test]
fn an_overlaid_send_counts_like_any_other() {
    let _turn = ENGINE.lock().unwrap_or_else(|e| e.into_inner());
    let op = OpDesc::single(
        "stream",
        "urn:sides",
        "xs",
        TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double)),
    );
    let metrics = Metrics::shared();
    let mut client = Client::new(EngineConfig::paper_default().with_chunk(ChunkConfig::k8()));
    client.set_metrics(Arc::clone(&metrics));
    let value = Value::DoubleArray((0..320).map(|i| i as f64 * 0.5).collect());
    for (round, tier) in [SendTier::FirstTime, SendTier::PerfectStructural]
        .into_iter()
        .enumerate()
    {
        let report = client
            .call_overlaid_via("ep", &op, std::slice::from_ref(&value), |slices| {
                Ok(slices.iter().map(|s| s.len()).sum())
            })
            .unwrap();
        assert_eq!(report.tier, tier);
        let snap = metrics.snapshot();
        let sends = round as u64 + 1;
        assert_eq!(snap.total_sends(), sends);
        assert_eq!(snap.tier_sends(tier), 1);
        assert_eq!(snap.get(Counter::SendsXml), sends, "the lane counter too");
        assert_eq!(snap.get(Counter::SendsBinary), 0);
    }
}
