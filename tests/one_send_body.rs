//! One tiered send: `TemplateStore::send` is the only body that checks a
//! template out, diffs, gates, patches, hands the bytes over and puts it
//! back, and `Client::call_via` and the server's dispatch are its only
//! callers — a source walk over what PR 20 deleted, and a run of the same
//! schedule down both sides of the wire showing they count alike.

mod common;

use std::sync::{Arc, Mutex};

use bsoap::baseline::GSoapLike;
use bsoap::convert::ScalarKind;
use bsoap::obs::{Counter, EngineStats, Metrics};
use bsoap::server::Service;
use bsoap::xml::strip_pad;
use bsoap::{
    Client, EngineConfig, MessageTemplate, OpDesc, ParamDesc, SendTier, TypeDesc, Value, WireFormat,
};

/// The SIMD-hit tally is process-global and a metered send scoops it:
/// the tests here that drive the engine take turns.
static ENGINE: Mutex<()> = Mutex::new(());

#[test]
fn the_tiered_send_has_one_body() {
    let sources = common::product_sources();
    let gone = [
        "lease_front",
        "fn prepare(",
        "fn call_tiered",
        "fn full_send",
        "fn diff_and_send",
    ];
    let revived: Vec<String> = sources
        .iter()
        .flat_map(|(path, text)| {
            gone.iter()
                .filter(|n| text.contains(**n))
                .map(move |n| format!("{path}: {n}"))
        })
        .collect();
    assert!(
        revived.is_empty(),
        "deleted send bodies are back: {revived:#?}"
    );

    // The non-test part of every product file. (`transport`'s connection
    // pool has a `checkout()` of its own: sockets, not templates.)
    let product: Vec<(&str, &str)> = sources
        .iter()
        .filter(|(path, _)| !path.ends_with("crates/transport/src/pool.rs"))
        .map(|(path, text)| (path.as_str(), text.split("#[cfg(test)]").next().unwrap()))
        .collect();
    let count = |file: &str, needle: &str| -> usize {
        product
            .iter()
            .filter(|(path, _)| path.ends_with(file))
            .map(|(_, text)| text.matches(needle).count())
            .sum()
    };

    // Templates leave and re-enter the store in one function.
    let (store, send) = ("crates/core/src/store.rs", "crates/core/src/send.rs");
    let strays: Vec<String> = product
        .iter()
        .filter(|(path, _)| !path.ends_with(store) && !path.ends_with(send))
        .flat_map(|(path, text)| {
            [".checkout(", ".admit("]
                .into_iter()
                .filter(|n| text.contains(n))
                .map(move |n| format!("{path}: {n}"))
        })
        .collect();
    assert!(strays.is_empty(), "a second send body: {strays:#?}");
    assert_eq!(count(store, ".checkout(") + count(store, ".admit("), 0);
    assert_eq!(count(send, ".checkout("), 1);
    assert!((1..=2).contains(&count(send, ".admit(")));
    assert_eq!(count(send, "pub fn "), 1, "one entry point");

    // A send tier is counted in one function.
    let ticks: Vec<&str> = product
        .iter()
        .filter(|(_, text)| text.contains("add(Counter::send("))
        .map(|(path, _)| *path)
        .collect();
    assert_eq!(ticks.len(), 1, "{ticks:?}");
    assert!(ticks[0].ends_with(send));
    assert_eq!(count(send, "add(Counter::send("), 1);
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

/// What the one accounting fold has ticked: sends per tier (4), per lane
/// (2), values written, SIMD kernel hits.
fn fold(snap: &EngineStats) -> [u64; 8] {
    let [t0, t1, t2, t3] = snap.tier_counts();
    [
        t0,
        t1,
        t2,
        t3,
        snap.get(Counter::SendsXml),
        snap.get(Counter::SendsBinary),
        snap.get(Counter::ValuesWritten),
        snap.get(Counter::SimdKernelHits),
    ]
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

        // The server side: an echo whose response is the schedule.
        let server_metrics = Metrics::shared();
        let mut service = Service::new("urn:sides", config);
        service.set_metrics(Arc::clone(&server_metrics));
        let request = schedule_op("echo");
        service.register(request.clone(), schedule_params(), |args| Ok(args.to_vec()));
        let response = service.response_desc("echo").unwrap();
        let requests: Vec<Vec<u8>> = schedule
            .iter()
            .map(|(args, _)| {
                MessageTemplate::build(config, &request, args)
                    .unwrap()
                    .to_bytes()
            })
            .collect();
        let mut oracle = GSoapLike::new();
        let fulls: Vec<Vec<u8>> = schedule
            .iter()
            .map(|(args, _)| oracle.serialize(&response, args).unwrap().to_vec())
            .collect();

        // The client side sends that same response operation as a request.
        let client_metrics = Metrics::shared();
        let mut client = Client::new(config);
        client.set_metrics(Arc::clone(&client_metrics));

        // Building the requests and the oracle's messages ran kernels
        // nobody was counting; a throwaway metered send scoops that
        // residue.
        let mut scratch = Client::new(config);
        scratch.set_metrics(Metrics::shared());
        scratch
            .call("drain", &request, &schedule[0].0, &mut Vec::new())
            .unwrap();

        for (step, ((args, tier), body)) in schedule.iter().zip(&requests).enumerate() {
            let at = format!("{} step {step}", lane.name());

            let moved = |m: &Metrics, before: [u64; 8]| -> [u64; 8] {
                let after = fold(&m.snapshot());
                std::array::from_fn(|i| after[i] - before[i])
            };

            let before = fold(&client_metrics.snapshot());
            let mut sent = Vec::new();
            let report = client.call("ep", &response, args, &mut sent).unwrap();
            let client_moved = moved(&client_metrics, before);
            assert_eq!(report.tier, *tier, "{at}");

            let before = fold(&server_metrics.snapshot());
            let (reply, reply_lane) = service.dispatch_formatted("echo", body, lane).unwrap();
            let server_moved = moved(&server_metrics, before);
            assert_eq!(reply_lane, lane, "{at}");

            assert_eq!(
                client_moved, server_moved,
                "{at}: sends by tier, sends by lane, values written, simd hits"
            );
            let mut one_send = [0u64; 6];
            one_send[tier.index()] = 1;
            one_send[4 + lane.index()] = 1;
            assert_eq!(server_moved[..6], one_send, "{at}");
            if *tier == SendTier::FirstTime {
                // Tag, array length, three elements.
                assert_eq!(server_moved[6], 5, "{at}: a first-time response counts");
            }

            // Same body, same bytes — and the bytes a full serialization
            // of the current values would have produced.
            assert_eq!(sent, reply, "{at}");
            match lane {
                WireFormat::SoapXml => {
                    assert_eq!(strip_pad(&reply), strip_pad(&fulls[step]), "{at}");
                }
                WireFormat::CompactBinary => {
                    assert_eq!(
                        &bsoap::deser::decode(lane, &reply, &response).unwrap(),
                        args
                    );
                }
            }
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
    let mut client = Client::new(EngineConfig::paper_default().with_window_elems(64));
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
