//! The §6 ("Future Work") extensions: multi-template sets and
//! cross-endpoint template sharing.

use bsoap_convert::ScalarKind;
use bsoap_core::sendv::write_all_vectored;
use bsoap_core::{Client, EngineConfig, OpDesc, SendTier, TypeDesc, Value, WireFormat};
use bsoap_deser::parse_binary_envelope;
use std::io::sink;

fn doubles_op() -> OpDesc {
    OpDesc::single(
        "send",
        "urn:bench",
        "arr",
        TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double)),
    )
}

/// A client whose endpoints default to `format`: the §6 extensions sit
/// above the lane, so every test below runs on both.
fn lane_client(format: WireFormat) -> Client {
    Client::new(EngineConfig::paper_default().with_wire_format(format))
}

fn xs(n: usize) -> Vec<Value> {
    vec![Value::DoubleArray((0..n).map(|i| i as f64 + 0.5).collect())]
}

#[test]
fn single_template_resizes_on_alternating_shapes() {
    for format in WireFormat::ALL {
        // Base behaviour: one template per key, so A/B/A/B lengths resize
        // every call after the first two.
        let op = doubles_op();
        let mut client = lane_client(format);
        let mut out = sink();
        client.call("ep", &op, &xs(10), &mut out).unwrap();
        let tiers: Vec<SendTier> = (0..4)
            .map(|i| {
                let n = if i % 2 == 0 { 100 } else { 10 };
                client.call("ep", &op, &xs(n), &mut out).unwrap().tier
            })
            .collect();
        assert!(
            tiers.iter().all(|&t| t == SendTier::PartialStructural),
            "every alternating call resizes: {tiers:?}"
        );
    }
}

#[test]
fn multi_template_set_eliminates_resizes() {
    for format in WireFormat::ALL {
        // §6: "store multiple different message templates for the same remote
        // service". With two slots, the A and B shapes each get their own
        // template and every later call is a content/perfect match.
        let op = doubles_op();
        let mut client = lane_client(format);
        client.set_templates_per_key(2);
        let mut out = sink();

        let a = xs(10);
        let b = xs(100);
        assert_eq!(
            client.call("ep", &op, &a, &mut out).unwrap().tier,
            SendTier::FirstTime
        );
        assert_eq!(
            client.call("ep", &op, &b, &mut out).unwrap().tier,
            SendTier::FirstTime
        );
        for _ in 0..3 {
            assert_eq!(
                client.call("ep", &op, &a, &mut out).unwrap().tier,
                SendTier::ContentMatch
            );
            assert_eq!(
                client.call("ep", &op, &b, &mut out).unwrap().tier,
                SendTier::ContentMatch
            );
        }
        assert_eq!(client.template_store().template_count(), 2);
    }
}

#[test]
fn multi_template_set_builds_variants_until_cap() {
    for format in WireFormat::ALL {
        let op = doubles_op();
        let mut client = lane_client(format);
        client.set_templates_per_key(3);
        let mut out = sink();

        // Three distinct shapes each get their own template…
        for n in [1usize, 50, 2000] {
            assert_eq!(
                client.call("ep", &op, &xs(n), &mut out).unwrap().tier,
                SendTier::FirstTime
            );
        }
        assert_eq!(client.template_store().template_count(), 3);
        // …and all three now serve content matches.
        for n in [1usize, 50, 2000] {
            assert_eq!(
                client.call("ep", &op, &xs(n), &mut out).unwrap().tier,
                SendTier::ContentMatch
            );
        }
        // A fourth shape cannot add a template (cap reached): it resizes the
        // nearest variant (n=1 → n=3) in place.
        let r = client.call("ep", &op, &xs(3), &mut out).unwrap();
        assert_eq!(r.tier, SendTier::PartialStructural);
        assert_eq!(client.template_store().template_count(), 3);
    }
}

#[test]
fn multi_template_full_set_resizes_nearest() {
    for format in WireFormat::ALL {
        // Once the set is at capacity, unmatched shapes resize the closest
        // variant instead of building a third template.
        let op = doubles_op();
        let mut client = lane_client(format);
        client.set_templates_per_key(2);
        let mut out = sink();
        client.call("ep", &op, &xs(10), &mut out).unwrap();
        client.call("ep", &op, &xs(1000), &mut out).unwrap();
        let r = client.call("ep", &op, &xs(12), &mut out).unwrap();
        assert_eq!(r.tier, SendTier::PartialStructural);
        assert_eq!(client.template_store().template_count(), 2, "cap respected");
        // The resized variant (now n=12) serves n=12 directly.
        assert_eq!(
            client.call("ep", &op, &xs(12), &mut out).unwrap().tier,
            SendTier::ContentMatch
        );
        // And the n=1000 variant is still intact.
        assert_eq!(
            client.call("ep", &op, &xs(1000), &mut out).unwrap().tier,
            SendTier::ContentMatch
        );
    }
}

#[test]
fn endpoint_sharing_skips_full_serialization() {
    for format in WireFormat::ALL {
        // §6: "applications that send the same (or similar) data to different
        // remote services". With sharing on, the first call to endpoint B
        // clones A's template; identical args make it a content match.
        let op = doubles_op();
        let mut client = lane_client(format);
        client.set_endpoint_sharing(true);
        let mut out = sink();

        let args = xs(500);
        assert_eq!(
            client.call("http://a", &op, &args, &mut out).unwrap().tier,
            SendTier::FirstTime
        );
        let r = client.call("http://b", &op, &args, &mut out).unwrap();
        assert_eq!(
            r.tier,
            SendTier::ContentMatch,
            "clone + diff of identical args"
        );
        assert_eq!(client.stats().shared_clones, 1);
        assert_eq!(
            client.stats().first_time,
            1,
            "endpoint B never fully serialized"
        );

        // Similar-but-not-identical data: clone + perfect structural match.
        let mut changed = args.clone();
        let Value::DoubleArray(v) = &mut changed[0] else {
            panic!()
        };
        v[7] = 9.5;
        let r = client.call("http://c", &op, &changed, &mut out).unwrap();
        assert_eq!(r.tier, SendTier::PerfectStructural);
        assert_eq!(r.values_written, 1);
        assert_eq!(client.stats().shared_clones, 2);
    }
}

#[test]
fn endpoint_sharing_respects_structure() {
    for format in WireFormat::ALL {
        let op_d = doubles_op();
        let op_i = OpDesc::single(
            "send",
            "urn:bench",
            "arr",
            TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Int)),
        );
        let mut client = lane_client(format);
        client.set_endpoint_sharing(true);
        let mut out = sink();
        client.call("http://a", &op_d, &xs(5), &mut out).unwrap();
        // Different structure on a new endpoint: no shareable sibling.
        let r = client
            .call(
                "http://b",
                &op_i,
                &[Value::IntArray(vec![1, 2, 3])],
                &mut out,
            )
            .unwrap();
        assert_eq!(r.tier, SendTier::FirstTime);
        assert_eq!(client.stats().shared_clones, 0);
    }
}

#[test]
fn endpoint_sharing_respects_wire_format() {
    // Endpoint A speaks XML, endpoint B is called on the compact binary
    // lane: A's saved bytes are the wrong lane for B, so B's first send is
    // a full binary serialization, never a clone of the XML sibling.
    let op = doubles_op();
    let mut client = Client::new(EngineConfig::paper_default());
    client.set_endpoint_sharing(true);
    let args = xs(50);

    client.call("http://a", &op, &args, &mut sink()).unwrap();
    let mut wire_b = Vec::new();
    let r = client
        .call_on(
            WireFormat::CompactBinary,
            "http://b",
            &op,
            &args,
            |slices| write_all_vectored(&mut wire_b, slices),
        )
        .unwrap();
    assert_eq!(r.tier, SendTier::FirstTime, "no same-format sibling exists");
    assert_eq!(client.stats().shared_clones, 0);
    assert_eq!(
        WireFormat::of_message(None, &wire_b),
        WireFormat::CompactBinary,
        "B's lane carries BSB1 frames"
    );
    assert_eq!(parse_binary_envelope(&wire_b, &op).unwrap(), args);
}

#[test]
fn sharing_clones_are_independent() {
    for format in WireFormat::ALL {
        // Mutating endpoint B's cloned template must not disturb A's.
        let op = doubles_op();
        let mut client = lane_client(format);
        client.set_endpoint_sharing(true);
        let mut out = sink();
        let args = xs(50);
        client.call("http://a", &op, &args, &mut out).unwrap();
        client.call("http://b", &op, &xs(80), &mut out).unwrap(); // clone + resize

        // A's template is untouched: identical resend is a content match.
        assert_eq!(
            client.call("http://a", &op, &args, &mut out).unwrap().tier,
            SendTier::ContentMatch
        );
    }
}

#[test]
fn sharing_and_multi_templates_compose() {
    for format in WireFormat::ALL {
        let op = doubles_op();
        let mut client = lane_client(format);
        client.set_endpoint_sharing(true);
        client.set_templates_per_key(2);
        let mut out = sink();
        client.call("http://a", &op, &xs(10), &mut out).unwrap();
        client.call("http://a", &op, &xs(500), &mut out).unwrap();
        // New endpoint clones one of A's variants.
        let r = client.call("http://b", &op, &xs(10), &mut out).unwrap();
        assert_ne!(r.tier, SendTier::FirstTime);
        assert_eq!(client.stats().shared_clones, 1);
        assert_eq!(
            client.config(),
            EngineConfig::paper_default().with_wire_format(format)
        );
    }
}
