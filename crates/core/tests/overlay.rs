//! Chunk overlaying (§3.3): bounded memory, tags written once,
//! stream equals the whole-template serialization.

use bsoap_convert::ScalarKind;
use bsoap_core::config::ChunkConfig;
use bsoap_core::overlay::{OverlayReport, OverlaySender};
use bsoap_core::{
    Client, EngineConfig, EngineError, MessageTemplate, OpDesc, SendTier, TypeDesc, Value,
};
use bsoap_obs::{Counter, Metrics};
use bsoap_xml::strip_pad;
use std::sync::Arc;

fn doubles_op() -> OpDesc {
    OpDesc::single(
        "send",
        "urn:bench",
        "arr",
        TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double)),
    )
}

fn mios_op() -> OpDesc {
    OpDesc::single(
        "sendM",
        "urn:bench",
        "arr",
        TypeDesc::array_of(TypeDesc::mio()),
    )
}

fn dvals(n: usize) -> Value {
    Value::DoubleArray((0..n).map(|i| i as f64 * 0.75 + 0.125).collect())
}

#[test]
fn stream_is_pad_equivalent_to_template() {
    let op = doubles_op();
    let config = EngineConfig::paper_default();
    for n in [0usize, 1, 7, 100, 3000] {
        let value = dvals(n);
        let mut sender = OverlaySender::new(config, &op, 64).unwrap();
        let mut out = Vec::new();
        sender.send(&value, &mut out).unwrap();
        let tpl = MessageTemplate::build(config, &op, std::slice::from_ref(&value)).unwrap();
        assert_eq!(
            String::from_utf8(strip_pad(&out)).unwrap(),
            String::from_utf8(strip_pad(&tpl.to_bytes())).unwrap(),
            "n = {n}"
        );
    }
}

#[test]
fn window_memory_stays_bounded() {
    let op = doubles_op();
    let mut sender = OverlaySender::new(EngineConfig::paper_default(), &op, 128).unwrap();
    let mut out = Vec::new();
    let small = sender.send(&dvals(256), &mut out).unwrap();
    out.clear();
    let large = sender.send(&dvals(16_384), &mut out).unwrap();
    // 64x the data, same window-bounded footprint (individual values are
    // a little wider in the large array, so allow that growth but nothing
    // proportional to the array).
    assert!(
        large.window_bytes < small.window_bytes * 2,
        "window grew with the array: {} vs {}",
        large.window_bytes,
        small.window_bytes
    );
    assert_eq!(large.portions, 16_384 / 128);
    assert!(large.window_bytes < out.len() / 50);
}

#[test]
fn tags_written_once_values_every_portion() {
    // Re-sending through the same sender reuses the window fragment:
    // every send after the first re-serializes values only.
    let op = doubles_op();
    let mut sender = OverlaySender::new(EngineConfig::paper_default(), &op, 32).unwrap();
    let mut out = Vec::new();
    let n = 320usize;
    let r1 = sender.send(&dvals(n), &mut out).unwrap();
    assert_eq!(r1.portions, 10);
    // First send serializes every value at least once (builds the window).
    assert!(
        r1.values_written >= n - 32,
        "first send: {}",
        r1.values_written
    );
    out.clear();
    let r2 = sender.send(&dvals(n), &mut out).unwrap();
    // Subsequent sends also re-serialize all values (that is the overlay
    // trade-off) but never rebuild tags; the report shape stays stable.
    assert_eq!(r2.portions, 10);
    assert_eq!(r2.values_written, n);
}

#[test]
fn changing_data_between_sends() {
    let op = doubles_op();
    let config = EngineConfig::paper_default();
    let mut sender = OverlaySender::new(config, &op, 16).unwrap();
    let mut out1 = Vec::new();
    sender.send(&dvals(100), &mut out1).unwrap();

    let mut changed = dvals(100);
    let Value::DoubleArray(v) = &mut changed else {
        unreachable!()
    };
    for x in v.iter_mut() {
        *x += 1.0;
    }
    let mut out2 = Vec::new();
    sender.send(&changed, &mut out2).unwrap();
    let tpl = MessageTemplate::build(config, &op, &[changed]).unwrap();
    assert_eq!(strip_pad(&out2), strip_pad(&tpl.to_bytes()));
    assert_ne!(strip_pad(&out1), strip_pad(&out2));
}

#[test]
fn length_changes_between_sends() {
    // Growing and shrinking arrays re-portion correctly (tail fragment
    // rebuilt on size change).
    let op = doubles_op();
    let config = EngineConfig::paper_default();
    let mut sender = OverlaySender::new(config, &op, 16).unwrap();
    for n in [100usize, 37, 160, 16, 15, 17, 0, 5] {
        let value = dvals(n);
        let mut out = Vec::new();
        sender.send(&value, &mut out).unwrap();
        let tpl = MessageTemplate::build(config, &op, std::slice::from_ref(&value)).unwrap();
        assert_eq!(strip_pad(&out), strip_pad(&tpl.to_bytes()), "n = {n}");
    }
}

#[test]
fn mio_overlay_round_trips() {
    let op = mios_op();
    let config = EngineConfig::paper_default();
    let value = Value::Array(
        (0..200)
            .map(|i| bsoap_core::value::mio(i, -i, i as f64 * 1.5))
            .collect(),
    );
    let mut sender = OverlaySender::auto_window(config, &op).unwrap();
    let mut out = Vec::new();
    let report = sender.send(&value, &mut out).unwrap();
    assert!(report.bytes > 0);
    let tpl = MessageTemplate::build(config, &op, &[value]).unwrap();
    assert_eq!(strip_pad(&out), strip_pad(&tpl.to_bytes()));
}

#[test]
fn auto_window_fills_one_chunk() {
    let op = mios_op();
    let config = EngineConfig::paper_default();
    let mut sender = OverlaySender::auto_window(config, &op).unwrap();
    let window = sender.window_elems();
    assert!(window >= 1);
    // Every leaf at its kind's widest form: one window of these is the
    // worst case the window was sized for.
    let widest = bsoap_core::value::mio(i32::MIN, i32::MIN, -f64::MIN_POSITIVE);
    let value = Value::Array(vec![widest; window]);
    let report = sender.send(&value, &mut Vec::new()).unwrap();
    assert_eq!(report.portions, 1);
    let (fill, elem) = (config.chunk.fill_limit(), report.window_bytes / window);
    assert!(
        report.window_bytes <= fill,
        "window must fit the chunk at worst-case widths"
    );
    assert!(report.window_bytes + elem > fill, "and fill it");
}

#[test]
fn invalid_shapes_rejected() {
    let config = EngineConfig::paper_default();
    // Non-array parameter.
    let scalar_op = OpDesc::single("f", "urn:x", "v", TypeDesc::Scalar(ScalarKind::Int));
    assert!(OverlaySender::new(config, &scalar_op, 8).is_err());
    // Multi-parameter operation.
    let multi = OpDesc::new(
        "g",
        "urn:x",
        vec![
            bsoap_core::ParamDesc {
                name: "a".into(),
                desc: TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Int)),
            },
            bsoap_core::ParamDesc {
                name: "b".into(),
                desc: TypeDesc::Scalar(ScalarKind::Int),
            },
        ],
    );
    assert!(OverlaySender::new(config, &multi, 8).is_err());
    // Zero-element window.
    assert!(OverlaySender::new(config, &doubles_op(), 0).is_err());
    // Wrong value kind at send time.
    let mut ok = OverlaySender::new(config, &doubles_op(), 8).unwrap();
    assert!(ok.send(&Value::Int(3), &mut Vec::new()).is_err());
}

/// One overlaid call through `client`; returns what it put on the wire.
fn overlaid(
    client: &mut Client,
    op: &OpDesc,
    value: &Value,
) -> (Result<OverlayReport, EngineError>, Vec<u8>) {
    let mut wire = Vec::new();
    let out = client.call_overlaid_via("ep", op, std::slice::from_ref(value), |slices| {
        slices.iter().for_each(|s| wire.extend_from_slice(s));
        Ok(slices.iter().map(|s| s.len()).sum())
    });
    (out, wire)
}

#[test]
fn a_warm_window_refuses_what_a_cold_one_refuses() {
    let ints_op = OpDesc::single(
        "sendI",
        "urn:bench",
        "arr",
        TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Int)),
    );
    const N: usize = 41;
    let mios = Value::Array(
        (0..N as i32)
            .map(|i| bsoap_core::value::mio(i, -i, 0.5))
            .collect(),
    );
    let mut mixed = vec![Value::Str("<x>".into()), Value::Bool(true)];
    mixed.extend((2..N).map(|i| Value::Double(i as f64)));
    let cases = [
        (
            ints_op,
            Value::IntArray((0..N as i32).collect()),
            Value::DoubleArray(vec![1.5; N]),
        ),
        (doubles_op(), dvals(N), Value::Array(mixed)),
        (mios_op(), mios, Value::IntArray((0..N as i32).collect())),
    ];
    // A small chunk: the elements take full windows and a tail.
    let config = EngineConfig::paper_default().with_chunk(ChunkConfig {
        initial_size: 1024,
        split_threshold: 2048,
        reserve: 64,
    });
    for (op, good, bad) in cases {
        let expected = format!(
            "{:?}",
            op.check_args(std::slice::from_ref(&bad)).unwrap_err()
        );
        let window = OverlaySender::auto_window(config, &op)
            .unwrap()
            .window_elems();
        assert!(
            window < N && !N.is_multiple_of(window),
            "{}: a window and a tail",
            op.name
        );
        let mut client = Client::new(config);
        let (first, _) = overlaid(&mut client, &op, &good);
        assert_eq!(first.unwrap().tier, SendTier::FirstTime);
        let (warm, sent) = overlaid(&mut client, &op, &good);
        assert_eq!(warm.unwrap().tier, SendTier::PerfectStructural);
        let reserved = client.template_store().resident_bytes();
        let (refused, wire) = overlaid(&mut client, &op, &bad);
        assert_eq!(
            format!("{:?}", refused.unwrap_err()),
            expected,
            "{}: warm",
            op.name
        );
        assert!(wire.is_empty(), "{}: nothing reached the wire", op.name);
        assert_eq!(client.template_store().resident_bytes(), reserved);
        let (next, resent) = overlaid(&mut client, &op, &good);
        assert_eq!(
            next.unwrap().tier,
            SendTier::PerfectStructural,
            "{}",
            op.name
        );
        assert!(
            resent == sent,
            "{}: the window is as the good send left it",
            op.name
        );

        let (cold, wire) = overlaid(&mut Client::new(config), &op, &bad);
        assert_eq!(
            format!("{:?}", cold.unwrap_err()),
            expected,
            "{}: cold",
            op.name
        );
        assert!(wire.is_empty());
    }
}

#[test]
fn a_degraded_overlaid_send_is_stateless_and_counted() {
    let op = doubles_op();
    let config = EngineConfig::paper_default()
        .with_chunk(ChunkConfig::k8())
        .with_degraded(1, 3);
    let mut client = Client::new(config);
    let metrics = Metrics::shared();
    client.set_metrics(Arc::clone(&metrics));
    let value = dvals(400);
    let store = Arc::clone(client.template_store());

    let (first, wire) = overlaid(&mut client, &op, &value);
    assert_eq!(first.unwrap().tier, SendTier::FirstTime);
    assert!(store.resident_bytes() > 0, "the window is reserved");

    // A transport failure demotes the endpoint and drops the window.
    let cut = client.call_overlaid_via("ep", &op, std::slice::from_ref(&value), |_| {
        Err(std::io::Error::other("wire cut"))
    });
    assert!(matches!(cut, Err(EngineError::Io(_))));
    assert!(client.is_degraded("ep"));
    assert_eq!(store.resident_bytes(), 0);

    // Degraded: every send is a stateless first-time send, nothing is
    // reserved, and each one counts as degraded.
    for round in 1..=3u64 {
        let (out, sent) = overlaid(&mut client, &op, &value);
        assert_eq!(out.unwrap().tier, SendTier::FirstTime, "round {round}");
        assert!(sent == wire, "round {round}: the same message");
        assert_eq!(store.resident_bytes(), 0, "round {round}: nothing retained");
        assert_eq!(client.stats().degraded_sends, round);
        assert_eq!(metrics.snapshot().get(Counter::DegradedSends), round);
    }
    // Three successes promote it back: the window is kept again.
    assert!(!client.is_degraded("ep"));
    let (out, _) = overlaid(&mut client, &op, &value);
    assert_eq!(out.unwrap().tier, SendTier::FirstTime);
    let (out, _) = overlaid(&mut client, &op, &value);
    assert_eq!(out.unwrap().tier, SendTier::PerfectStructural);
    assert!(store.resident_bytes() > 0);
    assert_eq!(client.stats().degraded_sends, 3);
}
