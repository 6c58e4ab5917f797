//! Workspace-wide property test: THE correctness theorem.
//!
//! For any operation shape, any starting arguments, any sequence of
//! updates (value changes *and* resizes), and any engine configuration:
//! the differential client's wire bytes are pad-equivalent to a
//! from-scratch full serialization of the same arguments, and parse back
//! to exactly those arguments.

use bsoap::baseline::GSoapLike;
use bsoap::convert::ScalarKind;
use bsoap::deser::parse_envelope;
use bsoap::xml::strip_pad;
use bsoap::{
    mio, ChunkConfig, Client, EngineConfig, MessageTemplate, OpDesc, TypeDesc, Value, WidthPolicy,
};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Update {
    SetDouble(usize, f64),
    Resize(usize),
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

fn update_strategy() -> impl Strategy<Value = Update> {
    prop_oneof![
        (0usize..64, small_f64()).prop_map(|(i, v)| Update::SetDouble(i, v)),
        (0usize..48).prop_map(Update::Resize),
    ]
}

fn config_strategy() -> impl Strategy<Value = EngineConfig> {
    let chunk = prop_oneof![
        Just(ChunkConfig::k32()),
        Just(ChunkConfig::k8()),
        Just(ChunkConfig {
            initial_size: 192,
            split_threshold: 384,
            reserve: 16
        }),
    ];
    let width = prop_oneof![
        Just(WidthPolicy::Exact),
        Just(WidthPolicy::Max),
        Just(WidthPolicy::Fixed {
            double: 18,
            int: 6,
            long: 12
        }),
    ];
    (chunk, width, any::<bool>()).prop_map(|(chunk, width, steal)| {
        EngineConfig::paper_default()
            .with_chunk(chunk)
            .with_width(width)
            .with_steal(steal)
    })
}

fn apply(xs: &mut Vec<f64>, u: &Update) {
    match u {
        Update::SetDouble(i, v) => {
            if !xs.is_empty() {
                let i = i % xs.len();
                xs[i] = *v;
            }
        }
        Update::Resize(n) => {
            let n = *n;
            if n > xs.len() {
                xs.extend((xs.len()..n).map(|k| k as f64 * 0.5));
            } else {
                xs.truncate(n);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn differential_equals_full_serialization(
        initial in prop::collection::vec(small_f64(), 0..40),
        updates in prop::collection::vec(update_strategy(), 1..12),
        config in config_strategy(),
    ) {
        let op = OpDesc::single(
            "send", "urn:bench", "arr",
            TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double)),
        );
        let mut xs = initial;
        let mut tpl =
            MessageTemplate::build(config, &op, &[Value::DoubleArray(xs.clone())]).unwrap();
        let mut baseline = GSoapLike::new();

        for u in &updates {
            apply(&mut xs, u);
            tpl.update_args(&[Value::DoubleArray(xs.clone())]).unwrap();
            tpl.flush();
            tpl.assert_invariants();

            let differential = tpl.to_bytes();
            let full = baseline
                .serialize(&op, &[Value::DoubleArray(xs.clone())])
                .unwrap()
                .to_vec();
            prop_assert_eq!(
                strip_pad(&differential),
                strip_pad(&full),
                "differential bytes drifted from full serialization after {:?}",
                u
            );
            // And the wire bytes parse back to the in-memory arguments.
            let parsed = parse_envelope(&differential, &op).unwrap();
            let Value::DoubleArray(back) = &parsed[0] else { panic!("variant") };
            prop_assert_eq!(back.len(), xs.len());
            for (a, b) in back.iter().zip(&xs) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn mio_differential_equals_full(
        initial in prop::collection::vec((any::<i32>(), any::<i32>(), small_f64()), 0..20),
        updates in prop::collection::vec(
            (0usize..32, any::<i32>(), small_f64()), 1..10
        ),
        config in config_strategy(),
    ) {
        let op = OpDesc::single("m", "urn:x", "a", TypeDesc::array_of(TypeDesc::mio()));
        let mut elems = initial;
        let mut tpl = MessageTemplate::build(
            config,
            &op,
            &[Value::Array(elems.iter().map(|&(x, y, v)| mio(x, y, v)).collect())],
        )
        .unwrap();
        let mut baseline = GSoapLike::new();

        for (i, x, v) in &updates {
            if !elems.is_empty() {
                let i = i % elems.len();
                elems[i].0 = *x;
                elems[i].2 = *v;
            }
            let value = Value::Array(elems.iter().map(|&(x, y, v)| mio(x, y, v)).collect());
            tpl.update_args(std::slice::from_ref(&value)).unwrap();
            tpl.flush();
            tpl.assert_invariants();
            let full = baseline.serialize(&op, std::slice::from_ref(&value)).unwrap().to_vec();
            prop_assert_eq!(strip_pad(&tpl.to_bytes()), strip_pad(&full));
            prop_assert_eq!(parse_envelope(&tpl.to_bytes(), &op).unwrap(), vec![value]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Plan/execute split theorem: for any update sequence (dirty
    /// fractions, width growth, array resizes) and any engine
    /// configuration, plan-then-apply leaves the template coherent and its
    /// bytes pad-equivalent to a from-scratch full serialization, and they
    /// parse back to the arguments.
    #[test]
    fn planned_flush_equals_full(
        initial in prop::collection::vec(small_f64(), 0..40),
        updates in prop::collection::vec(update_strategy(), 1..10),
        config in config_strategy(),
    ) {
        let op = OpDesc::single(
            "send", "urn:bench", "arr",
            TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double)),
        );
        let mut xs = initial;
        let mut tpl =
            MessageTemplate::build(config, &op, &[Value::DoubleArray(xs.clone())]).unwrap();
        let mut baseline = GSoapLike::new();

        for u in &updates {
            apply(&mut xs, u);
            let args = [Value::DoubleArray(xs.clone())];
            let tier = tpl.update_args(&args).unwrap();
            // Drive the public plan/execute seam explicitly rather than
            // through flush(), so a stale or mis-costed plan shows up here.
            let plan = tpl.plan().unwrap();
            let report = tpl.flush_planned(&plan).unwrap();
            tpl.assert_invariants();
            prop_assert_eq!(report.tier, tier, "tier diverged after {:?}", u);
            let full = baseline.serialize(&op, &args).unwrap().to_vec();
            prop_assert_eq!(
                strip_pad(&tpl.to_bytes()),
                strip_pad(&full),
                "planned executor bytes diverged from full serialization after {:?}",
                u
            );
            prop_assert_eq!(parse_envelope(&tpl.to_bytes(), &op).unwrap(), args.to_vec());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The §5 cost gate may reroute any send to the FirstTime path, but it
    /// must never change the wire bytes: whatever `fallback_ratio` is in
    /// force, the client's output stays pad-equivalent to a full
    /// serialization and parses back to the arguments.
    #[test]
    fn cost_fallback_never_changes_wire_bytes(
        initial in prop::collection::vec(small_f64(), 0..32),
        updates in prop::collection::vec(update_strategy(), 1..8),
        config in config_strategy(),
        ratio in prop_oneof![Just(0.0), Just(0.05), Just(0.5), Just(10.0)],
    ) {
        let op = OpDesc::single(
            "send", "urn:bench", "arr",
            TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double)),
        );
        let mut client = Client::new(
            config.with_cost_fallback(true).with_fallback_ratio(ratio));
        let mut baseline = GSoapLike::new();
        let mut xs = initial;
        client
            .call("ep", &op, &[Value::DoubleArray(xs.clone())], &mut Vec::new())
            .unwrap();

        for u in &updates {
            apply(&mut xs, u);
            let args = [Value::DoubleArray(xs.clone())];
            let mut wire = Vec::new();
            let report = client.call("ep", &op, &args, &mut wire).unwrap();
            if report.fell_back {
                prop_assert_eq!(report.tier, bsoap::SendTier::FirstTime);
            }
            let full = baseline.serialize(&op, &args).unwrap().to_vec();
            prop_assert_eq!(strip_pad(&wire), strip_pad(&full));
            let parsed = parse_envelope(&wire, &op).unwrap();
            let Value::DoubleArray(back) = &parsed[0] else { panic!("variant") };
            prop_assert_eq!(back.len(), xs.len());
            for (a, b) in back.iter().zip(&xs) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}
