//! Workspace-wide property test: THE correctness theorem.
//!
//! For any operation shape, any starting arguments, any sequence of
//! updates (value changes *and* resizes), and any engine configuration:
//! the differential template's bytes are pad-equivalent to a from-scratch
//! full serialization of the same arguments and parse back to exactly
//! those arguments (`common::spec::assert_wire`), and every flush takes
//! the tier and rewrites the leaves the executable spec predicts.

mod common;

use bsoap::{
    mio, ChunkConfig, Client, EngineConfig, MessageTemplate, OpDesc, SendReport, SendTier,
    TypeDesc, Value, WidthPolicy, WireFormat,
};
use common::spec::{
    apply, assert_wire, doubles, doubles_op, small_f64, update_strategy, Delivery, Spec, Update,
    Verdict,
};
use proptest::prelude::*;

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

/// Every argument list a doubles schedule visits, the initial one first.
fn doubles_schedule(mut xs: Vec<f64>, updates: &[Update]) -> Vec<Vec<Value>> {
    let mut out = vec![doubles(&xs).to_vec()];
    for u in updates {
        apply(&mut xs, u);
        out.push(doubles(&xs).to_vec());
    }
    out
}

/// Build a template from the first argument list and walk it through the
/// rest with `flush`: each flush is what the spec predicts, leaves the
/// template coherent, and leaves bytes ≡ a full serialization.
fn walk(
    config: EngineConfig,
    op: &OpDesc,
    schedule: &[Vec<Value>],
    flush: fn(&mut MessageTemplate) -> SendReport,
) -> Verdict {
    let mut tpl = MessageTemplate::build(config, op, &schedule[0]).unwrap();
    let mut spec = Spec::of(&config);
    spec.step("tpl", &schedule[0], Delivery::Sent(0));
    for args in &schedule[1..] {
        let pending = tpl.update_args(args).unwrap();
        let report = flush(&mut tpl);
        tpl.assert_invariants();
        spec.step("tpl", args, Delivery::Sent(0)).check(&report)?;
        prop_assert_eq!(report.tier, pending, "update_args vs flush");
        assert_wire(WireFormat::SoapXml, op, args, &tpl.to_bytes())?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn differential_equals_full_serialization(
        initial in prop::collection::vec(small_f64(), 0..40),
        updates in prop::collection::vec(update_strategy(48), 1..12),
        config in config_strategy(),
    ) {
        walk(config, &doubles_op(), &doubles_schedule(initial, &updates), MessageTemplate::flush)?;
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
        let args = |elems: &[(i32, i32, f64)]| {
            vec![Value::Array(elems.iter().map(|&(x, y, v)| mio(x, y, v)).collect())]
        };
        let mut elems = initial;
        let mut schedule = vec![args(&elems)];
        for (i, x, v) in updates {
            if !elems.is_empty() {
                let i = i % elems.len();
                (elems[i].0, elems[i].2) = (x, v);
            }
            schedule.push(args(&elems));
        }
        walk(config, &op, &schedule, MessageTemplate::flush)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Plan/execute split theorem: for any update sequence (dirty
    /// fractions, width growth, array resizes) and any engine
    /// configuration, plan-then-apply is the same walk.
    #[test]
    fn planned_flush_equals_full(
        initial in prop::collection::vec(small_f64(), 0..40),
        updates in prop::collection::vec(update_strategy(48), 1..10),
        config in config_strategy(),
    ) {
        // Drive the public plan/execute seam explicitly rather than
        // through flush(), so a stale or mis-costed plan shows up here.
        let planned = |tpl: &mut MessageTemplate| {
            let plan = tpl.plan().unwrap();
            tpl.flush_planned(&plan).unwrap()
        };
        walk(config, &doubles_op(), &doubles_schedule(initial, &updates), planned)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The §5 cost gate may reroute any send to the FirstTime path, but it
    /// must never change the wire bytes: whatever `fallback_ratio` is in
    /// force (the spec prices only ratio 0, so no tier is predicted here),
    /// the client's output stays ≡ a full serialization.
    #[test]
    fn cost_fallback_never_changes_wire_bytes(
        initial in prop::collection::vec(small_f64(), 0..32),
        updates in prop::collection::vec(update_strategy(48), 1..8),
        config in config_strategy(),
        ratio in prop_oneof![Just(0.0), Just(0.05), Just(0.5), Just(10.0)],
    ) {
        let op = doubles_op();
        let mut client = Client::new(
            config.with_cost_fallback(true).with_fallback_ratio(ratio));
        for args in doubles_schedule(initial, &updates) {
            let mut wire = Vec::new();
            let report = client.call("ep", &op, &args, &mut wire).unwrap();
            prop_assert!(!report.fell_back || report.tier == SendTier::FirstTime);
            assert_wire(WireFormat::SoapXml, &op, &args, &wire)?;
        }
    }
}
