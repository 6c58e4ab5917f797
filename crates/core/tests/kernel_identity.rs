//! Byte-kernel differential harness: every kernel (escape scan, stuffed
//! itoa, wide gap shift, wide pad) must produce byte-identical messages
//! and identical engine-counter deltas under `KernelPolicy::Scalar` and
//! `KernelPolicy::Auto` — the scalar path is the oracle, SIMD is
//! only ever an acceleration (DESIGN.md §3.11).
//!
//! `SimdKernelHits` is the one counter allowed to differ: it *measures*
//! which path ran (and is scooped from a process-global tally, so
//! concurrent tests bleed into it); every comparison masks it.

use bsoap_chunks::ChunkConfig;
use bsoap_convert::ScalarKind;
use bsoap_core::{
    EngineConfig, KernelPolicy, MessageTemplate, OpDesc, ParamDesc, TypeDesc, Value, WireFormat,
};
use bsoap_obs::{Counter, Metrics};
use proptest::prelude::*;
use std::sync::Arc;

/// One op with every kernel-relevant leaf kind: an int array (stuffed
/// itoa + shifting when values grow), a string (escape scanning), and a
/// double array (pad fills on in-width rewrites).
fn mixed_op() -> OpDesc {
    OpDesc::new(
        "bench",
        "urn:kern",
        vec![
            ParamDesc {
                name: "ints".into(),
                desc: TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Int)),
            },
            ParamDesc {
                name: "note".into(),
                desc: TypeDesc::Scalar(ScalarKind::Str),
            },
            ParamDesc {
                name: "vals".into(),
                desc: TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double)),
            },
        ],
    )
}

fn small_chunks() -> ChunkConfig {
    // Small enough that growing values force coalesced shift passes (the
    // gap-shift kernel), including splits.
    ChunkConfig {
        initial_size: 512,
        split_threshold: 1024,
        reserve: 64,
    }
}

type Args = (Vec<i32>, String, Vec<f64>);

fn to_values(args: &Args) -> [Value; 3] {
    [
        Value::IntArray(args.0.clone()),
        Value::Str(args.1.clone()),
        Value::DoubleArray(args.2.clone()),
    ]
}

/// Drive one engine end to end on `format` under `kernel`: build, then
/// apply every update with a flush. Returns the wire bytes after each step and the
/// final counter snapshot (indexed by `Counter::ALL`, SimdKernelHits
/// masked to 0).
fn run_engine(
    format: WireFormat,
    kernel: KernelPolicy,
    first: &Args,
    updates: &[Args],
) -> (Vec<Vec<u8>>, Vec<u64>) {
    let metrics = Arc::new(Metrics::new());
    let config = EngineConfig::paper_default()
        .with_chunk(small_chunks())
        .with_wire_format(format)
        .with_kernel(kernel);
    let mut tpl =
        MessageTemplate::build(config, &mixed_op(), &to_values(first)).expect("build succeeds");
    tpl.set_metrics(Arc::clone(&metrics));
    let mut outs = vec![tpl.to_bytes()];
    for args in updates {
        tpl.update_args(&to_values(args)).expect("same structure");
        tpl.flush();
        tpl.assert_invariants();
        outs.push(tpl.to_bytes());
    }
    let snap = metrics.snapshot();
    let counters = Counter::ALL
        .iter()
        .map(|&c| {
            if c == Counter::SimdKernelHits {
                0
            } else {
                snap.get(c)
            }
        })
        .collect();
    (outs, counters)
}

/// Strings engineered to place a multi-byte UTF-8 character (or a special)
/// exactly straddling the SIMD block boundaries: a prefix of 13–18
/// one-byte chars, then a 2/3/4-byte character or escapable byte, then an
/// arbitrary tail. Offsets 15/16/17 are always among the cases proptest
/// explores (prefix 13..=18 × multi-byte char widths).
fn straddle_string() -> impl Strategy<Value = String> {
    (
        13usize..=18,
        prop_oneof![
            Just("α"),
            Just("é"),
            Just("😀"),
            Just("&"),
            Just("<"),
            Just("\r"),
        ],
        proptest::collection::vec(
            prop_oneof![
                proptest::char::range(' ', '~'),
                Just('α'),
                Just('<'),
                Just('&'),
                Just('\r'),
                Just('😀'),
            ],
            0..24,
        ),
    )
        .prop_map(|(k, mid, tail)| {
            let mut s = "x".repeat(k);
            s.push_str(mid);
            s.extend(tail);
            s
        })
}

fn args_strategy() -> impl Strategy<Value = Args> {
    (
        proptest::collection::vec(any::<i32>(), 1..24),
        straddle_string(),
        proptest::collection::vec(-1.0e3f64..1.0e3, 1..12),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole invariant: a full engine lifetime — first-time build,
    /// then several differential sends exercising overwrites, in-width
    /// rewrites, steals, coalesced shifts and splits — emits identical
    /// bytes and identical counters under both kernel policies.
    #[test]
    fn engine_is_kernel_invariant(
        first in args_strategy(),
        updates in proptest::collection::vec(args_strategy(), 1..4),
    ) {
        for format in WireFormat::ALL {
            let (bytes_s, counters_s) = run_engine(format, KernelPolicy::Scalar, &first, &updates);
            let (bytes_f, counters_f) = run_engine(format, KernelPolicy::Auto, &first, &updates);
            prop_assert_eq!(bytes_s, bytes_f, "{:?}: wire bytes diverged between kernels", format);
            prop_assert_eq!(counters_s, counters_f, "{:?}: counter deltas diverged", format);
        }
    }
}

/// Worst-case expansion (every int grows from 1 char to 11 chars) must be
/// kernel-invariant too — this is the path where the wide gap shifter and
/// the batched DUT fixup do real work.
#[test]
fn expansion_storm_is_kernel_invariant() {
    let n = 120;
    let first: Args = (vec![1; n], "short".into(), vec![1.0; 8]);
    let updates: Vec<Args> = vec![
        (
            vec![i32::MIN; n],
            "a much longer string crossing blocks α".into(),
            vec![-2.2250738585072014e-308; 8],
        ),
        (vec![7; n], "tiny\r".into(), vec![2.5; 8]),
    ];
    for format in WireFormat::ALL {
        let (bytes_s, counters_s) = run_engine(format, KernelPolicy::Scalar, &first, &updates);
        let (bytes_f, counters_f) = run_engine(format, KernelPolicy::Auto, &first, &updates);
        assert_eq!(bytes_s, bytes_f, "{format:?}");
        assert_eq!(counters_s, counters_f, "{format:?}");
        // The storm actually exercised the shift kernel (on bin1 only the
        // string changes length; the fixed-width numerics never shift).
        let shifts = counters_s[Counter::Shifts.index()];
        assert!(shifts > 0, "{format:?}: expected shifts, got none");
    }
}

/// Satellite pin: a flush whose dirty values all fit their fields must not
/// bump `CoalescedShiftPasses` (no gaps → no pass), and `Auto` does
/// record kernel hits while `Scalar` records none of its own.
#[test]
fn no_gaps_means_no_coalesced_pass() {
    let first: Args = (vec![99999; 6], "steady".into(), vec![1.5; 4]);
    // Same digit counts → in-width overwrites only.
    let updates: Vec<Args> = vec![(vec![88888; 6], "stable".into(), vec![2.5; 4])];
    for format in WireFormat::ALL {
        for kernel in [KernelPolicy::Scalar, KernelPolicy::Auto] {
            let metrics = Arc::new(Metrics::new());
            let config = EngineConfig::paper_default()
                .with_chunk(small_chunks())
                .with_wire_format(format)
                .with_kernel(kernel);
            let mut tpl = MessageTemplate::build(config, &mixed_op(), &to_values(&first)).unwrap();
            tpl.set_metrics(Arc::clone(&metrics));
            tpl.update_args(&to_values(&updates[0])).unwrap();
            let report = tpl.flush();
            assert_eq!(
                report.shifts, 0,
                "{format:?} {kernel:?}: no value should shift"
            );
            let snap = metrics.snapshot();
            assert_eq!(
                snap.get(Counter::CoalescedShiftPasses),
                0,
                "{format:?} {kernel:?}: empty gap sets must not count a coalesced pass"
            );
            assert_eq!(snap.get(Counter::Shifts), 0);
        }
    }
}
