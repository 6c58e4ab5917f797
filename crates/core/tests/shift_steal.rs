//! On-the-fly expansion mechanics: shifting, stealing, splitting, growth
//! policies (§3.2, §4.3, §4.4) — including multi-round, multi-chunk
//! scenarios checked against the independent `GSoapLike` full serializer.

// 3.14159 below is a 7-character growth payload, not an approximation of pi.
#![allow(clippy::approx_constant)]

use bsoap_baseline::GSoapLike;
use bsoap_chunks::ChunkConfig;
use bsoap_convert::ScalarKind;
use bsoap_core::{
    EngineConfig, GrowthPolicy, KernelPolicy, MessageTemplate, OpDesc, TypeDesc, Value, WidthPolicy,
};
use bsoap_obs::{Counter, Metrics};
use bsoap_xml::strip_pad;
use proptest::prelude::*;
use std::sync::Arc;

fn doubles_op() -> OpDesc {
    OpDesc::single(
        "send",
        "urn:bench",
        "arr",
        TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double)),
    )
}

fn small_chunks() -> ChunkConfig {
    ChunkConfig {
        initial_size: 512,
        split_threshold: 1024,
        reserve: 64,
    }
}

/// Build with minimum-width values then rewrite every value to maximum
/// width — the paper's worst-case shifting experiment (Fig. 6/7), every
/// field outgrowing its exact width in one update. On tight chunks the
/// growth must split; on 32 KiB chunks a shift near a chunk's head drags
/// a long tail, so one chunk's bytes per coalesced pass is a real bound.
#[test]
fn worst_case_expansion_all_values() {
    // Tight threshold: per-chunk growth (~23 bytes × ~12 items) exceeds the
    // headroom, forcing chunk splits.
    let tight = ChunkConfig {
        initial_size: 512,
        split_threshold: 640,
        reserve: 64,
    };
    // −2.2250738585072014E−308-ish values: 24 characters each.
    let wide = -2.2250738585072014e-308;
    assert_eq!(bsoap_convert::format_f64(wide).len(), 24);

    for (chunk, n, must_split) in [(tight, 200, true), (ChunkConfig::k32(), 2000, false)] {
        let storm = [Value::DoubleArray(vec![wide; n])];
        let full = GSoapLike::new()
            .serialize(&doubles_op(), &storm)
            .unwrap()
            .to_vec();
        let mut per_kernel = Vec::new();
        for kernel in [KernelPolicy::Scalar, KernelPolicy::Auto] {
            let config = EngineConfig::paper_default()
                .with_chunk(chunk)
                .with_steal(false)
                .with_kernel(kernel);
            let min_vals = Value::DoubleArray(vec![1.0; n]); // "1": one char
            let mut tpl = MessageTemplate::build(config, &doubles_op(), &[min_vals]).unwrap();
            let metrics = Arc::new(Metrics::new());
            tpl.set_metrics(Arc::clone(&metrics));
            let before_len = tpl.message_len();

            tpl.update_args(&storm).unwrap();
            let report = tpl.flush();
            assert_eq!(report.values_written, n);
            assert_eq!(report.shifts, n, "every value must shift");
            assert_eq!(
                report.splits > 0,
                must_split,
                "growth beyond the tight threshold, and only that, must split chunks"
            );
            assert_eq!(tpl.message_len(), before_len + n * 23);
            tpl.assert_invariants();

            // The shifting is coalesced: at most one chunk's bytes move per
            // pass, however many fields grew inside it.
            let snap = metrics.snapshot();
            let passes = snap.get(Counter::CoalescedShiftPasses);
            assert!(passes >= 1, "{kernel:?}: no coalesced pass");
            assert!(
                snap.get(Counter::ShiftedBytes) <= passes * chunk.split_threshold as u64,
                "{kernel:?}: {} bytes moved in {passes} passes",
                snap.get(Counter::ShiftedBytes)
            );

            // The patched message equals a fresh full serialization, the
            // engine's own and the independent baseline's.
            let fresh = MessageTemplate::build(config, &doubles_op(), &storm).unwrap();
            assert_eq!(tpl.to_bytes(), fresh.to_bytes());
            assert_eq!(strip_pad(&tpl.to_bytes()), strip_pad(&full), "{kernel:?}");
            per_kernel.push((tpl.to_bytes(), snap.get(Counter::ShiftedBytes), passes));
        }
        assert_eq!(per_kernel[0], per_kernel[1], "byte kernels diverged");
    }
}

#[test]
fn stealing_avoids_tail_shifts() {
    // Neighbor fields stuffed to max have 23 spare chars; growing one value
    // should steal from the right neighbor instead of shifting.
    let config = EngineConfig::stuffed_max().with_chunk(small_chunks());
    let tpl = MessageTemplate::build(
        config,
        &doubles_op(),
        &[Value::DoubleArray(vec![1.0, 1.0, 1.0])],
    )
    .unwrap();
    // With Max stuffing, widths are already 24 — growth can't happen at
    // all. Use Exact widths instead and give only the *neighbor* slack by
    // making it long.
    drop(tpl);

    let config = EngineConfig::paper_default()
        .with_chunk(small_chunks())
        .with_steal(true);
    // value0 short, value1 long (its field is wide), value2 short.
    let mut tpl = MessageTemplate::build(
        config,
        &doubles_op(),
        &[Value::DoubleArray(vec![1.0, -2.2250738585072014e-308, 1.0])],
    )
    .unwrap();
    // Now shrink value1's serialized form (its width stays 24: stuffing
    // keeps the pad), giving it 23 chars of slack.
    tpl.update_args(&[Value::DoubleArray(vec![1.0, 1.0, 1.0])])
        .unwrap();
    tpl.flush();
    tpl.assert_invariants();

    // Grow value0 to 7 chars; the neighbor's pad absorbs it via stealing.
    tpl.update_args(&[Value::DoubleArray(vec![3.14159, 1.0, 1.0])])
        .unwrap();
    let report = tpl.flush();
    assert_eq!(report.steals, 1, "expected a steal, got {report:?}");
    assert_eq!(report.shifts, 0);
    tpl.assert_invariants();

    let text = String::from_utf8(tpl.to_bytes()).unwrap();
    assert!(text.contains(">3.14159</item>"));
    // Total length unchanged: stealing redistributes, never grows.
    let fresh_equal = text.replace(' ', "");
    assert!(fresh_equal.contains(">1</item><itemxsi:type=\"xsd:double\">1</item>"));
}

#[test]
fn steal_disabled_forces_shift() {
    let config = EngineConfig::paper_default()
        .with_chunk(small_chunks())
        .with_steal(false);
    let mut tpl = MessageTemplate::build(
        config,
        &doubles_op(),
        &[Value::DoubleArray(vec![1.0, -2.2250738585072014e-308])],
    )
    .unwrap();
    tpl.update_args(&[Value::DoubleArray(vec![1.0, 1.0])])
        .unwrap();
    tpl.flush();
    tpl.update_args(&[Value::DoubleArray(vec![3.14159, 1.0])])
        .unwrap();
    let report = tpl.flush();
    assert_eq!(report.steals, 0);
    assert_eq!(report.shifts, 1);
    tpl.assert_invariants();
}

#[test]
fn growth_policy_to_max_prevents_second_shift() {
    let config = EngineConfig::paper_default()
        .with_chunk(small_chunks())
        .with_growth(GrowthPolicy::ToMax)
        .with_steal(false);
    let mut tpl =
        MessageTemplate::build(config, &doubles_op(), &[Value::DoubleArray(vec![1.0, 1.0])])
            .unwrap();

    tpl.update_args(&[Value::DoubleArray(vec![3.75, 1.0])])
        .unwrap();
    let r1 = tpl.flush();
    assert_eq!(r1.shifts, 1);

    // Second growth of the same field: field is already at max width.
    tpl.update_args(&[Value::DoubleArray(vec![-2.2250738585072014e-308, 1.0])])
        .unwrap();
    let r2 = tpl.flush();
    assert_eq!(r2.shifts, 0, "ToMax growth must make the field shift-free");
    tpl.assert_invariants();
}

#[test]
fn growth_policy_exact_shifts_every_growth() {
    let config = EngineConfig::paper_default()
        .with_chunk(small_chunks())
        .with_growth(GrowthPolicy::Exact)
        .with_steal(false);
    let mut tpl =
        MessageTemplate::build(config, &doubles_op(), &[Value::DoubleArray(vec![1.0, 1.0])])
            .unwrap();
    tpl.update_args(&[Value::DoubleArray(vec![3.75, 1.0])])
        .unwrap();
    assert_eq!(tpl.flush().shifts, 1);
    tpl.update_args(&[Value::DoubleArray(vec![3.14159, 1.0])])
        .unwrap();
    assert_eq!(tpl.flush().shifts, 1, "Exact growth shifts again");
    tpl.assert_invariants();
}

#[test]
fn max_stuffing_never_shifts() {
    // Fig 10/11's operating point: all fields at max width.
    let config = EngineConfig::stuffed_max().with_chunk(small_chunks());
    let n = 100;
    let mut tpl =
        MessageTemplate::build(config, &doubles_op(), &[Value::DoubleArray(vec![1.0; n])]).unwrap();
    let len0 = tpl.message_len();
    for round in 0..5 {
        let vals: Vec<f64> = (0..n)
            .map(|i| (i as f64 + 1.0) * 1.234567 * (round as f64 + 1.0))
            .collect();
        tpl.update_args(&[Value::DoubleArray(vals.clone())])
            .unwrap();
        let report = tpl.flush();
        assert_eq!(report.shifts, 0, "round {round}");
        assert_eq!(report.steals, 0);
        assert_eq!(
            tpl.message_len(),
            len0,
            "stuffed message length is constant"
        );
        // Values must still read back exactly.
        let text = String::from_utf8(tpl.to_bytes()).unwrap();
        assert!(text.contains(&bsoap_convert::format_f64(vals[n - 1])));
    }
    tpl.assert_invariants();
}

#[test]
fn full_closing_tag_shift_bytes_still_legal_xml() {
    // Fig 10/11 "Max Field Width: Full Closing Tag Shift": write the
    // smallest value over the largest. The closing tag moves 23 chars left
    // and whitespace fills the gap; the result must stay well-formed.
    let config = EngineConfig::stuffed_max();
    let wide = -2.2250738585072014e-308;
    let mut tpl =
        MessageTemplate::build(config, &doubles_op(), &[Value::DoubleArray(vec![wide; 10])])
            .unwrap();
    tpl.update_args(&[Value::DoubleArray(vec![1.0; 10])])
        .unwrap();
    let report = tpl.flush();
    assert_eq!(report.values_written, 10);
    assert_eq!(report.shifts, 0);

    let bytes = tpl.to_bytes();
    let mut p = bsoap_xml::PullParser::new(&bytes);
    let mut texts = 0;
    loop {
        match p.next_event().unwrap() {
            bsoap_xml::Event::Eof => break,
            bsoap_xml::Event::Text { range } => {
                let t = &bytes[range];
                if t.contains(&b'1') {
                    assert_eq!(bsoap_convert::parse::parse_f64(t), Ok(1.0));
                    texts += 1;
                }
            }
            _ => {}
        }
    }
    assert_eq!(texts, 10, "all ten padded values parse back");
    tpl.assert_invariants();
}

#[test]
fn chunk_size_bounds_shift_cost() {
    // The shifted-byte count (the paper's shifting cost metric) must be
    // bounded by chunk size: smaller chunks → fewer bytes moved per shift.
    let n = 500;
    let wide = -2.2250738585072014e-308;
    let mut shifted = Vec::new();
    for chunk in [ChunkConfig::k8(), ChunkConfig::k32()] {
        let config = EngineConfig::paper_default()
            .with_chunk(chunk)
            .with_steal(false);
        let mut tpl =
            MessageTemplate::build(config, &doubles_op(), &[Value::DoubleArray(vec![1.0; n])])
                .unwrap();
        tpl.update_args(&[Value::DoubleArray(vec![wide; n])])
            .unwrap();
        tpl.flush();
        tpl.assert_invariants();
        shifted.push(tpl.stats().shifted_bytes);
    }
    assert!(
        shifted[0] < shifted[1],
        "8K chunks must move fewer bytes than 32K: {shifted:?}"
    );
}

#[test]
fn string_growth_and_shrink() {
    let op = OpDesc::single("tag", "urn:x", "s", TypeDesc::Scalar(ScalarKind::Str));
    let config = EngineConfig::paper_default().with_chunk(small_chunks());
    let mut tpl = MessageTemplate::build(config, &op, &[Value::Str("ab".into())]).unwrap();

    // Grow: strings have no max width; must shift by the exact delta.
    tpl.update_args(&[Value::Str("a much longer string value".into())])
        .unwrap();
    let r = tpl.flush();
    assert_eq!(r.shifts + r.steals, 1);
    assert!(String::from_utf8(tpl.to_bytes())
        .unwrap()
        .contains(">a much longer string value</s>"));

    // Shrink: closing tag moves left, pad appears.
    tpl.update_args(&[Value::Str("xy".into())]).unwrap();
    tpl.flush();
    let text = String::from_utf8(tpl.to_bytes()).unwrap();
    assert!(text.contains(">xy</s>"));
    tpl.assert_invariants();

    // Escaped content round-trips.
    tpl.update_args(&[Value::Str("a<b&c".into())]).unwrap();
    tpl.flush();
    assert!(String::from_utf8(tpl.to_bytes())
        .unwrap()
        .contains(">a&lt;b&amp;c</s>"));
    tpl.assert_invariants();
}

#[test]
fn intermediate_stuffing_absorbs_moderate_growth() {
    // Fig 8/9 shape: fields stuffed to 18 chars absorb values up to 18
    // chars without shifting; 24-char values force shifting.
    let config = EngineConfig::paper_default()
        .with_chunk(small_chunks())
        .with_width(WidthPolicy::Fixed {
            double: 18,
            int: 11,
            long: 20,
        })
        .with_steal(false);
    let mut tpl =
        MessageTemplate::build(config, &doubles_op(), &[Value::DoubleArray(vec![1.0; 50])])
            .unwrap();

    // 17-char values: fit within the 18-char stuffed width.
    let mid = 1.234567890123456; // "1.234567890123456" = 17 chars
    assert_eq!(bsoap_convert::format_f64(mid).len(), 17);
    tpl.update_args(&[Value::DoubleArray(vec![mid; 50])])
        .unwrap();
    let r = tpl.flush();
    assert_eq!(r.shifts, 0, "within stuffed width");

    // 24-char values: must shift.
    let wide = -2.2250738585072014e-308;
    tpl.update_args(&[Value::DoubleArray(vec![wide; 50])])
        .unwrap();
    let r = tpl.flush();
    assert_eq!(r.shifts, 50);
    tpl.assert_invariants();
}

// ---------------------------------------------------------------------
// Multi-round scenarios against the full-serialization reference
// ---------------------------------------------------------------------

/// The template's bytes must be pad-equal to a from-scratch `GSoapLike`
/// serialization of `vals`, with every internal invariant intact.
fn assert_matches_full(tpl: &MessageTemplate, vals: &[f64], what: &str) {
    tpl.assert_invariants();
    let full = GSoapLike::new()
        .serialize(&doubles_op(), &[Value::DoubleArray(vals.to_vec())])
        .unwrap()
        .to_vec();
    assert_eq!(
        strip_pad(&tpl.to_bytes()),
        strip_pad(&full),
        "{what}: differential bytes drifted from full serialization"
    );
}

/// Build from all-ones, then drive the template through `rounds` of
/// whole-array updates, checking against the reference after every flush.
fn assert_rounds_match_full(config: EngineConfig, rounds: &[Vec<f64>]) {
    let n = rounds.first().map_or(0, Vec::len);
    let mut tpl =
        MessageTemplate::build(config, &doubles_op(), &[Value::DoubleArray(vec![1.0; n])]).unwrap();
    for (round, vals) in rounds.iter().enumerate() {
        tpl.update_args(&[Value::DoubleArray(vals.clone())])
            .unwrap();
        let dirty = tpl.dirty_count();
        let report = tpl.flush();
        assert_eq!(report.values_written, dirty, "round {round}");
        assert_matches_full(&tpl, vals, &format!("round {round}"));
    }
}

/// Value classes of distinct serialized lengths: 1 char ("1"), 8 chars
/// ("3.141592"-ish), 17 chars, 24 chars (forces growth under Exact widths).
fn value_of_class(class: u8, salt: usize) -> f64 {
    match class % 4 {
        0 => 1.0 + (salt % 9) as f64,
        1 => 3.25 + salt as f64,
        2 => 1.234567890123456 * (1.0 + salt as f64),
        _ => -2.2250738585072014e-308 * (1.0 + salt as f64),
    }
}

#[test]
fn all_dirty_in_width_many_chunks() {
    // 100% dirty, all rewrites in-width (Max stuffing), dozens of chunks.
    let n = 400;
    let config = EngineConfig::stuffed_max().with_chunk(small_chunks());
    let rounds: Vec<Vec<f64>> = (0..4)
        .map(|r| {
            (0..n)
                .map(|i| (i as f64 + 1.0) * 1.234567 * (r + 1) as f64)
                .collect()
        })
        .collect();
    assert_rounds_match_full(config, &rounds);
}

#[test]
fn growth_mix_shifts_and_splits() {
    // Mixed in-width rewrites and width-growing values (Exact widths):
    // steals, coalesced shifts and splits in the same flush.
    let n = 300;
    let config = EngineConfig::paper_default().with_chunk(small_chunks());
    let rounds: Vec<Vec<f64>> = (0..3)
        .map(|r| {
            (0..n)
                .map(|i| value_of_class((i % 4) as u8, i + r * n))
                .collect()
        })
        .collect();
    assert_rounds_match_full(config, &rounds);
}

#[test]
fn steal_with_adjacent_dirty_neighbors() {
    // Adjacent dirty entries where the left one grows (steals from the
    // right neighbor's pad) and the right one is an in-width rewrite: the
    // planner must price the neighbor at its post-steal width.
    let n = 200;
    let config = EngineConfig::paper_default()
        .with_chunk(small_chunks())
        .with_width(WidthPolicy::Fixed {
            double: 18,
            int: 11,
            long: 20,
        })
        .with_steal(true);
    let alternating = |grow_parity: usize, small: f64| -> Vec<f64> {
        (0..n)
            .map(|i| {
                if i % 2 == grow_parity {
                    value_of_class(3, i)
                } else {
                    small
                }
            })
            .collect()
    };
    // Every even field grows past 18 chars and every odd field shrinks;
    // then the pattern flips.
    assert_rounds_match_full(config, &[alternating(0, 1.0), alternating(1, 2.0)]);
}

#[test]
fn sparse_dirty_subset() {
    // Only a scattered subset dirty per round: per-chunk op runs of very
    // different sizes.
    let n = 500;
    let config = EngineConfig::stuffed_max().with_chunk(small_chunks());
    let rounds: Vec<Vec<f64>> = (0..5)
        .map(|r| {
            (0..n)
                .map(|i| {
                    if (i * 7 + r * 13) % 11 == 0 {
                        value_of_class((i % 3) as u8, i + r)
                    } else {
                        1.0 // unchanged → clean
                    }
                })
                .collect()
        })
        .collect();
    assert_rounds_match_full(config, &rounds);
}

#[test]
fn growth_on_last_leaf_of_a_chunk_stays_in_its_chunk() {
    // A width-growing entry that is the LAST leaf of chunk i, next to a
    // same-width overwrite on the first leaf of chunk i+1: exactly the two
    // dirty values are written and the shift stops at the chunk boundary.
    let n = 120;
    let config = EngineConfig::paper_default()
        .with_chunk(ChunkConfig {
            initial_size: 256,
            split_threshold: 512,
            reserve: 48,
        })
        .with_width(WidthPolicy::Exact)
        .with_steal(false);
    let mut vals = vec![1.0; n];
    let mut tpl =
        MessageTemplate::build(config, &doubles_op(), &[Value::DoubleArray(vals.clone())]).unwrap();
    assert!(tpl.chunk_count() >= 2, "setup must span chunks");

    // Find a chunk boundary between two double leaves: entry b-1 ends
    // chunk i, entry b starts chunk i+1.
    let entries = tpl.dut().entries();
    let b = (1..entries.len())
        .find(|&i| {
            entries[i].loc.chunk != entries[i - 1].loc.chunk
                && entries[i].kind == ScalarKind::Double
                && entries[i - 1].kind == ScalarKind::Double
        })
        .expect("no double/double chunk boundary");
    let loc_of_b = |tpl: &MessageTemplate| tpl.dut().entries()[b].loc;
    let before = loc_of_b(&tpl);

    // b-1 grows far past its exact 1-char width (forced shift); b is a
    // same-width overwrite.
    let first = tpl.array_leaf(0, 0, 0);
    vals[b - 1 - first] = 1.234567890123456e100;
    vals[b - first] = 2.0;
    tpl.set_double(b - 1, vals[b - 1 - first]).unwrap();
    tpl.set_double(b, vals[b - first]).unwrap();
    let report = tpl.flush();
    assert_eq!(report.values_written, 2, "only the dirty pair is written");
    assert!(report.shifts > 0, "the growth must have shifted");
    assert_eq!(
        loc_of_b(&tpl),
        before,
        "growth at the end of chunk i moved the first leaf of chunk i+1"
    );
    assert_matches_full(&tpl, &vals, "chunk-boundary growth");
}

#[test]
fn single_chunk_rounds() {
    // Everything in one 32 KiB chunk: one op run, one coalesced pass.
    let config = EngineConfig::paper_default();
    assert_rounds_match_full(config, &[vec![3.25; 20], vec![1.0; 20]]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Randomized mixed scenario: arbitrary dirty subsets, value classes
    /// (including width growth), steal on/off and growth policy on tiny
    /// chunks — the flush stays pad-equal to the full serialization.
    #[test]
    fn mixed_growth_matches_full_serialization(
        classes in proptest::collection::vec((0u8..4, 0u8..3), 40..160),
        steal in any::<bool>(),
        to_max in any::<bool>(),
        rounds in 1usize..4,
    ) {
        let config = EngineConfig::paper_default()
            .with_chunk(ChunkConfig { initial_size: 256, split_threshold: 512, reserve: 48 })
            .with_steal(steal)
            .with_growth(if to_max { GrowthPolicy::ToMax } else { GrowthPolicy::Exact });
        let n = classes.len();
        let rounds: Vec<Vec<f64>> = (0..rounds)
            .map(|r| {
                classes
                    .iter()
                    .enumerate()
                    .map(|(i, &(class, dirty_mod))| {
                        if (i + r) % (dirty_mod as usize + 1) == 0 {
                            value_of_class(class, i + r * n + 1)
                        } else {
                            1.0 // stays clean after round 0
                        }
                    })
                    .collect()
            })
            .collect();
        assert_rounds_match_full(config, &rounds);
    }
}
