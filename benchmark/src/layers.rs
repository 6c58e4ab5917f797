//! Per-layer metrics, assembled from the spans and counts of the staged
//! passes and the closed-loop rounds of the same process.
//!
//! Stage times come from one staged pass: the recorded pass with the lowest
//! median call time (best-pass, for the reason the closed loop reports its
//! best round: the host has two speed modes that last seconds). Re-executed
//! costs and the untraced call time come from the two passes made right after
//! it. Times are medians over the traced calls of the pass; a stage a call did
//! not go through counts as 0 for that call, so `core.build_us` reads 0 on a
//! resend workload. Every pass replays the same calls of the seed, so call
//! `i` of one pass is call `i` of another, and the counts are the same
//! whichever pass is taken.

use crate::closed::{tier_index, ClosedRun};
use crate::staged::CallCounts;
use crate::stats;
use crate::trace::StageTime;
use bsoap::deser::DiffOutcome;
use std::collections::{BTreeMap, BTreeSet};

pub type StageMap = BTreeMap<&'static str, StageTime>;

/// Stages that make up the paper's Send Time on the client.
const SEND_TOTAL: [&str; 7] = [
    "core.store",
    "core.diff",
    "core.plan",
    "core.patch",
    "core.build",
    "core.gather",
    "transport.post",
];

fn total(stages: &StageMap, name: &str) -> u64 {
    stages.get(name).map_or(0, |s| s.total_ns)
}

fn own(stages: &StageMap, name: &str) -> u64 {
    stages.get(name).map_or(0, |s| s.self_ns)
}

fn send_ns(stages: &StageMap) -> u64 {
    SEND_TOTAL.iter().map(|n| total(stages, n)).sum::<u64>() + own(stages, "core.overlay")
}

fn median_of(values: impl Iterator<Item = f64>) -> f64 {
    stats::median(&values.collect::<Vec<_>>())
}

fn mean_of(values: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Median wall time of the staged calls of one pass.
pub fn median_call_ns(calls: &[CallCounts]) -> f64 {
    median_of(calls.iter().map(|c| c.wall_ns as f64))
}

pub struct Inputs<'a> {
    pub closed: &'a ClosedRun,
    /// Counts of every traced call of the best recorded pass, in order.
    pub calls: &'a [CallCounts],
    /// Stage times of the same calls, aligned with `calls`.
    pub stages: &'a [StageMap],
    /// The same calls as made by the re-execution pass that followed.
    pub reexecuted: &'a [CallCounts],
    pub store_resident_bytes: u64,
    /// Median call time of the pass after that, recorder compiled out.
    pub untraced_call_ns: f64,
    /// Staged calls made in all passes, and how many were off trajectory.
    pub staged_attempted: usize,
    pub staged_failures: usize,
    pub streamed: bool,
}

/// Every per-layer metric by name.
pub fn assemble(inp: &Inputs<'_>) -> BTreeMap<&'static str, f64> {
    assert_eq!(inp.calls.len(), inp.stages.len(), "one root span per call");
    assert_eq!(
        inp.calls.len(),
        inp.reexecuted.len(),
        "passes replay one seed"
    );
    let all = || inp.calls.iter().zip(inp.stages);
    let redone = || inp.reexecuted.iter().zip(inp.stages);
    let calls = inp.calls;
    let n_calls = calls.len().max(1) as f64;
    let us = |ns: f64| ns / 1000.0;
    let med_total = |name: &str| us(median_of(inp.stages.iter().map(|s| total(s, name) as f64)));
    let med_own = |name: &str| us(median_of(inp.stages.iter().map(|s| own(s, name) as f64)));
    let per_call = |f: &dyn Fn(&CallCounts) -> f64| mean_of(calls.iter().map(f));

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();

    // Conversion and the XML substrate, by re-execution.
    m.insert(
        "convert.ns_per_value",
        median_of(
            inp.reexecuted
                .iter()
                .filter(|c| c.convert_values > 0)
                .map(|c| c.convert_ns as f64 / c.convert_values as f64),
        ),
    );
    m.insert(
        "convert.share_of_send",
        median_of(
            redone()
                .filter(|(_, s)| send_ns(s) > 0)
                .map(|(c, s)| c.convert_ns as f64 / send_ns(s) as f64),
        ),
    );
    m.insert(
        "xml.escape_ns_per_byte",
        median_of(
            inp.reexecuted
                .iter()
                .filter(|c| c.escape_bytes > 0)
                .map(|c| c.escape_ns as f64 / c.escape_bytes as f64),
        ),
    );
    m.insert(
        "xml.pull_ns_per_byte",
        median_of(
            inp.reexecuted
                .iter()
                .filter(|c| c.pull_ns > 0)
                .map(|c| c.pull_ns as f64 / c.body_bytes as f64),
        ),
    );

    // Work counts of the engine.
    m.insert(
        "chunks.shifted_bytes_per_call",
        per_call(&|c| c.shifted_bytes as f64),
    );
    m.insert("chunks.splits_per_call", per_call(&|c| c.splits as f64));
    m.insert(
        "core.values_written_per_call",
        per_call(&|c| c.sent.values_written as f64),
    );
    m.insert("core.shifts_per_call", per_call(&|c| c.sent.shifts as f64));
    m.insert("core.steals_per_call", per_call(&|c| c.sent.steals as f64));
    m.insert("core.slices_per_call", per_call(&|c| c.slices as f64));
    m.insert(
        "core.moved_bytes_per_dirty_byte",
        ratio(
            calls.iter().map(|c| c.shifted_bytes as f64).sum(),
            inp.reexecuted.iter().map(|c| c.dirty_bytes as f64).sum(),
        ),
    );
    let mut tiers = [0usize; 4];
    for c in calls {
        tiers[tier_index(c.sent.tier)] += 1;
    }
    for (name, count) in [
        "core.tier_share.first_time",
        "core.tier_share.content_match",
        "core.tier_share.perfect",
        "core.tier_share.partial",
    ]
    .into_iter()
    .zip(tiers)
    {
        m.insert(name, count as f64 / n_calls);
    }
    m.insert(
        "core.store_hit_share",
        per_call(&|c| f64::from(u8::from(c.store_hit))),
    );
    m.insert(
        "core.store_evictions_per_call",
        per_call(&|c| c.evicted as f64),
    );
    m.insert("core.store_resident_bytes", inp.store_resident_bytes as f64);
    m.insert(
        "core.overlay_portions_per_call",
        per_call(&|c| c.portions as f64),
    );
    m.insert(
        "core.overlay_window_peak_bytes",
        calls.iter().map(|c| c.window_bytes).max().unwrap_or(0) as f64,
    );

    // Client stages.
    for (metric, stage) in [
        ("core.build_us", "core.build"),
        ("core.diff_us", "core.diff"),
        ("core.plan_us", "core.plan"),
        ("core.patch_us", "core.patch"),
        ("core.gather_us", "core.gather"),
        ("core.store_us", "core.store"),
        ("transport.post_us", "transport.post"),
        ("transport.req_read_us", "transport.req_read"),
        ("transport.resp_write_us", "transport.resp_write"),
        ("transport.resp_read_us", "transport.resp_read"),
        ("deser.request_us", "deser.request"),
        ("deser.reply_us", "deser.reply"),
        ("server.dispatch_us", "server.dispatch"),
        ("server.handler_us", "server.handler"),
    ] {
        m.insert(metric, med_total(stage));
    }
    m.insert("core.overlay_us", med_own("core.overlay"));
    m.insert("server.respond_self_us", med_own("server.dispatch"));
    m.insert(
        "core.patch_ns_per_dirty_value",
        median_of(
            all()
                .filter(|(c, s)| c.sent.values_written > 0 && total(s, "core.patch") > 0)
                .map(|(c, s)| total(s, "core.patch") as f64 / c.sent.values_written as f64),
        ),
    );
    let send_us = us(median_of(inp.stages.iter().map(|s| send_ns(s) as f64)));
    m.insert("core.send_us", send_us);
    m.insert(
        "core.send_minus_convert_us",
        us(median_of(redone().map(|(c, s)| {
            send_ns(s).saturating_sub(c.convert_ns) as f64
        }))),
    );
    let baseline_us = us(median_of(
        inp.reexecuted.iter().map(|c| c.baseline_ns as f64),
    ));
    m.insert("baseline.full_serialize_us", baseline_us);
    m.insert("core.send_vs_full_ratio", ratio(baseline_us, send_us));

    // Wire.
    m.insert("transport.writev_per_call", per_call(&|c| c.writes as f64));
    m.insert(
        "transport.head_bytes_per_call",
        per_call(&|c| c.wire_bytes.saturating_sub(c.body_bytes) as f64),
    );
    m.insert(
        "transport.body_mb_per_s",
        median_of(all().map(|(c, s)| {
            let moving = total(s, "transport.post") + total(s, "transport.req_read");
            // bytes per ns × 1e9 / 1e6
            ratio(c.body_bytes as f64 * 1000.0, moving as f64)
        })),
    );

    // Server-side parse.
    m.insert(
        "deser.ns_per_byte",
        median_of(
            all()
                .filter(|(c, _)| c.body_bytes > 0)
                .map(|(c, s)| total(s, "deser.request") as f64 / c.body_bytes as f64),
        ),
    );
    let per_redone = |f: &dyn Fn(&CallCounts) -> f64| mean_of(inp.reexecuted.iter().map(f));
    let outcome_share = |pick: &dyn Fn(&DiffOutcome) -> bool| {
        per_redone(&|c| f64::from(u8::from(c.outcome.as_ref().is_some_and(pick))))
    };
    m.insert(
        "deser.outcome_share.identical",
        outcome_share(&|o| *o == DiffOutcome::Identical),
    );
    m.insert(
        "deser.outcome_share.differential",
        outcome_share(&|o| matches!(o, DiffOutcome::Differential { .. })),
    );
    m.insert(
        "deser.outcome_share.full",
        if inp.streamed {
            // The streaming deserializer parses every byte of every body.
            1.0
        } else {
            outcome_share(&|o| *o == DiffOutcome::FullParse)
        },
    );
    m.insert(
        "deser.leaves_reparsed_per_call",
        per_redone(&|c| match c.outcome {
            Some(DiffOutcome::Differential { reparsed, .. }) => reparsed as f64,
            _ => 0.0,
        }),
    );

    // Whole call: closed loop against the sum of the stages.
    let best = stats::best_of(&inp.closed.rounds);
    let p50_us = us(best.map_or(0.0, |b| b.p50_ns as f64));
    let tail_us = us(best.map_or(0.0, |b| b.tail_ns as f64));
    let names: BTreeSet<&str> = inp.stages.iter().flat_map(|s| s.keys().copied()).collect();
    let stage_sum_us: f64 = names.iter().map(|n| med_own(n)).sum();
    m.insert("rpc.call_p50_us", p50_us);
    m.insert("rpc.call_p99_us", tail_us);
    m.insert("rpc.tail_ratio", ratio(tail_us, p50_us));
    m.insert("rpc.stage_sum_us", stage_sum_us);
    m.insert("rpc.unattributed_us", p50_us - stage_sum_us);
    let traced_wall = median_call_ns(inp.calls);
    m.insert("rpc.staged_call_us", us(traced_wall));
    m.insert(
        "rpc.trace_overhead_share",
        ratio(traced_wall - inp.untraced_call_ns, inp.untraced_call_ns),
    );
    m.insert(
        "rpc.round_iqr_share",
        stats::iqr_share(
            &inp.closed
                .rounds
                .iter()
                .map(|r| r.p50_ns as f64)
                .collect::<Vec<_>>(),
        ),
    );
    let attempted = inp.closed.attempted + inp.staged_attempted as u64;
    m.insert(
        "rpc.failed_share",
        ratio(
            (inp.closed.failed + inp.staged_failures as u64) as f64,
            attempted as f64,
        ),
    );
    m.insert("rpc.traced_calls", inp.calls.len() as f64);
    m
}
