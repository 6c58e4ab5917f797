//! Every metric the runner emits, by name. `BENCHMARK.json` must list exactly
//! these (`check.sh` compares the two).

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// What a caller of the stub sees, per workload. `failed_share` is carried by
/// the result line's `attempted`/`failed` (a metric here must never be 0).
///
/// Each bound is about three times the spread (inter-quartile range ÷ median
/// over ten runs of ten seeds) usually seen on the box this was written on: 2
/// to 8 % for the two timings (11 % once, in a noisy spell of the host), 5 %
/// for peak RSS, none for bytes. A quarter is the most a bound may be.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "calls_per_s",
        unit: "calls/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "call_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "request_bytes_per_call",
        unit: "bytes",
        better: Better::Lower,
        bound: 0.01,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A count read off the program's public reports over a fixed set of
    /// calls: it must repeat exactly for a seed (`--repeat` checks).
    pub exact: bool,
}

/// A timing, or something derived from one.
const fn layer(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer {
        name,
        unit,
        better,
        exact: false,
    }
}

/// A count that repeats exactly for a seed.
const fn count(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer {
        name,
        unit,
        better,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// Single-layer numbers from the staged traced run (layer = crate or module
/// name). Times are medians over the traced calls; counts are per call.
pub const PER_LAYER: [Layer; 59] = [
    layer("convert.ns_per_value", "ns", Lower),
    layer("convert.share_of_send", "fraction", Lower),
    layer("xml.escape_ns_per_byte", "ns", Lower),
    layer("xml.pull_ns_per_byte", "ns", Lower),
    count("chunks.shifted_bytes_per_call", "bytes", Lower),
    count("chunks.splits_per_call", "count", Lower),
    layer("core.build_us", "us", Lower),
    layer("core.diff_us", "us", Lower),
    layer("core.plan_us", "us", Lower),
    layer("core.patch_us", "us", Lower),
    layer("core.patch_ns_per_dirty_value", "ns", Lower),
    count("core.moved_bytes_per_dirty_byte", "ratio", Lower),
    layer("core.gather_us", "us", Lower),
    count("core.slices_per_call", "count", Lower),
    layer("core.store_us", "us", Lower),
    layer("core.overlay_us", "us", Lower),
    layer("core.send_us", "us", Lower),
    layer("core.send_minus_convert_us", "us", Lower),
    count("core.values_written_per_call", "count", Lower),
    count("core.shifts_per_call", "count", Lower),
    count("core.steals_per_call", "count", Lower),
    count("core.tier_share.first_time", "fraction", Lower),
    count("core.tier_share.content_match", "fraction", Higher),
    count("core.tier_share.perfect", "fraction", Higher),
    count("core.tier_share.partial", "fraction", Lower),
    count("core.store_hit_share", "fraction", Higher),
    count("core.store_evictions_per_call", "count", Lower),
    count("core.store_resident_bytes", "bytes", Lower),
    count("core.overlay_portions_per_call", "count", Lower),
    count("core.overlay_window_peak_bytes", "bytes", Lower),
    layer("transport.post_us", "us", Lower),
    count("transport.writev_per_call", "count", Lower),
    count("transport.head_bytes_per_call", "bytes", Lower),
    layer("transport.req_read_us", "us", Lower),
    layer("transport.resp_write_us", "us", Lower),
    layer("transport.resp_read_us", "us", Lower),
    layer("transport.body_mb_per_s", "MB/s", Higher),
    layer("deser.request_us", "us", Lower),
    layer("deser.ns_per_byte", "ns", Lower),
    count("deser.outcome_share.identical", "fraction", Higher),
    count("deser.outcome_share.differential", "fraction", Higher),
    count("deser.outcome_share.full", "fraction", Lower),
    count("deser.leaves_reparsed_per_call", "count", Lower),
    layer("deser.reply_us", "us", Lower),
    layer("server.dispatch_us", "us", Lower),
    layer("server.respond_self_us", "us", Lower),
    layer("server.handler_us", "us", Lower),
    layer("baseline.full_serialize_us", "us", Lower),
    layer("core.send_vs_full_ratio", "ratio", Higher),
    layer("rpc.call_p50_us", "us", Lower),
    layer("rpc.call_p99_us", "us", Lower),
    layer("rpc.tail_ratio", "ratio", Lower),
    layer("rpc.stage_sum_us", "us", Lower),
    layer("rpc.unattributed_us", "us", Lower),
    layer("rpc.staged_call_us", "us", Lower),
    layer("rpc.trace_overhead_share", "fraction", Lower),
    layer("rpc.round_iqr_share", "fraction", Lower),
    layer("rpc.failed_share", "fraction", Lower),
    layer("rpc.traced_calls", "count", Higher),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_are_unique_and_fit_the_manifest_contract() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        let set: HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len(), "duplicate metric name");
        for n in names {
            assert!(n.len() <= 64, "{n}");
            assert!(n.chars().next().unwrap().is_ascii_alphanumeric(), "{n}");
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        for unit in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }
}
