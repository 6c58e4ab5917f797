//! One runnable scenario per figure of the paper's §4.
//!
//! Every public `fig_*` function reproduces the workload of the matching
//! figure and returns a [`Table`]: rows are array sizes, columns are the
//! figure's series, and cells are mean Send Time in milliseconds —
//! exactly the quantity the paper plots. The `figures` binary renders
//! these tables; EXPERIMENTS.md records them against the paper's claims.

use crate::timing::{measure, measure_batched, Timing};
use crate::workload::{grow_fraction, pinned, values, Kind, WidthClass};
use bsoap_baseline::{GSoapLike, XSoapLike};
use bsoap_chunks::ChunkConfig;
use bsoap_core::{EngineConfig, MessageTemplate, Value, WidthPolicy};
use bsoap_transport::SinkTransport;

/// A regenerated figure: per-size rows of per-series mean milliseconds.
#[derive(Clone, Debug)]
pub struct Table {
    /// Figure identifier ("Figure 4").
    pub id: String,
    /// Title matching the paper's caption.
    pub title: String,
    /// Series (column) names.
    pub series: Vec<String>,
    /// `(array size, mean ms per series)` rows.
    pub rows: Vec<(usize, Vec<f64>)>,
}

impl Table {
    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "{} — {}", self.id, self.title);
        let _ = write!(out, "{:>9}", "n");
        for s in &self.series {
            let _ = write!(out, "  {s:>26}");
        }
        let _ = writeln!(out);
        for (n, cells) in &self.rows {
            let _ = write!(out, "{n:>9}");
            for c in cells {
                let _ = write!(out, "  {c:>23.4} ms");
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Render as CSV (for plotting).
    pub fn to_csv(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = write!(out, "n");
        for s in &self.series {
            let _ = write!(out, ",{s}");
        }
        let _ = writeln!(out);
        for (n, cells) in &self.rows {
            let _ = write!(out, "{n}");
            for c in cells {
                let _ = write!(out, ",{c:.6}");
            }
            let _ = writeln!(out);
        }
        out
    }
}

fn ms(t: Timing) -> f64 {
    t.mean_ms()
}

const WARMUP: usize = 2;

/// Touch (mark dirty without changing) the re-serializable leaves of the
/// first `percent`% of elements. For MIOs only the double field is
/// touched — the paper's Figure 4 setup keeps "MIO integers" clean.
pub fn touch_percent(tpl: &mut MessageTemplate, kind: Kind, percent: usize) {
    let n = tpl.array_len(0);
    let k = n * percent / 100;
    match kind {
        Kind::Mios => {
            for e in 0..k {
                tpl.touch(tpl.array_leaf(0, e, 2));
            }
        }
        _ => {
            for e in 0..k {
                tpl.touch(tpl.array_leaf(0, e, 0));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Figures 1–3: message content matches vs full serialization.
// ---------------------------------------------------------------------

/// Figures 1 (MIOs), 2 (doubles, + XSOAP), 3 (integers).
pub fn fig_content_match(kind: Kind, sizes: &[usize], reps: usize) -> Table {
    let op = kind.op();
    let include_xsoap = kind == Kind::Doubles;
    let mut series = Vec::new();
    if include_xsoap {
        series.push("XSOAP-like".to_owned());
    }
    series.extend([
        "gSOAP-like".to_owned(),
        "bSOAP full serialization".to_owned(),
        "bSOAP content match".to_owned(),
    ]);

    let mut rows = Vec::new();
    for &n in sizes {
        let args = vec![values(kind, n)];
        let mut cells = Vec::new();

        if include_xsoap {
            let mut x = XSoapLike::new();
            let mut sink = SinkTransport::new();
            cells.push(ms(measure(WARMUP, reps, || {
                x.send(&op, &args, &mut sink).unwrap();
            })));
        }
        {
            let mut g = GSoapLike::new();
            let mut sink = SinkTransport::new();
            cells.push(ms(measure(WARMUP, reps, || {
                g.send(&op, &args, &mut sink).unwrap();
            })));
        }
        {
            // bSOAP with differential serialization off: build + send
            // every time (the paper toggles the optimization off).
            let config = EngineConfig::paper_default();
            let mut sink = SinkTransport::new();
            cells.push(ms(measure(WARMUP, reps, || {
                let mut tpl = MessageTemplate::build(config, &op, &args).unwrap();
                tpl.send(&mut sink).unwrap();
            })));
        }
        {
            // Content match: template saved, nothing dirty, resend as-is.
            let config = EngineConfig::paper_default();
            let mut tpl = MessageTemplate::build(config, &op, &args).unwrap();
            let mut sink = SinkTransport::new();
            cells.push(ms(measure(WARMUP, reps, || {
                tpl.send(&mut sink).unwrap();
            })));
        }
        rows.push((n, cells));
    }
    let fig_no = match kind {
        Kind::Mios => 1,
        Kind::Doubles => 2,
        Kind::Ints => 3,
    };
    Table {
        id: format!("Figure {fig_no}"),
        title: format!("Message Content Matches: {}", kind.name()),
        series,
        rows,
    }
}

// ---------------------------------------------------------------------
// Figures 4–5: perfect structural matches.
// ---------------------------------------------------------------------

/// Figures 4 (MIOs) and 5 (doubles): 25–100% of values re-serialized.
pub fn fig_psm(kind: Kind, sizes: &[usize], reps: usize) -> Table {
    let op = kind.op();
    let series = vec![
        "bSOAP full serialization".to_owned(),
        "100% value re-serialization".to_owned(),
        "75% value re-serialization".to_owned(),
        "50% value re-serialization".to_owned(),
        "25% value re-serialization".to_owned(),
        "content match".to_owned(),
    ];
    let config = EngineConfig::paper_default();
    let mut rows = Vec::new();
    for &n in sizes {
        let args = vec![values(kind, n)];
        let mut cells = Vec::new();
        {
            let mut sink = SinkTransport::new();
            cells.push(ms(measure(WARMUP, reps, || {
                let mut tpl = MessageTemplate::build(config, &op, &args).unwrap();
                tpl.send(&mut sink).unwrap();
            })));
        }
        for percent in [100usize, 75, 50, 25, 0] {
            let mut tpl = MessageTemplate::build(config, &op, &args).unwrap();
            let mut sink = SinkTransport::new();
            cells.push(ms(measure(WARMUP, reps, || {
                touch_percent(&mut tpl, kind, percent);
                tpl.send(&mut sink).unwrap();
            })));
        }
        rows.push((n, cells));
    }
    let fig_no = if kind == Kind::Mios { 4 } else { 5 };
    Table {
        id: format!("Figure {fig_no}"),
        title: format!("Perfect Structural Matches: {}", kind.name()),
        series,
        rows,
    }
}

// ---------------------------------------------------------------------
// Figures 6–7: worst-case shifting.
// ---------------------------------------------------------------------

/// Figures 6 (MIOs) and 7 (doubles): every value grows from minimum to
/// maximum width, with 32K and 8K chunks, vs shift-free re-serialization.
pub fn fig_shift_worst(kind: Kind, sizes: &[usize], reps: usize) -> Table {
    let op = kind.op();
    let series = vec![
        "worst-case shift, 32K chunks".to_owned(),
        "worst-case shift, 8K chunks".to_owned(),
        "100% re-serialization, no shift".to_owned(),
    ];
    let mut rows = Vec::new();
    for &n in sizes {
        let min_args = vec![pinned(kind, n, WidthClass::Min)];
        let max_args = vec![pinned(kind, n, WidthClass::Max)];
        let mut cells = Vec::new();
        for chunk in [ChunkConfig::k32(), ChunkConfig::k8()] {
            let config = EngineConfig::paper_default().with_chunk(chunk);
            let mut sink = SinkTransport::new();
            cells.push(ms(measure_batched(
                WARMUP,
                reps,
                || MessageTemplate::build(config, &op, &min_args).unwrap(),
                |mut tpl| {
                    tpl.update_args(&max_args).unwrap();
                    tpl.send(&mut sink).unwrap();
                },
            )));
        }
        {
            // Reference: same 100% of values rewritten, but the template
            // was built at maximum widths so nothing ever shifts.
            let config = EngineConfig::paper_default();
            let mut tpl = MessageTemplate::build(config, &op, &max_args).unwrap();
            let mut sink = SinkTransport::new();
            cells.push(ms(measure(WARMUP, reps, || {
                touch_percent(&mut tpl, kind, 100);
                tpl.send(&mut sink).unwrap();
            })));
        }
        rows.push((n, cells));
    }
    let fig_no = if kind == Kind::Mios { 6 } else { 7 };
    Table {
        id: format!("Figure {fig_no}"),
        title: format!("Worst Case Shifting: {}", kind.name()),
        series,
        rows,
    }
}

// ---------------------------------------------------------------------
// Figures 8–9: partial shifting.
// ---------------------------------------------------------------------

/// Figures 8 (MIOs) and 9 (doubles): 25–100% of values grow from the
/// intermediate width to the maximum width.
pub fn fig_shift_partial(kind: Kind, sizes: &[usize], reps: usize) -> Table {
    let op = kind.op();
    let series = vec![
        "100% re-serialization + shift".to_owned(),
        "75% re-serialization + shift".to_owned(),
        "50% re-serialization + shift".to_owned(),
        "25% re-serialization + shift".to_owned(),
        "100% re-serialization, no shift".to_owned(),
    ];
    let config = EngineConfig::paper_default();
    let mut rows = Vec::new();
    for &n in sizes {
        let mid_args = vec![pinned(kind, n, WidthClass::Mid)];
        let mut cells = Vec::new();
        for percent in [100usize, 75, 50, 25] {
            let grown = vec![grow_fraction(kind, &mid_args[0], percent, WidthClass::Max)];
            let mut sink = SinkTransport::new();
            cells.push(ms(measure_batched(
                WARMUP,
                reps,
                || MessageTemplate::build(config, &op, &mid_args).unwrap(),
                |mut tpl| {
                    tpl.update_args(&grown).unwrap();
                    tpl.send(&mut sink).unwrap();
                },
            )));
        }
        {
            let max_args = vec![pinned(kind, n, WidthClass::Max)];
            let mut tpl = MessageTemplate::build(config, &op, &max_args).unwrap();
            let mut sink = SinkTransport::new();
            cells.push(ms(measure(WARMUP, reps, || {
                touch_percent(&mut tpl, kind, 100);
                tpl.send(&mut sink).unwrap();
            })));
        }
        rows.push((n, cells));
    }
    let fig_no = if kind == Kind::Mios { 8 } else { 9 };
    Table {
        id: format!("Figure {fig_no}"),
        title: format!("Shifting Performance: {}", kind.name()),
        series,
        rows,
    }
}

// ---------------------------------------------------------------------
// Figures 10–11: stuffing.
// ---------------------------------------------------------------------

/// Figures 10 (MIOs) and 11 (doubles): minimum-width values stuffed to
/// min / intermediate / max field widths, plus the worst-case closing-tag
/// shift (writing minimum values over maximum ones).
pub fn fig_stuffing(kind: Kind, sizes: &[usize], reps: usize) -> Table {
    let op = kind.op();
    let series = vec![
        "max width: full closing-tag shift".to_owned(),
        "max width: no closing-tag shift".to_owned(),
        "intermediate width: no closing-tag shift".to_owned(),
        "min width: no closing-tag shift".to_owned(),
    ];
    let mut rows = Vec::new();
    for &n in sizes {
        let min_args = vec![pinned(kind, n, WidthClass::Min)];
        let max_args = vec![pinned(kind, n, WidthClass::Max)];
        let mut cells = Vec::new();
        {
            // Full closing-tag shift: template holds max-width values in
            // max-width fields; each send writes min values over them,
            // moving every closing tag as far left as possible.
            let config = EngineConfig::paper_default().with_width(WidthPolicy::Max);
            let mut sink = SinkTransport::new();
            cells.push(ms(measure_batched(
                WARMUP,
                reps,
                || MessageTemplate::build(config, &op, &max_args).unwrap(),
                |mut tpl| {
                    tpl.update_args(&min_args).unwrap();
                    tpl.send(&mut sink).unwrap();
                },
            )));
        }
        let width_configs = [
            EngineConfig::paper_default().with_width(WidthPolicy::Max),
            EngineConfig::paper_default().with_width(WidthPolicy::Fixed {
                double: 18,
                int: 9,
                long: 20,
            }),
            EngineConfig::paper_default(), // exact = min, values are min-width
        ];
        for config in width_configs {
            // No closing-tag shift: min-width values re-serialized into
            // fields of the configured width (value length unchanged, so
            // tags never move; the cost difference is message size).
            let mut tpl = MessageTemplate::build(config, &op, &min_args).unwrap();
            let mut sink = SinkTransport::new();
            cells.push(ms(measure(WARMUP, reps, || {
                touch_percent(&mut tpl, kind, 100);
                tpl.send(&mut sink).unwrap();
            })));
        }
        rows.push((n, cells));
    }
    let fig_no = if kind == Kind::Mios { 10 } else { 11 };
    Table {
        id: format!("Figure {fig_no}"),
        title: format!("Stuffing Performance: {}", kind.name()),
        series,
        rows,
    }
}

// ---------------------------------------------------------------------
// Figure 12: chunk overlaying.
// ---------------------------------------------------------------------

/// Figure 12: sending from a single overlaid 32K chunk vs re-serializing
/// a full multi-chunk template, for doubles and MIOs.
pub fn fig_overlay(sizes: &[usize], reps: usize) -> Table {
    use bsoap_core::overlay::OverlaySender;
    let series = vec![
        "chunk overlay, doubles".to_owned(),
        "100% re-serialization, doubles".to_owned(),
        "chunk overlay, MIOs".to_owned(),
        "100% re-serialization, MIOs".to_owned(),
    ];
    let config = EngineConfig::paper_default();
    let mut rows = Vec::new();
    for &n in sizes {
        let mut cells = Vec::new();
        for kind in [Kind::Doubles, Kind::Mios] {
            let op = kind.op();
            let args = vec![values(kind, n)];
            {
                let mut overlay = OverlaySender::auto_window(config, &op).unwrap();
                let mut sink = SinkTransport::new();
                cells.push(ms(measure(WARMUP, reps, || {
                    overlay.send(&args[0], &mut sink).unwrap();
                })));
            }
            {
                let mut tpl = MessageTemplate::build(config, &op, &args).unwrap();
                let mut sink = SinkTransport::new();
                cells.push(ms(measure(WARMUP, reps, || {
                    touch_percent(&mut tpl, kind, 100);
                    tpl.send(&mut sink).unwrap();
                })));
            }
        }
        rows.push((n, cells));
    }
    Table {
        id: "Figure 12".to_owned(),
        title: "Chunk Overlaying Performance".to_owned(),
        series,
        rows,
    }
}

// ---------------------------------------------------------------------
// Beyond the paper: conversion kernel.
// ---------------------------------------------------------------------

/// Conversion-kernel operating points on the paper's
/// 100%-re-serialization PSM workload (every value dirty, all rewrites
/// in-width). Series: the paper's Exact2004 kernel and the Grisu3 fast
/// kernel. Output bytes are identical — only the conversion cost moves.
pub fn fig_kernel(kind: Kind, sizes: &[usize], reps: usize) -> Table {
    use bsoap_core::FloatFormatter;
    let op = kind.op();
    let series = vec!["Exact2004 kernel".to_owned(), "Fast kernel".to_owned()];
    let configs = [
        EngineConfig::paper_default(),
        EngineConfig::paper_default().with_float(FloatFormatter::Fast),
    ];
    let mut rows = Vec::new();
    for &n in sizes {
        let args = vec![values(kind, n)];
        let mut cells = Vec::new();
        for config in configs {
            let mut tpl = MessageTemplate::build(config, &op, &args).unwrap();
            let mut sink = SinkTransport::new();
            cells.push(ms(measure(WARMUP, reps, || {
                touch_percent(&mut tpl, kind, 100);
                tpl.send(&mut sink).unwrap();
            })));
        }
        rows.push((n, cells));
    }
    Table {
        id: "Kernel".to_owned(),
        title: format!("Conversion kernel, 100% re-serialization: {}", kind.name()),
        series,
        rows,
    }
}

// ---------------------------------------------------------------------
// §2 ablation: where does serialization time go?
// ---------------------------------------------------------------------

/// The §2 claim: conversion dominates end-to-end cost. Splits full
/// serialization into conversion-only, serialize (convert + tags), and
/// serialize + send.
pub fn fig_ablation(sizes: &[usize], reps: usize) -> Table {
    let op = Kind::Doubles.op();
    let series = vec![
        "conversion only".to_owned(),
        "full serialization".to_owned(),
        "serialization + send".to_owned(),
        "conversion share (%)".to_owned(),
    ];
    let mut rows = Vec::new();
    for &n in sizes {
        let Value::DoubleArray(xs) = values(Kind::Doubles, n) else {
            unreachable!()
        };
        let args = vec![Value::DoubleArray(xs.clone())];
        let mut cells = Vec::new();
        {
            let mut buf = [0u8; bsoap_convert::DOUBLE_MAX_WIDTH];
            let mut acc = 0usize;
            cells.push(ms(measure(WARMUP, reps, || {
                for &x in &xs {
                    acc = acc.wrapping_add(bsoap_convert::write_f64(&mut buf, x));
                }
                std::hint::black_box(acc);
            })));
        }
        {
            let mut g = GSoapLike::new();
            cells.push(ms(measure(WARMUP, reps, || {
                g.serialize(&op, &args).unwrap();
            })));
        }
        {
            let mut g = GSoapLike::new();
            let mut sink = SinkTransport::new();
            cells.push(ms(measure(WARMUP, reps, || {
                g.send(&op, &args, &mut sink).unwrap();
            })));
        }
        let share = 100.0 * cells[0] / cells[2].max(1e-12);
        cells.push(share);
        rows.push((n, cells));
    }
    Table {
        id: "Ablation (§2)".to_owned(),
        title: "Conversion share of end-to-end Send Time (doubles)".to_owned(),
        series,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: &[usize] = &[1, 64];

    #[test]
    fn all_figures_produce_tables() {
        let tables = [
            fig_content_match(Kind::Mios, TINY, 2),
            fig_content_match(Kind::Doubles, TINY, 2),
            fig_content_match(Kind::Ints, TINY, 2),
            fig_psm(Kind::Mios, TINY, 2),
            fig_psm(Kind::Doubles, TINY, 2),
            fig_shift_worst(Kind::Mios, TINY, 2),
            fig_shift_worst(Kind::Doubles, TINY, 2),
            fig_shift_partial(Kind::Mios, TINY, 2),
            fig_shift_partial(Kind::Doubles, TINY, 2),
            fig_stuffing(Kind::Mios, TINY, 2),
            fig_stuffing(Kind::Doubles, TINY, 2),
            fig_overlay(TINY, 2),
            fig_ablation(TINY, 2),
            fig_kernel(Kind::Doubles, TINY, 2),
        ];
        for t in &tables {
            assert_eq!(t.rows.len(), TINY.len(), "{}", t.id);
            for (_, cells) in &t.rows {
                assert_eq!(cells.len(), t.series.len(), "{}", t.id);
                assert!(cells.iter().all(|c| c.is_finite() && *c >= 0.0), "{}", t.id);
            }
            assert!(!t.render().is_empty());
            assert!(t.to_csv().lines().count() == t.rows.len() + 1);
        }
    }

    #[test]
    fn psm_orders_by_dirty_fraction() {
        // Deterministic successor to the wall-clock ordering check that
        // used to hide behind BSOAP_TIMING_TESTS=1 (and still flaked on
        // loaded boxes). Send Time is now modeled on the obs virtual
        // clock: every send charges a fixed nanosecond cost per unit of
        // work the engine itself reports — values converted, bytes built,
        // bytes shifted, bytes put on the wire — so the Figure 5 ordering
        //
        //     full ≥ 100% ≥ 75% ≥ 50% ≥ 25% ≥ content match
        //
        // follows from the work counters alone and holds on any machine,
        // however loaded: no env gate, no retries, no slack factor.
        use bsoap_obs::{Counter, HistId, Metrics, Recorder, VirtualClock};
        use std::sync::Arc;

        const N: usize = 10_000;
        const REPS: usize = 4;
        // ns charged per unit of work. The exact figures are arbitrary;
        // the ordering only needs each kind of work to cost something.
        const C_CONV: u64 = 60; // convert one value to text
        const C_BUILD: u64 = 2; // serialize one byte while building
        const C_SHIFT: u64 = 4; // move one stored byte while shifting
        const C_WIRE: u64 = 1; // hand one byte to the transport

        let op = Kind::Doubles.op();
        let args = vec![values(Kind::Doubles, N)];
        let config = EngineConfig::paper_default();

        // Run one Figure 5 series (None = full serialization, Some(p) =
        // touch p% then resend) for REPS sends, advancing the virtual
        // clock per the cost model and recording each modeled latency
        // into the registry's send histograms. Returns the modeled p50.
        let modeled_p50 = |percent: Option<usize>| -> u64 {
            let clock = Arc::new(VirtualClock::new());
            let metrics = Arc::new(Metrics::with_clock(clock.clone()));
            let mut sink = SinkTransport::new();
            let mut saved = percent.map(|_| {
                let mut tpl = MessageTemplate::build(config, &op, &args).unwrap();
                tpl.set_metrics(Arc::clone(&metrics));
                tpl
            });
            let mut total_cost = 0u64;
            for _ in 0..REPS {
                let before = metrics.snapshot();
                let (tier, built_bytes) = match (&mut saved, percent) {
                    (Some(tpl), Some(p)) => {
                        touch_percent(tpl, Kind::Doubles, p);
                        let report = tpl.send(&mut sink).unwrap();
                        (report.tier, 0u64)
                    }
                    _ => {
                        // Full serialization: rebuild every time, which
                        // converts all N values and writes every byte.
                        let mut tpl = MessageTemplate::build(config, &op, &args).unwrap();
                        tpl.set_metrics(Arc::clone(&metrics));
                        let report = tpl.send(&mut sink).unwrap();
                        (report.tier, report.bytes as u64)
                    }
                };
                let after = metrics.snapshot();
                let delta = |c: Counter| after.get(c) - before.get(c);
                // A build converts all N values; a flush reports only the
                // dirty values it actually rewrote.
                let conversions = if built_bytes > 0 {
                    N as u64
                } else {
                    delta(Counter::ValuesWritten)
                };
                let cost = conversions * C_CONV
                    + built_bytes * C_BUILD
                    + delta(Counter::ShiftedBytes) * C_SHIFT
                    + delta(Counter::BytesSent) * C_WIRE;
                clock.advance(cost);
                metrics.observe_ns(HistId::send(tier), cost);
                total_cost += cost;
            }
            assert_eq!(
                metrics.now_ns(),
                total_cost,
                "virtual clock moved only by the cost model"
            );
            let snap = metrics.snapshot();
            let mut merged = snap.hist(HistId::SendFirstTime).clone();
            for h in [
                HistId::SendContentMatch,
                HistId::SendPerfectStructural,
                HistId::SendPartialStructural,
            ] {
                merged.merge(snap.hist(h));
            }
            assert_eq!(merged.count(), REPS as u64, "one observation per send");
            merged.percentile(50.0)
        };

        let full = modeled_p50(None);
        let p100 = modeled_p50(Some(100));
        let p75 = modeled_p50(Some(75));
        let p50 = modeled_p50(Some(50));
        let p25 = modeled_p50(Some(25));
        let content = modeled_p50(Some(0));

        let chain = [
            ("full", full),
            ("100%", p100),
            ("75%", p75),
            ("50%", p50),
            ("25%", p25),
            ("content", content),
        ];
        for pair in chain.windows(2) {
            let ((hi_name, hi), (lo_name, lo)) = (pair[0], pair[1]);
            assert!(
                hi > lo,
                "{hi_name} ({hi} ns) should cost more than {lo_name} ({lo} ns)"
            );
        }
        assert!(content > 0, "content match still wires the message");

        // Figure 2's ordering in the same currency. The baselines report
        // no counters, so each is charged for what it produces: every
        // value converted, every output byte built and wired, and — the
        // DOM serializer's defining cost — one allocation per tree node.
        const C_NODE: u64 = 40; // allocate one DOM node
        let produced = |len: usize| N as u64 * C_CONV + len as u64 * (C_BUILD + C_WIRE);
        let gsoap = produced(GSoapLike::new().serialize(&op, &args).unwrap().len());
        let mut x = XSoapLike::new();
        let nodes = x.build_tree(&op, &args).unwrap().size() as u64;
        let xsoap = produced(x.serialize(&op, &args).unwrap().len()) + nodes * C_NODE;
        assert!(
            content * 2 < gsoap,
            "expected ≥2x over gSOAP-like, got {gsoap}/{content}"
        );
        assert!(gsoap < xsoap, "DOM serializer should be slowest");
    }
}
