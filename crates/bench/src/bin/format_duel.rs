//! Format duel: the negotiated compact-binary lane (DESIGN §3.15)
//! against the SOAP/XML lane on the same differential workloads — the
//! experiment behind the tier-3 collapse claim. Each lane runs the full
//! tier ladder (first-time build, content match, perfect-structural
//! dirty sweeps, a structural resize) at exact widths, the setting where
//! the XML lane must shift on every numeric width change and the binary
//! lane — whose numeric slots are fixed-width — never shifts at all.
//!
//! ```text
//! cargo run --release -p bsoap-bench --bin format_duel \
//!     [-- --elems N --reps R --out FILE]
//! ```
//!
//! Asserts (exit 1 on failure):
//!
//! * every binary-lane row performs **zero** shift work: `Shifts`,
//!   `ShiftedBytes`, `CoalescedShiftPasses`, and `Splits` all stay 0,
//!   while the XML dirty rows shift at exact widths — the collapse;
//! * both lanes round-trip: XML wires are pad-equivalent to a gSOAP-style
//!   full serialization, binary wires decode back to the exact argument
//!   bits via `parse_binary_envelope`;
//! * the binary frame is strictly smaller than the XML envelope for the
//!   same send, on every scenario;
//! * every send lands on its own lane's `SendsXml`/`SendsBinary`
//!   counter and never the other lane's.
//!
//! Writes `BENCH_format.json` with per-lane counters, wire sizes, and
//! wall-clock means.

use std::sync::Arc;

use bsoap_baseline::GSoapLike;
use bsoap_bench::measure_batched;
use bsoap_bench::workload::Kind;
use bsoap_chunks::ChunkConfig;
use bsoap_core::{Client, EngineConfig, OpDesc, Value, WidthPolicy, WireFormat};
use bsoap_deser::parse_binary_envelope;
use bsoap_obs::{Counter, Metrics};
use bsoap_xml::strip_pad;

/// Short initial values: 3 chars each under exact widths.
fn initial(n: usize) -> Vec<f64> {
    (0..n).map(|i| (i % 10) as f64 + 0.5).collect()
}

/// Growth values: ~17-significant-digit floats, so every dirtied field
/// outgrows its exact width and the XML lane must shift.
fn grown(i: usize) -> f64 {
    (i as f64 + 0.1) / 3.0
}

#[derive(Clone, Copy)]
enum Scenario {
    /// The first send: template build + full serialization.
    FirstTime,
    /// Resend the identical arguments.
    ContentMatch,
    /// Dirty this fraction of the elements with width-growing values.
    Dirty(f64),
    /// Grow the array by an eighth: a structural resize.
    ResizeGrow,
}

impl Scenario {
    fn name(self) -> &'static str {
        match self {
            Scenario::FirstTime => "first_time",
            Scenario::ContentMatch => "content_match",
            Scenario::Dirty(f) if f <= 0.011 => "dirty_1pct",
            Scenario::Dirty(f) if f <= 0.11 => "dirty_10pct",
            Scenario::Dirty(f) if f <= 0.51 => "dirty_50pct",
            Scenario::Dirty(_) => "dirty_100pct",
            Scenario::ResizeGrow => "resize_grow",
        }
    }

    /// The arguments of the measured (second) send.
    fn apply(self, init: &[f64]) -> Vec<f64> {
        let mut xs = init.to_vec();
        match self {
            Scenario::FirstTime | Scenario::ContentMatch => {}
            Scenario::Dirty(f) => {
                let k = ((init.len() as f64 * f).ceil() as usize).clamp(1, init.len());
                for (i, x) in xs.iter_mut().take(k).enumerate() {
                    *x = grown(i);
                }
            }
            Scenario::ResizeGrow => {
                let extra = init.len() / 8 + 1;
                xs.extend((0..extra).map(|i| (i % 10) as f64 + 0.5));
            }
        }
        xs
    }
}

const SCENARIOS: [Scenario; 7] = [
    Scenario::FirstTime,
    Scenario::ContentMatch,
    Scenario::Dirty(0.01),
    Scenario::Dirty(0.10),
    Scenario::Dirty(0.50),
    Scenario::Dirty(1.0),
    Scenario::ResizeGrow,
];

fn config(format: WireFormat) -> EngineConfig {
    // Exact widths: the XML lane pays the full shifting machinery for
    // width growth, the binary lane has nothing to shift.
    EngineConfig::paper_default()
        .with_chunk(ChunkConfig::k32())
        .with_width(WidthPolicy::Exact)
        .with_wire_format(format)
}

struct Row {
    mean_ms: f64,
    min_ms: f64,
    wire_bytes: usize,
    values_written: u64,
    shifts: u64,
    shifted_bytes: u64,
    coalesced_passes: u64,
    splits: u64,
    own_lane_sends: u64,
    wrong_lane_sends: u64,
}

fn send(client: &mut Client, op: &OpDesc, xs: &[f64]) -> Vec<u8> {
    let mut wire = Vec::new();
    let args = [Value::DoubleArray(xs.to_vec())];
    client
        .call_via("ep", op, &args, |slices| {
            let mut n = 0;
            for s in slices {
                wire.extend_from_slice(s);
                n += s.len();
            }
            Ok(n)
        })
        .expect("bench send failed");
    wire
}

/// Verify the measured wire round-trips on its lane, and return the
/// XML-envelope size a full serialization of the same arguments costs
/// (the compactness yardstick for both lanes).
fn check_fidelity(format: WireFormat, op: &OpDesc, xs: &[f64], wire: &[u8]) -> usize {
    let args = [Value::DoubleArray(xs.to_vec())];
    let full = GSoapLike::new().serialize(op, &args).unwrap().to_vec();
    match format {
        WireFormat::SoapXml => assert_eq!(
            strip_pad(wire),
            strip_pad(&full),
            "xml wire diverges from full serialization"
        ),
        WireFormat::CompactBinary => {
            let decoded = parse_binary_envelope(wire, op).expect("binary wire must decode");
            let Value::DoubleArray(ds) = &decoded[0] else {
                panic!("decoded param is not a double array");
            };
            let got: Vec<u64> = ds.iter().map(|x| x.to_bits()).collect();
            let want: Vec<u64> = xs.iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, want, "binary wire does not round-trip bit-exactly");
        }
    }
    full.len()
}

/// One instrumented run: counter deltas around the measured send, plus
/// the fidelity check (wall-clock fields filled by the timing rounds).
fn run_counters(format: WireFormat, scen: Scenario, n: usize) -> (Row, usize) {
    let op = Kind::Doubles.op();
    let metrics = Arc::new(Metrics::new());
    let mut client = Client::new(config(format));
    client.set_metrics(Arc::clone(&metrics));
    let init = initial(n);

    let (wire, before) = if matches!(scen, Scenario::FirstTime) {
        let before = metrics.snapshot();
        (send(&mut client, &op, &init), before)
    } else {
        send(&mut client, &op, &init);
        let before = metrics.snapshot();
        (send(&mut client, &op, &scen.apply(&init)), before)
    };
    let after = metrics.snapshot();
    let d = |c: Counter| after.get(c) - before.get(c);

    let xml_len = check_fidelity(format, &op, &scen.apply(&init), &wire);
    let (own, wrong) = match format {
        WireFormat::SoapXml => (Counter::SendsXml, Counter::SendsBinary),
        WireFormat::CompactBinary => (Counter::SendsBinary, Counter::SendsXml),
    };
    let row = Row {
        mean_ms: f64::INFINITY,
        min_ms: f64::INFINITY,
        wire_bytes: wire.len(),
        values_written: d(Counter::ValuesWritten),
        shifts: d(Counter::Shifts),
        shifted_bytes: d(Counter::ShiftedBytes),
        coalesced_passes: d(Counter::CoalescedShiftPasses),
        splits: d(Counter::Splits),
        own_lane_sends: d(own),
        wrong_lane_sends: d(wrong),
    };
    (row, xml_len)
}

/// Time the measured send: each rep gets a fresh client primed with the
/// first-time send untimed (except the FirstTime scenario, which times
/// the build itself).
fn time_row(format: WireFormat, scen: Scenario, n: usize, reps: usize) -> (f64, f64) {
    let op = Kind::Doubles.op();
    let cfg = config(format);
    let init = initial(n);
    let target = [Value::DoubleArray(scen.apply(&init))];
    let discard =
        |slices: &[std::io::IoSlice<'_>]| Ok(slices.iter().map(|s| s.len()).sum::<usize>());
    let t = measure_batched(
        1,
        reps,
        || {
            let mut client = Client::new(cfg);
            if !matches!(scen, Scenario::FirstTime) {
                let args = [Value::DoubleArray(init.clone())];
                client.call_via("ep", &op, &args, discard).unwrap();
            }
            client
        },
        |mut client| {
            client.call_via("ep", &op, &target, discard).unwrap();
            std::hint::black_box(&client);
        },
    );
    (t.mean_ms(), t.min.as_secs_f64() * 1e3)
}

fn row_json(row: &Row) -> String {
    format!(
        "{{\"mean_ms\": {:.4}, \"min_ms\": {:.4}, \"wire_bytes\": {}, \
         \"values_written\": {}, \"shifts\": {}, \"shifted_bytes\": {}, \
         \"coalesced_passes\": {}, \"splits\": {}, \"own_lane_sends\": {}, \
         \"wrong_lane_sends\": {}}}",
        row.mean_ms,
        row.min_ms,
        row.wire_bytes,
        row.values_written,
        row.shifts,
        row.shifted_bytes,
        row.coalesced_passes,
        row.splits,
        row.own_lane_sends,
        row.wrong_lane_sends,
    )
}

fn main() {
    let mut elems = 1000usize;
    let mut reps = 30usize;
    let mut out = "BENCH_format.json".to_owned();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut next = |what: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {what}");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--elems" => elems = next("--elems").parse().expect("bad --elems"),
            "--reps" => reps = next("--reps").parse().expect("bad --reps"),
            "--out" => out = next("--out"),
            "--help" | "-h" => {
                println!("usage: format_duel [--elems N] [--reps R] [--out FILE]");
                return;
            }
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
    }

    const LANES: [(WireFormat, &str); 2] = [
        (WireFormat::SoapXml, "xml"),
        (WireFormat::CompactBinary, "binary"),
    ];

    let mut rows: Vec<Vec<Row>> = LANES
        .iter()
        .map(|(f, _)| {
            SCENARIOS
                .iter()
                .map(|s| run_counters(*f, *s, elems).0)
                .collect()
        })
        .collect();

    // Interleave the lanes and scenarios across rounds and keep each
    // row's best round, so background load cannot favor one lane.
    const ROUNDS: usize = 3;
    let reps_per_round = reps.div_ceil(ROUNDS).max(2);
    for _ in 0..ROUNDS {
        for (li, (format, _)) in LANES.iter().enumerate() {
            for (si, scen) in SCENARIOS.iter().enumerate() {
                let (mean, min) = time_row(*format, *scen, elems, reps_per_round);
                rows[li][si].mean_ms = rows[li][si].mean_ms.min(mean);
                rows[li][si].min_ms = rows[li][si].min_ms.min(min);
            }
        }
    }

    println!("format duel: {elems} doubles at exact widths, per-scenario send");
    let mut failures = Vec::new();
    for (si, scen) in SCENARIOS.iter().enumerate() {
        let xml = &rows[0][si];
        let bin = &rows[1][si];
        println!(
            "  {:>14}: xml {:>8.4} ms {:>8} B shifts {:>5} shifted {:>8} B | \
             bin {:>8.4} ms {:>8} B shifts {:>2}  wire {:.2}x  time {:.2}x",
            scen.name(),
            xml.mean_ms,
            xml.wire_bytes,
            xml.shifts,
            xml.shifted_bytes,
            bin.mean_ms,
            bin.wire_bytes,
            bin.shifts,
            xml.wire_bytes as f64 / bin.wire_bytes as f64,
            xml.mean_ms / bin.mean_ms,
        );

        // The collapse: the binary lane never shifts, anywhere.
        if bin.shifts != 0 || bin.shifted_bytes != 0 || bin.coalesced_passes != 0 || bin.splits != 0
        {
            failures.push(format!("{}: binary lane performed shift work", scen.name()));
        }
        if bin.wire_bytes >= xml.wire_bytes {
            failures.push(format!(
                "{}: binary frame not smaller than XML",
                scen.name()
            ));
        }
        if xml.wrong_lane_sends != 0 || bin.wrong_lane_sends != 0 {
            failures.push(format!(
                "{}: send landed on the wrong lane counter",
                scen.name()
            ));
        }
        if xml.own_lane_sends == 0 || bin.own_lane_sends == 0 {
            failures.push(format!("{}: own-lane counter did not tick", scen.name()));
        }
        // The XML lane must actually pay for width growth at exact
        // widths — otherwise the duel proves nothing.
        if matches!(scen, Scenario::Dirty(_)) && xml.shifts == 0 {
            failures.push(format!(
                "{}: xml lane did not shift on width growth",
                scen.name()
            ));
        }
    }

    let lane_json = |legs: &[Row]| -> String {
        SCENARIOS
            .iter()
            .zip(legs)
            .map(|(s, r)| format!("    \"{}\": {}", s.name(), row_json(r)))
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let json = format!(
        "{{\n  \"benchmark\": \"format_duel\",\n  \"elems\": {elems},\n  \"reps\": {reps},\n  \
         \"xml\": {{\n{}\n  }},\n  \"binary\": {{\n{}\n  }},\n  \
         \"binary_zero_shift_work\": {},\n  \"ok\": {}\n}}\n",
        lane_json(&rows[0]),
        lane_json(&rows[1]),
        rows[1].iter().all(|r| r.shifts == 0
            && r.shifted_bytes == 0
            && r.coalesced_passes == 0
            && r.splits == 0),
        failures.is_empty(),
    );
    std::fs::write(&out, json).expect("write output");
    println!("wrote {out}");

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
