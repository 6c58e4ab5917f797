//! Shift storm: every field grows past its exact width in one update —
//! the adversarial workload for the shifting machinery. Measures the
//! coalesced single-pass executor and exercises the §5 cost-gate fallback
//! on the same workload.
//!
//! ```text
//! cargo run --release -p bsoap-bench --bin shift_storm \
//!     [-- --elems N --reps R --kernel scalar|simd|both --out FILE]
//! ```
//!
//! `--kernel` (default `both`) controls the byte-kernel rows: `simd` and
//! `both` add a `planned_simd` leg — the coalesced executor under
//! `KernelPolicy::Auto` — next to the scalar `planned` row,
//! byte-identity-checked against it; `scalar` suppresses it (the
//! scalar-only CI leg).
//!
//! Asserts (exit 1 on failure):
//!
//! * every leg's bytes are identical, and pad-equal to a `GSoapLike` full
//!   serialization of the storm values;
//! * the flush takes at least one coalesced pass and moves at most one
//!   chunk per pass (obs `ShiftedBytes` ≤ `CoalescedShiftPasses` × the
//!   chunk split threshold);
//! * with `cost_fallback` on, the modeled cost of the adversarial send
//!   stays within 1.2× a FirstTime rebuild — the counter-driven
//!   virtual-clock model the Figure 5 scenario tests use, so the bound
//!   is deterministic on any machine.
//!
//! Writes `BENCH_shiftstorm.json` with counters and wall-clock means.

use std::sync::Arc;

use bsoap_baseline::GSoapLike;
use bsoap_bench::workload::Kind;
use bsoap_bench::{measure_batched, Timing};
use bsoap_chunks::ChunkConfig;
use bsoap_core::{
    Client, EngineConfig, KernelPolicy, MessageTemplate, SendTier, Value, WidthPolicy,
};
use bsoap_obs::{Counter, EngineStats, Metrics};
use bsoap_transport::SinkTransport;
use bsoap_xml::strip_pad;

// Virtual-clock cost model (same currency as the scenario tests).
const C_CONV: u64 = 60; // convert one value to text
const C_BUILD: u64 = 2; // serialize one byte while building
const C_SHIFT: u64 = 4; // move one stored byte while shifting
const C_WIRE: u64 = 1; // hand one byte to the transport

/// Short initial values: 3 chars each under exact widths.
fn initial(n: usize) -> Value {
    Value::DoubleArray((0..n).map(|i| (i % 10) as f64 + 0.5).collect())
}

/// Storm values: every element becomes a ~17-significant-digit float, so
/// every field grows past its width and must shift.
fn storm(n: usize) -> Value {
    Value::DoubleArray((0..n).map(|i| (i as f64 + 0.1) / 3.0).collect())
}

fn config(kernel: KernelPolicy) -> EngineConfig {
    // 32 KiB chunks: a shift near the head of a chunk moves a long tail,
    // so the one-chunk-per-pass bound is a real constraint.
    EngineConfig::paper_default()
        .with_chunk(ChunkConfig::k32())
        .with_width(WidthPolicy::Exact)
        .with_kernel(kernel)
}

struct Leg {
    mean_ms: f64,
    min_ms: f64,
    shifted_bytes: u64,
    shifts: u64,
    splits: u64,
    coalesced_passes: u64,
    values_written: u64,
    bytes: Vec<u8>,
}

/// One instrumented run for the counters and the byte-identity check
/// (wall-clock fields are filled in by the interleaved timing loop).
fn run_counters(kernel: KernelPolicy, n: usize) -> Leg {
    let op = Kind::Doubles.op();
    let metrics = Arc::new(Metrics::new());
    let mut tpl = MessageTemplate::build(config(kernel), &op, &[initial(n)]).unwrap();
    tpl.set_metrics(Arc::clone(&metrics));
    tpl.update_args(&[storm(n)]).unwrap();
    tpl.flush();
    let snap = metrics.snapshot();
    Leg {
        mean_ms: f64::INFINITY,
        min_ms: f64::INFINITY,
        shifted_bytes: snap.get(Counter::ShiftedBytes),
        shifts: snap.get(Counter::Shifts),
        splits: snap.get(Counter::Splits),
        coalesced_passes: snap.get(Counter::CoalescedShiftPasses),
        values_written: snap.get(Counter::ValuesWritten),
        bytes: tpl.to_bytes(),
    }
}

/// Time the storm flush: each rep gets a fresh template (built + dirtied
/// untimed; only the flush is timed).
fn time_leg(kernel: KernelPolicy, n: usize, reps: usize) -> Timing {
    let op = Kind::Doubles.op();
    let config = config(kernel);
    measure_batched(
        1,
        reps,
        || {
            let mut tpl = MessageTemplate::build(config, &op, &[initial(n)]).unwrap();
            tpl.update_args(&[storm(n)]).unwrap();
            tpl
        },
        |mut tpl| {
            tpl.flush();
            std::hint::black_box(tpl.message_len());
        },
    )
}

/// Modeled nanoseconds for the work a send performed, from counter deltas.
fn modeled_cost(before: &EngineStats, after: &EngineStats, built_bytes: u64) -> u64 {
    let delta = |c: Counter| after.get(c) - before.get(c);
    delta(Counter::ValuesWritten) * C_CONV
        + built_bytes * C_BUILD
        + delta(Counter::ShiftedBytes) * C_SHIFT
        + delta(Counter::BytesSent) * C_WIRE
}

struct Fallback {
    fell_back: bool,
    modeled_ratio: f64,
    adversarial_ms: f64,
    first_time_ms: f64,
}

fn run_fallback(n: usize, reps: usize) -> Fallback {
    let op = Kind::Doubles.op();
    // The storm's plan prices at ~1.0× a rebuild (coalescing makes even
    // the worst case cheap to *execute*, but it still reconverts every
    // value); a 0.75 break-even ratio puts this workload firmly on the
    // rebuild side of the gate, which is the behavior this leg verifies.
    let cfg = config(KernelPolicy::Auto)
        .with_cost_fallback(true)
        .with_fallback_ratio(0.75);

    // Adversarial send through the gate.
    let metrics = Arc::new(Metrics::new());
    let mut client = Client::new(cfg);
    client.set_metrics(Arc::clone(&metrics));
    let mut sink = SinkTransport::new();
    client.call("ep", &op, &[initial(n)], &mut sink).unwrap();
    let before = metrics.snapshot();
    let r = client.call("ep", &op, &[storm(n)], &mut sink).unwrap();
    let after = metrics.snapshot();
    let built = if r.tier == SendTier::FirstTime {
        r.bytes as u64
    } else {
        0
    };
    let adversarial = modeled_cost(&before, &after, built);

    // FirstTime baseline: serialize the storm arguments from scratch.
    let metrics = Arc::new(Metrics::new());
    let mut fresh = Client::new(cfg);
    fresh.set_metrics(Arc::clone(&metrics));
    let before = metrics.snapshot();
    let rf = fresh.call("ep", &op, &[storm(n)], &mut sink).unwrap();
    let after = metrics.snapshot();
    let first_time = modeled_cost(&before, &after, rf.bytes as u64);

    // Wall-clock companions (recorded, not asserted — the modeled ratio
    // is the deterministic bound).
    let adversarial_t = measure_batched(
        1,
        reps,
        || {
            let mut client = Client::new(cfg);
            let mut sink = SinkTransport::new();
            client.call("ep", &op, &[initial(n)], &mut sink).unwrap();
            (client, sink)
        },
        |(mut client, mut sink)| {
            client.call("ep", &op, &[storm(n)], &mut sink).unwrap();
        },
    );
    let first_time_t = measure_batched(
        1,
        reps,
        || (Client::new(cfg), SinkTransport::new()),
        |(mut client, mut sink)| {
            client.call("ep", &op, &[storm(n)], &mut sink).unwrap();
        },
    );

    Fallback {
        fell_back: r.fell_back,
        modeled_ratio: adversarial as f64 / first_time as f64,
        adversarial_ms: adversarial_t.mean_ms(),
        first_time_ms: first_time_t.mean_ms(),
    }
}

fn leg_json(leg: &Leg) -> String {
    format!(
        "{{\"mean_ms\": {:.4}, \"min_ms\": {:.4}, \"shifted_bytes\": {}, \
         \"shifts\": {}, \"splits\": {}, \"coalesced_passes\": {}, \
         \"values_written\": {}}}",
        leg.mean_ms,
        leg.min_ms,
        leg.shifted_bytes,
        leg.shifts,
        leg.splits,
        leg.coalesced_passes,
        leg.values_written,
    )
}

fn main() {
    let mut elems = 2000usize;
    let mut reps = 30usize;
    let mut kernel = "both".to_owned();
    let mut out = "BENCH_shiftstorm.json".to_owned();
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
            "--kernel" => kernel = next("--kernel"),
            "--out" => out = next("--out"),
            "--help" | "-h" => {
                println!(
                    "usage: shift_storm [--elems N] [--reps R] \
                     [--kernel scalar|simd|both] [--out FILE]"
                );
                return;
            }
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
    }
    let with_simd_leg = match kernel.as_str() {
        "scalar" => false,
        "simd" | "both" => true,
        other => {
            eprintln!("bad --kernel {other} (want scalar|simd|both)");
            std::process::exit(2);
        }
    };

    let mut planned = run_counters(KernelPolicy::Scalar, elems);
    let mut planned_simd = with_simd_leg.then(|| run_counters(KernelPolicy::Auto, elems));

    // Interleave the legs across several rounds and keep each leg's best
    // round: background load hits all alike, so the comparison is between
    // the code paths rather than the scheduler's mood.
    const ROUNDS: usize = 5;
    let reps_per_round = reps.div_ceil(ROUNDS).max(2);
    for _ in 0..ROUNDS {
        let mut legs = vec![(&mut planned, KernelPolicy::Scalar)];
        if let Some(leg) = planned_simd.as_mut() {
            legs.push((leg, KernelPolicy::Auto));
        }
        for (leg, k) in legs {
            let t = time_leg(k, elems, reps_per_round);
            leg.mean_ms = leg.mean_ms.min(t.mean_ms());
            leg.min_ms = leg.min_ms.min(t.min.as_secs_f64() * 1e3);
        }
    }
    let fallback = run_fallback(elems, reps.min(10));

    println!("shift storm: {elems} doubles, every field grows past its exact width");
    println!(
        "  planned: {:>8.4} ms/flush (min {:>8.4})  shifted {:>10} B  shifts {:>5}  splits {}  passes {}",
        planned.mean_ms,
        planned.min_ms,
        planned.shifted_bytes,
        planned.shifts,
        planned.splits,
        planned.coalesced_passes,
    );
    if let Some(simd) = &planned_simd {
        println!(
            "  planned+simd: {:>8.4} ms/flush (min {:>8.4})  shifted {:>10} B  passes {}",
            simd.mean_ms, simd.min_ms, simd.shifted_bytes, simd.coalesced_passes,
        );
    }
    println!(
        "  fallback: fell_back={} modeled {:.3}x first-time (wall {:.4} ms vs {:.4} ms)",
        fallback.fell_back, fallback.modeled_ratio, fallback.adversarial_ms, fallback.first_time_ms,
    );

    let full = GSoapLike::new()
        .serialize(&Kind::Doubles.op(), &[storm(elems)])
        .expect("storm values serialize")
        .to_vec();
    let bytes_equal = strip_pad(&planned.bytes) == strip_pad(&full)
        && planned_simd
            .as_ref()
            .is_none_or(|s| s.bytes == planned.bytes);
    // Each coalesced pass moves at most one chunk's bytes.
    let shifted_bytes_bound = planned.coalesced_passes * ChunkConfig::k32().split_threshold as u64;
    let simd_row = match &planned_simd {
        Some(s) => leg_json(s),
        None => "null".to_owned(),
    };
    let json = format!(
        "{{\n  \"benchmark\": \"shift_storm\",\n  \"elems\": {elems},\n  \"reps\": {reps},\n  \
         \"kernel\": \"{kernel}\",\n  \
         \"planned\": {},\n  \"planned_simd\": {simd_row},\n  \
         \"bytes_equal\": {bytes_equal},\n  \
         \"shifted_bytes_bound\": {shifted_bytes_bound},\n  \"fallback\": {{\"fell_back\": {}, \
         \"modeled_ratio_vs_first_time\": {:.4}, \"adversarial_mean_ms\": {:.4}, \
         \"first_time_mean_ms\": {:.4}}}\n}}\n",
        leg_json(&planned),
        fallback.fell_back,
        fallback.modeled_ratio,
        fallback.adversarial_ms,
        fallback.first_time_ms,
    );
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out}");

    let mut failed = false;
    let mut check = |ok: bool, what: &str| {
        if !ok {
            eprintln!("FAIL: {what}");
            failed = true;
        }
    };
    check(
        bytes_equal,
        "flush bytes diverged across legs or from the full serialization",
    );
    if let Some(simd) = &planned_simd {
        check(
            simd.shifted_bytes == planned.shifted_bytes
                && simd.coalesced_passes == planned.coalesced_passes
                && simd.shifts == planned.shifts,
            "simd leg counters diverged from scalar planned leg",
        );
    }
    check(
        planned.coalesced_passes >= 1,
        "planned flush took no coalesced pass",
    );
    check(
        planned.shifted_bytes <= shifted_bytes_bound,
        "coalesced executor moved more than one chunk per pass",
    );
    check(
        planned.shifts > 0,
        "workload produced no shifts (not a storm)",
    );
    check(
        fallback.fell_back,
        "cost gate admitted the storm despite the strict break-even ratio",
    );
    check(
        fallback.modeled_ratio <= 1.2,
        "cost-gated adversarial send exceeded 1.2x FirstTime (modeled)",
    );
    if failed {
        std::process::exit(1);
    }
    println!("all shift-storm assertions passed");
}
