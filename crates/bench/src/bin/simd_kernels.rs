//! SIMD-vs-scalar microbenchmarks for the three byte kernels (DESIGN.md
//! §3.11): the escape scanner, the branchless stuffed-integer writer, and
//! the wide coalesced gap shifter (plus the wide pad fill they share).
//!
//! ```text
//! cargo run --release -p bsoap-bench --bin simd_kernels [-- --reps R --out FILE]
//! ```
//!
//! Each leg times the *raw* kernel pair — not the policy dispatch — so the
//! reported ratio is the kernel speedup, undiluted by the (shared, small)
//! `resolve()` cost both sides would pay equally. Legs are interleaved
//! across rounds and the fastest round wins, so background load cannot
//! flip a verdict.
//!
//! Asserts (exit 1 on failure): escape scanning and stuffed itoa are each
//! ≥ 1.5× faster than their scalar oracles. On a machine without SIMD the
//! binary writes `"simd_available": false` and exits 0 — the scalar-only
//! CI leg still gets its artifact.
//!
//! Writes `BENCH_simd.json`.

use bsoap_bench::{measure, measure_batched, Timing};
use bsoap_chunks::{ChunkConfig, ChunkStore};
use bsoap_kernels::{detected_level, KernelPolicy, SimdLevel};
use bsoap_xml::escape_text_into_with;

/// 2 KiB of mostly-clean text with a sprinkle of escapables — the shape of
/// real payload strings, where long clean runs are what the scanner earns
/// its keep on.
fn escape_corpus() -> String {
    let mut s = String::new();
    while s.len() < 2048 {
        s.push_str("The quick brown fox jumps over the lazy dog 0123456789 ");
        if s.len().is_multiple_of(5) {
            s.push('&');
        }
        if s.len().is_multiple_of(7) {
            s.push('<');
        }
    }
    s
}

/// Deterministic xorshift so both itoa legs chew identical value streams.
/// Magnitudes are mixed (1–10 digits) the way real `xsd:int` payloads are —
/// a uniform `u32` stream would be ~10-digit values only.
fn int_stream(n: usize) -> Vec<i32> {
    let mut x = 0x9e37_79b9_u32;
    (0..n)
        .map(|i| {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            let modulus = 10u64.pow((i % 10) as u32 + 1);
            (x as u64 % modulus) as i32 * if i % 3 == 0 { -1 } else { 1 }
        })
        .collect()
}

/// Gap sets in the shape the coalesced pass sees after a storm: one small
/// gap per grown field, a field every ~24 bytes.
fn storm_gaps(chunk_len: usize) -> Vec<(usize, usize)> {
    (1..chunk_len / 24).map(|i| (i * 24, 3)).collect()
}

struct Pair {
    scalar_ns: f64,
    simd_ns: f64,
}

impl Pair {
    fn speedup(&self) -> f64 {
        self.scalar_ns / self.simd_ns
    }

    fn json(&self, name: &str) -> String {
        format!(
            "\"{name}\": {{\"scalar_ns\": {:.2}, \"simd_ns\": {:.2}, \"speedup\": {:.3}}}",
            self.scalar_ns,
            self.simd_ns,
            self.speedup()
        )
    }

    fn print(&self, name: &str) {
        println!(
            "  {name:<13} scalar {:>9.2} ns   simd {:>9.2} ns   speedup {:>6.2}x",
            self.scalar_ns,
            self.simd_ns,
            self.speedup()
        );
    }
}

const ROUNDS: usize = 5;

/// Interleave the two sides of a kernel pair across rounds (`run(false)` =
/// scalar, `run(true)` = simd); keep each side's fastest round. `per_call`
/// divides a round's min down to ns per kernel call.
fn duel(per_call: f64, mut run: impl FnMut(bool) -> Timing) -> Pair {
    let mut best_s = f64::INFINITY;
    let mut best_v = f64::INFINITY;
    for _ in 0..ROUNDS {
        best_s = best_s.min(run(false).min.as_secs_f64());
        best_v = best_v.min(run(true).min.as_secs_f64());
    }
    Pair {
        scalar_ns: best_s * 1e9 / per_call,
        simd_ns: best_v * 1e9 / per_call,
    }
}

fn escape_leg(reps: usize) -> Pair {
    let text = escape_corpus();
    const INNER: usize = 64;
    let mut out = Vec::with_capacity(4096);
    duel(INNER as f64, |wide| {
        let policy = if wide {
            KernelPolicy::Auto
        } else {
            KernelPolicy::Scalar
        };
        measure(2, reps, || {
            for _ in 0..INNER {
                out.clear();
                escape_text_into_with(&mut out, std::hint::black_box(&text), policy);
            }
            std::hint::black_box(out.len());
        })
    })
}

fn itoa_leg(reps: usize) -> Pair {
    // A stuffed in-width rewrite: write the digits, then pad the rest of an
    // 11-char `xsd:int` field — exactly what a tier-2 overwrite does.
    let values = int_stream(4096);
    let mut field = [0u8; 11];
    let scalar = |field: &mut [u8; 11], v: i32| {
        let n = bsoap_convert::write_i32(field, v);
        bsoap_convert::widths::pad_spaces(&mut field[n..]);
        n
    };
    let simd = |field: &mut [u8; 11], v: i32| {
        let n = bsoap_convert::write_i32_branchless(field, v);
        bsoap_convert::pad_spaces_wide(&mut field[n..]);
        n
    };
    duel(values.len() as f64, |wide| {
        measure(2, reps, || {
            // One checksum per pass keeps the dead-code eliminator honest
            // without a per-value black_box round trip inflating both sides.
            let mut acc = 0usize;
            for &v in &values {
                let n = if wide {
                    simd(&mut field, v)
                } else {
                    scalar(&mut field, v)
                };
                acc = acc.wrapping_add(n).wrapping_add(field[0] as usize);
            }
            std::hint::black_box(acc);
        })
    })
}

fn shift_leg(reps: usize) -> Pair {
    // One coalesced pass over a nearly-full 32 KiB chunk with a gap every
    // 24 bytes — the post-storm shape where segments are short enough that
    // the ≤32-byte wide moves matter.
    let payload: Vec<u8> = (0..28 * 1024).map(|i| (i % 251) as u8).collect();
    let gaps = storm_gaps(payload.len());
    let setup = || {
        let mut store = ChunkStore::new(ChunkConfig::k32());
        store.append_region(&payload);
        store
    };
    duel(1.0, |wide| {
        let policy = if wide {
            KernelPolicy::Auto
        } else {
            KernelPolicy::Scalar
        };
        measure_batched(1, reps, setup, |mut store| {
            let moved = store.open_gaps_right_with(0, std::hint::black_box(&gaps), policy);
            std::hint::black_box(moved);
        })
    })
}

fn main() {
    let mut reps = 30usize;
    let mut out = "BENCH_simd.json".to_owned();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut next = |what: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {what}");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--reps" => reps = next("--reps").parse().expect("bad --reps"),
            "--out" => out = next("--out"),
            "--help" | "-h" => {
                println!("usage: simd_kernels [--reps R] [--out FILE]");
                return;
            }
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
    }

    let level = detected_level();
    // Honor BSOAP_KERNEL=scalar through the engine's own resolution: the
    // simd leg would silently run scalar code and report 1.0x.
    let auto_runs_simd = bsoap_kernels::resolve(KernelPolicy::Auto).is_simd();
    if level == SimdLevel::None || !auto_runs_simd {
        let why = if level == SimdLevel::None {
            "no SIMD level detected on this host"
        } else {
            "BSOAP_KERNEL=scalar forces scalar kernels"
        };
        println!("simd kernels: skipped — {why}");
        let json = format!(
            "{{\n  \"benchmark\": \"simd_kernels\",\n  \"simd_available\": false,\n  \
             \"skip_reason\": \"{why}\"\n}}\n"
        );
        if let Err(e) = std::fs::write(&out, &json) {
            eprintln!("cannot write {out}: {e}");
            std::process::exit(1);
        }
        println!("wrote {out}");
        return;
    }

    let escape = escape_leg(reps);
    let itoa = itoa_leg(reps);
    let shift = shift_leg(reps.min(10));

    println!("simd kernels: level {level:?}, {reps} reps, best of {ROUNDS} rounds");
    escape.print("escape_scan");
    itoa.print("stuffed_itoa");
    shift.print("gap_shift");

    let json = format!(
        "{{\n  \"benchmark\": \"simd_kernels\",\n  \"simd_available\": true,\n  \
         \"level\": \"{level:?}\",\n  \"reps\": {reps},\n  {},\n  {},\n  {}\n}}\n",
        escape.json("escape_scan"),
        itoa.json("stuffed_itoa"),
        shift.json("gap_shift"),
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
        escape.speedup() >= 1.5,
        "SIMD escape scan under 1.5x scalar",
    );
    check(
        itoa.speedup() >= 1.5,
        "branchless stuffed itoa under 1.5x scalar",
    );
    if failed {
        std::process::exit(1);
    }
    println!("all simd-kernel assertions passed");
}
