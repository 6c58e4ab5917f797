//! Microbenchmarks of the conversion substrate — the routines the paper
//! identifies as "90% of end-to-end time" (§2). Grouped by magnitude
//! class because the exact-digit `dtoa` cost varies with the decimal
//! exponent (documented in `bsoap-convert`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn configure() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600))
}

const DTOA_CLASSES: &[(&str, f64)] = &[
    ("small_integer", 7.0),
    ("plain_decimal", 1234.5678),
    ("seventeen_digits", 12.345678901234567),
    ("large_exponent_pos", 1.2345678912345678e300),
    ("large_exponent_neg", -1.6054609345651112e-109),
    ("subnormal", -1.2345678912345594e-308),
];

fn dtoa_by_magnitude(c: &mut Criterion) {
    let mut group = c.benchmark_group("dtoa");
    let mut buf = [0u8; bsoap_convert::DOUBLE_MAX_WIDTH];
    for &(label, v) in DTOA_CLASSES {
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| bsoap_convert::write_f64(&mut buf, std::hint::black_box(v)))
        });
    }
    group.finish();
}

/// Fast (Grisu3) vs exact (Dragon) kernel on the same magnitude classes —
/// both through the `FloatFormatter` dispatch the engine uses, so the
/// comparison includes dispatch cost. The acceptance bar for the fast
/// kernel is ≥ 5× on `plain_decimal` and `seventeen_digits`.
fn dtoa_fast_vs_exact(c: &mut Criterion) {
    let mut group = c.benchmark_group("dtoa_kernel");
    let mut buf = [0u8; bsoap_convert::DOUBLE_MAX_WIDTH];
    for &(label, v) in DTOA_CLASSES {
        group.bench_function(BenchmarkId::new("exact", label), |b| {
            b.iter(|| {
                bsoap_convert::FloatFormatter::Exact2004
                    .write_f64(&mut buf, std::hint::black_box(v))
            })
        });
        group.bench_function(BenchmarkId::new("fast", label), |b| {
            b.iter(|| {
                bsoap_convert::FloatFormatter::Fast.write_f64(&mut buf, std::hint::black_box(v))
            })
        });
    }
    group.finish();
}

fn itoa_bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("itoa");
    let mut buf = [0u8; 20];
    for &(label, v) in &[
        ("one_digit", 7i32),
        ("five_digits", 13902),
        ("eleven_chars", -2_000_000_000),
    ] {
        group.bench_function(BenchmarkId::new("scalar", label), |b| {
            b.iter(|| bsoap_convert::write_i32(&mut buf, std::hint::black_box(v)))
        });
        group.bench_function(BenchmarkId::new("branchless", label), |b| {
            b.iter(|| bsoap_convert::write_i32_branchless(&mut buf, std::hint::black_box(v)))
        });
    }
    group.bench_function("i64_twenty_chars", |b| {
        b.iter(|| bsoap_convert::write_i64(&mut buf, std::hint::black_box(i64::MIN + 1)))
    });
    group.bench_function("i64_twenty_chars_branchless", |b| {
        b.iter(|| bsoap_convert::write_i64_branchless(&mut buf, std::hint::black_box(i64::MIN + 1)))
    });
    group.finish();
}

fn parse_bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("parse");
    for &(label, text) in &[
        ("int", "-13902".as_bytes()),
        ("double_plain", b"1234.5678".as_slice()),
        ("double_exp", b"-1.6054609345651112E-109".as_slice()),
    ] {
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| match label {
                "int" => {
                    bsoap_convert::parse::parse_i32(std::hint::black_box(text)).unwrap() as f64
                }
                _ => bsoap_convert::parse::parse_f64(std::hint::black_box(text)).unwrap(),
            })
        });
    }
    group.finish();
}

fn escape_bench(c: &mut Criterion) {
    use bsoap_core::KernelPolicy;
    let mut group = c.benchmark_group("xml_escape");
    let clean = "a plain string without any special characters at all";
    let dirty = "x < y && y > z \"quoted\" 'apos'";
    let mut out = Vec::with_capacity(128);
    for &(label, text) in &[("text_clean", clean), ("text_dirty", dirty)] {
        for &(kernel, policy) in &[
            ("scalar", KernelPolicy::Scalar),
            ("simd", KernelPolicy::Auto),
        ] {
            group.bench_function(BenchmarkId::new(kernel, label), |b| {
                b.iter(|| {
                    out.clear();
                    bsoap_xml::escape_text_into_with(&mut out, std::hint::black_box(text), policy);
                    out.len()
                })
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = configure();
    targets = dtoa_by_magnitude, dtoa_fast_vs_exact, itoa_bench, parse_bench, escape_bench
}
criterion_main!(benches);
