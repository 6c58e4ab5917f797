//! The fixed double corpus the exact kernel's output is pinned on, shared
//! by `exact_kernel_pin.rs` and the root `alloc_budget` suite.
//!
//! Deterministic and independent of the kernels it feeds: every value is
//! built from integer arithmetic, exact power-of-two scaling, or std's
//! correctly rounded parser.

/// The corpus, in a fixed order. Both signs of every family except the raw
/// bit patterns, which carry their own sign bit (and NaN / infinity
/// payloads).
pub fn corpus() -> Vec<f64> {
    let mut out = lcg_bit_patterns(1 << 20);
    let mut signed = Vec::new();
    signed.extend((-1074..=1023).map(pow2));
    signed.extend((-308..=308).map(|k| format!("1e{k}").parse::<f64>().unwrap()));
    signed.extend(subnormal_sweep());
    signed.extend(pool_style(4096));
    signed.extend(half_ties());
    for v in signed {
        out.push(v);
        out.push(-v);
    }
    out
}

/// `n` raw bit patterns from Knuth's MMIX LCG, every one kept (NaNs and
/// infinities included).
fn lcg_bit_patterns(n: usize) -> Vec<f64> {
    let mut state = 0x243F_6A88_85A3_08D3u64;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            f64::from_bits(state)
        })
        .collect()
}

/// `2^k` for `k ∈ [-1074, 1023]`, built from its bit pattern.
fn pow2(k: i32) -> f64 {
    if k >= -1022 {
        f64::from_bits(((k + 1023) as u64) << 52)
    } else {
        f64::from_bits(1u64 << (k + 1074))
    }
}

/// The lowest and highest 1 024 subnormals and 4 096 spread across the
/// range between.
fn subnormal_sweep() -> Vec<f64> {
    const TOP: u64 = 1 << 52;
    let low = 1..=1024u64;
    let high = TOP - 1024..TOP;
    let spread = (0..4096u64).map(|i| i * (TOP / 4096) + 0x1_2345);
    low.chain(high).chain(spread).map(f64::from_bits).collect()
}

/// `n` doubles of 15 significant digits with non-zero first and last
/// digits, drawn the way the benchmark's value pool draws them: a 15-digit
/// integer mantissa over `1e14`, both exact doubles, so the quotient is the
/// correctly rounded decimal.
fn pool_style(n: usize) -> Vec<f64> {
    let mut state = 1u64 ^ 0x9E37_79B9_7F4A_7C15;
    let mut next_u32 = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 32) as u32
    };
    let mut below = move |n: u64| (next_u32() as u64 * n) >> 32;
    (0..n)
        .map(|_| {
            let mut mantissa = 1 + below(9);
            for _ in 0..13 {
                mantissa = mantissa * 10 + below(10);
            }
            mantissa = mantissa * 10 + 1 + below(9);
            mantissa as f64 / 1e14
        })
        .collect()
}

/// Exact half-way ties: `m × 2^-k` with odd `m` is exactly the decimal
/// `m × 5^k × 10^-k`, which ends in 5, so rounding it to one digit fewer
/// lands exactly half-way. Here `m × 5^k` has 16 to 18 digits; at 18 that
/// is the 17-digit rounding, where the kernel breaks the tie to even
/// (`m = 1, k = 25`: `2^-25 = 2.98023223876953125E-8` prints as
/// `2.9802322387695312E-8`, where std's shortest `{:e}` prints `…313`).
fn half_ties() -> Vec<f64> {
    let mut out = Vec::new();
    for k in 1..=25u32 {
        let scale = 5u128.pow(k);
        for digits in 16..=18u32 {
            let lo = 10u128.pow(digits - 1).div_ceil(scale);
            let hi = (10u128.pow(digits) / scale).min(1 << 53);
            if lo >= hi {
                continue;
            }
            for j in 0..32u128 {
                let m = (lo + (hi - lo) * j / 32) | 1;
                if m < hi {
                    out.push(m as f64 * pow2(-(k as i32)));
                }
            }
        }
    }
    out
}
