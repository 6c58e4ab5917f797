//! Fast-path `f64` → ASCII conversion: a Grisu3 kernel with exact fallback.
//!
//! ## Why a second kernel
//!
//! [`crate::dtoa`] deliberately reproduces the paper's 2004-era conversion
//! cost model: an exact big-integer Dragon scheme with reparse-verified
//! rounding, ~0.5–3 µs per double. That is the right default for figure
//! reproduction, but the ROADMAP's north star is "as fast as the hardware
//! allows". This module adds [`write_f64_fast`]: Loitsch's Grisu3
//! algorithm — pure 64/128-bit integer arithmetic against a precomputed
//! table of normalized powers of ten, no big-integer work on the hot path.
//! Neither kernel allocates: the exact one works on stack buffers too.
//!
//! ## Algorithm
//!
//! A finite positive double `v = m × 2^e` is normalized to a `DiyFp`
//! (64-bit significand, MSB set) together with its two rounding boundaries
//! `m⁻`/`m⁺` (any decimal strictly between them parses back to `v`). All
//! three are scaled by a cached power of ten chosen so the product's binary
//! exponent lands in `[ALPHA, GAMMA]`, which makes digit extraction a
//! sequence of shifts and single-digit divisions. Digits are generated from
//! the upper boundary until the remainder provably lies inside the safe
//! interval; a final weeding step moves the last digit toward `v` until it
//! is the *closest* shortest representation.
//!
//! Because the cached power and the two 128-bit multiplications each carry
//! ≤ ½ ulp of error, the interval is tracked conservatively (±1 unit in the
//! last place). When the digits cannot be *proven* shortest-and-closest —
//! about 0.5% of random inputs, including all exact half-ulp ties — Grisu3
//! reports failure and [`write_f64_fast`] falls back to the exact Dragon
//! path. The fallback preserves the kernel's contract: output is
//! **byte-identical** to [`crate::dtoa::write_f64`] on every input
//! (property-tested over random bit patterns; see `tests/prop_convert.rs`).
//!
//! ## The power table
//!
//! Grisu needs normalized 64-bit approximations of `10^k` for
//! `k ∈ [-348, 340]` in steps of 8. Rather than embedding 87 magic
//! constants, the table is computed once at first use (`OnceLock`) with a
//! small exact integer routine: positive powers by repeated multiplication,
//! negative powers by shift-subtract long division of `2^n` — both
//! correctly rounded to 64 bits, which is exactly the ≤ ½ ulp contract the
//! error analysis assumes. Init costs ~1 ms once per process; the hot path
//! never touches it again.

use crate::dtoa;
use std::sync::OnceLock;

/// Selects the `f64` → ASCII kernel used by a serialization engine.
///
/// Both kernels emit identical bytes (shortest round-trip `xsd:double`
/// lexical form); they differ only in cost. `Exact2004` is the paper's
/// measured cost model; `Fast` is the hardware-speed Grisu3 kernel.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum FloatFormatter {
    /// Exact Dragon-style big-integer conversion with reparse-verified
    /// rounding, on stack buffers (~0.55 µs for a 15-digit value, ~3 µs
    /// for a random bit pattern; no heap) — the 2004-era
    /// `sprintf("%.17g")` cost model the paper's figures assume.
    Exact2004,
    /// Grisu3 table-driven conversion with exact fallback (~tens of ns).
    #[default]
    Fast,
}

impl FloatFormatter {
    /// Write `v` in shortest round-trip `xsd:double` form with this
    /// kernel; returns bytes written. `buf` must be ≥ [`dtoa::MAX_LEN`].
    #[inline]
    pub fn write_f64(self, buf: &mut [u8], v: f64) -> usize {
        match self {
            FloatFormatter::Exact2004 => dtoa::write_f64(buf, v),
            FloatFormatter::Fast => write_f64_fast(buf, v),
        }
    }
}

/// Write `v` in shortest round-trip `xsd:double` form; returns bytes
/// written. Byte-identical to [`crate::dtoa::write_f64`]; ~8× faster on
/// 15-digit values and ~24× on random bit patterns.
///
/// `buf` must be at least [`dtoa::MAX_LEN`] (24) bytes.
pub fn write_f64_fast(buf: &mut [u8], v: f64) -> usize {
    if let Some(n) = dtoa::write_fixed_forms(buf, v) {
        return n;
    }
    let neg = v < 0.0;
    let pos = v.abs();
    let mut digits = [0u8; 20];
    match grisu3_shortest(pos, &mut digits) {
        Some((len, k)) => dtoa::format_parts(buf, neg, &digits[..len], k),
        None => {
            // Rare uncertain case (~0.5%): exact Dragon fallback.
            let d = dtoa::shortest_digits_abs(pos);
            dtoa::format_parts(buf, neg, d.digits(), d.k)
        }
    }
}

/// Format `v` into a fresh `String` (convenience wrapper over
/// [`write_f64_fast`]).
pub fn format_f64_fast(v: f64) -> String {
    let mut buf = [0u8; dtoa::MAX_LEN];
    let n = write_f64_fast(&mut buf, v);
    std::str::from_utf8(&buf[..n])
        .expect("the writer emits ASCII")
        .to_owned()
}

// ---------------------------------------------------------------------
// DiyFp: the "do-it-yourself floating point" of Loitsch's paper.
// ---------------------------------------------------------------------

/// Unnormalized binary float `f × 2^e` with a full 64-bit significand.
#[derive(Clone, Copy, Debug)]
struct DiyFp {
    f: u64,
    e: i32,
}

impl DiyFp {
    /// Round-to-nearest product keeping the top 64 bits. Cannot overflow:
    /// `(2^64−1)² < 2^128 − 2^64`, so the rounded high half stays < 2^64.
    #[inline]
    fn mul(self, rhs: DiyFp) -> DiyFp {
        let p = self.f as u128 * rhs.f as u128;
        let f = ((p >> 64) as u64) + (((p >> 63) & 1) as u64);
        DiyFp {
            f,
            e: self.e + rhs.e + 64,
        }
    }
}

/// Normalize `(m, e)` so the significand's MSB is set.
#[inline]
fn normalize(m: u64, e: i32) -> DiyFp {
    debug_assert!(m != 0);
    let shift = m.leading_zeros() as i32;
    DiyFp {
        f: m << shift,
        e: e - shift,
    }
}

/// The rounding boundaries of `v = m × 2^e`, both normalized to the same
/// exponent (which equals `normalize(m, e).e`).
///
/// The lower boundary is closer when `m` is a power of two (the binade
/// below has half the spacing) — except at the smallest exponent, where
/// subnormal spacing continues unchanged.
fn normalized_boundaries(m: u64, e: i32) -> (DiyFp, DiyFp) {
    let plus_raw = DiyFp {
        f: (m << 1) + 1,
        e: e - 1,
    };
    let shift = plus_raw.f.leading_zeros() as i32;
    let plus = DiyFp {
        f: plus_raw.f << shift,
        e: plus_raw.e - shift,
    };
    let (mf, me) = if m == (1u64 << 52) && e > -1074 {
        ((m << 2) - 1, e - 2)
    } else {
        ((m << 1) - 1, e - 1)
    };
    let minus = DiyFp {
        f: mf << (me - plus.e),
        e: plus.e,
    };
    (minus, plus)
}

// ---------------------------------------------------------------------
// Cached powers of ten.
// ---------------------------------------------------------------------

/// Target window for the scaled exponent: with `e(w·10^k) ∈ [ALPHA, GAMMA]`
/// the integral part of the scaled value fits a u32 and fractional digit
/// extraction is a shift. Window width 28 > 8·log₂10 ≈ 26.6, so a table
/// step of 8 decimal exponents always has an entry inside the window.
const ALPHA: i32 = -60;
/// Upper end of the scaled-exponent window.
const GAMMA: i32 = -32;

const CACHE_MIN_K: i32 = -348;
const CACHE_STEP: i32 = 8;
const CACHE_ENTRIES: usize = 87; // 10^-348 ..= 10^340

/// One normalized power of ten: `10^k ≈ f × 2^e`, `f ∈ [2^63, 2^64)`,
/// correctly rounded (error ≤ ½ ulp — the bound the algorithm assumes).
struct CachedPow {
    f: u64,
    e: i32,
    k: i32,
}

static CACHED_POWS: OnceLock<Vec<CachedPow>> = OnceLock::new();

fn cached_pows() -> &'static [CachedPow] {
    CACHED_POWS.get_or_init(|| {
        (0..CACHE_ENTRIES)
            .map(|i| compute_pow10(CACHE_MIN_K + i as i32 * CACHE_STEP))
            .collect()
    })
}

/// `log10(2)` — used only to pick a table index, never for digit values.
const LOG10_2: f64 = std::f64::consts::LOG10_2;

/// Table entry for scaling a `DiyFp` with exponent `e` into the window:
/// the smallest grid `k` with `e(10^k) + e + 64 ≥ ALPHA`.
fn cached_power_for_exponent(e: i32) -> &'static CachedPow {
    let k_min = ((ALPHA - e - 1) as f64 * LOG10_2).ceil() as i32;
    let idx = (k_min - CACHE_MIN_K + CACHE_STEP - 1) / CACHE_STEP;
    &cached_pows()[(idx.max(0) as usize).min(CACHE_ENTRIES - 1)]
}

/// Exact, correctly rounded normalized approximation of `10^k`.
///
/// Init-only code (runs once per process): positive powers via repeated
/// small multiplication, negative powers via bit-by-bit long division of a
/// power of two — both rounded half-to-even from a 65-bit quotient plus a
/// sticky bit.
fn compute_pow10(k: i32) -> CachedPow {
    if k >= 0 {
        let d = pow10_limbs(k as u32);
        let m = bit_len(&d);
        if m <= 64 {
            // Small powers are exactly representable: shift into place.
            let v = d.iter().rev().fold(0u64, |acc, &l| (acc << 63) << 1 | l);
            CachedPow {
                f: v << (64 - m),
                e: m as i32 - 64,
                k,
            }
        } else {
            let (top65, sticky) = top_bits_65(&d, m);
            let (f, carry) = round_65_to_64(top65, sticky);
            CachedPow {
                f,
                e: m as i32 - 64 + carry,
                k,
            }
        }
    } else {
        // 10^k = 2^(m+63) / 10^|k| × 2^-(m+63) with 2^(m-1) ≤ 10^|k| < 2^m,
        // so the 65-bit quotient of 2^(m+64) / 10^|k| normalizes exactly.
        let d = pow10_limbs((-k) as u32);
        let m = bit_len(&d);
        let (q, rem_nonzero) = div_pow2_by(&d, m as u32 + 64);
        let (f, carry) = round_65_to_64(q, rem_nonzero);
        CachedPow {
            f,
            e: -(m as i32 + 63) + carry,
            k,
        }
    }
}

/// Round a 65-bit value to 64 bits, half-to-even against `sticky`.
/// Returns the significand and an exponent carry (1 when rounding
/// overflowed to 2^64).
fn round_65_to_64(x: u128, sticky: bool) -> (u64, i32) {
    debug_assert!(x >> 64 == 1, "expected exactly 65 bits");
    let mut f = x >> 1;
    if (x & 1) != 0 && (sticky || (f & 1) != 0) {
        f += 1;
    }
    if f >> 64 != 0 {
        (1u64 << 63, 1)
    } else {
        (f as u64, 0)
    }
}

// Little-endian u64-limb helpers for the init-time computation.

fn pow10_limbs(k: u32) -> Vec<u64> {
    let mut v = vec![1u64];
    for _ in 0..k {
        let mut carry: u128 = 0;
        for limb in v.iter_mut() {
            let p = *limb as u128 * 10 + carry;
            *limb = p as u64;
            carry = p >> 64;
        }
        if carry != 0 {
            v.push(carry as u64);
        }
    }
    v
}

fn bit_len(d: &[u64]) -> usize {
    let top = *d.last().expect("non-zero value");
    (d.len() - 1) * 64 + (64 - top.leading_zeros() as usize)
}

/// Bits `[m-65, m)` of `d` (MSB-first) plus a sticky bit for everything
/// below. Requires `bit_len(d) == m > 64`.
fn top_bits_65(d: &[u64], m: usize) -> (u128, bool) {
    let bit = |i: usize| (d[i / 64] >> (i % 64)) & 1;
    let mut top: u128 = 0;
    for j in 0..65 {
        top = (top << 1) | bit(m - 1 - j) as u128;
    }
    let cutoff = m - 65;
    let full = cutoff / 64;
    let mut sticky = d[..full].iter().any(|&l| l != 0);
    if !cutoff.is_multiple_of(64) {
        sticky |= d[full] & ((1u64 << (cutoff % 64)) - 1) != 0;
    }
    (top, sticky)
}

/// `floor(2^nbits / d)` by shift-subtract long division, plus whether the
/// remainder is non-zero. The quotient must fit in 128 bits (callers pass
/// `nbits = bit_len(d) + 64`, giving a 65-bit quotient).
fn div_pow2_by(d: &[u64], nbits: u32) -> (u128, bool) {
    let mut rem = vec![0u64; d.len() + 1];
    rem[0] = 1; // the numerator's leading 1-bit, pre-consumed
    let mut q: u128 = 0;
    for _ in 0..nbits {
        // rem <<= 1
        let mut carry = 0u64;
        for limb in rem.iter_mut() {
            let new_carry = *limb >> 63;
            *limb = (*limb << 1) | carry;
            carry = new_carry;
        }
        debug_assert_eq!(carry, 0, "remainder overflow");
        q <<= 1;
        if cmp_limbs(&rem, d) != std::cmp::Ordering::Less {
            sub_limbs(&mut rem, d);
            q |= 1;
        }
    }
    (q, rem.iter().any(|&l| l != 0))
}

fn cmp_limbs(a: &[u64], b: &[u64]) -> std::cmp::Ordering {
    let limb = |s: &[u64], i: usize| s.get(i).copied().unwrap_or(0);
    for i in (0..a.len().max(b.len())).rev() {
        match limb(a, i).cmp(&limb(b, i)) {
            std::cmp::Ordering::Equal => continue,
            other => return other,
        }
    }
    std::cmp::Ordering::Equal
}

fn sub_limbs(a: &mut [u64], b: &[u64]) {
    let mut borrow = 0u64;
    for (i, limb) in a.iter_mut().enumerate() {
        let rhs = b.get(i).copied().unwrap_or(0) as u128 + borrow as u128;
        let lhs = *limb as u128;
        if lhs >= rhs {
            *limb = (lhs - rhs) as u64;
            borrow = 0;
        } else {
            *limb = ((1u128 << 64) + lhs - rhs) as u64;
            borrow = 1;
        }
    }
    debug_assert_eq!(borrow, 0, "subtraction underflow");
}

// ---------------------------------------------------------------------
// Digit generation (Grisu3 proper).
// ---------------------------------------------------------------------

/// Shortest correctly-rounded digits of finite positive `pos`.
///
/// On success returns `(len, K)` with digits in `out[..len]` (no leading or
/// trailing zeros) and `pos = 0.digits × 10^K` — the convention
/// [`dtoa::format_parts`] renders. Returns `None` when shortest-and-closest
/// cannot be proven (caller falls back to the exact path).
fn grisu3_shortest(pos: f64, out: &mut [u8; 20]) -> Option<(usize, i32)> {
    let (m, e) = dtoa::decompose(pos);
    let w = normalize(m, e);
    let (w_minus, w_plus) = normalized_boundaries(m, e);
    debug_assert_eq!(w.e, w_plus.e);

    let c = cached_power_for_exponent(w_plus.e);
    let cp = DiyFp { f: c.f, e: c.e };
    let scaled_e = c.e + w_plus.e + 64;
    if !(ALPHA..=GAMMA).contains(&scaled_e) {
        return None; // table-selection edge: let the exact path decide
    }
    let scaled_w = w.mul(cp);
    let low = w_minus.mul(cp);
    let high = w_plus.mul(cp);

    let (len, kappa) = digit_gen(low, scaled_w, high, out)?;
    // digits × 10^kappa ≈ pos × 10^c.k  ⇒  pos = 0.digits × 10^K.
    Some((len, kappa - c.k + len as i32))
}

/// Largest `(10^x, x)` with `10^x ≤ n` (`n ≥ 1`).
fn biggest_pow10(n: u32) -> (u32, i32) {
    debug_assert!(n >= 1);
    const POW10: [u32; 10] = [
        1,
        10,
        100,
        1000,
        10_000,
        100_000,
        1_000_000,
        10_000_000,
        100_000_000,
        1_000_000_000,
    ];
    let mut x = 9;
    while POW10[x] > n {
        x -= 1;
    }
    (POW10[x], x as i32)
}

/// Generate digits of `too_high = high + 1unit` until the remainder lies
/// inside the safe interval, then weed toward `w`. All three inputs share
/// one exponent in `[ALPHA, GAMMA]`.
fn digit_gen(low: DiyFp, w: DiyFp, high: DiyFp, buf: &mut [u8; 20]) -> Option<(usize, i32)> {
    debug_assert!(low.e == w.e && w.e == high.e);
    debug_assert!((ALPHA..=GAMMA).contains(&w.e));
    let mut unit: u64 = 1;
    if high.f > u64::MAX - 1 {
        return None; // widening would wrap; vanishingly rare
    }
    let too_low_f = low.f - unit;
    let too_high_f = high.f + unit;
    let mut unsafe_f = too_high_f - too_low_f;
    let shift = (-w.e) as u32; // 32..=60
    let one_f = 1u64 << shift;
    let mut integrals = (too_high_f >> shift) as u32;
    let mut fractionals = too_high_f & (one_f - 1);
    let wp_w_f = too_high_f - w.f;

    let (mut divisor, div_exp) = biggest_pow10(integrals);
    let mut kappa = div_exp + 1;
    let mut len = 0usize;

    // Integral digits: single u32 divisions.
    while kappa > 0 {
        let digit = integrals / divisor;
        debug_assert!(digit < 10);
        buf[len] = b'0' + digit as u8;
        len += 1;
        integrals %= divisor;
        kappa -= 1;
        let rest = ((integrals as u64) << shift) + fractionals;
        if rest < unsafe_f {
            // `divisor << shift` cannot overflow: divisor ≤ integrals and
            // `integrals << shift ≤ too_high < 2^64`.
            let ok = round_weed(
                &mut buf[..len],
                wp_w_f,
                unsafe_f,
                rest,
                (divisor as u64) << shift,
                unit,
            );
            return ok.then_some((len, kappa));
        }
        divisor /= 10;
    }

    // Fractional digits: multiply the remainder (and the interval, in
    // lockstep) by 10 and shift the next digit out.
    loop {
        debug_assert!(fractionals < one_f);
        fractionals *= 10;
        unit *= 10;
        unsafe_f *= 10;
        let digit = (fractionals >> shift) as u8;
        debug_assert!(digit < 10);
        if len >= buf.len() {
            return None; // defensive: cannot happen within the error bounds
        }
        buf[len] = b'0' + digit;
        len += 1;
        fractionals &= one_f - 1;
        kappa -= 1;
        if fractionals < unsafe_f {
            // `wp_w_f * unit ≤ unsafe_f < 2^64`: no overflow.
            let ok = round_weed(
                &mut buf[..len],
                wp_w_f * unit,
                unsafe_f,
                fractionals,
                one_f,
                unit,
            );
            return ok.then_some((len, kappa));
        }
    }
}

/// Move the last generated digit toward `w` while staying inside the safe
/// interval, then certify the result is provably the closest shortest
/// representation (Loitsch's `round_weed`).
///
/// `wp_w` is the distance `too_high − w`, `delta` the unsafe-interval
/// width, `rest` the current distance `too_high − digits`, `ten_kappa` the
/// weight of the last digit, `unit` the accumulated error unit. All five
/// share one scale.
fn round_weed(
    buf: &mut [u8],
    wp_w: u64,
    delta: u64,
    mut rest: u64,
    ten_kappa: u64,
    unit: u64,
) -> bool {
    let small = wp_w - unit; // distance that is certainly past w
    let big = wp_w + unit; // distance that may still be short of w
    while rest < small
        && delta - rest >= ten_kappa
        && (rest + ten_kappa < small || small - rest >= rest + ten_kappa - small)
    {
        let last = buf.last_mut().expect("at least one digit");
        if *last == b'0' {
            return false; // would borrow across digits: give up, fall back
        }
        *last -= 1;
        rest += ten_kappa;
    }
    // If the next decrement would be just as defensible, the choice is
    // ambiguous within the error margin: fail and let the exact path pick.
    if rest < big
        && delta - rest >= ten_kappa
        && (rest + ten_kappa < big || big - rest > rest + ten_kappa - big)
    {
        return false;
    }
    2 * unit <= rest && rest <= delta.saturating_sub(4 * unit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtoa::format_f64;

    #[test]
    fn cached_powers_are_normalized_and_accurate() {
        for c in cached_pows() {
            assert!(c.f >= 1u64 << 63, "10^{} not normalized", c.k);
            // Compare against f64 arithmetic where it is exact enough.
            if (-300..=300).contains(&c.k) {
                let approx = c.f as f64 * (c.e as f64).exp2();
                let exact = 10f64.powi(c.k);
                let rel = ((approx - exact) / exact).abs();
                assert!(rel < 1e-14, "10^{}: rel err {rel}", c.k);
            }
        }
    }

    #[test]
    fn small_positive_powers_are_exact() {
        // 10^4 = 0x2710, 14 bits: f = 0x2710 << 50.
        let c = compute_pow10(4);
        assert_eq!(c.f, 0x2710u64 << 50);
        assert_eq!(c.e, -50);
    }

    #[test]
    fn window_selection_covers_full_f64_range() {
        // All normalized exponents a finite non-zero double can produce.
        for e in -1137..=960 {
            let c = cached_power_for_exponent(e);
            let scaled = c.e + e + 64;
            assert!(
                (ALPHA..=GAMMA).contains(&scaled),
                "e={e}: k={} gives scaled exponent {scaled}",
                c.k
            );
        }
    }

    #[test]
    #[allow(clippy::approx_constant, clippy::excessive_precision)] // literal corpus
    fn matches_exact_on_knowns() {
        for v in [
            0.1,
            0.3,
            1.0 / 3.0,
            3.14,
            1234.5678,
            12.345678901234567,
            1.5e300,
            2.5e-10,
            5e-324,
            f64::MAX,
            f64::MIN_POSITIVE,
            2.225_073_858_507_201e-308,
            9.881312916824931e-324,
            1e16,
            1e-5,
            123_456_789.123_456_79,
        ] {
            for s in [1.0, -1.0] {
                let v = v * s;
                assert_eq!(format_f64_fast(v), format_f64(v), "value {v:?}");
            }
        }
    }

    #[test]
    fn specials_match_exact() {
        assert_eq!(format_f64_fast(f64::NAN), "NaN");
        assert_eq!(format_f64_fast(f64::INFINITY), "INF");
        assert_eq!(format_f64_fast(f64::NEG_INFINITY), "-INF");
        assert_eq!(format_f64_fast(0.0), "0");
        assert_eq!(format_f64_fast(-0.0), "-0");
        assert_eq!(format_f64_fast(42.0), "42");
    }

    #[test]
    fn random_bit_patterns_match_exact() {
        // Dense differential sweep; the tests/prop_convert.rs property test
        // covers far more cases — this is the in-crate smoke version.
        let mut state = 0x5DEECE66Du64;
        let mut tested = 0;
        while tested < 20_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = f64::from_bits(state);
            if v.is_finite() {
                assert_eq!(
                    format_f64_fast(v),
                    format_f64(v),
                    "bits 0x{state:016X} value {v:?}"
                );
                tested += 1;
            }
        }
    }

    #[test]
    fn formatter_dispatch() {
        let mut a = [0u8; dtoa::MAX_LEN];
        let mut b = [0u8; dtoa::MAX_LEN];
        let v = 6.02214076e23;
        let na = FloatFormatter::Exact2004.write_f64(&mut a, v);
        let nb = FloatFormatter::Fast.write_f64(&mut b, v);
        assert_eq!(&a[..na], &b[..nb]);
        assert_eq!(FloatFormatter::default(), FloatFormatter::Fast);
    }
}
