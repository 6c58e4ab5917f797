//! `f64` → ASCII conversion: exact, shortest round-trip decimal output.
//!
//! ## Algorithm
//!
//! A finite positive double is `m × 2^e` (`m < 2^53`). Its *exact* decimal
//! digits are computed with the small big-integer in [`crate::bignum`]:
//!
//! * `e ≥ 0`: the value is the integer `m << e`,
//! * `e < 0`: `m × 2^e = (m × 5^|e|) × 10^e`, so the digits of `m × 5^|e|`
//!   are the value's digits with the decimal point shifted `|e|` places.
//!
//! The exact digit string is then rounded (half-to-even) to `p` significant
//! digits, and the smallest `p ∈ 1..=17` with a round-tripping `p`-digit
//! decimal is selected by binary search (17 significant digits always
//! round-trip an IEEE-754 double, so the search is well-founded; a final
//! verification step guards against any non-monotonicity). At each `p` the
//! nearest rounding is tried first, then its ulp neighbors — the rounding
//! interval of a power of two is asymmetric, so the shortest form is
//! occasionally *not* the nearest rounding (see `best_at_precision`).
//!
//! This is a Dragon-style fixed-point scheme rather than Grisu/Ryu: it
//! trades speed for unconditional exactness with no precomputed power
//! tables. That trade is deliberate — in the paper's setting the conversion
//! routine *is* the serialization bottleneck being optimized around, and a
//! ~microsecond conversion is faithful to the 2004-era `sprintf("%.17g")`
//! cost model while remaining provably correct (see the property tests).
//!
//! ## Lexical form
//!
//! Output follows the `xsd:double` lexical space: plain decimal for decimal
//! exponents in `[-3, 16]`, scientific (`dE±x`) otherwise, `INF` / `-INF` /
//! `NaN` for specials. Output length never exceeds
//! [`crate::widths::DOUBLE_MAX_WIDTH`] (24 bytes).

use crate::bignum::BigUint;

/// Upper bound on the bytes [`write_f64`] may produce.
pub const MAX_LEN: usize = crate::widths::DOUBLE_MAX_WIDTH;

/// Write `v` in shortest round-trip `xsd:double` form; returns bytes written.
///
/// `buf` must be at least [`MAX_LEN`] (24) bytes.
pub fn write_f64(buf: &mut [u8], v: f64) -> usize {
    if let Some(n) = write_fixed_forms(buf, v) {
        return n;
    }
    let neg = v < 0.0;
    let pos = v.abs();
    let (digits, k) = shortest_digits_abs(pos);
    format_parts(buf, neg, &digits, k)
}

/// Handle the lexical forms shared verbatim by the exact and fast kernels:
/// specials (`NaN`/`INF`/`-INF`), signed zero, and exact small integers
/// (which print via itoa and coincide byte-for-byte with the general path —
/// trailing zeros collapse into the same plain-integer form).
///
/// Returns `None` when general shortest-digit generation is required.
pub(crate) fn write_fixed_forms(buf: &mut [u8], v: f64) -> Option<usize> {
    if v.is_nan() {
        buf[..3].copy_from_slice(b"NaN");
        return Some(3);
    }
    if v.is_infinite() {
        return Some(if v > 0.0 {
            buf[..3].copy_from_slice(b"INF");
            3
        } else {
            buf[..4].copy_from_slice(b"-INF");
            4
        });
    }
    if v == 0.0 {
        return Some(if v.is_sign_negative() {
            buf[..2].copy_from_slice(b"-0");
            2
        } else {
            buf[0] = b'0';
            1
        });
    }

    let neg = v < 0.0;
    let pos = v.abs();
    if pos < 9_007_199_254_740_992.0 /* 2^53 */ && pos.trunc() == pos {
        let mut n = 0;
        if neg {
            buf[0] = b'-';
            n = 1;
        }
        return Some(n + crate::itoa::write_u64(&mut buf[n..], pos as u64));
    }
    None
}

/// Format `v` into a fresh `String` (convenience wrapper over [`write_f64`]).
pub fn format_f64(v: f64) -> String {
    let mut buf = [0u8; MAX_LEN];
    let n = write_f64(&mut buf, v);
    // The writer only emits ASCII.
    unsafe { std::str::from_utf8_unchecked(&buf[..n]) }.to_owned()
}

/// Shortest-digit decomposition of a finite non-zero `f64`.
///
/// Returns `(negative, digits, k)` where `digits` has no trailing zeros and
/// the value equals `±0.digits × 10^k`. Exposed so workload generators can
/// craft values of specific serialized lengths (the paper's intermediate
/// field-width experiments).
pub fn shortest_digits(v: f64) -> (bool, Vec<u8>, i32) {
    assert!(
        v.is_finite() && v != 0.0,
        "shortest_digits needs finite non-zero input"
    );
    let (digits, k) = shortest_digits_abs(v.abs());
    (v < 0.0, digits, k)
}

/// Exact decimal expansion of `|v|` rounded to the shortest round-tripping
/// digit count. Returns `(digits, k)` with the value `0.digits × 10^k`.
pub(crate) fn shortest_digits_abs(pos: f64) -> (Vec<u8>, i32) {
    let (m, e) = decompose(pos);

    // Exact decimal digits of the value (with the decimal exponent k such
    // that value = 0.DIGITS × 10^k).
    let mut big = BigUint::from_u64(m);
    let k: i32;
    if e >= 0 {
        big.shl_bits(e as u32);
        let exact = big.to_decimal_digits();
        k = exact.len() as i32;
        round_shortest(pos, exact, k)
    } else {
        big.mul_pow5((-e) as u32);
        let exact = big.to_decimal_digits();
        k = exact.len() as i32 + e;
        round_shortest(pos, exact, k)
    }
}

/// Split a finite positive double into `(mantissa, binary_exponent)` with
/// `value = m × 2^e`.
pub(crate) fn decompose(v: f64) -> (u64, i32) {
    let bits = v.to_bits();
    let exp_field = ((bits >> 52) & 0x7FF) as i32;
    let frac = bits & ((1u64 << 52) - 1);
    if exp_field == 0 {
        (frac, -1074) // subnormal
    } else {
        (frac | (1u64 << 52), exp_field - 1075)
    }
}

/// Given the exact digits of `pos`, find the shortest prefix rounding that
/// re-parses to `pos` exactly.
fn round_shortest(pos: f64, exact: Vec<u8>, k: i32) -> (Vec<u8>, i32) {
    debug_assert!(!exact.is_empty());
    // Binary search the smallest p in 1..=17 that round-trips. Monotonicity
    // holds in practice; the verification loop below repairs any exception.
    let mut lo = 1usize;
    let mut hi = 17usize.min(exact.len());
    if hi < 17 {
        // The exact expansion is itself ≤ 17 digits, which trivially
        // round-trips (it IS the value).
        // Still search below it for a shorter representation.
    } else {
        hi = 17;
    }
    while lo < hi {
        let mid = (lo + hi) / 2;
        if best_at_precision(pos, &exact, k, mid).is_some() {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let mut p = lo;
    loop {
        if let Some(best) = best_at_precision(pos, &exact, k, p) {
            return best;
        }
        p += 1;
        assert!(
            p <= 17,
            "no 17-digit rounding round-trips {pos:?} — impossible for IEEE-754"
        );
    }
}

/// The `p`-significant-digit decimal `pos` prints as, if any round-trips.
///
/// The nearest `p`-digit decimal (half-to-even against the exact tail) is
/// preferred. At a binade boundary the rounding interval is *asymmetric*
/// (the gap below a power of two is half the gap above), so the nearest
/// decimal can fall outside the interval while one of its
/// unit-in-the-last-place neighbors lies inside — e.g. `2^-1017` is
/// `7.1202363472230444…E-307` but its shortest form is the 16-digit
/// `7.120236347223045E-307`, one ulp *above* the nearest 16-digit
/// rounding. At most one neighbor can round-trip when the nearest fails
/// (the interval is contiguous and contains `pos`).
fn best_at_precision(pos: f64, exact: &[u8], k: i32, p: usize) -> Option<(Vec<u8>, i32)> {
    let (digits, kk) = rounded_prefix(exact, k, p);
    if reparses_to(pos, &digits, kk) {
        return Some((digits, kk));
    }
    ulp_neighbors(&digits, kk, p)
        .into_iter()
        .find(|(d, nk)| reparses_to(pos, d, *nk))
}

/// The decimals one unit-in-the-last-place (at `p` significant digits)
/// above and below `digits` (value `0.digits × 10^k`), trailing zeros
/// trimmed. The lower neighbor is omitted when it would be zero.
fn ulp_neighbors(digits: &[u8], k: i32, p: usize) -> Vec<(Vec<u8>, i32)> {
    let mut base = digits.to_vec();
    base.resize(p, b'0');
    let trim = |d: &mut Vec<u8>| {
        while d.last() == Some(&b'0') {
            d.pop();
        }
    };
    let mut out = Vec::with_capacity(2);

    let mut up = base.clone();
    let mut up_k = k;
    let mut i = p;
    loop {
        if i == 0 {
            // Carry out of the most significant digit: 999→1000.
            up.insert(0, b'1');
            up.truncate(p);
            up_k += 1;
            break;
        }
        i -= 1;
        if up[i] == b'9' {
            up[i] = b'0';
        } else {
            up[i] += 1;
            break;
        }
    }
    trim(&mut up);
    out.push((up, up_k));

    let mut down = base;
    let mut down_k = k;
    let mut i = p;
    while i > 0 {
        i -= 1;
        if down[i] == b'0' {
            down[i] = b'9';
        } else {
            down[i] -= 1;
            break;
        }
    }
    if down[0] == b'0' {
        // Borrow across the decade: 1000→0999, i.e. 999 one place lower.
        down.remove(0);
        down_k -= 1;
    }
    if down.iter().any(|&c| c != b'0') {
        trim(&mut down);
        out.push((down, down_k));
    }
    out
}

/// Round `exact` to `p` significant digits (half-to-even against the exact
/// tail) and trim trailing zeros. Returns the digits and adjusted exponent.
fn rounded_prefix(exact: &[u8], k: i32, p: usize) -> (Vec<u8>, i32) {
    let mut k = k;
    let mut digits: Vec<u8>;
    if exact.len() <= p {
        digits = exact.to_vec();
    } else {
        digits = exact[..p].to_vec();
        let next = exact[p];
        let tail_nonzero = exact[p + 1..].iter().any(|&d| d != b'0');
        let round_up = match next.cmp(&b'5') {
            std::cmp::Ordering::Greater => true,
            std::cmp::Ordering::Less => false,
            std::cmp::Ordering::Equal => tail_nonzero || (digits[p - 1] - b'0') % 2 == 1,
        };
        if round_up {
            let mut i = p;
            loop {
                if i == 0 {
                    // Carry out of the most significant digit: 999→1000.
                    digits.insert(0, b'1');
                    digits.truncate(p); // keep p significant digits
                    k += 1;
                    break;
                }
                i -= 1;
                if digits[i] == b'9' {
                    digits[i] = b'0';
                } else {
                    digits[i] += 1;
                    break;
                }
            }
        }
    }
    while digits.last() == Some(&b'0') {
        digits.pop();
    }
    debug_assert!(!digits.is_empty());
    (digits, k)
}

/// Check whether `0.digits × 10^k` re-parses to `pos` exactly.
fn reparses_to(pos: f64, digits: &[u8], k: i32) -> bool {
    // Reconstruct as DIGITSe(k - len) and parse with the (correctly
    // rounded) standard library parser.
    let mut s = String::with_capacity(digits.len() + 8);
    s.push_str(std::str::from_utf8(digits).expect("ASCII digits"));
    s.push('e');
    let exp10 = k - digits.len() as i32;
    s.push_str(&exp10.to_string());
    match s.parse::<f64>() {
        Ok(back) => back.to_bits() == pos.to_bits(),
        Err(_) => false,
    }
}

/// Render `(neg, digits, k)` — value `±0.digits × 10^k` — into `buf`.
pub(crate) fn format_parts(buf: &mut [u8], neg: bool, digits: &[u8], k: i32) -> usize {
    let n = digits.len();
    let mut pos = 0;
    if neg {
        buf[0] = b'-';
        pos = 1;
    }
    if (-3..=16).contains(&k) {
        if k <= 0 {
            // 0.000ddd
            buf[pos] = b'0';
            buf[pos + 1] = b'.';
            pos += 2;
            for _ in 0..(-k) {
                buf[pos] = b'0';
                pos += 1;
            }
            buf[pos..pos + n].copy_from_slice(digits);
            pos += n;
        } else if k as usize >= n {
            // Integer with trailing zeros: ddd000
            buf[pos..pos + n].copy_from_slice(digits);
            pos += n;
            for _ in 0..(k as usize - n) {
                buf[pos] = b'0';
                pos += 1;
            }
        } else {
            // dd.ddd
            let split = k as usize;
            buf[pos..pos + split].copy_from_slice(&digits[..split]);
            pos += split;
            buf[pos] = b'.';
            pos += 1;
            buf[pos..pos + (n - split)].copy_from_slice(&digits[split..]);
            pos += n - split;
        }
    } else {
        // Scientific: d.dddE±x with exponent k-1.
        buf[pos] = digits[0];
        pos += 1;
        if n > 1 {
            buf[pos] = b'.';
            pos += 1;
            buf[pos..pos + n - 1].copy_from_slice(&digits[1..]);
            pos += n - 1;
        }
        buf[pos] = b'E';
        pos += 1;
        pos += crate::itoa::write_i64(&mut buf[pos..], (k - 1) as i64);
    }
    debug_assert!(pos <= MAX_LEN, "dtoa exceeded MAX_LEN: {pos}");
    pos
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: f64) {
        let s = format_f64(v);
        assert!(s.len() <= MAX_LEN, "{s} exceeds {MAX_LEN} bytes");
        let back: f64 = s.parse().unwrap();
        assert_eq!(back.to_bits(), v.to_bits(), "value {v:?} formatted as {s}");
    }

    #[test]
    fn specials() {
        assert_eq!(format_f64(f64::NAN), "NaN");
        assert_eq!(format_f64(f64::INFINITY), "INF");
        assert_eq!(format_f64(f64::NEG_INFINITY), "-INF");
        assert_eq!(format_f64(0.0), "0");
        assert_eq!(format_f64(-0.0), "-0");
    }

    #[test]
    fn small_integers_one_char() {
        // The paper's minimum-width double is a single character.
        assert_eq!(format_f64(1.0), "1");
        assert_eq!(format_f64(9.0), "9");
        assert_eq!(format_f64(-1.0), "-1");
    }

    #[test]
    #[allow(clippy::approx_constant)] // 3.14 is a formatting case, not pi
    fn simple_decimals() {
        assert_eq!(format_f64(0.5), "0.5");
        assert_eq!(format_f64(3.14), "3.14");
        assert_eq!(format_f64(-3.14), "-3.14");
        assert_eq!(format_f64(0.001), "0.001");
        assert_eq!(format_f64(100.0), "100");
        assert_eq!(format_f64(1.5e300), "1.5E300");
        assert_eq!(format_f64(2.5e-10), "2.5E-10");
    }

    #[test]
    fn extreme_values_round_trip_within_width() {
        for v in [
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            5e-324, // smallest subnormal
            -5e-324,
            2.225_073_858_507_201e-308, // largest subnormal
            1.7976931348623157e308,
            0.1,
            1.0 / 3.0,
            std::f64::consts::PI,
            std::f64::consts::E,
            2f64.powi(53),
            2f64.powi(53) - 1.0,
            2f64.powi(53) + 2.0,
            1e15,
            1e16,
            1e17,
            123_456_789.123_456_79,
        ] {
            roundtrip(v);
        }
    }

    #[test]
    fn shortest_known_cases() {
        // 0.1 is famously 0.1000000000000000055511151231257827…; shortest is "0.1".
        assert_eq!(format_f64(0.1), "0.1");
        assert_eq!(format_f64(0.3), "0.3");
        // 1/3 needs 16 digits.
        assert_eq!(format_f64(1.0 / 3.0), "0.3333333333333333");
    }

    #[test]
    fn max_width_is_achievable_and_never_exceeded() {
        // Scan negative values with three-digit exponents for one whose
        // shortest form needs all 17 digits: sign + d.16 digits + E-3xx = 24.
        let mut found_24 = false;
        let mut state = 0x9E3779B97F4A7C15u64;
        for _ in 0..5000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Force sign bit on, pick exponent field in the subnormal/small
            // normal range so the decimal exponent has three digits.
            let bits = (state & 0x000F_FFFF_FFFF_FFFF) | (1u64 << 63) | (0x010u64 << 52);
            let v = f64::from_bits(bits);
            let s = format_f64(v);
            assert!(s.len() <= MAX_LEN, "{s}");
            if s.len() == MAX_LEN {
                found_24 = true;
            }
        }
        assert!(
            found_24,
            "no 24-char double found in sample — width bound untested"
        );
    }

    #[test]
    fn random_bit_patterns_round_trip() {
        // Cheap LCG over raw bit patterns; filters non-finite.
        let mut state = 0x243F6A8885A308D3u64;
        let mut tested = 0;
        while tested < 2000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = f64::from_bits(state);
            if v.is_finite() {
                roundtrip(v);
                tested += 1;
            }
        }
    }

    #[test]
    fn integral_fast_path_matches_general_path() {
        // The fast path must produce byte-identical output to the bignum path.
        for v in [1.0f64, 42.0, 100.0, 1e6, 123456.0, 9007199254740991.0] {
            let fast = format_f64(v);
            let (digits, k) = shortest_digits_abs(v);
            let mut buf = [0u8; MAX_LEN];
            let n = format_parts(&mut buf, false, &digits, k);
            assert_eq!(fast.as_bytes(), &buf[..n], "value {v}");
        }
    }

    #[test]
    fn exponent_form_thresholds() {
        // Plain decimal spans decimal exponents -3..=16 (values < 10^16);
        // 1e16 has k = 17 and switches to scientific.
        assert_eq!(format_f64(1e15), "1000000000000000");
        assert_eq!(format_f64(1e16), "1E16");
        assert_eq!(format_f64(1e-3), "0.001");
        assert_eq!(format_f64(1e-4), "0.0001"); // k = -3, still plain
        assert_eq!(format_f64(1e-5), "1E-5"); // k = -4, scientific
    }

    #[test]
    fn shortest_digits_exposed_form() {
        let (neg, digits, k) = shortest_digits(-0.25);
        assert!(neg);
        assert_eq!(digits, b"25".to_vec());
        assert_eq!(k, 0);
    }

    #[test]
    fn subnormal_shortest() {
        assert_eq!(format_f64(5e-324), "5E-324");
    }
}
