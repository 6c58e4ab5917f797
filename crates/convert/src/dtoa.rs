//! `f64` → ASCII conversion: exact, shortest round-trip decimal output.
//!
//! ## Algorithm
//!
//! A finite positive double is `m × 2^e` (`m < 2^53`). Its *exact* decimal
//! digits are computed with a small fixed-capacity big integer:
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
//! occasionally *not* the nearest rounding (see `best_at_precision`). Every
//! candidate is verified by re-parsing it with std's correctly rounded
//! parser.
//!
//! ## Cost model
//!
//! This is a Dragon-style fixed-point scheme rather than Grisu/Ryu: it
//! trades speed for unconditional exactness with no precomputed power
//! tables. That trade is deliberate — in the paper's setting the conversion
//! routine *is* the serialization bottleneck being optimized around. Each
//! conversion pays the full exact expansion (repeated division by 10⁹ of up
//! to 767 digits) and the reparse-verified search, which is faithful to the
//! 2004-era `sprintf("%.17g")` cost model while remaining provably correct
//! (see the property tests). Like a C `sprintf`, it does so without the
//! heap: the big integer, the exact digits, every candidate and every
//! reparse probe live in fixed stack buffers whose capacities (80 limbs,
//! 767 digits) are derived from the exponent range. On a 2-CPU x86-64 VM
//! that is ~0.55 µs for a 15-digit value and ~3 µs for a random bit
//! pattern.
//!
//! ## Lexical form
//!
//! Output follows the `xsd:double` lexical space: plain decimal for decimal
//! exponents in `[-3, 16]`, scientific (`dE±x`) otherwise, `INF` / `-INF` /
//! `NaN` for specials. Output length never exceeds
//! [`crate::widths::DOUBLE_MAX_WIDTH`] (24 bytes).

use crate::bignum::{BigUint, DIGITS};

/// Upper bound on the bytes [`write_f64`] may produce.
pub const MAX_LEN: usize = crate::widths::DOUBLE_MAX_WIDTH;

/// Significant digits that always round-trip a double: the longest
/// candidate the search tries.
const MAX_SIG: usize = 17;

/// A candidate decimal `0.digits × 10^k` of at most [`MAX_SIG`] digits —
/// a fixed record, copied rather than allocated.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Decimal {
    buf: [u8; MAX_SIG],
    len: usize,
    /// The decimal exponent: the value is `0.digits × 10^k`.
    pub(crate) k: i32,
}

impl Decimal {
    /// The significant digits, ASCII.
    pub(crate) fn digits(&self) -> &[u8] {
        &self.buf[..self.len]
    }

    fn trim_trailing_zeros(mut self) -> Self {
        while self.len > 0 && self.buf[self.len - 1] == b'0' {
            self.len -= 1;
        }
        self
    }
}

/// Write `v` in shortest round-trip `xsd:double` form; returns bytes written.
///
/// `buf` must be at least [`MAX_LEN`] (24) bytes.
pub fn write_f64(buf: &mut [u8], v: f64) -> usize {
    if let Some(n) = write_fixed_forms(buf, v) {
        return n;
    }
    let d = shortest_digits_abs(v.abs());
    format_parts(buf, v < 0.0, d.digits(), d.k)
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
    std::str::from_utf8(&buf[..n])
        .expect("the writer emits ASCII")
        .to_owned()
}

/// Shortest-digit decomposition of a finite non-zero `f64`.
///
/// Returns `(negative, digits, k)` where `digits` has no trailing zeros and
/// the value equals `±0.digits × 10^k`. Exposed so workload generators can
/// craft values of specific serialized lengths (the paper's intermediate
/// field-width experiments); the one allocation is this wrapper's `Vec`.
pub fn shortest_digits(v: f64) -> (bool, Vec<u8>, i32) {
    assert!(
        v.is_finite() && v != 0.0,
        "shortest_digits needs finite non-zero input"
    );
    let d = shortest_digits_abs(v.abs());
    (v < 0.0, d.digits().to_vec(), d.k)
}

/// Exact decimal expansion of `|v|` rounded to the shortest round-tripping
/// digit count.
pub(crate) fn shortest_digits_abs(pos: f64) -> Decimal {
    let (m, e) = decompose(pos);

    // Exact decimal digits of the value, with the decimal exponent k such
    // that value = 0.DIGITS × 10^k.
    let mut big = BigUint::from_u64(m);
    if e >= 0 {
        big.shl_bits(e as u32);
    } else {
        big.mul_pow5(e.unsigned_abs());
    }
    let mut exact = [0u8; DIGITS];
    let len = big.into_decimal_digits(&mut exact);
    round_shortest(pos, &exact[..len], len as i32 + e.min(0))
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
fn round_shortest(pos: f64, exact: &[u8], k: i32) -> Decimal {
    debug_assert!(!exact.is_empty());
    // Binary search the smallest p in 1..=17 that round-trips, keeping the
    // candidate found at `hi` so the winner is not computed twice. An exact
    // expansion of ≤ 17 digits round-trips by itself (it IS the value), so
    // the search tops out there. Monotonicity holds in practice; the
    // verification loop below repairs any exception.
    let mut lo = 1usize;
    let mut hi = MAX_SIG.min(exact.len());
    let mut at_hi = None;
    while lo < hi {
        let mid = (lo + hi) / 2;
        match best_at_precision(pos, exact, k, mid) {
            Some(best) => {
                hi = mid;
                at_hi = Some(best);
            }
            None => lo = mid + 1,
        }
    }
    if let Some(best) = at_hi {
        return best;
    }
    let mut p = lo;
    loop {
        if let Some(best) = best_at_precision(pos, exact, k, p) {
            return best;
        }
        p += 1;
        assert!(
            p <= MAX_SIG,
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
fn best_at_precision(pos: f64, exact: &[u8], k: i32, p: usize) -> Option<Decimal> {
    let nearest = rounded_prefix(exact, k, p);
    if reparses_to(pos, &nearest) {
        return Some(nearest);
    }
    ulp_neighbors(&nearest, p)
        .into_iter()
        .flatten()
        .find(|d| reparses_to(pos, d))
}

/// The decimals one unit-in-the-last-place (at `p` significant digits)
/// above and below `d`, trailing zeros trimmed: `[up, down]`. The lower
/// neighbor is `None` when it would be zero.
fn ulp_neighbors(d: &Decimal, p: usize) -> [Option<Decimal>; 2] {
    let mut base = *d;
    base.buf[base.len..p].fill(b'0');
    base.len = p;

    let mut up = base;
    if !increment(&mut up.buf[..p]) {
        // Carry out of the most significant digit: 999→1000.
        up.buf[0] = b'1';
        up.k += 1;
    }

    let mut down = base;
    for digit in down.buf[..p].iter_mut().rev() {
        if *digit == b'0' {
            *digit = b'9';
        } else {
            *digit -= 1;
            break;
        }
    }
    if down.buf[0] == b'0' {
        // Borrow across the decade: 1000→0999, i.e. 999 one place lower.
        down.buf.copy_within(1..p, 0);
        down.len = p - 1;
        down.k -= 1;
    }
    let nonzero = down.digits().iter().any(|&c| c != b'0');
    [
        Some(up.trim_trailing_zeros()),
        nonzero.then(|| down.trim_trailing_zeros()),
    ]
}

/// Add one unit in the last place of the ASCII `digits`, carrying leftward.
/// Returns `false` on a carry out of the most significant digit, which
/// leaves every digit `0`.
fn increment(digits: &mut [u8]) -> bool {
    for digit in digits.iter_mut().rev() {
        if *digit == b'9' {
            *digit = b'0';
        } else {
            *digit += 1;
            return true;
        }
    }
    false
}

/// Round `exact` to `p` significant digits (half-to-even against the exact
/// tail) and trim trailing zeros.
fn rounded_prefix(exact: &[u8], k: i32, p: usize) -> Decimal {
    let len = exact.len().min(p);
    let mut d = Decimal {
        buf: [0; MAX_SIG],
        len,
        k,
    };
    d.buf[..len].copy_from_slice(&exact[..len]);
    if exact.len() > p {
        let round_up = match exact[p].cmp(&b'5') {
            std::cmp::Ordering::Greater => true,
            std::cmp::Ordering::Less => false,
            std::cmp::Ordering::Equal => {
                exact[p + 1..].iter().any(|&c| c != b'0') || (d.buf[p - 1] - b'0') % 2 == 1
            }
        };
        if round_up && !increment(&mut d.buf[..p]) {
            // Carry out of the most significant digit: 999→1000.
            d.buf[0] = b'1';
            d.k += 1;
        }
    }
    let d = d.trim_trailing_zeros();
    debug_assert!(d.len > 0);
    d
}

/// Check whether `d` re-parses to `pos` exactly.
fn reparses_to(pos: f64, d: &Decimal) -> bool {
    // Reconstruct as DIGITSe(k - len) on the stack — at most 17 digits, `e`
    // and an exponent in -340..=308 (k ∈ -323..=309) — and parse it with
    // the standard library's correctly rounded parser, which does not
    // allocate either.
    let digits = d.digits();
    let mut text = [0u8; MAX_SIG + 5];
    text[..digits.len()].copy_from_slice(digits);
    text[digits.len()] = b'e';
    let exp10 = d.k - digits.len() as i32;
    let n = digits.len() + 1 + crate::itoa::write_i32(&mut text[digits.len() + 1..], exp10);
    std::str::from_utf8(&text[..n])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .is_some_and(|back| back.to_bits() == pos.to_bits())
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
            let d = shortest_digits_abs(v);
            let mut buf = [0u8; MAX_LEN];
            let n = format_parts(&mut buf, false, d.digits(), d.k);
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
