//! Property tests for the conversion substrate.
//!
//! The differential-serialization engine's correctness rests on these
//! conversions being exact: a value written into a template and later
//! parsed by a server must round-trip bit-for-bit.

mod corpus;

use bsoap_convert::{dtoa, grisu, itoa, parse, FloatFormatter};
use proptest::collection;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// The `xsd:double` lexical space, restated by hand: XML whitespace around
/// `INF`, `+INF`, `-INF`, `NaN`, or a sign, digits with at most one point
/// and at least one digit, and an `e`/`E` exponent of at least one digit.
/// Inside it, `str::parse` is the reference value: `None` outside it.
fn reference_f64(raw: &[u8]) -> Option<f64> {
    let text = std::str::from_utf8(raw)
        .ok()?
        .trim_matches([' ', '\t', '\r', '\n']);
    if matches!(text, "INF" | "+INF" | "-INF" | "NaN") {
        return text.parse().ok();
    }
    let unsigned = text.strip_prefix(['+', '-']).unwrap_or(text);
    let (mantissa, exponent) = match unsigned.split_once(['e', 'E']) {
        Some((m, e)) => (m, Some(e.strip_prefix(['+', '-']).unwrap_or(e))),
        None => (unsigned, None),
    };
    let (int, frac) = mantissa.split_once('.').unwrap_or((mantissa, ""));
    let digits = |s: &str| s.bytes().all(|b| b.is_ascii_digit());
    let lexical = digits(int)
        && digits(frac)
        && int.len() + frac.len() > 0
        && exponent.is_none_or(|e| !e.is_empty() && digits(e));
    lexical.then(|| text.parse().expect("std reads the lexical space"))
}

/// `parse_f64` and the reference agree: the same bits, NaN for NaN, or
/// both reject.
fn same_as_reference(raw: &[u8]) -> Result<(), TestCaseError> {
    let got = parse::parse_f64(raw).ok();
    let want = reference_f64(raw);
    let bits = |v: Option<f64>| {
        v.map(|x| {
            if x.is_nan() {
                f64::NAN.to_bits()
            } else {
                x.to_bits()
            }
        })
    };
    prop_assert_eq!(bits(got), bits(want), "{:?}", String::from_utf8_lossy(raw));
    Ok(())
}

/// Bytes that either parser might trip on, for one byte of a form.
const STRAY: &[u8] = b"0.eE+- \tix_<\x80";

/// A random lexical form near `xsd:double`'s: stuffing whitespace, no sign,
/// `+` or `-`, leading zeros, up to 17 integer and 25 fraction digits (the
/// exact path takes at most 19 digits) with or without a point, an `e`/`E`
/// exponent with or without a sign (or its digits), and in one form of four
/// one byte replaced by a [`STRAY`] one.
fn double_form() -> impl Strategy<Value = Vec<u8>> {
    (
        (
            0usize..3,
            0usize..3,
            0usize..4,
            collection::vec(0u8..10, 0..18),
        ),
        (0usize..4, collection::vec(0u8..10, 0..26)),
        (0usize..5, 0usize..3, collection::vec(0u8..10, 0..4)),
        (0usize..3, 0usize..4, any::<usize>(), 0..STRAY.len()),
    )
        .prop_map(|(head, (point, frac), (exp, exp_sign, exp_digits), tail)| {
            let ((lead, sign, zeros, int), (trail, mutate, at, stray)) = (head, tail);
            let ws = |n: usize| (0..n).map(move |k| b" \t\r\n"[(at + k) % 4]);
            let digit = |d: &u8| b'0' + d;
            let mut form: Vec<u8> = ws(lead).collect();
            form.extend_from_slice([&b""[..], b"+", b"-"][sign]);
            form.extend(std::iter::repeat_n(b'0', zeros));
            form.extend(int.iter().map(digit));
            if point > 0 {
                form.push(b'.');
                form.extend(frac.iter().map(digit));
            }
            if exp >= 2 {
                form.push(if exp == 3 { b'E' } else { b'e' });
                form.extend_from_slice([&b""[..], b"+", b"-"][exp_sign]);
                form.extend(exp_digits.iter().map(digit));
            }
            form.extend(ws(trail));
            if mutate == 0 && !form.is_empty() {
                let len = form.len();
                form[at % len] = STRAY[stray];
            }
            form
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Every finite f64 bit pattern formats within 24 bytes and re-parses
    /// to the identical bit pattern.
    #[test]
    fn dtoa_round_trips_all_finite(bits in any::<u64>()) {
        let v = f64::from_bits(bits);
        prop_assume!(v.is_finite());
        let s = dtoa::format_f64(v);
        prop_assert!(s.len() <= dtoa::MAX_LEN, "{} is {} bytes", s, s.len());
        let back: f64 = s.parse().unwrap();
        prop_assert_eq!(back.to_bits(), v.to_bits(), "{}", s);
    }

    /// The one-pass lexer is the old validate-then-std path: the same bits
    /// on every form it accepts, a rejection on every form it rejected.
    #[test]
    fn parse_f64_equals_std_on_random_forms(form in double_form()) {
        same_as_reference(&form)?;
    }

    /// Our own xsd:double parser agrees with the formatter.
    #[test]
    fn own_parser_round_trips(bits in any::<u64>()) {
        let v = f64::from_bits(bits);
        prop_assume!(v.is_finite());
        let s = dtoa::format_f64(v);
        let back = parse::parse_f64(s.as_bytes()).unwrap();
        prop_assert_eq!(back.to_bits(), v.to_bits());
    }

    /// Formatting is shortest: dropping the last significant digit must NOT
    /// round-trip (otherwise we would have chosen the shorter form).
    #[test]
    fn dtoa_is_minimal(bits in any::<u64>()) {
        let v = f64::from_bits(bits);
        prop_assume!(v.is_finite() && v != 0.0);
        let (_, digits, k) = dtoa::shortest_digits(v);
        prop_assume!(digits.len() > 1);
        // Re-round the shortest digits to one fewer digit, every way
        // (truncate and truncate+increment), and check neither recovers v.
        let shorter = &digits[..digits.len() - 1];
        for bump in [0u8, 1] {
            let mut d = shorter.to_vec();
            if bump == 1 {
                // increment with carry
                let mut i = d.len();
                loop {
                    if i == 0 { d.insert(0, b'1'); d.pop(); break; }
                    i -= 1;
                    if d[i] == b'9' { d[i] = b'0'; } else { d[i] += 1; break; }
                }
            }
            let text = format!(
                "{}{}e{}",
                if v < 0.0 { "-" } else { "" },
                std::str::from_utf8(&d).unwrap(),
                k - d.len() as i32
            );
            if let Ok(back) = text.parse::<f64>() {
                prop_assert_ne!(
                    back.to_bits(), v.to_bits(),
                    "shorter digits {} recover {}", text, v
                );
            }
        }
    }

    #[test]
    fn itoa_i32_matches_display(v in any::<i32>()) {
        prop_assert_eq!(itoa::format_i32(v), v.to_string());
        prop_assert!(itoa::format_i32(v).len() <= bsoap_convert::INT_MAX_WIDTH);
        prop_assert_eq!(
            (v < 0) as usize + itoa::digit_count_u64(v.unsigned_abs() as u64),
            v.to_string().len()
        );
    }

    #[test]
    fn itoa_i64_matches_display(v in any::<i64>()) {
        prop_assert_eq!(itoa::format_i64(v), v.to_string());
        prop_assert!(itoa::format_i64(v).len() <= bsoap_convert::LONG_MAX_WIDTH);
    }

    #[test]
    fn parse_i32_round_trips(v in any::<i32>()) {
        prop_assert_eq!(parse::parse_i32(itoa::format_i32(v).as_bytes()), Ok(v));
    }

    #[test]
    fn parse_i64_round_trips(v in any::<i64>()) {
        prop_assert_eq!(parse::parse_i64(itoa::format_i64(v).as_bytes()), Ok(v));
    }

    /// Parsing tolerates the whitespace stuffing the engine emits.
    #[test]
    fn parse_tolerates_stuffing(v in any::<i32>(), pad_left in 0usize..6, pad_right in 0usize..6) {
        let padded = format!(
            "{}{}{}",
            " ".repeat(pad_left),
            itoa::format_i32(v),
            " ".repeat(pad_right)
        );
        prop_assert_eq!(parse::parse_i32(padded.as_bytes()), Ok(v));
    }

    /// "Nice" decimal literals with few digits format back to themselves.
    #[test]
    fn short_decimals_are_stable(int_part in 0u32..10_000, frac in 1u32..1000) {
        let text = format!("{int_part}.{frac:03}");
        let text = text.trim_end_matches('0');
        prop_assume!(!text.ends_with('.'));
        let v: f64 = text.parse().unwrap();
        prop_assert_eq!(dtoa::format_f64(v), text);
    }

    /// Differential: the Grisu3 fast kernel is byte-identical to the exact
    /// Dragon kernel on every bit pattern (including NaN payloads and
    /// infinities — the full u64 domain, no finiteness assumption).
    #[test]
    fn fast_kernel_matches_exact_all_bits(bits in any::<u64>()) {
        let v = f64::from_bits(bits);
        prop_assert_eq!(grisu::format_f64_fast(v), dtoa::format_f64(v), "bits 0x{:016X}", bits);
    }

    /// Differential, biased toward the subnormal range where Grisu's
    /// unnormalized boundaries are widest.
    #[test]
    fn fast_kernel_matches_exact_subnormals(bits in 0u64..(1u64 << 52), neg in any::<bool>()) {
        let v = f64::from_bits(bits | if neg { 1 << 63 } else { 0 });
        prop_assert_eq!(grisu::format_f64_fast(v), dtoa::format_f64(v), "bits 0x{:016X}", bits);
    }

    /// Differential over "round" decimal literals: the inputs most likely
    /// to exercise trailing-zero / shortest-form edge handling.
    #[test]
    fn fast_kernel_matches_exact_short_decimals(
        mantissa in 1u64..100_000_000,
        exp in -30i32..30,
        neg in any::<bool>(),
    ) {
        let v = mantissa as f64 * 10f64.powi(exp) * if neg { -1.0 } else { 1.0 };
        prop_assert_eq!(grisu::format_f64_fast(v), dtoa::format_f64(v), "{:?}", v);
    }
}

/// The schema's specials and the spellings only std accepts.
#[test]
fn parse_f64_equals_std_on_specials() {
    for form in [
        "INF", "+INF", "-INF", "NaN", " INF\t", "inf", "-inf", "Infinity", "infinity", "nan",
        "NAN", "-NaN", "+NaN", "INF0", "0x10", "1_0", "-0", "+0.0e0", "-.0", ".e1", "5.", ".5",
    ] {
        same_as_reference(form.as_bytes()).unwrap();
    }
}

/// Every double of the exact kernel's pin corpus, as both kernels print it,
/// parses back to itself and to what std reads.
#[test]
fn parse_f64_equals_std_on_the_pin_corpus() {
    let mut buf = [0u8; dtoa::MAX_LEN];
    for v in corpus::corpus() {
        for kernel in [FloatFormatter::Exact2004, FloatFormatter::Fast] {
            let len = kernel.write_f64(&mut buf, v);
            let text = &buf[..len];
            same_as_reference(text).unwrap();
            let back = parse::parse_f64(text).unwrap();
            assert!(
                back.to_bits() == v.to_bits() || (v.is_nan() && back.is_nan()),
                "{v:e}"
            );
        }
    }
}

/// Deterministic hard cases for the fast kernel: exact half-ulp ties (the
/// cases Grisu3 must *fail* on and defer to the exact path), binade
/// boundaries where the lower rounding interval halves, subnormal
/// extremes, and the largest/smallest magnitudes.
#[test]
fn fast_kernel_hard_cases() {
    let mut cases: Vec<f64> = vec![
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        f64::MAX,
        f64::MIN_POSITIVE,          // smallest normal
        5e-324,                     // smallest subnormal
        2.225_073_858_507_201e-308, // largest subnormal
        1e300,
        1e-300,
        1.2345678912345678e300,
        -1.6054609345651112e-109,
        #[allow(clippy::excessive_precision)] // exact shortest form of 2 ulp
        9.881312916824931e-324,
        0.1,
        2.0f64.powi(-1),
        1.0 / 3.0,
        // Half-ulp tie family: 2^k + 0.5 ulp neighborhoods.
        f64::from_bits(0x3FF0000000000001), // 1.0 + 1 ulp
        f64::from_bits(0x4340000000000001), // 2^53 + 1 ulp
        f64::from_bits(0x0010000000000001),
        f64::from_bits(0x7FEFFFFFFFFFFFFF), // MAX
        f64::from_bits(0x0000000000000001), // min subnormal
        f64::from_bits(0x000FFFFFFFFFFFFF), // max subnormal
    ];
    // Powers of two sweep both binade-boundary branches of the lower
    // rounding interval.
    for k in -1074..=1023 {
        cases.push(2.0f64.powi(k));
    }
    // Powers of ten hit the cached-power grid alignment.
    for k in -308..=308 {
        cases.push(10.0f64.powi(k));
    }
    for v in cases {
        for s in [1.0, -1.0] {
            let v = v * s;
            assert_eq!(
                grisu::format_f64_fast(v),
                dtoa::format_f64(v),
                "value {v:?} bits 0x{:016X}",
                v.to_bits()
            );
        }
    }
}
