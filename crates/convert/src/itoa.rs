//! Integer → ASCII conversion with a two-digit lookup table.
//!
//! This is the `xsd:int` / `xsd:long` serialization path. The two-digit
//! table halves the number of divisions compared to the naive digit loop —
//! the classic technique used by the C toolkits the paper benchmarks
//! against.
//!
//! Two generations coexist (DESIGN.md §3.11):
//!
//! * the original scratch-buffer writers ([`write_u64`] / [`write_i64`])
//!   and loop-based [`i32_width`] — the scalar oracle, and
//! * the *branchless* kernel ([`digit_count_u64`] computes the digit count
//!   with `lzcnt` + one table probe, [`write_u64_branchless`] then writes
//!   the two-digit pairs backwards from the known end directly into the
//!   destination, skipping the scratch copy). Tier-2 in-width overwrites
//!   dispatch here via [`write_i64_with`] when the kernel policy resolves
//!   to a SIMD level.
//!
//! Byte-identity between the two generations is property-tested.

use bsoap_kernels::{resolve, KernelPolicy};

/// Lookup table of all two-digit pairs `"00"… "99"`.
static DIGIT_PAIRS: &[u8; 200] = b"\
0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

/// Write an unsigned 64-bit integer; returns the number of bytes written.
///
/// `buf` must be at least 20 bytes.
pub fn write_u64(buf: &mut [u8], mut v: u64) -> usize {
    // Generate digits into a 20-byte scratch from the rear, then copy.
    let mut scratch = [0u8; 20];
    let mut pos = scratch.len();
    while v >= 100 {
        let pair = ((v % 100) as usize) * 2;
        v /= 100;
        pos -= 2;
        scratch[pos] = DIGIT_PAIRS[pair];
        scratch[pos + 1] = DIGIT_PAIRS[pair + 1];
    }
    if v >= 10 {
        let pair = (v as usize) * 2;
        pos -= 2;
        scratch[pos] = DIGIT_PAIRS[pair];
        scratch[pos + 1] = DIGIT_PAIRS[pair + 1];
    } else {
        pos -= 1;
        scratch[pos] = b'0' + v as u8;
    }
    let len = scratch.len() - pos;
    buf[..len].copy_from_slice(&scratch[pos..]);
    len
}

/// Write a signed 32-bit integer (`xsd:int`); returns bytes written (≤ 11).
pub fn write_i32(buf: &mut [u8], v: i32) -> usize {
    write_i64(buf, v as i64)
}

/// Powers of ten up to `10^19` (the largest that fits a `u64`), indexed by
/// exponent — the lookup half of the branchless digit count.
static POW10: [u64; 20] = [
    1,
    10,
    100,
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
    10_000_000_000,
    100_000_000_000,
    1_000_000_000_000,
    10_000_000_000_000,
    100_000_000_000_000,
    1_000_000_000_000_000,
    10_000_000_000_000_000,
    100_000_000_000_000_000,
    1_000_000_000_000_000_000,
    10_000_000_000_000_000_000,
];

/// Decimal digit count of `v`, computed without a loop or division.
///
/// `bits · log10(2)` approximated as `bits · 1233 / 4096` gives the digit
/// count to within one; a single power-of-ten table probe corrects it.
/// `v | 1` makes zero well-defined (and can never change the digit count:
/// crossing a power of ten from below requires an odd value `…99`).
#[inline]
pub fn digit_count_u64(v: u64) -> usize {
    let bits = 64 - (v | 1).leading_zeros() as usize;
    let approx = (bits * 1233) >> 12;
    approx + ((v | 1) >= POW10[approx]) as usize
}

/// Decimal digit count of a `u32`, branchless.
#[inline]
pub fn digit_count_u32(v: u32) -> usize {
    digit_count_u64(v as u64)
}

/// Write the digits of `v` ending exactly at `buf[len]` (two-digit pairs,
/// back to front). `len` must equal `digit_count_u64(v)` and `buf.len()`
/// must be ≥ `len`.
#[inline]
fn write_digits_backward(buf: &mut [u8], mut v: u64, len: usize) {
    let mut pos = len;
    while v >= 100 {
        let pair = ((v % 100) as usize) * 2;
        v /= 100;
        pos -= 2;
        buf[pos] = DIGIT_PAIRS[pair];
        buf[pos + 1] = DIGIT_PAIRS[pair + 1];
    }
    if v >= 10 {
        let pair = (v as usize) * 2;
        buf[pos - 2] = DIGIT_PAIRS[pair];
        buf[pos - 1] = DIGIT_PAIRS[pair + 1];
    } else {
        buf[pos - 1] = b'0' + v as u8;
    }
}

/// Branchless-width `u64` writer: digit count via [`digit_count_u64`], then
/// digits written directly into `buf` from the rear — no scratch buffer, no
/// final copy. Byte-identical to [`write_u64`].
#[inline]
pub fn write_u64_branchless(buf: &mut [u8], v: u64) -> usize {
    let len = digit_count_u64(v);
    write_digits_backward(buf, v, len);
    len
}

/// Branchless-width `i64` writer, byte-identical to [`write_i64`]. The sign
/// is written unconditionally and overwritten by the first digit when the
/// value is non-negative.
#[inline]
pub fn write_i64_branchless(buf: &mut [u8], v: i64) -> usize {
    let neg = (v < 0) as usize;
    let mag = if v < 0 {
        (v as u64).wrapping_neg()
    } else {
        v as u64
    };
    buf[0] = b'-';
    let len = digit_count_u64(mag);
    write_digits_backward(&mut buf[neg..], mag, len);
    neg + len
}

/// Branchless-width `i32` writer, byte-identical to [`write_i32`].
#[inline]
pub fn write_i32_branchless(buf: &mut [u8], v: i32) -> usize {
    write_i64_branchless(buf, v as i64)
}

/// Policy-dispatched `i64` writer: the branchless kernel when `policy`
/// resolves to a SIMD level, the scalar oracle otherwise.
#[inline]
pub fn write_i64_with(buf: &mut [u8], v: i64, policy: KernelPolicy) -> usize {
    if resolve(policy).is_simd() {
        bsoap_kernels::record_simd_hits(1);
        write_i64_branchless(buf, v)
    } else {
        write_i64(buf, v)
    }
}

/// Policy-dispatched `i32` writer (see [`write_i64_with`]).
#[inline]
pub fn write_i32_with(buf: &mut [u8], v: i32, policy: KernelPolicy) -> usize {
    write_i64_with(buf, v as i64, policy)
}

/// Write a signed 64-bit integer (`xsd:long`); returns bytes written (≤ 20).
pub fn write_i64(buf: &mut [u8], v: i64) -> usize {
    if v < 0 {
        buf[0] = b'-';
        // Negating in unsigned space handles i64::MIN without overflow.
        1 + write_u64(&mut buf[1..], (v as u64).wrapping_neg())
    } else {
        write_u64(buf, v as u64)
    }
}

/// Format an `i32` into a fresh `String`.
pub fn format_i32(v: i32) -> String {
    let mut buf = [0u8; 11];
    let n = write_i32(&mut buf, v);
    std::str::from_utf8(&buf[..n])
        .expect("the writer emits ASCII")
        .to_owned()
}

/// Format an `i64` into a fresh `String`.
pub fn format_i64(v: i64) -> String {
    let mut buf = [0u8; 20];
    let n = write_i64(&mut buf, v);
    std::str::from_utf8(&buf[..n])
        .expect("the writer emits ASCII")
        .to_owned()
}

/// Format a `u64` into a fresh `String`.
pub fn format_u64(v: u64) -> String {
    let mut buf = [0u8; 20];
    let n = write_u64(&mut buf, v);
    std::str::from_utf8(&buf[..n])
        .expect("the writer emits ASCII")
        .to_owned()
}

/// The number of bytes [`write_i32`] would produce for `v`, without writing.
///
/// Used by the differential engine to size fields before serializing.
pub fn i32_width(v: i32) -> usize {
    let (neg, mut u) = if v < 0 {
        (1, (v as i64).unsigned_abs())
    } else {
        (0, v as u64)
    };
    let mut digits = 1;
    while u >= 10 {
        u /= 10;
        digits += 1;
    }
    neg + digits
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_boundaries() {
        for v in [0u64, 1, 9, 10, 99, 100, 999, 12345, u64::MAX, u64::MAX - 1] {
            assert_eq!(format_u64(v), v.to_string());
        }
    }

    #[test]
    fn i32_boundaries() {
        for v in [0i32, 1, -1, 9, -9, 10, -10, 13902, i32::MIN, i32::MAX] {
            assert_eq!(format_i32(v), v.to_string());
        }
    }

    #[test]
    fn i64_boundaries() {
        for v in [0i64, -1, i64::MIN, i64::MAX, 1_000_000_000_000] {
            assert_eq!(format_i64(v), v.to_string());
        }
    }

    #[test]
    fn i32_max_width_is_11() {
        assert_eq!(format_i32(i32::MIN).len(), 11);
        assert_eq!(format_i32(i32::MIN).len(), crate::widths::INT_MAX_WIDTH);
    }

    #[test]
    fn i64_max_width_is_20() {
        assert_eq!(format_i64(i64::MIN).len(), 20);
        assert_eq!(format_i64(i64::MIN).len(), crate::widths::LONG_MAX_WIDTH);
    }

    #[test]
    fn width_predicts_writer() {
        for v in [0i32, 5, -5, 99, -99, 100, 12345, -12345, i32::MIN, i32::MAX] {
            assert_eq!(i32_width(v), format_i32(v).len(), "value {v}");
        }
    }

    #[test]
    fn paper_example_widths() {
        // §3 of the paper: "encoding the integer 1 requires only one
        // character, whereas 13902 requires five."
        assert_eq!(format_i32(1).len(), 1);
        assert_eq!(format_i32(13902).len(), 5);
    }

    #[test]
    fn every_two_digit_pair() {
        for v in 0..100u64 {
            assert_eq!(format_u64(v), v.to_string());
        }
    }

    #[test]
    fn powers_of_ten() {
        let mut v: u64 = 1;
        for _ in 0..19 {
            assert_eq!(format_u64(v), v.to_string());
            assert_eq!(format_u64(v - 1), (v - 1).to_string());
            assert_eq!(format_u64(v + 1), (v + 1).to_string());
            v *= 10;
        }
    }

    #[test]
    fn digit_count_matches_format_at_boundaries() {
        let mut cases = vec![0u64, 1, 9, u64::MAX, u64::MAX - 1];
        let mut p: u64 = 1;
        for _ in 0..19 {
            p *= 10;
            cases.extend([p - 1, p, p + 1]);
        }
        for v in cases {
            assert_eq!(digit_count_u64(v), v.to_string().len(), "value {v}");
        }
        for v in 0..=2048u64 {
            assert_eq!(digit_count_u64(v), v.to_string().len(), "value {v}");
        }
        assert_eq!(digit_count_u32(u32::MAX), 10);
    }

    #[test]
    fn branchless_matches_scalar_oracle() {
        let mut a = [0u8; 24];
        let mut b = [0u8; 24];
        for v in [
            0i64,
            1,
            -1,
            9,
            -9,
            10,
            99,
            100,
            13902,
            -13902,
            i32::MIN as i64,
            i32::MAX as i64,
            i64::MIN,
            i64::MAX,
        ] {
            let na = write_i64(&mut a, v);
            let nb = write_i64_branchless(&mut b, v);
            assert_eq!(&a[..na], &b[..nb], "value {v}");
        }
        for v in [0u64, 7, 42, 10_000_000_000, u64::MAX] {
            let na = write_u64(&mut a, v);
            let nb = write_u64_branchless(&mut b, v);
            assert_eq!(&a[..na], &b[..nb], "value {v}");
        }
    }

    #[test]
    fn dispatch_wrappers_agree_with_oracle() {
        use bsoap_kernels::KernelPolicy;
        let mut a = [0u8; 24];
        let mut b = [0u8; 24];
        for v in [0i32, -5, 13902, i32::MIN, i32::MAX] {
            let na = write_i32_with(&mut a, v, KernelPolicy::Scalar);
            let nb = write_i32_with(&mut b, v, KernelPolicy::Auto);
            assert_eq!(&a[..na], &b[..nb], "value {v}");
        }
    }
}
