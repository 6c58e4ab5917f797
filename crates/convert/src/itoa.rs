//! Integer → ASCII conversion with a two-digit lookup table.
//!
//! This is the `xsd:int` / `xsd:long` serialization path. The two-digit
//! table halves the number of divisions compared to the naive digit loop —
//! the classic technique used by the C toolkits the paper benchmarks
//! against. [`digit_count_u64`] finds the length first (`lzcnt` plus one
//! table probe, no loop), so the pairs are written back to front straight
//! into the destination, with no scratch buffer and no final copy.

/// Lookup table of all two-digit pairs `"00"… "99"`.
static DIGIT_PAIRS: &[u8; 200] = b"\
0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

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

/// Write an unsigned 64-bit integer; returns the number of bytes written
/// (≤ 20). `buf` must hold them.
#[inline]
pub fn write_u64(buf: &mut [u8], v: u64) -> usize {
    let len = digit_count_u64(v);
    write_digits_backward(buf, v, len);
    len
}

/// Write a signed 64-bit integer (`xsd:long`); returns bytes written
/// (≤ 20). The sign is written unconditionally and overwritten by the
/// first digit when the value is non-negative.
#[inline]
pub fn write_i64(buf: &mut [u8], v: i64) -> usize {
    let neg = (v < 0) as usize;
    // Negating in unsigned space handles i64::MIN without overflow.
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

/// Write a signed 32-bit integer (`xsd:int`); returns bytes written (≤ 11).
#[inline]
pub fn write_i32(buf: &mut [u8], v: i32) -> usize {
    write_i64(buf, v as i64)
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

    /// Every `10^k − 1` and `10^k` a type holds, both signs, plus its
    /// extremes: the values where the digit count steps.
    fn digit_steps() -> Vec<i64> {
        let mut vs = vec![0, i64::MIN, i64::MAX, i32::MIN as i64, i32::MAX as i64];
        let mut p: i64 = 1;
        for _ in 0..19 {
            vs.extend([p - 1, p, 1 - p, -p]);
            p = p.saturating_mul(10);
        }
        vs
    }

    /// A fixed-seed xorshift stream: random values without a dependency.
    fn random_values(n: usize) -> impl Iterator<Item = u64> {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        (0..n).map(move |_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Spread the magnitudes: shift away a random number of bits.
            x >> (x % 64)
        })
    }

    #[test]
    fn writers_equal_to_string_at_every_digit_step() {
        let mut buf = [0u8; 24];
        for v in digit_steps() {
            let n = write_i64(&mut buf, v);
            assert_eq!(&buf[..n], v.to_string().as_bytes(), "i64 {v}");
            if let Ok(v) = i32::try_from(v) {
                let n = write_i32(&mut buf, v);
                assert_eq!(&buf[..n], v.to_string().as_bytes(), "i32 {v}");
            }
        }
        for v in [u64::MAX, u64::MAX - 1, 10_000_000_000_000_000_000] {
            assert_eq!(format_u64(v), v.to_string());
        }
    }

    #[test]
    fn writers_equal_to_string_on_random_values() {
        let mut buf = [0u8; 24];
        for r in random_values(100_000) {
            let n = write_u64(&mut buf, r);
            assert_eq!(&buf[..n], r.to_string().as_bytes(), "u64 {r}");
            let v = r as i64;
            let n = write_i64(&mut buf, v);
            assert_eq!(&buf[..n], v.to_string().as_bytes(), "i64 {v}");
            let v = r as i32;
            let n = write_i32(&mut buf, v);
            assert_eq!(&buf[..n], v.to_string().as_bytes(), "i32 {v}");
        }
    }

    #[test]
    fn writers_touch_only_their_own_bytes() {
        for v in digit_steps() {
            let mut buf = [0xAAu8; 24];
            let n = write_i64(&mut buf, v);
            assert!(
                buf[n..].iter().all(|&b| b == 0xAA),
                "i64 {v} wrote past its end"
            );
        }
    }

    #[test]
    fn digit_count_equals_the_written_length() {
        let mut buf = [0u8; 24];
        let steps = digit_steps().into_iter().map(|v| v.unsigned_abs());
        for v in steps.chain(random_values(10_000)).chain(0..=2048) {
            assert_eq!(digit_count_u64(v), write_u64(&mut buf, v), "value {v}");
            assert_eq!(digit_count_u64(v), v.to_string().len(), "value {v}");
        }
        assert_eq!(digit_count_u32(u32::MAX), 10);
    }
}
