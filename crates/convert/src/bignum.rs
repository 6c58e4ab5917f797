//! Fixed-capacity unsigned integer used by the exact `dtoa` digit
//! generator.
//!
//! A finite `f64` decomposes as `m × 2^e` with `m < 2^53`. Its exact decimal
//! expansion is obtained without division by observing that
//!
//! * for `e ≥ 0`, the value is the integer `m << e`,
//! * for `e < 0`, `m × 2^e = (m × 5^|e|) × 10^e`, so the decimal *digits* of
//!   the value are exactly the digits of the integer `m × 5^|e|` with the
//!   decimal point shifted left by `|e|` places.
//!
//! The only operations required are therefore: construct from `u64`, multiply
//! by a small constant, shift left by bits, and convert to decimal digits by
//! repeated division by 10⁹. All are implemented here on a little-endian
//! `u32`-limb array of fixed capacity, so a conversion never touches the
//! heap — as a C `sprintf` never did.
//!
//! ## Capacity
//!
//! The largest integer the generator expands bounds both buffers:
//!
//! * `e < 0`: `|e| ≤ 1074` (the smallest subnormal is `2^-1074`), so the
//!   integer is `m × 5^1074 < 2^53 × 2^(1074 · log₂5) < 2^2547`, using
//!   `log₂5 < 2.32193`. That is [`MAX_BITS`] = 2 547 bits, [`LIMBS`] = 80.
//! * `e ≥ 0`: `e ≤ 971` (`f64::MAX = (2^53 − 1) × 2^971`), so `m << e <
//!   2^1024`: 32 limbs, well inside the same array.
//!
//! Its decimal length is at most `⌈2547 · log₁₀2⌉ = 767` digits
//! ([`DIGITS`], using `log₁₀2 < 0.30103`); the largest subnormal's
//! expansion, `(2^52 − 1) × 5^1074`, already has 767. Every write is a safe
//! index into these arrays, so an input beyond the bound panics rather than
//! writing past it.

/// Subnormal scale: `2^-1074` is the smallest positive double.
const MAX_NEG_EXP: u32 = 1074;
/// Largest positive binary exponent: `f64::MAX = (2^53 − 1) × 2^971`.
const MAX_POS_EXP: u32 = 971;
/// Significand bits of a double, hidden bit included.
const MANTISSA_BITS: u32 = 53;

/// Bit bound of the largest expanded integer, `m × 5^1074`
/// (`log₂5 < 232 193 / 100 000`, rounded up).
const MAX_BITS: u32 = MANTISSA_BITS + (MAX_NEG_EXP * 232_193).div_ceil(100_000);
/// Limb capacity of [`BigUint`].
const LIMBS: usize = (MAX_BITS as usize).div_ceil(32);
/// Decimal digit capacity of [`BigUint::into_decimal_digits`]
/// (`log₁₀2 < 30 103 / 100 000`, rounded up).
pub(crate) const DIGITS: usize = (MAX_BITS as usize * 30_103).div_ceil(100_000);
/// Nine-digit groups in [`DIGITS`] digits.
const GROUPS: usize = DIGITS.div_ceil(9);

const _: () = {
    assert!(MAX_BITS == 2547 && LIMBS == 80 && DIGITS == 767);
    // `m << 971` fits as well.
    assert!(MANTISSA_BITS + MAX_POS_EXP <= LIMBS as u32 * 32);
};

/// Unsigned integer with little-endian `u32` limbs and a fixed capacity of
/// [`LIMBS`].
///
/// The representation is normalized: `limbs[len - 1]` is non-zero unless
/// the value is zero (in which case `len` is 0); limbs at and above `len`
/// are unspecified.
#[derive(Clone, Debug)]
pub(crate) struct BigUint {
    limbs: [u32; LIMBS],
    len: usize,
}

/// Largest power of five that fits in a `u32`: 5¹³ = 1,220,703,125.
const POW5_13: u32 = 1_220_703_125;
/// 10⁹, the radix used when extracting decimal digits nine at a time.
const POW10_9: u32 = 1_000_000_000;

impl BigUint {
    /// Construct from a `u64`.
    pub(crate) fn from_u64(v: u64) -> Self {
        let mut limbs = [0u32; LIMBS];
        limbs[0] = v as u32;
        limbs[1] = (v >> 32) as u32;
        let len = if v >> 32 != 0 { 2 } else { (v != 0) as usize };
        BigUint { limbs, len }
    }

    /// True when the value is zero.
    pub(crate) fn is_zero(&self) -> bool {
        self.len == 0
    }

    fn trim(&mut self) {
        while self.len > 0 && self.limbs[self.len - 1] == 0 {
            self.len -= 1;
        }
    }

    /// In-place multiply by a small constant.
    pub(crate) fn mul_small(&mut self, rhs: u32) {
        if rhs == 0 {
            self.len = 0;
            return;
        }
        let mut carry: u64 = 0;
        for limb in &mut self.limbs[..self.len] {
            let prod = *limb as u64 * rhs as u64 + carry;
            *limb = prod as u32;
            carry = prod >> 32;
        }
        // `limb × rhs + carry < 2^64`, so the carry is one limb at most.
        if carry != 0 {
            self.limbs[self.len] = carry as u32;
            self.len += 1;
        }
    }

    /// In-place multiply by `5^k`.
    pub(crate) fn mul_pow5(&mut self, mut k: u32) {
        while k >= 13 {
            self.mul_small(POW5_13);
            k -= 13;
        }
        if k > 0 {
            self.mul_small(5u32.pow(k));
        }
    }

    /// In-place shift left by `k` bits (multiply by `2^k`).
    pub(crate) fn shl_bits(&mut self, k: u32) {
        if self.is_zero() || k == 0 {
            return;
        }
        let limb_shift = (k / 32) as usize;
        let bit_shift = k % 32;
        let n = self.len;
        if bit_shift == 0 {
            self.limbs.copy_within(..n, limb_shift);
        } else {
            // Top down, so every source limb is read before it is
            // overwritten.
            let spill = self.limbs[n - 1] >> (32 - bit_shift);
            if spill != 0 {
                self.limbs[n + limb_shift] = spill;
            }
            for i in (1..n).rev() {
                self.limbs[i + limb_shift] =
                    (self.limbs[i] << bit_shift) | (self.limbs[i - 1] >> (32 - bit_shift));
            }
            self.limbs[limb_shift] = self.limbs[0] << bit_shift;
            self.len += (spill != 0) as usize;
        }
        self.limbs[..limb_shift].fill(0);
        self.len += limb_shift;
    }

    /// In-place divide by a small constant; returns the remainder.
    pub(crate) fn divmod_small(&mut self, rhs: u32) -> u32 {
        debug_assert!(rhs != 0);
        let mut rem: u64 = 0;
        for limb in self.limbs[..self.len].iter_mut().rev() {
            let cur = (rem << 32) | *limb as u64;
            *limb = (cur / rhs as u64) as u32;
            rem = cur % rhs as u64;
        }
        self.trim();
        rem as u32
    }

    /// Write the decimal ASCII digits into `out`, most significant first,
    /// with no leading zeros; returns how many. Zero writes none.
    pub(crate) fn into_decimal_digits(mut self, out: &mut [u8; DIGITS]) -> usize {
        // Extract nine digits per division by 10^9, least significant group
        // first.
        let mut groups = [0u32; GROUPS];
        let mut count = 0;
        while !self.is_zero() {
            groups[count] = self.divmod_small(POW10_9);
            count += 1;
        }
        let Some((&first, rest)) = groups[..count].split_last() else {
            return 0;
        };
        // The most significant group prints without zero padding.
        let mut len = crate::itoa::write_u64(out, first as u64);
        for &g in rest.iter().rev() {
            // Remaining groups print as exactly nine zero-padded digits.
            let mut v = g;
            for slot in out[len..len + 9].iter_mut().rev() {
                *slot = b'0' + (v % 10) as u8;
                v /= 10;
            }
            len += 9;
        }
        len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digits_string(b: BigUint) -> String {
        let mut out = [0u8; DIGITS];
        let n = b.into_decimal_digits(&mut out);
        String::from_utf8(out[..n].to_vec()).unwrap()
    }

    #[test]
    fn zero_round_trip() {
        assert!(BigUint::from_u64(0).is_zero());
        assert_eq!(digits_string(BigUint::from_u64(0)), "");
    }

    #[test]
    fn small_values_to_decimal() {
        assert_eq!(digits_string(BigUint::from_u64(1)), "1");
        assert_eq!(digits_string(BigUint::from_u64(42)), "42");
        assert_eq!(
            digits_string(BigUint::from_u64(u64::MAX)),
            "18446744073709551615"
        );
        assert_eq!(
            digits_string(BigUint::from_u64(1_000_000_000)),
            "1000000000"
        );
        assert_eq!(
            digits_string(BigUint::from_u64(1_000_000_001)),
            "1000000001"
        );
    }

    #[test]
    fn mul_small_carries() {
        let mut b = BigUint::from_u64(u64::MAX);
        b.mul_small(u32::MAX);
        // (2^64-1)(2^32-1) = 79228162495817593515539431425
        assert_eq!(digits_string(b), "79228162495817593515539431425");
    }

    #[test]
    fn mul_small_by_zero_clears() {
        let mut b = BigUint::from_u64(12345);
        b.mul_small(0);
        assert!(b.is_zero());
    }

    #[test]
    fn shl_bits_matches_u128() {
        for shift in [0u32, 1, 7, 31, 32, 33, 63, 64, 65, 90] {
            let mut b = BigUint::from_u64(0xDEAD_BEEF);
            b.shl_bits(shift);
            let expected = (0xDEAD_BEEFu128) << shift;
            assert_eq!(digits_string(b), expected.to_string(), "shift {shift}");
        }
    }

    #[test]
    fn shl_zero_value_stays_zero() {
        let mut b = BigUint::from_u64(0);
        b.shl_bits(100);
        assert!(b.is_zero());
    }

    #[test]
    fn mul_pow5_known_values() {
        let mut b = BigUint::from_u64(1);
        b.mul_pow5(13);
        assert_eq!(digits_string(b), "1220703125");
        let mut b = BigUint::from_u64(1);
        b.mul_pow5(27);
        // 5^27 = 7450580596923828125
        assert_eq!(digits_string(b), "7450580596923828125");
    }

    #[test]
    fn mul_pow5_large_exponent() {
        // 5^100 has 70 digits; check first and last digits against the known
        // value 7888609052210118054117285652827862296732064351090230047702789306640625.
        let mut b = BigUint::from_u64(1);
        b.mul_pow5(100);
        let s = digits_string(b);
        assert_eq!(s.len(), 70);
        assert!(s.starts_with("78886090522101180541"));
        // 5^100 mod 10^7 = 6640625 (verified by modular exponentiation).
        assert!(s.ends_with("6640625"), "{}", &s[s.len() - 10..]);
    }

    #[test]
    fn divmod_small_steps() {
        let mut b = BigUint::from_u64(1_234_567_890_123);
        let r = b.divmod_small(POW10_9);
        assert_eq!(r, 567_890_123);
        assert_eq!(digits_string(b), "1234");
    }

    /// The four extreme doubles, expanded the way `dtoa` expands them:
    /// their exact digit and limb counts against the capacity.
    #[test]
    fn the_extremes_fit_the_capacity() {
        let cases = [
            // 1 × 2^-1074: 5^1074 has 751 digits.
            (5e-324, 751, 78),
            // The largest subnormal, (2^52 − 1) × 2^-1074.
            (f64::from_bits(0x000F_FFFF_FFFF_FFFF), 767, 80),
            // 2^52 × 2^-1074.
            (f64::MIN_POSITIVE, 767, 80),
            // (2^53 − 1) × 2^971.
            (f64::MAX, 309, 32),
        ];
        for (v, digits, limbs) in cases {
            let (m, e) = crate::dtoa::decompose(v);
            let mut b = BigUint::from_u64(m);
            if e < 0 {
                b.mul_pow5(e.unsigned_abs());
            } else {
                b.shl_bits(e as u32);
            }
            assert_eq!(b.len, limbs, "{v:e}");
            assert_eq!(digits_string(b).len(), digits, "{v:e}");
        }
        // The bound itself: the largest mantissa at the subnormal scale.
        let mut b = BigUint::from_u64((1u64 << 53) - 1);
        b.mul_pow5(MAX_NEG_EXP);
        assert!(b.len <= LIMBS);
        assert_eq!(digits_string(b).len(), DIGITS);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn a_product_past_the_capacity_panics() {
        let mut b = BigUint::from_u64(u64::MAX);
        b.mul_pow5(MAX_NEG_EXP + 13);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn a_shift_past_the_capacity_panics() {
        let mut b = BigUint::from_u64(u64::MAX);
        b.shl_bits(LIMBS as u32 * 32);
    }
}
