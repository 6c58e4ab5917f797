//! Minimal arbitrary-precision unsigned integer used by the exact `dtoa`
//! digit generator.
//!
//! A finite `f64` decomposes as `m × 2^e` with `m < 2^53`. Its exact decimal
//! expansion is obtained without division by observing that
//!
//! * for `e ≥ 0`, the value is the integer `m << e` (≤ ~309 digits),
//! * for `e < 0`, `m × 2^e = (m × 5^|e|) × 10^e`, so the decimal *digits* of
//!   the value are exactly the digits of the integer `m × 5^|e|` with the
//!   decimal point shifted left by `|e|` places (`5^1074` is ~2,500 bits —
//!   comfortably in range for a small limb vector).
//!
//! The only operations required are therefore: construct from `u64`, multiply
//! by a small constant, shift left by bits, and convert to decimal digits by
//! repeated division by 10⁹. All are implemented here on a little-endian
//! `u32`-limb vector.

/// Arbitrary-precision unsigned integer with little-endian `u32` limbs.
///
/// The representation is normalized: the most significant limb is non-zero
/// unless the value is zero (in which case `limbs` is empty).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BigUint {
    limbs: Vec<u32>,
}

/// Largest power of five that fits in a `u32`: 5¹³ = 1,220,703,125.
const POW5_13: u32 = 1_220_703_125;
/// 10⁹, the radix used when extracting decimal digits nine at a time.
const POW10_9: u32 = 1_000_000_000;

impl BigUint {
    /// The value zero.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// Construct from a `u64`.
    pub fn from_u64(v: u64) -> Self {
        let mut limbs = Vec::with_capacity(2);
        if v != 0 {
            limbs.push(v as u32);
            if v >> 32 != 0 {
                limbs.push((v >> 32) as u32);
            }
        }
        BigUint { limbs }
    }

    /// True when the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    fn trim(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// In-place multiply by a small constant.
    pub fn mul_small(&mut self, rhs: u32) {
        if rhs == 0 {
            self.limbs.clear();
            return;
        }
        let mut carry: u64 = 0;
        for limb in self.limbs.iter_mut() {
            let prod = *limb as u64 * rhs as u64 + carry;
            *limb = prod as u32;
            carry = prod >> 32;
        }
        while carry != 0 {
            self.limbs.push(carry as u32);
            carry >>= 32;
        }
    }

    /// In-place multiply by `5^k`.
    pub fn mul_pow5(&mut self, mut k: u32) {
        while k >= 13 {
            self.mul_small(POW5_13);
            k -= 13;
        }
        if k > 0 {
            self.mul_small(5u32.pow(k));
        }
    }

    /// In-place shift left by `k` bits (multiply by `2^k`).
    pub fn shl_bits(&mut self, k: u32) {
        if self.is_zero() || k == 0 {
            return;
        }
        let limb_shift = (k / 32) as usize;
        let bit_shift = k % 32;
        if bit_shift == 0 {
            let mut new = vec![0u32; limb_shift];
            new.extend_from_slice(&self.limbs);
            self.limbs = new;
            return;
        }
        let n = self.limbs.len();
        let mut new = vec![0u32; n + limb_shift + 1];
        for (i, &limb) in self.limbs.iter().enumerate() {
            let wide = (limb as u64) << bit_shift;
            new[i + limb_shift] |= wide as u32;
            new[i + limb_shift + 1] |= (wide >> 32) as u32;
        }
        self.limbs = new;
        self.trim();
    }

    /// In-place divide by a small constant; returns the remainder.
    pub fn divmod_small(&mut self, rhs: u32) -> u32 {
        debug_assert!(rhs != 0);
        let mut rem: u64 = 0;
        for limb in self.limbs.iter_mut().rev() {
            let cur = (rem << 32) | *limb as u64;
            *limb = (cur / rhs as u64) as u32;
            rem = cur % rhs as u64;
        }
        self.trim();
        rem as u32
    }

    /// Convert to decimal ASCII digits, most significant first, with no
    /// leading zeros. Returns an empty vector for zero.
    pub fn to_decimal_digits(mut self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        // Extract nine digits per division by 10^9, least significant group
        // first, then reverse.
        let mut groups: Vec<u32> = Vec::with_capacity(self.limbs.len() * 2);
        while !self.is_zero() {
            groups.push(self.divmod_small(POW10_9));
        }
        let mut digits = Vec::with_capacity(groups.len() * 9);
        // The most significant group prints without zero padding.
        let mut iter = groups.iter().rev();
        if let Some(&first) = iter.next() {
            let mut tmp = [0u8; 10];
            let n = crate::itoa::write_u64(&mut tmp, first as u64);
            digits.extend_from_slice(&tmp[..n]);
        }
        for &g in iter {
            // Remaining groups print as exactly nine zero-padded digits.
            let mut v = g;
            let start = digits.len();
            digits.resize(start + 9, b'0');
            for slot in (0..9).rev() {
                digits[start + slot] = b'0' + (v % 10) as u8;
                v /= 10;
            }
        }
        digits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digits_string(b: BigUint) -> String {
        String::from_utf8(b.to_decimal_digits()).unwrap()
    }

    #[test]
    fn zero_round_trip() {
        assert!(BigUint::zero().is_zero());
        assert!(BigUint::from_u64(0).is_zero());
        assert!(BigUint::zero().to_decimal_digits().is_empty());
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
        let mut b = BigUint::zero();
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

    #[test]
    fn subnormal_scale_capacity() {
        // The largest scale dtoa ever needs: 5^1074 times a 53-bit mantissa.
        let mut b = BigUint::from_u64((1u64 << 53) - 1);
        b.mul_pow5(1074);
        let digits = b.to_decimal_digits();
        // 5^1074 has 751 digits; times ~9e15 gives 766-767 digits.
        assert!(
            digits.len() >= 760 && digits.len() <= 770,
            "{}",
            digits.len()
        );
    }
}
