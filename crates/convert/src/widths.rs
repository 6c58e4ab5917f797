//! Maximum-serialized-width metadata and field padding.
//!
//! The paper's *stuffing* technique (§3.2, §4.4) allocates each field its
//! type's maximum possible serialized width so updates never shift. These
//! are the widths the paper quotes:
//!
//! * `xsd:int` — 11 characters (`-2147483648`),
//! * `xsd:double` — 24 characters (e.g. `-2.2250738585072014E-308`),
//! * a MIO (`[int, int, double]`, §4.1) — 46 characters of values
//!   (11 + 11 + 24), with a minimum of 3 (`1`,`1`,`1`).
//!
//! Strings have no maximum ("there is no maximum size string" — paper
//! footnote 2) and therefore can never be stuffed.

/// Maximum serialized width of an `xsd:int` (`i32`): `-2147483648`.
pub const INT_MAX_WIDTH: usize = 11;
/// Maximum serialized width of an `xsd:long` (`i64`): `-9223372036854775808`.
pub const LONG_MAX_WIDTH: usize = 20;
/// Maximum serialized width of an `xsd:double` produced by [`crate::dtoa`].
///
/// Worst case is sign + 17 significant digits + decimal point + `E-` + a
/// three-digit exponent, e.g. `-2.2250738585072011E-308`.
pub const DOUBLE_MAX_WIDTH: usize = 24;
/// Maximum serialized width of an `xsd:boolean` (`false`).
pub const BOOL_MAX_WIDTH: usize = 5;
/// Maximum *value* width of a mesh interface object `[int, int, double]`
/// (paper §4.3: "the largest possible MIO (46 characters)").
pub const MIO_MAX_WIDTH: usize = INT_MAX_WIDTH + INT_MAX_WIDTH + DOUBLE_MAX_WIDTH;
/// Minimum *value* width of a MIO (paper §4.3: "the smallest possible MIO
/// (three characters)").
pub const MIO_MIN_WIDTH: usize = 3;

/// The scalar leaf kinds the serialization engine distinguishes.
///
/// Each kind knows its maximum serialized width — the datum the paper's DUT
/// table stores via "a pointer to a data structure that contains information
/// about the data item's type, including the maximum size of its serialized
/// form" (§3.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ScalarKind {
    /// `xsd:int` (`i32`).
    Int,
    /// `xsd:long` (`i64`).
    Long,
    /// `xsd:double` (`f64`).
    Double,
    /// `xsd:boolean`.
    Bool,
    /// `xsd:string` — unbounded; cannot be stuffed.
    Str,
}

impl ScalarKind {
    /// Maximum serialized width, or `None` for unbounded kinds (strings).
    pub fn max_width(self) -> Option<usize> {
        match self {
            ScalarKind::Int => Some(INT_MAX_WIDTH),
            ScalarKind::Long => Some(LONG_MAX_WIDTH),
            ScalarKind::Double => Some(DOUBLE_MAX_WIDTH),
            ScalarKind::Bool => Some(BOOL_MAX_WIDTH),
            ScalarKind::Str => None,
        }
    }

    /// The `xsi:type` attribute value for this kind.
    pub fn xsi_type(self) -> &'static str {
        match self {
            ScalarKind::Int => "xsd:int",
            ScalarKind::Long => "xsd:long",
            ScalarKind::Double => "xsd:double",
            ScalarKind::Bool => "xsd:boolean",
            ScalarKind::Str => "xsd:string",
        }
    }
}

/// Fill `buf` with ASCII spaces — the whitespace stuffing primitive.
///
/// Whitespace between an element's closing tag and the next opening tag "is
/// explicitly legal in XML (and therefore SOAP)" (paper §3).
#[inline]
pub fn pad_spaces(buf: &mut [u8]) {
    buf.fill(b' ');
}

/// Wide-store space fill: pads a stuffed field in at most two overlapping
/// unaligned stores for every width up to 32 bytes (every stuffed scalar —
/// the widest field is a 24-byte double), instead of a length-dispatched
/// `memset`. Byte-identical to [`pad_spaces`].
///
/// Uses plain `u64`/`u128` unaligned stores, which lower to `movups`-class
/// instructions on x86_64 and stay portable elsewhere.
#[inline]
pub fn pad_spaces_wide(buf: &mut [u8]) {
    const SP8: u64 = 0x2020_2020_2020_2020;
    const SP16: u128 = (SP8 as u128) << 64 | SP8 as u128;
    let len = buf.len();
    if len < 8 {
        buf.fill(b' ');
        return;
    }
    let p = buf.as_mut_ptr();
    // SAFETY: `len >= 8` here, so stores at offsets 0 and `len - 8` (and,
    // in the ≥16 branches, `i + 16 <= len` and `len - 16`) are all fully
    // inside `buf`. Overlap between the paired stores is harmless — both
    // write the same byte pattern.
    unsafe {
        if len <= 16 {
            (p as *mut u64).write_unaligned(SP8);
            (p.add(len - 8) as *mut u64).write_unaligned(SP8);
        } else {
            let mut i = 0;
            while i + 16 <= len {
                (p.add(i) as *mut u128).write_unaligned(SP16);
                i += 16;
            }
            (p.add(len - 16) as *mut u128).write_unaligned(SP16);
        }
    }
}

/// Policy-dispatched space fill: the wide-store kernel when `policy`
/// resolves to a SIMD level, plain `memset` otherwise.
#[inline]
pub fn pad_spaces_with(buf: &mut [u8], policy: bsoap_kernels::KernelPolicy) {
    if bsoap_kernels::resolve(policy).is_simd() {
        if buf.len() >= 8 {
            bsoap_kernels::record_simd_hits(1);
        }
        pad_spaces_wide(buf);
    } else {
        pad_spaces(buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_width_constants() {
        assert_eq!(INT_MAX_WIDTH, 11);
        assert_eq!(DOUBLE_MAX_WIDTH, 24);
        assert_eq!(MIO_MAX_WIDTH, 46);
        assert_eq!(MIO_MIN_WIDTH, 3);
    }

    #[test]
    fn max_width_by_kind() {
        assert_eq!(ScalarKind::Int.max_width(), Some(11));
        assert_eq!(ScalarKind::Long.max_width(), Some(20));
        assert_eq!(ScalarKind::Double.max_width(), Some(24));
        assert_eq!(ScalarKind::Bool.max_width(), Some(5));
        assert_eq!(ScalarKind::Str.max_width(), None);
    }

    #[test]
    fn xsi_types() {
        assert_eq!(ScalarKind::Double.xsi_type(), "xsd:double");
        assert_eq!(ScalarKind::Int.xsi_type(), "xsd:int");
    }

    #[test]
    fn pad_fills_spaces() {
        let mut buf = [0u8; 7];
        pad_spaces(&mut buf);
        assert_eq!(&buf, b"       ");
    }

    #[test]
    fn wide_pad_matches_scalar_for_every_stuffed_width() {
        // 0..=64 covers every pad a stuffed field can need (max field is a
        // 24-byte double; 64 exercises the loop + overlapping tail).
        for len in 0..=64usize {
            let mut scalar = vec![0xAAu8; len + 2];
            let mut wide = vec![0xAAu8; len + 2];
            pad_spaces(&mut scalar[1..1 + len]);
            pad_spaces_wide(&mut wide[1..1 + len]);
            assert_eq!(scalar, wide, "len {len}");
            // Guard bytes untouched on both sides.
            assert_eq!(wide[0], 0xAA);
            assert_eq!(wide[len + 1], 0xAA);
        }
    }

    #[test]
    fn pad_dispatch_matches_under_both_policies() {
        use bsoap_kernels::KernelPolicy;
        for len in [0usize, 5, 8, 11, 16, 23, 24, 33] {
            let mut a = vec![0u8; len];
            let mut b = vec![0u8; len];
            pad_spaces_with(&mut a, KernelPolicy::Scalar);
            pad_spaces_with(&mut b, KernelPolicy::Auto);
            assert_eq!(a, b, "len {len}");
            assert!(a.iter().all(|&c| c == b' '));
        }
    }
}
