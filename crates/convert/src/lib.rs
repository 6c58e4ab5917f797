//! # bsoap-convert — number ↔ ASCII conversion substrate
//!
//! The HPDC 2004 differential-serialization paper identifies the conversion
//! between in-memory numbers and their ASCII (XML) representations as the
//! dominant cost of a SOAP call — "90% of end-to-end time" (§2). This crate
//! is that substrate, built from scratch:
//!
//! * [`itoa`] — integer → ASCII with a two-digit lookup table,
//! * [`dtoa`] — `f64` → shortest round-trip decimal: the exact expansion of
//!   every digit plus a reparse-verified search for the shortest rounding (a
//!   Dragon-style algorithm, the pinned `Exact2004` cost model; see module
//!   docs), on fixed stack buffers with no heap, as in a C `sprintf`,
//! * [`grisu`] — the fast-path `f64` kernel: Grisu3 over a precomputed
//!   power-of-ten table, byte-identical to [`dtoa`] with an exact fallback
//!   on the rare uncertain cases; selected via [`FloatFormatter`],
//! * [`widths`] — the *maximum serialized width* metadata the paper's
//!   stuffing technique depends on (int = 11 chars, double = 24 chars,
//!   MIO = 46 chars), plus field-padding helpers,
//! * [`parse`] — the reverse conversions used by the deserializer.
//!
//! All encodings follow the XML Schema lexical spaces used by SOAP 1.1
//! section-5 encoding (`xsd:int`, `xsd:double`, `xsd:boolean`).
//!
//! ## Guarantees
//!
//! * `dtoa` output always re-parses to the exact same `f64` bit pattern
//!   (property-tested over the full domain, including subnormals),
//! * `dtoa` output never exceeds [`widths::DOUBLE_MAX_WIDTH`] (24) bytes,
//! * a double conversion under either kernel allocates nothing
//!   (`tests/alloc_budget.rs` in the workspace root counts it),
//! * `itoa` output never exceeds [`widths::INT_MAX_WIDTH`] (11) bytes for
//!   `i32` and [`widths::LONG_MAX_WIDTH`] (20) for `i64`.

#![deny(unsafe_op_in_unsafe_fn)]

mod bignum;
pub mod dtoa;
pub mod grisu;
pub mod itoa;
pub mod parse;
pub mod widths;

pub use dtoa::{format_f64, write_f64};
pub use grisu::{format_f64_fast, write_f64_fast, FloatFormatter};
pub use itoa::{
    digit_count_u32, digit_count_u64, format_i32, format_i64, format_u64, write_i32,
    write_i32_branchless, write_i32_with, write_i64, write_i64_branchless, write_i64_with,
    write_u64, write_u64_branchless,
};
pub use widths::{
    pad_spaces, pad_spaces_wide, pad_spaces_with, ScalarKind, BOOL_MAX_WIDTH, DOUBLE_MAX_WIDTH,
    INT_MAX_WIDTH, LONG_MAX_WIDTH, MIO_MAX_WIDTH, MIO_MIN_WIDTH,
};

/// Write a boolean in `xsd:boolean` lexical form (`true` / `false`).
///
/// Returns the number of bytes written (4 or 5).
#[inline]
pub fn write_bool(buf: &mut [u8], v: bool) -> usize {
    let s: &[u8] = if v { b"true" } else { b"false" };
    buf[..s.len()].copy_from_slice(s);
    s.len()
}

/// Format a boolean as its `xsd:boolean` lexical form.
pub fn format_bool(v: bool) -> &'static str {
    if v {
        "true"
    } else {
        "false"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bool_lexical_forms() {
        let mut buf = [0u8; 8];
        let n = write_bool(&mut buf, true);
        assert_eq!(&buf[..n], b"true");
        let n = write_bool(&mut buf, false);
        assert_eq!(&buf[..n], b"false");
        assert_eq!(format_bool(true), "true");
        assert_eq!(format_bool(false), "false");
    }

    #[test]
    fn bool_width_bound() {
        assert!("false".len() <= BOOL_MAX_WIDTH);
        assert!("true".len() <= BOOL_MAX_WIDTH);
    }
}
