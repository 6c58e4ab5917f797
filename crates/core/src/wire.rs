//! The compact binary wire framing (§ DESIGN 3.15).
//!
//! Layout of a binary envelope:
//!
//! ```text
//! "BSB1"                                  magic
//! [u16 LE op-name len][op-name bytes]     operation identity
//! [u8 param count]
//! per parameter, in schema order:
//!   scalar   [tag][fixed-width LE payload]
//!   struct   STRUCT_BEGIN fields... STRUCT_END
//!   array    ARRAY_BEGIN [int leaf = element count] elements... ARRAY_END
//! END
//! ```
//!
//! Every scalar leaf is one tagged record. Numeric payloads are
//! fixed-width little-endian — an int leaf is always exactly 5 bytes on
//! the wire no matter its value — so a differential rewrite of a numeric
//! leaf is always a same-length overwrite: no stuffing, no stealing, no
//! shifting. Strings are length-prefixed (`[TAG_STR][u32 LE len][bytes]`)
//! and may still shift on growth, exactly like XML strings.
//!
//! The DUT pad byte is the space (`0x20`), shared with the XML lane: when
//! a string leaf shrinks inside its allocated width the patch machinery
//! pads the region with spaces. No tag or marker byte is `0x20`, so a
//! decoder that skips pad bytes wherever a tag is expected is
//! unambiguous.

use crate::value::Scalar;

/// Magic prefix of every binary envelope.
pub const MAGIC: &[u8; 4] = b"BSB1";

/// Leaf tags (one per [`bsoap_convert::ScalarKind`]).
pub const TAG_INT: u8 = 0x01;
/// `i64`, 8-byte LE payload.
pub const TAG_LONG: u8 = 0x02;
/// `f64` bit pattern, 8-byte LE payload.
pub const TAG_DOUBLE: u8 = 0x03;
/// 1-byte payload, `0` or `1`.
pub const TAG_BOOL: u8 = 0x04;
/// `[u32 LE len][len bytes]` payload (unescaped UTF-8).
pub const TAG_STR: u8 = 0x05;

/// Structural markers.
pub const ARRAY_BEGIN: u8 = 0x06;
/// Closes an [`ARRAY_BEGIN`].
pub const ARRAY_END: u8 = 0x07;
/// Opens a struct (top-level param or array element).
pub const STRUCT_BEGIN: u8 = 0x08;
/// Closes a [`STRUCT_BEGIN`].
pub const STRUCT_END: u8 = 0x09;
/// Terminates the envelope.
pub const END: u8 = 0x0B;

/// The DUT pad byte (shared with the XML lane's stuffing whitespace).
/// Decoders skip any run of these wherever a tag byte is expected.
pub const PAD: u8 = b' ';

/// Append `value` to `out` as one tagged record: fixed-width
/// little-endian for numerics,
/// `[tag][u32 LE len][bytes]` for strings (unescaped).
///
/// A numeric leaf's serialized length never varies with its value, so a
/// differential rewrite is always an in-place overwrite.
pub fn write_leaf(out: &mut Vec<u8>, value: &Scalar) {
    match value {
        Scalar::Int(v) => {
            out.push(TAG_INT);
            out.extend_from_slice(&v.to_le_bytes());
        }
        Scalar::Long(v) => {
            out.push(TAG_LONG);
            out.extend_from_slice(&v.to_le_bytes());
        }
        Scalar::Double(v) => {
            out.push(TAG_DOUBLE);
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        Scalar::Bool(v) => {
            out.push(TAG_BOOL);
            out.push(u8::from(*v));
        }
        Scalar::Str(s) => {
            out.push(TAG_STR);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
    }
}

/// Append the envelope prologue (magic, op name, param count).
pub fn write_prologue(out: &mut Vec<u8>, op_name: &str, params: usize) {
    out.extend_from_slice(MAGIC);
    let name = op_name.as_bytes();
    debug_assert!(name.len() <= u16::MAX as usize);
    out.extend_from_slice(&(name.len() as u16).to_le_bytes());
    out.extend_from_slice(name);
    debug_assert!(params <= u8::MAX as usize);
    out.push(params as u8);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_marker_collides_with_pad() {
        for b in [
            TAG_INT,
            TAG_LONG,
            TAG_DOUBLE,
            TAG_BOOL,
            TAG_STR,
            ARRAY_BEGIN,
            ARRAY_END,
            STRUCT_BEGIN,
            STRUCT_END,
            END,
        ] {
            assert_ne!(b, PAD, "pad-skip would be ambiguous");
        }
    }

    #[test]
    fn numeric_leaves_are_fixed_width() {
        let record = |value: Scalar| {
            let mut out = Vec::new();
            write_leaf(&mut out, &value);
            out
        };
        for v in [0, 1, -1, i32::MIN, i32::MAX] {
            let out = record(Scalar::Int(v));
            assert_eq!(out.len(), 5, "int {v}");
            assert_eq!(out[0], TAG_INT);
        }
        for v in [0.0, -0.5, f64::NAN, f64::MAX] {
            assert_eq!(record(Scalar::Double(v)).len(), 9, "double {v}");
        }
        assert_eq!(record(Scalar::Long(i64::MIN)).len(), 9);
        // Records append: a plan's blob is many of them back to back.
        let mut out = record(Scalar::Bool(true));
        assert_eq!(out, [TAG_BOOL, 1]);
        write_leaf(&mut out, &Scalar::Bool(false));
        assert_eq!(out, [TAG_BOOL, 1, TAG_BOOL, 0]);
        let out = record(Scalar::Str("a<b".into()));
        // Strings are length-prefixed and NOT escaped on the binary lane.
        assert_eq!(out[0], TAG_STR);
        assert_eq!(out[1..5], 3u32.to_le_bytes());
        assert_eq!(&out[5..], b"a<b");
    }

    #[test]
    fn prologue_layout() {
        let mut out = Vec::new();
        write_prologue(&mut out, "sum", 2);
        assert_eq!(&out[..4], MAGIC);
        assert_eq!(out[4..6], 3u16.to_le_bytes());
        assert_eq!(&out[6..9], b"sum");
        assert_eq!(out[9], 2);
    }
}
