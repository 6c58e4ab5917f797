//! Which SIMD level the byte kernels run at: none, and nothing chooses.
//!
//! Each byte loop of the engine — escape scanning (`bsoap-xml`), integer
//! digits and space padding (`bsoap-convert`), gap shifting
//! (`bsoap-chunks`) — has one safe scalar implementation, so there is no
//! dispatch, no knob and no environment lever (DESIGN.md §3.11). No
//! product crate depends on this one; it stays only because the pinned
//! benchmark records [`detected_level`] in its provenance block.

#![forbid(unsafe_code)]

/// The SIMD instruction level a byte kernel uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Scalar only — the one level there is.
    None,
}

/// The SIMD level the byte kernels run at: always [`SimdLevel::None`].
#[doc(hidden)]
pub fn detected_level() -> SimdLevel {
    SimdLevel::None
}
