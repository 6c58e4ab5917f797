//! The exact kernel's bytes, pinned to a recorded digest.
//!
//! `Fast` falls back to the exact kernel on every case Grisu3 cannot
//! certify, so the Fast-vs-Exact properties in `prop_convert.rs` cannot see
//! a change that moves both kernels at once. std cannot be the oracle
//! either: its shortest `{:e}` breaks exact half-way ties the other way
//! (`2^-25`), which this kernel rounds to even. What holds the bytes still
//! is this digest: FNV-1a-64 over every output's length and bytes, across
//! the fixed corpus in `corpus/mod.rs`, recorded before the kernel's
//! allocation-free rewrite and unchanged by it.
//!
//! A deliberate change to the kernel's output is a change to `DIGEST`, and
//! needs its own argument for why the new bytes are right.

mod corpus;

use bsoap_convert::dtoa;

/// Values in the corpus; a corpus edit changes this before the digest.
const VALUES: usize = 1_078_870;
/// FNV-1a-64 of the exact kernel's output over the corpus.
const DIGEST: u64 = 0x8B9A_F993_8307_3DCE;

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

#[test]
fn the_exact_kernel_prints_the_recorded_bytes() {
    let values = corpus::corpus();
    assert_eq!(values.len(), VALUES, "the corpus changed");
    let mut buf = [0u8; dtoa::MAX_LEN];
    let mut hash = FNV_OFFSET;
    for &v in &values {
        let n = dtoa::write_f64(&mut buf, v);
        hash = fnv1a(hash, &[n as u8]);
        hash = fnv1a(hash, &buf[..n]);
    }
    assert_eq!(hash, DIGEST, "digest 0x{hash:016X}");
}

/// `2^-25 = 2.98023223876953125E-8` exactly: its 17-digit rounding is a
/// tie, broken to even. std's `{:e}` prints `2.9802322387695313e-8`.
#[test]
fn an_exact_tie_rounds_to_even() {
    let v = f64::from_bits(0x3E60_0000_0000_0000);
    assert_eq!(dtoa::format_f64(v), "2.9802322387695312E-8");
}
