//! Kernel dispatch substrate: which byte-kernel implementation runs.
//!
//! The hot per-byte loops of the engine — XML escape scanning
//! (`bsoap-xml`), width-stuffed integer encoding (`bsoap-convert`) and
//! coalesced gap shifting (`bsoap-chunks`) — each exist in two forms: a
//! portable scalar implementation (the *oracle*: always available, always
//! correct, the reference the property tests compare against) and a wide
//! SIMD/branchless form gated on runtime CPU-feature detection.
//!
//! This crate owns the three pieces every kernel crate shares:
//!
//! * [`KernelPolicy`] — the engine-facing knob (`Auto` / `Scalar`),
//!   carried on `EngineConfig` and threaded down to each kernel call site;
//! * [`resolve`] — policy → [`SimdLevel`], combining the policy with
//!   cached CPU detection and the `BSOAP_KERNEL=scalar` environment lever
//!   (stands in for a build where only the scalar kernels exist; it can
//!   only narrow a resolution, never widen one);
//! * the process-global SIMD hit counter ([`record_simd_hits`] /
//!   [`take_simd_hits`]) that `bsoap-core` folds into the
//!   `SimdKernelHits` observability counter once per flush.
//!
//! Dispatch is deliberately *coarse*: callers resolve once per string /
//! field / shift pass, never per byte, so the scalar fallback pays one
//! relaxed atomic load and no indirect calls.

#![deny(unsafe_op_in_unsafe_fn)]

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;

/// Which byte-kernel implementations the engine may use.
///
/// The scalar code is always compiled and always correct; SIMD paths are
/// byte-identical accelerations proven by differential property tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum KernelPolicy {
    /// Use the widest SIMD level the CPU supports (scalar when none).
    #[default]
    Auto,
    /// Scalar kernels only — the differential oracle and the safe
    /// operating point on any platform.
    Scalar,
}

/// The SIMD instruction level a resolved kernel call may use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Scalar only.
    None,
    /// 16-byte SSE2 lanes (baseline on `x86_64`).
    Sse2,
    /// 32-byte AVX2 lanes (runtime-detected).
    Avx2,
}

impl SimdLevel {
    /// True when any SIMD path may run.
    #[inline]
    pub fn is_simd(self) -> bool {
        self != SimdLevel::None
    }
}

/// Cached CPU detection: 0 = undetected, else `SimdLevel as u8 + 1`.
static DETECTED: AtomicU8 = AtomicU8::new(0);

fn detect_uncached() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        // SSE2 is part of the x86_64 baseline; AVX2 needs a runtime check.
        if std::arch::is_x86_feature_detected!("avx2") {
            SimdLevel::Avx2
        } else {
            SimdLevel::Sse2
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        SimdLevel::None
    }
}

/// The widest SIMD level this CPU supports (cached after the first call).
#[inline]
pub fn detected_level() -> SimdLevel {
    match DETECTED.load(Ordering::Relaxed) {
        0 => {
            let lvl = detect_uncached();
            DETECTED.store(lvl as u8 + 1, Ordering::Relaxed);
            lvl
        }
        1 => SimdLevel::None,
        2 => SimdLevel::Sse2,
        _ => SimdLevel::Avx2,
    }
}

/// The process lever: `BSOAP_KERNEL=scalar` (read once per process;
/// every other value is ignored) makes every resolution scalar.
fn env_forces_scalar() -> bool {
    static FORCED: OnceLock<bool> = OnceLock::new();
    *FORCED.get_or_init(|| {
        std::env::var("BSOAP_KERNEL").is_ok_and(|v| v.trim().eq_ignore_ascii_case("scalar"))
    })
}

/// The dispatch rule as a pure function: scalar when the process lever or
/// the policy says so, otherwise whatever the CPU offers. Neither input
/// can raise the level above `detected`.
#[inline]
fn resolve_with(force_scalar: bool, policy: KernelPolicy, detected: SimdLevel) -> SimdLevel {
    if force_scalar || policy == KernelPolicy::Scalar {
        SimdLevel::None
    } else {
        detected
    }
}

/// Resolve a policy to the SIMD level a kernel call may use right now:
/// scalar when `BSOAP_KERNEL=scalar` or the policy says so, otherwise the
/// cached detection.
/// The variable only narrows — an explicit [`KernelPolicy::Scalar`] (the
/// oracle side of every differential suite) stays scalar whatever it says.
#[inline]
pub fn resolve(policy: KernelPolicy) -> SimdLevel {
    resolve_with(env_forces_scalar(), policy, detected_level())
}

/// Process-global count of SIMD kernel invocations (escape scans, stuffed
/// integer encodes, vectorized shift passes). Monotone; scooped by
/// [`take_simd_hits`].
static SIMD_HITS: AtomicU64 = AtomicU64::new(0);

/// Record `n` SIMD kernel invocations. Called by the kernel crates once
/// per call that took a SIMD path (not per lane or block).
#[inline]
pub fn record_simd_hits(n: u64) {
    if n > 0 {
        SIMD_HITS.fetch_add(n, Ordering::Relaxed);
    }
}

/// Take-and-reset the global SIMD hit count. `bsoap-core` calls this once
/// per flush (and per first-time build) to fold the delta into the
/// `SimdKernelHits` metric; swap semantics mean every hit is attributed
/// exactly once even with concurrent engines (per-engine attribution is
/// then approximate, the process total exact).
#[inline]
pub fn take_simd_hits() -> u64 {
    SIMD_HITS.swap(0, Ordering::Relaxed)
}

/// Current un-scooped SIMD hit count (test support; does not reset).
#[inline]
pub fn peek_simd_hits() -> u64 {
    SIMD_HITS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_table() {
        use KernelPolicy::{Auto, Scalar};
        for detected in [SimdLevel::None, SimdLevel::Sse2, SimdLevel::Avx2] {
            for (force, policy, want) in [
                (false, Auto, detected),
                (false, Scalar, SimdLevel::None),
                (true, Auto, SimdLevel::None),
                (true, Scalar, SimdLevel::None),
            ] {
                let got = resolve_with(force, policy, detected);
                assert_eq!(got, want, "{force} {policy:?} {detected:?}");
            }
        }
    }

    #[test]
    fn scalar_policy_resolves_none_under_any_environment() {
        assert_eq!(resolve(KernelPolicy::Scalar), SimdLevel::None);
        assert!(resolve(KernelPolicy::Auto) <= detected_level());
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn x86_64_detects_at_least_sse2() {
        assert!(detected_level() >= SimdLevel::Sse2);
    }

    #[test]
    fn hits_roundtrip() {
        take_simd_hits();
        record_simd_hits(3);
        record_simd_hits(0); // no-op
        assert!(peek_simd_hits() >= 3);
        let taken = take_simd_hits();
        assert!(taken >= 3);
    }

    #[test]
    fn level_ordering() {
        assert!(SimdLevel::None < SimdLevel::Sse2);
        assert!(SimdLevel::Sse2 < SimdLevel::Avx2);
        assert!(!SimdLevel::None.is_simd());
        assert!(SimdLevel::Avx2.is_simd());
    }
}
