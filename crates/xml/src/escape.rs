//! XML character escaping and entity resolution.
//!
//! Numeric leaf values (the hot path of the paper) never need escaping —
//! the engine writes them raw. Escaping is only on the string path and in
//! the baseline serializers, but it must still be correct and allocation
//! conscious: both escape directions work into caller-provided buffers.
//!
//! ## Kernel dispatch
//!
//! The escape scan is one of the engine's three byte kernels (DESIGN.md
//! §3.11): [`find_special`] locates the next byte needing escaping 16 or
//! 32 bytes per iteration (SSE2/AVX2 splat-compare + movemask) and the
//! escape functions bulk-copy the clean run between specials. The scalar
//! predicate [`Charset::contains`] is the oracle; the SIMD mask is built
//! from exactly the same byte set, and property tests assert the two
//! paths agree on every input, including UTF-8 sequences straddling the
//! 16/32-byte block boundaries (multi-byte UTF-8 is ≥ `0x80`, so no
//! continuation byte can collide with an ASCII special).

use bsoap_kernels::{resolve, KernelPolicy, SimdLevel};

/// Error from [`unescape`]: a malformed or unknown entity reference.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EscapeError {
    /// Byte offset of the offending `&`.
    pub at: usize,
}

impl std::fmt::Display for EscapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed entity reference at byte {}", self.at)
    }
}

impl std::error::Error for EscapeError {}

/// Which escape context a scan serves. Each variant is a fixed byte set;
/// the scalar predicate here is the oracle the SIMD masks must match.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Charset {
    /// Text content: `&`, `<`, `>`, `\r`.
    ///
    /// `>` only strictly needs escaping in the `]]>` sequence but escaping
    /// it unconditionally is the norm for SOAP toolkits. `\r` must be
    /// escaped as a character reference because XML parsers normalize
    /// literal carriage returns in content to `\n` (canonical-XML safety).
    Text,
    /// Double-quoted attribute values: `&`, `<`, `"`, `\t`, `\n`, `\r`.
    Attr,
}

impl Charset {
    /// The bytes this charset escapes (the SIMD compare constants).
    pub fn specials(self) -> &'static [u8] {
        match self {
            Charset::Text => b"&<>\r",
            Charset::Attr => b"&<\"\t\n\r",
        }
    }

    /// Scalar predicate: does `b` need escaping in this context?
    #[inline]
    pub fn contains(self, b: u8) -> bool {
        match self {
            Charset::Text => matches!(b, b'&' | b'<' | b'>' | b'\r'),
            Charset::Attr => matches!(b, b'&' | b'<' | b'"' | b'\t' | b'\n' | b'\r'),
        }
    }

    /// Replacement entity for a byte this charset escapes.
    fn replacement(self, b: u8) -> &'static [u8] {
        match b {
            b'&' => b"&amp;",
            b'<' => b"&lt;",
            b'>' => b"&gt;",
            b'"' => b"&quot;",
            b'\t' => b"&#9;",
            b'\n' => b"&#10;",
            b'\r' => b"&#13;",
            _ => unreachable!("not a special byte"),
        }
    }
}

/// Index of the first byte of `hay` needing escaping under `set`, with
/// explicit kernel selection. `None` means the whole slice is clean.
#[inline]
pub fn find_special_at(hay: &[u8], set: Charset, level: SimdLevel) -> Option<usize> {
    #[cfg(target_arch = "x86_64")]
    {
        if level >= SimdLevel::Avx2 && hay.len() >= 32 {
            // SAFETY: AVX2 presence was runtime-detected by `resolve`.
            return unsafe { simd::find_special_avx2(hay, set) };
        }
        if level >= SimdLevel::Sse2 && hay.len() >= 16 {
            // SAFETY: SSE2 is part of the x86_64 baseline.
            return unsafe { simd::find_special_sse2(hay, set) };
        }
    }
    let _ = level;
    hay.iter().position(|&b| set.contains(b))
}

/// Index of the first byte needing escaping under `set`, resolving the
/// kernel from `policy` (the scanner the template build escapes through).
#[inline]
pub fn find_special(hay: &[u8], set: Charset, policy: KernelPolicy) -> Option<usize> {
    find_special_at(hay, set, resolve(policy))
}

/// Shared escape loop: scan for specials, bulk-copy clean runs.
fn escape_into(out: &mut Vec<u8>, bytes: &[u8], set: Charset, policy: KernelPolicy) {
    let level = resolve(policy);
    if level.is_simd() && bytes.len() >= 16 {
        bsoap_kernels::record_simd_hits(1);
    }
    let mut pos = 0;
    while pos < bytes.len() {
        match find_special_at(&bytes[pos..], set, level) {
            None => break,
            Some(i) => {
                out.extend_from_slice(&bytes[pos..pos + i]);
                out.extend_from_slice(set.replacement(bytes[pos + i]));
                pos += i + 1;
            }
        }
    }
    out.extend_from_slice(&bytes[pos..]);
}

/// Append `text` to `out`, escaping `&`, `<`, `>` and `\r`
/// ([`Charset::Text`]), using the kernel the default policy resolves to.
pub fn escape_text_into(out: &mut Vec<u8>, text: &str) {
    escape_into(out, text.as_bytes(), Charset::Text, KernelPolicy::Auto);
}

/// [`escape_text_into`] with an explicit kernel policy (the engine
/// threads its `EngineConfig::kernel` knob through here).
pub fn escape_text_into_with(out: &mut Vec<u8>, text: &str, policy: KernelPolicy) {
    escape_into(out, text.as_bytes(), Charset::Text, policy);
}

/// Append `value` to `out`, escaped for a double-quoted attribute
/// ([`Charset::Attr`]).
pub fn escape_attr_into(out: &mut Vec<u8>, value: &str) {
    escape_into(out, value.as_bytes(), Charset::Attr, KernelPolicy::Auto);
}

/// [`escape_attr_into`] with an explicit kernel policy.
pub fn escape_attr_into_with(out: &mut Vec<u8>, value: &str, policy: KernelPolicy) {
    escape_into(out, value.as_bytes(), Charset::Attr, policy);
}

#[cfg(target_arch = "x86_64")]
mod simd {
    //! SSE2/AVX2 escape scanners.
    //!
    //! Safety argument (DESIGN.md §3.11): every load is an *unaligned*
    //! vector load fully inside `hay` — the block loop stops while
    //! `i + LANES <= hay.len()` and the remaining tail is scanned with the
    //! scalar predicate, so no byte outside the slice is ever read. The
    //! only unsafety is the intrinsics themselves, which require the
    //! corresponding target feature: SSE2 is unconditionally present on
    //! `x86_64`, AVX2 callers hold a runtime-detection proof.

    use super::Charset;
    use std::arch::x86_64::*;

    /// 16-bytes-per-iteration scanner.
    ///
    /// # Safety
    /// Requires SSE2 (always true on `x86_64`).
    #[target_feature(enable = "sse2")]
    pub unsafe fn find_special_sse2(hay: &[u8], set: Charset) -> Option<usize> {
        // SAFETY: loads are unaligned and bounded by `i + 16 <= len`.
        unsafe {
            let specials = set.specials();
            let ptr = hay.as_ptr();
            let len = hay.len();
            let mut i = 0;
            while i + 16 <= len {
                let block = _mm_loadu_si128(ptr.add(i) as *const __m128i);
                let mut hits = _mm_setzero_si128();
                for &s in specials {
                    let needle = _mm_set1_epi8(s as i8);
                    hits = _mm_or_si128(hits, _mm_cmpeq_epi8(block, needle));
                }
                let mask = _mm_movemask_epi8(hits) as u32;
                if mask != 0 {
                    return Some(i + mask.trailing_zeros() as usize);
                }
                i += 16;
            }
            hay[i..]
                .iter()
                .position(|&b| set.contains(b))
                .map(|p| i + p)
        }
    }

    /// 32-bytes-per-iteration scanner.
    ///
    /// # Safety
    /// Requires AVX2 (runtime-detected by the caller).
    #[target_feature(enable = "avx2")]
    pub unsafe fn find_special_avx2(hay: &[u8], set: Charset) -> Option<usize> {
        // SAFETY: loads are unaligned and bounded by `i + 32 <= len`; the
        // sub-32-byte tail reuses the SSE2/scalar scanner.
        unsafe {
            let specials = set.specials();
            let ptr = hay.as_ptr();
            let len = hay.len();
            let mut i = 0;
            while i + 32 <= len {
                let block = _mm256_loadu_si256(ptr.add(i) as *const __m256i);
                let mut hits = _mm256_setzero_si256();
                for &s in specials {
                    let needle = _mm256_set1_epi8(s as i8);
                    hits = _mm256_or_si256(hits, _mm256_cmpeq_epi8(block, needle));
                }
                let mask = _mm256_movemask_epi8(hits) as u32;
                if mask != 0 {
                    return Some(i + mask.trailing_zeros() as usize);
                }
                i += 32;
            }
            find_special_sse2(&hay[i..], set).map(|p| i + p)
        }
    }
}

/// Resolve entity and character references in raw character data.
///
/// Returns `Cow::Borrowed` when no references are present (the common case
/// for numeric content, keeping the differential deserializer copy-free).
pub fn unescape(raw: &[u8]) -> Result<std::borrow::Cow<'_, [u8]>, EscapeError> {
    let Some(first_amp) = raw.iter().position(|&b| b == b'&') else {
        return Ok(std::borrow::Cow::Borrowed(raw));
    };
    let mut out = Vec::with_capacity(raw.len());
    out.extend_from_slice(&raw[..first_amp]);
    let mut i = first_amp;
    while i < raw.len() {
        if raw[i] != b'&' {
            out.push(raw[i]);
            i += 1;
            continue;
        }
        let semi = raw[i..]
            .iter()
            .position(|&b| b == b';')
            .ok_or(EscapeError { at: i })?;
        let entity = &raw[i + 1..i + semi];
        match entity {
            b"amp" => out.push(b'&'),
            b"lt" => out.push(b'<'),
            b"gt" => out.push(b'>'),
            b"quot" => out.push(b'"'),
            b"apos" => out.push(b'\''),
            _ if entity.first() == Some(&b'#') => {
                let code = parse_char_ref(&entity[1..]).ok_or(EscapeError { at: i })?;
                let ch = char::from_u32(code).ok_or(EscapeError { at: i })?;
                let mut buf = [0u8; 4];
                out.extend_from_slice(ch.encode_utf8(&mut buf).as_bytes());
            }
            _ => return Err(EscapeError { at: i }),
        }
        i += semi + 1;
    }
    Ok(std::borrow::Cow::Owned(out))
}

fn parse_char_ref(body: &[u8]) -> Option<u32> {
    if let Some(hex) = body.strip_prefix(b"x") {
        if hex.is_empty() || hex.len() > 6 {
            return None;
        }
        let mut code: u32 = 0;
        for &b in hex {
            code = code * 16 + (b as char).to_digit(16)?;
        }
        Some(code)
    } else {
        if body.is_empty() || body.len() > 7 {
            return None;
        }
        let mut code: u32 = 0;
        for &b in body {
            code = code * 10 + (b as char).to_digit(10)?;
        }
        Some(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    fn escape_text(s: &str) -> String {
        let mut out = Vec::new();
        escape_text_into(&mut out, s);
        String::from_utf8(out).unwrap()
    }

    fn escape_attr(s: &str) -> String {
        let mut out = Vec::new();
        escape_attr_into(&mut out, s);
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn text_escaping() {
        assert_eq!(escape_text("plain"), "plain");
        assert_eq!(escape_text("a<b&c>d"), "a&lt;b&amp;c&gt;d");
        assert_eq!(escape_text(""), "");
        assert_eq!(escape_text("<<>>"), "&lt;&lt;&gt;&gt;");
        assert_eq!(escape_text("quotes \" stay"), "quotes \" stay");
    }

    #[test]
    fn text_escapes_carriage_return() {
        // Literal \r in content would be normalized to \n by conforming
        // XML parsers; the character reference survives round trips.
        assert_eq!(escape_text("a\rb"), "a&#13;b");
        assert_eq!(escape_text("\r\n"), "&#13;\n");
        let back = unescape(b"a&#13;b").unwrap();
        assert_eq!(back.as_ref(), b"a\rb");
    }

    #[test]
    fn attr_escaping() {
        assert_eq!(escape_attr("a\"b"), "a&quot;b");
        assert_eq!(escape_attr("tab\there"), "tab&#9;here");
        assert_eq!(escape_attr("<&"), "&lt;&amp;");
        assert_eq!(escape_attr("line\nbreak"), "line&#10;break");
        assert_eq!(escape_attr("cr\rhere"), "cr&#13;here");
    }

    #[test]
    fn simd_mask_matches_scalar_predicate() {
        // Every possible byte value, in every position of a 48-byte block,
        // for both charsets: the SIMD scanners and the scalar predicate
        // must agree exactly (this is the satellite invariant).
        for set in [Charset::Text, Charset::Attr] {
            for b in 0..=255u8 {
                for pos in [0usize, 1, 14, 15, 16, 17, 30, 31, 32, 33, 47] {
                    let mut hay = vec![b'a'; 48];
                    hay[pos] = b;
                    let scalar = hay.iter().position(|&x| set.contains(x));
                    for level in [SimdLevel::None, SimdLevel::Sse2, SimdLevel::Avx2] {
                        #[cfg(not(target_arch = "x86_64"))]
                        if level.is_simd() {
                            continue;
                        }
                        #[cfg(target_arch = "x86_64")]
                        if level == SimdLevel::Avx2
                            && bsoap_kernels::detected_level() < SimdLevel::Avx2
                        {
                            continue;
                        }
                        assert_eq!(
                            find_special_at(&hay, set, level),
                            scalar,
                            "byte {b:#04x} at {pos} in {set:?} under {level:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn scalar_and_simd_escapes_agree() {
        let samples: &[&str] = &[
            "",
            "short",
            "exactly sixteen!",
            "a string long enough to cross several SIMD blocks without specials",
            "specials <&> scattered \r through a long enough string to vectorize",
            "trailing special at the very end of a long clean run ............&",
            "héllo wörld — unicode straddling blocks: ααααααααααααααααααα<end>",
        ];
        for s in samples {
            let mut scalar = Vec::new();
            let mut simd = Vec::new();
            escape_text_into_with(&mut scalar, s, KernelPolicy::Scalar);
            escape_text_into_with(&mut simd, s, KernelPolicy::Auto);
            assert_eq!(scalar, simd, "text kernels diverged on {s:?}");
            let mut scalar = Vec::new();
            let mut simd = Vec::new();
            escape_attr_into_with(&mut scalar, s, KernelPolicy::Scalar);
            escape_attr_into_with(&mut simd, s, KernelPolicy::Auto);
            assert_eq!(scalar, simd, "attr kernels diverged on {s:?}");
        }
    }

    #[test]
    fn unescape_borrows_when_clean() {
        let clean = b"12345.678";
        assert!(matches!(unescape(clean).unwrap(), Cow::Borrowed(_)));
    }

    #[test]
    fn unescape_entities() {
        assert_eq!(unescape(b"a&amp;b").unwrap().as_ref(), b"a&b");
        assert_eq!(
            unescape(b"&lt;&gt;&quot;&apos;").unwrap().as_ref(),
            b"<>\"'"
        );
        assert_eq!(unescape(b"&#65;&#x42;").unwrap().as_ref(), b"AB");
        assert_eq!(unescape(b"&#x1F600;").unwrap().as_ref(), "😀".as_bytes());
    }

    #[test]
    fn unescape_rejects_malformed() {
        assert!(unescape(b"&bogus;").is_err());
        assert!(unescape(b"&amp").is_err());
        assert!(unescape(b"&#;").is_err());
        assert!(unescape(b"&#xZZ;").is_err());
        assert!(unescape(b"&#x110000;").is_err(), "above Unicode range");
    }

    #[test]
    fn escape_unescape_round_trip() {
        for s in [
            "a<b&c>d",
            "\"quoted\"",
            "no specials",
            "&&&",
            "mixed <tag> & \"attr\"",
            "carriage\rreturn and line\nfeed",
        ] {
            let escaped = escape_text(s);
            let back = unescape(escaped.as_bytes()).unwrap();
            assert_eq!(back.as_ref(), s.as_bytes());
        }
    }
}
