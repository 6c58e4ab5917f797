//! XML character escaping and entity resolution.
//!
//! Numeric leaf values (the hot path of the paper) never need escaping —
//! the engine writes them raw. Escaping is only on the string path and in
//! the baseline serializers, but it must still be correct and allocation
//! conscious: both escape directions work into caller-provided buffers.
//!
//! The scan is one safe scalar loop (DESIGN.md §3.11): find the next byte
//! [`Charset::contains`], bulk-copy the clean run before it, append its
//! entity. Multi-byte UTF-8 is all `>= 0x80`, so no byte of a multi-byte
//! character is ever mistaken for an ASCII special.

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

/// Which escape context a scan serves. Each variant is a fixed byte set.
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
    /// Does `b` need escaping in this context?
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

/// Shared escape loop: scan for specials, bulk-copy clean runs.
fn escape_into(out: &mut Vec<u8>, bytes: &[u8], set: Charset) {
    let mut pos = 0;
    while let Some(i) = bytes[pos..].iter().position(|&b| set.contains(b)) {
        out.extend_from_slice(&bytes[pos..pos + i]);
        out.extend_from_slice(set.replacement(bytes[pos + i]));
        pos += i + 1;
    }
    out.extend_from_slice(&bytes[pos..]);
}

/// Append `text` to `out`, escaping `&`, `<`, `>` and `\r`
/// ([`Charset::Text`]).
pub fn escape_text_into(out: &mut Vec<u8>, text: &str) {
    escape_into(out, text.as_bytes(), Charset::Text);
}

/// [`escape_text_into`] under its old three-argument name, kept only for
/// `benchmark/src/staged.rs` (which passes `EngineConfig::kernel`, a `()`).
#[doc(hidden)]
pub fn escape_text_into_with(out: &mut Vec<u8>, text: &str, _: ()) {
    escape_text_into(out, text);
}

/// Append `value` to `out`, escaped for a double-quoted attribute
/// ([`Charset::Attr`]).
pub fn escape_attr_into(out: &mut Vec<u8>, value: &str) {
    escape_into(out, value.as_bytes(), Charset::Attr);
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
    fn every_byte_escapes_exactly_when_its_charset_says() {
        // Every byte value, at the head, middle and tail of a clean run,
        // for both charsets: escaped to its entity when the predicate
        // holds, copied through otherwise.
        for set in [Charset::Text, Charset::Attr] {
            for b in 0..0x80u8 {
                for pos in [0usize, 1, 15, 16, 47] {
                    let mut hay = vec![b'a'; 48];
                    hay[pos] = b;
                    let mut out = Vec::new();
                    escape_into(&mut out, &hay, set);
                    let mut want = hay[..pos].to_vec();
                    if set.contains(b) {
                        want.extend_from_slice(set.replacement(b));
                    } else {
                        want.push(b);
                    }
                    want.extend_from_slice(&hay[pos + 1..]);
                    assert_eq!(out, want, "byte {b:#04x} at {pos} in {set:?}");
                }
            }
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
