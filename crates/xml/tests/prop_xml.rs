//! Property tests for the XML substrate: escaping is invertible, an
//! escaped document tokenizes back to the same structure, and the pad
//! canonicalizer is idempotent and padding-insensitive.

use bsoap_xml::{
    escape_attr_into, escape_text_into, escape_text_into_with, strip_pad, unescape, Event,
    PullParser,
};
use proptest::prelude::*;

/// `<name a="attr">text`, escaped by the product's own escapers — the
/// documents the properties below tokenize are made of these.
fn open(out: &mut Vec<u8>, name: &str, attr: Option<&str>, text: &str) {
    out.push(b'<');
    out.extend_from_slice(name.as_bytes());
    if let Some(value) = attr {
        out.extend_from_slice(b" a=\"");
        escape_attr_into(out, value);
        out.push(b'"');
    }
    out.push(b'>');
    escape_text_into(out, text);
}

fn close(out: &mut Vec<u8>, name: &str) {
    out.extend_from_slice(format!("</{name}>").as_bytes());
}

fn text_strategy() -> impl Strategy<Value = String> {
    // Printable ASCII plus the characters escaping must handle, plus
    // multi-byte UTF-8 so the SIMD scanner sees block-straddling sequences.
    proptest::collection::vec(
        prop_oneof![
            proptest::char::range(' ', '~'),
            Just('<'),
            Just('>'),
            Just('&'),
            Just('"'),
            Just('\''),
            Just('\n'),
            Just('\r'),
            Just('é'),
            Just('α'),
            Just('😀'),
        ],
        0..80,
    )
    .prop_map(|cs| cs.into_iter().collect())
}

fn name_strategy() -> impl Strategy<Value = String> {
    "[a-zA-Z][a-zA-Z0-9._-]{0,10}"
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn unescape_inverts_text_escape(text in text_strategy()) {
        let mut escaped = Vec::new();
        escape_text_into(&mut escaped, &text);
        let back = unescape(&escaped).unwrap();
        prop_assert_eq!(back.as_ref(), text.as_bytes());
    }

    #[test]
    fn unescape_inverts_attr_escape(text in text_strategy()) {
        let mut escaped = Vec::new();
        escape_attr_into(&mut escaped, &text);
        // Escaped attribute values never contain raw quotes or angle
        // brackets or ampersands-not-starting-entities.
        prop_assert!(!escaped.contains(&b'"'));
        prop_assert!(!escaped.contains(&b'<'));
        let back = unescape(&escaped).unwrap();
        prop_assert_eq!(back.as_ref(), text.as_bytes());
    }

    #[test]
    fn escaped_document_tokenizes_back(
        names in proptest::collection::vec(name_strategy(), 1..8),
        texts in proptest::collection::vec(text_strategy(), 1..8),
        attr_val in text_strategy(),
    ) {
        // Build a nested document: each name wraps the next, the
        // outermost carries the attribute, element i holds text i.
        let mut bytes = b"<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n".to_vec();
        for (i, n) in names.iter().enumerate() {
            let attr = (i == 0).then_some(attr_val.as_str());
            open(&mut bytes, n, attr, texts.get(i).map_or("", String::as_str));
        }
        for n in names.iter().rev() {
            close(&mut bytes, n);
        }

        // Tokenize and compare structure.
        let mut p = PullParser::new(&bytes);
        let mut starts = Vec::new();
        let mut ends = 0usize;
        let mut attr_seen = None;
        loop {
            match p.next_event().unwrap() {
                Event::Eof => break,
                Event::Start { name, attrs, .. } => {
                    starts.push(String::from_utf8(bytes[name].to_vec()).unwrap());
                    if let Some(a) = attrs.first() {
                        let raw = &bytes[a.value.clone()];
                        attr_seen = Some(unescape(raw).unwrap().into_owned());
                    }
                }
                Event::End { .. } => ends += 1,
                _ => {}
            }
        }
        prop_assert_eq!(&starts, &names);
        prop_assert_eq!(ends, names.len());
        prop_assert_eq!(attr_seen.as_deref(), Some(attr_val.as_bytes()));
    }

    #[test]
    fn escape_kernels_agree(text in text_strategy()) {
        // The SIMD scanner's "needs escape" mask must match the scalar
        // predicate exactly — same escapes, same clean runs.
        use bsoap_kernels::KernelPolicy;
        let mut scalar = Vec::new();
        let mut simd = Vec::new();
        escape_text_into_with(&mut scalar, &text, KernelPolicy::Scalar);
        escape_text_into_with(&mut simd, &text, KernelPolicy::Auto);
        prop_assert_eq!(scalar, simd);
    }

    #[test]
    fn carriage_returns_round_trip_through_parser(
        prefix in proptest::collection::vec(proptest::char::range('a', 'z'), 0..40),
    ) {
        // Satellite: \r in text content must survive a full
        // escape → parse → unescape round trip (a literal \r would be
        // normalized to \n by conforming parsers; &#13; survives).
        let text: String = prefix.into_iter().collect::<String>() + "\r mid\r";
        let mut bytes = Vec::new();
        open(&mut bytes, "r", None, &text);
        close(&mut bytes, "r");
        prop_assert!(!bytes.contains(&b'\r'), "raw CR leaked into wire bytes");

        let mut p = PullParser::new(&bytes);
        let mut recovered = Vec::new();
        loop {
            match p.next_event().unwrap() {
                Event::Eof => break,
                Event::Text { range } => {
                    recovered.extend_from_slice(&unescape(&bytes[range]).unwrap());
                }
                _ => {}
            }
        }
        prop_assert_eq!(recovered, text.into_bytes());
    }

    #[test]
    fn strip_pad_is_idempotent(
        names in proptest::collection::vec(name_strategy(), 1..6),
        texts in proptest::collection::vec(text_strategy(), 1..6),
    ) {
        let mut bytes = Vec::new();
        for (n, t) in names.iter().zip(&texts) {
            open(&mut bytes, n, None, t);
            close(&mut bytes, n);
        }
        let once = strip_pad(&bytes);
        let twice = strip_pad(&once);
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn strip_pad_ignores_injected_padding(
        pad_lens in proptest::collection::vec(0usize..10, 1..6),
    ) {
        // A fixed document with variable padding runs between elements
        // must canonicalize to the same bytes.
        let mut doc = String::from("<r>");
        for (i, &p) in pad_lens.iter().enumerate() {
            doc.push_str(&format!("<v>{i}</v>"));
            doc.push_str(&" ".repeat(p));
        }
        doc.push_str("</r>");
        let reference = {
            let mut d = String::from("<r>");
            for i in 0..pad_lens.len() {
                d.push_str(&format!("<v>{i}</v>"));
            }
            d.push_str("</r>");
            d
        };
        prop_assert_eq!(strip_pad(doc.as_bytes()), reference.into_bytes());
    }
}
