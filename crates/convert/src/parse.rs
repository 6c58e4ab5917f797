//! ASCII → number conversion: the deserialization direction.
//!
//! The server-side substrate (crate `bsoap-deser`) slices text content out
//! of incoming SOAP messages and hands the byte ranges here. Integer and
//! boolean parsing are implemented from scratch with explicit overflow
//! checks. `f64` parsing is one pass over the text for the forms a sender
//! writes: a lexer checks the lexical form and accumulates the decimal
//! mantissa `m` and fraction digit count `k`. With at most 19 digits and
//! `m <= 2^53` (any 15 significant digits), `k <= 19` and both `m` and
//! `10^k` are exact doubles (every power of ten up to `1e22` is), so one
//! IEEE division rounds the exact quotient once — the correctly rounded
//! result, bit for bit what the standard library's parser returns
//! (Clinger, "How to read floating point numbers accurately", PLDI 1990).
//! Every other form — more digits, an exponent, the specials, anything
//! malformed — takes the slow path: lexical validation, then the standard
//! library's correctly rounded parser, which also words every error.

/// Errors produced when a lexical form does not belong to the target type.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseError {
    /// Input was empty after trimming XML whitespace.
    Empty,
    /// A character outside the lexical space was found.
    InvalidChar { at: usize },
    /// The value does not fit in the target integer type.
    Overflow,
    /// The floating-point lexical form was malformed.
    BadFloat,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Empty => write!(f, "empty lexical value"),
            ParseError::InvalidChar { at } => write!(f, "invalid character at byte {at}"),
            ParseError::Overflow => write!(f, "integer overflow"),
            ParseError::BadFloat => write!(f, "malformed floating-point value"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Strip leading/trailing XML whitespace (space, tab, CR, LF).
///
/// The stuffing technique pads fields with spaces, so every parse must
/// tolerate surrounding whitespace — this is what makes stuffing legal.
pub fn trim_xml_ws(mut s: &[u8]) -> &[u8] {
    while let [first, rest @ ..] = s {
        if matches!(first, b' ' | b'\t' | b'\r' | b'\n') {
            s = rest;
        } else {
            break;
        }
    }
    while let [rest @ .., last] = s {
        if matches!(last, b' ' | b'\t' | b'\r' | b'\n') {
            s = rest;
        } else {
            break;
        }
    }
    s
}

/// Parse an `xsd:int` lexical form into an `i32`.
pub fn parse_i32(s: &[u8]) -> Result<i32, ParseError> {
    let v = parse_i64(s)?;
    i32::try_from(v).map_err(|_| ParseError::Overflow)
}

/// Parse an `xsd:long` lexical form into an `i64`.
pub fn parse_i64(s: &[u8]) -> Result<i64, ParseError> {
    let s = trim_xml_ws(s);
    if s.is_empty() {
        return Err(ParseError::Empty);
    }
    let (neg, body) = match s[0] {
        b'-' => (true, &s[1..]),
        b'+' => (false, &s[1..]),
        _ => (false, s),
    };
    if body.is_empty() {
        return Err(ParseError::Empty);
    }
    // Accumulate negative to cover i64::MIN.
    let mut acc: i64 = 0;
    for (i, &c) in body.iter().enumerate() {
        if !c.is_ascii_digit() {
            return Err(ParseError::InvalidChar { at: i });
        }
        acc = acc
            .checked_mul(10)
            .and_then(|a| a.checked_sub((c - b'0') as i64))
            .ok_or(ParseError::Overflow)?;
    }
    if neg {
        Ok(acc)
    } else {
        acc.checked_neg().ok_or(ParseError::Overflow)
    }
}

/// Parse an `xsd:boolean` lexical form (`true`/`false`/`1`/`0`).
pub fn parse_bool(s: &[u8]) -> Result<bool, ParseError> {
    match trim_xml_ws(s) {
        b"true" | b"1" => Ok(true),
        b"false" | b"0" => Ok(false),
        b"" => Err(ParseError::Empty),
        _ => Err(ParseError::InvalidChar { at: 0 }),
    }
}

/// Parse an `xsd:double` lexical form into an `f64`.
///
/// Accepts the schema specials `INF`, `-INF`, `NaN` and decimal/scientific
/// forms (with `e` or `E`), correctly rounded: in one pass where the
/// module's exact path applies, else by the standard library's parser
/// after validation.
pub fn parse_f64(s: &[u8]) -> Result<f64, ParseError> {
    if let Some(v) = exact_f64(s) {
        return Ok(v);
    }
    let s = trim_xml_ws(s);
    match s {
        b"" => return Err(ParseError::Empty),
        b"INF" | b"+INF" => return Ok(f64::INFINITY),
        b"-INF" => return Ok(f64::NEG_INFINITY),
        b"NaN" => return Ok(f64::NAN),
        _ => {}
    }
    // std's parser also accepts `inf`, `infinity` and `nan` in any case,
    // which `xsd:double` does not: the validator keeps the lexical space
    // exactly the schema's.
    validate_double_lexical(s)?;
    let text = std::str::from_utf8(s).map_err(|_| ParseError::BadFloat)?;
    text.parse::<f64>().map_err(|_| ParseError::BadFloat)
}

/// Exact powers of ten for the at most 19 fraction digits of the exact
/// path (every one up to `1e22` is a double).
const POW10: [f64; 20] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19,
];

/// The one-pass path of [`parse_f64`]: a sign, digits and at most one
/// point, read as `m / 10^k` when there are at most 19 digits and
/// `m <= 2^53` — one exact double over another, a single rounding. `None`
/// for any other text, valid or not: the slow path decides.
fn exact_f64(s: &[u8]) -> Option<f64> {
    let (negative, s) = match trim_xml_ws(s) {
        [b'-', rest @ ..] => (true, rest),
        [b'+', rest @ ..] => (false, rest),
        s => (false, s),
    };
    let (mut m, mut point) = (0u64, None);
    for (i, &c) in s.iter().enumerate() {
        match c {
            b'0'..=b'9' => m = m.wrapping_mul(10).wrapping_add(u64::from(c - b'0')),
            b'.' if point.is_none() => point = Some(i),
            _ => return None,
        }
    }
    // Nineteen digits cannot wrap, and hold at most 19 fraction digits.
    let digits = s.len() - usize::from(point.is_some());
    let fraction = point.map_or(0, |p| s.len() - p - 1);
    if digits == 0 || digits > 19 || m > 1 << 53 {
        return None;
    }
    let magnitude = m as f64 / POW10[fraction];
    Some(if negative { -magnitude } else { magnitude })
}

fn validate_double_lexical(s: &[u8]) -> Result<(), ParseError> {
    let mut i = 0;
    let n = s.len();
    if i < n && (s[i] == b'+' || s[i] == b'-') {
        i += 1;
    }
    let int_start = i;
    while i < n && s[i].is_ascii_digit() {
        i += 1;
    }
    let int_digits = i - int_start;
    let mut frac_digits = 0;
    if i < n && s[i] == b'.' {
        i += 1;
        let frac_start = i;
        while i < n && s[i].is_ascii_digit() {
            i += 1;
        }
        frac_digits = i - frac_start;
    }
    if int_digits == 0 && frac_digits == 0 {
        return Err(ParseError::BadFloat);
    }
    if i < n && (s[i] == b'e' || s[i] == b'E') {
        i += 1;
        if i < n && (s[i] == b'+' || s[i] == b'-') {
            i += 1;
        }
        let exp_start = i;
        while i < n && s[i].is_ascii_digit() {
            i += 1;
        }
        if i == exp_start {
            return Err(ParseError::BadFloat);
        }
    }
    if i != n {
        return Err(ParseError::InvalidChar { at: i });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trims_stuffing_whitespace() {
        assert_eq!(trim_xml_ws(b"   42   "), b"42");
        assert_eq!(trim_xml_ws(b"\t\r\n5\n"), b"5");
        assert_eq!(trim_xml_ws(b"    "), b"");
    }

    #[test]
    fn int_parsing() {
        assert_eq!(parse_i32(b"0"), Ok(0));
        assert_eq!(parse_i32(b"13902"), Ok(13902));
        assert_eq!(parse_i32(b"-2147483648"), Ok(i32::MIN));
        assert_eq!(parse_i32(b"2147483647"), Ok(i32::MAX));
        assert_eq!(parse_i32(b"2147483648"), Err(ParseError::Overflow));
        assert_eq!(parse_i32(b"  7 "), Ok(7));
        assert_eq!(parse_i32(b"+7"), Ok(7));
        assert!(parse_i32(b"").is_err());
        assert!(parse_i32(b"1x").is_err());
        assert!(parse_i32(b"-").is_err());
    }

    #[test]
    fn long_extremes() {
        assert_eq!(parse_i64(b"-9223372036854775808"), Ok(i64::MIN));
        assert_eq!(parse_i64(b"9223372036854775807"), Ok(i64::MAX));
        assert_eq!(parse_i64(b"9223372036854775808"), Err(ParseError::Overflow));
    }

    #[test]
    fn bool_forms() {
        assert_eq!(parse_bool(b"true"), Ok(true));
        assert_eq!(parse_bool(b"false"), Ok(false));
        assert_eq!(parse_bool(b"1"), Ok(true));
        assert_eq!(parse_bool(b"0"), Ok(false));
        assert_eq!(parse_bool(b" true "), Ok(true));
        assert!(parse_bool(b"TRUE").is_err());
    }

    #[test]
    fn double_specials() {
        assert_eq!(parse_f64(b"INF").unwrap(), f64::INFINITY);
        assert_eq!(parse_f64(b"-INF").unwrap(), f64::NEG_INFINITY);
        assert!(parse_f64(b"NaN").unwrap().is_nan());
    }

    #[test]
    #[allow(clippy::approx_constant)] // 3.14 is a parsing case, not pi
    fn double_forms() {
        assert_eq!(parse_f64(b"1").unwrap(), 1.0);
        assert_eq!(parse_f64(b"-0.5").unwrap(), -0.5);
        assert_eq!(parse_f64(b"2.5E-10").unwrap(), 2.5e-10);
        assert_eq!(parse_f64(b"1e3").unwrap(), 1000.0);
        assert_eq!(parse_f64(b".5").unwrap(), 0.5);
        assert_eq!(parse_f64(b"5.").unwrap(), 5.0);
        assert_eq!(parse_f64(b"  3.14  ").unwrap(), 3.14);
    }

    #[test]
    fn double_rejections() {
        assert!(parse_f64(b"").is_err());
        assert!(parse_f64(b".").is_err());
        assert!(parse_f64(b"1e").is_err());
        assert!(parse_f64(b"1.2.3").is_err());
        assert!(parse_f64(b"abc").is_err());
        assert!(
            parse_f64(b"inf").is_err(),
            "xsd:double requires uppercase INF"
        );
    }

    #[test]
    fn dtoa_parse_round_trip() {
        for v in [0.1, -7.25, 1e300, 5e-324, 123456.789] {
            let s = crate::dtoa::format_f64(v);
            assert_eq!(parse_f64(s.as_bytes()).unwrap().to_bits(), v.to_bits());
        }
    }
}
