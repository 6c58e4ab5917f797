//! Property tests for HTTP framing: any body, split any way, framed with
//! any version, reads back byte-identical — including pipelined requests
//! on one connection, and through the zero-copy vectored send path
//! against a pathological writer (1–3 bytes per call, injected EINTR).

use bsoap_transport::http::{
    post_gather_vectored, HttpVersion, PostScratch, RequestConfig, RequestReader,
};
use proptest::prelude::*;
use std::io::{self, IoSlice, Write};

/// Writer accepting only 1–3 bytes per call (cycling), periodically
/// failing with `Interrupted` before consuming anything — the worst
/// plausible `write_vectored` behavior a real socket can exhibit.
struct InterruptingDribbler {
    out: Vec<u8>,
    calls: usize,
    /// Every `interrupt_every`-th call errors with EINTR (0 = never;
    /// 1 would fail every call and starve any correct retry loop).
    interrupt_every: usize,
}

impl InterruptingDribbler {
    fn new(interrupt_every: usize) -> Self {
        InterruptingDribbler {
            out: Vec::new(),
            calls: 0,
            interrupt_every,
        }
    }

    fn admit(&mut self) -> io::Result<usize> {
        self.calls += 1;
        if self.interrupt_every != 0 && self.calls.is_multiple_of(self.interrupt_every) {
            return Err(io::Error::new(io::ErrorKind::Interrupted, "EINTR"));
        }
        Ok(1 + self.calls % 3)
    }
}

impl Write for InterruptingDribbler {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let cap = self.admit()?;
        let n = buf.len().min(cap);
        self.out.extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        let mut cap = self.admit()?;
        let mut n = 0;
        for b in bufs {
            if cap == 0 {
                break;
            }
            let take = b.len().min(cap);
            self.out.extend_from_slice(&b[..take]);
            cap -= take;
            n += take;
        }
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn version_strategy() -> impl Strategy<Value = HttpVersion> {
    prop_oneof![
        Just(HttpVersion::Http10),
        Just(HttpVersion::Http11Length),
        Just(HttpVersion::Http11Chunked),
    ]
}

/// Split `body` into segments at the given fractional cut points.
fn split_body(body: &[u8], cuts: &[usize]) -> Vec<Vec<u8>> {
    let mut idx: Vec<usize> = cuts.iter().map(|&c| c % (body.len() + 1)).collect();
    idx.sort_unstable();
    idx.dedup();
    let mut parts = Vec::new();
    let mut prev = 0;
    for &i in &idx {
        parts.push(body[prev..i].to_vec());
        prev = i;
    }
    parts.push(body[prev..].to_vec());
    parts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn any_split_any_version_round_trips(
        body in proptest::collection::vec(any::<u8>(), 0..4096),
        cuts in proptest::collection::vec(any::<usize>(), 0..6),
        version in version_strategy(),
    ) {
        let parts = split_body(&body, &cuts);
        let slices: Vec<IoSlice<'_>> = parts.iter().map(|p| IoSlice::new(p)).collect();
        let cfg = RequestConfig::loopback(version);
        let mut wire = Vec::new();
        let mut scratch = PostScratch::default();
        post_gather_vectored(&mut wire, &cfg, &slices, &mut scratch).unwrap();

        let mut reader = RequestReader::new(&wire[..]);
        let (head, got) = reader.next_request().unwrap().expect("one request");
        prop_assert_eq!(got, body);
        prop_assert_eq!(head.method, "POST");
        prop_assert!(reader.next_request().unwrap().is_none());
    }

    #[test]
    fn pipelined_requests_round_trip(
        bodies in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..512),
            1..6
        ),
        version in version_strategy(),
    ) {
        let cfg = RequestConfig::loopback(version);
        let mut wire = Vec::new();
        let mut scratch = PostScratch::default();
        for b in &bodies {
            let slices = [IoSlice::new(b.as_slice())];
            post_gather_vectored(&mut wire, &cfg, &slices, &mut scratch).unwrap();
        }
        let mut reader = RequestReader::new(&wire[..]);
        for want in &bodies {
            let (_, got) = reader.next_request().unwrap().expect("request present");
            prop_assert_eq!(&got, want);
        }
        prop_assert!(reader.next_request().unwrap().is_none());
    }

    /// The zero-copy vectored POST puts the same bytes on the wire through
    /// a writer that takes 1–3 bytes per call and injects `Interrupted`
    /// errors mid-drain as through one that takes everything at once, for
    /// every body, split, and version — and they decode back to the body.
    #[test]
    fn vectored_post_byte_identical_under_dribble_and_eintr(
        body in proptest::collection::vec(any::<u8>(), 0..1024),
        cuts in proptest::collection::vec(any::<usize>(), 0..6),
        version in version_strategy(),
        interrupt_every in prop_oneof![Just(0usize), 2usize..6],
    ) {
        let parts = split_body(&body, &cuts);
        let slices: Vec<IoSlice<'_>> = parts.iter().map(|p| IoSlice::new(p)).collect();
        let cfg = RequestConfig::loopback(version);

        let mut flat = Vec::new();
        let mut scratch = PostScratch::default();
        let want = post_gather_vectored(&mut flat, &cfg, &slices, &mut scratch).unwrap();

        let mut w = InterruptingDribbler::new(interrupt_every);
        let got = post_gather_vectored(&mut w, &cfg, &slices, &mut scratch).unwrap();
        prop_assert_eq!(got, want);
        prop_assert_eq!(&w.out, &flat);
        let (_, decoded) = RequestReader::new(&w.out[..]).next_request().unwrap().expect("request");
        prop_assert_eq!(decoded, body);
    }

    #[test]
    fn vectored_response_byte_identical_under_dribble_and_eintr(
        body in proptest::collection::vec(any::<u8>(), 0..1024),
        cuts in proptest::collection::vec(any::<usize>(), 0..4),
        interrupt_every in prop_oneof![Just(0usize), 2usize..6],
    ) {
        use bsoap_transport::http::{render_response, write_response_vectored};
        let parts = split_body(&body, &cuts);
        let slices: Vec<IoSlice<'_>> = parts.iter().map(|p| IoSlice::new(p)).collect();
        let mut flat = Vec::new();
        render_response(&mut flat, 200, "OK", &body);
        let mut w = InterruptingDribbler::new(interrupt_every);
        let mut head_scratch = Vec::new();
        let got = write_response_vectored(&mut w, 200, "OK", &slices, &mut head_scratch).unwrap();
        prop_assert_eq!(got, flat.len());
        prop_assert_eq!(w.out, flat);
    }

    /// One head splitter and one body decoder, three consumers: the
    /// blocking `RequestReader`, the `Conn` machine every server core
    /// drives, and the streaming `read_head` + `ChunkedBodyReader` pair
    /// must agree on a whole request — head, then chunked body — no matter
    /// how the wire is fragmented: the same head and body bytes, or, when
    /// the body is corrupted or cut short, the same typed error.
    #[test]
    fn whole_request_fragmentation_parses_identically_on_all_paths(
        path_seg in "[a-zA-Z0-9]{1,12}",
        headers in proptest::collection::vec(
            ("[a-zA-Z][a-zA-Z0-9-]{0,10}", "[a-zA-Z0-9 ._-]{0,20}"),
            0..4
        ),
        chunks in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..64), 0..6),
        caps in proptest::collection::vec(1usize..40, 1..12),
        eintr_every in prop_oneof![Just(0usize), 2usize..5],
        damage in prop_oneof![
            Just(None),
            Just(None),
            (any::<usize>(), any::<u8>()).prop_map(|(at, to)| Some((at, Some(to)))),
            any::<usize>().prop_map(|at| Some((at, None))),
        ],
    ) {
        use bsoap_transport::http::{parse_request_head, read_response_limited, RequestHead};
        use bsoap_transport::{read_head, ChunkedBodyReader, Conn, ConnAction, ConnConfig, ReqBody};
        use bsoap_obs::NullRecorder;
        use std::io::Read;

        const MAX_BODY: usize = 200;
        let mut wire = format!("POST /{path_seg} HTTP/1.1\r\nHost: prop\r\n").into_bytes();
        for (name, value) in &headers {
            wire.extend_from_slice(format!("x-{name}: {value}\r\n").as_bytes());
        }
        wire.extend_from_slice(b"Transfer-Encoding: chunked\r\n\r\n");
        let head_len = wire.len();
        for c in &chunks {
            wire.extend_from_slice(format!("{:x}\r\n", c.len()).as_bytes());
            wire.extend_from_slice(c);
            wire.extend_from_slice(b"\r\n");
        }
        wire.extend_from_slice(b"0\r\n\r\n");
        // Damage lands in the body only: flip one byte, or cut the wire.
        match damage {
            Some((at, Some(to))) => {
                let at = head_len + at % (wire.len() - head_len);
                wire[at] = to;
            }
            Some((at, None)) => wire.truncate(head_len + at % (wire.len() - head_len)),
            None => {}
        }

        /// Reads at most `caps[i % len]` bytes per call with EINTR noise.
        struct Dribbler {
            data: Vec<u8>,
            pos: usize,
            caps: Vec<usize>,
            calls: usize,
            eintr_every: usize,
        }
        impl Read for Dribbler {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.calls += 1;
                if self.eintr_every != 0 && self.calls.is_multiple_of(self.eintr_every) {
                    return Err(io::ErrorKind::Interrupted.into());
                }
                let cap = self.caps[self.calls % self.caps.len()];
                let n = cap.min(buf.len()).min(self.data.len() - self.pos);
                buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
                self.pos += n;
                Ok(n)
            }
        }
        let dribble = |data: &[u8]| Dribbler {
            data: data.to_vec(),
            pos: 0,
            caps: caps.clone(),
            calls: 0,
            eintr_every,
        };
        type Outcome = (RequestHead, Result<Vec<u8>, String>);

        // Path 1: the blocking RequestReader, wire in one piece.
        let want_head = parse_request_head(&wire[..head_len]).unwrap();
        let path1: Outcome = (
            want_head.clone(),
            RequestReader::with_limits(&wire[..], 1 << 20, MAX_BODY)
                .next_request()
                .map(|req| req.expect("one request").1)
                .map_err(|e| e.to_string()),
        );

        // Path 2: streaming read_head + ChunkedBodyReader over a dribbling,
        // EINTR-injecting reader.
        let mut d = dribble(&wire);
        let (head_bytes, leftover) = read_head(&mut d, 1 << 20).unwrap().expect("head present");
        let mut reader = ChunkedBodyReader::with_capacity(d, leftover, 0, MAX_BODY);
        let mut body = Vec::new();
        let streamed = loop {
            match reader.next_slice() {
                Ok(Some(slice)) => body.extend_from_slice(slice),
                Ok(None) => break Ok(body),
                Err(e) => break Err(e.to_string()),
            }
        };
        let path2: Outcome = (parse_request_head(&head_bytes).unwrap(), streamed);
        prop_assert_eq!(&path1, &path2, "RequestReader vs read_head + ChunkedBodyReader");

        // Path 3: the Conn machine, one dribbled read per step; a refusal
        // is read back off the 400 it writes.
        let rec = NullRecorder;
        let cfg = ConnConfig { max_body: MAX_BODY, ..ConnConfig::default() };
        let mut conn = Conn::new(1, cfg);
        let mut out = Vec::new();
        let mut d = dribble(&wire);
        let path3: Outcome = loop {
            conn.on_readable(&mut d, &rec, &mut out);
            if let Some(ConnAction::Dispatch(h, ReqBody::Full(b))) =
                out.drain(..).find(|a| matches!(a, ConnAction::Dispatch(..)))
            {
                break (h, Ok(b));
            }
            if conn.state() == bsoap_transport::ConnState::Writing {
                let mut refusal = Vec::new();
                conn.on_writable(&mut refusal, &rec, &mut out);
                let (status, text) = read_response_limited(&mut &refusal[..], 1 << 10, 1 << 10).unwrap();
                prop_assert_eq!(status, 400);
                break (want_head, Err(String::from_utf8(text).unwrap()));
            }
        };
        prop_assert_eq!(&path1, &path3, "RequestReader vs Conn");
    }

    #[test]
    fn truncated_wire_never_panics(
        body in proptest::collection::vec(any::<u8>(), 0..512),
        version in version_strategy(),
        keep_fraction in 0.0f64..1.0,
    ) {
        let cfg = RequestConfig::loopback(version);
        let mut wire = Vec::new();
        let mut scratch = PostScratch::default();
        post_gather_vectored(&mut wire, &cfg, &[IoSlice::new(&body)], &mut scratch).unwrap();
        let keep = ((wire.len() as f64) * keep_fraction) as usize;
        let mut reader = RequestReader::new(&wire[..keep]);
        // Truncation yields Ok(None), Ok(Some) only when the cut landed
        // beyond the full request, or a clean error — never a panic.
        let _ = reader.next_request();
    }
}

/// The two head grammars the one head parser replaced, kept verbatim in
/// behaviour as its oracle: the request path's `parse_request_head` +
/// `RequestHead::body_framing`, and the reply path's status-line and header
/// scan. Each yields the start line (a reply's: its status code), every
/// header as `(lower-cased name, value)`, and the framing — or `None` for
/// a refusal.
mod oracle {
    use bsoap_transport::http::BodyFraming;

    pub type Outcome = (Vec<String>, Vec<(String, String)>, BodyFraming);
    pub type Grammar = fn(&[u8]) -> Option<Outcome>;

    pub fn request(bytes: &[u8]) -> Option<Outcome> {
        let text = std::str::from_utf8(bytes).ok()?;
        let mut lines = text.split("\r\n");
        let mut parts = lines.next()?.split(' ');
        let (method, path, version) = (parts.next()?, parts.next()?, parts.next()?);
        if parts.next().is_some() {
            return None;
        }
        let mut headers = Vec::new();
        for line in lines.filter(|l| !l.is_empty()) {
            let (name, value) = line.split_once(':')?;
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
        }
        let header = |name: &str| headers.iter().find(|(n, _)| n == name).map(|(_, v)| v);
        let framing = match (header("transfer-encoding"), header("content-length")) {
            (Some(te), _) => te
                .eq_ignore_ascii_case("chunked")
                .then_some(BodyFraming::Chunked),
            (None, Some(cl)) => cl.trim().parse().ok().map(BodyFraming::Length),
            (None, None) => None,
        };
        let framing = match framing {
            Some(framing) => framing,
            None if matches!(method, "GET" | "HEAD" | "DELETE") => BodyFraming::Length(0),
            None => return None,
        };
        let start = [method, path, version].map(str::to_owned).to_vec();
        Some((start, headers, framing))
    }

    pub fn reply(bytes: &[u8]) -> Option<Outcome> {
        let text = std::str::from_utf8(bytes).ok()?;
        let status: u16 = text.split(' ').nth(1)?.parse().ok()?;
        let (mut chunked, mut length) = (false, None);
        let mut headers = Vec::new();
        for line in text.lines().skip(1) {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let (name, value) = (name.trim(), value.trim());
            if name.eq_ignore_ascii_case("transfer-encoding") {
                if !value.eq_ignore_ascii_case("chunked") {
                    return None;
                }
                chunked = true;
            } else if name.eq_ignore_ascii_case("content-length") {
                length = Some(value.parse().ok()?);
            }
            headers.push((name.to_ascii_lowercase(), value.to_owned()));
        }
        let framing = if chunked {
            BodyFraming::Chunked
        } else {
            BodyFraming::Length(length?)
        };
        Some((vec![status.to_string()], headers, framing))
    }
}

/// What the one head parser makes of `bytes`, in the oracle's terms.
fn one_parser(bytes: &[u8], opens: bsoap_transport::http::StartLine) -> Option<oracle::Outcome> {
    use bsoap_transport::http::{Head, StartLine};
    let mut head = Head::default();
    let framing = head.parse(bytes, opens).ok()?;
    let start = match opens {
        StartLine::Request => head.start_line().map(str::to_owned).to_vec(),
        StartLine::Status => vec![head.status().to_string()],
    };
    let headers = head.headers();
    let headers = headers.map(|(n, v)| (n.to_ascii_lowercase(), v.to_owned()));
    Some((start, headers.collect(), framing))
}

/// What the one head parser must make of a head that shows a difference.
type Expect = fn(&Option<oracle::Outcome>) -> bool;

/// The deliberate differences between the one head parser and the grammars
/// it replaced, each on the side (and, for requests, the methods) where it
/// is meant, with what the parser must then do; a head on which the two
/// disagree must show one of them. The first three are the framing-rule
/// fix; the last three follow from one rule on both sides.
fn deliberate_difference(bytes: &[u8], reply: bool) -> Option<(&'static str, Expect)> {
    let refused: Expect = |got| got.is_none();
    let text = String::from_utf8_lossy(bytes);
    let mut lines = text.split("\r\n");
    let method = lines.next().unwrap_or_default().split(' ').next();
    let fields: Vec<(String, &str)> = lines
        .filter_map(|line| line.split_once(':'))
        .map(|(name, value)| (name.trim().to_ascii_lowercase(), value.trim()))
        .collect();
    let values = |name: &str| {
        let named = fields.iter().filter(move |(n, _)| n == name);
        named.map(|(_, v)| *v).collect::<Vec<&str>>()
    };
    let (lengths, codings) = (values("content-length"), values("transfer-encoding"));
    let chunked = |v: &&str| v.eq_ignore_ascii_case("chunked");
    let numeric = |v: &&str| v.parse::<usize>().is_ok();
    let bare_lf = bytes
        .iter()
        .enumerate()
        .any(|(i, &b)| b == b'\n' && (i == 0 || bytes[i - 1] != b'\r'));
    let colonless = text
        .split("\r\n")
        .skip(1)
        .any(|l| !l.is_empty() && !l.contains(':'));
    let bodiless = !reply && matches!(method, Some("GET" | "HEAD" | "DELETE"));
    if codings.is_empty() && lengths.iter().any(|v| *v != lengths[0]) {
        // The request path kept the first value, the reply path the last.
        Some(("Content-Length values that differ are refused", refused))
    } else if reply && colonless {
        // The reply path skipped such a line.
        Some(("a reply's header line without a colon is refused", refused))
    } else if reply && bare_lf {
        // The reply path split lines on `lines()`.
        Some(("only CRLF ends a reply's line", |_| true))
    } else if !reply && codings.first().is_some_and(chunked) && !codings.iter().all(chunked) {
        // The request path read the first coding only.
        Some((
            "a request's later Transfer-Encoding must say chunked too",
            refused,
        ))
    } else if reply && codings.iter().any(chunked) && !lengths.iter().all(numeric) {
        // The reply path parsed every length, even beside chunked.
        let chunked: Expect =
            |got| matches!(got, Some((.., bsoap_transport::http::BodyFraming::Chunked)));
        Some(("a chunked reply's Content-Length is not read", chunked))
    } else if bodiless && (!lengths.iter().all(numeric) || !codings.iter().all(chunked)) {
        // The request path read any framing error of these as no body.
        Some((
            "a bodiless request's broken framing header is refused",
            refused,
        ))
    } else {
        None
    }
}

/// Flip the ASCII case of the letters `mask` picks.
fn recase(s: &str, mask: u64) -> String {
    s.chars()
        .enumerate()
        .map(|(i, c)| match mask >> (i % 64) & 1 {
            1 if c.is_ascii_lowercase() => c.to_ascii_uppercase(),
            1 => c.to_ascii_lowercase(),
            _ => c,
        })
        .collect()
}

/// A well-formed head: a request or status line, random headers in random
/// case with random whitespace around their values, and among them a
/// `Content-Length`, a chunked `Transfer-Encoding` or both, each possibly
/// repeated (identically).
fn head_strategy() -> impl Strategy<Value = (Vec<u8>, bool)> {
    let start = prop_oneof![
        (
            prop_oneof![
                Just("POST"),
                Just("GET"),
                Just("PUT"),
                Just("DELETE"),
                Just("HEAD")
            ],
            "/[a-z0-9/._-]{0,12}",
            prop_oneof![Just("HTTP/1.1"), Just("HTTP/1.0")],
        )
            .prop_map(|(m, p, v)| (format!("{m} {p} {v}"), false)),
        (
            100u16..600,
            prop_oneof![
                Just("OK"),
                Just("Not Found"),
                Just("Unsupported Media Type"),
                Just("")
            ],
        )
            .prop_map(|(code, reason)| (format!("HTTP/1.1 {code} {reason}"), true)),
    ];
    let pad = || prop_oneof![Just(""), Just(" "), Just("  "), Just("\t"), Just(" \t ")];
    let header = ("X-[a-zA-Z0-9-]{1,10}", pad(), "[ -~]{0,16}", pad())
        .prop_map(|(name, lead, value, trail)| format!("{name}:{lead}{}{trail}", value.trim()));
    let length = prop_oneof![(0usize..100_000).prop_map(Some), Just(None)];
    let framing = (length, any::<bool>());
    let shuffle = (any::<bool>(), any::<usize>(), any::<u64>(), pad());
    (
        start,
        proptest::collection::vec(header, 0..6),
        framing,
        shuffle,
    )
        .prop_map(
            |((start, reply), mut headers, (length, chunked), (twice, at, mask, pad))| {
                let mut framing = Vec::new();
                if let Some(n) = length {
                    framing.push(format!("{}:{pad}{n}", recase("content-length", mask)));
                }
                if chunked || length.is_none() {
                    framing.push(format!(
                        "{}: {}",
                        recase("transfer-encoding", mask),
                        recase("chunked", !mask)
                    ));
                }
                for (i, line) in framing.into_iter().enumerate() {
                    headers.insert((at >> (8 * i)) % (headers.len() + 1), line.clone());
                    if twice {
                        headers.insert(((at / 7) >> (8 * i)) % (headers.len() + 1), line);
                    }
                }
                let mut head = format!("{start}\r\n");
                for line in headers {
                    head.push_str(&line);
                    head.push_str("\r\n");
                }
                head.push_str("\r\n");
                (head.into_bytes(), reply)
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The one head parser reads every well-formed head exactly as the
    /// grammar it replaced did — start line, every header, framing — and
    /// every single-byte mutation of it (substitution or deletion) is
    /// refused or parsed the same, except where one of the deliberate
    /// differences shows.
    #[test]
    fn the_one_head_parser_agrees_with_the_two_it_replaced(
        case in head_strategy(),
    ) {
        use bsoap_transport::http::StartLine;
        let (head, reply) = case;
        let (opens, oracle): (_, oracle::Grammar) = if reply {
            (StartLine::Status, oracle::reply)
        } else {
            (StartLine::Request, oracle::request)
        };
        let want = oracle(&head);
        prop_assert!(want.is_some(), "a well-formed head: {:?}", String::from_utf8_lossy(&head));
        prop_assert_eq!(one_parser(&head, opens), want);
        let bytes = [b' ', b'\t', b':', b'\r', b'\n', b'a', b'Z', b'0', b'7', b'-', 0, 0x80];
        let mut mutants = Vec::new();
        for at in 0..head.len() {
            for &b in &bytes {
                let mut m = head.clone();
                m[at] = b;
                mutants.push(m);
            }
            let mut m = head.clone();
            m.remove(at);
            mutants.push(m);
        }
        for mutant in mutants {
            let (got, want) = (one_parser(&mutant, opens), oracle(&mutant));
            if got != want {
                let why = deliberate_difference(&mutant, reply);
                prop_assert!(
                    why.is_some_and(|(_, expect)| expect(&got)),
                    "{:?}: {:?} where the oracle gave {:?} ({:?})",
                    String::from_utf8_lossy(&mutant),
                    got,
                    want,
                    why.map(|(name, _)| name)
                );
            }
        }
    }
}
