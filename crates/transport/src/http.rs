//! HTTP framing for SOAP payloads.
//!
//! SOAP 1.1 over HTTP is a `POST` with `Content-Type: text/xml` and a
//! `SOAPAction` header. The framing choice matters to the paper (§2): with
//! HTTP/1.0 the full `Content-Length` must be known before the first byte
//! goes out, so the whole message must exist in memory; HTTP/1.1
//! `Transfer-Encoding: chunked` lets "data structures … be sent over the
//! network as soon as they are serialized" — the property chunk overlaying
//! (§3.3) relies on.
//!
//! Everything here is synchronous and allocation-frugal: heads are rendered
//! into reusable buffers (numbers included), the chunked encoder frames a
//! gather list without copying the payload, and one head parser
//! ([`Head::parse`]) reads requests and replies alike into spans, so a warm
//! exchange allocates per message, not per header.

use std::fmt;
use std::io::{self, IoSlice, Read, Write};
use std::ops::Range;

/// HTTP version / framing strategy for the SOAP POST.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HttpVersion {
    /// `HTTP/1.0` with `Content-Length` (whole message framed up front).
    Http10,
    /// `HTTP/1.1` with `Transfer-Encoding: chunked` (streamable).
    Http11Chunked,
    /// `HTTP/1.1` with `Content-Length` (persistent connection, one frame).
    Http11Length,
}

impl HttpVersion {
    /// The version token on the request line.
    pub fn token(self) -> &'static str {
        match self {
            HttpVersion::Http10 => "HTTP/1.0",
            HttpVersion::Http11Chunked | HttpVersion::Http11Length => "HTTP/1.1",
        }
    }

    /// Whether this framing streams without a known total length.
    pub fn is_chunked(self) -> bool {
        matches!(self, HttpVersion::Http11Chunked)
    }
}

/// Static description of the SOAP POST target.
#[derive(Clone, Debug)]
pub struct RequestConfig {
    /// Request path, e.g. `/service`.
    pub path: String,
    /// `Host` header value.
    pub host: String,
    /// `SOAPAction` header value (quoted per SOAP 1.1).
    pub soap_action: String,
    /// Framing strategy.
    pub version: HttpVersion,
    /// Extra `(name, value)` request headers rendered after the standard
    /// ones — the client's wire-format offer (`X-BSOAP-Accept`) and body
    /// format declaration (`X-BSOAP-Format`) ride here. Empty by default.
    pub extra_headers: Vec<(String, String)>,
}

impl RequestConfig {
    /// Conventional configuration for a loopback service.
    pub fn loopback(version: HttpVersion) -> Self {
        RequestConfig {
            path: "/service".to_owned(),
            host: "localhost".to_owned(),
            soap_action: "urn:bench#send".to_owned(),
            version,
            extra_headers: Vec::new(),
        }
    }

    /// Render the request head (request line + headers + blank line) into
    /// `out` (cleared first). `content_len` frames a length-framed
    /// version and is ignored for chunked framing; a head rendered with no
    /// length is a chunked `HTTP/1.1` head whatever `version` says (a
    /// streamed body cannot promise its length up front).
    pub fn render_head(&self, out: &mut Vec<u8>, content_len: Option<usize>) {
        let length = content_len.filter(|_| !self.version.is_chunked());
        let version = match length {
            Some(_) => self.version,
            None => HttpVersion::Http11Chunked,
        };
        out.clear();
        out.extend_from_slice(b"POST ");
        out.extend_from_slice(self.path.as_bytes());
        out.push(b' ');
        out.extend_from_slice(version.token().as_bytes());
        out.extend_from_slice(b"\r\nHost: ");
        out.extend_from_slice(self.host.as_bytes());
        out.extend_from_slice(b"\r\nContent-Type: text/xml; charset=utf-8\r\nSOAPAction: \"");
        out.extend_from_slice(self.soap_action.as_bytes());
        out.extend_from_slice(b"\"\r\n");
        for (name, value) in &self.extra_headers {
            push_header(out, name, value);
        }
        match length {
            Some(n) => {
                out.extend_from_slice(b"Content-Length: ");
                push_decimal(out, n);
                out.extend_from_slice(b"\r\n");
            }
            None => out.extend_from_slice(b"Transfer-Encoding: chunked\r\n"),
        }
        if version == HttpVersion::Http10 {
            // 1.0 defaults to close; ask for reuse like gSOAP's keep-alive.
            out.extend_from_slice(b"Connection: keep-alive\r\n");
        }
        out.extend_from_slice(b"\r\n");
    }
}

/// Append `name: value\r\n`.
fn push_header(out: &mut Vec<u8>, name: &str, value: &str) {
    out.extend_from_slice(name.as_bytes());
    out.extend_from_slice(b": ");
    out.extend_from_slice(value.as_bytes());
    out.extend_from_slice(b"\r\n");
}

/// Append `n` in decimal, through the workspace's one integer writer.
fn push_decimal(out: &mut Vec<u8>, n: usize) {
    let mut digits = [0u8; 20];
    let len = bsoap_convert::itoa::write_u64(&mut digits, n as u64);
    out.extend_from_slice(&digits[..len]);
}

/// SOAP 1.1's content type.
pub const TEXT_XML: &str = "text/xml; charset=utf-8";

/// Framing/parsing error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HttpError {
    /// Malformed request/response head.
    BadHead(&'static str),
    /// Chunked body was malformed.
    BadChunk(&'static str),
    /// Body framing headers missing or contradictory.
    BadFraming(&'static str),
    /// Head or body exceeds the reader's configured cap (a hardened
    /// server's defense against memory-exhaustion requests).
    TooLarge(&'static str),
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::BadHead(w) => write!(f, "malformed HTTP head: {w}"),
            HttpError::BadChunk(w) => write!(f, "malformed chunked body: {w}"),
            HttpError::BadFraming(w) => write!(f, "bad body framing: {w}"),
            HttpError::TooLarge(w) => write!(f, "request exceeds size cap: {w}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<HttpError> for io::Error {
    fn from(e: HttpError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// Render `{len:x}\r\n` into `buf`; returns byte count.
pub(crate) fn render_chunk_size(buf: &mut [u8; 18], len: usize) -> usize {
    let digits = (usize::BITS - len.leading_zeros()).div_ceil(4).max(1) as usize;
    for (i, b) in buf[..digits].iter_mut().rev().enumerate() {
        *b = b"0123456789abcdef"[(len >> (4 * i)) & 0xf];
    }
    buf[digits..digits + 2].copy_from_slice(b"\r\n");
    digits + 2
}

/// Reusable scratch for [`post_gather_vectored`]: the request head and the
/// chunk size lines live here between calls so the assembled gather list
/// can reference them without allocating per send.
#[derive(Debug, Default)]
pub struct PostScratch {
    head: Vec<u8>,
    /// Each chunk's size line and its length.
    sizes: Vec<([u8; 18], usize)>,
}

impl PostScratch {
    /// The head buffer, for request forms that render a head but frame
    /// no gather list (a streamed POST, a `GET`).
    pub(crate) fn head_mut(&mut self) -> &mut Vec<u8> {
        &mut self.head
    }
}

/// Write one SOAP POST with **zero body copies**: the head (and, for
/// chunked framing, the size lines) are emitted as their own `IoSlice`s
/// and the caller's gather list passes straight through to the vectored
/// drain. A keep-alive POST of a non-contiguous template therefore costs
/// one `writev` per socket-buffer fill and never flattens the payload.
///
/// One HTTP chunk per message chunk: the store's natural gather
/// granularity maps 1:1 onto wire chunks. Returns total bytes written
/// (head + framing + payload).
pub fn post_gather_vectored(
    stream: &mut impl Write,
    cfg: &RequestConfig,
    body: &[IoSlice<'_>],
    scratch: &mut PostScratch,
) -> io::Result<usize> {
    cfg.render_head(&mut scratch.head, Some(crate::gather_len(body)));
    let mut list: Vec<IoSlice<'_>> = Vec::with_capacity(2 + 3 * body.len());
    list.push(IoSlice::new(&scratch.head));
    if cfg.version.is_chunked() {
        let chunks = body.iter().filter(|s| !s.is_empty());
        scratch.sizes.clear();
        for s in chunks.clone() {
            let mut line = [0u8; 18];
            let len = render_chunk_size(&mut line, s.len());
            scratch.sizes.push((line, len));
        }
        for (s, (line, len)) in chunks.zip(&scratch.sizes) {
            list.extend([
                IoSlice::new(&line[..*len]),
                IoSlice::new(s),
                IoSlice::new(b"\r\n"),
            ]);
        }
        list.push(IoSlice::new(b"0\r\n\r\n"));
    } else {
        list.extend(body.iter().map(|s| IoSlice::new(s)));
    }
    let n = crate::write_gather(stream, &list)?;
    stream.flush()?;
    Ok(n)
}

/// Which start line a head opens with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StartLine {
    /// `method SP target SP version`: a request.
    Request,
    /// `version SP status-code SP reason`: a reply.
    Status,
}

/// `from..to` within a [`Head`]'s text (a head is under 4 GiB).
type Span = (u32, u32);

/// One parsed HTTP head, a request's or a reply's: its text, with the
/// start line's three tokens and each header's trimmed name and value held
/// as spans into it. No header is copied and no name lower-cased (lookups
/// compare ASCII case-insensitively), so a reused `Head` parses a warm
/// head without allocating.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Head {
    text: String,
    start: [Span; 3],
    /// `(name, value)` of each header line, in arrival order.
    fields: Vec<(Span, Span)>,
}

impl Head {
    /// The one head parser: parse `bytes` (a whole head, through its blank
    /// line) into `self` and return how the body after it is framed. One
    /// grammar and one framing rule for both sides (DESIGN §3.13): only
    /// CRLF ends a line; a line without a colon is [`HttpError::BadHead`];
    /// `Transfer-Encoding` must be `chunked` and overrides
    /// `Content-Length`, whose repeated values must agree; a head with
    /// neither is [`HttpError::BadFraming`], unless a `GET`, `HEAD` or
    /// `DELETE` request, which then has an empty body.
    pub fn parse(&mut self, bytes: &[u8], opens: StartLine) -> Result<BodyFraming, HttpError> {
        let text = std::str::from_utf8(bytes).map_err(|_| HttpError::BadHead("non-UTF-8 head"))?;
        if u32::try_from(text.len()).is_err() {
            return Err(HttpError::TooLarge("head"));
        }
        // What a long head grew is not kept for the next one.
        let field = std::mem::size_of::<(Span, Span)>();
        if self.text.capacity() + self.fields.capacity() * field > READ_SIZE {
            *self = Head::default();
        }
        self.text.clear();
        self.text.push_str(text);
        self.fields.clear();
        self.fields.reserve(text.matches("\r\n").count());
        let text = self.text.as_str();
        let span = |part: &str| {
            let at = part.as_ptr() as usize - text.as_ptr() as usize;
            (at as u32, (at + part.len()) as u32)
        };
        let mut lines = text.split("\r\n");
        let first = lines.next().unwrap_or_default();
        let start = if opens == StartLine::Request {
            let mut tokens = first.split(' ');
            let method = tokens.next().unwrap_or_default();
            let path = tokens.next().ok_or(HttpError::BadHead("missing path"))?;
            let version = tokens.next().ok_or(HttpError::BadHead("missing version"))?;
            if tokens.next().is_some() {
                return Err(HttpError::BadHead("extra tokens on request line"));
            }
            [method, path, version]
        } else {
            let mut tokens = first.splitn(3, ' ');
            match [tokens.next(), tokens.next(), tokens.next()] {
                [Some(version), Some(code), Some(reason)] if code.parse::<u16>().is_ok() => {
                    [version, code, reason]
                }
                _ => return Err(HttpError::BadHead("bad status line")),
            }
        };
        self.start = start.map(span);
        let (mut chunked, mut unsupported, mut length) = (false, false, None);
        for line in lines.filter(|line| !line.is_empty()) {
            let (name, value) = line
                .split_once(':')
                .ok_or(HttpError::BadHead("header missing colon"))?;
            let (name, value) = (name.trim(), value.trim());
            self.fields.push((span(name), span(value)));
            if name.eq_ignore_ascii_case("transfer-encoding") {
                chunked = true;
                unsupported |= !value.eq_ignore_ascii_case("chunked");
            } else if name.eq_ignore_ascii_case("content-length") {
                length = Some(match (length, value.parse::<usize>()) {
                    (Some(Err(e)), _) => Err(e),
                    (_, Err(_)) => Err(HttpError::BadFraming("non-numeric content-length")),
                    (Some(Ok(seen)), Ok(n)) if seen != n => {
                        Err(HttpError::BadFraming("conflicting content-length"))
                    }
                    (_, Ok(n)) => Ok(n),
                });
            }
        }
        let bodiless = opens == StartLine::Request && matches!(start[0], "GET" | "HEAD" | "DELETE");
        match (chunked, length) {
            (true, _) if unsupported => Err(HttpError::BadFraming("unsupported transfer-encoding")),
            (true, _) => Ok(BodyFraming::Chunked),
            (false, Some(length)) => length.map(BodyFraming::Length),
            // What a `GET /metrics` scrape sends; a broken framing header
            // is refused whatever the method.
            (false, None) if bodiless => Ok(BodyFraming::Length(0)),
            (false, None) => Err(HttpError::BadFraming("neither content-length nor chunked")),
        }
    }

    /// The start line's three tokens: method, target and version of a
    /// request; version, status code and reason of a reply.
    pub fn start_line(&self) -> [&str; 3] {
        self.start
            .map(|(from, to)| &self.text[from as usize..to as usize])
    }

    /// A reply's status code (0 on a request).
    pub fn status(&self) -> u16 {
        self.start_line()[1].parse().unwrap_or(0)
    }

    /// First value of a header, its name compared ASCII case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v)
    }

    /// Every header's `(name, value)`, trimmed, in arrival order.
    pub fn headers(&self) -> impl Iterator<Item = (&str, &str)> + '_ {
        let at = |(from, to): Span| &self.text[from as usize..to as usize];
        self.fields
            .iter()
            .map(move |&(name, value)| (at(name), at(value)))
    }
}

/// The methods a [`RequestHead`] names (RFC 9110 §9, and `PATCH`).
const METHODS: [&str; 9] = [
    "GET", "HEAD", "POST", "PUT", "DELETE", "CONNECT", "OPTIONS", "TRACE", "PATCH",
];

/// A parsed request head: its method, interned, and its [`Head`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestHead {
    /// The request's method (`POST` for SOAP) if it is one of RFC 9110's
    /// eight or `PATCH`, else empty.
    pub method: &'static str,
    head: Head,
}

impl RequestHead {
    /// Over a head [`Head::parse`] read as a request.
    fn of(head: Head) -> RequestHead {
        let token = head.start_line()[0];
        let method = METHODS.into_iter().find(|m| *m == token);
        RequestHead {
            method: method.unwrap_or_default(),
            head,
        }
    }

    /// Request target.
    pub fn path(&self) -> &str {
        self.head.start_line()[1]
    }

    /// Version token (`HTTP/1.0` / `HTTP/1.1`).
    pub fn version(&self) -> &str {
        self.head.start_line()[2]
    }

    /// First value of a header (name compared case-insensitively).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.head.header(name)
    }
}

/// How the body after a head is delimited.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BodyFraming {
    /// Exactly `n` body bytes follow.
    Length(usize),
    /// Chunked transfer coding follows.
    Chunked,
}

/// Bytes asked of the socket per `read`: one call takes a whole small
/// request, two take a 100 KB one.
pub const READ_SIZE: usize = 64 * 1024;

/// Longest permitted chunk-size line (hex digits + extensions, without
/// its CRLF). Anything longer is an attack or corruption, never a size.
pub const MAX_SIZE_LINE: usize = 256;

/// Longest permitted trailer section (every trailer line and the closing
/// blank line, CRLFs included). The same figure as [`MAX_SIZE_LINE`], so
/// a fixed decode window of `MAX_SIZE_LINE + 2` bytes always holds the
/// line the decoder is waiting on.
pub const MAX_TRAILERS: usize = MAX_SIZE_LINE;

/// The head and body caps every holder of a connection starts from —
/// `ConnConfig`, `ServerOptions` and `HttpPoolClient` state these and no
/// other figure: 1 MiB of head, 64 MiB of body.
pub(crate) const DEFAULT_MAX_HEAD: usize = 1 << 20;
pub(crate) const DEFAULT_MAX_BODY: usize = 64 << 20;

/// What one [`BodyDecoder::step`] found at the front of the window.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Decoded {
    /// The window ends inside a framing element or holds no payload yet:
    /// consume what was reported and read more.
    Starved,
    /// Payload bytes at this range of the window (the consumed count ends
    /// where the range does).
    Payload(Range<usize>),
    /// The body is complete; nothing past the consumed count belongs to it.
    Done,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BodyPhase {
    /// Payload bytes left in the `Content-Length` body or current chunk.
    Data {
        remaining: usize,
        chunked: bool,
    },
    /// Expecting a `{len:x}[;ext]\r\n` size line.
    SizeLine,
    /// Expecting the CRLF that closes a chunk's data.
    DataCrlf,
    /// Past the `0` chunk: skipping trailer lines until the blank one;
    /// `seen` bytes of the section are already consumed.
    Trailers {
        seen: usize,
    },
    Done,
}

/// Sans-io body decoder: the one place that knows `Content-Length`
/// counting, the chunked grammar and their caps. Feed it the unconsumed
/// window; it answers how many bytes to consume and what they were.
///
/// Every server core, the client's response reader and
/// [`ChunkedBodyReader`](crate::stream::ChunkedBodyReader) decode through
/// it, so a bound holds on all of them or on none:
/// * a `Content-Length` above `max_body`, or a chunk that would take the
///   body past it (`size > max_body - seen`, saturating) →
///   [`HttpError::TooLarge`]
/// * a size line over [`MAX_SIZE_LINE`] or a trailer section over
///   [`MAX_TRAILERS`] → [`HttpError::TooLarge`]
/// * a size that is not bare hex digits before an optional `;extension`
///   (no whitespace is trimmed), or chunk data not followed by CRLF →
///   [`HttpError::BadChunk`]
#[derive(Clone, Debug)]
pub struct BodyDecoder {
    phase: BodyPhase,
    /// Payload bytes yielded so far.
    seen: usize,
    max_body: usize,
}

impl BodyDecoder {
    /// Decoder for a body framed as `framing`, capped at `max_body`.
    pub fn new(framing: BodyFraming, max_body: usize) -> Result<Self, HttpError> {
        let phase = match framing {
            BodyFraming::Length(n) if n > max_body => {
                return Err(HttpError::TooLarge("declared content-length"))
            }
            BodyFraming::Length(n) => BodyPhase::Data {
                remaining: n,
                chunked: false,
            },
            BodyFraming::Chunked => BodyPhase::SizeLine,
        };
        Ok(BodyDecoder {
            phase,
            seen: 0,
            max_body,
        })
    }

    /// Payload bytes yielded so far.
    pub fn seen(&self) -> usize {
        self.seen
    }

    /// The error an EOF at this point of the body is.
    pub fn eof_error(&self) -> HttpError {
        match self.phase {
            BodyPhase::Data { chunked: false, .. } => {
                HttpError::BadFraming("EOF inside length-framed body")
            }
            _ => HttpError::BadChunk("EOF inside chunked body"),
        }
    }

    /// Skip the framing at the front of `window` and report the first
    /// payload run, the end of the body, or starvation. Returns the bytes
    /// to consume and what they held.
    pub fn step(&mut self, window: &[u8]) -> Result<(usize, Decoded), HttpError> {
        let mut at = 0;
        loop {
            let rest = &window[at..];
            match self.phase {
                BodyPhase::Data {
                    remaining: 0,
                    chunked,
                } => {
                    self.phase = if chunked {
                        BodyPhase::DataCrlf
                    } else {
                        BodyPhase::Done
                    };
                }
                BodyPhase::Data { remaining, chunked } => {
                    let take = remaining.min(rest.len());
                    if take == 0 {
                        return Ok((at, Decoded::Starved));
                    }
                    self.phase = BodyPhase::Data {
                        remaining: remaining - take,
                        chunked,
                    };
                    self.seen += take;
                    return Ok((at + take, Decoded::Payload(at..at + take)));
                }
                BodyPhase::SizeLine => {
                    let Some(p) = find(rest, b"\r\n") else {
                        // The last byte may be the CR of a CRLF still in
                        // flight, hence the `+ 1`.
                        if rest.len() > MAX_SIZE_LINE + 1 {
                            return Err(HttpError::TooLarge("chunk size line"));
                        }
                        return Ok((at, Decoded::Starved));
                    };
                    if p > MAX_SIZE_LINE {
                        return Err(HttpError::TooLarge("chunk size line"));
                    }
                    let line = &rest[..p];
                    let digits = line.split(|&b| b == b';').next().unwrap_or(line);
                    let size =
                        parse_hex(digits).ok_or(HttpError::BadChunk("bad chunk size line"))?;
                    at += p + 2;
                    self.phase = if size == 0 {
                        BodyPhase::Trailers { seen: 0 }
                    } else if size > self.max_body.saturating_sub(self.seen) {
                        return Err(HttpError::TooLarge("chunked body"));
                    } else {
                        BodyPhase::Data {
                            remaining: size,
                            chunked: true,
                        }
                    };
                }
                BodyPhase::DataCrlf => {
                    if rest.len() < 2 {
                        return Ok((at, Decoded::Starved));
                    }
                    if &rest[..2] != b"\r\n" {
                        return Err(HttpError::BadChunk("missing CRLF after chunk data"));
                    }
                    at += 2;
                    self.phase = BodyPhase::SizeLine;
                }
                BodyPhase::Trailers { seen } => {
                    let line = find(rest, b"\r\n");
                    let seen = seen + line.map_or(rest.len(), |p| p + 2);
                    if seen > MAX_TRAILERS {
                        return Err(HttpError::TooLarge("trailer section"));
                    }
                    let Some(p) = line else {
                        return Ok((at, Decoded::Starved));
                    };
                    at += p + 2;
                    self.phase = if p == 0 {
                        BodyPhase::Done
                    } else {
                        BodyPhase::Trailers { seen }
                    };
                }
                BodyPhase::Done => return Ok((at, Decoded::Done)),
            }
        }
    }
}

/// What one [`RequestParser::step`] found at the front of the window.
#[derive(Debug, PartialEq, Eq)]
pub enum Parsed {
    /// Nothing more can be parsed until more bytes arrive.
    Starved,
    /// A complete head ([`RequestParser::take_request_head`]), and how the
    /// body after it is framed.
    Head(BodyFraming),
    /// Body payload at this range of the window.
    Body(Range<usize>),
    /// The message is complete; the parser expects a new head next.
    Done,
}

/// Sans-io message parser: head splitting and its cap, the one head parser
/// ([`Head::parse`]), then the [`BodyDecoder`]. [`Conn`](crate::conn::Conn)
/// runs every served request through it; [`RequestReader`] and
/// [`ClientConn::read_reply`](crate::client::ClientConn::read_reply) are
/// the one blocking loop over it, the latter parsing heads that open on a
/// status line.
#[derive(Debug)]
pub struct RequestParser {
    max_head: usize,
    max_body: usize,
    opens: StartLine,
    /// The head last parsed. A server takes each request's out; a client
    /// reads its replies' here, reusing the buffers.
    head: Head,
    /// `None` while expecting a head.
    body: Option<BodyDecoder>,
}

impl RequestParser {
    /// Parser enforcing head/body size caps: a head that does not
    /// terminate within `max_head` bytes, a `Content-Length` above
    /// `max_body`, or a chunked body accumulating past `max_body` all fail
    /// with [`HttpError::TooLarge`] instead of growing buffers without
    /// bound.
    pub fn new(max_head: usize, max_body: usize) -> Self {
        RequestParser {
            max_head,
            max_body,
            opens: StartLine::Request,
            head: Head::default(),
            body: None,
        }
    }

    /// Parse the next element at the front of `window`. Returns the bytes
    /// to consume and what they held.
    pub fn step(&mut self, window: &[u8]) -> Result<(usize, Parsed), HttpError> {
        let Some(body) = self.body.as_mut() else {
            let what = match self.opens {
                StartLine::Request => "request head",
                StartLine::Status => "response head",
            };
            let Some(end) = capped_head_end(window, self.max_head, what)? else {
                return Ok((0, Parsed::Starved));
            };
            let framing = self.head.parse(&window[..end], self.opens)?;
            self.body = Some(BodyDecoder::new(framing, self.max_body)?);
            return Ok((end, Parsed::Head(framing)));
        };
        let (n, step) = body.step(window)?;
        let parsed = match step {
            Decoded::Starved => Parsed::Starved,
            Decoded::Payload(range) => Parsed::Body(range),
            Decoded::Done => {
                self.body = None;
                Parsed::Done
            }
        };
        Ok((n, parsed))
    }

    /// The request head the last [`Parsed::Head`] announced, moved out:
    /// a served connection keeps no head between requests.
    pub fn take_request_head(&mut self) -> RequestHead {
        RequestHead::of(std::mem::take(&mut self.head))
    }

    /// A parser of replies, whose heads open on a status line; each
    /// [`RequestParser::read_reply`] sets its caps.
    pub(crate) fn replies() -> Self {
        RequestParser {
            opens: StartLine::Status,
            ..RequestParser::new(0, 0)
        }
    }

    /// Read one reply off `stream` through `buf`, length-framed or chunked
    /// (a window already holding a whole reply answers without a `read`):
    /// status, head and body. A head past `max_head` or a body past
    /// `max_body` is [`HttpError::TooLarge`]; EOF before any reply byte is
    /// `UnexpectedEof`.
    pub(crate) fn read_reply(
        &mut self,
        stream: &mut impl Read,
        buf: &mut ParseBuf,
        max_head: usize,
        max_body: usize,
    ) -> io::Result<(u16, &Head, Vec<u8>)> {
        (self.max_head, self.max_body, self.body) = (max_head, max_body, None);
        let eof = || {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before any response byte",
            )
        };
        let body = read_message(stream, buf, self)?.ok_or_else(eof)?;
        Ok((self.head.status(), &self.head, body))
    }

    /// The error an EOF at this point of the message is.
    pub fn eof_error(&self) -> HttpError {
        match &self.body {
            None if self.opens == StartLine::Request => {
                HttpError::BadHead("EOF inside request head")
            }
            None => HttpError::BadHead("EOF inside response head"),
            Some(body) => body.eof_error(),
        }
    }
}

/// A reusable read buffer with a parse window over its filled part. Reads
/// land straight in the free tail — no per-read scratch, no zeroing —
/// and a fully consumed window rewinds for free.
#[derive(Debug, Default)]
pub struct ParseBuf {
    /// Always fully initialized; `start..end` is the unparsed window.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl ParseBuf {
    /// The unparsed bytes.
    pub fn window(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    /// Size of the allocation behind the window (zero until the first
    /// read).
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Drop the first `n` bytes of the window.
    pub fn consume(&mut self, n: usize) {
        self.start += n;
        debug_assert!(self.start <= self.end);
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
    }

    /// One successful `read` into at least [`READ_SIZE`] bytes of free
    /// tail, retrying `Interrupted`. Unparsed bytes are kept (slid to the
    /// front if room is short); the buffer grows only when a partial
    /// element is still too large for it.
    pub fn read_from(&mut self, io: &mut impl Read) -> io::Result<usize> {
        if self.buf.is_empty() {
            self.buf = vec![0; READ_SIZE];
        } else if self.buf.len() - self.end < READ_SIZE {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
            if self.buf.len() - self.end < READ_SIZE {
                self.buf.resize(self.end + READ_SIZE, 0);
            }
        }
        loop {
            match io.read(&mut self.buf[self.end..]) {
                Ok(n) => {
                    self.end += n;
                    return Ok(n);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

/// Blocking reader of HTTP requests off a stream: the one blocking read
/// loop over a [`RequestParser`].
pub struct RequestReader<R> {
    stream: R,
    buf: ParseBuf,
    parser: RequestParser,
}

impl<R: Read> RequestReader<R> {
    /// Wrap a stream with no size caps (trusted peers, tests).
    pub fn new(stream: R) -> Self {
        Self::with_limits(stream, usize::MAX, usize::MAX)
    }

    /// Wrap a stream enforcing the caps of [`RequestParser::new`].
    pub fn with_limits(stream: R, max_head: usize, max_body: usize) -> Self {
        RequestReader {
            stream,
            buf: ParseBuf::default(),
            parser: RequestParser::new(max_head, max_body),
        }
    }

    /// Read one full request. Returns `Ok(None)` on clean EOF before any
    /// bytes of a next request.
    pub fn next_request(&mut self) -> io::Result<Option<(RequestHead, Vec<u8>)>> {
        let body = read_message(&mut self.stream, &mut self.buf, &mut self.parser)?;
        Ok(body.map(|body| (self.parser.take_request_head(), body)))
    }
}

/// The one blocking read loop, for requests and replies alike: step
/// `parser` over `buf`'s window, reading `stream` whenever it starves,
/// until one message is whole. Returns its body (its head is the
/// parser's), or `None` at EOF before any byte of a message; what the
/// reads pulled past the message stays in `buf`.
fn read_message(
    stream: &mut impl Read,
    buf: &mut ParseBuf,
    parser: &mut RequestParser,
) -> io::Result<Option<Vec<u8>>> {
    let mut body = None;
    loop {
        let (n, parsed) = parser.step(buf.window())?;
        match parsed {
            Parsed::Head(framing) => {
                let mut room = Vec::new();
                if let BodyFraming::Length(len) = framing {
                    // Clamped so a forged Content-Length cannot force a
                    // huge up-front allocation.
                    room.reserve(len.min(READ_SIZE));
                }
                body = Some(room);
            }
            Parsed::Body(range) => {
                let body = body.as_mut().expect("payload follows a head");
                body.extend_from_slice(&buf.window()[range]);
            }
            Parsed::Done => {
                buf.consume(n);
                return Ok(body);
            }
            Parsed::Starved => {
                buf.consume(n);
                if buf.read_from(stream)? == 0 {
                    if body.is_none() && buf.window().is_empty() {
                        return Ok(None);
                    }
                    return Err(parser.eof_error().into());
                }
                continue;
            }
        }
        buf.consume(n);
    }
}

/// Parse the bytes of a request head (through the blank line) that frames
/// a body.
#[doc(hidden)]
pub fn parse_request_head(head: &[u8]) -> Result<RequestHead, HttpError> {
    let mut parsed = Head::default();
    parsed.parse(head, StartLine::Request)?;
    Ok(RequestHead::of(parsed))
}

/// Render a response head (through the blank line) for a body of
/// `content_len` bytes into `out` (cleared first): its `Content-Type` (the
/// `/metrics` endpoint answers in `text/plain`, not SOAP's [`TEXT_XML`])
/// plus extra `(name, value)` headers — the negotiation echo
/// (`X-BSOAP-Accept` / `X-BSOAP-Format`) rides here.
pub fn render_response_head_extra(
    out: &mut Vec<u8>,
    status: u16,
    reason: &str,
    content_type: &str,
    content_len: usize,
    extra: &[(&str, String)],
) {
    out.clear();
    out.extend_from_slice(b"HTTP/1.1 ");
    push_decimal(out, usize::from(status));
    out.push(b' ');
    out.extend_from_slice(reason.as_bytes());
    out.extend_from_slice(b"\r\nContent-Type: ");
    out.extend_from_slice(content_type.as_bytes());
    out.extend_from_slice(b"\r\nContent-Length: ");
    push_decimal(out, content_len);
    out.extend_from_slice(b"\r\n");
    for (name, value) in extra {
        push_header(out, name, value);
    }
    out.extend_from_slice(b"\r\n");
}

/// Render a bodiless `GET` request (keep-alive, HTTP/1.1) into `out`
/// (cleared first) — how a Prometheus scraper asks for `/metrics`.
pub fn render_get_request(out: &mut Vec<u8>, path: &str, host: &str) {
    out.clear();
    out.extend_from_slice(b"GET ");
    out.extend_from_slice(path.as_bytes());
    out.extend_from_slice(b" HTTP/1.1\r\nHost: ");
    out.extend_from_slice(host.as_bytes());
    out.extend_from_slice(b"\r\nAccept: text/plain\r\n\r\n");
}

/// Render a minimal response with a body (used by the collecting server to
/// acknowledge requests).
pub fn render_response(out: &mut Vec<u8>, status: u16, reason: &str, body: &[u8]) {
    render_response_head_extra(out, status, reason, TEXT_XML, body.len(), &[]);
    out.extend_from_slice(body);
}

/// Write a response without copying the body: the head goes out as its
/// own `IoSlice` and the caller's gather list rides the vectored drain.
/// Returns total bytes written.
pub fn write_response_vectored(
    stream: &mut impl Write,
    status: u16,
    reason: &str,
    body: &[IoSlice<'_>],
    head_scratch: &mut Vec<u8>,
) -> io::Result<usize> {
    let payload = crate::gather_len(body);
    render_response_head_extra(head_scratch, status, reason, TEXT_XML, payload, &[]);
    let mut list: Vec<IoSlice<'_>> = Vec::with_capacity(1 + body.len());
    list.push(IoSlice::new(head_scratch));
    list.extend(body.iter().map(|s| IoSlice::new(s)));
    let n = crate::write_gather(stream, &list)?;
    stream.flush()?;
    Ok(n)
}

/// Read one HTTP response off a stream under head/body caps — a hostile
/// or buggy server must not be able to balloon client RSS; returns status
/// and body. One-shot: the buffer is dropped with whatever the last `read`
/// pulled past the reply, so a keep-alive client reads through its
/// [`ClientConn`](crate::client::ClientConn) instead.
///
/// EOF before *any* response byte maps to [`io::ErrorKind::UnexpectedEof`]
/// rather than `InvalidData`: it is the signature of a stale keep-alive
/// socket (the peer closed between requests), which pooled clients treat
/// as retryable, unlike a genuinely malformed response.
pub fn read_response_limited(
    stream: &mut impl Read,
    max_head: usize,
    max_body: usize,
) -> io::Result<(u16, Vec<u8>)> {
    let mut parser = RequestParser::replies();
    let (status, _, body) =
        parser.read_reply(stream, &mut ParseBuf::default(), max_head, max_body)?;
    Ok((status, body))
}

/// Status code, response headers (names lowercased), and body.
#[doc(hidden)]
pub type ResponseParts = (u16, Vec<(String, String)>, Vec<u8>);

/// [`read_response_limited`] that also returns the response headers, as
/// owned pairs with lower-cased names.
#[doc(hidden)]
pub fn read_response_headers_limited(
    stream: &mut impl Read,
    max_head: usize,
    max_body: usize,
) -> io::Result<ResponseParts> {
    let mut parser = RequestParser::replies();
    let (status, head, body) =
        parser.read_reply(stream, &mut ParseBuf::default(), max_head, max_body)?;
    let headers = head.headers();
    let headers = headers.map(|(n, v)| (n.to_ascii_lowercase(), v.to_owned()));
    Ok((status, headers.collect(), body))
}

/// Bare hex digits (no sign, no whitespace) as a `usize`.
fn parse_hex(s: &[u8]) -> Option<usize> {
    let digits = std::str::from_utf8(s).ok()?;
    let hex = digits.bytes().all(|b| b.is_ascii_hexdigit());
    usize::from_str_radix(digits, 16).ok().filter(|_| hex)
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// The one head splitter: index one past a complete head's terminating
/// blank line (`\r\n\r\n`), or `None` while the head is still partial.
///
/// Every head is found here — by [`RequestParser`] (and so the server's
/// connections, [`RequestReader`] and a client's reply reader) and by
/// `stream::read_head` — so random fragmentation cannot make two paths
/// disagree about where a head ends (proven by the fragmentation proptest
/// in `tests/prop_http.rs`).
pub fn head_end(buf: &[u8]) -> Option<usize> {
    find(buf, b"\r\n\r\n").map(|p| p + 4)
}

/// [`head_end`] under the `max_head` cap: a complete head longer than the
/// cap, or a partial one already past it, is [`HttpError::TooLarge`]
/// (`what` names the head in the message) instead of more buffering.
pub fn capped_head_end(
    window: &[u8],
    max_head: usize,
    what: &'static str,
) -> Result<Option<usize>, HttpError> {
    match head_end(window) {
        Some(e) if e <= max_head => Ok(Some(e)),
        None if window.len() <= max_head => Ok(None),
        _ => Err(HttpError::TooLarge(what)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(version: HttpVersion, body_parts: &[&[u8]]) -> (RequestHead, Vec<u8>) {
        let cfg = RequestConfig::loopback(version);
        let mut wire = Vec::new();
        let slices: Vec<IoSlice<'_>> = body_parts.iter().map(|p| IoSlice::new(p)).collect();
        let mut scratch = PostScratch::default();
        let n = post_gather_vectored(&mut wire, &cfg, &slices, &mut scratch).unwrap();
        assert_eq!(n, wire.len());
        let mut reader = RequestReader::new(&wire[..]);
        let got = reader.next_request().unwrap().expect("one request");
        assert!(
            reader.next_request().unwrap().is_none(),
            "exactly one request"
        );
        got
    }

    #[test]
    fn length_framed_round_trip_10() {
        let (head, body) = round_trip(HttpVersion::Http10, &[b"<a>", b"1", b"</a>"]);
        assert_eq!(head.method, "POST");
        assert_eq!(head.version(), "HTTP/1.0");
        assert_eq!(head.header("content-length"), Some("8"));
        assert_eq!(body, b"<a>1</a>");
    }

    #[test]
    fn length_framed_round_trip_11() {
        let (head, body) = round_trip(HttpVersion::Http11Length, &[b"payload"]);
        assert_eq!(head.version(), "HTTP/1.1");
        assert_eq!(body, b"payload");
    }

    #[test]
    fn chunked_round_trip() {
        let parts: Vec<Vec<u8>> = (0..5)
            .map(|i| vec![b'a' + i as u8; 100 * (i + 1)])
            .collect();
        let refs: Vec<&[u8]> = parts.iter().map(|p| p.as_slice()).collect();
        let (head, body) = round_trip(HttpVersion::Http11Chunked, &refs);
        assert_eq!(head.header("transfer-encoding"), Some("chunked"));
        let expect: Vec<u8> = parts.concat();
        assert_eq!(body, expect);
    }

    #[test]
    fn chunked_skips_empty_slices() {
        let (_, body) = round_trip(HttpVersion::Http11Chunked, &[b"", b"x", b""]);
        assert_eq!(body, b"x");
    }

    #[test]
    fn empty_body_length_framed() {
        let (head, body) = round_trip(HttpVersion::Http10, &[]);
        assert_eq!(head.header("content-length"), Some("0"));
        assert!(body.is_empty());
    }

    #[test]
    fn soap_action_header_present_and_quoted() {
        let (head, _) = round_trip(HttpVersion::Http10, &[b"x"]);
        assert_eq!(head.header("soapaction"), Some("\"urn:bench#send\""));
        assert_eq!(head.header("content-type"), Some("text/xml; charset=utf-8"));
    }

    #[test]
    fn pipelined_requests_on_one_connection() {
        let cfg = RequestConfig::loopback(HttpVersion::Http11Length);
        let mut wire = Vec::new();
        let mut scratch = PostScratch::default();
        for i in 0..3 {
            let body = format!("<n>{i}</n>").into_bytes();
            let slices = [IoSlice::new(&body)];
            post_gather_vectored(&mut wire, &cfg, &slices, &mut scratch).unwrap();
        }
        let mut reader = RequestReader::new(&wire[..]);
        for i in 0..3 {
            let (_, body) = reader.next_request().unwrap().expect("request present");
            assert_eq!(body, format!("<n>{i}</n>").into_bytes());
        }
        assert!(reader.next_request().unwrap().is_none());
    }

    #[test]
    fn parse_head_rejects_garbage() {
        assert!(parse_request_head(b"garbage").is_err());
        assert!(parse_request_head(b"POST /x HTTP/1.1 extra\r\n\r\n").is_err());
        assert!(parse_request_head(b"POST /x HTTP/1.1\r\nNoColonHere\r\n\r\n").is_err());
        assert!(parse_request_head(&[0xFF, 0xFE]).is_err());
    }

    /// One framing rule, whichever start line opens the head.
    #[test]
    fn framing_detection() {
        use BodyFraming::{Chunked, Length};
        let neither = Err(HttpError::BadFraming("neither content-length nor chunked"));
        let conflict = Err(HttpError::BadFraming("conflicting content-length"));
        let unsupported = Err(HttpError::BadFraming("unsupported transfer-encoding"));
        let cases = [
            ("Content-Length: 12\r\n", Ok(Length(12))),
            ("Transfer-Encoding: chunked\r\n", Ok(Chunked)),
            // Chunked overrides (and does not read) Content-Length.
            (
                "TRANSFER-ENCODING: Chunked\r\nContent-Length: pony\r\n",
                Ok(Chunked),
            ),
            (
                "Content-Length: 5\r\nContent-Length: 6\r\nTransfer-Encoding: chunked\r\n",
                Ok(Chunked),
            ),
            ("Content-Length: 5\r\ncontent-length:5\r\n", Ok(Length(5))),
            (
                "Content-Length: 5\r\nContent-Length: 6\r\n",
                conflict.clone(),
            ),
            ("Content-Length: 6\r\nContent-Length: 5\r\n", conflict),
            ("", neither.clone()),
            (
                "Content-Length: pony\r\n",
                Err(HttpError::BadFraming("non-numeric content-length")),
            ),
            ("Transfer-Encoding: gzip\r\n", unsupported.clone()),
            (
                "Transfer-Encoding: chunked\r\nTransfer-Encoding: gzip\r\n",
                unsupported,
            ),
            // Only CRLF ends a line: the bare LF keeps the length in X-A.
            ("X-A: 1\nContent-Length: 5\r\n", neither),
            (
                "NoColonHere\r\nContent-Length: 5\r\n",
                Err(HttpError::BadHead("header missing colon")),
            ),
        ];
        for (opens, start) in [
            (StartLine::Request, "POST / HTTP/1.1"),
            (StartLine::Request, "GET / HTTP/1.1"),
            (StartLine::Request, "HEAD / HTTP/1.1"),
            (StartLine::Status, "HTTP/1.1 200 OK"),
        ] {
            // A bodiless method may leave its body unframed; a POST or a
            // reply may not, and no head may carry a broken framing header.
            let bodiless = start.starts_with("GET") || start.starts_with("HEAD");
            for (headers, want) in cases.clone() {
                let want = match want {
                    Err(HttpError::BadFraming("neither content-length nor chunked"))
                        if bodiless =>
                    {
                        Ok(Length(0))
                    }
                    want => want,
                };
                let head = format!("{start}\r\n{headers}\r\n");
                let got = Head::default().parse(head.as_bytes(), opens);
                assert_eq!(got, want, "{start}: {headers:?}");
            }
        }
        let delete = b"DELETE / HTTP/1.1\r\n\r\n";
        let mut head = Head::default();
        assert_eq!(head.parse(delete, StartLine::Request), Ok(Length(0)));
    }

    #[test]
    fn one_parser_opens_on_either_start_line() {
        let mut head = Head::default();
        let request = b"POST /svc HTTP/1.1\r\nHost:  a b \r\nX-BSOAP-Format:xml\r\n\
                        Content-Length: 0\r\n\r\n";
        assert_eq!(
            head.parse(request, StartLine::Request),
            Ok(BodyFraming::Length(0))
        );
        assert_eq!(head.start_line(), ["POST", "/svc", "HTTP/1.1"]);
        assert_eq!(head.status(), 0);
        assert_eq!(head.header("HOST"), Some("a b"));
        assert_eq!(head.header("x-bsoap-format"), Some("xml"));
        assert_eq!(head.headers().count(), 3);
        // The same head, reused, reads replies; a reason may hold spaces or
        // be empty, but its separating space may not be missing.
        let reply = b"HTTP/1.1 415 Unsupported Media Type\r\nContent-Length: 3\r\n\r\n";
        assert_eq!(
            head.parse(reply, StartLine::Status),
            Ok(BodyFraming::Length(3))
        );
        assert_eq!(
            head.start_line(),
            ["HTTP/1.1", "415", "Unsupported Media Type"]
        );
        assert_eq!((head.status(), head.header("host")), (415, None));
        let reply = b"HTTP/1.1 204 \r\nContent-Length: 0\r\n\r\n";
        assert_eq!(
            head.parse(reply, StartLine::Status),
            Ok(BodyFraming::Length(0))
        );
        assert_eq!(head.start_line(), ["HTTP/1.1", "204", ""]);
        for bad in ["HTTP/1.1 204", "HTTP/1.1 2x4 OK", "HTTP/1.1 70000 OK"] {
            let reply = format!("{bad}\r\nContent-Length: 0\r\n\r\n");
            let got = head.parse(reply.as_bytes(), StartLine::Status);
            assert_eq!(got, Err(HttpError::BadHead("bad status line")), "{bad}");
        }
        // A registered method is interned; any other reads as empty.
        let request = |method: &str| format!("{method} / HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
        let head = parse_request_head(request("PATCH").as_bytes()).unwrap();
        assert_eq!(head.method, "PATCH");
        let head = parse_request_head(request("PROPFIND").as_bytes()).unwrap();
        assert_eq!((head.method, head.path()), ("", "/"));
    }

    #[test]
    fn a_head_without_a_length_is_chunked_http11_whatever_the_version() {
        let (mut want, mut got) = (Vec::new(), Vec::new());
        RequestConfig::loopback(HttpVersion::Http11Chunked).render_head(&mut want, None);
        assert!(want.starts_with(b"POST /service HTTP/1.1\r\n"));
        assert!(want.ends_with(b"\"\r\nTransfer-Encoding: chunked\r\n\r\n"));
        for version in [HttpVersion::Http10, HttpVersion::Http11Length] {
            RequestConfig::loopback(version).render_head(&mut got, None);
            assert_eq!(got, want, "{version:?}");
        }
    }

    /// Numbers render in place, through the workspace's decimal writer and
    /// a fixed hex line; the bytes of each head form are pinned literally.
    #[test]
    fn rendered_heads_and_chunk_lines_are_literal_bytes() {
        let mut cfg = RequestConfig::loopback(HttpVersion::Http11Length);
        cfg.extra_headers = vec![
            ("X-BSOAP-Format".into(), "xml".into()),
            ("X-BSOAP-Accept".into(), "bin1".into()),
        ];
        let mut out = Vec::new();
        let common = "Host: localhost\r\nContent-Type: text/xml; charset=utf-8\r\n\
                      SOAPAction: \"urn:bench#send\"\r\nX-BSOAP-Format: xml\r\n\
                      X-BSOAP-Accept: bin1\r\n";
        for (len, digits) in [(0, "0"), (9, "9"), (1_234_567, "1234567")] {
            cfg.render_head(&mut out, Some(len));
            let want =
                format!("POST /service HTTP/1.1\r\n{common}Content-Length: {digits}\r\n\r\n");
            assert_eq!(out, want.as_bytes());
        }
        render_response_head_extra(
            &mut out,
            415,
            "Unsupported Media Type",
            "text/xml; charset=utf-8",
            u32::MAX as usize,
            &[("X-BSOAP-Accept", "bin1".to_owned())],
        );
        let want =
            b"HTTP/1.1 415 Unsupported Media Type\r\nContent-Type: text/xml; charset=utf-8\r\n\
                     Content-Length: 4294967295\r\nX-BSOAP-Accept: bin1\r\n\r\n";
        assert_eq!(out, want);
        render_response(&mut out, 200, "OK", b"");
        let want = b"HTTP/1.1 200 OK\r\nContent-Type: text/xml; charset=utf-8\r\n\
                     Content-Length: 0\r\n\r\n";
        assert_eq!(out, want);
        let mut line = [0u8; 18];
        let lines = [
            (0, "0\r\n"),
            (10, "a\r\n"),
            (255, "ff\r\n"),
            (4096, "1000\r\n"),
        ];
        for (len, want) in lines {
            let n = render_chunk_size(&mut line, len);
            assert_eq!(&line[..n], want.as_bytes());
        }
        for len in [1, 0xdead_beef, usize::MAX >> 3, usize::MAX] {
            let n = render_chunk_size(&mut line, len);
            assert_eq!(&line[..n], format!("{len:x}\r\n").as_bytes());
        }
    }

    #[test]
    fn bodiless_get_parses_with_empty_body() {
        let mut wire = Vec::new();
        render_get_request(&mut wire, "/metrics", "localhost");
        let mut reader = RequestReader::new(&wire[..]);
        let (head, body) = reader.next_request().unwrap().expect("one request");
        assert_eq!(head.method, "GET");
        assert_eq!(head.path(), "/metrics");
        assert!(body.is_empty());
        assert!(reader.next_request().unwrap().is_none());
        // POSTs without framing headers still error.
        assert!(parse_request_head(b"POST / HTTP/1.1\r\n\r\n").is_err());
    }

    #[test]
    fn typed_response_head_carries_content_type() {
        let mut head = Vec::new();
        render_response_head_extra(&mut head, 200, "OK", "text/plain; version=0.0.4", 12, &[]);
        let text = std::str::from_utf8(&head).unwrap();
        assert!(text.contains("Content-Type: text/plain; version=0.0.4\r\n"));
        assert!(text.contains("Content-Length: 12\r\n"));
    }

    #[test]
    fn truncated_bodies_error() {
        let wire = b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort";
        let mut reader = RequestReader::new(&wire[..]);
        assert!(reader.next_request().is_err());

        let wire = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nab";
        let mut reader = RequestReader::new(&wire[..]);
        assert!(reader.next_request().is_err());
    }

    #[test]
    fn chunk_extension_tolerated() {
        let wire =
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n3;ext=1\r\nabc\r\n0\r\n\r\n";
        let mut reader = RequestReader::new(&wire[..]);
        let (_, body) = reader.next_request().unwrap().unwrap();
        assert_eq!(body, b"abc");
    }

    /// Acceptance: a keep-alive POST of a non-contiguous template performs
    /// **zero body copies** — every payload byte reaching the sink still
    /// points into the caller's buffers — and the wire bytes are the
    /// literal request each framing prescribes, which `RequestReader`
    /// decodes back to the payload.
    #[test]
    fn vectored_post_is_zero_copy_and_byte_identical() {
        let parts = [
            b"<a>".to_vec(),
            Vec::new(),
            b"0123456789".to_vec(),
            b"</a>".to_vec(),
        ];
        let slices: Vec<IoSlice<'_>> = parts.iter().map(|p| IoSlice::new(p)).collect();
        let payload = parts.concat();
        let common = "Host: localhost\r\nContent-Type: text/xml; charset=utf-8\r\n\
                      SOAPAction: \"urn:bench#send\"\r\n";
        let expected = [
            (
                HttpVersion::Http10,
                format!(
                    "POST /service HTTP/1.0\r\n{common}Content-Length: 17\r\n\
                     Connection: keep-alive\r\n\r\n<a>0123456789</a>"
                ),
            ),
            (
                HttpVersion::Http11Length,
                format!(
                    "POST /service HTTP/1.1\r\n{common}Content-Length: 17\r\n\r\n\
                     <a>0123456789</a>"
                ),
            ),
            (
                // One HTTP chunk per non-empty slice.
                HttpVersion::Http11Chunked,
                format!(
                    "POST /service HTTP/1.1\r\n{common}Transfer-Encoding: chunked\r\n\r\n\
                     3\r\n<a>\r\na\r\n0123456789\r\n4\r\n</a>\r\n0\r\n\r\n"
                ),
            ),
        ];
        for (version, want) in expected {
            let cfg = RequestConfig::loopback(version);
            let mut sink = crate::sink::ProvenanceSink::new();
            for p in &parts {
                sink.register(p);
            }
            let mut scratch = PostScratch::default();
            // Two keep-alive sends through the same scratch: reuse must not
            // corrupt framing or introduce copies.
            for _ in 0..2 {
                let n = post_gather_vectored(&mut sink, &cfg, &slices, &mut scratch).unwrap();
                assert_eq!(n, want.len(), "{version:?}");
            }
            assert_eq!(
                sink.bytes(),
                want.repeat(2).as_bytes(),
                "{version:?}: literal wire bytes"
            );
            assert_eq!(
                sink.aliased_bytes(),
                2 * payload.len() as u64,
                "{version:?}: every body byte arrived uncopied"
            );
            assert_eq!(
                sink.copied_bytes(),
                2 * (want.len() - payload.len()) as u64,
                "{version:?}: only head/framing bytes came from scratch"
            );
            let mut reader = RequestReader::new(sink.bytes());
            for _ in 0..2 {
                let (head, body) = reader.next_request().unwrap().expect("request");
                assert_eq!((head.method, head.path()), ("POST", "/service"));
                assert_eq!(body, payload, "{version:?}");
            }
            assert!(reader.next_request().unwrap().is_none());
        }
    }

    #[test]
    fn vectored_response_matches_render_response() {
        let a = b"<res>".to_vec();
        let b = b"42</res>".to_vec();
        let want = b"HTTP/1.1 200 OK\r\nContent-Type: text/xml; charset=utf-8\r\n\
                     Content-Length: 13\r\n\r\n<res>42</res>";
        let mut sink = crate::sink::ProvenanceSink::new();
        sink.register(&a);
        sink.register(&b);
        let mut head_scratch = Vec::new();
        let n = write_response_vectored(
            &mut sink,
            200,
            "OK",
            &[IoSlice::new(&a), IoSlice::new(&b)],
            &mut head_scratch,
        )
        .unwrap();
        assert_eq!(n, want.len());
        assert_eq!(sink.bytes(), want);
        assert_eq!(sink.aliased_bytes(), (a.len() + b.len()) as u64);
        let mut flat = Vec::new();
        render_response(&mut flat, 200, "OK", b"<res>42</res>");
        assert_eq!(flat, want);
    }

    #[test]
    fn response_round_trip() {
        let mut wire = Vec::new();
        render_response(&mut wire, 200, "OK", b"<ok/>");
        let (status, body) = read_response_limited(&mut &wire[..], 1 << 10, 5).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, b"<ok/>");
    }

    #[test]
    fn hex_parsing() {
        assert_eq!(parse_hex(b"0"), Some(0));
        assert_eq!(parse_hex(b"ff"), Some(255));
        assert_eq!(parse_hex(b"1A"), Some(26));
        assert_eq!(parse_hex(b""), None);
        assert_eq!(parse_hex(b"xyz"), None);
    }

    #[test]
    fn heads_grow_buffer_when_needed() {
        // A head larger than the initial buffer still parses.
        let mut wire = Vec::new();
        wire.extend_from_slice(b"POST / HTTP/1.1\r\n");
        let big = "x".repeat(100_000);
        wire.extend_from_slice(format!("X-Pad: {big}\r\n").as_bytes());
        wire.extend_from_slice(b"Content-Length: 2\r\n\r\nhi");
        let mut reader = RequestReader::new(&wire[..]);
        let (head, body) = reader.next_request().unwrap().unwrap();
        assert_eq!(head.header("x-pad").map(str::len), Some(100_000));
        assert_eq!(body, b"hi");
    }
}
