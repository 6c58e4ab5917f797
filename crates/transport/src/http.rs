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
//! Everything here is synchronous and allocation-frugal: request heads are
//! rendered into reusable buffers, and the chunked encoder frames a gather
//! list without copying the payload.

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
    /// `out` (cleared first). `content_len` must be `Some` for
    /// length-framed versions and is ignored for chunked framing.
    pub fn render_head(&self, out: &mut Vec<u8>, content_len: Option<usize>) {
        out.clear();
        out.extend_from_slice(b"POST ");
        out.extend_from_slice(self.path.as_bytes());
        out.push(b' ');
        out.extend_from_slice(self.version.token().as_bytes());
        out.extend_from_slice(b"\r\nHost: ");
        out.extend_from_slice(self.host.as_bytes());
        out.extend_from_slice(b"\r\nContent-Type: text/xml; charset=utf-8\r\nSOAPAction: \"");
        out.extend_from_slice(self.soap_action.as_bytes());
        out.extend_from_slice(b"\"\r\n");
        for (name, value) in &self.extra_headers {
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(b": ");
            out.extend_from_slice(value.as_bytes());
            out.extend_from_slice(b"\r\n");
        }
        match (self.version, content_len) {
            (HttpVersion::Http11Chunked, _) => {
                out.extend_from_slice(b"Transfer-Encoding: chunked\r\n");
            }
            (_, Some(n)) => {
                out.extend_from_slice(b"Content-Length: ");
                out.extend_from_slice(n.to_string().as_bytes());
                out.extend_from_slice(b"\r\n");
            }
            (_, None) => panic!("length-framed request without content length"),
        }
        if self.version == HttpVersion::Http10 {
            // 1.0 defaults to close; ask for reuse like gSOAP's keep-alive.
            out.extend_from_slice(b"Connection: keep-alive\r\n");
        }
        out.extend_from_slice(b"\r\n");
    }
}

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
    let s = format!("{len:x}\r\n");
    buf[..s.len()].copy_from_slice(s.as_bytes());
    s.len()
}

/// Reusable scratch for [`post_gather_vectored`]: the request head and the
/// chunked-framing bytes live here between calls so the assembled gather
/// list can reference them without allocating per send.
#[derive(Debug, Default)]
pub struct PostScratch {
    head: Vec<u8>,
    /// Chunk size lines back to back, then `\r\n` (the shared per-chunk
    /// trailer), then `0\r\n\r\n` (the last-chunk marker).
    frames: Vec<u8>,
    /// `(offset, len)` of each chunk's size line within `frames`.
    spans: Vec<(usize, usize)>,
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
    let payload: usize = body.iter().map(|s| s.len()).sum();
    let chunks = body.iter().filter(|s| !s.is_empty());
    let n = if cfg.version.is_chunked() {
        cfg.render_head(&mut scratch.head, None);
        scratch.frames.clear();
        scratch.spans.clear();
        for s in chunks.clone() {
            let start = scratch.frames.len();
            let mut line = [0u8; 18];
            let len = render_chunk_size(&mut line, s.len());
            scratch.frames.extend_from_slice(&line[..len]);
            scratch.spans.push((start, len));
        }
        let tail = scratch.frames.len();
        scratch.frames.extend_from_slice(b"\r\n0\r\n\r\n");
        let crlf = &scratch.frames[tail..tail + 2];
        let last_chunk = &scratch.frames[tail + 2..];
        let mut list: Vec<IoSlice<'_>> = Vec::with_capacity(2 + 3 * scratch.spans.len());
        list.push(IoSlice::new(&scratch.head));
        for (s, &(off, len)) in chunks.zip(scratch.spans.iter()) {
            list.push(IoSlice::new(&scratch.frames[off..off + len]));
            list.push(IoSlice::new(s));
            list.push(IoSlice::new(crlf));
        }
        list.push(IoSlice::new(last_chunk));
        crate::write_gather(stream, &list)?
    } else {
        cfg.render_head(&mut scratch.head, Some(payload));
        let mut list: Vec<IoSlice<'_>> = Vec::with_capacity(1 + body.len());
        list.push(IoSlice::new(&scratch.head));
        list.extend(body.iter().map(|s| IoSlice::new(s)));
        crate::write_gather(stream, &list)?
    };
    stream.flush()?;
    Ok(n)
}

/// A parsed request head.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestHead {
    /// Request method (`POST` for SOAP).
    pub method: String,
    /// Request path.
    pub path: String,
    /// Version token (`HTTP/1.0` / `HTTP/1.1`).
    pub version: String,
    /// Lower-cased header name/value pairs in arrival order.
    pub headers: Vec<(String, String)>,
}

impl RequestHead {
    /// First value of a header (name compared case-insensitively).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Body framing declared by the head.
    pub fn framing(&self) -> Result<BodyFraming, HttpError> {
        if let Some(te) = self.header("transfer-encoding") {
            if te.eq_ignore_ascii_case("chunked") {
                return Ok(BodyFraming::Chunked);
            }
            return Err(HttpError::BadFraming("unsupported transfer-encoding"));
        }
        if let Some(cl) = self.header("content-length") {
            let n: usize = cl
                .trim()
                .parse()
                .map_err(|_| HttpError::BadFraming("non-numeric content-length"))?;
            return Ok(BodyFraming::Length(n));
        }
        Err(HttpError::BadFraming("neither content-length nor chunked"))
    }

    /// Body framing taking the request method into account: methods that
    /// conventionally carry no body (`GET`, `HEAD`, `DELETE`) may omit the
    /// framing headers entirely and are then read as a zero-length body —
    /// what a `GET /metrics` scrape sends.
    pub fn body_framing(&self) -> Result<BodyFraming, HttpError> {
        match self.framing() {
            Ok(f) => Ok(f),
            Err(e) => {
                if matches!(self.method.as_str(), "GET" | "HEAD" | "DELETE") {
                    Ok(BodyFraming::Length(0))
                } else {
                    Err(e)
                }
            }
        }
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

    /// Decoder for a chunked body (which has no up-front length to refuse).
    pub fn chunked(max_body: usize) -> Self {
        BodyDecoder {
            phase: BodyPhase::SizeLine,
            seen: 0,
            max_body,
        }
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
    /// A complete head, and how the body after it is framed.
    Head(RequestHead, BodyFraming),
    /// Body payload at this range of the window.
    Body(Range<usize>),
    /// The request is complete; the parser expects a new head next.
    Done,
}

/// Sans-io request parser: head splitting and its cap, head parsing,
/// framing detection, then the [`BodyDecoder`]. [`Conn`](crate::conn::Conn)
/// runs every served request through it; [`RequestReader`] is a blocking
/// loop over the same steps.
#[derive(Debug)]
pub struct RequestParser {
    max_head: usize,
    max_body: usize,
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
            body: None,
        }
    }

    /// Parse the next element at the front of `window`. Returns the bytes
    /// to consume and what they held.
    pub fn step(&mut self, window: &[u8]) -> Result<(usize, Parsed), HttpError> {
        let Some(body) = self.body.as_mut() else {
            let Some(end) = capped_head_end(window, self.max_head, "request head")? else {
                return Ok((0, Parsed::Starved));
            };
            let head = parse_request_head(&window[..end])?;
            let framing = head.body_framing()?;
            self.body = Some(BodyDecoder::new(framing, self.max_body)?);
            return Ok((end, Parsed::Head(head, framing)));
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

    /// The error an EOF at this point of the request is.
    pub fn eof_error(&self) -> HttpError {
        match &self.body {
            None => HttpError::BadHead("EOF inside request head"),
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

/// Blocking reader of HTTP requests off a stream: read, feed the
/// [`RequestParser`], repeat until a request is whole.
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
        let mut head = None;
        let mut body = Vec::new();
        loop {
            let (n, parsed) = self.parser.step(self.buf.window())?;
            match parsed {
                Parsed::Head(h, framing) => {
                    if let BodyFraming::Length(len) = framing {
                        // Clamped so a forged Content-Length cannot force
                        // a huge up-front allocation.
                        body.reserve(len.min(READ_SIZE));
                    }
                    head = Some(h);
                }
                Parsed::Body(range) => body.extend_from_slice(&self.buf.window()[range]),
                Parsed::Done => {
                    self.buf.consume(n);
                    return Ok(head.map(|h| (h, body)));
                }
                Parsed::Starved => {
                    self.buf.consume(n);
                    if self.buf.read_from(&mut self.stream)? == 0 {
                        if head.is_none() && self.buf.window().is_empty() {
                            return Ok(None);
                        }
                        return Err(self.parser.eof_error().into());
                    }
                    continue;
                }
            }
            self.buf.consume(n);
        }
    }
}

/// Parse the bytes of a request head (through the blank line).
pub fn parse_request_head(head: &[u8]) -> Result<RequestHead, HttpError> {
    let text = std::str::from_utf8(head).map_err(|_| HttpError::BadHead("non-UTF-8 head"))?;
    let mut lines = text.split("\r\n");
    let request_line = lines.next().ok_or(HttpError::BadHead("empty head"))?;
    let mut parts = request_line.split(' ');
    let method = parts.next().ok_or(HttpError::BadHead("missing method"))?;
    let path = parts.next().ok_or(HttpError::BadHead("missing path"))?;
    let version = parts.next().ok_or(HttpError::BadHead("missing version"))?;
    if parts.next().is_some() {
        return Err(HttpError::BadHead("extra tokens on request line"));
    }
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(HttpError::BadHead("header missing colon"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }
    Ok(RequestHead {
        method: method.to_owned(),
        path: path.to_owned(),
        version: version.to_owned(),
        headers,
    })
}

/// Render a minimal `text/xml` response head (through the blank line) for
/// a body of `content_len` bytes into `out` (cleared first).
pub fn render_response_head(out: &mut Vec<u8>, status: u16, reason: &str, content_len: usize) {
    render_response_head_extra(
        out,
        status,
        reason,
        "text/xml; charset=utf-8",
        content_len,
        &[],
    );
}

/// [`render_response_head`] with an explicit `Content-Type` (the
/// `/metrics` endpoint answers in `text/plain`, not SOAP's `text/xml`)
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
    out.extend_from_slice(status.to_string().as_bytes());
    out.push(b' ');
    out.extend_from_slice(reason.as_bytes());
    out.extend_from_slice(b"\r\nContent-Type: ");
    out.extend_from_slice(content_type.as_bytes());
    out.extend_from_slice(b"\r\nContent-Length: ");
    out.extend_from_slice(content_len.to_string().as_bytes());
    out.extend_from_slice(b"\r\n");
    for (name, value) in extra {
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(b": ");
        out.extend_from_slice(value.as_bytes());
        out.extend_from_slice(b"\r\n");
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
    render_response_head(out, status, reason, body.len());
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
    let payload: usize = body.iter().map(|s| s.len()).sum();
    render_response_head(head_scratch, status, reason, payload);
    let mut list: Vec<IoSlice<'_>> = Vec::with_capacity(1 + body.len());
    list.push(IoSlice::new(head_scratch));
    list.extend(body.iter().map(|s| IoSlice::new(s)));
    let n = crate::write_gather(stream, &list)?;
    stream.flush()?;
    Ok(n)
}

/// Read one HTTP response off a stream under head/body caps — a hostile
/// or buggy server must not be able to balloon client RSS; returns status
/// and body.
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
    read_response_headers_limited(stream, max_head, max_body).map(|(s, _, b)| (s, b))
}

/// Status code, response headers (names lowercased), and body.
pub type ResponseParts = (u16, Vec<(String, String)>, Vec<u8>);

/// [`read_response_limited`] that also returns the response headers.
/// One-shot: the buffer is dropped with whatever the last `read` pulled
/// past the reply, so a keep-alive client reads through its
/// [`ClientConn`](crate::client::ClientConn) instead.
pub fn read_response_headers_limited(
    stream: &mut impl Read,
    max_head: usize,
    max_body: usize,
) -> io::Result<ResponseParts> {
    read_reply(stream, &mut ParseBuf::default(), max_head, max_body)
}

/// Read one reply — length-framed or chunked — through `buf`, leaving in
/// its window whatever the reads pulled past the reply's last byte (a
/// window already holding a whole reply is answered without a `read`).
/// The body rides the same [`BodyDecoder`] the server side uses, so the
/// `max_body` cap applies to chunk-framed responses too and a size line
/// split across short `read()`s is reassembled rather than misread.
pub(crate) fn read_reply(
    stream: &mut impl Read,
    buf: &mut ParseBuf,
    max_head: usize,
    max_body: usize,
) -> io::Result<ResponseParts> {
    let head_end = loop {
        if let Some(e) = capped_head_end(buf.window(), max_head, "response head")? {
            break e;
        }
        if buf.read_from(stream)? == 0 {
            if buf.window().is_empty() {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed before any response byte",
                ));
            }
            return Err(HttpError::BadHead("EOF inside response head").into());
        }
    };
    let text = std::str::from_utf8(&buf.window()[..head_end])
        .map_err(|_| HttpError::BadHead("non-UTF-8 head"))?;
    let status: u16 = text
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or(HttpError::BadHead("bad status line"))?;
    let mut chunked = false;
    let mut cl: Option<usize> = None;
    let mut headers = Vec::new();
    for l in text.lines().skip(1) {
        let Some((n, v)) = l.split_once(':') else {
            continue;
        };
        let (n, v) = (n.trim(), v.trim());
        if n.eq_ignore_ascii_case("transfer-encoding") {
            if !v.eq_ignore_ascii_case("chunked") {
                return Err(HttpError::BadFraming("unsupported transfer-encoding").into());
            }
            chunked = true;
        } else if n.eq_ignore_ascii_case("content-length") {
            cl = Some(
                v.parse()
                    .map_err(|_| HttpError::BadFraming("non-numeric content-length"))?,
            );
        }
        headers.push((n.to_ascii_lowercase(), v.to_owned()));
    }
    let framing = if chunked {
        BodyFraming::Chunked
    } else {
        BodyFraming::Length(cl.ok_or(HttpError::BadFraming("response missing content-length"))?)
    };
    let mut decoder = BodyDecoder::new(framing, max_body)?;
    buf.consume(head_end);
    let mut body = Vec::new();
    loop {
        let (n, step) = decoder.step(buf.window())?;
        match step {
            Decoded::Payload(range) => body.extend_from_slice(&buf.window()[range]),
            Decoded::Done => {
                buf.consume(n);
                return Ok((status, headers, body));
            }
            Decoded::Starved => {
                buf.consume(n);
                if buf.read_from(stream)? == 0 {
                    return Err(decoder.eof_error().into());
                }
                continue;
            }
        }
        buf.consume(n);
    }
}

fn parse_hex(s: &[u8]) -> Option<usize> {
    if s.is_empty() {
        return None;
    }
    let mut n: usize = 0;
    for &b in s {
        let d = match b {
            b'0'..=b'9' => b - b'0',
            b'a'..=b'f' => b - b'a' + 10,
            b'A'..=b'F' => b - b'A' + 10,
            _ => return None,
        };
        n = n.checked_mul(16)?.checked_add(d as usize)?;
    }
    Some(n)
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    if needle.len() > haystack.len() {
        return None;
    }
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// The one head splitter: index one past a complete head's terminating
/// blank line (`\r\n\r\n`), or `None` while the head is still partial.
///
/// Every head-hunting path — [`RequestParser`] (and so every server core
/// and [`RequestReader`]), [`read_response_limited`] and
/// `stream::read_head` — delegates here, so random fragmentation cannot
/// make two paths disagree about where a head ends (proven by the
/// fragmentation proptest in `tests/prop_http.rs`).
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
        assert_eq!(head.version, "HTTP/1.0");
        assert_eq!(head.header("content-length"), Some("8"));
        assert_eq!(body, b"<a>1</a>");
    }

    #[test]
    fn length_framed_round_trip_11() {
        let (head, body) = round_trip(HttpVersion::Http11Length, &[b"payload"]);
        assert_eq!(head.version, "HTTP/1.1");
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

    #[test]
    fn framing_detection() {
        let head = parse_request_head(b"POST / HTTP/1.1\r\nContent-Length: 12\r\n\r\n").unwrap();
        assert_eq!(head.framing().unwrap(), BodyFraming::Length(12));
        let head =
            parse_request_head(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n").unwrap();
        assert_eq!(head.framing().unwrap(), BodyFraming::Chunked);
        let head = parse_request_head(b"POST / HTTP/1.1\r\n\r\n").unwrap();
        assert!(head.framing().is_err());
        let head = parse_request_head(b"POST / HTTP/1.1\r\nContent-Length: pony\r\n\r\n").unwrap();
        assert!(head.framing().is_err());
    }

    #[test]
    fn bodiless_get_parses_with_empty_body() {
        let mut wire = Vec::new();
        render_get_request(&mut wire, "/metrics", "localhost");
        let mut reader = RequestReader::new(&wire[..]);
        let (head, body) = reader.next_request().unwrap().expect("one request");
        assert_eq!(head.method, "GET");
        assert_eq!(head.path, "/metrics");
        assert!(body.is_empty());
        assert!(reader.next_request().unwrap().is_none());
        // POSTs without framing headers still error.
        let head = parse_request_head(b"POST / HTTP/1.1\r\n\r\n").unwrap();
        assert!(head.body_framing().is_err());
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
                assert_eq!(
                    (head.method.as_str(), head.path.as_str()),
                    ("POST", "/service")
                );
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
