//! Streaming chunk-overlay transport: bounded-memory send and receive.
//!
//! The paper's chunk overlaying (§3.3) serializes a huge array one
//! window-portion at a time through a single reused template fragment —
//! but that only bounds *sender* memory if each portion reaches the wire
//! the moment it is serialized, and only bounds *receiver* memory if the
//! peer never reassembles the body. This module supplies both halves:
//!
//! * [`ChunkedBodyWriter`] frames each overlaid portion as its own
//!   HTTP/1.1 chunk and drains it with one gather-vectored write, under
//!   an optional [`Deadline`] from the PR-5 fault layer. Sender residency
//!   is the window fragment plus a fixed 20-byte frame scratch.
//! * [`ChunkedBodyReader`] decodes a chunked body incrementally out of a
//!   fixed-capacity buffer that never grows, yielding borrowed slices of
//!   decoded payload. Receiver residency is that buffer, regardless of
//!   whether the body is 4 KiB or 4 GiB; a cumulative `max_body` cap
//!   still bounds how much a peer may send in total.
//! * [`read_head`] splits one request/response head off a raw stream and
//!   hands back the over-read remainder, so a streaming server can parse
//!   the head eagerly and feed everything after it to the body reader.
//!
//! Both directions reuse the framing grammar of `http.rs`
//! (`render_chunk_size`, [`BodyDecoder`]) so the wire bytes are identical
//! to the buffered [`post_gather_vectored`](crate::http::post_gather_vectored)
//! path — the overlay pipeline changes *when* bytes move, never *what*
//! bytes move.

use crate::http::{
    capped_head_end, render_chunk_size, BodyDecoder, BodyFraming, Decoded, HttpError,
    RequestConfig, MAX_SIZE_LINE,
};
use bsoap_obs::Deadline;
use std::io::{self, IoSlice, Read, Write};

/// Default decode-buffer capacity for [`ChunkedBodyReader`] — the
/// receiver's memory bound. 64 KiB matches the socket-buffer-sized reads
/// the blocking server already performs.
pub const DEFAULT_STREAM_BUF: usize = 64 * 1024;

/// Incremental HTTP/1.1 chunked-body writer for overlay streaming.
///
/// `start` emits the request head (chunked framing), then each
/// [`write_portion`](Self::write_portion) call frames one serialized
/// overlay portion as a single HTTP chunk — size line, payload gather
/// list, and trailing CRLF drained through **one** vectored write — and
/// [`finish`](Self::finish) terminates the body with `0\r\n\r\n`.
///
/// If a [`Deadline`] is attached, it is checked before every portion and
/// on finish, so a stalled multi-GB send fails fast with the fault
/// layer's `TimedOut` classification instead of dribbling forever.
pub struct ChunkedBodyWriter<'a, W: Write> {
    stream: &'a mut W,
    deadline: Option<&'a Deadline>,
    /// Total wire bytes (head + chunk framing + payload).
    wire_bytes: usize,
    /// Payload bytes only (what the peer's decoder yields).
    body_bytes: usize,
    portions: usize,
    finished: bool,
}

impl<'a, W: Write> ChunkedBodyWriter<'a, W> {
    /// Write the chunked `HTTP/1.1` request head for `cfg` and return a
    /// body writer. The head is chunked whatever `cfg.version` says: a
    /// streamed body cannot promise a `Content-Length` up front.
    pub fn start(
        stream: &'a mut W,
        cfg: &RequestConfig,
        head_scratch: &mut Vec<u8>,
        deadline: Option<&'a Deadline>,
    ) -> io::Result<Self> {
        if let Some(d) = deadline {
            d.check()?;
        }
        cfg.render_head(head_scratch, None);
        stream.write_all(head_scratch)?;
        Ok(ChunkedBodyWriter {
            stream,
            deadline,
            wire_bytes: head_scratch.len(),
            body_bytes: 0,
            portions: 0,
            finished: false,
        })
    }

    /// Frame `slices` as one HTTP chunk and drain it in a single
    /// gather-vectored write. Empty portions are skipped (a zero-length
    /// chunk would terminate the body early). Returns payload bytes.
    pub fn write_portion(&mut self, slices: &[IoSlice<'_>]) -> io::Result<usize> {
        debug_assert!(!self.finished, "write_portion after finish");
        let payload = crate::gather_len(slices);
        if payload == 0 {
            return Ok(0);
        }
        if let Some(d) = self.deadline {
            d.check()?;
        }
        let mut size_line = [0u8; 18];
        let n = render_chunk_size(&mut size_line, payload);
        let mut list: Vec<IoSlice<'_>> = Vec::with_capacity(slices.len() + 2);
        list.push(IoSlice::new(&size_line[..n]));
        list.extend(
            slices
                .iter()
                .filter(|s| !s.is_empty())
                .map(|s| IoSlice::new(s)),
        );
        list.push(IoSlice::new(b"\r\n"));
        let wrote = crate::write_gather(self.stream, &list)?;
        self.wire_bytes += wrote;
        self.body_bytes += payload;
        self.portions += 1;
        Ok(payload)
    }

    /// Terminate the chunked body (`0\r\n\r\n`) and flush. Returns
    /// `(wire_bytes, body_bytes, portions)`.
    pub fn finish(mut self) -> io::Result<(usize, usize, usize)> {
        if let Some(d) = self.deadline {
            d.check()?;
        }
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()?;
        self.wire_bytes += 5;
        self.finished = true;
        Ok((self.wire_bytes, self.body_bytes, self.portions))
    }

    /// Payload bytes streamed so far (excludes head and chunk framing).
    pub fn body_bytes(&self) -> usize {
        self.body_bytes
    }
}

/// Incremental chunked-body decoder over a fixed-capacity buffer.
///
/// The dual of [`ChunkedBodyWriter`]: call
/// [`next_slice`](Self::next_slice) repeatedly and it yields borrowed
/// slices of *decoded payload* (framing stripped) until `Ok(None)` marks
/// the clean end of the body. The internal buffer is allocated once at
/// construction and **never grows** — that buffer, not the message, is
/// the receiver's memory bound. Peak residency is observable via
/// [`capacity`](Self::capacity).
///
/// The grammar and its defenses are [`BodyDecoder`]'s (typed errors, no
/// panics, no unbounded buffering); EOF mid-body is a typed
/// [`HttpError::BadChunk`], and `ErrorKind::Interrupted` from the stream
/// is retried, so a size line split across short reads reassembles
/// instead of erroring.
pub struct ChunkedBodyReader<R> {
    stream: R,
    buf: Box<[u8]>,
    /// Valid window is `buf[start..end]`.
    start: usize,
    end: usize,
    decoder: BodyDecoder,
}

impl<R: Read> ChunkedBodyReader<R> {
    /// Decoder with the default 64 KiB buffer and a cumulative body cap.
    pub fn new(stream: R, max_body: usize) -> Self {
        Self::with_capacity(stream, Vec::new(), DEFAULT_STREAM_BUF, max_body)
    }

    /// Decoder over a caller-sized buffer, seeded with `leftover` bytes a
    /// head parser over-read past the blank line (see [`read_head`]).
    /// `capacity` is clamped up to hold `leftover` and at least one size
    /// line; it is allocated once and never grows.
    pub fn with_capacity(stream: R, leftover: Vec<u8>, capacity: usize, max_body: usize) -> Self {
        let cap = capacity.max(leftover.len()).max(MAX_SIZE_LINE + 2);
        let mut buf = vec![0u8; cap].into_boxed_slice();
        buf[..leftover.len()].copy_from_slice(&leftover);
        ChunkedBodyReader {
            stream,
            end: leftover.len(),
            buf,
            start: 0,
            decoder: BodyDecoder::new(BodyFraming::Chunked, max_body)
                .expect("a chunked body declares no length to refuse"),
        }
    }

    /// The fixed buffer size — the receiver-side memory bound.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Cumulative decoded payload bytes yielded so far.
    pub fn body_bytes(&self) -> usize {
        self.decoder.seen()
    }

    /// Give back the wrapped stream (e.g. to write a response on it).
    pub fn into_inner(self) -> R {
        self.stream
    }

    /// Yield the next decoded payload slice, or `Ok(None)` at the clean
    /// end of the body. The slice borrows the internal buffer and is
    /// invalidated by the next call.
    pub fn next_slice(&mut self) -> io::Result<Option<&[u8]>> {
        loop {
            let (n, step) = self.decoder.step(&self.buf[self.start..self.end])?;
            let at = self.start;
            self.start += n;
            match step {
                Decoded::Payload(range) => {
                    return Ok(Some(&self.buf[at + range.start..at + range.end]))
                }
                Decoded::Done => return Ok(None),
                Decoded::Starved => {
                    self.compact();
                    self.fill()?;
                }
            }
        }
    }

    /// Slide the unconsumed window to the buffer's front so `fill` has
    /// room. The buffer itself never grows: a framing line that cannot fit
    /// after compaction is already past the decoder's line cap.
    fn compact(&mut self) {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
    }

    /// Read more bytes into the free tail, retrying EINTR. EOF inside the
    /// body is a typed `BadChunk` (the peer hung up mid-message).
    fn fill(&mut self) -> io::Result<()> {
        debug_assert!(self.end < self.buf.len(), "fill with no free space");
        let n = loop {
            match self.stream.read(&mut self.buf[self.end..]) {
                Ok(n) => break n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        };
        if n == 0 {
            return Err(self.decoder.eof_error().into());
        }
        self.end += n;
        Ok(())
    }
}

/// Read one HTTP head (request or response — anything ending `\r\n\r\n`)
/// off a raw stream, returning the head bytes and whatever the reads
/// overshot past the blank line. The caller parses the head (e.g. with
/// [`parse_request_head`](crate::http::parse_request_head)) and seeds a
/// [`ChunkedBodyReader`] with the leftover, giving a server loop that
/// never buffers a body. Heads past `max_head` fail with
/// [`HttpError::TooLarge`]; EOF before any byte yields `Ok(None)` (clean
/// keep-alive close).
pub fn read_head(
    stream: &mut impl Read,
    max_head: usize,
) -> io::Result<Option<(Vec<u8>, Vec<u8>)>> {
    let mut buf = Vec::with_capacity(2048);
    let mut scratch = [0u8; 2048];
    loop {
        if let Some(head_end) = capped_head_end(&buf, max_head, "request head")? {
            let leftover = buf.split_off(head_end);
            return Ok(Some((buf, leftover)));
        }
        let n = loop {
            match stream.read(&mut scratch) {
                Ok(n) => break n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        };
        if n == 0 {
            if buf.is_empty() {
                return Ok(None);
            }
            return Err(HttpError::BadHead("EOF inside request head").into());
        }
        buf.extend_from_slice(&scratch[..n]);
    }
}
