//! The one client side of a keep-alive HTTP exchange.
//!
//! [`ClientConn`] owns what belongs to one socket for as long as it is
//! open: the stream (`TCP_NODELAY`, so template chunks are not batched by
//! Nagle; the paper's `SO_SNDBUF`/`SO_RCVBUF` = 32768 are not exposed by
//! std, a substitution DESIGN.md notes), the [`PostScratch`] requests are
//! rendered into, the [`ParseBuf`] replies are read through and the
//! [`RequestParser`] that reads them, holding the last reply's [`Head`].
//! It does two things — write one request, read one reply under caps —
//! and is what `RpcClient` holds and what
//! [`ConnectionPool`](crate::pool::ConnectionPool) idles and hands out.
//!
//! The reply buffer stays with the socket because a `read` may pull bytes
//! past the reply it was issued for. Those bytes are either the next reply
//! (returned by the next [`read_reply`](ClientConn::read_reply) without
//! touching the socket) or a desynchronised peer, which the next *write*
//! refuses to build on.

use crate::http::{
    post_gather_vectored, render_get_request, Head, ParseBuf, PostScratch, RequestConfig,
    RequestParser,
};
use crate::stream::ChunkedBodyWriter;
use bsoap_obs::Deadline;
use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One client connection: a stream, its request scratch, its reply buffer
/// and the reply parser holding the last reply's head.
#[derive(Debug)]
pub struct ClientConn<S = TcpStream> {
    stream: S,
    scratch: PostScratch,
    reply: ParseBuf,
    parser: RequestParser,
}

impl ClientConn {
    /// Connect to `addr` (within `timeout`, if given) with `TCP_NODELAY`.
    pub fn connect(addr: SocketAddr, timeout: Option<Duration>) -> io::Result<Self> {
        let stream = match timeout {
            Some(budget) => TcpStream::connect_timeout(&addr, budget)?,
            None => TcpStream::connect(addr)?,
        };
        stream.set_nodelay(true)?;
        Ok(Self::over(stream))
    }
}

impl<S: Read + Write> ClientConn<S> {
    /// A connection over an already-open stream.
    pub fn over(stream: S) -> Self {
        ClientConn {
            stream,
            scratch: PostScratch::default(),
            reply: ParseBuf::default(),
            parser: RequestParser::replies(),
        }
    }

    /// The stream (socket options, liveness probes, shutdown).
    pub fn stream(&self) -> &S {
        &self.stream
    }

    /// The reply buffer: its window is what has been read off the stream
    /// but belongs to no reply returned so far.
    pub fn reply_buf(&self) -> &ParseBuf {
        &self.reply
    }

    /// Whether a request may be written: it may only follow a fully
    /// consumed reply, because anything still in the window was sent
    /// unasked and the stream is out of step. Every write checks this
    /// itself; holders ask first to avoid building a request, or pooling
    /// a connection, that can only fail.
    pub fn in_step(&self) -> io::Result<()> {
        if self.reply.window().is_empty() {
            return Ok(());
        }
        Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "unsolicited bytes before request",
        ))
    }

    /// Write one POST of `body`, framed per `cfg.version`, as one gather
    /// list. Returns request bytes written (head + framing + payload).
    pub fn post(&mut self, cfg: &RequestConfig, body: &[IoSlice<'_>]) -> io::Result<usize> {
        self.in_step()?;
        post_gather_vectored(&mut self.stream, cfg, body, &mut self.scratch)
    }

    /// Write one chunked `HTTP/1.1` POST whose body `produce` streams
    /// portion by portion, whatever `cfg.version` says. Returns request
    /// bytes written and `produce`'s own result.
    pub fn post_streamed<T>(
        &mut self,
        cfg: &RequestConfig,
        deadline: Option<&Deadline>,
        produce: impl FnOnce(&mut ChunkedBodyWriter<'_, S>) -> io::Result<T>,
    ) -> io::Result<(usize, T)> {
        self.in_step()?;
        let head = self.scratch.head_mut();
        let mut writer = ChunkedBodyWriter::start(&mut self.stream, cfg, head, deadline)?;
        let produced = produce(&mut writer)?;
        let (wire_bytes, _, _) = writer.finish()?;
        Ok((wire_bytes, produced))
    }

    /// Write one bodiless keep-alive `GET`. Returns request bytes written.
    pub fn get(&mut self, path: &str, host: &str) -> io::Result<usize> {
        self.in_step()?;
        let head = self.scratch.head_mut();
        render_get_request(head, path, host);
        self.stream.write_all(head)?;
        self.stream.flush()?;
        Ok(head.len())
    }

    /// Read one reply: status, head (held here until the next reply) and
    /// body. A head past `max_head` or a body (length-framed or
    /// chunk-accumulated) past `max_body` is a typed
    /// [`HttpError::TooLarge`](crate::http::HttpError); EOF before any reply
    /// byte is `UnexpectedEof` (a stale keep-alive socket, which pooled
    /// callers retry).
    pub fn read_reply(
        &mut self,
        max_head: usize,
        max_body: usize,
    ) -> io::Result<(u16, &Head, Vec<u8>)> {
        self.parser
            .read_reply(&mut self.stream, &mut self.reply, max_head, max_body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{HttpVersion, RequestReader};
    use std::collections::VecDeque;

    /// A stream whose every `read` hands back the next scripted segment
    /// whole (then EOF), counting the calls, and that records its writes.
    #[derive(Default)]
    struct Scripted {
        segments: VecDeque<Vec<u8>>,
        reads: usize,
        written: Vec<u8>,
    }

    impl Scripted {
        fn answering(segments: &[&[u8]]) -> ClientConn<Scripted> {
            ClientConn::over(Scripted {
                segments: segments.iter().map(|s| s.to_vec()).collect(),
                ..Scripted::default()
            })
        }
    }

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            let Some(segment) = self.segments.pop_front() else {
                return Ok(0);
            };
            buf[..segment.len()].copy_from_slice(&segment);
            Ok(segment.len())
        }
    }

    impl Write for Scripted {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.written.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    const FIRST: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nfirst";
    const SECOND: &[u8] =
        b"HTTP/1.1 500 Oops\r\nTransfer-Encoding: chunked\r\n\r\n6\r\nsecond\r\n0\r\n\r\n";

    #[test]
    fn two_replies_in_one_segment_are_two_replies() {
        let mut conn = Scripted::answering(&[&[FIRST, SECOND].concat()]);
        let (status, _, body) = conn.read_reply(usize::MAX, usize::MAX).unwrap();
        assert_eq!((status, body.as_slice()), (200, &b"first"[..]));
        assert_eq!(conn.reply_buf().window(), SECOND, "over-read stays");
        let (status, head, body) = conn.read_reply(usize::MAX, usize::MAX).unwrap();
        assert_eq!((status, body.as_slice()), (500, &b"second"[..]));
        assert_eq!(
            head.headers().next(),
            Some(("Transfer-Encoding", "chunked"))
        );
        assert_eq!(conn.stream().reads, 1, "the second reply cost no read");
        assert!(conn.reply_buf().window().is_empty());
        // Nothing is left, so the next request is in step.
        let cfg = RequestConfig::loopback(HttpVersion::Http11Length);
        conn.post(&cfg, &[IoSlice::new(b"<x/>")]).unwrap();
    }

    #[test]
    fn stray_bytes_after_a_reply_refuse_the_next_request() {
        let cfg = RequestConfig::loopback(HttpVersion::Http11Chunked);
        type WriteForm = fn(&mut ClientConn<Scripted>, &RequestConfig) -> io::Result<usize>;
        let writes: [WriteForm; 3] = [
            |c, cfg| c.post(cfg, &[IoSlice::new(b"<x/>")]),
            |c, cfg| {
                c.post_streamed(cfg, None, |w| w.write_portion(&[IoSlice::new(b"<x/>")]))
                    .map(|(n, _)| n)
            },
            |c, cfg| c.get("/metrics", &cfg.host),
        ];
        for write in writes {
            let mut conn = Scripted::answering(&[&[FIRST, b"junk"].concat()]);
            let (status, _, body) = conn.read_reply(usize::MAX, usize::MAX).unwrap();
            assert_eq!((status, body.as_slice()), (200, &b"first"[..]));
            let err = write(&mut conn, &cfg).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert_eq!(err.to_string(), "unsolicited bytes before request");
            assert!(conn.stream().written.is_empty(), "nothing reached the wire");
        }
    }

    #[test]
    fn the_three_request_forms_reach_the_wire() {
        let mut conn = Scripted::answering(&[]);
        let mut cfg = RequestConfig::loopback(HttpVersion::Http11Length);
        let mut sent = conn.post(&cfg, &[IoSlice::new(b"<a/>")]).unwrap();
        cfg.version = HttpVersion::Http11Chunked;
        let (n, portions) = conn
            .post_streamed(&cfg, None, |w| {
                w.write_portion(&[IoSlice::new(b"<b>"), IoSlice::new(b"</b>")])?;
                w.write_portion(&[IoSlice::new(b"<c/>")])
            })
            .unwrap();
        assert_eq!(portions, 4);
        sent += n;
        sent += conn.get("/metrics", "localhost").unwrap();
        assert_eq!(sent, conn.stream().written.len());
        let mut requests = RequestReader::new(&conn.stream().written[..]);
        for (method, body) in [
            ("POST", &b"<a/>"[..]),
            ("POST", b"<b></b><c/>"),
            ("GET", b""),
        ] {
            let (head, got) = requests.next_request().unwrap().expect("request");
            assert_eq!((head.method, got.as_slice()), (method, body));
        }
        assert!(requests.next_request().unwrap().is_none());
        // A peer that hung up between requests is a stale socket, not bad data.
        let err = conn.read_reply(usize::MAX, usize::MAX).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}
