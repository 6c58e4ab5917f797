//! # bsoap-transport — measurement rig and wire transports for bSOAP
//!
//! The paper measures **Send Time**: "starting a timer before preparing
//! the message for sending, and stopping the timer right after the final
//! `send()` system call on the socket" (§4), against "a dummy SOAP server
//! … \[that\] does not deserialize or parse the incoming SOAP packet".
//! This crate is that rig, plus the HTTP framing a real deployment needs:
//!
//! * [`sink`] — [`sink::SinkTransport`], an in-process
//!   counting discard sink. Deterministic (no kernel, no scheduler), it is
//!   the default target for the benchmark figures: Send Time becomes pure
//!   serialization + buffer-walk cost, which is what the paper's
//!   client-side measurements isolate.
//! * [`http`] — HTTP/1.0 (`Content-Length`) and HTTP/1.1
//!   (`Transfer-Encoding: chunked`) request framing, plus the one place
//!   the receive-side grammar and its caps live: the one head parser
//!   ([`http::Head::parse`], for requests and replies alike), the sans-io
//!   [`http::BodyDecoder`] and [`http::RequestParser`]. HTTP 1.1 chunking
//!   is what makes chunk overlaying stream-as-you-serialize (§3.3).
//! * [`client`] — [`client::ClientConn`], the one client side of an
//!   exchange: a `TCP_NODELAY` keep-alive socket, its request scratch and
//!   its reply buffer; writes one request, reads one reply under caps.
//! * [`pool`] — a per-endpoint pool of those connections
//!   ([`pool::ConnectionPool`]) and a pooled HTTP client
//!   ([`pool::HttpPoolClient`]) with health-checked checkout, idle
//!   reaping, and transparent reconnect-and-retry on stale sockets.
//! * [`conn`] — the one server-side request path: [`conn::Conn`], an
//!   explicit sans-io state machine per connection (parse, dispatch,
//!   respond, timeouts, caps, drain).
//! * [`server`] — [`server::serve`], the one entry point that starts the
//!   server core on a listener, and the loopback [`server::TestServer`]
//!   built on it: the paper's discard server plus a collecting server
//!   that hands complete request bodies to tests.
//! * [`event_loop`] / [`timer`] / [`poller`] — the one server core: epoll
//!   loops ([`event_loop::Server`]) multiplexing many `Conn`s over a few
//!   threads and running the handler inline, with timer-wheel deadlines
//!   ([`timer::TimerWheel`]). Linux only.
//!
//! The seam between the serialization engine and the wire is a closure:
//! one SOAP message (as a gather list of chunk slices) in, bytes-on-the-wire
//! count out — `|s| conn.post(&cfg, s)` for HTTP, [`write_gather`] onto a
//! `TcpStream` for the paper's raw measurement path.

pub mod client;
pub mod conn;
pub mod event_loop;
pub mod fault;
pub mod http;
pub mod negotiate;
pub mod poller;
pub mod pool;
pub mod server;
pub mod sink;
pub mod stream;
pub mod timer;

pub use client::ClientConn;
pub use conn::{
    BodySink, CloseReason, Conn, ConnAction, ConnConfig, ConnState, Handler, ReqBody, Response,
    SinkFactory,
};
pub use fault::{AttemptFailure, CircuitBreaker, FaultPolicy, Resilience};
pub use http::{render_get_request, HttpError, HttpVersion, PostScratch, RequestConfig};
pub use negotiate::{NegotiationState, Negotiator};
pub use pool::{ConnectionPool, HttpPoolClient, HttpReply, PoolConfig, PoolStats, PooledConn};
#[doc(hidden)]
pub use server::ServerCore;
pub use server::{
    serve, CollectedRequest, ServeMode, Server, ServerMode, ServerOptions, ServerStats, TestServer,
};
pub use sink::{ProvenanceSink, SinkTransport};
pub use stream::{read_head, ChunkedBodyReader, ChunkedBodyWriter};
pub use timer::{TimerKind, TimerWheel};

use std::io::{self, IoSlice};

/// Sum of a gather list's lengths.
pub fn gather_len(slices: &[IoSlice<'_>]) -> usize {
    slices.iter().map(|s| s.len()).sum()
}

/// Drain a gather list into a plain `Write`, handling partial vectored
/// writes and `Interrupted` (EINTR) retries. (Kept local so this crate
/// sits below the engine in the crate graph.)
///
/// One up-front copy of the gather list; after a partial write only the
/// first unconsumed entry is re-sliced, so draining is O(n) overall
/// instead of O(n²) view rebuilds on dribbling writers.
pub fn write_gather(w: &mut impl io::Write, slices: &[IoSlice<'_>]) -> io::Result<usize> {
    let total = gather_len(slices);
    let mut view: Vec<IoSlice<'_>> = slices.iter().map(|s| IoSlice::new(s)).collect();
    // Position: first unconsumed slice and byte offset within it.
    let mut idx = 0usize;
    let mut off = 0usize;
    while idx < slices.len() && slices[idx].is_empty() {
        idx += 1;
    }
    while idx < slices.len() {
        let n = match w.write_vectored(&view[idx..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "vectored write returned zero",
                ))
            }
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        let mut remaining = n + off;
        off = 0;
        while idx < slices.len() && remaining >= slices[idx].len() {
            remaining -= slices[idx].len();
            idx += 1;
        }
        if idx < slices.len() {
            off = remaining;
            view[idx] = IoSlice::new(&slices[idx][off..]);
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn gather_len_sums() {
        let a = b"ab".to_vec();
        let b = b"cde".to_vec();
        let slices = [IoSlice::new(&a), IoSlice::new(&b)];
        assert_eq!(gather_len(&slices), 5);
        assert_eq!(gather_len(&[]), 0);
    }

    #[test]
    fn write_gather_whole() {
        let a = b"hello ".to_vec();
        let b = b"world".to_vec();
        let mut out = Vec::new();
        let n = write_gather(&mut out, &[IoSlice::new(&a), IoSlice::new(&b)]).unwrap();
        assert_eq!(n, 11);
        assert_eq!(out, b"hello world");
    }

    /// Writer accepting at most `cap` bytes per call.
    struct Dribble {
        out: Vec<u8>,
        cap: usize,
    }

    impl Write for Dribble {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = buf.len().min(self.cap);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            let mut room = self.cap;
            let mut n = 0;
            for b in bufs {
                if room == 0 {
                    break;
                }
                let take = b.len().min(room);
                self.out.extend_from_slice(&b[..take]);
                room -= take;
                n += take;
            }
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_gather_partial_writes() {
        let a = b"abcdefg".to_vec();
        let b = b"hij".to_vec();
        let c = b"klmnop".to_vec();
        for cap in [1, 2, 4, 5, 16] {
            let mut w = Dribble {
                out: Vec::new(),
                cap,
            };
            let slices = [IoSlice::new(&a), IoSlice::new(&b), IoSlice::new(&c)];
            let n = write_gather(&mut w, &slices).unwrap();
            assert_eq!(n, 16);
            assert_eq!(w.out, b"abcdefghijklmnop", "cap {cap}");
        }
    }
}
