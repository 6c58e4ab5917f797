//! Sans-io per-connection state machine: the one server-side request
//! path. A *core* is a driver of [`Conn`] and nothing else.
//!
//! A [`Conn`] owns everything one connection needs except the socket and
//! the clock: the parse buffer, the request parser
//! ([`RequestParser`]), the response being written, and the lifecycle
//! state (`ReadingHead → ReadingBody/ReadingChunked → Dispatching →
//! Writing → Idle → Closing`). A driver feeds it one `read` at a time,
//! timer firings, and dispatch completions; the machine answers with
//! [`ConnAction`]s — dispatch this request, change readiness interest,
//! arm or cancel a timer, close me. Every rule a client can observe lives
//! here and only here: the size caps (through the parser), the 400
//! rendering, the eviction rules, and the `ServerBadRequests` /
//! `ServerTimeouts` / `ServerIdleReaped` / `ServerBytesOut` /
//! `HistId::ServerRequest` ticks. Because no syscall happens in here, the
//! model-checked suite in `tests/conn_model.rs` drives the machine through
//! randomized schedules with scripted I/O and asserts the exact
//! transition trace and metrics snapshot.
//!
//! One driver runs it: the epoll loop ([`crate::event_loop`]), which
//! multiplexes many machines per thread on a timer wheel and runs the
//! handler inline on `Dispatch`.
//!
//! Timeouts:
//! * `read_timeout` → [`TimerKind::ReadStall`], slid forward on every
//!   read that makes progress; it also covers the gap between keep-alive
//!   requests.
//! * `request_timeout` → [`TimerKind::RequestBudget`], armed when the
//!   first byte of a request head arrives and canceled when the request
//!   completes — an idle keep-alive gap is *never* on the budget.
//! * `idle_timeout` → [`TimerKind::IdleReap`], armed only while Idle.

use crate::http::{
    render_response_head_extra, BodyFraming, HttpError, ParseBuf, Parsed, RequestHead,
    RequestParser, DEFAULT_MAX_BODY, DEFAULT_MAX_HEAD, READ_SIZE, TEXT_XML,
};
use crate::timer::TimerKind;
use bsoap_obs::{Counter, HistId, Metrics, Recorder, TraceKind};
use std::io::{self, Read, Write};
use std::sync::Arc;
use std::time::Duration;

/// Lifecycle states of one connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConnState {
    /// Keep-alive gap: no request in progress, buffer empty.
    Idle,
    /// Accumulating bytes of a request head.
    ReadingHead,
    /// Consuming a `Content-Length` body.
    ReadingBody,
    /// Decoding a chunked body incrementally.
    ReadingChunked,
    /// A complete request is with the handler; reads are disarmed.
    Dispatching,
    /// Draining the rendered response to the socket.
    Writing,
    /// Terminal: the driver is tearing the connection down.
    Closing,
}

/// Why a connection closed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CloseReason {
    /// Peer closed cleanly between requests.
    CleanEof,
    /// A `ReadStall` or `RequestBudget` timer fired (slow-loris or
    /// budget eviction).
    Evicted,
    /// The idle reaper fired on a keep-alive gap.
    IdleReaped,
    /// The request was malformed; a 400 was written first.
    BadRequest,
    /// The socket write side failed or reported `Ok(0)`.
    WriteFailed,
    /// Graceful drain finished this connection's in-flight request.
    Drained,
    /// The handler panicked; a 500 was written first.
    HandlerPanicked,
    /// Unexpected I/O error on the read side.
    Error,
}

/// What the driver should do on the machine's behalf.
#[derive(Debug)]
pub enum ConnAction {
    /// Run the handler on a complete request, then report back through
    /// [`Conn::on_dispatch_done`].
    Dispatch(RequestHead, ReqBody),
    /// Change readiness interest for this connection's socket.
    Interest {
        /// Want readability.
        read: bool,
        /// Want writability.
        write: bool,
    },
    /// Arm (or slide) this timer kind `after` from now.
    Arm(TimerKind, Duration),
    /// Cancel this timer kind if armed.
    Cancel(TimerKind),
    /// Tear the connection down.
    Close(CloseReason),
}

/// A request body as delivered to the handler.
#[derive(Debug, PartialEq, Eq)]
pub enum ReqBody {
    /// Fully buffered body bytes.
    Full(Vec<u8>),
    /// The body was streamed into a [`BodySink`] as it decoded; only the
    /// byte count reaches the handler.
    Streamed {
        /// Decoded body length.
        bytes: usize,
    },
}

impl ReqBody {
    /// Body length in bytes.
    pub fn len(&self) -> usize {
        match self {
            ReqBody::Full(b) => b.len(),
            ReqBody::Streamed { bytes } => *bytes,
        }
    }

    /// Whether the body is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A rendered-to-be response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Reason phrase.
    pub reason: &'static str,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Body bytes.
    pub body: Vec<u8>,
    /// Whether this response counts toward throughput metrics
    /// (false for `/metrics` scrapes).
    pub measure: bool,
    /// Extra response headers (name, value) appended verbatim after the
    /// standard head — how wire-format negotiation echoes
    /// `X-BSOAP-Accept` / `X-BSOAP-Format` back to the client. Empty for
    /// plain responses.
    pub extra_headers: Vec<(&'static str, String)>,
    /// A buffer the handler is done with, e.g. the request body, which the
    /// connection reads its next body into if larger than its own.
    pub spare: Vec<u8>,
}

impl Response {
    /// A measured `text/xml` response — the common case.
    pub fn xml(status: u16, reason: &'static str, body: Vec<u8>) -> Response {
        Response {
            status,
            reason,
            content_type: TEXT_XML,
            body,
            measure: true,
            extra_headers: Vec::new(),
            spare: Vec::new(),
        }
    }

    /// The answer to `GET /metrics`: the registry's Prometheus text
    /// rendering (ticking [`Counter::MetricsScrapes`]), or a 404 when the
    /// server runs without one. Never measured as a request.
    pub fn metrics_scrape(metrics: Option<&Metrics>) -> Response {
        let (status, reason, text) = match metrics {
            Some(m) => {
                m.add(Counter::MetricsScrapes, 1);
                (200, "OK", m.render_prometheus())
            }
            None => (404, "Not Found", String::from("no metrics registry\n")),
        };
        Response {
            status,
            reason,
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            body: text.into_bytes(),
            measure: false,
            extra_headers: Vec::new(),
            spare: Vec::new(),
        }
    }

    /// Attach an extra response header (builder-style).
    pub fn with_header(mut self, name: &'static str, value: String) -> Response {
        self.extra_headers.push((name, value));
        self
    }
}

/// Request handler: one parsed request in, one response out.
pub type Handler = Arc<dyn Fn(&RequestHead, ReqBody) -> Response + Send + Sync>;

/// Incremental consumer for request bodies the server should never
/// buffer whole (e.g. overlaid chunked uploads feeding a
/// `StreamingDeserializer`).
pub trait BodySink: Send {
    /// Consume the next decoded body slice.
    fn on_slice(&mut self, slice: &[u8]) -> io::Result<()>;
    /// The body is complete.
    fn finish(&mut self) -> io::Result<()>;
}

/// Per-request sink chooser: `None` means buffer the body normally.
pub type SinkFactory = Arc<dyn Fn(&RequestHead) -> Option<Box<dyn BodySink>> + Send + Sync>;

/// Limits and timeouts, usually derived from `ServerOptions`.
#[derive(Clone)]
pub struct ConnConfig {
    /// Head size cap.
    pub max_head: usize,
    /// Body size cap.
    pub max_body: usize,
    /// Stall eviction: no read progress for this long.
    pub read_timeout: Option<Duration>,
    /// Whole-request budget from the first head byte.
    pub request_timeout: Option<Duration>,
    /// Idle keep-alive reaper.
    pub idle_timeout: Option<Duration>,
    /// Optional streaming sink chooser.
    pub sink_factory: Option<SinkFactory>,
}

impl Default for ConnConfig {
    fn default() -> Self {
        ConnConfig {
            max_head: DEFAULT_MAX_HEAD,
            max_body: DEFAULT_MAX_BODY,
            read_timeout: None,
            request_timeout: None,
            idle_timeout: None,
            sink_factory: None,
        }
    }
}

/// How many of the most recent transitions a [`Conn`] remembers.
pub const TRANSITION_WINDOW: usize = 32;

/// One connection's state machine. See the module docs.
pub struct Conn {
    id: u64,
    state: ConnState,
    cfg: ConnConfig,
    buf: ParseBuf,
    parser: RequestParser,
    head: Option<RequestHead>,
    body: Vec<u8>,
    /// The body's `Content-Length`, its buffer's cap; unbounded if chunked.
    declared: usize,
    sink: Option<Box<dyn BodySink>>,
    body_seen: usize,
    /// Rendered HTTP head. The body is NOT copied in here: it stays in
    /// `write_body` and the two are gathered into one `writev`, so a
    /// response payload (often a resident template's bytes) crosses no
    /// per-response scratch buffer.
    write_buf: Vec<u8>,
    /// Response payload, moved (not copied) from the dispatch result.
    write_body: Vec<u8>,
    /// Drain position across the logical `head ++ body` byte stream.
    write_pos: usize,
    /// Whether the response being written counts toward throughput.
    measure: bool,
    /// Clock reading when the current request was dispatched.
    dispatched_ns: u64,
    close_after_write: Option<CloseReason>,
    draining: bool,
    /// Ring of the last [`TRANSITION_WINDOW`] edges; `edges` counts every
    /// edge ever taken. Fixed size: a served request leaves nothing
    /// behind.
    recent: [(ConnState, ConnState); TRANSITION_WINDOW],
    edges: usize,
}

impl Conn {
    /// Fresh connection in `Idle`, identified by `id` in traces. The read
    /// buffer is allocated by the first read, not here, so an accepted
    /// connection that never speaks costs no buffer.
    pub fn new(id: u64, cfg: ConnConfig) -> Conn {
        Conn {
            id,
            state: ConnState::Idle,
            parser: RequestParser::new(cfg.max_head, cfg.max_body),
            cfg,
            buf: ParseBuf::default(),
            head: None,
            body: Vec::new(),
            declared: usize::MAX,
            sink: None,
            body_seen: 0,
            write_buf: Vec::new(),
            write_body: Vec::new(),
            write_pos: 0,
            measure: false,
            dispatched_ns: 0,
            close_after_write: None,
            draining: false,
            recent: [(ConnState::Idle, ConnState::Idle); TRANSITION_WINDOW],
            edges: 0,
        }
    }

    /// Connection id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Current state.
    pub fn state(&self) -> ConnState {
        self.state
    }

    /// Whether the machine reached `Closing`.
    pub fn is_closing(&self) -> bool {
        self.state == ConnState::Closing
    }

    /// The most recent `(from, to)` edges, oldest first — at most
    /// [`TRANSITION_WINDOW`] of them however long the connection lives.
    pub fn transitions(&self) -> Vec<(ConnState, ConnState)> {
        let kept = self.edges.min(TRANSITION_WINDOW);
        (self.edges - kept..self.edges)
            .map(|i| self.recent[i % TRANSITION_WINDOW])
            .collect()
    }

    /// Unparsed buffered bytes (pipelined leftovers).
    pub fn buffered(&self) -> usize {
        self.buf.window().len()
    }

    /// Timer actions a fresh connection needs (idle reaper + stall
    /// timer); the driver applies these before the first read.
    pub fn on_accept(&mut self, out: &mut Vec<ConnAction>) {
        if let Some(t) = self.cfg.idle_timeout {
            out.push(ConnAction::Arm(TimerKind::IdleReap, t));
        }
        if let Some(t) = self.cfg.read_timeout {
            out.push(ConnAction::Arm(TimerKind::ReadStall, t));
        }
    }

    fn set_state(&mut self, to: ConnState, rec: &dyn Recorder) {
        debug_assert_ne!(self.state, to);
        self.recent[self.edges % TRANSITION_WINDOW] = (self.state, to);
        self.edges += 1;
        rec.add(Counter::ConnStateTransitions, 1);
        self.state = to;
    }

    fn reading(&self) -> bool {
        matches!(
            self.state,
            ConnState::Idle
                | ConnState::ReadingHead
                | ConnState::ReadingBody
                | ConnState::ReadingChunked
        )
    }

    fn close(&mut self, reason: CloseReason, rec: &dyn Recorder, out: &mut Vec<ConnAction>) {
        if self.state == ConnState::Closing {
            return;
        }
        self.set_state(ConnState::Closing, rec);
        out.push(ConnAction::Close(reason));
    }

    /// The socket is readable: perform exactly one `read` and parse as far
    /// as the bytes allow. Returns `true` when that read found nothing
    /// (`WouldBlock`); a driver that wants more bytes calls again.
    pub fn on_readable(
        &mut self,
        io: &mut impl Read,
        rec: &dyn Recorder,
        out: &mut Vec<ConnAction>,
    ) -> bool {
        if !self.reading() {
            return false;
        }
        match self.buf.read_from(io) {
            Ok(0) => self.on_eof(rec, out),
            Ok(_) => {
                self.advance(rec, out);
                // Progress slides the stall timer; the budget timer
                // deliberately does not move.
                if self.reading() {
                    if let Some(t) = self.cfg.read_timeout {
                        out.push(ConnAction::Arm(TimerKind::ReadStall, t));
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
            Err(_) => self.close(CloseReason::Error, rec, out),
        }
        false
    }

    fn on_eof(&mut self, rec: &dyn Recorder, out: &mut Vec<ConnAction>) {
        match self.state {
            ConnState::Idle => self.close(CloseReason::CleanEof, rec, out),
            _ => self.bad_request(self.parser.eof_error(), rec, out),
        }
    }

    /// Malformed input: tick the counter, queue a 400 whose body is the
    /// typed error's text, close after it drains.
    fn bad_request(&mut self, err: HttpError, rec: &dyn Recorder, out: &mut Vec<ConnAction>) {
        rec.add(Counter::ServerBadRequests, 1);
        let ioe: io::Error = err.into();
        let resp = Response {
            measure: false,
            ..Response::xml(400, "Bad Request", ioe.to_string().into_bytes())
        };
        out.push(ConnAction::Cancel(TimerKind::ReadStall));
        out.push(ConnAction::Cancel(TimerKind::RequestBudget));
        out.push(ConnAction::Cancel(TimerKind::IdleReap));
        self.render(resp);
        self.close_after_write = Some(CloseReason::BadRequest);
        self.set_state(ConnState::Writing, rec);
        out.push(ConnAction::Interest {
            read: false,
            write: true,
        });
    }

    /// Parse as far as the buffered bytes allow.
    fn advance(&mut self, rec: &dyn Recorder, out: &mut Vec<ConnAction>) {
        while self.reading() {
            if self.state == ConnState::Idle {
                if self.buf.window().is_empty() {
                    break;
                }
                // First byte of a new request: off the idle timers, onto
                // the request budget.
                self.set_state(ConnState::ReadingHead, rec);
                out.push(ConnAction::Cancel(TimerKind::IdleReap));
                if let Some(t) = self.cfg.request_timeout {
                    out.push(ConnAction::Arm(TimerKind::RequestBudget, t));
                }
            }
            let (n, parsed) = match self.parser.step(self.buf.window()) {
                Ok(step) => step,
                Err(err) => {
                    self.bad_request(err, rec, out);
                    break;
                }
            };
            match parsed {
                Parsed::Starved => {
                    self.buf.consume(n);
                    break;
                }
                Parsed::Head(framing) => {
                    let head = self.parser.take_request_head();
                    self.sink = self.cfg.sink_factory.as_ref().and_then(|f| f(&head));
                    self.head = Some(head);
                    self.body_seen = 0;
                    self.declared = usize::MAX;
                    match framing {
                        BodyFraming::Length(0) => {}
                        BodyFraming::Length(len) => {
                            if self.sink.is_none() {
                                self.declared = len;
                                // Clamped so a forged Content-Length cannot
                                // force a huge up-front allocation.
                                body_room(&mut self.body, len, len.min(READ_SIZE));
                            }
                            self.set_state(ConnState::ReadingBody, rec);
                        }
                        BodyFraming::Chunked => self.set_state(ConnState::ReadingChunked, rec),
                    }
                }
                Parsed::Body(range) => {
                    let slice = &self.buf.window()[range];
                    self.body_seen += slice.len();
                    let sunk = match self.sink.as_mut() {
                        Some(sink) => sink.on_slice(slice),
                        None => {
                            body_room(&mut self.body, self.declared, slice.len());
                            self.body.extend_from_slice(slice);
                            Ok(())
                        }
                    };
                    // A sink error is a bad request (mirrors a
                    // deserialization failure on the buffered path).
                    if sunk.is_err() {
                        let err = HttpError::BadFraming("body sink rejected input");
                        self.bad_request(err, rec, out);
                        break;
                    }
                }
                Parsed::Done => {
                    self.buf.consume(n);
                    self.complete_request(rec, out);
                    break;
                }
            }
            self.buf.consume(n);
        }
    }

    /// A full request is buffered/streamed: hand it off and stop reading
    /// until the response comes back (backpressure by disarmed interest).
    fn complete_request(&mut self, rec: &dyn Recorder, out: &mut Vec<ConnAction>) {
        let head = self.head.take().expect("request head set");
        let body = if let Some(mut sink) = self.sink.take() {
            if sink.finish().is_err() {
                self.bad_request(HttpError::BadFraming("body sink rejected finish"), rec, out);
                return;
            }
            ReqBody::Streamed {
                bytes: self.body_seen,
            }
        } else {
            ReqBody::Full(std::mem::take(&mut self.body))
        };
        out.push(ConnAction::Cancel(TimerKind::ReadStall));
        out.push(ConnAction::Cancel(TimerKind::RequestBudget));
        self.set_state(ConnState::Dispatching, rec);
        self.dispatched_ns = rec.now_ns();
        out.push(ConnAction::Interest {
            read: false,
            write: false,
        });
        out.push(ConnAction::Dispatch(head, body));
    }

    /// The handler finished the request: render and start writing. The
    /// driver should attempt `on_writable` immediately after.
    pub fn on_dispatch_done(&mut self, mut resp: Response, rec: &dyn Recorder) {
        if self.state != ConnState::Dispatching {
            return;
        }
        if resp.spare.capacity() > self.body.capacity() {
            self.body = std::mem::take(&mut resp.spare);
            self.body.clear();
        }
        self.render(resp);
        self.set_state(ConnState::Writing, rec);
    }

    /// The handler unwound instead of answering: write a 500, then close,
    /// since what the handler left behind is unknown. The driver should
    /// attempt `on_writable` immediately after.
    pub fn on_dispatch_panicked(&mut self, rec: &dyn Recorder) {
        if self.state != ConnState::Dispatching {
            return;
        }
        self.render(Response {
            measure: false,
            ..Response::xml(500, "Internal Server Error", b"handler panicked".to_vec())
        });
        self.close_after_write = Some(CloseReason::HandlerPanicked);
        self.set_state(ConnState::Writing, rec);
    }

    fn render(&mut self, resp: Response) {
        render_response_head_extra(
            &mut self.write_buf,
            resp.status,
            resp.reason,
            resp.content_type,
            resp.body.len(),
            &resp.extra_headers,
        );
        // Move, don't copy: the payload drains from its own buffer,
        // gathered with the head in one vectored write.
        self.write_body = resp.body;
        self.write_pos = 0;
        self.measure = resp.measure;
    }

    /// Readiness (or optimistic attempt): drain the response.
    pub fn on_writable(
        &mut self,
        io: &mut impl Write,
        rec: &dyn Recorder,
        out: &mut Vec<ConnAction>,
    ) {
        if self.state != ConnState::Writing {
            return;
        }
        // `write_pos` walks the logical `head ++ body` stream. While still
        // inside the head, gather head-remainder and body in one `writev`;
        // once past it, drain the body tail with plain writes.
        let total = self.write_buf.len() + self.write_body.len();
        while self.write_pos < total {
            let res = if self.write_pos < self.write_buf.len() {
                if self.write_body.is_empty() {
                    io.write(&self.write_buf[self.write_pos..])
                } else {
                    io.write_vectored(&[
                        io::IoSlice::new(&self.write_buf[self.write_pos..]),
                        io::IoSlice::new(&self.write_body),
                    ])
                }
            } else {
                io.write(&self.write_body[self.write_pos - self.write_buf.len()..])
            };
            match res {
                Ok(0) => {
                    self.close(CloseReason::WriteFailed, rec, out);
                    return;
                }
                Ok(n) => self.write_pos += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    out.push(ConnAction::Interest {
                        read: false,
                        write: true,
                    });
                    return;
                }
                Err(_) => {
                    self.close(CloseReason::WriteFailed, rec, out);
                    return;
                }
            }
        }
        // Response fully on the wire.
        self.write_buf.clear();
        self.write_body = Vec::new();
        self.write_pos = 0;
        if self.measure {
            let bytes = total as u64;
            let elapsed_ns = rec.now_ns().saturating_sub(self.dispatched_ns);
            rec.add(Counter::ServerBytesOut, bytes);
            rec.observe_ns(HistId::ServerRequest, elapsed_ns);
            rec.trace(TraceKind::Request { bytes, elapsed_ns });
        }
        if let Some(reason) = self.close_after_write.take() {
            self.close(reason, rec, out);
            return;
        }
        if self.draining {
            self.close(CloseReason::Drained, rec, out);
            return;
        }
        if self.buffered() > 0 {
            // Pipelined: the next request's first bytes are already here.
            self.set_state(ConnState::ReadingHead, rec);
            if let Some(t) = self.cfg.request_timeout {
                out.push(ConnAction::Arm(TimerKind::RequestBudget, t));
            }
            if let Some(t) = self.cfg.read_timeout {
                out.push(ConnAction::Arm(TimerKind::ReadStall, t));
            }
            self.advance(rec, out);
            if self.reading() {
                out.push(ConnAction::Interest {
                    read: true,
                    write: false,
                });
            }
        } else {
            self.enter_idle(rec, out);
        }
    }

    fn enter_idle(&mut self, rec: &dyn Recorder, out: &mut Vec<ConnAction>) {
        self.set_state(ConnState::Idle, rec);
        if let Some(t) = self.cfg.idle_timeout {
            out.push(ConnAction::Arm(TimerKind::IdleReap, t));
        }
        if let Some(t) = self.cfg.read_timeout {
            out.push(ConnAction::Arm(TimerKind::ReadStall, t));
        }
        out.push(ConnAction::Interest {
            read: true,
            write: false,
        });
    }

    /// A timer this connection armed fired.
    pub fn on_timer(&mut self, kind: TimerKind, rec: &dyn Recorder, out: &mut Vec<ConnAction>) {
        match (kind, self.state) {
            (TimerKind::ReadStall, s) if self.reading() => {
                rec.add(Counter::ServerTimeouts, 1);
                rec.trace(TraceKind::Evict {
                    conn_id: self.id,
                    idle: s == ConnState::Idle,
                });
                self.close(CloseReason::Evicted, rec, out);
            }
            (
                TimerKind::RequestBudget,
                ConnState::ReadingHead | ConnState::ReadingBody | ConnState::ReadingChunked,
            ) => {
                rec.add(Counter::ServerTimeouts, 1);
                rec.trace(TraceKind::Evict {
                    conn_id: self.id,
                    idle: false,
                });
                self.close(CloseReason::Evicted, rec, out);
            }
            (TimerKind::IdleReap, ConnState::Idle) => {
                rec.add(Counter::ServerIdleReaped, 1);
                rec.trace(TraceKind::Evict {
                    conn_id: self.id,
                    idle: true,
                });
                self.close(CloseReason::IdleReaped, rec, out);
            }
            // A firing that raced a state change in the same batch is
            // stale: ignore it.
            _ => {}
        }
    }

    /// Graceful drain: idle connections close now; anything mid-request
    /// finishes the current response, then closes.
    pub fn set_draining(&mut self, rec: &dyn Recorder, out: &mut Vec<ConnAction>) {
        self.draining = true;
        if self.state == ConnState::Idle {
            self.close(CloseReason::Drained, rec, out);
        }
    }
}

/// Room in `body` for `more` bytes, doubling but never past the `declared`
/// length: an honest body fills its buffer exactly, so a reference can keep
/// it as it is, and a forged length costs at most twice what arrived.
fn body_room(body: &mut Vec<u8>, declared: usize, more: usize) {
    let (len, room) = (body.len(), body.capacity());
    if room - len < more {
        let grown = (2 * room).min(declared).max(len + more);
        body.reserve_exact(grown - len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsoap_obs::NullRecorder;
    use std::collections::VecDeque;

    /// Read until the script runs dry (`WouldBlock`) or the machine stops
    /// wanting bytes — what a driver's repeated readiness events amount to.
    fn pump(conn: &mut Conn, io: &mut impl Read, rec: &dyn Recorder, out: &mut Vec<ConnAction>) {
        while conn.reading() && !conn.on_readable(io, rec, out) {}
    }

    /// Scripted reader: a queue of byte runs and errors.
    struct Script(VecDeque<io::Result<Vec<u8>>>);

    impl Script {
        fn new(items: Vec<io::Result<Vec<u8>>>) -> Script {
            Script(items.into())
        }
    }

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.0.pop_front() {
                None => Err(io::ErrorKind::WouldBlock.into()),
                Some(Ok(bytes)) => {
                    assert!(bytes.len() <= buf.len());
                    buf[..bytes.len()].copy_from_slice(&bytes);
                    Ok(bytes.len())
                }
                Some(Err(e)) => Err(e),
            }
        }
    }

    fn states(conn: &Conn) -> Vec<ConnState> {
        conn.transitions().into_iter().map(|(_, to)| to).collect()
    }

    #[test]
    fn whole_request_in_one_read_dispatches() {
        let rec = NullRecorder;
        let mut conn = Conn::new(1, ConnConfig::default());
        let mut out = Vec::new();
        let wire = b"POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello".to_vec();
        let mut io = Script::new(vec![Ok(wire)]);
        pump(&mut conn, &mut io, &rec, &mut out);
        assert_eq!(
            states(&conn),
            vec![
                ConnState::ReadingHead,
                ConnState::ReadingBody,
                ConnState::Dispatching
            ]
        );
        let dispatched = out
            .iter()
            .find_map(|a| match a {
                ConnAction::Dispatch(h, b) => Some((h.path().to_owned(), b.len())),
                _ => None,
            })
            .expect("dispatched");
        assert_eq!(dispatched, ("/".to_owned(), 5));
    }

    #[test]
    fn split_head_and_body_across_reads() {
        let rec = NullRecorder;
        let mut conn = Conn::new(1, ConnConfig::default());
        let mut out = Vec::new();
        let mut io = Script::new(vec![
            Ok(b"POST / HT".to_vec()),
            Err(io::ErrorKind::Interrupted.into()),
            Ok(b"TP/1.1\r\nContent-Length: 4\r\n\r\nab".to_vec()),
            Ok(b"cd".to_vec()),
        ]);
        pump(&mut conn, &mut io, &rec, &mut out);
        assert_eq!(conn.state(), ConnState::Dispatching);
        conn.on_dispatch_done(Response::xml(200, "OK", b"<ack/>".to_vec()), &rec);
        let mut wire = Vec::new();
        conn.on_writable(&mut wire, &rec, &mut out);
        assert_eq!(conn.state(), ConnState::Idle);
        assert!(wire.starts_with(b"HTTP/1.1 200 OK\r\n"));
        assert!(wire.ends_with(b"<ack/>"));
    }

    #[test]
    fn chunked_body_straddling_reads_decodes() {
        let rec = NullRecorder;
        let mut conn = Conn::new(1, ConnConfig::default());
        let mut out = Vec::new();
        let mut io = Script::new(vec![
            Ok(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n4\r".to_vec()),
            Ok(b"\nwxyz\r\n3\r\nabc\r\n0\r\n".to_vec()),
            Ok(b"\r\n".to_vec()),
        ]);
        pump(&mut conn, &mut io, &rec, &mut out);
        assert_eq!(conn.state(), ConnState::Dispatching);
        let body = out
            .iter()
            .find_map(|a| match a {
                ConnAction::Dispatch(_, ReqBody::Full(b)) => Some(b.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!(body, b"wxyzabc");
    }

    #[test]
    fn eof_mid_head_is_bad_request_then_close() {
        let rec = NullRecorder;
        let mut conn = Conn::new(1, ConnConfig::default());
        let mut out = Vec::new();
        let mut io = Script::new(vec![Ok(b"POST / HTTP".to_vec()), Ok(vec![])]);
        pump(&mut conn, &mut io, &rec, &mut out);
        assert_eq!(conn.state(), ConnState::Writing);
        let mut wire = Vec::new();
        conn.on_writable(&mut wire, &rec, &mut out);
        assert!(wire.starts_with(b"HTTP/1.1 400 Bad Request\r\n"));
        assert_eq!(conn.state(), ConnState::Closing);
        assert!(out
            .iter()
            .any(|a| matches!(a, ConnAction::Close(CloseReason::BadRequest))));
    }

    #[test]
    fn pipelined_requests_dispatch_back_to_back_without_readiness() {
        let rec = NullRecorder;
        let mut conn = Conn::new(1, ConnConfig::default());
        let mut out = Vec::new();
        let one = b"POST / HTTP/1.1\r\nContent-Length: 1\r\n\r\nA";
        let mut wire_in = one.to_vec();
        wire_in.extend_from_slice(one);
        let mut io = Script::new(vec![Ok(wire_in)]);
        pump(&mut conn, &mut io, &rec, &mut out);
        assert_eq!(conn.state(), ConnState::Dispatching);
        assert_eq!(conn.buffered(), one.len(), "second request held back");
        conn.on_dispatch_done(Response::xml(200, "OK", b"<ack/>".to_vec()), &rec);
        out.clear();
        let mut wire = Vec::new();
        conn.on_writable(&mut wire, &rec, &mut out);
        // The leftover request dispatches straight from the buffer.
        assert_eq!(conn.state(), ConnState::Dispatching);
        assert!(out
            .iter()
            .any(|a| matches!(a, ConnAction::Dispatch(_, ReqBody::Full(b)) if b == b"A")));
    }

    #[test]
    fn stall_timer_evicts_only_while_reading() {
        let rec = NullRecorder;
        let cfg = ConnConfig {
            read_timeout: Some(Duration::from_millis(40)),
            ..ConnConfig::default()
        };
        let mut conn = Conn::new(1, cfg);
        let mut out = Vec::new();
        let mut io = Script::new(vec![Ok(b"POST / HTTP/1.1\r\nHost: lo".to_vec())]);
        pump(&mut conn, &mut io, &rec, &mut out);
        assert_eq!(conn.state(), ConnState::ReadingHead);
        conn.on_timer(TimerKind::ReadStall, &rec, &mut out);
        assert_eq!(conn.state(), ConnState::Closing);
        assert!(out
            .iter()
            .any(|a| matches!(a, ConnAction::Close(CloseReason::Evicted))));
    }

    #[test]
    fn stale_timer_after_state_change_is_ignored() {
        let rec = NullRecorder;
        let mut conn = Conn::new(1, ConnConfig::default());
        let mut out = Vec::new();
        let mut io = Script::new(vec![Ok(
            b"POST / HTTP/1.1\r\nContent-Length: 0\r\n\r\n".to_vec()
        )]);
        pump(&mut conn, &mut io, &rec, &mut out);
        assert_eq!(conn.state(), ConnState::Dispatching);
        conn.on_timer(TimerKind::RequestBudget, &rec, &mut out);
        assert_eq!(conn.state(), ConnState::Dispatching, "stale firing ignored");
    }

    #[test]
    fn drain_mid_request_finishes_then_closes() {
        let rec = NullRecorder;
        let mut conn = Conn::new(1, ConnConfig::default());
        let mut out = Vec::new();
        let mut io = Script::new(vec![Ok(
            b"POST / HTTP/1.1\r\nContent-Length: 2\r\n\r\nok".to_vec()
        )]);
        pump(&mut conn, &mut io, &rec, &mut out);
        conn.set_draining(&rec, &mut out);
        assert_eq!(conn.state(), ConnState::Dispatching, "in-flight survives");
        conn.on_dispatch_done(Response::xml(200, "OK", b"<ack/>".to_vec()), &rec);
        let mut wire = Vec::new();
        conn.on_writable(&mut wire, &rec, &mut out);
        assert_eq!(conn.state(), ConnState::Closing);
        assert!(out
            .iter()
            .any(|a| matches!(a, ConnAction::Close(CloseReason::Drained))));
        assert!(wire.starts_with(b"HTTP/1.1 200 OK\r\n"), "response written");
    }

    #[test]
    fn idle_drain_closes_immediately() {
        let rec = NullRecorder;
        let mut conn = Conn::new(1, ConnConfig::default());
        let mut out = Vec::new();
        conn.set_draining(&rec, &mut out);
        assert_eq!(conn.state(), ConnState::Closing);
    }

    /// Writer that records each call: (was_vectored, slice_count, bytes
    /// accepted). `cap` limits how many bytes any one call may take.
    struct GatherProbe {
        wire: Vec<u8>,
        calls: Vec<(bool, usize, usize)>,
        cap: usize,
    }

    impl GatherProbe {
        fn new(cap: usize) -> GatherProbe {
            GatherProbe {
                wire: Vec::new(),
                calls: Vec::new(),
                cap,
            }
        }
    }

    impl Write for GatherProbe {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = buf.len().min(self.cap);
            self.wire.extend_from_slice(&buf[..n]);
            self.calls.push((false, 1, n));
            Ok(n)
        }
        fn write_vectored(&mut self, bufs: &[io::IoSlice<'_>]) -> io::Result<usize> {
            let mut left = self.cap;
            let mut took = 0;
            for b in bufs {
                let n = b.len().min(left);
                self.wire.extend_from_slice(&b[..n]);
                took += n;
                left -= n;
                if left == 0 {
                    break;
                }
            }
            self.calls.push((true, bufs.len(), took));
            Ok(took)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn dispatch_one(conn: &mut Conn, rec: &dyn Recorder, out: &mut Vec<ConnAction>) {
        let mut io = Script::new(vec![Ok(
            b"POST / HTTP/1.1\r\nContent-Length: 2\r\n\r\nok".to_vec()
        )]);
        pump(conn, &mut io, rec, out);
        assert_eq!(conn.state(), ConnState::Dispatching);
    }

    #[test]
    fn response_goes_out_in_one_gather_write() {
        let rec = Metrics::new();
        let mut conn = Conn::new(1, ConnConfig::default());
        let mut out = Vec::new();
        dispatch_one(&mut conn, &rec, &mut out);
        conn.on_dispatch_done(Response::xml(200, "OK", b"<sum>42</sum>".to_vec()), &rec);
        let mut io = GatherProbe::new(usize::MAX);
        conn.on_writable(&mut io, &rec, &mut out);
        assert_eq!(conn.state(), ConnState::Idle);
        // Head and body leave in a single vectored call: no scratch-buffer
        // copy, no second syscall.
        assert_eq!(io.calls.len(), 1);
        assert_eq!(io.calls[0], (true, 2, io.wire.len()));
        assert!(io.wire.starts_with(b"HTTP/1.1 200 OK\r\n"));
        assert!(io.wire.ends_with(b"<sum>42</sum>"));
        // The machine itself accounts for the measured response.
        let snap = rec.snapshot();
        assert_eq!(snap.get(Counter::ServerBytesOut), io.wire.len() as u64);
        assert_eq!(snap.hist(HistId::ServerRequest).count(), 1);
    }

    #[test]
    fn short_gather_writes_resume_mid_head_and_mid_body() {
        let rec = NullRecorder;
        let mut conn = Conn::new(1, ConnConfig::default());
        let mut out = Vec::new();
        dispatch_one(&mut conn, &rec, &mut out);
        let body = b"<r>differential</r>".to_vec();
        conn.on_dispatch_done(Response::xml(200, "OK", body.clone()), &rec);
        // 7 bytes per call: many calls land mid-head, then mid-body.
        let mut io = GatherProbe::new(7);
        conn.on_writable(&mut io, &rec, &mut out);
        assert_eq!(conn.state(), ConnState::Idle);
        assert!(io.wire.starts_with(b"HTTP/1.1 200 OK\r\n"));
        assert!(io.wire.ends_with(&body[..]));
        // Calls while inside the head gather both slices; calls past the
        // head fall back to plain writes of the body tail.
        let head_len = io.wire.len() - body.len();
        let mut seen = 0;
        for &(vectored, slices, n) in &io.calls {
            if seen < head_len {
                assert!(vectored && slices == 2, "in-head call must gather");
            } else {
                assert!(!vectored, "body tail drains with plain writes");
            }
            seen += n;
        }
        assert_eq!(seen, io.wire.len());
    }

    #[test]
    fn empty_body_response_skips_vectored_path() {
        let rec = NullRecorder;
        let mut conn = Conn::new(1, ConnConfig::default());
        let mut out = Vec::new();
        dispatch_one(&mut conn, &rec, &mut out);
        conn.on_dispatch_done(Response::xml(204, "No Content", Vec::new()), &rec);
        let mut io = GatherProbe::new(usize::MAX);
        conn.on_writable(&mut io, &rec, &mut out);
        assert_eq!(io.calls.len(), 1);
        assert!(!io.calls[0].0, "no body: plain write, no empty IoSlice");
    }

    #[test]
    fn streamed_body_bypasses_buffering() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        struct CountSink(Arc<AtomicUsize>);
        impl BodySink for CountSink {
            fn on_slice(&mut self, s: &[u8]) -> io::Result<()> {
                self.0.fetch_add(s.len(), Ordering::Relaxed);
                Ok(())
            }
            fn finish(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let seen = Arc::new(AtomicUsize::new(0));
        let seen2 = seen.clone();
        let cfg = ConnConfig {
            sink_factory: Some(Arc::new(move |_h: &RequestHead| {
                Some(Box::new(CountSink(seen2.clone())) as Box<dyn BodySink>)
            })),
            ..ConnConfig::default()
        };
        let rec = NullRecorder;
        let mut conn = Conn::new(1, cfg);
        let mut out = Vec::new();
        let mut io = Script::new(vec![Ok(
            b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n"
                .to_vec(),
        )]);
        pump(&mut conn, &mut io, &rec, &mut out);
        assert_eq!(seen.load(Ordering::Relaxed), 5);
        assert!(out
            .iter()
            .any(|a| matches!(a, ConnAction::Dispatch(_, ReqBody::Streamed { bytes: 5 }))));
    }
}
