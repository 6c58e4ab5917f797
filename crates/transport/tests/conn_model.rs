//! Model-checked connection-lifecycle suite for the one server-side
//! request path: the [`bsoap_transport::Conn`] state machine, driven the
//! way the event loop drives it.
//!
//! `ConnModel` is an independent re-statement of the lifecycle spec
//! (DESIGN §3.13): it predicts every state transition, timer arm/cancel,
//! readiness-interest change, dispatch hand-off, and counter tick — not
//! by re-parsing HTTP, but from *generative* knowledge: the harness builds
//! each request itself, so the model knows exactly where every head and
//! body boundary falls on the wire. A seeded LCG draws one randomized
//! event schedule per seed — fragmented reads, EINTR, partial writes,
//! timer firings, EOF, graceful drain — and feeds it to the machine one
//! `read` per `on_readable` call with scripted, syscall-free I/O; the
//! harness plays the timer wheel and, after every single event, asserts
//! that state, transition trace, armed timers, requested interest and
//! every dispatched request's path and body equal the model's. The run
//! must end with the model's close reason, [`EngineStats`] snapshot and
//! trace-event sequence.
//!
//! 256 schedules, all seeds fixed, clocks frozen: failures replay exactly.
//!
//! Plain tests pin what a body is read into: the spare buffer a handler
//! returns carries the next body, cleared and in the same allocation; a
//! body grows to exactly its declared length; and a forged
//! `Content-Length` never reserves more than one read (a tracking
//! allocator measures the largest allocation).

use bsoap_obs::{Counter, EngineStats, HistId, Metrics, Recorder, TraceKind, VirtualClock};
use bsoap_transport::http::{render_response_head_extra, HttpError, RequestHead, READ_SIZE};
use bsoap_transport::{
    CloseReason, Conn, ConnAction, ConnConfig, ConnState, ReqBody, Response, TimerKind,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::io::{self, Read, Write};
use std::sync::{Arc, Mutex};
use std::time::Duration;

// ---------------------------------------------------------------------------
// Deterministic randomness: SplitMix64-style LCG, no external crates.
// ---------------------------------------------------------------------------

struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Lcg {
        Lcg(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    fn chance(&mut self, one_in: usize) -> bool {
        self.below(one_in) == 0
    }
}

// ---------------------------------------------------------------------------
// Generated wire: requests with known boundaries.
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Framing {
    Empty,
    Length,
    Chunked,
}

#[derive(Clone, Debug)]
struct ReqSpec {
    start: usize,
    head_len: usize,
    total_len: usize,
    framing: Framing,
    path: String,
    body: Vec<u8>,
}

impl ReqSpec {
    fn end(&self) -> usize {
        self.start + self.total_len
    }
}

fn gen_requests(rng: &mut Lcg) -> (Vec<u8>, Vec<ReqSpec>) {
    let n = 1 + rng.below(3);
    let mut wire = Vec::new();
    let mut specs = Vec::new();
    for i in 0..n {
        let start = wire.len();
        let path = format!("/op{i}");
        let kind = rng.below(3);
        let (framing, body): (Framing, Vec<u8>) = match kind {
            0 => (Framing::Empty, Vec::new()),
            1 => {
                let len = 1 + rng.below(48);
                (
                    Framing::Length,
                    (0..len).map(|j| b'a' + (j % 26) as u8).collect(),
                )
            }
            _ => {
                let chunks = 1 + rng.below(3);
                let body: Vec<u8> = (0..chunks)
                    .flat_map(|c| {
                        let len = 1 + rng.below(12);
                        (0..len).map(move |j| b'A' + ((c + j) % 26) as u8)
                    })
                    .collect();
                (Framing::Chunked, body)
            }
        };
        let mut head = format!("POST {path} HTTP/1.1\r\nHost: model\r\n");
        match framing {
            Framing::Chunked => head.push_str("Transfer-Encoding: chunked\r\n\r\n"),
            _ => head.push_str(&format!("Content-Length: {}\r\n\r\n", body.len())),
        }
        wire.extend_from_slice(head.as_bytes());
        let head_len = wire.len() - start;
        match framing {
            Framing::Chunked => {
                // Re-chunk the body the same way it was generated: the
                // boundaries themselves don't matter to the model (only
                // the request's total wire length does).
                let mut off = 0;
                let mut rng2 = Lcg::new(start as u64); // deterministic re-split
                while off < body.len() {
                    let take = (1 + rng2.below(12)).min(body.len() - off);
                    wire.extend_from_slice(format!("{take:x}\r\n").as_bytes());
                    wire.extend_from_slice(&body[off..off + take]);
                    wire.extend_from_slice(b"\r\n");
                    off += take;
                }
                wire.extend_from_slice(b"0\r\n\r\n");
            }
            _ => wire.extend_from_slice(&body),
        }
        specs.push(ReqSpec {
            start,
            head_len,
            total_len: wire.len() - start,
            framing,
            path,
            body,
        });
    }
    (wire, specs)
}

// ---------------------------------------------------------------------------
// The schedule, and its scripted I/O.
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
enum Frag {
    Bytes(Vec<u8>),
    Eof,
}

/// One step of a schedule.
#[derive(Clone, Debug)]
enum Ev {
    /// One successful `read` (preceded by an `Interrupted` one if `eintr`).
    Feed { frag: Frag, eintr: bool },
    /// The nearest armed timer fires.
    Timer(TimerKind),
    /// The handler answers with a body of this many bytes.
    DispatchDone(usize),
    /// The socket accepts this many response bytes, then would block.
    Writable(usize),
    /// The socket's write side fails.
    WriteError,
    /// Graceful drain begins.
    Drain,
}

/// Scripted reader: optional EINTR noise, then one fragment — exactly
/// one `on_readable` call's worth of input.
struct OneShot {
    eintr: bool,
    frag: Option<Frag>,
}

impl Read for OneShot {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.eintr {
            self.eintr = false;
            return Err(io::ErrorKind::Interrupted.into());
        }
        match self.frag.take() {
            Some(Frag::Bytes(b)) => {
                assert!(b.len() <= buf.len(), "fragment exceeds the read buffer");
                buf[..b.len()].copy_from_slice(&b);
                Ok(b.len())
            }
            Some(Frag::Eof) => Ok(0),
            None => panic!("one read per on_readable call"),
        }
    }
}

/// Scripted writer accepting `cap` bytes this event, then `WouldBlock`
/// (never `Ok(0)`), or failing outright.
struct CapWriter<'a> {
    cap: usize,
    fail: bool,
    sunk: &'a mut Vec<u8>,
}

impl Write for CapWriter<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.fail {
            return Err(io::ErrorKind::BrokenPipe.into());
        }
        if self.cap == 0 {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        let n = buf.len().min(self.cap);
        self.cap -= n;
        self.sunk.extend_from_slice(&buf[..n]);
        Ok(n)
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The model.
// ---------------------------------------------------------------------------

/// Spec-level mirror of `Conn`: same states, same transition rules, fed
/// from generative knowledge of the wire instead of a parser.
struct ConnModel {
    state: ConnState,
    transitions: Vec<(ConnState, ConnState)>,
    armed: BTreeSet<TimerKind>,
    interest: Option<(bool, bool)>,
    /// Bytes of the wire delivered to the machine so far.
    fed: usize,
    /// Index of the next request to complete.
    next_req: usize,
    /// Response bytes still to drain (None = not writing).
    write_remaining: Option<usize>,
    /// Total length of the response being written if it is a measured one
    /// (a handler's answer, not a 400).
    measured: Option<usize>,
    close_after_write: bool,
    draining: bool,
    closed: bool,
    /// Dispatches predicted so far: (path, body).
    dispatched: Vec<(String, Vec<u8>)>,
    cfg_read: Option<Duration>,
    cfg_request: Option<Duration>,
    cfg_idle: Option<Duration>,
    specs: Vec<ReqSpec>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Fate {
    Open,
    Completed,
    Evicted,
    IdleReaped,
    BadRequest,
    CleanEof,
    Drained,
    WriteFailed,
}

impl Fate {
    fn reason(self) -> Option<CloseReason> {
        match self {
            Fate::Open | Fate::Completed => None,
            Fate::Evicted => Some(CloseReason::Evicted),
            Fate::IdleReaped => Some(CloseReason::IdleReaped),
            Fate::BadRequest => Some(CloseReason::BadRequest),
            Fate::CleanEof => Some(CloseReason::CleanEof),
            Fate::Drained => Some(CloseReason::Drained),
            Fate::WriteFailed => Some(CloseReason::WriteFailed),
        }
    }
}

impl ConnModel {
    fn new(cfg: &ConnConfig, specs: Vec<ReqSpec>) -> ConnModel {
        ConnModel {
            state: ConnState::Idle,
            transitions: Vec::new(),
            armed: BTreeSet::new(),
            interest: None,
            fed: 0,
            next_req: 0,
            write_remaining: None,
            measured: None,
            close_after_write: false,
            draining: false,
            closed: false,
            dispatched: Vec::new(),
            cfg_read: cfg.read_timeout,
            cfg_request: cfg.request_timeout,
            cfg_idle: cfg.idle_timeout,
            specs,
        }
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

    fn goto(&mut self, to: ConnState, rec: &Metrics) {
        self.transitions.push((self.state, to));
        rec.add(Counter::ConnStateTransitions, 1);
        self.state = to;
    }

    fn on_accept(&mut self) {
        if self.cfg_idle.is_some() {
            self.armed.insert(TimerKind::IdleReap);
        }
        if self.cfg_read.is_some() {
            self.armed.insert(TimerKind::ReadStall);
        }
    }

    /// The length of the 400 response `bad_request` renders for `err`.
    fn response_len(status: u16, reason: &'static str, body_len: usize) -> usize {
        let mut scratch = Vec::new();
        render_response_head_extra(
            &mut scratch,
            status,
            reason,
            "text/xml; charset=utf-8",
            body_len,
            &[],
        );
        scratch.len() + body_len
    }

    fn bad_request(&mut self, err: HttpError, rec: &Metrics) {
        rec.add(Counter::ServerBadRequests, 1);
        let ioe: io::Error = err.into();
        self.armed.clear();
        self.write_remaining = Some(Self::response_len(
            400,
            "Bad Request",
            ioe.to_string().len(),
        ));
        self.measured = None;
        self.close_after_write = true;
        self.goto(ConnState::Writing, rec);
        self.interest = Some((false, true));
    }

    fn complete_request(&mut self, rec: &Metrics) {
        let spec = &self.specs[self.next_req];
        self.dispatched.push((spec.path.clone(), spec.body.clone()));
        self.next_req += 1;
        self.armed.remove(&TimerKind::ReadStall);
        self.armed.remove(&TimerKind::RequestBudget);
        self.goto(ConnState::Dispatching, rec);
        self.interest = Some((false, false));
    }

    /// Mirror of `Conn::advance`: consume as far as the fed bytes allow.
    fn run_parse(&mut self, rec: &Metrics) {
        loop {
            match self.state {
                ConnState::Idle => {
                    let Some(spec) = self.specs.get(self.next_req) else {
                        break;
                    };
                    if self.fed > spec.start {
                        self.goto(ConnState::ReadingHead, rec);
                        self.armed.remove(&TimerKind::IdleReap);
                        if self.cfg_request.is_some() {
                            self.armed.insert(TimerKind::RequestBudget);
                        }
                    } else {
                        break;
                    }
                }
                ConnState::ReadingHead => {
                    let spec = self.specs[self.next_req].clone();
                    if self.fed >= spec.start + spec.head_len {
                        match spec.framing {
                            Framing::Empty => self.complete_request(rec),
                            Framing::Length => self.goto(ConnState::ReadingBody, rec),
                            Framing::Chunked => self.goto(ConnState::ReadingChunked, rec),
                        }
                    } else {
                        break;
                    }
                }
                ConnState::ReadingBody | ConnState::ReadingChunked => {
                    if self.fed >= self.specs[self.next_req].end() {
                        self.complete_request(rec);
                    } else {
                        break;
                    }
                }
                _ => break,
            }
        }
    }

    fn on_readable_bytes(&mut self, n: usize, rec: &Metrics) {
        if !self.reading() {
            return;
        }
        self.fed += n;
        self.run_parse(rec);
        if self.reading() && self.cfg_read.is_some() {
            self.armed.insert(TimerKind::ReadStall);
        }
    }

    fn on_eof(&mut self, rec: &Metrics) -> Fate {
        match self.state {
            ConnState::Idle => {
                self.goto(ConnState::Closing, rec);
                self.close();
                Fate::CleanEof
            }
            ConnState::ReadingHead => {
                self.bad_request(HttpError::BadHead("EOF inside request head"), rec);
                Fate::Open
            }
            ConnState::ReadingBody => {
                self.bad_request(HttpError::BadFraming("EOF inside length-framed body"), rec);
                Fate::Open
            }
            ConnState::ReadingChunked => {
                self.bad_request(HttpError::BadChunk("EOF inside chunked body"), rec);
                Fate::Open
            }
            _ => Fate::Open,
        }
    }

    fn on_dispatch_done(&mut self, resp: &Response, rec: &Metrics) {
        assert_eq!(self.state, ConnState::Dispatching);
        let total = Self::response_len(resp.status, resp.reason, resp.body.len());
        self.write_remaining = Some(total);
        self.measured = resp.measure.then_some(total);
        self.goto(ConnState::Writing, rec);
    }

    fn on_writable(&mut self, cap: usize, fail: bool, rec: &Metrics) -> Fate {
        assert_eq!(self.state, ConnState::Writing);
        if fail {
            self.goto(ConnState::Closing, rec);
            self.close();
            return Fate::WriteFailed;
        }
        let remaining = self.write_remaining.expect("writing implies a response");
        if cap < remaining {
            self.write_remaining = Some(remaining - cap);
            self.interest = Some((false, true));
            return Fate::Open;
        }
        // Response fully drained: the machine accounts for it (the clock
        // is frozen, so the request took no time).
        self.write_remaining = None;
        if let Some(bytes) = self.measured.take() {
            let bytes = bytes as u64;
            rec.add(Counter::ServerBytesOut, bytes);
            rec.observe_ns(HistId::ServerRequest, 0);
            rec.trace(TraceKind::Request {
                bytes,
                elapsed_ns: 0,
            });
        }
        if self.close_after_write {
            self.goto(ConnState::Closing, rec);
            self.close();
            return Fate::BadRequest;
        }
        if self.draining {
            self.goto(ConnState::Closing, rec);
            self.close();
            return Fate::Drained;
        }
        let leftover = self
            .specs
            .get(self.next_req)
            .map(|s| self.fed > s.start)
            .unwrap_or(false);
        if leftover {
            self.goto(ConnState::ReadingHead, rec);
            if self.cfg_request.is_some() {
                self.armed.insert(TimerKind::RequestBudget);
            }
            if self.cfg_read.is_some() {
                self.armed.insert(TimerKind::ReadStall);
            }
            self.run_parse(rec);
            if self.reading() {
                self.interest = Some((true, false));
            }
        } else {
            self.goto(ConnState::Idle, rec);
            if self.cfg_idle.is_some() {
                self.armed.insert(TimerKind::IdleReap);
            }
            if self.cfg_read.is_some() {
                self.armed.insert(TimerKind::ReadStall);
            }
            self.interest = Some((true, false));
        }
        Fate::Completed
    }

    fn on_timer(&mut self, kind: TimerKind, rec: &Metrics) -> Fate {
        match (kind, self.state) {
            (TimerKind::ReadStall, s) if self.reading() => {
                rec.add(Counter::ServerTimeouts, 1);
                rec.trace(TraceKind::Evict {
                    conn_id: 7,
                    idle: s == ConnState::Idle,
                });
                self.goto(ConnState::Closing, rec);
                self.close();
                Fate::Evicted
            }
            (
                TimerKind::RequestBudget,
                ConnState::ReadingHead | ConnState::ReadingBody | ConnState::ReadingChunked,
            ) => {
                rec.add(Counter::ServerTimeouts, 1);
                rec.trace(TraceKind::Evict {
                    conn_id: 7,
                    idle: false,
                });
                self.goto(ConnState::Closing, rec);
                self.close();
                Fate::Evicted
            }
            (TimerKind::IdleReap, ConnState::Idle) => {
                rec.add(Counter::ServerIdleReaped, 1);
                rec.trace(TraceKind::Evict {
                    conn_id: 7,
                    idle: true,
                });
                self.goto(ConnState::Closing, rec);
                self.close();
                Fate::IdleReaped
            }
            _ => Fate::Open,
        }
    }

    fn set_draining(&mut self, rec: &Metrics) -> Fate {
        self.draining = true;
        if self.state == ConnState::Idle {
            self.goto(ConnState::Closing, rec);
            self.close();
            return Fate::Drained;
        }
        Fate::Open
    }

    fn close(&mut self) {
        // A driver's teardown cancels every pending deadline.
        self.armed.clear();
        self.closed = true;
    }

    /// Which armed timer fires first: they were all armed within the same
    /// instant (no time passes in a schedule), so the shortest one.
    fn nearest_timer(&self) -> Option<TimerKind> {
        self.armed.iter().copied().min_by_key(|kind| match kind {
            TimerKind::ReadStall => self.cfg_read,
            TimerKind::RequestBudget => self.cfg_request,
            TimerKind::IdleReap => self.cfg_idle,
        })
    }
}

// ---------------------------------------------------------------------------
// Harness: drives Conn + ConnModel through one schedule and checks parity.
// ---------------------------------------------------------------------------

/// The direct leg's driver stand-in: applies the real machine's actions
/// to wheel/interest mirrors and collects dispatches.
struct Harness {
    wheel: BTreeSet<TimerKind>,
    interest: Option<(bool, bool)>,
    dispatched: Vec<(String, Vec<u8>)>,
    closed: Option<CloseReason>,
}

impl Harness {
    fn apply(&mut self, actions: &mut Vec<ConnAction>, cfg: &ConnConfig, seed: u64, step: usize) {
        for a in actions.drain(..) {
            match a {
                ConnAction::Arm(kind, dur) => {
                    let expect = match kind {
                        TimerKind::ReadStall => cfg.read_timeout,
                        TimerKind::RequestBudget => cfg.request_timeout,
                        TimerKind::IdleReap => cfg.idle_timeout,
                    };
                    assert_eq!(
                        Some(dur),
                        expect,
                        "seed {seed} step {step}: {kind:?} armed with the wrong deadline"
                    );
                    self.wheel.insert(kind);
                }
                ConnAction::Cancel(kind) => {
                    self.wheel.remove(&kind);
                }
                ConnAction::Interest { read, write } => {
                    self.interest = Some((read, write));
                }
                ConnAction::Dispatch(head, body) => {
                    let bytes = match body {
                        ReqBody::Full(b) => b,
                        ReqBody::Streamed { .. } => panic!("no sink configured"),
                    };
                    self.dispatched.push((head.path().to_owned(), bytes));
                }
                ConnAction::Close(reason) => {
                    // Driver teardown cancels everything for this conn.
                    self.wheel.clear();
                    self.closed = Some(reason);
                }
            }
        }
    }
}

fn check_parity(seed: u64, step: usize, conn: &Conn, model: &ConnModel, h: &Harness) {
    assert_eq!(
        conn.state(),
        model.state,
        "seed {seed} step {step}: state diverged"
    );
    assert_eq!(
        conn.transitions(),
        model.transitions,
        "seed {seed} step {step}: transition trace diverged"
    );
    assert_eq!(
        h.wheel, model.armed,
        "seed {seed} step {step}: armed timers diverged"
    );
    assert_eq!(
        h.interest, model.interest,
        "seed {seed} step {step}: readiness interest diverged"
    );
    assert_eq!(
        h.dispatched, model.dispatched,
        "seed {seed} step {step}: dispatched requests diverged"
    );
    assert_eq!(
        h.closed.is_some(),
        model.closed,
        "seed {seed} step {step}: close disagreement"
    );
}

fn frozen_metrics() -> Metrics {
    Metrics::with_clock(Arc::new(VirtualClock::new()))
}

fn assert_same_observations(seed: u64, real: &Metrics, model: &Metrics) {
    assert_eq!(
        EngineStats::snapshot(real),
        EngineStats::snapshot(model),
        "seed {seed}: metrics snapshots diverged"
    );
    let kinds = |m: &Metrics| -> Vec<TraceKind> {
        let (events, _) = m.trace_ring().snapshot();
        events.into_iter().map(|e| e.kind).collect()
    };
    assert_eq!(
        kinds(real),
        kinds(model),
        "seed {seed}: trace sequences diverged"
    );
}

/// Run one randomized schedule; returns the terminal
/// fate plus whether any request made it all the way to a fully written
/// response.
fn run_schedule(seed: u64) -> (Fate, bool) {
    let mut rng = Lcg::new(seed);
    // Three deadlines an hour apart, in a random order, each present or
    // not: which timer is nearest varies by schedule.
    let mut hours = [1u64, 2, 3];
    for i in (1..hours.len()).rev() {
        hours.swap(i, rng.below(i + 1));
    }
    let mut timeout = |present_in: usize, hours: u64| {
        (!rng.chance(present_in)).then(|| Duration::from_secs(hours * 3600))
    };
    let cfg = ConnConfig {
        read_timeout: timeout(4, hours[0]),
        request_timeout: timeout(2, hours[1]),
        idle_timeout: timeout(2, hours[2]),
        ..ConnConfig::default()
    };

    let (mut wire, specs) = gen_requests(&mut rng);

    // The client always hangs up in the end. One time in four it does so
    // early: a cut exactly on a request boundary lands while Idle (clean
    // EOF); anywhere else it is mid-request and must draw a 400.
    if rng.chance(4) {
        let cut = if rng.chance(3) {
            specs[rng.below(specs.len())].end()
        } else {
            1 + rng.below(wire.len().saturating_sub(1).max(1))
        };
        wire.truncate(cut);
    }
    let mut frags: Vec<Frag> = Vec::new();
    let mut off = 0;
    while off < wire.len() {
        let take = (1 + rng.below(wire.len() - off)).min(1 + rng.below(64) * 8);
        let take = take.max(1).min(wire.len() - off);
        frags.push(Frag::Bytes(wire[off..off + take].to_vec()));
        off += take;
    }
    frags.push(Frag::Eof);
    frags.reverse(); // pop from the back

    // Draw the schedule, checking parity at every step.
    let real_metrics = frozen_metrics();
    let model_metrics = frozen_metrics();
    let mut conn = Conn::new(7, cfg.clone());
    let mut model = ConnModel::new(&cfg, specs.clone());
    let mut h = Harness {
        wheel: BTreeSet::new(),
        interest: None,
        dispatched: Vec::new(),
        closed: None,
    };
    let mut sunk = Vec::new();

    let mut out = Vec::new();
    conn.on_accept(&mut out);
    h.apply(&mut out, &cfg, seed, 0);
    model.on_accept();
    check_parity(seed, 0, &conn, &model, &h);

    let mut fate = Fate::Open;
    let mut any_completed = false;
    let mut drained_once = false;
    for step in 1..=600 {
        if model.closed {
            break;
        }
        // Build the weighted choice list from the model's view (parity
        // with the real machine is asserted each step).
        #[derive(Clone, Copy)]
        enum Choice {
            Feed,
            Timer,
            DispatchDone,
            Writable,
            WriteError,
            Drain,
        }
        let mut choices: Vec<Choice> = Vec::new();
        if model.reading() && !frags.is_empty() {
            choices.extend([Choice::Feed; 6]);
        }
        if model.state == ConnState::Dispatching {
            choices.extend([Choice::DispatchDone; 6]);
        }
        if model.state == ConnState::Writing {
            choices.extend([Choice::Writable; 6]);
            if rng.chance(12) {
                choices.push(Choice::WriteError);
            }
        }
        if !model.armed.is_empty() {
            choices.push(Choice::Timer);
        }
        if !drained_once && rng.chance(40) {
            choices.push(Choice::Drain);
        }
        let ev = match choices[rng.below(choices.len())] {
            Choice::Feed => Ev::Feed {
                frag: frags.pop().unwrap(),
                eintr: rng.chance(6),
            },
            Choice::Timer => Ev::Timer(model.nearest_timer().unwrap()),
            Choice::DispatchDone => Ev::DispatchDone(rng.below(61)),
            Choice::Writable => Ev::Writable(match rng.below(3) {
                0 => 1 + rng.below(16),
                1 => 64,
                _ => usize::MAX,
            }),
            Choice::WriteError => Ev::WriteError,
            Choice::Drain => Ev::Drain,
        };
        let f = match ev {
            Ev::Feed { frag, eintr } => {
                let mut io = OneShot {
                    eintr,
                    frag: Some(frag.clone()),
                };
                let timed_out = conn.on_readable(&mut io, &real_metrics, &mut out);
                assert!(
                    !timed_out,
                    "seed {seed} step {step}: a read that found bytes"
                );
                match frag {
                    Frag::Eof => model.on_eof(&model_metrics),
                    Frag::Bytes(b) => {
                        model.on_readable_bytes(b.len(), &model_metrics);
                        Fate::Open
                    }
                }
            }
            Ev::Timer(kind) => {
                // A fired deadline leaves the wheel before delivery.
                h.wheel.remove(&kind);
                model.armed.remove(&kind);
                conn.on_timer(kind, &real_metrics, &mut out);
                model.on_timer(kind, &model_metrics)
            }
            Ev::DispatchDone(len) => {
                let resp = Response::xml(200, "OK", vec![b'x'; len]);
                conn.on_dispatch_done(resp.clone(), &real_metrics);
                model.on_dispatch_done(&resp, &model_metrics);
                Fate::Open
            }
            Ev::Writable(cap) => {
                let mut w = CapWriter {
                    cap,
                    fail: false,
                    sunk: &mut sunk,
                };
                conn.on_writable(&mut w, &real_metrics, &mut out);
                let f = model.on_writable(cap, false, &model_metrics);
                any_completed |= f == Fate::Completed;
                f
            }
            Ev::WriteError => {
                let mut w = CapWriter {
                    cap: 0,
                    fail: true,
                    sunk: &mut sunk,
                };
                conn.on_writable(&mut w, &real_metrics, &mut out);
                model.on_writable(0, true, &model_metrics)
            }
            Ev::Drain => {
                drained_once = true;
                conn.set_draining(&real_metrics, &mut out);
                model.set_draining(&model_metrics)
            }
        };
        if model.closed {
            fate = f;
        }
        h.apply(&mut out, &cfg, seed, step);
        check_parity(seed, step, &conn, &model, &h);
    }
    assert!(model.closed, "seed {seed}: schedule never closed");
    assert_eq!(h.closed, fate.reason(), "seed {seed}: close reason");
    assert_same_observations(seed, &real_metrics, &model_metrics);

    (fate, any_completed)
}

/// The headline test: 256 randomized schedules, every one checked for
/// exact transition/timer/interest/dispatch/metrics parity against the
/// model, plus coverage assertions so the schedule generator cannot
/// silently stop exercising a lifecycle class.
#[test]
fn model_checked_connection_lifecycles_256_schedules() {
    let mut completed = 0u32;
    let mut evicted = 0u32;
    let mut reaped = 0u32;
    let mut bad = 0u32;
    let mut clean = 0u32;
    let mut drained = 0u32;
    let mut write_failed = 0u32;
    for i in 0..256u64 {
        let (fate, any_completed) = run_schedule(i);
        if any_completed {
            completed += 1;
        }
        match fate {
            Fate::Completed | Fate::Open => {}
            Fate::Evicted => evicted += 1,
            Fate::IdleReaped => reaped += 1,
            Fate::BadRequest => bad += 1,
            Fate::CleanEof => clean += 1,
            Fate::Drained => drained += 1,
            Fate::WriteFailed => write_failed += 1,
        }
    }
    assert!(completed > 0, "no schedule completed a request");
    assert!(evicted > 0, "no schedule exercised timer eviction");
    assert!(reaped > 0, "no schedule exercised the idle reaper");
    assert!(bad > 0, "no schedule exercised truncation → 400");
    assert!(clean > 0, "no schedule exercised clean EOF");
    assert!(drained > 0, "no schedule exercised graceful drain");
    assert!(write_failed > 0, "no schedule exercised write failure");
}

/// Deterministic spot-check: one fully scripted happy-path schedule whose
/// exact transition trace is written out by hand — a readable anchor for
/// the randomized suite above.
#[test]
fn scripted_keep_alive_lifecycle_matches_spec_trace() {
    let cfg = ConnConfig {
        read_timeout: Some(Duration::from_millis(10)),
        request_timeout: Some(Duration::from_millis(20)),
        idle_timeout: Some(Duration::from_millis(15)),
        ..ConnConfig::default()
    };
    let rec = Metrics::new();
    let mut conn = Conn::new(1, cfg);
    let mut out = Vec::new();
    conn.on_accept(&mut out);
    let mut io = OneShot {
        eintr: false,
        frag: Some(Frag::Bytes(
            b"POST /a HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi".to_vec(),
        )),
    };
    conn.on_readable(&mut io, &rec, &mut out);
    conn.on_dispatch_done(Response::xml(200, "OK", b"<ok/>".to_vec()), &rec);
    let mut sunk = Vec::new();
    let mut w = CapWriter {
        cap: usize::MAX,
        fail: false,
        sunk: &mut sunk,
    };
    conn.on_writable(&mut w, &rec, &mut out);
    let mut io2 = OneShot {
        eintr: false,
        frag: Some(Frag::Eof),
    };
    conn.on_readable(&mut io2, &rec, &mut out);
    use ConnState::*;
    assert_eq!(
        conn.transitions(),
        [
            (Idle, ReadingHead),
            (ReadingHead, ReadingBody),
            (ReadingBody, Dispatching),
            (Dispatching, Writing),
            (Writing, Idle),
            (Idle, Closing),
        ]
    );
    assert!(sunk.starts_with(b"HTTP/1.1 200 OK\r\n"));
    assert!(sunk.ends_with(b"<ok/>"));
    let snap = EngineStats::snapshot(&rec);
    assert_eq!(snap.get(Counter::ConnStateTransitions), 6);
    assert_eq!(snap.get(Counter::ServerBadRequests), 0);
    assert_eq!(snap.get(Counter::ServerTimeouts), 0);
}

// ---------------------------------------------------------------------------
// Body buffers: what a connection reads a body into, on both legs.
// ---------------------------------------------------------------------------

thread_local! {
    /// The largest single allocation this thread asked for.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

struct Tracking;

// SAFETY: every call is forwarded unchanged to `System`; tracking touches a
// const-initialised thread-local `Cell`, which neither allocates nor has a
// destructor.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.with(|l| l.set(l.get().max(layout.size())));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.with(|l| l.set(l.get().max(new_size)));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Tracking = Tracking;

fn length_request(path: &str, body: &[u8]) -> Vec<u8> {
    let head = format!(
        "POST {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    [head.as_bytes(), body].concat()
}

/// What a handler saw of one body: its bytes, the address they landed at
/// and the capacity of their buffer.
type Seen = (Vec<u8>, usize, usize);

/// Serve `reads` on one connection, one read each; `answer` sees each request's
/// path and body and returns the response's spare buffer. Returns every
/// body as dispatched.
fn serve_bodies(
    reads: &[Vec<u8>],
    answer: impl Fn(&str, Vec<u8>) -> Vec<u8> + Send + Sync,
) -> Vec<Seen> {
    let seen = Mutex::new(Vec::new());
    let handler = |head: &RequestHead, body: ReqBody| {
        let ReqBody::Full(bytes) = body else {
            panic!("no sink configured");
        };
        let at = bytes.as_ptr() as usize;
        seen.lock()
            .unwrap()
            .push((bytes.clone(), at, bytes.capacity()));
        Response {
            spare: answer(head.path(), bytes),
            ..Response::xml(200, "OK", b"<ok/>".to_vec())
        }
    };
    let rec = Metrics::new();
    let mut conn = Conn::new(1, ConnConfig::default());
    let mut out = Vec::new();
    conn.on_accept(&mut out);
    for read in reads {
        let mut io = OneShot {
            eintr: false,
            frag: Some(Frag::Bytes(read.clone())),
        };
        conn.on_readable(&mut io, &rec, &mut out);
        for action in out.drain(..) {
            if let ConnAction::Dispatch(head, body) = action {
                conn.on_dispatch_done(handler(&head, body), &rec);
            }
        }
        let mut sunk = Vec::new();
        let mut w = CapWriter {
            cap: usize::MAX,
            fail: false,
            sunk: &mut sunk,
        };
        conn.on_writable(&mut w, &rec, &mut out);
    }
    assert_eq!(conn.state(), ConnState::Idle);
    seen.into_inner().unwrap()
}

/// The buffer a handler hands back carries the connection's next body:
/// cleared, so a shorter request after a longer one is exactly its own
/// bytes, and in the very allocation returned, so a server that trades
/// buffers with its references reads without allocating.
#[test]
fn a_returned_buffer_carries_the_next_body_exactly() {
    let (long, short, third) = (vec![b'a'; 40], vec![b'b'; 5], vec![b'c'; 20]);
    let requests = [
        length_request("/long", &long),
        length_request("/short", &short),
        length_request("/third", &third),
    ];
    let returned = Mutex::new(0usize);
    let bodies = serve_bodies(&requests, |path, body| match path {
        // Back comes the body itself, still holding its 40 bytes.
        "/long" => body,
        // Back comes another allocation, larger and full of stale bytes.
        "/short" => {
            let spare = vec![b'z'; 1000];
            *returned.lock().unwrap() = spare.as_ptr() as usize;
            spare
        }
        _ => Vec::new(),
    });
    let texts: Vec<&[u8]> = bodies.iter().map(|(b, ..)| &b[..]).collect();
    assert_eq!(texts, [&long[..], &short, &third]);
    assert_eq!(bodies[1].1, bodies[0].1, "the returned body was reused");
    assert_eq!(
        bodies[2].1,
        *returned.lock().unwrap(),
        "the returned spare was reused"
    );
}

/// A body past one read's worth grows to exactly its declared length, so
/// a differential reference can keep its buffer as it is.
#[test]
fn an_honest_body_fills_its_buffer_exactly() {
    let body: Vec<u8> = (0..150_000).map(|i| b'a' + (i % 26) as u8).collect();
    let request = length_request("/big", &body);
    let reads: Vec<Vec<u8>> = request.chunks(READ_SIZE / 2).map(<[u8]>::to_vec).collect();
    let bodies = serve_bodies(&reads, |_, _| Vec::new());
    assert_eq!(bodies.len(), 1);
    let (bytes, _, capacity) = &bodies[0];
    assert_eq!(bytes, &body);
    assert_eq!(*capacity, body.len());
}

/// A fresh connection reserves at most one read's worth for a body whatever
/// its head declares: a forged `Content-Length` costs the bytes that
/// arrive, not the bytes it claims.
#[test]
fn a_forged_content_length_reserves_at_most_a_read() {
    let cfg = ConnConfig {
        max_body: usize::MAX,
        ..ConnConfig::default()
    };
    let forged = b"POST /f HTTP/1.1\r\nContent-Length: 1073741824\r\n\r\n0123456789".to_vec();
    let rec = Metrics::new();
    let mut conn = Conn::new(1, cfg);
    LARGEST.with(|l| l.set(0));
    let mut out = Vec::new();
    let mut io = OneShot {
        eintr: false,
        frag: Some(Frag::Bytes(forged)),
    };
    conn.on_readable(&mut io, &rec, &mut out);
    assert_eq!(conn.state(), ConnState::ReadingBody);
    let largest = LARGEST.with(Cell::get);
    assert!(largest <= READ_SIZE, "a {largest}-byte allocation");
}
