//! One table of request-framing bounds, each attacked by one over-by-one
//! row, through every consumer of the one decoder.
//!
//! A row is a request that sits exactly *at* a bound (accepted, body
//! delivered intact) and its twin one step *past* it (refused with one
//! typed [`HttpError`]). Every row runs through:
//!
//! * the sans-io [`RequestParser`] (and so the [`BodyDecoder`]) directly,
//! * the blocking [`RequestReader`],
//! * [`ChunkedBodyReader`], for rows whose bound is inside a chunked body,
//! * a [`TestServer`] — where the refusal must be a `400` whose body is
//!   that error's text, one `ServerBadRequests` tick, then a closed
//!   connection.
//!
//! All consumers must agree on the variant *and* the message: the bound is
//! stated once, so it cannot hold on one path and not on another.
//!
//! The reply side has its own, shorter table (`reply_rows`): the three
//! bounds a client puts on what a server may send back, through every
//! holder of the one client connection — [`ClientConn`] itself,
//! [`HttpPoolClient::call`] and `RpcClient::call` — against a scripted
//! peer.
//!
//! Both tables end in the same [`framing_rows`]: one head grammar and one
//! framing rule read requests and replies alike, so a head the server
//! refuses is refused by the client too, with the same typed error.

use bsoap_obs::{Counter, Metrics};
use bsoap_transport::http::{
    HttpError, HttpVersion, Parsed, RequestConfig, RequestParser, RequestReader, MAX_SIZE_LINE,
    MAX_TRAILERS,
};
use bsoap_transport::{
    ChunkedBodyReader, ClientConn, HttpPoolClient, PoolConfig, ServerMode, ServerOptions,
    TestServer,
};
use std::io::{self, IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;

const MAX_HEAD: usize = 256;
const MAX_BODY: usize = 64;

struct Row {
    name: &'static str,
    /// At the bound: accepted, and decodes to this body.
    ok: Vec<u8>,
    ok_body: Vec<u8>,
    /// One past the bound: refused with `err`.
    bad: Vec<u8>,
    err: HttpError,
    /// Bytes a hostile peer keeps sending after `bad` (they must change
    /// nothing: the refusal is already decided).
    flood: usize,
}

const CHUNKED: &[u8] = b"POST /s HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";

/// The start lines the two tables share their framing helpers over.
const REQUEST: &str = "POST /s HTTP/1.1";
const REPLY: &str = "HTTP/1.1 200 OK";

fn chunked(body: &[u8]) -> Vec<u8> {
    [CHUNKED, body].concat()
}

fn with_length(start: &str, declared: usize, body: &[u8]) -> Vec<u8> {
    let head = format!("{start}\r\nContent-Length: {declared}\r\n\r\n");
    [head.as_bytes(), body].concat()
}

/// A bodiless message whose head is exactly `len` bytes.
fn head_of(start: &str, len: usize) -> Vec<u8> {
    let head = |pad: &str| format!("{start}\r\nX-Pad: {pad}\r\nContent-Length: 0\r\n\r\n");
    head(&"p".repeat(len - head("").len())).into_bytes()
}

/// `5;xxx…\r\nhello\r\n0\r\n\r\n` with a size line of exactly `len` bytes.
fn size_line_of(len: usize) -> Vec<u8> {
    chunked(format!("5;{}\r\nhello\r\n0\r\n\r\n", "x".repeat(len - 2)).as_bytes())
}

/// A chunked body whose trailer section (blank line included) is exactly
/// `len` bytes.
fn trailers_of(len: usize) -> Vec<u8> {
    let line = format!("X-T: {}\r\n", "t".repeat(len - 2 - 7));
    chunked(format!("5\r\nhello\r\n0\r\n{line}\r\n").as_bytes())
}

/// A message opening on `start` with these header lines, then `body`.
fn framed(start: &str, headers: &str, body: &[u8]) -> Vec<u8> {
    [format!("{start}\r\n{headers}\r\n").as_bytes(), body].concat()
}

const SAME_LENGTHS: &str = "Content-Length: 5\r\ncontent-length: 5\r\n";
const OTHER_LENGTHS: &str = "Content-Length: 6\r\nContent-Length: 5\r\n";
const CHUNKED_TWICE: &str = "Transfer-Encoding: chunked\r\ntransfer-encoding: Chunked\r\n";
const CHUNKED_GZIP: &str = "Transfer-Encoding: chunked\r\nTransfer-Encoding: gzip\r\n";

/// `(name, at the rule, one byte past it, the refusal)` for the head
/// grammar and framing rule the one head parser applies on both sides. A
/// request's table adds the bodiless methods: only a head with no framing
/// header at all is read as an empty body, so their broken framing is
/// refused as a POST's is.
fn framing_rows(start: &str) -> Vec<(&'static str, Vec<u8>, Vec<u8>, HttpError)> {
    let chunks = b"5\r\nhello\r\n0\r\n\r\n";
    let conflict = HttpError::BadFraming("conflicting content-length");
    let unsupported = HttpError::BadFraming("unsupported transfer-encoding");
    let mut rows = vec![
        (
            "Content-Length values that differ",
            framed(start, SAME_LENGTHS, b"hello"),
            framed(start, OTHER_LENGTHS, b"hello"),
            conflict.clone(),
        ),
        (
            "a chunked coding followed by another",
            framed(start, CHUNKED_TWICE, chunks),
            framed(start, CHUNKED_GZIP, chunks),
            unsupported.clone(),
        ),
        (
            "a header line without a colon",
            framed(start, "X-A: b\r\nContent-Length: 5\r\n", b"hello"),
            framed(start, "X-A b\r\nContent-Length: 5\r\n", b"hello"),
            HttpError::BadHead("header missing colon"),
        ),
        (
            "only CRLF ends a header line",
            framed(start, "X-A: b\r\nContent-Length: 5\r\n", b"hello"),
            framed(start, "X-A: b\nContent-Length: 5\r\n", b"hello"),
            HttpError::BadFraming("neither content-length nor chunked"),
        ),
    ];
    if start == REQUEST {
        let (get, head) = ("GET /s HTTP/1.1", "HEAD /s HTTP/1.1");
        let bodiless = [
            (
                "a GET's Content-Length values that differ",
                get,
                SAME_LENGTHS,
                OTHER_LENGTHS,
            ),
            (
                "a HEAD's Content-Length values that differ",
                head,
                SAME_LENGTHS,
                OTHER_LENGTHS,
            ),
            (
                "a GET's chunked coding followed by another",
                get,
                CHUNKED_TWICE,
                CHUNKED_GZIP,
            ),
            (
                "a HEAD's chunked coding followed by another",
                head,
                CHUNKED_TWICE,
                CHUNKED_GZIP,
            ),
        ];
        for (name, start, ok, bad) in bodiless {
            let (body, err): (&[u8], _) = match ok {
                SAME_LENGTHS => (b"hello", conflict.clone()),
                _ => (chunks, unsupported.clone()),
            };
            rows.push((name, framed(start, ok, body), framed(start, bad, body), err));
        }
    }
    rows
}

fn rows() -> Vec<Row> {
    let full = vec![b'b'; MAX_BODY];
    let framing = framing_rows(REQUEST)
        .into_iter()
        .map(|(name, ok, bad, err)| Row {
            name,
            ok,
            ok_body: b"hello".to_vec(),
            bad,
            err,
            flood: 0,
        });
    let row = |name, ok: Vec<u8>, ok_body: &[u8], bad: Vec<u8>, err| Row {
        name,
        ok,
        ok_body: ok_body.to_vec(),
        bad,
        err,
        flood: 0,
    };
    vec![
        row(
            "max_head",
            head_of(REQUEST, MAX_HEAD),
            b"",
            head_of(REQUEST, MAX_HEAD + 1),
            HttpError::TooLarge("request head"),
        ),
        row(
            "max_body via Content-Length",
            with_length(REQUEST, MAX_BODY, &full),
            &full,
            with_length(REQUEST, MAX_BODY + 1, &[]),
            HttpError::TooLarge("declared content-length"),
        ),
        row(
            "max_body accumulated over chunks",
            chunked(format!("20\r\n{0}\r\n20\r\n{0}\r\n0\r\n\r\n", "c".repeat(32)).as_bytes()),
            &[b'c'; 64],
            chunked(format!("20\r\n{0}\r\n21\r\n", "c".repeat(32)).as_bytes()),
            HttpError::TooLarge("chunked body"),
        ),
        Row {
            // The cap test must not overflow: `seen + size` would.
            flood: 100_000,
            ..row(
                "chunk size near usize::MAX after a first chunk",
                chunked(format!("1\r\nA\r\n3f\r\n{}\r\n0\r\n\r\n", "c".repeat(63)).as_bytes()),
                &[&b"A"[..], &[b'c'; 63]].concat(),
                chunked(b"1\r\nA\r\nffffffffffffffff\r\n"),
                HttpError::TooLarge("chunked body"),
            )
        },
        row(
            "MAX_SIZE_LINE",
            size_line_of(MAX_SIZE_LINE),
            b"hello",
            size_line_of(MAX_SIZE_LINE + 1),
            HttpError::TooLarge("chunk size line"),
        ),
        row(
            "a size line that never ends",
            size_line_of(MAX_SIZE_LINE),
            b"hello",
            chunked(&[b'1'; 10_000]),
            HttpError::TooLarge("chunk size line"),
        ),
        row(
            "trailer section length",
            trailers_of(MAX_TRAILERS),
            b"hello",
            trailers_of(MAX_TRAILERS + 1),
            HttpError::TooLarge("trailer section"),
        ),
        row(
            "a trailer line that never ends",
            trailers_of(MAX_TRAILERS),
            b"hello",
            chunked(format!("5\r\nhello\r\n0\r\n{}", "j".repeat(10_000)).as_bytes()),
            HttpError::TooLarge("trailer section"),
        ),
        row(
            "chunk size: extension yes, whitespace no",
            chunked(b"5;x\r\nhello\r\n0\r\n\r\n"),
            b"hello",
            chunked(b"5 ;x\r\nhello\r\n0\r\n\r\n"),
            HttpError::BadChunk("bad chunk size line"),
        ),
        row(
            "chunk size: hex digits only",
            chunked(b"A\r\n0123456789\r\n0\r\n\r\n"),
            b"0123456789",
            chunked(b"zz\r\nab\r\n0\r\n\r\n"),
            HttpError::BadChunk("bad chunk size line"),
        ),
        row(
            "CRLF after chunk data",
            chunked(b"5\r\nhello\r\n0\r\n\r\n"),
            b"hello",
            chunked(b"5\r\nhelloXX0\r\n\r\n"),
            HttpError::BadChunk("missing CRLF after chunk data"),
        ),
        row(
            "EOF in head",
            with_length(REQUEST, 0, &[]),
            b"",
            b"POST /s HTTP/1.1\r\nContent-Le".to_vec(),
            HttpError::BadHead("EOF inside request head"),
        ),
        row(
            "EOF in length-framed body",
            with_length(REQUEST, 5, b"hello"),
            b"hello",
            with_length(REQUEST, 5, b"hell"),
            HttpError::BadFraming("EOF inside length-framed body"),
        ),
        row(
            "EOF in chunked body",
            chunked(b"5\r\nhello\r\n0\r\n\r\n"),
            b"hello",
            chunked(b"5\r\nhello\r\n0\r\n"),
            HttpError::BadChunk("EOF inside chunked body"),
        ),
    ]
    .into_iter()
    .chain(framing)
    .collect()
}

fn typed(e: io::Error) -> HttpError {
    assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
    e.get_ref()
        .and_then(|inner| inner.downcast_ref::<HttpError>())
        .unwrap_or_else(|| panic!("untyped error: {e}"))
        .clone()
}

/// The sans-io parser over the whole wire as one window, then EOF.
fn through_parser(wire: &[u8]) -> Result<Vec<u8>, HttpError> {
    let mut parser = RequestParser::new(MAX_HEAD, MAX_BODY);
    let mut body = Vec::new();
    let mut at = 0;
    loop {
        let (n, parsed) = parser.step(&wire[at..])?;
        match parsed {
            Parsed::Head(..) => {}
            Parsed::Body(range) => body.extend_from_slice(&wire[at..][range]),
            Parsed::Done => return Ok(body),
            Parsed::Starved => return Err(parser.eof_error()),
        }
        at += n;
    }
}

fn through_request_reader(wire: &[u8]) -> Result<Vec<u8>, HttpError> {
    match RequestReader::with_limits(wire, MAX_HEAD, MAX_BODY).next_request() {
        Ok(Some((_, body))) => Ok(body),
        Ok(None) => panic!("no request in a non-empty wire"),
        Err(e) => Err(typed(e)),
    }
}

/// `ChunkedBodyReader` over what follows the head, through the smallest
/// buffer it allows itself.
fn through_chunked_body_reader(wire: &[u8]) -> Result<Vec<u8>, HttpError> {
    let mut reader =
        ChunkedBodyReader::with_capacity(&wire[CHUNKED.len()..], Vec::new(), 0, MAX_BODY);
    let mut body = Vec::new();
    loop {
        match reader.next_slice() {
            Ok(Some(slice)) => body.extend_from_slice(slice),
            Ok(None) => return Ok(body),
            Err(e) => return Err(typed(e)),
        }
    }
}

#[test]
fn every_bound_holds_at_the_limit_and_breaks_one_past_it_in_memory() {
    type Consumer = fn(&[u8]) -> Result<Vec<u8>, HttpError>;
    let consumers: [(&str, Consumer); 2] = [
        ("RequestParser", through_parser),
        ("RequestReader", through_request_reader),
    ];
    for row in rows() {
        let mut bad = row.bad.clone();
        bad.extend(std::iter::repeat_n(b'f', row.flood));
        for (who, consume) in consumers {
            assert_eq!(
                consume(&row.ok).as_ref(),
                Ok(&row.ok_body),
                "{who}: {} at the limit",
                row.name
            );
            assert_eq!(
                consume(&bad),
                Err(row.err.clone()),
                "{who}: {} past it",
                row.name
            );
        }
        let in_chunked_body = row.bad.starts_with(CHUNKED) && row.ok.starts_with(CHUNKED);
        if in_chunked_body {
            assert_eq!(
                through_chunked_body_reader(&row.ok).as_ref(),
                Ok(&row.ok_body),
                "ChunkedBodyReader: {} at the limit",
                row.name
            );
            assert_eq!(
                through_chunked_body_reader(&bad),
                Err(row.err.clone()),
                "ChunkedBodyReader: {} past it",
                row.name
            );
        }
    }
}

/// Send `wire` (then our FIN, so a truncated request reads as EOF rather
/// than as a stall) and return everything the server answers until it
/// closes. A `flood` is sent only once the answer ends with `tail`: the
/// refusal must not wait for it, and unread flood bytes turn the server's
/// close into a reset that could otherwise race the answer.
fn exchange(server: &TestServer, wire: &[u8], flood: usize, tail: &[u8]) -> Vec<u8> {
    let mut c = TcpStream::connect(server.addr()).unwrap();
    c.write_all(wire).unwrap();
    let mut answer = Vec::new();
    if flood > 0 {
        let mut buf = [0u8; 1024];
        while !answer.ends_with(tail) {
            let n = c.read(&mut buf).unwrap();
            assert!(n > 0, "closed before refusing");
            answer.extend_from_slice(&buf[..n]);
        }
        let _ = c.write_all(&vec![b'f'; flood]);
    }
    let _ = c.shutdown(Shutdown::Write);
    let _ = c.read_to_end(&mut answer);
    answer
}

#[test]
fn every_bound_holds_on_the_server() {
    for row in rows() {
        let metrics = Metrics::shared();
        let server = TestServer::spawn_with_metrics(
            ServerMode::Collect,
            ServerOptions {
                max_head_bytes: MAX_HEAD,
                max_body_bytes: MAX_BODY,
                ..ServerOptions::default()
            },
            Arc::clone(&metrics),
        )
        .unwrap();
        let what = row.name;

        let answer = exchange(&server, &row.ok, 0, b"");
        assert!(
            answer.starts_with(b"HTTP/1.1 200 OK\r\n"),
            "{what} at the limit"
        );

        let tail = format!("\r\n\r\n{}", io::Error::from(row.err.clone()));
        let answer = exchange(&server, &row.bad, row.flood, tail.as_bytes());
        assert!(
            answer.starts_with(b"HTTP/1.1 400 Bad Request\r\n")
                && answer.ends_with(tail.as_bytes()),
            "{what} past it: {:?}",
            String::from_utf8_lossy(&answer)
        );

        let collected = server.stop_collecting();
        assert_eq!(
            collected.len(),
            1,
            "{what}: only the at-limit request is served"
        );
        assert_eq!(collected[0].body, row.ok_body, "{what}");
        assert_eq!(
            metrics.snapshot().get(Counter::ServerBadRequests),
            1,
            "{what}"
        );
    }
}

struct ReplyRow {
    name: &'static str,
    /// At the bound: accepted, and decodes to this body.
    ok: Vec<u8>,
    ok_body: Vec<u8>,
    /// One past the bound: refused with `err`.
    bad: Vec<u8>,
    err: HttpError,
}

fn reply_chunked(body: &str) -> Vec<u8> {
    format!("{REPLY}\r\nTransfer-Encoding: chunked\r\n\r\n{body}").into_bytes()
}

fn reply_rows() -> Vec<ReplyRow> {
    let full = vec![b'b'; MAX_BODY];
    let framing = framing_rows(REPLY)
        .into_iter()
        .map(|(name, ok, bad, err)| ReplyRow {
            name,
            ok,
            ok_body: b"hello".to_vec(),
            bad,
            err,
        });
    vec![
        ReplyRow {
            name: "max_head",
            ok: head_of(REPLY, MAX_HEAD),
            ok_body: Vec::new(),
            bad: head_of(REPLY, MAX_HEAD + 1),
            err: HttpError::TooLarge("response head"),
        },
        ReplyRow {
            name: "max_body via Content-Length",
            ok: with_length(REPLY, MAX_BODY, &full),
            ok_body: full,
            bad: with_length(REPLY, MAX_BODY + 1, &[]),
            err: HttpError::TooLarge("declared content-length"),
        },
        ReplyRow {
            name: "max_body accumulated over chunks",
            ok: reply_chunked(&format!(
                "20\r\n{0}\r\n20\r\n{0}\r\n0\r\n\r\n",
                "c".repeat(32)
            )),
            ok_body: vec![b'c'; 64],
            bad: reply_chunked(&format!("20\r\n{0}\r\n21\r\n", "c".repeat(32))),
            err: HttpError::TooLarge("chunked body"),
        },
    ]
    .into_iter()
    .chain(framing)
    .collect()
}

/// A peer that accepts one connection and answers each request on it with
/// `reply`, until the client hangs up.
fn scripted_peer(reply: Vec<u8>) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    let peer = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut requests = RequestReader::new(stream.try_clone().unwrap());
        while let Ok(Some(_)) = requests.next_request() {
            // A client that refused the reply may already be gone.
            if stream.write_all(&reply).is_err() {
                break;
            }
        }
    });
    (addr, peer)
}

/// The accepted reply's body — `None` where the holder hands back decoded
/// values rather than bytes — or the typed refusal.
type ReplyConsumer = fn(SocketAddr) -> Result<Option<Vec<u8>>, HttpError>;

fn through_client_conn(addr: SocketAddr) -> Result<Option<Vec<u8>>, HttpError> {
    let mut conn = ClientConn::connect(addr, None).unwrap();
    let cfg = RequestConfig::loopback(HttpVersion::Http11Length);
    conn.post(&cfg, &[IoSlice::new(b"<q/>")]).unwrap();
    let reply = conn.read_reply(MAX_HEAD, MAX_BODY);
    reply.map(|(_, _, body)| Some(body)).map_err(typed)
}

/// Also holds the pool to its half of the bargain: an accepted reply idles
/// the connection, a refused one leaves nothing behind to be reused.
fn through_pool_client(addr: SocketAddr) -> Result<Option<Vec<u8>>, HttpError> {
    let cfg = RequestConfig::loopback(HttpVersion::Http11Length);
    let mut client = HttpPoolClient::new(addr, cfg, PoolConfig::default());
    client.set_response_caps(MAX_HEAD, MAX_BODY);
    let reply = client.call(&[IoSlice::new(b"<q/>")]);
    assert_eq!(client.pool().idle_count(), usize::from(reply.is_ok()));
    assert_eq!(client.pool().stats().created, 1, "a refusal is not retried");
    reply.map(|r| Some(r.body)).map_err(typed)
}

/// With no response declared, an accepted reply is an empty value list.
fn through_rpc_client(addr: SocketAddr) -> Result<Option<Vec<u8>>, HttpError> {
    use bsoap::rpc::{RpcClient, RpcError};
    use bsoap::{wsdl::ServiceDesc, EngineConfig, OpDesc, TypeDesc, Value};
    let kind = TypeDesc::Scalar(bsoap::convert::ScalarKind::Int);
    let service = ServiceDesc {
        name: "Caps".into(),
        namespace: "urn:caps".into(),
        endpoint: "http://peer/caps".into(),
        operations: vec![OpDesc::single("q", "urn:caps", "v", kind)],
    };
    let config = EngineConfig::paper_default().with_http_caps(MAX_HEAD, MAX_BODY);
    let mut rpc = RpcClient::connect(service, addr, config).unwrap();
    match rpc.call("q", &[Value::Int(1)]) {
        Ok(values) => {
            assert!(values.is_empty());
            Ok(None)
        }
        Err(RpcError::Io(e)) => Err(typed(e)),
        Err(other) => panic!("untyped refusal: {other:?}"),
    }
}

#[test]
fn every_reply_bound_holds_through_every_holder_of_the_connection() {
    let consumers: [(&str, ReplyConsumer); 3] = [
        ("ClientConn", through_client_conn),
        ("HttpPoolClient::call", through_pool_client),
        ("RpcClient::call", through_rpc_client),
    ];
    for row in reply_rows() {
        for (who, consume) in consumers {
            let against = |reply: &[u8]| {
                let (addr, peer) = scripted_peer(reply.to_vec());
                let got = consume(addr);
                peer.join().unwrap();
                got
            };
            match against(&row.ok) {
                Ok(body) => assert!(
                    body.is_none_or(|b| b == row.ok_body),
                    "{who}: {} at the limit decoded a different body",
                    row.name
                ),
                Err(e) => panic!("{who}: {} at the limit: {e}", row.name),
            }
            assert_eq!(
                against(&row.bad),
                Err(row.err.clone()),
                "{who}: {} past it",
                row.name
            );
        }
    }
}

/// The default row: a pool client nobody configured holds the reply caps
/// `ServerOptions::default()` states (1 MiB of head, 64 MiB of body) and
/// refuses past them with the typed error `ClientConn::read_reply` gives
/// under the same figures. (A body *at* 64 MiB is not sent: the
/// declared-length row above covers acceptance at the limit.)
#[test]
fn an_unconfigured_pool_client_holds_the_default_reply_bounds() {
    let defaults = ServerOptions::default();
    let (max_head, max_body) = (defaults.max_head_bytes, defaults.max_body_bytes);
    let cfg = RequestConfig::loopback(HttpVersion::Http11Length);
    let rows = [
        ("head at the limit", head_of(REPLY, max_head), None),
        (
            "head past it",
            head_of(REPLY, max_head + 1),
            Some(HttpError::TooLarge("response head")),
        ),
        (
            "declared body past it",
            with_length(REPLY, max_body + 1, &[]),
            Some(HttpError::TooLarge("declared content-length")),
        ),
    ];
    for (name, reply, refusal) in rows {
        let want = refusal.map_or(Ok(()), Err);

        let (addr, peer) = scripted_peer(reply.clone());
        let client = HttpPoolClient::new(addr, cfg.clone(), PoolConfig::default());
        let got = client.call(&[IoSlice::new(b"<q/>")]);
        drop(client);
        peer.join().unwrap();
        assert_eq!(got.map(drop).map_err(typed), want, "pool client: {name}");

        let (addr, peer) = scripted_peer(reply);
        let mut conn = ClientConn::connect(addr, None).unwrap();
        conn.post(&cfg, &[IoSlice::new(b"<q/>")]).unwrap();
        let got = conn.read_reply(max_head, max_body).map(drop);
        drop(conn);
        peer.join().unwrap();
        assert_eq!(got.map_err(typed), want, "ClientConn: {name}");
    }
}
