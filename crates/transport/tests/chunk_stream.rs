//! Streaming chunk transport: writer/reader round trips under hostile
//! fragmentation, adversarial chunked-decoder fuzz (typed errors, never a
//! panic or unbounded buffer), and the hardened response reader. The
//! decoder's bounds themselves are attacked in `cap_table.rs`.

use bsoap_transport::http::{
    parse_request_head, post_gather_vectored, read_response_limited, HttpVersion, PostScratch,
    RequestConfig,
};
use bsoap_transport::stream::{read_head, ChunkedBodyReader, ChunkedBodyWriter};
use proptest::prelude::*;
use std::io::{self, IoSlice, Read};

/// Reader handing out 1–3 bytes per call (cycling), periodically failing
/// with EINTR before consuming anything — the read-side mirror of the
/// PR-2 write dribbler. Chunk size lines split across `read()`s and
/// signal interruptions are exactly what it manufactures.
struct DribbleReader {
    data: Vec<u8>,
    pos: usize,
    calls: usize,
    /// Every `interrupt_every`-th call errors with EINTR (0 = never).
    interrupt_every: usize,
}

impl DribbleReader {
    fn new(data: Vec<u8>, interrupt_every: usize) -> Self {
        DribbleReader {
            data,
            pos: 0,
            calls: 0,
            interrupt_every,
        }
    }
}

impl Read for DribbleReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.calls += 1;
        // interrupt_every <= 1 never interrupts: an every-call EINTR would
        // (correctly) starve any retry loop forever.
        if self.interrupt_every > 1 && self.calls.is_multiple_of(self.interrupt_every) {
            return Err(io::Error::new(io::ErrorKind::Interrupted, "EINTR"));
        }
        let cap = 1 + self.calls % 3;
        let n = cap.min(buf.len()).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Encode `portions` through a ChunkedBodyWriter, returning the full wire
/// bytes (head + chunked body).
fn stream_out(portions: &[&[u8]]) -> Vec<u8> {
    let cfg = RequestConfig::loopback(HttpVersion::Http11Chunked);
    let mut wire = Vec::new();
    let mut head = Vec::new();
    let mut w = ChunkedBodyWriter::start(&mut wire, &cfg, &mut head, None).unwrap();
    for p in portions {
        w.write_portion(&[IoSlice::new(p)]).unwrap();
    }
    w.finish().unwrap();
    wire
}

/// Decode a chunked body (already past the head) collecting all slices.
fn decode_all(body: &[u8], capacity: usize, max_body: usize) -> io::Result<Vec<u8>> {
    let mut r = ChunkedBodyReader::with_capacity(
        DribbleReader::new(body.to_vec(), 0),
        Vec::new(),
        capacity,
        max_body,
    );
    let mut out = Vec::new();
    while let Some(s) = r.next_slice()? {
        out.extend_from_slice(s);
    }
    Ok(out)
}

#[test]
fn writer_reader_round_trip() {
    let portions: &[&[u8]] = &[b"<a>1</a>", b"<b>22</b>", b"", b"<c>333</c>"];
    let wire = stream_out(portions);
    // Split head from body the way a streaming server would.
    let mut cursor = io::Cursor::new(wire);
    let (head, leftover) = read_head(&mut cursor, 1 << 16).unwrap().unwrap();
    let parsed = parse_request_head(&head).unwrap();
    assert_eq!(parsed.method, "POST");
    assert_eq!(
        parsed.header("transfer-encoding").map(str::to_owned),
        Some("chunked".to_owned())
    );
    let mut r = ChunkedBodyReader::with_capacity(cursor, leftover, 4096, usize::MAX);
    let mut got = Vec::new();
    while let Some(s) = r.next_slice().unwrap() {
        got.extend_from_slice(s);
    }
    assert_eq!(got, b"<a>1</a><b>22</b><c>333</c>".to_vec());
    assert_eq!(r.body_bytes(), got.len());
}

#[test]
fn wire_format_matches_buffered_encoder() {
    // The streaming writer must be byte-identical to what the buffered
    // post_gather_vectored path emits for the same portion list.
    let portions: &[&[u8]] = &[b"hello", b" ", b"world"];
    let wire = stream_out(portions);
    let cfg = RequestConfig::loopback(HttpVersion::Http11Chunked);
    let mut expect = Vec::new();
    let slices: Vec<IoSlice<'_>> = portions.iter().map(|p| IoSlice::new(p)).collect();
    post_gather_vectored(&mut expect, &cfg, &slices, &mut PostScratch::default()).unwrap();
    assert_eq!(wire, expect);
}

#[test]
fn reader_survives_dribbled_reads_with_eintr() {
    // Size lines split across 1–3-byte reads with periodic EINTR must
    // reassemble, not error (the satellite-2 regression).
    let body = b"4\r\nwiki\r\n10\r\n0123456789abcdef\r\n0\r\n\r\n".to_vec();
    for interrupt_every in [0usize, 2, 3, 5] {
        let mut r = ChunkedBodyReader::with_capacity(
            DribbleReader::new(body.clone(), interrupt_every),
            Vec::new(),
            512,
            usize::MAX,
        );
        let mut got = Vec::new();
        while let Some(s) = r.next_slice().unwrap() {
            got.extend_from_slice(s);
        }
        assert_eq!(
            got,
            b"wiki0123456789abcdef".to_vec(),
            "ie={interrupt_every}"
        );
    }
}

#[test]
fn response_size_line_split_across_reads() {
    // read_response_limited over a dribbling stream: the chunk-size line
    // arrives one byte at a time and EINTR fires periodically.
    let resp =
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nb\r\nhello world\r\n0\r\n\r\n";
    for interrupt_every in [0usize, 2, 7] {
        let mut stream = DribbleReader::new(resp.to_vec(), interrupt_every);
        let (status, body) = read_response_limited(&mut stream, 1 << 16, 16).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, b"hello world".to_vec(), "ie={interrupt_every}");
    }
}

#[test]
fn response_caps_enforced_on_chunked_and_length_framed() {
    let chunked = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nff\r\n".to_vec();
    let mut stream = io::Cursor::new(chunked);
    let err = read_response_limited(&mut stream, 1 << 16, 16).unwrap_err();
    assert!(err.to_string().contains("size cap"), "{err}");

    let framed = b"HTTP/1.1 200 OK\r\nContent-Length: 100000\r\n\r\n".to_vec();
    let mut stream = io::Cursor::new(framed);
    let err = read_response_limited(&mut stream, 1 << 16, 16).unwrap_err();
    assert!(err.to_string().contains("size cap"), "{err}");
}

#[test]
fn fixed_buffer_never_grows() {
    // A body far larger than the buffer streams through it.
    let payload = vec![b'x'; 1 << 16];
    let mut body = format!("{:x}\r\n", payload.len()).into_bytes();
    body.extend_from_slice(&payload);
    body.extend_from_slice(b"\r\n0\r\n\r\n");
    let mut r =
        ChunkedBodyReader::with_capacity(io::Cursor::new(body), Vec::new(), 1024, usize::MAX);
    let cap = r.capacity();
    let mut total = 0usize;
    while let Some(s) = r.next_slice().unwrap() {
        assert!(s.len() <= cap, "slice exceeds the fixed buffer");
        total += s.len();
    }
    assert_eq!(total, 1 << 16);
    assert_eq!(r.capacity(), cap, "buffer grew");
}

// ---------------------------------------------------------------------
// Adversarial fuzz: typed error or clean parse, never a panic or hang.
// ---------------------------------------------------------------------

fn decode_adversarial(body: &[u8]) -> io::Result<Vec<u8>> {
    decode_all(body, 512, 1 << 20)
}

#[test]
fn truncated_chunk_header_is_typed_error() {
    for body in [
        &b"4"[..],         // size line cut mid-digit
        &b"4\r"[..],       // cut between CR and LF
        &b"4\r\nwi"[..],   // cut inside data
        &b"4\r\nwiki"[..], // cut before data CRLF
        &b"4\r\nwiki\r"[..],
        &b""[..], // nothing at all
    ] {
        let err = decode_adversarial(body).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{body:?}");
    }
}

#[test]
fn missing_final_zero_chunk_is_typed_error() {
    let err = decode_adversarial(b"4\r\nwiki\r\n").unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
}

#[test]
fn garbage_size_lines_are_typed_errors() {
    for body in [
        &b"zz\r\nxx\r\n0\r\n\r\n"[..],   // non-hex
        &b"\r\nxx\r\n0\r\n\r\n"[..],     // empty size
        &b"-4\r\nxxxx\r\n0\r\n\r\n"[..], // negative
    ] {
        let err = decode_adversarial(body).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{body:?}");
    }
}

#[test]
fn garbage_trailers_skipped_or_rejected_cleanly() {
    // Trailer lines are skipped (clean parse)...
    let got = decode_adversarial(b"4\r\nwiki\r\n0\r\nX-Junk: !!!\r\nMore junk\r\n\r\n").unwrap();
    assert_eq!(got, b"wiki".to_vec());
    // ...but a trailer that never terminates is a typed error.
    let mut body = b"4\r\nwiki\r\n0\r\n".to_vec();
    body.extend_from_slice(&vec![b'j'; 4096]);
    let err = decode_adversarial(&body).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    // ...and EOF inside the trailer section is a typed error too.
    let err = decode_adversarial(b"4\r\nwiki\r\n0\r\nX-Junk: v\r\n").unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
}

#[test]
fn read_head_returns_leftover_and_respects_cap() {
    let mut data = b"POST /s HTTP/1.1\r\nHost: x\r\n\r\nBODYBYTES".to_vec();
    let mut cursor = io::Cursor::new(data.clone());
    let (head, leftover) = read_head(&mut cursor, 1 << 16).unwrap().unwrap();
    assert!(head.ends_with(b"\r\n\r\n"));
    // The dribble-free Cursor hands everything over in one read, so the
    // body lands in leftover.
    let mut rest = leftover;
    let mut tail = Vec::new();
    cursor.read_to_end(&mut tail).unwrap();
    rest.extend_from_slice(&tail);
    assert_eq!(rest, b"BODYBYTES".to_vec());

    // Cap: a head that never terminates errors instead of buffering.
    data = vec![b'h'; 4096];
    let err = read_head(&mut io::Cursor::new(data), 128).unwrap_err();
    assert!(err.to_string().contains("size cap"), "{err}");

    // Clean EOF before any byte: keep-alive close.
    assert!(read_head(&mut io::Cursor::new(Vec::new()), 128)
        .unwrap()
        .is_none());
}

proptest! {
    /// Any portion list, any fragmentation, any EINTR cadence: the
    /// decoded body equals the concatenated portions.
    #[test]
    fn round_trip_any_portions(
        portions in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..200), 0..12),
        interrupt_every in 0usize..5,
        capacity in 300usize..2048,
    ) {
        let refs: Vec<&[u8]> = portions.iter().map(|p| p.as_slice()).collect();
        let wire = stream_out(&refs);
        let mut cursor = DribbleReader::new(wire, interrupt_every);
        let (_, leftover) = read_head(&mut cursor, 1 << 16).unwrap().unwrap();
        let mut r = ChunkedBodyReader::with_capacity(cursor, leftover, capacity, usize::MAX);
        let mut got = Vec::new();
        while let Some(s) = r.next_slice().unwrap() {
            got.extend_from_slice(s);
        }
        let expect: Vec<u8> = portions.concat();
        prop_assert_eq!(got, expect);
    }

    /// Arbitrary garbage bytes never panic or hang the decoder: either a
    /// clean parse or a typed error.
    #[test]
    fn arbitrary_bytes_never_panic(body in proptest::collection::vec(any::<u8>(), 0..600)) {
        let _ = decode_adversarial(&body);
    }

    /// Valid chunked streams with a corrupted byte: never a panic; the
    /// result is either an error or a (possibly different) clean body.
    #[test]
    fn single_byte_corruption_never_panics(
        payload in proptest::collection::vec(any::<u8>(), 1..100),
        flip_at in any::<usize>(),
        flip_to in any::<u8>(),
    ) {
        let refs: Vec<&[u8]> = vec![payload.as_slice()];
        let wire = stream_out(&refs);
        let head_end = wire.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
        let mut body = wire[head_end..].to_vec();
        let at = flip_at % body.len();
        body[at] = flip_to;
        let _ = decode_adversarial(&body);
    }
}
