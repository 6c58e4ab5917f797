//! What a warm send and a warm differential decode allocate: a constant
//! few for the send on either lane, whatever the dirty count, and nothing
//! for the decode on either lane. Retained scratch (the DUT's dirty list
//! and run-compare hits, the bin1 reference's changed-slot list, the XML
//! walk's staged rewrites) is what keeps it so; a per-call `Vec` sneaking
//! back into either path fails here before it shows in a profile. What a
//! First-Time Send allocates: chunks for the bytes, nothing per element —
//! its framing is compiled once per build (DESIGN §3.2), so a tag formatted
//! per element fails here too. What a streamed element allocates on the
//! receiving side: nothing once the first one taught the skeleton, so an
//! element sent back through the oracle's `Parser` fails here. A warm
//! decode of struct elements — every leaf re-read, ints changing width —
//! allocates the one re-read string and nothing per number. A warm decode
//! of a body the server owns allocates nothing either, and keeps the body
//! by swap: a whole-message copy into the reference sneaking back fails
//! the two-buffer alternation. The sends
//! run under the pinned `Exact2004` kernel, because a double conversion
//! allocates nothing under either kernel — a test of its own counts that.
//!
//! What the server keeps: the same counter also tracks live bytes, so a
//! reference's `retained_bytes` is pinned to what the allocator holds for
//! it, 32 `cold_mix`-shaped operations through a `Service` hold a bounded
//! number of bytes per cell, and a built template holds its message and
//! the chunk reserve, not a whole idle chunk.
//!
//! What a warm streamed POST allocates: its head renders from the
//! client's own configuration, so a per-call copy of the path, host and
//! SOAPAction fails here. What a metrics registry holds: one atomic per
//! counter, so a counter sharded across cache lines fails here.
//!
//! The counters are the calling thread's own, and each test runs on one
//! thread: nothing else in this binary allocates on it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

#[path = "../crates/convert/tests/corpus/mod.rs"]
mod corpus;

use bsoap::convert::{FloatFormatter, ScalarKind};
use bsoap::deser::{DiffDeserializer, DiffOutcome, LaneDeserializer, StreamingDeserializer};
use bsoap::server::Service;
use bsoap::{
    mio, EngineConfig, MessageTemplate, OpDesc, OverlaySender, ParamDesc, SendTier, StoreKey,
    TemplateKey, TemplateStore, TypeDesc, Value, WireFormat,
};

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

/// Add `bytes` to this thread's live count.
fn live_add(bytes: isize) {
    LIVE.with(|n| n.set(n.get() + bytes));
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; counting touches
// const-initialised thread-local `Cell`s, which neither allocate nor have
// a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        live_add(layout.size() as isize);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live_add(-(layout.size() as isize));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        live_add(new_size as isize - layout.size() as isize);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `f`'s result and how many allocations this thread made running it.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// `f`'s result and the bytes this thread allocated running it that are
/// still live when it returns — what the result holds.
fn held<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.with(Cell::get);
    let out = f();
    let held = LIVE.with(Cell::get) - before;
    (
        out,
        usize::try_from(held).expect("freed more than it allocated"),
    )
}

/// Leaf `i`'s value in `generation`: four integer digits and an odd
/// multiple of 1/64 (exactly six decimals), so every leaf prints 11
/// characters in every generation and a rewrite patches in place on the
/// XML lane too.
fn fixed_width(i: usize, generation: usize) -> f64 {
    debug_assert!(i < 9000 && generation < 32);
    1000.0 + i as f64 + (2 * generation + 1) as f64 / 64.0
}

#[test]
fn a_warm_send_allocates_a_constant_few_and_a_warm_decode_nothing() {
    const LEAVES: usize = 2_000;
    let op = OpDesc::single(
        "send",
        "urn:bench",
        "arr",
        TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double)),
    );
    // Every message of the schedule, built before anything is counted: a
    // first-time send, a warm-up at the largest dirty count (it sizes the
    // retained scratch on both sides), then the three measured ones.
    let mut values: Vec<f64> = (0..LEAVES).map(|i| fixed_width(i, 0)).collect();
    let mut schedule = vec![(0, vec![Value::DoubleArray(values.clone())])];
    for (round, dirty) in [500, 500, 5, 50, 500].into_iter().enumerate() {
        for k in 0..dirty {
            let i = k * (LEAVES / dirty);
            values[i] = fixed_width(i, round + 1);
        }
        schedule.push((dirty, vec![Value::DoubleArray(values.clone())]));
    }

    // The XML lane converts every dirty double with the pinned kernel and
    // still allocates what bin1 does.
    for lane in WireFormat::ALL {
        let config = EngineConfig::paper_default().with_wire_format(lane);
        let store = TemplateStore::unbounded();
        let key = StoreKey::new(0, TemplateKey::for_format("http://svc", &op, lane));
        let mut deser = LaneDeserializer::new(lane, op.clone());
        let mut wire = Vec::with_capacity(64 * 1024);
        let mut measured = Vec::new();
        for (step, (dirty, args)) in schedule.iter().enumerate() {
            let (sent, send_allocations) = counted(|| {
                store.send(&key, &config, None, &op, args, 1, false, |slices| {
                    wire.clear();
                    slices.iter().for_each(|s| wire.extend_from_slice(s));
                    Ok(wire.len())
                })
            });
            let (report, _) = sent.unwrap();
            let (decoded, decode_allocations) =
                counted(|| deser.deserialize(&wire).map(|(_, o)| o));
            let outcome = decoded.unwrap();
            if step == 0 {
                assert_eq!(report.tier, SendTier::FirstTime);
                assert_eq!(outcome, DiffOutcome::FullParse);
                continue;
            }
            assert_eq!(report.tier, SendTier::PerfectStructural, "{lane:?}");
            assert_eq!(report.values_written, *dirty);
            let skipped = LEAVES - dirty;
            let reparsed = *dirty;
            assert_eq!(outcome, DiffOutcome::Differential { reparsed, skipped });
            if step >= 3 {
                assert_eq!(
                    decode_allocations, 0,
                    "{lane:?}: decoding {dirty} changed leaves"
                );
                measured.push(send_allocations);
            }
        }
        // The plan's ops, the plan's blob, the gather list. The checkout
        // leaves the key's emptied slot in the store, so the admit that
        // follows allocates nothing.
        assert!(
            measured[0] <= 3,
            "{lane:?}: a warm send allocates {measured:?}"
        );
        assert_eq!(
            measured, [measured[0]; 3],
            "{lane:?}: allocations follow the dirty count"
        );
    }
}

/// Both kernels convert every double of the exact kernel's pin corpus —
/// random bit patterns, both ends of the exponent range, subnormals,
/// 15-digit pool values and the exact half-way ties, which Grisu3 cannot
/// certify and hands to the exact path — without one allocation.
#[test]
fn a_double_conversion_allocates_nothing() {
    let values = corpus::corpus();
    let mut buf = [0u8; bsoap::convert::DOUBLE_MAX_WIDTH];
    for kernel in [FloatFormatter::Exact2004, FloatFormatter::Fast] {
        kernel.write_f64(&mut buf, 0.1); // lazy one-time set-up (Grisu's power table)
        let (written, allocations) = counted(|| {
            values
                .iter()
                .map(|&v| kernel.write_f64(&mut buf, v))
                .sum::<usize>()
        });
        assert!(written > values.len());
        assert_eq!(allocations, 0, "{kernel:?}");
    }
}

#[test]
fn a_first_time_send_allocates_for_its_bytes_not_per_element() {
    let lane = WireFormat::SoapXml;
    let op = OpDesc::single(
        "sendMios",
        "urn:mesh",
        "mios",
        TypeDesc::array_of(TypeDesc::mio()),
    );
    let config = EngineConfig::paper_default();
    let store = TemplateStore::unbounded();
    let mut wire = Vec::with_capacity(256 * 1024);
    // (allocations, chunks) of a First-Time Send of `cells` MIOs.
    let mut first_time = |cells: usize| {
        let cell = |i: usize| mio(i as i32 * 7919, -(i as i32), i as f64 * 0.37);
        let args = [Value::Array((0..cells).map(cell).collect())];
        let endpoint = format!("http://svc/{cells}");
        let key = StoreKey::new(0, TemplateKey::for_format(&endpoint, &op, lane));
        let (sent, allocations) = counted(|| {
            store.send(&key, &config, None, &op, &args, 1, false, |slices| {
                wire.clear();
                slices.iter().for_each(|s| wire.extend_from_slice(s));
                Ok(wire.len())
            })
        });
        let (report, _) = sent.unwrap();
        assert_eq!(report.tier, SendTier::FirstTime);
        assert_eq!(report.values_written, 1 + 3 * cells);
        let chunks = store.peek(&key, |t| t.chunk_count()).unwrap();
        (allocations, chunks)
    };
    first_time(1); // lazy one-time set-up (kernel dispatch, tables)
    let (small, small_chunks) = first_time(50);
    let (large, large_chunks) = first_time(500);
    assert!(large_chunks > small_chunks, "500 cells span several chunks");
    // Before the frame plan: ~12 allocations per cell, 5 400 apart.
    assert!(
        large <= small + (large_chunks - small_chunks),
        "50 cells: {small} allocations in {small_chunks} chunks, \
         500 cells: {large} in {large_chunks}"
    );
}

/// The receiving side of `bulk_stream`: a 25 000-double body in a
/// transport's 64 KiB slices. The first slice carries the prologue and the
/// first element, which the oracle reads and the skeleton is learned from;
/// every later slice, and `finish`, allocate nothing — no element goes
/// back through the oracle's `Parser`, whose start tags carry an attribute
/// `Vec`, and the carry holds only the element split at a boundary.
#[test]
fn a_streamed_element_allocates_nothing() {
    const ELEMENTS: usize = 25_000;
    let op = OpDesc::single(
        "send",
        "urn:bench",
        "arr",
        TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double)),
    );
    let values: Vec<f64> = (0..ELEMENTS)
        .map(|i| fixed_width(i % 9000, i % 32))
        .collect();
    let mut body = Vec::new();
    OverlaySender::auto_window(EngineConfig::paper_default(), &op)
        .unwrap()
        .send(&Value::DoubleArray(values.clone()), &mut body)
        .unwrap();
    let mut deser = StreamingDeserializer::new(&op).unwrap();
    let mut slices = body.chunks(64 * 1024);
    let mut sum = 0.0;
    let mut on_item = |_, v| {
        if let Value::Double(x) = v {
            sum += x;
        }
        Ok(())
    };
    deser.push(slices.next().unwrap(), &mut on_item).unwrap();
    let (summary, allocations) = counted(|| {
        for slice in slices {
            deser.push(slice, &mut on_item)?;
        }
        deser.finish()
    });
    assert_eq!(summary.unwrap().items, ELEMENTS);
    assert_eq!(sum, values.iter().sum::<f64>());
    assert_eq!(allocations, 0, "streaming {ELEMENTS} elements");
}

/// The receiving side of `cold_mix`: a label with escaped characters and
/// 300 MIO cells, every leaf fresh in every message and the ints changing
/// width. Each leaf is staged as a typed scalar and landed through the
/// operation's leaf paths, so a warm decode allocates exactly the label's
/// new `String` — nothing per number, nothing per struct element.
#[test]
fn a_warm_struct_decode_allocates_only_its_string() {
    const CELLS: usize = 300;
    let param = |name: &str, desc| ParamDesc {
        name: name.into(),
        desc,
    };
    let op = OpDesc::new(
        "mix",
        "urn:bench",
        vec![
            param("label", TypeDesc::Scalar(ScalarKind::Str)),
            param("cells", TypeDesc::array_of(TypeDesc::mio())),
        ],
    );
    // Generation `g` of cell `i`: ints of 1 to 7 digits, widths moving
    // with `g`, and a double no neighbouring generation shares.
    let message = |g: usize| {
        let int = |i: usize, salt: usize| {
            let digits = 1 + (i + g + salt) % 7;
            ((i * 7919 + g * 104_729 + salt) % 10usize.pow(digits as u32)) as i32
        };
        let cell = |i| mio(int(i, 0), -int(i, 3), fixed_width(i, g));
        let label = format!("label {g} & <{}>", "x".repeat(g));
        let args = [
            Value::Str(label),
            Value::Array((0..CELLS).map(cell).collect()),
        ];
        let config = EngineConfig::paper_default();
        MessageTemplate::build(config, &op, &args)
            .unwrap()
            .to_bytes()
    };
    let messages: Vec<Vec<u8>> = (0..4).map(message).collect();
    let mut deser = DiffDeserializer::new(op.clone());
    // Two warm-up rounds size the retained message and the staging lists.
    for bytes in messages.iter().cycle().take(8) {
        deser.deserialize(bytes).unwrap();
    }
    for bytes in &messages {
        let (decoded, allocations) = counted(|| deser.deserialize(bytes).map(|(_, o)| o));
        let reparsed = 1 + 3 * CELLS;
        let outcome = DiffOutcome::Differential {
            reparsed,
            skipped: 0,
        };
        assert_eq!(decoded.unwrap(), outcome);
        assert_eq!(allocations, 1, "re-reading {reparsed} leaves");
    }
}

/// The server's receive path on either lane: a warm differential decode of
/// a body the reader owns allocates nothing and copies no message — the
/// body becomes the reference by swap and the reader gets the old one's
/// buffer back, so over ten calls the retained buffer alternates between
/// exactly two allocations.
#[test]
fn a_warm_owned_decode_allocates_nothing_and_trades_two_buffers() {
    const LEAVES: usize = 2_000;
    let op = OpDesc::single(
        "send",
        "urn:bench",
        "arr",
        TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double)),
    );
    for lane in WireFormat::ALL {
        // Generation `g` rewrites every tenth leaf in place.
        let config = EngineConfig::paper_default().with_wire_format(lane);
        let mut values: Vec<f64> = (0..LEAVES).map(|i| fixed_width(i, 0)).collect();
        let mut tpl =
            MessageTemplate::build(config, &op, &[Value::DoubleArray(values.clone())]).unwrap();
        let mut messages = vec![tpl.to_bytes()];
        for g in 1..16 {
            for i in (g % 10..LEAVES).step_by(10) {
                values[i] = fixed_width(i, g);
            }
            tpl.update_args(&[Value::DoubleArray(values.clone())])
                .unwrap();
            tpl.flush();
            messages.push(tpl.to_bytes());
        }

        let mut deser = LaneDeserializer::new(lane, op.clone());
        let mut body = Vec::with_capacity(messages[0].len());
        let mut kept = Vec::new();
        for (step, message) in messages.iter().enumerate() {
            body.clear();
            body.extend_from_slice(message);
            let incoming = body.as_ptr() as usize;
            let (decoded, allocations) =
                counted(|| deser.deserialize_owned(&mut body).map(|(_, o)| o));
            let outcome = decoded.unwrap();
            // A full parse, then five warm-up walks that size the scratch.
            if step < 6 {
                continue;
            }
            let changed = LEAVES / 10;
            let expected = DiffOutcome::Differential {
                reparsed: changed,
                skipped: LEAVES - changed,
            };
            assert_eq!(outcome, expected, "{lane:?}");
            assert_eq!(allocations, 0, "{lane:?}: an owned differential decode");
            kept.push(incoming);
        }
        assert_eq!(kept.len(), 10);
        assert_ne!(kept[0], kept[1], "{lane:?}: the body is kept by swap");
        let alternating = kept.iter().enumerate().all(|(k, &at)| at == kept[k % 2]);
        assert!(alternating, "{lane:?}: retained buffers {kept:x?}");
    }
}

/// `cold_mix`'s request operation `k` (`benchmark/src/spec.rs`): a label
/// and `cells` MIO cells.
fn mix_op(k: usize) -> OpDesc {
    let param = |name: &str, desc| ParamDesc {
        name: name.into(),
        desc,
    };
    OpDesc::new(
        &format!("put{k:02}"),
        "urn:bench",
        vec![
            param("label", TypeDesc::Scalar(ScalarKind::Str)),
            param("cells", TypeDesc::array_of(TypeDesc::mio())),
        ],
    )
}

/// A `cold_mix`-shaped request: a 48-character label with escaped
/// characters and `cells` cells of fresh values.
fn mix_message(op: &OpDesc, cells: usize, salt: usize) -> Vec<u8> {
    let cell = |i: usize| {
        let x = ((i * 7919 + salt * 104_729) % 1_000_000) as i32;
        mio(x, -x / 3, fixed_width(i % 9000, salt % 32))
    };
    let label = format!("{:<48}", format!("label {salt} & <{cells}>"));
    let args = [
        Value::Str(label),
        Value::Array((0..cells).map(cell).collect()),
    ];
    MessageTemplate::build(EngineConfig::paper_default(), op, &args)
        .unwrap()
        .to_bytes()
}

/// `retained_bytes` is the true size of a reference: the kept message, the
/// region map and the decoded values — to the byte what the allocator
/// holds for it once a `cold_mix`-shaped message decoded.
#[test]
fn retained_bytes_are_what_a_reference_holds() {
    let op = mix_op(0);
    let bytes = mix_message(&op, 300, 1);
    // One-time set-up outside the count.
    DiffDeserializer::new(op.clone())
        .deserialize(&bytes)
        .unwrap();
    let mut deser = DiffDeserializer::new(op);
    let (outcome, live) = held(|| deser.deserialize(&bytes).unwrap().1);
    assert_eq!(outcome, DiffOutcome::FullParse);
    assert_eq!(deser.retained_bytes(), live);
}

/// A service's state after one request on each of `cold_mix`'s 32
/// operations: per cell, the kept request (~150 bytes), its decoded values
/// (128) and its region map (3 regions of 8 bytes), plus the operations'
/// tables and response templates, which a one-leaf reply keeps small —
/// 315 bytes a cell in all. Spans of two `usize`s (24 bytes more a cell),
/// the old map of `usize` regions and end offsets (96 more) or a response
/// template holding a whole 32 KiB chunk (88 more) fails it.
#[test]
fn a_service_holds_at_most_330_bytes_a_cell_of_cold_mix() {
    const OPS: usize = 32;
    let cells = |k: usize| 200 + k * 400 / (OPS - 1);
    let ops: Vec<OpDesc> = (0..OPS).map(mix_op).collect();
    let messages: Vec<Vec<u8>> = (0..OPS)
        .map(|k| mix_message(&ops[k], cells(k), k))
        .collect();
    let response = || {
        let param = |name: &str, kind| ParamDesc {
            name: name.into(),
            desc: TypeDesc::Scalar(kind),
        };
        vec![
            param("check", ScalarKind::Long),
            param("total", ScalarKind::Double),
        ]
    };
    let handler = |args: &[Value]| match args {
        [Value::Str(label), Value::Array(cells)] => Ok(vec![
            Value::Long(label.len() as i64),
            Value::Double(cells.len() as f64),
        ]),
        _ => Err("put takes a label and a cell array".to_owned()),
    };
    let serve = |ops: &[OpDesc]| {
        let mut service = Service::new("urn:bench", EngineConfig::paper_default());
        for op in ops {
            service.register(op.clone(), response(), handler);
        }
        for (op, message) in ops.iter().zip(&messages) {
            let mut body = message.clone();
            let sent = service.dispatch_owned(&op.name, &mut body, WireFormat::SoapXml);
            sent.unwrap();
        }
        service
    };
    // One-time set-up outside the count.
    drop(serve(&ops[..1]));
    let (service, live) = held(|| serve(&ops));
    assert_eq!(service.stats().requests_full_parse, OPS as u64);
    let total: usize = (0..OPS).map(cells).sum();
    let per_cell = live / total;
    assert!(
        per_cell <= 330,
        "{live} bytes held for {total} cells: {per_cell} a cell"
    );
}

/// A First-Time Send of a one-scalar reply keeps its message and the chunk
/// reserve: the last chunk gives back what the build did not fill, where
/// it used to hold a whole 32 KiB `initial_size` chunk. Beside the chunk,
/// the template holds its one DUT entry and its operation.
#[test]
fn a_built_template_keeps_its_message_and_the_reserve() {
    let op = OpDesc::single(
        "sumResponse",
        "urn:bench",
        "total",
        TypeDesc::Scalar(ScalarKind::Double),
    );
    let config = EngineConfig::paper_default();
    let reserve = config.chunk.reserve;
    MessageTemplate::build(config, &op, &[Value::Double(0.5)]).unwrap(); // lazy one-time set-up
    let (built, live) =
        held(|| MessageTemplate::build(config, &op, &[Value::Double(1.25)]).unwrap());
    let message = built.message_len();
    assert_eq!(built.chunk_capacity(), message + reserve);
    assert!(
        live <= message + reserve + 512,
        "{live} bytes held for a {message}-byte message"
    );

    // The served path builds the same way.
    let store = TemplateStore::unbounded();
    let key = StoreKey::new(
        0,
        TemplateKey::for_format("http://svc", &op, WireFormat::SoapXml),
    );
    let args = [Value::Double(2.5)];
    let (report, _) = store
        .send(&key, &config, None, &op, &args, 1, false, |slices| {
            Ok(slices.iter().map(|s| s.len()).sum())
        })
        .unwrap();
    assert_eq!(report.tier, SendTier::FirstTime);
    let room = store.peek(&key, |t| t.chunk_capacity() - t.message_len());
    assert_eq!(room, Some(reserve));
}

/// A peer that answers each `read` with its next whole message, the last
/// one for ever.
struct Answering(Vec<Vec<u8>>, usize);

impl std::io::Read for Answering {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let message = &self.0[self.1.min(self.0.len() - 1)];
        self.1 += 1;
        buf[..message.len()].copy_from_slice(message);
        Ok(message.len())
    }
}

impl std::io::Write for Answering {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The HTTP half of a warm round trip allocates per message, not per
/// header: the server reads and parses a request into the two buffers of
/// the head it dispatches (its text and its header spans) however many
/// headers it carries, renders the response head into its kept buffer,
/// and the client reads a reply into the body it returns, its head parsed
/// into the connection's kept one.
#[test]
fn a_warm_http_exchange_allocates_per_message_not_per_header() {
    use bsoap::obs::NullRecorder;
    use bsoap::transport::http::{render_response_head_extra, HttpVersion, RequestConfig};
    use bsoap::transport::negotiate::{Negotiator, HDR_ACCEPT, HDR_FORMAT, TOKEN_BINARY};
    use bsoap::transport::{ClientConn, Conn, ConnAction, ConnConfig, ReqBody, Response};
    let body = vec![b'x'; 1_500];
    // `RpcClient`'s warm XML POST: Host, Content-Type, SOAPAction, the
    // negotiator's two and Content-Length, then `pad` more headers.
    let post = |pad: usize| {
        let mut cfg = RequestConfig {
            path: "/".into(),
            host: "127.0.0.1".into(),
            soap_action: "urn:bench#echo".into(),
            version: HttpVersion::Http11Length,
            extra_headers: Negotiator::new(true).request_headers(),
        };
        let padding = (0..pad).map(|i| (format!("X-Pad-{i}"), "p".repeat(i + 1)));
        cfg.extra_headers.extend(padding);
        let mut wire = Vec::new();
        cfg.render_head(&mut wire, Some(body.len()));
        assert_eq!(wire.split(|&b| b == b'\n').count(), 1 + 6 + pad + 2);
        [wire, body.clone()].concat()
    };
    let echo = [
        (HDR_FORMAT, "xml".to_owned()),
        (HDR_ACCEPT, TOKEN_BINARY.to_owned()),
    ];
    let rec = NullRecorder;
    // Server: (read + parse, response render) allocations of a warm call.
    let serve = |request: Vec<u8>| {
        let mut conn = Conn::new(1, ConnConfig::default());
        let mut socket = Answering(vec![request], 0);
        let (mut out, mut sent) = (Vec::with_capacity(16), Vec::new());
        for _ in 0..4 {
            out.clear();
            let (_, read) = counted(|| conn.on_readable(&mut socket, &rec, &mut out));
            let got = out.drain(..).find_map(|action| match action {
                ConnAction::Dispatch(head, ReqBody::Full(got)) => Some((head, got)),
                _ => None,
            });
            let (head, got) = got.expect("a whole request dispatches");
            assert_eq!(head.method, "POST");
            assert_eq!(head.header("x-bsoap-format"), Some("xml"));
            assert_eq!(got, body);
            let response = Response {
                spare: got,
                extra_headers: echo.to_vec(),
                ..Response::xml(200, "OK", b"<ok/>".to_vec())
            };
            let (_, rendered) = counted(|| {
                conn.on_dispatch_done(response, &rec);
                conn.on_writable(&mut socket, &rec, &mut out);
            });
            sent.push((read, rendered));
        }
        sent[3]
    };
    let (read, rendered) = serve(post(0));
    assert!(read <= 2, "the server's read + parse: {read} allocations");
    assert_eq!(rendered, 0, "the response head renders in place");
    let (padded, _) = serve(post(16));
    assert_eq!(padded, read, "sixteen more headers cost no allocation");

    // Client: the host's 4-header reply.
    let mut reply = Vec::new();
    let ct = "text/xml; charset=utf-8";
    render_response_head_extra(&mut reply, 200, "OK", ct, 5, &echo);
    reply.extend_from_slice(b"<ok/>");
    let mut conn = ClientConn::over(Answering(vec![reply], 0));
    for call in 0..4 {
        let (got, allocations) =
            counted(|| conn.read_reply(1 << 20, 1 << 20).map(|(s, _, b)| (s, b)));
        assert_eq!(got.unwrap(), (200, b"<ok/>".to_vec()));
        if call > 0 {
            assert!(
                allocations <= 2,
                "a warm reply read: {allocations} allocations"
            );
        }
    }
}

/// Neither end of an HTTP connection keeps a long head past the exchange
/// that needed it: the server moves each request's head out to the handler
/// (its connection keeps none), and a client's next reply releases what a
/// long one grew. A 48 KiB head of 12 288 short lines is 48 KiB of text
/// and 192 KiB of header spans.
#[test]
fn an_http_connection_keeps_no_long_head_past_its_exchange() {
    use bsoap::obs::NullRecorder;
    use bsoap::transport::http::render_response;
    use bsoap::transport::{ClientConn, Conn, ConnAction, ConnConfig, ReqBody, Response};
    let long = "a:\r\n".repeat(12 * 1024);
    let message = |start: &str, pad: &str| {
        format!("{start}\r\n{pad}Content-Length: 4\r\n\r\n<x/>").into_bytes()
    };
    let rec = NullRecorder;
    let mut conn = Conn::new(1, ConnConfig::default());
    let request = message("POST / HTTP/1.1", "");
    let long_request = message("POST / HTTP/1.1", &long);
    let mut socket = Answering(vec![request, long_request], 0);
    let mut serve = |socket: &mut Answering| {
        let mut out = Vec::new();
        conn.on_readable(socket, &rec, &mut out);
        let body = out.into_iter().find_map(|action| match action {
            ConnAction::Dispatch(_, ReqBody::Full(body)) => Some(body),
            _ => None,
        });
        let response = Response {
            spare: body.expect("a whole request dispatches"),
            ..Response::xml(200, "OK", b"<ok/>".to_vec())
        };
        conn.on_dispatch_done(response, &rec);
        conn.on_writable(socket, &rec, &mut Vec::new());
    };
    serve(&mut socket);
    let ((), kept) = held(|| serve(&mut socket));
    assert!(
        kept <= 1024,
        "the server kept {kept} bytes past the exchange"
    );

    let mut reply = Vec::new();
    render_response(&mut reply, 200, "OK", b"<x/>");
    let long_reply = message("HTTP/1.1 200 OK", &long);
    let mut client = ClientConn::over(Answering(vec![reply.clone(), long_reply, reply], 0));
    let mut call = || drop(client.read_reply(1 << 20, 1 << 20).unwrap());
    call();
    let ((), kept) = held(|| {
        call();
        call();
    });
    assert!(
        kept <= 1024,
        "the client kept {kept} bytes past the exchange"
    );
}

/// A warm streamed POST renders its chunked head from the client's own
/// `RequestConfig`, whatever version that names: no copy of the path,
/// host or SOAPAction per call.
#[test]
fn a_warm_streamed_post_allocates_no_copy_of_its_config() {
    use bsoap::transport::{
        HttpPoolClient, HttpVersion, PoolConfig, RequestConfig, ServerMode, TestServer,
    };
    use std::io::IoSlice;
    let server = TestServer::spawn(ServerMode::Ack).unwrap();
    let cfg = RequestConfig::loopback(HttpVersion::Http11Length);
    let client = HttpPoolClient::new(server.addr(), cfg, PoolConfig::default());
    let post = || {
        client
            .post_streamed(|w| w.write_portion(&[IoSlice::new(b"<x/>")]))
            .unwrap()
    };
    for _ in 0..3 {
        post();
    }
    let ((reply, sent), allocations) = counted(post);
    assert_eq!((reply.status, sent), (200, 4));
    assert!(
        allocations <= 3,
        "a warm streamed POST: {allocations} allocations"
    );
    drop(client);
    server.stop();
}

/// A metrics registry holds one atomic per counter beside its gauges,
/// histograms and trace ring.
#[test]
fn a_metrics_registry_holds_at_most_56_kib() {
    let (metrics, live) = held(bsoap::obs::Metrics::shared);
    assert!(live <= 56 * 1024, "a registry holds {live} bytes");
    drop(metrics);
}
