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
//! element sent back through the oracle's `Parser` fails here. The sends
//! run under the pinned `Exact2004` kernel, because a double conversion
//! allocates nothing under either kernel — a test of its own counts that.
//!
//! The counter is the calling thread's own, and each test runs on one
//! thread: nothing else in this binary allocates on it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

#[path = "../crates/convert/tests/corpus/mod.rs"]
mod corpus;

use bsoap::convert::{FloatFormatter, ScalarKind};
use bsoap::deser::{DiffOutcome, LaneDeserializer, StreamingDeserializer};
use bsoap::{
    mio, EngineConfig, OpDesc, OverlaySender, SendTier, StoreKey, TemplateKey, TemplateStore,
    TypeDesc, Value, WireFormat,
};

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; counting touches
// a const-initialised thread-local `Cell`, which neither allocates nor has
// a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
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
        // The plan's ops, the plan's blob, the gather list, the store key.
        assert!(
            measured[0] <= 4,
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
