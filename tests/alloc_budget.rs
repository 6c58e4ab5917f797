//! What a warm send and a warm differential decode allocate: a constant
//! few for the send, whatever the dirty count, and nothing for the decode.
//! Retained scratch (the DUT's dirty list and run-compare hits, the bin1
//! reference's changed-slot list) is what keeps it so; a per-call `Vec`
//! sneaking back into either path fails here before it shows in a profile.
//! And what a First-Time Send allocates: chunks for the bytes, nothing per
//! element — its framing is compiled once per build (DESIGN §3.2), so a
//! tag formatted per element fails here too.
//!
//! The counter is the calling thread's own, and each test runs on one
//! thread: nothing else in this binary allocates on it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bsoap::convert::ScalarKind;
use bsoap::deser::{BinaryDiffDeserializer, DiffOutcome};
use bsoap::{
    mio, EngineConfig, OpDesc, SendTier, StoreKey, TemplateKey, TemplateStore, TypeDesc, Value,
    WireFormat,
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

#[test]
fn a_warm_send_allocates_a_constant_few_and_a_warm_decode_nothing() {
    const LEAVES: usize = 2_000;
    let lane = WireFormat::CompactBinary;
    let op = OpDesc::single(
        "send",
        "urn:bench",
        "arr",
        TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double)),
    );
    let config = EngineConfig::paper_default().with_wire_format(lane);
    let store = TemplateStore::unbounded();
    let key = StoreKey::new(0, TemplateKey::for_format("http://svc", &op, lane));
    let mut deser = BinaryDiffDeserializer::new(op.clone());

    // Every message of the schedule, built before anything is counted: a
    // first-time send, a warm-up at the largest dirty count (it sizes the
    // retained scratch on both sides), then the three measured ones.
    let mut values: Vec<f64> = (0..LEAVES).map(|i| i as f64 + 0.5).collect();
    let mut schedule = vec![(0, vec![Value::DoubleArray(values.clone())])];
    for (round, dirty) in [500, 500, 5, 50, 500].into_iter().enumerate() {
        for k in 0..dirty {
            values[k * (LEAVES / dirty)] = (round * LEAVES + k) as f64 + 0.25;
        }
        schedule.push((dirty, vec![Value::DoubleArray(values.clone())]));
    }

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
        let (decoded, decode_allocations) = counted(|| deser.deserialize(&wire).map(|(_, o)| o));
        let outcome = decoded.unwrap();
        if step == 0 {
            assert_eq!(report.tier, SendTier::FirstTime);
            assert_eq!(outcome, DiffOutcome::FullParse);
            continue;
        }
        assert_eq!(report.tier, SendTier::PerfectStructural);
        assert_eq!(report.values_written, *dirty);
        let skipped = LEAVES - dirty;
        let reparsed = *dirty;
        assert_eq!(outcome, DiffOutcome::Differential { reparsed, skipped });
        if step >= 3 {
            assert_eq!(decode_allocations, 0, "decoding {dirty} changed leaves");
            measured.push(send_allocations);
        }
    }
    // The plan's ops, the plan's blob, the gather list, the store key.
    assert!(measured[0] <= 4, "a warm send allocates {measured:?}");
    assert_eq!(
        measured, [measured[0]; 3],
        "allocations follow the dirty count"
    );
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
    // The default (`Fast`) kernel: `Exact2004` allocates inside every
    // double conversion, which is the kernel's business, not the walk's.
    let config = EngineConfig::default();
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
