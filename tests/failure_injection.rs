//! Failure injection: transports that error, stall, or accept partial
//! writes must never corrupt template state — after the failure clears,
//! the template still produces bytes identical to a fresh serialization.
//! The plan/execute split adds its own failure seams (planner error,
//! executor panic, stale plan): each must leave the template bytes
//! untouched.

use bsoap::baseline::GSoapLike;
use bsoap::convert::ScalarKind;
use bsoap::xml::strip_pad;
use bsoap::{
    Client, EngineConfig, EngineError, InjectedFault, MessageTemplate, OpDesc, SendTier, StoreKey,
    TemplateKey, TypeDesc, Value, WireFormat,
};
use std::io::{self, IoSlice, Write};

/// Read-only look at the template `client` has saved for `("ep", op)` on
/// `format`'s lane (`None` when nothing is saved): moves no counter.
fn saved_template<R>(
    client: &Client,
    op: &OpDesc,
    format: WireFormat,
    look: impl FnOnce(&MessageTemplate) -> R,
) -> Option<R> {
    let key = StoreKey::new(0, TemplateKey::for_format("ep", op, format));
    client.template_store()?.peek(&key, look)
}

fn doubles_op() -> OpDesc {
    OpDesc::single(
        "send",
        "urn:bench",
        "arr",
        TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double)),
    )
}

/// Writer that fails after accepting `accept_bytes`, then recovers.
struct FlakyWriter {
    accept_bytes: usize,
    taken: usize,
    failures: usize,
    out: Vec<u8>,
}

impl FlakyWriter {
    fn new(accept_bytes: usize) -> Self {
        FlakyWriter {
            accept_bytes,
            taken: 0,
            failures: 0,
            out: Vec::new(),
        }
    }
}

impl Write for FlakyWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.taken >= self.accept_bytes {
            self.failures += 1;
            return Err(io::Error::new(io::ErrorKind::ConnectionReset, "injected"));
        }
        let n = buf.len().min(self.accept_bytes - self.taken);
        self.taken += n;
        self.out.extend_from_slice(&buf[..n]);
        Ok(n)
    }
    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        let total: usize = bufs.iter().map(|b| b.len()).sum();
        let first = bufs.first().map(|b| b.len()).unwrap_or(0);
        let _ = total;
        self.write(bufs.first().map(|b| &b[..first]).unwrap_or(&[]))
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn send_error_surfaces_and_template_survives() {
    let op = doubles_op();
    let mut client = Client::new(EngineConfig::paper_default());
    let xs = vec![Value::DoubleArray(vec![1.5; 100])];

    // First send into a writer that dies mid-message.
    let mut flaky = FlakyWriter::new(64);
    let err = client.call("ep", &op, &xs, &mut flaky).unwrap_err();
    assert!(
        matches!(err, EngineError::Io(_)),
        "I/O failure must surface: {err:?}"
    );
    assert!(flaky.failures > 0);

    // The same call against a healthy sink: the engine is not poisoned.
    let mut ok = Vec::new();
    let r = client.call("ep", &op, &xs, &mut ok).unwrap();
    // Template may or may not have been cached before the failure; either
    // tier is sound, and the bytes must equal a fresh serialization.
    assert!(matches!(
        r.tier,
        SendTier::FirstTime | SendTier::ContentMatch
    ));
    let mut g = GSoapLike::new();
    let full = g.serialize(&op, &xs).unwrap().to_vec();
    assert_eq!(strip_pad(&ok), strip_pad(&full));
}

#[test]
fn failure_during_differential_send_keeps_bytes_consistent() {
    let op = doubles_op();
    let mut client = Client::new(EngineConfig::paper_default());
    let mut ok = Vec::new();
    let mut xs = vec![1.5; 50];
    client
        .call("ep", &op, &[Value::DoubleArray(xs.clone())], &mut ok)
        .unwrap();

    // Dirty some values, then fail the send. The flush happened before the
    // transport error, so the in-memory template already holds the new
    // bytes — the retry must ship exactly those.
    xs[7] = 9.5;
    xs[31] = 2.5;
    let mut flaky = FlakyWriter::new(16);
    let err = client
        .call("ep", &op, &[Value::DoubleArray(xs.clone())], &mut flaky)
        .unwrap_err();
    assert!(matches!(err, EngineError::Io(_)));

    let mut out2 = Vec::new();
    let r = client
        .call("ep", &op, &[Value::DoubleArray(xs.clone())], &mut out2)
        .unwrap();
    assert_eq!(
        r.tier,
        SendTier::ContentMatch,
        "values already flushed before the failure"
    );
    let mut g = GSoapLike::new();
    let full = g
        .serialize(&op, &[Value::DoubleArray(xs)])
        .unwrap()
        .to_vec();
    assert_eq!(strip_pad(&out2), strip_pad(&full));
}

#[test]
fn failure_during_resize_send_keeps_template_coherent() {
    let op = doubles_op();
    let mut client = Client::new(EngineConfig::paper_default());
    let mut ok = Vec::new();
    client
        .call("ep", &op, &[Value::DoubleArray(vec![1.5; 10])], &mut ok)
        .unwrap();

    let grown = vec![Value::DoubleArray(
        (0..200).map(|i| i as f64 + 0.5).collect(),
    )];
    let mut flaky = FlakyWriter::new(8);
    assert!(client.call("ep", &op, &grown, &mut flaky).is_err());

    // After the failed resize-send, the template must still satisfy its
    // invariants and serialize correctly.
    saved_template(&client, &op, WireFormat::SoapXml, |tpl| {
        tpl.assert_invariants()
    })
    .expect("template retained");
    let mut out = Vec::new();
    let r = client.call("ep", &op, &grown, &mut out).unwrap();
    assert_eq!(r.tier, SendTier::ContentMatch);
    let mut g = GSoapLike::new();
    let full = g.serialize(&op, &grown).unwrap().to_vec();
    assert_eq!(strip_pad(&out), strip_pad(&full));
}

#[test]
fn zero_byte_writer_reports_write_zero() {
    struct Stuck;
    impl Write for Stuck {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Ok(0)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }
    let op = doubles_op();
    let mut tpl = MessageTemplate::build(
        bsoap::EngineConfig::paper_default(),
        &op,
        &[Value::DoubleArray(vec![1.5])],
    )
    .unwrap();
    let err = tpl.send(&mut Stuck).unwrap_err();
    let EngineError::Io(io_err) = err else {
        panic!("expected Io error")
    };
    assert_eq!(io_err.kind(), io::ErrorKind::WriteZero);
}

#[test]
fn interleaved_failures_across_endpoints_stay_isolated() {
    for format in WireFormat::ALL {
        let op = doubles_op();
        let mut client = Client::new(EngineConfig::paper_default().with_wire_format(format));
        let args_a = vec![Value::DoubleArray(vec![1.5; 20])];
        let args_b = vec![Value::DoubleArray(vec![2.5; 30])];
        let mut ok = Vec::new();
        client.call("a", &op, &args_a, &mut ok).unwrap();
        client.call("b", &op, &args_b, &mut ok).unwrap();

        // Endpoint B's transport fails; endpoint A is unaffected.
        let mut flaky = FlakyWriter::new(4);
        assert!(client.call("b", &op, &args_b, &mut flaky).is_err());
        let r = client.call("a", &op, &args_a, &mut Vec::new()).unwrap();
        assert_eq!(r.tier, SendTier::ContentMatch);
        let r = client.call("b", &op, &args_b, &mut Vec::new()).unwrap();
        assert_eq!(r.tier, SendTier::ContentMatch);
    }
}

#[test]
fn planner_error_leaves_template_bytes_untouched() {
    let op = doubles_op();
    let mut tpl = MessageTemplate::build(
        EngineConfig::paper_default(),
        &op,
        &[Value::DoubleArray(vec![1.5; 40])],
    )
    .unwrap();
    let mut xs = vec![1.5; 40];
    xs[3] = 9.25;
    xs[21] = -7.125;
    tpl.update_args(&[Value::DoubleArray(xs.clone())]).unwrap();
    let before = tpl.to_bytes();

    tpl.inject_fault(Some(InjectedFault::PlanError));
    let err = tpl.plan().unwrap_err();
    assert!(matches!(err, EngineError::StructureMismatch { .. }));
    assert_eq!(
        tpl.to_bytes(),
        before,
        "a failed plan() must not move a template byte"
    );
    tpl.assert_invariants();

    // Clear the fault: the very same pending update flushes cleanly.
    tpl.inject_fault(None);
    let r = tpl.flush();
    assert_eq!(r.values_written, 2);
    let mut g = GSoapLike::new();
    let full = g
        .serialize(&op, &[Value::DoubleArray(xs)])
        .unwrap()
        .to_vec();
    assert_eq!(strip_pad(&tpl.to_bytes()), strip_pad(&full));
}

#[test]
fn executor_panic_leaves_template_bytes_untouched() {
    // An executor that dies before completing must not have mutated the
    // template: the injected panic fires at the execute seam, and the
    // pre-send bytes must survive the unwind intact.
    let op = doubles_op();
    let mut tpl = MessageTemplate::build(
        EngineConfig::paper_default(),
        &op,
        &[Value::DoubleArray(vec![1.5; 40])],
    )
    .unwrap();
    let mut xs = vec![1.5; 40];
    xs[0] = 123.456;
    xs[39] = -0.0625;
    tpl.update_args(&[Value::DoubleArray(xs.clone())]).unwrap();
    let before = tpl.to_bytes();
    let plan = tpl.plan().unwrap();

    tpl.inject_fault(Some(InjectedFault::ExecutorPanic));
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {})); // keep the expected panic quiet
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = tpl.flush_planned(&plan);
    }));
    std::panic::set_hook(hook);
    assert!(result.is_err(), "injected executor fault must panic");
    assert_eq!(
        tpl.to_bytes(),
        before,
        "a panicking executor must not leave partial mutations"
    );
    tpl.assert_invariants();

    // Recovery: the untouched plan is still valid against the untouched
    // template; applying it now produces the full-serialization bytes.
    tpl.inject_fault(None);
    let r = tpl.flush_planned(&plan).unwrap();
    assert_eq!(r.values_written, 2);
    let mut g = GSoapLike::new();
    let full = g
        .serialize(&op, &[Value::DoubleArray(xs)])
        .unwrap()
        .to_vec();
    assert_eq!(strip_pad(&tpl.to_bytes()), strip_pad(&full));
}

#[test]
fn stale_plan_is_rejected_without_mutation() {
    let op = doubles_op();
    let mut tpl = MessageTemplate::build(
        EngineConfig::paper_default(),
        &op,
        &[Value::DoubleArray(vec![1.5; 20])],
    )
    .unwrap();
    let mut xs = vec![1.5; 20];
    xs[5] = 2.25;
    tpl.update_args(&[Value::DoubleArray(xs.clone())]).unwrap();
    let plan = tpl.plan().unwrap();

    // Mutate past the plan: more dirty values, then a resize.
    xs[6] = 3.25;
    xs.push(4.5);
    tpl.update_args(&[Value::DoubleArray(xs.clone())]).unwrap();
    let before = tpl.to_bytes();

    let err = tpl.flush_planned(&plan).unwrap_err();
    assert!(
        matches!(err, EngineError::PlanStale { .. }),
        "drifted stamp must be rejected: {err:?}"
    );
    assert_eq!(tpl.to_bytes(), before, "rejection must not move a byte");
    tpl.assert_invariants();

    // A fresh plan for the current state applies fine.
    let plan = tpl.plan().unwrap();
    tpl.flush_planned(&plan).unwrap();
    let mut g = GSoapLike::new();
    let full = g
        .serialize(&op, &[Value::DoubleArray(xs)])
        .unwrap()
        .to_vec();
    assert_eq!(strip_pad(&tpl.to_bytes()), strip_pad(&full));
}

#[test]
fn arity_and_type_errors_leave_no_partial_template() {
    for format in WireFormat::ALL {
        let op = doubles_op();
        let mut client = Client::new(EngineConfig::paper_default().with_wire_format(format));
        // Type error on the very first call: no template may be cached.
        assert!(client
            .call("ep", &op, &[Value::Int(1)], &mut Vec::new())
            .is_err());
        assert!(saved_template(&client, &op, format, |_| ()).is_none());
        // A valid call then builds normally.
        let r = client
            .call("ep", &op, &[Value::DoubleArray(vec![1.5])], &mut Vec::new())
            .unwrap();
        assert_eq!(r.tier, SendTier::FirstTime);
    }
}
