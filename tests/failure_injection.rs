//! Failure injection: transports that error, stall, or accept partial
//! writes must never corrupt template state — after the failure clears,
//! the template still produces bytes identical to a fresh serialization.
//! The plan/execute split adds its own failure seams (planner error,
//! executor panic, stale plan): each must leave the template bytes
//! untouched.

mod common;

use bsoap::{
    EngineConfig, EngineError, InjectedFault, MessageTemplate, SendTier, StoreKey, TemplateKey,
    Value, WireFormat,
};
use common::spec::{assert_wire, doubles, doubles_op, FailingSink};
use common::Rig;
use std::io::{self, ErrorKind, Write};

/// A rig on `format`'s lane: every call below is held to the spec — the
/// tier a retry takes after a failure, the bytes it ships, the counters.
fn lane_rig(format: WireFormat) -> Rig {
    Rig::on_lane(doubles_op(), format)
}

/// A transport that resets after accepting `accept` bytes.
fn resetting(accept: usize) -> FailingSink {
    FailingSink::after(accept, ErrorKind::ConnectionReset)
}

/// Read-only look at the template `rig` has saved for `"ep"` (`None` when
/// nothing is saved): moves no counter.
fn saved_template<R>(rig: &Rig, look: impl FnOnce(&MessageTemplate) -> R) -> Option<R> {
    let key = TemplateKey::for_format("ep", &rig.op, rig.client.config().wire_format);
    let store = rig.client.template_store();
    store.peek(&StoreKey::new(0, key), look)
}

#[test]
fn send_error_surfaces_and_template_survives() {
    let mut rig = lane_rig(WireFormat::SoapXml);
    let xs = doubles(&[1.5; 100]);

    // First send into a writer that dies mid-message.
    let mut flaky = resetting(64);
    let err = rig.fail("ep", &xs, &mut flaky).unwrap();
    assert!(matches!(err, EngineError::Io(_)), "must surface: {err:?}");
    assert_eq!(flaky.out.len(), 64);

    // The same call against a healthy sink: the engine is not poisoned,
    // and — a fresh template is saved only once delivered — builds again.
    assert_eq!(rig.send("ep", &xs).unwrap().tier, SendTier::FirstTime);
}

#[test]
fn failure_during_differential_send_keeps_bytes_consistent() {
    let mut rig = lane_rig(WireFormat::SoapXml);
    let mut xs = vec![1.5; 50];
    rig.send("ep", &doubles(&xs)).unwrap();

    // Dirty some values, then fail the send. The flush happened before the
    // transport error, so the in-memory template already holds the new
    // bytes — the retry must ship exactly those.
    xs[7] = 9.5;
    xs[31] = 2.5;
    rig.fail("ep", &doubles(&xs), &mut resetting(16)).unwrap();
    let retry = rig.send("ep", &doubles(&xs)).unwrap();
    assert_eq!(retry.tier, SendTier::ContentMatch, "already flushed");
}

#[test]
fn failure_during_resize_send_keeps_template_coherent() {
    let mut rig = lane_rig(WireFormat::SoapXml);
    rig.send("ep", &doubles(&[1.5; 10])).unwrap();

    let grown: Vec<f64> = (0..200).map(|i| i as f64 + 0.5).collect();
    rig.fail("ep", &doubles(&grown), &mut resetting(8)).unwrap();

    // After the failed resize-send, the template must still satisfy its
    // invariants and serialize correctly.
    saved_template(&rig, |tpl| tpl.assert_invariants()).expect("template retained");
    let retry = rig.send("ep", &doubles(&grown)).unwrap();
    assert_eq!(retry.tier, SendTier::ContentMatch);
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
    let mut tpl =
        MessageTemplate::build(EngineConfig::paper_default(), &op, &doubles(&[1.5])).unwrap();
    let err = tpl.send(&mut Stuck).unwrap_err();
    let EngineError::Io(io_err) = err else {
        panic!("expected Io error")
    };
    assert_eq!(io_err.kind(), io::ErrorKind::WriteZero);
}

#[test]
fn interleaved_failures_across_endpoints_stay_isolated() {
    for format in WireFormat::ALL {
        let mut rig = lane_rig(format);
        let (args_a, args_b) = (doubles(&[1.5; 20]), doubles(&[2.5; 30]));
        rig.send("a", &args_a).unwrap();
        rig.send("b", &args_b).unwrap();

        // Endpoint B's transport fails; endpoint A is unaffected.
        rig.fail("b", &args_b, &mut resetting(4)).unwrap();
        assert_eq!(rig.send("a", &args_a).unwrap().tier, SendTier::ContentMatch);
        assert_eq!(rig.send("b", &args_b).unwrap().tier, SendTier::ContentMatch);
    }
}

#[test]
fn planner_error_leaves_template_bytes_untouched() {
    let op = doubles_op();
    let mut tpl =
        MessageTemplate::build(EngineConfig::paper_default(), &op, &doubles(&[1.5; 40])).unwrap();
    let mut xs = vec![1.5; 40];
    xs[3] = 9.25;
    xs[21] = -7.125;
    tpl.update_args(&doubles(&xs)).unwrap();
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
    assert_wire(WireFormat::SoapXml, &op, &doubles(&xs), &tpl.to_bytes()).unwrap();
}

#[test]
fn executor_panic_leaves_template_bytes_untouched() {
    // An executor that dies before completing must not have mutated the
    // template: the injected panic fires at the execute seam, and the
    // pre-send bytes must survive the unwind intact.
    let op = doubles_op();
    let mut tpl =
        MessageTemplate::build(EngineConfig::paper_default(), &op, &doubles(&[1.5; 40])).unwrap();
    let mut xs = vec![1.5; 40];
    xs[0] = 123.456;
    xs[39] = -0.0625;
    tpl.update_args(&doubles(&xs)).unwrap();
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
    assert_wire(WireFormat::SoapXml, &op, &doubles(&xs), &tpl.to_bytes()).unwrap();
}

#[test]
fn stale_plan_is_rejected_without_mutation() {
    let op = doubles_op();
    let mut tpl =
        MessageTemplate::build(EngineConfig::paper_default(), &op, &doubles(&[1.5; 20])).unwrap();
    let mut xs = vec![1.5; 20];
    xs[5] = 2.25;
    tpl.update_args(&doubles(&xs)).unwrap();
    let plan = tpl.plan().unwrap();

    // Mutate past the plan: more dirty values, then a resize.
    xs[6] = 3.25;
    xs.push(4.5);
    tpl.update_args(&doubles(&xs)).unwrap();
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
    assert_wire(WireFormat::SoapXml, &op, &doubles(&xs), &tpl.to_bytes()).unwrap();
}

#[test]
fn arity_and_type_errors_leave_no_partial_template() {
    for format in WireFormat::ALL {
        let mut rig = lane_rig(format);
        // Type error on the very first call: no template may be cached,
        // and nothing the spec tracks may have moved.
        let refused = rig
            .client
            .call("ep", &rig.op, &[Value::Int(1)], &mut Vec::new());
        assert!(refused.is_err());
        assert!(saved_template(&rig, |_| ()).is_none());
        rig.check().unwrap();
        // A valid call then builds normally.
        assert_eq!(
            rig.send("ep", &doubles(&[1.5])).unwrap().tier,
            SendTier::FirstTime
        );
    }
}
