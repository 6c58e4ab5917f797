//! The six workloads: what each sends, why it exists, which trajectory it
//! must stay on, and the service that answers it.

use crate::gen::{self, Expect, Kind, Phase};
use bsoap::convert::ScalarKind;
use bsoap::server::Service;
use bsoap::wsdl::ServiceDesc;
use bsoap::{
    EngineConfig, FloatFormatter, OpDesc, ParamDesc, SendTier, StoreMode, TypeDesc, Value,
    WireFormat,
};

pub const NAMESPACE: &str = "urn:bench";
pub const ENDPOINT: &str = "http://bench.local/svc";
/// Client template-store budget of `cold_mix`, against ~1.8 MB of templates.
pub const MIX_STORE_BUDGET: usize = 256 * 1024;

pub struct Spec {
    pub name: &'static str,
    /// One line: why the workload exists (also in `BENCHMARK.json`).
    pub why: &'static str,
    pub kind: Kind,
    pub wire: WireFormat,
    /// Fixed-count warm-up: long enough to leave the first-time sends (and
    /// the lane negotiation) behind; a whole number of trajectory periods
    /// plus the first call.
    pub warmup_calls: usize,
    /// Calls replayed by one staged traced pass.
    pub traced_calls: usize,
    /// `request_bytes_per_call` is the mean over this many measured calls, a
    /// multiple of the trajectory period, so it is exact for a seed.
    pub bytes_window: usize,
    pub store_budget: usize,
}

pub const SPECS: [Spec; 6] = [
    Spec {
        name: "echo_small",
        why: "100 unchanging doubles: content match every call, so cost is HTTP framing, syscalls, server core and hand-off; transport/server gains show here first",
        kind: Kind::EchoSmall,
        wire: WireFormat::SoapXml,
        warmup_calls: 2000,
        traced_calls: 200,
        bytes_window: 1000,
        store_budget: 0,
    },
    Spec {
        name: "patch_mid",
        why: "2000 doubles, 500 rewritten in place per call at fixed width: the paper's Figs 4-5 case, convert + core patch + differential deser dominate",
        kind: Kind::PatchMid,
        wire: WireFormat::SoapXml,
        warmup_calls: 200,
        traced_calls: 200,
        bytes_window: 300,
        store_budget: 0,
    },
    Spec {
        name: "patch_mid_bin1",
        why: "patch_mid inputs on the negotiated compact-binary lane: number-to-ASCII and shifting vanish, so it is the bypass for every XML-lane optimisation",
        kind: Kind::PatchMid,
        wire: WireFormat::CompactBinary,
        warmup_calls: 200,
        traced_calls: 200,
        bytes_window: 300,
        store_budget: 0,
    },
    Spec {
        name: "grow_cycle",
        why: "append 100 narrow values, widen them, truncate: a stationary cycle of resizes and exactly 100 shifts, the write path that moves bytes",
        kind: Kind::GrowCycle,
        wire: WireFormat::SoapXml,
        warmup_calls: 1 + 3 * 40,
        traced_calls: 201,
        bytes_window: 300,
        store_budget: 0,
    },
    Spec {
        name: "cold_mix",
        why: "32 operations of strings, ints and doubles, all values fresh, working set 7x the template store: build, full convert, escape, evict and full parse dominate",
        kind: Kind::ColdMix,
        wire: WireFormat::SoapXml,
        warmup_calls: 2 * gen::MIX_OPS,
        traced_calls: 6 * gen::MIX_OPS,
        bytes_window: 10 * gen::MIX_OPS,
        store_budget: MIX_STORE_BUDGET,
    },
    Spec {
        name: "bulk_stream",
        why: "25000 doubles (~1.5 MB) streamed through the bounded overlay window to a streaming server: memory and bytes must hold while throughput moves",
        kind: Kind::BulkStream,
        wire: WireFormat::SoapXml,
        warmup_calls: 3,
        traced_calls: 20,
        bytes_window: 10,
        store_budget: 0,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// The engine configuration every side starts from, and the server's: the
/// paper's operating point with each environment-defaulted knob pinned
/// explicitly.
pub fn server_config() -> EngineConfig {
    EngineConfig::paper_default()
        .with_wire_format(WireFormat::SoapXml)
        .with_server_core(bsoap_core::ServerCore::WorkerPool)
        .with_store_mode(StoreMode::Shared)
}

pub fn client_config(spec: &Spec) -> EngineConfig {
    server_config()
        .with_wire_format(spec.wire)
        .with_store_budget(spec.store_budget)
}

pub fn float_formatter_name() -> &'static str {
    match server_config().float {
        FloatFormatter::Exact2004 => "Exact2004",
        FloatFormatter::Fast => "Fast",
    }
}

fn doubles() -> TypeDesc {
    TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double))
}

fn param(name: &str, desc: TypeDesc) -> ParamDesc {
    ParamDesc {
        name: name.to_owned(),
        desc,
    }
}

/// Request operations of a workload, indexed as `Gen::op` counts them.
pub fn operations(kind: Kind) -> Vec<OpDesc> {
    match kind {
        Kind::EchoSmall | Kind::PatchMid | Kind::GrowCycle => {
            vec![OpDesc::single("sum", NAMESPACE, "xs", doubles())]
        }
        Kind::BulkStream => vec![OpDesc::single("send", NAMESPACE, "arr", doubles())],
        Kind::ColdMix => (0..gen::MIX_OPS)
            .map(|k| {
                OpDesc::new(
                    &format!("put{k:02}"),
                    NAMESPACE,
                    vec![
                        param("label", TypeDesc::Scalar(ScalarKind::Str)),
                        param("cells", TypeDesc::array_of(TypeDesc::mio())),
                    ],
                )
            })
            .collect(),
    }
}

pub fn response_params(kind: Kind) -> Vec<ParamDesc> {
    match kind {
        Kind::ColdMix => vec![
            param("check", TypeDesc::Scalar(ScalarKind::Long)),
            param("total", TypeDesc::Scalar(ScalarKind::Double)),
        ],
        _ => vec![param("total", TypeDesc::Scalar(ScalarKind::Double))],
    }
}

/// A handler is a plain function so the staged run can time the very same
/// code on its twin arguments.
pub type HandlerFn = fn(&[Value]) -> Result<Vec<Value>, String>;

pub fn handler(kind: Kind) -> HandlerFn {
    match kind {
        Kind::ColdMix => mix_handler,
        _ => sum_handler,
    }
}

fn sum_handler(args: &[Value]) -> Result<Vec<Value>, String> {
    match args {
        [Value::DoubleArray(xs)] => Ok(vec![Value::Double(gen::sum_in_order(xs))]),
        _ => Err("sum takes one double array".to_owned()),
    }
}

fn mix_handler(args: &[Value]) -> Result<Vec<Value>, String> {
    match args {
        [Value::Str(label), Value::Array(cells)] => {
            let (check, total) = gen::mix_reply(label, cells);
            Ok(vec![Value::Long(check), Value::Double(total)])
        }
        _ => Err("put takes a label and a cell array".to_owned()),
    }
}

/// The service description the client works from and the service that
/// answers it (buffered workloads; `bulk_stream` has a sink, not a service).
pub fn build_service(kind: Kind) -> (ServiceDesc, Service) {
    let ops = operations(kind);
    let mut service = Service::new(NAMESPACE, server_config());
    for op in &ops {
        service.register(op.clone(), response_params(kind), handler(kind));
    }
    let desc = ServiceDesc {
        name: "Bench".to_owned(),
        namespace: NAMESPACE.to_owned(),
        endpoint: ENDPOINT.to_owned(),
        operations: ops,
    };
    (desc, service)
}

/// Does a parsed reply carry the value computed from the generated arguments?
pub fn reply_matches(expect: &Expect, reply: &[Value]) -> bool {
    match (expect, reply) {
        (Expect::Sum { total, .. }, [Value::Double(got)]) => got.to_bits() == total.to_bits(),
        (Expect::Mix { check, total }, [Value::Long(c), Value::Double(t)]) => {
            c == check && t.to_bits() == total.to_bits()
        }
        _ => false,
    }
}

/// What one call did, as far as the trajectory assertions care.
#[derive(Clone, Copy, Debug)]
pub struct Sent {
    pub tier: SendTier,
    pub bytes: usize,
    pub values_written: usize,
    pub shifts: usize,
    pub steals: usize,
}

/// The per-call half of a workload's asserted trajectory (after warm-up).
/// `cold_mix` is asserted on shares at the end of a run instead.
pub fn on_trajectory(spec: &Spec, phase: Phase, sent: &Sent) -> Result<(), String> {
    let want = |ok: bool, what: &str| {
        if ok {
            Ok(())
        } else {
            Err(format!("{}: off trajectory ({what}): {sent:?}", spec.name))
        }
    };
    match (spec.kind, phase) {
        (Kind::EchoSmall, _) => want(
            sent.tier == SendTier::ContentMatch,
            "every resend is a content match",
        ),
        (Kind::PatchMid, _) => want(
            sent.tier == SendTier::PerfectStructural
                && sent.values_written == gen::PATCH_DIRTY
                && sent.shifts == 0
                && sent.steals == 0,
            "perfect structural, 500 values written, no shift, no steal",
        ),
        (Kind::GrowCycle, Phase::Append | Phase::Truncate) => want(
            sent.tier == SendTier::PartialStructural,
            "resize is a partial structural match",
        ),
        (Kind::GrowCycle, _) => want(
            sent.tier == SendTier::PerfectStructural && sent.shifts == gen::GROW_TAIL,
            "widening 100 one-digit fields is exactly 100 shifts",
        ),
        (Kind::ColdMix, _) => Ok(()),
        (Kind::BulkStream, _) => want(
            sent.tier == SendTier::PerfectStructural,
            "every streamed resend reuses the window",
        ),
    }
}
