//! # bsoap — differential serialization for SOAP, in Rust
//!
//! A from-scratch reproduction of *"Differential Serialization for
//! Optimized SOAP Performance"* (Abu-Ghazaleh, Lewis, Govindaraju —
//! HPDC 2004). Instead of re-serializing every outgoing SOAP message, a
//! client saves the serialized bytes of the first send as a **template**
//! and, for each later call, rewrites only what changed:
//!
//! * nothing changed → **message content match**: resend the bytes as-is;
//! * some values changed → **perfect structural match**: overwrite just
//!   those values in place, guided by a Data Update Tracking (DUT) table;
//! * array lengths changed → **partial structural match**: expand or
//!   contract the template in place;
//! * first call → **first-time send**: full serialization, template saved.
//!
//! ## Quick start
//!
//! ```
//! use bsoap::{Client, OpDesc, SendTier, TypeDesc, Value};
//! use bsoap::convert::ScalarKind;
//! use bsoap::transport::SinkTransport;
//!
//! let op = OpDesc::single(
//!     "sendVector", "urn:solver", "x",
//!     TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double)),
//! );
//! let mut client = Client::with_defaults();
//! let mut sink = SinkTransport::new();
//!
//! // First call: full serialization.
//! let mut x = vec![0.5_f64; 1000];
//! let r = client.call("http://solver/svc", &op, &[Value::DoubleArray(x.clone())], &mut sink).unwrap();
//! assert_eq!(r.tier, SendTier::FirstTime);
//!
//! // Same data again: the saved bytes are resent verbatim.
//! let r = client.call("http://solver/svc", &op, &[Value::DoubleArray(x.clone())], &mut sink).unwrap();
//! assert_eq!(r.tier, SendTier::ContentMatch);
//!
//! // A few entries change: only those are re-serialized.
//! x[3] = 0.25;
//! let r = client.call("http://solver/svc", &op, &[Value::DoubleArray(x)], &mut sink).unwrap();
//! assert_eq!(r.tier, SendTier::PerfectStructural);
//! assert_eq!(r.values_written, 1);
//! ```
//!
//! ## Crate map
//!
//! | Crate | Role |
//! |-------|------|
//! | [`convert`] | number ↔ ASCII conversion (the measured 90% bottleneck) |
//! | [`xml`] | escaping, names, pull tokenizer, pad canonicalizer |
//! | [`chunks`] | the chunked message buffer (§3.2) |
//! | `core` (re-exported at the root) | templates, DUT table, four tiers, shifting/stuffing/stealing, chunk overlaying, client stub |
//! | [`transport`] | Send-Time measurement rig, HTTP/1.0 + 1.1 framing, loopback servers |
//! | [`baseline`] | gSOAP-like and XSOAP-like full serializers (the paper's comparison toolkits) |
//! | [`deser`] | server-side parsing, incl. differential deserialization (§6) |
//!
//! The harness that regenerates every figure of the paper lives in the
//! `bsoap-bench` crate (`cargo run -p bsoap-bench --bin figures`); what
//! one RPC costs end to end and per layer is measured by the pinned
//! package in `benchmark/` (`cargo run --release --manifest-path
//! benchmark/Cargo.toml -- --workload <name>`; README "Benchmarks").

pub mod rpc;

pub use bsoap_core::{
    soap, Checkout, Client, ClientStats, DutEntry, DutTable, EngineConfig, EngineError,
    FloatFormatter, GrowthPolicy, InjectedFault, MessageTemplate, OpDesc, OverlaidOutcome,
    ParamDesc, PlanCost, Scalar, SendPlan, SendReport, SendTier, StoreKey, StoreMode, TemplateKey,
    TemplateStore, TypeDesc, Value, WidthPolicy, WireFormat,
};

/// Fault-tolerance surface: retry/breaker policy, per-call deadlines,
/// deterministic backoff, breaker state machine.
pub use bsoap_obs::{
    Backoff, BreakerState, Clock, Deadline, DeadlineExpired, MonotonicClock, VirtualClock,
};
pub use bsoap_transport::{AttemptFailure, CircuitBreaker, FaultPolicy, Resilience};

/// Vectored write helper for custom transports (gather-writes a slice
/// list fully, retrying short writes).
pub use bsoap_core::sendv::write_all_vectored;

pub use bsoap_core::overlay::{OverlayReport, OverlaySender};
pub use bsoap_core::value::mio;

/// Number ↔ ASCII conversion substrate.
pub use bsoap_convert as convert;

/// XML substrate (escaping, names, pull parser, canonicalizer).
pub use bsoap_xml as xml;

/// Chunked message buffers.
pub use bsoap_chunks as chunks;

/// Observability: counters, latency histograms, trace ring, /metrics.
pub use bsoap_obs as obs;

/// Transports, HTTP framing, loopback servers.
pub use bsoap_transport as transport;

/// Baseline (non-differential) serializers.
pub use bsoap_baseline as baseline;

/// Deserialization, full and differential.
pub use bsoap_deser as deser;

/// WSDL 1.1 service descriptions (rpc/encoded subset).
pub use bsoap_wsdl as wsdl;

/// SOAP service host (differential paths on both sides of the wire).
pub use bsoap_server as server;

/// Chunk store configuration re-export (used by `EngineConfig`).
pub use bsoap_chunks::ChunkConfig;
