//! # bsoap-server — a SOAP service host with differential paths on both
//! sides of the wire
//!
//! "Although we focus our discussion and performance study on the client
//! side, differential serialization could be used equally well by a
//! server sending identical (or similar) responses to multiple separate
//! clients" (paper §3). This crate is that other half:
//!
//! * **Requests** are parsed with
//!   [`DiffDeserializer`](bsoap_deser::DiffDeserializer) — per-operation
//!   reference messages let repeat callers skip full parsing (§6's
//!   differential deserialization);
//! * **Responses** are sent by the very function a client call is —
//!   [`TemplateStore::send`](bsoap_core::TemplateStore::send), handing the
//!   bytes to the response buffer instead of a socket — over
//!   per-operation, per-lane templates in the service's store: a response
//!   whose values match the previous one (to *any* client) is a content
//!   match, a same-shape response patches only changed values, and both
//!   sides tick the same counters under the same rule. This is the §3.4
//!   "Google and Amazon.com" scenario: "the XML Schema used for the
//!   responses … is always the same; only the values change."
//!
//! [`Service`] holds operation handlers; [`HttpServer`] runs it over
//! loopback HTTP (one thread per connection, `Content-Length` framing).
//!
//! ```
//! use bsoap_core::{EngineConfig, MessageTemplate, OpDesc, ParamDesc, TypeDesc, Value};
//! use bsoap_convert::ScalarKind;
//! use bsoap_server::Service;
//!
//! let op = OpDesc::single("double", "urn:m", "x", TypeDesc::Scalar(ScalarKind::Int));
//! let mut svc = Service::new("urn:m", EngineConfig::paper_default());
//! svc.register(
//!     op.clone(),
//!     vec![ParamDesc { name: "y".into(), desc: TypeDesc::Scalar(ScalarKind::Int) }],
//!     |args| {
//!         let Value::Int(x) = args[0] else { return Err("type".into()) };
//!         Ok(vec![Value::Int(x * 2)])
//!     },
//! );
//! let request = MessageTemplate::build(EngineConfig::paper_default(), &op, &[Value::Int(21)])
//!     .unwrap()
//!     .to_bytes();
//! let response = svc.dispatch("double", &request).unwrap();
//! let parsed =
//!     bsoap_deser::parse_envelope(&response, &svc.response_desc("double").unwrap()).unwrap();
//! assert_eq!(parsed, vec![Value::Int(42)]);
//! ```

pub mod dispatch;
pub mod host;

pub use dispatch::{HandlerError, Service, ServiceStats};
pub use host::HttpServer;
