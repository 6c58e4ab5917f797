//! # bsoap-deser — SOAP deserialization, full and differential
//!
//! The receiving half of the stack. [`envelope`] is a schema-directed
//! deserializer: given the [`OpDesc`](bsoap_core::OpDesc) a service
//! expects, it parses an incoming SOAP 1.1 envelope into
//! [`Value`](bsoap_core::Value)s, tolerating the whitespace padding that
//! differential *serialization* deliberately leaves behind.
//!
//! [`diff`] implements the paper's closing suggestion (§6): "storing
//! messages at a SOAP server could help … by suggesting the structure of
//! future message arrivals. This could help avoid complete server-side
//! parsing and improve performance, through **differential
//! deserialization**." A [`DiffDeserializer`] keeps the previous message's
//! bytes plus a map of the regions a sender rewrites (every leaf, every
//! array length field); when the next message lands, one forward walk
//! proves that only such regions changed — at any width, with array tails
//! cut or extended — and re-parses just those: the mirror image of the
//! client's structural matches, perfect and partial.
//!
//! ```
//! use bsoap_core::{EngineConfig, MessageTemplate, OpDesc, TypeDesc, Value, WidthPolicy};
//! use bsoap_convert::ScalarKind;
//! use bsoap_deser::{DiffDeserializer, DiffOutcome};
//!
//! let op = OpDesc::single(
//!     "push", "urn:x", "xs",
//!     TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double)),
//! );
//! // Stuffed sender: value changes never move tags, so the receiver's
//! // differential path stays available.
//! let config = EngineConfig::paper_default().with_width(WidthPolicy::Max);
//! let mut tpl =
//!     MessageTemplate::build(config, &op, &[Value::DoubleArray(vec![1.5, 2.5])]).unwrap();
//!
//! let mut server = DiffDeserializer::new(op);
//! let (_, o) = server.deserialize(&tpl.to_bytes()).unwrap();
//! assert_eq!(o, DiffOutcome::FullParse); // first arrival
//!
//! tpl.update_args(&[Value::DoubleArray(vec![9.5, 2.5])]).unwrap();
//! tpl.flush();
//! let (args, o) = server.deserialize(&tpl.to_bytes()).unwrap();
//! assert_eq!(o, DiffOutcome::Differential { reparsed: 1, skipped: 1 });
//! assert_eq!(args[0], Value::DoubleArray(vec![9.5, 2.5]));
//! ```

pub mod binary;
pub mod diff;
pub mod envelope;
pub mod error;
pub mod lane;
pub mod stream;

pub use binary::{parse_binary_envelope, BinaryDiffDeserializer};
pub use diff::{DeserStats, DiffDeserializer, DiffOutcome, DiffShell, Reference};
pub use envelope::{parse_envelope, parse_envelope_mapped, MappedMessage, RegionKind};
pub use error::DeserError;
pub use lane::{decode, LaneDeserializer};
pub use stream::{StreamSummary, StreamingDeserializer};
