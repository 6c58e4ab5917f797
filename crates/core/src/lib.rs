//! # bsoap-core — the differential serialization engine
//!
//! This crate is the paper's primary contribution (HPDC 2004, §3): rather
//! than re-serializing every outgoing SOAP message from scratch, the first
//! message of a given structure is fully serialized once and **saved as a
//! template** in the client stub. A **Data Update Tracking (DUT) table**
//! maps every leaf value to its byte location in the saved form; later
//! sends re-serialize only what changed.
//!
//! ## The four matching tiers (§3)
//!
//! | Tier | Condition | Work done |
//! |------|-----------|-----------|
//! | [`SendTier::ContentMatch`] | no dirty bits | gather-send saved bytes verbatim |
//! | [`SendTier::PerfectStructural`] | same structure & sizes | overwrite dirty values in place |
//! | [`SendTier::PartialStructural`] | same structure, different sizes | expand/contract template (shifting), then patch |
//! | [`SendTier::FirstTime`] | no template | full serialization + template & DUT build |
//!
//! ## Mechanisms
//!
//! * **Shifting** (§3.2) — in-chunk tail moves when a value outgrows its
//!   field, with chunk growth and splitting bounded by [`bsoap_chunks::ChunkConfig`],
//! * **Stuffing** (§3.2, §4.4) — whitespace padding to an intermediate or
//!   maximum field width ([`WidthPolicy`]) so growth never shifts,
//! * **Stealing** (§3.2) — taking slack from the right neighbor's padding
//!   instead of shifting the whole chunk tail,
//! * **Chunk overlaying** (§3.3) — streaming huge arrays through a single
//!   reused chunk ([`overlay::OverlaySender`]).
//!
//! ## Entry points
//!
//! [`Client`] gives the automatic four-tier behavior over a [`TemplateStore`];
//! [`MessageTemplate`] is the manual, zero-re-walk API for hot loops.

pub mod cache;
pub mod client;
pub mod config;
pub mod dut;
pub mod error;
pub mod lane;
pub mod overlay;
pub mod plan;
pub mod schema;
pub mod send;
pub mod sendv;
pub mod soap;
pub mod store;
pub mod template;
pub mod value;
pub mod wire;

pub use cache::TemplateKey;
pub use client::{Client, ClientStats, OverlaidOutcome};
pub use config::{
    EngineConfig, FloatFormatter, GrowthPolicy, ServerCore, StoreMode, WidthPolicy, WireFormat,
};
pub use dut::{DutEntry, DutTable};
pub use error::EngineError;
pub use overlay::{OverlayReport, OverlaySender};
pub use plan::{InjectedFault, OpKind, PlanCost, PlannedOp, SendPlan};
pub use schema::{OpDesc, ParamDesc, TypeDesc};
pub use store::{Checkout, StoreKey, TemplateStore};
pub use template::{MessageTemplate, SendReport, SendTier};
pub use value::{Scalar, Value};
