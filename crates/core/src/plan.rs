//! Read-only send planning — the data half of the plan/execute split.
//!
//! A [`SendPlan`] is everything a differential send will do, computed from
//! the DUT table and the pending argument updates **without touching a
//! single template byte**: which leaves are rewritten in place, which need
//! stealing or shifting (and by how much), which arrays grow or shrink,
//! and an estimated cost in the paper's §5 currency
//! (`bytes_moved + values_reserialized`).
//!
//! Planning first buys three things:
//!
//! 1. **Coalesced execution** — all width growth in a chunk is known up
//!    front, so the executor opens every gap with one right-to-left pass
//!    per chunk ([`bsoap_chunks::ChunkStore::open_gaps_right`]) and one
//!    batched DUT fixup, O(chunk) instead of O(shifts × chunk).
//! 2. **Cost-gated fallback** — the §5 break-even experiments show
//!    differential sends *lose* to a rebuild once shifting work crosses a
//!    threshold; [`PlanCost`] makes that a one-comparison decision before
//!    any mutation (`EngineConfig::{cost_fallback, fallback_ratio}`).
//! 3. **Failure atomicity** — an error raised during planning leaves the
//!    template byte-identical to its pre-send state, because nothing has
//!    been patched yet.
//!
//! The planner itself lives in `template/planner.rs`; the executor in
//! `template/patch.rs`.

use crate::template::SendTier;

/// What the executor must do to one dirty leaf.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// New serialization has the same length: overwrite value bytes only.
    Overwrite,
    /// New serialization differs in length but fits the field width:
    /// rewrite `[value][suffix][pad]` in place.
    InWidth,
    /// Field grows by `delta`; the neighbor's padding absorbs it (§3.2
    /// stealing). The neighbor's offset advances and its width shrinks by
    /// `delta`; this field's width becomes `new_width`.
    Steal {
        /// Bytes taken from the right neighbor's padding.
        delta: u32,
        /// This field's width after the steal.
        new_width: u32,
    },
    /// Field grows by `delta` and the chunk tail must move (§3.2
    /// shifting). The executor coalesces all shifts of a chunk into one
    /// pass; this field's width becomes `new_width`.
    Shift {
        /// Gap bytes opened at this field's region end.
        delta: u32,
        /// This field's width after the shift.
        new_width: u32,
    },
}

impl OpKind {
    /// The field width this op leaves behind, when it changes it.
    pub fn new_width(self) -> Option<u32> {
        match self {
            OpKind::Overwrite | OpKind::InWidth => None,
            OpKind::Steal { new_width, .. } | OpKind::Shift { new_width, .. } => Some(new_width),
        }
    }
}

/// One planned leaf rewrite: the DUT entry it targets, how the executor
/// makes room, and where the pre-serialized bytes live in the plan blob.
#[derive(Clone, Copy, Debug)]
pub struct PlannedOp {
    /// DUT entry index.
    pub entry: usize,
    /// How the executor applies it.
    pub kind: OpKind,
    /// Start of the serialized value in [`SendPlan`]'s blob.
    pub lo: u32,
    /// End of the serialized value in [`SendPlan`]'s blob.
    pub hi: u32,
}

/// Estimated cost of executing a plan, in the §5 break-even currency.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanCost {
    /// Template bytes the executor will move (coalesced shift passes,
    /// steal spans, array grow/shrink tail moves).
    pub bytes_moved: u64,
    /// Leaf values that will be re-serialized into the message.
    pub values_reserialized: u64,
}

impl PlanCost {
    /// The scalar the cost gate compares: `bytes_moved + values_reserialized`.
    pub fn total(self) -> u64 {
        self.bytes_moved + self.values_reserialized
    }
}

/// Snapshot of the template state a plan was computed against. The
/// executor refuses ([`crate::EngineError::PlanStale`]) to apply a plan
/// whose stamp no longer matches, rather than corrupt the template.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct PlanStamp {
    /// DUT entry count.
    pub leaves: usize,
    /// Dirty leaf count.
    pub dirty: usize,
    /// Total serialized bytes.
    pub total_len: usize,
    /// Queued array resizes.
    pub resizes: usize,
}

/// A read-only differential-send plan (see the module docs).
///
/// Produced by `MessageTemplate::plan`, consumed by
/// `MessageTemplate::flush_planned`. Between the two calls the template
/// must not be mutated; the stamp check enforces this.
#[derive(Clone, Debug)]
pub struct SendPlan {
    /// Tier the send will report.
    pub(crate) tier: SendTier,
    /// Leaf rewrites in ascending DUT order.
    pub(crate) ops: Vec<PlannedOp>,
    /// All re-serialized values, back to back; ops index into this.
    pub(crate) blob: Vec<u8>,
    /// Array resizes are queued on the template: the executor applies them
    /// first, then re-plans the (post-resize) leaf patches internally. The
    /// cost above already includes a resize estimate.
    pub(crate) deferred_resizes: bool,
    /// Estimated execution cost.
    pub(crate) cost: PlanCost,
    /// Template state this plan is valid against.
    pub(crate) stamp: PlanStamp,
}

impl SendPlan {
    /// Tier this send will report.
    pub fn tier(&self) -> SendTier {
        self.tier
    }

    /// Estimated execution cost (the §5 break-even input).
    pub fn cost(&self) -> PlanCost {
        self.cost
    }
}

/// Failure-injection points for the atomicity tests: set via
/// `MessageTemplate::inject_fault` (test support, never set in production).
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InjectedFault {
    /// `plan()` returns an error before computing anything.
    PlanError,
    /// The executor panics after validation, before any mutation.
    ExecutorPanic,
}
