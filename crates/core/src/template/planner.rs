//! The send planner: simulate a differential flush against the current
//! template geometry without mutating it (see [`crate::plan`]).
//!
//! The simulation walks the DUT's dirty list — the dirty entries in
//! ascending order, exactly as the executor will apply them, and nothing
//! else: planning costs in proportion to what changed — and decides per
//! leaf whether the new serialization overwrites, rewrites in width, steals
//! neighbor padding, or shifts. One carried width override is all the
//! state this needs: a steal at entry `i` only ever narrows entry `i+1`,
//! and the neighbor is still pristine when the decision is made, so the
//! simulated geometry matches what the executor sees live.

use super::MessageTemplate;
use crate::config::GrowthPolicy;
use crate::error::EngineError;
use crate::plan::{InjectedFault, OpKind, PlanCost, PlanStamp, PlannedOp, SendPlan};
use bsoap_obs::{Counter, Recorder};

impl MessageTemplate {
    /// Snapshot of the state a plan is valid against.
    pub(crate) fn plan_stamp(&self) -> PlanStamp {
        PlanStamp {
            leaves: self.dut.len(),
            dirty: self.dut.dirty_count(),
            total_len: self.store.total_len(),
            resizes: self.pending_resizes.len(),
        }
    }

    /// Compute a read-only [`SendPlan`] for the current dirty set and
    /// queued resizes. Does not touch a template byte.
    pub fn plan(&self) -> Result<SendPlan, EngineError> {
        if self.fault == Some(InjectedFault::PlanError) {
            return Err(EngineError::StructureMismatch {
                why: "injected planner fault".into(),
            });
        }
        let plan = self.compute_plan();
        if let Some(m) = &self.metrics {
            m.add(Counter::PlansComputed, 1);
        }
        Ok(plan)
    }

    /// The pure planning pass (uncounted; `plan()` is the metered entry).
    pub(crate) fn compute_plan(&self) -> SendPlan {
        let mut plan = SendPlan {
            tier: self.pending_tier(),
            ops: Vec::new(),
            blob: Vec::new(),
            deferred_resizes: !self.pending_resizes.is_empty(),
            cost: PlanCost::default(),
            stamp: self.plan_stamp(),
        };

        if plan.deferred_resizes {
            // Structural send: the executor applies the queued resizes and
            // re-plans the leaf patches against the post-resize geometry.
            // Estimate the resize work coarsely here so the cost gate can
            // still price the send.
            for (idx, value) in &self.pending_resizes {
                let a = &self.arrays[*idx];
                let new_len = value.array_len().unwrap_or(a.len);
                let elem_bytes = self.array_elem_bytes(*idx) as u64;
                if new_len > a.len {
                    let added = (new_len - a.len) as u64;
                    plan.cost.bytes_moved += added * elem_bytes;
                    plan.cost.values_reserialized += added * a.leaves_per_elem as u64 + 1;
                } else {
                    plan.cost.bytes_moved += (a.len - new_len) as u64 * elem_bytes;
                    plan.cost.values_reserialized += 1;
                }
            }
            plan.cost.values_reserialized += self.dut.dirty_count() as u64;
            return plan;
        }

        let float = self.config.float;
        let lane = self.config.wire_format;
        let growth = self.config.growth;
        let steal_on = self.config.steal;
        let entries = self.dut.entries();
        let dirty = self.dut.dirty();
        // One op per dirty leaf; the blob is sized by what those leaves
        // hold now — exact on a fixed-width lane, and where a lexical form
        // grew the one doubling is amortised over the whole plan.
        plan.ops.reserve_exact(dirty.len());
        plan.blob.reserve(
            dirty
                .iter()
                .map(|&i| entries[i as usize].ser_len as usize)
                .sum(),
        );
        // A planned steal at entry i narrows entry i+1 before it is
        // considered; dropped unread if i+1 turns out clean.
        let mut next_override: Option<(usize, u32)> = None;
        // First planned gap per chunk — the coalesced pass moves
        // `chunk_len − first_gap` bytes regardless of how many gaps open.
        let mut chunk_first_gap: Vec<(u32, u32)> = Vec::new();

        for &i in dirty {
            let i = i as usize;
            let e = &entries[i];
            debug_assert!(e.dirty);
            let lo = plan.blob.len() as u32;
            lane.encode_leaf(&e.value, &mut plan.blob, float);
            let hi = plan.blob.len() as u32;
            let new_len = hi - lo;
            let eff_width = match next_override.take() {
                Some((j, w)) if j == i => w,
                _ => e.width,
            };
            let kind = if new_len == e.ser_len {
                OpKind::Overwrite
            } else if new_len <= eff_width {
                OpKind::InWidth
            } else {
                let target = match growth {
                    GrowthPolicy::Exact => new_len,
                    GrowthPolicy::ToMax => e
                        .kind
                        .max_width()
                        .map(|m| (m as u32).max(new_len))
                        .unwrap_or(new_len),
                };
                let delta = target - eff_width;
                let neighbor = entries.get(i + 1).filter(|n| {
                    steal_on
                        && n.loc.chunk == e.loc.chunk
                        && n.pad() >= delta
                        && n.width - delta >= n.ser_len
                });
                if let Some(n) = neighbor {
                    next_override = Some((i + 1, n.width - delta));
                    let span = (n.loc.offset + n.ser_len + n.suffix_len) - e.region_end();
                    plan.cost.bytes_moved += span as u64;
                    OpKind::Steal {
                        delta,
                        new_width: target,
                    }
                } else {
                    if chunk_first_gap.last().map(|&(c, _)| c) != Some(e.loc.chunk) {
                        chunk_first_gap.push((e.loc.chunk, e.region_end()));
                    }
                    OpKind::Shift {
                        delta,
                        new_width: target,
                    }
                }
            };
            plan.cost.values_reserialized += 1;
            plan.ops.push(PlannedOp {
                entry: i,
                kind,
                lo,
                hi,
            });
        }

        for (c, gap) in chunk_first_gap {
            let chunk_len = self.store.chunk(c as usize).len() as u64;
            plan.cost.bytes_moved += chunk_len.saturating_sub(gap as u64);
        }
        plan
    }

    /// The cost a from-scratch FirstTime serialization would incur, in the
    /// same currency as [`PlanCost::total`]: every byte written, every leaf
    /// re-serialized. The §5 break-even gate compares a plan against this.
    pub fn rebuild_estimate(&self) -> u64 {
        self.store.total_len() as u64 + self.dut.len() as u64
    }
}
