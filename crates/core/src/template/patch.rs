//! Differential flush: rewrite only dirty values, expanding fields on
//! demand via stealing and shifting (§3.2).
//!
//! ## Plan/execute split
//!
//! The planner (`planner.rs`) computes a read-only [`SendPlan`]; this
//! module's executor applies it in three phases. The order is sound
//! because steals never change a region's end position and shifts only
//! move bytes at-or-past a region end:
//!
//! 1. **Steals** (ascending): move each steal span right, narrow the
//!    neighbor. The plan's simulated widths match live geometry exactly.
//! 2. **Coalesced shifts**: group planned gaps by chunk and open them all
//!    with one right-to-left pass ([`bsoap_chunks::ChunkStore::open_gaps_right`])
//!    and one batched DUT fixup — O(chunk) per chunk instead of
//!    O(shifts × chunk). When a chunk cannot grow, it splits at the first
//!    gap and the remaining gaps re-group in the new tail chunk.
//! 3. **Writes** (ascending): every region's final location and width are
//!    settled, so each write lays down `[value][suffix][pad]` from the
//!    plan blob and touches only its own region's bytes.

use super::{MessageTemplate, SendReport, SendTier};
use crate::config::KernelPolicy;
use crate::dut::DutEntry;
use crate::error::EngineError;
use crate::plan::{InjectedFault, OpKind, PlannedOp, SendPlan};
use crate::send::count_serialized;
use bsoap_obs::{Counter, Recorder, TraceKind};

/// Counters for one flush. [`MessageTemplate::finish_flush`] is the single
/// fold that turns these into lifetime stats, obs counters, the trace span,
/// and the [`SendReport`] — new counters are added there and here only.
#[derive(Default)]
struct PatchCounters {
    values_written: usize,
    shifts: usize,
    steals: usize,
    splits: usize,
    shifted_bytes: u64,
    dut_fixups: u64,
    coalesced_passes: u64,
}

impl MessageTemplate {
    /// Apply a previously computed [`SendPlan`] (the execute half of the
    /// plan/execute split). The template must not have been mutated since
    /// the plan was computed; a drifted stamp returns
    /// [`EngineError::PlanStale`] without touching anything.
    pub fn flush_planned(&mut self, plan: &SendPlan) -> Result<SendReport, EngineError> {
        let stamp = self.plan_stamp();
        if plan.stamp != stamp {
            return Err(EngineError::PlanStale {
                why: format!("plan stamp {:?} vs template {:?}", plan.stamp, stamp),
            });
        }
        let tier = plan.tier;
        let dirty = plan.stamp.dirty;
        let flush_start = self.metrics.as_ref().map(|m| m.now_ns());
        let mut counters = PatchCounters::default();
        self.execute_plan(plan, &mut counters);
        Ok(self.finish_flush(tier, dirty, flush_start, counters))
    }

    /// The single counter fold of a flush: lifetime stats, obs counters
    /// (including chunk-store churn scooped since the last flush — resize
    /// work included), the per-send trace span, and the report.
    fn finish_flush(
        &mut self,
        tier: SendTier,
        dirty: usize,
        flush_start: Option<u64>,
        counters: PatchCounters,
    ) -> SendReport {
        self.structure_changed = false;
        match tier {
            SendTier::ContentMatch => self.stats.content += 1,
            SendTier::PerfectStructural => self.stats.perfect += 1,
            SendTier::PartialStructural => self.stats.partial += 1,
            SendTier::FirstTime => unreachable!("flush never reports first-time"),
        }
        self.stats.values_written += counters.values_written as u64;
        self.stats.shifts += counters.shifts as u64;
        self.stats.steals += counters.steals as u64;
        self.stats.splits += counters.splits as u64;
        self.stats.shifted_bytes += counters.shifted_bytes;

        let churn = self.store.take_counters();
        if let Some(m) = &self.metrics {
            // The bytes exist: this is where a differential send counts.
            count_serialized(m, self.config.wire_format, tier, counters.values_written);
            m.add(Counter::ChunkGrows, churn.grows);
            m.add(Counter::ChunkMovedBytes, churn.moved_bytes);
            m.add(Counter::Shifts, counters.shifts as u64);
            m.add(Counter::Steals, counters.steals as u64);
            m.add(Counter::Splits, counters.splits as u64);
            m.add(Counter::ShiftedBytes, counters.shifted_bytes);
            m.add(Counter::DutFixups, counters.dut_fixups);
            m.add(Counter::CoalescedShiftPasses, counters.coalesced_passes);
            m.trace(TraceKind::SendSpan {
                tier,
                dirty: dirty as u64,
                values_written: counters.values_written as u64,
                shifted_bytes: counters.shifted_bytes,
                shifts: counters.shifts as u64,
                steals: counters.steals as u64,
                splits: counters.splits as u64,
                dut_fixups: counters.dut_fixups,
                bytes: self.store.total_len() as u64,
                elapsed_ns: m.now_ns().saturating_sub(flush_start.unwrap_or(0)),
            });
        }

        SendReport {
            tier,
            bytes: self.store.total_len(),
            values_written: counters.values_written,
            shifts: counters.shifts,
            steals: counters.steals,
            splits: counters.splits,
            fell_back: false,
        }
    }

    // ------------------------------------------------------------------
    // Executor
    // ------------------------------------------------------------------

    /// Apply a validated plan: queued resizes first (re-planning the leaf
    /// patches against the post-resize geometry), then the three phases.
    fn execute_plan(&mut self, plan: &SendPlan, counters: &mut PatchCounters) {
        // The injected-executor-fault fires after validation but before any
        // mutation: the atomicity tests assert the template is untouched.
        assert!(
            self.fault != Some(InjectedFault::ExecutorPanic),
            "injected executor fault"
        );
        if plan.deferred_resizes {
            let pending = std::mem::take(&mut self.pending_resizes);
            for (idx, value) in &pending {
                self.resize_array(*idx, value)
                    .expect("resize tail validated at update_args time");
            }
            let inner = self.compute_plan();
            debug_assert!(!inner.deferred_resizes);
            self.execute_ops(&inner, counters);
        } else {
            self.execute_ops(plan, counters);
        }
    }

    /// The three executor phases over a resize-free plan.
    fn execute_ops(&mut self, plan: &SendPlan, counters: &mut PatchCounters) {
        // Phase 1: steals, ascending. A steal never moves its own region's
        // end, so later gap positions are unaffected.
        for op in &plan.ops {
            if let OpKind::Steal { delta, .. } = op.kind {
                self.execute_steal(op.entry, delta);
                counters.steals += 1;
            }
        }
        // Phase 2: coalesced shifts, grouped by (live) chunk.
        let shifts: Vec<(usize, u32)> = plan
            .ops
            .iter()
            .filter_map(|op| match op.kind {
                OpKind::Shift { delta, .. } => Some((op.entry, delta)),
                _ => None,
            })
            .collect();
        let mut i = 0;
        while i < shifts.len() {
            let chunk = self.dut.entry(shifts[i].0).loc.chunk;
            let mut end = i + 1;
            while end < shifts.len() && self.dut.entry(shifts[end].0).loc.chunk == chunk {
                end += 1;
            }
            self.execute_shift_group(&shifts[i..end], counters);
            i = end;
        }
        // Phase 3: writes. Locations and widths are final.
        self.execute_writes(&plan.ops, &plan.blob, counters);
    }

    /// Apply one planned steal (§3.2: "stealing extra space from
    /// neighboring fields, instead of shifting entire portions of message
    /// chunks"; feasibility was proven by the planner against the same
    /// geometry): move the span between this region's end and the
    /// neighbor's value+suffix end right by `delta` (a handful of tag
    /// bytes), narrowing the neighbor.
    fn execute_steal(&mut self, i: usize, delta: u32) {
        let j = i + 1;
        let e = self.dut.entry(i);
        let n = self.dut.entry(j);
        debug_assert_eq!(n.loc.chunk, e.loc.chunk);
        debug_assert!(n.pad() >= delta && n.width - delta >= n.ser_len);
        let span_start = e.region_end();
        let span_end = n.loc.offset + n.ser_len + n.suffix_len;
        debug_assert!(span_start <= n.loc.offset);
        let chunk = e.loc.chunk;

        self.store.move_range_right(
            chunk as usize,
            span_start as usize,
            span_end as usize,
            delta as usize,
        );

        // Fix the neighbor's geometry.
        {
            let n = self.dut.entry_mut_raw(j);
            n.loc.offset += delta;
            n.width -= delta;
        }
        // Markers inside or at the start of the moved span ride along.
        for a in &mut self.arrays {
            for m in [&mut a.content_start, &mut a.content_end] {
                if m.chunk == chunk && m.offset >= span_start && m.offset < span_end {
                    m.offset += delta;
                }
            }
        }
    }

    /// Open every planned gap of one chunk. The fast path is a single
    /// right-to-left pass; when the chunk cannot grow to hold all the gaps
    /// it splits at the first gap (bounding future shift work to the chunk
    /// size) and the remaining gaps re-group in the tail chunk.
    fn execute_shift_group(&mut self, group: &[(usize, u32)], counters: &mut PatchCounters) {
        let mut rest = group;
        while !rest.is_empty() {
            let first_entry = rest[0].0;
            let chunk = self.dut.entry(first_entry).loc.chunk;
            let total: usize = rest.iter().map(|&(_, d)| d as usize).sum();
            if self.store.try_grow(chunk as usize, total) {
                let gaps: Vec<(u32, u32)> = rest
                    .iter()
                    .map(|&(entry, d)| (self.dut.entry(entry).region_end(), d))
                    .collect();
                let gaps_bytes: Vec<(usize, usize)> = gaps
                    .iter()
                    .map(|&(g, d)| (g as usize, d as usize))
                    .collect();
                counters.shifted_bytes += self.store.open_gaps_right_with(
                    chunk as usize,
                    &gaps_bytes,
                    self.config.kernel,
                );
                counters.shifts += rest.len();
                counters.coalesced_passes += 1;
                counters.dut_fixups += self.apply_multi_gap_fixups(first_entry, chunk, &gaps);
                return;
            }
            // Split at the first gap; the tail (including all later gap
            // positions) rehomes to the new chunk and the loop continues
            // there. The lone first gap then sits at its chunk's end, so
            // its shift moves zero bytes.
            let (entry, delta) = rest[0];
            let gap_at = self.dut.entry(entry).region_end();
            self.store.split_chunk(chunk as usize, gap_at as usize);
            counters.splits += 1;
            counters.dut_fixups += self.apply_split_fixups(entry, chunk, gap_at);
            if !self.store.try_grow(chunk as usize, delta as usize) {
                self.store.grow_unbounded(chunk as usize, delta as usize);
            }
            self.store
                .shift_tail_right(chunk as usize, gap_at as usize, delta as usize);
            counters.shifts += 1;
            rest = &rest[1..];
        }
    }

    /// Batched DUT/marker fixup after [`bsoap_chunks::ChunkStore::open_gaps_right`]:
    /// everything in `chunk` after the first gap's entry moves right by the
    /// sum of the deltas of gaps at-or-before its offset (positions in
    /// pre-pass coordinates, ascending), in one sweep for all gaps.
    ///
    /// Entries within a chunk sit at ascending offsets (document order), so
    /// the entry sweep and the ascending gap list merge with two pointers —
    /// O(entries + gaps). Array markers are few and unsorted; they use a
    /// binary search over the same prefix sums.
    fn apply_multi_gap_fixups(
        &mut self,
        after_entry: usize,
        chunk: u32,
        gaps: &[(u32, u32)],
    ) -> u64 {
        // prefix[i] = sum of deltas of gaps[0..i].
        let mut prefix: Vec<u32> = Vec::with_capacity(gaps.len() + 1);
        prefix.push(0);
        for &(_, d) in gaps {
            prefix.push(prefix.last().unwrap() + d);
        }

        let mut fixed = 0u64;
        let entries = self.dut.entries_mut_raw();
        let mut gi = 0usize; // gaps[..gi] lie at-or-before the current offset
        let mut prev_offset = 0u32;
        for e in entries.iter_mut().skip(after_entry + 1) {
            if e.loc.chunk != chunk {
                break; // document order: once past this chunk, done
            }
            debug_assert!(e.loc.offset >= prev_offset, "entries not ascending");
            prev_offset = e.loc.offset;
            while gi < gaps.len() && gaps[gi].0 <= e.loc.offset {
                gi += 1;
            }
            let bump = prefix[gi];
            if bump > 0 {
                e.loc.offset += bump;
                fixed += 1;
            }
        }
        for a in &mut self.arrays {
            for m in [&mut a.content_start, &mut a.content_end] {
                if m.chunk == chunk {
                    let at = gaps.partition_point(|&(g, _)| g <= m.offset);
                    m.offset += prefix[at];
                }
            }
        }
        fixed
    }

    /// Phase 3: write every planned region `[value][suffix][pad]` from the
    /// plan blob. Regions are disjoint and fully settled. The ops are the
    /// dirty list, one each, so clearing their bits empties it.
    fn execute_writes(&mut self, ops: &[PlannedOp], blob: &[u8], counters: &mut PatchCounters) {
        counters.values_written += ops.len();
        let kernel = self.config.kernel;
        let MessageTemplate { store, dut, .. } = &mut *self;
        for op in ops {
            let e = &mut dut.entries_mut_raw()[op.entry];
            apply_write(
                store.chunk_buf_mut(e.loc.chunk as usize),
                e,
                op,
                blob,
                kernel,
            );
        }
        debug_assert_eq!(ops.len(), dut.dirty_count());
        dut.clear_dirty_list();
    }

    /// After splitting `chunk` at `split_at`: rehome entries and markers in
    /// the moved tail to `(chunk+1, offset−split_at)` and bump the chunk
    /// index of everything in later chunks. Returns the number of DUT
    /// entries rehomed or renumbered.
    fn apply_split_fixups(&mut self, after_entry: usize, chunk: u32, split_at: u32) -> u64 {
        let mut fixed = 0u64;
        let entries = self.dut.entries_mut_raw();
        for e in entries.iter_mut().skip(after_entry + 1) {
            if e.loc.chunk == chunk {
                debug_assert!(e.loc.offset >= split_at, "entry left of split after pivot");
                e.loc.chunk = chunk + 1;
                e.loc.offset -= split_at;
                fixed += 1;
            } else if e.loc.chunk > chunk {
                e.loc.chunk += 1;
                fixed += 1;
            }
        }
        for a in &mut self.arrays {
            for m in [&mut a.content_start, &mut a.content_end] {
                if m.chunk == chunk && m.offset >= split_at {
                    m.chunk = chunk + 1;
                    m.offset -= split_at;
                } else if m.chunk > chunk {
                    m.chunk += 1;
                }
            }
        }
        fixed
    }
}

/// Apply one planned write to its entry and chunk buffer: commit the new
/// width (room was made in phases 1–2), lay down `[value][suffix][pad]`
/// from the plan blob, and settle the entry's bookkeeping.
fn apply_write(
    buf: &mut [u8],
    e: &mut DutEntry,
    op: &PlannedOp,
    blob: &[u8],
    kernel: KernelPolicy,
) {
    if let Some(w) = op.kind.new_width() {
        e.width = w;
    }
    let bytes = &blob[op.lo as usize..op.hi as usize];
    write_in_width_kern(buf, e, bytes, kernel);
    e.ser_len = op.hi - op.lo;
    e.dirty = false;
}

/// In-place region rewrite on a raw chunk buffer, for a value that fits
/// its field (§3.2's "closing tag shift").
///
/// Produces the `[value][suffix][pad]` layout: the closing tag
/// is slid from its old position (after `ser_len` bytes) to the new value
/// end, then the remainder of the region is padded with spaces. The
/// suffix move runs first because the regions may overlap; the trailing
/// pad goes through the wide-store space fill when the policy resolves
/// to a SIMD level.
fn write_in_width_kern(buf: &mut [u8], e: &DutEntry, bytes: &[u8], kernel: KernelPolicy) {
    let off = e.loc.offset as usize;
    let old_ser = e.ser_len as usize;
    let sfx = e.suffix_len as usize;
    let width = e.width as usize;
    let new_len = bytes.len();
    debug_assert!(new_len <= width);
    if new_len == old_ser {
        // Same length: value bytes only, tags and padding untouched.
        buf[off..off + new_len].copy_from_slice(bytes);
        return;
    }
    buf.copy_within(off + old_ser..off + old_ser + sfx, off + new_len);
    buf[off..off + new_len].copy_from_slice(bytes);
    bsoap_convert::pad_spaces_with(&mut buf[off + new_len + sfx..off + width + sfx], kernel);
}
